#include "dsm/protocols/replay_filter.h"

namespace dsm {

bool ReplayFilterObserver::first(EvKind kind, ProcessId at, WriteId w) {
  const std::scoped_lock lock(mu_);
  const bool inserted = seen_.insert(Key{kind, at, w.proc, w.seq}).second;
  if (!inserted) ++suppressed_;
  return inserted;
}

bool ReplayFilterObserver::muted() {
  const std::scoped_lock lock(mu_);
  if (muted_) ++suppressed_;
  return muted_;
}

void ReplayFilterObserver::preseed(const RunEvent& e) {
  if (e.kind == EvKind::kReturn) return;
  const std::scoped_lock lock(mu_);
  seen_.insert(Key{e.kind, e.at, e.write.proc, e.write.seq});
}

void ReplayFilterObserver::set_muted(bool muted) {
  const std::scoped_lock lock(mu_);
  muted_ = muted;
}

std::uint64_t ReplayFilterObserver::suppressed() const {
  const std::scoped_lock lock(mu_);
  return suppressed_;
}

void ReplayFilterObserver::on_send(ProcessId at, const WriteUpdate& m) {
  if (muted()) return;
  if (first(EvKind::kSend, at, WriteId{m.sender, m.write_seq})) {
    target_->on_send(at, m);
  }
}

void ReplayFilterObserver::on_receipt(ProcessId at, const WriteUpdate& m) {
  if (muted()) return;
  if (first(EvKind::kReceipt, at, WriteId{m.sender, m.write_seq})) {
    target_->on_receipt(at, m);
  }
}

void ReplayFilterObserver::on_apply(ProcessId at, WriteId w, bool delayed) {
  if (muted()) return;
  if (first(EvKind::kApply, at, w)) target_->on_apply(at, w, delayed);
}

void ReplayFilterObserver::on_return(ProcessId at, VarId x, Value v,
                                     WriteId from) {
  if (muted()) return;
  target_->on_return(at, x, v, from);
}

void ReplayFilterObserver::on_skip(ProcessId at, WriteId w, WriteId by) {
  if (muted()) return;
  // Keyed on the skipped write only: a second skip of w (by a different
  // superseding write after redelivery) is still the same logical event.
  if (first(EvKind::kSkip, at, w)) target_->on_skip(at, w, by);
}

}  // namespace dsm
