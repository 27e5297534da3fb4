#include "dsm/protocols/recovery.h"

#include <algorithm>

#include "dsm/common/contracts.h"

namespace dsm {

RecoveryNode::RecoveryNode(ProcessId self, std::size_t n_procs, Endpoint& lower)
    : self_(self), n_procs_(n_procs), lower_(&lower), log_(n_procs) {
  DSM_REQUIRE(self < n_procs);
}

void RecoveryNode::checkpoint() {
  if (checkpoint_) checkpoint_();
}

void RecoveryNode::log_update(const WriteUpdate& m) {
  if (m.write_seq == 0 || m.sender >= n_procs_) return;
  std::vector<WriteUpdate>& lane = log_[m.sender];
  if (lane.size() < m.write_seq) lane.resize(m.write_seq);
  WriteUpdate& slot = lane[m.write_seq - 1];
  if (slot.write_seq == 0) slot = m;
}

void RecoveryNode::broadcast(Payload payload) {
  auto decoded = decode_message(*payload);
  if (decoded) {
    if (const auto* update = std::get_if<WriteUpdate>(&*decoded)) {
      log_update(*update);
    }
  }
  lower_->broadcast(std::move(payload));
}

void RecoveryNode::send(ProcessId to, Payload payload) {
  auto decoded = decode_message(*payload);
  if (decoded) {
    if (const auto* update = std::get_if<WriteUpdate>(&*decoded)) {
      log_update(*update);
    }
  }
  lower_->send(to, std::move(payload));
}

VectorClock RecoveryNode::seen() const {
  VectorClock v(n_procs_);
  for (ProcessId u = 0; u < n_procs_; ++u) {
    std::uint64_t prefix = 0;
    while (prefix < log_[u].size() && log_[u][prefix].write_seq != 0) {
      ++prefix;
    }
    v[u] = prefix;
  }
  return v;
}

std::size_t RecoveryNode::log_entries() const noexcept {
  std::size_t n = 0;
  for (const auto& lane : log_) {
    for (const WriteUpdate& m : lane) {
      if (m.write_seq != 0) ++n;
    }
  }
  return n;
}

void RecoveryNode::request_catch_up() {
  ++stats_.requests_sent;
  lower_->broadcast(
      make_payload(encode_message(Message{CatchUpRequest{self_, seen()}})));
  checkpoint();
}

void RecoveryNode::forward_to_protocol(const WriteUpdate& m) {
  DSM_REQUIRE(proto_ != nullptr);
  // Re-framed as an ordinary WriteUpdate from its ORIGINAL sender: the
  // protocol's enabling condition is keyed on m.sender, and the relayed
  // message is byte-identical to what the sender broadcast.
  proto_->on_message(m.sender, encode_message(Message{m}));
}

void RecoveryNode::handle_request(const CatchUpRequest& req) {
  ++stats_.requests_received;
  DSM_REQUIRE(req.have.size() == n_procs_);

  CatchUpReply reply;
  reply.replier = self_;
  reply.have = seen();
  for (ProcessId u = 0; u < n_procs_; ++u) {
    const std::uint64_t floor = u < req.have.size() ? req.have[u] : 0;
    for (std::uint64_t k = floor; k < log_[u].size(); ++k) {
      const WriteUpdate& m = log_[u][k];
      if (m.write_seq != 0) reply.writes.push_back(m);  // skip holes
    }
  }

  Payload bytes = make_payload(encode_message(Message{reply}));
  stats_.writes_served += reply.writes.size();
  stats_.catch_up_bytes += bytes->size();
  ++stats_.replies_sent;
  lower_->send(req.requester, std::move(bytes));

  // Symmetric re-request: the request just proved the requester holds writes
  // we have never received (its watermarks exceed ours somewhere).  This is
  // how two processes whose crash windows overlapped repair each other.
  const VectorClock mine = seen();
  bool behind = false;
  for (ProcessId u = 0; u < n_procs_; ++u) {
    if (req.have[u] > mine[u]) {
      behind = true;
      break;
    }
  }
  if (behind) {
    ++stats_.requests_sent;
    lower_->send(req.requester, make_payload(encode_message(
                                    Message{CatchUpRequest{self_, mine}})));
  }
  checkpoint();
}

void RecoveryNode::handle_reply(const CatchUpReply& rep) {
  ++stats_.replies_received;
  for (const WriteUpdate& m : rep.writes) {
    log_update(m);
    ++stats_.writes_recovered;
    forward_to_protocol(m);
  }
  checkpoint();
}

void RecoveryNode::deliver(ProcessId from, std::span<const std::uint8_t> bytes) {
  auto decoded = decode_message(bytes);
  DSM_REQUIRE(decoded.has_value());
  if (const auto* update = std::get_if<WriteUpdate>(&*decoded)) {
    DSM_REQUIRE(update->sender == from);
    log_update(*update);
    DSM_REQUIRE(proto_ != nullptr);
    proto_->on_message(from, bytes);
    checkpoint();
    return;
  }
  if (const auto* req = std::get_if<CatchUpRequest>(&*decoded)) {
    DSM_REQUIRE(req->requester == from);
    handle_request(*req);
    return;
  }
  if (const auto* rep = std::get_if<CatchUpReply>(&*decoded)) {
    DSM_REQUIRE(rep->replier == from);
    handle_reply(*rep);
    return;
  }
  DSM_REQUIRE(false && "unexpected message type at a recovery node");
}

void RecoveryNode::snapshot(ByteWriter& w) const {
  w.u64(log_.size());
  for (const auto& lane : log_) {
    w.u64(lane.size());
    for (const WriteUpdate& m : lane) {
      w.u8(m.write_seq != 0 ? 1 : 0);
      if (m.write_seq != 0) m.encode(w);
    }
  }
}

bool RecoveryNode::restore(ByteReader& r) {
  const auto n = r.u64();
  if (!n || *n != log_.size()) return false;
  for (auto& lane : log_) {
    const auto len = r.u64();
    if (!len || *len > (1ULL << 24)) return false;
    lane.assign(static_cast<std::size_t>(*len), WriteUpdate{});
    for (WriteUpdate& slot : lane) {
      const auto valid = r.u8();
      if (!valid) return false;
      if (*valid != 0) {
        auto m = WriteUpdate::decode(r);
        if (!m) return false;
        slot = std::move(*m);
      }
    }
  }
  return true;
}

// -- ReplayFilterObserver -----------------------------------------------------

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
