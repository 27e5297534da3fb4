#include "dsm/protocols/buffering.h"

#include <algorithm>
#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {

BufferingProtocol::BufferingProtocol(ProcessId self, std::size_t n_procs,
                                     std::size_t n_vars, Endpoint& endpoint,
                                     ProtocolObserver& observer,
                                     bool writing_semantics, bool convergent)
    : CausalProtocol(self, n_procs, n_vars, endpoint, observer),
      applied_(n_procs),
      by_sender_(n_procs),
      watch_(n_procs),
      ws_(writing_semantics),
      convergent_(convergent),
      lww_key_(n_vars, {0, 0}) {}

void BufferingProtocol::set_reference_drain(bool on) {
  DSM_REQUIRE(stats_.messages_received == 0);
  DSM_REQUIRE(stats_.writes_issued == 0);
  DSM_REQUIRE(pending_count() == 0);
  reference_drain_ = on;
}

std::size_t BufferingProtocol::pending_count() const {
  return reference_drain_ ? pending_.size() : registry_.size();
}

bool BufferingProtocol::wins_arbitration(VarId x, const VectorClock& clock,
                                         ProcessId writer) {
  if (!convergent_) return true;
  // ⊥ has key (0,·); any write's clock-sum is ≥ 1, so first writes always
  // install.  sum() grows strictly along ↦co (Theorem 1), hence the order
  // extends causality and the outcome is identical at every replica.
  return std::make_pair(clock.sum(), writer) > lww_key_[x];
}

void BufferingProtocol::record_winner(VarId x, const VectorClock& clock,
                                      ProcessId writer) {
  if (convergent_) lww_key_[x] = {clock.sum(), writer};
}

bool BufferingProtocol::is_stale(const WriteUpdate& m) const {
  return applied_[m.sender] >= m.write_seq;
}

bool BufferingProtocol::can_apply(const WriteUpdate& m) const {
  const ProcessId u = m.sender;
  DSM_REQUIRE(u < n_procs_);
  DSM_REQUIRE(m.clock.size() == n_procs_);
  DSM_REQUIRE(m.write_seq >= 1);

  // First conjunct: sender progress.  Without writing semantics the message
  // must be the very next write of u; with it, the gap may lie inside the
  // superseded run.  Clamp the sender-declared run defensively.
  const std::uint64_t run = ws_ ? std::min<std::uint64_t>(m.run, m.write_seq - 1) : 0;
  if (applied_[u] + 1 + run < m.write_seq) return false;
  if (is_stale(m)) return false;

  // Second conjunct: every foreign causal dependency already applied.
  for (ProcessId t = 0; t < n_procs_; ++t) {
    if (t == u) continue;
    if (m.clock[t] > applied_[t]) return false;
  }
  return true;
}

std::uint64_t BufferingProtocol::enabling_deficit(const WriteUpdate& m) const {
  const ProcessId u = m.sender;
  const std::uint64_t run = ws_ ? std::min<std::uint64_t>(m.run, m.write_seq - 1) : 0;
  std::uint64_t missing = 0;
  if (applied_[u] + 1 + run < m.write_seq)
    missing += m.write_seq - 1 - run - applied_[u];
  for (ProcessId t = 0; t < n_procs_; ++t) {
    if (t == u) continue;
    if (m.clock[t] > applied_[t]) missing += m.clock[t] - applied_[t];
  }
  return missing;
}

void BufferingProtocol::on_message(ProcessId from,
                                   std::span<const std::uint8_t> bytes) {
  auto decoded = decode_message(bytes);
  DSM_REQUIRE(decoded.has_value());
  auto* update = std::get_if<WriteUpdate>(&*decoded);
  DSM_REQUIRE(update != nullptr);
  DSM_REQUIRE(update->sender == from);

  ++stats_.messages_received;
  observer_->on_receipt(self_, *update);

  if (is_stale(*update)) {
    // Already superseded by a writing-semantics jump; the skip itself was
    // reported when the jump happened.
    ++stats_.stale_discards;
    return;
  }
  if (can_apply(*update)) {
    apply_update(*update, /*delayed=*/false);
    return;
  }
  // Write delay (Definition 3): an enabling event of apply(w) has not yet
  // occurred at this process, so the message is buffered.
  ++stats_.delayed_writes;
  if (reference_drain_) {
    pending_.push_back(std::move(*update));
    track_peak();
    if (instr_ != nullptr)
      instr_->on_update_buffered(pending_.size(),
                                 enabling_deficit(pending_.back()));
  } else {
    buffer_indexed(std::move(*update));
  }
}

void BufferingProtocol::apply_events(const WriteUpdate& m, bool delayed) {
  const ProcessId u = m.sender;

  // Writing semantics: everything in (Apply[u], write_seq) is superseded by
  // this message — logically applied immediately before it.
  for (SeqNo k = applied_[u] + 1; k < m.write_seq; ++k) {
    ++stats_.skipped_writes;
    observer_->on_skip(self_, WriteId{u, k}, WriteId{u, m.write_seq});
  }

  applied_[u] = m.write_seq;
  // Convergent mode suppresses values outranked by the current holder.
  bool installed = false;
  if (wins_arbitration(m.var, m.clock, u)) {
    store(m.var, m.value, WriteId{u, m.write_seq});
    record_winner(m.var, m.clock, u);
    installed = true;
  }
  post_apply(m, installed);
  ++stats_.remote_applies;
  observer_->on_apply(self_, WriteId{u, m.write_seq}, delayed);
}

void BufferingProtocol::apply_update(const WriteUpdate& m, bool delayed) {
  apply_events(m, delayed);
  if (reference_drain_) {
    drain_reference();  // recurses back into apply_update, like the seed
  } else {
    drain_worklist(m.sender);
  }
}

// -- indexed engine ----------------------------------------------------------

void BufferingProtocol::buffer_indexed(WriteUpdate m) {
  const std::uint64_t stamp = next_stamp_++;
  auto& fifo = by_sender_[m.sender];
  // A second pending copy of the same write is the only way a message can
  // turn stale later without writing semantics — remember we saw one so
  // purge passes stop being skippable.
  if (!duplicate_seen_ && fifo.contains(m.write_seq)) duplicate_seen_ = true;
  fifo.emplace(m.write_seq, stamp);
  const auto [it, inserted] = registry_.emplace(stamp, std::move(m));
  DSM_ENSURE(inserted);
  track_peak();
  watch_or_ready(stamp, it->second);
  if (instr_ != nullptr)
    instr_->on_update_buffered(registry_.size(),
                               enabling_deficit(it->second));
}

void BufferingProtocol::watch_or_ready(std::uint64_t stamp,
                                       const WriteUpdate& m) {
  const ProcessId u = m.sender;
  const std::uint64_t run = ws_ ? std::min<std::uint64_t>(m.run, m.write_seq - 1) : 0;
  // First failing conjunct of the Fig. 5 wait condition, expressed as "the
  // apply counter of process t must reach `threshold`".  Registering under
  // one condition suffices: when it fires the message is re-examined and, if
  // still blocked, re-registered under the next failing conjunct.
  if (applied_[u] + 1 + run < m.write_seq) {
    watch_[u][m.write_seq - 1 - run].push_back(stamp);
    return;
  }
  for (ProcessId t = 0; t < n_procs_; ++t) {
    if (t == u) continue;
    if (m.clock[t] > applied_[t]) {
      watch_[t][m.clock[t]].push_back(stamp);
      return;
    }
  }
  ready_.push(stamp);
}

void BufferingProtocol::wake(ProcessId t) {
  auto& buckets = watch_[t];
  while (!buckets.empty() && buckets.begin()->first <= applied_[t]) {
    std::vector<std::uint64_t> stamps = std::move(buckets.begin()->second);
    buckets.erase(buckets.begin());
    for (const std::uint64_t stamp : stamps) {
      const auto it = registry_.find(stamp);
      if (it == registry_.end()) continue;  // applied or purged meanwhile
      ++stats_.drain_scans;
      watch_or_ready(stamp, it->second);
    }
  }
}

void BufferingProtocol::purge_pass(ProcessId dirty) {
  // Without writing semantics, staleness needs a duplicate delivery; until
  // one is seen (and outside the post-restore window) the pass is a
  // provable no-op.
  if (!ws_ && !duplicate_seen_ && !purge_all_) {
    ++stats_.purges_avoided;
    return;
  }
  const std::size_t before = registry_.size();
  if (purge_all_) {
    purge_all_ = false;
    for (ProcessId t = 0; t < n_procs_; ++t) purge_sender(t);
  } else {
    purge_sender(dirty);
  }
  if (instr_ != nullptr && registry_.size() != before)
    instr_->on_buffer_drained(registry_.size());
}

void BufferingProtocol::purge_sender(ProcessId t) {
  // Stale entries of t are exactly the seq-ordered prefix ≤ applied_[t].
  auto& fifo = by_sender_[t];
  while (!fifo.empty() && fifo.begin()->first <= applied_[t]) {
    ++stats_.drain_scans;
    registry_.erase(fifo.begin()->second);
    fifo.erase(fifo.begin());
    ++stats_.stale_discards;
  }
}

std::optional<WriteUpdate> BufferingProtocol::take_ready() {
  while (!ready_.empty()) {
    const std::uint64_t stamp = ready_.top();
    ready_.pop();
    const auto it = registry_.find(stamp);
    if (it == registry_.end()) continue;  // applied or purged since push
    ++stats_.drain_scans;
    WriteUpdate m = std::move(it->second);
    registry_.erase(it);
    auto& fifo = by_sender_[m.sender];
    for (auto f = fifo.lower_bound(m.write_seq);
         f != fifo.end() && f->first == m.write_seq; ++f) {
      if (f->second == stamp) {
        fifo.erase(f);
        break;
      }
    }
    if (instr_ != nullptr) instr_->on_buffer_drained(registry_.size());
    // Ready entries stay applicable: counters only advance, and the one way
    // applicability regresses — staleness — was purged this iteration.
    DSM_ENSURE(can_apply(m));
    return m;
  }
  return std::nullopt;
}

void BufferingProtocol::drain_worklist(ProcessId dirty) {
  // Iterative form of the seed's apply→drain recursion: after each apply,
  // purge the just-applied sender's superseded prefix, wake only the
  // messages whose first missing enabling event was that sender's progress,
  // and pop the earliest-arrived applicable message.  Work is proportional
  // to messages actually enabled, and chain depth costs no stack.
  for (;;) {
    purge_pass(dirty);
    wake(dirty);
    auto next = take_ready();
    if (!next) return;
    apply_events(*next, /*delayed=*/true);
    dirty = next->sender;
  }
}

// -- reference engine (the seed's algorithm, kept as differential baseline) --

void BufferingProtocol::drain_reference() {
  // Fixpoint pass over the buffer: each apply can enable further applies
  // (and, with writing semantics, render buffered messages stale).
  bool progress = true;
  while (progress) {
    progress = false;
    purge_stale_reference();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      ++stats_.drain_scans;
      if (can_apply(pending_[i])) {
        const WriteUpdate m = std::move(pending_[i]);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        if (instr_ != nullptr) instr_->on_buffer_drained(pending_.size());
        // Note: apply_update recurses into drain(); the recursion terminates
        // because every apply strictly increases sum(applied_).  Return
        // afterwards — the nested drain already reached the fixpoint.
        apply_update(m, /*delayed=*/true);
        return;
      }
    }
  }
}

void BufferingProtocol::purge_stale_reference() {
  const std::size_t before = pending_.size();
  std::erase_if(pending_, [this](const WriteUpdate& m) {
    ++stats_.drain_scans;
    if (is_stale(m)) {
      ++stats_.stale_discards;
      return true;
    }
    return false;
  });
  if (instr_ != nullptr && pending_.size() != before)
    instr_->on_buffer_drained(pending_.size());
}

void BufferingProtocol::track_peak() {
  stats_.peak_pending = std::max<std::uint64_t>(stats_.peak_pending,
                                                pending_count());
}

bool BufferingProtocol::apply_own_write(VarId x, Value v, SeqNo seq,
                                        const VectorClock& clock) {
  DSM_REQUIRE(seq == applied_[self_] + 1);
  applied_[self_] = seq;
  bool installed = false;
  if (wins_arbitration(x, clock, self_)) {
    store(x, v, WriteId{self_, seq});
    record_winner(x, clock, self_);
    installed = true;
  }
  observer_->on_apply(self_, WriteId{self_, seq}, /*delayed=*/false);
  if (!reference_drain_) {
    // The seed does not drain here, but its next drain rescans everything —
    // the index must not strand messages blocked on clock[self].  Move them
    // to ready now; the next drain pops them.  No write of our own ever
    // sits pending here (a process is never delivered its own writes), so
    // this advance turns nothing stale.
    wake(self_);
  }
  return installed;
}

void BufferingProtocol::snapshot(ByteWriter& w) const {
  CausalProtocol::snapshot(w);
  w.u64_vec(applied_.components());
  w.u64(pending_count());
  if (reference_drain_) {
    for (const WriteUpdate& m : pending_) m.encode(w);
  } else {
    // registry_ iterates in arrival-stamp order == the seed's insertion
    // order: the checkpoint byte format is unchanged.
    for (const auto& [stamp, m] : registry_) m.encode(w);
  }
  w.u64(lww_key_.size());
  for (const auto& [sum, writer] : lww_key_) {
    w.u64(sum);
    w.u32(writer);
  }
  w.u8(have_prev_write_ ? 1 : 0);
  w.u32(prev_var_);
  w.u64_vec(prev_clock_.components());
  w.u64(prev_run_);
}

bool BufferingProtocol::restore(ByteReader& r) {
  if (!CausalProtocol::restore(r)) return false;
  auto applied = r.u64_vec();
  if (!applied || applied->size() != n_procs_) return false;
  applied_ = VectorClock{std::move(*applied)};
  const auto n_pending = r.u64();
  if (!n_pending || *n_pending > (1ULL << 24)) return false;
  pending_.clear();
  registry_.clear();
  ready_ = {};
  for (auto& fifo : by_sender_) fifo.clear();
  for (auto& buckets : watch_) buckets.clear();
  duplicate_seen_ = false;
  for (std::uint64_t i = 0; i < *n_pending; ++i) {
    auto m = WriteUpdate::decode(r);
    if (!m || m->clock.size() != n_procs_) return false;
    if (reference_drain_) {
      pending_.push_back(std::move(*m));
    } else {
      const std::uint64_t stamp = next_stamp_++;
      auto& fifo = by_sender_[m->sender];
      if (!duplicate_seen_ && fifo.contains(m->write_seq))
        duplicate_seen_ = true;
      fifo.emplace(m->write_seq, stamp);
      const auto [it, inserted] = registry_.emplace(stamp, std::move(*m));
      if (!inserted) return false;
      watch_or_ready(stamp, it->second);
    }
  }
  // A restored buffer may hold entries already superseded at checkpoint time
  // whose duplicates are long gone — duplicate_seen_ cannot prove their
  // absence from the snapshot alone, so the first post-restore purge pass
  // sweeps every sender.
  purge_all_ = !reference_drain_;
  const auto n_keys = r.u64();
  if (!n_keys || *n_keys != lww_key_.size()) return false;
  for (auto& key : lww_key_) {
    const auto sum = r.u64();
    const auto writer = r.u32();
    if (!sum || !writer) return false;
    key = {*sum, *writer};
  }
  const auto have_prev = r.u8();
  const auto prev_var = r.u32();
  auto prev_clock = r.u64_vec();
  const auto prev_run = r.u64();
  if (!have_prev || !prev_var || !prev_clock || !prev_run) return false;
  have_prev_write_ = *have_prev != 0;
  prev_var_ = *prev_var;
  prev_clock_ = VectorClock{std::move(*prev_clock)};
  prev_run_ = *prev_run;
  return true;
}

std::uint64_t BufferingProtocol::next_run(VarId x, const VectorClock& clock) {
  if (!ws_) return 0;
  std::uint64_t run = 0;
  if (have_prev_write_ && prev_var_ == x) {
    bool foreign_equal = true;
    for (ProcessId t = 0; t < n_procs_; ++t) {
      if (t == self_) continue;
      if (clock[t] != prev_clock_[t]) {
        foreign_equal = false;
        break;
      }
    }
    // No foreign dependency entered between the previous write and this one,
    // and both hit the same variable: the previous write is superseded.
    if (foreign_equal) run = prev_run_ + 1;
  }
  have_prev_write_ = true;
  prev_var_ = x;
  prev_clock_ = clock;
  prev_run_ = run;
  return run;
}

}  // namespace dsm
