// optcm — shared receive-side machinery for vector-condition protocols.
//
// OptP and ANBKH differ in *which* vector they piggyback and *when* they
// merge it (on reads vs. on applies) — the receive side is structurally
// identical: check an enabling condition against per-sender apply counters,
// apply immediately or buffer, and drain the buffer to a fixpoint after every
// apply (the paper's "synchronization thread", Fig. 5).  BufferingProtocol
// factors that machinery, including the optional writing-semantics extension
// (paper Section 3.6 / footnote 8):
//
//   * without writing semantics, a message from p_u carrying write_seq = s
//     applies when Apply[u] == s−1 and ∀t≠u : clock[t] ≤ Apply[t]
//     (exactly Fig. 5 line 2);
//   * with writing semantics, the sender marks each message with the length
//     `run` of the immediately preceding same-variable, same-foreign-clock
//     write run it supersedes, and the receiver relaxes the first conjunct to
//     Apply[u] ≥ s−1−run — superseded writes are "logically applied
//     immediately before" (skipped), which is sound because the run
//     construction guarantees no write on another variable lies ↦co-between
//     a skipped write and this one.
//
// The buffer is dependency-indexed (docs/PERF.md): every blocked message is
// registered in a watch index under the FIRST apply counter that still fails
// its wait condition, so an apply re-examines only messages whose last
// missing enabling event may just have occurred — O(newly-enabled) work
// instead of the seed's restart-from-scratch linear rescan.  The drain runs
// as an iterative worklist (no apply→drain recursion), so arbitrarily deep
// enable chains cannot overflow the stack.  The seed's linear algorithm is
// retained verbatim behind set_reference_drain() as the differential-testing
// baseline; both engines produce byte-identical observer event sequences and
// ProtocolStats.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "dsm/protocols/protocol.h"
#include "dsm/vc/vector_clock.h"

namespace dsm {

// In plain causal memory, concurrent writes to the same variable are
// installed in arrival order, so replicas may disagree forever (the model
// allows it).  With `convergent = true` the protocol adds last-writer-wins
// arbitration under a deterministic total order that extends ↦co —
// (sum(clock), writer): the clock-sum strictly grows along ↦co (Theorem 1),
// ties between concurrent writes break by writer id — so every replica ends
// at the same value per variable (the "causal+" strengthening popularized by
// COPS).  A write that loses arbitration still APPLIES (counters advance;
// safety/optimality untouched); only the value installation is suppressed.
class BufferingProtocol : public CausalProtocol {
 public:
  BufferingProtocol(ProcessId self, std::size_t n_procs, std::size_t n_vars,
                    Endpoint& endpoint, ProtocolObserver& observer,
                    bool writing_semantics, bool convergent = false);

  void on_message(ProcessId from, std::span<const std::uint8_t> bytes) final;

  [[nodiscard]] std::size_t pending_count() const final;

  /// Apply counters: applied_[j] = number of p_j's writes applied here
  /// (the paper's Apply[1..n]; for j == self it equals writes issued).
  [[nodiscard]] const VectorClock& applied() const noexcept { return applied_; }

  [[nodiscard]] bool writing_semantics() const noexcept { return ws_; }

  /// Switch to the seed's O(|pending|²·n) linear drain — the differential
  /// baseline the indexed engine is tested against (and the "before" side of
  /// BENCH_core.json).  Precondition: the instance is fresh (no operations
  /// executed, nothing buffered).
  void set_reference_drain(bool on);
  [[nodiscard]] bool reference_drain() const noexcept { return reference_drain_; }

  void snapshot(ByteWriter& w) const override;
  [[nodiscard]] bool restore(ByteReader& r) override;

 protected:
  /// Fig. 5 line 2 (with the optional writing-semantics relaxation).
  [[nodiscard]] bool can_apply(const WriteUpdate& m) const;

  /// True iff the message's write was already superseded by a jump.
  [[nodiscard]] bool is_stale(const WriteUpdate& m) const;

  /// Enabling-set cardinality shortfall for `m` at this instant: how many
  /// apply events the Fig. 5 wait condition still needs before `m` can
  /// apply (sender-sequence gap beyond the superseded run, plus every
  /// foreign clock component ahead of Apply).  0 iff can_apply(m).
  [[nodiscard]] std::uint64_t enabling_deficit(const WriteUpdate& m) const;

  /// Perform the apply event: account skips, bump Apply[u], install the
  /// value, call post_apply(), notify the observer, then drain the buffer
  /// (iterative worklist; the reference engine recurses like the seed).
  void apply_update(const WriteUpdate& m, bool delayed);

  /// Protocol-specific apply side effect (OptP: LastWriteOn[h] := m.clock;
  /// ANBKH: nothing beyond the counter merge already performed).  `installed`
  /// is false when convergent arbitration suppressed the value — the clock
  /// bookkeeping for the variable must then stay with the winner.
  virtual void post_apply(const WriteUpdate& m, bool installed) = 0;

  /// Record the local apply of one of our own writes (write() helpers).
  /// Returns false when convergent arbitration suppressed the installation
  /// (an already-applied concurrent write outranks it).
  bool apply_own_write(VarId x, Value v, SeqNo seq, const VectorClock& clock);

  [[nodiscard]] bool convergent() const noexcept { return convergent_; }

  /// Sender-side run tracking for writing semantics: returns the run length
  /// to stamp on a message about to be sent, given the variable written and
  /// the foreign components of the clock being piggybacked.
  [[nodiscard]] std::uint64_t next_run(VarId x, const VectorClock& clock);

  VectorClock applied_;

 private:
  // -- indexed engine --------------------------------------------------------
  //
  // Invariants (indexed mode):
  //   * registry_ holds every pending message keyed by a monotone arrival
  //     stamp — map order IS arrival order, so snapshots and iteration stay
  //     byte-identical to the seed's insertion-ordered vector;
  //   * by_sender_[u] mirrors registry_ as (write_seq → stamp), the
  //     seq-ordered FIFO used for O(stale) purges and duplicate detection;
  //   * every live stamp is registered in exactly ONE place: a watch_[t]
  //     bucket (keyed by the apply-counter value of t that would satisfy the
  //     first failing conjunct of its wait condition) or the ready_ heap.
  //     Stamps removed from registry_ may linger in watch_/ready_; they are
  //     lazily dropped on encounter (stamps are never reused).
  //   * after every public entry point returns, no pending message is stale
  //     (purge passes remove the just-applied sender's superseded prefix
  //     before the next apply pops).
  void buffer_indexed(WriteUpdate m);
  void drain_worklist(ProcessId first_sender);
  /// The apply event itself, shared by both engines: skips, counter bump,
  /// install, post_apply, stats, observer — everything except the drain.
  void apply_events(const WriteUpdate& m, bool delayed);
  /// Re-examine every watcher of `t` whose threshold applied_[t] now meets.
  void wake(ProcessId t);
  /// Register `stamp` under the first failing conjunct of m's wait
  /// condition, or push it on the ready heap when none fails.
  void watch_or_ready(std::uint64_t stamp, const WriteUpdate& m);
  /// Remove newly superseded messages.  `dirty` is the only sender whose
  /// counter advanced since the last pass (purge_all_ widens it to everyone
  /// after a restore).  Skipped entirely — and counted — when it provably
  /// cannot remove anything.
  void purge_pass(ProcessId dirty);
  void purge_sender(ProcessId t);
  /// Pop ready stamps until one is still pending; extract and return it.
  [[nodiscard]] std::optional<WriteUpdate> take_ready();

  // -- reference engine (the seed's algorithm, verbatim) ---------------------
  void drain_reference();
  void purge_stale_reference();

  void track_peak();

  /// Arbitration: install iff the incoming write outranks the variable's
  /// current holder under ((clock-sum, writer) — a total order extending
  /// ↦co).  Always true outside convergent mode.
  [[nodiscard]] bool wins_arbitration(VarId x, const VectorClock& clock,
                                      ProcessId writer);
  void record_winner(VarId x, const VectorClock& clock, ProcessId writer);

  bool reference_drain_ = false;
  std::vector<WriteUpdate> pending_;  // reference engine only

  // Indexed-engine storage (empty in reference mode).
  std::map<std::uint64_t, WriteUpdate> registry_;  // arrival stamp → message
  std::uint64_t next_stamp_ = 0;
  /// Per sender: write_seq → stamp (multimap: duplicate deliveries of the
  /// same write may both sit pending until one applies).
  std::vector<std::multimap<SeqNo, std::uint64_t>> by_sender_;
  /// Per process t: threshold → stamps to re-examine once applied_[t] ≥
  /// threshold.
  std::vector<std::map<std::uint64_t, std::vector<std::uint64_t>>> watch_;
  /// Stamps whose wait condition held when last examined (arrival order via
  /// min-heap — matches the seed's first-applicable-in-insertion-order pick).
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      ready_;
  /// True once any duplicate (sender, write_seq) pair was seen pending —
  /// without writing semantics, staleness can only arise from duplicates, so
  /// until then purge passes are provably no-ops.
  bool duplicate_seen_ = false;
  /// Force the next purge pass to sweep every sender (set by restore():
  /// a restored buffer may hold stale entries from any sender, and
  /// duplicate_seen_ cannot be recomputed exactly from the snapshot alone).
  bool purge_all_ = false;

  bool ws_;
  bool convergent_;
  /// Per variable: (clock-sum, writer) of the installed value's write.
  std::vector<std::pair<std::uint64_t, ProcessId>> lww_key_;

  // Writing-semantics sender state: the variable and foreign clock snapshot
  // of our previous outgoing write, plus the run length it carried.
  bool have_prev_write_ = false;
  VarId prev_var_ = 0;
  VectorClock prev_clock_;
  std::uint64_t prev_run_ = 0;
};

}  // namespace dsm
