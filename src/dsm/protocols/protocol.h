// optcm — the protocol class 𝒫 (paper Section 3.2) as a C++ interface.
//
// Every protocol P ∈ 𝒫 produces, for each write w_i(x_h)v, a send event at
// the issuer and receipt/apply events at every process; for each read, a
// return event.  This header fixes that event vocabulary:
//
//   * CausalProtocol  — the per-process protocol state machine.  Transport-
//     agnostic: it talks to the world through an Endpoint (broadcast bytes)
//     and reports its events to a ProtocolObserver.  The same protocol code
//     runs inside the deterministic simulator, on threads and over sockets.
//   * ProtocolObserver — receives send/receipt/apply/return/skip events in
//     the exact order the protocol produces them.  The run recorder, the
//     optimality auditor and the figure renderers are all observers.
//   * ProtocolStats — per-process operational counters, including the
//     paper's central quantity: the number of write messages that suffered a
//     write delay (Definition 3: buffered at receipt because some enabling
//     event had not yet occurred).
//
// Concurrency contract: a CausalProtocol instance is confined to one logical
// thread of control.  The simulator guarantees this by construction;
// ProcessNode and CausalMemory run each stack on its own loop thread.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsm/codec/message.h"
#include "dsm/common/types.h"

namespace dsm {

/// Transport abstraction: how a protocol instance reaches its peers.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Deliver `payload` to every process except the caller's own (paper
  /// Fig. 4 line 2: send m to Π − p_i).  Reliable, exactly-once, unordered.
  /// The payload is encoded once and shared by refcount across all
  /// receivers — implementations must not mutate it.
  virtual void broadcast(Payload payload) = 0;

  /// Deliver `payload` to one specific peer (token handoffs, subscription
  /// routing).
  virtual void send(ProcessId to, Payload payload) = 0;
};

/// Result of a read operation: the value and the identity of the write that
/// produced it (kNoWrite when the location still holds ⊥).  The writer tag is
/// what lets the recorder reconstruct ↦ro without guessing from values.
struct ReadResult {
  Value value = kBottom;
  WriteId writer;
};

/// Protocol event listener.  Default implementations are no-ops so observers
/// override only what they need.
class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  /// The issuer is about to propagate write `w` (paper: send event).
  virtual void on_send(ProcessId /*at*/, const WriteUpdate& /*m*/) {}
  /// A write message arrived at a process (paper: receipt event).
  virtual void on_receipt(ProcessId /*at*/, const WriteUpdate& /*m*/) {}
  /// Write `w` was applied to the local copy.  `delayed` is true iff the
  /// message was buffered at receipt (Definition 3).
  virtual void on_apply(ProcessId /*at*/, WriteId /*w*/, bool /*delayed*/) {}
  /// A read returned (paper: return event).
  virtual void on_return(ProcessId /*at*/, VarId /*x*/, Value /*v*/,
                         WriteId /*from*/) {}
  /// Writing semantics: write `w` was skipped at this process because `by`
  /// supersedes it (w is "logically applied immediately before" by).
  virtual void on_skip(ProcessId /*at*/, WriteId /*w*/, WriteId /*by*/) {}
};

/// Tees protocol events to several observers (recorder + tracker + …).
class FanoutObserver final : public ProtocolObserver {
 public:
  explicit FanoutObserver(std::vector<ProtocolObserver*> targets)
      : targets_(std::move(targets)) {}

  void on_send(ProcessId at, const WriteUpdate& m) override {
    for (auto* t : targets_) t->on_send(at, m);
  }
  void on_receipt(ProcessId at, const WriteUpdate& m) override {
    for (auto* t : targets_) t->on_receipt(at, m);
  }
  void on_apply(ProcessId at, WriteId w, bool delayed) override {
    for (auto* t : targets_) t->on_apply(at, w, delayed);
  }
  void on_return(ProcessId at, VarId x, Value v, WriteId from) override {
    for (auto* t : targets_) t->on_return(at, x, v, from);
  }
  void on_skip(ProcessId at, WriteId w, WriteId by) override {
    for (auto* t : targets_) t->on_skip(at, w, by);
  }

 private:
  std::vector<ProtocolObserver*> targets_;
};

/// Buffer-level instrumentation hooks (telemetry layer).  Unlike
/// ProtocolObserver — which carries the paper's event vocabulary and feeds
/// the verifiers — these hooks expose *mechanical* facts about the pending
/// buffer that only the protocol itself can see at the moment they happen.
/// Default implementations are no-ops; protocols hold a nullable pointer and
/// pay one branch per buffering event when no instrumentation is attached.
class ProtocolInstrumentation {
 public:
  virtual ~ProtocolInstrumentation() = default;

  /// A receipt was buffered (write delay, Definition 3).  `depth` is the
  /// pending-buffer size after insertion; `missing` is the number of enabling
  /// apply events that have not yet occurred locally (the enabling-set
  /// cardinality shortfall: Σ_t missing applies the wait condition needs).
  virtual void on_update_buffered(std::size_t /*depth*/,
                                  std::uint64_t /*missing*/) {}

  /// A buffered update left the pending buffer (applied after its enabling
  /// events occurred, or discarded as superseded).  `depth` is the size
  /// after removal.
  virtual void on_buffer_drained(std::size_t /*depth*/) {}
};

/// Per-process operational counters.
struct ProtocolStats {
  std::uint64_t writes_issued = 0;
  std::uint64_t reads_issued = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t remote_applies = 0;
  /// Messages buffered at receipt because the enabling condition failed —
  /// the paper's write-delay count (Definition 3).
  std::uint64_t delayed_writes = 0;
  /// Writing semantics only: writes never applied here because a superseding
  /// write was applied instead.
  std::uint64_t skipped_writes = 0;
  /// Writing semantics only: messages discarded on arrival (already
  /// superseded).
  std::uint64_t stale_discards = 0;
  /// High-water mark of the pending (buffered) message set.
  std::uint64_t peak_pending = 0;
  /// Pending-buffer entries examined by the drain machinery (applicability
  /// tests, watch-index wakes, purge probes).  The indexed drain's count is
  /// O(newly-enabled); the reference linear drain's is O(|pending|²·n) on
  /// adversarial schedules — see docs/PERF.md.
  std::uint64_t drain_scans = 0;
  /// Drain purge passes skipped because they provably could not remove
  /// anything (writing semantics off and no duplicate delivery observed).
  std::uint64_t purges_avoided = 0;

  /// Accumulate counters across process incarnations (crash recovery sums a
  /// process's stats over its lifetimes).  peak_pending is a high-water
  /// mark, so it maxes instead of summing.
  ProtocolStats& operator+=(const ProtocolStats& o) noexcept {
    writes_issued += o.writes_issued;
    reads_issued += o.reads_issued;
    messages_received += o.messages_received;
    remote_applies += o.remote_applies;
    delayed_writes += o.delayed_writes;
    skipped_writes += o.skipped_writes;
    stale_discards += o.stale_discards;
    peak_pending = peak_pending > o.peak_pending ? peak_pending : o.peak_pending;
    drain_scans += o.drain_scans;
    purges_avoided += o.purges_avoided;
    return *this;
  }
};

/// Base class for every protocol in the library.  Owns the replicated store
/// (one copy of all m variables, paper Section 3.1) and the stats block.
///
/// Thread-safety (applies to every method unless noted): an instance is
/// confined to one logical thread of control.  The simulator guarantees this
/// by construction (one event at a time); ProcessNode and CausalMemory call
/// it only from the owning stack's loop thread.  No method is safe to call
/// concurrently with another on the same instance.
class CausalProtocol {
 public:
  /// Preconditions: `self < n_procs`, `n_procs ≥ 1`, `n_vars ≥ 1`; `endpoint`
  /// and `observer` outlive the instance.
  CausalProtocol(ProcessId self, std::size_t n_procs, std::size_t n_vars,
                 Endpoint& endpoint, ProtocolObserver& observer);
  virtual ~CausalProtocol() = default;

  CausalProtocol(const CausalProtocol&) = delete;
  CausalProtocol& operator=(const CausalProtocol&) = delete;

  /// Hook called once by the harness after every process is wired to the
  /// transport and before any operation runs (the token protocol seeds its
  /// token here).  Default: nothing.
  /// Precondition: called at most once, before any write/read/on_message.
  virtual void start() {}

  /// Execute w_self(x)v: propagate and apply locally.
  /// Precondition: `x < n_vars()`.  Postcondition: the write is applied
  /// locally (wait-free; paper Section 3.1 liveness L1) and an update has
  /// been handed to the Endpoint; on_send then on_apply fired on the
  /// observer.
  virtual void write(VarId x, Value v) = 0;

  /// Execute r_self(x): wait-free local read.
  /// Precondition: `x < n_vars()`.  Postcondition: returns the local copy
  /// (⊥/kNoWrite if never written) and fires on_return; OptP additionally
  /// merges LastWriteOn[x] into Write_co (the read-from edge, Fig. 5).
  virtual ReadResult read(VarId x) = 0;

  /// Execute a typed mutation (dsm/objects): the spec-defined opcode with
  /// primary operand `arg` and secondary operand `arg2` is replicated as an
  /// opaque trailer on the ordinary WriteUpdate for x — for causal-metadata
  /// purposes a typed mutation IS a write, so clocks, wait conditions and
  /// observer events are exactly those of write(x, arg).  Raw spec/opcode
  /// bytes keep this layer link-independent of the objects library.
  /// Supported by the protocols that stamp their outgoing updates (OptP,
  /// ANBKH, ShardedOptP); aborts via contracts elsewhere.
  void write_typed(VarId x, std::uint8_t spec, std::uint8_t opcode, Value arg,
                   Value arg2);

  /// A message (as bytes) arrived from `from`.  May trigger zero or more
  /// applies, including of previously buffered messages.
  /// Precondition: `bytes` is a complete frame produced by a peer instance
  /// of the same protocol (malformed input aborts via contracts — transport
  /// integrity is the ARQ layer's job, not the protocol's).
  virtual void on_message(ProcessId from, std::span<const std::uint8_t> bytes) = 0;

  /// Number of currently buffered (received but not applied) updates.
  [[nodiscard]] virtual std::size_t pending_count() const = 0;

  /// True when the instance has no buffered work and nothing left to
  /// propagate (the token protocol also requires an empty outgoing batch).
  /// The harness uses this to decide when a run has settled.
  [[nodiscard]] virtual bool quiescent() const { return pending_count() == 0; }

  /// Stable identifier used by benches/tables ("optp", "anbkh", …).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Serialize the protocol's durable state (store, apply counters, pending
  /// buffer, protocol-specific vectors) into `w` — the checkpoint half of
  /// crash recovery (beyond the paper's crash-free model; docs/FAULTS.md).
  /// Subclasses chain: call the base snapshot first, then append their own
  /// state.  Operational stats are deliberately NOT checkpointed: a crash
  /// loses counters, and the harness accumulates them across incarnations.
  virtual void snapshot(ByteWriter& w) const;

  /// Inverse of snapshot() onto a freshly constructed instance with the same
  /// shape (self, n_procs, n_vars).  Returns false on malformed input.
  /// Precondition: the instance is fresh (no operations executed).
  /// Postcondition on true: observable state (store, counters, pending
  /// buffer) equals the snapshotted instance's at checkpoint time.
  [[nodiscard]] virtual bool restore(ByteReader& r);

  /// Attach buffer-level instrumentation (telemetry), or detach with nullptr.
  /// The hooks fire from inside on_message; `instr` must outlive the
  /// instance or be detached first.  Default: detached (zero overhead beyond
  /// one null check per buffering event).
  void set_instrumentation(ProtocolInstrumentation* instr) noexcept {
    instr_ = instr;
  }

  /// Shape accessors (immutable after construction; safe from any thread).
  [[nodiscard]] ProcessId self() const noexcept { return self_; }
  [[nodiscard]] std::size_t n_procs() const noexcept { return n_procs_; }
  [[nodiscard]] std::size_t n_vars() const noexcept { return n_vars_; }

  /// Operational counters so far (same confinement rules as the operations).
  [[nodiscard]] const ProtocolStats& stats() const noexcept { return stats_; }

  /// Current local copy of variable x (tagged with its writer).
  [[nodiscard]] ReadResult peek(VarId x) const;

 protected:
  /// Install `value` into the local copy of `x` (the apply event's effect).
  void store(VarId x, Value value, WriteId writer);

  /// Transfer a pending typed trailer (set by write_typed) onto the
  /// outgoing update, or clear the trailer fields for a plain write (the
  /// update struct is a reused member in the hot protocols, so stale typed
  /// fields must not leak into later frames).  Consumes the pending trailer.
  void stamp_typed(WriteUpdate& m) noexcept {
    if (pending_typed_) {
      m.spec = pending_spec_;
      m.opcode = pending_opcode_;
      m.arg2 = pending_arg2_;
      pending_typed_ = false;
    } else {
      m.spec = 0;
      m.opcode = 0;
      m.arg2 = 0;
    }
  }

  /// Encode `m` into a refcounted payload shared by every receiver.  The
  /// intermediate encode buffer is a reused member (no growth churn after
  /// warm-up); the returned allocation is exactly the encoded size.
  [[nodiscard]] Payload encode_payload(const Message& m);
  /// Same, for the broadcast hot path: frames a bare WriteUpdate without
  /// copying its blob into a Message variant first.
  [[nodiscard]] Payload encode_payload(const WriteUpdate& m);

  ProcessId self_;
  std::size_t n_procs_;
  std::size_t n_vars_;
  Endpoint* endpoint_;
  ProtocolObserver* observer_;
  ProtocolInstrumentation* instr_ = nullptr;  // nullable; see set_instrumentation
  ProtocolStats stats_;

 private:
  std::vector<ReadResult> copies_;  // x_1^i … x_m^i, initially ⊥
  std::vector<std::uint8_t> encode_scratch_;  // reused by encode_payload
  // Typed trailer staged by write_typed for the next outgoing update.
  bool pending_typed_ = false;
  std::uint8_t pending_spec_ = 0;
  std::uint8_t pending_opcode_ = 0;
  Value pending_arg2_ = 0;
};

}  // namespace dsm
