// optcm — CausalMemory: the in-process runtime and application-facing API.
//
// A replicated shared memory with named variables and per-replica sessions,
// causally consistent under the protocol of the caller's choice (OptP by
// default — the paper's write-delay-optimal protocol):
//
//   CausalMemory mem({.replicas = 3, .capacity = 64});
//   auto alice = mem.session(0);
//   auto bob   = mem.session(1);
//   alice.write("draft", 42);
//   mem.sync();
//   bob.read("draft");   // 42, and every causally prior write is visible
//
// Each replica is the process tier's stack without sockets: one thread runs
// a NetLoop, and on it sit a ShardMux over one RingMesh(0, n), a
// FaultyTransport and a NodeStack (ARQ + ProtocolHost) with the
// net_reliable_defaults() tuning.  A full ring drops the frame and the ARQ
// repairs it; `max_jitter_us` is the FaultyTransport's delay plan.  The
// stack is confined to its loop thread, as in ProcessNode: a client call
// posts a closure into the replica's op queue, rings the eventfd the loop
// watches, and waits for the result.  After shutdown() the loops are gone
// and calls run on the caller's thread against the frozen replicas (one
// caller at a time).
//
// The recorder (and the telemetry, when given) is stamped in µs since the
// memory's construction, so the checker and the optimality auditor run
// unchanged on these runs.  Recoverable mode adds kill()/restart(): the
// same NodeStack crash unit as the simulator and the process tier.

#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dsm/net/ring_mesh.h"
#include "dsm/protocols/registry.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/runtime/observer_chain.h"

namespace dsm {

class CausalMemory {
 public:
  struct Options {
    std::size_t replicas = 3;
    /// Number of variables: names are allocated ids below it.
    std::size_t capacity = 64;
    ProtocolKind protocol = ProtocolKind::kOptP;
    ProtocolConfig protocol_config;
    /// Max artificial per-frame delivery delay (µs), drawn per frame from
    /// `seed`; 0 disables it.  Surfaces interleavings in tests and demos.
    std::uint32_t max_jitter_us = 0;
    std::uint64_t seed = 1;
    /// Enable kill()/restart(): checkpointing, write logging and catch-up.
    /// Requires a class-𝒫 buffering protocol (token-ws is rejected).
    bool recoverable = false;
    /// Observers teed beside the recorder (e.g. a StabilityTracker); called
    /// on the replica threads, so they must be thread-safe, must not call
    /// back into the memory, and must outlive it.
    std::vector<ProtocolObserver*> extra_observers;
    /// Optional instrumentation: protocol events tee into it, and the live
    /// recovery and ARQ counters fold in at shutdown.  Must outlive the
    /// memory.
    RunTelemetry* telemetry = nullptr;
  };

  explicit CausalMemory(const Options& options);
  ~CausalMemory();

  CausalMemory(const CausalMemory&) = delete;
  CausalMemory& operator=(const CausalMemory&) = delete;

  /// A handle bound to one replica that resolves names; cheap to copy.
  /// Each call is the id-level call below on the name's variable.
  class Session {
   public:
    void write(std::string_view name, Value v) {
      owner_->write(replica_, var(name), v);
    }
    [[nodiscard]] Value read(std::string_view name) {
      return read_tagged(name).value;
    }
    /// Read with the writer's identity (kNoWrite when unwritten).
    [[nodiscard]] ReadResult read_tagged(std::string_view name) {
      return owner_->read(replica_, var(name));
    }
    Value mutate(std::string_view name, SpecId spec, OpCode opcode, Value arg,
                 Value arg2 = 0) {
      return owner_->mutate(replica_, var(name), spec, opcode, arg, arg2);
    }
    Value observe(std::string_view name, SpecId spec, OpCode opcode,
                  Value arg = 0) {
      return owner_->observe(replica_, var(name), spec, opcode, arg);
    }
    [[nodiscard]] ProcessId replica() const noexcept { return replica_; }

   private:
    friend class CausalMemory;
    Session(CausalMemory& owner, ProcessId replica)
        : owner_(&owner), replica_(replica) {}
    /// The name's variable; the capacity must not be exhausted.
    [[nodiscard]] VarId var(std::string_view name);
    CausalMemory* owner_;
    ProcessId replica_;
  };

  [[nodiscard]] Session session(ProcessId replica);

  /// Resolve (or allocate) the VarId behind a name; std::nullopt when the
  /// capacity is exhausted and the name is new.
  [[nodiscard]] std::optional<VarId> resolve(std::string_view name);
  /// Number of distinct names allocated so far.
  [[nodiscard]] std::size_t names_in_use() const;

  // -- by replica and variable id; thread-safe, replicas run in parallel -----

  /// Issue w_p(x)v.  The replica must be up.
  void write(ProcessId p, VarId x, Value v);
  /// Issue r_p(x).  The replica must be up.
  ReadResult read(ProcessId p, VarId x);
  /// Issue a typed mutation (spec must match the schema's spec for x) and
  /// return its apply result at p (e.g. CAS success).  Requires
  /// Options::protocol_config.objects; replicated exactly like a write.
  Value mutate(ProcessId p, VarId x, SpecId spec, OpCode opcode, Value arg,
               Value arg2 = 0);
  /// Issue a typed accessor: one real protocol read (the causal Write_co
  /// merge) followed by the spec's observe over p's materialized state.
  Value observe(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                Value arg = 0);
  /// Non-recording look at p's local copy (monitoring only; ⊥ while down).
  [[nodiscard]] ReadResult peek(ProcessId p, VarId x) const;

  /// Crash replica p (recoverable mode only): its protocol and ARQ state
  /// die, and frames reaching it while down are dropped.
  void kill(ProcessId p);
  /// Restart a killed replica from its last checkpoint and request catch-up.
  void restart(ProcessId p);
  [[nodiscard]] bool alive(ProcessId p) const;

  /// Wait until every issued write is visible everywhere: every replica up,
  /// its protocol quiescent and its ARQ windows and outbound rings empty,
  /// on two consecutive polls with no frame sent or received in between.
  /// Returns false on timeout (always while a replica is down).
  bool sync(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  /// Stop the replica threads and fold the live counters into the telemetry
  /// (idempotent; also run by the destructor).
  void shutdown();

  [[nodiscard]] const RunRecorder& recorder() const noexcept {
    return recorder_;
  }
  /// The typed-object store (null unless Options::protocol_config.objects).
  [[nodiscard]] const ObjectStore* objects() const noexcept {
    return chain_.objects();
  }
  /// Summed across incarnations.
  [[nodiscard]] ProtocolStats stats(ProcessId p) const;
  [[nodiscard]] RecoveryStats recovery_stats() const;
  /// Frames dropped because they reached a killed replica.
  [[nodiscard]] std::uint64_t crash_dropped() const;
  [[nodiscard]] std::size_t n_procs() const noexcept {
    return replicas_.size();
  }
  [[nodiscard]] std::size_t n_vars() const noexcept { return capacity_; }

 private:
  struct Replica;

  /// Run `f(replica p)` on p's loop thread and return its result.
  template <typename F>
  auto call(ProcessId p, F&& f) const;

  std::size_t capacity_;
  bool recoverable_;
  RunTelemetry* telemetry_;  ///< nullable
  RunRecorder::ClockFn clock_;  ///< µs since construction
  RunRecorder recorder_;
  ObserverChain chain_;
  RingMesh mesh_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<bool> stopping_{false};  ///< the loops' stop predicate
  std::atomic<bool> stopped_{false};   ///< the loop threads are joined
  mutable std::mutex names_mu_;
  std::unordered_map<std::string, VarId> names_;
};

}  // namespace dsm
