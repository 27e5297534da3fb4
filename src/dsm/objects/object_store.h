// optcm — ObjectStore: materialized typed-object state per (process, var).
//
// A forwarding ProtocolObserver decorator.  It sits at the head of a run's
// observer chain (outermost, in every tier), watches the protocol's own
// event stream, and maintains:
//
//   * one ObjectState per (process, variable), advanced in LOCAL APPLY ORDER
//     — exactly the order the protocol installs writes, so the typed state
//     is the app-facing view of the same causal memory;
//   * per (process, variable) visibility counters: how many mutations from
//     each sender have been applied here.  Accessors snapshot these counts
//     into the history, which lets the spec checker reconstruct the precise
//     visible set of every accessor without trusting any protocol internals.
//
// The typed payload of a mutation travels inside WriteUpdate; on_send (own
// writes) and on_receipt (remote writes) stash it keyed by WriteId, and
// on_apply — which only carries the WriteId — replays it against the local
// state.  Register writes flow through the same machinery (spec 0), so a
// schema-less run pays only the stash bookkeeping when a store is attached
// at all; runs without a schema attach no store and pay nothing.
//
// Thread-safety: all methods take an internal mutex.  CausalMemory calls in
// from its replica threads; observe()/visible_counts() may be called from
// app threads.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dsm/objects/schema.h"
#include "dsm/objects/spec.h"
#include "dsm/protocols/protocol.h"

namespace dsm {

class ObjectStore final : public ProtocolObserver {
 public:
  /// `next` receives every event unchanged (the decorator is transparent);
  /// it must outlive the store.  `schema` may be shared with ProtocolConfig.
  ObjectStore(std::shared_ptr<const ObjectSchema> schema, std::size_t n_procs,
              std::size_t n_vars, ProtocolObserver& next);

  // ---- ProtocolObserver (forwarding) ----
  void on_send(ProcessId at, const WriteUpdate& m) override;
  void on_receipt(ProcessId at, const WriteUpdate& m) override;
  void on_apply(ProcessId at, WriteId w, bool delayed) override;
  void on_return(ProcessId at, VarId x, Value v, WriteId from) override;
  void on_skip(ProcessId at, WriteId w, WriteId by) override;

  // ---- typed-object API ----

  /// Answer accessor (opcode, arg) on variable x from process `at`'s state.
  [[nodiscard]] Value observe(ProcessId at, VarId x, OpCode opcode,
                              Value arg) const;

  /// Per-sender counts of mutations on x applied at `at` so far.
  [[nodiscard]] std::vector<std::uint64_t> visible_counts(ProcessId at,
                                                          VarId x) const;

  /// Result of the most recent mutation applied at `at` (e.g. CAS success).
  /// Valid immediately after a write_typed call on `at`'s protocol, while
  /// the caller still holds that node's serialization.
  [[nodiscard]] Value last_apply_result(ProcessId at) const;

  /// Digest over all of `at`'s object states; equal digests across replicas
  /// witness typed-state convergence.
  [[nodiscard]] std::uint64_t replica_digest(ProcessId at) const;

  [[nodiscard]] const ObjectSchema& schema() const noexcept { return *schema_; }
  [[nodiscard]] SpecId spec_of(VarId x) const noexcept {
    return schema_->spec_for(x);
  }
  /// Mutations whose apply was observed without a prior send/receipt stash
  /// (possible only outside the supported typed modes, e.g. crash catch-up).
  [[nodiscard]] std::uint64_t unmatched_applies() const;

 private:
  struct Stashed {
    VarId var = 0;
    TypedOp op;
  };

  std::shared_ptr<const ObjectSchema> schema_;
  std::size_t n_procs_;
  std::size_t n_vars_;
  ProtocolObserver* next_;

  mutable std::mutex mu_;
  // [proc][var] — advanced in local apply order.
  std::vector<std::vector<std::unique_ptr<ObjectState>>> states_;
  // [proc][var][sender] — applied-mutation counts.
  std::vector<std::vector<std::vector<std::uint64_t>>> counts_;
  std::vector<Value> last_result_;  // [proc]
  std::unordered_map<WriteId, Stashed> stash_;
  std::uint64_t unmatched_applies_ = 0;

  void stash_locked(const WriteUpdate& m);
};

}  // namespace dsm
