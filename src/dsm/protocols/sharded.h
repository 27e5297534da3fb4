// optcm — ShardedOptP: subscription-routed OptP (after Xiang & Vaidya,
// "Partial Replication: Causal Consistency, Lower Bounds and an Optimal
// Algorithm"; see PAPERS.md).
//
// Where OptP broadcasts every write to all n processes so the Fig. 5 wait
// condition can keep complete per-sender Apply counters, ShardedOptP routes
// each write only to its variable's subscription set — its replicas, so
// partial replication (e.g. chained declustering, `chained:K`) runs here.
// Both the message count and the carried metadata then scale with
// |subs(x)|, not with n.
//
// Data structures (per process i; `q-relevant` means "on a variable q
// subscribes to"):
//
//   K[1..n][1..n]     — the causal-knowledge matrix.  K[q][t] = s means:
//                       t's s-th q-relevant write is in my causal past.
//                       Row self doubles as the per-subscriber send counter:
//                       a write of x ticks K[q][self] for every q ∈ subs(x).
//   AppliedRel[1..n]  — AppliedRel[t] = number of t's self-relevant writes
//                       applied here (the subscription-trimmed Apply[]).
//   LastWriteOn[1..m] — the dependency matrix of the last write applied to
//                       x_h here (sparse; merged into K on READ, never on
//                       apply — the paper's false-causality discipline).
//
// WRITE(x, v): tick K[q][self] ∀q ∈ subs(x); ship the nonzero entries of K
//   as the message's dep matrix; unicast to subs(x) − self; apply locally.
//
// READ(x): K := max(K, LastWriteOn[x]) entry-wise; return the local copy.
//
// On receipt of m from u at subscriber q = self (Fig. 5 with "writes by t"
// narrowed to "writes by t relevant to me"):
//   wait until  AppliedRel[u] = m.dep[self][u] − 1
//               ∧ ∀t≠u : m.dep[self][t] ≤ AppliedRel[t];
//   then apply;  AppliedRel[u] := m.dep[self][u];  LastWriteOn[x] := m.dep.
//
// Why a full matrix and not just row self?  A causal chain can pass through
// processes that share no variable with the final receiver (t writes x with
// subs {t,r,q}; r reads x, writes y with subs {r,p}; p reads y, writes z
// with subs {p,q}) — q must still order z after x's write, and only matrix
// rows propagated through the chain convey that.  This is exactly the
// metadata Xiang & Vaidya prove necessary; with a full subscription map
// every row evolves identically to Write_co and the protocol degenerates to
// OptP (same events, same wait outcomes).
//
// Contracts: reads and writes of x require self ∈ subs(x) (DSM_REQUIRE); an
// update arriving at a non-subscriber is a routing bug and also aborts.
// Crash recovery is out of scope (ShardedOptP is not a class-𝒫 buffering
// protocol, and its checkpoint would have to carry the sparse matrix), so
// NodeStack refuses to build a recoverable sharded stack.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dsm/protocols/protocol.h"
#include "dsm/protocols/subscription.h"

namespace dsm {

class ShardedOptP final : public CausalProtocol {
 public:
  ShardedOptP(ProcessId self, std::size_t n_procs, std::size_t n_vars,
              Endpoint& endpoint, ProtocolObserver& observer,
              std::shared_ptr<const SubscriptionMap> subscription,
              std::size_t write_blob_size = 0);

  /// Requires self ∈ subs(x).
  void write(VarId x, Value v) override;

  /// Requires self ∈ subs(x).
  ReadResult read(VarId x) override;

  void on_message(ProcessId from, std::span<const std::uint8_t> bytes) override;

  [[nodiscard]] std::size_t pending_count() const override {
    return pending_.size();
  }

  [[nodiscard]] std::string name() const override { return "optp-sharded"; }

  void snapshot(ByteWriter& w) const override;
  [[nodiscard]] bool restore(ByteReader& r) override;

  [[nodiscard]] const SubscriptionMap& subscription() const noexcept {
    return *subscription_;
  }

  /// Row q of the knowledge matrix (exposed for the degeneration tests:
  /// under a full map every row equals OptP's Write_co).
  [[nodiscard]] const VectorClock& knowledge_row(ProcessId q) const;

  /// AppliedRel — the subscription-trimmed Apply counters (for tests).
  [[nodiscard]] const VectorClock& applied_rel() const noexcept {
    return applied_rel_;
  }

  /// Unicast update messages actually handed to the transport (the O(|subs|)
  /// claim the bench verifies) and dep-matrix entries shipped with them (the
  /// metadata the auditor checks against the Xiang–Vaidya floor).
  [[nodiscard]] std::uint64_t unicasts_sent() const noexcept {
    return unicasts_sent_;
  }
  [[nodiscard]] std::uint64_t dep_entries_shipped() const noexcept {
    return dep_entries_shipped_;
  }

 private:
  /// The receive wait condition (see file comment).
  [[nodiscard]] bool can_apply(const WriteUpdate& m) const;

  /// Apply m here: install the value, bump AppliedRel, store LastWriteOn.
  void apply_update(const WriteUpdate& m, bool delayed);

  /// Enabling-set shortfall of a buffered m (instrumentation only).
  [[nodiscard]] std::uint64_t enabling_deficit(const WriteUpdate& m) const;

  /// Re-scan the pending buffer until no entry is applicable (the reference
  /// linear drain; subscription sharding keeps per-process buffers small).
  void drain_pending();

  /// m.dep[row][col], with absent entries reading as 0.
  [[nodiscard]] static SeqNo dep_at(const WriteUpdate& m, ProcessId row,
                                    ProcessId col);

  std::shared_ptr<const SubscriptionMap> subscription_;
  std::vector<VectorClock> knowledge_;      ///< K, row-major [q][t]
  VectorClock applied_rel_;                 ///< AppliedRel[1..n]
  std::vector<std::vector<SubDep>> last_write_on_;  ///< sparse, per variable
  std::vector<WriteUpdate> pending_;
  std::size_t write_blob_size_;
  WriteUpdate outgoing_;  ///< write() scratch (buffer reuse)
  std::uint64_t unicasts_sent_ = 0;
  std::uint64_t dep_entries_shipped_ = 0;
};

}  // namespace dsm
