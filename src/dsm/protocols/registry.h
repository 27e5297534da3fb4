// optcm — protocol registry: construct any protocol in the library by kind.
//
// Benches and tests sweep ProtocolKind to compare protocols on identical
// workloads; the registry is the single place that knows how to instantiate
// each one.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/protocols/protocol.h"
#include "dsm/protocols/subscription.h"

namespace dsm {

class ObjectSchema;  // dsm/objects/schema.h; carried opaquely here

enum class ProtocolKind : std::uint8_t {
  kOptP,         ///< the paper's protocol (Section 4)
  kOptPWs,       ///< OptP + writing semantics (paper footnote 8)
  kAnbkh,        ///< Ahamad et al. baseline [1]
  kAnbkhWs,      ///< ANBKH + receiver-side writing semantics ([2]/[14] spirit)
  kTokenWs,      ///< Jiménez et al. token protocol [7]
  kOptPSharded,  ///< subscription-routed OptP (after Xiang & Vaidya): writes
                 ///< unicast to subs(x) only; needs a
                 ///< ProtocolConfig::subscription map and subscription-aware
                 ///< workloads, so it is NOT in all_protocol_kinds()
  kOptPConv,     ///< OptP + convergent (LWW-arbitrated) causal memory: the
                 ///< "causal+" strengthening — replicas agree on concurrent
                 ///< writes under a total order extending ↦co
};

[[nodiscard]] const char* to_string(ProtocolKind k) noexcept;

/// Parses every kind's to_string name: "optp", "optp-ws", "anbkh",
/// "anbkh-ws", "token-ws", "optp-conv" and "optp-sharded".
[[nodiscard]] std::optional<ProtocolKind> parse_protocol(std::string_view name);

/// All kinds, in comparison-table order.
[[nodiscard]] const std::vector<ProtocolKind>& all_protocol_kinds();

/// The kinds that belong to class 𝒫 (every write applied at every process) —
/// the set for which Definitions 3–5 apply verbatim.
[[nodiscard]] const std::vector<ProtocolKind>& class_p_protocol_kinds();

struct ProtocolConfig {
  /// TokenWs only: circulation cap so simulations terminate.
  std::uint64_t token_max_rounds = 1'000'000;
  /// OptP family: bytes of application payload attached to every write
  /// update (models large objects; see bench/exp_partial).
  std::size_t write_blob_size = 0;
  /// kOptPSharded: which process subscribes to which variable.  Defaults to
  /// full subscription when unset (the protocol then degenerates to OptP).
  std::shared_ptr<const SubscriptionMap> subscription;
  /// Buffering protocols: run the seed's O(|pending|²·n) linear drain
  /// instead of the dependency-indexed one — the differential-test baseline
  /// and the "before" side of BENCH_core.json (docs/PERF.md).  Ignored by
  /// kTokenWs, which has no pending buffer of this shape.
  bool reference_drain = false;
  /// Typed objects (dsm/objects): which sequential spec governs each
  /// variable.  When set, the harnesses attach an ObjectStore to the run's
  /// observer chain and scripts may carry typed steps.  Unset (default) =
  /// plain registers everywhere; nothing typed is allocated or encoded.
  /// Riding in the config keeps sim, thread and forked process tiers on one
  /// schema for free.
  std::shared_ptr<const ObjectSchema> objects;
};

[[nodiscard]] std::unique_ptr<CausalProtocol> make_protocol(
    ProtocolKind kind, ProcessId self, std::size_t n_procs, std::size_t n_vars,
    Endpoint& endpoint, ProtocolObserver& observer,
    const ProtocolConfig& config = {});

}  // namespace dsm
