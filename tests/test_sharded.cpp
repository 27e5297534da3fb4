// Tests for subscription-routed sharding (ShardedOptP, after Xiang &
// Vaidya): the SubscriptionMap (including chained-declustering partial
// replication), unicast routing, the knowledge-matrix wait condition
// (including transitive chains through non-shared-variable processes),
// degeneration to OptP under a full map, per-shard log merging, the
// subscription-aware auditor, and the Zipf sampler the skewed workloads ride
// on.

#include <gtest/gtest.h>

#include "dsm/audit/auditor.h"
#include "dsm/audit/trace_io.h"
#include "dsm/codec/message.h"
#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/net/merge.h"
#include "dsm/protocols/sharded.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

ProtocolConfig sharded_config(std::shared_ptr<const SubscriptionMap> map,
                              std::size_t blob = 0) {
  ProtocolConfig cfg;
  cfg.subscription = std::move(map);
  cfg.write_blob_size = blob;
  return cfg;
}

std::shared_ptr<const SubscriptionMap> parse_map(std::string_view spec,
                                                 std::size_t procs,
                                                 std::size_t vars) {
  std::string error;
  auto map = SubscriptionMap::parse(spec, procs, vars, &error);
  EXPECT_TRUE(map.has_value()) << error;
  return std::make_shared<const SubscriptionMap>(std::move(*map));
}

// ------------------------------------------------------- SubscriptionMap ---

TEST(SubscriptionMap, FullMapSubscribesEverywhere) {
  const auto map = SubscriptionMap::full(3, 4);
  for (VarId v = 0; v < 4; ++v) {
    for (ProcessId p = 0; p < 3; ++p) EXPECT_TRUE(map.is_subscriber(v, p));
  }
  EXPECT_TRUE(map.is_full());
  EXPECT_DOUBLE_EQ(map.mean_size(), 3.0);
}

TEST(SubscriptionMap, DisjointGroupsPartitionProcsAndVars) {
  // disjoint(6, 6, 3): group g owns procs [2g, 2g+2) and vars {v : v%3==g}.
  const auto map = SubscriptionMap::disjoint(6, 6, 3);
  EXPECT_EQ(map.subscribers(0), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(map.subscribers(1), (std::vector<ProcessId>{2, 3}));
  EXPECT_EQ(map.subscribers(2), (std::vector<ProcessId>{4, 5}));
  EXPECT_EQ(map.subscribers(3), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(map.vars_of(0), (std::vector<VarId>{0, 3}));
  EXPECT_EQ(map.vars_of(5), (std::vector<VarId>{2, 5}));
  EXPECT_FALSE(map.is_full());
  EXPECT_DOUBLE_EQ(map.mean_size(), 2.0);
  // Disjointness: no process appears in two groups' variable sets.
  for (ProcessId p = 0; p < 6; ++p) {
    for (const VarId v : map.vars_of(p)) EXPECT_EQ(v % 3, std::size_t(p / 2));
  }
}

TEST(SubscriptionMap, ChainedPlacement) {
  // chained(4, 4, 2): v lives on (v + i) mod 4 for i < 2.
  const auto map = SubscriptionMap::chained(4, 4, 2);
  EXPECT_EQ(map.subscribers(0), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(map.subscribers(1), (std::vector<ProcessId>{1, 2}));
  EXPECT_EQ(map.subscribers(3), (std::vector<ProcessId>{0, 3}));
  EXPECT_EQ(map.vars_of(1), (std::vector<VarId>{0, 1}));
  EXPECT_FALSE(map.is_full());
  EXPECT_DOUBLE_EQ(map.mean_size(), 2.0);
  EXPECT_EQ(map.describe(), "chained(2)");
}

TEST(SubscriptionMap, ChainedFactorClampedToProcs) {
  const auto map = SubscriptionMap::chained(2, 3, 10);
  EXPECT_TRUE(map.is_full());
  EXPECT_DOUBLE_EQ(map.mean_size(), 2.0);
}

TEST(SubscriptionMap, ParseAcceptsAllThreeSpecForms) {
  const auto full = SubscriptionMap::parse("full", 3, 2);
  ASSERT_TRUE(full.has_value());
  EXPECT_TRUE(full->is_full());

  const auto disjoint = SubscriptionMap::parse("disjoint:2", 4, 4);
  ASSERT_TRUE(disjoint.has_value());
  const auto reference = SubscriptionMap::disjoint(4, 4, 2);
  for (VarId v = 0; v < 4; ++v) {
    EXPECT_EQ(disjoint->subscribers(v), reference.subscribers(v));
  }

  const auto chained = SubscriptionMap::parse("chained:3", 4, 6);
  ASSERT_TRUE(chained.has_value());
  const auto chained_ref = SubscriptionMap::chained(4, 6, 3);
  for (VarId v = 0; v < 6; ++v) {
    EXPECT_EQ(chained->subscribers(v), chained_ref.subscribers(v));
  }

  const auto explicit_map = SubscriptionMap::parse("0:0,1;1:1,2", 3, 2);
  ASSERT_TRUE(explicit_map.has_value());
  EXPECT_TRUE(explicit_map->is_subscriber(0, 0));
  EXPECT_TRUE(explicit_map->is_subscriber(0, 1));
  EXPECT_FALSE(explicit_map->is_subscriber(0, 2));
  EXPECT_FALSE(explicit_map->is_subscriber(1, 0));
  EXPECT_TRUE(explicit_map->is_subscriber(1, 1));
  EXPECT_TRUE(explicit_map->is_subscriber(1, 2));
}

TEST(SubscriptionMap, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "disjoint:x",   // non-numeric group count
      "disjoint:0",   // zero groups
      "disjoint:5",   // more groups than the 3 procs below
      "chained:0",    // zero replicas
      "chained:x",    // non-numeric factor
      "chained:",     // missing factor
      "chained:4",    // more replicas than the 3 procs below
      "0:0,1",        // variable 1 missing from an explicit spec
      "0:0;0:1;1:1",  // variable listed twice
      "0:9;1:0",      // process out of range
      "0:;1:0",       // empty subscriber list
      "garbage",      // no ':' at all
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(SubscriptionMap::parse(spec, 3, 2, &error).has_value())
        << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(SubscriptionMap, ParseErrorsNameTheOffendingToken) {
  // The error string is user-facing CLI output (--subscriptions=...), so it
  // must point at the specific token, not just say "bad spec".
  const struct {
    const char* spec;
    const char* error;
  } cases[] = {
      {"0:0;0:1;1:1", "variable 0 listed twice"},
      {"chained:4", "chained:4 exceeds 3 procs"},
      {"0:9;1:0", "bad process in \"0:9\""},
      // An empty subscriber list dies on the empty token, same branch.
      {"0:;1:0", "bad process in \"0:\""},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(SubscriptionMap::parse(c.spec, 3, 2, &error).has_value())
        << c.spec;
    EXPECT_EQ(error, c.error) << c.spec;
  }
}

// ------------------------------------------------------------ ShardedOptP --

TEST(ShardedOptP, FullMapBehavesExactlyLikeOptP) {
  // Under a full map the knowledge matrix degenerates to Write_co and the
  // unicast fan-out covers the whole group: the observable run — per-process
  // event sequences included — must match OptP exactly.
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::full(3, 2));
  DirectCluster sharded(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  DirectCluster plain(ProtocolKind::kOptP, 3, 2);
  for (auto* c : {&sharded, &plain}) {
    c->write(0, 0, 1);
    c->deliver_all();
    (void)c->read(1, 0);
    c->write(1, 1, 2);
    c->deliver_all();
    (void)c->read(2, 1);
  }
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sharded.recorder().sequence_str(p),
              plain.recorder().sequence_str(p));
    EXPECT_EQ(sharded.node(p).peek(0).value, plain.node(p).peek(0).value);
    EXPECT_EQ(sharded.node(p).peek(1).value, plain.node(p).peek(1).value);
    EXPECT_EQ(sharded.node(p).stats().delayed_writes,
              plain.node(p).stats().delayed_writes);
  }
}

TEST(ShardedOptP, FullMapCollapsesKnowledgeRows) {
  // Every write is q-relevant for every q under a full map, so all n rows of
  // K evolve identically (each equals OptP's Write_co).
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::full(3, 2));
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  c.write(1, 1, 2);
  c.deliver_all();
  (void)c.read(0, 1);
  (void)c.read(2, 1);
  for (ProcessId p = 0; p < 3; ++p) {
    const auto& proto = static_cast<const ShardedOptP&>(c.node(p));
    for (ProcessId q = 1; q < 3; ++q) {
      EXPECT_EQ(proto.knowledge_row(q), proto.knowledge_row(0));
    }
  }
}

TEST(ShardedOptP, UnicastsReachOnlySubscribers) {
  // x0 at {p0,p1}, x1 at {p1,p2}: each write produces exactly |subs|−1
  // in-flight messages, addressed to the foreign subscribers and nobody else.
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 7);
  ASSERT_EQ(c.in_flight(), 1u);
  EXPECT_EQ(c.flight(0).to, 1u);
  c.deliver_all();
  c.write(1, 1, 9);
  ASSERT_EQ(c.in_flight(), 1u);
  EXPECT_EQ(c.flight(0).to, 2u);
  c.deliver_all();
  EXPECT_EQ(static_cast<const ShardedOptP&>(c.node(0)).unicasts_sent(), 1u);
  EXPECT_EQ(static_cast<const ShardedOptP&>(c.node(1)).unicasts_sent(), 1u);
  EXPECT_EQ(c.node(1).peek(0).value, 7);
  EXPECT_EQ(c.node(2).peek(1).value, 9);
}

TEST(ShardedOptP, DepMatrixShipsOnlyNonzeroEntries) {
  // p0's first write of x0 (subs {0,1}) has exactly two nonzero knowledge
  // entries — K[0][0] and K[1][0], both 1 — and the wire frame carries
  // exactly those, sorted by (row, col).
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 7);
  ASSERT_EQ(c.in_flight(), 1u);
  const auto decoded = decode_message(c.flight(0).bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* update = std::get_if<WriteUpdate>(&*decoded);
  ASSERT_NE(update, nullptr);
  const std::vector<SubDep> expected = {{0, 0, 1}, {1, 0, 1}};
  EXPECT_EQ(update->sub_deps, expected);
  EXPECT_EQ(static_cast<const ShardedOptP&>(c.node(0)).dep_entries_shipped(),
            2u);
}

TEST(ShardedOptP, TransitiveChainThroughForeignProcessStillOrders) {
  // The counterexample that forces a full matrix (sharded.h file comment):
  // p0 writes x (subs {0,1,3}); p1 reads x, writes y (subs {1,2}); p2 reads
  // y, writes z (subs {2,3}).  p3 shares no variable with p2's causal
  // *carrier* p1, yet must order z after x — only the propagated matrix rows
  // convey that, and delivering z first must buffer it.
  const auto map = parse_map("0:0,1,3;1:1,2;2:2,3", 4, 3);
  DirectCluster c(ProtocolKind::kOptPSharded, 4, 3, sharded_config(map));
  c.write(0, 0, 1);
  ASSERT_TRUE(c.deliver_to(1, 0));
  (void)c.read(1, 0);
  c.write(1, 1, 2);
  ASSERT_TRUE(c.deliver_to(2, 1));
  (void)c.read(2, 1);
  c.write(2, 2, 3);

  // z's update reaches p3 while x's is still in flight: it must wait.
  ASSERT_TRUE(c.deliver_to(3, 2));
  EXPECT_EQ(c.node(3).pending_count(), 1u);
  EXPECT_EQ(c.node(3).peek(2).value, kBottom);

  ASSERT_TRUE(c.deliver_to(3, 0));  // x arrives; z drains behind it
  EXPECT_EQ(c.node(3).pending_count(), 0u);
  EXPECT_EQ(c.node(3).peek(0).value, 1);
  EXPECT_EQ(c.node(3).peek(2).value, 3);
  EXPECT_EQ(c.node(3).stats().delayed_writes, 1u);

  const auto& rec = c.recorder();
  EXPECT_TRUE(ConsistencyChecker::check(rec.history()).consistent());
  const auto audit =
      OptimalityAuditor::audit(rec.history(), rec.events(), map.get());
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_delayed(), 1u);
  EXPECT_EQ(audit.total_unnecessary(), 0u);  // the delay was necessary
}

TEST(ShardedOptP, NameAndRegistryDefaults) {
  DirectCluster c(ProtocolKind::kOptPSharded, 2, 2);  // defaults to full map
  EXPECT_EQ(c.node(0).name(), "optp-sharded");
  EXPECT_TRUE(static_cast<const ShardedOptP&>(c.node(0)).subscription()
                  .is_full());
  c.write(0, 0, 5);
  c.deliver_all();
  EXPECT_EQ(c.node(1).peek(0).value, 5);
  EXPECT_TRUE(parse_protocol("optp-sharded").has_value());
}

// The access contract: touching a variable outside one's subscription — or
// routing an update to a non-subscriber — is a harness bug, and DSM_REQUIRE
// aborts.
TEST(ShardedOptPDeathTest, AccessOutsideSubscriptionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  EXPECT_DEATH(c.write(0, 1, 5), "subscribe");
  EXPECT_DEATH((void)c.read(2, 0), "subscribe");
}

// ------------------------------- partial replication (chained placement) ---
//
// Partial replication is a chained:K subscription map on optp-sharded: each
// variable lives on K consecutive processes, and non-replicas get nothing.

TEST(ReplicationMap, FullMapReplicatesEverywhere) {
  // A replication factor equal to the process count is the full map.
  const auto map = SubscriptionMap::chained(3, 4, 3);
  const auto full = SubscriptionMap::full(3, 4);
  EXPECT_TRUE(map.is_full());
  for (VarId v = 0; v < 4; ++v) {
    for (ProcessId p = 0; p < 3; ++p) EXPECT_TRUE(map.is_subscriber(v, p));
    EXPECT_EQ(map.subscribers(v), full.subscribers(v));
  }
  EXPECT_DOUBLE_EQ(map.mean_size(), 3.0);
}

TEST(PartialOptP, CausalChainThroughUnreplicatedVariable) {
  // chained(3, 3, 2): x0 at {p0,p1}, x1 at {p1,p2}, x2 at {p2,p0}.  p0
  // writes x2 then x0; p1 reads x0 and writes x1.  p2 replicates no copy of
  // x0, yet x1's write causally follows p0's write of x2 through it — so x1
  // delivered first must buffer until x2 arrives.
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::chained(3, 3, 2));
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 3, sharded_config(map));
  c.write(0, 2, 1);                 // to p2, left in flight
  c.write(0, 0, 2);                 // to p1
  ASSERT_TRUE(c.deliver_to(1, 0));
  EXPECT_EQ(c.read(1, 0).value, 2);
  c.write(1, 1, 3);                 // to p2, causally after both p0 writes

  ASSERT_TRUE(c.deliver_to(2, 1));
  EXPECT_EQ(c.node(2).pending_count(), 1u);  // waits for p0's x2
  EXPECT_EQ(c.node(2).peek(1).value, kBottom);
  ASSERT_TRUE(c.deliver_to(2, 0));  // x2 arrives; x1 drains behind it
  EXPECT_EQ(c.node(2).pending_count(), 0u);
  EXPECT_EQ(c.node(2).peek(2).value, 1);
  EXPECT_EQ(c.node(2).peek(1).value, 3);
  EXPECT_EQ(c.node(2).stats().delayed_writes, 1u);

  const auto& rec = c.recorder();
  EXPECT_TRUE(ConsistencyChecker::check(rec.history()).consistent());
  const auto audit =
      OptimalityAuditor::audit(rec.history(), rec.events(), map.get());
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_unnecessary(), 0u);  // the delay was necessary
}

TEST(PartialOptPDeathTest, AccessOutsideReplicaSetDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // chained(3, 3, 2): x0 at {p0, p1} — p2 is no replica of it.
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::chained(3, 3, 2));
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 3, sharded_config(map));
  EXPECT_DEATH(c.write(2, 0, 1), "subscribe");
  EXPECT_DEATH((void)c.read(2, 0), "subscribe");
}

TEST(ShardedOptPDeathTest, UpdateRoutedToNonSubscriberDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(1, 1, 9);
  ASSERT_EQ(c.in_flight(), 1u);
  DirectCluster::Flight misrouted = c.flight(0);
  misrouted.to = 0;  // p0 does not subscribe to x1
  EXPECT_DEATH(c.inject(misrouted), "non-subscriber");
}

// ------------------------------------------- subscription-aware auditing ---

TEST(OptimalityAuditor, MessageFloorSumsForeignSubscribers) {
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  GlobalHistory history(3, 2);
  history.add_write(0, 0, 1);  // |subs(x0)| − 1 = 1
  history.add_write(1, 0, 2);  // 1
  history.add_write(1, 1, 3);  // |subs(x1)| − 1 = 1
  EXPECT_EQ(OptimalityAuditor::message_floor(history, *map), 3u);

  const auto full = SubscriptionMap::full(3, 2);
  EXPECT_EQ(OptimalityAuditor::message_floor(history, full), 6u);  // 3·(n−1)
}

TEST(OptimalityAuditor, LivenessNarrowsToSubscribers) {
  // A routed run applies each write at its subscribers only.  The
  // subscription-aware audit accepts that; the full-replication audit
  // (nullptr map) must report the non-subscribers' missing applies.
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  c.write(1, 1, 2);
  c.deliver_all();
  (void)c.read(2, 1);

  const auto& rec = c.recorder();
  const auto routed =
      OptimalityAuditor::audit(rec.history(), rec.events(), map.get());
  EXPECT_TRUE(routed.safe());
  EXPECT_TRUE(routed.live());
  EXPECT_TRUE(routed.write_delay_optimal());

  const auto unaware =
      OptimalityAuditor::audit(rec.history(), rec.events(), nullptr);
  EXPECT_FALSE(unaware.live());  // x0 never applied at p2, x1 never at p0
}

// ------------------------------------------------- per-shard log merging ---

// Split a recorded run into per-process traces — exactly what each node of a
// sharded cluster persists on its own — and check merge_runs() reassembles a
// checker-clean global run whose per-process sequences match the original
// byte for byte.
TEST(ShardedMerge, PerShardLogsStitchBackToTheGlobalRun) {
  constexpr std::size_t kProcs = 6;
  constexpr std::size_t kVars = 12;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    WorkloadSpec spec;
    spec.n_procs = kProcs;
    spec.n_vars = kVars;
    spec.ops_per_proc = 40;
    spec.write_fraction = 0.5;
    spec.mean_gap = sim_us(250);
    spec.seed = seed;

    const auto map = std::make_shared<const SubscriptionMap>(
        SubscriptionMap::disjoint(kProcs, kVars, 3));
    const auto latency =
        make_latency(LatencyKind::kLogNormal, sim_us(400), 1.0, seed ^ 0xC3);

    SimRunConfig cfg;
    cfg.kind = ProtocolKind::kOptPSharded;
    cfg.n_procs = kProcs;
    cfg.n_vars = kVars;
    cfg.latency = latency.get();
    cfg.protocol_config.subscription = map;

    const auto result = run_sim(cfg, generate_subscriber_workload(spec, *map));
    ASSERT_TRUE(result.settled);
    const auto& rec = *result.recorder;

    std::vector<ImportedRun> runs;
    for (ProcessId p = 0; p < kProcs; ++p) {
      ImportedRun run{GlobalHistory(kProcs, kVars), {}};
      for (const OpRef ref : rec.history().local(p)) {
        const Operation& op = rec.history().op(ref);
        if (op.is_write()) {
          run.history.add_write(p, op.var, op.value);
        } else {
          run.history.add_read(p, op.var, op.value, op.write_id);
        }
      }
      for (const RunEvent& e : rec.events()) {
        if (e.at == p) run.events.push_back(e);
      }
      runs.push_back(std::move(run));
    }

    const auto merged = merge_runs(runs);
    ASSERT_TRUE(merged.has_value()) << "seed " << seed;
    EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
    const auto audit =
        OptimalityAuditor::audit(merged->history, merged->events, map.get());
    EXPECT_TRUE(audit.safe());
    EXPECT_TRUE(audit.live());
    for (ProcessId p = 0; p < kProcs; ++p) {
      EXPECT_EQ(sequence_str(merged->events, p), rec.sequence_str(p))
          << "seed " << seed << " proc " << unsigned(p);
    }
  }
}

// ------------------------------------------------------------ Zipf skew ----

TEST(ZipfSampler, DeterministicAndSkewed) {
  ZipfSampler a(16, 0.9), b(16, 0.9);
  Rng ra(42), rb(42);
  std::vector<std::size_t> counts(16, 0);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t s = a.sample(ra);
    ASSERT_EQ(s, b.sample(rb));  // same seed, same stream
    ASSERT_LT(s, 16u);
    ++counts[s];
  }
  // Rank 0 is the most popular item; the tail is strictly colder.
  EXPECT_GT(counts[0], counts[15]);
  EXPECT_GT(counts[0], counts[8]);
}

TEST(ZipfWorkload, SubscriberScriptsAreDeterministicAndInBounds) {
  WorkloadSpec spec;
  spec.n_procs = 6;
  spec.n_vars = 12;
  spec.ops_per_proc = 30;
  spec.pattern = AccessPattern::kZipf;
  spec.zipf_s = 1.1;
  spec.seed = 99;

  const auto map = SubscriptionMap::disjoint(6, 12, 3);
  const auto once = generate_subscriber_workload(spec, map);
  const auto again = generate_subscriber_workload(spec, map);
  ASSERT_EQ(once.size(), again.size());
  for (ProcessId p = 0; p < once.size(); ++p) {
    ASSERT_EQ(once[p].size(), again[p].size());
    for (std::size_t i = 0; i < once[p].size(); ++i) {
      EXPECT_EQ(once[p][i].kind, again[p][i].kind);
      EXPECT_EQ(once[p][i].var, again[p][i].var);
      EXPECT_EQ(once[p][i].value, again[p][i].value);
      EXPECT_EQ(once[p][i].delay, again[p][i].delay);
      // Every access stays inside p's subscription.
      EXPECT_TRUE(map.is_subscriber(once[p][i].var, p));
    }
  }
}

// ----------------------------------------------- end-to-end sharded runs ---

// `spec` is a --subscriptions spec over the sweep's 6 processes and 12
// variables: disjoint:G shards, or chained:K replicas per variable.
struct ShardedParams {
  const char* spec;
  std::uint64_t seed;
};

class ShardedSweep : public ::testing::TestWithParam<ShardedParams> {};

TEST_P(ShardedSweep, RoutedRunIsConsistentSafeLiveAndMessageOptimal) {
  const auto [subscriptions, seed] = GetParam();
  constexpr std::size_t kProcs = 6;
  constexpr std::size_t kVars = 12;

  WorkloadSpec spec;
  spec.n_procs = kProcs;
  spec.n_vars = kVars;
  spec.ops_per_proc = 50;
  spec.write_fraction = 0.5;
  spec.mean_gap = sim_us(250);
  spec.seed = seed;

  const auto map = parse_map(subscriptions, kProcs, kVars);
  const auto latency =
      make_latency(LatencyKind::kLogNormal, sim_us(400), 1.2, seed ^ 0xAB);

  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kOptPSharded;
  cfg.n_procs = kProcs;
  cfg.n_vars = kVars;
  cfg.latency = latency.get();
  cfg.protocol_config.subscription = map;
  cfg.protocol_config.write_blob_size = 128;

  const auto result = run_sim(cfg, generate_subscriber_workload(spec, *map));
  ASSERT_TRUE(result.settled);

  const auto& rec = *result.recorder;
  EXPECT_TRUE(ConsistencyChecker::check(rec.history()).consistent());
  const auto audit =
      OptimalityAuditor::audit(rec.history(), rec.events(), map.get());
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_unnecessary(), 0u);  // Theorem 4 carries over
  // The Xiang–Vaidya bound, met exactly: every update message was necessary.
  EXPECT_EQ(result.net.messages_sent,
            OptimalityAuditor::message_floor(rec.history(), *map));
}

// Rows are named g<G>_s<seed> (disjoint) and c<K>_s<seed> (chained).
INSTANTIATE_TEST_SUITE_P(
    Groups, ShardedSweep,
    ::testing::Values(ShardedParams{"disjoint:1", 1},
                      ShardedParams{"disjoint:2", 2},
                      ShardedParams{"disjoint:3", 3},
                      ShardedParams{"disjoint:6", 4},
                      ShardedParams{"chained:1", 1},
                      ShardedParams{"chained:2", 2},
                      ShardedParams{"chained:3", 3},
                      ShardedParams{"chained:6", 4}),
    [](const ::testing::TestParamInfo<ShardedParams>& pi) {
      const std::string_view spec = pi.param.spec;
      const std::string_view k = spec.substr(spec.find(':') + 1);
      return (spec[0] == 'd' ? "g" : "c") + std::string(k) + "_s" +
             std::to_string(pi.param.seed);
    });

TEST(ShardedOptP, BandwidthScalesWithFactor) {
  // Chained placement on the message floor: a write of x reaches its K−1
  // foreign replicas only, so factor 2 ships the blob to 1 peer, not 5.
  constexpr std::size_t kProcs = 6;
  constexpr std::size_t kVars = 12;
  WorkloadSpec spec;
  spec.n_procs = kProcs;
  spec.n_vars = kVars;
  spec.ops_per_proc = 40;
  spec.write_fraction = 0.8;
  spec.seed = 11;

  const auto latency =
      make_latency(LatencyKind::kUniform, sim_us(300), 0.5, 0x5);
  std::uint64_t bytes_at[2] = {0, 0};
  const char* specs[2] = {"chained:2", "chained:6"};
  for (int i = 0; i < 2; ++i) {
    const auto map = parse_map(specs[i], kProcs, kVars);
    SimRunConfig cfg;
    cfg.kind = ProtocolKind::kOptPSharded;
    cfg.n_procs = kProcs;
    cfg.n_vars = kVars;
    cfg.latency = latency.get();
    cfg.protocol_config.subscription = map;
    cfg.protocol_config.write_blob_size = 2048;
    const auto result = run_sim(cfg, generate_subscriber_workload(spec, *map));
    ASSERT_TRUE(result.settled);
    EXPECT_EQ(result.net.messages_sent,
              OptimalityAuditor::message_floor(result.recorder->history(),
                                               *map))
        << specs[i];
    bytes_at[i] = result.net.bytes_sent;
  }
  EXPECT_LT(bytes_at[0] * 2, bytes_at[1]);
}

}  // namespace
}  // namespace dsm
