// Integration tests for typed objects across the runtime tiers
// (docs/OBJECTS.md): the simulated harness with generated mixed workloads,
// the deterministic objects demo with its forced accessor returns, and
// CausalMemory's mutate/observe API, by id and through sessions.

#include <gtest/gtest.h>

#include <thread>

#include "dsm/objects/spec.h"
#include "dsm/objects/spec_checker.h"
#include "dsm/net/causal_memory.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/objects_demo.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const ObjectSchema> shared_schema(const char* name,
                                                  std::size_t n_vars) {
  const auto parsed = ObjectSchema::parse(name, n_vars);
  EXPECT_TRUE(parsed.has_value()) << name;
  return std::make_shared<const ObjectSchema>(*parsed);
}

// ------------------------------------------------------------- simulator --

TEST(ObjectsSim, GeneratedMixedWorkloadIsSpecConsistent) {
  for (const auto kind : {ProtocolKind::kOptP, ProtocolKind::kAnbkh}) {
    WorkloadSpec spec;
    spec.n_procs = 4;
    spec.n_vars = 5;
    spec.ops_per_proc = 80;
    spec.zipf_s = 0.9;
    spec.seed = 7;
    const auto schema = shared_schema("mixed", spec.n_vars);
    const auto scripts = generate_mixed_object_workload(spec, *schema, {});

    const UniformLatency latency(sim_us(50), sim_us(800), 5);
    SimRunConfig cfg;
    cfg.kind = kind;
    cfg.n_procs = spec.n_procs;
    cfg.n_vars = spec.n_vars;
    cfg.latency = &latency;
    cfg.protocol_config.objects = schema;
    const auto result = run_sim(cfg, scripts);
    ASSERT_TRUE(result.settled);
    ASSERT_NE(result.objects, nullptr);
    EXPECT_EQ(result.objects->unmatched_applies(), 0u);

    const auto check = SpecChecker::check(result.recorder->history(), *schema);
    EXPECT_TRUE(check.consistent()) << to_string(kind);
    EXPECT_GT(check.linearizations_explored, 0u);
  }
}

TEST(ObjectsSim, DemoScriptForcesEveryAccessorReturn) {
  // The register barriers pin every visible set, so the accessor returns are
  // constants of the script — under any protocol and latency assignment —
  // and the replicas converge to digest-equal typed states.
  const auto schema = make_objects_demo_schema();
  const UniformLatency latency(sim_us(50), sim_us(400), 3);
  SimRunConfig cfg;
  cfg.n_procs = kObjectsDemoProcs;
  cfg.n_vars = kObjectsDemoVars;
  cfg.latency = &latency;
  cfg.protocol_config.objects = schema;
  const auto result = run_sim(cfg, make_objects_demo_scripts());
  ASSERT_TRUE(result.settled);
  ASSERT_NE(result.objects, nullptr);

  EXPECT_TRUE(
      SpecChecker::check(result.recorder->history(), *schema).consistent());

  // Accessor returns in recording order per process (demo comment).
  const GlobalHistory& h = result.recorder->history();
  std::vector<Value> p2_returns;
  std::vector<Value> p3_returns;
  for (const Operation& op : h.all_ops()) {
    if (op.spec == SpecId::kRegister || !is_accessor(op.opcode)) continue;
    (op.proc == 1 ? p2_returns : p3_returns).push_back(op.value);
  }
  const ObjectsDemoExpected expected;
  ASSERT_EQ(p2_returns.size(), 2u);
  EXPECT_EQ(p2_returns[0], expected.p2_get);
  EXPECT_EQ(p2_returns[1], expected.p2_has);
  ASSERT_EQ(p3_returns.size(), 4u);
  EXPECT_EQ(p3_returns[0], expected.p3_get);
  EXPECT_EQ(p3_returns[1], expected.p3_has);
  EXPECT_EQ(p3_returns[2], expected.p3_cas_read);
  // The scan digest is a hash, not a scripted constant: recompute it from
  // the spec (app(100) then app(200), the order the barriers force).
  auto log = spec_for(SpecId::kLog).make_state();
  log->apply(OpCode::kAppend, 100, 0);
  log->apply(OpCode::kAppend, 200, 0);
  EXPECT_EQ(p3_returns[3], log->observe(OpCode::kScan, 0));

  for (ProcessId p = 1; p < kObjectsDemoProcs; ++p) {
    EXPECT_EQ(result.objects->replica_digest(p),
              result.objects->replica_digest(0));
  }
}

// ---------------------------------------------------------- CausalMemory --

TEST(ObjectsCausalMemory, TypedOpsConvergeAcrossReplicas) {
  CausalMemory::Options cfg;
  cfg.replicas = 3;
  cfg.capacity = 2;
  cfg.protocol_config.objects = shared_schema("counter", cfg.capacity);
  CausalMemory cluster(cfg);

  EXPECT_EQ(cluster.mutate(0, 0, SpecId::kCounter, OpCode::kInc, 5), 5);
  // mutate returns the post-state at the issuer, so p1's result depends on
  // whether p0's inc has reached it: wait, so that it has.
  ASSERT_TRUE(cluster.sync(5000ms));
  EXPECT_EQ(cluster.mutate(1, 0, SpecId::kCounter, OpCode::kInc, 2), 7);
  EXPECT_EQ(cluster.mutate(2, 1, SpecId::kCounter, OpCode::kDec, 4), -4);
  ASSERT_TRUE(cluster.sync(5000ms));

  ASSERT_NE(cluster.objects(), nullptr);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.observe(p, 0, SpecId::kCounter, OpCode::kGet), 7);
    EXPECT_EQ(cluster.observe(p, 1, SpecId::kCounter, OpCode::kGet), -4);
    EXPECT_EQ(cluster.objects()->replica_digest(p),
              cluster.objects()->replica_digest(0));
  }
  const auto check = SpecChecker::check(cluster.recorder().history(),
                                        *cfg.protocol_config.objects);
  EXPECT_TRUE(check.consistent());
}

TEST(ObjectsCausalMemory, ObserveSeesOwnMutationImmediately) {
  CausalMemory::Options cfg;
  cfg.replicas = 2;
  cfg.capacity = 1;
  cfg.protocol_config.objects = shared_schema("set", cfg.capacity);
  CausalMemory cluster(cfg);
  cluster.mutate(0, 0, SpecId::kSet, OpCode::kAdd, 7);
  // Read-your-writes: no quiescence needed at the issuer.
  EXPECT_EQ(cluster.observe(0, 0, SpecId::kSet, OpCode::kContains, 7), 1);
  ASSERT_TRUE(cluster.sync(5000ms));
  EXPECT_EQ(cluster.observe(1, 0, SpecId::kSet, OpCode::kContains, 7), 1);
}

TEST(ObjectsCausalMemory, CasOutcomeIsReportedLocally) {
  CausalMemory::Options cfg;
  cfg.replicas = 2;
  cfg.capacity = 1;
  cfg.protocol_config.objects = shared_schema("cas-register", cfg.capacity);
  CausalMemory cluster(cfg);
  cluster.mutate(0, 0, SpecId::kCasRegister, OpCode::kWrite, 3);
  EXPECT_EQ(cluster.mutate(0, 0, SpecId::kCasRegister, OpCode::kCas, 3, 9), 1);
  EXPECT_EQ(cluster.mutate(0, 0, SpecId::kCasRegister, OpCode::kCas, 3, 11),
            0);  // stale expect
  EXPECT_EQ(cluster.observe(0, 0, SpecId::kCasRegister, OpCode::kRead), 9);
  ASSERT_TRUE(cluster.sync(5000ms));
  EXPECT_EQ(cluster.observe(1, 0, SpecId::kCasRegister, OpCode::kRead), 9);
}

TEST(ObjectsCausalMemory, SessionsShareTypedState) {
  CausalMemory::Options options;
  options.replicas = 3;
  options.capacity = 8;
  options.protocol_config.objects = shared_schema("counter", 8);
  CausalMemory mem(options);

  auto alice = mem.session(0);
  auto bob = mem.session(1);
  EXPECT_EQ(alice.mutate("hits", SpecId::kCounter, OpCode::kInc, 5), 5);
  EXPECT_EQ(alice.mutate("hits", SpecId::kCounter, OpCode::kInc, 1), 6);
  ASSERT_TRUE(mem.sync());
  EXPECT_EQ(bob.observe("hits", SpecId::kCounter, OpCode::kGet), 6);
  EXPECT_EQ(bob.mutate("hits", SpecId::kCounter, OpCode::kDec, 2), 4);
  ASSERT_TRUE(mem.sync());
  EXPECT_EQ(alice.observe("hits", SpecId::kCounter, OpCode::kGet), 4);
}

}  // namespace
}  // namespace dsm
