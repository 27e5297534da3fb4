// procbench's own tests: deterministic script generation, deadlock-free
// marker/await structure at every size the benchmark runs, the await-timeout
// detector, and the metric contract with BENCHMARK.json.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "report.h"
#include "workloads.h"

namespace procbench {
namespace {

bool same_steps(const dsm::Script& a, const dsm::Script& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tie(a[i].delay, a[i].kind, a[i].var, a[i].value, a[i].poll_every,
                 a[i].timeout) != std::tie(b[i].delay, b[i].kind, b[i].var,
                                           b[i].value, b[i].poll_every,
                                           b[i].timeout)) {
      return false;
    }
  }
  return true;
}

TEST(Workloads, SameSeedSameScripts) {
  for (const Workload w : all_workloads()) {
    for (const Size size : {Size::kTimed, Size::kAudit}) {
      const Plan a = make_plan(w, 42, size);
      const Plan b = make_plan(w, 42, size);
      const Plan c = make_plan(w, 43, size);
      ASSERT_EQ(a.scripts.size(), kProcs);
      bool all_same = true;
      bool any_diff = false;
      for (std::size_t p = 0; p < kProcs; ++p) {
        all_same = all_same && same_steps(a.scripts[p], b.scripts[p]);
        any_diff = any_diff || !same_steps(a.scripts[p], c.scripts[p]);
      }
      EXPECT_TRUE(all_same) << to_string(w);
      EXPECT_TRUE(any_diff) << to_string(w) << ": the seed changes nothing";
      EXPECT_EQ(a.writes, b.writes);
    }
  }
}

TEST(Workloads, ChainHasOneWriteInFlight) {
  const Plan plan = make_chain(5, 30);
  EXPECT_EQ(plan.writes, 30u);
  EXPECT_EQ(plan.awaits, 29u);
  // Node k mod 3 awaits hop k-1's value before writing hop k.
  for (std::size_t p = 0; p < kProcs; ++p) {
    const dsm::Script& s = plan.scripts[p];
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i].kind != dsm::StepKind::kWrite || s[i].value == 1) continue;
      ASSERT_GT(i, 0u);
      EXPECT_EQ(s[i - 1].kind, dsm::StepKind::kReadUntil);
      EXPECT_EQ(s[i - 1].value, s[i].value - 1);
      EXPECT_EQ(s[i - 1].poll_every, kPollEvery);
      EXPECT_EQ(s[i - 1].timeout, kAwaitTimeout);
    }
  }
}

// Every size the benchmark runs terminates in the simulator with no await
// reaching its timeout, under reordering latencies and several seeds.
TEST(Workloads, EveryBenchmarkSizeIsDeadlockFree) {
  for (const Workload w : all_workloads()) {
    for (const Size size : {Size::kTimed, Size::kAudit}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const Plan plan = make_plan(w, seed, size);
        EXPECT_EQ(prove_in_sim(plan, seed), "")
            << to_string(w) << " steps=" << steps_of(w, size)
            << " seed=" << seed;
      }
    }
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    EXPECT_EQ(prove_in_sim(make_chain(seed, kDurableHops), seed), "")
        << "durable chain seed=" << seed;
  }
}

TEST(Workloads, RoundMarkersAreDeadlockFreeForOtherBursts) {
  for (const std::size_t burst : {std::size_t{1}, std::size_t{4}, std::size_t{7}, kBurst}) {
    for (const std::size_t rounds : {1u, 2u, 3u, 9u}) {
      const Plan plan = make_rounds(11, rounds, burst);
      EXPECT_EQ(plan.awaits, rounds * kProcs * (kProcs - 1));
      EXPECT_EQ(prove_in_sim(plan, 11), "")
          << "burst=" << burst << " rounds=" << rounds;
    }
  }
}

TEST(Workloads, AwaitTimeoutIsDetected) {
  Plan plan = make_chain(3, 4);
  // Await a value nobody ever writes: the await gives up after its timeout.
  plan.scripts[0].back().value = 999;
  plan.scripts[0].insert(plan.scripts[0].end() - 1,
                         dsm::read_until_step(0, 0, 12345, kPollEvery));
  plan.scripts[0][plan.scripts[0].size() - 2].timeout = dsm::sim_ms(1);
  const std::string err = prove_in_sim(plan, 3);
  EXPECT_NE(err.find("reached its timeout"), std::string::npos) << err;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

using Triple = std::tuple<std::string, std::string, std::string>;

std::set<Triple> json_section(const std::string& json, const std::string& key,
                              const std::string& next_key) {
  const auto begin = json.find("\"" + key + "\"");
  const auto end = next_key.empty() ? json.size()
                                    : json.find("\"" + next_key + "\"", begin);
  EXPECT_NE(begin, std::string::npos) << key;
  const std::string section = json.substr(begin, end - begin);
  const std::regex entry(
      "\"name\"\\s*:\\s*\"([^\"]+)\"\\s*,\\s*\"unit\"\\s*:\\s*\"([^\"]+)\"\\s*,"
      "\\s*\"better\"\\s*:\\s*\"([^\"]+)\"");
  std::set<Triple> out;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace((*it)[1], (*it)[2], (*it)[3]);
  }
  return out;
}

std::set<Triple> catalogue(const std::vector<MetricDef>& defs) {
  std::set<Triple> out;
  for (const MetricDef& d : defs) out.emplace(d.name, d.unit, d.better);
  return out;
}

TEST(Report, MetricNamesMatchBenchmarkJson) {
  const std::string json = read_file(std::string(PROCBENCH_ROOT) + "/BENCHMARK.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json_section(json, "end_to_end", "per_layer"),
            catalogue(end_to_end_metrics()));
  EXPECT_EQ(json_section(json, "per_layer", ""), catalogue(per_layer_metrics()));
  for (const Workload w : all_workloads()) {
    EXPECT_NE(json.find(std::string("\"") + to_string(w) + "\""),
              std::string::npos)
        << to_string(w);
  }
}

TEST(Report, ResultLinePrintsExactlyTheCatalogue) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    MetricValues values;
    for (const MetricDef& d : *defs) values[d.name] = 1.25;
    const std::string line = result_json(true, 10, 0, *defs, values);
    std::set<std::string> printed;
    const std::regex name("\"([^\"]+)\": \\{\"value\"");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), name);
         it != std::sregex_iterator(); ++it) {
      printed.insert((*it)[1]);
    }
    std::set<std::string> want;
    for (const MetricDef& d : *defs) want.insert(d.name);
    EXPECT_EQ(printed, want);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0", 0),
              0u);
  }
}

TEST(ReportDeathTest, MissingValueAborts) {
  MetricValues values;
  values["setup_s"] = 1;
  EXPECT_DEATH((void)result_json(true, 1, 0, end_to_end_metrics(), values),
               "metric values");
}

TEST(Report, MedianOfOddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0);
}

}  // namespace
}  // namespace procbench
