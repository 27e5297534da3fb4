// Tests for the telemetry layer (src/dsm/telemetry): registry aggregation,
// the observer tee on simulated and threaded runs, the Chrome-trace/CSV
// exporters, and a golden-file pin of the Ĥ₁/Figure-1 metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dsm/common/rng.h"
#include "dsm/runtime/thread_cluster.h"
#include "dsm/telemetry/telemetry.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry: per-scope series and cross-scope aggregation.

TEST(MetricsRegistry, CountersAggregateAcrossScopes) {
  MetricsRegistry reg(3);
  reg.counter(0, "hits_total").add(2);
  reg.counter(1, "hits_total").add(3);
  reg.counter(MetricsRegistry::kRunScope, "hits_total").add(5);
  EXPECT_EQ(reg.counter_total("hits_total"), 10u);
  EXPECT_EQ(reg.counter_total("absent_total"), 0u);
}

TEST(MetricsRegistry, GaugesTrackHighWater) {
  MetricsRegistry reg(2);
  Gauge& g0 = reg.gauge(0, "depth");
  g0.set(7);
  g0.set(2);  // drops, but max stays
  reg.gauge(1, "depth").set(4);
  EXPECT_EQ(reg.gauge(0, "depth").last(), 2u);
  EXPECT_EQ(reg.gauge_max("depth"), 7u);
}

TEST(MetricsRegistry, SummariesMergeAcrossScopes) {
  MetricsRegistry reg(2);
  reg.summary(0, "lat_us").add(10.0);
  reg.summary(0, "lat_us").add(30.0);
  reg.summary(1, "lat_us").add(20.0);
  const Summary merged = reg.merged_summary("lat_us");
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_DOUBLE_EQ(merged.mean(), 20.0);
  EXPECT_EQ(reg.merged_summary("absent").count(), 0u);
}

TEST(MetricsRegistry, ReturnedReferencesAreStable) {
  MetricsRegistry reg(2);
  Counter& c = reg.counter(0, "a_total");
  for (int i = 0; i < 100; ++i) {
    reg.counter(1, "b" + std::to_string(i) + "_total").add();
  }
  c.add(1);  // must still be valid after many creations
  EXPECT_EQ(reg.counter_total("a_total"), 1u);
}

TEST(MetricsRegistry, ConcurrentCreationAndIncrement) {
  MetricsRegistry reg(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter(static_cast<ProcessId>(t), "shared_total").add();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter_total("shared_total"), 4000u);
}

TEST(MetricsRegistry, CsvIsDeterministicAndOrdered) {
  MetricsRegistry reg(2);
  reg.counter(1, "z_total").add(1);
  reg.counter(0, "z_total").add(2);
  reg.gauge(0, "depth").set(3);
  reg.summary(MetricsRegistry::kRunScope, "lat_us").add(5.0);
  const std::string csv = reg.csv();
  EXPECT_EQ(csv, reg.csv());  // stable
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "metric,scope,kind,count,value,mean,p50,p95,p99,max");
  std::vector<std::string> rows;
  while (std::getline(in, line)) rows.push_back(line);
  // Families alphabetical; scopes p0 < p1 < run < all within a family.
  ASSERT_EQ(rows.size(), 7u);  // depth(p0,all) lat(run,all) z(p0,p1,all)
  EXPECT_EQ(rows[0].rfind("depth,p0,gauge", 0), 0u);
  EXPECT_EQ(rows[1].rfind("depth,all,gauge", 0), 0u);
  EXPECT_EQ(rows[2].rfind("lat_us,run,summary", 0), 0u);
  EXPECT_EQ(rows[3].rfind("lat_us,all,summary", 0), 0u);
  EXPECT_EQ(rows[4].rfind("z_total,p0,counter", 0), 0u);
  EXPECT_EQ(rows[5].rfind("z_total,p1,counter", 0), 0u);
  EXPECT_EQ(rows[6], "z_total,all,counter,,3,,,,,");
}

// ---------------------------------------------------------------------------
// A minimal JSON parser — just enough to round-trip the Chrome trace format
// (arrays, objects, strings with \-escapes, numbers, booleans).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type =
      Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '[') return array(out);
    if (c == '{') return object(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return string(out.str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return number(out);
  }
  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!value(item)) return false;
      out.items.push_back(std::move(item));
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }
  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      std::string key;
      skip_ws();
      if (!string(key)) return false;
      if (!consume(':')) return false;
      JsonValue item;
      if (!value(item)) return false;
      out.fields.emplace(std::move(key), std::move(item));
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        out.push_back(s_[pos_++]);
      } else {
        out.push_back(c);
      }
    }
    return false;
  }
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = JsonValue::Type::kNumber;
    out.number = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Simulated runs through the full tee.

SimRunResult run_fig1(RunTelemetry& telemetry, ProtocolKind kind) {
  const ConstantLatency latency(sim_us(10));
  const auto choreo = paper::make_fig1_run2();
  SimRunConfig cfg;
  cfg.kind = kind;
  cfg.n_procs = paper::kH1Procs;
  cfg.n_vars = paper::kH1Vars;
  cfg.latency = &latency;
  cfg.latency_override = choreo.latency_override;
  cfg.telemetry = &telemetry;
  return run_sim(cfg, choreo.scripts);
}

TEST(TelemetrySim, Fig1RunHasExactlyTheNecessaryDelay) {
  RunTelemetry telemetry(paper::kH1Procs);
  const auto result = run_fig1(telemetry, ProtocolKind::kOptP);
  ASSERT_TRUE(result.settled);

  const MetricsRegistry& reg = telemetry.metrics();
  // The paper's Figure 1 run (2): exactly one necessary delay, at p3.
  EXPECT_EQ(reg.counter_total(metric::kAppliesDelayed), 1u);
  const Summary delay = reg.merged_summary(metric::kApplyDelay);
  ASSERT_EQ(delay.count(), 1u);
  EXPECT_GT(delay.mean(), 0.0);
  // The enabling set lacked exactly one write: w1(x1)a (Table 1).
  const Summary deficit = reg.merged_summary(metric::kEnablingDeficit);
  ASSERT_EQ(deficit.count(), 1u);
  EXPECT_DOUBLE_EQ(deficit.mean(), 1.0);
  // The buffer held one message at peak.
  EXPECT_EQ(reg.gauge_max(metric::kPendingDepth), 1u);

  // Counters line up with the independently recorded run.
  EXPECT_EQ(reg.counter_total(metric::kNetMessages), result.net.messages_sent);
  EXPECT_EQ(reg.counter_total(metric::kNetBytes), result.net.bytes_sent);
  EXPECT_EQ(reg.counter_total(metric::kWritesIssued),
            result.recorder->history().writes().size());
}

TEST(TelemetrySim, RegistryNamesAreDocumented) {
  // Every name a full-featured run registers must be in the canonical
  // dsm::metric list (and therefore in docs/OBSERVABILITY.md's catalogue).
  const std::set<std::string> documented = {
      metric::kWritesIssued,      metric::kReadsIssued,
      metric::kUpdatesSent,       metric::kUpdatesReceived,
      metric::kApplies,           metric::kAppliesDelayed,
      metric::kApplyDelay,        metric::kEnablingDeficit,
      metric::kPendingDepth,      metric::kSkips,
      metric::kMetaBytes,         metric::kCrashes,
      metric::kRestarts,          metric::kCheckpoints,
      metric::kCheckpointBytes,   metric::kArqData,
      metric::kArqRetransmissions, metric::kArqAcks,
      metric::kArqDuplicates,     metric::kArqAbandoned,
      metric::kArqRto,            metric::kRecoveryRequests,
      metric::kRecoveryWrites,    metric::kRecoveryBytes,
      metric::kNetMessages,       metric::kNetBytes,
      metric::kNetDropped,        metric::kNetDuplicated,
      metric::kNetPartitionDropped, metric::kNetCrashDropped,
  };

  // A crash + drop run touches every layer: tee, hooks, and all the folds.
  RunTelemetry telemetry(3);
  WorkloadSpec spec;
  spec.n_procs = 3;
  spec.n_vars = 4;
  spec.ops_per_proc = 30;
  spec.seed = 11;
  const auto latency = make_latency(LatencyKind::kUniform, sim_us(300), 0.8, 7);
  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kOptP;
  cfg.n_procs = spec.n_procs;
  cfg.n_vars = spec.n_vars;
  cfg.latency = latency.get();
  cfg.fault.drop = 0.05;
  cfg.fault.seed = 99;
  cfg.crash.events.push_back(CrashEvent{1, sim_ms(3), sim_ms(9)});
  cfg.telemetry = &telemetry;
  const auto result = run_sim(cfg, generate_workload(spec));
  ASSERT_TRUE(result.settled);

  for (const std::string& name : telemetry.metrics().names()) {
    EXPECT_TRUE(documented.count(name) != 0)
        << "undocumented metric: " << name;
  }
  // And the crash layer really registered.
  EXPECT_EQ(telemetry.metrics().counter_total(metric::kCrashes), 1u);
  EXPECT_EQ(telemetry.metrics().counter_total(metric::kRestarts), 1u);
  EXPECT_GT(telemetry.metrics().counter_total(metric::kCheckpoints), 0u);
}

TEST(TelemetrySim, ChromeTraceRoundTrips) {
  RunTelemetry telemetry(paper::kH1Procs, RunTelemetry::Trace::kKeep);
  const auto result = run_fig1(telemetry, ProtocolKind::kOptP);
  ASSERT_TRUE(result.settled);

  const std::string json = telemetry.chrome_trace();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).parse(root)) << json;
  ASSERT_EQ(root.type, JsonValue::Type::kArray);
  ASSERT_FALSE(root.items.empty());

  std::size_t metadata = 0;
  std::size_t slices = 0;
  for (const JsonValue& e : root.items) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    ASSERT_TRUE(e.fields.count("name"));
    ASSERT_TRUE(e.fields.count("ph"));
    ASSERT_TRUE(e.fields.count("pid"));
    const std::string& ph = e.fields.at("ph").str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_TRUE(e.fields.count("ts"));
    if (ph == "X") {
      ++slices;
      ASSERT_TRUE(e.fields.count("dur"));
      EXPECT_GT(e.fields.at("dur").number, 0.0);
      EXPECT_NE(e.fields.at("name").str.find("delayed"), std::string::npos);
    }
  }
  EXPECT_EQ(metadata, paper::kH1Procs);  // one process_name record per proc
  EXPECT_EQ(slices, 1u);                 // the one delayed apply
}

TEST(TelemetrySim, TraceCsvHasHeaderAndAllEvents) {
  RunTelemetry telemetry(paper::kH1Procs, RunTelemetry::Trace::kKeep);
  const auto result = run_fig1(telemetry, ProtocolKind::kOptP);
  ASSERT_TRUE(result.settled);
  const std::string csv = telemetry.trace_csv();
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "kind,proc,time,write,var,value,delayed,bytes,clock");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, telemetry.trace().size());
}

TEST(TelemetrySim, TraceIsKeptOnlyWhenAskedAndMetricsDoNotDependOnIt) {
  RunTelemetry plain(paper::kH1Procs);
  RunTelemetry traced(paper::kH1Procs, RunTelemetry::Trace::kKeep);
  ASSERT_TRUE(run_fig1(plain, ProtocolKind::kOptP).settled);
  ASSERT_TRUE(run_fig1(traced, ProtocolKind::kOptP).settled);
  // Without a trace there is no buffer to build events for.
  EXPECT_FALSE(plain.keeps_trace());
  EXPECT_DEATH((void)plain.trace(), "no trace was asked for");
  EXPECT_TRUE(traced.keeps_trace());
  EXPECT_GT(traced.trace().size(), 0u);
  EXPECT_EQ(plain.metrics_csv(), traced.metrics_csv());
}

// ---------------------------------------------------------------------------
// Golden file: the Figure 1 run's metrics CSV, byte for byte.  The fig1
// choreography realizes Ĥ₁ with the one delay Table 1 predicts (the missing
// enabling write w1(x1)a), so pinning this file pins the apply-delay
// accounting end to end.  Regenerate after an intentional change (from the
// repo root) with:  ./build/tools/optcm run --protocol optp --script fig1
//                       --metrics-out tests/golden/h1_optp_metrics.csv

TEST(TelemetryGolden, Fig1OptPMetricsMatchGoldenFile) {
  RunTelemetry telemetry(paper::kH1Procs);
  const auto result = run_fig1(telemetry, ProtocolKind::kOptP);
  ASSERT_TRUE(result.settled);
  const std::string actual = telemetry.metrics_csv();

  const std::string path =
      std::string(OPTCM_SOURCE_DIR) + "/tests/golden/h1_optp_metrics.csv";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str());
}

// ---------------------------------------------------------------------------
// The tee's receipt bookkeeping against the plain receipt-time map it keeps
// in a slot and a spill map: apply_delay_us must read the same for writes
// buffered out of order, duplicate receipts, skips, immediate applies and
// applies with no receipt on record.

TEST(TelemetryTee, ApplyDelayMatchesAReceiptTimeMapModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    RunTelemetry telemetry(2);
    std::uint64_t clock = 0;
    telemetry.set_clock([&clock] { return clock; });
    ProtocolObserver downstream;
    ProtocolObserver& tee = telemetry.observe_through(downstream);
    std::unordered_map<WriteId, std::uint64_t> receipt_at;
    Summary want;
    Rng rng(seed);
    for (int step = 0; step < 5000; ++step) {
      clock += rng.below(50);
      const WriteId w{1, 1 + rng.below(24)};
      const std::uint64_t op = rng.below(10);
      if (op < 5) {
        WriteUpdate m;
        m.sender = w.proc;
        m.write_seq = w.seq;
        tee.on_receipt(0, m);
        receipt_at[w] = clock;
      } else if (op < 9) {
        const bool delayed = rng.below(2) == 0;
        tee.on_apply(0, w, delayed);
        const auto it = receipt_at.find(w);
        if (delayed) {
          want.add(static_cast<double>(
              clock - (it == receipt_at.end() ? clock : it->second)));
        }
        if (it != receipt_at.end()) receipt_at.erase(it);
      } else {
        tee.on_skip(0, w, WriteId{1, w.seq + 1});
        receipt_at.erase(w);
      }
    }
    const Summary& got = telemetry.metrics().summary(0, metric::kApplyDelay);
    ASSERT_EQ(got.count(), want.count());
    ASSERT_GT(want.count(), 0u);
    EXPECT_EQ(got.total(), want.total());
    const auto n = static_cast<double>(want.count());
    for (std::size_t k = 1; k <= want.count(); ++k) {
      const double q = static_cast<double>(k) / n;
      ASSERT_EQ(got.quantile(q), want.quantile(q)) << "rank " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Threaded cluster: the tee is thread-safe and per-node ordering holds.

TEST(TelemetryCluster, PerNodeEventTimesAreMonotone) {
  constexpr std::size_t kProcs = 4;
  constexpr int kOpsPerProc = 40;
  RunTelemetry telemetry(kProcs, RunTelemetry::Trace::kKeep);
  {
    ThreadCluster::Config config;
    config.kind = ProtocolKind::kOptP;
    config.n_procs = kProcs;
    config.n_vars = 4;
    config.max_jitter_us = 150;
    config.seed = 5;
    config.telemetry = &telemetry;
    ThreadCluster cluster(config);

    std::vector<std::thread> clients;
    for (ProcessId p = 0; p < kProcs; ++p) {
      clients.emplace_back([&cluster, p] {
        for (int i = 0; i < kOpsPerProc; ++i) {
          const auto u = static_cast<std::uint64_t>(i);
          cluster.write(p, static_cast<VarId>(u % 4),
                        static_cast<Value>(u * 10 + p));
          (void)cluster.read(p, static_cast<VarId>((u + 1) % 4));
        }
      });
    }
    for (auto& c : clients) c.join();
    ASSERT_TRUE(cluster.await_quiescence(std::chrono::seconds(30)));
    cluster.shutdown();
  }

  // Every node applied every write exactly once.
  const MetricsRegistry& reg = telemetry.metrics();
  EXPECT_EQ(reg.counter_total(metric::kWritesIssued), kProcs * kOpsPerProc);
  EXPECT_EQ(reg.counter_total(metric::kApplies),
            kProcs * kProcs * kOpsPerProc);
  EXPECT_EQ(reg.counter_total(metric::kReadsIssued), kProcs * kOpsPerProc);

  // Per-node trace order: each node's events carry non-decreasing times
  // (events from one node are recorded under its mutex, in program order).
  const auto events = telemetry.trace().events();
  std::vector<std::uint64_t> last(kProcs, 0);
  for (const TraceEvent& e : events) {
    ASSERT_LT(e.at, kProcs);
    EXPECT_GE(e.time, last[e.at]);
    last[e.at] = e.time;
  }

  // The ns clock detached at shutdown; exports still work afterwards.
  const std::string json = telemetry.chrome_trace(1e-3);
  JsonValue root;
  EXPECT_TRUE(JsonParser(json).parse(root));
}

}  // namespace
}  // namespace dsm
