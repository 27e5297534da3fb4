// micro_core — google-benchmark microbenchmarks of the hot paths (M1 in
// DESIGN.md): vector-clock algebra, codec round-trips, run-log appends, the
// ↦co oracle, the consistency checker, protocol op latency, drain machinery
// and end-to-end simulation throughput.
//
// `micro_core --bench-json <path>` additionally writes the BENCH_core.json
// baseline (docs/PERF.md): protocol op throughput, before/after apply
// throughput and drain work on two drain-heavy cells (indexed drain vs the
// retained reference linear drain), and the bytes copied per broadcast.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "dsm/codec/message.h"
#include "dsm/history/checker.h"
#include "dsm/protocols/optp.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/vc/vector_clock.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"

namespace {

using namespace dsm;

// ------------------------------------------------------------ vector clock

void BM_VectorClockMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  VectorClock a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.below(1000);
    b[i] = rng.below(1000);
  }
  for (auto _ : state) {
    VectorClock c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_VectorClockMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_VectorClockCompare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  VectorClock a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.below(4);
    b[i] = rng.below(4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_VectorClockCompare)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// ------------------------------------------------------------------ codec

void BM_WriteUpdateEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  WriteUpdate m;
  m.sender = 3;
  m.var = 7;
  m.value = 123456;
  m.write_seq = 42;
  VectorClock clock(n);
  for (std::size_t i = 0; i < n; ++i) clock[i] = 100 + i;
  m.clock = clock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_message(Message{m}));
  }
  state.SetLabel(std::to_string(encode_message(Message{m}).size()) + " bytes");
}
BENCHMARK(BM_WriteUpdateEncode)->Arg(4)->Arg(16)->Arg(64);

void BM_WriteUpdateDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  WriteUpdate m;
  m.sender = 3;
  m.write_seq = 42;
  m.clock = VectorClock(n);
  const auto bytes = encode_message(Message{m});
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_message(bytes));
  }
}
BENCHMARK(BM_WriteUpdateDecode)->Arg(4)->Arg(16)->Arg(64);

// ------------------------------------------------------------- recorder

/// One record appended to a node's run log (RunRecorder), in ns per event:
/// a send or a receipt carrying an n-component clock, an apply, and a
/// register write (its history record).  Values are proc-rounds shaped:
/// small clock entries and write seqs, µs timestamps.  The recorder is
/// replaced every 2^12 events, off the clock, so its log and history stay
/// cache-sized and the allocator's large-block policy stays out of it.
void BM_RecorderEvent(benchmark::State& state) {
  enum Kind : std::int64_t { kSend, kReceipt, kApply, kRegisterOp };
  static constexpr const char* kNames[] = {"send", "receipt", "apply",
                                           "register op"};
  const auto kind = static_cast<Kind>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  WriteUpdate m;
  m.sender = 1;
  m.var = 5;
  m.value = 7342;
  m.write_seq = 912;
  m.clock = VectorClock(n);
  for (std::size_t i = 0; i < n; ++i) m.clock[i] = 900 + 3 * i;
  std::uint64_t now = 1'700'000;
  const auto fresh = [&now, n] {
    return std::make_unique<RunRecorder>(std::max<std::size_t>(n, 3), 16,
                                         [&now] { return now += 3; });
  };
  auto rec = fresh();
  std::uint64_t events = 0;
  for (auto _ : state) {
    switch (kind) {
      case kSend: rec->on_send(0, m); break;
      case kReceipt: rec->on_receipt(2, m); break;
      case kApply: rec->on_apply(2, WriteId{1, m.write_seq}, false); break;
      case kRegisterOp: rec->record_write(0, 5, 7342); break;
    }
    benchmark::DoNotOptimize(rec.get());
    benchmark::ClobberMemory();
    if (++events % (1u << 12) == 0) {
      state.PauseTiming();
      rec = fresh();
      state.ResumeTiming();
    }
  }
  state.SetLabel(kind <= kReceipt ? std::string(kNames[kind]) + " n=" +
                                        std::to_string(n)
                                  : kNames[kind]);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RecorderEvent)
    ->ArgNames({"kind", "n"})
    ->Args({0, 3})->Args({0, 16})->Args({0, 64})
    ->Args({1, 3})->Args({1, 16})->Args({1, 64})
    ->Args({2, 0})->Args({3, 0});

// -------------------------------------------------- history / checker -----

GlobalHistory random_history(std::size_t n_procs, std::size_t ops) {
  GlobalHistory h(n_procs, 8);
  Rng rng(7);
  std::vector<std::vector<std::pair<WriteId, Value>>> last(8);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto p = static_cast<ProcessId>(rng.below(n_procs));
    const auto x = static_cast<VarId>(rng.below(8));
    if (rng.chance(0.5) || last[x].empty()) {
      const auto v = static_cast<Value>(i);
      const WriteId w = h.add_write(p, x, v);
      last[x] = {{w, v}};
    } else {
      const auto& [w, v] = last[x].back();
      h.add_read(p, x, v, w);
    }
  }
  return h;
}

void BM_CoRelationBuild(benchmark::State& state) {
  const auto h = random_history(6, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoRelation::build(h));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CoRelationBuild)
    ->Arg(100)->Arg(400)->Arg(1600)->Arg(100'000)->Complexity(benchmark::oN);

void BM_ConsistencyCheck(benchmark::State& state) {
  const auto h = random_history(6, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConsistencyChecker::check(h));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConsistencyCheck)
    ->Arg(100)->Arg(400)->Arg(1600)->Arg(100'000)->Complexity(benchmark::oN);

// --------------------------------------------------------- protocol ops ---

class NullEndpoint final : public Endpoint {
 public:
  void broadcast(Payload bytes) override { benchmark::DoNotOptimize(bytes); }
  void send(ProcessId, Payload bytes) override {
    benchmark::DoNotOptimize(bytes);
  }
};

void BM_OptPWrite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NullEndpoint endpoint;
  ProtocolObserver observer;
  OptP proto(0, n, 8, endpoint, observer);
  VarId x = 0;
  for (auto _ : state) {
    proto.write(x, 42);
    x = (x + 1) % 8;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OptPWrite)->Arg(4)->Arg(16)->Arg(64);

void BM_OptPRead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NullEndpoint endpoint;
  ProtocolObserver observer;
  OptP proto(0, n, 8, endpoint, observer);
  proto.write(0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto.read(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OptPRead)->Arg(4)->Arg(16)->Arg(64);

// -------------------------------------------------- end-to-end simulation --

void BM_FullSimRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  WorkloadSpec spec;
  spec.n_procs = n;
  spec.n_vars = 8;
  spec.ops_per_proc = 50;
  spec.write_fraction = 0.5;
  spec.seed = 9;
  const auto scripts = generate_workload(spec);
  const auto latency = make_latency(LatencyKind::kUniform, sim_us(300), 1.0, 5);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    SimRunConfig config;
    config.kind = ProtocolKind::kOptP;
    config.n_procs = n;
    config.n_vars = 8;
    config.latency = latency.get();
    const auto result = run_sim(config, scripts);
    benchmark::DoNotOptimize(result);
    ops += n * 50;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel("simulated ops/s");
}
BENCHMARK(BM_FullSimRun)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- drain cascade ----

/// Capture a writer's encoded broadcasts for replay.
class RecordingEndpoint final : public Endpoint {
 public:
  void broadcast(Payload bytes) override { sent.push_back(*bytes); }
  void send(ProcessId, Payload bytes) override { sent.push_back(*bytes); }
  std::vector<std::vector<std::uint8_t>> sent;
};

/// The adversarial drain schedule (docs/PERF.md): K dependent writes arrive
/// newest-first, so K−1 buffer and the oldest enables the whole chain at
/// once.  The reference linear drain restarts its scan after every apply —
/// ~K²/2 applicability tests; the indexed drain does O(K) work.  Returns the
/// receiver after the cascade so callers can read its stats.
void feed_cascade(OptP& receiver, const std::vector<std::vector<std::uint8_t>>& msgs) {
  for (std::size_t i = msgs.size(); i-- > 1;) receiver.on_message(0, msgs[i]);
  receiver.on_message(0, msgs[0]);
}

void BM_DrainCascade(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const bool reference = state.range(1) != 0;
  RecordingEndpoint tx;
  ProtocolObserver observer;
  OptP writer(0, 2, 1, tx, observer);
  for (std::size_t i = 0; i < k; ++i) writer.write(0, static_cast<Value>(i));
  NullEndpoint rx;
  for (auto _ : state) {
    OptP receiver(1, 2, 1, rx, observer);
    receiver.set_reference_drain(reference);
    feed_cascade(receiver, tx.sent);
    benchmark::DoNotOptimize(receiver);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
  state.SetLabel(reference ? "reference drain" : "indexed drain");
}
BENCHMARK(BM_DrainCascade)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- BENCH_core.json measurements --

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct DrainMeasure {
  double wall_ms = 0;
  std::uint64_t applies = 0;
  std::uint64_t drain_scans = 0;
  std::uint64_t purges_avoided = 0;

  [[nodiscard]] double applies_per_sec() const {
    return wall_ms <= 0 ? 0 : 1000.0 * static_cast<double>(applies) / wall_ms;
  }
  [[nodiscard]] double scans_per_apply() const {
    return applies == 0
               ? 0
               : static_cast<double>(drain_scans) / static_cast<double>(applies);
  }
  [[nodiscard]] bench::JsonObject json() const {
    bench::JsonObject o;
    o.num("wall_ms", wall_ms)
        .num("applies", applies)
        .num("applies_per_sec", applies_per_sec())
        .num("drain_scans", drain_scans)
        .num("drain_scans_per_apply", scans_per_apply())
        .num("purges_avoided", purges_avoided);
    return o;
  }
};

/// Best-of-`reps` cascade timing (best-of suppresses scheduler noise; the
/// checked-in baseline should be reproducible, not pessimistic).
DrainMeasure measure_cascade(std::size_t k, bool reference, int reps = 3) {
  RecordingEndpoint tx;
  ProtocolObserver observer;
  OptP writer(0, 2, 1, tx, observer);
  for (std::size_t i = 0; i < k; ++i) writer.write(0, static_cast<Value>(i));
  NullEndpoint rx;
  DrainMeasure best;
  for (int rep = 0; rep < reps; ++rep) {
    OptP receiver(1, 2, 1, rx, observer);
    receiver.set_reference_drain(reference);
    const auto t0 = Clock::now();
    feed_cascade(receiver, tx.sent);
    const double wall = ms_since(t0);
    if (rep == 0 || wall < best.wall_ms) {
      best.wall_ms = wall;
      best.applies = receiver.stats().remote_applies;
      best.drain_scans = receiver.stats().drain_scans;
      best.purges_avoided = receiver.stats().purges_avoided;
    }
  }
  return best;
}

/// End-to-end drain-heavy simulation cell: n=16, write-heavy, 15% datagram
/// loss through the ARQ layer — RTO-length delivery gaps manufacture deep
/// pending buffers (the exp_delays/exp_loss high-loss regime).
DrainMeasure measure_sim_cell(bool reference, int reps = 3) {
  WorkloadSpec spec;
  spec.n_procs = 16;
  spec.n_vars = 8;
  spec.ops_per_proc = 150;
  spec.write_fraction = 0.8;
  spec.mean_gap = sim_us(200);
  spec.seed = 11;
  const auto scripts = generate_workload(spec);
  const auto latency = make_latency(LatencyKind::kUniform, sim_us(400), 0.8, 7);
  DrainMeasure best;
  for (int rep = 0; rep < reps; ++rep) {
    SimRunConfig cfg;
    cfg.kind = ProtocolKind::kOptP;
    cfg.n_procs = spec.n_procs;
    cfg.n_vars = spec.n_vars;
    cfg.latency = latency.get();
    cfg.fault.drop = 0.15;
    cfg.fault.seed = 5;
    cfg.arq.rto = sim_ms(2);
    cfg.protocol_config.reference_drain = reference;
    const auto t0 = Clock::now();
    const auto result = run_sim(cfg, scripts);
    const double wall = ms_since(t0);
    DrainMeasure m;
    m.wall_ms = wall;
    for (const auto& s : result.stats) {
      m.applies += s.remote_applies;
      m.drain_scans += s.drain_scans;
      m.purges_avoided += s.purges_avoided;
    }
    if (rep == 0 || wall < best.wall_ms) best = m;
  }
  return best;
}

bool write_core_json(const std::string& path) {
  using bench::JsonObject;
  JsonObject doc;
  doc.str("schema", "optcm-bench-core-v1");
  doc.str("binary", "micro_core");

  // Protocol op throughput (NullEndpoint: protocol cost only, n = 16).
  {
    constexpr std::size_t kN = 16;
    constexpr std::uint64_t kOps = 200'000;
    NullEndpoint endpoint;
    ProtocolObserver observer;
    JsonObject ops;
    {
      OptP proto(0, kN, 8, endpoint, observer);
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kOps; ++i) {
        proto.write(static_cast<VarId>(i % 8), static_cast<Value>(i));
      }
      ops.num("optp_write_ops_per_sec_n16",
              1000.0 * static_cast<double>(kOps) / ms_since(t0));
    }
    {
      OptP proto(0, kN, 8, endpoint, observer);
      proto.write(0, 42);
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kOps; ++i) {
        benchmark::DoNotOptimize(proto.read(static_cast<VarId>(i % 8)));
      }
      ops.num("optp_read_ops_per_sec_n16",
              1000.0 * static_cast<double>(kOps) / ms_since(t0));
    }
    doc.obj("op_throughput", std::move(ops));
  }

  // Drain-heavy cells, before (reference linear drain) vs after (indexed).
  {
    const DrainMeasure ref = measure_cascade(2000, /*reference=*/true);
    const DrainMeasure idx = measure_cascade(2000, /*reference=*/false);
    JsonObject cell;
    cell.str("description",
             "2000-deep enable chain delivered newest-first (n=2); applies "
             "measured over buffering + cascade");
    cell.obj("before_reference_drain", ref.json());
    cell.obj("after_indexed_drain", idx.json());
    cell.num("apply_throughput_speedup",
             ref.applies_per_sec() <= 0
                 ? 0
                 : idx.applies_per_sec() / ref.applies_per_sec());
    doc.obj("drain_cascade_n2_k2000", std::move(cell));
  }
  {
    const DrainMeasure ref = measure_sim_cell(/*reference=*/true);
    const DrainMeasure idx = measure_sim_cell(/*reference=*/false);
    JsonObject cell;
    cell.str("description",
             "end-to-end sim: n=16, 150 ops/proc, 80% writes, 15% datagram "
             "loss via ARQ (exp_loss high-loss regime)");
    cell.obj("before_reference_drain", ref.json());
    cell.obj("after_indexed_drain", idx.json());
    cell.num("apply_throughput_speedup",
             ref.applies_per_sec() <= 0
                 ? 0
                 : idx.applies_per_sec() / ref.applies_per_sec());
    doc.obj("sim_loss_n16", std::move(cell));
  }

  // Bytes copied per broadcast: before encode-once the endpoint copied the
  // encoded update once per receiver; now one refcounted buffer is shared by
  // all n−1 receivers (and all ARQ retransmission queues).
  {
    constexpr std::size_t kN = 16;
    WriteUpdate m;
    m.sender = 0;
    m.write_seq = 42;
    m.var = 3;
    m.value = 7;
    m.clock = VectorClock(kN);
    for (std::size_t i = 0; i < kN; ++i) m.clock[i] = 100 + i;
    const std::uint64_t payload = encode_message(Message{m}).size();
    JsonObject b;
    b.num("n_procs", static_cast<std::uint64_t>(kN));
    b.num("encoded_update_bytes", payload);
    b.num("bytes_copied_per_broadcast_before", payload * (kN - 1));
    b.num("bytes_copied_per_broadcast_after", payload);
    b.num("copy_reduction_factor", static_cast<std::uint64_t>(kN - 1));
    doc.obj("broadcast_copies", std::move(b));
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string text = doc.render() + "\n";
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("bench json written to %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Claim --bench-json before google-benchmark sees argv (it rejects flags
  // it does not know).  Both "--bench-json=path" and "--bench-json path".
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--bench-json=", 13) == 0) {
      json_path = arg + 13;
      continue;
    }
    if (std::strcmp(arg, "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty() && !write_core_json(json_path)) return 1;
  return 0;
}
