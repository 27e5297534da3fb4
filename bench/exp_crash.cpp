// exp_crash — the fault sweep: crash/restart × partition length × drop rate
// (EXPERIMENTS.md E-crash; docs/FAULTS.md).
//
// Every surviving history must still be causally consistent, OptP must still
// show ZERO unnecessary delays (Theorem 4 — checkpoints never roll back an
// apply, so recovery cannot manufacture false causality), and every write
// must be applied at every process once crashes heal (Theorem 5 liveness,
// restored by ARQ retransmission: a restarted process's RESUME frame makes
// each peer resend its whole unacked window).  Those are hard requirements
// here, not table columns: a violation aborts the bench.
// Reported: recovery time and retransmission load.

#include "bench_util.h"

#include "dsm/common/contracts.h"

namespace {

using namespace dsm;

/// `crashes` staggered crash events round-robin across processes (never
/// process 0, so the partitioned island below is distinct machinery).
CrashPlan make_crash_plan(std::size_t crashes, std::size_t n_procs,
                          SimTime first_at, SimTime stagger, SimTime downtime) {
  CrashPlan plan;
  for (std::size_t i = 0; i < crashes; ++i) {
    CrashEvent e;
    e.p = static_cast<ProcessId>(1 + (i % (n_procs - 1)));
    e.at = first_at + static_cast<SimTime>(i) * stagger;
    e.restart_at = e.at + downtime;
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  if (!dsm::bench::init_bench_json(argc, argv)) return 2;
  using namespace dsm;
  using namespace dsm::bench;

  const std::vector<std::size_t> crash_counts = {0, 1, 3};
  const std::vector<SimTime> partition_lens = {0, sim_ms(15)};
  const std::vector<double> drop_rates = {0.0, 0.1};
  const std::vector<std::uint64_t> seeds = {311, 312, 313};

  Table table({"crashes", "part (ms)", "drop", "protocol", "recover (ms)",
               "retx/1k data", "crash drops", "delayed/1k", "unnecessary/1k"});

  for (const std::size_t crashes : crash_counts) {
    for (const SimTime part_len : partition_lens) {
      for (const double drop : drop_rates) {
        for (const auto kind : {ProtocolKind::kOptP, ProtocolKind::kAnbkh}) {
          CellResultAccumulator acc;
          double recover_ms_sum = 0;
          std::size_t recover_n = 0;
          std::uint64_t crash_drops = 0;
          double retx_rate_sum = 0;
          for (const auto seed : seeds) {
            WorkloadSpec spec;
            spec.n_procs = 5;
            spec.n_vars = 6;
            spec.ops_per_proc = 50;
            spec.write_fraction = 0.5;
            spec.mean_gap = sim_us(400);
            spec.seed = seed;
            const auto latency = make_latency(LatencyKind::kUniform,
                                              sim_us(400), 0.8, seed ^ 0xD0);

            SimRunConfig cfg;
            cfg.kind = kind;
            cfg.n_procs = spec.n_procs;
            cfg.n_vars = spec.n_vars;
            cfg.latency = latency.get();
            cfg.fault.drop = drop;
            cfg.fault.seed = seed ^ 0xFA;
            if (part_len > 0) {
              // Cut process 0 off from everyone mid-run; heal before the
              // settle phase ends.
              cfg.fault.partitions.clear();
              cfg.fault.split({0}, spec.n_procs, sim_ms(8), sim_ms(8) + part_len);
            }
            cfg.crash = make_crash_plan(crashes, spec.n_procs, sim_ms(5),
                                        sim_ms(12), sim_ms(8));
            cfg.arq.rto = sim_ms(2);
            RunTelemetry telemetry(spec.n_procs);
            cfg.telemetry = &telemetry;

            const auto result = run_sim(cfg, generate_workload(spec));
            const auto audit = OptimalityAuditor::audit(*result.recorder);

            // Hard acceptance criteria for the whole sweep.
            DSM_REQUIRE(result.settled);
            DSM_REQUIRE(result.reliable.abandoned == 0);
            DSM_REQUIRE(
                ConsistencyChecker::check(result.recorder->history())
                    .consistent());
            DSM_REQUIRE(audit.safe());
            DSM_REQUIRE(audit.live());
            if (kind == ProtocolKind::kOptP) {
              DSM_REQUIRE(audit.total_unnecessary() == 0);
            }
            DSM_REQUIRE(result.recoveries.size() == crashes);
            for (const RecoveryRecord& rec : result.recoveries) {
              DSM_REQUIRE(rec.recovered);
              recover_ms_sum += static_cast<double>(rec.recovered_at -
                                                    rec.restarted_at) /
                                1000.0;
              ++recover_n;
            }

            CellResult cell;
            cell.writes = result.recorder->history().writes().size();
            cell.remote_messages = audit.total_remote();
            cell.delayed = audit.total_delayed();
            cell.necessary = audit.total_necessary();
            cell.unnecessary = audit.total_unnecessary();
            cell.end_time = result.end_time;
            acc.add(cell);
            // Fault columns come from the metrics registry, same counters as
            // `optcm run --metrics-out` (docs/OBSERVABILITY.md).
            const MetricsRegistry& reg = telemetry.metrics();
            crash_drops += reg.counter_total(metric::kNetCrashDropped);
            const std::uint64_t arq_data = reg.counter_total(metric::kArqData);
            retx_rate_sum +=
                arq_data == 0
                    ? 0.0
                    : 1000.0 *
                          static_cast<double>(reg.counter_total(
                              metric::kArqRetransmissions)) /
                          static_cast<double>(arq_data);
          }
          const auto c = acc.mean();
          const double n_seeds = static_cast<double>(seeds.size());
          table.add(static_cast<double>(crashes),
                    static_cast<double>(part_len) / 1000.0, drop,
                    to_string(kind),
                    recover_n == 0 ? 0.0
                                   : recover_ms_sum /
                                         static_cast<double>(recover_n),
                    retx_rate_sum / n_seeds,
                    static_cast<double>(crash_drops) / n_seeds, c.delay_rate(),
                    c.unnecessary_rate());
        }
      }
    }
  }
  bench::emit("exp_crash_sweep", table);

  std::printf(
      "\nAll cells passed the hard checks: causal consistency, OptP\n"
      "unnecessary delays == 0 (Theorem 4 survives recovery because\n"
      "checkpoints never roll back an apply), liveness (every write applied\n"
      "everywhere after heal/restart — Theorem 5), and zero ARQ\n"
      "abandonment.  Recovery time tracks downtime + one resume round trip;\n"
      "retransmission load grows with drop rate and partition length.\n");
  return dsm::bench::finish_bench_json("exp_crash") ? 0 : 1;
}
