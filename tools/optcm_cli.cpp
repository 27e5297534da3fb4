// optcm — command-line driver for the library: `optcm <command> [flags]`.
//
// The commands are listed once in kCommands and every flag once in kFlags;
// the usage text printed on a bad command line is built from both.  A
// command line is parsed and validated in full — the table's types, ranges,
// choices and partners, then the command's own cross-flag checks — before
// any work runs; `--dry-run` stops right there with exit code 0.

#include "optcm_cli.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dsm/audit/auditor.h"
#include "dsm/audit/enabling_sets.h"
#include "dsm/audit/trace_io.h"
#include "dsm/audit/trace_render.h"
#include "dsm/common/flags.h"
#include "dsm/history/causality_graph.h"
#include "dsm/history/checker.h"
#include "dsm/metrics/table.h"
#include "dsm/net/merge.h"
#include "dsm/net/nemesis.h"
#include "dsm/net/process_cluster.h"
#include "dsm/objects/object_store.h"
#include "dsm/objects/schema.h"
#include "dsm/objects/spec_checker.h"
#include "dsm/storage/wal.h"
#include "dsm/telemetry/telemetry.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/objects_demo.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"

namespace dsm::cli {
namespace {

// Subcommand bits, in kCommands order.
enum : unsigned {
  kRun = 1u << 0,
  kCompare = 1u << 1,
  kFaults = 1u << 2,
  kPaper = 1u << 3,
  kReplay = 1u << 4,
  kServe = 1u << 5,
  kDrive = 1u << 6,
  kSim = kRun | kCompare | kFaults,
};

using T = FlagType;

constexpr FlagSpec kFlags[] = {
    // -- stack shape ---------------------------------------------------------
    {.name = "protocol", .type = T::kChoice,
     .commands = kRun | kFaults | kServe | kDrive,
     .value = "optp|optp-ws|anbkh|anbkh-ws|token-ws|optp-conv|optp-sharded",
     .fallback = "optp", .help = "faults without it runs optp and anbkh"},
    {.name = "procs", .type = T::kInt, .commands = kSim, .value = "N",
     .fallback = "4", .min = 1, .help = "number of processes"},
    {.name = "vars", .type = T::kInt, .commands = kSim | kServe, .value = "M",
     .fallback = "8", .min = 1, .help = "number of variables"},
    // -- generated workload --------------------------------------------------
    {.name = "ops", .type = T::kInt, .commands = kSim, .value = "K",
     .fallback = "100", .min = 0, .help = "operations per process"},
    {.name = "write-fraction", .type = T::kReal, .commands = kSim,
     .value = "F", .fallback = "0.5", .min = 0, .max = 1},
    {.name = "pattern", .type = T::kChoice, .commands = kSim,
     .value = "uniform|zipf|partitioned|hotspot", .fallback = "uniform"},
    {.name = "zipf", .type = T::kReal, .commands = kSim, .value = "THETA",
     .min = 0, .help = "--pattern=zipf with exponent THETA (else 0.9)"},
    {.name = "hotspot", .type = T::kReal, .commands = kSim, .value = "F",
     .fallback = "0.2", .min = 0, .max = 1,
     .help = "--pattern=hotspot: probability of hitting x0"},
    {.name = "gap", .type = T::kInt, .commands = kSim, .value = "USEC",
     .fallback = "300", .min = 0, .help = "mean think time between ops"},
    {.name = "seed", .type = T::kInt, .commands = kSim, .value = "S",
     .fallback = "1", .min = 0},
    {.name = "latency", .type = T::kChoice, .commands = kSim,
     .value = "constant|uniform|exponential|lognormal",
     .fallback = "lognormal"},
    {.name = "scale", .type = T::kInt, .commands = kSim, .value = "USEC",
     .fallback = "400", .min = 1, .help = "median message latency"},
    {.name = "spread", .type = T::kReal, .commands = kSim, .value = "X",
     .fallback = "1.0", .min = 0},
    // -- simulated faults (docs/FAULTS.md; times in simulated µs) ------------
    {.name = "drop", .type = T::kReal, .commands = kSim, .value = "P",
     .fallback = "0", .min = 0, .max = 1,
     .help = "drop each message with probability P (ARQ restores it)"},
    {.name = "duplicate", .type = T::kReal, .commands = kSim, .value = "P",
     .fallback = "0", .min = 0, .max = 1,
     .help = "deliver each message twice with probability P"},
    {.name = "partition", .type = T::kText, .commands = kSim,
     .value = "START:DUR",
     .help = "cut process 0 off from everyone during [START, START+DUR)"},
    {.name = "crash", .type = T::kText, .commands = kSim,
     .value = "P@START:DUR[,...]",
     .help = "crash P at START, restart after DUR, recover by catch-up"},
    // -- run: scenario, typed objects (docs/OBJECTS.md), access maps ---------
    {.name = "script", .type = T::kChoice, .commands = kRun | kDrive,
     .value = "h1|fig1|fig3|objects",
     .help = "paper scenario or objects demo (drive: else h1; run: replaces "
             "the workload, its shape and latency)"},
    {.name = "objects", .type = T::kText, .commands = kRun, .value = "SPEC",
     .help = "register, counter, cas-register, log, set, or mixed"},
    {.name = "mix", .type = T::kText, .commands = kRun, .value = "R:W:C:A",
     .needs = "objects", .help = "typed op weights (else 6:2:1:1)"},
    {.name = "subscriptions", .type = T::kText, .commands = kRun | kDrive,
     .value = "SPEC", .excludes = "shards",
     .help = "optp-sharded map: full, disjoint:G, chained:K, or v:p,p;v:p,p"},
    {.name = "shards", .type = T::kInt, .commands = kRun | kDrive,
     .value = "G", .min = 1, .help = "--subscriptions=disjoint:G"},
    // -- run: outputs (docs/OBSERVABILITY.md) --------------------------------
    {.name = "trace", .commands = kRun, .help = "print the space-time diagram"},
    {.name = "history", .commands = kRun | kReplay},
    {.name = "sequences", .commands = kRun,
     .help = "print each process's observer-event sequence"},
    {.name = "export", .type = T::kText, .commands = kRun, .value = "FILE",
     .help = "JSONL trace for optcm replay"},
    {.name = "metrics-out", .type = T::kText, .commands = kRun,
     .value = "FILE", .help = "metrics registry as CSV"},
    {.name = "trace-out", .type = T::kText, .commands = kRun, .value = "FILE",
     .help = "Chrome trace_event JSON, or CSV when FILE ends in .csv"},
    {.name = "bench-json", .type = T::kText, .commands = kRun,
     .value = "FILE", .help = "the run's hot-path numbers as JSON"},
    // -- serve / drive: the TCP tier (docs/NETWORK.md, docs/DURABILITY.md) ---
    {.name = "id", .type = T::kInt, .commands = kServe, .value = "P",
     .fallback = "0", .min = 0, .help = "this process's index into --peers"},
    {.name = "peers", .type = T::kText, .commands = kServe,
     .value = "HOST:PORT,...", .help = "required: every address, in id order"},
    {.name = "listen", .type = T::kText, .commands = kServe,
     .value = "HOST:PORT", .help = "bind here instead of at peers[id]"},
    {.name = "recoverable", .commands = kServe | kDrive,
     .help = "replay filter + anti-entropy catch-up"},
    {.name = "state-dir", .type = T::kText, .commands = kServe | kDrive,
     .value = "DIR", .needs = "recoverable", .needs_in = kServe,
     .help = "durable WAL + snapshots (drive: implies --recoverable)"},
    {.name = "fsync", .type = T::kChoice, .commands = kServe | kDrive,
     .value = "none|interval|every", .fallback = "every",
     .needs = "state-dir|respawn|wal-group-commit"},
    {.name = "wal-group-commit", .commands = kServe | kDrive,
     .needs = "state-dir", .needs_in = kServe,
     .help = "one WAL fsync per NetLoop tick (docs/PERF.md)"},
    {.name = "spawn", .type = T::kInt, .commands = kDrive, .value = "N",
     .fallback = "3", .min = 1, .help = "the script's process count"},
    {.name = "time-scale", .type = T::kInt, .commands = kDrive, .value = "K",
     .fallback = "1000", .min = 1, .help = "multiply script delays"},
    {.name = "compare-sim", .commands = kDrive,
     .help = "require events byte-identical to the simulator (h1, objects)"},
    {.name = "kill-conn", .type = T::kText, .commands = kDrive,
     .value = "P:Q@MS", .help = "drop the TCP connection P->Q after MS ms"},
    {.name = "kill-host", .type = T::kText, .commands = kDrive,
     .value = "N[@MS]", .needs = "respawn",
     .help = "SIGKILL node N after MS ms (else 30)"},
    {.name = "respawn", .commands = kDrive, .needs = "kill-host",
     .help = "restart the killed node from its state dir"},
    {.name = "nemesis", .type = T::kText, .commands = kDrive, .value = "SPEC",
     .excludes = "kill-host",
     .help = "fault schedule, e.g. \"seed=7;drop=0.05;crash=0@40\""},
    {.name = "shards-per-proc", .type = T::kInt, .commands = kDrive,
     .value = "S", .fallback = "1", .min = 1,
     .help = "nodes per forked process (ring mesh inside)"},
    {.name = "dry-run", .help = "validate, then exit 0 without running"},
};

/// What a validated command line will do.
using Work = std::function<int()>;

/// Report why the command line is rejected; the caller returns the result.
[[gnu::format(printf, 1, 2)]] std::nullopt_t reject(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  return std::nullopt;
}

// -- refusals shared by several commands --------------------------------------

/// Typed objects ride only the protocols with an object seam.
bool supports_objects(ProtocolKind kind) {
  return kind == ProtocolKind::kOptP || kind == ProtocolKind::kAnbkh ||
         kind == ProtocolKind::kOptPSharded;
}

constexpr const char* kObjectsNeedProtocol =
    "typed objects require --protocol=optp, anbkh or optp-sharded "
    "(writing-semantics protocols skip superseded writes, which would drop "
    "mutations)";

/// Why `kind` cannot run under a crash plan, or null.
const char* crash_refusal(ProtocolKind kind) {
  if (kind == ProtocolKind::kTokenWs) {
    return "token-ws cannot run under a crash plan: a crashed token holder "
           "would require an election (see docs/FAULTS.md)";
  }
  if (kind == ProtocolKind::kOptPSharded) {
    return "optp-sharded cannot run under a crash plan: it is not a class-P "
           "buffering protocol, so the checkpoint/catch-up recovery stack "
           "does not apply (see docs/FAULTS.md)";
  }
  return nullptr;
}

/// A --script scenario: Ĥ₁ or the choreographed Fig. 1 / Fig. 3 runs (3
/// processes, 2 variables), or the typed-objects demo.
struct ScriptChoice {
  std::vector<Script> scripts;
  Network::LatencyOverride choreo;              ///< fig1/fig3 only
  std::shared_ptr<const ObjectSchema> schema;   ///< objects only
  std::size_t n_vars = paper::kH1Vars;
};

ScriptChoice load_script(const std::string& name) {
  ScriptChoice c;
  if (name == "fig1" || name == "fig3") {
    auto choreography =
        name == "fig1" ? paper::make_fig1_run2() : paper::make_fig3();
    c.scripts = std::move(choreography.scripts);
    c.choreo = std::move(choreography.latency_override);
  } else if (name == "objects") {
    c.scripts = make_objects_demo_scripts();
    c.schema = make_objects_demo_schema();
    c.n_vars = kObjectsDemoVars;
  } else {
    c.scripts = paper::make_h1_scripts();
  }
  return c;
}

/// Fixed scripts must stay inside the subscription map — the protocol would
/// otherwise abort on its contract check mid-run.  Reject at flag time.
bool scripts_within(const std::vector<Script>& scripts,
                    const SubscriptionMap& map) {
  for (ProcessId p = 0; p < scripts.size(); ++p) {
    for (const ScriptStep& step : scripts[p]) {
      if (!map.is_subscriber(step.var, p)) {
        reject("p%u accesses x%u outside the --subscriptions map (the script "
               "must stay inside the map)",
               static_cast<unsigned>(p), static_cast<unsigned>(step.var));
        return false;
      }
    }
  }
  return true;
}

/// --subscriptions / --shards against the final run shape.  Leaves `out`
/// null when neither was given (the protocol then defaults to a full map).
bool parse_subscription_flags(const FlagValues& f, ProtocolKind kind,
                         std::size_t n_procs, std::size_t n_vars,
                         std::shared_ptr<const SubscriptionMap>& out) {
  if (!f.has("subscriptions") && !f.has("shards")) return true;
  if (kind != ProtocolKind::kOptPSharded) {
    reject("--subscriptions/--shards require --protocol=optp-sharded");
    return false;
  }
  const std::string spec =
      f.has("shards") ? "disjoint:" + std::to_string(f.num<long long>("shards"))
                      : f.text("subscriptions");
  std::string error;
  auto map = SubscriptionMap::parse(spec, n_procs, n_vars, &error);
  if (!map) {
    reject("bad --subscriptions '%s': %s", spec.c_str(), error.c_str());
    return false;
  }
  out = std::make_shared<const SubscriptionMap>(std::move(*map));
  return true;
}

// -- the simulator commands: run, compare, faults -----------------------------

struct CommonOptions {
  WorkloadSpec spec;
  LatencyKind latency_kind = LatencyKind::kLogNormal;
  SimTime scale = sim_us(400);
  double spread = 1.0;
  FaultPlan fault;
  CrashPlan crash;
  /// optp-sharded only (--subscriptions/--shards); null = full map.
  std::shared_ptr<const SubscriptionMap> subscription;
  /// Typed objects (--objects / --script=objects); null = plain registers.
  std::shared_ptr<const ObjectSchema> objects;
};

/// "START:DUR" (µs) -> [start, end): DUR > 0 and START+DUR must fit.
bool parse_window(std::string_view text, SimTime& start, SimTime& end) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos) return false;
  const auto from = parse_u64(text.substr(0, colon));
  const auto dur = parse_u64(text.substr(colon + 1));
  if (!from || !dur || *dur == 0 ||
      *from > std::numeric_limits<SimTime>::max() - *dur) {
    return false;
  }
  start = *from;
  end = *from + *dur;
  return true;
}

/// "--partition=START:DUR" (µs): cut process 0 off from every other process
/// during [START, START+DUR).
bool parse_partition(const std::string& text, std::size_t n_procs,
                     FaultPlan& fault) {
  SimTime start = 0;
  SimTime end = 0;
  if (!parse_window(text, start, end)) return false;
  fault.split({0}, n_procs, start, end);
  return true;
}

/// "a,b,c" -> {"a","b","c"} (no escaping; addresses cannot contain commas).
std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// "--crash=P@START:DUR[,P@START:DUR...]" (µs).
bool parse_crash(const std::string& text, std::size_t n_procs,
                 CrashPlan& plan) {
  for (const std::string& item : split_commas(text)) {
    const auto at = item.find('@');
    if (at == std::string::npos) return false;
    const auto p = parse_u64(std::string_view(item).substr(0, at));
    SimTime start = 0;
    SimTime end = 0;
    if (!p || *p >= n_procs ||
        !parse_window(std::string_view(item).substr(at + 1), start, end)) {
      return false;
    }
    plan.events.push_back(CrashEvent{static_cast<ProcessId>(*p), start, end});
  }
  return plan.active();
}

AccessPattern parse_pattern(const std::string& name) {
  if (name == "zipf") return AccessPattern::kZipf;
  if (name == "partitioned") return AccessPattern::kPartitioned;
  if (name == "hotspot") return AccessPattern::kHotspot;
  return AccessPattern::kUniform;
}

LatencyKind parse_latency(const std::string& name) {
  if (name == "constant") return LatencyKind::kConstant;
  if (name == "uniform") return LatencyKind::kUniform;
  if (name == "exponential") return LatencyKind::kExponential;
  return LatencyKind::kLogNormal;
}

std::optional<CommonOptions> parse_common(const FlagValues& f) {
  CommonOptions o;
  o.spec.n_procs = f.num<std::size_t>("procs");
  o.spec.n_vars = f.num<std::size_t>("vars");
  o.spec.ops_per_proc = f.num<std::size_t>("ops");
  o.spec.write_fraction = f.num<double>("write-fraction");
  o.spec.pattern = parse_pattern(f.text("pattern"));
  if (f.has("zipf")) {
    o.spec.pattern = AccessPattern::kZipf;
    o.spec.zipf_s = f.num<double>("zipf");
  }
  o.spec.hotspot_fraction = f.num<double>("hotspot");
  o.spec.mean_gap = f.num<SimTime>("gap");
  o.spec.seed = f.num<std::uint64_t>("seed");
  o.latency_kind = parse_latency(f.text("latency"));
  o.scale = f.num<SimTime>("scale");
  o.spread = f.num<double>("spread");
  o.fault.drop = f.num<double>("drop");
  o.fault.duplicate = f.num<double>("duplicate");
  o.fault.seed = o.spec.seed ^ 0xFA;
  if (f.has("partition") &&
      !parse_partition(f.text("partition"), o.spec.n_procs, o.fault)) {
    return reject("bad --partition (want START:DUR, microseconds)");
  }
  if (f.has("crash") &&
      !parse_crash(f.text("crash"), o.spec.n_procs, o.crash)) {
    return reject("bad --crash (want P@START:DUR[,P@START:DUR...], "
                  "microseconds, P < procs)");
  }
  return o;
}

SimRunResult run_one(ProtocolKind kind, const CommonOptions& o,
                     RunTelemetry* telemetry = nullptr,
                     const std::vector<Script>* scripts = nullptr,
                     const Network::LatencyOverride* choreo = nullptr) {
  const auto latency =
      make_latency(o.latency_kind, o.scale, o.spread, o.spec.seed ^ 0xC11);
  SimRunConfig cfg;
  cfg.kind = kind;
  cfg.n_procs = o.spec.n_procs;
  cfg.n_vars = o.spec.n_vars;
  cfg.latency = latency.get();
  cfg.fault = o.fault;
  cfg.crash = o.crash;
  cfg.protocol_config.token_max_rounds =
      o.spec.ops_per_proc * o.spec.n_procs * 50 + 1000;
  cfg.protocol_config.subscription = o.subscription;
  cfg.protocol_config.objects = o.objects;
  cfg.telemetry = telemetry;
  if (choreo != nullptr) cfg.latency_override = *choreo;
  return run_sim(cfg, scripts != nullptr ? *scripts : generate_workload(o.spec));
}

/// `--bench-json` payload: the hot-path numbers of one run in the same
/// machine-readable shape the bench binaries emit (docs/PERF.md).
std::string bench_json_summary(ProtocolKind kind, const SimRunResult& result,
                               double wall_ms) {
  std::uint64_t applies = 0;
  std::uint64_t drain_scans = 0;
  std::uint64_t purges_avoided = 0;
  for (const ProtocolStats& s : result.stats) {
    applies += s.remote_applies;
    drain_scans += s.drain_scans;
    purges_avoided += s.purges_avoided;
  }
  const double scans_per_apply =
      applies == 0 ? 0.0
                   : static_cast<double>(drain_scans) /
                         static_cast<double>(applies);
  const double applies_per_sec =
      wall_ms <= 0 ? 0.0 : 1000.0 * static_cast<double>(applies) / wall_ms;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"schema\": \"optcm-run-v1\",\n"
                "  \"protocol\": \"%s\",\n"
                "  \"writes\": %llu,\n"
                "  \"operations\": %llu,\n"
                "  \"simulated_us\": %llu,\n"
                "  \"wall_ms\": %.3f,\n"
                "  \"remote_applies\": %llu,\n"
                "  \"applies_per_sec\": %.1f,\n"
                "  \"drain_scans\": %llu,\n"
                "  \"drain_scans_per_apply\": %.3f,\n"
                "  \"purges_avoided\": %llu,\n"
                "  \"net_messages\": %llu,\n"
                "  \"net_bytes\": %llu\n"
                "}\n",
                to_string(kind),
                static_cast<unsigned long long>(
                    result.recorder->history().writes().size()),
                static_cast<unsigned long long>(result.recorder->history().size()),
                static_cast<unsigned long long>(result.end_time), wall_ms,
                static_cast<unsigned long long>(applies), applies_per_sec,
                static_cast<unsigned long long>(drain_scans), scans_per_apply,
                static_cast<unsigned long long>(purges_avoided),
                static_cast<unsigned long long>(result.net.messages_sent),
                static_cast<unsigned long long>(result.net.bytes_sent));
  return buf;
}

/// Write `text` to `path`; reports and returns false on failure.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

void print_report(ProtocolKind kind, const SimRunResult& result,
                  const SubscriptionMap* subscription = nullptr,
                  const ObjectSchema* schema = nullptr,
                  RunTelemetry* telemetry = nullptr,
                  bool expect_convergence = false) {
  const auto audit = OptimalityAuditor::audit(
      result.recorder->history(), result.recorder->events(), subscription);
  // A typed schema swaps in the spec-driven checker; on an all-register
  // schema its verdicts are byte-identical to ConsistencyChecker's.
  const auto check =
      schema != nullptr
          ? SpecChecker::check(result.recorder->history(), *schema)
          : ConsistencyChecker::check(result.recorder->history());
  if (schema != nullptr && telemetry != nullptr) {
    telemetry->metrics()
        .counter(MetricsRegistry::kRunScope, metric::kCheckerLinearizations)
        .add(check.linearizations_explored);
  }

  Table table({"metric", "value"});
  table.add("protocol", to_string(kind));
  if (subscription != nullptr) {
    table.add("subscriptions", subscription->describe());
    table.add("mean subscribers/var", subscription->mean_size());
  }
  if (schema != nullptr) {
    table.add("objects", schema->str());
    table.add("linearizations explored", check.linearizations_explored);
    // Replica digests only witness convergence when the script choreographs
    // a total order (the demo's barriers); concurrent non-commuting
    // mutations legitimately leave replicas divergent under causal memory.
    if (expect_convergence && result.objects != nullptr) {
      bool converged = true;
      const std::uint64_t d0 = result.objects->replica_digest(0);
      for (ProcessId p = 1; p < result.recorder->history().n_procs(); ++p) {
        converged = converged && result.objects->replica_digest(p) == d0;
      }
      table.add("object replicas converged", converged ? "yes" : "NO");
    }
  }
  table.add("settled", result.settled ? "yes" : "NO");
  table.add("simulated time (ms)",
            static_cast<double>(result.end_time) / 1000.0);
  table.add("writes", result.recorder->history().writes().size());
  table.add("operations", result.recorder->history().size());
  table.add("network messages", result.net.messages_sent);
  table.add("network bytes", result.net.bytes_sent);
  table.add("remote write messages", audit.total_remote());
  table.add("delayed (Def. 3)", audit.total_delayed());
  table.add("necessary delays", audit.total_necessary());
  table.add("unnecessary delays (false causality)", audit.total_unnecessary());
  table.add("write-delay optimal run (Def. 5)",
            audit.write_delay_optimal() ? "yes" : "NO");
  table.add("safe (applies extend co)", audit.safe() ? "yes" : "NO");
  table.add("live (all writes applied/skipped)", audit.live() ? "yes" : "NO");
  table.add("causally consistent (Defs. 1-2)", check.consistent() ? "yes" : "NO");
  if (result.faults.dropped + result.faults.duplicated +
          result.faults.partition_dropped >
      0) {
    table.add("messages dropped", result.faults.dropped);
    table.add("messages duplicated", result.faults.duplicated);
    table.add("partition drops", result.faults.partition_dropped);
    table.add("retransmissions", result.reliable.retransmissions);
    table.add("dup deliveries suppressed", result.reliable.duplicates_suppressed);
    table.add("ARQ abandoned", result.reliable.abandoned);
  }
  if (!result.recoveries.empty()) {
    table.add("crashes", result.recoveries.size());
    table.add("crash drops", result.faults.crash_dropped);
    table.add("catch-up bytes", result.recovery.catch_up_bytes);
    table.add("writes recovered", result.recovery.writes_recovered);
    table.add("replays suppressed", result.replay_suppressed);
  }
  std::printf("%s", table.str().c_str());
  for (const RecoveryRecord& rec : result.recoveries) {
    std::printf("  p%u crashed @%.1fms, restarted @%.1fms, %s",
                static_cast<unsigned>(rec.proc),
                static_cast<double>(rec.crashed_at) / 1000.0,
                static_cast<double>(rec.restarted_at) / 1000.0,
                rec.recovered ? "caught up" : "did NOT catch up");
    if (rec.recovered) {
      std::printf(" @%.1fms (recovery %.1fms)",
                  static_cast<double>(rec.recovered_at) / 1000.0,
                  static_cast<double>(rec.recovered_at - rec.restarted_at) /
                      1000.0);
    }
    std::printf("\n");
  }
}

std::optional<Work> prepare_run(const FlagValues& f) {
  const ProtocolKind kind = *parse_protocol(f.text("protocol"));
  auto parsed = parse_common(f);
  if (!parsed) return std::nullopt;
  CommonOptions o = std::move(*parsed);
  if (o.crash.active() && crash_refusal(kind) != nullptr) {
    return reject("%s", crash_refusal(kind));
  }
  // Paper scripts replace the generated workload and pin the paper's shape
  // (Example 1: three processes, two variables, constant 10µs latency).
  const std::string script = f.text("script");
  std::vector<Script> scripts;
  Network::LatencyOverride choreo;
  if (!script.empty()) {
    ScriptChoice c = load_script(script);
    scripts = std::move(c.scripts);
    choreo = std::move(c.choreo);
    o.objects = std::move(c.schema);
    o.spec.n_procs = scripts.size();
    o.spec.n_vars = c.n_vars;
    o.latency_kind = LatencyKind::kConstant;
    o.scale = sim_us(10);
  }
  // --objects=SPEC: typed schema for the generated workload; --mix tunes the
  // category weights of the typed op stream.
  ObjectMix mix;
  if (f.has("objects")) {
    if (o.objects != nullptr) {
      return reject("--script=objects fixes its own schema; drop --objects");
    }
    std::string error;
    auto schema = ObjectSchema::parse(f.text("objects"), o.spec.n_vars, &error);
    if (!schema) {
      return reject("bad --objects '%s': %s", f.text("objects").c_str(),
                    error.c_str());
    }
    o.objects = std::make_shared<const ObjectSchema>(std::move(*schema));
  }
  if (f.has("mix")) {
    std::string error;
    const auto parsed_mix = ObjectMix::parse(f.text("mix"), &error);
    if (!parsed_mix) {
      return reject("bad --mix '%s': %s", f.text("mix").c_str(), error.c_str());
    }
    mix = *parsed_mix;
  }
  if (o.objects != nullptr) {
    if (!supports_objects(kind)) return reject("%s", kObjectsNeedProtocol);
    if (o.crash.active()) {
      return reject("typed objects cannot run under a crash plan: catch-up "
                    "redelivery carries no typed payload (docs/OBJECTS.md)");
    }
  }
  // Subscription maps parse against the FINAL shape (a paper script may have
  // just overridden --procs/--vars).
  if (!parse_subscription_flags(f, kind, o.spec.n_procs, o.spec.n_vars,
                           o.subscription)) {
    return std::nullopt;
  }
  if (o.subscription != nullptr && !scripts_within(scripts, *o.subscription)) {
    return std::nullopt;
  }
  if (o.objects != nullptr && scripts.empty() && o.subscription != nullptr &&
      !o.subscription->is_full()) {
    return reject("typed objects with a restricted subscription map need a "
                  "script that stays inside the map; the generated typed "
                  "workload assumes every process accesses every variable");
  }

  return [=]() mutable -> int {
    // Restricted access maps need a workload that honors them — the contract
    // check inside the protocol would otherwise abort on the first
    // out-of-map operation.
    if (scripts.empty()) {
      if (o.objects != nullptr) {
        scripts = generate_mixed_object_workload(o.spec, *o.objects, mix);
      } else if (o.subscription != nullptr && !o.subscription->is_full()) {
        scripts = generate_subscriber_workload(o.spec, *o.subscription);
      }
    }

    const std::string metrics_out = f.text("metrics-out");
    const std::string trace_out = f.text("trace-out");
    const bool want_telemetry = !metrics_out.empty() || !trace_out.empty();
    std::optional<RunTelemetry> tel;
    if (want_telemetry) {
      tel.emplace(o.spec.n_procs, trace_out.empty() ? RunTelemetry::Trace::kOff
                                                    : RunTelemetry::Trace::kKeep);
    }

    const auto wall_start = std::chrono::steady_clock::now();
    const auto result =
        run_one(kind, o, want_telemetry ? &*tel : nullptr,
                scripts.empty() ? nullptr : &scripts,
                choreo ? &choreo : nullptr);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();
    if (!script.empty()) {
      std::printf("workload: %s script '%s' (%zu procs, %zu vars)\n\n",
                  script == "objects" ? "typed-objects" : "paper",
                  script.c_str(), o.spec.n_procs, o.spec.n_vars);
    } else if (o.objects != nullptr) {
      std::printf("workload: %s, typed objects '%s', mix %s\n\n",
                  o.spec.describe().c_str(), f.text("objects").c_str(),
                  mix.str().c_str());
    } else {
      std::printf("workload: %s\n\n", o.spec.describe().c_str());
    }
    print_report(kind, result, o.subscription.get(), o.objects.get(),
                 want_telemetry ? &*tel : nullptr,
                 /*expect_convergence=*/script == "objects");
    if (f.has("history")) {
      std::printf("\nhistory:\n%s", result.recorder->history().str().c_str());
    }
    if (f.has("sequences")) {
      std::printf("\n%s", render_sequences(*result.recorder).c_str());
    }
    if (f.has("trace")) {
      std::printf("\n%s", render_space_time(*result.recorder).c_str());
    }
    if (f.has("export")) {
      const std::string path = f.text("export");
      if (!write_file(path, export_trace_jsonl(*result.recorder))) return 1;
      std::printf("\ntrace exported to %s\n", path.c_str());
    }
    if (tel) {
      if (!metrics_out.empty()) {
        if (!write_file(metrics_out, tel->metrics_csv())) return 1;
        std::printf("metrics written to %s\n", metrics_out.c_str());
      }
      if (!trace_out.empty()) {
        const bool csv = trace_out.ends_with(".csv");
        if (!write_file(trace_out,
                        csv ? tel->trace_csv() : tel->chrome_trace())) {
          return 1;
        }
        std::printf("%s trace written to %s%s\n", csv ? "csv" : "chrome",
                    trace_out.c_str(),
                    csv ? ""
                        : " (open in chrome://tracing or ui.perfetto.dev)");
      }
    }
    if (f.has("bench-json")) {
      const std::string path = f.text("bench-json");
      if (!write_file(path, bench_json_summary(kind, result, wall_ms))) {
        return 1;
      }
      std::printf("bench json written to %s\n", path.c_str());
    }
    return result.settled ? 0 : 1;
  };
}

std::optional<Work> prepare_replay(const FlagValues& f) {
  if (f.positional().empty()) return reject("replay needs a trace file");
  return [=]() -> int {
    const std::string& path = f.positional()[0];
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    std::string text;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, file)) > 0) {
      text.append(buf, got);
    }
    std::fclose(file);

    const auto imported = import_trace_jsonl(text);
    if (!imported) {
      std::fprintf(stderr, "malformed trace\n");
      return 1;
    }
    const auto audit =
        OptimalityAuditor::audit(imported->history, imported->events);
    const auto check = ConsistencyChecker::check(imported->history);
    Table table({"metric", "value"});
    table.add("operations", imported->history.size());
    table.add("events", imported->events.size());
    table.add("delayed (Def. 3)", audit.total_delayed());
    table.add("necessary", audit.total_necessary());
    table.add("unnecessary (false causality)", audit.total_unnecessary());
    table.add("write-delay optimal run",
              audit.write_delay_optimal() ? "yes" : "NO");
    table.add("safe", audit.safe() ? "yes" : "NO");
    table.add("live", audit.live() ? "yes" : "NO");
    table.add("causally consistent", check.consistent() ? "yes" : "NO");
    std::printf("%s", table.str().c_str());
    if (f.has("history")) {
      std::printf("\n%s", imported->history.str().c_str());
    }
    return 0;
  };
}

std::optional<Work> prepare_compare(const FlagValues& f) {
  auto parsed = parse_common(f);
  if (!parsed) return std::nullopt;
  return [o = std::move(*parsed)]() -> int {
    std::printf("workload: %s\n", o.spec.describe().c_str());
    Table table({"protocol", "delayed", "delayed/1k", "necessary",
                 "unnecessary", "skipped", "peak buffer", "net bytes",
                 "optimal run"});
    for (const auto kind : all_protocol_kinds()) {
      if (o.crash.active() && kind == ProtocolKind::kTokenWs) {
        std::printf("(token-ws skipped: crash recovery needs a class-P "
                    "buffering protocol)\n");
        continue;
      }
      const auto result = run_one(kind, o);
      const auto audit = OptimalityAuditor::audit(*result.recorder);
      std::uint64_t skipped = 0;
      std::uint64_t peak = 0;
      for (const auto& s : result.stats) {
        skipped += s.skipped_writes;
        peak = std::max(peak, s.peak_pending);
      }
      const double rate =
          audit.total_remote() == 0
              ? 0.0
              : 1000.0 * static_cast<double>(audit.total_delayed()) /
                    static_cast<double>(audit.total_remote());
      table.add(to_string(kind), audit.total_delayed(), rate,
                audit.total_necessary(), audit.total_unnecessary(), skipped,
                peak, result.net.bytes_sent,
                audit.write_delay_optimal() ? "yes" : "NO");
    }
    std::printf("%s", table.str().c_str());
    return 0;
  };
}

// The fault-scenario driver: the workload runs under drops + partition +
// crash/restart, and the report puts recovery behaviour next to the audit
// verdicts — the point being that the verdicts do not change.  With no fault
// flags at all it runs a built-in demo scenario.  Exit status is non-zero if
// any surviving history fails a check or the ARQ abandoned a message.
std::optional<Work> prepare_faults(const FlagValues& f) {
  auto parsed = parse_common(f);
  if (!parsed) return std::nullopt;
  CommonOptions o = std::move(*parsed);
  const bool demo = !o.fault.active() && !o.crash.active();
  if (demo) {
    o.fault.drop = 0.05;
    o.fault.split({0}, o.spec.n_procs, sim_ms(8), sim_ms(23));
    if (o.spec.n_procs > 1) {
      o.crash.events.push_back(CrashEvent{1, sim_ms(5), sim_ms(13)});
    }
  }
  std::vector<ProtocolKind> kinds = {ProtocolKind::kOptP, ProtocolKind::kAnbkh};
  if (f.has("protocol")) kinds = {*parse_protocol(f.text("protocol"))};
  for (const ProtocolKind kind : kinds) {
    if (o.crash.active() && crash_refusal(kind) != nullptr) {
      return reject("%s", crash_refusal(kind));
    }
  }

  return [=]() -> int {
    if (demo) {
      std::printf(
          "no fault flags given; demo scenario: drop=0.05, partition {p0} vs "
          "rest 8-23ms, crash p1 @5ms restart @13ms\n");
    }
    std::printf("workload: %s\n\n", o.spec.describe().c_str());
    Table table({"protocol", "settled", "consistent", "optimal", "unnecessary",
                 "recover (ms)", "catchup (KB)", "retx", "crash drops",
                 "abandoned"});
    std::string detail;
    bool all_ok = true;
    for (const auto kind : kinds) {
      const auto result = run_one(kind, o);
      const auto audit = OptimalityAuditor::audit(*result.recorder);
      const auto check = ConsistencyChecker::check(result.recorder->history());

      double recover_ms = 0.0;
      std::size_t recovered = 0;
      for (const RecoveryRecord& rec : result.recoveries) {
        char line[160];
        std::snprintf(line, sizeof line, "  %s: p%u down %.1f-%.1fms, %s\n",
                      to_string(kind), static_cast<unsigned>(rec.proc),
                      static_cast<double>(rec.crashed_at) / 1000.0,
                      static_cast<double>(rec.restarted_at) / 1000.0,
                      rec.recovered ? "caught up" : "did NOT catch up");
        detail += line;
        if (rec.recovered) {
          recover_ms +=
              static_cast<double>(rec.recovered_at - rec.restarted_at) / 1000.0;
          ++recovered;
        }
      }
      const bool ok = result.settled && check.consistent() && audit.safe() &&
                      audit.live() && recovered == result.recoveries.size() &&
                      result.reliable.abandoned == 0;
      all_ok = all_ok && ok;
      table.add(to_string(kind), result.settled ? "yes" : "NO",
                check.consistent() ? "yes" : "NO",
                audit.write_delay_optimal() ? "yes" : "NO",
                audit.total_unnecessary(),
                recovered == 0 ? 0.0
                               : recover_ms / static_cast<double>(recovered),
                static_cast<double>(result.recovery.catch_up_bytes) / 1024.0,
                result.reliable.retransmissions, result.faults.crash_dropped,
                result.reliable.abandoned);
    }
    std::printf("%s", table.str().c_str());
    if (!detail.empty()) std::printf("\nrecoveries:\n%s", detail.c_str());
    std::printf("%s\n",
                all_ok ? "\nall checks passed: causal consistency, safety, "
                         "liveness, full recovery, zero ARQ abandonment"
                       : "\nCHECK FAILURE: see the NO cells above");
    return all_ok ? 0 : 1;
  };
}

std::optional<Work> prepare_paper(const FlagValues& f) {
  const std::string which =
      f.positional().empty() ? "all" : f.positional()[0];
  const bool all = which == "all";
  const bool known = all || which == "history" || which == "table1" ||
                     which == "table2" || which == "fig1" || which == "fig3" ||
                     which == "fig6" || which == "fig7";
  if (!known) return reject("unknown paper artifact '%s'", which.c_str());

  return [=]() -> int {
    const ConstantLatency latency(sim_us(10));
    SimRunConfig cfg;
    cfg.kind = ProtocolKind::kOptP;
    cfg.n_procs = paper::kH1Procs;
    cfg.n_vars = paper::kH1Vars;
    cfg.latency = &latency;

    if (all || which == "history") {
      const auto result = run_sim(cfg, paper::make_h1_scripts());
      std::printf("== Example 1 (H1), produced by an OptP run ==\n%s\n",
                  result.recorder->history().str().c_str());
    }
    if (all || which == "table1") {
      const auto result = run_sim(cfg, paper::make_h1_scripts());
      const auto co = CoRelation::build(result.recorder->history());
      std::printf("== Table 1: X_co-safe(e) ==\n");
      for (const OpRef wref : result.recorder->history().writes()) {
        const auto& op = result.recorder->history().op(wref);
        std::printf(
            "  apply_k(%s) -> %s\n", op_to_string(op).c_str(),
            enabling_set_str(x_co_safe_writes(*co, op.write_id), 0).c_str());
      }
      std::printf("\n");
    }
    if (all || which == "table2" || which == "fig3" || which == "fig6" ||
        which == "fig1") {
      const auto choreo =
          which == "fig1" ? paper::make_fig1_run2() : paper::make_fig3();
      for (const auto kind : {ProtocolKind::kAnbkh, ProtocolKind::kOptP}) {
        auto c2 = cfg;
        c2.kind = kind;
        c2.latency_override = choreo.latency_override;
        const auto result = run_sim(c2, choreo.scripts);
        const auto audit = OptimalityAuditor::audit(*result.recorder);
        std::printf("== choreographed run under %s ==\n%s", to_string(kind),
                    render_space_time(*result.recorder).c_str());
        std::printf("delayed=%llu unnecessary=%llu\n\n",
                    static_cast<unsigned long long>(audit.total_delayed()),
                    static_cast<unsigned long long>(audit.total_unnecessary()));
        if (which == "table2" && kind == ProtocolKind::kAnbkh) {
          const auto co = CoRelation::build(result.recorder->history());
          std::printf("== Table 2: X_ANBKH(e) from the run's send clocks ==\n");
          for (const OpRef wref : result.recorder->history().writes()) {
            const auto& op = result.recorder->history().op(wref);
            const auto& clock =
                send_clock_of(result.recorder->events(), op.write_id);
            std::printf("  apply_k(%s) -> %s\n", op_to_string(op).c_str(),
                        enabling_set_str(
                            x_protocol_writes(clock, op.write_id), 0).c_str());
          }
          std::printf("\n");
          (void)co;
        }
      }
    }
    if (all || which == "fig7") {
      const auto result = run_sim(cfg, paper::make_h1_scripts());
      const auto co = CoRelation::build(result.recorder->history());
      const CausalityGraph graph(*co);
      std::printf("== Figure 7: write causality graph ==\n%s\n%s",
                  graph.to_ascii().c_str(), graph.to_dot().c_str());
    }
    return 0;
  };
}

// -- the TCP tier: serve, drive -----------------------------------------------

std::optional<Work> prepare_serve(const FlagValues& f) {
  if (!f.has("peers")) return reject("serve needs --peers=<host:port,...>");
  const auto id = f.num<std::size_t>("id");
  std::vector<std::string> peers = split_commas(f.text("peers"));
  if (id >= peers.size()) return reject("--id must index into --peers");
  if (f.has("listen")) peers[id] = f.text("listen");
  for (const std::string& addr : peers) {
    if (!net::parse_addr(addr)) {
      return reject("bad peer address '%s'", addr.c_str());
    }
  }

  ProcessNodeConfig config;
  config.shape.kind = *parse_protocol(f.text("protocol"));
  config.shape.self = static_cast<ProcessId>(id);
  config.shape.n_procs = peers.size();
  config.shape.n_vars = f.num<std::size_t>("vars");
  config.shape.recoverable = f.has("recoverable");
  config.state_dir = f.text("state-dir");
  config.fsync = *parse_fsync_policy(f.text("fsync"));
  config.wal_group_commit = f.has("wal-group-commit");
  config.peers = std::move(peers);
  return [config]() -> int {
    ProcessNode node(config);
    std::printf("serving process %u on %s (%zu-process mesh, %s%s%s); waiting "
                "for a driver...\n",
                static_cast<unsigned>(config.shape.self),
                config.peers[config.shape.self].c_str(),
                node.transport().n_procs(), to_string(config.shape.kind),
                config.state_dir.empty() ? "" : ", durable in ",
                config.state_dir.c_str());
    node.run();
    return 0;
  };
}

/// `optcm drive`'s validated command line.
struct DriveRun {
  ProtocolKind kind = ProtocolKind::kOptP;
  std::string script;
  std::vector<Script> scripts;
  std::size_t n_vars = 0;
  std::shared_ptr<const ObjectSchema> schema;
  std::shared_ptr<const SubscriptionMap> subscription;
  std::uint64_t time_scale = 1;
  bool compare_sim = false;
  bool recoverable = false;
  bool respawn = false;
  std::string state_dir;
  FsyncPolicy fsync = FsyncPolicy::kEvery;
  bool wal_group_commit = false;
  std::size_t shards_per_proc = 1;
  struct KillConn {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    std::uint64_t at_ms = 0;
  };
  std::optional<KillConn> kill_conn;  ///< --kill-conn=P:Q@MS
  struct KillHost {
    std::uint64_t node = 0;
    std::uint64_t at_ms = 30;
  };
  std::optional<KillHost> kill_host;  ///< --kill-host=N[@MS]
  std::optional<NemesisPlan> nemesis;
  bool nemesis_durable = false;  ///< the schedule crashes nodes or fails WALs
};

/// "P:Q@MS" with P != Q, both < n.
std::optional<DriveRun::KillConn> parse_kill_conn(std::string_view text,
                                                  std::size_t n) {
  const auto colon = text.find(':');
  const auto at = text.find('@');
  if (colon == std::string_view::npos || at == std::string_view::npos ||
      at < colon) {
    return std::nullopt;
  }
  const auto from = parse_u64(text.substr(0, colon));
  const auto to = parse_u64(text.substr(colon + 1, at - colon - 1));
  const auto at_ms = parse_u64(text.substr(at + 1));
  if (!from || !to || !at_ms || *from >= n || *to >= n || *from == *to) {
    return std::nullopt;
  }
  return DriveRun::KillConn{*from, *to, *at_ms};
}

/// "N" or "N@MS" with N < n.
std::optional<DriveRun::KillHost> parse_kill_host(std::string_view text,
                                                  std::size_t n) {
  DriveRun::KillHost kill;
  const auto at = text.find('@');
  const auto node = parse_u64(text.substr(0, at));
  if (!node || *node >= n) return std::nullopt;
  kill.node = *node;
  if (at != std::string_view::npos) {
    const auto at_ms = parse_u64(text.substr(at + 1));
    if (!at_ms) return std::nullopt;
    kill.at_ms = *at_ms;
  }
  return kill;
}

/// A fresh directory under $TMPDIR (else /tmp), announced on stdout.
bool make_temp_state_dir(std::string& dir) {
  const char* tmp = std::getenv("TMPDIR");
  std::string templ =
      std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
      "/optcm-state-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a temporary state dir\n");
    return false;
  }
  dir = buf.data();
  std::printf("state dir: %s\n", dir.c_str());
  return true;
}

ProcessClusterConfig drive_cluster_config(const DriveRun& d) {
  ProcessClusterConfig config;
  config.shape.kind = d.kind;
  config.shape.n_procs = d.scripts.size();
  config.shape.n_vars = d.n_vars;
  // Durable state needs the recoverable stack (replay filter + anti-entropy);
  // the drive harness owns every node, so it is safe to imply the shape.
  config.shape.recoverable = d.recoverable || !d.state_dir.empty();
  // Forked without exec: the children inherit the map through the shared
  // ProtocolConfig, so every node routes by the same subscription sets (and
  // the same object schema).
  config.shape.protocol_config.subscription = d.subscription;
  config.shape.protocol_config.objects = d.schema;
  config.state_dir = d.state_dir;
  config.fsync = d.fsync;
  config.wal_group_commit = d.wal_group_commit;
  config.shards_per_proc = d.shards_per_proc;
  if (d.nemesis) {
    config.net_faults = d.nemesis->boot_plan();
    config.storage_fail = d.nemesis->wal_fails;
  }
  return config;
}

/// Spawn the cluster, wait for the full mesh, and start the scripts.
bool start_drive_cluster(ProcessCluster& cluster, const DriveRun& d) {
  if (!cluster.spawn()) {
    std::fprintf(stderr, "cluster spawn failed\n");
    return false;
  }
  if (!cluster.wait_ready()) {
    std::fprintf(stderr, "cluster never became fully connected\n");
    return false;
  }
  if (d.shards_per_proc > 1) {
    std::printf("cluster up: %zu shards packed %zu per process, ring mesh "
                "inside, TCP between, on 127.0.0.1\n",
                cluster.n_procs(), d.shards_per_proc);
  } else {
    std::printf("cluster up: %zu processes, full TCP mesh on 127.0.0.1\n",
                cluster.n_procs());
  }
  if (!cluster.run(d.scripts, d.time_scale)) {
    std::fprintf(stderr, "failed to start the scripted run\n");
    return false;
  }
  return true;
}

bool drive_kill_conn(ProcessCluster& cluster, const DriveRun::KillConn& kill) {
  std::this_thread::sleep_for(std::chrono::milliseconds(kill.at_ms));
  if (!cluster.kill_connection(static_cast<ProcessId>(kill.from),
                               static_cast<ProcessId>(kill.to))) {
    std::fprintf(stderr, "kill-conn request failed\n");
    return false;
  }
  std::printf("dropped connection p%llu -> p%llu at +%llums\n",
              static_cast<unsigned long long>(kill.from),
              static_cast<unsigned long long>(kill.to),
              static_cast<unsigned long long>(kill.at_ms));
  return true;
}

/// The nemesis path: print the expanded schedule and play it.  Each crash
/// archives the victim's pre-kill log in `out.pre_crash`.
bool drive_nemesis(ProcessCluster& cluster, const DriveRun& d,
                   NemesisOutcome& out) {
  const auto timeline = expand(*d.nemesis);
  std::printf("nemesis schedule (%zu events):\n%s", timeline.size(),
              trace_str(timeline).c_str());
  out = run_nemesis(cluster, *d.nemesis, d.scripts, d.time_scale);
  if (!out.ok) {
    std::fprintf(stderr, "nemesis failed: %s\n", out.error.c_str());
    return false;
  }
  std::printf("nemesis schedule complete (%zu crash(es) archived)\n",
              out.pre_crash.size());
  return true;
}

/// The durable path: SIGKILL one node, respawn it from its state dir, and
/// resume its script.  Its pre-kill log is archived in `crashes.pre_crash`.
bool drive_kill_host(ProcessCluster& cluster, const DriveRun& d,
                     NemesisOutcome& crashes) {
  const DriveRun::KillHost& kill = *d.kill_host;
  const auto node = static_cast<unsigned long long>(kill.node);
  std::this_thread::sleep_for(std::chrono::milliseconds(kill.at_ms));
  const auto victim = static_cast<ProcessId>(kill.node);
  // Archive incarnation 1's view first: stitched against the respawned
  // node's final log below, this exercises the multi-incarnation path.
  auto pre_kill_log = cluster.fetch_log(victim);
  if (!pre_kill_log) {
    std::fprintf(stderr, "failed to fetch p%llu's pre-kill log\n", node);
    return false;
  }
  crashes.pre_crash.emplace_back(victim, std::move(*pre_kill_log));
  if (!cluster.kill_process(victim)) {
    std::fprintf(stderr, "kill-host failed\n");
    return false;
  }
  std::printf("kill -9 p%llu at +%llums\n", node,
              static_cast<unsigned long long>(kill.at_ms));
  if (!cluster.respawn_process(victim)) {
    std::fprintf(stderr, "respawn failed\n");
    return false;
  }
  if (!cluster.wait_ready()) {
    std::fprintf(stderr, "respawned cluster never re-formed the mesh\n");
    return false;
  }
  if (!cluster.wait_quiescent()) {
    std::fprintf(stderr, "cluster never quiesced after the respawn\n");
    return false;
  }
  if (!cluster.run_node(victim, d.scripts[victim], d.time_scale)) {
    std::fprintf(stderr, "failed to resume p%llu's script\n", node);
    return false;
  }
  std::printf(
      "p%llu respawned from %s/node-%llu (snapshot + WAL replay + "
      "anti-entropy) and resumed its script\n",
      node, d.state_dir.c_str(), node);
  return true;
}

/// Each crash (nemesis or --kill-host) archived the victim's pre-kill view;
/// stitch the archived incarnations (oldest first) against the node's final
/// log in `runs`.
bool stitch_crashed_nodes(
    std::vector<std::pair<ProcessId, ImportedRun>>& pre_crash,
    std::vector<ImportedRun>& runs) {
  std::map<ProcessId, std::vector<ImportedRun>> incarnations;
  for (auto& [node, log] : pre_crash) {
    incarnations[node].push_back(std::move(log));
  }
  for (auto& [node, logs] : incarnations) {
    logs.push_back(std::move(runs[node]));
    auto stitched = stitch_incarnations(logs);
    if (!stitched) {
      std::fprintf(stderr,
                   "p%u's incarnation logs do not stitch (inconsistent op "
                   "prefixes)\n",
                   static_cast<unsigned>(node));
      return false;
    }
    runs[node] = std::move(*stitched);
  }
  return true;
}

/// The compare-sim path: every node's observer-event sequence against the
/// simulator's on the same scripts.  Prints each divergence and the verdict.
bool matches_simulator(const DriveRun& d,
                       const std::vector<ImportedRun>& runs) {
  const ConstantLatency latency(sim_us(10));
  SimRunConfig sim_config;
  sim_config.kind = d.kind;
  sim_config.n_procs = d.scripts.size();
  sim_config.n_vars = d.n_vars;
  sim_config.latency = &latency;
  sim_config.protocol_config.subscription = d.subscription;
  sim_config.protocol_config.objects = d.schema;
  const auto sim = run_sim(sim_config, d.scripts);
  bool equal = true;
  for (ProcessId p = 0; p < runs.size(); ++p) {
    const std::string net_seq = sequence_str(runs[p].events, p);
    const std::string sim_seq = sim.recorder->sequence_str(p);
    if (net_seq != sim_seq) {
      equal = false;
      std::printf("\np%u DIVERGES from the simulator:\n  net: %s\n  sim: %s\n",
                  static_cast<unsigned>(p), net_seq.c_str(), sim_seq.c_str());
    }
  }
  std::printf("\nobserver-event equivalence vs simulator: %s\n",
              equal ? "byte-identical on every process"
                    : "MISMATCH (see above)");
  return equal;
}

int run_drive(DriveRun d) {
  if ((d.respawn || d.nemesis_durable || d.wal_group_commit) &&
      d.state_dir.empty() && !make_temp_state_dir(d.state_dir)) {
    return 1;
  }
  ProcessCluster cluster(drive_cluster_config(d));
  if (!start_drive_cluster(cluster, d)) return 1;
  if (d.kill_conn && !drive_kill_conn(cluster, *d.kill_conn)) return 1;
  NemesisOutcome crashes;
  crashes.ok = true;
  if (d.nemesis && !drive_nemesis(cluster, d, crashes)) return 1;
  if (d.kill_host && !drive_kill_host(cluster, d, crashes)) return 1;
  if (!cluster.wait_done()) {
    std::fprintf(stderr, "run did not complete (last control error: %s)\n",
                 std::string(to_string(cluster.last_error())).c_str());
    return 1;
  }

  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < cluster.n_procs(); ++p) {
    auto log = cluster.fetch_log(p);
    if (!log) {
      std::fprintf(stderr, "failed to fetch node %u's log\n",
                   static_cast<unsigned>(p));
      return 1;
    }
    runs.push_back(std::move(*log));
  }
  NodeNetStats total;
  for (ProcessId p = 0; p < cluster.n_procs(); ++p) {
    const auto stats = cluster.fetch_stats(p);
    if (stats) total += *stats;
  }
  const bool clean_exit = cluster.shutdown();
  if (!stitch_crashed_nodes(crashes.pre_crash, runs)) return 1;

  const auto merged = merge_runs(runs);
  if (!merged) {
    std::fprintf(stderr, "per-node logs do not merge into a causal order\n");
    return 1;
  }
  const auto audit = OptimalityAuditor::audit(merged->history, merged->events,
                                              d.subscription.get());
  const auto check = d.schema != nullptr
                         ? SpecChecker::check(merged->history, *d.schema)
                         : ConsistencyChecker::check(merged->history);

  Table table({"metric", "value"});
  table.add("script", d.script);
  if (d.schema != nullptr) {
    table.add("objects", d.schema->str());
    table.add("linearizations explored", check.linearizations_explored);
  }
  if (d.subscription != nullptr) {
    table.add("subscriptions", d.subscription->describe());
  }
  table.add("time scale", d.time_scale);
  table.add("operations (merged)", merged->history.size());
  table.add("events (merged)", merged->events.size());
  table.add("TCP frames sent", total.tcp.frames_out);
  table.add("TCP bytes sent", total.tcp.bytes_out);
  table.add("TCP reconnects", total.tcp.reconnects);
  table.add("sends dropped (link down)", total.tcp.sends_dropped);
  table.add("ARQ retransmissions", total.reliable.retransmissions);
  table.add("ARQ abandoned", total.reliable.abandoned);
  table.add("delayed (Def. 3)", audit.total_delayed());
  table.add("unnecessary delays", audit.total_unnecessary());
  table.add("write-delay optimal run (Def. 5)",
            audit.write_delay_optimal() ? "yes" : "NO");
  table.add("safe", audit.safe() ? "yes" : "NO");
  table.add("live", audit.live() ? "yes" : "NO");
  table.add("causally consistent (Defs. 1-2)",
            check.consistent() ? "yes" : "NO");
  table.add("clean shutdown", clean_exit ? "yes" : "NO");
  if (d.kill_host) {
    table.add("kill -9 + respawn + stitch",
              "p" + std::to_string(d.kill_host->node));
  }
  if (d.nemesis) {
    table.add("faults: dropped", total.faults.dropped);
    table.add("faults: duplicated", total.faults.duplicated);
    table.add("faults: corrupted", total.faults.corrupted);
    table.add("faults: reordered", total.faults.reordered);
    table.add("faults: delayed", total.faults.delayed);
    table.add("faults: blocked (partition)", total.faults.blocked);
    table.add("WAL write errors / retries",
              std::to_string(total.wal.write_errors) + " / " +
                  std::to_string(total.wal.write_retries));
    table.add("WAL fsync errors", total.wal.fsync_errors);
    table.add("snapshot spills skipped/failed", total.node.snapshot_failures);
    table.add("crashes (SIGKILL + respawn)", crashes.pre_crash.size());
  }
  std::printf("%s", table.str().c_str());

  bool ok = check.consistent() && audit.safe() && audit.live() &&
            total.reliable.abandoned == 0 && clean_exit;
  if (d.compare_sim) ok = matches_simulator(d, runs) && ok;
  if (d.kill_conn) {
    std::printf("reconnects=%llu retransmissions=%llu (the dropped link was "
                "re-dialed and repaired by the ARQ)\n",
                static_cast<unsigned long long>(total.tcp.reconnects),
                static_cast<unsigned long long>(
                    total.reliable.retransmissions));
  }
  return ok ? 0 : 1;
}

std::optional<Work> prepare_drive(const FlagValues& f) {
  DriveRun d;
  d.kind = *parse_protocol(f.text("protocol"));
  d.script = f.has("script") ? f.text("script") : "h1";
  d.time_scale = f.num<std::uint64_t>("time-scale");
  d.compare_sim = f.has("compare-sim");
  d.recoverable = f.has("recoverable");
  d.respawn = f.has("respawn");
  d.wal_group_commit = f.has("wal-group-commit");
  d.state_dir = f.text("state-dir");
  d.fsync = *parse_fsync_policy(f.text("fsync"));
  d.shards_per_proc = f.num<std::size_t>("shards-per-proc");

  ScriptChoice choice = load_script(d.script);
  d.scripts = std::move(choice.scripts);
  d.n_vars = choice.n_vars;
  d.schema = choice.schema;
  const std::size_t n = d.scripts.size();
  if (f.num<std::size_t>("spawn") != n) {
    return reject("--spawn must be %zu for --script=%s", n, d.script.c_str());
  }
  if (d.compare_sim && d.script != "h1" && d.script != "objects") {
    return reject("--compare-sim only works with --script=h1 or "
                  "--script=objects (fig1/fig3 choreograph per-message "
                  "latency, which real sockets cannot reproduce)");
  }
  if (d.schema != nullptr && !supports_objects(d.kind)) {
    return reject("%s", kObjectsNeedProtocol);
  }
  if (f.has("kill-conn")) {
    const std::string text = f.text("kill-conn");
    d.kill_conn = parse_kill_conn(text, n);
    if (!d.kill_conn) {
      return reject("bad --kill-conn '%s' (want P:Q@MS)", text.c_str());
    }
  }
  if (f.has("kill-host")) {
    const std::string text = f.text("kill-host");
    d.kill_host = parse_kill_host(text, n);
    if (!d.kill_host) {
      return reject("bad --kill-host '%s' (want N or N@MS, N < spawn)",
                    text.c_str());
    }
  }
  if (f.has("nemesis")) {
    std::string error;
    d.nemesis = NemesisPlan::parse(f.text("nemesis"), n, &error);
    if (!d.nemesis) return reject("bad --nemesis: %s", error.c_str());
  }
  // SIGKILLing a shard group would take out several nodes at once — that is
  // a different fault than the single-node crash these flags model.
  if (d.shards_per_proc > 1 && (d.kill_host || d.respawn)) {
    return reject("--shards-per-proc > 1 is incompatible with --kill-host/"
                  "--respawn (a SIGKILL would hit the whole shard group)");
  }
  if (d.shards_per_proc > 1 && d.nemesis && d.nemesis->has_crashes()) {
    return reject("--shards-per-proc > 1 is incompatible with nemesis crash "
                  "schedules (crashes SIGKILL whole processes)");
  }
  // Crashes need a respawn source and wal-fail needs a WAL: both imply
  // durable state (a temp dir is made when none was given), and group
  // commit is meaningless without a WAL to commit.
  d.nemesis_durable = d.nemesis && (d.nemesis->has_crashes() ||
                                    !d.nemesis->wal_fails.empty());
  const bool durable = d.recoverable || !d.state_dir.empty() ||
                       d.kill_host || d.respawn || d.wal_group_commit ||
                       d.nemesis_durable;
  if (durable &&
      (d.schema != nullptr || d.kind == ProtocolKind::kOptPSharded)) {
    return reject(
        "%s keeps no durable state: drop --recoverable/--state-dir/"
        "--kill-host/--respawn/--wal-group-commit and nemesis crash/wal-fail "
        "entries",
        d.schema != nullptr
            ? "--script=objects (catch-up redelivery carries no typed payload)"
            : "optp-sharded (no WAL/checkpoint seam to restore from)");
  }
  if (!parse_subscription_flags(f, d.kind, n, d.n_vars, d.subscription)) {
    return std::nullopt;
  }
  if (d.subscription != nullptr &&
      !scripts_within(d.scripts, *d.subscription)) {
    return std::nullopt;
  }
  return [d = std::move(d)]() { return run_drive(d); };
}

struct Command {
  const char* name;
  const char* args;  ///< the optional positional argument, if any
  const char* summary;
  std::optional<Work> (*prepare)(const FlagValues&);
};

// Index i holds the command of bit 1 << i.
constexpr Command kCommands[] = {
    {"run", "",
     "run one protocol on a generated workload (or a paper script) and report "
     "stats and the Def. 3/5 audit",
     prepare_run},
    {"compare", "",
     "run every protocol on the identical workload and arrival pattern",
     prepare_compare},
    {"faults", "",
     "run a fault scenario (drops, partition, crash/restart) and report "
     "recovery next to the audit; no fault flags runs a demo",
     prepare_faults},
    {"paper", " [history|table1|table2|fig1|fig3|fig6|fig7|all]",
     "print the paper artifacts", prepare_paper},
    {"replay", " <trace.jsonl>",
     "re-audit a trace exported by optcm run --export", prepare_replay},
    {"serve", "",
     "host one protocol process over TCP and wait for a driver "
     "(docs/NETWORK.md)",
     prepare_serve},
    {"drive", "",
     "fork a loopback cluster, run a script over real sockets, merge the "
     "per-node logs and check them",
     prepare_drive},
};

/// Usage for the commands in the bitmask `commands`, built from the tables.
void print_usage(unsigned commands) {
  std::string text = "usage:\n";
  std::vector<const char*> names;
  for (std::size_t i = 0; i < std::size(kCommands); ++i) {
    const Command& c = kCommands[i];
    names.push_back(c.name);
    if ((commands >> i & 1u) == 0) continue;
    text += std::string("  optcm ") + c.name + c.args +
            " [--flag=value ...]\n      " + c.summary + "\n";
  }
  const bool all = commands == kAnyCommand;
  text += all ? "flags (--key=value or --key value; commands in brackets):\n"
              : "flags (--key=value or --key value):\n";
  text += flag_usage(kFlags, commands,
                     all ? std::span<const char* const>(names)
                         : std::span<const char* const>());
  std::fputs(text.c_str(), stderr);
}

}  // namespace

int cli_main(int argc, const char* const* argv) {
  const std::span<const char* const> args(argv, static_cast<std::size_t>(argc));
  for (std::size_t i = 0; i < std::size(kCommands); ++i) {
    const Command& cmd = kCommands[i];
    if (args.size() < 2 || std::string_view(args[1]) != cmd.name) continue;
    const unsigned bit = 1u << i;
    std::string error;
    const auto flags = parse_flags(kFlags, args.subspan(2), bit, error);
    std::optional<Work> work;
    if (!flags) {
      reject("%s", error.c_str());
    } else if (const std::size_t max_args = *cmd.args == '\0' ? 0 : 1;
               flags->positional().size() > max_args) {
      reject("unexpected argument '%s'", flags->positional()[max_args].c_str());
    } else {
      work = cmd.prepare(*flags);
    }
    if (!work) {
      print_usage(bit);
      return 2;
    }
    if (flags->has("dry-run")) return 0;
    return (*work)();
  }
  if (args.size() >= 2) reject("unknown command '%s'", args[1]);
  print_usage(kAnyCommand);
  return 2;
}

}  // namespace dsm::cli
