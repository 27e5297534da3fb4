#include "cluster_run.h"

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "dsm/net/process_cluster.h"

namespace procbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kRunTimeoutMs = 60'000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Live children of this process (the cluster's node processes).
std::vector<pid_t> child_pids() {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream in(entry.path() / "stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    std::string state;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == self) out.push_back(std::stoi(name));
  }
  return out;
}

/// A /proc/<pid>/status size field ("RssAnon:", …) in MiB; 0 when
/// unreadable.
double status_mb(pid_t pid, const std::string& field) {
  std::ifstream in(std::string("/proc/") + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0;
}

/// Time `pid` has spent on a CPU, ns (/proc/<pid>/schedstat); 0 when
/// unreadable.
double cpu_ns(pid_t pid) {
  std::ifstream in(std::string("/proc/") + std::to_string(pid) + "/schedstat");
  double ns = 0;
  return in >> ns ? ns : 0;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string run_cluster(const Plan& plan, const std::string& state_dir,
                        bool fetch_logs, RepResult& rep) {
  dsm::ProcessClusterConfig config;
  config.shape.kind = dsm::ProtocolKind::kOptP;
  config.shape.n_procs = kProcs;
  config.shape.n_vars = kVars;
  if (!state_dir.empty()) {
    // The `optcm serve --state-dir` defaults: recoverable stack, fsync on
    // every record, one checkpoint and snapshot per mutation.
    config.shape.recoverable = true;
    config.state_dir = state_dir;
    config.fsync = dsm::FsyncPolicy::kEvery;
  }
  dsm::ProcessCluster cluster(config);

  // The children start as copies of this process, malloc state included.
  // glibc raises its mmap threshold whenever a large mapped chunk is freed,
  // so whether a node's big vectors are mapped or carved from the heap (and
  // so its resident memory) would depend on what this process freed before
  // the fork.  Pin the threshold at glibc's default and return freed heap.
  (void)::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  (void)::malloc_trim(0);
  const auto t_spawn = Clock::now();
  if (!cluster.spawn()) return "cluster spawn failed";
  if (!cluster.wait_ready()) return "cluster never became fully connected";
  rep.setup_s = seconds_since(t_spawn);

  // A second readiness round is one kPing per node and nothing else.
  const auto t_ping = Clock::now();
  if (!cluster.wait_ready()) return "ping round failed";
  rep.ctl_rtt_us = seconds_since(t_ping) * 1e6 / static_cast<double>(kProcs);

  // A node starts as a copy of this process, so its memory at ready depends
  // on what the driver holds; only the growth from here is the node's own.
  // Anonymous memory only: file-backed pages (code) are faulted in lazily
  // after the fork, in amounts that move with address-space randomization.
  std::map<pid_t, double> anon_at_ready;
  for (const pid_t pid : child_pids()) {
    anon_at_ready[pid] = status_mb(pid, "RssAnon:");
  }
  if (anon_at_ready.size() != kProcs) return "cannot find the node processes";

  for (dsm::ProcessId p = 0; p < kProcs; ++p) {
    auto stats = cluster.fetch_stats(p);
    if (!stats) return "fetch_stats failed";
    rep.stats_before.push_back(*stats);
  }

  std::map<pid_t, double> cpu_at_run;
  for (const auto& [pid, mb] : anon_at_ready) cpu_at_run[pid] = cpu_ns(pid);
  const auto t_run = Clock::now();
  if (!cluster.run(plan.scripts, /*time_scale=*/1)) return "kRun failed";
  if (!cluster.wait_done(kRunTimeoutMs)) {
    return std::string("run did not complete: ") +
           std::string(dsm::to_string(cluster.last_error()));
  }
  rep.run_s = seconds_since(t_run);
  for (const auto& [pid, ns] : cpu_at_run) {
    rep.node_cpu_s += (cpu_ns(pid) - ns) / 1e9;
  }
  if (!(rep.node_cpu_s > 0)) return "cannot read the nodes' CPU time";

  // Before any fetch: exporting a log allocates inside the node.
  for (const auto& [pid, ready_mb] : anon_at_ready) {
    rep.node_anon_mb =
        std::max(rep.node_anon_mb, status_mb(pid, "RssAnon:") - ready_mb);
  }
  for (dsm::ProcessId p = 0; p < kProcs; ++p) {
    auto stats = cluster.fetch_stats(p);
    if (!stats) return "fetch_stats failed";
    rep.stats.push_back(*stats);
  }
  for (dsm::ProcessId p = 0; fetch_logs && p < kProcs; ++p) {
    auto log = cluster.fetch_log(p);
    if (!log) return "fetch_log failed";
    rep.logs.push_back(std::move(*log));
  }
  if (!cluster.shutdown()) return "unclean shutdown";
  return {};
}

std::string check_rep(const Plan& plan, const RepResult& rep) {
  if (rep.stats.size() != kProcs) return "missing stats";
  if (rep.run_s * 1e6 >= static_cast<double>(kAwaitTimeout)) {
    return "run took longer than one await timeout";
  }
  std::vector<std::uint64_t> issued(kProcs, 0);
  for (std::size_t p = 0; p < kProcs; ++p) {
    issued[p] = dsm::count_steps({plan.scripts[p]}, dsm::StepKind::kWrite);
  }
  for (std::size_t p = 0; p < kProcs; ++p) {
    const dsm::NodeNetStats& s = rep.stats[p];
    if (s.reliable.abandoned != 0) return "ARQ abandoned a payload";
    if (s.reliable.malformed_dropped != 0) return "ARQ dropped malformed frames";
    if (s.tcp.frame_errors != 0) return "TCP frame errors";
    const std::uint64_t others = plan.writes - issued[p];
    if (s.reliable.delivered != others ||
        s.reliable.data_sent != issued[p] * (kProcs - 1)) {
      return std::string("p") + std::to_string(p) + "'s ARQ sent " +
             std::to_string(s.reliable.data_sent) + " and delivered " +
             std::to_string(s.reliable.delivered) + " payloads; expected " +
             std::to_string(issued[p] * (kProcs - 1)) + " and " +
             std::to_string(others);
    }
  }
  if (rep.logs.empty()) return {};
  if (rep.logs.size() != kProcs) return "missing logs";
  for (dsm::ProcessId p = 0; p < kProcs; ++p) {
    const dsm::ImportedRun& log = rep.logs[p];
    std::string err = check_scripted(plan, log.history, p);
    if (!err.empty()) return err;
    std::vector<std::uint64_t> applied(kProcs, 0);
    for (const dsm::RunEvent& e : log.events) {
      if (e.at != p) return "a node logged another node's event";
      if (e.kind == dsm::EvKind::kApply && e.write.proc < kProcs) {
        ++applied[e.write.proc];
      }
    }
    if (applied != issued) {
      return std::string("p") + std::to_string(p) + " did not apply every write once";
    }
  }
  return {};
}

}  // namespace

RepResult run_rep(const Plan& plan, const RepOptions& options,
                  std::size_t rep_index) {
  RepResult rep;
  std::string state_dir;
  if (options.durable) {
    state_dir = options.state_root + "/run-" + std::to_string(::getpid()) +
                "-" + std::to_string(rep_index);
    std::error_code ec;
    fs::remove_all(state_dir, ec);
    if (!fs::create_directories(state_dir, ec)) {
      rep.error = "cannot create state dir " + state_dir;
      return rep;
    }
  }
  rep.error = run_cluster(plan, state_dir, options.fetch_logs, rep);
  if (!state_dir.empty()) {
    rep.state_bytes = dir_bytes(state_dir);
    if (rep.error.empty() && options.inspect_state) {
      options.inspect_state(state_dir);
    }
    std::error_code ec;
    fs::remove_all(state_dir, ec);
  }
  if (rep.error.empty()) rep.error = check_rep(plan, rep);
  return rep;
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
      return os.str();
    }
  }
}

}  // namespace procbench
