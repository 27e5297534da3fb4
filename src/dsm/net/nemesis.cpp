#include "dsm/net/nemesis.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <thread>
#include <utility>

#include "dsm/common/flags.h"

namespace dsm {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

void fail(std::string* error, std::string text) {
  if (error != nullptr) *error = std::move(text);
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

[[nodiscard]] std::optional<double> parse_prob(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  if (!(v >= 0.0 && v <= 1.0)) return std::nullopt;
  return v;
}

/// Split `text` at the FIRST occurrence of `sep` into (head, tail).
[[nodiscard]] std::optional<std::pair<std::string_view, std::string_view>>
split1(std::string_view text, char sep) {
  const std::size_t at = text.find(sep);
  if (at == std::string_view::npos) return std::nullopt;
  return std::pair{text.substr(0, at), text.substr(at + 1)};
}

[[nodiscard]] std::optional<StorageFailpoint::Kind> parse_fail_kind(
    std::string_view text) {
  if (text == "eio") return StorageFailpoint::Kind::kEio;
  if (text == "enospc") return StorageFailpoint::Kind::kEnospc;
  if (text == "short") return StorageFailpoint::Kind::kShort;
  if (text == "fsync") return StorageFailpoint::Kind::kEio;  // op selects
  return std::nullopt;
}

}  // namespace

NetFaultPlan NemesisPlan::boot_plan() const {
  NetFaultPlan plan;
  plan.seed = seed;
  plan.all = base;
  return plan;
}

std::optional<NemesisPlan> NemesisPlan::parse(std::string_view spec,
                                              std::size_t n_procs,
                                              std::string* error) {
  NemesisPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    std::string_view entry = rest;
    const std::size_t semi = rest.find(';');
    if (semi == std::string_view::npos) {
      rest = {};
    } else {
      entry = rest.substr(0, semi);
      rest.remove_prefix(semi + 1);
    }
    entry = trim(entry);
    if (entry.empty()) continue;

    const auto kv = split1(entry, '=');
    if (!kv) {
      fail(error, "entry without '=': '" + std::string(entry) + "'");
      return std::nullopt;
    }
    const std::string_view key = trim(kv->first);
    const std::string_view value = trim(kv->second);

    if (key == "seed") {
      const auto v = parse_u64(value);
      if (!v) {
        fail(error, "bad seed");
        return std::nullopt;
      }
      plan.seed = *v;
    } else if (key == "drop" || key == "dup" || key == "corrupt" ||
               key == "reorder") {
      const auto p = parse_prob(value);
      if (!p) {
        fail(error, "bad " + std::string(key) + " (want probability in [0,1])");
        return std::nullopt;
      }
      if (key == "drop") plan.base.drop = *p;
      if (key == "dup") plan.base.duplicate = *p;
      if (key == "corrupt") plan.base.corrupt = *p;
      if (key == "reorder") plan.base.reorder = *p;
    } else if (key == "delay") {
      // delay=P:MIN:MAX (ms)
      std::optional<double> p;
      std::optional<std::uint64_t> lo, hi;
      if (const auto a = split1(value, ':')) {
        p = parse_prob(a->first);
        if (const auto b = split1(a->second, ':')) {
          lo = parse_u64(b->first);
          hi = parse_u64(b->second);
        }
      }
      if (!p || !lo || !hi || *lo > *hi) {
        fail(error, "bad delay (want P:MIN:MAX with MIN<=MAX in ms)");
        return std::nullopt;
      }
      plan.base.delay = *p;
      plan.base.delay_min = sim_ms(*lo);
      plan.base.delay_max = sim_ms(*hi);
    } else if (key == "throttle") {
      const auto v = parse_u64(value);
      if (!v || *v == 0) {
        fail(error, "bad throttle (want bytes/ms > 0)");
        return std::nullopt;
      }
      plan.base.bytes_per_ms = *v;
    } else if (key == "partition") {
      // partition=A:B@MS+DUR
      std::optional<std::uint64_t> a, b, ms, d;
      if (const auto ab = split1(value, ':')) {
        a = parse_u64(ab->first);
        if (const auto at = split1(ab->second, '@')) {
          b = parse_u64(at->first);
          if (const auto dur = split1(at->second, '+')) {
            ms = parse_u64(dur->first);
            d = parse_u64(dur->second);
          }
        }
      }
      if (!a || !b || !ms || !d || *d == 0 || *ms > kMaxU64 - *d) {
        fail(error, "bad partition (want A:B@MS+DUR, MS+DUR < 2^64)");
        return std::nullopt;
      }
      if (*a >= n_procs || *b >= n_procs || *a == *b) {
        fail(error, "partition endpoints out of range");
        return std::nullopt;
      }
      plan.partitions.push_back({static_cast<ProcessId>(*a),
                                 static_cast<ProcessId>(*b), *ms, *d});
    } else if (key == "flap") {
      // flap=A:B@MS+GAPxCNT
      std::optional<std::uint64_t> a, b, ms, g, n;
      if (const auto ab = split1(value, ':')) {
        a = parse_u64(ab->first);
        if (const auto at = split1(ab->second, '@')) {
          b = parse_u64(at->first);
          if (const auto gap = split1(at->second, '+')) {
            ms = parse_u64(gap->first);
            if (const auto cnt = split1(gap->second, 'x')) {
              g = parse_u64(cnt->first);
              n = parse_u64(cnt->second);
            }
          }
        }
      }
      // The last flap fires at MS + GAP*(CNT-1); it must fit in a u64.
      if (!a || !b || !ms || !g || !n || *n == 0 ||
          (*g != 0 && *n - 1 > (kMaxU64 - *ms) / *g)) {
        fail(error, "bad flap (want A:B@MS+GAPxCNT, MS+GAP*(CNT-1) < 2^64)");
        return std::nullopt;
      }
      if (*a >= n_procs || *b >= n_procs || *a == *b) {
        fail(error, "flap endpoints out of range");
        return std::nullopt;
      }
      plan.flaps.push_back({static_cast<ProcessId>(*a),
                            static_cast<ProcessId>(*b), *ms, *g, *n});
    } else if (key == "crash") {
      // crash=N@MS
      std::optional<std::uint64_t> node, ms;
      if (const auto at = split1(value, '@')) {
        node = parse_u64(at->first);
        ms = parse_u64(at->second);
      }
      if (!node || !ms) {
        fail(error, "bad crash (want N@MS)");
        return std::nullopt;
      }
      if (*node >= n_procs) {
        fail(error, "crash node out of range");
        return std::nullopt;
      }
      plan.crashes.push_back({static_cast<ProcessId>(*node), *ms});
    } else if (key == "wal-fail") {
      // wal-fail=N:KIND@CNT — fsync KIND selects the fsync op, the others
      // the write op, all on the CNT-th call (1-based) and from then on
      // (times=0: a degraded disk stays degraded until the next boot).
      std::optional<std::uint64_t> node, cnt;
      std::optional<StorageFailpoint::Kind> kind;
      bool is_fsync = false;
      if (const auto nk = split1(value, ':')) {
        node = parse_u64(nk->first);
        if (const auto at = split1(nk->second, '@')) {
          kind = parse_fail_kind(at->first);
          is_fsync = at->first == "fsync";
          cnt = parse_u64(at->second);
        }
      }
      if (!node || !kind || !cnt || *cnt == 0) {
        fail(error,
             "bad wal-fail (want N:KIND@CNT, KIND in eio|enospc|short|fsync)");
        return std::nullopt;
      }
      if (*node >= n_procs) {
        fail(error, "wal-fail node out of range");
        return std::nullopt;
      }
      StorageFailpoint fp;
      fp.op = is_fsync ? StorageFailpoint::Op::kFsync
                       : StorageFailpoint::Op::kWrite;
      fp.kind = *kind;
      fp.at_call = *cnt;
      fp.times = 1;  // one injected failure: degrade, retry, recover
      plan.wal_fails.emplace_back(static_cast<ProcessId>(*node), fp);
    } else {
      fail(error, "unknown nemesis key '" + std::string(key) + "'");
      return std::nullopt;
    }
  }
  return plan;
}

std::vector<NemesisEvent> expand(const NemesisPlan& plan) {
  std::vector<NemesisEvent> events;
  for (const NemesisPlan::Partition& p : plan.partitions) {
    events.push_back(
        {p.at_ms, NemesisEvent::Kind::kPartitionStart, p.from, p.to});
    events.push_back(
        {p.at_ms + p.dur_ms, NemesisEvent::Kind::kPartitionHeal, p.from, p.to});
  }
  for (const NemesisPlan::Flap& f : plan.flaps) {
    for (std::uint64_t i = 0; i < f.count; ++i) {
      events.push_back(
          {f.at_ms + i * f.gap_ms, NemesisEvent::Kind::kFlap, f.from, f.to});
    }
  }
  for (const NemesisPlan::Crash& c : plan.crashes) {
    events.push_back({c.at_ms, NemesisEvent::Kind::kCrash, c.node, c.node});
  }
  // Total order: time, then kind, then endpoints — a pure function of the
  // plan, so the trace is identical on every run of one spec.
  std::sort(events.begin(), events.end(),
            [](const NemesisEvent& x, const NemesisEvent& y) {
              if (x.at_ms != y.at_ms) return x.at_ms < y.at_ms;
              if (x.kind != y.kind) return x.kind < y.kind;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return events;
}

std::string trace_str(std::span<const NemesisEvent> events) {
  std::string out;
  for (const NemesisEvent& ev : events) {
    out += "+" + std::to_string(ev.at_ms) + "ms ";
    switch (ev.kind) {
      case NemesisEvent::Kind::kPartitionStart:
        out += "partition " + std::to_string(ev.a) + "->" +
               std::to_string(ev.b) + " start";
        break;
      case NemesisEvent::Kind::kPartitionHeal:
        out += "partition " + std::to_string(ev.a) + "->" +
               std::to_string(ev.b) + " heal";
        break;
      case NemesisEvent::Kind::kFlap:
        out += "flap " + std::to_string(ev.a) + "->" + std::to_string(ev.b);
        break;
      case NemesisEvent::Kind::kCrash:
        out += "crash p" + std::to_string(ev.a);
        break;
    }
    out += "\n";
  }
  return out;
}

NemesisOutcome run_nemesis(ProcessCluster& cluster, const NemesisPlan& plan,
                           const std::vector<Script>& scripts,
                           std::uint64_t time_scale) {
  NemesisOutcome out;
  const std::vector<NemesisEvent> events = expand(plan);

  // Currently blocked directed links, refcounted so overlapping partitions
  // of the same link compose (the link heals when the LAST one ends).
  std::map<std::pair<ProcessId, ProcessId>, std::uint32_t> blocked;

  // Recompute and install the sender's plan: base mix everywhere, plus a
  // blocked override (base mix + blocked, so the link keeps its drop/delay
  // character when it heals mid-frame-stream) per live partition it sends
  // into.  Also the re-arm path after a crash: the respawned incarnation
  // boots with the boot plan only.
  const auto install = [&](ProcessId sender) -> bool {
    NetFaultPlan node_plan = plan.boot_plan();
    for (const auto& [link, refs] : blocked) {
      if (refs > 0 && link.first == sender) {
        LinkFaults& lf = node_plan.override_link(link.first, link.second);
        lf = plan.base;
        lf.blocked = true;
      }
    }
    return cluster.set_faults(sender, node_plan);
  };

  const auto start = Clock::now();
  for (const NemesisEvent& ev : events) {
    std::this_thread::sleep_until(start +
                                  std::chrono::milliseconds(ev.at_ms));
    switch (ev.kind) {
      case NemesisEvent::Kind::kPartitionStart:
        ++blocked[{ev.a, ev.b}];
        if (!install(ev.a)) {
          out.error = "partition start: set_faults failed (" +
                      std::string(to_string(cluster.last_error())) + ")";
          return out;
        }
        break;
      case NemesisEvent::Kind::kPartitionHeal: {
        const auto it = blocked.find({ev.a, ev.b});
        if (it != blocked.end() && --it->second == 0) blocked.erase(it);
        if (!install(ev.a)) {
          out.error = "partition heal: set_faults failed (" +
                      std::string(to_string(cluster.last_error())) + ")";
          return out;
        }
        break;
      }
      case NemesisEvent::Kind::kFlap:
        if (!cluster.kill_connection(ev.a, ev.b)) {
          out.error = "flap: kill_connection failed (" +
                      std::string(to_string(cluster.last_error())) + ")";
          return out;
        }
        break;
      case NemesisEvent::Kind::kCrash: {
        if (!cluster.kill_process(ev.a)) {
          out.error = "crash: kill_process failed";
          return out;
        }
        if (!cluster.respawn_process(ev.a)) {
          out.error = "crash: respawn_process failed";
          return out;
        }
        if (!cluster.wait_ready()) {
          out.error = "crash: mesh never re-formed after respawn";
          return out;
        }
        // Full-cluster barrier: the fresh incarnation must hold every write
        // that was in flight cluster-wide when it died BEFORE its script
        // generates new ones (the observer-event equivalence vs the
        // simulator depends on the peers' ARQ resends landing first).  A peer
        // whose link is blocked by a still-installed partition reports
        // itself quiescent modulo that blocked channel (see
        // ProcessNode::stack_quiescent), so a live partition — whose heal
        // event is queued behind this handler — cannot deadlock the wait.
        if (!cluster.wait_quiescent()) {
          out.error = "crash: cluster never quiesced after respawn";
          return out;
        }
        // The fresh incarnation booted with the boot plan only: re-install
        // any partitions it is currently the sender of, then resume its
        // script (the node skips the WAL-replayed prefix itself).
        if (!install(ev.a)) {
          out.error = "crash: set_faults after respawn failed (" +
                      std::string(to_string(cluster.last_error())) + ")";
          return out;
        }
        if (!cluster.run_node(ev.a, scripts[ev.a], time_scale)) {
          out.error = "crash: script resume failed (" +
                      std::string(to_string(cluster.last_error())) + ")";
          return out;
        }
        break;
      }
    }
  }
  out.ok = true;
  return out;
}

}  // namespace dsm
