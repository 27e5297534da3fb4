#include "dsm/audit/trace_render.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "dsm/common/format.h"

namespace dsm {

std::string render_sequences(const RunRecorder& recorder) {
  std::string out;
  for (ProcessId p = 0; p < recorder.history().n_procs(); ++p) {
    out += proc_name(p) + ": " + recorder.sequence_str(p) + "\n";
  }
  return out;
}

std::string render_space_time(const RunRecorder& recorder,
                              const TraceRenderOptions& opts) {
  const std::size_t n = recorder.history().n_procs();
  const auto& events = recorder.events();

  // One output row per event (already in global order); cell text in the
  // column of the process where it occurred.
  struct Row {
    std::uint64_t time;
    ProcessId at;
    std::string text;
  };
  std::vector<Row> rows;
  rows.reserve(events.size());
  for (const auto& e : events) {
    if (!opts.show_returns && e.kind == EvKind::kReturn) continue;
    std::string text = event_to_string(e);
    if (opts.show_clocks &&
        (e.kind == EvKind::kSend || e.kind == EvKind::kReceipt)) {
      text += " " + e.clock.str();
    }
    if (e.kind == EvKind::kApply && e.delayed) text += " (was delayed)";
    rows.push_back(Row{e.time, e.at, std::move(text)});
  }

  std::vector<std::size_t> widths(n, 4);
  for (const auto& r : rows) {
    widths[r.at] = std::max(widths[r.at], r.text.size());
  }

  std::string out;
  if (opts.show_time) out += pad_right("t(us)", 10);
  for (ProcessId p = 0; p < n; ++p) {
    out += pad_right(proc_name(p), widths[p] + 2);
  }
  out += "\n";

  for (const auto& r : rows) {
    if (opts.show_time) out += pad_right(std::to_string(r.time), 10);
    for (ProcessId p = 0; p < n; ++p) {
      out += pad_right(p == r.at ? r.text : "", widths[p] + 2);
    }
    out += "\n";
  }
  return out;
}

namespace {

/// A run's events in log order with each crash and restart merged in by
/// time: a crash after the events of its instant (its process did them
/// before it went down), a restart before them (its process does them after
/// it is back up).
struct Timeline {
  /// A logged event, or a crash or restart, which carries only its process
  /// and time in `event`.
  struct Row {
    const RunEvent* event;
    const char* kind;
    bool mark = false;

    [[nodiscard]] bool is(EvKind k) const {
      return !mark && event->kind == k;
    }
  };
  std::vector<RunEvent> marks;  ///< the crash and restart rows' events
  std::vector<Row> rows;
};
using Row = Timeline::Row;

Timeline timeline(std::span<const RunEvent> events,
                  std::span<const RecoveryRecord> recoveries) {
  struct Mark {
    std::uint64_t time;
    bool restart;
    ProcessId at;
  };
  std::vector<Mark> pending;
  for (const RecoveryRecord& r : recoveries) {
    pending.push_back({r.crashed_at, false, r.proc});
    pending.push_back({r.restarted_at, true, r.proc});
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Mark& a, const Mark& b) {
                     return a.time != b.time ? a.time < b.time
                                             : a.restart && !b.restart;
                   });
  Timeline t;
  t.marks.reserve(pending.size());  // rows point into it
  t.rows.reserve(events.size() + pending.size());
  std::size_t next = 0;
  const auto place_marks_before = [&](const RunEvent* e) {
    for (; next < pending.size(); ++next) {
      const Mark& m = pending[next];
      if (e != nullptr &&
          (m.time > e->time || (m.time == e->time && !m.restart))) {
        return;
      }
      RunEvent& mark = t.marks.emplace_back();
      mark.at = m.at;
      mark.time = m.time;
      t.rows.push_back({&mark, m.restart ? "restart" : "crash", true});
    }
  };
  for (const RunEvent& e : events) {
    place_marks_before(&e);
    t.rows.push_back({&e, to_string(e.kind)});
  }
  place_marks_before(nullptr);
  return t;
}

// Minimal JSON string escaping.  Our payloads are library-generated names
// ("w_1^3", "[1,0,2]") so this is belt-and-braces, not a general serializer.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ts_str(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(us));
  return buf;
}

std::string row_label(const Row& r) {
  const RunEvent& e = *r.event;
  std::string label = r.is(EvKind::kApply) && e.delayed ? "apply(delayed)"
                                                        : r.kind;
  if (e.write.valid()) label += " " + to_string(e.write);
  if (r.is(EvKind::kReturn)) label += " " + var_name(e.var);
  return label;
}

std::string row_args(const Row& r) {
  const RunEvent& e = *r.event;
  std::vector<std::string> parts;
  if (e.write.valid())
    parts.push_back("\"write\":\"" + json_escape(to_string(e.write)) + "\"");
  if (r.is(EvKind::kSend) || r.is(EvKind::kReceipt) || r.is(EvKind::kReturn)) {
    parts.push_back("\"var\":\"" + json_escape(var_name(e.var)) + "\"");
    if (e.value != kBottom)
      parts.push_back("\"value\":" + std::to_string(e.value));
  }
  if (r.is(EvKind::kApply))
    parts.push_back(std::string("\"delayed\":") + (e.delayed ? "true" : "false"));
  if (r.is(EvKind::kSkip))
    parts.push_back("\"by\":\"" + json_escape(to_string(e.other)) + "\"");
  if (!e.clock.empty())
    parts.push_back("\"clock\":\"" + json_escape(e.clock.str()) + "\"");
  return "{" + join(parts, ",") + "}";
}

}  // namespace

std::string render_chrome_trace(std::span<const RunEvent> events,
                                std::span<const RecoveryRecord> recoveries) {
  const Timeline t = timeline(events, recoveries);
  std::string out = "[";
  bool first = true;
  const auto emit = [&](const std::string& obj) {
    if (!first) out += ",";
    first = false;
    out += "\n" + obj;
  };

  // One named track per process on the timeline.
  std::set<ProcessId> procs;
  for (const Row& r : t.rows) procs.insert(r.event->at);
  for (const ProcessId p : procs) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(p) + ",\"tid\":0,\"args\":{\"name\":\"" +
         json_escape(proc_name(p)) + "\"}}");
  }

  // Receipt times, so a delayed apply can be drawn as a receipt→apply slice —
  // the write delay of Definition 3 as a visible duration.
  std::map<std::pair<ProcessId, WriteId>, std::uint64_t> receipt_at;
  for (const Row& r : t.rows) {
    const RunEvent& e = *r.event;
    const std::string common = "\"pid\":" + std::to_string(e.at) +
                               ",\"tid\":0,\"args\":" + row_args(r);
    if (r.is(EvKind::kReceipt)) receipt_at[{e.at, e.write}] = e.time;
    if (r.is(EvKind::kApply) && e.delayed) {
      const auto it = receipt_at.find({e.at, e.write});
      if (it != receipt_at.end()) {
        emit("{\"name\":\"" + json_escape(row_label(r)) +
             "\",\"ph\":\"X\",\"ts\":" + ts_str(it->second) +
             ",\"dur\":" + ts_str(e.time - it->second) + "," + common + "}");
        continue;
      }
    }
    emit("{\"name\":\"" + json_escape(row_label(r)) +
         "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts_str(e.time) + "," +
         common + "}");
  }
  out += "\n]\n";
  return out;
}

std::string render_trace_csv(std::span<const RunEvent> events,
                             std::span<const RecoveryRecord> recoveries) {
  const Timeline t = timeline(events, recoveries);
  std::string out = "kind,proc,time,write,var,value,delayed,other,clock\n";
  for (const Row& r : t.rows) {
    const RunEvent& e = *r.event;
    out += std::string(r.kind) + ",";
    out += std::to_string(e.at) + ",";
    out += std::to_string(e.time) + ",";
    out += (e.write.valid() ? to_string(e.write) : std::string()) + ",";
    out += std::to_string(e.var) + ",";
    out += (e.value == kBottom ? std::string() : std::to_string(e.value)) + ",";
    out += (e.delayed ? "1" : "0") + std::string(",");
    out += (e.other.valid() ? to_string(e.other) : std::string()) + ",";
    out += "\"" + e.clock.str() + "\"\n";
  }
  return out;
}

}  // namespace dsm
