#include "dsm/telemetry/trace.h"

#include <cstdio>
#include <map>
#include <utility>

#include "dsm/common/format.h"

namespace dsm {

std::string_view to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kSend: return "send";
    case TraceKind::kReceive: return "receive";
    case TraceKind::kApply: return "apply";
    case TraceKind::kRead: return "read";
    case TraceKind::kWrite: return "write";
    case TraceKind::kSkip: return "skip";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRestart: return "restart";
    case TraceKind::kCheckpoint: return "checkpoint";
  }
  return "?";
}

namespace {

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

std::string ts_str(double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

std::string event_label(const TraceEvent& e) {
  std::string label{to_string(e.kind)};
  if (e.kind == TraceKind::kApply && e.delayed) label = "apply(delayed)";
  if (e.write.valid()) label += " " + to_string(e.write);
  if (e.kind == TraceKind::kRead || e.kind == TraceKind::kWrite)
    label += " " + var_name(e.var);
  return label;
}

std::string event_args(const TraceEvent& e) {
  std::vector<std::string> parts;
  if (e.write.valid())
    parts.push_back("\"write\":\"" + json_escape(to_string(e.write)) + "\"");
  switch (e.kind) {
    case TraceKind::kSend:
    case TraceKind::kReceive:
    case TraceKind::kRead:
    case TraceKind::kWrite:
      parts.push_back("\"var\":\"" + json_escape(var_name(e.var)) + "\"");
      if (e.value != kBottom)
        parts.push_back("\"value\":" + std::to_string(e.value));
      break;
    default:
      break;
  }
  if (e.kind == TraceKind::kApply)
    parts.push_back(std::string("\"delayed\":") + (e.delayed ? "true" : "false"));
  if (e.bytes != 0) parts.push_back("\"bytes\":" + std::to_string(e.bytes));
  if (!e.clock.empty())
    parts.push_back("\"clock\":\"" + json_escape(e.clock.str()) + "\"");
  return "{" + join(parts, ",") + "}";
}

}  // namespace

std::string export_chrome_trace(std::span<const TraceEvent> events,
                                double ts_scale) {
  std::string out = "[";
  bool first = true;
  const auto emit = [&](const std::string& obj) {
    if (!first) out += ",";
    first = false;
    out += "\n" + obj;
  };

  // One named track per process seen in the trace.
  std::map<ProcessId, bool> procs;
  for (const TraceEvent& e : events) procs[e.at] = true;
  for (const auto& [p, unused] : procs) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(p) + ",\"tid\":0,\"args\":{\"name\":\"" +
         json_escape(proc_name(p)) + "\"}}");
  }

  // Receipt times, so a delayed apply can be drawn as a receipt→apply slice —
  // the write delay of Definition 3 as a visible duration.
  std::map<std::pair<ProcessId, WriteId>, std::uint64_t> receipt_at;
  for (const TraceEvent& e : events) {
    const double ts = static_cast<double>(e.time) * ts_scale;
    const std::string common = "\"pid\":" + std::to_string(e.at) +
                               ",\"tid\":0,\"args\":" + event_args(e);
    if (e.kind == TraceKind::kReceive)
      receipt_at[{e.at, e.write}] = e.time;
    if (e.kind == TraceKind::kApply && e.delayed) {
      const auto it = receipt_at.find({e.at, e.write});
      if (it != receipt_at.end()) {
        const double start = static_cast<double>(it->second) * ts_scale;
        emit("{\"name\":\"" + json_escape(event_label(e)) +
             "\",\"ph\":\"X\",\"ts\":" + ts_str(start) +
             ",\"dur\":" + ts_str(ts - start) + "," + common + "}");
        continue;
      }
    }
    emit("{\"name\":\"" + json_escape(event_label(e)) +
         "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts_str(ts) + "," + common +
         "}");
  }
  out += "\n]\n";
  return out;
}

std::string export_trace_csv(std::span<const TraceEvent> events) {
  std::string out = "kind,proc,time,write,var,value,delayed,bytes,clock\n";
  for (const TraceEvent& e : events) {
    out += std::string(to_string(e.kind)) + ",";
    out += std::to_string(e.at) + ",";
    out += std::to_string(e.time) + ",";
    out += (e.write.valid() ? to_string(e.write) : std::string()) + ",";
    out += std::to_string(e.var) + ",";
    out += (e.value == kBottom ? std::string() : std::to_string(e.value)) + ",";
    out += (e.delayed ? "1" : "0") + std::string(",");
    out += std::to_string(e.bytes) + ",";
    out += "\"" + e.clock.str() + "\"\n";
  }
  return out;
}

}  // namespace dsm
