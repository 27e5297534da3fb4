#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace procbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"node_cpu_us_per_write", "us", "lower"},
      {"setup_s", "s", "lower"},
      {"node_anon_mb", "MiB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"net.frames_per_write", "frames/write", "lower"},
      {"net.bytes_per_write", "B/write", "lower"},
      {"net.frame_reassembly_ns", "ns", "lower"},
      {"net.ctl_rtt_us", "us", "lower"},
      {"net.hop_wait_us", "us", "lower"},
      {"sim.reliable.retx_per_data", "ratio", "lower"},
      {"sim.reliable.acks_per_data", "ratio", "lower"},
      {"protocols.delayed_apply_ratio", "ratio", "lower"},
      {"protocols.write_ns", "ns", "lower"},
      {"protocols.read_ns", "ns", "lower"},
      {"protocols.on_message_ns", "ns", "lower"},
      {"protocols.drain_scans_per_apply", "ratio", "lower"},
      {"protocols.checkpoint_bytes", "B", "lower"},
      {"codec.encode_ns", "ns", "lower"},
      {"codec.decode_ns", "ns", "lower"},
      {"codec.update_bytes", "B", "lower"},
      {"telemetry.observe_ns", "ns", "lower"},
      {"storage.wal_append_us", "us", "lower"},
      {"storage.wal_bytes_per_write", "B/write", "lower"},
      {"storage.snapshot_bytes", "B", "lower"},
      {"storage.snapshot_write_us", "us", "lower"},
      {"storage.state_bytes_per_write", "B/write", "lower"},
      {"trace.overhead_pct", "%", "lower"},
  };
  return defs;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricDef>& catalogue,
                        const MetricValues& values) {
  if (values.size() != catalogue.size()) {
    std::fprintf(stderr, "procbench: %zu metric values for %zu catalogue names\n",
                 values.size(), catalogue.size());
    std::abort();
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(attempted);
  out += ", \"failed\": ";
  out += std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : catalogue) {
    const auto it = values.find(def.name);
    if (it == values.end()) {
      std::fprintf(stderr, "procbench: no value for metric %s\n", def.name);
      std::abort();
    }
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += def.name;
    out += "\": {\"value\": ";
    out += number(it->second);
    out += ", \"unit\": \"";
    out += def.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace procbench
