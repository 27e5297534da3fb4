#include "dsm/telemetry/metrics.h"

#include <algorithm>

#include "dsm/common/contracts.h"
#include "dsm/common/format.h"

namespace dsm {

MetricsRegistry::Family& MetricsRegistry::family_locked(std::string_view name,
                                                        MetricKind kind) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(std::string(name), Family{}).first;
    it->second.kind = kind;
  }
  // A name is bound to one kind for the registry's lifetime; mixing kinds
  // under one name would make the CSV rows ambiguous.
  DSM_REQUIRE(it->second.kind == kind);
  return it->second;
}

Counter& MetricsRegistry::counter(ProcessId scope, std::string_view name) {
  std::lock_guard lock(mu_);
  auto& slot = family_locked(name, MetricKind::kCounter).counters[scope];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(ProcessId scope, std::string_view name) {
  std::lock_guard lock(mu_);
  auto& slot = family_locked(name, MetricKind::kGauge).gauges[scope];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Summary& MetricsRegistry::summary(ProcessId scope, std::string_view name) {
  std::lock_guard lock(mu_);
  auto& slot = family_locked(name, MetricKind::kSummary).summaries[scope];
  if (!slot) slot = std::make_unique<Summary>();
  return *slot;
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [scope, c] : it->second.counters) total += c->value();
  return total;
}

std::uint64_t MetricsRegistry::gauge_max(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end()) return 0;
  std::uint64_t peak = 0;
  for (const auto& [scope, g] : it->second.gauges)
    peak = std::max(peak, g->max());
  return peak;
}

Summary MetricsRegistry::merged_summary(std::string_view name) const {
  std::lock_guard lock(mu_);
  Summary all;
  const auto it = families_.find(name);
  if (it == families_.end()) return all;
  for (const auto& [scope, s] : it->second.summaries) all.merge(*s);
  return all;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, fam] : families_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

namespace {

std::string scope_name(ProcessId scope) {
  if (scope == MetricsRegistry::kRunScope) return "run";
  return "p" + std::to_string(scope);
}

std::string num(double v) { return fixed(v, 3); }

void counter_row(std::string& out, std::string_view name,
                 const std::string& scope, std::uint64_t v) {
  out += std::string(name) + "," + scope + ",counter,," +
         std::to_string(v) + ",,,,,\n";
}

void gauge_row(std::string& out, std::string_view name,
               const std::string& scope, std::uint64_t last,
               std::uint64_t max) {
  out += std::string(name) + "," + scope + ",gauge,," + std::to_string(last) +
         ",,,,," + std::to_string(max) + "\n";
}

void summary_row(std::string& out, std::string_view name,
                 const std::string& scope, const Summary& s) {
  out += std::string(name) + "," + scope + ",summary," +
         std::to_string(s.count()) + "," + num(s.total()) + "," +
         num(s.mean()) + "," + num(s.quantile(0.5)) + "," +
         num(s.quantile(0.95)) + "," + num(s.quantile(0.99)) + "," +
         num(s.max()) + "\n";
}

}  // namespace

std::string MetricsRegistry::csv() const {
  std::lock_guard lock(mu_);
  std::string out = "metric,scope,kind,count,value,mean,p50,p95,p99,max\n";
  for (const auto& [name, fam] : families_) {
    switch (fam.kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& [scope, c] : fam.counters) {
          counter_row(out, name, scope_name(scope), c->value());
          total += c->value();
        }
        counter_row(out, name, "all", total);
        break;
      }
      case MetricKind::kGauge: {
        std::uint64_t peak = 0;
        std::uint64_t last_any = 0;
        for (const auto& [scope, g] : fam.gauges) {
          gauge_row(out, name, scope_name(scope), g->last(), g->max());
          peak = std::max(peak, g->max());
          last_any = std::max(last_any, g->last());
        }
        gauge_row(out, name, "all", last_any, peak);
        break;
      }
      case MetricKind::kSummary: {
        Summary all;
        for (const auto& [scope, s] : fam.summaries) {
          summary_row(out, name, scope_name(scope), *s);
          all.merge(*s);
        }
        summary_row(out, name, "all", all);
        break;
      }
    }
  }
  return out;
}

}  // namespace dsm
