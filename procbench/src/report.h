// procbench — metric catalogue and the result line.
//
// The two catalogues below are the benchmark's metric contract: the untraced
// mode prints exactly end_to_end_metrics(), the traced mode exactly
// per_layer_metrics(), and BENCHMARK.json at the repository root lists the
// same names and units (tests/test_procbench.cpp holds the two together).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace procbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

using MetricValues = std::map<std::string, double>;

/// The last stdout line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
/// with one entry per catalogue metric, in catalogue order, each value in
/// shortest round-trip form.  \pre `values` has exactly the catalogue's
/// names (checked; a mismatch is a benchmark bug and aborts).
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<MetricDef>& catalogue,
                                      const MetricValues& values);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

}  // namespace procbench
