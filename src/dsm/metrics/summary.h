// optcm — streaming summary statistics for experiment outputs.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dsm {

/// Accumulates doubles; exact quantiles via a retained, lazily-sorted sample
/// vector (experiment cardinalities here are ≤ millions, so retention is
/// cheaper than an approximate sketch and keeps results exact and
/// deterministic).
class Summary {
 public:
  void add(double v);

  /// Fold another summary's samples into this one (telemetry aggregates
  /// per-node summaries into a run-wide one).
  void merge(const Summary& other);

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double total() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  /// q in [0, 1]; nearest-rank on the sorted sample.  0 on empty.
  [[nodiscard]] double quantile(double q) const;

  /// "n=…, mean=…, p50=…, p99=…, max=…".
  [[nodiscard]] std::string str(int digits = 2) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
  double sum_ = 0;
  double sum_sq_ = 0;
};

}  // namespace dsm
