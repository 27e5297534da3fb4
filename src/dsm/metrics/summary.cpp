#include "dsm/metrics/summary.h"

#include <algorithm>
#include <cmath>

#include "dsm/common/contracts.h"
#include "dsm/common/format.h"

namespace dsm {

void Summary::add(double v) {
  values_.push_back(v);
  sorted_ = false;
  sum_ += v;
  sum_sq_ += v * v;
}

void Summary::merge(const Summary& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  if (!other.values_.empty()) sorted_ = false;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

double Summary::mean() const noexcept {
  return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

double Summary::min() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::max() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Summary::stddev() const noexcept {
  const auto n = static_cast<double>(values_.size());
  if (n < 2) return 0.0;
  const double m = mean();
  const double var = (sum_sq_ - n * m * m) / (n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

double Summary::quantile(double q) const {
  DSM_REQUIRE(q >= 0.0 && q <= 1.0);
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

std::string Summary::str(int digits) const {
  return "n=" + std::to_string(count()) + " mean=" + fixed(mean(), digits) +
         " p50=" + fixed(quantile(0.5), digits) +
         " p99=" + fixed(quantile(0.99), digits) +
         " max=" + fixed(max(), digits);
}

}  // namespace dsm
