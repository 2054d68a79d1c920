#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace usaas::core {

namespace {

void require_non_empty(std::span<const double> xs, const char* what) {
  if (xs.empty()) throw std::invalid_argument(std::string{what} + ": empty");
}

}  // namespace

double mean(std::span<const double> xs) {
  require_non_empty(xs, "mean");
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  require_non_empty(xs, "variance");
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double quantile(std::span<const double> xs, double q) {
  require_non_empty(xs, "quantile");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q not in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double p95(std::span<const double> xs) { return quantile(xs, 0.95); }

double min_value(std::span<const double> xs) {
  require_non_empty(xs, "min_value");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  require_non_empty(xs, "max_value");
  return *std::max_element(xs.begin(), xs.end());
}

double RunningStats::mean() const {
  if (n_ == 0) throw std::logic_error("RunningStats::mean on empty");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ == 0) throw std::logic_error("RunningStats::variance on empty");
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  if (n_ == 0) throw std::logic_error("RunningStats::min on empty");
  return min_;
}

double RunningStats::max() const {
  if (n_ == 0) throw std::logic_error("RunningStats::max on empty");
  return max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

std::optional<Summary> summarize(std::span<const double> xs) {
  if (xs.empty()) return std::nullopt;
  Summary s;
  s.count = xs.size();
  s.mean = mean(xs);
  s.median = median(xs);
  s.p95 = p95(xs);
  s.min = min_value(xs);
  s.max = max_value(xs);
  s.stddev = stddev(xs);
  return s;
}

std::vector<double> normalize_to_percent_of_max(std::span<const double> xs) {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) return out;
  const double mx = max_value(xs);
  if (mx <= 0.0) return out;
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = 100.0 * xs[i] / mx;
  return out;
}

std::vector<double> ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> out(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Average rank over the tie block [i, j] (ranks are 1-based).
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) out[order[k]] = avg;
    i = j + 1;
  }
  return out;
}

}  // namespace usaas::core
