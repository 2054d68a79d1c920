// Descriptive statistics used throughout the analysis pipelines.
//
// The Teams client aggregates its 5-second samples to per-session mean,
// median and P95 (§3.1); Fig 7 plots monthly medians and checks their
// stability under 90%/95% subsampling. These helpers implement exactly
// those aggregations plus the usual moments.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace usaas::core {

/// Arithmetic mean. Requires a non-empty input.
[[nodiscard]] double mean(std::span<const double> xs);

/// Population variance / standard deviation. Requires non-empty input.
[[nodiscard]] double variance(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);

/// Median (linear-interpolated for even sizes). Requires non-empty input.
[[nodiscard]] double median(std::span<const double> xs);

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (type-7, the numpy default). Requires non-empty input.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// P95, the paper's session-aggregation tail statistic.
[[nodiscard]] double p95(std::span<const double> xs);

[[nodiscard]] double min_value(std::span<const double> xs);
[[nodiscard]] double max_value(std::span<const double> xs);

/// Streaming accumulator (Welford) for mean/variance plus min/max; used by
/// the telemetry clients that cannot buffer every sample.
class RunningStats {
 public:
  /// Inline: scan kernels call this once per selected row and bin.
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// All of these require count() > 0 and throw std::logic_error otherwise.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  // population
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Merges another accumulator (parallel Welford combine).
  void merge(const RunningStats& other);

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Five-number-style summary of a sample, the unit the session aggregator
/// reports per network metric.
struct Summary {
  std::size_t count{0};
  double mean{0.0};
  double median{0.0};
  double p95{0.0};
  double min{0.0};
  double max{0.0};
  double stddev{0.0};
};

/// Computes a Summary; returns nullopt for an empty sample.
[[nodiscard]] std::optional<Summary> summarize(std::span<const double> xs);

/// Normalizes values to [0, 100] relative to the sample maximum, which is
/// how the paper plots engagement ("% of best achievable"). A zero max
/// yields all zeros.
[[nodiscard]] std::vector<double> normalize_to_percent_of_max(
    std::span<const double> xs);

/// Ranks with average tie-handling (1-based), the building block for
/// Spearman correlation.
[[nodiscard]] std::vector<double> ranks(std::span<const double> xs);

}  // namespace usaas::core
