// Binned aggregation: the workhorse behind every panel of Fig 1-3.
//
// The paper plots "engagement metric (mean over sessions) vs network
// metric, binned": Binner1D collects (x, y) pairs into fixed-width x-bins
// and reports the per-bin mean/count. Grid2D does the same over a 2-D
// (latency x loss) grid for Fig 2's compounding heat map.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/stats.h"

namespace usaas::core {

/// One populated bin of a Binner1D.
struct Bin {
  double lo{0.0};
  double hi{0.0};
  std::size_t count{0};
  double mean_y{0.0};
  /// Bin center, the x used when plotting the curve.
  [[nodiscard]] double center() const { return (lo + hi) / 2.0; }
};

/// Fixed-width 1-D binner over [lo, hi) accumulating a y-statistic per bin.
class Binner1D {
 public:
  /// Throws std::invalid_argument unless lo < hi and bins >= 1.
  Binner1D(double lo, double hi, std::size_t bins);

  /// Adds an (x, y) observation; x outside [lo, hi) is ignored (the paper's
  /// methodology clamps each sweep to a fixed metric window).
  void add(double x, double y);

  /// The split form of add(): bin_index(x) is the bin add(x, y) files x
  /// under (kNoBin outside [lo, hi)), and add_to_bin(bin_index(x), y) is
  /// exactly add(x, y). Binners sharing one layout can reuse a single
  /// index — a fused sweep bins each row once and feeds several y-columns.
  static constexpr std::size_t kNoBin = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t bin_index(double x) const {
    if (x < lo_ || x >= hi_) return kNoBin;
    const auto idx = static_cast<std::size_t>((x - lo_) / width_);
    return std::min(idx, stats_.size() - 1);  // float rounding at hi edge
  }
  /// Adds y to bin `bin`, a non-kNoBin bin_index() result of this layout.
  void add_to_bin(std::size_t bin, double y) {
    stats_[bin].add(y);
    ++total_;
  }

  [[nodiscard]] std::size_t bin_count() const { return stats_.size(); }
  [[nodiscard]] std::size_t total_added() const { return total_; }

  /// Per-bin results; empty bins are omitted.
  [[nodiscard]] std::vector<Bin> bins() const;

  /// The curve as (bin center, mean y) for non-empty bins — ready to print.
  [[nodiscard]] std::vector<std::pair<double, double>> curve() const;

  /// Per-bin full accumulator, for callers that need stddev/count too.
  [[nodiscard]] const RunningStats& bin_stats(std::size_t i) const;

  /// Merges another binner with the same [lo, hi) x bins layout (parallel
  /// shard reduction); throws std::invalid_argument on layout mismatch.
  void merge(const Binner1D& other);

 private:
  double lo_;
  double hi_;
  double width_;
  std::size_t total_{0};
  std::vector<RunningStats> stats_;
};

/// One cell of a Grid2D.
struct GridCell {
  double x_center{0.0};
  double y_center{0.0};
  std::size_t count{0};
  double mean_value{0.0};
};

/// Fixed 2-D grid accumulating a value statistic per (x, y) cell.
class Grid2D {
 public:
  Grid2D(double x_lo, double x_hi, std::size_t x_bins,
         double y_lo, double y_hi, std::size_t y_bins);

  /// Adds an observation; coordinates outside the grid are ignored.
  void add(double x, double y, double value);

  [[nodiscard]] std::size_t x_bins() const { return x_bins_; }
  [[nodiscard]] std::size_t y_bins() const { return y_bins_; }

  /// Mean value in cell (xi, yi); nullopt when the cell is empty.
  [[nodiscard]] std::optional<double> cell_mean(std::size_t xi,
                                                std::size_t yi) const;
  [[nodiscard]] std::size_t cell_count(std::size_t xi, std::size_t yi) const;

  /// All populated cells (row-major), for rendering the heat map.
  [[nodiscard]] std::vector<GridCell> cells() const;

  /// Max and min of the populated cell means; nullopt when the grid is
  /// entirely empty. Fig 2 reports the dip "relative to the best value
  /// across all combinations", i.e. 100 * min / max.
  [[nodiscard]] std::optional<double> max_cell_mean() const;
  [[nodiscard]] std::optional<double> min_cell_mean() const;

  /// Merges another grid with identical extents and bin counts (parallel
  /// shard reduction); throws std::invalid_argument on layout mismatch.
  void merge(const Grid2D& other);

 private:
  [[nodiscard]] std::size_t index(std::size_t xi, std::size_t yi) const {
    return yi * x_bins_ + xi;
  }

  double x_lo_, x_hi_, y_lo_, y_hi_;
  std::size_t x_bins_, y_bins_;
  std::vector<RunningStats> stats_;
};

}  // namespace usaas::core
