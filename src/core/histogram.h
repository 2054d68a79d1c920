// Binned aggregation: the workhorse behind every panel of Fig 1-3.
//
// The paper plots "engagement metric (mean over sessions) vs network
// metric, binned": Binner1D collects (x, y) pairs into fixed-width x-bins
// and reports the per-bin mean/count. Grid2D does the same over a 2-D
// (latency x loss) grid for Fig 2's compounding heat map.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/stats.h"

namespace usaas::core {

/// One populated bin of a Binner1D series.
struct Bin {
  double lo{0.0};
  double hi{0.0};
  std::size_t count{0};
  double mean_y{0.0};
  /// Bin center, the x used when plotting the curve.
  [[nodiscard]] double center() const { return (lo + hi) / 2.0; }
};

/// Fixed-width 1-D binner over [lo, hi) keeping the running mean of K
/// y-series per bin. Every series sees every row, so the series share one
/// bin index per row and one count per bin: a bin cell is one count and
/// K means, nothing else (curves read only count and mean).
///
/// Each mean follows RunningStats' recurrences verbatim — add:
/// `++n; mean += (y - mean) / n`; merge: `mean += delta * m / (n + m)`,
/// or a copy into an empty bin — so every series reads bit-identical to
/// a RunningStats fed the same rows in the same order and merge tree.
class Binner1D {
 public:
  /// Throws std::invalid_argument unless lo < hi, bins >= 1, series >= 1.
  Binner1D(double lo, double hi, std::size_t bins, std::size_t series = 1);

  /// Adds an (x, y) observation to a one-series binner; x outside
  /// [lo, hi) is ignored (the paper's methodology clamps each sweep to a
  /// fixed metric window).
  void add(double x, double y) {
    const std::size_t bin = bin_index(x);
    if (bin != kNoBin) add_to_bin(bin, [y](std::size_t) { return y; });
  }

  /// The split form of add(): bin_index(x) is the bin add(x, y) files x
  /// under (kNoBin outside [lo, hi)), and add_to_bin(bin_index(x), y)
  /// adds the row. A fused sweep bins each row once and feeds all series.
  static constexpr std::size_t kNoBin = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t bin_index(double x) const {
    if (x < lo_ || x >= hi_) return kNoBin;
    const auto idx = static_cast<std::size_t>((x - lo_) / width_);
    return std::min(idx, counts_.size() - 1);  // float rounding at hi edge
  }
  /// Adds one row to bin `bin`, a non-kNoBin bin_index() result of this
  /// layout: y(k) is the row's value in series k. A caller that knows
  /// series() at compile time passes it as `K`, and the loop unrolls.
  template <std::size_t K = 0, typename YOf>
  void add_to_bin(std::size_t bin, const YOf& y) {
    assert(K == 0 || K == series_);
    const std::size_t series = K != 0 ? K : series_;
    const auto n = static_cast<double>(++counts_[bin]);
    double* mean = means_.data() + bin * series;
    for (std::size_t k = 0; k < series; ++k) {
      mean[k] += (y(k) - mean[k]) / n;
    }
    ++total_;
  }

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t series() const { return series_; }
  [[nodiscard]] std::size_t total_added() const { return total_; }
  /// Heap bytes of the bin cells.
  [[nodiscard]] std::size_t memory_bytes() const {
    return counts_.size() * sizeof(std::size_t) +
           means_.size() * sizeof(double);
  }

  /// Series `s`'s populated bins; empty bins are omitted.
  [[nodiscard]] std::vector<Bin> bins(std::size_t s = 0) const;

  /// Series 0 as (bin center, mean y) for non-empty bins — ready to print.
  [[nodiscard]] std::vector<std::pair<double, double>> curve() const;

  /// Merges another binner with the same [lo, hi) x bins layout and
  /// series count (parallel shard reduction); throws
  /// std::invalid_argument on mismatch.
  void merge(const Binner1D& other);
  /// Merges the chosen series of `other` (same [lo, hi) x bins layout):
  /// series k of this binner takes series from[k] of `other`. Throws
  /// std::invalid_argument on a layout mismatch, when from.size() is not
  /// series(), or when an index is out of range.
  void merge(const Binner1D& other, std::span<const std::size_t> from);

 private:
  /// The merge loop; series k takes series from(k) of `other`.
  template <typename From>
  void merge_series(const Binner1D& other, const From& from);

  double lo_;
  double hi_;
  double width_;
  std::size_t series_;
  std::size_t total_{0};
  std::vector<std::size_t> counts_;  // [bin]
  std::vector<double> means_;        // [bin][series]
};

/// One cell of a Grid2D.
struct GridCell {
  double x_center{0.0};
  double y_center{0.0};
  std::size_t count{0};
  double mean_value{0.0};
};

/// Fixed 2-D grid keeping the running mean of a value per (x, y) cell.
/// A cell is one count and one mean, nothing else (the heat map reads
/// only those), following RunningStats' recurrences verbatim — add:
/// `++n; mean += (v - mean) / n`; merge: `mean += delta * m / (n + m)`,
/// or a copy into an empty cell — so every cell reads bit-identical to a
/// RunningStats fed the same values in the same order and merge tree.
class Grid2D {
 public:
  Grid2D(double x_lo, double x_hi, std::size_t x_bins,
         double y_lo, double y_hi, std::size_t y_bins);

  /// Adds an observation; coordinates outside the grid are ignored.
  /// Inline: the summary fold calls it once per row and grid.
  void add(double x, double y, double value) {
    if (x < x_lo_ || x >= x_hi_ || y < y_lo_ || y >= y_hi_) return;
    const auto xi =
        std::min(static_cast<std::size_t>((x - x_lo_) / x_width_), x_bins_ - 1);
    const auto yi =
        std::min(static_cast<std::size_t>((y - y_lo_) / y_width_), y_bins_ - 1);
    const std::size_t c = index(xi, yi);
    const auto n = static_cast<double>(++counts_[c]);
    means_[c] += (value - means_[c]) / n;
  }

  [[nodiscard]] std::size_t x_bins() const { return x_bins_; }
  [[nodiscard]] std::size_t y_bins() const { return y_bins_; }
  /// Heap bytes of the cells.
  [[nodiscard]] std::size_t memory_bytes() const {
    return counts_.size() * sizeof(std::size_t) +
           means_.size() * sizeof(double);
  }

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
  double x_width_, y_width_;
  std::vector<std::size_t> counts_;  // [cell]
  std::vector<double> means_;        // [cell]
};

}  // namespace usaas::core
