#include "core/histogram.h"

#include <algorithm>
#include <stdexcept>

namespace usaas::core {

Binner1D::Binner1D(double lo, double hi, std::size_t bins,
                   std::size_t series)
    : lo_{lo},
      hi_{hi},
      width_{(hi - lo) / static_cast<double>(bins)},
      series_{series} {
  if (!(lo < hi)) throw std::invalid_argument("Binner1D: lo must be < hi");
  if (bins == 0) throw std::invalid_argument("Binner1D: bins must be >= 1");
  if (series == 0) {
    throw std::invalid_argument("Binner1D: series must be >= 1");
  }
  counts_.resize(bins);
  means_.resize(bins * series);
}

std::vector<Bin> Binner1D::bins(std::size_t s) const {
  if (s >= series_) throw std::out_of_range("Binner1D::bins: no such series");
  std::vector<Bin> out;
  out.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    Bin b;
    b.lo = lo_ + width_ * static_cast<double>(i);
    b.hi = b.lo + width_;
    b.count = counts_[i];
    b.mean_y = means_[i * series_ + s];
    out.push_back(b);
  }
  return out;
}

std::vector<std::pair<double, double>> Binner1D::curve() const {
  std::vector<std::pair<double, double>> out;
  for (const Bin& b : bins()) out.emplace_back(b.center(), b.mean_y);
  return out;
}

void Binner1D::merge(const Binner1D& other) {
  if (other.series_ != series_) {
    throw std::invalid_argument("Binner1D::merge: series count mismatch");
  }
  merge_series(other, [](std::size_t k) { return k; });
}

void Binner1D::merge(const Binner1D& other,
                     std::span<const std::size_t> from) {
  if (from.size() != series_) {
    throw std::invalid_argument("Binner1D::merge: one source per series");
  }
  for (const std::size_t f : from) {
    if (f >= other.series_) {
      throw std::invalid_argument("Binner1D::merge: no such source series");
    }
  }
  merge_series(other, [from](std::size_t k) { return from[k]; });
}

template <typename From>
void Binner1D::merge_series(const Binner1D& other, const From& from) {
  if (other.lo_ != lo_ || other.hi_ != hi_ ||
      other.counts_.size() != counts_.size()) {
    throw std::invalid_argument("Binner1D::merge: layout mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t m_count = other.counts_[i];
    if (m_count == 0) continue;
    double* mean = means_.data() + i * series_;
    const double* src = other.means_.data() + i * other.series_;
    if (counts_[i] == 0) {
      for (std::size_t k = 0; k < series_; ++k) mean[k] = src[from(k)];
    } else {
      const auto n = static_cast<double>(counts_[i]);
      const auto m = static_cast<double>(m_count);
      for (std::size_t k = 0; k < series_; ++k) {
        const double delta = src[from(k)] - mean[k];
        mean[k] += delta * m / (n + m);
      }
    }
    counts_[i] += m_count;
  }
  total_ += other.total_;
}

Grid2D::Grid2D(double x_lo, double x_hi, std::size_t x_bins,
               double y_lo, double y_hi, std::size_t y_bins)
    : x_lo_{x_lo}, x_hi_{x_hi}, y_lo_{y_lo}, y_hi_{y_hi},
      x_bins_{x_bins}, y_bins_{y_bins},
      x_width_{(x_hi - x_lo) / static_cast<double>(x_bins)},
      y_width_{(y_hi - y_lo) / static_cast<double>(y_bins)} {
  if (!(x_lo < x_hi) || !(y_lo < y_hi)) {
    throw std::invalid_argument("Grid2D: lo must be < hi");
  }
  if (x_bins == 0 || y_bins == 0) {
    throw std::invalid_argument("Grid2D: bins must be >= 1");
  }
  counts_.resize(x_bins * y_bins);
  means_.resize(x_bins * y_bins);
}

std::optional<double> Grid2D::cell_mean(std::size_t xi, std::size_t yi) const {
  const std::size_t c = index(xi, yi);
  if (counts_.at(c) == 0) return std::nullopt;
  return means_[c];
}

std::size_t Grid2D::cell_count(std::size_t xi, std::size_t yi) const {
  return counts_.at(index(xi, yi));
}

std::vector<GridCell> Grid2D::cells() const {
  std::vector<GridCell> out;
  for (std::size_t yi = 0; yi < y_bins_; ++yi) {
    for (std::size_t xi = 0; xi < x_bins_; ++xi) {
      const std::size_t c = index(xi, yi);
      if (counts_[c] == 0) continue;
      GridCell cell;
      cell.x_center = x_lo_ + x_width_ * (static_cast<double>(xi) + 0.5);
      cell.y_center = y_lo_ + y_width_ * (static_cast<double>(yi) + 0.5);
      cell.count = counts_[c];
      cell.mean_value = means_[c];
      out.push_back(cell);
    }
  }
  return out;
}

std::optional<double> Grid2D::max_cell_mean() const {
  std::optional<double> best;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    if (counts_[c] == 0) continue;
    if (!best || means_[c] > *best) best = means_[c];
  }
  return best;
}

void Grid2D::merge(const Grid2D& other) {
  if (other.x_lo_ != x_lo_ || other.x_hi_ != x_hi_ || other.y_lo_ != y_lo_ ||
      other.y_hi_ != y_hi_ || other.x_bins_ != x_bins_ ||
      other.y_bins_ != y_bins_) {
    throw std::invalid_argument("Grid2D::merge: layout mismatch");
  }
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    const std::size_t m_count = other.counts_[c];
    if (m_count == 0) continue;
    if (counts_[c] == 0) {
      means_[c] = other.means_[c];
    } else {
      const auto n = static_cast<double>(counts_[c]);
      const auto m = static_cast<double>(m_count);
      const double delta = other.means_[c] - means_[c];
      means_[c] += delta * m / (n + m);
    }
    counts_[c] += m_count;
  }
}

std::optional<double> Grid2D::min_cell_mean() const {
  std::optional<double> worst;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    if (counts_[c] == 0) continue;
    if (!worst || means_[c] < *worst) worst = means_[c];
  }
  return worst;
}

}  // namespace usaas::core
