#include "core/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/stats.h"

namespace usaas::core {
namespace {

TEST(Binner1D, RejectsBadConstruction) {
  EXPECT_THROW(Binner1D(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Binner1D(2.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Binner1D(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Binner1D, MeansPerBin) {
  Binner1D b{0.0, 10.0, 2};
  b.add(1.0, 10.0);
  b.add(2.0, 20.0);
  b.add(7.0, 100.0);
  const auto bins = b.bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(bins[0].mean_y, 15.0);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_DOUBLE_EQ(bins[0].center(), 2.5);
  EXPECT_DOUBLE_EQ(bins[1].mean_y, 100.0);
}

TEST(Binner1D, OutOfRangeIgnored) {
  Binner1D b{0.0, 10.0, 5};
  b.add(-0.1, 1.0);
  b.add(10.0, 1.0);  // hi edge is exclusive
  EXPECT_EQ(b.total_added(), 0u);
  EXPECT_TRUE(b.bins().empty());
}

TEST(Binner1D, EmptyBinsOmitted) {
  Binner1D b{0.0, 10.0, 10};
  b.add(0.5, 1.0);
  b.add(9.5, 2.0);
  EXPECT_EQ(b.bins().size(), 2u);
  const auto curve = b.curve();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].first, 0.5);
  EXPECT_DOUBLE_EQ(curve[1].first, 9.5);
}

TEST(Binner1D, EdgeValueLandsInBin) {
  Binner1D b{0.0, 1.0, 4};
  b.add(0.25, 1.0);  // exactly on a boundary -> second bin
  const auto bins = b.bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_DOUBLE_EQ(bins[0].lo, 0.25);
}

TEST(Grid2D, CellAggregation) {
  Grid2D g{0.0, 10.0, 2, 0.0, 10.0, 2};
  g.add(1.0, 1.0, 10.0);
  g.add(2.0, 2.0, 20.0);
  g.add(8.0, 8.0, 100.0);
  EXPECT_EQ(g.cell_count(0, 0), 2u);
  EXPECT_DOUBLE_EQ(*g.cell_mean(0, 0), 15.0);
  EXPECT_FALSE(g.cell_mean(1, 0).has_value());
  EXPECT_DOUBLE_EQ(*g.cell_mean(1, 1), 100.0);
}

TEST(Grid2D, MinMaxCellMeans) {
  Grid2D g{0.0, 4.0, 2, 0.0, 4.0, 2};
  EXPECT_FALSE(g.max_cell_mean().has_value());
  g.add(1.0, 1.0, 50.0);
  g.add(3.0, 3.0, 10.0);
  EXPECT_DOUBLE_EQ(*g.max_cell_mean(), 50.0);
  EXPECT_DOUBLE_EQ(*g.min_cell_mean(), 10.0);
}

TEST(Grid2D, CellsReportCenters) {
  Grid2D g{0.0, 4.0, 2, 0.0, 2.0, 1};
  g.add(0.5, 0.5, 7.0);
  const auto cells = g.cells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].x_center, 1.0);
  EXPECT_DOUBLE_EQ(cells[0].y_center, 1.0);
  EXPECT_DOUBLE_EQ(cells[0].mean_value, 7.0);
}

TEST(Grid2D, OutOfRangeIgnored) {
  Grid2D g{0.0, 1.0, 1, 0.0, 1.0, 1};
  g.add(-0.5, 0.5, 1.0);
  g.add(0.5, 1.5, 1.0);
  EXPECT_EQ(g.cell_count(0, 0), 0u);
}

TEST(Binner1D, MergeMatchesSequentialFill) {
  Binner1D whole{0.0, 10.0, 4};
  Binner1D left{0.0, 10.0, 4};
  Binner1D right{0.0, 10.0, 4};
  for (int i = 0; i < 40; ++i) {
    const double x = 0.25 * i;
    const double y = 3.0 * i - 17.0;
    whole.add(x, y);
    (i < 20 ? left : right).add(x, y);
  }
  left.merge(right);
  EXPECT_EQ(left.total_added(), whole.total_added());
  const auto merged_bins = left.bins();
  const auto whole_bins = whole.bins();
  ASSERT_EQ(merged_bins.size(), whole_bins.size());
  for (std::size_t i = 0; i < whole_bins.size(); ++i) {
    EXPECT_EQ(merged_bins[i].count, whole_bins[i].count);
    EXPECT_NEAR(merged_bins[i].mean_y, whole_bins[i].mean_y, 1e-12);
  }
}

TEST(Binner1D, MergeWithEmptySidesIsIdentity) {
  Binner1D filled{0.0, 1.0, 2};
  filled.add(0.1, 5.0);
  Binner1D empty{0.0, 1.0, 2};
  filled.merge(empty);            // empty right side
  empty.merge(filled);            // empty left side
  ASSERT_EQ(empty.bins().size(), 1u);
  EXPECT_DOUBLE_EQ(empty.bins()[0].mean_y, 5.0);
}

TEST(Binner1D, MergeRejectsLayoutMismatch) {
  Binner1D a{0.0, 10.0, 4};
  Binner1D bins_differ{0.0, 10.0, 5};
  Binner1D range_differs{0.0, 20.0, 4};
  EXPECT_THROW(a.merge(bins_differ), std::invalid_argument);
  EXPECT_THROW(a.merge(range_differs), std::invalid_argument);
}

// ---- Shared-count bins: one count and K running means per bin ---------

std::uint64_t next_u64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& s) {
  return static_cast<double>(next_u64(s) >> 11) * 0x1.0p-53;
}

constexpr std::size_t kSeries = 3;

/// A row: x (a fifth of them outside [0, 10)) and one y per series.
struct Row {
  double x;
  std::array<double, kSeries> y;
};

std::vector<Row> random_rows(std::uint64_t seed, std::size_t n) {
  std::vector<Row> rows(n);
  for (Row& r : rows) {
    r.x = -2.0 + 14.0 * unit(seed);
    for (double& y : r.y) y = 100.0 * unit(seed) - 20.0;
  }
  return rows;
}

void add_rows(Binner1D& b, const std::vector<Row>& rows, std::size_t begin,
              std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t bin = b.bin_index(rows[i].x);
    if (bin == Binner1D::kNoBin) continue;
    b.add_to_bin(bin, [&](std::size_t k) { return rows[i].y[k]; });
  }
}

/// The bin cell before the shared count: a full RunningStats per bin and
/// series, binned and merged exactly as Binner1D does.
struct StatsBins {
  std::array<std::vector<RunningStats>, kSeries> cells;
  explicit StatsBins(std::size_t bins) {
    for (auto& series : cells) series.resize(bins);
  }
  void add_rows(const Binner1D& layout, const std::vector<Row>& rows,
                std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t bin = layout.bin_index(rows[i].x);
      if (bin == Binner1D::kNoBin) continue;
      for (std::size_t k = 0; k < kSeries; ++k) {
        cells[k][bin].add(rows[i].y[k]);
      }
    }
  }
  void merge(const StatsBins& other) {
    for (std::size_t k = 0; k < kSeries; ++k) {
      for (std::size_t b = 0; b < cells[k].size(); ++b) {
        cells[k][b].merge(other.cells[k][b]);
      }
    }
  }
};

void expect_bins_eq(const std::vector<Bin>& got, const std::vector<Bin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].lo, want[i].lo) << "bin " << i;
    EXPECT_EQ(got[i].hi, want[i].hi) << "bin " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "bin " << i;
    EXPECT_EQ(got[i].mean_y, want[i].mean_y) << "bin " << i;
  }
}

void expect_matches_stats(const Binner1D& got, const StatsBins& want) {
  for (std::size_t k = 0; k < kSeries; ++k) {
    std::size_t i = 0;
    for (std::size_t b = 0; b < want.cells[k].size(); ++b) {
      const RunningStats& cell = want.cells[k][b];
      if (cell.empty()) continue;
      const std::vector<Bin> bins = got.bins(k);
      ASSERT_LT(i, bins.size()) << "series " << k;
      EXPECT_EQ(bins[i].count, cell.count()) << "series " << k << " bin " << b;
      EXPECT_EQ(bins[i].mean_y, cell.mean()) << "series " << k << " bin " << b;
      ++i;
    }
    EXPECT_EQ(got.bins(k).size(), i) << "series " << k;
  }
}

TEST(Binner1D, RejectsZeroSeriesAndForeignSeries) {
  EXPECT_THROW(Binner1D(0.0, 1.0, 4, 0), std::invalid_argument);
  Binner1D three{0.0, 10.0, 4, 3};
  Binner1D one{0.0, 10.0, 4};
  EXPECT_THROW(one.merge(three), std::invalid_argument);
  const std::size_t too_many[] = {0, 1};
  EXPECT_THROW(one.merge(three, too_many), std::invalid_argument);
  const std::size_t out_of_range[] = {3};
  EXPECT_THROW(one.merge(three, out_of_range), std::invalid_argument);
  EXPECT_THROW((void)one.bins(1), std::out_of_range);
}

TEST(Binner1D, KSeriesBinnerEqualsKSingleSeriesBinners) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::vector<Row> rows = random_rows(seed, 4000);
    Binner1D fused{0.0, 10.0, 7, kSeries};
    add_rows(fused, rows, 0, rows.size());
    for (std::size_t k = 0; k < kSeries; ++k) {
      Binner1D single{0.0, 10.0, 7};
      for (const Row& r : rows) single.add(r.x, r.y[k]);
      EXPECT_EQ(fused.total_added(), single.total_added());
      expect_bins_eq(fused.bins(k), single.bins());
    }
  }
}

TEST(Binner1D, AnySplitAndMergeGroupingMatchesRunningStatsBitForBit) {
  // A merged mean is not the one-pass mean bit for bit in general, so each
  // grouping is checked against RunningStats cells fed the same grouping;
  // counts must also equal the one-pass counts. Groupings: one pass,
  // random chunks folded left to right, and the same chunks merged as a
  // balanced tree (the per-shard partials, then a pairwise reduction).
  std::uint64_t seed = 99;
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = 1 + next_u64(seed) % 3000;
    const std::vector<Row> rows = random_rows(next_u64(seed), n);
    const Binner1D layout{0.0, 10.0, 9};
    std::vector<std::size_t> cuts{0};
    while (cuts.back() < n) {
      cuts.push_back(std::min(n, cuts.back() + 1 + next_u64(seed) % 400));
    }
    std::vector<Binner1D> parts;
    std::vector<StatsBins> stat_parts;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      parts.emplace_back(0.0, 10.0, 9, kSeries);
      add_rows(parts.back(), rows, cuts[c], cuts[c + 1]);
      stat_parts.emplace_back(9);
      stat_parts.back().add_rows(layout, rows, cuts[c], cuts[c + 1]);
    }

    Binner1D one_pass{0.0, 10.0, 9, kSeries};
    add_rows(one_pass, rows, 0, n);
    StatsBins one_pass_stats{9};
    one_pass_stats.add_rows(layout, rows, 0, n);
    expect_matches_stats(one_pass, one_pass_stats);

    Binner1D folded{0.0, 10.0, 9, kSeries};
    StatsBins folded_stats{9};
    for (std::size_t p = 0; p < parts.size(); ++p) {
      folded.merge(parts[p]);
      folded_stats.merge(stat_parts[p]);
    }
    expect_matches_stats(folded, folded_stats);

    while (parts.size() > 1) {
      std::vector<Binner1D> next;
      std::vector<StatsBins> next_stats;
      for (std::size_t p = 0; p < parts.size(); p += 2) {
        next.push_back(parts[p]);
        next_stats.push_back(stat_parts[p]);
        if (p + 1 < parts.size()) {
          next.back().merge(parts[p + 1]);
          next_stats.back().merge(stat_parts[p + 1]);
        }
      }
      parts = std::move(next);
      stat_parts = std::move(next_stats);
    }
    expect_matches_stats(parts.front(), stat_parts.front());

    EXPECT_EQ(folded.total_added(), one_pass.total_added());
    EXPECT_EQ(parts.front().total_added(), one_pass.total_added());
    for (std::size_t k = 0; k < kSeries; ++k) {
      const std::vector<Bin> want = one_pass.bins(k);
      for (const Binner1D* got : {&folded, &parts.front()}) {
        const std::vector<Bin> bins = got->bins(k);
        ASSERT_EQ(bins.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(bins[i].count, want[i].count);
        }
      }
    }
  }
}

TEST(Binner1D, SeriesSelectingMergeEqualsMergingSingleSeries) {
  // merge(other, from): series k takes series from[k] — the summary path
  // merging a chosen subset of a shard's engagement series.
  const std::vector<Row> a_rows = random_rows(5, 900);
  const std::vector<Row> b_rows = random_rows(6, 1100);
  Binner1D src_a{0.0, 10.0, 6, kSeries};
  Binner1D src_b{0.0, 10.0, 6, kSeries};
  add_rows(src_a, a_rows, 0, a_rows.size());
  add_rows(src_b, b_rows, 0, b_rows.size());
  const std::size_t from[] = {2, 0};
  Binner1D picked{0.0, 10.0, 6, 2};
  picked.merge(src_a, from);
  picked.merge(src_b, from);
  for (std::size_t k = 0; k < 2; ++k) {
    Binner1D single_a{0.0, 10.0, 6};
    Binner1D single_b{0.0, 10.0, 6};
    for (const Row& r : a_rows) single_a.add(r.x, r.y[from[k]]);
    for (const Row& r : b_rows) single_b.add(r.x, r.y[from[k]]);
    Binner1D want{0.0, 10.0, 6};
    want.merge(single_a);
    want.merge(single_b);
    expect_bins_eq(picked.bins(k), want.bins());
  }
}

TEST(Grid2D, MergeMatchesSequentialFill) {
  Grid2D whole{0.0, 4.0, 2, 0.0, 4.0, 2};
  Grid2D a{0.0, 4.0, 2, 0.0, 4.0, 2};
  Grid2D b{0.0, 4.0, 2, 0.0, 4.0, 2};
  for (int i = 0; i < 32; ++i) {
    const double x = (i % 8) * 0.5;
    const double y = (i % 4) * 1.0;
    const double v = 1.0 + i;
    whole.add(x, y, v);
    (i % 2 == 0 ? a : b).add(x, y, v);
  }
  a.merge(b);
  for (std::size_t yi = 0; yi < 2; ++yi) {
    for (std::size_t xi = 0; xi < 2; ++xi) {
      EXPECT_EQ(a.cell_count(xi, yi), whole.cell_count(xi, yi));
      ASSERT_EQ(a.cell_mean(xi, yi).has_value(),
                whole.cell_mean(xi, yi).has_value());
      if (whole.cell_mean(xi, yi)) {
        EXPECT_NEAR(*a.cell_mean(xi, yi), *whole.cell_mean(xi, yi), 1e-12);
      }
    }
  }
}

/// The grid cell before count + mean: a full RunningStats per cell, with
/// the cell index computed as Grid2D always has.
struct StatsGrid {
  double x_lo, x_hi, y_lo, y_hi;
  std::size_t x_bins, y_bins;
  std::vector<RunningStats> cells;
  StatsGrid(double xl, double xh, std::size_t xb, double yl, double yh,
            std::size_t yb)
      : x_lo{xl}, x_hi{xh}, y_lo{yl}, y_hi{yh}, x_bins{xb}, y_bins{yb},
        cells(xb * yb) {}
  void add(double x, double y, double v) {
    if (x < x_lo || x >= x_hi || y < y_lo || y >= y_hi) return;
    const double xw = (x_hi - x_lo) / static_cast<double>(x_bins);
    const double yw = (y_hi - y_lo) / static_cast<double>(y_bins);
    const auto xi =
        std::min(static_cast<std::size_t>((x - x_lo) / xw), x_bins - 1);
    const auto yi =
        std::min(static_cast<std::size_t>((y - y_lo) / yw), y_bins - 1);
    cells[yi * x_bins + xi].add(v);
  }
  void merge(const StatsGrid& other) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      cells[c].merge(other.cells[c]);
    }
  }
};

void expect_grid_matches_stats(const Grid2D& got, const StatsGrid& want) {
  std::optional<double> best;
  std::optional<double> worst;
  std::size_t populated = 0;
  for (std::size_t yi = 0; yi < want.y_bins; ++yi) {
    for (std::size_t xi = 0; xi < want.x_bins; ++xi) {
      const RunningStats& cell = want.cells[yi * want.x_bins + xi];
      EXPECT_EQ(got.cell_count(xi, yi), cell.count());
      ASSERT_EQ(got.cell_mean(xi, yi).has_value(), !cell.empty());
      if (cell.empty()) continue;
      EXPECT_EQ(*got.cell_mean(xi, yi), cell.mean());
      if (!best || cell.mean() > *best) best = cell.mean();
      if (!worst || cell.mean() < *worst) worst = cell.mean();
      ++populated;
    }
  }
  EXPECT_EQ(got.cells().size(), populated);
  EXPECT_EQ(got.max_cell_mean(), best);
  EXPECT_EQ(got.min_cell_mean(), worst);
}

TEST(Grid2D, AnySplitAndMergeGroupingMatchesRunningStatsBitForBit) {
  // Fig 2's latency x loss layout (the summary grid) plus a small odd
  // one. Each cell must read as a RunningStats fed the same values in
  // the same grouping: one pass, random chunks folded left to right (the
  // shard partials merged in key order), and the chunks merged as a
  // balanced tree.
  struct Layout {
    double x_hi;
    std::size_t x_bins;
    double y_hi;
    std::size_t y_bins;
  };
  const Layout layouts[] = {{320.0, 8, 3.4, 8}, {7.0, 3, 5.0, 5}};
  std::uint64_t seed = 2022;
  for (const Layout& l : layouts) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t n = 1 + next_u64(seed) % 4000;
      struct Obs {
        double x, y, v;
      };
      std::vector<Obs> obs(n);
      for (Obs& o : obs) {  // about a tenth outside the grid on each axis
        o.x = l.x_hi * (1.2 * unit(seed) - 0.1);
        o.y = l.y_hi * (1.2 * unit(seed) - 0.1);
        o.v = 100.0 * unit(seed);
      }
      const auto grid = [&] { return Grid2D{0.0, l.x_hi, l.x_bins,
                                            0.0, l.y_hi, l.y_bins}; };
      const auto stats = [&] { return StatsGrid{0.0, l.x_hi, l.x_bins,
                                                0.0, l.y_hi, l.y_bins}; };
      std::vector<std::size_t> cuts{0};
      while (cuts.back() < n) {
        cuts.push_back(std::min(n, cuts.back() + 1 + next_u64(seed) % 500));
      }
      std::vector<Grid2D> parts;
      std::vector<StatsGrid> stat_parts;
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        parts.push_back(grid());
        stat_parts.push_back(stats());
        for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) {
          parts.back().add(obs[i].x, obs[i].y, obs[i].v);
          stat_parts.back().add(obs[i].x, obs[i].y, obs[i].v);
        }
      }

      Grid2D one_pass = grid();
      StatsGrid one_pass_stats = stats();
      for (const Obs& o : obs) {
        one_pass.add(o.x, o.y, o.v);
        one_pass_stats.add(o.x, o.y, o.v);
      }
      expect_grid_matches_stats(one_pass, one_pass_stats);

      Grid2D folded = grid();
      StatsGrid folded_stats = stats();
      for (std::size_t p = 0; p < parts.size(); ++p) {
        folded.merge(parts[p]);
        folded_stats.merge(stat_parts[p]);
      }
      expect_grid_matches_stats(folded, folded_stats);

      while (parts.size() > 1) {
        std::vector<Grid2D> next;
        std::vector<StatsGrid> next_stats;
        for (std::size_t p = 0; p < parts.size(); p += 2) {
          next.push_back(parts[p]);
          next_stats.push_back(stat_parts[p]);
          if (p + 1 < parts.size()) {
            next.back().merge(parts[p + 1]);
            next_stats.back().merge(stat_parts[p + 1]);
          }
        }
        parts = std::move(next);
        stat_parts = std::move(next_stats);
      }
      expect_grid_matches_stats(parts.front(), stat_parts.front());
    }
  }
}

TEST(Grid2D, MergeRejectsLayoutMismatch) {
  Grid2D a{0.0, 4.0, 2, 0.0, 4.0, 2};
  Grid2D different{0.0, 4.0, 2, 0.0, 8.0, 2};
  EXPECT_THROW(a.merge(different), std::invalid_argument);
}

}  // namespace
}  // namespace usaas::core
