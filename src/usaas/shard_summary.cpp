#include "usaas/shard_summary.h"

#include <stdexcept>

namespace usaas::service {

std::vector<SummaryAxis> default_summary_axes() {
  return {
      {netsim::Metric::kLatency, 0.0, 300.0, 10},
      {netsim::Metric::kLoss, 0.0, 10.0, 10},
      {netsim::Metric::kJitter, 0.0, 80.0, 10},
      {netsim::Metric::kBandwidth, 0.0, 200.0, 10},
  };
}

ShardSummary::ShardSummary(const SummaryConfig& config)
    : enabled_{true}, axes_{config.axes}, grid_layout_{config.grid} {
  for (const SummaryAxis& axis : axes_) {
    // Binner1D validates lo < hi, bins >= 1 — a bad axis throws here, at
    // configuration time, not on the first fold.
    for (int access = 0; access < netsim::kNumAccessTechnologies; ++access) {
      binners_.emplace_back(axis.lo, axis.hi, axis.bins,
                            kNumEngagementMetrics);
    }
  }
  for (int eng = 0; eng < kNumEngagementMetrics; ++eng) {
    grids_.emplace_back(0.0, grid_layout_.latency_hi_ms, grid_layout_.lat_bins,
                        0.0, grid_layout_.loss_hi_pct, grid_layout_.loss_bins);
  }
}

void ShardSummary::fold(const SessionColumns& cols, std::size_t begin,
                        std::size_t end) {
  if (!enabled_) return;
  const std::uint8_t* access_col = cols.access.data();
  const double* pres = cols.presence.data();
  const double* cam = cols.cam_on.data();
  const double* mic = cols.mic_on.data();
  const double* lat = cols.latency_mean.data();
  const double* loss = cols.loss_mean.data();
  const std::uint8_t* valid = cols.mos_valid.data();
  const double* mos_col = cols.mos.data();
  // Hoist the per-axis mean columns: metric_value(mean_conditions(), m)
  // row-wise is exactly mean_column(m)[i], so every add below feeds the
  // value a row scan of the same axis would bin.
  std::vector<const double*> axis_cols(axes_.size());
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    axis_cols[a] = cols.mean_column(axes_[a].metric);
  }
  for (std::size_t i = begin; i < end; ++i) {
    const auto access = static_cast<std::size_t>(access_col[i]);
    const std::array<double, kNumEngagementMetrics> eng{pres[i], cam[i],
                                                        mic[i]};
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      core::Binner1D& binner = binners_[binner_index(a, access)];
      const std::size_t bin = binner.bin_index(axis_cols[a][i]);
      if (bin == core::Binner1D::kNoBin) continue;
      binner.add_to_bin<kNumEngagementMetrics>(
          bin, [&eng](std::size_t m) { return eng[m]; });
    }
    for (std::size_t m = 0; m < grids_.size(); ++m) {
      grids_[m].add(lat[i], loss[i], eng[m]);
    }
    ++all_.sessions;
    ++by_access_[access].sessions;
    if (valid[i] != 0) {
      const double score = mos_col[i];
      all_.observed_mos_sum += score;
      ++all_.rated;
      by_access_[access].observed_mos_sum += score;
      ++by_access_[access].rated;
      rated_.push_back({eng, score});
    }
  }
}

void ShardSummary::merge(const ShardSummary& other) {
  if (!enabled_ && !other.enabled_) return;
  if (enabled_ != other.enabled_ || axes_ != other.axes_ ||
      !(grid_layout_ == other.grid_layout_)) {
    throw std::invalid_argument("ShardSummary::merge: layout mismatch");
  }
  for (std::size_t i = 0; i < binners_.size(); ++i) {
    binners_[i].merge(other.binners_[i]);
  }
  for (std::size_t i = 0; i < grids_.size(); ++i) {
    grids_[i].merge(other.grids_[i]);
  }
  all_.merge(other.all_);
  for (std::size_t i = 0; i < by_access_.size(); ++i) {
    by_access_[i].merge(other.by_access_[i]);
  }
  rated_.insert(rated_.end(), other.rated_.begin(), other.rated_.end());
}

std::optional<std::size_t> ShardSummary::axis_for(netsim::Metric metric,
                                                  double lo, double hi,
                                                  std::size_t bins) const {
  const SummaryAxis wanted{metric, lo, hi, bins};
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    if (axes_[a] == wanted) return a;
  }
  return std::nullopt;
}

void ShardSummary::add_curve_to(
    core::Binner1D& dst, std::size_t axis,
    std::span<const EngagementMetric> engagements,
    std::optional<netsim::AccessTechnology> access) const {
  std::array<std::size_t, kNumEngagementMetrics> from{};
  if (engagements.size() > from.size()) {
    throw std::invalid_argument("ShardSummary::add_curve_to: too many series");
  }
  for (std::size_t k = 0; k < engagements.size(); ++k) {
    from[k] = static_cast<std::size_t>(engagements[k]);
  }
  const std::span<const std::size_t> series{from.data(), engagements.size()};
  if (access) {
    dst.merge(binners_[binner_index(axis, static_cast<std::size_t>(*access))],
              series);
    return;
  }
  for (std::size_t a = 0; a < netsim::kNumAccessTechnologies; ++a) {
    dst.merge(binners_[binner_index(axis, a)], series);
  }
}

bool ShardSummary::add_grid_to(core::Grid2D& dst, EngagementMetric engagement,
                               const SummaryGrid& layout) const {
  if (!enabled_ || !(layout == grid_layout_)) return false;
  dst.merge(grids_[static_cast<std::size_t>(engagement)]);
  return true;
}

const SummaryTally& ShardSummary::tally(
    std::optional<netsim::AccessTechnology> access) const {
  return access ? by_access_[static_cast<std::size_t>(*access)] : all_;
}

void ShardSummary::clear_predicted() {
  all_.predicted_mos_sum = 0.0;
  all_.predicted = 0;
  for (SummaryTally& t : by_access_) {
    t.predicted_mos_sum = 0.0;
    t.predicted = 0;
  }
}

std::size_t ShardSummary::memory_bytes() const {
  std::size_t bytes = sizeof(ShardSummary);
  for (const core::Binner1D& b : binners_) bytes += b.memory_bytes();
  for (const core::Grid2D& g : grids_) bytes += g.memory_bytes();
  bytes += rated_.size() * sizeof(RatedSample);
  return bytes;
}

}  // namespace usaas::service
