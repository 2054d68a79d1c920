// Mergeable per-shard summaries: the tier-2 query accelerator.
//
// Every (month x platform) session shard maintains a ShardSummary folded
// incrementally at ingest (batch pass 3, which every StreamIngestor flush
// also goes through), straight from the shard's new column rows. A
// summary holds, per access technology:
//   * one core::Binner1D per configured sweep axis, with one series per
//     engagement metric — per bin one count and three running means,
//     accumulated in ingest order;
//   * session / rated-MOS / predicted-MOS tallies;
// plus whole-shard equivalents, a Fig-2 latency x loss Grid2D per
// engagement metric, and the shard's rated sessions reduced to
// (engagement, MOS) samples in ingest order.
//
// Exactness contract (what lets query fast paths use summaries):
//   * Access-filtered curves and all tallies replay the scan's exact
//     floating-point add sequence (per-access accumulation in ingest
//     order), so they are bit-identical to a rescan of the same shard.
//   * Whole-population curves merge the access buckets (running-mean
//     merge); bin counts stay exact, means agree with a rescan to ~1e-12
//     relative — inside the service's documented 1e-9 equivalence budget.
//   * merge() combines two summaries of the same layout exactly the way
//     the engine merges per-shard partials, so "merge of O(shards)
//     summaries" == "merge of O(shards) scan partials" structurally.
//
// A summary answers a sweep only when the query's (metric, lo, hi, bins)
// matches a configured axis, the aggregate is the session mean, the
// confounder filter is off, and shard pruning discharged the date window
// (no mid-month boundary) — anything else falls back to the scan path.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "confsim/call.h"
#include "core/histogram.h"
#include "netsim/conditions.h"
#include "netsim/profiles.h"
#include "usaas/session_columns.h"
#include "usaas/signals.h"

namespace usaas::service {

/// One sweep axis a summary precomputes: the (metric, lo, hi, bins)
/// histogram layout a query must match exactly to be summary-answerable.
struct SummaryAxis {
  netsim::Metric metric{netsim::Metric::kLatency};
  double lo{0.0};
  double hi{300.0};
  std::size_t bins{10};
  friend bool operator==(const SummaryAxis&, const SummaryAxis&) = default;
};

/// The canonical dashboard axes (they cover the operator battery the
/// bench measures): latency 0-300ms, loss 0-10%, jitter 0-80ms,
/// bandwidth 0-200Mbps, 10 bins each.
[[nodiscard]] std::vector<SummaryAxis> default_summary_axes();

/// Layout of the precomputed Fig-2 latency x loss compounding grid.
struct SummaryGrid {
  double latency_hi_ms{320.0};
  std::size_t lat_bins{8};
  double loss_hi_pct{3.4};
  std::size_t loss_bins{8};
  friend bool operator==(const SummaryGrid&, const SummaryGrid&) = default;
};

/// What CorrelationEngine maintains per shard when summaries are enabled.
struct SummaryConfig {
  std::vector<SummaryAxis> axes = default_summary_axes();
  SummaryGrid grid{};
};

/// Running per-population tallies; exact integer counts plus MOS sums
/// accumulated in ingest order (bit-identical to a rescan).
struct SummaryTally {
  std::size_t sessions{0};
  std::size_t rated{0};
  double observed_mos_sum{0.0};
  /// Predicted-MOS fields are only meaningful while the owning engine's
  /// predicted tallies are fresh (refresh_predicted_tallies after train).
  double predicted_mos_sum{0.0};
  std::size_t predicted{0};

  void merge(const SummaryTally& other) {
    sessions += other.sessions;
    rated += other.rated;
    observed_mos_sum += other.observed_mos_sum;
    predicted_mos_sum += other.predicted_mos_sum;
    predicted += other.predicted;
  }
};

/// A rated session reduced to what mos_correlation consumes, kept in
/// ingest order so the summary gather replays the scan gather exactly.
struct RatedSample {
  std::array<double, kNumEngagementMetrics> engagement{};
  double mos{0.0};
};

class ShardSummary {
 public:
  /// Default-constructed summaries are disabled (fold/merge are no-ops);
  /// the engine only builds real ones when summaries are configured.
  ShardSummary() = default;
  explicit ShardSummary(const SummaryConfig& config);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Folds rows [begin, end) of a column store in order (callers fold
  /// each shard's rows in ingest order), reading only the columns the
  /// summary consumes.
  void fold(const SessionColumns& cols, std::size_t begin, std::size_t end);

  /// Exact combine of two summaries with identical layouts (axes + grid);
  /// throws std::invalid_argument on mismatch. Rated samples concatenate,
  /// tallies add, binners/grids merge per bucket.
  void merge(const ShardSummary& other);

  /// Index of the axis answering `(metric, lo, hi, bins)`, or nullopt.
  [[nodiscard]] std::optional<std::size_t> axis_for(netsim::Metric metric,
                                                    double lo, double hi,
                                                    std::size_t bins) const;

  /// Merges this shard's curves on `axis` into `dst` (which must share
  /// the axis layout and hold one series per entry of `engagements`;
  /// series k takes engagements[k]): the access bucket alone when
  /// `access` is set (bit-exact vs rescan), else all buckets in enum
  /// order.
  void add_curve_to(core::Binner1D& dst, std::size_t axis,
                    std::span<const EngagementMetric> engagements,
                    std::optional<netsim::AccessTechnology> access) const;

  /// Merges the Fig-2 grid for `engagement` into `dst` when the grid
  /// layout matches; returns false (dst untouched) otherwise.
  [[nodiscard]] bool add_grid_to(core::Grid2D& dst, EngagementMetric engagement,
                                 const SummaryGrid& layout) const;

  /// Whole-shard or per-access tallies.
  [[nodiscard]] const SummaryTally& tally(
      std::optional<netsim::AccessTechnology> access) const;

  /// Rated (engagement, MOS) samples in ingest order.
  [[nodiscard]] std::span<const RatedSample> rated() const { return rated_; }

  /// Zeroes the predicted-MOS sums (no predictor is fresh).
  void clear_predicted();
  /// Recomputes predicted-MOS sums over this shard's column store, in
  /// row order, with `predict_row(r)` as row r's prediction; called under
  /// the corpus write lock after a retrain. Row order, so the per-shard
  /// sums replay exactly what the scan path accumulates for an unfiltered
  /// (or access-filtered) tally.
  template <typename PredictRow>
  void refresh_predicted(const SessionColumns& cols,
                         const PredictRow& predict_row) {
    clear_predicted();
    const std::uint8_t* access_col = cols.access.data();
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const double p = predict_row(i);
      all_.predicted_mos_sum += p;
      ++all_.predicted;
      SummaryTally& bucket = by_access_[access_col[i]];
      bucket.predicted_mos_sum += p;
      ++bucket.predicted;
    }
  }

  [[nodiscard]] std::size_t sessions() const { return all_.sessions; }

  /// Approximate heap footprint, for observability.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  [[nodiscard]] static std::size_t binner_index(std::size_t axis,
                                                std::size_t access) {
    return axis * static_cast<std::size_t>(netsim::kNumAccessTechnologies) +
           access;
  }

  bool enabled_{false};
  std::vector<SummaryAxis> axes_;
  SummaryGrid grid_layout_{};
  /// [axis][access], one series per engagement metric (enum order), each
  /// accumulated in shard ingest order.
  std::vector<core::Binner1D> binners_;
  /// [engagement]: whole-shard latency x loss grids (no access split —
  /// compounding_grid takes no filters).
  std::vector<core::Grid2D> grids_;
  SummaryTally all_;
  std::array<SummaryTally, netsim::kNumAccessTechnologies> by_access_{};
  std::vector<RatedSample> rated_;
};

}  // namespace usaas::service
