// Columnar-scan differential battery: the SoA column store + two-phase
// scan kernels must be *bit-identical* to the row scan they replaced —
// EXPECT_EQ on doubles, not EXPECT_NEAR.
//
// RowReference below is a frozen copy of the pre-columnar engine's scan
// path: vector-of-structs shards keyed exactly like the engine (packed
// (month_key, platform), std::map key order), the same shard pruning, the
// same per-record predicate order (dates -> access -> opaque filter ->
// confounder control), the same per-shard partials merged in
// key order. Every query result the engine produces from columns is
// compared against this reference across metrics x axes x access filters
// x date cuts, thread counts 1/2/8, and summaries on/off.
//
// One documented exception: whole-population curves on a summary-
// configured axis merge per-access Welford buckets (~1e-12 relative, per
// the ShardSummary header contract) — those compare with a tight relative
// bound instead, and only when summaries are on.
//
// Registered under the `sanitize` ctest label: the 2/8-thread batteries
// are the TSan workload for the parallel selection/aggregation kernels
// and the destination-major column scatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "confsim/call.h"
#include "core/correlation.h"
#include "core/date.h"
#include "core/histogram.h"
#include "core/scheduler_clock.h"
#include "core/stats.h"
#include "core/telemetry/metrics.h"
#include "core/thread_pool.h"
#include "netsim/conditions.h"
#include "netsim/profiles.h"
#include "usaas/correlation_engine.h"
#include "usaas/mos_predictor.h"
#include "usaas/query_service.h"
#include "usaas/shard_summary.h"

namespace usaas::service {
namespace {

using core::Date;
using core::month_key;

// ---- Deterministic synthetic corpus ------------------------------------

std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

double uniform(std::uint64_t& s, double lo, double hi) {
  return lo + (hi - lo) *
                  (static_cast<double>(lcg_next(s) % 1000000) / 999999.0);
}

netsim::MetricAggregate aggregate(double mean, double tail_scale) {
  return {mean, mean * 0.92, mean * tail_scale};
}

/// Four months from `year`-`first_month` (Jan-Apr 2022 by default), all
/// platforms and access technologies, ~30% of rows with every metric
/// inside the confounder control windows (so control_others passes
/// non-trivially), values straddling every sweep range boundary, ~2%
/// MOS-rated, ~10% early drops.
std::vector<confsim::CallRecord> synth_corpus(int year = 2022,
                                              int first_month = 1) {
  std::vector<confsim::CallRecord> calls;
  std::uint64_t seed = 20220101;
  for (std::uint64_t id = 0; id < 1200; ++id) {
    confsim::CallRecord call;
    call.call_id = id;
    const int month0 =
        first_month - 1 + static_cast<int>(lcg_next(seed) % 4);
    const int y = year + month0 / 12;
    const int month = 1 + month0 % 12;
    const int day =
        1 + static_cast<int>(lcg_next(seed) %
                             static_cast<std::uint64_t>(
                                 Date::days_in_month(y, month)));
    call.start.date = Date(y, month, day);
    call.start.time = {static_cast<int>(lcg_next(seed) % 24), 0};
    const std::size_t participants = 3 + lcg_next(seed) % 3;
    for (std::size_t j = 0; j < participants; ++j) {
      confsim::ParticipantRecord rec;
      rec.user_id = id * 100 + j;
      rec.platform =
          static_cast<confsim::Platform>(lcg_next(seed) % confsim::kNumPlatforms);
      rec.meeting_size = static_cast<int>(participants);
      rec.access = static_cast<netsim::AccessTechnology>(
          lcg_next(seed) % netsim::kNumAccessTechnologies);
      const bool controlled = lcg_next(seed) % 10 < 3;
      const double lat =
          controlled ? uniform(seed, 0.0, 40.0) : uniform(seed, 0.0, 360.0);
      const double loss =
          controlled ? uniform(seed, 0.0, 0.2) : uniform(seed, 0.0, 12.0);
      const double jit =
          controlled ? uniform(seed, 0.0, 5.0) : uniform(seed, 0.0, 90.0);
      const double bw =
          controlled ? uniform(seed, 3.0, 4.0) : uniform(seed, 0.0, 230.0);
      rec.network.latency_ms = aggregate(lat, 1.75);
      rec.network.loss_pct = aggregate(loss, 1.75);
      rec.network.jitter_ms = aggregate(jit, 1.75);
      rec.network.bandwidth_mbps = aggregate(bw, 0.6);  // low-tail P5 slot
      rec.network.duration_seconds = uniform(seed, 300.0, 3600.0);
      rec.network.sample_count = 60 + lcg_next(seed) % 600;
      rec.presence_pct = uniform(seed, 0.0, 100.0);
      rec.cam_on_pct = uniform(seed, 0.0, 100.0);
      rec.mic_on_pct = uniform(seed, 0.0, 100.0);
      rec.dropped_early = lcg_next(seed) % 10 == 0;
      if (lcg_next(seed) % 50 == 0) {
        rec.mos = core::Mos{uniform(seed, 1.0, 5.0)};
      }
      call.participants.push_back(rec);
    }
    calls.push_back(call);
  }
  return calls;
}

const std::vector<confsim::CallRecord>& corpus() {
  static const std::vector<confsim::CallRecord> calls = synth_corpus();
  return calls;
}

// ---- Frozen row-scan reference -----------------------------------------

struct RowShard {
  int month_key{0};
  confsim::Platform platform{confsim::Platform::kWindowsPc};
  std::vector<Date> dates;
  std::vector<confsim::ParticipantRecord> records;
};

/// The pre-columnar scan path, verbatim: AoS shards, sequential appends
/// (batch slot order equals sequential ingest order by the engine's own
/// contract), row-wise predicates, partials merged in shard-key order.
/// The bin cell the sweep kernels accumulated into before bins shared one
/// count across series: a full RunningStats per bin, binned as
/// Binner1D::bin_index bins and merged in the caller's order.
class ReferenceBins {
 public:
  explicit ReferenceBins(const SweepSpec& spec)
      : lo_{spec.lo},
        hi_{spec.hi},
        width_{(spec.hi - spec.lo) / static_cast<double>(spec.bins)},
        cells_(spec.bins) {}

  void add(double x, double y) {
    if (x < lo_ || x >= hi_) return;
    const auto idx = static_cast<std::size_t>((x - lo_) / width_);
    cells_[std::min(idx, cells_.size() - 1)].add(y);
  }
  void merge(const ReferenceBins& other) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].merge(other.cells_[i]);
    }
  }
  [[nodiscard]] std::vector<CurvePoint> points() const {
    std::vector<CurvePoint> out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].empty()) continue;
      const double lo = lo_ + width_ * static_cast<double>(i);
      const double hi = lo + width_;
      out.push_back({(lo + hi) / 2.0, cells_[i].mean(), cells_[i].count()});
    }
    return out;
  }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<core::RunningStats> cells_;
};

class RowReference {
 public:
  explicit RowReference(std::span<const confsim::CallRecord> calls = corpus()) {
    for (const confsim::CallRecord& call : calls) {
      for (const confsim::ParticipantRecord& p : call.participants) {
        RowShard& shard = shard_for(call.start.date, p.platform);
        shard.dates.push_back(call.start.date);
        shard.records.push_back(p);
      }
    }
  }

  struct Selected {
    const RowShard* shard{nullptr};
    bool check_dates{false};
  };

  [[nodiscard]] std::vector<Selected> select(
      const ShardSelector& selector) const {
    std::vector<Selected> out;
    for (const auto& [key, shard] : shards_) {
      Selected sel;
      sel.shard = &shard;
      if (selector.platform && shard.platform != *selector.platform) continue;
      if (selector.first && shard.month_key < month_key(*selector.first)) {
        continue;
      }
      if (selector.last && shard.month_key > month_key(*selector.last)) {
        continue;
      }
      const bool first_cuts =
          selector.first && month_key(*selector.first) == shard.month_key &&
          selector.first->day() > 1;
      const bool last_cuts =
          selector.last && month_key(*selector.last) == shard.month_key &&
          selector.last->day() <
              Date::days_in_month(selector.last->year(),
                                  selector.last->month());
      sel.check_dates = first_cuts || last_cuts;
      out.push_back(sel);
    }
    return out;
  }

  [[nodiscard]] static bool matches(const Selected& sel, const Date& date,
                                    const confsim::ParticipantRecord& rec,
                                    const ShardSelector& selector) {
    if (sel.check_dates) {
      if (selector.first && date < *selector.first) return false;
      if (selector.last && *selector.last < date) return false;
    }
    if (selector.access && rec.access != *selector.access) return false;
    return true;
  }

  [[nodiscard]] static netsim::NetworkConditions conditions(
      const confsim::ParticipantRecord& rec, SessionAggregate agg) {
    return agg == SessionAggregate::kP95 ? rec.network.p95_conditions()
                                         : rec.network.mean_conditions();
  }

  /// `summaries`, when set, is the layout of an engine that keeps shard
  /// summaries: a shard it answers from its summary — a whole month on a
  /// summary axis, no filter, no control, session means — is accumulated
  /// the way its summary is, one bucket per access technology in ingest
  /// order, the buckets merged in enum order.
  [[nodiscard]] std::vector<CurvePoint> sweep(
      const SweepSpec& spec, const ParticipantFilter& filter,
      const ShardSelector& selector,
      const std::function<double(const confsim::ParticipantRecord&)>& y,
      const SummaryConfig* summaries = nullptr) const {
    const SummaryAxis axis{spec.metric, spec.lo, spec.hi, spec.bins};
    const bool summary_shape =
        summaries != nullptr && !filter && !spec.control_others &&
        spec.aggregate == SessionAggregate::kMean &&
        std::find(summaries->axes.begin(), summaries->axes.end(), axis) !=
            summaries->axes.end();
    const auto add_rows = [&](const Selected& sel, ReferenceBins& bins,
                              std::optional<int> access) {
      for (std::size_t r = 0; r < sel.shard->records.size(); ++r) {
        const confsim::ParticipantRecord& rec = sel.shard->records[r];
        if (access && static_cast<int>(rec.access) != *access) continue;
        if (!matches(sel, sel.shard->dates[r], rec, selector)) continue;
        if (filter && !filter(rec)) continue;
        const netsim::NetworkConditions c = conditions(rec, spec.aggregate);
        if (spec.control_others &&
            !netsim::others_in_control(c, spec.metric, spec.control)) {
          continue;
        }
        bins.add(netsim::metric_value(c, spec.metric), y(rec));
      }
    };
    ReferenceBins total{spec};
    for (const Selected& sel : select(selector)) {
      ReferenceBins partial{spec};
      if (summary_shape && !sel.check_dates) {
        for (int a = 0; a < netsim::kNumAccessTechnologies; ++a) {
          ReferenceBins bucket{spec};
          add_rows(sel, bucket, a);
          partial.merge(bucket);
        }
      } else {
        add_rows(sel, partial, std::nullopt);
      }
      total.merge(partial);
    }
    return total.points();
  }

  [[nodiscard]] std::vector<CurvePoint> engagement_curve(
      const SweepSpec& spec, EngagementMetric engagement,
      const ParticipantFilter& filter, const ShardSelector& selector,
      const SummaryConfig* summaries = nullptr) const {
    return sweep(
        spec, filter, selector,
        [engagement](const confsim::ParticipantRecord& rec) {
          return engagement_value(rec, engagement);
        },
        summaries);
  }

  [[nodiscard]] std::vector<CurvePoint> dropoff_curve(
      const SweepSpec& spec, const ParticipantFilter& filter,
      const ShardSelector& selector) const {
    return sweep(spec, filter, selector,
                 [](const confsim::ParticipantRecord& rec) {
                   return rec.dropped_early ? 1.0 : 0.0;
                 });
  }

  [[nodiscard]] core::Grid2D grid(EngagementMetric engagement,
                                  double latency_hi_ms, std::size_t lat_bins,
                                  double loss_hi_pct,
                                  std::size_t loss_bins) const {
    core::Grid2D total{0.0, latency_hi_ms, lat_bins,
                       0.0, loss_hi_pct, loss_bins};
    for (const auto& [key, shard] : shards_) {
      core::Grid2D partial{0.0, latency_hi_ms, lat_bins,
                           0.0, loss_hi_pct, loss_bins};
      for (const confsim::ParticipantRecord& rec : shard.records) {
        const netsim::NetworkConditions c = rec.network.mean_conditions();
        partial.add(c.latency.ms(), c.loss.percent(),
                    engagement_value(rec, engagement));
      }
      total.merge(partial);
    }
    return total;
  }

  [[nodiscard]] std::optional<CorrelationEngine::MosCorrelation>
  mos_correlation(EngagementMetric engagement, std::size_t min_samples) const {
    std::vector<double> eng;
    std::vector<double> mos;
    for (const auto& [key, shard] : shards_) {
      for (const confsim::ParticipantRecord& rec : shard.records) {
        if (!rec.mos) continue;
        eng.push_back(engagement_value(rec, engagement));
        mos.push_back(rec.mos->score());
      }
    }
    if (eng.size() < min_samples) return std::nullopt;
    CorrelationEngine::MosCorrelation out;
    out.rated_sessions = eng.size();
    out.pearson = core::pearson(eng, mos);
    out.spearman = core::spearman(eng, mos);
    std::vector<std::size_t> order(eng.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (eng[a] != eng[b]) return eng[a] < eng[b];
      return mos[a] < mos[b];
    });
    const std::size_t deciles = 10;
    for (std::size_t dec = 0; dec < deciles; ++dec) {
      const std::size_t lo = dec * order.size() / deciles;
      const std::size_t hi = (dec + 1) * order.size() / deciles;
      if (hi <= lo) continue;
      double eng_acc = 0.0;
      double mos_acc = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        eng_acc += eng[order[i]];
        mos_acc += mos[order[i]];
      }
      const auto n = static_cast<double>(hi - lo);
      out.decile_curve.push_back({eng_acc / n, mos_acc / n, hi - lo});
    }
    return out;
  }

  [[nodiscard]] CorrelationEngine::Tally tally(
      const ParticipantFilter& filter, const ShardSelector& selector,
      const std::function<double(const confsim::ParticipantRecord&)>&
          predictor) const {
    CorrelationEngine::Tally total;
    for (const Selected& sel : select(selector)) {
      CorrelationEngine::Tally part;
      for (std::size_t r = 0; r < sel.shard->records.size(); ++r) {
        const confsim::ParticipantRecord& rec = sel.shard->records[r];
        if (!matches(sel, sel.shard->dates[r], rec, selector)) continue;
        if (filter && !filter(rec)) continue;
        ++part.sessions;
        if (rec.mos) {
          part.observed_mos_sum += rec.mos->score();
          ++part.rated;
        }
        if (predictor) {
          part.predicted_mos_sum += predictor(rec);
          ++part.predicted;
        }
      }
      total.sessions += part.sessions;
      total.rated += part.rated;
      total.observed_mos_sum += part.observed_mos_sum;
      total.predicted_mos_sum += part.predicted_mos_sum;
      total.predicted += part.predicted;
    }
    return total;
  }

  [[nodiscard]] std::vector<confsim::ParticipantRecord> sessions() const {
    std::vector<confsim::ParticipantRecord> out;
    for (const auto& [key, shard] : shards_) {
      out.insert(out.end(), shard.records.begin(), shard.records.end());
    }
    return out;
  }

 private:
  RowShard& shard_for(const Date& date, confsim::Platform platform) {
    const int key =
        month_key(date) * confsim::kNumPlatforms + static_cast<int>(platform);
    RowShard& shard = shards_[key];
    if (shard.dates.empty()) {
      shard.month_key = month_key(date);
      shard.platform = platform;
    }
    return shard;
  }

  std::map<int, RowShard> shards_;
};

const RowReference& reference() {
  static const RowReference sharded;
  return sharded;
}

// ---- Comparators (EXPECT_EQ on doubles: bit-identity, not closeness) ---

void expect_points_eq(std::span<const CurvePoint> got,
                      std::span<const CurvePoint> want,
                      const std::string& what, bool exact = true) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sessions, want[i].sessions) << what << " point " << i;
    EXPECT_EQ(got[i].metric_value, want[i].metric_value)
        << what << " point " << i;
    if (exact) {
      EXPECT_EQ(got[i].engagement, want[i].engagement)
          << what << " point " << i;
    } else {
      // Whole-population summary merge: exact counts, ~1e-12 means.
      EXPECT_NEAR(got[i].engagement, want[i].engagement,
                  1e-9 * (1.0 + std::abs(want[i].engagement)))
          << what << " point " << i;
    }
  }
}

void expect_grid_eq(const core::Grid2D& got, const core::Grid2D& want,
                    const std::string& what) {
  const auto got_cells = got.cells();
  const auto want_cells = want.cells();
  ASSERT_EQ(got_cells.size(), want_cells.size()) << what;
  for (std::size_t i = 0; i < got_cells.size(); ++i) {
    EXPECT_EQ(got_cells[i].x_center, want_cells[i].x_center) << what;
    EXPECT_EQ(got_cells[i].y_center, want_cells[i].y_center) << what;
    EXPECT_EQ(got_cells[i].count, want_cells[i].count) << what;
    EXPECT_EQ(got_cells[i].mean_value, want_cells[i].mean_value) << what;
  }
}

void expect_record_eq(const confsim::ParticipantRecord& got,
                      const confsim::ParticipantRecord& want,
                      const std::string& what) {
  EXPECT_EQ(got.user_id, want.user_id) << what;
  EXPECT_EQ(got.platform, want.platform) << what;
  EXPECT_EQ(got.meeting_size, want.meeting_size) << what;
  EXPECT_EQ(got.access, want.access) << what;
  const auto agg_eq = [&](const netsim::MetricAggregate& a,
                          const netsim::MetricAggregate& b) {
    EXPECT_EQ(a.mean, b.mean) << what;
    EXPECT_EQ(a.median, b.median) << what;
    EXPECT_EQ(a.p95, b.p95) << what;
  };
  agg_eq(got.network.latency_ms, want.network.latency_ms);
  agg_eq(got.network.loss_pct, want.network.loss_pct);
  agg_eq(got.network.jitter_ms, want.network.jitter_ms);
  agg_eq(got.network.bandwidth_mbps, want.network.bandwidth_mbps);
  EXPECT_EQ(got.network.duration_seconds, want.network.duration_seconds)
      << what;
  EXPECT_EQ(got.network.sample_count, want.network.sample_count) << what;
  EXPECT_EQ(got.presence_pct, want.presence_pct) << what;
  EXPECT_EQ(got.cam_on_pct, want.cam_on_pct) << what;
  EXPECT_EQ(got.mic_on_pct, want.mic_on_pct) << what;
  EXPECT_EQ(got.dropped_early, want.dropped_early) << what;
  ASSERT_EQ(got.mos.has_value(), want.mos.has_value()) << what;
  if (got.mos) {
    EXPECT_EQ(got.mos->score(), want.mos->score()) << what;
  }
}

void expect_tally_eq(const CorrelationEngine::Tally& got,
                     const CorrelationEngine::Tally& want,
                     const std::string& what) {
  EXPECT_EQ(got.sessions, want.sessions) << what;
  EXPECT_EQ(got.rated, want.rated) << what;
  EXPECT_EQ(got.observed_mos_sum, want.observed_mos_sum) << what;
  EXPECT_EQ(got.predicted_mos_sum, want.predicted_mos_sum) << what;
  EXPECT_EQ(got.predicted, want.predicted) << what;
}

// ---- Parameterized battery ---------------------------------------------

// gtest names each instance after the parameter's raw bytes, so the padding
// is spelled out as zeroed members: left implicit, it holds stack garbage
// (pointer halves under ASLR) and the test names change from build to build.
// `layout` is the word the instances were first named with (1 = month x
// platform shards); it stays so every instance keeps its name.
struct Config {
  Config(std::size_t t, bool sum) : threads{t}, summaries{sum} {}
  std::uint32_t layout = 1;
  std::uint32_t pad0 = 0;
  std::size_t threads;
  bool summaries;
  std::uint8_t pad1[7] = {};
};
static_assert(sizeof(Config) == 24);

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::string name = "Sharded";
  name += std::to_string(info.param.threads) + "t";
  name += info.param.summaries ? "Summaries" : "NoSummaries";
  return name;
}

class ColumnarDifferential : public ::testing::TestWithParam<Config> {
 protected:
  ColumnarDifferential() : ref_{reference()} {
    if (GetParam().threads > 1) {
      pool_ = std::make_unique<core::ThreadPool>(GetParam().threads);
      engine_.set_thread_pool(pool_.get());
    }
    if (GetParam().summaries) engine_.configure_summaries(SummaryConfig{});
    engine_.ingest(std::span<const confsim::CallRecord>{corpus()});
  }

  std::unique_ptr<core::ThreadPool> pool_;
  CorrelationEngine engine_;
  const RowReference& ref_;
};

const ParticipantFilter kOpaqueFilter =
    [](const confsim::ParticipantRecord& rec) {
      return rec.meeting_size % 3 != 0 && rec.network.jitter_ms.mean < 60.0;
    };

const std::function<double(const confsim::ParticipantRecord&)> kPredictor =
    [](const confsim::ParticipantRecord& rec) {
      return 0.01 * rec.presence_pct + 0.002 * rec.network.latency_ms.mean +
             (rec.dropped_early ? -0.1 : 0.3);
    };

SweepSpec sweep_for(netsim::Metric metric, std::size_t bins,
                    bool control = false,
                    SessionAggregate agg = SessionAggregate::kMean) {
  SweepSpec spec;
  spec.metric = metric;
  switch (metric) {
    case netsim::Metric::kLatency: spec.lo = 0.0; spec.hi = 300.0; break;
    case netsim::Metric::kLoss: spec.lo = 0.0; spec.hi = 10.0; break;
    case netsim::Metric::kJitter: spec.lo = 0.0; spec.hi = 80.0; break;
    case netsim::Metric::kBandwidth: spec.lo = 0.0; spec.hi = 200.0; break;
  }
  spec.bins = bins;
  spec.control_others = control;
  spec.aggregate = agg;
  return spec;
}

constexpr netsim::Metric kMetrics[] = {
    netsim::Metric::kLatency, netsim::Metric::kLoss, netsim::Metric::kJitter,
    netsim::Metric::kBandwidth};
constexpr EngagementMetric kEngagements[] = {EngagementMetric::kPresence,
                                             EngagementMetric::kCamOn,
                                             EngagementMetric::kMicOn};

TEST_P(ColumnarDifferential, CurvesAcrossMetricsAndAxes) {
  for (const netsim::Metric m : kMetrics) {
    for (const EngagementMetric e : kEngagements) {
      // Non-default bin count: never summary-answerable, always the
      // two-phase columnar scan vs the row scan.
      const SweepSpec spec = sweep_for(m, 12);
      const EngagementCurve got = engine_.engagement_curve(spec, e);
      EXPECT_EQ(got.network_metric, m);
      EXPECT_EQ(got.engagement_metric, e);
      expect_points_eq(got.points, ref_.engagement_curve(spec, e, nullptr, {}),
                       std::string("curve ") + netsim::to_string(m));
    }
  }
}

TEST_P(ColumnarDifferential, P95AggregateCurves) {
  for (const netsim::Metric m : kMetrics) {
    const SweepSpec spec =
        sweep_for(m, 10, /*control=*/false, SessionAggregate::kP95);
    const EngagementCurve got =
        engine_.engagement_curve(spec, EngagementMetric::kPresence);
    expect_points_eq(
        got.points,
        ref_.engagement_curve(spec, EngagementMetric::kPresence, nullptr, {}),
        std::string("p95 curve ") + netsim::to_string(m));
  }
}

TEST_P(ColumnarDifferential, ConfounderControlledCurves) {
  for (const netsim::Metric m : kMetrics) {
    const SweepSpec spec = sweep_for(m, 10, /*control=*/true);
    const EngagementCurve got =
        engine_.engagement_curve(spec, EngagementMetric::kCamOn);
    expect_points_eq(
        got.points,
        ref_.engagement_curve(spec, EngagementMetric::kCamOn, nullptr, {}),
        std::string("controlled curve ") + netsim::to_string(m));
  }
}

TEST_P(ColumnarDifferential, AccessFilteredCurves) {
  // Default axis + access selector: the summary path answers this from
  // per-access buckets, which the contract makes bit-exact; off summaries
  // it is the branchless access-equality selection kernel.
  for (const netsim::AccessTechnology access :
       {netsim::AccessTechnology::kLeoSatellite,
        netsim::AccessTechnology::kWifiCongested}) {
    ShardSelector sel;
    sel.access = access;
    const SweepSpec spec = sweep_for(netsim::Metric::kLatency, 10);
    const EngagementCurve got =
        engine_.engagement_curve(spec, EngagementMetric::kPresence, nullptr,
                                 sel);
    expect_points_eq(got.points,
                     ref_.engagement_curve(spec, EngagementMetric::kPresence,
                                           nullptr, sel),
                     "access-filtered curve");
  }
}

TEST_P(ColumnarDifferential, DateCutAndPlatformSelectors) {
  const Date cut_first{2022, 1, 15};
  const Date cut_last{2022, 3, 20};
  for (const netsim::Metric m : kMetrics) {
    ShardSelector sel;
    sel.first = cut_first;
    sel.last = cut_last;
    // bins=12 forces the scan everywhere, so boundary *and* interior
    // shards take the columnar kernels under every config.
    const SweepSpec spec = sweep_for(m, 12);
    expect_points_eq(
        engine_.engagement_curve(spec, EngagementMetric::kMicOn, nullptr, sel)
            .points,
        ref_.engagement_curve(spec, EngagementMetric::kMicOn, nullptr, sel),
        std::string("date-cut curve ") + netsim::to_string(m));
  }
  ShardSelector combo;
  combo.first = cut_first;
  combo.last = cut_last;
  combo.platform = confsim::Platform::kAndroid;
  combo.access = netsim::AccessTechnology::kGeoSatellite;
  const SweepSpec spec = sweep_for(netsim::Metric::kLoss, 12);
  expect_points_eq(
      engine_.engagement_curve(spec, EngagementMetric::kPresence, nullptr,
                               combo)
          .points,
      ref_.engagement_curve(spec, EngagementMetric::kPresence, nullptr, combo),
      "combined selector curve");
  // Mid-month window on the default axis: boundary shards scan, interior
  // shards may answer from summaries (access-filtered: bit-exact).
  ShardSelector cut_access;
  cut_access.first = cut_first;
  cut_access.last = cut_last;
  cut_access.access = netsim::AccessTechnology::kFiber;
  const SweepSpec axis = sweep_for(netsim::Metric::kJitter, 10);
  expect_points_eq(
      engine_.engagement_curve(axis, EngagementMetric::kCamOn, nullptr,
                               cut_access)
          .points,
      ref_.engagement_curve(axis, EngagementMetric::kCamOn, nullptr,
                            cut_access),
      "date-cut access curve");
}

TEST_P(ColumnarDifferential, WholePopulationDefaultAxisCurve) {
  // The one shape that is only ~1e-12-identical with summaries on (the
  // whole-population curve merges per-access Welford buckets); without
  // summaries it must be bit-identical like everything else.
  const SweepSpec spec = sweep_for(netsim::Metric::kLatency, 10);
  const EngagementCurve got =
      engine_.engagement_curve(spec, EngagementMetric::kPresence);
  expect_points_eq(
      got.points,
      ref_.engagement_curve(spec, EngagementMetric::kPresence, nullptr, {}),
      "whole-population default-axis curve",
      /*exact=*/!GetParam().summaries);
}

TEST_P(ColumnarDifferential, OpaqueFilterForcesScan) {
  const SweepSpec spec = sweep_for(netsim::Metric::kBandwidth, 10);
  expect_points_eq(
      engine_.engagement_curve(spec, EngagementMetric::kPresence,
                               kOpaqueFilter, {})
          .points,
      ref_.engagement_curve(spec, EngagementMetric::kPresence, kOpaqueFilter,
                            {}),
      "opaque-filter curve");
  // Filter + control + date cut: all three refine stages in one query.
  ShardSelector sel;
  sel.first = Date{2022, 2, 10};
  const SweepSpec hard = sweep_for(netsim::Metric::kLatency, 12, true);
  expect_points_eq(
      engine_.engagement_curve(hard, EngagementMetric::kMicOn, kOpaqueFilter,
                               sel)
          .points,
      ref_.engagement_curve(hard, EngagementMetric::kMicOn, kOpaqueFilter,
                            sel),
      "filter+control+cut curve");
}

TEST_P(ColumnarDifferential, FusedSweepMatchesSingleCurvesAndReference) {
  // engagement_curves() bins the three engagement columns in one pass; each
  // curve must equal its single-metric engagement_curve() call bit for bit,
  // count the same shard visits as the three calls, and match the frozen
  // row reference (the summary-merged whole-population default axis is
  // the one ~1e-12 case, as in WholePopulationDefaultAxisCurve).
  ShardSelector cut_access;
  cut_access.first = Date{2022, 1, 15};
  cut_access.last = Date{2022, 3, 20};
  cut_access.access = netsim::AccessTechnology::kFiber;
  ShardSelector combo = cut_access;
  combo.platform = confsim::Platform::kAndroid;
  struct Shape {
    const char* name;
    SweepSpec spec;
    ParticipantFilter filter;
    ShardSelector selector;
    bool summary_merged_whole_population;
  };
  const Shape shapes[] = {
      {"scan axis", sweep_for(netsim::Metric::kLoss, 12), nullptr, {}, false},
      {"default axis", sweep_for(netsim::Metric::kLatency, 10), nullptr, {},
       true},
      {"date-cut access", sweep_for(netsim::Metric::kJitter, 10), nullptr,
       cut_access, false},
      {"combined selector", sweep_for(netsim::Metric::kBandwidth, 12),
       nullptr, combo, false},
      {"p95", sweep_for(netsim::Metric::kLatency, 10, false,
                        SessionAggregate::kP95),
       nullptr, {}, false},
      {"filter+control+cut", sweep_for(netsim::Metric::kLatency, 12, true),
       kOpaqueFilter, cut_access, false},
  };
  for (const Shape& shape : shapes) {
    QueryFanoutStats fused_fanout;
    const std::vector<EngagementCurve> fused = engine_.engagement_curves(
        shape.spec, shape.filter, shape.selector, &fused_fanout);
    ASSERT_EQ(fused.size(), std::size(kEngagements)) << shape.name;
    QueryFanoutStats single_fanout;
    for (std::size_t k = 0; k < std::size(kEngagements); ++k) {
      const EngagementMetric e = kEngagements[k];
      const std::string what = std::string(shape.name) + " " + to_string(e);
      const EngagementCurve single = engine_.engagement_curve(
          shape.spec, e, shape.filter, shape.selector, &single_fanout);
      EXPECT_EQ(fused[k].network_metric, shape.spec.metric) << what;
      EXPECT_EQ(fused[k].engagement_metric, e) << what;
      expect_points_eq(fused[k].points, single.points, what + " vs single");
      expect_points_eq(
          fused[k].points,
          ref_.engagement_curve(shape.spec, e, shape.filter, shape.selector),
          what + " vs reference",
          /*exact=*/!(shape.summary_merged_whole_population &&
                      GetParam().summaries));
    }
    EXPECT_EQ(fused_fanout.shards_from_summary,
              single_fanout.shards_from_summary)
        << shape.name;
    EXPECT_EQ(fused_fanout.shards_scanned, single_fanout.shards_scanned)
        << shape.name;
  }
}

TEST_P(ColumnarDifferential, CancelledFusedSweepSkipsRemainingShards) {
  // A probe that answers true before the first shard abandons the pass:
  // no shard is binned (the caller discards the partial curves anyway).
  const SweepSpec spec = sweep_for(netsim::Metric::kLatency, 12);
  const std::vector<EngagementCurve> curves =
      engine_.engagement_curves(spec, nullptr, {}, nullptr, [] { return true; });
  ASSERT_EQ(curves.size(), std::size(kEngagements));
  for (const EngagementCurve& curve : curves) {
    EXPECT_TRUE(curve.points.empty());
  }
  // A probe that never fires changes nothing.
  const std::vector<EngagementCurve> full = engine_.engagement_curves(
      spec, nullptr, {}, nullptr, [] { return false; });
  expect_points_eq(full[0].points,
                   engine_.engagement_curve(spec, kEngagements[0]).points,
                   "never-cancelled fused sweep");
}

TEST_P(ColumnarDifferential, DropoffCurves) {
  const SweepSpec spec = sweep_for(netsim::Metric::kLoss, 12);
  expect_points_eq(engine_.dropoff_curve(spec),
                   ref_.dropoff_curve(spec, nullptr, {}), "dropoff");
  ShardSelector sel;
  sel.first = Date{2022, 1, 15};
  sel.last = Date{2022, 4, 20};
  const SweepSpec controlled = sweep_for(netsim::Metric::kJitter, 10, true);
  expect_points_eq(engine_.dropoff_curve(controlled, kOpaqueFilter, sel),
                   ref_.dropoff_curve(controlled, kOpaqueFilter, sel),
                   "dropoff filtered");
}

TEST_P(ColumnarDifferential, CompoundingGrids) {
  // The configured summary layout (exact by contract) and a bespoke one
  // (always the dense three-column scan kernel).
  expect_grid_eq(engine_.compounding_grid(EngagementMetric::kPresence, 320.0,
                                          8, 3.4, 8),
                 ref_.grid(EngagementMetric::kPresence, 320.0, 8, 3.4, 8),
                 "default-layout grid");
  expect_grid_eq(engine_.compounding_grid(EngagementMetric::kMicOn, 200.0, 5,
                                          5.0, 6),
                 ref_.grid(EngagementMetric::kMicOn, 200.0, 5, 5.0, 6),
                 "bespoke grid");
}

TEST_P(ColumnarDifferential, MosCorrelations) {
  for (const EngagementMetric e : kEngagements) {
    const auto got = engine_.mos_correlation(e, 50);
    const auto want = ref_.mos_correlation(e, 50);
    ASSERT_EQ(got.has_value(), want.has_value());
    ASSERT_TRUE(got.has_value());  // the corpus rates ~2% of sessions
    EXPECT_EQ(got->rated_sessions, want->rated_sessions);
    EXPECT_EQ(got->pearson, want->pearson);
    EXPECT_EQ(got->spearman, want->spearman);
    expect_points_eq(got->decile_curve, want->decile_curve, "decile curve");
  }
  // min_samples above the rated population: both sides must decline.
  EXPECT_FALSE(
      engine_.mos_correlation(EngagementMetric::kPresence, 1u << 20).has_value());
}

TEST_P(ColumnarDifferential, Tallies) {
  const auto eq = expect_tally_eq;
  eq(engine_.tally(nullptr, {}), ref_.tally(nullptr, {}, nullptr), "plain");
  eq(engine_.tally(kOpaqueFilter, {}), ref_.tally(kOpaqueFilter, {}, nullptr),
     "filtered");
  ShardSelector sel;
  sel.first = Date{2022, 2, 5};
  sel.last = Date{2022, 4, 25};
  sel.access = netsim::AccessTechnology::kCable;
  eq(engine_.tally(nullptr, sel), ref_.tally(nullptr, sel, nullptr),
     "selector");
  // Cold predictor: predicted sums come from the scan path (records
  // materialized row by row off the columns).
  eq(engine_.tally(nullptr, sel, kPredictor),
     ref_.tally(nullptr, sel, kPredictor), "predictor cold");
  if (GetParam().summaries) {
    // Warm predictor: refresh folds predicted sums from the columns; the
    // summary answer must still match the row reference exactly.
    engine_.refresh_predicted_tallies(kPredictor);
    eq(engine_.tally(nullptr, {}, kPredictor),
       ref_.tally(nullptr, {}, kPredictor), "predictor warm");
    engine_.clear_predicted_tallies();
  }
}

TEST_P(ColumnarDifferential, MaterializedRowsRoundTrip) {
  // record(i) must reconstruct the exact original rows — including the
  // median aggregates no scan kernel reads and the MOS validity mask.
  const auto got = engine_.sessions();
  const auto want = ref_.sessions();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); i += 7) {  // stride: keep it fast
    expect_record_eq(got[i], want[i], "session " + std::to_string(i));
  }
  // Canonical rated order is the rated subsequence in shard-key order.
  const auto rated = engine_.rated_sessions_canonical();
  std::vector<confsim::ParticipantRecord> rated_want;
  for (const auto& rec : ref_.sessions()) {
    if (rec.mos) rated_want.push_back(rec);
  }
  ASSERT_EQ(rated.size(), rated_want.size());
  for (std::size_t i = 0; i < rated.size(); ++i) {
    expect_record_eq(rated[i], rated_want[i], "rated " + std::to_string(i));
  }
}

TEST_P(ColumnarDifferential, EmptyWindowSelectsNothing) {
  ShardSelector sel;
  sel.first = Date{2023, 6, 1};
  sel.last = Date{2023, 6, 30};
  const SweepSpec spec = sweep_for(netsim::Metric::kLatency, 12);
  EXPECT_TRUE(
      engine_.engagement_curve(spec, EngagementMetric::kPresence, nullptr, sel)
          .points.empty());
  EXPECT_EQ(engine_.tally(nullptr, sel).sessions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Battery, ColumnarDifferential,
    ::testing::Values(
        Config{1, false}, Config{1, true}, Config{2, true}, Config{8, false},
        Config{8, true}),
    config_name);

// ---- Columnar predicted tallies vs the per-record predictor -------------
// tally(.., &predictor) predicts each scanned row from the seven feature
// columns in place; the per-record std::function overload materializes
// the row and calls predict(record). Both must give every Tally field
// bit for bit, over windows that cut months, cover whole months and meet
// the year edge, at several thread counts, with summaries on and off.

/// Nov 2021 - Feb 2022: the battery corpus generator across a year edge.
const std::vector<confsim::CallRecord>& year_edge_corpus() {
  static const std::vector<confsim::CallRecord> calls = synth_corpus(2021, 11);
  return calls;
}

/// 64 seeded windows over Oct 2021 - Mar 2022 (a month of empty margin
/// each side of the corpus), cycling through four shapes: a mid-month cut,
/// whole months, a window that ends on Dec 31 or starts on Jan 1, and one
/// that straddles the year edge with an open end a quarter of the time.
/// About half carry a platform and half an access selector.
std::vector<ShardSelector> random_windows() {
  std::uint64_t seed = 7;
  const auto pick = [&](std::uint64_t n) {
    return static_cast<int>(lcg_next(seed) % n);
  };
  const Date span_first{2021, 10, 1};
  const int first_mk = month_key(span_first);
  std::vector<ShardSelector> out;
  for (int i = 0; i < 64; ++i) {
    ShardSelector sel;
    switch (i % 4) {
      case 0: {
        Date a = span_first.plus_days(pick(182));
        Date b = span_first.plus_days(pick(182));
        if (b < a) std::swap(a, b);
        sel.first = a;
        sel.last = b;
        break;
      }
      case 1: {
        const int mk = first_mk + pick(6);
        sel.first = core::month_key_start(mk);
        sel.last = core::month_key_start(mk + 1 + pick(3)).plus_days(-1);
        break;
      }
      case 2:
        if (pick(2) == 0) {
          sel.first = Date{2021, 11 + pick(2), 1 + pick(28)};
          sel.last = Date{2021, 12, 31};
        } else {
          sel.first = Date{2022, 1, 1};
          sel.last = Date{2022, 1 + pick(2), 1 + pick(28)};
        }
        break;
      default:
        sel.first = Date{2021, 12, 1 + pick(31)};
        sel.last = Date{2022, 1, 1 + pick(31)};
        if (pick(4) == 0) {
          if (pick(2) == 0) {
            sel.first.reset();
          } else {
            sel.last.reset();
          }
        }
        break;
    }
    if (pick(2) == 0) {
      sel.platform = static_cast<confsim::Platform>(
          pick(static_cast<std::uint64_t>(confsim::kNumPlatforms)));
    }
    if (pick(2) == 0) {
      sel.access = static_cast<netsim::AccessTechnology>(
          pick(static_cast<std::uint64_t>(netsim::kNumAccessTechnologies)));
    }
    out.push_back(sel);
  }
  return out;
}

class ColumnarPredictedTally : public ::testing::TestWithParam<Config> {
 protected:
  ColumnarPredictedTally() {
    if (GetParam().threads > 1) {
      pool_ = std::make_unique<core::ThreadPool>(GetParam().threads);
      engine_.set_thread_pool(pool_.get());
    }
    if (GetParam().summaries) engine_.configure_summaries(SummaryConfig{});
    engine_.ingest(std::span<const confsim::CallRecord>{year_edge_corpus()});
    predictor_.train(engine_.rated_sessions_canonical());
  }

  std::unique_ptr<core::ThreadPool> pool_;
  CorrelationEngine engine_;
  MosPredictor predictor_;
};

TEST_P(ColumnarPredictedTally, MatchesThePerRecordPredictorBitForBit) {
  const std::function<double(const confsim::ParticipantRecord&)> per_record =
      [this](const confsim::ParticipantRecord& rec) {
        return predictor_.predict(rec);
      };
  const std::vector<ShardSelector> windows = random_windows();
  // Cold: no predicted sums are fresh, so every shard scans on both sides.
  std::vector<CorrelationEngine::Tally> want;
  std::size_t predicting = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    want.push_back(engine_.tally(nullptr, windows[i], per_record));
    expect_tally_eq(engine_.tally(nullptr, windows[i], &predictor_), want[i],
                    "cold window " + std::to_string(i));
    predicting += want[i].predicted > 0 ? 1 : 0;
  }
  EXPECT_GT(predicting, windows.size() / 2);  // the windows reach rows
  if (!GetParam().summaries) return;

  // Warm: refreshed summaries answer whole months, boundary shards scan.
  // Both refresh paths must land on the cold per-record sums.
  engine_.refresh_predicted_tallies(&predictor_);
  QueryFanoutStats fanout;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    expect_tally_eq(
        engine_.tally(nullptr, windows[i], &predictor_, &fanout), want[i],
        "warm columnar window " + std::to_string(i));
  }
  EXPECT_GT(fanout.shards_from_summary, 0u);
  EXPECT_GT(fanout.shards_scanned, 0u);
  engine_.refresh_predicted_tallies(per_record);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    expect_tally_eq(engine_.tally(nullptr, windows[i], per_record), want[i],
                    "warm per-record window " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, ColumnarPredictedTally,
    ::testing::Values(Config{1, false}, Config{1, true}, Config{2, false},
                      Config{2, true}, Config{4, false}, Config{4, true}),
    config_name);

TEST(ColumnarPredictedService, CutWindowPredictedMeanEqualsThePerRecordValue) {
  // QueryService tallies through the columnar overload; its predicted mean
  // for a boundary-cut window must be the per-record one, exactly.
  QueryServiceConfig config;
  config.threads = 2;
  config.insight_cache_entries = 0;
  QueryService service{config};
  service.ingest_calls(year_edge_corpus());
  ASSERT_TRUE(service.train_predictor());
  CorrelationEngine engine;
  engine.configure_summaries(config.summary_layout);
  engine.ingest(std::span<const confsim::CallRecord>{year_edge_corpus()});
  MosPredictor predictor;
  predictor.train(engine.rated_sessions_canonical());

  Query cut;
  cut.first = Date{2021, 11, 20};
  cut.last = Date{2022, 1, 10};
  const Insight insight = service.run(cut);
  EXPECT_EQ(insight.execution.served_by, ServedBy::kMixed);
  const CorrelationEngine::Tally want = engine.tally(
      nullptr, {cut.first, cut.last, cut.platform, cut.access},
      std::function<double(const confsim::ParticipantRecord&)>{
          [&](const confsim::ParticipantRecord& rec) {
            return predictor.predict(rec);
          }});
  ASSERT_GT(want.predicted, 0u);
  ASSERT_TRUE(insight.predicted_mean_mos.has_value());
  EXPECT_EQ(*insight.predicted_mean_mos,
            want.predicted_mos_sum / static_cast<double>(want.predicted));
}

// ---- Randomized curve battery --------------------------------------------
// The 64 seeded windows above, each with a sweep that matches a summary
// axis or one that no summary holds: the fused and the single-metric
// curves must equal the frozen row reference in every CurvePoint field,
// at 1/2/4 threads, with summaries on and off. With summaries on, the
// reference accumulates summary-answered shards the way their summaries
// do (per-access buckets merged in enum order), so even whole-population
// curves on a summary axis compare with ==.

const RowReference& year_edge_reference() {
  static const RowReference ref{year_edge_corpus()};
  return ref;
}

/// Window i's sweep: a summary axis for even i / 4, else 12 bins, which no
/// summary holds; the metric cycles with i.
SweepSpec window_sweep(std::size_t i) {
  const netsim::Metric m = kMetrics[i % std::size(kMetrics)];
  return sweep_for(m, (i / 4) % 2 == 0 ? 10 : 12);
}

class ColumnarCurveWindows : public ::testing::TestWithParam<Config> {
 protected:
  ColumnarCurveWindows() {
    if (GetParam().threads > 1) {
      pool_ = std::make_unique<core::ThreadPool>(GetParam().threads);
      engine_.set_thread_pool(pool_.get());
    }
    if (GetParam().summaries) engine_.configure_summaries(layout_);
    engine_.ingest(std::span<const confsim::CallRecord>{year_edge_corpus()});
  }

  const SummaryConfig layout_{};
  std::unique_ptr<core::ThreadPool> pool_;
  CorrelationEngine engine_;
};

TEST_P(ColumnarCurveWindows, FusedAndSingleCurvesMatchTheRowReference) {
  const RowReference& ref = year_edge_reference();
  const SummaryConfig* summaries = GetParam().summaries ? &layout_ : nullptr;
  const std::vector<ShardSelector> windows = random_windows();
  QueryFanoutStats fanout;
  std::size_t populated = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const SweepSpec spec = window_sweep(i);
    const std::vector<EngagementCurve> fused =
        engine_.engagement_curves(spec, nullptr, windows[i], &fanout);
    ASSERT_EQ(fused.size(), std::size(kEngagements));
    for (std::size_t k = 0; k < std::size(kEngagements); ++k) {
      const std::string what =
          "window " + std::to_string(i) + " series " + std::to_string(k);
      const std::vector<CurvePoint> want = ref.engagement_curve(
          spec, kEngagements[k], nullptr, windows[i], summaries);
      EXPECT_EQ(fused[k].engagement_metric, kEngagements[k]) << what;
      expect_points_eq(fused[k].points, want, "fused " + what);
      expect_points_eq(
          engine_.engagement_curve(spec, kEngagements[k], nullptr, windows[i])
              .points,
          want, "single " + what);
      populated += want.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(populated, windows.size());  // the windows reach rows
  EXPECT_GT(fanout.shards_scanned, 0u);
  if (GetParam().summaries) {
    EXPECT_GT(fanout.shards_from_summary, 0u);
  } else {
    EXPECT_EQ(fanout.shards_from_summary, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, ColumnarCurveWindows,
    ::testing::Values(Config{1, false}, Config{1, true}, Config{2, false},
                      Config{2, true}, Config{4, false}, Config{4, true}),
    config_name);

// ---- Fused sweep inside QueryService -----------------------------------

TEST(FusedSweepExecution, InsightFanoutAndServedByMatchTheSingleCallSequence) {
  // QueryService answers the engagement side with one fused sweep. Its
  // per-query execution report must still read as the three
  // engagement_curve + three mos_correlation + tally calls it replaced,
  // for a scan, a mixed and a summary-merge query.
  Query whole;  // default axis, whole months
  whole.first = Date{2022, 1, 1};
  whole.last = Date{2022, 4, 30};
  Query cut = whole;  // mid-month cuts: boundary shards scan
  cut.first = Date{2022, 1, 15};
  cut.last = Date{2022, 3, 20};
  struct Case {
    Query query;
    bool summaries;
    ServedBy served_by;
  };
  const Case cases[] = {{whole, false, ServedBy::kScan},
                        {cut, true, ServedBy::kMixed},
                        {whole, true, ServedBy::kSummaryMerge}};
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.served_by));
    QueryServiceConfig config;
    config.threads = 2;
    config.insight_cache_entries = 0;
    config.shard_summaries = c.summaries;
    QueryService service{config};
    service.ingest_calls(corpus());
    CorrelationEngine engine;
    if (c.summaries) engine.configure_summaries(config.summary_layout);
    engine.ingest(std::span<const confsim::CallRecord>{corpus()});

    const ShardSelector selector{c.query.first, c.query.last,
                                 c.query.platform, c.query.access};
    SweepSpec spec;
    spec.metric = c.query.metric;
    spec.lo = c.query.metric_lo;
    spec.hi = c.query.metric_hi;
    spec.bins = c.query.bins;
    spec.control_others = false;
    QueryFanoutStats want;
    std::vector<EngagementCurve> curves;
    for (const EngagementMetric e : kEngagements) {
      curves.push_back(
          engine.engagement_curve(spec, e, nullptr, selector, &want));
      (void)engine.mos_correlation(e, 50, &want);
    }
    (void)engine.tally(nullptr, selector, nullptr, &want);

    const Insight insight = service.run(c.query);
    EXPECT_EQ(insight.execution.served_by, c.served_by);
    EXPECT_EQ(insight.execution.shards_from_summary, want.shards_from_summary);
    EXPECT_EQ(insight.execution.shards_scanned, want.shards_scanned);
    ASSERT_EQ(insight.engagement.size(), curves.size());
    for (std::size_t k = 0; k < curves.size(); ++k) {
      expect_points_eq(insight.engagement[k].points, curves[k].points,
                       "service curve");
    }
  }
}

// ---- One pass per scanned shard: curves and tally from one fan-out -----
// curves_and_tally() plans once and scans each boundary shard once for
// both answers. Over the 64 seeded windows, each with a summary axis or
// one no summary holds, it must equal the separate engagement_curves() +
// tally() calls and the frozen row reference in every CurvePoint and
// Tally field, and count the same shard visits, per call and per shard,
// with no predictor, a cold one (predicted sums scanned) and a warm one
// (predicted sums merged from summaries), at 1/2/4 threads.

/// Every session shard's touch counters, keyed by their label set.
std::map<std::string, std::uint64_t> session_touches(
    const core::telemetry::Registry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const core::telemetry::MetricFamily& family : registry.collect()) {
    if (family.name != "usaas_shard_touches_total") continue;
    for (const core::telemetry::Sample& sample : family.samples) {
      if (sample.labels.find("corpus=\"sessions\"") != std::string::npos) {
        out[sample.labels] = sample.value_u;
      }
    }
  }
  return out;
}

/// `after` minus `before`, label by label.
std::map<std::string, std::uint64_t> touch_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [labels, n] : after) {
    const auto it = before.find(labels);
    out[labels] = n - (it == before.end() ? 0 : it->second);
  }
  return out;
}

class FusedInsightScan : public ::testing::TestWithParam<Config> {
 protected:
  FusedInsightScan() {
    if (GetParam().threads > 1) {
      pool_ = std::make_unique<core::ThreadPool>(GetParam().threads);
      engine_.set_thread_pool(pool_.get());
    }
    engine_.set_telemetry(&registry_);
    if (GetParam().summaries) engine_.configure_summaries(layout_);
    engine_.ingest(std::span<const confsim::CallRecord>{year_edge_corpus()});
    predictor_.train(engine_.rated_sessions_canonical());
  }

  const SummaryConfig layout_{};
  core::telemetry::Registry registry_{true};
  std::unique_ptr<core::ThreadPool> pool_;
  CorrelationEngine engine_;
  MosPredictor predictor_;
};

TEST_P(FusedInsightScan, CurvesAndTallyEqualTheSeparateCallsAndTheReference) {
  const RowReference& ref = year_edge_reference();
  const SummaryConfig* summaries = GetParam().summaries ? &layout_ : nullptr;
  const std::function<double(const confsim::ParticipantRecord&)> per_record =
      [this](const confsim::ParticipantRecord& rec) {
        return predictor_.predict(rec);
      };
  const std::vector<ShardSelector> windows = random_windows();
  struct Mode {
    const char* name;
    const MosPredictor* predictor;
    bool warm;
  };
  const Mode modes[] = {{"no predictor", nullptr, false},
                        {"cold predictor", &predictor_, false},
                        {"warm predictor", &predictor_, true}};
  QueryFanoutStats total;
  std::size_t reached = 0;
  for (const Mode& mode : modes) {
    if (mode.warm) engine_.refresh_predicted_tallies(&predictor_);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const std::string what =
          std::string(mode.name) + " window " + std::to_string(i);
      const SweepSpec spec = window_sweep(i);
      const ShardSelector& sel = windows[i];

      QueryFanoutStats fused_fanout;
      const auto touches0 = session_touches(registry_);
      const CorrelationEngine::CurvesAndTally fused = engine_.curves_and_tally(
          spec, nullptr, sel, mode.predictor, &fused_fanout);
      const auto touches1 = session_touches(registry_);
      QueryFanoutStats separate_fanout;
      const std::vector<EngagementCurve> curves =
          engine_.engagement_curves(spec, nullptr, sel, &separate_fanout);
      const CorrelationEngine::Tally tally =
          engine_.tally(nullptr, sel, mode.predictor, &separate_fanout);
      const auto touches2 = session_touches(registry_);

      ASSERT_EQ(fused.curves.size(), std::size(kEngagements)) << what;
      for (std::size_t k = 0; k < std::size(kEngagements); ++k) {
        const std::string series = what + " series " + std::to_string(k);
        EXPECT_EQ(fused.curves[k].network_metric, spec.metric) << series;
        EXPECT_EQ(fused.curves[k].engagement_metric, kEngagements[k])
            << series;
        expect_points_eq(fused.curves[k].points, curves[k].points,
                         "vs separate " + series);
        expect_points_eq(
            fused.curves[k].points,
            ref.engagement_curve(spec, kEngagements[k], nullptr, sel,
                                 summaries),
            "vs reference " + series);
      }
      expect_tally_eq(fused.tally, tally, "vs separate " + what);
      expect_tally_eq(
          fused.tally,
          ref.tally(nullptr, sel, mode.predictor ? per_record : nullptr),
          "vs reference " + what);

      EXPECT_EQ(fused_fanout.shards_from_summary,
                separate_fanout.shards_from_summary)
          << what;
      EXPECT_EQ(fused_fanout.shards_scanned, separate_fanout.shards_scanned)
          << what;
      EXPECT_EQ(touch_delta(touches0, touches1),
                touch_delta(touches1, touches2))
          << what;
      total.shards_from_summary += fused_fanout.shards_from_summary;
      total.shards_scanned += fused_fanout.shards_scanned;
      reached += fused.tally.sessions > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(reached, windows.size());  // the windows reach rows
  EXPECT_GT(total.shards_scanned, 0u);
  if (GetParam().summaries) {
    EXPECT_GT(total.shards_from_summary, 0u);
  } else {
    EXPECT_EQ(total.shards_from_summary, 0u);
  }
}

TEST_P(FusedInsightScan, ConfounderControlledAndFilteredShapesMatch) {
  // Shapes the service never sends but the entry accepts: a confounder-
  // controlled sweep (rows out of control are tallied, not binned), a
  // P95 sweep, and an opaque filter that forces every shard to scan.
  ShardSelector cut;
  cut.first = Date{2021, 11, 20};
  cut.last = Date{2022, 1, 10};
  const SweepSpec specs[] = {
      sweep_for(netsim::Metric::kJitter, 12, /*control=*/true),
      sweep_for(netsim::Metric::kLatency, 10, false, SessionAggregate::kP95),
      sweep_for(netsim::Metric::kLatency, 10)};
  const RowReference& ref = year_edge_reference();
  for (const ParticipantFilter& filter : {ParticipantFilter{}, kOpaqueFilter}) {
    for (const SweepSpec& spec : specs) {
      for (const ShardSelector& sel : {ShardSelector{}, cut}) {
        QueryFanoutStats fused_fanout;
        QueryFanoutStats separate_fanout;
        const auto fused = engine_.curves_and_tally(spec, filter, sel,
                                                    &predictor_, &fused_fanout);
        const auto curves =
            engine_.engagement_curves(spec, filter, sel, &separate_fanout);
        expect_tally_eq(
            fused.tally,
            engine_.tally(filter, sel, &predictor_, &separate_fanout),
            "vs separate tally");
        for (std::size_t k = 0; k < std::size(kEngagements); ++k) {
          expect_points_eq(fused.curves[k].points, curves[k].points,
                           "vs separate curve");
          expect_points_eq(
              fused.curves[k].points,
              ref.engagement_curve(spec, kEngagements[k], filter, sel,
                                   GetParam().summaries ? &layout_ : nullptr),
              "vs reference curve");
        }
        EXPECT_EQ(fused_fanout.shards_from_summary,
                  separate_fanout.shards_from_summary);
        EXPECT_EQ(fused_fanout.shards_scanned, separate_fanout.shards_scanned);
      }
    }
  }
}

TEST_P(FusedInsightScan, CancelledScanSkipsTheTallysShardsToo) {
  // A probe that answers true before the first shard abandons both
  // answers; one that never fires changes nothing.
  const SweepSpec spec = window_sweep(1);
  const auto cancelled = engine_.curves_and_tally(
      spec, nullptr, {}, &predictor_, nullptr, [] { return true; });
  for (const EngagementCurve& curve : cancelled.curves) {
    EXPECT_TRUE(curve.points.empty());
  }
  expect_tally_eq(cancelled.tally, {}, "cancelled tally");
  const auto full = engine_.curves_and_tally(
      spec, nullptr, {}, &predictor_, nullptr, [] { return false; });
  expect_tally_eq(full.tally, engine_.tally(nullptr, {}, &predictor_),
                  "never-cancelled tally");
  EXPECT_GT(full.tally.sessions, 0u);
}

TEST_P(FusedInsightScan, OpaqueFilterRunsOncePerSelectedRow) {
  // One pass per scanned shard: the fused scan asks the filter once per
  // structurally selected row, where the two fan-outs it replaced ask
  // twice. An always-true filter turns summaries off, so every shard
  // scans and the tally counts every row the filter saw.
  std::atomic<std::size_t> filter_calls{0};
  const ParticipantFilter counting = [&](const confsim::ParticipantRecord&) {
    filter_calls.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  ShardSelector cut;
  cut.first = Date{2021, 11, 20};
  cut.last = Date{2022, 1, 10};
  for (const bool control : {false, true}) {
    const SweepSpec spec = sweep_for(netsim::Metric::kJitter, 12, control);
    for (const ShardSelector& sel : {ShardSelector{}, cut}) {
      filter_calls.store(0);
      const auto fused =
          engine_.curves_and_tally(spec, counting, sel, &predictor_);
      EXPECT_GT(fused.tally.sessions, 0u);
      EXPECT_EQ(filter_calls.load(), fused.tally.sessions)
          << "control_others=" << control
          << " cut=" << sel.first.has_value();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, FusedInsightScan,
    ::testing::Values(Config{1, false}, Config{1, true}, Config{2, false},
                      Config{2, true}, Config{4, false}, Config{4, true}),
    config_name);

/// A clock that reads 0 for its first `live` reads and 1e9 from then on:
/// a deadline of 1.0 expires at read number `live`, wherever that read
/// happens — a phase boundary or a per-shard poll inside a fan-out.
class ExpiringClock final : public core::SchedulerClock {
 public:
  explicit ExpiringClock(std::uint64_t live) : live_{live} {}
  [[nodiscard]] double now() override {
    return reads_.fetch_add(1, std::memory_order_relaxed) < live_ ? 0.0 : 1e9;
  }
  void wait(double /*seconds*/) override {}
  [[nodiscard]] std::uint64_t reads() const {
    return reads_.load(std::memory_order_relaxed);
  }

 private:
  const std::uint64_t live_;
  std::atomic<std::uint64_t> reads_{0};
};

TEST(FusedInsightDeadline, ExpiryAnywhereInTheFanOutReturnsTheSkeleton) {
  // A cut window on an axis no summary holds, with a fresh predictor: the
  // cut months scan both the sweep and the tally in one pass, the whole
  // months merge the tally and scan the sweep. Expiring at every clock
  // read in turn — before the fan-out, at each per-shard poll inside it,
  // after it, and on the social side — must give the explicit skeleton:
  // no partial curves, no partial tally, nothing cached or slow-logged.
  QueryServiceConfig config;
  config.threads = 2;
  QueryService service{config};
  service.ingest_calls(year_edge_corpus());
  ASSERT_TRUE(service.train_predictor());
  Query query;
  query.first = Date{2021, 11, 9};
  query.last = Date{2022, 2, 17};
  query.bins = 12;

  // The answer and the clock reads of a run that never expires, from a
  // twin service (this one must stay uncached).
  QueryService twin{config};
  twin.ingest_calls(year_edge_corpus());
  ASSERT_TRUE(twin.train_predictor());
  ExpiringClock never{~std::uint64_t{0}};
  const Insight want = twin.run(query, RunBudget{&never, 1.0});
  ASSERT_EQ(want.error, QueryError::kNone);
  ASSERT_EQ(want.execution.served_by, ServedBy::kMixed);
  ASSERT_GT(want.sessions, 0u);
  ASSERT_TRUE(want.predicted_mean_mos.has_value());
  const std::uint64_t reads = never.reads();
  const std::size_t shards = year_edge_reference()
                                 .select({query.first, query.last,
                                          query.platform, query.access})
                                 .size();
  // Besides the phase-boundary reads, one poll per shard of the implicit
  // fan-out: some expiries land mid-fan-out.
  ASSERT_GE(reads, shards + 3);

  for (std::uint64_t live = 0; live < reads; ++live) {
    SCOPED_TRACE("expires at read " + std::to_string(live));
    ExpiringClock clock{live};
    const Insight got = service.run(query, RunBudget{&clock, 1.0});
    EXPECT_EQ(got.error, QueryError::kDeadlineExceeded);
    EXPECT_EQ(got.execution.served_by, ServedBy::kExpired);
    EXPECT_TRUE(got.engagement.empty());
    EXPECT_TRUE(got.mos_spearman.empty());
    EXPECT_EQ(got.sessions, 0u);
    EXPECT_EQ(got.rated_sessions, 0u);
    EXPECT_FALSE(got.observed_mean_mos.has_value());
    EXPECT_FALSE(got.predicted_mean_mos.has_value());
    EXPECT_EQ(got.posts, 0u);
    EXPECT_EQ(service.stats().insight_cache.entries, 0u);
    EXPECT_TRUE(service.slow_queries().empty());
  }

  // A budget that outlives every read answers in full, like the twin.
  ExpiringClock late{reads};
  const Insight got = service.run(query, RunBudget{&late, 1.0});
  ASSERT_EQ(got.error, QueryError::kNone);
  EXPECT_FALSE(got.execution.cache_hit);
  EXPECT_EQ(got.sessions, want.sessions);
  EXPECT_EQ(got.rated_sessions, want.rated_sessions);
  EXPECT_EQ(got.observed_mean_mos, want.observed_mean_mos);
  EXPECT_EQ(got.predicted_mean_mos, want.predicted_mean_mos);
  ASSERT_EQ(got.engagement.size(), want.engagement.size());
  for (std::size_t k = 0; k < got.engagement.size(); ++k) {
    expect_points_eq(got.engagement[k].points, want.engagement[k].points,
                     "late-deadline curve");
  }
  EXPECT_EQ(service.stats().insight_cache.entries, 1u);
  EXPECT_EQ(service.slow_queries().size(), 1u);
}

// ---- Ingest-path equivalence -------------------------------------------

TEST(ColumnarIngest, PerCallAndBatchPathsAgreeBitForBit) {
  // One-call batches and one whole batch must produce the same columns:
  // same rows, same order, same bytes.
  CorrelationEngine batch;
  core::ThreadPool pool{4};
  batch.set_thread_pool(&pool);
  batch.ingest(std::span<const confsim::CallRecord>{corpus()});
  CorrelationEngine per_call;
  for (const confsim::CallRecord& call : corpus()) per_call.ingest({&call, 1});

  ASSERT_EQ(batch.session_count(), per_call.session_count());
  const auto a = batch.sessions();
  const auto b = per_call.sessions();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 11) {
    expect_record_eq(a[i], b[i], "ingest-path session " + std::to_string(i));
  }
  const SweepSpec spec = sweep_for(netsim::Metric::kLatency, 12);
  expect_points_eq(
      batch.engagement_curve(spec, EngagementMetric::kPresence).points,
      per_call.engagement_curve(spec, EngagementMetric::kPresence).points,
      "ingest-path curve");
}

TEST(ColumnarIngest, RepeatedBatchesReuseScratchAndStayOrdered) {
  // Several batches through one engine: scratch reuse across batches must
  // not corrupt slot order or leak rows between shards.
  CorrelationEngine engine;
  core::ThreadPool pool{4};
  engine.set_thread_pool(&pool);
  const auto& calls = corpus();
  const std::size_t third = calls.size() / 3;
  engine.ingest(std::span<const confsim::CallRecord>{calls.data(), third});
  engine.ingest(
      std::span<const confsim::CallRecord>{calls.data() + third, third});
  engine.ingest(std::span<const confsim::CallRecord>{
      calls.data() + 2 * third, calls.size() - 2 * third});

  CorrelationEngine once;
  once.ingest(std::span<const confsim::CallRecord>{calls});
  ASSERT_EQ(engine.session_count(), once.session_count());
  const auto a = engine.sessions();
  const auto b = once.sessions();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 13) {
    expect_record_eq(a[i], b[i], "batched session " + std::to_string(i));
  }
}

TEST(ColumnarFanout, DropoffCurveCountsItsShardVisits) {
  // dropoff_curve plans its shards like every other fan-out, so its visits
  // reach fanout_stats() and the per-shard scan touch counters — one per
  // selected shard, all scans (summaries keep no drop-off bins).
  core::telemetry::Registry registry{true};
  CorrelationEngine engine;
  engine.set_telemetry(&registry);
  engine.configure_summaries(SummaryConfig{});
  engine.ingest(std::span<const confsim::CallRecord>{corpus()});
  const auto scan_touches = [&] {
    std::uint64_t n = 0;
    for (const core::telemetry::MetricFamily& family : registry.collect()) {
      if (family.name != "usaas_shard_touches_total") continue;
      for (const core::telemetry::Sample& sample : family.samples) {
        if (sample.labels.find("corpus=\"sessions\"") != std::string::npos &&
            sample.labels.find("source=\"scan\"") != std::string::npos) {
          n += sample.value_u;
        }
      }
    }
    return n;
  };
  ShardSelector sel;
  sel.first = Date{2022, 2, 1};
  sel.last = Date{2022, 3, 31};
  const std::uint64_t selected = reference().select(sel).size();
  ASSERT_GT(selected, 0u);
  ASSERT_LT(selected, engine.shard_count());

  const QueryFanoutStats before = engine.fanout_stats();
  const std::uint64_t touches_before = scan_touches();
  const auto curve =
      engine.dropoff_curve(sweep_for(netsim::Metric::kLoss, 10), nullptr, sel);
  EXPECT_FALSE(curve.empty());
  const QueryFanoutStats after = engine.fanout_stats();
  EXPECT_EQ(after.shards_scanned - before.shards_scanned, selected);
  EXPECT_EQ(after.shards_from_summary, before.shards_from_summary);
  EXPECT_EQ(scan_touches() - touches_before, selected);
}

TEST(ColumnarStore, PackedDayKeyPreservesDateOrder) {
  // Order-preservation is what turns the date-window residual into two
  // integer compares; spot-check across month/year boundaries.
  const Date dates[] = {Date{2021, 12, 31}, Date{2022, 1, 1},
                        Date{2022, 1, 31},  Date{2022, 2, 1},
                        Date{2022, 12, 31}, Date{2023, 1, 1}};
  for (std::size_t i = 1; i < std::size(dates); ++i) {
    EXPECT_LT(core::pack_day_key(dates[i - 1]), core::pack_day_key(dates[i]));
  }
  for (const Date& d : dates) {
    const Date back = core::unpack_day_key(core::pack_day_key(d));
    EXPECT_EQ(back.year(), d.year());
    EXPECT_EQ(back.month(), d.month());
    EXPECT_EQ(back.day(), d.day());
  }
}

}  // namespace
}  // namespace usaas::service
