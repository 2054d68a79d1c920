// Integration: the CorrelationEngine must RECOVER the planted behaviour
// shapes (Fig 1-4) from noisy, session-aggregated data — the engine never
// sees the behaviour parameters.
#include "usaas/correlation_engine.h"

#include <gtest/gtest.h>

#include "confsim/dataset.h"

namespace usaas::service {
namespace {

using confsim::CallDatasetGenerator;
using confsim::DatasetConfig;

CorrelationEngine engine_for_sweep(netsim::Metric metric, double lo, double hi,
                                   std::size_t calls = 6000) {
  DatasetConfig cfg;
  cfg.seed = 2022;
  cfg.num_calls = calls;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  cfg.sweep_metric = metric;
  cfg.sweep_lo = lo;
  cfg.sweep_hi = hi;
  CorrelationEngine engine;
  engine.ingest(CallDatasetGenerator{cfg}.generate());
  return engine;
}

SweepSpec spec_for(netsim::Metric metric, double lo, double hi,
                   std::size_t bins = 10) {
  SweepSpec s;
  s.metric = metric;
  s.lo = lo;
  s.hi = hi;
  s.bins = bins;
  return s;
}

double first_bin(const EngagementCurve& c) {
  return c.points.front().engagement;
}

// ---- Fig 1 (left): latency ----

class LatencyRecovery : public ::testing::Test {
 protected:
  static const CorrelationEngine& engine() {
    static const CorrelationEngine instance =
        engine_for_sweep(netsim::Metric::kLatency, 0.0, 300.0);
    return instance;
  }
};

TEST_F(LatencyRecovery, PresenceFallsRoughly20Percent) {
  const auto curve = engine().engagement_curve(
      spec_for(netsim::Metric::kLatency, 0.0, 300.0),
      EngagementMetric::kPresence);
  ASSERT_GE(curve.points.size(), 8u);
  const double drop = curve.relative_drop_percent();
  EXPECT_GT(drop, 12.0);
  EXPECT_LT(drop, 32.0);
}

TEST_F(LatencyRecovery, MicFallsMoreThan25Percent) {
  const auto curve = engine().engagement_curve(
      spec_for(netsim::Metric::kLatency, 0.0, 300.0),
      EngagementMetric::kMicOn);
  EXPECT_GT(curve.relative_drop_percent(), 22.0);
}

TEST_F(LatencyRecovery, MicPlateausAfter150ms) {
  const auto curve = engine().engagement_curve(
      spec_for(netsim::Metric::kLatency, 0.0, 300.0, 10),
      EngagementMetric::kMicOn);
  ASSERT_EQ(curve.points.size(), 10u);
  // Slope over the first half vs the second half of the range.
  const double early =
      curve.points[0].engagement - curve.points[4].engagement;
  const double late =
      curve.points[5].engagement - curve.points[9].engagement;
  EXPECT_GT(early, 2.5 * late);
}

TEST_F(LatencyRecovery, CurvesAreWellPopulated) {
  const auto curve = engine().engagement_curve(
      spec_for(netsim::Metric::kLatency, 0.0, 300.0),
      EngagementMetric::kPresence);
  for (const auto& p : curve.points) {
    EXPECT_GT(p.sessions, 200u);
  }
}

// ---- Fig 1 (middle-left): loss ----

class LossRecovery : public ::testing::Test {
 protected:
  static const CorrelationEngine& engine() {
    static const CorrelationEngine instance =
        engine_for_sweep(netsim::Metric::kLoss, 0.0, 3.5);
    return instance;
  }
};

TEST_F(LossRecovery, EngagementMovesLessThan10PercentUpTo2) {
  for (const auto metric :
       {EngagementMetric::kPresence, EngagementMetric::kCamOn,
        EngagementMetric::kMicOn}) {
    const auto curve = engine().engagement_curve(
        spec_for(netsim::Metric::kLoss, 0.0, 2.0), metric);
    EXPECT_LT(curve.relative_drop_percent(), 10.0)
        << to_string(metric);
  }
}

TEST_F(LossRecovery, DropOffJumpsAbove3Percent) {
  const auto curve = engine().dropoff_curve(
      spec_for(netsim::Metric::kLoss, 0.0, 3.5, 7));
  ASSERT_GE(curve.size(), 6u);
  const double at_low = curve.front().engagement;   // drop rate, fraction
  const double at_high = curve.back().engagement;
  EXPECT_GT(at_high, at_low + 0.10);
}

// ---- Fig 1 (middle-right): jitter ----

TEST(JitterRecovery, CamOnDropsMoreThan15PercentBy10ms) {
  const auto engine = engine_for_sweep(netsim::Metric::kJitter, 0.0, 12.0);
  const auto curve = engine.engagement_curve(
      spec_for(netsim::Metric::kJitter, 0.0, 12.0, 6),
      EngagementMetric::kCamOn);
  ASSERT_GE(curve.points.size(), 5u);
  // Compare the first bin to the bin containing 10 ms.
  const double at0 = first_bin(curve);
  double at10 = at0;
  for (const auto& p : curve.points) {
    if (p.metric_value >= 9.0 && p.metric_value <= 11.0) at10 = p.engagement;
  }
  EXPECT_LT(at10, at0 * 0.85);
}

// ---- Fig 1 (right): bandwidth ----

TEST(BandwidthRecovery, FlatAbove1MbpsAndMicInsensitive) {
  // Bandwidth is a "more is better" metric: the damaged end of the curve
  // is the FIRST bin, so drops are measured front-vs-max here.
  const auto engine =
      engine_for_sweep(netsim::Metric::kBandwidth, 0.25, 4.0);
  auto front_drop_pct = [](const EngagementCurve& c) {
    double best = 0.0;
    for (const auto& p : c.points) best = std::max(best, p.engagement);
    return 100.0 * (best - c.points.front().engagement) / best;
  };
  const auto presence = engine.engagement_curve(
      spec_for(netsim::Metric::kBandwidth, 1.0, 4.0, 6),
      EngagementMetric::kPresence);
  // Within the 1-4 Mbps band everything is within ~6% of the best.
  EXPECT_LT(front_drop_pct(presence), 8.0);
  const auto mic = engine.engagement_curve(
      spec_for(netsim::Metric::kBandwidth, 0.25, 4.0, 8),
      EngagementMetric::kMicOn);
  EXPECT_LT(front_drop_pct(mic), 5.0);
  // Below 1 Mbps the camera suffers visibly.
  const auto cam = engine.engagement_curve(
      spec_for(netsim::Metric::kBandwidth, 0.25, 4.0, 8),
      EngagementMetric::kCamOn);
  EXPECT_GT(front_drop_pct(cam), 12.0);
}

// ---- Fig 2: compounding ----

TEST(CompoundingRecovery, WorstCellRoughlyHalvesPresence) {
  DatasetConfig cfg;
  cfg.seed = 7;
  cfg.num_calls = 9000;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  // Sweep latency while letting loss take its control+tail values is not
  // enough for a 2-D grid; instead sweep latency and widen the loss
  // control window to cover the full loss range.
  cfg.sweep_metric = netsim::Metric::kLatency;
  cfg.sweep_lo = 0.0;
  cfg.sweep_hi = 320.0;
  cfg.control_windows.loss_hi_pct = 3.4;
  CorrelationEngine engine;
  engine.ingest(CallDatasetGenerator{cfg}.generate());

  const auto grid =
      engine.compounding_grid(EngagementMetric::kPresence, 320.0, 4, 3.4, 4);
  const auto best = grid.max_cell_mean();
  const auto worst = grid.min_cell_mean();
  ASSERT_TRUE(best && worst);
  const double dip = *worst / *best;
  EXPECT_LT(dip, 0.62);
  EXPECT_GT(dip, 0.30);
}

// ---- Fig 3: platform ----

TEST(PlatformRecovery, MobileDropsFasterWithLoss) {
  const auto engine = engine_for_sweep(netsim::Metric::kLoss, 0.0, 3.5, 12000);
  auto rel_drop = [&](confsim::Platform platform) {
    const auto curve = engine.engagement_curve(
        spec_for(netsim::Metric::kLoss, 0.0, 3.5, 7),
        EngagementMetric::kPresence,
        [platform](const confsim::ParticipantRecord& r) {
          return r.platform == platform;
        });
    return curve.relative_drop_percent();
  };
  const double android = rel_drop(confsim::Platform::kAndroid);
  const double windows = rel_drop(confsim::Platform::kWindowsPc);
  const double mac = rel_drop(confsim::Platform::kMacPc);
  EXPECT_GT(android, windows + 3.0);
  EXPECT_GT(windows, mac - 2.0);  // mac is least sensitive (allow noise)
}

// ---- Fig 4: engagement vs MOS ----

TEST(MosRecovery, EngagementCorrelatesWithMosAndPresenceStrongest) {
  // Population sampling (realistic joint conditions), large corpus so the
  // ~0.5% MOS sampling still yields enough rated sessions.
  DatasetConfig cfg;
  cfg.seed = 99;
  cfg.num_calls = 20000;
  cfg.sampling = confsim::ConditionSampling::kPopulation;
  CorrelationEngine engine;
  engine.ingest(CallDatasetGenerator{cfg}.generate());

  const auto presence =
      engine.mos_correlation(EngagementMetric::kPresence);
  const auto cam = engine.mos_correlation(EngagementMetric::kCamOn);
  const auto mic = engine.mos_correlation(EngagementMetric::kMicOn);
  ASSERT_TRUE(presence && cam && mic);
  EXPECT_GT(presence->rated_sessions, 100u);
  // All engagement metrics correlate positively with MOS...
  EXPECT_GT(presence->spearman, 0.1);
  EXPECT_GT(cam->spearman, 0.02);
  EXPECT_GT(mic->spearman, 0.02);
  // ...and Presence shows the strongest correlation (Fig 4).
  EXPECT_GT(presence->spearman, cam->spearman);
  EXPECT_GT(presence->spearman, mic->spearman);
  // The decile curve rises: better engagement, better MOS.
  ASSERT_GE(presence->decile_curve.size(), 8u);
  EXPECT_GT(presence->decile_curve.back().engagement,
            presence->decile_curve.front().engagement);
}

TEST(MosRecovery, TooFewSamplesReturnsNullopt) {
  DatasetConfig cfg;
  cfg.seed = 1;
  cfg.num_calls = 50;  // ~250 sessions -> ~1 rated
  CorrelationEngine engine;
  engine.ingest(CallDatasetGenerator{cfg}.generate());
  EXPECT_FALSE(
      engine.mos_correlation(EngagementMetric::kPresence, 50).has_value());
}

TEST(EngagementCurve, NormalizationMakesMax100) {
  EngagementCurve curve;
  curve.points = {{0.0, 80.0, 10}, {1.0, 40.0, 10}};
  const auto norm = curve.normalized();
  EXPECT_DOUBLE_EQ(norm.points[0].engagement, 100.0);
  EXPECT_DOUBLE_EQ(norm.points[1].engagement, 50.0);
  EXPECT_NEAR(norm.relative_drop_percent(), 50.0, 1e-9);
}

}  // namespace
}  // namespace usaas::service
