// Tests for signal normalization (Fig 8's ingestion layer) plus the P95
// aggregation claim and the access-network query filter.
#include <gtest/gtest.h>

#include "confsim/dataset.h"
#include "social/subreddit.h"
#include "usaas/correlation_engine.h"
#include "usaas/query_service.h"
#include "usaas/signals.h"

namespace usaas::service {
namespace {

using core::Date;

// ---- normalize_call ----

TEST(NormalizeCall, OneImplicitSignalPerParticipant) {
  confsim::DatasetConfig cfg;
  cfg.seed = 3;
  cfg.num_calls = 50;
  const auto calls = confsim::CallDatasetGenerator{cfg}.generate();
  for (const auto& call : calls) {
    const auto signals = normalize_call(call);
    std::size_t implicit = 0;
    std::size_t mos = 0;
    for (const auto& s : signals) {
      if (std::holds_alternative<ImplicitSignal>(s)) ++implicit;
      if (std::holds_alternative<MosSignal>(s)) ++mos;
      EXPECT_EQ(signal_date(s), call.start.date);
    }
    EXPECT_EQ(implicit, call.participants.size());
    std::size_t rated = 0;
    for (const auto& p : call.participants) rated += p.mos ? 1 : 0;
    EXPECT_EQ(mos, rated);
  }
}

TEST(NormalizeCall, FieldsCarriedThrough) {
  confsim::DatasetConfig cfg;
  cfg.seed = 4;
  cfg.num_calls = 5;
  const auto calls = confsim::CallDatasetGenerator{cfg}.generate();
  const auto signals = normalize_call(calls.front());
  const auto& sig = std::get<ImplicitSignal>(signals.front());
  const auto& rec = calls.front().participants.front();
  EXPECT_EQ(sig.platform, rec.platform);
  EXPECT_DOUBLE_EQ(sig.presence_pct, rec.presence_pct);
  EXPECT_DOUBLE_EQ(sig.conditions.latency.ms(),
                   rec.network.latency_ms.mean);
}

// ---- normalize_post ----

class NormalizePostTest : public ::testing::Test {
 protected:
  static const std::vector<social::Post>& posts() {
    static const auto instance = [] {
      social::SubredditConfig cfg;
      cfg.first_day = Date(2022, 1, 1);
      cfg.last_day = Date(2022, 2, 28);
      leo::LaunchSchedule sched;
      social::RedditSim sim{
          cfg,
          leo::SpeedModel{leo::ConstellationModel{sched},
                          leo::SubscriberModel{}},
          leo::OutageModel{cfg.first_day, cfg.last_day, 5},
          leo::EventTimeline{sched}};
      return sim.simulate();
    }();
    return instance;
  }
  nlp::SentimentAnalyzer analyzer_;
};

TEST_F(NormalizePostTest, ScoresSumToOneAndDatesMatch) {
  for (std::size_t i = 0; i < 200; ++i) {
    const auto& post = posts()[i * posts().size() / 200];
    const auto sig = std::get<SocialSignal>(normalize_post(
        post, analyzer_, nlp::KeywordDictionary::outage_dictionary()));
    EXPECT_NEAR(sig.positive + sig.negative + sig.neutral, 1.0, 1e-9);
    EXPECT_EQ(sig.date, post.date);
    EXPECT_DOUBLE_EQ(sig.popularity, post.popularity());
  }
}

TEST_F(NormalizePostTest, ScreenshotPostsYieldDownlink) {
  std::size_t with_screenshot = 0;
  std::size_t extracted = 0;
  for (const auto& post : posts()) {
    if (!post.screenshot) continue;
    ++with_screenshot;
    const auto sig = std::get<SocialSignal>(normalize_post(
        post, analyzer_, nlp::KeywordDictionary::outage_dictionary()));
    if (sig.reported_downlink_mbps) {
      ++extracted;
      EXPECT_GT(*sig.reported_downlink_mbps, 0.0);
    }
  }
  ASSERT_GT(with_screenshot, 20u);
  // Most screenshots extract; some fail through OCR noise.
  EXPECT_GT(static_cast<double>(extracted) / with_screenshot, 0.7);
}

TEST_F(NormalizePostTest, OutageReportsFlagged) {
  std::size_t outage_posts = 0;
  for (const auto& post : posts()) {
    if (post.kind != social::PostKind::kOutageReport) continue;
    ++outage_posts;
    const auto sig = std::get<SocialSignal>(normalize_post(
        post, analyzer_, nlp::KeywordDictionary::outage_dictionary()));
    EXPECT_TRUE(sig.mentions_outage);
  }
  EXPECT_GT(outage_posts, 10u);
}

TEST_F(NormalizePostTest, DeterministicForSeed) {
  const social::Post* shot = nullptr;
  for (const auto& post : posts()) {
    if (post.screenshot) {
      shot = &post;
      break;
    }
  }
  ASSERT_NE(shot, nullptr);
  const auto a = std::get<SocialSignal>(normalize_post(
      *shot, analyzer_, nlp::KeywordDictionary::outage_dictionary(), 7));
  const auto b = std::get<SocialSignal>(normalize_post(
      *shot, analyzer_, nlp::KeywordDictionary::outage_dictionary(), 7));
  EXPECT_EQ(a.reported_downlink_mbps.has_value(),
            b.reported_downlink_mbps.has_value());
  if (a.reported_downlink_mbps) {
    EXPECT_DOUBLE_EQ(*a.reported_downlink_mbps, *b.reported_downlink_mbps);
  }
}

// ---- P95 aggregation (§3.1: "similar trends hold for P95") ----

TEST(P95Aggregation, LatencyTrendsHoldOnP95) {
  confsim::DatasetConfig cfg;
  cfg.seed = 6;
  cfg.num_calls = 6000;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  cfg.sweep_metric = netsim::Metric::kLatency;
  cfg.sweep_lo = 0.0;
  cfg.sweep_hi = 300.0;
  CorrelationEngine engine;
  engine.ingest(confsim::CallDatasetGenerator{cfg}.generate());

  SweepSpec spec;
  spec.metric = netsim::Metric::kLatency;
  spec.lo = 0.0;
  spec.hi = 560.0;  // P95 latency runs ~1.9x the mean
  spec.bins = 8;
  spec.control_others = false;
  spec.aggregate = SessionAggregate::kP95;
  const auto p95_curve =
      engine.engagement_curve(spec, EngagementMetric::kMicOn);
  ASSERT_GE(p95_curve.points.size(), 6u);
  // Same qualitative trend as the mean-based curve: mic-on falls >20%.
  EXPECT_GT(p95_curve.relative_drop_percent(), 20.0);
  // And the curve is broadly monotone decreasing.
  EXPECT_LT(p95_curve.points.back().engagement,
            p95_curve.points.front().engagement);
}

// ---- Access-network query filter (§5's Starlink x Teams example) ----

TEST(AccessFilter, NarrowsToLeoSatelliteUsers) {
  QueryService svc;
  confsim::DatasetConfig cfg;
  cfg.seed = 8;
  cfg.num_calls = 4000;
  svc.ingest_calls(confsim::CallDatasetGenerator{cfg}.generate());

  Query query;
  query.first = cfg.first_day;
  query.last = cfg.last_day;
  const auto all = svc.run(query);
  query.access = netsim::AccessTechnology::kLeoSatellite;
  const auto starlink = svc.run(query);
  // ~3% of the access mixture.
  EXPECT_GT(starlink.sessions, 0u);
  EXPECT_LT(starlink.sessions, all.sessions / 10);
}

}  // namespace
}  // namespace usaas::service
