// Integration: the §4 pipelines (Fig 5, Fig 6, Fig 7, roaming) over the
// full two-year simulated r/Starlink corpus. The corpus is built once and
// shared across tests.
#include <gtest/gtest.h>

#include "social/subreddit.h"
#include "usaas/early_detector.h"
#include "usaas/fulcrum.h"
#include "usaas/outage_detector.h"
#include "usaas/peak_annotator.h"

namespace usaas::service {
namespace {

using core::Date;

struct Corpus {
  std::vector<social::Post> posts;
  leo::EventTimeline events{leo::LaunchSchedule{}};
  leo::OutageModel outages{Date(2021, 1, 1), Date(2022, 12, 31), 42};
  std::vector<social::DayTruth> truths;
  Date first{2021, 1, 1};
  Date last{2022, 12, 31};
};

const Corpus& corpus() {
  static const Corpus instance = [] {
    Corpus c;
    leo::LaunchSchedule sched;
    social::RedditSim sim{
        social::SubredditConfig{},
        leo::SpeedModel{leo::ConstellationModel{sched},
                        leo::SubscriberModel{}},
        leo::OutageModel{c.first, c.last, 42}, leo::EventTimeline{sched}};
    c.posts = sim.simulate();
    c.truths = sim.day_truths();
    return c;
  }();
  return instance;
}

const nlp::SentimentAnalyzer& analyzer() {
  static const nlp::SentimentAnalyzer instance;
  return instance;
}

// ---- Fig 5(a): sentiment peaks ----

class Fig5 : public ::testing::Test {
 protected:
  static const std::vector<AnnotatedPeak>& peaks() {
    static const std::vector<AnnotatedPeak> instance = [] {
      const PeakAnnotator annotator{analyzer(), corpus().events};
      return annotator.annotate(corpus().posts, corpus().first, corpus().last);
    }();
    return instance;
  }
};

TEST_F(Fig5, PostVolumeIsNearThePapers372PerWeek) {
  // The simulated corpus averages 389 posts/week over its two years; the
  // paper observes 372. Band: within 10 % of the paper's figure.
  const double weeks =
      static_cast<double>(corpus().first.days_until(corpus().last) + 1) / 7.0;
  const double per_week = static_cast<double>(corpus().posts.size()) / weeks;
  EXPECT_GE(per_week, 372.0 * 0.9);
  EXPECT_LE(per_week, 372.0 * 1.1);
}

TEST_F(Fig5, TopThreePeaksAreThePaperDates) {
  ASSERT_EQ(peaks().size(), 3u);
  std::vector<Date> dates;
  for (const auto& p : peaks()) dates.push_back(p.date);
  EXPECT_NE(std::find(dates.begin(), dates.end(), Date(2021, 2, 9)),
            dates.end());
  EXPECT_NE(std::find(dates.begin(), dates.end(), Date(2021, 11, 24)),
            dates.end());
  EXPECT_NE(std::find(dates.begin(), dates.end(), Date(2022, 4, 22)),
            dates.end());
}

TEST_F(Fig5, PreorderPeakIsPositiveAndAnnotated) {
  for (const auto& p : peaks()) {
    if (p.date != Date(2021, 2, 9)) continue;
    EXPECT_TRUE(p.positive_dominant);
    ASSERT_TRUE(p.news.has_value());
    EXPECT_NE(p.news->headline.find("preorder"), std::string::npos);
    return;
  }
  FAIL() << "preorder peak missing";
}

TEST_F(Fig5, DelayPeakIsNegativeAndAnnotated) {
  for (const auto& p : peaks()) {
    if (p.date != Date(2021, 11, 24)) continue;
    EXPECT_FALSE(p.positive_dominant);
    ASSERT_TRUE(p.news.has_value());
    EXPECT_NE(p.news->headline.find("delay"), std::string::npos);
    return;
  }
  FAIL() << "delay peak missing";
}

TEST_F(Fig5, Apr22PeakIsNegativeUnannotatedAndThird) {
  ASSERT_EQ(peaks().size(), 3u);
  // Peaks are ordered by height; the Apr 22 one is the third highest.
  EXPECT_EQ(peaks()[2].date, Date(2022, 4, 22));
  EXPECT_FALSE(peaks()[2].positive_dominant);
  // The paper "could not find any relevant news on an outage for this
  // date" — neither can the pipeline.
  EXPECT_FALSE(peaks()[2].news.has_value());
}

// ---- Fig 5(b): the word cloud ----

TEST_F(Fig5, OutageInTop3CloudWordsOfApr22) {
  const auto& apr = peaks()[2];
  const auto rank = apr.cloud.rank_of("outage");
  ASSERT_TRUE(rank.has_value());
  EXPECT_LE(*rank, 2u);  // "the third most common word ... is outage"
}

// ---- Fig 6: outage keywords ----

class Fig6 : public ::testing::Test {
 protected:
  static const OutageDetector& detector() {
    static const OutageDetector instance{
        analyzer(), nlp::KeywordDictionary::outage_dictionary()};
    return instance;
  }
  static const core::DailySeries& series() {
    static const core::DailySeries instance = detector().keyword_series(
        corpus().posts, corpus().first, corpus().last);
    return instance;
  }
};

TEST_F(Fig6, LargestSpikesAreJan7AndAug30) {
  const auto top2 = core::top_k_peaks(series(), 2, 7);
  ASSERT_EQ(top2.size(), 2u);
  std::vector<Date> dates{top2[0].date, top2[1].date};
  EXPECT_NE(std::find(dates.begin(), dates.end(), Date(2022, 1, 7)),
            dates.end());
  EXPECT_NE(std::find(dates.begin(), dates.end(), Date(2022, 8, 30)),
            dates.end());
}

TEST_F(Fig6, NumerousShorterPeaksExist) {
  const auto detections =
      detector().detect(corpus().posts, corpus().first, corpus().last);
  std::size_t majors = 0;
  std::size_t transients = 0;
  for (const auto& d : detections) {
    if (d.major) {
      ++majors;
    } else {
      ++transients;
    }
  }
  EXPECT_GE(majors, 3u);
  EXPECT_GT(transients, 10u);  // "numerous shorter peaks"
}

TEST_F(Fig6, MajorOutagesAllDetected) {
  const auto detections =
      detector().detect(corpus().posts, corpus().first, corpus().last);
  const auto truth = corpus().outages.days_above(0.2);
  const auto quality = OutageDetector::evaluate(detections, truth, 1);
  EXPECT_EQ(quality.recall(), 1.0);
}

TEST_F(Fig6, TransientDetectionsCorrespondToRealOutages) {
  const auto detections =
      detector().detect(corpus().posts, corpus().first, corpus().last);
  // Against the full ground truth (any real outage day), precision is
  // decent: spikes mostly happen when something actually broke.
  const auto truth = corpus().outages.days_above(0.004);
  const auto quality = OutageDetector::evaluate(detections, truth, 1);
  EXPECT_GT(quality.precision(), 0.5);
}

TEST_F(Fig6, SentimentGateReducesFalsePositives) {
  // Ablation: the paper filters keyword counts to negative threads "to
  // avoid false positives". Without the gate, precision drops.
  OutageDetectorConfig no_gate;
  no_gate.require_negative_sentiment = false;
  const OutageDetector ungated{
      analyzer(), nlp::KeywordDictionary::outage_dictionary(), no_gate};
  const auto truth = corpus().outages.days_above(0.004);
  const auto gated_q = OutageDetector::evaluate(
      detector().detect(corpus().posts, corpus().first, corpus().last), truth,
      1);
  const auto ungated_q = OutageDetector::evaluate(
      ungated.detect(corpus().posts, corpus().first, corpus().last), truth, 1);
  EXPECT_GE(gated_q.precision(), ungated_q.precision());
}

// ---- Roaming early detection ----

TEST(EarlyDetection, RoamingFoundAtLeastTwoWeeksEarly) {
  const EarlyFeatureDetector detector;
  const auto lead = detector.lead_time_for(
      corpus().posts, "roaming", leo::EventTimeline::roaming_announcement_date());
  ASSERT_TRUE(lead.has_value());
  EXPECT_GE(lead->days_before_announcement, 10);
  EXPECT_LE(lead->days_before_announcement, 20);
}

TEST(EarlyDetection, DetectsNoPhantomTopicsBeforeCorpusStart) {
  const EarlyFeatureDetector detector;
  for (const auto& d : detector.detect(corpus().posts)) {
    EXPECT_GE(d.first_detected, corpus().first);
    EXPECT_LE(d.first_detected, corpus().last);
  }
}

// ---- Fig 7: the fulcrum ----

class Fig7 : public ::testing::Test {
 protected:
  static const std::vector<FulcrumMonth>& months() {
    static const std::vector<FulcrumMonth> instance = [] {
      const FulcrumTracker tracker{analyzer()};
      return tracker.analyze(corpus().posts);
    }();
    return instance;
  }
  static const FulcrumMonth& month(int y, int m) {
    for (const auto& fm : months()) {
      if (fm.year == y && fm.month == m) return fm;
    }
    throw std::runtime_error("month missing");
  }
};

TEST_F(Fig7, TwentyFourMonthsPresent) {
  EXPECT_EQ(months().size(), 24u);
}

TEST_F(Fig7, ReportVolumeComparableToPaper) {
  std::size_t total = 0;
  for (const auto& m : months()) total += m.reports;
  // The paper identified ~1750 usable reports over the same window.
  EXPECT_GT(total, 1000u);
  EXPECT_LT(total, 3000u);
}

TEST_F(Fig7, MediansRiseThenDipThenDecline) {
  EXPECT_GT(month(2021, 6).median_downlink_mbps,
            month(2021, 1).median_downlink_mbps * 1.2);
  EXPECT_LT(month(2021, 8).median_downlink_mbps,
            month(2021, 6).median_downlink_mbps * 0.95);
  EXPECT_LT(month(2022, 12).median_downlink_mbps,
            month(2021, 9).median_downlink_mbps * 0.75);
}

TEST_F(Fig7, SubsampledMediansAreStable) {
  for (const auto& m : months()) {
    if (m.reports < 20) continue;
    EXPECT_NEAR(m.median_95pct_sample / m.median_downlink_mbps, 1.0, 0.12)
        << m.year << "-" << m.month;
    EXPECT_NEAR(m.median_90pct_sample / m.median_downlink_mbps, 1.0, 0.15)
        << m.year << "-" << m.month;
  }
}

TEST_F(Fig7, FulcrumAnomalyDec21VsApr21) {
  // Speeds: Dec'21 > Apr'21. Pos: Dec'21 < Apr'21 ("drastically lower").
  const auto& apr = month(2021, 4);
  const auto& dec = month(2021, 12);
  EXPECT_GT(dec.median_downlink_mbps, apr.median_downlink_mbps);
  ASSERT_TRUE(apr.pos_score && dec.pos_score);
  EXPECT_LT(*dec.pos_score, *apr.pos_score - 0.1);
}

TEST_F(Fig7, InverseTrendMar22ToDec22) {
  // Speeds decline Mar'22 -> Dec'22 while Pos improves.
  const auto& mar = month(2022, 3);
  const auto& dec = month(2022, 12);
  EXPECT_LT(dec.median_downlink_mbps, mar.median_downlink_mbps);
  ASSERT_TRUE(mar.pos_score && dec.pos_score);
  EXPECT_GT(*dec.pos_score, *mar.pos_score);
}

TEST_F(Fig7, PosTracksSpeedInGoodTimes) {
  // Pos peaks around the mid-2021 speed peak.
  const auto& may = month(2021, 5);
  const auto& jan = month(2021, 1);
  ASSERT_TRUE(may.pos_score && jan.pos_score);
  EXPECT_GT(*may.pos_score, *jan.pos_score + 0.15);
}

TEST_F(Fig7, ExtractionStatsReported) {
  const FulcrumTracker tracker{analyzer()};
  (void)tracker.analyze(corpus().posts);
  const auto& stats = tracker.extraction_stats();
  EXPECT_GT(stats.attempted, 1000u);
  EXPECT_GT(stats.success_rate(), 0.7);
  EXPECT_LT(stats.success_rate(), 1.0);
}

TEST_F(Fig7, ExpectationSeriesLagsMedians) {
  const FulcrumTracker tracker{analyzer()};
  const auto expectation = tracker.expectation_series(
      corpus().posts, corpus().first, corpus().last);
  // After the Feb '22 crash the adapted expectation exceeds the actual
  // median for weeks (the fulcrum has not shifted yet).
  double truth_median = 0.0;
  for (const auto& t : corpus().truths) {
    if (t.date == Date(2022, 3, 10)) truth_median = t.median_speed;
  }
  ASSERT_GT(truth_median, 0.0);
  EXPECT_GT(expectation.at(Date(2022, 3, 10)), truth_median);
}

}  // namespace
}  // namespace usaas::service
