// Shard-equivalence property tests: the per-month x per-platform,
// multi-threaded ingest/query path must answer every query exactly like a
// test-local brute force over the raw corpus (plain loops in corpus order,
// no shards, no summaries) — bit-identical for counts, dates and ratio
// aggregates, within 1e-9 for floating-point reductions (whose summation
// order legitimately differs from one flat pass).
//
// Also registered under the `sanitize` ctest label: with
// -DUSAAS_SANITIZE=thread this is the ThreadSanitizer workload for the
// whole ingest/fan-out/merge machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "confsim/dataset.h"
#include "core/correlation.h"
#include "core/histogram.h"
#include "core/rng.h"
#include "core/timeseries.h"
#include "nlp/post_scorer.h"
#include "social/subreddit.h"
#include "usaas/mos_predictor.h"
#include "usaas/query_service.h"

namespace usaas::service {
namespace {

using core::Date;

constexpr double kTol = 1e-9;

struct Corpus {
  std::vector<confsim::CallRecord> calls;
  std::vector<social::Post> posts;
};

Corpus make_corpus(std::uint64_t seed) {
  Corpus corpus;
  confsim::DatasetConfig cfg;
  cfg.seed = seed;
  cfg.num_calls = 500;
  cfg.first_day = Date(2022, 1, 3);
  cfg.last_day = Date(2022, 3, 31);
  corpus.calls = confsim::CallDatasetGenerator{cfg}.generate();

  social::SubredditConfig scfg;
  scfg.first_day = Date(2022, 1, 1);
  scfg.last_day = Date(2022, 3, 31);
  leo::LaunchSchedule sched;
  social::RedditSim sim{
      scfg,
      leo::SpeedModel{leo::ConstellationModel{sched}, leo::SubscriberModel{}},
      leo::OutageModel{scfg.first_day, scfg.last_day, seed},
      leo::EventTimeline{sched}};
  corpus.posts = sim.simulate();
  return corpus;
}

QueryService build_service(const Corpus& corpus, QueryServiceConfig config) {
  QueryService svc{config};
  // Split the ingest into two batches to exercise repeated ingestion.
  const std::size_t half = corpus.calls.size() / 2;
  svc.ingest_calls(std::span{corpus.calls}.subspan(0, half));
  svc.ingest_calls(std::span{corpus.calls}.subspan(half));
  svc.ingest_posts(corpus.posts);
  svc.train_predictor();
  return svc;
}

std::vector<Query> query_battery() {
  std::vector<Query> queries;
  Query base;
  base.first = Date(2022, 1, 1);
  base.last = Date(2022, 3, 31);
  base.metric = netsim::Metric::kLatency;
  base.metric_lo = 0.0;
  base.metric_hi = 300.0;
  base.bins = 8;
  queries.push_back(base);  // full window

  Query platform = base;  // platform filter (prunes shard columns)
  platform.platform = confsim::Platform::kAndroid;
  queries.push_back(platform);

  Query access = base;  // access filter (pure per-record predicate)
  access.access = netsim::AccessTechnology::kLeoSatellite;
  queries.push_back(access);

  Query window = base;  // mid-month boundaries on both ends
  window.first = Date(2022, 1, 18);
  window.last = Date(2022, 2, 9);
  queries.push_back(window);

  Query loss = base;  // different sweep metric + bin layout
  loss.metric = netsim::Metric::kLoss;
  loss.metric_lo = 0.0;
  loss.metric_hi = 10.0;
  loss.bins = 5;
  loss.platform = confsim::Platform::kIos;
  queries.push_back(loss);

  return queries;
}

constexpr EngagementMetric kEngagements[] = {EngagementMetric::kPresence,
                                             EngagementMetric::kCamOn,
                                             EngagementMetric::kMicOn};

/// The whole Insight the service promises, computed by brute force: plain
/// loops over the raw corpus in corpus order. Mirrors the service's
/// contract, not its code — the window/platform/access predicate per
/// session, one Binner1D per curve, corpus-wide Spearman over the rated
/// sessions (>= 50), a predictor trained on rated sessions stable-sorted
/// by (month, platform), posts scored with nlp::PostScorer, and the
/// 3x-mean / >= 5 outage alert rule. The window-independent pieces (the
/// correlations, the predictor, every post's score) are computed once per
/// corpus.
class BruteForce {
 public:
  explicit BruteForce(const Corpus& corpus) : corpus_{corpus} {
    struct Rated {
      int month_key;
      confsim::Platform platform;
      const confsim::ParticipantRecord* rec;
    };
    std::vector<Rated> rated;
    for (const confsim::CallRecord& call : corpus.calls) {
      for (const confsim::ParticipantRecord& rec : call.participants) {
        if (!rec.mos) continue;
        rated.push_back({core::month_key(call.start.date), rec.platform, &rec});
      }
    }
    for (const EngagementMetric e : kEngagements) {
      std::vector<double> eng;
      std::vector<double> mos;
      for (const Rated& r : rated) {
        eng.push_back(engagement_value(*r.rec, e));
        mos.push_back(r.rec->mos->score());
      }
      if (eng.size() >= 50) {
        mos_spearman_.emplace_back(e, core::spearman(eng, mos));
      }
    }

    std::stable_sort(rated.begin(), rated.end(),
                     [](const Rated& a, const Rated& b) {
                       if (a.month_key != b.month_key) {
                         return a.month_key < b.month_key;
                       }
                       return a.platform < b.platform;
                     });
    std::vector<confsim::ParticipantRecord> training;
    for (const Rated& r : rated) training.push_back(*r.rec);
    trained_ = training.size() >= MosPredictor::kMinRatedSessions;
    if (trained_) predictor_.train(training);

    const nlp::PostScorer scorer;
    for (const social::Post& post : corpus.posts) {
      scores_.push_back(scorer.score(post.title + " " + post.body));
    }
  }

  [[nodiscard]] Insight run(const Query& q) const {
    Insight out;
    std::vector<const confsim::ParticipantRecord*> matching;
    for (const confsim::CallRecord& call : corpus_.calls) {
      const Date date = call.start.date;
      if (date < q.first || q.last < date) continue;
      for (const confsim::ParticipantRecord& rec : call.participants) {
        if (q.platform && rec.platform != *q.platform) continue;
        if (q.access && rec.access != *q.access) continue;
        matching.push_back(&rec);
      }
    }

    for (const EngagementMetric e : kEngagements) {
      core::Binner1D binner{q.metric_lo, q.metric_hi, q.bins};
      for (const confsim::ParticipantRecord* rec : matching) {
        binner.add(
            netsim::metric_value(rec->network.mean_conditions(), q.metric),
            engagement_value(*rec, e));
      }
      EngagementCurve curve;
      curve.network_metric = q.metric;
      curve.engagement_metric = e;
      for (const core::Bin& b : binner.bins()) {
        curve.points.push_back({b.center(), b.mean_y, b.count});
      }
      out.engagement.push_back(curve);
    }
    out.mos_spearman = mos_spearman_;

    double observed = 0.0;
    double predicted = 0.0;
    for (const confsim::ParticipantRecord* rec : matching) {
      ++out.sessions;
      if (rec->mos) {
        observed += rec->mos->score();
        ++out.rated_sessions;
      }
      if (trained_) predicted += predictor_.predict(*rec);
    }
    if (out.rated_sessions > 0) {
      out.observed_mean_mos =
          observed / static_cast<double>(out.rated_sessions);
    }
    if (trained_ && out.sessions > 0) {
      out.predicted_mean_mos = predicted / static_cast<double>(out.sessions);
    }

    core::DailySeries keyword_days{q.first, q.last};
    std::size_t strong_pos = 0;
    std::size_t strong_neg = 0;
    for (std::size_t i = 0; i < corpus_.posts.size(); ++i) {
      const social::Post& post = corpus_.posts[i];
      if (post.date < q.first || q.last < post.date) continue;
      ++out.posts;
      const nlp::PostScorer::Result& res = scores_[i];
      if (res.sentiment.strong_positive()) ++strong_pos;
      if (res.sentiment.strong_negative()) ++strong_neg;
      if (res.keyword_hits > 0 && res.sentiment.negative >= 0.4) {
        keyword_days.add(post.date, static_cast<double>(res.keyword_hits));
      }
    }
    if (strong_pos + strong_neg > 0) {
      out.strong_positive_share = static_cast<double>(strong_pos) /
                                  static_cast<double>(strong_pos + strong_neg);
    }
    double day_total = 0.0;
    for (const double v : keyword_days.values()) {
      day_total += v;
      if (v > 0.0) ++out.outage_mention_days;
    }
    const double day_mean =
        keyword_days.size() == 0
            ? 0.0
            : day_total / static_cast<double>(keyword_days.size());
    for (const auto& [date, value] : keyword_days.entries()) {
      if (day_mean > 0.0 && value > 3.0 * day_mean && value >= 5.0) {
        out.outage_alert_days.push_back(date);
      }
    }
    return out;
  }

 private:
  const Corpus& corpus_;
  std::vector<std::pair<EngagementMetric, double>> mos_spearman_;
  MosPredictor predictor_;
  bool trained_{false};
  std::vector<nlp::PostScorer::Result> scores_;
};

/// `n` seeded random date windows over the battery's base query, cycling
/// through five shapes around the Jan-Mar 2022 corpus: a mid-month cut
/// of up to two months, whole months, a window crossing the 2021/2022
/// year edge, a single day, and a window wholly outside the corpus.
std::vector<Query> random_windows(std::uint64_t seed, std::size_t n) {
  core::Rng rng{seed};
  const auto day_in = [&](const Date& lo, const Date& hi) {
    return lo.plus_days(rng.uniform_int(0, lo.days_until(hi)));
  };
  const Date corpus_first{2022, 1, 1};
  const Date corpus_last{2022, 3, 31};
  std::vector<Query> out;
  for (std::size_t i = 0; i < n; ++i) {
    Query q = query_battery().front();
    switch (i % 5) {
      case 0:  // mid-month cut, possibly spanning months
        q.first = day_in(Date{2021, 12, 2}, Date{2022, 3, 30});
        q.last = q.first.plus_days(rng.uniform_int(0, 60));
        break;
      case 1: {  // whole months
        q.first = Date{2021, 12, 1}.plus_months(
            static_cast<int>(rng.uniform_int(0, 4)));
        const Date end_month =
            q.first.plus_months(static_cast<int>(rng.uniform_int(0, 2)));
        q.last = Date{end_month.year(), end_month.month(),
                      end_month.days_in_month()};
        break;
      }
      case 2:  // crossing the year edge
        q.first = day_in(Date{2021, 12, 1}, Date{2021, 12, 31});
        q.last = day_in(Date{2022, 1, 1}, corpus_last);
        break;
      case 3:  // a single day
        q.first = day_in(corpus_first.plus_days(-7), corpus_last.plus_days(7));
        q.last = q.first;
        break;
      default:  // outside the corpus, before or after it
        if (rng.uniform_int(0, 1) == 0) {
          q.first = day_in(Date{2021, 6, 1}, Date{2021, 11, 30});
          q.last = day_in(q.first, Date{2021, 12, 31});
        } else {
          q.first = day_in(Date{2022, 4, 1}, Date{2022, 12, 31});
          q.last = day_in(q.first, Date{2023, 2, 28});
        }
        break;
    }
    out.push_back(q);
  }
  return out;
}

void expect_equivalent(const Insight& a, const Insight& b, bool bit_exact) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.rated_sessions, b.rated_sessions);
  EXPECT_EQ(a.posts, b.posts);
  EXPECT_EQ(a.outage_mention_days, b.outage_mention_days);
  EXPECT_EQ(a.outage_alert_days, b.outage_alert_days);
  // A ratio of exact integer counts: identical in every layout.
  EXPECT_DOUBLE_EQ(a.strong_positive_share, b.strong_positive_share);

  ASSERT_EQ(a.engagement.size(), b.engagement.size());
  for (std::size_t c = 0; c < a.engagement.size(); ++c) {
    const EngagementCurve& ca = a.engagement[c];
    const EngagementCurve& cb = b.engagement[c];
    EXPECT_EQ(ca.engagement_metric, cb.engagement_metric);
    ASSERT_EQ(ca.points.size(), cb.points.size());
    for (std::size_t p = 0; p < ca.points.size(); ++p) {
      EXPECT_EQ(ca.points[p].sessions, cb.points[p].sessions);
      EXPECT_DOUBLE_EQ(ca.points[p].metric_value, cb.points[p].metric_value);
      if (bit_exact) {
        EXPECT_DOUBLE_EQ(ca.points[p].engagement, cb.points[p].engagement);
      } else {
        EXPECT_NEAR(ca.points[p].engagement, cb.points[p].engagement, kTol);
      }
    }
  }

  ASSERT_EQ(a.mos_spearman.size(), b.mos_spearman.size());
  for (std::size_t i = 0; i < a.mos_spearman.size(); ++i) {
    EXPECT_EQ(a.mos_spearman[i].first, b.mos_spearman[i].first);
    EXPECT_NEAR(a.mos_spearman[i].second, b.mos_spearman[i].second, kTol);
  }

  ASSERT_EQ(a.observed_mean_mos.has_value(), b.observed_mean_mos.has_value());
  if (a.observed_mean_mos) {
    EXPECT_NEAR(*a.observed_mean_mos, *b.observed_mean_mos, kTol);
  }
  ASSERT_EQ(a.predicted_mean_mos.has_value(),
            b.predicted_mean_mos.has_value());
  if (a.predicted_mean_mos) {
    EXPECT_NEAR(*a.predicted_mean_mos, *b.predicted_mean_mos, kTol);
  }
}

TEST(ShardEquivalence, ShardedParallelMatchesFlatSequential) {
  for (const std::uint64_t seed : {11u, 97u, 2023u}) {
    SCOPED_TRACE(testing::Message() << "corpus seed " << seed);
    const Corpus corpus = make_corpus(seed);
    const QueryService sharded = build_service(corpus, {.threads = 4});
    std::size_t sessions = 0;
    for (const confsim::CallRecord& call : corpus.calls) {
      sessions += call.participants.size();
    }
    ASSERT_EQ(sharded.ingested_sessions(), sessions);
    ASSERT_EQ(sharded.ingested_posts(), corpus.posts.size());
    EXPECT_GT(sharded.session_shards(), 1u);
    const BruteForce brute_force{corpus};
    std::vector<Query> queries = query_battery();
    for (const Query& q : random_windows(seed, 64)) queries.push_back(q);
    for (const Query& q : queries) {
      SCOPED_TRACE(testing::Message() << "window " << q.first.to_string()
                                      << " .. " << q.last.to_string());
      expect_equivalent(brute_force.run(q), sharded.run(q),
                        /*bit_exact=*/false);
    }
  }
}

TEST(ShardEquivalence, ResultsIndependentOfThreadCount) {
  // Same shard layout, different thread counts: the merge order is fixed
  // by shard keys, so results must be bit-identical — not merely close.
  const Corpus corpus = make_corpus(7);
  const QueryService sequential =
      build_service(corpus, {.threads = 0});
  const QueryService threaded = build_service(corpus, {.threads = 8});
  ASSERT_EQ(sequential.session_shards(), threaded.session_shards());
  for (const Query& q : query_battery()) {
    const Insight a = sequential.run(q);
    const Insight b = threaded.run(q);
    expect_equivalent(a, b, /*bit_exact=*/true);
    ASSERT_EQ(a.observed_mean_mos.has_value(), b.observed_mean_mos.has_value());
    if (a.observed_mean_mos) {
      EXPECT_DOUBLE_EQ(*a.observed_mean_mos, *b.observed_mean_mos);
    }
    if (a.predicted_mean_mos) {
      EXPECT_DOUBLE_EQ(*a.predicted_mean_mos, *b.predicted_mean_mos);
    }
  }
}

TEST(ShardEquivalence, MonthPlatformPartitioningIsComplete) {
  const Corpus corpus = make_corpus(3);
  const QueryService sharded =
      build_service(corpus, {.threads = 2});
  // 3 months x up to 4 platforms, and every session landed in some shard.
  EXPECT_LE(sharded.session_shards(), 12u);
  EXPECT_GE(sharded.session_shards(), 3u);
  EXPECT_EQ(sharded.post_shards(), 3u);

  // Narrowing the window to one fully-covered month prunes to that month's
  // sessions only; summing per-platform queries reconstructs the total.
  Query feb;
  feb.first = Date(2022, 2, 1);
  feb.last = Date(2022, 2, 28);
  const Insight whole = sharded.run(feb);
  std::size_t by_platform = 0;
  for (const confsim::Platform p :
       {confsim::Platform::kWindowsPc, confsim::Platform::kMacPc,
        confsim::Platform::kIos, confsim::Platform::kAndroid}) {
    Query narrowed = feb;
    narrowed.platform = p;
    by_platform += sharded.run(narrowed).sessions;
  }
  EXPECT_EQ(by_platform, whole.sessions);
  EXPECT_GT(whole.sessions, 0u);
}

}  // namespace
}  // namespace usaas::service
