// Two-tier query path tests: the tier-1 versioned insight cache and the
// tier-2 mergeable per-shard summaries.
//
// The contract under test, from the service's documentation:
//   * a cache hit returns an Insight bit-identical to recomputing it;
//   * the corpus version is part of the cache key, so a mutation never
//     serves a stale insight — pre-bump entries become unreachable;
//   * the LRU is bounded: capacity is respected, eviction is oldest-first,
//     capacity 0 disables caching entirely;
//   * summary-merged answers agree with a full rescan (bit-identical for
//     access-filtered curves and all tallies, <= 1e-9 relative for merged
//     whole-population curves).
//
// Registered under the `sanitize` ctest label with USAAS_PARALLEL_FORCE=1:
// NoStaleInsightAfterBump races readers (cache probes + computes) against
// a live producer and is the TSan workload for cache_mu + the version
// counter; the MosMemo race does the same for the engine's memoized
// corpus-wide MOS correlations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "confsim/call.h"
#include "core/date.h"
#include "core/fingerprint.h"
#include "core/histogram.h"
#include "core/lru_cache.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "social/post.h"
#include "usaas/post_store.h"
#include "usaas/query_service.h"
#include "usaas/shard_summary.h"
#include "usaas/stream_ingestor.h"

namespace usaas::service {
namespace {

using core::Date;

// ---- Corpus + battery helpers (mirror test_usaas_streaming) -----------

std::vector<confsim::CallRecord> boundary_calls(std::uint64_t seed,
                                                std::size_t calls_per_day) {
  const Date days[] = {
      {2021, 12, 31}, {2022, 1, 1},  {2022, 1, 31}, {2022, 2, 1},
      {2022, 2, 28},  {2022, 3, 1},  {2022, 6, 30}, {2022, 7, 1},
      {2022, 12, 31}, {2023, 1, 1},
  };
  constexpr confsim::Platform kPlatforms[] = {
      confsim::Platform::kWindowsPc, confsim::Platform::kMacPc,
      confsim::Platform::kIos, confsim::Platform::kAndroid};
  constexpr netsim::AccessTechnology kAccess[] = {
      netsim::AccessTechnology::kFiber, netsim::AccessTechnology::kCable,
      netsim::AccessTechnology::kLeoSatellite};
  core::Rng rng{seed};
  std::vector<confsim::CallRecord> calls;
  std::uint64_t call_id = 0;
  for (const Date& day : days) {
    for (std::size_t c = 0; c < calls_per_day; ++c) {
      confsim::CallRecord call;
      call.call_id = call_id++;
      call.start.date = day;
      call.start.time = {10, 30};
      const int participants = 3 + static_cast<int>(rng.uniform_int(0, 2));
      for (int p = 0; p < participants; ++p) {
        confsim::ParticipantRecord rec;
        rec.user_id = call.call_id * 8 + static_cast<std::uint64_t>(p);
        rec.platform = kPlatforms[rng.uniform_int(0, 3)];
        rec.meeting_size = participants;
        rec.access = kAccess[rng.uniform_int(0, 2)];
        const double latency = 20.0 + rng.uniform(0.0, 250.0);
        const auto agg = [](double v) {
          return netsim::MetricAggregate{v, v * 0.95, v * 1.7};
        };
        rec.network.latency_ms = agg(latency);
        rec.network.loss_pct = agg(rng.uniform(0.0, 3.0));
        rec.network.jitter_ms = agg(rng.uniform(0.0, 15.0));
        rec.network.bandwidth_mbps = agg(1.0 + rng.uniform(0.0, 50.0));
        rec.network.duration_seconds = 1800.0;
        rec.network.sample_count = 360;
        rec.presence_pct = std::max(0.0, 95.0 - latency / 8.0);
        rec.cam_on_pct = std::max(0.0, 60.0 - latency / 6.0);
        rec.mic_on_pct = std::max(0.0, 35.0 - latency / 10.0);
        rec.dropped_early = rng.bernoulli(0.05);
        if (rng.bernoulli(0.15)) {
          rec.mos = core::clamp_mos(core::Mos{4.5 - latency / 120.0});
        }
        call.participants.push_back(rec);
      }
      calls.push_back(std::move(call));
    }
  }
  return calls;
}

std::vector<social::Post> boundary_posts(std::uint64_t seed,
                                         std::size_t posts_per_day) {
  static const char* kBodies[] = {
      "service went down tonight, complete outage, everything offline",
      "the connection has been great lately, fast and reliable",
      "pretty average week, speeds are okay, nothing special",
      "lost connection during calls, not working, is the network down",
  };
  const Date days[] = {
      {2021, 12, 31}, {2022, 1, 1},  {2022, 2, 28}, {2022, 3, 1},
      {2022, 8, 15},  {2022, 12, 31}, {2023, 1, 1},
  };
  core::Rng rng{seed};
  std::vector<social::Post> posts;
  std::uint64_t id = 0;
  for (const Date& day : days) {
    for (std::size_t i = 0; i < posts_per_day; ++i) {
      social::Post post;
      post.id = id++;
      post.date = day;
      post.author_id = rng.uniform_int(1, 500);
      post.title = "experience report";
      post.body = kBodies[rng.uniform_int(0, 3)];
      post.upvotes = static_cast<int>(rng.uniform_int(0, 50));
      post.num_comments = static_cast<int>(rng.uniform_int(0, 10));
      posts.push_back(std::move(post));
    }
  }
  return posts;
}

struct Corpus {
  std::vector<confsim::CallRecord> calls;
  std::vector<social::Post> posts;
};

Corpus make_corpus(std::uint64_t seed) {
  return {boundary_calls(seed, 10), boundary_posts(seed ^ 0x5eed, 5)};
}

QueryServiceConfig service_config(std::size_t threads, std::size_t cache,
                                  bool summaries) {
  QueryServiceConfig cfg;
  cfg.threads = threads;
  cfg.insight_cache_entries = cache;
  cfg.shard_summaries = summaries;
  return cfg;
}

QueryService make_service(const Corpus& corpus, QueryServiceConfig config) {
  QueryService svc{config};
  svc.ingest_calls(corpus.calls);
  svc.ingest_posts(corpus.posts);
  svc.train_predictor();
  return svc;
}

// Every query shape the cache must key distinctly: summary-answerable
// dashboards (whole-month windows matching a configured axis), filtered
// variants, and shapes that must fall back to the scan path (mid-month
// boundary, non-axis bin count).
std::vector<Query> battery() {
  std::vector<Query> queries;
  Query base;
  base.first = Date(2021, 12, 1);
  base.last = Date(2023, 1, 31);
  base.metric = netsim::Metric::kLatency;
  base.metric_lo = 0.0;
  base.metric_hi = 300.0;
  base.bins = 10;
  queries.push_back(base);  // summary axis 0

  Query loss = base;
  loss.metric = netsim::Metric::kLoss;
  loss.metric_lo = 0.0;
  loss.metric_hi = 10.0;
  queries.push_back(loss);  // summary axis 1

  Query access = base;
  access.access = netsim::AccessTechnology::kLeoSatellite;
  queries.push_back(access);  // per-access summary buckets

  Query platform = base;
  platform.platform = confsim::Platform::kAndroid;
  queries.push_back(platform);  // platform pruning + summaries

  Query jitter = base;
  jitter.metric = netsim::Metric::kJitter;
  jitter.metric_lo = 0.0;
  jitter.metric_hi = 80.0;
  queries.push_back(jitter);  // summary axis 2

  Query midmonth = base;
  midmonth.first = Date(2021, 12, 15);
  midmonth.last = Date(2022, 1, 15);
  queries.push_back(midmonth);  // boundary shards must scan

  Query oddbins = base;
  oddbins.bins = 6;
  queries.push_back(oddbins);  // no matching axis: scan fallback

  return queries;
}

void expect_identical(const Insight& a, const Insight& b) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.rated_sessions, b.rated_sessions);
  EXPECT_EQ(a.posts, b.posts);
  EXPECT_EQ(a.outage_mention_days, b.outage_mention_days);
  EXPECT_EQ(a.outage_alert_days, b.outage_alert_days);
  EXPECT_DOUBLE_EQ(a.strong_positive_share, b.strong_positive_share);
  ASSERT_EQ(a.engagement.size(), b.engagement.size());
  for (std::size_t c = 0; c < a.engagement.size(); ++c) {
    ASSERT_EQ(a.engagement[c].points.size(), b.engagement[c].points.size());
    for (std::size_t p = 0; p < a.engagement[c].points.size(); ++p) {
      EXPECT_EQ(a.engagement[c].points[p].sessions,
                b.engagement[c].points[p].sessions);
      EXPECT_DOUBLE_EQ(a.engagement[c].points[p].engagement,
                       b.engagement[c].points[p].engagement);
      EXPECT_DOUBLE_EQ(a.engagement[c].points[p].metric_value,
                       b.engagement[c].points[p].metric_value);
    }
  }
  ASSERT_EQ(a.mos_spearman.size(), b.mos_spearman.size());
  for (std::size_t i = 0; i < a.mos_spearman.size(); ++i) {
    EXPECT_EQ(a.mos_spearman[i].first, b.mos_spearman[i].first);
    EXPECT_DOUBLE_EQ(a.mos_spearman[i].second, b.mos_spearman[i].second);
  }
  ASSERT_EQ(a.observed_mean_mos.has_value(), b.observed_mean_mos.has_value());
  if (a.observed_mean_mos) {
    EXPECT_DOUBLE_EQ(*a.observed_mean_mos, *b.observed_mean_mos);
  }
  ASSERT_EQ(a.predicted_mean_mos.has_value(),
            b.predicted_mean_mos.has_value());
  if (a.predicted_mean_mos) {
    EXPECT_DOUBLE_EQ(*a.predicted_mean_mos, *b.predicted_mean_mos);
  }
}

// Like expect_identical but with the service's documented 1e-9 relative
// budget on floating-point aggregates (integer counts stay exact): the
// tolerance summary-merged whole-population curves are held to.
void expect_close(const Insight& a, const Insight& b) {
  constexpr double kRel = 1e-9;
  const auto near = [&](double x, double y) {
    EXPECT_NEAR(x, y, kRel * std::max({1.0, std::fabs(x), std::fabs(y)}));
  };
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.rated_sessions, b.rated_sessions);
  EXPECT_EQ(a.posts, b.posts);
  EXPECT_EQ(a.outage_mention_days, b.outage_mention_days);
  EXPECT_EQ(a.outage_alert_days, b.outage_alert_days);
  near(a.strong_positive_share, b.strong_positive_share);
  ASSERT_EQ(a.engagement.size(), b.engagement.size());
  for (std::size_t c = 0; c < a.engagement.size(); ++c) {
    ASSERT_EQ(a.engagement[c].points.size(), b.engagement[c].points.size());
    for (std::size_t p = 0; p < a.engagement[c].points.size(); ++p) {
      EXPECT_EQ(a.engagement[c].points[p].sessions,
                b.engagement[c].points[p].sessions);
      near(a.engagement[c].points[p].engagement,
           b.engagement[c].points[p].engagement);
    }
  }
  ASSERT_EQ(a.mos_spearman.size(), b.mos_spearman.size());
  for (std::size_t i = 0; i < a.mos_spearman.size(); ++i) {
    near(a.mos_spearman[i].second, b.mos_spearman[i].second);
  }
  ASSERT_EQ(a.observed_mean_mos.has_value(), b.observed_mean_mos.has_value());
  if (a.observed_mean_mos) near(*a.observed_mean_mos, *b.observed_mean_mos);
  ASSERT_EQ(a.predicted_mean_mos.has_value(),
            b.predicted_mean_mos.has_value());
  if (a.predicted_mean_mos) {
    near(*a.predicted_mean_mos, *b.predicted_mean_mos);
  }
}

// ---- LruCache unit tests ---------------------------------------------

TEST(LruCache, FindPromotesAndEvictionIsOldestFirst) {
  core::LruCache<int, std::string> cache{2};
  EXPECT_EQ(cache.find(1), nullptr);
  cache.insert(1, "a", 8);
  cache.insert(2, "b", 16);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 24u);
  // Touch 1: it becomes most-recent, so inserting 3 must evict 2.
  ASSERT_NE(cache.find(1), nullptr);
  cache.insert(3, "c", 4);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.bytes(), 12u);
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), "a");
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(LruCache, ReplaceKeepsSizeAndUpdatesBytes) {
  core::LruCache<int, int> cache{4};
  cache.insert(7, 1, 100);
  cache.insert(7, 2, 10);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 10u);
  ASSERT_NE(cache.find(7), nullptr);
  EXPECT_EQ(*cache.find(7), 2);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCache, ZeroCapacityDisablesStorage) {
  core::LruCache<int, int> cache{0};
  cache.insert(1, 1, 64);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.find(1), nullptr);
}

// Stats contract: a disabled cache (capacity 0) reports ZERO traffic. It
// used to count a miss per find(), which made capacity-0 A/B runs look
// like a 100%-miss cache instead of no cache at all, and poisoned any
// hit-ratio alert fed from the exposition endpoint.
TEST(LruCache, ZeroCapacityReportsZeroTraffic) {
  core::LruCache<int, int> cache{0};
  for (int i = 0; i < 100; ++i) {
    cache.insert(i, i, 8);
    EXPECT_EQ(cache.find(i), nullptr);
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);

  // An enabled cache still counts both outcomes, so the fix cannot have
  // silenced real traffic.
  core::LruCache<int, int> live{2};
  live.insert(1, 1, 8);
  EXPECT_NE(live.find(1), nullptr);
  EXPECT_EQ(live.find(2), nullptr);
  EXPECT_EQ(live.hits(), 1u);
  EXPECT_EQ(live.misses(), 1u);
}

// ---- Insight heap accounting -----------------------------------------

// Regression: insight_heap_bytes skipped the engagement vector's OWN
// buffer (it only counted each curve's points), so every cached insight
// under-reported by engagement.capacity() * sizeof(EngagementCurve) and
// the usaas_insight_cache_bytes gauge drifted below the real footprint as
// entries accumulated.
TEST(InsightBytes, GrowsWithTheEngagementVectorBuffer) {
  Insight empty;
  const std::size_t base = insight_heap_bytes(empty);
  EXPECT_GE(base, sizeof(Insight));

  Insight with_curves;
  with_curves.engagement.resize(3);  // empty curves: only the outer buffer
  const std::size_t outer = insight_heap_bytes(with_curves);
  EXPECT_GE(outer, base + 3 * sizeof(EngagementCurve));

  with_curves.engagement[0].points.resize(16);
  EXPECT_GE(insight_heap_bytes(with_curves),
            outer + 16 * sizeof(CurvePoint));
}

TEST(InsightCache, ByteGaugeCoversEveryOwnedBuffer) {
  QueryService svc{{.threads = 1}};
  const auto calls = boundary_calls(11, 4);
  svc.ingest_calls(calls);
  Query q;
  q.first = Date(2022, 1, 1);
  q.last = Date(2022, 12, 31);
  q.bins = 6;
  const Insight insight = svc.run(q);
  ASSERT_FALSE(insight.engagement.empty());
  // The cached copy's vector capacities are at least their sizes, so the
  // gauge must be at least the size-based floor — including the
  // engagement buffer the accounting used to miss.
  std::size_t floor = sizeof(Insight) +
                      insight.engagement.size() * sizeof(EngagementCurve) +
                      insight.mos_spearman.size() *
                          sizeof(std::pair<EngagementMetric, double>) +
                      insight.outage_alert_days.size() * sizeof(Date);
  for (const EngagementCurve& curve : insight.engagement) {
    floor += curve.points.size() * sizeof(CurvePoint);
  }
  const QueryService::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.insight_cache.entries, 1u);
  EXPECT_GE(stats.insight_cache.bytes, floor);
}

// ---- Fingerprint unit tests ------------------------------------------

TEST(Fingerprint, StableOrderSensitiveAndZeroCanonical) {
  core::Fingerprint a;
  a.mix(std::uint64_t{1}).mix(std::uint64_t{2});
  core::Fingerprint b;
  b.mix(std::uint64_t{2}).mix(std::uint64_t{1});
  EXPECT_NE(a.digest(), b.digest());  // order-sensitive

  core::Fingerprint c;
  c.mix(std::uint64_t{1}).mix(std::uint64_t{2});
  EXPECT_EQ(a.digest(), c.digest());  // deterministic across instances

  core::Fingerprint pos;
  pos.mix(0.0);
  core::Fingerprint neg;
  neg.mix(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());  // -0.0 == +0.0 must hash equal

  core::Fingerprint s1;
  s1.mix(std::string_view{"ab"});
  core::Fingerprint s2;
  s2.mix(std::string_view{"ba"});
  EXPECT_NE(s1.digest(), s2.digest());
}

// ---- Tier 1: the versioned insight cache ------------------------------

TEST(InsightCache, HitIsBitIdenticalToRecomputation) {
  const Corpus corpus = make_corpus(4242);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    QueryService cached =
        make_service(corpus, service_config(threads, 64, true));
    QueryService uncached =
        make_service(corpus, service_config(threads, 0, true));
    const std::vector<Query> queries = battery();
    std::vector<Insight> first;
    first.reserve(queries.size());
    for (const Query& q : queries) first.push_back(cached.run(q));
    const QueryService::ServiceStats cold = cached.stats();
    EXPECT_EQ(cold.insight_cache.hits, 0u);
    EXPECT_EQ(cold.insight_cache.misses, queries.size());
    EXPECT_EQ(cold.insight_cache.entries, queries.size());
    EXPECT_GT(cold.insight_cache.bytes, 0u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      // Warm run: served from cache, bit-identical to the cold compute
      // and to a service that never caches.
      expect_identical(cached.run(queries[i]), first[i]);
      expect_identical(uncached.run(queries[i]), first[i]);
    }
    const QueryService::ServiceStats warm = cached.stats();
    EXPECT_EQ(warm.insight_cache.hits, queries.size());
    EXPECT_EQ(warm.insight_cache.misses, queries.size());
    const QueryService::ServiceStats bypass = uncached.stats();
    EXPECT_EQ(bypass.insight_cache.hits, 0u);
    EXPECT_EQ(bypass.insight_cache.misses, 0u);
    EXPECT_EQ(bypass.insight_cache.capacity, 0u);
  }
}

TEST(InsightCache, VersionBumpMakesPreMutationEntriesUnreachable) {
  Corpus corpus = make_corpus(99);
  QueryService svc = make_service(corpus, service_config(2, 32, true));
  const Query q = battery().front();

  const Insight before = svc.run(q);
  expect_identical(svc.run(q), before);  // hit at the same version
  QueryService::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.insight_cache.hits, 1u);
  EXPECT_EQ(stats.insight_cache.misses, 1u);

  // Mutate: the next run must recompute against the grown corpus, not
  // serve the cached pre-bump insight.
  const auto extra = boundary_calls(555, 4);
  svc.ingest_calls(extra);
  const Insight after = svc.run(q);
  EXPECT_GT(after.corpus_version, before.corpus_version);
  EXPECT_GT(after.sessions, before.sessions);
  stats = svc.stats();
  EXPECT_EQ(stats.insight_cache.hits, 1u);
  EXPECT_EQ(stats.insight_cache.misses, 2u);

  // And the new version is itself cacheable.
  expect_identical(svc.run(q), after);
  EXPECT_EQ(svc.stats().insight_cache.hits, 2u);

  // Retraining is a mutation too (predicted tallies change).
  svc.train_predictor();
  const Insight retrained = svc.run(q);
  EXPECT_GT(retrained.corpus_version, after.corpus_version);
  EXPECT_EQ(svc.stats().insight_cache.misses, 3u);
}

TEST(InsightCache, LruCapacityBoundsEntriesAndEvictsOldest) {
  const Corpus corpus = make_corpus(7);
  QueryService svc = make_service(corpus, service_config(1, 2, true));
  const std::vector<Query> queries = battery();
  const Query a = queries[0];
  const Query b = queries[1];
  const Query c = queries[4];

  (void)svc.run(a);           // miss; cache = {a}
  (void)svc.run(b);           // miss; cache = {b, a}
  (void)svc.run(a);           // hit; cache = {a, b}
  (void)svc.run(c);           // miss; evicts b (oldest)
  QueryService::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.insight_cache.hits, 1u);
  EXPECT_EQ(stats.insight_cache.misses, 3u);
  EXPECT_EQ(stats.insight_cache.evictions, 1u);
  EXPECT_EQ(stats.insight_cache.entries, 2u);
  EXPECT_EQ(stats.insight_cache.capacity, 2u);

  (void)svc.run(a);           // a survived (promoted by the earlier hit)
  (void)svc.run(b);           // b was evicted: miss again, evicts c
  stats = svc.stats();
  EXPECT_EQ(stats.insight_cache.hits, 2u);
  EXPECT_EQ(stats.insight_cache.misses, 4u);
  EXPECT_EQ(stats.insight_cache.evictions, 2u);
  EXPECT_EQ(stats.insight_cache.entries, 2u);
}

TEST(InsightCache, InvalidQueriesAreNotCached) {
  const Corpus corpus = make_corpus(3);
  QueryService svc = make_service(corpus, service_config(1, 8, true));
  Query bad = battery().front();
  bad.bins = 0;
  EXPECT_EQ(svc.run(bad).error, QueryError::kZeroBins);
  EXPECT_EQ(svc.run(bad).error, QueryError::kZeroBins);
  const QueryService::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.insight_cache.entries, 0u);
  EXPECT_EQ(stats.insight_cache.hits, 0u);
  EXPECT_EQ(stats.insight_cache.misses, 0u);
}

// ---- Tier 2: summary-merge vs rescan ----------------------------------

TEST(ShardSummaries, SummaryAnsweredInsightsMatchRescansWithin1e9) {
  const Corpus corpus = make_corpus(2026);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    // Caches off everywhere: this test compares the compute paths.
    QueryService summarized =
        make_service(corpus, service_config(threads, 0, true));
    QueryService scanning =
        make_service(corpus, service_config(threads, 0, false));
    for (const Query& q : battery()) {
      expect_close(summarized.run(q), scanning.run(q));
    }
    const QueryService::ServiceStats fast_stats = summarized.stats();
    const QueryService::ServiceStats scan_stats = scanning.stats();
    // The battery's dashboard shapes actually exercised the summary path,
    // and the scan-only service never did.
    EXPECT_GT(fast_stats.fanout.shards_from_summary, 0u);
    EXPECT_GT(fast_stats.summary_bytes, 0u);
    EXPECT_EQ(scan_stats.fanout.shards_from_summary, 0u);
    EXPECT_GT(scan_stats.fanout.shards_scanned, 0u);
    // Mid-month and odd-bin shapes fell back to scans on the summarized
    // service too.
    EXPECT_GT(fast_stats.fanout.shards_scanned, 0u);
  }
}

TEST(ShardSummaries, MergeMatchesRescan) {
  // Direct unit-level check of the mergeable-summary algebra: folding a
  // record stream into two summaries and merging must agree with folding
  // the whole stream into one (integer counts exactly; floating-point
  // aggregates within the 1e-9 budget — merge re-associates the sums).
  SessionColumns rows;
  for (const confsim::CallRecord& call : boundary_calls(31337, 12)) {
    for (const confsim::ParticipantRecord& rec : call.participants) {
      rows.append(call.start.date, rec);
    }
  }
  ASSERT_GT(rows.size(), 100u);

  const SummaryConfig cfg;
  ShardSummary whole{cfg};
  ShardSummary left{cfg};
  ShardSummary right{cfg};
  const std::size_t half = rows.size() / 2;
  whole.fold(rows, 0, rows.size());
  left.fold(rows, 0, half);
  right.fold(rows, half, rows.size());
  ShardSummary merged = left;
  merged.merge(right);

  // Tallies: counts exact, MOS sums within budget.
  const auto check_tally = [](const SummaryTally& a, const SummaryTally& b) {
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_EQ(a.rated, b.rated);
    EXPECT_NEAR(a.observed_mos_sum, b.observed_mos_sum,
                1e-9 * std::max(1.0, std::fabs(b.observed_mos_sum)));
  };
  check_tally(merged.tally(std::nullopt), whole.tally(std::nullopt));
  for (int a = 0; a < netsim::kNumAccessTechnologies; ++a) {
    const auto access = static_cast<netsim::AccessTechnology>(a);
    check_tally(merged.tally(access), whole.tally(access));
  }

  // Rated samples concatenate in ingest order: bit-identical.
  ASSERT_EQ(merged.rated().size(), whole.rated().size());
  for (std::size_t i = 0; i < whole.rated().size(); ++i) {
    EXPECT_EQ(merged.rated()[i].mos, whole.rated()[i].mos);
    EXPECT_EQ(merged.rated()[i].engagement, whole.rated()[i].engagement);
  }

  // Curves: every (axis, engagement, access-or-all) combination.
  for (std::size_t axis = 0; axis < cfg.axes.size(); ++axis) {
    for (int e = 0; e < kNumEngagementMetrics; ++e) {
      const auto eng = static_cast<EngagementMetric>(e);
      std::vector<std::optional<netsim::AccessTechnology>> accesses{
          std::nullopt};
      for (int a = 0; a < netsim::kNumAccessTechnologies; ++a) {
        accesses.push_back(static_cast<netsim::AccessTechnology>(a));
      }
      for (const auto& access : accesses) {
        core::Binner1D from_whole{cfg.axes[axis].lo, cfg.axes[axis].hi,
                                  cfg.axes[axis].bins};
        core::Binner1D from_merged = from_whole;
        whole.add_curve_to(from_whole, axis, {&eng, 1}, access);
        merged.add_curve_to(from_merged, axis, {&eng, 1}, access);
        const auto wb = from_whole.bins();
        const auto mb = from_merged.bins();
        ASSERT_EQ(wb.size(), mb.size());
        for (std::size_t i = 0; i < wb.size(); ++i) {
          EXPECT_EQ(mb[i].count, wb[i].count);
          EXPECT_NEAR(mb[i].mean_y, wb[i].mean_y,
                      1e-9 * std::max(1.0, std::fabs(wb[i].mean_y)));
        }
      }
    }
  }

  // Grids.
  for (int e = 0; e < kNumEngagementMetrics; ++e) {
    core::Grid2D gw{0.0, cfg.grid.latency_hi_ms, cfg.grid.lat_bins,
                    0.0, cfg.grid.loss_hi_pct, cfg.grid.loss_bins};
    core::Grid2D gm = gw;
    ASSERT_TRUE(whole.add_grid_to(gw, static_cast<EngagementMetric>(e),
                                  cfg.grid));
    ASSERT_TRUE(merged.add_grid_to(gm, static_cast<EngagementMetric>(e),
                                   cfg.grid));
    for (std::size_t x = 0; x < gw.x_bins(); ++x) {
      for (std::size_t y = 0; y < gw.y_bins(); ++y) {
        EXPECT_EQ(gm.cell_count(x, y), gw.cell_count(x, y));
      }
    }
  }

  // Layout guards.
  EXPECT_FALSE(whole.axis_for(netsim::Metric::kLatency, 0.0, 300.0, 6));
  EXPECT_TRUE(whole.axis_for(netsim::Metric::kLatency, 0.0, 300.0, 10));
  SummaryConfig other_cfg;
  other_cfg.axes = {{netsim::Metric::kLatency, 0.0, 100.0, 4}};
  ShardSummary mismatched{other_cfg};
  EXPECT_THROW(mismatched.merge(whole), std::invalid_argument);
  ShardSummary disabled;
  EXPECT_FALSE(disabled.enabled());
  disabled.fold(rows, 0, 1);  // no-op, must not crash
  EXPECT_EQ(disabled.sessions(), 0u);
}

// ---- Post day buckets vs the post scan -----------------------------------
// With summaries on, every month of a post window answers from its per-day
// buckets — a cut month from the days the window keeps — and no post row
// is read; with summaries off, every month scans with a date check. The
// two must agree in every SocialAggregates field over 64 seeded windows,
// at 1/2/4 threads.

/// Nov 2021 - Feb 2022, 0-6 posts a day, and a dozen hot days of 25
/// mostly-outage posts so windows raise alert days.
std::vector<social::Post> daily_posts(std::uint64_t seed) {
  static const char* kBodies[] = {
      "service went down tonight, complete outage, everything offline",
      "the connection has been great lately, fast and reliable",
      "pretty average week, speeds are okay, nothing special",
      "lost connection during calls, not working, is the network down",
  };
  core::Rng rng{seed};
  const Date first{2021, 11, 1};
  std::vector<std::int64_t> hot_days;
  for (int i = 0; i < 12; ++i) hot_days.push_back(rng.uniform_int(0, 119));
  std::vector<social::Post> posts;
  for (std::int64_t d = 0; d < 120; ++d) {
    const bool hot =
        std::find(hot_days.begin(), hot_days.end(), d) != hot_days.end();
    const int n = hot ? 25 : static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < n; ++i) {
      social::Post post;
      post.id = posts.size();
      post.date = first.plus_days(d);
      post.author_id = rng.uniform_int(1, 500);
      post.title = "experience report";
      post.body = kBodies[hot && i % 5 != 0 ? 0 : rng.uniform_int(0, 3)];
      posts.push_back(std::move(post));
    }
  }
  return posts;
}

/// 64 seeded windows over Oct 2021 - Mar 2022, cycling through five
/// shapes: a single day, a window inside one month, a window across
/// months, a window across the year edge, and whole months.
std::vector<std::pair<Date, Date>> post_windows() {
  core::Rng rng{25};
  const auto day_in = [&](const Date& lo, const Date& hi) {
    return lo.plus_days(rng.uniform_int(0, lo.days_until(hi)));
  };
  std::vector<std::pair<Date, Date>> out;
  for (int i = 0; i < 64; ++i) {
    Date a;
    Date b;
    switch (i % 5) {
      case 0:
        a = day_in(Date{2021, 10, 25}, Date{2022, 3, 5});
        b = a;
        break;
      case 1: {
        const Date month = Date{2021, 11, 1}.plus_months(
            static_cast<int>(rng.uniform_int(0, 3)));
        a = day_in(month, Date{month.year(), month.month(),
                               month.days_in_month()});
        b = day_in(a, Date{month.year(), month.month(),
                           month.days_in_month()});
        break;
      }
      case 2:
        a = day_in(Date{2021, 10, 20}, Date{2022, 2, 20});
        b = a.plus_days(rng.uniform_int(20, 70));
        break;
      case 3:
        a = day_in(Date{2021, 11, 15}, Date{2021, 12, 31});
        b = day_in(Date{2022, 1, 1}, Date{2022, 2, 15});
        break;
      default: {
        a = Date{2021, 10, 1}.plus_months(
            static_cast<int>(rng.uniform_int(0, 5)));
        const Date end =
            a.plus_months(static_cast<int>(rng.uniform_int(0, 2)));
        b = Date{end.year(), end.month(), end.days_in_month()};
        break;
      }
    }
    out.emplace_back(a, b);
  }
  return out;
}

TEST(PostDayBuckets, SummaryAnswersEqualTheScanOnEveryWindow) {
  const std::vector<social::Post> posts = daily_posts(2021);
  const auto windows = post_windows();
  std::vector<SocialAggregates> want;
  std::vector<std::uint64_t> months;  // per window: months with posts
  {
    PostStore scan{false};
    scan.ingest(posts);
    for (const auto& [first, last] : windows) {
      QueryFanoutStats fanout;
      want.push_back(*scan.aggregate(first, last, &fanout));
      EXPECT_EQ(fanout.shards_from_summary, 0u);
      months.push_back(fanout.shards_scanned);
    }
  }
  std::size_t alerting = 0;
  for (const SocialAggregates& w : want) {
    alerting += w.outage_alert_days.empty() ? 0 : 1;
  }
  EXPECT_GT(alerting, windows.size() / 4);  // the windows raise alerts

  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::unique_ptr<core::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
    for (const bool summaries : {false, true}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, summaries "
                                      << summaries);
      PostStore store{summaries};
      store.set_thread_pool(pool.get());
      store.ingest(posts);
      for (std::size_t i = 0; i < windows.size(); ++i) {
        SCOPED_TRACE(testing::Message()
                     << "window " << windows[i].first.to_string() << " .. "
                     << windows[i].second.to_string());
        QueryFanoutStats fanout;
        const std::optional<SocialAggregates> got =
            store.aggregate(windows[i].first, windows[i].second, &fanout);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->posts, want[i].posts);
        EXPECT_EQ(got->strong_positive_share, want[i].strong_positive_share);
        EXPECT_EQ(got->outage_mention_days, want[i].outage_mention_days);
        EXPECT_EQ(got->outage_alert_days, want[i].outage_alert_days);
        // Every month visit, cut or whole, is a summary visit when
        // summaries are on.
        EXPECT_EQ(fanout.shards_from_summary, summaries ? months[i] : 0u);
        EXPECT_EQ(fanout.shards_scanned, summaries ? 0u : months[i]);
      }
    }
  }
}

TEST(ShardSummaries, ConfigureAfterIngestThrows) {
  // The engine-level contract: summaries cannot be bolted onto a corpus
  // they did not see from record zero.
  const auto calls = boundary_calls(1, 1);
  CorrelationEngine engine;
  engine.ingest(calls);
  EXPECT_THROW(engine.configure_summaries(SummaryConfig{}),
               std::logic_error);
}

// ---- Staleness under a live producer (the TSan workload) --------------

TEST(InsightCache, NoStaleInsightAfterVersionBump) {
  // A producer ingests fixed batches while readers hammer one cached
  // query. The cache keys on (fingerprint, version), so every insight a
  // reader observes must exactly describe some flushed prefix: sessions
  // must equal the prefix-sum at the version stamped into the insight.
  const auto calls = boundary_calls(8080, 16);
  constexpr std::size_t kBatch = 10;
  std::vector<std::size_t> prefix{0};  // prefix[v] = sessions at version v
  std::size_t participants = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    participants += calls[i].participants.size();
    if ((i + 1) % kBatch == 0 || i + 1 == calls.size()) {
      prefix.push_back(participants);
    }
  }

  QueryService svc{service_config(4, 16, true)};
  Query q = battery().front();

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  const auto reader = [&] {
    std::uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const Insight insight = svc.run(q);
      if (insight.corpus_version < last_version) ++violations;
      if (insight.corpus_version >= prefix.size() ||
          insight.sessions != prefix[insight.corpus_version]) {
        ++violations;
      }
      last_version = insight.corpus_version;
      // Yield between queries so the producer's exclusive lock
      // acquisitions are not starved on 1-core sanitizer hosts.
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) readers.emplace_back(reader);
  const std::span<const confsim::CallRecord> span{calls};
  for (std::size_t i = 0; i < span.size(); i += kBatch) {
    svc.ingest_calls(span.subspan(i, std::min(kBatch, span.size() - i)));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Post-race: the final cached answer matches a fresh (equally
  // untrained) service that ingested the same records in one shot.
  QueryService batch{service_config(4, 0, true)};
  batch.ingest_calls(calls);
  const Insight cached_final = svc.run(q);
  expect_identical(cached_final, batch.run(q));
  EXPECT_EQ(cached_final.sessions, prefix.back());
  // And re-running at the settled version is deterministically a hit.
  const std::uint64_t hits_before = svc.stats().insight_cache.hits;
  expect_identical(svc.run(q), cached_final);
  EXPECT_EQ(svc.stats().insight_cache.hits, hits_before + 1);
}

// ---- Corpus-wide MOS correlation memo ----------------------------------

using Spearman = std::vector<std::pair<EngagementMetric, double>>;

/// boundary_calls with rater noise on every MOS: there, MOS and all three
/// engagement actions are monotone in latency (Spearman is exactly 1 at
/// any corpus size), so a stale correlation could not be told apart.
std::vector<confsim::CallRecord> noisy_calls(std::uint64_t seed,
                                             std::size_t calls_per_day) {
  std::vector<confsim::CallRecord> calls = boundary_calls(seed, calls_per_day);
  core::Rng rng{seed ^ 0x0153};
  for (confsim::CallRecord& call : calls) {
    for (confsim::ParticipantRecord& p : call.participants) {
      if (p.mos) {
        p.mos = core::clamp_mos(core::Mos{p.mos->score() + rng.uniform(-1, 1)});
      }
    }
  }
  return calls;
}

/// Insight::mos_spearman as a freshly built engine computes it over
/// `calls` (same layout as service_config's engine).
Spearman fresh_spearman(std::span<const confsim::CallRecord> calls) {
  CorrelationEngine engine;
  engine.configure_summaries(SummaryConfig{});
  engine.ingest(calls);
  Spearman out;
  for (const EngagementMetric m :
       {EngagementMetric::kPresence, EngagementMetric::kCamOn,
        EngagementMetric::kMicOn}) {
    if (const auto corr = engine.mos_correlation(m, 50)) {
      out.emplace_back(m, corr->spearman);
    }
  }
  return out;
}

/// Bit-for-bit: EXPECT_EQ on the doubles.
void expect_spearman_eq(const Spearman& got, const Spearman& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second);
  }
}

TEST(MosMemo, EveryMutationPathInvalidates) {
  // Cache off, so every run() reaches the engine: a memo that survived a
  // mutation would show up as the pre-mutation correlation.
  QueryService svc{service_config(2, 0, true)};
  const Query q = battery().front();
  const auto calls = noisy_calls(616, 24);
  const std::span<const confsim::CallRecord> all{calls};
  std::vector<confsim::CallRecord> ingested;
  Spearman previous;
  const auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    const Spearman want = fresh_spearman(ingested);
    ASSERT_EQ(want.size(), 3u);  // enough rated sessions at every step
    expect_spearman_eq(svc.run(q).mos_spearman, want);  // fills the memo
    expect_spearman_eq(svc.run(q).mos_spearman, want);  // memo hit
    EXPECT_NE(want, previous);  // the step really moved the correlation
    previous = want;
  };

  const std::size_t half = calls.size() / 2;
  svc.ingest_calls(all.first(half));
  ingested.assign(calls.begin(), calls.begin() + half);
  check("first batch");

  svc.ingest_calls(all.subspan(half, 20));
  ingested.insert(ingested.end(), calls.begin() + half,
                  calls.begin() + half + 20);
  check("batch ingest");

  // A one-call span takes the engine's single-record ingest overload.
  const auto extra = noisy_calls(717, 2);
  const auto rated = std::find_if(
      extra.begin(), extra.end(), [](const confsim::CallRecord& call) {
        return std::any_of(call.participants.begin(), call.participants.end(),
                           [](const auto& p) { return p.mos.has_value(); });
      });
  ASSERT_NE(rated, extra.end());
  svc.ingest_calls(std::span<const confsim::CallRecord>{&*rated, 1});
  ingested.push_back(*rated);
  check("single-record ingest");

  {
    StreamIngestor ingestor{svc};
    const auto rest = all.subspan(half + 20);
    ASSERT_EQ(ingestor.push_many(rest), rest.size());
    ASSERT_TRUE(ingestor.flush());
    ingested.insert(ingested.end(), rest.begin(), rest.end());
  }
  check("stream flush");
}

TEST(MosMemo, EngineCopyKeepsItsOwnMemo) {
  const auto calls = noisy_calls(818, 24);
  const std::span<const confsim::CallRecord> all{calls};
  const std::size_t half = calls.size() / 2;
  CorrelationEngine original;
  original.configure_summaries(SummaryConfig{});
  original.ingest(all.first(half));
  const auto before = original.mos_correlation(EngagementMetric::kCamOn);
  ASSERT_TRUE(before.has_value());

  const auto expect_corr_eq = [](const CorrelationEngine::MosCorrelation& a,
                                 const CorrelationEngine::MosCorrelation& b) {
    EXPECT_EQ(a.rated_sessions, b.rated_sessions);
    EXPECT_EQ(a.pearson, b.pearson);
    EXPECT_EQ(a.spearman, b.spearman);
    ASSERT_EQ(a.decile_curve.size(), b.decile_curve.size());
    for (std::size_t i = 0; i < a.decile_curve.size(); ++i) {
      EXPECT_EQ(a.decile_curve[i].metric_value, b.decile_curve[i].metric_value);
      EXPECT_EQ(a.decile_curve[i].engagement, b.decile_curve[i].engagement);
    }
  };
  CorrelationEngine copy = original;  // carries the filled memo
  expect_corr_eq(*copy.mos_correlation(EngagementMetric::kCamOn), *before);
  copy.ingest(all.subspan(half));

  CorrelationEngine fresh;
  fresh.configure_summaries(SummaryConfig{});
  fresh.ingest(all);
  const auto grown = copy.mos_correlation(EngagementMetric::kCamOn);
  ASSERT_TRUE(grown.has_value());
  expect_corr_eq(*grown, *fresh.mos_correlation(EngagementMetric::kCamOn));
  EXPECT_GT(grown->rated_sessions, before->rated_sessions);
  // The original never saw the copy's ingest.
  expect_corr_eq(*original.mos_correlation(EngagementMetric::kCamOn), *before);
}

TEST(MosMemo, ReadersRacingTheFirstQueryAfterABumpSeeNoStaleCorrelation) {
  // Four readers race to fill the memo after every flush while a producer
  // streams. With a fixed watermark the flushes slice the stream
  // deterministically, so the correlation each insight carries must equal
  // a fresh engine's over the prefix its corpus version names.
  constexpr std::size_t kWatermark = 10;
  const auto calls = noisy_calls(9090, 16);
  const std::span<const confsim::CallRecord> all{calls};
  const std::size_t flushes = (calls.size() + kWatermark - 1) / kWatermark;
  std::vector<Spearman> expected;  // expected[v]: after v flushes
  for (std::size_t v = 0; v <= flushes; ++v) {
    expected.push_back(
        fresh_spearman(all.first(std::min(v * kWatermark, calls.size()))));
  }

  QueryService svc{service_config(4, 0, true)};
  const Query q = battery().front();
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> correlated{0};
  const auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const Insight insight = svc.run(q);
      if (insight.corpus_version >= expected.size() ||
          insight.mos_spearman != expected[insight.corpus_version]) {
        ++violations;
      }
      if (!insight.mos_spearman.empty()) ++correlated;
      // Yield so the producer's exclusive lock is not starved.
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);
  {
    // EXPECT, not ASSERT: an early return would destroy joinable readers.
    StreamIngestorConfig cfg;
    cfg.call_capacity = 64;
    cfg.call_flush_watermark = kWatermark;
    StreamIngestor ingestor{svc, cfg};
    for (const confsim::CallRecord& call : calls) {
      EXPECT_EQ(ingestor.push(call), PushOutcome::kAccepted);
      std::this_thread::sleep_for(std::chrono::microseconds{500});
    }
    EXPECT_TRUE(ingestor.flush());
  }
  // Let the readers race once more at the final version.
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(correlated.load(), 0);
  EXPECT_EQ(svc.corpus_version() + 1, expected.size());
  expect_spearman_eq(svc.run(q).mos_spearman, expected.back());
}

}  // namespace
}  // namespace usaas::service
