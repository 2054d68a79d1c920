// Ingest-equivalence property tests for the two-pass counted batch
// pipeline: batch ingest must be indistinguishable from one-record-at-a-
// time ingest — bit-identical query results — at every thread count, including batches whose calls/posts straddle
// month and year boundaries, and for empty batches.
//
// Registered under the `sanitize` ctest label: with -DUSAAS_SANITIZE=thread
// this is the ThreadSanitizer workload for the two-pass parallel writes
// (pass 1's per-chunk counting and pass 2's scatter into shared shard
// buffers). The suite runs with USAAS_PARALLEL_FORCE=1 so fan-out is real
// even on single-core CI hosts.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "confsim/call.h"
#include "core/rng.h"
#include "social/post.h"
#include "usaas/query_service.h"

namespace usaas::service {
namespace {

using core::Date;

// ---- A hand-built corpus that stresses shard-boundary routing --------
// Calls cluster on the days around month and year boundaries (the exact
// records the old merge path could misroute), plus a spread through 2022.

std::vector<confsim::CallRecord> boundary_calls(std::uint64_t seed,
                                                std::size_t calls_per_day) {
  const Date days[] = {
      {2021, 12, 30}, {2021, 12, 31}, {2022, 1, 1},  {2022, 1, 2},
      {2022, 1, 31},  {2022, 2, 1},   {2022, 2, 28}, {2022, 3, 1},
      {2022, 3, 15},  {2022, 6, 30},  {2022, 7, 1},  {2022, 12, 31},
      {2023, 1, 1},
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
      {2021, 12, 31}, {2022, 1, 1},  {2022, 1, 31}, {2022, 2, 1},
      {2022, 2, 28},  {2022, 3, 1},  {2022, 8, 15}, {2022, 12, 31},
      {2023, 1, 1},
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

std::vector<Query> battery() {
  std::vector<Query> queries;
  Query base;
  base.first = Date(2021, 12, 1);
  base.last = Date(2023, 1, 31);
  base.metric = netsim::Metric::kLatency;
  base.metric_lo = 0.0;
  base.metric_hi = 300.0;
  base.bins = 6;
  queries.push_back(base);  // everything

  Query year_straddle = base;  // window crossing the 2021->2022 boundary
  year_straddle.first = Date(2021, 12, 15);
  year_straddle.last = Date(2022, 1, 15);
  queries.push_back(year_straddle);

  Query month_straddle = base;  // Jan 31 / Feb 1 on both edges
  month_straddle.first = Date(2022, 1, 31);
  month_straddle.last = Date(2022, 2, 1);
  queries.push_back(month_straddle);

  Query single_day = base;  // exactly one boundary day
  single_day.first = Date(2022, 12, 31);
  single_day.last = Date(2022, 12, 31);
  queries.push_back(single_day);

  Query platform = year_straddle;  // boundary window + shard-column prune
  platform.platform = confsim::Platform::kAndroid;
  queries.push_back(platform);

  Query access = base;  // per-record predicate on top of pruning
  access.access = netsim::AccessTechnology::kLeoSatellite;
  queries.push_back(access);

  Query empty_window = base;  // a window with no records at all
  empty_window.first = Date(2024, 5, 1);
  empty_window.last = Date(2024, 5, 31);
  queries.push_back(empty_window);

  return queries;
}

// Batch vs one-by-one use the same shard layout, so equivalence is
// bit-exact — no tolerance anywhere.
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
    }
  }
  ASSERT_EQ(a.mos_spearman.size(), b.mos_spearman.size());
  for (std::size_t i = 0; i < a.mos_spearman.size(); ++i) {
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

struct Corpus {
  std::vector<confsim::CallRecord> calls;
  std::vector<social::Post> posts;
};

Corpus make_corpus(std::uint64_t seed) {
  return {boundary_calls(seed, 12), boundary_posts(seed ^ 0x5eed, 6)};
}

QueryService batch_service(const Corpus& corpus, QueryServiceConfig config) {
  QueryService svc{config};
  svc.ingest_calls(corpus.calls);
  svc.ingest_posts(corpus.posts);
  svc.train_predictor();
  return svc;
}

QueryService one_by_one_service(const Corpus& corpus,
                                QueryServiceConfig config) {
  QueryService svc{config};
  const std::span<const confsim::CallRecord> calls{corpus.calls};
  for (std::size_t i = 0; i < calls.size(); ++i) {
    svc.ingest_calls(calls.subspan(i, 1));
  }
  const std::span<const social::Post> posts{corpus.posts};
  for (std::size_t i = 0; i < posts.size(); ++i) {
    svc.ingest_posts(posts.subspan(i, 1));
  }
  svc.train_predictor();
  return svc;
}

TEST(IngestEquivalence, BatchMatchesOneByOneAcrossPoliciesAndThreads) {
  const Corpus corpus = make_corpus(1234);
  const QueryService serial = one_by_one_service(corpus, {.threads = 1});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const QueryService batched = batch_service(corpus, {.threads = threads});
    ASSERT_EQ(batched.ingested_sessions(), serial.ingested_sessions());
    ASSERT_EQ(batched.ingested_posts(), serial.ingested_posts());
    ASSERT_EQ(batched.session_shards(), serial.session_shards());
    ASSERT_EQ(batched.post_shards(), serial.post_shards());
    for (const Query& q : battery()) {
      expect_identical(batched.run(q), serial.run(q));
    }
  }
}

TEST(IngestEquivalence, SplitBatchesMatchOneBigBatch) {
  // Repeated ingestion in uneven slices (including a slice of one call)
  // appends to existing shards exactly like a single batch would.
  const Corpus corpus = make_corpus(77);
  const QueryService whole =
      batch_service(corpus, {.threads = 4});
  QueryService sliced{{.threads = 4}};
  const std::span<const confsim::CallRecord> calls{corpus.calls};
  const std::size_t cut1 = calls.size() / 3;
  sliced.ingest_calls(calls.subspan(0, cut1));
  sliced.ingest_calls(calls.subspan(cut1, 1));
  sliced.ingest_calls(calls.subspan(cut1 + 1));
  const std::span<const social::Post> posts{corpus.posts};
  sliced.ingest_posts(posts.subspan(0, posts.size() / 2));
  sliced.ingest_posts(posts.subspan(posts.size() / 2));
  sliced.train_predictor();
  ASSERT_EQ(whole.ingested_sessions(), sliced.ingested_sessions());
  ASSERT_EQ(whole.session_shards(), sliced.session_shards());
  for (const Query& q : battery()) {
    expect_identical(whole.run(q), sliced.run(q));
  }
}

TEST(IngestEquivalence, EmptyBatchIsANoOp) {
  const Corpus corpus = make_corpus(9);
  QueryService with_empties{{.threads = 2}};
  with_empties.ingest_calls({});  // before any data
  with_empties.ingest_posts({});
  with_empties.ingest_calls(corpus.calls);
  with_empties.ingest_calls({});  // between batches
  with_empties.ingest_posts(corpus.posts);
  with_empties.ingest_posts({});
  with_empties.train_predictor();
  EXPECT_EQ(with_empties.ingested_sessions(),
            [&] {
              std::size_t n = 0;
              for (const auto& c : corpus.calls) n += c.participants.size();
              return n;
            }());
  EXPECT_EQ(with_empties.ingested_posts(), corpus.posts.size());
  const QueryService clean = batch_service(corpus, {.threads = 2});
  for (const Query& q : battery()) {
    expect_identical(with_empties.run(q), clean.run(q));
  }
  // A service that only ever saw empty batches answers queries without
  // crashing and reports nothing.
  QueryService empty{{.threads = 2}};
  empty.ingest_calls({});
  empty.ingest_posts({});
  EXPECT_FALSE(empty.train_predictor());
  const Insight insight = empty.run(battery().front());
  EXPECT_EQ(insight.sessions, 0u);
  EXPECT_EQ(insight.posts, 0u);
}

TEST(IngestEquivalence, CallsWithoutParticipantsCountABatchButNoRows) {
  // A non-empty batch whose calls emit no rows runs the whole driver:
  // one batch in the stats and the phase histograms, no shard, no row.
  core::telemetry::Registry reg{true};
  CorrelationEngine engine;
  engine.set_telemetry(&reg);
  const std::vector<confsim::CallRecord> calls(3);
  engine.ingest(calls);
  EXPECT_EQ(engine.shard_count(), 0u);
  EXPECT_EQ(engine.session_count(), 0u);
  EXPECT_EQ(engine.ingest_stats().batches, 1u);
  EXPECT_EQ(engine.ingest_stats().records, 0u);
  EXPECT_EQ(engine.ingest_stats().shards_touched, 0u);
  EXPECT_EQ(reg.histogram("usaas_ingest_batch_seconds", "",
                          {{"corpus", "sessions"}, {"phase", "total"}})
                .snapshot()
                .count,
            1u);
}

TEST(IngestEquivalence, BoundaryWindowCountsMatchBruteForce) {
  // The sharded engine's answer on windows that slice shards at month and
  // year boundaries equals a direct scan of the raw corpus.
  const Corpus corpus = make_corpus(4321);
  const QueryService svc =
      batch_service(corpus, {.threads = 8});
  for (const Query& q : battery()) {
    std::size_t expected_sessions = 0;
    for (const auto& call : corpus.calls) {
      if (call.start.date < q.first || q.last < call.start.date) continue;
      for (const auto& rec : call.participants) {
        if (q.platform && rec.platform != *q.platform) continue;
        if (q.access && rec.access != *q.access) continue;
        ++expected_sessions;
      }
    }
    std::size_t expected_posts = 0;
    for (const auto& post : corpus.posts) {
      if (post.date < q.first || q.last < post.date) continue;
      ++expected_posts;
    }
    const Insight insight = svc.run(q);
    EXPECT_EQ(insight.sessions, expected_sessions);
    EXPECT_EQ(insight.posts, expected_posts);
  }
}

// ---- Hot-shard splitting --------------------------------------------
// A corpus where one month holds ~90% of the posts: the destination-major
// scatter must split that shard's slot range across workers (the cost
// model's grain guarantees it at these sizes), and the stitched result —
// scored posts, per-shard summaries, every Insight — must still be
// bit-identical to the 1-thread run.

std::vector<social::Post> hot_month_posts(std::uint64_t seed,
                                          std::size_t count) {
  static const char* kBodies[] = {
      "total outage tonight, service went down, everything offline again",
      "no service no internet, lost connection, not working at all",
      "honestly the connection has been great, fast and reliable, love it",
      "speeds are okay this week, nothing special to report",
      "NOT GOOD!! constant drops, really very slow, extremely frustrating",
      "isn't working, don't buy, the users' routers keep searching",
  };
  const Date cold_days[] = {
      {2021, 12, 31}, {2022, 1, 15}, {2022, 2, 1}, {2022, 6, 30},
      {2022, 7, 1},   {2022, 12, 31},
  };
  core::Rng rng{seed};
  std::vector<social::Post> posts;
  posts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    social::Post post;
    post.id = i;
    // 90% of the batch lands in March 2022 — one month shard.
    if (rng.uniform_int(0, 9) != 0) {
      post.date = Date(2022, 3, static_cast<int>(rng.uniform_int(1, 31)));
    } else {
      post.date = cold_days[rng.uniform_int(0, 5)];
    }
    post.author_id = rng.uniform_int(1, 500);
    post.title = "experience report";
    post.body = kBodies[rng.uniform_int(0, 5)];
    post.upvotes = static_cast<int>(rng.uniform_int(0, 50));
    post.num_comments = static_cast<int>(rng.uniform_int(0, 10));
    posts.push_back(std::move(post));
  }
  return posts;
}

std::vector<Query> hot_shard_battery() {
  std::vector<Query> queries = battery();
  Query whole_march;  // covers the hot month whole -> summary path
  whole_march.first = Date(2022, 3, 1);
  whole_march.last = Date(2022, 3, 31);
  queries.push_back(whole_march);
  Query partial_march = whole_march;  // slices the hot shard -> scan path
  partial_march.first = Date(2022, 3, 5);
  partial_march.last = Date(2022, 3, 20);
  queries.push_back(partial_march);
  return queries;
}

TEST(IngestEquivalence, HotShardSplitMatchesSingleThreadAcrossPolicies) {
  const auto posts = hot_month_posts(0x407, 4000);
  QueryService reference{{.threads = 1}};
  reference.ingest_posts(posts);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    QueryService parallel{{.threads = threads}};
    parallel.ingest_posts(posts);
    ASSERT_EQ(parallel.ingested_posts(), reference.ingested_posts());
    ASSERT_EQ(parallel.post_shards(), reference.post_shards());
    for (const Query& q : hot_shard_battery()) {
      expect_identical(parallel.run(q), reference.run(q));
    }
  }
}

TEST(IngestEquivalence, HotShardSummariesMatchSingleThreadExactly) {
  // The whole-month query is answered from the per-shard summaries
  // (strong counts + day_hits folded during the split scatter); those
  // must agree with the 1-thread fold to full precision — 1e-9 is the
  // contract floor, EXPECT_DOUBLE_EQ is what we actually hold.
  const auto posts = hot_month_posts(99, 4000);
  QueryServiceConfig base;
  base.threads = 1;
  QueryService reference{base};
  reference.ingest_posts(posts);
  Query whole_march;
  whole_march.first = Date(2022, 3, 1);
  whole_march.last = Date(2022, 3, 31);
  const Insight ref_insight = reference.run(whole_march);
  // Prove the summary path actually served the hot month.
  EXPECT_GT(ref_insight.execution.post_shards_from_summary, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    QueryServiceConfig config = base;
    config.threads = threads;
    QueryService parallel{config};
    parallel.ingest_posts(posts);
    const Insight got = parallel.run(whole_march);
    EXPECT_GT(got.execution.post_shards_from_summary, 0u);
    expect_identical(got, ref_insight);
    EXPECT_NEAR(got.strong_positive_share, ref_insight.strong_positive_share,
                1e-9);
    // The scan path over the scattered records agrees with the summary
    // path — record order in the shard is thread-count-independent.
    QueryServiceConfig scan_config = config;
    scan_config.shard_summaries = false;
    scan_config.insight_cache_entries = 0;
    QueryService scanner{scan_config};
    scanner.ingest_posts(posts);
    expect_identical(scanner.run(whole_march), ref_insight);
  }
}

TEST(IngestEquivalence, IngestStatsTrackRecordsAndShards) {
  const Corpus corpus = make_corpus(5);
  QueryService svc{{.threads = 2}};
  svc.ingest_calls(corpus.calls);
  svc.ingest_posts(corpus.posts);
  const QueryService::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions.records, svc.ingested_sessions());
  EXPECT_EQ(stats.sessions.batches, 1u);
  EXPECT_EQ(stats.sessions.shards_touched, svc.session_shards());
  EXPECT_GT(stats.sessions.bytes_moved, 0u);
  EXPECT_GE(stats.sessions.total_seconds, 0.0);
  EXPECT_EQ(stats.posts.records, svc.ingested_posts());
  EXPECT_EQ(stats.posts.shards_touched, svc.post_shards());
  EXPECT_EQ(stats.session_shards, svc.session_shards());
  EXPECT_FALSE(to_string(stats.sessions).empty());
}

}  // namespace
}  // namespace usaas::service
