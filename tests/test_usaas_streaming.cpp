// Streaming-ingest property tests: StreamIngestor must be a transparent
// front-end — a stream of pushes, flushed at any watermark, yields query
// results bit-identical to one-shot batch ingest of the same records, at
// every thread count. Backpressure policies, poison
// quarantine, and reader/writer concurrency (queries racing a live
// producer) are exercised on top.
//
// Registered under the `sanitize` ctest label with USAAS_PARALLEL_FORCE=1:
// under -DUSAAS_SANITIZE=thread the QueryDuringLiveIngest tests are the
// TSan workload for the corpus RW lock (producer flushes take it
// exclusively while query threads fan out under shared holds).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "confsim/call.h"
#include "core/fault_injector.h"
#include "core/rng.h"
#include "social/post.h"
#include "usaas/query_service.h"
#include "usaas/stream_ingestor.h"

namespace usaas::service {
namespace {

using core::Date;

// ---- Corpus + battery helpers (mirror test_usaas_ingest_equivalence) ----

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

std::vector<Query> battery() {
  std::vector<Query> queries;
  Query base;
  base.first = Date(2021, 12, 1);
  base.last = Date(2023, 1, 31);
  base.metric = netsim::Metric::kLatency;
  base.metric_lo = 0.0;
  base.metric_hi = 300.0;
  base.bins = 6;
  queries.push_back(base);

  Query year_straddle = base;
  year_straddle.first = Date(2021, 12, 15);
  year_straddle.last = Date(2022, 1, 15);
  queries.push_back(year_straddle);

  Query platform = year_straddle;
  platform.platform = confsim::Platform::kAndroid;
  queries.push_back(platform);

  Query access = base;
  access.access = netsim::AccessTechnology::kLeoSatellite;
  queries.push_back(access);

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
  return {boundary_calls(seed, 10), boundary_posts(seed ^ 0x5eed, 5)};
}

QueryService batch_service(const Corpus& corpus, QueryServiceConfig config) {
  QueryService svc{config};
  svc.ingest_calls(corpus.calls);
  svc.ingest_posts(corpus.posts);
  svc.train_predictor();
  return svc;
}

// ---- Poison records for the quarantine tests -------------------------

confsim::CallRecord good_call(std::uint64_t id) {
  confsim::CallRecord call = boundary_calls(id + 1, 1).front();
  call.call_id = id;
  return call;
}

social::Post good_post(std::uint64_t id) {
  social::Post post = boundary_posts(id + 1, 1).front();
  post.id = id;
  return post;
}

confsim::CallRecord poison_call(QuarantineReason reason, std::uint64_t id) {
  confsim::CallRecord call = good_call(id);
  switch (reason) {
    case QuarantineReason::kDateOutOfRange:
      call.start.date = Date{};  // unset field: 1970-01-01
      break;
    case QuarantineReason::kNanMetric:
      call.participants.front().network.jitter_ms.p95 = std::nan("");
      break;
    case QuarantineReason::kNegativeMetric:
      call.participants.front().network.loss_pct.median = -0.5;
      break;
    case QuarantineReason::kEngagementOutOfRange:
      call.participants.front().cam_on_pct = 170.0;
      break;
    case QuarantineReason::kMosOutOfRange:
      call.participants.front().mos = core::Mos{9.5};
      break;
    case QuarantineReason::kEmptyPostText:
      break;  // not a call-side reason
  }
  return call;
}

// ---- The tentpole property: streaming == batch, bit-identical --------

TEST(Streaming, MatchesBatchAtAnyWatermarkPolicyAndThreadCount) {
  const Corpus corpus = make_corpus(1234);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const QueryService batched = batch_service(corpus, {.threads = threads});
    for (const std::size_t watermark :
         {std::size_t{1}, std::size_t{7}, std::size_t{64},
          corpus.calls.size() + corpus.posts.size()}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads
                                      << ", watermark " << watermark);
      QueryService streamed{{.threads = threads}};
      StreamIngestorConfig cfg;
      cfg.call_capacity = cfg.post_capacity =
          corpus.calls.size() + corpus.posts.size();
      cfg.call_flush_watermark = cfg.post_flush_watermark = watermark;
      StreamIngestor ingestor{streamed, cfg};
      for (const auto& call : corpus.calls) {
        ASSERT_EQ(ingestor.push(call), PushOutcome::kAccepted);
      }
      for (const auto& post : corpus.posts) {
        ASSERT_EQ(ingestor.push(post), PushOutcome::kAccepted);
      }
      ASSERT_TRUE(ingestor.flush());
      streamed.train_predictor();
      ASSERT_EQ(streamed.ingested_sessions(), batched.ingested_sessions());
      ASSERT_EQ(streamed.ingested_posts(), batched.ingested_posts());
      ASSERT_EQ(streamed.session_shards(), batched.session_shards());
      ASSERT_EQ(streamed.post_shards(), batched.post_shards());
      const StreamIngestor::Stats stats = ingestor.stats();
      EXPECT_EQ(stats.health.accepted,
                corpus.calls.size() + corpus.posts.size());
      EXPECT_EQ(stats.health.flushed, stats.health.accepted);
      EXPECT_EQ(stats.health.staged, 0u);
      EXPECT_EQ(stats.health.quarantined, 0u);
      for (const Query& q : battery()) {
        expect_identical(streamed.run(q), batched.run(q));
      }
    }
  }
}

TEST(Streaming, ChunkPushMatchesRecordPush) {
  const Corpus corpus = make_corpus(77);
  const QueryService batched =
      batch_service(corpus, {.threads = 2});
  QueryService streamed{{.threads = 2}};
  StreamIngestorConfig cfg;
  cfg.call_flush_watermark = 16;
  cfg.post_flush_watermark = 16;
  StreamIngestor ingestor{streamed, cfg};
  // Uneven chunks, including a chunk of one.
  const std::span<const confsim::CallRecord> calls{corpus.calls};
  const std::size_t cut = calls.size() / 3;
  EXPECT_EQ(ingestor.push_many(calls.subspan(0, cut)), cut);
  EXPECT_EQ(ingestor.push_many(calls.subspan(cut, 1)), 1u);
  EXPECT_EQ(ingestor.push_many(calls.subspan(cut + 1)),
            calls.size() - cut - 1);
  EXPECT_EQ(ingestor.push_many(std::span<const social::Post>{corpus.posts}),
            corpus.posts.size());
  ASSERT_TRUE(ingestor.flush());
  streamed.train_predictor();
  for (const Query& q : battery()) {
    expect_identical(streamed.run(q), batched.run(q));
  }
}

TEST(Streaming, PushManyMatchesRecordPushBitIdentically) {
  // push_many amortizes the lock but must keep per-record semantics:
  // watermark slicing is a pure function of the push sequence, so pushing
  // in chunks that straddle flush boundaries — with poison interleaved —
  // yields the same flushes, the same quarantine, and bit-identical
  // query results as a push() loop.
  const Corpus corpus = make_corpus(4096);
  StreamIngestorConfig cfg;
  cfg.call_flush_watermark = 16;
  cfg.post_flush_watermark = 16;

  QueryService looped{{.threads = 2}};
  StreamIngestor one_by_one{looped, cfg};
  QueryService chunked{{.threads = 2}};
  StreamIngestor many{chunked, cfg};

  // Interleave a poison call every 11 records so quarantine bookkeeping
  // is exercised inside chunks too.
  std::vector<confsim::CallRecord> feed;
  for (std::size_t i = 0; i < corpus.calls.size(); ++i) {
    if (i % 11 == 0) {
      feed.push_back(poison_call(QuarantineReason::kNanMetric, 7000 + i));
    }
    feed.push_back(corpus.calls[i]);
  }

  std::size_t accepted_loop = 0;
  for (const auto& call : feed) {
    if (one_by_one.push(call) == PushOutcome::kAccepted) ++accepted_loop;
  }
  for (const auto& post : corpus.posts) {
    ASSERT_EQ(one_by_one.push(post), PushOutcome::kAccepted);
  }

  // Chunk size 37 is coprime with the watermark (16): chunks straddle
  // flush boundaries mid-span.
  const std::span<const confsim::CallRecord> span{feed};
  std::size_t accepted_many = 0;
  for (std::size_t i = 0; i < span.size(); i += 37) {
    accepted_many +=
        many.push_many(span.subspan(i, std::min<std::size_t>(37, span.size() - i)));
  }
  accepted_many += many.push_many(std::span<const social::Post>{corpus.posts});
  EXPECT_EQ(accepted_many, accepted_loop + corpus.posts.size());

  ASSERT_TRUE(one_by_one.flush());
  ASSERT_TRUE(many.flush());
  looped.train_predictor();
  chunked.train_predictor();

  const StreamIngestor::Stats ls = one_by_one.stats();
  const StreamIngestor::Stats ms = many.stats();
  EXPECT_EQ(ms.health.accepted, ls.health.accepted);
  EXPECT_EQ(ms.health.flushed, ls.health.flushed);
  EXPECT_EQ(ms.health.quarantined, ls.health.quarantined);
  EXPECT_GT(ms.health.quarantined, 0u);
  EXPECT_EQ(ms.health.staged, 0u);
  EXPECT_EQ(chunked.ingested_sessions(), looped.ingested_sessions());
  EXPECT_EQ(chunked.ingested_posts(), looped.ingested_posts());
  EXPECT_EQ(chunked.session_shards(), looped.session_shards());
  for (const Query& q : battery()) {
    expect_identical(chunked.run(q), looped.run(q));
  }
}

TEST(Streaming, PushManyStopsAtTheFirstRejection) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector::Config fcfg;
  fcfg.fail_first_flushes = 1u << 20;  // every flush fails
  core::FaultInjector faults{fcfg};
  StreamIngestorConfig cfg;
  cfg.call_capacity = 8;
  cfg.call_flush_watermark = 8;
  cfg.backpressure = BackpressurePolicy::kReject;
  cfg.max_flush_attempts = 2;
  cfg.retry_backoff = std::chrono::milliseconds{0};
  StreamIngestor ingestor{svc, cfg, &faults};
  const auto calls = boundary_calls(6, 2);
  ASSERT_GE(calls.size(), 12u);
  // Capacity 8, every flush fails: exactly 8 of the span fit.
  EXPECT_EQ(ingestor.push_many(std::span{calls}.first(12)), 8u);
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.accepted, 8u);
  EXPECT_EQ(stats.health.rejected, 1u);  // the 9th; 10..12 never attempted
  EXPECT_EQ(stats.health.staged, 8u);
}

// ---- Backpressure policies -------------------------------------------

core::FaultInjector always_failing_flushes() {
  core::FaultInjector::Config cfg;
  cfg.fail_first_flushes = 1u << 20;  // effectively: every flush fails
  return core::FaultInjector{cfg};
}

TEST(Streaming, RejectPolicyRefusesWhenFullAndStuck) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector faults = always_failing_flushes();
  StreamIngestorConfig cfg;
  cfg.call_capacity = 8;
  cfg.call_flush_watermark = 8;
  cfg.backpressure = BackpressurePolicy::kReject;
  cfg.max_flush_attempts = 2;
  cfg.retry_backoff = std::chrono::milliseconds{0};
  StreamIngestor ingestor{svc, cfg, &faults};
  const auto calls = boundary_calls(3, 2);
  ASSERT_GE(calls.size(), 12u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ingestor.push(calls[i]), PushOutcome::kAccepted);
  }
  // Buffer is full and every flush fails: further pushes are refused.
  EXPECT_EQ(ingestor.push(calls[8]), PushOutcome::kRejected);
  EXPECT_EQ(ingestor.push(calls[9]), PushOutcome::kRejected);
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.accepted, 8u);
  EXPECT_EQ(stats.health.rejected, 2u);
  EXPECT_EQ(stats.health.staged, 8u);
  EXPECT_EQ(stats.health.flushed, 0u);
  EXPECT_TRUE(stats.health.degraded);
  EXPECT_EQ(svc.ingested_sessions(), 0u);
  // push_many stops at the first rejection.
  EXPECT_EQ(ingestor.push_many(std::span{calls}.subspan(10)), 0u);
}

TEST(Streaming, DropOldestPolicyKeepsTheFreshestRecords) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector faults = always_failing_flushes();
  StreamIngestorConfig cfg;
  cfg.call_capacity = 4;
  cfg.call_flush_watermark = 4;
  cfg.backpressure = BackpressurePolicy::kDropOldest;
  cfg.max_flush_attempts = 2;
  cfg.retry_backoff = std::chrono::milliseconds{0};
  StreamIngestor ingestor{svc, cfg, &faults};
  const auto calls = boundary_calls(5, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ingestor.push(calls[i]), PushOutcome::kAccepted);
  }
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.accepted, 10u);
  EXPECT_EQ(stats.health.dropped, 6u);  // capacity 4, 10 accepted
  EXPECT_EQ(stats.health.staged, 4u);
  EXPECT_EQ(stats.health.rejected, 0u);
  EXPECT_TRUE(stats.health.degraded);
}

TEST(Streaming, BlockPolicyRetriesUntilTheFlushRecovers) {
  QueryService svc{{.threads = 1}};
  // Fails the first 3 flush attempts, then heals: a full-buffer push under
  // kBlock must retry the flush inline and eventually accept.
  core::FaultInjector::Config fcfg;
  fcfg.fail_first_flushes = 3;
  core::FaultInjector faults{fcfg};
  StreamIngestorConfig cfg;
  cfg.call_capacity = 4;
  cfg.call_flush_watermark = 4;
  cfg.backpressure = BackpressurePolicy::kBlock;
  cfg.max_flush_attempts = 2;  // per round; 2 rounds cover the 3 failures
  cfg.max_block_rounds = 3;
  cfg.retry_backoff = std::chrono::milliseconds{1};
  StreamIngestor ingestor{svc, cfg, &faults};
  const auto calls = boundary_calls(7, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ingestor.push(calls[i]), PushOutcome::kAccepted);
  }
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.accepted, 5u);
  EXPECT_EQ(stats.health.flush_failures, 3u);
  EXPECT_GE(stats.health.flush_retries, 1u);
  EXPECT_GE(stats.blocked_pushes, 1u);
  EXPECT_GE(stats.backoff_waits, 1u);
  EXPECT_EQ(stats.health.dropped, 0u);
  EXPECT_EQ(stats.health.rejected, 0u);
  // The healed flush delivered the first 4; the 5th is staged.
  EXPECT_EQ(stats.health.flushed, 4u);
  EXPECT_EQ(stats.health.staged, 1u);
  EXPECT_FALSE(stats.health.degraded);
  ASSERT_TRUE(ingestor.flush());
  EXPECT_EQ(svc.ingested_sessions(), [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < 5; ++i) n += calls[i].participants.size();
    return n;
  }());
}

// A scrape reads the ledger while a kBlock push sits in a flush retry's
// backoff sleep: it shows the round in progress instead of waiting it out
// (the scrape is what operators watch during exactly such a storm).
TEST(Streaming, ScrapeDoesNotWaitOutAFlushBackoff) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector::Config fcfg;
  fcfg.fail_first_flushes = 3;
  core::FaultInjector faults{fcfg};
  StreamIngestorConfig cfg;
  cfg.call_capacity = 1;  // watermark 1: every accepted push flushes
  cfg.backpressure = BackpressurePolicy::kBlock;
  cfg.max_flush_attempts = 2;
  cfg.max_block_rounds = 1;
  cfg.retry_backoff = std::chrono::milliseconds{1000};
  cfg.max_backoff = cfg.retry_backoff;
  StreamIngestor ingestor{svc, cfg, &faults};
  const auto calls = boundary_calls(7, 1);
  // Both attempts of the first round fail: the record stays staged and
  // fills the buffer.
  ASSERT_EQ(ingestor.push(calls[0]), PushOutcome::kAccepted);
  ASSERT_TRUE(ingestor.stats().health.degraded);

  // The next push blocks: its round fails once, backs off, then heals.
  std::thread pusher{[&] {
    EXPECT_EQ(ingestor.push(calls[1]), PushOutcome::kAccepted);
  }};
  while (ingestor.stats().backoff_waits < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  const std::string text = svc.metrics_text();
  EXPECT_NE(
      text.find("usaas_stream_backpressure_total{kind=\"blocked_push\"} 1\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("usaas_stream_flushes_total{result=\"ok\"} 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nusaas_stream_degraded 1\n"), std::string::npos);
  pusher.join();
  const StreamHealth health = ingestor.stats().health;
  EXPECT_EQ(health.flushes, 2u);  // the healed retry, then the watermark
  EXPECT_EQ(health.staged, 0u);
  EXPECT_FALSE(health.degraded);
}

// ---- Quarantine -------------------------------------------------------

TEST(Streaming, QuarantineCountsPerReasonAndShieldsShards) {
  const Corpus good = make_corpus(11);
  const QueryService clean = batch_service(good, {.threads = 2});
  QueryService dirty{{.threads = 2}};
  StreamIngestor ingestor{dirty};
  // Interleave poison with the good corpus: 2 of each call-side reason
  // plus 3 empty-text posts and 2 bad-date posts.
  constexpr QuarantineReason kCallReasons[] = {
      QuarantineReason::kDateOutOfRange, QuarantineReason::kNanMetric,
      QuarantineReason::kNegativeMetric,
      QuarantineReason::kEngagementOutOfRange,
      QuarantineReason::kMosOutOfRange};
  std::uint64_t poison_id = 900000;
  for (std::size_t i = 0; i < good.calls.size(); ++i) {
    if (i % 7 == 0) {
      const QuarantineReason reason = kCallReasons[(i / 7) % 5];
      EXPECT_EQ(ingestor.push(poison_call(reason, poison_id++)),
                PushOutcome::kQuarantined);
    }
    ASSERT_EQ(ingestor.push(good.calls[i]), PushOutcome::kAccepted);
  }
  const std::size_t call_poison = (good.calls.size() + 6) / 7;
  for (std::size_t i = 0; i < 3; ++i) {
    social::Post empty = good_post(poison_id++);
    empty.title = "  ";
    empty.body = "\t\n";
    EXPECT_EQ(ingestor.push(empty), PushOutcome::kQuarantined);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    social::Post undated = good_post(poison_id++);
    undated.date = Date{};
    EXPECT_EQ(ingestor.push(undated), PushOutcome::kQuarantined);
  }
  EXPECT_EQ(ingestor.push_many(std::span<const social::Post>{good.posts}),
            good.posts.size());
  ASSERT_TRUE(ingestor.flush());
  dirty.train_predictor();

  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.quarantined, call_poison + 5);
  const auto count = [&](QuarantineReason r) {
    return stats.quarantined_by_reason[static_cast<std::size_t>(r)];
  };
  // 2 of the 5 call reasons appear twice with 10 poison calls, plus the
  // 2 undated posts on kDateOutOfRange; derive exactly instead.
  std::array<std::uint64_t, kNumQuarantineReasons> expected{};
  for (std::size_t i = 0; i < call_poison; ++i) {
    ++expected[static_cast<std::size_t>(kCallReasons[i % 5])];
  }
  expected[static_cast<std::size_t>(QuarantineReason::kDateOutOfRange)] +=
      2;
  expected[static_cast<std::size_t>(QuarantineReason::kEmptyPostText)] += 3;
  for (std::size_t r = 0; r < kNumQuarantineReasons; ++r) {
    EXPECT_EQ(count(static_cast<QuarantineReason>(r)), expected[r])
        << to_string(static_cast<QuarantineReason>(r));
  }

  // The dead-letter buffer names the poison, and the shard stores never
  // saw it: results are bit-identical to the clean corpus.
  EXPECT_EQ(ingestor.quarantine().size(),
            std::min<std::size_t>(call_poison + 5,
                                  ingestor.config().quarantine_capacity));
  EXPECT_EQ(dirty.ingested_sessions(), clean.ingested_sessions());
  EXPECT_EQ(dirty.ingested_posts(), clean.ingested_posts());
  EXPECT_EQ(dirty.session_shards(), clean.session_shards());
  for (const Query& q : battery()) {
    expect_identical(dirty.run(q), clean.run(q));
  }
}

TEST(Streaming, QuarantineBufferIsCappedButCountersStayExact) {
  QueryService svc;
  StreamIngestorConfig cfg;
  cfg.quarantine_capacity = 4;
  StreamIngestor ingestor{svc, cfg};
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(
        ingestor.push(poison_call(QuarantineReason::kNanMetric, 100 + i)),
        PushOutcome::kQuarantined);
  }
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.quarantined, 10u);
  EXPECT_EQ(stats.quarantined_by_reason[static_cast<std::size_t>(
                QuarantineReason::kNanMetric)],
            10u);
  EXPECT_EQ(stats.quarantine_evicted, 6u);
  const auto dead = ingestor.quarantine();
  ASSERT_EQ(dead.size(), 4u);
  // Oldest evicted: the survivors are the last four pushed.
  EXPECT_EQ(dead.front().id, 106u);
  EXPECT_EQ(dead.back().id, 109u);
  EXPECT_EQ(dead.front().reason, QuarantineReason::kNanMetric);
}

TEST(Streaming, ValidatorReasonPriorityIsStable) {
  // A record broken several ways lands on the first reason in enum order.
  confsim::CallRecord multi = poison_call(QuarantineReason::kNanMetric, 1);
  multi.participants.front().network.loss_pct.mean = -2.0;
  multi.participants.front().presence_pct = 300.0;
  EXPECT_EQ(validate_record(multi), QuarantineReason::kNanMetric);
  multi.start.date = Date{};
  EXPECT_EQ(validate_record(multi), QuarantineReason::kDateOutOfRange);
  EXPECT_EQ(validate_record(good_call(1)), std::nullopt);
  EXPECT_EQ(validate_record(good_post(1)), std::nullopt);
}

// ---- Health publication + staleness ----------------------------------

// The ingestor's ledger is the one store of its health; the service's
// scrape renders the usaas_stream_* counts from it while the ingestor is
// attached, and drops them once it is gone.
TEST(Streaming, HealthIsPublishedIntoServiceStats) {
  QueryService svc{{.threads = 1}};
  {
    StreamIngestorConfig cfg;
    cfg.call_flush_watermark = 64;  // large: pushes stay staged
    StreamIngestor ingestor{svc, cfg};
    const auto calls = boundary_calls(2, 1);
    for (std::size_t i = 0; i < 5; ++i) ingestor.push(calls[i]);
    StreamHealth health = ingestor.stats().health;
    EXPECT_EQ(health.accepted, 5u);
    EXPECT_EQ(health.staged, 5u);
    EXPECT_EQ(health.flushed, 0u);
    EXPECT_EQ(svc.ingested_sessions(), 0u);  // nothing queryable yet
    std::string text = svc.metrics_text();
    EXPECT_NE(text.find("\nusaas_stream_staged_records 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("usaas_stream_records_total{outcome=\"accepted\"} 5\n"),
        std::string::npos);
    ASSERT_TRUE(ingestor.flush());
    health = ingestor.stats().health;
    EXPECT_EQ(health.flushed, 5u);
    EXPECT_EQ(health.staged, 0u);
    EXPECT_GT(svc.ingested_sessions(), 0u);
    text = svc.metrics_text();
    EXPECT_NE(text.find("\nusaas_stream_staged_records 0\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("usaas_stream_records_total{outcome=\"flushed\"} 5\n"),
        std::string::npos);
  }
  EXPECT_EQ(svc.metrics_text().find("usaas_stream_staged_records"),
            std::string::npos);
}

// ---- Queries racing a live producer (the TSan workload) ---------------

TEST(Streaming, QueryDuringLiveIngestSeesOnlyFlushedPrefixes) {
  const auto calls = boundary_calls(42, 16);
  constexpr std::size_t kWatermark = 10;
  // Single producer + deterministic watermark slicing: the only session
  // totals a query may ever observe are the participant prefix-sums at
  // flush boundaries.
  std::set<std::size_t> allowed{0};
  std::size_t participants = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    participants += calls[i].participants.size();
    if ((i + 1) % kWatermark == 0 || i + 1 == calls.size()) {
      allowed.insert(participants);
    }
  }

  QueryService svc{{.threads = 4}};
  StreamIngestorConfig cfg;
  cfg.call_flush_watermark = kWatermark;
  StreamIngestor ingestor{svc, cfg};

  Query q;
  q.first = Date(2021, 12, 1);
  q.last = Date(2023, 1, 31);
  q.metric_lo = 0.0;
  q.metric_hi = 300.0;
  q.bins = 4;

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  const auto reader = [&] {
    std::uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const Insight insight = svc.run(q);
      if (allowed.count(insight.sessions) == 0) ++violations;
      if (insight.corpus_version < last_version) ++violations;
      last_version = insight.corpus_version;
      const StreamHealth health = ingestor.stats().health;
      if (health.accepted < health.flushed + health.staged - health.dropped) {
        ++violations;
      }
      // Yield between queries: back-to-back shared holds would starve the
      // producer's exclusive acquisitions on reader-preferring rwlocks
      // (and time the test out on 1-core sanitizer hosts).
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) readers.emplace_back(reader);
  for (const auto& call : calls) {
    ASSERT_EQ(ingestor.push(call), PushOutcome::kAccepted);
  }
  ASSERT_TRUE(ingestor.flush());
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  // After the producer finishes, the stream is fully queryable and
  // bit-identical to batch ingest of the same records.
  QueryService batch{{.threads = 4}};
  batch.ingest_calls(calls);
  expect_identical(svc.run(q), batch.run(q));
}

// ---- IngestStats under concurrent ingest (satellite) ------------------

TEST(Streaming, IngestStatsAreMonotoneAndThreadCountInvariant) {
  const auto calls = boundary_calls(8, 12);
  const auto posts = boundary_posts(9, 8);

  // Counters must be identical whatever the pool width: bytes/records are
  // properties of the corpus, not the schedule.
  std::vector<QueryService::ServiceStats> per_threads;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    QueryService svc{{.threads = threads}};
    svc.ingest_calls(calls);
    svc.ingest_posts(posts);
    per_threads.push_back(svc.stats());
  }
  for (std::size_t i = 1; i < per_threads.size(); ++i) {
    EXPECT_EQ(per_threads[i].sessions.records,
              per_threads[0].sessions.records);
    EXPECT_EQ(per_threads[i].sessions.bytes_moved,
              per_threads[0].sessions.bytes_moved);
    EXPECT_EQ(per_threads[i].sessions.shards_touched,
              per_threads[0].sessions.shards_touched);
    EXPECT_EQ(per_threads[i].posts.records, per_threads[0].posts.records);
    EXPECT_EQ(per_threads[i].posts.bytes_moved,
              per_threads[0].posts.bytes_moved);
    EXPECT_EQ(per_threads[i].corpus_version, per_threads[0].corpus_version);
  }

  // Monotonicity while two ingest threads append batches and a sampler
  // polls stats(): cumulative counters never go backwards.
  QueryService svc{{.threads = 2}};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread sampler{[&] {
    std::size_t last_records = 0;
    std::size_t last_bytes = 0;
    std::uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const QueryService::ServiceStats stats = svc.stats();
      const std::size_t records =
          stats.sessions.records + stats.posts.records;
      const std::size_t bytes =
          stats.sessions.bytes_moved + stats.posts.bytes_moved;
      if (records < last_records || bytes < last_bytes ||
          stats.corpus_version < last_version) {
        ++violations;
      }
      if (stats.sessions.total_seconds < 0.0 ||
          stats.sessions.count_seconds + stats.sessions.plan_seconds +
                  stats.sessions.scatter_seconds >
              stats.sessions.total_seconds + 1.0) {
        ++violations;  // phase clocks must stay consistent
      }
      last_records = records;
      last_bytes = bytes;
      last_version = stats.corpus_version;
      std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
  }};
  std::thread call_writer{[&] {
    const std::span<const confsim::CallRecord> span{calls};
    for (std::size_t i = 0; i < span.size(); i += 8) {
      svc.ingest_calls(span.subspan(i, std::min<std::size_t>(8, span.size() - i)));
    }
  }};
  std::thread post_writer{[&] {
    const std::span<const social::Post> span{posts};
    for (std::size_t i = 0; i < span.size(); i += 8) {
      svc.ingest_posts(span.subspan(i, std::min<std::size_t>(8, span.size() - i)));
    }
  }};
  call_writer.join();
  post_writer.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(violations.load(), 0);
  const QueryService::ServiceStats final_stats = svc.stats();
  EXPECT_EQ(final_stats.sessions.records, per_threads[0].sessions.records);
  EXPECT_EQ(final_stats.sessions.bytes_moved,
            per_threads[0].sessions.bytes_moved);
  EXPECT_EQ(final_stats.posts.records, per_threads[0].posts.records);
}

}  // namespace
}  // namespace usaas::service
