// The fault-injection harness itself, and the streaming front-end's
// behavior under injected faults: deterministic decision streams,
// retry-with-backoff on flush failure, corrupt-record quarantine,
// slow-flush tolerance, and graceful degradation (queries keep answering
// from the last good snapshot while the stream is stuck).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fault_injector.h"
#include "usaas/query_service.h"
#include "usaas/stream_ingestor.h"

namespace usaas::core {
namespace {

TEST(FaultInjector, SameSeedSameDecisionStream) {
  FaultInjector::Config cfg;
  cfg.seed = 99;
  cfg.flush_failure_p = 0.4;
  cfg.corrupt_record_p = 0.3;
  FaultInjector a{cfg};
  FaultInjector b{cfg};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.fail_this_flush(), b.fail_this_flush()) << "decision " << i;
    EXPECT_EQ(a.corrupt_this_record(), b.corrupt_this_record())
        << "decision " << i;
  }
  EXPECT_EQ(a.flush_failures_injected(), b.flush_failures_injected());
  EXPECT_EQ(a.corruptions_injected(), b.corruptions_injected());
  EXPECT_GT(a.flush_failures_injected(), 0u);
  EXPECT_LT(a.flush_failures_injected(), 200u);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector::Config cfg;
  cfg.flush_failure_p = 0.5;
  cfg.seed = 1;
  FaultInjector a{cfg};
  cfg.seed = 2;
  FaultInjector b{cfg};
  int differences = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.fail_this_flush() != b.fail_this_flush()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjector, FailFirstFlushesIsExactThenHeals) {
  FaultInjector::Config cfg;
  cfg.fail_first_flushes = 5;
  FaultInjector inj{cfg};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(inj.fail_this_flush()) << "attempt " << i;
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(inj.fail_this_flush());  // flush_failure_p is 0: healed
  }
  EXPECT_EQ(inj.flush_failures_injected(), 5u);
}

TEST(FaultInjector, SlowFlushDelayRespectsProbability) {
  FaultInjector::Config cfg;
  cfg.slow_flush_p = 1.0;
  cfg.slow_flush_delay = std::chrono::milliseconds{7};
  FaultInjector always{cfg};
  EXPECT_EQ(always.flush_delay(), std::chrono::milliseconds{7});
  EXPECT_EQ(always.slow_flushes_injected(), 1u);

  cfg.slow_flush_p = 0.0;
  FaultInjector never{cfg};
  EXPECT_EQ(never.flush_delay(), std::chrono::milliseconds{0});
  EXPECT_EQ(never.slow_flushes_injected(), 0u);
}

}  // namespace
}  // namespace usaas::core

namespace usaas::service {
namespace {

using core::Date;

confsim::CallRecord sample_call(std::uint64_t id) {
  confsim::CallRecord call;
  call.call_id = id;
  call.start.date = Date(2022, 3, static_cast<int>(1 + id % 28));
  call.start.time = {9, 0};
  confsim::ParticipantRecord rec;
  rec.user_id = id * 10;
  rec.platform = confsim::Platform::kWindowsPc;
  rec.meeting_size = 2;
  rec.access = netsim::AccessTechnology::kFiber;
  const auto agg = [](double v) {
    return netsim::MetricAggregate{v, v, v};
  };
  rec.network.latency_ms = agg(40.0 + static_cast<double>(id % 50));
  rec.network.loss_pct = agg(0.5);
  rec.network.jitter_ms = agg(3.0);
  rec.network.bandwidth_mbps = agg(25.0);
  rec.network.duration_seconds = 1800.0;
  rec.network.sample_count = 360;
  rec.presence_pct = 90.0;
  rec.cam_on_pct = 50.0;
  rec.mic_on_pct = 30.0;
  call.participants.push_back(rec);
  return call;
}

Query window_query() {
  Query q;
  q.first = Date(2022, 1, 1);
  q.last = Date(2022, 12, 31);
  q.metric_lo = 0.0;
  q.metric_hi = 300.0;
  q.bins = 4;
  return q;
}

TEST(FaultInjection, FlushFailureIsRetriedWithBackoffThenSucceeds) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector::Config fcfg;
  fcfg.fail_first_flushes = 2;
  core::FaultInjector faults{fcfg};
  StreamIngestorConfig cfg;
  cfg.call_flush_watermark = 3;
  cfg.max_flush_attempts = 4;  // 2 injected failures fit inside one round
  cfg.retry_backoff = std::chrono::milliseconds{1};
  StreamIngestor ingestor{svc, cfg, &faults};
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ingestor.push(sample_call(i)), PushOutcome::kAccepted);
  }
  // The watermark flush failed twice, backed off twice, then delivered.
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.flush_failures, 2u);
  EXPECT_EQ(stats.health.flush_retries, 2u);
  EXPECT_EQ(stats.backoff_waits, 2u);
  EXPECT_EQ(stats.health.flushes, 1u);
  EXPECT_EQ(stats.health.flushed, 3u);
  EXPECT_EQ(stats.health.staged, 0u);
  EXPECT_FALSE(stats.health.degraded);
  EXPECT_EQ(faults.flush_failures_injected(), 2u);
  EXPECT_EQ(svc.ingested_sessions(), 3u);
  // The failure counters surface in the service's scrape too.
  const std::string text = svc.metrics_text();
  EXPECT_NE(text.find("usaas_stream_flushes_total{result=\"failed\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("usaas_stream_flushes_total{result=\"retried\"} 2\n"),
            std::string::npos);
}

// Regression: the retry backoff used to double via a left shift of the
// raw tick count. Past 63 attempts the shift is UB outright, and even a
// clamped shift overflows std::int64 when retry_backoff is large — the
// overflowed (negative) backoff silently skipped both the sleep and the
// usaas_stream_backoff_seconds sample while still counting backoff_waits.
// Drive a flush round through the ≥ 63-attempt boundary with a huge retry
// floor: every one of the 63 waits must be observed, positive, and capped
// at max_backoff.
TEST(FaultInjection, BackoffStaysCappedAndObservedPastSixtyThreeAttempts) {
  core::telemetry::Registry reg{true};
  QueryServiceConfig scfg;
  scfg.threads = 1;
  scfg.telemetry = &reg;
  QueryService svc{scfg};
  core::FaultInjector::Config fcfg;
  fcfg.fail_first_flushes = 63;  // heals on attempt 64
  core::FaultInjector faults{fcfg};
  StreamIngestorConfig cfg;
  cfg.call_flush_watermark = 1;
  cfg.max_flush_attempts = 64;
  cfg.retry_backoff = std::chrono::milliseconds{std::int64_t{1} << 45};
  cfg.max_backoff = std::chrono::milliseconds{1};
  StreamIngestor ingestor{svc, cfg, &faults};
  EXPECT_EQ(ingestor.push(sample_call(1)), PushOutcome::kAccepted);

  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.flush_failures, 63u);
  EXPECT_EQ(stats.backoff_waits, 63u);
  EXPECT_EQ(stats.health.flushes, 1u);
  EXPECT_EQ(svc.ingested_sessions(), 1u);
  const core::telemetry::HistogramSnapshot waits =
      reg.histogram("usaas_stream_backoff_seconds").snapshot();
  EXPECT_EQ(waits.count, 63u);  // no wait went missing
  EXPECT_GT(waits.max, 0.0);
  EXPECT_LE(waits.max, 0.001 + 1e-9);  // capped at max_backoff
}

TEST(FaultInjection, ExhaustedRetriesDegradeButQueriesServeLastSnapshot) {
  QueryService svc{{.threads = 1}};
  // First flush round succeeds (no faults yet armed via first-N), later
  // flushes always fail: the service must keep answering queries from the
  // last good snapshot while the stream reports degradation.
  core::FaultInjector::Config fcfg;
  fcfg.fail_first_flushes = 1u << 20;
  core::FaultInjector healthy_then_stuck{fcfg};
  StreamIngestorConfig cfg;
  cfg.call_flush_watermark = 4;
  cfg.max_flush_attempts = 2;
  cfg.retry_backoff = std::chrono::milliseconds{0};
  cfg.backpressure = BackpressurePolicy::kReject;

  // Phase 1: no injector — a healthy flush establishes the snapshot.
  StreamIngestor ingestor{svc, cfg, nullptr};
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(ingestor.push(sample_call(i)), PushOutcome::kAccepted);
  }
  const Insight good = svc.run(window_query());
  ASSERT_EQ(good.sessions, 4u);
  const std::uint64_t good_version = good.corpus_version;

  // Phase 2: the store "goes down" — every flush fails. Pushes stage,
  // the watermark flush exhausts its retries, the stream degrades.
  StreamIngestor stuck{svc, cfg, &healthy_then_stuck};
  for (std::uint64_t i = 4; i < 8; ++i) {
    ASSERT_EQ(stuck.push(sample_call(i)), PushOutcome::kAccepted);
  }
  EXPECT_FALSE(stuck.flush());
  const StreamHealth health = stuck.stats().health;
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.staged, 4u);
  EXPECT_GT(health.flush_failures, 0u);
  // Both ingestors feed one scrape: their families merge, so the gauges
  // read the service-wide staleness and the count of degraded streams.
  const std::string text = svc.metrics_text();
  EXPECT_NE(text.find("\nusaas_stream_staged_records 4\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nusaas_stream_degraded 1\n"), std::string::npos);

  // Queries still answer — from the last good snapshot, same version.
  const Insight during_outage = svc.run(window_query());
  EXPECT_EQ(during_outage.sessions, 4u);
  EXPECT_EQ(during_outage.corpus_version, good_version);

  // Phase 3: recovery. A fault-free flush drains the staged records and
  // the snapshot advances.
  StreamIngestor recovered{svc, cfg, nullptr};
  for (std::uint64_t i = 4; i < 8; ++i) {
    ASSERT_EQ(recovered.push(sample_call(i)), PushOutcome::kAccepted);
  }
  ASSERT_TRUE(recovered.flush());
  const Insight after = svc.run(window_query());
  EXPECT_EQ(after.sessions, 8u);
  EXPECT_GT(after.corpus_version, good_version);
}

TEST(FaultInjection, CorruptRecordsAreQuarantinedNotIngested) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector::Config fcfg;
  fcfg.corrupt_record_p = 1.0;  // every record is mangled in flight
  core::FaultInjector faults{fcfg};
  StreamIngestor ingestor{svc, StreamIngestorConfig{}, &faults};
  constexpr std::uint64_t kRecords = 12;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(ingestor.push(sample_call(i)), PushOutcome::kQuarantined);
  }
  social::Post post;
  post.id = 1;
  post.date = Date(2022, 5, 1);
  post.title = "fine";
  post.body = "perfectly ordinary feedback";
  EXPECT_EQ(ingestor.push(post), PushOutcome::kQuarantined);
  ingestor.flush();

  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.quarantined, kRecords + 1);
  EXPECT_EQ(stats.health.accepted, 0u);
  EXPECT_EQ(faults.corruptions_injected(), kRecords + 1);
  // The corruption cycler hits more than one poison shape.
  std::size_t reasons_seen = 0;
  for (const auto count : stats.quarantined_by_reason) {
    if (count > 0) ++reasons_seen;
  }
  EXPECT_GE(reasons_seen, 2u);
  // Nothing corrupt reached the shard stores.
  EXPECT_EQ(svc.ingested_sessions(), 0u);
  EXPECT_EQ(svc.ingested_posts(), 0u);
}

TEST(FaultInjection, PartialCorruptionStillDeliversTheCleanRecords) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector::Config fcfg;
  fcfg.seed = 17;
  fcfg.corrupt_record_p = 0.3;
  core::FaultInjector faults{fcfg};
  StreamIngestor ingestor{svc, StreamIngestorConfig{}, &faults};
  constexpr std::uint64_t kRecords = 100;
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    if (ingestor.push(sample_call(i)) == PushOutcome::kAccepted) ++accepted;
  }
  ASSERT_TRUE(ingestor.flush());
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(accepted + stats.health.quarantined, kRecords);
  EXPECT_EQ(stats.health.quarantined, faults.corruptions_injected());
  EXPECT_GT(stats.health.quarantined, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(svc.ingested_sessions(), accepted);
}

TEST(FaultInjection, SlowFlushesDelayButDoNotFail) {
  QueryService svc{{.threads = 1}};
  core::FaultInjector::Config fcfg;
  fcfg.slow_flush_p = 1.0;
  fcfg.slow_flush_delay = std::chrono::milliseconds{2};
  core::FaultInjector faults{fcfg};
  StreamIngestorConfig cfg;
  cfg.call_flush_watermark = 2;
  StreamIngestor ingestor{svc, cfg, &faults};
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ingestor.push(sample_call(i)), PushOutcome::kAccepted);
  }
  const StreamIngestor::Stats stats = ingestor.stats();
  EXPECT_EQ(stats.health.flushes, 3u);
  EXPECT_EQ(stats.health.flush_failures, 0u);
  EXPECT_EQ(stats.health.flushed, 6u);
  EXPECT_FALSE(stats.health.degraded);
  EXPECT_EQ(faults.slow_flushes_injected(), 3u);
  EXPECT_EQ(svc.ingested_sessions(), 6u);
}

}  // namespace
}  // namespace usaas::service
