// Telemetry-layer tests: histogram bucket-boundary exactness, sharded
// counter/histogram merges under concurrent writers (the TSan workload
// for the registry), Prometheus/JSON exposition goldens, the bit-for-bit
// stats()-vs-exposition agreement the operator endpoint promises,
// slow-query-log worst-N semantics, per-query execution reports, and the
// USAAS_TELEMETRY kill switch (zero registration, not hidden values).
//
// Registered under the `sanitize` ctest label with USAAS_PARALLEL_FORCE=1
// so the concurrent-writer tests race-check the sharded cells under
// -DUSAAS_SANITIZE=thread.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/telemetry/exposition.h"
#include "core/telemetry/metrics.h"
#include "core/telemetry/slow_query_log.h"
#include "core/telemetry/trace.h"
#include "usaas/query_service.h"

namespace usaas::core::telemetry {
namespace {

// ---- Histogram bucket boundaries -----------------------------------------

TEST(HistogramBuckets, PowerOfTwoEdgesAreExact) {
  // Bucket i >= 1 holds [2^(kHistogramMinExp+i), 2^(kHistogramMinExp+i+1)):
  // a value landing exactly on a lower edge belongs to that bucket, and
  // the largest double below the edge belongs to the previous one.
  for (int i = 1; i + 1 < static_cast<int>(kHistogramBuckets); ++i) {
    const double edge = std::ldexp(1.0, kHistogramMinExp + i);
    EXPECT_EQ(histogram_bucket(edge), static_cast<std::size_t>(i))
        << "edge 2^" << (kHistogramMinExp + i);
    const double below = std::nextafter(edge, 0.0);
    EXPECT_EQ(histogram_bucket(below), static_cast<std::size_t>(i - 1))
        << "just below 2^" << (kHistogramMinExp + i);
    const double above = std::nextafter(edge, 1e300);
    EXPECT_EQ(histogram_bucket(above), static_cast<std::size_t>(i))
        << "just above 2^" << (kHistogramMinExp + i);
  }
}

TEST(HistogramBuckets, DegenerateValuesLandInBucketZero) {
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(-1.0), 0u);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Subnormal tails below the first edge also collapse into bucket 0.
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, kHistogramMinExp - 5)), 0u);
}

TEST(HistogramBuckets, OverflowClampsToLastBucket) {
  EXPECT_EQ(histogram_bucket(1e300), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::infinity()),
            kHistogramBuckets - 1);
}

TEST(HistogramBuckets, UpperEdges) {
  EXPECT_DOUBLE_EQ(histogram_bucket_upper(0),
                   std::ldexp(1.0, kHistogramMinExp + 1));
  EXPECT_DOUBLE_EQ(histogram_bucket_upper(30), 2.0);  // 2^(-30+30+1)
  EXPECT_TRUE(std::isinf(histogram_bucket_upper(kHistogramBuckets - 1)));
}

TEST(HistogramSnapshotTest, CountSumMaxAndQuantileOrdering) {
  Registry reg{true};
  Histogram h = reg.histogram("latency_seconds");
  core::Rng rng{42};
  double max_seen = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(1e-6, 2.0);
    max_seen = std::max(max_seen, v);
    h.observe(v);
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.max, max_seen);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
  EXPECT_GT(snap.p50, 0.0);
  // Cumulative buckets end at +Inf with cumulative == count.
  ASSERT_FALSE(snap.buckets.empty());
  EXPECT_TRUE(std::isinf(snap.buckets.back().first));
  EXPECT_EQ(snap.buckets.back().second, snap.count);
}

TEST(HistogramSnapshotTest, SingleValueQuantilesClampToMax) {
  Registry reg{true};
  Histogram h = reg.histogram("one_seconds");
  h.observe(1.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
  // 1.0 lands in bucket [1, 2); interpolation is clamped to the exact max.
  EXPECT_DOUBLE_EQ(snap.p50, 1.0);
  EXPECT_DOUBLE_EQ(snap.p99, 1.0);
}

// ---- Sharded cells under concurrent writers ------------------------------

TEST(ShardedMerge, ConcurrentCounterIncrementsAreLossless) {
  Registry reg{true};
  Counter c = reg.counter("hits_total");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(ShardedMerge, ConcurrentHistogramObservesAreLossless) {
  Registry reg{true};
  Histogram h = reg.histogram("work_seconds");
  constexpr int kThreads = 8;
  constexpr int kObserves = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // Observing 1.0 keeps the double sum exact at any accumulation order,
    // so the merged sum is a hard equality even under real concurrency.
    threads.emplace_back([&h] {
      for (int i = 0; i < kObserves; ++i) h.observe(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kObserves);
  EXPECT_DOUBLE_EQ(snap.sum,
                   static_cast<double>(kThreads) * kObserves);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
}

TEST(RegistryTest, GetOrCreateSharesCellsByNameAndLabels) {
  Registry reg{true};
  Counter a = reg.counter("requests_total", "", {{"path", "cache"}});
  Counter b = reg.counter("requests_total", "", {{"path", "cache"}});
  Counter other = reg.counter("requests_total", "", {{"path", "scan"}});
  a.add(3);
  b.add(4);
  other.add(1);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(other.value(), 1u);
  // Two label sets of one name are one family with two samples.
  EXPECT_EQ(reg.metric_count(), 2u);
  const std::vector<MetricFamily> families = reg.collect();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].samples.size(), 2u);
}

// ---- Exposition ----------------------------------------------------------

TEST(Exposition, PrometheusGolden) {
  Registry reg{true};
  Counter c = reg.counter("requests_total", "Requests served");
  c.add(3);
  Histogram h = reg.histogram("latency_seconds", "Query latency");
  h.observe(1.0);
  // Gauges render from a component's stats(), not from registry cells.
  std::vector<MetricFamily> families = reg.collect();
  families.insert(families.begin() + 1,
                  {"staleness_records", "Staged records", MetricKind::kGauge,
                   {floating_sample("", 12.5)}});
  const std::string expected =
      "# HELP requests_total Requests served\n"
      "# TYPE requests_total counter\n"
      "requests_total 3\n"
      "# HELP staleness_records Staged records\n"
      "# TYPE staleness_records gauge\n"
      "staleness_records 12.5\n"
      "# HELP latency_seconds Query latency\n"
      "# TYPE latency_seconds histogram\n"
      "latency_seconds_bucket{le=\"2\"} 1\n"
      "latency_seconds_bucket{le=\"+Inf\"} 1\n"
      "latency_seconds_sum 1\n"
      "latency_seconds_count 1\n"
      "latency_seconds{quantile=\"0.5\"} 1\n"
      "latency_seconds{quantile=\"0.95\"} 1\n"
      "latency_seconds{quantile=\"0.99\"} 1\n"
      "latency_seconds_max 1\n";
  EXPECT_EQ(to_prometheus(families), expected);
}

TEST(Exposition, JsonGolden) {
  Registry reg{true};
  Counter c = reg.counter("requests_total", "Requests", {{"path", "scan"}});
  c.add(2);
  SlowQueryEntry slow;
  slow.fingerprint = 0xabcdef;
  slow.seconds = 0.25;
  slow.path = "scan";
  slow.shards_scanned = 4;
  slow.sessions = 100;
  slow.corpus_version = 7;
  slow.hits = 3;
  slow.last_seen_version = 9;
  slow.trace_id = 0x1234abcd5678ef90ull;
  const std::string expected =
      "{\n"
      "  \"counters\": {\"requests_total{path=\\\"scan\\\"}\": 2},\n"
      "  \"gauges\": {},\n"
      "  \"histograms\": {},\n"
      "  \"slow_queries\": [{\"fingerprint\": \"0000000000abcdef\", "
      "\"seconds\": 0.25, \"path\": \"scan\", \"shards_from_summary\": 0, "
      "\"shards_scanned\": 4, \"sessions\": 100, \"corpus_version\": 7, "
      "\"hits\": 3, \"last_seen_version\": 9, "
      "\"trace_id\": \"1234abcd5678ef90\"}]\n"
      "}\n";
  EXPECT_EQ(to_json(reg.collect(), {slow}), expected);
}

TEST(Exposition, FormatDoubleRoundTrips) {
  for (const double v : {0.1, 1.0 / 3.0, 12345.6789, 2.5e-7, 1e300}) {
    EXPECT_EQ(std::stod(format_double(v)), v) << format_double(v);
  }
  EXPECT_EQ(format_double(42.0), "42");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "+Inf");
}

// ---- Slow-query log ------------------------------------------------------

// Regression: the same-fingerprint path only adopted the entry's fields
// (corpus_version included) when the new run was SLOWER. A hot dashboard
// whose worst run happened at version 3 therefore looked like it had not
// run since version 3, no matter how often it ran afterwards. Freshness
// now lives in last_seen_version, stamped unconditionally — while the
// worst-run fields and the slowest-first golden order stay untouched.
TEST(SlowQueryLogTest, LastSeenVersionAdvancesOnFasterRerunsGoldenOrder) {
  SlowQueryLog log{4};
  log.record({1, 0.50, "scan", 0, 1, 10, 3, 1});
  log.record({2, 0.20, "scan", 0, 1, 10, 3, 1});
  // Fingerprint 1 re-runs FASTER against a newer corpus.
  log.record({1, 0.05, "cache", 0, 0, 10, 7, 1});
  const auto worst = log.worst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].fingerprint, 1u);  // golden order: slowest first
  EXPECT_DOUBLE_EQ(worst[0].seconds, 0.50);  // worst run kept
  EXPECT_EQ(worst[0].path, "scan");
  EXPECT_EQ(worst[0].corpus_version, 3u);    // ...with its version
  EXPECT_EQ(worst[0].last_seen_version, 7u);  // freshness advanced
  EXPECT_EQ(worst[0].hits, 2u);
  EXPECT_EQ(worst[1].fingerprint, 2u);
  EXPECT_EQ(worst[1].last_seen_version, 3u);

  // A slower re-run adopts the timing fields AND the freshness stamp.
  log.record({2, 0.80, "scan", 0, 2, 12, 9, 1});
  const auto slower = log.find(2);
  ASSERT_TRUE(slower.has_value());
  EXPECT_DOUBLE_EQ(slower->seconds, 0.80);
  EXPECT_EQ(slower->corpus_version, 9u);
  EXPECT_EQ(slower->last_seen_version, 9u);
  // find() misses cleanly on unknown fingerprints.
  EXPECT_FALSE(log.find(42).has_value());
}

TEST(SlowQueryLogTest, KeepsWorstAndEvictsFastestResident) {
  SlowQueryLog log{2};
  log.record({1, 0.10, "scan", 0, 1, 10, 1, 1});
  log.record({2, 0.30, "scan", 0, 1, 10, 1, 1});
  // Newcomer slower than the fastest resident: fingerprint 1 (0.10s) is
  // evicted.
  log.record({3, 0.20, "scan", 0, 1, 10, 1, 1});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.evictions(), 1u);
  const std::vector<SlowQueryEntry> worst = log.worst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].fingerprint, 2u);  // slowest first
  EXPECT_EQ(worst[1].fingerprint, 3u);
  // Newcomer faster than every resident: dropped, no eviction.
  log.record({4, 0.05, "scan", 0, 1, 10, 1, 1});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.evictions(), 1u);
}

TEST(SlowQueryLogTest, DedupesByFingerprintAndTracksHits) {
  SlowQueryLog log{4};
  log.record({9, 0.10, "scan", 0, 2, 10, 1, 1});
  // Faster rerun: hits bump, timing fields stay at the worst run.
  log.record({9, 0.05, "cache", 0, 0, 10, 2, 1});
  // Slower rerun: adopted as the new worst.
  log.record({9, 0.40, "summary-merge", 3, 0, 10, 3, 1});
  EXPECT_EQ(log.size(), 1u);
  const SlowQueryEntry entry = log.worst().front();
  EXPECT_EQ(entry.hits, 3u);
  EXPECT_DOUBLE_EQ(entry.seconds, 0.40);
  EXPECT_EQ(entry.path, "summary-merge");
  EXPECT_EQ(entry.shards_from_summary, 3u);
}

TEST(SlowQueryLogTest, ZeroCapacityDisables) {
  SlowQueryLog log{0};
  log.record({1, 1.0, "scan", 0, 1, 10, 1, 1});
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.worst().empty());
}

// ---- Kill switch ---------------------------------------------------------

TEST(KillSwitch, EnabledValueParsing) {
  EXPECT_TRUE(telemetry_enabled_value(nullptr));
  EXPECT_TRUE(telemetry_enabled_value("on"));
  EXPECT_TRUE(telemetry_enabled_value("1"));
  EXPECT_TRUE(telemetry_enabled_value(""));
  EXPECT_FALSE(telemetry_enabled_value("off"));
  EXPECT_FALSE(telemetry_enabled_value("OFF"));
  EXPECT_FALSE(telemetry_enabled_value("0"));
  EXPECT_FALSE(telemetry_enabled_value("false"));
  EXPECT_FALSE(telemetry_enabled_value("No"));
}

TEST(KillSwitch, DisabledRegistryRegistersNothing) {
  Registry reg{false};
  Counter c = reg.counter("requests_total");
  Histogram h = reg.histogram("latency_seconds");
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(h));
  // No-op, not hidden: nothing was registered at all.
  c.add(5);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(reg.metric_count(), 0u);
  EXPECT_TRUE(reg.collect().empty());
}

TEST(KillSwitch, EnvironmentVariableDisablesAFreshRegistry) {
  ::setenv("USAAS_TELEMETRY", "off", 1);
  const Registry off;
  EXPECT_FALSE(off.enabled());
  ::setenv("USAAS_TELEMETRY", "on", 1);
  const Registry on;
  EXPECT_TRUE(on.enabled());
  ::unsetenv("USAAS_TELEMETRY");
  const Registry unset;
  EXPECT_TRUE(unset.enabled());
}

// ---- TraceSpan -----------------------------------------------------------

TEST(TraceSpanTest, LapsAndFinishObserveOnce) {
  Registry reg{true};
  Histogram total = reg.histogram("span_seconds");
  Histogram phase_a = reg.histogram("phase_seconds", "", {{"phase", "a"}});
  Histogram phase_b = reg.histogram("phase_seconds", "", {{"phase", "b"}});
  {
    TraceSpan span{total};
    span.lap(phase_a);
    span.lap(phase_b);
    EXPECT_GE(span.finish(), 0.0);
    // Idempotent: the destructor must not observe a second total.
  }
  EXPECT_EQ(total.snapshot().count, 1u);
  EXPECT_EQ(phase_a.snapshot().count, 1u);
  EXPECT_EQ(phase_b.snapshot().count, 1u);
}

TEST(TraceSpanTest, DeadSpanIsFree) {
  TraceSpan span{Histogram{}};
  span.lap(Histogram{});
  EXPECT_DOUBLE_EQ(span.finish(), 0.0);
}

}  // namespace
}  // namespace usaas::core::telemetry

// ---- Service-level wiring ------------------------------------------------

namespace usaas::service {
namespace {

using core::Date;
using core::telemetry::Registry;

std::vector<confsim::CallRecord> synth_calls(std::uint64_t seed,
                                             std::size_t n) {
  constexpr confsim::Platform kPlatforms[] = {
      confsim::Platform::kWindowsPc, confsim::Platform::kMacPc,
      confsim::Platform::kIos, confsim::Platform::kAndroid};
  core::Rng rng{seed};
  std::vector<confsim::CallRecord> calls;
  calls.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    confsim::CallRecord call;
    call.call_id = i;
    call.start.date = Date(2022, 1 + static_cast<int>(i % 3),
                           1 + static_cast<int>(rng.uniform_int(0, 27)));
    call.start.time = {10, 30};
    for (int p = 0; p < 3; ++p) {
      confsim::ParticipantRecord rec;
      rec.user_id = i * 8 + static_cast<std::uint64_t>(p);
      rec.platform = kPlatforms[rng.uniform_int(0, 3)];
      rec.meeting_size = 3;
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
      if (rng.bernoulli(0.2)) {
        rec.mos = core::clamp_mos(core::Mos{4.5 - latency / 120.0});
      }
      call.participants.push_back(rec);
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

std::vector<social::Post> synth_posts(std::uint64_t seed, std::size_t n) {
  static const char* kBodies[] = {
      "service went down tonight, complete outage, everything offline",
      "the connection has been great lately, fast and reliable",
      "pretty average week, speeds are okay, nothing special",
  };
  core::Rng rng{seed};
  std::vector<social::Post> posts;
  posts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    social::Post post;
    post.id = i;
    post.date = Date(2022, 1 + static_cast<int>(i % 3),
                     1 + static_cast<int>(rng.uniform_int(0, 27)));
    post.author_id = rng.uniform_int(1, 500);
    post.title = "experience report";
    post.body = kBodies[rng.uniform_int(0, 2)];
    posts.push_back(std::move(post));
  }
  return posts;
}

/// Whole-month window matching a default summary axis exactly: the
/// summary-merge fast path answers every shard.
Query summary_query() {
  Query q;
  q.first = Date(2022, 1, 1);
  q.last = Date(2022, 3, 31);
  q.metric = netsim::Metric::kLatency;
  q.metric_lo = 0.0;
  q.metric_hi = 300.0;
  q.bins = 10;
  return q;
}

QueryService make_service(Registry* reg, bool summaries = true) {
  QueryServiceConfig config;
  config.threads = 4;
  config.shard_summaries = summaries;
  config.telemetry = reg;
  QueryService service{config};
  service.ingest_calls(synth_calls(7, 400));
  service.ingest_posts(synth_posts(8, 300));
  return service;
}

TEST(QueryExecutionReport, SummaryMergeThenCacheHit) {
  Registry reg{true};
  const QueryService service = make_service(&reg);
  const Query q = summary_query();
  const std::uint64_t fp = query_fingerprint(q);

  const Insight cold = service.run(q);
  EXPECT_EQ(cold.execution.served_by, ServedBy::kSummaryMerge);
  EXPECT_FALSE(cold.execution.cache_hit);
  EXPECT_GT(cold.execution.shards_from_summary, 0u);
  EXPECT_EQ(cold.execution.shards_scanned, 0u);
  EXPECT_GT(cold.execution.post_shards_from_summary, 0u);
  EXPECT_EQ(cold.execution.post_shards_scanned, 0u);
  EXPECT_GT(cold.execution.seconds, 0.0);

  const Insight warm = service.run(q);
  EXPECT_EQ(warm.execution.served_by, ServedBy::kCache);
  EXPECT_TRUE(warm.execution.cache_hit);
  EXPECT_EQ(warm.execution.shards_from_summary, 0u);
  EXPECT_EQ(warm.execution.shards_scanned, 0u);
  // The cached aggregates are byte-identical to the cold run's.
  EXPECT_EQ(warm.sessions, cold.sessions);
  EXPECT_EQ(warm.posts, cold.posts);

  // Both runs share the fingerprint; the slow log deduped them.
  const auto slow = service.slow_queries();
  ASSERT_FALSE(slow.empty());
  bool found = false;
  for (const auto& entry : slow) {
    if (entry.fingerprint != fp) continue;
    found = true;
    EXPECT_EQ(entry.hits, 2u);
  }
  EXPECT_TRUE(found);
}

TEST(QueryExecutionReport, BoundaryWindowIsMixedAndNoSummariesIsScan) {
  Registry reg{true};
  const QueryService with_summaries = make_service(&reg);
  // The post shards' touch counters, keyed by their exact label bytes.
  const auto post_touches = [&] {
    std::map<std::string, std::uint64_t> out;
    for (const core::telemetry::MetricFamily& family : reg.collect()) {
      if (family.name != "usaas_shard_touches_total") continue;
      for (const core::telemetry::Sample& sample : family.samples) {
        if (sample.labels.starts_with("corpus=\"posts\",")) {
          out[sample.labels] = sample.value_u;
        }
      }
    }
    return out;
  };
  const std::map<std::string, std::uint64_t> before = post_touches();
  Query cut = summary_query();
  // Cuts January: its session shards must scan, while its post month
  // answers from its per-day summary buckets.
  cut.first = Date(2022, 1, 15);
  const Insight mixed = with_summaries.run(cut);
  EXPECT_EQ(mixed.execution.served_by, ServedBy::kMixed);
  EXPECT_GT(mixed.execution.shards_scanned, 0u);
  EXPECT_GT(mixed.execution.shards_from_summary, 0u);

  // One run raises each month's summary counter — the cut month's too —
  // by exactly one, and nothing else.
  const std::map<std::string, std::uint64_t> after = post_touches();
  const auto label = [](const char* shard, const char* source) {
    return std::string{"corpus=\"posts\",shard=\""} + shard +
           "\",source=\"" + source + "\"";
  };
  const std::map<std::string, std::uint64_t> expected_delta = {
      {label("2022-01", "scan"), 0},    {label("2022-01", "summary"), 1},
      {label("2022-02", "scan"), 0},    {label("2022-02", "summary"), 1},
      {label("2022-03", "scan"), 0},    {label("2022-03", "summary"), 1}};
  ASSERT_EQ(after.size(), expected_delta.size());
  std::uint64_t scan_total = 0;
  std::uint64_t summary_total = 0;
  for (const auto& [labels, want] : expected_delta) {
    ASSERT_TRUE(after.contains(labels)) << labels;
    const std::uint64_t delta =
        after.at(labels) - (before.contains(labels) ? before.at(labels) : 0);
    EXPECT_EQ(delta, want) << labels;
    const bool scan = labels.ends_with("source=\"scan\"");
    (scan ? scan_total : summary_total) += after.at(labels);
  }
  EXPECT_EQ(scan_total, mixed.execution.post_shards_scanned);
  EXPECT_EQ(summary_total, mixed.execution.post_shards_from_summary);

  Registry reg2{true};
  const QueryService no_summaries = make_service(&reg2, false);
  const Insight scanned = no_summaries.run(summary_query());
  EXPECT_EQ(scanned.execution.served_by, ServedBy::kScan);
  EXPECT_EQ(scanned.execution.shards_from_summary, 0u);
  EXPECT_GT(scanned.execution.shards_scanned, 0u);
}

TEST(QueryExecutionReport, InvalidQueryIsReported) {
  Registry reg{true};
  const QueryService service = make_service(&reg);
  Query bad = summary_query();
  bad.bins = 0;
  const Insight insight = service.run(bad);
  EXPECT_EQ(insight.error, QueryError::kZeroBins);
  EXPECT_EQ(insight.execution.served_by, ServedBy::kInvalid);
}

TEST(ServiceTelemetry, QueryHistogramsAndPathCountersPopulate) {
  Registry reg{true};
  const QueryService service = make_service(&reg);
  (void)service.run(summary_query());
  (void)service.run(summary_query());  // cache hit
  Query bad = summary_query();
  bad.metric_lo = 5.0;
  bad.metric_hi = 5.0;
  (void)service.run(bad);  // invalid

  EXPECT_EQ(reg.histogram("usaas_query_seconds").snapshot().count, 3u);
  const auto phase_count = [&](const char* phase) {
    return reg
        .histogram("usaas_query_phase_seconds", "", {{"phase", phase}})
        .snapshot()
        .count;
  };
  EXPECT_EQ(phase_count("validate"), 3u);
  EXPECT_EQ(phase_count("cache-probe"), 2u);  // invalid query exits first
  EXPECT_EQ(phase_count("implicit"), 1u);     // only the cold compute
  EXPECT_EQ(phase_count("social"), 1u);
  const auto path_count = [&](const char* path) {
    return reg.counter("usaas_queries_total", "", {{"path", path}}).value();
  };
  EXPECT_EQ(path_count("summary-merge"), 1u);
  EXPECT_EQ(path_count("cache"), 1u);
  EXPECT_EQ(path_count("invalid"), 1u);
  EXPECT_EQ(path_count("scan"), 0u);
  // Batch-ingest phase histograms saw both corpora.
  const auto ingest_count = [&](const char* corpus) {
    return reg
        .histogram("usaas_ingest_batch_seconds", "",
                   {{"corpus", corpus}, {"phase", "total"}})
        .snapshot()
        .count;
  };
  EXPECT_EQ(ingest_count("sessions"), 1u);
  EXPECT_EQ(ingest_count("posts"), 1u);
}

TEST(ServiceTelemetry, ExpositionAgreesBitForBitWithStats) {
  Registry reg{true};
  const QueryService service = make_service(&reg);
  (void)service.run(summary_query());
  (void)service.run(summary_query());

  const QueryService::ServiceStats stats = service.stats();
  const std::string text = service.metrics_text();
  const std::string json = service.metrics_json();
  // Every (sample line, exact integer) pair must appear verbatim in the
  // text exposition, and the same key/value in the JSON snapshot — both
  // are rendered from one stats() snapshot, so equality is exact, not
  // approximate.
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"usaas_ingest_records_total{corpus=\"sessions\"}",
       stats.sessions.records},
      {"usaas_ingest_records_total{corpus=\"posts\"}", stats.posts.records},
      {"usaas_ingest_batches_total{corpus=\"sessions\"}",
       stats.sessions.batches},
      {"usaas_insight_cache_lookups_total{outcome=\"hit\"}",
       stats.insight_cache.hits},
      {"usaas_insight_cache_lookups_total{outcome=\"miss\"}",
       stats.insight_cache.misses},
      {"usaas_query_fanout_shards_total{source=\"summary\"}",
       stats.fanout.shards_from_summary},
      {"usaas_query_fanout_shards_total{source=\"scan\"}",
       stats.fanout.shards_scanned},
      {"usaas_corpus_version", stats.corpus_version},
  };
  for (const auto& [key, value] : expected) {
    const std::string line = key + " " + std::to_string(value) + "\n";
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line;
    std::string json_key = "\"";
    for (const char c : key) {
      if (c == '"') json_key += "\\\"";
      else json_key.push_back(c);
    }
    json_key += "\": " + std::to_string(value);
    EXPECT_NE(json.find(json_key), std::string::npos)
        << "missing in JSON: " << json_key;
  }
  // The slow-query log surfaced the query in both formats.
  EXPECT_NE(text.find("usaas_slow_query_seconds"), std::string::npos);
  EXPECT_NE(json.find("\"slow_queries\": [{"), std::string::npos);
  EXPECT_GT(service.slow_queries().size(), 0u);
}

TEST(ServiceTelemetry, MosMemoCountersReachTheExposition) {
  // Each corpus version computes the three corpus-wide MOS correlations
  // once (misses); every later uncached query reuses them (hits). Cache
  // hits never reach the engine and count neither.
  Registry reg{true};
  QueryServiceConfig config;
  config.threads = 2;
  config.telemetry = &reg;
  QueryService service{config};
  service.ingest_calls(synth_calls(7, 400));
  Query other = summary_query();
  other.bins = 6;
  (void)service.run(summary_query());  // 3 misses
  (void)service.run(other);            // 3 hits
  (void)service.run(other);            // insight-cache hit: no lookups
  service.ingest_calls(synth_calls(9, 40));
  (void)service.run(other);            // 3 misses at the new version
  const auto memo = [&](const char* result) {
    return reg
        .counter("usaas_mos_correlation_memo_total", "", {{"result", result}})
        .value();
  };
  EXPECT_EQ(memo("miss"), 6u);
  EXPECT_EQ(memo("hit"), 3u);
  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("usaas_mos_correlation_memo_total{result=\"miss\"} 6\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("usaas_mos_correlation_memo_total{result=\"hit\"} 3\n"),
            std::string::npos);
  EXPECT_NE(service.metrics_json().find(
                "\"usaas_mos_correlation_memo_total{result=\\\"hit\\\"}\": 3"),
            std::string::npos);
}

TEST(ServiceTelemetry, DisabledRegistryZeroRegistration) {
  Registry reg{false};
  const QueryService service = make_service(&reg);
  const Insight insight = service.run(summary_query());
  // Execution classification still works (it's structural, not timed)...
  EXPECT_EQ(insight.execution.served_by, ServedBy::kSummaryMerge);
  // ...but the kill switch removed every clock read and registration.
  EXPECT_DOUBLE_EQ(insight.execution.seconds, 0.0);
  EXPECT_EQ(reg.metric_count(), 0u);
  EXPECT_TRUE(service.slow_queries().empty());
  // The stats-derived exposition still renders (from stats(), which is
  // always maintained); only registry-native metrics are absent.
  const std::string text = service.metrics_text();
  EXPECT_EQ(text.find("usaas_query_seconds"), std::string::npos);
  EXPECT_EQ(text.find("usaas_mos_correlation_memo_total"), std::string::npos);
  EXPECT_NE(text.find("usaas_ingest_records_total"), std::string::npos);
}

}  // namespace
}  // namespace usaas::service
