// Admission-control tests: the token bucket as a pure function of its
// (now, consume) sequence, the cost estimator's ordering (cache hit <
// summary merge < cold scan, with slow-log history taking over once a
// fingerprint has run), deadline-aware admission under a virtual clock,
// and the degrade-before-shed contract — a saturated tenant gets a
// bounded-staleness cached Insight, never an error, whenever one exists.
//
// Registered under the `sanitize` ctest label with USAAS_PARALLEL_FORCE=1:
// MixedTenantStressReconcilesExactly hammers submit() from multiple
// tenants while a producer bumps the corpus version, and is the TSan
// workload for the scheduler mutex + bucket state + outcome counters; its
// second case drives a real-clock open loop and checks the ledger in
// stats() and in the JSON scrape, that stale answers are served and stay
// within the staleness bound, and the degrade-before-shed tripwire.
//
// The scheduler's ledger is its stats(); /metrics renders the
// usaas_admission_* families from it, so the tests hold the scrape to
// stats() (expect_scrape_matches_ledger).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "confsim/call.h"
#include "core/date.h"
#include "core/scheduler_clock.h"
#include "core/token_bucket.h"
#include "usaas/query_scheduler.h"
#include "usaas/query_service.h"

namespace usaas::service {
namespace {

using core::Date;

// ---- Corpus helpers ----------------------------------------------------

confsim::CallRecord sample_call(std::uint64_t id, const Date& day) {
  confsim::CallRecord call;
  call.call_id = id;
  call.start.date = day;
  call.start.time = {9, 0};
  confsim::ParticipantRecord rec;
  rec.user_id = id * 10;
  rec.platform = confsim::Platform::kWindowsPc;
  rec.meeting_size = 2;
  rec.access = netsim::AccessTechnology::kFiber;
  const auto agg = [](double v) { return netsim::MetricAggregate{v, v, v}; };
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

std::vector<confsim::CallRecord> quarter_calls(std::uint64_t base_id) {
  std::vector<confsim::CallRecord> calls;
  std::uint64_t id = base_id;
  for (int month = 1; month <= 3; ++month) {
    for (int day : {1, 10, 20, 28}) {
      calls.push_back(sample_call(id++, Date(2022, month, day)));
    }
  }
  return calls;
}

Query whole_months_query() {
  Query q;
  q.first = Date(2022, 1, 1);
  q.last = Date(2022, 3, 31);  // month-aligned: summary-answerable
  q.bins = 4;
  return q;
}

Query cut_months_query() {
  Query q;
  q.first = Date(2022, 1, 15);  // both boundary months are cut: rescans
  q.last = Date(2022, 3, 20);
  q.bins = 4;
  return q;
}

struct Fixture {
  core::telemetry::Registry reg{true};
  QueryService svc;
  explicit Fixture() : svc{make_config(&reg)} {
    const auto calls = quarter_calls(0);
    svc.ingest_calls(calls);
  }
  static QueryServiceConfig make_config(core::telemetry::Registry* reg) {
    QueryServiceConfig cfg;
    cfg.threads = 1;
    cfg.telemetry = reg;
    return cfg;
  }
};

/// The value /metrics shows for `key` (`name` or `name{labels}`); NaN
/// when the scrape lacks the line.
double scraped(const std::string& text, const std::string& key) {
  const std::string line = "\n" + key + " ";
  const std::size_t at = ("\n" + text).find(line);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::stod(text.substr(at + line.size() - 1));
}

/// Every usaas_admission_* counter and per-tenant gauge on /metrics equals
/// the scheduler's ledger. Tenants whose names sanitize alike share one
/// series, which shows the highest of their gauge values.
void expect_scrape_matches_ledger(const QueryService& svc,
                                  const SchedulerStats& stats) {
  const std::string text = svc.metrics_text();
  const auto expect = [&](const std::string& key, double value) {
    EXPECT_EQ(scraped(text, key), value) << key;
  };
  expect("usaas_admission_submitted_total",
         static_cast<double>(stats.submitted));
  const std::pair<const char*, std::uint64_t> outcomes[] = {
      {"admitted", stats.admitted},
      {"degraded", stats.degraded},
      {"shed", stats.shed},
      {"expired", stats.expired}};
  for (const auto& [outcome, count] : outcomes) {
    expect(std::string{"usaas_admission_queries_total{outcome=\""} + outcome +
               "\"}",
           static_cast<double>(count));
  }
  expect("usaas_admission_shed_with_degradable_total",
         static_cast<double>(stats.shed_with_degradable));
  expect("usaas_admission_breaker_short_circuits_total",
         static_cast<double>(stats.breaker_short_circuits));
  expect("usaas_admission_degrade_feedback_total",
         static_cast<double>(stats.degrade_feedback_bumps));
  std::map<std::string, std::array<double, 3>> by_label;
  for (const auto& [tenant, snap] : stats.tenants) {
    const std::array<double, 3> gauges{static_cast<double>(snap.queue_depth),
                                       static_cast<double>(snap.breaker),
                                       snap.cost_bias};
    const std::string label = core::telemetry::sanitize_label_value(tenant);
    const auto [it, fresh] = by_label.try_emplace(label, gauges);
    for (std::size_t i = 0; i < gauges.size() && !fresh; ++i) {
      it->second[i] = std::max(it->second[i], gauges[i]);
    }
  }
  for (const auto& [label, gauges] : by_label) {
    const std::string labels = "{tenant=\"" + label + "\"}";
    expect("usaas_admission_queue_depth" + labels, gauges[0]);
    expect("usaas_admission_breaker_state" + labels, gauges[1]);
    expect("usaas_admission_cost_bias" + labels, gauges[2]);
  }
}

// ---- TokenBucket: pure-function determinism ----------------------------

TEST(TokenBucket, RefillIsAPureFunctionOfTheClockSequence) {
  const auto run = [](std::vector<double>& trace) {
    core::TokenBucket bucket{10.0, 5.0, 0.0};
    trace.push_back(bucket.tokens());  // starts full
    ASSERT_TRUE(bucket.try_consume(5.0));
    trace.push_back(bucket.tokens());
    trace.push_back(bucket.seconds_until(1.0));
    bucket.refill(0.1);
    trace.push_back(bucket.tokens());
    ASSERT_TRUE(bucket.try_consume(1.0));
    bucket.refill(10.0);  // far past: clamps at burst
    trace.push_back(bucket.tokens());
    bucket.refill(3.0);  // older timestamp: ignored, never negative time
    trace.push_back(bucket.tokens());
  };
  std::vector<double> a, b;
  run(a);
  run(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "step " << i;  // bit-identical replay
  }
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  EXPECT_DOUBLE_EQ(a[1], 0.0);
  EXPECT_DOUBLE_EQ(a[2], 0.1);  // (1 - 0) / 10
  EXPECT_DOUBLE_EQ(a[3], 1.0);  // 0.1 s * 10/s, exactly
  EXPECT_DOUBLE_EQ(a[4], 5.0);  // clamped at burst
  EXPECT_DOUBLE_EQ(a[5], 5.0);  // monotone guard held
}

TEST(TokenBucket, UnpayableCostsReportInfiniteWait) {
  core::TokenBucket bucket{2.0, 4.0, 0.0};
  EXPECT_EQ(bucket.seconds_until(5.0),
            std::numeric_limits<double>::infinity());  // beyond burst
  core::TokenBucket stalled{0.0, 4.0, 0.0};
  ASSERT_TRUE(stalled.try_consume(4.0));
  EXPECT_EQ(stalled.seconds_until(1.0),
            std::numeric_limits<double>::infinity());  // zero rate
}

// ---- Cost estimator ----------------------------------------------------

TEST(QueryScheduler, CostOrderingCacheThenSummaryThenScan) {
  Fixture fx;
  SchedulerConfig cfg;
  cfg.summary_month_cost = 0.5;  // lift the aligned window off the floor
  core::VirtualClock clock;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // Structural estimates, before anything has run: the month-aligned
  // window merges summaries, the cut window rescans its boundary months.
  const QueryCostEstimate aligned = fx.svc.estimate_query(whole_months_query());
  EXPECT_FALSE(aligned.cached);
  EXPECT_EQ(aligned.summary_months, 3u);
  EXPECT_EQ(aligned.scan_months, 0u);
  const QueryCostEstimate cut = fx.svc.estimate_query(cut_months_query());
  EXPECT_EQ(cut.scan_months, 2u);
  EXPECT_EQ(cut.summary_months, 1u);

  const double summary_cost = sched.estimate_cost(whole_months_query());
  const double scan_cost = sched.estimate_cost(cut_months_query());
  EXPECT_LT(summary_cost, scan_cost);  // cold scans queue behind merges

  // Estimating must not look like cache traffic.
  const auto before = fx.svc.stats().insight_cache;
  (void)fx.svc.estimate_query(whole_months_query());
  const auto after = fx.svc.stats().insight_cache;
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);

  // Once cached, the same expensive query costs the floor.
  (void)fx.svc.run(cut_months_query());
  const QueryCostEstimate warm = fx.svc.estimate_query(cut_months_query());
  EXPECT_TRUE(warm.cached);
  EXPECT_GE(warm.slow_log_seconds, 0.0);  // history seeded by the run
  EXPECT_DOUBLE_EQ(sched.estimate_cost(cut_months_query()),
                   cfg.min_cost_tokens);
  EXPECT_LT(sched.estimate_cost(cut_months_query()), summary_cost);

  // After a version bump the cache no longer shields it, but the slow-log
  // history (keyed on the version-independent fingerprint) still does.
  const auto more = quarter_calls(1000);
  fx.svc.ingest_calls(more);
  const QueryCostEstimate bumped = fx.svc.estimate_query(cut_months_query());
  EXPECT_FALSE(bumped.cached);
  EXPECT_GE(bumped.slow_log_seconds, 0.0);
}

// The window comes from the wire and nothing bounds its span short of
// the widest Date (~393 K months here), so the estimate, run on every
// submission under the corpus read lock, counts the interior months from
// one sample instead of walking them; both splits must still be exact.
TEST(QueryScheduler, EstimateSplitsTheWidestWindowExactly) {
  Query wide;
  wide.first = Date(1, 1, 15);       // cut: rescans
  wide.last = Date(32767, 12, 31);   // whole: summary-answerable
  wide.bins = 4;
  const std::uint64_t months = 32767ull * 12;

  Fixture fx;
  const QueryCostEstimate with = fx.svc.estimate_query(wide);
  EXPECT_EQ(with.scan_months, 1u);
  EXPECT_EQ(with.summary_months, months - 1);

  QueryServiceConfig cfg = Fixture::make_config(&fx.reg);
  cfg.shard_summaries = false;
  const QueryService plain{cfg};
  const QueryCostEstimate without = plain.estimate_query(wide);
  EXPECT_EQ(without.scan_months, months);
  EXPECT_EQ(without.summary_months, 0u);
}

// Pins the columnar recalibration of the structural cost model: the
// per-scan-month charge halved (8 -> 4 tokens) because a columnar rescan
// touches only the columns a query names, and the admission properties
// built on the old constant must survive the cheaper scans.
TEST(QueryScheduler, ColumnarScanCostKeepsAdmissionOrdering) {
  const SchedulerConfig defaults;
  EXPECT_DOUBLE_EQ(defaults.scan_month_cost, 4.0);
  EXPECT_LT(defaults.summary_month_cost, defaults.scan_month_cost);

  Fixture fx;
  SchedulerConfig cfg;
  core::VirtualClock clock;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // Ordering: cache-floor == month-aligned summary merge < boundary-cut
  // scan — cheap dashboard merges keep admitting ahead of cold scans.
  const double aligned = sched.estimate_cost(whole_months_query());
  const double cut = sched.estimate_cost(cut_months_query());
  EXPECT_DOUBLE_EQ(aligned, cfg.min_cost_tokens);
  EXPECT_DOUBLE_EQ(cut, cfg.summary_month_cost * 1.0 +
                            cfg.scan_month_cost * 2.0);  // 1 merge + 2 scans
  EXPECT_LT(aligned, cut);
  // Even a single boundary-cut month outweighs a whole quarter of
  // summary-answerable months.
  EXPECT_GT(cfg.scan_month_cost,
            cfg.summary_month_cost * 3.0 + cfg.summary_month_cost);

  // PR 7 degrade-before-shed tripwire: the saturation A/B runs batch
  // tenants with burst 4.0 — a two-boundary-cut rescan must stay
  // unpayable outright so the saturated tenant degrades to a bounded-
  // staleness cached answer (or sheds) instead of jumping the queue.
  EXPECT_GT(cut, 4.0);
}

// ---- Deadline-aware admission under a virtual clock --------------------

TEST(QueryScheduler, AdmissionWaitsAreDeterministicUnderVirtualClock) {
  const auto run = [](std::vector<double>& waits, double& end_time) {
    Fixture fx;
    core::VirtualClock clock;
    SchedulerConfig cfg;
    cfg.default_qos = {4.0, 1.0};  // 4 tokens/s, burst 1
    cfg.max_wait_seconds = 10.0;
    cfg.clock = &clock;
    QueryScheduler sched{fx.svc, cfg};
    for (int i = 0; i < 5; ++i) {
      const ScheduledResult r = sched.submit("dash", whole_months_query());
      ASSERT_EQ(r.outcome, AdmissionOutcome::kAdmitted);
      EXPECT_DOUBLE_EQ(r.cost_tokens, 1.0);
      waits.push_back(r.wait_seconds);
    }
    end_time = clock.now();
  };
  std::vector<double> waits_a, waits_b;
  double end_a = 0.0, end_b = 0.0;
  run(waits_a, end_a);
  run(waits_b, end_b);
  ASSERT_EQ(waits_a.size(), 5u);
  EXPECT_DOUBLE_EQ(waits_a[0], 0.0);  // fresh tenant: full burst
  for (std::size_t i = 1; i < waits_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(waits_a[i], 0.25) << "submission " << i;
  }
  EXPECT_DOUBLE_EQ(end_a, 1.0);  // 4 refill waits of exactly 0.25 s
  EXPECT_EQ(waits_a, waits_b);   // bit-identical replay
  EXPECT_EQ(end_a, end_b);
}

// ---- Degrade before shed ----------------------------------------------

TEST(QueryScheduler, DegradesToBoundedStalenessInsteadOfShedding) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  // Rate 0: whatever the burst bought is all this tenant ever gets, so
  // saturation is reached deterministically with no waiting.
  cfg.default_qos = {0.0, 1.0};
  cfg.max_versions_behind = 2;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // Warm: the only affordable submission computes and caches the answer.
  const ScheduledResult warm = sched.submit("analyst", whole_months_query());
  ASSERT_EQ(warm.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(warm.insight.staleness, 0u);
  const std::uint64_t warm_version = warm.insight.corpus_version;

  // The corpus moves on: the cached entry is now one version behind.
  const auto more = quarter_calls(500);
  fx.svc.ingest_calls(more);

  // Saturated + stale cache entry available → degraded, not shed, and the
  // answer is the warm insight stamped with exactly how stale it is.
  const ScheduledResult degraded =
      sched.submit("analyst", whole_months_query());
  ASSERT_EQ(degraded.outcome, AdmissionOutcome::kDegraded);
  EXPECT_EQ(degraded.insight.staleness, 1u);
  EXPECT_LE(degraded.insight.staleness, cfg.max_versions_behind);
  EXPECT_EQ(degraded.insight.corpus_version, warm_version);
  EXPECT_EQ(degraded.insight.sessions, warm.insight.sessions);
  EXPECT_EQ(degraded.insight.execution.served_by, ServedBy::kCache);

  // Saturated + nothing cached for this query → shed, and the tripwire
  // stays silent because nothing degradable was discarded.
  const ScheduledResult shed = sched.submit("analyst", cut_months_query());
  EXPECT_EQ(shed.outcome, AdmissionOutcome::kShed);

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_with_degradable, 0u);
  EXPECT_TRUE(stats.reconciles());

  // The exposition endpoint renders these same ledger counts.
  expect_scrape_matches_ledger(fx.svc, stats);
}

TEST(QueryScheduler, StalenessBoundIsRespectedAcrossManyBumps) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.0, 1.0};
  cfg.max_versions_behind = 2;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};
  ASSERT_EQ(sched.submit("t", whole_months_query()).outcome,
            AdmissionOutcome::kAdmitted);
  // Three bumps put the only cached entry beyond the staleness bound:
  // serving it would violate the stamp's contract, so the query sheds.
  for (int i = 0; i < 3; ++i) {
    const auto more = quarter_calls(2000 + 100 * static_cast<std::uint64_t>(i));
    fx.svc.ingest_calls(more);
  }
  const ScheduledResult r = sched.submit("t", whole_months_query());
  EXPECT_EQ(r.outcome, AdmissionOutcome::kShed);
  EXPECT_EQ(sched.stats().shed_with_degradable, 0u);
}

TEST(QueryScheduler, DisabledDegradeTripsTheShedWithDegradableTripwire) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.0, 1.0};
  cfg.max_versions_behind = 0;  // degrade disabled
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};
  ASSERT_EQ(sched.submit("t", whole_months_query()).outcome,
            AdmissionOutcome::kAdmitted);
  // Same query, same version, saturated: a perfectly fresh cached answer
  // exists, degrade is off, so the shed is recorded as a discarded
  // opportunity — the condition MixedTenantStressReconcilesExactly's
  // open-loop case requires to stay 0.
  const ScheduledResult r = sched.submit("t", whole_months_query());
  EXPECT_EQ(r.outcome, AdmissionOutcome::kShed);
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_with_degradable, 1u);
  EXPECT_TRUE(stats.reconciles());
}

// ---- Mixed-tenant concurrency (TSan workload) --------------------------

TEST(QueryScheduler, MixedTenantStressReconcilesExactly) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {200.0, 8.0};
  cfg.tenant_qos["dash-0"] = {400.0, 16.0};
  cfg.max_wait_seconds = 0.05;
  cfg.max_versions_behind = 3;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::uint64_t> answered(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::string tenant =
          (t % 2 == 0 ? "dash-" : "analyst-") + std::to_string(t % 2);
      for (int i = 0; i < kPerThread; ++i) {
        const Query q =
            (i % 3 == 0) ? cut_months_query() : whole_months_query();
        const ScheduledResult r = sched.submit(tenant, q);
        if (r.outcome != AdmissionOutcome::kShed) {
          ++answered[static_cast<std::size_t>(t)];
          // Degraded answers must honor the bound even mid-race.
          ASSERT_LE(r.insight.staleness, cfg.max_versions_behind);
        }
      }
    });
  }
  // A live producer keeps bumping the corpus version underneath.
  workers.emplace_back([&] {
    for (std::uint64_t i = 0; i < 10; ++i) {
      const std::vector<confsim::CallRecord> batch{
          sample_call(10000 + i, Date(2022, 2, 5))};
      fx.svc.ingest_calls(batch);
    }
  });
  for (std::thread& w : workers) w.join();

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_TRUE(stats.reconciles());
  expect_scrape_matches_ledger(fx.svc, stats);
  // All waiters drained: every per-tenant queue-depth gauge is back to 0.
  for (const auto& [tenant, snap] : stats.tenants) {
    EXPECT_EQ(snap.queue_depth, 0u) << tenant;
  }

  // The same contracts under the real clock, from an open loop: 400
  // arrivals/s for 2 s, each scheduled at i / rate (a submit that falls
  // behind fires the next arrivals at once). Dashboards repeat
  // month-aligned windows; analysts repeat eight boundary-cut windows,
  // warmed into the cache a corpus version ago, under a burst below the
  // cheapest query's cost, so no analytics query is ever admitted and
  // each degrades to the entry cached one version back (staleness 1); a
  // starved batch lane asks never-cached windows, so it sheds. No timing
  // is asserted, only the ledger, in stats() and in the JSON scrape.
  Fixture open;
  for (int month = 1; month <= 12; ++month) {
    std::vector<confsim::CallRecord> calls;
    for (int day : {3, 12, 21, 27}) {
      calls.push_back(
          sample_call(static_cast<std::uint64_t>(100 * month + day),
                      Date(2022, month, day)));
    }
    open.svc.ingest_calls(calls);
  }
  const Query year;  // the default window: all of 2022
  std::vector<Query> dashboards(4, year);
  for (int quarter = 0; quarter < 4; ++quarter) {
    dashboards[quarter].first = Date(2022, 3 * quarter + 1, 1);
    dashboards[quarter].last = Date(
        2022, 3 * quarter + 3, Date::days_in_month(2022, 3 * quarter + 3));
  }
  dashboards.push_back(year);
  std::vector<Query> analytics(8, year);
  for (int k = 0; k < 8; ++k) {
    analytics[k].first = Date(2022, 1, 10 + k);
    analytics[k].last = Date(2022, 10, 20 - k);
  }
  for (const Query& q : dashboards) (void)open.svc.run(q);
  for (const Query& q : analytics) (void)open.svc.run(q);
  const auto bump = quarter_calls(5000);
  open.svc.ingest_calls(bump);

  constexpr auto kInterval = std::chrono::microseconds{2500};  // 400/s
  constexpr std::uint64_t kArrivals = 801;  // scheduled at 0 .. 2 s
  SchedulerConfig ocfg;
  ocfg.max_wait_seconds = 0.01;
  ocfg.max_versions_behind = 2;
  ocfg.seconds_per_token = 1e-4;
  ocfg.tenant_qos["dashboard"] = {800.0, 100.0};
  ocfg.tenant_qos["analytics"] = {4.0, 0.5};  // burst < min_cost_tokens
  ocfg.tenant_qos["batch"] = {0.5, 4.0};
  QueryScheduler front{open.svc, ocfg};
  std::uint64_t max_staleness = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kArrivals; ++i) {
    std::this_thread::sleep_until(start + i * kInterval);
    const std::uint64_t lane = i % 10;
    ScheduledResult r;
    if (lane < 6) {
      r = front.submit("dashboard", dashboards[i % dashboards.size()], 0.25);
    } else if (lane < 9) {
      r = front.submit("analytics", analytics[i % analytics.size()], 0.5);
    } else {
      Query q = year;  // a fresh window every time: never cached
      q.first = Date(2022, 1, 2 + static_cast<int>(i % 25));
      q.last = Date(2022, 11, 2 + static_cast<int>((i / 25) % 25));
      q.bins = 7 + i % 5;
      r = front.submit("batch", q);
    }
    if (r.outcome == AdmissionOutcome::kDegraded) {
      max_staleness = std::max(max_staleness, r.insight.staleness);
    }
  }
  const SchedulerStats ostats = front.stats();
  EXPECT_EQ(ostats.submitted, kArrivals);
  EXPECT_TRUE(ostats.reconciles());
  EXPECT_GE(max_staleness, 1u);  // stale serves really happened
  EXPECT_LE(max_staleness, ocfg.max_versions_behind);
  EXPECT_EQ(ostats.shed_with_degradable, 0u);
  const std::string scraped = open.svc.metrics_json();
  const auto carries = [&](const std::string& key, std::uint64_t value) {
    return scraped.find("\"" + key + "\": " + std::to_string(value)) !=
           std::string::npos;
  };
  EXPECT_TRUE(carries("usaas_admission_submitted_total", ostats.submitted));
  const std::pair<const char*, std::uint64_t> outcomes[] = {
      {"admitted", ostats.admitted},
      {"degraded", ostats.degraded},
      {"shed", ostats.shed},
      {"expired", ostats.expired}};
  for (const auto& [outcome, count] : outcomes) {
    EXPECT_TRUE(carries(std::string{"usaas_admission_queries_total{outcome="
                                     "\\\""} +
                            outcome + "\\\"}",
                        count))
        << outcome;
  }
  EXPECT_TRUE(carries("usaas_admission_shed_with_degradable_total",
                      ostats.shed_with_degradable));
}

// ---- Circuit breaker: the state machine alone --------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndProbesAfterCooldown) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown_seconds = 1.0;
  cfg.cooldown_backoff = 2.0;
  cfg.max_cooldown_seconds = 3.0;
  CircuitBreaker breaker{cfg};

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_failure(0.0);
  breaker.record_failure(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_success();  // a success resets the streak
  breaker.record_failure(0.0);
  breaker.record_failure(0.0);
  EXPECT_TRUE(breaker.allow(0.0));  // still closed: two in a row, not three
  breaker.record_failure(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(0.5));  // cooling down
  EXPECT_DOUBLE_EQ(breaker.seconds_until_probe(0.5), 0.5);

  // Cooldown served: exactly one caller becomes the half-open probe.
  EXPECT_TRUE(breaker.allow(1.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(1.0));  // probe already in flight

  // Probe fails: reopen with doubled cooldown.
  breaker.record_failure(1.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(2.5));  // 2 s cooldown now
  EXPECT_TRUE(breaker.allow(3.0));
  breaker.record_failure(3.0);  // fails again: cooldown capped at 3 s
  EXPECT_DOUBLE_EQ(breaker.seconds_until_probe(3.0), 3.0);
  EXPECT_TRUE(breaker.allow(6.0));

  // Probe succeeds: closed, streak and cooldown fully reset.
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  breaker.record_failure(6.0);
  breaker.record_failure(6.0);
  breaker.record_failure(6.0);
  EXPECT_DOUBLE_EQ(breaker.seconds_until_probe(6.0), 1.0);  // back to base
}

TEST(CircuitBreaker, ThresholdZeroDisablesTheBreakerEntirely) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 0;
  CircuitBreaker breaker{cfg};
  for (int i = 0; i < 100; ++i) breaker.record_failure(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(0.0));
}

// ---- Circuit breaker wired into admission ------------------------------

TEST(QueryScheduler, OpenBreakerShortCircuitsButStillDegrades) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.0, 1.0};  // one affordable admission, ever
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_seconds = 1.0;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // Warm the cache, then shed twice on an unpayable query: breaker opens.
  ASSERT_EQ(sched.submit("t", whole_months_query()).outcome,
            AdmissionOutcome::kAdmitted);
  ASSERT_EQ(sched.submit("t", cut_months_query()).outcome,
            AdmissionOutcome::kShed);
  ASSERT_EQ(sched.submit("t", cut_months_query()).outcome,
            AdmissionOutcome::kShed);
  ASSERT_EQ(sched.stats().tenants.at("t").breaker,
            CircuitBreaker::State::kOpen);

  // Open breaker, nothing cached for this query: shed without touching
  // the queue, and Retry-After covers at least the remaining cooldown.
  const ScheduledResult shed = sched.submit("t", cut_months_query());
  EXPECT_EQ(shed.outcome, AdmissionOutcome::kShed);
  EXPECT_TRUE(shed.breaker_short_circuit);
  EXPECT_GE(shed.retry_after_seconds, 1.0);

  // Open breaker, warm cache: the short-circuit still serves the stale
  // answer — an open breaker degrades service, it does not black-hole it.
  const ScheduledResult degraded = sched.submit("t", whole_months_query());
  EXPECT_EQ(degraded.outcome, AdmissionOutcome::kDegraded);
  EXPECT_TRUE(degraded.breaker_short_circuit);
  EXPECT_EQ(degraded.insight.execution.served_by, ServedBy::kCache);

  const SchedulerStats mid = sched.stats();
  EXPECT_EQ(mid.breaker_short_circuits, 2u);
  EXPECT_TRUE(mid.reconciles());

  // Cooldown served: the next submission is the half-open probe. It
  // cannot afford tokens either, but it comes back with a (stale)
  // answer, which resolves the probe as success and re-closes the
  // breaker instead of wedging it half-open forever.
  clock.advance(1.5);
  const ScheduledResult probe = sched.submit("t", whole_months_query());
  EXPECT_EQ(probe.outcome, AdmissionOutcome::kDegraded);
  EXPECT_FALSE(probe.breaker_short_circuit);
  EXPECT_EQ(sched.stats().tenants.at("t").breaker,
            CircuitBreaker::State::kClosed);

  // The scrape renders the short-circuit count from the ledger.
  const SchedulerStats after = sched.stats();
  EXPECT_EQ(after.breaker_short_circuits, 2u);
  expect_scrape_matches_ledger(fx.svc, after);
}

TEST(QueryScheduler, HalfOpenProbeFailureReopensWithBackoff) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.0, 0.5};  // nothing is ever affordable
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.cooldown_seconds = 1.0;
  cfg.breaker.cooldown_backoff = 2.0;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // One shed (nothing cached) opens the threshold-1 breaker.
  ASSERT_EQ(sched.submit("t", cut_months_query()).outcome,
            AdmissionOutcome::kShed);
  ASSERT_EQ(sched.stats().tenants.at("t").breaker,
            CircuitBreaker::State::kOpen);

  // The probe sheds too: reopen, and the cooldown doubles.
  clock.advance(1.25);
  const ScheduledResult probe = sched.submit("t", cut_months_query());
  EXPECT_EQ(probe.outcome, AdmissionOutcome::kShed);
  EXPECT_FALSE(probe.breaker_short_circuit);
  EXPECT_EQ(sched.stats().tenants.at("t").breaker,
            CircuitBreaker::State::kOpen);
  const ScheduledResult blocked = sched.submit("t", cut_months_query());
  EXPECT_TRUE(blocked.breaker_short_circuit);
  EXPECT_GE(blocked.retry_after_seconds, 1.9);  // ~2 s of backoff left
}

// Series that share a label set (tenants whose names sanitize alike, two
// schedulers on one service) merge: counters add, but a state gauge shows
// one of the states, never their sum.
TEST(QueryScheduler, MergedSeriesAddCountersButNotStates) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.0, 0.5};  // nothing is ever affordable
  cfg.breaker.failure_threshold = 1;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};
  QueryScheduler other{fx.svc, cfg};
  // Each shed opens its tenant's threshold-1 breaker.
  for (const char* tenant : {"a\x01", "a\x02"}) {
    ASSERT_EQ(sched.submit(tenant, cut_months_query()).outcome,
              AdmissionOutcome::kShed);
  }
  ASSERT_EQ(other.submit("a\x01", cut_months_query()).outcome,
            AdmissionOutcome::kShed);

  const std::string text = fx.svc.metrics_text();
  EXPECT_EQ(scraped(text, "usaas_admission_submitted_total"), 3.0);
  EXPECT_EQ(scraped(text, "usaas_admission_queries_total{outcome=\"shed\"}"),
            3.0);
  EXPECT_EQ(scraped(text, "usaas_admission_breaker_state{tenant=\"a_\"}"),
            static_cast<double>(CircuitBreaker::State::kOpen));
  EXPECT_EQ(scraped(text, "usaas_admission_cost_bias{tenant=\"a_\"}"), 1.0);
  EXPECT_EQ(scraped(text, "usaas_admission_queue_depth{tenant=\"a_\"}"), 0.0);
  // With one scheduler alone, the collision is all the merge sees.
  {
    QueryService solo{Fixture::make_config(&fx.reg)};
    QueryScheduler only{solo, cfg};
    for (const char* tenant : {"a\x01", "a\x02"}) {
      ASSERT_EQ(only.submit(tenant, cut_months_query()).outcome,
                AdmissionOutcome::kShed);
    }
    expect_scrape_matches_ledger(solo, only.stats());
  }
}

// ---- Degrade-feedback loop into the cost model -------------------------

TEST(QueryScheduler, ConsecutiveStaleServesBumpCostBiasAndAdmitsDecayIt) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {1.0, 4.0};  // slow refill: saturation is reachable
  cfg.degrade_feedback_threshold = 2;
  cfg.degrade_feedback_factor = 2.0;
  cfg.cost_bias_decay = 0.9;
  cfg.seconds_per_token = 10.0;  // slow-log history stays under the floor
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // Drain the burst with fresh admits, then move the corpus on.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(sched.submit("t", whole_months_query()).outcome,
              AdmissionOutcome::kAdmitted);
  }
  fx.svc.ingest_calls(quarter_calls(700));

  // Two consecutive stale serves reach the threshold: bias doubles.
  ASSERT_EQ(sched.submit("t", whole_months_query()).outcome,
            AdmissionOutcome::kDegraded);
  EXPECT_DOUBLE_EQ(sched.stats().tenants.at("t").cost_bias, 1.0);
  ASSERT_EQ(sched.submit("t", whole_months_query()).outcome,
            AdmissionOutcome::kDegraded);
  SchedulerStats stats = sched.stats();
  EXPECT_DOUBLE_EQ(stats.tenants.at("t").cost_bias, 2.0);
  EXPECT_EQ(stats.degrade_feedback_bumps, 1u);
  expect_scrape_matches_ledger(fx.svc, stats);

  // The bias is visible in the next submission's effective cost.
  const double raw = sched.estimate_cost(whole_months_query());
  const ScheduledResult biased = sched.submit("t", whole_months_query());
  EXPECT_DOUBLE_EQ(biased.cost_tokens, 2.0 * raw);

  // A fresh admit decays the bias back toward 1.
  clock.advance(4.0);  // refill enough for the biased cost
  const ScheduledResult fresh = sched.submit("t", whole_months_query());
  ASSERT_EQ(fresh.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_DOUBLE_EQ(sched.stats().tenants.at("t").cost_bias, 1.8);
}

// ---- Budget propagation and the expired outcome ------------------------

TEST(QueryScheduler, ZeroBudgetExpiresUnderBothQueueImplementations) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};
  // Tokens are freely available, but the caller's patience is already
  // gone when admission finishes: expired, not admitted — and the run
  // never starts.
  const ScheduledResult r = sched.submit("t", whole_months_query(), 0.0);
  EXPECT_EQ(r.outcome, AdmissionOutcome::kExpired);
  EXPECT_EQ(r.insight.sessions, 0u);
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_TRUE(stats.reconciles());
  expect_scrape_matches_ledger(fx.svc, stats);
}

TEST(QueryScheduler, InfiniteBudgetReproducesPreBudgetSemantics) {
  Fixture fx;
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};
  const ScheduledResult r = sched.submit("t", whole_months_query());
  EXPECT_EQ(r.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(r.insight.error, QueryError::kNone);
  EXPECT_EQ(sched.stats().expired, 0u);
}

// The TSan deadline-propagation workload: tight real-clock budgets race
// a live producer. An expired answer must be an explicit
// deadline-exceeded skeleton — never a torn half-tally — and the 4-way
// ledger must still reconcile exactly.
TEST(QueryScheduler, TightBudgetsUnderRealClockNeverTearInsights) {
  Fixture fx;
  SchedulerConfig cfg;  // real SteadyClock, fair queue on
  cfg.max_wait_seconds = 0.01;
  QueryScheduler sched{fx.svc, cfg};

  constexpr int kThreads = 3;
  constexpr int kPerThread = 30;
  std::atomic<bool> stop_producer{false};
  std::thread producer{[&] {
    std::uint64_t i = 0;
    while (!stop_producer.load()) {
      const std::vector<confsim::CallRecord> batch{
          sample_call(20000 + i++, Date(2022, 2, 5))};
      fx.svc.ingest_calls(batch);
      std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
  }};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Budgets from "already gone" to "usually plenty"; the scan
        // query exercises the mid-run phase-boundary checkpoints.
        const double budget = (i % 5 == 0) ? 0.0 : 1e-5 * (1 << (i % 10));
        const ScheduledResult r =
            sched.submit("tight-" + std::to_string(t), cut_months_query(),
                         budget);
        if (r.outcome == AdmissionOutcome::kExpired) {
          // Never torn: either the run was skipped outright (default
          // insight) or it was abandoned at a phase boundary and
          // returned the explicit skeleton. No partial tallies leak.
          EXPECT_EQ(r.insight.sessions, 0u);
          EXPECT_EQ(r.insight.posts, 0u);
          if (r.insight.error != QueryError::kNone) {
            EXPECT_EQ(r.insight.error, QueryError::kDeadlineExceeded);
          }
        } else if (r.outcome == AdmissionOutcome::kAdmitted) {
          EXPECT_EQ(r.insight.error, QueryError::kNone);
          EXPECT_GT(r.insight.sessions, 0u);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_producer.store(true);
  producer.join();

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Every fifth submission had literally zero budget: expiry is not a
  // timing accident in this test, it is guaranteed traffic.
  EXPECT_GE(stats.expired, static_cast<std::uint64_t>(kThreads) *
                               (kPerThread / 5));
  EXPECT_TRUE(stats.reconciles());
  expect_scrape_matches_ledger(fx.svc, stats);
}

}  // namespace
}  // namespace usaas::service
