// Request-tracing tests: the seqlock TraceRing under concurrent writers
// and readers (the TSan workload for this PR), tail-based retention
// (interesting traces always kept, fast admitted reservoir-sampled), the
// ledger reconciliation contract under sampling=all (every admitted /
// degraded / shed / expired submission leaves exactly one TraceRecord
// with the matching outcome), journal back-links for breaker and
// cost-bias moves, /debug/timeseries-vs-journal agreement, family
// sources attaching and detaching under live scrapes and history ticks,
// golden JSON for all three /debug renderers, and the USAAS_TELEMETRY=off
// contract (a disabled registry registers nothing and mints no IDs).
//
// Registered under the `sanitize` ctest label with USAAS_PARALLEL_FORCE=1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "confsim/call.h"
#include "core/date.h"
#include "core/scheduler_clock.h"
#include "core/telemetry/debug_exposition.h"
#include "core/telemetry/event_journal.h"
#include "core/telemetry/history.h"
#include "core/telemetry/metrics.h"
#include "core/telemetry/request_trace.h"
#include "usaas/query_scheduler.h"
#include "usaas/query_service.h"
#include "usaas/stream_ingestor.h"

namespace usaas::service {
namespace {

namespace tel = core::telemetry;
using core::Date;

// ---- Corpus helpers (same shape as test_usaas_scheduler.cpp) -----------

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
  tel::Registry reg{true};
  QueryService svc;
  explicit Fixture(tel::TraceSampling sampling = tel::TraceSampling::kAll)
      : svc{make_config(&reg, sampling)} {
    svc.ingest_calls(quarter_calls(0));
  }
  static QueryServiceConfig make_config(tel::Registry* reg,
                                        tel::TraceSampling sampling) {
    QueryServiceConfig cfg;
    cfg.threads = 1;
    cfg.telemetry = reg;
    cfg.trace.sampling = sampling;
    cfg.trace.tail_entries = 64;
    return cfg;
  }
};

tel::TraceRecord make_record(std::uint64_t id, tel::TraceOutcome outcome,
                             tel::TracePath path, double run_seconds = 0.0) {
  tel::TraceRecord rec{};
  rec.trace_id = id;
  rec.outcome = static_cast<std::uint8_t>(outcome);
  rec.served_by = static_cast<std::uint8_t>(path);
  rec.run_seconds = run_seconds;
  rec.set_tenant("t");
  return rec;
}

// ---- TraceRing ---------------------------------------------------------

TEST(TraceRing, PushSnapshotOverwriteAndDisabled) {
  tel::TraceRing ring{3};
  EXPECT_EQ(ring.capacity(), 4u);  // rounded up to a power of two

  for (std::uint64_t i = 0; i < 3; ++i) {
    tel::TraceRecord rec{};
    rec.order = i;
    ring.push(rec);
  }
  EXPECT_EQ(ring.snapshot().size(), 3u);

  for (std::uint64_t i = 3; i < 10; ++i) {
    tel::TraceRecord rec{};
    rec.order = i;
    ring.push(rec);
  }
  EXPECT_EQ(ring.pushed(), 10u);
  std::set<std::uint64_t> orders;
  for (const tel::TraceRecord& rec : ring.snapshot()) {
    orders.insert(rec.order);
  }
  // Exactly the last capacity() pushes survive an overwrite lap.
  EXPECT_EQ(orders, (std::set<std::uint64_t>{6, 7, 8, 9}));

  tel::TraceRing off;  // capacity 0: a valid disabled ring
  off.push(tel::TraceRecord{});
  EXPECT_EQ(off.capacity(), 0u);
  EXPECT_TRUE(off.snapshot().empty());
}

TEST(TraceRing, TenantNameIsTruncatedAndNulPadded) {
  tel::TraceRecord rec{};
  const std::string long_name(64, 'x');
  rec.set_tenant(long_name);
  EXPECT_EQ(rec.tenant_view().size(), tel::TraceRecord::kTenantBytes - 1);
  rec.set_tenant("short");
  EXPECT_EQ(rec.tenant_view(), "short");  // re-stamping clears the tail
}

// The TSan workload: writers hammer one ring while readers snapshot it.
// Every field of a record is derived from one value, so a torn read —
// half one record, half another — is detectable as an internal
// inconsistency in the snapshot copy.
TEST(TraceRing, ConcurrentWritersAndReadersNeverObserveTornRecords) {
  tel::TraceRing ring{64};
  // Laps the 64-slot ring 250 times, so writer claim collisions (a
  // lapping writer meeting a mid-write owner) actually happen under
  // TSan's slowed-down stores — this workload is what caught the
  // stale-seq spin livelock in write_slot.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 4000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (const tel::TraceRecord& rec : ring.snapshot()) {
          const std::uint64_t v = rec.trace_id;
          if (rec.corpus_version != v || rec.staleness != v ||
              rec.wait_seconds != static_cast<double>(v)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Back-to-back snapshots starve the writers on a 1-CPU host
        // (seqlock readers retry through every mid-write slot) — same
        // reason the corpus RW-lock suites sleep between reads.
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t v =
            static_cast<std::uint64_t>(w) * 1000000 + i + 1;
        tel::TraceRecord rec{};
        rec.trace_id = v;
        rec.corpus_version = v;
        rec.staleness = v;
        rec.wait_seconds = static_cast<double>(v);
        ring.push(rec);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(ring.pushed(), kWriters * kPerWriter);
  // Quiesced: a final snapshot sees a full, consistent ring.
  EXPECT_EQ(ring.snapshot().size(), ring.capacity());
}

// ---- RequestTracer -----------------------------------------------------

TEST(RequestTracer, MintsDeterministicNonzeroIds) {
  const tel::TracerConfig cfg;
  tel::RequestTracer a{cfg, true};
  tel::RequestTracer b{cfg, true};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = a.mint_id();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(id, b.mint_id());  // replayable across instances
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions in the prefix
}

TEST(RequestTracer, DisabledTracerIsFree) {
  tel::RequestTracer off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.mint_id(), 0u);
  off.record(make_record(1, tel::TraceOutcome::kShed, tel::TracePath::kNone));
  EXPECT_EQ(off.recorded(), 0u);
  EXPECT_TRUE(off.snapshot().empty());
}

TEST(RequestTracer, TailSamplingKeepsInterestingReservoirSamplesTheRest) {
  tel::TracerConfig cfg;
  cfg.tail_entries = 8;
  cfg.reservoir_entries = 4;
  cfg.sampling = tel::TraceSampling::kTail;
  cfg.slow_seconds = 0.050;
  tel::RequestTracer tracer{cfg, true};

  // interesting(): everything except a fast admitted serve.
  EXPECT_FALSE(tracer.interesting(make_record(
      1, tel::TraceOutcome::kAdmitted, tel::TracePath::kCache, 0.001)));
  EXPECT_TRUE(tracer.interesting(make_record(
      2, tel::TraceOutcome::kShed, tel::TracePath::kNone)));
  EXPECT_TRUE(tracer.interesting(make_record(
      3, tel::TraceOutcome::kExpired, tel::TracePath::kExpired)));
  EXPECT_TRUE(tracer.interesting(make_record(
      4, tel::TraceOutcome::kDegraded, tel::TracePath::kCache)));
  EXPECT_TRUE(tracer.interesting(make_record(
      5, tel::TraceOutcome::kAdmitted, tel::TracePath::kInvalid)));
  EXPECT_TRUE(tracer.interesting(make_record(
      6, tel::TraceOutcome::kAdmitted, tel::TracePath::kScan, 0.051)));
  tel::TraceRecord unpayable = make_record(7, tel::TraceOutcome::kShed,
                                           tel::TracePath::kNone);
  unpayable.flags = tel::TraceRecord::kFlagUnpayable;
  EXPECT_TRUE(tracer.interesting(unpayable));

  // 100 fast admitted serves: none tail-kept, all reservoir-considered.
  for (std::uint64_t i = 1; i <= 100; ++i) {
    tracer.record(make_record(i, tel::TraceOutcome::kAdmitted,
                              tel::TracePath::kCache, 0.001));
  }
  EXPECT_EQ(tracer.recorded(), 100u);
  EXPECT_EQ(tracer.tail_kept(), 0u);
  EXPECT_EQ(tracer.reservoir_seen(), 100u);
  EXPECT_GE(tracer.reservoir_kept(), 4u);  // ring filled before sampling
  EXPECT_LE(tracer.snapshot().size(), 4u);

  // One shed and one slow admitted: both always kept, slow flag stamped.
  tracer.record(make_record(200, tel::TraceOutcome::kShed,
                            tel::TracePath::kNone));
  tracer.record(make_record(201, tel::TraceOutcome::kAdmitted,
                            tel::TracePath::kScan, 0.080));
  EXPECT_EQ(tracer.tail_kept(), 2u);
  bool saw_shed = false, saw_slow = false;
  for (const tel::TraceRecord& rec : tracer.snapshot()) {
    if (rec.trace_id == 200) saw_shed = true;
    if (rec.trace_id == 201) {
      saw_slow = true;
      EXPECT_NE(rec.flags & tel::TraceRecord::kFlagSlow, 0);
    }
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_TRUE(saw_slow);

  // Deterministic replay: a second tracer fed the same sequence keeps
  // exactly the same ledger.
  tel::RequestTracer replay{cfg, true};
  for (std::uint64_t i = 1; i <= 100; ++i) {
    replay.record(make_record(i, tel::TraceOutcome::kAdmitted,
                              tel::TracePath::kCache, 0.001));
  }
  EXPECT_EQ(replay.reservoir_kept(), tracer.reservoir_kept());
}

TEST(RequestTracer, AllSamplingKeepsEveryTraceInCompletionOrder) {
  tel::TracerConfig cfg;
  cfg.tail_entries = 64;
  cfg.sampling = tel::TraceSampling::kAll;
  tel::RequestTracer tracer{cfg, true};
  for (std::uint64_t i = 1; i <= 50; ++i) {
    tracer.record(make_record(i, tel::TraceOutcome::kAdmitted,
                              tel::TracePath::kCache, 0.0));
  }
  EXPECT_EQ(tracer.recorded(), 50u);
  EXPECT_EQ(tracer.tail_kept(), 50u);
  EXPECT_EQ(tracer.reservoir_seen(), 0u);
  const std::vector<tel::TraceRecord> traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 50u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].order, i + 1);  // oldest completion first
  }
}

// ---- Scheduler integration: the retention contract ---------------------

// ISSUE acceptance: under sampling=all, every request the scheduler
// ledger counted — admitted, degraded, shed AND expired — has exactly one
// TraceRecord whose outcome matches the ledger row.
TEST(SchedulerTracing, EveryOutcomeHasExactlyOneTraceUnderAllSampling) {
  Fixture fx{tel::TraceSampling::kAll};
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.5, 1.0};  // slow refill: saturation is reachable
  cfg.max_versions_behind = 2;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // Admitted: the burst pays for one fresh summary-merge run.
  const ScheduledResult admitted = sched.submit("dash", whole_months_query());
  ASSERT_EQ(admitted.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_NE(admitted.trace_id, 0u);

  // Degraded: corpus moves on, tokens are gone, the stale cache answers.
  fx.svc.ingest_calls(quarter_calls(500));
  const ScheduledResult degraded = sched.submit("dash", whole_months_query());
  ASSERT_EQ(degraded.outcome, AdmissionOutcome::kDegraded);

  // Shed: a two-boundary-cut rescan costs more than the whole burst —
  // unpayable outright, and nothing cached to degrade to.
  const ScheduledResult shed = sched.submit("dash", cut_months_query());
  ASSERT_EQ(shed.outcome, AdmissionOutcome::kShed);

  // Expired: a 50 ms budget drains entirely inside the token wait.
  const ScheduledResult expired =
      sched.submit("dash", whole_months_query(), 0.05);
  ASSERT_EQ(expired.outcome, AdmissionOutcome::kExpired);

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_TRUE(stats.reconciles());

  tel::RequestTracer& tracer = fx.svc.tracer();
  EXPECT_EQ(tracer.recorded(), stats.submitted);
  EXPECT_EQ(tracer.tail_kept(), stats.submitted);  // kAll: nothing sampled

  const std::vector<tel::TraceRecord> traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 4u);
  std::set<std::uint64_t> ids;
  std::uint64_t by_outcome[4] = {0, 0, 0, 0};
  for (const tel::TraceRecord& rec : traces) {
    ids.insert(rec.trace_id);
    ASSERT_LT(rec.outcome, 4);
    ++by_outcome[rec.outcome];
    EXPECT_EQ(rec.tenant_view(), "dash");
  }
  EXPECT_EQ(ids.size(), 4u);  // exactly one trace per submission
  EXPECT_EQ(ids, (std::set<std::uint64_t>{admitted.trace_id,
                                          degraded.trace_id, shed.trace_id,
                                          expired.trace_id}));
  EXPECT_EQ(by_outcome[static_cast<int>(tel::TraceOutcome::kAdmitted)],
            stats.admitted);
  EXPECT_EQ(by_outcome[static_cast<int>(tel::TraceOutcome::kDegraded)],
            stats.degraded);
  EXPECT_EQ(by_outcome[static_cast<int>(tel::TraceOutcome::kShed)],
            stats.shed);
  EXPECT_EQ(by_outcome[static_cast<int>(tel::TraceOutcome::kExpired)],
            stats.expired);

  // Per-trace shape, by outcome.
  for (const tel::TraceRecord& rec : traces) {
    const auto outcome = static_cast<tel::TraceOutcome>(rec.outcome);
    const auto path = static_cast<tel::TracePath>(rec.served_by);
    switch (outcome) {
      case tel::TraceOutcome::kAdmitted:
        // Month-aligned window: the time bins merge summaries; the
        // post-grouping signals may still scan, which reports as mixed.
        EXPECT_TRUE(path == tel::TracePath::kSummaryMerge ||
                    path == tel::TracePath::kMixed)
            << static_cast<int>(rec.served_by);
        EXPECT_GT(rec.shards_from_summary, 0u);
        break;
      case tel::TraceOutcome::kDegraded:
        EXPECT_EQ(path, tel::TracePath::kCache);
        EXPECT_EQ(rec.staleness, 1u);
        // The cached answer's execution report describes the ORIGINAL
        // run; none of those timings may leak into this request's trace.
        EXPECT_EQ(rec.run_seconds, 0.0);
        EXPECT_EQ(rec.shards_from_summary, 0u);
        EXPECT_NE(rec.flags & tel::TraceRecord::kFlagQueued, 0);
        break;
      case tel::TraceOutcome::kShed:
        EXPECT_EQ(path, tel::TracePath::kNone);
        EXPECT_NE(rec.flags & tel::TraceRecord::kFlagUnpayable, 0);
        break;
      case tel::TraceOutcome::kExpired:
        EXPECT_EQ(path, tel::TracePath::kExpired);
        break;
    }
  }

  // The /debug/traces renderer exposes the same exact ledger.
  const std::string json = tel::debug_traces_json(tracer);
  EXPECT_NE(json.find("\"recorded\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"sampling\": \"all\""), std::string::npos);
}

TEST(SchedulerTracing, TraceIdStampsExecutionAndSlowLog) {
  Fixture fx{tel::TraceSampling::kAll};
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  const ScheduledResult fresh = sched.submit("analyst", cut_months_query());
  ASSERT_EQ(fresh.outcome, AdmissionOutcome::kAdmitted);
  ASSERT_NE(fresh.trace_id, 0u);
  // The answer links back to its trace...
  EXPECT_EQ(fresh.insight.execution.trace_id, fresh.trace_id);
  // ...and so does the slow-log entry for this fingerprint.
  bool found = false;
  for (const tel::SlowQueryEntry& entry : fx.svc.slow_queries()) {
    if (entry.trace_id == fresh.trace_id) found = true;
  }
  EXPECT_TRUE(found);

  // A direct (scheduler-less) run is untraced: trace_id stays 0.
  const Insight direct = fx.svc.run(whole_months_query());
  EXPECT_EQ(direct.error, QueryError::kNone);
  EXPECT_EQ(direct.execution.trace_id, 0u);
}

// ---- Journal + timeseries agreement ------------------------------------

TEST(SchedulerTracing, BreakerTransitionsAreJournaledAndMatchTimeseries) {
  Fixture fx{tel::TraceSampling::kAll};
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.0, 1.0};  // burst only: saturation is immediate
  cfg.max_versions_behind = 0;   // degrade off: saturation sheds
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_seconds = 1.0;
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};
  tel::TelemetryHistory& history = fx.svc.history();
  ASSERT_TRUE(history.enabled());

  // t=0: healthy admit; tick records the closed (0) breaker gauge.
  ASSERT_EQ(sched.submit("hot", whole_months_query()).outcome,
            AdmissionOutcome::kAdmitted);
  fx.svc.force_tick_history(clock.now());

  // t=0.1: two unpayable sheds trip the breaker closed -> open.
  clock.advance(0.1);
  ASSERT_EQ(sched.submit("hot", whole_months_query()).outcome,
            AdmissionOutcome::kShed);
  ASSERT_EQ(sched.submit("hot", whole_months_query()).outcome,
            AdmissionOutcome::kShed);
  fx.svc.force_tick_history(clock.now());

  // t=1.6: cooldown elapsed — the probe half-opens, then fails and
  // reopens (still unpayable), all within one submission.
  clock.advance(1.5);
  ASSERT_EQ(sched.submit("hot", whole_months_query()).outcome,
            AdmissionOutcome::kShed);
  fx.svc.force_tick_history(clock.now());

  // The journal holds the full transition chain, causally back-linked.
  std::vector<tel::JournalEvent> transitions;
  for (const tel::JournalEvent& ev : fx.svc.journal().snapshot()) {
    if (ev.kind == tel::JournalEventKind::kBreakerTransition &&
        ev.tenant == "hot") {
      transitions.push_back(ev);
    }
  }
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].a, 0.0);  // closed -> open
  EXPECT_EQ(transitions[0].b, 1.0);
  EXPECT_EQ(transitions[1].a, 1.0);  // open -> half-open
  EXPECT_EQ(transitions[1].b, 2.0);
  EXPECT_EQ(transitions[2].a, 2.0);  // half-open -> open (probe failed)
  EXPECT_EQ(transitions[2].b, 1.0);
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    EXPECT_NE(transitions[i].trace_id, 0u);  // the straw is identified
    if (i > 0) {
      EXPECT_GE(transitions[i].at_seconds, transitions[i - 1].at_seconds);
      EXPECT_EQ(transitions[i].a, transitions[i - 1].b);  // chain continuity
    }
  }

  // ISSUE acceptance: the /debug/timeseries breaker history must agree
  // with the journal — replaying the transitions up to each tick stamp
  // reproduces the gauge series exactly.
  const tel::TelemetryHistory::Snapshot snap = history.snapshot();
  const tel::TelemetryHistory::Series* series = nullptr;
  for (const tel::TelemetryHistory::Series& s : snap.series) {
    if (s.key == "usaas_admission_breaker_state{tenant=\"hot\"}") {
      series = &s;
    }
  }
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->values.size(), snap.at_seconds.size());
  ASSERT_EQ(snap.at_seconds.size(), 3u);
  for (std::size_t i = 0; i < snap.at_seconds.size(); ++i) {
    double replayed = 0.0;  // born closed
    for (const tel::JournalEvent& ev : transitions) {
      if (ev.at_seconds <= snap.at_seconds[i]) replayed = ev.b;
    }
    EXPECT_EQ(series->values[i], replayed) << "tick " << i;
  }
  EXPECT_EQ(series->values.back(), 1.0);  // ends open
}

TEST(SchedulerTracing, CostBiasMovesAreJournaled) {
  Fixture fx{tel::TraceSampling::kAll};
  core::VirtualClock clock;
  SchedulerConfig cfg;
  cfg.default_qos = {0.1, 2.0};
  cfg.max_versions_behind = 2;
  cfg.degrade_feedback_threshold = 1;  // first stale serve bumps the bias
  cfg.clock = &clock;
  QueryScheduler sched{fx.svc, cfg};

  // Drain the burst with two fresh admits, then bump the corpus.
  ASSERT_EQ(sched.submit("batch", whole_months_query()).outcome,
            AdmissionOutcome::kAdmitted);
  ASSERT_EQ(sched.submit("batch", whole_months_query()).outcome,
            AdmissionOutcome::kAdmitted);
  fx.svc.ingest_calls(quarter_calls(500));

  // Saturated: the stale serve trips the feedback loop — bias bump.
  ASSERT_EQ(sched.submit("batch", whole_months_query()).outcome,
            AdmissionOutcome::kDegraded);

  // Refilled: a fresh admit decays the bias back toward 1.
  clock.advance(30.0);
  ASSERT_EQ(sched.submit("batch", whole_months_query()).outcome,
            AdmissionOutcome::kAdmitted);

  const std::vector<tel::JournalEvent> events = fx.svc.journal().snapshot();
  const tel::JournalEvent* bump = nullptr;
  const tel::JournalEvent* decay = nullptr;
  for (const tel::JournalEvent& ev : events) {
    if (ev.kind == tel::JournalEventKind::kCostBiasBump) bump = &ev;
    if (ev.kind == tel::JournalEventKind::kCostBiasDecay) decay = &ev;
  }
  ASSERT_NE(bump, nullptr);
  EXPECT_EQ(bump->tenant, "batch");
  EXPECT_NE(bump->trace_id, 0u);
  EXPECT_DOUBLE_EQ(bump->a, 1.0);
  EXPECT_DOUBLE_EQ(bump->b, cfg.degrade_feedback_factor);
  ASSERT_NE(decay, nullptr);
  EXPECT_DOUBLE_EQ(decay->a, cfg.degrade_feedback_factor);
  EXPECT_DOUBLE_EQ(decay->b,
                   cfg.degrade_feedback_factor * cfg.cost_bias_decay);
  EXPECT_GE(decay->order, bump->order);
}

TEST(EventJournal, RingOverwritesOldestAndCountsDrops) {
  tel::EventJournal journal{2, true};
  for (int i = 1; i <= 5; ++i) {
    journal.record(tel::JournalEventKind::kBackpressure, "", 0,
                   static_cast<double>(i), i, 10.0);
  }
  EXPECT_EQ(journal.recorded(), 5u);
  EXPECT_EQ(journal.dropped(), 3u);
  const std::vector<tel::JournalEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].order, 4u);  // oldest retained first
  EXPECT_EQ(events[1].order, 5u);

  tel::EventJournal off;
  off.record(tel::JournalEventKind::kBackpressure, "", 0, 0.0, 0, 0);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.recorded(), 0u);
}

// ---- Family sources under live scrapes ---------------------------------

// The TSan/ASan workload for QueryService::attach_families: a scraper
// renders /metrics and force-ticks the history while schedulers and
// ingestors attach, serve, and detach against one service. Two of each
// live at once, so their same-name families must merge into one series:
// counters add, gauges show the higher of the two states.
TEST(FamilySources, ScrapesAndTicksRaceAttachAndDetach) {
  Fixture fx;
  std::atomic<bool> done{false};
  std::thread scraper{[&] {
    double now = 0.0;
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_NE(fx.svc.metrics_text().find("usaas_corpus_version"),
                std::string::npos);
      fx.svc.force_tick_history(now += 1.0);
      // Yield: back-to-back shared holds starve the flushes' writer lock.
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  }};
  const auto once = [](const std::string& text, const std::string& line) {
    const std::size_t at = text.find(line);
    return at != std::string::npos &&
           text.find(line, at + 1) == std::string::npos;
  };
  for (std::uint64_t round = 0; round < 10; ++round) {
    const std::uint64_t ticks_before = fx.svc.history().ticks();
    core::VirtualClock clock;
    SchedulerConfig cfg;
    cfg.clock = &clock;
    QueryScheduler a{fx.svc, cfg};
    QueryScheduler b{fx.svc, cfg};
    StreamIngestorConfig icfg;
    icfg.call_flush_watermark = 2;
    StreamIngestor ia{fx.svc, icfg};
    StreamIngestor ib{fx.svc, icfg};
    (void)a.submit("t", whole_months_query());
    (void)b.submit("t", whole_months_query());
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_EQ(ia.push(sample_call(1000 + 10 * round + i, Date(2022, 2, 5))),
                PushOutcome::kAccepted);
    }
    ASSERT_EQ(ib.push(sample_call(5000 + round, Date(2022, 2, 6))),
              PushOutcome::kAccepted);
    const std::string text = fx.svc.metrics_text();
    EXPECT_TRUE(once(text, "\nusaas_admission_submitted_total 2\n")) << text;
    EXPECT_TRUE(once(text, "\nusaas_admission_queue_depth{tenant=\"t\"} 0\n"));
    EXPECT_TRUE(once(text, "\nusaas_stream_staged_records 1\n"));
    EXPECT_TRUE(
        once(text, "usaas_stream_records_total{outcome=\"accepted\"} 4\n"));
    EXPECT_TRUE(once(text, "# TYPE usaas_stream_records_total counter\n"));
    // Let the scraper fold a tick or two while all four are attached.
    while (fx.svc.history().ticks() < ticks_before + 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  // Every source detached with its component; the history stayed aligned.
  const std::string text = fx.svc.metrics_text();
  EXPECT_EQ(text.find("usaas_admission_submitted_total"), std::string::npos);
  EXPECT_EQ(text.find("usaas_stream_staged_records"), std::string::npos);
  const tel::TelemetryHistory::Snapshot snap = fx.svc.history().snapshot();
  ASSERT_FALSE(snap.at_seconds.empty());
  for (const tel::TelemetryHistory::Series& s : snap.series) {
    EXPECT_EQ(s.values.size(), snap.at_seconds.size()) << s.key;
  }
}

// ---- Kill switch -------------------------------------------------------

TEST(KillSwitch, DisabledRegistryRegistersNothingAndMintsNoIds) {
  tel::Registry reg{false};
  QueryServiceConfig cfg =
      Fixture::make_config(&reg, tel::TraceSampling::kAll);
  QueryService svc{cfg};
  svc.ingest_calls(quarter_calls(0));

  // Zero registration: the kill switch registers nothing, it does not
  // merely hide values.
  EXPECT_EQ(reg.metric_count(), 0u);
  EXPECT_FALSE(svc.tracer().enabled());
  EXPECT_FALSE(svc.journal().enabled());
  EXPECT_FALSE(svc.history().enabled());
  EXPECT_EQ(svc.tracer().mint_id(), 0u);

  // The serving path still works, untraced end to end.
  core::VirtualClock clock;
  SchedulerConfig sched_cfg;
  sched_cfg.clock = &clock;
  QueryScheduler sched{svc, sched_cfg};
  const ScheduledResult r = sched.submit("dash", whole_months_query());
  EXPECT_EQ(r.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(r.trace_id, 0u);
  EXPECT_EQ(r.insight.execution.trace_id, 0u);
  EXPECT_TRUE(sched.stats().reconciles());
  EXPECT_EQ(svc.tracer().recorded(), 0u);
  EXPECT_EQ(svc.journal().recorded(), 0u);
  EXPECT_EQ(reg.metric_count(), 0u);  // still nothing, even after traffic

  // The /debug renderers answer honestly instead of erroring.
  EXPECT_NE(tel::debug_traces_json(svc.tracer()).find("\"enabled\": false"),
            std::string::npos);
  EXPECT_NE(tel::debug_events_json(svc.journal()).find("\"enabled\": false"),
            std::string::npos);
  EXPECT_NE(
      tel::debug_timeseries_json(svc.history()).find("\"enabled\": false"),
      std::string::npos);
  // History without ticks: no clock was ever read, no series exist.
  EXPECT_EQ(svc.history().ticks(), 0u);
}

// ---- Golden JSON for the /debug renderers ------------------------------

TEST(DebugExposition, TracesJsonGolden) {
  tel::TracerConfig cfg;
  cfg.tail_entries = 4;
  cfg.sampling = tel::TraceSampling::kAll;
  tel::RequestTracer tracer{cfg, true};

  tel::TraceRecord rec{};
  rec.trace_id = 0xabcdef0123456789ull;
  rec.corpus_version = 7;
  rec.staleness = 2;
  rec.wait_seconds = 0.25;
  rec.cache_probe_seconds = 0.5;
  rec.cost_tokens = 3.0;
  rec.shards_from_summary = 2;
  rec.shards_scanned = 1;
  rec.outcome = static_cast<std::uint8_t>(tel::TraceOutcome::kDegraded);
  rec.served_by = static_cast<std::uint8_t>(tel::TracePath::kCache);
  rec.flags = tel::TraceRecord::kFlagQueued;
  rec.set_tenant("dash");
  tracer.record(rec);

  const std::string expected =
      "{\n"
      "  \"enabled\": true,\n"
      "  \"sampling\": \"all\",\n"
      "  \"recorded\": 1,\n"
      "  \"tail_kept\": 1,\n"
      "  \"reservoir_seen\": 0,\n"
      "  \"reservoir_kept\": 0,\n"
      "  \"traces\": [\n"
      "    {\"trace_id\": \"abcdef0123456789\", \"order\": 1, "
      "\"tenant\": \"dash\", \"outcome\": \"degraded\", "
      "\"served_by\": \"cache\", \"corpus_version\": 7, \"staleness\": 2, "
      "\"wait_seconds\": 0.25, \"run_seconds\": 0, "
      "\"validate_seconds\": 0, \"cache_probe_seconds\": 0.5, "
      "\"implicit_seconds\": 0, \"social_seconds\": 0, "
      "\"cost_tokens\": 3, \"retry_after_seconds\": 0, "
      "\"shards_from_summary\": 2, \"shards_scanned\": 1, "
      "\"post_shards_from_summary\": 0, \"post_shards_scanned\": 0, "
      "\"slow\": false, \"queued\": true, "
      "\"breaker_short_circuit\": false, \"unpayable\": false}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(tel::debug_traces_json(tracer), expected);
}

TEST(DebugExposition, EventsJsonGolden) {
  tel::EventJournal journal{4, true};
  journal.record(tel::JournalEventKind::kBreakerTransition, "t", 1, 1.5,
                 0.0, 1.0);
  journal.record(tel::JournalEventKind::kCostBiasBump, "t", 2, 2.0, 1.0,
                 1.5);
  journal.record(tel::JournalEventKind::kBackpressure, "", 0, 3.0, 64.0,
                 64.0);

  const std::string expected =
      "{\n"
      "  \"enabled\": true,\n"
      "  \"recorded\": 3,\n"
      "  \"dropped\": 0,\n"
      "  \"events\": [\n"
      "    {\"order\": 1, \"kind\": \"breaker-transition\", "
      "\"tenant\": \"t\", \"trace_id\": \"0000000000000001\", "
      "\"at_seconds\": 1.5, \"from\": \"closed\", \"to\": \"open\"},\n"
      "    {\"order\": 2, \"kind\": \"cost-bias-bump\", "
      "\"tenant\": \"t\", \"trace_id\": \"0000000000000002\", "
      "\"at_seconds\": 2, \"old_bias\": 1, \"new_bias\": 1.5},\n"
      "    {\"order\": 3, \"kind\": \"backpressure\", "
      "\"tenant\": \"\", \"trace_id\": \"0000000000000000\", "
      "\"at_seconds\": 3, \"depth\": 64, \"limit\": 64}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(tel::debug_events_json(journal), expected);
}

TEST(DebugExposition, TimeseriesJsonGolden) {
  tel::Registry reg{true};
  tel::HistoryConfig cfg;
  cfg.interval_seconds = 10.0;
  cfg.slots = 4;
  tel::TelemetryHistory history{cfg, true};
  bool has_depth = false;
  const auto families = [&] {
    std::vector<tel::MetricFamily> out = reg.collect();
    if (has_depth) {
      out.push_back({"depth", "", tel::MetricKind::kGauge,
                     {tel::floating_sample("", 7.0)}});
    }
    return out;
  };

  tel::Counter requests =
      reg.counter("req_total", "", {{"tenant", "t"}});
  requests.add(3);
  history.force_tick(0.0, families);
  requests.add(2);
  // A series born mid-flight is back-filled with null for missed ticks.
  has_depth = true;
  history.force_tick(10.0, families);

  const std::string expected =
      "{\n"
      "  \"enabled\": true,\n"
      "  \"interval_seconds\": 10,\n"
      "  \"slots\": 4,\n"
      "  \"ticks\": 2,\n"
      "  \"at_seconds\": [0, 10],\n"
      "  \"series\": {\n"
      "    \"depth\": {\"kind\": \"gauge\", \"values\": [null, 7]},\n"
      "    \"req_total{tenant=\\\"t\\\"}\": {\"kind\": \"counter\", "
      "\"values\": [3, 2]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(tel::debug_timeseries_json(history), expected);
}

// ---- Label hygiene -----------------------------------------------------

TEST(Sanitize, LabelValuesAreBoundedPrintableAndNonEmpty) {
  EXPECT_EQ(tel::sanitize_label_value("dash-board_01"), "dash-board_01");
  EXPECT_EQ(tel::sanitize_label_value(""), "_");
  // Control bytes (header/exposition injection vectors) are neutralized.
  EXPECT_EQ(tel::sanitize_label_value("a\nb"), "a_b");
  EXPECT_EQ(tel::sanitize_label_value("a\rb\tc"), "a_b_c");
  EXPECT_EQ(tel::sanitize_label_value(std::string_view{"a\0b", 3}), "a_b");
  EXPECT_EQ(tel::sanitize_label_value("a\x7f"
                                      "b"),
            "a_b");
  // Length is clamped to the label budget.
  const std::string long_name(200, 'x');
  EXPECT_EQ(tel::sanitize_label_value(long_name).size(),
            tel::kMaxLabelValueBytes);
  // Printable specials survive (escaping is the exposition layer's job).
  EXPECT_EQ(tel::sanitize_label_value("a\"b\\c"), "a\"b\\c");
}

}  // namespace
}  // namespace usaas::service
