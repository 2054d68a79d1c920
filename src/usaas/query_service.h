// User Signals as-a-Service: the query façade of §5 / Fig 8.
//
// Network and service providers submit queries ("how do users on network X
// experience service Y?") and get aggregated, user-centric insights built
// from the ingested implicit signals (user actions), sampled MOS, and
// offline social feedback. The service deliberately exposes *aggregates* —
// never individual posts or sessions — matching the paper's privacy
// stance ("the social media user feedback insights should be aggregated").
//
// QueryService is the façade over two shard stores — CorrelationEngine
// (sessions per month x platform) and PostStore (pre-scored posts per
// month), which share one two-pass ingest driver, one month rule
// (core::window_cuts_month: a whole-covered month answers from its
// summary, a cut month rescans) and one cancellable shard loop
// (usaas/shard_store.h). It owns the corpus RW lock and version, the
// insight cache, the run budget, the slow-query log and the exposition.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/date.h"
#include "core/fingerprint.h"
#include "core/lru_cache.h"
#include "core/rw_lock.h"
#include "core/scheduler_clock.h"
#include "core/telemetry/event_journal.h"
#include "core/telemetry/history.h"
#include "core/telemetry/metrics.h"
#include "core/telemetry/request_trace.h"
#include "core/telemetry/slow_query_log.h"
#include "core/telemetry/trace.h"
#include "core/thread_pool.h"
#include "social/post.h"
#include "usaas/correlation_engine.h"
#include "usaas/mos_predictor.h"
#include "usaas/post_store.h"
#include "usaas/shard_summary.h"
#include "usaas/signals.h"

namespace usaas::service {

/// Why a query was rejected (Query::validate). Stable enum so callers can
/// branch on the reason; the message carries the offending values.
enum class QueryError {
  kNone,
  kReversedWindow,        // first > last
  kNonFiniteMetricRange,  // metric_lo / metric_hi is NaN or infinite
  kEmptyMetricRange,      // metric_lo >= metric_hi
  kZeroBins,              // bins == 0
  kDeadlineExceeded,      // the RunBudget expired mid-computation
};

[[nodiscard]] constexpr const char* to_string(QueryError e) {
  switch (e) {
    case QueryError::kNone: return "none";
    case QueryError::kReversedWindow: return "reversed-window";
    case QueryError::kNonFiniteMetricRange: return "non-finite-metric-range";
    case QueryError::kEmptyMetricRange: return "empty-metric-range";
    case QueryError::kZeroBins: return "zero-bins";
    case QueryError::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

/// Structured validation verdict: reason enum + human-readable message.
struct QueryValidation {
  QueryError error{QueryError::kNone};
  std::string message;
  [[nodiscard]] bool ok() const { return error == QueryError::kNone; }
};

/// A USaaS query: what the stakeholder wants to know.
struct Query {
  /// Date window (inclusive); applies to sessions and posts alike.
  core::Date first{2022, 1, 1};
  core::Date last{2022, 12, 31};
  /// Restrict implicit signals to a platform.
  std::optional<confsim::Platform> platform;
  /// Restrict implicit signals to an access network — the paper's §5
  /// example: "if SpaceX Starlink wants to understand how users on their
  /// network are perceiving the MS Teams experience", query with
  /// access = kLeoSatellite.
  std::optional<netsim::AccessTechnology> access;
  /// Network metric of interest for the engagement breakdown.
  netsim::Metric metric{netsim::Metric::kLatency};
  double metric_lo{0.0};
  double metric_hi{300.0};
  std::size_t bins{10};

  /// A query is answerable when the window is ordered, the metric range is
  /// finite and non-empty, and it requests at least one bin. run() returns
  /// an empty Insight (carrying the error) for anything else instead of
  /// NaN/degenerate aggregates. The first failing check wins, in the
  /// QueryError declaration order.
  [[nodiscard]] QueryValidation validate() const;
  [[nodiscard]] bool valid() const { return validate().ok(); }
};

/// How a query was ultimately served — the per-query execution shape
/// (satellite of the cumulative QueryFanoutStats / InsightCacheStats).
enum class ServedBy {
  kCache,         // insight cache hit; no shard was visited
  kSummaryMerge,  // every shard visit answered from a tier-2 summary
  kScan,          // every shard visit rescanned records
  kMixed,         // some summary merges, some scans (boundary shards)
  kInvalid,       // the query failed validation; nothing was computed
  kExpired,       // the run budget expired; the computation was abandoned
};

[[nodiscard]] constexpr const char* to_string(ServedBy s) {
  switch (s) {
    case ServedBy::kCache: return "cache";
    case ServedBy::kSummaryMerge: return "summary-merge";
    case ServedBy::kScan: return "scan";
    case ServedBy::kMixed: return "mixed";
    case ServedBy::kInvalid: return "invalid";
    case ServedBy::kExpired: return "expired";
  }
  return "unknown";
}

/// Remaining-time budget the admission layer propagates into run(): the
/// absolute clock-seconds instant after which continuing the computation
/// is pointless (the client has already timed out). compute_insight
/// checks it cooperatively at phase boundaries — before and after the
/// implicit side's one fan-out (curves and tally), before the social
/// side — and per shard inside both fan-outs, and abandons the run with
/// QueryError::kDeadlineExceeded instead of burning pool time on an
/// answer nobody is waiting for. An abandoned run returns a fresh
/// skeleton Insight (never a torn partial) and is never cached. A default
/// RunBudget (null clock) never expires, so the plain run() path pays one
/// predictable branch per checkpoint.
struct RunBudget {
  core::SchedulerClock* clock{nullptr};
  double deadline{0.0};  ///< Absolute seconds on `clock`; ignored if null.
  /// Request trace ID riding the budget into run(): stamped into the
  /// Insight's execution report and slow-log entries so an answer links
  /// back to its TraceRecord. 0 = untraced (tracing disabled or a direct
  /// run() without admission).
  std::uint64_t trace_id{0};
  [[nodiscard]] bool expired() const {
    return clock != nullptr && clock->now() >= deadline;
  }
};

/// Per-query execution report carried on every Insight: was this answer a
/// cache hit, a summary merge or a record scan, and how wide did it fan
/// out. Shard-visit deltas cover THIS query only (the cumulative service
/// counters live in ServiceStats). `seconds` is 0 when telemetry is
/// disabled — the kill switch removes the clock reads, not just the
/// counters.
struct QueryExecution {
  ServedBy served_by{ServedBy::kScan};
  bool cache_hit{false};
  double seconds{0.0};
  /// Session-engine shard visits (engagement curves + MOS + tally).
  std::uint64_t shards_from_summary{0};
  std::uint64_t shards_scanned{0};
  /// Social-side post-shard visits.
  std::uint64_t post_shards_from_summary{0};
  std::uint64_t post_shards_scanned{0};
  /// Request trace ID (RunBudget::trace_id; 0 = untraced), linking this
  /// report to its /debug/traces TraceRecord.
  std::uint64_t trace_id{0};
  /// Per-phase laps of THIS run (all 0 for cache hits past the probe, and
  /// when telemetry is disabled — the phases share TraceSpan's clock
  /// reads, so the kill switch removes them too).
  double validate_seconds{0.0};
  double cache_probe_seconds{0.0};
  double implicit_seconds{0.0};
  double social_seconds{0.0};
};

/// The aggregated answer.
struct Insight {
  /// Engagement curves over the requested metric, one per action.
  std::vector<EngagementCurve> engagement;
  /// MOS correlation per engagement metric (when enough samples). It is
  /// corpus-wide: the query's window, platform and access filters do not
  /// apply, so the value depends only on the corpus version (which is
  /// what lets the engine memoize it between mutations).
  std::vector<std::pair<EngagementMetric, double>> mos_spearman;
  /// Predicted mean MOS across *all* sessions in the window (backfilled by
  /// the predictor; this is the coverage USaaS adds over raw MOS).
  std::optional<double> predicted_mean_mos;
  /// Observed mean MOS over the sampled subset.
  std::optional<double> observed_mean_mos;
  std::size_t sessions{0};
  std::size_t rated_sessions{0};
  /// Social-side aggregates over the window.
  std::size_t posts{0};
  double strong_positive_share{0.0};  // of strong-scored posts
  std::size_t outage_mention_days{0};
  /// Days whose outage-keyword count exceeded the window mean by 3x.
  std::vector<core::Date> outage_alert_days;
  /// Why the query was rejected (kNone for an answered query).
  QueryError error{QueryError::kNone};
  /// Corpus version this insight was computed against: the number of
  /// successful mutating operations (ingest batches / flushes / retrains)
  /// the snapshot includes. Monotone; two insights with equal versions saw
  /// identical corpora.
  std::uint64_t corpus_version{0};
  /// How many corpus versions behind the service this answer was when it
  /// was served. 0 for every freshly computed or current-version cached
  /// answer; > 0 only on the admission scheduler's degrade path, which
  /// serves a pre-version-bump cache entry instead of shedding (see
  /// QueryService::find_stale_cached — the bound is the caller's
  /// max-versions-behind knob).
  std::uint64_t staleness{0};
  /// How this answer was produced (cache / summary merge / scan) and how
  /// wide it fanned out. Cache hits return the cached aggregates with a
  /// fresh execution report (served_by = kCache, zero shard visits).
  QueryExecution execution;
};

/// Canonical, version-independent fingerprint of a query: equal queries
/// (after cache-key normalization — packed dates, canonical zeros) share
/// it across corpus mutations. Keys the slow-query log.
[[nodiscard]] std::uint64_t query_fingerprint(const Query& query);

/// Estimated heap behind one Insight (the insight-cache byte gauge's unit
/// of account): every owned allocation — the engagement vector's own
/// buffer, each curve's points, the correlation pairs, the alert dates —
/// on top of sizeof(Insight).
[[nodiscard]] std::size_t insight_heap_bytes(const Insight& insight);

/// What a query is expected to cost before running it, assembled from the
/// fingerprint-keyed slow-query history and the summary-vs-scan fanout
/// predictor (the same whole-month / boundary-cut rule the social side
/// executes). The admission scheduler maps this to tokens; it is an
/// estimate, never a promise.
struct QueryCostEstimate {
  /// The current corpus version already has a cached entry: the query
  /// would be served in O(1) regardless of its shape.
  bool cached{false};
  /// Whole months inside the window (answerable from per-shard summaries
  /// when summaries are on) vs boundary-cut months that force rescans.
  std::uint64_t summary_months{0};
  std::uint64_t scan_months{0};
  /// Worst observed latency for this fingerprint, < 0 when the slow-query
  /// log has no history.
  double slow_log_seconds{-1.0};
};

struct QueryServiceConfig {
  /// Worker threads for ingest partitioning and query fan-out; <= 1 runs
  /// everything on the calling thread. Results are identical either way.
  std::size_t threads{0};
  /// Tier-1 insight cache: maximum cached insights, keyed on (canonical
  /// query fingerprint, corpus version). 0 disables caching. Version is
  /// part of the key, so mutations never flush the cache — stale entries
  /// simply become unreachable and age out of the LRU.
  std::size_t insight_cache_entries{128};
  /// Tier 2: maintain mergeable per-shard summaries so matching cold
  /// queries merge O(shards) precomputed accumulators instead of
  /// rescanning O(sessions) records.
  bool shard_summaries{true};
  /// Layout the summaries precompute; queries must match an axis (and the
  /// grid) exactly to be summary-answerable.
  SummaryConfig summary_layout{};
  /// Metrics/tracing sink; nullptr uses the process-wide
  /// telemetry::Registry::global(). Tests and A/B benches hand each
  /// service its own Registry for isolation. A disabled registry
  /// (USAAS_TELEMETRY=off or Registry{false}) turns every handle into a
  /// no-op and disables the slow-query log and the event journal.
  core::telemetry::Registry* telemetry{nullptr};
  /// Request-trace retention (rings + sampling policy). Forced off — no
  /// rings allocated, no IDs minted — when the registry is disabled.
  core::telemetry::TracerConfig trace{};
  /// Telemetry time-series history (snapshot cadence + retention). Also
  /// forced off with the registry.
  core::telemetry::HistoryConfig history{};
};

/// Thread safety: mutating operations (ingest_calls / ingest_posts /
/// train_predictor) take the corpus RW lock exclusively; run(), stats()
/// and the counters take it shared. Queries may therefore run concurrently
/// with live streaming ingest (see StreamIngestor) and always observe a
/// consistent flushed prefix of the corpus — never a torn shard. Every
/// successful mutation bumps the corpus version; run() stamps the version
/// it answered against into the Insight. Moving a QueryService transfers
/// its lock and its attached family sources; it is only safe while no
/// other thread is using the service.
class QueryService {
  struct Sync;

 public:
  QueryService() : QueryService(QueryServiceConfig{}) {}
  explicit QueryService(QueryServiceConfig config);

  QueryService(QueryService&&) = default;
  QueryService& operator=(QueryService&&) = default;

  /// Ingests implicit + explicit corpora. May be called repeatedly.
  /// Posts are sentiment- and outage-keyword-scored here, in parallel
  /// (PostStore::ingest).
  void ingest_calls(std::span<const confsim::CallRecord> calls);
  void ingest_posts(std::span<const social::Post> posts);

  /// Trains the MOS predictor on everything ingested so far. Returns false
  /// — leaving the service in a defined untrained state, never a stale or
  /// partial one — when fewer than 30 rated sessions exist (including
  /// before any ingest). Safe to call repeatedly.
  bool train_predictor();
  [[nodiscard]] bool predictor_trained() const {
    const auto guard = sync_->lock.read();
    return predictor_trained_;
  }

  /// Answers a query from the ingested signals. Invalid queries (see
  /// Query::valid) yield an empty Insight.
  [[nodiscard]] Insight run(const Query& query) const {
    return run(query, RunBudget{});
  }

  /// run() with a cooperative deadline: when `budget` expires mid-
  /// computation the fan-out is abandoned at the next phase boundary and
  /// the returned Insight carries QueryError::kDeadlineExceeded with a
  /// ServedBy::kExpired execution report — never a torn partial answer,
  /// and never a cache entry. A cache hit is served even past the
  /// deadline (it is O(1) and strictly better than an error).
  [[nodiscard]] Insight run(const Query& query, const RunBudget& budget) const;

  /// Pre-admission cost probe (no shard is visited, the LRU order and the
  /// cache hit/miss counters are untouched): slow-query history for this
  /// fingerprint, the summary-vs-scan month split of the window, and
  /// whether the current version is already cached.
  [[nodiscard]] QueryCostEstimate estimate_query(const Query& query) const;

  /// The admission scheduler's degrade path: probe the insight cache for
  /// the NEWEST entry of this query at most `max_versions_behind`
  /// versions behind the current corpus (behind = 0 is a fresh hit). A
  /// hit comes back stamped with `staleness` = versions behind and a
  /// kCache execution report; nullopt when nothing within the bound is
  /// cached. Counts as ordinary cache traffic in stats().
  [[nodiscard]] std::optional<Insight> find_stale_cached(
      const Query& query, std::uint64_t max_versions_behind) const;

  [[nodiscard]] std::size_t ingested_sessions() const {
    const auto guard = sync_->lock.read();
    return engine_.session_count();
  }
  [[nodiscard]] std::size_t ingested_posts() const {
    const auto guard = sync_->lock.read();
    return posts_.post_count();
  }
  [[nodiscard]] std::size_t session_shards() const {
    const auto guard = sync_->lock.read();
    return engine_.shard_count();
  }
  [[nodiscard]] std::size_t post_shards() const {
    const auto guard = sync_->lock.read();
    return posts_.shard_count();
  }

  /// Number of successful mutating operations absorbed so far. Monotone;
  /// safe to poll from any thread.
  [[nodiscard]] std::uint64_t corpus_version() const {
    return sync_->version.load(std::memory_order_acquire);
  }

  /// Tier-1 insight-cache counters (cumulative since construction).
  struct InsightCacheStats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t evictions{0};
    std::size_t entries{0};
    std::size_t capacity{0};
    /// Estimated bytes held by cached insights.
    std::size_t bytes{0};
  };

  /// Operational counters, the Insight-adjacent "how is the service
  /// doing" view: per-corpus ingest throughput/phase timings, shard
  /// fan-out, cache. Cheap to call; values are cumulative since
  /// construction. Streaming health lives in StreamIngestor::stats(),
  /// admission outcomes in QueryScheduler::stats().
  struct ServiceStats {
    IngestStats sessions;
    IngestStats posts;
    std::size_t session_shards{0};
    std::size_t post_shards{0};
    std::uint64_t corpus_version{0};
    InsightCacheStats insight_cache;
    /// Tier-2 fan-out: shard visits answered from summaries vs scanned.
    QueryFanoutStats fanout;
    /// Approximate heap held by the per-shard summaries.
    std::size_t summary_bytes{0};
  };
  [[nodiscard]] ServiceStats stats() const;

  /// Appends a component's families, rendered from its own stats()
  /// ledger (the scheduler's usaas_admission_*, the ingestor's
  /// usaas_stream_*) at scrape time.
  using FamilySource =
      std::function<void(std::vector<core::telemetry::MetricFamily>&)>;

  struct Detach {
    Sync* sync{nullptr};
    void operator()(FamilySource* source) const;
  };
  /// Owns an attached source; destroying it detaches the source, waiting
  /// for a scrape already calling it. Make it the owner's last member.
  using FamilyAttachment = std::unique_ptr<FamilySource, Detach>;

  /// Adds `source` to every scrape and history tick while the handle
  /// lives. Sources run one scrape at a time, without the corpus lock.
  [[nodiscard]] FamilyAttachment attach_families(FamilySource source);

  /// What /metrics, /metrics.json and /debug/timeseries render: the
  /// registry's families, those of one stats() snapshot (ingest, cache,
  /// fan-out), then each attached source's. Same-name families merge:
  /// counter samples sharing labels add (two schedulers on one service),
  /// gauge samples keep the highest value.
  [[nodiscard]] std::vector<core::telemetry::MetricFamily> collect_families()
      const;

  /// collect_families() as Prometheus text / a JSON snapshot.
  [[nodiscard]] std::string metrics_text() const;
  [[nodiscard]] std::string metrics_json() const;

  /// The registry this service records into (never null; the config's, or
  /// the process-wide global).
  [[nodiscard]] core::telemetry::Registry& telemetry_registry() const {
    return *telemetry_;
  }

  /// The request tracer, event journal, and time-series history (never
  /// null; disabled no-op instances when the registry is off). The
  /// admission scheduler records traces and journal events here; the HTTP
  /// listener mints IDs, ticks the history, and serves /debug/*.
  [[nodiscard]] core::telemetry::RequestTracer& tracer() const {
    return *tracer_;
  }
  [[nodiscard]] core::telemetry::EventJournal& journal() const {
    return *journal_;
  }
  [[nodiscard]] core::telemetry::TelemetryHistory& history() const {
    return *history_;
  }
  /// Ticks the history with collect_families() (the families /metrics
  /// renders): tick_history() iff the interval has elapsed, returning
  /// whether it folded; force_tick_history() unconditionally.
  bool tick_history(double now_seconds) const;
  void force_tick_history(double now_seconds) const;

  /// Snapshot of the worst-queries log, slowest first.
  [[nodiscard]] std::vector<core::telemetry::SlowQueryEntry> slow_queries()
      const {
    return sync_->slow_log.worst();
  }
  /// IngestStats copies (not references: ingest may mutate them while the
  /// caller reads — snapshots are taken under the corpus read lock).
  [[nodiscard]] IngestStats session_ingest_stats() const {
    const auto guard = sync_->lock.read();
    return engine_.ingest_stats();
  }
  [[nodiscard]] IngestStats post_ingest_stats() const {
    const auto guard = sync_->lock.read();
    return posts_.ingest_stats();
  }

 private:
  /// The canonical insight-cache key: corpus version + every query field
  /// in normalized scalar form. Dates packed by core::pack_day_key; -1
  /// encodes an unset optional. metric_lo/hi are canonicalized (-0.0 -> 0.0) so
  /// operator== and the fingerprint hash agree.
  struct CacheKey {
    std::uint64_t version{0};
    std::int32_t first{0};
    std::int32_t last{0};
    std::int16_t platform{-1};
    std::int16_t access{-1};
    std::int16_t metric{0};
    std::uint64_t bins{0};
    double metric_lo{0.0};
    double metric_hi{0.0};
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    [[nodiscard]] std::size_t operator()(const CacheKey& k) const {
      core::Fingerprint fp;
      fp.mix(k.version);
      fp.mix_signed(k.first);
      fp.mix_signed(k.last);
      fp.mix_signed(k.platform);
      fp.mix_signed(k.access);
      fp.mix_signed(k.metric);
      fp.mix(k.bins);
      fp.mix(k.metric_lo);
      fp.mix(k.metric_hi);
      return static_cast<std::size_t>(fp.digest());
    }
  };

  /// Concurrency state, heap-held so the service stays movable (a move
  /// transfers the lock; see the class comment for when that is safe).
  /// The insight cache lives here under its own mutex: run() probes it
  /// while holding only the shared corpus lock, so concurrent readers
  /// serialize on cache_mu for the (cheap) lookup, not the computation.
  struct Sync {
    Sync(std::size_t cache_capacity, std::size_t slow_log_capacity)
        : cache{cache_capacity}, slow_log{slow_log_capacity} {}
    core::RwLock lock;
    std::atomic<std::uint64_t> version{0};
    /// Held across a scrape's calls into `attached`: a detach waits.
    std::mutex families_mu;
    std::vector<const FamilySource*> attached;
    std::mutex cache_mu;
    core::LruCache<CacheKey, Insight, CacheKeyHash> cache;
    /// Internally synchronized; lives here so run() (const) can record.
    core::telemetry::SlowQueryLog slow_log;
  };

  void bump_version() {
    sync_->version.fetch_add(1, std::memory_order_release);
  }

  [[nodiscard]] static CacheKey make_cache_key(const Query& query,
                                               std::uint64_t version);
  friend std::uint64_t query_fingerprint(const Query& query);
  /// The uncached query evaluation (callers hold the shared corpus lock).
  /// Fills insight.execution's fan-out deltas; `span` (when live) gets
  /// the implicit/social phase laps.
  [[nodiscard]] Insight compute_insight(const Query& query,
                                        std::uint64_t version,
                                        const RunBudget& budget,
                                        core::telemetry::TraceSpan* span) const;
  /// Registers the service-level metric handles in telemetry_.
  void register_telemetry();
  void append_service_families(
      std::vector<core::telemetry::MetricFamily>& families,
      const ServiceStats& stats) const;

  QueryServiceConfig config_;
  std::unique_ptr<Sync> sync_;
  std::unique_ptr<core::ThreadPool> pool_;  // set iff config_.threads >= 2
  CorrelationEngine engine_;
  PostStore posts_;
  /// Resolved telemetry sink (config's registry or the global; never
  /// null). Handles below are null no-ops when the registry is disabled.
  core::telemetry::Registry* telemetry_{nullptr};
  /// Request traces, control-plane events, and metric history — heap-held
  /// (non-movable internals) and never null; disabled instances when the
  /// registry is off.
  std::unique_ptr<core::telemetry::RequestTracer> tracer_;
  std::unique_ptr<core::telemetry::EventJournal> journal_;
  std::unique_ptr<core::telemetry::TelemetryHistory> history_;
  core::telemetry::Histogram query_seconds_;
  core::telemetry::Histogram phase_validate_;
  core::telemetry::Histogram phase_cache_probe_;
  core::telemetry::Histogram phase_implicit_;
  core::telemetry::Histogram phase_social_;
  core::telemetry::Histogram retrain_seconds_;
  /// queries_total{path=...}, indexed by ServedBy.
  std::array<core::telemetry::Counter, 6> queries_by_path_;
  MosPredictor predictor_;
  bool predictor_trained_{false};
};

}  // namespace usaas::service
