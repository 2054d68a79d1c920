#include "usaas/query_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "core/telemetry/exposition.h"

namespace usaas::service {

namespace {

/// Worst-queries log capacity (distinct query fingerprints kept).
constexpr std::size_t kSlowQueryLogEntries = 32;
/// Control-plane event journal capacity (breaker transitions, bias bumps,
/// backpressure).
constexpr std::size_t kEventJournalEntries = 256;

/// Folds families sharing a name into the first, so two components
/// rendering one family (two schedulers on one service), or two tenants
/// whose names sanitize alike, give one series per label set. Counters
/// add up; a gauge keeps the highest value (a queue depth, breaker state
/// or cost bias is a state, and no sum of two states is one of them).
void merge_same_name(std::vector<core::telemetry::MetricFamily>& families) {
  using core::telemetry::MetricKind;
  std::vector<core::telemetry::MetricFamily> merged;
  std::map<std::string, std::size_t> family_at;
  std::map<std::pair<std::size_t, std::string>, std::size_t> sample_at;
  for (core::telemetry::MetricFamily& family : families) {
    const auto [f, new_family] =
        family_at.try_emplace(family.name, merged.size());
    if (new_family) {
      merged.push_back({family.name, family.help, family.kind, {}});
    }
    std::vector<core::telemetry::Sample>& into = merged[f->second].samples;
    for (core::telemetry::Sample& sample : family.samples) {
      const auto [s, new_series] =
          sample_at.try_emplace({f->second, sample.labels}, into.size());
      if (new_series || family.kind == MetricKind::kHistogram) {
        into.push_back(std::move(sample));
      } else if (family.kind == MetricKind::kCounter) {
        into[s->second].value_u += sample.value_u;
        into[s->second].value_d += sample.value_d;
      } else {
        into[s->second].value_d =
            std::max(into[s->second].value_d, sample.value_d);
      }
    }
  }
  families = std::move(merged);
}

}  // namespace

QueryValidation Query::validate() const {
  if (first > last) {
    return {QueryError::kReversedWindow,
            "window is reversed: first " + first.to_string() + " > last " +
                last.to_string()};
  }
  if (!std::isfinite(metric_lo) || !std::isfinite(metric_hi)) {
    return {QueryError::kNonFiniteMetricRange,
            "metric range bound is NaN or infinite"};
  }
  if (metric_lo >= metric_hi) {
    return {QueryError::kEmptyMetricRange,
            "metric range is empty: lo " + std::to_string(metric_lo) +
                " >= hi " + std::to_string(metric_hi)};
  }
  if (bins == 0) {
    return {QueryError::kZeroBins, "query requests zero bins"};
  }
  return {};
}

QueryService::QueryService(QueryServiceConfig config)
    : config_{config},
      sync_{std::make_unique<Sync>(
          config.insight_cache_entries,
          // The kill switch silences the slow-query log too: without
          // telemetry there are no timings worth ranking.
          (config.telemetry != nullptr ? config.telemetry->enabled()
                                       : core::telemetry::Registry::global()
                                             .enabled())
              ? kSlowQueryLogEntries
              : 0)},
      pool_{config.threads >= 2
                ? std::make_unique<core::ThreadPool>(config.threads)
                : nullptr},
      posts_{config.shard_summaries},
      telemetry_{config.telemetry != nullptr
                     ? config.telemetry
                     : &core::telemetry::Registry::global()} {
  engine_.set_thread_pool(pool_.get());
  posts_.set_thread_pool(pool_.get());
  if (config_.shard_summaries) {
    engine_.configure_summaries(config_.summary_layout);
  }
  register_telemetry();
  // The kill switch silences the whole observability plane: a disabled
  // registry forces the tracer, journal and history into their no-op
  // states (no rings, no IDs, no clock reads) regardless of config.
  const bool observability_on = telemetry_->enabled();
  tracer_ = std::make_unique<core::telemetry::RequestTracer>(
      config_.trace, observability_on);
  journal_ = std::make_unique<core::telemetry::EventJournal>(
      kEventJournalEntries, observability_on);
  history_ = std::make_unique<core::telemetry::TelemetryHistory>(
      config_.history, observability_on);
}

bool QueryService::tick_history(double now_seconds) const {
  return history_->tick(now_seconds, [this] { return collect_families(); });
}

void QueryService::force_tick_history(double now_seconds) const {
  history_->force_tick(now_seconds, [this] { return collect_families(); });
}

void QueryService::Detach::operator()(FamilySource* source) const {
  {
    const std::lock_guard<std::mutex> lock{sync->families_mu};
    std::erase(sync->attached, source);
  }
  delete source;
}

QueryService::FamilyAttachment QueryService::attach_families(
    FamilySource source) {
  FamilyAttachment handle{
      std::make_unique<FamilySource>(std::move(source)).release(),
      Detach{sync_.get()}};
  const std::lock_guard<std::mutex> lock{sync_->families_mu};
  sync_->attached.push_back(handle.get());
  return handle;
}

void QueryService::register_telemetry() {
  engine_.set_telemetry(telemetry_, "sessions");
  posts_.set_telemetry(telemetry_);
  core::telemetry::Registry& reg = *telemetry_;
  query_seconds_ = reg.histogram("usaas_query_seconds",
                                 "End-to-end QueryService::run latency");
  const auto phase = [&](const char* name) {
    return reg.histogram("usaas_query_phase_seconds",
                         "Per-phase query latency (validate, cache probe, "
                         "implicit fan-out, social fan-out)",
                         {{"phase", name}});
  };
  phase_validate_ = phase("validate");
  phase_cache_probe_ = phase("cache-probe");
  phase_implicit_ = phase("implicit");
  phase_social_ = phase("social");
  retrain_seconds_ = reg.histogram(
      "usaas_retrain_seconds",
      "MOS predictor retrain latency (train + summary tally refresh)");
  const auto path_counter = [&](ServedBy path) {
    return reg.counter("usaas_queries_total",
                       "Queries answered, by serving path",
                       {{"path", to_string(path)}});
  };
  queries_by_path_ = {path_counter(ServedBy::kCache),
                      path_counter(ServedBy::kSummaryMerge),
                      path_counter(ServedBy::kScan),
                      path_counter(ServedBy::kMixed),
                      path_counter(ServedBy::kInvalid),
                      path_counter(ServedBy::kExpired)};
}

void QueryService::ingest_calls(std::span<const confsim::CallRecord> calls) {
  const auto guard = sync_->lock.write();
  engine_.ingest(calls);
  predictor_trained_ = false;  // stale
  if (!calls.empty()) bump_version();
}

void QueryService::ingest_posts(std::span<const social::Post> posts) {
  if (posts.empty()) return;
  const auto guard = sync_->lock.write();
  posts_.ingest(posts);
  bump_version();
}

QueryService::ServiceStats QueryService::stats() const {
  ServiceStats out;
  {
    const auto guard = sync_->lock.read();
    out.sessions = engine_.ingest_stats();
    out.posts = posts_.ingest_stats();
    out.session_shards = engine_.shard_count();
    out.post_shards = posts_.shard_count();
    out.corpus_version = sync_->version.load(std::memory_order_acquire);
    out.fanout = engine_.fanout_stats();
    out.summary_bytes = engine_.summary_memory_bytes();
  }
  {
    const std::lock_guard<std::mutex> lock{sync_->cache_mu};
    out.insight_cache = {sync_->cache.hits(),     sync_->cache.misses(),
                         sync_->cache.evictions(), sync_->cache.size(),
                         sync_->cache.capacity(),  sync_->cache.bytes()};
  }
  return out;
}

bool QueryService::train_predictor() {
  core::telemetry::TraceSpan span{retrain_seconds_};
  const auto guard = sync_->lock.write();
  predictor_trained_ = false;
  // Canonical (month, platform, ingest) collection order: the fitted model
  // is bit-identical at any thread count and batch split.
  const auto rated = engine_.rated_sessions_canonical();
  if (rated.size() < MosPredictor::kMinRatedSessions) {
    predictor_.reset();
    engine_.clear_predicted_tallies();
    bump_version();
    return false;
  }
  predictor_.train(rated);
  predictor_trained_ = true;
  // Refresh the summaries' predicted-MOS sums under the same write lock,
  // so tally() can answer predicted aggregates without re-running the
  // predictor over every session on each query.
  engine_.refresh_predicted_tallies(&predictor_);
  bump_version();
  return true;
}

QueryService::CacheKey QueryService::make_cache_key(const Query& query,
                                                    std::uint64_t version) {
  CacheKey key;
  key.version = version;
  key.first = core::pack_day_key(query.first);
  key.last = core::pack_day_key(query.last);
  key.platform = query.platform
                     ? static_cast<std::int16_t>(*query.platform)
                     : std::int16_t{-1};
  key.access = query.access ? static_cast<std::int16_t>(*query.access)
                            : std::int16_t{-1};
  key.metric = static_cast<std::int16_t>(query.metric);
  key.bins = query.bins;
  // Canonicalize signed zeros so operator== and the hash agree.
  key.metric_lo = query.metric_lo == 0.0 ? 0.0 : query.metric_lo;
  key.metric_hi = query.metric_hi == 0.0 ? 0.0 : query.metric_hi;
  return key;
}

std::uint64_t query_fingerprint(const Query& query) {
  // Version 0 pins the version field: the fingerprint identifies the
  // query shape alone, stable across corpus mutations (unlike the insight
  // cache key, which is deliberately version-scoped).
  const QueryService::CacheKey key = QueryService::make_cache_key(query, 0);
  return static_cast<std::uint64_t>(QueryService::CacheKeyHash{}(key));
}

std::size_t insight_heap_bytes(const Insight& insight) {
  std::size_t bytes = sizeof(Insight);
  // The engagement vector's own buffer holds the EngagementCurve structs;
  // each curve then owns its points buffer. Counting only the inner
  // buffers (as an earlier revision did) undercounts by
  // capacity * sizeof(EngagementCurve) per cached insight, so the cache
  // byte gauge drifted below the real footprint as entries accumulated.
  bytes += insight.engagement.capacity() * sizeof(EngagementCurve);
  for (const EngagementCurve& c : insight.engagement) {
    bytes += c.points.capacity() * sizeof(CurvePoint);
  }
  bytes += insight.mos_spearman.capacity() *
           sizeof(std::pair<EngagementMetric, double>);
  bytes += insight.outage_alert_days.capacity() * sizeof(core::Date);
  return bytes;
}

Insight QueryService::run(const Query& query,
                          const RunBudget& budget) const {
  core::telemetry::TraceSpan span{query_seconds_};
  Insight insight;
  const QueryValidation verdict = query.validate();
  insight.error = verdict.error;
  const double validate_lap = span.lap(phase_validate_);
  insight.execution.trace_id = budget.trace_id;
  insight.execution.validate_seconds = validate_lap;
  if (!verdict.ok()) {
    insight.execution.served_by = ServedBy::kInvalid;
    insight.execution.seconds = span.finish();
    queries_by_path_[static_cast<std::size_t>(ServedBy::kInvalid)].add();
    return insight;
  }

  // One shared guard across the whole fan-out: the insight is a consistent
  // snapshot of a flushed corpus prefix, stamped with its version. The
  // cache probe happens under the same guard, so the version we key on is
  // the version we'd compute against — a concurrent mutation bumps the
  // version first (under the write lock), making every older entry
  // unreachable rather than momentarily stale.
  const auto guard = sync_->lock.read();
  const std::uint64_t version =
      sync_->version.load(std::memory_order_acquire);
  const bool cache_on = sync_->cache.capacity() > 0;
  bool cache_hit = false;
  CacheKey key;
  if (cache_on) {
    key = make_cache_key(query, version);
    const std::lock_guard<std::mutex> cache_lock{sync_->cache_mu};
    if (const Insight* hit = sync_->cache.find(key)) {
      insight = *hit;
      cache_hit = true;
    }
  }
  const double probe_lap = span.lap(phase_cache_probe_);
  if (cache_hit) {
    // The cached aggregates, but THIS run's execution report: nothing was
    // recomputed, so the fan-out deltas are zero.
    insight.execution = {};
    insight.execution.served_by = ServedBy::kCache;
    insight.execution.cache_hit = true;
    insight.execution.trace_id = budget.trace_id;
    insight.execution.validate_seconds = validate_lap;
    insight.execution.cache_probe_seconds = probe_lap;
    insight.execution.seconds = span.finish();
    queries_by_path_[static_cast<std::size_t>(ServedBy::kCache)].add();
    core::telemetry::SlowQueryEntry slow{
        query_fingerprint(query), insight.execution.seconds,
        to_string(ServedBy::kCache), 0, 0, insight.sessions, version, 1};
    slow.trace_id = budget.trace_id;
    sync_->slow_log.record(slow);
    return insight;
  }
  insight = compute_insight(query, version, budget, &span);
  insight.execution.trace_id = budget.trace_id;
  insight.execution.validate_seconds = validate_lap;
  insight.execution.cache_probe_seconds = probe_lap;
  if (insight.error == QueryError::kDeadlineExceeded) {
    // Abandoned mid-fan-out: an explicit error skeleton, never cached
    // (the aggregates were never finished) and never slow-logged (a
    // truncated run is not a cost observation — recording its short
    // runtime would teach the admission estimator that expensive scans
    // are cheap).
    insight.execution.served_by = ServedBy::kExpired;
    insight.execution.seconds = span.finish();
    queries_by_path_[static_cast<std::size_t>(ServedBy::kExpired)].add();
    return insight;
  }
  // Classify over session + post shard visits combined: summary-merge
  // only when no shard anywhere was rescanned.
  const QueryExecution& exec = insight.execution;
  const std::uint64_t merged =
      exec.shards_from_summary + exec.post_shards_from_summary;
  const std::uint64_t scanned =
      exec.shards_scanned + exec.post_shards_scanned;
  ServedBy path = ServedBy::kScan;
  if (merged > 0) {
    path = scanned > 0 ? ServedBy::kMixed : ServedBy::kSummaryMerge;
  }
  insight.execution.served_by = path;
  if (cache_on) {
    const std::lock_guard<std::mutex> cache_lock{sync_->cache_mu};
    sync_->cache.insert(key, insight, insight_heap_bytes(insight));
  }
  insight.execution.seconds = span.finish();
  queries_by_path_[static_cast<std::size_t>(path)].add();
  core::telemetry::SlowQueryEntry slow{
      query_fingerprint(query), insight.execution.seconds, to_string(path),
      merged, scanned, insight.sessions, version, 1};
  slow.trace_id = budget.trace_id;
  sync_->slow_log.record(slow);
  return insight;
}

QueryCostEstimate QueryService::estimate_query(const Query& query) const {
  QueryCostEstimate est;
  if (const auto history = sync_->slow_log.find(query_fingerprint(query))) {
    est.slow_log_seconds = history->seconds;
  }
  if (!query.validate().ok()) return est;  // rejected in O(1) by run()

  const auto guard = sync_->lock.read();
  const std::uint64_t version =
      sync_->version.load(std::memory_order_acquire);
  if (sync_->cache.capacity() > 0) {
    const std::lock_guard<std::mutex> cache_lock{sync_->cache_mu};
    // contains() leaves the LRU order and hit/miss counters alone: an
    // admission probe must not look like query traffic.
    est.cached = sync_->cache.contains(make_cache_key(query, version));
  }

  // Apply the shards' summary rule without visiting any shard, in O(1)
  // however wide the (wire-supplied) window: only its first and last
  // months can be cut, so every interior month answers alike.
  const int mk_first = core::month_key(query.first);
  const int mk_last = core::month_key(query.last);
  const auto summary = [&](int mk) -> std::uint64_t {
    return answers_from_summary(config_.shard_summaries, query.first,
                                query.last, mk);
  };
  const auto months = static_cast<std::uint64_t>(mk_last - mk_first + 1);
  est.summary_months = summary(mk_first);
  if (mk_last != mk_first) {
    est.summary_months +=
        summary(mk_last) + (months - 2) * summary(mk_first + 1);
  }
  est.scan_months = months - est.summary_months;
  return est;
}

std::optional<Insight> QueryService::find_stale_cached(
    const Query& query, std::uint64_t max_versions_behind) const {
  if (!query.validate().ok()) return std::nullopt;
  const auto guard = sync_->lock.read();
  if (sync_->cache.capacity() == 0) return std::nullopt;
  const std::uint64_t version =
      sync_->version.load(std::memory_order_acquire);
  const std::lock_guard<std::mutex> cache_lock{sync_->cache_mu};
  // Freshest-first: a behind=0 hit is just a regular cache hit with
  // staleness 0, so degrading never serves older data than run() would.
  for (std::uint64_t behind = 0; behind <= max_versions_behind; ++behind) {
    if (behind > version) break;
    if (const Insight* hit =
            sync_->cache.find(make_cache_key(query, version - behind))) {
      Insight out = *hit;
      out.staleness = behind;
      out.execution = {};
      out.execution.served_by = ServedBy::kCache;
      out.execution.cache_hit = true;
      return out;
    }
  }
  return std::nullopt;
}

Insight QueryService::compute_insight(const Query& query,
                                      std::uint64_t version,
                                      const RunBudget& budget,
                                      core::telemetry::TraceSpan* span) const {
  // The cooperative-cancellation exit: a deadline-exceeded run hands
  // back a *fresh* skeleton, never the partially-filled `insight` below
  // — callers must never see half an answer.
  const auto expired_skeleton = [version] {
    Insight out;
    out.corpus_version = version;
    out.error = QueryError::kDeadlineExceeded;
    return out;
  };
  Insight insight;
  insight.corpus_version = version;
  // This query's session-engine fan-out, accumulated by the engine calls
  // below (the engine's cumulative counters are bumped as before).
  QueryFanoutStats fanout;

  // The access restriction rides in the selector (a structural per-record
  // predicate), not an opaque ParticipantFilter — that keeps access
  // queries summary-answerable from the per-access buckets.
  const ShardSelector selector{query.first, query.last, query.platform,
                               query.access};
  const ParticipantFilter filter;  // none: every restriction is structural

  // ---- Implicit side: fan the binning + tallies across shards ----
  SweepSpec spec;
  spec.metric = query.metric;
  spec.lo = query.metric_lo;
  spec.hi = query.metric_hi;
  spec.bins = query.bins;
  spec.control_others = false;  // queries want the full population view
  if (budget.expired()) return expired_skeleton();
  // One fan-out bins all three engagement curves and tallies the
  // sessions, one pass per scanned shard; it polls the budget per shard
  // (like the social fan-out below) and its partial answer is discarded
  // by the check after it. A budget without a clock never expires, so it
  // passes no probe at all.
  CancelProbe deadline_probe;
  if (budget.clock != nullptr) {
    deadline_probe = [&budget] { return budget.expired(); };
  }
  CorrelationEngine::CurvesAndTally implicit = engine_.curves_and_tally(
      spec, filter, selector, predictor_trained_ ? &predictor_ : nullptr,
      &fanout, deadline_probe);
  if (budget.expired()) return expired_skeleton();
  insight.engagement = std::move(implicit.curves);
  for (const EngagementMetric m :
       {EngagementMetric::kPresence, EngagementMetric::kCamOn,
        EngagementMetric::kMicOn}) {
    if (const auto corr = engine_.mos_correlation(m, 50, &fanout)) {
      insight.mos_spearman.emplace_back(m, corr->spearman);
    }
  }

  const CorrelationEngine::Tally& tally = implicit.tally;
  insight.sessions = tally.sessions;
  insight.rated_sessions = tally.rated;
  if (tally.rated > 0) {
    insight.observed_mean_mos =
        tally.observed_mos_sum / static_cast<double>(tally.rated);
  }
  if (tally.predicted > 0) {
    insight.predicted_mean_mos =
        tally.predicted_mos_sum / static_cast<double>(tally.predicted);
  }
  insight.execution.shards_from_summary = fanout.shards_from_summary;
  insight.execution.shards_scanned = fanout.shards_scanned;
  if (span != nullptr) {
    insight.execution.implicit_seconds = span->lap(phase_implicit_);
  }
  if (budget.expired()) return expired_skeleton();

  // ---- Explicit (social) side: the post store's month shards ----
  QueryFanoutStats post_fanout;
  std::optional<SocialAggregates> social =
      posts_.aggregate(query.first, query.last, &post_fanout, deadline_probe);
  if (!social) return expired_skeleton();
  insight.execution.post_shards_from_summary = post_fanout.shards_from_summary;
  insight.execution.post_shards_scanned = post_fanout.shards_scanned;
  insight.posts = social->posts;
  insight.strong_positive_share = social->strong_positive_share;
  insight.outage_mention_days = social->outage_mention_days;
  insight.outage_alert_days = std::move(social->outage_alert_days);
  if (span != nullptr) {
    insight.execution.social_seconds = span->lap(phase_social_);
  }
  return insight;
}

std::vector<core::telemetry::MetricFamily> QueryService::collect_families()
    const {
  std::vector<core::telemetry::MetricFamily> families =
      telemetry_->collect();
  // Service-derived families are built from ONE stats() snapshot and
  // rendered through the same formatting path as registry metrics: the
  // exposition endpoint and stats() cannot disagree about a counter.
  append_service_families(families, stats());
  {
    // stats() above released the corpus lock: a source may wait on a
    // component (an ingestor mid-flush) that needs the write lock.
    const std::lock_guard<std::mutex> lock{sync_->families_mu};
    for (const FamilySource* source : sync_->attached) (*source)(families);
  }
  merge_same_name(families);
  return families;
}

void QueryService::append_service_families(
    std::vector<core::telemetry::MetricFamily>& families,
    const ServiceStats& stats) const {
  using core::telemetry::MetricKind;
  using core::telemetry::Sample;
  const auto counter_sample = core::telemetry::integer_sample;
  const auto gauge_sample = core::telemetry::floating_sample;
  const auto add = [&](const char* name, const char* help, MetricKind kind,
                       std::vector<Sample> samples) {
    families.push_back({name, help, kind, std::move(samples)});
  };
  const auto per_corpus = [&](const char* name, const char* help,
                              std::uint64_t sessions, std::uint64_t posts) {
    add(name, help, MetricKind::kCounter,
        {counter_sample("corpus=\"sessions\"", sessions),
         counter_sample("corpus=\"posts\"", posts)});
  };

  per_corpus("usaas_ingest_batches_total", "Batch ingests absorbed",
             stats.sessions.batches, stats.posts.batches);
  per_corpus("usaas_ingest_records_total", "Records ingested",
             stats.sessions.records, stats.posts.records);
  per_corpus("usaas_ingest_bytes_moved_total",
             "Bytes copied into shard storage", stats.sessions.bytes_moved,
             stats.posts.bytes_moved);
  per_corpus("usaas_ingest_shards_touched_total",
             "Destination shards written, summed over batches",
             stats.sessions.shards_touched, stats.posts.shards_touched);
  {
    std::vector<Sample> samples;
    const auto phases = [&](const char* corpus, const IngestStats& is) {
      const std::pair<const char*, double> rows[] = {
          {"count", is.count_seconds},
          {"plan", is.plan_seconds},
          {"scatter", is.scatter_seconds},
          {"summarize", is.summarize_seconds},
          {"total", is.total_seconds}};
      for (const auto& [name, v] : rows) {
        samples.push_back(gauge_sample(std::string{"corpus=\""} + corpus +
                                           "\",phase=\"" + name + "\"",
                                       v));
      }
    };
    phases("sessions", stats.sessions);
    phases("posts", stats.posts);
    add("usaas_ingest_phase_seconds_total",
        "Cumulative batch-ingest time per pipeline phase",
        MetricKind::kCounter, std::move(samples));
  }
  add("usaas_shards", "Live shard count", MetricKind::kGauge,
      {gauge_sample("corpus=\"sessions\"",
                    static_cast<double>(stats.session_shards)),
       gauge_sample("corpus=\"posts\"",
                    static_cast<double>(stats.post_shards))});
  add("usaas_corpus_version",
      "Successful mutating operations absorbed (monotone)",
      MetricKind::kCounter, {counter_sample("", stats.corpus_version)});

  add("usaas_insight_cache_lookups_total",
      "Insight cache probes, by outcome", MetricKind::kCounter,
      {counter_sample("outcome=\"hit\"", stats.insight_cache.hits),
       counter_sample("outcome=\"miss\"", stats.insight_cache.misses)});
  add("usaas_insight_cache_evictions_total", "LRU evictions",
      MetricKind::kCounter,
      {counter_sample("", stats.insight_cache.evictions)});
  add("usaas_insight_cache_entries", "Cached insights", MetricKind::kGauge,
      {gauge_sample("", static_cast<double>(stats.insight_cache.entries))});
  add("usaas_insight_cache_capacity", "Cache capacity", MetricKind::kGauge,
      {gauge_sample("", static_cast<double>(stats.insight_cache.capacity))});
  add("usaas_insight_cache_bytes", "Estimated cached-insight bytes",
      MetricKind::kGauge,
      {gauge_sample("", static_cast<double>(stats.insight_cache.bytes))});

  add("usaas_query_fanout_shards_total",
      "Shard visits answered from summaries vs record scans",
      MetricKind::kCounter,
      {counter_sample("source=\"summary\"", stats.fanout.shards_from_summary),
       counter_sample("source=\"scan\"", stats.fanout.shards_scanned)});
  add("usaas_summary_bytes", "Heap held by per-shard summaries",
      MetricKind::kGauge,
      {gauge_sample("", static_cast<double>(stats.summary_bytes))});

  const std::vector<core::telemetry::SlowQueryEntry> slow =
      sync_->slow_log.worst();
  if (!slow.empty()) {
    std::vector<Sample> samples;
    samples.reserve(slow.size());
    for (const core::telemetry::SlowQueryEntry& e : slow) {
      char fp[24];
      std::snprintf(fp, sizeof fp, "%016llx",
                    static_cast<unsigned long long>(e.fingerprint));
      samples.push_back(gauge_sample(std::string{"fingerprint=\""} + fp +
                                         "\",path=\"" + e.path + "\"",
                                     e.seconds));
    }
    add("usaas_slow_query_seconds",
        "Worst observed latency per slow-logged query fingerprint",
        MetricKind::kGauge, std::move(samples));
  }
}

std::string QueryService::metrics_text() const {
  return core::telemetry::to_prometheus(collect_families());
}

std::string QueryService::metrics_json() const {
  return core::telemetry::to_json(collect_families(),
                                  sync_->slow_log.worst());
}

}  // namespace usaas::service
