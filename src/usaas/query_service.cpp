#include "usaas/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/flat_index.h"
#include "core/telemetry/exposition.h"
#include "core/timeseries.h"

namespace usaas::service {

namespace {

using core::month_key;

[[nodiscard]] double seconds_between(
    std::chrono::steady_clock::time_point a,
    std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
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
              ? config.slow_query_log_entries
              : 0)},
      pool_{config.threads >= 2
                ? std::make_unique<core::ThreadPool>(config.threads)
                : nullptr},
      telemetry_{config.telemetry != nullptr
                     ? config.telemetry
                     : &core::telemetry::Registry::global()} {
  engine_.set_thread_pool(pool_.get());
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
      config_.event_journal_entries, observability_on);
  history_ = std::make_unique<core::telemetry::TelemetryHistory>(
      telemetry_, config_.history, observability_on);
}

void QueryService::register_telemetry() {
  engine_.set_telemetry(telemetry_, "sessions");
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
  const auto post_phase = [&](const char* name) {
    return reg.histogram(
        "usaas_ingest_batch_seconds",
        "Per-batch ingest phase durations (two-pass counted pipeline)",
        {{"corpus", "posts"}, {"phase", name}});
  };
  post_ingest_tel_ = {post_phase("count"), post_phase("plan"),
                      post_phase("scatter"), post_phase("summarize"),
                      post_phase("total")};
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
  const auto t0 = std::chrono::steady_clock::now();

  // Two-pass counted ingest, like CorrelationEngine::ingest — but the
  // scatter is destination-major: pass 1 counts per (chunk, month key);
  // the plan phase prefix-sums into pre-reserved per-shard slices, builds
  // the slot -> input permutation, and splits the per-shard slot ranges
  // into tasks (a hot shard holding most of the batch fans out across
  // workers instead of serializing); the scatter phase then runs the
  // fused single-pass scorer straight into the final slots, folding each
  // task's summary partial as it writes. Slot order == sequential ingest
  // order, and the summary sums are exact (integer counts / integral
  // doubles), so any task partition reproduces the 1-thread output
  // bit-identically.
  constexpr std::size_t kGrainPosts = 32;
  const std::size_t parallelism = core::effective_parallelism(pool_.get());
  const std::size_t chunks =
      std::min({posts.size(), parallelism * 4,
                std::max<std::size_t>(1, posts.size() / kGrainPosts)});
  const auto chunk_begin = [&](std::size_t c) {
    return c * posts.size() / chunks;
  };

  std::vector<core::DenseKeyCounts> counts(chunks);
  core::parallel_for(
      pool_.get(), chunks, [&](std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
          for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
            counts[c].add(month_key(posts[i].date));
          }
        }
      });
  const auto t1 = std::chrono::steady_clock::now();

  const core::ScatterPlan plan = core::build_scatter_plan(counts);
  struct Slice {
    ScoredPost* posts{nullptr};
    PostShard* shard{nullptr};  // map nodes are stable
  };
  std::vector<Slice> slices(plan.num_keys);
  IngestStats batch;
  batch.batches = 1;
  batch.records = posts.size();
  batch.bytes_moved = posts.size() * sizeof(ScoredPost);
  for (std::size_t k = 0; k < plan.num_keys; ++k) {
    if (plan.totals[k] == 0) continue;
    const int mk = plan.min_key + static_cast<int>(k);
    PostShard& shard = post_shards_[mk];
    if (!shard.summary_touches && telemetry_->enabled()) {
      // First sighting of this shard: register its access counters (the
      // spill-to-disk eviction signal). Null handles stay null under the
      // kill switch, so a disabled registry registers nothing.
      char label[16];
      std::snprintf(label, sizeof label, "%04d-%02d", mk / 12, mk % 12 + 1);
      const auto touch = [&](const char* source) {
        return telemetry_->counter(
            "usaas_shard_touches_total",
            "Per-shard query touches by answer source (summary merge vs "
            "record scan) — the eviction signal for spill-to-disk",
            {{"corpus", "posts"}, {"shard", label}, {"source", source}});
      };
      shard.summary_touches = touch("summary");
      shard.scan_touches = touch("scan");
    }
    const std::size_t base = shard.posts.size();
    shard.posts.resize(base + plan.totals[k]);
    slices[k] = {shard.posts.data() + base, &shard};
    ++batch.shards_touched;
  }

  // Global slot numbering: key k's slice covers slots [key_base[k],
  // key_base[k+1]). The permutation maps each slot back to its input
  // index; chunks write disjoint slot sets (their cursor rows), so the
  // fill parallelizes without synchronization.
  std::vector<std::size_t> key_base(plan.num_keys + 1, 0);
  for (std::size_t k = 0; k < plan.num_keys; ++k) {
    key_base[k + 1] = key_base[k] + plan.totals[k];
  }
  std::vector<std::size_t> order(posts.size());
  core::parallel_for(
      pool_.get(), chunks, [&](std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
          std::vector<std::size_t> cursor = plan.chunk_cursor(c);
          for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
            const auto k = static_cast<std::size_t>(
                month_key(posts[i].date) - plan.min_key);
            order[key_base[k] + cursor[k]++] = i;
          }
        }
      });
  const bool fold = config_.shard_summaries;
  const std::vector<core::ShardRange> tasks =
      core::plan_shard_ranges(plan.totals, parallelism, kGrainPosts);
  struct SummaryPartial {
    std::size_t strong_pos{0};
    std::size_t strong_neg{0};
    std::array<double, 31> day_hits{};
  };
  std::vector<SummaryPartial> partials(fold ? tasks.size() : 0);
  const auto t2 = std::chrono::steady_clock::now();

  // Fused scatter: one scan per post (tokenize + sentiment + keywords in
  // a single pass; see nlp::PostScorer), writing straight into the final
  // slot. Each worker reuses one TokenScratch, so the steady state
  // allocates nothing per post.
  core::parallel_for(
      pool_.get(), tasks.size(), 1, [&](std::size_t tb, std::size_t te) {
        nlp::TokenScratch scratch;
        for (std::size_t t = tb; t < te; ++t) {
          const core::ShardRange& range = tasks[t];
          ScoredPost* const dst = slices[range.key].posts;
          SummaryPartial* const part = fold ? &partials[t] : nullptr;
          const std::size_t* const slot = order.data() + key_base[range.key];
          for (std::size_t s = range.begin; s < range.end; ++s) {
            // The permutation gather is cache-hostile (the Post structs
            // land in random order, and the text lives behind another
            // pointer), so stage the struct a couple dozen slots ahead
            // and its string buffers a few slots ahead — by then the
            // struct line is resident and the data pointers are free to
            // read. Recovers ~2x on batches larger than LLC.
            if (s + 24 < range.end) __builtin_prefetch(&posts[slot[s + 24]]);
            if (s + 8 < range.end) {
              const social::Post& ahead = posts[slot[s + 8]];
              __builtin_prefetch(ahead.title.data());
              __builtin_prefetch(ahead.body.data());
              __builtin_prefetch(ahead.body.data() + 64);
            }
            const social::Post& post = posts[slot[s]];
            ScoredPost& scored = dst[s];
            scored.date = post.date;
            scratch.text.assign(post.title);
            scratch.text.push_back(' ');
            scratch.text.append(post.body);
            const nlp::PostScorer::Result res =
                scorer_.score(scratch.text, scratch);
            scored.sentiment = res.sentiment;
            scored.outage_hits = res.keyword_hits;
            if (part != nullptr) {
              if (scored.sentiment.strong_positive()) ++part->strong_pos;
              if (scored.sentiment.strong_negative()) ++part->strong_neg;
              if (scored.outage_hits > 0 &&
                  scored.sentiment.negative >= 0.4) {
                part->day_hits[static_cast<std::size_t>(scored.date.day() -
                                                        1)] +=
                    static_cast<double>(scored.outage_hits);
              }
            }
          }
        }
      });
  const auto t3 = std::chrono::steady_clock::now();

  // Stitch the per-task summary partials into the shard pre-aggregates
  // in task order == slot order == sequential ingest order. Counts are
  // integers and day_hits sums integral doubles, so the stitched result
  // is bit-identical to the 1-thread fold regardless of the split.
  if (fold) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      PostShard& shard = *slices[tasks[t].key].shard;
      shard.strong_pos += partials[t].strong_pos;
      shard.strong_neg += partials[t].strong_neg;
      for (std::size_t d = 0; d < partials[t].day_hits.size(); ++d) {
        shard.day_hits[d] += partials[t].day_hits[d];
      }
    }
  }
  const auto t4 = std::chrono::steady_clock::now();

  post_count_ += posts.size();
  batch.count_seconds = seconds_between(t0, t1);
  batch.plan_seconds = seconds_between(t1, t2);
  batch.scatter_seconds = seconds_between(t2, t3);
  batch.summarize_seconds = seconds_between(t3, t4);
  batch.total_seconds = seconds_between(t0, t4);
  post_ingest_stats_.merge(batch);
  // Reuses the timestamps already taken for IngestStats — no extra clock
  // reads on the instrumented path.
  post_ingest_tel_.count.observe(batch.count_seconds);
  post_ingest_tel_.plan.observe(batch.plan_seconds);
  post_ingest_tel_.scatter.observe(batch.scatter_seconds);
  post_ingest_tel_.summarize.observe(batch.summarize_seconds);
  post_ingest_tel_.total.observe(batch.total_seconds);
  bump_version();
}

void QueryService::publish_stream_health(const StreamHealth& health) {
  const std::lock_guard<std::mutex> lock{sync_->health_mu};
  sync_->health = health;
}

QueryService::ServiceStats QueryService::stats() const {
  ServiceStats out;
  {
    const auto guard = sync_->lock.read();
    out.sessions = engine_.ingest_stats();
    out.posts = post_ingest_stats_;
    out.session_shards = engine_.shard_count();
    out.post_shards = post_shards_.size();
    out.corpus_version = sync_->version.load(std::memory_order_acquire);
    out.fanout = engine_.fanout_stats();
    out.summary_bytes = engine_.summary_memory_bytes();
  }
  {
    const std::lock_guard<std::mutex> lock{sync_->health_mu};
    out.stream = sync_->health;
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
  engine_.refresh_predicted_tallies(
      [this](const confsim::ParticipantRecord& rec) {
        return predictor_.predict(rec);
      });
  bump_version();
  return true;
}

QueryService::CacheKey QueryService::make_cache_key(const Query& query,
                                                    std::uint64_t version) {
  const auto pack = [](const core::Date& d) {
    return static_cast<std::int32_t>(d.year() * 512 + d.month() * 32 +
                                     d.day());
  };
  CacheKey key;
  key.version = version;
  key.first = pack(query.first);
  key.last = pack(query.last);
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

  // Apply the shards' month rule without visiting any shard: only the
  // window's first and last months can be boundary-cut, and only a cut
  // month forces a rescan when summaries are on.
  const int mk_first = month_key(query.first);
  const int mk_last = month_key(query.last);
  const auto window_months =
      static_cast<std::uint64_t>(mk_last - mk_first + 1);
  if (config_.shard_summaries) {
    const auto cuts = [&](int mk) -> std::uint64_t {
      return core::window_cuts_month(query.first, query.last, mk) ? 1 : 0;
    };
    est.scan_months = cuts(mk_first);
    if (mk_last != mk_first) est.scan_months += cuts(mk_last);
    est.summary_months = window_months - est.scan_months;
  } else {
    est.scan_months = window_months;
  }

  // Sessions the window plausibly covers: total ingested records scaled
  // by the window's share of the ingested months (posts shard one-per-
  // month, so post_shards_ counts distinct corpus months).
  const auto corpus_months = static_cast<double>(
      std::max<std::size_t>(post_shards_.size(),
                            static_cast<std::size_t>(window_months)));
  est.window_sessions = static_cast<double>(engine_.ingest_stats().records) *
                        static_cast<double>(window_months) / corpus_months;
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
  // One fused pass bins all three engagement curves; it polls the budget
  // per shard (like the social fan-out below) and its partial curves are
  // discarded by the check after it. A budget without a clock never
  // expires, so it passes no probe at all.
  CancelProbe deadline_probe;
  if (budget.clock != nullptr) {
    deadline_probe = [&budget] { return budget.expired(); };
  }
  insight.engagement = engine_.engagement_curves(spec, filter, selector,
                                                 &fanout, deadline_probe);
  if (budget.expired()) return expired_skeleton();
  for (const EngagementMetric m :
       {EngagementMetric::kPresence, EngagementMetric::kCamOn,
        EngagementMetric::kMicOn}) {
    if (const auto corr = engine_.mos_correlation(m, 50, &fanout)) {
      insight.mos_spearman.emplace_back(m, corr->spearman);
    }
  }

  std::function<double(const confsim::ParticipantRecord&)> predict;
  if (predictor_trained_) {
    predict = [this](const confsim::ParticipantRecord& rec) {
      return predictor_.predict(rec);
    };
  }
  const CorrelationEngine::Tally tally =
      engine_.tally(filter, selector, predict, &fanout);
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

  // ---- Explicit (social) side: pre-scored shards, pruned by month ----
  struct SelectedPosts {
    const PostShard* shard{nullptr};
    int month_key{0};
    bool check_dates{false};
    bool use_summary{false};
  };
  std::vector<SelectedPosts> selected;
  const int mk_first = month_key(query.first);
  const int mk_last = month_key(query.last);
  for (const auto& [mk, shard] : post_shards_) {
    if (mk < mk_first || mk > mk_last) continue;
    // The session shards' rule: only a month the window cuts into needs
    // per-post date checks; a whole-covered month answers from its
    // pre-aggregates.
    const bool check_dates =
        core::window_cuts_month(query.first, query.last, mk);
    selected.push_back(
        {&shard, mk, check_dates, config_.shard_summaries && !check_dates});
  }
  for (const SelectedPosts& sel : selected) {
    if (sel.use_summary) {
      ++insight.execution.post_shards_from_summary;
      sel.shard->summary_touches.add();
    } else {
      ++insight.execution.post_shards_scanned;
      sel.shard->scan_touches.add();
    }
  }

  struct SocialPartial {
    std::size_t posts{0};
    std::size_t strong_pos{0};
    std::size_t strong_neg{0};
    std::vector<std::pair<core::Date, double>> keyword_adds;
  };
  std::vector<SocialPartial> partials(selected.size());
  // The engine's cancellable shard loop: the budget is polled per shard,
  // and a cancelled run's partials are discarded wholesale.
  const bool finished = for_each_shard(
      pool_.get(), selected.size(), deadline_probe,
      [&](std::size_t i, ShardScratch&) {
        const SelectedPosts& sel = selected[i];
        SocialPartial& part = partials[i];
        if (sel.use_summary) {
          // Whole-shard pre-aggregates; per-day keyword sums replay the
          // scan's in-order accumulation (each date receives adds from
          // exactly one month shard), so the reduction is bit-identical.
          part.posts += sel.shard->posts.size();
          part.strong_pos += sel.shard->strong_pos;
          part.strong_neg += sel.shard->strong_neg;
          const int year = sel.month_key / 12;
          const int month = sel.month_key % 12 + 1;
          for (int d = 0; d < 31; ++d) {
            const double hits = sel.shard->day_hits[static_cast<std::size_t>(d)];
            if (hits > 0.0) {
              part.keyword_adds.emplace_back(core::Date{year, month, d + 1},
                                             hits);
            }
          }
          return;
        }
        for (const ScoredPost& post : sel.shard->posts) {
          if (sel.check_dates &&
              (post.date < query.first || query.last < post.date)) {
            continue;
          }
          ++part.posts;
          if (post.sentiment.strong_positive()) ++part.strong_pos;
          if (post.sentiment.strong_negative()) ++part.strong_neg;
          if (post.outage_hits > 0 && post.sentiment.negative >= 0.4) {
            part.keyword_adds.emplace_back(
                post.date, static_cast<double>(post.outage_hits));
          }
        }
      });
  if (!finished) return expired_skeleton();

  core::DailySeries keyword_days{query.first, query.last};
  std::size_t strong_pos = 0;
  std::size_t strong_neg = 0;
  for (const SocialPartial& part : partials) {
    insight.posts += part.posts;
    strong_pos += part.strong_pos;
    strong_neg += part.strong_neg;
    for (const auto& [date, hits] : part.keyword_adds) {
      keyword_days.add(date, hits);
    }
  }
  if (strong_pos + strong_neg > 0) {
    insight.strong_positive_share =
        static_cast<double>(strong_pos) /
        static_cast<double>(strong_pos + strong_neg);
  }
  double day_total = 0.0;
  std::size_t mention_days = 0;
  for (const double v : keyword_days.values()) {
    day_total += v;
    if (v > 0.0) ++mention_days;
  }
  insight.outage_mention_days = mention_days;
  const double day_mean =
      keyword_days.size() == 0
          ? 0.0
          : day_total / static_cast<double>(keyword_days.size());
  for (const auto& [date, value] : keyword_days.entries()) {
    if (day_mean > 0.0 && value > 3.0 * day_mean && value >= 5.0) {
      insight.outage_alert_days.push_back(date);
    }
  }
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
  return families;
}

void QueryService::append_service_families(
    std::vector<core::telemetry::MetricFamily>& families,
    const ServiceStats& stats) const {
  using core::telemetry::MetricFamily;
  using core::telemetry::MetricKind;
  using core::telemetry::Sample;
  const auto counter_sample = [](std::string labels, std::uint64_t v) {
    Sample s;
    s.labels = std::move(labels);
    s.value_u = v;
    return s;
  };
  const auto seconds_sample = [](std::string labels, double v) {
    Sample s;
    s.labels = std::move(labels);
    s.floating = true;
    s.value_d = v;
    return s;
  };
  const auto gauge_sample = [](std::string labels, double v) {
    Sample s;
    s.labels = std::move(labels);
    s.value_d = v;
    return s;
  };
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
        samples.push_back(seconds_sample(std::string{"corpus=\""} + corpus +
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

  add("usaas_stream_records_total",
      "Streaming front-end record outcomes", MetricKind::kCounter,
      {counter_sample("outcome=\"accepted\"", stats.stream.accepted),
       counter_sample("outcome=\"flushed\"", stats.stream.flushed),
       counter_sample("outcome=\"quarantined\"", stats.stream.quarantined),
       counter_sample("outcome=\"dropped\"", stats.stream.dropped),
       counter_sample("outcome=\"rejected\"", stats.stream.rejected)});
  add("usaas_stream_flushes_total", "Flush rounds, by result",
      MetricKind::kCounter,
      {counter_sample("result=\"ok\"", stats.stream.flushes),
       counter_sample("result=\"failed\"", stats.stream.flush_failures),
       counter_sample("result=\"retried\"", stats.stream.flush_retries)});
  add("usaas_stream_backpressure_total",
      "Backpressure events at the streaming front-end (blocked-push: a "
      "push waited on a full kBlock buffer; backoff-wait: a flush retry "
      "slept)",
      MetricKind::kCounter,
      {counter_sample("kind=\"blocked_push\"", stats.stream.blocked_pushes),
       counter_sample("kind=\"backoff_wait\"", stats.stream.backoff_waits)});
  add("usaas_stream_staged_records",
      "Records accepted but not yet queryable (snapshot staleness)",
      MetricKind::kGauge,
      {gauge_sample("", static_cast<double>(stats.stream.staged))});
  add("usaas_stream_degraded",
      "1 while the last flush round failed outright", MetricKind::kGauge,
      {gauge_sample("", stats.stream.degraded ? 1.0 : 0.0)});

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
