// The machinery both shard stores share — CorrelationEngine's sessions
// and PostStore's posts: the two-pass counted ingest driver, the ingest
// phase histograms, the per-shard touch counters, the summary rule, and
// the cancellable per-shard query loop.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/date.h"
#include "core/flat_index.h"
#include "core/telemetry/metrics.h"
#include "core/thread_pool.h"
#include "usaas/session_columns.h"
#include "usaas/signals.h"

namespace usaas::service {

/// How many shard visits queries answered from precomputed summaries vs
/// full record scans. Snapshot type of CorrelationEngine::fanout_stats(),
/// and the per-call visit report both stores fill.
struct QueryFanoutStats {
  std::uint64_t shards_from_summary{0};
  std::uint64_t shards_scanned{0};
};

/// The summary rule both stores plan with: a shard answers from its
/// summary iff it keeps one and the window covers its whole month (a cut
/// month needs per-record date checks).
[[nodiscard]] inline bool answers_from_summary(
    bool has_summary, const std::optional<core::Date>& first,
    const std::optional<core::Date>& last, int month_key) {
  return has_summary && !core::window_cuts_month(first, last, month_key);
}

/// Cooperative-cancellation probe a shard fan-out polls once per shard
/// (see CorrelationEngine::engagement_curves).
using CancelProbe = std::function<bool()>;

/// Per-worker row-index scratch a shard scan selects into. Growing it
/// leaves the new slots uninitialized: selection writes every slot it
/// keeps before reading it, so zero-filling them is wasted work.
using ShardScratch = PodColumn<std::uint32_t>;

/// The one cancellable per-shard loop behind every fan-out (both stores'):
/// runs body(i, scratch) for each i in [0, n) across `pool`, with one
/// scratch buffer per worker chunk. `cancelled`, when set, is polled once
/// per shard; once a poll answers true a relaxed stop flag makes every
/// worker skip the shards it has not started (the flag only widens, so
/// relaxed suffices). Returns false when the loop was cancelled: the
/// caller must then discard its partials.
template <typename Body>
bool for_each_shard(core::ThreadPool* pool, std::size_t n,
                    const CancelProbe& cancelled, Body&& body) {
  std::atomic<bool> stop{false};
  core::parallel_for(pool, n, [&](std::size_t b, std::size_t e) {
    ShardScratch scratch;
    for (std::size_t i = b; i < e; ++i) {
      if (cancelled) {
        if (stop.load(std::memory_order_relaxed)) return;
        if (cancelled()) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
      body(i, scratch);
    }
  });
  return !stop.load(std::memory_order_relaxed);
}

/// A shard's query-touch counters,
/// `usaas_shard_touches_total{corpus,shard,source}`, by answer source:
/// how often each month is summary-merged vs scanned. This is the
/// operator's scanned-versus-summarized month signal: a session month
/// whose scan count climbs is one that queries cut, or ask on an axis no
/// summary holds. Null handles (single-branch no-op bumps) when telemetry
/// is off.
struct ShardTouches {
  core::telemetry::Counter summary;
  core::telemetry::Counter scan;

  /// Registers the pair for the shard of month key `mk`, labelled
  /// "YYYY-MM" + `suffix`. Null or disabled `registry`: registers nothing
  /// and returns null handles.
  [[nodiscard]] static ShardTouches attach(
      core::telemetry::Registry* registry, std::string_view corpus, int mk,
      std::string_view suffix = {});

  void note(bool from_summary, std::uint64_t visits = 1) const {
    (from_summary ? summary : scan).add(visits);
  }
};

/// The per-batch phase histograms `usaas_ingest_batch_seconds{corpus,
/// phase}` — count, plan, scatter, summarize, total — as null no-op
/// handles when telemetry is off or detached.
struct IngestTelemetry {
  std::array<core::telemetry::Histogram, 5> phases;

  /// Registers the histograms for `corpus`; nullptr detaches.
  [[nodiscard]] static IngestTelemetry attach(
      core::telemetry::Registry* registry, std::string_view corpus);
  /// Records one batch's phase laps (no extra clock reads).
  void observe(const IngestStats& batch) const;
};

/// A store's two-pass ingest driver: its grains, cumulative IngestStats,
/// phase histograms, and the counting and permutation scratch it reuses
/// across batches (allocation churn there once dominated the plan phase).
/// Copies carry the scratch too; the next batch overwrites it wholesale.
template <typename Rec>
class TwoPassIngest {
 public:
  /// Grains: minimum input records per pass-1 chunk, minimum slots per
  /// scatter task. `bytes_per_row` is the bytes_moved unit.
  TwoPassIngest(std::size_t count_grain, std::size_t scatter_grain,
                std::size_t bytes_per_row)
      : count_grain_{count_grain},
        scatter_grain_{scatter_grain},
        bytes_per_row_{bytes_per_row} {}

  [[nodiscard]] const IngestStats& stats() const { return stats_; }

  void set_telemetry(core::telemetry::Registry* registry,
                     std::string_view corpus) {
    telemetry_ = IngestTelemetry::attach(registry, corpus);
  }

  /// Ingests `batch` (a no-op when empty). The store supplies:
  ///   emit(record, sink)        sink(key, SourceSlot<Rec>) once per row
  ///                             the input record produces;
  ///   reserve(key, n) -> Slice  n new rows in key's shard (called in key
  ///                             order, single-threaded);
  ///   scatter(slice, src, b, e) writes the slice's rows [b, e) from
  ///                             src[b..e) (tasks run in parallel and
  ///                             touch disjoint rows);
  ///   fold(slice, n)            folds the slice's n new rows into the
  ///                             shard summary (only when `summarize`).
  template <typename In, typename Emit, typename Reserve, typename Scatter,
            typename Fold>
  void run(core::ThreadPool* pool, std::span<const In> batch,
           const Emit& emit, const Reserve& reserve, const Scatter& scatter,
           const Fold& fold, bool summarize) {
    if (batch.empty()) return;
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    const auto t0 = Clock::now();

    // Contiguous in-order chunks. Fan-out is capped by the pool's
    // *effective* parallelism (1 on a single-core host, where both passes
    // then run inline with a single chunk) and floored by the count grain
    // so chunks stay large enough to amortize their counting structures.
    const std::size_t parallelism = core::effective_parallelism(pool);
    const std::size_t chunks =
        std::min({batch.size(), parallelism * 4,
                  std::max<std::size_t>(1, batch.size() / count_grain_)});
    const auto chunk_begin = [&](std::size_t c) {
      return c * batch.size() / chunks;
    };

    // ---- Pass 1: per-chunk x per-shard-key row counts, over a flat dense
    // key index (no node-based map in the inner loop). clear() keeps each
    // count array's range and allocation.
    counts_.resize(chunks);
    for (core::DenseKeyCounts& c : counts_) c.clear();
    core::parallel_for(pool, chunks, [&](std::size_t cb, std::size_t ce) {
      for (std::size_t c = cb; c < ce; ++c) {
        core::DenseKeyCounts& local = counts_[c];
        for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
          emit(batch[i],
               [&](int key, const SourceSlot<Rec>&) { local.add(key); });
        }
      }
    });
    const auto t1 = Clock::now();

    // ---- Plan: prefix-sum the counts, reserve every destination slice,
    // and lay out the batch-wide permutation space (key-major, slot order
    // inside each key).
    const core::ScatterPlan plan = core::build_scatter_plan(counts_);
    IngestStats batch_stats;
    batch_stats.batches = 1;
    using Slice = decltype(reserve(0, std::size_t{0}));
    std::vector<Slice> slices(plan.num_keys);
    key_base_.assign(plan.num_keys + 1, 0);
    for (std::size_t k = 0; k < plan.num_keys; ++k) {
      key_base_[k + 1] = key_base_[k] + plan.totals[k];
      if (plan.totals[k] == 0) continue;
      slices[k] = reserve(plan.min_key + static_cast<int>(k), plan.totals[k]);
      ++batch_stats.shards_touched;
    }
    batch_stats.records = key_base_[plan.num_keys];
    perm_.resize_uninit(batch_stats.records);
    SourceSlot<Rec>* const perm = perm_.data();
    const auto t2 = Clock::now();

    // ---- Pass 2a: the permutation, in parallel over chunks. A chunk's
    // cursor row starts at its prefix-sum offsets, so slot order is (chunk
    // index, in-chunk order) == sequential ingest order, and chunks write
    // disjoint slots (no synchronization, no merge step).
    core::parallel_for(pool, chunks, [&](std::size_t cb, std::size_t ce) {
      for (std::size_t c = cb; c < ce; ++c) {
        std::vector<std::size_t> cursor = plan.chunk_cursor(c);
        for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
          emit(batch[i], [&](int key, const SourceSlot<Rec>& slot) {
            const auto k = static_cast<std::size_t>(key - plan.min_key);
            perm[key_base_[k] + cursor[k]++] = slot;
          });
        }
      }
    });

    // ---- Pass 2b: destination-major scatter. Tasks are contiguous slot
    // sub-ranges within one key's slice, so tasks touch disjoint rows.
    const std::vector<core::ShardRange> tasks =
        core::plan_shard_ranges(plan.totals, parallelism, scatter_grain_);
    core::parallel_for(pool, tasks.size(), [&](std::size_t tb, std::size_t te) {
      for (std::size_t t = tb; t < te; ++t) {
        const core::ShardRange& range = tasks[t];
        scatter(slices[range.key], perm + key_base_[range.key], range.begin,
                range.end);
      }
    });
    const auto t3 = Clock::now();

    // ---- Pass 3 (summaries on): fold each key's new rows, in slot order.
    // Shards are disjoint, so the fold parallelizes over keys.
    if (summarize) {
      core::parallel_for(pool, plan.num_keys, [&](std::size_t kb,
                                                  std::size_t ke) {
        for (std::size_t k = kb; k < ke; ++k) {
          if (plan.totals[k] != 0) fold(slices[k], plan.totals[k]);
        }
      });
    }
    const auto t4 = Clock::now();

    batch_stats.bytes_moved = batch_stats.records * bytes_per_row_;
    batch_stats.count_seconds = seconds(t0, t1);
    batch_stats.plan_seconds = seconds(t1, t2);
    batch_stats.scatter_seconds = seconds(t2, t3);
    batch_stats.summarize_seconds = seconds(t3, t4);
    batch_stats.total_seconds = seconds(t0, t4);
    stats_.merge(batch_stats);
    telemetry_.observe(batch_stats);
  }

 private:
  std::size_t count_grain_;
  std::size_t scatter_grain_;
  std::size_t bytes_per_row_;
  IngestStats stats_;
  IngestTelemetry telemetry_;
  std::vector<core::DenseKeyCounts> counts_;
  PodColumn<SourceSlot<Rec>> perm_;
  std::vector<std::size_t> key_base_;  // key k's slots: [key_base_[k], [k+1])
};

}  // namespace usaas::service
