// The engagement-vs-network correlation engine: §3's analysis pipeline,
// scaled out as §5 requires.
//
// Consumes participant records exactly as the paper's analysts did —
// session-aggregated network metrics + engagement actions + sampled MOS —
// and produces:
//   * binned engagement curves per network metric with the paper's
//     "other metrics roughly constant" confounder filter (Fig 1, Fig 3);
//   * the 2-D latency x loss compounding grid (Fig 2);
//   * engagement-vs-MOS correlations on the sampled-feedback subset
//     (Fig 4).
// It never reads the behaviour model's parameters: the planted curves
// must be recovered from data.
//
// It is the session shard store (PostStore is the posts' sibling; both
// run the machinery in usaas/shard_store.h): SessionColumns per calendar
// month x client platform, the natural partitioning of the paper's
// Jan-Apr corpus and Fig 3's platform breakdown. Every query plans the
// shards and whether each answers from its summary or a scan, fills one
// partial per shard in parallel through for_each_shard, and merges in
// shard-key order, so results never depend on the thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "confsim/call.h"
#include "core/date.h"
#include "core/histogram.h"
#include "core/telemetry/metrics.h"
#include "core/thread_pool.h"
#include "netsim/conditions.h"
#include "usaas/session_columns.h"
#include "usaas/shard_store.h"
#include "usaas/shard_summary.h"
#include "usaas/signals.h"

namespace usaas::service {

/// One point of a recovered engagement curve.
struct CurvePoint {
  double metric_value{0.0};   // bin center, natural units (ms / % / Mbps)
  double engagement{0.0};     // mean engagement in bin (percentage points)
  std::size_t sessions{0};
};

struct EngagementCurve {
  netsim::Metric network_metric{netsim::Metric::kLatency};
  EngagementMetric engagement_metric{EngagementMetric::kPresence};
  std::vector<CurvePoint> points;

  /// Engagement at the best (first) populated bin minus at the worst
  /// (last) populated bin — the paper's "drops by N%" statements, measured
  /// relative to the curve's own maximum (normalized like Fig 1's y-axis).
  [[nodiscard]] double relative_drop_percent() const;

  /// Curve normalized so its max = 100 (the paper's plotting convention).
  [[nodiscard]] EngagementCurve normalized() const;
};

/// Which session aggregate the analysis reads (§3.1: "we report results
/// using the mean but similar trends hold for P95 values as well").
enum class SessionAggregate {
  kMean,
  kP95,
};

struct SweepSpec {
  netsim::Metric metric{netsim::Metric::kLatency};
  double lo{0.0};
  double hi{300.0};
  std::size_t bins{15};
  netsim::ControlWindows control{};
  /// Apply the others-in-control confounder filter.
  bool control_others{true};
  SessionAggregate aggregate{SessionAggregate::kMean};
};

/// Optional row filter (e.g. by access network for the §5 Starlink query).
using ParticipantFilter =
    std::function<bool(const confsim::ParticipantRecord&)>;

class MosPredictor;

/// Kept for source compatibility only: month x platform is the one shard
/// layout, so the tag selects nothing. usaasbench's EngineReplay still
/// names it; delete with it (ROADMAP item 2).
enum class ShardingPolicy { kMonthPlatform };

/// Shard-level pruning hints a query may carry. Dates are inclusive; any
/// unset field means "no restriction". Pruning never changes results —
/// the date predicate is re-applied per record where a shard straddles a
/// window boundary; platform prunes whole shards.
/// `access` is a pure per-record predicate; carrying it structurally
/// (instead of inside an opaque ParticipantFilter) lets the summary fast
/// path answer access-filtered queries from per-access buckets.
struct ShardSelector {
  std::optional<core::Date> first;
  std::optional<core::Date> last;
  std::optional<confsim::Platform> platform;
  std::optional<netsim::AccessTechnology> access;
};

class CorrelationEngine {
 public:
  CorrelationEngine() = default;
  /// Same as the default constructor (see ShardingPolicy).
  explicit CorrelationEngine(ShardingPolicy /*tag*/) {}

  /// Borrows a pool for parallel ingest + query fan-out; nullptr (the
  /// default) keeps everything on the calling thread. Results do not
  /// depend on the pool or its size.
  void set_thread_pool(core::ThreadPool* pool) { pool_ = pool; }

  /// Registers this engine's batch-ingest phase histograms
  /// (`usaas_ingest_batch_seconds{corpus,phase}`), per-shard access
  /// counters (`usaas_shard_touches_total{corpus,shard,source}`) and MOS
  /// memo counters (`usaas_mos_correlation_memo_total{result}`) in
  /// `registry`; shards created by later ingests register their counters
  /// lazily. Nullptr (or a disabled registry) detaches: ingest performs
  /// no observations and query touches stop counting.
  void set_telemetry(core::telemetry::Registry* registry,
                     std::string_view corpus = "sessions");

  /// Ingests calls (only participants passing the enterprise filter's
  /// per-call requirements are assumed; callers pre-filter calls).
  ///
  /// Runs the shared two-pass driver (TwoPassIngest): every participant
  /// emits its packed (month, platform) key, the scatter is
  /// SessionColumns::write_rows, and pass 3 folds the new rows into the
  /// shard summary. Per-shard row order equals sequential ingest order at
  /// any thread count. A single call is a batch of one: `ingest({&call, 1})`.
  void ingest(std::span<const confsim::CallRecord> calls);

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Cumulative ingest counters + per-phase timings (see IngestStats).
  [[nodiscard]] const IngestStats& ingest_stats() const {
    return ingest_.stats();
  }

  /// Enables per-shard mergeable summaries (the tier-2 query accelerator):
  /// from now on every shard folds each ingested record into a
  /// ShardSummary with this layout, and the query methods answer matching
  /// shapes by merging summaries instead of rescanning records. Must be
  /// called before any ingest (throws std::logic_error otherwise — a
  /// summary folded from a partial corpus would silently under-count).
  void configure_summaries(SummaryConfig config);
  [[nodiscard]] bool summaries_enabled() const {
    return summary_cfg_.has_value();
  }
  /// The configured layout; only meaningful when summaries_enabled().
  [[nodiscard]] const SummaryConfig& summary_config() const {
    return *summary_cfg_;
  }
  /// Approximate heap footprint of all shard summaries.
  [[nodiscard]] std::size_t summary_memory_bytes() const;

  /// Recomputes every shard's predicted-MOS tally sums with `predictor`,
  /// read straight from each shard's seven feature columns (callers must
  /// hold their corpus write lock). Until the next ingest, tally() calls
  /// may answer predicted sums from summaries — but only when invoked with
  /// this same predictor; passing a different one is a caller contract
  /// violation. Null clears the sums and the fresh flag. Throws
  /// std::logic_error for an untrained predictor.
  void refresh_predicted_tallies(const MosPredictor* predictor);
  /// The same with an opaque per-record predictor, each row materialized
  /// back into its record. Kept for usaasbench's EngineReplay; delete with
  /// it (ROADMAP item 2).
  void refresh_predicted_tallies(
      const std::function<double(const confsim::ParticipantRecord&)>&
          predictor);
  void clear_predicted_tallies() { refresh_predicted_tallies(nullptr); }

  /// Cumulative summary-vs-scan fan-out counters (relaxed atomics; exact
  /// under the caller's locking, advisory under concurrent queries).
  [[nodiscard]] QueryFanoutStats fanout_stats() const {
    return {fanout_.from_summary.load(std::memory_order_relaxed),
            fanout_.scanned.load(std::memory_order_relaxed)};
  }

  /// Fig 1 / Fig 3: binned engagement curve over one network metric.
  /// `fanout`, here and on mos_correlation/tally, additionally receives
  /// this one call's summary-vs-scan shard visits (the cumulative
  /// fanout_stats() counters are always bumped) — the per-query execution
  /// shape QueryService reports in Insight::execution. A caller of the
  /// insight-scan kernel (see curves_and_tally) with its tally side off.
  [[nodiscard]] EngagementCurve engagement_curve(
      const SweepSpec& spec, EngagementMetric engagement,
      const ParticipantFilter& filter = nullptr,
      const ShardSelector& selector = {},
      QueryFanoutStats* fanout = nullptr) const;

  /// The presence, cam-on and mic-on curves (in that order) of one sweep,
  /// from a single shard pass: per scanned shard one phase-1 selection and
  /// one read of the swept column, each row binned and counted once in a
  /// three-series binner. Each curve is bit-identical to the matching
  /// engagement_curve() call, and shard visits are counted as those three
  /// calls count them. `cancelled`, when set, is polled once per shard;
  /// once it answers true the shards not yet started are skipped and the
  /// curves are partial, so the caller must discard them (a deadline probe
  /// on a monotone clock stays true: re-checking it afterwards suffices).
  /// The insight-scan kernel with its tally side off.
  [[nodiscard]] std::vector<EngagementCurve> engagement_curves(
      const SweepSpec& spec, const ParticipantFilter& filter = nullptr,
      const ShardSelector& selector = {}, QueryFanoutStats* fanout = nullptr,
      const CancelProbe& cancelled = nullptr) const;

  /// Early-drop-off rate (fraction) binned over one network metric. Always
  /// a scan (summaries keep no drop-off bins); visits count like any other
  /// fan-out's.
  [[nodiscard]] std::vector<CurvePoint> dropoff_curve(
      const SweepSpec& spec, const ParticipantFilter& filter = nullptr,
      const ShardSelector& selector = {}) const;

  /// Fig 2: latency x loss grid of mean engagement.
  [[nodiscard]] core::Grid2D compounding_grid(
      EngagementMetric engagement, double latency_hi_ms, std::size_t lat_bins,
      double loss_hi_pct, std::size_t loss_bins) const;

  /// Fig 4: correlation between an engagement metric and MOS over the
  /// MOS-sampled subset. Returns nullopt when fewer than `min_samples`
  /// rated sessions exist. The answer is corpus-wide (no selector), so it
  /// is memoized: computed on the first call after a mutation (ingest,
  /// configure_summaries) and reused until the next one. Shard visits are
  /// counted on every call, memo hit or not.
  struct MosCorrelation {
    double pearson{0.0};
    double spearman{0.0};
    std::size_t rated_sessions{0};
    /// Mean MOS per engagement decile (the Fig 4 plot series).
    std::vector<CurvePoint> decile_curve;
  };
  [[nodiscard]] std::optional<MosCorrelation> mos_correlation(
      EngagementMetric engagement, std::size_t min_samples = 50,
      QueryFanoutStats* fanout = nullptr) const;

  /// Per-query session tallies: counts, observed-MOS sum over rated
  /// sessions, and (when `predictor` is set) predicted-MOS sum over every
  /// matching session. Scanned rows are predicted from the seven feature
  /// columns in place (one dot product and one clamp per row, no record
  /// materialized), and each sum is bit-identical to predicting every row
  /// through predict(record). A shard answers from its summary when
  /// summaries are on, no opaque filter is set, and the predicted sums
  /// are fresh (or no predictor is asked for). The insight-scan kernel
  /// with its sweep side off. Throws std::logic_error for an untrained
  /// predictor.
  struct Tally {
    std::size_t sessions{0};
    std::size_t rated{0};
    double observed_mos_sum{0.0};
    double predicted_mos_sum{0.0};
    std::size_t predicted{0};
  };
  [[nodiscard]] Tally tally(const ParticipantFilter& filter,
                            const ShardSelector& selector,
                            const MosPredictor* predictor = nullptr,
                            QueryFanoutStats* fanout = nullptr) const;
  /// The same with an opaque per-record predictor, each scanned row
  /// materialized back into its record (the same kernel, bound to the
  /// record predictor). Kept for usaasbench's EngineReplay; delete with
  /// it (ROADMAP item 2).
  [[nodiscard]] Tally tally(
      const ParticipantFilter& filter, const ShardSelector& selector,
      const std::function<double(const confsim::ParticipantRecord&)>&
          predictor,
      QueryFanoutStats* fanout = nullptr) const;

  /// An uncached insight's implicit side from one fan-out, the call behind
  /// QueryService::run: the three engagement_curves(spec, filter,
  /// selector) and the tally(filter, selector, predictor), equal to those
  /// two calls in every CurvePoint and Tally field, bit for bit.
  ///
  /// One plan gives each shard two summary decisions, the sweep's (its
  /// axis matches a summary axis) and the tally's (as in tally()), and
  /// counts shard visits as the two calls do: 3 for the sweep and 1 for
  /// the tally, each under its own decision. A shard where both sides
  /// scan runs phase-1 selection once, then one row loop that bins the
  /// swept column (rows outside [lo, hi), or out of control when
  /// spec.control_others is set, are not binned) and tallies every
  /// selected row. A shard where one side merges its summary scans only
  /// for the other. Partials merge in plan order. `cancelled` is polled
  /// once per shard, for both sides: once it answers true the result is
  /// partial and must be discarded (see engagement_curves). Throws
  /// std::logic_error for an untrained predictor.
  struct CurvesAndTally {
    std::vector<EngagementCurve> curves;  // presence, cam-on, mic-on
    Tally tally;
  };
  [[nodiscard]] CurvesAndTally curves_and_tally(
      const SweepSpec& spec, const ParticipantFilter& filter,
      const ShardSelector& selector, const MosPredictor* predictor,
      QueryFanoutStats* fanout = nullptr,
      const CancelProbe& cancelled = nullptr) const;

  /// Materializes every stored session in shard-key order (a copy; the
  /// sharded store has no single contiguous buffer). Prefer the query
  /// methods above — this exists for offline analyses over modest corpora.
  [[nodiscard]] std::vector<confsim::ParticipantRecord> sessions() const;

  /// Rated sessions in canonical (month, platform, ingest) order — shard
  /// key order, so predictor training is bit-identical at any thread
  /// count and batch split.
  [[nodiscard]] std::vector<confsim::ParticipantRecord>
  rated_sessions_canonical() const;

 private:
  struct SessionShard {
    int month_key{0};  // year*12 + month-1
    confsim::Platform platform{confsim::Platform::kWindowsPc};
    /// Struct-of-arrays row storage: one contiguous column per field, so
    /// scan kernels touch only the columns a query names.
    SessionColumns columns;
    /// Disabled (a no-op) unless configure_summaries() ran.
    ShardSummary summary;
    ShardTouches touches;
  };
  /// One answer a fan-out fills per shard: whether it may merge shard
  /// summaries, and how many calls' shard visits it counts per shard (a
  /// fused sweep stands for several calls; 0 turns the answer off).
  struct FanoutSide {
    bool summary_capable{false};
    std::uint64_t visits{1};
  };
  /// A shard surviving selector pruning: whether a window boundary cuts
  /// into its month (per-record date checks), whether each answer merges
  /// its summary instead of scanning its rows — `use_summary` for the
  /// plan's first side, `tally_summary` for the second, which only the
  /// insight scan's tally uses — and whether some answer that is on
  /// reads its rows.
  struct SelectedShard {
    const SessionShard* shard{nullptr};
    bool check_dates{false};
    bool use_summary{false};
    bool tally_summary{false};
    bool scans{false};
  };

  /// Finds or creates the shard for a packed (month_key, platform) key —
  /// shards are addressed by key alone, never re-derived from records.
  /// Returns its index into shards_.
  std::size_t shard_for_key(int key);
  /// The fan-out planner every query method starts with: one walk that
  /// prunes shards on `selector`'s window and platform and, for each side
  /// (`tally` defaults to off), marks each shard summary-answered under
  /// the one rule `summary_capable && !check_dates && summary.enabled()`,
  /// bumps the shard's touch counter for that source `visits` times, and
  /// folds the totals into note_fanout.
  [[nodiscard]] std::vector<SelectedShard> plan_fanout(
      const ShardSelector& selector, FanoutSide side,
      QueryFanoutStats* fanout, FanoutSide tally = {false, 0}) const;
  /// The fan-out skeleton: one `init()` partial per planned shard, filled
  /// by fill(shard, partial, scratch) through for_each_shard (`cancelled`
  /// polled per shard) — on the pool when some shard scans rows, on the
  /// calling thread when every shard merges its summaries. Callers merge
  /// the partials in plan order, which is shard-key order.
  template <typename Init, typename Fill>
  [[nodiscard]] auto fan_out(const std::vector<SelectedShard>& plan,
                             const Init& init, const Fill& fill,
                             const CancelProbe& cancelled = nullptr) const
      -> std::vector<decltype(init())>;
  /// The insight-scan kernel behind curves_and_tally, engagement_curve,
  /// engagement_curves and both tally() overloads: the sweep of `spec`
  /// over `metrics` (off when `spec` is null) and the tally (off unless
  /// `tally`) from one plan and one fan-out. `bind`, when set, turns a
  /// shard's columns into that shard's row predictor,
  /// `double(std::size_t row)`; null tallies no predictions.
  template <typename Bind>
  [[nodiscard]] CurvesAndTally scan_insight(
      const SweepSpec* spec, std::span<const EngagementMetric> metrics,
      bool tally, const Bind* bind, const ParticipantFilter& filter,
      const ShardSelector& selector, QueryFanoutStats* fanout,
      const CancelProbe& cancelled) const;
  /// The one refresh pass behind both refresh_predicted_tallies()
  /// overloads (`bind` as in scan_insight; null clears).
  template <typename Bind>
  void refresh_predicted_with(const Bind* bind);
  /// Gathers every rated session of `plan` and correlates engagement
  /// with MOS (the memo's fill; no min_samples cut-off). Pearson/Spearman
  /// stay 0 below two rated sessions, where they are undefined.
  [[nodiscard]] MosCorrelation correlate_rated(
      const std::vector<SelectedShard>& plan,
      EngagementMetric engagement) const;
  /// (Re)attaches `shard`'s touch counters to registry_ (label
  /// "YYYY-MM/<platform>").
  void register_shard_touches(SessionShard& shard);
  /// Bumps the cumulative summary/scan counters and, when `out` is set,
  /// adds the same visits to the caller's per-query stats.
  void note_fanout(std::uint64_t from_summary, std::uint64_t scanned,
                   QueryFanoutStats* out) const {
    fanout_.from_summary.fetch_add(from_summary, std::memory_order_relaxed);
    fanout_.scanned.fetch_add(scanned, std::memory_order_relaxed);
    if (out != nullptr) {
      out->shards_from_summary += from_summary;
      out->shards_scanned += scanned;
    }
  }

  /// Relaxed atomic counters that survive the engine being copied by
  /// value (queries are const, so counting must be thread-safe under the
  /// shared corpus lock; raw atomics would delete the copy operations the
  /// ablation benches rely on).
  struct FanoutCounters {
    std::atomic<std::uint64_t> from_summary{0};
    std::atomic<std::uint64_t> scanned{0};
    FanoutCounters() = default;
    FanoutCounters(const FanoutCounters& o)
        : from_summary{o.from_summary.load(std::memory_order_relaxed)},
          scanned{o.scanned.load(std::memory_order_relaxed)} {}
    FanoutCounters& operator=(const FanoutCounters& o) {
      from_summary.store(o.from_summary.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      scanned.store(o.scanned.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      return *this;
    }
  };

  /// The memoized corpus-wide MOS correlations, one slot per engagement
  /// metric. A slot fills on the first mos_correlation() call after a
  /// mutation and stays valid until every mutator clears all slots (they
  /// run under the caller's exclusive lock). Const readers racing to fill
  /// a slot serialize on `mu`: the first computes and publishes `ready`
  /// with a release store, the rest reuse its value, so each slot is
  /// computed once per corpus state. Copies carry the source's filled
  /// slots (ablation benches copy engines by value).
  struct MosMemo {
    mutable std::mutex mu;
    std::array<std::atomic<bool>, kNumEngagementMetrics> ready{};
    std::array<MosCorrelation, kNumEngagementMetrics> value{};
    MosMemo() = default;
    MosMemo(const MosMemo& o) { *this = o; }
    MosMemo& operator=(const MosMemo& o);
    void clear();
  };

  core::ThreadPool* pool_{nullptr};
  /// Grains: 64 calls per pass-1 chunk, 4096 rows per scatter task.
  TwoPassIngest<confsim::ParticipantRecord> ingest_{
      64, 4096, SessionColumns::bytes_per_row()};
  // packed (month_key, platform) key -> index into shards_; packing is
  // order-preserving, so the map keeps shard-key order for deterministic
  // reduction.
  std::map<int, std::size_t> shard_index_;
  std::vector<SessionShard> shards_;
  /// Set once by configure_summaries(); every shard summary shares it.
  std::optional<SummaryConfig> summary_cfg_;
  /// True while summary predicted-MOS sums match the last-refreshed
  /// predictor; any ingest clears it (the sums would under-count).
  bool predicted_fresh_{false};
  mutable FanoutCounters fanout_;
  mutable MosMemo mos_memo_;
  /// usaas_mos_correlation_memo_total{result="hit"|"miss"} (null no-ops
  /// when telemetry is off).
  core::telemetry::Counter mos_memo_hits_;
  core::telemetry::Counter mos_memo_misses_;
  /// Borrowed registry for lazy per-shard counter registration (copied
  /// engines share it — counter handles point at the same cells, which
  /// keeps cumulative touch counts meaningful across ablation copies).
  core::telemetry::Registry* registry_{nullptr};
  std::string corpus_{"sessions"};
};

}  // namespace usaas::service
