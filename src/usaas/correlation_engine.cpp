#include "usaas/correlation_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/correlation.h"
#include "core/stats.h"
#include "usaas/mos_predictor.h"

namespace usaas::service {

namespace {

using core::month_key;

// ---------------------------------------------------------------------------
// Two-phase columnar scan kernels.
//
// Phase 1 (selection) compiles the residual predicates shard pruning could
// not discharge — date window, access — into branchless compares over the
// day-key / access columns and emits the matching row
// indices. Optional refines preserve the row scan's predicate order: the
// opaque ParticipantFilter runs on materialized rows *after* the structural
// predicates and *before* the confounder control check, exactly as
// record_matches -> filter -> others_in_control used to.
//
// Phase 2 (aggregation) is a tight add-only loop over the selected indices
// touching just the columns the query names. Because the selected row set,
// its order, and every value fed to Binner1D/Grid2D/sum are identical to
// the row scan's, results are bit-identical, not merely close.
// ---------------------------------------------------------------------------

constexpr std::int32_t kDayMin = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kDayMax = std::numeric_limits<std::int32_t>::max();

/// Residual per-row predicates, wildcarded so the selection loop runs all
/// three compares unconditionally: an unchecked bound widens to +-inf and
/// an unchecked equality OR-s with its `*_any` flag. (Platform never needs
/// a residual: every shard holds one platform.)
struct Residual {
  std::int32_t day_lo{kDayMin};
  std::int32_t day_hi{kDayMax};
  std::uint8_t access{0};
  std::uint8_t access_any{1};

  [[nodiscard]] bool none() const {
    return day_lo == kDayMin && day_hi == kDayMax && access_any != 0;
  }
};

[[nodiscard]] Residual make_residual(bool check_dates,
                                     const ShardSelector& selector) {
  Residual p;
  if (check_dates) {
    // pack_day_key preserves Date ordering, so the inclusive window check
    // becomes two integer compares.
    if (selector.first) p.day_lo = core::pack_day_key(*selector.first);
    if (selector.last) p.day_hi = core::pack_day_key(*selector.last);
  }
  if (selector.access) {
    p.access = static_cast<std::uint8_t>(*selector.access);
    p.access_any = 0;
  }
  return p;
}

/// The selected row set a scan aggregates over. idx == nullptr means the
/// identity [0, n) — no residual predicate survived, no index vector is
/// materialized, and the aggregation loop runs dense.
struct ScanSet {
  const std::uint32_t* idx{nullptr};
  std::size_t n{0};
};

/// Phase-1 structural selection: branchless compare-and-append over the
/// filter columns only.
[[nodiscard]] ScanSet select_structural(const SessionColumns& cols,
                                        const Residual& p,
                                        ShardScratch& scratch) {
  const std::size_t n = cols.size();
  scratch.resize_uninit(n);
  const std::int32_t* day = cols.day_key.data();
  const std::uint8_t* acc = cols.access.data();
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned keep =
        static_cast<unsigned>(day[i] >= p.day_lo) &
        static_cast<unsigned>(day[i] <= p.day_hi) &
        (static_cast<unsigned>(acc[i] == p.access) | p.access_any);
    scratch[m] = static_cast<std::uint32_t>(i);
    m += keep;
  }
  scratch.resize_uninit(m);
  return {scratch.data(), m};
}

/// Calls f(row) for every row of `set`, in order: dense over [0, n) for
/// the identity set, through the index vector otherwise.
template <typename F>
void for_each_row(ScanSet set, F&& f) {
  if (set.idx == nullptr) {
    for (std::size_t r = 0; r < set.n; ++r) f(r);
    return;
  }
  for (std::size_t j = 0; j < set.n; ++j) f(set.idx[j]);
}

/// Compacts `in` down to the rows where `keep(row)` holds. `in.idx` may
/// alias `scratch.data()` (the write cursor never passes the read cursor);
/// an identity input materializes into `scratch`.
template <typename Keep>
[[nodiscard]] ScanSet refine(ScanSet in, ShardScratch& scratch, Keep&& keep) {
  std::size_t m = 0;
  if (in.idx == nullptr) {
    scratch.resize_uninit(in.n);
    for (std::size_t i = 0; i < in.n; ++i) {
      scratch[m] = static_cast<std::uint32_t>(i);
      m += static_cast<std::size_t>(keep(i) ? 1 : 0);
    }
  } else {
    for (std::size_t j = 0; j < in.n; ++j) {
      const std::uint32_t r = in.idx[j];
      scratch[m] = r;
      m += static_cast<std::size_t>(keep(r) ? 1 : 0);
    }
  }
  scratch.resize_uninit(m);
  return {scratch.data(), m};
}

/// The three non-swept metric columns + their control windows, resolved
/// once per shard so the confounder refine is three compare pairs per row.
struct ControlColumns {
  const double* col[3] = {nullptr, nullptr, nullptr};
  double lo[3] = {0.0, 0.0, 0.0};
  double hi[3] = {0.0, 0.0, 0.0};
};

[[nodiscard]] ControlColumns make_control_columns(
    const SessionColumns& cols, netsim::Metric swept,
    const netsim::ControlWindows& w, SessionAggregate agg) {
  const double los[4] = {w.latency_lo_ms, w.loss_lo_pct, w.jitter_lo_ms,
                         w.bandwidth_lo_mbps};
  const double his[4] = {w.latency_hi_ms, w.loss_hi_pct, w.jitter_hi_ms,
                         w.bandwidth_hi_mbps};
  ControlColumns out;
  std::size_t j = 0;
  for (int m = 0; m < 4; ++m) {
    if (m == static_cast<int>(swept)) continue;
    const auto metric = static_cast<netsim::Metric>(m);
    out.col[j] = agg == SessionAggregate::kP95 ? cols.tail_column(metric)
                                               : cols.mean_column(metric);
    out.lo[j] = los[m];
    out.hi[j] = his[m];
    ++j;
  }
  return out;
}

/// The confounder-control check: row r's three non-swept metrics all lie
/// inside their control windows.
[[nodiscard]] bool in_control(const ControlColumns& cc, std::size_t r) {
  unsigned ok = 1;
  for (std::size_t j = 0; j < 3; ++j) {
    ok &= static_cast<unsigned>(cc.col[j][r] >= cc.lo[j]) &
          static_cast<unsigned>(cc.col[j][r] <= cc.hi[j]);
  }
  return ok != 0;
}

/// Resolves the swept-metric value column for the requested aggregate —
/// the array netsim::metric_value(aggregate_conditions(rec), m) reads
/// row-wise (the tail column mirrors p95_conditions verbatim, including
/// bandwidth's low-tail P5 slot).
[[nodiscard]] const double* sweep_column(const SessionColumns& cols,
                                         netsim::Metric metric,
                                         SessionAggregate agg) {
  return agg == SessionAggregate::kP95 ? cols.tail_column(metric)
                                       : cols.mean_column(metric);
}

/// Runs structural selection + the optional opaque-filter refine for one
/// shard: the phase-1 front half every scan shares.
[[nodiscard]] ScanSet select_rows(const SessionColumns& cols,
                                  const Residual& res,
                                  const ParticipantFilter& filter,
                                  ShardScratch& scratch) {
  ScanSet set{nullptr, cols.size()};
  if (!res.none()) set = select_structural(cols, res, scratch);
  if (filter) {
    // Materialize rows for the opaque predicate — same call set, same
    // order as the row scan (which also ran it after record_matches).
    set = refine(set, scratch,
                 [&](std::size_t r) { return filter(cols.record(r)); });
  }
  return set;
}

/// select_rows plus the confounder-control refine: the phase-1 front half
/// of every sweep-shaped scan.
[[nodiscard]] ScanSet select_sweep_rows(const SessionColumns& cols,
                                        const Residual& res,
                                        const ParticipantFilter& filter,
                                        const SweepSpec& spec,
                                        ShardScratch& scratch) {
  ScanSet set = select_rows(cols, res, filter, scratch);
  if (spec.control_others) {
    const ControlColumns cc =
        make_control_columns(cols, spec.metric, spec.control, spec.aggregate);
    set = refine(set, scratch,
                 [&](std::size_t r) { return in_control(cc, r); });
  }
  return set;
}

/// The sweep's phase-2 row body: bins row r's x once and adds y[k][r] to
/// the binner's series k. `K` is the binner's series count when known at
/// compile time (0: read it at run time).
template <std::size_t K>
struct SweepRow {
  core::Binner1D& binner;
  const double* x;
  const double* const* y;

  void operator()(std::size_t r) const {
    const std::size_t bin = binner.bin_index(x[r]);
    if (bin == core::Binner1D::kNoBin) return;
    binner.add_to_bin<K>(bin, [&](std::size_t k) { return y[k][r]; });
  }
};

/// Calls f(sweep_row) with the sweep row body of `binner` over `cols`:
/// x is the swept column, series k reads metrics[k]'s engagement column.
/// The three-series sweep gets the unrolled body.
template <typename F>
void with_sweep_row(core::Binner1D& binner, const SessionColumns& cols,
                    const SweepSpec& spec,
                    std::span<const EngagementMetric> metrics, F&& f) {
  std::array<const double*, kNumEngagementMetrics> y{};
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    y[k] = cols.engagement_column(metrics[k]);
  }
  const double* x = sweep_column(cols, spec.metric, spec.aggregate);
  if (metrics.size() == kNumEngagementMetrics) {
    f(SweepRow<kNumEngagementMetrics>{binner, x, y.data()});
  } else {
    f(SweepRow<0>{binner, x, y.data()});
  }
}

/// The tally's phase-2 row body: counts the session, adds its observed
/// MOS when rated, and, unless `Predict` is std::nullptr_t, its predicted
/// MOS. The per-record accumulators are independent, so a split over
/// selected rows replays each one's add sequence exactly (same rows, same
/// order). `t` should be a local, so the loop keeps it in registers.
template <typename Predict>
struct TallyRow {
  CorrelationEngine::Tally& t;
  const std::uint8_t* valid;
  const double* mos;
  Predict predict;

  void operator()(std::size_t r) const {
    ++t.sessions;
    if (valid[r] != 0) {
      t.observed_mos_sum += mos[r];
      ++t.rated;
    }
    if constexpr (!std::is_same_v<Predict, std::nullptr_t>) {
      t.predicted_mos_sum += predict(r);
      ++t.predicted;
    }
  }
};

/// Calls f(tally_row) with the tally row body over `cols` accumulating
/// into `t`: `bind`, when set, binds the shard's row predictor.
template <typename Bind, typename F>
void with_tally_row(CorrelationEngine::Tally& t, const SessionColumns& cols,
                    const Bind* bind, F&& f) {
  const std::uint8_t* valid = cols.mos_valid.data();
  const double* mos = cols.mos.data();
  if (bind == nullptr) {
    f(TallyRow<std::nullptr_t>{t, valid, mos, nullptr});
  } else {
    f(TallyRow<decltype((*bind)(cols))>{t, valid, mos, (*bind)(cols)});
  }
}

void add_tally(CorrelationEngine::Tally& into,
               const CorrelationEngine::Tally& part) {
  into.sessions += part.sessions;
  into.rated += part.rated;
  into.observed_mos_sum += part.observed_mos_sum;
  into.predicted_mos_sum += part.predicted_mos_sum;
  into.predicted += part.predicted;
}

constexpr EngagementMetric kAllEngagements[] = {EngagementMetric::kPresence,
                                                EngagementMetric::kCamOn,
                                                EngagementMetric::kMicOn};

/// A merged binner's populated bins of series `k` as curve points.
[[nodiscard]] std::vector<CurvePoint> curve_points(const core::Binner1D& b,
                                                   std::size_t k = 0) {
  std::vector<CurvePoint> out;
  for (const core::Bin& bin : b.bins(k)) {
    out.push_back({bin.center(), bin.mean_y, bin.count});
  }
  return out;
}

/// Binds a trained MosPredictor to one shard: its row predictor reads the
/// seven feature columns in place.
struct ColumnPredictor {
  const MosPredictor& model;
  [[nodiscard]] auto operator()(const SessionColumns& cols) const {
    return [&m = model, fc = MosPredictor::feature_columns(cols)](
               std::size_t r) { return m.predict(fc, r); };
  }
};

/// Binds an opaque per-record predictor to one shard: each row is
/// materialized back into its record first.
struct RecordPredictor {
  const std::function<double(const confsim::ParticipantRecord&)>& fn;
  [[nodiscard]] auto operator()(const SessionColumns& cols) const {
    return [&f = fn, &cols](std::size_t r) { return f(cols.record(r)); };
  }
};

void expect_trained(const MosPredictor& predictor) {
  if (!predictor.trained()) {
    throw std::logic_error("CorrelationEngine: MOS predictor not trained");
  }
}

/// The packed shard key pass 1 counts on: month_key * kNumPlatforms +
/// platform. Packing preserves (month_key, platform) lexicographic order.
[[nodiscard]] int shard_key(const core::Date& date,
                            confsim::Platform platform) {
  return month_key(date) * confsim::kNumPlatforms + static_cast<int>(platform);
}

}  // namespace

double EngagementCurve::relative_drop_percent() const {
  if (points.size() < 2) return 0.0;
  double best = 0.0;
  for (const CurvePoint& p : points) best = std::max(best, p.engagement);
  if (best <= 0.0) return 0.0;
  return 100.0 * (best - points.back().engagement) / best;
}

EngagementCurve EngagementCurve::normalized() const {
  EngagementCurve out = *this;
  double best = 0.0;
  for (const CurvePoint& p : out.points) best = std::max(best, p.engagement);
  if (best <= 0.0) return out;
  for (CurvePoint& p : out.points) p.engagement = 100.0 * p.engagement / best;
  return out;
}

void CorrelationEngine::set_telemetry(core::telemetry::Registry* registry,
                                      std::string_view corpus) {
  registry_ = registry;
  corpus_ = std::string{corpus};
  ingest_.set_telemetry(registry, corpus_);
  // Shards ingested before telemetry was attached get counters now;
  // shards created later register in shard_for_key.
  for (SessionShard& shard : shards_) register_shard_touches(shard);
  const auto memo = [&](const char* result) {
    return registry == nullptr
               ? core::telemetry::Counter{}
               : registry->counter(
                     "usaas_mos_correlation_memo_total",
                     "Corpus-wide MOS correlation lookups answered from the "
                     "memo (hit) vs computed after a mutation (miss)",
                     {{"result", result}});
  };
  mos_memo_hits_ = memo("hit");
  mos_memo_misses_ = memo("miss");
}

void CorrelationEngine::register_shard_touches(SessionShard& shard) {
  shard.touches = ShardTouches::attach(
      registry_, corpus_, shard.month_key,
      std::string{"/"} + confsim::to_string(shard.platform));
}

CorrelationEngine::MosMemo& CorrelationEngine::MosMemo::operator=(
    const MosMemo& o) {
  if (this == &o) return *this;
  const std::scoped_lock lock{mu, o.mu};
  for (std::size_t m = 0; m < ready.size(); ++m) {
    value[m] = o.value[m];
    ready[m].store(o.ready[m].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  return *this;
}

void CorrelationEngine::MosMemo::clear() {
  const std::lock_guard<std::mutex> lock{mu};
  for (std::atomic<bool>& r : ready) r.store(false, std::memory_order_relaxed);
}

std::size_t CorrelationEngine::shard_for_key(int key) {
  const auto [it, inserted] = shard_index_.try_emplace(key, shards_.size());
  if (inserted) {
    // Unpack with floored semantics so pre-epoch month keys (negative)
    // still round-trip.
    const int platform_idx =
        ((key % confsim::kNumPlatforms) + confsim::kNumPlatforms) %
        confsim::kNumPlatforms;
    SessionShard shard;
    shard.month_key = (key - platform_idx) / confsim::kNumPlatforms;
    shard.platform = static_cast<confsim::Platform>(platform_idx);
    if (summary_cfg_) shard.summary = ShardSummary{*summary_cfg_};
    register_shard_touches(shard);
    shards_.push_back(std::move(shard));
  }
  return it->second;
}

void CorrelationEngine::ingest(std::span<const confsim::CallRecord> calls) {
  if (calls.empty()) return;
  predicted_fresh_ = false;
  mos_memo_.clear();
  using Slot = SourceSlot<confsim::ParticipantRecord>;
  struct Slice {
    std::size_t shard{0};  // index: shards_ may grow while slices are made
    std::size_t base{0};   // first new row in the shard's columns
  };
  const auto emit = [](const confsim::CallRecord& call, auto&& sink) {
    const core::Date date = call.start.date;
    const std::int32_t day = core::pack_day_key(date);
    for (const auto& p : call.participants) {
      sink(shard_key(date, p.platform), Slot{&p, day});
    }
  };
  // resize_uninit: no memset, the scatter writes every new slot once.
  const auto reserve = [this](int key, std::size_t n) {
    const std::size_t shard = shard_for_key(key);
    SessionColumns& cols = shards_[shard].columns;
    const Slice slice{shard, cols.size()};
    cols.resize_uninit(slice.base + n);
    return slice;
  };
  const auto scatter = [this](const Slice& slice, const Slot* src,
                              std::size_t begin, std::size_t end) {
    shards_[slice.shard].columns.write_rows(slice.base + begin, src + begin,
                                            end - begin);
  };
  const auto fold = [this](const Slice& slice, std::size_t n) {
    SessionShard& shard = shards_[slice.shard];
    shard.summary.fold(shard.columns, slice.base, slice.base + n);
  };
  ingest_.run(pool_, calls, emit, reserve, scatter, fold,
              summary_cfg_.has_value());
}

std::size_t CorrelationEngine::session_count() const {
  std::size_t n = 0;
  for (const SessionShard& s : shards_) n += s.columns.size();
  return n;
}

void CorrelationEngine::configure_summaries(SummaryConfig config) {
  if (session_count() != 0) {
    throw std::logic_error(
        "CorrelationEngine::configure_summaries: corpus is not empty; "
        "summaries folded from a partial corpus would under-count");
  }
  // Validates the layout eagerly (Binner1D/Grid2D reject bad extents).
  [[maybe_unused]] const ShardSummary probe{config};
  summary_cfg_ = std::move(config);
  for (SessionShard& shard : shards_) shard.summary = ShardSummary{*summary_cfg_};
  mos_memo_.clear();
}

std::size_t CorrelationEngine::summary_memory_bytes() const {
  std::size_t bytes = 0;
  for (const SessionShard& s : shards_) bytes += s.summary.memory_bytes();
  return bytes;
}

template <typename Bind>
void CorrelationEngine::refresh_predicted_with(const Bind* bind) {
  if (!summary_cfg_) return;
  core::parallel_for(pool_, shards_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      SessionShard& shard = shards_[i];
      if (bind == nullptr) {
        shard.summary.clear_predicted();
      } else {
        shard.summary.refresh_predicted(shard.columns, (*bind)(shard.columns));
      }
    }
  });
  predicted_fresh_ = bind != nullptr;
}

void CorrelationEngine::refresh_predicted_tallies(
    const MosPredictor* predictor) {
  if (predictor == nullptr) {
    refresh_predicted_with<ColumnPredictor>(nullptr);
    return;
  }
  expect_trained(*predictor);
  const ColumnPredictor bind{*predictor};
  refresh_predicted_with(&bind);
}

void CorrelationEngine::refresh_predicted_tallies(
    const std::function<double(const confsim::ParticipantRecord&)>&
        predictor) {
  if (!predictor) {
    clear_predicted_tallies();
    return;
  }
  const RecordPredictor bind{predictor};
  refresh_predicted_with(&bind);
}

std::vector<CorrelationEngine::SelectedShard> CorrelationEngine::plan_fanout(
    const ShardSelector& selector, FanoutSide side, QueryFanoutStats* fanout,
    FanoutSide tally) const {
  std::vector<SelectedShard> plan;
  plan.reserve(shards_.size());
  std::uint64_t from_summary = 0;
  std::uint64_t scanned = 0;
  for (const auto& [key, idx] : shard_index_) {
    const SessionShard& shard = shards_[idx];
    if (selector.platform && shard.platform != *selector.platform) continue;
    if (selector.first && shard.month_key < month_key(*selector.first)) {
      continue;
    }
    if (selector.last && shard.month_key > month_key(*selector.last)) {
      continue;
    }
    SelectedShard sel;
    sel.shard = &shard;
    sel.check_dates =
        core::window_cuts_month(selector.first, selector.last, shard.month_key);
    // Each side that is on decides, counts and touches on its own.
    const auto decide = [&](const FanoutSide& s) {
      const bool use = answers_from_summary(
          s.summary_capable && shard.summary.enabled(), selector.first,
          selector.last, shard.month_key);
      if (s.visits != 0) {
        (use ? from_summary : scanned) += s.visits;
        shard.touches.note(use, s.visits);
        sel.scans = sel.scans || !use;
      }
      return use;
    };
    sel.use_summary = decide(side);
    sel.tally_summary = decide(tally);
    plan.push_back(sel);
  }
  note_fanout(from_summary, scanned, fanout);
  return plan;
}

template <typename Init, typename Fill>
auto CorrelationEngine::fan_out(const std::vector<SelectedShard>& plan,
                                const Init& init, const Fill& fill,
                                const CancelProbe& cancelled) const
    -> std::vector<decltype(init())> {
  std::vector<decltype(init())> partials;
  partials.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) partials.push_back(init());
  // A plan of summary merges only reads no rows: a pool dispatch would
  // cost more than the merges, so it runs on the calling thread.
  const bool scans =
      std::any_of(plan.begin(), plan.end(),
                  [](const SelectedShard& sel) { return sel.scans; });
  for_each_shard(scans ? pool_ : nullptr, plan.size(), cancelled,
                 [&](std::size_t i, ShardScratch& scratch) {
                   fill(plan[i], partials[i], scratch);
                 });
  return partials;
}

EngagementCurve CorrelationEngine::engagement_curve(
    const SweepSpec& spec, EngagementMetric engagement,
    const ParticipantFilter& filter, const ShardSelector& selector,
    QueryFanoutStats* fanout) const {
  CurvesAndTally out = scan_insight<ColumnPredictor>(
      &spec, {&engagement, 1}, /*tally=*/false, nullptr, filter, selector,
      fanout, nullptr);
  return std::move(out.curves.front());
}

std::vector<EngagementCurve> CorrelationEngine::engagement_curves(
    const SweepSpec& spec, const ParticipantFilter& filter,
    const ShardSelector& selector, QueryFanoutStats* fanout,
    const CancelProbe& cancelled) const {
  return scan_insight<ColumnPredictor>(&spec, kAllEngagements,
                                       /*tally=*/false, nullptr, filter,
                                       selector, fanout, cancelled)
      .curves;
}

CorrelationEngine::CurvesAndTally CorrelationEngine::curves_and_tally(
    const SweepSpec& spec, const ParticipantFilter& filter,
    const ShardSelector& selector, const MosPredictor* predictor,
    QueryFanoutStats* fanout, const CancelProbe& cancelled) const {
  if (predictor == nullptr) {
    return scan_insight<ColumnPredictor>(&spec, kAllEngagements,
                                         /*tally=*/true, nullptr, filter,
                                         selector, fanout, cancelled);
  }
  expect_trained(*predictor);
  const ColumnPredictor bind{*predictor};
  return scan_insight(&spec, kAllEngagements, /*tally=*/true, &bind, filter,
                      selector, fanout, cancelled);
}

template <typename Bind>
CorrelationEngine::CurvesAndTally CorrelationEngine::scan_insight(
    const SweepSpec* spec, std::span<const EngagementMetric> metrics,
    bool tally, const Bind* bind, const ParticipantFilter& filter,
    const ShardSelector& selector, QueryFanoutStats* fanout,
    const CancelProbe& cancelled) const {
  // The sweep's summary fast path: the query shape must match a
  // precomputed axis exactly (metric/lo/hi/bins, mean aggregate, no
  // confounder filter, no opaque row filter) — then each shard whose
  // pruning is fully discharged at the shard level merges its summary
  // binner instead of rescanning records. Boundary shards still scan.
  std::optional<std::size_t> axis;
  if (spec != nullptr && summary_cfg_ && !filter && !spec->control_others &&
      spec->aggregate == SessionAggregate::kMean) {
    const SummaryAxis wanted{spec->metric, spec->lo, spec->hi, spec->bins};
    for (std::size_t a = 0; a < summary_cfg_->axes.size(); ++a) {
      if (summary_cfg_->axes[a] == wanted) {
        axis = a;
        break;
      }
    }
  }
  // The tally's: counts and MOS sums live pre-accumulated per shard
  // (whole-shard and per-access buckets, both in ingest order — identical
  // add sequence to the scan). Predicted sums are only usable while
  // they're fresh for the caller's predictor (refresh_predicted_tallies).
  const bool tally_capable = summary_cfg_.has_value() && !filter &&
                             (bind == nullptr || predicted_fresh_);
  const std::size_t n_metrics = spec != nullptr ? metrics.size() : 0;
  const auto plan =
      plan_fanout(selector, {axis.has_value(), n_metrics}, fanout,
                  {tally_capable, tally ? 1U : 0U});

  // Each shard's partial: one binner with a series per requested metric
  // (a scanned row is binned once and counted once), and one tally.
  struct Partial {
    std::optional<core::Binner1D> binner;
    Tally tally;
  };
  const auto make_partial = [&] {
    Partial p;
    if (spec != nullptr) {
      p.binner.emplace(spec->lo, spec->hi, spec->bins, n_metrics);
    }
    return p;
  };
  const auto partials = fan_out(
      plan, make_partial,
      [&](const SelectedShard& sel, Partial& part, ShardScratch& scratch) {
        const ShardSummary& summary = sel.shard->summary;
        const bool sweep_scans = spec != nullptr && !sel.use_summary;
        const bool tally_scans = tally && !sel.tally_summary;
        if (spec != nullptr && sel.use_summary) {
          summary.add_curve_to(*part.binner, *axis, metrics, selector.access);
        }
        if (tally && sel.tally_summary) {
          const SummaryTally& st = summary.tally(selector.access);
          part.tally.sessions += st.sessions;
          part.tally.rated += st.rated;
          part.tally.observed_mos_sum += st.observed_mos_sum;
          if (bind != nullptr) {
            part.tally.predicted_mos_sum += st.predicted_mos_sum;
            part.tally.predicted += st.predicted;
          }
        }
        if (!sweep_scans && !tally_scans) return;

        const SessionColumns& cols = sel.shard->columns;
        const Residual res = make_residual(sel.check_dates, selector);
        if (!tally_scans) {
          // The sweep alone: the confounder refine joins the selection.
          const ScanSet set =
              select_sweep_rows(cols, res, filter, *spec, scratch);
          with_sweep_row(*part.binner, cols, *spec, metrics,
                         [&](const auto& sweep_row) {
                           for_each_row(set, sweep_row);
                         });
          return;
        }
        // One selection, then one loop: the tally counts every selected
        // row; the sweep bins those in control.
        const ScanSet set = select_rows(cols, res, filter, scratch);
        Tally t;
        with_tally_row(t, cols, bind, [&](const auto& tally_row) {
          if (!sweep_scans) {
            for_each_row(set, tally_row);
            return;
          }
          with_sweep_row(
              *part.binner, cols, *spec, metrics, [&](const auto& sweep_row) {
                if (!spec->control_others) {
                  for_each_row(set, [&](std::size_t r) {
                    tally_row(r);
                    sweep_row(r);
                  });
                  return;
                }
                const ControlColumns cc = make_control_columns(
                    cols, spec->metric, spec->control, spec->aggregate);
                for_each_row(set, [&](std::size_t r) {
                  tally_row(r);
                  if (in_control(cc, r)) sweep_row(r);
                });
              });
        });
        part.tally = t;
      },
      cancelled);

  CurvesAndTally out;
  if (spec != nullptr) {
    core::Binner1D total{spec->lo, spec->hi, spec->bins, n_metrics};
    for (const Partial& part : partials) total.merge(*part.binner);
    out.curves.resize(n_metrics);
    for (std::size_t k = 0; k < n_metrics; ++k) {
      out.curves[k].network_metric = spec->metric;
      out.curves[k].engagement_metric = metrics[k];
      out.curves[k].points = curve_points(total, k);
    }
  }
  for (const Partial& part : partials) add_tally(out.tally, part.tally);
  return out;
}

std::vector<CurvePoint> CorrelationEngine::dropoff_curve(
    const SweepSpec& spec, const ParticipantFilter& filter,
    const ShardSelector& selector) const {
  const auto plan = plan_fanout(selector, {/*summary_capable=*/false}, nullptr);
  const auto partials = fan_out(
      plan, [&] { return core::Binner1D{spec.lo, spec.hi, spec.bins}; },
      [&](const SelectedShard& sel, core::Binner1D& binner,
          ShardScratch& scratch) {
        const SessionColumns& cols = sel.shard->columns;
        const ScanSet set = select_sweep_rows(
            cols, make_residual(sel.check_dates, selector), filter, spec,
            scratch);
        // y is the 0/1 early-drop byte widened to double — exactly the
        // `dropped_early ? 1.0 : 0.0` the row scan fed the binner.
        const double* x = sweep_column(cols, spec.metric, spec.aggregate);
        const std::uint8_t* dropped = cols.dropped_early.data();
        for_each_row(set, [&](std::size_t r) {
          binner.add(x[r], static_cast<double>(dropped[r]));
        });
      });
  core::Binner1D total{spec.lo, spec.hi, spec.bins};
  for (const core::Binner1D& p : partials) total.merge(p);
  return curve_points(total);
}

core::Grid2D CorrelationEngine::compounding_grid(EngagementMetric engagement,
                                                 double latency_hi_ms,
                                                 std::size_t lat_bins,
                                                 double loss_hi_pct,
                                                 std::size_t loss_bins) const {
  // Summary fast path: when the requested grid layout matches the
  // configured one, merge each shard's precomputed grid (same per-record
  // add sequence as the scan — bit-identical).
  const SummaryGrid wanted{latency_hi_ms, lat_bins, loss_hi_pct, loss_bins};
  const auto plan = plan_fanout(
      {}, {summary_cfg_.has_value() && wanted == summary_cfg_->grid}, nullptr);
  const auto make_grid = [&] {
    return core::Grid2D{0.0, latency_hi_ms, lat_bins,
                        0.0, loss_hi_pct,   loss_bins};
  };
  const auto partials = fan_out(
      plan, make_grid,
      [&](const SelectedShard& sel, core::Grid2D& grid, ShardScratch&) {
        if (sel.use_summary &&
            sel.shard->summary.add_grid_to(grid, engagement, wanted)) {
          return;
        }
        // Dense three-column kernel: compounding_grid takes no selector or
        // filter, so there is no selection phase at all.
        const SessionColumns& cols = sel.shard->columns;
        const double* lat = cols.latency_mean.data();
        const double* loss = cols.loss_mean.data();
        const double* eng = cols.engagement_column(engagement);
        for (std::size_t r = 0; r < cols.size(); ++r) {
          grid.add(lat[r], loss[r], eng[r]);
        }
      });
  core::Grid2D total = make_grid();
  for (const core::Grid2D& p : partials) total.merge(p);
  return total;
}

std::optional<CorrelationEngine::MosCorrelation>
CorrelationEngine::mos_correlation(EngagementMetric engagement,
                                   std::size_t min_samples,
                                   QueryFanoutStats* fanout) const {
  // Planned (and counted) on hits too: the per-query fan-out report and
  // the per-shard touch counters describe the answer's data lineage, not
  // the work done.
  const auto plan = plan_fanout({}, {summary_cfg_.has_value()}, fanout);

  // The answer depends on the corpus alone (no selector, min_samples is
  // applied below), so it is computed once per corpus state.
  const auto slot = static_cast<std::size_t>(engagement);
  if (mos_memo_.ready[slot].load(std::memory_order_acquire)) {
    mos_memo_hits_.add();
  } else {
    const std::lock_guard<std::mutex> lock{mos_memo_.mu};
    if (mos_memo_.ready[slot].load(std::memory_order_relaxed)) {
      mos_memo_hits_.add();
    } else {
      mos_memo_.value[slot] = correlate_rated(plan, engagement);
      mos_memo_.ready[slot].store(true, std::memory_order_release);
      mos_memo_misses_.add();
    }
  }
  const MosCorrelation& memo = mos_memo_.value[slot];
  if (memo.rated_sessions < min_samples) return std::nullopt;
  if (memo.rated_sessions < 2) {
    throw std::invalid_argument(
        "mos_correlation: need >= 2 rated sessions to correlate");
  }
  return memo;
}

CorrelationEngine::MosCorrelation CorrelationEngine::correlate_rated(
    const std::vector<SelectedShard>& plan,
    EngagementMetric engagement) const {
  struct Rated {
    std::vector<double> eng;
    std::vector<double> mos;
  };
  const auto eng_idx = static_cast<std::size_t>(engagement);
  const auto partials = fan_out(
      plan, [] { return Rated{}; },
      [&](const SelectedShard& sel, Rated& part, ShardScratch&) {
        if (sel.use_summary) {
          // Each summary keeps its shard's rated sessions as (engagement,
          // MOS) samples in ingest order — replaying the scan's exact
          // sequence, so downstream stats are bit-identical.
          for (const RatedSample& s : sel.shard->summary.rated()) {
            part.eng.push_back(s.engagement[eng_idx]);
            part.mos.push_back(s.mos);
          }
          return;
        }
        // Columnar gather over the validity mask: three columns touched
        // (~17 bytes/row) instead of the full record.
        const SessionColumns& cols = sel.shard->columns;
        const std::uint8_t* valid = cols.mos_valid.data();
        const double* eng = cols.engagement_column(engagement);
        const double* mos = cols.mos.data();
        for (std::size_t r = 0; r < cols.size(); ++r) {
          if (valid[r] == 0) continue;
          part.eng.push_back(eng[r]);
          part.mos.push_back(mos[r]);
        }
      });
  std::vector<double> eng;
  std::vector<double> mos;
  for (const Rated& part : partials) {
    eng.insert(eng.end(), part.eng.begin(), part.eng.end());
    mos.insert(mos.end(), part.mos.begin(), part.mos.end());
  }
  MosCorrelation out;
  out.rated_sessions = eng.size();
  if (eng.size() >= 2) {
    out.pearson = core::pearson(eng, mos);
    out.spearman = core::spearman(eng, mos);
  }

  // Decile curve: mean MOS per engagement decile. Ties are broken on the
  // (engagement, MOS) value pair so the sorted sequence — and hence every
  // decile sum — is a function of the sample multiset alone, identical
  // across shard layouts and thread counts.
  std::vector<std::size_t> order(eng.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (eng[a] != eng[b]) return eng[a] < eng[b];
    return mos[a] < mos[b];
  });
  const std::size_t deciles = 10;
  for (std::size_t dec = 0; dec < deciles; ++dec) {
    const std::size_t lo = dec * order.size() / deciles;
    const std::size_t hi = (dec + 1) * order.size() / deciles;
    if (hi <= lo) continue;
    double eng_acc = 0.0;
    double mos_acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      eng_acc += eng[order[i]];
      mos_acc += mos[order[i]];
    }
    const auto n = static_cast<double>(hi - lo);
    out.decile_curve.push_back({eng_acc / n, mos_acc / n, hi - lo});
  }
  return out;
}

CorrelationEngine::Tally CorrelationEngine::tally(
    const ParticipantFilter& filter, const ShardSelector& selector,
    const MosPredictor* predictor, QueryFanoutStats* fanout) const {
  if (predictor == nullptr) {
    return scan_insight<ColumnPredictor>(nullptr, {}, /*tally=*/true,
                                         nullptr, filter, selector, fanout,
                                         nullptr)
        .tally;
  }
  expect_trained(*predictor);
  const ColumnPredictor bind{*predictor};
  return scan_insight(nullptr, {}, /*tally=*/true, &bind, filter, selector,
                      fanout, nullptr)
      .tally;
}

CorrelationEngine::Tally CorrelationEngine::tally(
    const ParticipantFilter& filter, const ShardSelector& selector,
    const std::function<double(const confsim::ParticipantRecord&)>& predictor,
    QueryFanoutStats* fanout) const {
  if (!predictor) return tally(filter, selector, nullptr, fanout);
  const RecordPredictor bind{predictor};
  return scan_insight(nullptr, {}, /*tally=*/true, &bind, filter, selector,
                      fanout, nullptr)
      .tally;
}

std::vector<confsim::ParticipantRecord> CorrelationEngine::sessions() const {
  std::vector<confsim::ParticipantRecord> out;
  out.reserve(session_count());
  for (const auto& [key, idx] : shard_index_) {
    const SessionColumns& cols = shards_[idx].columns;
    for (std::size_t r = 0; r < cols.size(); ++r) {
      out.push_back(cols.record(r));
    }
  }
  return out;
}

std::vector<confsim::ParticipantRecord>
CorrelationEngine::rated_sessions_canonical() const {
  std::vector<confsim::ParticipantRecord> out;
  for (const auto& [key, idx] : shard_index_) {
    const SessionColumns& cols = shards_[idx].columns;
    const std::uint8_t* valid = cols.mos_valid.data();
    for (std::size_t r = 0; r < cols.size(); ++r) {
      if (valid[r] != 0) out.push_back(cols.record(r));
    }
  }
  return out;
}

}  // namespace usaas::service
