// Fixed-interval telemetry history: folds a family source passed in at
// tick time (the service's collect_families(), what /metrics renders)
// into bounded per-series rings so "what was this tenant's shed rate /
// breaker state / cost bias over the last hour" is a query, not a guess.
//
// Each tick (default every 10 s, 360 slots = one hour) calls the source
// and appends one point per series:
//
//   counter    -> delta since the previous tick (a rate, not a lifetime
//                 total — the thing a dashboard actually plots);
//   gauge      -> current value (breaker state, queue depth, cost bias);
//   histogram  -> four derived sub-series, `key:count` (observation
//                 delta) and `key:p50`/`key:p95`/`key:p99` (quantiles of
//                 the lifetime distribution at tick time).
//
// Series are keyed `name{labels}` exactly as the exposition layer keys
// samples, so a point here is joinable against /metrics.json by string
// equality. A series reads NaN (JSON null) while absent (before a new
// tenant, after its component detaches); a counter that reappears counts
// from zero. A counter that drops (a merged source detached) reads NaN
// for that tick: its delta is unknown.
//
// Ticks are driven by callers that already hold "now" (the HTTP listener
// per request, tests explicitly with virtual time) — the history never
// reads a clock itself, which makes the USAAS_TELEMETRY=off contract
// (no clock reads, no allocations) trivial and keeps tests
// deterministic. The due-check is one relaxed atomic load, so ticking
// per request costs nothing between intervals.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/telemetry/metrics.h"

namespace usaas::core::telemetry {

struct HistoryConfig {
  double interval_seconds{10.0};
  std::size_t slots{360};
};

class TelemetryHistory {
 public:
  using Source = std::function<std::vector<MetricFamily>()>;

  TelemetryHistory() = default;  ///< Disabled.
  TelemetryHistory(const HistoryConfig& cfg, bool enabled);

  TelemetryHistory(const TelemetryHistory&) = delete;
  TelemetryHistory& operator=(const TelemetryHistory&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const HistoryConfig& config() const { return cfg_; }

  /// Folds `source`'s families iff `interval_seconds` have elapsed since
  /// the last snapshot (the first call always snapshots); `source` is not
  /// called otherwise. Returns whether it folded.
  bool tick(double now_seconds, const Source& source);

  /// Unconditional snapshot (tests, shutdown flush).
  void force_tick(double now_seconds, const Source& source);

  struct Series {
    std::string key;  ///< `name{labels}` (+ `:count`/`:p50`/... suffix).
    MetricKind kind{MetricKind::kCounter};
    /// One value per retained tick, aligned with Snapshot::at_seconds;
    /// NaN where the series did not exist yet.
    std::vector<double> values;
  };

  struct Snapshot {
    double interval_seconds{0.0};
    std::size_t slots{0};
    std::vector<double> at_seconds;  ///< Tick stamps, oldest first.
    std::vector<Series> series;      ///< Key-sorted.
  };

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] std::uint64_t ticks() const;

 private:
  struct SeriesData {
    MetricKind kind{MetricKind::kCounter};
    double prev{0.0};  ///< Previous cumulative value (counter / count).
    std::vector<double> values;  ///< Aligned with times_.
  };

  void fold_locked(double now_seconds, const Source& source);
  void append_point_locked(const std::string& key, MetricKind kind,
                           double cumulative_or_value, bool is_delta);

  HistoryConfig cfg_{};
  bool enabled_{false};
  std::atomic<double> next_due_{-std::numeric_limits<double>::infinity()};
  mutable std::mutex mu_;
  std::vector<double> times_;
  std::uint64_t ticks_{0};
  std::map<std::string, SeriesData> series_;
};

}  // namespace usaas::core::telemetry
