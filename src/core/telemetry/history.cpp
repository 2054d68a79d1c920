#include "core/telemetry/history.h"

#include <cmath>

namespace usaas::core::telemetry {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string series_key(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

}  // namespace

TelemetryHistory::TelemetryHistory(const HistoryConfig& cfg, bool enabled)
    : cfg_{cfg}, enabled_{enabled && cfg.slots > 0} {}

bool TelemetryHistory::tick(double now_seconds, const Source& source) {
  if (!enabled_) return false;
  if (now_seconds < next_due_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock{mu_};
  // Re-check under the lock: another thread may have folded this tick.
  if (now_seconds < next_due_.load(std::memory_order_relaxed)) return false;
  fold_locked(now_seconds, source);
  next_due_.store(now_seconds + cfg_.interval_seconds,
                  std::memory_order_relaxed);
  return true;
}

void TelemetryHistory::force_tick(double now_seconds, const Source& source) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock{mu_};
  fold_locked(now_seconds, source);
  next_due_.store(now_seconds + cfg_.interval_seconds,
                  std::memory_order_relaxed);
}

void TelemetryHistory::append_point_locked(const std::string& key,
                                           MetricKind kind,
                                           double cumulative_or_value,
                                           bool is_delta) {
  auto [it, created] = series_.try_emplace(key);
  SeriesData& data = it->second;
  if (created) {
    data.kind = kind;
    // Back-fill the ticks this series missed (times_ already holds the
    // current tick's stamp, so pad to size - 1).
    data.values.assign(times_.size() - 1, kNaN);
  }
  if (is_delta) {
    // First observation of a delta series reports the full cumulative
    // value: the series was born this interval, so the lifetime total IS
    // this interval's delta. A drop means a merged source left: this
    // interval's delta is unknown, not the whole remaining total.
    data.values.push_back(cumulative_or_value < data.prev
                              ? kNaN
                              : cumulative_or_value - data.prev);
    data.prev = cumulative_or_value;
  } else {
    data.values.push_back(cumulative_or_value);
  }
}

void TelemetryHistory::fold_locked(double now_seconds, const Source& source) {
  times_.push_back(now_seconds);
  ++ticks_;
  const std::vector<MetricFamily> families = source();
  for (const MetricFamily& family : families) {
    for (const Sample& sample : family.samples) {
      const std::string key = series_key(family.name, sample.labels);
      switch (family.kind) {
        case MetricKind::kCounter:
          append_point_locked(
              key, family.kind,
              sample.floating ? sample.value_d
                              : static_cast<double>(sample.value_u),
              /*is_delta=*/true);
          break;
        case MetricKind::kGauge:
          append_point_locked(key, family.kind, sample.value_d,
                              /*is_delta=*/false);
          break;
        case MetricKind::kHistogram: {
          const HistogramSnapshot& h = sample.histogram;
          append_point_locked(key + ":count", family.kind,
                              static_cast<double>(h.count),
                              /*is_delta=*/true);
          append_point_locked(key + ":p50", family.kind, h.p50,
                              /*is_delta=*/false);
          append_point_locked(key + ":p95", family.kind, h.p95,
                              /*is_delta=*/false);
          append_point_locked(key + ":p99", family.kind, h.p99,
                              /*is_delta=*/false);
          break;
        }
      }
    }
  }
  // A series missing from this tick (its component detached) pads with
  // NaN and restarts.
  for (auto& [key, data] : series_) {
    if (data.values.size() < times_.size()) {
      data.values.push_back(kNaN);
      data.prev = 0.0;
    }
  }
  // Bound the rings.
  if (times_.size() > cfg_.slots) {
    const std::size_t drop = times_.size() - cfg_.slots;
    times_.erase(times_.begin(),
                 times_.begin() + static_cast<std::ptrdiff_t>(drop));
    for (auto& [key, data] : series_) {
      data.values.erase(
          data.values.begin(),
          data.values.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }
}

TelemetryHistory::Snapshot TelemetryHistory::snapshot() const {
  Snapshot snap;
  snap.interval_seconds = cfg_.interval_seconds;
  snap.slots = cfg_.slots;
  if (!enabled_) return snap;
  std::lock_guard<std::mutex> lock{mu_};
  snap.at_seconds = times_;
  snap.series.reserve(series_.size());
  for (const auto& [key, data] : series_) {
    snap.series.push_back(Series{key, data.kind, data.values});
  }
  return snap;
}

std::uint64_t TelemetryHistory::ticks() const {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock{mu_};
  return ticks_;
}

}  // namespace usaas::core::telemetry
