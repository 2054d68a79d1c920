// Process-wide, low-overhead metrics: event counters and log2-bucketed
// latency histograms behind a named registry. State (queue depth, breaker
// state, staged records) is not mirrored here: the component that holds
// it renders its gauges from its own stats() at scrape time.
//
// The §5 USaaS service is operator-facing: ingest lag, query latency,
// cache efficacy and degradation must be visible at a glance (the
// crowdsourced-QoE monitoring need Hoßfeld et al. call out). The hot
// paths this observes push millions of records per second, so the design
// budget is "a single relaxed atomic add per increment":
//
//   * every Counter and Histogram is sharded across kMetricShards
//     cache-line-padded atomic cells; a writer touches only the cell its
//     thread hashes to (no contention between pool workers), and
//     collection merges the shards;
//   * Histograms bucket values into pure power-of-two ranges — bucket i
//     holds v in [2^(kHistogramMinExp+i), 2^(kHistogramMinExp+i+1)), so
//     a value landing exactly on a bucket's lower edge belongs to that
//     bucket, with no floating-point edge ambiguity. P50/P95/P99 are
//     interpolated from the merged buckets; max is tracked exactly;
//   * the registry hands out trivially-copyable handles (a single
//     pointer); a disabled registry (USAAS_TELEMETRY=off, or
//     Registry{false}) registers nothing and hands out null handles whose
//     operations are single-branch no-ops — the kill switch costs one
//     predictable branch, not an atomic.
//
// Metrics are registered get-or-create by (name, labels): asking twice
// returns the same cells, so independent components can share a metric
// without coordination. Collection (collect()) is the cold path: it
// snapshots every metric into MetricFamily records that the exposition
// layer (exposition.h) renders as Prometheus text or JSON.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace usaas::core::telemetry {

/// How many cache-line-padded cells each counter/histogram shards across.
inline constexpr std::size_t kMetricShards = 16;
/// Histogram buckets: power-of-two ranges starting at 2^kHistogramMinExp
/// seconds (~0.93 ns); 48 buckets reach 2^17 s (~36 h) before the
/// overflow bucket.
inline constexpr std::size_t kHistogramBuckets = 48;
inline constexpr int kHistogramMinExp = -30;

/// Stable per-thread shard index in [0, kMetricShards). Assigned on first
/// use per thread (monotone round-robin), so pool workers land on
/// distinct cells.
[[nodiscard]] std::size_t thread_shard();

/// The bucket a value falls into: values <= 0 (and subnormal tails below
/// the first edge) land in bucket 0; bucket i >= 1 holds
/// [2^(kHistogramMinExp+i), 2^(kHistogramMinExp+i+1)); the last bucket
/// absorbs everything above.
[[nodiscard]] std::size_t histogram_bucket(double v);
/// Exclusive upper edge of a bucket (+infinity for the last).
[[nodiscard]] double histogram_bucket_upper(std::size_t bucket);

/// `USAAS_TELEMETRY` parsing: "off", "0", "false", "no" (any case)
/// disable; unset or anything else enables. Exposed for tests.
[[nodiscard]] bool telemetry_enabled_value(const char* env_value);

namespace detail {

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};

struct CounterCells {
  std::array<PaddedCount, kMetricShards> shards{};
};

struct alignas(64) HistogramShard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> counts{};
  std::atomic<double> sum{0.0};
  std::atomic<double> max{0.0};
};

struct HistogramCells {
  std::array<HistogramShard, kMetricShards> shards{};
};

}  // namespace detail

/// Merged view of one histogram at collection time.
struct HistogramSnapshot {
  std::uint64_t count{0};
  double sum{0.0};
  double max{0.0};
  double p50{0.0};
  double p95{0.0};
  double p99{0.0};
  /// (upper edge, cumulative count) for every non-empty bucket, ascending;
  /// the final entry is the +Inf bucket (cumulative == count).
  std::vector<std::pair<double, std::uint64_t>> buckets;

  /// Quantile in [0, 1]: interpolated within the owning bucket, clamped
  /// to the exact max.
  [[nodiscard]] double quantile(double q) const;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

/// One collected sample. Counters carry their exact integer value in
/// `value_u` unless `floating` is set (cumulative-seconds counters);
/// gauges use `value_d`; histograms use `histogram`.
struct Sample {
  std::string labels;  // rendered `key="value",...` without braces
  bool floating{false};
  std::uint64_t value_u{0};
  double value_d{0.0};
  HistogramSnapshot histogram;
};

/// All samples sharing a metric name.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricKind kind{MetricKind::kCounter};
  std::vector<Sample> samples;
};

/// Samples for families rendered from a component's own stats() ledger:
/// an exact integer (counters), or a floating value (gauges, cumulative
/// seconds) that both exposition formats print with format_double.
[[nodiscard]] inline Sample integer_sample(std::string labels,
                                           std::uint64_t value) {
  return {std::move(labels), false, value, 0.0, {}};
}
[[nodiscard]] inline Sample floating_sample(std::string labels, double value) {
  return {std::move(labels), true, 0, value, {}};
}

/// Label set at registration time, rendered in the given order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event counter handle. Null (from a disabled registry) makes
/// every operation a no-op; copyable and trivially destructible, so hot
/// paths keep handles by value.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;
  [[nodiscard]] std::uint64_t value() const;  // merged across shards
  [[nodiscard]] explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCells* cells) : cells_{cells} {}
  detail::CounterCells* cells_{nullptr};
};

/// Log2-bucketed distribution (typically seconds).
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCells* cells) : cells_{cells} {}
  detail::HistogramCells* cells_{nullptr};
};

/// Named metric registry. Thread-safe; registration is get-or-create by
/// (name, labels). Handles stay valid for the registry's lifetime (cells
/// are heap-held and never move). Not copyable or movable — components
/// borrow it by pointer.
class Registry {
 public:
  /// Enabled unless the USAAS_TELEMETRY environment variable disables
  /// telemetry (see telemetry_enabled_value). Read per construction, so
  /// tests can flip the variable around a fresh Registry.
  Registry();
  explicit Registry(bool enabled) : enabled_{enabled} {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  Counter counter(std::string_view name, std::string_view help = {},
                  const Labels& labels = {});
  Histogram histogram(std::string_view name, std::string_view help = {},
                      const Labels& labels = {});

  /// Registered metric count (0 for a disabled registry — the kill
  /// switch registers nothing, it does not merely hide values).
  [[nodiscard]] std::size_t metric_count() const;

  /// Snapshot every metric, grouped into families by name in first-
  /// registration order (samples in registration order within a family).
  [[nodiscard]] std::vector<MetricFamily> collect() const;

  /// The process-wide registry (the default sink for every service that
  /// is not handed an explicit one).
  [[nodiscard]] static Registry& global();

 private:
  struct Metric {
    std::string name;
    std::string labels;  // rendered
    std::string help;
    MetricKind kind{MetricKind::kCounter};
    std::unique_ptr<detail::CounterCells> counter;
    std::unique_ptr<detail::HistogramCells> histogram;
  };

  Metric& get_or_create(std::string_view name, std::string_view help,
                        const Labels& labels, MetricKind kind);

  bool enabled_{true};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Metric>> metrics_;
  std::map<std::string, std::size_t> index_;  // name \x1f labels -> slot
};

/// Escapes a label value for the Prometheus text format (backslash,
/// double quote, newline).
[[nodiscard]] std::string escape_label_value(std::string_view value);

/// Maximum bytes of a client-controlled string admitted as a label value
/// by sanitize_label_value (longer inputs are truncated). Bounds both
/// exposition line length and the cardinality a hostile client can mint.
inline constexpr std::size_t kMaxLabelValueBytes = 64;

/// Defense-in-depth for *client-controlled* label values (tenant names
/// from the wire): replaces control bytes (< 0x20, 0x7f) — which
/// escape_label_value passes through verbatim and which can smuggle CR
/// or split exposition lines — with '_', truncates to
/// kMaxLabelValueBytes, and maps an empty result to "_". Distinct raw
/// names can collide after sanitization; colliding tenants share a label
/// series, which is the safe failure mode.
[[nodiscard]] std::string sanitize_label_value(std::string_view value);

/// Renders labels as `key="value",...` (no braces), in the given order.
[[nodiscard]] std::string render_labels(const Labels& labels);

}  // namespace usaas::core::telemetry
