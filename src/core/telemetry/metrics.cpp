#include "core/telemetry/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace usaas::core::telemetry {

namespace {

/// Relaxed CAS add/max for atomic doubles (fetch_add on floating atomics
/// is C++20 but not uniformly lock-free; the CAS loop is portable and the
/// contention is already spread across shards).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

std::size_t histogram_bucket(double v) {
  if (!(v > 0.0)) return 0;  // zeros, negatives and NaN land in bucket 0
  const int exp = std::ilogb(v);  // floor(log2(v)): exact for edge values
  const long idx = static_cast<long>(exp) - kHistogramMinExp;
  if (idx < 0) return 0;
  if (idx >= static_cast<long>(kHistogramBuckets)) {
    return kHistogramBuckets - 1;
  }
  return static_cast<std::size_t>(idx);
}

double histogram_bucket_upper(std::size_t bucket) {
  if (bucket + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, kHistogramMinExp + static_cast<int>(bucket) + 1);
}

bool telemetry_enabled_value(const char* env_value) {
  if (env_value == nullptr) return true;
  std::string v{env_value};
  std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return v != "off" && v != "0" && v != "false" && v != "no";
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum_before = 0;
  for (const auto& [upper, cum] : buckets) {
    if (static_cast<double>(cum) >= rank) {
      const std::uint64_t in_bucket = cum - cum_before;
      if (in_bucket == 0) continue;
      // The bucket's lower edge is half its upper edge (log2 buckets);
      // bucket 0 and the overflow bucket have no finite span, so clamp
      // to the exact max instead of interpolating past it.
      double lower = 0.0;
      double hi = upper;
      if (std::isinf(upper)) {
        hi = max;
        lower = max;
      } else if (upper > std::ldexp(1.0, kHistogramMinExp + 1)) {
        lower = upper / 2.0;
      }
      const double within = (rank - static_cast<double>(cum_before)) /
                            static_cast<double>(in_bucket);
      return std::min(max, lower + (hi - lower) * within);
    }
    cum_before = cum;
  }
  return max;
}

void Counter::add(std::uint64_t n) const {
  if (cells_ == nullptr) return;
  cells_->shards[thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  if (cells_ == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& s : cells_->shards) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::observe(double v) const {
  if (cells_ == nullptr) return;
  detail::HistogramShard& shard = cells_->shards[thread_shard()];
  shard.counts[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  atomic_add(shard.sum, v);
  atomic_max(shard.max, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  if (cells_ == nullptr) return snap;
  std::array<std::uint64_t, kHistogramBuckets> merged{};
  for (const detail::HistogramShard& shard : cells_->shards) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      merged[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
  }
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (merged[b] == 0) continue;
    cum += merged[b];
    snap.buckets.emplace_back(histogram_bucket_upper(b), cum);
  }
  snap.count = cum;
  // Always expose the +Inf bucket so cumulative counts are complete even
  // when the top finite bucket is empty.
  if (snap.buckets.empty() || !std::isinf(snap.buckets.back().first)) {
    snap.buckets.emplace_back(std::numeric_limits<double>::infinity(), cum);
  }
  snap.p50 = snap.quantile(0.50);
  snap.p95 = snap.quantile(0.95);
  snap.p99 = snap.quantile(0.99);
  return snap;
}

Registry::Registry()
    : enabled_{telemetry_enabled_value(std::getenv("USAAS_TELEMETRY"))} {}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string sanitize_label_value(std::string_view value) {
  std::string out;
  out.reserve(std::min(value.size(), kMaxLabelValueBytes));
  for (const char c : value) {
    if (out.size() >= kMaxLabelValueBytes) break;
    const auto u = static_cast<unsigned char>(c);
    out.push_back((u < 0x20 || u == 0x7f) ? '_' : c);
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string render_labels(const Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out.push_back(',');
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out.push_back('"');
  }
  return out;
}

Registry::Metric& Registry::get_or_create(std::string_view name,
                                          std::string_view help,
                                          const Labels& labels,
                                          MetricKind kind) {
  // Callers hold mu_.
  std::string rendered = render_labels(labels);
  std::string key{name};
  key.push_back('\x1f');
  key += rendered;
  const auto [it, inserted] = index_.try_emplace(key, metrics_.size());
  if (inserted) {
    auto metric = std::make_unique<Metric>();
    metric->name = name;
    metric->labels = std::move(rendered);
    metric->help = help;
    metric->kind = kind;
    if (kind == MetricKind::kCounter) {
      metric->counter = std::make_unique<detail::CounterCells>();
    } else {
      metric->histogram = std::make_unique<detail::HistogramCells>();
    }
    metrics_.push_back(std::move(metric));
  }
  return *metrics_[it->second];
}

Counter Registry::counter(std::string_view name, std::string_view help,
                          const Labels& labels) {
  if (!enabled_) return Counter{};
  const std::lock_guard<std::mutex> lock{mu_};
  return Counter{
      get_or_create(name, help, labels, MetricKind::kCounter).counter.get()};
}

Histogram Registry::histogram(std::string_view name, std::string_view help,
                              const Labels& labels) {
  if (!enabled_) return Histogram{};
  const std::lock_guard<std::mutex> lock{mu_};
  return Histogram{
      get_or_create(name, help, labels, MetricKind::kHistogram)
          .histogram.get()};
}

std::size_t Registry::metric_count() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return metrics_.size();
}

std::vector<MetricFamily> Registry::collect() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<MetricFamily> families;
  std::map<std::string, std::size_t> family_index;
  for (const auto& metric : metrics_) {
    const auto [it, inserted] =
        family_index.try_emplace(metric->name, families.size());
    if (inserted) {
      families.push_back(
          {metric->name, metric->help, metric->kind, {}});
    }
    MetricFamily& family = families[it->second];
    Sample sample;
    sample.labels = metric->labels;
    if (metric->kind == MetricKind::kCounter) {
      sample.value_u = Counter{metric->counter.get()}.value();
    } else {
      sample.histogram = Histogram{metric->histogram.get()}.snapshot();
    }
    family.samples.push_back(std::move(sample));
  }
  return families;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

}  // namespace usaas::core::telemetry
