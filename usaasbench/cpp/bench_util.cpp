#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace usaasbench {

namespace {

/// 1-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(q, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> percentile(
    std::vector<std::pair<double, std::uint64_t>> weighted, double q,
    std::size_t min_beyond) {
  std::uint64_t n = 0;
  for (const auto& [value, count] : weighted) n += count;
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(q, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::sort(weighted.begin(), weighted.end());
  std::uint64_t seen = 0;
  for (const auto& [value, count] : weighted) {
    seen += count;
    if (seen >= rank) return value;
  }
  return weighted.back().first;
}

double tail_percentile(std::vector<double> samples, double q,
                       std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n <= min_beyond) return 0.0;
  const double highest =
      static_cast<double>(n - min_beyond) / static_cast<double>(n);
  return *percentile(std::move(samples), std::min(q, highest), min_beyond);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double window_quantile(std::vector<double> figures, double q) {
  if (figures.empty()) return 0.0;
  std::sort(figures.begin(), figures.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(figures.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, figures.size() - 1);
  return figures[lo] + (pos - static_cast<double>(lo)) * (figures[hi] - figures[lo]);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (const std::size_t c : children[i]) {
      const double a = std::max(s.start, spans[c].start);
      const double b = std::min(s.end, spans[c].end);
      if (b > a) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    double union_len = 0.0;
    double run_a = 0.0;
    double run_b = -1.0;
    bool open = false;
    for (const auto& [a, b] : covered) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) union_len += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) union_len += run_b - run_a;
    out[i] = (s.end - s.start) - union_len;
  }
  return out;
}

HostProbe probe_host() {
  // A dependent multiply-add chain the compiler cannot vectorize or fold;
  // ~40 ms of work on one core of a current x86 host.
  constexpr std::uint64_t kIterations = 40'000'000;
  const auto spin = [](std::uint64_t iters) {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink = x;
    (void)sink;
  };
  const auto timed_split = [&](unsigned threads) {
    // Best of three: the probe measures capacity, not a noisy neighbour.
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back(spin, kIterations / threads);
      }
      for (std::thread& th : pool) th.join();
      best = std::min(best, seconds_between(t0, Clock::now()));
    }
    return best;
  };
  HostProbe probe;
  probe.seconds_1t = timed_split(1);
  probe.seconds_2t = timed_split(2);
  probe.seconds_4t = timed_split(4);
  probe.measured_parallelism =
      probe.seconds_1t / std::min(probe.seconds_2t, probe.seconds_4t);
  probe.reported_cpus = std::thread::hardware_concurrency();
  std::ifstream loadavg{"/proc/loadavg"};
  loadavg >> probe.loadavg_1m;
  return probe;
}

namespace {

/// A "Vm...:  <n> kB" field of /proc/self/status, in MiB (0 if absent).
double status_mb(const std::string& field) {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == field + ":") {
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_mb("VmRSS"); }

double peak_rss_mb() { return status_mb("VmHWM"); }

bool reset_peak_rss() {
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5";
  clear.flush();
  return clear.good();
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void ResultLine::add(const std::string& name, double value) {
  metrics_.push_back({name, value});
}

std::string ResultLine::render(
    const std::vector<std::pair<std::string, std::string>>& catalogue,
    bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const auto& [name, unit] = catalogue[i];
    double v = 0.0;
    for (const Metric& m : metrics_) {
      if (m.name == name) v = m.value;
    }
    // JSON has no NaN/inf; a non-finite figure is a bug upstream, shown
    // as 0 rather than as an unparseable line.
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace usaasbench
