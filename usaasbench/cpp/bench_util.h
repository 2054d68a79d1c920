// Measurement helpers shared by the wire benchmark and its tests:
// percentiles with a sample-count rule, span self times, host probes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace usaasbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile `q` in (0, 1) of `samples`, or nullopt unless at
/// least `min_beyond` samples lie above the chosen rank. A p99 therefore
/// needs 1000 samples before it is reported: a tail figure resting on a
/// handful of requests moves with every run.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q,
                                               std::size_t min_beyond = 10);

/// The same rule over samples that repeat: (value, how many samples have
/// it). Freshness is recorded this way, one pair per flushed batch slice
/// instead of one entry per record.
[[nodiscard]] std::optional<double> percentile(
    std::vector<std::pair<double, std::uint64_t>> weighted, double q,
    std::size_t min_beyond = 10);

/// The percentile to report when the rule above fails: the highest one
/// that still has `min_beyond` samples above it (0 with too few samples).
[[nodiscard]] double tail_percentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond = 10);

[[nodiscard]] double median(std::vector<double> samples);

/// Quantile `q` in [0, 1] of a few figures (one per window), interpolated
/// between neighbours as Python's statistics.quantiles(method="inclusive")
/// does; 0 for none.
[[nodiscard]] double window_quantile(std::vector<double> figures, double q);

/// One timed interval of a request at a layer boundary. Spans of one
/// request share `request`; `parent` indexes the enclosing span in the
/// same vector (-1 for the root).
struct Span {
  std::string layer;
  std::uint64_t request{0};
  int parent{-1};
  double start{0.0};  ///< Seconds on any common clock.
  double end{0.0};
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children that overlap each other — parallel
/// fan-out — count once, and the part of a child outside its parent is
/// ignored). Indexed like `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// A fixed CPU-bound loop split over 1, 2 and 4 threads; returns the
/// speedup of the best split over one thread — the parallelism the host
/// actually delivers, whatever it reports.
struct HostProbe {
  double seconds_1t{0.0};
  double seconds_2t{0.0};
  double seconds_4t{0.0};
  double measured_parallelism{1.0};
  double loadavg_1m{0.0};
  unsigned reported_cpus{0};
};
[[nodiscard]] HostProbe probe_host();

/// Resident set of this process now, in MiB (VmRSS).
[[nodiscard]] double rss_mb();
/// Peak resident set of this process, in MiB (VmHWM): since the last
/// successful reset_peak_rss(), else since it started.
[[nodiscard]] double peak_rss_mb();
/// Lowers the peak to the current resident set (writes 5 to
/// /proc/self/clear_refs); false where the kernel refuses.
[[nodiscard]] bool reset_peak_rss();
/// Minor page faults of this process so far (getrusage).
[[nodiscard]] long minor_faults();

/// Accumulates the benchmark's final JSON line, each value printed with
/// full precision.
class ResultLine {
 public:
  void add(const std::string& name, double value);
  /// Renders exactly the metrics of `catalogue` (name, unit), in its order;
  /// one never added prints as 0 (a layer the workload does not use).
  [[nodiscard]] std::string render(
      const std::vector<std::pair<std::string, std::string>>& catalogue,
      bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value{0.0};
  };
  std::vector<Metric> metrics_;
};

}  // namespace usaasbench
