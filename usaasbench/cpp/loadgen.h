// Open- and closed-loop load generation with per-request samples.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "usaas/query_service.h"

namespace usaasbench {

inline double ms(double seconds) { return seconds * 1e3; }

/// One request as the load generator saw it, plus whatever the executor
/// read back from the layer it called.
struct Sample {
  std::size_t index{0};
  bool done{false};
  double scheduled{0.0};  ///< Seconds after the pass started.
  double started{0.0};
  double finished{0.0};
  int status{0};
  // Wire phases.
  double connect_s{0.0};
  double ttfb_s{0.0};
  // The answer.
  std::uint64_t sessions{0};
  std::uint64_t rated{0};
  std::uint64_t posts{0};
  std::uint64_t version{0};
  std::uint64_t staleness{0};
  double wait_s{0.0};
  usaas::service::ServedBy served_by{usaas::service::ServedBy::kScan};
  // Inner durations reported by the layer below the one called.
  double inner_s{0.0};
  double cache_probe_s{0.0};
  double implicit_s{0.0};
  double social_s{0.0};
  // Engine replay.
  double curve_s{0.0};
  double tally_s{0.0};
  double engine_s{0.0};
  std::uint64_t rows_scanned{0};

  [[nodiscard]] double latency_s(bool open) const {
    return finished - (open ? scheduled : started);
  }
};

using Executor = std::function<void(std::size_t index, Sample& s)>;

struct LoadPlan {
  bool open{true};
  double rate{0.0};         ///< Open loop: requests per second.
  std::size_t threads{1};   ///< Senders (open) or clients (closed).
  std::size_t begin{0};     ///< Request indices [begin, end).
  std::size_t end{0};
  double max_seconds{0.0};  ///< Stop issuing after this long.
  /// When set, issuing also stops once it reads false.
  const std::atomic<bool>* active{nullptr};
};

/// Runs `plan`. An open loop sends request i at begin + i/rate whether or
/// not earlier ones finished (a late sender is counted, and latency runs
/// from the scheduled time); a closed loop's clients each send the next
/// request as soon as their previous one is answered. Returns the samples
/// of the requests sent, in index order.
[[nodiscard]] std::vector<Sample> drive(const LoadPlan& plan,
                                        const Executor& exec);

/// Requests per latency window: the fewest that give a p99 ten samples
/// beyond it.
inline constexpr std::size_t kWindowSamples = 1000;

struct LatencySummary {
  std::size_t samples{0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  std::vector<double> window_p50_ms;  ///< Per window, in pass order.
  std::vector<double> window_p99_ms;
  bool p99_valid{false};
  double late_p99_ms{0.0};
  double goodput_qps{0.0};
};

/// Latency percentiles (from the scheduled time in an open loop) and
/// goodput, per window of kWindowSamples requests: the lower quartile of
/// the windows' percentiles and the upper quartile of their goodput, each
/// window's goodput taken over its span from first due time to last
/// answer (`pass_seconds` when there are no samples).
[[nodiscard]] LatencySummary summarize(const std::vector<Sample>& samples,
                                       bool open, double pass_seconds);

}  // namespace usaasbench
