#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <thread>

namespace usaasbench {

namespace {

/// Sleeps until `due` and spins through the last stretch: a sleeping
/// thread wakes up to tens of microseconds late, by an amount that moves
/// with the host's load, and an open loop would count that as latency.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds{200};
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

std::vector<Sample> drive(const LoadPlan& plan, const Executor& exec) {
  std::vector<Sample> samples(plan.end - plan.begin);
  std::atomic<std::size_t> next{plan.begin};
  const auto t0 = Clock::now() + std::chrono::milliseconds{5};
  const auto worker = [&] {
    // Sleeps overshoot by the timer slack (50 us by default); ask for 1 ns.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.end) return;
      if (plan.active != nullptr && !plan.active->load()) return;
      Sample& s = samples[i - plan.begin];
      s.index = i;
      if (plan.open) {
        s.scheduled = static_cast<double>(i - plan.begin) / plan.rate;
        if (s.scheduled >= plan.max_seconds) return;
        wait_until(t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s.scheduled)));
        if (plan.active != nullptr && !plan.active->load()) return;
      } else if (seconds_between(t0, Clock::now()) >= plan.max_seconds) {
        return;
      }
      s.started = seconds_between(t0, Clock::now());
      if (!plan.open) s.scheduled = s.started;
      exec(i, s);
      s.finished = seconds_between(t0, Clock::now());
      s.done = true;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < plan.threads; ++t) threads.emplace_back(worker);
  for (std::thread& th : threads) th.join();
  std::erase_if(samples, [](const Sample& s) { return !s.done; });
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return samples;
}

LatencySummary summarize(const std::vector<Sample>& samples, bool open,
                         double pass_seconds) {
  LatencySummary out;
  std::vector<double> lat;
  std::vector<double> late;
  std::size_t good = 0;
  for (const Sample& s : samples) {
    lat.push_back(ms(s.latency_s(open)));
    late.push_back(ms(s.started - s.scheduled));
    if (s.status == 200) ++good;
  }
  out.samples = lat.size();
  // Percentiles and goodput per consecutive window of at least
  // kWindowSamples requests (so each window's p99 has ten samples beyond
  // it). The host's interference only ever adds time, and it comes and goes
  // within a run, so each figure is taken from the quieter windows: the
  // lower quartile of the windows' latencies and the upper quartile of
  // their goodput. A slow stretch covering up to three quarters of the
  // windows cannot move it, while a change that slows every request moves
  // every window.
  const std::size_t windows =
      std::max<std::size_t>(1, lat.size() / kWindowSamples);
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> rates;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto b = static_cast<std::ptrdiff_t>(w * lat.size() / windows);
    const auto e = static_cast<std::ptrdiff_t>((w + 1) * lat.size() / windows);
    if (b == e) break;  // no samples at all
    const std::vector<double> slice(lat.begin() + b, lat.begin() + e);
    p50s.push_back(percentile(slice, 0.50).value_or(median(slice)));
    p99s.push_back(percentile(slice, 0.99).value_or(tail_percentile(slice, 0.99)));
    // Goodput over the window's span, from its first due time to its last
    // answer, so it carries the pass's real timing rather than a nominal one.
    double first = samples[static_cast<std::size_t>(b)].scheduled;
    double last = first;
    std::size_t good_here = 0;
    for (auto i = b; i < e; ++i) {
      const Sample& s = samples[static_cast<std::size_t>(i)];
      first = std::min(first, s.scheduled);
      last = std::max(last, s.finished);
      if (s.status == 200) ++good_here;
    }
    if (last > first) rates.push_back(static_cast<double>(good_here) / (last - first));
  }
  out.window_p50_ms = p50s;
  out.window_p99_ms = p99s;
  out.p50_ms = window_quantile(p50s, 0.25);
  out.p99_ms = window_quantile(p99s, 0.25);
  out.p99_valid = lat.size() >= kWindowSamples;
  out.late_p99_ms = tail_percentile(late, 0.99);
  out.goodput_qps = rates.empty() ? static_cast<double>(good) / pass_seconds
                                  : window_quantile(rates, 0.75);
  return out;
}

}  // namespace usaasbench
