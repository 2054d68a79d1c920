// Fig 1: "User engagement changes with network latency (left), packet loss
// (middle-left), network jitter (middle-right), and bandwidth (right)."
//
// Regenerates all four panels: engagement (Presence / Cam On / Mic On,
// normalized to 100 at the best bin like the paper's y-axis) binned over
// each swept network metric, with the paper's other-metrics-in-control
// filter applied, plus the early-drop-off series for the loss panel.
#include "bench_util.h"

#include "core/csv.h"
#include "usaas/correlation_engine.h"

namespace {

using namespace usaas;
using service::CorrelationEngine;
using service::EngagementMetric;

constexpr std::size_t kCalls = 20000;

CorrelationEngine build_engine(netsim::Metric metric, double lo, double hi,
                               std::uint64_t seed) {
  confsim::DatasetConfig cfg;
  cfg.seed = seed;
  cfg.num_calls = kCalls;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  cfg.sweep_metric = metric;
  cfg.sweep_lo = lo;
  cfg.sweep_hi = hi;
  CorrelationEngine engine;
  engine.ingest(confsim::CallDatasetGenerator{cfg}.generate());
  return engine;
}

void print_panel(const char* title, const CorrelationEngine& engine,
                 netsim::Metric metric, double lo, double hi,
                 std::size_t bins, const char* unit) {
  bench::print_header(title);
  service::SweepSpec spec;
  spec.metric = metric;
  spec.lo = lo;
  spec.hi = hi;
  spec.bins = bins;
  const auto presence =
      engine.engagement_curve(spec, EngagementMetric::kPresence).normalized();
  const auto cam =
      engine.engagement_curve(spec, EngagementMetric::kCamOn).normalized();
  const auto mic =
      engine.engagement_curve(spec, EngagementMetric::kMicOn).normalized();
  std::printf("%12s | %9s %9s %9s | sessions\n", unit, "Presence", "CamOn",
              "MicOn");
  bench::print_rule();
  for (std::size_t i = 0; i < presence.points.size(); ++i) {
    std::printf("%12.2f | %9.1f %9.1f %9.1f | %zu\n",
                presence.points[i].metric_value, presence.points[i].engagement,
                i < cam.points.size() ? cam.points[i].engagement : 0.0,
                i < mic.points.size() ? mic.points[i].engagement : 0.0,
                presence.points[i].sessions);
  }
  std::printf("relative drop to worst bin: presence %.1f%%  cam %.1f%%  "
              "mic %.1f%%\n",
              presence.relative_drop_percent(), cam.relative_drop_percent(),
              mic.relative_drop_percent());
  if (const auto dir = bench::csv_export_dir()) {
    core::CsvTable csv{{"metric_value", "presence", "cam_on", "mic_on",
                        "sessions"}};
    for (std::size_t i = 0; i < presence.points.size(); ++i) {
      csv.add_numeric_row(
          {presence.points[i].metric_value, presence.points[i].engagement,
           i < cam.points.size() ? cam.points[i].engagement : 0.0,
           i < mic.points.size() ? mic.points[i].engagement : 0.0,
           static_cast<double>(presence.points[i].sessions)});
    }
    const std::string path = *dir + "/fig1_" +
                             netsim::to_string(metric) + ".csv";
    csv.write_file(path);
    std::printf("(csv written to %s)\n", path.c_str());
  }
}

void reproduction() {
  bench::print_header(
      "Fig 1 reproduction: engagement vs network conditions (normalized, "
      "best bin = 100)");
  {
    const auto engine = build_engine(netsim::Metric::kLatency, 0.0, 300.0, 1);
    print_panel("Fig 1 (left): mean network latency sweep 0-300 ms", engine,
                netsim::Metric::kLatency, 0.0, 300.0, 15, "latency ms");
  }
  {
    const auto engine = build_engine(netsim::Metric::kLoss, 0.0, 3.5, 2);
    print_panel("Fig 1 (middle-left): mean packet loss sweep 0-3.5 %", engine,
                netsim::Metric::kLoss, 0.0, 3.5, 14, "loss %");
    // The drop-off series behind "at very high packet loss of 3% or more,
    // the chance of a user dropping off increases significantly".
    service::SweepSpec spec;
    spec.metric = netsim::Metric::kLoss;
    spec.lo = 0.0;
    spec.hi = 3.5;
    spec.bins = 7;
    std::printf("\nearly drop-off probability by loss bin:\n");
    for (const auto& p : engine.dropoff_curve(spec)) {
      std::printf("  loss %5.2f %% -> P(drop) = %.3f  (n=%zu)\n",
                  p.metric_value, p.engagement, p.sessions);
    }
  }
  {
    const auto engine = build_engine(netsim::Metric::kJitter, 0.0, 16.0, 3);
    print_panel("Fig 1 (middle-right): mean jitter sweep 0-16 ms", engine,
                netsim::Metric::kJitter, 0.0, 16.0, 8, "jitter ms");
  }
  {
    const auto engine =
        build_engine(netsim::Metric::kBandwidth, 0.25, 4.0, 4);
    print_panel("Fig 1 (right): mean available bandwidth sweep 0.25-4 Mbps",
                engine, netsim::Metric::kBandwidth, 0.25, 4.0, 8, "bw Mbps");
  }
}

void BM_SweepGeneration(benchmark::State& state) {
  for (auto _ : state) {
    confsim::DatasetConfig cfg;
    cfg.seed = 7;
    cfg.num_calls = static_cast<std::size_t>(state.range(0));
    cfg.sampling = confsim::ConditionSampling::kSweep;
    std::size_t participants = 0;
    confsim::CallDatasetGenerator{cfg}.generate_stream(
        [&](const confsim::CallRecord& call) {
          participants += call.participants.size();
        });
    benchmark::DoNotOptimize(participants);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepGeneration)->Arg(100)->Arg(1000);

void BM_CurveExtraction(benchmark::State& state) {
  static const CorrelationEngine engine =
      build_engine(netsim::Metric::kLatency, 0.0, 300.0, 9);
  service::SweepSpec spec;
  spec.metric = netsim::Metric::kLatency;
  spec.lo = 0.0;
  spec.hi = 300.0;
  for (auto _ : state) {
    const auto curve =
        engine.engagement_curve(spec, EngagementMetric::kPresence);
    benchmark::DoNotOptimize(curve.points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.session_count()));
}
BENCHMARK(BM_CurveExtraction);

}  // namespace

int main(int argc, char** argv) {
  return usaas::bench::run_reproduction_then_benchmarks(argc, argv,
                                                        reproduction);
}
