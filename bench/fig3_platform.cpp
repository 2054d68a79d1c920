// Fig 3: "The platform type impacts user sensitivity to network loss rate."
//
// Regenerates the per-platform Presence-vs-loss curves; mobile platforms
// drop off sooner at the same loss rate.
#include "bench_util.h"

#include "usaas/correlation_engine.h"

namespace {

using namespace usaas;
using confsim::Platform;
using service::CorrelationEngine;
using service::EngagementMetric;

CorrelationEngine build_engine(std::size_t calls) {
  confsim::DatasetConfig cfg;
  cfg.seed = 33;
  cfg.num_calls = calls;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  cfg.sweep_metric = netsim::Metric::kLoss;
  cfg.sweep_lo = 0.0;
  cfg.sweep_hi = 3.5;
  CorrelationEngine engine;
  engine.ingest(confsim::CallDatasetGenerator{cfg}.generate());
  return engine;
}

void reproduction() {
  bench::print_header(
      "Fig 3 reproduction: Presence vs loss rate, per platform (normalized)");
  const auto engine = build_engine(40000);

  service::SweepSpec spec;
  spec.metric = netsim::Metric::kLoss;
  spec.lo = 0.0;
  spec.hi = 3.5;
  spec.bins = 7;

  constexpr Platform kPlatforms[] = {Platform::kWindowsPc, Platform::kMacPc,
                                     Platform::kIos, Platform::kAndroid};
  std::vector<service::EngagementCurve> curves;
  for (const Platform p : kPlatforms) {
    curves.push_back(engine
                         .engagement_curve(spec, EngagementMetric::kPresence,
                                           [p](const confsim::ParticipantRecord& r) {
                                             return r.platform == p;
                                           })
                         .normalized());
  }

  std::printf("%10s |", "loss %");
  for (const Platform p : kPlatforms) std::printf(" %11s", to_string(p));
  std::printf("\n");
  bench::print_rule();
  for (std::size_t i = 0; i < curves[0].points.size(); ++i) {
    std::printf("%10.2f |", curves[0].points[i].metric_value);
    for (const auto& curve : curves) {
      std::printf(" %11.1f",
                  i < curve.points.size() ? curve.points[i].engagement : 0.0);
    }
    std::printf("\n");
  }
  std::printf("\nrelative presence drop at 3.5%% loss:\n");
  for (std::size_t i = 0; i < curves.size(); ++i) {
    std::printf("  %-11s %.1f%%\n", to_string(kPlatforms[i]),
                curves[i].relative_drop_percent());
  }
  std::printf("(paper: mobile users drop off sooner; OS matters too)\n");
}

void BM_FilteredCurve(benchmark::State& state) {
  static const CorrelationEngine engine = build_engine(8000);
  service::SweepSpec spec;
  spec.metric = netsim::Metric::kLoss;
  spec.lo = 0.0;
  spec.hi = 3.5;
  for (auto _ : state) {
    const auto curve = engine.engagement_curve(
        spec, EngagementMetric::kPresence,
        [](const confsim::ParticipantRecord& r) {
          return r.platform == Platform::kAndroid;
        });
    benchmark::DoNotOptimize(curve.points.data());
  }
}
BENCHMARK(BM_FilteredCurve);

}  // namespace

int main(int argc, char** argv) {
  return usaas::bench::run_reproduction_then_benchmarks(argc, argv,
                                                        reproduction);
}
