// Ablation: app-layer loss mitigation OFF.
//
// Fig 1 (middle-left)'s headline — loss up to 2% barely moves engagement —
// is not a property of users but of the application's safeguards ("MS
// Teams is able to effectively mitigate the packet loss using application
// layer safeguards"). Disabling FEC + retransmission makes the loss curve
// collapse like the latency curve, demonstrating the dependency.
#include "bench_util.h"

#include "usaas/correlation_engine.h"

namespace {

using namespace usaas;
using service::CorrelationEngine;
using service::EngagementMetric;

CorrelationEngine build_engine(bool mitigation_enabled) {
  confsim::DatasetConfig cfg;
  cfg.seed = 66;
  cfg.num_calls = 20000;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  cfg.sweep_metric = netsim::Metric::kLoss;
  cfg.sweep_lo = 0.0;
  cfg.sweep_hi = 3.5;
  cfg.mitigation.enabled = mitigation_enabled;
  CorrelationEngine engine;
  engine.ingest(confsim::CallDatasetGenerator{cfg}.generate());
  return engine;
}

void reproduction() {
  bench::print_header(
      "Ablation: loss curve with and without app-layer safeguards");
  const auto with = build_engine(true);
  const auto without = build_engine(false);

  service::SweepSpec spec;
  spec.metric = netsim::Metric::kLoss;
  spec.lo = 0.0;
  spec.hi = 3.5;
  spec.bins = 7;

  for (const auto metric :
       {EngagementMetric::kPresence, EngagementMetric::kMicOn}) {
    const auto mitigated =
        with.engagement_curve(spec, metric).normalized();
    const auto raw = without.engagement_curve(spec, metric).normalized();
    std::printf("\n%s (normalized)\n", to_string(metric));
    std::printf("%10s | %12s %12s\n", "loss %", "mitigated", "no-mitigation");
    bench::print_rule();
    for (std::size_t i = 0; i < mitigated.points.size(); ++i) {
      std::printf("%10.2f | %12.1f %12.1f\n",
                  mitigated.points[i].metric_value,
                  mitigated.points[i].engagement,
                  i < raw.points.size() ? raw.points[i].engagement : 0.0);
    }
    std::printf("drop at 3.5%% loss: mitigated %.1f%% vs no-mitigation "
                "%.1f%%\n",
                mitigated.relative_drop_percent(),
                raw.relative_drop_percent());
  }

  // Drop-off comparison: without safeguards the cliff moves left.
  std::printf("\nearly drop-off probability:\n");
  std::printf("%10s | %12s %12s\n", "loss %", "mitigated", "no-mitigation");
  bench::print_rule();
  const auto d_with = with.dropoff_curve(spec);
  const auto d_without = without.dropoff_curve(spec);
  for (std::size_t i = 0; i < d_with.size(); ++i) {
    std::printf("%10.2f | %12.3f %12.3f\n", d_with[i].metric_value,
                d_with[i].engagement,
                i < d_without.size() ? d_without[i].engagement : 0.0);
  }
}

void BM_MitigatedVsRawDataset(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  for (auto _ : state) {
    confsim::DatasetConfig cfg;
    cfg.seed = 1;
    cfg.num_calls = 500;
    cfg.mitigation.enabled = enabled;
    std::size_t n = 0;
    confsim::CallDatasetGenerator{cfg}.generate_stream(
        [&](const confsim::CallRecord& call) { n += call.participants.size(); });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_MitigatedVsRawDataset)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return usaas::bench::run_reproduction_then_benchmarks(argc, argv,
                                                        reproduction);
}
