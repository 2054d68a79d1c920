// Fig 4: "User engagement (x-axis; normalized) correlates with explicit
// user feedback or MOS."
//
// Regenerates the engagement-decile vs mean-MOS curves over the sampled-
// feedback subset and reports the correlation per engagement metric.
// Presence must show the strongest correlation.
#include "bench_util.h"

#include "usaas/correlation_engine.h"

namespace {

using namespace usaas;
using service::CorrelationEngine;
using service::EngagementMetric;

CorrelationEngine build_engine(std::size_t calls) {
  confsim::DatasetConfig cfg;
  cfg.seed = 44;
  cfg.num_calls = calls;
  cfg.sampling = confsim::ConditionSampling::kPopulation;
  CorrelationEngine engine;
  engine.ingest(confsim::CallDatasetGenerator{cfg}.generate());
  return engine;
}

void reproduction() {
  bench::print_header(
      "Fig 4 reproduction: engagement deciles vs MOS (sampled feedback)");
  const auto engine = build_engine(60000);
  std::printf("total sessions ingested: %zu\n", engine.session_count());

  constexpr EngagementMetric kMetrics[] = {EngagementMetric::kPresence,
                                           EngagementMetric::kCamOn,
                                           EngagementMetric::kMicOn};
  for (const auto metric : kMetrics) {
    const auto corr = engine.mos_correlation(metric);
    if (!corr) {
      std::printf("%s: too few rated sessions\n", to_string(metric));
      continue;
    }
    std::printf("\n%s (rated sessions: %zu, pearson %.3f, spearman %.3f)\n",
                to_string(metric), corr->rated_sessions, corr->pearson,
                corr->spearman);
    std::printf("%16s | %8s\n", "engagement decile", "mean MOS");
    bench::print_rule();
    for (const auto& p : corr->decile_curve) {
      std::printf("%16.1f | %8.3f  (n=%zu)\n", p.metric_value, p.engagement,
                  p.sessions);
    }
  }
  std::printf("\n(paper: all engagement metrics correlate with MOS; Presence "
              "shows the strongest correlation)\n");
}

void BM_MosCorrelation(benchmark::State& state) {
  static const CorrelationEngine engine = build_engine(20000);
  for (auto _ : state) {
    const auto corr = engine.mos_correlation(EngagementMetric::kPresence);
    benchmark::DoNotOptimize(corr);
  }
}
BENCHMARK(BM_MosCorrelation);

}  // namespace

int main(int argc, char** argv) {
  return usaas::bench::run_reproduction_then_benchmarks(argc, argv,
                                                        reproduction);
}
