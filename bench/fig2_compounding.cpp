// Fig 2: "High network latency and high packet loss together have a
// compounding impact on Presence."
//
// Regenerates the latency x loss heat map of mean Presence and reports the
// worst-cell dip relative to the best cell (the paper: "Presence could dip
// by as much as ~50% for certain combinations").
#include "bench_util.h"

#include "usaas/correlation_engine.h"

namespace {

using namespace usaas;
using service::CorrelationEngine;
using service::EngagementMetric;

CorrelationEngine build_engine(std::size_t calls) {
  confsim::DatasetConfig cfg;
  cfg.seed = 22;
  cfg.num_calls = calls;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  cfg.sweep_metric = netsim::Metric::kLatency;
  cfg.sweep_lo = 0.0;
  cfg.sweep_hi = 320.0;
  // Let loss roam over its full range too (jitter/bw stay controlled).
  cfg.control_windows.loss_hi_pct = 3.4;
  CorrelationEngine engine;
  engine.ingest(confsim::CallDatasetGenerator{cfg}.generate());
  return engine;
}

void reproduction() {
  bench::print_header(
      "Fig 2 reproduction: Presence heat map over latency x loss");
  const auto engine = build_engine(30000);
  constexpr std::size_t kLatBins = 4;
  constexpr std::size_t kLossBins = 4;
  const auto grid = engine.compounding_grid(EngagementMetric::kPresence,
                                            320.0, kLatBins, 3.4, kLossBins);

  std::printf("%18s", "loss \\ latency |");
  for (std::size_t xi = 0; xi < kLatBins; ++xi) {
    std::printf("  %6.0f ms", (320.0 / kLatBins) * (xi + 0.5));
  }
  std::printf("\n");
  bench::print_rule();
  for (std::size_t yi = 0; yi < kLossBins; ++yi) {
    std::printf("%12.2f %% |", (3.4 / kLossBins) * (yi + 0.5));
    for (std::size_t xi = 0; xi < kLatBins; ++xi) {
      const auto mean = grid.cell_mean(xi, yi);
      if (mean) {
        std::printf("  %8.1f", *mean);
      } else {
        std::printf("  %8s", "-");
      }
    }
    std::printf("\n");
  }

  const auto best = grid.max_cell_mean();
  const auto worst = grid.min_cell_mean();
  if (best && worst) {
    std::printf("\nbest cell %.1f, worst cell %.1f -> dip to %.0f%% of best "
                "(paper: dips \"by as much as ~50%%\")\n",
                *best, *worst, 100.0 * *worst / *best);
  }

  // The additive-vs-compound decomposition the paper argues for.
  const auto lat_only = grid.cell_mean(kLatBins - 1, 0);
  const auto loss_only = grid.cell_mean(0, kLossBins - 1);
  const auto both = grid.cell_mean(kLatBins - 1, kLossBins - 1);
  const auto neither = grid.cell_mean(0, 0);
  if (lat_only && loss_only && both && neither) {
    const double lat_damage = *neither - *lat_only;
    const double loss_damage = *neither - *loss_only;
    const double joint = *neither - *both;
    std::printf("damage: latency-only %.1f + loss-only %.1f = %.1f < joint "
                "%.1f (superadditive)\n",
                lat_damage, loss_damage, lat_damage + loss_damage, joint);
  }
}

void BM_GridConstruction(benchmark::State& state) {
  static const CorrelationEngine engine = build_engine(8000);
  for (auto _ : state) {
    const auto grid = engine.compounding_grid(EngagementMetric::kPresence,
                                              320.0, 8, 3.4, 8);
    benchmark::DoNotOptimize(grid.max_cell_mean());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.session_count()));
}
BENCHMARK(BM_GridConstruction);

}  // namespace

int main(int argc, char** argv) {
  return usaas::bench::run_reproduction_then_benchmarks(argc, argv,
                                                        reproduction);
}
