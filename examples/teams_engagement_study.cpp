// The §3 study as an application: generate an enterprise call corpus with
// realistic (population-mixture) network conditions, then answer the
// questions the paper asks of the MS Teams data:
//   * which network metric hurts which user action,
//   * does engagement predict the sampled MOS,
//   * and how much MOS coverage does the predictor add.
//
// Build & run:   ./build/examples/teams_engagement_study
#include <cstdio>
#include <vector>

#include "confsim/dataset.h"
#include "usaas/correlation_engine.h"
#include "usaas/mos_predictor.h"

int main() {
  using namespace usaas;

  std::printf("generating a 4-month enterprise call corpus...\n");
  confsim::DatasetConfig cfg;
  cfg.seed = 42;
  cfg.num_calls = 15000;
  cfg.sampling = confsim::ConditionSampling::kPopulation;
  cfg.first_day = core::Date(2022, 1, 3);
  cfg.last_day = core::Date(2022, 4, 29);

  const std::vector<confsim::CallRecord> calls =
      confsim::CallDatasetGenerator{cfg}.generate();
  service::CorrelationEngine engine;
  engine.ingest(calls);
  std::vector<confsim::ParticipantRecord> sessions;
  for (const auto& call : calls) {
    for (const auto& p : call.participants) sessions.push_back(p);
  }
  std::printf("  %zu sessions (weekday business hours, 3+ participants)\n\n",
              engine.session_count());

  // Engagement sensitivity per metric: drop between the clean bin and the
  // degraded tail of the *population* distribution.
  struct Probe {
    netsim::Metric metric;
    double lo, hi;
    const char* label;
  };
  const Probe probes[] = {
      {netsim::Metric::kLatency, 0.0, 300.0, "latency 0-300 ms"},
      {netsim::Metric::kLoss, 0.0, 3.0, "loss 0-3 %"},
      {netsim::Metric::kJitter, 0.0, 12.0, "jitter 0-12 ms"},
  };
  std::printf("engagement drop across the population range (best bin -> "
              "worst bin, %%):\n");
  std::printf("%20s | %9s %9s %9s\n", "metric", "Presence", "CamOn", "MicOn");
  for (const auto& probe : probes) {
    service::SweepSpec spec;
    spec.metric = probe.metric;
    spec.lo = probe.lo;
    spec.hi = probe.hi;
    spec.bins = 6;
    spec.control_others = false;  // full population view
    std::printf("%20s |", probe.label);
    for (const auto em :
         {service::EngagementMetric::kPresence,
          service::EngagementMetric::kCamOn,
          service::EngagementMetric::kMicOn}) {
      const auto curve = engine.engagement_curve(spec, em);
      std::printf(" %8.1f%%", curve.relative_drop_percent());
    }
    std::printf("\n");
  }

  // Engagement vs MOS on the sampled subset.
  std::printf("\nengagement vs sampled MOS (spearman):\n");
  for (const auto em :
       {service::EngagementMetric::kPresence,
        service::EngagementMetric::kCamOn,
        service::EngagementMetric::kMicOn}) {
    if (const auto corr = engine.mos_correlation(em)) {
      std::printf("  %-9s %.3f  (over %zu rated sessions)\n", to_string(em),
                  corr->spearman, corr->rated_sessions);
    }
  }

  // MOS backfill.
  service::MosPredictor predictor;
  predictor.train(sessions);
  std::size_t rated = 0;
  double predicted_sum = 0.0;
  for (const auto& s : sessions) {
    rated += s.mos ? 1 : 0;
    predicted_sum += predictor.predict(s);
  }
  std::printf("\nMOS coverage: %zu of %zu sessions rated (%.2f%%); the "
              "predictor estimates the rest (corpus mean prediction "
              "%.2f)\n",
              rated, sessions.size(),
              100.0 * static_cast<double>(rated) / sessions.size(),
              predicted_sum / static_cast<double>(sessions.size()));
  return 0;
}
