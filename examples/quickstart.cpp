// Quickstart: the two signal families of the paper in ~60 lines.
//
// 1. Implicit signals — simulate a small conferencing corpus and read the
//    latency -> engagement curve off it.
// 2. Explicit signals — score a social post's sentiment and check it for
//    outage vocabulary.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "confsim/dataset.h"
#include "nlp/keywords.h"
#include "nlp/sentiment.h"
#include "usaas/correlation_engine.h"

int main() {
  using namespace usaas;

  // ---- Implicit signals: users react to network conditions ----
  confsim::DatasetConfig cfg;
  cfg.seed = 1;
  cfg.num_calls = 2000;
  cfg.sampling = confsim::ConditionSampling::kSweep;  // latency 0-300 ms
  cfg.sweep_metric = netsim::Metric::kLatency;
  cfg.sweep_lo = 0.0;
  cfg.sweep_hi = 300.0;

  service::CorrelationEngine engine;
  engine.ingest(confsim::CallDatasetGenerator{cfg}.generate());
  std::printf("simulated %zu participant sessions\n", engine.session_count());

  service::SweepSpec spec;
  spec.metric = netsim::Metric::kLatency;
  spec.lo = 0.0;
  spec.hi = 300.0;
  spec.bins = 6;
  const auto mic = engine.engagement_curve(
      spec, service::EngagementMetric::kMicOn);
  std::printf("\nMic On vs mean session latency (users mute as latency "
              "breaks turn-taking):\n");
  for (const auto& point : mic.points) {
    std::printf("  %5.0f ms -> %5.1f %% mic on  (n=%zu)\n",
                point.metric_value, point.engagement, point.sessions);
  }

  // ---- Explicit signals: what users say out loud ----
  const nlp::SentimentAnalyzer analyzer;
  const auto& outage_dict = nlp::KeywordDictionary::outage_dictionary();
  const char* post =
      "Starlink has been DOWN for two hours, total outage here. "
      "Absolutely terrible timing, no internet during a work call!";
  const auto scores = analyzer.score(post);
  std::printf("\npost: \"%s\"\n", post);
  std::printf("sentiment: positive %.2f / negative %.2f / neutral %.2f%s\n",
              scores.positive, scores.negative, scores.neutral,
              scores.strong_negative() ? "  [STRONG NEGATIVE]" : "");
  std::printf("outage keywords found: %zu\n",
              outage_dict.count_occurrences(post));
  return 0;
}
