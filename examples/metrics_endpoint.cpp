// The operator exposition endpoint: what a /metrics scrape returns.
//
// Builds a small USaaS deployment (conferencing telemetry + social posts),
// runs a few operator queries — a cold summary-merge, a cache hit, a
// boundary window that mixes summary merges with scans — and then prints
// exactly what the two exposition surfaces serve:
//
//   * QueryService::metrics_text()  — Prometheus text format, ready to be
//     returned from a /metrics HTTP handler;
//   * QueryService::metrics_json()  — the same snapshot as JSON, plus the
//     slow-query log, for dashboards that want structure.
//
// Both are rendered from one stats() snapshot, so the numbers printed here
// match stats() exactly. Run with USAAS_TELEMETRY=off to see the kill
// switch: histograms and the slow-query log vanish, while the
// stats-derived counters (maintained unconditionally) remain.
//
// Build & run:   ./build/examples/metrics_endpoint
#include <cstdio>

#include "confsim/dataset.h"
#include "social/subreddit.h"
#include "usaas/query_service.h"

int main() {
  using namespace usaas;

  service::QueryService svc{service::QueryServiceConfig{.threads = 4}};

  std::printf("ingesting conferencing + social signals...\n");
  confsim::DatasetConfig cfg;
  cfg.seed = 7;
  cfg.num_calls = 4000;
  cfg.first_day = core::Date(2022, 1, 3);
  cfg.last_day = core::Date(2022, 3, 31);
  svc.ingest_calls(confsim::CallDatasetGenerator{cfg}.generate());

  social::SubredditConfig scfg;
  scfg.first_day = core::Date(2022, 1, 1);
  scfg.last_day = core::Date(2022, 3, 31);
  leo::LaunchSchedule schedule;
  social::RedditSim sim{
      scfg,
      leo::SpeedModel{leo::ConstellationModel{schedule},
                      leo::SubscriberModel{}},
      leo::OutageModel{scfg.first_day, scfg.last_day, 42},
      leo::EventTimeline{schedule}};
  svc.ingest_posts(sim.simulate());

  // Exercise each query path so the exposition has something to show.
  service::Query query;
  query.first = core::Date(2022, 1, 1);
  query.last = core::Date(2022, 3, 31);
  query.metric = netsim::Metric::kLatency;
  query.metric_lo = 0.0;
  query.metric_hi = 300.0;
  query.bins = 10;

  const auto cold = svc.run(query);    // summary merge across whole months
  const auto warm = svc.run(query);    // insight-cache hit
  service::Query cut = query;
  cut.first = core::Date(2022, 1, 15);  // cuts January: mixed merge + scan
  const auto mixed = svc.run(cut);

  std::printf("query paths exercised: %s, %s, %s\n\n",
              to_string(cold.execution.served_by),
              to_string(warm.execution.served_by),
              to_string(mixed.execution.served_by));

  std::printf("== GET /metrics (Prometheus text) ==\n%s\n",
              svc.metrics_text().c_str());
  std::printf("== GET /metrics.json ==\n%s\n", svc.metrics_json().c_str());
  return 0;
}
