// User Signals as-a-Service (§5, Fig 8): the query façade.
//
// Plays the paper's own example: "If SpaceX Starlink wants to understand
// how users on their network are perceiving the MS Teams experience,
// USaaS could filter online user actions and MOS on MS Teams ... and the
// offline feedback on the same on social media."
//
// Build & run:   ./build/examples/usaas_service
#include <cstdio>

#include "confsim/dataset.h"
#include "social/subreddit.h"
#include "usaas/query_service.h"

int main() {
  using namespace usaas;

  // Production shape: per-month x per-platform shards, a small worker
  // pool for ingest partitioning and query fan-out. Results match a plain
  // loop over the raw corpus at any thread count (see
  // tests/test_usaas_sharding.cpp).
  service::QueryService svc{service::QueryServiceConfig{.threads = 4}};

  // Ingest the implicit side: conferencing telemetry + engagement.
  std::printf("ingesting conferencing signals...\n");
  confsim::DatasetConfig cfg;
  cfg.seed = 7;
  cfg.num_calls = 10000;
  cfg.first_day = core::Date(2022, 1, 3);
  cfg.last_day = core::Date(2022, 6, 30);
  const auto calls = confsim::CallDatasetGenerator{cfg}.generate();
  svc.ingest_calls(calls);

  // Ingest the explicit side: social posts about the ISP.
  std::printf("ingesting social signals...\n");
  social::SubredditConfig scfg;
  scfg.first_day = core::Date(2022, 1, 1);
  scfg.last_day = core::Date(2022, 6, 30);
  leo::LaunchSchedule schedule;
  social::RedditSim sim{
      scfg,
      leo::SpeedModel{leo::ConstellationModel{schedule},
                      leo::SubscriberModel{}},
      leo::OutageModel{scfg.first_day, scfg.last_day, 42},
      leo::EventTimeline{schedule}};
  svc.ingest_posts(sim.simulate());
  if (!svc.train_predictor()) {
    std::printf("  (not enough rated sessions to train the MOS predictor)\n");
  }
  std::printf("  %zu sessions in %zu shards, %zu posts in %zu shards\n\n",
              svc.ingested_sessions(), svc.session_shards(),
              svc.ingested_posts(), svc.post_shards());

  // The operator query: "how does latency shape the Teams experience for
  // users in H1 2022, and what is the community saying?"
  service::Query query;
  query.first = core::Date(2022, 1, 1);
  query.last = core::Date(2022, 6, 30);
  query.metric = netsim::Metric::kLatency;
  query.metric_lo = 0.0;
  query.metric_hi = 300.0;
  query.bins = 6;

  const auto insight = svc.run(query);

  std::printf("== USaaS insight ==\n");
  std::printf("sessions analyzed: %zu (rated by users: %zu)\n",
              insight.sessions, insight.rated_sessions);
  if (insight.observed_mean_mos) {
    std::printf("observed MOS (sampled): %.2f | predicted MOS (all "
                "sessions): %.2f\n",
                *insight.observed_mean_mos,
                insight.predicted_mean_mos.value_or(0.0));
  }
  for (const auto& curve : insight.engagement) {
    std::printf("\n%s vs latency:\n", to_string(curve.engagement_metric));
    for (const auto& p : curve.points) {
      std::printf("  %5.0f ms -> %5.1f %%\n", p.metric_value, p.engagement);
    }
  }
  std::printf("\nsocial side: %zu posts, strong-positive share %.2f\n",
              insight.posts, insight.strong_positive_share);
  std::printf("days with outage chatter: %zu; alert days:",
              insight.outage_mention_days);
  for (const auto& d : insight.outage_alert_days) {
    std::printf(" %s", d.to_string().c_str());
  }
  std::printf("\n\n(every answer is an aggregate — USaaS never exposes an "
              "individual session or post)\n");

  // The same query, narrowed to one platform (Fig 3's breakdown).
  query.platform = confsim::Platform::kAndroid;
  const auto android = svc.run(query);
  std::printf("\nnarrowed to Android clients: %zu sessions; Presence at the "
              "worst latency bin %.1f%% (vs %.1f%% population)\n",
              android.sessions,
              android.engagement[0].points.back().engagement,
              insight.engagement[0].points.back().engagement);
  return 0;
}
