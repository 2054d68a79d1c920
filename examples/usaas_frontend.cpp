// The USaaS front end, end to end: the admission scheduler behind a real
// HTTP listener on a loopback socket.
//
// Builds the same small deployment (conferencing telemetry + social
// posts), puts a usaas::service::QueryScheduler in front of it, and — by
// default — binds a usaas::service::HttpListener to 127.0.0.1:0 and
// drives it with a plain in-process TCP client, exactly the bytes a curl
// would send:
//
//   curl 'http://127.0.0.1:PORT/query?tenant=analyst&first=2022-01-15&
//         last=2022-03-20&metric=latency&lo=0&hi=300&bins=10&budget_ms=250'
//
// Three tenants with very different manners share the corpus:
//
//   * "ops-dashboard"  — generous QoS, re-runs the same two whole-month
//     queries (cheap: insight-cache hits and summary merges);
//   * "analyst"        — modest QoS, ad-hoc boundary-cut windows (each
//     one rescans shards, so the cost estimator prices it high);
//   * "crawler"        — starvation QoS, hammers expensive queries and
//     mostly gets 429 Retry-After instead of dragging everyone down.
//
// After the traffic the harness prints the scheduler's four-way ledger
// (admitted + degraded + shed + expired == submitted), the listener's
// own connection ledger, and the /metrics scrape fetched over the same
// wire — the service stays measurable through the boundary it serves on.
//
// Modes:
//   ./build/examples/usaas_frontend                 real listener (above)
//   ./build/examples/usaas_frontend --in-process    the PR 7 deterministic
//       demo: no sockets, a VirtualClock drives admission so the run is
//       bit-identical every time.
//
// The socket fault storm (slow-loris, truncation, early disconnects,
// injected accept failures) runs as the tier-1 test
// HttpListenerChaos.FaultStormReconcilesExactlyAndShutsDownCleanly.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "confsim/dataset.h"
#include "core/scheduler_clock.h"
#include "social/subreddit.h"
#include "usaas/http_listener.h"
#include "usaas/query_scheduler.h"
#include "usaas/query_service.h"

namespace {

using namespace usaas;

// ---- Shared deployment ---------------------------------------------------

confsim::DatasetConfig base_calls_config() {
  confsim::DatasetConfig cfg;
  cfg.seed = 7;
  cfg.num_calls = 4000;
  cfg.first_day = core::Date(2022, 1, 3);
  cfg.last_day = core::Date(2022, 3, 31);
  return cfg;
}

void ingest_corpus(service::QueryService& svc) {
  std::printf("ingesting conferencing + social signals...\n");
  svc.ingest_calls(
      confsim::CallDatasetGenerator{base_calls_config()}.generate());

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
}

service::Query month_query(int first_month, int last_month) {
  service::Query q;
  q.first = core::Date(2022, first_month, 1);
  q.last = core::Date(2022, last_month,
                      core::Date::days_in_month(2022, last_month));
  q.metric = netsim::Metric::kLatency;
  q.metric_lo = 0.0;
  q.metric_hi = 300.0;
  q.bins = 10;
  return q;
}

service::Query cut_query(int day_first, int day_last) {
  service::Query q = month_query(1, 3);
  q.first = core::Date(2022, 1, day_first);
  q.last = core::Date(2022, 3, day_last);
  return q;
}

// ---- A tiny blocking HTTP client (the demo's stand-in for curl) ----------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_best_effort(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  send_best_effort(fd, request);
  const std::string response = read_to_eof(fd);
  ::close(fd);
  return response;
}

std::string get_request(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

std::string post_request(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int status_of(const std::string& response) {
  int status = 0;
  std::sscanf(response.c_str(), "HTTP/1.1 %d", &status);
  return status;
}

/// Pulls a JSON string field ("key":"value") out of a flat response body
/// for the demo printout; empty when absent.
std::string field_of(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = response.find('"', start);
  if (end == std::string::npos) return {};
  return response.substr(start, end - start);
}

// ---- Mode 1 (default): the real listener over loopback -------------------

int run_wire_demo() {
  service::QueryService svc{service::QueryServiceConfig{.threads = 4}};
  ingest_corpus(svc);

  service::SchedulerConfig sched_cfg;
  sched_cfg.max_wait_seconds = 0.05;
  sched_cfg.max_versions_behind = 2;
  sched_cfg.tenant_qos["ops-dashboard"] = {100.0, 50.0};
  sched_cfg.tenant_qos["analyst"] = {20.0, 25.0};
  sched_cfg.tenant_qos["crawler"] = {1.0, 3.0};
  service::QueryScheduler front{svc, sched_cfg};

  service::HttpListenerConfig lcfg;
  lcfg.worker_threads = 2;
  lcfg.default_budget_seconds = 0.5;
  service::HttpListener listener{front, svc, lcfg};
  if (!listener.start()) {
    std::fprintf(stderr, "FATAL: listener failed to bind loopback\n");
    return 1;
  }
  const std::uint16_t port = listener.port();
  std::printf("\nlistener up on http://127.0.0.1:%u  "
              "(2 workers, ephemeral port)\n",
              static_cast<unsigned>(port));

  const auto show = [&](const char* label, const std::string& response) {
    const std::string outcome = field_of(response, "outcome");
    const std::string served_by = field_of(response, "served_by");
    const std::string error = field_of(response, "error");
    std::printf("%-34s  HTTP %d", label, status_of(response));
    if (!outcome.empty()) std::printf("  %-8s", outcome.c_str());
    if (!served_by.empty()) std::printf("  served-by %s", served_by.c_str());
    if (!error.empty()) std::printf("  (%s)", error.c_str());
    std::printf("\n");
  };

  const std::string months =
      "/query?tenant=%s&first=2022-01-01&last=2022-03-31&metric=latency"
      "&lo=0&hi=300&bins=10";
  const auto month_target = [&](const char* tenant) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), months.c_str(), tenant);
    return std::string{buf};
  };

  std::printf("\n== traffic (real HTTP round trips) ==\n");
  // Dashboards warm the cache over the query-string spelling, then the
  // JSON spelling lands on the cached insight.
  show("GET  ops-dashboard Q1-Q3",
       http_exchange(port, get_request(month_target("ops-dashboard"))));
  show("POST ops-dashboard Q1-Q3 (json)",
       http_exchange(
           port,
           post_request("/query",
                        "{\"tenant\":\"ops-dashboard\","
                        "\"first\":\"2022-01-01\",\"last\":\"2022-03-31\","
                        "\"metric\":\"latency\",\"lo\":0,\"hi\":300,"
                        "\"bins\":10}")));
  // Analysts pay scan prices for cut windows, with an explicit budget.
  show("GET  analyst cut window",
       http_exchange(
           port,
           get_request("/query?tenant=analyst&first=2022-01-15"
                       "&last=2022-03-20&metric=latency&lo=0&hi=300"
                       "&bins=10&budget_ms=250")));
  // The crawler burns its burst on cheap repeats; once drained, its
  // favourite query is served from cache as a degraded answer, and a
  // window nobody ever cached gets an honest 429 with Retry-After.
  for (int i = 0; i < 4; ++i) {
    const std::string label = "GET  crawler Q1-Q3 (#" +
                              std::to_string(i + 1) + ")";
    show(label.c_str(),
         http_exchange(port, get_request(month_target("crawler"))));
  }
  show("GET  crawler uncached window",
       http_exchange(
           port,
           get_request("/query?tenant=crawler&first=2022-01-05"
                       "&last=2022-03-27&metric=latency&lo=0&hi=300"
                       "&bins=10&budget_ms=20")));
  // A zero-budget request expires instead of waiting: 504.
  show("GET  analyst budget_ms=0.0001",
       http_exchange(
           port,
           get_request("/query?tenant=analyst&first=2022-01-15"
                       "&last=2022-03-20&metric=latency&lo=0&hi=300"
                       "&bins=10&budget_ms=0.0001")));
  // And a malformed one is a 400 with a reason, not a dropped socket.
  show("GET  bad metric",
       http_exchange(
           port,
           get_request("/query?tenant=analyst&first=2022-01-01"
                       "&last=2022-03-31&metric=vibes&lo=0&hi=300&bins=10")));

  const std::string scrape =
      http_exchange(port, get_request("/metrics"));
  const std::string traces_scrape =
      http_exchange(port, get_request("/debug/traces"));
  const std::string events_scrape =
      http_exchange(port, get_request("/debug/events"));
  const bool clean = listener.stop();

  const service::SchedulerStats stats = front.stats();
  std::printf("\n== admission ledger ==\n");
  std::printf(
      "submitted %llu = admitted %llu + degraded %llu + shed %llu + "
      "expired %llu  (reconciles: %s; shed-with-degradable tripwire: "
      "%llu)\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.expired),
      stats.reconciles() ? "yes" : "NO",
      static_cast<unsigned long long>(stats.shed_with_degradable));
  for (const auto& [tenant, snap] : stats.tenants) {
    std::printf("  %-13s  tokens left %6.2f  queue depth %zu\n",
                tenant.c_str(), snap.tokens, snap.queue_depth);
  }

  const service::HttpListenerStats ls = listener.stats();
  std::printf("\n== listener ledger ==\n");
  std::printf(
      "accepted %llu = accept-failures %llu + saturated %llu + drained "
      "%llu + handled %llu; handled = read-failures %llu + responses "
      "%llu + write-failures %llu  (reconciles: %s; clean shutdown: %s)\n",
      static_cast<unsigned long long>(ls.accepted),
      static_cast<unsigned long long>(ls.accept_failures),
      static_cast<unsigned long long>(ls.saturated),
      static_cast<unsigned long long>(ls.drained),
      static_cast<unsigned long long>(ls.handled),
      static_cast<unsigned long long>(ls.read_failures),
      static_cast<unsigned long long>(ls.responses_sent),
      static_cast<unsigned long long>(ls.write_failures),
      ls.reconciles() ? "yes" : "NO", clean ? "yes" : "NO");

  const std::size_t body_at = scrape.find("\r\n\r\n");
  std::printf("\n== GET /metrics (scraped over the same wire) ==\n%s\n",
              body_at == std::string::npos
                  ? scrape.c_str()
                  : scrape.c_str() + body_at + 4);

  // The per-request layer under those aggregates: every shed / degraded /
  // expired request above has a TraceRecord here, and the breaker / bias
  // moves it caused are in the journal — both scraped over the same wire.
  const auto body_of = [](const std::string& response) {
    const std::size_t at = response.find("\r\n\r\n");
    return at == std::string::npos ? response : response.substr(at + 4);
  };
  const std::string traces_body = body_of(traces_scrape);
  std::printf("== GET /debug/traces (first lines) ==\n%.*s...\n",
              static_cast<int>(std::min<std::size_t>(traces_body.size(),
                                                     600)),
              traces_body.c_str());
  std::printf("\n== GET /debug/events ==\n%s\n",
              body_of(events_scrape).c_str());
  return (stats.reconciles() && ls.reconciles() && clean) ? 0 : 1;
}

// ---- Mode 2 (--in-process): the deterministic VirtualClock demo ----------

int run_in_process_demo() {
  service::QueryService svc{service::QueryServiceConfig{.threads = 4}};
  ingest_corpus(svc);

  core::VirtualClock clock;
  service::SchedulerConfig sched_cfg;
  sched_cfg.clock = &clock;
  sched_cfg.max_wait_seconds = 0.5;
  sched_cfg.max_versions_behind = 2;
  sched_cfg.tenant_qos["ops-dashboard"] = {100.0, 50.0};
  sched_cfg.tenant_qos["analyst"] = {20.0, 25.0};
  sched_cfg.tenant_qos["crawler"] = {1.0, 3.0};
  service::QueryScheduler front{svc, sched_cfg};

  std::printf("\n== traffic (in-process, VirtualClock) ==\n");
  const auto show = [&](const char* tenant,
                        const service::ScheduledResult& r) {
    if (r.outcome == service::AdmissionOutcome::kShed ||
        r.outcome == service::AdmissionOutcome::kExpired) {
      std::printf("%-13s  %-8s  cost %6.2f  wait %.3fs\n", tenant,
                  to_string(r.outcome), r.cost_tokens, r.wait_seconds);
      return;
    }
    std::printf(
        "%-13s  %-8s  cost %6.2f  wait %.3fs  served-by %-13s  "
        "staleness %llu\n",
        tenant, to_string(r.outcome), r.cost_tokens, r.wait_seconds,
        to_string(r.insight.execution.served_by),
        static_cast<unsigned long long>(r.insight.staleness));
  };

  // Dashboards warm the cache, then keep hitting it for the token floor.
  for (int round = 0; round < 3; ++round) {
    show("ops-dashboard", front.submit("ops-dashboard", month_query(1, 3)));
    show("ops-dashboard", front.submit("ops-dashboard", month_query(2, 3)));
  }
  // Analysts pay scan prices for cut windows; the second one cannot
  // afford its cost up front and waits for the bucket to refill.
  show("analyst", front.submit("analyst", cut_query(15, 20)));
  show("analyst", front.submit("analyst", cut_query(10, 25)));
  // A zero-budget submission expires at the door: no wait, no tokens.
  show("analyst", front.submit("analyst", cut_query(12, 22), 0.0));
  // The crawler burns its whole burst on cheap repeats...
  for (int i = 0; i < 3; ++i) {
    show("crawler", front.submit("crawler", month_query(1, 3)));
  }
  // ...the corpus moves on (cached answers are now one version behind)...
  svc.ingest_calls(confsim::CallDatasetGenerator{[&] {
                     confsim::DatasetConfig fresh = base_calls_config();
                     fresh.seed = 8;
                     fresh.num_calls = 200;
                     return fresh;
                   }()}
                       .generate());
  // ...and the saturated crawler hits the degrade path: its favourite
  // query is served from the one-version-old cache entry, stamped
  // staleness 1, while a window nobody ever cached is shed outright.
  show("crawler", front.submit("crawler", month_query(1, 3)));
  show("crawler", front.submit("crawler", cut_query(5, 27)));

  const service::SchedulerStats stats = front.stats();
  std::printf("\n== admission ledger ==\n");
  std::printf(
      "submitted %llu = admitted %llu + degraded %llu + shed %llu + "
      "expired %llu  (reconciles: %s; shed-with-degradable tripwire: "
      "%llu)\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.expired),
      stats.reconciles() ? "yes" : "NO",
      static_cast<unsigned long long>(stats.shed_with_degradable));
  for (const auto& [tenant, snap] : stats.tenants) {
    std::printf("  %-13s  tokens left %6.2f  queue depth %zu\n",
                tenant.c_str(), snap.tokens, snap.queue_depth);
  }
  if (!stats.reconciles()) return 1;

  std::printf("\n== GET /metrics (Prometheus text) ==\n%s\n",
              svc.metrics_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool in_process =
      argc > 1 && std::strcmp(argv[1], "--in-process") == 0;
  if (in_process) return run_in_process_demo();
  return run_wire_demo();
}
