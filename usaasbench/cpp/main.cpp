// The usaas wire benchmark: a real QueryService + QueryScheduler +
// HttpListener stack over loopback, driven by seeded workloads.
//
//   usaas_wire_bench --workload <dashboard_wire|analyst_scan|live_ingest>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the same workload with spans around its own calls into each layer
// and prints the per-layer metrics instead. Either way the last stdout
// line is one JSON object; the exit code is nonzero on any wrong answer,
// unreconciled ledger or quarantine mismatch. See METHOD.md.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "corpus.h"
#include "usaas/correlation_engine.h"
#include "usaas/http_listener.h"
#include "usaas/mos_predictor.h"
#include "usaas/query_scheduler.h"
#include "usaas/query_service.h"
#include "loadgen.h"
#include "usaas/stream_ingestor.h"
#include "wire_client.h"

namespace usaasbench {
namespace {

using usaas::confsim::CallRecord;
using usaas::service::AdmissionOutcome;
using usaas::service::CorrelationEngine;
using usaas::service::HttpListener;
using usaas::service::HttpListenerConfig;
using usaas::service::HttpListenerStats;
using usaas::service::IngestStats;
using usaas::service::QueryScheduler;
using usaas::service::QueryService;
using usaas::service::QueryServiceConfig;
using usaas::service::SchedulerConfig;
using usaas::service::SchedulerStats;
using usaas::service::ServedBy;
using usaas::social::Post;

// ---- Fixed configuration (recorded in every run's header line) ---------

constexpr std::size_t kSessions = 1'000'000;
constexpr std::size_t kPosts = 120'000;
constexpr std::size_t kServiceThreads = 2;
constexpr std::size_t kListenerWorkers = 2;
constexpr std::size_t kSetups = 9;
constexpr std::uint64_t kVersionAfterSetup = 3;  // calls, posts, train
constexpr std::size_t kDashboardKeys = 512;
constexpr std::size_t kDashboardTenants = 8;
constexpr std::size_t kLoadThreads = 4;
constexpr double kWarmupSeconds = 1.0;
/// dashboard_wire's offered rate, well below the stack's capacity, so the
/// tail measures the summary-merge path rather than queueing.
constexpr double kDashboardRate = 200.0;
constexpr std::size_t kAnalystClients = 2;
constexpr double kLiveReaderRate = 40.0;
constexpr std::size_t kCallChunk = 64;
constexpr std::size_t kPoisonEvery = 997;
/// Traced runs replay at most this much of the wire pass one layer down.
constexpr double kReplaySeconds = 4.0;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr,
               "usaas_wire_bench: %s\nusage: usaas_wire_bench --workload "
               "<dashboard_wire|analyst_scan|live_ingest> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               what);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") o.workload = v;
    else if (key == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else usage_error(("unknown option " + key).c_str());
  }
  if (argc % 2 == 0) usage_error("options come in pairs");
  if (o.workload != "dashboard_wire" && o.workload != "analyst_scan" &&
      o.workload != "live_ingest") {
    usage_error("unknown workload");
  }
  if (!(o.seconds > 0.0)) usage_error("--seconds must be positive");
  return o;
}

// ---- The service stack ---------------------------------------------------

/// One QueryService + QueryScheduler + HttpListener over loopback. Members
/// are declared in dependency order so they are torn down listener first.
struct Stack {
  std::unique_ptr<usaas::core::telemetry::Registry> registry;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<QueryScheduler> scheduler;
  std::unique_ptr<HttpListener> listener;
  double setup_seconds{0.0};
  double calls_seconds{0.0};
  double posts_seconds{0.0};
  long calls_minor_faults{0};

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (listener) listener->stop();
  }
};

/// `telemetry` false builds the stack with the kill switch thrown
/// (Registry{false}): no metrics, no trace IDs, no trace rings.
std::unique_ptr<Stack> build_stack(const std::vector<CallRecord>& calls,
                                   const std::vector<Post>& posts,
                                   bool telemetry = true) {
  // Hand the previous stack's heap back to the kernel first, so every
  // set-up starts cold, like a service process does. Without this the
  // set-ups of one run alternate between fresh and recycled pages.
  malloc_trim(0);
  auto stack = std::make_unique<Stack>();
  stack->registry = std::make_unique<usaas::core::telemetry::Registry>(telemetry);
  const auto t0 = Clock::now();
  QueryServiceConfig cfg;
  cfg.threads = kServiceThreads;
  cfg.telemetry = stack->registry.get();
  stack->service = std::make_unique<QueryService>(cfg);
  const long faults0 = minor_faults();
  const auto tc = Clock::now();
  stack->service->ingest_calls(calls);
  const auto tp = Clock::now();
  stack->calls_minor_faults = minor_faults() - faults0;
  stack->service->ingest_posts(posts);
  const auto tt = Clock::now();
  if (!stack->service->train_predictor()) {
    std::fprintf(stderr, "predictor training failed\n");
    std::exit(1);
  }
  SchedulerConfig sched;
  // Generous quotas: the workloads measure serving, not quota policy, so
  // no tenant is ever throttled into a shed.
  sched.default_qos = {1e6, 1e6};
  stack->scheduler = std::make_unique<QueryScheduler>(*stack->service, sched);
  HttpListenerConfig lc;
  lc.worker_threads = kListenerWorkers;
  stack->listener =
      std::make_unique<HttpListener>(*stack->scheduler, *stack->service, lc);
  if (!stack->listener->start()) {
    std::fprintf(stderr, "listener failed to start\n");
    std::exit(1);
  }
  const auto t1 = Clock::now();
  stack->setup_seconds = seconds_between(t0, t1);
  stack->calls_seconds = seconds_between(tc, tp);
  stack->posts_seconds = seconds_between(tp, tt);
  return stack;
}

// ---- Load generation -----------------------------------------------------

/// The request table of a run: requests plus their pre-rendered bytes.
struct Requests {
  std::vector<Request> list;
  std::vector<std::string> wire;
};

Requests render_all(std::vector<Request> list) {
  Requests r;
  r.wire.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    r.wire.push_back(render_http(list[i], i + 1));
  }
  r.list = std::move(list);
  return r;
}

Executor wire_executor(std::uint16_t port, const Requests& reqs) {
  return [port, &reqs](std::size_t i, Sample& s) {
    const WireResponse resp = http_exchange(port, reqs.wire[i]);
    s.status = resp.status;
    if (resp.status != 0) {
      s.connect_s = seconds_between(resp.timing.start, resp.timing.connected);
      s.ttfb_s = seconds_between(resp.timing.sent, resp.timing.first_byte);
    }
    if (resp.status != 200) return;
    s.sessions = static_cast<std::uint64_t>(json_number(resp.body, "sessions").value_or(-1));
    s.rated = static_cast<std::uint64_t>(json_number(resp.body, "rated_sessions").value_or(-1));
    s.posts = static_cast<std::uint64_t>(json_number(resp.body, "posts").value_or(-1));
    s.version = static_cast<std::uint64_t>(json_number(resp.body, "corpus_version").value_or(0));
    s.staleness = static_cast<std::uint64_t>(json_number(resp.body, "staleness").value_or(0));
    s.wait_s = json_number(resp.body, "wait_ms").value_or(0.0) / 1e3;
  };
}

// ---- Answer checking -----------------------------------------------------

struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t wrong{0};
  std::uint64_t answers{0};
  std::uint64_t stale{0};
};

/// Checks every wire answer of a pass against the reference counts for
/// the corpus version it reports. `reference(request, version)` returns
/// nullopt for a version the run never produced (itself a wrong answer).
void check_answers(
    const std::vector<Sample>& samples, const Requests& reqs,
    const std::function<std::optional<CountCube::Counts>(const Request&,
                                                          std::uint64_t)>&
        reference,
    Tally& tally) {
  for (const Sample& s : samples) {
    ++tally.attempted;
    if (s.status != 200) {
      ++tally.failed;
      continue;
    }
    ++tally.answers;
    if (s.staleness > 0) ++tally.stale;
    const auto want = reference(reqs.list[s.index], s.version);
    const CountCube::Counts got{s.sessions, s.rated, s.posts};
    if (!want || !(*want == got)) {
      ++tally.failed;
      if (tally.wrong++ < 5) {
        std::fprintf(stderr,
                     "wrong answer: request %zu version %llu got "
                     "%llu/%llu/%llu\n",
                     s.index, static_cast<unsigned long long>(s.version),
                     static_cast<unsigned long long>(got.sessions),
                     static_cast<unsigned long long>(got.rated),
                     static_cast<unsigned long long>(got.posts));
      }
    }
  }
}

/// Reference lookup for a corpus that never changes after set-up.
auto static_reference(const CountCube& cube) {
  auto memo = std::make_shared<std::map<std::size_t, CountCube::Counts>>();
  return [&cube, memo](const Request& r, std::uint64_t version)
             -> std::optional<CountCube::Counts> {
    if (version != kVersionAfterSetup) return std::nullopt;
    auto it = memo->find(r.query_id);
    if (it == memo->end()) {
      it = memo->emplace(r.query_id, cube.count(r.query)).first;
    }
    return it->second;
  };
}

// ---- Results -----------------------------------------------------------

struct RunReport {
  ResultLine line;
  Tally tally;                ///< Every wire request the run sent.
  std::uint64_t pushes{0};    ///< Records streamed (live_ingest).
  std::uint64_t rejected{0};  ///< Of those, refused by the ingestor.
  bool ledgers_ok{true};
};

/// Hands freed heap back to the kernel and lowers the peak resident set to
/// what is resident now. Called once the inputs exist and before the first
/// set-up; returns the resident set (MiB) that the inputs account for.
double settle_memory() {
  malloc_trim(0);
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "cannot reset the peak resident set; peak_rss_mb "
                         "includes input generation\n");
  }
  return rss_mb();
}

/// Stops the listener and checks both ledgers; prints them when `verbose`.
void check_ledgers(Stack& stack, RunReport& rep, bool verbose = true) {
  stack.listener->stop();
  const HttpListenerStats ls = stack.listener->stats();
  const SchedulerStats ss = stack.scheduler->stats();
  if (!ls.reconciles()) {
    std::fprintf(stderr, "listener ledger does not reconcile\n");
    rep.ledgers_ok = false;
  }
  if (!ss.reconciles()) {
    std::fprintf(stderr, "scheduler ledger does not reconcile\n");
    rep.ledgers_ok = false;
  }
  if (!verbose) return;
  std::printf("ledgers: listener accepted=%llu handled=%llu 200=%llu "
              "429=%llu 504=%llu saturated=%llu | scheduler submitted=%llu "
              "admitted=%llu degraded=%llu shed=%llu expired=%llu\n",
              static_cast<unsigned long long>(ls.accepted),
              static_cast<unsigned long long>(ls.handled),
              static_cast<unsigned long long>(ls.status_200),
              static_cast<unsigned long long>(ls.status_429),
              static_cast<unsigned long long>(ls.status_504),
              static_cast<unsigned long long>(ls.saturated),
              static_cast<unsigned long long>(ss.submitted),
              static_cast<unsigned long long>(ss.admitted),
              static_cast<unsigned long long>(ss.degraded),
              static_cast<unsigned long long>(ss.shed),
              static_cast<unsigned long long>(ss.expired));
}

/// `inputs_mb` is settle_memory()'s figure: peak_rss_mb is the service's
/// own peak, the resident set above what the generated inputs hold.
void add_common_e2e(ResultLine& line, const std::vector<double>& setups,
                    double inputs_mb, const LatencySummary& lat,
                    const Tally& tally) {
  line.add("setup_s", median(setups));
  line.add("peak_rss_mb", peak_rss_mb() - inputs_mb);
  line.add("query_p50_ms", lat.p50_ms);
  line.add("query_p99_ms", lat.p99_ms);
  line.add("query_goodput_qps", lat.goodput_qps);
  // Over reads alone. A rejected push fails live_ingest's flush-plan check
  // instead: pushes outnumber reads thousands to one and would hide
  // failing reads in a pooled ratio.
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
  const double answers = static_cast<double>(std::max<std::uint64_t>(1, tally.answers));
  line.add("answered_ratio",
           1.0 - static_cast<double>(tally.failed) / attempted);
  line.add("fresh_ratio", 1.0 - static_cast<double>(tally.stale) / answers);
}

// ---- Traced run: per-layer replays -----------------------------------------

/// The CorrelationEngine calls QueryService::run makes for one uncached
/// query, replayed on a private engine built from the same corpus.
class EngineReplay {
 public:
  EngineReplay(const std::vector<CallRecord>& calls, const CountCube& cube)
      : pool_{kServiceThreads}, cube_{cube} {
    engine_.set_thread_pool(&pool_);
    engine_.configure_summaries(usaas::service::SummaryConfig{});
    engine_.ingest(calls);
    predictor_.train(engine_.rated_sessions_canonical());
    engine_.refresh_predicted_tallies(
        [this](const usaas::confsim::ParticipantRecord& r) {
          return predictor_.predict(r);
        });
  }

  /// Runs the engine side of `q` with spans: three engagement sweeps each
  /// followed by a MOS correlation, then the tally.
  void run(const usaas::service::Query& q, Sample& s) {
    using usaas::service::EngagementMetric;
    const usaas::service::ShardSelector selector{q.first, q.last, q.platform,
                                                 q.access};
    usaas::service::SweepSpec spec;
    spec.metric = q.metric;
    spec.lo = q.metric_lo;
    spec.hi = q.metric_hi;
    spec.bins = q.bins;
    spec.control_others = false;
    const auto t0 = Clock::now();
    for (const EngagementMetric m :
         {EngagementMetric::kPresence, EngagementMetric::kCamOn,
          EngagementMetric::kMicOn}) {
      const auto c0 = Clock::now();
      const auto curve = engine_.engagement_curve(spec, m, nullptr, selector);
      s.curve_s += seconds_between(c0, Clock::now());
      (void)curve;
      const auto corr = engine_.mos_correlation(m, 50);
      (void)corr;
    }
    const auto tl = Clock::now();
    const auto tally = engine_.tally(
        nullptr, selector, [this](const usaas::confsim::ParticipantRecord& r) {
          return predictor_.predict(r);
        });
    (void)tally;
    const auto t1 = Clock::now();
    s.tally_s = seconds_between(tl, t1);
    s.engine_s = seconds_between(t0, t1);
    s.rows_scanned = rows_scanned(q);
  }

 private:
  /// Rows the scan kernels visit for `q`: every selected shard of a sweep
  /// whose axis no summary carries, plus the boundary-cut months of the
  /// summarized sweeps and of the tally.
  std::uint64_t rows_scanned(const usaas::service::Query& q) const {
    bool axis = false;
    for (const auto& a : usaas::service::default_summary_axes()) {
      axis = axis || (a.metric == q.metric && a.lo == q.metric_lo &&
                      a.hi == q.metric_hi && a.bins == q.bins);
    }
    std::uint64_t rows = 0;
    for (int month = q.first.month(); month <= q.last.month(); ++month) {
      const bool cut =
          (month == q.first.month() && q.first.day() > 1) ||
          (month == q.last.month() &&
           q.last.day() < usaas::core::Date::days_in_month(2022, month));
      const int passes = (axis ? (cut ? 3 : 0) : 3) + (cut ? 1 : 0);
      for (int p = 0; p < CountCube::kPlatforms; ++p) {
        if (q.platform && static_cast<int>(*q.platform) != p) continue;
        rows += static_cast<std::uint64_t>(passes) * cube_.shard_sessions(month, p);
      }
    }
    return rows;
  }

  usaas::core::ThreadPool pool_;
  CorrelationEngine engine_{usaas::service::ShardingPolicy::kMonthPlatform};
  usaas::service::MosPredictor predictor_;
  const CountCube& cube_;
};

struct Attribution {
  double client{0.0};
  double loadgen{0.0};
  double http{0.0};
  double scheduler{0.0};
  double service{0.0};
  double engine{0.0};
  double unattributed{0.0};
};

/// Self time of each layer on the blocking path, per request. The wire
/// pass, the scheduler replay and the engine replay each time request i;
/// their spans are nested right-aligned at the wire answer's arrival:
///
///   loadgen             [scheduled, answered]         (wire pass)
///   http_listener       [sent, answered]              (wire pass)
///   query_scheduler     QueryScheduler::submit        (scheduler replay)
///   query_service       the run() inside that submit  (scheduler replay)
///   correlation_engine  the engine calls              (engine replay)
///
/// self_times() gives each layer its span minus the part its child covers.
/// The parts then sum to the client latency, except where a replayed child
/// outlasts its parent (the replays drift): the overhang is counted in the
/// child and not subtracted from the parent, and `unattributed` (client
/// minus the parts) goes negative by that much. The figures are averaged
/// over the requests whose client latency lies between p45 and p55, so
/// they describe the client median.
Attribution attribute(const std::vector<Sample>& wire,
                      const std::vector<Sample>& sched,
                      const std::vector<Sample>& eng, bool open,
                      std::vector<double>& http_self,
                      std::vector<double>& sched_self) {
  std::map<std::size_t, const Sample*> by_sched, by_eng;
  for (const Sample& s : sched) by_sched[s.index] = &s;
  for (const Sample& s : eng) by_eng[s.index] = &s;
  std::vector<Attribution> rows;
  for (const Sample& w : wire) {
    const auto a = by_sched.find(w.index);
    const auto c = by_eng.find(w.index);
    if (a == by_sched.end() || c == by_eng.end()) continue;
    const double end = w.finished;
    const double submit = a->second->finished - a->second->started;
    const std::vector<Span> spans = {
        {"loadgen", w.index, -1, w.scheduled, end},
        {"http_listener", w.index, 0, w.started, end},
        {"query_scheduler", w.index, 1, end - submit, end},
        {"query_service", w.index, 2, end - a->second->inner_s, end},
        {"correlation_engine", w.index, 3, end - c->second->engine_s, end},
    };
    const std::vector<double> self = self_times(spans);
    Attribution r;
    r.client = w.latency_s(open);
    r.loadgen = self[0];
    r.http = self[1];
    r.scheduler = self[2];
    r.service = self[3];
    r.engine = self[4];
    r.unattributed =
        r.client - (r.loadgen + r.http + r.scheduler + r.service + r.engine);
    rows.push_back(r);
    http_self.push_back(ms(r.http));
    sched_self.push_back(ms(r.scheduler));
  }
  Attribution out;
  if (rows.empty()) return out;
  std::vector<double> client;
  for (const Attribution& r : rows) client.push_back(r.client);
  const double lo = tail_percentile(client, 0.45, 0);
  const double hi = tail_percentile(client, 0.55, 0);
  std::size_t n = 0;
  for (const Attribution& r : rows) {
    if (r.client < lo || r.client > hi) continue;
    ++n;
    out.client += r.client;
    out.loadgen += r.loadgen;
    out.http += r.http;
    out.scheduler += r.scheduler;
    out.service += r.service;
    out.engine += r.engine;
    out.unattributed += r.unattributed;
  }
  for (double* v : {&out.client, &out.loadgen, &out.http, &out.scheduler,
                    &out.service, &out.engine, &out.unattributed}) {
    *v = ms(*v / static_cast<double>(n));
  }
  return out;
}

/// Per-layer counters diffed across a pass.
struct LayerCounters {
  HttpListenerStats listener;
  SchedulerStats scheduler;
  QueryService::ServiceStats service;
};

LayerCounters snapshot(const Stack& s) {
  return {s.listener->stats(), s.scheduler->stats(), s.service->stats()};
}

double p50_ms_of(const std::vector<double>& seconds) {
  std::vector<double> v;
  for (const double x : seconds) v.push_back(ms(x));
  return percentile(v, 0.5, 0).value_or(0.0);
}

/// Counter deltas summed over one or more measured passes.
struct CounterDeltas {
  double accepted{0}, saturated{0}, read_failures{0};
  double admitted{0}, degraded{0}, shed{0}, expired{0};
  double hits{0}, misses{0}, evictions{0};
  double from_summary{0}, scanned{0};

  void add(const LayerCounters& a, const LayerCounters& b) {
    const auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    accepted += d(a.listener.accepted, b.listener.accepted);
    saturated += d(a.listener.saturated, b.listener.saturated);
    read_failures += d(a.listener.read_failures, b.listener.read_failures);
    admitted += d(a.scheduler.admitted, b.scheduler.admitted);
    degraded += d(a.scheduler.degraded, b.scheduler.degraded);
    shed += d(a.scheduler.shed, b.scheduler.shed);
    expired += d(a.scheduler.expired, b.scheduler.expired);
    hits += d(a.service.insight_cache.hits, b.service.insight_cache.hits);
    misses += d(a.service.insight_cache.misses, b.service.insight_cache.misses);
    evictions += d(a.service.insight_cache.evictions, b.service.insight_cache.evictions);
    from_summary += d(a.service.fanout.shards_from_summary,
                      b.service.fanout.shards_from_summary);
    scanned += d(a.service.fanout.shards_scanned, b.service.fanout.shards_scanned);
  }
};

void add_counter_layers(ResultLine& line, const CounterDeltas& d,
                        std::size_t requests) {
  line.add("http_listener.connections_per_request",
           d.accepted / static_cast<double>(std::max<std::size_t>(1, requests)));
  line.add("http_listener.saturated", d.saturated);
  line.add("http_listener.read_failures", d.read_failures);
  line.add("query_scheduler.admitted", d.admitted);
  line.add("query_scheduler.degraded", d.degraded);
  line.add("query_scheduler.shed", d.shed);
  line.add("query_scheduler.expired", d.expired);
  const double lookups = d.hits + d.misses;
  line.add("query_service.cache_hit_ratio", lookups > 0 ? d.hits / lookups : 0.0);
  line.add("query_service.cache_lookups", lookups);
  line.add("query_service.cache_evictions", d.evictions);
  const double visits = d.from_summary + d.scanned;
  line.add("query_service.summary_shard_share",
           visits > 0 ? d.from_summary / visits : 0.0);
}

void add_ingest_layers(ResultLine& line, const Stack& stack,
                       double scatter_faults) {
  const IngestStats s = stack.service->session_ingest_stats();
  const IngestStats p = stack.service->post_ingest_stats();
  line.add("ingest.count_s", s.count_seconds);
  line.add("ingest.plan_s", s.plan_seconds);
  line.add("ingest.scatter_s", s.scatter_seconds);
  line.add("ingest.summarize_s", s.summarize_seconds);
  line.add("ingest.post_scatter_s", p.scatter_seconds);
  line.add("ingest.scatter_minor_faults", scatter_faults);
  line.add("nlp.posts_scored_per_s",
           p.scatter_seconds > 0 ? static_cast<double>(p.records) / p.scatter_seconds : 0.0);
}

void add_host_layer(ResultLine& line, const HostProbe& host) {
  line.add("host.measured_parallelism", host.measured_parallelism);
  line.add("host.loadavg_1m", host.loadavg_1m);
}

double scrape_ms(const Stack& stack) {
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const std::string text = stack.service->metrics_text();
    t.push_back(ms(seconds_between(t0, Clock::now())));
    if (text.empty()) return 0.0;
  }
  return median(t);
}

// ---- Metric catalogue --------------------------------------------------------

/// Every end-to-end metric, in print order (see METHOD.md for what each
/// means on each workload).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"query_goodput_qps", "1/s"},
    {"answered_ratio", "ratio"},
    {"fresh_ratio", "ratio"},
};

/// Every per-layer metric a traced run prints, in print order. A layer a
/// workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.requests", "count"},
    {"host.measured_parallelism", "ratio"},
    {"host.loadavg_1m", "count"},
    {"http_listener.connect_p50_ms", "ms"},
    {"http_listener.ttfb_p50_ms", "ms"},
    {"http_listener.self_p50_ms", "ms"},
    {"http_listener.self_p99_ms", "ms"},
    {"http_listener.connections_per_request", "ratio"},
    {"http_listener.saturated", "count"},
    {"http_listener.read_failures", "count"},
    {"query_scheduler.self_p50_ms", "ms"},
    {"query_scheduler.wait_p99_ms", "ms"},
    {"query_scheduler.estimate_p50_us", "us"},
    {"query_scheduler.admitted", "count"},
    {"query_scheduler.degraded", "count"},
    {"query_scheduler.shed", "count"},
    {"query_scheduler.expired", "count"},
    {"query_service.run_cache_p50_us", "us"},
    {"query_service.run_summary_p50_ms", "ms"},
    {"query_service.run_scan_p50_ms", "ms"},
    {"query_service.cache_probe_p50_us", "us"},
    {"query_service.implicit_p50_ms", "ms"},
    {"query_service.social_p50_ms", "ms"},
    {"query_service.cache_hit_ratio", "ratio"},
    {"query_service.cache_lookups", "count"},
    {"query_service.cache_evictions", "count"},
    {"query_service.summary_shard_share", "ratio"},
    {"correlation_engine.engagement_curve_p50_ms", "ms"},
    {"correlation_engine.tally_p50_ms", "ms"},
    {"correlation_engine.rows_scanned_per_s", "1/s"},
    {"attribution.client_p50_ms", "ms"},
    {"attribution.loadgen_ms", "ms"},
    {"attribution.http_listener_ms", "ms"},
    {"attribution.query_scheduler_ms", "ms"},
    {"attribution.query_service_ms", "ms"},
    {"attribution.correlation_engine_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"ingest.count_s", "s"},
    {"ingest.plan_s", "s"},
    {"ingest.scatter_s", "s"},
    {"ingest.summarize_s", "s"},
    {"ingest.post_scatter_s", "s"},
    {"ingest.scatter_minor_faults", "count"},
    {"ingest.writer_phase_share", "ratio"},
    {"nlp.posts_scored_per_s", "1/s"},
    {"stream_ingestor.push_p50_us", "us"},
    {"stream_ingestor.flush_p50_ms", "ms"},
    {"stream_ingestor.flush_p99_ms", "ms"},
    {"stream_ingestor.flushes", "count"},
    {"stream_ingestor.quarantined", "count"},
    {"stream_ingestor.backpressure_waits", "count"},
    {"telemetry.overhead_pct", "%"},
    {"telemetry.scrape_ms", "ms"},
};

// ---- Workloads -------------------------------------------------------------

struct Corpus {
  std::vector<CallRecord> calls;
  std::vector<Post> posts;
  CountCube cube;
};

Corpus make_seed_corpus(const Options& o) {
  Corpus c;
  c.calls = make_calls(kSessions, o.seed * 2 + 1);
  c.posts = make_posts(kPosts, o.seed * 2 + 2);
  c.cube.add_calls(c.calls.data(), c.calls.data() + c.calls.size());
  c.cube.add_posts(c.posts.data(), c.posts.data() + c.posts.size());
  return c;
}

/// Builds the stack `times` times (keeping the last) and records each
/// set-up time.
struct Setups {
  std::vector<double> total_s;
};

std::unique_ptr<Stack> set_up(const Corpus& c, std::size_t times, Setups& out) {
  std::unique_ptr<Stack> stack;
  for (std::size_t k = 0; k < times; ++k) {
    stack.reset();
    stack = build_stack(c.calls, c.posts);
    out.total_s.push_back(stack->setup_seconds);
    std::printf("setup %zu: %.4f s (ingest_calls %.4f s, %ld minor faults; "
                "ingest_posts %.4f s)\n",
                out.total_s.size(), stack->setup_seconds, stack->calls_seconds,
                stack->calls_minor_faults, stack->posts_seconds);
  }
  return stack;
}

/// telemetry.overhead_pct: requests [measured.begin, end) sent in blocks to
/// two fresh stacks, one as the service ships and one built with the
/// telemetry kill switch thrown, after the same warm-up on each. The blocks
/// alternate A B B A, so a drift of the host falls on both. The figure is
/// the gap between the two median latencies, over the median without
/// telemetry.
double telemetry_overhead_pct(const Corpus& c, const Requests& reqs,
                              const LoadPlan& measured, std::size_t end,
                              Tally& tally) {
  constexpr std::size_t kBlock = 100;
  const std::unique_ptr<Stack> stacks[2] = {
      build_stack(c.calls, c.posts, true), build_stack(c.calls, c.posts, false)};
  const auto reference = static_reference(c.cube);
  const auto send = [&](const Stack& s, std::size_t begin, std::size_t stop) {
    LoadPlan p = measured;
    p.begin = begin;
    p.end = stop;
    p.max_seconds = 1e9;
    std::vector<Sample> got = drive(p, wire_executor(s.listener->port(), reqs));
    check_answers(got, reqs, reference, tally);
    return got;
  };
  for (const auto& s : stacks) (void)send(*s, 0, measured.begin);
  std::vector<double> latency[2];
  for (std::size_t b = measured.begin, k = 0; b < end; b += kBlock, ++k) {
    for (const std::size_t j : {k % 2, 1 - k % 2}) {
      for (const Sample& s : send(*stacks[j], b, std::min(end, b + kBlock))) {
        latency[j].push_back(ms(s.latency_s(measured.open)));
      }
    }
  }
  const double on = median(latency[0]);
  const double off = median(latency[1]);
  std::printf("telemetry A/B: %zu requests per stack, p50 %.4f ms on, "
              "%.4f ms off\n",
              latency[0].size(), on, off);
  return off > 0 ? 100.0 * (on - off) / off : 0.0;
}

void add_traced_layers(ResultLine& line, const Corpus& c,
                       const Requests& reqs, const LoadPlan& measured,
                       const std::vector<Sample>& wire, Stack& stack,
                       const HostProbe& host, Tally& answers) {
  const bool open = measured.open;
  // The replays cover the first kReplaySeconds of the measured pass: the
  // same warm-up, the same request indices, the same pacing.
  std::size_t replay_end = measured.begin;
  for (const Sample& s : wire) {
    if (s.scheduled < kReplaySeconds) replay_end = std::max(replay_end, s.index + 1);
  }
  const auto replay = [&](const Executor& exec) {
    LoadPlan warm = measured;
    warm.begin = 0;
    warm.end = measured.begin;
    warm.max_seconds = 1e9;
    (void)drive(warm, exec);
    LoadPlan plan = measured;
    plan.end = replay_end;
    plan.max_seconds = 1e9;
    return drive(plan, exec);
  };
  std::vector<Sample> sched_pass, svc_pass, eng_pass;
  std::vector<double> estimate_us;
  {
    Setups ignored;
    auto fresh = set_up(c, 1, ignored);
    QueryScheduler& sch = *fresh->scheduler;
    sched_pass = replay([&](std::size_t i, Sample& s) {
      const Request& r = reqs.list[i];
      const auto res = sch.submit(r.tenant, r.query, 1.0);
      s.inner_s = res.insight.execution.seconds;
      s.wait_s = res.wait_seconds;
      s.status = res.outcome == AdmissionOutcome::kAdmitted ||
                         res.outcome == AdmissionOutcome::kDegraded
                     ? 200
                     : 429;
    });
    for (std::size_t i = measured.begin; i < std::min(replay_end, measured.begin + 2000); ++i) {
      const auto t0 = Clock::now();
      const double cost = sch.estimate_cost(reqs.list[i].query);
      estimate_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      (void)cost;
    }
  }
  {
    Setups ignored;
    auto fresh = set_up(c, 1, ignored);
    const QueryService& svc = *fresh->service;
    svc_pass = replay([&](std::size_t i, Sample& s) {
      const auto insight = svc.run(reqs.list[i].query);
      s.served_by = insight.execution.served_by;
      s.inner_s = insight.execution.seconds;
      s.cache_probe_s = insight.execution.cache_probe_seconds;
      s.implicit_s = insight.execution.implicit_seconds;
      s.social_s = insight.execution.social_seconds;
      s.status = 200;
    });
  }
  {
    std::map<std::size_t, ServedBy> path;
    for (const Sample& s : svc_pass) path[s.index] = s.served_by;
    EngineReplay engine{c.calls, c.cube};
    eng_pass = replay([&](std::size_t i, Sample& s) {
      const auto it = path.find(i);
      if (it != path.end() && it->second == ServedBy::kCache) return;
      engine.run(reqs.list[i].query, s);
    });
  }

  std::vector<double> http_self, sched_self;
  const Attribution at =
      attribute(wire, sched_pass, eng_pass, open, http_self, sched_self);
  std::vector<double> connect, ttfb, late, wait;
  for (const Sample& s : wire) {
    late.push_back(ms(s.started - s.scheduled));
    wait.push_back(ms(s.wait_s));
    connect.push_back(ms(s.connect_s));
    ttfb.push_back(ms(s.ttfb_s));
  }
  std::vector<double> run_cache, run_summary, run_scan, probe, implicit, social;
  for (const Sample& s : svc_pass) {
    if (s.index < measured.begin) continue;
    const double run = s.finished - s.started;
    if (s.served_by == ServedBy::kCache) run_cache.push_back(run * 1e6);
    else if (s.served_by == ServedBy::kSummaryMerge) run_summary.push_back(ms(run));
    else run_scan.push_back(ms(run));
    probe.push_back(s.cache_probe_s * 1e6);
    if (s.served_by != ServedBy::kCache) {
      implicit.push_back(ms(s.implicit_s));
      social.push_back(ms(s.social_s));
    }
  }
  std::vector<double> curve, tally;
  double engine_s = 0.0;
  double rows = 0.0;
  for (const Sample& s : eng_pass) {
    if (s.engine_s <= 0.0) continue;
    curve.push_back(s.curve_s / 3.0);
    tally.push_back(s.tally_s);
    engine_s += s.engine_s;
    rows += static_cast<double>(s.rows_scanned);
  }
  line.add("loadgen.late_p99_ms", tail_percentile(late, 0.99));
  line.add("loadgen.requests", static_cast<double>(wire.size()));
  add_host_layer(line, host);
  line.add("http_listener.connect_p50_ms", median(connect));
  line.add("http_listener.ttfb_p50_ms", median(ttfb));
  line.add("http_listener.self_p50_ms", median(http_self));
  line.add("http_listener.self_p99_ms", tail_percentile(http_self, 0.99));
  line.add("query_scheduler.self_p50_ms", median(sched_self));
  line.add("query_scheduler.wait_p99_ms", tail_percentile(wait, 0.99));
  line.add("query_scheduler.estimate_p50_us", median(estimate_us));
  line.add("query_service.run_cache_p50_us", median(run_cache));
  line.add("query_service.run_summary_p50_ms", median(run_summary));
  line.add("query_service.run_scan_p50_ms", median(run_scan));
  line.add("query_service.cache_probe_p50_us", median(probe));
  line.add("query_service.implicit_p50_ms", median(implicit));
  line.add("query_service.social_p50_ms", median(social));
  line.add("correlation_engine.engagement_curve_p50_ms", p50_ms_of(curve));
  line.add("correlation_engine.tally_p50_ms", p50_ms_of(tally));
  line.add("correlation_engine.rows_scanned_per_s",
           engine_s > 0 ? rows / engine_s : 0.0);
  line.add("attribution.client_p50_ms", at.client);
  line.add("attribution.loadgen_ms", at.loadgen);
  line.add("attribution.http_listener_ms", at.http);
  line.add("attribution.query_scheduler_ms", at.scheduler);
  line.add("attribution.query_service_ms", at.service);
  line.add("attribution.correlation_engine_ms", at.engine);
  line.add("unattributed_ms", at.unattributed);
  line.add("telemetry.overhead_pct",
           telemetry_overhead_pct(c, reqs, measured, replay_end, answers));
  line.add("telemetry.scrape_ms", scrape_ms(stack));
  std::printf("attribution (ms at client p50, %zu wire / %zu replayed requests): "
              "client %.3f = loadgen %.3f + http_listener %.3f + "
              "query_scheduler %.3f + query_service %.3f + "
              "correlation_engine %.3f + unattributed %.3f\n",
              wire.size(), eng_pass.size(), at.client, at.loadgen, at.http,
              at.scheduler, at.service, at.engine, at.unattributed);
}

/// Stream-ingest per-layer metrics: from the streaming round that follows a
/// traced read workload, or from live_ingest's rounds.
struct StreamLayers {
  double push_p50_us{0.0};
  double flush_p50_ms{0.0};
  double flush_p99_ms{0.0};
  double flushes{0.0};
  double quarantined{0.0};
  double backpressure_waits{0.0};
  double writer_phase_share{0.0};
};

void add_stream_layers(ResultLine& line, const StreamLayers& s) {
  line.add("stream_ingestor.push_p50_us", s.push_p50_us);
  line.add("stream_ingestor.flush_p50_ms", s.flush_p50_ms);
  line.add("stream_ingestor.flush_p99_ms", s.flush_p99_ms);
  line.add("stream_ingestor.flushes", s.flushes);
  line.add("stream_ingestor.quarantined", s.quarantined);
  line.add("stream_ingestor.backpressure_waits", s.backpressure_waits);
  line.add("ingest.writer_phase_share", s.writer_phase_share);
}

StreamLayers stream_probe(const Options& o, const Corpus& c, RunReport& rep);

/// dashboard_wire and analyst_scan: a fixed corpus read over the wire.
RunReport run_read_workload(const Options& o, const HostProbe& host) {
  const bool dashboard = o.workload == "dashboard_wire";
  const Corpus c = make_seed_corpus(o);
  // Enough requests for the warm-up and the pass (the closed loop at well
  // above any rate it reaches).
  const double max_rate = dashboard ? kDashboardRate : 1000.0;
  const auto n = static_cast<std::size_t>(
      (o.seconds + kWarmupSeconds + 1.0) * max_rate + 1000.0);
  const Requests reqs = render_all(
      dashboard ? dashboard_requests(dashboard_keys(kDashboardKeys),
                                     kDashboardTenants, n, o.seed)
                : analyst_requests(n, o.seed, 0));
  const auto reference = static_reference(c.cube);
  const double inputs_mb = settle_memory();
  Setups setups;
  auto stack = set_up(c, o.trace ? 1 : kSetups, setups);
  const std::uint16_t port = stack->listener->port();

  LoadPlan plan;
  plan.open = dashboard;
  plan.rate = kDashboardRate;
  plan.threads = dashboard ? kLoadThreads : kAnalystClients;
  // Warm-up: caches fill and lazy set-up finishes before timing.
  plan.begin = 0;
  plan.end = dashboard ? static_cast<std::size_t>(kWarmupSeconds * plan.rate)
                       : kAnalystClients * 8;
  plan.max_seconds = kWarmupSeconds;
  RunReport rep;
  check_answers(drive(plan, wire_executor(port, reqs)), reqs, reference,
                rep.tally);

  // The measured pass.
  plan.begin = plan.end;
  plan.end = reqs.list.size();
  plan.max_seconds = o.seconds;
  const LayerCounters before = snapshot(*stack);
  const auto t_pass = Clock::now();
  const std::vector<Sample> pass = drive(plan, wire_executor(port, reqs));
  const double pass_elapsed = seconds_between(t_pass, Clock::now());
  const LayerCounters after = snapshot(*stack);
  check_answers(pass, reqs, reference, rep.tally);
  const LatencySummary lat = summarize(pass, plan.open, pass_elapsed);
  std::printf("measured pass: %zu requests, p50 %.3f ms, p99 %.3f ms%s, "
              "late p99 %.3f ms; window p50s (ms):",
              lat.samples, lat.p50_ms, lat.p99_ms,
              lat.p99_valid ? "" : " (fewer than 10 samples beyond p99)",
              lat.late_p99_ms);
  for (const double p : lat.window_p50_ms) std::printf(" %.3f", p);
  std::printf("; window p99s (ms):");
  for (const double p : lat.window_p99_ms) std::printf(" %.3f", p);
  std::printf("\n");

  if (o.trace) {
    add_traced_layers(rep.line, c, reqs, plan, pass, *stack, host, rep.tally);
    CounterDeltas deltas;
    deltas.add(before, after);
    add_counter_layers(rep.line, deltas, pass.size());
    add_ingest_layers(rep.line, *stack, static_cast<double>(stack->calls_minor_faults));
    check_ledgers(*stack, rep);
    // Nothing streams into this workload's stack: the stream_ingestor layer
    // is measured on a fresh one once the pass is over.
    stack.reset();
    add_stream_layers(rep.line, stream_probe(o, c, rep));
    return rep;
  }

  add_common_e2e(rep.line, setups.total_s, inputs_mb, lat, rep.tally);
  check_ledgers(*stack, rep);
  return rep;
}

/// The flush sequence a single producer's push order implies: flush
/// slicing is a pure function of the push sequence and the watermarks.
struct FlushEvent {
  bool calls{true};
  std::size_t chunk{0};  ///< Producer step whose push returned after it.
  std::size_t records{0};
};

struct StreamPlan {
  std::vector<CallRecord> calls;
  std::vector<Post> posts;
  std::size_t poison_calls{0};
  std::size_t poison_posts{0};
  std::size_t post_chunk{1};
  std::size_t steps{0};
  std::vector<FlushEvent> flushes;  ///< In version order.
};

bool poisoned(std::size_t i) { return (i + 1) % kPoisonEvery == 0; }

/// Position in the stream of the v-th record that is not poisoned.
std::size_t raw_index(std::size_t v) { return v + v / (kPoisonEvery - 1); }

StreamPlan make_stream_plan(const Options& o,
                            const usaas::service::StreamIngestorConfig& cfg) {
  StreamPlan p;
  p.calls = make_calls(kSessions, o.seed * 2 + 101, 1ull << 40);
  p.posts = make_posts(kPosts, o.seed * 2 + 102, 1ull << 40);
  p.poison_calls = poison_calls(p.calls, kPoisonEvery);
  p.poison_posts = poison_posts(p.posts, kPoisonEvery);
  p.steps = (p.calls.size() + kCallChunk - 1) / kCallChunk;
  p.post_chunk = (p.posts.size() + p.steps - 1) / p.steps;
  std::size_t staged_calls = 0;
  std::size_t staged_posts = 0;
  for (std::size_t step = 0; step < p.steps; ++step) {
    // Step = one calls push_many then one posts push_many; a flush inside
    // either is attributed to the step (both calls return within it).
    for (std::size_t i = step * kCallChunk;
         i < std::min(p.calls.size(), (step + 1) * kCallChunk); ++i) {
      if (poisoned(i)) continue;
      if (++staged_calls == cfg.call_flush_watermark) {
        p.flushes.push_back({true, step, staged_calls});
        staged_calls = 0;
      }
    }
    for (std::size_t i = step * p.post_chunk;
         i < std::min(p.posts.size(), (step + 1) * p.post_chunk); ++i) {
      if (poisoned(i)) continue;
      if (++staged_posts == cfg.post_flush_watermark) {
        p.flushes.push_back({false, step, staged_posts});
        staged_posts = 0;
      }
    }
  }
  if (staged_calls > 0) p.flushes.push_back({true, p.steps, staged_calls});
  if (staged_posts > 0) p.flushes.push_back({false, p.steps, staged_posts});
  return p;
}

/// Streams the plan's volume through `ingestor`, one step at a time: a calls
/// push_many, then a posts push_many, then a final flush. Records when
/// each step started and ended (seconds after `t0`) and how long its pushes
/// took. Returns how many valid records the ingestor refused.
std::uint64_t stream_volume(usaas::service::StreamIngestor& ingestor,
                            const StreamPlan& sp, Clock::time_point t0,
                            std::vector<double>& step_start,
                            std::vector<double>& step_end,
                            std::vector<double>& push_us) {
  std::uint64_t rejected = 0;
  for (std::size_t step = 0; step < sp.steps; ++step) {
    step_start[step] = seconds_between(t0, Clock::now());
    const std::size_t cb = step * kCallChunk;
    const std::size_t ce = std::min(sp.calls.size(), cb + kCallChunk);
    const std::size_t pb = std::min(sp.posts.size(), step * sp.post_chunk);
    const std::size_t pe = std::min(sp.posts.size(), pb + sp.post_chunk);
    const auto a0 = Clock::now();
    const std::size_t ok_calls = ingestor.push_many(
        std::span<const CallRecord>{sp.calls.data() + cb, ce - cb});
    const std::size_t ok_posts = ingestor.push_many(
        std::span<const Post>{sp.posts.data() + pb, pe - pb});
    step_end[step] = seconds_between(t0, Clock::now());
    push_us.push_back(seconds_between(a0, Clock::now()) * 1e6);
    std::size_t want_calls = 0;
    for (std::size_t i = cb; i < ce; ++i) want_calls += poisoned(i) ? 0 : 1;
    std::size_t want_posts = 0;
    for (std::size_t i = pb; i < pe; ++i) want_posts += poisoned(i) ? 0 : 1;
    rejected += (want_calls - ok_calls) + (want_posts - ok_posts);
  }
  step_start[sp.steps] = seconds_between(t0, Clock::now());
  ingestor.flush();
  step_end[sp.steps] = seconds_between(t0, Clock::now());
  return rejected;
}

/// Checks a streamed volume against the offline plan: every poison record
/// quarantined, the planned flushes and corpus version, nothing refused.
bool stream_ledger_ok(const usaas::service::StreamIngestor::Stats& st,
                      const Stack& stack, const StreamPlan& sp,
                      std::uint64_t rejected) {
  bool ok = true;
  if (st.health.quarantined != sp.poison_calls + sp.poison_posts) {
    std::fprintf(stderr, "quarantined %llu records, injected %zu\n",
                 static_cast<unsigned long long>(st.health.quarantined),
                 sp.poison_calls + sp.poison_posts);
    ok = false;
  }
  if (st.health.flushes != sp.flushes.size() ||
      stack.service->corpus_version() != kVersionAfterSetup + sp.flushes.size()) {
    std::fprintf(stderr, "flushes %llu (version %llu), planned %zu\n",
                 static_cast<unsigned long long>(st.health.flushes),
                 static_cast<unsigned long long>(stack.service->corpus_version()),
                 sp.flushes.size());
    ok = false;
  }
  if (rejected > 0) {
    std::fprintf(stderr, "the ingestor refused %llu valid records\n",
                 static_cast<unsigned long long>(rejected));
    ok = false;
  }
  return ok;
}

/// The stream_ingestor layer on a traced read workload: a fresh stack takes
/// the second corpus through the stream ingestor once, with no reader
/// beside it, and the ingestor's ledger is checked against the plan.
StreamLayers stream_probe(const Options& o, const Corpus& c, RunReport& rep) {
  usaas::service::StreamIngestorConfig scfg;
  const StreamPlan sp = make_stream_plan(o, scfg);
  Setups setups;
  const auto stack = set_up(c, 1, setups);
  const IngestStats s0 = stack->service->session_ingest_stats();
  const IngestStats p0 = stack->service->post_ingest_stats();
  usaas::service::StreamIngestor ingestor{*stack->service, scfg};
  std::vector<double> step_start(sp.steps + 1, 0.0);
  std::vector<double> step_end(sp.steps + 1, 0.0);
  std::vector<double> push_us;
  const std::uint64_t rejected =
      stream_volume(ingestor, sp, Clock::now(), step_start, step_end, push_us);
  const auto st = ingestor.stats();
  if (!stream_ledger_ok(st, *stack, sp, rejected)) rep.ledgers_ok = false;
  rep.pushes += sp.calls.size() + sp.posts.size() - sp.poison_calls -
                sp.poison_posts;
  rep.rejected += rejected;
  std::vector<double> flush_ms;
  for (const FlushEvent& f : sp.flushes) {
    flush_ms.push_back(ms(step_end[f.chunk] - step_start[f.chunk]));
  }
  const IngestStats s1 = stack->service->session_ingest_stats();
  const IngestStats p1 = stack->service->post_ingest_stats();
  StreamLayers layers;
  layers.push_p50_us = median(push_us);
  layers.flush_p50_ms = median(flush_ms);
  layers.flush_p99_ms = tail_percentile(flush_ms, 0.99);
  layers.flushes = static_cast<double>(st.health.flushes);
  layers.quarantined = static_cast<double>(st.health.quarantined);
  layers.backpressure_waits = static_cast<double>(st.blocked_pushes + st.backoff_waits);
  layers.writer_phase_share =
      ((s1.total_seconds - s0.total_seconds) + (p1.total_seconds - p0.total_seconds)) /
      std::max(1e-9, step_end[sp.steps]);
  std::printf("stream probe: %zu flushes in %.3f s, flush p50 %.3f ms\n",
              sp.flushes.size(), step_end[sp.steps], layers.flush_p50_ms);
  return layers;
}

/// live_ingest: one producer streams a fixed volume through the stream
/// ingestor while one reader sends a fixed-rate mix over the wire. Rounds
/// (each on a fresh stack) repeat until the streaming time reaches
/// --seconds.
RunReport run_live_ingest(const Options& o, const HostProbe& host) {
  const Corpus c = make_seed_corpus(o);
  usaas::service::StreamIngestorConfig scfg;
  const StreamPlan sp = make_stream_plan(o, scfg);
  const auto n = static_cast<std::size_t>((o.seconds + 60.0) * kLiveReaderRate) + 100;
  // The reader mix: 90% dashboard keys, 10% unique analyst queries.
  std::vector<Request> mix;
  {
    auto dash = dashboard_requests(dashboard_keys(kDashboardKeys),
                                   kDashboardTenants, n, o.seed);
    auto analyst = analyst_requests(n, o.seed, kDashboardKeys);
    usaas::core::Rng pick{o.seed ^ 0x11fe'0001ull};
    for (std::size_t i = 0; i < n; ++i) {
      mix.push_back(pick.bernoulli(0.9) ? dash[i] : analyst[i]);
    }
  }
  const Requests reqs = render_all(std::move(mix));
  const double inputs_mb = settle_memory();

  RunReport rep;
  Setups setups;
  std::vector<Sample> reads;
  std::vector<double> push_us, flush_ms;
  // Each round streams the whole volume, so each gets its own rates and
  // freshness percentiles; the run reports their medians, which a slow
  // stretch of the host confined to a few rounds cannot move.
  struct {
    std::vector<double> sessions_per_s, posts_per_s, fresh_p50_ms, fresh_p99_ms;
  } per_round;
  double stream_seconds = 0.0;
  double phase_seconds = 0.0;
  std::size_t next_request = 0;
  StreamLayers layers;
  std::unique_ptr<Stack> stack;
  CounterDeltas deltas;
  double scatter_faults = 0.0;
  std::size_t rounds = 0;
  bool warming_up = true;
  while (stream_seconds < o.seconds || rounds == 0) {
    stack.reset();
    stack = set_up(c, 1, setups);
    scatter_faults = static_cast<double>(stack->calls_minor_faults);
    const IngestStats s0 = stack->service->session_ingest_stats();
    const IngestStats p0 = stack->service->post_ingest_stats();
    usaas::service::StreamIngestor ingestor{*stack->service, scfg};
    std::vector<double> step_start(sp.steps + 1, 0.0);
    std::vector<double> step_end(sp.steps + 1, 0.0);
    std::atomic<bool> writing{true};
    std::uint64_t rejected = 0;
    double producer_seconds = 0.0;
    const LayerCounters before = snapshot(*stack);
    const auto t0 = Clock::now();
    std::thread producer{[&] {
      rejected = stream_volume(ingestor, sp, t0, step_start, step_end, push_us);
      producer_seconds = step_end[sp.steps];
      writing.store(false);
    }};
    LoadPlan plan;
    plan.open = true;
    plan.rate = kLiveReaderRate;
    plan.threads = 1;
    plan.begin = next_request;
    plan.end = reqs.list.size();
    plan.max_seconds = 1e9;
    plan.active = &writing;  // the reader stops when the producer is done
    std::vector<Sample> got =
        drive(plan, wire_executor(stack->listener->port(), reqs));
    producer.join();
    if (!warming_up) deltas.add(before, snapshot(*stack));
    check_ledgers(*stack, rep, false);
    if (got.empty()) {
      std::fprintf(stderr, "the reader sent nothing during a round\n");
    }
    next_request = got.empty() ? next_request : got.back().index + 1;

    const auto st = ingestor.stats();
    if (!stream_ledger_ok(st, *stack, sp, rejected)) rep.ledgers_ok = false;
    rep.pushes += sp.calls.size() + sp.posts.size() - sp.poison_calls -
                  sp.poison_posts;
    rep.rejected += rejected;

    // Reference counts per version: replay the planned flushes onto the
    // seed cube in version order.
    std::vector<const Sample*> by_version;
    for (const Sample& s : got) by_version.push_back(&s);
    std::sort(by_version.begin(), by_version.end(),
              [](const Sample* a, const Sample* b) { return a->version < b->version; });
    CountCube cube = c.cube;
    std::size_t applied = 0;
    std::size_t call_cursor = 0;
    std::size_t post_cursor = 0;
    std::map<std::pair<std::size_t, std::uint64_t>, CountCube::Counts> memo;
    std::vector<Sample> ordered;
    for (const Sample* s : by_version) ordered.push_back(*s);
    std::uint64_t cube_version = kVersionAfterSetup;
    const auto reference = [&](const Request& r, std::uint64_t version)
        -> std::optional<CountCube::Counts> {
      if (version < kVersionAfterSetup ||
          version > kVersionAfterSetup + sp.flushes.size()) {
        return std::nullopt;
      }
      while (cube_version < version) {
        const FlushEvent& f = sp.flushes[applied++];
        for (std::size_t v = 0; v < f.records; ++v) {
          if (f.calls) {
            const CallRecord* rec = &sp.calls[raw_index(call_cursor++)];
            cube.add_calls(rec, rec + 1);
          } else {
            const Post* rec = &sp.posts[raw_index(post_cursor++)];
            cube.add_posts(rec, rec + 1);
          }
        }
        ++cube_version;
      }
      const auto key = std::make_pair(r.query_id, version);
      auto it = memo.find(key);
      if (it == memo.end()) it = memo.emplace(key, cube.count(r.query)).first;
      return it->second;
    };
    check_answers(ordered, reqs, reference, rep.tally);
    // The first round warms up (first-touch page faults, cold caches): it
    // is checked like every round but measures nothing.
    if (warming_up) {
      warming_up = false;
      push_us.clear();
      continue;
    }

    // Freshness: a record pushed in step k becomes queryable when the
    // flush that carries it returns (the end of the flush's step). A call
    // carries kParticipantsPerCall session records.
    std::size_t pushed_calls = 0;
    std::size_t pushed_posts = 0;
    std::size_t call_rec = 0;
    std::size_t post_rec = 0;
    std::vector<std::pair<double, std::uint64_t>> freshness;
    // Records of one step share a value, so runs of them fold into one pair.
    const auto add_freshness = [&](double value, std::uint64_t count) {
      if (!freshness.empty() && freshness.back().first == value) {
        freshness.back().second += count;
      } else {
        freshness.emplace_back(value, count);
      }
    };
    const auto step_of_call = [&](std::size_t v) {
      return raw_index(v) / kCallChunk;
    };
    const auto step_of_post = [&](std::size_t v) {
      return raw_index(v) / sp.post_chunk;
    };
    for (const FlushEvent& f : sp.flushes) {
      const double ready = step_end[f.chunk];
      if (f.calls) {
        for (std::size_t v = call_rec; v < call_rec + f.records; ++v) {
          add_freshness(ms(ready - step_start[step_of_call(v)]),
                        kParticipantsPerCall);
        }
        call_rec += f.records;
        pushed_calls += f.records;
      } else {
        for (std::size_t v = post_rec; v < post_rec + f.records; ++v) {
          add_freshness(ms(ready - step_start[step_of_post(v)]), 1);
        }
        post_rec += f.records;
        pushed_posts += f.records;
      }
      // Steps whose push returned after a flush carry the flush time.
      flush_ms.push_back(ms(step_end[f.chunk] - step_start[f.chunk]));
    }
    stream_seconds += producer_seconds;
    per_round.sessions_per_s.push_back(
        static_cast<double>(pushed_calls * kParticipantsPerCall) / producer_seconds);
    per_round.posts_per_s.push_back(static_cast<double>(pushed_posts) / producer_seconds);
    per_round.fresh_p50_ms.push_back(percentile(freshness, 0.50).value_or(0.0));
    per_round.fresh_p99_ms.push_back(percentile(freshness, 0.99).value_or(0.0));
    const IngestStats s1 = stack->service->session_ingest_stats();
    const IngestStats p1 = stack->service->post_ingest_stats();
    phase_seconds += (s1.total_seconds - s0.total_seconds) +
                     (p1.total_seconds - p0.total_seconds);
    layers.flushes += static_cast<double>(st.health.flushes);
    layers.quarantined += static_cast<double>(st.health.quarantined);
    layers.backpressure_waits +=
        static_cast<double>(st.blocked_pushes + st.backoff_waits);
    // Rebase the round's sample times onto the run's streaming clock.
    for (Sample& s : got) {
      s.scheduled += stream_seconds - producer_seconds;
      s.started += stream_seconds - producer_seconds;
      s.finished += stream_seconds - producer_seconds;
    }
    reads.insert(reads.end(), got.begin(), got.end());
    ++rounds;
  }
  // At least kSetups set-ups are timed, as on the other workloads.
  if (!o.trace && setups.total_s.size() < kSetups) {
    stack.reset();
    stack = set_up(c, kSetups - setups.total_s.size(), setups);
  }
  // The reader is paced, not open: it waits for each answer, so its latency
  // runs from the send. Timed from the due time, one slow stretch of the
  // host backs the single reader up and the tail measures the backlog.
  const LatencySummary lat = summarize(reads, false, stream_seconds);
  std::printf("live_ingest: %zu rounds, %.3f s streaming, %zu reads, p50 "
              "%.3f ms, p99 %.3f ms%s, late p99 %.3f ms\n",
              rounds, stream_seconds, lat.samples, lat.p50_ms, lat.p99_ms,
              lat.p99_valid ? "" : " (fewer than 10 samples beyond p99)",
              lat.late_p99_ms);
  std::printf("sessions streamed per second, by round:");
  for (const double r : per_round.sessions_per_s) std::printf(" %.0f", r);
  std::printf("\nledgers (checked every round): listener accepted=%.0f | "
              "scheduler admitted=%.0f degraded=%.0f shed=%.0f expired=%.0f "
              "| stream flushes=%.0f quarantined=%.0f\n",
              deltas.accepted, deltas.admitted, deltas.degraded, deltas.shed,
              deltas.expired, layers.flushes, layers.quarantined);
  // Steps without a flush measure pure staging.
  layers.push_p50_us = median(push_us);
  layers.flush_p50_ms = median(flush_ms);
  layers.flush_p99_ms = tail_percentile(flush_ms, 0.99);
  layers.writer_phase_share = phase_seconds / std::max(1e-9, stream_seconds);

  if (o.trace) {
    std::vector<double> late, connect, ttfb, wait;
    for (const Sample& s : reads) {
      late.push_back(ms(s.started - s.scheduled));
      wait.push_back(ms(s.wait_s));
      connect.push_back(ms(s.connect_s));
      ttfb.push_back(ms(s.ttfb_s));
    }
    rep.line.add("loadgen.late_p99_ms", tail_percentile(late, 0.99));
    rep.line.add("loadgen.requests", static_cast<double>(reads.size()));
    add_host_layer(rep.line, host);
    rep.line.add("http_listener.connect_p50_ms", median(connect));
    rep.line.add("http_listener.ttfb_p50_ms", median(ttfb));
    rep.line.add("query_scheduler.wait_p99_ms", tail_percentile(wait, 0.99));
    add_counter_layers(rep.line, deltas, reads.size());
    add_ingest_layers(rep.line, *stack, scatter_faults);
    add_stream_layers(rep.line, layers);
    rep.line.add("telemetry.scrape_ms", scrape_ms(*stack));
    // The telemetry A/B sends the reader's mix back to back to static
    // stacks: at the reader's 40/s it would take minutes.
    stack.reset();
    LoadPlan ab;
    ab.open = false;
    ab.threads = 1;
    ab.begin = 40;
    rep.line.add("telemetry.overhead_pct",
                 telemetry_overhead_pct(c, reqs, ab, ab.begin + 800, rep.tally));
    return rep;
  }

  add_common_e2e(rep.line, setups.total_s, inputs_mb, lat, rep.tally);
  std::printf("writer (medians over rounds): %.0f sessions/s, %.0f posts/s, "
              "freshness p50 %.3f ms, p99 %.3f ms\n",
              median(per_round.sessions_per_s), median(per_round.posts_per_s),
              median(per_round.fresh_p50_ms), median(per_round.fresh_p99_ms));
  return rep;
}

}  // namespace
}  // namespace usaasbench

int main(int argc, char** argv) {
  using namespace usaasbench;
  const Options o = parse_options(argc, argv);
  const HostProbe host = probe_host();
  std::printf("host: reported_cpus=%u measured_parallelism=%.3f "
              "(1t %.4f s, 2t %.4f s, 4t %.4f s) loadavg_1m=%.2f\n",
              host.reported_cpus, host.measured_parallelism, host.seconds_1t,
              host.seconds_2t, host.seconds_4t, host.loadavg_1m);
  std::printf("config: workload=%s seed=%llu seconds=%.1f trace=%d "
              "sessions=%zu posts=%zu service_threads=%zu "
              "listener_workers=%zu load_threads<=%zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, kSessions, kPosts,
              kServiceThreads, kListenerWorkers, kLoadThreads);
  std::fflush(stdout);
  const RunReport rep = o.workload == "live_ingest" ? run_live_ingest(o, host)
                                                    : run_read_workload(o, host);
  const bool correct = rep.tally.wrong == 0 && rep.ledgers_ok;
  const std::string result = rep.line.render(
      o.trace ? kPerLayer : kEndToEnd, correct,
      rep.tally.attempted + rep.pushes, rep.tally.failed + rep.rejected);
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
