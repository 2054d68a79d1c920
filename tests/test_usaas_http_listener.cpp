// HTTP front-end tests, in three tiers:
//
//   1. wire-form parsers as pure functions (both the query-string and
//      the flat-JSON spelling must land on the same WireRequest);
//   2. end-to-end over a real loopback socket: route dispatch, the
//      admission-outcome -> status-code mapping (200/400/404/429+Retry-
//      After/504), and /metrics served through the same boundary;
//   3. the socket-level chaos storm: a FaultInjector-driven client fleet
//      (slow-loris stalls, truncated requests, early disconnects) plus
//      server-side injected accept failures, after which the listener's
//      connection ledger, the scheduler's admission ledger and the
//      sampling=all trace ledger must all reconcile EXACTLY, every
//      exchange must end within 2x its deadline envelope, and every
//      thread must exit within the shutdown timeout. Registered under the
//      `sanitize` label: this is the TSan/ASan workload for the whole
//      front end, and the one place the fault storm runs.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "confsim/call.h"
#include "core/date.h"
#include "core/fault_injector.h"
#include "core/telemetry/request_trace.h"
#include "usaas/http_listener.h"
#include "usaas/query_scheduler.h"
#include "usaas/query_service.h"
#include "usaas/stream_ingestor.h"

namespace usaas::service {
namespace {

using core::Date;

// ---- Corpus fixture ----------------------------------------------------

confsim::CallRecord sample_call(std::uint64_t id, const Date& day) {
  confsim::CallRecord call;
  call.call_id = id;
  call.start.date = day;
  call.start.time = {9, 0};
  confsim::ParticipantRecord rec;
  rec.user_id = id * 10;
  rec.platform = confsim::Platform::kWindowsPc;
  rec.meeting_size = 2;
  rec.access = netsim::AccessTechnology::kFiber;
  const auto agg = [](double v) { return netsim::MetricAggregate{v, v, v}; };
  rec.network.latency_ms = agg(40.0 + static_cast<double>(id % 50));
  rec.network.loss_pct = agg(0.5);
  rec.network.jitter_ms = agg(3.0);
  rec.network.bandwidth_mbps = agg(25.0);
  rec.network.duration_seconds = 1800.0;
  rec.network.sample_count = 360;
  rec.presence_pct = 90.0;
  rec.cam_on_pct = 50.0;
  rec.mic_on_pct = 30.0;
  call.participants.push_back(rec);
  return call;
}

struct Fixture {
  core::telemetry::Registry reg{true};
  QueryService svc;
  explicit Fixture(core::telemetry::TracerConfig trace = {})
      : svc{make_config(&reg, trace)} {
    std::vector<confsim::CallRecord> calls;
    std::uint64_t id = 0;
    for (int month = 1; month <= 3; ++month) {
      for (int day : {1, 10, 20, 28}) {
        calls.push_back(sample_call(id++, Date(2022, month, day)));
      }
    }
    svc.ingest_calls(calls);
  }
  static QueryServiceConfig make_config(core::telemetry::Registry* reg,
                                        core::telemetry::TracerConfig trace) {
    QueryServiceConfig cfg;
    cfg.threads = 1;
    cfg.telemetry = reg;
    cfg.trace = trace;
    return cfg;
  }
};

// ---- Wire-form parsers -------------------------------------------------

constexpr std::string_view kQueryString =
    "tenant=dash&first=2022-01-01&last=2022-03-31&metric=latency"
    "&lo=0&hi=300&bins=4&platform=ios&access=leo-satellite&budget_ms=250";

constexpr std::string_view kJsonBody =
    R"({"tenant":"dash","first":"2022-01-01","last":"2022-03-31",)"
    R"("metric":"latency","lo":0,"hi":300,"bins":4,)"
    R"("platform":"ios","access":"leo-satellite","budget_ms":250})";

void expect_dash_request(const WireRequest& wr) {
  EXPECT_EQ(wr.tenant, "dash");
  EXPECT_EQ(wr.query.first, Date(2022, 1, 1));
  EXPECT_EQ(wr.query.last, Date(2022, 3, 31));
  EXPECT_EQ(wr.query.metric, netsim::Metric::kLatency);
  EXPECT_DOUBLE_EQ(wr.query.metric_lo, 0.0);
  EXPECT_DOUBLE_EQ(wr.query.metric_hi, 300.0);
  EXPECT_EQ(wr.query.bins, 4u);
  EXPECT_DOUBLE_EQ(wr.budget_seconds, 0.25);
}

TEST(WireForm, BothSpellingsParseToTheSameRequest) {
  std::string error;
  const auto from_qs = parse_query_string(kQueryString, error);
  ASSERT_TRUE(from_qs.has_value()) << error;
  expect_dash_request(*from_qs);
  const auto from_json = parse_json_body(kJsonBody, error);
  ASSERT_TRUE(from_json.has_value()) << error;
  expect_dash_request(*from_json);
  EXPECT_EQ(from_qs->query.platform, from_json->query.platform);
  EXPECT_EQ(from_qs->query.access, from_json->query.access);
}

TEST(WireForm, DefaultsAreAnonymousWithNoBudget) {
  std::string error;
  const auto wr = parse_query_string("first=2022-01-01&last=2022-01-31",
                                     error);
  ASSERT_TRUE(wr.has_value()) << error;
  EXPECT_EQ(wr->tenant, "anonymous");
  EXPECT_DOUBLE_EQ(wr->budget_seconds, 0.0);  // "use the server default"
}

TEST(WireForm, MalformedInputsAreRejectedWithAReason) {
  std::string error;
  EXPECT_FALSE(parse_query_string("frist=2022-01-01", error));  // typo
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parse_query_string("first=01/02/2022", error));
  EXPECT_NE(error.find("bad date"), std::string::npos);
  EXPECT_FALSE(parse_query_string("metric=losss", error));
  EXPECT_NE(error.find("unknown metric"), std::string::npos);
  EXPECT_FALSE(parse_query_string("first", error));  // no '='
  EXPECT_FALSE(parse_query_string("budget_ms=-5", error));
  EXPECT_FALSE(parse_query_string("lo=abc", error));
  EXPECT_FALSE(parse_json_body("[1,2]", error));
  EXPECT_FALSE(parse_json_body(R"({"tenant":"x")", error));  // unterminated
  EXPECT_FALSE(parse_json_body(R"({"tenant":"x"} trailing)", error));
  EXPECT_TRUE(parse_json_body("{}", error).has_value());  // empty = defaults
}

TEST(WireForm, YearsADateCannotHoldAreRejected) {
  // 70000 fits an int but not Date's 16-bit year (it used to be answered
  // for year 4464); 99999999999 overflows int itself. Both are a reasoned
  // 400, never a wrapped window.
  std::string error;
  EXPECT_FALSE(parse_query_string("first=70000-01-01", error));
  EXPECT_NE(error.find("year out of range"), std::string::npos);
  EXPECT_FALSE(parse_query_string("last=99999999999-01-01", error));
  EXPECT_NE(error.find("year out of range"), std::string::npos);
  EXPECT_FALSE(parse_json_body(R"({"first":"70000-01-01"})", error));
  EXPECT_NE(error.find("year out of range"), std::string::npos);
  // The widest years Date holds still parse.
  const auto widest = parse_query_string(
      "first=-32768-01-01&last=32767-12-31", error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_EQ(widest->query.first, Date(Date::kMinYear, 1, 1));
  EXPECT_EQ(widest->query.last, Date(Date::kMaxYear, 12, 31));
  // A trailing byte or a missing field is still malformed, not a year.
  EXPECT_FALSE(parse_query_string("first=2022-01-01x", error));
  EXPECT_NE(error.find("bad date"), std::string::npos);
  EXPECT_FALSE(parse_query_string("first=2022-01", error));
  EXPECT_NE(error.find("bad date"), std::string::npos);
}

TEST(WireForm, QueryStringValuesArePercentDecoded) {
  std::string error;
  // A standard client URL-encodes: %20 and '+' both mean space, and the
  // date separator survives a gratuitous %2D encoding.
  const auto wr = parse_query_string(
      "tenant=team%20alpha&first=2022%2d01%2D01&last=2022-01-31", error);
  ASSERT_TRUE(wr.has_value()) << error;
  EXPECT_EQ(wr->tenant, "team alpha");
  EXPECT_EQ(wr->query.first, Date(2022, 1, 1));
  const auto plus = parse_query_string("tenant=a+b&first=2022-01-01"
                                       "&last=2022-01-31",
                                       error);
  ASSERT_TRUE(plus.has_value()) << error;
  EXPECT_EQ(plus->tenant, "a b");
  // Malformed escapes are a reasoned 400, not literal bytes.
  EXPECT_FALSE(parse_query_string("tenant=a%zz", error));
  EXPECT_NE(error.find("bad %-escape"), std::string::npos);
  EXPECT_FALSE(parse_query_string("tenant=a%2", error));
  EXPECT_NE(error.find("truncated %-escape"), std::string::npos);
}

// ---- Loopback client helpers -------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  // A stuck test should fail, not hang. 5 s sits above the chaos storm's
  // 2x deadline envelope (2.2 s), so an overrun is measured, not cut off.
  timeval tv{5, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  return fd;
}

void send_best_effort(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // the chaos paths don't care
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// One whole request/response exchange; empty string on connect failure.
std::string http_exchange(std::uint16_t port, const std::string& raw) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  send_best_effort(fd, raw);
  std::string response = read_to_eof(fd);
  ::close(fd);
  return response;
}

std::string get_request(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

std::string post_request(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int status_of(const std::string& response) {
  if (response.rfind("HTTP/1.1 ", 0) != 0 || response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

// ---- End-to-end over loopback ------------------------------------------

struct Frontend {
  Fixture fx;
  QueryScheduler sched;
  HttpListener listener;
  explicit Frontend(SchedulerConfig scfg = {}, HttpListenerConfig lcfg = {},
                    core::telemetry::TracerConfig trace = {})
      : fx{trace}, sched{fx.svc, scfg}, listener{sched, fx.svc, lcfg} {}
};

TEST(HttpListener, ServesAdmittedQueriesOverBothSpellings) {
  Frontend fe;
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();
  ASSERT_NE(port, 0);

  const std::string via_get = http_exchange(
      port, get_request("/query?" + std::string{kQueryString}));
  EXPECT_EQ(status_of(via_get), 200) << via_get;
  EXPECT_NE(via_get.find("\"outcome\":\"admitted\""), std::string::npos);
  EXPECT_NE(via_get.find("\"tenant\":\"dash\""), std::string::npos);
  EXPECT_NE(via_get.find("\"served_by\":"), std::string::npos);

  const std::string via_post =
      http_exchange(port, post_request("/query", std::string{kJsonBody}));
  EXPECT_EQ(status_of(via_post), 200) << via_post;
  // The second run of the identical query is a cache hit: the honesty
  // stamps ride the wire.
  EXPECT_NE(via_post.find("\"outcome\":\"admitted\""), std::string::npos);
  EXPECT_NE(via_post.find("\"served_by\":\"cache\""), std::string::npos);

  EXPECT_TRUE(fe.listener.stop());
  const HttpListenerStats stats = fe.listener.stats();
  EXPECT_EQ(stats.status_200, 2u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(HttpListener, MapsRoutesAndBadInputsToStatusCodes) {
  Frontend fe;
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();

  EXPECT_EQ(status_of(http_exchange(port, get_request("/nope"))), 404);
  const std::string bad =
      http_exchange(port, get_request("/query?metric=bogus"));
  EXPECT_EQ(status_of(bad), 400);
  EXPECT_NE(bad.find("unknown metric"), std::string::npos);
  // Parses fine but the query itself is invalid (reversed window): the
  // scheduler admits it, the service refuses it, the client gets a 400.
  const std::string reversed = http_exchange(
      port, get_request("/query?first=2022-03-01&last=2022-01-01"));
  EXPECT_EQ(status_of(reversed), 400);
  EXPECT_NE(reversed.find("invalid query"), std::string::npos);
  const std::string far_year = http_exchange(
      port, get_request("/query?first=70000-01-01&last=70000-12-31"));
  EXPECT_EQ(status_of(far_year), 400);
  EXPECT_NE(far_year.find("year out of range"), std::string::npos);
  const std::string huge_year =
      http_exchange(port, get_request("/query?first=99999999999-01-01"));
  EXPECT_EQ(status_of(huge_year), 400);
  EXPECT_NE(huge_year.find("year out of range"), std::string::npos);
  const std::string malformed = http_exchange(port, "garbage\r\n\r\n");
  EXPECT_EQ(status_of(malformed), 400);

  // The service stays measurable through its own boundary, streaming
  // front end included while one is attached.
  const StreamIngestor ingestor{fe.fx.svc};
  const std::string metrics = http_exchange(port, get_request("/metrics"));
  EXPECT_EQ(status_of(metrics), 200);
  EXPECT_NE(metrics.find("usaas_admission_submitted_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("usaas_stream_backpressure_total"),
            std::string::npos);
  const std::string metrics_json =
      http_exchange(port, get_request("/metrics.json"));
  EXPECT_EQ(status_of(metrics_json), 200);

  EXPECT_TRUE(fe.listener.stop());
  EXPECT_TRUE(fe.listener.stats().reconciles());
}

TEST(HttpListener, AdoptsAndEchoesXRequestIdIntoTraces) {
  Frontend fe;
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();

  const auto echoed = [](const std::string& response) -> std::string {
    const std::size_t pos = response.find("X-Request-Id: ");
    if (pos == std::string::npos || pos + 30 > response.size()) return {};
    return response.substr(pos + 14, 16);
  };
  const auto with_id = [](const std::string& id) {
    return "GET /query?" + std::string{kQueryString} +
           " HTTP/1.1\r\nHost: t\r\nX-Request-Id: " + id + "\r\n\r\n";
  };

  // Hex IDs parse verbatim: the caller can grep its own ID.
  const std::string hex = http_exchange(port, with_id("deadbeef"));
  EXPECT_EQ(status_of(hex), 200) << hex;
  EXPECT_EQ(echoed(hex), "00000000deadbeef");

  // Non-hex IDs hash to a stable 64-bit ID — same header, same echo.
  const std::string a = http_exchange(port, with_id("client-run-7"));
  const std::string b = http_exchange(port, with_id("client-run-7"));
  EXPECT_EQ(echoed(a).size(), 16u);
  EXPECT_NE(echoed(a), "0000000000000000");
  EXPECT_EQ(echoed(a), echoed(b));

  // No header: the scheduler mints one and the echo still rides back.
  const std::string minted =
      http_exchange(port, get_request("/query?" + std::string{kQueryString}));
  EXPECT_EQ(echoed(minted).size(), 16u);
  EXPECT_NE(echoed(minted), "0000000000000000");

  // The adopted ID is queryable at /debug/traces over the same wire.
  const std::string traces =
      http_exchange(port, get_request("/debug/traces"));
  EXPECT_EQ(status_of(traces), 200);
  EXPECT_NE(traces.find("\"trace_id\": \"00000000deadbeef\""),
            std::string::npos)
      << traces;

  EXPECT_TRUE(fe.listener.stop());
  EXPECT_TRUE(fe.listener.stats().reconciles());
}

TEST(HttpListener, HugeOrNegativeContentLengthIsARejectedReadNotAWrap) {
  HttpListenerConfig lcfg;
  lcfg.read_timeout = std::chrono::milliseconds{250};
  Frontend fe{{}, lcfg};
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();

  // A Content-Length crafted so that header_end + 4 + body_len wraps to
  // a small value used to truncate the buffer and build a SIZE_MAX view.
  // Now any length beyond max_request_bytes is rejected before any
  // arithmetic: the server drops the connection without a response.
  const auto attack = [&](const std::string& content_length) {
    const std::string raw = "POST /query HTTP/1.1\r\nHost: t\r\n"
                            "Content-Length: " + content_length +
                            "\r\n\r\n{}";
    return http_exchange(port, raw);
  };
  EXPECT_TRUE(attack("18446744073709551578").empty());  // ~2^64 - 38: wraps
  EXPECT_TRUE(attack("18446744073709551615").empty());  // 2^64 - 1
  EXPECT_TRUE(attack("99999999999999999999999").empty());  // > 2^64: ERANGE
  EXPECT_TRUE(attack("-1").empty());                    // strtoull would wrap
  EXPECT_TRUE(attack("1000000").empty());               // > max_request_bytes
  // Sanity: an honest request still round-trips on the same server.
  EXPECT_EQ(status_of(http_exchange(
                port, post_request("/query", std::string{kJsonBody}))),
            200);

  EXPECT_TRUE(fe.listener.stop());
  const HttpListenerStats stats = fe.listener.stats();
  EXPECT_EQ(stats.read_failures, 5u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(HttpListener, ClientControlledStringsAreJsonEscapedInResponses) {
  Frontend fe;
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();

  // A tenant with an embedded quote (sent percent-encoded) must come
  // back escaped, keeping the response body valid JSON.
  const std::string ok = http_exchange(
      port, get_request("/query?tenant=a%22b&first=2022-01-01"
                        "&last=2022-03-31&bins=4"));
  EXPECT_EQ(status_of(ok), 200) << ok;
  EXPECT_NE(ok.find("\"tenant\":\"a\\\"b\""), std::string::npos) << ok;

  // Parser error text echoes the request: the quote inside the unknown
  // key ("oo\"ps") must be escaped in the error body.
  const std::string bad =
      http_exchange(port, get_request("/query?oo%22ps=1"));
  EXPECT_EQ(status_of(bad), 400) << bad;
  EXPECT_NE(bad.find("unknown key: oo\\\"ps"), std::string::npos) << bad;

  EXPECT_TRUE(fe.listener.stop());
  EXPECT_TRUE(fe.listener.stats().reconciles());
}

TEST(HttpListener, ShedsWith429AndRetryAfterWhenSaturated) {
  SchedulerConfig scfg;
  scfg.default_qos = {0.5, 1.0};  // one token, trickling refill
  scfg.max_wait_seconds = 0.0;    // no patience: saturate immediately
  Frontend fe{scfg};
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();

  const std::string first = http_exchange(
      port, get_request("/query?first=2022-01-01&last=2022-03-31&bins=4"));
  EXPECT_EQ(status_of(first), 200) << first;
  // Different window, nothing cached, bucket empty: shed with a hint.
  const std::string second = http_exchange(
      port, get_request("/query?first=2022-01-01&last=2022-02-28&bins=4"));
  EXPECT_EQ(status_of(second), 429) << second;
  EXPECT_NE(second.find("Retry-After: "), std::string::npos);
  EXPECT_NE(second.find("\"outcome\":\"shed\""), std::string::npos);

  EXPECT_TRUE(fe.listener.stop());
  const HttpListenerStats stats = fe.listener.stats();
  EXPECT_EQ(stats.status_429, 1u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(HttpListener, ExpiredBudgetsAnswer504) {
  Frontend fe;
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();
  // A tenth of a microsecond of patience: gone before (or just after)
  // admission either way — the wire answer is an explicit 504, never a
  // hang and never a torn payload.
  const std::string expired = http_exchange(
      port, get_request(
                "/query?first=2022-01-15&last=2022-03-20&budget_ms=0.0001"));
  EXPECT_EQ(status_of(expired), 504) << expired;
  EXPECT_NE(expired.find("\"outcome\":\"expired\""), std::string::npos);
  EXPECT_TRUE(fe.listener.stop());
  const HttpListenerStats stats = fe.listener.stats();
  EXPECT_EQ(stats.status_504, 1u);
  EXPECT_TRUE(stats.reconciles());
  EXPECT_EQ(fe.sched.stats().expired, 1u);
}

// ---- The chaos storm (TSan/ASan workload) ------------------------------

TEST(HttpListenerChaos, FaultStormReconcilesExactlyAndShutsDownCleanly) {
  SchedulerConfig scfg;
  scfg.default_qos = {50.0, 20.0};
  scfg.max_wait_seconds = 0.01;  // saturation sheds fast under the storm
  HttpListenerConfig lcfg;
  lcfg.worker_threads = 3;
  lcfg.max_pending_connections = 8;  // small: the 503 path gets traffic
  lcfg.read_timeout = std::chrono::milliseconds{250};
  lcfg.write_timeout = std::chrono::milliseconds{250};
  lcfg.default_budget_seconds = 0.2;

  core::FaultInjector::Config fcfg;
  fcfg.seed = 42;
  fcfg.accept_failure_p = 0.1;
  fcfg.slow_read_p = 0.1;
  fcfg.slow_read_delay = std::chrono::milliseconds{400};  // > read_timeout
  fcfg.partial_request_p = 0.1;
  fcfg.disconnect_p = 0.1;
  core::FaultInjector fault{fcfg};
  lcfg.fault = &fault;

  // sampling=all with headroom: every submission's trace must survive the
  // storm, so none may be sampled away or overwritten.
  core::telemetry::TracerConfig trace;
  trace.sampling = core::telemetry::TraceSampling::kAll;
  trace.tail_entries = 1024;

  Frontend fe{scfg, lcfg, trace};
  ASSERT_TRUE(fe.listener.start());
  const std::uint16_t port = fe.listener.port();

  // A request that reaches the server is owed an answer within its budget
  // plus the socket timeouts; the client's own injected stall rides on
  // top. An exchange past 2x that envelope outlived its deadline: the
  // wedged-worker smell.
  const double envelope_seconds =
      lcfg.default_budget_seconds +
      std::chrono::duration<double>(lcfg.read_timeout).count() +
      std::chrono::duration<double>(lcfg.write_timeout).count() +
      std::chrono::duration<double>(fcfg.slow_read_delay).count();

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<double> worst_ratio(kClients, 0.0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string tenant = "storm-" + std::to_string(c % 2);
        std::string raw;
        if (i % 7 == 0) {
          raw = get_request("/query?oops=1");  // a guaranteed 400
        } else if (i % 3 == 0) {
          raw = post_request(
              "/query", "{\"tenant\":\"" + tenant +
                            "\",\"first\":\"2022-01-15\",\"last\":"
                            "\"2022-03-20\",\"bins\":4,\"budget_ms\":50}");
        } else {
          raw = get_request("/query?tenant=" + tenant +
                            "&first=2022-01-01&last=2022-03-31&bins=4");
        }
        // Client-side socket faults, drawn from the shared injector.
        const auto stall = fault.slow_read_stall();
        const bool truncate = fault.truncate_this_request();
        const bool disconnect = fault.disconnect_before_response();
        const auto t0 = std::chrono::steady_clock::now();
        const int fd = connect_loopback(port);
        if (fd < 0) continue;
        const std::string_view head =
            std::string_view{raw}.substr(0, raw.size() / 2);
        if (truncate) {
          // Half a request, then silence: the server's read deadline
          // must end this connection, not a worker's patience.
          send_best_effort(fd, head);
        } else {
          if (stall.count() > 0) {
            send_best_effort(fd, head);
            std::this_thread::sleep_for(stall);
            send_best_effort(fd, std::string_view{raw}.substr(head.size()));
          } else {
            send_best_effort(fd, raw);
          }
          // A disconnecting peer vanishes before reading the response.
          const std::string response = disconnect ? "" : read_to_eof(fd);
          if (!response.empty()) {
            // Whatever came back is a complete, well-formed status line.
            const int status = status_of(response);
            EXPECT_TRUE(status == 200 || status == 400 || status == 429 ||
                        status == 503 || status == 504)
                << response.substr(0, 64);
          }
        }
        ::close(fd);
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        double& worst = worst_ratio[static_cast<std::size_t>(c)];
        worst = std::max(worst, elapsed / envelope_seconds);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const double max_ratio =
      *std::max_element(worst_ratio.begin(), worst_ratio.end());
  RecordProperty("max_deadline_ratio", std::to_string(max_ratio));
  EXPECT_LE(max_ratio, 2.0) << "an exchange outlived 2x its deadline "
                               "envelope of "
                            << envelope_seconds << " s";

  // The no-wedged-worker gate: every thread exits within the timeout.
  EXPECT_TRUE(fe.listener.stop(std::chrono::seconds{5}));

  const HttpListenerStats ls = fe.listener.stats();
  EXPECT_TRUE(ls.reconciles())
      << "accepted=" << ls.accepted << " accept_failures="
      << ls.accept_failures << " saturated=" << ls.saturated
      << " drained=" << ls.drained
      << " handled=" << ls.handled << " read_failures=" << ls.read_failures
      << " responses=" << ls.responses_sent
      << " write_failures=" << ls.write_failures;
  EXPECT_EQ(ls.accept_failures, fault.accept_failures_injected());
  EXPECT_GT(ls.responses_sent, 0u);

  // The admission ledger survived the storm exactly.
  const SchedulerStats ss = fe.sched.stats();
  EXPECT_TRUE(ss.reconciles())
      << "submitted=" << ss.submitted << " admitted=" << ss.admitted
      << " degraded=" << ss.degraded << " shed=" << ss.shed
      << " expired=" << ss.expired;
  for (const auto& [tenant, snap] : ss.tenants) {
    EXPECT_EQ(snap.queue_depth, 0u) << tenant;
  }

  // The trace ledger: under sampling=all every submission the scheduler
  // counted, whichever outcome the storm forced, has exactly one retained
  // trace with the matching outcome.
  const std::vector<core::telemetry::TraceRecord> traces =
      fe.fx.svc.tracer().snapshot();
  EXPECT_EQ(fe.fx.svc.tracer().recorded(), ss.submitted);
  EXPECT_EQ(traces.size(), ss.submitted);
  std::set<std::uint64_t> ids;
  std::uint64_t by_outcome[4] = {0, 0, 0, 0};
  for (const core::telemetry::TraceRecord& rec : traces) {
    EXPECT_TRUE(ids.insert(rec.trace_id).second) << rec.trace_id;
    ASSERT_LT(rec.outcome, 4u);
    ++by_outcome[rec.outcome];
  }
  using core::telemetry::TraceOutcome;
  EXPECT_EQ(by_outcome[static_cast<int>(TraceOutcome::kAdmitted)],
            ss.admitted);
  EXPECT_EQ(by_outcome[static_cast<int>(TraceOutcome::kDegraded)],
            ss.degraded);
  EXPECT_EQ(by_outcome[static_cast<int>(TraceOutcome::kShed)], ss.shed);
  EXPECT_EQ(by_outcome[static_cast<int>(TraceOutcome::kExpired)], ss.expired);
}

}  // namespace
}  // namespace usaas::service
