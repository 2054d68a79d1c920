#include "usaas/http_listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/date.h"
#include "core/telemetry/debug_exposition.h"

namespace usaas::service {

namespace {

/// Matches `value` against to_string() over an enum's value range;
/// nullopt when nothing matches. Keeps the wire names and the telemetry
/// label names the same strings by construction.
template <typename Enum>
[[nodiscard]] std::optional<Enum> parse_enum(std::string_view value,
                                             int count) {
  for (int i = 0; i < count; ++i) {
    const Enum e = static_cast<Enum>(i);
    if (value == to_string(e)) return e;
  }
  return std::nullopt;
}

/// Reads one signed decimal field at `p` and steps past it. False on no
/// digits or on overflow, which std::from_chars reports instead of
/// wrapping.
[[nodiscard]] bool read_date_field(const char*& p, const char* end,
                                   long long& out) {
  const auto [next, ec] = std::from_chars(p, end, out);
  if (ec != std::errc{}) return false;
  p = next;
  return true;
}

[[nodiscard]] bool parse_date(const std::string& value, core::Date& out,
                              std::string& error) {
  const char* p = value.data();
  const char* const end = p + value.size();
  const auto dash = [&] { return p != end && *p++ == '-'; };
  long long y = 0;
  long long m = 0;
  long long d = 0;
  if (!read_date_field(p, end, y) || !dash() || !read_date_field(p, end, m) ||
      !dash() || !read_date_field(p, end, d) || p != end || m < 1 ||
      m > 12 || d < 1) {
    error = "bad date (want YYYY-MM-DD): " + value;
    return false;
  }
  if (y < core::Date::kMinYear || y > core::Date::kMaxYear) {
    error = "date year out of range [" + std::to_string(core::Date::kMinYear) +
            ", " + std::to_string(core::Date::kMaxYear) + "]: " + value;
    return false;
  }
  const int year = static_cast<int>(y);
  const int month = static_cast<int>(m);
  if (d > core::Date::days_in_month(year, month)) {
    error = "bad date (want YYYY-MM-DD): " + value;
    return false;
  }
  out = core::Date{year, month, static_cast<int>(d)};
  return true;
}

[[nodiscard]] bool parse_double(const std::string& value, double& out,
                                std::string& error) {
  char* end = nullptr;
  out = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(out)) {
    error = "bad number: " + value;
    return false;
  }
  return true;
}

/// One key=value of either wire spelling, applied to the WireRequest.
/// Strict: unknown keys are an error, so a client typo'ing "buget_ms"
/// gets a 400 instead of a silently unbounded wait.
[[nodiscard]] bool apply_field(WireRequest& wr, std::string_view key,
                               const std::string& value,
                               std::string& error) {
  if (key == "tenant") {
    if (value.empty()) {
      error = "tenant must be non-empty";
      return false;
    }
    // Tenant names become telemetry label values and journal keys:
    // reject control bytes / non-ASCII / oversized names at the boundary
    // (a 400 beats a sanitized-but-colliding metric series).
    if (value.size() > core::telemetry::kMaxLabelValueBytes) {
      error = "tenant too long (max " +
              std::to_string(core::telemetry::kMaxLabelValueBytes) +
              " bytes)";
      return false;
    }
    for (const char c : value) {
      const auto u = static_cast<unsigned char>(c);
      if (u < 0x20 || u > 0x7e) {
        error = "tenant must be printable ASCII";
        return false;
      }
    }
    wr.tenant = value;
    return true;
  }
  if (key == "first") return parse_date(value, wr.query.first, error);
  if (key == "last") return parse_date(value, wr.query.last, error);
  if (key == "metric") {
    if (const auto m = parse_enum<netsim::Metric>(value, 4)) {
      wr.query.metric = *m;
      return true;
    }
    error = "unknown metric: " + value;
    return false;
  }
  if (key == "platform") {
    if (const auto p =
            parse_enum<confsim::Platform>(value, confsim::kNumPlatforms)) {
      wr.query.platform = *p;
      return true;
    }
    error = "unknown platform: " + value;
    return false;
  }
  if (key == "access") {
    if (const auto a = parse_enum<netsim::AccessTechnology>(
            value, netsim::kNumAccessTechnologies)) {
      wr.query.access = *a;
      return true;
    }
    error = "unknown access technology: " + value;
    return false;
  }
  if (key == "lo") return parse_double(value, wr.query.metric_lo, error);
  if (key == "hi") return parse_double(value, wr.query.metric_hi, error);
  if (key == "bins") {
    char* end = nullptr;
    const unsigned long bins = std::strtoul(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      error = "bad bins: " + value;
      return false;
    }
    wr.query.bins = static_cast<std::size_t>(bins);
    return true;
  }
  if (key == "budget_ms") {
    double ms = 0.0;
    if (!parse_double(value, ms, error)) return false;
    if (ms <= 0.0) {
      error = "budget_ms must be positive";
      return false;
    }
    wr.budget_seconds = ms / 1000.0;
    return true;
  }
  error = "unknown key: " + std::string{key};
  return false;
}

/// Escapes `"`, `\` and control bytes so client-controlled strings
/// (tenant names, parser error text echoing the request) cannot break
/// the JSON framing of a response body.
[[nodiscard]] std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Decodes %xx escapes and '+' (the form spelling of space) in one
/// query-string token. False (with a reason) on a malformed escape.
[[nodiscard]] bool url_decode(std::string_view in, std::string& out,
                              std::string& error) {
  const auto hex = [](char h) -> int {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  };
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%') {
      if (i + 2 >= in.size()) {
        error = "truncated %-escape in: " + std::string{in};
        return false;
      }
      const int hi = hex(in[i + 1]);
      const int lo = hex(in[i + 2]);
      if (hi < 0 || lo < 0) {
        error = "bad %-escape in: " + std::string{in};
        return false;
      }
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return true;
}

[[nodiscard]] std::string_view skip_ws(std::string_view s) {
  while (!s.empty() &&
         (s.front() == ' ' || s.front() == '\t' || s.front() == '\n' ||
          s.front() == '\r')) {
    s.remove_prefix(1);
  }
  return s;
}

constexpr const char* kStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
  }
  return "Unknown";
}

[[nodiscard]] std::string build_response(int status,
                                         std::string_view content_type,
                                         std::string_view body,
                                         int retry_after_seconds = 0,
                                         std::string_view extra_header = {}) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    kStatusText(status) + "\r\n";
  out += "Content-Type: " + std::string{content_type} + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (retry_after_seconds > 0) {
    out += "Retry-After: " + std::to_string(retry_after_seconds) + "\r\n";
  }
  if (!extra_header.empty()) {
    out += extra_header;
    out += "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

/// Adopts the client's X-Request-Id as this request's trace ID: 1-16 hex
/// digits parse verbatim (so a caller can grep its own ID in
/// /debug/traces), anything else non-empty is FNV-1a-hashed to a stable
/// 64-bit ID. 0 = header absent/empty; the scheduler mints one.
[[nodiscard]] std::uint64_t extract_request_id(std::string_view raw) {
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return 0;
  const std::string_view headers = raw.substr(0, header_end);
  constexpr std::string_view kName = "x-request-id:";
  std::size_t line = headers.find("\r\n");
  std::string_view value;
  while (line != std::string_view::npos && line + 2 < headers.size()) {
    const std::size_t start = line + 2;
    const std::size_t end = headers.find("\r\n", start);
    const std::string_view hl = headers.substr(
        start,
        end == std::string_view::npos ? headers.size() - start : end - start);
    if (hl.size() > kName.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kName.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(hl[i])) != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        value = hl.substr(kName.size());
        break;
      }
    }
    line = end;
  }
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
    value.remove_suffix(1);
  }
  if (value.empty()) return 0;
  if (value.size() <= 16) {
    std::uint64_t id = 0;
    bool all_hex = true;
    for (const char c : value) {
      int digit = -1;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else { all_hex = false; break; }
      id = (id << 4) | static_cast<std::uint64_t>(digit);
    }
    if (all_hex && id != 0) return id;
  }
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : value) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

/// Renders the /query answer. Deliberately flat and small: the tenant's
/// dashboard wants the aggregates and the honesty stamps (staleness,
/// served_by, wait), not the full curve payload — that stays in-process.
[[nodiscard]] std::string insight_json(const ScheduledResult& result,
                                       const std::string& tenant) {
  char buf[512];
  std::string out = "{";
  const auto add = [&out](const std::string& piece) {
    if (out.size() > 1) out += ',';
    out += piece;
  };
  add("\"outcome\":\"" + std::string{to_string(result.outcome)} + "\"");
  add("\"tenant\":\"" + json_escape(tenant) + "\"");
  const Insight& in = result.insight;
  std::snprintf(buf, sizeof buf,
                "\"staleness\":%llu,\"corpus_version\":%llu,"
                "\"sessions\":%zu,\"rated_sessions\":%zu,\"posts\":%zu",
                static_cast<unsigned long long>(in.staleness),
                static_cast<unsigned long long>(in.corpus_version),
                in.sessions, in.rated_sessions, in.posts);
  add(buf);
  std::snprintf(buf, sizeof buf, "\"strong_positive_share\":%.6g",
                in.strong_positive_share);
  add(buf);
  if (in.predicted_mean_mos) {
    std::snprintf(buf, sizeof buf, "\"predicted_mean_mos\":%.6g",
                  *in.predicted_mean_mos);
    add(buf);
  }
  if (in.observed_mean_mos) {
    std::snprintf(buf, sizeof buf, "\"observed_mean_mos\":%.6g",
                  *in.observed_mean_mos);
    add(buf);
  }
  add("\"served_by\":\"" + std::string{to_string(in.execution.served_by)} +
      "\"");
  std::snprintf(buf, sizeof buf, "\"wait_ms\":%.6g,\"cost_tokens\":%.6g",
                result.wait_seconds * 1e3, result.cost_tokens);
  add(buf);
  if (result.trace_id != 0) {
    std::snprintf(buf, sizeof buf, "\"trace_id\":\"%016llx\"",
                  static_cast<unsigned long long>(result.trace_id));
    add(buf);
  }
  out += '}';
  return out;
}

void set_socket_timeout(int fd, int option, std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
  (void)setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

}  // namespace

std::optional<WireRequest> parse_query_string(std::string_view qs,
                                              std::string& error) {
  WireRequest wr;
  std::size_t pos = 0;
  while (pos < qs.size()) {
    const std::size_t amp = qs.find('&', pos);
    const std::string_view item = qs.substr(
        pos, amp == std::string_view::npos ? qs.size() - pos : amp - pos);
    pos = amp == std::string_view::npos ? qs.size() : amp + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      error = "missing '=' in: " + std::string{item};
      return std::nullopt;
    }
    // Standard clients URL-encode (tenant=a%20b, '+' for space): decode
    // both halves so the GET spelling accepts the same strings as the
    // JSON POST spelling.
    std::string key;
    std::string value;
    if (!url_decode(item.substr(0, eq), key, error) ||
        !url_decode(item.substr(eq + 1), value, error)) {
      return std::nullopt;
    }
    if (!apply_field(wr, key, value, error)) {
      return std::nullopt;
    }
  }
  return wr;
}

std::optional<WireRequest> parse_json_body(std::string_view body,
                                           std::string& error) {
  WireRequest wr;
  std::string_view s = skip_ws(body);
  if (s.empty() || s.front() != '{') {
    error = "body is not a JSON object";
    return std::nullopt;
  }
  s.remove_prefix(1);
  s = skip_ws(s);
  if (!s.empty() && s.front() == '}') s.remove_prefix(1);  // empty object
  else {
    for (;;) {
      s = skip_ws(s);
      if (s.empty() || s.front() != '"') {
        error = "expected a quoted key";
        return std::nullopt;
      }
      s.remove_prefix(1);
      const std::size_t key_end = s.find('"');
      if (key_end == std::string_view::npos) {
        error = "unterminated key";
        return std::nullopt;
      }
      const std::string_view key = s.substr(0, key_end);
      s.remove_prefix(key_end + 1);
      s = skip_ws(s);
      if (s.empty() || s.front() != ':') {
        error = "expected ':' after key";
        return std::nullopt;
      }
      s.remove_prefix(1);
      s = skip_ws(s);
      std::string value;
      if (!s.empty() && s.front() == '"') {
        s.remove_prefix(1);
        const std::size_t val_end = s.find('"');
        if (val_end == std::string_view::npos) {
          error = "unterminated string value";
          return std::nullopt;
        }
        value = std::string{s.substr(0, val_end)};
        s.remove_prefix(val_end + 1);
      } else {
        std::size_t val_end = 0;
        while (val_end < s.size() && s[val_end] != ',' &&
               s[val_end] != '}' && s[val_end] != ' ' &&
               s[val_end] != '\t' && s[val_end] != '\n' &&
               s[val_end] != '\r') {
          ++val_end;
        }
        if (val_end == 0) {
          error = "empty value";
          return std::nullopt;
        }
        value = std::string{s.substr(0, val_end)};
        s.remove_prefix(val_end);
      }
      if (!apply_field(wr, key, value, error)) return std::nullopt;
      s = skip_ws(s);
      if (!s.empty() && s.front() == ',') {
        s.remove_prefix(1);
        continue;
      }
      if (!s.empty() && s.front() == '}') {
        s.remove_prefix(1);
        break;
      }
      error = "expected ',' or '}'";
      return std::nullopt;
    }
  }
  if (!skip_ws(s).empty()) {
    error = "trailing garbage after the object";
    return std::nullopt;
  }
  return wr;
}

HttpListener::HttpListener(QueryScheduler& scheduler, QueryService& service,
                           HttpListenerConfig config)
    : scheduler_{scheduler}, service_{service}, config_{std::move(config)} {}

HttpListener::~HttpListener() { stop(); }

bool HttpListener::start() {
  if (running_.load()) return true;
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return false;
  const int one = 1;
  (void)::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
          1 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(lfd, 128) < 0) {
    ::close(lfd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_.store(lfd, std::memory_order_release);
  running_.store(true);
  threads_exited_.store(0);
  acceptor_ = std::thread{[this] { accept_loop(); }};
  workers_.reserve(std::max<std::size_t>(1, config_.worker_threads));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.worker_threads);
       ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

bool HttpListener::stop(std::chrono::milliseconds timeout) {
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd < 0 && workers_.empty()) return true;
  const auto t0 = std::chrono::steady_clock::now();
  running_.store(false);
  if (lfd >= 0) {
    // shutdown() kicks the acceptor out of a blocking accept(); the fd
    // is closed only after the threads are down, so the acceptor can
    // never race a reused descriptor.
    (void)::shutdown(lfd, SHUT_RDWR);
  }
  queue_cv_.notify_all();

  // The no-wedged-worker gate: every thread must reach its exit marker
  // within the timeout. Workers drain the pending queue before exiting
  // (each drained connection is handled normally, bounded by the read
  // timeout), so a clean shutdown leaves the ledger reconciling.
  const std::size_t total = workers_.size() + (acceptor_.joinable() ? 1 : 0);
  const auto deadline = t0 + timeout;
  bool clean = true;
  while (threads_exited_.load(std::memory_order_acquire) < total) {
    if (std::chrono::steady_clock::now() >= deadline) {
      clean = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
    queue_cv_.notify_all();
  }
  if (clean) {
    if (acceptor_.joinable()) acceptor_.join();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
  } else {
    // A wedged thread: detach rather than hang the caller forever. The
    // harness treats a false return as a hard failure.
    if (acceptor_.joinable()) acceptor_.detach();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.detach();
    }
  }
  workers_.clear();
  if (lfd >= 0) (void)::close(lfd);
  {
    const std::lock_guard<std::mutex> lock{mu_};
    // Clean shutdowns leave nothing here (workers drain before exiting,
    // and the acceptor stops enqueueing once running_ is false); on an
    // unclean one, count the leftovers so the ledger still reconciles.
    for (const int fd : pending_) {
      ::close(fd);
      ++stats_.drained;
    }
    pending_.clear();
    stats_.shutdown_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return clean;
}

void HttpListener::accept_loop() {
  // The fd is fixed for the acceptor's whole lifetime; stop() retires
  // the member and shuts the socket down, which is what breaks accept().
  const int lfd = listen_fd_.load(std::memory_order_acquire);
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket gone
    }
    if (config_.fault != nullptr && config_.fault->fail_this_accept()) {
      // Injected transient accept failure: the connection existed just
      // long enough to be counted, then vanished — exactly what a
      // flaky accept() looks like to the peer.
      ::close(fd);
      const std::lock_guard<std::mutex> lock{mu_};
      ++stats_.accepted;
      ++stats_.accept_failures;
      continue;
    }
    bool saturated = false;
    bool drained = false;
    {
      const std::lock_guard<std::mutex> lock{mu_};
      ++stats_.accepted;
      if (!running_.load(std::memory_order_acquire)) {
        // stop() already flipped running_: the workers may have seen an
        // empty queue and exited, so enqueueing now could strand the fd
        // forever. Close it unanswered and account it as drained so the
        // ledger still reconciles exactly.
        ++stats_.drained;
        drained = true;
      } else if (pending_.size() >= config_.max_pending_connections) {
        ++stats_.saturated;
        saturated = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (drained) {
      ::close(fd);
      continue;
    }
    if (saturated) {
      // A backpressure episode is journal-worthy: operators replaying an
      // incident want "when did the queue fill" next to the breaker
      // flips it usually causes. No tenant is known at accept time.
      if (service_.journal().enabled()) {
        service_.journal().record(
            core::telemetry::JournalEventKind::kBackpressure, "", 0,
            scheduler_.clock().now(),
            static_cast<double>(config_.max_pending_connections),
            static_cast<double>(config_.max_pending_connections));
      }
      // Inline 503: honest and cheap. Don't let a stalled peer wedge
      // the acceptor — arm the write timeout first.
      set_socket_timeout(fd, SO_SNDTIMEO, config_.write_timeout);
      const std::string resp = build_response(
          503, "application/json",
          "{\"error\":\"saturated: request queue is full\"}", 1);
      (void)write_all(fd, resp);
      ::close(fd);
      continue;
    }
    queue_cv_.notify_one();
  }
  threads_exited_.fetch_add(1, std::memory_order_release);
}

void HttpListener::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock{mu_};
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || !running_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) break;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
      ++stats_.handled;
    }
    handle_connection(fd);
  }
  threads_exited_.fetch_add(1, std::memory_order_release);
}

bool HttpListener::read_request(int fd, std::string& raw) {
  const auto deadline =
      std::chrono::steady_clock::now() + config_.read_timeout;
  std::size_t header_end = std::string::npos;
  std::size_t needed = std::string::npos;
  char buf[4096];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    // The OVERALL deadline is what defeats slow-loris: a peer trickling
    // one byte per recv never resets it.
    if (remaining.count() <= 0) return false;
    set_socket_timeout(fd, SO_RCVTIMEO, remaining);
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return false;  // EOF before a complete request (partial)
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // timeout or error
    }
    raw.append(buf, static_cast<std::size_t>(n));
    if (raw.size() > config_.max_request_bytes) return false;
    if (header_end == std::string::npos) {
      header_end = raw.find("\r\n\r\n");
      if (header_end == std::string::npos) continue;
      std::size_t body_len = 0;
      // Case-insensitive Content-Length scan over the header block.
      std::string lower = raw.substr(0, header_end);
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      const std::size_t cl = lower.find("content-length:");
      if (cl != std::string::npos) {
        const char* p = lower.c_str() + cl + 15;
        while (*p == ' ' || *p == '\t') ++p;
        // Digits only: strtoull would happily wrap "-1" to 2^64-1.
        if (*p < '0' || *p > '9') return false;
        errno = 0;
        const unsigned long long v = std::strtoull(p, nullptr, 10);
        // Bound the length BEFORE any arithmetic: with both terms below
        // capped at max_request_bytes, `needed` cannot wrap, so a crafted
        // huge Content-Length can never truncate the request buffer.
        if (errno == ERANGE || v > config_.max_request_bytes) return false;
        body_len = static_cast<std::size_t>(v);
      }
      needed = header_end + 4 + body_len;
      if (needed > config_.max_request_bytes) return false;
    }
    if (needed != std::string::npos && raw.size() >= needed) {
      raw.resize(needed);
      return true;
    }
  }
}

bool HttpListener::write_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer vanished (EPIPE/ECONNRESET) or send timeout
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void HttpListener::bump_status_locked(int status) {
  switch (status) {
    case 200: ++stats_.status_200; break;
    case 400: ++stats_.status_400; break;
    case 404: ++stats_.status_404; break;
    case 429: ++stats_.status_429; break;
    case 504: ++stats_.status_504; break;
    default: break;
  }
}

void HttpListener::handle_connection(int fd) {
  set_socket_timeout(fd, SO_SNDTIMEO, config_.write_timeout);
  std::string raw;
  if (!read_request(fd, raw)) {
    ::close(fd);
    const std::lock_guard<std::mutex> lock{mu_};
    ++stats_.read_failures;
    return;
  }

  // Request line: METHOD SP TARGET SP VERSION. read_request() only
  // returns true once "\r\n\r\n" is buffered, but never build a view
  // from npos — an empty line falls through to the 400 below.
  const std::size_t line_end = raw.find("\r\n");
  const std::string_view line =
      line_end == std::string::npos
          ? std::string_view{}
          : std::string_view{raw.data(), line_end};
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  std::string response;
  int status = 400;
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    response = build_response(400, "application/json",
                              "{\"error\":\"malformed request line\"}");
  } else {
    const std::string_view method = line.substr(0, sp1);
    const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t qmark = target.find('?');
    const std::string_view path = target.substr(0, qmark);
    const std::string_view query_string =
        qmark == std::string_view::npos ? std::string_view{}
                                        : target.substr(qmark + 1);
    // Fixed-interval telemetry history rides on request traffic: the
    // due-check is one relaxed atomic load, and a disabled history
    // performs no clock read at all.
    if (service_.history().enabled()) {
      service_.tick_history(scheduler_.clock().now());
    }
    if (path == "/metrics") {
      status = 200;
      response = build_response(200, "text/plain; version=0.0.4",
                                service_.metrics_text());
    } else if (path == "/metrics.json") {
      status = 200;
      response = build_response(200, "application/json",
                                service_.metrics_json());
    } else if (path == "/debug/traces") {
      status = 200;
      response = build_response(
          200, "application/json",
          core::telemetry::debug_traces_json(service_.tracer()));
    } else if (path == "/debug/events") {
      status = 200;
      response = build_response(
          200, "application/json",
          core::telemetry::debug_events_json(service_.journal()));
    } else if (path == "/debug/timeseries") {
      status = 200;
      response = build_response(
          200, "application/json",
          core::telemetry::debug_timeseries_json(service_.history()));
    } else if (path == "/query") {
      std::string error;
      std::optional<WireRequest> wire;
      if (method == "POST") {
        const std::size_t header_end = raw.find("\r\n\r\n");
        wire = parse_json_body(
            std::string_view{raw}.substr(header_end + 4), error);
      } else {
        wire = parse_query_string(query_string, error);
      }
      if (!wire) {
        status = 400;
        response = build_response(
            400, "application/json",
            "{\"error\":\"" + json_escape(error) + "\"}");
      } else {
        const double budget = wire->budget_seconds > 0.0
                                  ? wire->budget_seconds
                                  : config_.default_budget_seconds;
        // Adopt the caller's X-Request-Id as the trace ID (0 = absent:
        // the scheduler mints one). Gated on the tracer so the kill
        // switch also skips the header scan.
        const std::uint64_t wire_trace_id =
            service_.tracer().enabled() ? extract_request_id(raw) : 0;
        const ScheduledResult result = scheduler_.submit(
            wire->tenant, wire->query, budget, wire_trace_id);
        // Echo the request's trace ID so clients can correlate their
        // logs with /debug/traces without parsing the body.
        std::string trace_header;
        if (result.trace_id != 0) {
          char hex[40];
          std::snprintf(hex, sizeof hex, "X-Request-Id: %016llx",
                        static_cast<unsigned long long>(result.trace_id));
          trace_header = hex;
        }
        if ((result.outcome == AdmissionOutcome::kAdmitted ||
             result.outcome == AdmissionOutcome::kDegraded) &&
            result.insight.error != QueryError::kNone) {
          // The scheduler admitted it but the query itself was invalid
          // (reversed window, empty range, ...): the client's fault.
          status = 400;
          response = build_response(
              400, "application/json",
              std::string{"{\"error\":\"invalid query: "} +
                  to_string(result.insight.error) + "\"}",
              0, trace_header);
        } else {
          switch (result.outcome) {
            case AdmissionOutcome::kAdmitted:
            case AdmissionOutcome::kDegraded:
              status = 200;
              response = build_response(200, "application/json",
                                        insight_json(result, wire->tenant),
                                        0, trace_header);
              break;
            case AdmissionOutcome::kShed: {
              status = 429;
              // Retry-After is integral seconds; round up, floor at 1 —
              // "come back immediately" defeats the point of shedding.
              const int retry = std::max(
                  1, static_cast<int>(
                         std::ceil(result.retry_after_seconds)));
              response = build_response(
                  429, "application/json",
                  insight_json(result, wire->tenant), retry, trace_header);
              break;
            }
            case AdmissionOutcome::kExpired:
              status = 504;
              response = build_response(504, "application/json",
                                        insight_json(result, wire->tenant),
                                        0, trace_header);
              break;
          }
        }
      }
    } else {
      status = 404;
      response = build_response(404, "application/json",
                                "{\"error\":\"no such route\"}");
    }
  }

  const bool ok = write_all(fd, response);
  ::close(fd);
  const std::lock_guard<std::mutex> lock{mu_};
  if (ok) {
    ++stats_.responses_sent;
    bump_status_locked(status);
  } else {
    ++stats_.write_failures;
  }
}

HttpListenerStats HttpListener::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return stats_;
}

}  // namespace usaas::service
