#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "netsim/conditions.h"
#include "netsim/profiles.h"

namespace usaasbench {

using usaas::confsim::CallRecord;
using usaas::confsim::ParticipantRecord;
using usaas::confsim::Platform;
using usaas::core::Date;
using usaas::core::Rng;
using usaas::netsim::AccessTechnology;
using usaas::netsim::Metric;
using usaas::service::Query;
using usaas::social::Post;

namespace {

const Date kYearStart{2022, 1, 1};

constexpr Platform kPlatforms[] = {Platform::kWindowsPc, Platform::kMacPc,
                                   Platform::kIos, Platform::kAndroid};
constexpr double kPlatformWeights[] = {0.50, 0.22, 0.12, 0.16};
constexpr AccessTechnology kAccess[] = {
    AccessTechnology::kFiber,         AccessTechnology::kCable,
    AccessTechnology::kDsl,           AccessTechnology::kWifiCongested,
    AccessTechnology::kLte,           AccessTechnology::kGeoSatellite,
    AccessTechnology::kLeoSatellite};
constexpr double kAccessWeights[] = {0.24, 0.34, 0.12, 0.10,
                                     0.10, 0.02, 0.08};

std::string date_string(const Date& d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", d.year(), d.month(),
                d.day());
  return buf;
}

std::string number_string(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int day_of_2022(const Date& d) {
  const std::int64_t day = kYearStart.days_until(d);
  return day >= 0 && day < CountCube::kDays ? static_cast<int>(day) : -1;
}

std::vector<CallRecord> make_calls(std::size_t sessions, std::uint64_t seed,
                                   std::uint64_t id_base) {
  const std::size_t num_calls = sessions / kParticipantsPerCall;
  std::vector<CallRecord> calls;
  calls.reserve(num_calls);
  Rng rng{seed};
  for (std::size_t c = 0; c < num_calls; ++c) {
    CallRecord call;
    call.call_id = id_base + c;
    call.start.date = kYearStart.plus_days(rng.uniform_int(0, 364));
    call.start.time = {static_cast<int>(rng.uniform_int(9, 19)),
                       static_cast<int>(rng.uniform_int(0, 59))};
    call.scheduled_minutes = 30;
    call.participants.reserve(kParticipantsPerCall);
    for (int p = 0; p < kParticipantsPerCall; ++p) {
      ParticipantRecord rec;
      rec.user_id = (id_base + c) * kParticipantsPerCall +
                    static_cast<std::uint64_t>(p);
      rec.platform = kPlatforms[rng.weighted_index(kPlatformWeights)];
      rec.meeting_size = kParticipantsPerCall;
      rec.access = kAccess[rng.weighted_index(kAccessWeights)];
      const double latency = std::min(600.0, 8.0 + rng.lognormal(3.1, 0.75));
      const double loss = std::min(20.0, rng.exponential(1.3));
      const double jitter = std::min(90.0, rng.exponential(0.22));
      const double bandwidth = std::min(400.0, 1.0 + rng.lognormal(2.4, 0.8));
      const auto aggregate = [](double v) {
        return usaas::netsim::MetricAggregate{v, v * 0.92, v * 1.7};
      };
      rec.network.latency_ms = aggregate(latency);
      rec.network.loss_pct = aggregate(loss);
      rec.network.jitter_ms = aggregate(jitter);
      rec.network.bandwidth_mbps = aggregate(bandwidth);
      rec.network.duration_seconds = 1800.0;
      rec.network.sample_count = 360;
      const double damage = 0.07 * latency + 3.2 * loss + 0.25 * jitter;
      const auto engagement = [&](double base, double scale) {
        return std::clamp(base - scale * damage + rng.normal(0.0, 5.0), 0.0,
                          100.0);
      };
      rec.presence_pct = engagement(93.0, 0.4);
      rec.cam_on_pct = engagement(44.0, 0.6);
      rec.mic_on_pct = engagement(31.0, 0.3);
      rec.dropped_early = rng.bernoulli(std::min(0.6, 0.02 + damage / 420.0));
      if (rng.bernoulli(0.005)) {
        rec.mos = usaas::core::clamp_mos(
            usaas::core::Mos{4.5 - damage / 20.0 + rng.normal(0.0, 0.4)});
      }
      call.participants.push_back(rec);
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

std::vector<Post> make_posts(std::size_t n, std::uint64_t seed,
                             std::uint64_t id_base) {
  static const char* kTitles[] = {
      "weekly check in on my connection", "anyone else having trouble",
      "speed test after the firmware update", "setup question",
      "thoughts after three months", "evening performance",
  };
  static const char* kBodies[] = {
      "really happy with the service lately, video calls are smooth and "
      "downloads are fast, great experience overall",
      "awful night again, latency is terrible and pages keep timing out, "
      "frustrated with how slow and unreliable this is",
      "the service went down for an hour, total outage in my area, "
      "everything offline and disconnected until it came back",
      "fairly normal week, speeds are fine in the morning and a little "
      "slower at night, nothing to complain about",
      "dropped connection several times during meetings today, not working "
      "for long stretches, is the network down again",
      "moved the dish to the roof and the improvement is excellent, best "
      "speeds i have had and very reliable now",
      "outage again this morning, no connection at all for two hours, "
      "support says they are aware of the problem",
  };
  std::vector<Post> posts;
  posts.reserve(n);
  Rng rng{seed};
  for (std::size_t i = 0; i < n; ++i) {
    Post post;
    post.id = id_base + i;
    post.date = kYearStart.plus_days(rng.uniform_int(0, 364));
    post.author_id = static_cast<std::uint64_t>(rng.uniform_int(1, 60000));
    post.title = kTitles[rng.uniform_int(0, 5)];
    post.body = kBodies[rng.uniform_int(0, 6)];
    post.upvotes = static_cast<int>(rng.uniform_int(0, 500));
    post.num_comments = static_cast<int>(rng.uniform_int(0, 80));
    posts.push_back(std::move(post));
  }
  return posts;
}

std::size_t poison_calls(std::vector<CallRecord>& calls, std::size_t every) {
  std::size_t broken = 0;
  for (std::size_t i = every - 1; i < calls.size(); i += every) {
    ParticipantRecord& rec = calls[i].participants.front();
    switch (broken % 4) {
      case 0: rec.network.latency_ms.mean = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: rec.network.loss_pct.mean = -2.0; break;
      case 2: calls[i].start.date = Date{}; break;
      default: rec.presence_pct = 180.0; break;
    }
    ++broken;
  }
  return broken;
}

std::size_t poison_posts(std::vector<Post>& posts, std::size_t every) {
  std::size_t broken = 0;
  for (std::size_t i = every - 1; i < posts.size(); i += every) {
    if (broken % 2 == 0) {
      posts[i].title.clear();
      posts[i].body = "  ";
    } else {
      posts[i].date = Date{};
    }
    ++broken;
  }
  return broken;
}

std::int64_t NuRand::operator()(Rng& rng) const {
  return (((rng.uniform_int(0, a_) | rng.uniform_int(x_, y_)) + c_) %
          (y_ - x_ + 1)) +
         x_;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& v : cdf_) v /= total;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<Query> dashboard_keys(std::size_t count) {
  struct Axis {
    Metric metric;
    double hi;
  };
  // The default summary axes: every key is summary-answerable once cold.
  constexpr Axis kAxes[] = {{Metric::kLatency, 300.0},
                            {Metric::kLoss, 10.0},
                            {Metric::kJitter, 80.0},
                            {Metric::kBandwidth, 200.0}};
  constexpr AccessTechnology kDashAccess[] = {AccessTechnology::kLeoSatellite,
                                              AccessTechnology::kLte,
                                              AccessTechnology::kFiber};
  std::vector<Query> keys;
  for (int first = 1; first <= 12; ++first) {
    for (int last = first; last <= 12; ++last) {
      for (int platform = -1; platform < 4; ++platform) {
        for (int access = -1; access < 3; ++access) {
          for (const Axis& axis : kAxes) {
            Query q;
            q.first = Date{2022, first, 1};
            q.last = Date{2022, last, Date::days_in_month(2022, last)};
            if (platform >= 0) q.platform = kPlatforms[platform];
            if (access >= 0) q.access = kDashAccess[access];
            q.metric = axis.metric;
            q.metric_lo = 0.0;
            q.metric_hi = axis.hi;
            q.bins = 10;
            keys.push_back(q);
          }
        }
      }
    }
  }
  // A fixed shuffle, so the key table is the same for every seed; the seed
  // only moves which keys are popular.
  Rng shuffle{0x5eed'ca11'ab1eull};
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        shuffle.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(keys[i], keys[j]);
  }
  keys.resize(std::min(count, keys.size()));
  return keys;
}

std::vector<Request> dashboard_requests(const std::vector<Query>& keys,
                                        std::size_t tenants, std::size_t n,
                                        std::uint64_t seed) {
  Rng rng{seed ^ 0xda5bb0a2dull};
  const auto key_max = static_cast<std::int64_t>(keys.size()) - 1;
  // A fixed NURand constant: every seed sees the same hot keys, so seeds
  // differ in the request sequence, not in how heavy the hot set is.
  const NuRand popularity{127, 0, key_max, 173};
  const Zipf tenant_rank{tenants, 1.1};
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.query_id = static_cast<std::size_t>(popularity(rng));
    r.query = keys[r.query_id];
    r.tenant = "dash-" + std::to_string(tenant_rank(rng));
    r.post_body = rng.bernoulli(0.3);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> analyst_requests(std::size_t n, std::uint64_t seed,
                                      std::size_t first_id) {
  struct Axis {
    Metric metric;
    double lo;
    double hi;
  };
  // Ranges no summary axis matches, so the engagement sweeps scan.
  constexpr Axis kAxes[] = {{Metric::kLatency, 0.0, 250.0},
                            {Metric::kLatency, 20.0, 400.0},
                            {Metric::kLoss, 0.0, 6.0},
                            {Metric::kJitter, 0.0, 50.0},
                            {Metric::kBandwidth, 0.0, 120.0}};
  Rng rng{seed ^ 0xa1a1'7157ull};
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.query_id = first_id + i;
    r.tenant = "analyst-" + std::to_string(rng.uniform_int(0, 1));
    r.post_body = rng.bernoulli(0.5);
    // Start on day 2..28 of a month, so the first month is always cut.
    const int month = static_cast<int>(rng.uniform_int(1, 12));
    const Date first{2022, month, static_cast<int>(rng.uniform_int(2, 28))};
    const int span = static_cast<int>(rng.uniform_int(10, 100));
    const int to_year_end = static_cast<int>(first.days_until(Date{2022, 12, 31}));
    r.query.first = first;
    r.query.last = first.plus_days(std::min(span, to_year_end));
    if (rng.bernoulli(0.5)) {
      r.query.platform = kPlatforms[rng.uniform_int(0, 3)];
    }
    if (rng.bernoulli(0.35)) {
      r.query.access = kAccess[rng.uniform_int(0, 6)];
    }
    const Axis& axis = kAxes[rng.uniform_int(0, 4)];
    r.query.metric = axis.metric;
    r.query.metric_lo = axis.lo;
    r.query.metric_hi = axis.hi;
    r.query.bins = static_cast<std::size_t>(rng.uniform_int(6, 24));
    out.push_back(std::move(r));
  }
  return out;
}

std::string render_http(const Request& r, std::uint64_t request_id) {
  const Query& q = r.query;
  std::vector<std::pair<std::string, std::string>> fields = {
      {"tenant", r.tenant},
      {"first", date_string(q.first)},
      {"last", date_string(q.last)},
      {"metric", usaas::netsim::to_string(q.metric)},
      {"lo", number_string(q.metric_lo)},
      {"hi", number_string(q.metric_hi)},
      {"bins", std::to_string(q.bins)},
  };
  if (q.platform) fields.emplace_back("platform", usaas::confsim::to_string(*q.platform));
  if (q.access) fields.emplace_back("access", usaas::netsim::to_string(*q.access));
  std::string id_header;
  if (request_id != 0) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "X-Request-Id: %016llx\r\n",
                  static_cast<unsigned long long>(request_id));
    id_header = buf;
  }
  if (!r.post_body) {
    std::string target = "/query?";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) target += '&';
      target += fields[i].first + "=" + fields[i].second;
    }
    return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" + id_header +
           "\r\n";
  }
  std::string body = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) body += ',';
    const bool numeric =
        fields[i].first == "lo" || fields[i].first == "hi" ||
        fields[i].first == "bins";
    body += "\"" + fields[i].first + "\":";
    body += numeric ? fields[i].second : "\"" + fields[i].second + "\"";
  }
  body += '}';
  return "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n" + id_header + "\r\n" + body;
}

void CountCube::add_calls(const CallRecord* begin, const CallRecord* end) {
  for (const CallRecord* call = begin; call != end; ++call) {
    const int day = day_of_2022(call->start.date);
    if (day < 0) continue;
    for (const ParticipantRecord& p : call->participants) {
      Cell& cell = cells_[static_cast<std::size_t>(
          (day * kPlatforms + static_cast<int>(p.platform)) * kAccess +
          static_cast<int>(p.access))];
      ++cell.sessions;
      if (p.mos) ++cell.rated;
    }
  }
}

void CountCube::add_posts(const Post* begin, const Post* end) {
  for (const Post* post = begin; post != end; ++post) {
    const int day = day_of_2022(post->date);
    if (day >= 0) ++posts_[static_cast<std::size_t>(day)];
  }
}

CountCube::Counts CountCube::count(const Query& q) const {
  Counts out;
  const int first = std::max(0, day_of_2022(q.first));
  const int last = q.last < Date{2022, 12, 31} ? day_of_2022(q.last) : kDays - 1;
  if (q.last < Date{2022, 1, 1} || q.first > Date{2022, 12, 31}) return out;
  const int p_lo = q.platform ? static_cast<int>(*q.platform) : 0;
  const int p_hi = q.platform ? p_lo : kPlatforms - 1;
  const int a_lo = q.access ? static_cast<int>(*q.access) : 0;
  const int a_hi = q.access ? a_lo : kAccess - 1;
  for (int day = first; day <= last; ++day) {
    out.posts += posts_[static_cast<std::size_t>(day)];
    for (int p = p_lo; p <= p_hi; ++p) {
      for (int a = a_lo; a <= a_hi; ++a) {
        const Cell& cell =
            cells_[static_cast<std::size_t>((day * kPlatforms + p) * kAccess + a)];
        out.sessions += cell.sessions;
        out.rated += cell.rated;
      }
    }
  }
  return out;
}

std::uint64_t CountCube::shard_sessions(int month, int platform) const {
  const int first = day_of_2022(Date{2022, month, 1});
  const int last = first + Date::days_in_month(2022, month) - 1;
  std::uint64_t total = 0;
  for (int day = first; day <= last; ++day) {
    for (int a = 0; a < kAccess; ++a) {
      total += cells_[static_cast<std::size_t>((day * kPlatforms + platform) *
                                                   kAccess +
                                               a)]
                   .sessions;
    }
  }
  return total;
}

}  // namespace usaasbench
