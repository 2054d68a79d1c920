// Seeded inputs of the wire benchmark: the 2022 session and post corpora,
// the request mixes of each workload, and the independent reference
// counts every answer is checked against.
//
// Everything here is a pure function of the workload seed, so a seed names
// one exact input set; the service under test only ever sees the records
// and requests produced here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "confsim/call.h"
#include "core/rng.h"
#include "social/post.h"
#include "usaas/query_service.h"

namespace usaasbench {

/// Sessions per call in the generated corpus (so calls = sessions / 4).
inline constexpr int kParticipantsPerCall = 4;

/// 2022 sessions: dates uniform over the year, platform and access skewed
/// like an enterprise fleet, network metrics heavy-tailed, engagement
/// falling with network damage, MOS on ~0.5% of sessions. `id_base`
/// offsets call and user ids so a streamed corpus does not collide with
/// the seed corpus.
[[nodiscard]] std::vector<usaas::confsim::CallRecord> make_calls(
    std::size_t sessions, std::uint64_t seed, std::uint64_t id_base = 0);

/// 2022 posts built from template sentences that exercise the sentiment
/// and outage-keyword scorers.
[[nodiscard]] std::vector<usaas::social::Post> make_posts(
    std::size_t posts, std::uint64_t seed, std::uint64_t id_base = 0);

/// Breaks every `every`-th record (starting at `every - 1`) in a way the
/// stream ingestor must quarantine: NaN, negative or out-of-range metrics,
/// 1970 dates, empty post text. Returns how many records were broken.
std::size_t poison_calls(std::vector<usaas::confsim::CallRecord>& calls,
                         std::size_t every);
std::size_t poison_posts(std::vector<usaas::social::Post>& posts,
                         std::size_t every);

/// TPC-C's non-uniform random: NURand(A, x, y) =
/// (((uniform(0, A) | uniform(x, y)) + c) mod (y - x + 1)) + x. A few keys
/// get most of the draws, scattered over the key space by `c`.
class NuRand {
 public:
  NuRand(std::int64_t a, std::int64_t x, std::int64_t y, std::int64_t c)
      : a_{a}, x_{x}, y_{y}, c_{c} {}
  [[nodiscard]] std::int64_t operator()(usaas::core::Rng& rng) const;

 private:
  std::int64_t a_, x_, y_, c_;
};

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t operator()(usaas::core::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One request of a workload: who asks, what, and in which spelling.
struct Request {
  std::string tenant;
  usaas::service::Query query;
  bool post_body{false};  ///< POST /query with a JSON body, else GET.
  /// Index into the workload's distinct-query table (the reference-count
  /// memo key); unique per request for the analyst mix.
  std::size_t query_id{0};
};

/// The dashboard key space: every month-aligned window (1-12 whole months
/// of 2022) x platform (any + 4) x access (any + leo-satellite + lte +
/// fiber) on the summarized latency axis, trimmed to `count` keys.
[[nodiscard]] std::vector<usaas::service::Query> dashboard_keys(
    std::size_t count);

/// The dashboard mix: NURand-skewed keys (the same hot keys for every
/// seed), Zipf-skewed tenants out of `tenants`, GET and POST mixed.
[[nodiscard]] std::vector<Request> dashboard_requests(
    const std::vector<usaas::service::Query>& keys, std::size_t tenants,
    std::size_t n, std::uint64_t seed);

/// The analyst mix: every query unique — a window cut mid-month on at
/// least one side, optional platform and access, a metric and bin count
/// no summary axis matches. `first_id` numbers their query ids.
[[nodiscard]] std::vector<Request> analyst_requests(std::size_t n,
                                                    std::uint64_t seed,
                                                    std::size_t first_id);

/// The HTTP request bytes for `r` (GET query string or POST JSON body).
/// `request_id` (nonzero) is sent as X-Request-Id.
[[nodiscard]] std::string render_http(const Request& r,
                                      std::uint64_t request_id = 0);

/// Independent reference counts over 2022: sessions and rated sessions per
/// (day, platform, access) cell and posts per day, built straight from the
/// generated records. Answers are checked against sums over these cells.
class CountCube {
 public:
  static constexpr int kDays = 365;
  static constexpr int kPlatforms = 4;
  static constexpr int kAccess = 7;

  void add_calls(const usaas::confsim::CallRecord* begin,
                 const usaas::confsim::CallRecord* end);
  void add_posts(const usaas::social::Post* begin,
                 const usaas::social::Post* end);

  struct Counts {
    std::uint64_t sessions{0};
    std::uint64_t rated{0};
    std::uint64_t posts{0};
    friend bool operator==(const Counts&, const Counts&) = default;
  };
  [[nodiscard]] Counts count(const usaas::service::Query& q) const;
  /// Sessions stored in one (month 1-12, platform) shard.
  [[nodiscard]] std::uint64_t shard_sessions(int month, int platform) const;

 private:
  struct Cell {
    std::uint32_t sessions{0};
    std::uint32_t rated{0};
  };
  std::vector<Cell> cells_ =
      std::vector<Cell>(static_cast<std::size_t>(kDays * kPlatforms * kAccess));
  std::array<std::uint32_t, kDays> posts_{};
};

/// Day index within 2022 (0-364), or -1 outside the year.
[[nodiscard]] int day_of_2022(const usaas::core::Date& d);

}  // namespace usaasbench
