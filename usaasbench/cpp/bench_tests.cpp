// Tests of the wire benchmark's own machinery: seeded generation, open-loop
// timing, the percentile rule, span self times and the reference counts.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bench_util.h"
#include "corpus.h"
#include "loadgen.h"

namespace usaasbench {
namespace {

TEST(Generator, SameSeedSameInputs) {
  const auto a = make_calls(4000, 7);
  const auto b = make_calls(4000, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start.date, b[i].start.date);
    for (std::size_t p = 0; p < a[i].participants.size(); ++p) {
      const auto& x = a[i].participants[p];
      const auto& y = b[i].participants[p];
      EXPECT_EQ(x.platform, y.platform);
      EXPECT_EQ(x.access, y.access);
      EXPECT_EQ(x.network.latency_ms.mean, y.network.latency_ms.mean);
      EXPECT_EQ(x.presence_pct, y.presence_pct);
      EXPECT_EQ(x.mos.has_value(), y.mos.has_value());
    }
  }
  const auto pa = make_posts(500, 3);
  const auto pb = make_posts(500, 3);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].date, pb[i].date);
    EXPECT_EQ(pa[i].body, pb[i].body);
  }
  const auto keys = dashboard_keys(512);
  const auto da = dashboard_requests(keys, 8, 2000, 11);
  const auto db = dashboard_requests(keys, 8, 2000, 11);
  const auto qa = analyst_requests(500, 11, 0);
  const auto qb = analyst_requests(500, 11, 0);
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(render_http(da[i], i + 1), render_http(db[i], i + 1));
  }
  for (std::size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(render_http(qa[i]), render_http(qb[i]));
  }
}

TEST(Generator, DifferentSeedDifferentInputs) {
  const auto a = make_calls(4000, 7);
  const auto b = make_calls(4000, 8);
  std::size_t same_dates = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same_dates += a[i].start.date == b[i].start.date ? 1 : 0;
  }
  EXPECT_LT(same_dates, a.size() / 10);
  const auto keys = dashboard_keys(512);
  const auto da = dashboard_requests(keys, 8, 2000, 11);
  const auto db = dashboard_requests(keys, 8, 2000, 12);
  std::size_t same = 0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    same += da[i].query_id == db[i].query_id ? 1 : 0;
  }
  // Same hot keys, different sequence: only popular keys coincide.
  EXPECT_LT(same, da.size() / 4);
}

TEST(Generator, DashboardPopularityIsSkewed) {
  const auto keys = dashboard_keys(512);
  ASSERT_EQ(keys.size(), 512u);
  const auto reqs = dashboard_requests(keys, 8, 20000, 5);
  std::vector<std::size_t> hits(keys.size(), 0);
  std::vector<std::size_t> tenant(8, 0);
  for (const Request& r : reqs) {
    ++hits[r.query_id];
    ++tenant[static_cast<std::size_t>(r.tenant.back() - '0')];
  }
  std::sort(hits.rbegin(), hits.rend());
  std::size_t top = 0;
  for (std::size_t i = 0; i < 128; ++i) top += hits[i];
  // The hottest quarter of the keys draws well over a quarter of traffic,
  // but the key space is still wider than the 128-entry insight cache.
  EXPECT_GT(top, reqs.size() * 35 / 100);
  EXPECT_LT(top, reqs.size() * 90 / 100);
  EXPECT_GT(tenant[0], tenant[7] * 3);
}

TEST(OpenLoop, LatencyRunsFromScheduledTimeThroughAStall) {
  LoadPlan plan;
  plan.open = true;
  plan.rate = 100.0;  // one request every 10 ms
  plan.threads = 1;
  plan.begin = 0;
  plan.end = 30;
  plan.max_seconds = 10.0;
  const auto samples = drive(plan, [](std::size_t i, Sample& s) {
    if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds{200});
    s.status = 200;
  });
  ASSERT_EQ(samples.size(), 30u);
  // Request 4 was due at 40 ms but could only start after the 200 ms stall
  // of request 3 ended (~230 ms): its latency counts that wait...
  const Sample& r4 = samples[4];
  EXPECT_GT(r4.started - r4.scheduled, 0.15);
  EXPECT_GT(r4.latency_s(true), 0.15);
  // ...while its own service time was ~0.
  EXPECT_LT(r4.latency_s(false), 0.05);
  // Requests due long after the stall are on time again.
  EXPECT_LT(samples[29].started - samples[29].scheduled, 0.05);
  // With 30 samples the tail figure is the p66 (ten samples beyond it):
  // still deep inside the backlog the stall left behind.
  const LatencySummary sum = summarize(samples, true, 0.3);
  EXPECT_GT(sum.late_p99_ms, 50.0);
}

TEST(OpenLoop, ClosedLoopLatencyIsServiceTime) {
  LoadPlan plan;
  plan.open = false;
  plan.threads = 2;
  plan.begin = 0;
  plan.end = 10;
  plan.max_seconds = 10.0;
  const auto samples = drive(plan, [](std::size_t, Sample& s) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    s.status = 200;
  });
  ASSERT_EQ(samples.size(), 10u);
  for (const Sample& s : samples) {
    EXPECT_EQ(s.scheduled, s.started);
    EXPECT_LT(s.latency_s(false), 0.1);
  }
}

TEST(Percentile, WindowQuantileInterpolates) {
  EXPECT_EQ(window_quantile({}, 0.25), 0.0);
  EXPECT_EQ(window_quantile({7.0}, 0.25), 7.0);
  // Eight windows: the lower quartile lies 1.75 ranks up the sorted list.
  const std::vector<double> w = {8, 1, 7, 2, 6, 3, 5, 4};
  EXPECT_DOUBLE_EQ(window_quantile(w, 0.25), 2.75);
  EXPECT_DOUBLE_EQ(window_quantile(w, 0.75), 6.25);
  EXPECT_DOUBLE_EQ(window_quantile(w, 0.5), 4.5);
}

TEST(Percentile, RequiresTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  v.push_back(1000);
  ASSERT_TRUE(percentile(v, 0.99).has_value());
  EXPECT_EQ(*percentile(v, 0.99), 990.0);
  EXPECT_EQ(*percentile(v, 0.50), 500.0);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(percentile(small, 0.50).has_value());
  small.push_back(1.0);
  EXPECT_TRUE(percentile(small, 0.50).has_value());

  // Repeated values may be given as (value, count) pairs.
  const std::vector<std::pair<double, std::uint64_t>> pairs = {
      {3.0, 500}, {1.0, 490}, {2.0, 10}};
  EXPECT_EQ(*percentile(pairs, 0.49), 1.0);
  EXPECT_EQ(*percentile(pairs, 0.50), 2.0);
  EXPECT_EQ(*percentile(pairs, 0.99), 3.0);
  EXPECT_FALSE(percentile(std::vector<std::pair<double, std::uint64_t>>{{1.0, 999}}, 0.99)
                   .has_value());

  // The fallback reports the highest percentile the rule allows.
  std::vector<double> w;
  for (int i = 1; i <= 500; ++i) w.push_back(i);
  EXPECT_EQ(tail_percentile(w, 0.99), 490.0);
  EXPECT_EQ(tail_percentile(w, 0.50), 250.0);
  EXPECT_EQ(tail_percentile(std::vector<double>(5, 1.0), 0.99), 0.0);
}

TEST(SelfTime, NestedAndOverlappingChildren) {
  // root [0,10] has children A [1,4], B [3,6] (overlapping A) and D
  // [9,12] (running past the root's end); A has a child C [2,3].
  const std::vector<Span> spans = {
      {"root", 1, -1, 0.0, 10.0}, {"A", 1, 0, 1.0, 4.0},
      {"B", 1, 0, 3.0, 6.0},      {"C", 1, 1, 2.0, 3.0},
      {"D", 1, 0, 9.0, 12.0},
  };
  const auto self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (5.0 + 1.0));  // [1,6] and [9,10]
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
  // Self times of a request's spans sum to its root when children nest.
  const std::vector<Span> chain = {
      {"wire", 2, -1, 0.0, 8.0}, {"scheduler", 2, 0, 1.0, 7.0},
      {"service", 2, 1, 2.0, 6.0}, {"engine", 2, 2, 3.0, 5.0}};
  const auto chain_self = self_times(chain);
  double total = 0.0;
  for (const double v : chain_self) total += v;
  EXPECT_DOUBLE_EQ(total, 8.0);
}

TEST(Reference, CubeMatchesBruteForce) {
  const auto calls = make_calls(8000, 21);
  const auto posts = make_posts(2000, 22);
  CountCube cube;
  cube.add_calls(calls.data(), calls.data() + calls.size());
  cube.add_posts(posts.data(), posts.data() + posts.size());
  auto queries = analyst_requests(60, 23, 0);
  const auto keys = dashboard_keys(40);
  for (const auto& k : keys) queries.push_back({"t", k, false, 0});
  for (const Request& r : queries) {
    const auto& q = r.query;
    CountCube::Counts want;
    for (const auto& call : calls) {
      if (call.start.date < q.first || q.last < call.start.date) continue;
      for (const auto& p : call.participants) {
        if (q.platform && p.platform != *q.platform) continue;
        if (q.access && p.access != *q.access) continue;
        ++want.sessions;
        if (p.mos) ++want.rated;
      }
    }
    for (const auto& post : posts) {
      if (!(post.date < q.first || q.last < post.date)) ++want.posts;
    }
    EXPECT_EQ(cube.count(q), want);
  }
}

TEST(Reference, PoisonBreaksEveryNth) {
  auto calls = make_calls(4000, 1);
  auto posts = make_posts(1000, 2);
  EXPECT_EQ(poison_calls(calls, 97), calls.size() / 97);
  EXPECT_EQ(poison_posts(posts, 97), posts.size() / 97);
}

}  // namespace
}  // namespace usaasbench
