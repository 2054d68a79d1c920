// CI performance gates. Each gate times a subject against a control
// measured in the same process, so host speed and heat-soak cancel out:
//   posts      1-thread QueryService::ingest_posts of 120 K synthetic
//              posts vs the same texts through nlp::reference, the frozen
//              pre-fast-path pipeline;
//   scan       the engine's columnar engagement_curve over the battery's
//              18 sweeps vs the frozen row sweep (checked bit-identical
//              before any timing);
//   sweep      the engine's fused engagement_curves (one count and three
//              means per bin) over the battery's 18 sweeps vs the same
//              column scan feeding a full RunningStats per bin and
//              series (checked bit-identical before any timing);
//   tally      the engine's predicted-MOS tally over 12 boundary-cut
//              windows, rows predicted from the feature columns, vs the
//              per-record std::function tally (checked bit-identical
//              before any timing);
//   insight    the engine's curves_and_tally — curves and predicted-MOS
//              tally from one fan-out, one pass per scanned shard — over
//              the tally gate's 12 windows on an axis no summary holds, vs
//              the separate engagement_curves + tally calls it replaced
//              (checked bit-identical before any timing);
//   telemetry  ingest, and the battery through the admission scheduler,
//              on a live registry vs Registry{false}; one gate each.
// Each gate prints
//   GATE <name> subject=<s> control=<s> ratio=<median> floor=<f> PASS|FAIL
// and the exit code is nonzero if any gate fails. No flags, no
// environment variables, no output files.
//
// Build & run:   ./build/bench/ci_gates
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/telemetry/metrics.h"
#include "nlp/reference.h"
#include "social/post.h"
#include "usaas/mos_predictor.h"
#include "usaas/query_scheduler.h"
#include "usaas/query_service.h"
#include "usaas/session_columns.h"

namespace {

using namespace usaas;
using Clock = std::chrono::steady_clock;

// Floors: 0.7x the median ratio each gate reads on an unmodified tree,
// and above every run of the mutation the gate exists to catch (see
// scripts/check.sh for the measured ranges).
constexpr double kPostsFloor = 3.89;
constexpr double kScanFloor = 2.11;
constexpr double kSweepFloor = 1.10;
constexpr double kTallyFloor = 2.58;
constexpr double kInsightFloor = 0.90;
// At most 5 % telemetry overhead: off/on >= 1 / 1.05.
constexpr double kTelemetryFloor = 1.0 / 1.05;

constexpr std::size_t kSessions = 200000;
constexpr std::size_t kPosts = 120000;
constexpr std::size_t kTelemetryPosts = 30000;

template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Synthetic corpus ------------------------------------------------
// Realistic shapes and field distributions, made directly (no tick-level
// media simulation).

constexpr int kParticipantsPerCall = 4;

std::vector<confsim::CallRecord> synth_calls(std::size_t sessions,
                                             std::uint64_t seed) {
  using confsim::Platform;
  using netsim::AccessTechnology;
  constexpr Platform kPlatforms[] = {Platform::kWindowsPc, Platform::kMacPc,
                                     Platform::kIos, Platform::kAndroid};
  constexpr double kPlatformWeights[] = {0.55, 0.20, 0.10, 0.15};
  constexpr AccessTechnology kAccess[] = {
      AccessTechnology::kFiber, AccessTechnology::kCable,
      AccessTechnology::kDsl, AccessTechnology::kLte,
      AccessTechnology::kLeoSatellite};
  constexpr double kAccessWeights[] = {0.25, 0.40, 0.15, 0.12, 0.08};
  const core::Date year_start{2022, 1, 1};
  core::Rng rng{seed};
  std::vector<confsim::CallRecord> calls(sessions / kParticipantsPerCall);
  for (std::size_t c = 0; c < calls.size(); ++c) {
    confsim::CallRecord& call = calls[c];
    call.call_id = c;
    call.start.date = year_start.plus_days(rng.uniform_int(0, 364));
    call.start.time = {static_cast<int>(rng.uniform_int(9, 19)),
                       static_cast<int>(rng.uniform_int(0, 59))};
    call.scheduled_minutes = 30;
    for (int p = 0; p < kParticipantsPerCall; ++p) {
      confsim::ParticipantRecord rec;
      rec.user_id = c * kParticipantsPerCall + p;
      rec.platform = kPlatforms[rng.weighted_index(kPlatformWeights)];
      rec.meeting_size = kParticipantsPerCall;
      rec.access = kAccess[rng.weighted_index(kAccessWeights)];
      const double latency = std::min(500.0, 10.0 + rng.lognormal(3.2, 0.7));
      const double loss = std::min(15.0, rng.exponential(1.5));
      const double jitter = std::min(80.0, rng.exponential(0.25));
      const double bandwidth = std::min(300.0, 1.0 + rng.lognormal(2.3, 0.8));
      const auto aggregate = [](double mean_v) {
        return netsim::MetricAggregate{mean_v, mean_v * 0.93, mean_v * 1.8};
      };
      rec.network.latency_ms = aggregate(latency);
      rec.network.loss_pct = aggregate(loss);
      rec.network.jitter_ms = aggregate(jitter);
      rec.network.bandwidth_mbps = aggregate(bandwidth);
      rec.network.duration_seconds = 1800.0;
      rec.network.sample_count = 360;
      const double damage = 0.08 * latency + 3.0 * loss + 0.2 * jitter;
      const auto engagement = [&](double base, double scale) {
        const double v = base - scale * damage + rng.normal(0.0, 5.0);
        return std::min(100.0, std::max(0.0, v));
      };
      rec.presence_pct = engagement(92.0, 0.45);
      rec.cam_on_pct = engagement(45.0, 0.65);
      rec.mic_on_pct = engagement(30.0, 0.35);
      rec.dropped_early = rng.bernoulli(std::min(0.6, 0.02 + damage / 400.0));
      if (rng.bernoulli(0.005)) {
        rec.mos = core::clamp_mos(
            core::Mos{4.6 - damage / 18.0 + rng.normal(0.0, 0.4)});
      }
      call.participants.push_back(rec);
    }
  }
  return calls;
}

std::vector<social::Post> synth_posts(std::size_t n, std::uint64_t seed) {
  // Template texts exercise the real sentiment + keyword pipelines; the
  // outage-flavoured ones carry dictionary terms, the rest carry plain
  // valence vocabulary.
  static const char* kTitles[] = {
      "monthly experience report", "is anyone else seeing this",
      "speed test results", "quick question about my setup",
      "service thoughts after the update",
  };
  static const char* kBodies[] = {
      "the connection has been great lately, streaming is fast and smooth "
      "and video calls just work, really happy with it",
      "terrible evening again, pages crawl and the latency is awful, "
      "i am getting tired of this slow unreliable service",
      "service went down for two hours tonight, complete outage here, "
      "everything was offline and disconnected until it came back",
      "pretty average week overall, nothing special to report, speeds are "
      "okay during the day and a bit slower at night",
      "lost connection three times during calls today, not working at all "
      "for long stretches, is the network down again",
      "upgraded my router placement and the difference is amazing, "
      "excellent speeds and the best reliability i have had so far",
  };
  const core::Date year_start{2022, 1, 1};
  core::Rng rng{seed};
  std::vector<social::Post> posts(n);
  for (std::size_t i = 0; i < n; ++i) {
    social::Post& post = posts[i];
    post.id = i;
    post.date = year_start.plus_days(rng.uniform_int(0, 364));
    post.author_id = rng.uniform_int(1, 50000);
    post.title = kTitles[rng.uniform_int(0, 4)];
    post.body = kBodies[rng.uniform_int(0, 5)];
    post.upvotes = static_cast<int>(rng.uniform_int(0, 400));
    post.num_comments = static_cast<int>(rng.uniform_int(0, 60));
  }
  return posts;
}

// The operator battery: full population, one platform, the paper's
// Starlink x Teams access slice, and three date-windowed shapes.
std::vector<service::Query> battery() {
  using core::Date;
  // The default Query: everyone, all of 2022, latency 0-300 ms, 10 bins.
  std::vector<service::Query> queries(6);
  queries[1].platform = confsim::Platform::kAndroid;
  queries[2].access = netsim::AccessTechnology::kLeoSatellite;
  queries[3].first = Date(2022, 2, 1);
  queries[3].last = Date(2022, 3, 31);
  queries[4].platform = confsim::Platform::kIos;
  queries[4].first = Date(2022, 6, 1);
  queries[4].last = Date(2022, 6, 30);
  queries[4].metric = netsim::Metric::kLoss;
  queries[4].metric_hi = 10.0;
  queries[5].platform = confsim::Platform::kWindowsPc;
  queries[5].first = Date(2022, 9, 1);
  queries[5].last = Date(2022, 10, 15);
  queries[5].metric = netsim::Metric::kBandwidth;
  queries[5].metric_hi = 200.0;
  return queries;
}

// ---- Interleaved rounds and the gate verdict -------------------------
// A gate's work is cut into grains (a post chunk, one sweep, one query).
// Within a round each grain times its subject and control steps back to
// back, the order flipping grain by grain (A B B A ...), so host noise
// slower than a grain lands on both sides. Rounds come in pairs, the
// second mirroring the first's order, which cancels what going first
// costs (a fresh service's page faults, cache state).

struct Round { double subject{0.0}, control{0.0}; };

template <typename Subject, typename Control>
Round interleave(std::size_t grains, bool flip, Subject&& subject,
                 Control&& control) {
  Round r;
  for (std::size_t g = 0; g < grains; ++g) {
    const bool subject_first = (g % 2 == 0) != flip;
    if (subject_first) r.subject += time_seconds([&] { subject(g); });
    r.control += time_seconds([&] { control(g); });
    if (!subject_first) r.subject += time_seconds([&] { subject(g); });
  }
  return r;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Prints the gate line: each side's median seconds per pair, and the
// median of the per-pair control/subject ratios against the floor.
bool report(const char* name, const std::vector<Round>& rounds,
            double floor) {
  std::vector<double> subject, control, ratio;
  for (std::size_t i = 0; i + 1 < rounds.size(); i += 2) {
    subject.push_back(rounds[i].subject + rounds[i + 1].subject);
    control.push_back(rounds[i].control + rounds[i + 1].control);
    ratio.push_back(control.back() / subject.back());
  }
  const double m = median(ratio);
  const bool pass = m >= floor;
  std::printf("GATE %s subject=%.4fs control=%.4fs ratio=%.3f floor=%.3f %s\n",
              name, median(subject), median(control), m, floor,
              pass ? "PASS" : "FAIL");
  return pass;
}

service::QueryServiceConfig scan_config(core::telemetry::Registry* reg) {
  service::QueryServiceConfig cfg;
  cfg.threads = 1;
  cfg.insight_cache_entries = 0;
  cfg.shard_summaries = false;
  cfg.telemetry = reg;
  return cfg;
}

std::size_t sink = 0;  // keeps timed results live

// ---- posts: fused ingest vs the reference NLP pipeline ---------------

bool posts_gate(std::span<const social::Post> posts) {
  std::vector<std::string> texts;
  texts.reserve(posts.size());
  for (const social::Post& p : posts) texts.push_back(p.title + ' ' + p.body);
  const auto& lexicon = nlp::Lexicon::builtin();
  const auto& dict = nlp::KeywordDictionary::outage_dictionary();
  const nlp::SentimentConfig sentiment;
  constexpr std::size_t kChunk = 15000;
  const std::size_t grains = posts.size() / kChunk;
  core::telemetry::Registry reg{true};
  std::vector<Round> rounds;
  for (int i = 0; i < 2 * 3; ++i) {  // 3 pairs
    service::QueryService svc{scan_config(&reg)};
    rounds.push_back(interleave(
        grains, i % 2 == 1,
        [&](std::size_t g) {
          svc.ingest_posts(posts.subspan(g * kChunk, kChunk));
        },
        [&](std::size_t g) {
          for (std::size_t t = g * kChunk; t < (g + 1) * kChunk; ++t) {
            sink += nlp::reference::count_keywords(dict, texts[t]) +
                    (nlp::reference::score_sentiment(lexicon, sentiment,
                                                     texts[t]).negative > 0.5);
          }
        }));
  }
  return report("posts", rounds, kPostsFloor);
}

// ---- scan: columnar kernels vs the frozen row sweep ------------------

bool scan_gate(std::span<const confsim::CallRecord> calls) {
  struct RowShardRef {
    std::vector<core::Date> dates;
    std::vector<confsim::ParticipantRecord> records;
  };
  std::map<int, RowShardRef> row_shards;
  for (const auto& call : calls) {
    for (const auto& p : call.participants) {
      RowShardRef& s = row_shards[core::month_key(call.start.date) *
                                      confsim::kNumPlatforms +
                                  static_cast<int>(p.platform)];
      s.dates.push_back(call.start.date);
      s.records.push_back(p);
    }
  }
  service::CorrelationEngine columnar;
  columnar.ingest(calls);

  // The battery's 18 sweeps (query x engagement metric), shaped exactly
  // as QueryService::run builds them: structural selector, control
  // filter off, query bin count. One sweep is one grain.
  struct Sweep {
    service::SweepSpec spec;
    service::ShardSelector sel;
    service::EngagementMetric eng;
  };
  std::vector<Sweep> sweeps;
  for (const auto& q : battery()) {
    service::SweepSpec spec;
    spec.metric = q.metric;
    spec.lo = q.metric_lo;
    spec.hi = q.metric_hi;
    spec.bins = q.bins;
    spec.control_others = false;
    for (const auto eng : {service::EngagementMetric::kPresence,
                           service::EngagementMetric::kCamOn,
                           service::EngagementMetric::kMicOn}) {
      sweeps.push_back({spec, {q.first, q.last, q.platform, q.access}, eng});
    }
  }

  const auto row_sweep = [&](const service::SweepSpec& spec,
                             const service::ShardSelector& sel,
                             service::EngagementMetric eng) {
    core::Binner1D total{spec.lo, spec.hi, spec.bins};
    for (const auto& [key, shard] : row_shards) {
      const int mk = key / confsim::kNumPlatforms;
      const auto platform =
          static_cast<confsim::Platform>(key % confsim::kNumPlatforms);
      if (sel.platform && platform != *sel.platform) continue;
      if (sel.first && mk < core::month_key(*sel.first)) continue;
      if (sel.last && mk > core::month_key(*sel.last)) continue;
      const bool first_cuts = sel.first &&
                              core::month_key(*sel.first) == mk &&
                              sel.first->day() > 1;
      const bool last_cuts =
          sel.last && core::month_key(*sel.last) == mk &&
          sel.last->day() < core::Date::days_in_month(sel.last->year(),
                                                      sel.last->month());
      const bool check_dates = first_cuts || last_cuts;
      core::Binner1D partial{spec.lo, spec.hi, spec.bins};
      for (std::size_t r = 0; r < shard.records.size(); ++r) {
        const confsim::ParticipantRecord& rec = shard.records[r];
        if (check_dates) {
          if (sel.first && shard.dates[r] < *sel.first) continue;
          if (sel.last && *sel.last < shard.dates[r]) continue;
        }
        if (sel.access && rec.access != *sel.access) continue;
        partial.add(
            netsim::metric_value(rec.network.mean_conditions(), spec.metric),
            service::engagement_value(rec, eng));
      }
      total.merge(partial);
    }
    return total;
  };

  // Equivalence guard before any timing: every sweep, both paths,
  // compared with ==, not a tolerance.
  for (const Sweep& w : sweeps) {
    const auto col = columnar.engagement_curve(w.spec, w.eng, nullptr, w.sel);
    const auto row = row_sweep(w.spec, w.sel, w.eng).bins();
    bool same = row.size() == col.points.size();
    for (std::size_t i = 0; same && i < row.size(); ++i) {
      same = row[i].center() == col.points[i].metric_value &&
             row[i].mean_y == col.points[i].engagement &&
             row[i].count == col.points[i].sessions;
    }
    if (!same) {
      std::printf("GATE scan FAIL: a sweep differs from the row scan\n");
      return false;
    }
  }

  std::vector<Round> rounds;
  for (int i = 0; i < 2 * 10; ++i) {  // 10 pairs
    rounds.push_back(interleave(
        sweeps.size(), i % 2 == 1,
        [&](std::size_t g) {
          const Sweep& w = sweeps[g];
          sink += columnar.engagement_curve(w.spec, w.eng, nullptr, w.sel)
                      .points.size();
        },
        [&](std::size_t g) {
          const Sweep& w = sweeps[g];
          sink += row_sweep(w.spec, w.sel, w.eng).total_added();
        }));
  }
  return report("scan", rounds, kScanFloor);
}

// ---- sweep: shared-count bins vs per-series RunningStats bins --------

bool sweep_gate(std::span<const confsim::CallRecord> calls) {
  // The control's column shards, keyed and filled as the engine's are.
  struct ColumnShard {
    int month_key{0};
    confsim::Platform platform{confsim::Platform::kWindowsPc};
    service::SessionColumns cols;
  };
  std::map<int, ColumnShard> shards;
  for (const auto& call : calls) {
    for (const auto& p : call.participants) {
      const int mk = core::month_key(call.start.date);
      ColumnShard& s =
          shards[mk * confsim::kNumPlatforms + static_cast<int>(p.platform)];
      s.month_key = mk;
      s.platform = p.platform;
      s.cols.append(call.start.date, p);
    }
  }
  // No summaries: every shard scans, on the calling thread.
  service::CorrelationEngine engine;
  engine.ingest(calls);

  // The battery's six queries, shaped as QueryService::run builds them;
  // each fused call is three of the 18 sweeps. One query is one grain.
  struct Sweep {
    service::SweepSpec spec;
    service::ShardSelector sel;
  };
  std::vector<Sweep> sweeps;
  for (const auto& q : battery()) {
    service::SweepSpec spec;
    spec.metric = q.metric;
    spec.lo = q.metric_lo;
    spec.hi = q.metric_hi;
    spec.bins = q.bins;
    spec.control_others = false;
    sweeps.push_back({spec, {q.first, q.last, q.platform, q.access}});
  }

  // The control: the same column scan — each selected row binned once —
  // feeding a RunningStats (count, mean, M2, min, max) per bin and
  // engagement series, shard partials merged in key order.
  using Bins = std::array<std::vector<core::RunningStats>, 3>;
  const auto control_sweep = [&](const Sweep& w) {
    const service::SweepSpec& spec = w.spec;
    const service::ShardSelector& sel = w.sel;
    const double width = (spec.hi - spec.lo) / static_cast<double>(spec.bins);
    Bins total;
    for (auto& series : total) series.resize(spec.bins);
    for (const auto& [key, shard] : shards) {
      const int mk = shard.month_key;
      if (sel.platform && shard.platform != *sel.platform) continue;
      if (sel.first && mk < core::month_key(*sel.first)) continue;
      if (sel.last && mk > core::month_key(*sel.last)) continue;
      // Only a month the window cuts checks dates, as in the engine.
      const bool cut = core::window_cuts_month(sel.first, sel.last, mk);
      const std::int32_t day_lo = cut && sel.first
                                      ? core::pack_day_key(*sel.first)
                                      : std::numeric_limits<int>::min();
      const std::int32_t day_hi = cut && sel.last
                                      ? core::pack_day_key(*sel.last)
                                      : std::numeric_limits<int>::max();
      const service::SessionColumns& cols = shard.cols;
      const double* x = cols.mean_column(spec.metric);
      const double* y[] = {
          cols.engagement_column(service::EngagementMetric::kPresence),
          cols.engagement_column(service::EngagementMetric::kCamOn),
          cols.engagement_column(service::EngagementMetric::kMicOn)};
      Bins partial;
      for (auto& series : partial) series.resize(spec.bins);
      for (std::size_t r = 0; r < cols.size(); ++r) {
        if (cols.day_key[r] < day_lo || cols.day_key[r] > day_hi) continue;
        if (sel.access &&
            cols.access[r] != static_cast<std::uint8_t>(*sel.access)) {
          continue;
        }
        if (x[r] < spec.lo || x[r] >= spec.hi) continue;
        const std::size_t bin = std::min(
            static_cast<std::size_t>((x[r] - spec.lo) / width), spec.bins - 1);
        for (std::size_t k = 0; k < 3; ++k) partial[k][bin].add(y[k][r]);
      }
      for (std::size_t k = 0; k < 3; ++k) {
        for (std::size_t b = 0; b < spec.bins; ++b) {
          total[k][b].merge(partial[k][b]);
        }
      }
    }
    return total;
  };

  // Equivalence guard before any timing: every curve point of the 18
  // sweeps, both paths, compared with ==, not a tolerance.
  for (const Sweep& w : sweeps) {
    const auto curves = engine.engagement_curves(w.spec, nullptr, w.sel);
    const Bins want = control_sweep(w);
    const double width =
        (w.spec.hi - w.spec.lo) / static_cast<double>(w.spec.bins);
    for (std::size_t k = 0; k < 3; ++k) {
      std::vector<service::CurvePoint> points;
      for (std::size_t b = 0; b < w.spec.bins; ++b) {
        const core::RunningStats& cell = want[k][b];
        if (cell.empty()) continue;
        const double lo = w.spec.lo + width * static_cast<double>(b);
        points.push_back({(lo + (lo + width)) / 2.0, cell.mean(),
                          cell.count()});
      }
      bool same = points.size() == curves[k].points.size();
      for (std::size_t i = 0; same && i < points.size(); ++i) {
        same = points[i].metric_value == curves[k].points[i].metric_value &&
               points[i].engagement == curves[k].points[i].engagement &&
               points[i].sessions == curves[k].points[i].sessions;
      }
      if (!same || points.empty()) {
        std::printf("GATE sweep FAIL: a curve differs from the RunningStats "
                    "bins\n");
        return false;
      }
    }
  }

  std::vector<Round> rounds;
  for (int i = 0; i < 2 * 10; ++i) {  // 10 pairs
    rounds.push_back(interleave(
        sweeps.size(), i % 2 == 1,
        [&](std::size_t g) {
          const Sweep& w = sweeps[g];
          sink += engine.engagement_curves(w.spec, nullptr, w.sel)
                      .front()
                      .points.size();
        },
        [&](std::size_t g) {
          sink += control_sweep(sweeps[g])[0][0].count();
        }));
  }
  return report("sweep", rounds, kSweepFloor);
}

// ---- tally: columnar predicted MOS vs the per-record predictor -------

/// The 12 windows the tally and insight gates time: each cuts into its
/// first and last month, every other one is access-filtered.
std::vector<service::ShardSelector> cut_windows() {
  std::vector<service::ShardSelector> windows;
  for (int w = 0; w < 12; ++w) {
    service::ShardSelector sel;
    sel.first = core::Date(2022, 1 + w % 11, 3 + w);
    sel.last = sel.first->plus_days(35 + 4 * w);
    if (w % 2 == 1) sel.access = netsim::AccessTechnology::kCable;
    windows.push_back(sel);
  }
  return windows;
}


bool tally_gate(std::span<const confsim::CallRecord> calls) {
  // No summaries: every selected row goes through the scan kernel, as the
  // boundary shards of a cut window do in the service.
  service::CorrelationEngine engine;
  engine.ingest(calls);
  service::MosPredictor predictor;
  predictor.train(engine.rated_sessions_canonical());
  const std::function<double(const confsim::ParticipantRecord&)> per_record =
      [&](const confsim::ParticipantRecord& rec) {
        return predictor.predict(rec);
      };
  // One window is one grain.
  const std::vector<service::ShardSelector> windows = cut_windows();

  // Equivalence guard before any timing: every Tally field, ==.
  for (const service::ShardSelector& sel : windows) {
    const auto col = engine.tally(nullptr, sel, &predictor);
    const auto rec = engine.tally(nullptr, sel, per_record);
    if (col.sessions != rec.sessions || col.rated != rec.rated ||
        col.observed_mos_sum != rec.observed_mos_sum ||
        col.predicted_mos_sum != rec.predicted_mos_sum ||
        col.predicted != rec.predicted || col.predicted == 0) {
      std::printf("GATE tally FAIL: a window differs from the per-record "
                  "tally\n");
      return false;
    }
  }

  std::vector<Round> rounds;
  for (int i = 0; i < 2 * 10; ++i) {  // 10 pairs
    rounds.push_back(interleave(
        windows.size(), i % 2 == 1,
        [&](std::size_t g) {
          sink += engine.tally(nullptr, windows[g], &predictor).predicted;
        },
        [&](std::size_t g) {
          sink += engine.tally(nullptr, windows[g], per_record).predicted;
        }));
  }
  return report("tally", rounds, kTallyFloor);
}

// ---- insight: one fan-out for curves and tally vs two ----------------

bool insight_gate(std::span<const confsim::CallRecord> calls) {
  // The service's engine: summaries on and predicted sums fresh, so the
  // cut months scan both answers in one pass, and the whole months
  // between them merge the tally and scan the sweep (no summary holds
  // the axis).
  service::CorrelationEngine engine;
  engine.configure_summaries(service::SummaryConfig{});
  engine.ingest(calls);
  service::MosPredictor predictor;
  predictor.train(engine.rated_sessions_canonical());
  engine.refresh_predicted_tallies(&predictor);
  service::SweepSpec spec;
  spec.metric = netsim::Metric::kLatency;
  spec.lo = 0.0;
  spec.hi = 250.0;
  spec.bins = 12;
  spec.control_others = false;
  const std::vector<service::ShardSelector> windows = cut_windows();

  // Equivalence guard before any timing: every curve point and Tally
  // field, ==, and the same shard visits.
  for (const service::ShardSelector& sel : windows) {
    service::QueryFanoutStats fused_visits, separate_visits;
    const auto fused = engine.curves_and_tally(spec, nullptr, sel, &predictor,
                                               &fused_visits);
    const auto curves =
        engine.engagement_curves(spec, nullptr, sel, &separate_visits);
    const auto tally =
        engine.tally(nullptr, sel, &predictor, &separate_visits);
    bool same = fused.tally.sessions == tally.sessions &&
                fused.tally.rated == tally.rated &&
                fused.tally.observed_mos_sum == tally.observed_mos_sum &&
                fused.tally.predicted_mos_sum == tally.predicted_mos_sum &&
                fused.tally.predicted == tally.predicted &&
                tally.predicted > 0 &&
                fused_visits.shards_from_summary ==
                    separate_visits.shards_from_summary &&
                fused_visits.shards_scanned == separate_visits.shards_scanned &&
                fused.curves.size() == curves.size();
    for (std::size_t k = 0; same && k < curves.size(); ++k) {
      const auto& got = fused.curves[k].points;
      const auto& want = curves[k].points;
      same = got.size() == want.size() && !want.empty();
      for (std::size_t i = 0; same && i < want.size(); ++i) {
        same = got[i].metric_value == want[i].metric_value &&
               got[i].engagement == want[i].engagement &&
               got[i].sessions == want[i].sessions;
      }
    }
    if (!same) {
      std::printf("GATE insight FAIL: a window differs from the separate "
                  "curves + tally calls\n");
      return false;
    }
  }

  std::vector<Round> rounds;
  for (int i = 0; i < 2 * 10; ++i) {  // 10 pairs
    rounds.push_back(interleave(
        windows.size(), i % 2 == 1,
        [&](std::size_t g) {
          sink += engine.curves_and_tally(spec, nullptr, windows[g],
                                          &predictor)
                      .tally.predicted;
        },
        [&](std::size_t g) {
          sink += engine.engagement_curves(spec, nullptr, windows[g])
                      .front()
                      .points.size();
          sink += engine.tally(nullptr, windows[g], &predictor).predicted;
        }));
  }
  return report("insight", rounds, kInsightFloor);
}

// ---- telemetry: live registry vs the kill switch ---------------------

bool telemetry_gates(std::span<const confsim::CallRecord> calls,
                     std::span<const social::Post> posts) {
  // Each round builds two fresh 1-thread scan-config services (record
  // scans, not microsecond cache hits, as denominators), one per registry.
  // Ingest grains are corpus chunks; query grains are the battery kReps
  // times through each service's admission scheduler, so request tracing
  // is timed too. QoS never queues: telemetry is the only difference.
  constexpr std::size_t kCallChunk = 6250;  // 25 K sessions
  constexpr std::size_t kPostChunk = 15000;
  constexpr std::size_t kReps = 3;
  const std::size_t call_grains = calls.size() / kCallChunk;
  const std::size_t ingest_grains = call_grains + posts.size() / kPostChunk;
  const auto queries = battery();
  const auto ingest_grain = [&](service::QueryService& svc, std::size_t g) {
    if (g < call_grains) {
      svc.ingest_calls(calls.subspan(g * kCallChunk, kCallChunk));
    } else {
      const std::size_t p = g - call_grains;
      svc.ingest_posts(posts.subspan(p * kPostChunk, kPostChunk));
    }
  };
  std::vector<Round> ingest, query;
  for (int i = 0; i < 2 * 12; ++i) {  // 12 pairs
    core::telemetry::Registry reg_on{true};
    core::telemetry::Registry reg_off{false};
    service::QueryService on{scan_config(&reg_on)};
    service::QueryService off{scan_config(&reg_off)};
    ingest.push_back(interleave(
        ingest_grains, i % 2 == 1, [&](std::size_t g) { ingest_grain(on, g); },
        [&](std::size_t g) { ingest_grain(off, g); }));
    on.train_predictor();
    off.train_predictor();
    service::SchedulerConfig cfg;
    cfg.default_qos = {1e9, 1e9};
    service::QueryScheduler sched_on{on, cfg};
    service::QueryScheduler sched_off{off, cfg};
    const auto submit = [&](service::QueryScheduler& sched, std::size_t g) {
      const service::Query& q = queries[g % queries.size()];
      sink += sched.submit("gate", q).insight.sessions;
    };
    query.push_back(interleave(
        queries.size() * kReps, i % 2 == 1,
        [&](std::size_t g) { submit(sched_on, g); },
        [&](std::size_t g) { submit(sched_off, g); }));
  }
  const bool ingest_ok = report("telemetry_ingest", ingest, kTelemetryFloor);
  return report("telemetry_query", query, kTelemetryFloor) && ingest_ok;
}

}  // namespace

int main() {
  const auto calls = synth_calls(kSessions, 20220101);
  const auto posts = synth_posts(kPosts, 424242);
  bool ok = posts_gate(posts);
  ok = scan_gate(calls) && ok;
  ok = sweep_gate(calls) && ok;
  ok = tally_gate(calls) && ok;
  ok = insight_gate(calls) && ok;
  ok = telemetry_gates(calls, std::span{posts}.first(kTelemetryPosts)) && ok;
  std::printf("gates %s (sink %zu)\n", ok ? "PASS" : "FAIL", sink);
  return ok ? 0 : 1;
}
