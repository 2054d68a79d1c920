#include "usaas/mos_predictor.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "confsim/dataset.h"
#include "core/regression.h"
#include "core/units.h"
#include "usaas/correlation_engine.h"

namespace usaas::service {
namespace {

confsim::DatasetConfig sweep_config(std::size_t calls, std::uint64_t seed) {
  // Swept conditions spread the experienced quality widely, giving the
  // regression real variance to explain (population sampling concentrates
  // almost all sessions at "good", where MOS is mostly rater noise).
  confsim::DatasetConfig cfg;
  cfg.seed = seed;
  cfg.num_calls = calls;
  cfg.sampling = confsim::ConditionSampling::kSweep;
  cfg.sweep_metric = netsim::Metric::kLatency;
  cfg.sweep_lo = 0.0;
  cfg.sweep_hi = 300.0;
  cfg.control_windows.loss_hi_pct = 3.0;
  return cfg;
}

std::vector<confsim::ParticipantRecord> sessions_from(std::size_t calls,
                                                      std::uint64_t seed) {
  std::vector<confsim::ParticipantRecord> out;
  confsim::CallDatasetGenerator{sweep_config(calls, seed)}.generate_stream(
      [&](const confsim::CallRecord& call) {
        for (const auto& p : call.participants) out.push_back(p);
      });
  return out;
}

class MosPredictorTest : public ::testing::Test {
 protected:
  static const std::vector<confsim::ParticipantRecord>& sessions() {
    static const auto instance = sessions_from(20000, 31337);
    return instance;
  }
};

TEST_F(MosPredictorTest, TrainsAndPredictsInRange) {
  MosPredictor predictor;
  predictor.train(sessions());
  for (std::size_t i = 0; i < 100; ++i) {
    const double p = predictor.predict(sessions()[i * 37]);
    EXPECT_GE(p, 1.0);
    EXPECT_LE(p, 5.0);
  }
}

TEST_F(MosPredictorTest, PredictWithoutTrainingThrows) {
  const MosPredictor predictor;
  EXPECT_THROW((void)predictor.predict(sessions().front()), std::logic_error);
}

TEST_F(MosPredictorTest, TooFewRatedSessionsThrows) {
  MosPredictor predictor;
  const auto tiny = sessions_from(30, 1);
  EXPECT_THROW(predictor.train(tiny), std::runtime_error);
}

TEST_F(MosPredictorTest, FullModelBeatsMeanBaseline) {
  const MosPredictor predictor;
  const auto ev = predictor.evaluate(sessions());
  EXPECT_GT(ev.train_sessions, 100u);
  EXPECT_GT(ev.test_sessions, 40u);
  EXPECT_LT(ev.full.mae, ev.mean_baseline.mae);
  EXPECT_GT(ev.full.r2, 0.05);
}

TEST_F(MosPredictorTest, EngagementAloneCarriesSignal) {
  // The paper's thesis: user actions are a usable MOS proxy.
  const MosPredictor predictor;
  const auto ev = predictor.evaluate(sessions());
  EXPECT_LT(ev.engagement_only.mae, ev.mean_baseline.mae);
}

TEST_F(MosPredictorTest, FullModelAtLeastAsGoodAsEitherHalf) {
  const MosPredictor predictor;
  const auto ev = predictor.evaluate(sessions());
  EXPECT_LE(ev.full.mae, ev.network_only.mae + 0.02);
  EXPECT_LE(ev.full.mae, ev.engagement_only.mae + 0.02);
}

TEST_F(MosPredictorTest, FeatureVectorLayout) {
  const auto f = MosPredictor::features(sessions().front());
  ASSERT_EQ(f.size(), MosPredictor::kNumFeatures);
  EXPECT_DOUBLE_EQ(f[0], sessions().front().presence_pct);
  EXPECT_DOUBLE_EQ(f[3],
                   sessions().front().network.latency_ms.mean);
}

TEST_F(MosPredictorTest, PredictMatchesTheHeapFeatureVectorPathBitForBit) {
  // predict() builds its features in a stack array; it must return exactly
  // what the fitted model gave when evaluated on a heap std::vector built
  // field by field, clamped into [1, 5].
  const auto heap_features = [](const confsim::ParticipantRecord& rec) {
    const auto c = rec.network.mean_conditions();
    return std::vector<double>{rec.presence_pct, rec.cam_on_pct,
                               rec.mic_on_pct,   c.latency.ms(),
                               c.loss.percent(), c.jitter.ms(),
                               c.bandwidth.mbps()};
  };
  std::vector<double> rows;
  std::vector<double> ys;
  for (const auto& rec : sessions()) {
    if (!rec.mos) continue;
    const std::vector<double> f = heap_features(rec);
    rows.insert(rows.end(), f.begin(), f.end());
    ys.push_back(rec.mos->score());
  }
  const core::LinearModel model = core::LinearModel::fit(
      rows, MosPredictor::kNumFeatures, ys, MosPredictorConfig{}.ridge);
  MosPredictor predictor;
  predictor.train(sessions());
  for (const auto& rec : sessions()) {
    const double want =
        core::clamp_mos(core::Mos{model.predict(heap_features(rec))}).score();
    EXPECT_EQ(predictor.predict(rec), want);
  }
}

TEST_F(MosPredictorTest, EvaluationDeterministicForSplitSeed) {
  MosPredictorConfig cfg;
  cfg.split_seed = 5;
  const MosPredictor a{cfg};
  const MosPredictor b{cfg};
  const auto ea = a.evaluate(sessions());
  const auto eb = b.evaluate(sessions());
  EXPECT_DOUBLE_EQ(ea.full.mae, eb.full.mae);
  EXPECT_EQ(ea.test_sessions, eb.test_sessions);
}

TEST(MosPredictorBackfill, PredictsEverySessionTheSplashScreenNeverAsked) {
  // EXPERIMENTS.md §5: engagement covers every call but MOS only ~0.3 % of
  // sessions, so the trained predictor backfills the rest. A whole-corpus
  // tally predicts every session while fewer than 1 % carry a rating, so
  // the backfilled share is above 99 %.
  const std::vector<confsim::CallRecord> calls =
      confsim::CallDatasetGenerator{sweep_config(10000, 55)}.generate();
  CorrelationEngine engine;
  engine.ingest(std::span<const confsim::CallRecord>{calls});
  MosPredictor predictor;
  predictor.train(engine.rated_sessions_canonical());
  const CorrelationEngine::Tally tally = engine.tally(nullptr, {}, &predictor);
  ASSERT_GT(tally.sessions, 0u);
  EXPECT_GT(tally.rated, 0u);
  EXPECT_EQ(tally.predicted, tally.sessions);
  EXPECT_LT(static_cast<double>(tally.rated) /
                static_cast<double>(tally.sessions),
            0.01);
}

}  // namespace
}  // namespace usaas::service
