#include "usaas/mos_predictor.h"

#include <algorithm>
#include <stdexcept>

#include "core/rng.h"
#include "core/stats.h"
#include "usaas/session_columns.h"

namespace usaas::service {

MosPredictor::MosPredictor(MosPredictorConfig config) : config_{config} {}

MosPredictor::Features MosPredictor::features(
    const confsim::ParticipantRecord& rec) {
  const auto c = rec.network.mean_conditions();
  return {rec.presence_pct, rec.cam_on_pct,   rec.mic_on_pct,
          c.latency.ms(),   c.loss.percent(), c.jitter.ms(),
          c.bandwidth.mbps()};
}

MosPredictor::FeatureColumns MosPredictor::feature_columns(
    const SessionColumns& cols) {
  return {cols.presence.data(),     cols.cam_on.data(),
          cols.mic_on.data(),       cols.latency_mean.data(),
          cols.loss_mean.data(),    cols.jitter_mean.data(),
          cols.bandwidth_mean.data()};
}

namespace {

struct RatedSet {
  std::vector<double> rows;  // flattened features
  std::vector<double> ys;
};

RatedSet collect_rated(std::span<const confsim::ParticipantRecord> sessions) {
  RatedSet set;
  for (const auto& rec : sessions) {
    if (!rec.mos) continue;
    for (const double f : MosPredictor::features(rec)) set.rows.push_back(f);
    set.ys.push_back(rec.mos->score());
  }
  return set;
}

core::RegressionMetrics eval_model(const core::LinearModel& model,
                                   std::span<const double> rows,
                                   std::size_t num_features,
                                   std::span<const double> ys) {
  std::vector<double> preds;
  preds.reserve(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    preds.push_back(model.predict(
        rows.subspan(i * num_features, num_features)));
  }
  return core::evaluate_predictions(preds, ys);
}

/// Extracts a feature-column subset from flattened rows.
std::vector<double> select_columns(std::span<const double> rows,
                                   std::size_t num_features,
                                   std::span<const std::size_t> cols) {
  std::vector<double> out;
  const std::size_t n = rows.size() / num_features;
  out.reserve(n * cols.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t c : cols) {
      out.push_back(rows[i * num_features + c]);
    }
  }
  return out;
}

}  // namespace

void MosPredictor::reset() {
  intercept_ = 0.0;
  coef_ = {};
  trained_ = false;
}

void MosPredictor::train(
    std::span<const confsim::ParticipantRecord> sessions) {
  // Invalidate up front: a failed retrain must not leave the previous
  // model silently serving predictions for data it never saw.
  reset();
  const RatedSet set = collect_rated(sessions);
  if (set.ys.size() < kMinRatedSessions) {
    throw std::runtime_error("MosPredictor: fewer than 30 rated sessions");
  }
  const core::LinearModel model =
      core::LinearModel::fit(set.rows, kNumFeatures, set.ys, config_.ridge);
  intercept_ = model.intercept();
  const std::span<const double> coef = model.coefficients();
  std::copy(coef.begin(), coef.end(), coef_.begin());
  trained_ = true;
}

double MosPredictor::predict(const confsim::ParticipantRecord& rec) const {
  if (!trained_) throw std::logic_error("MosPredictor: not trained");
  return predict(features(rec));
}

MosEvaluation MosPredictor::evaluate(
    std::span<const confsim::ParticipantRecord> sessions) const {
  const RatedSet set = collect_rated(sessions);
  const std::size_t n = set.ys.size();
  if (n < 30) {
    throw std::runtime_error("MosPredictor: fewer than 30 rated sessions");
  }

  // Deterministic split.
  core::Rng rng{config_.split_seed};
  std::vector<bool> in_test(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    in_test[i] = rng.bernoulli(config_.holdout_fraction);
  }

  auto partition = [&](bool test) {
    RatedSet part;
    for (std::size_t i = 0; i < n; ++i) {
      if (in_test[i] != test) continue;
      for (std::size_t f = 0; f < kNumFeatures; ++f) {
        part.rows.push_back(set.rows[i * kNumFeatures + f]);
      }
      part.ys.push_back(set.ys[i]);
    }
    return part;
  };
  const RatedSet train = partition(false);
  const RatedSet test = partition(true);
  if (train.ys.size() < 10 || test.ys.size() < 10) {
    throw std::runtime_error("MosPredictor: split too small");
  }

  MosEvaluation ev;
  ev.train_sessions = train.ys.size();
  ev.test_sessions = test.ys.size();

  // Full model.
  const auto full = core::LinearModel::fit(train.rows, kNumFeatures, train.ys,
                                           config_.ridge);
  ev.full = eval_model(full, test.rows, kNumFeatures, test.ys);

  // Network-only (features 3..6) and engagement-only (0..2).
  const std::vector<std::size_t> net_cols{3, 4, 5, 6};
  const std::vector<std::size_t> eng_cols{0, 1, 2};
  const auto net_train = select_columns(train.rows, kNumFeatures, net_cols);
  const auto net_test = select_columns(test.rows, kNumFeatures, net_cols);
  const auto net_model = core::LinearModel::fit(net_train, net_cols.size(),
                                                train.ys, config_.ridge);
  ev.network_only = eval_model(net_model, net_test, net_cols.size(), test.ys);

  const auto eng_train = select_columns(train.rows, kNumFeatures, eng_cols);
  const auto eng_test = select_columns(test.rows, kNumFeatures, eng_cols);
  const auto eng_model = core::LinearModel::fit(eng_train, eng_cols.size(),
                                                train.ys, config_.ridge);
  ev.engagement_only =
      eval_model(eng_model, eng_test, eng_cols.size(), test.ys);

  // Constant-mean baseline.
  const double train_mean = core::mean(train.ys);
  std::vector<double> const_preds(test.ys.size(), train_mean);
  ev.mean_baseline = core::evaluate_predictions(const_preds, test.ys);
  return ev;
}

}  // namespace usaas::service
