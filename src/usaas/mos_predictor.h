// MOS prediction from engagement + network conditions (§5).
//
// The paper's motivation: MOS is sampled (0.1-1 % of sessions) and
// delayed, while engagement signals exist for every session. If MOS is
// predictable from engagement + network metrics, USaaS can backfill call
// quality for the unsampled 99 %. MosPredictor trains a ridge-regularized
// linear model on the rated subset and evaluates on held-out raters,
// against two baselines (constant mean; network-metrics-only).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "confsim/call.h"
#include "core/regression.h"
#include "core/units.h"

namespace usaas::service {

class SessionColumns;

struct MosPredictorConfig {
  double ridge{1.0};
  /// Fraction of rated sessions held out for evaluation.
  double holdout_fraction{0.3};
  std::uint64_t split_seed{2023};
};

/// Evaluation of one model variant.
struct MosEvaluation {
  core::RegressionMetrics full;          // engagement + network features
  core::RegressionMetrics network_only;  // network features only
  core::RegressionMetrics engagement_only;
  core::RegressionMetrics mean_baseline; // predict the training mean
  std::size_t train_sessions{0};
  std::size_t test_sessions{0};
};

class MosPredictor {
 public:
  explicit MosPredictor(MosPredictorConfig config = {});

  /// The paper's minimum rated-subset size for a usable fit.
  static constexpr std::size_t kMinRatedSessions = 30;

  /// Trains on the rated subset of the sessions. Throws std::runtime_error
  /// when fewer than kMinRatedSessions rated sessions exist; the predictor
  /// is left untrained (never with a stale earlier model) in that case.
  /// Retraining on new data is always safe.
  void train(std::span<const confsim::ParticipantRecord> sessions);

  [[nodiscard]] bool trained() const { return trained_; }

  /// Returns to the untrained state, dropping any fitted model.
  void reset();

  /// Predicts MOS for any session (rated or not). Throws std::logic_error
  /// when untrained.
  [[nodiscard]] double predict(const confsim::ParticipantRecord& rec) const;

  /// Train/test evaluation with baselines.
  [[nodiscard]] MosEvaluation evaluate(
      std::span<const confsim::ParticipantRecord> sessions) const;

  /// The 7 features: presence, cam, mic, latency, loss, jitter, bandwidth
  /// (the last four are session means). A stack array, filled either from
  /// a record or from one row of a shard's columns; the model reads
  /// nothing else.
  static constexpr std::size_t kNumFeatures = 7;
  using Features = std::array<double, kNumFeatures>;
  [[nodiscard]] static Features features(
      const confsim::ParticipantRecord& rec);

  /// The one prediction formula: intercept + sum of coef[i] * f[i], added
  /// in index order, clamped into [1, 5]. Every predict() overload ends
  /// here, so a session gets the bit-identical value whichever way its
  /// features were read. Requires trained() (callers check it once, not
  /// per row). Scan kernels call it once per row; unrolling it and the
  /// column gather below (GCC's -O2 leaves 7-trip loops rolled) cut the
  /// per-row cost from ~12 ns to ~4 ns on x86-64.
  [[nodiscard]] double predict(const Features& f) const {
    double acc = intercept_;
#pragma GCC unroll 7
    for (std::size_t i = 0; i < kNumFeatures; ++i) acc += coef_[i] * f[i];
    return core::clamp_mos(core::Mos{acc}).score();
  }

  /// The seven feature columns of one shard, in features() order: the
  /// column-store twin of features(rec), resolved once per shard scan.
  using FeatureColumns = std::array<const double*, kNumFeatures>;
  [[nodiscard]] static FeatureColumns feature_columns(
      const SessionColumns& cols);
  /// Predicts row `row` of the shard `cols` was resolved from; equal to
  /// predict(cols.record(row)) bit for bit. Requires trained().
  [[nodiscard]] double predict(const FeatureColumns& cols,
                               std::size_t row) const {
    Features f;
#pragma GCC unroll 7
    for (std::size_t i = 0; i < kNumFeatures; ++i) f[i] = cols[i][row];
    return predict(f);
  }

 private:
  MosPredictorConfig config_;
  /// The fitted model, copied out of core::LinearModel at train().
  double intercept_{0.0};
  Features coef_{};
  bool trained_{false};
};

}  // namespace usaas::service
