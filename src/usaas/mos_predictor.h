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

namespace usaas::service {

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

  /// Predicts MOS for any session (rated or not).
  [[nodiscard]] double predict(const confsim::ParticipantRecord& rec) const;

  /// Train/test evaluation with baselines.
  [[nodiscard]] MosEvaluation evaluate(
      std::span<const confsim::ParticipantRecord> sessions) const;

  /// The 7 features: presence, cam, mic, latency, loss, jitter, bandwidth.
  /// A stack array: predict() runs once per scanned row in predicted-MOS
  /// tallies, so it must not allocate.
  static constexpr std::size_t kNumFeatures = 7;
  using Features = std::array<double, kNumFeatures>;
  [[nodiscard]] static Features features(
      const confsim::ParticipantRecord& rec);

 private:
  MosPredictorConfig config_;
  core::LinearModel model_;
  bool trained_{false};
};

}  // namespace usaas::service
