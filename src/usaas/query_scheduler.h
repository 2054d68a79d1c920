// Admission control in front of QueryService: per-tenant token buckets,
// EDF cross-tenant queueing, circuit breakers, and degrade-before-shed
// under saturation.
//
// The §5 USaaS front-end is multi-tenant by construction: operator
// dashboards, ad-hoc analyst queries and abusive crawlers share one
// corpus. The paper's user-centric framing cuts both ways — users need
// answers at interactive latency, AND a measurement service has to stay
// honest about what it served when it could not afford the fresh answer.
// So the scheduler:
//
//   * meters each tenant through a token bucket (rate/burst from
//     SchedulerConfig; unknown tenants get the default QoS). A query's
//     token cost is estimated BEFORE admission from the fingerprint-keyed
//     slow-query history, falling back to the summary-vs-scan fan-out
//     predictor, then scaled by the tenant's cost bias (see below);
//   * queues saturated submissions in ONE deadline-ordered cross-tenant
//     FairQueue (earliest admission deadline wakes first) — weighting
//     stays in each bucket's rate, ordering under contention is global
//     EDF;
//   * propagates the caller's remaining budget into QueryService::run as
//     a RunBudget, so a request that expires mid-computation is
//     abandoned at the next phase boundary (AdmissionOutcome::kExpired)
//     instead of burning pool time on an answer nobody is waiting for;
//   * trips a per-tenant circuit breaker (closed -> open -> half-open,
//     see usaas/circuit_breaker.h) on consecutive shed/expired outcomes:
//     an open tenant short-circuits straight to degrade-or-shed without
//     clogging the queue;
//   * degrades before it sheds: a query that cannot be admitted in time
//     is answered from a pre-version-bump cached Insight when one exists
//     within max_versions_behind, stamped with an explicit
//     Insight::staleness. Only when no degradable answer exists is the
//     query shed — with a Retry-After hint from the bucket's refill
//     estimate (and the breaker's cooldown, when open);
//   * feeds degraded outcomes back into the cost model: a tenant served
//     stale answers `degrade_feedback_threshold` times in a row gets its
//     cost bias multiplied up (capped), so the scheduler stops
//     over-admitting a tenant whose QoS is visibly underprovisioned;
//     each fresh admit decays the bias back toward 1.
//
// Every outcome is counted once, in the scheduler's own stats() (plain
// integers under the scheduler mutex), and the ledger must reconcile
// exactly: admitted + degraded + shed + expired == submitted. The
// usaas_admission_* families on /metrics are rendered from that ledger at
// scrape time (QueryService::attach_families), so the exposition cannot
// drift from it, and they render even under the telemetry kill switch;
// only the wait-time histogram lives in the registry.
//
// Lock ordering: FairQueue::mu_ -> QueryScheduler::mu_ (the queue calls
// the scheduler's try-acquire closure with its own lock held). submit()
// therefore never holds mu_ while calling into the queue, and stats()
// snapshots the queue BEFORE taking mu_. A scrape calls stats() holding
// the service's attached-families mutex; nothing takes that mutex while
// holding either lock.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/scheduler_clock.h"
#include "core/telemetry/metrics.h"
#include "core/token_bucket.h"
#include "usaas/circuit_breaker.h"
#include "usaas/fair_queue.h"
#include "usaas/query_service.h"

namespace usaas::service {

/// Per-tenant rate limit: `rate_per_sec` tokens accrue continuously up to
/// `burst`. One token is roughly one cached/summary-served query (see
/// SchedulerConfig cost knobs).
struct TenantQos {
  double rate_per_sec{50.0};
  double burst{100.0};
};

struct SchedulerConfig {
  /// QoS for tenants without an explicit entry in `tenant_qos`.
  TenantQos default_qos;
  std::map<std::string, TenantQos> tenant_qos;
  /// Admission deadline: the longest a submission may wait for tokens
  /// before the scheduler falls back to degrade-or-shed. A per-call
  /// budget below this bounds the wait further.
  double max_wait_seconds{0.25};
  /// Degrade bound: serve a cached Insight up to this many corpus
  /// versions behind the current one. 0 disables degraded answers
  /// entirely (saturation then sheds, and the shed_with_degradable
  /// tripwire records any answer that was available anyway).
  std::uint64_t max_versions_behind{2};
  /// Cost model: tokens per query. A current-version cache hit costs
  /// `min_cost_tokens`; slow-log history converts at
  /// seconds / `seconds_per_token`; otherwise the structural estimate
  /// charges per summary-answerable and per rescanned month.
  double min_cost_tokens{1.0};
  double summary_month_cost{0.25};
  /// Recalibrated for the columnar session store: a cold month rescan
  /// touches only the columns the query names (~2x+ cheaper than the old
  /// row scan), but still dwarfs a summary merge — ordering stays
  /// cache hit < summary-answerable month < scanned month.
  double scan_month_cost{4.0};
  double seconds_per_token{1e-3};
  /// Per-tenant circuit breaker; failure_threshold 0 disables it.
  CircuitBreaker::Config breaker;
  /// Degrade feedback: after this many CONSECUTIVE stale serves, a
  /// tenant's cost bias is multiplied by `degrade_feedback_factor`
  /// (capped at `cost_bias_max`); every fresh admit decays the bias by
  /// `cost_bias_decay` back toward 1. Threshold 0 disables feedback.
  std::size_t degrade_feedback_threshold{3};
  double degrade_feedback_factor{1.5};
  double cost_bias_max{8.0};
  double cost_bias_decay{0.9};
  /// Clock for refills, deadlines and waiting. nullptr = real steady
  /// clock (owned by the scheduler); tests pass a core::VirtualClock and
  /// every refill/wait becomes deterministic.
  core::SchedulerClock* clock{nullptr};
};

enum class AdmissionOutcome {
  kAdmitted,  ///< Ran fresh through QueryService::run.
  kDegraded,  ///< Served a stale cached Insight (insight.staleness > 0
              ///< possible, always <= max_versions_behind).
  kShed,      ///< Rejected: saturated and nothing degradable was cached.
  kExpired,   ///< The caller's budget ran out — in the queue, or mid-
              ///< computation (the run was abandoned at a phase
              ///< boundary; insight.error == kDeadlineExceeded).
};

[[nodiscard]] constexpr const char* to_string(AdmissionOutcome o) {
  switch (o) {
    case AdmissionOutcome::kAdmitted: return "admitted";
    case AdmissionOutcome::kDegraded: return "degraded";
    case AdmissionOutcome::kShed: return "shed";
    case AdmissionOutcome::kExpired: return "expired";
  }
  return "unknown";
}

/// One submission's verdict. `insight` is meaningful for kAdmitted and
/// kDegraded; a shed or expired query carries no answer (an expired one
/// carries the error skeleton).
struct ScheduledResult {
  AdmissionOutcome outcome{AdmissionOutcome::kShed};
  Insight insight;
  /// Request trace ID (0 when tracing is disabled): every submission —
  /// admitted, degraded, shed or expired — records exactly one
  /// TraceRecord under this ID when the tracer samples it.
  std::uint64_t trace_id{0};
  /// Time spent inside admission (token waits), by the scheduler clock.
  double wait_seconds{0.0};
  /// Tokens this query was estimated to cost (after the tenant bias).
  double cost_tokens{0.0};
  /// On kShed: when retrying could plausibly succeed — the bucket's
  /// refill estimate, stretched to the breaker's probe time when open.
  /// The HTTP listener renders this as the 429 Retry-After header.
  double retry_after_seconds{0.0};
  /// True when an open circuit breaker bypassed admission entirely.
  bool breaker_short_circuit{false};
};

struct TenantSnapshot {
  double tokens{0.0};
  std::size_t queue_depth{0};
  CircuitBreaker::State breaker{CircuitBreaker::State::kClosed};
  double cost_bias{1.0};
  std::size_t consecutive_stale{0};
};

struct SchedulerStats {
  std::uint64_t submitted{0};
  std::uint64_t admitted{0};
  std::uint64_t degraded{0};
  std::uint64_t shed{0};
  std::uint64_t expired{0};
  /// Tripwire: queries shed while a degradable cached Insight existed.
  /// Structurally zero while degraded answers are enabled; non-zero only
  /// when max_versions_behind == 0 discards an available answer.
  std::uint64_t shed_with_degradable{0};
  /// Submissions an open breaker sent straight to degrade-or-shed.
  std::uint64_t breaker_short_circuits{0};
  /// Times a tenant's cost bias was bumped by the degrade feedback loop.
  std::uint64_t degrade_feedback_bumps{0};
  /// EDF wait-queue counters.
  FairQueue::Stats fair_queue;
  std::map<std::string, TenantSnapshot> tenants;

  /// The accounting identity the exposition layer is checked against.
  [[nodiscard]] bool reconciles() const {
    return admitted + degraded + shed + expired == submitted;
  }
};

class QueryScheduler {
 public:
  /// Borrows the service (must outlive the scheduler) and attaches the
  /// usaas_admission_* families to its exposition, so they exist (at
  /// zero) from the first scrape.
  explicit QueryScheduler(QueryService& service, SchedulerConfig config = {});

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Admit-or-degrade-or-shed one query for `tenant`. `budget_seconds`
  /// is the caller's total remaining patience: it bounds the admission
  /// wait (together with max_wait_seconds) AND rides into
  /// QueryService::run as a cooperative-cancellation deadline, so a
  /// request that expires mid-scan is abandoned (kExpired) instead of
  /// finishing an answer nobody will read. The default (infinite) budget
  /// reproduces PR 7 semantics exactly: expired stays 0. Thread-safe;
  /// QueryService::run executes outside every scheduler lock, so
  /// admitted queries from different tenants still fan out in parallel.
  /// `trace_id` 0 (the default) mints a fresh ID from the service's
  /// tracer; the HTTP listener passes an adopted X-Request-Id instead so
  /// wire traces correlate with the caller's own request log.
  [[nodiscard]] ScheduledResult submit(
      const std::string& tenant, const Query& query,
      double budget_seconds = std::numeric_limits<double>::infinity(),
      std::uint64_t trace_id = 0);

  /// The raw (bias-free) token cost submit() would start from right now.
  [[nodiscard]] double estimate_cost(const Query& query) const;

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }
  /// The scheduler's clock (the configured one, or the owned steady
  /// clock) — the time base every trace/journal timestamp shares.
  [[nodiscard]] core::SchedulerClock& clock() const { return *clock_; }

 private:
  struct TenantState {
    core::TokenBucket bucket;
    std::size_t queue_depth{0};
    CircuitBreaker breaker;
    double cost_bias{1.0};
    std::size_t consecutive_stale{0};
  };

  [[nodiscard]] double cost_tokens(const QueryCostEstimate& est) const;
  /// Finds or creates the tenant's bucket (caller holds mu_). References
  /// stay valid forever: tenants are never erased and std::map nodes do
  /// not move.
  [[nodiscard]] TenantState& tenant_state_locked(const std::string& tenant);
  /// Tally one outcome into totals_ and stamp the breaker /
  /// feedback state; breaker transitions and cost-bias moves are also
  /// journaled (with `trace_id` as the causal back-link). Caller holds
  /// mu_; the journal's own mutex is a leaf below it.
  void record_outcome_locked(const std::string& tenant, TenantState& state,
                             AdmissionOutcome outcome, bool short_circuit,
                             double now, std::uint64_t trace_id);
  /// submit() minus trace assembly; flags report FairQueue verdicts the
  /// ScheduledResult does not carry (parked => "queued", unpayable).
  [[nodiscard]] ScheduledResult submit_impl(const std::string& tenant,
                                            const Query& query,
                                            double budget_seconds,
                                            std::uint64_t trace_id,
                                            bool& queued, bool& unpayable);
  /// The usaas_admission_* families, rendered from one stats() snapshot.
  void append_families(
      std::vector<core::telemetry::MetricFamily>& families) const;

  QueryService& service_;
  SchedulerConfig config_;
  std::unique_ptr<core::SteadyClock> owned_clock_;
  core::SchedulerClock* clock_{nullptr};
  /// The EDF wait queue every saturated submission parks in.
  std::unique_ptr<FairQueue> queue_;
  /// A distribution, with no twin in the ledger: the registry keeps it.
  core::telemetry::Histogram wait_seconds_;

  mutable std::mutex mu_;
  std::map<std::string, TenantState> tenants_;
  SchedulerStats totals_;  ///< The ledger (tenants filled by stats()).
  /// Last member: attached after, and detached before, everything
  /// append_families() reads.
  QueryService::FamilyAttachment families_;
};

}  // namespace usaas::service
