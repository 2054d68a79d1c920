#include "usaas/query_scheduler.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

namespace usaas::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The enum values are the /debug/traces wire contract; convert
/// explicitly so a reordering on either side is a compile-visible edit
/// here, not a silent JSON corruption.
[[nodiscard]] core::telemetry::TraceOutcome trace_outcome(
    AdmissionOutcome o) {
  switch (o) {
    case AdmissionOutcome::kAdmitted:
      return core::telemetry::TraceOutcome::kAdmitted;
    case AdmissionOutcome::kDegraded:
      return core::telemetry::TraceOutcome::kDegraded;
    case AdmissionOutcome::kShed:
      return core::telemetry::TraceOutcome::kShed;
    case AdmissionOutcome::kExpired:
      return core::telemetry::TraceOutcome::kExpired;
  }
  return core::telemetry::TraceOutcome::kShed;
}

[[nodiscard]] core::telemetry::TracePath trace_path(ServedBy s) {
  switch (s) {
    case ServedBy::kCache: return core::telemetry::TracePath::kCache;
    case ServedBy::kSummaryMerge:
      return core::telemetry::TracePath::kSummaryMerge;
    case ServedBy::kScan: return core::telemetry::TracePath::kScan;
    case ServedBy::kMixed: return core::telemetry::TracePath::kMixed;
    case ServedBy::kInvalid: return core::telemetry::TracePath::kInvalid;
    case ServedBy::kExpired: return core::telemetry::TracePath::kExpired;
  }
  return core::telemetry::TracePath::kNone;
}

[[nodiscard]] std::uint32_t clamp_u32(std::uint64_t v) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(v, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

QueryScheduler::QueryScheduler(QueryService& service, SchedulerConfig config)
    : service_{service},
      config_{std::move(config)},
      owned_clock_{config_.clock == nullptr
                       ? std::make_unique<core::SteadyClock>()
                       : nullptr},
      clock_{config_.clock != nullptr ? config_.clock : owned_clock_.get()},
      queue_{std::make_unique<FairQueue>(*clock_)},
      wait_seconds_{service.telemetry_registry().histogram(
          "usaas_admission_wait_seconds",
          "Time a submission spent waiting for tokens before resolution")},
      families_{service.attach_families(
          [this](std::vector<core::telemetry::MetricFamily>& families) {
            append_families(families);
          })} {}

double QueryScheduler::cost_tokens(const QueryCostEstimate& est) const {
  // A current-version cache hit is O(1) no matter how wide the window:
  // charge the floor so repeated dashboards never starve.
  if (est.cached) return config_.min_cost_tokens;
  // Observed history beats the structural guess: the slow-query log keys
  // on the same canonical fingerprint submit() is about to run.
  if (est.slow_log_seconds >= 0.0) {
    return std::max(config_.min_cost_tokens,
                    est.slow_log_seconds / config_.seconds_per_token);
  }
  const double structural =
      config_.summary_month_cost * static_cast<double>(est.summary_months) +
      config_.scan_month_cost * static_cast<double>(est.scan_months);
  return std::max(config_.min_cost_tokens, structural);
}

double QueryScheduler::estimate_cost(const Query& query) const {
  return cost_tokens(service_.estimate_query(query));
}

QueryScheduler::TenantState& QueryScheduler::tenant_state_locked(
    const std::string& tenant) {
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  const auto qos_it = config_.tenant_qos.find(tenant);
  const TenantQos qos = qos_it != config_.tenant_qos.end()
                            ? qos_it->second
                            : config_.default_qos;
  TenantState state{
      core::TokenBucket{qos.rate_per_sec, qos.burst, clock_->now()}, 0,
      CircuitBreaker{config_.breaker}};
  return tenants_.emplace(tenant, std::move(state)).first->second;
}

void QueryScheduler::record_outcome_locked(const std::string& tenant,
                                           TenantState& state,
                                           AdmissionOutcome outcome,
                                           bool short_circuit, double now,
                                           std::uint64_t trace_id) {
  const CircuitBreaker::State breaker_before = state.breaker.state();
  const double bias_before = state.cost_bias;
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      ++totals_.admitted;
      state.breaker.record_success();
      state.consecutive_stale = 0;
      // A tenant getting fresh answers again earns its bias back.
      if (state.cost_bias > 1.0) {
        state.cost_bias =
            std::max(1.0, state.cost_bias * config_.cost_bias_decay);
      }
      break;
    case AdmissionOutcome::kDegraded:
      ++totals_.degraded;
      // Streak-neutral for the breaker — serving stale is the system
      // working as designed — EXCEPT when this was the half-open probe:
      // an answer (even a stale one) means the tenant's service is
      // functioning, so the probe resolves as success instead of leaving
      // the breaker wedged with a probe forever in flight.
      if (!short_circuit &&
          state.breaker.state() == CircuitBreaker::State::kHalfOpen) {
        state.breaker.record_success();
      }
      // It IS underprovisioning evidence for the cost model, though —
      // enough of it in a row bumps the bias.
      if (config_.degrade_feedback_threshold > 0 &&
          ++state.consecutive_stale >= config_.degrade_feedback_threshold) {
        state.consecutive_stale = 0;
        state.cost_bias = std::min(
            state.cost_bias * config_.degrade_feedback_factor,
            config_.cost_bias_max);
        ++totals_.degrade_feedback_bumps;
      }
      break;
    case AdmissionOutcome::kShed:
      ++totals_.shed;
      // A short-circuited shed is the breaker's own output — feeding it
      // back would re-arm the cooldown forever.
      if (!short_circuit) state.breaker.record_failure(now);
      break;
    case AdmissionOutcome::kExpired:
      ++totals_.expired;
      if (!short_circuit) state.breaker.record_failure(now);
      break;
  }
  // Journal the state changes this outcome caused (the journal's mutex
  // is a leaf under mu_; a disabled journal returns without locking).
  core::telemetry::EventJournal& journal = service_.journal();
  if (journal.enabled()) {
    const CircuitBreaker::State breaker_after = state.breaker.state();
    if (breaker_after != breaker_before) {
      journal.record(core::telemetry::JournalEventKind::kBreakerTransition,
                     tenant, trace_id, now,
                     static_cast<double>(breaker_before),
                     static_cast<double>(breaker_after));
    }
    if (state.cost_bias > bias_before) {
      journal.record(core::telemetry::JournalEventKind::kCostBiasBump,
                     tenant, trace_id, now, bias_before, state.cost_bias);
    } else if (state.cost_bias < bias_before) {
      journal.record(core::telemetry::JournalEventKind::kCostBiasDecay,
                     tenant, trace_id, now, bias_before, state.cost_bias);
    }
  }
}

ScheduledResult QueryScheduler::submit(const std::string& tenant,
                                       const Query& query,
                                       double budget_seconds,
                                       std::uint64_t trace_id) {
  core::telemetry::RequestTracer& tracer = service_.tracer();
  if (trace_id == 0) trace_id = tracer.mint_id();  // 0 when tracing is off
  bool queued = false;
  bool unpayable = false;
  ScheduledResult result =
      submit_impl(tenant, query, budget_seconds, trace_id, queued, unpayable);
  result.trace_id = trace_id;
  if (tracer.enabled()) {
    core::telemetry::TraceRecord rec{};
    rec.trace_id = trace_id;
    rec.corpus_version = result.insight.corpus_version;
    rec.staleness = result.insight.staleness;
    rec.wait_seconds = result.wait_seconds;
    rec.cost_tokens = result.cost_tokens;
    rec.retry_after_seconds = result.retry_after_seconds;
    // A degraded answer carries the ORIGINAL run's execution report (it
    // came out of the insight cache); only an execution stamped with this
    // request's trace ID describes work done on this request's behalf.
    const QueryExecution& exec = result.insight.execution;
    if (exec.trace_id == trace_id) {
      rec.run_seconds = exec.seconds;
      rec.validate_seconds = exec.validate_seconds;
      rec.cache_probe_seconds = exec.cache_probe_seconds;
      rec.implicit_seconds = exec.implicit_seconds;
      rec.social_seconds = exec.social_seconds;
      rec.shards_from_summary = clamp_u32(exec.shards_from_summary);
      rec.shards_scanned = clamp_u32(exec.shards_scanned);
      rec.post_shards_from_summary =
          clamp_u32(exec.post_shards_from_summary);
      rec.post_shards_scanned = clamp_u32(exec.post_shards_scanned);
    }
    rec.outcome =
        static_cast<std::uint8_t>(trace_outcome(result.outcome));
    // How THIS request was answered: admitted runs report their own
    // path, a degraded answer is by definition a cache serve, a shed
    // carries no answer at all.
    core::telemetry::TracePath path = core::telemetry::TracePath::kNone;
    switch (result.outcome) {
      case AdmissionOutcome::kAdmitted:
        path = trace_path(result.insight.execution.served_by);
        break;
      case AdmissionOutcome::kDegraded:
        path = core::telemetry::TracePath::kCache;
        break;
      case AdmissionOutcome::kShed:
        path = core::telemetry::TracePath::kNone;
        break;
      case AdmissionOutcome::kExpired:
        path = core::telemetry::TracePath::kExpired;
        break;
    }
    rec.served_by = static_cast<std::uint8_t>(path);
    if (queued) rec.flags |= core::telemetry::TraceRecord::kFlagQueued;
    if (result.breaker_short_circuit) {
      rec.flags |= core::telemetry::TraceRecord::kFlagBreakerShortCircuit;
    }
    if (unpayable) {
      rec.flags |= core::telemetry::TraceRecord::kFlagUnpayable;
    }
    rec.set_tenant(tenant);
    tracer.record(rec);
  }
  return result;
}

ScheduledResult QueryScheduler::submit_impl(const std::string& tenant,
                                            const Query& query,
                                            double budget_seconds,
                                            std::uint64_t trace_id,
                                            bool& queued, bool& unpayable) {
  // Estimate outside the scheduler mutex: the probe takes the service's
  // read lock and must not serialize other tenants' admissions.
  const QueryCostEstimate est = service_.estimate_query(query);
  const double raw_cost = cost_tokens(est);

  ScheduledResult result;
  const double start = clock_->now();
  // The admission wait is bounded by BOTH the scheduler knob and the
  // caller's total budget; the total deadline additionally rides into
  // the run itself. An infinite budget reproduces PR 7 exactly.
  const double max_wait =
      std::min(config_.max_wait_seconds, std::max(0.0, budget_seconds));
  const double admission_deadline = start + max_wait;
  const double total_deadline =
      budget_seconds == kInf ? kInf : start + budget_seconds;

  TenantState* state = nullptr;
  double cost = raw_cost;
  bool short_circuit = false;
  {
    const std::lock_guard<std::mutex> lock{mu_};
    ++totals_.submitted;
    state = &tenant_state_locked(tenant);
    cost = raw_cost * state->cost_bias;
    const CircuitBreaker::State breaker_before = state->breaker.state();
    if (!state->breaker.allow(clock_->now())) {
      short_circuit = true;
      ++totals_.breaker_short_circuits;
    }
    // allow() may have transitioned open -> half-open; journal it.
    const CircuitBreaker::State breaker_after = state->breaker.state();
    if (breaker_after != breaker_before && service_.journal().enabled()) {
      service_.journal().record(
          core::telemetry::JournalEventKind::kBreakerTransition, tenant,
          trace_id, start, static_cast<double>(breaker_before),
          static_cast<double>(breaker_after));
    }
  }
  result.cost_tokens = cost;
  result.breaker_short_circuit = short_circuit;

  bool acquired = false;
  if (!short_circuit) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      ++state->queue_depth;
    }
    // Lock ordering: the queue holds FairQueue::mu_ while calling this
    // closure, which takes QueryScheduler::mu_ — never the reverse.
    const FairQueue::WaitReport out =
        queue_->wait_reported(admission_deadline, [&](double now) -> double {
          const std::lock_guard<std::mutex> lock{mu_};
          state->bucket.refill(now);
          if (state->bucket.try_consume(cost)) return 0.0;
          return state->bucket.seconds_until(cost);
        });
    {
      const std::lock_guard<std::mutex> lock{mu_};
      --state->queue_depth;
    }
    acquired = out.outcome == FairQueue::Outcome::kAcquired;
    queued = out.parked;
    unpayable = out.outcome == FairQueue::Outcome::kUnpayable;
  }
  result.wait_seconds = clock_->now() - start;
  wait_seconds_.observe(result.wait_seconds);

  if (acquired) {
    const double now = clock_->now();
    if (now >= total_deadline) {
      // Tokens were spent but the caller is already gone; don't start a
      // computation nobody will read. The tokens are not refunded — the
      // admission machinery DID run on this tenant's behalf.
      const std::lock_guard<std::mutex> lock{mu_};
      record_outcome_locked(tenant, *state, AdmissionOutcome::kExpired,
                            short_circuit, now, trace_id);
      result.outcome = AdmissionOutcome::kExpired;
      return result;
    }
    RunBudget budget;
    if (total_deadline != kInf) {
      budget.clock = clock_;
      budget.deadline = total_deadline;
    }
    budget.trace_id = trace_id;
    result.insight = service_.run(query, budget);
    const double after = clock_->now();
    const std::lock_guard<std::mutex> lock{mu_};
    if (result.insight.error == QueryError::kDeadlineExceeded) {
      record_outcome_locked(tenant, *state, AdmissionOutcome::kExpired,
                            short_circuit, after, trace_id);
      result.outcome = AdmissionOutcome::kExpired;
    } else {
      record_outcome_locked(tenant, *state, AdmissionOutcome::kAdmitted,
                            short_circuit, after, trace_id);
      result.outcome = AdmissionOutcome::kAdmitted;
    }
    return result;
  }

  if (clock_->now() >= total_deadline) {
    // The whole budget drained inside admission: even an O(1) stale
    // answer would arrive after the caller hung up.
    const std::lock_guard<std::mutex> lock{mu_};
    record_outcome_locked(tenant, *state, AdmissionOutcome::kExpired,
                          short_circuit, clock_->now(), trace_id);
    result.outcome = AdmissionOutcome::kExpired;
    return result;
  }

  // Saturated (or breaker-open). Degrade before shedding: any cached
  // answer within the staleness bound beats an error — an open breaker
  // degrades service, it does not black-hole it. With
  // max_versions_behind == 0 the probe still runs (bound 0 = current
  // version only) purely to feed the tripwire: shedding while an answer
  // sat in the cache is the failure mode this scheduler exists to
  // prevent.
  std::optional<Insight> stale =
      service_.find_stale_cached(query, config_.max_versions_behind);
  const std::lock_guard<std::mutex> lock{mu_};
  const double now = clock_->now();
  if (stale.has_value() && config_.max_versions_behind > 0) {
    record_outcome_locked(tenant, *state, AdmissionOutcome::kDegraded,
                          short_circuit, now, trace_id);
    result.outcome = AdmissionOutcome::kDegraded;
    result.insight = *std::move(stale);
    return result;
  }
  record_outcome_locked(tenant, *state, AdmissionOutcome::kShed,
                        short_circuit, now, trace_id);
  if (stale.has_value()) {
    ++totals_.shed_with_degradable;
  }
  // Retry-After: when the bucket will afford this query, stretched to
  // the breaker's probe time while open. Unpayable (cost > burst) has
  // no finite answer — leave the hint at the breaker term alone.
  state->bucket.refill(now);
  double retry = state->bucket.seconds_until(cost);
  if (retry == kInf) retry = 0.0;
  result.retry_after_seconds =
      std::max(retry, state->breaker.seconds_until_probe(now));
  result.outcome = AdmissionOutcome::kShed;
  return result;
}

SchedulerStats QueryScheduler::stats() const {
  // Queue stats first: FairQueue::mu_ must never be taken after mu_
  // (the queue's sweep holds its lock while calling into ours).
  const FairQueue::Stats fq = queue_->stats();
  const std::lock_guard<std::mutex> lock{mu_};
  SchedulerStats out = totals_;
  out.fair_queue = fq;
  for (const auto& [tenant, state] : tenants_) {
    out.tenants[tenant] = {state.bucket.tokens(), state.queue_depth,
                           state.breaker.state(), state.cost_bias,
                           state.consecutive_stale};
  }
  return out;
}

void QueryScheduler::append_families(
    std::vector<core::telemetry::MetricFamily>& families) const {
  using core::telemetry::floating_sample;
  using core::telemetry::integer_sample;
  using core::telemetry::MetricKind;
  using core::telemetry::Sample;
  const SchedulerStats ledger = stats();
  const auto add = [&](const char* name, const char* help, MetricKind kind,
                       std::vector<Sample> samples) {
    families.push_back({name, help, kind, std::move(samples)});
  };
  add("usaas_admission_submitted_total", "Queries entering admission control",
      MetricKind::kCounter, {integer_sample("", ledger.submitted)});
  add("usaas_admission_queries_total",
      "Admission outcomes (admitted: ran fresh; degraded: served a stale "
      "cached insight; shed: rejected; expired: the caller's budget ran out)",
      MetricKind::kCounter,
      {integer_sample("outcome=\"admitted\"", ledger.admitted),
       integer_sample("outcome=\"degraded\"", ledger.degraded),
       integer_sample("outcome=\"shed\"", ledger.shed),
       integer_sample("outcome=\"expired\"", ledger.expired)});
  add("usaas_admission_shed_with_degradable_total",
      "Tripwire: queries shed while a degradable cached insight existed",
      MetricKind::kCounter, {integer_sample("", ledger.shed_with_degradable)});
  add("usaas_admission_breaker_short_circuits_total",
      "Submissions an open circuit breaker sent straight to degrade-or-shed "
      "without waiting for tokens",
      MetricKind::kCounter,
      {integer_sample("", ledger.breaker_short_circuits)});
  add("usaas_admission_degrade_feedback_total",
      "Cost-bias bumps from consecutive stale serves (the degraded-outcome "
      "feedback loop into the cost estimator)",
      MetricKind::kCounter,
      {integer_sample("", ledger.degrade_feedback_bumps)});

  // Tenant names arrive from the wire; sanitize before they become label
  // values (control bytes and unbounded length would otherwise pollute
  // the exposition). Sanitized collisions share a series, which the
  // service's merge folds into one (a safe failure mode for hostile names).
  std::vector<Sample> depth, breaker, bias;
  for (const auto& [tenant, snap] : ledger.tenants) {
    const std::string labels = core::telemetry::render_labels(
        {{"tenant", core::telemetry::sanitize_label_value(tenant)}});
    depth.push_back(
        floating_sample(labels, static_cast<double>(snap.queue_depth)));
    breaker.push_back(
        floating_sample(labels, static_cast<double>(snap.breaker)));
    bias.push_back(floating_sample(labels, snap.cost_bias));
  }
  add("usaas_admission_queue_depth", "Submissions currently waiting for tokens",
      MetricKind::kGauge, std::move(depth));
  add("usaas_admission_breaker_state",
      "Circuit-breaker state (0 closed, 1 open, 2 half-open)",
      MetricKind::kGauge, std::move(breaker));
  add("usaas_admission_cost_bias",
      "Per-tenant cost bias from the degrade feedback loop (1 = unbiased; "
      "decays back after fresh admits)",
      MetricKind::kGauge, std::move(bias));
}

}  // namespace usaas::service
