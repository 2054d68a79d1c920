#include "core/fault_injector.h"

namespace usaas::core {

FaultInjector::FaultInjector(Config config)
    : config_{config}, rng_{config.seed} {}

bool FaultInjector::fail_this_flush() {
  const std::lock_guard<std::mutex> lock{mu_};
  const std::size_t attempt = flush_attempts_seen_++;
  bool fail = attempt < config_.fail_first_flushes;
  if (!fail && config_.flush_failure_p > 0.0) {
    fail = rng_.bernoulli(config_.flush_failure_p);
  }
  if (fail) ++flush_failures_;
  return fail;
}

std::chrono::milliseconds FaultInjector::flush_delay() {
  const std::lock_guard<std::mutex> lock{mu_};
  if (config_.slow_flush_p <= 0.0 ||
      config_.slow_flush_delay <= std::chrono::milliseconds{0}) {
    return std::chrono::milliseconds{0};
  }
  if (!rng_.bernoulli(config_.slow_flush_p)) {
    return std::chrono::milliseconds{0};
  }
  ++slow_flushes_;
  return config_.slow_flush_delay;
}

bool FaultInjector::corrupt_this_record() {
  const std::lock_guard<std::mutex> lock{mu_};
  if (config_.corrupt_record_p <= 0.0) return false;
  const bool corrupt = rng_.bernoulli(config_.corrupt_record_p);
  if (corrupt) ++corruptions_;
  return corrupt;
}

bool FaultInjector::fail_this_accept() {
  const std::lock_guard<std::mutex> lock{mu_};
  if (config_.accept_failure_p <= 0.0) return false;
  const bool fail = rng_.bernoulli(config_.accept_failure_p);
  if (fail) ++accept_failures_;
  return fail;
}

std::chrono::milliseconds FaultInjector::slow_read_stall() {
  const std::lock_guard<std::mutex> lock{mu_};
  if (config_.slow_read_p <= 0.0 ||
      config_.slow_read_delay <= std::chrono::milliseconds{0}) {
    return std::chrono::milliseconds{0};
  }
  if (!rng_.bernoulli(config_.slow_read_p)) {
    return std::chrono::milliseconds{0};
  }
  ++slow_reads_;
  return config_.slow_read_delay;
}

bool FaultInjector::truncate_this_request() {
  const std::lock_guard<std::mutex> lock{mu_};
  if (config_.partial_request_p <= 0.0) return false;
  const bool truncate = rng_.bernoulli(config_.partial_request_p);
  if (truncate) ++truncated_requests_;
  return truncate;
}

bool FaultInjector::disconnect_before_response() {
  const std::lock_guard<std::mutex> lock{mu_};
  if (config_.disconnect_p <= 0.0) return false;
  const bool disconnect = rng_.bernoulli(config_.disconnect_p);
  if (disconnect) ++disconnects_;
  return disconnect;
}

std::size_t FaultInjector::flush_failures_injected() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return flush_failures_;
}

std::size_t FaultInjector::slow_flushes_injected() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return slow_flushes_;
}

std::size_t FaultInjector::corruptions_injected() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return corruptions_;
}

std::size_t FaultInjector::accept_failures_injected() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return accept_failures_;
}

std::size_t FaultInjector::slow_reads_injected() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return slow_reads_;
}

std::size_t FaultInjector::truncated_requests_injected() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return truncated_requests_;
}

std::size_t FaultInjector::disconnects_injected() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return disconnects_;
}

}  // namespace usaas::core
