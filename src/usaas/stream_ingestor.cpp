#include "usaas/stream_ingestor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <thread>
#include <tuple>
#include <type_traits>

#include "core/telemetry/trace.h"

namespace usaas::service {

namespace {

/// The feed's plausible civil-time envelope. Anything outside is a
/// producer bug (unset field, clock garbage), not a signal — including the
/// default-constructed 1970-01-01 of a record whose date was never set.
[[nodiscard]] bool date_in_range(const core::Date& d) {
  return d.year() >= 2000 && d.year() <= 2099;
}

[[nodiscard]] bool any_nan(const netsim::MetricAggregate& a) {
  return std::isnan(a.mean) || std::isnan(a.median) || std::isnan(a.p95);
}

[[nodiscard]] bool any_negative(const netsim::MetricAggregate& a) {
  return a.mean < 0.0 || a.median < 0.0 || a.p95 < 0.0;
}

template <typename Fn>
void for_each_aggregate(const netsim::SessionNetworkSummary& net, Fn&& fn) {
  fn(net.latency_ms);
  fn(net.loss_pct);
  fn(net.jitter_ms);
  fn(net.bandwidth_mbps);
}

[[nodiscard]] bool whitespace_only(const std::string& text) {
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

/// Lets a held mutex go for its scope, then takes it back (also when the
/// scope throws).
class Unlocked {
 public:
  explicit Unlocked(std::mutex& mu) : mu_{mu} { mu_.unlock(); }
  ~Unlocked() { mu_.lock(); }
  Unlocked(const Unlocked&) = delete;
  Unlocked& operator=(const Unlocked&) = delete;

 private:
  std::mutex& mu_;
};

}  // namespace

std::optional<QuarantineReason> validate_record(
    const confsim::CallRecord& call) {
  if (!date_in_range(call.start.date)) {
    return QuarantineReason::kDateOutOfRange;
  }
  // Reason priority is the enum order: one full pass per reason so a
  // record broken several ways lands on the highest-priority one.
  bool nan = false;
  bool negative = false;
  bool engagement_high = false;
  bool mos_bad = false;
  for (const confsim::ParticipantRecord& rec : call.participants) {
    for_each_aggregate(rec.network, [&](const netsim::MetricAggregate& a) {
      nan = nan || any_nan(a);
      negative = negative || any_negative(a);
    });
    for (const double pct : {rec.presence_pct, rec.cam_on_pct,
                             rec.mic_on_pct}) {
      nan = nan || std::isnan(pct);
      negative = negative || pct < 0.0;
      engagement_high = engagement_high || pct > 100.0;
    }
    if (rec.mos) {
      const double score = rec.mos->score();
      nan = nan || std::isnan(score);
      mos_bad = mos_bad || score < 1.0 || score > 5.0;
    }
  }
  if (nan) return QuarantineReason::kNanMetric;
  if (negative) return QuarantineReason::kNegativeMetric;
  if (engagement_high) return QuarantineReason::kEngagementOutOfRange;
  if (mos_bad) return QuarantineReason::kMosOutOfRange;
  return std::nullopt;
}

std::optional<QuarantineReason> validate_record(const social::Post& post) {
  if (!date_in_range(post.date)) return QuarantineReason::kDateOutOfRange;
  if (whitespace_only(post.title) && whitespace_only(post.body)) {
    return QuarantineReason::kEmptyPostText;
  }
  return std::nullopt;
}

namespace {

/// Injected corruption, cycling through every poison shape the validator
/// knows so fault runs exercise each quarantine reason.
void corrupt(confsim::CallRecord& call, std::uint64_t kind) {
  switch (kind % 4) {
    case 0:
      if (!call.participants.empty()) {
        call.participants.front().network.latency_ms.mean =
            std::numeric_limits<double>::quiet_NaN();
      }
      return;
    case 1:
      if (!call.participants.empty()) {
        call.participants.front().network.loss_pct.mean = -5.0;
      }
      return;
    case 2:
      call.start.date = core::Date{};  // 1970: out of range
      return;
    default:
      if (!call.participants.empty()) {
        call.participants.front().presence_pct = 250.0;
      }
      return;
  }
}

void corrupt(social::Post& post, std::uint64_t kind) {
  if (kind % 2 == 0) {
    post.title.clear();
    post.body = "   ";
  } else {
    post.date = core::Date{};  // 1970: out of range
  }
}

}  // namespace

StreamIngestor::StreamIngestor(QueryService& service,
                               StreamIngestorConfig config,
                               core::FaultInjector* faults)
    : service_{service},
      config_{config},
      faults_{faults},
      families_{service.attach_families(
          [this](std::vector<core::telemetry::MetricFamily>& families) {
            append_families(families);
          })} {
  config_.call_capacity = std::max<std::size_t>(1, config_.call_capacity);
  config_.post_capacity = std::max<std::size_t>(1, config_.post_capacity);
  config_.call_flush_watermark = std::clamp<std::size_t>(
      config_.call_flush_watermark, 1, config_.call_capacity);
  config_.post_flush_watermark = std::clamp<std::size_t>(
      config_.post_flush_watermark, 1, config_.post_capacity);
  config_.max_flush_attempts =
      std::max<std::size_t>(1, config_.max_flush_attempts);
  config_.max_block_rounds = std::max<std::size_t>(1, config_.max_block_rounds);
  core::telemetry::Registry& reg = service_.telemetry_registry();
  flush_calls_seconds_ =
      reg.histogram("usaas_stream_flush_seconds",
                    "Successful staging-buffer flush latency",
                    {{"corpus", "calls"}});
  flush_posts_seconds_ =
      reg.histogram("usaas_stream_flush_seconds",
                    "Successful staging-buffer flush latency",
                    {{"corpus", "posts"}});
  backoff_seconds_ = reg.histogram(
      "usaas_stream_backoff_seconds",
      "Exponential-backoff sleeps between flush retry attempts");
}

template <typename Rec>
PushOutcome StreamIngestor::push_locked(const Rec& record) {
  constexpr bool kCalls = std::is_same_v<Rec, confsim::CallRecord>;
  constexpr Corpus corpus = kCalls ? Corpus::kCalls : Corpus::kPosts;
  std::deque<Rec>& staged =
      std::get<std::deque<Rec>&>(std::tie(staged_calls_, staged_posts_));
  const Rec* rec = &record;
  Rec corrupted;
  if (faults_ != nullptr && faults_->corrupt_this_record()) {
    corrupted = record;
    corrupt(corrupted, corruption_cursor_++);
    rec = &corrupted;
  }
  if (const auto reason = validate_record(*rec)) {
    if constexpr (kCalls) {
      quarantine_record({QuarantinedRecord::Corpus::kCall, *reason,
                         rec->start.date, rec->call_id});
    } else {
      quarantine_record(
          {QuarantinedRecord::Corpus::kPost, *reason, rec->date, rec->id});
    }
    return PushOutcome::kQuarantined;
  }
  if (staged.size() >=
          (kCalls ? config_.call_capacity : config_.post_capacity) &&
      !make_room(corpus)) {
    ++stats_.health.rejected;
    return PushOutcome::kRejected;
  }
  staged.push_back(*rec);
  ++stats_.health.accepted;
  if (staged.size() >= (kCalls ? config_.call_flush_watermark
                               : config_.post_flush_watermark)) {
    flush_corpus(corpus);  // failure leaves records staged
  }
  return PushOutcome::kAccepted;
}

template <typename Rec>
std::size_t StreamIngestor::push_span(std::span<const Rec> records) {
  const std::scoped_lock lock{push_mu_, mu_};
  std::size_t accepted = 0;
  for (const Rec& record : records) {
    const PushOutcome outcome = push_locked(record);
    if (outcome == PushOutcome::kRejected) break;
    if (outcome == PushOutcome::kAccepted) ++accepted;
  }
  return accepted;
}

PushOutcome StreamIngestor::push(const confsim::CallRecord& call) {
  const std::scoped_lock lock{push_mu_, mu_};
  return push_locked(call);
}

PushOutcome StreamIngestor::push(const social::Post& post) {
  const std::scoped_lock lock{push_mu_, mu_};
  return push_locked(post);
}

std::size_t StreamIngestor::push_many(
    std::span<const confsim::CallRecord> calls) {
  return push_span(calls);
}

std::size_t StreamIngestor::push_many(std::span<const social::Post> posts) {
  return push_span(posts);
}

bool StreamIngestor::flush() {
  const std::scoped_lock lock{push_mu_, mu_};
  const bool calls_ok = flush_corpus(Corpus::kCalls);
  const bool posts_ok = flush_corpus(Corpus::kPosts);
  return calls_ok && posts_ok;
}

bool StreamIngestor::make_room(Corpus corpus) {
  switch (config_.backpressure) {
    case BackpressurePolicy::kReject:
      return false;
    case BackpressurePolicy::kDropOldest:
      if (corpus == Corpus::kCalls) {
        staged_calls_.pop_front();
      } else {
        staged_posts_.pop_front();
      }
      ++stats_.health.dropped;
      return true;
    case BackpressurePolicy::kBlock: {
      ++stats_.blocked_pushes;
      for (std::size_t round = 0; round < config_.max_block_rounds; ++round) {
        if (flush_corpus(corpus)) return true;
      }
      return false;
    }
  }
  return false;
}

bool StreamIngestor::flush_corpus(Corpus corpus) {
  const bool calls = corpus == Corpus::kCalls;
  const std::size_t staged =
      calls ? staged_calls_.size() : staged_posts_.size();
  bool& degraded = calls ? degraded_calls_ : degraded_posts_;
  if (staged == 0) {
    degraded = false;
    return true;
  }
  for (std::size_t attempt = 0; attempt < config_.max_flush_attempts;
       ++attempt) {
    if (attempt > 0) {
      // Exponential backoff between attempts, capped. Doubling with a
      // halfway guard instead of a shift: a shift by (attempt - 1) would
      // be UB past 63 attempts, and even a clamped shift overflows when
      // retry_backoff is large — overflow here produced a *negative*
      // backoff, silently skipping the sleep and the histogram sample.
      ++stats_.health.flush_retries;
      ++stats_.backoff_waits;
      auto backoff = std::min(config_.retry_backoff, config_.max_backoff);
      for (std::size_t doublings = 1;
           doublings < attempt && backoff.count() > 0 &&
           backoff < config_.max_backoff;
           ++doublings) {
        backoff = backoff <= config_.max_backoff / 2 ? backoff * 2
                                                     : config_.max_backoff;
      }
      if (backoff > std::chrono::milliseconds{0}) {
        backoff_seconds_.observe(
            std::chrono::duration<double>(backoff).count());
        const Unlocked unlocked{mu_};
        std::this_thread::sleep_for(backoff);
      }
    }
    if (faults_ != nullptr) {
      const auto delay = faults_->flush_delay();
      if (delay > std::chrono::milliseconds{0}) {
        const Unlocked unlocked{mu_};
        std::this_thread::sleep_for(delay);
      }
      if (faults_->fail_this_flush()) {
        ++stats_.health.flush_failures;
        continue;
      }
    }
    if (calls) {
      core::telemetry::TraceSpan span{flush_calls_seconds_};
      const std::vector<confsim::CallRecord> batch{staged_calls_.begin(),
                                                   staged_calls_.end()};
      {
        const Unlocked unlocked{mu_};
        service_.ingest_calls(batch);
      }
      staged_calls_.clear();
    } else {
      core::telemetry::TraceSpan span{flush_posts_seconds_};
      const std::vector<social::Post> batch{staged_posts_.begin(),
                                            staged_posts_.end()};
      {
        const Unlocked unlocked{mu_};
        service_.ingest_posts(batch);
      }
      staged_posts_.clear();
    }
    stats_.health.flushed += staged;
    ++stats_.health.flushes;
    degraded = false;
    return true;
  }
  degraded = true;
  return false;
}

void StreamIngestor::quarantine_record(QuarantinedRecord record) {
  ++stats_.health.quarantined;
  ++stats_.quarantined_by_reason[static_cast<std::size_t>(record.reason)];
  if (dead_letter_.size() >= config_.quarantine_capacity) {
    dead_letter_.pop_front();
    ++stats_.quarantine_evicted;
  }
  dead_letter_.push_back(record);
}

StreamIngestor::Stats StreamIngestor::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  Stats out = stats_;
  out.health.staged = staged_calls_.size() + staged_posts_.size();
  out.health.degraded = degraded_calls_ || degraded_posts_;
  return out;
}

void StreamIngestor::append_families(
    std::vector<core::telemetry::MetricFamily>& families) const {
  using core::telemetry::floating_sample;
  using core::telemetry::integer_sample;
  using core::telemetry::MetricKind;
  const Stats ledger = stats();
  const StreamHealth& h = ledger.health;
  const auto add = [&](const char* name, const char* help, MetricKind kind,
                       std::vector<core::telemetry::Sample> samples) {
    families.push_back({name, help, kind, std::move(samples)});
  };
  add("usaas_stream_records_total", "Streaming front-end record outcomes",
      MetricKind::kCounter,
      {integer_sample("outcome=\"accepted\"", h.accepted),
       integer_sample("outcome=\"flushed\"", h.flushed),
       integer_sample("outcome=\"quarantined\"", h.quarantined),
       integer_sample("outcome=\"dropped\"", h.dropped),
       integer_sample("outcome=\"rejected\"", h.rejected)});
  add("usaas_stream_flushes_total", "Flush rounds, by result",
      MetricKind::kCounter,
      {integer_sample("result=\"ok\"", h.flushes),
       integer_sample("result=\"failed\"", h.flush_failures),
       integer_sample("result=\"retried\"", h.flush_retries)});
  add("usaas_stream_backpressure_total",
      "Backpressure events at the streaming front-end (blocked-push: a push "
      "waited on a full kBlock buffer; backoff-wait: a flush retry slept)",
      MetricKind::kCounter,
      {integer_sample("kind=\"blocked_push\"", ledger.blocked_pushes),
       integer_sample("kind=\"backoff_wait\"", ledger.backoff_waits)});
  add("usaas_stream_staged_records",
      "Records accepted but not yet queryable (snapshot staleness)",
      MetricKind::kGauge,
      {floating_sample("", static_cast<double>(h.staged))});
  add("usaas_stream_degraded", "1 while the last flush round failed outright",
      MetricKind::kGauge, {floating_sample("", h.degraded ? 1.0 : 0.0)});
}

std::vector<StreamIngestor::QuarantinedRecord> StreamIngestor::quarantine()
    const {
  const std::lock_guard<std::mutex> lock{mu_};
  return {dead_letter_.begin(), dead_letter_.end()};
}

}  // namespace usaas::service
