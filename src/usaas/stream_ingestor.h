// The streaming ingest front-end of §5's live USaaS service.
//
// Batch ingest (PR 2) assumes somebody hands the service a complete,
// clean corpus. A live feed is neither: records arrive one at a time from
// millions of users, burst around exactly the outage events the service
// exists to detect, and a fraction of them are garbage. StreamIngestor
// sits between producers and QueryService:
//
//   producers ──push()──▶ bounded staging buffers ──flush()──▶ QueryService
//                 │                                   (two-pass batch path,
//                 └──▶ dead-letter quarantine          under the corpus
//                      (poison records)                write lock)
//
//   * Staging is bounded per corpus (calls / posts). A buffer flushes
//     through the existing two-pass counted batch pipeline when it
//     reaches the flush watermark, or on an explicit flush() call — the
//     feed never accumulates an unbounded batch in memory.
//   * When producers outrun the flusher (a flush keeps failing and the
//     buffer fills), the configured BackpressurePolicy decides: kBlock
//     retries the flush with exponential backoff inside push(), kDropOldest
//     evicts the oldest staged record, kReject refuses the new one.
//   * Malformed records — NaN/negative metrics, out-of-range dates, empty
//     post text — are quarantined into a capped dead-letter buffer with
//     per-reason counters instead of poisoning shard statistics.
//   * A core::FaultInjector (optional) injects flush failures, slow
//     flushes and record corruption, deterministically, so the failure
//     paths above are testable — including under TSan/ASan.
//
// Determinism: flush slicing is a pure function of the push sequence and
// the watermark, and the two-pass batch pipeline keeps sequential ingest
// order for any batch split (a one-record flush is a batch of one), so a
// single-producer stream yields query results bit-identical to one-shot
// batch ingest of the same records — at any watermark and any thread
// count (test_usaas_streaming holds it to that). push() is thread-safe; with multiple producers the interleaving
// (not the per-producer order) is scheduler-dependent, as in any real feed.
//
// Health (accepted/staged/flushed/quarantined/dropped/rejected/failure
// counters) lives in stats() alone. The ingestor attaches the
// usaas_stream_* families to the service's exposition, rendered from that
// ledger at scrape time, so operators see snapshot staleness next to
// throughput on /metrics.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "confsim/call.h"
#include "core/fault_injector.h"
#include "social/post.h"
#include "usaas/query_service.h"

namespace usaas::service {

/// What push() does when a staging buffer is full and cannot be drained.
enum class BackpressurePolicy {
  /// Retry the flush with exponential backoff inside push() — the caller
  /// blocks until the record fits or max_block_rounds is exhausted (then
  /// the record is rejected and the stream marked degraded).
  kBlock,
  /// Evict the oldest staged record to make room; always accepts.
  kDropOldest,
  /// Refuse the new record immediately.
  kReject,
};

[[nodiscard]] constexpr const char* to_string(BackpressurePolicy p) {
  switch (p) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
    case BackpressurePolicy::kReject: return "reject";
  }
  return "unknown";
}

/// Why a record was quarantined. Priority order: the first matching reason
/// (in declaration order) is recorded when a record is broken several ways.
enum class QuarantineReason {
  kDateOutOfRange,   // before 2000-01-01 or after 2099-12-31 (incl. the
                     // default-constructed 1970 date of an unset field)
  kNanMetric,        // any NaN network metric / engagement / MOS
  kNegativeMetric,   // any negative network metric or engagement
  kEngagementOutOfRange,  // engagement percentage above 100
  kMosOutOfRange,    // sampled MOS outside [1, 5]
  kEmptyPostText,    // post whose title+body is empty or whitespace
};

inline constexpr std::size_t kNumQuarantineReasons = 6;

[[nodiscard]] constexpr const char* to_string(QuarantineReason r) {
  switch (r) {
    case QuarantineReason::kDateOutOfRange: return "date-out-of-range";
    case QuarantineReason::kNanMetric: return "nan-metric";
    case QuarantineReason::kNegativeMetric: return "negative-metric";
    case QuarantineReason::kEngagementOutOfRange:
      return "engagement-out-of-range";
    case QuarantineReason::kMosOutOfRange: return "mos-out-of-range";
    case QuarantineReason::kEmptyPostText: return "empty-post-text";
  }
  return "unknown";
}

/// Outcome of a single push.
enum class PushOutcome {
  kAccepted,     // staged (and possibly flushed)
  kQuarantined,  // failed validation; dead-lettered, shards untouched
  kRejected,     // refused by backpressure (kReject, or kBlock exhausted)
};

struct StreamIngestorConfig {
  /// Staging bounds, in records (calls / posts).
  std::size_t call_capacity{4096};
  std::size_t post_capacity{8192};
  /// Flush when a buffer reaches this many staged records; clamped into
  /// [1, capacity]. 1 flushes every record; capacity flushes only when
  /// full.
  std::size_t call_flush_watermark{1024};
  std::size_t post_flush_watermark{2048};
  BackpressurePolicy backpressure{BackpressurePolicy::kBlock};
  /// Dead-letter bound: oldest quarantined records are evicted past this
  /// (the per-reason counters stay exact).
  std::size_t quarantine_capacity{256};
  /// Flush attempts per flush round: 1 try + (max_flush_attempts - 1)
  /// retries with exponential backoff.
  std::size_t max_flush_attempts{4};
  std::chrono::milliseconds retry_backoff{1};   // doubles per retry...
  std::chrono::milliseconds max_backoff{50};    // ...capped here
  /// kBlock only: flush rounds a full-buffer push endures before giving
  /// up and rejecting the record.
  std::size_t max_block_rounds{3};
};

class StreamIngestor {
 public:
  /// Borrows the service (must outlive the ingestor) and, optionally, a
  /// fault injector (tests; nullptr = no faults).
  explicit StreamIngestor(QueryService& service,
                          StreamIngestorConfig config = {},
                          core::FaultInjector* faults = nullptr);

  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

  /// Pushes one record. Thread-safe. May block under kBlock backpressure.
  PushOutcome push(const confsim::CallRecord& call);
  PushOutcome push(const social::Post& post);

  /// Span push under one lock acquisition. Per-record semantics
  /// (validation, quarantine, backpressure, watermark flushes) are
  /// identical to a push() loop — flush slicing is a pure function of the
  /// push sequence, so query results are bit-identical too. Stops early
  /// on the first rejection; returns how many records were accepted
  /// (quarantined records are skipped, not counted, and do not stop the
  /// span).
  std::size_t push_many(std::span<const confsim::CallRecord> calls);
  std::size_t push_many(std::span<const social::Post> posts);

  /// Explicit watermark: flush both staging buffers now. True when every
  /// staged record reached the service (false = some records remain
  /// staged after a failed flush round; they are retried on the next
  /// push/flush).
  bool flush();

  /// One quarantined record, reduced to what an operator needs to triage.
  struct QuarantinedRecord {
    enum class Corpus { kCall, kPost };
    Corpus corpus{Corpus::kCall};
    QuarantineReason reason{QuarantineReason::kDateOutOfRange};
    core::Date date;       // as carried by the record (may be the bad value)
    std::uint64_t id{0};   // call_id / post id
  };

  /// Counters snapshot. All cumulative since construction.
  struct Stats {
    StreamHealth health;
    std::array<std::uint64_t, kNumQuarantineReasons> quarantined_by_reason{};
    std::uint64_t quarantine_evicted{0};  // dead-letter cap overflow
    std::uint64_t blocked_pushes{0};      // pushes that hit kBlock waiting
    std::uint64_t backoff_waits{0};       // individual backoff sleeps
  };
  [[nodiscard]] Stats stats() const;

  /// Copy of the dead-letter buffer, oldest first (capped; see config).
  [[nodiscard]] std::vector<QuarantinedRecord> quarantine() const;

  [[nodiscard]] const StreamIngestorConfig& config() const { return config_; }

 private:
  enum class Corpus { kCalls, kPosts };

  /// push_many() for either corpus.
  template <typename Rec>
  std::size_t push_span(std::span<const Rec> records);
  /// The usaas_stream_* families, rendered from one stats() snapshot.
  void append_families(
      std::vector<core::telemetry::MetricFamily>& families) const;

  // The helpers below require push_mu_ and mu_ held.
  template <typename Rec>
  PushOutcome push_locked(const Rec& record);
  [[nodiscard]] bool make_room(Corpus corpus);
  bool flush_corpus(Corpus corpus);
  void quarantine_record(QuarantinedRecord record);

  QueryService& service_;
  StreamIngestorConfig config_;
  core::FaultInjector* faults_;
  /// Registered against the service's telemetry registry at construction;
  /// null no-ops when telemetry is off. Flush spans cover the successful
  /// service ingest only (staging bookkeeping is nanoseconds); backoff
  /// observations record the computed sleep, costing no extra clock read.
  core::telemetry::Histogram flush_calls_seconds_;
  core::telemetry::Histogram flush_posts_seconds_;
  core::telemetry::Histogram backoff_seconds_;

  /// Serializes push, push_many and flush end to end; taken before mu_.
  std::mutex push_mu_;
  /// Guards everything below; let go while a flush sleeps or hands a
  /// batch to the service, so stats() (a scrape) never waits those out.
  mutable std::mutex mu_;
  std::deque<confsim::CallRecord> staged_calls_;
  std::deque<social::Post> staged_posts_;
  std::deque<QuarantinedRecord> dead_letter_;
  Stats stats_{};
  /// Per-corpus degradation (retries exhausted, records stuck staged).
  /// Kept separate so a successful calls flush cannot mask stuck posts;
  /// StreamHealth::degraded reports the OR of the two.
  bool degraded_calls_{false};
  bool degraded_posts_{false};
  /// Cycles the corruption kind applied when the fault injector asks for
  /// a corrupt record, so every poison shape gets exercised.
  std::uint64_t corruption_cursor_{0};
  /// Last member: attached after, and detached before, everything
  /// append_families() reads.
  QueryService::FamilyAttachment families_;
};

/// Validation used by the ingestor (exposed for tests): the first reason a
/// record would be quarantined for, or nullopt for a clean record.
[[nodiscard]] std::optional<QuarantineReason> validate_record(
    const confsim::CallRecord& call);
[[nodiscard]] std::optional<QuarantineReason> validate_record(
    const social::Post& post);

}  // namespace usaas::service
