// The unified user-signal model of USaaS (§5, Fig 8).
//
// Network changes produce implicit signals (in-session user actions),
// sampled explicit feedback (MOS), and offline explicit feedback (social
// posts). USaaS normalizes all three into UserSignal records that the
// query service can filter, correlate and aggregate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "confsim/call.h"
#include "core/date.h"
#include "core/units.h"

namespace usaas::service {

/// Which engagement action an implicit signal describes.
enum class EngagementMetric {
  kPresence,
  kCamOn,
  kMicOn,
};

inline constexpr int kNumEngagementMetrics = 3;

[[nodiscard]] constexpr const char* to_string(EngagementMetric m) {
  switch (m) {
    case EngagementMetric::kPresence: return "presence";
    case EngagementMetric::kCamOn: return "cam-on";
    case EngagementMetric::kMicOn: return "mic-on";
  }
  return "unknown";
}

/// Reads the engagement metric out of a participant record.
[[nodiscard]] constexpr double engagement_value(
    const confsim::ParticipantRecord& rec, EngagementMetric m) {
  switch (m) {
    case EngagementMetric::kPresence: return rec.presence_pct;
    case EngagementMetric::kCamOn: return rec.cam_on_pct;
    case EngagementMetric::kMicOn: return rec.mic_on_pct;
  }
  return 0.0;
}

/// An implicit signal: one user's in-session actions plus the network
/// context they happened under.
struct ImplicitSignal {
  core::Date date;
  confsim::Platform platform{confsim::Platform::kWindowsPc};
  netsim::NetworkConditions conditions;  // session means
  double presence_pct{0.0};
  double cam_on_pct{0.0};
  double mic_on_pct{0.0};
  bool dropped_early{false};
};

/// Sampled explicit in-app feedback.
struct MosSignal {
  core::Date date;
  core::Mos rating{core::Mos{3.0}};
  netsim::NetworkConditions conditions;
};

/// Offline explicit feedback (one social post, already sentiment-scored).
struct SocialSignal {
  core::Date date;
  double positive{0.0};
  double negative{0.0};
  double neutral{1.0};
  double popularity{0.0};
  bool mentions_outage{false};
  std::optional<double> reported_downlink_mbps;  // from an OCR'd screenshot
};

/// The normalized union USaaS stores.
using UserSignal = std::variant<ImplicitSignal, MosSignal, SocialSignal>;

/// Cumulative ingest-side counters for one corpus (sessions or posts),
/// maintained by the two-pass counted ingest driver (TwoPassIngest).
struct IngestStats {
  std::size_t batches{0};
  std::size_t records{0};
  /// Bytes copied into shard storage (records + per-record side arrays).
  std::size_t bytes_moved{0};
  /// Destination shards written to, summed over batches.
  std::size_t shards_touched{0};
  /// Pass 1: per-chunk x per-shard-key counting.
  double count_seconds{0.0};
  /// Prefix-sum over counts + pre-reserving the destination slices.
  double plan_seconds{0.0};
  /// Pass 2: the slot permutation, then scoring/partitioning records into
  /// their final slots (for posts this includes sentiment + keyword
  /// scoring, the dominant cost).
  double scatter_seconds{0.0};
  /// Pass 3 (when summaries are enabled): folding the batch's new records
  /// into their shards' mergeable summaries.
  double summarize_seconds{0.0};
  double total_seconds{0.0};

  [[nodiscard]] double records_per_second() const {
    return total_seconds > 0.0
               ? static_cast<double>(records) / total_seconds
               : 0.0;
  }
  void merge(const IngestStats& other) {
    batches += other.batches;
    records += other.records;
    bytes_moved += other.bytes_moved;
    shards_touched += other.shards_touched;
    count_seconds += other.count_seconds;
    plan_seconds += other.plan_seconds;
    scatter_seconds += other.scatter_seconds;
    summarize_seconds += other.summarize_seconds;
    total_seconds += other.total_seconds;
  }
};

/// One-line human-readable summary ("1.2M records, 240 MB moved, ...").
[[nodiscard]] std::string to_string(const IngestStats& stats);

/// Health of the streaming front-end (StreamIngestor::Stats::health, and
/// the usaas_stream_* families rendered from it), so operators see
/// staleness and degradation next to the throughput counters. Units are
/// *pushed records* (one CallRecord or one Post; a call's participants
/// flush together). `staged` is the staleness figure: records accepted by
/// the stream but not yet visible to queries — queries keep answering
/// from the last flushed snapshot.
struct StreamHealth {
  std::uint64_t accepted{0};        // pushed past validation into staging
  std::uint64_t staged{0};          // currently buffered, not yet flushed
  std::uint64_t flushed{0};         // reached the shard stores
  std::uint64_t quarantined{0};     // poison records dead-lettered
  std::uint64_t dropped{0};         // evicted by BackpressurePolicy::kDropOldest
  std::uint64_t rejected{0};        // refused by kReject / exhausted kBlock
  std::uint64_t flushes{0};         // successful flushes
  std::uint64_t flush_failures{0};  // failed flush attempts (injected/real)
  std::uint64_t flush_retries{0};   // re-attempts after a failed attempt
  /// True while the last flush round failed outright (retries exhausted):
  /// staged records are stuck and queries serve an increasingly stale
  /// snapshot until a later flush succeeds.
  bool degraded{false};
};

[[nodiscard]] inline core::Date signal_date(const UserSignal& s) {
  return std::visit([](const auto& v) { return v.date; }, s);
}

}  // namespace usaas::service

// Normalization: raw corpora -> UserSignal records (implemented in
// signals.cpp; declared outside the inline section to keep this header
// light).
namespace usaas::nlp {
class SentimentAnalyzer;
class KeywordDictionary;
}  // namespace usaas::nlp
namespace usaas::social {
struct Post;
}  // namespace usaas::social

namespace usaas::service {

/// Normalizes one call into its per-participant implicit signals, plus a
/// MosSignal for each rated session.
[[nodiscard]] std::vector<UserSignal> normalize_call(
    const confsim::CallRecord& call);

/// Normalizes one social post: sentiment-scores the text, flags outage
/// vocabulary, and OCR-extracts an attached speed-test screenshot when
/// present (deterministic for a given ocr_seed).
[[nodiscard]] UserSignal normalize_post(
    const social::Post& post, const nlp::SentimentAnalyzer& analyzer,
    const nlp::KeywordDictionary& outage_dictionary,
    std::uint64_t ocr_seed = 4242);

}  // namespace usaas::service
