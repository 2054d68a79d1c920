// The social-post shard store: §5's offline explicit feedback (the
// r/Starlink study), kept the way CorrelationEngine keeps sessions.
//
// Posts are sentiment- and outage-keyword-scored ONCE, in the two-pass
// driver's scatter, and stored per calendar month as PostColumns. With
// summaries on, pass 3 folds each month's per-day PostSummary, so any
// window — whole months and cut ones alike — sums its days from the
// summaries instead of rescanning posts (a post aggregate is a count
// per day). Queries prune to the window's months, fan out through
// for_each_shard (inline when no month scans) and merge in month order,
// so answers never depend on the thread count.
#pragma once

#include <array>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "nlp/post_scorer.h"
#include "social/post.h"
#include "usaas/shard_store.h"

namespace usaas::service {

/// One month of posts as parallel columns, rows in ingest order. Only
/// what queries read is stored (the neutral score never is).
struct PostColumns {
  PodColumn<std::int32_t> day_key;  // core::pack_day_key(post date)
  PodColumn<double> positive;
  PodColumn<double> negative;
  PodColumn<std::uint32_t> outage_hits;

  [[nodiscard]] std::size_t size() const { return day_key.size(); }
  void resize_uninit(std::size_t n) {
    day_key.resize_uninit(n);
    positive.resize_uninit(n);
    negative.resize_uninit(n);
    outage_hits.resize_uninit(n);
  }
  [[nodiscard]] static constexpr std::size_t bytes_per_row() {
    return sizeof(std::int32_t) + 2 * sizeof(double) + sizeof(std::uint32_t);
  }
};

/// Post aggregates over a set of rows of one month, per day of month
/// (index day-1): a month's summary, or the partial a scan of one month
/// produces. Every field is an integer count or a sum of integral
/// doubles, so any fold split or order gives the same bits, and the days
/// of a window are a slice of the month's summary.
struct PostSummary {
  static constexpr std::size_t kDays = 31;
  std::array<std::size_t, kDays> posts{};
  std::array<std::size_t, kDays> strong_pos{};
  std::array<std::size_t, kDays> strong_neg{};
  /// Outage-keyword hits, over posts with some hits and a negative score
  /// >= 0.4.
  std::array<double, kDays> day_hits{};

  /// Folds rows [begin, end) whose day key lies in [day_lo, day_hi].
  void fold(const PostColumns& cols, std::size_t begin, std::size_t end,
            std::int32_t day_lo = std::numeric_limits<std::int32_t>::min(),
            std::int32_t day_hi = std::numeric_limits<std::int32_t>::max());
  /// Days [first_day, last_day] (1-based) of this summary; the other
  /// days read zero.
  [[nodiscard]] PostSummary days(int first_day, int last_day) const;
};

/// The social side of an insight over one date window.
struct SocialAggregates {
  std::size_t posts{0};
  double strong_positive_share{0.0};  // of strong-scored posts
  std::size_t outage_mention_days{0};
  /// Days whose outage-keyword hits exceed 3x the window's daily mean
  /// (and reach 5).
  std::vector<core::Date> outage_alert_days;
};

/// Callers serialize ingest against queries (QueryService's corpus lock);
/// concurrent const queries are safe. Movable.
class PostStore {
 public:
  /// `summaries`: fold a PostSummary per month at ingest and answer the
  /// months a window covers whole from it.
  explicit PostStore(bool summaries) : summaries_{summaries} {}

  /// Borrows a pool for ingest and query fan-out (nullptr: inline).
  void set_thread_pool(core::ThreadPool* pool) { pool_ = pool; }
  /// Registers the `corpus="posts"` ingest histograms, and the touch
  /// counters of months created from now on (call it before ingest);
  /// nullptr or a disabled registry registers nothing.
  void set_telemetry(core::telemetry::Registry* registry);

  void ingest(std::span<const social::Post> posts);

  [[nodiscard]] std::size_t post_count() const {
    return ingest_.stats().records;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const IngestStats& ingest_stats() const {
    return ingest_.stats();
  }

  /// The window's social aggregates. With summaries on, every month
  /// answers from its summary, a cut month from its in-window days, and
  /// the fan-out runs inline (no post row is read); with summaries off,
  /// every month scans, cut months with a date check. Each visit bumps
  /// the month's touch counter and, when set, `fanout`. `cancelled` is
  /// polled once per month; nullopt when it stopped the fan-out.
  [[nodiscard]] std::optional<SocialAggregates> aggregate(
      const core::Date& first, const core::Date& last,
      QueryFanoutStats* fanout = nullptr,
      const CancelProbe& cancelled = nullptr) const;

 private:
  struct PostShard {
    PostColumns columns;
    PostSummary summary;  // folded only when summaries_ is on
    ShardTouches touches;
  };

  core::ThreadPool* pool_{nullptr};
  bool summaries_{false};
  core::telemetry::Registry* registry_{nullptr};
  std::map<int, PostShard> shards_;  // month_key -> shard, month order
  /// A 32-post grain for both passes: scoring a post costs far more than
  /// copying a session, so small batches still split.
  TwoPassIngest<social::Post> ingest_{32, 32, PostColumns::bytes_per_row()};
  /// The fused single-pass scorer; immutable, shared by scatter workers.
  nlp::PostScorer scorer_;
};

}  // namespace usaas::service
