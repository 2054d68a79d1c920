#include "usaas/post_store.h"

#include <algorithm>

#include "nlp/sentiment.h"

namespace usaas::service {

void PostSummary::fold(const PostColumns& cols, std::size_t begin,
                       std::size_t end, std::int32_t day_lo,
                       std::int32_t day_hi) {
  const std::int32_t* day = cols.day_key.data();
  const std::uint32_t* hits = cols.outage_hits.data();
  for (std::size_t r = begin; r < end; ++r) {
    if (day[r] < day_lo || day[r] > day_hi) continue;
    // pack_day_key keeps the day of month in the low five bits.
    const auto d = static_cast<std::size_t>(day[r] % 32 - 1);
    const nlp::SentimentScores s{cols.positive[r], cols.negative[r]};
    ++posts[d];
    if (s.strong_positive()) ++strong_pos[d];
    if (s.strong_negative()) ++strong_neg[d];
    if (hits[r] > 0 && s.negative >= 0.4) {
      day_hits[d] += static_cast<double>(hits[r]);
    }
  }
}

PostSummary PostSummary::days(int first_day, int last_day) const {
  PostSummary out;
  for (int day = std::max(first_day, 1);
       day <= std::min(last_day, static_cast<int>(kDays)); ++day) {
    const auto d = static_cast<std::size_t>(day - 1);
    out.posts[d] = posts[d];
    out.strong_pos[d] = strong_pos[d];
    out.strong_neg[d] = strong_neg[d];
    out.day_hits[d] = day_hits[d];
  }
  return out;
}

void PostStore::set_telemetry(core::telemetry::Registry* registry) {
  registry_ = registry;
  ingest_.set_telemetry(registry, "posts");
}

void PostStore::ingest(std::span<const social::Post> posts) {
  using Slot = SourceSlot<social::Post>;
  struct Slice {
    PostShard* shard{nullptr};  // std::map nodes are stable
    std::size_t base{0};        // first new row
  };
  const auto emit = [](const social::Post& post, auto&& sink) {
    sink(core::month_key(post.date),
         Slot{&post, core::pack_day_key(post.date)});
  };
  const auto reserve = [this](int mk, std::size_t n) {
    const auto [it, inserted] = shards_.try_emplace(mk);
    if (inserted) {
      it->second.touches = ShardTouches::attach(registry_, "posts", mk);
    }
    const Slice slice{&it->second, it->second.columns.size()};
    it->second.columns.resize_uninit(slice.base + n);
    return slice;
  };
  // Fused scatter: one scan per post (tokenize + sentiment + keywords in
  // a single pass; see nlp::PostScorer), written straight into its final
  // row. Each task reuses one TokenScratch, so the steady state allocates
  // nothing per post.
  const auto scatter = [this](const Slice& slice, const Slot* src,
                              std::size_t begin, std::size_t end) {
    PostColumns& cols = slice.shard->columns;
    nlp::TokenScratch scratch;
    for (std::size_t s = begin; s < end; ++s) {
      // The permutation gather is cache-hostile (the Post structs land in
      // random order, and the text lives behind another pointer), so
      // stage the struct a couple dozen slots ahead and its string
      // buffers a few slots ahead — by then the struct line is resident
      // and the data pointers are free to read. Recovers ~2x on batches
      // larger than LLC.
      if (s + 24 < end) __builtin_prefetch(src[s + 24].rec);
      if (s + 8 < end) {
        const social::Post& ahead = *src[s + 8].rec;
        __builtin_prefetch(ahead.title.data());
        __builtin_prefetch(ahead.body.data());
        __builtin_prefetch(ahead.body.data() + 64);
      }
      const social::Post& post = *src[s].rec;
      scratch.text.assign(post.title);
      scratch.text.push_back(' ');
      scratch.text.append(post.body);
      const nlp::PostScorer::Result res =
          scorer_.score(scratch.text, scratch);
      const std::size_t row = slice.base + s;
      cols.day_key[row] = src[s].day;
      cols.positive[row] = res.sentiment.positive;
      cols.negative[row] = res.sentiment.negative;
      cols.outage_hits[row] = res.keyword_hits;
    }
  };
  const auto fold = [](const Slice& slice, std::size_t n) {
    slice.shard->summary.fold(slice.shard->columns, slice.base,
                              slice.base + n);
  };
  ingest_.run(pool_, posts, emit, reserve, scatter, fold, summaries_);
}

std::optional<SocialAggregates> PostStore::aggregate(
    const core::Date& first, const core::Date& last,
    QueryFanoutStats* fanout, const CancelProbe& cancelled) const {
  // With summaries on, every month answers from its summary: a cut month
  // from the days the window keeps. Nothing then reads a post row, so the
  // fan-out stays on the calling thread.
  struct Selected {
    int month_key{0};
    const PostShard* shard{nullptr};
  };
  std::vector<Selected> plan;
  for (auto it = shards_.lower_bound(core::month_key(first));
       it != shards_.end() && it->first <= core::month_key(last); ++it) {
    const Selected sel{it->first, &it->second};
    sel.shard->touches.note(summaries_);
    if (fanout != nullptr) {
      ++(summaries_ ? fanout->shards_from_summary : fanout->shards_scanned);
    }
    plan.push_back(sel);
  }
  const int first_mk = core::month_key(first);
  const int last_mk = core::month_key(last);
  std::vector<PostSummary> partials(plan.size());
  const bool finished = for_each_shard(
      summaries_ ? nullptr : pool_, plan.size(), cancelled,
      [&](std::size_t i, ShardScratch&) {
        const PostShard& shard = *plan[i].shard;
        if (summaries_) {
          partials[i] = shard.summary.days(
              plan[i].month_key == first_mk ? first.day() : 1,
              plan[i].month_key == last_mk ? last.day()
                                           : int{PostSummary::kDays});
        } else {
          partials[i].fold(shard.columns, 0, shard.columns.size(),
                           core::pack_day_key(first),
                           core::pack_day_key(last));
        }
      });
  if (!finished) return std::nullopt;

  // Merge in month order. Each date gets hits from exactly one month, and
  // every sum is of integral doubles, so scans and summaries agree bit
  // for bit.
  SocialAggregates out;
  std::size_t strong_pos = 0;
  std::size_t strong_neg = 0;
  double day_total = 0.0;
  for (const PostSummary& part : partials) {
    for (std::size_t d = 0; d < PostSummary::kDays; ++d) {
      out.posts += part.posts[d];
      strong_pos += part.strong_pos[d];
      strong_neg += part.strong_neg[d];
      day_total += part.day_hits[d];
      if (part.day_hits[d] > 0.0) ++out.outage_mention_days;
    }
  }
  if (strong_pos + strong_neg > 0) {
    out.strong_positive_share = static_cast<double>(strong_pos) /
                                static_cast<double>(strong_pos + strong_neg);
  }
  // Days without hits count toward the window's daily mean as zeros.
  const double day_mean =
      day_total / static_cast<double>(first.days_until(last) + 1);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const core::Date month = core::month_key_start(plan[i].month_key);
    for (std::size_t d = 0; d < partials[i].day_hits.size(); ++d) {
      const double hits = partials[i].day_hits[d];
      if (hits > 3.0 * day_mean && hits >= 5.0) {
        out.outage_alert_days.emplace_back(month.year(), month.month(),
                                           static_cast<int>(d) + 1);
      }
    }
  }
  return out;
}

}  // namespace usaas::service
