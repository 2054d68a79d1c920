#include "usaas/session_columns.h"

#include <algorithm>

namespace usaas::service {

namespace {

/// Applies `fn` to every column, keeping the per-column operations in one
/// place so a new column cannot be added to the struct without showing up
/// in resize/reserve/memory accounting.
template <typename Columns, typename Fn>
void for_each_column(Columns& c, Fn&& fn) {
  fn(c.day_key);
  fn(c.user_id);
  fn(c.platform);
  fn(c.access);
  fn(c.meeting_size);
  fn(c.latency_mean);
  fn(c.latency_median);
  fn(c.latency_tail);
  fn(c.loss_mean);
  fn(c.loss_median);
  fn(c.loss_tail);
  fn(c.jitter_mean);
  fn(c.jitter_median);
  fn(c.jitter_tail);
  fn(c.bandwidth_mean);
  fn(c.bandwidth_median);
  fn(c.bandwidth_tail);
  fn(c.duration_s);
  fn(c.sample_count);
  fn(c.presence);
  fn(c.cam_on);
  fn(c.mic_on);
  fn(c.dropped_early);
  fn(c.mos);
  fn(c.mos_valid);
}

}  // namespace

void SessionColumns::resize_uninit(std::size_t n) {
  for_each_column(*this, [n](auto& col) { col.resize_uninit(n); });
}

void SessionColumns::append(const core::Date& date,
                            const confsim::ParticipantRecord& rec) {
  const std::size_t i = size();
  resize_uninit(i + 1);
  const SourceSlot<confsim::ParticipantRecord> slot{&rec,
                                                    core::pack_day_key(date)};
  write_rows(i, &slot, 1);
}

// Writing all ~25 columns per slot would cycle through 25 interleaved
// store streams — more than the store buffers can combine — so the
// scatter runs in small blocks with a handful of fused per-column
// passes: each pass writes <= 6 sequential streams, and the block's
// source records (pulled into cache by the first pass, prefetched a few
// slots ahead) are re-read from L1/L2 by the rest.
void SessionColumns::write_rows(
    std::size_t row, const SourceSlot<confsim::ParticipantRecord>* src,
    std::size_t count) {
  constexpr std::size_t kBlock = 256;  // ~47 KB of records per block
  // Hoisted raw destination pointers: the uint8 column stores could
  // otherwise alias the PodColumn pointer members themselves, forcing
  // the compiler to reload every column base after every store.
  std::int32_t* const day_out = day_key.data() + row;
  std::uint64_t* const user_out = user_id.data() + row;
  std::uint8_t* const plat_out = platform.data() + row;
  std::uint8_t* const acc_out = access.data() + row;
  std::int32_t* const size_out = meeting_size.data() + row;
  double* const lat_mean = latency_mean.data() + row;
  double* const lat_med = latency_median.data() + row;
  double* const lat_tail = latency_tail.data() + row;
  double* const pl_mean = loss_mean.data() + row;
  double* const pl_med = loss_median.data() + row;
  double* const pl_tail = loss_tail.data() + row;
  double* const jit_mean = jitter_mean.data() + row;
  double* const jit_med = jitter_median.data() + row;
  double* const jit_tail = jitter_tail.data() + row;
  double* const bw_mean = bandwidth_mean.data() + row;
  double* const bw_med = bandwidth_median.data() + row;
  double* const bw_tail = bandwidth_tail.data() + row;
  double* const dur_out = duration_s.data() + row;
  std::uint32_t* const samp_out = sample_count.data() + row;
  double* const pres_out = presence.data() + row;
  double* const cam_out = cam_on.data() + row;
  double* const mic_out = mic_on.data() + row;
  std::uint8_t* const drop_out = dropped_early.data() + row;
  double* const mos_out = mos.data() + row;
  std::uint8_t* const valid_out = mos_valid.data() + row;
  for (std::size_t s = 0; s < count; s += kBlock) {
    const std::size_t n = std::min(kBlock, count - s);
    const SourceSlot<confsim::ParticipantRecord>* blk = src + s;
    for (std::size_t i = 0; i < n; ++i) {  // header + record warm-up
      if (i + 8 < n) {
        const auto* next = reinterpret_cast<const char*>(blk[i + 8].rec);
        __builtin_prefetch(next);
        __builtin_prefetch(next + 64);
        __builtin_prefetch(next + 128);
      }
      const confsim::ParticipantRecord& r = *blk[i].rec;
      day_out[s + i] = blk[i].day;
      user_out[s + i] = r.user_id;
      plat_out[s + i] = static_cast<std::uint8_t>(r.platform);
      acc_out[s + i] = static_cast<std::uint8_t>(r.access);
      size_out[s + i] = static_cast<std::int32_t>(r.meeting_size);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const netsim::SessionNetworkSummary& net = blk[i].rec->network;
      lat_mean[s + i] = net.latency_ms.mean;
      lat_med[s + i] = net.latency_ms.median;
      lat_tail[s + i] = net.latency_ms.p95;
      pl_mean[s + i] = net.loss_pct.mean;
      pl_med[s + i] = net.loss_pct.median;
      pl_tail[s + i] = net.loss_pct.p95;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const netsim::SessionNetworkSummary& net = blk[i].rec->network;
      jit_mean[s + i] = net.jitter_ms.mean;
      jit_med[s + i] = net.jitter_ms.median;
      jit_tail[s + i] = net.jitter_ms.p95;
      bw_mean[s + i] = net.bandwidth_mbps.mean;
      bw_med[s + i] = net.bandwidth_mbps.median;
      bw_tail[s + i] = net.bandwidth_mbps.p95;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const confsim::ParticipantRecord& r = *blk[i].rec;
      dur_out[s + i] = r.network.duration_seconds;
      samp_out[s + i] = static_cast<std::uint32_t>(r.network.sample_count);
      pres_out[s + i] = r.presence_pct;
      cam_out[s + i] = r.cam_on_pct;
      mic_out[s + i] = r.mic_on_pct;
      drop_out[s + i] = r.dropped_early ? 1 : 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::optional<core::Mos>& m = blk[i].rec->mos;
      valid_out[s + i] = m.has_value() ? 1 : 0;
      mos_out[s + i] = m ? m->score() : 0.0;
    }
  }
}

confsim::ParticipantRecord SessionColumns::record(std::size_t i) const {
  confsim::ParticipantRecord rec;
  rec.user_id = user_id[i];
  rec.platform = static_cast<confsim::Platform>(platform[i]);
  rec.meeting_size = static_cast<int>(meeting_size[i]);
  rec.access = static_cast<netsim::AccessTechnology>(access[i]);
  rec.network.latency_ms = {latency_mean[i], latency_median[i],
                            latency_tail[i]};
  rec.network.loss_pct = {loss_mean[i], loss_median[i], loss_tail[i]};
  rec.network.jitter_ms = {jitter_mean[i], jitter_median[i], jitter_tail[i]};
  rec.network.bandwidth_mbps = {bandwidth_mean[i], bandwidth_median[i],
                                bandwidth_tail[i]};
  rec.network.duration_seconds = duration_s[i];
  rec.network.sample_count = sample_count[i];
  rec.presence_pct = presence[i];
  rec.cam_on_pct = cam_on[i];
  rec.mic_on_pct = mic_on[i];
  rec.dropped_early = dropped_early[i] != 0;
  if (mos_valid[i] != 0) rec.mos = core::Mos{mos[i]};
  return rec;
}

const double* SessionColumns::mean_column(netsim::Metric m) const {
  switch (m) {
    case netsim::Metric::kLatency: return latency_mean.data();
    case netsim::Metric::kLoss: return loss_mean.data();
    case netsim::Metric::kJitter: return jitter_mean.data();
    case netsim::Metric::kBandwidth: return bandwidth_mean.data();
  }
  return latency_mean.data();
}

const double* SessionColumns::tail_column(netsim::Metric m) const {
  switch (m) {
    case netsim::Metric::kLatency: return latency_tail.data();
    case netsim::Metric::kLoss: return loss_tail.data();
    case netsim::Metric::kJitter: return jitter_tail.data();
    case netsim::Metric::kBandwidth: return bandwidth_tail.data();
  }
  return latency_tail.data();
}

const double* SessionColumns::engagement_column(EngagementMetric m) const {
  switch (m) {
    case EngagementMetric::kPresence: return presence.data();
    case EngagementMetric::kCamOn: return cam_on.data();
    case EngagementMetric::kMicOn: return mic_on.data();
  }
  return presence.data();
}

std::size_t SessionColumns::memory_bytes() const {
  std::size_t bytes = 0;
  for_each_column(*this, [&bytes](const auto& col) {
    using T = std::remove_pointer_t<decltype(col.data())>;
    bytes += col.capacity() * sizeof(T);
  });
  return bytes;
}

}  // namespace usaas::service
