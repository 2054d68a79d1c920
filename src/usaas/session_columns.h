// Struct-of-arrays session storage: one contiguous column per scanned
// field of a ParticipantRecord (plus its call date), replacing the
// ~180-byte AoS rows CorrelationEngine shards used to hold.
//
// Why columns: every query a summary cannot discharge falls back to a
// record scan, and a typical metric x axis sweep reads perhaps 20 of
// those 180 bytes per row. At the paper's §5 scale (150-200 M sessions a
// quarter) scan bandwidth — not algorithmic cleverness — is the
// bottleneck, so the store keeps each field in its own array and the
// scan kernels touch only the columns a query names. Every column is a
// flat POD extent, so copies and growth are plain memcpy.
//
// Fidelity contract: the columns jointly hold every field of the original
// (date, ParticipantRecord) row — including the median aggregates no scan
// reads — so record(i)/date(i) materialize the exact row back (needed by
// sessions(), predictor training and the opaque ParticipantFilter path).
// The std::optional<core::Mos> becomes a value column plus a validity
// byte-mask: `mos_valid[i] != 0` is exactly `rec.mos.has_value()` and
// `mos[i]` is `rec.mos->score()` wherever valid. (A packed bitmap would
// make the parallel ingest scatter race on word boundaries between
// destination ranges; one byte per row is the TSan-clean equivalent and
// still 8x smaller than the optional it replaces.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "confsim/call.h"
#include "core/date.h"
#include "netsim/conditions.h"
#include "usaas/signals.h"

namespace usaas::service {

/// A growable array of trivially-copyable values that does NOT
/// value-initialize new slots: the two-pass ingest scatter overwrites
/// every reserved slot exactly once, so the memset std::vector::resize
/// would pay (and the page-fault storm of touching a fresh multi-hundred-
/// megabyte allocation twice) is pure waste — it was the dominant share
/// of the batch-ingest "plan" phase before this store existed.
template <typename T>
class PodColumn {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodColumn holds raw POD extents only (it copies and "
                "grows them with memcpy and leaves new slots "
                "uninitialized)");

 public:
  PodColumn() = default;
  PodColumn(const PodColumn& other) { *this = other; }
  PodColumn(PodColumn&& other) noexcept { *this = std::move(other); }
  PodColumn& operator=(const PodColumn& other) {
    if (this == &other) return *this;
    resize_uninit(other.size_);
    if (other.size_ > 0) {
      std::memcpy(data_, other.data_, other.size_ * sizeof(T));
    }
    return *this;
  }
  PodColumn& operator=(PodColumn&& other) noexcept {
    if (this == &other) return *this;
    delete[] data_;
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
    return *this;
  }
  ~PodColumn() { delete[] data_; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    // Geometric growth so repeated batch appends stay amortized-linear.
    std::size_t cap = capacity_ < 16 ? 16 : capacity_;
    while (cap < n) cap += cap / 2;
    // new T[cap] default-initializes: for these POD element types that
    // leaves the tail uninitialized, which is the point.
    T* grown = new T[cap];
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(T));
    delete[] data_;
    data_ = grown;
    capacity_ = cap;
  }

  /// Grows (or shrinks) to `n` elements without initializing new slots.
  /// Callers must write every slot in [old_size, n) before reading it.
  void resize_uninit(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  void push_back(T v) {
    reserve(size_ + 1);
    data_[size_++] = v;
  }

 private:
  T* data_{nullptr};
  std::size_t size_{0};
  std::size_t capacity_{0};
};

/// One slot of a batch-ingest permutation: the source row inside the
/// caller's batch plus its packed day key (core::pack_day_key), computed
/// once so the scatter never re-derives it.
template <typename Rec>
struct SourceSlot {
  const Rec* rec{nullptr};
  std::int32_t day{0};
};

/// The column store for one session shard. All columns are parallel: row
/// i of every column belongs to the same (date, ParticipantRecord).
class SessionColumns {
 public:
  [[nodiscard]] std::size_t size() const { return day_key.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Grows every column to `n` rows without initializing the new slots
  /// (the ingest scatter fills them); keeps columns in lock-step.
  void resize_uninit(std::size_t n);

  /// Appends one row.
  void append(const core::Date& date, const confsim::ParticipantRecord& rec);

  /// Writes rows [row, row + count) from `src` (the batch-scatter path:
  /// each field lands in its column exactly once). The rows must already
  /// exist (resize_uninit first).
  void write_rows(std::size_t row,
                  const SourceSlot<confsim::ParticipantRecord>* src,
                  std::size_t count);

  /// Materializes row `i` back into the exact original record / date.
  [[nodiscard]] confsim::ParticipantRecord record(std::size_t i) const;
  [[nodiscard]] core::Date date(std::size_t i) const {
    return core::unpack_day_key(day_key[i]);
  }

  /// The session-mean column for `m` — the array metric_value(
  /// rec.network.mean_conditions(), m) reads row-wise.
  [[nodiscard]] const double* mean_column(netsim::Metric m) const;
  /// The tail column for `m`: P95 per metric, except bandwidth where the
  /// damaging tail is the low side and the slot stores P5 — exactly the
  /// values p95_conditions() exposes (see netsim::TelemetryCollector).
  [[nodiscard]] const double* tail_column(netsim::Metric m) const;
  /// The engagement column for `m` (presence / cam-on / mic-on pct).
  [[nodiscard]] const double* engagement_column(EngagementMetric m) const;

  /// Bytes one row occupies across all columns (the bytes_moved unit the
  /// ingest counters report for this store).
  [[nodiscard]] static constexpr std::size_t bytes_per_row() {
    return sizeof(std::int32_t) + sizeof(std::uint64_t) +  // day key, user
           2 * sizeof(std::uint8_t) +                      // platform, access
           sizeof(std::int32_t) +                          // meeting size
           12 * sizeof(double) +                           // 4 x mean/med/tail
           sizeof(double) + sizeof(std::uint32_t) +        // duration, samples
           3 * sizeof(double) +                            // engagement
           2 * sizeof(std::uint8_t) +                      // dropped, mos mask
           sizeof(double);                                 // mos value
  }
  [[nodiscard]] std::size_t memory_bytes() const;

  // ---- Columns (parallel arrays; see class comment) -------------------
  PodColumn<std::int32_t> day_key;     // core::pack_day_key(call date)
  PodColumn<std::uint64_t> user_id;
  PodColumn<std::uint8_t> platform;    // confsim::Platform
  PodColumn<std::uint8_t> access;      // netsim::AccessTechnology
  PodColumn<std::int32_t> meeting_size;
  // Session network aggregates, one array per (metric, statistic). The
  // tail slot mirrors MetricAggregate::p95 verbatim (P5 for bandwidth).
  PodColumn<double> latency_mean, latency_median, latency_tail;
  PodColumn<double> loss_mean, loss_median, loss_tail;
  PodColumn<double> jitter_mean, jitter_median, jitter_tail;
  PodColumn<double> bandwidth_mean, bandwidth_median, bandwidth_tail;
  PodColumn<double> duration_s;
  PodColumn<std::uint32_t> sample_count;
  PodColumn<double> presence, cam_on, mic_on;
  PodColumn<std::uint8_t> dropped_early;  // 0 / 1
  PodColumn<double> mos;                  // valid iff mos_valid[i] != 0
  PodColumn<std::uint8_t> mos_valid;      // rec.mos.has_value()
};

}  // namespace usaas::service
