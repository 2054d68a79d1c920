// Civil-date arithmetic for the simulation timeline.
//
// Both studies in the paper are organized around calendar time: the Teams
// dataset is filtered to weekday business hours (§3.1) and the Starlink
// analysis walks day-by-day from Jan 2021 to Dec 2022 (§4.1). Everything
// here is proleptic-Gregorian; the day-count algorithms follow Howard
// Hinnant's "chrono-compatible low-level date algorithms".
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace usaas::core {

/// Day of week, ISO numbering style but starting at Monday = 0 so that
/// `dow < 5` means "weekday".
enum class Weekday : int {
  kMonday = 0,
  kTuesday = 1,
  kWednesday = 2,
  kThursday = 3,
  kFriday = 4,
  kSaturday = 5,
  kSunday = 6,
};

[[nodiscard]] const char* to_string(Weekday d);

/// A calendar date (proleptic Gregorian). Value type, totally ordered.
class Date {
 public:
  /// Constructs 1970-01-01.
  constexpr Date() = default;

  /// The years a Date can hold (it stores the year in 16 bits).
  static constexpr int kMinYear = std::numeric_limits<std::int16_t>::min();
  static constexpr int kMaxYear = std::numeric_limits<std::int16_t>::max();

  /// Constructs a specific civil date. Throws std::invalid_argument for an
  /// impossible date such as 2022-02-30, or a year outside
  /// [kMinYear, kMaxYear].
  Date(int year, int month, int day);

  [[nodiscard]] int year() const { return year_; }
  [[nodiscard]] int month() const { return month_; }
  [[nodiscard]] int day() const { return day_; }

  /// Days since the civil epoch 1970-01-01 (negative before it).
  [[nodiscard]] std::int64_t days_since_epoch() const;

  /// Inverse of days_since_epoch().
  [[nodiscard]] static Date from_days_since_epoch(std::int64_t days);

  [[nodiscard]] Weekday weekday() const;
  [[nodiscard]] bool is_weekday() const;

  /// Calendar arithmetic.
  [[nodiscard]] Date plus_days(std::int64_t n) const;
  [[nodiscard]] Date plus_months(int n) const;  // clamps day (Jan 31 + 1mo = Feb 28/29)

  /// First day of this date's month.
  [[nodiscard]] Date month_start() const;
  /// Number of days in this date's month.
  [[nodiscard]] int days_in_month() const;

  /// Whole days from *this to other (other - this).
  [[nodiscard]] std::int64_t days_until(const Date& other) const;

  /// Zero-based month index counted from a reference month; used to bucket a
  /// two-year timeline into 24 monthly bins.
  [[nodiscard]] int month_index_from(const Date& reference) const;

  /// "YYYY-MM-DD".
  [[nodiscard]] std::string to_string() const;
  /// "YYYY-MM" (monthly bucket label).
  [[nodiscard]] std::string month_string() const;

  friend constexpr auto operator<=>(const Date&, const Date&) = default;

  [[nodiscard]] static bool is_leap_year(int year);
  [[nodiscard]] static int days_in_month(int year, int month);

 private:
  std::int16_t year_{1970};
  std::int8_t month_{1};
  std::int8_t day_{1};
};

/// Canonical calendar-month shard key: months since year 0 (year*12 +
/// month-1). The single definition shared by session and post sharding so
/// the two corpora can never bucket the same date differently.
[[nodiscard]] inline int month_key(const Date& d) {
  return d.year() * 12 + (d.month() - 1);
}

/// The 1st of month key `mk` — month_key's inverse. Decoded with floored
/// division, so pre-epoch (negative) keys still land on their real month.
[[nodiscard]] Date month_key_start(int mk);

/// Order-preserving packed civil-day key: year*512 + month*32 + day
/// (month*32 + day < 512), so an inclusive date window check becomes two
/// integer compares. Shared by the column stores and the cache key.
[[nodiscard]] inline std::int32_t pack_day_key(const Date& d) {
  return static_cast<std::int32_t>(d.year()) * 512 +
         static_cast<std::int32_t>(d.month()) * 32 +
         static_cast<std::int32_t>(d.day());
}
[[nodiscard]] inline Date unpack_day_key(std::int32_t key) {
  return Date(static_cast<int>(key / 512), static_cast<int>((key / 32) % 16),
              static_cast<int>(key % 32));
}

/// True when the inclusive window [first, last] covers month `mk`
/// (month_key units) only in part: `first` falls inside the month after
/// its 1st, or `last` before its final day. An unset bound never cuts. A
/// whole-covered month can be answered from per-month pre-aggregates; a
/// cut one needs per-record date checks. The one rule session shards,
/// post shards and the admission cost estimate all apply.
[[nodiscard]] bool window_cuts_month(const std::optional<Date>& first,
                                     const std::optional<Date>& last,
                                     int mk);

/// Iterates [first, last] inclusive, calling fn(Date) once per day.
template <typename Fn>
void for_each_day(const Date& first, const Date& last, Fn&& fn) {
  for (Date d = first; d <= last; d = d.plus_days(1)) fn(d);
}

/// A time of day with minute resolution; the Teams filter keeps sessions in
/// 9 AM - 8 PM EST (§3.1).
struct TimeOfDay {
  int hour{0};
  int minute{0};

  friend constexpr auto operator<=>(const TimeOfDay&, const TimeOfDay&) = default;
};

/// A full civil timestamp (date + time of day) used for call start times.
struct DateTime {
  Date date;
  TimeOfDay time;

  friend constexpr auto operator<=>(const DateTime&, const DateTime&) = default;
};

/// True when `t` falls in enterprise business hours as defined by the paper:
/// 9 AM (inclusive) to 8 PM (exclusive).
[[nodiscard]] bool in_business_hours(const TimeOfDay& t);

}  // namespace usaas::core
