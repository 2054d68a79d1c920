#include "core/date.h"

#include <array>
#include <cstdio>
#include <stdexcept>

#include "core/units.h"

namespace usaas::core {

namespace {

constexpr std::array<const char*, 7> kWeekdayNames = {
    "Monday", "Tuesday", "Wednesday", "Thursday",
    "Friday", "Saturday", "Sunday"};

}  // namespace

const char* to_string(Weekday d) {
  return kWeekdayNames.at(static_cast<std::size_t>(d));
}

bool Date::is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int Date::days_in_month(int year, int month) {
  static constexpr std::array<int, 13> kDays = {0,  31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) {
    throw std::invalid_argument("month out of range");
  }
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays.at(static_cast<std::size_t>(month));
}

Date::Date(int year, int month, int day)
    : year_{static_cast<std::int16_t>(year)},
      month_{static_cast<std::int8_t>(month)},
      day_{static_cast<std::int8_t>(day)} {
  expect_in_range(year, kMinYear, kMaxYear, "Date year");
  if (month < 1 || month > 12 || day < 1 || day > days_in_month(year, month)) {
    throw std::invalid_argument("invalid civil date");
  }
}

std::int64_t Date::days_since_epoch() const {
  // Howard Hinnant's days_from_civil.
  std::int64_t y = year_;
  const int m = month_;
  const int d = day_;
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(d) - 1u;                                    // [0, 365]
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;        // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

Date Date::from_days_since_epoch(std::int64_t days) {
  // Howard Hinnant's civil_from_days.
  std::int64_t z = days + 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);         // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;            // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);         // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                              // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                      // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                           // [1, 12]
  return Date(static_cast<int>(y + (m <= 2)), static_cast<int>(m),
              static_cast<int>(d));
}

Weekday Date::weekday() const {
  // 1970-01-01 was a Thursday (= 3 in Monday-based numbering).
  const std::int64_t days = days_since_epoch();
  const std::int64_t dow = ((days % 7) + 7 + 3) % 7;
  return static_cast<Weekday>(dow);
}

bool Date::is_weekday() const {
  return static_cast<int>(weekday()) < 5;
}

Date Date::plus_days(std::int64_t n) const {
  return from_days_since_epoch(days_since_epoch() + n);
}

Date Date::plus_months(int n) const {
  const int total = (year_ * 12 + (month_ - 1)) + n;
  const int y = total / 12;
  const int m = total % 12 + 1;
  const int dim = days_in_month(y, m);
  const int d = day_ <= dim ? day_ : dim;
  return Date(y, m, d);
}

Date Date::month_start() const { return Date(year_, month_, 1); }

int Date::days_in_month() const { return days_in_month(year_, month_); }

bool window_cuts_month(const std::optional<Date>& first,
                       const std::optional<Date>& last, int mk) {
  const bool first_cuts =
      first && month_key(*first) == mk && first->day() > 1;
  const bool last_cuts =
      last && month_key(*last) == mk && last->day() < last->days_in_month();
  return first_cuts || last_cuts;
}

Date month_key_start(int mk) {
  const int year = (mk >= 0 ? mk : mk - 11) / 12;
  return Date(year, mk - year * 12 + 1, 1);
}

std::int64_t Date::days_until(const Date& other) const {
  return other.days_since_epoch() - days_since_epoch();
}

int Date::month_index_from(const Date& reference) const {
  return (year_ - reference.year()) * 12 + (month_ - reference.month());
}

std::string Date::to_string() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", year_, int{month_},
                int{day_});
  return buf;
}

std::string Date::month_string() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%04d-%02d", year_, int{month_});
  return buf;
}

bool in_business_hours(const TimeOfDay& t) {
  return t.hour >= 9 && t.hour < 20;
}

}  // namespace usaas::core
