#include "core/date.h"

#include <gtest/gtest.h>

namespace usaas::core {
namespace {

TEST(Date, EpochIsZero) {
  EXPECT_EQ(Date(1970, 1, 1).days_since_epoch(), 0);
}

TEST(Date, KnownDayCounts) {
  EXPECT_EQ(Date(1970, 1, 2).days_since_epoch(), 1);
  EXPECT_EQ(Date(2000, 1, 1).days_since_epoch(), 10957);
  EXPECT_EQ(Date(2022, 4, 22).days_since_epoch(), 19104);
}

TEST(Date, RejectsInvalidDates) {
  EXPECT_THROW(Date(2022, 2, 30), std::invalid_argument);
  EXPECT_THROW(Date(2022, 13, 1), std::invalid_argument);
  EXPECT_THROW(Date(2022, 0, 1), std::invalid_argument);
  EXPECT_THROW(Date(2022, 4, 31), std::invalid_argument);
  EXPECT_NO_THROW(Date(2020, 2, 29));   // leap year
  EXPECT_THROW(Date(2021, 2, 29), std::invalid_argument);
}

TEST(Date, RejectsYearsItCannotHold) {
  // The year is stored in 16 bits; a wider one must not wrap (70000 would
  // read back as 4464).
  EXPECT_THROW(Date(Date::kMaxYear + 1, 1, 1), std::invalid_argument);
  EXPECT_THROW(Date(70000, 1, 1), std::invalid_argument);
  EXPECT_THROW(Date(Date::kMinYear - 1, 12, 31), std::invalid_argument);
  EXPECT_EQ(Date(Date::kMaxYear, 12, 31).year(), Date::kMaxYear);
  EXPECT_EQ(Date(Date::kMinYear, 1, 1).year(), Date::kMinYear);
}

TEST(Date, LeapYearRules) {
  EXPECT_TRUE(Date::is_leap_year(2020));
  EXPECT_FALSE(Date::is_leap_year(2021));
  EXPECT_TRUE(Date::is_leap_year(2000));   // divisible by 400
  EXPECT_FALSE(Date::is_leap_year(1900));  // divisible by 100 only
}

TEST(Date, DaysInMonth) {
  EXPECT_EQ(Date::days_in_month(2022, 1), 31);
  EXPECT_EQ(Date::days_in_month(2022, 2), 28);
  EXPECT_EQ(Date::days_in_month(2020, 2), 29);
  EXPECT_EQ(Date::days_in_month(2022, 4), 30);
}

TEST(Date, KnownWeekdays) {
  EXPECT_EQ(Date(1970, 1, 1).weekday(), Weekday::kThursday);
  EXPECT_EQ(Date(2022, 1, 7).weekday(), Weekday::kFriday);
  EXPECT_EQ(Date(2021, 2, 9).weekday(), Weekday::kTuesday);
  EXPECT_EQ(Date(2023, 11, 28).weekday(), Weekday::kTuesday);  // HotNets '23
}

TEST(Date, WeekdayClassification) {
  EXPECT_TRUE(Date(2022, 1, 7).is_weekday());    // Friday
  EXPECT_FALSE(Date(2022, 1, 8).is_weekday());   // Saturday
  EXPECT_FALSE(Date(2022, 1, 9).is_weekday());   // Sunday
  EXPECT_TRUE(Date(2022, 1, 10).is_weekday());   // Monday
}

TEST(Date, PlusDaysCrossesMonthAndYear) {
  EXPECT_EQ(Date(2021, 12, 31).plus_days(1), Date(2022, 1, 1));
  EXPECT_EQ(Date(2022, 1, 1).plus_days(-1), Date(2021, 12, 31));
  EXPECT_EQ(Date(2020, 2, 28).plus_days(1), Date(2020, 2, 29));
}

TEST(Date, PlusMonthsClampsDay) {
  EXPECT_EQ(Date(2022, 1, 31).plus_months(1), Date(2022, 2, 28));
  EXPECT_EQ(Date(2020, 1, 31).plus_months(1), Date(2020, 2, 29));
  EXPECT_EQ(Date(2021, 11, 15).plus_months(2), Date(2022, 1, 15));
  EXPECT_EQ(Date(2022, 3, 15).plus_months(-3), Date(2021, 12, 15));
}

TEST(Date, MonthHelpers) {
  const Date d{2022, 4, 22};
  EXPECT_EQ(d.month_start(), Date(2022, 4, 1));
  EXPECT_EQ(d.days_in_month(), 30);
  EXPECT_EQ(d.month_string(), "2022-04");
  EXPECT_EQ(d.to_string(), "2022-04-22");
}

TEST(Date, DaysUntilSignedness) {
  EXPECT_EQ(Date(2021, 1, 1).days_until(Date(2021, 1, 31)), 30);
  EXPECT_EQ(Date(2021, 1, 31).days_until(Date(2021, 1, 1)), -30);
  EXPECT_EQ(Date(2021, 1, 1).days_until(Date(2022, 1, 1)), 365);
}

TEST(Date, MonthIndexFrom) {
  const Date ref{2021, 1, 1};
  EXPECT_EQ(Date(2021, 1, 15).month_index_from(ref), 0);
  EXPECT_EQ(Date(2021, 12, 1).month_index_from(ref), 11);
  EXPECT_EQ(Date(2022, 12, 31).month_index_from(ref), 23);
}

TEST(Date, MonthKeyIsMonthsSinceYearZero) {
  EXPECT_EQ(month_key(Date(2022, 1, 5)), 2022 * 12);
  EXPECT_EQ(month_key(Date(2022, 12, 31)), 2022 * 12 + 11);
  EXPECT_EQ(month_key(Date(1970, 1, 1)), 1970 * 12);
}

TEST(Date, MonthKeyBoundaries) {
  // Consecutive days across a month boundary differ by exactly 1; across a
  // year boundary too (Dec -> Jan). Same month, different day: equal.
  EXPECT_EQ(month_key(Date(2022, 2, 1)) - month_key(Date(2022, 1, 31)), 1);
  EXPECT_EQ(month_key(Date(2022, 1, 1)) - month_key(Date(2021, 12, 31)), 1);
  EXPECT_EQ(month_key(Date(2022, 7, 1)), month_key(Date(2022, 7, 31)));
  // Strictly monotone in (year, month): a full sweep never repeats or
  // reorders — the property shard pruning relies on.
  int prev = month_key(Date(2020, 12, 15));
  for (int year = 2021; year <= 2023; ++year) {
    for (int month = 1; month <= 12; ++month) {
      const int mk = month_key(Date(year, month, 1));
      EXPECT_EQ(mk, prev + 1);
      prev = mk;
    }
  }
}

TEST(Date, ForEachDayCoversInclusiveRange) {
  int count = 0;
  Date last_seen;
  for_each_day(Date(2022, 2, 26), Date(2022, 3, 2), [&](const Date& d) {
    ++count;
    last_seen = d;
  });
  EXPECT_EQ(count, 5);
  EXPECT_EQ(last_seen, Date(2022, 3, 2));
}

TEST(Date, BusinessHoursWindow) {
  EXPECT_FALSE(in_business_hours({8, 59}));
  EXPECT_TRUE(in_business_hours({9, 0}));
  EXPECT_TRUE(in_business_hours({19, 59}));
  EXPECT_FALSE(in_business_hours({20, 0}));
  EXPECT_FALSE(in_business_hours({23, 30}));
}

// Property: round trip through days_since_epoch is the identity across a
// wide sweep of dates, including month and leap boundaries.
class DateRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DateRoundTrip, EpochRoundTripIsIdentity) {
  const std::int64_t days = GetParam();
  const Date d = Date::from_days_since_epoch(days);
  EXPECT_EQ(d.days_since_epoch(), days);
  // plus_days(1) is exactly one day after.
  EXPECT_EQ(d.plus_days(1).days_since_epoch(), days + 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DateRoundTrip,
                         ::testing::Range(-20000, 40000, 1234));

// Property: weekday advances cyclically.
TEST(Date, WeekdayCycles) {
  Date d{2021, 1, 1};
  int prev = static_cast<int>(d.weekday());
  for (int i = 0; i < 400; ++i) {
    d = d.plus_days(1);
    const int cur = static_cast<int>(d.weekday());
    EXPECT_EQ(cur, (prev + 1) % 7);
    prev = cur;
  }
}

TEST(Date, WindowCutsMonthOnlyWhereABoundaryFallsInside) {
  const int jan = month_key(Date(2022, 1, 1));
  const int feb = jan + 1;
  const int mar = jan + 2;
  // Whole months: a window starting on the 1st and ending on the last day
  // (leap-aware) cuts nothing.
  EXPECT_FALSE(window_cuts_month(Date(2022, 1, 1), Date(2022, 2, 28), jan));
  EXPECT_FALSE(window_cuts_month(Date(2022, 1, 1), Date(2022, 2, 28), feb));
  EXPECT_TRUE(window_cuts_month(Date(2024, 2, 1), Date(2024, 2, 28),
                                month_key(Date(2024, 2, 1))));
  // Mid-month boundaries cut only their own month.
  EXPECT_TRUE(window_cuts_month(Date(2022, 1, 15), Date(2022, 3, 20), jan));
  EXPECT_FALSE(window_cuts_month(Date(2022, 1, 15), Date(2022, 3, 20), feb));
  EXPECT_TRUE(window_cuts_month(Date(2022, 1, 15), Date(2022, 3, 20), mar));
  // Both boundaries inside one month.
  EXPECT_TRUE(window_cuts_month(Date(2022, 2, 1), Date(2022, 2, 27), feb));
  // Unset bounds never cut.
  EXPECT_FALSE(window_cuts_month(std::nullopt, std::nullopt, jan));
  EXPECT_TRUE(window_cuts_month(Date(2022, 1, 2), std::nullopt, jan));
  EXPECT_FALSE(window_cuts_month(std::nullopt, Date(2022, 1, 31), jan));
}

}  // namespace
}  // namespace usaas::core
