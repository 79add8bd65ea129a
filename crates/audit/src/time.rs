//! Timestamps in the paper's `yyyymmddHHMM` layout.
//!
//! Fig. 4: "Time is in the form year-month-day-hour-minute", e.g.
//! `201003121210`. [`Timestamp`] stores the instant as minutes since
//! 2000-01-01 00:00 so ordering and arithmetic are cheap, and converts to
//! and from the paper's digit layout (with proper calendar arithmetic,
//! including leap years).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Minutes since 2000-01-01 00:00.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

/// Invalid calendar field or malformed digit string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeParseError {
    pub input: String,
    pub reason: &'static str,
}

impl fmt::Display for TimeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid timestamp `{}`: {}", self.input, self.reason)
    }
}

impl std::error::Error for TimeParseError {}

fn is_leap(year: u64) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

fn days_in_month(year: u64, month: u64) -> u64 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days in the year before the first of each month, February having 28.
const DAYS_BEFORE_MONTH: [u64; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];

/// Leap years in `1..=year`.
fn leap_years_through(year: u64) -> u64 {
    year / 4 - year / 100 + year / 400
}

/// Days from 0000-03-01 to 2000-01-01 in the proleptic Gregorian
/// calendar: [`Timestamp::to_ymd_hm`] counts in years that start on
/// March 1, so a leap day is the last day of its year.
const MARCH_0000_TO_2000: u64 = 730_425;

/// Days in a 400-year Gregorian cycle.
const DAYS_PER_ERA: u64 = 146_097;

impl Timestamp {
    /// Build from calendar fields. Years before 2000 are rejected (the
    /// paper's trails start in 2010), and so is a year whose instant
    /// does not fit the `u64` of minutes.
    pub fn from_ymd_hm(
        year: u64,
        month: u64,
        day: u64,
        hour: u64,
        minute: u64,
    ) -> Result<Timestamp, TimeParseError> {
        let bad = |reason| TimeParseError {
            input: format!("{year:04}{month:02}{day:02}{hour:02}{minute:02}"),
            reason,
        };
        if year < 2000 {
            return Err(bad("year before 2000"));
        }
        if !(1..=12).contains(&month) {
            return Err(bad("month out of range"));
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(bad("day out of range"));
        }
        if hour > 23 {
            return Err(bad("hour out of range"));
        }
        if minute > 59 {
            return Err(bad("minute out of range"));
        }
        let leap_day = u64::from(month > 2 && is_leap(year));
        let in_year = DAYS_BEFORE_MONTH[month as usize - 1] + leap_day + day - 1;
        let leap_days = leap_years_through(year - 1) - leap_years_through(1999);
        (year - 2000)
            .checked_mul(365)
            .and_then(|days| days.checked_add(leap_days + in_year))
            .and_then(|days| days.checked_mul(1440))
            .and_then(|minutes| minutes.checked_add(hour * 60 + minute))
            .map(Timestamp)
            .ok_or_else(|| bad("year out of range"))
    }

    /// Decompose back into `(year, month, day, hour, minute)`.
    pub fn to_ymd_hm(self) -> (u64, u64, u64, u64, u64) {
        let hm = self.0 % 1440;
        // Civil-from-days over March-based years (H. Hinnant's
        // `civil_from_days`): a whole number of 400-year cycles, then the
        // year, day and month within the cycle.
        let days = self.0 / 1440 + MARCH_0000_TO_2000;
        let era = days / DAYS_PER_ERA;
        let of_era = days % DAYS_PER_ERA;
        let year_of_era =
            (of_era - of_era / 1460 + of_era / 36_524 - of_era / (DAYS_PER_ERA - 1)) / 365;
        let of_year = of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
        let march_month = (5 * of_year + 2) / 153;
        let day = of_year - (153 * march_month + 2) / 5 + 1;
        let month = if march_month < 10 {
            march_month + 3
        } else {
            march_month - 9
        };
        let year = era * 400 + year_of_era + u64::from(month <= 2);
        (year, month, day, hm / 60, hm % 60)
    }

    pub fn plus_minutes(self, m: u64) -> Timestamp {
        Timestamp(self.0 + m)
    }

    pub fn plus_days(self, d: u64) -> Timestamp {
        Timestamp(self.0 + d * 1440)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi) = self.to_ymd_hm();
        write!(f, "{y:04}{mo:02}{d:02}{h:02}{mi:02}")
    }
}

impl FromStr for Timestamp {
    type Err = TimeParseError;

    fn from_str(s: &str) -> Result<Timestamp, TimeParseError> {
        if s.len() != 12 || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(TimeParseError {
                input: s.into(),
                reason: "expected 12 digits (yyyymmddHHMM)",
            });
        }
        let digits = s.as_bytes();
        let num = |r: std::ops::Range<usize>| {
            digits[r]
                .iter()
                .fold(0, |n, &d| n * 10 + u64::from(d - b'0'))
        };
        Timestamp::from_ymd_hm(num(0..4), num(4..6), num(6..8), num(8..10), num(10..12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The year loop of the old `from_ymd_hm`: days before `year`,
    /// walked from 2000. With [`oracle_days_before_month`], the oracle of
    /// the closed form.
    fn oracle_days_before_year(year: u64) -> u64 {
        let mut days: u64 = 0;
        for y in 2000..year {
            days += if is_leap(y) { 366 } else { 365 };
        }
        days
    }

    /// The month loop of the old `from_ymd_hm`.
    fn oracle_days_before_month(year: u64, month: u64) -> u64 {
        let mut days: u64 = 0;
        for m in 1..month {
            days += days_in_month(year, m);
        }
        days
    }

    /// The old `to_ymd_hm`, a walk from 2000: the oracle of the closed
    /// form.
    fn oracle_to_ymd_hm(t: Timestamp) -> (u64, u64, u64, u64, u64) {
        let minutes = t.0;
        let mut days = minutes / 1440;
        let hm = minutes % 1440;
        let mut year = 2000;
        loop {
            let len = if is_leap(year) { 366 } else { 365 };
            if days < len {
                break;
            }
            days -= len;
            year += 1;
        }
        let mut month = 1;
        loop {
            let len = days_in_month(year, month);
            if days < len {
                break;
            }
            days -= len;
            month += 1;
        }
        (year, month, days + 1, hm / 60, hm % 60)
    }

    /// Every day from 2000-01-01 to 9999-12-31, at 00:00 and 23:59,
    /// against the walks. A walk from 2000 per date would take ~10^10
    /// steps, so the year loop runs once per year; `to_ymd_hm`'s walk
    /// runs per date over the first 400-year cycle (the calendar's
    /// period) and per month start over the last 400 years.
    #[test]
    fn closed_forms_equal_the_walks_on_every_day_to_9999() {
        for year in 2000..=9999 {
            let year_start = oracle_days_before_year(year);
            for month in 1..=12 {
                let month_start = year_start + oracle_days_before_month(year, month);
                for day in 1..=days_in_month(year, month) {
                    for (hour, minute) in [(0, 0), (23, 59)] {
                        let minutes = (month_start + day - 1) * 1440 + hour * 60 + minute;
                        let t = Timestamp::from_ymd_hm(year, month, day, hour, minute).unwrap();
                        assert_eq!(t, Timestamp(minutes), "{t}");
                        let fields = (year, month, day, hour, minute);
                        assert_eq!(t.to_ymd_hm(), fields);
                        if year < 2400 || (year >= 9600 && day == 1) {
                            assert_eq!(oracle_to_ymd_hm(t), fields);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn extreme_instants_and_years_do_not_loop_wrap_or_panic() {
        let last = Timestamp(u64::MAX);
        let text = last.to_string();
        let (y, mo, d, h, mi) = last.to_ymd_hm();
        assert_eq!(Timestamp::from_ymd_hm(y, mo, d, h, mi), Ok(last), "{text}");
        assert!(text.starts_with(&y.to_string()) && text.ends_with(&format!("{h:02}{mi:02}")));
        let past = Timestamp::from_ymd_hm(y + 1, 1, 1, 0, 0).unwrap_err();
        assert_eq!(past.reason, "year out of range");
        for year in [u64::MAX / 365, u64::MAX / 4, u64::MAX] {
            let e = Timestamp::from_ymd_hm(year, 1, 1, 0, 0).unwrap_err();
            assert_eq!(e.reason, "year out of range", "{year}");
        }
    }

    #[test]
    fn paper_timestamp_round_trips() {
        for s in [
            "201003121210",
            "201004301200",
            "200001010000",
            "202812312359",
        ] {
            let t: Timestamp = s.parse().unwrap();
            assert_eq!(t.to_string(), s);
        }
    }

    #[test]
    fn ordering_matches_chronology() {
        let a: Timestamp = "201003121210".parse().unwrap();
        let b: Timestamp = "201003121216".parse().unwrap();
        let c: Timestamp = "201004151210".parse().unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn leap_year_february() {
        assert!(Timestamp::from_ymd_hm(2012, 2, 29, 0, 0).is_ok());
        assert!(Timestamp::from_ymd_hm(2011, 2, 29, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hm(2100, 2, 29, 0, 0).is_err()); // century rule
        assert!(Timestamp::from_ymd_hm(2000, 2, 29, 0, 0).is_ok()); // 400 rule
    }

    #[test]
    fn arithmetic_crosses_boundaries() {
        let t: Timestamp = "201012312355".parse().unwrap();
        assert_eq!(t.plus_minutes(10).to_string(), "201101010005");
        let d: Timestamp = "201002280000".parse().unwrap();
        assert_eq!(d.plus_days(1).to_string(), "201003010000");
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!("2010031212".parse::<Timestamp>().is_err()); // too short
        assert!("20100312121x".parse::<Timestamp>().is_err()); // non-digit
        assert!("201013121210".parse::<Timestamp>().is_err()); // month 13
        assert!("201003321210".parse::<Timestamp>().is_err()); // day 32
        assert!("201003122410".parse::<Timestamp>().is_err()); // hour 24
        assert!("201003121260".parse::<Timestamp>().is_err()); // minute 60
    }
}
