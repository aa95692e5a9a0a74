//! Simulation time.
//!
//! The RIPE Atlas "IP echo" measurements run hourly, so an hour is the
//! natural clock resolution for the whole reproduction. [`SimTime`] counts
//! hours since the simulation epoch (2014-01-01 00:00 UTC), comfortably
//! covering the paper's 2014-09 → 2020-05 Atlas window and the 2020-01 →
//! 2020-06 CDN window.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Hours in a day.
pub const DAY: u64 = 24;
/// Hours in a week.
pub const WEEK: u64 = 7 * DAY;
/// Hours in a (non-leap) year.
pub const YEAR: u64 = 365 * DAY;

/// Hours since the simulation epoch (2014-01-01 00:00 UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Construct from a civil date (00:00 that day).
    pub fn from_date(date: Date) -> Self {
        let days = date.days_from_epoch();
        SimTime(days * DAY)
    }

    /// Construct from a civil date plus an hour-of-day.
    #[cfg(test)]
    pub(crate) fn from_date_hour(date: Date, hour: u8) -> Self {
        SimTime(date.days_from_epoch() * DAY + hour as u64)
    }

    /// Hours since epoch.
    pub fn hours(&self) -> u64 {
        self.0
    }

    /// Whole days since epoch.
    pub fn days(&self) -> u64 {
        self.0 / DAY
    }

    /// The civil date this instant falls on.
    pub fn date(&self) -> Date {
        Date::from_days_since_epoch(self.days())
    }

    /// Hour of day (0–23).
    pub(crate) fn hour_of_day(&self) -> u8 {
        (self.0 % DAY) as u8
    }

    /// Saturating difference in hours.
    #[cfg(test)]
    pub(crate) fn since(&self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        write!(f, "{}T{:02}", d, self.hour_of_day())
    }
}

/// A civil (proleptic Gregorian) date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year, e.g. 2020.
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
}

/// Days between 1970-01-01 and the simulation epoch 2014-01-01.
const EPOCH_DAYS_FROM_UNIX: i64 = 16071;

impl Date {
    /// Construct a date; panics on out-of-range month/day to keep call
    /// sites (test fixtures, profiles) honest.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!((1..=31).contains(&day), "day {day} out of range");
        Date { year, month, day }
    }

    /// Days since the Unix epoch (Howard Hinnant's `days_from_civil`).
    fn days_from_unix(&self) -> i64 {
        let y = self.year as i64 - if self.month <= 2 { 1 } else { 0 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146097 + doe - 719468
    }

    /// Days since the simulation epoch (2014-01-01). The simulation clock
    /// is unsigned and every date the code names is on or after the epoch,
    /// which debug builds assert; a release build clamps an earlier date
    /// to the epoch.
    pub(crate) fn days_from_epoch(&self) -> u64 {
        let days = self.days_from_unix() - EPOCH_DAYS_FROM_UNIX;
        debug_assert!(
            days >= 0,
            "{self} is before the simulation epoch 2014-01-01"
        );
        u64::try_from(days).unwrap_or(0)
    }

    /// Inverse of [`Date::days_from_epoch`] (Hinnant's `civil_from_days`).
    pub fn from_days_since_epoch(days: u64) -> Self {
        let z = days as i64 + EPOCH_DAYS_FROM_UNIX + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097;
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = doy - (153 * mp + 2) / 5 + 1;
        let m = if mp < 10 { mp + 3 } else { mp - 9 };
        Date {
            year: (y + if m <= 2 { 1 } else { 0 }) as i32,
            month: m as u8,
            day: d as u8,
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A half-open simulation window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl Window {
    /// Construct a window; panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "window end before start");
        Window { start, end }
    }

    /// The paper's RIPE Atlas collection window: 2014-09-01 → 2020-05-31.
    pub fn atlas_paper() -> Self {
        Window::new(
            SimTime::from_date(Date::new(2014, 9, 1)),
            SimTime::from_date(Date::new(2020, 5, 31)),
        )
    }

    /// The paper's CDN collection window: 2020-01-01 → 2020-06-01.
    pub fn cdn_paper() -> Self {
        Window::new(
            SimTime::from_date(Date::new(2020, 1, 1)),
            SimTime::from_date(Date::new(2020, 6, 1)),
        )
    }

    /// Window length in hours.
    pub fn hours(&self) -> u64 {
        self.end - self.start
    }

    /// Window length in whole days.
    pub fn days(&self) -> u64 {
        self.hours() / DAY
    }

    /// Whether `t` lies within the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_2014() {
        assert_eq!(Date::new(2014, 1, 1).days_from_epoch(), 0);
        assert_eq!(SimTime::from_date(Date::new(2014, 1, 1)), SimTime(0));
    }

    #[test]
    fn known_date_offsets() {
        assert_eq!(Date::new(2014, 1, 2).days_from_epoch(), 1);
        assert_eq!(Date::new(2014, 2, 1).days_from_epoch(), 31);
        // 2016 was a leap year.
        assert_eq!(Date::new(2016, 3, 1).days_from_epoch(), 730 + 31 + 29);
        assert_eq!(Date::new(2020, 1, 1).days_from_epoch(), 2191);
    }

    #[test]
    fn round_trip_all_days_of_decade() {
        for days in 0..3700 {
            let d = Date::from_days_since_epoch(days);
            assert_eq!(d.days_from_epoch(), days, "at {d}");
        }
    }

    #[test]
    fn simtime_date_and_hour() {
        let t = SimTime::from_date_hour(Date::new(2020, 5, 31), 13);
        assert_eq!(t.date(), Date::new(2020, 5, 31));
        assert_eq!(t.hour_of_day(), 13);
        assert_eq!(t.to_string(), "2020-05-31T13");
    }

    #[test]
    fn paper_windows_have_expected_lengths() {
        let atlas = Window::atlas_paper();
        // ~69 months.
        assert_eq!(atlas.days(), 2099);
        let cdn = Window::cdn_paper();
        // Jan 1 .. Jun 1 of a leap year: 31+29+31+30+31 = 152 days.
        assert_eq!(cdn.days(), 152);
    }

    #[test]
    fn window_containment() {
        let w = Window::new(SimTime(10), SimTime(20));
        assert!(w.contains(SimTime(10)));
        assert!(w.contains(SimTime(19)));
        assert!(!w.contains(SimTime(20)));
        assert!(!w.contains(SimTime(9)));
        assert_eq!(w.hours(), 10);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime(100);
        assert_eq!((t + 24).hours(), 124);
        assert_eq!(SimTime(124) - t, 24);
        assert_eq!(t - SimTime(124), 0, "saturating");
        assert_eq!(SimTime(124).since(t), 24);
        let mut u = t;
        u += DAY;
        assert_eq!(u, SimTime(124));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "before the simulation epoch")
    )]
    fn pre_epoch_date_clamps_to_the_epoch_in_release() {
        assert_eq!(SimTime::from_date(Date::new(2013, 12, 31)), SimTime(0));
    }

    #[test]
    #[should_panic(expected = "month")]
    fn bad_month_panics() {
        Date::new(2020, 13, 1);
    }
}
