//! Year-over-year evolution of assignment durations.
//!
//! Section 3.2, "Evolution over time": "we break down durations from each
//! AS by year and investigate the cumulative total time fractions per
//! year... assignment durations across all categories (non-dual-stack,
//! dual-stack, and IPv6) have shown signs of increase over the years,
//! especially in ISPs such as DTAG and Orange."
//!
//! A duration is attributed to the year in which the assignment *started*
//! (assignments spanning a year boundary are not split — the metric is
//! about assignment behaviour in force when the address was handed out).

use crate::changes::Span;
use crate::durations::DurationSet;
use dynamips_netsim::time::Date;
use std::collections::BTreeMap;

/// Durations bucketed by calendar year of assignment start.
#[derive(Debug, Clone, Default)]
// lint:allow(dead-pub): analysis API exercised by this crate's tests; staged
// for the evolution experiments.
pub struct YearlyDurations {
    per_year: BTreeMap<i32, DurationSet>,
}

impl YearlyDurations {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one probe's sandwiched durations, attributing each to the year
    /// its assignment began.
    // lint:allow(dead-pub): exercised by this crate's tests; see YearlyDurations.
    pub fn add_spans<T: PartialEq + Copy>(&mut self, spans: &[Span<T>]) {
        if spans.len() < 3 {
            return;
        }
        for i in 1..spans.len() - 1 {
            let start = spans[i].first;
            let duration = spans[i + 1].first - spans[i].first;
            let year = start.date().year;
            self.per_year.entry(year).or_default().push(duration);
        }
    }

    /// Years present, ascending.
    pub fn years(&self) -> Vec<i32> {
        self.per_year.keys().copied().collect()
    }

    /// Durations for one year.
    pub fn year(&self, year: i32) -> Option<&DurationSet> {
        self.per_year.get(&year)
    }

    /// The year-over-year trend statistic the paper reports: the fraction
    /// of total assigned time spent in assignments at or below `mark_hours`
    /// per year. A shrinking series means durations are growing.
    // lint:allow(dead-pub): exercised by this crate's tests; see YearlyDurations.
    pub fn short_mass_by_year(&self, mark_hours: u64) -> Vec<(i32, f64)> {
        self.per_year
            .iter()
            .map(|(y, set)| (*y, set.cumulative_ttf_at(&[mark_hours])[0]))
            .collect()
    }

    /// Linear trend (least-squares slope per year) of the short-duration
    /// mass. Negative = durations increasing over time.
    // lint:allow(dead-pub): exercised by this crate's tests; see YearlyDurations.
    pub fn trend_slope(&self, mark_hours: u64) -> Option<f64> {
        self.trend_slope_until(mark_hours, i32::MAX)
    }

    /// [`YearlyDurations::trend_slope`] restricted to years strictly before
    /// `last_year_exclusive` — used to drop the right-censored partial year
    /// at the end of an observation window.
    // lint:allow(dead-pub): exercised by this crate's tests; see YearlyDurations.
    pub fn trend_slope_until(&self, mark_hours: u64, last_year_exclusive: i32) -> Option<f64> {
        let pts: Vec<(i32, f64)> = self
            .short_mass_by_year(mark_hours)
            .into_iter()
            .filter(|(y, _)| *y < last_year_exclusive)
            .collect();
        let pts: Vec<(f64, f64)> = pts
            .into_iter()
            .filter(|(_, m)| m.is_finite())
            .map(|(y, m)| (y as f64, m))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|(x, _)| x).sum();
        let sy: f64 = pts.iter().map(|(_, y)| y).sum();
        let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON {
            return None;
        }
        Some((n * sxy - sx * sy) / denom)
    }
}

/// Point-in-time survival: does the assignment active at `t` remain in
/// place for at least `horizon_hours` more? `None` when the subject was
/// not observed with an assignment at `t`, or when `t + horizon` reaches
/// past the last observation (the outcome would be censored).
///
/// This is the censoring-robust statistic for year-over-year comparisons:
/// unlike per-year duration masses, it only needs `horizon` hours of
/// lookahead, so every year of a window except its very end is measured
/// on equal footing.
pub(crate) fn survives_at<T: PartialEq + Copy>(
    spans: &[Span<T>],
    t: dynamips_netsim::SimTime,
    horizon_hours: u64,
) -> Option<bool> {
    let idx = spans.partition_point(|s| s.first <= t);
    let span = spans.get(idx.checked_sub(1)?)?;
    if t > span.last {
        return None; // offline at t
    }
    if span.last >= t + horizon_hours {
        return Some(true);
    }
    // The span ended within the horizon: survived only if no *change*
    // followed (i.e. the next span has the same value — a gap — which
    // span construction already merges, so any next span is a change).
    // If the span simply ends because observation ended, the outcome is
    // censored.
    // A following span means an observed change (span construction merges
    // same-value gaps); no following span means observation ended and the
    // outcome is censored.
    spans.get(idx).map(|_| false)
}

/// Yearly survival shares: for each year, the fraction of subjects whose
/// mid-year assignment survived at least `horizon_hours` more. Rising
/// shares mean durations are growing.
#[derive(Debug, Clone, Default)]
pub struct YearlySurvival {
    per_year: BTreeMap<i32, (usize, usize)>, // (survived, total)
}

impl YearlySurvival {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample one subject at July 1st of every year in `[first, last]`.
    pub fn add_subject<T: PartialEq + Copy>(
        &mut self,
        spans: &[Span<T>],
        first_year: i32,
        last_year: i32,
        horizon_hours: u64,
    ) {
        for year in first_year..=last_year {
            let t = dynamips_netsim::SimTime::from_date(Date::new(year, 7, 1));
            if let Some(survived) = survives_at(spans, t, horizon_hours) {
                let e = self.per_year.entry(year).or_insert((0, 0));
                e.1 += 1;
                if survived {
                    e.0 += 1;
                }
            }
        }
    }

    /// `(year, survival share, sample count)` rows.
    pub fn shares(&self) -> Vec<(i32, f64, usize)> {
        self.per_year
            .iter()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(y, (s, n))| (*y, *s as f64 / *n as f64, *n))
            .collect()
    }
}

/// Convenience: the calendar year a simulation hour falls in.
// lint:allow(dead-pub): exercised by this crate's tests; see YearlyDurations.
pub fn year_of_hour(hours: u64) -> i32 {
    Date::from_days_since_epoch(hours / 24).year
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_netsim::time::{Date, SimTime};

    fn hourly_spans(changes: &[(i32, u8, u8, u32)]) -> Vec<Span<u32>> {
        // (year, month, day, value) change points; each span runs to the
        // next change.
        let mut out = Vec::new();
        for w in changes.windows(2) {
            let (y, m, d, v) = w[0];
            let (y2, m2, d2, _) = w[1];
            out.push(Span {
                value: v,
                first: SimTime::from_date(Date::new(y, m, d)),
                last: SimTime(SimTime::from_date(Date::new(y2, m2, d2)).hours() - 1),
            });
        }
        let (y, m, d, v) = *changes.last().unwrap();
        out.push(Span {
            value: v,
            first: SimTime::from_date(Date::new(y, m, d)),
            last: SimTime::from_date(Date::new(y, m, d)) + 24,
        });
        out
    }

    #[test]
    fn durations_attributed_to_start_year() {
        let spans = hourly_spans(&[
            (2015, 1, 1, 1),
            (2015, 6, 1, 2),  // starts 2015, lasts ~7 months into 2016
            (2016, 1, 10, 3), // starts 2016
            (2016, 3, 1, 4),
        ]);
        let mut y = YearlyDurations::new();
        y.add_spans(&spans);
        assert_eq!(y.years(), vec![2015, 2016]);
        assert_eq!(y.year(2015).unwrap().len(), 1);
        assert_eq!(y.year(2016).unwrap().len(), 1);
        // The 2015 duration spans the year boundary but is not split.
        let d2015 = y.year(2015).unwrap().raw()[0];
        assert_eq!(d2015, (223) * 24); // Jun 1 2015 -> Jan 10 2016
    }

    #[test]
    fn short_mass_decreases_when_durations_grow() {
        let mut y = YearlyDurations::new();
        // 2015: all 1-day durations; 2017: all 1-week; 2019: all 1-month.
        for (year, dur, n) in [(2015, 24u64, 50), (2017, 168, 50), (2019, 720, 50)] {
            let start = SimTime::from_date(Date::new(year, 2, 1));
            let mut spans = vec![Span {
                value: 0u32,
                first: SimTime(start.hours() - 48),
                last: SimTime(start.hours() - 1),
            }];
            for i in 0..n {
                spans.push(Span {
                    value: i + 1,
                    first: SimTime(start.hours() + i as u64 * dur),
                    last: SimTime(start.hours() + (i as u64 + 1) * dur - 1),
                });
            }
            y.add_spans(&spans);
        }
        let mass = y.short_mass_by_year(24);
        #[allow(clippy::disallowed_types, reason = "test: keyed lookups only")]
        let by_year: std::collections::HashMap<i32, f64> = mass.into_iter().collect();
        assert!(by_year[&2015] > 0.9);
        assert!(by_year[&2017] < 0.1);
        assert!(by_year[&2019] < 0.05);
        // Long-duration spans spill into later (all-zero-mass) years, which
        // flattens the regression; the sign and a clear magnitude remain.
        let slope = y.trend_slope(24).unwrap();
        assert!(slope < -0.05, "durations grow => short mass falls: {slope}");
    }

    #[test]
    fn trend_needs_two_years() {
        let mut y = YearlyDurations::new();
        assert!(y.trend_slope(24).is_none());
        let start = SimTime::from_date(Date::new(2016, 1, 1));
        let spans: Vec<Span<u32>> = (0..5)
            .map(|i| Span {
                value: i,
                first: SimTime(start.hours() + i as u64 * 24),
                last: SimTime(start.hours() + (i as u64 + 1) * 24 - 1),
            })
            .collect();
        y.add_spans(&spans);
        assert!(y.trend_slope(24).is_none(), "single year has no trend");
    }

    #[test]
    fn year_of_hour_maps_epoch_correctly() {
        assert_eq!(year_of_hour(0), 2014);
        assert_eq!(year_of_hour(365 * 24), 2015);
        assert_eq!(
            year_of_hour(SimTime::from_date(Date::new(2020, 5, 31)).hours()),
            2020
        );
    }

    #[test]
    fn survival_semantics() {
        use super::survives_at;
        // One assignment 0..1000h, then a change, then 1000..1200h.
        let spans = vec![
            Span {
                value: 1u32,
                first: SimTime(0),
                last: SimTime(999),
            },
            Span {
                value: 2,
                first: SimTime(1000),
                last: SimTime(1200),
            },
        ];
        // Sampled early: survives a 336h horizon.
        assert_eq!(survives_at(&spans, SimTime(100), 336), Some(true));
        // Sampled 100h before the change: does not survive 336h.
        assert_eq!(survives_at(&spans, SimTime(900), 336), Some(false));
        // Sampled in the last span near the observation end: censored.
        assert_eq!(survives_at(&spans, SimTime(1100), 336), None);
        // Sampled before any observation: undefined.
        assert_eq!(survives_at(&spans, SimTime(1500), 336), None);
        assert_eq!(survives_at::<u32>(&[], SimTime(0), 336), None);
    }

    #[test]
    fn yearly_survival_tracks_policy_change() {
        use super::YearlySurvival;
        // Daily renumbering through 2015-2016, stable from 2017 on.
        let mut spans: Vec<Span<u32>> = Vec::new();
        let start = SimTime::from_date(Date::new(2015, 1, 1)).hours();
        let switch = SimTime::from_date(Date::new(2017, 1, 1)).hours();
        let end = SimTime::from_date(Date::new(2019, 12, 31)).hours();
        let mut v = 0u32;
        let mut t = start;
        while t < switch {
            spans.push(Span {
                value: v,
                first: SimTime(t),
                last: SimTime(t + 23),
            });
            v += 1;
            t += 24;
        }
        spans.push(Span {
            value: v,
            first: SimTime(switch),
            last: SimTime(end),
        });
        let mut ys = YearlySurvival::new();
        ys.add_subject(&spans, 2015, 2019, 14 * 24);
        #[allow(clippy::disallowed_types, reason = "test: keyed lookups only")]
        let shares: std::collections::HashMap<i32, f64> =
            ys.shares().into_iter().map(|(y, s, _)| (y, s)).collect();
        assert_eq!(shares[&2015], 0.0);
        assert_eq!(shares[&2016], 0.0);
        assert_eq!(shares[&2017], 1.0);
        assert_eq!(shares[&2018], 1.0);
    }

    #[test]
    fn too_few_spans_are_ignored() {
        let mut y = YearlyDurations::new();
        y.add_spans(&[Span {
            value: 1u32,
            first: SimTime(0),
            last: SimTime(10),
        }]);
        assert!(y.years().is_empty());
    }
}
