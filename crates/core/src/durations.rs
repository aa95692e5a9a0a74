//! The total-time-fraction metric and periodic-renumbering detection.
//!
//! Section 3.2.1: naive distributions over raw durations overrepresent
//! hosts with short durations, so the paper weights each duration `d` by
//! `n(d) × d / Σ(D)` (Eq. 1) — the probability of catching a CPE holding a
//! duration-`d` assignment when observing a random CPE at a random time.

use crate::stats::weighted_cdf_at;
use dynamips_netsim::{DAY, WEEK, YEAR};
#[allow(clippy::disallowed_types, reason = "keys are sorted before iteration")]
use std::collections::HashMap;

/// Canonical duration marks used on the paper's Figure-1 x axis.
pub(crate) const DURATION_MARKS: [(&str, u64); 12] = [
    ("1h", 1),
    ("6h", 6),
    ("12h", 12),
    ("1d", DAY),
    ("3d", 3 * DAY),
    ("1w", WEEK),
    ("2w", 2 * WEEK),
    ("1m", 30 * DAY),
    ("3m", 91 * DAY),
    ("6m", 182 * DAY),
    ("1y", YEAR),
    ("4y", 4 * YEAR),
];

/// A multiset of assignment durations (hours) from one population (e.g. all
/// dual-stack IPv4 durations of one AS).
///
/// ```
/// use dynamips_core::durations::DurationSet;
///
/// // The paper's Eq.-1 example: a daily renumberer and a monthly one,
/// // observed for a year. A naive PMF would put 97% of durations at one
/// // day; weighted by time, the one-day mass is ~50%.
/// let mut set = DurationSet::new();
/// set.extend(std::iter::repeat(24).take(365));
/// set.extend(std::iter::repeat(30 * 24).take(12));
/// assert!((set.total_time_fraction(24) - 365.0 / 725.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DurationSet {
    durations: Vec<u64>,
}

impl DurationSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one duration.
    pub fn push(&mut self, hours: u64) {
        self.durations.push(hours);
    }

    /// Add many durations.
    pub fn extend(&mut self, hours: impl IntoIterator<Item = u64>) {
        self.durations.extend(hours);
    }

    /// Fold another set's durations into this one. Every consumer treats
    /// the set as a multiset (sums, sorted CDFs, per-value counts), so
    /// merging partial sets in any order reproduces the sequential result.
    pub fn merge(&mut self, other: &DurationSet) {
        self.durations.extend_from_slice(&other.durations);
    }

    /// Number of durations.
    pub fn len(&self) -> usize {
        self.durations.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.durations.is_empty()
    }

    /// Total observed assignment time, hours (the paper annotates Figure 1
    /// with this, in years).
    pub fn total_hours(&self) -> u64 {
        self.durations.iter().sum()
    }

    /// Raw durations.
    pub fn raw(&self) -> &[u64] {
        &self.durations
    }

    /// The total time fraction of Eq. 1 for one duration value `d`:
    /// `n(d) × d / Σ(D)`.
    pub fn total_time_fraction(&self, d: u64) -> f64 {
        let total: u64 = self.total_hours();
        if total == 0 {
            return 0.0;
        }
        let n = self.durations.iter().filter(|&&x| x == d).count() as u64;
        (n * d) as f64 / total as f64
    }

    /// The cumulative total time fraction evaluated at `thresholds`
    /// (Figure 1's y axis, "Fraction of total address-duration").
    pub fn cumulative_ttf_at(&self, thresholds: &[u64]) -> Vec<f64> {
        let weighted: Vec<(f64, f64)> = self
            .durations
            .iter()
            .map(|&d| (d as f64, d as f64))
            .collect();
        let t: Vec<f64> = thresholds.iter().map(|&t| t as f64).collect();
        weighted_cdf_at(&weighted, &t)
    }

    /// Cumulative total time fraction at the canonical Figure-1 marks.
    pub fn cumulative_ttf_marks(&self) -> Vec<(&'static str, f64)> {
        let thresholds: Vec<u64> = DURATION_MARKS.iter().map(|(_, h)| *h).collect();
        DURATION_MARKS
            .iter()
            .map(|(label, _)| *label)
            .zip(self.cumulative_ttf_at(&thresholds))
            .collect()
    }
}

/// The cumulative total time fraction at one threshold, kept as exact
/// running sums instead of a stored multiset: `fraction()` equals
/// `DurationSet::cumulative_ttf_at(&[threshold])[0]` over the same
/// durations, bit for bit, in O(1) memory.
///
/// Exact because every partial sum is an integer below 2^53, which f64
/// adds without rounding in any order.
///
/// ```
/// use dynamips_core::durations::{DurationSet, ThresholdTtf};
///
/// let hours = [1, 2, 24, 24, 700];
/// let mut running = ThresholdTtf::new(2);
/// running.extend(hours);
/// let mut set = DurationSet::new();
/// set.extend(hours);
/// assert_eq!(running.fraction().to_bits(), set.cumulative_ttf_at(&[2])[0].to_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdTtf {
    threshold: u64,
    within: u64,
    within_hours: u64,
    total_hours: u64,
}

impl ThresholdTtf {
    /// An empty accumulator for durations `<= threshold` hours.
    pub fn new(threshold: u64) -> Self {
        ThresholdTtf {
            threshold,
            within: 0,
            within_hours: 0,
            total_hours: 0,
        }
    }

    /// Add one duration.
    pub fn push(&mut self, hours: u64) {
        if hours <= self.threshold {
            self.within += 1;
            self.within_hours += hours;
        }
        self.total_hours += hours;
    }

    /// Add many durations.
    pub fn extend(&mut self, hours: impl IntoIterator<Item = u64>) {
        for h in hours {
            self.push(h);
        }
    }

    /// Fold another accumulator (same threshold) into this one.
    pub fn merge(&mut self, other: &ThresholdTtf) {
        self.within += other.within;
        self.within_hours += other.within_hours;
        self.total_hours += other.total_hours;
    }

    /// Share of total time in durations at or below the threshold.
    pub fn fraction(&self) -> f64 {
        if self.total_hours == 0 {
            return 0.0;
        }
        // `weighted_cdf_at`'s prefix sums start at -0.0, so a threshold
        // below every duration yields -0.0, not 0.0.
        let within = if self.within == 0 {
            -0.0
        } else {
            self.within_hours as f64
        };
        within / self.total_hours as f64
    }
}

/// A detected periodic renumbering pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): values flow to other crates through pub fn
// returns and pattern matches without the type name being spelled.
pub struct PeriodicPattern {
    /// Detected period, hours.
    pub period_hours: u64,
    /// Fraction of all durations falling within the detection tolerance of
    /// the period.
    pub duration_fraction: f64,
    /// Fraction of total assignment *time* explained by the period.
    pub time_fraction: f64,
}

/// Detect consistent periodic renumbering: a duration value (± `tolerance`
/// relative) that accounts for at least `min_fraction` of all sandwiched
/// durations. Returns the strongest such period.
///
/// This is how the paper's claims like "periodic renumbering after 24 hours
/// in DTAG" or "we observe evidence of consistent periodic renumbering on 35
/// networks" are operationalized.
pub fn detect_period(
    set: &DurationSet,
    tolerance: f64,
    min_fraction: f64,
) -> Option<PeriodicPattern> {
    if set.len() < 10 {
        return None; // too few samples to call anything "consistent"
    }
    // Count durations per exact hour value, then look for the hour whose
    // tolerance window captures the most durations.
    #[allow(
        clippy::disallowed_types,
        reason = "keys are sorted before iteration below"
    )]
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for &d in set.raw() {
        *counts.entry(d).or_insert(0) += 1;
    }
    let mut candidates: Vec<u64> = counts.keys().copied().collect();
    candidates.sort_unstable();

    let mut best: Option<PeriodicPattern> = None;
    for &p in &candidates {
        let lo = ((p as f64) * (1.0 - tolerance)).floor() as u64;
        let hi = ((p as f64) * (1.0 + tolerance)).ceil() as u64;
        let in_window: usize = set.raw().iter().filter(|&&d| d >= lo && d <= hi).count();
        let frac = in_window as f64 / set.len() as f64;
        if frac >= min_fraction {
            let time_in_window: u64 = set.raw().iter().filter(|&&d| d >= lo && d <= hi).sum();
            let pat = PeriodicPattern {
                period_hours: p,
                duration_fraction: frac,
                time_fraction: time_in_window as f64 / set.total_hours().max(1) as f64,
            };
            if best.map(|b| frac > b.duration_fraction).unwrap_or(true) {
                best = Some(pat);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(durations: &[u64]) -> DurationSet {
        let mut s = DurationSet::new();
        s.extend(durations.iter().copied());
        s
    }

    #[test]
    fn ttf_weights_by_time_not_count() {
        // The paper's own example: CPE1 has 365 one-day durations, CPE2 has
        // 12 thirty-day durations. A naive PMF would say 97% of durations
        // are one day; the TTF says the one-day mass is 365/725 = 50.3%.
        let mut s = DurationSet::new();
        s.extend(std::iter::repeat_n(24, 365));
        s.extend(std::iter::repeat_n(30 * 24, 12));
        let f1d = s.total_time_fraction(24);
        assert!((f1d - 365.0 / 725.0).abs() < 1e-9, "{f1d}");
        let f30d = s.total_time_fraction(30 * 24);
        assert!((f30d - 360.0 / 725.0).abs() < 1e-9, "{f30d}");
        // Fractions over all distinct values sum to 1.
        assert!((f1d + f30d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_ttf_is_monotone_and_ends_at_one() {
        let s = set(&[1, 24, 24, 24, 700, 9000]);
        let marks = s.cumulative_ttf_marks();
        let values: Vec<f64> = marks.iter().map(|(_, v)| *v).collect();
        for w in values.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "monotone: {values:?}");
        }
        assert!((values.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_ttf_at_exact_mode() {
        // All durations exactly one day: everything at or past the 1d mark.
        let s = set(&[24; 50]);
        let c = s.cumulative_ttf_at(&[23, 24, 25]);
        assert_eq!(c, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_set_is_safe() {
        let s = DurationSet::new();
        assert!(s.is_empty());
        assert_eq!(s.total_time_fraction(24), 0.0);
        assert_eq!(s.cumulative_ttf_at(&[24]), vec![0.0]);
        assert!(detect_period(&s, 0.05, 0.5).is_none());
    }

    #[test]
    fn detects_exact_24h_period() {
        let s = set(&[24; 100]);
        let p = detect_period(&s, 0.05, 0.5).unwrap();
        assert_eq!(p.period_hours, 24);
        assert!((p.duration_fraction - 1.0).abs() < 1e-12);
        assert!((p.time_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_jittered_period() {
        // 24h ± 1h jitter.
        let mut s = DurationSet::new();
        for i in 0..120u64 {
            s.push(23 + (i % 3));
        }
        let p = detect_period(&s, 0.05, 0.8).unwrap();
        assert!((23..=25).contains(&p.period_hours), "{p:?}");
        assert!(p.duration_fraction > 0.99);
    }

    #[test]
    fn no_false_period_on_spread_durations() {
        // Durations spread geometrically: no single mode.
        let s = set(&[
            10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120, 30, 60, 90, 200, 400,
        ]);
        assert!(detect_period(&s, 0.05, 0.5).is_none());
    }

    #[test]
    fn mixed_population_period_needs_enough_mass() {
        // 30% at 24h, the rest spread out: threshold 0.5 rejects, 0.25
        // accepts.
        let mut s = DurationSet::new();
        s.extend(std::iter::repeat_n(24, 30));
        s.extend((1..71).map(|i| 100 + i * 37));
        assert!(detect_period(&s, 0.05, 0.5).is_none());
        let p = detect_period(&s, 0.05, 0.25).unwrap();
        assert_eq!(p.period_hours, 24);
    }

    #[test]
    fn total_hours_annotation() {
        let s = set(&[24, 48]);
        assert_eq!(s.total_hours(), 72);
    }

    /// `ThresholdTtf` must reproduce `cumulative_ttf_at(&[2])` bit for bit
    /// (sign of zero included) on empty, all-above, all-within and mixed
    /// seeded sets, whether pushed in one stream or merged from shards.
    #[test]
    fn threshold_ttf_matches_cumulative_ttf_bits() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut cases: Vec<Vec<u64>> = vec![
            Vec::new(),
            vec![3, 24, 9000],
            vec![1, 1, 2, 2],
            vec![0, 0],
            vec![0, 5],
        ];
        for _ in 0..20 {
            let n = 1 + next(400) as usize;
            cases.push((0..n).map(|_| 3 + next(20_000)).collect());
            cases.push((0..n).map(|_| next(3)).collect());
            cases.push((0..n).map(|_| next(60)).collect());
        }
        for hours in &cases {
            let want = set(hours).cumulative_ttf_at(&[2])[0];
            let mut one = ThresholdTtf::new(2);
            one.extend(hours.iter().copied());
            let (a, b) = hours.split_at(hours.len() / 3);
            let mut merged = ThresholdTtf::new(2);
            merged.extend(b.iter().copied());
            let mut front = ThresholdTtf::new(2);
            front.extend(a.iter().copied());
            merged.merge(&front);
            for got in [one.fraction(), merged.fraction()] {
                assert_eq!(got.to_bits(), want.to_bits(), "{hours:?}: {got} vs {want}");
            }
        }
        // The named cases really cover both signs of zero.
        assert_eq!(ThresholdTtf::new(2).fraction().to_bits(), 0.0f64.to_bits());
        let mut above = ThresholdTtf::new(2);
        above.extend([3, 24]);
        assert_eq!(above.fraction().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn merge_is_order_insensitive() {
        let all = set(&[1, 24, 24, 700, 9000, 24]);
        let mut ab = set(&[1, 24, 24]);
        ab.merge(&set(&[700, 9000, 24]));
        let mut ba = set(&[700, 9000, 24]);
        ba.merge(&set(&[1, 24, 24]));
        for s in [&ab, &ba] {
            assert_eq!(s.len(), all.len());
            assert_eq!(s.total_hours(), all.total_hours());
            assert_eq!(
                s.cumulative_ttf_marks(),
                all.cumulative_ttf_marks(),
                "merged TTF must match sequential"
            );
        }
    }
}
