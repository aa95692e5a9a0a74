//! Dual-stack classification and v4/v6 change co-occurrence.
//!
//! Section 3.2 splits IPv4 durations by whether the probe "has been
//! consistently reporting IPv6 'IP echo' measurements during the same
//! period", and investigates "whether IPv4 and IPv6 assignments in
//! dual-stack networks change simultaneously" (90.6% same-hour in DTAG,
//! mostly non-co-occurring in Comcast).

use crate::changes::{sandwiched_durations, ProbeHistory, Span};
use dynamips_netsim::SimTime;

/// An IPv4 duration labeled by the probe's stack type during it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-pub): values flow to other crates through pub fn
// returns and pattern matches without the type name being spelled.
pub struct LabeledDuration {
    /// Duration, hours.
    pub hours: u64,
    /// Whether the probe was dual-stacked during this assignment.
    pub dual_stack: bool,
}

/// Classify each sandwiched IPv4 duration of a probe as dual-stack or not:
/// a duration is dual-stack when IPv6 observations cover at least
/// `min_coverage` of the assignment's lifetime.
pub fn labeled_v4_durations(history: &ProbeHistory, min_coverage: f64) -> Vec<LabeledDuration> {
    let durations = sandwiched_durations(&history.v4);
    // Sandwiched span i (starting at index 1) corresponds to durations[i-1].
    durations
        .iter()
        .enumerate()
        .map(|(k, &hours)| {
            let span = &history.v4[k + 1];
            LabeledDuration {
                hours,
                dual_stack: v6_covers(history, span.first, span.last, min_coverage),
            }
        })
        .collect()
}

/// Whether IPv6 observations cover at least `min_coverage` of `[lo, hi]`.
fn v6_covers(history: &ProbeHistory, lo: SimTime, hi: SimTime, min_coverage: f64) -> bool {
    let window = hi - lo + 1;
    let mut covered: u64 = 0;
    for s in &history.v6 {
        let a = s.first.max(lo);
        let b = s.last.min(hi);
        if b >= a {
            covered += b - a + 1;
        }
    }
    covered as f64 >= min_coverage * window as f64
}

/// Co-occurrence statistics between v4 and v6 changes on one probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoOccurrence {
    /// v4 changes with a v6 change in the same hour.
    pub simultaneous: usize,
    /// v4 changes without a same-hour v6 change.
    pub v4_only: usize,
    /// v6 changes without a same-hour v4 change.
    pub v6_only: usize,
}

impl CoOccurrence {
    /// Fraction of v4 changes that co-occurred with a v6 change
    /// (the paper reports 90.6% for DTAG).
    pub fn simultaneity(&self) -> f64 {
        let v4_total = self.simultaneous + self.v4_only;
        if v4_total == 0 {
            0.0
        } else {
            self.simultaneous as f64 / v4_total as f64
        }
    }

    /// Merge another probe's counts.
    pub fn merge(&mut self, other: &CoOccurrence) {
        self.simultaneous += other.simultaneous;
        self.v4_only += other.v4_only;
        self.v6_only += other.v6_only;
    }
}

/// Compute same-hour co-occurrence of changes. A "change time" is the first
/// observation of a new span; two changes co-occur when they fall in the
/// same hour. Only changes made while the *other* family was also being
/// observed count — a probe that became dual-stack mid-deployment must not
/// have its single-stack-era changes scored as non-simultaneous.
pub fn co_occurrence(history: &ProbeHistory) -> CoOccurrence {
    fn covered_v6(history: &ProbeHistory, t: SimTime) -> bool {
        history.v6.iter().any(|s| s.first <= t && t <= s.last)
    }
    fn covered_v4(history: &ProbeHistory, t: SimTime) -> bool {
        history.v4.iter().any(|s| s.first <= t && t <= s.last)
    }
    let v4_changes: Vec<SimTime> = change_times(&history.v4)
        .into_iter()
        .filter(|t| covered_v6(history, *t))
        .collect();
    let v6_changes: Vec<SimTime> = change_times(&history.v6)
        .into_iter()
        .filter(|t| covered_v4(history, *t))
        .collect();
    // lint:allow(determinism-taint): membership tests only; never iterated
    let v6_set: std::collections::HashSet<u64> = v6_changes.iter().map(|t| t.hours()).collect();
    // lint:allow(determinism-taint): membership tests only; never iterated
    let v4_set: std::collections::HashSet<u64> = v4_changes.iter().map(|t| t.hours()).collect();
    let simultaneous = v4_changes
        .iter()
        .filter(|t| v6_set.contains(&t.hours()))
        .count();
    CoOccurrence {
        simultaneous,
        v4_only: v4_changes.len() - simultaneous,
        v6_only: v6_changes
            .iter()
            .filter(|t| !v4_set.contains(&t.hours()))
            .count(),
    }
}

/// The observation times at which a new assignment was first seen (skipping
/// the initial one, which is not a change).
fn change_times<T>(spans: &[Span<T>]) -> Vec<SimTime> {
    spans.iter().skip(1).map(|s| s.first).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_atlas::ProbeId;
    use dynamips_netaddr::Ipv6Prefix;
    use dynamips_routing::Asn;
    use std::net::Ipv4Addr;

    fn v4span(a: u8, first: u64, last: u64) -> Span<Ipv4Addr> {
        Span {
            value: Ipv4Addr::new(84, 1, 1, a),
            first: SimTime(first),
            last: SimTime(last),
        }
    }

    fn v6span(seg: u16, first: u64, last: u64) -> Span<Ipv6Prefix> {
        Span {
            value: format!("2003:0:0:{seg:x}::/64").parse().unwrap(),
            first: SimTime(first),
            last: SimTime(last),
        }
    }

    fn history(v4: Vec<Span<Ipv4Addr>>, v6: Vec<Span<Ipv6Prefix>>) -> ProbeHistory {
        ProbeHistory {
            probe: ProbeId(1),
            virtual_index: 0,
            asn: Asn(3320),
            v4,
            v6,
        }
    }

    #[test]
    fn labels_follow_v6_coverage() {
        // v4 spans at 0-9 / 10-19 / 20-29 / 30-39; v6 present only during
        // the second sandwiched span (20..29).
        let h = history(
            vec![
                v4span(1, 0, 9),
                v4span(2, 10, 19),
                v4span(3, 20, 29),
                v4span(4, 30, 39),
            ],
            vec![v6span(1, 20, 29)],
        );
        let labeled = labeled_v4_durations(&h, 0.8);
        assert_eq!(labeled.len(), 2);
        assert_eq!(labeled[0].hours, 10);
        assert!(!labeled[0].dual_stack);
        assert!(labeled[1].dual_stack);
    }

    #[test]
    fn partial_coverage_respects_threshold() {
        // v6 covers half of the sandwiched v4 span.
        let h = history(
            vec![v4span(1, 0, 9), v4span(2, 10, 19), v4span(3, 20, 29)],
            vec![v6span(1, 10, 14)],
        );
        let strict = labeled_v4_durations(&h, 0.8);
        assert!(!strict[0].dual_stack);
        let loose = labeled_v4_durations(&h, 0.4);
        assert!(loose[0].dual_stack);
    }

    #[test]
    fn coupled_changes_are_simultaneous() {
        let h = history(
            vec![v4span(1, 0, 23), v4span(2, 24, 47), v4span(3, 48, 71)],
            vec![v6span(1, 0, 23), v6span(2, 24, 47), v6span(3, 48, 71)],
        );
        let co = co_occurrence(&h);
        assert_eq!(co.simultaneous, 2);
        assert_eq!(co.v4_only, 0);
        assert_eq!(co.v6_only, 0);
        assert!((co.simultaneity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_changes_do_not_co_occur() {
        let h = history(
            vec![v4span(1, 0, 23), v4span(2, 24, 47)],
            vec![v6span(1, 0, 35), v6span(2, 36, 71)],
        );
        let co = co_occurrence(&h);
        assert_eq!(co.simultaneous, 0);
        assert_eq!(co.v4_only, 1);
        assert_eq!(co.v6_only, 1);
        assert_eq!(co.simultaneity(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CoOccurrence {
            simultaneous: 9,
            v4_only: 1,
            v6_only: 0,
        };
        a.merge(&CoOccurrence {
            simultaneous: 0,
            v4_only: 10,
            v6_only: 5,
        });
        assert_eq!(a.simultaneous, 9);
        assert_eq!(a.v4_only, 11);
        assert!((a.simultaneity() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn single_stack_era_changes_are_excluded() {
        // The probe renumbered v4 daily at hours 24,48 with no v6 at all,
        // then became dual-stack and had one coupled change at hour 120.
        let h = history(
            vec![
                v4span(1, 0, 23),
                v4span(2, 24, 47),
                v4span(3, 48, 119),
                v4span(4, 120, 200),
            ],
            vec![v6span(1, 96, 119), v6span(2, 120, 200)],
        );
        let co = co_occurrence(&h);
        // Only the hour-120 change counts: it is simultaneous.
        assert_eq!(co.simultaneous, 1);
        assert_eq!(co.v4_only, 0, "pre-dual-stack changes must not count");
        assert!((co.simultaneity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_changes_means_zero_simultaneity() {
        let h = history(vec![v4span(1, 0, 100)], vec![v6span(1, 0, 100)]);
        let co = co_occurrence(&h);
        assert_eq!(co.simultaneity(), 0.0);
        assert_eq!(co.simultaneous + co.v4_only + co.v6_only, 0);
    }
}
