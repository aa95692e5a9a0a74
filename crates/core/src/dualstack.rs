//! Dual-stack classification and v4/v6 change co-occurrence.
//!
//! Section 3.2 splits IPv4 durations by whether the probe "has been
//! consistently reporting IPv6 'IP echo' measurements during the same
//! period", and investigates "whether IPv4 and IPv6 assignments in
//! dual-stack networks change simultaneously" (90.6% same-hour in DTAG,
//! mostly non-co-occurring in Comcast).
//!
//! Both joins read each family's spans in time order: the sanitizer emits
//! `first_i <= last_i <= first_{i+1}` (debug-asserted there), so a span of
//! one family finds the spans of the other by binary search and the two
//! change-time lists meet in one merge pass.

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
///
/// The v6 spans are time-ordered (`first_i <= last_i <= first_{i+1}`), so
/// both `first` and `last` are non-decreasing and the spans that overlap
/// `[lo, hi]` are one run: from the first with `last >= lo` while
/// `first <= hi`.
fn v6_covers(history: &ProbeHistory, lo: SimTime, hi: SimTime, min_coverage: f64) -> bool {
    let window = hi - lo + 1;
    let start = history.v6.partition_point(|s| s.last < lo);
    let covered: u64 = history
        .v6
        .iter()
        .skip(start)
        .take_while(|s| s.first <= hi)
        .map(|s| s.last.min(hi) - s.first.max(lo) + 1)
        .sum();
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
///
/// Two records in one hour give touching spans, so a change hour can
/// repeat. Each change counts on its own: a v4 change is simultaneous when
/// its hour occurs among the v6 changes, and a v6 change is `v6_only` when
/// its hour does not occur among the v4 changes.
pub fn co_occurrence(history: &ProbeHistory) -> CoOccurrence {
    let v4_changes: Vec<SimTime> = change_times(&history.v4)
        .filter(|&t| covers(&history.v6, t))
        .collect();
    let v6_changes: Vec<SimTime> = change_times(&history.v6)
        .filter(|&t| covers(&history.v4, t))
        .collect();
    let simultaneous = count_shared(&v4_changes, &v6_changes);
    CoOccurrence {
        simultaneous,
        v4_only: v4_changes.len() - simultaneous,
        v6_only: v6_changes.len() - count_shared(&v6_changes, &v4_changes),
    }
}

/// The observation times at which a new assignment was first seen (skipping
/// the initial one, which is not a change), in time order.
fn change_times<T>(spans: &[Span<T>]) -> impl Iterator<Item = SimTime> + '_ {
    spans.iter().skip(1).map(|s| s.first)
}

/// Whether some span of the time-ordered `spans` covers `t`. The first span
/// with `last >= t` has the smallest `first` of all that may, so it alone
/// decides.
fn covers<T>(spans: &[Span<T>], t: SimTime) -> bool {
    let i = spans.partition_point(|s| s.last < t);
    spans.get(i).is_some_and(|s| s.first <= t)
}

/// How many entries of `a` (a multiset: an hour may repeat) fall in an hour
/// that also occurs in `b`. Both are sorted; one merge pass.
fn count_shared(a: &[SimTime], b: &[SimTime]) -> usize {
    let mut rest = b.iter().peekable();
    a.iter()
        .filter(|&t| {
            while rest.next_if(|&u| u < t).is_some() {}
            rest.peek() == Some(&t)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::spans_of;
    use dynamips_atlas::ProbeId;
    use dynamips_netaddr::Ipv6Prefix;
    use dynamips_netsim::rngutil::derive_rng;
    use dynamips_routing::Asn;
    use rand::Rng;
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

    /// [`labeled_v4_durations`] as it was: each sandwiched v4 span scans
    /// every v6 span. The reference oracle for the binary-searched join.
    fn labeled_v4_durations_by_scan(
        history: &ProbeHistory,
        min_coverage: f64,
    ) -> Vec<LabeledDuration> {
        sandwiched_durations(&history.v4)
            .iter()
            .enumerate()
            .map(|(k, &hours)| {
                let (lo, hi) = (history.v4[k + 1].first, history.v4[k + 1].last);
                let mut covered: u64 = 0;
                for s in &history.v6 {
                    let a = s.first.max(lo);
                    let b = s.last.min(hi);
                    if b >= a {
                        covered += b - a + 1;
                    }
                }
                LabeledDuration {
                    hours,
                    dual_stack: covered as f64 >= min_coverage * (hi - lo + 1) as f64,
                }
            })
            .collect()
    }

    /// [`co_occurrence`] as it was: coverage by a scan of every span of the
    /// other family, and same-hour membership by hash set. The reference
    /// oracle for the binary-searched, merged version.
    #[allow(clippy::disallowed_types, reason = "the hash-set kernel it replaced")]
    fn co_occurrence_by_set(history: &ProbeHistory) -> CoOccurrence {
        let covered = |spans: &[(SimTime, SimTime)], t: SimTime| {
            spans.iter().any(|&(first, last)| first <= t && t <= last)
        };
        let v4: Vec<(SimTime, SimTime)> = history.v4.iter().map(|s| (s.first, s.last)).collect();
        let v6: Vec<(SimTime, SimTime)> = history.v6.iter().map(|s| (s.first, s.last)).collect();
        let v4_changes: Vec<SimTime> = v4
            .iter()
            .skip(1)
            .map(|s| s.0)
            .filter(|&t| covered(&v6, t))
            .collect();
        let v6_changes: Vec<SimTime> = v6
            .iter()
            .skip(1)
            .map(|s| s.0)
            .filter(|&t| covered(&v4, t))
            .collect();
        let v6_set: std::collections::HashSet<u64> = v6_changes.iter().map(|t| t.hours()).collect();
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

    /// A seeded family of spans, built by `spans_of` from time-ordered
    /// records the way the sanitizer builds them. Records are 0–40 hours
    /// apart: a 0-hour step with a new value gives touching spans and a
    /// repeated change hour. A tenth of families are empty; some hold one
    /// value, so one span; the observed window starts and ends at random,
    /// so spans lie wholly before, after and across the other family's.
    fn random_family<T: PartialEq + Copy>(
        rng: &mut impl Rng,
        value: impl Fn(u8) -> T,
    ) -> Vec<Span<T>> {
        if rng.gen_range(0..10) == 0 {
            return Vec::new();
        }
        let mut t = rng.gen_range(0..200u64);
        let end = t + rng.gen_range(0..600u64);
        let values = rng.gen_range(1..4u8);
        let mut records = Vec::new();
        while t <= end {
            records.push((SimTime(t), value(rng.gen_range(0..values))));
            t += match rng.gen_range(0..10) {
                0..=1 => 0,
                2..=6 => 1,
                _ => rng.gen_range(2..40),
            };
        }
        spans_of(records.into_iter())
    }

    fn repeats_a_change_hour<T>(spans: &[Span<T>]) -> bool {
        spans.windows(3).any(|w| w[1].first == w[2].first)
    }

    #[test]
    fn joins_match_scan_and_set_oracles() {
        let mut rng = derive_rng(28, 1);
        let (mut repeats4, mut repeats6, mut empty, mut single) = (0, 0, 0, 0);
        let (mut dual, mut single_stack, mut simultaneous, mut v6_only) = (0, 0, 0, 0);
        for i in 0..400 {
            let h = history(
                random_family(&mut rng, |n| Ipv4Addr::new(84, 1, 1, n)),
                random_family(&mut rng, |n| {
                    format!("2003:0:0:{n:x}::/64")
                        .parse::<Ipv6Prefix>()
                        .unwrap()
                }),
            );
            for min_coverage in [0.0, 0.25, 0.5, 0.8, 1.0] {
                let got = labeled_v4_durations(&h, min_coverage);
                assert_eq!(
                    got,
                    labeled_v4_durations_by_scan(&h, min_coverage),
                    "history {i} at {min_coverage}: {h:?}"
                );
                dual += got.iter().filter(|d| d.dual_stack).count();
                single_stack += got.iter().filter(|d| !d.dual_stack).count();
            }
            let co = co_occurrence(&h);
            assert_eq!(co, co_occurrence_by_set(&h), "history {i}: {h:?}");
            simultaneous += co.simultaneous;
            v6_only += co.v6_only;
            repeats4 += usize::from(repeats_a_change_hour(&h.v4));
            repeats6 += usize::from(repeats_a_change_hour(&h.v6));
            empty += usize::from(h.v4.is_empty() || h.v6.is_empty());
            single += usize::from(h.v4.len() == 1 || h.v6.len() == 1);
        }
        // The seeded histories must exercise every case the joins handle.
        for (case, n) in [
            ("repeated v4 change hours", repeats4),
            ("repeated v6 change hours", repeats6),
            ("empty families", empty),
            ("single-span families", single),
            ("dual-stack durations", dual),
            ("single-stack durations", single_stack),
            ("simultaneous changes", simultaneous),
            ("v6-only changes", v6_only),
        ] {
            assert!(n > 10, "{n} {case}");
        }
    }

    #[test]
    fn repeated_change_hours_count_each_change() {
        // Two v4 records in hour 24 give the touching spans 24-24 and
        // 24-47: two v4 changes in hour 24, against one v6 change there.
        let h = history(
            vec![v4span(1, 0, 23), v4span(2, 24, 24), v4span(3, 24, 47)],
            vec![v6span(1, 0, 23), v6span(2, 24, 47)],
        );
        let co = co_occurrence(&h);
        assert_eq!(co, co_occurrence_by_set(&h));
        assert_eq!((co.simultaneous, co.v4_only, co.v6_only), (2, 0, 0));
        // And the other way round: the second v6 change in hour 24 is not
        // v6-only, since a v4 change shares its hour.
        let h = history(
            vec![v4span(1, 0, 23), v4span(2, 24, 47)],
            vec![v6span(1, 0, 23), v6span(2, 24, 24), v6span(3, 24, 47)],
        );
        let co = co_occurrence(&h);
        assert_eq!(co, co_occurrence_by_set(&h));
        assert_eq!((co.simultaneous, co.v4_only, co.v6_only), (1, 0, 0));
    }

    #[test]
    fn coverage_counts_spans_on_the_window_edges() {
        // Sandwiched v4 span 10-19. The first v6 span ends on its first
        // hour, the second starts on its last hour.
        let v4 = vec![v4span(1, 0, 9), v4span(2, 10, 19), v4span(3, 20, 29)];
        let h = history(v4.clone(), vec![v6span(1, 0, 10), v6span(2, 11, 19)]);
        assert!(
            labeled_v4_durations(&h, 1.0)[0].dual_stack,
            "10 of 10 hours"
        );
        let h = history(v4.clone(), vec![v6span(1, 19, 40)]);
        assert!(labeled_v4_durations(&h, 0.1)[0].dual_stack, "1 of 10 hours");
        assert!(!labeled_v4_durations(&h, 0.11)[0].dual_stack);
        // v6 spans wholly before and after: no coverage, which only
        // `min_coverage` 0 accepts.
        let h = history(v4.clone(), vec![v6span(1, 0, 9), v6span(2, 20, 29)]);
        assert!(labeled_v4_durations(&h, 0.0)[0].dual_stack);
        assert!(!labeled_v4_durations(&h, 0.01)[0].dual_stack);
        let h = history(v4, vec![]);
        assert!(!labeled_v4_durations(&h, 0.5)[0].dual_stack);
    }

    #[test]
    fn a_change_on_the_last_hour_of_a_span_is_covered() {
        // The v4 change at hour 24 falls on the last hour of the first v6
        // span; the v6 change at hour 30 inside the second v4 span.
        let h = history(
            vec![v4span(1, 0, 23), v4span(2, 24, 40)],
            vec![v6span(1, 0, 24), v6span(2, 30, 50)],
        );
        let co = co_occurrence(&h);
        assert_eq!(co, co_occurrence_by_set(&h));
        assert_eq!((co.simultaneous, co.v4_only, co.v6_only), (0, 1, 1));
    }
}
