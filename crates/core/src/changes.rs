//! Assignment spans and sandwiched durations.
//!
//! Section 3.1: "we detect assignment changes for a given probe by
//! identifying when the reported IPv4 address (or /64 IPv6 prefix) differs
//! from the previous one. We infer the duration of an assignment by
//! calculating how long the assignment was continuously observed between
//! changes. Since we restrict ourselves to observing durations only when an
//! assignment is sandwiched between changes, we observe the exact duration
//! (at hourly granularity) of an assignment."

use dynamips_atlas::ProbeId;
use dynamips_atlas::{EchoV4, EchoV6};
use dynamips_netaddr::Ipv6Prefix;
use dynamips_netsim::SimTime;
use dynamips_routing::Asn;
use std::net::Ipv4Addr;

/// A maximal run of identical consecutive observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-pub): values flow to other crates through `ProbeHistory`'s
// pub span fields without the type name being spelled.
pub struct Span<T> {
    /// The observed value (address or /64 prefix).
    pub value: T,
    /// First observation time.
    pub first: SimTime,
    /// Last observation time.
    pub last: SimTime,
}

/// Build spans from a time-ordered observation stream. A new span starts
/// whenever the value differs from the immediately preceding observation;
/// measurement gaps with the same value on both sides do *not* split a span
/// (a change is only inferred when the reported value actually differs).
pub fn spans_of<T: PartialEq + Copy>(obs: impl Iterator<Item = (SimTime, T)>) -> Vec<Span<T>> {
    let mut out: Vec<Span<T>> = Vec::new();
    for (t, v) in obs {
        match out.last_mut() {
            Some(span) if span.value == v => span.last = t,
            _ => out.push(Span {
                value: v,
                first: t,
                last: t,
            }),
        }
    }
    out
}

/// Durations (in hours) of spans sandwiched between observed changes:
/// span `i` qualifies for `1 <= i <= len-2`, and its duration is the time
/// from its first observation to the change that ended it.
pub fn sandwiched_durations<T: PartialEq + Copy>(spans: &[Span<T>]) -> Vec<u64> {
    if spans.len() < 3 {
        return Vec::new();
    }
    spans
        .windows(2)
        .skip(1)
        .take(spans.len() - 2)
        .map(|w| w[1].first - w[0].first)
        .collect()
}

/// Number of observed changes (span boundaries).
pub fn change_count<T>(spans: &[Span<T>]) -> usize {
    spans.len().saturating_sub(1)
}

/// One probe's cleaned assignment history — the unit every downstream
/// analysis consumes. Produced by the sanitizer.
#[derive(Debug, Clone)]
pub struct ProbeHistory {
    /// Original probe id.
    pub probe: ProbeId,
    /// Virtual-probe index (Appendix A.1 splits probes that switched ISP
    /// into one "virtual probe" per AS).
    pub virtual_index: u8,
    /// The AS this (virtual) probe was observed in.
    pub asn: Asn,
    /// IPv4 address spans.
    pub v4: Vec<Span<Ipv4Addr>>,
    /// IPv6 /64 spans.
    pub v6: Vec<Span<Ipv6Prefix>>,
}

impl ProbeHistory {
    /// Observation span in hours across both families.
    pub fn observed_hours(&self) -> u64 {
        let first = self
            .v4
            .first()
            .map(|s| s.first)
            .into_iter()
            .chain(self.v6.first().map(|s| s.first))
            .min();
        let last = self
            .v4
            .last()
            .map(|s| s.last)
            .into_iter()
            .chain(self.v6.last().map(|s| s.last))
            .max();
        match (first, last) {
            (Some(a), Some(b)) => b - a,
            _ => 0,
        }
    }

    /// Whether both families' spans are in time order,
    /// `first_i <= last_i <= first_{i+1}`, as spans built from time-sorted
    /// records are. The dual-stack joins binary-search on it.
    pub(crate) fn is_time_ordered(&self) -> bool {
        fn ordered<T>(spans: &[Span<T>]) -> bool {
            spans.iter().all(|s| s.first <= s.last)
                && spans.windows(2).all(|w| w[0].last <= w[1].first)
        }
        ordered(&self.v4) && ordered(&self.v6)
    }

    /// Whether the probe reported IPv6 throughout (coverage of v6
    /// observations over the probe's observed window ≥ `min_coverage`).
    pub fn is_dual_stack(&self, min_coverage: f64) -> bool {
        if self.v6.is_empty() || self.v4.is_empty() {
            return false;
        }
        let covered: u64 = self.v6.iter().map(|s| s.last - s.first + 1).sum();
        let span = self.observed_hours() + 1;
        covered as f64 >= min_coverage * span as f64
    }
}

/// Build spans for the two families of an echo series.
pub fn histories_from_records(
    v4: &[EchoV4],
    v6: &[EchoV6],
) -> (Vec<Span<Ipv4Addr>>, Vec<Span<Ipv6Prefix>>) {
    let v4_spans = spans_of(v4.iter().map(|r| (r.time, r.client)));
    let v6_spans = spans_of(
        v6.iter()
            .map(|r| (r.time, Ipv6Prefix::slash64_of(r.client))),
    );
    (v4_spans, v6_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(points: &[(u64, u32)]) -> Vec<(SimTime, u32)> {
        points.iter().map(|&(t, v)| (SimTime(t), v)).collect()
    }

    #[test]
    fn spans_merge_consecutive_identical_values() {
        let s = spans_of(obs(&[(0, 1), (1, 1), (2, 1), (3, 2), (4, 2)]).into_iter());
        assert_eq!(
            s,
            vec![
                Span {
                    value: 1,
                    first: SimTime(0),
                    last: SimTime(2)
                },
                Span {
                    value: 2,
                    first: SimTime(3),
                    last: SimTime(4)
                },
            ]
        );
        assert_eq!(change_count(&s), 1);
    }

    #[test]
    fn gaps_with_same_value_do_not_split() {
        // Hours 0,1 then a gap, then 5,6 with the same value.
        let s = spans_of(obs(&[(0, 7), (1, 7), (5, 7), (6, 7)]).into_iter());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].first, SimTime(0));
        assert_eq!(s[0].last, SimTime(6));
    }

    #[test]
    fn value_revisits_create_new_spans() {
        let s = spans_of(obs(&[(0, 1), (1, 2), (2, 1)]).into_iter());
        assert_eq!(s.len(), 3);
        assert_eq!(change_count(&s), 2);
    }

    #[test]
    fn sandwiched_durations_require_changes_on_both_sides() {
        // Spans: A(0..9) B(10..19) C(20..29) D(30..39).
        let pts: Vec<(u64, u32)> = (0..40).map(|t| (t, (t / 10) as u32)).collect();
        let s = spans_of(obs(&pts).into_iter());
        assert_eq!(s.len(), 4);
        // Only B and C are sandwiched; each lasted exactly 10 hours.
        assert_eq!(sandwiched_durations(&s), vec![10, 10]);
    }

    #[test]
    fn too_few_spans_yield_no_durations() {
        let s = spans_of(obs(&[(0, 1), (5, 2)]).into_iter());
        assert!(sandwiched_durations(&s).is_empty());
        let s = spans_of(obs(&[(0, 1)]).into_iter());
        assert!(sandwiched_durations(&s).is_empty());
        assert_eq!(change_count(&s), 0);
    }

    #[test]
    fn duration_measured_to_observed_change_across_gap() {
        // A at 0..=9, B at 10..=19, gap, B ends with change to C at 25.
        let mut pts: Vec<(u64, u32)> = (0..10).map(|t| (t, 1)).collect();
        pts.extend((10..20).map(|t| (t, 2)));
        pts.push((25, 3));
        pts.push((26, 3));
        pts.push((27, 4));
        let s = spans_of(obs(&pts).into_iter());
        // B's duration: from first observation (10) to the change observed
        // at 25.
        assert_eq!(sandwiched_durations(&s), vec![15, 2]);
    }

    #[test]
    fn dual_stack_coverage_classification() {
        let v4 = vec![Span {
            value: Ipv4Addr::new(1, 1, 1, 1),
            first: SimTime(0),
            last: SimTime(99),
        }];
        let v6_full = vec![Span {
            value: "2001:db8::/64".parse::<Ipv6Prefix>().unwrap(),
            first: SimTime(0),
            last: SimTime(99),
        }];
        let h = ProbeHistory {
            probe: ProbeId(1),
            virtual_index: 0,
            asn: Asn(1),
            v4: v4.clone(),
            v6: v6_full,
        };
        assert!(h.is_dual_stack(0.8));

        let v6_partial = vec![Span {
            value: "2001:db8::/64".parse::<Ipv6Prefix>().unwrap(),
            first: SimTime(0),
            last: SimTime(20),
        }];
        let h = ProbeHistory {
            probe: ProbeId(1),
            virtual_index: 0,
            asn: Asn(1),
            v4,
            v6: v6_partial,
        };
        assert!(!h.is_dual_stack(0.8), "only 21% v6 coverage");
        assert!(h.is_dual_stack(0.2));
    }

    #[test]
    fn histories_extract_slash64() {
        let v6 = vec![EchoV6 {
            time: SimTime(0),
            client: "2003:40:a0:aa00:225:96ff:fe12:3456".parse().unwrap(),
            src: "2003:40:a0:aa00:225:96ff:fe12:3456".parse().unwrap(),
        }];
        let (_, spans) = histories_from_records(&[], &v6);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].value.to_string(), "2003:40:a0:aa00::/64");
    }

    #[test]
    fn observed_hours_spans_both_families() {
        let h = ProbeHistory {
            probe: ProbeId(1),
            virtual_index: 0,
            asn: Asn(1),
            v4: vec![Span {
                value: Ipv4Addr::new(1, 1, 1, 1),
                first: SimTime(10),
                last: SimTime(50),
            }],
            v6: vec![Span {
                value: "2001:db8::/64".parse().unwrap(),
                first: SimTime(0),
                last: SimTime(30),
            }],
        };
        assert_eq!(h.observed_hours(), 50);
    }
}
