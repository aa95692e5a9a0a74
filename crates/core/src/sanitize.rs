//! The Appendix-A.1 sanitization pipeline.
//!
//! Raw probe series contain deployment artifacts that would masquerade as
//! assignment dynamics. In order, this pipeline:
//!
//! 1. drops echo records reporting the RIPE test address `193.0.0.78`;
//! 2. drops probes carrying non-residential tags (`datacentre`, `core`,
//!    `system-anchor`, explicit `multihomed`);
//! 3. drops probes with atypical NAT setups (public IPv4 `src_addr`, or
//!    IPv6 `X-Client-IP` ≠ `src_addr`);
//! 4. detects multihoming by looking for alternation — reported values
//!    returning to a recently seen address/prefix — and drops such probes;
//! 5. splits probes that moved between ASes into per-AS "virtual probes";
//! 6. drops (virtual) probes observed for less than a month, and keeps only
//!    those observed within a single AS.

use crate::changes::{spans_of, ProbeHistory, Span};
use dynamips_atlas::{EchoV4, EchoV6, ProbeId, ProbeSeries, TEST_ADDRESS};
use dynamips_netaddr::Ipv6Prefix;
use dynamips_netsim::SimTime;
use dynamips_routing::{Asn, RoutingTable};
use std::net::Ipv4Addr;

/// Sanitizer thresholds.
#[derive(Debug, Clone, Copy)]
pub struct SanitizeConfig {
    /// Minimum observation span for a (virtual) probe, hours. The paper
    /// uses one month.
    pub min_observed_hours: u64,
    /// Number of returns-to-a-recent-value before a probe is declared
    /// multihomed.
    pub multihoming_revisit_threshold: usize,
    /// How many distinct recent values to remember when looking for
    /// alternation.
    pub multihoming_memory: usize,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            min_observed_hours: 30 * 24,
            multihoming_revisit_threshold: 3,
            multihoming_memory: 2,
        }
    }
}

/// Why a probe (or all of it) was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// lint:allow(dead-pub): values flow to other crates through pub fn
// returns and pattern matches without the type name being spelled.
pub enum RejectReason {
    /// Non-residential or explicitly multihomed tag.
    BadTag,
    /// Public IPv4 `src_addr` or mismatched IPv6 `src_addr`.
    AtypicalNat,
    /// Alternating addresses/prefixes.
    Multihomed,
    /// Too little observation time in any single AS.
    TooShort,
    /// No routable observations at all.
    NoData,
}

impl RejectReason {
    /// Stable kebab-case label for degradation accounting
    /// ([`crate::degrade::DegradationReport`]).
    pub fn class(&self) -> &'static str {
        match self {
            RejectReason::BadTag => "bad-tag",
            RejectReason::AtypicalNat => "atypical-nat",
            RejectReason::Multihomed => "multihomed",
            RejectReason::TooShort => "too-short",
            RejectReason::NoData => "no-data",
        }
    }
}

/// Per-filter accounting, mirroring the Appendix's bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Probes seen.
    pub probes_in: usize,
    /// Test-address records removed.
    pub test_address_records: usize,
    /// Probes dropped for bad tags.
    pub bad_tag: usize,
    /// Probes dropped for atypical NAT.
    pub atypical_nat: usize,
    /// Probes dropped as multihomed.
    pub multihomed: usize,
    /// Probes that produced more than one virtual probe (ISP switches).
    pub split_probes: usize,
    /// Virtual probes dropped for insufficient observation.
    pub too_short: usize,
    /// Clean (virtual) probes emitted.
    pub probes_out: usize,
}

impl SanitizeReport {
    /// Fold another report's per-filter counters into this one, so partial
    /// reports from sharded sanitization merge to the sequential totals.
    pub fn merge(&mut self, other: &SanitizeReport) {
        self.probes_in += other.probes_in;
        self.test_address_records += other.test_address_records;
        self.bad_tag += other.bad_tag;
        self.atypical_nat += other.atypical_nat;
        self.multihomed += other.multihomed;
        self.split_probes += other.split_probes;
        self.too_short += other.too_short;
        self.probes_out += other.probes_out;
    }
}

/// Outcome of sanitizing one probe.
#[derive(Debug, Clone)]
pub enum SanitizeOutcome {
    /// Clean histories (one per virtual probe).
    Clean(Vec<ProbeHistory>),
    /// The probe was rejected outright.
    Rejected(RejectReason),
}

/// Tags that mark non-residential deployments (Appendix A.1).
const BAD_TAGS: [&str; 4] = ["multihomed", "datacentre", "core", "system-anchor"];

/// Run the pipeline on one probe. `report` is updated with per-filter
/// accounting.
///
/// Each family's records are walked once: the walk builds the spans,
/// counts (and skips) test-address records and notes an atypical `src`.
/// Every later step reads spans. A span's records share one value and
/// therefore one origin AS, so step (5) costs one routing lookup per span;
/// only a series whose routed spans name two or more ASes goes back to its
/// records ([`split_by_as`]).
///
/// Each family's records must be in time order, as the collector emits
/// them and the lossy TSV loader re-sorts them: every emitted history's
/// spans are then time-ordered (debug-asserted), which the dual-stack
/// joins rely on.
pub fn sanitize_probe(
    series: &ProbeSeries,
    routing: &RoutingTable,
    cfg: &SanitizeConfig,
    report: &mut SanitizeReport,
) -> SanitizeOutcome {
    report.probes_in += 1;

    // (2) tags
    if series.tags.iter().any(|t| BAD_TAGS.contains(&t.as_str())) {
        report.bad_tag += 1;
        return SanitizeOutcome::Rejected(RejectReason::BadTag);
    }

    // (1) test-address records and (3) atypical NAT, in the span walks.
    let (mut test_records, mut v4_public_src) = (0usize, false);
    let v4_spans = spans_of(
        series
            .v4
            .iter()
            .filter(|r| {
                if r.client == TEST_ADDRESS {
                    test_records += 1;
                    return false;
                }
                v4_public_src |= !r.src.is_private();
                true
            })
            .map(|r| (r.time, r.client)),
    );
    report.test_address_records += test_records;
    let mut v6_mismatched = false;
    let v6_spans = spans_of(series.v6.iter().map(|r| {
        v6_mismatched |= r.src != r.client;
        (r.time, Ipv6Prefix::slash64_of(r.client))
    }));
    if v4_public_src || v6_mismatched {
        report.atypical_nat += 1;
        return SanitizeOutcome::Rejected(RejectReason::AtypicalNat);
    }

    // (4) multihoming: alternation in either family.
    if is_alternating(&v4_spans, cfg) || is_alternating(&v6_spans, cfg) {
        report.multihomed += 1;
        return SanitizeOutcome::Rejected(RejectReason::Multihomed);
    }

    // (5) split by AS runs.
    let histories = split_spans_by_as(series, test_records > 0, v4_spans, v6_spans, routing);
    if histories.is_empty() {
        report.too_short += 1;
        return SanitizeOutcome::Rejected(RejectReason::NoData);
    }
    if histories.len() > 1 {
        report.split_probes += 1;
    }

    // (6) minimum observation per virtual probe.
    let kept: Vec<ProbeHistory> = histories
        .into_iter()
        .filter(|h| {
            if h.observed_hours() >= cfg.min_observed_hours {
                true
            } else {
                report.too_short += 1;
                false
            }
        })
        .collect();

    if kept.is_empty() {
        return SanitizeOutcome::Rejected(RejectReason::TooShort);
    }
    report.probes_out += kept.len();
    SanitizeOutcome::Clean(kept)
}

/// Step (5) on the spans of `series`, built without its test-address
/// records (`has_test_records` says whether `series.v4` holds any).
///
/// When every routed span names one AS, the series is one virtual probe:
/// its spans with the unrouted ones dropped and equal neighbours merged,
/// which is exactly `spans_of` over the routed records in any record
/// order. Otherwise the AS-run boundaries depend on how the two families'
/// record times interleave, which spans do not carry, so the records are
/// split by [`split_by_as`].
fn split_spans_by_as(
    series: &ProbeSeries,
    has_test_records: bool,
    mut v4: Vec<Span<Ipv4Addr>>,
    mut v6: Vec<Span<Ipv6Prefix>>,
    routing: &RoutingTable,
) -> Vec<ProbeHistory> {
    let v4_as: Vec<Option<Asn>> = v4.iter().map(|s| routing.origin_v4(s.value)).collect();
    let v6_as: Vec<Option<Asn>> = v6
        .iter()
        .map(|s| routing.route_v6_prefix(&s.value).map(|(_, asn)| asn))
        .collect();
    let mut routed = v4_as.iter().chain(&v6_as).flatten();
    let Some(&asn) = routed.next() else {
        return Vec::new();
    };
    if routed.any(|&other| other != asn) {
        let filtered: Vec<EchoV4>;
        let records = if has_test_records {
            filtered = series
                .v4
                .iter()
                .filter(|r| r.client != TEST_ADDRESS)
                .copied()
                .collect();
            &filtered
        } else {
            &series.v4
        };
        return split_by_as(series.probe, records, &series.v6, routing);
    }
    keep_routed(&mut v4, &v4_as);
    keep_routed(&mut v6, &v6_as);
    let history = ProbeHistory {
        probe: series.probe,
        virtual_index: 0,
        asn,
        v4,
        v6,
    };
    debug_assert!(history.is_time_ordered(), "unsorted records: {history:?}");
    vec![history]
}

/// Drop the spans whose `labels` entry is `None` and merge the equal
/// neighbours this leaves: the first span of a merged run keeps its
/// `first`, and the last one gives its `last`.
fn keep_routed<T: PartialEq>(spans: &mut Vec<Span<T>>, labels: &[Option<Asn>]) {
    let mut label = labels.iter();
    spans.retain(|_| label.next().is_some_and(Option::is_some));
    spans.dedup_by(|later, earlier| {
        let same = later.value == earlier.value;
        if same {
            earlier.last = later.last;
        }
        same
    });
}

/// Multihoming heuristic: count spans whose value re-appears among the
/// previous `memory` distinct span values (the A-B-A-B signature).
fn is_alternating<T: PartialEq + Copy>(spans: &[Span<T>], cfg: &SanitizeConfig) -> bool {
    let mut revisits = 0usize;
    for (i, span) in spans.iter().enumerate() {
        let lo = i.saturating_sub(cfg.multihoming_memory);
        if spans[lo..i].iter().any(|p| p.value == span.value) {
            revisits += 1;
            if revisits >= cfg.multihoming_revisit_threshold {
                return true;
            }
        }
    }
    false
}

/// Assign each observation to its origin AS and split the series into
/// contiguous per-AS runs. Observations that are not routed at all are
/// discarded (they cannot be attributed to a network).
fn split_by_as(
    probe: ProbeId,
    v4: &[EchoV4],
    v6: &[EchoV6],
    routing: &RoutingTable,
) -> Vec<ProbeHistory> {
    // One routing lookup per record, skipped while the v4 address or the
    // v6 /64 repeats.
    let v4_as = label_by(v4, |r| r.client, |a| routing.origin_v4(a));
    let v6_as = label_by(
        v6,
        |r| Ipv6Prefix::slash64_of(r.client),
        |p| routing.route_v6_prefix(&p).map(|(_, asn)| asn),
    );

    // Merge both families into one AS-over-time view to find run
    // boundaries.
    let mut as_obs: Vec<(SimTime, Asn)> = (v4.iter().map(|r| r.time).zip(&v4_as))
        .chain(v6.iter().map(|r| r.time).zip(&v6_as))
        .filter_map(|(t, asn)| Some((t, (*asn)?)))
        .collect();
    as_obs.sort_by_key(|(t, _)| *t);
    let as_runs = spans_of(as_obs.into_iter());

    as_runs
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let in_run = |time: SimTime, asn: Option<Asn>| {
                time >= run.first && time <= run.last && asn == Some(run.value)
            };
            let v4_spans = spans_of(
                v4.iter()
                    .zip(&v4_as)
                    .filter(|(r, asn)| in_run(r.time, **asn))
                    .map(|(r, _)| (r.time, r.client)),
            );
            let v6_spans = spans_of(
                v6.iter()
                    .zip(&v6_as)
                    .filter(|(r, asn)| in_run(r.time, **asn))
                    .map(|(r, _)| (r.time, Ipv6Prefix::slash64_of(r.client))),
            );
            let history = ProbeHistory {
                probe,
                virtual_index: i as u8,
                asn: run.value,
                v4: v4_spans,
                v6: v6_spans,
            };
            debug_assert!(history.is_time_ordered(), "unsorted records: {history:?}");
            history
        })
        .collect()
}

/// The origin AS of each record, in record order. `lookup` runs once per
/// change of `key`: echoes repeat one address for hours to days, so
/// consecutive records mostly share their answer.
fn label_by<R, K: PartialEq + Copy>(
    records: &[R],
    key: impl Fn(&R) -> K,
    lookup: impl Fn(K) -> Option<Asn>,
) -> Vec<Option<Asn>> {
    let mut last: Option<(K, Option<Asn>)> = None;
    records
        .iter()
        .map(|r| {
            let k = key(r);
            match last {
                Some((seen, asn)) if seen == k => asn,
                _ => {
                    let asn = lookup(k);
                    last = Some((k, asn));
                    asn
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_netsim::rngutil::derive_rng;
    use rand::Rng;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn routing() -> RoutingTable {
        let mut t = RoutingTable::new();
        t.announce_v4("84.0.0.0/8".parse().unwrap(), Asn(3320));
        t.announce_v4("98.0.0.0/8".parse().unwrap(), Asn(7922));
        t.announce_v6("2003::/19".parse().unwrap(), Asn(3320));
        t.announce_v6("2601::/20".parse().unwrap(), Asn(7922));
        t
    }

    fn v4rec(hour: u64, client: &str) -> EchoV4 {
        EchoV4 {
            time: SimTime(hour),
            client: client.parse().unwrap(),
            src: Ipv4Addr::new(192, 168, 1, 7),
        }
    }

    fn v6rec(hour: u64, client: &str) -> EchoV6 {
        let c: Ipv6Addr = client.parse().unwrap();
        EchoV6 {
            time: SimTime(hour),
            client: c,
            src: c,
        }
    }

    fn hourly_v4(hours: std::ops::Range<u64>, client: &str) -> Vec<EchoV4> {
        hours.map(|h| v4rec(h, client)).collect()
    }

    fn series(v4: Vec<EchoV4>, v6: Vec<EchoV6>) -> ProbeSeries {
        ProbeSeries {
            probe: ProbeId(1),
            asn: Asn(3320),
            tags: vec![],
            v4,
            v6,
        }
    }

    fn run(s: &ProbeSeries) -> (SanitizeOutcome, SanitizeReport) {
        let mut report = SanitizeReport::default();
        let out = sanitize_probe(s, &routing(), &SanitizeConfig::default(), &mut report);
        (out, report)
    }

    #[test]
    fn clean_long_probe_passes() {
        let mut v4 = hourly_v4(0..800, "84.1.1.1");
        v4.extend(hourly_v4(800..1600, "84.1.2.2"));
        let s = series(v4, (0..1600).map(|h| v6rec(h, "2003:0:0:1::5")).collect());
        let (out, report) = run(&s);
        match out {
            SanitizeOutcome::Clean(hist) => {
                assert_eq!(hist.len(), 1);
                assert_eq!(hist[0].asn, Asn(3320));
                assert_eq!(hist[0].v4.len(), 2);
                assert_eq!(hist[0].v6.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(report.probes_out, 1);
    }

    #[test]
    fn test_address_records_are_stripped_not_fatal() {
        let mut v4 = vec![v4rec(0, "193.0.0.78"), v4rec(1, "193.0.0.78")];
        v4.extend(hourly_v4(2..800, "84.1.1.1"));
        let s = series(v4, vec![]);
        let (out, report) = run(&s);
        assert!(matches!(out, SanitizeOutcome::Clean(_)));
        assert_eq!(report.test_address_records, 2);
        if let SanitizeOutcome::Clean(h) = out {
            // The test address must not appear as an assignment.
            assert_eq!(h[0].v4.len(), 1);
            assert_eq!(h[0].v4[0].value, "84.1.1.1".parse::<Ipv4Addr>().unwrap());
        }
    }

    #[test]
    fn bad_tags_reject() {
        let mut s = series(hourly_v4(0..800, "84.1.1.1"), vec![]);
        s.tags = vec!["datacentre".into()];
        let (out, report) = run(&s);
        assert!(matches!(
            out,
            SanitizeOutcome::Rejected(RejectReason::BadTag)
        ));
        assert_eq!(report.bad_tag, 1);
    }

    #[test]
    fn public_v4_src_rejects() {
        let mut v4 = hourly_v4(0..800, "84.1.1.1");
        for r in v4.iter_mut() {
            r.src = r.client;
        }
        let (out, report) = run(&series(v4, vec![]));
        assert!(matches!(
            out,
            SanitizeOutcome::Rejected(RejectReason::AtypicalNat)
        ));
        assert_eq!(report.atypical_nat, 1);
    }

    #[test]
    fn mismatched_v6_src_rejects() {
        let mut v6: Vec<EchoV6> = (0..800).map(|h| v6rec(h, "2003:0:0:1::5")).collect();
        for r in v6.iter_mut() {
            r.src = "2003::dead".parse().unwrap();
        }
        let (out, _) = run(&series(hourly_v4(0..800, "84.1.1.1"), v6));
        assert!(matches!(
            out,
            SanitizeOutcome::Rejected(RejectReason::AtypicalNat)
        ));
    }

    #[test]
    fn alternating_addresses_reject_as_multihomed() {
        // A-B-A-B-A-B hourly alternation.
        let v4: Vec<EchoV4> = (0..1600)
            .map(|h| v4rec(h, if h % 2 == 0 { "84.1.1.1" } else { "84.9.9.9" }))
            .collect();
        let (out, report) = run(&series(v4, vec![]));
        assert!(matches!(
            out,
            SanitizeOutcome::Rejected(RejectReason::Multihomed)
        ));
        assert_eq!(report.multihomed, 1);
    }

    #[test]
    fn ordinary_renumbering_is_not_multihoming() {
        // Monotone progression through distinct addresses never revisits.
        let mut v4 = Vec::new();
        for day in 0..40u64 {
            for h in 0..24 {
                v4.push(v4rec(
                    day * 24 + h,
                    &format!("84.1.{}.{}", day / 200 + 1, day % 200 + 1),
                ));
            }
        }
        let (out, _) = run(&series(v4, vec![]));
        assert!(matches!(out, SanitizeOutcome::Clean(_)));
    }

    #[test]
    fn as_move_splits_into_virtual_probes() {
        let mut v4 = hourly_v4(0..1200, "84.1.1.1");
        v4.extend(hourly_v4(1200..2400, "98.7.7.7"));
        let (out, report) = run(&series(v4, vec![]));
        match out {
            SanitizeOutcome::Clean(hist) => {
                assert_eq!(hist.len(), 2);
                assert_eq!(hist[0].asn, Asn(3320));
                assert_eq!(hist[1].asn, Asn(7922));
                assert_eq!(hist[0].virtual_index, 0);
                assert_eq!(hist[1].virtual_index, 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(report.split_probes, 1);
        assert_eq!(report.probes_out, 2);
    }

    #[test]
    fn short_virtual_probes_are_dropped() {
        // 45 days in AS3320, then only 5 days in AS7922.
        let mut v4 = hourly_v4(0..(45 * 24), "84.1.1.1");
        v4.extend(hourly_v4((45 * 24)..(50 * 24), "98.7.7.7"));
        let (out, report) = run(&series(v4, vec![]));
        match out {
            SanitizeOutcome::Clean(hist) => {
                assert_eq!(hist.len(), 1);
                assert_eq!(hist[0].asn, Asn(3320));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(report.too_short, 1);
    }

    #[test]
    fn wholly_short_probe_rejected() {
        let (out, report) = run(&series(hourly_v4(0..100, "84.1.1.1"), vec![]));
        assert!(matches!(
            out,
            SanitizeOutcome::Rejected(RejectReason::TooShort)
        ));
        assert_eq!(report.probes_out, 0);
        assert_eq!(report.too_short, 1);
    }

    #[test]
    fn unrouted_records_are_ignored() {
        // 10.0.0.0/8 is not announced in the test table.
        let (out, _) = run(&series(hourly_v4(0..800, "10.1.1.1"), vec![]));
        assert!(matches!(
            out,
            SanitizeOutcome::Rejected(RejectReason::NoData)
        ));
    }

    /// [`split_by_as`] as it was before per-record labelling: two routing
    /// lookups per record, repeated in every run's filter. The reference
    /// oracle for the labelled version.
    fn split_by_as_per_record(
        probe: ProbeId,
        v4: &[EchoV4],
        v6: &[EchoV6],
        routing: &RoutingTable,
    ) -> Vec<ProbeHistory> {
        let mut as_obs: Vec<(SimTime, Asn)> = Vec::new();
        for r in v4 {
            if let Some(asn) = routing.origin_v4(r.client) {
                as_obs.push((r.time, asn));
            }
        }
        for r in v6 {
            if let Some((_, asn)) = routing.route_v6_prefix(&Ipv6Prefix::slash64_of(r.client)) {
                as_obs.push((r.time, asn));
            }
        }
        as_obs.sort_by_key(|(t, _)| *t);
        let as_runs = spans_of(as_obs.into_iter());
        as_runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                let lo = run.first;
                let hi = run.last;
                let v4_spans = spans_of(
                    v4.iter()
                        .filter(|r| r.time >= lo && r.time <= hi)
                        .filter(|r| routing.origin_v4(r.client) == Some(run.value))
                        .map(|r| (r.time, r.client)),
                );
                let v6_spans = spans_of(
                    v6.iter()
                        .filter(|r| r.time >= lo && r.time <= hi)
                        .map(|r| (r.time, Ipv6Prefix::slash64_of(r.client)))
                        .filter(|(_, p)| {
                            routing.route_v6_prefix(p).map(|(_, a)| a) == Some(run.value)
                        }),
                );
                ProbeHistory {
                    probe,
                    virtual_index: i as u8,
                    asn: run.value,
                    v4: v4_spans,
                    v6: v6_spans,
                }
            })
            .collect()
    }

    /// Step (5) as the record-level pipeline takes it.
    type SplitFn = fn(ProbeId, &[EchoV4], &[EchoV6], &RoutingTable) -> Vec<ProbeHistory>;

    /// The record-level pipeline [`sanitize_probe`] replaced: a filtered
    /// copy of the v4 records, two NAT scans, spans built for step (4),
    /// and step (5) split from the records by `split`. The reference
    /// oracle for the span-level pipeline.
    fn sanitize_records(
        series: &ProbeSeries,
        routing: &RoutingTable,
        cfg: &SanitizeConfig,
        report: &mut SanitizeReport,
        split: SplitFn,
    ) -> SanitizeOutcome {
        report.probes_in += 1;
        if series.tags.iter().any(|t| BAD_TAGS.contains(&t.as_str())) {
            report.bad_tag += 1;
            return SanitizeOutcome::Rejected(RejectReason::BadTag);
        }
        let v4: Vec<_> = series
            .v4
            .iter()
            .filter(|r| {
                if r.client == TEST_ADDRESS {
                    report.test_address_records += 1;
                    false
                } else {
                    true
                }
            })
            .copied()
            .collect();
        let v4_public_src = v4.iter().any(|r| !r.src.is_private());
        let v6_mismatched = series.v6.iter().any(|r| r.src != r.client);
        if v4_public_src || v6_mismatched {
            report.atypical_nat += 1;
            return SanitizeOutcome::Rejected(RejectReason::AtypicalNat);
        }
        let (v4_spans, v6_spans) = crate::changes::histories_from_records(&v4, &series.v6);
        if is_alternating(&v4_spans, cfg) || is_alternating(&v6_spans, cfg) {
            report.multihomed += 1;
            return SanitizeOutcome::Rejected(RejectReason::Multihomed);
        }
        let histories = split(series.probe, &v4, &series.v6, routing);
        if histories.is_empty() {
            report.too_short += 1;
            return SanitizeOutcome::Rejected(RejectReason::NoData);
        }
        if histories.len() > 1 {
            report.split_probes += 1;
        }
        let kept: Vec<ProbeHistory> = histories
            .into_iter()
            .filter(|h| {
                if h.observed_hours() >= cfg.min_observed_hours {
                    true
                } else {
                    report.too_short += 1;
                    false
                }
            })
            .collect();
        if kept.is_empty() {
            return SanitizeOutcome::Rejected(RejectReason::TooShort);
        }
        report.probes_out += kept.len();
        SanitizeOutcome::Clean(kept)
    }

    /// A seeded echo series: segments of records 1–7 hours apart, each on
    /// one address drawn from AS3320, AS7922 (unless `one_as`), unrouted
    /// space or (v4 only) the test address, so AS moves fall mid-span and
    /// the two families move at different times. With `shuffle`, records
    /// are swapped out of time order in the TSV dump that the series is
    /// then read back from by the lossy loader, which re-sorts them.
    fn random_series(rng: &mut impl Rng, shuffle: bool, one_as: bool) -> ProbeSeries {
        let hours = rng.gen_range(200..1500u64);
        let mut v4 = Vec::new();
        let mut v6 = Vec::new();
        let mut h = 0;
        while h < hours {
            let len = rng.gen_range(1..400u64);
            let n = rng.gen_range(0..4u8);
            let client = match rng.gen_range(0..8) {
                0..=2 => format!("84.1.{n}.{}", h % 250),
                3..=4 if !one_as => format!("98.7.{n}.{}", h % 250),
                5 => format!("10.1.{n}.1"),
                6 => "193.0.0.78".to_string(),
                _ => format!("84.1.{n}.1"),
            };
            v4.extend(((h..h + len).step_by(rng.gen_range(1..4))).map(|t| v4rec(t, &client)));
            h += len;
        }
        h = rng.gen_range(0..300);
        while h < hours {
            let len = rng.gen_range(1..500u64);
            let n = rng.gen_range(0..3u8);
            let client = match rng.gen_range(0..6) {
                0..=2 => format!("2003:0:0:{:x}::5", (h % 100) * 4 + u64::from(n)),
                3..=4 if !one_as => format!("2601:0:0:{n}::9"),
                3..=4 => "2003::9".to_string(),
                _ => format!("2a00:0:{n}::1"),
            };
            v6.extend(((h..h + len).step_by(rng.gen_range(1..8))).map(|t| v6rec(t, &client)));
            h += len;
        }
        if shuffle {
            for _ in 0..rng.gen_range(1..20) {
                let (a, b) = (rng.gen_range(0..v4.len()), rng.gen_range(0..v4.len()));
                v4.swap(a, b);
                if !v6.is_empty() {
                    let (a, b) = (rng.gen_range(0..v6.len()), rng.gen_range(0..v6.len()));
                    v6.swap(a, b);
                }
            }
        }
        // Now and then one atypical `src`: a public v4 source (which only
        // rejects on a record that is not the test address) or a
        // mismatched v6 one.
        match rng.gen_range(0..12) {
            0 => {
                let i = rng.gen_range(0..v4.len());
                v4[i].src = v4[i].client;
            }
            1 if !v6.is_empty() => {
                let i = rng.gen_range(0..v6.len());
                v6[i].src = "2003::dead".parse().unwrap();
            }
            _ => {}
        }
        if shuffle {
            through_lossy_loader(series(v4, v6))
        } else {
            series(v4, v6)
        }
    }

    /// `s` written as a TSV dump and read back by the lossy loader.
    fn through_lossy_loader(s: ProbeSeries) -> ProbeSeries {
        let tsv = dynamips_atlas::records::to_tsv(s.probe, &s.v4, &s.v6);
        let (mut probes, _) = dynamips_atlas::records::from_tsv_lossy(&tsv);
        let (probe, v4, v6) = probes.pop().unwrap();
        assert!(probes.is_empty());
        ProbeSeries { probe, v4, v6, ..s }
    }

    /// The two configs the oracle tests run: the default, and one that
    /// keeps short and alternating series so step (5) sees them.
    fn oracle_configs() -> [SanitizeConfig; 2] {
        [
            SanitizeConfig::default(),
            SanitizeConfig {
                min_observed_hours: 48,
                multihoming_revisit_threshold: 1000,
                ..SanitizeConfig::default()
            },
        ]
    }

    #[test]
    fn labelled_split_matches_per_record_reference() {
        let routing = routing();
        let mut rng = derive_rng(14, 2);
        let (mut splits, mut clean) = (0, 0);
        for i in 0..40 {
            let s = random_series(&mut rng, i % 3 == 0, false);
            let got = split_by_as(s.probe, &s.v4, &s.v6, &routing);
            let want = split_by_as_per_record(s.probe, &s.v4, &s.v6, &routing);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "series {i}");
            splits += usize::from(got.len() > 1);

            for cfg in oracle_configs() {
                let mut got_report = SanitizeReport::default();
                let mut want_report = SanitizeReport::default();
                let got = sanitize_records(&s, &routing, &cfg, &mut got_report, split_by_as);
                let want =
                    sanitize_records(&s, &routing, &cfg, &mut want_report, split_by_as_per_record);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "series {i}");
                assert_eq!(got_report, want_report, "series {i}");
                clean += usize::from(matches!(got, SanitizeOutcome::Clean(_)));
            }
        }
        // The seeded series must exercise the split and the clean path.
        assert!(splits > 10, "{splits} split series");
        assert!(clean > 10, "{clean} clean outcomes");
    }

    #[test]
    fn span_pipeline_matches_record_pipeline() {
        let routing = routing();
        let mut rng = derive_rng(14, 3);
        let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
        let mut one_as_clean = 0;
        for i in 0..300 {
            let one_as = i % 2 == 0;
            let mut s = random_series(&mut rng, i % 3 == 0, one_as);
            if i % 29 == 0 {
                s.tags = vec!["core".into()];
            }
            if i % 31 == 2 {
                // A-B-A-B: the v4 address alternates every ten records.
                for (k, r) in s.v4.iter_mut().enumerate() {
                    if r.client != TEST_ADDRESS {
                        r.client = Ipv4Addr::new(84, 1, 9, 1 + (k / 10 % 2) as u8);
                    }
                }
            }
            if i % 23 == 1 {
                // Wholly unrouted: nothing to attribute to an AS.
                for r in s.v4.iter_mut().filter(|r| r.client != TEST_ADDRESS) {
                    (r.client, r.src) = (Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(10, 0, 0, 2));
                }
                for r in s.v6.iter_mut() {
                    (r.client, r.src) =
                        (Ipv6Addr::from(0x2a00 << 112), Ipv6Addr::from(0x2a00 << 112));
                }
            }
            for cfg in oracle_configs() {
                let mut got_report = SanitizeReport::default();
                let mut want_report = SanitizeReport::default();
                let got = sanitize_probe(&s, &routing, &cfg, &mut got_report);
                let want = sanitize_records(&s, &routing, &cfg, &mut want_report, split_by_as);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "series {i}");
                assert_eq!(got_report, want_report, "series {i}");
                let label = match &got {
                    SanitizeOutcome::Clean(h) if h.len() > 1 => "split",
                    SanitizeOutcome::Clean(_) => "clean",
                    SanitizeOutcome::Rejected(reason) => reason.class(),
                };
                *outcomes.entry(label.to_string()).or_default() += 1;
                one_as_clean += usize::from(one_as && matches!(got, SanitizeOutcome::Clean(_)));
            }
        }
        // Every outcome, and the one-AS shortcut, must be exercised.
        for label in [
            "clean",
            "split",
            "bad-tag",
            "atypical-nat",
            "multihomed",
            "too-short",
            "no-data",
        ] {
            assert!(
                outcomes.get(label).copied().unwrap_or(0) > 2,
                "{outcomes:?}"
            );
        }
        assert!(one_as_clean > 20, "{one_as_clean} one-AS clean outcomes");
    }

    #[test]
    fn shuffled_dumps_read_back_by_the_lossy_loader_give_ordered_spans() {
        let routing = routing();
        let mut rng = derive_rng(28, 2);
        let mut clean = 0;
        for i in 0..60 {
            let sorted = random_series(&mut rng, false, i % 2 == 0);
            let mut shuffled = sorted.clone();
            for _ in 0..rng.gen_range(1..20) {
                let (a, b) = (
                    rng.gen_range(0..shuffled.v4.len()),
                    rng.gen_range(0..shuffled.v4.len()),
                );
                shuffled.v4.swap(a, b);
            }
            shuffled.v6.reverse();
            let reloaded = through_lossy_loader(shuffled);
            for cfg in oracle_configs() {
                let got = sanitize_probe(&reloaded, &routing, &cfg, &mut SanitizeReport::default());
                let want = sanitize_probe(&sorted, &routing, &cfg, &mut SanitizeReport::default());
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "series {i}");
                if let SanitizeOutcome::Clean(histories) = got {
                    assert!(histories.iter().all(ProbeHistory::is_time_ordered));
                    clean += 1;
                }
            }
        }
        assert!(clean > 10, "{clean} clean outcomes");
    }

    #[test]
    fn report_merge_sums_every_counter() {
        let a = SanitizeReport {
            probes_in: 10,
            test_address_records: 1,
            bad_tag: 2,
            atypical_nat: 3,
            multihomed: 4,
            split_probes: 5,
            too_short: 6,
            probes_out: 7,
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(
            b,
            SanitizeReport {
                probes_in: 20,
                test_address_records: 2,
                bad_tag: 4,
                atypical_nat: 6,
                multihomed: 8,
                split_probes: 10,
                too_short: 12,
                probes_out: 14,
            }
        );
    }
}
