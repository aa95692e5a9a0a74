//! Long-term locality: unique prefixes per length per probe.
//!
//! Section 5.2 / Figure 8: "we investigate the distribution of unique
//! prefixes of various lengths observed by each RIPE Atlas probe ... most
//! probes observe less than five unique /40 prefixes over their lifetimes
//! although they observe considerably more /48s", suggesting dynamic
//! address pools commonly sized around /40.

use crate::changes::ProbeHistory;
use dynamips_routing::RoutingTable;
#[allow(
    clippy::disallowed_types,
    reason = "cardinality only; order never observed"
)]
use std::collections::HashSet;

/// The prefix lengths Figure 8 tracks (plus the routed BGP prefix).
pub const POOL_LENGTHS: [u8; 7] = [64, 56, 48, 40, 32, 24, 16];

/// Unique-prefix counts at each tracked length for one probe, plus the
/// number of unique routed BGP prefixes its /64s fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UniquePrefixCounts {
    /// `counts[i]` = unique supernets of length `POOL_LENGTHS[i]`.
    pub counts: [usize; 7],
    /// Unique routed BGP prefixes.
    pub bgp: usize,
}

/// Count unique enclosing prefixes at every tracked length for a probe's
/// observed /64s.
pub(crate) fn unique_prefixes(
    history: &ProbeHistory,
    routing: &RoutingTable,
) -> UniquePrefixCounts {
    let mut counts = [0usize; 7];
    for (i, len) in POOL_LENGTHS.iter().enumerate() {
        #[allow(
            clippy::disallowed_types,
            reason = "cardinality only; order never observed"
        )]
        let set: HashSet<u128> = history
            .v6
            .iter()
            .map(|s| s.value.supernet(*len).unwrap_or(s.value).bits())
            .collect();
        counts[i] = set.len();
    }
    #[allow(
        clippy::disallowed_types,
        reason = "cardinality only; order never observed"
    )]
    let bgp: HashSet<_> = history
        .v6
        .iter()
        .filter_map(|s| routing.route_v6_prefix(&s.value).map(|(p, _)| p))
        .collect();
    UniquePrefixCounts {
        counts,
        bgp: bgp.len(),
    }
}

/// Accumulates the Figure-8 CDF inputs for one AS: for each tracked length,
/// the per-probe unique-prefix counts.
#[derive(Debug, Clone, Default)]
pub struct PoolAccumulator {
    /// `per_length[i]` = per-probe counts at `POOL_LENGTHS[i]`.
    pub per_length: [Vec<usize>; 7],
    /// Per-probe unique BGP prefix counts.
    pub bgp: Vec<usize>,
}

impl PoolAccumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one probe (only meaningful for probes with ≥ 1 v6 observation).
    pub fn add_probe(&mut self, history: &ProbeHistory, routing: &RoutingTable) {
        if history.v6.is_empty() {
            return;
        }
        let u = unique_prefixes(history, routing);
        for (i, c) in u.counts.iter().enumerate() {
            self.per_length[i].push(*c);
        }
        self.bgp.push(u.bgp);
    }

    /// Fold another accumulator's per-probe counts into this one. Every
    /// consumer sorts or counts the per-probe vectors, so merge order does
    /// not affect any derived statistic.
    pub fn merge(&mut self, other: &PoolAccumulator) {
        for (mine, theirs) in self.per_length.iter_mut().zip(other.per_length.iter()) {
            mine.extend_from_slice(theirs);
        }
        self.bgp.extend_from_slice(&other.bgp);
    }

    /// Number of probes accounted.
    pub fn probes(&self) -> usize {
        self.bgp.len()
    }

    /// Fraction of probes with at most `k` unique prefixes at tracked
    /// length index `i`.
    pub fn cdf_at(&self, i: usize, k: usize) -> f64 {
        let v = &self.per_length[i];
        if v.is_empty() {
            return 0.0;
        }
        v.iter().filter(|&&c| c <= k).count() as f64 / v.len() as f64
    }

    /// Median unique-prefix count at tracked length index `i`.
    pub fn median(&self, i: usize) -> f64 {
        self.quantile(i, 0.5)
    }

    /// Empirical quantile of the per-probe unique-prefix counts at tracked
    /// length index `i`. Shape predicates over bimodal populations (e.g.
    /// DTAG's stabilized lines vs. daily renumberers) should prefer a
    /// quantile inside the mode they assert over the median, which teeters
    /// between modes when the mix is near 50/50.
    pub fn quantile(&self, i: usize, q: f64) -> f64 {
        let mut v: Vec<f64> = self.per_length[i].iter().map(|&c| c as f64).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        crate::stats::quantile_sorted(&v, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::Span;
    use dynamips_atlas::ProbeId;
    use dynamips_netaddr::Ipv6Prefix;
    use dynamips_netsim::SimTime;
    use dynamips_routing::Asn;

    fn history(p64s: Vec<&str>) -> ProbeHistory {
        ProbeHistory {
            probe: ProbeId(1),
            virtual_index: 0,
            asn: Asn(3320),
            v4: vec![],
            v6: p64s
                .iter()
                .enumerate()
                .map(|(i, p)| Span {
                    value: p.parse::<Ipv6Prefix>().unwrap(),
                    first: SimTime(i as u64 * 10),
                    last: SimTime(i as u64 * 10 + 9),
                })
                .collect(),
        }
    }

    fn routing() -> RoutingTable {
        let mut t = RoutingTable::new();
        t.announce_v6("2003::/19".parse().unwrap(), Asn(3320));
        t
    }

    #[test]
    fn counts_unique_supernets_per_length() {
        // Three /64s: all in the same /40, two share a /56.
        let h = history(vec![
            "2003:40:a0:aa00::/64",
            "2003:40:a0:aa01::/64",
            "2003:40:b7:2200::/64",
        ]);
        let u = unique_prefixes(&h, &routing());
        #[allow(clippy::disallowed_types, reason = "test: keyed lookups only")]
        let by_len: std::collections::HashMap<u8, usize> = POOL_LENGTHS
            .iter()
            .copied()
            .zip(u.counts.iter().copied())
            .collect();
        assert_eq!(by_len[&64], 3);
        assert_eq!(by_len[&56], 2);
        assert_eq!(by_len[&48], 2);
        assert_eq!(by_len[&40], 1);
        assert_eq!(by_len[&16], 1);
        assert_eq!(u.bgp, 1);
    }

    #[test]
    fn bgp_counts_unrouted_as_zero() {
        let h = history(vec!["3fff:1:2:3::/64"]);
        let u = unique_prefixes(&h, &routing());
        assert_eq!(u.bgp, 0);
        assert_eq!(u.counts[0], 1);
    }

    #[test]
    fn accumulator_builds_cdfs() {
        let mut acc = PoolAccumulator::new();
        acc.add_probe(&history(vec!["2003:40:a0:aa00::/64"]), &routing());
        acc.add_probe(
            &history(vec![
                "2003:40:a0:aa00::/64",
                "2003:41:0:1::/64",
                "2003:42:0:1::/64",
            ]),
            &routing(),
        );
        assert_eq!(acc.probes(), 2);
        // Index of /40 in POOL_LENGTHS is 3.
        assert_eq!(acc.cdf_at(3, 1), 0.5, "one probe saw one /40");
        assert_eq!(acc.cdf_at(3, 3), 1.0);
        // /64 index 0: counts 1 and 3 -> median 2.
        assert_eq!(acc.median(0), 2.0);
    }

    #[test]
    fn merge_matches_sequential_and_quantiles_agree() {
        let probes = [
            history(vec!["2003:40:a0:aa00::/64"]),
            history(vec![
                "2003:40:a0:aa00::/64",
                "2003:41:0:1::/64",
                "2003:42:0:1::/64",
            ]),
            history(vec!["2003:40:a0:aa00::/64", "2003:40:a0:aa01::/64"]),
        ];
        let r = routing();
        let mut seq = PoolAccumulator::new();
        for p in &probes {
            seq.add_probe(p, &r);
        }
        let mut a = PoolAccumulator::new();
        a.add_probe(&probes[0], &r);
        let mut b = PoolAccumulator::new();
        b.add_probe(&probes[1], &r);
        b.add_probe(&probes[2], &r);
        // Merge in the opposite order to the sequential accumulation.
        let mut merged = PoolAccumulator::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged.probes(), seq.probes());
        for i in 0..7 {
            assert_eq!(merged.median(i), seq.median(i), "length index {i}");
            assert_eq!(merged.cdf_at(i, 2), seq.cdf_at(i, 2));
            assert_eq!(merged.quantile(i, 0.75), seq.quantile(i, 0.75));
        }
        // /64 counts are 1, 3, 2 -> median 2, p75 2.5.
        assert_eq!(merged.quantile(0, 0.5), 2.0);
        assert_eq!(merged.quantile(0, 0.75), 2.5);
    }

    #[test]
    fn probes_without_v6_are_skipped() {
        let mut acc = PoolAccumulator::new();
        acc.add_probe(&history(vec![]), &routing());
        assert_eq!(acc.probes(), 0);
        assert_eq!(acc.cdf_at(0, 10), 0.0);
        assert_eq!(acc.median(0), 0.0);
    }
}
