//! Boundary-guided target generation for active IPv6 scanning.
//!
//! Sections 2.3 and 6: hitlist curation and target generation (6Gen,
//! Entropy/IP) "rely on address sets of sufficient volume to identify
//! structure and could be augmented with our findings". This module does
//! that augmentation: given seed /64s observed in a network, plus the
//! pool and subscriber boundaries the DynamIPs analyses infer, it
//! enumerates candidate /64s ordered by how likely a renumbered target is
//! to reappear there.

use crate::changes::ProbeHistory;
use crate::poolinfer::infer_pool_boundary;
use crate::subscriber::infer_subscriber_len_mode;
use dynamips_netaddr::{common_prefix_len_v6, Ipv6Prefix};

/// A target-generation plan for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// Inferred dynamic-pool prefix length (e.g. 40).
    pub pool_len: u8,
    /// Inferred per-subscriber delegated prefix length (e.g. 56).
    pub subscriber_len: u8,
    /// The pool prefixes the seeds fall into.
    pub pools: Vec<Ipv6Prefix>,
    /// /64s to probe per pool if enumerated exhaustively (one per
    /// delegated prefix, zero-suffixed).
    pub targets_per_pool: u64,
}

impl ScanPlan {
    /// Derive a plan from probe histories (for boundary inference) and the
    /// seed /64s to relocate.
    pub fn derive(histories: &[&ProbeHistory], seeds: &[Ipv6Prefix]) -> Option<ScanPlan> {
        // Prefer the unique-pool-count estimator; fall back to the spatial
        // one (10th-percentile CPL between successive assignments, the
        // Figure-5 reading) for low-churn networks where few probes are
        // informative enough for the former.
        let pool_len = infer_pool_boundary(histories, 16..=56, 4, 0.85)
            .map(|b| b.pool_len)
            .or_else(|| cpl_percentile_pool_len(histories))?;
        let subscriber_len = infer_subscriber_len_mode(histories.iter().copied())?;
        let subscriber_len = subscriber_len.max(pool_len);
        let mut pools: Vec<Ipv6Prefix> = seeds
            .iter()
            .map(|s| s.supernet(pool_len).unwrap_or(*s))
            .collect();
        pools.sort_unstable();
        pools.dedup();
        let span = subscriber_len - pool_len;
        let targets_per_pool = if span >= 64 { u64::MAX } else { 1u64 << span };
        Some(ScanPlan {
            pool_len,
            subscriber_len,
            pools,
            targets_per_pool,
        })
    }

    /// Enumerate up to `limit` candidate /64 targets: the zero /64 of every
    /// delegated-prefix slot in every seed pool. Pools are interleaved
    /// round-robin so a budget-limited prefix of the list still spreads
    /// over all seed pools.
    pub fn targets(&self, limit: usize) -> Vec<Ipv6Prefix> {
        let mut out = Vec::with_capacity(limit.min(4096));
        if self.pools.is_empty() {
            return out;
        }
        let per_pool: Vec<u64> = self
            .pools
            .iter()
            .map(|p| p.num_subprefixes(self.subscriber_len).unwrap_or(0))
            .collect();
        let max_count = per_pool.iter().copied().max().unwrap_or(0);
        'outer: for i in 0..max_count {
            for (pool, count) in self.pools.iter().zip(&per_pool) {
                if i >= *count {
                    continue;
                }
                if out.len() >= limit {
                    break 'outer;
                }
                // Both lookups are in range by construction of per_pool;
                // skip the slot rather than panic if the invariant slips.
                let Ok(delegated) = pool.nth_subprefix(self.subscriber_len, i) else {
                    continue;
                };
                let Ok(target) = delegated.nth_subprefix(64, 0) else {
                    continue;
                };
                out.push(target);
            }
        }
        out
    }

    /// Whether a /64 would be hit by this plan's (possibly huge) target
    /// list without materializing it: it must sit in a seed pool and be the
    /// zero /64 of its delegated-prefix slot.
    pub fn covers(&self, p64: &Ipv6Prefix) -> bool {
        let pool = match p64.supernet(self.pool_len) {
            Ok(p) => p,
            Err(_) => return false,
        };
        if !self.pools.contains(&pool) {
            return false;
        }
        let zero_bits = dynamips_netaddr::trailing_zero_bits_v6(p64);
        zero_bits >= 64 - self.subscriber_len
    }

    /// Fraction of `actual` /64s covered (analytic version of
    /// [`hit_rate`] over the full, unenumerated target list).
    pub fn coverage(&self, actual: &[Ipv6Prefix]) -> f64 {
        if actual.is_empty() {
            return 0.0;
        }
        let hits = actual.iter().filter(|p| self.covers(p)).count();
        hits as f64 / actual.len() as f64
    }

    /// Scan-space reduction factor relative to blindly enumerating /64s in
    /// `announced` (the BGP aggregate).
    pub fn reduction_vs(&self, announced: &Ipv6Prefix) -> f64 {
        let blind = 2f64.powi((64 - announced.len()) as i32);
        let guided = self.pools.len() as f64 * self.targets_per_pool as f64;
        blind / guided.max(1.0)
    }
}

/// Fallback pool estimator: the 10th percentile of CPLs between successive
/// /64 assignments, capped at /56. Needs at least 10 successive pairs.
fn cpl_percentile_pool_len(histories: &[&ProbeHistory]) -> Option<u8> {
    let mut cpls: Vec<u8> = histories
        .iter()
        .flat_map(|h| {
            h.v6.windows(2)
                .map(|w| common_prefix_len_v6(&w[0].value, &w[1].value))
        })
        .collect();
    if cpls.len() < 10 {
        return None;
    }
    cpls.sort_unstable();
    Some(cpls[cpls.len() / 10].min(56))
}

/// Evaluate a target list against ground truth: what fraction of
/// `actual` /64s (e.g. the network's post-renumbering assignments) are
/// covered?
///
/// The actual /64s are sorted once into groups of equal bits with their
/// multiplicity; each target binary-searches the groups and claims its
/// group at most once. So a repeated target counts once, a repeated
/// actual /64 counts each time, and no set of the (up to 2^19) targets
/// is built.
pub fn hit_rate(targets: &[Ipv6Prefix], actual: &[Ipv6Prefix]) -> f64 {
    if actual.is_empty() {
        return 0.0;
    }
    let mut bits: Vec<u128> = actual.iter().map(|a| a.bits()).collect();
    bits.sort_unstable();
    // (bits, occurrences not yet claimed by a target)
    let mut groups: Vec<(u128, usize)> = Vec::new();
    for b in bits {
        match groups.last_mut() {
            Some((last, count)) if *last == b => *count += 1,
            _ => groups.push((b, 1)),
        }
    }
    let mut hits = 0usize;
    for t in targets {
        if let Ok(i) = groups.binary_search_by_key(&t.bits(), |g| g.0) {
            // Taking the count claims the group: a repeated target adds 0.
            hits += std::mem::take(&mut groups[i].1);
        }
    }
    hits as f64 / actual.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::Span;
    use dynamips_atlas::ProbeId;
    use dynamips_netaddr::Ipv6PrefixPool;
    use dynamips_netsim::rngutil::derive_rng;
    use dynamips_netsim::SimTime;
    use dynamips_routing::Asn;
    use rand::Rng;
    #[allow(
        clippy::disallowed_types,
        reason = "reference oracle in a test: membership test only"
    )]
    use std::collections::HashSet;

    /// [`hit_rate`] over a hash set of the targets: the reference oracle.
    fn hit_rate_by_set(targets: &[Ipv6Prefix], actual: &[Ipv6Prefix]) -> f64 {
        if actual.is_empty() {
            return 0.0;
        }
        #[allow(
            clippy::disallowed_types,
            reason = "reference oracle in a test: membership test only"
        )]
        let set: HashSet<u128> = targets.iter().map(|t| t.bits()).collect();
        let hits = actual.iter().filter(|a| set.contains(&a.bits())).count();
        hits as f64 / actual.len() as f64
    }

    #[test]
    fn hit_rate_matches_hash_set_oracle() {
        let mut rng = derive_rng(23, 3);
        // /64s from a space of `space` slots: a small space repeats
        // targets and actuals and makes them overlap.
        fn draw(rng: &mut impl Rng, space: u128) -> Vec<Ipv6Prefix> {
            let n = [0, 1, 10, 300][rng.gen_range(0..4)];
            (0..n)
                .map(|_| {
                    let slot = rng.gen_range(0..space);
                    Ipv6Prefix::from_bits((0x2001_0db8u128 << 96) | (slot << 64), 64).unwrap()
                })
                .collect()
        }
        for _ in 0..500 {
            let space = [1, 4, 64, 1 << 20][rng.gen_range(0..4)];
            let targets = draw(&mut rng, space);
            let actual = draw(&mut rng, space);
            assert_eq!(
                hit_rate(&targets, &actual).to_bits(),
                hit_rate_by_set(&targets, &actual).to_bits(),
                "{targets:?} vs {actual:?}"
            );
        }
        // Duplicate targets count once; duplicate actuals count each time.
        let a: Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        let b: Ipv6Prefix = "2001:db8:0:1::/64".parse().unwrap();
        assert_eq!(hit_rate(&[a, a, a], &[a, b]), 0.5);
        assert_eq!(hit_rate(&[a, a], &[a, a, a, b]), 0.75);
        assert_eq!(hit_rate(&[b, a, b], &[a, b, a, b]), 1.0);
    }

    #[test]
    fn derive_dedups_pools_in_order() {
        let histories: Vec<ProbeHistory> = (0..20u64)
            .map(|i| probe(i, "2001:db8:4000::/40", 30))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        // Seeds from two /40 pools, repeated and out of order.
        let other = probe(50, "2001:db8:1000::/40", 3);
        let seeds: Vec<Ipv6Prefix> = [&histories[0], &other, &histories[1], &other]
            .iter()
            .flat_map(|h| h.v6.iter().map(|s| s.value))
            .collect();
        let plan = ScanPlan::derive(&refs, &seeds).unwrap();
        let pools: Vec<Ipv6Prefix> = vec![
            "2001:db8:1000::/40".parse().unwrap(),
            "2001:db8:4000::/40".parse().unwrap(),
        ];
        assert_eq!(plan.pools, pools);
    }

    fn probe(seed: u64, pool: &str, n: usize) -> ProbeHistory {
        let mut rng = derive_rng(seed, 3);
        let pool = Ipv6PrefixPool::new(pool.parse().unwrap(), 56).unwrap();
        ProbeHistory {
            probe: ProbeId(seed as u32),
            virtual_index: 0,
            asn: Asn(64500),
            v4: vec![],
            v6: (0..n)
                .map(|i| Span {
                    value: pool
                        .prefix(rng.gen_range(0..pool.capacity()))
                        .unwrap()
                        .nth_subprefix(64, 0)
                        .unwrap(),
                    first: SimTime(i as u64 * 24),
                    last: SimTime(i as u64 * 24 + 23),
                })
                .collect(),
        }
    }

    #[test]
    fn plan_recovers_boundaries_and_enumerates_pool() {
        let histories: Vec<ProbeHistory> = (0..20u64)
            .map(|i| probe(i, "2001:db8:4000::/40", 30))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let seeds = vec![histories[0].v6[0].value];
        let plan = ScanPlan::derive(&refs, &seeds).expect("plan derived");
        assert_eq!(plan.pool_len, 40);
        assert_eq!(plan.subscriber_len, 56);
        assert_eq!(plan.pools, vec!["2001:db8:4000::/40".parse().unwrap()]);
        assert_eq!(plan.targets_per_pool, 1 << 16);

        let targets = plan.targets(100);
        assert_eq!(targets.len(), 100);
        assert_eq!(targets[0], "2001:db8:4000::/64".parse().unwrap());
        // All targets are zero-suffixed /64s inside the pool.
        for t in &targets {
            assert_eq!(t.supernet(40).unwrap(), plan.pools[0]);
            assert!(dynamips_netaddr::trailing_zero_bits_v6(t) >= 8);
        }
    }

    #[test]
    fn guided_targets_cover_future_assignments() {
        let histories: Vec<ProbeHistory> = (0..20u64)
            .map(|i| probe(i, "2001:db8:4000::/40", 30))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let seeds = vec![histories[0].v6[0].value];
        let plan = ScanPlan::derive(&refs, &seeds).unwrap();
        // "Future" assignments: more draws from the same pool.
        let future: Vec<Ipv6Prefix> = probe(999, "2001:db8:4000::/40", 50)
            .v6
            .iter()
            .map(|s| s.value)
            .collect();
        let targets = plan.targets(1 << 16);
        assert!(
            hit_rate(&targets, &future) > 0.99,
            "exhaustive pool enumeration must cover future assignments"
        );
        // The analytic coverage agrees with the enumerated hit rate.
        assert!((plan.coverage(&future) - hit_rate(&targets, &future)).abs() < 1e-9);
        assert!(plan.covers(&future[0]));
        assert!(!plan.covers(&"3fff::/64".parse().unwrap()));
        // Blind enumeration of the /32 is 2^32 /64s; the plan probes one
        // /64 per /56 slot of one /40 pool (2^16 targets): 65,536x fewer.
        let red = plan.reduction_vs(&"2001:db8::/32".parse().unwrap());
        assert!((red - 65536.0).abs() < 1.0, "{red}");
    }

    #[test]
    fn limit_caps_enumeration() {
        let histories: Vec<ProbeHistory> = (0..10u64)
            .map(|i| probe(i, "2001:db8:4000::/40", 20))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let plan = ScanPlan::derive(&refs, &[histories[0].v6[0].value]).unwrap();
        assert_eq!(plan.targets(7).len(), 7);
        assert_eq!(plan.targets(0).len(), 0);
    }

    #[test]
    fn hit_rate_empty_cases() {
        assert_eq!(hit_rate(&[], &[]), 0.0);
        let t: Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        assert_eq!(hit_rate(&[t], &[]), 0.0);
        assert_eq!(hit_rate(&[], &[t]), 0.0);
        assert_eq!(hit_rate(&[t], &[t]), 1.0);
    }

    #[test]
    fn derive_needs_informative_histories() {
        let histories: Vec<ProbeHistory> = (0..3u64)
            .map(|i| probe(i, "2001:db8:4000::/40", 1))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        assert!(ScanPlan::derive(&refs, &[]).is_none());
    }
}
