//! User-count estimation and the double-counting problem.
//!
//! Section 2.3: "Applications that track the number of users in a system
//! can use our results and datasets to reason about the potential to
//! 'double-count' the same host multiple times due to dynamic reassignment
//! and access over both IPv4 and IPv6." This module compares the naive
//! estimators — distinct addresses, distinct /64s — against ground truth.

use dynamips_netaddr::Ipv6Prefix;
#[allow(
    clippy::disallowed_types,
    reason = "cardinality only; order never observed"
)]
use std::collections::HashSet;
use std::net::Ipv6Addr;

/// User-count estimates from one observation window.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): values flow to other crates through pub fn
// returns and pattern matches without the type name being spelled.
pub struct CountEstimates {
    /// Ground truth: distinct subscribers observed.
    pub true_subscribers: usize,
    /// Distinct full addresses seen (the naive per-address count).
    pub distinct_addresses: usize,
    /// Distinct /64 prefixes seen (the aggregation the paper recommends
    /// reasoning about).
    pub distinct_p64: usize,
    /// `distinct_addresses / true_subscribers`.
    pub address_overcount: f64,
    /// `distinct_p64 / true_subscribers`.
    pub p64_overcount: f64,
}

/// Compute count estimates from `(subscriber ground truth, observed
/// address)` pairs.
pub fn estimate_counts(observations: &[(u32, Ipv6Addr)]) -> Option<CountEstimates> {
    if observations.is_empty() {
        return None;
    }
    #[allow(
        clippy::disallowed_types,
        reason = "cardinality only; order never observed"
    )]
    let subs: HashSet<u32> = observations.iter().map(|(s, _)| *s).collect();
    #[allow(
        clippy::disallowed_types,
        reason = "cardinality only; order never observed"
    )]
    let addrs: HashSet<u128> = observations.iter().map(|(_, a)| u128::from(*a)).collect();
    #[allow(
        clippy::disallowed_types,
        reason = "cardinality only; order never observed"
    )]
    let p64s: HashSet<u128> = observations
        .iter()
        .map(|(_, a)| Ipv6Prefix::slash64_of(*a).bits())
        .collect();
    let n = subs.len();
    Some(CountEstimates {
        true_subscribers: n,
        distinct_addresses: addrs.len(),
        distinct_p64: p64s.len(),
        address_overcount: addrs.len() as f64 / n as f64,
        p64_overcount: p64s.len() as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(p64: &str, iid: u64) -> Ipv6Addr {
        p64.parse::<Ipv6Prefix>().unwrap().with_iid(iid).unwrap()
    }

    #[test]
    fn stable_prefixes_with_rotating_iids_overcount_addresses_only() {
        // 3 subscribers, stable /64s, 10 privacy addresses each.
        let mut obs = Vec::new();
        for sub in 0..3u32 {
            for day in 0..10u64 {
                obs.push((
                    sub,
                    addr(&format!("2003:40:a0:{:x}00::/64", sub), 0x1000 + day),
                ));
            }
        }
        let e = estimate_counts(&obs).unwrap();
        assert_eq!(e.true_subscribers, 3);
        assert_eq!(e.distinct_addresses, 30);
        assert_eq!(e.distinct_p64, 3);
        assert!((e.address_overcount - 10.0).abs() < 1e-9);
        assert!((e.p64_overcount - 1.0).abs() < 1e-9);
    }

    #[test]
    fn renumbering_overcounts_even_at_p64_granularity() {
        // One subscriber whose /64 changed daily for 5 days.
        let obs: Vec<(u32, Ipv6Addr)> = (0..5u64)
            .map(|d| (0, addr(&format!("2003:40:a0:{:x}00::/64", d), 1)))
            .collect();
        let e = estimate_counts(&obs).unwrap();
        assert_eq!(e.true_subscribers, 1);
        assert_eq!(e.distinct_p64, 5);
        assert!((e.p64_overcount - 5.0).abs() < 1e-9);
    }

    #[test]
    fn perfectly_stable_world_counts_exactly() {
        let obs = vec![(0, addr("2003::/64", 1)), (1, addr("2003:0:0:1::/64", 1))];
        let e = estimate_counts(&obs).unwrap();
        assert_eq!(e.distinct_addresses, 2);
        assert_eq!(e.distinct_p64, 2);
        assert!((e.address_overcount - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_observations() {
        assert!(estimate_counts(&[]).is_none());
    }
}
