//! Truncation-anonymization auditing.
//!
//! Section 6: "simple anonymization by truncation is fallacious, since it
//! does not account for the diversity in address assignment practices we
//! observe (such as the delegation of /48 prefixes to individual
//! subscribers). Anonymization techniques ... must rely on knowledge of
//! prefix boundaries that identify individual subscribers, or subscriber
//! pools."
//!
//! This module measures the k-anonymity a truncation length actually
//! provides against ground truth or inferred subscriber identity, and
//! recommends a per-network truncation length.

use dynamips_netaddr::Ipv6Prefix;
#[allow(
    clippy::disallowed_types,
    reason = "only bucket sizes leave, sorted below"
)]
use std::collections::{HashMap, HashSet};

/// k-anonymity statistics for one truncation length.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): values flow to other crates through pub fn
// returns and pattern matches without the type name being spelled.
pub struct TruncationStats {
    /// The truncation length audited.
    pub len: u8,
    /// Number of distinct truncated prefixes.
    pub buckets: usize,
    /// Minimum subscribers per truncated prefix (worst-case k).
    pub k_min: usize,
    /// Median subscribers per truncated prefix.
    pub k_median: usize,
    /// Fraction of truncated prefixes containing exactly one subscriber —
    /// records that are not anonymized at all.
    pub singleton_fraction: f64,
}

/// Audit one truncation length over `(subscriber id, observed /64)` pairs.
pub fn audit_truncation(observations: &[(u32, Ipv6Prefix)], len: u8) -> Option<TruncationStats> {
    if observations.is_empty() {
        return None;
    }
    #[allow(
        clippy::disallowed_types,
        reason = "only bucket sizes leave, sorted below"
    )]
    let mut subs_per_bucket: HashMap<u128, HashSet<u32>> = HashMap::new();
    for (sub, p64) in observations {
        // supernet with a clamped length cannot shrink past 0; fall back
        // to the prefix itself rather than panic.
        let bucket = p64.supernet(len.min(p64.len())).unwrap_or(*p64);
        subs_per_bucket
            .entry(bucket.bits())
            .or_default()
            .insert(*sub);
    }
    let mut counts: Vec<usize> = subs_per_bucket.values().map(|s| s.len()).collect();
    counts.sort_unstable();
    let singletons = counts.iter().filter(|&&c| c == 1).count();
    Some(TruncationStats {
        len,
        buckets: counts.len(),
        k_min: counts[0],
        k_median: counts[counts.len() / 2],
        singleton_fraction: singletons as f64 / counts.len() as f64,
    })
}

/// Recommend the longest truncation length that still provides
/// `min_k`-anonymity in the median bucket and leaves at most
/// `max_singleton_fraction` of buckets identifying a single subscriber.
/// Returns the audit profile alongside the recommendation.
pub fn recommend_truncation(
    observations: &[(u32, Ipv6Prefix)],
    candidates: impl Iterator<Item = u8>,
    min_k: usize,
    max_singleton_fraction: f64,
) -> (Vec<TruncationStats>, Option<u8>) {
    let mut profile: Vec<TruncationStats> = candidates
        .filter_map(|len| audit_truncation(observations, len))
        .collect();
    profile.sort_by_key(|s| s.len);
    let best = profile
        .iter()
        .rev()
        .find(|s| s.k_median >= min_k && s.singleton_fraction <= max_singleton_fraction)
        .map(|s| s.len);
    (profile, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p64(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// Netcologne-style: each subscriber owns a whole /48; all 64 of them
    /// sit inside one /40 pool (group 3 = subscriber index, < 256).
    fn slash48_world() -> Vec<(u32, Ipv6Prefix)> {
        (0..64u32)
            .map(|sub| (sub, p64(&format!("2001:4dd0:{:x}::/64", sub))))
            .collect()
    }

    /// DTAG-style: /56 delegations, 256 subscribers per /48.
    fn slash56_world() -> Vec<(u32, Ipv6Prefix)> {
        (0..512u32)
            .map(|sub| {
                let group3 = sub; // sub i gets 2003:0:<i/256>:<(i%256)<<8>::/64
                (
                    sub,
                    p64(&format!(
                        "2003:0:{:x}:{:x}00::/64",
                        group3 / 256,
                        group3 % 256
                    )),
                )
            })
            .collect()
    }

    #[test]
    fn slash48_truncation_fails_for_slash48_delegations() {
        let obs = slash48_world();
        let s = audit_truncation(&obs, 48).unwrap();
        assert_eq!(s.k_median, 1, "every /48 bucket is one subscriber");
        assert!((s.singleton_fraction - 1.0).abs() < 1e-9);
        // A /40 aggregates 256 such subscribers.
        let s40 = audit_truncation(&obs, 40).unwrap();
        assert!(s40.k_median >= 64usize);
        assert!(s40.singleton_fraction < 0.01);
    }

    #[test]
    fn slash48_truncation_is_fine_for_slash56_delegations() {
        let obs = slash56_world();
        let s = audit_truncation(&obs, 48).unwrap();
        assert!(s.k_median >= 200, "{s:?}");
        assert_eq!(s.singleton_fraction, 0.0);
    }

    #[test]
    fn recommendation_depends_on_delegation_practice() {
        let (_, best48_world) =
            recommend_truncation(&slash48_world(), (32..=56).step_by(4), 20, 0.05);
        let (_, best56_world) =
            recommend_truncation(&slash56_world(), (32..=56).step_by(4), 20, 0.05);
        let a = best48_world.expect("some safe length exists");
        let b = best56_world.expect("some safe length exists");
        assert!(a < 48, "Netcologne-style world needs shorter than /48: {a}");
        assert!(b >= 48, "DTAG-style world can keep /48: {b}");
    }

    #[test]
    fn multiple_observations_per_subscriber_do_not_inflate_k() {
        // One subscriber seen under many /64s of its own /48 is still k=1.
        let obs: Vec<(u32, Ipv6Prefix)> = (0..16u32)
            .map(|i| (7, p64(&format!("2001:4dd0:1:{:x}00::/64", i))))
            .collect();
        let s = audit_truncation(&obs, 48).unwrap();
        assert_eq!(s.buckets, 1);
        assert_eq!(s.k_min, 1);
        assert_eq!(s.k_median, 1);
    }

    #[test]
    fn empty_input() {
        assert!(audit_truncation(&[], 48).is_none());
        let (profile, best) = recommend_truncation(&[], 32..=56, 2, 0.1);
        assert!(profile.is_empty());
        assert!(best.is_none());
    }
}
