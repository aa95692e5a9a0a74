//! Pool-boundary inference.
//!
//! Section 5.2 concludes that "for many ISPs, a /40 emerges as a common
//! size for dynamic address pools", by observing (Figure 8) that probes see
//! many distinct /48s but only a handful of /40s over their lifetimes. This
//! module turns that observation into an estimator: the pool grain is the
//! *longest* prefix length at which a churning subscriber still only ever
//! sees a few unique prefixes.
//!
//! A probe is *informative* at parameter `max_pools = K` when it has seen
//! at least `2K` distinct /64s (otherwise "few unique L-prefixes" is
//! trivially true for every L); it is *contained* at length `L` when its
//! unique `L`-prefix count is at most `K` — a handful of pools, allowing
//! for the occasional administrative move across pools the paper also
//! observes — *and* that count is scale-stable: shortening the length by
//! two bits must not merge pools (`unique(L) == unique(L-2)`). Without the
//! stability condition, a probe drawing many assignments from one /40
//! also has "few" unique /41s and /42s (they double per bit until they hit
//! `K`), which would bias the estimate long.

use crate::changes::ProbeHistory;

/// One probe's unique-supernet count at every prefix length, from one sort
/// of its /64s.
///
/// In the sorted, deduplicated list of /64 bits, the `L`-prefixes form
/// contiguous runs, and two neighbours start different runs exactly when
/// their common prefix is shorter than `L` bits. So a non-empty list has
/// `unique(L) = 1 + #{adjacent pairs with cpl < L}` supernets at `L`.
struct UniqueCounts {
    /// Distinct /64s seen.
    distinct: usize,
    /// `splits[l]`: adjacent distinct pairs whose common prefix is shorter
    /// than `l` bits, for `l` in `0..=128`.
    splits: [u32; 129],
}

impl UniqueCounts {
    fn of(history: &ProbeHistory) -> UniqueCounts {
        let mut bits: Vec<u128> = history.v6.iter().map(|s| s.value.bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        // Bucket each distinct pair by its common prefix length (at most
        // 127), counted at `cpl + 1`, the first length that splits it;
        // the prefix sum then counts every pair split at or below `l`.
        let mut splits = [0u32; 129];
        for w in bits.windows(2) {
            splits[(w[0] ^ w[1]).leading_zeros() as usize + 1] += 1;
        }
        for l in 1..splits.len() {
            splits[l] += splits[l - 1];
        }
        UniqueCounts {
            distinct: bits.len(),
            splits,
        }
    }

    /// Unique supernets of the probe's /64s at length `len`.
    fn at(&self, len: u8) -> usize {
        if self.distinct == 0 {
            return 0;
        }
        1 + self.splits[usize::from(len.min(128))] as usize
    }

    /// Per-probe containment test; `None` if the probe is uninformative.
    fn contained(&self, len: u8, max_pools: usize) -> Option<bool> {
        if self.at(64) < 2 * max_pools {
            return None;
        }
        let at = self.at(len);
        Some(at <= max_pools && at == self.at(len.saturating_sub(2)))
    }
}

/// Result of a pool-boundary estimation over a probe population.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(dead-pub): values flow to other crates through pub fn
// returns and pattern matches without the type name being spelled.
pub struct PoolBoundary {
    /// The inferred pool prefix length.
    pub pool_len: u8,
    /// Fraction of informative probes contained at that length.
    pub containment: f64,
    /// Informative probes that contributed.
    pub probes: usize,
    /// Per-candidate-length containment fractions, for inspection.
    pub profile: Vec<(u8, f64)>,
}

/// Estimate the pool grain of one AS from its probes' histories.
///
/// `candidates` are the prefix lengths to test (e.g. `16..=56`);
/// `max_pools` is how many distinct pools a subscriber may plausibly touch
/// over the observation window (admin renumbering; the paper sees "less
/// than five unique /40 prefixes"); `min_containment` is the fraction of
/// informative probes required to accept a length.
pub fn infer_pool_boundary(
    histories: &[&ProbeHistory],
    candidates: impl Iterator<Item = u8>,
    max_pools: usize,
    min_containment: f64,
) -> Option<PoolBoundary> {
    let counts: Vec<UniqueCounts> = histories.iter().map(|h| UniqueCounts::of(h)).collect();
    let mut profile: Vec<(u8, f64)> = Vec::new();
    let mut informative = 0usize;
    for len in candidates {
        let mut contained = 0usize;
        let mut total = 0usize;
        for c in &counts {
            if let Some(ok) = c.contained(len, max_pools) {
                total += 1;
                if ok {
                    contained += 1;
                }
            }
        }
        if total == 0 {
            return None;
        }
        informative = total;
        profile.push((len, contained as f64 / total as f64));
    }
    profile.sort_by_key(|(len, _)| *len);
    // The longest candidate still containing enough probes.
    let best = profile
        .iter()
        .rev()
        .find(|(_, frac)| *frac >= min_containment)?;
    Some(PoolBoundary {
        pool_len: best.0,
        containment: best.1,
        probes: informative,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::Span;
    use dynamips_atlas::ProbeId;
    use dynamips_netaddr::{Ipv6Prefix, Ipv6PrefixPool};
    use dynamips_netsim::rngutil::derive_rng;
    use dynamips_netsim::SimTime;
    use dynamips_routing::Asn;
    use rand::Rng;
    #[allow(
        clippy::disallowed_types,
        reason = "reference oracle in a test: cardinality only"
    )]
    use std::collections::HashSet;

    /// Unique supernets at `len`, hashing every one: the reference oracle
    /// for [`UniqueCounts::at`].
    #[allow(
        clippy::disallowed_types,
        reason = "reference oracle in a test: cardinality only"
    )]
    fn unique_at(history: &ProbeHistory, len: u8) -> usize {
        history
            .v6
            .iter()
            .map(|s| s.value.supernet(len).unwrap_or(s.value).bits())
            .collect::<HashSet<u128>>()
            .len()
    }

    /// The reference oracle for [`UniqueCounts::contained`].
    fn probe_contained(history: &ProbeHistory, len: u8, max_pools: usize) -> Option<bool> {
        if unique_at(history, 64) < 2 * max_pools {
            return None;
        }
        let at = unique_at(history, len);
        Some(at <= max_pools && at == unique_at(history, len.saturating_sub(2)))
    }

    /// [`infer_pool_boundary`] with every history rescanned at every
    /// length through [`probe_contained`]: the reference oracle.
    fn infer_by_rescan(
        histories: &[&ProbeHistory],
        candidates: impl Iterator<Item = u8>,
        max_pools: usize,
        min_containment: f64,
    ) -> Option<PoolBoundary> {
        let mut profile: Vec<(u8, f64)> = Vec::new();
        let mut informative = 0usize;
        for len in candidates {
            let mut contained = 0usize;
            let mut total = 0usize;
            for h in histories {
                if let Some(ok) = probe_contained(h, len, max_pools) {
                    total += 1;
                    if ok {
                        contained += 1;
                    }
                }
            }
            if total == 0 {
                return None;
            }
            informative = total;
            profile.push((len, contained as f64 / total as f64));
        }
        profile.sort_by_key(|(len, _)| *len);
        let best = profile
            .iter()
            .rev()
            .find(|(_, frac)| *frac >= min_containment)?;
        Some(PoolBoundary {
            pool_len: best.0,
            containment: best.1,
            probes: informative,
            profile,
        })
    }

    /// `n` /64s drawn from `pools` random pools of length `pool_len` under
    /// 2001:db8::/32, each at one of `slots` low slots: a small `slots`
    /// repeats /64s.
    fn random_history(
        rng: &mut impl Rng,
        n: usize,
        pools: u32,
        pool_len: u8,
        slots: u64,
    ) -> ProbeHistory {
        let bases: Vec<u128> = (0..pools)
            .map(|_| {
                let pool: u128 = rng.gen_range(0..1u128 << (pool_len - 32));
                (0x2001_0db8u128 << 96) | (pool << (128 - pool_len))
            })
            .collect();
        let v6 = (0..n)
            .map(|i| {
                let base = bases[rng.gen_range(0..bases.len())];
                let slot = u128::from(rng.gen_range(0..slots));
                Span {
                    value: Ipv6Prefix::from_bits(base | (slot << 64), 64).unwrap(),
                    first: SimTime(i as u64 * 24),
                    last: SimTime(i as u64 * 24 + 23),
                }
            })
            .collect();
        ProbeHistory {
            probe: ProbeId(1),
            virtual_index: 0,
            asn: Asn(64500),
            v4: vec![],
            v6,
        }
    }

    /// A boundary with every `f64` as its exact bits.
    type BoundaryBits = (u8, u64, usize, Vec<(u8, u64)>);

    fn boundary_bits(b: &Option<PoolBoundary>) -> Option<BoundaryBits> {
        b.as_ref().map(|b| {
            (
                b.pool_len,
                b.containment.to_bits(),
                b.probes,
                b.profile.iter().map(|&(l, f)| (l, f.to_bits())).collect(),
            )
        })
    }

    #[test]
    fn unique_counts_match_hash_set_oracle() {
        let mut rng = derive_rng(23, 1);
        #[allow(clippy::disallowed_types, reason = "test: cardinality only")]
        let mut sizes = HashSet::new();
        for _ in 0..200 {
            // 0 and 1 are the empty and single-prefix histories; one slot
            // makes every draw in a pool the same /64.
            let n = [0, 1, 2, 7, 40][rng.gen_range(0..5)];
            let pool_len = [33, 40, 48, 56][rng.gen_range(0..4)];
            let slots = [1, 3, 1 << 20][rng.gen_range(0..3)];
            let pools = rng.gen_range(1..4);
            let h = random_history(&mut rng, n, pools, pool_len, slots);
            let counts = UniqueCounts::of(&h);
            sizes.insert(unique_at(&h, 64));
            for len in (0..=130).chain([200, u8::MAX]) {
                assert_eq!(counts.at(len), unique_at(&h, len), "len {len}: {h:?}");
                for max_pools in [0, 1, 4] {
                    assert_eq!(
                        counts.contained(len, max_pools),
                        probe_contained(&h, len, max_pools),
                        "len {len}, max_pools {max_pools}: {h:?}"
                    );
                }
            }
        }
        assert!(sizes.contains(&0) && sizes.contains(&1), "{sizes:?}");
    }

    #[test]
    fn boundary_matches_rescan_oracle() {
        let mut rng = derive_rng(23, 2);
        let mut found = 0;
        for _ in 0..24 {
            let pool_len = [36, 40, 44, 48][rng.gen_range(0..4)];
            let min = [0.5, 0.9, 1.0][rng.gen_range(0..3)];
            let histories: Vec<ProbeHistory> = (0..rng.gen_range(1..16))
                .map(|_| {
                    let n = [0, 1, 3, 8, 30, 60][rng.gen_range(0..6)];
                    let slots = [2, 256, 1 << 16][rng.gen_range(0..3)];
                    let pools = rng.gen_range(1..3);
                    random_history(&mut rng, n, pools, pool_len, slots)
                })
                .collect();
            let refs: Vec<&ProbeHistory> = histories.iter().collect();
            for max_pools in [0, 1, 2, 4, 8] {
                for (lo, hi) in [(16, 56), (0, 64), (50, 80)] {
                    let got = infer_pool_boundary(&refs, lo..=hi, max_pools, min);
                    assert_eq!(
                        boundary_bits(&got),
                        boundary_bits(&infer_by_rescan(&refs, lo..=hi, max_pools, min)),
                        "max_pools {max_pools}, min {min}, {lo}..={hi}"
                    );
                    found += usize::from(got.is_some());
                }
            }
        }
        assert!(found > 100, "boundaries found: {found}");
    }

    /// Build a probe that draws `n` random /64s out of one /40 pool.
    fn probe_in_pool(seed: u64, pool: &str, n: usize) -> ProbeHistory {
        let mut rng = derive_rng(seed, 77);
        let pool = Ipv6PrefixPool::new(pool.parse().unwrap(), 56).unwrap();
        let v6: Vec<Span<Ipv6Prefix>> = (0..n)
            .map(|i| {
                let deleg = pool.prefix(rng.gen_range(0..pool.capacity())).unwrap();
                Span {
                    value: deleg.nth_subprefix(64, 0).unwrap(),
                    first: SimTime(i as u64 * 24),
                    last: SimTime(i as u64 * 24 + 23),
                }
            })
            .collect();
        ProbeHistory {
            probe: ProbeId(seed as u32),
            virtual_index: 0,
            asn: Asn(64500),
            v4: vec![],
            v6,
        }
    }

    #[test]
    fn recovers_the_slash40_pool_grain() {
        // 30 probes, each pinned to one of three /40 pools.
        let pools = [
            "2001:db8:1000::/40",
            "2001:db8:a000::/40",
            "2001:db8:ee00::/40",
        ];
        let histories: Vec<ProbeHistory> = (0..30u64)
            .map(|i| probe_in_pool(i, pools[(i % 3) as usize], 40))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let b = infer_pool_boundary(&refs, 16..=56, 4, 0.9).expect("boundary found");
        assert_eq!(b.pool_len, 40, "{:?}", b.profile);
        assert!(b.containment >= 0.95);
        assert_eq!(b.probes, 30);
    }

    #[test]
    fn tolerates_administrative_pool_moves() {
        // Probes split their lifetime between two /40 pools (one admin
        // renumbering event): the /40 grain must still be recovered.
        let histories: Vec<ProbeHistory> = (0..20u64)
            .map(|i| {
                let mut h = probe_in_pool(i, "2001:db8:1000::/40", 30);
                let second = probe_in_pool(1000 + i, "2001:db8:a000::/40", 20);
                h.v6.extend(second.v6);
                h
            })
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let b = infer_pool_boundary(&refs, 16..=56, 4, 0.9).expect("boundary found");
        assert_eq!(b.pool_len, 40, "{:?}", b.profile);
    }

    #[test]
    fn stable_probes_are_uninformative() {
        // A couple of observations per probe: "few unique prefixes" would
        // hold at any length, so such probes must not vote.
        let histories: Vec<ProbeHistory> = (0..5u64)
            .map(|i| probe_in_pool(i, "2001:db8:1000::/40", 2))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        assert!(infer_pool_boundary(&refs, 16..=56, 4, 0.9).is_none());
    }

    #[test]
    fn fragmented_assignments_push_boundary_shorter() {
        // Probes roaming across the whole /32: the best containment length
        // is near /32, not /40.
        let histories: Vec<ProbeHistory> = (0..10u64)
            .map(|seed| {
                let mut rng = derive_rng(seed, 5);
                let agg = Ipv6PrefixPool::new("2001:db8::/32".parse().unwrap(), 56).unwrap();
                let v6: Vec<Span<Ipv6Prefix>> = (0..60)
                    .map(|i| Span {
                        value: agg
                            .prefix(rng.gen_range(0..1 << 24))
                            .unwrap()
                            .nth_subprefix(64, 0)
                            .unwrap(),
                        first: SimTime(i as u64 * 24),
                        last: SimTime(i as u64 * 24 + 23),
                    })
                    .collect();
                ProbeHistory {
                    probe: ProbeId(seed as u32),
                    virtual_index: 0,
                    asn: Asn(64500),
                    v4: vec![],
                    v6,
                }
            })
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let b = infer_pool_boundary(&refs, 16..=56, 4, 0.9).expect("boundary found");
        assert!(b.pool_len <= 33, "{:?}", b.pool_len);
    }

    #[test]
    fn profile_is_monotone_non_increasing() {
        let histories: Vec<ProbeHistory> = (0..10u64)
            .map(|i| probe_in_pool(i, "2001:db8:1000::/40", 30))
            .collect();
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let b = infer_pool_boundary(&refs, 16..=56, 4, 0.5).unwrap();
        for w in b.profile.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "containment cannot grow with length: {:?}",
                b.profile
            );
        }
    }
}
