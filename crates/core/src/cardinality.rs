//! IPv4–IPv6 association cardinality (Figure 4 and Section 4.3).
//!
//! "We study the cardinality of associated IPv4 and IPv6 prefixes, by
//! looking at the number of associated IPv6 /64 prefixes per IPv4 /24
//! prefix, essentially measuring the connectivity degree of each IPv4
//! prefix." High degrees indicate CGNAT-style multiplexing.

use crate::association::P64Order;
use crate::stats::{log10_histogram, log10_histogram_weighted};
use std::collections::BTreeMap;

/// Degree data for one population (mobile or fixed).
#[derive(Debug, Clone, Default)]
pub struct DegreeStats {
    /// Per-/24: number of distinct associated /64s.
    pub unique_p64_per_v24: Vec<u64>,
    /// Per-/24: total association tuples (the "hit weight").
    pub hits_per_v24: Vec<u64>,
    /// Fraction of distinct /64s associated with exactly one /24 (the
    /// paper reports 87% for mobile).
    pub p64_degree_one_fraction: f64,
}

impl DegreeStats {
    /// Density over log10 bins of the unique-degree distribution
    /// (Figure 4's "unique /64s" curve). Returns (bin edges, densities).
    pub fn unique_density(&self, decades: u32, bins_per_decade: u32) -> (Vec<f64>, Vec<f64>) {
        let v: Vec<f64> = self.unique_p64_per_v24.iter().map(|&c| c as f64).collect();
        log10_histogram(&v, decades, bins_per_decade)
    }

    /// Hit-weighted density (Figure 4's "weighted /64s" curve).
    pub fn weighted_density(&self, decades: u32, bins_per_decade: u32) -> (Vec<f64>, Vec<f64>) {
        let v: Vec<(f64, f64)> = self
            .unique_p64_per_v24
            .iter()
            .zip(&self.hits_per_v24)
            .map(|(&c, &h)| (c as f64, h as f64))
            .collect();
        log10_histogram_weighted(&v, decades, bins_per_decade)
    }

    /// The degree at which the weighted distribution peaks (Figure 4's
    /// reading: ~150–200 for fixed, ~80,000 for mobile). Evaluated over
    /// log bins; returns the geometric bin center.
    pub fn weighted_peak(&self, decades: u32, bins_per_decade: u32) -> Option<f64> {
        let (edges, dens) = self.weighted_density(decades, bins_per_decade);
        let (idx, &max) = dens.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
        if max <= 0.0 {
            return None;
        }
        let hi = edges[idx];
        let lo = if idx == 0 { 1.0 } else { edges[idx - 1] };
        Some((lo * hi).sqrt())
    }
}

/// Compute degree statistics, split into (fixed, mobile), from the
/// dataset's [`P64Order`]. A tuple counts in the population of its own
/// mobile flag, so a /64 seen both ways counts in both.
pub fn degree_stats(by_p64: &P64Order) -> (DegreeStats, DegreeStats) {
    // Per population (0 = fixed, 1 = mobile): /24 -> (distinct /64s,
    // tuples), and the /64 count with how many of those saw one /24.
    let mut per_v24: [BTreeMap<u32, (u64, u64)>; 2] = Default::default();
    let mut p64s = [(0usize, 0usize); 2];
    let mut pairs: Vec<(bool, u32)> = Vec::new();
    for group in by_p64.groups() {
        pairs.clear();
        pairs.extend(group.iter().map(|t| (t.mobile, t.v24.bits())));
        pairs.sort_unstable();
        for population in pairs.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(mobile, _)) = population.first() else {
                continue;
            };
            let m = usize::from(mobile);
            let mut v24s = 0;
            for same in population.chunk_by(|a, b| a.1 == b.1) {
                if let Some(&(_, v24)) = same.first() {
                    let entry = per_v24[m].entry(v24).or_default();
                    entry.0 += 1;
                    entry.1 += same.len() as u64;
                    v24s += 1;
                }
            }
            p64s[m].0 += 1;
            p64s[m].1 += usize::from(v24s == 1);
        }
    }
    let [fixed, mobile] = [0, 1].map(|m| DegreeStats {
        unique_p64_per_v24: per_v24[m].values().map(|&(unique, _)| unique).collect(),
        hits_per_v24: per_v24[m].values().map(|&(_, hits)| hits).collect(),
        p64_degree_one_fraction: match p64s[m] {
            (0, _) => 0.0,
            (all, one) => one as f64 / all as f64,
        },
    });
    (fixed, mobile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_cdn::{Association, AssociationDataset};
    use dynamips_routing::Asn;

    fn tuple(v24: &str, p64: &str, day: u32, mobile: bool) -> Association {
        Association {
            v24: v24.parse().unwrap(),
            p64: p64.parse().unwrap(),
            day,
            asn: Asn(1),
            mobile,
        }
    }

    fn ds(tuples: Vec<Association>) -> AssociationDataset {
        AssociationDataset {
            raw_count: tuples.len() as u64,
            tuples,
            ..Default::default()
        }
    }

    #[test]
    fn degree_counts_unique_p64s() {
        let d = ds(vec![
            tuple("84.128.0.0/24", "2003:0:0:1::/64", 0, false),
            tuple("84.128.0.0/24", "2003:0:0:1::/64", 1, false), // repeat: 1 unique, 2 hits
            tuple("84.128.0.0/24", "2003:0:0:2::/64", 1, false),
            tuple("84.128.1.0/24", "2003:0:0:3::/64", 0, false),
        ]);
        let (fixed, mobile) = degree_stats(&P64Order::new(&d));
        assert_eq!(fixed.unique_p64_per_v24, vec![2, 1]);
        assert_eq!(fixed.hits_per_v24, vec![3, 1]);
        assert!(mobile.unique_p64_per_v24.is_empty());
    }

    #[test]
    fn p64_degree_one_fraction() {
        let d = ds(vec![
            // /64 :1 maps to two different /24s, :2 and :3 to one each.
            tuple("84.128.0.0/24", "2003:0:0:1::/64", 0, true),
            tuple("84.128.9.0/24", "2003:0:0:1::/64", 5, true),
            tuple("84.128.0.0/24", "2003:0:0:2::/64", 0, true),
            tuple("84.128.1.0/24", "2003:0:0:3::/64", 0, true),
        ]);
        let (_, mobile) = degree_stats(&P64Order::new(&d));
        assert!((mobile.p64_degree_one_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    /// [`degree_stats`] as it was: per population, a hash map from /24
    /// to its set of /64s and its tuple count, and from /64 to its set of
    /// /24s. The reference oracle for the sorted-order kernel.
    #[allow(
        clippy::disallowed_types,
        reason = "the hash-grouped kernel it replaced"
    )]
    fn degree_stats_by_maps(ds: &AssociationDataset) -> (DegreeStats, DegreeStats) {
        use std::collections::{HashMap, HashSet};
        let mut out = (DegreeStats::default(), DegreeStats::default());
        for mobile in [false, true] {
            let mut p64s_per_v24: HashMap<u32, HashSet<u128>> = HashMap::new();
            let mut hits_per_v24: HashMap<u32, u64> = HashMap::new();
            let mut v24s_per_p64: HashMap<u128, HashSet<u32>> = HashMap::new();
            for t in ds.tuples.iter().filter(|t| t.mobile == mobile) {
                p64s_per_v24
                    .entry(t.v24.bits())
                    .or_default()
                    .insert(t.p64.bits());
                *hits_per_v24.entry(t.v24.bits()).or_default() += 1;
                v24s_per_p64
                    .entry(t.p64.bits())
                    .or_default()
                    .insert(t.v24.bits());
            }
            let mut keys: Vec<u32> = p64s_per_v24.keys().copied().collect();
            keys.sort_unstable();
            let stats = DegreeStats {
                unique_p64_per_v24: keys.iter().map(|k| p64s_per_v24[k].len() as u64).collect(),
                hits_per_v24: keys.iter().map(|k| hits_per_v24[k]).collect(),
                p64_degree_one_fraction: if v24s_per_p64.is_empty() {
                    0.0
                } else {
                    v24s_per_p64.values().filter(|s| s.len() == 1).count() as f64
                        / v24s_per_p64.len() as f64
                },
            };
            if mobile {
                out.1 = stats;
            } else {
                out.0 = stats;
            }
        }
        out
    }

    #[test]
    fn sorted_degrees_match_hash_grouped_reference() {
        let mut rng = dynamips_netsim::rngutil::derive_rng(26, 5);
        for i in 0..200 {
            let d = crate::association::tests::random_dataset(&mut rng);
            let got = degree_stats(&P64Order::new(&d));
            let want = degree_stats_by_maps(&d);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "dataset {i}");
        }
    }

    #[test]
    fn weighted_peak_reflects_heavy_v24s() {
        // 10 /24s with degree 10 (10 hits each) and one /24 with degree
        // 10000 and 100000 hits: the weighted peak must sit at the heavy one.
        let mut stats = DegreeStats::default();
        for _ in 0..10 {
            stats.unique_p64_per_v24.push(10);
            stats.hits_per_v24.push(10);
        }
        stats.unique_p64_per_v24.push(10_000);
        stats.hits_per_v24.push(100_000);
        let peak = stats.weighted_peak(6, 4).unwrap();
        assert!(peak > 5_000.0 && peak < 20_000.0, "{peak}");
        // The unweighted density still peaks at 10.
        let (edges, dens) = stats.unique_density(6, 4);
        let argmax = dens
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(edges[argmax] <= 32.0, "{}", edges[argmax]);
    }

    #[test]
    fn empty_dataset_degrees() {
        let (fixed, mobile) = degree_stats(&P64Order::new(&ds(vec![])));
        assert!(fixed.unique_p64_per_v24.is_empty());
        assert_eq!(mobile.p64_degree_one_fraction, 0.0);
        assert!(fixed.weighted_peak(6, 4).is_none());
    }
}
