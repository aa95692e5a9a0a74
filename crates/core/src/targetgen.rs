//! Seed-driven target generation: simplified reimplementations of the two
//! techniques the paper names (Section 2.3) so they can be compared against
//! boundary-guided planning on equal terms.
//!
//! * [`NibbleModel`] — Entropy/IP-lite (Foremski et al.): learn per-nibble
//!   value frequencies over the 16 network nibbles of seed /64s, then
//!   generate candidates in order of joint probability.
//! * [`sixgen_targets`] — 6Gen-lite (Murdock et al.): find dense clusters
//!   in the sorted seed list and enumerate the /64s around them.
//!
//! Both originals model full 128-bit addresses; the paper's unit of
//! analysis is the /64, so these operate on the 64 network bits. The
//! `targetgen` experiment in `dynamips-experiments` compares them with the
//! pool/subscriber-boundary plan of [`crate::hitlist`] at equal probe
//! budgets.

use dynamips_netaddr::Ipv6Prefix;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Per-nibble frequency model over the 16 network nibbles of a /64.
#[derive(Debug, Clone)]
pub struct NibbleModel {
    /// `freq[pos][value]` = relative frequency of `value` at nibble `pos`
    /// (0 = most significant).
    freq: [[f64; 16]; 16],
    trained_on: usize,
}

impl NibbleModel {
    /// Train on seed /64s. Returns `None` on an empty seed set.
    pub fn train(seeds: &[Ipv6Prefix]) -> Option<NibbleModel> {
        if seeds.is_empty() {
            return None;
        }
        let mut counts = [[0usize; 16]; 16];
        for seed in seeds {
            let network = (seed.bits() >> 64) as u64;
            for (pos, slot) in counts.iter_mut().enumerate() {
                let nibble = ((network >> (60 - 4 * pos)) & 0xf) as usize;
                slot[nibble] += 1;
            }
        }
        let mut freq = [[0f64; 16]; 16];
        for pos in 0..16 {
            for v in 0..16 {
                freq[pos][v] = counts[pos][v] as f64 / seeds.len() as f64;
            }
        }
        Some(NibbleModel {
            freq,
            trained_on: seeds.len(),
        })
    }

    /// Number of seeds the model was trained on.
    // lint:allow(dead-pub): test-facing accessor for the training-set size.
    pub fn trained_on(&self) -> usize {
        self.trained_on
    }

    /// Generate up to `limit` candidate /64s by beam search over the
    /// per-nibble distributions, highest joint probability first.
    ///
    /// A beam of `limit` partials per position is exact: it yields the
    /// same first `limit` candidates as any wider beam, ties included.
    /// Take an extension whose parent sits at index `>= limit`. Each of
    /// the `limit` parents before it is at least as probable (adding the
    /// same `ln p` keeps the order, since rounding is monotone) and wins a
    /// tie by its lower index, so its extension by the same value sorts
    /// first: `limit` candidates beat any extension of a parent the
    /// narrow beam dropped.
    pub fn generate(&self, limit: usize) -> Vec<Ipv6Prefix> {
        if limit == 0 {
            return Vec::new();
        }
        // (network bits so far, log-probability), most probable first
        let mut partials: Vec<(u64, f64)> = vec![(0, 0.0)];
        for pos in 0..16 {
            partials = self.extend_beam(pos, &partials, limit);
        }
        partials
            .into_iter()
            .filter_map(|(bits, _)| Ipv6Prefix::from_bits((bits as u128) << 64, 64).ok())
            .collect()
    }

    /// Extend each of `partials` (sorted by log-probability, descending)
    /// by every nibble value seen at `pos` and keep the `beam` most
    /// probable extensions. Ties go to the lower parent index, then the
    /// lower nibble value: the order a stable sort of all extensions gives.
    ///
    /// Adding a value's `ln p` is monotone, so each value's extensions
    /// already come sorted; a k-way merge of those ≤16 lists yields the
    /// first `beam` without building all 16 × `partials` candidates.
    fn extend_beam(&self, pos: usize, partials: &[(u64, f64)], beam: usize) -> Vec<(u64, f64)> {
        let Some(&(_, top)) = partials.first() else {
            return Vec::new();
        };
        let mut heads: BinaryHeap<MergeHead> = (0..16u8)
            .filter_map(|v| {
                let p = self.freq[pos][v as usize];
                (p > 0.0).then(|| {
                    let ln_p = p.ln();
                    MergeHead {
                        logp: top + ln_p,
                        ln_p,
                        parent: 0,
                        value: v,
                    }
                })
            })
            .collect();
        let mut next = Vec::with_capacity(beam.min(partials.len() * heads.len()));
        while next.len() < beam {
            let Some(mut head) = heads.peek_mut() else {
                break;
            };
            let (bits, _) = partials[head.parent];
            next.push(((bits << 4) | u64::from(head.value), head.logp));
            match partials.get(head.parent + 1) {
                Some(&(_, logp)) => {
                    head.parent += 1;
                    head.logp = logp + head.ln_p;
                }
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        next
    }
}

/// The next unmerged extension of one nibble value's list in
/// [`NibbleModel::extend_beam`]: `partials[parent]` followed by `value`.
/// Ordered so the max-heap yields the highest log-probability first, then
/// the lowest parent index, then the lowest value.
struct MergeHead {
    logp: f64,
    ln_p: f64,
    parent: usize,
    value: u8,
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        self.logp
            .total_cmp(&other.logp)
            .then_with(|| other.parent.cmp(&self.parent))
            .then_with(|| other.value.cmp(&self.value))
    }
}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeHead {}

/// 6Gen-lite: group sorted seeds into clusters whose covering prefix is at
/// least `min_cluster_len` long, then spend `limit` targets enumerating the
/// /64s of the densest clusters first. Returns targets including the seeds
/// themselves. Seeds are /64s; no target is returned twice.
pub fn sixgen_targets(seeds: &[Ipv6Prefix], min_cluster_len: u8, limit: usize) -> Vec<Ipv6Prefix> {
    debug_assert!(seeds.iter().all(|s| s.len() == 64), "seeds must be /64s");
    if seeds.is_empty() || limit == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<Ipv6Prefix> = seeds.to_vec();
    sorted.sort();
    sorted.dedup();

    // Greedy clustering over sorted seeds: extend the cluster while the
    // covering prefix stays at least `min_cluster_len`.
    struct Cluster {
        cover: Ipv6Prefix,
        seeds: usize,
    }
    let mut clusters: Vec<Cluster> = Vec::new();
    for seed in &sorted {
        match clusters.last_mut() {
            Some(c) => {
                let cpl = dynamips_netaddr::common_prefix_len_v6(&c.cover, seed);
                if cpl >= min_cluster_len {
                    c.cover = c.cover.supernet(cpl).unwrap_or(c.cover);
                    c.seeds += 1;
                } else {
                    clusters.push(Cluster {
                        cover: *seed,
                        seeds: 1,
                    });
                }
            }
            None => clusters.push(Cluster {
                cover: *seed,
                seeds: 1,
            }),
        }
    }

    // Densest clusters first: seeds per covered /64.
    clusters.sort_by(|a, b| {
        let da = a.seeds as f64 / a.cover.num_subprefixes(64).unwrap_or(u64::MAX) as f64;
        let db = b.seeds as f64 / b.cover.num_subprefixes(64).unwrap_or(u64::MAX) as f64;
        db.total_cmp(&da)
    });

    // The covers are disjoint, so enumerating them never repeats a /64.
    // Each cluster is a run of the sorted, distinct seed /64s, and its
    // cover is either that one seed or the prefix of the run at a common
    // prefix length >= `min_cluster_len`. Two prefixes overlap only if one
    // holds the other; say the cover P of an earlier run and another
    // cover overlap, and Q is the larger of the two. Q holds seeds of
    // both runs, so it holds every seed sorted between them (a prefix
    // holds a contiguous range of /64s), among them s, the seed that
    // closed P's run. Holding two distinct seeds, Q is no single /64, so
    // len(Q) >= `min_cluster_len`. Holding both P and s, Q bounds
    // cpl(P, s) >= len(Q) >= `min_cluster_len`. But s closed P's run
    // because cpl(P, s) < `min_cluster_len`.
    let mut out: Vec<Ipv6Prefix> = Vec::with_capacity(limit);
    for c in &clusters {
        if out.len() >= limit {
            break;
        }
        let count = c.cover.num_subprefixes(64).unwrap_or(u64::MAX);
        let budget = (limit - out.len()) as u64;
        // i < num_subprefixes(64) by the loop bound; skip rather than
        // panic if the invariant slips.
        out.extend((0..count.min(budget)).filter_map(|i| c.cover.nth_subprefix(64, i).ok()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitlist::hit_rate;
    use dynamips_netsim::rngutil::derive_rng;
    use rand::Rng;
    #[allow(
        clippy::disallowed_types,
        reason = "reference oracle in a test: membership test and cardinality only"
    )]
    use std::collections::HashSet;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn nibble_model_reproduces_constant_structure() {
        // Seeds share everything but the last nibble pair; zero suffix is
        // the most frequent continuation.
        let seeds: Vec<Ipv6Prefix> = (0..16u32)
            .map(|i| p(&format!("2003:40:a0:{:x}00::/64", i)))
            .collect();
        let model = NibbleModel::train(&seeds).unwrap();
        assert_eq!(model.trained_on(), 16);
        let targets = model.generate(64);
        assert!(!targets.is_empty());
        // Every generated /64 keeps the constant prefix 2003:40:a0.
        for t in &targets {
            assert_eq!(t.supernet(48).unwrap(), p("2003:40:a0::/48"), "{t}");
        }
        // And the seeds themselves are among the most probable candidates.
        let rate = hit_rate(&targets, &seeds);
        assert!(rate > 0.9, "{rate}");
    }

    #[test]
    fn nibble_model_generation_is_probability_ordered() {
        // 75% of seeds end in 0x0, 25% in 0x8 at the last nibble.
        let mut seeds = vec![p("2001:db8::/64"); 3];
        seeds.push(p("2001:db8:0:8::/64"));
        let model = NibbleModel::train(&seeds).unwrap();
        let targets = model.generate(2);
        assert_eq!(targets[0], p("2001:db8::/64"), "most probable first");
        assert_eq!(targets[1], p("2001:db8:0:8::/64"));
    }

    /// One beam step as `generate` did it before the k-way merge: build
    /// every extension, stable-sort by log-probability, truncate. The
    /// reference oracle for [`NibbleModel::extend_beam`].
    fn extend_by_full_sort(
        model: &NibbleModel,
        pos: usize,
        partials: &[(u64, f64)],
        beam: usize,
    ) -> Vec<(u64, f64)> {
        let mut next: Vec<(u64, f64)> = Vec::with_capacity(partials.len() * 4);
        for (bits, logp) in partials {
            for v in 0..16u64 {
                let p = model.freq[pos][v as usize];
                if p <= 0.0 {
                    continue;
                }
                next.push(((bits << 4) | v, logp + p.ln()));
            }
        }
        next.sort_by(|a, b| b.1.total_cmp(&a.1));
        next.truncate(beam);
        next
    }

    /// `generate` built on the full-sort step with a beam of `beam`,
    /// compared step by step with the merge (bits and exact
    /// log-probability bits). Its first `limit` candidates must equal
    /// `generate(limit)`, whose beam is `limit`.
    fn generate_checked(model: &NibbleModel, limit: usize, beam: usize) -> Vec<Ipv6Prefix> {
        let beam = beam.max(limit).max(1);
        let mut partials: Vec<(u64, f64)> = vec![(0, 0.0)];
        for pos in 0..16 {
            let want = extend_by_full_sort(model, pos, &partials, beam);
            let got = model.extend_beam(pos, &partials, beam);
            let bits = |xs: &[(u64, f64)]| -> Vec<(u64, u64)> {
                xs.iter().map(|&(b, l)| (b, l.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "nibble {pos}, beam {beam}");
            partials = want;
        }
        let want: Vec<Ipv6Prefix> = partials
            .into_iter()
            .take(limit)
            .filter_map(|(bits, _)| Ipv6Prefix::from_bits((bits as u128) << 64, 64).ok())
            .collect();
        assert_eq!(model.generate(limit), want, "limit {limit}, beam {beam}");
        want
    }

    fn model_from_counts(counts: &[[usize; 16]; 16]) -> NibbleModel {
        let mut freq = [[0f64; 16]; 16];
        for (row, count) in freq.iter_mut().zip(counts) {
            let total: usize = count.iter().sum();
            for (f, &c) in row.iter_mut().zip(count) {
                *f = c as f64 / total as f64;
            }
        }
        NibbleModel {
            freq,
            trained_on: 0,
        }
    }

    /// Per-position counts over `width` random values drawn from
    /// `weights`; a width of 1 gives a single nonzero value.
    fn random_counts(rng: &mut impl Rng, widths: &[usize], weights: &[usize]) -> [[usize; 16]; 16] {
        let mut counts = [[0usize; 16]; 16];
        for row in counts.iter_mut() {
            let width = widths[rng.gen_range(0..widths.len())];
            let start = rng.gen_range(0..16);
            for k in 0..width {
                row[(start + 3 * k) % 16] = weights[rng.gen_range(0..weights.len())];
            }
        }
        counts
    }

    #[test]
    fn beam_merge_matches_full_sort_with_ties() {
        let mut rng = derive_rng(14, 0);
        for _ in 0..12 {
            // Uniform rows: every value equally likely, so whole rows tie.
            let uniform = model_from_counts(&random_counts(&mut rng, &[1, 2, 4, 16], &[1]));
            // Duplicated frequencies: rows mixing two weights.
            let duplicated = model_from_counts(&random_counts(&mut rng, &[1, 3, 5, 7], &[1, 2]));
            for model in [&uniform, &duplicated] {
                for (limit, beam) in [(1, 1), (10, 7), (33, 66), (50, 200), (300, 600), (64, 4096)]
                {
                    generate_checked(model, limit, beam);
                }
            }
        }
    }

    #[test]
    fn beam_merge_matches_full_sort_on_trained_models() {
        let mut rng = derive_rng(14, 1);
        for n in [20usize, 200, 2000] {
            // Seeds drawn from a small alphabet per nibble: frequencies
            // repeat across values and positions.
            let seeds: Vec<Ipv6Prefix> = (0..n)
                .map(|_| {
                    let network = (0..16).fold(0u64, |acc, pos| {
                        let nibble = if pos < 8 {
                            pos as u64
                        } else {
                            rng.gen_range(0..4) * 5
                        };
                        (acc << 4) | nibble
                    });
                    Ipv6Prefix::from_bits((network as u128) << 64, 64).unwrap()
                })
                .collect();
            let model = NibbleModel::train(&seeds).unwrap();
            for (limit, beam) in [(5, 5), (100, 400), (1000, 2000)] {
                generate_checked(&model, limit, beam);
            }
        }
    }

    #[test]
    fn beam_wider_than_candidates_returns_them_all() {
        // Two values at three positions and one elsewhere: 8 candidates.
        let mut counts = [[0usize; 16]; 16];
        for (pos, row) in counts.iter_mut().enumerate() {
            row[pos % 16] = 3;
            if pos % 6 == 0 {
                row[(pos + 1) % 16] = 1;
            }
        }
        let model = model_from_counts(&counts);
        let all = generate_checked(&model, 100, 1000);
        assert_eq!(all.len(), 8);
        assert_eq!(generate_checked(&model, 3, 1000), all[..3].to_vec());
    }

    #[test]
    fn empty_seeds_yield_no_model() {
        assert!(NibbleModel::train(&[]).is_none());
    }

    #[test]
    fn sixgen_enumerates_dense_cluster_first() {
        // A dense cluster of 8 seeds inside one /56, plus one far-away seed.
        let mut seeds: Vec<Ipv6Prefix> = (0..8u32)
            .map(|i| p(&format!("2003:40:a0:aa{:02x}::/64", i * 2)))
            .collect();
        seeds.push(p("2a00:9999:0:1::/64"));
        let targets = sixgen_targets(&seeds, 48, 300);
        assert!(!targets.is_empty());
        // The seeds aa00, aa02 ... aa0e tighten the cover to aa00::/60
        // (16 /64s), all of which get enumerated — including the unseen
        // odd-numbered ones in between the seeds.
        let in_cluster = targets
            .iter()
            .filter(|t| t.supernet(60).unwrap() == p("2003:40:a0:aa00::/60"))
            .count();
        assert_eq!(in_cluster, 16, "dense cluster fully enumerated");
        assert!(targets.contains(&p("2003:40:a0:aa01::/64")));
    }

    #[test]
    fn sixgen_respects_budget_and_dedupes() {
        let seeds: Vec<Ipv6Prefix> = (0..8u32)
            .map(|i| p(&format!("2003:40:a0:aa{:02x}::/64", i)))
            .collect();
        let targets = sixgen_targets(&seeds, 48, 5);
        assert_eq!(targets.len(), 5, "budget caps enumeration");
        #[allow(clippy::disallowed_types, reason = "test: cardinality only")]
        let set: HashSet<u128> = targets.iter().map(|t| t.bits()).collect();
        assert_eq!(set.len(), 5, "no duplicates");
        assert!(sixgen_targets(&seeds, 48, 0).is_empty());
        assert!(sixgen_targets(&[], 48, 10).is_empty());
    }

    /// [`sixgen_targets`] with an `emitted` set dropping any repeated
    /// /64: the reference oracle.
    fn sixgen_with_emitted_set(
        seeds: &[Ipv6Prefix],
        min_cluster_len: u8,
        limit: usize,
    ) -> Vec<Ipv6Prefix> {
        if seeds.is_empty() || limit == 0 {
            return Vec::new();
        }
        let mut sorted: Vec<Ipv6Prefix> = seeds.to_vec();
        sorted.sort();
        sorted.dedup();
        // (cover, seeds)
        let mut clusters: Vec<(Ipv6Prefix, usize)> = Vec::new();
        for seed in &sorted {
            match clusters.last_mut() {
                Some((cover, n)) => {
                    let cpl = dynamips_netaddr::common_prefix_len_v6(cover, seed);
                    if cpl >= min_cluster_len {
                        *cover = cover.supernet(cpl).unwrap_or(*cover);
                        *n += 1;
                    } else {
                        clusters.push((*seed, 1));
                    }
                }
                None => clusters.push((*seed, 1)),
            }
        }
        let density = |(cover, n): &(Ipv6Prefix, usize)| {
            *n as f64 / cover.num_subprefixes(64).unwrap_or(u64::MAX) as f64
        };
        clusters.sort_by(|a, b| density(b).total_cmp(&density(a)));
        let mut out: Vec<Ipv6Prefix> = Vec::with_capacity(limit);
        #[allow(
            clippy::disallowed_types,
            reason = "reference oracle in a test: membership test only"
        )]
        let mut emitted: HashSet<u128> = HashSet::new();
        for (cover, _) in &clusters {
            if out.len() >= limit {
                break;
            }
            let count = cover.num_subprefixes(64).unwrap_or(u64::MAX);
            let budget = (limit - out.len()) as u64;
            for i in 0..count.min(budget) {
                let t = cover.nth_subprefix(64, i).unwrap();
                if emitted.insert(t.bits()) {
                    out.push(t);
                }
            }
        }
        out
    }

    #[test]
    fn sixgen_matches_emitted_set_oracle_without_repeats() {
        let mut rng = derive_rng(23, 4);
        let mut cut = 0;
        for _ in 0..400 {
            // Seeds from a few /48 regions at a variable spread, so
            // clusters nest, touch and repeat seeds.
            let regions: Vec<u128> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..1u128 << 16) << 80)
                .collect();
            let spread_bits = rng.gen_range(0..17u32);
            let seeds: Vec<Ipv6Prefix> = (0..[1, 2, 8, 40][rng.gen_range(0..4)])
                .map(|_| {
                    let region = regions[rng.gen_range(0..regions.len())];
                    let low = rng.gen_range(0..1u128 << spread_bits);
                    Ipv6Prefix::from_bits((0x2001u128 << 112) | region | (low << 64), 64).unwrap()
                })
                .collect();
            let min_cluster_len = [0, 16, 44, 48, 56, 60, 63, 64][rng.gen_range(0..8)];
            let limit = [1, 3, 17, 256, 5000][rng.gen_range(0..5)];
            let got = sixgen_targets(&seeds, min_cluster_len, limit);
            assert_eq!(
                got,
                sixgen_with_emitted_set(&seeds, min_cluster_len, limit),
                "min_cluster_len {min_cluster_len}, limit {limit}, {seeds:?}"
            );
            #[allow(clippy::disallowed_types, reason = "test: cardinality only")]
            let distinct: HashSet<u128> = got.iter().map(|t| t.bits()).collect();
            assert_eq!(distinct.len(), got.len(), "a /64 emitted twice");
            // The budget ran out inside a cluster's enumeration.
            cut += usize::from(got.len() == limit);
        }
        assert!(cut > 50, "budgets that cut a cluster: {cut}");
    }

    #[test]
    fn sixgen_min_cluster_len_extremes() {
        let seeds = vec![
            p("2003:40:a0:aa00::/64"),
            p("2a00:9999:0:1::/64"),
            p("2003:40:a0:aa03::/64"),
            p("2003:40:a0:aa03::/64"),
        ];
        // 0: one cluster over every seed, its cover 2000::/4 cut by the
        // budget.
        let all = sixgen_targets(&seeds, 0, 100);
        assert_eq!(all, sixgen_with_emitted_set(&seeds, 0, 100));
        assert_eq!(all.len(), 100);
        assert_eq!(all[0], p("2000::/64"));
        // 64: every distinct seed is its own /64 cluster.
        let own = sixgen_targets(&seeds, 64, 100);
        assert_eq!(own, sixgen_with_emitted_set(&seeds, 64, 100));
        assert_eq!(
            own,
            vec![
                p("2003:40:a0:aa00::/64"),
                p("2003:40:a0:aa03::/64"),
                p("2a00:9999:0:1::/64"),
            ]
        );
    }

    #[test]
    fn sixgen_separates_distant_clusters() {
        let seeds = vec![
            p("2003:40:a0:aa00::/64"),
            p("2003:40:a0:aa01::/64"),
            p("2a00:9999:0:1::/64"),
        ];
        // min_cluster_len 48: the 2a00 seed cannot join the 2003 cluster.
        let targets = sixgen_targets(&seeds, 48, 1000);
        assert!(targets.contains(&p("2a00:9999:0:1::/64")));
        assert!(targets.contains(&p("2003:40:a0:aa00::/64")));
    }
}
