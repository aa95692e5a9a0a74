//! CDN association-duration analysis.
//!
//! Section 4.2: "we measure association duration as the period in which an
//! IPv6 /64 prefix reports the same IPv4 /24 prefix. This duration is
//! determined by the lifetime of an IPv6 /64 prefix or the appearance of
//! another IPv4 /24 prefix."

use crate::stats::BoxStats;
use dynamips_cdn::{Association, AssociationDataset};
use dynamips_routing::{Asn, Rir};
use std::collections::BTreeMap;

/// One association run: a /64 continuously reporting the same /24.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssociationRun {
    /// Origin AS.
    pub asn: Asn,
    /// Whether the AS is cellular.
    pub mobile: bool,
    /// Run length in days (inclusive of first and last sighting).
    pub days: u32,
}

/// A dataset's tuples in one stable sort by `(/64, day)`: each /64's
/// tuples form one contiguous, day-ordered group, ties in dataset order.
/// Every CDN kernel reads this one order instead of grouping by hash.
/// The order is a `u32` index per tuple. A /64 is keyed by its 64 network
/// bits, which is the whole prefix for the /64s the collector and the
/// loaders build.
pub struct P64Order<'a> {
    tuples: &'a [Association],
    order: Vec<u32>,
}

impl<'a> P64Order<'a> {
    /// Sort the tuple indexes of `ds` by `(/64, day)`, stably.
    pub fn new(ds: &'a AssociationDataset) -> P64Order<'a> {
        let tuples = &ds.tuples[..];
        // Keys (network, day, index) are distinct, so an in-place unstable
        // sort gives the stable order without a key or merge buffer.
        let mut order: Vec<u32> = (0..tuples.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let t = &tuples[i as usize];
            (network(t), t.day, i)
        });
        P64Order { tuples, order }
    }

    /// Each distinct /64's group, in ascending /64 order.
    pub fn groups(&self) -> impl Iterator<Item = P64Group<'a, '_>> {
        let tuples = self.tuples;
        self.order
            .chunk_by(move |&a, &b| network(&tuples[a as usize]) == network(&tuples[b as usize]))
            .map(move |order| P64Group { tuples, order })
    }
}

/// The 64 network bits of a tuple's /64.
fn network(t: &Association) -> u64 {
    (t.p64.bits() >> 64) as u64
}

/// One /64's tuples in a [`P64Order`].
// lint:allow(dead-pub): values flow to other crates through
// `P64Order::groups` without the type name being spelled.
pub struct P64Group<'a, 'o> {
    tuples: &'a [Association],
    order: &'o [u32],
}

impl<'a> P64Group<'a, '_> {
    /// The group's tuples by day, ties in dataset order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Association> + '_ {
        self.order.iter().map(|&i| &self.tuples[i as usize])
    }

    /// The group's first tuple in dataset order: the sighting that
    /// classifies the /64 as mobile or fixed.
    pub fn first_seen(&self) -> Option<&'a Association> {
        let first = self.order.iter().min()?;
        self.tuples.get(*first as usize)
    }
}

/// Extract association runs from the dataset's [`P64Order`], in /64
/// order. Within each /64's day-ordered tuples, a run ends when the /24
/// changes or the /64 disappears for more than `max_gap_days` (a /64 not
/// seen for longer is considered gone — its next appearance starts a new
/// run, matching the "lifetime of an IPv6 /64 prefix" semantics).
pub fn association_runs(by_p64: &P64Order, max_gap_days: u32) -> Vec<AssociationRun> {
    let mut runs = Vec::new();
    for group in by_p64.groups() {
        let mut cur: Option<(u32, u32, &Association)> = None; // (start, last, rep)
        for t in group.iter() {
            match cur {
                Some((start, last, rep))
                    if rep.v24 == t.v24 && t.day.saturating_sub(last) <= max_gap_days =>
                {
                    cur = Some((start, t.day, rep));
                }
                Some((start, last, rep)) => {
                    runs.push(AssociationRun {
                        asn: rep.asn,
                        mobile: rep.mobile,
                        days: last - start + 1,
                    });
                    cur = Some((t.day, t.day, t));
                }
                None => cur = Some((t.day, t.day, t)),
            }
        }
        if let Some((start, last, rep)) = cur {
            runs.push(AssociationRun {
                asn: rep.asn,
                mobile: rep.mobile,
                days: last - start + 1,
            });
        }
    }
    runs
}

/// Group run durations (days) by AS.
pub fn durations_by_asn(runs: &[AssociationRun]) -> BTreeMap<Asn, Vec<f64>> {
    let mut map: BTreeMap<Asn, Vec<f64>> = BTreeMap::new();
    for r in runs {
        map.entry(r.asn).or_default().push(r.days as f64);
    }
    map
}

/// Group run durations by (RIR, mobile) using a resolver from ASN to RIR —
/// the Figure-3 boxplot populations.
pub(crate) fn durations_by_rir_access(
    runs: &[AssociationRun],
    rir_of: impl Fn(Asn) -> Option<Rir>,
) -> BTreeMap<(Rir, bool), Vec<f64>> {
    let mut map: BTreeMap<(Rir, bool), Vec<f64>> = BTreeMap::new();
    for r in runs {
        if let Some(rir) = rir_of(r.asn) {
            map.entry((rir, r.mobile)).or_default().push(r.days as f64);
        }
    }
    map
}

/// Box statistics per (RIR, mobile) group plus the global fixed/mobile
/// aggregates, in Figure 3's panel order.
pub fn figure3_boxes(
    runs: &[AssociationRun],
    rir_of: impl Fn(Asn) -> Option<Rir>,
) -> Vec<(String, Option<BoxStats>)> {
    let by_group = durations_by_rir_access(runs, rir_of);
    let mut out = Vec::new();
    for mobile in [false, true] {
        let all: Vec<f64> = runs
            .iter()
            .filter(|r| r.mobile == mobile)
            .map(|r| r.days as f64)
            .collect();
        let label = format!("ALL-{}", if mobile { "mobile" } else { "fixed" });
        out.push((label, BoxStats::from_values(&all)));
    }
    for rir in Rir::ALL {
        for mobile in [false, true] {
            let label = format!(
                "{}-{}",
                rir.label(),
                if mobile { "mobile" } else { "fixed" }
            );
            let values = by_group.get(&(rir, mobile));
            out.push((label, values.and_then(|v| BoxStats::from_values(v))));
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dynamips_netaddr::{Ipv4Prefix, Ipv6Prefix};

    fn tuple(v24: &str, p64: &str, day: u32, asn: u32, mobile: bool) -> Association {
        Association {
            v24: v24.parse::<Ipv4Prefix>().unwrap(),
            p64: p64.parse::<Ipv6Prefix>().unwrap(),
            day,
            asn: Asn(asn),
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
    fn continuous_association_is_one_run() {
        let d = ds((0..30)
            .map(|day| tuple("84.128.0.0/24", "2003:0:0:1::/64", day, 3320, false))
            .collect());
        let runs = association_runs(&P64Order::new(&d), 3);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].days, 30);
    }

    #[test]
    fn v24_change_splits_runs() {
        let mut tuples: Vec<Association> = (0..10)
            .map(|day| tuple("84.128.0.0/24", "2003:0:0:1::/64", day, 3320, false))
            .collect();
        tuples
            .extend((10..30).map(|day| tuple("91.3.7.0/24", "2003:0:0:1::/64", day, 3320, false)));
        let runs = association_runs(&P64Order::new(&ds(tuples)), 3);
        assert_eq!(runs.len(), 2);
        let mut days: Vec<u32> = runs.iter().map(|r| r.days).collect();
        days.sort_unstable();
        assert_eq!(days, vec![10, 20]);
    }

    #[test]
    fn long_disappearance_ends_the_run() {
        let mut tuples: Vec<Association> = (0..5)
            .map(|day| tuple("84.128.0.0/24", "2003:0:0:1::/64", day, 3320, false))
            .collect();
        // Same /24 but only re-seen 20 days later: the /64 was gone.
        tuples.push(tuple("84.128.0.0/24", "2003:0:0:1::/64", 25, 3320, false));
        let runs = association_runs(&P64Order::new(&ds(tuples)), 3);
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn short_gaps_are_tolerated() {
        // Seen on days 0,2,4 (client does not browse daily).
        let tuples: Vec<Association> = [0u32, 2, 4]
            .iter()
            .map(|&day| tuple("84.128.0.0/24", "2003:0:0:1::/64", day, 3320, false))
            .collect();
        let runs = association_runs(&P64Order::new(&ds(tuples)), 3);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].days, 5);
    }

    #[test]
    fn different_p64s_are_independent() {
        let tuples = vec![
            tuple("84.128.0.0/24", "2003:0:0:1::/64", 0, 3320, false),
            tuple("84.128.0.0/24", "2003:0:0:2::/64", 0, 3320, false),
        ];
        let runs = association_runs(&P64Order::new(&ds(tuples)), 3);
        assert_eq!(runs.len(), 2);
    }

    /// [`association_runs`] as it was: tuples grouped by /64 in a hash
    /// map, each group stably sorted by day. Runs come out in the map's
    /// order. The reference oracle for the sorted-order kernel.
    #[allow(
        clippy::disallowed_types,
        reason = "the hash-grouped kernel it replaced"
    )]
    fn association_runs_by_map(ds: &AssociationDataset, max_gap_days: u32) -> Vec<AssociationRun> {
        let mut by_p64: std::collections::HashMap<u128, Vec<&Association>> =
            std::collections::HashMap::new();
        for t in &ds.tuples {
            by_p64.entry(t.p64.bits()).or_default().push(t);
        }
        let mut runs = Vec::new();
        for (_, mut tuples) in by_p64 {
            tuples.sort_by_key(|t| t.day);
            let mut cur: Option<(u32, u32, &Association)> = None;
            for t in tuples {
                match cur {
                    Some((start, last, rep))
                        if rep.v24 == t.v24 && t.day.saturating_sub(last) <= max_gap_days =>
                    {
                        cur = Some((start, t.day, rep));
                    }
                    Some((start, last, rep)) => {
                        runs.push(AssociationRun {
                            asn: rep.asn,
                            mobile: rep.mobile,
                            days: last - start + 1,
                        });
                        cur = Some((t.day, t.day, t));
                    }
                    None => cur = Some((t.day, t.day, t)),
                }
            }
            if let Some((start, last, rep)) = cur {
                runs.push(AssociationRun {
                    asn: rep.asn,
                    mobile: rep.mobile,
                    days: last - start + 1,
                });
            }
        }
        runs
    }

    /// A seeded dataset in shuffled order: few /64s and /24s so groups
    /// collide, repeated days, and mobile flags and ASes that differ
    /// between the tuples of one /64.
    pub(crate) fn random_dataset(rng: &mut impl rand::Rng) -> AssociationDataset {
        let n = rng.gen_range(0..400);
        let tuples = (0..n)
            .map(|_| Association {
                v24: Ipv4Prefix::from_bits(0x5480_0000 | (rng.gen_range(0..6u32) << 8), 24)
                    .unwrap(),
                p64: Ipv6Prefix::from_bits(
                    (0x2003_u128 << 112) | (u128::from(rng.gen_range(0..40u32)) << 64),
                    64,
                )
                .unwrap(),
                day: rng.gen_range(0..60),
                asn: Asn(rng.gen_range(1..4)),
                mobile: rng.gen_bool(0.3),
            })
            .collect::<Vec<_>>();
        ds(tuples)
    }

    #[test]
    fn sorted_runs_match_hash_grouped_reference() {
        let mut rng = dynamips_netsim::rngutil::derive_rng(26, 3);
        let key = |r: &AssociationRun| (r.asn, r.mobile, r.days);
        let mut runs_seen = 0;
        for i in 0..200 {
            let d = random_dataset(&mut rng);
            for gap in [0, 3, 7] {
                let got = association_runs(&P64Order::new(&d), gap);
                let mut want = association_runs_by_map(&d, gap);
                // The map's order is per process; the sorted kernel's is
                // /64 order. Compare the runs as multisets, and the
                // sorted kernel with itself for determinism.
                let mut sorted = got.clone();
                sorted.sort_by_key(key);
                want.sort_by_key(key);
                assert_eq!(sorted, want, "dataset {i}, gap {gap}");
                assert_eq!(got, association_runs(&P64Order::new(&d), gap));
                runs_seen += got.len();
            }
        }
        assert!(runs_seen > 10_000, "{runs_seen} runs");
    }

    #[test]
    fn groups_are_day_ordered_and_first_seen_is_the_dataset_first() {
        let mut rng = dynamips_netsim::rngutil::derive_rng(26, 4);
        for _ in 0..50 {
            let d = random_dataset(&mut rng);
            let order = P64Order::new(&d);
            let mut p64s = 0;
            for group in order.groups() {
                let bits = group.first_seen().unwrap().p64.bits();
                let first = d.tuples.iter().find(|t| t.p64.bits() == bits).unwrap();
                assert!(std::ptr::eq(group.first_seen().unwrap(), first));
                let days: Vec<u32> = group.iter().map(|t| t.day).collect();
                assert!(days.windows(2).all(|w| w[0] <= w[1]), "{days:?}");
                assert!(group.iter().all(|t| t.p64.bits() == bits));
                p64s += 1;
            }
            assert_eq!(p64s, d.unique_p64_count());
        }
    }

    #[test]
    fn grouping_by_asn_and_rir() {
        let runs = vec![
            AssociationRun {
                asn: Asn(3320),
                mobile: false,
                days: 30,
            },
            AssociationRun {
                asn: Asn(3320),
                mobile: false,
                days: 10,
            },
            AssociationRun {
                asn: Asn(12576),
                mobile: true,
                days: 1,
            },
        ];
        let by_asn = durations_by_asn(&runs);
        assert_eq!(by_asn[&Asn(3320)].len(), 2);

        let by_group = durations_by_rir_access(&runs, |_| Some(Rir::RipeNcc));
        assert_eq!(by_group[&(Rir::RipeNcc, false)].len(), 2);
        assert_eq!(by_group[&(Rir::RipeNcc, true)].len(), 1);
    }

    #[test]
    fn figure3_boxes_cover_all_groups() {
        let runs = vec![
            AssociationRun {
                asn: Asn(3320),
                mobile: false,
                days: 30,
            },
            AssociationRun {
                asn: Asn(12576),
                mobile: true,
                days: 1,
            },
        ];
        let boxes = figure3_boxes(&runs, |_| Some(Rir::RipeNcc));
        // 2 global + 5 RIRs × 2.
        assert_eq!(boxes.len(), 12);
        let all_fixed = &boxes[0];
        assert_eq!(all_fixed.0, "ALL-fixed");
        assert_eq!(all_fixed.1.unwrap().p50, 30.0);
        // ARIN has no samples under this resolver.
        let arin_fixed = boxes.iter().find(|(l, _)| l == "ARIN-fixed").unwrap();
        assert!(arin_fixed.1.is_none());
    }
}
