//! The CDN collection pipeline: world → pre-processed association dataset.

use crate::dataset::{Association, AssociationDataset};
use dynamips_netaddr::{Ipv4Prefix, Ipv6Prefix};
use dynamips_netsim::rngutil::derive_rng;
use dynamips_netsim::time::Window;
use dynamips_netsim::{SimTime, World};
use dynamips_routing::Asn;
use rand::Rng;
use std::net::Ipv4Addr;

/// RUM collection knobs.
#[derive(Debug, Clone, Copy)]
pub struct CdnConfig {
    /// Probability that a dual-stack client produces a usable RUM
    /// association on any given day (not every site visit yields a
    /// cross-protocol transaction).
    pub daily_association_prob: f64,
    /// Probability that an association is polluted by a network switch
    /// mid-transaction (phone hopping from WiFi to cellular): the IPv4 side
    /// comes from a different network and the AS-mismatch filter must drop
    /// it.
    pub cross_network_noise: f64,
}

impl Default for CdnConfig {
    fn default() -> Self {
        CdnConfig {
            daily_association_prob: 0.6,
            cross_network_noise: 0.034,
        }
    }
}

impl CdnConfig {
    /// Noise-free collection for tests.
    pub fn pristine() -> Self {
        CdnConfig {
            daily_association_prob: 1.0,
            cross_network_noise: 0.0,
        }
    }
}

/// Builds the association dataset the way the paper's Section 4.1 describes:
/// observe raw dual-stack transactions, tag both sides with origin ASNs from
/// the BGP feed, discard mismatches, aggregate to (/24, /64, date), label
/// mobile/fixed.
pub struct CdnCollector<'w> {
    world: &'w World,
    window: Window,
    config: CdnConfig,
}

impl<'w> CdnCollector<'w> {
    /// Create a collector over `world` for `window`.
    pub fn new(world: &'w World, window: Window, config: CdnConfig) -> Self {
        CdnCollector {
            world,
            window,
            config,
        }
    }

    /// Run the collection and pre-processing, returning the dataset.
    pub fn collect(&self) -> AssociationDataset {
        self.collect_with(true)
    }

    /// [`collect`](Self::collect), with the two origin lookups memoised on
    /// the last v4 address and the last /64 when `memoise` is set. Both
    /// change only at a segment boundary or on a noise swap, and a lookup
    /// is pure, so memoising moves no RNG draw and no tuple.
    fn collect_with(&self, memoise: bool) -> AssociationDataset {
        let mut rng = derive_rng(self.world.seed(), 0xCD17);
        let mut ds = AssociationDataset::default();
        let routing = self.world.routing();
        let registry = self.world.registry();
        let first_day = self.window.start.days() as u32;
        let days = self.window.days() as u32;

        // Donor v4 address from the previously simulated ISP, used to
        // synthesize cross-network noise records.
        let mut donor_v4: Option<Ipv4Addr> = None;
        let mut last4: Option<(Ipv4Addr, Option<Asn>)> = None;
        let mut last6: Option<(Ipv6Prefix, Option<Asn>)> = None;

        self.world.run_each(self.window, |result| {
            for tl in &result.timelines {
                if !tl.dual_stack {
                    continue;
                }
                for d in 0..days {
                    if !rng.gen_bool(self.config.daily_association_prob) {
                        continue;
                    }
                    let day = first_day + d;
                    let hour = rng.gen_range(0..24);
                    let t = SimTime((day as u64) * 24 + hour);
                    let (Some(v4seg), Some(v6seg)) = (tl.v4_at(t), tl.v6_at(t)) else {
                        continue;
                    };
                    let mut v4addr = v4seg.addr;
                    if self.config.cross_network_noise > 0.0
                        && rng.gen_bool(self.config.cross_network_noise)
                    {
                        if let Some(d4) = donor_v4 {
                            v4addr = d4; // network switch mid-transaction
                        }
                    }
                    ds.raw_count += 1;

                    // BGP-feed tagging and the AS-mismatch filter.
                    if !memoise {
                        (last4, last6) = (None, None);
                    }
                    let origin4 = memoised(&mut last4, v4addr, |a| routing.origin_v4(a));
                    let origin6 = memoised(&mut last6, v6seg.lan64, |p| {
                        routing.route_v6_prefix(&p).map(|(_, a)| a)
                    });
                    let (Some(a4), Some(a6)) = (origin4, origin6) else {
                        ds.discarded_unrouted += 1;
                        continue;
                    };
                    if a4 != a6 {
                        ds.discarded_as_mismatch += 1;
                        continue;
                    }

                    ds.tuples.push(Association {
                        v24: Ipv4Prefix::slash24_of(v4addr),
                        p64: v6seg.lan64,
                        day,
                        asn: a4,
                        mobile: registry.is_cellular(a4),
                    });
                }
            }
            // Remember one address of this ISP as noise donor for the next.
            donor_v4 = result
                .timelines
                .iter()
                .rev()
                .find_map(|tl| tl.v4.last().map(|s| s.addr))
                .or(donor_v4);
        });
        ds
    }
}

/// `lookup(key)`, or the answer `last` holds when `key` repeats its key;
/// `last` then holds `key` and its answer.
fn memoised<K: PartialEq + Copy>(
    last: &mut Option<(K, Option<Asn>)>,
    key: K,
    lookup: impl FnOnce(K) -> Option<Asn>,
) -> Option<Asn> {
    match *last {
        Some((k, asn)) if k == key => asn,
        _ => {
            let asn = lookup(key);
            *last = Some((key, asn));
            asn
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_netsim::config::{
        CpeV6Behavior, IspConfig, OutageConfig, SubscriberClass, V4Policy, V4PoolPlan, V6Policy,
        V6PoolPlan,
    };
    use dynamips_routing::{AccessType, Asn, Rir};

    fn isp(asn: u32, v4: &str, v6: &str, cellular: bool) -> IspConfig {
        IspConfig {
            asn: Asn(asn),
            name: format!("ISP{asn}"),
            country: "X".into(),
            rir: Rir::RipeNcc,
            access: if cellular {
                AccessType::Cellular
            } else {
                AccessType::FixedLine
            },
            v4_plan: Some(V4PoolPlan {
                pools: vec![(v4.parse().unwrap(), 1.0)],
                announcements: vec![],
                p_near: 0.0,
                near_radius: 16,
            }),
            v6_plan: Some(V6PoolPlan {
                aggregates: vec![v6.parse().unwrap()],
                region_len: 40,
                delegated_len: 56,
                regions_per_aggregate: 2,
                p_stay_region: 1.0,
            }),
            classes: vec![SubscriberClass {
                weight: 1.0,
                dual_stack: true,
                v4: Some(V4Policy::DhcpSticky { lease_hours: 48 }),
                v6: Some(V6Policy::StableDelegation {
                    valid_lifetime_hours: 48,
                    maintenance_mean_hours: f64::INFINITY,
                }),
                coupled: false,
                cpe_mix: vec![(1.0, CpeV6Behavior::ZeroOut)],
                outages: OutageConfig::none(),
            }],
            stabilization: vec![],
            subscribers: 8,
        }
    }

    fn window() -> Window {
        Window::new(SimTime(0), SimTime(24 * 30))
    }

    #[test]
    fn pristine_collection_yields_one_tuple_per_client_day() {
        let mut world = World::new(5);
        world
            .add_isp(isp(64500, "198.18.0.0/16", "2001:db8::/32", false))
            .unwrap();
        let ds = CdnCollector::new(&world, window(), CdnConfig::pristine()).collect();
        assert_eq!(ds.len(), 8 * 30);
        assert_eq!(ds.raw_count, 8 * 30);
        assert_eq!(ds.discarded_as_mismatch, 0);
        assert_eq!(ds.discarded_unrouted, 0);
        for t in &ds.tuples {
            assert_eq!(t.asn, Asn(64500));
            assert!(!t.mobile);
            assert_eq!(t.v24.len(), 24);
            assert_eq!(t.p64.len(), 64);
        }
    }

    #[test]
    fn stable_clients_keep_one_association_all_month() {
        let mut world = World::new(5);
        world
            .add_isp(isp(64500, "198.18.0.0/16", "2001:db8::/32", false))
            .unwrap();
        let ds = CdnCollector::new(&world, window(), CdnConfig::pristine()).collect();
        // Group by /64: each client's association must be constant.
        #[allow(
            clippy::disallowed_types,
            reason = "test: only group sizes are asserted"
        )]
        let mut by_p64: std::collections::HashMap<u128, std::collections::HashSet<u32>> =
            std::collections::HashMap::new();
        for t in &ds.tuples {
            by_p64.entry(t.p64.bits()).or_default().insert(t.v24.bits());
        }
        assert_eq!(by_p64.len(), 8, "one /64 per stable client");
        for v24s in by_p64.values() {
            assert_eq!(v24s.len(), 1, "stable one-to-one association");
        }
    }

    #[test]
    fn mobile_labeling_follows_registry() {
        let mut world = World::new(6);
        world
            .add_isp(isp(64500, "198.18.0.0/16", "2001:db8::/32", false))
            .unwrap();
        world
            .add_isp(isp(64501, "198.51.100.0/24", "3fff::/32", true))
            .unwrap();
        let ds = CdnCollector::new(&world, window(), CdnConfig::pristine()).collect();
        for t in &ds.tuples {
            assert_eq!(t.mobile, t.asn == Asn(64501));
        }
        let frac = ds.mobile_p64_fraction();
        assert!((frac - 0.5).abs() < 0.01, "{frac}");
    }

    #[test]
    fn cross_network_noise_is_discarded_by_as_mismatch_filter() {
        let mut world = World::new(7);
        world
            .add_isp(isp(64500, "198.18.0.0/16", "2001:db8::/32", false))
            .unwrap();
        world
            .add_isp(isp(64501, "198.51.100.0/24", "3fff::/32", true))
            .unwrap();
        let mut cfg = CdnConfig::pristine();
        cfg.cross_network_noise = 0.5;
        let ds = CdnCollector::new(&world, window(), cfg).collect();
        // The second ISP's records get polluted with first-ISP v4 addresses
        // half the time; all of those must be discarded.
        assert!(ds.discarded_as_mismatch > 0);
        assert_eq!(
            ds.raw_count,
            ds.len() as u64 + ds.discarded_as_mismatch + ds.discarded_unrouted
        );
        // Every retained tuple is internally consistent.
        for t in &ds.tuples {
            let r4 = world.routing().route_v4(t.v24.network()).map(|(_, a)| a);
            assert_eq!(r4, Some(t.asn));
        }
    }

    #[test]
    fn daily_probability_thins_the_dataset() {
        let mut world = World::new(8);
        world
            .add_isp(isp(64500, "198.18.0.0/16", "2001:db8::/32", false))
            .unwrap();
        let mut cfg = CdnConfig::pristine();
        cfg.daily_association_prob = 0.25;
        let ds = CdnCollector::new(&world, window(), cfg).collect();
        let expected = 8.0 * 30.0 * 0.25;
        assert!((ds.len() as f64) < expected * 1.6);
        assert!((ds.len() as f64) > expected * 0.4);
    }

    #[test]
    fn collection_is_deterministic() {
        let mut world = World::new(9);
        world
            .add_isp(isp(64500, "198.18.0.0/16", "2001:db8::/32", false))
            .unwrap();
        let a = CdnCollector::new(&world, window(), CdnConfig::default()).collect();
        let b = CdnCollector::new(&world, window(), CdnConfig::default()).collect();
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.raw_count, b.raw_count);
    }

    #[test]
    fn memoised_lookups_match_memo_free_collection() {
        // Two ISPs, one cellular, with heavy noise: donor swaps interleave
        // foreign v4 addresses, so the memo keys change on both sides of
        // every swap and the mismatch filter fires.
        let mut world = World::new(10);
        world
            .add_isp(isp(64500, "198.18.0.0/16", "2001:db8::/32", false))
            .unwrap();
        world
            .add_isp(isp(64501, "198.51.100.0/24", "3fff::/32", true))
            .unwrap();
        for noise in [0.0, CdnConfig::default().cross_network_noise, 0.5] {
            let cfg = CdnConfig {
                cross_network_noise: noise,
                ..CdnConfig::default()
            };
            let collector = CdnCollector::new(&world, window(), cfg);
            let (got, want) = (collector.collect(), collector.collect_with(false));
            assert_eq!(got.tuples, want.tuples, "noise {noise}");
            assert_eq!(
                (
                    got.raw_count,
                    got.discarded_as_mismatch,
                    got.discarded_unrouted
                ),
                (
                    want.raw_count,
                    want.discarded_as_mismatch,
                    want.discarded_unrouted
                ),
                "noise {noise}"
            );
            assert!(!got.is_empty());
            if noise == 0.5 {
                assert!(got.discarded_as_mismatch > 0);
            }
        }
    }
}
