//! Property-based tests: for arbitrary (valid) ISP configurations, the
//! simulator's ground truth must satisfy its structural invariants.

use dynamips_netsim::config::{
    CpeV6Behavior, IspConfig, OutageConfig, SubscriberClass, V4Policy, V4PoolPlan, V6Policy,
    V6PoolPlan,
};
use dynamips_netsim::sim::IspSimResult;
use dynamips_netsim::time::{SimTime, Window};
use dynamips_netsim::World;
use dynamips_routing::{AccessType, Asn, Rir};
use proptest::prelude::*;

/// Simulate one ISP through a one-ISP world, the only way in.
fn simulate(cfg: IspConfig, window: Window, seed: u64) -> IspSimResult {
    let asn = cfg.asn;
    let mut world = World::new(seed);
    world.add_isp(cfg).unwrap();
    world.run_one(asn, window).unwrap()
}

fn arb_v4_policy() -> impl Strategy<Value = V4Policy> {
    prop_oneof![
        (12u64..400).prop_map(|p| V4Policy::PeriodicRenumber {
            period_hours: p,
            jitter: 0.02,
        }),
        (24u64..300).prop_map(|lease_hours| V4Policy::DhcpSticky { lease_hours }),
        Just(V4Policy::CgnatShared {
            rebind_prob: 0.2,
            check_interval_hours: 48.0,
        }),
    ]
}

fn arb_v6_policy() -> impl Strategy<Value = V6Policy> {
    prop_oneof![
        (12u64..400).prop_map(|p| V6Policy::PeriodicRenumber {
            period_hours: p,
            jitter: 0.02,
        }),
        (48u64..1000).prop_map(|v| V6Policy::StableDelegation {
            valid_lifetime_hours: v,
            maintenance_mean_hours: 1000.0,
        }),
        Just(V6Policy::SessionBased {
            mean_session_hours: 10.0,
            tail_prob: 0.2,
            tail_max_hours: 500.0,
        }),
    ]
}

fn arb_cpe() -> impl Strategy<Value = CpeV6Behavior> {
    prop_oneof![
        Just(CpeV6Behavior::ZeroOut),
        Just(CpeV6Behavior::Scramble {
            rotate_every_hours: None,
        }),
        Just(CpeV6Behavior::Scramble {
            rotate_every_hours: Some(48),
        }),
        Just(CpeV6Behavior::ConstantNonZero),
    ]
}

#[derive(Debug, Clone)]
struct ArbIsp {
    cfg: IspConfig,
    seed: u64,
    days: u64,
}

fn arb_isp() -> impl Strategy<Value = ArbIsp> {
    (
        arb_v4_policy(),
        arb_v6_policy(),
        arb_cpe(),
        40u8..=60,     // region length
        0u8..=8,       // delegated = region + extra, capped at 64
        any::<bool>(), // coupled
        any::<bool>(), // outages on/off
        1u64..10_000,  // seed
        20u64..90,     // days
    )
        .prop_map(
            |(v4, v6, cpe, region_len, extra, coupled, outages, seed, days)| {
                let delegated_len = (region_len + extra).min(64);
                let cfg = IspConfig {
                    asn: Asn(64500),
                    name: "PropNet".into(),
                    country: "X".into(),
                    rir: Rir::RipeNcc,
                    access: AccessType::FixedLine,
                    v4_plan: Some(V4PoolPlan {
                        pools: vec![
                            ("10.0.0.0/13".parse().unwrap(), 0.6),
                            ("172.16.0.0/14".parse().unwrap(), 0.4),
                        ],
                        announcements: vec![],
                        p_near: 0.2,
                        near_radius: 16,
                    }),
                    v6_plan: Some(V6PoolPlan {
                        aggregates: vec!["2001:db8::/32".parse().unwrap()],
                        region_len,
                        delegated_len,
                        regions_per_aggregate: 3,
                        p_stay_region: 0.9,
                    }),
                    classes: vec![SubscriberClass {
                        weight: 1.0,
                        dual_stack: true,
                        v4: Some(v4),
                        v6: Some(v6),
                        coupled,
                        cpe_mix: vec![(1.0, cpe)],
                        outages: if outages {
                            OutageConfig {
                                cpe_outage_mean_interval_hours: 200.0,
                                cpe_outage_mean_duration_hours: 2.0,
                                long_outage_mean_interval_hours: 900.0,
                                long_outage_mean_duration_hours: 72.0,
                                infra_outage_mean_interval_hours: 1500.0,
                                admin_renumber_mean_interval_hours: 1500.0,
                            }
                        } else {
                            OutageConfig::none()
                        },
                    }],
                    stabilization: vec![],
                    subscribers: 12,
                };
                ArbIsp { cfg, seed, days }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulated_timelines_satisfy_structural_invariants(input in arb_isp()) {
        let window = Window::new(SimTime(0), SimTime(input.days * 24));
        let aggregates = input.cfg.v6_plan.as_ref().unwrap().aggregates.clone();
        let v4_pools: Vec<dynamips_netaddr::Ipv4Prefix> = input
            .cfg
            .v4_plan
            .as_ref()
            .unwrap()
            .pools
            .iter()
            .map(|(p, _)| *p)
            .collect();
        let delegated_len = input.cfg.v6_plan.as_ref().unwrap().delegated_len;
        let result = simulate(input.cfg, window, input.seed);

        prop_assert_eq!(result.timelines.len(), 12);
        for tl in &result.timelines {
            // Ordering/overlap invariants.
            prop_assert!(tl.check_invariants().is_ok());
            for seg in &tl.v4 {
                // Every address comes from a configured pool.
                prop_assert!(
                    v4_pools.iter().any(|p| p.contains(seg.addr)),
                    "{} outside pools", seg.addr
                );
                // Segments stay within the window.
                prop_assert!(seg.start >= window.start && seg.end <= window.end);
            }
            for seg in &tl.v6 {
                prop_assert_eq!(seg.delegated.len(), delegated_len);
                prop_assert!(
                    aggregates.iter().any(|a| a.contains_prefix(&seg.delegated)),
                    "{} outside aggregates", seg.delegated
                );
                prop_assert!(
                    seg.delegated.contains_prefix(&seg.lan64),
                    "lan64 {} outside delegation {}", seg.lan64, seg.delegated
                );
                prop_assert_eq!(seg.lan64.len(), 64);
                prop_assert!(seg.start >= window.start && seg.end <= window.end);
            }
        }

        // No two subscribers hold the same exclusive v4 address at the same
        // time (CGNAT shares by design, so skip it there).
        let cgnat = result.timelines.iter().any(|t| t.v4.iter().any(|s| s.cgnat));
        if !cgnat {
            for probe_hour in [window.hours() / 4, window.hours() / 2] {
                let t = SimTime(window.start.hours() + probe_hour);
                #[allow(clippy::disallowed_types, reason = "test: membership test only")]
                let mut held = std::collections::HashSet::new();
                for tl in &result.timelines {
                    if let Some(seg) = tl.v4_at(t) {
                        prop_assert!(
                            held.insert(seg.addr),
                            "duplicate exclusive address {} at {t:?}", seg.addr
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simulation_is_deterministic(input in arb_isp()) {
        let window = Window::new(SimTime(0), SimTime(input.days * 24));
        let run = |cfg: IspConfig| {
            simulate(cfg, window, input.seed)
                .timelines
                .iter()
                .flat_map(|t| {
                    t.v6
                        .iter()
                        .map(|s| (s.start, s.lan64))
                        .chain(std::iter::once((
                            SimTime(t.v4.len() as u64),
                            "::/64".parse().unwrap(),
                        )))
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(input.cfg.clone()), run(input.cfg));
    }
}
