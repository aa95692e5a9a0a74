//! Behavioural tests: the simulator must exhibit exactly the mechanisms the
//! paper attributes to real ISPs, because the analysis pipeline's job is to
//! recover them.

use dynamips_netaddr::trailing_zero_bits_v6;
use dynamips_netsim::config::{
    CpeV6Behavior, IspConfig, OutageConfig, SubscriberClass, V4Policy, V4PoolPlan, V6Policy,
    V6PoolPlan,
};
use dynamips_netsim::sim::IspSimResult;
use dynamips_netsim::time::{SimTime, Window};
use dynamips_netsim::World;
use dynamips_routing::{AccessType, Asn, Rir};

fn base_isp() -> IspConfig {
    IspConfig {
        asn: Asn(64500),
        name: "TestNet".into(),
        country: "X".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(V4PoolPlan {
            pools: vec![
                ("10.0.0.0/12".parse().unwrap(), 0.7),
                ("172.16.0.0/13".parse().unwrap(), 0.3),
            ],
            announcements: vec![],
            p_near: 0.0,
            near_radius: 256,
        }),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec!["2001:db8::/32".parse().unwrap()],
            region_len: 40,
            delegated_len: 56,
            regions_per_aggregate: 4,
            p_stay_region: 1.0,
        }),
        classes: vec![],
        stabilization: vec![],
        subscribers: 40,
    }
}

fn dual_class(v4: V4Policy, v6: V6Policy, coupled: bool, cpe: CpeV6Behavior) -> SubscriberClass {
    SubscriberClass {
        weight: 1.0,
        dual_stack: true,
        v4: Some(v4),
        v6: Some(v6),
        coupled,
        cpe_mix: vec![(1.0, cpe)],
        outages: OutageConfig::none(),
    }
}

fn window_days(days: u64) -> Window {
    Window::new(SimTime(0), SimTime(days * 24))
}

/// Simulate one ISP through a one-ISP world, the only way in.
fn simulate(cfg: IspConfig, window: Window, seed: u64) -> IspSimResult {
    let asn = cfg.asn;
    let mut world = World::new(seed);
    world.add_isp(cfg).unwrap();
    world.run_one(asn, window).unwrap()
}

#[test]
fn periodic_policy_produces_exact_periods() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        V6Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        true,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(60), 1);
    for tl in &res.timelines {
        tl.check_invariants().unwrap();
        // Interior segments (sandwiched between changes) last exactly 24h.
        for seg in &tl.v4[1..tl.v4.len().saturating_sub(1)] {
            assert_eq!(seg.end - seg.start, 24, "v4 {seg:?}");
        }
        for seg in &tl.v6[1..tl.v6.len().saturating_sub(1)] {
            assert_eq!(seg.end - seg.start, 24, "v6 {seg:?}");
        }
        // ~59 changes over 60 days.
        assert!(
            tl.v4_changes() >= 57 && tl.v4_changes() <= 60,
            "{}",
            tl.v4_changes()
        );
    }
}

#[test]
fn sticky_policy_without_outages_never_changes() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::DhcpSticky { lease_hours: 24 },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 24 * 14,
            maintenance_mean_hours: f64::INFINITY,
        },
        false,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(365), 2);
    for tl in &res.timelines {
        assert_eq!(tl.v4.len(), 1, "one v4 segment for the whole year");
        assert_eq!(tl.v6.len(), 1, "one v6 segment for the whole year");
        assert_eq!(tl.v4[0].end - tl.v4[0].start, 365 * 24);
    }
}

#[test]
fn coupled_changes_are_simultaneous() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        V6Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        true,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(30), 3);
    for tl in &res.timelines {
        let v4_starts: Vec<_> = tl.v4.iter().skip(1).map(|s| s.start).collect();
        let v6_starts: Vec<_> = tl.v6.iter().skip(1).map(|s| s.start).collect();
        assert_eq!(v4_starts, v6_starts, "coupled renumbering must co-occur");
    }
}

#[test]
fn uncoupled_periodic_families_change_independently() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        V6Policy::PeriodicRenumber {
            period_hours: 36,
            jitter: 0.0,
        },
        false,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(60), 4);
    let mut cooccur = 0usize;
    let mut total = 0usize;
    for tl in &res.timelines {
        #[allow(clippy::disallowed_types, reason = "test: cardinality only")]
        let v6_starts: std::collections::HashSet<_> =
            tl.v6.iter().skip(1).map(|s| s.start).collect();
        for seg in tl.v4.iter().skip(1) {
            total += 1;
            if v6_starts.contains(&seg.start) {
                cooccur += 1;
            }
        }
    }
    // Random phases: most v4 changes should not coincide with v6 changes.
    assert!(total > 100);
    assert!((cooccur as f64) < 0.2 * total as f64, "{cooccur}/{total}");
}

#[test]
fn zero_out_cpe_exposes_delegation_boundary() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::DhcpSticky { lease_hours: 24 },
        V6Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        false,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(30), 5);
    for tl in &res.timelines {
        for seg in &tl.v6 {
            // /56 delegation, zeroed /64 announcement: ≥ 8 trailing zeros.
            assert!(trailing_zero_bits_v6(&seg.lan64) >= 8, "{}", seg.lan64);
            assert_eq!(seg.delegated.len(), 56);
            assert!(seg.delegated.contains_prefix(&seg.lan64));
        }
    }
}

#[test]
fn scramble_cpe_hides_delegation_boundary() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::DhcpSticky { lease_hours: 24 },
        V6Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        false,
        CpeV6Behavior::Scramble {
            rotate_every_hours: None,
        },
    )];
    let res = simulate(cfg, window_days(60), 6);
    let mut nonzero = 0usize;
    let mut total = 0usize;
    for tl in &res.timelines {
        for seg in &tl.v6 {
            total += 1;
            if trailing_zero_bits_v6(&seg.lan64) < 8 {
                nonzero += 1;
            }
            assert!(seg.delegated.contains_prefix(&seg.lan64));
        }
    }
    // A random 8-bit suffix is zero with probability 1/256.
    assert!(nonzero as f64 > 0.9 * total as f64, "{nonzero}/{total}");
}

#[test]
fn rotating_scramble_changes_lan64_within_same_delegation() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::DhcpSticky { lease_hours: 24 },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 24 * 30,
            maintenance_mean_hours: f64::INFINITY,
        },
        false,
        CpeV6Behavior::Scramble {
            rotate_every_hours: Some(24),
        },
    )];
    let res = simulate(cfg, window_days(30), 7);
    for tl in &res.timelines {
        assert!(tl.v6.len() > 20, "daily rotations expected");
        for pair in tl.v6.windows(2) {
            assert_eq!(
                pair[0].delegated, pair[1].delegated,
                "delegation must stay fixed while the /64 rotates"
            );
            assert_ne!(pair[0].lan64, pair[1].lan64);
        }
    }
}

#[test]
fn delegations_stay_within_home_region_when_p_stay_is_one() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::DhcpSticky { lease_hours: 24 },
        V6Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        false,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(90), 8);
    let regions = &res.ground_truth.regions;
    for tl in &res.timelines {
        #[allow(clippy::disallowed_types, reason = "test: cardinality only")]
        let homes: std::collections::HashSet<_> = tl
            .v6
            .iter()
            .map(|seg| {
                regions
                    .iter()
                    .position(|r| r.contains_prefix(&seg.delegated))
                    .expect("delegation inside some region")
            })
            .collect();
        assert_eq!(homes.len(), 1, "p_stay_region = 1.0 pins the region");
    }
}

#[test]
fn short_outage_keeps_sticky_address_long_outage_renumbers() {
    let mut cfg = base_isp();
    let mut class = dual_class(
        V4Policy::DhcpSticky { lease_hours: 48 },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 48,
            maintenance_mean_hours: f64::INFINITY,
        },
        false,
        CpeV6Behavior::ZeroOut,
    );
    // Frequent short reboots (well under the 48h lease), no long outages.
    class.outages = OutageConfig {
        cpe_outage_mean_interval_hours: 10.0 * 24.0,
        cpe_outage_mean_duration_hours: 1.0,
        long_outage_mean_interval_hours: f64::INFINITY,
        long_outage_mean_duration_hours: 1.0,
        infra_outage_mean_interval_hours: f64::INFINITY,
        admin_renumber_mean_interval_hours: f64::INFINITY,
    };
    cfg.classes = vec![class];
    let res = simulate(cfg.clone(), window_days(120), 9);
    for tl in &res.timelines {
        assert_eq!(
            tl.v4_changes(),
            0,
            "short reboots must not renumber sticky DHCP"
        );
        assert_eq!(tl.v6_changes(), 0);
    }

    // Now long outages that exceed the lease.
    let mut class = dual_class(
        V4Policy::DhcpSticky { lease_hours: 48 },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 48,
            maintenance_mean_hours: f64::INFINITY,
        },
        false,
        CpeV6Behavior::ZeroOut,
    );
    class.outages = OutageConfig {
        cpe_outage_mean_interval_hours: f64::INFINITY,
        cpe_outage_mean_duration_hours: 1.0,
        long_outage_mean_interval_hours: 30.0 * 24.0,
        long_outage_mean_duration_hours: 10.0 * 24.0,
        infra_outage_mean_interval_hours: f64::INFINITY,
        admin_renumber_mean_interval_hours: f64::INFINITY,
    };
    cfg.classes = vec![class];
    let res = simulate(cfg, window_days(240), 10);
    let total_changes: usize = res.timelines.iter().map(|t| t.v4_changes()).sum();
    assert!(
        total_changes > 30,
        "lease-exceeding outages must renumber: {total_changes}"
    );
}

#[test]
fn cgnat_subscribers_share_public_addresses() {
    let mut cfg = base_isp();
    cfg.access = AccessType::Cellular;
    cfg.v4_plan = Some(V4PoolPlan {
        pools: vec![("100.64.0.0/26".parse().unwrap(), 1.0)],
        announcements: vec![],
        p_near: 0.0,
        near_radius: 0,
    });
    cfg.subscribers = 300;
    cfg.classes = vec![dual_class(
        V4Policy::CgnatShared {
            rebind_prob: 0.15,
            check_interval_hours: 48.0,
        },
        V6Policy::SessionBased {
            mean_session_hours: 16.0,
            tail_prob: 0.25,
            tail_max_hours: 30.0 * 24.0,
        },
        true,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(60), 11);
    // 300 subscribers behind 64 public addresses: sharing is inevitable.
    #[allow(
        clippy::disallowed_types,
        reason = "test: membership test and cardinality only"
    )]
    let mut addrs = std::collections::HashSet::new();
    let mut sessions = 0usize;
    for tl in &res.timelines {
        for seg in &tl.v4 {
            assert!(seg.cgnat);
            addrs.insert(seg.addr);
        }
        sessions += tl.v6.len();
    }
    assert!(addrs.len() <= 64);
    assert!(
        sessions > 300 * 10,
        "heavy session churn expected: {sessions}"
    );
}

#[test]
fn mobile_sessions_are_heavy_tailed() {
    let mut cfg = base_isp();
    cfg.access = AccessType::Cellular;
    cfg.subscribers = 200;
    cfg.classes = vec![dual_class(
        V4Policy::CgnatShared {
            rebind_prob: 0.15,
            check_interval_hours: 48.0,
        },
        V6Policy::SessionBased {
            mean_session_hours: 16.0,
            tail_prob: 0.25,
            tail_max_hours: 30.0 * 24.0,
        },
        true,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(152), 12);
    let mut durations: Vec<u64> = Vec::new();
    for tl in &res.timelines {
        for seg in &tl.v6[1..tl.v6.len().saturating_sub(1)] {
            durations.push(seg.end - seg.start);
        }
    }
    durations.sort_unstable();
    let short = durations.iter().filter(|&&d| d <= 24).count() as f64;
    assert!(
        short / durations.len() as f64 > 0.5,
        "majority of mobile sessions ≤ 1 day"
    );
    assert!(
        *durations.last().unwrap() > 7 * 24,
        "tail reaching past a week"
    );
}

#[test]
fn infra_outages_renumber_the_whole_region() {
    let mut cfg = base_isp();
    let mut class = dual_class(
        V4Policy::DhcpSticky {
            lease_hours: 24 * 30,
        },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 24 * 30,
            maintenance_mean_hours: f64::INFINITY,
        },
        false,
        CpeV6Behavior::ZeroOut,
    );
    class.outages = OutageConfig {
        cpe_outage_mean_interval_hours: f64::INFINITY,
        cpe_outage_mean_duration_hours: 1.0,
        long_outage_mean_interval_hours: f64::INFINITY,
        long_outage_mean_duration_hours: 1.0,
        infra_outage_mean_interval_hours: 100.0 * 24.0,
        admin_renumber_mean_interval_hours: f64::INFINITY,
    };
    cfg.classes = vec![class];
    cfg.subscribers = 60;
    let res = simulate(cfg, window_days(365), 13);
    let total_v4: usize = res.timelines.iter().map(|t| t.v4_changes()).sum();
    let total_v6: usize = res.timelines.iter().map(|t| t.v6_changes()).sum();
    assert!(
        total_v4 > 30,
        "infra outages must cause v4 changes: {total_v4}"
    );
    assert!(
        total_v6 > 30,
        "infra outages must cause v6 changes: {total_v6}"
    );
}

#[test]
fn near_reassignment_keeps_addresses_in_the_same_slash24() {
    let mut cfg = base_isp();
    cfg.v4_plan = Some(V4PoolPlan {
        pools: vec![("10.0.0.0/12".parse().unwrap(), 1.0)],
        announcements: vec![],
        p_near: 1.0,
        near_radius: 100,
    });
    cfg.classes = vec![dual_class(
        V4Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 24 * 30,
            maintenance_mean_hours: f64::INFINITY,
        },
        false,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(60), 14);
    let mut same24 = 0usize;
    let mut total = 0usize;
    for tl in &res.timelines {
        for pair in tl.v4.windows(2) {
            total += 1;
            let a = dynamips_netaddr::Ipv4Prefix::slash24_of(pair[0].addr);
            let b = dynamips_netaddr::Ipv4Prefix::slash24_of(pair[1].addr);
            if a == b {
                same24 += 1;
            }
        }
    }
    // Radius 100 around a uniformly-placed address stays in the /24 more
    // than half the time.
    assert!(
        same24 as f64 > 0.5 * total as f64,
        "near reassignment should stay local: {same24}/{total}"
    );
}

#[test]
fn stable_delegation_maintenance_renumbers_v6_independently() {
    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::DhcpSticky { lease_hours: 48 },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 24 * 30,
            maintenance_mean_hours: 40.0 * 24.0,
        },
        false,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(365), 21);
    let v4: usize = res.timelines.iter().map(|t| t.v4_changes()).sum();
    let v6: usize = res.timelines.iter().map(|t| t.v6_changes()).sum();
    assert_eq!(v4, 0, "no outages: sticky v4 never changes");
    // ~9 maintenance renumberings per subscriber-year.
    assert!(v6 > 40 * 5, "maintenance must drive v6 changes: {v6}");
    // And each one lands in a fresh delegation.
    for tl in &res.timelines {
        for pair in tl.v6.windows(2) {
            assert_ne!(pair[0].delegated, pair[1].delegated);
        }
    }
}

#[test]
fn cgnat_mapping_checks_rebind_mid_session() {
    let mut cfg = base_isp();
    cfg.access = AccessType::Cellular;
    cfg.v4_plan = Some(V4PoolPlan {
        pools: vec![("100.64.0.0/23".parse().unwrap(), 1.0)],
        announcements: vec![],
        p_near: 0.0,
        near_radius: 0,
    });
    cfg.subscribers = 60;
    cfg.classes = vec![dual_class(
        V4Policy::CgnatShared {
            rebind_prob: 0.5,
            check_interval_hours: 24.0,
        },
        // Very long sessions: the /64 never changes, so any public-v4
        // change must come from a mid-session mapping check.
        V6Policy::SessionBased {
            mean_session_hours: 24.0 * 400.0,
            tail_prob: 0.0,
            tail_max_hours: 24.0 * 400.0,
        },
        true,
        CpeV6Behavior::ZeroOut,
    )];
    let res = simulate(cfg, window_days(60), 22);
    let v4: usize = res.timelines.iter().map(|t| t.v4_changes()).sum();
    let v6: usize = res.timelines.iter().map(|t| t.v6_changes()).sum();
    assert!(v6 < 60, "sessions outlive the window for most subscribers");
    assert!(
        v4 > 60 * 10,
        "mapping checks must rebind public addresses mid-session: {v4}"
    );
}

#[test]
fn dual_stack_flag_propagates_to_timelines() {
    let mut cfg = base_isp();
    cfg.classes = vec![
        SubscriberClass {
            weight: 0.5,
            dual_stack: false,
            v4: Some(V4Policy::DhcpSticky { lease_hours: 24 }),
            v6: None,
            coupled: false,
            cpe_mix: vec![],
            outages: OutageConfig::none(),
        },
        dual_class(
            V4Policy::DhcpSticky { lease_hours: 24 },
            V6Policy::StableDelegation {
                valid_lifetime_hours: 24 * 14,
                maintenance_mean_hours: f64::INFINITY,
            },
            false,
            CpeV6Behavior::ZeroOut,
        ),
    ];
    cfg.subscribers = 100;
    let res = simulate(cfg, window_days(30), 15);
    for tl in &res.timelines {
        if tl.dual_stack {
            assert!(!tl.v6.is_empty());
        } else {
            assert!(tl.v6.is_empty(), "non-dual-stack must have no v6 history");
        }
        assert!(!tl.v4.is_empty());
    }
    let ds = res.timelines.iter().filter(|t| t.dual_stack).count();
    assert!(ds > 25 && ds < 75);
}

#[test]
fn world_refuses_invalid_configs() {
    let mut cfg = base_isp();
    cfg.classes = vec![]; // no subscriber classes
    let err = World::new(1).add_isp(cfg).unwrap_err();
    assert!(err.contains("no subscriber classes"), "{err}");

    let mut cfg = base_isp();
    cfg.classes = vec![dual_class(
        V4Policy::DhcpSticky { lease_hours: 24 },
        V6Policy::StableDelegation {
            valid_lifetime_hours: 24,
            maintenance_mean_hours: f64::INFINITY,
        },
        false,
        CpeV6Behavior::ZeroOut,
    )];
    assert!(World::new(1).add_isp(cfg).is_ok());
}

#[test]
fn stabilization_migrates_lines_to_the_stable_class() {
    use dynamips_netsim::config::Stabilization;
    let mut cfg = base_isp();
    cfg.classes = vec![
        dual_class(
            V4Policy::PeriodicRenumber {
                period_hours: 24,
                jitter: 0.0,
            },
            V6Policy::PeriodicRenumber {
                period_hours: 24,
                jitter: 0.0,
            },
            true,
            CpeV6Behavior::ZeroOut,
        ),
        dual_class(
            V4Policy::DhcpSticky { lease_hours: 48 },
            V6Policy::StableDelegation {
                valid_lifetime_hours: 24 * 30,
                maintenance_mean_hours: f64::INFINITY,
            },
            false,
            CpeV6Behavior::ZeroOut,
        ),
    ];
    cfg.classes[0].weight = 0.999;
    cfg.classes[1].weight = 0.001;
    cfg.stabilization = vec![Stabilization {
        from_class: 0,
        to_class: 1,
        mean_hours: 60.0 * 24.0, // fast conversion relative to the window
    }];
    cfg.subscribers = 60;
    let res = simulate(cfg, window_days(400), 31);
    // Early window: daily changes; late window: essentially none.
    let mut early = 0usize;
    let mut late = 0usize;
    let mid = SimTime(200 * 24);
    for tl in &res.timelines {
        for pair in tl.v4.windows(2) {
            if pair[0].addr != pair[1].addr {
                if pair[1].start < mid {
                    early += 1;
                } else {
                    late += 1;
                }
            }
        }
    }
    assert!(early > 50 * 60, "daily churn before conversion: {early}");
    assert!(
        (late as f64) < 0.1 * early as f64,
        "churn must collapse after stabilization: early {early}, late {late}"
    );
    // Conversions must not themselves renumber: no address change at the
    // instant a line stabilizes... verified implicitly by the collapse in
    // churn without a corresponding spike.
}

#[test]
fn stabilization_can_bring_ipv6_to_v4_only_lines() {
    use dynamips_netsim::config::Stabilization;
    let mut cfg = base_isp();
    cfg.classes = vec![
        SubscriberClass {
            weight: 0.999,
            dual_stack: false,
            v4: Some(V4Policy::DhcpSticky { lease_hours: 48 }),
            v6: None,
            coupled: false,
            cpe_mix: vec![],
            outages: OutageConfig::none(),
        },
        dual_class(
            V4Policy::DhcpSticky { lease_hours: 48 },
            V6Policy::StableDelegation {
                valid_lifetime_hours: 24 * 30,
                maintenance_mean_hours: f64::INFINITY,
            },
            false,
            CpeV6Behavior::ZeroOut,
        ),
    ];
    cfg.classes[1].weight = 0.001;
    cfg.stabilization = vec![Stabilization {
        from_class: 0,
        to_class: 1,
        mean_hours: 100.0 * 24.0,
    }];
    cfg.subscribers = 50;
    let res = simulate(cfg, window_days(400), 32);
    let gained_v6 = res
        .timelines
        .iter()
        .filter(|t| !t.v6.is_empty() && t.v6[0].start > SimTime(0))
        .count();
    assert!(
        gained_v6 > 20,
        "many v4-only lines must gain a delegation mid-window: {gained_v6}"
    );
    // Delegations acquired at conversion are well-formed.
    for tl in &res.timelines {
        tl.check_invariants().unwrap();
        for seg in &tl.v6 {
            assert!(seg.delegated.contains_prefix(&seg.lan64));
        }
    }
}
