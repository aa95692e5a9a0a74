//! Policy explorer: sweep assignment policies on one synthetic ISP and show
//! how each mechanism shapes the observable duration distribution — the
//! mechanics behind the paper's Figure 1.
//!
//! ```sh
//! cargo run --release --example isp_policy_explorer
//! ```

use dynamips::core::changes::{sandwiched_durations, spans_of};
use dynamips::core::durations::{detect_period, DurationSet};
use dynamips::netsim::config::{
    CpeV6Behavior, IspConfig, OutageConfig, SubscriberClass, V4Policy, V4PoolPlan, V6Policy,
    V6PoolPlan,
};
use dynamips::netsim::sim::IspSimResult;
use dynamips::netsim::time::{SimTime, Window};
use dynamips::netsim::World;
use dynamips::routing::{AccessType, Asn, Rir};

/// Simulate one ISP configuration in a world of its own.
fn simulate(cfg: IspConfig, window: Window, seed: u64) -> IspSimResult {
    let asn = cfg.asn;
    let mut world = World::new(seed);
    world.add_isp(cfg).expect("valid ISP config");
    world.run_one(asn, window).expect("the ISP was just added")
}

fn isp_with(v4: V4Policy, outages: OutageConfig) -> IspConfig {
    IspConfig {
        asn: Asn(64500),
        name: "SweepNet".into(),
        country: "X".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(V4PoolPlan {
            pools: vec![("100.100.0.0/15".parse().unwrap(), 1.0)],
            announcements: vec![],
            p_near: 0.1,
            near_radius: 16,
        }),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec!["2001:db8::/32".parse().unwrap()],
            region_len: 40,
            delegated_len: 56,
            regions_per_aggregate: 4,
            p_stay_region: 0.99,
        }),
        classes: vec![SubscriberClass {
            weight: 1.0,
            dual_stack: true,
            v4: Some(v4),
            v6: Some(V6Policy::StableDelegation {
                valid_lifetime_hours: 14 * 24,
                maintenance_mean_hours: f64::INFINITY,
            }),
            coupled: false,
            cpe_mix: vec![(1.0, CpeV6Behavior::ZeroOut)],
            outages,
        }],
        stabilization: vec![],
        subscribers: 120,
    }
}

fn main() {
    let window = Window::new(SimTime(0), SimTime(365 * 24));
    let policies: Vec<(&str, V4Policy, OutageConfig)> = vec![
        (
            "RADIUS, 24h session timeout (DTAG-like)",
            V4Policy::PeriodicRenumber {
                period_hours: 24,
                jitter: 0.0,
            },
            OutageConfig::quiet(),
        ),
        (
            "RADIUS, 1-week session timeout (Orange-like)",
            V4Policy::PeriodicRenumber {
                period_hours: 168,
                jitter: 0.0,
            },
            OutageConfig::quiet(),
        ),
        (
            "RADIUS, 2-week session timeout (BT-like)",
            V4Policy::PeriodicRenumber {
                period_hours: 336,
                jitter: 0.0,
            },
            OutageConfig::quiet(),
        ),
        (
            "sticky DHCP, 96h lease, quiet outages (Comcast-like)",
            V4Policy::DhcpSticky { lease_hours: 96 },
            OutageConfig::quiet(),
        ),
        (
            "sticky DHCP, 96h lease, frequent long outages",
            V4Policy::DhcpSticky { lease_hours: 96 },
            OutageConfig {
                long_outage_mean_interval_hours: 45.0 * 24.0,
                long_outage_mean_duration_hours: 8.0 * 24.0,
                ..OutageConfig::quiet()
            },
        ),
    ];

    println!(
        "{:<52} {:>8} {:>10} {:>14} {:>12}",
        "policy", "changes", "TTF@1d", "TTF@1w", "period"
    );
    println!("{}", "-".repeat(100));
    for (label, policy, outages) in policies {
        let res = simulate(isp_with(policy, outages), window, 99);
        let mut set = DurationSet::new();
        let mut changes = 0usize;
        for tl in &res.timelines {
            // Re-derive durations from the ground-truth timeline the same
            // way the hourly-echo analysis would: spans of identical
            // observed addresses.
            let spans = spans_of(tl.v4.iter().map(|s| (s.start, s.addr)));
            changes += spans.len().saturating_sub(1);
            set.extend(sandwiched_durations(&spans));
        }
        let marks = set.cumulative_ttf_at(&[24, 168]);
        let period = detect_period(&set, 0.05, 0.5)
            .map(|p| format!("{}h", p.period_hours))
            .unwrap_or_else(|| "none".into());
        println!(
            "{:<52} {:>8} {:>10.2} {:>14.2} {:>12}",
            label, changes, marks[0], marks[1], period
        );
    }

    // Spatial side: how far do delegations move under region stickiness?
    println!("\nCPL between successive /64s under p_stay_region sweeps:");
    for p_stay in [1.0, 0.9, 0.5] {
        let mut cfg = isp_with(
            V4Policy::PeriodicRenumber {
                period_hours: 24,
                jitter: 0.0,
            },
            OutageConfig::quiet(),
        );
        cfg.classes[0].v6 = Some(V6Policy::PeriodicRenumber {
            period_hours: 24,
            jitter: 0.0,
        });
        cfg.v6_plan.as_mut().unwrap().p_stay_region = p_stay;
        let res = simulate(cfg, Window::new(SimTime(0), SimTime(120 * 24)), 5);
        let mut cpls: Vec<u8> = Vec::new();
        for tl in &res.timelines {
            let spans = spans_of(tl.v6.iter().map(|s| (s.start, s.lan64)));
            for pair in spans.windows(2) {
                cpls.push(dynamips::netaddr::common_prefix_len_v6(
                    &pair[0].value,
                    &pair[1].value,
                ));
            }
        }
        cpls.sort_unstable();
        let within_region = cpls.iter().filter(|&&c| c >= 40).count();
        let median = cpls[cpls.len() / 2];
        println!(
            "  p_stay_region={p_stay:>4}: {:>6} changes, median CPL /{median}, {:>5.1}% within the /40 region",
            cpls.len(),
            100.0 * within_region as f64 / cpls.len() as f64
        );
    }
}
