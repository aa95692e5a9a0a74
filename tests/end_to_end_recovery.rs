//! End-to-end ground-truth recovery: configure a mechanism in the
//! simulator, observe it through the Atlas layer, push it through the
//! sanitizer and the analyses, and check the *configured* value comes back
//! out. This is the core scientific property of the reproduction.

use dynamips::atlas::{AtlasCollector, AtlasConfig};
use dynamips::core::changes::sandwiched_durations;
use dynamips::core::durations::{detect_period, DurationSet};
use dynamips::core::sanitize::{sanitize_probe, SanitizeConfig, SanitizeOutcome, SanitizeReport};
use dynamips::core::spatial::CplHistogram;
use dynamips::core::subscriber::InferredLenDistribution;
use dynamips::netsim::config::{
    CpeV6Behavior, IspConfig, OutageConfig, SubscriberClass, V4Policy, V4PoolPlan, V6Policy,
    V6PoolPlan,
};
use dynamips::netsim::time::{SimTime, Window};
use dynamips::netsim::World;
use dynamips::routing::{AccessType, Asn, Rir};

fn isp(period_hours: u64, delegated_len: u8, cpe: CpeV6Behavior) -> IspConfig {
    IspConfig {
        asn: Asn(64500),
        name: "E2E".into(),
        country: "X".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(V4PoolPlan {
            pools: vec![("100.100.0.0/15".parse().unwrap(), 1.0)],
            announcements: vec![],
            p_near: 0.0,
            near_radius: 16,
        }),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec!["2001:db8::/32".parse().unwrap()],
            region_len: 40,
            delegated_len,
            regions_per_aggregate: 3,
            p_stay_region: 1.0,
        }),
        classes: vec![SubscriberClass {
            weight: 1.0,
            dual_stack: true,
            v4: Some(V4Policy::PeriodicRenumber {
                period_hours,
                jitter: 0.0,
            }),
            v6: Some(V6Policy::PeriodicRenumber {
                period_hours,
                jitter: 0.0,
            }),
            coupled: true,
            cpe_mix: vec![(1.0, cpe)],
            outages: OutageConfig::none(),
        }],
        stabilization: vec![],
        subscribers: 30,
    }
}

struct Recovered {
    v4_durations: DurationSet,
    v6_durations: DurationSet,
    inferred: InferredLenDistribution,
    cpl: CplHistogram,
    clean_probes: usize,
}

fn run_pipeline(cfg: IspConfig, seed: u64, days: u64) -> Recovered {
    let mut world = World::new(seed);
    world.add_isp(cfg).unwrap();
    let window = Window::new(SimTime(0), SimTime(days * 24));
    let collector = AtlasCollector::new(&world, window, AtlasConfig::pristine());
    let scfg = SanitizeConfig::default();
    let mut report = SanitizeReport::default();
    let mut out = Recovered {
        v4_durations: DurationSet::new(),
        v6_durations: DurationSet::new(),
        inferred: InferredLenDistribution::new(),
        cpl: CplHistogram::new(),
        clean_probes: 0,
    };
    collector.for_each_probe(|series| {
        if let SanitizeOutcome::Clean(histories) =
            sanitize_probe(&series, world.routing(), &scfg, &mut report)
        {
            for h in histories {
                out.clean_probes += 1;
                out.v4_durations.extend(sandwiched_durations(&h.v4));
                out.v6_durations.extend(sandwiched_durations(&h.v6));
                out.inferred.add_probe(&h);
                out.cpl.add_probe(&h);
            }
        }
    });
    out
}

#[test]
fn recovers_configured_24h_period_exactly() {
    let rec = run_pipeline(isp(24, 56, CpeV6Behavior::ZeroOut), 1, 120);
    assert!(rec.clean_probes >= 25);
    let p4 = detect_period(&rec.v4_durations, 0.02, 0.8).expect("v4 period detected");
    assert_eq!(p4.period_hours, 24);
    assert!(p4.duration_fraction > 0.95, "{p4:?}");
    let p6 = detect_period(&rec.v6_durations, 0.02, 0.8).expect("v6 period detected");
    assert_eq!(p6.period_hours, 24);
}

#[test]
fn recovers_configured_weekly_period() {
    let rec = run_pipeline(isp(168, 56, CpeV6Behavior::ZeroOut), 2, 400);
    let p4 = detect_period(&rec.v4_durations, 0.02, 0.8).expect("v4 period detected");
    assert_eq!(p4.period_hours, 168);
}

#[test]
fn recovers_configured_delegation_lengths() {
    for delegated in [48u8, 56, 60, 62] {
        let rec = run_pipeline(isp(24, delegated, CpeV6Behavior::ZeroOut), 3, 90);
        assert_eq!(
            rec.inferred.mode(),
            Some(delegated),
            "delegation /{delegated} must be recovered"
        );
        // And overwhelmingly so: a zero-out ISP leaves little ambiguity.
        assert!(
            rec.inferred.percentage(delegated) > 80.0,
            "/{delegated}: {:?}",
            rec.inferred.percentage(delegated)
        );
    }
}

#[test]
fn scrambling_cpes_defeat_delegation_inference() {
    let rec = run_pipeline(
        isp(
            24,
            56,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        4,
        90,
    );
    // The paper's DTAG /64 spike: scrambled bits make every probe infer /64
    // (or very close).
    let near_64: f64 = (62..=64).map(|l| rec.inferred.percentage(l)).sum();
    assert!(near_64 > 80.0, "{near_64}");
}

#[test]
fn cpl_bounded_below_by_region_when_pinned() {
    let rec = run_pipeline(isp(24, 56, CpeV6Behavior::ZeroOut), 5, 120);
    assert!(rec.cpl.total_changes() > 1000);
    for cpl in 0..40 {
        assert_eq!(
            rec.cpl.changes[cpl], 0,
            "no cross-region moves configured, but CPL /{cpl} seen"
        );
    }
    // Within-region draws share at least the /40; mass concentrates just
    // above it.
    assert!(rec.cpl.changes[40..48].iter().sum::<u64>() > 0);
}

#[test]
fn constant_nonzero_cpe_overestimates_subscriber_length() {
    let rec = run_pipeline(isp(24, 56, CpeV6Behavior::ConstantNonZero), 6, 90);
    // A CPE numbering its LAN from a constant non-zero index makes the
    // inference land strictly *longer* than the true /56 (the paper flags
    // exactly this failure mode).
    let mode = rec.inferred.mode().expect("some inference");
    assert!(mode > 56, "mode {mode} should overestimate /56");
}
