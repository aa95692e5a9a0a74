//! Blocklist advisor: the paper's host-reputation application (Section 6).
//!
//! Given measured assignment dynamics for a network, recommend (a) how long
//! a bad actor's address can stay on a blocklist before it starts punishing
//! an innocent subscriber who inherited the address, and (b) the IPv6
//! prefix granularity to block so the actor can neither evade (too-specific
//! prefix) nor take out a whole pool of users (too-short prefix).
//!
//! ```sh
//! cargo run --release --example blocklist_advisor
//! ```

use dynamips::atlas::{AtlasCollector, AtlasConfig};
use dynamips::core::changes::sandwiched_durations;
use dynamips::core::durations::DurationSet;
use dynamips::core::sanitize::{sanitize_probe, SanitizeConfig, SanitizeOutcome, SanitizeReport};
use dynamips::core::stats::quantile;
use dynamips::core::subscriber::InferredLenDistribution;
use dynamips::netsim::profiles::{comcast, dtag, netcologne, orange, Era};
use dynamips::netsim::time::{SimTime, Window};
use dynamips::netsim::World;
use dynamips::routing::Asn;

struct NetworkAdvice {
    name: String,
    v4_ttl_hours: Option<f64>,
    v6_ttl_hours: Option<f64>,
    block_len: Option<u8>,
    evasion_risk: bool,
}

fn main() {
    let mut world = World::new(2020);
    world
        .add_isp(dtag(100, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(orange(100, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(comcast(100, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(netcologne(60, Era::Atlas))
        .expect("valid ISP profile");

    let window = Window::new(SimTime(0), SimTime(540 * 24));
    let collector = AtlasCollector::new(&world, window, AtlasConfig::pristine());
    let cfg = SanitizeConfig::default();
    let mut report = SanitizeReport::default();

    let mut per_as: std::collections::BTreeMap<
        Asn,
        (DurationSet, DurationSet, InferredLenDistribution),
    > = std::collections::BTreeMap::new();
    collector.for_each_probe(|series| {
        if let SanitizeOutcome::Clean(histories) =
            sanitize_probe(&series, world.routing(), &cfg, &mut report)
        {
            for h in histories {
                let entry = per_as.entry(h.asn).or_default();
                entry.0.extend(sandwiched_durations(&h.v4));
                entry.1.extend(sandwiched_durations(&h.v6));
                if h.v6.len() > 1 {
                    entry.2.add_probe(&h);
                }
            }
        }
    });

    let mut advice = Vec::new();
    for (asn, (v4, v6, inferred)) in &per_as {
        // TTL: the 25th percentile of assignment durations — beyond this,
        // one in four blocks would outlive the actor's tenancy of the
        // address and start hitting whoever gets it next.
        let p25 = |set: &DurationSet| {
            let v: Vec<f64> = set.raw().iter().map(|&d| d as f64).collect();
            quantile(&v, 0.25)
        };
        // Granularity: the modal inferred subscriber prefix length. If a
        // noticeable share of probes infer *shorter* prefixes than the
        // mode, blocking at the mode risks collateral damage; if the mode
        // is /64 (scrambling CPEs), a /64 block is evadable.
        let block_len = inferred.mode();
        let evasion_risk = inferred.percentage(64) > 20.0;
        advice.push(NetworkAdvice {
            name: world.registry().name_of(*asn),
            v4_ttl_hours: p25(v4),
            v6_ttl_hours: p25(v6),
            block_len,
            evasion_risk,
        });
    }

    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>14}",
        "network", "v4 TTL", "v6 TTL", "block pfx", "evasion risk"
    );
    println!("{}", "-".repeat(70));
    for a in advice {
        let fmt = |h: Option<f64>| match h {
            Some(h) if h >= 48.0 => format!("{:.1} days", h / 24.0),
            Some(h) => format!("{h:.0} hours"),
            None => "no changes".into(),
        };
        println!(
            "{:<12} {:>14} {:>14} {:>12} {:>14}",
            a.name,
            fmt(a.v4_ttl_hours),
            fmt(a.v6_ttl_hours),
            a.block_len.map(|l| format!("/{l}")).unwrap_or("-".into()),
            if a.evasion_risk {
                "yes (/64s rotate)"
            } else {
                "low"
            }
        );
    }
    println!(
        "\nReading: DTAG's 24-hour renumbering forces short blocklist TTLs,\n\
         while Comcast-like stability supports multi-week blocks. Netcologne\n\
         delegates whole /48s, so /48 is the subscriber-precise granularity\n\
         there — blocking /64s would be trivially evadable, and blocking\n\
         anything shorter than /48 hits multiple households."
    );
}
