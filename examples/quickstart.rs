//! Quickstart: simulate a DTAG-like ISP, observe it with Atlas-style
//! probes, run the analysis pipeline, and print what it recovers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dynamips::atlas::{AtlasCollector, AtlasConfig};
use dynamips::core::changes::sandwiched_durations;
use dynamips::core::durations::{detect_period, DurationSet};
use dynamips::core::sanitize::{sanitize_probe, SanitizeConfig, SanitizeOutcome, SanitizeReport};
use dynamips::core::subscriber::infer_subscriber_len;
use dynamips::netsim::profiles::{dtag, Era};
use dynamips::netsim::time::{SimTime, Window};
use dynamips::netsim::World;

fn main() {
    // 1. A synthetic Internet with one ISP: Deutsche Telekom as the paper
    //    characterizes it (24-hour renumbering, /56 delegations, a share of
    //    prefix-scrambling CPEs).
    let mut world = World::new(7);
    world
        .add_isp(dtag(120, Era::Atlas))
        .expect("valid ISP profile");

    // 2. Observe it for a year with hourly IP-echo measurements, including
    //    the deployment artifacts the sanitizer must remove.
    let window = Window::new(SimTime(0), SimTime(365 * 24));
    let collector = AtlasCollector::new(&world, window, AtlasConfig::default());

    // 3. Sanitize and analyze.
    let mut report = SanitizeReport::default();
    let mut v4 = DurationSet::new();
    let mut v6 = DurationSet::new();
    let mut inferred = [0u32; 65];
    let cfg = SanitizeConfig::default();
    collector.for_each_probe(|series| {
        match sanitize_probe(&series, world.routing(), &cfg, &mut report) {
            SanitizeOutcome::Clean(histories) => {
                for h in histories {
                    v4.extend(sandwiched_durations(&h.v4));
                    v6.extend(sandwiched_durations(&h.v6));
                    if h.v6.len() > 1 {
                        if let Some(len) = infer_subscriber_len(&h) {
                            inferred[len as usize] += 1;
                        }
                    }
                }
            }
            SanitizeOutcome::Rejected(reason) => {
                let _ = reason; // counted in `report`
            }
        }
    });

    println!("== sanitizer ==");
    println!(
        "probes in: {}, clean out: {}, multihomed: {}, atypical NAT: {}, \
         bad tags: {}, too short: {}",
        report.probes_in,
        report.probes_out,
        report.multihomed,
        report.atypical_nat,
        report.bad_tag,
        report.too_short
    );

    println!("\n== assignment durations ==");
    println!(
        "IPv4: {} sandwiched durations, {:.1} probe-years of assigned time",
        v4.len(),
        v4.total_hours() as f64 / (365.0 * 24.0)
    );
    if let Some(p) = detect_period(&v4, 0.05, 0.5) {
        println!(
            "  detected periodic renumbering: every {} hours ({:.0}% of durations)",
            p.period_hours,
            100.0 * p.duration_fraction
        );
    }
    if let Some(p) = detect_period(&v6, 0.05, 0.5) {
        println!(
            "IPv6: detected periodic renumbering: every {} hours ({:.0}% of durations)",
            p.period_hours,
            100.0 * p.duration_fraction
        );
    }

    println!("\n== inferred subscriber prefix lengths ==");
    let total: u32 = inferred.iter().sum();
    for (len, count) in inferred.iter().enumerate() {
        if *count > 0 {
            println!(
                "  /{len}: {count} probes ({:.0}%)",
                100.0 * *count as f64 / total as f64
            );
        }
    }
    println!(
        "\nDTAG's configured ground truth is /56 delegations; the /64\n\
         inferences come from CPEs that scramble the delegated bits,\n\
         exactly the ambiguity the paper reports for this ISP."
    );
}
