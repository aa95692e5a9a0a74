//! Anonymization auditor: the paper's privacy application (Section 6).
//!
//! A common "anonymization" for shared IPv6 datasets is truncation to a
//! fixed prefix length (Google Analytics truncates to /48). The paper shows
//! this is fallacious: Netcologne delegates entire /48s to single
//! subscribers, so a "/48-anonymized" record still identifies one
//! household. This example audits truncation lengths against the simulated
//! ground truth: for each ISP and candidate truncation length, how many
//! *distinct subscribers* fall into one truncated prefix?
//!
//! ```sh
//! cargo run --release --example anonymization_auditor
//! ```

use dynamips::netsim::profiles::{dtag, kabel_de, netcologne, orange, Era};
use dynamips::netsim::time::{SimTime, Window};
use dynamips::netsim::World;
#[allow(
    clippy::disallowed_types,
    reason = "only bucket sizes leave, sorted below"
)]
use std::collections::HashMap;

fn main() {
    let mut world = World::new(4941);
    world
        .add_isp(dtag(400, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(orange(400, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(netcologne(400, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(kabel_de(400, Era::Atlas))
        .expect("valid ISP profile");

    let window = Window::new(SimTime(0), SimTime(60 * 24));
    let candidate_lens = [40u8, 44, 48, 52, 56];

    println!("median distinct subscribers per truncated prefix (60-day snapshot):\n");
    print!("{:<12}", "network");
    for len in candidate_lens {
        print!(" {:>8}", format!("/{len}"));
    }
    println!("  safe truncation");
    println!("{}", "-".repeat(70));

    world.run_each(window, |result| {
        let mut row = format!("{:<12}", result.config.name);
        let mut safe: Option<u8> = None;
        for len in candidate_lens {
            // Count subscribers per truncated prefix, over every /64 each
            // subscriber was delegated during the window.
            #[allow(
                clippy::disallowed_types,
                reason = "only bucket sizes leave, sorted below"
            )]
            let mut subs_per_prefix: HashMap<u128, std::collections::HashSet<u32>> = HashMap::new();
            for tl in &result.timelines {
                for seg in &tl.v6 {
                    let trunc = seg.lan64.supernet(len).expect("len <= 64");
                    subs_per_prefix
                        .entry(trunc.bits())
                        .or_default()
                        .insert(tl.id.index);
                }
            }
            if subs_per_prefix.is_empty() {
                row.push_str(&format!(" {:>8}", "-"));
                continue;
            }
            let mut counts: Vec<usize> = subs_per_prefix.values().map(|s| s.len()).collect();
            counts.sort_unstable();
            let median = counts[counts.len() / 2];
            row.push_str(&format!(" {median:>8}"));
            // "Safe" = the typical truncated prefix aggregates a crowd
            // (k-anonymity with k >= 20), and so does the minimum.
            if safe.is_none() && median >= 20 && counts[0] >= 2 {
                safe = Some(len);
            }
        }
        println!(
            "{row}  {}",
            safe.map(|l| format!("<= /{l}"))
                .unwrap_or_else(|| "none of the candidates".into())
        );
    });

    println!(
        "\nReading: DTAG /48 buckets aggregate several subscribers (many\n\
         more at real population scale), but for Netcologne a /48 *is* one\n\
         subscriber — and low-churn networks like Orange spread this small\n\
         simulated population so thin that no candidate is safe at all.\n\
         Truncation must be per-network, informed by the delegation lengths\n\
         and pool boundaries the DynamIPs analysis infers, not a global\n\
         constant."
    );
}
