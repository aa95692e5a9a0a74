//! Hitlist scoper: the paper's active-probing application (Sections 5.2 and
//! 6). A measurement target (a device with a stable EUI-64 IID) vanishes
//! when its network renumbers; how many /64s must a scanner search to find
//! it again? The answer is the pool structure the spatial analysis
//! recovers: CPLs between successive assignments bound the search space.
//!
//! ```sh
//! cargo run --release --example hitlist_scoper
//! ```

use dynamips::core::changes::{spans_of, ProbeHistory};
use dynamips::core::subscriber::infer_subscriber_len_mode;
use dynamips::netaddr::common_prefix_len_v6;
use dynamips::netsim::profiles::{bt, comcast, dtag, lgi, orange, Era};
use dynamips::netsim::time::{SimTime, Window};
use dynamips::netsim::World;

fn main() {
    let mut world = World::new(60926);
    world
        .add_isp(dtag(150, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(orange(150, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(comcast(150, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(lgi(150, Era::Atlas))
        .expect("valid ISP profile");
    world
        .add_isp(bt(150, Era::Atlas))
        .expect("valid ISP profile");

    let window = Window::new(SimTime(0), SimTime(540 * 24));
    println!(
        "{:<10} {:>9} {:>12} {:>14} {:>22} {:>16}",
        "network", "changes", "p10 CPL", "subscr. pfx", "search space (/64s)", "vs BGP blind"
    );
    println!("{}", "-".repeat(90));

    world.run_each(window, |result| {
        let mut cpls: Vec<u8> = Vec::new();
        let mut histories: Vec<ProbeHistory> = Vec::new();
        for tl in &result.timelines {
            let spans = spans_of(tl.v6.iter().map(|s| (s.start, s.lan64)));
            for pair in spans.windows(2) {
                cpls.push(common_prefix_len_v6(&pair[0].value, &pair[1].value));
            }
            histories.push(ProbeHistory {
                probe: dynamips::atlas::ProbeId(tl.id.index),
                virtual_index: 0,
                asn: tl.id.asn,
                v4: vec![],
                v6: spans,
            });
        }
        if cpls.is_empty() {
            return;
        }
        cpls.sort_unstable();
        // A conservative scanner plans for the 10th-percentile CPL: 90% of
        // renumberings stay within that many shared bits.
        let p10 = cpls[cpls.len() / 10];

        // If the ISP delegates prefixes shorter than /64 and CPEs zero the
        // rest, only one /64 per delegated prefix needs probing (modal
        // per-probe inference, robust to scrambling CPEs).
        let sub_len = infer_subscriber_len_mode(histories.iter()).unwrap_or(64);

        // /64s to scan: one per delegated prefix within the p10-CPL
        // enclosing block.
        let delegations_in_block = 1u128 << (sub_len.saturating_sub(p10) as u32);
        let bgp_len = result
            .config
            .v6_plan
            .as_ref()
            .map(|p| p.aggregates[0].len())
            .unwrap_or(32);
        let blind = 1u128 << (sub_len.saturating_sub(bgp_len) as u32);
        let reduction = blind as f64 / delegations_in_block as f64;
        println!(
            "{:<10} {:>9} {:>12} {:>14} {:>22} {:>15.0}x",
            result.config.name,
            cpls.len(),
            format!("/{p10}"),
            format!("/{sub_len}"),
            delegations_in_block,
            reduction
        );
    });

    println!(
        "\nReading: after a renumbering event, scanning the enclosing pool\n\
         block (p10 CPL) at one probe per delegated prefix relocates a\n\
         stable-IID device with orders of magnitude fewer probes than\n\
         sweeping the BGP announcement — the paper's point that pool and\n\
         subscriber boundaries turn IPv6 scanning from impossible to\n\
         tractable."
    );
}
