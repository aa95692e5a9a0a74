//! Determinism and serialization round trips across the whole stack.

use dynamips::atlas::{records, AtlasCollector, AtlasConfig};
use dynamips::cdn::{CdnCollector, CdnConfig};
use dynamips::netsim::profiles::{atlas_world, dtag, Era};
use dynamips::netsim::time::{SimTime, Window};
use dynamips::netsim::World;
use dynamips::routing::pfx2as::{from_pfx2as, to_pfx2as};

#[test]
fn whole_world_simulation_is_seed_deterministic() {
    let run = |seed: u64| {
        let world = atlas_world(seed, 0.02);
        let mut fingerprint: Vec<(u64, usize, usize)> = Vec::new();
        world.run_each(Window::new(SimTime(0), SimTime(200 * 24)), |res| {
            for tl in &res.timelines {
                fingerprint.push((tl.device_iid, tl.v4.len(), tl.v6.len()));
            }
        });
        fingerprint
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn atlas_collection_round_trips_through_tsv() {
    let mut world = World::new(5);
    world.add_isp(dtag(6, Era::Atlas)).unwrap();
    let window = Window::new(SimTime(0), SimTime(90 * 24));
    let collector = AtlasCollector::new(&world, window, AtlasConfig::pristine());
    let probes = collector.collect_all();
    assert!(!probes.is_empty());

    let mut blob = String::new();
    for p in &probes {
        blob.push_str(&records::to_tsv(p.probe, &p.v4, &p.v6));
    }
    let parsed = records::from_tsv(&blob).expect("well-formed TSV");
    assert_eq!(parsed.len(), probes.len());
    for ((id, v4, v6), original) in parsed.iter().zip(&probes) {
        assert_eq!(*id, original.probe);
        assert_eq!(v4, &original.v4);
        assert_eq!(v6, &original.v6);
    }
}

#[test]
fn world_routing_round_trips_through_pfx2as() {
    let world = atlas_world(3, 0.02);
    let text = to_pfx2as(world.routing());
    let parsed = from_pfx2as(&text).expect("well-formed pfx2as");
    assert_eq!(parsed.v4_entries(), world.routing().v4_entries());
    assert_eq!(parsed.v6_entries(), world.routing().v6_entries());
    // Spot-check an origin lookup survives the round trip.
    let addr: std::net::Ipv6Addr = "2003:40:a0::1".parse().unwrap();
    assert_eq!(parsed.origin_v6(addr), world.routing().origin_v6(addr));
}

#[test]
fn cdn_collection_is_seed_deterministic_and_seed_sensitive() {
    let collect = |seed: u64| {
        let mut world = World::new(seed);
        world.add_isp(dtag(20, Era::Cdn)).unwrap();
        CdnCollector::new(
            &world,
            Window::new(SimTime(0), SimTime(60 * 24)),
            CdnConfig::default(),
        )
        .collect()
        .tuples
    };
    assert_eq!(collect(9), collect(9));
    assert_ne!(collect(9), collect(10));
}

#[test]
fn experiment_artifacts_are_reproducible() {
    use dynamips::experiments::{atlas_exps, AtlasAnalysis, ExperimentConfig};
    let cfg = ExperimentConfig {
        seed: 77,
        atlas_scale: 0.02,
        cdn_scale: 0.02,
    };
    let a1 = atlas_exps::table1(&AtlasAnalysis::compute(&cfg));
    let a2 = atlas_exps::table1(&AtlasAnalysis::compute(&cfg));
    assert_eq!(a1, a2, "same seed, same table");
}
