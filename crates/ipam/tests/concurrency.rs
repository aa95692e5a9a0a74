//! Concurrency storm: many threads hammer one shared [`Ipam`] with
//! grant / renew / revoke / sweep traffic, then the conservation
//! invariant and a deep audit must hold exactly.
//!
//! The allocator's sharded locking is only correct if every address is
//! in exactly one of free / leased / standby / excluded at all times —
//! a lost update under contention shows up here as a conservation
//! failure or an audit mismatch, not as a flaky panic.

use dynamips_ipam::{GrantRequest, Ipam, IpamConfig, PoolSpec, Tick};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn storm_pools() -> Vec<PoolSpec> {
    vec![
        PoolSpec::v4(
            "v4-a",
            "10.10.0.0/20".parse().unwrap(),
            4,
            vec![0, 1, 2, 3],
            2,
        )
        .unwrap(),
        PoolSpec::v4("v4-b", "10.20.0.0/20".parse().unwrap(), 2, vec![], 0).unwrap(),
        PoolSpec::v6("pd", "2001:db8:77::/48".parse().unwrap(), 60, 4, vec![], 1).unwrap(),
    ]
}

#[test]
fn grant_renew_revoke_storm_conserves_every_address() {
    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 4_000;

    let ipam = Arc::new(Ipam::build(IpamConfig { shards: 4 }, storm_pools()).unwrap());
    let clock = Arc::new(AtomicU64::new(0));

    #[allow(clippy::disallowed_methods, reason = "concurrent allocator clients")]
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let ipam = Arc::clone(&ipam);
            let clock = Arc::clone(&clock);
            thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ t);
                let mut mine: Vec<u64> = Vec::new();
                let mut granted = 0u64;
                let mut denied = 0u64;
                for op in 0..OPS_PER_THREAD {
                    let now = Tick(clock.load(Ordering::Relaxed));
                    match rng.gen_range(0u8..10) {
                        // Mostly grants, so the pools actually fill up.
                        0..=5 => {
                            let req = GrantRequest {
                                pool: None,
                                location: Some(rng.gen_range(0..8)),
                                client: t * OPS_PER_THREAD + op,
                                now,
                                lifetime: rng.gen_range(4..64),
                            };
                            match ipam.grant(&req) {
                                Ok(g) => {
                                    mine.push(g.id);
                                    granted += 1;
                                }
                                Err(_) => denied += 1,
                            }
                        }
                        6..=7 if !mine.is_empty() => {
                            let id = mine[rng.gen_range(0..mine.len())];
                            // May race with expiry; both outcomes are legal.
                            let _ = ipam.renew(id, now, rng.gen_range(4..64));
                        }
                        8 if !mine.is_empty() => {
                            let id = mine.swap_remove(rng.gen_range(0..mine.len()));
                            let _ = ipam.revoke(id, now);
                        }
                        // One thread at a time nudges the clock forward,
                        // running the expiry sweep concurrently with the
                        // other threads' traffic.
                        _ => {
                            let next = clock.fetch_add(1, Ordering::Relaxed) + 1;
                            let _ = ipam.advance_clock(Tick(next));
                        }
                    }
                }
                (granted, denied)
            })
        })
        .collect();

    let mut granted = 0u64;
    for w in workers {
        let (g, _) = w.join().unwrap();
        granted += g;
    }
    assert!(granted > 0, "storm never granted a lease");

    // The storm may have left the clock mid-sweep; settle it once, then
    // every address must be accounted for exactly once.
    let now = clock.load(Ordering::Relaxed);
    ipam.advance_clock(Tick(now)).unwrap();
    ipam.verify_conservation().unwrap();
    ipam.deep_audit().unwrap();

    // Cross-check the bookkeeping three ways: lease table, pool stats,
    // and the Prometheus gauge all agree on the live-lease count.
    let live = ipam.live_leases();
    let leased: u64 = ipam.pool_stats().iter().map(|p| p.leased).sum();
    assert_eq!(live, leased);
    let rendered = ipam.render_prometheus();
    assert!(
        rendered.contains(&format!("dynamips_ipam_leases_active {live}\n")),
        "gauge disagrees with table: {rendered}"
    );
}

#[test]
fn storm_then_drain_returns_every_address_to_the_free_list() {
    let ipam = Arc::new(Ipam::build(IpamConfig { shards: 3 }, storm_pools()).unwrap());

    // Fill from several threads, collecting every granted id.
    let ids: Vec<u64> = {
        #[allow(clippy::disallowed_methods, reason = "concurrent allocator clients")]
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let ipam = Arc::clone(&ipam);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for op in 0..1_500u64 {
                        let req = GrantRequest {
                            pool: None,
                            location: Some(t),
                            client: t * 10_000 + op,
                            now: Tick(0),
                            lifetime: 1_000,
                        };
                        if let Ok(g) = ipam.grant(&req) {
                            got.push(g.id);
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    };
    assert!(!ids.is_empty());

    // Drain concurrently too.
    let cursor = Arc::new(AtomicU64::new(0));
    let ids = Arc::new(ids);
    #[allow(clippy::disallowed_methods, reason = "concurrent allocator clients")]
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let ipam = Arc::clone(&ipam);
            let ids = Arc::clone(&ids);
            let cursor = Arc::clone(&cursor);
            thread::spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(&id) = ids.get(i) else { break };
                ipam.revoke(id, Tick(1)).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Step past every grace window so standby addresses complete their
    // journey back to the free list.
    for t in 2..8 {
        ipam.advance_clock(Tick(t)).unwrap();
    }
    ipam.verify_conservation().unwrap();
    ipam.deep_audit().unwrap();
    assert_eq!(ipam.live_leases(), 0);
    for p in ipam.pool_stats() {
        assert_eq!(p.leased, 0, "pool {} still reports leases", p.name);
        assert_eq!(p.standby, 0, "pool {} still reports standby", p.name);
        assert_eq!(
            p.free + p.excluded,
            p.capacity,
            "pool {} lost addresses",
            p.name
        );
        // Exclusions punch permanent holes in the buddy structure, so
        // only exclusion-free pools merge back to a single block.
        if p.excluded == 0 {
            assert_eq!(
                p.fragmentation_permille, 0,
                "pool {} stayed fragmented",
                p.name
            );
        }
    }
}
