//! `dynamips ipam-sim` — churn a subscriber population against the live
//! IPAM allocator and prove its invariants.
//!
//! Two modes share this module:
//!
//! * **In-process** ([`run`]): build an [`Ipam`] scaled to
//!   `--subscribers`, drive it with [`dynamips_netsim::churn`]
//!   subscribers on an event calendar (grants at tick 0, then renewals
//!   at T1 and session end/restart churn), and verify after *every*
//!   expiry sweep that each address is exactly one of
//!   free/leased/standby/excluded. The whole simulation runs **twice**
//!   with the same seed and must produce a byte-identical allocation
//!   digest — allocate-after-release determinism is an asserted
//!   property, not an aspiration. Writes a `dynamips-bench-v1` record
//!   (`BENCH_ipam.json`).
//! * **Over HTTP** ([`run_url`]): drive `POST /leases` →
//!   `PUT /leases/<id>/renew` → `DELETE /leases/<id>` cycles against a
//!   running `dynamips serve`, then assert the allocator drained back
//!   to zero live leases and `GET /pools` still reports conservation.

use std::collections::VecDeque;
use std::time::Instant;

use dynamips_core::perf::{PerfEntry, PerfRecord};
use dynamips_ipam::{Ipam, IpamConfig, IpamError, PoolSpec, Tick};
use dynamips_netsim::churn::{ChurnEvent, ChurnProfile, Subscriber};
use dynamips_serve::{BreakerConfig, ResilientClient, RetryPolicy};

/// Knobs for the in-process simulation.
#[derive(Debug, Clone)]
pub struct IpamSimOptions {
    /// Master seed: subscriber behaviour and the allocation digest are
    /// functions of it.
    pub seed: u64,
    /// Population size. Every subscriber grants at tick 0, so peak
    /// concurrent leases reaches this number before churn sets in.
    pub subscribers: u64,
    /// Simulated horizon in ticks.
    pub ticks: u64,
    /// Allocator shard count.
    pub shards: usize,
    /// Full recount audit cadence (every N ticks; also runs at the end).
    pub audit_every: u64,
}

impl Default for IpamSimOptions {
    fn default() -> IpamSimOptions {
        IpamSimOptions {
            seed: 7,
            subscribers: 20_000,
            ticks: 96,
            shards: 8,
            audit_every: 24,
        }
    }
}

/// What one full `ipam-sim` invocation produced.
#[derive(Debug)]
pub struct IpamSimOutcome {
    /// Human-readable report.
    pub text: String,
    /// Whether every invariant held (errors short-circuit before this).
    pub ok: bool,
    /// Bench record for `BENCH_ipam.json`.
    pub perf: PerfRecord,
}

/// Counters accumulated over one simulation pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PassStats {
    digest: u64,
    grants: u64,
    renewals: u64,
    releases: u64,
    backoffs: u64,
    expired: u64,
    peak_live: u64,
    final_live: u64,
    sweeps: u64,
    pool_lines: Vec<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(digest: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *digest ^= u64::from(*b);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

/// The pool layout for a population of `subscribers`, mirroring the
/// profile mix of [`ChurnProfile::of`]: residential subscribers draw
/// IPv6 /56 delegations from one /32 (dynip's prefix-delegation model),
/// CGNAT and static subscribers draw IPv4 from as many /16s as the
/// population needs (pools span /16..=/32, so capacity scales by pool
/// count, not pool size). Every v4 pool excludes its first 8 indices —
/// gateway/broadcast-style reservations the conservation invariant must
/// track.
pub fn sim_pools(subscribers: u64) -> Result<Vec<PoolSpec>, IpamError> {
    let p4 = |s: String| {
        s.parse()
            .map_err(|e| IpamError::InvalidConfig(format!("bad IPv4 prefix {s:?}: {e:?}")))
    };
    let p6 = |s: &str| {
        s.parse()
            .map_err(|e| IpamError::InvalidConfig(format!("bad IPv6 prefix {s:?}: {e:?}")))
    };
    // Per-/16 usable capacity after exclusions, kept under 90% load.
    let v4_usable = ((1u64 << 16) - 8) * 9 / 10;
    let cgnat_subs = subscribers * 2 / 8 + 1;
    let static_subs = subscribers / 8 + 1;
    let pool_count = |subs: u64| subs.div_ceil(v4_usable).clamp(1, 64);
    let mut pools = vec![PoolSpec::v6("pd", p6("2001:db8::/32")?, 56, 4, vec![], 2)?];
    for i in 0..pool_count(cgnat_subs) {
        pools.push(PoolSpec::v4(
            &format!("cgnat-{i}"),
            p4(format!("100.{}.0.0/16", 64 + i))?,
            4,
            (0..8).collect(),
            1,
        )?);
    }
    for i in 0..pool_count(static_subs) {
        pools.push(PoolSpec::v4(
            &format!("static-{i}"),
            p4(format!("10.{i}.0.0/16"))?,
            4,
            (0..8).collect(),
            4,
        )?);
    }
    Ok(pools)
}

/// The pool a subscriber draws from, spreading each profile's
/// population across that profile's pools.
fn pool_of(id: u64, cgnat_pools: u64, static_pools: u64) -> String {
    match ChurnProfile::of(id) {
        ChurnProfile::Residential => "pd".to_string(),
        ChurnProfile::Cgnat => format!("cgnat-{}", (id / 8) % cgnat_pools),
        ChurnProfile::Static => format!("static-{}", (id / 8) % static_pools),
    }
}

/// One full simulation pass. Deterministic in `opts.seed`.
fn run_pass(opts: &IpamSimOptions) -> Result<PassStats, String> {
    let pools = sim_pools(opts.subscribers).map_err(|e| e.to_string())?;
    let cgnat_pools = pools
        .iter()
        .filter(|p| p.name.starts_with("cgnat-"))
        .count() as u64;
    let static_pools = pools
        .iter()
        .filter(|p| p.name.starts_with("static-"))
        .count() as u64;
    let ipam = Ipam::build(
        IpamConfig {
            shards: opts.shards,
        },
        pools,
    )
    .map_err(|e| e.to_string())?;

    let mut subs: Vec<Subscriber> = (0..opts.subscribers)
        .map(|id| {
            Subscriber::new(
                opts.seed,
                id,
                pool_of(id, cgnat_pools, static_pools),
                id / 8,
            )
        })
        .collect();

    // Event calendar: `calendar[k]` holds the subscriber indices due at
    // tick `base + k`. It reaches only as far as the latest scheduled
    // step, so its length follows the scheduling horizon, not `--ticks`.
    // Everyone is due at tick 0 so peak concurrency hits the full
    // population before churn sets in.
    let mut calendar: VecDeque<Vec<u64>> = VecDeque::from([(0..opts.subscribers).collect()]);
    let mut base = 0u64;

    let mut stats = PassStats {
        digest: FNV_OFFSET,
        ..PassStats::default()
    };
    while let Some(due) = calendar.pop_front() {
        let tick = base;
        base += 1;
        // A tick nobody is due at gets no sweep, as if it were absent.
        if due.is_empty() {
            continue;
        }
        let report = ipam
            .advance_clock(Tick(tick))
            .map_err(|e| format!("sweep at tick {tick}: {e}"))?;
        stats.expired += report.expired;
        stats.sweeps += 1;
        for idx in due {
            let sub = subs
                .get_mut(idx as usize)
                .ok_or_else(|| format!("subscriber {idx} out of range"))?;
            let (event, next) = sub
                .step(tick, &ipam)
                .map_err(|e| format!("subscriber {idx} at tick {tick}: {e}"))?;
            match event {
                ChurnEvent::Granted { lease, address } => {
                    stats.grants += 1;
                    fnv_mix(&mut stats.digest, b"G");
                    fnv_mix(&mut stats.digest, &idx.to_le_bytes());
                    fnv_mix(&mut stats.digest, &lease.to_le_bytes());
                    fnv_mix(&mut stats.digest, address.as_bytes());
                }
                ChurnEvent::Renewed { lease } => {
                    stats.renewals += 1;
                    fnv_mix(&mut stats.digest, b"R");
                    fnv_mix(&mut stats.digest, &lease.to_le_bytes());
                }
                ChurnEvent::Released { lease } => {
                    stats.releases += 1;
                    fnv_mix(&mut stats.digest, b"D");
                    fnv_mix(&mut stats.digest, &lease.to_le_bytes());
                }
                ChurnEvent::Backoff => {
                    stats.backoffs += 1;
                    fnv_mix(&mut stats.digest, b"B");
                    fnv_mix(&mut stats.digest, &idx.to_le_bytes());
                }
            }
            if next <= opts.ticks {
                debug_assert!(next > tick, "a step schedules ahead");
                let at = next.saturating_sub(base) as usize;
                if calendar.len() <= at {
                    calendar.resize_with(at + 1, Vec::new);
                }
                if let Some(slot) = calendar.get_mut(at) {
                    slot.push(idx);
                }
            }
        }
        // The conservation invariant holds after every sweep: each
        // address is exactly one of free / leased / standby / excluded,
        // and the lease table, pool counters, and RAII gauge agree.
        ipam.verify_conservation()
            .map_err(|e| format!("conservation after tick {tick}: {e}"))?;
        stats.peak_live = stats.peak_live.max(ipam.live_leases());
        if opts.audit_every > 0 && tick.is_multiple_of(opts.audit_every) {
            ipam.deep_audit()
                .map_err(|e| format!("deep audit at tick {tick}: {e}"))?;
        }
    }
    ipam.deep_audit().map_err(|e| format!("final audit: {e}"))?;
    stats.final_live = ipam.live_leases();
    fnv_mix(&mut stats.digest, &stats.final_live.to_le_bytes());
    stats.pool_lines = ipam
        .pool_stats()
        .iter()
        .map(|p| {
            format!(
                "  {:<10} capacity={:<9} free={:<9} leased={:<9} standby={:<6} excluded={:<4} frag={}‰",
                p.name, p.capacity, p.free, p.leased, p.standby, p.excluded,
                p.fragmentation_permille
            )
        })
        .collect();
    Ok(stats)
}

/// Run the simulation twice with the same seed; the allocation digests
/// must be byte-identical, peak concurrency must reach the full
/// population, and every sweep must conserve addresses (violations
/// short-circuit as `Err`).
pub fn run(opts: &IpamSimOptions) -> Result<IpamSimOutcome, String> {
    if opts.subscribers == 0 || opts.ticks == 0 || opts.shards == 0 {
        return Err("ipam-sim: --subscribers, --ticks, --shards must be >= 1".to_string());
    }
    #[allow(clippy::disallowed_methods, reason = "simulator wall time")]
    let started = Instant::now();
    let first = run_pass(opts)?;
    let first_ms = started.elapsed().as_secs_f64() * 1e3;
    let second = run_pass(opts)?;
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    if first.digest != second.digest {
        return Err(format!(
            "determinism violated: same-seed passes diverged ({:016x} vs {:016x})",
            first.digest, second.digest
        ));
    }
    if first != second {
        return Err("determinism violated: same-seed passes disagree on counters".to_string());
    }
    let ok = first.peak_live >= opts.subscribers;
    let ops = first.grants + first.renewals + first.releases;
    let ops_per_sec = ops as f64 / (first_ms / 1e3).max(1e-9);

    let mut text = format!(
        "ipam-sim: seed {} subscribers {} ticks {} shards {}\n\
         passes      2 (digest {:016x}, byte-identical)\n\
         grants      {}\n\
         renewals    {}\n\
         releases    {}\n\
         expired     {}\n\
         backoffs    {}\n\
         peak live   {} (target {})\n\
         final live  {}\n\
         sweeps      {} (conservation verified after each)\n\
         pools:\n",
        opts.seed,
        opts.subscribers,
        opts.ticks,
        opts.shards,
        first.digest,
        first.grants,
        first.renewals,
        first.releases,
        first.expired,
        first.backoffs,
        first.peak_live,
        opts.subscribers,
        first.final_live,
        first.sweeps,
    );
    let mut profile_line = String::from("profiles   ");
    for profile in [
        ChurnProfile::Residential,
        ChurnProfile::Static,
        ChurnProfile::Cgnat,
    ] {
        profile_line.push_str(&format!(
            " {}(lease={}t)",
            profile.tag(),
            profile.lease_ticks()
        ));
    }
    profile_line.push('\n');
    // The legend slots in under the header line.
    match text.find("passes") {
        Some(at) => text.insert_str(at, &profile_line),
        None => text.push_str(&profile_line),
    }
    for line in &first.pool_lines {
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(if ok {
        "ipam-sim: OK\n"
    } else {
        "ipam-sim: FAILED (peak live leases below the population)\n"
    });

    let perf = PerfRecord {
        seed: opts.seed,
        atlas_scale: 0.0,
        cdn_scale: 0.0,
        workers: opts.shards,
        worlds_built: 1,
        total_ms,
        phases: vec![
            PerfEntry {
                name: "ipam-pass-ms".to_string(),
                ms: first_ms,
            },
            PerfEntry {
                name: "ipam-ops-rps".to_string(),
                ms: ops_per_sec,
            },
        ],
        artifacts: vec![
            PerfEntry {
                name: "ipam-peak-live".to_string(),
                ms: first.peak_live as f64,
            },
            PerfEntry {
                name: "ipam-grants".to_string(),
                ms: first.grants as f64,
            },
        ],
    };
    Ok(IpamSimOutcome { text, ok, perf })
}

/// Pull `key=` out of a lease-endpoint response body.
fn body_field(body: &[u8], key: &str) -> Result<String, String> {
    let text = String::from_utf8_lossy(body).to_string();
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")).map(str::to_string))
        .ok_or_else(|| format!("response has no {key}= field: {text:?}"))
}

/// Drive `cycles` grant → renew → release round trips against a live
/// `dynamips serve` at `url` (scheme+authority; paths are fixed), then
/// assert the allocator drained: zero live leases and a conserving
/// `GET /pools`. POSTs go through the non-retrying client path;
/// renew/release ride the idempotent retrying path.
pub fn run_url(url: &str, cycles: u64, timeout_ms: u64) -> Result<String, String> {
    let (addr, _) = dynamips_serve::client::split_url(url)?;
    let client = ResilientClient::new(RetryPolicy::default(), BreakerConfig::default());
    let mut granted = 0u64;
    for cycle in 0..cycles {
        // One simulated tick per 64 cycles keeps the grace-queue sweep
        // honest without outrunning lease lifetimes.
        let now = cycle / 64;
        let body = format!("pool=grace0&client={cycle}&lifetime=100&now={now}");
        let resp = client.request(&addr, "POST", "/leases", &body, timeout_ms)?;
        if resp.status != 201 {
            return Err(format!(
                "cycle {cycle}: POST /leases -> {} ({})",
                resp.status,
                String::from_utf8_lossy(&resp.body).trim()
            ));
        }
        let id = body_field(&resp.body, "id")?;
        granted += 1;
        let renew = client.request(
            &addr,
            "PUT",
            &format!("/leases/{id}/renew"),
            &format!("lifetime=100&now={now}"),
            timeout_ms,
        )?;
        if renew.status != 200 {
            return Err(format!("cycle {cycle}: PUT renew -> {}", renew.status));
        }
        let release = client.request(&addr, "DELETE", &format!("/leases/{id}"), "", timeout_ms)?;
        if release.status != 200 {
            return Err(format!("cycle {cycle}: DELETE -> {}", release.status));
        }
    }
    // Drained: the RAII gauge is back to zero and every pool conserves.
    let metrics = client.request(&addr, "GET", "/ipam-metrics", "", timeout_ms)?;
    let page = String::from_utf8_lossy(&metrics.body).to_string();
    if !page.contains("dynamips_ipam_leases_active 0\n") {
        return Err(format!(
            "leases_active gauge did not return to zero:\n{page}"
        ));
    }
    let pools = client.request(&addr, "GET", "/pools", "", timeout_ms)?;
    let table = String::from_utf8_lossy(&pools.body).to_string();
    if pools.status != 200 || !table.contains("conservation=ok") {
        return Err(format!("GET /pools -> {}:\n{table}", pools.status));
    }
    Ok(format!(
        "ipam-sim --url: {granted}/{cycles} cycles OK; leases_active back to 0; conservation ok\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sim_is_deterministic_and_conserving() {
        let opts = IpamSimOptions {
            seed: 7,
            subscribers: 800,
            ticks: 60,
            shards: 4,
            audit_every: 16,
        };
        let outcome = run(&opts).unwrap();
        assert!(outcome.ok, "{}", outcome.text);
        assert!(outcome.text.contains("byte-identical"), "{}", outcome.text);
        assert!(outcome.text.contains("peak live   800"), "{}", outcome.text);
        // The bench record parses as dynamips-bench-v1.
        let parsed = PerfRecord::parse(&outcome.perf.to_json()).unwrap();
        assert_eq!(parsed.phases.len(), 2);
    }

    #[test]
    fn different_seeds_diverge() {
        let base = IpamSimOptions {
            subscribers: 400,
            ticks: 40,
            ..IpamSimOptions::default()
        };
        let a = run(&base).unwrap();
        let b = run(&IpamSimOptions { seed: 8, ..base }).unwrap();
        let digest = |text: &str| {
            text.lines()
                .find(|l| l.contains("digest"))
                .map(str::to_string)
        };
        assert_ne!(digest(&a.text), digest(&b.text));
    }

    #[test]
    fn pool_layout_scales_with_population() {
        let small = sim_pools(1_000).unwrap();
        assert_eq!(small.len(), 3, "pd + 1 cgnat + 1 static");
        let big = sim_pools(1_000_000).unwrap();
        let cgnat = big.iter().filter(|p| p.name.starts_with("cgnat-")).count();
        let stat = big.iter().filter(|p| p.name.starts_with("static-")).count();
        assert!(
            cgnat >= 5,
            "250k cgnat subscribers need >= 5 /16s, got {cgnat}"
        );
        assert!(
            stat >= 3,
            "125k static subscribers need >= 3 /16s, got {stat}"
        );
    }

    #[test]
    fn zero_options_are_usage_errors() {
        let opts = IpamSimOptions {
            subscribers: 0,
            ..IpamSimOptions::default()
        };
        assert!(run(&opts).is_err());
    }
}
