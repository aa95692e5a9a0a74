//! `ipam-churn`: the live allocator under DHCP churn, in process.
//! `experiments::ipam_sim::run` at 100k subscribers x 96 ticks x 8
//! shards: two passes with a byte-identical digest check, conservation
//! after every sweep and a deep audit every 24 ticks.
//!
//! Chosen because the allocator (buddy, lease wheel, sharded facade) and
//! `netsim::churn` are the whole cost here (~2M grant/renew/release ops
//! a pass); the reactor and the batch pipeline do no work. The cost of a
//! pass varies by ~1% across simulation seeds, but the seed is fixed per
//! world like the other workloads so every run is checked against one
//! recorded digest.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dynamips_experiments::ipam_sim::{self, IpamSimOptions};
use dynamips_ipam::{Ipam, IpamConfig, Tick};
use dynamips_netsim::churn::{ChurnEvent, ChurnProfile, Subscriber};

use crate::common::{
    cpu_ms, fnv_mix, median, ms_since, peak_rss_mb, Derivation, Metric, Oracle, Outcome, FNV_OFFSET,
};
use crate::trace::Stage;

/// Allocation digests recorded at the parent commit.
const ORACLE: &str = include_str!("../oracles/ipam-churn.txt");
pub const WORLDS: (u64, u64) = (7, 8);
const SUBSCRIBERS: u64 = 100_000;
const TICKS: u64 = 96;
const SHARDS: usize = 8;
const AUDIT_EVERY: u64 = 24;
/// Repetitions of the ~10 ms set-up scope; its median is `setup_s`.
const SETUP_REPS: usize = 15;

pub const DERIVATIONS: [Derivation; 4] = [
    Derivation {
        metric: "setup_s",
        num: "build_time",
        den: "setup_reps",
    },
    Derivation {
        metric: "latency_ms",
        num: "sim_wall",
        den: "sim_runs",
    },
    Derivation {
        metric: "cpu_ms",
        num: "process_cpu",
        den: "sim_runs",
    },
    Derivation {
        metric: "peak_rss_mb",
        num: "process_vmhwm",
        den: "1",
    },
];
pub const HARNESS_FIXED: [&str; 2] = ["setup_reps", "sim_runs"];

fn options(world: u64) -> IpamSimOptions {
    IpamSimOptions {
        seed: world,
        subscribers: SUBSCRIBERS,
        ticks: TICKS,
        shards: SHARDS,
        audit_every: AUDIT_EVERY,
    }
}

/// The allocator as `ipam_sim` builds it at the start of each pass,
/// with its CGNAT and static pool counts.
fn allocator() -> Result<(Ipam, u64, u64), String> {
    let pools = ipam_sim::sim_pools(SUBSCRIBERS).map_err(|e| e.to_string())?;
    let count = |prefix: &str| pools.iter().filter(|p| p.name.starts_with(prefix)).count() as u64;
    let (cgnat, stat) = (count("cgnat-"), count("static-"));
    let ipam = Ipam::build(IpamConfig { shards: SHARDS }, pools).map_err(|e| e.to_string())?;
    Ok((ipam, cgnat, stat))
}

/// The subscriber population `ipam_sim` drives against it.
fn population(world: u64, cgnat: u64, stat: u64) -> Vec<Subscriber> {
    (0..SUBSCRIBERS)
        .map(|id| {
            let pool = match ChurnProfile::of(id) {
                ChurnProfile::Residential => "pd".to_string(),
                ChurnProfile::Cgnat => format!("cgnat-{}", (id / 8) % cgnat),
                ChurnProfile::Static => format!("static-{}", (id / 8) % stat),
            };
            Subscriber::new(world, id, pool, id / 8)
        })
        .collect()
}

/// The `digest` field of an `ipam-sim` report.
fn digest_of(text: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with("passes"))?;
    let after = line.split("digest ").nth(1)?;
    Some(after.split(',').next()?.trim().to_string())
}

/// A counter line (`grants      515928`) of an `ipam-sim` report.
fn count_of(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub fn record(world: u64) -> Result<(), String> {
    let outcome = ipam_sim::run(&options(world))?;
    let digest = digest_of(&outcome.text).filter(|_| outcome.ok);
    let digest = digest.ok_or_else(|| format!("ipam-sim did not pass:\n{}", outcome.text))?;
    println!("{world} digest {digest}");
    Ok(())
}

pub fn run(world: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = Oracle::parse(ORACLE)?;
    let want = oracle
        .get(world, "digest")
        .ok_or_else(|| format!("no recorded digest for world {world}"))?
        .to_string();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (ipam, cgnat, stat) = allocator()?;
        black_box((ipam, population(world, cgnat, stat)));
        setups.push(ms_since(t));
    }

    let opts = options(world);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let budget_ms = seconds as f64 * 1e3;
    let started = Instant::now();
    loop {
        let cpu0 = cpu_ms(None)?;
        let t = Instant::now();
        let result = ipam_sim::run(&opts);
        let wall = ms_since(t);
        cpus.push(cpu_ms(None)? - cpu0);
        walls.push(wall);
        match result {
            Ok(sim) => {
                let got = digest_of(&sim.text);
                out.check(sim.ok && got.as_deref() == Some(want.as_str()), || {
                    format!("ipam-churn: ok={} digest {got:?}, recorded {want}", sim.ok)
                });
                let ops: u64 = ["grants", "renewals", "releases"]
                    .iter()
                    .map(|k| count_of(&sim.text, k))
                    .sum();
                out.note(format!(
                    "ipam_sim::run #{}: {wall:.1} ms for two passes, {ops} ops a pass, {:.0} ops/s",
                    walls.len(),
                    ops as f64 / (wall / 2e3)
                ));
            }
            Err(e) => out.check(false, || format!("ipam-churn: {e}")),
        }
        if ms_since(started) + wall > budget_ms {
            break;
        }
    }
    out.metrics = vec![
        Metric::new("setup_s", median(&setups) / 1e3, "s"),
        Metric::new("latency_ms", median(&walls), "ms"),
        Metric::new("cpu_ms", median(&cpus), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(None)?, "MB"),
    ];
    Ok(out)
}

/// Nanosecond totals and counts of one pass, by allocator call.
#[derive(Default)]
struct PassTrace {
    digest: u64,
    build_ms: f64,
    population_ms: f64,
    sweep_ns: u128,
    sweeps: u64,
    expired: u64,
    step_ns: [u128; 4],
    steps: [u64; 4],
    conservation_ns: u128,
    audit_ns: u128,
    audits: u64,
    frag_permille: u64,
}

const GRANT: usize = 0;
const RENEW: usize = 1;
const RELEASE: usize = 2;
const BACKOFF: usize = 3;

/// One pass of `ipam_sim::run_pass`, making the same public calls in
/// the same order with a timer around each. Its digest must equal the
/// recorded one, which shows it did the same work.
fn traced_pass(world: u64) -> Result<(PassTrace, f64), String> {
    let mut tr = PassTrace {
        digest: FNV_OFFSET,
        ..PassTrace::default()
    };
    let started = Instant::now();
    let t = Instant::now();
    let (ipam, cgnat, stat) = allocator()?;
    tr.build_ms = ms_since(t);
    let t = Instant::now();
    let mut subs = population(world, cgnat, stat);
    tr.population_ms = ms_since(t);

    let mut calendar: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    calendar.insert(0, (0..SUBSCRIBERS).collect());
    while let Some((&tick, _)) = calendar.iter().next() {
        if tick > TICKS {
            break;
        }
        let due = calendar.remove(&tick).unwrap_or_default();
        let t = Instant::now();
        let report = ipam
            .advance_clock(Tick(tick))
            .map_err(|e| format!("sweep at tick {tick}: {e}"))?;
        tr.sweep_ns += t.elapsed().as_nanos();
        tr.expired += report.expired;
        tr.sweeps += 1;
        for idx in due {
            let sub = subs
                .get_mut(idx as usize)
                .ok_or_else(|| format!("subscriber {idx} out of range"))?;
            let t = Instant::now();
            let (event, next) = sub
                .step(tick, &ipam)
                .map_err(|e| format!("subscriber {idx} at tick {tick}: {e}"))?;
            let ns = t.elapsed().as_nanos();
            let kind = match &event {
                ChurnEvent::Granted { lease, address } => {
                    fnv_mix(&mut tr.digest, b"G");
                    fnv_mix(&mut tr.digest, &idx.to_le_bytes());
                    fnv_mix(&mut tr.digest, &lease.to_le_bytes());
                    fnv_mix(&mut tr.digest, address.as_bytes());
                    GRANT
                }
                ChurnEvent::Renewed { lease } => {
                    fnv_mix(&mut tr.digest, b"R");
                    fnv_mix(&mut tr.digest, &lease.to_le_bytes());
                    RENEW
                }
                ChurnEvent::Released { lease } => {
                    fnv_mix(&mut tr.digest, b"D");
                    fnv_mix(&mut tr.digest, &lease.to_le_bytes());
                    RELEASE
                }
                ChurnEvent::Backoff => {
                    fnv_mix(&mut tr.digest, b"B");
                    fnv_mix(&mut tr.digest, &idx.to_le_bytes());
                    BACKOFF
                }
            };
            tr.step_ns[kind] += ns;
            tr.steps[kind] += 1;
            if next <= TICKS {
                calendar.entry(next).or_default().push(idx);
            }
        }
        let t = Instant::now();
        ipam.verify_conservation()
            .map_err(|e| format!("conservation after tick {tick}: {e}"))?;
        tr.conservation_ns += t.elapsed().as_nanos();
        if tick % AUDIT_EVERY == 0 {
            let t = Instant::now();
            ipam.deep_audit()
                .map_err(|e| format!("deep audit at tick {tick}: {e}"))?;
            tr.audit_ns += t.elapsed().as_nanos();
            tr.audits += 1;
        }
    }
    let t = Instant::now();
    ipam.deep_audit().map_err(|e| format!("final audit: {e}"))?;
    tr.audit_ns += t.elapsed().as_nanos();
    tr.audits += 1;
    fnv_mix(&mut tr.digest, &ipam.live_leases().to_le_bytes());
    tr.frag_permille = ipam
        .pool_stats()
        .iter()
        .map(|p| p.fragmentation_permille)
        .max()
        .unwrap_or(0);
    Ok((tr, ms_since(started)))
}

pub fn traced(world: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = Oracle::parse(ORACLE)?;
    let want = oracle
        .get(world, "digest")
        .ok_or_else(|| format!("no recorded digest for world {world}"))?
        .to_string();

    let (tr, pass_ms) = traced_pass(world)?;
    let got = format!("{:016x}", tr.digest);
    out.check(got == want, || {
        format!("ipam-churn traced pass: digest {got}, recorded {want}")
    });

    // Untraced reference: one `ipam_sim::run` is two passes.
    let t = Instant::now();
    let untraced = ipam_sim::run(&options(world));
    let untraced_pass_ms = ms_since(t) / 2.0;
    match &untraced {
        Ok(sim) => out.check(
            digest_of(&sim.text).as_deref() == Some(want.as_str()),
            || "ipam-churn untraced reference digest differs".to_string(),
        ),
        Err(e) => out.check(false, || format!("ipam-churn untraced reference: {e}")),
    }

    let ns_ms = |ns: u128| ns as f64 / 1e6;
    let steps = |k: usize| {
        Stage::leaf(
            [
                "churn.grant",
                "churn.renew",
                "churn.release",
                "churn.backoff",
            ][k],
            ns_ms(tr.step_ns[k]),
        )
    };
    let root = Stage::node(
        "ipam-churn traced pass",
        pass_ms,
        vec![
            Stage::leaf("ipam.build", tr.build_ms),
            Stage::leaf("churn.population", tr.population_ms),
            Stage::leaf("ipam.sweep", ns_ms(tr.sweep_ns)),
            steps(GRANT),
            steps(RENEW),
            steps(RELEASE),
            steps(BACKOFF),
            Stage::leaf("ipam.conservation", ns_ms(tr.conservation_ns)),
            Stage::leaf("ipam.audit", ns_ms(tr.audit_ns)),
        ],
        "ipam_sim.residual",
    );
    root.check(0.0)
        .map_err(|e| format!("stage tree does not close: {e}"))?;
    out.report.extend(root.render());
    out.note(format!(
        "tracing overhead: traced pass {pass_ms:.1} ms - untraced pass {untraced_pass_ms:.1} ms = {:+.1} ms; digest {got} (recorded {want})",
        pass_ms - untraced_pass_ms
    ));

    let per_op = |k: usize| {
        if tr.steps[k] == 0 {
            0.0
        } else {
            tr.step_ns[k] as f64 / tr.steps[k] as f64
        }
    };
    let attempts = tr.steps[GRANT] + tr.steps[BACKOFF];
    out.metrics = vec![
        Metric::new("ipam.build_ms", tr.build_ms, "ms"),
        Metric::new("churn.population_ms", tr.population_ms, "ms"),
        Metric::new("churn.grant_ns", per_op(GRANT), "ns"),
        Metric::new("churn.renew_ns", per_op(RENEW), "ns"),
        Metric::new("churn.release_ns", per_op(RELEASE), "ns"),
        Metric::new("ipam.grants", tr.steps[GRANT] as f64, "count"),
        Metric::new("ipam.renewals", tr.steps[RENEW] as f64, "count"),
        Metric::new("ipam.releases", tr.steps[RELEASE] as f64, "count"),
        Metric::new("ipam.backoffs", tr.steps[BACKOFF] as f64, "count"),
        Metric::new(
            "ipam.grant_ratio",
            if attempts == 0 {
                0.0
            } else {
                tr.steps[GRANT] as f64 / attempts as f64
            },
            "ratio",
        ),
        Metric::new("ipam.sweep_ms", ns_ms(tr.sweep_ns), "ms"),
        Metric::new("ipam.sweeps", tr.sweeps as f64, "count"),
        Metric::new("ipam.expired", tr.expired as f64, "count"),
        Metric::new("ipam.conservation_ms", ns_ms(tr.conservation_ns), "ms"),
        Metric::new("ipam.audit_ms", ns_ms(tr.audit_ns), "ms"),
        Metric::new("ipam.audits", tr.audits as f64, "count"),
        Metric::new("ipam.frag_permille", tr.frag_permille as f64, "permille"),
        Metric::new(
            "ipam_sim.residual_ms",
            root.residual().map_or(0.0, |r| r.ms),
            "ms",
        ),
    ];
    Ok(out)
}
