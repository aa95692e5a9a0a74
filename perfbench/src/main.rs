//! The DynamIPs benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-all|ipam-churn|wire-mixed --seed N --seconds S --trace 0|1 \
//!     [--held-out] [--record]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no timer
//! inside the program's layers; with `--trace 1` it runs the workload's
//! traced stage tree instead. Either way it prints a readable report and,
//! as the last stdout line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits 1 when any oracle fails and 2 on a
//! usage error. `--held-out` runs the second recorded world; `--record`
//! prints the oracle rows of the selected world instead of measuring,
//! and is only meant for a commit whose outputs are trusted.

mod batch;
mod churn;
mod common;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{check_derivations, result_line, Outcome};

const WORKLOADS: [&str; 3] = ["batch-all", "ipam-churn", "wire-mixed"];

/// Every end-to-end metric, reported by every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, reported by every traced run.
const PER_LAYER: [(&str, &str); 62] = [
    ("netsim.world_ms", "ms"),
    ("netsim.simulate_ms", "ms"),
    ("netsim.isp_runs", "count"),
    ("netsim.timelines", "count"),
    ("atlas.observe_ms", "ms"),
    ("atlas.probes", "count"),
    ("core.sanitize_ms", "ms"),
    ("core.clean_ratio", "ratio"),
    ("core.accumulate_ms", "ms"),
    ("cdn.collect_ms", "ms"),
    ("cdn.associations", "count"),
    ("core.cdn_analysis_ms", "ms"),
    ("extended.histories_ms", "ms"),
    ("render.targetgen_ms", "ms"),
    ("render.sanitizer_ms", "ms"),
    ("render.pools_ms", "ms"),
    ("render.scanplan_ms", "ms"),
    ("render.claims_ms", "ms"),
    ("render.check_ms", "ms"),
    ("render.other_ms", "ms"),
    ("engine.residual_ms", "ms"),
    ("engine.overlap_ratio", "ratio"),
    ("ipam.build_ms", "ms"),
    ("churn.population_ms", "ms"),
    ("churn.grant_ns", "ns"),
    ("churn.renew_ns", "ns"),
    ("churn.release_ns", "ns"),
    ("ipam.grants", "count"),
    ("ipam.renewals", "count"),
    ("ipam.releases", "count"),
    ("ipam.backoffs", "count"),
    ("ipam.grant_ratio", "ratio"),
    ("ipam.sweep_ms", "ms"),
    ("ipam.sweeps", "count"),
    ("ipam.expired", "count"),
    ("ipam.conservation_ms", "ms"),
    ("ipam.audit_ms", "ms"),
    ("ipam.audits", "count"),
    ("ipam.frag_permille", "permille"),
    ("ipam_sim.residual_ms", "ms"),
    ("serve.parse_us", "us"),
    ("service.artifact_us", "us"),
    ("service.artifact_bytes", "bytes"),
    ("ipam_service.post_us", "us"),
    ("ipam_service.put_us", "us"),
    ("ipam_service.delete_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.server_mean_ms", "ms"),
    ("serve.dispatch_residual_us", "us"),
    ("wire.transport_ms", "ms"),
    ("serve.keepalive_reuses", "count"),
    ("serve.admission_rejects", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.degraded", "count"),
    ("serve.worker_panics", "count"),
    ("wire.late_frac", "ratio"),
    ("wire.read_p90_ms", "ms"),
    ("wire.read_p99_ms", "ms"),
    ("wire.write_p50_ms", "ms"),
    ("wire.write_p90_ms", "ms"),
    ("wire.write_p99_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    held_out: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut held_out, mut record) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds takes an integer")?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--held-out" => held_out = true,
            "--record" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        held_out,
        record,
    })
}

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn world(args: &Args, worlds: (u64, u64)) -> u64 {
    if args.held_out {
        worlds.1
    } else {
        worlds.0
    }
}

fn record(args: &Args) -> Result<(), String> {
    match args.workload.as_str() {
        "batch-all" => batch::record(world(args, batch::WORLDS)),
        "ipam-churn" => churn::record(world(args, churn::WORLDS)),
        _ => wire::record(&repo_root(), world(args, wire::WORLDS)),
    }
}

fn measure(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "batch-all" => {
            check_derivations(&batch::DERIVATIONS, &batch::HARNESS_FIXED)?;
            batch::run(world(args, batch::WORLDS), seconds)
        }
        "ipam-churn" => {
            check_derivations(&churn::DERIVATIONS, &churn::HARNESS_FIXED)?;
            churn::run(world(args, churn::WORLDS), seconds)
        }
        _ => {
            check_derivations(&wire::DERIVATIONS, &wire::HARNESS_FIXED)?;
            wire::run(&repo_root(), world(args, wire::WORLDS), seed, seconds)
        }
    }
}

/// The traced run. Every traced run reports every per-layer metric, and
/// each layer is exercised by exactly one workload, so it runs the stage
/// tree of all three workloads one after another, the named one first.
fn traced(args: &Args) -> Result<Outcome, String> {
    let first = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .unwrap_or(0);
    let mut all = Outcome::default();
    for i in 0..WORKLOADS.len() {
        let name = WORKLOADS[(first + i) % WORKLOADS.len()];
        let part = match name {
            "batch-all" => batch::traced(world(args, batch::WORLDS)),
            "ipam-churn" => churn::traced(world(args, churn::WORLDS)),
            _ => wire::traced(
                &repo_root(),
                world(args, wire::WORLDS),
                args.seed,
                args.seconds,
            ),
        }
        .map_err(|e| format!("{name} traced: {e}"))?;
        all.note(format!("--- {name} traced stage tree ---"));
        all.report.extend(part.report);
        all.attempted += part.attempted;
        all.failed += part.failed;
        all.metrics.extend(part.metrics);
    }
    Ok(all)
}

/// Put the measured metrics in the declared order; refuse a missing or
/// undeclared metric, a unit mismatch or a value that is not finite.
fn complete(outcome: &mut Outcome, trace: bool) -> Result<(), String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let found = outcome.metrics.iter().find(|m| m.name == *name);
        match found {
            Some(m) if m.unit != *unit => {
                return Err(format!("{name} measured in {}, declared in {unit}", m.unit))
            }
            Some(m) if !m.value.is_finite() => return Err(format!("{name} is {}", m.value)),
            Some(m) => ordered.push(m.clone()),
            None => return Err(format!("the run did not measure {name}")),
        }
    }
    if let Some(extra) = outcome
        .metrics
        .iter()
        .find(|m| !declared.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("undeclared metric {}", extra.name));
    }
    outcome.metrics = ordered;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let measured = if args.trace {
        traced(&args)
    } else {
        measure(&args)
    };
    let mut outcome = match measured.and_then(|mut o| complete(&mut o, args.trace).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if outcome.attempted == 0 {
        outcome.check(false, || "the run attempted nothing".to_string());
    }
    println!(
        "{} seed {} ({}), {} s{}",
        args.workload,
        args.seed,
        if args.held_out {
            "held-out world"
        } else {
            "reference world"
        },
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for line in &outcome.report {
        println!("  {line}");
    }
    for m in &outcome.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  error_frac {:.6} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
