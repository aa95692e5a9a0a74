//! `batch-all`: the paper-artifact batch pipeline, `engine::run` over all
//! 22 artifacts of `dynamips all` at the reference configuration.
//!
//! Chosen because every batch layer (netsim, atlas, cdn, core, extended
//! and the renderers) does its work here and in neither other workload.
//! The world is fixed per run (its seed changes the cost of a run by
//! ~10%), so the benchmark seed selects nothing here; `--held-out`
//! switches to the second recorded world.

use std::hint::black_box;
use std::time::Instant;

use dynamips_atlas::{AtlasCollector, AtlasConfig};
use dynamips_cdn::{CdnCollector, CdnConfig};
use dynamips_core::degrade::DegradationReport;
use dynamips_core::sanitize::{sanitize_probe, SanitizeConfig, SanitizeOutcome, SanitizeReport};
use dynamips_experiments::{
    atlas_exps, cdn_exps, check, claims, engine, extended, AtlasAnalysis, CdnAnalysis,
    ExperimentConfig,
};
use dynamips_netsim::profiles::{atlas_world, cdn_world};
use dynamips_netsim::{Window, World};

use crate::common::{
    cpu_ms, fnv64, median, ms_since, peak_rss_mb, Derivation, Metric, Oracle, Outcome,
};
use crate::trace::Stage;

/// Per-artifact FNV-1a digests recorded at the parent commit.
const ORACLE: &str = include_str!("../oracles/batch-all.txt");
/// The reference world (`dynamips check` passes on it) and the held-out one.
pub const WORLDS: (u64, u64) = (2020, 20201201);
const ATLAS_SCALE: f64 = 0.2;
const CDN_SCALE: f64 = 0.15;
/// One worker: with two, peak RSS depends on which phase-A branch
/// finishes first (767-922 MB over five runs); with one it is 704-716 MB.
/// The two-worker fan-out is measured by the traced run instead.
const WORKERS: usize = 1;
/// The fan-out `dynamips all` uses on this two-core machine.
const FANOUT_WORKERS: usize = 2;
/// Repetitions of the set-up scope; its median is `setup_s`.
const SETUP_REPS: usize = 9;

pub const DERIVATIONS: [Derivation; 4] = [
    Derivation {
        metric: "setup_s",
        num: "setup_time",
        den: "setup_reps",
    },
    Derivation {
        metric: "latency_ms",
        num: "engine_wall",
        den: "engine_runs",
    },
    Derivation {
        metric: "cpu_ms",
        num: "process_cpu",
        den: "engine_runs",
    },
    Derivation {
        metric: "peak_rss_mb",
        num: "process_vmhwm",
        den: "1",
    },
];
pub const HARNESS_FIXED: [&str; 2] = ["setup_reps", "engine_runs"];

fn config(world: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: world,
        atlas_scale: ATLAS_SCALE,
        cdn_scale: CDN_SCALE,
    }
}

/// The artifact list of `dynamips all`, in its order.
fn all_artifacts() -> Vec<String> {
    engine::ATLAS_ARTIFACTS
        .iter()
        .chain(engine::CDN_ARTIFACTS.iter())
        .chain(["claims", "check"].iter())
        .chain(engine::EXTENDED_ARTIFACTS.iter())
        .map(|s| s.to_string())
        .collect()
}

/// What `dynamips all` does before its first engine call: validate the
/// request, load the oracle table, and construct both worlds (lazy
/// today; work moved into world construction shows here).
fn set_up(world: u64) -> Result<(Vec<String>, Oracle), String> {
    let names = all_artifacts();
    if let Some(bad) = names.iter().find(|n| !engine::is_known_artifact(n)) {
        return Err(format!("engine does not know artifact {bad:?}"));
    }
    let oracle = Oracle::parse(ORACLE)?;
    if !oracle.has_world(world) {
        return Err(format!("no recorded digests for world {world}"));
    }
    black_box(atlas_world(world, ATLAS_SCALE));
    black_box(cdn_world(world, CDN_SCALE));
    Ok((names, oracle))
}

fn check_artifact(
    out: &mut Outcome,
    oracle: &Oracle,
    world: u64,
    name: &str,
    text: &str,
    ok: bool,
) {
    let got = format!("{:016x}", fnv64(text.as_bytes()));
    let want = oracle.get(world, name);
    out.check(ok && want == Some(got.as_str()), || {
        format!("batch-all {name}: ok={ok} digest {got}, recorded {want:?}")
    });
}

/// Print the oracle rows of `world` (run on a trusted commit only).
pub fn record(world: u64) -> Result<(), String> {
    let output = engine::run(&config(world), &all_artifacts(), WORKERS);
    if let Some(bad) = output.artifacts.iter().find(|a| !a.ok) {
        return Err(format!("{} failed its own check; not recordable", bad.name));
    }
    for a in &output.artifacts {
        println!("{world} {} {:016x}", a.name, fnv64(a.text.as_bytes()));
    }
    Ok(())
}

pub fn run(world: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(set_up(world)?);
        setups.push(ms_since(t));
    }
    let (names, oracle) = prepared.ok_or("no set-up ran")?;
    let cfg = config(world);

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let budget_ms = seconds as f64 * 1e3;
    let started = Instant::now();
    loop {
        let cpu0 = cpu_ms(None)?;
        let t = Instant::now();
        let output = engine::run(&cfg, &names, WORKERS);
        let wall = ms_since(t);
        cpus.push(cpu_ms(None)? - cpu0);
        walls.push(wall);
        for a in &output.artifacts {
            check_artifact(&mut out, &oracle, world, &a.name, &a.text, a.ok);
        }
        out.note(format!(
            "engine::run #{}: {wall:.1} ms wall, {:.0} ms cpu, {} artifacts",
            walls.len(),
            cpus[cpus.len() - 1],
            output.artifacts.len()
        ));
        // Stop when another run would overrun the measuring time.
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

/// Every renderer of `engine::run`'s fan-out, called directly.
fn render(
    name: &str,
    cfg: &ExperimentConfig,
    atlas: &AtlasAnalysis,
    cdn: &CdnAnalysis,
    world: &World,
    histories: &extended::CleanHistories,
) -> (String, bool) {
    let text = match name {
        "table1" => atlas_exps::table1(atlas),
        "fig1" => atlas_exps::fig1(atlas),
        "fig5" => atlas_exps::fig5(atlas),
        "fig6" => atlas_exps::fig6(atlas),
        "fig8" => atlas_exps::fig8(atlas),
        "fig9" => atlas_exps::fig9(atlas),
        "table2" => atlas_exps::table2(atlas),
        "fig2" => cdn_exps::fig2(cdn),
        "fig3" => cdn_exps::fig3(cdn),
        "fig4" => cdn_exps::fig4(cdn),
        "fig7" => cdn_exps::fig7(cdn),
        "claims" => claims::render(atlas, cdn),
        "check" => return check::render_and_ok(atlas, cdn),
        "evolution" => extended::evolution_with(world, histories),
        "pools" => extended::pool_boundaries_with(world, histories),
        "scanplan" => extended::scan_plans_with(world, histories),
        "targetgen" => extended::target_generation_with(world, histories),
        "tracking" => extended::tracking_report_with(world),
        "anonymize" => extended::anonymize_audit_with(world),
        "blocklist" => extended::blocklist_sweep_with(world),
        "counting" => extended::counting_report_with(world, cfg.seed),
        "sanitizer" => extended::sanitizer_report_with(world, cfg.atlas_scale),
        other => return (format!("no renderer for {other:?}"), false),
    };
    (text, true)
}

/// Renderers reported on their own; the rest are summed as `render.other_ms`.
const NAMED_RENDERS: [&str; 6] = [
    "targetgen",
    "sanitizer",
    "pools",
    "scanplan",
    "claims",
    "check",
];

pub fn traced(world: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (names, oracle) = set_up(world)?;
    let cfg = config(world);
    let window = Window::atlas_paper();
    let started = Instant::now();

    // Measurement passes: simulation alone, then simulation + probe
    // observation with every sanitize call timed.
    let probe_world = atlas_world(world, ATLAS_SCALE);
    let (mut isp_runs, mut timelines) = (0u64, 0u64);
    let t = Instant::now();
    probe_world.run_each(window, |r| {
        isp_runs += 1;
        timelines += r.timelines.len() as u64;
        black_box(r);
    });
    let simulate_ms = ms_since(t);

    let collector = AtlasCollector::new(&probe_world, window, AtlasConfig::default());
    let (sanitize_cfg, mut report) = (SanitizeConfig::default(), SanitizeReport::default());
    let (mut probes, mut clean, mut sanitize_ms) = (0u64, 0u64, 0.0);
    let t = Instant::now();
    collector.for_each_probe(|series| {
        probes += 1;
        let ts = Instant::now();
        let outcome = sanitize_probe(&series, probe_world.routing(), &sanitize_cfg, &mut report);
        sanitize_ms += ms_since(ts);
        if matches!(outcome, SanitizeOutcome::Clean(_)) {
            clean += 1;
        }
    });
    let probe_pass = Stage::node(
        "atlas.probe_pass",
        ms_since(t),
        vec![
            Stage::leaf("netsim.simulate", simulate_ms),
            Stage::leaf("core.sanitize", sanitize_ms),
        ],
        "atlas.observe",
    );
    let observe_ms = probe_pass.residual().map_or(0.0, |r| r.ms);
    let collection = || {
        vec![
            Stage::leaf("netsim.simulate", simulate_ms),
            Stage::leaf("atlas.observe", observe_ms),
        ]
    };

    // The sequential equivalent of engine::run, one layer call at a time.
    let seq_started = Instant::now();
    let t = Instant::now();
    let aw = atlas_world(world, ATLAS_SCALE);
    let cw = cdn_world(world, CDN_SCALE);
    let world_ms = ms_since(t);

    let mut deg = DegradationReport::new();
    let t = Instant::now();
    let atlas_collector = AtlasCollector::new(&aw, window, AtlasConfig::default());
    let atlas = AtlasAnalysis::compute_with(
        &aw,
        window,
        |sink| atlas_collector.for_each_probe(sink),
        &mut deg,
    );
    let mut atlas_children = collection();
    atlas_children.push(Stage::leaf("core.sanitize", sanitize_ms));
    let atlas_node = Stage::node(
        "core.atlas_analysis",
        ms_since(t),
        atlas_children,
        "core.accumulate",
    );

    let t = Instant::now();
    let dataset = CdnCollector::new(&cw, Window::cdn_paper(), CdnConfig::default()).collect();
    let cdn_collect_ms = ms_since(t);
    let associations = dataset.len() as f64;
    let t = Instant::now();
    let cdn = CdnAnalysis::compute_from_dataset(&cw, &dataset, &mut deg);
    let cdn_analysis_ms = ms_since(t);

    let t = Instant::now();
    let histories = extended::clean_histories(&aw, window);
    let hist_node = Stage::node(
        "extended.clean_histories",
        ms_since(t),
        collection(),
        "extended.histories",
    );

    let mut renders = Vec::with_capacity(names.len());
    for name in &names {
        let t = Instant::now();
        let (text, ok) = render(name, &cfg, &atlas, &cdn, &aw, &histories);
        renders.push(Stage::leaf(&format!("render.{name}"), ms_since(t)));
        check_artifact(&mut out, &oracle, world, name, &text, ok);
    }
    let mut seq_children = vec![
        Stage::leaf("netsim.world", world_ms),
        atlas_node,
        Stage::leaf("cdn.collect", cdn_collect_ms),
        Stage::leaf("core.cdn_analysis", cdn_analysis_ms),
        hist_node,
    ];
    seq_children.extend(renders);
    let sequential = Stage::node(
        "engine.sequential",
        ms_since(seq_started),
        seq_children,
        "engine.residual",
    );
    drop((atlas, cdn, histories, dataset));

    // Untraced references: the same work on one worker (tracing
    // overhead) and on two (fan-out overlap).
    let t = Instant::now();
    let one = engine::run(&cfg, &names, WORKERS);
    let one_worker_ms = ms_since(t);
    let t = Instant::now();
    let two = engine::run(&cfg, &names, FANOUT_WORKERS);
    let wall_ms = ms_since(t);
    for a in one.artifacts.iter().chain(two.artifacts.iter()) {
        check_artifact(&mut out, &oracle, world, &a.name, &a.text, a.ok);
    }
    let root = Stage::node(
        "batch-all traced run",
        ms_since(started),
        vec![
            probe_pass.clone(),
            sequential.clone(),
            Stage::leaf("engine::run untraced, 1 worker", one_worker_ms),
            Stage::leaf("engine::run untraced, 2 workers", wall_ms),
        ],
        "trace.residual",
    );
    root.check(0.10)
        .map_err(|e| format!("stage tree does not close: {e}"))?;
    out.report.extend(root.render());
    out.note(format!(
        "tracing overhead: traced sequential {:.1} ms - untraced 1-worker {:.1} ms = {:+.1} ms",
        sequential.ms,
        one_worker_ms,
        sequential.ms - one_worker_ms
    ));

    let stage = |name: &str| -> f64 {
        fn find<'a>(s: &'a Stage, name: &str) -> Option<&'a Stage> {
            if s.name == name {
                return Some(s);
            }
            s.children.iter().find_map(|c| find(c, name))
        }
        find(&sequential, name).map_or(0.0, |s| s.ms)
    };
    let named: f64 = NAMED_RENDERS
        .iter()
        .map(|n| stage(&format!("render.{n}")))
        .sum();
    let all_renders: f64 = names.iter().map(|n| stage(&format!("render.{n}"))).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.metrics = vec![
        Metric::new("netsim.world_ms", world_ms, "ms"),
        Metric::new("netsim.simulate_ms", simulate_ms, "ms"),
        Metric::new("netsim.isp_runs", isp_runs as f64, "count"),
        Metric::new("netsim.timelines", timelines as f64, "count"),
        Metric::new("atlas.observe_ms", observe_ms, "ms"),
        Metric::new("atlas.probes", probes as f64, "count"),
        Metric::new("core.sanitize_ms", sanitize_ms, "ms"),
        Metric::new(
            "core.clean_ratio",
            ratio(clean as f64, probes as f64),
            "ratio",
        ),
        Metric::new("core.accumulate_ms", stage("core.accumulate"), "ms"),
        Metric::new("cdn.collect_ms", cdn_collect_ms, "ms"),
        Metric::new("cdn.associations", associations, "count"),
        Metric::new("core.cdn_analysis_ms", cdn_analysis_ms, "ms"),
        Metric::new("extended.histories_ms", stage("extended.histories"), "ms"),
        Metric::new("render.targetgen_ms", stage("render.targetgen"), "ms"),
        Metric::new("render.sanitizer_ms", stage("render.sanitizer"), "ms"),
        Metric::new("render.pools_ms", stage("render.pools"), "ms"),
        Metric::new("render.scanplan_ms", stage("render.scanplan"), "ms"),
        Metric::new("render.claims_ms", stage("render.claims"), "ms"),
        Metric::new("render.check_ms", stage("render.check"), "ms"),
        Metric::new("render.other_ms", all_renders - named, "ms"),
        Metric::new("engine.residual_ms", stage("engine.residual"), "ms"),
        Metric::new(
            "engine.overlap_ratio",
            ratio(sequential.ms, wall_ms),
            "ratio",
        ),
    ];
    Ok(out)
}
