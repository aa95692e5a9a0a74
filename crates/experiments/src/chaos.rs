//! The `dynamips chaos` adversarial-ingest sweep.
//!
//! Serializes both datasets to their TSV dump form, damages the dumps with
//! the seeded fault injector of `dynamips-chaos` at a sweep of corruption
//! rates, re-ingests them through the lossy loaders, and runs the full
//! analysis pipeline plus the paper-shape self-check on whatever survived.
//! Three things are verified:
//!
//! 1. **No panics at any rate** — the pipeline must degrade, never abort.
//! 2. **Shape stability below a threshold** — at corruption rates at or
//!    below `fail_threshold`, every paper-shape predicate must still hold.
//! 3. **Attribution** — every record dropped on ingest is accounted to an
//!    error class in the [`DegradationReport`].
//!
//! The `(rate, seed)` rounds are independent given the shared baseline and
//! run one at a time: each holds a damaged multi-GB copy of the dumps at
//! reference scale.

use crate::check;
use crate::context::{AtlasAnalysis, CdnAnalysis, ExperimentConfig};
use dynamips_atlas::{records, AtlasCollector, AtlasConfig, ProbeId, ProbeSeries};
use dynamips_cdn::{dataset as cdn_dataset, CdnCollector, CdnConfig};
use dynamips_chaos::corrupt_tsv;
use dynamips_core::degrade::DegradationReport;
use dynamips_core::report::TextTable;
use dynamips_netsim::profiles::{atlas_world, cdn_world};
use dynamips_netsim::time::Window;
use dynamips_netsim::World;
use dynamips_routing::Asn;
#[allow(
    clippy::disallowed_types,
    reason = "keyed lookups only; never iterated"
)]
use std::collections::HashMap;

/// Sweep configuration for `dynamips chaos`.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Corruption rates to sweep (per-line fault probability).
    pub rates: Vec<f64>,
    /// Independent corruption seeds per rate.
    pub seeds: u32,
    /// Highest rate at which every paper-shape predicate must still pass;
    /// above it only panic-freedom is required.
    pub fail_threshold: f64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            rates: vec![0.0, 0.01, 0.05, 0.2, 0.5],
            seeds: 3,
            fail_threshold: 0.02,
        }
    }
}

/// Result of one sweep: the rendered report and whether it met the bar.
pub struct ChaosOutcome {
    /// Rendered report text.
    pub text: String,
    /// False if any shape predicate failed at a rate `<= fail_threshold`.
    pub ok: bool,
}

/// Serialized baseline datasets plus the sidecar metadata the TSV form
/// does not carry.
struct Baseline {
    atlas_world: World,
    atlas_window: Window,
    atlas_tsv: String,
    /// Probe → (AS, tags): series metadata not present in the IP-echo TSV.
    #[allow(
        clippy::disallowed_types,
        reason = "keyed lookups only; never iterated"
    )]
    probe_meta: HashMap<ProbeId, (Asn, Vec<String>)>,
    cdn_world: World,
    cdn_window: Window,
    cdn_tsv: String,
}

fn baseline(cfg: &ExperimentConfig) -> Baseline {
    let atlas_world = atlas_world(cfg.seed, cfg.atlas_scale);
    let atlas_window = Window::atlas_paper();
    let collector = AtlasCollector::new(&atlas_world, atlas_window, AtlasConfig::default());
    let mut atlas_tsv = String::new();
    #[allow(
        clippy::disallowed_types,
        reason = "keyed lookups only; never iterated"
    )]
    let mut probe_meta = HashMap::new();
    collector.for_each_probe(|s| {
        atlas_tsv.push_str(&records::to_tsv(s.probe, &s.v4, &s.v6));
        probe_meta.insert(s.probe, (s.asn, s.tags.clone()));
    });

    let cdn_world = cdn_world(cfg.seed, cfg.cdn_scale);
    let cdn_window = Window::cdn_paper();
    let cdn_ds = CdnCollector::new(&cdn_world, cdn_window, CdnConfig::default()).collect();
    let cdn_tsv = cdn_dataset::to_tsv(&cdn_ds);

    Baseline {
        atlas_world,
        atlas_window,
        atlas_tsv,
        probe_meta,
        cdn_world,
        cdn_window,
        cdn_tsv,
    }
}

/// Outcome of one (rate, seed) round.
struct Round {
    passed: usize,
    total: usize,
    /// `artifact: shape` labels of the predicates that failed.
    failed: Vec<String>,
    /// Records recovered by the lossy loaders relative to the lines the
    /// injector left untouched (can exceed 1: repaired/colliding lines
    /// still parse).
    recovery: f64,
    faults: u64,
}

/// Corrupt, re-ingest, analyze, self-check — one round. Ingest quarantines
/// are recorded in `deg` under stages `"ingest-atlas"` / `"ingest-cdn"`;
/// downstream stages add their own entries.
fn run_one(b: &Baseline, corruption_seed: u64, rate: f64, deg: &mut DegradationReport) -> Round {
    // Atlas: dump → corrupt → lossy ingest → series (metadata sidecar).
    let (atlas_damaged, alog) = corrupt_tsv(&b.atlas_tsv, corruption_seed ^ 0xA71A5, rate);
    let (parsed, errors) = records::from_tsv_lossy(&atlas_damaged);
    // The damaged dump is multi-GB at reference scale; release it before
    // the analysis allocates.
    drop(atlas_damaged);
    for e in &errors {
        if e.kind.drops_record() {
            deg.record("ingest-atlas", e.kind.class());
        } else {
            deg.record("ingest-atlas-repair", e.kind.class());
        }
    }
    let mut atlas_recovered = 0u64;
    let series: Vec<ProbeSeries> = parsed
        .into_iter()
        .filter_map(|(probe, mut v4, mut v6)| {
            let n = (v4.len() + v6.len()) as u64;
            match b.probe_meta.get(&probe) {
                Some((asn, tags)) => {
                    // Skewed-but-parseable timestamps land outside the
                    // collection window; quarantine them here so they
                    // cannot distort the duration analyses.
                    v4.retain(|r| b.atlas_window.contains(r.time));
                    v6.retain(|r| b.atlas_window.contains(r.time));
                    let kept = (v4.len() + v6.len()) as u64;
                    deg.record_many("ingest-atlas", "out-of-window", n - kept);
                    atlas_recovered += kept;
                    Some(ProbeSeries {
                        probe,
                        asn: *asn,
                        tags: tags.clone(),
                        v4,
                        v6,
                    })
                }
                None => {
                    // A fault invented a probe id the collection never
                    // issued; without metadata the records are unusable.
                    deg.record_many("ingest-atlas", "unknown-probe", n);
                    None
                }
            }
        })
        .collect();
    let a = AtlasAnalysis::compute_from_series(&b.atlas_world, b.atlas_window, series, deg);

    // CDN: dump → corrupt → lossy ingest → dataset.
    let (cdn_damaged, clog) = corrupt_tsv(&b.cdn_tsv, corruption_seed ^ 0xCD11, rate);
    let (mut ds, cerrors) = cdn_dataset::from_tsv_lossy(&cdn_damaged);
    drop(cdn_damaged);
    for e in &cerrors {
        deg.record("ingest-cdn", e.kind.class());
    }
    let day_lo = b.cdn_window.start.days() as u32;
    let day_hi = day_lo + b.cdn_window.days() as u32;
    let before = ds.tuples.len();
    ds.tuples.retain(|t| (day_lo..day_hi).contains(&t.day));
    deg.record_many(
        "ingest-cdn",
        "out-of-window",
        (before - ds.tuples.len()) as u64,
    );
    let cdn_recovered = ds.len() as u64;
    let c = CdnAnalysis::compute_from_dataset(&b.cdn_world, &ds, deg);

    let checks = check::run_checks(&a, &c);
    let clean = (alog.clean_lines + clog.clean_lines) as u64;
    Round {
        passed: checks.iter().filter(|c| c.pass).count(),
        total: checks.len(),
        failed: checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("{}: {} (measured {})", c.artifact, c.shape, c.measured))
            .collect(),
        recovery: if clean == 0 {
            1.0
        } else {
            (atlas_recovered + cdn_recovered) as f64 / clean as f64
        },
        faults: alog.total() + clog.total(),
    }
}

/// Run every `(rate, seed)` round, one at a time, in job order. A round
/// materializes a damaged copy of both dumps plus everything the lossy
/// loaders recover from them (9.3 GB peak at reference scale), so two
/// rounds in flight do not fit a 16 GB machine. A panicking round panics
/// the sweep: the whole point of the harness is that no input may panic
/// the pipeline.
fn run_rounds(b: &Baseline, jobs: &[(f64, u64)]) -> Vec<(Round, DegradationReport)> {
    jobs.iter()
        .map(|&(rate, corruption_seed)| {
            let mut deg = DegradationReport::new();
            let round = run_one(b, corruption_seed, rate, &mut deg);
            (round, deg)
        })
        .collect()
}

/// Run the sweep and render the report.
pub fn run(cfg: &ExperimentConfig, opts: &ChaosOptions) -> ChaosOutcome {
    let b = baseline(cfg);
    let seeds = opts.seeds.max(1);
    let seed_base = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let jobs: Vec<(f64, u64)> = opts
        .rates
        .iter()
        .enumerate()
        .flat_map(|(ri, &rate)| {
            (0..seeds).map(move |k| (rate, seed_base.wrapping_add(((ri as u64) << 32) | k as u64)))
        })
        .collect();
    let rounds = run_rounds(&b, &jobs);

    let mut ok = true;
    let mut t = TextTable::new(&[
        "rate",
        "seeds",
        "faults",
        "quarantined",
        "shapes (min)",
        "recovery (min)",
    ]);
    let mut degradations: Vec<(f64, DegradationReport)> = Vec::new();
    let mut failures: Vec<(f64, std::collections::BTreeSet<String>)> = Vec::new();

    for (ri, &rate) in opts.rates.iter().enumerate() {
        let mut deg = DegradationReport::new();
        let mut faults = 0u64;
        let mut min_passed = usize::MAX;
        let mut total = 0usize;
        let mut min_recovery = f64::INFINITY;
        let mut failed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for (round, round_deg) in &rounds[ri * seeds as usize..(ri + 1) * seeds as usize] {
            deg.merge(round_deg);
            faults += round.faults;
            min_passed = min_passed.min(round.passed);
            total = round.total;
            min_recovery = min_recovery.min(round.recovery);
            failed.extend(round.failed.iter().cloned());
        }
        if rate <= opts.fail_threshold && min_passed < total {
            ok = false;
            failures.push((rate, failed));
        }
        t.row(&[
            format!("{rate:.3}"),
            seeds.to_string(),
            faults.to_string(),
            deg.total().to_string(),
            format!("{min_passed}/{total}"),
            format!("{:.1}%", 100.0 * min_recovery.min(9.99)),
        ]);
        degradations.push((rate, deg));
    }

    let mut text = format!(
        "Adversarial ingest sweep (seed {}, atlas scale {}, cdn scale {}):\n\
         every run completed without panicking; shape predicates must all\n\
         hold at corruption rates <= {}.\n\n{}",
        cfg.seed,
        cfg.atlas_scale,
        cfg.cdn_scale,
        opts.fail_threshold,
        t.render()
    );
    for (rate, failed) in &failures {
        text.push_str(&format!("\nfailing shapes at rate {rate:.3}:\n"));
        for f in failed {
            text.push_str(&format!("  - {f}\n"));
        }
    }
    for (rate, deg) in &degradations {
        if !deg.is_clean() {
            text.push_str(&format!(
                "\ndegradation report at rate {rate:.3} ({} seeds merged):\n{}",
                seeds,
                deg.render()
            ));
        }
    }
    text.push_str(if ok {
        "\nchaos: OK — lossy ingest held every paper shape below the threshold"
    } else {
        "\nchaos: FAIL — shape predicates broke at a rate within the threshold"
    });
    ChaosOutcome { text, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        // Smaller than `ExperimentConfig::small`: every test serializes,
        // corrupts, and re-ingests the dumps, so dump size is the cost.
        ExperimentConfig {
            seed: 11,
            atlas_scale: 0.02,
            cdn_scale: 0.02,
        }
    }

    /// World building dominates these tests; share one baseline.
    fn shared_baseline() -> &'static Baseline {
        static BASELINE: std::sync::OnceLock<Baseline> = std::sync::OnceLock::new();
        BASELINE.get_or_init(|| baseline(&cfg()))
    }

    #[test]
    fn identity_rate_matches_direct_compute() {
        // Round-tripping through TSV + lossy ingest with rate 0 must
        // reproduce the collector-fed analysis exactly.
        let cfg = cfg();
        let b = shared_baseline();
        let mut deg = DegradationReport::new();
        let round = run_one(b, 1, 0.0, &mut deg);
        let direct = {
            let a = AtlasAnalysis::compute(&cfg);
            let c = CdnAnalysis::compute(&cfg);
            check::run_checks(&a, &c)
        };
        assert_eq!(round.total, direct.len());
        let direct_passed = direct.iter().filter(|c| c.pass).count();
        assert_eq!(round.passed, direct_passed);
        assert!((round.recovery - 1.0).abs() < 1e-12, "{}", round.recovery);
        // Rate 0 injects nothing, so only sanitize/association stages may
        // appear — never ingest quarantines.
        assert_eq!(deg.stage_total("ingest-atlas"), 0);
        assert_eq!(deg.stage_total("ingest-cdn"), 0);
    }

    #[test]
    fn heavy_corruption_degrades_without_panicking() {
        let b = shared_baseline();
        let mut deg = DegradationReport::new();
        let round = run_one(b, 7, 0.5, &mut deg);
        assert!(round.faults > 0);
        assert!(
            deg.stage_total("ingest-atlas") + deg.stage_total("ingest-cdn") > 0,
            "heavy corruption must quarantine something:\n{}",
            deg.render()
        );
    }

    #[test]
    fn light_corruption_recovers_nearly_everything() {
        let b = shared_baseline();
        for seed in 0..3 {
            let mut deg = DegradationReport::new();
            let round = run_one(b, seed, 0.01, &mut deg);
            assert!(
                round.recovery >= 0.99,
                "seed {seed}: only {:.4} recovered",
                round.recovery
            );
        }
    }

    #[test]
    fn sweep_renders_and_reports_ok_flag() {
        let cfg = cfg();
        let opts = ChaosOptions {
            rates: vec![0.0, 0.3],
            seeds: 1,
            // The small test worlds don't satisfy the reference-scale
            // shape predicates, so put the bar below every swept rate and
            // only exercise the plumbing.
            fail_threshold: -1.0,
        };
        let out = run(&cfg, &opts);
        assert!(out.ok);
        assert!(out.text.contains("degradation report at rate 0.300"));
        assert!(out.text.contains("chaos: OK"), "{}", out.text);
    }
}
