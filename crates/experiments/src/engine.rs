//! The experiment engine: one configuration's worlds and products, and
//! the fan-out that renders artifacts from them.
//!
//! `dynamips all` renders 22 artifacts from two simulated worlds. A
//! [`WarmSession`] owns everything one `(seed, atlas_scale, cdn_scale)`
//! configuration computes: the Atlas and CDN worlds, each built at most
//! once, and the analysis products, each filled at most once. Every
//! renderer reads the session, so a batch [`run`] and a served render
//! agree byte for byte.
//!
//! [`run`] is a cold session plus two fan-outs over the same helper:
//!
//! * phase A fills every product the request needs: one
//!   collect-and-sanitize pass over the Atlas world (the analysis, the
//!   clean histories, the sanitizer's distortion sums), beside the CDN
//!   analysis;
//! * phase B renders the requested artifacts.
//!
//! The calling thread is one of the workers; with one worker no thread
//! is spawned and everything runs on the caller in request order.
//! Results land in request-order slots and every renderer is a pure
//! function of the shared products, so the output is byte-identical
//! across worker counts.
//!
//! The engine also times every phase and artifact, returning a
//! [`PerfRecord`] the binary renders as the `--timings` table and writes
//! as `BENCH_all.json`.

use crate::context::{
    AtlasAnalysis, AtlasProducts, AtlasWants, CdnAnalysis, ExperimentConfig, ShortV4Share,
};
use crate::extended::{self, CleanHistories};
use crate::{atlas_exps, cdn_exps, check, claims};
use dynamips_core::degrade::DegradationReport;
use dynamips_core::perf::{PerfEntry, PerfRecord};
use dynamips_netsim::profiles::{atlas_world, cdn_world};
use dynamips_netsim::time::Window;
use dynamips_netsim::World;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::Instant;

/// The paper's Atlas-side artifacts.
pub const ATLAS_ARTIFACTS: [&str; 7] = ["table1", "fig1", "fig5", "fig6", "fig8", "fig9", "table2"];
/// The paper's CDN-side artifacts.
pub const CDN_ARTIFACTS: [&str; 4] = ["fig2", "fig3", "fig4", "fig7"];
/// The extended (Section-6) artifacts.
pub const EXTENDED_ARTIFACTS: [&str; 9] = [
    "evolution",
    "pools",
    "scanplan",
    "targetgen",
    "tracking",
    "counting",
    "anonymize",
    "blocklist",
    "sanitizer",
];

/// Extended artifacts driven by the shared clean-history collection.
const HISTORY_ARTIFACTS: [&str; 4] = ["evolution", "pools", "scanplan", "targetgen"];

/// Every artifact name the engine can render, in stable listing order
/// (Atlas, CDN, cross-cutting, extended): the `GET /artifacts` body.
pub fn artifact_names() -> Vec<&'static str> {
    ATLAS_ARTIFACTS
        .iter()
        .chain(CDN_ARTIFACTS.iter())
        .copied()
        .chain(["claims", "check", "seeds"])
        .chain(EXTENDED_ARTIFACTS.iter().copied())
        .collect()
}

/// The request `dynamips all` expands to: every artifact but `seeds`
/// (which multiplies the Atlas pipeline cost), in listing order.
pub fn all_artifacts() -> Vec<String> {
    artifact_names()
        .into_iter()
        .filter(|name| *name != "seeds")
        .map(String::from)
        .collect()
}

/// Is `name` an artifact the engine can render?
pub fn is_known_artifact(name: &str) -> bool {
    ATLAS_ARTIFACTS.contains(&name)
        || CDN_ARTIFACTS.contains(&name)
        || EXTENDED_ARTIFACTS.contains(&name)
        || matches!(name, "claims" | "check" | "seeds")
}

/// Resolve the worker count: explicit flag, then the `DYNAMIPS_THREADS`
/// environment variable, then the machine's available parallelism.
pub fn worker_count(flag: Option<usize>) -> usize {
    flag.or_else(|| {
        std::env::var("DYNAMIPS_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
    .unwrap_or_else(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
    .max(1)
}

/// One rendered artifact, in request order.
pub struct RenderedArtifact {
    /// The artifact name as requested.
    pub name: String,
    /// The rendered text.
    pub text: String,
    /// `false` only for a `check` whose predicates failed.
    pub ok: bool,
}

/// The engine's result: rendered artifacts plus the perf record.
pub struct EngineOutput {
    /// Artifacts in request order.
    pub artifacts: Vec<RenderedArtifact>,
    /// Wall-time accounting for `--timings` / `BENCH_all.json`.
    pub perf: PerfRecord,
}

/// Which shared products a request needs, derived per artifact and
/// unioned per request.
#[derive(Debug, Clone, Copy, Default)]
struct Needs {
    atlas: bool,
    cdn: bool,
    histories: bool,
    short_v4: bool,
    world: bool,
}

impl Needs {
    /// Products artifact `name` reads (see [`render_one`]).
    fn for_artifact(name: &str) -> Needs {
        // The sanitizer artifact prints the analysis's own sanitize report.
        let short_v4 = name == "sanitizer";
        let atlas =
            ATLAS_ARTIFACTS.contains(&name) || short_v4 || name == "claims" || name == "check";
        let cdn = CDN_ARTIFACTS.contains(&name) || name == "claims" || name == "check";
        let histories = HISTORY_ARTIFACTS.contains(&name);
        let world = atlas || histories || EXTENDED_ARTIFACTS.contains(&name);
        Needs {
            atlas,
            cdn,
            histories,
            short_v4,
            world,
        }
    }

    /// Union of per-artifact needs across a whole request.
    fn for_request(wanted: &[String]) -> Needs {
        wanted
            .iter()
            .map(|w| Needs::for_artifact(w))
            .fold(Needs::default(), |acc, n| Needs {
                atlas: acc.atlas || n.atlas,
                cdn: acc.cdn || n.cdn,
                histories: acc.histories || n.histories,
                short_v4: acc.short_v4 || n.short_v4,
                world: acc.world || n.world,
            })
    }
}

/// Render one artifact from the session's products. Returns the text and
/// whether it passed (only `check` can fail).
fn render_one(name: &str, s: &WarmSession) -> (String, bool) {
    let text = match name {
        "table1" => atlas_exps::table1(s.atlas_product()),
        "fig1" => atlas_exps::fig1(s.atlas_product()),
        "fig5" => atlas_exps::fig5(s.atlas_product()),
        "fig6" => atlas_exps::fig6(s.atlas_product()),
        "fig8" => atlas_exps::fig8(s.atlas_product()),
        "fig9" => atlas_exps::fig9(s.atlas_product()),
        "table2" => atlas_exps::table2(s.atlas_product()),
        "fig2" => cdn_exps::fig2(s.cdn_product()),
        "fig3" => cdn_exps::fig3(s.cdn_product()),
        "fig4" => cdn_exps::fig4(s.cdn_product()),
        "fig7" => cdn_exps::fig7(s.cdn_product()),
        "claims" => claims::render(s.atlas_product(), s.cdn_product()),
        "check" => return check::render_and_ok(s.atlas_product(), s.cdn_product()),
        "evolution" => extended::evolution_with(s.atlas_world(), s.histories_product()),
        "pools" => extended::pool_boundaries_with(s.atlas_world(), s.histories_product()),
        "scanplan" => extended::scan_plans_with(s.atlas_world(), s.histories_product()),
        "targetgen" => extended::target_generation_with(s.atlas_world(), s.histories_product()),
        "tracking" => extended::tracking_report_with(s.atlas_world()),
        "anonymize" => extended::anonymize_audit_with(s.atlas_world()),
        "blocklist" => extended::blocklist_sweep_with(s.atlas_world()),
        "counting" => extended::counting_report_with(s.atlas_world(), s.cfg.seed),
        "sanitizer" => extended::render_sanitizer(
            &s.atlas_product().sanitize,
            s.short_v4_product(),
            s.cfg.atlas_scale,
        ),
        "seeds" => extended::seed_robustness(&s.cfg),
        // `wanted` is prevalidated with is_known_artifact; if a name slips
        // through anyway, emit a failing artifact instead of panicking.
        other => return (format!("unknown artifact {other:?}\n"), false),
    };
    (text, true)
}

/// Start a wall-time measurement. Timings go to the perf record only,
/// never into artifact bytes.
#[allow(clippy::disallowed_methods, reason = "engine wall time")]
fn clock() -> Instant {
    Instant::now()
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

fn phase(name: &str, wall_ms: f64) -> PerfEntry {
    PerfEntry {
        name: name.into(),
        ms: wall_ms,
    }
}

/// Run `job(i)` for every `i < n` on up to `workers` threads and return
/// the results in index order. The calling thread is one of the workers:
/// it spawns `workers.min(n) - 1` scoped helpers and then drains the
/// shared index itself, so one worker spawns nothing and runs every job
/// on the caller in index order. A job's panic is re-raised here.
fn fan_out<T: Send + Sync>(workers: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        // The index deals each slot to exactly one worker.
        let _ = slot.set(job(i));
    };
    #[allow(clippy::disallowed_methods, reason = "scoped engine workers")]
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(drain)).collect();
        drain();
        for helper in helpers {
            crate::resume_worker(helper.join());
        }
    });
    // Every slot is set: each index was dealt, and a panicking job
    // re-raised above instead of leaving its slot empty.
    slots.into_iter().filter_map(OnceLock::into_inner).collect()
}

/// Compute every product the requested artifacts need (phase A, on a
/// cold session), then render the artifacts across `workers` threads
/// (phase B). `wanted` must already be validated with
/// [`is_known_artifact`].
pub fn run(cfg: &ExperimentConfig, wanted: &[String], workers: usize) -> EngineOutput {
    let started = clock();
    let session = WarmSession::warm(*cfg, workers);
    let phases = session.prepare(wanted);
    let (artifacts, artifact_times) = fan_out(workers, wanted.len(), |i| {
        let t = clock();
        let artifact = session.render_artifact(&wanted[i]);
        let time = phase(&artifact.name, ms(t));
        (artifact, time)
    })
    .into_iter()
    .unzip();
    let perf = PerfRecord {
        seed: cfg.seed,
        atlas_scale: cfg.atlas_scale,
        cdn_scale: cfg.cdn_scale,
        workers,
        worlds_built: session.worlds_built(),
        total_ms: ms(started),
        phases,
        artifacts: artifact_times,
    };
    EngineOutput { artifacts, perf }
}

/// One job of phase A ([`WarmSession::prepare`]).
#[derive(Debug, Clone, Copy)]
enum Job {
    /// One Atlas pass filling these products.
    Atlas(AtlasWants),
    /// The CDN world and its analysis.
    Cdn,
}

/// A warm, reusable render session for one configuration: worlds and
/// analysis products are computed on first demand and then retained, so
/// repeated [`WarmSession::render_artifact`] calls against the same
/// `(seed, atlas_scale, cdn_scale)` are pure lookups plus the renderer
/// itself. This is the serving layer's render-to-bytes entry point, and
/// [`run`] renders through it too.
///
/// The session is `Sync`: concurrent renders share the worlds and
/// products through `OnceLock`, which also guarantees each is built
/// exactly once even when many requests arrive before the first build
/// finishes.
pub struct WarmSession {
    cfg: ExperimentConfig,
    workers: usize,
    atlas_world: OnceLock<World>,
    cdn_world: OnceLock<World>,
    atlas: OnceLock<AtlasAnalysis>,
    cdn: OnceLock<CdnAnalysis>,
    histories: OnceLock<CleanHistories>,
    short_v4: OnceLock<ShortV4Share>,
}

impl WarmSession {
    /// A session for `cfg` whose analyses use `workers` threads on their
    /// first (cold) computation.
    pub fn warm(cfg: ExperimentConfig, workers: usize) -> WarmSession {
        WarmSession {
            cfg,
            workers: workers.max(1),
            atlas_world: OnceLock::new(),
            cdn_world: OnceLock::new(),
            atlas: OnceLock::new(),
            cdn: OnceLock::new(),
            histories: OnceLock::new(),
            short_v4: OnceLock::new(),
        }
    }

    /// The configuration this session renders under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Worlds constructed so far (at most two: Atlas + CDN).
    pub fn worlds_built(&self) -> usize {
        usize::from(self.atlas_world.get().is_some()) + usize::from(self.cdn_world.get().is_some())
    }

    /// Phase A: fill every product `wanted` needs that the session lacks,
    /// all Atlas products in one pass, beside the CDN analysis. Returns
    /// the timed phases, in order, of the work it did: `atlas-world`,
    /// `atlas-analysis`, `cdn-world`, `cdn-analysis`.
    fn prepare(&self, wanted: &[String]) -> Vec<PerfEntry> {
        let needs = Needs::for_request(wanted);
        let mut phases = Vec::new();
        if needs.world && self.atlas_world.get().is_none() {
            let t = clock();
            self.atlas_world();
            phases.push(phase("atlas-world", ms(t)));
        }
        let wants = AtlasWants {
            analysis: needs.atlas && self.atlas.get().is_none(),
            histories: needs.histories && self.histories.get().is_none(),
            short_v4: needs.short_v4 && self.short_v4.get().is_none(),
        };
        let jobs: Vec<Job> = (wants.analysis || wants.histories || wants.short_v4)
            .then_some(Job::Atlas(wants))
            .into_iter()
            .chain((needs.cdn && self.cdn.get().is_none()).then_some(Job::Cdn))
            .collect();
        phases.extend(
            fan_out(self.workers, jobs.len(), |i| self.run_job(jobs[i]))
                .into_iter()
                .flatten(),
        );
        phases
    }

    /// Run one phase-A job, timing its phases.
    fn run_job(&self, job: Job) -> Vec<PerfEntry> {
        let t = clock();
        match job {
            Job::Atlas(wants) => {
                let products = self.atlas_pass(wants);
                // A concurrent render may have filled a product first;
                // both are built by the same code from the same world.
                if wants.analysis {
                    let _ = self.atlas.set(products.analysis);
                }
                if wants.histories {
                    let _ = self.histories.set(products.histories);
                }
                if wants.short_v4 {
                    let _ = self.short_v4.set(products.short_v4);
                }
                vec![phase("atlas-analysis", ms(t))]
            }
            Job::Cdn => {
                self.cdn_world();
                let world_ms = ms(t);
                let t = clock();
                self.cdn_product();
                vec![phase("cdn-world", world_ms), phase("cdn-analysis", ms(t))]
            }
        }
    }

    fn atlas_world(&self) -> &World {
        self.atlas_world
            .get_or_init(|| atlas_world(self.cfg.seed, self.cfg.atlas_scale))
    }

    fn cdn_world(&self) -> &World {
        self.cdn_world
            .get_or_init(|| cdn_world(self.cfg.seed, self.cfg.cdn_scale))
    }

    /// One Atlas pass filling just `wants`.
    fn atlas_pass(&self, wants: AtlasWants) -> AtlasProducts {
        let mut deg = DegradationReport::new();
        AtlasProducts::collect(
            self.atlas_world(),
            Window::atlas_paper(),
            wants,
            self.workers,
            &mut deg,
        )
    }

    // A product that no `prepare` filled is built here on first use, one
    // pass per product, so a session that only serves figures never
    // retains histories.

    fn atlas_product(&self) -> &AtlasAnalysis {
        self.atlas.get_or_init(|| {
            self.atlas_pass(AtlasWants {
                analysis: true,
                ..AtlasWants::default()
            })
            .analysis
        })
    }

    fn cdn_product(&self) -> &CdnAnalysis {
        self.cdn.get_or_init(|| {
            let mut deg = DegradationReport::new();
            CdnAnalysis::compute_for_world(self.cdn_world(), &mut deg)
        })
    }

    fn histories_product(&self) -> &CleanHistories {
        self.histories.get_or_init(|| {
            self.atlas_pass(AtlasWants {
                histories: true,
                ..AtlasWants::default()
            })
            .histories
        })
    }

    fn short_v4_product(&self) -> &ShortV4Share {
        self.short_v4.get_or_init(|| {
            self.atlas_pass(AtlasWants {
                short_v4: true,
                ..AtlasWants::default()
            })
            .short_v4
        })
    }

    /// Render one artifact to text, computing (and caching) exactly the
    /// products it needs. `name` should be prevalidated with
    /// [`is_known_artifact`]; unknown names yield a failed artifact, not
    /// a panic.
    pub fn render_artifact(&self, name: &str) -> RenderedArtifact {
        let (text, ok) = render_one(name, self);
        RenderedArtifact {
            name: name.to_string(),
            text,
            ok,
        }
    }
}

/// Render the `--timings` table from a perf record.
pub fn render_timings(perf: &PerfRecord) -> String {
    use dynamips_core::report::TextTable;
    let mut t = TextTable::new(&["stage", "wall ms"]);
    for e in perf.phases.iter().chain(perf.artifacts.iter()) {
        t.row(&[e.name.clone(), format!("{:.1}", e.ms)]);
    }
    format!(
        "Engine timings: {} workers, {} world(s) built, {:.1} ms total\n\n{}",
        perf.workers,
        perf.worlds_built,
        perf.total_ms,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_session() -> WarmSession {
        let cfg = ExperimentConfig {
            seed: 7,
            atlas_scale: 0.02,
            cdn_scale: 0.02,
        };
        WarmSession::warm(cfg, 2)
    }

    /// Phase A fills every product of the `dynamips all` request, and
    /// both worlds, before any render, with the four phases in order.
    #[test]
    fn prepare_fills_every_product_before_any_render() {
        let session = cold_session();
        let phases = session.prepare(&all_artifacts());
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["atlas-world", "atlas-analysis", "cdn-world", "cdn-analysis"]
        );
        assert!(session.atlas_world.get().is_some(), "atlas world");
        assert!(session.cdn_world.get().is_some(), "cdn world");
        assert!(session.atlas.get().is_some(), "atlas analysis");
        assert!(session.cdn.get().is_some(), "cdn analysis");
        assert!(session.histories.get().is_some(), "clean histories");
        assert!(session.short_v4.get().is_some(), "short-v4 shares");
        assert_eq!(session.worlds_built(), 2);
        // A warm session has nothing left to prepare.
        assert!(session.prepare(&all_artifacts()).is_empty());
    }

    /// Concurrent first requests on one cold session build its world once.
    #[test]
    fn concurrent_renders_on_a_cold_session_build_one_world() {
        let session = cold_session();
        let start = std::sync::Barrier::new(4);
        #[allow(clippy::disallowed_methods, reason = "concurrent render requests")]
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    session.render_artifact("fig1")
                });
            }
        });
        assert_eq!(session.worlds_built(), 1);
    }

    #[test]
    fn worker_count_prefers_flag() {
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(0)), 1, "clamped to at least one");
        assert!(worker_count(None) >= 1);
    }

    #[test]
    fn parallel_run_matches_sequential_byte_for_byte() {
        let cfg = ExperimentConfig {
            seed: 11,
            atlas_scale: 0.02,
            cdn_scale: 0.02,
        };
        let wanted: Vec<String> = ["table1", "fig8", "fig3", "tracking", "evolution"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let seq = run(&cfg, &wanted, 1);
        let par = run(&cfg, &wanted, 4);
        assert_eq!(seq.artifacts.len(), par.artifacts.len());
        for (s, p) in seq.artifacts.iter().zip(par.artifacts.iter()) {
            assert_eq!(s.name, p.name, "request order preserved");
            assert_eq!(
                s.text, p.text,
                "artifact {} differs across worker counts",
                s.name
            );
            assert_eq!(s.ok, p.ok);
        }
        // Atlas world shared by analysis + histories + tracking; CDN world
        // for fig3: exactly two builds each run.
        assert_eq!(seq.perf.worlds_built, 2);
        assert_eq!(par.perf.worlds_built, 2);
        assert_eq!(par.perf.workers, 4);
        // The perf record round-trips through its JSON form.
        let back = PerfRecord::parse(&par.perf.to_json()).expect("perf json parses");
        assert_eq!(back.worlds_built, 2);
        assert_eq!(back.artifacts.len(), wanted.len());
        assert!(render_timings(&par.perf).contains("atlas-analysis"));
    }

    #[test]
    fn warm_session_matches_batch_run_and_reuses_products() {
        let cfg = ExperimentConfig {
            seed: 11,
            atlas_scale: 0.02,
            cdn_scale: 0.02,
        };
        let wanted: Vec<String> = ["fig1", "fig3", "evolution", "seeds"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let batch = run(&cfg, &wanted, 2);
        let session = WarmSession::warm(cfg, 2);
        for expected in &batch.artifacts {
            let warm = session.render_artifact(&expected.name);
            assert_eq!(warm.name, expected.name);
            assert_eq!(
                warm.text, expected.text,
                "warm render of {} differs from batch run",
                expected.name
            );
            assert_eq!(warm.ok, expected.ok);
        }
        // Repeat renders reuse the warm products: no additional worlds.
        let builds = session.worlds_built();
        assert_eq!(builds, 2, "atlas + cdn worlds");
        let again = session.render_artifact("fig1");
        assert_eq!(again.text, batch.artifacts[0].text);
        assert_eq!(session.worlds_built(), builds);
        // Unknown names degrade exactly like the batch path.
        let unknown = session.render_artifact("TYPO");
        assert!(!unknown.ok);
        assert!(unknown.text.contains("unknown artifact"));
    }

    #[test]
    fn known_artifact_names() {
        assert!(is_known_artifact("table1"));
        assert!(is_known_artifact("check"));
        assert!(is_known_artifact("sanitizer"));
        assert!(is_known_artifact("seeds"));
        assert!(!is_known_artifact("TYPO"));
        assert!(!is_known_artifact("all"));
    }
}
