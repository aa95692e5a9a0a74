//! Cached, parallel experiment engine.
//!
//! `dynamips all` renders 22 artifacts from two simulated worlds. The
//! naive pipeline rebuilt the Atlas world once per extended artifact
//! (9×) and rendered everything sequentially. This module fixes both:
//!
//! * [`WorldCache`] keys worlds by `(era, seed, scale)` and constructs
//!   each distinct world exactly once, handing out `Arc<World>` clones to
//!   every consumer (analyses, history collection, extended renderers).
//! * [`run`] derives every Atlas product the request needs (the
//!   analysis, the clean histories, the sanitizer's distortion sums) from
//!   one collect-and-sanitize pass over the Atlas world, concurrently
//!   with the CDN analysis, then fans the independent artifact renderers
//!   across a worker pool. Results are returned in request order and
//!   every renderer is a pure function of the shared analysis products,
//!   so the output is byte-identical to a `workers == 1` run.
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
use dynamips_netsim::profiles::{atlas_world, cdn_world, Era};
use dynamips_netsim::time::Window;
use dynamips_netsim::World;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

/// Is `name` an artifact the engine can render?
pub fn is_known_artifact(name: &str) -> bool {
    ATLAS_ARTIFACTS.contains(&name)
        || CDN_ARTIFACTS.contains(&name)
        || EXTENDED_ARTIFACTS.contains(&name)
        || matches!(name, "claims" | "check" | "seeds")
}

/// Cache key: a world is fully determined by its era, seed, and scale.
/// Scale is keyed by bit pattern so the map never compares floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WorldKey {
    era: Era,
    seed: u64,
    scale_bits: u64,
}

/// Shared world cache: each distinct `(era, seed, scale)` world is built
/// exactly once, even under concurrent requests, and shared via `Arc`.
#[derive(Default)]
pub struct WorldCache {
    worlds: Mutex<HashMap<WorldKey, Arc<OnceLock<Arc<World>>>>>,
    builds: AtomicUsize,
}

impl WorldCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or build the world for `(era, seed, scale)`.
    pub fn world_for(&self, era: Era, seed: u64, scale: f64) -> Arc<World> {
        let key = WorldKey {
            era,
            seed,
            scale_bits: scale.to_bits(),
        };
        // Hold the map lock only to fetch the slot; construction happens
        // outside it so concurrent requests for *different* worlds build
        // in parallel, while OnceLock serializes requests for the same one.
        let slot = {
            // A poisoned map only means another thread panicked mid-insert;
            // the entry API keeps the map structurally sound, so recover.
            let mut map = self
                .worlds
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            map.entry(key).or_default().clone()
        };
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(match era {
                Era::Atlas => atlas_world(seed, scale),
                Era::Cdn => cdn_world(seed, scale),
            })
        })
        .clone()
    }

    /// The Atlas-era world for `(seed, scale)`.
    pub fn atlas(&self, seed: u64, scale: f64) -> Arc<World> {
        self.world_for(Era::Atlas, seed, scale)
    }

    /// The CDN-era world for `(seed, scale)`.
    pub fn cdn(&self, seed: u64, scale: f64) -> Arc<World> {
        self.world_for(Era::Cdn, seed, scale)
    }

    /// How many worlds were actually constructed (cache misses).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
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

/// Which shared products a request needs. Derived per artifact and
/// unioned per request, so batch runs ([`run`]) and warm sessions
/// ([`WarmSession`]) agree exactly on what phase A must compute.
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

    /// The Atlas products one pass must fill, if any.
    fn atlas_wants(&self) -> Option<AtlasWants> {
        (self.atlas || self.histories || self.short_v4).then_some(AtlasWants {
            analysis: self.atlas,
            histories: self.histories,
            short_v4: self.short_v4,
        })
    }
}

/// Everything a renderer may need, shared read-only across workers.
struct EngineContext<'a> {
    cfg: &'a ExperimentConfig,
    atlas: Option<&'a AtlasAnalysis>,
    cdn: Option<&'a CdnAnalysis>,
    histories: Option<&'a CleanHistories>,
    short_v4: Option<&'a ShortV4Share>,
    atlas_world: Option<&'a World>,
}

// Phase A computes every product the artifacts requested in phase B read
// (the `Needs` derivation above); a miss here is an engine wiring bug
// worth crashing on, not a data-dependent condition to degrade.
#[allow(
    clippy::expect_used,
    reason = "phase A wiring guarantees every product phase B reads"
)]
impl EngineContext<'_> {
    fn atlas(&self) -> &AtlasAnalysis {
        // lint:allow(panic-reach): phase A wiring guarantees the product; see impl comment
        self.atlas.expect("atlas analysis computed")
    }
    fn cdn(&self) -> &CdnAnalysis {
        // lint:allow(panic-reach): phase A wiring guarantees the product; see impl comment
        self.cdn.expect("cdn analysis computed")
    }
    fn histories(&self) -> &CleanHistories {
        // lint:allow(panic-reach): phase A wiring guarantees the product; see impl comment
        self.histories.expect("histories collected")
    }
    fn short_v4(&self) -> &ShortV4Share {
        // lint:allow(panic-reach): phase A wiring guarantees the product; see impl comment
        self.short_v4.expect("short-v4 shares collected")
    }
    fn world(&self) -> &World {
        // lint:allow(panic-reach): phase A wiring guarantees the product; see impl comment
        self.atlas_world.expect("atlas world built")
    }
}

/// Render one artifact from the shared products. Returns the text and
/// whether it passed (only `check` can fail).
fn render_one(name: &str, ctx: &EngineContext<'_>) -> (String, bool) {
    let text = match name {
        "table1" => atlas_exps::table1(ctx.atlas()),
        "fig1" => atlas_exps::fig1(ctx.atlas()),
        "fig5" => atlas_exps::fig5(ctx.atlas()),
        "fig6" => atlas_exps::fig6(ctx.atlas()),
        "fig8" => atlas_exps::fig8(ctx.atlas()),
        "fig9" => atlas_exps::fig9(ctx.atlas()),
        "table2" => atlas_exps::table2(ctx.atlas()),
        "fig2" => cdn_exps::fig2(ctx.cdn()),
        "fig3" => cdn_exps::fig3(ctx.cdn()),
        "fig4" => cdn_exps::fig4(ctx.cdn()),
        "fig7" => cdn_exps::fig7(ctx.cdn()),
        "claims" => claims::render(ctx.atlas(), ctx.cdn()),
        "check" => return check::render_and_ok(ctx.atlas(), ctx.cdn()),
        "evolution" => extended::evolution_with(ctx.world(), ctx.histories()),
        "pools" => extended::pool_boundaries_with(ctx.world(), ctx.histories()),
        "scanplan" => extended::scan_plans_with(ctx.world(), ctx.histories()),
        "targetgen" => extended::target_generation_with(ctx.world(), ctx.histories()),
        "tracking" => extended::tracking_report_with(ctx.world()),
        "anonymize" => extended::anonymize_audit_with(ctx.world()),
        "blocklist" => extended::blocklist_sweep_with(ctx.world()),
        "counting" => extended::counting_report_with(ctx.world(), ctx.cfg.seed),
        "sanitizer" => {
            extended::render_sanitizer(&ctx.atlas().sanitize, ctx.short_v4(), ctx.cfg.atlas_scale)
        }
        "seeds" => extended::seed_robustness(ctx.cfg),
        // `wanted` is prevalidated with is_known_artifact; if a name slips
        // through anyway, emit a failing artifact instead of panicking.
        other => return (format!("unknown artifact {other:?}\n"), false),
    };
    (text, true)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Compute every analysis the requested artifacts need (phase A, shared
/// products in parallel), then render the artifacts across `workers`
/// threads (phase B, fan-out). `wanted` must already be validated with
/// [`is_known_artifact`].
pub fn run(cfg: &ExperimentConfig, wanted: &[String], workers: usize) -> EngineOutput {
    #[allow(clippy::disallowed_methods, reason = "engine wall time")]
    let started = Instant::now();
    let cache = WorldCache::new();

    let needs = Needs::for_request(wanted);
    let atlas_wants = needs.atlas_wants();

    // --- Phase A: shared products.
    //
    // Two independent computations run concurrently: one pass over the
    // Atlas world (collect, sanitize, and fill every Atlas product the
    // request wants) and the CDN collect+analyze. Each task times itself.
    let mut phases: Vec<PerfEntry> = Vec::new();

    let atlas_world_handle: Option<(Arc<World>, f64)> = needs.world.then(|| {
        #[allow(clippy::disallowed_methods, reason = "phase wall time")]
        let t = Instant::now();
        let w = cache.atlas(cfg.seed, cfg.atlas_scale);
        (w, ms(t))
    });
    if let Some((_, world_ms)) = &atlas_world_handle {
        phases.push(PerfEntry {
            name: "atlas-world".into(),
            ms: *world_ms,
        });
    }
    // Every Atlas product implies `needs.world`, so the prefetch handle
    // is populated whenever `atlas_job` is.
    let atlas_job = atlas_wants.zip(atlas_world_handle.as_ref().map(|(w, _)| w));
    let atlas_pass = |(wants, w): (AtlasWants, &Arc<World>)| {
        #[allow(clippy::disallowed_methods, reason = "phase wall time")]
        let t = Instant::now();
        let mut deg = DegradationReport::new();
        let products = AtlasProducts::collect(w, Window::atlas_paper(), wants, workers, &mut deg);
        (products, ms(t))
    };
    let cdn_analysis_of = || {
        #[allow(clippy::disallowed_methods, reason = "phase wall time")]
        let tw = Instant::now();
        let w = cache.cdn(cfg.seed, cfg.cdn_scale);
        let world_ms = ms(tw);
        #[allow(clippy::disallowed_methods, reason = "phase wall time")]
        let t = Instant::now();
        let mut deg = DegradationReport::new();
        let c = CdnAnalysis::compute_for_world(&w, &mut deg);
        (c, world_ms, ms(t))
    };

    #[allow(clippy::disallowed_methods, reason = "scoped engine workers")]
    let (atlas, cdn) = if workers <= 1 {
        (atlas_job.map(atlas_pass), needs.cdn.then(cdn_analysis_of))
    } else {
        thread::scope(|scope| {
            let ja = atlas_job.map(|job| scope.spawn(move || atlas_pass(job)));
            let jc = needs.cdn.then(|| scope.spawn(cdn_analysis_of));
            (
                ja.map(|j| crate::resume_worker(j.join())),
                jc.map(|j| crate::resume_worker(j.join())),
            )
        })
    };

    let (mut atlas_analysis, mut histories, mut short_v4) = (None, None, None);
    if let Some((products, t)) = atlas {
        atlas_analysis = needs.atlas.then_some(products.analysis);
        histories = needs.histories.then_some(products.histories);
        short_v4 = needs.short_v4.then_some(products.short_v4);
        phases.push(PerfEntry {
            name: "atlas-analysis".into(),
            ms: t,
        });
    }
    let mut cdn_analysis: Option<CdnAnalysis> = None;
    if let Some((analysis, world_ms, t)) = cdn {
        cdn_analysis = Some(analysis);
        phases.push(PerfEntry {
            name: "cdn-world".into(),
            ms: world_ms,
        });
        phases.push(PerfEntry {
            name: "cdn-analysis".into(),
            ms: t,
        });
    }

    let atlas_world: Option<Arc<World>> = atlas_world_handle.map(|(w, _)| w);
    let ctx = EngineContext {
        cfg,
        atlas: atlas_analysis.as_ref(),
        cdn: cdn_analysis.as_ref(),
        histories: histories.as_ref(),
        short_v4: short_v4.as_ref(),
        atlas_world: atlas_world.as_deref(),
    };

    // --- Phase B: render fan-out.
    //
    // A shared atomic index deals artifacts to workers; each result lands
    // in its request-order slot, so output order never depends on timing.
    let slots: Vec<OnceLock<(String, bool, f64)>> =
        wanted.iter().map(|_| OnceLock::new()).collect();
    let render = |i: usize| {
        #[allow(clippy::disallowed_methods, reason = "artifact wall time")]
        let t = Instant::now();
        let (text, ok) = render_one(&wanted[i], &ctx);
        // The dealing index hands each slot to exactly one worker; if a
        // slot were somehow rendered twice the first result wins.
        let _ = slots[i].set((text, ok, ms(t)));
    };
    if workers <= 1 {
        (0..wanted.len()).for_each(render);
    } else {
        let next = AtomicUsize::new(0);
        #[allow(clippy::disallowed_methods, reason = "scoped engine workers")]
        thread::scope(|scope| {
            for _ in 0..workers.min(wanted.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= wanted.len() {
                        break;
                    }
                    render(i);
                });
            }
        });
    }

    let mut artifacts = Vec::with_capacity(wanted.len());
    let mut artifact_times = Vec::with_capacity(wanted.len());
    for (name, slot) in wanted.iter().zip(slots) {
        // Every index below wanted.len() was dealt to a worker; an empty
        // slot would be an engine bug — surface it as a failed artifact.
        let (text, ok, t) = slot
            .into_inner()
            .unwrap_or_else(|| ("artifact not rendered (engine bug)\n".into(), false, 0.0));
        artifact_times.push(PerfEntry {
            name: name.clone(),
            ms: t,
        });
        artifacts.push(RenderedArtifact {
            name: name.clone(),
            text,
            ok,
        });
    }

    let perf = PerfRecord {
        seed: cfg.seed,
        atlas_scale: cfg.atlas_scale,
        cdn_scale: cfg.cdn_scale,
        workers,
        worlds_built: cache.builds(),
        total_ms: ms(started),
        phases,
        artifacts: artifact_times,
    };
    EngineOutput { artifacts, perf }
}

/// A warm, reusable render session for one configuration: worlds and
/// analysis products are computed on first demand and then retained, so
/// repeated [`WarmSession::render_artifact`] calls against the same
/// `(seed, atlas_scale, cdn_scale)` are pure lookups plus the renderer
/// itself. This is the serving layer's render-to-bytes entry point; a
/// batch [`run`] and a warm session agree byte-for-byte because both
/// funnel through [`render_one`] over products built by the same code.
///
/// The session is `Sync`: concurrent renders share the products through
/// `OnceLock`, which also guarantees each product is built exactly once
/// even when many requests arrive before the first build finishes.
pub struct WarmSession {
    cfg: ExperimentConfig,
    workers: usize,
    cache: WorldCache,
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
            cache: WorldCache::new(),
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

    /// Distinct worlds constructed so far (at most two: Atlas + CDN).
    pub fn worlds_built(&self) -> usize {
        self.cache.builds()
    }

    /// One Atlas pass filling just `wants`. Products are built lazily,
    /// one per pass, so a session that only serves figures never
    /// retains histories.
    fn atlas_pass(&self, wants: AtlasWants) -> AtlasProducts {
        let w = self.cache.atlas(self.cfg.seed, self.cfg.atlas_scale);
        let mut deg = DegradationReport::new();
        AtlasProducts::collect(&w, Window::atlas_paper(), wants, self.workers, &mut deg)
    }

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
            let w = self.cache.cdn(self.cfg.seed, self.cfg.cdn_scale);
            let mut deg = DegradationReport::new();
            CdnAnalysis::compute_for_world(&w, &mut deg)
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
    /// a panic, mirroring [`run`].
    pub fn render_artifact(&self, name: &str) -> RenderedArtifact {
        let needs = Needs::for_artifact(name);
        let atlas_world = needs
            .world
            .then(|| self.cache.atlas(self.cfg.seed, self.cfg.atlas_scale));
        let ctx = EngineContext {
            cfg: &self.cfg,
            atlas: needs.atlas.then(|| self.atlas_product()),
            cdn: needs.cdn.then(|| self.cdn_product()),
            histories: needs.histories.then(|| self.histories_product()),
            short_v4: needs.short_v4.then(|| self.short_v4_product()),
            atlas_world: atlas_world.as_deref(),
        };
        let (text, ok) = render_one(name, &ctx);
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

    #[test]
    fn world_cache_builds_each_distinct_world_once() {
        let cache = WorldCache::new();
        let w1 = cache.atlas(5, 0.01);
        let w2 = cache.atlas(5, 0.01);
        assert!(Arc::ptr_eq(&w1, &w2));
        assert_eq!(cache.builds(), 1);
        // Different era, seed, or scale are distinct worlds.
        cache.cdn(5, 0.01);
        cache.atlas(6, 0.01);
        cache.atlas(5, 0.02);
        assert_eq!(cache.builds(), 4);
    }

    #[test]
    fn world_cache_is_race_free_under_concurrent_requests() {
        let cache = WorldCache::new();
        #[allow(clippy::disallowed_methods, reason = "concurrent world requests")]
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| cache.atlas(7, 0.01));
            }
        });
        assert_eq!(cache.builds(), 1);
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
