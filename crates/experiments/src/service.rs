//! The artifact service behind `dynamips serve`: maps HTTP requests
//! onto the engine's warm render sessions.
//!
//! An artifact's bytes are a pure function of `(name, seed, scales)`,
//! so the service renders each `(configuration, artifact)` pair at most
//! once and serves every later request for it from stored bytes. It
//! keeps two bounded LRUs:
//!
//! - the artifact cache, `(SessionKey, name) → Response`, holding
//!   `cache_cap × engine::artifact_names().len()` rendered responses. A request looks here first; a hit (`/metrics`
//!   `cache_hits_total`) copies the stored bytes and touches no session.
//!   A miss (`cache_misses_total`) renders, and concurrent misses for
//!   one key render it once. Entries outlive the session that rendered
//!   them.
//! - the session cache of [`WarmSession`]s keyed by
//!   `(seed, atlas_scale, cdn_scale)`, used only to render a miss. A new
//!   configuration builds its worlds once, evicting the least recently
//!   used session past `cache_cap` (`cache_evictions_total`).
//!
//! Status mapping: unknown endpoint or artifact name → `404`; malformed
//! or unknown query parameters → `400`; a rendered artifact whose own
//! self-check fails (only `check` can) → `500` carrying the report text.
//! That `500` is as much a function of the key as a `200`, so it is
//! cached too. A build or render that panics is answered `500` and
//! leaves nothing cached, so the next request renders again.

use std::sync::Arc;

use dynamips_serve::{Handler, LruCache, Metrics, Request, Response};

use crate::context::ExperimentConfig;
use crate::engine::{self, WarmSession};

/// Session-cache key; scales are keyed by bit pattern so the map never
/// compares floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SessionKey {
    seed: u64,
    atlas_bits: u64,
    cdn_bits: u64,
}

impl SessionKey {
    fn for_config(cfg: &ExperimentConfig) -> SessionKey {
        SessionKey {
            seed: cfg.seed,
            atlas_bits: cfg.atlas_scale.to_bits(),
            cdn_bits: cfg.cdn_scale.to_bits(),
        }
    }
}

/// HTTP handler exposing the engine's artifacts; see the module docs.
pub struct ArtifactService {
    base: ExperimentConfig,
    workers: usize,
    sessions: LruCache<SessionKey, WarmSession>,
    /// Rendered responses, keyed by configuration and artifact name.
    artifacts: LruCache<(SessionKey, String), Response>,
    metrics: Arc<Metrics>,
}

impl ArtifactService {
    /// A service whose default configuration (when a request carries no
    /// query parameters) is `base`, holding at most `cache_cap` warm
    /// sessions and the rendered artifacts of as many configurations,
    /// computing cold analyses with `workers` threads.
    pub fn over_engine(
        base: ExperimentConfig,
        workers: usize,
        cache_cap: usize,
        metrics: Arc<Metrics>,
    ) -> ArtifactService {
        ArtifactService {
            base,
            workers: workers.max(1),
            sessions: LruCache::bounded(cache_cap),
            artifacts: LruCache::bounded(cache_cap.saturating_mul(engine::artifact_names().len())),
            metrics,
        }
    }

    /// Warm sessions currently resident.
    pub fn sessions_resident(&self) -> usize {
        self.sessions.len()
    }

    /// Worlds built by the warm sessions currently resident.
    pub fn worlds_built_by_sessions(&self) -> usize {
        self.sessions
            .resident_values()
            .iter()
            .map(|session| session.worlds_built())
            .sum()
    }

    /// Resolve the request configuration: the service default overlaid
    /// with `seed` / `atlas_scale` / `cdn_scale` query parameters.
    fn config_from_query(&self, req: &Request) -> Result<ExperimentConfig, String> {
        let mut cfg = self.base;
        for (key, value) in &req.query {
            match key.as_str() {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| format!("seed must be an unsigned integer, got {value:?}"))?;
                }
                "atlas_scale" => cfg.atlas_scale = parse_scale("atlas_scale", value)?,
                "cdn_scale" => cfg.cdn_scale = parse_scale("cdn_scale", value)?,
                other => {
                    return Err(format!(
                        "unknown query parameter {other:?} (expected seed, atlas_scale, cdn_scale)"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    fn render_endpoint(&self, name: &str, req: &Request) -> Response {
        if !engine::is_known_artifact(name) {
            return Response::text(
                404,
                format!("unknown artifact {name:?}; GET /artifacts for the list\n"),
            );
        }
        let cfg = match self.config_from_query(req) {
            Ok(cfg) => cfg,
            Err(why) => return Response::text(400, format!("bad request: {why}\n")),
        };
        let key = SessionKey::for_config(&cfg);
        let mut evicted = 0;
        // The engine must not panic, but a supervised server treats
        // that contract as untrusted: a panicking build or render is
        // caught here and answered 500 rather than killing the worker.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.artifacts.fetch_or_build((key, name.to_string()), || {
                let session = self
                    .sessions
                    .fetch_or_build(key, || WarmSession::warm(cfg, self.workers));
                evicted = session.evicted;
                let rendered = session.value.render_artifact(name);
                Response::text(if rendered.ok { 200 } else { 500 }, rendered.text)
            })
        }));
        match attempt {
            Ok(lookup) => {
                self.metrics.record_cache(lookup.hit, evicted);
                Response::clone(&lookup.value)
            }
            Err(_) => {
                self.metrics.record_cache(false, evicted);
                Response::text(500, format!("artifact {name:?} failed to render\n"))
            }
        }
    }

    fn list_endpoint(&self) -> Response {
        let mut body = String::new();
        for name in engine::artifact_names() {
            body.push_str(name);
            body.push('\n');
        }
        Response::text(200, body)
    }
}

impl Handler for ArtifactService {
    fn respond(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return Response::text(405, "artifact endpoints are read-only: use GET\n");
        }
        match req.path.as_str() {
            "/artifacts" | "/artifacts/" => self.list_endpoint(),
            path => match path.strip_prefix("/artifacts/") {
                Some(name) => self.render_endpoint(name, req),
                None => Response::text(404, format!("no such endpoint {path:?}\n")),
            },
        }
    }
}

fn parse_scale(key: &str, value: &str) -> Result<f64, String> {
    let scale: f64 = value
        .parse()
        .map_err(|_| format!("{key} must be a number, got {value:?}"))?;
    if !scale.is_finite() || !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err(format!("{key} must be in (0, 1], got {value:?}"));
    }
    Ok(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> ArtifactService {
        ArtifactService::over_engine(
            ExperimentConfig {
                seed: 11,
                atlas_scale: 0.02,
                cdn_scale: 0.02,
            },
            2,
            2,
            Arc::new(Metrics::new()),
        )
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
            close_requested: false,
        }
    }

    #[test]
    fn renders_listing_and_artifacts() {
        let svc = service();
        let listing = svc.respond(&get("/artifacts", &[]));
        assert_eq!(listing.status, 200);
        let text = String::from_utf8_lossy(&listing.body).to_string();
        assert!(
            text.contains("fig1\n") && text.contains("sanitizer\n"),
            "{text}"
        );
        let fig1 = svc.respond(&get("/artifacts/fig1", &[]));
        assert_eq!(fig1.status, 200);
        assert!(!fig1.body.is_empty());
        // Same config again: the session cache answers warm.
        svc.respond(&get("/artifacts/fig1", &[]));
        assert_eq!(svc.sessions_resident(), 1);
    }

    #[test]
    fn status_mapping_for_bad_requests() {
        let svc = service();
        assert_eq!(svc.respond(&get("/artifacts/TYPO", &[])).status, 404);
        assert_eq!(svc.respond(&get("/nope", &[])).status, 404);
        assert_eq!(
            svc.respond(&get("/artifacts/fig1", &[("seed", "banana")]))
                .status,
            400
        );
        assert_eq!(
            svc.respond(&get("/artifacts/fig1", &[("atlas_scale", "7.5")]))
                .status,
            400
        );
        assert_eq!(
            svc.respond(&get("/artifacts/fig1", &[("atlas_scale", "0")]))
                .status,
            400
        );
        assert_eq!(
            svc.respond(&get("/artifacts/fig1", &[("volume", "11")]))
                .status,
            400
        );
        // No analysis ran for any of these.
        assert_eq!(svc.sessions_resident(), 0);
    }

    #[test]
    fn query_overrides_select_distinct_sessions() {
        let svc = service();
        let a = svc.respond(&get("/artifacts/fig1", &[]));
        let b = svc.respond(&get("/artifacts/fig1", &[("seed", "12")]));
        assert_eq!((a.status, b.status), (200, 200));
        assert_ne!(a.body, b.body, "different seeds render different text");
        assert_eq!(svc.sessions_resident(), 2);
    }

    #[test]
    fn evicted_session_artifact_is_served_from_the_cache_byte_identically() {
        let base = ExperimentConfig {
            seed: 11,
            atlas_scale: 0.02,
            cdn_scale: 0.02,
        };
        let metrics = Arc::new(Metrics::new());
        // cache_cap 1: the second session evicts the first.
        let svc = ArtifactService::over_engine(base, 2, 1, Arc::clone(&metrics));
        let fresh = svc.respond(&get("/artifacts/fig1", &[]));
        assert_eq!(fresh.status, 200);
        svc.respond(&get("/artifacts/fig1", &[("seed", "12")]));
        assert_eq!(
            svc.sessions_resident(),
            1,
            "seed-12 session evicted seed-11"
        );
        // Seed 11's session is gone, but its fig1 is still cached: the
        // answer comes from the stored bytes without rebuilding (or even
        // touching) a session, so the resident session stays seed 12.
        let again = svc.respond(&get("/artifacts/fig1", &[]));
        assert_eq!(again, fresh, "cached response is byte-identical");
        assert_eq!(svc.sessions_resident(), 1);
        assert_eq!(metrics.cache_counts(), (1, 2, 1));
    }
}
