//! Full-stack serving acceptance: a real `Server` wired to the real
//! `ArtifactService`, hammered over loopback sockets.
//!
//! The load-bearing property is byte-identity: whatever the HTTP layer
//! does — concurrency, artifact and session caching, LRU eviction — the
//! body of `GET /artifacts/<name>` must equal the text the batch engine
//! ([`engine::run`]) renders single-threaded for the same
//! `(name, seed, scales)`. An artifact is rendered once per
//! configuration: a repeat request is answered from the artifact cache,
//! even after its warm session was evicted under a session bound of 2.

use std::sync::Arc;
use std::thread;

use dynamips_experiments::engine;
use dynamips_experiments::service::ArtifactService;
use dynamips_experiments::ExperimentConfig;
use dynamips_serve::{http_get, Metrics, ServeConfig, Server};

const SCALE: f64 = 0.02;

fn test_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        atlas_scale: SCALE,
        cdn_scale: SCALE,
    }
}

/// The batch engine's single-threaded rendering: the reference bytes.
fn reference_text(name: &str, seed: u64) -> String {
    let out = engine::run(&test_config(seed), &[name.to_string()], 1);
    assert_eq!(out.artifacts.len(), 1);
    assert!(out.artifacts[0].ok, "reference render failed for {name}");
    out.artifacts[0].text.clone()
}

fn start_stack(cache_cap: usize) -> (Server, String, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let service = ArtifactService::over_engine(test_config(11), 2, cache_cap, Arc::clone(&metrics));
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::new(service),
        Arc::clone(&metrics),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().to_string();
    (server, addr, metrics)
}

#[test]
fn concurrent_requests_serve_batch_identical_bytes() {
    let (server, addr, metrics) = start_stack(4);

    // Two configurations in flight at once: the service default
    // (seed 11) and an override (seed 12), four client threads each.
    let fig1_default = reference_text("fig1", 11);
    let fig1_seeded = reference_text("fig1", 12);

    let mut clients = Vec::new();
    for i in 0..8 {
        let addr = addr.clone();
        let path = if i % 2 == 0 {
            "/artifacts/fig1".to_string()
        } else {
            "/artifacts/fig1?seed=12".to_string()
        };
        #[allow(clippy::disallowed_methods, reason = "concurrent clients")]
        clients.push(thread::spawn(move || {
            let got = http_get(&addr, &path, 120_000).expect("fetch");
            (path, got)
        }));
    }
    for client in clients {
        let (path, got) = client.join().expect("client thread");
        assert_eq!(got.status, 200, "{path}");
        let want = if path.contains("seed=12") {
            &fig1_seeded
        } else {
            &fig1_default
        };
        let body = String::from_utf8(got.body).expect("utf8 body");
        assert_eq!(
            &body, want,
            "served bytes diverged from the batch engine for {path}"
        );
    }

    // 8 requests, 2 distinct (config, artifact) keys: the artifact cache
    // must have answered the other 6, and each key rendered exactly once.
    let (hits, misses, _evictions) = metrics.cache_counts();
    assert_eq!((hits, misses), (6, 2), "cache accounting");

    let bye = http_get(&addr, "/shutdown", 10_000).expect("shutdown");
    assert_eq!(bye.status, 200);
    let summary = server.join();
    assert_eq!(summary.rejected, 0, "{summary:?}");
    assert!(summary.served >= 9, "{summary:?}");
}

#[test]
fn session_eviction_keeps_rendered_bytes_cached() {
    let (server, addr, metrics) = start_stack(2);

    // Three seeds through a session cache of two: seed 11's session is
    // evicted by the time seed 21 lands, but its rendered fig1 is not,
    // so the fourth request is a hit that builds and renders nothing.
    let seeds = [11u64, 19, 21, 11];
    for seed in seeds {
        let path = format!("/artifacts/fig1?seed={seed}");
        let got = http_get(&addr, &path, 120_000).expect("fetch");
        assert_eq!(got.status, 200, "{path}");
        let body = String::from_utf8(got.body).expect("utf8 body");
        assert_eq!(
            body,
            reference_text("fig1", seed),
            "seed {seed} served divergent bytes"
        );
    }
    assert_eq!(
        metrics.cache_counts(),
        (1, 3, 1),
        "(hits, misses, evictions)"
    );

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.rejected, 0, "{summary:?}");
}

#[test]
fn endpoints_and_error_statuses_over_real_sockets() {
    let (server, addr, _metrics) = start_stack(2);

    let health = http_get(&addr, "/healthz", 10_000).expect("healthz");
    assert_eq!(
        (health.status, health.body.as_slice()),
        (200, b"ok\n".as_slice())
    );

    let listing = http_get(&addr, "/artifacts", 10_000).expect("listing");
    assert_eq!(listing.status, 200);
    let names = String::from_utf8(listing.body).expect("utf8 listing");
    for name in ["fig1", "fig3", "claims", "check", "seeds"] {
        assert!(names.lines().any(|l| l == name), "{name} missing:\n{names}");
    }

    assert_eq!(
        http_get(&addr, "/artifacts/TYPO", 10_000)
            .expect("404")
            .status,
        404
    );
    assert_eq!(http_get(&addr, "/nope", 10_000).expect("404").status, 404);
    assert_eq!(
        http_get(&addr, "/artifacts/fig1?seed=banana", 10_000)
            .expect("400")
            .status,
        400
    );
    assert_eq!(
        http_get(&addr, "/artifacts/fig1?atlas_scale=2.0", 10_000)
            .expect("400")
            .status,
        400
    );

    // Render one artifact so the metrics page has request and cache
    // series to show.
    assert_eq!(
        http_get(&addr, "/artifacts/seeds", 120_000)
            .expect("seeds")
            .status,
        200
    );
    let metrics_page = http_get(&addr, "/metrics", 10_000).expect("metrics");
    let text = String::from_utf8(metrics_page.body).expect("utf8 metrics");
    for series in [
        "dynamips_serve_requests_total{code=\"200\"}",
        "dynamips_serve_requests_total{code=\"400\"}",
        "dynamips_serve_requests_total{code=\"404\"}",
        "dynamips_serve_cache_misses_total",
        "dynamips_serve_request_latency_ms_bucket",
    ] {
        assert!(text.contains(series), "{series} missing from:\n{text}");
    }

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.rejected, 0, "{summary:?}");
    assert_eq!(summary.disconnects, 0, "{summary:?}");
}
