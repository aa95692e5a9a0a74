//! The `dynamips chaos-serve` sweep: end-to-end robustness proof for
//! the serving stack under injected network faults.
//!
//! For each fault rate in the sweep, the harness stands up a fresh
//! supervised server over the [`ArtifactService`](crate::service), warms
//! it directly (so sweep traffic measures fault handling, not cold world
//! builds), then routes a fixed batch of artifact requests through
//! `chaos::net`'s fault-injecting proxy using the resilient client
//! (bounded retries + circuit breaker). The sweep asserts the PR's
//! robustness invariants:
//!
//! - **Byte identity**: every `2xx` body is byte-identical to the same
//!   artifact rendered straight from a warm engine session — faults may
//!   cost retries, never bytes.
//! - **No client-visible 5xx**: the retry/breaker layer absorbs
//!   transient faults; a `5xx` surviving all attempts fails the sweep.
//! - **Bounded failures below the threshold**: at fault rates at or
//!   below `fail_threshold`, every request must succeed outright.
//! - **Clean drain**: after each sweep point the server shuts down,
//!   joins, and the open-connection gauge reads zero.
//!
//! The sweep's `rate` is the approximate per-connection fault
//! probability: it is split evenly across the six fault operators, so
//! `P(any fault) = 1 - (1 - rate/6)^6 ≈ rate`. Stall and black-hole
//! durations are set *above* the client timeout so those operators
//! genuinely exercise the timeout path.
//!
//! Everything is seeded: the proxy's fault plan and the client's retry
//! jitter derive per-point seeds from the experiment seed, so a sweep
//! that passes once passes always. Results are rendered as a text table
//! and a `dynamips-bench-v1` [`PerfRecord`] (`BENCH_chaos_serve.json`).

use std::sync::Arc;
use std::time::Instant;

use dynamips_chaos::net::{ChaosProxy, NetFaultPlan, NET_FAULT_OPS};
use dynamips_core::perf::{PerfEntry, PerfRecord};
use dynamips_core::report::TextTable;
use dynamips_serve::{
    http_get, BreakerConfig, Metrics, ResilientClient, RetryPolicy, ServeConfig, Server,
};

use crate::context::ExperimentConfig;
use crate::engine::WarmSession;
use crate::service::ArtifactService;

/// Artifacts the sweep traffic rotates over: small, fast renders from a
/// warm session, covering both the atlas and CDN pipelines.
const SWEEP_ARTIFACTS: [&str; 3] = ["fig1", "fig2", "table1"];

/// Tunables for the chaos-serve sweep.
#[derive(Debug, Clone)]
pub struct ChaosServeOptions {
    /// Per-connection fault probabilities to sweep, in order.
    pub rates: Vec<f64>,
    /// Requests issued per sweep point.
    pub requests: usize,
    /// Rates at or below this must see zero failed requests.
    pub fail_threshold: f64,
    /// Client socket timeout per attempt, milliseconds.
    pub timeout_ms: u64,
}

impl Default for ChaosServeOptions {
    fn default() -> ChaosServeOptions {
        ChaosServeOptions {
            rates: vec![0.0, 0.05, 0.15, 0.3],
            requests: 24,
            fail_threshold: 0.15,
            timeout_ms: 1_000,
        }
    }
}

/// Outcome of one sweep point (one fault rate).
#[derive(Debug, Clone)]
struct PointOutcome {
    rate: f64,
    /// Connections the proxy handled / faults it injected.
    conns: u64,
    faults: u64,
    /// Per-operator injected-fault counts, `NET_FAULT_OPS` order.
    fault_counts: [u64; NET_FAULT_OPS.len()],
    /// Client-side attempt/retry counters for the point.
    attempts: u64,
    retries: u64,
    ok_2xx: u64,
    /// Responses the client surfaced with a 5xx status (invariant: 0).
    visible_5xx: u64,
    /// Requests that failed after all attempts (allowed above threshold).
    failed: u64,
    /// 2xx bodies that did not match the warm-engine bytes (invariant: 0).
    mismatches: u64,
    /// Worker panics the supervisor caught (informational).
    worker_panics: u64,
    /// Whether the server drained to zero open connections on join.
    drained: bool,
    /// Worlds the point's artifact sessions built.
    worlds_built: usize,
    elapsed_ms: f64,
}

/// Result of the whole sweep: report text, pass/fail, bench record.
#[derive(Debug, Clone)]
pub struct ChaosServeOutcome {
    /// Human-readable report (table + per-point fault mix + verdict).
    pub text: String,
    /// Whether every invariant held at every sweep point.
    pub ok: bool,
    /// The `dynamips-bench-v1` record for `BENCH_chaos_serve.json`.
    pub perf: PerfRecord,
}

/// Per-point seed derivation: decorrelate the proxy plan and client
/// jitter across sweep points while staying a pure function of the
/// experiment seed.
fn point_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Render every sweep artifact straight from a warm engine session: the
/// ground truth the served bytes must match, and the worlds it built.
fn expected_bytes(cfg: &ExperimentConfig, workers: usize) -> Result<(Vec<Vec<u8>>, usize), String> {
    let session = WarmSession::warm(*cfg, workers);
    let mut out = Vec::with_capacity(SWEEP_ARTIFACTS.len());
    for name in SWEEP_ARTIFACTS {
        let rendered = session.render_artifact(name);
        if !rendered.ok {
            return Err(format!(
                "ground-truth render of {name:?} failed its self-check"
            ));
        }
        out.push(rendered.text.into_bytes());
    }
    Ok((out, session.worlds_built()))
}

/// Run one sweep point: fresh server, warm it, route `requests` through
/// a fault-injecting proxy at `rate`, tear everything down.
fn run_point(
    cfg: &ExperimentConfig,
    opts: &ChaosServeOptions,
    workers: usize,
    index: usize,
    rate: f64,
    expected: &[Vec<u8>],
) -> Result<PointOutcome, String> {
    #[allow(clippy::disallowed_methods, reason = "per-point wall time")]
    let started = Instant::now();
    let metrics = Arc::new(Metrics::new());
    let serve_cfg = ServeConfig {
        workers: 2,
        queue_cap: 32,
        max_conns: 64,
        read_timeout_ms: opts.timeout_ms.max(1_000) * 2,
        write_timeout_ms: opts.timeout_ms.max(1_000) * 2,
        ..ServeConfig::default()
    };
    let handler = Arc::new(ArtifactService::over_engine(
        *cfg,
        workers,
        2,
        Arc::clone(&metrics),
    ));
    let server = Server::start(
        "127.0.0.1:0",
        serve_cfg,
        handler.clone(),
        Arc::clone(&metrics),
    )
    .map_err(|e| format!("rate {rate}: cannot bind server: {e}"))?;
    let server_addr = server.local_addr();

    // Warm the service directly (not through the proxy) with a generous
    // timeout: the one cold world build happens here, and the warm-up
    // doubles as a fault-free byte-identity check of the serving path.
    for (name, want) in SWEEP_ARTIFACTS.iter().zip(expected) {
        let path = format!("/artifacts/{name}");
        let got = http_get(&server_addr.to_string(), &path, 600_000)
            .map_err(|e| format!("rate {rate}: warm-up GET {path} failed: {e}"))?;
        if got.status != 200 || &got.body != want {
            return Err(format!(
                "rate {rate}: warm-up GET {path} returned status {} with {} byte(s); \
                 expected 200 with {} byte(s) matching the warm engine",
                got.status,
                got.body.len(),
                want.len()
            ));
        }
    }

    // Fault plan: split the sweep rate evenly across the operators and
    // make stalls/black-holes outlast the client timeout.
    let mut plan = NetFaultPlan::uniform(
        point_seed(cfg.seed, index),
        rate / NET_FAULT_OPS.len() as f64,
    );
    plan.stall_ms = opts.timeout_ms + 500;
    plan.blackhole_ms = opts.timeout_ms + 500;
    let proxy =
        ChaosProxy::start(server_addr, plan).map_err(|e| format!("rate {rate}: proxy: {e}"))?;
    let proxy_addr = proxy.local_addr().to_string();

    let client = ResilientClient::new(
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 200,
            retry_after_cap_ms: 500,
            jitter_seed: point_seed(cfg.seed, index).rotate_left(17),
        },
        BreakerConfig {
            failure_threshold: 10,
            cooldown_rejects: 2,
        },
    );

    let mut ok_2xx = 0u64;
    let mut visible_5xx = 0u64;
    let mut failed = 0u64;
    let mut mismatches = 0u64;
    for i in 0..opts.requests {
        let which = i % SWEEP_ARTIFACTS.len();
        let path = format!("/artifacts/{}", SWEEP_ARTIFACTS[which]);
        match client.request(&proxy_addr, "GET", &path, "", opts.timeout_ms) {
            Ok(resp) if (200..300).contains(&resp.status) => {
                ok_2xx += 1;
                if resp.body != expected[which] {
                    mismatches += 1;
                }
            }
            Ok(resp) => {
                if resp.status >= 500 {
                    visible_5xx += 1;
                }
                failed += 1;
            }
            Err(_) => failed += 1,
        }
    }

    // Proxy first: stop() joins its relay threads, so every proxied
    // connection to the server has finished before the drain begins.
    let log = proxy.stop();
    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    let drained = metrics.open_connections() == 0;

    let mut fault_counts = [0u64; NET_FAULT_OPS.len()];
    for (slot, op) in fault_counts.iter_mut().zip(NET_FAULT_OPS) {
        *slot = log.count(op);
    }
    let cm = client.metrics();
    Ok(PointOutcome {
        rate,
        conns: log.conns,
        faults: log.total(),
        fault_counts,
        attempts: cm.attempts_total(),
        retries: cm.retries_total(),
        ok_2xx,
        visible_5xx,
        failed,
        mismatches,
        worker_panics: summary.worker_panics,
        drained,
        worlds_built: handler.worlds_built_by_sessions(),
        elapsed_ms: started.elapsed().as_secs_f64() * 1_000.0,
    })
}

/// Check the sweep invariants for one point; returns violation lines.
fn violations(point: &PointOutcome, opts: &ChaosServeOptions) -> Vec<String> {
    let mut out = Vec::new();
    if point.mismatches > 0 {
        out.push(format!(
            "rate {}: {} 2xx bod(ies) diverged from the warm-engine bytes",
            point.rate, point.mismatches
        ));
    }
    if point.visible_5xx > 0 {
        out.push(format!(
            "rate {}: {} client-visible 5xx response(s)",
            point.rate, point.visible_5xx
        ));
    }
    if point.rate <= opts.fail_threshold && point.failed > 0 {
        out.push(format!(
            "rate {}: {} failed request(s) at or below the fail threshold {}",
            point.rate, point.failed, opts.fail_threshold
        ));
    }
    if !point.drained {
        out.push(format!(
            "rate {}: server did not drain to zero open connections",
            point.rate
        ));
    }
    out
}

/// Run the full chaos-serve sweep; see the module docs for the design.
pub fn run(cfg: &ExperimentConfig, opts: &ChaosServeOptions, workers: usize) -> ChaosServeOutcome {
    #[allow(clippy::disallowed_methods, reason = "sweep wall time")]
    let started = Instant::now();
    #[allow(clippy::disallowed_methods, reason = "warm-up wall time")]
    let warm_started = Instant::now();
    let (expected, expected_worlds) = match expected_bytes(cfg, workers) {
        Ok(truth) => truth,
        Err(why) => {
            return ChaosServeOutcome {
                text: format!("chaos-serve: FAIL — {why}\n"),
                ok: false,
                perf: PerfRecord {
                    seed: cfg.seed,
                    atlas_scale: cfg.atlas_scale,
                    cdn_scale: cfg.cdn_scale,
                    workers,
                    ..PerfRecord::default()
                },
            }
        }
    };
    let warm_ms = warm_started.elapsed().as_secs_f64() * 1_000.0;

    let mut points = Vec::new();
    let mut problems = Vec::new();
    for (index, &rate) in opts.rates.iter().enumerate() {
        match run_point(cfg, opts, workers, index, rate, &expected) {
            Ok(point) => {
                problems.extend(violations(&point, opts));
                points.push(point);
            }
            Err(why) => problems.push(why),
        }
    }

    let mut table = TextTable::new(&[
        "rate", "conns", "faults", "attempts", "retries", "2xx", "5xx", "failed", "drained",
    ]);
    for p in &points {
        table.row(&[
            format!("{}", p.rate),
            p.conns.to_string(),
            p.faults.to_string(),
            p.attempts.to_string(),
            p.retries.to_string(),
            p.ok_2xx.to_string(),
            p.visible_5xx.to_string(),
            p.failed.to_string(),
            if p.drained { "yes" } else { "no" }.to_string(),
        ]);
    }

    let mut text = String::new();
    text.push_str(&format!(
        "chaos-serve sweep: seed {}, scales {}/{}, {} request(s)/point over {:?}, \
         fail threshold {}\n\n",
        cfg.seed,
        cfg.atlas_scale,
        cfg.cdn_scale,
        opts.requests,
        SWEEP_ARTIFACTS,
        opts.fail_threshold
    ));
    text.push_str(&table.render());
    for p in &points {
        let mix: Vec<String> = NET_FAULT_OPS
            .iter()
            .zip(p.fault_counts)
            .filter(|(_, n)| *n > 0)
            .map(|(op, n)| format!("{} x{}", op.label(), n))
            .collect();
        text.push_str(&format!(
            "rate {}: fault mix [{}], {} worker panic(s), {:.0} ms\n",
            p.rate,
            mix.join(", "),
            p.worker_panics,
            p.elapsed_ms
        ));
    }
    let ok = problems.is_empty();
    if ok {
        text.push_str(&format!(
            "chaos-serve: OK — every 2xx byte-identical, zero client-visible 5xx, \
             clean drain at all {} rate(s)\n",
            points.len()
        ));
    } else {
        text.push_str("chaos-serve: FAIL\n");
        for problem in &problems {
            text.push_str(&format!("  - {problem}\n"));
        }
    }

    let mut phases = vec![PerfEntry {
        name: "warm-expected-ms".to_string(),
        ms: warm_ms,
    }];
    let mut artifacts = Vec::new();
    for p in &points {
        let tag = format!("rate-{}", p.rate);
        phases.push(PerfEntry {
            name: format!("{tag}-ms"),
            ms: p.elapsed_ms,
        });
        for (name, value) in [
            ("conns", p.conns),
            ("faults", p.faults),
            ("retries", p.retries),
            ("5xx", p.visible_5xx),
            ("failed", p.failed),
            ("mismatches", p.mismatches),
        ] {
            artifacts.push(PerfEntry {
                name: format!("{tag}-{name}"),
                ms: value as f64,
            });
        }
    }
    let perf = PerfRecord {
        seed: cfg.seed,
        atlas_scale: cfg.atlas_scale,
        cdn_scale: cfg.cdn_scale,
        workers,
        // The ground-truth session's worlds plus every point's: each
        // session renders Atlas and CDN artifacts, so builds both.
        worlds_built: expected_worlds + points.iter().map(|p| p.worlds_built).sum::<usize>(),
        total_ms: started.elapsed().as_secs_f64() * 1_000.0,
        phases,
        artifacts,
    };
    ChaosServeOutcome { text, ok, perf }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny quiet-rate sweep end-to-end: all requests succeed, bytes
    /// match, the record round-trips as dynamips-bench-v1.
    #[test]
    fn quiet_sweep_passes_and_round_trips() {
        let cfg = ExperimentConfig {
            seed: 13,
            atlas_scale: 0.02,
            cdn_scale: 0.02,
        };
        let opts = ChaosServeOptions {
            rates: vec![0.0],
            requests: 6,
            fail_threshold: 0.15,
            timeout_ms: 5_000,
        };
        let outcome = run(&cfg, &opts, 2);
        assert!(outcome.ok, "{}", outcome.text);
        assert!(outcome.text.contains("chaos-serve: OK"), "{}", outcome.text);
        let parsed = PerfRecord::parse(&outcome.perf.to_json()).expect("round-trip");
        assert_eq!(parsed.worlds_built, 4);
        assert!(parsed
            .artifacts
            .iter()
            .any(|e| e.name == "rate-0-failed" && e.ms == 0.0));
    }

    /// A faulty sweep point still satisfies the invariants: retries
    /// absorb the injected faults, no 5xx leaks, bytes stay identical.
    #[test]
    fn faulty_sweep_point_is_absorbed_by_retries() {
        let cfg = ExperimentConfig {
            seed: 29,
            atlas_scale: 0.02,
            cdn_scale: 0.02,
        };
        let opts = ChaosServeOptions {
            rates: vec![0.3],
            requests: 8,
            fail_threshold: 0.15,
            timeout_ms: 800,
        };
        let outcome = run(&cfg, &opts, 2);
        assert!(outcome.ok, "{}", outcome.text);
        // The point is above the threshold, so failures would be legal —
        // but byte identity and zero-5xx still had to hold.
        assert!(outcome.text.contains("chaos-serve: OK"), "{}", outcome.text);
    }
}
