//! Load generation in two modes.
//!
//! **Closed loop** (the default): `concurrency` worker threads share a
//! global request budget and each issues `GET`s back-to-back, one in
//! flight per thread. Simple, but it *coordinates with the server*: a
//! stall pauses the generator too, so the stalled interval contributes
//! one slow sample instead of the many slow requests real arrivals
//! would have produced — the classic coordinated-omission blind spot.
//!
//! **Open loop** (`open_loop: true`): requests follow a fixed,
//! seed-deterministic Poisson arrival schedule computed *before* the
//! run ([`arrival_offsets_ms`]). Each request's latency is measured
//! from its **scheduled** start to its response, so when the server
//! stalls, every arrival scheduled during the stall records the wait it
//! actually imposed; a generator running behind schedule is counted
//! (`late_sends`), never silently absorbed. Requests are striped over
//! `concurrency` sender slots that reuse keep-alive connections
//! ([`crate::client::Connection`]), which is what makes
//! thousands of concurrent connections practical.
//!
//! Per-request latencies are pooled and summarized as linearly
//! interpolated percentiles ([`dynamips_core::stats::quantile`], the
//! workspace's one quantile definition); the report serializes into the
//! workspace's `dynamips-bench-v1` schema (`BENCH_serve.json`) so the
//! serving path joins the perf trajectory, and `bench-check --baseline`
//! can hold the percentiles to a checked-in bound.
//!
//! Accounting is single-path by construction: every request produces
//! exactly one [`Sample`], and `summarize` derives `completed`,
//! `ok_2xx`, `non_2xx`, and `transport_errors` from that one vector,
//! recording `requests == ok_2xx + non_2xx + transport_errors` as
//! [`LoadtestReport::accounting_ok`] (checked by [`LoadtestReport::all_ok`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamips_core::perf::{PerfEntry, PerfRecord};
use dynamips_core::stats::quantile;

use crate::client::{self, Connection, JitterSource};

/// How far behind schedule a send may start before it is counted late,
/// milliseconds. Covers OS sleep granularity without hiding real lag.
const LATE_GRACE_MS: f64 = 10.0;

/// Parameters for one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Target URL, e.g. `http://127.0.0.1:8080/artifacts/fig1`.
    pub url: String,
    /// Closed loop: worker threads (one request in flight each).
    /// Open loop: sender slots (also the peak keep-alive connections).
    pub concurrency: usize,
    /// Total requests to issue across all workers.
    pub requests: usize,
    /// Per-request connect/read/write timeout, milliseconds.
    pub timeout_ms: u64,
    /// Use the open-loop (fixed arrival schedule) generator.
    pub open_loop: bool,
    /// Open loop only: mean arrival rate, requests per second.
    pub rate_rps: f64,
    /// Seed for the arrival schedule (same seed ⇒ same schedule).
    pub seed: u64,
}

/// Aggregated results of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Target URL.
    pub url: String,
    /// Worker threads / sender slots used.
    pub concurrency: usize,
    /// Requests attempted.
    pub requests: usize,
    /// Whether the open-loop generator produced this report.
    pub open_loop: bool,
    /// Open loop: the scheduled mean arrival rate (0 when closed-loop).
    pub target_rps: f64,
    /// Arrival-schedule seed (0 when closed-loop).
    pub seed: u64,
    /// Requests that produced an HTTP response (any status).
    pub completed: usize,
    /// Requests answered with a 2xx status.
    pub ok_2xx: usize,
    /// Requests answered with a non-2xx status.
    pub non_2xx: usize,
    /// Responses by status code.
    pub by_status: BTreeMap<u16, usize>,
    /// Requests that failed at the transport layer (connect/read/write).
    pub transport_errors: usize,
    /// Whether `requests == ok_2xx + non_2xx + transport_errors` held
    /// (every request produced exactly one accounted sample).
    pub accounting_ok: bool,
    /// Open loop: sends that started more than the grace window after
    /// their scheduled arrival (the generator itself fell behind).
    pub late_sends: usize,
    /// Total body bytes received.
    pub body_bytes: u64,
    /// Wall-clock duration of the whole run, milliseconds.
    pub total_ms: f64,
    /// Median latency, milliseconds (linearly interpolated). Open loop
    /// measures scheduled-start → response; closed loop send → response.
    pub p50_ms: f64,
    /// 90th percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Slowest observed request, milliseconds.
    pub max_ms: f64,
    /// Completed requests per second over the run.
    pub throughput_rps: f64,
}

/// One request's outcome as recorded by a worker: status (0 for a
/// transport error), latency, body size.
struct Sample {
    status: u16,
    latency_ms: f64,
    body_bytes: u64,
}

/// The seed-deterministic open-loop arrival schedule: cumulative
/// offsets (milliseconds from run start) of each request, with
/// exponential (Poisson-process) inter-arrival gaps at mean rate
/// `rate_rps`. Pure function of `(seed, rate_rps, requests)`.
pub fn arrival_offsets_ms(seed: u64, rate_rps: f64, requests: usize) -> Vec<f64> {
    let mut rng = JitterSource::seeded(seed);
    let mean_gap_ms = 1000.0 / rate_rps;
    let mut at = 0.0f64;
    let mut offsets = Vec::with_capacity(requests);
    for _ in 0..requests {
        // 53 uniform bits → u in [0, 1); inverse-CDF of Exp(1/mean).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        at += -(1.0 - u).ln() * mean_gap_ms;
        offsets.push(at);
    }
    offsets
}

/// Run the load described by `cfg`. Fails fast on an unusable URL or
/// invalid parameters; individual request failures are counted, not
/// fatal.
pub fn run_loadtest(cfg: &LoadtestConfig) -> Result<LoadtestReport, String> {
    if cfg.concurrency == 0 {
        return Err("concurrency must be >= 1".to_string());
    }
    if cfg.requests == 0 {
        return Err("requests must be >= 1".to_string());
    }
    if cfg.open_loop && !(cfg.rate_rps.is_finite() && cfg.rate_rps > 0.0) {
        return Err("open-loop mode requires a finite rate-rps > 0".to_string());
    }
    let (addr, path) = client::split_url(&cfg.url)?;
    if cfg.open_loop {
        run_open_loop(cfg, &addr, &path)
    } else {
        run_closed_loop(cfg, &addr, &path)
    }
}

fn run_closed_loop(cfg: &LoadtestConfig, addr: &str, path: &str) -> Result<LoadtestReport, String> {
    let tickets = Arc::new(AtomicUsize::new(cfg.requests));
    #[allow(clippy::disallowed_methods, reason = "load generator wall time")]
    let started = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..cfg.concurrency.min(cfg.requests) {
        let tickets = Arc::clone(&tickets);
        let addr = addr.to_string();
        let path = path.to_string();
        let timeout_ms = cfg.timeout_ms;
        #[allow(clippy::disallowed_methods, reason = "a load-generator client thread")]
        handles.push(std::thread::spawn(move || {
            let mut samples = Vec::new();
            while take_ticket(&tickets) {
                #[allow(clippy::disallowed_methods, reason = "per-request latency")]
                let t0 = Instant::now();
                let sample = match client::http_get(&addr, &path, timeout_ms) {
                    Ok(got) => Sample {
                        status: got.status,
                        latency_ms: elapsed_ms(t0),
                        body_bytes: got.body.len() as u64,
                    },
                    Err(_) => Sample {
                        status: 0,
                        latency_ms: elapsed_ms(t0),
                        body_bytes: 0,
                    },
                };
                samples.push(sample);
            }
            samples
        }));
    }
    let mut samples: Vec<Sample> = Vec::with_capacity(cfg.requests);
    for handle in handles {
        match handle.join() {
            Ok(batch) => samples.extend(batch),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    let total_ms = elapsed_ms(started);
    Ok(summarize(cfg, samples, total_ms, 0))
}

/// The open loop: request `i` of the precomputed schedule is sent by
/// slot `i % concurrency` at its scheduled offset (or as soon after as
/// the slot is free — counted in `late_sends` past the grace window).
/// Latency is measured from the *scheduled* start, so server stalls
/// charge every arrival they delayed.
fn run_open_loop(cfg: &LoadtestConfig, addr: &str, path: &str) -> Result<LoadtestReport, String> {
    let offsets = arrival_offsets_ms(cfg.seed, cfg.rate_rps, cfg.requests);
    let slots = cfg.concurrency.min(cfg.requests);
    #[allow(clippy::disallowed_methods, reason = "load generator wall time")]
    let started = Instant::now();
    let mut handles = Vec::new();
    for slot in 0..slots {
        let my_offsets: Vec<f64> = offsets.iter().copied().skip(slot).step_by(slots).collect();
        let addr = addr.to_string();
        let path = path.to_string();
        let timeout_ms = cfg.timeout_ms;
        #[allow(clippy::disallowed_methods, reason = "a load-generator client thread")]
        handles.push(std::thread::spawn(move || {
            let mut conn: Option<Connection> = None;
            let mut samples = Vec::with_capacity(my_offsets.len());
            let mut late_sends = 0usize;
            for offset_ms in my_offsets {
                let scheduled = Duration::from_secs_f64(offset_ms / 1000.0);
                let now = started.elapsed();
                if now < scheduled {
                    std::thread::sleep(scheduled - now);
                } else if (now - scheduled).as_secs_f64() * 1000.0 > LATE_GRACE_MS {
                    late_sends += 1;
                }
                let outcome = keep_alive_get(&mut conn, &addr, &path, timeout_ms);
                // Scheduled-start basis: the elapsed clock is never
                // behind `scheduled` here because we slept up to it.
                let latency_ms =
                    (started.elapsed().saturating_sub(scheduled)).as_secs_f64() * 1000.0;
                let sample = match outcome {
                    Ok(got) => Sample {
                        status: got.status,
                        latency_ms,
                        body_bytes: got.body.len() as u64,
                    },
                    Err(_) => Sample {
                        status: 0,
                        latency_ms,
                        body_bytes: 0,
                    },
                };
                samples.push(sample);
            }
            (samples, late_sends)
        }));
    }
    let mut samples: Vec<Sample> = Vec::with_capacity(cfg.requests);
    let mut late_sends = 0usize;
    for handle in handles {
        match handle.join() {
            Ok((batch, late)) => {
                samples.extend(batch);
                late_sends += late;
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    let total_ms = elapsed_ms(started);
    Ok(summarize(cfg, samples, total_ms, late_sends))
}

/// One GET over the slot's parked keep-alive connection, falling back
/// to a fresh socket when the parked one went stale (the server may
/// close idle connections at its `idle_timeout_ms` — that is not a
/// transport error, just a reconnect).
fn keep_alive_get(
    conn_slot: &mut Option<Connection>,
    addr: &str,
    path: &str,
    timeout_ms: u64,
) -> Result<client::FetchResult, String> {
    let parked = conn_slot
        .take()
        .map(|mut conn| (conn.request("GET", path, ""), conn));
    let (result, conn) = match parked {
        Some((Ok(result), conn)) => (result, conn),
        // Stale (or nothing parked): one try on a fresh connection.
        _ => {
            let mut conn = Connection::open(addr, timeout_ms)?;
            (conn.request("GET", path, "")?, conn)
        }
    };
    *conn_slot = Some(conn).filter(Connection::is_reusable);
    Ok(result)
}

fn take_ticket(tickets: &AtomicUsize) -> bool {
    tickets
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// The single accounting path: every sample is classified exactly once
/// (transport error / 2xx / other status), and the report's invariant
/// `requests == ok_2xx + non_2xx + transport_errors` is recorded in
/// `accounting_ok` rather than silently assumed.
fn summarize(
    cfg: &LoadtestConfig,
    samples: Vec<Sample>,
    total_ms: f64,
    late_sends: usize,
) -> LoadtestReport {
    let mut by_status = BTreeMap::new();
    let mut latencies = Vec::with_capacity(samples.len());
    let mut transport_errors = 0usize;
    let mut ok_2xx = 0usize;
    let mut non_2xx = 0usize;
    let mut body_bytes = 0u64;
    for s in &samples {
        if s.status == 0 {
            transport_errors += 1;
        } else {
            *by_status.entry(s.status).or_insert(0) += 1;
            if (200..300).contains(&s.status) {
                ok_2xx += 1;
            } else {
                non_2xx += 1;
            }
        }
        body_bytes += s.body_bytes;
        latencies.push(s.latency_ms);
    }
    // `quantile` sorts by total_cmp: a NaN latency (from a poisoned timer
    // or future arithmetic) sorts to the tail instead of scrambling the
    // order of the finite ones.
    let pct = |q| quantile(&latencies, q).unwrap_or(0.0);
    let completed = ok_2xx + non_2xx;
    let accounting_ok = cfg.requests == ok_2xx + non_2xx + transport_errors;
    let throughput_rps = if total_ms > 0.0 {
        completed as f64 / (total_ms / 1000.0)
    } else {
        0.0
    };
    LoadtestReport {
        url: cfg.url.clone(),
        concurrency: cfg.concurrency,
        requests: cfg.requests,
        open_loop: cfg.open_loop,
        target_rps: if cfg.open_loop { cfg.rate_rps } else { 0.0 },
        seed: if cfg.open_loop { cfg.seed } else { 0 },
        completed,
        ok_2xx,
        non_2xx,
        by_status,
        transport_errors,
        accounting_ok,
        late_sends,
        body_bytes,
        total_ms,
        p50_ms: pct(0.50),
        p90_ms: pct(0.90),
        p99_ms: pct(0.99),
        max_ms: pct(1.0),
        throughput_rps,
    }
}

impl LoadtestReport {
    /// Every attempted request came back 2xx and the accounting
    /// identity held.
    pub fn all_ok(&self) -> bool {
        self.accounting_ok && self.transport_errors == 0 && self.ok_2xx == self.requests
    }

    /// Human-readable summary for stderr.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadtest {}: {} requests, concurrency {}\n",
            self.url, self.requests, self.concurrency
        ));
        if self.open_loop {
            out.push_str(&format!(
                "  open-loop: target {:.1} req/s (seed {}), {} late sends\n",
                self.target_rps, self.seed, self.late_sends
            ));
        }
        out.push_str(&format!(
            "  completed {} ({} ok, {} transport errors) in {:.1} ms -> {:.1} req/s\n",
            self.completed, self.ok_2xx, self.transport_errors, self.total_ms, self.throughput_rps
        ));
        out.push_str(&format!(
            "  latency ms: p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}\n",
            self.p50_ms, self.p90_ms, self.p99_ms, self.max_ms
        ));
        if !self.accounting_ok {
            out.push_str(&format!(
                "  WARNING: accounting mismatch: {} requests != {} ok + {} non-2xx + {} transport errors\n",
                self.requests, self.ok_2xx, self.non_2xx, self.transport_errors
            ));
        }
        for (status, n) in &self.by_status {
            out.push_str(&format!("  status {status}: {n}\n"));
        }
        out
    }

    /// Map the report into the workspace bench schema
    /// (`dynamips-bench-v1`): percentiles and throughput become phase
    /// entries, per-status counts become artifact entries, so the
    /// existing schema checker validates `BENCH_serve.json` unchanged.
    pub fn to_perf_record(&self) -> PerfRecord {
        let mut record = PerfRecord {
            seed: self.seed,
            atlas_scale: 0.0,
            cdn_scale: 0.0,
            workers: self.concurrency,
            worlds_built: 0,
            total_ms: self.total_ms,
            phases: [
                ("latency-p50-ms", self.p50_ms),
                ("latency-p90-ms", self.p90_ms),
                ("latency-p99-ms", self.p99_ms),
                ("latency-max-ms", self.max_ms),
                ("throughput-rps", self.throughput_rps),
            ]
            .into_iter()
            .map(|(name, ms)| PerfEntry {
                name: name.to_string(),
                ms,
            })
            .collect(),
            artifacts: Vec::new(),
        };
        for (status, n) in &self.by_status {
            record.artifacts.push(PerfEntry {
                name: format!("status-{status}"),
                ms: *n as f64,
            });
        }
        record.artifacts.push(PerfEntry {
            name: "transport-errors".to_string(),
            ms: self.transport_errors as f64,
        });
        record.artifacts.push(PerfEntry {
            name: "late-sends".to_string(),
            ms: self.late_sends as f64,
        });
        if self.open_loop {
            record.artifacts.push(PerfEntry {
                name: "target-rps".to_string(),
                ms: self.target_rps,
            });
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed_cfg(concurrency: usize, requests: usize) -> LoadtestConfig {
        LoadtestConfig {
            url: "http://h:1/p".to_string(),
            concurrency,
            requests,
            timeout_ms: 100,
            open_loop: false,
            rate_rps: 0.0,
            seed: 0,
        }
    }

    #[test]
    fn summarize_counts_statuses_and_errors() {
        let cfg = closed_cfg(2, 4);
        let samples = vec![
            Sample {
                status: 200,
                latency_ms: 1.0,
                body_bytes: 10,
            },
            Sample {
                status: 200,
                latency_ms: 3.0,
                body_bytes: 10,
            },
            Sample {
                status: 503,
                latency_ms: 0.5,
                body_bytes: 5,
            },
            Sample {
                status: 0,
                latency_ms: 100.0,
                body_bytes: 0,
            },
        ];
        let report = summarize(&cfg, samples, 50.0, 0);
        assert_eq!(report.completed, 3);
        assert_eq!(report.ok_2xx, 2);
        assert_eq!(report.non_2xx, 1);
        assert_eq!(report.transport_errors, 1);
        assert!(report.accounting_ok, "4 == 2 + 1 + 1");
        assert_eq!(report.by_status.get(&503), Some(&1));
        assert!(!report.all_ok());
        let record = report.to_perf_record();
        assert_eq!(record.workers, 2);
        assert!(record.phases.iter().any(|e| e.name == "latency-p99-ms"));
        assert!(record
            .artifacts
            .iter()
            .any(|e| e.name == "status-200" && e.ms == 2.0));
        assert!(record
            .artifacts
            .iter()
            .any(|e| e.name == "late-sends" && e.ms == 0.0));
        let text = report.render_text();
        assert!(text.contains("status 503: 1"), "{text}");
    }

    #[test]
    fn lost_samples_fail_the_accounting_identity_instead_of_lying() {
        // A worker that died before pushing its sample: 3 samples for 4
        // requests. The old `completed = samples.len() - errors` would
        // have quietly under-reported; now the identity check fails.
        let cfg = closed_cfg(2, 4);
        let samples = vec![
            Sample {
                status: 200,
                latency_ms: 1.0,
                body_bytes: 1,
            },
            Sample {
                status: 200,
                latency_ms: 2.0,
                body_bytes: 1,
            },
            Sample {
                status: 0,
                latency_ms: 9.0,
                body_bytes: 0,
            },
        ];
        let report = summarize(&cfg, samples, 10.0, 0);
        assert!(!report.accounting_ok);
        assert!(!report.all_ok());
        assert!(report.render_text().contains("accounting mismatch"));
    }

    #[test]
    fn nan_latency_does_not_scramble_percentiles() {
        // Regression for the partial_cmp(..).unwrap_or(Equal) sort: a
        // NaN anywhere in the latency pool used to make the "sorted"
        // order depend on comparison adjacency, poisoning every
        // percentile. total_cmp sends NaN to the end deterministically.
        let cfg = closed_cfg(1, 10);
        let mut samples: Vec<Sample> = [9.0, 2.0, f64::NAN, 7.0, 1.0, 5.0, 3.0, 8.0, 4.0, 6.0]
            .into_iter()
            .map(|latency_ms| Sample {
                status: 200,
                latency_ms,
                body_bytes: 0,
            })
            .collect();
        // Shuffle-resistant: the NaN sits mid-vector, exactly where the
        // old sort scrambled its neighbors.
        samples.swap(2, 6);
        let report = summarize(&cfg, samples, 10.0, 0);
        // Finite ranks stay exact: the NaN sorts to the very end, so the
        // median lies halfway between order statistics 5 and 6, and only
        // the last gap (9 to NaN), where p90 and p99 fall, is poisoned.
        assert_eq!(report.p50_ms, 5.5);
        assert!(
            report.p90_ms.is_nan() && report.p99_ms.is_nan(),
            "NaN is surfaced at the tail, not hidden"
        );
        assert!(report.max_ms.is_nan());
    }

    #[test]
    fn arrival_schedule_is_deterministic_in_the_seed() {
        let a = arrival_offsets_ms(42, 250.0, 64);
        let b = arrival_offsets_ms(42, 250.0, 64);
        assert_eq!(a, b, "same seed, same schedule");
        let c = arrival_offsets_ms(43, 250.0, 64);
        assert_ne!(a, c, "different seed, different schedule");
        assert_eq!(a.len(), 64);
        assert!(
            a.windows(2).all(|w| w[1] > w[0]),
            "offsets strictly increase"
        );
        // Mean inter-arrival should be in the right ballpark (4 ms at
        // 250 rps); this is a sanity bound, not a statistical test.
        let mean_gap = a.last().copied().unwrap_or(0.0) / a.len() as f64;
        assert!((1.0..16.0).contains(&mean_gap), "{mean_gap}");
    }

    #[test]
    fn rejects_zero_concurrency_requests_and_bad_rates_before_any_io() {
        let bad = LoadtestConfig {
            concurrency: 0,
            ..closed_cfg(1, 1)
        };
        assert!(run_loadtest(&bad).is_err());
        let bad2 = LoadtestConfig {
            requests: 0,
            ..closed_cfg(1, 1)
        };
        assert!(run_loadtest(&bad2).is_err());
        let bad3 = LoadtestConfig {
            open_loop: true,
            rate_rps: 0.0,
            ..closed_cfg(1, 1)
        };
        assert!(run_loadtest(&bad3).is_err());
        let bad4 = LoadtestConfig {
            open_loop: true,
            rate_rps: f64::NAN,
            ..closed_cfg(1, 1)
        };
        assert!(run_loadtest(&bad4).is_err());
    }
}
