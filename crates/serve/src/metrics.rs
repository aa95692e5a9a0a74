//! Lock-free serving metrics and their Prometheus text rendering.
//!
//! Everything is a plain atomic: workers bump counters on the hot path
//! without contending on a lock, and `/metrics` renders a consistent-
//! enough snapshot (Prometheus scrapes tolerate per-series skew). The
//! set of status codes and histogram buckets is fixed at compile time so
//! rendering allocates nothing surprising and output order is stable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Status codes the server can emit, in render order. Anything else is
/// folded into the `"other"` series.
pub const TRACKED_STATUS: [u16; 9] = [200, 201, 400, 404, 405, 408, 413, 500, 503];

/// Upper bounds (milliseconds) of the latency histogram buckets; an
/// implicit `+Inf` bucket follows.
pub const LATENCY_BUCKETS_MS: [u64; 11] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000];

/// Shared metrics registry for one server (and its artifact handler).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Responses written, per tracked status code (same order as
    /// [`TRACKED_STATUS`]), plus a trailing slot for everything else.
    status: [AtomicU64; TRACKED_STATUS.len() + 1],
    /// Cumulative latency histogram bucket counts; the last slot is +Inf.
    buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    /// Sum of observed request latencies, in microseconds.
    latency_sum_us: AtomicU64,
    /// Count of observed request latencies.
    latency_count: AtomicU64,
    /// Connections currently queued awaiting a worker (gauge).
    queue_depth: AtomicU64,
    /// Connections currently open (queued + in-flight, gauge).
    open_conns: AtomicU64,
    /// Connections refused 503 by admission control (queue or conn cap).
    admission_rejects: AtomicU64,
    /// Peers that vanished before a response could be written.
    disconnects: AtomicU64,
    /// Artifact-cache hits (stored bytes answered the request).
    cache_hits: AtomicU64,
    /// Artifact-cache misses (the artifact had to be rendered).
    cache_misses: AtomicU64,
    /// Warm sessions evicted by the session LRU bound (their rendered
    /// artifacts stay in the artifact cache).
    cache_evictions: AtomicU64,
    /// Worker threads that died to a caught panic.
    worker_panics: AtomicU64,
    /// Workers respawned by the supervisor after a panic.
    worker_respawns: AtomicU64,
    /// Requests served on an already-used connection (HTTP keep-alive).
    keepalive_reuses: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one written response and its end-to-end latency
    /// (measured from completed request head to final flush).
    pub fn record_response(&self, status: u16, latency_us: u64) {
        let idx = TRACKED_STATUS
            .iter()
            .position(|s| *s == status)
            .unwrap_or(TRACKED_STATUS.len());
        if let Some(slot) = self.status.get(idx) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = LATENCY_BUCKETS_MS
            .iter()
            .position(|ub_ms| latency_us <= *ub_ms * 1000)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        // Cumulative histogram: a sub-bound observation counts in every
        // bucket at or above it.
        for slot in self.buckets.iter().skip(bucket) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_sum_us.fetch_add(latency_us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Count of responses written with `status`.
    pub fn responses_with_status(&self, status: u16) -> u64 {
        match TRACKED_STATUS.iter().position(|s| *s == status) {
            Some(idx) => self
                .status
                .get(idx)
                .map(|s| s.load(Ordering::Relaxed))
                .unwrap_or(0),
            None => 0,
        }
    }

    /// Total responses written (all statuses, including untracked).
    pub fn responses_total(&self) -> u64 {
        self.status.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// A connection entered the queue. Only [`GaugeGuard`] calls this.
    fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker pulled a connection off the queue. Only [`GaugeGuard`]
    /// calls this.
    fn queue_leave(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was accepted (open-connection gauge up). Only
    /// [`GaugeGuard`] calls this.
    fn conn_opened(&self) {
        self.open_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection finished or was rejected (gauge down). Only
    /// [`GaugeGuard`] calls this.
    fn conn_closed(&self) {
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently open (queued + in-flight).
    pub fn open_connections(&self) -> u64 {
        self.open_conns.load(Ordering::Relaxed)
    }

    /// Admission control turned a connection away with 503.
    pub fn record_admission_reject(&self) {
        self.admission_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission rejects so far.
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects.load(Ordering::Relaxed)
    }

    /// The peer disappeared before a response could be delivered.
    pub fn record_disconnect(&self) {
        self.disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Disconnects so far.
    pub fn disconnects(&self) -> u64 {
        self.disconnects.load(Ordering::Relaxed)
    }

    /// Record an artifact-cache lookup outcome and any warm sessions its
    /// render evicted.
    pub fn record_cache(&self, hit: bool, evicted: u64) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Connections currently queued awaiting a worker (gauge read).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// A worker thread panicked and was caught by the supervisor.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker panics so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// The supervisor respawned a worker.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker respawns so far.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// A request arrived on a connection that already served at least
    /// one response (HTTP/1.1 keep-alive reuse).
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Keep-alive connection reuses so far.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// (hits, misses, evictions) so far.
    pub fn cache_counts(&self) -> (u64, u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
            self.cache_evictions.load(Ordering::Relaxed),
        )
    }

    /// Render the registry in Prometheus text exposition format.
    /// Series order is fixed, so two renders of identical state are
    /// byte-identical.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# HELP dynamips_serve_requests_total Responses written, by status code.\n");
        out.push_str("# TYPE dynamips_serve_requests_total counter\n");
        for (idx, status) in TRACKED_STATUS.iter().enumerate() {
            let n = self
                .status
                .get(idx)
                .map(|s| s.load(Ordering::Relaxed))
                .unwrap_or(0);
            out.push_str(&format!(
                "dynamips_serve_requests_total{{code=\"{status}\"}} {n}\n"
            ));
        }
        let other = self
            .status
            .get(TRACKED_STATUS.len())
            .map(|s| s.load(Ordering::Relaxed))
            .unwrap_or(0);
        out.push_str(&format!(
            "dynamips_serve_requests_total{{code=\"other\"}} {other}\n"
        ));

        out.push_str("# HELP dynamips_serve_request_latency_ms Head-to-flush request latency.\n");
        out.push_str("# TYPE dynamips_serve_request_latency_ms histogram\n");
        for (idx, ub) in LATENCY_BUCKETS_MS.iter().enumerate() {
            let n = self
                .buckets
                .get(idx)
                .map(|s| s.load(Ordering::Relaxed))
                .unwrap_or(0);
            out.push_str(&format!(
                "dynamips_serve_request_latency_ms_bucket{{le=\"{ub}\"}} {n}\n"
            ));
        }
        let inf = self
            .buckets
            .get(LATENCY_BUCKETS_MS.len())
            .map(|s| s.load(Ordering::Relaxed))
            .unwrap_or(0);
        out.push_str(&format!(
            "dynamips_serve_request_latency_ms_bucket{{le=\"+Inf\"}} {inf}\n"
        ));
        let sum_us = self.latency_sum_us.load(Ordering::Relaxed);
        out.push_str(&format!(
            "dynamips_serve_request_latency_ms_sum {}\n",
            format_ms(sum_us)
        ));
        out.push_str(&format!(
            "dynamips_serve_request_latency_ms_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));

        for (name, help, kind, value) in [
            (
                "dynamips_serve_queue_depth",
                "Connections queued awaiting a worker.",
                "gauge",
                self.queue_depth.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_open_connections",
                "Connections currently open (queued + in-flight).",
                "gauge",
                self.open_conns.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_admission_rejects_total",
                "Connections answered 503 by admission control.",
                "counter",
                self.admission_rejects.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_disconnects_total",
                "Peers that vanished before a response was written.",
                "counter",
                self.disconnects.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_cache_hits_total",
                "Artifact requests answered from stored rendered bytes.",
                "counter",
                self.cache_hits.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_cache_misses_total",
                "Artifact requests that had to render the artifact.",
                "counter",
                self.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_cache_evictions_total",
                "Warm sessions evicted by the session LRU bound.",
                "counter",
                self.cache_evictions.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_worker_panics_total",
                "Worker threads that died to a caught panic.",
                "counter",
                self.worker_panics.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_worker_respawns_total",
                "Workers respawned by the supervisor after a panic.",
                "counter",
                self.worker_respawns.load(Ordering::Relaxed),
            ),
            (
                "dynamips_serve_keepalive_reuses_total",
                "Requests served on a reused (keep-alive) connection.",
                "counter",
                self.keepalive_reuses.load(Ordering::Relaxed),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        out
    }
}

/// Which gauge a [`GaugeGuard`] balances.
#[derive(Debug, Clone, Copy)]
enum Gauge {
    /// `dynamips_serve_open_connections`.
    OpenConn,
    /// `dynamips_serve_queue_depth`.
    QueueSlot,
}

/// RAII balance for a gauge: the increment happens at construction and
/// the matching decrement in `Drop`, so no path — early return, error
/// arm, orphaned queue entry, unwinding worker — can leave the gauge
/// permanently high. The four gauge methods are private to this module,
/// so rustc rejects any other code that tries to move a gauge without a
/// guard.
#[derive(Debug)]
pub struct GaugeGuard {
    /// The registry the balanced gauge lives in.
    metrics: Arc<Metrics>,
    /// Which gauge to decrement on drop.
    gauge: Gauge,
}

impl GaugeGuard {
    /// Count one open connection until the guard drops.
    pub fn open_conn(metrics: &Arc<Metrics>) -> GaugeGuard {
        metrics.conn_opened();
        GaugeGuard {
            metrics: Arc::clone(metrics),
            gauge: Gauge::OpenConn,
        }
    }

    /// Count one queued job until the guard drops.
    pub fn queue_slot(metrics: &Arc<Metrics>) -> GaugeGuard {
        metrics.queue_enter();
        GaugeGuard {
            metrics: Arc::clone(metrics),
            gauge: Gauge::QueueSlot,
        }
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        match self.gauge {
            Gauge::OpenConn => self.metrics.conn_closed(),
            Gauge::QueueSlot => self.metrics.queue_leave(),
        }
    }
}

/// Format microseconds as decimal milliseconds ("12.345").
fn format_ms(us: u64) -> String {
    format!("{}.{:03}", us / 1000, us % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_cumulative_and_statuses_are_tracked() {
        let m = Metrics::new();
        m.record_response(200, 1_500); // 1.5 ms -> first bucket holding it is le=2
        m.record_response(200, 700_000); // 700 ms -> le=1000
        m.record_response(503, 10);
        assert_eq!(m.responses_with_status(200), 2);
        assert_eq!(m.responses_with_status(503), 1);
        assert_eq!(m.responses_total(), 3);
        let text = m.render_prometheus();
        assert!(
            text.contains("dynamips_serve_requests_total{code=\"200\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("dynamips_serve_request_latency_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("dynamips_serve_request_latency_ms_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("dynamips_serve_request_latency_ms_bucket{le=\"1000\"} 3\n"));
        assert!(text.contains("dynamips_serve_request_latency_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dynamips_serve_request_latency_ms_count 3\n"));
        assert!(text.contains("dynamips_serve_request_latency_ms_sum 701.510\n"));
    }

    #[test]
    fn gauges_and_cache_counters_move_both_ways() {
        let m = Metrics::new();
        m.conn_opened();
        m.queue_enter();
        m.record_cache(false, 0);
        m.record_cache(true, 0);
        m.record_cache(false, 2);
        assert_eq!(m.queue_depth(), 1);
        m.queue_leave();
        m.conn_closed();
        assert_eq!(m.cache_counts(), (1, 2, 2));
        assert_eq!(m.queue_depth(), 0);
        let text = m.render_prometheus();
        assert!(text.contains("dynamips_serve_queue_depth 0\n"));
        assert!(text.contains("dynamips_serve_open_connections 0\n"));
        assert!(text.contains("dynamips_serve_cache_evictions_total 2\n"));
    }

    #[test]
    fn gauge_guards_balance_on_every_drop_path() {
        let m = Arc::new(Metrics::new());
        let conn = GaugeGuard::open_conn(&m);
        let slot = GaugeGuard::queue_slot(&m);
        assert_eq!(m.open_connections(), 1);
        assert_eq!(m.queue_depth(), 1);
        drop(slot);
        assert_eq!(m.queue_depth(), 0);
        drop(conn);
        assert_eq!(m.open_connections(), 0);
    }

    #[test]
    fn supervision_and_keepalive_counters_render() {
        let m = Metrics::new();
        m.record_worker_panic();
        m.record_worker_respawn();
        m.record_keepalive_reuse();
        assert_eq!(m.keepalive_reuses(), 1);
        assert_eq!((m.worker_panics(), m.worker_respawns()), (1, 1));
        let text = m.render_prometheus();
        assert!(text.contains("dynamips_serve_worker_panics_total 1\n"));
        assert!(text.contains("dynamips_serve_worker_respawns_total 1\n"));
        assert!(text.contains("dynamips_serve_keepalive_reuses_total 1\n"));
    }
}
