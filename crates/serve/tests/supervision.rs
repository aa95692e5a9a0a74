//! Worker-supervision acceptance: a handler panic must never take the
//! server down. The panicked worker is caught and counted, the
//! supervisor respawns the slot (with backoff under a crash loop), and
//! the server keeps answering — including `/healthz` while a crash
//! loop is in progress — then drains cleanly.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dynamips_serve::{http_get, Handler, Metrics, Request, Response, ServeConfig, Server};

/// Panics on the magic path, succeeds everywhere else — the
/// deliberately buggy application handler.
struct BoomOnMagic;

impl Handler for BoomOnMagic {
    fn respond(&self, req: &Request) -> Response {
        assert!(req.path != "/boom", "injected handler panic");
        Response::text(200, format!("ok {}\n", req.path))
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    // A sleep-counted bound (~10 s) rather than a deadline: clippy's
    // `disallowed_methods` keeps wall-clock reads out of everything but
    // the timing layer, tests included.
    for _ in 0..5_000 {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

fn start(cfg: ServeConfig, metrics: &Arc<Metrics>) -> Server {
    Server::start(
        "127.0.0.1:0",
        cfg,
        Arc::new(BoomOnMagic),
        Arc::clone(metrics),
    )
    .expect("bind ephemeral")
}

/// A panicking request on a single-worker pool: the worker dies, the
/// panic is counted, the supervisor respawns the slot, and the very
/// next request succeeds — proof the replacement worker is live.
#[test]
fn worker_panic_is_caught_counted_and_the_worker_respawns() {
    let metrics = Arc::new(Metrics::new());
    let cfg = ServeConfig {
        workers: 1,
        respawn_backoff_ms: 5,
        ..ServeConfig::default()
    };
    let server = start(cfg, &metrics);
    let addr = server.local_addr().to_string();

    // The panicked connection gets no response: a transport error.
    let boom = http_get(&addr, "/boom", 10_000);
    assert!(boom.is_err(), "panicked request must not get a response");
    wait_until("panic recorded", || metrics.worker_panics() == 1);
    wait_until("worker respawned", || metrics.worker_respawns() == 1);

    // With workers=1 only the respawned worker can answer this.
    let after = http_get(&addr, "/after", 10_000).expect("respawned worker serves");
    assert_eq!(
        (after.status, after.body.as_slice()),
        (200, b"ok /after\n".as_slice())
    );
    // The panicked connection was accounted (gauge balanced +
    // disconnect counted), so admission control is not wedged. The
    // reactor closes the socket before the connection's gauge guard
    // drops, so the client can read its EOF while the gauge still
    // counts the connection: wait, bounded, rather than race the reactor
    // thread. A leaked gauge still fails the wait.
    wait_until("connection gauge drained", || {
        metrics.open_connections() == 0
    });
    assert!(metrics.disconnects() >= 1);

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.worker_panics, 1, "{summary:?}");
    assert_eq!(summary.worker_respawns, 1, "{summary:?}");
}

/// A crash loop: repeated panics with no progress in between grow the
/// restart backoff, but the server stays responsive on `/healthz`
/// between respawns and still drains cleanly.
#[test]
fn crash_loop_backs_off_but_healthz_stays_responsive() {
    let metrics = Arc::new(Metrics::new());
    let cfg = ServeConfig {
        workers: 2,
        respawn_backoff_ms: 2,
        respawn_backoff_cap_ms: 50,
        ..ServeConfig::default()
    };
    let server = start(cfg, &metrics);
    let addr = server.local_addr().to_string();

    for round in 1..=5u64 {
        let _ = http_get(&addr, "/boom", 10_000);
        wait_until("panic counted", || metrics.worker_panics() >= round);
        wait_until("slot respawned", || metrics.worker_respawns() >= round);
        // Liveness between crashes: the built-in route still answers.
        let health = http_get(&addr, "/healthz", 10_000).expect("healthz mid-crash-loop");
        assert_eq!(health.status, 200);
    }
    assert_eq!(metrics.worker_panics(), 5);
    assert_eq!(metrics.worker_respawns(), 5);

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.worker_panics, 5, "{summary:?}");
}

/// The crash-loop cap: once `max_worker_respawns` is exhausted the
/// dying slot stays dead — no more respawns — and shutdown still
/// drains without hanging.
#[test]
fn respawn_cap_leaves_the_slot_dead_and_join_still_drains() {
    let metrics = Arc::new(Metrics::new());
    let cfg = ServeConfig {
        workers: 2,
        respawn_backoff_ms: 1,
        max_worker_respawns: 2,
        ..ServeConfig::default()
    };
    let server = start(cfg, &metrics);
    let addr = server.local_addr().to_string();

    for round in 1..=3u64 {
        let _ = http_get(&addr, "/boom", 10_000);
        wait_until("panic counted", || metrics.worker_panics() >= round);
    }
    // Two respawns were allowed; the third panic hit the cap.
    wait_until("respawns capped", || metrics.worker_respawns() == 2);
    // One worker of the two remains; it still serves.
    let health = http_get(&addr, "/healthz", 10_000).expect("surviving worker serves");
    assert_eq!(health.status, 200);

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.worker_panics, 3, "{summary:?}");
    assert_eq!(summary.worker_respawns, 2, "{summary:?}");
}
