//! Admission-control acceptance: with one worker and a queue bound of
//! one, a handler that holds the lone worker makes overload exactly
//! reproducible — the first connection is in flight, the second is
//! queued, and the third MUST be answered `503` with `Retry-After`
//! before any application code runs.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dynamips_serve::{
    http_get, FetchResult, Handler, Metrics, Request, Response, ServeConfig, Server,
};

/// Holds every request until `release` flips, so the test controls
/// exactly when the worker pool frees up.
struct Gated {
    release: AtomicBool,
    started: AtomicUsize,
}

impl Handler for Gated {
    fn respond(&self, _req: &Request) -> Response {
        self.started.fetch_add(1, Ordering::SeqCst);
        while !self.release.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(2));
        }
        Response::text(200, "slow done\n")
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

#[allow(clippy::disallowed_methods, reason = "one thread per client request")]
fn spawn_get(addr: &str, path: &str) -> thread::JoinHandle<Result<FetchResult, String>> {
    let addr = addr.to_string();
    let path = path.to_string();
    thread::spawn(move || http_get(&addr, &path, 20_000))
}

/// Raw request/response text so header assertions see the wire bytes.
fn raw_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nhost: test\r\n\r\n").expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

#[test]
fn third_connection_past_the_bounds_is_rejected_with_retry_after() {
    let metrics = Arc::new(Metrics::new());
    let gate = Arc::new(Gated {
        release: AtomicBool::new(false),
        started: AtomicUsize::new(0),
    });
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_secs: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(
        "127.0.0.1:0",
        cfg,
        Arc::clone(&gate) as Arc<dyn Handler>,
        Arc::clone(&metrics),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().to_string();

    // First request claims the only worker and parks inside the handler.
    let first = spawn_get(&addr, "/slow/first");
    wait_until("the first request to reach the handler", || {
        gate.started.load(Ordering::SeqCst) == 1
    });
    // Second request fills the queue (depth 1 == queue_cap).
    let second = spawn_get(&addr, "/slow/second");
    wait_until("the second connection to be admitted", || {
        metrics.open_connections() == 2
    });

    // Third connection: the acceptor must shed it inline.
    let raw = raw_get(&addr, "/slow/third");
    assert!(
        raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "expected an admission 503, got: {raw}"
    );
    assert!(raw.contains("retry-after: 3\r\n"), "{raw}");
    assert_eq!(metrics.admission_rejects(), 1);
    assert_eq!(
        gate.started.load(Ordering::SeqCst),
        1,
        "the rejected connection must never reach the handler"
    );

    // Release the gate: both admitted requests complete normally.
    gate.release.store(true, Ordering::SeqCst);
    for handle in [first, second] {
        let got = handle.join().expect("client thread").expect("response");
        assert_eq!(got.status, 200);
        assert_eq!(got.body, b"slow done\n");
    }

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.rejected, 1, "{summary:?}");
    assert_eq!(summary.served, 2, "{summary:?}");
    assert_eq!(metrics.responses_with_status(503), 1);
    assert_eq!(metrics.responses_with_status(200), 2);
}

#[test]
fn rejections_clear_once_load_drains() {
    let metrics = Arc::new(Metrics::new());
    let gate = Arc::new(Gated {
        release: AtomicBool::new(false),
        started: AtomicUsize::new(0),
    });
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(
        "127.0.0.1:0",
        cfg,
        Arc::clone(&gate) as Arc<dyn Handler>,
        Arc::clone(&metrics),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().to_string();

    let first = spawn_get(&addr, "/slow");
    wait_until("the handler to start", || {
        gate.started.load(Ordering::SeqCst) == 1
    });
    let second = spawn_get(&addr, "/slow");
    wait_until("the queue to fill", || metrics.open_connections() == 2);
    assert!(raw_get(&addr, "/overflow").starts_with("HTTP/1.1 503 "));

    // After the drain the same server admits new work again.
    gate.release.store(true, Ordering::SeqCst);
    first.join().expect("client").expect("response");
    second.join().expect("client").expect("response");
    let after = http_get(&addr, "/healthz", 10_000).expect("healthz after overload");
    assert_eq!(after.status, 200);

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.rejected, 1, "{summary:?}");
}
