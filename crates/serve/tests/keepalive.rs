//! Keep-alive acceptance: one socket must serve a sequence of requests
//! with exactly the same application bytes as a sequence of fresh
//! connections, reuse must be counted, and pipelined heads must be
//! answered in order.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dynamips_serve::{
    http_get, Connection, Handler, Metrics, Request, Response, ServeConfig, Server,
};

/// Path-echoing handler so every request has a distinguishable body.
struct Echo;

impl Handler for Echo {
    fn respond(&self, req: &Request) -> Response {
        Response::text(200, format!("echo {}\n", req.path))
    }
}

fn start(metrics: &Arc<Metrics>) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::new(Echo),
        Arc::clone(metrics),
    )
    .expect("bind ephemeral")
}

#[test]
fn one_socket_serves_n_requests_byte_identical_to_n_fresh_connections() {
    const N: usize = 5;
    let metrics = Arc::new(Metrics::new());
    let server = start(&metrics);
    let addr = server.local_addr().to_string();

    let mut conn = Connection::open(&addr, 5_000).expect("connect");
    let mut kept = Vec::new();
    for i in 0..N {
        let got = conn
            .request("GET", &format!("/app/{i}"), "")
            .expect("keep-alive get");
        kept.push((got.status, got.body));
    }
    assert!(conn.is_reusable(), "server must not close between requests");
    assert_eq!(conn.requests_served(), N as u64);

    let mut fresh = Vec::new();
    for i in 0..N {
        let got = http_get(&addr, &format!("/app/{i}"), 5_000).expect("fresh get");
        fresh.push((got.status, got.body));
    }
    assert_eq!(
        kept, fresh,
        "status and body must not depend on connection reuse"
    );
    assert_eq!(
        metrics.keepalive_reuses(),
        (N - 1) as u64,
        "every request on the shared socket after the first is a reuse"
    );

    drop(conn);
    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.served, 2 * N as u64, "{summary:?}");
    assert_eq!(summary.rejected, 0, "{summary:?}");
}

#[test]
fn pipelined_heads_are_answered_in_order_on_one_socket() {
    let metrics = Arc::new(Metrics::new());
    let server = start(&metrics);
    let addr = server.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Two heads in a single write; the second asks to close so the
    // response stream has a definite end.
    stream
        .write_all(
            b"GET /first HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /second HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .expect("pipelined write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read both responses");
    let text = String::from_utf8_lossy(&raw);
    let first = text.find("echo /first\n").expect("first body present");
    let second = text.find("echo /second\n").expect("second body present");
    assert!(first < second, "responses must come back in request order");
    assert!(
        text.contains("connection: keep-alive"),
        "first response keeps the connection: {text}"
    );
    assert!(
        text.contains("connection: close"),
        "second response honors Connection: close: {text}"
    );

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.served, 2, "{summary:?}");
}
