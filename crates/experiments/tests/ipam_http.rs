//! IPAM-over-the-reactor acceptance: a real `Server` wired to the
//! `DualHandler` (IPAM + artifacts), driven through loopback sockets
//! with the `ResilientClient` verbs.
//!
//! The load-bearing property is the RAII round-trip: a `POST /leases`
//! followed by `DELETE /leases/<id>` must return the address to the
//! pool and bring the `dynamips_ipam_leases_active` gauge back to its
//! pre-request value — no path (including error paths) may strand a
//! gauge increment or a leased address.

use std::sync::Arc;

use dynamips_experiments::ipam_service::{default_pools, DualHandler, IpamService};
use dynamips_experiments::service::ArtifactService;
use dynamips_experiments::ExperimentConfig;
use dynamips_ipam::{Ipam, IpamConfig};
use dynamips_serve::{
    http_get, http_send, BreakerConfig, Metrics, ResilientClient, RetryPolicy, ServeConfig, Server,
};

fn start_stack() -> (Server, String, Arc<Ipam>, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let config = ExperimentConfig {
        seed: 11,
        atlas_scale: 0.02,
        cdn_scale: 0.02,
    };
    let artifacts = ArtifactService::over_engine(config, 2, 2, Arc::clone(&metrics));
    let ipam = Arc::new(
        Ipam::build(IpamConfig::default(), default_pools().expect("pool specs"))
            .expect("build allocator"),
    );
    let handler = DualHandler::new(IpamService::new(Arc::clone(&ipam)), artifacts);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::new(handler),
        Arc::clone(&metrics),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().to_string();
    (server, addr, ipam, metrics)
}

/// Scrape one gauge value out of the `/ipam-metrics` page.
fn gauge(addr: &str, name: &str) -> u64 {
    let page = http_get(addr, "/ipam-metrics", 10_000).expect("metrics fetch");
    assert_eq!(page.status, 200);
    let text = String::from_utf8(page.body).expect("utf8 metrics");
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
        .trim()
        .parse()
        .expect("gauge value")
}

fn body_field(body: &str, key: &str) -> String {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("{key} missing from:\n{body}"))
        .to_string()
}

#[test]
fn post_delete_round_trip_restores_the_gauge_and_the_pool() {
    let (server, addr, ipam, metrics) = start_stack();
    let before_gauge = gauge(&addr, "dynamips_ipam_leases_active");
    let before_free: u64 = ipam.pool_stats().iter().map(|p| p.free).sum();

    // Grant over the wire. The grace0 pool returns addresses straight
    // to the free list on release, so the round-trip is observable
    // without advancing the clock.
    let grant = http_send(
        &addr,
        "POST",
        "/leases",
        "pool=grace0&client=42&lifetime=50",
        10_000,
    )
    .expect("post");
    assert_eq!(
        grant.status,
        201,
        "{}",
        String::from_utf8_lossy(&grant.body)
    );
    let body = String::from_utf8(grant.body).expect("utf8 grant");
    let id = body_field(&body, "id");
    let address = body_field(&body, "address");
    assert_eq!(body_field(&body, "pool"), "grace0");

    // The lease is live: gauge up one, pool down one address.
    assert_eq!(
        gauge(&addr, "dynamips_ipam_leases_active"),
        before_gauge + 1
    );
    let during_free: u64 = ipam.pool_stats().iter().map(|p| p.free).sum();
    assert_eq!(during_free, before_free - 1);
    let info = http_get(&addr, &format!("/leases/{id}"), 10_000).expect("lease info");
    assert_eq!(info.status, 200);
    assert!(String::from_utf8_lossy(&info.body).contains(&address));

    // Release over the wire: everything returns to the pre-request state.
    let del = http_send(&addr, "DELETE", &format!("/leases/{id}"), "", 10_000).expect("delete");
    assert_eq!(del.status, 200, "{}", String::from_utf8_lossy(&del.body));
    assert!(String::from_utf8_lossy(&del.body).contains(&address));

    assert_eq!(
        gauge(&addr, "dynamips_ipam_leases_active"),
        before_gauge,
        "gauge did not return to its pre-request value"
    );
    let after_free: u64 = ipam.pool_stats().iter().map(|p| p.free).sum();
    assert_eq!(
        after_free, before_free,
        "address did not return to the pool"
    );
    ipam.verify_conservation().expect("conservation");

    // The freed address is handed out again to the next caller.
    let regrant = http_send(
        &addr,
        "POST",
        "/leases",
        "pool=grace0&client=43&lifetime=50",
        10_000,
    )
    .expect("regrant");
    assert_eq!(regrant.status, 201);
    let rebody = String::from_utf8(regrant.body).expect("utf8 regrant");
    assert_eq!(
        body_field(&rebody, "address"),
        address,
        "lowest-free allocation should reissue the just-released address"
    );

    server.shutdown_handle().begin_shutdown();
    let summary = server.join();
    assert_eq!(summary.rejected, 0, "{summary:?}");
    // Both grants are counted under their own status series.
    let page = metrics.render_prometheus();
    for series in [
        "dynamips_serve_requests_total{code=\"201\"} 2\n",
        "dynamips_serve_requests_total{code=\"other\"} 0\n",
    ] {
        assert!(page.contains(series), "{series} missing from:\n{page}");
    }
}

#[test]
fn client_verbs_drive_the_full_lease_lifecycle() {
    let (server, addr, ipam, _metrics) = start_stack();
    let client = ResilientClient::new(RetryPolicy::default(), BreakerConfig::default());

    // POST via the client (single attempt by policy).
    let grant = client
        .request(
            &addr,
            "POST",
            "/leases",
            "pool=res&client=7&lifetime=8&location=2",
            10_000,
        )
        .expect("post");
    assert_eq!(grant.status, 201);
    let body = String::from_utf8(grant.body).expect("utf8");
    let id = body_field(&body, "id");
    let expires: u64 = body_field(&body, "expires_at").parse().expect("tick");

    // PUT renew pushes expiry out (idempotent, retried transparently).
    let renew = client
        .request(
            &addr,
            "PUT",
            &format!("/leases/{id}/renew"),
            "lifetime=100",
            10_000,
        )
        .expect("renew");
    assert_eq!(renew.status, 200);
    let renewed: u64 = body_field(&String::from_utf8(renew.body).expect("utf8"), "expires_at")
        .parse()
        .expect("tick");
    assert!(renewed > expires, "renewal must extend the lease");

    // DELETE releases; a second DELETE of the same id is a clean 404,
    // which is what makes the verb safe to retry.
    let del = client
        .request(&addr, "DELETE", &format!("/leases/{id}"), "", 10_000)
        .expect("delete");
    assert_eq!(del.status, 200);
    let again = client
        .request(&addr, "DELETE", &format!("/leases/{id}"), "", 10_000)
        .expect("second delete");
    assert_eq!(again.status, 404);

    // Artifact routes still work beside the IPAM routes, and writes to
    // them are refused.
    let health = http_get(&addr, "/healthz", 10_000).expect("healthz");
    assert_eq!(health.status, 200);
    let listing = http_get(&addr, "/artifacts", 10_000).expect("listing");
    assert_eq!(listing.status, 200);
    let write = http_send(&addr, "POST", "/artifacts/fig1", "x=1", 10_000).expect("post artifact");
    assert_eq!(write.status, 405);

    ipam.verify_conservation().expect("conservation");
    assert_eq!(ipam.live_leases(), 0);

    server.shutdown_handle().begin_shutdown();
    server.join();
}
