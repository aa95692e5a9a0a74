//! `wire-mixed`: one `dynamips serve` process (DualHandler, world seed
//! 11, scale 0.02, two workers) driven by an open-loop generator on two
//! keep-alive connections, one for reads and one for writes.
//!
//! Reads are `GET /artifacts/<x>` over the 11 paper figures and tables
//! plus `claims`; each re-renders on the server (~1.3 ms), so reads are
//! handler-bound. Writes are POST -> PUT renew -> DELETE lease cycles
//! whose allocator work is microseconds beside the transport, so writes
//! are reactor-bound. Both share the two workers. Left out: `check`,
//! which answers 500 at this scale, and `targetgen` and `sanitizer`,
//! which take 8-10 s and ~0.7 s per GET.
//!
//! An op is timed from when the schedule said to send it whenever its
//! connection was still busy then, so a server stall is charged to every
//! op it delays; a generator that merely woke late is not charged, and
//! shows in `wire.late_frac` instead. The rates are far below
//! saturation: the server spends ~7% of one core on them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dynamips_experiments::{engine, ipam_service, service, ExperimentConfig};
use dynamips_serve::http::{serialize_response, ParseOutcome};
use dynamips_serve::{scan_request, Disposition, Handler, Metrics, ServeConfig};

use crate::common::{
    cpu_ms, fnv64, mean, median, ms_since, peak_rss_mb, percentile, Derivation, Metric, Oracle,
    Outcome, SplitMix,
};
use crate::trace::Stage;

/// Per-artifact digests of the served bytes, recorded at the parent commit.
const ORACLE: &str = include_str!("../oracles/wire-mixed.txt");
pub const WORLDS: (u64, u64) = (11, 12);
const SCALE: f64 = 0.02;
const SERVE_WORKERS: &str = "2";
pub const READS: [&str; 12] = [
    "table1", "fig1", "fig5", "fig6", "fig8", "fig9", "table2", "fig2", "fig3", "fig4", "fig7",
    "claims",
];
/// Offered rates: reads a second and lease cycles a second.
const READ_RATE: f64 = 60.0;
const WRITE_RATE: f64 = 60.0;
/// A send that starts this much after its due time counts as late.
const LATE_MS: f64 = 1.0;
/// Server spawns timed for `setup_s`; the last one serves the run.
const SETUP_SPAWNS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub const DERIVATIONS: [Derivation; 4] = [
    Derivation {
        metric: "setup_s",
        num: "spawn_to_warm",
        den: "spawns",
    },
    Derivation {
        metric: "latency_ms",
        num: "read_wait",
        den: "1",
    },
    Derivation {
        metric: "cpu_ms",
        num: "server_cpu",
        den: "requests",
    },
    Derivation {
        metric: "peak_rss_mb",
        num: "server_vmhwm",
        den: "1",
    },
];
pub const HARNESS_FIXED: [&str; 5] = ["spawns", "reads", "requests", "read_rate", "seconds"];

/// Build the `dynamips` binary from this checkout and return its path.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "dynamips-experiments",
            "--bin",
            "dynamips",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dynamips failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("dynamips"))
}

/// A running `dynamips serve`; dropping it kills and reaps the process.
struct Server {
    child: Child,
    // Held so the server's stdout stays open for as long as it runs.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(bin: &Path, world: u64) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--seed", &world.to_string()])
            .args([
                "--atlas-scale",
                &SCALE.to_string(),
                "--cdn-scale",
                &SCALE.to_string(),
            ])
            .args([
                "--serve-workers",
                SERVE_WORKERS,
                "serve",
                "--addr",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".into());
        };
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the listening line: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("dynamips-serve listening on http://")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /shutdown`, then wait for the drain; kill after 10 s.
    fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.send("GET", "/shutdown", "");
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) => thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err("server did not drain within 10 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The exact bytes the generator sends for one request.
fn request_bytes(method: &str, path: &str, body: &str, host: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A client keep-alive connection with `Content-Length` framing.
struct Conn {
    addr: String,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        Ok(Conn {
            addr: addr.to_string(),
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// One request/response exchange: `(status, body, keep_alive)`.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, Vec<u8>, bool), String> {
        self.stream
            .write_all(&request_bytes(method, path, body, &self.addr))
            .map_err(|e| format!("write: {e}"))?;
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut length = None;
        let mut keep_alive = true;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                let k = k.trim().to_ascii_lowercase();
                if k == "content-length" {
                    length = v.trim().parse::<usize>().ok();
                } else if k == "connection" && v.trim().eq_ignore_ascii_case("close") {
                    keep_alive = false;
                }
            }
        }
        let length = length.ok_or("response without content-length")?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((status, body, keep_alive))
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed by server".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Send on the connection, reopening it when the last exchange closed
/// or broke it.
fn exchange(
    conn: &mut Option<Conn>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let c = match conn {
        Some(c) => c,
        None => conn.insert(Conn::open(addr)?),
    };
    match c.send(method, path, body) {
        Ok((status, body, keep_alive)) => {
            if !keep_alive {
                *conn = None;
            }
            Ok((status, body))
        }
        Err(e) => {
            *conn = None;
            Err(e)
        }
    }
}

/// `key=` of a lease-endpoint body.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
}

/// One scheduled operation as it happened.
struct Op {
    class: Class,
    /// Read artifact, or lease client id.
    key: String,
    due_ms: f64,
    start_ms: f64,
    end_ms: f64,
    /// Where the op's latency is counted from: its due time when the
    /// connection was still busy with the previous op then (a server
    /// stall delays every later op), else its actual send. A generator
    /// thread that wakes late is the harness's delay, not the server's;
    /// it shows in `wire.late_frac` instead.
    clock_ms: f64,
    /// Client-side time of each request of the op (one for a read,
    /// three for a lease cycle), send to full body.
    requests_ms: Vec<f64>,
    ok: bool,
    error: Option<String>,
}

/// Poisson arrival offsets (ms) at `rate` a second over `seconds`.
fn arrivals(rng: &mut SplitMix, rate: f64, seconds: f64) -> Vec<f64> {
    let mut at = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate * 1e3;
        if t >= seconds * 1e3 {
            return at;
        }
        at.push(t);
    }
}

/// The generated inputs of one traffic window: read artifacts in
/// seeded order (each of the 12 once per round) and lease client ids.
struct Plan {
    reads: Vec<(f64, String)>,
    writes: Vec<(f64, String)>,
}

fn plan(seed: u64, seconds: f64) -> Plan {
    let mut rng = SplitMix::new(seed);
    let read_at = arrivals(&mut rng, READ_RATE, seconds);
    let write_at = arrivals(&mut rng, WRITE_RATE, seconds);
    let mut order: Vec<&str> = Vec::new();
    let mut reads = Vec::with_capacity(read_at.len());
    for at in read_at {
        if order.is_empty() {
            order = READS.to_vec();
            for i in (1..order.len()).rev() {
                order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        let name = order.pop().unwrap_or("fig1");
        reads.push((at, name.to_string()));
    }
    let base = (rng.next_u64() % 1_000_000) * 1_000;
    let writes = write_at
        .into_iter()
        .enumerate()
        .map(|(i, at)| (at, (base + i as u64).to_string()))
        .collect();
    Plan { reads, writes }
}

fn read_op(
    conn: &mut Option<Conn>,
    addr: &str,
    name: &str,
    oracle: &Oracle,
    world: u64,
) -> (Vec<f64>, Result<(), String>) {
    let t = Instant::now();
    let result = exchange(conn, addr, "GET", &format!("/artifacts/{name}"), "");
    let took = vec![ms_since(t)];
    let verdict = result.and_then(|(status, body)| {
        let got = format!("{:016x}", fnv64(&body));
        match oracle.get(world, name) {
            _ if status != 200 => Err(format!("GET {name} -> {status}")),
            Some(want) if want == got => Ok(()),
            want => Err(format!("GET {name}: digest {got}, recorded {want:?}")),
        }
    });
    (took, verdict)
}

fn write_op(conn: &mut Option<Conn>, addr: &str, client: &str) -> (Vec<f64>, Result<(), String>) {
    let mut took = Vec::with_capacity(3);
    let mut step = |method: &str, path: &str, body: &str, want: u16| {
        let t = Instant::now();
        let result = exchange(conn, addr, method, path, body);
        took.push(ms_since(t));
        let (status, body) = result?;
        let body = String::from_utf8_lossy(&body).to_string();
        if status != want {
            return Err(format!("{method} {path} -> {status}: {}", body.trim()));
        }
        Ok(body)
    };
    let verdict = (|| {
        let granted = step(
            "POST",
            "/leases",
            &format!("pool=grace0&client={client}&lifetime=100"),
            201,
        )?;
        let id = field(&granted, "id").ok_or("grant without id")?.to_string();
        if field(&granted, "pool") != Some("grace0") {
            return Err(format!("grant from the wrong pool: {granted:?}"));
        }
        let path = format!("/leases/{id}");
        let renewed = step("PUT", &format!("{path}/renew"), "lifetime=100", 200)?;
        if field(&renewed, "id") != Some(id.as_str()) {
            return Err(format!("renew answered for another lease: {renewed:?}"));
        }
        let released = step("DELETE", &path, "", 200)?;
        if field(&released, "id") != Some(id.as_str()) || field(&released, "pool") != Some("grace0")
        {
            return Err(format!("release answered for another lease: {released:?}"));
        }
        Ok(())
    })();
    (took, verdict)
}

/// Drive one traffic window against `addr`: reads on one connection,
/// lease cycles on the other, each on its own schedule.
fn drive(addr: &str, plan: &Plan, oracle: &Oracle, world: u64) -> Vec<Op> {
    let epoch = Instant::now() + Duration::from_millis(50);
    let since = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e3;
    let run = |class: Class, schedule: &[(f64, String)]| {
        let (mut conn, mut free_at) = (None, 0.0);
        let mut ops = Vec::with_capacity(schedule.len());
        for (due_ms, key) in schedule {
            let due = epoch + Duration::from_secs_f64(due_ms / 1e3);
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                thread::sleep(ahead);
            }
            let start = Instant::now();
            let (requests_ms, verdict) = match class {
                Class::Read => read_op(&mut conn, addr, key, oracle, world),
                Class::Write => write_op(&mut conn, addr, key),
            };
            let (start_ms, end_ms) = (since(start), since(Instant::now()));
            ops.push(Op {
                class,
                key: key.clone(),
                due_ms: *due_ms,
                start_ms,
                end_ms,
                clock_ms: if free_at > *due_ms { *due_ms } else { start_ms },
                requests_ms,
                ok: verdict.is_ok(),
                error: verdict.err(),
            });
            free_at = end_ms;
        }
        ops
    };
    thread::scope(|s| {
        let reads = s.spawn(|| run(Class::Read, &plan.reads));
        let writes = s.spawn(|| run(Class::Write, &plan.writes));
        let mut ops = reads.join().unwrap_or_default();
        ops.extend(writes.join().unwrap_or_default());
        ops
    })
}

/// Spawn a server and GET every read artifact once; returns the server
/// and the spawn-to-warm time in ms.
fn spawn_warm(
    bin: &Path,
    world: u64,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::spawn(bin, world)?;
    let mut conn = None;
    for name in READS {
        let (_, verdict) = read_op(&mut conn, &server.addr, name, oracle, world);
        out.check(verdict.is_ok(), || {
            format!("wire-mixed warm-up: {verdict:?}")
        });
    }
    Ok((server, ms_since(t)))
}

/// Post-run drain: no live lease and a conserving pool table.
fn drain_check(addr: &str, out: &mut Outcome) {
    let mut conn = None;
    let verdict = (|| {
        let (_, metrics) = exchange(&mut conn, addr, "GET", "/ipam-metrics", "")?;
        if !String::from_utf8_lossy(&metrics).contains("dynamips_ipam_leases_active 0\n") {
            return Err("leases_active did not drain to 0".to_string());
        }
        let (status, pools) = exchange(&mut conn, addr, "GET", "/pools", "")?;
        if status != 200 || !String::from_utf8_lossy(&pools).contains("conservation=ok") {
            return Err(format!("GET /pools -> {status} without conservation=ok"));
        }
        Ok(())
    })();
    out.check(verdict.is_ok(), || format!("wire-mixed drain: {verdict:?}"));
}

fn account(ops: &[Op], out: &mut Outcome) {
    for op in ops {
        out.check(op.ok, || {
            format!(
                "wire-mixed {} {}: {}",
                if op.class == Class::Read {
                    "read"
                } else {
                    "write"
                },
                op.key,
                op.error.clone().unwrap_or_default()
            )
        });
    }
}

fn latencies(ops: &[Op], class: Class) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.class == class)
        .map(|o| o.end_ms - o.clock_ms)
        .collect()
}

/// Each read artifact's median latency, in `READS` order.
fn read_medians(ops: &[Op]) -> Vec<(&'static str, f64)> {
    READS
        .iter()
        .map(|name| {
            let l: Vec<f64> = ops
                .iter()
                .filter(|o| o.class == Class::Read && o.key == *name)
                .map(|o| o.end_ms - o.clock_ms)
                .collect();
            (*name, median(&l))
        })
        .collect()
}

/// The time to read each of the 12 artifacts once: the sum of their
/// median latencies. Their render costs differ by an order of
/// magnitude, so the median of the pooled reads falls in the gap
/// between cheap and costly artifacts and jumps from run to run; a
/// per-artifact median does not.
fn read_set_ms(ops: &[Op]) -> f64 {
    read_medians(ops).iter().map(|(_, ms)| ms).sum()
}

fn late_frac(ops: &[Op]) -> f64 {
    let late = ops
        .iter()
        .filter(|o| o.start_ms - o.due_ms > LATE_MS)
        .count();
    if ops.is_empty() {
        0.0
    } else {
        late as f64 / ops.len() as f64
    }
}

fn summary(ops: &[Op], seconds: f64, out: &mut Outcome) {
    for (class, label) in [(Class::Read, "read"), (Class::Write, "lease cycle")] {
        let l = latencies(ops, class);
        out.note(format!(
            "{label}: {} ops ({:.1}/s), p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
            l.len(),
            l.len() as f64 / seconds,
            percentile(&l, 50.0),
            percentile(&l, 90.0),
            percentile(&l, 99.0)
        ));
    }
    let per_artifact: Vec<String> = read_medians(ops)
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.3}"))
        .collect();
    out.note(format!(
        "read median by artifact (ms): {}",
        per_artifact.join(", ")
    ));
    out.note(format!(
        "late sends (> {LATE_MS} ms): {:.4} of all",
        late_frac(ops)
    ));
}

pub fn record(root: &Path, world: u64) -> Result<(), String> {
    let bin = build_server(root)?;
    let server = Server::spawn(&bin, world)?;
    let mut conn = None;
    for name in READS {
        let (status, body) = exchange(
            &mut conn,
            &server.addr,
            "GET",
            &format!("/artifacts/{name}"),
            "",
        )?;
        if status != 200 {
            return Err(format!("GET {name} -> {status}"));
        }
        println!("{world} {name} {:016x}", fnv64(&body));
    }
    server.shutdown()
}

pub fn run(root: &Path, world: u64, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = Oracle::parse(ORACLE)?;
    if !oracle.has_world(world) {
        return Err(format!("no recorded digests for world {world}"));
    }
    let bin = build_server(root)?;
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut serving = None;
    for i in 0..SETUP_SPAWNS {
        let (server, ms) = spawn_warm(&bin, world, &oracle, &mut out)?;
        setups.push(ms);
        if i + 1 < SETUP_SPAWNS {
            server.shutdown()?;
        } else {
            serving = Some(server);
        }
    }
    let server = serving.ok_or("no server spawned")?;
    let plan = plan(seed, seconds as f64);
    let cpu0 = cpu_ms(Some(server.pid()))?;
    let ops = drive(&server.addr, &plan, &oracle, world);
    let server_cpu = cpu_ms(Some(server.pid()))? - cpu0;
    let requests: usize = ops.iter().map(|o| o.requests_ms.len()).sum();
    account(&ops, &mut out);
    drain_check(&server.addr, &mut out);
    let rss = peak_rss_mb(Some(server.pid()))?;
    server.shutdown()?;
    summary(&ops, seconds as f64, &mut out);
    out.note(format!(
        "server cpu: {server_cpu:.0} ms over {requests} requests"
    ));
    out.metrics = vec![
        Metric::new("setup_s", median(&setups) / 1e3, "s"),
        Metric::new("latency_ms", read_set_ms(&ops), "ms"),
        Metric::new("cpu_ms", server_cpu / requests.max(1) as f64, "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    Ok(out)
}

/// Counters and the head-to-flush latency sum of a `/metrics` scrape.
fn scrape(addr: &str) -> Result<Vec<(String, f64)>, String> {
    let mut conn = None;
    let (status, body) = exchange(&mut conn, addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics -> {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

fn delta(before: &[(String, f64)], after: &[(String, f64)], key: &str) -> f64 {
    let get = |s: &[(String, f64)]| s.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v);
    get(after) - get(before)
}

/// Mean microseconds of each layer call, replayed in process.
#[derive(Default)]
struct Replay {
    parse_us: Vec<f64>,
    respond_us: Vec<f64>,
    serialize_us: Vec<f64>,
    artifact_us: Vec<f64>,
    artifact_bytes: Vec<f64>,
    verb_us: [Vec<f64>; 3],
}

/// Replay the window's requests through the server's layer calls in
/// this process: `scan_request` on the exact bytes sent, the handler's
/// `respond`, and `serialize_response`, timing each.
fn replay(world: u64, ops: &[Op], oracle: &Oracle, out: &mut Outcome) -> Replay {
    let cfg = ExperimentConfig {
        seed: world,
        atlas_scale: SCALE,
        cdn_scale: SCALE,
    };
    let metrics = Arc::new(Metrics::new());
    let artifacts =
        service::ArtifactService::over_engine(cfg, engine::worker_count(None), 4, metrics);
    let ipam = ipam_service::default_pools()
        .and_then(|pools| dynamips_ipam::Ipam::build(dynamips_ipam::IpamConfig::default(), pools));
    let ipam = match ipam {
        Ok(ipam) => Arc::new(ipam),
        Err(e) => {
            out.check(false, || format!("in-process allocator: {e}"));
            return Replay::default();
        }
    };
    let handler = ipam_service::DualHandler::new(ipam_service::IpamService::new(ipam), artifacts);
    let limits = ServeConfig::default();
    let mut rep = Replay::default();
    let call = |method: &str, path: &str, body: &str, rep: &mut Replay| {
        let bytes = request_bytes(method, path, body, "127.0.0.1");
        let t = Instant::now();
        let parsed = scan_request(&bytes, limits.max_head_bytes, limits.max_body_bytes);
        let parse_us = t.elapsed().as_secs_f64() * 1e6;
        let Some((ParseOutcome::Ok(req), _)) = parsed else {
            return None;
        };
        let t = Instant::now();
        let resp = handler.respond(&req);
        let respond_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        std::hint::black_box(serialize_response(&resp, Disposition::KeepAlive));
        rep.serialize_us.push(t.elapsed().as_secs_f64() * 1e6);
        rep.parse_us.push(parse_us);
        rep.respond_us.push(respond_us);
        Some((resp, respond_us))
    };
    // Warm the in-process session as the server's warm-up did.
    for name in READS {
        let _ = handler.respond(&dynamips_serve::Request {
            method: "GET".into(),
            path: format!("/artifacts/{name}"),
            query: Vec::new(),
            close_requested: false,
            body: Vec::new(),
        });
    }
    let mut order: Vec<&Op> = ops.iter().collect();
    order.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    for op in order {
        let ok = match op.class {
            Class::Read => match call("GET", &format!("/artifacts/{}", op.key), "", &mut rep) {
                Some((resp, us)) => {
                    rep.artifact_us.push(us);
                    rep.artifact_bytes.push(resp.body.len() as f64);
                    oracle.get(world, &op.key)
                        == Some(format!("{:016x}", fnv64(&resp.body)).as_str())
                }
                None => false,
            },
            Class::Write => (|| {
                let body = format!("pool=grace0&client={}&lifetime=100", op.key);
                let (granted, us) = call("POST", "/leases", &body, &mut rep)?;
                rep.verb_us[0].push(us);
                let text = String::from_utf8_lossy(&granted.body).to_string();
                let id = field(&text, "id")?;
                let (renewed, us) = call(
                    "PUT",
                    &format!("/leases/{id}/renew"),
                    "lifetime=100",
                    &mut rep,
                )?;
                rep.verb_us[1].push(us);
                let (released, us) = call("DELETE", &format!("/leases/{id}"), "", &mut rep)?;
                rep.verb_us[2].push(us);
                Some(granted.status == 201 && renewed.status == 200 && released.status == 200)
            })()
            .unwrap_or(false),
        };
        out.check(ok, || format!("wire-mixed in-process replay of {}", op.key));
    }
    rep
}

pub fn traced(root: &Path, world: u64, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = Oracle::parse(ORACLE)?;
    let bin = build_server(root)?;
    let (server, setup_ms) = spawn_warm(&bin, world, &oracle, &mut out)?;
    let half = (seconds as f64 / 2.0).max(1.0);

    // Window A untraced, window B between two /metrics scrapes, on
    // independent schedules of the same shape.
    let ops_a = drive(&server.addr, &plan(seed, half), &oracle, world);
    let before = scrape(&server.addr)?;
    let ops_b = drive(
        &server.addr,
        &plan(seed.wrapping_add(1), half),
        &oracle,
        world,
    );
    let after = scrape(&server.addr)?;
    account(&ops_a, &mut out);
    account(&ops_b, &mut out);
    drain_check(&server.addr, &mut out);
    server.shutdown()?;
    out.note(format!("server spawn to warm: {setup_ms:.1} ms"));
    summary(&ops_b, half, &mut out);

    let rep = replay(world, &ops_b, &oracle, &mut out);
    let served = delta(&before, &after, "dynamips_serve_request_latency_ms_count");
    let server_ms = if served > 0.0 {
        delta(&before, &after, "dynamips_serve_request_latency_ms_sum") / served
    } else {
        0.0
    };
    let client_ms = mean(
        &ops_b
            .iter()
            .flat_map(|o| o.requests_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let layer_ms = |v: &[f64]| mean(v) / 1e3;
    let server_node = Stage::node(
        "serve.server_mean (head to flush)",
        server_ms,
        vec![
            Stage::leaf("serve.parse", layer_ms(&rep.parse_us)),
            Stage::leaf("handler.respond", layer_ms(&rep.respond_us)),
            Stage::leaf("serve.serialize", layer_ms(&rep.serialize_us)),
        ],
        "serve.dispatch_residual",
    );
    let dispatch_ms = server_node.residual().map_or(0.0, |r| r.ms);
    let root_node = Stage::node(
        "wire client request mean",
        client_ms,
        vec![server_node],
        "wire.transport",
    );
    // The layer calls are replayed in process without the server's
    // concurrency, so they may not cover the server's mean exactly.
    root_node
        .check(0.25)
        .map_err(|e| format!("stage tree does not close: {e}"))?;
    out.report.extend(root_node.render());
    let (set_a, set_b) = (read_set_ms(&ops_a), read_set_ms(&ops_b));
    out.note(format!(
        "tracing overhead: read set traced window {set_b:.3} ms - untraced window {set_a:.3} ms = {:+.3} ms",
        set_b - set_a
    ));

    let reads = latencies(&ops_b, Class::Read);
    let writes = latencies(&ops_b, Class::Write);
    let counter = |key: &str| delta(&before, &after, key);
    out.metrics = vec![
        Metric::new("serve.parse_us", mean(&rep.parse_us), "us"),
        Metric::new("service.artifact_us", mean(&rep.artifact_us), "us"),
        Metric::new("service.artifact_bytes", mean(&rep.artifact_bytes), "bytes"),
        Metric::new("ipam_service.post_us", mean(&rep.verb_us[0]), "us"),
        Metric::new("ipam_service.put_us", mean(&rep.verb_us[1]), "us"),
        Metric::new("ipam_service.delete_us", mean(&rep.verb_us[2]), "us"),
        Metric::new("serve.serialize_us", mean(&rep.serialize_us), "us"),
        Metric::new("serve.server_mean_ms", server_ms, "ms"),
        Metric::new("serve.dispatch_residual_us", dispatch_ms * 1e3, "us"),
        Metric::new(
            "wire.transport_ms",
            root_node.residual().map_or(0.0, |r| r.ms),
            "ms",
        ),
        Metric::new(
            "serve.keepalive_reuses",
            counter("dynamips_serve_keepalive_reuses_total"),
            "count",
        ),
        Metric::new(
            "serve.admission_rejects",
            counter("dynamips_serve_admission_rejects_total"),
            "count",
        ),
        Metric::new(
            "serve.cache_hits",
            counter("dynamips_serve_cache_hits_total"),
            "count",
        ),
        Metric::new(
            "serve.cache_misses",
            counter("dynamips_serve_cache_misses_total"),
            "count",
        ),
        Metric::new(
            "serve.degraded",
            counter("dynamips_serve_degraded_responses_total"),
            "count",
        ),
        Metric::new(
            "serve.worker_panics",
            counter("dynamips_serve_worker_panics_total"),
            "count",
        ),
        Metric::new("wire.late_frac", late_frac(&ops_b), "ratio"),
        Metric::new("wire.read_p90_ms", percentile(&reads, 90.0), "ms"),
        Metric::new("wire.read_p99_ms", percentile(&reads, 99.0), "ms"),
        Metric::new("wire.write_p50_ms", percentile(&writes, 50.0), "ms"),
        Metric::new("wire.write_p90_ms", percentile(&writes, 90.0), "ms"),
        Metric::new("wire.write_p99_ms", percentile(&writes, 99.0), "ms"),
    ];
    Ok(out)
}
