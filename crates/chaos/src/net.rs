//! Seeded fault injection for the wire: a deterministic TCP proxy.
//!
//! [`ChaosProxy`] sits between an HTTP client and an upstream server and
//! injects the transport faults real deployments see — connection
//! resets, accept stalls, torn writes, slow-loris byte dribbling,
//! response-byte corruption, and hard black-holes. Like the TSV
//! corruption operators in the crate root, every fault is driven by a
//! seed (same seed + same connection order ⇒ same faults) and recorded
//! in a ground-truth [`NetFaultLog`], so a harness can verify that the
//! resilient client recovered from exactly the faults that were
//! injected and nothing else.
//!
//! The proxy is deliberately request-oriented: it reads one request head
//! from the client, forwards it upstream, buffers the full upstream
//! response, and then replays that response toward the client through
//! the fault operator chosen for the connection. Fault decisions are
//! made per *connection* (at most one operator each), which keeps the
//! schedule deterministic under a sequential client.
//!
//! No wall-clock reads: timing faults are expressed as fixed
//! `Duration` sleeps and socket deadlines from the [`NetFaultPlan`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Hard cap on a buffered upstream response (64 MiB), matching the
/// serve client's own cap.
const MAX_PROXIED_BYTES: usize = 64 << 20;

/// Hard cap on a buffered request head.
const MAX_HEAD_BYTES: usize = 64 << 10;

/// One transport fault the proxy can inject on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetFaultOp {
    /// Drop the client connection immediately after accept, before any
    /// bytes flow (the client sees EOF or a reset).
    ConnReset,
    /// Sit on the accepted connection for `stall_ms` before proxying;
    /// with a stall longer than the client's deadline this looks like a
    /// hung accept queue.
    AcceptStall,
    /// Forward only the first half of the upstream response, then hang
    /// up (torn/partial write).
    TornWrite,
    /// Dribble the response out in tiny chunks with a delay between
    /// each (slow-loris). All bytes do arrive, eventually.
    SlowLoris,
    /// Flip bits in the first bytes of the response head so the status
    /// line is no longer `HTTP/1.`-shaped.
    CorruptByte,
    /// Read the request, forward nothing, hold the connection open for
    /// `blackhole_ms`, then hang up without a byte of response.
    BlackHole,
}

/// Every operator, in the fixed order fault selection consults them.
pub const NET_FAULT_OPS: [NetFaultOp; 6] = [
    NetFaultOp::ConnReset,
    NetFaultOp::AcceptStall,
    NetFaultOp::TornWrite,
    NetFaultOp::SlowLoris,
    NetFaultOp::CorruptByte,
    NetFaultOp::BlackHole,
];

impl NetFaultOp {
    /// Stable kebab-case label used in logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            NetFaultOp::ConnReset => "conn-reset",
            NetFaultOp::AcceptStall => "accept-stall",
            NetFaultOp::TornWrite => "torn-write",
            NetFaultOp::SlowLoris => "slow-loris",
            NetFaultOp::CorruptByte => "corrupt-byte",
            NetFaultOp::BlackHole => "black-hole",
        }
    }

    /// Whether a well-behaved retrying client can still complete the
    /// request on this very connection (true only for faults that
    /// deliver every response byte intact, however slowly).
    pub fn delivers_response(self) -> bool {
        matches!(self, NetFaultOp::SlowLoris)
    }
}

/// Per-operator injection rates plus the timing knobs shared by the
/// timing-shaped faults. Rates are probabilities in `[0, 1]`; values
/// outside the range are clamped at decision time.
#[derive(Debug, Clone)]
pub struct NetFaultPlan {
    /// Seed for the per-connection fault decisions.
    pub seed: u64,
    /// Injection rate per operator, indexed parallel to
    /// [`NET_FAULT_OPS`].
    pub rates: [f64; NET_FAULT_OPS.len()],
    /// How long an [`NetFaultOp::AcceptStall`] sits before proxying.
    pub stall_ms: u64,
    /// How long a [`NetFaultOp::BlackHole`] holds the connection.
    pub blackhole_ms: u64,
    /// Chunk size for [`NetFaultOp::SlowLoris`] dribbling.
    pub dribble_chunk: usize,
    /// Delay between dribbled chunks, milliseconds.
    pub dribble_delay_ms: u64,
    /// Socket deadline for the proxy's own upstream and client I/O.
    pub io_timeout_ms: u64,
}

impl NetFaultPlan {
    /// A plan that injects nothing: the proxy is a pure passthrough.
    pub fn quiet(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            rates: [0.0; NET_FAULT_OPS.len()],
            stall_ms: 1_500,
            blackhole_ms: 1_500,
            dribble_chunk: 256,
            dribble_delay_ms: 2,
            io_timeout_ms: 10_000,
        }
    }

    /// A plan applying `rate` to every operator uniformly.
    pub fn uniform(seed: u64, rate: f64) -> NetFaultPlan {
        let mut plan = NetFaultPlan::quiet(seed);
        plan.rates = [rate.clamp(0.0, 1.0); NET_FAULT_OPS.len()];
        plan
    }

    /// The injection rate configured for `op`.
    pub fn rate(&self, op: NetFaultOp) -> f64 {
        NET_FAULT_OPS
            .iter()
            .position(|o| *o == op)
            .and_then(|idx| self.rates.get(idx).copied())
            .unwrap_or(0.0)
    }

    /// Set the injection rate for one operator (clamped to `[0, 1]`).
    pub fn set_rate(&mut self, op: NetFaultOp, rate: f64) {
        if let Some(idx) = NET_FAULT_OPS.iter().position(|o| *o == op) {
            if let Some(slot) = self.rates.get_mut(idx) {
                *slot = rate.clamp(0.0, 1.0);
            }
        }
    }

    /// Choose at most one fault for connection number `conn`,
    /// deterministically from the plan seed. Operators are consulted in
    /// [`NET_FAULT_OPS`] order; the first whose biased coin lands wins.
    fn choose(&self, conn: u64) -> Option<NetFaultOp> {
        let mut rng = SmallRng::seed_from_u64(
            self.seed ^ conn.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for (idx, op) in NET_FAULT_OPS.iter().enumerate() {
            let rate = self.rates.get(idx).copied().unwrap_or(0.0).clamp(0.0, 1.0);
            if rate > 0.0 && rng.gen_bool(rate) {
                return Some(*op);
            }
        }
        None
    }
}

/// One injected fault: which connection (accept order, from 0) and
/// which operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Connection sequence number, in accept order.
    pub conn: u64,
    /// The operator applied.
    pub op: NetFaultOp,
}

/// Ground truth of everything the proxy did to the traffic.
#[derive(Debug, Clone, Default)]
pub struct NetFaultLog {
    /// Connections the proxy accepted.
    pub conns: u64,
    /// Every injected fault, in accept order.
    pub injected: Vec<InjectedFault>,
}

impl NetFaultLog {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.injected.len() as u64
    }

    /// Faults injected with `op`.
    pub fn count(&self, op: NetFaultOp) -> u64 {
        self.injected.iter().filter(|f| f.op == op).count() as u64
    }

    /// Per-operator fault counts keyed by stable label.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for f in &self.injected {
            *out.entry(f.op.label()).or_insert(0) += 1;
        }
        out
    }

    /// Whether the proxy behaved as a pure passthrough.
    pub fn is_quiet(&self) -> bool {
        self.injected.is_empty()
    }

    /// Render a one-line summary (`faults=3/12 conn-reset=1 ...`).
    pub fn render(&self) -> String {
        let mut out = format!("faults={}/{}", self.total(), self.conns);
        for (label, n) in self.counts() {
            out.push_str(&format!(" {label}={n}"));
        }
        out
    }
}

struct ProxyShared {
    upstream: SocketAddr,
    plan: NetFaultPlan,
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    log: Mutex<NetFaultLog>,
    conns: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running fault-injecting proxy; see the module docs.
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    acceptor: Option<thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl ChaosProxy {
    /// Bind an ephemeral local port and start proxying to `upstream`
    /// under `plan`.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            plan,
            shutdown: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            log: Mutex::new(NetFaultLog::default()),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        #[allow(clippy::disallowed_methods, reason = "the proxy's acceptor thread")]
        let acceptor = thread::spawn(move || accept_loop(&listener, &acceptor_shared));
        Ok(ChaosProxy {
            shared,
            acceptor: Some(acceptor),
            addr,
        })
    }

    /// The proxy's listening address (connect clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the fault log so far.
    pub fn log(&self) -> NetFaultLog {
        self.shared
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Stop accepting, join every in-flight connection thread, and
    /// return the final ground-truth fault log.
    pub fn stop(mut self) -> NetFaultLog {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
        self.log()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                let fault = shared.plan.choose(conn);
                {
                    let mut log = shared.log.lock().unwrap_or_else(PoisonError::into_inner);
                    log.conns += 1;
                    if let Some(op) = fault {
                        log.injected.push(InjectedFault { conn, op });
                    }
                }
                let conn_shared = Arc::clone(shared);
                #[allow(clippy::disallowed_methods, reason = "one proxy thread per connection")]
                let handle = thread::spawn(move || handle_connection(&conn_shared, stream, fault));
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_connection(shared: &ProxyShared, mut client: TcpStream, fault: Option<NetFaultOp>) {
    let plan = &shared.plan;
    let io_timeout = Duration::from_millis(plan.io_timeout_ms.max(1));
    let _ = client.set_read_timeout(Some(io_timeout));
    let _ = client.set_write_timeout(Some(io_timeout));

    if fault == Some(NetFaultOp::ConnReset) {
        // Hang up before a single byte flows; the client sees EOF (or a
        // reset if its request raced into our receive buffer).
        return;
    }
    if fault == Some(NetFaultOp::AcceptStall) {
        thread::sleep(Duration::from_millis(plan.stall_ms));
    }

    let Some(head) = read_head(&mut client) else {
        return;
    };
    if fault == Some(NetFaultOp::BlackHole) {
        thread::sleep(Duration::from_millis(plan.blackhole_ms));
        return;
    }

    let Some(mut resp) = fetch_upstream(shared.upstream, &head, io_timeout) else {
        // Upstream unreachable: indistinguishable from a black-hole to
        // the client, which is the honest signal.
        return;
    };

    match fault {
        Some(NetFaultOp::TornWrite) => {
            let keep = resp.len() / 2;
            let _ = client.write_all(resp.get(..keep).unwrap_or(&resp));
        }
        Some(NetFaultOp::SlowLoris) => {
            let chunk = plan.dribble_chunk.max(1);
            let delay = Duration::from_millis(plan.dribble_delay_ms);
            for piece in resp.chunks(chunk) {
                if client.write_all(piece).is_err() {
                    return;
                }
                let _ = client.flush();
                thread::sleep(delay);
            }
        }
        Some(NetFaultOp::CorruptByte) => {
            // Damage the first seven bytes ("HTTP/1.") so a strict
            // client always detects the corruption from the status
            // line; the body is never silently altered.
            for byte in resp.iter_mut().take(7) {
                *byte ^= 0x40;
            }
            let _ = client.write_all(&resp);
        }
        _ => {
            let _ = client.write_all(&resp);
        }
    }
    let _ = client.flush();
}

/// Read one request head (through the blank line) from the client.
fn read_head(client: &mut TcpStream) -> Option<Vec<u8>> {
    let mut head: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            return Some(head);
        }
        if head.len() > MAX_HEAD_BYTES {
            return None;
        }
        match client.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => head.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(_) => return None,
        }
    }
}

/// Forward `head` to the upstream server and buffer its full response.
fn fetch_upstream(upstream: SocketAddr, head: &[u8], io_timeout: Duration) -> Option<Vec<u8>> {
    let mut server = TcpStream::connect_timeout(&upstream, io_timeout).ok()?;
    server.set_read_timeout(Some(io_timeout)).ok()?;
    server.set_write_timeout(Some(io_timeout)).ok()?;
    server.write_all(head).ok()?;
    let _ = server.flush();
    let mut resp = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        match server.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                resp.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                if resp.len() > MAX_PROXIED_BYTES {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    Some(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-shot upstream returning a fixed, well-formed response per
    /// connection, for `n` connections.
    fn fixed_upstream(n: usize) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        #[allow(clippy::disallowed_methods, reason = "test upstream server thread")]
        let handle = thread::spawn(move || {
            for _ in 0..n {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut buf = [0u8; 2048];
                let mut head = Vec::new();
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => head.extend_from_slice(&buf[..n]),
                    }
                }
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 6\r\n\r\nhello\n");
            }
        });
        (addr, handle)
    }

    fn fetch_via(proxy: &ChaosProxy) -> Vec<u8> {
        let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        stream
            .write_all(b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        out
    }

    #[test]
    fn quiet_plan_is_byte_transparent() {
        let (upstream, upstream_thread) = fixed_upstream(2);
        let proxy = ChaosProxy::start(upstream, NetFaultPlan::quiet(1)).unwrap();
        for _ in 0..2 {
            let got = fetch_via(&proxy);
            assert_eq!(got, b"HTTP/1.1 200 OK\r\ncontent-length: 6\r\n\r\nhello\n");
        }
        let log = proxy.stop();
        assert!(log.is_quiet(), "{log:?}");
        assert_eq!(log.conns, 2);
        upstream_thread.join().unwrap();
    }

    #[test]
    fn corrupt_byte_breaks_the_status_line_but_logs_ground_truth() {
        let (upstream, upstream_thread) = fixed_upstream(1);
        let mut plan = NetFaultPlan::quiet(7);
        plan.set_rate(NetFaultOp::CorruptByte, 1.0);
        let proxy = ChaosProxy::start(upstream, plan).unwrap();
        let got = fetch_via(&proxy);
        assert!(!got.starts_with(b"HTTP/1."), "{got:?}");
        assert!(got.ends_with(b"hello\n"), "body must be untouched");
        let log = proxy.stop();
        assert_eq!(log.count(NetFaultOp::CorruptByte), 1);
        assert_eq!(log.total(), 1);
        assert!(log.render().contains("corrupt-byte=1"), "{}", log.render());
        upstream_thread.join().unwrap();
    }

    #[test]
    fn torn_write_truncates_and_reset_returns_nothing() {
        let (upstream, upstream_thread) = fixed_upstream(1);
        let mut plan = NetFaultPlan::quiet(3);
        plan.set_rate(NetFaultOp::TornWrite, 1.0);
        let proxy = ChaosProxy::start(upstream, plan).unwrap();
        let torn = fetch_via(&proxy);
        assert!(!torn.is_empty() && !torn.ends_with(b"hello\n"), "{torn:?}");
        proxy.stop();
        upstream_thread.join().unwrap();

        let (upstream, upstream_thread) = fixed_upstream(1);
        let mut plan = NetFaultPlan::quiet(3);
        plan.set_rate(NetFaultOp::ConnReset, 1.0);
        let proxy = ChaosProxy::start(upstream, plan).unwrap();
        let nothing = fetch_via(&proxy);
        assert!(nothing.is_empty(), "{nothing:?}");
        let log = proxy.stop();
        assert_eq!(log.count(NetFaultOp::ConnReset), 1);
        drop(upstream_thread); // reset never reaches the upstream
    }

    #[test]
    fn slow_loris_still_delivers_identical_bytes() {
        let (upstream, upstream_thread) = fixed_upstream(1);
        let mut plan = NetFaultPlan::quiet(9);
        plan.set_rate(NetFaultOp::SlowLoris, 1.0);
        plan.dribble_chunk = 4;
        plan.dribble_delay_ms = 1;
        let proxy = ChaosProxy::start(upstream, plan).unwrap();
        let got = fetch_via(&proxy);
        assert_eq!(got, b"HTTP/1.1 200 OK\r\ncontent-length: 6\r\n\r\nhello\n");
        let log = proxy.stop();
        assert_eq!(log.count(NetFaultOp::SlowLoris), 1);
        assert!(NetFaultOp::SlowLoris.delivers_response());
        upstream_thread.join().unwrap();
    }

    #[test]
    fn fault_schedule_is_deterministic_in_the_seed() {
        let plan_a = NetFaultPlan::uniform(42, 0.5);
        let plan_b = NetFaultPlan::uniform(42, 0.5);
        let plan_c = NetFaultPlan::uniform(43, 0.5);
        let picks_a: Vec<_> = (0..64).map(|c| plan_a.choose(c)).collect();
        let picks_b: Vec<_> = (0..64).map(|c| plan_b.choose(c)).collect();
        let picks_c: Vec<_> = (0..64).map(|c| plan_c.choose(c)).collect();
        assert_eq!(picks_a, picks_b);
        assert_ne!(picks_a, picks_c);
        assert!(picks_a.iter().any(|p| p.is_some()));
        assert!(picks_a.iter().any(|p| p.is_none()));
    }
}
