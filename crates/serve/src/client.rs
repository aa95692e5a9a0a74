//! A minimal blocking HTTP/1.1 client over `std::net::TcpStream`, used
//! by the load generator, the CI smoke, the chaos sweep, `ipam-sim
//! --url` and the serve tests.
//!
//! Every exchange runs through one core. A [`Connection`] writes one
//! request, and one private framer reads its response. The framer parses
//! the head once, requires an `HTTP/1.`-prefixed status line, reads
//! exactly `Content-Length` body bytes and rejects any byte past the
//! declared length, so torn writes and corrupted responses surface as
//! errors instead of silently wrong bodies. A keep-alive exchange
//! ([`Connection::request`]) leaves the socket open for the next one; a
//! one-shot exchange ([`http_send`], [`http_get`]) sends
//! `Connection: close` on a fresh socket and reads to EOF. Connecting
//! tries every resolved address of the endpoint.
//!
//! [`ResilientClient::request`] wraps one-shot exchanges with a bounded
//! [`RetryPolicy`] (exponential backoff, deterministic seeded jitter via
//! [`JitterSource`], `Retry-After` honored) and a per-endpoint
//! [`CircuitBreaker`], with every retry and breaker transition counted
//! in [`ClientMetrics`]. Only the idempotent methods `GET`, `PUT` and
//! `DELETE` are ever retried (lease endpoints key `PUT`/`DELETE` by
//! lease id); any other method gets exactly one attempt.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Hard cap on a response body we are willing to buffer (64 MiB); a
/// server streaming more than this is answered with an error, not OOM.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// What the server said (or didn't) about when to retry. `Retry-After`
/// may be delta-seconds or an HTTP-date; this client parses only the
/// first, but an HTTP-date is still an explicit request to back off, so
/// it is its own state, honored at the policy's cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryAfter {
    /// No `Retry-After` header was sent.
    Absent,
    /// A delta-seconds `Retry-After` value.
    Seconds(u64),
    /// A `Retry-After` header was present but not delta-seconds (e.g.
    /// an HTTP-date): treated as "present, capped at
    /// `retry_after_cap_ms`".
    UnparseableHint,
}

/// One fetched response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResult {
    /// HTTP status code from the status line.
    pub status: u16,
    /// Response body: exactly `Content-Length` bytes, or everything up
    /// to EOF when the server sent no length.
    pub body: Vec<u8>,
    /// The server's `Retry-After` hint, if any.
    pub retry_after: RetryAfter,
}

/// Split `http://host:port/path` into (`host:port`, `/path`).
pub fn split_url(url: &str) -> Result<(String, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported url {url:?}: only http:// is supported"))?;
    let (authority, path) = match rest.split_once('/') {
        Some((a, p)) => (a, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    if authority.is_empty() {
        return Err(format!("url {url:?} has an empty host"));
    }
    Ok((authority.to_string(), path))
}

/// `GET path` against `addr` (a `host:port`), with one timeout applied
/// to connect, read, and write independently.
pub fn http_get(addr: &str, path: &str, timeout_ms: u64) -> Result<FetchResult, String> {
    http_send(addr, "GET", path, "", timeout_ms)
}

/// One strict exchange of `method path` with `body` against `addr`, on
/// a fresh socket closed by the exchange. The transport layer never
/// retries; idempotency decisions belong to [`ResilientClient`].
pub fn http_send(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout_ms: u64,
) -> Result<FetchResult, String> {
    Connection::open(addr, timeout_ms)?.exchange(method, path, body, true)
}

/// Resolve `addr` and try to connect to every resolved address in
/// order; the error surfaced on total failure names the last address
/// that was tried and how many were attempted.
fn connect_any(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .collect();
    let mut last = format!("resolve {addr}: no addresses");
    for sockaddr in &addrs {
        match TcpStream::connect_timeout(sockaddr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = format!(
                    "connect {addr}: {e} (last tried {sockaddr}; {} address(es) attempted)",
                    addrs.len()
                )
            }
        }
    }
    Err(last)
}

/// Parse a response head (status line through the blank line) into the
/// response it starts, its declared `Content-Length`, and whether the
/// server keeps the connection open after it. A declared length that
/// would take the response past `MAX_RESPONSE_BYTES` is refused here,
/// before any of the body is buffered.
fn parse_head(raw: &[u8], addr: &str) -> Result<(FetchResult, Option<usize>, bool), String> {
    let head = String::from_utf8_lossy(raw);
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.") {
        return Err(format!("status line {status_line:?} is not HTTP/1.x"));
    }
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let length = header_value(&head, "content-length")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("unparseable content-length {v:?}"))
        })
        .transpose()?;
    if let Some(len) = length.filter(|len| raw.len().saturating_add(*len) > MAX_RESPONSE_BYTES) {
        return Err(format!("content-length {len} from {addr} exceeds the cap"));
    }
    let retry_after = header_value(&head, "retry-after").map_or(RetryAfter::Absent, |v| {
        v.parse()
            .map_or(RetryAfter::UnparseableHint, RetryAfter::Seconds)
    });
    let close = header_value(&head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let result = FetchResult {
        status,
        body: Vec::new(),
        retry_after,
    };
    Ok((result, length, length.is_some() && !close))
}

/// The one response framer: read the head to `\r\n\r\n`, then exactly
/// `Content-Length` body bytes. With `to_eof` (the exchange ends the
/// connection), or when the server sent no length, it reads on to EOF.
/// A body that differs from the declared length, short (a torn write)
/// or long (bytes belonging to no request), is a transport error, so
/// retry logic treats it as one. Returns the response and whether the
/// connection may carry another exchange.
fn read_response(
    stream: &mut impl Read,
    addr: &str,
    to_eof: bool,
) -> Result<(FetchResult, bool), String> {
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Once the head is in: where the body starts, and the parsed head.
    let mut head = None;
    loop {
        if head.is_none() {
            if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) {
                head = Some((end, parse_head(raw.get(..end).unwrap_or(&raw), addr)?));
            }
        }
        // Stop once a declared length is met, or overrun when reading to EOF.
        if let Some((end, (_, Some(len), _))) = &head {
            if raw.len() > end + len || (raw.len() == end + len && !to_eof) {
                break;
            }
        }
        if raw.len() > MAX_RESPONSE_BYTES {
            return Err(format!(
                "response from {addr} exceeds {MAX_RESPONSE_BYTES} bytes"
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) => return Err(format!("read {addr}: {e}")),
        }
    }
    let (end, (mut result, length, keep_alive)) =
        head.ok_or_else(|| format!("read {addr}: connection closed mid-response head"))?;
    result.body = raw.split_off(end);
    if let Some(n) = length.filter(|n| *n != result.body.len()) {
        return Err(format!(
            "content-length {n} but {} body bytes arrived (torn response)",
            result.body.len()
        ));
    }
    Ok((result, keep_alive && !to_eof))
}

/// The (trimmed) value of the first header named `name`, matched
/// case-insensitively.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim()
            .eq_ignore_ascii_case(name)
            .then(|| value.trim().to_string())
    })
}

/// A client HTTP/1.1 connection: one socket carrying sequential
/// exchanges, each response read by the one framer. The open-loop load
/// generator keeps these alive (thousands of concurrent connections
/// would otherwise each burn a three-way handshake per request);
/// [`http_send`] opens one for a single exchange that closes it.
///
/// The connection stops being reusable when the server answers
/// `connection: close` or omits `Content-Length` (EOF framing consumes
/// the socket), or when an exchange fails (the stream position is
/// unknown afterwards); [`Connection::is_reusable`] reports which.
pub struct Connection {
    stream: TcpStream,
    addr: String,
    reusable: bool,
    served: u64,
}

impl Connection {
    /// Connect to `addr` with `timeout_ms` applied to connect, read,
    /// and write independently.
    pub fn open(addr: &str, timeout_ms: u64) -> Result<Connection, String> {
        let timeout = Duration::from_millis(timeout_ms.max(1));
        let stream = connect_any(addr, timeout)?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| format!("set socket timeouts: {e}"))?;
        Ok(Connection {
            stream,
            addr: addr.to_string(),
            reusable: true,
            served: 0,
        })
    }

    /// Whether another request may be sent on this socket.
    pub fn is_reusable(&self) -> bool {
        self.reusable
    }

    /// Responses completed on this connection so far.
    pub fn requests_served(&self) -> u64 {
        self.served
    }

    /// `method path` with `body`, asking the server to keep the socket
    /// open for the next request.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<FetchResult, String> {
        self.exchange(method, path, body, false)
    }

    /// The one exchange: write the request, frame its response. `close`
    /// sends `Connection: close` and reads the response to EOF. A `GET`
    /// without a body carries no `Content-Length`; every other request
    /// declares its body's length.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> Result<FetchResult, String> {
        if !self.reusable {
            return Err(format!("connection to {} is no longer reusable", self.addr));
        }
        let length = if method == "GET" && body.is_empty() {
            String::new()
        } else {
            format!("Content-Length: {}\r\n", body.len())
        };
        let disposition = if close { "close" } else { "keep-alive" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\n{length}Connection: {disposition}\r\n\r\n{body}",
            self.addr
        );
        // Poisoned until a cleanly framed response says otherwise.
        self.reusable = false;
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write {}: {e}", self.addr))?;
        let (result, reusable) = read_response(&mut self.stream, &self.addr, close)?;
        self.reusable = reusable;
        self.served += 1;
        Ok(result)
    }
}

/// A deterministic jitter source (SplitMix64): the same seed yields the
/// same jitter sequence, so retry schedules are reproducible and tests
/// never need wall-clock sleeps to reason about them.
#[derive(Debug, Clone)]
pub struct JitterSource {
    state: u64,
}

impl JitterSource {
    /// A jitter stream seeded with `seed`.
    pub fn seeded(seed: u64) -> JitterSource {
        JitterSource { state: seed }
    }

    /// Next raw 64-bit value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, bound)`; 0 when `bound` is 0.
    pub fn in_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Bounded-retry policy for the idempotent methods (`GET`, `PUT`,
/// `DELETE`).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (floored at 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, milliseconds; doubles per
    /// further attempt.
    pub base_backoff_ms: u64,
    /// Ceiling on the exponential backoff, milliseconds.
    pub max_backoff_ms: u64,
    /// Ceiling applied to a server-sent `Retry-After`, milliseconds
    /// (a confused server cannot park the client for minutes).
    pub retry_after_cap_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 25,
            max_backoff_ms: 1_000,
            retry_after_cap_ms: 2_000,
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The jittered exponential backoff before attempt `next_attempt`
    /// (2-based: the wait that precedes the second attempt is
    /// `backoff_ms(2, ..)`). Equal-jitter: half the exponential value is
    /// fixed, the other half drawn from the seeded jitter stream.
    pub fn backoff_ms(&self, next_attempt: u32, jitter: &mut JitterSource) -> u64 {
        let exponent = next_attempt.saturating_sub(2).min(16);
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << exponent)
            .min(self.max_backoff_ms);
        let half = exp / 2;
        half + jitter.in_range(exp - half + 1)
    }

    /// How long to wait before `next_attempt`, honoring a server-sent
    /// `Retry-After` (capped). Returns the wait in milliseconds and
    /// whether the `Retry-After` value governed it. A present-but-
    /// unparseable hint (HTTP-date form) is honored at the cap.
    pub fn retry_wait_ms(
        &self,
        next_attempt: u32,
        retry_after: &RetryAfter,
        jitter: &mut JitterSource,
    ) -> (u64, bool) {
        let backoff = self.backoff_ms(next_attempt, jitter);
        let hinted = match retry_after {
            RetryAfter::Absent => return (backoff, false),
            RetryAfter::Seconds(secs) => secs.saturating_mul(1_000).min(self.retry_after_cap_ms),
            RetryAfter::UnparseableHint => self.retry_after_cap_ms,
        };
        (backoff.max(hinted), hinted >= backoff)
    }
}

/// Circuit-breaker tunables.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Calls fast-failed while open before the next call is admitted as
    /// a half-open probe. Counting calls instead of wall-clock time
    /// keeps the state machine fully deterministic.
    pub cooldown_rejects: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown_rejects: 3,
        }
    }
}

/// Breaker states, in the classic closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every call is admitted.
    Closed,
    /// Tripped: calls fast-fail until the cooldown count elapses.
    Open,
    /// Cooling down: exactly one probe call is in flight; its outcome
    /// decides whether the breaker closes or re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for metrics and logs.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What the breaker decided about one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Proceed normally.
    Allow,
    /// Proceed, but as the half-open probe (the breaker just moved
    /// open → half-open).
    Probe,
    /// Fast-fail without touching the network.
    FastFail,
}

/// A per-endpoint circuit breaker. Deliberately wall-clock-free: the
/// open → half-open transition is driven by the count of fast-failed
/// calls, not elapsed time, so behavior is a pure function of the call
/// sequence.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    rejected_since_open: u32,
}

impl CircuitBreaker {
    /// A closed breaker with `cfg`.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            rejected_since_open: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Gate one call.
    pub fn admit(&mut self) -> BreakerDecision {
        match self.state {
            BreakerState::Closed => BreakerDecision::Allow,
            BreakerState::Open => {
                if self.rejected_since_open >= self.cfg.cooldown_rejects {
                    self.state = BreakerState::HalfOpen;
                    BreakerDecision::Probe
                } else {
                    self.rejected_since_open += 1;
                    BreakerDecision::FastFail
                }
            }
            // Only one probe at a time; concurrent calls fast-fail
            // until its outcome is recorded.
            BreakerState::HalfOpen => BreakerDecision::FastFail,
        }
    }

    /// Record a successful call. Returns `true` when this closed the
    /// breaker (half-open probe succeeded).
    pub fn record_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            true
        } else {
            false
        }
    }

    /// Record a failed call. Returns `true` when this tripped the
    /// breaker open (threshold reached, or half-open probe failed).
    pub fn record_failure(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open;
                    self.rejected_since_open = 0;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.rejected_since_open = 0;
                self.consecutive_failures = self.cfg.failure_threshold;
                true
            }
            BreakerState::Open => false,
        }
    }
}

/// Client-side counters: every attempt, retry, failure class, and
/// breaker transition. All atomics, so one registry can be shared by
/// concurrent callers.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    attempts: AtomicU64,
    retries: AtomicU64,
    successes: AtomicU64,
    transport_errors: AtomicU64,
    server_5xx: AtomicU64,
    retry_after_honored: AtomicU64,
    retry_after_unparseable: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_probes: AtomicU64,
    breaker_closes: AtomicU64,
    breaker_fast_fails: AtomicU64,
}

/// One documented getter per `getter => field` counter.
macro_rules! counters {
    ($($(#[$doc:meta])* $get:ident => $field:ident,)*) => {
        $($(#[$doc])* pub fn $get(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        })*
    };
}

/// Count one event on a [`ClientMetrics`] counter.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl ClientMetrics {
    /// Fresh, all-zero registry.
    pub fn new() -> ClientMetrics {
        ClientMetrics::default()
    }

    counters! {
        /// Network attempts made (excludes fast-fails).
        attempts_total => attempts,
        /// Attempts that were retries of an earlier failure.
        retries_total => retries,
        /// Requests that returned a definitive response.
        successes_total => successes,
        /// Attempts that died in transport (connect/read/parse).
        transport_errors_total => transport_errors,
        /// Attempts answered with a retryable 5xx.
        server_5xx_total => server_5xx,
        /// Backoffs governed by a server `Retry-After`.
        retry_after_honored_total => retry_after_honored,
        /// `Retry-After` headers present but not delta-seconds (honored at the cap).
        retry_after_unparseable_total => retry_after_unparseable,
        /// Breaker transitions into open.
        breaker_opens_total => breaker_opens,
        /// Breaker transitions into half-open (probe admitted).
        breaker_probes_total => breaker_probes,
        /// Breaker transitions back to closed.
        breaker_closes_total => breaker_closes,
        /// Calls fast-failed by an open breaker.
        breaker_fast_fails_total => breaker_fast_fails,
    }

    /// One-line summary for reports.
    pub fn render(&self) -> String {
        format!(
            "attempts={} retries={} ok={} transport-errors={} http-5xx={} retry-after={} retry-after-unparseable={} breaker(open={} probe={} close={} fast-fail={})",
            self.attempts_total(),
            self.retries_total(),
            self.successes_total(),
            self.transport_errors_total(),
            self.server_5xx_total(),
            self.retry_after_honored_total(),
            self.retry_after_unparseable_total(),
            self.breaker_opens_total(),
            self.breaker_probes_total(),
            self.breaker_closes_total(),
            self.breaker_fast_fails_total(),
        )
    }
}

/// Methods [`ResilientClient::request`] may replay: idempotent by
/// definition (`GET`) or by target (`PUT`/`DELETE` on a lease id). Any
/// other method, a misspelt one included, gets a single attempt.
const IDEMPOTENT_METHODS: [&str; 3] = ["GET", "PUT", "DELETE"];

/// A retrying, circuit-breaking client over the strict transport
/// layer. Retries only the idempotent methods — `GET`, and
/// `PUT`/`DELETE` keyed by lease id; any other method gets exactly one
/// attempt. Every decision that affects the schedule (jitter,
/// cooldown) is seeded, so a given failure sequence always produces
/// the same retry trace.
pub struct ResilientClient {
    policy: RetryPolicy,
    breaker_cfg: BreakerConfig,
    breakers: Mutex<BTreeMap<String, CircuitBreaker>>,
    jitter: Mutex<JitterSource>,
    metrics: ClientMetrics,
}

impl ResilientClient {
    /// A client with `policy` and per-endpoint breakers under
    /// `breaker_cfg`. Every attempt is one strict exchange on a fresh
    /// socket, so callers that tear servers (or proxies) down between
    /// requests never meet a stale connection.
    pub fn new(policy: RetryPolicy, breaker_cfg: BreakerConfig) -> ResilientClient {
        let jitter = JitterSource::seeded(policy.jitter_seed);
        ResilientClient {
            policy,
            breaker_cfg,
            breakers: Mutex::new(BTreeMap::new()),
            jitter: Mutex::new(jitter),
            metrics: ClientMetrics::new(),
        }
    }

    /// The client-side counters.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// Current breaker state for `addr` (closed if never used).
    pub fn breaker_state(&self, addr: &str) -> BreakerState {
        self.breakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(addr)
            .map(|b| b.state())
            .unwrap_or(BreakerState::Closed)
    }

    fn with_breaker<T>(&self, addr: &str, f: impl FnOnce(&mut CircuitBreaker) -> T) -> T {
        let mut breakers = self.breakers.lock().unwrap_or_else(PoisonError::into_inner);
        let breaker = breakers
            .entry(addr.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.breaker_cfg.clone()));
        f(breaker)
    }

    /// `method path` with `body` against `addr`, with retries and
    /// circuit breaking. Definitive responses (anything below 500) are
    /// returned as `Ok` immediately; transport errors and 5xx are retried
    /// up to the policy bound, after which the last 5xx is returned as
    /// `Ok` (the caller sees the status) and the last transport error as
    /// `Err`. Only methods on the idempotent allow-list are retried: a
    /// `POST` that timed out may still have been applied server-side (the
    /// lease may exist), so it, and any method the list does not name,
    /// gets one attempt whose outcome is surfaced as-is. The breaker
    /// observes every attempt.
    pub fn request(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
        timeout_ms: u64,
    ) -> Result<FetchResult, String> {
        let max_attempts = if IDEMPOTENT_METHODS.contains(&method) {
            self.policy.max_attempts.max(1)
        } else {
            1
        };
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            match self.with_breaker(addr, |b| b.admit()) {
                BreakerDecision::Allow => {}
                BreakerDecision::Probe => bump(&self.metrics.breaker_probes),
                BreakerDecision::FastFail => {
                    bump(&self.metrics.breaker_fast_fails);
                    return Err(format!("circuit breaker open for {addr} (fast fail)"));
                }
            }
            bump(&self.metrics.attempts);
            if attempt > 1 {
                bump(&self.metrics.retries);
            }
            let outcome = http_send(addr, method, path, body, timeout_ms);
            let retry_after = match &outcome {
                Ok(result) if result.status < 500 => {
                    if self.with_breaker(addr, |b| b.record_success()) {
                        bump(&self.metrics.breaker_closes);
                    }
                    bump(&self.metrics.successes);
                    return outcome;
                }
                // Retryable server error.
                Ok(result) => {
                    bump(&self.metrics.server_5xx);
                    if result.retry_after == RetryAfter::UnparseableHint {
                        bump(&self.metrics.retry_after_unparseable);
                    }
                    result.retry_after
                }
                Err(_) => {
                    bump(&self.metrics.transport_errors);
                    RetryAfter::Absent
                }
            };
            if self.with_breaker(addr, |b| b.record_failure()) {
                bump(&self.metrics.breaker_opens);
            }
            // The last 5xx is surfaced as a response, the last transport
            // error as an error.
            if attempt >= max_attempts {
                return outcome.map_err(|e| format!("{e} (after {attempt} attempts)"));
            }
            let (wait_ms, honored) = {
                let mut jitter = self.jitter.lock().unwrap_or_else(PoisonError::into_inner);
                self.policy
                    .retry_wait_ms(attempt + 1, &retry_after, &mut jitter)
            };
            if honored {
                bump(&self.metrics.retry_after_honored);
            }
            std::thread::sleep(Duration::from_millis(wait_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn splits_urls() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/artifacts/fig1?seed=1").unwrap(),
            (
                "127.0.0.1:8080".to_string(),
                "/artifacts/fig1?seed=1".to_string()
            )
        );
        assert_eq!(
            split_url("http://localhost:9").unwrap(),
            ("localhost:9".to_string(), "/".to_string())
        );
        assert!(split_url("https://x/").is_err());
        assert!(split_url("http:///path").is_err());
    }

    /// Frame `raw` as a one-shot (read-to-EOF) exchange.
    fn framed(raw: &[u8]) -> Result<FetchResult, String> {
        read_response(&mut &raw[..], "test", true).map(|(result, _)| result)
    }

    #[test]
    fn parses_responses_and_rejects_garbage() {
        let ok =
            framed(b"HTTP/1.1 404 Not Found\r\nx: y\r\nRetry-After: 3\r\n\r\nmissing\n").unwrap();
        assert_eq!(
            (ok.status, ok.body.as_slice(), ok.retry_after),
            (404, b"missing\n".as_slice(), RetryAfter::Seconds(3))
        );
        // An HTTP-date Retry-After is present-but-unparseable, not absent.
        let dated = framed(
            b"HTTP/1.1 503 Unavailable\r\nRetry-After: Fri, 31 Dec 1999 23:59:59 GMT\r\n\r\nbusy\n",
        )
        .unwrap();
        assert_eq!(dated.retry_after, RetryAfter::UnparseableHint);
        let bare = framed(b"HTTP/1.1 200 OK\r\n\r\nok\n").unwrap();
        assert_eq!(bare.retry_after, RetryAfter::Absent);
        assert!(framed(b"not http at all").is_err());
        assert!(framed(b"HTTP/1.1 banana\r\n\r\n").is_err());
        // A corrupted status line is a transport error even with a
        // plausible shape after the damage.
        assert!(framed(b"XTTP/1.1 200 OK\r\n\r\nok").is_err());
    }

    #[test]
    fn content_length_mismatch_is_a_torn_response() {
        let torn = framed(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhal");
        assert!(torn.unwrap_err().contains("torn response"));
        let exact = framed(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nhal").unwrap();
        assert_eq!(exact.body, b"hal");
        // No declared length: body is whatever EOF delimited.
        let lenless = framed(b"HTTP/1.1 200 OK\r\n\r\nwhatever").unwrap();
        assert_eq!(lenless.body, b"whatever");
    }

    #[test]
    fn connect_error_names_the_address_it_tried() {
        // Bind-then-drop guarantees a dead port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let err = http_get(&addr, "/", 200).unwrap_err();
        assert!(err.contains("connect"), "{err}");
        assert!(err.contains("last tried"), "{err}");
        assert!(err.contains("address(es) attempted"), "{err}");
    }

    #[test]
    fn jitter_and_backoff_are_deterministic_in_the_seed() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 16,
            max_backoff_ms: 100,
            retry_after_cap_ms: 500,
            jitter_seed: 99,
        };
        let mut a = JitterSource::seeded(99);
        let mut b = JitterSource::seeded(99);
        let seq_a: Vec<u64> = (2..6).map(|n| policy.backoff_ms(n, &mut a)).collect();
        let seq_b: Vec<u64> = (2..6).map(|n| policy.backoff_ms(n, &mut b)).collect();
        assert_eq!(seq_a, seq_b);
        // Equal-jitter bounds: between half the exponential and the cap.
        assert!(seq_a[0] >= 8 && seq_a[0] <= 16, "{seq_a:?}");
        assert!(seq_a.iter().all(|ms| *ms <= 100), "{seq_a:?}");
        let mut c = JitterSource::seeded(100);
        let seq_c: Vec<u64> = (2..6).map(|n| policy.backoff_ms(n, &mut c)).collect();
        assert_ne!(seq_a, seq_c, "different seeds should jitter differently");
    }

    #[test]
    fn retry_after_governs_the_wait_when_larger_and_is_capped() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10,
            max_backoff_ms: 50,
            retry_after_cap_ms: 300,
            jitter_seed: 1,
        };
        let mut jitter = JitterSource::seeded(1);
        let (wait, honored) = policy.retry_wait_ms(2, &RetryAfter::Seconds(1), &mut jitter);
        assert!(honored);
        assert_eq!(wait, 300, "1s hint capped at 300ms");
        let (wait, honored) = policy.retry_wait_ms(2, &RetryAfter::Absent, &mut jitter);
        assert!(!honored);
        assert!(wait <= 50);
        // Present-but-unparseable (HTTP-date form): honored at the cap,
        // not silently dropped.
        let (wait, honored) = policy.retry_wait_ms(2, &RetryAfter::UnparseableHint, &mut jitter);
        assert!(honored);
        assert_eq!(wait, 300, "unparseable hint pinned to retry_after_cap_ms");
    }

    #[test]
    fn breaker_opens_on_threshold_and_probe_success_closes() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_rejects: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), BreakerDecision::Allow);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third failure trips the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown counted in fast-failed calls, fully deterministic.
        assert_eq!(b.admit(), BreakerDecision::FastFail);
        assert_eq!(b.admit(), BreakerDecision::FastFail);
        assert_eq!(b.admit(), BreakerDecision::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Concurrent call during the probe is rejected.
        assert_eq!(b.admit(), BreakerDecision::FastFail);
        assert!(b.record_success(), "probe success closes");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), BreakerDecision::Allow);
    }

    #[test]
    fn breaker_probe_failure_reopens_with_fresh_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_rejects: 1,
        });
        assert!(b.record_failure(), "threshold 1 opens immediately");
        assert_eq!(b.admit(), BreakerDecision::FastFail);
        assert_eq!(b.admit(), BreakerDecision::Probe);
        assert!(b.record_failure(), "probe failure re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        // The cooldown starts over after the failed probe.
        assert_eq!(b.admit(), BreakerDecision::FastFail);
        assert_eq!(b.admit(), BreakerDecision::Probe);
        assert!(b.record_success());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_rejects: 1,
        });
        assert!(!b.record_failure());
        assert!(!b.record_success());
        assert!(!b.record_failure(), "count restarted after the success");
        assert!(b.record_failure());
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn resilient_get_retries_transport_errors_and_succeeds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        #[allow(clippy::disallowed_methods, reason = "test server thread")]
        let server = thread::spawn(move || {
            // First connection: accept and hang up (torn exchange).
            let (first, _) = listener.accept().unwrap();
            drop(first);
            // Second connection: answer properly.
            let (mut second, _) = listener.accept().unwrap();
            read_one_request(&mut second, b"");
            second
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nok\n")
                .unwrap();
        });
        let client = ResilientClient::new(
            RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 1,
                max_backoff_ms: 4,
                retry_after_cap_ms: 10,
                jitter_seed: 5,
            },
            BreakerConfig::default(),
        );
        let got = client.request(&addr, "GET", "/x", "", 2_000).unwrap();
        assert_eq!((got.status, got.body.as_slice()), (200, b"ok\n".as_slice()));
        let m = client.metrics();
        assert_eq!(m.attempts_total(), 2);
        assert_eq!(m.retries_total(), 1);
        assert_eq!(m.transport_errors_total(), 1);
        assert_eq!(m.successes_total(), 1);
        assert_eq!(client.breaker_state(&addr), BreakerState::Closed);
        server.join().unwrap();
    }

    /// Read one request off `stream` until the head is complete and the
    /// buffer ends with `body_tail` (empty tail: head only).
    fn read_one_request(stream: &mut std::net::TcpStream, body_tail: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 2048];
        while !buf.windows(4).any(|w| w == b"\r\n\r\n") || !buf.ends_with(body_tail) {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        buf
    }

    fn tight_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 1,
            max_backoff_ms: 4,
            retry_after_cap_ms: 10,
            jitter_seed: 5,
        }
    }

    #[test]
    fn post_is_sent_with_a_body_and_never_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        #[allow(clippy::disallowed_methods, reason = "test server thread")]
        let server = thread::spawn(move || {
            // One good exchange: assert verb, framing, and body.
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_one_request(&mut stream, b"pool=v4");
            let text = String::from_utf8_lossy(&req).to_string();
            assert!(text.starts_with("POST /leases HTTP/1.1\r\n"), "{text}");
            assert!(
                text.to_ascii_lowercase().contains("content-length: 7"),
                "{text}"
            );
            assert!(text.ends_with("\r\n\r\npool=v4"), "{text}");
            stream
                .write_all(b"HTTP/1.1 201 Created\r\ncontent-length: 3\r\n\r\nid\n")
                .unwrap();
            // Close so the read-to-EOF client sees the response end
            // before the next accept.
            drop(stream);
            // Then a torn exchange: accept and hang up. A retrying
            // client would come back for a second connection; a
            // non-retrying one must not.
            let (torn, _) = listener.accept().unwrap();
            drop(torn);
        });
        let client = ResilientClient::new(tight_policy(), BreakerConfig::default());
        let ok = client
            .request(&addr, "POST", "/leases", "pool=v4", 2_000)
            .unwrap();
        assert_eq!((ok.status, ok.body.as_slice()), (201, b"id\n".as_slice()));
        let before = client.metrics().attempts_total();
        let err = client.request(&addr, "POST", "/leases", "pool=v4", 2_000);
        assert!(err.is_err(), "torn POST surfaces as an error: {err:?}");
        assert!(
            err.unwrap_err().contains("after 1 attempts"),
            "POST must stop after the single attempt"
        );
        assert_eq!(client.metrics().attempts_total(), before + 1);
        assert_eq!(client.metrics().retries_total(), 0);
        server.join().unwrap();
    }

    #[test]
    fn put_is_retried_after_a_transport_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        #[allow(clippy::disallowed_methods, reason = "test server thread")]
        let server = thread::spawn(move || {
            // First connection torn; PUT is idempotent by lease id, so
            // the client replays it on a fresh socket.
            let (torn, _) = listener.accept().unwrap();
            drop(torn);
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_one_request(&mut stream, b"lifetime=60");
            let text = String::from_utf8_lossy(&req).to_string();
            assert!(
                text.starts_with("PUT /leases/7/renew HTTP/1.1\r\n"),
                "{text}"
            );
            assert!(text.ends_with("\r\n\r\nlifetime=60"), "{text}");
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nok\n")
                .unwrap();
        });
        let client = ResilientClient::new(tight_policy(), BreakerConfig::default());
        let got = client
            .request(&addr, "PUT", "/leases/7/renew", "lifetime=60", 2_000)
            .unwrap();
        assert_eq!((got.status, got.body.as_slice()), (200, b"ok\n".as_slice()));
        assert_eq!(client.metrics().attempts_total(), 2);
        assert_eq!(client.metrics().retries_total(), 1);
        assert_eq!(client.metrics().transport_errors_total(), 1);
        server.join().unwrap();
    }

    #[test]
    fn delete_is_retried_after_a_transport_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        #[allow(clippy::disallowed_methods, reason = "test server thread")]
        let server = thread::spawn(move || {
            let (torn, _) = listener.accept().unwrap();
            drop(torn);
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_one_request(&mut stream, b"");
            let text = String::from_utf8_lossy(&req).to_string();
            assert!(text.starts_with("DELETE /leases/7 HTTP/1.1\r\n"), "{text}");
            assert!(
                text.to_ascii_lowercase().contains("content-length: 0"),
                "{text}"
            );
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\ngone\n")
                .unwrap();
        });
        let client = ResilientClient::new(tight_policy(), BreakerConfig::default());
        let got = client
            .request(&addr, "DELETE", "/leases/7", "", 2_000)
            .unwrap();
        assert_eq!(
            (got.status, got.body.as_slice()),
            (200, b"gone\n".as_slice())
        );
        assert_eq!(client.metrics().attempts_total(), 2);
        assert_eq!(client.metrics().retries_total(), 1);
        server.join().unwrap();
    }

    #[test]
    fn keep_alive_connection_reuses_one_socket_and_honors_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        #[allow(clippy::disallowed_methods, reason = "test server thread")]
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut served = 0u32;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            // Serve two keep-alive responses, then one with
            // `connection: close`, all on the same socket.
            while served < 3 {
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                buf.drain(..head_end);
                served += 1;
                let disposition = if served < 3 { "keep-alive" } else { "close" };
                let body = format!("resp {served}\n");
                let resp = format!(
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: {disposition}\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(resp.as_bytes()).unwrap();
            }
        });
        let mut conn = Connection::open(&addr, 2_000).unwrap();
        for n in 1..=3u32 {
            let got = conn.request("GET", "/x", "").unwrap();
            assert_eq!(got.status, 200);
            assert_eq!(got.body, format!("resp {n}\n").into_bytes());
        }
        assert!(!conn.is_reusable(), "server said connection: close");
        assert_eq!(conn.requests_served(), 3);
        assert!(
            conn.request("GET", "/x", "").is_err(),
            "poisoned after close"
        );
        server.join().unwrap();
    }

    #[test]
    fn unparseable_retry_after_is_honored_at_the_cap_and_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        #[allow(clippy::disallowed_methods, reason = "test server thread")]
        let server = thread::spawn(move || {
            for round in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                read_one_request(&mut stream, b"");
                let resp: &[u8] = if round == 0 {
                    b"HTTP/1.1 503 Unavailable\r\ncontent-length: 5\r\nRetry-After: Fri, 31 Dec 1999 23:59:59 GMT\r\nconnection: close\r\n\r\nbusy\n"
                } else {
                    b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\nconnection: close\r\n\r\nok\n"
                };
                stream.write_all(resp).unwrap();
            }
        });
        let client = ResilientClient::new(
            RetryPolicy {
                max_attempts: 2,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
                retry_after_cap_ms: 20,
                jitter_seed: 5,
            },
            BreakerConfig::default(),
        );
        let got = client.request(&addr, "GET", "/x", "", 2_000).unwrap();
        assert_eq!(got.status, 200);
        let m = client.metrics();
        assert_eq!(m.retry_after_unparseable_total(), 1);
        assert_eq!(m.retry_after_honored_total(), 1, "cap governed the wait");
        assert!(
            m.render().contains("retry-after-unparseable=1"),
            "{}",
            m.render()
        );
        server.join().unwrap();
    }

    #[test]
    fn resilient_get_fast_fails_once_the_breaker_opens() {
        // A dead endpoint: bind, note the port, drop the listener.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let client = ResilientClient::new(
            RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
                retry_after_cap_ms: 10,
                jitter_seed: 5,
            },
            BreakerConfig {
                failure_threshold: 3,
                cooldown_rejects: 10,
            },
        );
        let err = client.request(&addr, "GET", "/x", "", 100).unwrap_err();
        assert!(err.contains("after 3 attempts"), "{err}");
        assert_eq!(client.breaker_state(&addr), BreakerState::Open);
        let fast = client.request(&addr, "GET", "/x", "", 100).unwrap_err();
        assert!(fast.contains("circuit breaker open"), "{fast}");
        assert_eq!(client.metrics().breaker_opens_total(), 1);
        assert!(client.metrics().breaker_fast_fails_total() >= 1);
    }

    /// One framer outcome as text: `status body retry-after keep|end`,
    /// or the error.
    fn outcome(raw: &[u8], to_eof: bool) -> String {
        match read_response(&mut &raw[..], "test", to_eof) {
            Ok((r, keep)) => {
                let body = String::from_utf8_lossy(&r.body);
                let after = if keep { "keep" } else { "end" };
                format!("{} {body} {:?} {after}", r.status, r.retry_after)
            }
            Err(e) => e,
        }
    }

    #[test]
    fn framer_cases_in_both_modes() {
        const EXACT: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nhal";
        const TORN: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhal";
        const PAST: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nhalf";
        const LENLESS: &[u8] = b"HTTP/1.1 200 OK\r\n\r\nrest";
        const CLOSE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
        const NOT_HTTP1: &[u8] = b"XTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        const DATED: &[u8] = b"HTTP/1.1 503 Busy\r\nContent-Length: 0\r\n\
            Retry-After: Fri, 31 Dec 1999 23:59:59 GMT\r\n\r\n";
        const MID_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Le";
        // (response, outcome framed keep-alive, outcome read to EOF)
        let cases = [
            (EXACT, "200 hal Absent keep", "200 hal Absent end"),
            (TORN, "(torn response)", "(torn response)"),
            (PAST, "3 but 4 body bytes", "3 but 4 body bytes"),
            (LENLESS, "200 rest Absent end", "200 rest Absent end"),
            (CLOSE, "200 ok Absent end", "200 ok Absent end"),
            (NOT_HTTP1, "is not HTTP/1.x", "is not HTTP/1.x"),
            (DATED, "UnparseableHint keep", "UnparseableHint end"),
            (MID_HEAD, "mid-response head", "mid-response head"),
        ];
        for (raw, keep_alive, one_shot) in cases {
            for (to_eof, want) in [(false, keep_alive), (true, one_shot)] {
                let got = outcome(raw, to_eof);
                assert!(got.contains(want), "{got}");
            }
        }
        // A length past the cap is refused from the head alone: one 4 KiB
        // read, none of the body buffered.
        let over = MAX_RESPONSE_BYTES + 1;
        let mut raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {over}\r\n\r\n").into_bytes();
        raw.resize(raw.len() + 100_000, b'x');
        for to_eof in [false, true] {
            let mut unread = raw.as_slice();
            let err = read_response(&mut unread, "test", to_eof).unwrap_err();
            assert!(err.contains("exceeds the cap"), "{err}");
            assert!(unread.len() >= raw.len() - 4096, "{}", unread.len());
        }
    }

    #[test]
    fn request_bytes_on_the_wire_are_pinned() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Body tails of the requests each connection carries.
        let conns: [&[&[u8]]; 5] = [
            &[b""],
            &[b"", b""],
            &[b"pool=v4"],
            &[b"lifetime=60"],
            &[b""],
        ];
        #[allow(clippy::disallowed_methods, reason = "test server thread")]
        let server = thread::spawn(move || {
            let mut seen = Vec::new();
            for tails in conns {
                let (mut stream, _) = listener.accept().unwrap();
                for tail in tails {
                    seen.push(String::from_utf8(read_one_request(&mut stream, tail)).unwrap());
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
                        .unwrap();
                }
            }
            seen
        });
        http_get(&addr, "/a", 2_000).unwrap();
        let mut conn = Connection::open(&addr, 2_000).unwrap();
        conn.request("GET", "/b", "").unwrap();
        conn.request("GET", "/c", "").unwrap();
        drop(conn);
        let client = ResilientClient::new(tight_policy(), BreakerConfig::default());
        let ok = |method, path, body| client.request(&addr, method, path, body, 2_000).unwrap();
        ok("POST", "/leases", "pool=v4");
        ok("PUT", "/leases/7/renew", "lifetime=60");
        ok("DELETE", "/leases/7", "");
        let (h, close) = (format!("Host: {addr}\r\n"), "Connection: close\r\n\r\n");
        let want = [
            format!("GET /a HTTP/1.1\r\n{h}{close}"),
            format!("GET /b HTTP/1.1\r\n{h}Connection: keep-alive\r\n\r\n"),
            format!("GET /c HTTP/1.1\r\n{h}Connection: keep-alive\r\n\r\n"),
            format!("POST /leases HTTP/1.1\r\n{h}Content-Length: 7\r\n{close}pool=v4"),
            format!("PUT /leases/7/renew HTTP/1.1\r\n{h}Content-Length: 11\r\n{close}lifetime=60"),
            format!("DELETE /leases/7 HTTP/1.1\r\n{h}Content-Length: 0\r\n{close}"),
        ];
        assert_eq!(server.join().unwrap(), want);
    }

    #[test]
    fn methods_off_the_idempotent_list_get_one_attempt() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let breaker = BreakerConfig {
            failure_threshold: 100,
            cooldown_rejects: 1,
        };
        let client = ResilientClient::new(tight_policy(), breaker);
        for method in ["POST", "PATCH", "get", "DELET", "GET"] {
            let err = client.request(&addr, method, "/x", "", 100).unwrap_err();
            let n = if method == "GET" { 3 } else { 1 };
            assert!(err.contains(&format!("after {n} attempts")), "{err}");
        }
    }
}
