//! A minimal blocking HTTP/1.1 client over `std::net::TcpStream`, used
//! by the load generator, the CI smoke, the chaos sweep, and the serve
//! tests. The strict one-shot path ([`http_get`]) sends
//! `Connection: close` and reads the body to EOF; the keep-alive path
//! ([`KeepAliveConnection`]) frames responses by `Content-Length` and
//! reuses one socket for sequential requests.
//!
//! Two layers live here. The transport layer ([`http_get`] /
//! [`http_request`]) performs a single strict exchange: it tries every
//! resolved address of the endpoint, requires an `HTTP/1.`-prefixed
//! status line, and cross-checks `Content-Length` against the bytes
//! actually received — so torn writes and corrupted responses surface
//! as errors instead of silently wrong bodies. The resilience layer
//! ([`ResilientClient`]) wraps it with a bounded [`RetryPolicy`]
//! (exponential backoff, deterministic seeded jitter via
//! [`JitterSource`], `Retry-After` honored) and a per-endpoint
//! [`CircuitBreaker`], with every retry and breaker transition counted
//! in [`ClientMetrics`]. Only idempotent exchanges are ever retried:
//! `GET`, plus `PUT`/`DELETE` (idempotent by target — lease endpoints
//! key them by lease id). `POST` is exposed but pinned to a single
//! attempt, and raw [`http_request`] exchanges are never replayed.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Hard cap on a response body we are willing to buffer (64 MiB); a
/// server streaming more than this is answered with an error, not OOM.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// What the server said (or didn't) about when to retry.
///
/// `Retry-After` may legally be either delta-seconds or an HTTP-date.
/// This client only parses the delta-seconds form, but an HTTP-date is
/// still an *explicit server backoff request* — collapsing it to
/// "absent" (the old behavior) made the retry policy ignore exactly the
/// servers that asked most clearly to be left alone. The unparseable
/// case is therefore its own state, honored at the policy's cap.
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
    /// Response body (after the blank line), read to EOF.
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
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    http_request(addr, &request, timeout_ms)
}

/// One strict exchange of `method path` with an explicit body against
/// `addr`, framed by `Content-Length` and `Connection: close`. The
/// transport layer never retries; idempotency decisions belong to
/// [`ResilientClient`].
pub fn http_send(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout_ms: u64,
) -> Result<FetchResult, String> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    http_request(addr, &request, timeout_ms)
}

/// Send raw `request` bytes to `addr` and parse whatever comes back as
/// an HTTP response. Exposed so degraded-mode tests can send torn or
/// mutated request text through the same transport path.
pub fn http_request(addr: &str, request: &str, timeout_ms: u64) -> Result<FetchResult, String> {
    let timeout = Duration::from_millis(timeout_ms.max(1));
    let mut stream = connect_any(addr, timeout)?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("set_write_timeout: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write {addr}: {e}"))?;
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                if raw.len() > MAX_RESPONSE_BYTES {
                    return Err(format!(
                        "response from {addr} exceeds {MAX_RESPONSE_BYTES} bytes"
                    ));
                }
            }
            Err(e) => return Err(format!("read {addr}: {e}")),
        }
    }
    parse_response(&raw)
}

/// Resolve `addr` and try to connect to every resolved address in
/// order; the error surfaced on total failure names the last address
/// that was tried and how many were attempted.
fn connect_any(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .collect();
    if addrs.is_empty() {
        return Err(format!("resolve {addr}: no addresses"));
    }
    let total = addrs.len();
    let mut last: Option<(SocketAddr, std::io::Error)> = None;
    for sockaddr in addrs {
        match TcpStream::connect_timeout(&sockaddr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some((sockaddr, e)),
        }
    }
    match last {
        Some((sockaddr, e)) => Err(format!(
            "connect {addr}: {e} (last tried {sockaddr}; {total} address(es) attempted)"
        )),
        None => Err(format!("resolve {addr}: no addresses")),
    }
}

/// Strict response parsing: the status line must be `HTTP/1.`-shaped
/// and, when the server declared `Content-Length`, the body must match
/// it exactly — a shorter body is a torn write, a longer one is trailing
/// garbage, and both are reported as transport errors so retry logic
/// can treat them as such.
fn parse_response(raw: &[u8]) -> Result<FetchResult, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .ok_or_else(|| "response has no head/body separator".to_string())?;
    let head = String::from_utf8_lossy(raw.get(..head_end).unwrap_or(raw)).to_string();
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.") {
        return Err(format!("status line {status_line:?} is not HTTP/1.x"));
    }
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let body = raw.get(head_end..).unwrap_or(&[]).to_vec();
    if let Some(declared) = header_value(&head, "content-length") {
        match declared.parse::<usize>() {
            Ok(n) if n == body.len() => {}
            Ok(n) => {
                return Err(format!(
                    "content-length {n} but {} body bytes arrived (torn response)",
                    body.len()
                ))
            }
            Err(_) => return Err(format!("unparseable content-length {declared:?}")),
        }
    }
    let retry_after = match header_value(&head, "retry-after") {
        None => RetryAfter::Absent,
        Some(v) => match v.parse::<u64>() {
            Ok(secs) => RetryAfter::Seconds(secs),
            Err(_) => RetryAfter::UnparseableHint,
        },
    };
    Ok(FetchResult {
        status,
        body,
        retry_after,
    })
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

/// A client-side HTTP/1.1 keep-alive connection: sequential `GET`s on
/// one socket, with responses framed strictly by `Content-Length`
/// instead of EOF. Used by the open-loop load generator (thousands of
/// concurrent connections would otherwise each burn a three-way
/// handshake per request).
///
/// The connection stops being reusable when the server answers
/// `connection: close` or omits `Content-Length` (EOF framing consumes
/// the socket); [`KeepAliveConnection::is_reusable`] reports which.
pub struct KeepAliveConnection {
    stream: TcpStream,
    addr: String,
    reusable: bool,
    served: u64,
}

impl KeepAliveConnection {
    /// Connect to `addr` with `timeout_ms` applied to connect, read,
    /// and write independently.
    pub fn connect(addr: &str, timeout_ms: u64) -> Result<KeepAliveConnection, String> {
        let timeout = Duration::from_millis(timeout_ms.max(1));
        let stream = connect_any(addr, timeout)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| format!("set_write_timeout: {e}"))?;
        Ok(KeepAliveConnection {
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

    /// `GET path`, reusing the established socket. Any error poisons
    /// the connection (the stream position is unknown afterwards).
    pub fn roundtrip(&mut self, path: &str) -> Result<FetchResult, String> {
        if !self.reusable {
            return Err(format!("connection to {} is no longer reusable", self.addr));
        }
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr
        );
        if let Err(e) = self.stream.write_all(request.as_bytes()) {
            self.reusable = false;
            return Err(format!("write {}: {e}", self.addr));
        }
        match self.read_one_response() {
            Ok(result) => {
                self.served += 1;
                Ok(result)
            }
            Err(e) => {
                self.reusable = false;
                Err(e)
            }
        }
    }

    /// Read exactly one response: head to `\r\n\r\n`, then
    /// `Content-Length` body bytes (or to EOF when no length was sent,
    /// which consumes the connection).
    fn read_one_response(&mut self) -> Result<FetchResult, String> {
        let addr = self.addr.clone();
        let mut raw = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            if raw.len() > MAX_RESPONSE_BYTES {
                return Err(format!("response head from {addr} exceeds the buffer cap"));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(format!("read {addr}: connection closed mid-response")),
                Ok(n) => raw.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                Err(e) => return Err(format!("read {addr}: {e}")),
            }
        };
        let head = String::from_utf8_lossy(raw.get(..head_end).unwrap_or(&raw)).to_string();
        let declared = match header_value(&head, "content-length") {
            Some(v) => Some(
                v.parse::<usize>()
                    .map_err(|_| format!("unparseable content-length {v:?} from {addr}"))?,
            ),
            None => None,
        };
        match declared {
            Some(len) => {
                let need = head_end
                    .checked_add(len)
                    .filter(|n| *n <= MAX_RESPONSE_BYTES)
                    .ok_or_else(|| format!("content-length {len} from {addr} exceeds the cap"))?;
                while raw.len() < need {
                    match self.stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(format!("read {addr}: connection closed mid-body"));
                        }
                        Ok(n) => raw.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                        Err(e) => return Err(format!("read {addr}: {e}")),
                    }
                }
                if raw.len() > need {
                    // Bytes past the declared body belong to no request
                    // we made: the framing is broken.
                    return Err(format!(
                        "read {addr}: {} bytes past the declared content-length",
                        raw.len() - need
                    ));
                }
            }
            None => {
                // EOF framing: legal, but consumes the connection.
                self.reusable = false;
                loop {
                    match self.stream.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => {
                            raw.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                            if raw.len() > MAX_RESPONSE_BYTES {
                                return Err(format!("response from {addr} exceeds the cap"));
                            }
                        }
                        Err(e) => return Err(format!("read {addr}: {e}")),
                    }
                }
            }
        }
        if header_value(&head, "connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
        {
            self.reusable = false;
        }
        parse_response(&raw)
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

/// Bounded-retry policy for idempotent GETs.
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

macro_rules! counter {
    ($bump:ident, $get:ident, $field:ident, $doc:literal) => {
        #[doc = $doc]
        pub fn $get(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        }
        fn $bump(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    };
}

impl ClientMetrics {
    /// Fresh, all-zero registry.
    pub fn new() -> ClientMetrics {
        ClientMetrics::default()
    }

    counter!(
        bump_attempts,
        attempts_total,
        attempts,
        "Network attempts made (excludes fast-fails)."
    );
    counter!(
        bump_retries,
        retries_total,
        retries,
        "Attempts that were retries of an earlier failure."
    );
    counter!(
        bump_successes,
        successes_total,
        successes,
        "Requests that returned a definitive response."
    );
    counter!(
        bump_transport_errors,
        transport_errors_total,
        transport_errors,
        "Attempts that died in transport (connect/read/parse)."
    );
    counter!(
        bump_server_5xx,
        server_5xx_total,
        server_5xx,
        "Attempts answered with a retryable 5xx."
    );
    counter!(
        bump_retry_after,
        retry_after_honored_total,
        retry_after_honored,
        "Backoffs governed by a server `Retry-After`."
    );
    counter!(
        bump_retry_after_unparseable,
        retry_after_unparseable_total,
        retry_after_unparseable,
        "`Retry-After` headers present but not delta-seconds (honored at the cap)."
    );
    counter!(
        bump_breaker_opens,
        breaker_opens_total,
        breaker_opens,
        "Breaker transitions into open."
    );
    counter!(
        bump_breaker_probes,
        breaker_probes_total,
        breaker_probes,
        "Breaker transitions into half-open (probe admitted)."
    );
    counter!(
        bump_breaker_closes,
        breaker_closes_total,
        breaker_closes,
        "Breaker transitions back to closed."
    );
    counter!(
        bump_breaker_fast_fails,
        breaker_fast_fails_total,
        breaker_fast_fails,
        "Calls fast-failed by an open breaker."
    );

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

/// A retrying, circuit-breaking client over the strict transport
/// layer. Retries only idempotent exchanges by construction — `GET`,
/// and `PUT`/`DELETE` keyed by lease id; `POST` gets exactly one
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

    /// `GET path` against `addr` with retries and circuit breaking.
    /// Definitive responses (anything below 500) are returned as `Ok`
    /// immediately; transport errors and 5xx are retried up to the
    /// policy bound, after which the last 5xx is returned as `Ok` (the
    /// caller sees the status) and the last transport error as `Err`.
    pub fn fetch(&self, addr: &str, path: &str, timeout_ms: u64) -> Result<FetchResult, String> {
        let max_attempts = self.policy.max_attempts.max(1);
        self.exchange(addr, max_attempts, || http_get(addr, path, timeout_ms))
    }

    /// `POST path` with `body`: **never retried**. A POST that times out
    /// may still have been applied server-side (the lease may exist), so
    /// replaying it is not safe — the single attempt's outcome, success
    /// or error, is surfaced as-is. The breaker still observes it.
    pub fn post(
        &self,
        addr: &str,
        path: &str,
        body: &str,
        timeout_ms: u64,
    ) -> Result<FetchResult, String> {
        self.exchange(addr, 1, || http_send(addr, "POST", path, body, timeout_ms))
    }

    /// `PUT path` with `body`, retried like a GET: PUT is idempotent by
    /// target (renewing lease `<id>` twice lands in the same state), so
    /// replaying a possibly-applied attempt is safe.
    pub fn put(
        &self,
        addr: &str,
        path: &str,
        body: &str,
        timeout_ms: u64,
    ) -> Result<FetchResult, String> {
        let max_attempts = self.policy.max_attempts.max(1);
        self.exchange(addr, max_attempts, || {
            http_send(addr, "PUT", path, body, timeout_ms)
        })
    }

    /// `DELETE path`, retried like a GET: deleting lease `<id>` twice
    /// is idempotent (the second attempt sees 404, a definitive
    /// response, not a retryable error).
    pub fn delete(&self, addr: &str, path: &str, timeout_ms: u64) -> Result<FetchResult, String> {
        let max_attempts = self.policy.max_attempts.max(1);
        self.exchange(addr, max_attempts, || {
            http_send(addr, "DELETE", path, "", timeout_ms)
        })
    }

    /// The shared attempt loop: breaker admission, bounded retries with
    /// seeded backoff, `Retry-After` honored. `max_attempts` is the verb
    /// policy — 1 for non-idempotent POST, the retry-policy bound for
    /// idempotent GET/PUT/DELETE.
    fn exchange(
        &self,
        addr: &str,
        max_attempts: u32,
        one_attempt: impl Fn() -> Result<FetchResult, String>,
    ) -> Result<FetchResult, String> {
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            match self.with_breaker(addr, |b| b.admit()) {
                BreakerDecision::Allow => {}
                BreakerDecision::Probe => self.metrics.bump_breaker_probes(),
                BreakerDecision::FastFail => {
                    self.metrics.bump_breaker_fast_fails();
                    return Err(format!("circuit breaker open for {addr} (fast fail)"));
                }
            }
            self.metrics.bump_attempts();
            if attempt > 1 {
                self.metrics.bump_retries();
            }
            match one_attempt() {
                Ok(result) if result.status < 500 => {
                    if self.with_breaker(addr, |b| b.record_success()) {
                        self.metrics.bump_breaker_closes();
                    }
                    self.metrics.bump_successes();
                    return Ok(result);
                }
                Ok(result) => {
                    // Retryable server error.
                    self.metrics.bump_server_5xx();
                    if self.with_breaker(addr, |b| b.record_failure()) {
                        self.metrics.bump_breaker_opens();
                    }
                    if result.retry_after == RetryAfter::UnparseableHint {
                        self.metrics.bump_retry_after_unparseable();
                    }
                    if attempt >= max_attempts {
                        return Ok(result);
                    }
                    let (wait_ms, honored) = {
                        let mut jitter = self.jitter.lock().unwrap_or_else(PoisonError::into_inner);
                        self.policy
                            .retry_wait_ms(attempt + 1, &result.retry_after, &mut jitter)
                    };
                    if honored {
                        self.metrics.bump_retry_after();
                    }
                    std::thread::sleep(Duration::from_millis(wait_ms));
                }
                Err(e) => {
                    self.metrics.bump_transport_errors();
                    if self.with_breaker(addr, |b| b.record_failure()) {
                        self.metrics.bump_breaker_opens();
                    }
                    if attempt >= max_attempts {
                        return Err(format!("{e} (after {attempt} attempts)"));
                    }
                    let wait_ms = {
                        let mut jitter = self.jitter.lock().unwrap_or_else(PoisonError::into_inner);
                        self.policy.backoff_ms(attempt + 1, &mut jitter)
                    };
                    std::thread::sleep(Duration::from_millis(wait_ms));
                }
            }
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

    #[test]
    fn parses_responses_and_rejects_garbage() {
        let ok =
            parse_response(b"HTTP/1.1 404 Not Found\r\nx: y\r\nRetry-After: 3\r\n\r\nmissing\n")
                .unwrap();
        assert_eq!(
            (ok.status, ok.body.as_slice(), ok.retry_after),
            (404, b"missing\n".as_slice(), RetryAfter::Seconds(3))
        );
        // An HTTP-date Retry-After is present-but-unparseable, not absent.
        let dated = parse_response(
            b"HTTP/1.1 503 Unavailable\r\nRetry-After: Fri, 31 Dec 1999 23:59:59 GMT\r\n\r\nbusy\n",
        )
        .unwrap();
        assert_eq!(dated.retry_after, RetryAfter::UnparseableHint);
        let bare = parse_response(b"HTTP/1.1 200 OK\r\n\r\nok\n").unwrap();
        assert_eq!(bare.retry_after, RetryAfter::Absent);
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\n").is_err());
        // A corrupted status line is a transport error even with a
        // plausible shape after the damage.
        assert!(parse_response(b"XTTP/1.1 200 OK\r\n\r\nok").is_err());
    }

    #[test]
    fn content_length_mismatch_is_a_torn_response() {
        let torn = parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhal");
        assert!(torn.unwrap_err().contains("torn response"));
        let exact = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nhal").unwrap();
        assert_eq!(exact.body, b"hal");
        // No declared length: body is whatever EOF delimited.
        let lenless = parse_response(b"HTTP/1.1 200 OK\r\n\r\nwhatever").unwrap();
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
            let mut buf = [0u8; 2048];
            let mut head = Vec::new();
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                match second.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => head.extend_from_slice(&buf[..n]),
                }
            }
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
        let got = client.fetch(&addr, "/x", 2_000).unwrap();
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
        let ok = client.post(&addr, "/leases", "pool=v4", 2_000).unwrap();
        assert_eq!((ok.status, ok.body.as_slice()), (201, b"id\n".as_slice()));
        let before = client.metrics().attempts_total();
        let err = client.post(&addr, "/leases", "pool=v4", 2_000);
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
            .put(&addr, "/leases/7/renew", "lifetime=60", 2_000)
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
        let got = client.delete(&addr, "/leases/7", 2_000).unwrap();
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
        let mut conn = KeepAliveConnection::connect(&addr, 2_000).unwrap();
        for n in 1..=3u32 {
            let got = conn.roundtrip("/x").unwrap();
            assert_eq!(got.status, 200);
            assert_eq!(got.body, format!("resp {n}\n").into_bytes());
        }
        assert!(!conn.is_reusable(), "server said connection: close");
        assert_eq!(conn.requests_served(), 3);
        assert!(conn.roundtrip("/x").is_err(), "poisoned after close");
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
                let mut buf = [0u8; 2048];
                let mut head = Vec::new();
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => head.extend_from_slice(&buf[..n]),
                    }
                }
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
        let got = client.fetch(&addr, "/x", 2_000).unwrap();
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
        let err = client.fetch(&addr, "/x", 100).unwrap_err();
        assert!(err.contains("after 3 attempts"), "{err}");
        assert_eq!(client.breaker_state(&addr), BreakerState::Open);
        let fast = client.fetch(&addr, "/x", 100).unwrap_err();
        assert!(fast.contains("circuit breaker open"), "{fast}");
        assert_eq!(client.metrics().breaker_opens_total(), 1);
        assert!(client.metrics().breaker_fast_fails_total() >= 1);
    }
}
