//! The event-driven serve core: one reactor thread drives every
//! connection through a small state machine over epoll readiness
//! ([`crate::poll`]), while the supervised worker pool only ever sees
//! parsed requests.
//!
//! Connection lifecycle: `Reading` (accumulate request-head bytes,
//! scanning one head at a time so pipelined requests parse in order) →
//! `Dispatched` (a worker owns the request; the socket keeps no read
//! interest, which gives pipelining clients TCP backpressure) →
//! `Writing` (flush the serialized response) → back to `Reading` for
//! HTTP/1.1 keep-alive, or closed when the request, the response, or
//! admission control asked for `Connection: close`.
//!
//! Deadlines are enforced by a hashed timer wheel (16 ms ticks, 256
//! slots, absolute-tick entries so delays past one wheel revolution
//! re-queue instead of firing early): a read deadline covers the head,
//! an idle deadline bounds keep-alive parking, a write deadline bounds
//! the flush, and admission-rejected connections drain under the much
//! shorter reject deadline. A dispatched request has *no* deadline —
//! cold artifact renders legitimately take minutes, and the worker pool
//! is already supervised against hangs-by-panic.
//!
//! Built-in routes (`/healthz`, `/metrics`, `/shutdown`, `/`, and the
//! `405` for non-GETs) are answered inline on the reactor thread, so
//! liveness probes keep answering even when every worker is wedged in a
//! crash loop.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use crate::http::{self, Disposition, ParseOutcome, Request, Response};
use crate::metrics::GaugeGuard;
use crate::poll::{drain_wake, Interest, PollEvent, Poller, Registration};
use crate::server::{begin_shutdown, Completion, Job, Shared};

/// Timer-wheel tick, milliseconds; also the epoll wait bound.
const TICK_MS: u64 = 16;
/// Timer-wheel slot count (horizon = `TICK_MS * WHEEL_SLOTS` = ~4 s per
/// revolution; longer delays survive via absolute-tick re-queueing).
const WHEEL_SLOTS: usize = 256;
/// Poll token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Poll token of the wake pipe's receive half.
const WAKE_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// The `GET /` help page (kept byte-identical across server cores).
const HELP_TEXT: &str = "dynamips-serve\n\nGET /artifacts            list artifact names\nGET /artifacts/<name>     render one artifact (?seed=&atlas_scale=&cdn_scale=)\nGET /healthz              liveness probe\nGET /metrics              Prometheus text metrics\nGET /shutdown             drain in-flight requests and exit\n";

/// One pending deadline: fires for `token` unless the connection has
/// since moved on (its `deadline_gen` advanced).
struct TimerEntry {
    due_tick: u64,
    token: u64,
    deadline_gen: u64,
}

/// Hashed timer wheel over [`TICK_MS`] ticks. Entries carry their
/// absolute due tick; a slot visited before an entry is due re-queues it
/// (the wheel wraps every ~4 s but server deadlines reach 5 s).
struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    tick: u64,
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            tick: 0,
        }
    }

    /// Arm a deadline `delay_ms` from the current tick (min one tick).
    fn arm(&mut self, delay_ms: u64, token: u64, deadline_gen: u64) {
        let due_tick = self.tick + (delay_ms / TICK_MS).max(1);
        let idx = (due_tick % WHEEL_SLOTS as u64) as usize;
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.push(TimerEntry {
                due_tick,
                token,
                deadline_gen,
            });
        }
    }

    /// Advance to `now_tick`, pushing every `(token, deadline_gen)`
    /// whose due tick has passed into `fired`.
    fn advance(&mut self, now_tick: u64, fired: &mut Vec<(u64, u64)>) {
        while self.tick < now_tick {
            self.tick += 1;
            let idx = (self.tick % WHEEL_SLOTS as u64) as usize;
            if let Some(slot) = self.slots.get_mut(idx) {
                let mut keep = Vec::new();
                for entry in slot.drain(..) {
                    if entry.due_tick <= self.tick {
                        fired.push((entry.token, entry.deadline_gen));
                    } else {
                        keep.push(entry);
                    }
                }
                *slot = keep;
            }
        }
    }
}

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request-head bytes (fresh, mid-head, or keep-alive
    /// idle between requests).
    Reading,
    /// A worker owns the parsed request; no read interest (backpressure).
    Dispatched,
    /// Flushing the serialized response.
    Writing,
}

/// Per-connection reactor state.
struct Conn {
    /// Poller registration guard; `None` while deregistered (a hangup
    /// seen mid-dispatch). Dropping it removes the fd from the interest
    /// table, so no close path can leave a stale registration behind.
    /// Declared before `stream` so the deregistration happens while the
    /// fd is still open.
    registration: Option<Registration>,
    stream: TcpStream,
    /// Inbound bytes not yet consumed by a parsed head.
    buf: Vec<u8>,
    /// Serialized response bytes being flushed.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// Admission-rejected at accept (connection cap): drain the head
    /// under the reject deadline, answer 503, close.
    reject: bool,
    close_after_write: bool,
    peer_eof: bool,
    /// Bumped per dispatched request; completions for older generations
    /// are dropped (the connection has moved on).
    generation: u64,
    /// Bumped on every deadline re-arm/cancel; stale wheel entries no-op.
    deadline_gen: u64,
    /// Responses completed on this connection (keep-alive reuse count).
    served: u64,
    /// Open-connection gauge guard, taken at first dispatch/inline-route
    /// rather than at accept, so the gauge means "connections that
    /// reached serving" and admission tests can wait on it
    /// deterministically. Dropping the `Conn` balances the gauge on
    /// every close path.
    gauge: Option<GaugeGuard>,
    /// When the current request's head completed parsing (latency base).
    request_started: Instant,
    /// Status of the response currently being written.
    pending_status: u16,
}

/// What to do about a connection once a borrow-free decision is needed.
#[derive(Debug, Clone, Copy)]
enum ConnAction {
    /// Close and count a disconnect (peer vanished mid-exchange).
    CloseDisconnect,
    /// Close without a disconnect (clean end of a served connection).
    CloseQuiet,
    /// Answer the admission 503 (reject-mode connections).
    Reject503,
    /// Attempt a `400` for a head or body torn by EOF.
    TornHead,
    /// Nothing to do.
    Keep,
}

/// The single-threaded event loop driving every connection.
pub(crate) struct Reactor {
    /// Shared with every [`Registration`] guard, which keeps the poller
    /// alive until the last registered fd is released.
    poller: Arc<Poller>,
    listener: Option<TcpListener>,
    /// The listener's registration; dropped when the drain begins so no
    /// further accept readiness arrives.
    listener_reg: Option<Registration>,
    /// The wake pipe's registration, held for the reactor's lifetime.
    _wake_reg: Registration,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    wheel: TimerWheel,
    epoch: Instant,
    draining: bool,
}

impl Reactor {
    /// Build the reactor: make the listener non-blocking and register it
    /// and the wake pipe. Errors here surface from `Server::start`.
    pub(crate) fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        shared: Arc<Shared>,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Arc::new(Poller::new()?);
        let listener_reg = Registration::register(
            &poller,
            listener.as_raw_fd(),
            Interest::READ,
            LISTENER_TOKEN,
        )?;
        let wake_reg =
            Registration::register(&poller, wake_rx.as_raw_fd(), Interest::READ, WAKE_TOKEN)?;
        Ok(Reactor {
            poller,
            listener: Some(listener),
            listener_reg: Some(listener_reg),
            _wake_reg: wake_reg,
            wake_rx,
            shared,
            conns: BTreeMap::new(),
            next_token: FIRST_CONN_TOKEN,
            wheel: TimerWheel::new(),
            #[allow(clippy::disallowed_methods, reason = "timer wheel epoch")]
            epoch: Instant::now(),
            draining: false,
        })
    }

    /// Run until shutdown is requested and every connection has drained.
    pub(crate) fn run_loop(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        loop {
            if self
                .poller
                .poll_events(&mut events, Duration::from_millis(TICK_MS))
                .is_err()
            {
                // A dead epoll fd is unrecoverable; fail into a drain so
                // join() still returns instead of hanging.
                begin_shutdown(&self.shared);
            }
            let batch: Vec<PollEvent> = events.clone();
            for ev in batch {
                match ev.token {
                    LISTENER_TOKEN => {}
                    WAKE_TOKEN => drain_wake(&self.wake_rx),
                    token => self.conn_event(token, ev),
                }
            }
            self.drain_completions();
            self.accept_ready();
            let now_tick = (self.epoch.elapsed().as_millis() as u64) / TICK_MS;
            fired.clear();
            self.wheel.advance(now_tick, &mut fired);
            for (token, deadline_gen) in fired.drain(..) {
                self.deadline_fired(token, deadline_gen);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.enter_drain();
                if self.shared.live_workers.load(Ordering::SeqCst) == 0 {
                    // No worker can ever complete a queued job now:
                    // fail the orphans instead of draining forever.
                    self.fail_orphaned_jobs();
                }
                if self.conns.is_empty() {
                    return;
                }
            }
        }
    }

    /// Accept everything the backlog holds (level-triggered, so checking
    /// every iteration is cheap and never misses).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (e.g. a connection that reset
                // while queued): try again next tick.
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            let reject = self.conns.len() >= self.shared.cfg.max_conns;
            if reject {
                self.shared.metrics.record_admission_reject();
            }
            let Ok(registration) =
                Registration::register(&self.poller, stream.as_raw_fd(), Interest::READ, token)
            else {
                // Can't watch it; drop the connection (peer sees a reset).
                continue;
            };
            let mut conn = Conn {
                registration: Some(registration),
                stream,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                state: ConnState::Reading,
                reject,
                close_after_write: false,
                peer_eof: false,
                generation: 0,
                deadline_gen: 0,
                served: 0,
                gauge: None,
                #[allow(clippy::disallowed_methods, reason = "latency starts at accept")]
                request_started: Instant::now(),
                pending_status: 0,
            };
            let delay = if reject {
                self.shared.cfg.reject_timeout_ms
            } else {
                self.shared.cfg.read_timeout_ms
            };
            conn.deadline_gen += 1;
            self.wheel.arm(delay.max(1), token, conn.deadline_gen);
            self.conns.insert(token, conn);
        }
    }

    /// Route one readiness event to the owning connection.
    fn conn_event(&mut self, token: u64, ev: PollEvent) {
        if ev.writable {
            self.continue_write(token);
        }
        if ev.readable || ev.hangup {
            self.read_ready(token, ev.hangup);
        }
    }

    /// Pull available bytes and advance the head scanner.
    fn read_ready(&mut self, token: u64, hangup: bool) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading {
                // Input is not consumed while a request is in flight.
                // A hangup here marks the connection for closure after
                // the response; deregistering stops the level-triggered
                // HUP from spinning the loop during long renders.
                if hangup {
                    conn.peer_eof = true;
                    conn.close_after_write = true;
                    if conn.state == ConnState::Dispatched {
                        // Dropping the guard deregisters the fd.
                        conn.registration = None;
                    }
                }
                return;
            }
            let buf_was_empty = conn.buf.is_empty();
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.peer_eof = true;
                        break;
                    }
                }
            }
            if buf_was_empty && !conn.buf.is_empty() {
                // First bytes of a new head (re)start the read clock.
                conn.deadline_gen += 1;
                let delay = if conn.reject {
                    self.shared.cfg.reject_timeout_ms
                } else {
                    self.shared.cfg.read_timeout_ms
                };
                self.wheel.arm(delay.max(1), token, conn.deadline_gen);
            }
        }
        self.settle(token);
    }

    /// Drive a `Reading` connection: parse every complete head in the
    /// buffer (pipelining), then decide what the EOF/idle situation
    /// means. Re-entered after each keep-alive response so buffered
    /// pipelined requests are served back-to-back.
    fn settle(&mut self, token: u64) {
        loop {
            let head = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.state != ConnState::Reading {
                    return;
                }
                match http::scan_request(
                    &conn.buf,
                    self.shared.cfg.max_head_bytes,
                    self.shared.cfg.max_body_bytes,
                ) {
                    Some((outcome, consumed)) => {
                        conn.buf.drain(..consumed);
                        #[allow(
                            clippy::disallowed_methods,
                            reason = "latency starts at first byte"
                        )]
                        let now = Instant::now();
                        conn.request_started = now;
                        Some(outcome)
                    }
                    None => None,
                }
            };
            match head {
                Some(outcome) => self.one_head(token, outcome),
                None => break,
            }
        }
        let action = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            if conn.peer_eof {
                if conn.reject {
                    // The old blocking reject path always attempted its
                    // 503 after the drain, however the drain ended.
                    ConnAction::Reject503
                } else if !conn.buf.is_empty() {
                    ConnAction::TornHead
                } else if conn.served == 0 {
                    ConnAction::CloseDisconnect
                } else {
                    ConnAction::CloseQuiet
                }
            } else {
                if conn.buf.is_empty() && conn.served > 0 {
                    // Keep-alive idle: bound the parking time.
                    conn.deadline_gen += 1;
                    self.wheel.arm(
                        self.shared.cfg.idle_timeout_ms.max(1),
                        token,
                        conn.deadline_gen,
                    );
                }
                ConnAction::Keep
            }
        };
        self.apply_conn_action(token, action);
        if matches!(action, ConnAction::Keep) {
            self.want_interest(token, Interest::READ);
        }
    }

    /// Act on one parsed head.
    fn one_head(&mut self, token: u64, outcome: ParseOutcome) {
        let is_reject = self.conns.get(&token).map(|c| c.reject).unwrap_or_default();
        if is_reject {
            // Whatever the head was, the answer is the admission 503
            // (the drain only exists to avoid an RST under the client).
            self.apply_conn_action(token, ConnAction::Reject503);
            return;
        }
        match outcome {
            ParseOutcome::Ok(req) => self.handle_request(token, req),
            ParseOutcome::Malformed(why) => {
                let resp = Response::text(400, format!("bad request: {why}\n"));
                self.send_reply(token, resp, true);
            }
            ParseOutcome::TooLarge => {
                let resp = Response::text(413, "request head or body exceeds the configured cap\n");
                self.send_reply(token, resp, true);
            }
            // scan_head never yields Disconnected; defensively treat it
            // as the peer vanishing.
            ParseOutcome::Disconnected => {
                self.apply_conn_action(token, ConnAction::CloseDisconnect)
            }
        }
    }

    /// Serve one well-formed request: built-ins inline, the rest to the
    /// worker pool.
    fn handle_request(&mut self, token: u64, req: Request) {
        let shared = Arc::clone(&self.shared);
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.gauge.is_none() {
                conn.gauge = Some(GaugeGuard::open_conn(&shared.metrics));
            }
            if conn.served > 0 {
                shared.metrics.record_keepalive_reuse();
            }
            if req.close_requested {
                conn.close_after_write = true;
            }
        }
        // Built-ins are GET-only and answered inline on the reactor;
        // everything else goes to the worker pool, which serves GET
        // plus the bodied verbs the lease endpoints need. Unknown
        // methods are refused before any handler sees them.
        let builtin = matches!(
            req.path.as_str(),
            "/" | "/healthz" | "/metrics" | "/shutdown"
        );
        match req.method.as_str() {
            "GET" => match req.path.as_str() {
                "/healthz" => self.send_reply(token, Response::text(200, "ok\n"), false),
                "/metrics" => {
                    let page = shared.metrics.render_prometheus();
                    self.send_reply(token, Response::text(200, page), false);
                }
                "/shutdown" => {
                    begin_shutdown(&shared);
                    self.send_reply(token, Response::text(200, "draining\n"), true);
                }
                "/" => self.send_reply(token, Response::text(200, HELP_TEXT), false),
                _ => self.dispatch_to_worker(token, req),
            },
            "POST" | "PUT" | "DELETE" if !builtin => self.dispatch_to_worker(token, req),
            _ => {
                let resp = if builtin {
                    Response::text(405, "only GET is served on built-in endpoints\n")
                } else {
                    Response::text(405, "only GET, POST, PUT, and DELETE are served\n")
                };
                self.send_reply(token, resp, true);
            }
        }
    }

    /// Hand a request to the worker pool, or shed it with a 503 when the
    /// queue is at its bound.
    fn dispatch_to_worker(&mut self, token: u64, req: Request) {
        let shared = Arc::clone(&self.shared);
        let queued = {
            let mut jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            if jobs.len() >= shared.cfg.queue_cap {
                false
            } else {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                conn.generation += 1;
                conn.state = ConnState::Dispatched;
                // No deadline while a worker owns the request: cancel
                // the pending read clock.
                conn.deadline_gen += 1;
                jobs.push_back(Job {
                    token,
                    generation: conn.generation,
                    request: req,
                    queue_slot: GaugeGuard::queue_slot(&shared.metrics),
                });
                true
            }
        };
        if queued {
            shared.available.notify_one();
            self.want_interest(token, Interest::NONE);
        } else {
            shared.metrics.record_admission_reject();
            let mut resp = Response::text(503, "server is at capacity; retry shortly\n");
            resp.retry_after_secs = Some(shared.cfg.retry_after_secs);
            self.send_reply(token, resp, true);
        }
    }

    /// Serialize `resp` onto the connection and start flushing. The
    /// disposition is keep-alive unless this response, the request, the
    /// peer state, or an in-progress drain demands closure.
    fn send_reply(&mut self, token: u64, resp: Response, force_close: bool) {
        let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let close = force_close || conn.close_after_write || conn.peer_eof || shutting_down;
            conn.close_after_write = close;
            let disposition = if close {
                Disposition::Close
            } else {
                Disposition::KeepAlive
            };
            conn.pending_status = resp.status;
            conn.out = http::serialize_response(&resp, disposition);
            conn.out_pos = 0;
            conn.state = ConnState::Writing;
            conn.deadline_gen += 1;
            let delay = if conn.reject {
                self.shared.cfg.reject_timeout_ms
            } else {
                self.shared.cfg.write_timeout_ms
            };
            self.wheel.arm(delay.max(1), token, conn.deadline_gen);
        }
        self.continue_write(token);
    }

    /// Push pending response bytes until done or the socket back-fills.
    fn continue_write(&mut self, token: u64) {
        enum WriteOutcome {
            Done,
            Blocked,
            Dead,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Writing {
                return;
            }
            loop {
                let pending = conn.out.get(conn.out_pos..).unwrap_or(&[]);
                if pending.is_empty() {
                    break WriteOutcome::Done;
                }
                match conn.stream.write(pending) {
                    Ok(0) => break WriteOutcome::Dead,
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        break WriteOutcome::Blocked;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break WriteOutcome::Dead,
                }
            }
        };
        match outcome {
            WriteOutcome::Done => self.on_response_written(token),
            WriteOutcome::Blocked => self.want_interest(token, Interest::WRITE),
            WriteOutcome::Dead => self.apply_conn_action(token, ConnAction::CloseDisconnect),
        }
    }

    /// A full response hit the wire: record it, then keep-alive or close.
    fn on_response_written(&mut self, token: u64) {
        let close = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let latency_us = conn.request_started.elapsed().as_micros() as u64;
            self.shared
                .metrics
                .record_response(conn.pending_status, latency_us);
            conn.served += 1;
            conn.out.clear();
            conn.out_pos = 0;
            conn.deadline_gen += 1; // cancel the write deadline
            if !conn.close_after_write {
                conn.state = ConnState::Reading;
            }
            conn.close_after_write
        };
        if close {
            self.apply_conn_action(token, ConnAction::CloseQuiet);
        } else {
            // Buffered pipelined requests (or an already-seen EOF) are
            // handled immediately; otherwise this arms the idle clock.
            self.settle(token);
        }
    }

    /// Deliver worker results to their connections. Stale generations
    /// (the connection moved on or closed) are dropped silently; a
    /// `None` response means the handler panicked, and the peer sees the
    /// connection close without a response.
    fn drain_completions(&mut self) {
        let completed: Vec<Completion> = {
            let mut guard = self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for completion in completed {
            let current = self
                .conns
                .get(&completion.token)
                .map(|conn| {
                    conn.state == ConnState::Dispatched && conn.generation == completion.generation
                })
                .unwrap_or(false);
            if !current {
                continue;
            }
            match completion.response {
                Some(resp) => self.send_reply(completion.token, resp, false),
                None => self.apply_conn_action(completion.token, ConnAction::CloseDisconnect),
            }
        }
    }

    /// A deadline fired. Only acts when the connection still holds the
    /// generation the deadline was armed for.
    fn deadline_fired(&mut self, token: u64, deadline_gen: u64) {
        let action = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.deadline_gen != deadline_gen {
                return;
            }
            match conn.state {
                // Dispatched requests carry no deadline; a stale one
                // that slipped through is meaningless.
                ConnState::Dispatched => ConnAction::Keep,
                ConnState::Writing => ConnAction::CloseDisconnect,
                ConnState::Reading => {
                    if conn.reject {
                        // Drain window over: answer the 503 now.
                        ConnAction::Reject503
                    } else if conn.buf.is_empty() && conn.served > 0 {
                        // Keep-alive idle expiry: a clean close.
                        ConnAction::CloseQuiet
                    } else {
                        // Never sent a head, or stalled mid-head.
                        ConnAction::CloseDisconnect
                    }
                }
            }
        };
        self.apply_conn_action(token, action);
    }

    /// Execute a borrow-free [`ConnAction`].
    fn apply_conn_action(&mut self, token: u64, action: ConnAction) {
        match action {
            ConnAction::Keep => {}
            ConnAction::CloseDisconnect => self.close_conn(token, true),
            ConnAction::CloseQuiet => self.close_conn(token, false),
            ConnAction::Reject503 => {
                let mut resp = Response::text(503, "server is at capacity; retry shortly\n");
                resp.retry_after_secs = Some(self.shared.cfg.retry_after_secs);
                self.send_reply(token, resp, true);
            }
            ConnAction::TornHead => {
                let resp = Response::text(400, "bad request: connection closed mid-request\n");
                self.send_reply(token, resp, true);
            }
        }
    }

    /// Set the fd's poll interest (re-registering if a dispatch hangup
    /// removed it).
    fn want_interest(&mut self, token: u64, interest: Interest) {
        let poller = Arc::clone(&self.poller);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.registration.as_mut() {
            // On failure the previous interest stays installed; the next
            // state transition retries.
            Some(reg) => {
                let _ = reg.set_interest(interest);
            }
            None => {
                if let Ok(reg) =
                    Registration::register(&poller, conn.stream.as_raw_fd(), interest, token)
                {
                    conn.registration = Some(reg);
                }
            }
        }
    }

    /// Remove and drop a connection. The poller registration and the
    /// open-connection gauge balance themselves via the dropped guards;
    /// only the disconnect accounting is explicit.
    fn close_conn(&mut self, token: u64, disconnect: bool) {
        let Some(_conn) = self.conns.remove(&token) else {
            return;
        };
        if disconnect {
            self.shared.metrics.record_disconnect();
        }
    }

    /// Drop every job still queued (the worker pool is gone) and close
    /// the connections that were waiting on them. Each dropped job's
    /// queue-slot guard balances the depth gauge.
    fn fail_orphaned_jobs(&mut self) {
        let orphans: Vec<Job> = {
            let mut jobs = self
                .shared
                .jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            jobs.drain(..).collect()
        };
        for job in orphans {
            let current = self
                .conns
                .get(&job.token)
                .map(|conn| {
                    conn.state == ConnState::Dispatched && conn.generation == job.generation
                })
                .unwrap_or(false);
            if current {
                self.close_conn(job.token, true);
            }
        }
    }

    /// Shutdown requested: stop accepting and close connections that are
    /// between requests. In-flight requests (dispatched or writing)
    /// still complete — that is the cooperative drain.
    fn enter_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        // Dropping the guard removes the listener from the poller.
        self.listener_reg = None;
        self.listener = None;
        let reading: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.state == ConnState::Reading)
            .map(|(token, conn)| (*token, conn.buf.is_empty()))
            .collect();
        for (token, quiet) in reading {
            self.close_conn(token, !quiet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_at_and_after_due_ticks_only() {
        let mut wheel = TimerWheel::new();
        wheel.arm(32, 7, 1); // due at tick 2
        wheel.arm(0, 8, 1); // clamps to one tick
        let mut fired = Vec::new();
        wheel.advance(1, &mut fired);
        assert_eq!(fired, vec![(8, 1)]);
        fired.clear();
        wheel.advance(2, &mut fired);
        assert_eq!(fired, vec![(7, 1)]);
    }

    #[test]
    fn timer_wheel_requeues_entries_past_one_revolution() {
        let mut wheel = TimerWheel::new();
        // 5 s >> the ~4 s wheel horizon: the slot is visited once before
        // the entry is due and must not fire early.
        let delay_ms = 5_000;
        let due_tick = delay_ms / TICK_MS;
        wheel.arm(delay_ms, 42, 9);
        let mut fired = Vec::new();
        wheel.advance(due_tick - 1, &mut fired);
        assert!(fired.is_empty(), "fired early: {fired:?}");
        wheel.advance(due_tick, &mut fired);
        assert_eq!(fired, vec![(42, 9)]);
        // Nothing left behind.
        fired.clear();
        wheel.advance(due_tick + WHEEL_SLOTS as u64 * 2, &mut fired);
        assert!(fired.is_empty(), "{fired:?}");
    }

    #[test]
    fn timer_wheel_distinguishes_deadline_generations() {
        let mut wheel = TimerWheel::new();
        wheel.arm(16, 3, 1);
        wheel.arm(16, 3, 2); // re-arm under a new generation
        let mut fired = Vec::new();
        wheel.advance(4, &mut fired);
        // Both entries fire; the reactor drops the stale generation.
        assert!(
            fired.contains(&(3, 1)) && fired.contains(&(3, 2)),
            "{fired:?}"
        );
    }
}
