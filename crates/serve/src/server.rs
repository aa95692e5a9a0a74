//! The server proper: one event-driven reactor thread
//! ([`crate::reactor`]) owning every socket, a fixed worker pool fed
//! parsed requests through a bounded queue, and a supervisor that
//! respawns panicked workers.
//!
//! Load-shedding philosophy (the "503-on-full" rule): the request queue
//! and the connection count are both hard-bounded, and when either
//! bound is hit the *reactor* answers `503` + `Retry-After` inline
//! instead of buffering. Under overload the server therefore degrades
//! to fast, explicit rejections rather than unbounded memory growth and
//! timeout-shaped collapse. Shutdown is cooperative: `GET /shutdown`
//! (or a [`ShutdownHandle`]) flips a flag; the reactor stops accepting,
//! in-flight requests complete, keep-alive connections parked between
//! requests are closed, and [`Server::join`] returns once every
//! connection has drained. (The serving path outside `poll.rs` is free
//! of `unsafe`, so there is no OS signal handler; the drain path is
//! exposed as an endpoint instead.)
//!
//! The worker pool is *supervised*: a handler panic is caught at the
//! worker boundary, counted (`worker_panics_total`), and the dead slot
//! is handed to a supervisor thread that respawns it after an
//! exponential restart backoff. The panic streak resets whenever the
//! pool makes progress between panics; a streak that keeps growing is
//! a crash loop, and once `max_worker_respawns` is exhausted the slot
//! stays dead rather than burning CPU on doomed restarts. A job guard
//! reports the abandoned request to the reactor even when the worker
//! unwinds, so the connection is closed (and accounted) instead of
//! leaking in the dispatched state. Built-in routes are answered on the
//! reactor thread itself, so `/healthz` and `/metrics` stay live even
//! with the entire pool crash-looping.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use crate::http::{Request, Response};
use crate::metrics::{GaugeGuard, Metrics};
use crate::poll::{wake_pair, Waker};
use crate::reactor::Reactor;

/// Application-side request handling: the server resolves its own
/// endpoints (`/healthz`, `/metrics`, `/shutdown`, `/`) and hands
/// everything else to the installed handler.
pub trait Handler: Send + Sync + 'static {
    /// Map one parsed request to a response. Must not panic; encode
    /// failures as 4xx/5xx responses.
    fn respond(&self, req: &Request) -> Response;
}

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue of parsed-but-unclaimed requests; admission
    /// control rejects past this.
    pub queue_cap: usize,
    /// Hard cap on simultaneously open connections (queued + in-flight).
    pub max_conns: usize,
    /// Deadline for receiving a complete request head once its first
    /// byte arrives, milliseconds.
    pub read_timeout_ms: u64,
    /// Deadline for flushing a response, milliseconds.
    pub write_timeout_ms: u64,
    /// `Retry-After` seconds attached to admission 503s.
    pub retry_after_secs: u64,
    /// Maximum accepted request-head size in bytes (413 past this).
    pub max_head_bytes: usize,
    /// Maximum accepted `Content-Length` body size in bytes (413 past
    /// this, refused before the body is buffered).
    pub max_body_bytes: usize,
    /// Deadline for the whole rejection path (drain the rejected head,
    /// write the 503), milliseconds. Deliberately much shorter than the
    /// serving deadlines: a slow-loris client that was already rejected
    /// must not hold its connection slot for the full `read_timeout_ms`.
    pub reject_timeout_ms: u64,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it, milliseconds.
    pub idle_timeout_ms: u64,
    /// Base supervisor backoff before respawning a panicked worker,
    /// milliseconds; doubles per consecutive panic without progress.
    pub respawn_backoff_ms: u64,
    /// Ceiling on the respawn backoff, milliseconds.
    pub respawn_backoff_cap_ms: u64,
    /// Crash-loop cap: total worker respawns before a dying slot is
    /// left dead.
    pub max_worker_respawns: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            max_conns: 256,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            retry_after_secs: 1,
            max_head_bytes: 8_192,
            max_body_bytes: 65_536,
            reject_timeout_ms: 250,
            idle_timeout_ms: 5_000,
            respawn_backoff_ms: 10,
            respawn_backoff_cap_ms: 1_000,
            max_worker_respawns: 1_000,
        }
    }
}

/// Counters reported by [`Server::join`] after the drain completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Responses served (includes error statuses, excludes admission
    /// 503s).
    pub served: u64,
    /// Connections rejected 503 by admission control.
    pub rejected: u64,
    /// Peers that vanished before a response could be written.
    pub disconnects: u64,
    /// Worker panics caught by the supervisor.
    pub worker_panics: u64,
    /// Workers respawned after a panic.
    pub worker_respawns: u64,
}

/// One parsed request handed from the reactor to the worker pool.
pub(crate) struct Job {
    /// Reactor token of the owning connection.
    pub(crate) token: u64,
    /// The connection's request generation when dispatched; a
    /// completion carrying a stale generation is dropped.
    pub(crate) generation: u64,
    /// The parsed request.
    pub(crate) request: Request,
    /// Queue-depth gauge guard, created at enqueue. Dropping it (a
    /// worker claimed the job, or a drain failed it as an orphan)
    /// balances the gauge on every exit path.
    pub(crate) queue_slot: GaugeGuard,
}

/// A worker's verdict on one job, routed back to the reactor.
pub(crate) struct Completion {
    /// Reactor token of the owning connection.
    pub(crate) token: u64,
    /// Generation echoed from the [`Job`].
    pub(crate) generation: u64,
    /// `Some` = the response to write; `None` = the handler panicked
    /// and the connection must be closed without a response.
    pub(crate) response: Option<Response>,
}

pub(crate) struct Shared {
    /// Parsed requests awaiting a worker (bounded by `cfg.queue_cap`).
    pub(crate) jobs: Mutex<VecDeque<Job>>,
    /// Wakes workers when a job lands (or shutdown begins).
    pub(crate) available: Condvar,
    /// Finished jobs awaiting the reactor.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Wakes the reactor out of its poll (completions, shutdown).
    pub(crate) waker: Waker,
    pub(crate) shutdown: AtomicBool,
    pub(crate) cfg: ServeConfig,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) handler: Arc<dyn Handler>,
    /// Worker slots whose thread died to a panic, awaiting respawn.
    pub(crate) dead_workers: Mutex<Vec<usize>>,
    /// Wakes the supervisor when a slot dies (or shutdown begins).
    pub(crate) supervisor_wake: Condvar,
    /// Currently-running worker threads. When this hits zero during a
    /// drain, the reactor fails any still-queued jobs instead of
    /// waiting forever on completions that can no longer arrive.
    pub(crate) live_workers: AtomicU64,
}

fn lock_jobs(shared: &Shared) -> MutexGuard<'_, VecDeque<Job>> {
    shared.jobs.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Queue one completion and wake the reactor.
pub(crate) fn push_completion(shared: &Shared, completion: Completion) {
    shared
        .completions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(completion);
    shared.waker.wake();
}

/// A clonable trigger for the cooperative drain, usable from tests and
/// embedding code without an HTTP round-trip.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Flip the shutdown flag and wake every idle thread.
    pub fn begin_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Whether the drain has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

pub(crate) fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.available.notify_all();
    shared.supervisor_wake.notify_all();
    shared.waker.wake();
}

/// A running server: the reactor thread, `cfg.workers` supervised
/// workers, and the supervisor that respawns them.
pub struct Server {
    shared: Arc<Shared>,
    reactor: thread::JoinHandle<()>,
    supervisor: thread::JoinHandle<()>,
    addr: SocketAddr,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the reactor and worker pool.
    pub fn start(
        addr: &str,
        cfg: ServeConfig,
        handler: Arc<dyn Handler>,
        metrics: Arc<Metrics>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (waker, wake_rx) = wake_pair()?;
        let shared = Arc::new(Shared {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
            metrics,
            handler,
            dead_workers: Mutex::new(Vec::new()),
            supervisor_wake: Condvar::new(),
            live_workers: AtomicU64::new(0),
        });
        let reactor = Reactor::new(listener, wake_rx, Arc::clone(&shared))?;
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for slot in 0..cfg.workers.max(1) {
            workers.push(Some(spawn_worker(&shared, slot)));
        }
        let supervisor_shared = Arc::clone(&shared);
        #[allow(clippy::disallowed_methods, reason = "the supervisor thread")]
        let supervisor = thread::spawn(move || supervisor_loop(&supervisor_shared, workers));
        #[allow(clippy::disallowed_methods, reason = "the reactor thread")]
        let reactor_thread = thread::spawn(move || reactor.run_loop());
        Ok(Server {
            shared,
            reactor: reactor_thread,
            supervisor,
            addr: local,
        })
    }

    /// The bound address (resolves the actual port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can trigger the drain programmatically.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Block until shutdown is requested (via `/shutdown` or a
    /// [`ShutdownHandle`]) and every accepted connection has drained,
    /// then return final counters.
    pub fn join(self) -> ServeSummary {
        join_thread(self.reactor);
        // The supervisor drains the worker pool before exiting.
        join_thread(self.supervisor);
        ServeSummary {
            served: self.shared.metrics.responses_total() - self.shared.metrics.admission_rejects(),
            rejected: self.shared.metrics.admission_rejects(),
            disconnects: self.shared.metrics.disconnects(),
            worker_panics: self.shared.metrics.worker_panics(),
            worker_respawns: self.shared.metrics.worker_respawns(),
        }
    }
}

fn join_thread(handle: thread::JoinHandle<()>) {
    if let Err(payload) = handle.join() {
        // The reactor and supervisor must never panic (worker panics
        // are caught at the worker boundary); surface a bug here
        // instead of hiding it.
        std::panic::resume_unwind(payload);
    }
}

/// Spawn the worker for `slot`. A panic anywhere in request handling is
/// caught at this boundary, counted, and reported to the supervisor;
/// the thread then exits cleanly so `join` never re-raises.
#[allow(clippy::disallowed_methods, reason = "each worker is its own thread")]
fn spawn_worker(shared: &Arc<Shared>, slot: usize) -> thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    thread::spawn(move || {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(&shared)));
        shared.live_workers.fetch_sub(1, Ordering::SeqCst);
        if outcome.is_err() {
            shared.metrics.record_worker_panic();
            shared
                .dead_workers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(slot);
            shared.supervisor_wake.notify_all();
        }
        // A drain may be waiting on this pool: let the reactor re-check.
        shared.waker.wake();
    })
}

/// The supervisor: reaps panicked worker slots and respawns them with
/// an exponential backoff. The backoff streak resets whenever the pool
/// served responses between panics (a healthy pool that hit one bad
/// request restarts fast); consecutive no-progress panics double the
/// wait, and the `max_worker_respawns` cap stops a hopeless crash loop
/// from consuming the process. On shutdown it drains pending respawns
/// first, then joins every worker.
fn supervisor_loop(shared: &Arc<Shared>, mut workers: Vec<Option<thread::JoinHandle<()>>>) {
    let mut streak: u32 = 0;
    let mut last_served: u64 = 0;
    let mut respawns: u64 = 0;
    loop {
        let slot = {
            let mut dead = shared
                .dead_workers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(slot) = dead.pop() {
                    break Some(slot);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // The timeout guards against a notify racing the park.
                let (guard, _timed_out) = shared
                    .supervisor_wake
                    .wait_timeout(dead, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                dead = guard;
            }
        };
        let Some(slot) = slot else { break };
        // Reap the dead thread (its panic was already caught and
        // counted at the worker boundary).
        if let Some(handle) = workers.get_mut(slot).and_then(Option::take) {
            let _ = handle.join();
        }
        // Crash-loop detection: only consecutive panics with no served
        // responses in between grow the streak.
        let served = shared.metrics.responses_total();
        if served > last_served {
            streak = 0;
        }
        last_served = served;
        streak = streak.saturating_add(1);
        if respawns >= shared.cfg.max_worker_respawns {
            // Crash-loop cap exhausted: the slot stays dead. The
            // remaining pool (if any) keeps serving.
            continue;
        }
        thread::sleep(Duration::from_millis(respawn_backoff_ms(
            &shared.cfg,
            streak,
        )));
        if let Some(entry) = workers.get_mut(slot) {
            *entry = Some(spawn_worker(shared, slot));
            respawns += 1;
            shared.metrics.record_worker_respawn();
        }
    }
    for handle in workers.iter_mut().filter_map(Option::take) {
        let _ = handle.join();
    }
}

/// Exponential restart backoff: `respawn_backoff_ms << (streak - 1)`,
/// capped at `respawn_backoff_cap_ms`.
fn respawn_backoff_ms(cfg: &ServeConfig, streak: u32) -> u64 {
    cfg.respawn_backoff_ms
        .saturating_mul(1u64 << streak.saturating_sub(1).min(16))
        .min(cfg.respawn_backoff_cap_ms)
}

/// Reports the job's fate to the reactor on every exit path, including
/// a handler panic unwinding through the worker: without this, a panic
/// would leave the connection dispatched forever (and leak the
/// open-connection gauge the reactor balances at close).
struct JobGuard<'a> {
    shared: &'a Shared,
    token: u64,
    generation: u64,
    completed: bool,
}

impl JobGuard<'_> {
    fn complete(mut self, response: Response) {
        self.completed = true;
        push_completion(
            self.shared,
            Completion {
                token: self.token,
                generation: self.generation,
                response: Some(response),
            },
        );
    }
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            // The handler unwound: the peer never gets a response and
            // the reactor closes (and accounts) the connection.
            push_completion(
                self.shared,
                Completion {
                    token: self.token,
                    generation: self.generation,
                    response: None,
                },
            );
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = lock_jobs(shared);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // The timeout guards against a notify racing the park;
                // correctness only needs the flag re-check.
                let (guard, _timed_out) = shared
                    .available
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                jobs = guard;
            }
        };
        match job {
            Some(job) => {
                let Job {
                    token,
                    generation,
                    request,
                    queue_slot,
                } = job;
                // The job left the queue: balance the depth gauge now,
                // not when the (possibly long) render finishes.
                drop(queue_slot);
                let guard = JobGuard {
                    shared,
                    token,
                    generation,
                    completed: false,
                };
                let resp = shared.handler.respond(&request);
                guard.complete(resp);
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// Echoes the path back; the simplest possible application handler.
    struct Echo;
    impl Handler for Echo {
        fn respond(&self, req: &Request) -> Response {
            Response::text(200, format!("echo {}\n", req.path))
        }
    }

    #[test]
    fn serves_builtin_and_handler_routes_then_drains() {
        let metrics = Arc::new(Metrics::new());
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig::default(),
            Arc::new(Echo),
            Arc::clone(&metrics),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let health = client::http_get(&addr, "/healthz", 2_000).unwrap();
        assert_eq!(
            (health.status, health.body.as_slice()),
            (200, b"ok\n".as_slice())
        );
        let echoed = client::http_get(&addr, "/some/app/path", 2_000).unwrap();
        assert_eq!(echoed.status, 200);
        assert_eq!(echoed.body, b"echo /some/app/path\n");
        let metrics_page = client::http_get(&addr, "/metrics", 2_000).unwrap();
        assert!(String::from_utf8_lossy(&metrics_page.body)
            .contains("dynamips_serve_requests_total{code=\"200\"}"));
        let bye = client::http_get(&addr, "/shutdown", 2_000).unwrap();
        assert_eq!(bye.status, 200);
        let summary = server.join();
        assert!(summary.served >= 4, "{summary:?}");
        assert_eq!(summary.rejected, 0);
    }

    #[test]
    fn non_get_is_405_and_shutdown_handle_drains_without_traffic() {
        let metrics = Arc::new(Metrics::new());
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig::default(),
            Arc::new(Echo),
            Arc::clone(&metrics),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let resp = client::http_send(&addr, "POST", "/", "", 2_000).unwrap();
        assert_eq!(resp.status, 405);
        let handle = server.shutdown_handle();
        assert!(!handle.is_shutting_down());
        handle.begin_shutdown();
        assert!(handle.is_shutting_down());
        let summary = server.join();
        assert_eq!(summary.rejected, 0);
        assert_eq!(summary.served, 1);
    }
}
