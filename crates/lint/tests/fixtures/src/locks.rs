//! Fixture: the concurrency-safety pass. An ABBA lock inversion split
//! across a call boundary (no single function sees both orders), a guard
//! held across a blocking socket write, a blocking sink on a reactor
//! path (`reactor_loop` is this corpus's declared reactor entry), a
//! `Condvar::wait` outside a loop.
//! Expected: lock-order x1, lock-across-blocking x1,
//! blocking-in-reactor x1, condvar-wait-loop x1.
//! A zero-argument `Child::wait()` outside a loop is not a condvar wait
//! and must yield nothing.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};

pub struct Shared {
    a: Mutex<u32>,
    b: Mutex<u32>,
    cv: Condvar,
}

// One thread runs a-then-b, another b-then-a; each function on its own
// looks fine — only the propagated held-lock sets expose the cycle.
pub fn ab_path(s: &Shared) {
    let _ga = s.a.lock().unwrap();
    take_b(s);
}

fn take_b(s: &Shared) {
    let _gb = s.b.lock().unwrap();
}

pub fn ba_path(s: &Shared) {
    let _gb = s.b.lock().unwrap();
    take_a(s);
}

fn take_a(s: &Shared) {
    let _ga = s.a.lock().unwrap();
}

// The guard stays live across a write that can park on a full socket
// buffer.
pub fn flush_under_lock(s: &Shared, stream: &mut TcpStream) {
    let _ga = s.a.lock().unwrap();
    let _ = stream.write_all(b"x");
}

// This corpus's event loop: `dispatch` hides a sleep two calls away.
// It takes `impl FnMut`, which the collector must not mistake for an
// impl block and drop from the graph.
pub fn reactor_loop() {
    loop {
        poll_once();
        dispatch(|_| ());
    }
}

fn poll_once() {}

fn dispatch(mut on_event: impl FnMut(u32)) {
    on_event(1);
    backoff();
}

fn backoff() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

// Spurious wakeups: the predicate is never re-checked.
pub fn naked_wait(s: &Shared) {
    let guard = s.a.lock().unwrap();
    let _guard = s.cv.wait(guard).unwrap();
}

// Reaping a child process: `wait()` takes no guard, so no finding.
pub fn reap(child: &mut std::process::Child) {
    let _ = child.wait();
}
