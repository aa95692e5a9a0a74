//! Thin, dependency-free epoll wrapper for the serve reactor.
//!
//! The lint policy bans external crates, so readiness notification
//! talks to the kernel directly through four `extern "C"` bindings
//! (`epoll_create1` / `epoll_ctl` / `epoll_wait` / `close`) that libc
//! already exports into every Rust binary on Linux. This is the one
//! module in the workspace allowed to use `unsafe`: the crate root
//! `#![deny(unsafe_code)]` is overridden *per item* (never module-wide,
//! so each new unsafe site is an explicit, reviewed opt-out), the FFI
//! surface is four calls, and every entry point re-checks errno and
//! surfaces `io::Error` — nothing unsafe leaks past this file's
//! boundary. Every unsafe block carries a `// SAFETY:` comment, which
//! clippy's `undocumented_unsafe_blocks` (on for this crate) enforces,
//! and every per-item `#[allow(unsafe_code)]` states its reason.
//!
//! Level-triggered mode only: the reactor re-arms interest explicitly
//! per state transition, which keeps the state machine auditable (no
//! "did we consume the edge?" bookkeeping).

use std::io;
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Readiness: the fd has bytes to read (`EPOLLIN`).
const EPOLLIN: u32 = 0x001;
/// Readiness: the fd can accept writes (`EPOLLOUT`).
const EPOLLOUT: u32 = 0x004;
/// Readiness: the fd is in an error state (`EPOLLERR`).
const EPOLLERR: u32 = 0x008;
/// Readiness: the peer hung up (`EPOLLHUP`).
const EPOLLHUP: u32 = 0x010;
/// `epoll_ctl` op: register a new fd.
const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: deregister an fd.
const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change an fd's interest set.
const EPOLL_CTL_MOD: i32 = 3;
/// `epoll_create1` flag: close-on-exec.
const EPOLL_CLOEXEC: i32 = 0x80000;
/// errno for an interrupted syscall (retry).
const EINTR: i32 = 4;

/// Kernel `struct epoll_event`. On x86-64 the kernel ABI packs this to
/// 12 bytes; other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    // The kernel treats this as an opaque u64; we store the token.
    data: u64,
}

// SAFETY: these four signatures mirror the libc prototypes exactly
// (int fds/ops, pointer + length for the event buffer); libc links them
// into every Rust binary on Linux, so no extra linkage is declared.
#[allow(unsafe_code, reason = "the four epoll/close FFI bindings")]
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Which readiness the reactor wants to hear about for one fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Neither direction — registered, but only error/`EPOLLHUP` wakes
    /// (an RST or fully-shut peer; a clean FIN is silent until read
    /// interest returns). Used while a request is dispatched to a
    /// worker: the socket keeps no read interest, which is what gives
    /// pipelining clients TCP backpressure.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness event delivered by [`Poller::poll_events`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (or has pending data).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd errored or the peer hung up. The owning connection should
    /// attempt a final read (hangup often coexists with buffered bytes)
    /// and then close.
    pub hangup: bool,
}

/// An owned epoll instance. Dropping it closes the epoll fd; registered
/// fds are *not* closed (their owners hold them).
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Create a new epoll instance (close-on-exec).
    #[allow(unsafe_code, reason = "calls the epoll FFI; see the SAFETY comments")]
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flag word and returns an fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    #[allow(unsafe_code, reason = "calls the epoll FFI; see the SAFETY comments")]
    fn ctl(&self, op: i32, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event for the
        // duration of the call; DEL ignores the pointer on modern kernels
        // but a valid one is passed anyway.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given initial interest. Only
    /// [`Registration::register`] calls this.
    fn add(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest set of an already-registered `fd`. Only
    /// [`Registration::set_interest`] calls this.
    fn modify(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`. Only the [`Registration`] guard's `Drop` calls
    /// this.
    fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, Interest::NONE, 0)
    }

    /// Block for up to `timeout` waiting for readiness, appending events
    /// to `out` (cleared first). `EINTR` retries with the same timeout —
    /// the reactor's timer wheel tolerates a late tick.
    #[allow(unsafe_code, reason = "calls the epoll FFI; see the SAFETY comments")]
    pub fn poll_events(&self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        out.clear();
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let mut raw = [EpollEvent { events: 0, data: 0 }; 64];
        let n = loop {
            // SAFETY: `raw` outlives the call and maxevents matches its length.
            let rc =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                continue;
            }
            return Err(err);
        };
        for ev in raw.iter().take(n) {
            // Copy packed fields by value before use (no references into
            // a packed struct).
            let events = { ev.events };
            let data = { ev.data };
            out.push(PollEvent {
                token: data,
                readable: events & EPOLLIN != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    #[allow(unsafe_code, reason = "calls the epoll FFI; see the SAFETY comments")]
    fn drop(&mut self) {
        // SAFETY: epfd is a live fd owned exclusively by this Poller.
        let _ = unsafe { close(self.epfd) };
    }
}

/// An owned registration of one fd with a [`Poller`]: the interest-table
/// add happens at construction and the matching delete in `Drop`, so no
/// early return or error path can leave a dead fd registered. The raw
/// `add`/`modify`/`remove` are private to this module, so rustc rejects
/// any other code that tries to move a registration behind the guard.
pub struct Registration {
    /// The poller holding the registration (kept alive by the guard).
    poller: Arc<Poller>,
    /// The registered fd. The guard does not own the fd itself — only
    /// its slot in the interest table.
    fd: RawFd,
    /// The token readiness events for `fd` carry.
    token: u64,
    /// The interest currently installed.
    interest: Interest,
}

impl Registration {
    /// Register `fd` under `token`; the registration lasts until the
    /// guard drops.
    pub fn register(
        poller: &Arc<Poller>,
        fd: RawFd,
        interest: Interest,
        token: u64,
    ) -> io::Result<Registration> {
        poller.add(fd, interest, token)?;
        Ok(Registration {
            poller: Arc::clone(poller),
            fd,
            token,
            interest,
        })
    }

    /// Change the fd's interest set; a no-op when unchanged. On failure
    /// the previous interest stays installed and the error surfaces.
    pub fn set_interest(&mut self, interest: Interest) -> io::Result<()> {
        if interest == self.interest {
            return Ok(());
        }
        self.poller.modify(self.fd, interest, self.token)?;
        self.interest = interest;
        Ok(())
    }

    /// The interest currently installed for the fd.
    pub fn interest(&self) -> Interest {
        self.interest
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        // The owner may already have closed the fd (the kernel then
        // auto-removed it); a failed delete is not actionable.
        let _ = self.poller.remove(self.fd);
    }
}

/// Cross-thread wake-up handle for the reactor: writing one byte to the
/// send half makes the registered receive half readable. Built on
/// `UnixStream::pair`, so no extra unsafe beyond the epoll calls.
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Wake the reactor if it is parked in [`Poller::poll_events`]. A full pipe
    /// (`WouldBlock`) means a wake is already pending — success either way.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Build a `(Waker, receiver)` pair. The receiver should be registered
/// readable with the poller; [`drain_wake`] empties it on wake.
pub fn wake_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Drain all pending wake bytes from the receive half.
pub fn drain_wake(rx: &UnixStream) {
    use std::io::Read;
    let mut reader = rx;
    let mut buf = [0u8; 64];
    while matches!(reader.read(&mut buf), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_listener_and_stream_readiness() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(listener.as_raw_fd(), Interest::READ, 7).unwrap();

        let mut events = Vec::new();
        poller
            .poll_events(&mut events, Duration::from_millis(0))
            .unwrap();
        assert!(events.is_empty(), "no connection yet: {events:?}");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .poll_events(&mut events, Duration::from_millis(2000))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "{events:?}"
        );

        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller.add(accepted.as_raw_fd(), Interest::READ, 9).unwrap();
        client.write_all(b"ping").unwrap();
        poller
            .poll_events(&mut events, Duration::from_millis(2000))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.readable),
            "{events:?}"
        );

        // Interest::NONE: a clean peer close is silent (only an RST
        // would raise EPOLLHUP) — that silence is the TCP backpressure
        // the reactor relies on while a request is dispatched.
        poller
            .modify(accepted.as_raw_fd(), Interest::NONE, 9)
            .unwrap();
        drop(client);
        poller
            .poll_events(&mut events, Duration::from_millis(100))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == 9), "{events:?}");
        // Restoring read interest surfaces the buffered bytes/EOF.
        poller
            .modify(accepted.as_raw_fd(), Interest::READ, 9)
            .unwrap();
        poller
            .poll_events(&mut events, Duration::from_millis(2000))
            .unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.token == 9 && (e.readable || e.hangup)),
            "{events:?}"
        );
        poller.remove(accepted.as_raw_fd()).unwrap();
    }

    #[test]
    fn registration_guard_releases_the_slot_on_drop() {
        let poller = Arc::new(Poller::new().unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let fd = listener.as_raw_fd();
        let reg = Registration::register(&poller, fd, Interest::READ, 7).unwrap();
        assert_eq!(reg.interest(), Interest::READ);
        // The slot is taken: a second add of the same fd fails (EEXIST).
        assert!(Registration::register(&poller, fd, Interest::READ, 8).is_err());
        drop(reg);
        // Dropping released the slot: the fd registers cleanly again.
        let again = Registration::register(&poller, fd, Interest::NONE, 9).unwrap();
        let mut again = again;
        again.set_interest(Interest::READ).unwrap();
        assert_eq!(again.interest(), Interest::READ);
    }

    #[test]
    fn waker_unblocks_wait_and_drains() {
        let poller = Poller::new().unwrap();
        let (waker, rx) = wake_pair().unwrap();
        poller.add(rx.as_raw_fd(), Interest::READ, 1).unwrap();

        let mut events = Vec::new();
        waker.wake();
        waker.wake(); // coalesces, never blocks
        poller
            .poll_events(&mut events, Duration::from_millis(2000))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        drain_wake(&rx);
        poller
            .poll_events(&mut events, Duration::from_millis(0))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.token == 1 && e.readable),
            "drained: {events:?}"
        );
    }
}
