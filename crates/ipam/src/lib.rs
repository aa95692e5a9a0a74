//! `dynamips-ipam` — a deterministic, concurrent IP address allocation
//! service over CIDR blocks.
//!
//! The paper *analyzes* address-assignment practices; this crate
//! *performs* them, so the same regimes the analyses measure (static
//! vs. dynamic pools, lease durations, churn) can be generated on
//! demand. The pieces:
//!
//! * [`buddy`] — a buddy-style free-space manager per location:
//!   fragmentation-aware splitting on allocate, XOR-buddy merging on
//!   release, each order's free list a sparse bitset of block starts.
//! * [`pool`] — named pools over `netaddr` blocks (IPv4 `/16`–`/32`
//!   addresses, IPv6 prefix delegation), with per-location sub-pools,
//!   exclusion lists, a standby grace period, and the conservation
//!   invariant (`free + leased + standby + excluded == capacity`).
//! * [`lease`] — the lease table: records in id order (binary search,
//!   tombstones, amortised compaction), simulated-tick lifetimes,
//!   renewal by generation bump, and expiry via a hashed timer wheel
//!   (the `serve::reactor` shape, re-keyed to ticks).
//! * [`metrics`] — lock-free counters plus the [`metrics::ActiveLease`]
//!   RAII guard that balances the `leases_active` gauge.
//! * [`Ipam`] — the sharded facade: per-shard mutexes (leaf locks,
//!   never nested, never held across blocking calls), striped lease
//!   ids, and audit entry points.
//!
//! Time never comes from the wall clock: a [`Tick`] is whatever the
//! driver (simulation or HTTP front end) says it is, which keeps every
//! allocation sequence replayable byte-for-byte. No structure depends on
//! hash order (`buddy` and `lease` deny `HashMap`/`HashSet`), and the
//! hot path renders nothing: grants and releases carry an [`Address`]
//! that formats itself only when displayed.

#![forbid(unsafe_code)]
// Panic-freedom: shipping code degrades instead of panicking (tests are
// exempt via clippy.toml), and library code renders to strings instead
// of printing. The shared levels come from the workspace `[lints]` table.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod buddy;
mod ipam;
pub mod lease;
pub mod metrics;
pub mod pool;

pub use ipam::{Grant, GrantRequest, Ipam, IpamConfig, LeaseInfo, Released, SweepReport};
pub use pool::{Address, PoolSpec, PoolStats};

use std::fmt;

/// A point in simulated time. Units are whatever the driver chooses
/// (the churn simulator uses hours); the allocator only compares and
/// adds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Everything that can go wrong inside the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpamError {
    /// A grant or stat named a pool that does not exist.
    UnknownPool(String),
    /// A renew/revoke named a lease that is not live.
    UnknownLease(u64),
    /// No pool had a free unit for the request.
    PoolExhausted,
    /// A pool spec or allocator config failed validation.
    InvalidConfig(String),
    /// An internal invariant broke (conservation, double free); the
    /// allocator's state can no longer be trusted.
    StateCorrupt(String),
}

impl fmt::Display for IpamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpamError::UnknownPool(name) => write!(f, "unknown pool {name:?}"),
            IpamError::UnknownLease(id) => write!(f, "unknown lease {id}"),
            IpamError::PoolExhausted => write!(f, "no free addresses in any eligible pool"),
            IpamError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            IpamError::StateCorrupt(msg) => write!(f, "allocator state corrupt: {msg}"),
        }
    }
}

impl std::error::Error for IpamError {}
