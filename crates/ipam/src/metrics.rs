//! Lock-free counters and gauges for the allocator, plus the
//! [`ActiveLease`] RAII guard that keeps `leases_active` honest.
//!
//! The `leases_active` gauge only moves through its two private
//! wrappers (`lease_opened` / `lease_closed`), which only the guard
//! calls, and the decrement side lives in [`ActiveLease`]'s `Drop` — the
//! same guard-balances-the-gauge shape as `serve::metrics::GaugeGuard`.
//! Every lease record owns a guard, so however a lease ends (explicit
//! release, expiry sweep, table drop), the gauge falls with it.
//!
//! Free-space and fragmentation gauges are *derived* from pool state at
//! render time rather than mirrored here: the pools already know their
//! exact counts under the shard lock, and a second copy would be one
//! more thing to keep conserved.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic counters and the live-lease gauge.
#[derive(Debug, Default)]
pub struct IpamMetrics {
    /// Gauge: leases currently live (guard-balanced).
    leases_active: AtomicU64,
    /// Leases granted since start.
    granted_total: AtomicU64,
    /// Renewals honored since start.
    renewed_total: AtomicU64,
    /// Explicit releases since start.
    released_total: AtomicU64,
    /// Expiry reclamations since start.
    expired_total: AtomicU64,
    /// Grants refused for lack of free space.
    exhausted_total: AtomicU64,
}

impl IpamMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> IpamMetrics {
        IpamMetrics::default()
    }

    /// Wrapper (inc side) for the `leases_active` gauge; only
    /// [`ActiveLease::register`] calls this.
    fn lease_opened(&self) {
        self.leases_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Wrapper (dec side) for the `leases_active` gauge; only
    /// [`ActiveLease`]'s `Drop` calls this.
    fn lease_closed(&self) {
        self.leases_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value of the `leases_active` gauge.
    pub fn active_leases(&self) -> u64 {
        self.leases_active.load(Ordering::Relaxed)
    }

    /// Count one grant.
    pub fn note_granted(&self) {
        self.granted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one renewal.
    pub fn note_renewed(&self) {
        self.renewed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one explicit release.
    pub fn note_released(&self) {
        self.released_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` expiry reclamations.
    pub fn note_expired(&self, n: u64) {
        self.expired_total.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one exhausted-pool refusal.
    pub fn note_exhausted(&self) {
        self.exhausted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Leases granted since start.
    pub fn granted(&self) -> u64 {
        self.granted_total.load(Ordering::Relaxed)
    }

    /// Renewals honored since start.
    pub fn renewed(&self) -> u64 {
        self.renewed_total.load(Ordering::Relaxed)
    }

    /// Explicit releases since start.
    pub fn released(&self) -> u64 {
        self.released_total.load(Ordering::Relaxed)
    }

    /// Expiry reclamations since start.
    pub fn expired(&self) -> u64 {
        self.expired_total.load(Ordering::Relaxed)
    }

    /// Grants refused for lack of free space.
    pub fn exhausted(&self) -> u64 {
        self.exhausted_total.load(Ordering::Relaxed)
    }
}

/// RAII guard for one live lease: registering bumps `leases_active`,
/// dropping decrements it. Owned by the lease record in the table, so
/// gauge and table can never drift.
#[derive(Debug)]
pub struct ActiveLease {
    metrics: Arc<IpamMetrics>,
}

impl ActiveLease {
    /// Open the gauge for one lease.
    pub fn register(metrics: Arc<IpamMetrics>) -> ActiveLease {
        metrics.lease_opened();
        ActiveLease { metrics }
    }
}

impl Drop for ActiveLease {
    fn drop(&mut self) {
        self.metrics.lease_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_balances_the_gauge() {
        let metrics = Arc::new(IpamMetrics::new());
        assert_eq!(metrics.active_leases(), 0);
        let a = ActiveLease::register(Arc::clone(&metrics));
        let b = ActiveLease::register(Arc::clone(&metrics));
        assert_eq!(metrics.active_leases(), 2);
        drop(a);
        assert_eq!(metrics.active_leases(), 1);
        drop(b);
        assert_eq!(metrics.active_leases(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let metrics = IpamMetrics::new();
        metrics.note_granted();
        metrics.note_granted();
        metrics.note_renewed();
        metrics.note_released();
        metrics.note_expired(3);
        metrics.note_exhausted();
        assert_eq!(metrics.granted(), 2);
        assert_eq!(metrics.renewed(), 1);
        assert_eq!(metrics.released(), 1);
        assert_eq!(metrics.expired(), 3);
        assert_eq!(metrics.exhausted(), 1);
    }
}
