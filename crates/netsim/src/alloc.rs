//! Pool index allocators.
//!
//! A DHCP/RADIUS server or DHCPv6-PD server owns a pool of addresses or
//! delegatable prefixes (see `dynamips_netaddr::pool` for the index ↔
//! address mapping); the allocator decides *which* free index a returning
//! subscriber receives. The two behaviours that matter for the paper's
//! findings are:
//!
//! * **sticky** servers remember previous bindings (typical for DHCP with
//!   persistent lease databases) — a subscriber that re-attaches within the
//!   memory window gets the same address back, producing the long, stable
//!   assignments the paper sees on Comcast-like networks;
//! * **non-sticky** servers hand out an arbitrary free index (typical for
//!   RADIUS, which "does not maintain state about previously assigned
//!   addresses") — every reconnect renumbers, producing the 24-hour /
//!   1-week / 2-week periodic patterns of DTAG, Orange and BT.

use rand::Rng;
#[allow(
    clippy::disallowed_types,
    reason = "keyed get/insert/remove only; never iterated"
)]
use std::collections::HashMap;

/// Tracks which indices of a pool of `capacity` elements are in use, and
/// optionally remembers the last index bound to each client.
#[derive(Debug, Clone)]
pub(crate) struct IndexAllocator {
    capacity: u64,
    in_use: Vec<bool>,
    used: u64,
    /// Last known binding per client id, consulted only by
    /// [`IndexAllocator::acquire_sticky`].
    #[allow(
        clippy::disallowed_types,
        reason = "keyed get/insert/remove only; never iterated"
    )]
    bindings: HashMap<u64, u64>,
    cursor: u64,
}

impl IndexAllocator {
    /// Create an allocator over `capacity` indices. Capacities are clamped
    /// to 2^24 slots of occupancy bitmap; pools larger than that (e.g. the
    /// 2^16+ delegations of a /40) never see enough simulated subscribers to
    /// collide, so larger pools are tracked sparsely via the bindings map
    /// alone and random acquisition.
    pub fn new(capacity: u64) -> Self {
        let dense = capacity.min(1 << 24);
        IndexAllocator {
            capacity,
            in_use: vec![false; dense as usize],
            used: 0,
            #[allow(
                clippy::disallowed_types,
                reason = "keyed get/insert/remove only; never iterated"
            )]
            bindings: HashMap::new(),
            cursor: 0,
        }
    }

    /// Number of currently allocated indices (within the dense range).
    #[cfg(test)]
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    fn dense_len(&self) -> u64 {
        self.in_use.len() as u64
    }

    /// Acquire a specific index if free. Returns whether it was granted.
    pub(crate) fn acquire_exact(&mut self, client: u64, index: u64) -> bool {
        if index >= self.capacity {
            return false;
        }
        if index < self.dense_len() {
            if self.in_use[index as usize] {
                return false;
            }
            self.in_use[index as usize] = true;
            self.used += 1;
        }
        self.bindings.insert(client, index);
        true
    }

    /// Sticky acquisition: return the client's previous index if it is still
    /// free, otherwise fall back to [`IndexAllocator::acquire_any`].
    pub(crate) fn acquire_sticky<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        client: u64,
    ) -> Option<u64> {
        if let Some(prev) = self.bindings.get(&client).copied() {
            if self.acquire_exact(client, prev) {
                return Some(prev);
            }
        }
        self.acquire_any(rng, client)
    }

    /// Non-sticky acquisition: pick an arbitrary free index, avoiding the
    /// client's previous one when the pool has alternatives (a renumbering
    /// server virtually never re-issues the address it just reclaimed).
    pub(crate) fn acquire_any<R: Rng + ?Sized>(&mut self, rng: &mut R, client: u64) -> Option<u64> {
        if self.used >= self.dense_len() && self.capacity <= self.dense_len() {
            return None;
        }
        let prev = self.bindings.get(&client).copied();
        // Random probing: at the occupancies we simulate (well under 50%)
        // this terminates almost immediately; fall back to a linear sweep
        // for pathological occupancy.
        for _ in 0..64 {
            let idx = rng.gen_range(0..self.capacity);
            if Some(idx) == prev && self.capacity > 1 {
                continue;
            }
            if idx >= self.dense_len() || !self.in_use[idx as usize] {
                return self.commit(client, idx);
            }
        }
        let start = self.cursor;
        for off in 0..self.dense_len() {
            let idx = (start + off) % self.dense_len();
            if !self.in_use[idx as usize] && Some(idx) != prev {
                self.cursor = idx + 1;
                return self.commit(client, idx);
            }
        }
        // Only the previous index is left.
        prev.filter(|&p| p < self.dense_len() && !self.in_use[p as usize])
            .and_then(|p| self.commit(client, p))
    }

    fn commit(&mut self, client: u64, index: u64) -> Option<u64> {
        if index < self.dense_len() {
            debug_assert!(!self.in_use[index as usize]);
            self.in_use[index as usize] = true;
            self.used += 1;
        }
        self.bindings.insert(client, index);
        Some(index)
    }

    /// Spatially local acquisition: pick a free index within `radius` of
    /// `prev`, excluding `prev` itself — the behaviour of sequential DHCP
    /// allocators that re-issue a nearby address from the same segment
    /// (this is what keeps half of Comcast's observed IPv4 changes inside
    /// the same /24 in the paper's Table 2). Falls back to
    /// [`IndexAllocator::acquire_any`] when no nearby index is free.
    pub(crate) fn acquire_near<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        client: u64,
        prev: u64,
        radius: u64,
    ) -> Option<u64> {
        let radius = radius.max(1);
        let lo = prev.saturating_sub(radius);
        let hi = (prev + radius).min(self.capacity.saturating_sub(1));
        if hi > lo {
            for _ in 0..32 {
                let idx = rng.gen_range(lo..=hi);
                if idx == prev {
                    continue;
                }
                if idx >= self.dense_len() || !self.in_use[idx as usize] {
                    return self.commit(client, idx);
                }
            }
        }
        self.acquire_any(rng, client)
    }

    /// Release an index back to the pool. The client's binding memory is
    /// retained (that is the point of stickiness); call
    /// [`IndexAllocator::forget`] to drop it.
    pub(crate) fn release(&mut self, index: u64) {
        if index < self.dense_len() && self.in_use[index as usize] {
            self.in_use[index as usize] = false;
            self.used -= 1;
        }
    }

    /// Drop the binding memory for a client (server lost state — e.g. the
    /// infrastructure outages of Section 2.2).
    pub(crate) fn forget(&mut self, client: u64) {
        self.bindings.remove(&client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngutil::derive_rng;

    #[test]
    fn exact_acquire_and_conflict() {
        let mut a = IndexAllocator::new(10);
        assert!(a.acquire_exact(1, 3));
        assert!(!a.acquire_exact(2, 3), "index already held");
        assert!(!a.acquire_exact(2, 10), "out of range");
        assert_eq!(a.used(), 1);
    }

    #[test]
    fn sticky_returns_previous_after_release() {
        let mut rng = derive_rng(1, 0);
        let mut a = IndexAllocator::new(100);
        let first = a.acquire_sticky(&mut rng, 7).unwrap();
        a.release(first);
        let second = a.acquire_sticky(&mut rng, 7).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn sticky_falls_back_when_taken() {
        let mut rng = derive_rng(1, 1);
        let mut a = IndexAllocator::new(100);
        let first = a.acquire_sticky(&mut rng, 7).unwrap();
        a.release(first);
        assert!(a.acquire_exact(8, first));
        let second = a.acquire_sticky(&mut rng, 7).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn non_sticky_avoids_previous_index() {
        let mut rng = derive_rng(1, 2);
        let mut a = IndexAllocator::new(1000);
        for _ in 0..100 {
            let first = a.acquire_any(&mut rng, 7).unwrap();
            a.release(first);
            let second = a.acquire_any(&mut rng, 7).unwrap();
            assert_ne!(first, second);
            a.release(second);
        }
    }

    #[test]
    fn forget_breaks_stickiness_memory() {
        let mut rng = derive_rng(1, 3);
        let mut a = IndexAllocator::new(1 << 20);
        let first = a.acquire_sticky(&mut rng, 7).unwrap();
        a.release(first);
        a.forget(7);
        // With 2^20 indices the chance of randomly landing on the same one
        // is negligible.
        let second = a.acquire_sticky(&mut rng, 7).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut rng = derive_rng(1, 4);
        let mut a = IndexAllocator::new(3);
        let mut held = Vec::new();
        for c in 0..3 {
            held.push(a.acquire_any(&mut rng, c).unwrap());
        }
        held.sort_unstable();
        assert_eq!(held, vec![0, 1, 2], "all three handed out exactly once");
        assert_eq!(a.acquire_any(&mut rng, 9), None);
    }

    #[test]
    fn full_pool_can_reissue_previous_as_last_resort() {
        let mut rng = derive_rng(1, 5);
        let mut a = IndexAllocator::new(1);
        let first = a.acquire_any(&mut rng, 7).unwrap();
        a.release(first);
        // Only one index exists; the client must get it again.
        assert_eq!(a.acquire_any(&mut rng, 7), Some(first));
    }

    #[test]
    fn huge_pools_allocate_sparsely() {
        let mut rng = derive_rng(1, 6);
        // A /40 of /56s has 2^16 elements; a /32 of /56s has 2^24; an entire
        // /19 of /56s has 2^37 — beyond the dense bitmap.
        let mut a = IndexAllocator::new(1 << 37);
        let idx = a.acquire_any(&mut rng, 1).unwrap();
        assert!(idx < (1 << 37));
        a.release(idx); // must not panic
    }

    #[test]
    fn near_acquisition_stays_within_radius() {
        let mut rng = derive_rng(1, 7);
        let mut a = IndexAllocator::new(1 << 16);
        for _ in 0..200 {
            let idx = a.acquire_near(&mut rng, 3, 1000, 128).unwrap();
            assert!((872..=1128).contains(&idx), "{idx}");
            assert_ne!(idx, 1000);
            a.release(idx);
        }
    }

    #[test]
    fn near_acquisition_falls_back_when_neighborhood_full() {
        let mut rng = derive_rng(1, 8);
        let mut a = IndexAllocator::new(1 << 12);
        // Fill the whole neighborhood of index 10.
        for (c, i) in (8..=12).enumerate() {
            assert!(a.acquire_exact(c as u64, i));
        }
        let idx = a.acquire_near(&mut rng, 99, 10, 2).unwrap();
        assert!(!(8..=12).contains(&idx), "fell back outside: {idx}");
    }

    #[test]
    fn near_acquisition_clamps_at_pool_edges() {
        let mut rng = derive_rng(1, 9);
        let mut a = IndexAllocator::new(100);
        for _ in 0..50 {
            let idx = a.acquire_near(&mut rng, 3, 0, 10).unwrap();
            assert!(idx <= 10 && idx != 0);
            a.release(idx);
            let idx = a.acquire_near(&mut rng, 3, 99, 10).unwrap();
            assert!(idx >= 89 && idx != 99);
            a.release(idx);
        }
    }

    #[test]
    fn release_of_unheld_index_is_noop() {
        let mut a = IndexAllocator::new(10);
        a.release(5);
        assert_eq!(a.used(), 0);
    }
}
