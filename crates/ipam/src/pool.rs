//! Pool configuration and runtime state: a named CIDR block, carved
//! into per-location buddy sub-pools, with exclusions and a grace
//! period.
//!
//! This is dynip's model: a pool belongs to a location (BRAS, city,
//! POP), released addresses sit in standby before they are handed out
//! again, and some indices (gateway, broadcast, infrastructure) are
//! excluded outright. IPv4 pools hand out single addresses from a
//! `/32`–`/16` block; IPv6 pools delegate fixed-length prefixes out of
//! a covering block via [`Ipv6PrefixPool`] (the paper's "/40 emerges as
//! a common size for dynamic address pools" regime).
//!
//! The conservation invariant lives here: at all times
//! `free + leased + standby + excluded == capacity`, where `free` is
//! counted by the buddy allocators and the other three by this module.
//! [`PoolState::check_conservation`] adds each location's free count to
//! the three counters; the sharded allocator calls it after every sweep.

use crate::buddy::BuddyAllocator;
use crate::IpamError;
use dynamips_netaddr::{Ipv4Pool, Ipv4Prefix, Ipv6Prefix, Ipv6PrefixPool};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One allocatable unit, rendered only when displayed: `a.b.c.d` or
/// `p:q::/len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Address {
    /// An IPv4 address.
    V4(Ipv4Addr),
    /// A delegated IPv6 prefix.
    V6(Ipv6Prefix),
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::V4(addr) => addr.fmt(f),
            Address::V6(prefix) => prefix.fmt(f),
        }
    }
}

/// The address family and index→address mapping of one pool.
#[derive(Debug, Clone, Copy)]
pub enum PoolKind {
    /// Individual IPv4 addresses out of one covering prefix.
    V4(Ipv4Pool),
    /// Fixed-length IPv6 prefix delegations out of one covering prefix.
    V6(Ipv6PrefixPool),
}

impl PoolKind {
    /// Number of allocatable units (addresses or delegated prefixes).
    pub fn capacity(&self) -> u64 {
        match self {
            PoolKind::V4(pool) => pool.capacity(),
            PoolKind::V6(pool) => pool.capacity(),
        }
    }

    /// The `index`-th unit, if the index is in range.
    pub fn address(&self, index: u64) -> Option<Address> {
        match self {
            PoolKind::V4(pool) => pool.address(index).ok().map(Address::V4),
            PoolKind::V6(pool) => pool.prefix(index).ok().map(Address::V6),
        }
    }
}

/// Static configuration of one pool.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// Pool name, unique within the allocator.
    pub name: String,
    /// Family and covering block.
    pub kind: PoolKind,
    /// Number of per-location sub-pools (power of two dividing the
    /// capacity); allocation prefers the hinted location.
    pub locations: u64,
    /// Excluded indices (gateway/broadcast/infrastructure), never
    /// handed out.
    pub excluded: Vec<u64>,
    /// Ticks a released address sits in standby before rejoining the
    /// free list.
    pub grace_ticks: u64,
}

impl PoolSpec {
    /// An IPv4 pool over `base` (`/16`–`/32`).
    pub fn v4(
        name: &str,
        base: Ipv4Prefix,
        locations: u64,
        excluded: Vec<u64>,
        grace_ticks: u64,
    ) -> Result<PoolSpec, IpamError> {
        if base.len() < 16 {
            return Err(IpamError::InvalidConfig(format!(
                "pool {name:?}: IPv4 pools span /16..=/32, got /{}",
                base.len()
            )));
        }
        PoolSpec::checked(PoolSpec {
            name: name.to_string(),
            kind: PoolKind::V4(Ipv4Pool::new(base)),
            locations,
            excluded,
            grace_ticks,
        })
    }

    /// An IPv6 delegation pool: `elem_len`-long prefixes out of `base`.
    pub fn v6(
        name: &str,
        base: Ipv6Prefix,
        elem_len: u8,
        locations: u64,
        excluded: Vec<u64>,
        grace_ticks: u64,
    ) -> Result<PoolSpec, IpamError> {
        if u32::from(elem_len).saturating_sub(u32::from(base.len())) > 32 {
            return Err(IpamError::InvalidConfig(format!(
                "pool {name:?}: delegation space /{}-in-/{} exceeds 2^32 prefixes",
                elem_len,
                base.len()
            )));
        }
        let pool = Ipv6PrefixPool::new(base, elem_len).map_err(|e| {
            IpamError::InvalidConfig(format!("pool {name:?}: bad delegation length: {e}"))
        })?;
        PoolSpec::checked(PoolSpec {
            name: name.to_string(),
            kind: PoolKind::V6(pool),
            locations,
            excluded,
            grace_ticks,
        })
    }

    fn checked(spec: PoolSpec) -> Result<PoolSpec, IpamError> {
        let capacity = spec.kind.capacity();
        if spec.name.is_empty() {
            return Err(IpamError::InvalidConfig("pool name is empty".to_string()));
        }
        if !spec.locations.is_power_of_two() || spec.locations > capacity {
            return Err(IpamError::InvalidConfig(format!(
                "pool {:?}: locations must be a power of two <= capacity {capacity}, got {}",
                spec.name, spec.locations
            )));
        }
        if let Some(bad) = spec.excluded.iter().find(|i| **i >= capacity) {
            return Err(IpamError::InvalidConfig(format!(
                "pool {:?}: excluded index {bad} out of range (capacity {capacity})",
                spec.name
            )));
        }
        Ok(spec)
    }
}

/// Point-in-time counters of one pool, for `/pools` and Prometheus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Pool name.
    pub name: String,
    /// Total allocatable units.
    pub capacity: u64,
    /// Units on the free lists.
    pub free: u64,
    /// Units held by live leases.
    pub leased: u64,
    /// Units in the post-release grace state.
    pub standby: u64,
    /// Units excluded at configuration time.
    pub excluded: u64,
    /// External fragmentation in permille (0 = one free block,
    /// →1000 = shattered), worst location.
    pub fragmentation_permille: u64,
    /// Per-location sub-pools.
    pub locations: u64,
}

/// Runtime state of one pool: one buddy allocator per location over
/// adjacent index spans, plus the leased/standby/excluded counters that
/// close the conservation equation.
#[derive(Debug)]
pub struct PoolState {
    spec: PoolSpec,
    /// The spec's name, shared with every grant and release.
    name: Arc<str>,
    /// `locations[l]` manages global indices
    /// `[l * loc_span, (l + 1) * loc_span)`.
    locations: Vec<BuddyAllocator>,
    loc_span: u64,
    leased: u64,
    standby: u64,
    excluded: u64,
}

impl PoolState {
    /// Build the runtime state: all space free, then exclusions carved
    /// out (duplicates are rejected as config errors).
    pub fn build(spec: PoolSpec) -> Result<PoolState, IpamError> {
        let capacity = spec.kind.capacity();
        let loc_span = capacity / spec.locations;
        let mut locations = Vec::with_capacity(spec.locations as usize);
        for _ in 0..spec.locations {
            match BuddyAllocator::new(loc_span) {
                Some(alloc) => locations.push(alloc),
                None => {
                    return Err(IpamError::InvalidConfig(format!(
                        "pool {:?}: location span {loc_span} is not a power of two",
                        spec.name
                    )))
                }
            }
        }
        let mut state = PoolState {
            name: Arc::from(spec.name.as_str()),
            spec,
            locations,
            loc_span,
            leased: 0,
            standby: 0,
            excluded: 0,
        };
        let excluded = state.spec.excluded.clone();
        for index in excluded {
            let (loc, local) = state.split_index(index);
            let claimed = state
                .locations
                .get_mut(loc)
                .map(|a| a.claim(local))
                .unwrap_or(false);
            if !claimed {
                return Err(IpamError::InvalidConfig(format!(
                    "pool {:?}: excluded index {index} duplicated or out of range",
                    state.spec.name
                )));
            }
            state.excluded += 1;
        }
        Ok(state)
    }

    /// The pool's static configuration.
    pub fn spec(&self) -> &PoolSpec {
        &self.spec
    }

    /// The pool's name, shared.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Units held by live leases.
    pub fn leased(&self) -> u64 {
        self.leased
    }

    fn split_index(&self, index: u64) -> (usize, u64) {
        ((index / self.loc_span) as usize, index % self.loc_span)
    }

    /// Allocate the deterministically-lowest free index, preferring the
    /// hinted location and scanning the rest in ascending wrap-around
    /// order. Returns the global index, or `None` when every location
    /// is exhausted.
    pub fn take(&mut self, location_hint: Option<u64>) -> Option<u64> {
        let n = self.locations.len() as u64;
        let start = location_hint.map(|h| h % n).unwrap_or(0);
        for step in 0..n {
            let loc = ((start + step) % n) as usize;
            if let Some(local) = self.locations.get_mut(loc).and_then(|a| a.take_lowest()) {
                self.leased += 1;
                return Some(loc as u64 * self.loc_span + local);
            }
        }
        None
    }

    /// Move a leased `index` into standby (grace period running).
    pub fn lease_to_standby(&mut self, index: u64) -> Result<(), IpamError> {
        if self.leased == 0 {
            return Err(self.corrupt(index, "lease->standby with zero leased"));
        }
        self.leased -= 1;
        self.standby += 1;
        Ok(())
    }

    /// Return a leased `index` straight to the free list (grace 0).
    pub fn lease_to_free(&mut self, index: u64) -> Result<(), IpamError> {
        if self.leased == 0 {
            return Err(self.corrupt(index, "lease->free with zero leased"));
        }
        self.leased -= 1;
        self.give_back(index)
    }

    /// End the grace period: `index` rejoins the free list and merges
    /// with its buddies.
    pub fn standby_to_free(&mut self, index: u64) -> Result<(), IpamError> {
        if self.standby == 0 {
            return Err(self.corrupt(index, "standby->free with zero standby"));
        }
        self.standby -= 1;
        self.give_back(index)
    }

    fn give_back(&mut self, index: u64) -> Result<(), IpamError> {
        let (loc, local) = self.split_index(index);
        let ok = self
            .locations
            .get_mut(loc)
            .map(|a| a.give_back(local))
            .unwrap_or(false);
        if ok {
            Ok(())
        } else {
            Err(self.corrupt(index, "released index was already free"))
        }
    }

    fn corrupt(&self, index: u64, what: &str) -> IpamError {
        IpamError::StateCorrupt(format!("pool {:?} index {index}: {what}", self.spec.name))
    }

    /// Whether `index` is currently on a free list (audit surface).
    pub fn index_is_free(&self, index: u64) -> bool {
        let (loc, local) = self.split_index(index);
        self.locations
            .get(loc)
            .map(|a| a.is_free(local))
            .unwrap_or(false)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> PoolStats {
        let free: u64 = self.locations.iter().map(|a| a.free_addrs()).sum();
        let fragmentation_permille = self
            .locations
            .iter()
            .map(|a| a.fragmentation_permille())
            .max()
            .unwrap_or(0);
        PoolStats {
            name: self.spec.name.clone(),
            capacity: self.spec.kind.capacity(),
            free,
            leased: self.leased,
            standby: self.standby,
            excluded: self.excluded,
            fragmentation_permille,
            locations: self.spec.locations,
        }
    }

    /// The conservation invariant: every unit is exactly one of
    /// free/leased/standby/excluded.
    pub fn check_conservation(&self) -> Result<(), IpamError> {
        let free: u64 = self.locations.iter().map(BuddyAllocator::free_addrs).sum();
        let capacity = self.spec.kind.capacity();
        let accounted = free + self.leased + self.standby + self.excluded;
        if accounted == capacity {
            Ok(())
        } else {
            Err(IpamError::StateCorrupt(format!(
                "pool {:?}: free {free} + leased {} + standby {} + excluded {} = {accounted} != capacity {capacity}",
                self.spec.name, self.leased, self.standby, self.excluded,
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        match s.parse() {
            Ok(p) => p,
            Err(e) => panic!("bad prefix {s}: {e:?}"),
        }
    }

    fn p6(s: &str) -> Ipv6Prefix {
        match s.parse() {
            Ok(p) => p,
            Err(e) => panic!("bad prefix {s}: {e:?}"),
        }
    }

    fn small_v4() -> PoolState {
        let spec = PoolSpec::v4("t", p4("10.1.0.0/28"), 2, vec![0, 15], 0).unwrap();
        PoolState::build(spec).unwrap()
    }

    #[test]
    fn spec_validation_rejects_bad_configs() {
        assert!(PoolSpec::v4("wide", p4("10.0.0.0/8"), 1, vec![], 0).is_err());
        assert!(PoolSpec::v4("locs", p4("10.1.0.0/28"), 3, vec![], 0).is_err());
        assert!(PoolSpec::v4("toomany", p4("10.1.0.0/28"), 32, vec![], 0).is_err());
        assert!(PoolSpec::v4("range", p4("10.1.0.0/28"), 2, vec![16], 0).is_err());
        assert!(PoolSpec::v4("", p4("10.1.0.0/28"), 2, vec![], 0).is_err());
        assert!(PoolSpec::v6("deleg", p6("2001:db8::/32"), 80, 1, vec![], 0).is_err());
        assert!(PoolSpec::v6("ok", p6("2001:db8::/40"), 56, 4, vec![], 2).is_ok());
    }

    #[test]
    fn duplicate_exclusions_are_config_errors() {
        let spec = PoolSpec::v4("dup", p4("10.1.0.0/28"), 1, vec![3, 3], 0).unwrap();
        assert!(PoolState::build(spec).is_err());
    }

    #[test]
    fn take_prefers_the_hinted_location() {
        let mut pool = small_v4();
        // Location 1 spans indices 8..16; excluding 15 leaves the
        // fragments {14} (order 0) and {12,13} (order 1), which best
        // fit consumes before the big block.
        assert_eq!(pool.take(Some(1)), Some(14));
        assert_eq!(pool.take(Some(1)), Some(12));
        // Location 0 spans 0..8; excluding 0 leaves the order-0 hole
        // at 1 as the smallest fragment.
        assert_eq!(pool.take(Some(0)), Some(1));
        assert_eq!(pool.take(None), Some(2));
        pool.check_conservation().unwrap();
    }

    #[test]
    fn exhausted_hint_spills_to_the_next_location() {
        let mut pool = small_v4();
        // Drain location 1 (7 usable: 8..15 minus excluded 15).
        for _ in 0..7 {
            assert!(pool.take(Some(1)).is_some());
        }
        // Hinting 1 now spills into location 0.
        assert_eq!(pool.take(Some(1)), Some(1));
        // 16 total - 2 excluded - 8 leased = 6 free.
        assert_eq!(pool.stats().free, 6);
        pool.check_conservation().unwrap();
    }

    #[test]
    fn lease_lifecycle_keeps_conservation() {
        let mut pool = small_v4();
        let a = pool.take(None).unwrap();
        let b = pool.take(None).unwrap();
        pool.lease_to_standby(a).unwrap();
        pool.check_conservation().unwrap();
        assert_eq!(pool.stats().standby, 1);
        pool.standby_to_free(a).unwrap();
        pool.lease_to_free(b).unwrap();
        pool.check_conservation().unwrap();
        let stats = pool.stats();
        assert_eq!((stats.leased, stats.standby), (0, 0));
        assert_eq!(stats.free, stats.capacity - stats.excluded);
    }

    #[test]
    fn corruption_is_reported_not_absorbed() {
        let mut pool = small_v4();
        assert!(pool.lease_to_free(1).is_err());
        let a = pool.take(None).unwrap();
        pool.lease_to_free(a).unwrap();
        assert!(pool.standby_to_free(a).is_err());
    }

    #[test]
    fn v6_pool_renders_delegated_prefixes() {
        let spec = PoolSpec::v6("d", p6("2001:db8::/40"), 56, 1, vec![], 0).unwrap();
        let mut pool = PoolState::build(spec).unwrap();
        let index = pool.take(None).unwrap();
        let address = pool.spec().kind.address(index).unwrap();
        assert_eq!(address.to_string(), "2001:db8::/56");
        assert!(pool.spec().kind.address(u64::MAX).is_none());
    }
}
