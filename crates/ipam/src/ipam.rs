//! The sharded allocator facade: pools spread round-robin over shards,
//! each shard a `Mutex<ShardState>` holding its pools and lease table.
//!
//! # Lock order
//!
//! Shard mutexes are *leaves*: every public method locks at most one
//! shard at a time and never calls anything blocking (I/O, sleeps,
//! channel waits) while a guard is held. Methods that visit several
//! shards ([`Ipam::advance_clock`], [`Ipam::pool_stats`],
//! [`Ipam::verify_conservation`]) take the guards strictly one at a
//! time in ascending shard order, releasing each before the next.
//! Metrics are lock-free atomics and may be touched with or without a
//! shard guard held.
//!
//! # Determinism
//!
//! Lease ids stripe across shards (`id = seq * shard_count + shard`),
//! so an id names its shard without a lookup. Within a shard nothing
//! depends on hash order: the lease table is an id-ordered column and
//! every buddy choice is the lowest free block of the smallest order,
//! so a single-threaded driver replaying the same call sequence gets
//! byte-identical allocations; concurrent drivers get per-shard
//! determinism with linearizable cross-shard interleaving.
//!
//! # Cost
//!
//! A grant, renewal or release does no rendering and no `String` work:
//! [`Grant`], [`Released`] and [`LeaseInfo`] carry the pool name as a
//! shared `Arc<str>` and the unit as a `Copy` [`Address`] that formats
//! itself only when displayed.

use crate::lease::{LeaseTable, NewLease};
use crate::metrics::{ActiveLease, IpamMetrics};
use crate::pool::{Address, PoolSpec, PoolState, PoolStats};
use crate::{IpamError, Tick};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Construction knobs for [`Ipam`].
#[derive(Debug, Clone, Copy)]
pub struct IpamConfig {
    /// Number of independently-locked shards (>= 1). Pools are
    /// assigned round-robin; more shards means less contention.
    pub shards: usize,
}

impl Default for IpamConfig {
    fn default() -> IpamConfig {
        IpamConfig { shards: 8 }
    }
}

/// One grant request.
#[derive(Debug, Clone, Copy)]
pub struct GrantRequest<'a> {
    /// Restrict to a named pool, or `None` for first-fit across all
    /// pools in configuration order.
    pub pool: Option<&'a str>,
    /// Preferred location sub-pool (wraps modulo the pool's location
    /// count); exhausted locations spill to the next in ascending
    /// order.
    pub location: Option<u64>,
    /// Opaque client identity, recorded on the lease.
    pub client: u64,
    /// Current simulated tick.
    pub now: Tick,
    /// Lease lifetime in ticks.
    pub lifetime: u64,
}

/// A granted lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// Lease id, unique for the allocator's lifetime.
    pub id: u64,
    /// Name of the pool the address came from.
    pub pool: Arc<str>,
    /// The address (`a.b.c.d`) or delegated prefix (`p::/len`).
    pub address: Address,
    /// Tick the lease expires unless renewed.
    pub expires_at: Tick,
}

/// A revoked lease: what was given back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Released {
    /// Name of the pool the address returns to.
    pub pool: Arc<str>,
    /// The address or prefix.
    pub address: Address,
    /// Whether the address entered the standby (grace) state instead
    /// of the free list.
    pub standby: bool,
}

/// A live lease, described (for `GET /leases/<id>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Pool name.
    pub pool: Arc<str>,
    /// The address or prefix.
    pub address: Address,
    /// Client identity recorded at grant time.
    pub client: u64,
    /// Tick the lease was granted.
    pub granted_at: Tick,
    /// Tick the lease expires.
    pub expires_at: Tick,
}

/// What one [`Ipam::advance_clock`] sweep reclaimed, summed over shards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Leases that expired this sweep.
    pub expired: u64,
    /// Addresses whose grace period ended and rejoined the free list.
    pub freed: u64,
}

/// Where a pool lives: which shard, and at which index inside it.
#[derive(Debug)]
struct DirEntry {
    name: Arc<str>,
    shard: usize,
    local: usize,
}

/// Everything one shard owns. The lease table and the pools move
/// together under one guard, so a grant's pool take and lease insert
/// are atomic with respect to sweeps.
#[derive(Debug)]
struct ShardState {
    pools: Vec<PoolState>,
    lease_table: LeaseTable,
    next_seq: u64,
}

/// The concurrent, deterministic allocator. See the module docs for
/// the lock order and determinism contract.
#[derive(Debug)]
pub struct Ipam {
    shards: Vec<Mutex<ShardState>>,
    metrics: Arc<IpamMetrics>,
    /// Pools in configuration order.
    directory: Vec<DirEntry>,
    by_name: BTreeMap<Arc<str>, usize>,
    /// Highest tick any sweep has reached (observability only).
    clock: AtomicU64,
}

impl Ipam {
    /// Build an allocator over `specs`, assigned round-robin to
    /// `cfg.shards` shards. Pool names must be unique.
    pub fn build(cfg: IpamConfig, specs: Vec<PoolSpec>) -> Result<Ipam, IpamError> {
        if cfg.shards == 0 {
            return Err(IpamError::InvalidConfig(
                "shard count must be at least 1".to_string(),
            ));
        }
        if specs.is_empty() {
            return Err(IpamError::InvalidConfig(
                "at least one pool is required".to_string(),
            ));
        }
        let mut shard_pools: Vec<Vec<PoolState>> = (0..cfg.shards).map(|_| Vec::new()).collect();
        let mut directory = Vec::with_capacity(specs.len());
        let mut by_name = BTreeMap::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let shard = i % cfg.shards;
            let state = PoolState::build(spec)?;
            let name = Arc::clone(state.name());
            let local = shard_pools.get(shard).map(|v| v.len()).unwrap_or(0);
            if let Some(bucket) = shard_pools.get_mut(shard) {
                bucket.push(state);
            }
            if by_name.insert(Arc::clone(&name), directory.len()).is_some() {
                return Err(IpamError::InvalidConfig(format!(
                    "duplicate pool name {name:?}"
                )));
            }
            directory.push(DirEntry { name, shard, local });
        }
        let shards = shard_pools
            .into_iter()
            .map(|pools| {
                Mutex::new(ShardState {
                    pools,
                    lease_table: LeaseTable::new(),
                    next_seq: 1,
                })
            })
            .collect();
        Ok(Ipam {
            shards,
            metrics: Arc::new(IpamMetrics::new()),
            directory,
            by_name,
            clock: AtomicU64::new(0),
        })
    }

    /// The allocator's metrics (shared, lock-free).
    pub fn metrics(&self) -> Arc<IpamMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Highest tick any sweep has reached.
    pub fn now(&self) -> Tick {
        Tick(self.clock.load(Ordering::Relaxed))
    }

    fn lock_shard(&self, shard: usize) -> Option<MutexGuard<'_, ShardState>> {
        self.shards
            .get(shard)
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Grant a lease. With a named pool this is a single-shard
    /// operation; without, pools are tried in configuration order
    /// (locking one shard at a time) until one has space.
    pub fn grant(&self, req: &GrantRequest<'_>) -> Result<Grant, IpamError> {
        let candidates = match req.pool {
            Some(name) => match self.by_name.get(name) {
                Some(&dir_idx) => dir_idx..dir_idx + 1,
                None => return Err(IpamError::UnknownPool(name.to_string())),
            },
            None => 0..self.directory.len(),
        };
        for dir_idx in candidates {
            let entry = match self.directory.get(dir_idx) {
                Some(entry) => entry,
                None => continue,
            };
            let mut state = match self.lock_shard(entry.shard) {
                Some(guard) => guard,
                None => continue,
            };
            let taken = state
                .pools
                .get_mut(entry.local)
                .and_then(|pool| pool.take(req.location));
            let index = match taken {
                Some(index) => index,
                None => continue,
            };
            let id = state
                .next_seq
                .saturating_mul(self.shards.len() as u64)
                .saturating_add(entry.shard as u64);
            state.next_seq += 1;
            let guard = ActiveLease::register(Arc::clone(&self.metrics));
            let expires_at = state.lease_table.acquire(
                NewLease {
                    id,
                    pool: entry.local,
                    index,
                    client: req.client,
                    now: req.now,
                    lifetime: req.lifetime,
                },
                guard,
            );
            let address = state
                .pools
                .get(entry.local)
                .and_then(|pool| pool.spec().kind.address(index))
                .ok_or_else(|| {
                    IpamError::StateCorrupt(format!(
                        "pool {:?}: granted index {index} is out of range",
                        entry.name
                    ))
                })?;
            self.metrics.note_granted();
            return Ok(Grant {
                id,
                pool: Arc::clone(&entry.name),
                address,
                expires_at,
            });
        }
        self.metrics.note_exhausted();
        Err(IpamError::PoolExhausted)
    }

    /// Which shard owns lease `id` (ids stripe across shards).
    fn shard_of(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Extend lease `id` to `now + lifetime`.
    pub fn renew(&self, id: u64, now: Tick, lifetime: u64) -> Result<Tick, IpamError> {
        let mut state = self
            .lock_shard(self.shard_of(id))
            .ok_or(IpamError::UnknownLease(id))?;
        let expires_at = state.lease_table.renew(id, now, lifetime)?;
        self.metrics.note_renewed();
        Ok(expires_at)
    }

    /// Revoke lease `id`. With a nonzero grace period the address
    /// enters standby and rejoins the free list `grace_ticks` later;
    /// otherwise it is free (and buddy-merged) immediately.
    pub fn revoke(&self, id: u64, now: Tick) -> Result<Released, IpamError> {
        let mut state = self
            .lock_shard(self.shard_of(id))
            .ok_or(IpamError::UnknownLease(id))?;
        let (pool_local, index) = state.lease_table.release(id)?;
        let (grace, pool_name, address) = match state.pools.get_mut(pool_local) {
            Some(pool) => {
                let grace = pool.spec().grace_ticks;
                let name = Arc::clone(pool.name());
                let address = pool.spec().kind.address(index).ok_or_else(|| {
                    IpamError::StateCorrupt(format!(
                        "lease {id} holds index {index} outside pool {name:?}"
                    ))
                })?;
                if grace > 0 {
                    pool.lease_to_standby(index)?;
                } else {
                    pool.lease_to_free(index)?;
                }
                (grace, name, address)
            }
            None => {
                return Err(IpamError::StateCorrupt(format!(
                    "lease {id} names missing pool slot {pool_local}"
                )))
            }
        };
        if grace > 0 {
            state
                .lease_table
                .push_standby(pool_local, index, Tick(now.0.saturating_add(grace)));
        }
        self.metrics.note_released();
        Ok(Released {
            pool: pool_name,
            address,
            standby: grace > 0,
        })
    }

    /// Describe live lease `id`.
    pub fn lease_info(&self, id: u64) -> Option<LeaseInfo> {
        let state = self.lock_shard(self.shard_of(id))?;
        let lease = state.lease_table.get(id)?;
        let pool = state.pools.get(lease.pool)?;
        Some(LeaseInfo {
            pool: Arc::clone(pool.name()),
            address: pool.spec().kind.address(lease.index)?,
            client: lease.client,
            granted_at: lease.granted_at,
            expires_at: lease.expires_at,
        })
    }

    /// Advance the simulated clock to `now` on every shard: expire
    /// overdue leases (into standby or straight to free, per pool
    /// grace), finish elapsed standby periods, and re-check the
    /// conservation invariant on every pool.
    pub fn advance_clock(&self, now: Tick) -> Result<SweepReport, IpamError> {
        self.clock.fetch_max(now.0, Ordering::Relaxed);
        let mut report = SweepReport::default();
        for shard in &self.shards {
            let mut state = shard.lock().unwrap_or_else(PoisonError::into_inner);
            let outcome = state.lease_table.sweep(now);
            for (pool_local, index, _lease_id) in outcome.expired {
                let grace = match state.pools.get_mut(pool_local) {
                    Some(pool) => {
                        let grace = pool.spec().grace_ticks;
                        if grace > 0 {
                            pool.lease_to_standby(index)?;
                        } else {
                            pool.lease_to_free(index)?;
                        }
                        grace
                    }
                    None => {
                        return Err(IpamError::StateCorrupt(format!(
                            "expired lease names missing pool slot {pool_local}"
                        )))
                    }
                };
                if grace > 0 {
                    state.lease_table.push_standby(
                        pool_local,
                        index,
                        Tick(now.0.saturating_add(grace)),
                    );
                }
                report.expired += 1;
            }
            for (pool_local, index) in outcome.standby_done {
                match state.pools.get_mut(pool_local) {
                    Some(pool) => pool.standby_to_free(index)?,
                    None => {
                        return Err(IpamError::StateCorrupt(format!(
                            "standby entry names missing pool slot {pool_local}"
                        )))
                    }
                }
                report.freed += 1;
            }
            for pool in &state.pools {
                pool.check_conservation()?;
            }
        }
        self.metrics.note_expired(report.expired);
        Ok(report)
    }

    /// Point-in-time stats for every pool, in configuration order.
    pub fn pool_stats(&self) -> Vec<PoolStats> {
        let mut out: Vec<Option<PoolStats>> = self.directory.iter().map(|_| None).collect();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let state = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (dir_idx, entry) in self.directory.iter().enumerate() {
                if entry.shard != shard_idx {
                    continue;
                }
                if let (Some(slot), Some(pool)) =
                    (out.get_mut(dir_idx), state.pools.get(entry.local))
                {
                    *slot = Some(pool.stats());
                }
            }
        }
        out.into_iter().flatten().collect()
    }

    /// Cheap conservation check: every pool's counters close, and the
    /// lease tables agree with both the pool counters and the
    /// `leases_active` gauge.
    pub fn verify_conservation(&self) -> Result<(), IpamError> {
        let mut table_total: u64 = 0;
        let mut leased_total: u64 = 0;
        for shard in &self.shards {
            let state = shard.lock().unwrap_or_else(PoisonError::into_inner);
            table_total += state.lease_table.len() as u64;
            for pool in &state.pools {
                pool.check_conservation()?;
                leased_total += pool.leased();
            }
        }
        if table_total != leased_total {
            return Err(IpamError::StateCorrupt(format!(
                "lease tables hold {table_total} leases but pools count {leased_total} leased"
            )));
        }
        let gauge = self.metrics.active_leases();
        if gauge != table_total {
            return Err(IpamError::StateCorrupt(format!(
                "leases_active gauge {gauge} != live lease records {table_total}"
            )));
        }
        Ok(())
    }

    /// Expensive audit: recount leases per pool from the lease-table
    /// records and confirm no leased index sits on a free list.
    pub fn deep_audit(&self) -> Result<(), IpamError> {
        for shard in &self.shards {
            let state = shard.lock().unwrap_or_else(PoisonError::into_inner);
            let mut per_pool = vec![0u64; state.pools.len()];
            for (_id, pool_local, index) in state.lease_table.records() {
                if let Some(count) = per_pool.get_mut(pool_local) {
                    *count += 1;
                }
                let free = state
                    .pools
                    .get(pool_local)
                    .map(|p| p.index_is_free(index))
                    .unwrap_or(true);
                if free {
                    return Err(IpamError::StateCorrupt(format!(
                        "leased index {index} of pool slot {pool_local} is on a free list"
                    )));
                }
            }
            for (pool_local, pool) in state.pools.iter().enumerate() {
                let counted = per_pool.get(pool_local).copied().unwrap_or(0);
                let declared = pool.leased();
                if counted != declared {
                    return Err(IpamError::StateCorrupt(format!(
                        "pool {:?}: lease table counts {counted} leases, pool counters say {declared}",
                        pool.spec().name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Total live leases (from the guard-balanced gauge).
    pub fn live_leases(&self) -> u64 {
        self.metrics.active_leases()
    }

    /// Render the Prometheus exposition: the lease gauge and counters,
    /// plus per-pool free-space and fragmentation gauges derived from
    /// pool state.
    pub fn render_prometheus(&self) -> String {
        let stats = self.pool_stats();
        let m = &self.metrics;
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP dynamips_ipam_leases_active Live leases.\n");
        out.push_str("# TYPE dynamips_ipam_leases_active gauge\n");
        out.push_str(&format!(
            "dynamips_ipam_leases_active {}\n",
            m.active_leases()
        ));
        out.push_str("# HELP dynamips_ipam_pool_free_addrs Free units per pool.\n");
        out.push_str("# TYPE dynamips_ipam_pool_free_addrs gauge\n");
        for s in &stats {
            out.push_str(&format!(
                "dynamips_ipam_pool_free_addrs{{pool=\"{}\"}} {}\n",
                s.name, s.free
            ));
        }
        out.push_str(
            "# HELP dynamips_ipam_pool_fragmentation Free-space fragmentation, permille.\n",
        );
        out.push_str("# TYPE dynamips_ipam_pool_fragmentation gauge\n");
        for s in &stats {
            out.push_str(&format!(
                "dynamips_ipam_pool_fragmentation{{pool=\"{}\"}} {}\n",
                s.name, s.fragmentation_permille
            ));
        }
        for (name, value) in [
            ("granted_total", m.granted()),
            ("renewed_total", m.renewed()),
            ("released_total", m.released()),
            ("expired_total", m.expired()),
            ("exhausted_total", m.exhausted()),
        ] {
            out.push_str(&format!(
                "# TYPE dynamips_ipam_{name} counter\ndynamips_ipam_{name} {value}\n"
            ));
        }
        out.push_str("# TYPE dynamips_ipam_clock_tick gauge\n");
        out.push_str(&format!("dynamips_ipam_clock_tick {}\n", self.now().0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_netaddr::Ipv4Prefix;

    fn p4(s: &str) -> Ipv4Prefix {
        match s.parse() {
            Ok(p) => p,
            Err(e) => panic!("bad prefix {s}: {e:?}"),
        }
    }

    fn two_pool_ipam(grace: u64) -> Ipam {
        let specs = vec![
            PoolSpec::v4("a", p4("10.1.0.0/28"), 2, vec![0], grace).unwrap(),
            PoolSpec::v4("b", p4("10.2.0.0/28"), 1, vec![], grace).unwrap(),
        ];
        Ipam::build(IpamConfig { shards: 2 }, specs).unwrap()
    }

    fn req<'a>(pool: Option<&'a str>, now: u64, lifetime: u64) -> GrantRequest<'a> {
        GrantRequest {
            pool,
            location: None,
            client: 1,
            now: Tick(now),
            lifetime,
        }
    }

    #[test]
    fn grant_renew_revoke_round_trip() {
        let ipam = two_pool_ipam(0);
        let grant = ipam.grant(&req(Some("a"), 0, 4)).unwrap();
        assert_eq!(&*grant.pool, "a");
        assert_eq!(grant.address.to_string(), "10.1.0.1");
        assert_eq!(ipam.live_leases(), 1);
        assert_eq!(ipam.renew(grant.id, Tick(2), 4), Ok(Tick(6)));
        let released = ipam.revoke(grant.id, Tick(3)).unwrap();
        assert_eq!(released.address.to_string(), "10.1.0.1");
        assert!(!released.standby);
        assert_eq!(ipam.live_leases(), 0);
        ipam.verify_conservation().unwrap();
        // The freed address is immediately reusable.
        let again = ipam.grant(&req(Some("a"), 3, 4)).unwrap();
        assert_eq!(again.address.to_string(), "10.1.0.1");
    }

    #[test]
    fn unnamed_grant_falls_through_pools_in_order() {
        let ipam = two_pool_ipam(0);
        // Pool "a" has 15 usable; drain it.
        for _ in 0..15 {
            assert_eq!(&*ipam.grant(&req(None, 0, 8)).unwrap().pool, "a");
        }
        assert_eq!(&*ipam.grant(&req(None, 0, 8)).unwrap().pool, "b");
        ipam.verify_conservation().unwrap();
        ipam.deep_audit().unwrap();
    }

    #[test]
    fn exhaustion_is_an_error_and_counted() {
        let ipam = two_pool_ipam(0);
        for _ in 0..31 {
            ipam.grant(&req(None, 0, 8)).unwrap();
        }
        assert_eq!(ipam.grant(&req(None, 0, 8)), Err(IpamError::PoolExhausted));
        assert_eq!(ipam.metrics().exhausted(), 1);
        assert_eq!(
            ipam.grant(&req(Some("zzz"), 0, 8)),
            Err(IpamError::UnknownPool("zzz".to_string()))
        );
    }

    #[test]
    fn expiry_walks_standby_then_frees() {
        let ipam = two_pool_ipam(2);
        let grant = ipam.grant(&req(Some("a"), 0, 3)).unwrap();
        // Tick 3: lease expires into standby (grace 2 → free at 5).
        let report = ipam.advance_clock(Tick(3)).unwrap();
        assert_eq!(
            report,
            SweepReport {
                expired: 1,
                freed: 0
            }
        );
        assert_eq!(ipam.live_leases(), 0);
        let stats = ipam.pool_stats();
        assert_eq!(stats[0].standby, 1);
        assert!(ipam.lease_info(grant.id).is_none());
        // Tick 5: standby ends.
        let report = ipam.advance_clock(Tick(5)).unwrap();
        assert_eq!(
            report,
            SweepReport {
                expired: 0,
                freed: 1
            }
        );
        assert_eq!(ipam.pool_stats()[0].standby, 0);
        ipam.verify_conservation().unwrap();
    }

    #[test]
    fn renewal_defers_expiry() {
        let ipam = two_pool_ipam(0);
        let grant = ipam.grant(&req(Some("a"), 0, 3)).unwrap();
        ipam.renew(grant.id, Tick(2), 5).unwrap();
        let report = ipam.advance_clock(Tick(4)).unwrap();
        assert_eq!(report.expired, 0);
        assert!(ipam.lease_info(grant.id).is_some());
        let report = ipam.advance_clock(Tick(7)).unwrap();
        assert_eq!(report.expired, 1);
        assert!(ipam.lease_info(grant.id).is_none());
    }

    #[test]
    fn same_sequence_is_byte_identical() {
        let run = || -> Vec<String> {
            let ipam = two_pool_ipam(1);
            let mut out = Vec::new();
            let mut ids = Vec::new();
            for i in 0..20u64 {
                let g = ipam
                    .grant(&GrantRequest {
                        pool: None,
                        location: Some(i % 2),
                        client: i,
                        now: Tick(i),
                        lifetime: 5,
                    })
                    .unwrap();
                out.push(format!("{}={}", g.id, g.address));
                ids.push(g.id);
            }
            for id in ids.iter().step_by(3) {
                ipam.revoke(*id, Tick(20)).unwrap();
            }
            ipam.advance_clock(Tick(40)).unwrap();
            for i in 0..10u64 {
                let g = ipam.grant(&req(None, 41 + i, 5)).unwrap();
                out.push(format!("{}={}", g.id, g.address));
            }
            ipam.verify_conservation().unwrap();
            ipam.deep_audit().unwrap();
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn largest_legal_pool_grants_and_revokes() {
        // A /32 delegating /64s: 2^32 units, the widest pool a spec takes.
        let base = match "2001:db8::/32".parse() {
            Ok(p) => p,
            Err(e) => panic!("bad prefix: {e:?}"),
        };
        let spec = PoolSpec::v6("wide", base, 64, 1, vec![0, (1 << 32) - 1], 0).unwrap();
        let ipam = Ipam::build(IpamConfig { shards: 1 }, vec![spec]).unwrap();
        let grants: Vec<Grant> = (0..3)
            .map(|i| ipam.grant(&req(Some("wide"), i, 8)).unwrap())
            .collect();
        let addresses: Vec<String> = grants.iter().map(|g| g.address.to_string()).collect();
        // Best fit: the holes the two exclusions left at 1 and at
        // 2^32 - 2 go first, then the lowest split of the low half.
        assert_eq!(
            addresses,
            [
                "2001:db8:0:1::/64",
                "2001:db8:ffff:fffe::/64",
                "2001:db8:0:2::/64"
            ]
        );
        let released = ipam.revoke(grants[0].id, Tick(4)).unwrap();
        assert_eq!(released.address, grants[0].address);
        assert_eq!(&*released.pool, "wide");
        // Index 1 cannot merge with the excluded 0, so it is the lowest
        // order-0 hole again and is refilled first.
        let again = ipam.grant(&req(Some("wide"), 5, 8)).unwrap();
        assert_eq!(again.address, grants[0].address);
        let stats = &ipam.pool_stats()[0];
        assert_eq!(stats.capacity, 1 << 32);
        assert_eq!(stats.free, (1 << 32) - 2 - 3);
        ipam.verify_conservation().unwrap();
        ipam.deep_audit().unwrap();
        for g in [&grants[1], &grants[2], &again] {
            ipam.revoke(g.id, Tick(6)).unwrap();
        }
        assert_eq!(ipam.pool_stats()[0].free, (1 << 32) - 2);
        assert_eq!(ipam.live_leases(), 0);
    }

    #[test]
    fn prometheus_rendering_names_every_pool() {
        let ipam = two_pool_ipam(0);
        ipam.grant(&req(Some("b"), 0, 4)).unwrap();
        let text = ipam.render_prometheus();
        assert!(text.contains("dynamips_ipam_leases_active 1"));
        assert!(text.contains("dynamips_ipam_pool_free_addrs{pool=\"a\"} 15"));
        assert!(text.contains("dynamips_ipam_pool_free_addrs{pool=\"b\"} 15"));
        assert!(text.contains("dynamips_ipam_granted_total 1"));
    }
}
