//! The lease table: who holds which address, until which tick.
//!
//! Time here is *simulated* — a [`Tick`] is whatever the driver says it
//! is (the churn simulator uses hours). Expiry is found with a hashed
//! timer wheel shaped like `serve::reactor`'s: arming pushes an entry
//! into `due % SLOTS` with its absolute due tick, and advancing the
//! wheel walks only the slots between the old and new tick, re-keeping
//! entries that belong to a later revolution. Renewals never unlink the
//! old entry; they bump the lease's generation so the stale entry is
//! ignored when it fires (the same generation trick the reactor's
//! deadline wheel uses).
//!
//! Two entry kinds share the wheel: lease expiries and standby-done
//! timers (the grace period between release and the address rejoining
//! the free list). Fired entries are handed back sorted by
//! `(due, arm-sequence)`, so sweep processing order is deterministic
//! regardless of how far the clock jumped.
//!
//! The records themselves sit in id order in two parallel columns, ids
//! and records, found by binary search. A shard's ids only grow, so a
//! grant appends; a release leaves a tombstone in place, and the columns
//! are compacted once tombstones outnumber a quarter of the live
//! records. The table therefore holds at most `live + live / 4` slots
//! of 64 bytes (an id and a record), and each compaction is paid for by
//! the releases that preceded it.

use crate::metrics::ActiveLease;
use crate::{IpamError, Tick};

/// Slot count of the expiry wheel. Advancing by one tick touches one
/// slot; jumps of `SLOTS` or more fall back to a single full scan.
const WHEEL_SLOTS: u64 = 512;

/// What fires when a wheel entry comes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WheelEntry {
    /// A lease reaches its `expires_at` tick. Stale generations (the
    /// lease was renewed or released since arming) are ignored.
    Expiry {
        /// Lease id the entry was armed for.
        lease_id: u64,
        /// Generation of the lease at arming time.
        generation: u64,
    },
    /// A standby (grace) period ends and the address may rejoin the
    /// free list.
    StandbyDone {
        /// Shard-local pool index.
        pool: usize,
        /// Address index within the pool.
        index: u64,
    },
}

/// One armed entry: absolute due tick plus an arm sequence number that
/// makes sweep order total and deterministic.
#[derive(Debug, Clone, Copy)]
struct Armed {
    due: u64,
    seq: u64,
    entry: WheelEntry,
}

/// A hashed timer wheel over simulated ticks.
#[derive(Debug)]
pub struct TickWheel {
    slots: Vec<Vec<Armed>>,
    /// Current tick: every entry with `due <= tick` has already fired.
    tick: u64,
    /// Monotonic arm counter, for deterministic fire order.
    seq: u64,
}

/// The empty wheel at tick 0, with all its slots: a wheel without slots
/// would drop every entry armed on it.
impl Default for TickWheel {
    fn default() -> TickWheel {
        TickWheel::new()
    }
}

impl TickWheel {
    /// An empty wheel at tick 0.
    pub fn new() -> TickWheel {
        TickWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            tick: 0,
            seq: 0,
        }
    }

    /// The wheel's current tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Arm `entry` to fire once the wheel advances to `due` (clamped to
    /// at least the next tick — the past cannot be armed).
    pub fn arm(&mut self, due: Tick, entry: WheelEntry) {
        let due = due.0.max(self.tick.saturating_add(1));
        let armed = Armed {
            due,
            seq: self.seq,
            entry,
        };
        self.seq += 1;
        if let Some(slot) = self.slots.get_mut((due % WHEEL_SLOTS) as usize) {
            slot.push(armed);
        }
    }

    /// Advance to `now`, returning every entry with `due <= now` in
    /// `(due, arm-sequence)` order. Entries hashed into a visited slot
    /// but due on a later revolution are kept.
    pub fn advance(&mut self, now: Tick) -> Vec<WheelEntry> {
        let now = now.0;
        if now <= self.tick {
            return Vec::new();
        }
        let mut fired: Vec<Armed> = Vec::new();
        // Move the due entries out of a slot in place, keeping its
        // later-revolution entries in arm order. A drained slot hands
        // its buffer back: it may stay empty for a whole revolution, and
        // a buffer kept per drained slot would hold every entry ever
        // armed until the wheel laps.
        let mut fire_due = |slot: &mut Vec<Armed>| {
            slot.retain(|armed| {
                let due = armed.due <= now;
                if due {
                    fired.push(*armed);
                }
                !due
            });
            if slot.is_empty() {
                *slot = Vec::new();
            }
        };
        if now - self.tick >= WHEEL_SLOTS {
            // The jump laps the wheel: every slot would be visited, so
            // scan each exactly once.
            self.slots.iter_mut().for_each(fire_due);
        } else {
            for t in (self.tick + 1)..=now {
                if let Some(slot) = self.slots.get_mut((t % WHEEL_SLOTS) as usize) {
                    fire_due(slot);
                }
            }
        }
        self.tick = now;
        fired.sort_by_key(|a| (a.due, a.seq));
        fired.into_iter().map(|a| a.entry).collect()
    }
}

/// One live lease.
#[derive(Debug)]
pub struct Lease {
    /// Shard-local pool index the address came from.
    pub pool: usize,
    /// Address index within the pool.
    pub index: u64,
    /// Opaque client identity (subscriber id).
    pub client: u64,
    /// Tick the lease was granted.
    pub granted_at: Tick,
    /// Tick the lease expires unless renewed.
    pub expires_at: Tick,
    /// Bumped on every renewal; stale wheel entries carry old values.
    generation: u64,
    /// RAII gauge guard: dropping the record decrements `leases_active`.
    _guard: ActiveLease,
}

/// Descriptor for a new lease record (everything but the gauge guard).
#[derive(Debug, Clone, Copy)]
pub struct NewLease {
    /// Fresh lease id (caller-assigned, unique per table).
    pub id: u64,
    /// Shard-local pool index.
    pub pool: usize,
    /// Address index within the pool.
    pub index: u64,
    /// Opaque client identity.
    pub client: u64,
    /// Current tick.
    pub now: Tick,
    /// Lifetime in ticks.
    pub lifetime: u64,
}

/// Everything a sweep reclaimed, in deterministic fire order.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Leases that expired: `(pool, index, lease_id)`.
    pub expired: Vec<(usize, u64, u64)>,
    /// Standby periods that ended: `(pool, index)` now free to merge.
    pub standby_done: Vec<(usize, u64)>,
}

/// The lease table of one shard: lease records in id order, plus the
/// expiry wheel. Lease ids are assigned by the caller and must be
/// unique per table (the sharded allocator guarantees this with a
/// striped sequence).
#[derive(Debug, Default)]
pub struct LeaseTable {
    /// Ascending lease ids, live and released alike.
    ids: Vec<u64>,
    /// `records[i]` is the lease for `ids[i]`, or `None` (a tombstone)
    /// once it was released or expired.
    records: Vec<Option<Lease>>,
    /// Number of `Some` entries in `records`.
    live: usize,
    wheel: TickWheel,
}

impl LeaseTable {
    /// An empty table at tick 0.
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    /// Number of live leases.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no leases.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The lease record for `id`, if live.
    pub fn get(&self, id: u64) -> Option<&Lease> {
        let at = self.ids.binary_search(&id).ok()?;
        self.records.get(at)?.as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Lease> {
        let at = self.ids.binary_search(&id).ok()?;
        self.records.get_mut(at)?.as_mut()
    }

    /// Take lease `id` out of the table, leaving a tombstone, and
    /// compact once tombstones exceed a quarter of the live records.
    fn remove(&mut self, id: u64) -> Option<Lease> {
        let at = self.ids.binary_search(&id).ok()?;
        let lease = self.records.get_mut(at)?.take()?;
        self.live -= 1;
        if (self.records.len() - self.live) * 4 > self.live {
            let mut live = self.records.iter().map(Option::is_some);
            self.ids.retain(|_| live.next().unwrap_or(false));
            self.records.retain(Option::is_some);
        }
        Some(lease)
    }

    /// Record a new lease and arm its expiry at `now + lifetime`.
    /// Returns the expiry tick. The id must be fresh; re-using a live
    /// id replaces the old record (and its gauge guard).
    pub fn acquire(&mut self, new: NewLease, guard: ActiveLease) -> Tick {
        let expires_at = Tick(new.now.0.saturating_add(new.lifetime));
        self.wheel.arm(
            expires_at,
            WheelEntry::Expiry {
                lease_id: new.id,
                generation: 0,
            },
        );
        let lease = Some(Lease {
            pool: new.pool,
            index: new.index,
            client: new.client,
            granted_at: new.now,
            expires_at,
            generation: 0,
            _guard: guard,
        });
        if self.ids.last().is_none_or(|last| *last < new.id) {
            self.ids.push(new.id);
            self.records.push(lease);
            self.live += 1;
            return expires_at;
        }
        match self.ids.binary_search(&new.id) {
            Ok(at) => {
                if let Some(slot) = self.records.get_mut(at) {
                    if slot.is_none() {
                        self.live += 1;
                    }
                    *slot = lease;
                }
            }
            Err(at) => {
                self.ids.insert(at, new.id);
                self.records.insert(at, lease);
                self.live += 1;
            }
        }
        expires_at
    }

    /// Extend lease `id` to `now + lifetime`, invalidating the old
    /// expiry entry via the generation bump.
    pub fn renew(&mut self, id: u64, now: Tick, lifetime: u64) -> Result<Tick, IpamError> {
        let lease = self.get_mut(id).ok_or(IpamError::UnknownLease(id))?;
        lease.generation += 1;
        lease.expires_at = Tick(now.0.saturating_add(lifetime));
        let generation = lease.generation;
        let expires_at = lease.expires_at;
        self.wheel.arm(
            expires_at,
            WheelEntry::Expiry {
                lease_id: id,
                generation,
            },
        );
        Ok(expires_at)
    }

    /// Remove lease `id`, returning its `(pool, index)` so the caller
    /// can run the standby/free transition. The record's gauge guard
    /// drops here. The armed expiry entry stays in the wheel and is
    /// ignored when it fires (the id is gone).
    pub fn release(&mut self, id: u64) -> Result<(usize, u64), IpamError> {
        let lease = self.remove(id).ok_or(IpamError::UnknownLease(id))?;
        Ok((lease.pool, lease.index))
    }

    /// Arm a standby-done timer: `(pool, index)` rejoins the free list
    /// when the wheel reaches `until`.
    pub fn push_standby(&mut self, pool: usize, index: u64, until: Tick) {
        self.wheel
            .arm(until, WheelEntry::StandbyDone { pool, index });
    }

    /// Advance the wheel to `now` and resolve everything that fired:
    /// stale-generation expiries are dropped, live ones remove their
    /// lease (dropping its gauge guard) and are reported for the
    /// pool-side transition.
    pub fn sweep(&mut self, now: Tick) -> SweepOutcome {
        let mut outcome = SweepOutcome::default();
        for entry in self.wheel.advance(now) {
            match entry {
                WheelEntry::Expiry {
                    lease_id,
                    generation,
                } => {
                    let live = self
                        .get(lease_id)
                        .is_some_and(|lease| lease.generation == generation);
                    if !live {
                        continue;
                    }
                    if let Some(lease) = self.remove(lease_id) {
                        outcome.expired.push((lease.pool, lease.index, lease_id));
                    }
                }
                WheelEntry::StandbyDone { pool, index } => {
                    outcome.standby_done.push((pool, index));
                }
            }
        }
        outcome
    }

    /// The wheel's current tick.
    pub fn tick(&self) -> u64 {
        self.wheel.tick()
    }

    /// Every live lease as `(id, pool, index)`, in id order — audit
    /// surface for the deep conservation recount.
    pub fn records(&self) -> impl Iterator<Item = (u64, usize, u64)> + '_ {
        self.ids
            .iter()
            .zip(&self.records)
            .filter_map(|(id, lease)| lease.as_ref().map(|l| (*id, l.pool, l.index)))
    }
}

#[cfg(test)]
mod oracle {
    //! The ordered-map lease table the id-ordered columns replaced, kept
    //! as the reference the lockstep test checks every call against.

    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Default)]
    pub struct TreeTable {
        leases: BTreeMap<u64, Lease>,
        wheel: TickWheel,
    }

    impl TreeTable {
        pub fn new() -> TreeTable {
            TreeTable {
                leases: BTreeMap::new(),
                wheel: TickWheel::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.leases.len()
        }

        pub fn get(&self, id: u64) -> Option<&Lease> {
            self.leases.get(&id)
        }

        pub fn acquire(&mut self, new: NewLease, guard: ActiveLease) -> Tick {
            let expires_at = Tick(new.now.0.saturating_add(new.lifetime));
            self.wheel.arm(
                expires_at,
                WheelEntry::Expiry {
                    lease_id: new.id,
                    generation: 0,
                },
            );
            self.leases.insert(
                new.id,
                Lease {
                    pool: new.pool,
                    index: new.index,
                    client: new.client,
                    granted_at: new.now,
                    expires_at,
                    generation: 0,
                    _guard: guard,
                },
            );
            expires_at
        }

        pub fn renew(&mut self, id: u64, now: Tick, lifetime: u64) -> Result<Tick, IpamError> {
            let lease = self
                .leases
                .get_mut(&id)
                .ok_or(IpamError::UnknownLease(id))?;
            lease.generation += 1;
            lease.expires_at = Tick(now.0.saturating_add(lifetime));
            let entry = WheelEntry::Expiry {
                lease_id: id,
                generation: lease.generation,
            };
            let expires_at = lease.expires_at;
            self.wheel.arm(expires_at, entry);
            Ok(expires_at)
        }

        pub fn release(&mut self, id: u64) -> Result<(usize, u64), IpamError> {
            let lease = self.leases.remove(&id).ok_or(IpamError::UnknownLease(id))?;
            Ok((lease.pool, lease.index))
        }

        pub fn push_standby(&mut self, pool: usize, index: u64, until: Tick) {
            self.wheel
                .arm(until, WheelEntry::StandbyDone { pool, index });
        }

        pub fn sweep(&mut self, now: Tick) -> SweepOutcome {
            let mut outcome = SweepOutcome::default();
            for entry in self.wheel.advance(now) {
                match entry {
                    WheelEntry::Expiry {
                        lease_id,
                        generation,
                    } => {
                        let stale = self
                            .leases
                            .get(&lease_id)
                            .is_none_or(|l| l.generation != generation);
                        if stale {
                            continue;
                        }
                        if let Some(lease) = self.leases.remove(&lease_id) {
                            outcome.expired.push((lease.pool, lease.index, lease_id));
                        }
                    }
                    WheelEntry::StandbyDone { pool, index } => {
                        outcome.standby_done.push((pool, index));
                    }
                }
            }
            outcome
        }

        pub fn records(&self) -> Vec<(u64, usize, u64)> {
            self.leases
                .iter()
                .map(|(id, lease)| (*id, lease.pool, lease.index))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::TreeTable;
    use super::*;
    use crate::metrics::IpamMetrics;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn guard(metrics: &Arc<IpamMetrics>) -> ActiveLease {
        ActiveLease::register(Arc::clone(metrics))
    }

    fn new_lease(id: u64, pool: usize, index: u64, now: u64, lifetime: u64) -> NewLease {
        NewLease {
            id,
            pool,
            index,
            client: 77,
            now: Tick(now),
            lifetime,
        }
    }

    #[test]
    fn wheel_fires_in_due_then_arm_order() {
        let mut wheel = TickWheel::new();
        wheel.arm(Tick(5), WheelEntry::StandbyDone { pool: 0, index: 50 });
        wheel.arm(Tick(3), WheelEntry::StandbyDone { pool: 0, index: 30 });
        wheel.arm(Tick(3), WheelEntry::StandbyDone { pool: 0, index: 31 });
        assert_eq!(wheel.advance(Tick(2)), Vec::new());
        let fired = wheel.advance(Tick(10));
        assert_eq!(
            fired,
            vec![
                WheelEntry::StandbyDone { pool: 0, index: 30 },
                WheelEntry::StandbyDone { pool: 0, index: 31 },
                WheelEntry::StandbyDone { pool: 0, index: 50 },
            ]
        );
    }

    #[test]
    fn wheel_keeps_later_revolution_entries() {
        let mut wheel = TickWheel::new();
        // Same slot (due differs by WHEEL_SLOTS), different revolutions.
        wheel.arm(Tick(4), WheelEntry::StandbyDone { pool: 0, index: 1 });
        wheel.arm(
            Tick(4 + WHEEL_SLOTS),
            WheelEntry::StandbyDone { pool: 0, index: 2 },
        );
        let first = wheel.advance(Tick(4));
        assert_eq!(first, vec![WheelEntry::StandbyDone { pool: 0, index: 1 }]);
        let second = wheel.advance(Tick(4 + WHEEL_SLOTS));
        assert_eq!(second, vec![WheelEntry::StandbyDone { pool: 0, index: 2 }]);
    }

    #[test]
    fn wheel_large_jump_matches_step_by_step() {
        let mut stepped = TickWheel::new();
        let mut jumped = TickWheel::new();
        for (due, index) in [(7u64, 0u64), (900, 1), (250, 2), (513, 3)] {
            stepped.arm(Tick(due), WheelEntry::StandbyDone { pool: 0, index });
            jumped.arm(Tick(due), WheelEntry::StandbyDone { pool: 0, index });
        }
        let mut fired_stepped = Vec::new();
        for t in 1..=1000u64 {
            fired_stepped.extend(stepped.advance(Tick(t)));
        }
        let fired_jumped = jumped.advance(Tick(1000));
        assert_eq!(fired_stepped, fired_jumped);
    }

    #[test]
    fn expiry_removes_the_lease_and_drops_the_guard() {
        let metrics = Arc::new(IpamMetrics::new());
        // `default()` must build the same working wheel as `new()`.
        let mut table = LeaseTable::default();
        let expires = table.acquire(new_lease(1, 0, 9, 0, 4), guard(&metrics));
        assert_eq!(expires, Tick(4));
        assert_eq!(metrics.active_leases(), 1);
        let early = table.sweep(Tick(3));
        assert!(early.expired.is_empty());
        let outcome = table.sweep(Tick(4));
        assert_eq!(outcome.expired, vec![(0, 9, 1)]);
        assert!(table.is_empty());
        assert_eq!(metrics.active_leases(), 0);
    }

    #[test]
    fn renewal_invalidates_the_old_expiry_entry() {
        let metrics = Arc::new(IpamMetrics::new());
        let mut table = LeaseTable::new();
        table.acquire(new_lease(1, 0, 9, 0, 4), guard(&metrics));
        assert_eq!(table.renew(1, Tick(2), 4), Ok(Tick(6)));
        // The original entry fires at 4 but is stale.
        assert!(table.sweep(Tick(4)).expired.is_empty());
        assert_eq!(table.get(1).map(|l| l.expires_at), Some(Tick(6)));
        let outcome = table.sweep(Tick(6));
        assert_eq!(outcome.expired, vec![(0, 9, 1)]);
        assert_eq!(table.renew(1, Tick(6), 4), Err(IpamError::UnknownLease(1)));
    }

    #[test]
    fn release_returns_the_slot_and_quiets_the_wheel() {
        let metrics = Arc::new(IpamMetrics::new());
        let mut table = LeaseTable::new();
        table.acquire(new_lease(1, 2, 9, 0, 4), guard(&metrics));
        assert_eq!(table.release(1), Ok((2, 9)));
        assert_eq!(metrics.active_leases(), 0);
        assert_eq!(table.release(1), Err(IpamError::UnknownLease(1)));
        // The stale expiry entry fires into the void.
        assert!(table.sweep(Tick(4)).expired.is_empty());
    }

    #[test]
    fn standby_timer_fires_at_its_tick() {
        let metrics = Arc::new(IpamMetrics::new());
        let mut table = LeaseTable::new();
        table.acquire(new_lease(1, 0, 9, 0, 2), guard(&metrics));
        let out = table.sweep(Tick(2));
        assert_eq!(out.expired, vec![(0, 9, 1)]);
        table.push_standby(0, 9, Tick(5));
        assert!(table.sweep(Tick(4)).standby_done.is_empty());
        assert_eq!(table.sweep(Tick(5)).standby_done, vec![(0, 9)]);
    }

    /// One seeded sequence of grants (ascending, out-of-order and reused
    /// ids), renewals, releases, standby timers and sweeps, checked call
    /// by call against the ordered-map oracle: every return value, the
    /// id-ordered records, each touched record and both lease gauges.
    fn lockstep(seed: u64, calls: usize, release_bias: u32) -> (usize, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (fast_metrics, tree_metrics) =
            (Arc::new(IpamMetrics::new()), Arc::new(IpamMetrics::new()));
        let mut fast = LeaseTable::new();
        let mut tree = TreeTable::new();
        let mut next_id = 1_000u64;
        let mut used: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let (mut compactions, mut at_bound) = (0, 0);
        for call in 0..calls {
            let slots_before = fast.records.len();
            let roll = rng.gen_range(0u32..100);
            let id_of = |rng: &mut SmallRng, used: &[u64]| match used.len() {
                0 => 7,
                n if rng.gen_range(0u32..10) > 0 => used[rng.gen_range(0..n)],
                _ => rng.gen_range(0..2_000),
            };
            if roll < 40 {
                let id = match rng.gen_range(0u32..10) {
                    // Out of order: below the largest id so far.
                    0 => rng.gen_range(0..next_id),
                    // Reused: a live id (replaced) or a released one.
                    1 => id_of(&mut rng, &used),
                    _ => {
                        next_id += rng.gen_range(1..4);
                        next_id
                    }
                };
                used.push(id);
                let new = NewLease {
                    id,
                    pool: rng.gen_range(0..3),
                    index: rng.gen_range(0..1 << 20),
                    client: call as u64,
                    now: Tick(now),
                    lifetime: rng.gen_range(1..40),
                };
                assert_eq!(
                    fast.acquire(new, guard(&fast_metrics)),
                    tree.acquire(new, guard(&tree_metrics)),
                    "acquire {id}, call {call}"
                );
            } else if roll < 40 + release_bias {
                let id = id_of(&mut rng, &used);
                assert_eq!(
                    fast.release(id),
                    tree.release(id),
                    "release {id}, call {call}"
                );
            } else if roll < 85 {
                let id = id_of(&mut rng, &used);
                let lifetime = rng.gen_range(1..40);
                assert_eq!(
                    fast.renew(id, Tick(now), lifetime),
                    tree.renew(id, Tick(now), lifetime),
                    "renew {id}, call {call}"
                );
            } else if roll < 88 {
                let (pool, index, until) = (
                    rng.gen_range(0..3),
                    rng.gen_range(0..64),
                    now + rng.gen_range(1..9),
                );
                fast.push_standby(pool, index, Tick(until));
                tree.push_standby(pool, index, Tick(until));
            } else {
                now += match rng.gen_range(0u32..20) {
                    0 => WHEEL_SLOTS + rng.gen_range(0..64),
                    _ => rng.gen_range(0..4),
                };
                let (a, b) = (fast.sweep(Tick(now)), tree.sweep(Tick(now)));
                assert_eq!(a.expired, b.expired, "sweep to {now}, call {call}");
                assert_eq!(
                    a.standby_done, b.standby_done,
                    "sweep to {now}, call {call}"
                );
            }
            assert_eq!(fast.len(), tree.len(), "call {call}");
            assert_eq!(
                fast.records().collect::<Vec<_>>(),
                tree.records(),
                "call {call}"
            );
            assert_eq!(fast_metrics.active_leases(), tree_metrics.active_leases());
            assert_eq!(fast_metrics.active_leases(), fast.len() as u64);
            for &id in used.iter().rev().take(4) {
                let view = |l: &Lease| {
                    (
                        l.pool,
                        l.index,
                        l.client,
                        l.granted_at,
                        l.expires_at,
                        l.generation,
                    )
                };
                assert_eq!(
                    fast.get(id).map(view),
                    tree.get(id).map(view),
                    "get {id}, call {call}"
                );
            }
            // Tombstones never exceed a quarter of the live records.
            let tombstones = fast.records.len() - fast.len();
            assert!(
                tombstones * 4 <= fast.len(),
                "{tombstones} tombstones, call {call}"
            );
            assert_eq!(fast.ids.len(), fast.records.len());
            assert!(fast.ids.windows(2).all(|w| w[0] < w[1]));
            compactions += usize::from(fast.records.len() < slots_before);
            at_bound += usize::from(tombstones > 0 && tombstones * 4 == fast.len());
        }
        (compactions, at_bound)
    }

    #[test]
    fn id_ordered_table_matches_the_map_oracle_call_for_call() {
        let (mut compactions, mut at_bound) = (0, 0);
        for seed in 0..12u64 {
            // Release-heavy runs drain the table; grant-heavy ones grow it.
            let (c, b) = lockstep(seed, 3_000, [10, 25, 40][seed as usize % 3]);
            compactions += c;
            at_bound += b;
        }
        // Both sides of the compaction bound were reached.
        assert!(compactions > 50, "{compactions} compactions");
        assert!(at_bound > 10, "{at_bound} calls sat exactly at the bound");
    }

    #[test]
    fn out_of_order_and_reused_ids_keep_id_order() {
        let metrics = Arc::new(IpamMetrics::new());
        let mut table = LeaseTable::new();
        for id in [10u64, 30, 20, 5, 40] {
            table.acquire(new_lease(id, 0, id, 0, 8), guard(&metrics));
        }
        let ids = |t: &LeaseTable| t.records().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(ids(&table), vec![5, 10, 20, 30, 40]);
        assert_eq!(table.release(20), Ok((0, 20)));
        // Reusing a released id revives its slot; a live one is replaced.
        table.acquire(new_lease(20, 1, 21, 0, 8), guard(&metrics));
        table.acquire(new_lease(30, 1, 31, 0, 8), guard(&metrics));
        assert_eq!(ids(&table), vec![5, 10, 20, 30, 40]);
        assert_eq!(table.get(30).map(|l| l.index), Some(31));
        assert_eq!(metrics.active_leases(), 5);
    }
}
