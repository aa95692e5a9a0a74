//! The per-ISP discrete-event simulation engine.
//!
//! One `IspSim` run simulates every configured subscriber of one ISP over
//! a time window, driving the mechanisms of Section 2.2 of the paper:
//!
//! * periodic renumbering (DHCP lease / RADIUS SessionTimeout expiry),
//! * CPE reboots and long subscriber outages,
//! * region-wide infrastructure outages that lose server state,
//! * administrative renumbering that moves subscribers across pools,
//! * CGNAT rebinds and cellular attachment sessions,
//! * CPE-side /64 selection (zero-out, scramble, rotate).
//!
//! Region-wide event rates (infrastructure outages, administrative
//! renumbering) are read from the first subscriber class, since they are
//! properties of the ISP rather than of a subscriber.
//!
//! The output is one ground-truth [`SubscriberTimeline`] per subscriber.

use crate::alloc::IndexAllocator;
use crate::config::{CpeV6Behavior, IspConfig, V4Policy, V6Policy, V6PoolPlan};
use crate::dhcp::{DelegationState, LeaseState};
use crate::event::EventQueue;
use crate::plan::{sample_plan, SubscriberPlan};
use crate::rngutil::{derive_rng, exp_hours, heavy_tail_hours, jitter_period, weighted_index};
use crate::time::{SimTime, Window};
use crate::timeline::{SubscriberId, SubscriberTimeline, V4Segment, V6Segment};
use dynamips_netaddr::{Ipv4Pool, Ipv6Prefix, Ipv6PrefixPool, PrefixError};
use rand::rngs::SmallRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// Why a subscriber is currently offline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutageKind {
    /// Short CPE reboot / power blip.
    Short,
    /// Long outage (vacation, extended failure).
    Long,
    /// ISP infrastructure outage: server state is lost.
    Infra,
}

/// Simulation events. Generation counters invalidate stale timers after
/// outage- or admin-driven rescheduling.
#[derive(Debug, Clone, Copy)]
enum Ev {
    V4SessionEnd {
        sub: u32,
        gen: u32,
    },
    V6RenumberDue {
        sub: u32,
        gen: u32,
    },
    Lan64Rotate {
        sub: u32,
        gen: u32,
    },
    OutageStart {
        sub: u32,
        long: bool,
    },
    OutageEnd {
        sub: u32,
    },
    InfraOutage {
        group: u32,
    },
    AdminRenumber {
        group: u32,
    },
    /// Policy evolution: the subscriber's line is migrated to another
    /// subscriber class (see `config::Stabilization`).
    Stabilize {
        sub: u32,
        to_class: usize,
    },
}

/// State of one IPv4 pool.
struct V4PoolState {
    pool: Ipv4Pool,
    weight: f64,
    alloc: IndexAllocator,
}

/// State of one IPv6 regional delegation pool.
struct RegionState {
    pool: Ipv6PrefixPool,
    alloc: IndexAllocator,
    /// Which configured aggregate (BGP announcement) this region sits in.
    aggregate: usize,
}

/// Per-subscriber simulation state.
struct SubState {
    plan: SubscriberPlan,
    group: u32,
    /// Current v6 region index.
    region: usize,
    /// Exclusive v4 hold: (pool idx, allocator index). None for CGNAT.
    v4_hold: Option<(usize, u64)>,
    /// Open v4 segment: (start, addr, cgnat).
    v4_open: Option<(SimTime, Ipv4Addr, bool)>,
    /// Exclusive v6 hold: (region idx, allocator index).
    v6_hold: Option<(usize, u64)>,
    /// Open v6 segment: (start, delegated, lan64).
    v6_open: Option<(SimTime, Ipv6Prefix, Ipv6Prefix)>,
    offline: Option<OutageKind>,
    outage_started: SimTime,
    v4_gen: u32,
    v6_gen: u32,
    rot_gen: u32,
    /// Constant non-zero LAN index for `CpeV6Behavior::ConstantNonZero`.
    lan_const: u64,
    v4_segments: Vec<V4Segment>,
    v6_segments: Vec<V6Segment>,
}

/// Ground truth exposed alongside the timelines, for tests and experiment
/// validation.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): carried by the pub IspSimResult::ground_truth field,
// so values reach other crates without the type name being spelled.
pub struct GroundTruth {
    /// The regional delegation pools that were instantiated.
    pub regions: Vec<Ipv6Prefix>,
    /// Delegated prefix length, if the ISP runs IPv6.
    pub delegated_len: Option<u8>,
}

/// Result of simulating one ISP.
// lint:allow(dead-pub): returned by World::run_one/run_each to other crates,
// which consume values without ever spelling the type name.
pub struct IspSimResult {
    /// The configuration that was simulated.
    pub config: IspConfig,
    /// Per-subscriber plans (index-aligned with `timelines`).
    pub plans: Vec<SubscriberPlan>,
    /// Per-subscriber ground-truth timelines.
    pub timelines: Vec<SubscriberTimeline>,
    /// Instantiated spatial ground truth.
    pub ground_truth: GroundTruth,
}

/// The simulation engine for one ISP.
pub(crate) struct IspSim {
    cfg: IspConfig,
    window: Window,
    rng: SmallRng,
    queue: EventQueue<Ev>,
    subs: Vec<SubState>,
    v4_pools: Vec<V4PoolState>,
    regions: Vec<RegionState>,
    groups: u32,
}

impl IspSim {
    /// Build a simulation of `cfg`, which [`crate::World::add_isp`] has
    /// validated: a [`crate::World`] is the only way to simulate an ISP.
    pub(crate) fn new(cfg: IspConfig, window: Window, seed: u64) -> Self {
        let rng = derive_rng(seed, cfg.asn.0 as u64);
        IspSim {
            cfg,
            window,
            rng,
            queue: EventQueue::new(),
            subs: Vec::new(),
            v4_pools: Vec::new(),
            regions: Vec::new(),
            groups: 1,
        }
    }

    /// Run the simulation to completion and return the timelines.
    pub(crate) fn run(mut self) -> IspSimResult {
        self.build_pools();
        self.init_subscribers();
        self.schedule_group_events();

        while let Some((t, ev)) = self.queue.pop() {
            if t >= self.window.end {
                break;
            }
            self.handle(t, ev);
        }

        self.finish()
    }

    fn build_pools(&mut self) {
        if let Some(plan) = &self.cfg.v4_plan {
            for (pfx, weight) in &plan.pools {
                self.v4_pools.push(V4PoolState {
                    pool: Ipv4Pool::new(*pfx),
                    weight: *weight,
                    alloc: IndexAllocator::new(Ipv4Pool::new(*pfx).capacity()),
                });
            }
        }
        if let Some(plan) = self.cfg.v6_plan.clone() {
            // Regions cluster inside a random "metro" block of each
            // aggregate, so cross-region renumbering lands spatially near
            // (the paper observes DTAG cross-region CPLs of 24–40, not
            // all the way down to the /19 aggregate).
            for (agg_idx, agg) in plan.aggregates.iter().enumerate() {
                // Validated lengths (`V6PoolPlan::validate`) never fail
                // here; an aggregate whose lengths did would get no
                // regions.
                for pool in self.region_pools(*agg, &plan).unwrap_or_default() {
                    self.regions.push(RegionState {
                        alloc: IndexAllocator::new(pool.capacity()),
                        pool,
                        aggregate: agg_idx,
                    });
                }
            }
        }
        self.groups = if self.regions.is_empty() {
            self.v4_pools.len().max(1) as u32
        } else {
            self.regions.len() as u32
        };
    }

    /// Draw `plan.regions_per_aggregate` regional pools inside one random
    /// "metro" block of `agg`.
    fn region_pools(
        &mut self,
        agg: Ipv6Prefix,
        plan: &V6PoolPlan,
    ) -> Result<Vec<Ipv6PrefixPool>, PrefixError> {
        let metro_span: u8 = 16;
        let metro_len = plan.region_len.saturating_sub(metro_span).max(agg.len());
        let metro_idx = self.rng.gen_range(0..agg.num_subprefixes(metro_len)?);
        let metro = agg.nth_subprefix(metro_len, metro_idx)?;
        let region_count = metro.num_subprefixes(plan.region_len)?;
        (0..plan.regions_per_aggregate)
            .map(|_| {
                let idx = self.rng.gen_range(0..region_count);
                Ipv6PrefixPool::new(
                    metro.nth_subprefix(plan.region_len, idx)?,
                    plan.delegated_len,
                )
            })
            .collect()
    }

    fn init_subscribers(&mut self) {
        let t0 = self.window.start;
        for i in 0..self.cfg.subscribers {
            let plan = sample_plan(&self.cfg, &mut self.rng);
            let region = if self.regions.is_empty() {
                usize::MAX
            } else {
                self.rng.gen_range(0..self.regions.len())
            };
            let group = if region != usize::MAX {
                region as u32
            } else {
                i % self.groups
            };
            let lan_const = self.rng.gen_range(1..=255u64);
            self.subs.push(SubState {
                plan,
                group,
                region,
                v4_hold: None,
                v4_open: None,
                v6_hold: None,
                v6_open: None,
                offline: None,
                outage_started: t0,
                v4_gen: 0,
                v6_gen: 0,
                rot_gen: 0,
                lan_const,
                v4_segments: Vec::new(),
                v6_segments: Vec::new(),
            });
            let sub = i;
            self.attach_v4(t0, sub, false);
            self.attach_v6(t0, sub, true);
            self.schedule_periodic_timers(t0, sub, true);
            self.schedule_outages(t0, sub);
            self.schedule_stabilization(t0, sub);
        }
    }

    /// Schedule infrastructure / administrative events per group, with rates
    /// taken from the first subscriber class.
    fn schedule_group_events(&mut self) {
        let t0 = self.window.start;
        let outages = self.cfg.classes[0].outages;
        for g in 0..self.groups {
            if outages.infra_outage_mean_interval_hours.is_finite() {
                let dt = exp_hours(&mut self.rng, outages.infra_outage_mean_interval_hours);
                self.queue.schedule(t0 + dt, Ev::InfraOutage { group: g });
            }
            if outages.admin_renumber_mean_interval_hours.is_finite() {
                let dt = exp_hours(&mut self.rng, outages.admin_renumber_mean_interval_hours);
                self.queue.schedule(t0 + dt, Ev::AdminRenumber { group: g });
            }
        }
    }

    /// Schedule the per-subscriber periodic timers. With `random_phase`,
    /// the first firing is uniform within one period (subscribers did not
    /// all sign up at the window start).
    fn schedule_periodic_timers(&mut self, t: SimTime, sub: u32, random_phase: bool) {
        let s = &self.subs[sub as usize];
        let coupled_driver = s.plan.coupled
            && matches!(s.plan.v4, Some(V4Policy::PeriodicRenumber { .. }))
            && matches!(s.plan.v6, Some(V6Policy::PeriodicRenumber { .. }));

        match s.plan.v4 {
            Some(V4Policy::PeriodicRenumber {
                period_hours,
                jitter,
            }) => {
                let base = jitter_period(&mut self.rng, period_hours, jitter);
                let dt = if random_phase {
                    self.rng.gen_range(1..=base)
                } else {
                    base
                };
                let gen = self.subs[sub as usize].v4_gen;
                self.queue.schedule(t + dt, Ev::V4SessionEnd { sub, gen });
            }
            Some(V4Policy::CgnatShared {
                check_interval_hours,
                ..
            }) if check_interval_hours.is_finite() => {
                // Periodic CGNAT mapping checks, independent of the /64
                // session: the source of multi-/24 associations for
                // long-lived mobile /64s.
                let dt = exp_hours(&mut self.rng, check_interval_hours);
                let gen = self.subs[sub as usize].v4_gen;
                self.queue.schedule(t + dt, Ev::V4SessionEnd { sub, gen });
            }
            _ => {}
        }

        let s = &self.subs[sub as usize];
        match s.plan.v6 {
            Some(V6Policy::StableDelegation {
                maintenance_mean_hours,
                ..
            }) if maintenance_mean_hours.is_finite() => {
                let dt = exp_hours(&mut self.rng, maintenance_mean_hours);
                let gen = self.subs[sub as usize].v6_gen;
                self.queue.schedule(t + dt, Ev::V6RenumberDue { sub, gen });
            }
            Some(V6Policy::PeriodicRenumber {
                period_hours,
                jitter,
            }) if !coupled_driver => {
                let base = jitter_period(&mut self.rng, period_hours, jitter);
                let dt = if random_phase {
                    self.rng.gen_range(1..=base)
                } else {
                    base
                };
                let gen = self.subs[sub as usize].v6_gen;
                self.queue.schedule(t + dt, Ev::V6RenumberDue { sub, gen });
            }
            Some(V6Policy::SessionBased {
                mean_session_hours,
                tail_prob,
                tail_max_hours,
            }) => {
                let dt =
                    heavy_tail_hours(&mut self.rng, mean_session_hours, tail_prob, tail_max_hours);
                let gen = self.subs[sub as usize].v6_gen;
                self.queue.schedule(t + dt, Ev::V6RenumberDue { sub, gen });
            }
            _ => {}
        }

        self.schedule_rotate_timer(t, sub);
    }

    fn schedule_rotate_timer(&mut self, t: SimTime, sub: u32) {
        let s = &self.subs[sub as usize];
        if s.plan.v6.is_none() {
            return;
        }
        if let CpeV6Behavior::Scramble {
            rotate_every_hours: Some(every),
        } = s.plan.cpe
        {
            let dt = jitter_period(&mut self.rng, every, 0.02);
            let gen = s.rot_gen;
            self.queue.schedule(t + dt, Ev::Lan64Rotate { sub, gen });
        }
    }

    fn schedule_outages(&mut self, t: SimTime, sub: u32) {
        let outages = self.subs[sub as usize].plan.outages;
        if outages.cpe_outage_mean_interval_hours.is_finite() {
            let dt = exp_hours(&mut self.rng, outages.cpe_outage_mean_interval_hours);
            self.queue
                .schedule(t + dt, Ev::OutageStart { sub, long: false });
        }
        if outages.long_outage_mean_interval_hours.is_finite() {
            let dt = exp_hours(&mut self.rng, outages.long_outage_mean_interval_hours);
            self.queue
                .schedule(t + dt, Ev::OutageStart { sub, long: true });
        }
    }

    // ----- address/prefix (re)attachment --------------------------------

    /// Pick a v4 pool index by weight.
    fn pick_v4_pool(&mut self) -> usize {
        let weights: Vec<f64> = self.v4_pools.iter().map(|p| p.weight).collect();
        weighted_index(&mut self.rng, &weights)
    }

    /// Attach (or re-attach) the subscriber's IPv4 address.
    /// `sticky` asks the server to re-issue the previous binding.
    fn attach_v4(&mut self, t: SimTime, sub: u32, sticky: bool) {
        let Some(policy) = self.subs[sub as usize].plan.v4 else {
            return;
        };
        match policy {
            V4Policy::CgnatShared { rebind_prob, .. } => {
                let keep = sticky
                    || (self.subs[sub as usize].v4_open.is_some()
                        && !self.rng.gen_bool(rebind_prob));
                let kept = self.subs[sub as usize].v4_open.filter(|_| keep);
                let Some(addr) = kept.map(|(_, a, _)| a).or_else(|| self.random_cgnat_addr())
                else {
                    return;
                };
                self.open_v4(t, sub, addr, true);
            }
            V4Policy::DhcpSticky { .. } | V4Policy::PeriodicRenumber { .. } => {
                // Release the previous exclusive hold (binding memory in the
                // allocator persists for sticky reacquisition).
                let prev = self.subs[sub as usize].v4_hold;
                if let Some((pool_idx, idx)) = self.subs[sub as usize].v4_hold.take() {
                    self.v4_pools[pool_idx].alloc.release(idx);
                }
                let client = sub as u64;
                let (p_near, near_radius) = self
                    .cfg
                    .v4_plan
                    .as_ref()
                    .map(|p| (p.p_near, p.near_radius))
                    .unwrap_or((0.0, 0));
                let (pool_idx, idx) = if sticky {
                    // Sticky: try the pool that held the last binding.
                    let pool_idx = prev.map(|(p, _)| p).unwrap_or_else(|| self.pick_v4_pool());
                    let idx = self.v4_pools[pool_idx]
                        .alloc
                        .acquire_sticky(&mut self.rng, client);
                    (pool_idx, idx)
                } else if let Some((prev_pool, prev_idx)) =
                    prev.filter(|_| p_near > 0.0 && self.rng.gen_bool(p_near))
                {
                    // Sequential-allocator locality: a nearby address from
                    // the same pool segment.
                    let idx = self.v4_pools[prev_pool].alloc.acquire_near(
                        &mut self.rng,
                        client,
                        prev_idx,
                        near_radius,
                    );
                    (prev_pool, idx)
                } else {
                    let pool_idx = self.pick_v4_pool();
                    let idx = self.v4_pools[pool_idx]
                        .alloc
                        .acquire_any(&mut self.rng, client);
                    (pool_idx, idx)
                };
                // The allocator only hands out indices inside its pool.
                let Some((idx, Ok(addr))) =
                    idx.map(|i| (i, self.v4_pools[pool_idx].pool.address(i)))
                else {
                    // Pool exhausted: subscriber stays unaddressed.
                    return;
                };
                self.subs[sub as usize].v4_hold = Some((pool_idx, idx));
                self.open_v4(t, sub, addr, false);
            }
        }
    }

    fn random_cgnat_addr(&mut self) -> Option<Ipv4Addr> {
        let pool_idx = self.pick_v4_pool();
        let pool = &self.v4_pools[pool_idx].pool;
        let idx = self.rng.gen_range(0..pool.capacity());
        pool.address(idx).ok()
    }

    /// Attach (or re-attach) the subscriber's IPv6 delegation and LAN /64.
    /// `new_delegation` forces a fresh delegation; otherwise the current one
    /// (or the sticky binding) is kept.
    fn attach_v6(&mut self, t: SimTime, sub: u32, fresh: bool) {
        if self.subs[sub as usize].plan.v6.is_none() || self.regions.is_empty() {
            return;
        }
        let client = sub as u64;

        let (region_idx, idx) =
            if let (false, Some(held)) = (fresh, self.subs[sub as usize].v6_hold) {
                held
            } else {
                // Release, then possibly move region, then acquire a new
                // delegation.
                if let Some((r, i)) = self.subs[sub as usize].v6_hold.take() {
                    self.regions[r].alloc.release(i);
                }
                let p_stay = self
                    .cfg
                    .v6_plan
                    .as_ref()
                    .map(|p| p.p_stay_region)
                    .unwrap_or(1.0);
                let mut region = self.subs[sub as usize].region;
                if self.regions.len() > 1 && !self.rng.gen_bool(p_stay.clamp(0.0, 1.0)) {
                    let mut new_region = self.rng.gen_range(0..self.regions.len());
                    if new_region == region {
                        new_region = (new_region + 1) % self.regions.len();
                    }
                    region = new_region;
                    self.subs[sub as usize].region = region;
                }
                let Some(idx) = self.regions[region]
                    .alloc
                    .acquire_any(&mut self.rng, client)
                else {
                    return;
                };
                (region, idx)
            };

        self.subs[sub as usize].v6_hold = Some((region_idx, idx));
        self.open_delegation(t, sub, region_idx, idx, fresh);
    }

    /// Open delegation `idx` of region `region_idx` with the LAN /64
    /// [`Self::choose_lan64`] picks (`fresh_lan` re-picks a scramble
    /// CPE's). The index came from that region's allocator, so it lies
    /// inside the pool.
    fn open_delegation(
        &mut self,
        t: SimTime,
        sub: u32,
        region_idx: usize,
        idx: u64,
        fresh_lan: bool,
    ) {
        let Ok(delegated) = self.regions[region_idx].pool.prefix(idx) else {
            return;
        };
        if let Some(lan64) = self.choose_lan64(sub, delegated, fresh_lan) {
            self.open_v6(t, sub, delegated, lan64);
        }
    }

    /// Re-issue the same delegation but choose a fresh LAN /64 (scramble
    /// CPEs do this on every reconnect, and on rotation timers).
    fn rescramble_lan64(&mut self, t: SimTime, sub: u32) {
        let Some((_, delegated, _)) = self.subs[sub as usize].v6_open else {
            return;
        };
        if let Some(lan64) = self.choose_lan64(sub, delegated, true) {
            self.open_v6(t, sub, delegated, lan64);
        }
    }

    /// The LAN /64 a CPE announces out of `delegated`; `None` only for a
    /// delegation longer than /64, which `V6PoolPlan::validate` rejects.
    fn choose_lan64(&mut self, sub: u32, delegated: Ipv6Prefix, fresh: bool) -> Option<Ipv6Prefix> {
        let capacity = delegated.num_subprefixes(64).ok()?;
        let s = &self.subs[sub as usize];
        let idx = match s.plan.cpe {
            CpeV6Behavior::ZeroOut => 0,
            CpeV6Behavior::ConstantNonZero => s.lan_const % capacity.max(1),
            CpeV6Behavior::Scramble { .. } => match (fresh, s.v6_open) {
                // Keep the currently announced /64 when re-attaching to the
                // same delegation.
                (false, Some((_, cur_deleg, cur_lan))) if cur_deleg == delegated => {
                    return Some(cur_lan);
                }
                _ => self.rng.gen_range(0..capacity.max(1)),
            },
        };
        delegated.nth_subprefix(64, idx).ok()
    }

    // ----- segment bookkeeping ------------------------------------------

    fn open_v4(&mut self, t: SimTime, sub: u32, addr: Ipv4Addr, cgnat: bool) {
        let s = &mut self.subs[sub as usize];
        if let Some((start, cur, cur_cgnat)) = s.v4_open {
            if cur == addr && cur_cgnat == cgnat {
                return; // unchanged
            }
            if t > start {
                s.v4_segments.push(V4Segment {
                    start,
                    end: t,
                    addr: cur,
                    cgnat: cur_cgnat,
                });
            }
        }
        s.v4_open = Some((t, addr, cgnat));
    }

    fn close_v4(&mut self, t: SimTime, sub: u32) {
        let s = &mut self.subs[sub as usize];
        if let Some((start, addr, cgnat)) = s.v4_open.take() {
            if t > start {
                s.v4_segments.push(V4Segment {
                    start,
                    end: t,
                    addr,
                    cgnat,
                });
            }
        }
    }

    fn open_v6(&mut self, t: SimTime, sub: u32, delegated: Ipv6Prefix, lan64: Ipv6Prefix) {
        let s = &mut self.subs[sub as usize];
        if let Some((start, cur_deleg, cur_lan)) = s.v6_open {
            if cur_deleg == delegated && cur_lan == lan64 {
                return;
            }
            if t > start {
                s.v6_segments.push(V6Segment {
                    start,
                    end: t,
                    delegated: cur_deleg,
                    lan64: cur_lan,
                });
            }
        }
        s.v6_open = Some((t, delegated, lan64));
    }

    fn close_v6(&mut self, t: SimTime, sub: u32) {
        let s = &mut self.subs[sub as usize];
        if let Some((start, delegated, lan64)) = s.v6_open.take() {
            if t > start {
                s.v6_segments.push(V6Segment {
                    start,
                    end: t,
                    delegated,
                    lan64,
                });
            }
        }
    }

    // ----- event handlers -------------------------------------------------

    fn handle(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::V4SessionEnd { sub, gen } => self.on_v4_session_end(t, sub, gen),
            Ev::V6RenumberDue { sub, gen } => self.on_v6_renumber_due(t, sub, gen),
            Ev::Lan64Rotate { sub, gen } => self.on_lan64_rotate(t, sub, gen),
            Ev::OutageStart { sub, long } => self.on_outage_start(t, sub, long),
            Ev::OutageEnd { sub } => self.on_outage_end(t, sub),
            Ev::InfraOutage { group } => self.on_infra_outage(t, group),
            Ev::AdminRenumber { group } => self.on_admin_renumber(t, group),
            Ev::Stabilize { sub, to_class } => self.on_stabilize(t, sub, to_class),
        }
    }

    fn on_v4_session_end(&mut self, t: SimTime, sub: u32, gen: u32) {
        let s = &self.subs[sub as usize];
        if s.v4_gen != gen || s.offline.is_some() {
            return;
        }
        // RADIUS-style renumbering: a fresh, non-sticky assignment.
        self.attach_v4(t, sub, false);

        // Coupled dual-stack networks renumber the delegation in the same
        // breath (the paper observes 90.6% same-hour simultaneity in DTAG).
        let s = &self.subs[sub as usize];
        let coupled_driver =
            s.plan.coupled && matches!(s.plan.v6, Some(V6Policy::PeriodicRenumber { .. }));
        if coupled_driver {
            self.attach_v6(t, sub, true);
        }

        // Schedule the next session end / mapping check.
        match self.subs[sub as usize].plan.v4 {
            Some(V4Policy::PeriodicRenumber {
                period_hours,
                jitter,
            }) => {
                let dt = jitter_period(&mut self.rng, period_hours, jitter);
                let gen = self.subs[sub as usize].v4_gen;
                self.queue.schedule(t + dt, Ev::V4SessionEnd { sub, gen });
            }
            Some(V4Policy::CgnatShared {
                check_interval_hours,
                ..
            }) if check_interval_hours.is_finite() => {
                let dt = exp_hours(&mut self.rng, check_interval_hours);
                let gen = self.subs[sub as usize].v4_gen;
                self.queue.schedule(t + dt, Ev::V4SessionEnd { sub, gen });
            }
            _ => {}
        }
    }

    fn on_v6_renumber_due(&mut self, t: SimTime, sub: u32, gen: u32) {
        let s = &self.subs[sub as usize];
        if s.v6_gen != gen || s.offline.is_some() {
            return;
        }
        self.attach_v6(t, sub, true);

        let s = &self.subs[sub as usize];
        match s.plan.v6 {
            Some(V6Policy::StableDelegation {
                maintenance_mean_hours,
                ..
            }) if maintenance_mean_hours.is_finite() => {
                let dt = exp_hours(&mut self.rng, maintenance_mean_hours);
                let gen = self.subs[sub as usize].v6_gen;
                self.queue.schedule(t + dt, Ev::V6RenumberDue { sub, gen });
            }
            Some(V6Policy::PeriodicRenumber {
                period_hours,
                jitter,
            }) => {
                // Coupled networks with a non-periodic v4 policy still
                // renumber v4 alongside the delegation.
                if s.plan.coupled && s.plan.v4.is_some() {
                    self.attach_v4(t, sub, false);
                }
                let dt = jitter_period(&mut self.rng, period_hours, jitter);
                let gen = self.subs[sub as usize].v6_gen;
                self.queue.schedule(t + dt, Ev::V6RenumberDue { sub, gen });
            }
            Some(V6Policy::SessionBased {
                mean_session_hours,
                tail_prob,
                tail_max_hours,
            }) => {
                // A new attachment session: CGNAT may rebind the public v4.
                self.attach_v4(t, sub, false);
                let dt =
                    heavy_tail_hours(&mut self.rng, mean_session_hours, tail_prob, tail_max_hours);
                let gen = self.subs[sub as usize].v6_gen;
                self.queue.schedule(t + dt, Ev::V6RenumberDue { sub, gen });
            }
            _ => {}
        }
    }

    fn on_lan64_rotate(&mut self, t: SimTime, sub: u32, gen: u32) {
        let s = &self.subs[sub as usize];
        if s.rot_gen != gen || s.offline.is_some() {
            return;
        }
        self.rescramble_lan64(t, sub);
        self.schedule_rotate_timer(t, sub);
    }

    fn on_outage_start(&mut self, t: SimTime, sub: u32, long: bool) {
        let outages = self.subs[sub as usize].plan.outages;
        let (mean_dur, mean_interval) = if long {
            (
                outages.long_outage_mean_duration_hours,
                outages.long_outage_mean_interval_hours,
            )
        } else {
            (
                outages.cpe_outage_mean_duration_hours,
                outages.cpe_outage_mean_interval_hours,
            )
        };
        let duration = exp_hours(&mut self.rng, mean_dur);

        // Schedule the next occurrence of this outage class regardless.
        if mean_interval.is_finite() {
            let dt = duration + exp_hours(&mut self.rng, mean_interval);
            self.queue.schedule(t + dt, Ev::OutageStart { sub, long });
        }

        if self.subs[sub as usize].offline.is_some() {
            return; // already down
        }
        self.begin_outage(
            t,
            sub,
            if long {
                OutageKind::Long
            } else {
                OutageKind::Short
            },
        );
        self.queue.schedule(t + duration, Ev::OutageEnd { sub });
    }

    fn begin_outage(&mut self, t: SimTime, sub: u32, kind: OutageKind) {
        self.close_v4(t, sub);
        self.close_v6(t, sub);
        let s = &mut self.subs[sub as usize];
        s.offline = Some(kind);
        s.outage_started = t;
        // Invalidate in-flight timers; they are re-armed at outage end.
        s.v4_gen = s.v4_gen.wrapping_add(1);
        s.v6_gen = s.v6_gen.wrapping_add(1);
        s.rot_gen = s.rot_gen.wrapping_add(1);
    }

    fn on_outage_end(&mut self, t: SimTime, sub: u32) {
        let Some(kind) = self.subs[sub as usize].offline.take() else {
            return;
        };
        let down = self.subs[sub as usize].outage_started;
        let plan = self.subs[sub as usize].plan.clone();

        // --- IPv4 reattachment ---
        match plan.v4 {
            Some(V4Policy::DhcpSticky { lease_hours }) => {
                // The CPE renews opportunistically while online, so the
                // lease is fresh at the moment of failure (RFC 2131 FSM in
                // `crate::dhcp`); state is also lost on infrastructure
                // outages regardless of lease timing.
                let lease = LeaseState::granted(down, lease_hours);
                let lost_state = kind == OutageKind::Infra;
                if lost_state || !lease.survives_outage(down, t) {
                    // Lease expired or server state lost: the sticky memory
                    // is dropped, but the previous hold is left in place so
                    // the allocator can still apply near-reassignment
                    // locality (attach_v4 releases it).
                    if let Some((pool_idx, _)) = self.subs[sub as usize].v4_hold {
                        self.v4_pools[pool_idx].alloc.forget(sub as u64);
                    }
                    self.attach_v4(t, sub, false);
                } else {
                    // Re-open the same address (the hold was kept).
                    self.attach_v4(t, sub, true);
                }
            }
            Some(V4Policy::PeriodicRenumber { .. }) => {
                // RADIUS: every reconnect renumbers.
                self.attach_v4(t, sub, false);
            }
            Some(V4Policy::CgnatShared { .. }) => {
                // New attachment session.
                self.attach_v4(t, sub, false);
            }
            None => {}
        }

        // --- IPv6 reattachment ---
        match plan.v6 {
            Some(V6Policy::StableDelegation {
                valid_lifetime_hours,
                ..
            }) => {
                let delegation =
                    DelegationState::granted(down, valid_lifetime_hours / 2, valid_lifetime_hours);
                let lost = kind == OutageKind::Infra || !delegation.survives_outage(down, t);
                if lost {
                    self.attach_v6(t, sub, true);
                } else {
                    // Same delegation; scramble CPEs still re-pick the /64.
                    if matches!(plan.cpe, CpeV6Behavior::Scramble { .. }) {
                        self.reattach_same_delegation_rescrambled(t, sub);
                    } else {
                        self.attach_v6(t, sub, false);
                    }
                }
            }
            Some(V6Policy::PeriodicRenumber { .. }) => {
                self.attach_v6(t, sub, true);
            }
            Some(V6Policy::SessionBased { .. }) => {
                self.attach_v6(t, sub, true);
            }
            None => {}
        }

        self.schedule_periodic_timers(t, sub, false);
    }

    /// After a reboot a scramble CPE keeps its delegation but announces a
    /// new random /64 out of it.
    fn reattach_same_delegation_rescrambled(&mut self, t: SimTime, sub: u32) {
        match self.subs[sub as usize].v6_hold {
            Some((region_idx, idx)) => self.open_delegation(t, sub, region_idx, idx, true),
            None => self.attach_v6(t, sub, true),
        }
    }

    fn on_infra_outage(&mut self, t: SimTime, group: u32) {
        // Reschedule the next infrastructure event for this group.
        let outages = self.cfg.classes[0].outages;
        if outages.infra_outage_mean_interval_hours.is_finite() {
            let dt = exp_hours(&mut self.rng, outages.infra_outage_mean_interval_hours);
            self.queue.schedule(t + dt, Ev::InfraOutage { group });
        }

        let affected: Vec<u32> = (0..self.subs.len() as u32)
            .filter(|&i| self.subs[i as usize].group == group)
            .filter(|&i| self.subs[i as usize].offline.is_none())
            .collect();
        for sub in affected {
            self.begin_outage(t, sub, OutageKind::Infra);
            // Service restoration staggered over a few hours.
            let dt = 1 + exp_hours(&mut self.rng, 1.0);
            self.queue.schedule(t + dt, Ev::OutageEnd { sub });
        }
    }

    fn on_admin_renumber(&mut self, t: SimTime, group: u32) {
        let outages = self.cfg.classes[0].outages;
        if outages.admin_renumber_mean_interval_hours.is_finite() {
            let dt = exp_hours(&mut self.rng, outages.admin_renumber_mean_interval_hours);
            self.queue.schedule(t + dt, Ev::AdminRenumber { group });
        }

        let affected: Vec<u32> = (0..self.subs.len() as u32)
            .filter(|&i| self.subs[i as usize].group == group)
            .filter(|&i| self.subs[i as usize].offline.is_none())
            .collect();
        for sub in affected {
            // Forced renumbering without downtime: new v4 assignment and a
            // forced region move for the delegation.
            if self.subs[sub as usize].plan.v4.is_some() {
                if let Some((pool_idx, _)) = self.subs[sub as usize].v4_hold {
                    self.v4_pools[pool_idx].alloc.forget(sub as u64);
                }
                self.attach_v4(t, sub, false);
            }
            if self.subs[sub as usize].plan.v6.is_some() && self.regions.len() > 1 {
                // Administrative renumbering restructures pools *within* the
                // operator's regional deployment (the same BGP aggregate);
                // cross-aggregate moves only happen through the ordinary
                // region-move probability.
                let old_region = self.subs[sub as usize].region;
                let agg = self.regions[old_region].aggregate;
                let candidates: Vec<usize> = (0..self.regions.len())
                    .filter(|&r| r != old_region && self.regions[r].aggregate == agg)
                    .collect();
                let Some(&new_region) =
                    candidates.get(self.rng.gen_range(0..candidates.len().max(1)))
                else {
                    continue;
                };
                if let Some((r, i)) = self.subs[sub as usize].v6_hold.take() {
                    self.regions[r].alloc.release(i);
                    self.regions[r].alloc.forget(sub as u64);
                }
                self.subs[sub as usize].region = new_region;
                self.attach_v6(t, sub, true);
            }
        }
    }

    /// Schedule the subscriber's class migration, if its class has one
    /// configured.
    fn schedule_stabilization(&mut self, t: SimTime, sub: u32) {
        let class_idx = self.subs[sub as usize].plan.class_idx;
        let Some(st) = self
            .cfg
            .stabilization
            .iter()
            .find(|st| st.from_class == class_idx)
            .copied()
        else {
            return;
        };
        let dt = exp_hours(&mut self.rng, st.mean_hours);
        self.queue.schedule(
            t + dt,
            Ev::Stabilize {
                sub,
                to_class: st.to_class,
            },
        );
    }

    /// Migrate the subscriber to `to_class`: adopt its policies without
    /// renumbering anything — the line simply stops (or starts) whatever
    /// the new class does. A previously v4-only line acquires a delegation
    /// when the target class is dual-stack (networks "increasingly
    /// introducing dual-stack", Section 3.2).
    fn on_stabilize(&mut self, t: SimTime, sub: u32, to_class: usize) {
        if self.subs[sub as usize].plan.class_idx == to_class {
            return;
        }
        let target = self.cfg.classes[to_class].clone();
        {
            let s = &mut self.subs[sub as usize];
            s.plan.class_idx = to_class;
            s.plan.dual_stack = target.dual_stack;
            s.plan.v4 = target.v4;
            s.plan.v6 = target.v6;
            s.plan.coupled = target.coupled;
            // The home hardware is unchanged unless the line gains IPv6 for
            // the first time, in which case a CPE behaviour is drawn.
            // Invalidate in-flight timers; new ones follow the new plan.
            s.v4_gen = s.v4_gen.wrapping_add(1);
            s.v6_gen = s.v6_gen.wrapping_add(1);
            s.rot_gen = s.rot_gen.wrapping_add(1);
        }
        if self.subs[sub as usize].plan.v6.is_some() && self.subs[sub as usize].v6_hold.is_none() {
            if !target.cpe_mix.is_empty() {
                let weights: Vec<f64> = target.cpe_mix.iter().map(|(w, _)| *w).collect();
                let pick = weighted_index(&mut self.rng, &weights);
                self.subs[sub as usize].plan.cpe = target.cpe_mix[pick].1;
            }
            self.attach_v6(t, sub, true);
        }
        if self.subs[sub as usize].plan.v6.is_none() {
            // Losing v6 (not used by the shipped profiles, but supported).
            if let Some((r, i)) = self.subs[sub as usize].v6_hold.take() {
                self.regions[r].alloc.release(i);
            }
            self.close_v6(t, sub);
        }
        if self.subs[sub as usize].offline.is_none() {
            self.schedule_periodic_timers(t, sub, true);
        }
    }

    // ----- finalization ---------------------------------------------------

    fn finish(mut self) -> IspSimResult {
        let end = self.window.end;
        let asn = self.cfg.asn;
        let mut timelines = Vec::with_capacity(self.subs.len());
        let mut plans = Vec::with_capacity(self.subs.len());
        for (i, mut s) in std::mem::take(&mut self.subs).into_iter().enumerate() {
            // Close open segments at the window end.
            if let Some((start, addr, cgnat)) = s.v4_open.take() {
                if end > start {
                    s.v4_segments.push(V4Segment {
                        start,
                        end,
                        addr,
                        cgnat,
                    });
                }
            }
            if let Some((start, delegated, lan64)) = s.v6_open.take() {
                if end > start {
                    s.v6_segments.push(V6Segment {
                        start,
                        end,
                        delegated,
                        lan64,
                    });
                }
            }
            let tl = SubscriberTimeline {
                id: SubscriberId {
                    asn,
                    index: i as u32,
                },
                dual_stack: s.plan.dual_stack,
                device_iid: s.plan.device_iid,
                v4: s.v4_segments,
                v6: s.v6_segments,
            };
            debug_assert!(tl.check_invariants().is_ok());
            plans.push(s.plan);
            timelines.push(tl);
        }
        IspSimResult {
            ground_truth: GroundTruth {
                regions: self.regions.iter().map(|r| r.pool.base()).collect(),
                delegated_len: self.cfg.v6_plan.as_ref().map(|p| p.delegated_len),
            },
            config: self.cfg,
            plans,
            timelines,
        }
    }
}
