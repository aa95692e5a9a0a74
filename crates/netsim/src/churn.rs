//! Subscriber churn driving the live IPAM allocator.
//!
//! The discrete-event simulator in [`crate::sim`] models assignment
//! machinery *statistically* to reproduce the paper's observations; this
//! module is its operational twin: each [`Subscriber`] is a stateful DHCP
//! client (reusing the RFC 2131 [`LeaseState`] timers from
//! [`crate::dhcp`]) that acquires, renews, and releases real leases from
//! a live `dynamips_ipam::Ipam` allocator. `dynamips ipam-sim` wires a
//! population of these subscribers to churn profiles — short-lease
//! residential, long-lease static, CGNAT-ish high-churn — and asserts
//! the allocator's conservation invariants while they run.

use crate::dhcp::{LeasePhase, LeaseState};
use crate::time::SimTime;
use dynamips_ipam::{GrantRequest, Ipam, IpamError, Tick};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How a subscriber population treats its addresses. The three profiles
/// bracket the assignment-duration spectrum the paper measures: CGNAT
/// ports churn in hours, residential DHCP in days, static business
/// assignments in months.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnProfile {
    /// Residential DHCP: 24-tick leases, sessions of a few days,
    /// overnight offline gaps.
    Residential,
    /// Static business lines: 720-tick leases, near-permanent sessions.
    Static,
    /// CGNAT-ish churn: 4-tick leases, short sessions, rapid reconnects.
    Cgnat,
}

impl ChurnProfile {
    /// The profile mix used by `ipam-sim`: 5/8 residential, 2/8 CGNAT,
    /// 1/8 static — deterministic in the subscriber id.
    pub fn of(id: u64) -> ChurnProfile {
        match id % 8 {
            0..=4 => ChurnProfile::Residential,
            5 | 6 => ChurnProfile::Cgnat,
            _ => ChurnProfile::Static,
        }
    }

    /// Lease lifetime in simulated ticks (the DHCP
    /// IP-address-lease-time option at hour resolution).
    pub fn lease_ticks(self) -> u64 {
        match self {
            ChurnProfile::Residential => 24,
            ChurnProfile::Static => 720,
            ChurnProfile::Cgnat => 4,
        }
    }

    /// Sampled online-session length in ticks.
    fn session_ticks(self, rng: &mut SmallRng) -> u64 {
        match self {
            ChurnProfile::Residential => rng.gen_range(48..=96),
            ChurnProfile::Static => rng.gen_range(2_000..=4_000),
            ChurnProfile::Cgnat => rng.gen_range(2..=8),
        }
    }

    /// Sampled offline gap before the next session.
    fn offline_ticks(self, rng: &mut SmallRng) -> u64 {
        match self {
            ChurnProfile::Residential => rng.gen_range(2..=8),
            ChurnProfile::Static => rng.gen_range(1..=2),
            ChurnProfile::Cgnat => rng.gen_range(1..=2),
        }
    }

    /// Short human tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            ChurnProfile::Residential => "res",
            ChurnProfile::Static => "static",
            ChurnProfile::Cgnat => "cgnat",
        }
    }
}

/// What one [`Subscriber::step`] did to the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new lease was granted.
    Granted {
        /// Lease id the allocator assigned.
        lease: u64,
        /// Rendered address or delegated prefix.
        address: String,
    },
    /// An existing lease was renewed (its timers restarted).
    Renewed {
        /// The renewed lease id.
        lease: u64,
    },
    /// The session ended and the lease was released.
    Released {
        /// The released lease id.
        lease: u64,
    },
    /// The pool was exhausted; the subscriber backs off and retries.
    Backoff,
}

/// One stateful DHCP client bound to a churn profile. Deterministic: all
/// randomness comes from a [`SmallRng`] seeded from `(seed, id)`, so a
/// fixed seed replays the identical event sequence.
#[derive(Debug)]
pub struct Subscriber {
    id: u64,
    profile: ChurnProfile,
    pool: String,
    location: u64,
    /// Live lease, if online: the allocator's id plus the RFC 2131
    /// timer state that decides when to renew.
    lease: Option<(u64, LeaseState)>,
    /// Tick at which the current session ends (meaningless while
    /// offline).
    session_ends: u64,
    rng: SmallRng,
}

impl Subscriber {
    /// A subscriber drawing from `pool` (location hint `location`), with
    /// the profile mix of [`ChurnProfile::of`].
    pub fn new(seed: u64, id: u64, pool: String, location: u64) -> Subscriber {
        // Same split-mix seeding idiom as the simulator's per-entity
        // streams: decorrelate (seed, id) pairs cheaply.
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1);
        Subscriber {
            id,
            profile: ChurnProfile::of(id),
            pool,
            location,
            lease: None,
            session_ends: 0,
            rng: SmallRng::seed_from_u64(mixed),
        }
    }

    /// The profile this subscriber churns under.
    pub fn profile(&self) -> ChurnProfile {
        self.profile
    }

    /// The live lease id, if online.
    pub fn lease_id(&self) -> Option<u64> {
        self.lease.as_ref().map(|(id, _)| *id)
    }

    /// Advance this subscriber to `now` against the live allocator.
    /// Returns what happened and the next tick at which this subscriber
    /// wants to be stepped again. Offline subscribers grant; online ones
    /// renew at T1 (per [`LeaseState`]) and release when the session
    /// ends. [`IpamError::PoolExhausted`] is survivable ([`ChurnEvent::Backoff`]);
    /// every other error is a driver bug and propagates.
    pub fn step(&mut self, now: u64, ipam: &Ipam) -> Result<(ChurnEvent, u64), IpamError> {
        match self.lease.take() {
            None => match ipam.grant(&GrantRequest {
                pool: Some(&self.pool),
                location: Some(self.location),
                client: self.id,
                now: Tick(now),
                lifetime: self.profile.lease_ticks(),
            }) {
                Ok(grant) => {
                    let state = LeaseState::granted(SimTime(now), self.profile.lease_ticks());
                    self.session_ends = now + self.profile.session_ticks(&mut self.rng);
                    let next = self.next_due(now, &state);
                    let event = ChurnEvent::Granted {
                        lease: grant.id,
                        address: grant.address.to_string(),
                    };
                    self.lease = Some((grant.id, state));
                    Ok((event, next))
                }
                Err(IpamError::PoolExhausted) => {
                    // Exponential-ish jittered retry keeps exhausted
                    // pools from being hammered in lockstep.
                    Ok((ChurnEvent::Backoff, now + self.rng.gen_range(1..=4)))
                }
                Err(e) => Err(e),
            },
            Some((lease_id, mut state)) => {
                if now >= self.session_ends {
                    ipam.revoke(lease_id, Tick(now))?;
                    let next = now + self.profile.offline_ticks(&mut self.rng);
                    return Ok((ChurnEvent::Released { lease: lease_id }, next));
                }
                // Scheduled at T1: renew so an online subscriber never
                // lets its lease lapse (the allocator would reclaim it).
                debug_assert!(state.phase_at(SimTime(now)) != LeasePhase::Expired);
                ipam.renew(lease_id, Tick(now), self.profile.lease_ticks())?;
                state.renew(SimTime(now));
                let next = self.next_due(now, &state);
                self.lease = Some((lease_id, state));
                Ok((ChurnEvent::Renewed { lease: lease_id }, next))
            }
        }
    }

    /// Next tick this subscriber acts: its T1 renewal timer or the end
    /// of its session, whichever comes first (never before `now + 1`).
    fn next_due(&self, now: u64, state: &LeaseState) -> u64 {
        state.t1().0.min(self.session_ends).max(now + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_ipam::{IpamConfig, PoolSpec};

    fn tiny_ipam() -> Ipam {
        let base = match "10.0.0.0/24".parse() {
            Ok(p) => p,
            Err(e) => panic!("bad prefix: {e:?}"),
        };
        let spec = PoolSpec::v4("v4", base, 1, vec![], 0).unwrap();
        Ipam::build(IpamConfig { shards: 1 }, vec![spec]).unwrap()
    }

    #[test]
    fn profile_mix_is_five_two_one_in_eight() {
        let counts = (0..8u64)
            .map(ChurnProfile::of)
            .fold((0, 0, 0), |acc, p| match p {
                ChurnProfile::Residential => (acc.0 + 1, acc.1, acc.2),
                ChurnProfile::Cgnat => (acc.0, acc.1 + 1, acc.2),
                ChurnProfile::Static => (acc.0, acc.1, acc.2 + 1),
            });
        assert_eq!(counts, (5, 2, 1));
    }

    #[test]
    fn subscriber_grants_renews_and_releases_in_order() {
        let ipam = tiny_ipam();
        let mut sub = Subscriber::new(7, 0, "v4".to_string(), 0);
        assert_eq!(sub.profile(), ChurnProfile::Residential);
        let (event, next) = sub.step(0, &ipam).unwrap();
        let lease = match event {
            ChurnEvent::Granted { lease, ref address } => {
                assert!(address.starts_with("10.0.0."), "{address}");
                lease
            }
            other => panic!("expected a grant, got {other:?}"),
        };
        assert_eq!(sub.lease_id(), Some(lease));
        assert_eq!(ipam.live_leases(), 1);
        // The next step lands at T1 (lease 24 → T1 at 12) and renews.
        assert_eq!(next, 12);
        let (event, _) = sub.step(next, &ipam).unwrap();
        assert_eq!(event, ChurnEvent::Renewed { lease });
        // Force the session to its end: the lease is released.
        let (event, _) = sub.step(sub.session_ends, &ipam).unwrap();
        assert_eq!(event, ChurnEvent::Released { lease });
        assert_eq!(ipam.live_leases(), 0);
        assert_eq!(sub.lease_id(), None);
    }

    #[test]
    fn exhausted_pool_backs_off_instead_of_failing() {
        let ipam = tiny_ipam();
        // Drain the /24 completely.
        let mut holders: Vec<Subscriber> = (0..256)
            .map(|i| Subscriber::new(7, i, "v4".to_string(), 0))
            .collect();
        for sub in &mut holders {
            let (event, _) = sub.step(0, &ipam).unwrap();
            assert!(matches!(event, ChurnEvent::Granted { .. }));
        }
        let mut late = Subscriber::new(7, 999, "v4".to_string(), 0);
        let (event, next) = late.step(0, &ipam).unwrap();
        assert_eq!(event, ChurnEvent::Backoff);
        assert!(next > 0);
        assert_eq!(late.lease_id(), None);
    }

    #[test]
    fn same_seed_same_trace() {
        let trace = |seed: u64| -> Vec<ChurnEvent> {
            let ipam = tiny_ipam();
            let mut subs: Vec<Subscriber> = (0..32)
                .map(|i| Subscriber::new(seed, i, "v4".to_string(), 0))
                .collect();
            let mut events = Vec::new();
            for now in 0..64u64 {
                ipam.advance_clock(Tick(now)).unwrap();
                for sub in &mut subs {
                    let (event, _) = sub.step(now, &ipam).unwrap();
                    events.push(event);
                }
            }
            events
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8), "different seeds should diverge");
    }
}
