//! ISP profiles reproducing the networks the paper studies.
//!
//! Each profile encodes, as *mechanism configuration*, what the paper
//! reports about that operator:
//!
//! * Table 1 probe counts and dual-stack fractions,
//! * Section 3.2 renumbering periods (DTAG 24 h, Proximus 1.5 d, Orange 1 w,
//!   BT 2 w; 24-h IPv6 renumbering in DTAG/Versatel/Netcologne/Telefonica
//!   DE/M-net; 12 h in ANTEL; 48 h in Global Village),
//! * Table 2 spatial change rates (diff-/24 and diff-BGP percentages, via
//!   pool weights and near-reassignment probabilities),
//! * Section 5.2 pool structure (region lengths behind the CPL histograms),
//! * Section 5.3 delegation lengths (/56 DTAG/Orange/Sky, /62 Kabel DE,
//!   /48 Netcologne) and CPE behaviours (DTAG prefix scrambling),
//! * Section 4 CDN behaviours (cellular CGNAT multiplexing, session-scoped
//!   /64s, the EE-like long-tail mobile outlier in RIPE).
//!
//! Two "eras" are provided: [`Era::Atlas`] mixes match the 2014–2020
//! longitudinal averages; [`Era::Cdn`] mixes reflect the 2020 state the CDN
//! window sees (the paper notes durations grew over the years, especially
//! in DTAG and Orange, and the CDN only observes dual-stacked clients).

use crate::config::{
    CpeV6Behavior, IspConfig, OutageConfig, Stabilization, SubscriberClass, V4Policy, V4PoolPlan,
    V6Policy, V6PoolPlan,
};
use crate::world::World;
use dynamips_netaddr::{Ipv4Prefix, Ipv6Prefix};
use dynamips_routing::{AccessType, Asn, Rir};

/// Which collection window a profile is being instantiated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Era {
    /// The 2014-09 → 2020-05 RIPE Atlas window (longitudinal mix).
    Atlas,
    /// The 2020-01 → 2020-06 CDN window (late-era mix, dual-stack heavy).
    Cdn,
}

// ---------------------------------------------------------------------------
// small builders
// ---------------------------------------------------------------------------

fn periodic_v4(hours: u64) -> V4Policy {
    V4Policy::PeriodicRenumber {
        period_hours: hours,
        jitter: 0.02,
    }
}

fn sticky_v4(lease_hours: u64) -> V4Policy {
    V4Policy::DhcpSticky { lease_hours }
}

fn periodic_v6(hours: u64) -> V6Policy {
    V6Policy::PeriodicRenumber {
        period_hours: hours,
        jitter: 0.02,
    }
}

fn stable_v6(valid_days: u64) -> V6Policy {
    V6Policy::StableDelegation {
        valid_lifetime_hours: valid_days * 24,
        maintenance_mean_hours: f64::INFINITY,
    }
}

/// Stable delegation with occasional server-side maintenance renumbering
/// (drives v4/v6 change *non*-co-occurrence on Comcast-like networks).
fn stable_v6_maint(valid_days: u64, maintenance_days: f64) -> V6Policy {
    V6Policy::StableDelegation {
        valid_lifetime_hours: valid_days * 24,
        maintenance_mean_hours: maintenance_days * 24.0,
    }
}

/// A profile's IPv4 prefix from its octets, built without parsing. Every
/// literal here is canonical (no host bits), which debug builds assert and
/// `every_profile_validates_at_several_scales` exercises.
fn v4p(octets: [u8; 4], len: u8) -> Ipv4Prefix {
    let bits = u32::from_be_bytes(octets);
    let prefix = Ipv4Prefix::masked(bits, len);
    debug_assert_eq!(prefix.bits(), bits, "host bits set in a profile prefix");
    prefix
}

/// A profile's IPv6 prefix from its two leading 16-bit segments (every
/// profile aggregate is `hi:lo::/len`), built like [`v4p`].
fn v6p([hi, lo]: [u16; 2], len: u8) -> Ipv6Prefix {
    let bits = (u128::from(hi) << 112) | (u128::from(lo) << 96);
    let prefix = Ipv6Prefix::masked(bits, len);
    debug_assert_eq!(prefix.bits(), bits, "host bits set in a profile prefix");
    prefix
}

fn pools(specs: &[(Ipv4Prefix, f64)], p_near: f64) -> V4PoolPlan {
    V4PoolPlan {
        pools: specs.to_vec(),
        announcements: Vec::new(),
        p_near,
        near_radius: 16,
    }
}

/// A typical residential CPE mix: mostly standards-following zero-out
/// devices, a few scramblers and a few vendors numbering LANs from one.
fn cpe_mix_mostly_zero() -> Vec<(f64, CpeV6Behavior)> {
    vec![
        (0.85, CpeV6Behavior::ZeroOut),
        (
            0.08,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        (0.07, CpeV6Behavior::ConstantNonZero),
    ]
}

fn class(
    weight: f64,
    dual_stack: bool,
    v4: Option<V4Policy>,
    v6: Option<V6Policy>,
    coupled: bool,
    cpe_mix: Vec<(f64, CpeV6Behavior)>,
    outages: OutageConfig,
) -> SubscriberClass {
    SubscriberClass {
        weight,
        dual_stack,
        v4,
        v6,
        coupled,
        cpe_mix,
        outages,
    }
}

// ---------------------------------------------------------------------------
// the ten Table-1 ASes (plus Sky UK from Figure 6)
// ---------------------------------------------------------------------------

/// Deutsche Telekom (AS3320). 24-hour renumbering in IPv4 and IPv6, highly
/// synchronized (90.6% same-hour); /56 delegations out of 2003::/19; a large
/// share of CPEs scramble the delegated bits daily.
pub fn dtag(subscribers: u32, era: Era) -> IspConfig {
    // In the longitudinal (Atlas) era many DTAG CPEs re-scramble the
    // delegated bits daily; by the CDN era rotation only happens on
    // reconnect (daily renumbering had largely been phased out, which is
    // also why the paper sees DTAG durations grow over the years).
    let rotate = match era {
        Era::Atlas => Some(24),
        Era::Cdn => None,
    };
    let cpe = vec![
        (0.52, CpeV6Behavior::ZeroOut),
        (
            0.40,
            CpeV6Behavior::Scramble {
                rotate_every_hours: rotate,
            },
        ),
        (0.08, CpeV6Behavior::ConstantNonZero),
    ];
    let q = OutageConfig::quiet();
    let (w_nds, w_ds_periodic, w_ds_stable, w_ds_weekly): (f64, f64, f64, f64) = match era {
        Era::Atlas => (0.32, 0.41, 0.27, 0.0),
        // By 2020 most lines renumber on (roughly weekly) reconnects
        // rather than on a daily timer.
        Era::Cdn => (0.04, 0.008, 0.832, 0.12),
    };
    // ~12% of coupled-era lines renumber the two families independently,
    // landing the paper's 90.6% same-hour simultaneity.
    let w_ds_uncoupled = w_ds_periodic * 0.12;
    let w_ds_coupled = w_ds_periodic - w_ds_uncoupled;
    IspConfig {
        asn: Asn(3320),
        name: "DTAG".into(),
        country: "Germany".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([84, 128, 0, 0], 12), 0.83),
                (v4p([91, 0, 0, 0], 13), 0.17),
            ],
            0.065,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2003, 0], 19)],
            region_len: 40,
            delegated_len: 56,
            regions_per_aggregate: 6,
            p_stay_region: 0.999,
        }),
        classes: vec![
            class(w_nds, false, Some(periodic_v4(24)), None, false, vec![], q),
            class(
                w_ds_coupled,
                true,
                Some(periodic_v4(24)),
                Some(periodic_v6(24)),
                true,
                cpe.clone(),
                q,
            ),
            class(
                w_ds_uncoupled.max(0.001),
                true,
                Some(periodic_v4_jittered(24, 0.2)),
                Some(V6Policy::PeriodicRenumber {
                    period_hours: 24,
                    jitter: 0.2,
                }),
                false,
                cpe.clone(),
                q,
            ),
            class(
                w_ds_stable,
                true,
                Some(sticky_v4(24)),
                Some(stable_v6(14)),
                false,
                cpe.clone(),
                q,
            ),
            class(
                w_ds_weekly.max(0.0005),
                true,
                Some(periodic_v4_jittered(168, 0.6)),
                Some(V6Policy::PeriodicRenumber {
                    period_hours: 168,
                    jitter: 0.6,
                }),
                true,
                cpe,
                q,
            ),
        ],
        // The paper's "durations increased over the years" (Section 3.2):
        // daily-renumbering lines gradually migrate to stable dual-stack
        // provisioning over the longitudinal window.
        stabilization: match era {
            Era::Atlas => vec![
                Stabilization {
                    from_class: 1, // coupled daily renumbering
                    to_class: 3,   // stable dual-stack
                    mean_hours: 9.0 * 365.0 * 24.0,
                },
                Stabilization {
                    from_class: 0, // legacy non-dual-stack
                    to_class: 3,
                    mean_hours: 12.0 * 365.0 * 24.0,
                },
            ],
            Era::Cdn => vec![],
        },
        subscribers,
    }
}

/// Orange France (AS3215). 1-week IPv4 renumbering for legacy lines, stable
/// dual-stack; /56 delegations with 99.7% zeroed trailing bits.
pub fn orange(subscribers: u32, era: Era) -> IspConfig {
    let cpe = vec![
        (0.97, CpeV6Behavior::ZeroOut),
        (
            0.02,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        (0.01, CpeV6Behavior::ConstantNonZero),
    ];
    let q = OutageConfig::quiet();
    let (w_nds, w_ds_periodic, w_ds_stable) = match era {
        Era::Atlas => (0.44, 0.0, 0.56),
        Era::Cdn => (0.05, 0.02, 0.93),
    };
    let mut classes = vec![
        class(w_nds, false, Some(periodic_v4(168)), None, false, vec![], q),
        class(
            w_ds_stable,
            true,
            Some(sticky_v4(168)),
            Some(stable_v6(30)),
            false,
            cpe.clone(),
            q,
        ),
    ];
    if w_ds_periodic > 0.0 {
        classes.push(class(
            w_ds_periodic,
            true,
            Some(periodic_v4(168)),
            Some(stable_v6(30)),
            false,
            cpe,
            q,
        ));
    }
    let stabilization = match era {
        Era::Atlas => vec![Stabilization {
            from_class: 0, // weekly-renumbered legacy lines
            to_class: 1,   // stable dual-stack
            mean_hours: 10.0 * 365.0 * 24.0,
        }],
        Era::Cdn => vec![],
    };
    IspConfig {
        asn: Asn(3215),
        name: "Orange".into(),
        country: "France".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([90, 0, 0, 0], 12), 0.5),
                (v4p([86, 192, 0, 0], 13), 0.3),
                (v4p([92, 128, 0, 0], 13), 0.2),
            ],
            0.01,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2a01, 0xc000], 20), v6p([0x2a01, 0xd000], 20)],
            region_len: 36,
            delegated_len: 56,
            regions_per_aggregate: 4,
            p_stay_region: 0.97,
        }),
        classes,
        stabilization,
        subscribers,
    }
}

/// Comcast (AS7922). Sticky DHCP on both families, long durations, changes
/// driven by outages and not synchronized between v4 and v6; /60
/// delegations; about half of the rare IPv4 changes stay inside the /24.
pub fn comcast(subscribers: u32, era: Era) -> IspConfig {
    let cpe = vec![
        (0.75, CpeV6Behavior::ZeroOut),
        (
            0.15,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        (0.10, CpeV6Behavior::ConstantNonZero),
    ];
    // More eventful than the quiet default: visible but rare changes.
    let outages = OutageConfig {
        cpe_outage_mean_interval_hours: 60.0 * 24.0,
        cpe_outage_mean_duration_hours: 1.0,
        long_outage_mean_interval_hours: 200.0 * 24.0,
        long_outage_mean_duration_hours: 7.0 * 24.0,
        infra_outage_mean_interval_hours: 2000.0 * 24.0,
        admin_renumber_mean_interval_hours: 3000.0 * 24.0,
    };
    let w_nds = match era {
        Era::Atlas => 0.32,
        Era::Cdn => 0.05,
    };
    let v4_pools: Vec<(Ipv4Prefix, f64)> = vec![
        (v4p([24, 0, 0, 0], 14), 0.1),
        (v4p([24, 4, 0, 0], 14), 0.1),
        (v4p([67, 160, 0, 0], 14), 0.1),
        (v4p([68, 32, 0, 0], 14), 0.1),
        (v4p([69, 136, 0, 0], 14), 0.1),
        (v4p([71, 192, 0, 0], 14), 0.1),
        (v4p([73, 0, 0, 0], 14), 0.1),
        (v4p([75, 64, 0, 0], 14), 0.1),
        (v4p([76, 16, 0, 0], 14), 0.1),
        (v4p([98, 192, 0, 0], 14), 0.1),
    ];
    IspConfig {
        asn: Asn(7922),
        name: "Comcast".into(),
        country: "U.S.".into(),
        rir: Rir::Arin,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(&v4_pools, 0.58)),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![
                v6p([0x2601, 0], 24),
                v6p([0x2601, 0x100], 24),
                v6p([0x2601, 0x200], 24),
                v6p([0x2601, 0x300], 24),
            ],
            region_len: 40,
            delegated_len: 60,
            regions_per_aggregate: 2,
            p_stay_region: 0.88,
        }),
        classes: vec![
            class(
                w_nds,
                false,
                Some(sticky_v4(96)),
                None,
                false,
                vec![],
                outages,
            ),
            class(
                1.0 - w_nds,
                true,
                Some(sticky_v4(96)),
                Some(stable_v6_maint(30, 300.0)),
                false,
                cpe,
                outages,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

/// Liberty Global (AS6830). Moderately dynamic IPv4 (monthly-ish), stable
/// IPv6 out of /44-grained regions; only 14% of v4 changes cross BGP
/// prefixes (two unevenly-sized pools).
pub fn lgi(subscribers: u32, era: Era) -> IspConfig {
    let q = OutageConfig::quiet();
    let (w_nds, w_ds_periodic, w_ds_stable) = match era {
        Era::Atlas => (0.68, 0.32, 0.0),
        Era::Cdn => (0.05, 0.28, 0.67),
    };
    IspConfig {
        asn: Asn(6830),
        name: "LGI".into(),
        country: "many".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([80, 56, 0, 0], 13), 0.86),
                (v4p([24, 132, 0, 0], 14), 0.14),
            ],
            0.44,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2a02, 0x8000], 24)],
            region_len: 44,
            delegated_len: 56,
            regions_per_aggregate: 6,
            p_stay_region: 0.98,
        }),
        classes: {
            let mut classes = vec![
                class(
                    w_nds,
                    false,
                    Some(periodic_v4_jittered(500, 0.5)),
                    None,
                    false,
                    vec![],
                    q,
                ),
                class(
                    w_ds_periodic,
                    true,
                    Some(periodic_v4_jittered(400, 0.5)),
                    Some(stable_v6_maint(14, 350.0)),
                    false,
                    cpe_mix_mostly_zero(),
                    q,
                ),
            ];
            if w_ds_stable > 0.0 {
                classes.push(class(
                    w_ds_stable,
                    true,
                    Some(sticky_v4(96)),
                    Some(stable_v6_maint(21, 350.0)),
                    false,
                    cpe_mix_mostly_zero(),
                    q,
                ));
            }
            classes
        },
        stabilization: vec![],
        subscribers,
    }
}

fn periodic_v4_jittered(hours: u64, jitter: f64) -> V4Policy {
    V4Policy::PeriodicRenumber {
        period_hours: hours,
        jitter,
    }
}

/// BT (AS2856). 2-week IPv4 renumbering; stable /56 delegations; bimodal
/// CPL structure (regions at /44 inside /28 metros).
pub fn bt(subscribers: u32, era: Era) -> IspConfig {
    let q = OutageConfig::quiet();
    let (w_nds, w_ds_periodic, w_ds_stable) = match era {
        Era::Atlas => (0.66, 0.17, 0.17),
        Era::Cdn => (0.04, 0.12, 0.84),
    };
    IspConfig {
        asn: Asn(2856),
        name: "BT".into(),
        country: "U.K.".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([81, 128, 0, 0], 13), 0.65),
                (v4p([86, 128, 0, 0], 14), 0.25),
                (v4p([109, 144, 0, 0], 15), 0.10),
            ],
            0.06,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2a00, 0x2380], 25)],
            region_len: 44,
            delegated_len: 56,
            regions_per_aggregate: 8,
            p_stay_region: 0.94,
        }),
        classes: vec![
            class(w_nds, false, Some(periodic_v4(336)), None, false, vec![], q),
            class(
                w_ds_periodic,
                true,
                Some(periodic_v4(336)),
                Some(stable_v6(21)),
                false,
                cpe_mix_mostly_zero(),
                q,
            ),
            class(
                w_ds_stable,
                true,
                Some(sticky_v4(168)),
                Some(stable_v6(21)),
                false,
                cpe_mix_mostly_zero(),
                q,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

/// Proximus (AS5432). 1.5-day IPv4 renumbering; a share of dual-stack lines
/// renumber the delegation on the same cadence.
pub(crate) fn proximus(subscribers: u32, era: Era) -> IspConfig {
    let q = OutageConfig::quiet();
    let (w_nds, w_ds_coupled, w_ds_stable) = match era {
        Era::Atlas => (0.44, 0.22, 0.34),
        Era::Cdn => (0.04, 0.03, 0.93),
    };
    IspConfig {
        asn: Asn(5432),
        name: "Proximus".into(),
        country: "Belgium".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([87, 64, 0, 0], 13), 0.5),
                (v4p([91, 176, 0, 0], 13), 0.3),
                (v4p([178, 116, 0, 0], 14), 0.2),
            ],
            0.13,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2a02, 0xa000], 21)],
            region_len: 40,
            delegated_len: 56,
            regions_per_aggregate: 6,
            p_stay_region: 0.999,
        }),
        classes: vec![
            class(w_nds, false, Some(periodic_v4(36)), None, false, vec![], q),
            class(
                w_ds_coupled,
                true,
                Some(periodic_v4(36)),
                Some(periodic_v6(36)),
                true,
                cpe_mix_mostly_zero(),
                q,
            ),
            class(
                w_ds_stable,
                true,
                Some(sticky_v4(48)),
                Some(stable_v6(21)),
                false,
                cpe_mix_mostly_zero(),
                q,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

/// Versatel (AS8881). 24-hour renumbering on both families, coupled.
pub(crate) fn versatel(subscribers: u32, era: Era) -> IspConfig {
    let rotate = match era {
        Era::Atlas => Some(24),
        Era::Cdn => None,
    };
    let cpe = vec![
        (0.55, CpeV6Behavior::ZeroOut),
        (
            0.35,
            CpeV6Behavior::Scramble {
                rotate_every_hours: rotate,
            },
        ),
        (0.10, CpeV6Behavior::ConstantNonZero),
    ];
    let q = OutageConfig::quiet();
    let (w_nds, w_ds, w_ds_stable) = match era {
        Era::Atlas => (0.29, 0.71, 0.0),
        Era::Cdn => (0.04, 0.10, 0.86),
    };
    let mut classes = vec![
        class(w_nds, false, Some(periodic_v4(24)), None, false, vec![], q),
        class(
            w_ds,
            true,
            Some(periodic_v4(24)),
            Some(periodic_v6(24)),
            true,
            cpe.clone(),
            q,
        ),
    ];
    if w_ds_stable > 0.0 {
        classes.push(class(
            w_ds_stable,
            true,
            Some(sticky_v4(24)),
            Some(stable_v6(14)),
            false,
            cpe,
            q,
        ));
    }
    IspConfig {
        asn: Asn(8881),
        name: "Versatel".into(),
        country: "Germany".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([89, 244, 0, 0], 14), 0.55),
                (v4p([62, 214, 0, 0], 15), 0.30),
                (v4p([212, 7, 128, 0], 17), 0.15),
            ],
            0.074,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2001, 0x16b8], 32)],
            region_len: 44,
            delegated_len: 56,
            regions_per_aggregate: 4,
            p_stay_region: 0.99,
        }),
        classes,
        stabilization: vec![],
        subscribers,
    }
}

/// Netcologne (AS8422). 24-hour renumbering; delegates entire /48s to
/// individual subscribers (with drastic anonymization implications, as the
/// paper notes).
pub fn netcologne(subscribers: u32, era: Era) -> IspConfig {
    let cpe = vec![
        (0.90, CpeV6Behavior::ZeroOut),
        (
            0.05,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        (0.05, CpeV6Behavior::ConstantNonZero),
    ];
    let q = OutageConfig::quiet();
    let (w_nds, w_ds, w_ds_stable) = match era {
        Era::Atlas => (0.07, 0.93, 0.0),
        Era::Cdn => (0.03, 0.10, 0.87),
    };
    let mut classes = vec![
        class(w_nds, false, Some(periodic_v4(24)), None, false, vec![], q),
        class(
            w_ds,
            true,
            Some(periodic_v4(24)),
            Some(periodic_v6(24)),
            true,
            cpe.clone(),
            q,
        ),
    ];
    if w_ds_stable > 0.0 {
        classes.push(class(
            w_ds_stable,
            true,
            Some(sticky_v4(48)),
            Some(stable_v6(14)),
            false,
            cpe,
            q,
        ));
    }
    IspConfig {
        asn: Asn(8422),
        name: "Netcologne".into(),
        country: "Germany".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([78, 34, 0, 0], 15), 0.60),
                (v4p([89, 0, 0, 0], 16), 0.25),
                (v4p([176, 199, 0, 0], 16), 0.15),
            ],
            0.01,
        )),
        v6_plan: Some(V6PoolPlan {
            // Regions must hold thousands of /48s: with daily renumbering a
            // small pool would re-issue recently-held delegations, which
            // both looks unrealistic and trips multihoming detection.
            aggregates: vec![v6p([0x2001, 0x4dd0], 31), v6p([0x2001, 0x4dd2], 31)],
            region_len: 36,
            delegated_len: 48,
            regions_per_aggregate: 8,
            p_stay_region: 0.88,
        }),
        classes,
        stabilization: vec![],
        subscribers,
    }
}

/// Free SAS (AS12322). Sticky addressing with occasional outage-driven
/// changes; notable share of IPv6 changes cross BGP prefixes (42%).
pub(crate) fn free_sas(subscribers: u32, era: Era) -> IspConfig {
    let cpe = vec![
        (0.85, CpeV6Behavior::ZeroOut),
        (
            0.05,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        (0.10, CpeV6Behavior::ConstantNonZero),
    ];
    let outages = OutageConfig {
        cpe_outage_mean_interval_hours: 70.0 * 24.0,
        cpe_outage_mean_duration_hours: 1.5,
        long_outage_mean_interval_hours: 250.0 * 24.0,
        long_outage_mean_duration_hours: 9.0 * 24.0,
        infra_outage_mean_interval_hours: 600.0 * 24.0,
        admin_renumber_mean_interval_hours: 1400.0 * 24.0,
    };
    let w_nds = match era {
        Era::Atlas => 0.35,
        Era::Cdn => 0.04,
    };
    IspConfig {
        asn: Asn(12322),
        name: "Free SAS".into(),
        country: "France".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([82, 224, 0, 0], 14), 0.40),
                (v4p([88, 160, 0, 0], 14), 0.25),
                (v4p([78, 192, 0, 0], 14), 0.20),
                (v4p([37, 160, 0, 0], 15), 0.15),
            ],
            0.0,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2a01, 0xe000], 27), v6p([0x2a01, 0xe200], 27)],
            region_len: 40,
            delegated_len: 60,
            regions_per_aggregate: 4,
            p_stay_region: 0.05,
        }),
        classes: vec![
            class(
                w_nds,
                false,
                Some(sticky_v4(168)),
                None,
                false,
                vec![],
                outages,
            ),
            class(
                1.0 - w_nds,
                true,
                Some(sticky_v4(168)),
                Some(stable_v6(10)),
                false,
                cpe,
                outages,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

/// Vodafone Kabel Deutschland (AS31334). Stable dual-stack; branded CPEs
/// request /62 delegations.
pub fn kabel_de(subscribers: u32, era: Era) -> IspConfig {
    let cpe = vec![
        (0.80, CpeV6Behavior::ZeroOut),
        (
            0.10,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        (0.10, CpeV6Behavior::ConstantNonZero),
    ];
    let q = OutageConfig::quiet();
    let w_nds = match era {
        Era::Atlas => 0.45,
        Era::Cdn => 0.04,
    };
    IspConfig {
        asn: Asn(31334),
        name: "Kabel DE".into(),
        country: "Germany".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([95, 112, 0, 0], 13), 0.40),
                (v4p([188, 192, 0, 0], 14), 0.25),
                (v4p([77, 20, 0, 0], 14), 0.20),
                (v4p([109, 192, 0, 0], 15), 0.15),
            ],
            0.17,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2a02, 0x810], 32), v6p([0x2a02, 0x811], 32)],
            region_len: 44,
            delegated_len: 62,
            regions_per_aggregate: 4,
            p_stay_region: 0.90,
        }),
        classes: vec![
            class(
                w_nds,
                false,
                Some(periodic_v4_jittered(720, 0.5)),
                None,
                false,
                vec![],
                q,
            ),
            class(
                1.0 - w_nds,
                true,
                Some(sticky_v4(96)),
                Some(stable_v6(20)),
                false,
                cpe,
                q,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

/// Sky UK (AS5607). Stable addressing; verified /56 delegations.
pub(crate) fn sky_uk(subscribers: u32, era: Era) -> IspConfig {
    let q = OutageConfig::quiet();
    let w_nds = match era {
        Era::Atlas => 0.20,
        Era::Cdn => 0.03,
    };
    IspConfig {
        asn: Asn(5607),
        name: "Sky U.K.".into(),
        country: "U.K.".into(),
        rir: Rir::RipeNcc,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(
            &[
                (v4p([90, 192, 0, 0], 13), 0.7),
                (v4p([2, 216, 0, 0], 14), 0.3),
            ],
            0.05,
        )),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6p([0x2a02, 0xc7c], 32)],
            region_len: 40,
            delegated_len: 56,
            regions_per_aggregate: 4,
            p_stay_region: 0.99,
        }),
        classes: vec![
            class(w_nds, false, Some(sticky_v4(168)), None, false, vec![], q),
            class(
                1.0 - w_nds,
                true,
                Some(sticky_v4(168)),
                Some(stable_v6(30)),
                false,
                vec![
                    (0.92, CpeV6Behavior::ZeroOut),
                    (
                        0.04,
                        CpeV6Behavior::Scramble {
                            rotate_every_hours: None,
                        },
                    ),
                    (0.04, CpeV6Behavior::ConstantNonZero),
                ],
                q,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

// ---------------------------------------------------------------------------
// additional periodic-renumbering ASes named in Section 3.2
// ---------------------------------------------------------------------------

/// A small fixed-line ISP with coupled periodic renumbering on both
/// families — the template for Telefonica DE / M-net / ANTEL / Global
/// Village, which the paper names as periodic IPv6 renumberers.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per calibrated profile knob, named at each call site"
)]
fn small_periodic_isp(
    asn: u32,
    name: &str,
    country: &str,
    rir: Rir,
    v4_pool: Ipv4Prefix,
    v6_agg: Ipv6Prefix,
    period_hours: u64,
    delegated_len: u8,
    subscribers: u32,
) -> IspConfig {
    let q = OutageConfig::quiet();
    IspConfig {
        asn: Asn(asn),
        name: name.into(),
        country: country.into(),
        rir,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(&[(v4_pool, 1.0)], 0.05)),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6_agg],
            region_len: 40.max(delegated_len.saturating_sub(16)),
            delegated_len,
            regions_per_aggregate: 4,
            p_stay_region: 0.995,
        }),
        classes: vec![
            class(
                0.3,
                false,
                Some(periodic_v4(period_hours)),
                None,
                false,
                vec![],
                q,
            ),
            class(
                0.7,
                true,
                Some(periodic_v4(period_hours)),
                Some(periodic_v6(period_hours)),
                true,
                cpe_mix_mostly_zero(),
                q,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

/// A stable US-style fixed ISP (Charter/Cox/AT&T/TimeWarner template): the
/// paper finds these have assignment durations similar to Comcast.
fn us_stable_isp(
    asn: u32,
    name: &str,
    v4_pool: Ipv4Prefix,
    v6_agg: Ipv6Prefix,
    delegated_len: u8,
    subscribers: u32,
) -> IspConfig {
    let outages = OutageConfig {
        cpe_outage_mean_interval_hours: 70.0 * 24.0,
        cpe_outage_mean_duration_hours: 1.0,
        long_outage_mean_interval_hours: 260.0 * 24.0,
        long_outage_mean_duration_hours: 6.0 * 24.0,
        infra_outage_mean_interval_hours: 550.0 * 24.0,
        admin_renumber_mean_interval_hours: 1300.0 * 24.0,
    };
    IspConfig {
        asn: Asn(asn),
        name: name.into(),
        country: "U.S.".into(),
        rir: Rir::Arin,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(&[(v4_pool, 1.0)], 0.45)),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6_agg],
            region_len: 40,
            delegated_len,
            regions_per_aggregate: 4,
            p_stay_region: 0.97,
        }),
        classes: vec![
            class(
                0.3,
                false,
                Some(sticky_v4(96)),
                None,
                false,
                vec![],
                outages,
            ),
            class(
                0.7,
                true,
                Some(sticky_v4(96)),
                Some(stable_v6(14)),
                false,
                cpe_mix_mostly_zero(),
                outages,
            ),
        ],
        stabilization: vec![],
        subscribers,
    }
}

// ---------------------------------------------------------------------------
// cellular operators (CDN world)
// ---------------------------------------------------------------------------

/// A cellular operator: CGNAT'd IPv4, session-scoped /64 delegations with
/// a heavy-tailed session-lifetime distribution. The paper finds 75% of
/// mobile associations last ≤ 1 day with a tail to ~30 days; the EE-like
/// outlier in RIPE reaches ~50 days.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per calibrated profile knob, named at each call site"
)]
pub(crate) fn mobile_isp(
    asn: u32,
    name: &str,
    country: &str,
    rir: Rir,
    cgnat_pool: Ipv4Prefix,
    v6_agg: Ipv6Prefix,
    mean_session_hours: f64,
    tail_max_days: f64,
    tail_prob: f64,
    subscribers: u32,
) -> IspConfig {
    let q = OutageConfig::none(); // session churn dominates; outages are noise
    IspConfig {
        asn: Asn(asn),
        name: name.into(),
        country: country.into(),
        rir,
        access: AccessType::Cellular,
        v4_plan: Some(V4PoolPlan {
            pools: vec![(cgnat_pool, 1.0)],
            announcements: Vec::new(),
            p_near: 0.0,
            near_radius: 0,
        }),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6_agg],
            region_len: 44,
            delegated_len: 64,
            regions_per_aggregate: 4,
            p_stay_region: 0.9,
        }),
        classes: vec![class(
            1.0,
            true,
            Some(V4Policy::CgnatShared {
                rebind_prob: 0.5,
                check_interval_hours: 24.0,
            }),
            Some(V6Policy::SessionBased {
                mean_session_hours,
                tail_prob,
                tail_max_hours: tail_max_days * 24.0,
            }),
            true,
            // Devices use the /64 as-is; no CPE bit games on cellular.
            vec![(1.0, CpeV6Behavior::ZeroOut)],
            q,
        )],
        stabilization: vec![],
        subscribers,
    }
}

// ---------------------------------------------------------------------------
// per-RIR background fixed ISPs (CDN world, Figures 3 and 7)
// ---------------------------------------------------------------------------

/// A generic stable fixed-line ISP used to populate registries in the CDN
/// world. `delegated_len` and the CPE mix control the Figure-7 trailing-zero
/// signature; `change_interval_days` controls Figure-3 association durations.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per calibrated profile knob, named at each call site"
)]
pub(crate) fn background_fixed_isp(
    asn: u32,
    name: &str,
    rir: Rir,
    v4_pool: Ipv4Prefix,
    v6_agg: Ipv6Prefix,
    delegated_len: u8,
    zero_out_frac: f64,
    change_interval_days: f64,
    subscribers: u32,
) -> IspConfig {
    let rest = (1.0 - zero_out_frac).max(0.0);
    let cpe = vec![
        (zero_out_frac.max(0.001), CpeV6Behavior::ZeroOut),
        (
            rest * 0.6 + 0.001,
            CpeV6Behavior::Scramble {
                rotate_every_hours: None,
            },
        ),
        (rest * 0.4 + 0.001, CpeV6Behavior::ConstantNonZero),
    ];
    // Long outages drive the changes: both families renumber when the lease
    // is outlived, which makes association durations track
    // `change_interval_days`.
    let outages = OutageConfig {
        cpe_outage_mean_interval_hours: 80.0 * 24.0,
        cpe_outage_mean_duration_hours: 1.0,
        long_outage_mean_interval_hours: change_interval_days * 24.0,
        long_outage_mean_duration_hours: 36.0,
        infra_outage_mean_interval_hours: 600.0 * 24.0,
        admin_renumber_mean_interval_hours: 1500.0 * 24.0,
    };
    IspConfig {
        asn: Asn(asn),
        name: name.into(),
        country: rir.label().into(),
        rir,
        access: AccessType::FixedLine,
        v4_plan: Some(pools(&[(v4_pool, 1.0)], 0.3)),
        v6_plan: Some(V6PoolPlan {
            aggregates: vec![v6_agg],
            region_len: 40.max(delegated_len.saturating_sub(16)),
            delegated_len,
            regions_per_aggregate: 4,
            p_stay_region: 0.97,
        }),
        classes: vec![class(
            1.0,
            true,
            Some(sticky_v4(24)),
            Some(stable_v6(1)),
            false,
            cpe,
            outages,
        )],
        stabilization: vec![],
        subscribers,
    }
}

/// Shrink an ISP's IPv4 pools so the simulated subscriber population fills
/// them at realistic density (~70% of a /24's addresses active, matching
/// Richter et al.'s measurement the paper leans on for Figure 4). The
/// simulated subscribers stand for a contiguous slice of the real ISP, so
/// each pool is replaced by its lowest sub-block of the appropriate size;
/// announcements keep covering the shrunk pools. Only used for the CDN-era
/// world — Atlas-side analyses never look at per-/24 density.
pub(crate) fn densify_v4(mut cfg: IspConfig) -> IspConfig {
    const TARGET_OCCUPANCY: f64 = 0.7;
    if let Some(plan) = &mut cfg.v4_plan {
        if plan.announcements.is_empty() {
            // Keep announcing the original (large) blocks.
            plan.announcements = plan.pools.iter().map(|(p, _)| *p).collect();
        }
        let total_w: f64 = plan.pools.iter().map(|(_, w)| *w).sum();
        for (pool, w) in plan.pools.iter_mut() {
            let share = cfg.subscribers as f64 * (*w / total_w);
            let want = (share / TARGET_OCCUPANCY).max(256.0);
            let bits = (want.log2().ceil() as u8).clamp(8, 32 - pool.len());
            let new_len = 32 - bits;
            if new_len > pool.len() {
                // The lowest sub-block: the pool's own network bits.
                *pool = Ipv4Prefix::masked(pool.bits(), new_len);
            }
        }
    }
    cfg
}

// ---------------------------------------------------------------------------
// world assembly
// ---------------------------------------------------------------------------

/// Table-1 probe counts (the "All probes" column).
#[cfg(test)]
pub(crate) const ATLAS_PROBE_COUNTS: [(&str, u32); 11] = [
    ("DTAG", 589),
    ("Comcast", 415),
    ("Orange", 425),
    ("LGI", 445),
    ("Free SAS", 138),
    ("Kabel DE", 152),
    ("Proximus", 114),
    ("Versatel", 80),
    ("BT", 170),
    ("Netcologne", 43),
    ("Sky U.K.", 45),
];

/// Add a code-defined profile to `world`.
/// `every_profile_validates_at_several_scales` checks that `World::add_isp`
/// accepts each one; debug builds assert it, and a release build would
/// leave an invalid profile out of the world rather than abort.
fn add_profile(world: &mut World, cfg: IspConfig) {
    let added = world.add_isp(cfg);
    debug_assert!(added.is_ok(), "invalid profile: {added:?}");
}

/// The RIPE-Atlas-era world: the eleven named ASes at their Table-1 probe
/// counts (scaled by `scale`), plus the additional periodic renumberers of
/// Section 3.2 and a set of stable US ISPs.
pub fn atlas_world(seed: u64, scale: f64) -> World {
    let n = |base: u32| ((base as f64 * scale).round() as u32).max(2);
    let mut world = World::new(seed);
    let mut add = |cfg| add_profile(&mut world, cfg);
    add(dtag(n(589), Era::Atlas));
    add(comcast(n(415), Era::Atlas));
    add(orange(n(425), Era::Atlas));
    add(lgi(n(445), Era::Atlas));
    add(free_sas(n(138), Era::Atlas));
    add(kabel_de(n(152), Era::Atlas));
    add(proximus(n(114), Era::Atlas));
    add(versatel(n(80), Era::Atlas));
    add(bt(n(170), Era::Atlas));
    add(netcologne(n(43), Era::Atlas));
    add(sky_uk(n(45), Era::Atlas));
    // Other periodic renumberers called out in Section 3.2.
    add(small_periodic_isp(
        6805,
        "Telefonica DE",
        "Germany",
        Rir::RipeNcc,
        v4p([88, 64, 0, 0], 14),
        v6p([0x2a02, 0x3030], 28),
        24,
        56,
        n(30),
    ));
    add(small_periodic_isp(
        8767,
        "M-net",
        "Germany",
        Rir::RipeNcc,
        v4p([93, 104, 0, 0], 15),
        v6p([0x2001, 0xa60], 32),
        24,
        56,
        n(25),
    ));
    add(small_periodic_isp(
        6057,
        "ANTEL",
        "Uruguay",
        Rir::Lacnic,
        v4p([167, 56, 0, 0], 14),
        v6p([0x2800, 0xa0], 28),
        12,
        56,
        n(25),
    ));
    add(small_periodic_isp(
        18881,
        "Global Village",
        "Brazil",
        Rir::Lacnic,
        v4p([177, 140, 0, 0], 14),
        v6p([0x2804, 0x14c], 31),
        48,
        56,
        n(25),
    ));
    // Additional periodic renumberers (anonymized stand-ins for the rest of
    // the paper's 35 networks with consistent periodic renumbering).
    for (asn, name, country, rir, v4, v6, period) in [
        (
            64710u32,
            "EU-Periodic-A",
            "Germany",
            Rir::RipeNcc,
            v4p([91, 192, 0, 0], 15),
            v6p([0x2a07, 0x1000], 32),
            24u64,
        ),
        (
            64711,
            "EU-Periodic-B",
            "Austria",
            Rir::RipeNcc,
            v4p([91, 194, 0, 0], 15),
            v6p([0x2a07, 0x2000], 32),
            24,
        ),
        (
            64712,
            "EU-Periodic-C",
            "Switzerland",
            Rir::RipeNcc,
            v4p([91, 196, 0, 0], 15),
            v6p([0x2a07, 0x3000], 32),
            36,
        ),
        (
            64713,
            "EU-Periodic-D",
            "Italy",
            Rir::RipeNcc,
            v4p([91, 198, 0, 0], 15),
            v6p([0x2a07, 0x4000], 32),
            48,
        ),
        (
            64714,
            "EU-Periodic-E",
            "Spain",
            Rir::RipeNcc,
            v4p([91, 200, 0, 0], 15),
            v6p([0x2a07, 0x5000], 32),
            72,
        ),
        (
            64715,
            "EU-Periodic-F",
            "Poland",
            Rir::RipeNcc,
            v4p([91, 202, 0, 0], 15),
            v6p([0x2a07, 0x6000], 32),
            168,
        ),
        (
            64716,
            "AP-Periodic-A",
            "Japan",
            Rir::Apnic,
            v4p([126, 160, 0, 0], 15),
            v6p([0x240d, 0x1000], 32),
            336,
        ),
        (
            64717,
            "AP-Periodic-B",
            "Korea",
            Rir::Apnic,
            v4p([126, 162, 0, 0], 15),
            v6p([0x240d, 0x2000], 32),
            24,
        ),
    ] {
        add(small_periodic_isp(
            asn,
            name,
            country,
            rir,
            v4,
            v6,
            period,
            56,
            n(22),
        ));
    }
    // Stable US operators with Comcast-like durations.
    add(us_stable_isp(
        20115,
        "Charter",
        v4p([66, 168, 0, 0], 14),
        v6p([0x2600, 0x6c00], 26),
        56,
        n(35),
    ));
    add(us_stable_isp(
        22773,
        "Cox",
        v4p([68, 96, 0, 0], 14),
        v6p([0x2600, 0x8800], 26),
        56,
        n(30),
    ));
    add(us_stable_isp(
        7018,
        "AT&T",
        v4p([99, 0, 0, 0], 14),
        v6p([0x2600, 0x1700], 26),
        60,
        n(35),
    ));
    add(us_stable_isp(
        20001,
        "TimeWarner",
        v4p([66, 74, 0, 0], 15),
        v6p([0x2603, 0x8000], 26),
        56,
        n(30),
    ));
    world
}

/// The CDN-era world: late-era mixes of the named ASes, per-RIR background
/// fixed populations (tuned to the Figure-7 trailing-zero signatures and
/// Figure-3 durations), and cellular operators in every registry.
pub fn cdn_world(seed: u64, scale: f64) -> World {
    let n = |base: u32| ((base as f64 * scale).round() as u32).max(4);
    let mut world = World::new(seed);
    let mut add = |cfg| add_profile(&mut world, cfg);
    // Named fixed ASes.
    add(densify_v4(dtag(n(2500), Era::Cdn)));
    add(densify_v4(comcast(n(2500), Era::Cdn)));
    add(densify_v4(orange(n(2500), Era::Cdn)));
    add(densify_v4(lgi(n(2000), Era::Cdn)));
    add(densify_v4(free_sas(n(1500), Era::Cdn)));
    add(densify_v4(kabel_de(n(1500), Era::Cdn)));
    add(densify_v4(proximus(n(1200), Era::Cdn)));
    add(densify_v4(versatel(n(400), Era::Cdn)));
    add(densify_v4(bt(n(2000), Era::Cdn)));
    add(densify_v4(netcologne(n(300), Era::Cdn)));
    add(densify_v4(sky_uk(n(1500), Era::Cdn)));

    // ARIN: very long fixed durations (median near the whole window);
    // 30% /60 + 27% /56 inferable (plus Comcast's /60s).
    add(densify_v4(background_fixed_isp(
        64600,
        "ARIN-Fiber",
        Rir::Arin,
        v4p([63, 224, 0, 0], 14),
        v6p([0x2600, 0x4000], 26),
        60,
        0.93,
        500.0,
        n(3200),
    )));
    add(densify_v4(background_fixed_isp(
        64601,
        "ARIN-Cable",
        Rir::Arin,
        v4p([70, 160, 0, 0], 14),
        v6p([0x2610, 0x100], 28),
        56,
        0.92,
        480.0,
        n(3000),
    )));
    add(densify_v4(background_fixed_isp(
        64602,
        "ARIN-DSL",
        Rir::Arin,
        v4p([74, 32, 0, 0], 14),
        v6p([0x2620, 0x200], 28),
        64,
        0.0,
        460.0,
        n(4300),
    )));

    // RIPE background: heavy /56 usage (>60% of /64s with 8 trailing zeros).
    add(densify_v4(background_fixed_isp(
        64610,
        "RIPE-Fiber",
        Rir::RipeNcc,
        v4p([77, 128, 0, 0], 14),
        v6p([0x2a03, 0x4000], 26),
        56,
        0.95,
        250.0,
        n(6000),
    )));
    add(densify_v4(background_fixed_isp(
        64611,
        "RIPE-DSL",
        Rir::RipeNcc,
        v4p([93, 192, 0, 0], 14),
        v6p([0x2a05, 0x1000], 28),
        56,
        0.9,
        170.0,
        n(2700),
    )));
    add(densify_v4(background_fixed_isp(
        64612,
        "RIPE-Cable",
        Rir::RipeNcc,
        v4p([95, 32, 0, 0], 14),
        v6p([0x2a0a, 0x2000], 28),
        64,
        0.0,
        210.0,
        n(350),
    )));

    // APNIC: mixed; includes a Japanese-style /48 delegator.
    add(densify_v4(background_fixed_isp(
        64620,
        "APNIC-Fiber",
        Rir::Apnic,
        v4p([111, 64, 0, 0], 14),
        v6p([0x2400, 0x4000], 26),
        56,
        0.9,
        280.0,
        n(2900),
    )));
    add(densify_v4(background_fixed_isp(
        64621,
        "APNIC-NTT",
        Rir::Apnic,
        v4p([118, 0, 0, 0], 14),
        v6p([0x2408, 0x200], 28),
        48,
        0.85,
        300.0,
        n(1100),
    )));
    add(densify_v4(background_fixed_isp(
        64622,
        "APNIC-DSL",
        Rir::Apnic,
        v4p([119, 224, 0, 0], 14),
        v6p([0x240e, 0x400], 28),
        64,
        0.0,
        230.0,
        n(2400),
    )));

    // LACNIC: mostly /64 (only ~15% inferable).
    add(densify_v4(background_fixed_isp(
        64630,
        "LACNIC-Cable",
        Rir::Lacnic,
        v4p([179, 0, 0, 0], 14),
        v6p([0x2800, 0x4000], 26),
        64,
        0.0,
        190.0,
        n(3800),
    )));
    add(densify_v4(background_fixed_isp(
        64631,
        "LACNIC-Fiber",
        Rir::Lacnic,
        v4p([186, 0, 0, 0], 14),
        v6p([0x2803, 0x800], 28),
        60,
        0.55,
        210.0,
        n(900),
    )));

    // AFRINIC: strong /56 signature (83% inferable).
    add(densify_v4(background_fixed_isp(
        64640,
        "AFRINIC-Fiber",
        Rir::Afrinic,
        v4p([41, 64, 0, 0], 14),
        v6p([0x2c0f, 0x4000], 26),
        56,
        0.95,
        240.0,
        n(3400),
    )));
    add(densify_v4(background_fixed_isp(
        64641,
        "AFRINIC-DSL",
        Rir::Afrinic,
        v4p([105, 160, 0, 0], 14),
        v6p([0x2c0f, 0xf000], 28),
        64,
        0.0,
        200.0,
        n(550),
    )));

    // Cellular operators. 65.7% of unique /64s in the paper's CDN dataset
    // come from cellular access; subscriber counts are weighted accordingly.
    add(mobile_isp(
        21928,
        "ARIN-Mobile",
        "U.S.",
        Rir::Arin,
        v4p([172, 32, 6, 0], 23),
        v6p([0x2607, 0xfb90], 28),
        6.0,
        30.0,
        0.035,
        n(820),
    ));
    add(mobile_isp(
        12576,
        "EE Ltd.",
        "U.K.",
        Rir::RipeNcc,
        v4p([92, 40, 2, 0], 23),
        v6p([0x2a01, 0x4c80], 28),
        480.0,
        50.0,
        0.0,
        n(3000),
    ));
    add(mobile_isp(
        64651,
        "RIPE-Mobile",
        "many",
        Rir::RipeNcc,
        v4p([79, 64, 8, 0], 23),
        v6p([0x2a02, 0x3000], 28),
        6.0,
        30.0,
        0.035,
        n(150),
    ));
    add(mobile_isp(
        9808,
        "APNIC-Mobile",
        "China",
        Rir::Apnic,
        v4p([120, 192, 4, 0], 23),
        v6p([0x2409, 0x8000], 28),
        6.0,
        28.0,
        0.03,
        n(850),
    ));
    add(mobile_isp(
        64661,
        "LACNIC-Mobile",
        "Brazil",
        Rir::Lacnic,
        v4p([187, 0, 6, 0], 23),
        v6p([0x2805, 0x4000], 28),
        6.0,
        28.0,
        0.03,
        n(790),
    ));
    add(mobile_isp(
        64662,
        "AFRINIC-Mobile",
        "Nigeria",
        Rir::Afrinic,
        v4p([102, 88, 2, 0], 23),
        v6p([0x2c0f, 0xe000], 28),
        6.0,
        28.0,
        0.03,
        n(760),
    ));
    world
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_named_profiles_validate() {
        for era in [Era::Atlas, Era::Cdn] {
            for cfg in [
                dtag(100, era),
                orange(100, era),
                comcast(100, era),
                lgi(100, era),
                bt(100, era),
                proximus(100, era),
                versatel(100, era),
                netcologne(100, era),
                free_sas(100, era),
                kabel_de(100, era),
                sky_uk(100, era),
            ] {
                cfg.validate().unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn every_profile_validates_at_several_scales() {
        // `add_profile` leaves a profile that `World::add_isp` refuses out
        // of the world, so a full ISP count at every scale means every
        // profile (and every prefix literal in it) validated.
        for scale in [0.001, 0.02, 0.2, 1.0, 5.0] {
            assert_eq!(atlas_world(1, scale).isps().len(), 27, "atlas at {scale}");
            assert_eq!(cdn_world(1, scale).isps().len(), 30, "cdn at {scale}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "host bits set"))]
    fn profile_prefix_with_host_bits_is_masked_in_release() {
        assert_eq!(v4p([10, 0, 0, 1], 24), v4p([10, 0, 0, 0], 24));
        assert_eq!(v6p([0x2001, 0xdb8], 16), v6p([0x2001, 0], 16));
    }

    #[test]
    fn atlas_world_builds() {
        let world = atlas_world(1, 0.1);
        assert!(world.isps().len() >= 15);
        // Routing covers DTAG space.
        let asn = world
            .routing()
            .origin_v6("2003:40:a0::1".parse().unwrap())
            .unwrap();
        assert_eq!(asn, Asn(3320));
    }

    #[test]
    fn cdn_world_has_all_rirs_and_mobile() {
        let world = cdn_world(1, 0.02);
        for rir in Rir::ALL {
            assert!(
                world
                    .isps()
                    .iter()
                    .any(|i| i.rir == rir && i.access == AccessType::FixedLine),
                "missing fixed ISP in {rir}"
            );
            assert!(
                world
                    .isps()
                    .iter()
                    .any(|i| i.rir == rir && i.access == AccessType::Cellular),
                "missing mobile ISP in {rir}"
            );
        }
    }

    #[test]
    fn delegation_lengths_match_paper_verified_values() {
        // The paper verified these against operator documentation.
        assert_eq!(dtag(10, Era::Atlas).v6_plan.unwrap().delegated_len, 56);
        assert_eq!(orange(10, Era::Atlas).v6_plan.unwrap().delegated_len, 56);
        assert_eq!(sky_uk(10, Era::Atlas).v6_plan.unwrap().delegated_len, 56);
        assert_eq!(kabel_de(10, Era::Atlas).v6_plan.unwrap().delegated_len, 62);
        assert_eq!(
            netcologne(10, Era::Atlas).v6_plan.unwrap().delegated_len,
            48
        );
    }

    #[test]
    fn probe_counts_match_table_1() {
        #[allow(clippy::disallowed_types, reason = "test: keyed lookups only")]
        let counts: std::collections::HashMap<_, _> = ATLAS_PROBE_COUNTS.iter().cloned().collect();
        assert_eq!(counts["DTAG"], 589);
        assert_eq!(counts["Netcologne"], 43);
        assert_eq!(counts.len(), 11);
    }

    #[test]
    fn no_duplicate_asns_in_worlds() {
        for world in [atlas_world(1, 0.05), cdn_world(1, 0.02)] {
            let mut asns: Vec<u32> = world.isps().iter().map(|i| i.asn.0).collect();
            let before = asns.len();
            asns.sort_unstable();
            asns.dedup();
            assert_eq!(asns.len(), before, "duplicate ASN in world");
        }
    }

    #[test]
    fn no_overlapping_v6_aggregates_across_isps() {
        for world in [atlas_world(1, 0.05), cdn_world(1, 0.02)] {
            let mut aggs: Vec<(dynamips_netaddr::Ipv6Prefix, u32)> = Vec::new();
            for isp in world.isps() {
                if let Some(plan) = &isp.v6_plan {
                    for a in &plan.aggregates {
                        for (other, other_asn) in &aggs {
                            assert!(
                                !a.contains_prefix(other) && !other.contains_prefix(a),
                                "{a} ({}) overlaps {other} (AS{other_asn})",
                                isp.asn
                            );
                        }
                        aggs.push((*a, isp.asn.0));
                    }
                }
            }
        }
    }
}
