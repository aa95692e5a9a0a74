//! Device-level address observation.
//!
//! A home network hosts several devices behind the CPE, each configuring
//! its own 64-bit interface identifier inside the delegated /64 — most of
//! them RFC 4941 privacy identifiers that rotate daily (Section 2.1). A
//! service that counts *addresses* therefore sees many per subscriber; one
//! that counts /64s sees one per subscriber per assignment. This module
//! produces the full-address observation stream those counting analyses
//! (Section 2.3's "double-count" discussion) work on.

use dynamips_netaddr::{eui64_from_mac, privacy_iid};
use dynamips_netsim::rngutil::derive_rng;
use dynamips_netsim::time::Window;
use dynamips_netsim::{SimTime, SubscriberTimeline};
use rand::Rng;
use std::net::Ipv6Addr;

/// Configuration for the device population of a home network.
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// Minimum devices per subscriber household.
    pub min_devices: u8,
    /// Maximum devices per subscriber household.
    pub max_devices: u8,
    /// Fraction of devices using a stable EUI-64 identifier instead of
    /// rotating privacy identifiers (various studies still observe these).
    pub eui64_fraction: f64,
    /// Privacy-identifier regeneration interval, hours.
    pub privacy_rotation_hours: u64,
    /// Probability a given device is active (produces an observation) on a
    /// given day.
    pub daily_activity: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            min_devices: 1,
            max_devices: 5,
            eui64_fraction: 0.15,
            privacy_rotation_hours: 24,
            daily_activity: 0.7,
        }
    }
}

/// One observed device address on one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-pub): named in the pub observe_devices signature; callers
// consume values without ever spelling the type name.
pub struct DeviceObservation {
    /// Day since the simulation epoch.
    pub day: u32,
    /// The device's full global address at observation time.
    pub address: Ipv6Addr,
    /// Ground truth: which subscriber this was.
    pub subscriber: u32,
}

/// Generate daily device-level observations for one subscriber over
/// `window`, deterministic in (`seed`, subscriber id).
pub fn observe_devices(
    timeline: &SubscriberTimeline,
    window: Window,
    cfg: &DeviceConfig,
    seed: u64,
) -> Vec<DeviceObservation> {
    let mut rng = derive_rng(seed, 0xDE71CE ^ u64::from(timeline.id.index));
    let n_devices = rng.gen_range(cfg.min_devices..=cfg.max_devices.max(cfg.min_devices));

    // Per-device identity: a stable EUI-64 or a rotating privacy IID
    // (re-derived per rotation period from the device index).
    #[derive(Clone, Copy)]
    enum Kind {
        Eui64(u64),
        Privacy,
    }
    let kinds: Vec<Kind> = (0..n_devices)
        .map(|_| {
            if rng.gen_bool(cfg.eui64_fraction) {
                let mut mac = [0u8; 6];
                rng.fill(&mut mac);
                mac[0] = (mac[0] & 0xfe) | 0x02;
                Kind::Eui64(eui64_from_mac(mac))
            } else {
                Kind::Privacy
            }
        })
        .collect();

    let mut out = Vec::new();
    let first_day = window.start.days() as u32;
    for d in 0..window.days() as u32 {
        let day = first_day + d;
        let hour = rng.gen_range(0..24);
        let t = SimTime(u64::from(day) * 24 + hour);
        let Some(seg) = timeline.v6_at(t) else {
            continue;
        };
        for (dev, kind) in kinds.iter().enumerate() {
            if !rng.gen_bool(cfg.daily_activity) {
                continue;
            }
            let iid = match kind {
                Kind::Eui64(iid) => *iid,
                Kind::Privacy => {
                    // Deterministic rotation: one fresh identifier per
                    // rotation period per device.
                    let period = t.hours() / cfg.privacy_rotation_hours.max(1);
                    let mut r = derive_rng(
                        seed ^ 0x9D,
                        (u64::from(timeline.id.index) << 24) ^ ((dev as u64) << 40) ^ period,
                    );
                    privacy_iid(&mut r)
                }
            };
            // lan64 is a /64 by construction; drop the observation rather
            // than panic on a malformed segment.
            let Ok(address) = seg.lan64.with_iid(iid) else {
                continue;
            };
            out.push(DeviceObservation {
                day,
                address,
                subscriber: timeline.id.index,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_netaddr::iid::looks_like_eui64;
    use dynamips_netaddr::Ipv6Prefix;
    use dynamips_netsim::timeline::{SubscriberId, V6Segment};
    use dynamips_routing::Asn;
    #[allow(clippy::disallowed_types, reason = "test: only set sizes are asserted")]
    use std::collections::HashSet;

    fn timeline(index: u32) -> SubscriberTimeline {
        SubscriberTimeline {
            id: SubscriberId {
                asn: Asn(3320),
                index,
            },
            dual_stack: true,
            device_iid: 0x0225_96ff_fe12_3456,
            v4: vec![],
            v6: vec![V6Segment {
                start: SimTime(0),
                end: SimTime(60 * 24),
                delegated: "2003:40:a0:aa00::/56".parse().unwrap(),
                lan64: "2003:40:a0:aa00::/64".parse().unwrap(),
            }],
        }
    }

    fn window() -> Window {
        Window::new(SimTime(0), SimTime(30 * 24))
    }

    #[test]
    fn observations_stay_inside_the_lan64() {
        let obs = observe_devices(&timeline(1), window(), &DeviceConfig::default(), 7);
        assert!(!obs.is_empty());
        let lan: Ipv6Prefix = "2003:40:a0:aa00::/64".parse().unwrap();
        for o in &obs {
            assert!(lan.contains(o.address));
            assert_eq!(o.subscriber, 1);
        }
    }

    #[test]
    fn privacy_devices_rotate_eui64_devices_do_not() {
        let cfg = DeviceConfig {
            min_devices: 4,
            max_devices: 4,
            eui64_fraction: 0.5,
            privacy_rotation_hours: 24,
            daily_activity: 1.0,
        };
        let obs = observe_devices(&timeline(2), window(), &cfg, 11);
        #[allow(clippy::disallowed_types, reason = "test: only set sizes are asserted")]
        let eui: HashSet<Ipv6Addr> = obs
            .iter()
            .filter(|o| looks_like_eui64(u128::from(o.address) as u64))
            .map(|o| o.address)
            .collect();
        #[allow(clippy::disallowed_types, reason = "test: only set sizes are asserted")]
        let privacy: HashSet<Ipv6Addr> = obs
            .iter()
            .filter(|o| !looks_like_eui64(u128::from(o.address) as u64))
            .map(|o| o.address)
            .collect();
        // Stable devices contribute one address each; privacy devices one
        // per day each.
        assert!(!eui.is_empty());
        assert!(eui.len() <= 4);
        assert!(
            privacy.len() >= 25,
            "daily rotation must multiply addresses: {}",
            privacy.len()
        );
    }

    #[test]
    fn rotation_interval_controls_address_count() {
        let mk = |rot| DeviceConfig {
            min_devices: 1,
            max_devices: 1,
            eui64_fraction: 0.0,
            privacy_rotation_hours: rot,
            daily_activity: 1.0,
        };
        let daily = observe_devices(&timeline(3), window(), &mk(24), 13);
        let weekly = observe_devices(&timeline(3), window(), &mk(24 * 7), 13);
        #[allow(clippy::disallowed_types, reason = "test: only set sizes are asserted")]
        let count =
            |obs: &[DeviceObservation]| obs.iter().map(|o| o.address).collect::<HashSet<_>>().len();
        assert!(count(&daily) > 3 * count(&weekly));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = observe_devices(&timeline(4), window(), &DeviceConfig::default(), 5);
        let b = observe_devices(&timeline(4), window(), &DeviceConfig::default(), 5);
        let c = observe_devices(&timeline(4), window(), &DeviceConfig::default(), 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn offline_subscriber_produces_nothing() {
        let mut tl = timeline(5);
        tl.v6.clear();
        assert!(observe_devices(&tl, window(), &DeviceConfig::default(), 7).is_empty());
    }
}
