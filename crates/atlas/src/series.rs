//! Per-probe measurement series generation.

use crate::records::{EchoV4, EchoV6};
use dynamips_netsim::time::Window;
use dynamips_netsim::{SimTime, SubscriberTimeline};
use dynamips_routing::Asn;
use rand::Rng;
use std::net::Ipv4Addr;

/// A RIPE-Atlas-style probe identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeId(pub u32);

/// One probe's full measurement history plus its metadata, the unit the
/// sanitization pipeline works on.
#[derive(Debug, Clone)]
pub struct ProbeSeries {
    /// Probe identifier.
    pub probe: ProbeId,
    /// The AS hosting the probe (ground truth; the analysis re-derives it
    /// from routing lookups).
    pub asn: Asn,
    /// User-assigned tags ("datacentre", "multihomed", ... cause filtering).
    pub tags: Vec<String>,
    /// Hourly IPv4 echo measurements, in time order.
    pub v4: Vec<EchoV4>,
    /// Hourly IPv6 echo measurements, in time order.
    pub v6: Vec<EchoV6>,
}

impl ProbeSeries {
    /// Observation span in hours (first to last measurement of either
    /// family).
    pub fn observed_hours(&self) -> u64 {
        let first = self
            .v4
            .first()
            .map(|r| r.time)
            .into_iter()
            .chain(self.v6.first().map(|r| r.time))
            .min();
        let last = self
            .v4
            .last()
            .map(|r| r.time)
            .into_iter()
            .chain(self.v6.last().map(|r| r.time))
            .max();
        match (first, last) {
            (Some(a), Some(b)) => b - a,
            _ => 0,
        }
    }
}

/// Generation knobs for one probe's series.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeriesOptions {
    /// Observation sub-window (the probe's deployment lifetime).
    pub observed: Window,
    /// Probability that any individual hourly measurement is missing
    /// (probe busy, server unreachable, ...).
    pub missing_rate: f64,
    /// IPv4 `src_addr` reported by the probe. `None` = the probe sits behind
    /// a typical home NAT and reports a private address; `Some(_)` overrides
    /// (used for the atypical-NAT artifact where `src == client`).
    pub public_v4_src: bool,
    /// If true, the probe's IPv6 `src_addr` disagrees with the echoed
    /// client address (atypical v6 setup; filtered by the sanitizer).
    pub mismatched_v6_src: bool,
}

/// The RFC 1918 address a typical probe reports as its IPv4 `src_addr`.
pub(crate) fn private_src(probe: ProbeId) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 1, 2 + (probe.0 % 250) as u8)
}

/// Generate the hourly echo series for a subscriber-hosted probe by walking
/// the ground-truth timeline segment by segment (no per-hour lookups).
pub(crate) fn series_from_timeline<R: Rng + ?Sized>(
    rng: &mut R,
    probe: ProbeId,
    timeline: &SubscriberTimeline,
    opts: &SeriesOptions,
) -> (Vec<EchoV4>, Vec<EchoV6>) {
    let (lo, hi) = (opts.observed.start, opts.observed.end);
    // Each segment yields at most its hours inside the window, so both
    // vectors are allocated once.
    let clipped = |start: SimTime, end: SimTime| (end.min(hi) - start.max(lo)) as usize;
    let mut v4 = Vec::with_capacity(timeline.v4.iter().map(|s| clipped(s.start, s.end)).sum());
    let mut v6 = Vec::with_capacity(timeline.v6.iter().map(|s| clipped(s.start, s.end)).sum());

    for seg in &timeline.v4 {
        let start = seg.start.max(lo);
        let end = seg.end.min(hi);
        let mut h = start;
        while h < end {
            if opts.missing_rate <= 0.0 || !rng.gen_bool(opts.missing_rate) {
                let src = if opts.public_v4_src {
                    seg.addr
                } else {
                    private_src(probe)
                };
                v4.push(EchoV4 {
                    time: h,
                    client: seg.addr,
                    src,
                });
            }
            h += 1;
        }
    }

    for seg in &timeline.v6 {
        let start = seg.start.max(lo);
        let end = seg.end.min(hi);
        // lan64 is a /64 by construction; a malformed segment yields no
        // observations rather than a panic.
        let Ok(addr) = seg.lan64.with_iid(timeline.device_iid) else {
            continue;
        };
        let src = if opts.mismatched_v6_src {
            seg.lan64
                .with_iid(timeline.device_iid ^ 0xff)
                .unwrap_or(addr)
        } else {
            addr
        };
        let mut h = start;
        while h < end {
            if opts.missing_rate <= 0.0 || !rng.gen_bool(opts.missing_rate) {
                v6.push(EchoV6 {
                    time: h,
                    client: addr,
                    src,
                });
            }
            h += 1;
        }
    }

    (v4, v6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_netsim::rngutil::derive_rng;
    use dynamips_netsim::timeline::{SubscriberId, V4Segment, V6Segment};

    fn timeline() -> SubscriberTimeline {
        SubscriberTimeline {
            id: SubscriberId {
                asn: Asn(3320),
                index: 0,
            },
            dual_stack: true,
            device_iid: 0x0225_96ff_fe12_3456,
            v4: vec![
                V4Segment {
                    start: SimTime(0),
                    end: SimTime(24),
                    addr: "84.128.0.7".parse().unwrap(),
                    cgnat: false,
                },
                V4Segment {
                    start: SimTime(24),
                    end: SimTime(48),
                    addr: "84.129.1.2".parse().unwrap(),
                    cgnat: false,
                },
            ],
            v6: vec![V6Segment {
                start: SimTime(0),
                end: SimTime(48),
                delegated: "2003:40:a0:aa00::/56".parse().unwrap(),
                lan64: "2003:40:a0:aa00::/64".parse().unwrap(),
            }],
        }
    }

    fn opts(observed: Window) -> SeriesOptions {
        SeriesOptions {
            observed,
            missing_rate: 0.0,
            public_v4_src: false,
            mismatched_v6_src: false,
        }
    }

    #[test]
    fn hourly_samples_cover_segments() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let w = Window::new(SimTime(0), SimTime(48));
        let (v4, v6) = series_from_timeline(&mut rng, ProbeId(1), &timeline(), &opts(w));
        assert_eq!(v4.len(), 48);
        assert_eq!(v6.len(), 48);
        assert_eq!(v4[0].client.to_string(), "84.128.0.7");
        assert_eq!(v4[24].client.to_string(), "84.129.1.2");
        // v6 address embeds the stable device IID.
        assert_eq!(
            v6[0].client.to_string(),
            "2003:40:a0:aa00:225:96ff:fe12:3456"
        );
        assert_eq!(v6[0].src, v6[0].client, "typical v6: src == client");
        assert!(v4[0].src.is_private(), "typical v4: RFC1918 src");
    }

    #[test]
    fn observation_window_clips_series() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let w = Window::new(SimTime(10), SimTime(30));
        let (v4, v6) = series_from_timeline(&mut rng, ProbeId(1), &timeline(), &opts(w));
        assert_eq!(v4.len(), 20);
        assert_eq!(v4.first().unwrap().time, SimTime(10));
        assert_eq!(v4.last().unwrap().time, SimTime(29));
        assert_eq!(v6.len(), 20);
    }

    #[test]
    fn atypical_nat_options_apply() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let w = Window::new(SimTime(0), SimTime(5));
        let mut o = opts(w);
        o.public_v4_src = true;
        o.mismatched_v6_src = true;
        let (v4, v6) = series_from_timeline(&mut rng, ProbeId(1), &timeline(), &o);
        assert_eq!(v4[0].src, v4[0].client, "atypical v4: public src");
        assert_ne!(v6[0].src, v6[0].client, "atypical v6: mismatched src");
    }

    #[test]
    fn missing_rate_drops_samples() {
        let mut rng = dynamips_netsim::rngutil::derive_rng(5, 0);
        let w = Window::new(SimTime(0), SimTime(48));
        let mut o = opts(w);
        o.missing_rate = 0.5;
        let (v4, _) = series_from_timeline(&mut rng, ProbeId(1), &timeline(), &o);
        assert!(v4.len() < 40 && v4.len() > 8, "{}", v4.len());
    }

    /// [`series_from_timeline`] before its vectors were sized up front:
    /// the reference oracle for the records and the RNG draws.
    fn series_growing<R: Rng + ?Sized>(
        rng: &mut R,
        probe: ProbeId,
        timeline: &SubscriberTimeline,
        opts: &SeriesOptions,
    ) -> (Vec<EchoV4>, Vec<EchoV6>) {
        let (mut v4, mut v6) = (Vec::new(), Vec::new());
        let (lo, hi) = (opts.observed.start, opts.observed.end);
        for seg in &timeline.v4 {
            let mut h = seg.start.max(lo);
            while h < seg.end.min(hi) {
                if opts.missing_rate <= 0.0 || !rng.gen_bool(opts.missing_rate) {
                    let src = if opts.public_v4_src {
                        seg.addr
                    } else {
                        private_src(probe)
                    };
                    v4.push(EchoV4 {
                        time: h,
                        client: seg.addr,
                        src,
                    });
                }
                h += 1;
            }
        }
        for seg in &timeline.v6 {
            let Ok(addr) = seg.lan64.with_iid(timeline.device_iid) else {
                continue;
            };
            let src = if opts.mismatched_v6_src {
                seg.lan64
                    .with_iid(timeline.device_iid ^ 0xff)
                    .unwrap_or(addr)
            } else {
                addr
            };
            let mut h = seg.start.max(lo);
            while h < seg.end.min(hi) {
                if opts.missing_rate <= 0.0 || !rng.gen_bool(opts.missing_rate) {
                    v6.push(EchoV6 {
                        time: h,
                        client: addr,
                        src,
                    });
                }
                h += 1;
            }
        }
        (v4, v6)
    }

    /// A seeded timeline: ordered, disjoint segments with gaps.
    fn random_timeline(rng: &mut impl Rng) -> SubscriberTimeline {
        let mut tl = timeline();
        let (mut v4, mut v6) = (Vec::new(), Vec::new());
        let mut h = rng.gen_range(0..50u64);
        for i in 0..rng.gen_range(0..12u32) {
            let end = h + rng.gen_range(1..200);
            v4.push(V4Segment {
                start: SimTime(h),
                end: SimTime(end),
                addr: std::net::Ipv4Addr::from(0x5480_0000 + i),
                cgnat: false,
            });
            h = end + rng.gen_range(0..30);
        }
        h = rng.gen_range(0..50u64);
        for i in 0..rng.gen_range(0..12u128) {
            let end = h + rng.gen_range(1..200);
            let lan64 =
                dynamips_netaddr::Ipv6Prefix::from_bits((0x2003_0040 << 96) | (i << 64), 64)
                    .unwrap();
            v6.push(V6Segment {
                start: SimTime(h),
                end: SimTime(end),
                delegated: lan64.supernet(56).unwrap(),
                lan64,
            });
            h = end + rng.gen_range(0..30);
        }
        (tl.v4, tl.v6) = (v4, v6);
        tl
    }

    #[test]
    fn sized_series_match_growing_reference() {
        let mut rng = derive_rng(26, 0);
        for i in 0..200 {
            let tl = random_timeline(&mut rng);
            let start = rng.gen_range(0..300u64);
            let mut o = opts(Window::new(
                SimTime(start),
                SimTime(start + rng.gen_range(0..1500)),
            ));
            o.missing_rate = [0.0, 0.01, 0.3][i % 3];
            (o.public_v4_src, o.mismatched_v6_src) = (i % 5 == 0, i % 7 == 0);
            let seed = rng.gen::<u64>();
            let (mut got_rng, mut want_rng) = (derive_rng(seed, 1), derive_rng(seed, 1));
            let got = series_from_timeline(&mut got_rng, ProbeId(7), &tl, &o);
            let want = series_growing(&mut want_rng, ProbeId(7), &tl, &o);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "timeline {i}");
            // The same number of draws: the streams stay in step.
            assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "timeline {i}");
            if o.missing_rate == 0.0 {
                assert_eq!(got.0.capacity(), got.0.len(), "timeline {i}");
                assert_eq!(got.1.capacity(), got.1.len(), "timeline {i}");
            }
        }
    }

    #[test]
    fn observed_hours_span() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let w = Window::new(SimTime(0), SimTime(48));
        let (v4, v6) = series_from_timeline(&mut rng, ProbeId(1), &timeline(), &opts(w));
        let series = ProbeSeries {
            probe: ProbeId(1),
            asn: Asn(3320),
            tags: vec![],
            v4,
            v6,
        };
        assert_eq!(series.observed_hours(), 47);
    }

    #[test]
    fn empty_series_has_zero_span() {
        let series = ProbeSeries {
            probe: ProbeId(1),
            asn: Asn(3320),
            tags: vec![],
            v4: vec![],
            v6: vec![],
        };
        assert_eq!(series.observed_hours(), 0);
    }
}
