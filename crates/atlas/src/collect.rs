//! The Atlas collection pipeline: world → per-probe measurement series.

use crate::records::TEST_ADDRESS;
use crate::series::{private_src, series_from_timeline, ProbeId, ProbeSeries, SeriesOptions};
use dynamips_netsim::rngutil::derive_rng;
use dynamips_netsim::time::Window;
use dynamips_netsim::{SimTime, SubscriberTimeline, World};
use dynamips_routing::Asn;
use rand::Rng;

/// Artifact and deployment knobs, with rates motivated by Appendix A.1's
/// filter population (out of 25,504 raw probes, thousands were filtered as
/// short-lived or multihomed).
#[derive(Debug, Clone, Copy)]
pub struct AtlasConfig {
    /// Fraction of probes whose first v4 report is the RIPE test address.
    pub test_addr_rate: f64,
    /// Fraction of probes deployed multihomed (alternate between two
    /// upstreams).
    pub multihomed_rate: f64,
    /// Fraction of probes whose owner switches ISP mid-deployment.
    pub as_move_rate: f64,
    /// Fraction of probes with non-residential tags.
    pub bad_tag_rate: f64,
    /// Fraction of probes with atypical NAT setups.
    pub atypical_nat_rate: f64,
    /// Fraction of probes deployed for less than a month.
    pub short_lived_rate: f64,
    /// Per-measurement loss probability.
    pub missing_rate: f64,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            test_addr_rate: 0.06,
            multihomed_rate: 0.04,
            as_move_rate: 0.03,
            bad_tag_rate: 0.03,
            atypical_nat_rate: 0.03,
            short_lived_rate: 0.10,
            missing_rate: 0.01,
        }
    }
}

impl AtlasConfig {
    /// A clean deployment with no artifacts and no losses — useful for
    /// tests that want to isolate the analysis from the sanitizer.
    pub fn pristine() -> Self {
        AtlasConfig {
            test_addr_rate: 0.0,
            multihomed_rate: 0.0,
            as_move_rate: 0.0,
            bad_tag_rate: 0.0,
            atypical_nat_rate: 0.0,
            short_lived_rate: 0.0,
            missing_rate: 0.0,
        }
    }
}

/// Streams per-probe measurement series out of a simulated world. Probes are
/// the world's subscribers; a configurable share of them exhibit the
/// deployment artifacts of Appendix A.1. Cross-AS artifacts (multihoming,
/// ISP switches) borrow the previous ISP's last subscriber as the second
/// upstream.
pub struct AtlasCollector<'w> {
    world: &'w World,
    window: Window,
    config: AtlasConfig,
}

impl<'w> AtlasCollector<'w> {
    /// Create a collector over `world` for `window`.
    pub fn new(world: &'w World, window: Window, config: AtlasConfig) -> Self {
        AtlasCollector {
            world,
            window,
            config,
        }
    }

    /// Generate every probe's series, invoking `f` for each. Memory stays
    /// bounded by one ISP's simulation plus one probe's series.
    pub fn for_each_probe(&self, mut f: impl FnMut(ProbeSeries)) {
        let mut rng = derive_rng(self.world.seed(), 0xA71A5);
        let mut next_probe = 1u32;
        // Donor from the previous ISP for cross-AS artifacts.
        let mut donor: Option<(Asn, SubscriberTimeline)> = None;

        self.world.run_each(self.window, |result| {
            let asn = result.config.asn;
            for tl in &result.timelines {
                let probe = ProbeId(next_probe);
                next_probe += 1;
                let series = self.build_series(&mut rng, probe, asn, tl, donor.as_ref());
                f(series);
            }
            if let Some(last) = result.timelines.last() {
                donor = Some((asn, last.clone()));
            }
        });
    }

    /// Collect every probe into a vector (small worlds / tests).
    pub fn collect_all(&self) -> Vec<ProbeSeries> {
        let mut out = Vec::new();
        self.for_each_probe(|s| out.push(s));
        out
    }

    fn build_series<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        probe: ProbeId,
        asn: Asn,
        tl: &SubscriberTimeline,
        donor: Option<&(Asn, SubscriberTimeline)>,
    ) -> ProbeSeries {
        let cfg = &self.config;
        let total = self.window.hours();

        // Deployment lifetime.
        let observed = if rng.gen_bool(cfg.short_lived_rate) {
            // Under a month: filtered by the sanitizer.
            let len = rng.gen_range(24..(30 * 24));
            let start = self.window.start + rng.gen_range(0..total.saturating_sub(len).max(1));
            Window::new(start, SimTime(start.hours() + len))
        } else {
            // Staggered joins over the first 40% of the window, covering at
            // least several months.
            let start_off = rng.gen_range(0..(total * 2 / 5).max(1));
            let start = self.window.start + start_off;
            let end_off = rng.gen_range(0..(total / 10).max(1));
            Window::new(start, SimTime(self.window.end.hours() - end_off))
        };

        let atypical = rng.gen_bool(cfg.atypical_nat_rate);
        let opts = SeriesOptions {
            observed,
            missing_rate: cfg.missing_rate,
            public_v4_src: atypical,
            mismatched_v6_src: atypical,
        };
        let (mut v4, mut v6) = series_from_timeline(rng, probe, tl, &opts);

        // Artifact: the shipping test address on the first reports.
        if rng.gen_bool(cfg.test_addr_rate) && !v4.is_empty() {
            let n = rng.gen_range(1..=3.min(v4.len()));
            for r in v4.iter_mut().take(n) {
                r.client = TEST_ADDRESS;
                r.src = private_src(probe);
            }
        }

        let mut tags = Vec::new();
        if rng.gen_bool(cfg.bad_tag_rate) {
            tags.push(["datacentre", "core", "system-anchor"][rng.gen_range(0..3)].to_string());
        }

        // Artifact: multihoming — alternate hours come from the donor
        // upstream (a different AS).
        if let Some((_donor_asn, donor_tl)) = donor {
            if rng.gen_bool(cfg.multihomed_rate) {
                let (dv4, dv6) = series_from_timeline(rng, probe, donor_tl, &opts);
                splice_alternating(&mut v4, &dv4, |r| r.time);
                splice_alternating(&mut v6, &dv6, |r| r.time);
            } else if rng.gen_bool(cfg.as_move_rate) {
                // Artifact: ISP switch at mid-deployment.
                let mid = SimTime(observed.start.hours() + observed.hours() / 2);
                let (dv4, dv6) = series_from_timeline(rng, probe, donor_tl, &opts);
                v4.retain(|r| r.time < mid);
                v4.extend(dv4.into_iter().filter(|r| r.time >= mid));
                v6.retain(|r| r.time < mid);
                v6.extend(dv6.into_iter().filter(|r| r.time >= mid));
            }
        }

        ProbeSeries {
            probe,
            asn,
            tags,
            v4,
            v6,
        }
    }
}

/// Replace measurements at odd hours with the donor's, producing the
/// A-B-A-B pattern of a multihomed deployment. Both series are in time
/// order (a timeline's segments are ordered and disjoint), so one forward
/// walk over the donor finds each hour's records; where the donor has
/// several at one hour, the last wins.
fn splice_alternating<T: Copy>(own: &mut [T], donor: &[T], time: impl Fn(&T) -> SimTime) {
    let mut next = 0;
    for r in own.iter_mut() {
        let h = time(r).hours();
        if h.is_multiple_of(2) {
            continue;
        }
        while donor.get(next).is_some_and(|d| time(d).hours() < h) {
            next += 1;
        }
        let same_hour = donor.iter().skip(next).take_while(|d| time(d).hours() == h);
        if let Some(d) = same_hour.last() {
            *r = *d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamips_netsim::config::{
        CpeV6Behavior, IspConfig, OutageConfig, SubscriberClass, V4Policy, V4PoolPlan, V6Policy,
        V6PoolPlan,
    };
    use dynamips_routing::{AccessType, Rir};

    fn test_world() -> World {
        let mut world = World::new(99);
        for (asn, v4, v6) in [
            (64500u32, "198.18.0.0/16", "2001:db8::/32"),
            (64501, "198.51.100.0/24", "3fff::/32"),
        ] {
            world
                .add_isp(IspConfig {
                    asn: Asn(asn),
                    name: format!("ISP{asn}"),
                    country: "X".into(),
                    rir: Rir::RipeNcc,
                    access: AccessType::FixedLine,
                    v4_plan: Some(V4PoolPlan {
                        pools: vec![(v4.parse().unwrap(), 1.0)],
                        announcements: vec![],
                        p_near: 0.0,
                        near_radius: 16,
                    }),
                    v6_plan: Some(V6PoolPlan {
                        aggregates: vec![v6.parse().unwrap()],
                        region_len: 40,
                        delegated_len: 56,
                        regions_per_aggregate: 2,
                        p_stay_region: 1.0,
                    }),
                    classes: vec![SubscriberClass {
                        weight: 1.0,
                        dual_stack: true,
                        v4: Some(V4Policy::PeriodicRenumber {
                            period_hours: 24,
                            jitter: 0.0,
                        }),
                        v6: Some(V6Policy::PeriodicRenumber {
                            period_hours: 24,
                            jitter: 0.0,
                        }),
                        coupled: true,
                        cpe_mix: vec![(1.0, CpeV6Behavior::ZeroOut)],
                        outages: OutageConfig::none(),
                    }],
                    stabilization: vec![],
                    subscribers: 10,
                })
                .unwrap();
        }
        world
    }

    fn window() -> Window {
        Window::new(SimTime(0), SimTime(24 * 90))
    }

    #[test]
    fn pristine_collection_yields_one_probe_per_subscriber() {
        let world = test_world();
        let collector = AtlasCollector::new(&world, window(), AtlasConfig::pristine());
        let probes = collector.collect_all();
        assert_eq!(probes.len(), 20);
        // Unique, ascending probe ids.
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(p.probe, ProbeId(i as u32 + 1));
            assert!(!p.v4.is_empty());
            assert!(!p.v6.is_empty());
            assert!(p.tags.is_empty());
        }
        // Probes of the first ISP report addresses from its pool.
        for r in &probes[0].v4 {
            assert!(
                r.client.octets()[0] == 198 && r.client.octets()[1] == 18,
                "{}",
                r.client
            );
        }
    }

    #[test]
    fn pristine_series_are_hourly_and_contiguous() {
        let world = test_world();
        let collector = AtlasCollector::new(&world, window(), AtlasConfig::pristine());
        let probes = collector.collect_all();
        for p in &probes {
            for w in p.v4.windows(2) {
                assert_eq!(w[1].time - w[0].time, 1, "hourly cadence");
            }
        }
    }

    #[test]
    fn artifacts_appear_at_roughly_configured_rates() {
        let world = test_world();
        let mut cfg = AtlasConfig::pristine();
        cfg.test_addr_rate = 1.0;
        cfg.bad_tag_rate = 1.0;
        let collector = AtlasCollector::new(&world, window(), cfg);
        let probes = collector.collect_all();
        for p in &probes {
            assert_eq!(p.v4[0].client, TEST_ADDRESS);
            assert_eq!(p.tags.len(), 1);
        }
    }

    #[test]
    fn multihomed_probes_alternate_between_ases() {
        let world = test_world();
        let mut cfg = AtlasConfig::pristine();
        cfg.multihomed_rate = 1.0;
        let collector = AtlasCollector::new(&world, window(), cfg);
        let probes = collector.collect_all();
        // ISP 2's probes have a donor (ISP 1's last subscriber): their v4
        // series must mix 198.51.100.x and 198.18.x.y.
        let second_isp: Vec<_> = probes.iter().filter(|p| p.asn == Asn(64501)).collect();
        assert_eq!(second_isp.len(), 10);
        for p in second_isp {
            let own =
                p.v4.iter()
                    .filter(|r| r.client.octets()[0] == 198 && r.client.octets()[1] == 51)
                    .count();
            let donor = p.v4.iter().filter(|r| r.client.octets()[1] == 18).count();
            assert!(own > 0 && donor > 0, "own={own} donor={donor}");
        }
    }

    #[test]
    fn as_move_probes_switch_halfway() {
        let world = test_world();
        let mut cfg = AtlasConfig::pristine();
        cfg.as_move_rate = 1.0;
        let collector = AtlasCollector::new(&world, window(), cfg);
        let probes = collector.collect_all();
        for p in probes.iter().filter(|p| p.asn == Asn(64501)) {
            let first = p.v4.first().unwrap();
            let last = p.v4.last().unwrap();
            assert_eq!(first.client.octets()[1], 51, "starts on own ISP");
            assert_eq!(last.client.octets()[1], 18, "ends on donor ISP");
            // Strictly ordered in time despite the splice.
            for w in p.v4.windows(2) {
                assert!(w[0].time < w[1].time);
            }
        }
    }

    #[test]
    fn short_lived_probes_are_short() {
        let world = test_world();
        let mut cfg = AtlasConfig::pristine();
        cfg.short_lived_rate = 1.0;
        let collector = AtlasCollector::new(&world, window(), cfg);
        for p in collector.collect_all() {
            assert!(p.observed_hours() < 30 * 24, "{}", p.observed_hours());
        }
    }

    /// [`splice_alternating`] as it was: a map from hour to the donor's
    /// last record at that hour. The reference oracle for the walk.
    fn splice_by_map<T: Copy>(own: &mut [T], donor: &[T], time: impl Fn(&T) -> SimTime) {
        #[allow(
            clippy::disallowed_types,
            reason = "reference oracle in a test: keyed lookups only"
        )]
        let donor_by_hour: std::collections::HashMap<u64, T> =
            donor.iter().map(|r| (time(r).hours(), *r)).collect();
        for r in own.iter_mut() {
            let h = time(r).hours();
            if h % 2 == 1 {
                if let Some(d) = donor_by_hour.get(&h) {
                    *r = *d;
                }
            }
        }
    }

    #[test]
    fn splice_walk_matches_map_reference() {
        let mut rng = derive_rng(26, 1);
        // Time-ordered (hour, tag) records with gaps and, now and then,
        // repeated hours; the tag tells whose record ended up where.
        let mut ordered = |tag: u32| -> Vec<(SimTime, u32)> {
            let mut h = rng.gen_range(0..20u64);
            let mut out = Vec::new();
            for i in 0..rng.gen_range(0..300u32) {
                out.push((SimTime(h), tag + i));
                h += [0, 1, 1, 1, 2, 5][rng.gen_range(0..6)];
            }
            out
        };
        for _ in 0..300 {
            let donor = ordered(1_000_000);
            let mut got = ordered(0);
            let mut want = got.clone();
            splice_alternating(&mut got, &donor, |r| r.0);
            splice_by_map(&mut want, &donor, |r| r.0);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let world = test_world();
        let collector = AtlasCollector::new(&world, window(), AtlasConfig::default());
        let a: Vec<usize> = collector.collect_all().iter().map(|p| p.v4.len()).collect();
        let b: Vec<usize> = collector.collect_all().iter().map(|p| p.v4.len()).collect();
        assert_eq!(a, b);
    }
}
