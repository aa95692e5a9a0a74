//! Assembly of many ISPs into one synthetic Internet.
//!
//! A [`World`] owns the ISP configurations plus the lookup substrate the
//! analysis needs: an AS registry (names, countries, access types), a BGP
//! routing table (every ISP's announcements) and an RIR delegation map.
//! Simulation runs per-ISP and streams results to a consumer, so only one
//! ISP's timelines are resident at a time.

use crate::config::IspConfig;
use crate::sim::{IspSim, IspSimResult};
use crate::time::Window;
use dynamips_routing::{AsInfo, AsRegistry, RirMap, RoutingTable};

/// A synthetic Internet: ISPs plus routing/registry/RIR metadata.
#[derive(Debug)]
pub struct World {
    seed: u64,
    registry: AsRegistry,
    routing: RoutingTable,
    rirs: RirMap,
    isps: Vec<IspConfig>,
}

impl World {
    /// Create an empty world with a master seed. Everything downstream —
    /// simulation, observation layers — derives determinism from this seed.
    pub fn new(seed: u64) -> Self {
        World {
            seed,
            registry: AsRegistry::new(),
            routing: RoutingTable::new(),
            rirs: RirMap::new(),
            isps: Vec::new(),
        }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Add an ISP: registers its AS metadata, announces its prefixes in the
    /// BGP table, and records RIR delegations for its address space. This
    /// is where a configuration is validated, once: an invalid one is
    /// refused with a human-readable reason and leaves the world unchanged,
    /// so every ISP the world simulates is valid.
    pub fn add_isp(&mut self, cfg: IspConfig) -> Result<(), String> {
        cfg.validate()?;
        self.registry.register(AsInfo {
            asn: cfg.asn,
            name: cfg.name.clone(),
            country: cfg.country.clone(),
            rir: cfg.rir,
            access: cfg.access,
        });
        if let Some(plan) = &cfg.v4_plan {
            for ann in plan.effective_announcements() {
                self.routing.announce_v4(ann, cfg.asn);
                self.rirs.delegate_v4(ann, cfg.rir);
            }
        }
        if let Some(plan) = &cfg.v6_plan {
            for agg in &plan.aggregates {
                self.routing.announce_v6(*agg, cfg.asn);
                self.rirs.delegate_v6(*agg, cfg.rir);
            }
        }
        self.isps.push(cfg);
        Ok(())
    }

    /// The AS registry.
    pub fn registry(&self) -> &AsRegistry {
        &self.registry
    }

    /// The BGP routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The RIR delegation map.
    pub fn rirs(&self) -> &RirMap {
        &self.rirs
    }

    /// The configured ISPs.
    pub fn isps(&self) -> &[IspConfig] {
        &self.isps
    }

    /// Simulate every ISP over `window`, streaming each result to `f` so
    /// peak memory stays bounded by the largest single ISP.
    pub fn run_each(&self, window: Window, mut f: impl FnMut(IspSimResult)) {
        for cfg in &self.isps {
            f(IspSim::new(cfg.clone(), window, self.seed).run());
        }
    }

    /// Simulate one ISP by ASN (None if the ASN is not in this world).
    pub fn run_one(&self, asn: dynamips_routing::Asn, window: Window) -> Option<IspSimResult> {
        let cfg = self.isps.iter().find(|c| c.asn == asn)?;
        Some(IspSim::new(cfg.clone(), window, self.seed).run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        CpeV6Behavior, OutageConfig, SubscriberClass, V4Policy, V4PoolPlan, V6Policy, V6PoolPlan,
    };
    use crate::time::SimTime;
    use dynamips_routing::{AccessType, Asn, Rir};

    fn tiny_isp(asn: u32, v4_pool: &str, v6_agg: &str) -> IspConfig {
        IspConfig {
            asn: Asn(asn),
            name: format!("ISP{asn}"),
            country: "X".into(),
            rir: Rir::RipeNcc,
            access: AccessType::FixedLine,
            v4_plan: Some(V4PoolPlan {
                pools: vec![(v4_pool.parse().unwrap(), 1.0)],
                announcements: vec![],
                p_near: 0.0,
                near_radius: 16,
            }),
            v6_plan: Some(V6PoolPlan {
                aggregates: vec![v6_agg.parse().unwrap()],
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
            subscribers: 5,
        }
    }

    #[test]
    fn add_isp_populates_substrate() {
        let mut w = World::new(7);
        w.add_isp(tiny_isp(64500, "192.0.2.0/24", "2001:db8::/32"))
            .unwrap();
        assert_eq!(w.registry().len(), 1);
        assert_eq!(
            w.routing().origin_v4("192.0.2.55".parse().unwrap()),
            Some(Asn(64500))
        );
        assert_eq!(
            w.rirs().rir_of_v6("2001:db8:1:2::1".parse().unwrap()),
            Some(Rir::RipeNcc)
        );
    }

    #[test]
    fn add_isp_refuses_invalid_configs() {
        let mut w = World::new(7);
        let mut cfg = tiny_isp(64500, "192.0.2.0/24", "2001:db8::/32");
        cfg.classes.clear();
        let err = w.add_isp(cfg).unwrap_err();
        assert!(err.contains("no subscriber classes"), "{err}");
        assert!(w.isps().is_empty());
        assert_eq!(w.registry().len(), 0);
        assert_eq!(w.routing().origin_v4("192.0.2.55".parse().unwrap()), None);
    }

    #[test]
    fn run_each_streams_every_isp() {
        let mut w = World::new(7);
        w.add_isp(tiny_isp(64500, "192.0.2.0/24", "2001:db8::/32"))
            .unwrap();
        w.add_isp(tiny_isp(64501, "198.51.100.0/24", "3fff::/32"))
            .unwrap();
        let window = Window::new(SimTime(0), SimTime(24 * 30));
        let mut seen = Vec::new();
        w.run_each(window, |res| {
            assert_eq!(res.timelines.len(), 5);
            seen.push(res.config.asn);
        });
        assert_eq!(seen, vec![Asn(64500), Asn(64501)]);
    }

    #[test]
    fn run_one_finds_isp_by_asn() {
        let mut w = World::new(7);
        w.add_isp(tiny_isp(64500, "192.0.2.0/24", "2001:db8::/32"))
            .unwrap();
        assert!(w
            .run_one(Asn(64500), Window::new(SimTime(0), SimTime(48)))
            .is_some());
        assert!(w
            .run_one(Asn(1), Window::new(SimTime(0), SimTime(48)))
            .is_none());
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let window = Window::new(SimTime(0), SimTime(24 * 60));
        let run = |seed| {
            let mut w = World::new(seed);
            w.add_isp(tiny_isp(64500, "192.0.2.0/24", "2001:db8::/32"))
                .unwrap();
            let res = w.run_one(Asn(64500), window).unwrap();
            res.timelines
                .iter()
                .flat_map(|t| t.v6.iter().map(|s| (s.start, s.lan64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
