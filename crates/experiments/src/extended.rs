//! Extended experiments beyond the paper's figures: the Section-6
//! applications, run against the simulated ground truth.
//!
//! Unlike the `table*`/`fig*` artifacts, these need per-probe histories
//! or ground-truth subscriber identity, which the streaming figure
//! pipeline deliberately discards. Each artifact renders from a pre-built
//! world and, where applicable, pre-collected [`CleanHistories`], so the
//! engine's [`crate::engine::WarmSession`] shares one world and one
//! Atlas pass across all of them: the histories and the `sanitizer`
//! artifact's numbers come from the same single pass that builds the
//! analysis ([`crate::context`]). [`clean_histories`] and
//! [`sanitizer_report_with`] ask that pass for their one product.

use crate::context::{AtlasProducts, AtlasWants, ExperimentConfig, ShortV4Share};
use dynamips_atlas::{AtlasCollector, AtlasConfig};
use dynamips_cdn::{CdnCollector, CdnConfig};
use dynamips_core::anonymize::recommend_truncation;
use dynamips_core::blocklist::{sweep_policies, BlockPolicy};
use dynamips_core::changes::ProbeHistory;
use dynamips_core::degrade::DegradationReport;
use dynamips_core::hitlist::ScanPlan;
use dynamips_core::poolinfer::infer_pool_boundary;
use dynamips_core::report::TextTable;
use dynamips_core::sanitize::SanitizeReport;
use dynamips_netaddr::Ipv6Prefix;
use dynamips_netsim::profiles::atlas_world;
use dynamips_netsim::time::{SimTime, Window};
use dynamips_netsim::World;
use dynamips_routing::Asn;
use std::collections::BTreeMap;

/// The ASes the extended experiments focus on.
const FOCUS_ASES: [&str; 5] = ["DTAG", "Orange", "Comcast", "LGI", "Netcologne"];

/// Clean per-probe histories grouped by AS — the shared input of the
/// history-driven extended artifacts.
pub type CleanHistories = BTreeMap<Asn, Vec<ProbeHistory>>;

/// Collect clean per-probe histories, grouped by AS, each AS's list in
/// collector order.
pub fn clean_histories(world: &World, window: Window) -> CleanHistories {
    let wants = AtlasWants {
        histories: true,
        ..AtlasWants::default()
    };
    AtlasProducts::collect(world, window, wants, 1, &mut DegradationReport::new()).histories
}

/// Year-over-year evolution of assignment durations (Section 3.2,
/// "Evolution over time").
pub fn evolution_with(world: &World, by_as: &CleanHistories) -> String {
    use dynamips_core::evolution::YearlySurvival;

    let window = Window::atlas_paper();

    let mut out = String::from(
        "Evolution over time: share of assignments (sampled each July 1st)\n\
         that survive at least 14 more days. Rising shares = durations\n\
         growing, the paper's Section-3.2 finding; this point-in-time\n\
         statistic is robust to the right-censoring that distorts per-year\n\
         duration masses at the window edges.\n\n",
    );
    for name in ["DTAG", "Orange", "Comcast"] {
        let Some((asn, _)) = world
            .registry()
            .iter()
            .map(|i| (i.asn, i.name.clone()))
            .find(|(_, n)| n == name)
        else {
            continue;
        };
        let Some(histories) = by_as.get(&asn) else {
            continue;
        };
        let first_year = window.start.date().year + 1; // first full year
        let last_year = window.end.date().year - 1; // last full year
        let mut v4 = YearlySurvival::new();
        let mut v6 = YearlySurvival::new();
        for h in histories {
            v4.add_subject(&h.v4, first_year, last_year, 14 * 24);
            v6.add_subject(&h.v6, first_year, last_year, 14 * 24);
        }
        out.push_str(&format!("--- {name} ---\n"));
        let mut t = TextTable::new(&["year", "v4 >=2w survival", "v6 >=2w survival", "n"]);
        let v6_by_year: BTreeMap<i32, f64> =
            v6.shares().into_iter().map(|(y, s, _)| (y, s)).collect();
        let mut first_share = None;
        let mut last_share = None;
        for (year, share, n) in v4.shares() {
            if first_share.is_none() {
                first_share = Some(share);
            }
            last_share = Some(share);
            t.row(&[
                year.to_string(),
                format!("{share:.2}"),
                v6_by_year
                    .get(&year)
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".into()),
                n.to_string(),
            ]);
        }
        out.push_str(&t.render());
        let delta = match (first_share, last_share) {
            (Some(a), Some(b)) => format!("{:+.2}", b - a),
            _ => "n/a".into(),
        };
        out.push_str(&format!(
            "v4 survival change, first to last full year: {delta}\n\n"
        ));
    }
    out
}

/// Pool-boundary inference vs. the configured ground truth (Section 5.2).
pub fn pool_boundaries_with(world: &World, by_as: &CleanHistories) -> String {
    let mut t = TextTable::new(&[
        "AS",
        "probes",
        "inferred pool",
        "ground truth",
        "containment",
    ]);
    for isp in world.isps() {
        if !FOCUS_ASES.contains(&isp.name.as_str()) {
            continue;
        }
        let Some(histories) = by_as.get(&isp.asn) else {
            continue;
        };
        let refs: Vec<&ProbeHistory> = histories.iter().collect();
        let truth = isp
            .v6_plan
            .as_ref()
            .map(|p| format!("/{}", p.region_len))
            .unwrap_or_else(|| "-".into());
        match infer_pool_boundary(&refs, 16..=56, 4, 0.85) {
            Some(b) => {
                t.row(&[
                    isp.name.clone(),
                    b.probes.to_string(),
                    format!("/{}", b.pool_len),
                    truth,
                    format!("{:.2}", b.containment),
                ]);
            }
            None => {
                t.row(&[isp.name.clone(), "0".into(), "-".into(), truth, "-".into()]);
            }
        }
    }
    format!(
        "Pool-boundary inference (Section 5.2): the dynamic-pool grain\nrecovered from probe histories vs. the simulator's configured\nregion length.\n\n{}",
        t.render()
    )
}

/// Scan-plan evaluation (Section 6, active scanning): derive boundaries
/// from the first half of the window, relocate assignments from the second.
pub fn scan_plans_with(world: &World, by_as: &CleanHistories) -> String {
    let full = Window::atlas_paper();
    let mid = SimTime(full.start.hours() + full.hours() / 2);

    let mut t = TextTable::new(&[
        "AS",
        "pool",
        "subscr",
        "targets/pool",
        "hit rate",
        "miss: pool",
        "miss: bits",
        "reduction vs BGP",
    ]);
    for isp in world.isps() {
        if !FOCUS_ASES.contains(&isp.name.as_str()) {
            continue;
        }
        let Some(histories) = by_as.get(&isp.asn) else {
            continue;
        };
        // Training data: truncate each history to spans starting before the
        // midpoint. Evaluation data: /64s first seen after it.
        let train: Vec<ProbeHistory> = histories
            .iter()
            .map(|h| {
                let mut t = h.clone();
                t.v6.retain(|s| s.first < mid);
                t.v4.retain(|s| s.first < mid);
                t
            })
            .filter(|h| h.v6.len() >= 2)
            .collect();
        let refs: Vec<&ProbeHistory> = train.iter().collect();
        let seeds: Vec<Ipv6Prefix> = train
            .iter()
            .filter_map(|h| h.v6.last().map(|s| s.value))
            .collect();
        let future: Vec<Ipv6Prefix> = histories
            .iter()
            .flat_map(|h| h.v6.iter().filter(|s| s.first >= mid).map(|s| s.value))
            .collect();
        let Some(plan) = ScanPlan::derive(&refs, &seeds) else {
            t.row(&[
                isp.name.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        // Analytic coverage over the full target list (enumerating a /36
        // pool of /56 slots would be a million prefixes per pool).
        let rate = plan.coverage(&future);
        // Where do the misses come from: unseeded pools (the subscriber
        // moved to a region no training probe had been in) or non-zero
        // low bits (scrambling/constant CPEs)?
        let mut miss_pool = 0usize;
        let mut miss_bits = 0usize;
        for p in &future {
            if plan.covers(p) {
                continue;
            }
            let in_pool = p
                .supernet(plan.pool_len)
                .map(|sup| plan.pools.contains(&sup))
                .unwrap_or(false);
            if in_pool {
                miss_bits += 1;
            } else {
                miss_pool += 1;
            }
        }
        let pct = |n: usize| {
            if future.is_empty() {
                "-".to_string()
            } else {
                format!("{:.0}%", 100.0 * n as f64 / future.len() as f64)
            }
        };
        let (miss_pool, miss_bits) = (pct(miss_pool), pct(miss_bits));
        // Focus ASes all announce v6, but render a dash rather than panic
        // if one ever lacks a plan or aggregates.
        let reduction = isp
            .v6_plan
            .as_ref()
            .and_then(|p| p.aggregates.first())
            .map(|bgp| format!("{:.0}x", plan.reduction_vs(bgp)))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            isp.name.clone(),
            format!("/{}", plan.pool_len),
            format!("/{}", plan.subscriber_len),
            plan.targets_per_pool.to_string(),
            format!("{:.0}%", 100.0 * rate),
            miss_pool,
            miss_bits,
            reduction,
        ]);
    }
    format!(
        "Scan-plan evaluation (Section 6): boundaries learned on the first\nhalf of the window, hit rate = fraction of second-half /64\nassignments covered by the zero-/64-per-delegation target list.\n(Scrambling-CPE networks cap the achievable hit rate — their /64s\nare not zero-suffixed, which is the paper's evasion point.)\n\n{}",
        t.render()
    )
}

/// Target-generation comparison (Section 2.3 / 6): at an equal probe
/// budget, how do Entropy/IP-lite and 6Gen-lite compare with the
/// boundary-guided plan at relocating second-half /64 assignments?
pub fn target_generation_with(world: &World, by_as: &CleanHistories) -> String {
    use dynamips_core::hitlist::hit_rate;
    use dynamips_core::targetgen::{sixgen_targets, NibbleModel};

    let full = Window::atlas_paper();
    let mid = SimTime(full.start.hours() + full.hours() / 2);

    let mut t = TextTable::new(&["AS", "budget", "boundary plan", "entropy-lite", "6gen-lite"]);
    for isp in world.isps() {
        if !["DTAG", "Orange", "LGI", "Netcologne"].contains(&isp.name.as_str()) {
            continue;
        }
        let Some(histories) = by_as.get(&isp.asn) else {
            continue;
        };
        let train: Vec<ProbeHistory> = histories
            .iter()
            .map(|h| {
                let mut t = h.clone();
                t.v6.retain(|s| s.first < mid);
                t
            })
            .filter(|h| !h.v6.is_empty())
            .collect();
        let seeds: Vec<Ipv6Prefix> = train
            .iter()
            .flat_map(|h| h.v6.iter().map(|s| s.value))
            .collect();
        let future: Vec<Ipv6Prefix> = histories
            .iter()
            .flat_map(|h| h.v6.iter().filter(|s| s.first >= mid).map(|s| s.value))
            .collect();
        if seeds.len() < 20 || future.is_empty() {
            continue;
        }

        // Equal probe budget for every method: the boundary plan's own
        // size, capped at 2^19.
        let refs: Vec<&ProbeHistory> = train.iter().filter(|h| h.v6.len() >= 2).collect();
        let plan = ScanPlan::derive(&refs, &seeds);
        let plan_size = plan
            .as_ref()
            .map(|p| (p.pools.len() as u64).saturating_mul(p.targets_per_pool));
        let budget = plan_size.map_or(1 << 16, |size| size.min(1 << 19) as usize);
        let plan_rate = plan
            .zip(plan_size)
            .map(|(plan, size)| {
                if size <= budget as u64 {
                    plan.coverage(&future)
                } else {
                    hit_rate(&plan.targets(budget), &future)
                }
            })
            .map(|r| format!("{:.0}%", 100.0 * r))
            .unwrap_or_else(|| "-".into());
        let entropy_rate = NibbleModel::train(&seeds)
            .map(|m| hit_rate(&m.generate(budget), &future))
            .map(|r| format!("{:.0}%", 100.0 * r))
            .unwrap_or_else(|| "-".into());
        let sixgen_rate = format!(
            "{:.0}%",
            100.0 * hit_rate(&sixgen_targets(&seeds, 44, budget), &future)
        );
        t.row(&[
            isp.name.clone(),
            budget.to_string(),
            plan_rate,
            entropy_rate,
            sixgen_rate,
        ]);
    }
    format!(
        "Target generation at equal probe budgets: fraction of second-half\n/64 assignments hit. Boundary-guided plans exploit the pool and\ndelegation structure the DynamIPs analysis infers; the seed-driven\ngenerators must rediscover it from address patterns alone.\n{}",
        t.render()
    )
}

/// Host-trackability comparison (Section 2.3): privacy addresses vs. the
/// /64 network prefix vs. EUI-64 relocation, per network.
pub fn tracking_report_with(world: &World) -> String {
    use dynamips_core::stats::quantile;
    use dynamips_core::tracking::{evaluate, TrackingKey};

    let window = Window::new(SimTime(0), SimTime(180 * 24));
    let mut t = TextTable::new(&[
        "AS",
        "privacy addr (median days)",
        "/64 prefix",
        "delegated pfx",
        "EUI-64 relocatable in /40",
    ]);
    world.run_each(window, |result| {
        if !["DTAG", "Orange", "Comcast", "Netcologne"].contains(&result.config.name.as_str()) {
            return;
        }
        let deleg_len = result
            .config
            .v6_plan
            .as_ref()
            .map(|p| p.delegated_len)
            .unwrap_or(64);
        let mut privacy = Vec::new();
        let mut p64 = Vec::new();
        let mut deleg = Vec::new();
        let mut relocatable = 0usize;
        let mut total = 0usize;
        for tl in result.timelines.iter().filter(|t| !t.v6.is_empty()) {
            total += 1;
            privacy.push(
                evaluate(
                    tl,
                    TrackingKey::FullAddressPrivacyIid { rotation_hours: 24 },
                )
                .longest_track_hours as f64
                    / 24.0,
            );
            p64.push(evaluate(tl, TrackingKey::Slash64).longest_track_hours as f64 / 24.0);
            deleg.push(
                evaluate(tl, TrackingKey::Truncated(deleg_len)).longest_track_hours as f64 / 24.0,
            );
            if dynamips_core::tracking::eui64_relocatable_within(tl, 40) {
                relocatable += 1;
            }
        }
        if total == 0 {
            return;
        }
        let med = |v: &[f64]| {
            quantile(v, 0.5)
                .map(|m| format!("{m:.0}d"))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[
            result.config.name.clone(),
            med(&privacy),
            med(&p64),
            med(&deleg),
            format!("{:.0}%", 100.0 * relocatable as f64 / total as f64),
        ]);
    });
    format!(
        "Host trackability over a 180-day window (median longest track per\nidentifier): RFC 4941 privacy addresses rotate daily, yet the /64\nnetwork prefix — and a fortiori the delegated prefix — identifies\nthe subscriber for as long as the ISP keeps the assignment.\n{}",
        t.render()
    )
}

/// Truncation-anonymization audit against ground-truth subscriber identity
/// (Section 6, privacy).
pub fn anonymize_audit_with(world: &World) -> String {
    // A 90-day snapshot is what a shared dataset would cover.
    let window = Window::new(SimTime(0), SimTime(90 * 24));

    let mut t = TextTable::new(&["AS", "k@/40", "k@/48", "k@/56", "recommended"]);
    world.run_each(window, |result| {
        if !FOCUS_ASES.contains(&result.config.name.as_str()) {
            return;
        }
        let obs: Vec<(u32, Ipv6Prefix)> = result
            .timelines
            .iter()
            .flat_map(|tl| tl.v6.iter().map(|s| (tl.id.index, s.lan64)))
            .collect();
        if obs.is_empty() {
            return;
        }
        let (profile, best) = recommend_truncation(&obs, (32..=60).step_by(4), 20, 0.05);
        let k_at = |len: u8| {
            profile
                .iter()
                .find(|s| s.len == len)
                .map(|s| s.k_median.to_string())
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[
            result.config.name.clone(),
            k_at(40),
            k_at(48),
            k_at(56),
            best.map(|l| format!("<= /{l}"))
                .unwrap_or_else(|| "none".into()),
        ]);
    });
    format!(
        "Truncation-anonymization audit (Section 6): median subscribers per\ntruncated prefix (k-anonymity) against simulated ground truth, and\nthe longest truncation keeping k >= 20 with < 5% singletons.\nNote Netcologne: /48 buckets are single subscribers.\n\n{}",
        t.render()
    )
}

/// Blocklist policy sweep against ground truth (Section 6, reputation).
pub fn blocklist_sweep_with(world: &World) -> String {
    let window = Window::new(SimTime(0), SimTime(120 * 24));
    let mut out = String::from(
        "Blocklist policy sweep (Section 6): a bad actor is blocked at hour\n240; efficacy = useful fraction of the TTL, collateral = innocent\nsubscribers ever covered by the block.\n\n",
    );
    for name in ["DTAG", "Comcast", "Netcologne"] {
        let Some(asn) = world
            .registry()
            .iter()
            .find(|i| i.name == name)
            .map(|i| i.asn)
        else {
            continue;
        };
        let Some(result) = world.run_one(asn, window) else {
            continue;
        };
        // Pick a dual-stack actor; everyone else is innocent.
        let Some(actor_idx) = result.timelines.iter().position(|t| !t.v6.is_empty()) else {
            continue;
        };
        let actor = &result.timelines[actor_idx];
        let others: Vec<_> = result
            .timelines
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != actor_idx && !t.v6.is_empty())
            .map(|(_, t)| t)
            .collect();
        let grid = sweep_policies(
            actor,
            &others,
            SimTime(240),
            &[48, 56, 64],
            &[24, 7 * 24, 30 * 24],
        );
        out.push_str(&format!("--- {name} ---\n"));
        let mut t = TextTable::new(&["block", "TTL", "efficacy", "collateral subs"]);
        for (policy, outcome) in grid {
            t.row(&[
                format!("/{}", policy.block_len),
                dynamips_core::report::duration_label(policy.ttl_hours),
                format!("{:.0}%", 100.0 * outcome.efficacy()),
                outcome.collateral_subscribers.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    let _ = BlockPolicy {
        block_len: 56,
        ttl_hours: 24,
    };
    out
}

/// User-counting experiment (Section 2.3): how badly do naive per-address
/// and per-/64 estimators overcount the true subscriber population?
/// `seed` drives the per-home device synthesis.
pub fn counting_report_with(world: &World, seed: u64) -> String {
    use dynamips_cdn::devices::{observe_devices, DeviceConfig};
    use dynamips_core::counting::estimate_counts;

    let window = Window::new(SimTime(0), SimTime(30 * 24));
    let device_cfg = DeviceConfig::default();

    let mut t = TextTable::new(&[
        "AS",
        "subscribers",
        "distinct addrs",
        "distinct /64s",
        "addr overcount",
        "/64 overcount",
    ]);
    world.run_each(window, |result| {
        if !["DTAG", "Orange", "Comcast", "Netcologne"].contains(&result.config.name.as_str()) {
            return;
        }
        let mut obs: Vec<(u32, std::net::Ipv6Addr)> = Vec::new();
        for tl in result.timelines.iter().filter(|t| !t.v6.is_empty()) {
            for o in observe_devices(tl, window, &device_cfg, seed) {
                obs.push((o.subscriber, o.address));
            }
        }
        let Some(e) = estimate_counts(&obs) else {
            return;
        };
        t.row(&[
            result.config.name.clone(),
            e.true_subscribers.to_string(),
            e.distinct_addresses.to_string(),
            e.distinct_p64.to_string(),
            format!("{:.1}x", e.address_overcount),
            format!("{:.1}x", e.p64_overcount),
        ]);
    });
    format!(
        "User counting over 30 days (several devices per home, mostly\nprivacy addresses rotating daily): counting distinct addresses\novercounts massively everywhere; counting /64s is exact on stable\nnetworks but still overcounts by ~the renumbering rate on daily\nrenumberers like DTAG and Netcologne — the Section 2.3 point.\n\n{}",
        t.render()
    )
}

/// Sanitizer accounting and value (Appendix A.1): what the filters remove,
/// and how the duration distribution would be distorted without them.
/// `atlas_scale` only labels the output.
pub fn sanitizer_report_with(world: &World, atlas_scale: f64) -> String {
    let wants = AtlasWants {
        short_v4: true,
        ..AtlasWants::default()
    };
    let products = AtlasProducts::collect(
        world,
        Window::atlas_paper(),
        wants,
        1,
        &mut DegradationReport::new(),
    );
    render_sanitizer(&products.analysis.sanitize, &products.short_v4, atlas_scale)
}

/// The `sanitizer` artifact from one pass's sanitizer accounting and
/// ≤2 h v4 time shares.
pub(crate) fn render_sanitizer(
    report: &SanitizeReport,
    short_v4: &ShortV4Share,
    atlas_scale: f64,
) -> String {
    let mut t = TextTable::new(&["filter", "count"]);
    for (label, n) in [
        ("probes in", report.probes_in as u64),
        (
            "test-address records removed",
            report.test_address_records as u64,
        ),
        ("bad tags", report.bad_tag as u64),
        ("atypical NAT", report.atypical_nat as u64),
        ("multihomed", report.multihomed as u64),
        ("split into virtual probes", report.split_probes as u64),
        ("too short", report.too_short as u64),
        ("clean (virtual) probes out", report.probes_out as u64),
    ] {
        t.row(&[label.to_string(), dynamips_core::report::thousands(n)]);
    }

    // Distortion: the multihomed A-B-A-B artifact floods the raw analysis
    // with 1-hour "durations".
    let raw_1h = short_v4.raw.fraction();
    let clean_1h = short_v4.clean.fraction();
    format!(
        "Appendix A.1 sanitizer: per-filter accounting at Atlas scale {:.2}, plus the distortion it prevents.\n\n{}\nfraction of total v4 assignment time in <=2h 'durations':\nraw (no sanitizer):  {raw_1h:.4}\nsanitized:           {clean_1h:.4}\n(multihomed alternation and test addresses fabricate sub-hourly churn;\nthe sanitizer removes virtually all of it)\n",
        atlas_scale,
        t.render()
    )
}

/// Seed-robustness report: the headline shape statistics across several
/// seeds, to show the reproduction does not hinge on one lucky RNG stream.
/// Not part of `all` (it multiplies the Atlas pipeline cost).
pub fn seed_robustness(cfg: &ExperimentConfig) -> String {
    use dynamips_core::durations::detect_period;

    let mut t = TextTable::new(&[
        "seed",
        "DTAG period",
        "DTAG simultaneity",
        "DTAG diff-BGP v4/v6",
        "Orange inference",
        "Netcologne inference",
    ]);
    for offset in 0..3u64 {
        let seed = cfg.seed + offset;
        let a = crate::context::AtlasAnalysis::compute(&crate::context::ExperimentConfig {
            seed,
            ..*cfg
        });
        let dtag = a.by_name("DTAG").map(|(_, s)| s);
        let period = dtag
            .and_then(|s| detect_period(&s.v4_durations_nds, 0.06, 0.4))
            .map(|p| format!("{}h", p.period_hours))
            .unwrap_or_else(|| "-".into());
        let sim = dtag
            .map(|s| format!("{:.0}%", 100.0 * s.cooccurrence.simultaneity()))
            .unwrap_or_else(|| "-".into());
        let bgp = dtag
            .map(|s| {
                format!(
                    "{:.0}%/{:.0}%",
                    s.crossing.pct_v4_diff_bgp(),
                    s.crossing.pct_v6_diff_bgp()
                )
            })
            .unwrap_or_else(|| "-".into());
        let mode = |name: &str| {
            a.by_name(name)
                .and_then(|(_, s)| s.inferred.mode())
                .map(|m| format!("/{m}"))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[
            seed.to_string(),
            period,
            sim,
            bgp,
            mode("Orange"),
            mode("Netcologne"),
        ]);
    }
    format!(
        "Seed robustness: the headline shapes across three seeds at Atlas\nscale {:.2}.\n\n{}",
        cfg.atlas_scale,
        t.render()
    )
}

/// Export the synthetic Atlas dataset as IP-echo TSV.
pub fn dump_atlas(cfg: &ExperimentConfig, path: &std::path::Path) -> std::io::Result<String> {
    use std::io::Write as _;
    let world = atlas_world(cfg.seed, cfg.atlas_scale);
    let window = Window::atlas_paper();
    let collector = AtlasCollector::new(&world, window, AtlasConfig::default());
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    let mut probes = 0usize;
    let mut records = 0usize;
    let mut err: Option<std::io::Error> = None;
    collector.for_each_probe(|series| {
        if err.is_some() {
            return;
        }
        probes += 1;
        records += series.v4.len() + series.v6.len();
        if let Err(e) = w.write_all(
            dynamips_atlas::records::to_tsv(series.probe, &series.v4, &series.v6).as_bytes(),
        ) {
            err = Some(e);
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    w.flush()?;
    Ok(format!(
        "wrote {records} IP-echo records from {probes} probes to {}",
        path.display()
    ))
}

/// Export the synthetic CDN association dataset as TSV.
pub fn dump_cdn(cfg: &ExperimentConfig, path: &std::path::Path) -> std::io::Result<String> {
    use dynamips_netsim::profiles::cdn_world;
    let world = cdn_world(cfg.seed, cfg.cdn_scale);
    let ds = CdnCollector::new(&world, Window::cdn_paper(), CdnConfig::default()).collect();
    std::fs::write(path, dynamips_cdn::dataset::to_tsv(&ds))?;
    Ok(format!(
        "wrote {} association tuples to {}",
        ds.len(),
        path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WarmSession;

    /// Render `name` through one engine session shared by these tests.
    fn render(name: &str) -> String {
        static SESSION: std::sync::OnceLock<WarmSession> = std::sync::OnceLock::new();
        SESSION
            .get_or_init(|| WarmSession::warm(ExperimentConfig::small(3), 1))
            .render_artifact(name)
            .text
    }

    #[test]
    fn evolution_renders_yearly_rows() {
        let text = render("evolution");
        assert!(text.contains("DTAG"));
        assert!(text.contains("2015"), "{text}");
        assert!(text.contains("survival change"));
    }

    #[test]
    fn pool_boundaries_recover_ground_truth_grain() {
        let text = render("pools");
        // DTAG's configured region is /40 and should be recovered.
        let dtag_line = text
            .lines()
            .find(|l| l.starts_with("DTAG"))
            .expect("DTAG row");
        assert!(dtag_line.contains("/40"), "{dtag_line}");
    }

    #[test]
    fn scan_plans_hit_future_assignments() {
        let text = render("scanplan");
        // DTAG churns enough to be plannable at any scale; its hit rate is
        // capped by the scrambling-CPE share (the paper's evasion point),
        // but must be far above zero.
        let dtag = text
            .lines()
            .find(|l| l.starts_with("DTAG"))
            .expect("DTAG row");
        let pct: f64 = dtag
            .split_whitespace()
            .find(|w| w.ends_with('%'))
            .and_then(|w| w.trim_end_matches('%').parse().ok())
            .expect("hit rate cell");
        assert!(pct > 25.0, "{dtag}");
        // Low-churn networks may legitimately be unplannable at tiny
        // scales, but the table must still carry their rows.
        assert!(text.lines().any(|l| l.starts_with("Orange")), "{text}");
    }

    #[test]
    fn anonymize_audit_flags_netcologne() {
        let text = render("anonymize");
        let row = text
            .lines()
            .find(|l| l.starts_with("Netcologne"))
            .expect("Netcologne row");
        // The /48 k-median must be 1 (single subscriber per /48).
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[2], "1", "{row}");
    }

    #[test]
    fn blocklist_sweep_renders_grid() {
        let text = render("blocklist");
        assert!(text.contains("--- DTAG ---"));
        assert!(text.contains("efficacy"));
        assert!(text.contains("/56"));
    }

    #[test]
    fn dumps_write_files() {
        let dir = std::env::temp_dir().join("dynamips-dump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tiny = ExperimentConfig {
            seed: 4,
            atlas_scale: 0.01,
            cdn_scale: 0.01,
        };
        let atlas_path = dir.join("atlas.tsv");
        let msg = dump_atlas(&tiny, &atlas_path).unwrap();
        assert!(msg.contains("IP-echo records"));
        let parsed =
            dynamips_atlas::records::from_tsv(&std::fs::read_to_string(&atlas_path).unwrap())
                .unwrap();
        assert!(!parsed.is_empty());

        let cdn_path = dir.join("cdn.tsv");
        let msg = dump_cdn(&tiny, &cdn_path).unwrap();
        assert!(msg.contains("association tuples"));
        let parsed =
            dynamips_cdn::dataset::from_tsv(&std::fs::read_to_string(&cdn_path).unwrap()).unwrap();
        assert!(!parsed.is_empty());
    }
}
