//! Shared analysis products for the experiment harness.
//!
//! The Atlas side is one streaming pass ([`AtlasProducts::collect`]):
//! every probe series is collected once and sanitized once (Appendix
//! A.1), and its clean histories feed every product the request wants —
//! the [`AtlasAnalysis`] accumulators, the per-AS clean histories of the
//! extended artifacts, and the `sanitizer` artifact's distortion sums.

use crate::extended::CleanHistories;
use dynamips_atlas::{AtlasCollector, AtlasConfig, EchoV4, ProbeSeries};
use dynamips_cdn::{AssociationDataset, CdnCollector, CdnConfig};
use dynamips_core::association::{association_runs, durations_by_asn, AssociationRun, P64Order};
use dynamips_core::cardinality::{degree_stats, DegreeStats};
use dynamips_core::changes::{sandwiched_durations, ProbeHistory};
use dynamips_core::degrade::DegradationReport;
use dynamips_core::dualstack::{co_occurrence, labeled_v4_durations, CoOccurrence};
use dynamips_core::durations::{detect_period, DurationSet, ThresholdTtf};
use dynamips_core::pools::PoolAccumulator;
use dynamips_core::sanitize::{sanitize_probe, SanitizeConfig, SanitizeOutcome, SanitizeReport};
use dynamips_core::spatial::{CplHistogram, CrossingStats};
use dynamips_core::subscriber::{InferredLenDistribution, NibbleCounter};
use dynamips_netsim::profiles::{atlas_world, cdn_world};
use dynamips_netsim::time::Window;
use dynamips_netsim::{SimTime, World};
use dynamips_routing::{Asn, Rir, RoutingTable};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::mpsc::sync_channel;
use std::thread;

/// Harness configuration: seed and dataset scales.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Master seed for world construction and collection.
    pub seed: u64,
    /// Probe-count scale for the Atlas world (1.0 = the paper's Table-1
    /// probe counts).
    pub atlas_scale: f64,
    /// Subscriber-count scale for the CDN world.
    pub cdn_scale: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 20201201, // CoNEXT'20 opening day
            atlas_scale: 1.0,
            cdn_scale: 1.0,
        }
    }
}

impl ExperimentConfig {
    /// A small configuration for tests (seconds, not minutes).
    pub fn small(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            atlas_scale: 0.06,
            cdn_scale: 0.04,
        }
    }
}

/// Everything the Atlas-derived artifacts need, per AS.
#[derive(Debug, Default)]
pub struct AsStats {
    /// Operator name.
    pub name: String,
    /// Country label.
    pub country: String,
    /// Clean (virtual) probes observed in this AS.
    pub probes: usize,
    /// Clean probes classified dual-stack.
    pub ds_probes: usize,
    /// v4 changes over all clean probes.
    pub v4_changes_all: u64,
    /// v4 changes over dual-stack probes.
    pub v4_changes_ds: u64,
    /// v6 changes over dual-stack probes.
    pub v6_changes: u64,
    /// Sandwiched v4 durations on non-dual-stack assignments.
    pub v4_durations_nds: DurationSet,
    /// Sandwiched v4 durations on dual-stack assignments.
    pub v4_durations_ds: DurationSet,
    /// Sandwiched v6 /64 durations.
    pub v6_durations: DurationSet,
    /// v4/v6 change co-occurrence counters.
    pub cooccurrence: CoOccurrence,
    /// CPL histogram between successive /64 assignments.
    pub cpl: CplHistogram,
    /// Cross-/24 and cross-BGP counters.
    pub crossing: CrossingStats,
    /// Unique-prefix-per-length accumulator (probes with ≥ 1 v6 change).
    pub pools: PoolAccumulator,
    /// Inferred subscriber prefix lengths (probes with ≥ 1 v6 change).
    pub inferred: InferredLenDistribution,
}

impl AsStats {
    /// Fold another shard's accumulators for the same AS into this one.
    /// Every field is a counter or an order-insensitive accumulator, so
    /// merging shard partials in any order reproduces the sequential
    /// accumulation exactly.
    pub fn merge(&mut self, other: &AsStats) {
        if self.name.is_empty() {
            self.name = other.name.clone();
        }
        if self.country.is_empty() {
            self.country = other.country.clone();
        }
        self.probes += other.probes;
        self.ds_probes += other.ds_probes;
        self.v4_changes_all += other.v4_changes_all;
        self.v4_changes_ds += other.v4_changes_ds;
        self.v6_changes += other.v6_changes;
        self.v4_durations_nds.merge(&other.v4_durations_nds);
        self.v4_durations_ds.merge(&other.v4_durations_ds);
        self.v6_durations.merge(&other.v6_durations);
        self.cooccurrence.merge(&other.cooccurrence);
        self.cpl.merge(&other.cpl);
        self.crossing.merge(&other.crossing);
        self.pools.merge(&other.pools);
        self.inferred.merge(&other.inferred);
    }
}

/// Which products one Atlas pass ([`AtlasProducts::collect`]) fills.
/// The sanitizer's accounting is always kept: it is a by-product of
/// sanitizing every series.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AtlasWants {
    /// The per-AS accumulators of [`AtlasAnalysis`].
    pub(crate) analysis: bool,
    /// The [`CleanHistories`] map.
    pub(crate) histories: bool,
    /// The `sanitizer` artifact's [`ShortV4Share`].
    pub(crate) short_v4: bool,
}

/// Duration threshold, hours, of the `sanitizer` artifact's distortion
/// figure.
const SHORT_V4_HOURS: u64 = 2;

/// Share of total v4 assignment time in ≤2 h durations, before and after
/// the sanitizer: the distortion the `sanitizer` artifact prints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShortV4Share {
    /// Sandwiched durations of spans taken straight from the echo
    /// records, no filters.
    pub(crate) raw: ThresholdTtf,
    /// Sandwiched v4 durations of the clean histories.
    pub(crate) clean: ThresholdTtf,
}

impl Default for ShortV4Share {
    fn default() -> Self {
        ShortV4Share {
            raw: ThresholdTtf::new(SHORT_V4_HOURS),
            clean: ThresholdTtf::new(SHORT_V4_HOURS),
        }
    }
}

impl ShortV4Share {
    fn merge(&mut self, other: &ShortV4Share) {
        self.raw.merge(&other.raw);
        self.clean.merge(&other.clean);
    }
}

/// Everything one streaming pass over the Atlas world derives. A product
/// that was not wanted is left empty; `analysis.sanitize` and `window`
/// are always filled.
pub(crate) struct AtlasProducts {
    /// The Atlas analysis; its per-AS and global accumulators are empty
    /// unless [`AtlasWants::analysis`].
    pub(crate) analysis: AtlasAnalysis,
    /// Clean histories per AS, in collector order; empty unless
    /// [`AtlasWants::histories`].
    pub(crate) histories: CleanHistories,
    /// Zero unless [`AtlasWants::short_v4`].
    pub(crate) short_v4: ShortV4Share,
}

/// One worker's share of a pass: every wanted product over the series
/// dealt to it, merged across shards afterwards.
#[derive(Default)]
struct Shard {
    wants: AtlasWants,
    per_as: BTreeMap<Asn, AsStats>,
    report: SanitizeReport,
    global_inferred: InferredLenDistribution,
    degradation: DegradationReport,
    /// Clean histories tagged with their series' collector index.
    histories: Vec<(usize, ProbeHistory)>,
    short_v4: ShortV4Share,
}

impl Shard {
    fn new(wants: AtlasWants) -> Shard {
        Shard {
            wants,
            ..Shard::default()
        }
    }

    /// Sanitize series number `index` and feed its clean histories to
    /// every wanted product.
    fn accept(
        &mut self,
        index: usize,
        series: ProbeSeries,
        routing: &RoutingTable,
        cfg: &SanitizeConfig,
    ) {
        if self.wants.short_v4 {
            self.short_v4.raw.extend(raw_v4_durations(&series.v4));
        }
        let histories = match sanitize_probe(&series, routing, cfg, &mut self.report) {
            SanitizeOutcome::Clean(histories) => histories,
            SanitizeOutcome::Rejected(reason) => {
                self.degradation.record("sanitize", reason.class());
                return;
            }
        };
        for h in &histories {
            if self.wants.short_v4 {
                self.short_v4.clean.extend(sandwiched_durations(&h.v4));
            }
            if self.wants.analysis {
                self.accumulate(h, routing);
            }
        }
        if self.wants.histories {
            self.histories
                .extend(histories.into_iter().map(|h| (index, h)));
        }
    }

    /// Fold one clean history into the per-AS and global accumulators.
    fn accumulate(&mut self, h: &ProbeHistory, routing: &RoutingTable) {
        let stats = self.per_as.entry(h.asn).or_default();
        stats.probes += 1;
        let ds = h.is_dual_stack(DS_COVERAGE);
        if ds {
            stats.ds_probes += 1;
        }

        // Change counts (Table 1).
        let v4_changes = h.v4.len().saturating_sub(1) as u64;
        let v6_changes = h.v6.len().saturating_sub(1) as u64;
        stats.v4_changes_all += v4_changes;
        if ds {
            stats.v4_changes_ds += v4_changes;
            stats.v6_changes += v6_changes;
        }

        // Durations (Figure 1).
        for d in labeled_v4_durations(h, DS_COVERAGE) {
            if d.dual_stack {
                stats.v4_durations_ds.push(d.hours);
            } else {
                stats.v4_durations_nds.push(d.hours);
            }
        }
        stats.v6_durations.extend(sandwiched_durations(&h.v6));

        // Interplay (Section 3.2).
        if ds {
            stats.cooccurrence.merge(&co_occurrence(h));
        }

        // Spatial (Figure 5, Table 2).
        stats.cpl.add_probe(h);
        stats.crossing.add_probe(h, routing);

        // Pools and subscriber boundaries (Figures 6, 8, 9) —
        // probes with at least one v6 assignment change.
        if v6_changes >= 1 {
            stats.pools.add_probe(h, routing);
            stats.inferred.add_probe(h);
            self.global_inferred.add_probe(h);
        }
    }

    /// Fold another shard into this one. The accumulators are
    /// order-insensitive; histories keep their tags and are put back in
    /// collector order once all shards are in.
    fn merge(&mut self, other: Shard) {
        for (asn, stats) in other.per_as {
            self.per_as.entry(asn).or_default().merge(&stats);
        }
        self.report.merge(&other.report);
        self.global_inferred.merge(&other.global_inferred);
        self.degradation.merge(&other.degradation);
        self.histories.extend(other.histories);
        self.short_v4.merge(&other.short_v4);
    }
}

/// The sandwiched durations of the spans of `v4`'s records, folded
/// straight from the records: a span's duration is due when the next span
/// starts, and the first and last spans (not preceded, or not ended, by a
/// change) have none. Equal to `sandwiched_durations` over
/// `spans_of(v4)`, in any record order.
fn raw_v4_durations(v4: &[EchoV4]) -> impl Iterator<Item = u64> + '_ {
    // The current span's value and first time, and whether a change
    // preceded it.
    let mut span: Option<(Ipv4Addr, SimTime, bool)> = None;
    v4.iter().filter_map(move |r| match span {
        Some((value, _, _)) if value == r.client => None,
        Some((_, first, sandwiched)) => {
            span = Some((r.client, r.time, true));
            sandwiched.then(|| r.time - first)
        }
        None => {
            span = Some((r.client, r.time, false));
            None
        }
    })
}

impl AtlasProducts {
    /// Collect every probe of `world` over `window` and run one pass:
    /// see [`AtlasProducts::collect_with`].
    pub(crate) fn collect(
        world: &World,
        window: Window,
        wants: AtlasWants,
        workers: usize,
        degradation: &mut DegradationReport,
    ) -> AtlasProducts {
        let collector = AtlasCollector::new(world, window, AtlasConfig::default());
        Self::collect_with(
            world,
            window,
            |sink| collector.for_each_probe(sink),
            wants,
            workers,
            degradation,
        )
    }

    /// The one collect-and-sanitize loop: `for_each` drives every probe
    /// series through the sink exactly once, each series is sanitized
    /// once, and its clean histories feed every wanted product.
    ///
    /// `for_each` runs on the calling thread, so probe *generation* stays
    /// sequential (the collector threads one RNG and donor state through
    /// the probes). With `workers > 1` each series is dealt round-robin
    /// to a worker thread; the accumulators merge order-insensitively and
    /// histories merge by series index, so every product is identical to
    /// `workers == 1`. Sanitizer rejections and stripped test-address
    /// records are recorded in `degradation` under stage `"sanitize"`.
    pub(crate) fn collect_with(
        world: &World,
        window: Window,
        for_each: impl FnOnce(&mut dyn FnMut(ProbeSeries)),
        wants: AtlasWants,
        workers: usize,
        degradation: &mut DegradationReport,
    ) -> AtlasProducts {
        let sanitize_cfg = SanitizeConfig::default();
        let routing = world.routing();

        // The one-worker path stays a plain loop on the calling thread.
        // Run as a one-shard fan-out (probes generated here, sanitized on
        // one shard thread, every check kept), `batch-all` at 1 worker
        // went from 104-108 MB to 292-358 MB peak RSS in every run and
        // +8% median CPU over 6 alternating pairs: series queued across
        // threads triple the peak. Measure again before collapsing it.
        let mut acc = if workers <= 1 {
            let mut acc = Shard::new(wants);
            let mut index = 0usize;
            let mut sink = |series: ProbeSeries| {
                acc.accept(index, series, routing, &sanitize_cfg);
                index += 1;
            };
            for_each(&mut sink);
            acc
        } else {
            #[allow(clippy::disallowed_methods, reason = "scoped history shards")]
            let shards = thread::scope(|scope| {
                let mut senders = Vec::with_capacity(workers);
                let mut handles = Vec::with_capacity(workers);
                for _ in 0..workers {
                    // Bounded queue: backpressure keeps the sequential
                    // generator from outrunning slow shards unboundedly.
                    let (tx, rx) = sync_channel::<(usize, ProbeSeries)>(128);
                    let cfg = &sanitize_cfg;
                    handles.push(scope.spawn(move || {
                        let mut acc = Shard::new(wants);
                        for (index, series) in rx {
                            acc.accept(index, series, routing, cfg);
                        }
                        acc
                    }));
                    senders.push(tx);
                }
                let mut i = 0usize;
                let mut sink = |series: ProbeSeries| {
                    // A send fails only if the shard worker already died;
                    // its panic is re-raised at join below, so the lost
                    // series is moot.
                    let _ = senders[i % workers].send((i, series));
                    i += 1;
                };
                for_each(&mut sink);
                drop(senders); // close the queues so workers drain and exit
                handles
                    .into_iter()
                    .map(|h| crate::resume_worker(h.join()))
                    .collect::<Vec<_>>()
            });
            let mut merged = Shard::new(wants);
            for shard in shards {
                merged.merge(shard);
            }
            merged
        };

        // Prefill AS names/countries so ASes with zero clean probes still
        // render, matching the sequential prefill-then-accumulate order.
        if wants.analysis {
            for isp in world.isps() {
                let entry = acc.per_as.entry(isp.asn).or_default();
                entry.name = isp.name.clone();
                entry.country = isp.country.clone();
            }
        }

        // Stripped test-address records are repairs, not probe rejections,
        // so they are only visible through the sanitize report.
        acc.degradation.record_many(
            "sanitize",
            "test-address-record",
            acc.report.test_address_records as u64,
        );
        degradation.merge(&acc.degradation);

        // Stable: one series' histories sit in one shard, in order.
        acc.histories.sort_by_key(|(index, _)| *index);
        let mut histories = CleanHistories::new();
        for (_, h) in acc.histories {
            histories.entry(h.asn).or_default().push(h);
        }

        AtlasProducts {
            analysis: AtlasAnalysis {
                per_as: acc.per_as,
                sanitize: acc.report,
                global_inferred: acc.global_inferred,
                window,
            },
            histories,
            short_v4: acc.short_v4,
        }
    }
}

/// The full Atlas-side analysis.
pub struct AtlasAnalysis {
    /// Per-AS accumulators.
    pub per_as: BTreeMap<Asn, AsStats>,
    /// Sanitizer accounting.
    pub sanitize: SanitizeReport,
    /// Inferred subscriber prefix lengths over all probes (Figure 9).
    pub global_inferred: InferredLenDistribution,
    /// The collection window.
    pub window: Window,
}

/// Coverage threshold for calling an assignment/probe dual-stack.
const DS_COVERAGE: f64 = 0.8;

/// What the `AtlasAnalysis` entry points ask one pass for.
const ANALYSIS_ONLY: AtlasWants = AtlasWants {
    analysis: true,
    histories: false,
    short_v4: false,
};

impl AtlasAnalysis {
    /// Build the Atlas world, collect every probe, sanitize, accumulate.
    pub fn compute(cfg: &ExperimentConfig) -> AtlasAnalysis {
        let world = atlas_world(cfg.seed, cfg.atlas_scale);
        let mut degradation = DegradationReport::new();
        AtlasProducts::collect(
            &world,
            Window::atlas_paper(),
            ANALYSIS_ONLY,
            1,
            &mut degradation,
        )
        .analysis
    }

    /// Sanitize and accumulate pre-built probe series (e.g. recovered from
    /// a possibly-corrupted TSV dump by the lossy loader) against `world`'s
    /// routing and registry. Sanitizer rejections are recorded in
    /// `degradation` under stage `"sanitize"` with the
    /// [`dynamips_core::sanitize::RejectReason::class`] labels.
    pub fn compute_from_series(
        world: &World,
        window: Window,
        series: impl IntoIterator<Item = ProbeSeries>,
        degradation: &mut DegradationReport,
    ) -> AtlasAnalysis {
        Self::compute_with(
            world,
            window,
            |sink| series.into_iter().for_each(sink),
            degradation,
        )
    }

    /// Sanitize and accumulate on one worker every probe series that
    /// `for_each` drives through the sink (exactly once each): the
    /// streaming core of [`AtlasAnalysis::compute_from_series`].
    pub fn compute_with(
        world: &World,
        window: Window,
        for_each: impl FnOnce(&mut dyn FnMut(ProbeSeries)),
        degradation: &mut DegradationReport,
    ) -> AtlasAnalysis {
        AtlasProducts::collect_with(world, window, for_each, ANALYSIS_ONLY, 1, degradation).analysis
    }

    /// Stats for an AS by operator name.
    pub fn by_name(&self, name: &str) -> Option<(&Asn, &AsStats)> {
        self.per_as.iter().find(|(_, s)| s.name == name)
    }

    /// ASes with detected consistent periodic renumbering (non-dual-stack
    /// IPv4 durations), with the detected period in hours.
    pub fn periodic_v4_ases(&self) -> Vec<(Asn, u64)> {
        self.per_as
            .iter()
            .filter_map(|(asn, s)| {
                detect_period(&s.v4_durations_nds, 0.05, 0.5).map(|p| (*asn, p.period_hours))
            })
            .collect()
    }

    /// ASes with detected consistent periodic IPv6 renumbering.
    pub fn periodic_v6_ases(&self) -> Vec<(Asn, u64)> {
        self.per_as
            .iter()
            .filter_map(|(asn, s)| {
                detect_period(&s.v6_durations, 0.05, 0.5).map(|p| (*asn, p.period_hours))
            })
            .collect()
    }
}

/// The full CDN-side analysis.
pub struct CdnAnalysis {
    /// Pre-processing accounting: raw association tuples observed.
    pub raw_count: u64,
    /// Retained tuples.
    pub kept_count: u64,
    /// Tuples discarded because the /64's routed origin AS disagreed with
    /// the tuple's AS.
    pub discarded_as_mismatch: u64,
    /// Tuples discarded because the /64 was not routed at all. Folding
    /// this class into the mismatch count (as an earlier revision did)
    /// breaks `raw = kept + discards` accounting.
    pub discarded_unrouted: u64,
    /// Unique /64 count.
    pub unique_p64: usize,
    /// Fraction of unique /64s from cellular networks.
    pub mobile_p64_fraction: f64,
    /// Association runs.
    pub runs: Vec<AssociationRun>,
    /// Degree stats for fixed networks.
    pub fixed_degree: DegreeStats,
    /// Degree stats for mobile networks.
    pub mobile_degree: DegreeStats,
    /// Figure-7 nibble counters per RIR over unique *fixed* /64s.
    pub nibble_by_rir: BTreeMap<Rir, NibbleCounter>,
    /// Nibble counter over unique mobile /64s (the paper: "no evidence of
    /// consistent trailing zeroes").
    pub mobile_nibble: NibbleCounter,
    /// Association durations (days) grouped by AS.
    pub by_asn_days: BTreeMap<Asn, Vec<f64>>,
    /// ASN → (name, RIR) resolution for rendering.
    pub as_meta: BTreeMap<Asn, (String, Rir)>,
}

/// Maximum unobserved days before a /64 is considered gone (association-run
/// segmentation).
const MAX_GAP_DAYS: u32 = 7;

impl CdnAnalysis {
    /// Build the CDN world, collect and pre-process associations, and run
    /// all CDN-side analyses.
    pub fn compute(cfg: &ExperimentConfig) -> CdnAnalysis {
        let world = cdn_world(cfg.seed, cfg.cdn_scale);
        let mut degradation = DegradationReport::new();
        Self::compute_for_world(&world, &mut degradation)
    }

    /// Collect and analyze against a pre-built (possibly cache-shared)
    /// CDN world.
    pub fn compute_for_world(world: &World, degradation: &mut DegradationReport) -> CdnAnalysis {
        let window = Window::cdn_paper();
        let dataset = CdnCollector::new(world, window, CdnConfig::default()).collect();
        Self::compute_from_dataset(world, &dataset, degradation)
    }

    /// Run every CDN-side analysis over a pre-built association dataset
    /// (e.g. recovered from a possibly-corrupted TSV dump by the lossy
    /// loader) against `world`'s RIR map and registry. The dataset's
    /// pre-processing discards are recorded in `degradation` under stage
    /// `"association"`.
    pub fn compute_from_dataset(
        world: &World,
        dataset: &AssociationDataset,
        degradation: &mut DegradationReport,
    ) -> CdnAnalysis {
        degradation.record_many("association", "as-mismatch", dataset.discarded_as_mismatch);
        degradation.record_many("association", "unrouted", dataset.discarded_unrouted);

        // One stable sort by (/64, day) feeds every kernel.
        let by_p64 = P64Order::new(dataset);
        let runs = association_runs(&by_p64, MAX_GAP_DAYS);
        let (fixed_degree, mobile_degree) = degree_stats(&by_p64);

        // Unique /64s, classified mobile or fixed by their first sighting
        // in the dataset: the mobile share, and the trailing-zero classes
        // per RIR (fixed) and overall (mobile).
        let rirs = world.rirs();
        let mut nibble_by_rir: BTreeMap<Rir, NibbleCounter> = BTreeMap::new();
        let mut mobile_nibble = NibbleCounter::default();
        let (mut unique_p64, mut mobile_p64) = (0usize, 0usize);
        for t in by_p64.groups().filter_map(|g| g.first_seen()) {
            unique_p64 += 1;
            if t.mobile {
                mobile_p64 += 1;
                mobile_nibble.add(&t.p64);
            } else if let Some(rir) = rirs.rir_of_v6_prefix(&t.p64) {
                nibble_by_rir.entry(rir).or_default().add(&t.p64);
            }
        }
        let mobile_p64_fraction = match unique_p64 {
            0 => 0.0,
            n => mobile_p64 as f64 / n as f64,
        };

        let by_asn_days = durations_by_asn(&runs);
        let as_meta = world
            .registry()
            .iter()
            .map(|i| (i.asn, (i.name.clone(), i.rir)))
            .collect();

        CdnAnalysis {
            raw_count: dataset.raw_count,
            kept_count: dataset.len() as u64,
            discarded_as_mismatch: dataset.discarded_as_mismatch,
            discarded_unrouted: dataset.discarded_unrouted,
            unique_p64,
            mobile_p64_fraction,
            runs,
            fixed_degree,
            mobile_degree,
            nibble_by_rir,
            mobile_nibble,
            by_asn_days,
            as_meta,
        }
    }

    /// Resolve an AS by operator name.
    pub fn asn_by_name(&self, name: &str) -> Option<Asn> {
        self.as_meta
            .iter()
            .find(|(_, (n, _))| n == name)
            .map(|(a, _)| *a)
    }

    /// RIR resolver closure for the Figure-3 grouping.
    pub fn rir_of(&self, asn: Asn) -> Option<Rir> {
        self.as_meta.get(&asn).map(|(_, r)| *r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field the analysis artifacts read, compared exactly.
    fn assert_same_analysis(a1: &AtlasAnalysis, a3: &AtlasAnalysis) {
        assert_eq!(a1.sanitize, a3.sanitize);
        assert_eq!(a1.global_inferred.counts, a3.global_inferred.counts);
        assert_eq!(a1.per_as.len(), a3.per_as.len());
        for ((asn1, s1), (asn3, s3)) in a1.per_as.iter().zip(a3.per_as.iter()) {
            assert_eq!(asn1, asn3);
            assert_eq!(s1.name, s3.name);
            assert_eq!(
                (
                    s1.probes,
                    s1.ds_probes,
                    s1.v4_changes_all,
                    s1.v4_changes_ds,
                    s1.v6_changes
                ),
                (
                    s3.probes,
                    s3.ds_probes,
                    s3.v4_changes_all,
                    s3.v4_changes_ds,
                    s3.v6_changes
                ),
                "counters for {}",
                s1.name
            );
            assert_eq!(s1.crossing, s3.crossing, "{}", s1.name);
            assert_eq!(s1.cpl.changes, s3.cpl.changes, "{}", s1.name);
            assert_eq!(s1.cpl.probes, s3.cpl.probes, "{}", s1.name);
            assert_eq!(s1.inferred.counts, s3.inferred.counts, "{}", s1.name);
            assert_eq!(s1.pools.probes(), s3.pools.probes(), "{}", s1.name);
            // Duration sets shard into different internal orders; every
            // consumer sorts, so compare the sorted marks bit-for-bit.
            for (d1, d3) in [
                (&s1.v4_durations_nds, &s3.v4_durations_nds),
                (&s1.v4_durations_ds, &s3.v4_durations_ds),
                (&s1.v6_durations, &s3.v6_durations),
            ] {
                assert_eq!(
                    d1.cumulative_ttf_marks(),
                    d3.cumulative_ttf_marks(),
                    "{}",
                    s1.name
                );
            }
        }
    }

    /// The sharded accumulate path must be invariant in the worker count:
    /// same per-AS statistics, same sanitizer accounting, same degradation
    /// ledger as the sequential path.
    #[test]
    fn sharded_accumulation_matches_sequential() {
        let world = atlas_world(5, 0.02);
        let mut d1 = DegradationReport::new();
        let mut d3 = DegradationReport::new();
        let window = Window::atlas_paper();
        let a1 = AtlasProducts::collect(&world, window, ANALYSIS_ONLY, 1, &mut d1).analysis;
        let a3 = AtlasProducts::collect(&world, window, ANALYSIS_ONLY, 3, &mut d3).analysis;

        assert_eq!(d1.render(), d3.render());
        assert_same_analysis(&a1, &a3);
    }

    /// The raw short-v4 fold equals `sandwiched_durations` over the
    /// spans of the same records: runs of repeated and of alternating
    /// addresses, short and empty series, records out of time order.
    #[test]
    fn raw_v4_durations_match_span_reference() {
        use dynamips_core::changes::histories_from_records;
        use rand::Rng;
        let mut rng = dynamips_netsim::rngutil::derive_rng(26, 2);
        let mut nonempty = 0;
        for i in 0..400 {
            let mut v4: Vec<EchoV4> = Vec::new();
            let mut h = rng.gen_range(0..10u64);
            for _ in 0..rng.gen_range(0..12) {
                let client = Ipv4Addr::new(84, 1, 0, rng.gen_range(0..3));
                for _ in 0..rng.gen_range(1..6) {
                    v4.push(EchoV4 {
                        time: SimTime(h),
                        client,
                        src: Ipv4Addr::new(192, 168, 1, 2),
                    });
                    h += rng.gen_range(1..4);
                }
            }
            if i % 4 == 0 && v4.len() > 1 {
                let (a, b) = (rng.gen_range(0..v4.len()), rng.gen_range(0..v4.len()));
                v4.swap(a, b);
            }
            let got: Vec<u64> = raw_v4_durations(&v4).collect();
            let want = sandwiched_durations(&histories_from_records(&v4, &[]).0);
            assert_eq!(got, want, "series {i}");
            nonempty += usize::from(!got.is_empty());
        }
        assert!(nonempty > 100, "{nonempty} series with durations");
    }

    /// The unique-/64 count, the mobile share and the nibble counters
    /// derived from the sorted order equal the hash-set pass and the
    /// dataset methods they replaced, on shuffled tuples with repeated
    /// days and /64s whose tuples disagree on the mobile flag.
    #[test]
    fn sorted_cdn_products_match_hash_reference() {
        use dynamips_cdn::Association;
        use rand::Rng;
        #[allow(
            clippy::disallowed_types,
            reason = "reference oracle in a test: membership test only"
        )]
        use std::collections::HashSet;
        let world = cdn_world(3, 0.02);
        let full = CdnCollector::new(&world, Window::cdn_paper(), CdnConfig::default()).collect();
        assert!(full.tuples.len() > 5_000, "{} tuples", full.tuples.len());
        let mut rng = dynamips_netsim::rngutil::derive_rng(26, 6);
        for round in 0..4 {
            let mut ds = full.clone();
            ds.tuples.truncate(20_000);
            let extra: Vec<Association> = (0..2_000)
                .map(|_| {
                    let mut t = ds.tuples[rng.gen_range(0..ds.tuples.len())];
                    t.mobile = rng.gen_bool(0.5);
                    t.day += rng.gen_range(0..3);
                    t
                })
                .collect();
            ds.tuples.extend(extra);
            for i in (1..ds.tuples.len()).rev() {
                ds.tuples.swap(i, rng.gen_range(0..=i));
            }

            let mut deg = DegradationReport::new();
            let c = CdnAnalysis::compute_from_dataset(&world, &ds, &mut deg);
            let (mut by_rir, mut mobile) = (
                BTreeMap::<Rir, NibbleCounter>::new(),
                NibbleCounter::default(),
            );
            #[allow(
                clippy::disallowed_types,
                reason = "reference oracle in a test: membership test only"
            )]
            let mut seen: HashSet<u128> = HashSet::new();
            for t in &ds.tuples {
                if !seen.insert(t.p64.bits()) {
                    continue;
                }
                if t.mobile {
                    mobile.add(&t.p64);
                } else if let Some(rir) = world.rirs().rir_of_v6_prefix(&t.p64) {
                    by_rir.entry(rir).or_default().add(&t.p64);
                }
            }
            assert_eq!(c.unique_p64, ds.unique_p64_count(), "round {round}");
            assert_eq!(
                c.mobile_p64_fraction.to_bits(),
                ds.mobile_p64_fraction().to_bits(),
                "round {round}"
            );
            assert_eq!(c.nibble_by_rir, by_rir, "round {round}");
            assert_eq!(c.mobile_nibble, mobile, "round {round}");
            assert!(mobile.total() > 0 && !by_rir.is_empty(), "both populations");
        }
    }

    /// Reference copies of the three collect-and-sanitize loops the single
    /// pass replaced, kept as oracles: each walks the whole collector and
    /// sanitizes every series on its own.
    mod reference {
        use super::super::*;
        use dynamips_core::changes::histories_from_records;

        /// The analysis loop: sanitize, then accumulate every clean history.
        pub(super) fn analysis(
            world: &World,
            degradation: &mut DegradationReport,
        ) -> AtlasAnalysis {
            let window = Window::atlas_paper();
            let collector = AtlasCollector::new(world, window, AtlasConfig::default());
            let cfg = SanitizeConfig::default();
            let mut acc = Shard::new(ANALYSIS_ONLY);
            collector.for_each_probe(|series| {
                match sanitize_probe(&series, world.routing(), &cfg, &mut acc.report) {
                    SanitizeOutcome::Clean(histories) => {
                        for h in &histories {
                            acc.accumulate(h, world.routing());
                        }
                    }
                    SanitizeOutcome::Rejected(reason) => {
                        acc.degradation.record("sanitize", reason.class());
                    }
                }
            });
            for isp in world.isps() {
                let entry = acc.per_as.entry(isp.asn).or_default();
                entry.name = isp.name.clone();
                entry.country = isp.country.clone();
            }
            acc.degradation.record_many(
                "sanitize",
                "test-address-record",
                acc.report.test_address_records as u64,
            );
            degradation.merge(&acc.degradation);
            AtlasAnalysis {
                per_as: acc.per_as,
                sanitize: acc.report,
                global_inferred: acc.global_inferred,
                window,
            }
        }

        /// The history loop: clean histories grouped by AS.
        pub(super) fn clean_histories(world: &World) -> CleanHistories {
            let collector =
                AtlasCollector::new(world, Window::atlas_paper(), AtlasConfig::default());
            let cfg = SanitizeConfig::default();
            let mut report = SanitizeReport::default();
            let mut out = CleanHistories::new();
            collector.for_each_probe(|series| {
                if let SanitizeOutcome::Clean(hs) =
                    sanitize_probe(&series, world.routing(), &cfg, &mut report)
                {
                    for h in hs {
                        out.entry(h.asn).or_default().push(h);
                    }
                }
            });
            out
        }

        /// The sanitizer loop, holding every raw and clean v4 duration.
        pub(super) fn sanitizer_text(world: &World, atlas_scale: f64) -> String {
            let collector =
                AtlasCollector::new(world, Window::atlas_paper(), AtlasConfig::default());
            let cfg = SanitizeConfig::default();
            let mut report = SanitizeReport::default();
            let mut clean = DurationSet::new();
            let mut raw = DurationSet::new();
            collector.for_each_probe(|series| {
                let (v4_raw, _) = histories_from_records(&series.v4, &series.v6);
                raw.extend(sandwiched_durations(&v4_raw));
                if let SanitizeOutcome::Clean(hs) =
                    sanitize_probe(&series, world.routing(), &cfg, &mut report)
                {
                    for h in hs {
                        clean.extend(sandwiched_durations(&h.v4));
                    }
                }
            });
            let mut t = dynamips_core::report::TextTable::new(&["filter", "count"]);
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
            let raw_1h = raw.cumulative_ttf_at(&[2])[0];
            let clean_1h = clean.cumulative_ttf_at(&[2])[0];
            format!(
                "Appendix A.1 sanitizer: per-filter accounting at Atlas scale {:.2}, plus the distortion it prevents.\n\n{}\nfraction of total v4 assignment time in <=2h 'durations':\nraw (no sanitizer):  {raw_1h:.4}\nsanitized:           {clean_1h:.4}\n(multihomed alternation and test addresses fabricate sub-hourly churn;\nthe sanitizer removes virtually all of it)\n",
                atlas_scale,
                t.render()
            )
        }
    }

    /// One pass with every product wanted reproduces each of the three
    /// separate loops it replaced, at one worker and at three: the same
    /// analysis, the same histories per AS in the same order, the same
    /// `sanitizer` text byte for byte. The single-product wrappers agree
    /// too.
    #[test]
    fn single_pass_matches_the_three_loops() {
        let world = atlas_world(5, 0.02);
        let scale = 0.02;
        let mut want_deg = DegradationReport::new();
        let want_analysis = reference::analysis(&world, &mut want_deg);
        let want_histories = format!("{:?}", reference::clean_histories(&world));
        let want_sanitizer = reference::sanitizer_text(&world, scale);
        assert!(want_histories.len() > 1000, "histories exercised");
        assert!(want_sanitizer.contains("sanitized:"));

        let all = AtlasWants {
            analysis: true,
            histories: true,
            short_v4: true,
        };
        for workers in [1, 3] {
            let mut deg = DegradationReport::new();
            let p = AtlasProducts::collect(&world, Window::atlas_paper(), all, workers, &mut deg);
            assert_eq!(deg.render(), want_deg.render(), "{workers} workers");
            assert_same_analysis(&p.analysis, &want_analysis);
            assert_eq!(
                format!("{:?}", p.histories),
                want_histories,
                "{workers} workers"
            );
            let text = crate::extended::render_sanitizer(&p.analysis.sanitize, &p.short_v4, scale);
            assert_eq!(text, want_sanitizer, "{workers} workers");
        }

        assert_eq!(
            format!(
                "{:?}",
                crate::extended::clean_histories(&world, Window::atlas_paper())
            ),
            want_histories
        );
        assert_eq!(
            crate::extended::sanitizer_report_with(&world, scale),
            want_sanitizer
        );
    }

    /// CDN pre-processing accounting: both discard classes are reported
    /// and together with the kept tuples they exactly cover the raw count.
    /// A clean simulated world never yields unrouted tuples (every
    /// assigned address comes from a routed pool), so the unrouted class
    /// is exercised through `compute_from_dataset`, its real entry point:
    /// lossy-loaded dumps where corruption produced off-table addresses.
    #[test]
    fn cdn_discard_classes_cover_raw_count() {
        let cfg = ExperimentConfig {
            seed: 5,
            cdn_scale: 0.02,
            atlas_scale: 0.02,
        };
        let c = CdnAnalysis::compute(&cfg);
        assert!(c.raw_count > 0);
        assert!(c.discarded_as_mismatch > 0, "mismatch filter exercised");
        assert_eq!(
            c.raw_count,
            c.kept_count + c.discarded_as_mismatch + c.discarded_unrouted
        );

        // Re-analyze the same world from a dataset carrying unrouted
        // discards; the identity must keep holding with both classes
        // nonzero, not fold unrouted into the mismatch column.
        let world = cdn_world(cfg.seed, cfg.cdn_scale);
        let mut dataset =
            CdnCollector::new(&world, Window::cdn_paper(), CdnConfig::default()).collect();
        dataset.raw_count += 17;
        dataset.discarded_unrouted += 17;
        let mut degradation = DegradationReport::new();
        let c2 = CdnAnalysis::compute_from_dataset(&world, &dataset, &mut degradation);
        assert_eq!(c2.discarded_unrouted, 17);
        assert!(c2.discarded_as_mismatch > 0);
        assert_eq!(
            c2.raw_count,
            c2.kept_count + c2.discarded_as_mismatch + c2.discarded_unrouted
        );
        assert!(degradation.render().contains("unrouted"));
    }
}
