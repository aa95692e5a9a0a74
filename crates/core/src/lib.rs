//! The DynamIPs analysis pipeline — the paper's primary contribution.
//!
//! Raw measurements in, paper findings out:
//!
//! * [`sanitize`] — the Appendix-A.1 cleaning pipeline for RIPE-Atlas-style
//!   IP-echo series: test-address removal, bad-tag / multihoming /
//!   atypical-NAT probe filtering, virtual-probe splitting on ISP switches,
//!   minimum-observation thresholds.
//! * [`changes`] — assignment-span construction and sandwiched-duration
//!   inference (Section 3.1 "Inferring assignment changes").
//! * [`durations`] — the total-time-fraction metric of Eq. 1 and its
//!   cumulative curve (Figure 1), plus periodic-renumbering detection.
//! * [`dualstack`] — dual-stack vs non-dual-stack duration classification
//!   and v4/v6 change co-occurrence (Section 3.2).
//! * [`association`] — CDN association durations (Figures 2 and 3).
//! * [`cardinality`] — /64-per-/24 degree analysis (Figure 4).
//! * [`spatial`] — common-prefix-length histograms and cross-/24 /
//!   cross-BGP change rates (Figure 5, Table 2).
//! * [`pools`] — unique-prefixes-per-length distributions and pool
//!   boundary analysis (Figure 8, Section 5.2).
//! * [`subscriber`] — subscriber-boundary inference from trailing zero bits
//!   (Figures 6, 7 and 9, Section 5.3).
//! * [`stats`] — CDF/quantile/boxplot/log-density helpers shared by the
//!   analyses.
//! * [`degrade`] — per-(stage, class) quarantine accounting threaded
//!   through the pipeline when ingesting possibly-corrupted data.
//! * [`report`] — plain-text table and bar-chart rendering for the
//!   experiment harness.
//!
//! Application-layer analyses built on the paper's Section-6 discussion:
//!
//! * [`poolinfer`] — recover ISP pool boundaries from probe histories.
//! * [`evolution`] — year-over-year duration trends.
//! * [`anonymize`] — k-anonymity audit of truncation anonymization.
//! * [`hitlist`] — boundary-guided scan-target generation and evaluation.
//! * [`blocklist`] — blocklist TTL/granularity policy replay (evasion vs.
//!   collateral damage).
//! * [`counting`] — user-count estimation and the double-counting problem
//!   (Section 2.3).
//! * [`targetgen`] — Entropy/IP-lite and 6Gen-lite seed-driven target
//!   generation, for comparison against boundary-guided plans.
//! * [`tracking`] — host trackability under privacy-address / EUI-64 /
//!   prefix identifiers (Section 2.3).

// Panic-freedom: shipping code degrades instead of panicking (tests are
// exempt via clippy.toml), and library code renders to strings instead
// of printing. The shared levels come from the workspace `[lints]` table.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod anonymize;
pub mod association;
pub mod blocklist;
pub mod cardinality;
pub mod changes;
pub mod counting;
pub mod degrade;
pub mod dualstack;
pub mod durations;
pub mod evolution;
pub mod hitlist;
pub mod perf;
pub mod poolinfer;
pub mod pools;
pub mod report;
pub mod sanitize;
pub mod spatial;
pub mod stats;
pub mod subscriber;
pub mod targetgen;
pub mod tracking;

pub use changes::{ProbeHistory, Span};
pub use degrade::DegradationReport;
pub use sanitize::{sanitize_probe, SanitizeConfig, SanitizeOutcome, SanitizeReport};
