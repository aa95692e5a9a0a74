//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The heavy lifting happens once per dataset:
//!
//! * [`context::AtlasAnalysis`] runs the Atlas-era world, streams every
//!   probe through the sanitizer and accumulates everything the
//!   Atlas-derived artifacts need (Tables 1–2, Figures 1, 5, 6, 8, 9).
//! * [`context::CdnAnalysis`] runs the CDN-era world, collects the
//!   association dataset and accumulates the CDN artifacts (Figures 2–4, 7).
//!
//! Each `table*`/`fig*` module renders one artifact from those products as
//! plain text in the paper's layout. The [`engine`] module orchestrates a
//! full run: a session builds each of the configuration's two worlds
//! exactly once, the analyses compute concurrently, and the artifact
//! renderers fan out across a worker pool — byte-identical to a
//! single-thread run. The [`chaos`] module drives the adversarial-ingest
//! sweep (`dynamips chaos`): corrupt the TSV dumps, re-ingest through the
//! lossy loaders, and verify the paper shapes survive. Its network twin,
//! [`chaos_serve`], drives loadtest traffic through a fault-injecting
//! TCP proxy (`dynamips chaos-serve`) and asserts the serving stack's
//! robustness invariants: byte-identical 2xx bodies, zero client-visible
//! 5xx, clean drains.

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

pub mod atlas_exps;
pub mod cdn_exps;
pub mod chaos;
pub mod chaos_serve;
pub mod check;
pub mod claims;
pub mod context;
pub mod engine;
pub mod extended;
pub mod ipam_service;
pub mod ipam_sim;
pub mod service;

pub use context::{AtlasAnalysis, CdnAnalysis, ExperimentConfig};

/// Unwrap a joined worker's result, re-raising the worker's own panic in
/// the calling thread instead of panicking afresh with a second message.
/// This keeps the harness code lexically panic-free while still refusing
/// to swallow a worker crash.
pub(crate) fn resume_worker<T>(r: std::thread::Result<T>) -> T {
    r.unwrap_or_else(|e| std::panic::resume_unwind(e))
}
