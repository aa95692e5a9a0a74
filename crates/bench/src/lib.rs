//! Shared fixtures for the benchmark suite.
//!
//! The benches live in `benches/`:
//!
//! * `paper_artifacts` — one benchmark per regenerated table/figure
//!   (analysis pipelines plus per-artifact rendering).
//! * `micro` — core data structures (trie LPM, CPL, TTF, sanitizer).
//! * `ablations` — the design-choice ablations listed in DESIGN.md.

// Library code renders to strings instead of printing. The shared levels
// come from the workspace `[lints]` table.
#![warn(clippy::print_stdout, clippy::print_stderr)]

use dynamips_experiments::{AtlasAnalysis, CdnAnalysis, ExperimentConfig};

/// The configuration every pipeline benchmark uses: small enough for
/// Criterion's repeated sampling, large enough to exercise all code paths.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 1,
        atlas_scale: 0.04,
        cdn_scale: 0.03,
    }
}

/// Compute the Atlas analysis once for render benchmarks.
pub fn atlas_analysis() -> AtlasAnalysis {
    AtlasAnalysis::compute(&bench_config())
}

/// Compute the CDN analysis once for render benchmarks.
pub fn cdn_analysis() -> CdnAnalysis {
    CdnAnalysis::compute(&bench_config())
}
