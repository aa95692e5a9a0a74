//! `dynamips-lint` — a workspace invariant checker.
//!
//! Most of the workspace's guarantees belong to rustc and clippy:
//! panic-freedom and the 0/1/2 exit-code contract, byte-identical
//! artifacts (no wall-clock read, stray thread or unordered map outside a
//! reasoned `#[allow]`: `clippy.toml` and the `[workspace.lints]` table),
//! offline builds, and balanced epoll registrations and gauges (the raw
//! calls are private to the RAII guards that pair them). This crate
//! checks the whole-program rest, which needs a call graph: unused `pub`
//! surface, lock order, blocking calls under a lock or on a reactor path,
//! condvar waits outside a loop, and unbounded growth on long-running
//! paths. It is a comment/string/attribute-aware scrubber (no `syn` — the
//! build is offline), the call-graph passes in [`analyses`], per-rule
//! severities and justified `// lint:allow(<rule>): why` suppression
//! pragmas, and text/JSON/SARIF reporters for CI.
//!
//! Which paths carry which invariants is declared in the checked-in
//! `lint.toml` at the workspace root ([`config`]); the rule catalogue and
//! the pragma parser live in [`rules`]. Run it as `dynamips lint` or the
//! standalone `dynamips-lint` binary; exit codes are `0` (clean), `1` (at
//! least one deny-severity finding), `2` (usage or configuration error).

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

pub mod analyses;
pub mod callgraph;
pub mod config;
pub mod engine;
pub mod items;
pub mod report;
pub mod rules;
pub mod scrub;

pub use config::{Config, Severity};
pub use engine::{deny_count, find_root, lint_workspace, lint_workspace_with_overrides};
pub use report::{parse_json, render_text, to_json, to_sarif, LINT_SCHEMA};
pub use rules::{explain, Finding, Rule, ALL_RULES};

/// Output format for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable lines plus a summary.
    Text,
    /// The `dynamips-lint-v2` JSON document.
    Json,
    /// A SARIF 2.1.0 log for standard annotation tooling.
    Sarif,
}

impl Format {
    /// Parse a `--format` operand.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "sarif" => Some(Format::Sarif),
            _ => None,
        }
    }
}

/// Outcome of a whole-workspace lint run, ready for a CLI to print.
pub struct RunOutcome {
    /// The rendered report in the requested format.
    pub report: String,
    /// Number of deny-severity findings; nonzero means the run failed.
    pub denies: usize,
}

/// Lint the workspace at `root` with the given `lint.toml` text, in one
/// call usable from both binaries. Errors are configuration or I/O
/// problems (usage-class failures), distinct from findings.
pub fn run(
    root: &std::path::Path,
    config_text: &str,
    format: Format,
) -> Result<RunOutcome, String> {
    let cfg = Config::parse(config_text)?;
    let findings = lint_workspace(root, &cfg)?;
    let report = match format {
        Format::Text => render_text(&findings),
        Format::Json => to_json(&findings),
        Format::Sarif => to_sarif(&findings),
    };
    Ok(RunOutcome {
        report,
        denies: deny_count(&findings),
    })
}
