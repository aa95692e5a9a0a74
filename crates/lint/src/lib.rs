//! `dynamips-lint` — a workspace invariant checker.
//!
//! The repo's earlier PRs established three guarantees by hand: the
//! analysis pipeline is panic-free with a 0/1/2 exit-code contract, the
//! parallel engine is byte-identical to a single-threaded run because no
//! artifact path reads wall-clock time, unseeded randomness, or
//! unordered-map iteration order, and the whole workspace builds offline
//! from vendored path dependencies. The per-file halves of those
//! invariants belong to cargo and clippy (the `[workspace.lints]` table,
//! `clippy.toml` and the crate roots); this crate checks the
//! whole-program rest: a comment/string/attribute-aware scrubber (no
//! `syn` — the build is offline), the call-graph passes in [`analyses`],
//! per-rule severities and justified `// lint:allow(<rule>): why`
//! suppression pragmas, and text/JSON/SARIF reporters for CI.
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
pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod engine;
pub mod items;
pub mod report;
pub mod rules;
pub mod scrub;

pub use baseline::{Baseline, BASELINE_FILE, BASELINE_SCHEMA};
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
    /// Findings suppressed by the baseline ratchet.
    pub baselined: usize,
}

/// Lint the workspace at `root` with the given `lint.toml` text, in one
/// call usable from both binaries. When `use_baseline` is set and a
/// `lint-baseline.json` exists at `root`, the ratchet is applied: known
/// findings are suppressed, excess findings survive, and stale entries
/// become deny-severity findings. Errors are configuration or I/O
/// problems (usage-class failures), distinct from findings.
pub fn run(
    root: &std::path::Path,
    config_text: &str,
    format: Format,
    use_baseline: bool,
) -> Result<RunOutcome, String> {
    let cfg = Config::parse(config_text)?;
    let findings = lint_workspace(root, &cfg)?;
    let (findings, baselined) = match load_baseline(root, use_baseline)? {
        Some(base) => {
            let applied = base.apply(findings);
            (applied.kept, applied.suppressed)
        }
        None => (findings, 0),
    };
    let mut report = match format {
        Format::Text => render_text(&findings),
        Format::Json => to_json(&findings),
        Format::Sarif => to_sarif(&findings),
    };
    if format == Format::Text && baselined > 0 {
        report.push_str(&format!(
            "lint: {baselined} known finding(s) suppressed by {BASELINE_FILE}\n"
        ));
    }
    Ok(RunOutcome {
        report,
        denies: deny_count(&findings),
        baselined,
    })
}

/// Read `<root>/lint-baseline.json` if present (and wanted).
fn load_baseline(root: &std::path::Path, use_baseline: bool) -> Result<Option<Baseline>, String> {
    if !use_baseline {
        return Ok(None);
    }
    let path = root.join(BASELINE_FILE);
    if !path.is_file() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Baseline::parse(&text).map(Some)
}
