//! Interprocedural analyses over the workspace call graph.
//!
//! clippy sees one crate or one line at a time; the analyses here see the
//! whole workspace: [`dead_pub`] flags `pub` items no other crate
//! references, [`concurrency`] checks lock order and blocking calls
//! across call boundaries, and [`lifecycle`] checks collection growth on
//! long-running paths. All of them honour `lint:allow` pragmas on the
//! site line and the severity overrides in `lint.toml`.

pub mod concurrency;
pub mod dead_pub;
pub mod lifecycle;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::items::FileItems;
use crate::rules::{self, Finding};
use crate::scrub::ScrubbedSource;
use std::collections::BTreeMap;

/// One scrubbed-and-collected source file, the unit the analyses consume.
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// The scrubbed views.
    pub src: ScrubbedSource,
    /// Collected functions and `pub` items.
    pub items: FileItems,
}

/// Run every interprocedural analysis. `files` must be sorted by path
/// (the engine guarantees it), so node ids — and therefore chains and
/// finding order — are deterministic.
pub fn run(files: &[SourceFile], cfg: &Config) -> Result<Vec<Finding>, String> {
    let collected: Vec<(String, FileItems)> = files
        .iter()
        .map(|f| (f.path.clone(), f.items.clone()))
        .collect();
    let graph = CallGraph::build(&collected);
    let allows: BTreeMap<&str, Vec<rules::Allow>> = files
        .iter()
        .map(|f| (f.path.as_str(), rules::pragmas(&f.path, &f.src, cfg).0))
        .collect();

    let mut findings = Vec::new();
    findings.extend(dead_pub::run(files, cfg, &allows));
    findings.extend(concurrency::run(&graph, cfg, &allows)?);
    findings.extend(lifecycle::run(&graph, cfg, &allows)?);
    Ok(findings)
}

/// Is `path` a tests/benches/examples file (exempt from the analyses)?
pub(crate) fn is_test_path(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("benches/")
}

/// Is the site at `line0` suppressed by a justified pragma for `rule` in
/// this file?
pub(crate) fn site_allowed(
    allows: &BTreeMap<&str, Vec<rules::Allow>>,
    path: &str,
    line0: usize,
    rule: &str,
) -> bool {
    allows
        .get(path)
        .is_some_and(|list| list.iter().any(|a| a.covers(line0, rule)))
}
