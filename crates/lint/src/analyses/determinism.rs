//! Determinism taint: nondeterminism sources reachable from an artifact
//! renderer.
//!
//! The byte-identical-artifacts guarantee (PR 2) holds only if no call
//! path from a renderer reaches wall-clock reads, unseeded randomness, or
//! unordered-map iteration. clippy's `disallowed_methods` bans clock reads
//! outside the timing layer site by site, the vendored `rand` has no
//! entropy source to call, and clippy's `disallowed_types`, denied in each
//! sink module, bans unordered maps there; this analysis propagates all
//! three through the call graph, so a helper three crates away that
//! quietly reads `Instant::now` is caught the moment any renderer can
//! reach it. Sources inside the declared timing layer (`perf-exempt`) are
//! the sanctioned exception for wall-clock reads, and hash-order mentions
//! inside the sink files are skipped — clippy already rejects those.

use super::{is_test_path, site_allowed};
use crate::callgraph::CallGraph;
use crate::config::{Config, Severity};
use crate::items::TaintKind;
use crate::rules::{Allow, Finding, DETERMINISM_TAINT};
use std::collections::BTreeMap;

/// Run the analysis: BFS from every `pub` function defined in a sink
/// file — the renderer API surface; private helpers there are reachable
/// through it or dead — and report each reachable taint site with its
/// shortest chain.
pub(crate) fn run(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
) -> Vec<Finding> {
    let sev = cfg.severity_of(DETERMINISM_TAINT.id, DETERMINISM_TAINT.default_severity);
    if sev == Severity::Allow || cfg.sinks.is_empty() {
        return Vec::new();
    }
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            Config::path_in(&n.file, &cfg.sinks)
                && n.item.is_pub
                && !n.item.is_test
                && !is_test_path(&n.file)
        })
        .map(|(id, _)| id)
        .collect();

    let parents = graph.bfs(&roots);
    let mut findings = Vec::new();
    for &id in parents.keys() {
        let node = &graph.nodes[id];
        if node.item.is_test || is_test_path(&node.file) {
            continue;
        }
        let perf_exempt = Config::path_in(&node.file, &cfg.perf_exempt);
        let in_sink = Config::path_in(&node.file, &cfg.sinks);
        for site in &node.item.taints {
            match site.kind {
                TaintKind::WallClock if perf_exempt => continue, // the sanctioned timing layer
                TaintKind::HashOrder if in_sink => continue, // clippy's disallowed_types owns these
                _ => {}
            }
            if site_allowed(allows, &node.file, site.line, DETERMINISM_TAINT.id) {
                continue;
            }
            let chain = graph.chain(&parents, id).join(" → ");
            findings.push(Finding {
                path: node.file.clone(),
                line: site.line + 1,
                end_line: site.line + 1,
                rule: DETERMINISM_TAINT.id.to_string(),
                severity: sev,
                message: format!(
                    "`{}` ({}) reachable from artifact renderer: {chain}",
                    site.token,
                    site.kind.as_str()
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::super::SourceFile;
    use crate::config::Config;
    use crate::items::collect_items;
    use crate::rules::DETERMINISM_TAINT;
    use crate::scrub::scrub;

    fn run_taint(specs: &[(&str, &str)], cfg_text: &str) -> Vec<crate::rules::Finding> {
        let files: Vec<SourceFile> = specs
            .iter()
            .map(|(p, s)| {
                let src = scrub(s);
                let items = collect_items(&src);
                SourceFile {
                    path: p.to_string(),
                    src,
                    items,
                }
            })
            .collect();
        let cfg = Config::parse(cfg_text).expect("cfg");
        super::super::run(&files, &cfg)
            .expect("runs")
            .into_iter()
            .filter(|f| f.rule == DETERMINISM_TAINT.id)
            .collect()
    }

    #[test]
    fn clock_two_calls_from_renderer_is_flagged() {
        let found = run_taint(
            &[
                (
                    "src/render.rs",
                    "pub fn table() -> String { format!(\"{}\", mid()) }\n",
                ),
                (
                    "src/helpers.rs",
                    "pub fn mid() -> u64 { leaf() }\npub fn leaf() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
                ),
            ],
            "[interprocedural]\nsinks = [\"src/render.rs\"]\n",
        );
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].path, "src/helpers.rs");
        assert_eq!(
            found[0].message,
            "`Instant::now` (wall-clock) reachable from artifact renderer: table → mid → leaf"
        );
    }

    #[test]
    fn perf_exempt_layer_is_not_a_wall_clock_source() {
        let found = run_taint(
            &[
                (
                    "src/render.rs",
                    "pub fn table() -> String { let _ = stamp(); String::new() }\n",
                ),
                (
                    "src/perf.rs",
                    "pub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n",
                ),
            ],
            "[paths]\nperf-exempt = [\"src/perf.rs\"]\n[interprocedural]\nsinks = [\"src/render.rs\"]\n",
        );
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn unreachable_sources_do_not_fire() {
        let found = run_taint(
            &[
                (
                    "src/render.rs",
                    "pub fn table() -> String { String::new() }\n",
                ),
                (
                    "src/other.rs",
                    "pub fn noise() -> u8 { let mut _r = rand::thread_rng(); 0 }\n",
                ),
            ],
            "[interprocedural]\nsinks = [\"src/render.rs\"]\n",
        );
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn hash_order_reached_transitively_is_flagged() {
        let found = run_taint(
            &[
                (
                    "src/render.rs",
                    "pub fn table() -> String { format!(\"{}\", count()) }\n",
                ),
                (
                    "src/agg.rs",
                    "pub fn count() -> usize { let m: HashMap<u8, u8> = HashMap::new(); m.len() }\n",
                ),
            ],
            "[interprocedural]\nsinks = [\"src/render.rs\"]\n",
        );
        assert_eq!(found.len(), 2, "one per HashMap mention: {found:#?}");
        assert!(found[0].message.contains("hash-order"));
    }
}
