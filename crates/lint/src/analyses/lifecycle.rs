//! Bounded growth of long-running collections.
//!
//! The serving layer is a daemon: a collection that its event loop grows
//! on every event is unbounded memory unless something also shrinks it.
//! **unbounded-growth** flags a `push`/`insert` into a collection, in a
//! file under `[lifecycle] growth-paths`, reachable from a
//! `[concurrency] reactor-entry-points` root or a declared
//! `[lifecycle] long-running` loop, with no cap check in the function
//! and no shrink operation (`pop`, `remove`, `drain`, … or a
//! `[lifecycle] caps` name) reachable from the function or any of its
//! callers.
//!
//! Identity is name-based, like the lock analysis: shrink excuses are not
//! matched per collection — any reachable shrink excuses growth, an
//! under-approximation that keeps the rule quiet on multi-queue modules
//! while the fixture corpus pins the defect shape it must catch.

#[cfg(test)]
use super::SourceFile;
use super::{is_test_path, site_allowed};
use crate::callgraph::CallGraph;
use crate::config::{Config, Severity};
use crate::items::CallSite;
use crate::rules::{Allow, Finding, UNBOUNDED_GROWTH};
use std::collections::BTreeMap;

/// Collection-growing method names checked by unbounded-growth.
const GROWTH_OPS: &[&str] = &["push", "push_back", "push_front", "insert"];

/// Shrink/eviction method names that excuse growth on the same component.
const SHRINK_OPS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "swap_remove",
    "truncate",
    "clear",
    "drain",
    "retain",
    "evict",
];

/// Cap-check calls that excuse growth locally (`if q.len() < MAX`).
const CAP_CHECKS: &[&str] = &["len", "capacity", "is_full"];

/// Run the growth rule over the workspace graph.
pub(crate) fn run(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
) -> Result<Vec<Finding>, String> {
    let n = graph.nodes.len();
    let live: Vec<bool> = graph
        .nodes
        .iter()
        .map(|node| !node.item.is_test && !is_test_path(&node.file))
        .collect();
    // Reverse adjacency, for walking to a function's (transitive) callers.
    let mut redges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, callees) in graph.edges.iter().enumerate() {
        for &k in callees {
            redges[k].push(id);
        }
    }
    unbounded_growth(graph, cfg, allows, &live, &redges)
}

/// Fixpoint: which live functions (transitively) contain a call matching
/// `hit`? Direct sites seed the set; callers of a member join it.
fn reaches(graph: &CallGraph, live: &[bool], hit: &dyn Fn(&CallSite) -> bool) -> Vec<bool> {
    let n = graph.nodes.len();
    let mut set: Vec<bool> = (0..n)
        .map(|id| live[id] && graph.nodes[id].item.calls.iter().any(hit))
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if !live[id] || set[id] {
                continue;
            }
            if graph.edges[id].iter().any(|&k| live[k] && set[k]) {
                set[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    set
}

/// Live functions that can (transitively) call into `id`, including `id`.
fn ancestors(redges: &[Vec<usize>], live: &[bool], id: usize) -> Vec<usize> {
    let mut seen = vec![false; redges.len()];
    let mut queue = vec![id];
    seen[id] = true;
    while let Some(at) = queue.pop() {
        for &caller in &redges[at] {
            if live[caller] && !seen[caller] {
                seen[caller] = true;
                queue.push(caller);
            }
        }
    }
    (0..redges.len()).filter(|&k| seen[k]).collect()
}

/// Rule: collections on long-running paths don't grow without a
/// reachable cap, eviction, or removal.
fn unbounded_growth(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    live: &[bool],
    redges: &[Vec<usize>],
) -> Result<Vec<Finding>, String> {
    let sev = cfg.severity_of(UNBOUNDED_GROWTH.id, UNBOUNDED_GROWTH.default_severity);
    if sev == Severity::Allow || cfg.growth_paths.is_empty() {
        return Ok(Vec::new());
    }
    let mut roots = Vec::new();
    for (file, name) in &cfg.reactor_entry_points {
        // Missing reactor entry points are diagnosed by the concurrency
        // pass; here they simply contribute no roots.
        roots.extend(graph.find(file, name));
    }
    for (file, name) in &cfg.long_running {
        let ids = graph.find(file, name);
        if ids.is_empty() {
            return Err(format!(
                "lint.toml declares long-running loop {file}::{name}, but no such fn exists"
            ));
        }
        roots.extend(ids);
    }
    if roots.is_empty() {
        return Ok(Vec::new());
    }
    let parents = graph.bfs(&roots);
    let is_shrink = |c: &CallSite| -> bool {
        c.method
            && (SHRINK_OPS.contains(&c.name.as_str())
                || cfg.growth_caps.iter().any(|cap| cap == &c.name))
    };
    let reaches_shrink = reaches(graph, live, &is_shrink);

    let mut findings = Vec::new();
    for &id in parents.keys() {
        let node = &graph.nodes[id];
        if !live[id] || !Config::path_in(&node.file, &cfg.growth_paths) {
            continue;
        }
        let caps_locally = node
            .item
            .calls
            .iter()
            .any(|c| c.method && CAP_CHECKS.contains(&c.name.as_str()));
        if caps_locally {
            continue;
        }
        for call in &node.item.calls {
            if !call.method || !GROWTH_OPS.contains(&call.name.as_str()) {
                continue;
            }
            if site_allowed(allows, &node.file, call.line, UNBOUNDED_GROWTH.id) {
                continue;
            }
            let excused = ancestors(redges, live, id)
                .into_iter()
                .any(|a| reaches_shrink[a]);
            if excused {
                continue;
            }
            let chain = graph.chain(&parents, id).join(" → ");
            let target = call
                .recv
                .as_deref()
                .map(|r| format!("`{r}`"))
                .unwrap_or_else(|| "a collection".to_string());
            findings.push(Finding {
                path: node.file.clone(),
                line: call.line + 1,
                end_line: call.line + 1,
                rule: UNBOUNDED_GROWTH.id.to_string(),
                severity: sev,
                message: format!(
                    "`{}` grows {target} on a long-running path with no reachable cap or eviction: {chain}",
                    call.name,
                ),
            });
        }
    }
    Ok(findings)
}

/// Convenience for tests: run over raw files, keeping only this module's
/// findings.
#[cfg(test)]
pub(crate) fn run_on(files: &[SourceFile], cfg: &Config) -> Result<Vec<Finding>, String> {
    super::run(files, cfg).map(|fs| {
        fs.into_iter()
            .filter(|f| f.rule == UNBOUNDED_GROWTH.id)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::collect_items;
    use crate::scrub::scrub;

    fn files(specs: &[(&str, &str)]) -> Vec<SourceFile> {
        specs
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
            .collect()
    }

    fn cfg(extra: &str) -> Config {
        Config::parse(extra).expect("cfg")
    }

    const GROWTH: &str =
        "[lifecycle]\nlong-running = [\"src/a.rs::pump\"]\ngrowth-paths = [\"src/a.rs\"]\n";

    #[test]
    fn growth_with_no_reachable_shrink_fires() {
        let fs = files(&[(
            "src/a.rs",
            "fn pump(q: &mut Vec<u8>) {\n    loop {\n        q.push(next());\n    }\n}\nfn next() -> u8 { 0 }\n",
        )]);
        let found = run_on(&fs, &cfg(GROWTH)).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].rule, "unbounded-growth");
        assert!(found[0].message.contains("`q`"), "{}", found[0].message);
        assert!(found[0].message.contains("pump"), "{}", found[0].message);
    }

    #[test]
    fn a_shrink_reachable_from_a_caller_excuses_growth() {
        let fs = files(&[(
            "src/a.rs",
            "fn pump(q: &mut Vec<u8>) {\n    enqueue(q);\n    trim(q);\n}\nfn enqueue(q: &mut Vec<u8>) {\n    q.push(0);\n}\nfn trim(q: &mut Vec<u8>) {\n    q.pop();\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GROWTH)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn a_local_cap_check_excuses_growth() {
        let fs = files(&[(
            "src/a.rs",
            "fn pump(q: &mut Vec<u8>) {\n    loop {\n        if q.len() < 8 {\n            q.push(0);\n        }\n    }\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GROWTH)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn unreachable_growth_is_ignored() {
        let fs = files(&[(
            "src/a.rs",
            "fn pump() {\n    tick();\n}\nfn tick() {}\nfn elsewhere(q: &mut Vec<u8>) {\n    q.push(0);\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GROWTH)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn missing_long_running_root_is_a_config_error() {
        let fs = files(&[("src/a.rs", "fn f() {}\n")]);
        let err = run_on(&fs, &cfg(GROWTH)).unwrap_err();
        assert!(err.contains("pump"), "{err}");
    }

    #[test]
    fn test_code_is_exempt() {
        let fs = files(&[(
            "src/a.rs",
            "fn pump() {\n    grow();\n}\n#[cfg(test)]\nfn grow() {\n    let mut q = Vec::new();\n    q.push(0);\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GROWTH)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn allow_pragma_suppresses_growth() {
        let fs = files(&[(
            "src/a.rs",
            "fn pump(q: &mut Vec<u8>) {\n    q.push(0); // lint:allow(unbounded-growth): drained by the caller's shutdown\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GROWTH)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }
}
