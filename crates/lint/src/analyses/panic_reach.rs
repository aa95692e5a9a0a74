//! Panic-reachability: every panic site on a call path from a declared
//! pipeline entry point, reported with the shortest chain.
//!
//! clippy's panic lints (`unwrap_used`, `expect_used`, `panic`, …) already
//! ban panicking calls on the roots of the panic-free crates; this
//! analysis closes the transitive gap: an `expect` in a mechanism crate
//! (outside that scope) that a pipeline entry point can reach is a latent
//! abort of `dynamips run`, invisible to any per-crate lint. Slice-index
//! sites are only counted in the ingest scope, where indexing
//! data-derived slices is the concrete hazard — a constant index into a
//! fixed array elsewhere is not worth a baseline entry.

#[cfg(test)]
use super::SourceFile;
use super::{is_test_path, site_allowed};
use crate::callgraph::CallGraph;
use crate::config::{Config, Severity};
use crate::rules::{Allow, Finding, PANIC_REACH};
use std::collections::BTreeMap;

/// Run the analysis. Fails (as a configuration error) if a declared
/// entry point does not exist — a stale `lint.toml` must not silently
/// disable the strongest guarantee.
pub(crate) fn run(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
) -> Result<Vec<Finding>, String> {
    let sev = cfg.severity_of(PANIC_REACH.id, PANIC_REACH.default_severity);
    if sev == Severity::Allow || cfg.entry_points.is_empty() {
        return Ok(Vec::new());
    }
    let mut roots = Vec::new();
    for (file, name) in &cfg.entry_points {
        let ids = graph.find(file, name);
        if ids.is_empty() {
            return Err(format!(
                "lint.toml declares entry point {file}::{name}, but no such fn exists"
            ));
        }
        roots.extend(ids);
    }

    let parents = graph.bfs(&roots);
    let mut findings = Vec::new();
    for &id in parents.keys() {
        let node = &graph.nodes[id];
        if node.item.is_test || is_test_path(&node.file) {
            continue;
        }
        let in_ingest = Config::path_in(&node.file, &cfg.ingest_paths);
        for site in &node.item.panics {
            if site.token == "index" && !in_ingest {
                continue;
            }
            if site_allowed(allows, &node.file, site.line, PANIC_REACH.id) {
                continue;
            }
            let chain = graph.chain(&parents, id).join(" → ");
            findings.push(Finding {
                path: node.file.clone(),
                line: site.line + 1,
                end_line: site.line + 1,
                rule: PANIC_REACH.id.to_string(),
                severity: sev,
                message: format!("`{}` reachable from pipeline entry: {chain}", site.token),
            });
        }
    }
    Ok(findings)
}

/// Convenience for tests: run over raw files.
#[cfg(test)]
pub(crate) fn run_on(files: &[SourceFile], cfg: &Config) -> Result<Vec<Finding>, String> {
    super::run(files, cfg).map(|fs| {
        fs.into_iter()
            .filter(|f| f.rule == PANIC_REACH.id)
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

    fn cfg(entry: &str) -> Config {
        Config::parse(&format!(
            "[interprocedural]\nentry-points = [\"{entry}\"]\n"
        ))
        .expect("cfg")
    }

    #[test]
    fn two_hop_transitive_panic_reported_with_chain() {
        let fs = files(&[
            (
                "src/main.rs",
                "fn main() { step_one(); }\nfn step_one() { step_two(); }\n",
            ),
            (
                "src/deep.rs",
                "pub fn step_two() -> u32 { Some(1).unwrap() }\npub fn unrelated() { panic!(\"never reached\"); }\n",
            ),
        ]);
        let found = run_on(&fs, &cfg("src/main.rs::main")).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].path, "src/deep.rs");
        assert_eq!(
            found[0].message,
            "`unwrap` reachable from pipeline entry: main → step_one → step_two"
        );
    }

    #[test]
    fn allow_pragma_on_site_suppresses() {
        let fs = files(&[(
            "src/main.rs",
            "fn main() { helper(); }\nfn helper() {\n    // lint:allow(panic-reach): exercised invariant\n    Some(1).unwrap();\n}\n",
        )]);
        let found = run_on(&fs, &cfg("src/main.rs::main")).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn missing_entry_point_is_a_config_error() {
        let fs = files(&[("src/main.rs", "fn main() {}\n")]);
        let err = run_on(&fs, &cfg("src/main.rs::no_such_fn")).expect_err("must fail");
        assert!(err.contains("no_such_fn"), "{err}");
    }

    #[test]
    fn test_fns_and_test_paths_are_exempt() {
        let fs = files(&[
            (
                "src/main.rs",
                "fn main() { shared(); }\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n",
            ),
            ("src/lib.rs", "pub fn shared() {}\n"),
            ("tests/it.rs", "fn main() { Some(1).unwrap(); }\n"),
        ]);
        let found = run_on(&fs, &cfg("src/main.rs::main")).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }
}
