//! Resource lifecycle: paired acquire/release tracking, gauge balance,
//! and bounded growth of long-running collections.
//!
//! DynamIPs is a study of address *lifetimes* — every dynamic address is
//! an acquire/release pair — and the serving layer mirrors that shape in
//! code: epoll registrations, connection gauges, and queued jobs all leak
//! if any early-return or error path skips the release. The pass makes
//! that discipline checkable from declarations in `lint.toml`:
//!
//! * `[lifecycle] pairs` — `"Poller::add -> Poller::remove"` declares an
//!   acquire/release pair. **resource-leak** walks every intraprocedural
//!   path (early `return`, `?`, `break` — the collector's
//!   [`crate::items::ExitSite`]s) between an acquire and its first
//!   following release; an exit in that window leaks the resource on
//!   that path and is reported with the witnessing exit as the finding's
//!   end line. An acquire with *no* following release in its function is
//!   checked as a component: some caller (transitive) must also reach a
//!   release of the pair, unless any release of the pair lives in a
//!   `fn drop` — the RAII escape hatch, because `Drop::drop` is invoked
//!   by the compiler, invisibly to the call graph. **drop-order** is the
//!   dual: a release before any acquire, or a second release with no
//!   intervening acquire, is a double-free shape. Release-only helpers
//!   (a `close()` that only releases) are exempt — their acquire
//!   legitimately lives in a caller.
//! * `[lifecycle] gauges` — `"open_conns: conn_opened / conn_closed"`
//!   names a counter and its increment/decrement wrappers.
//!   **gauge-balance** demands raw `fetch_add`/`fetch_sub` on the gauge
//!   field stay inside those wrappers, that both wrappers are actually
//!   called, and that some component reaches both (again with the
//!   `fn drop` escape hatch for guard types).
//! * **unbounded-growth** — a `push`/`insert` into a collection, in a
//!   file under `[lifecycle] growth-paths`, reachable from a
//!   `[concurrency] reactor-entry-points` root or a declared
//!   `[lifecycle] long-running` loop, with no cap check in the function
//!   and no shrink operation (`pop`, `remove`, `drain`, … or a
//!   `[lifecycle] caps` name) reachable from the function or any of its
//!   callers, grows forever in a daemon that never exits.
//!
//! Like the lock analysis, identity is name-based: `Type::name` matches
//! a qualified call or a method call whose receiver is the snake-case of
//! `Type` (`poller.add(…)`), a bare `name` matches any call of that
//! name. Shrink excuses are not matched per-collection — any reachable
//! shrink excuses growth, an under-approximation that keeps the rule
//! quiet on multi-queue modules while the fixture corpus pins the
//! defect shapes it must catch.

#[cfg(test)]
use super::SourceFile;
use super::{is_test_path, site_allowed};
use crate::callgraph::CallGraph;
use crate::config::{Config, Severity};
use crate::items::{CallSite, ExitKind, FnItem};
use crate::rules::{Allow, Finding, DROP_ORDER, GAUGE_BALANCE, RESOURCE_LEAK, UNBOUNDED_GROWTH};
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

/// One side of a declared pair: optional `Type::` qualifier plus name.
#[derive(Debug, Clone)]
struct SideSpec {
    qual: Option<String>,
    name: String,
}

impl SideSpec {
    fn parse(s: &str) -> SideSpec {
        match s.rsplit_once("::") {
            Some((q, n)) => SideSpec {
                qual: Some(q.to_string()),
                name: n.to_string(),
            },
            None => SideSpec {
                qual: None,
                name: s.to_string(),
            },
        }
    }

    /// Does this call site match? `Type::name` matches the qualified
    /// form or a method call whose receiver is `snake(Type)`; a bare
    /// name matches any call of that name.
    fn matches(&self, call: &CallSite) -> bool {
        if call.name != self.name {
            return false;
        }
        match &self.qual {
            None => true,
            Some(q) => {
                call.qual.last() == Some(q)
                    || (call.method && call.recv.as_deref() == Some(snake(q).as_str()))
            }
        }
    }

    fn display(&self) -> String {
        match &self.qual {
            Some(q) => format!("{}::{}", q, self.name),
            None => self.name.clone(),
        }
    }
}

/// A parsed `[lifecycle] pairs` entry: `acquire -> release`.
#[derive(Debug, Clone)]
struct PairSpec {
    acquire: SideSpec,
    release: SideSpec,
}

impl PairSpec {
    fn parse(spec: &str) -> Result<PairSpec, String> {
        let (a, r) = spec.split_once("->").ok_or_else(|| {
            format!("lint.toml lifecycle pair {spec:?} is not `acquire -> release`")
        })?;
        let (a, r) = (a.trim(), r.trim());
        if a.is_empty() || r.is_empty() {
            return Err(format!(
                "lint.toml lifecycle pair {spec:?} is missing a side"
            ));
        }
        Ok(PairSpec {
            acquire: SideSpec::parse(a),
            release: SideSpec::parse(r),
        })
    }
}

/// A parsed `[lifecycle] gauges` entry: `name: inc / dec`.
#[derive(Debug, Clone)]
struct GaugeSpec {
    gauge: String,
    inc: String,
    dec: String,
}

impl GaugeSpec {
    fn parse(spec: &str) -> Result<GaugeSpec, String> {
        let (gauge, rest) = spec.split_once(':').ok_or_else(|| {
            format!("lint.toml lifecycle gauge {spec:?} is not `name: inc / dec`")
        })?;
        let (inc, dec) = rest.split_once('/').ok_or_else(|| {
            format!("lint.toml lifecycle gauge {spec:?} is not `name: inc / dec`")
        })?;
        let (gauge, inc, dec) = (gauge.trim(), inc.trim(), dec.trim());
        if gauge.is_empty() || inc.is_empty() || dec.is_empty() {
            return Err(format!(
                "lint.toml lifecycle gauge {spec:?} is missing a part"
            ));
        }
        Ok(GaugeSpec {
            gauge: gauge.to_string(),
            inc: inc.to_string(),
            dec: dec.to_string(),
        })
    }
}

/// `PascalCase` type name → `snake_case` receiver identifier.
fn snake(type_name: &str) -> String {
    let mut out = String::new();
    for (i, c) in type_name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Run all four lifecycle rules over the workspace graph.
pub(crate) fn run(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
) -> Result<Vec<Finding>, String> {
    let pairs: Vec<PairSpec> = cfg
        .lifecycle_pairs
        .iter()
        .map(|s| PairSpec::parse(s))
        .collect::<Result<_, _>>()?;
    let gauges: Vec<GaugeSpec> = cfg
        .lifecycle_gauges
        .iter()
        .map(|s| GaugeSpec::parse(s))
        .collect::<Result<_, _>>()?;

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

    let mut findings = Vec::new();
    for pair in &pairs {
        findings.extend(resource_leak(graph, cfg, allows, &live, &redges, pair));
        findings.extend(drop_order(graph, cfg, allows, &live, pair));
    }
    for gauge in &gauges {
        findings.extend(gauge_balance(graph, cfg, allows, &live, gauge));
    }
    findings.extend(unbounded_growth(graph, cfg, allows, &live, &redges)?);
    Ok(findings)
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

/// Ordered acquire/release events of one pair inside one function.
fn pair_events<'a>(item: &'a FnItem, pair: &PairSpec) -> (Vec<&'a CallSite>, Vec<&'a CallSite>) {
    let acquires: Vec<&CallSite> = item
        .calls
        .iter()
        .filter(|c| pair.acquire.matches(c))
        .collect();
    let releases: Vec<&CallSite> = item
        .calls
        .iter()
        .filter(|c| pair.release.matches(c))
        .collect();
    (acquires, releases)
}

/// Rule: every acquire is matched by a release on every path.
fn resource_leak(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    live: &[bool],
    redges: &[Vec<usize>],
    pair: &PairSpec,
) -> Vec<Finding> {
    let sev = cfg.severity_of(RESOURCE_LEAK.id, RESOURCE_LEAK.default_severity);
    if sev == Severity::Allow {
        return Vec::new();
    }
    // RAII escape hatch: a release inside any live `fn drop` runs when
    // the guard value drops, invisibly to the call graph — component
    // checks for this pair would be all noise, so they are skipped.
    let released_in_drop = graph.nodes.iter().enumerate().any(|(id, node)| {
        live[id]
            && node.item.name == "drop"
            && node.item.calls.iter().any(|c| pair.release.matches(c))
    });
    let reaches_release = reaches(graph, live, &|c| pair.release.matches(c));

    let mut findings = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if !live[id] {
            continue;
        }
        let (acquires, releases) = pair_events(&node.item, pair);
        for acq in &acquires {
            if site_allowed(allows, &node.file, acq.line, RESOURCE_LEAK.id) {
                continue;
            }
            match releases.iter().find(|r| r.order > acq.order) {
                Some(rel) => {
                    // Path-sensitive: an early exit between the acquire
                    // and its first following release skips the release.
                    let exit = node.item.exits.iter().find(|e| {
                        e.order > acq.order
                            && e.order < rel.order
                            // `acquire()?` propagates the *failed* acquire;
                            // nothing was held yet.
                            && !(e.kind == ExitKind::Question && e.line == acq.line)
                            // `break` only escapes a loop-held acquire; for
                            // one acquired before the loop, the release
                            // below the loop still runs.
                            && (e.kind != ExitKind::Break || acq.in_loop)
                    });
                    if let Some(exit) = exit {
                        findings.push(Finding {
                            path: node.file.clone(),
                            line: acq.line + 1,
                            end_line: (exit.line + 1).max(acq.line + 1),
                            rule: RESOURCE_LEAK.id.to_string(),
                            severity: sev,
                            message: format!(
                                "`{}` acquired in {} leaks on the {} at line {}: `{}` at line {} is skipped on that path",
                                pair.acquire.display(),
                                node.item.qual_name,
                                exit.kind.as_str(),
                                exit.line + 1,
                                pair.release.display(),
                                rel.line + 1,
                            ),
                        });
                    }
                }
                None if !released_in_drop => {
                    // No release below the acquire: some caller component
                    // must reach a release of this pair instead.
                    let excused = ancestors(redges, live, id)
                        .into_iter()
                        .any(|a| reaches_release[a]);
                    if !excused {
                        findings.push(Finding {
                            path: node.file.clone(),
                            line: acq.line + 1,
                            end_line: acq.line + 1,
                            rule: RESOURCE_LEAK.id.to_string(),
                            severity: sev,
                            message: format!(
                                "`{}` acquired in {} is never released: no path from {} or any caller reaches `{}`",
                                pair.acquire.display(),
                                node.item.qual_name,
                                node.item.qual_name,
                                pair.release.display(),
                            ),
                        });
                    }
                }
                None => {}
            }
        }
    }
    findings
}

/// Rule: releases follow acquires — no double release, no
/// release-before-acquire. Release-only helpers are exempt: their
/// acquire legitimately lives in a caller.
fn drop_order(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    live: &[bool],
    pair: &PairSpec,
) -> Vec<Finding> {
    let sev = cfg.severity_of(DROP_ORDER.id, DROP_ORDER.default_severity);
    if sev == Severity::Allow {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if !live[id] {
            continue;
        }
        let (acquires, releases) = pair_events(&node.item, pair);
        if acquires.is_empty() || releases.is_empty() {
            continue;
        }
        let first_acq = acquires[0].order;
        if releases[0].order < first_acq {
            if !site_allowed(allows, &node.file, releases[0].line, DROP_ORDER.id) {
                findings.push(Finding {
                    path: node.file.clone(),
                    line: releases[0].line + 1,
                    end_line: releases[0].line + 1,
                    rule: DROP_ORDER.id.to_string(),
                    severity: sev,
                    message: format!(
                        "`{}` released before any `{}` in {}",
                        pair.release.display(),
                        pair.acquire.display(),
                        node.item.qual_name,
                    ),
                });
            }
            continue;
        }
        // Walk releases in order: each must be preceded by a fresh acquire.
        let mut prev_release: Option<&CallSite> = None;
        for rel in &releases {
            if let Some(prev) = prev_release {
                let rearmed = acquires
                    .iter()
                    .any(|a| a.order > prev.order && a.order < rel.order);
                if !rearmed && !site_allowed(allows, &node.file, prev.line, DROP_ORDER.id) {
                    findings.push(Finding {
                        path: node.file.clone(),
                        line: prev.line + 1,
                        end_line: (rel.line + 1).max(prev.line + 1),
                        rule: DROP_ORDER.id.to_string(),
                        severity: sev,
                        message: format!(
                            "`{}` released twice with no intervening `{}` in {}",
                            pair.release.display(),
                            pair.acquire.display(),
                            node.item.qual_name,
                        ),
                    });
                }
            }
            prev_release = Some(rel);
        }
    }
    findings
}

/// Rule: a declared gauge moves only through its wrappers, and both
/// wrappers are reachable from one component.
fn gauge_balance(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    live: &[bool],
    gauge: &GaugeSpec,
) -> Vec<Finding> {
    let sev = cfg.severity_of(GAUGE_BALANCE.id, GAUGE_BALANCE.default_severity);
    if sev == Severity::Allow {
        return Vec::new();
    }
    let mut findings = Vec::new();
    // Facet (a): raw atomic bumps of the gauge field outside its wrappers.
    for (id, node) in graph.nodes.iter().enumerate() {
        if !live[id] || node.item.name == gauge.inc || node.item.name == gauge.dec {
            continue;
        }
        for call in &node.item.calls {
            let raw_bump = call.method
                && matches!(call.name.as_str(), "fetch_add" | "fetch_sub")
                && call.recv.as_deref() == Some(gauge.gauge.as_str());
            if !raw_bump || site_allowed(allows, &node.file, call.line, GAUGE_BALANCE.id) {
                continue;
            }
            findings.push(Finding {
                path: node.file.clone(),
                line: call.line + 1,
                end_line: call.line + 1,
                rule: GAUGE_BALANCE.id.to_string(),
                severity: sev,
                message: format!(
                    "raw `{}` on declared gauge `{}` in {}; only `{}`/`{}` may move it",
                    call.name, gauge.gauge, node.item.qual_name, gauge.inc, gauge.dec,
                ),
            });
        }
    }
    // Facet (b): both wrappers called, from a common component.
    let call_site_of = |name: &str| -> Option<(usize, usize)> {
        graph.nodes.iter().enumerate().find_map(|(id, node)| {
            if !live[id] {
                return None;
            }
            node.item
                .calls
                .iter()
                .find(|c| c.name == name)
                .map(|c| (id, c.line))
        })
    };
    let inc_site = call_site_of(&gauge.inc);
    let dec_site = call_site_of(&gauge.dec);
    let one_sided = |present: &str,
                     present_site: (usize, usize),
                     missing: &str|
     -> Option<Finding> {
        let (id, line) = present_site;
        if site_allowed(allows, &graph.nodes[id].file, line, GAUGE_BALANCE.id) {
            return None;
        }
        Some(Finding {
            path: graph.nodes[id].file.clone(),
            line: line + 1,
            end_line: line + 1,
            rule: GAUGE_BALANCE.id.to_string(),
            severity: sev,
            message: format!(
                "gauge `{}`: `{present}` is called but `{missing}` never is; the gauge only moves one way",
                gauge.gauge,
            ),
        })
    };
    match (inc_site, dec_site) {
        (Some(site), None) => findings.extend(one_sided(&gauge.inc, site, &gauge.dec)),
        (None, Some(site)) => findings.extend(one_sided(&gauge.dec, site, &gauge.inc)),
        (Some((inc_id, inc_line)), Some(_)) => {
            // Guard escape hatch: a decrement issued from `fn drop` fires
            // when the guard value drops, pairing with the constructor
            // increment even though no component calls both.
            let dec_in_drop = graph.nodes.iter().enumerate().any(|(id, node)| {
                live[id]
                    && node.item.name == "drop"
                    && node.item.calls.iter().any(|c| c.name == gauge.dec)
            });
            if !dec_in_drop {
                let reaches_inc = reaches(graph, live, &|c| c.name == gauge.inc);
                let reaches_dec = reaches(graph, live, &|c| c.name == gauge.dec);
                let common =
                    (0..graph.nodes.len()).any(|id| live[id] && reaches_inc[id] && reaches_dec[id]);
                if !common
                    && !site_allowed(
                        allows,
                        &graph.nodes[inc_id].file,
                        inc_line,
                        GAUGE_BALANCE.id,
                    )
                {
                    findings.push(Finding {
                        path: graph.nodes[inc_id].file.clone(),
                        line: inc_line + 1,
                        end_line: inc_line + 1,
                        rule: GAUGE_BALANCE.id.to_string(),
                        severity: sev,
                        message: format!(
                            "gauge `{}`: no component reaches both `{}` and `{}`, and no Drop impl decrements it",
                            gauge.gauge, gauge.inc, gauge.dec,
                        ),
                    });
                }
            }
        }
        (None, None) => {}
    }
    findings
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
    let ids = [
        RESOURCE_LEAK.id,
        GAUGE_BALANCE.id,
        UNBOUNDED_GROWTH.id,
        DROP_ORDER.id,
    ];
    super::run(files, cfg).map(|fs| {
        fs.into_iter()
            .filter(|f| ids.contains(&f.rule.as_str()))
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

    const PAIR: &str = "[lifecycle]\npairs = [\"acquire -> release\"]\n";

    #[test]
    fn early_return_between_acquire_and_release_leaks() {
        let fs = files(&[(
            "src/a.rs",
            "fn f(skip: bool) {\n    acquire();\n    if skip {\n        return;\n    }\n    release();\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].rule, "resource-leak");
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].end_line, 4, "end line is the witnessing exit");
        assert!(found[0].message.contains("return"), "{}", found[0].message);
    }

    #[test]
    fn question_on_the_acquire_line_is_the_failed_acquire_not_a_leak() {
        let fs = files(&[(
            "src/a.rs",
            "fn f() -> Result<(), E> {\n    let h = acquire()?;\n    release();\n    Ok(())\n}\nfn acquire() -> Result<u32, E> { Ok(1) }\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn question_below_the_acquire_leaks() {
        let fs = files(&[(
            "src/a.rs",
            "fn f() -> Result<(), E> {\n    acquire();\n    fallible()?;\n    release();\n    Ok(())\n}\nfn acquire() {}\nfn release() {}\nfn fallible() -> Result<(), E> { Ok(()) }\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].message.contains("`?`"), "{}", found[0].message);
    }

    #[test]
    fn unreleased_acquire_with_no_releasing_caller_is_a_component_leak() {
        let fs = files(&[(
            "src/a.rs",
            "fn f() {\n    acquire();\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(
            found[0].message.contains("never released"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn release_reachable_from_a_caller_component_is_clean() {
        let fs = files(&[(
            "src/a.rs",
            "fn open_it() {\n    acquire();\n}\nfn close_it() {\n    release();\n}\nfn driver() {\n    open_it();\n    close_it();\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn release_in_a_drop_impl_suppresses_the_component_check() {
        let fs = files(&[(
            "src/a.rs",
            "struct Guard;\nfn make() -> Guard {\n    acquire();\n    Guard\n}\nimpl Drop for Guard {\n    fn drop(&mut self) {\n        release();\n    }\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn qualified_pair_matches_the_snake_case_receiver() {
        let fs = files(&[(
            "src/a.rs",
            "fn f(poller: &Poller) {\n    poller.add(1);\n}\n",
        )]);
        let found = run_on(
            &fs,
            &cfg("[lifecycle]\npairs = [\"Poller::add -> Poller::remove\"]\n"),
        )
        .expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(
            found[0].message.contains("Poller::add"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn double_release_and_inverted_order_fire_drop_order() {
        let fs = files(&[(
            "src/a.rs",
            "fn twice() {\n    acquire();\n    release();\n    release();\n}\nfn inverted() {\n    release();\n    acquire();\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        let drops: Vec<_> = found.iter().filter(|f| f.rule == "drop-order").collect();
        assert_eq!(drops.len(), 2, "{found:#?}");
        assert!(
            drops[0].message.contains("released twice"),
            "{}",
            drops[0].message
        );
        assert!(
            drops[1].message.contains("before any"),
            "{}",
            drops[1].message
        );
    }

    #[test]
    fn release_only_helpers_are_exempt_from_drop_order() {
        let fs = files(&[(
            "src/a.rs",
            "fn closer() {\n    release();\n}\nfn opener() {\n    acquire();\n    closer();\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert!(found.iter().all(|f| f.rule != "drop-order"), "{found:#?}");
    }

    const GAUGE: &str = "[lifecycle]\ngauges = [\"inflight: inflight_inc / inflight_dec\"]\n";

    #[test]
    fn one_sided_gauge_fires() {
        let fs = files(&[(
            "src/a.rs",
            "impl S {\n    fn inflight_inc(&self) {\n        self.inflight.fetch_add(1, O);\n    }\n}\nfn f(s: &S) {\n    s.inflight_inc();\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GAUGE)).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(
            found[0].message.contains("inflight_dec` never is"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn raw_fetch_add_outside_the_wrapper_fires() {
        let fs = files(&[(
            "src/a.rs",
            "impl S {\n    fn inflight_inc(&self) {\n        self.inflight.fetch_add(1, O);\n    }\n    fn inflight_dec(&self) {\n        self.inflight.fetch_sub(1, O);\n    }\n    fn sneaky(&self) {\n        self.inflight.fetch_add(1, O);\n    }\n}\nfn f(s: &S) {\n    s.inflight_inc();\n    s.inflight_dec();\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GAUGE)).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(
            found[0].message.contains("raw `fetch_add`"),
            "{}",
            found[0].message
        );
        assert!(found[0].message.contains("sneaky"), "{}", found[0].message);
    }

    #[test]
    fn balanced_wrappers_in_one_component_are_clean() {
        let fs = files(&[(
            "src/a.rs",
            "impl S {\n    fn inflight_inc(&self) {\n        self.inflight.fetch_add(1, O);\n    }\n    fn inflight_dec(&self) {\n        self.inflight.fetch_sub(1, O);\n    }\n}\nfn f(s: &S) {\n    s.inflight_inc();\n    work();\n    s.inflight_dec();\n}\nfn work() {}\n",
        )]);
        let found = run_on(&fs, &cfg(GAUGE)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn guard_drop_decrement_balances_disconnected_components() {
        let fs = files(&[(
            "src/a.rs",
            "impl S {\n    fn inflight_inc(&self) {\n        self.inflight.fetch_add(1, O);\n    }\n    fn inflight_dec(&self) {\n        self.inflight.fetch_sub(1, O);\n    }\n}\nfn up(s: &S) {\n    s.inflight_inc();\n}\nimpl Drop for G {\n    fn drop(&mut self) {\n        self.s.inflight_dec();\n    }\n}\n",
        )]);
        let found = run_on(&fs, &cfg(GAUGE)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
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
    fn malformed_pair_spec_is_a_config_error() {
        let fs = files(&[("src/a.rs", "fn f() {}\n")]);
        let err = run_on(&fs, &cfg("[lifecycle]\npairs = [\"acquire\"]\n")).unwrap_err();
        assert!(err.contains("acquire -> release"), "{err}");
    }

    #[test]
    fn test_code_is_exempt() {
        let fs = files(&[(
            "src/a.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        acquire();\n    }\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn allow_pragma_suppresses_a_leak() {
        let fs = files(&[(
            "src/a.rs",
            "fn f() {\n    acquire(); // lint:allow(resource-leak): handed to the registry\n}\nfn acquire() {}\nfn release() {}\n",
        )]);
        let found = run_on(&fs, &cfg(PAIR)).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }
}
