//! Concurrency safety: lock-order cycles, guards held across blocking
//! calls, blocking on reactor paths, and unlooped condvar waits.
//!
//! All four rules build on the same collected facts: per-function lock
//! acquisition sites with guard-liveness spans ([`crate::items::LockSite`])
//! and call sites ordered by token position. Two interprocedural fixpoints
//! close the transitive gaps:
//!
//! * `blocked` — can this function's call park the thread? A function
//!   blocks if it calls a configured blocking sink directly, or any
//!   resolved callee blocks. Used by **lock-across-blocking**: a guard is
//!   not allowed to be live across a call that can block, because one
//!   slow peer then stalls every thread behind that lock.
//! * `acquires` — the set of lock names a function (transitively) takes.
//!   Used by the **lock-order** graph: while guard `A` is live, every
//!   lock `B` acquired later in the same body — or anywhere inside a
//!   callee — adds the edge `A → B`. A cycle in that graph is a deadlock
//!   two threads can realize by arriving in opposite orders.
//!
//! **blocking-in-reactor** reuses the call-graph BFS from the declared
//! reactor entry points: any blocking-sink call in reachable non-test
//! code is a stall of every connection the reactor multiplexes; only
//! functions in the declared `reactor-allowed` files (the poller) may
//! park. **condvar-wait-loop** is local: a `wait(guard)`/`wait_timeout`
//! outside a `loop`/`while`/`for` body proceeds on spurious wakeups.
//!
//! Lock identity is the receiver identifier (`self.inner.lock()` →
//! `inner`), not a type — the collector does not type-check. Two fields
//! sharing a name alias into one lock: an over-approximation, the right
//! polarity for a checker whose false positives each need a justified
//! `lint:allow` pragma. The known
//! blind spot is a guard returned from a helper (`fn lock_jobs() ->
//! MutexGuard`): the caller's held-set misses it, though the helper's
//! own acquisition still feeds the transitive `acquires` sets.

#[cfg(test)]
use super::SourceFile;
use super::{is_test_path, site_allowed};
use crate::callgraph::CallGraph;
use crate::config::{Config, Severity};
use crate::items::CallSite;
use crate::rules::{
    Allow, Finding, BLOCKING_IN_REACTOR, CONDVAR_WAIT_LOOP, LOCK_ACROSS_BLOCKING, LOCK_ORDER,
};
use std::collections::{BTreeMap, BTreeSet};

/// Built-in blocking sinks. `name` matches any call of that name;
/// `name()` only empty-argument calls — that suffix keeps
/// `JoinHandle::join()` separate from `slice::join(sep)`, and the
/// deliberate absence of bare `read`/`write`/`accept` keeps the
/// reactor's nonblocking socket calls out of the sink set.
const DEFAULT_BLOCKING_SINKS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "join()",
    "sleep",
    "park",
    "recv",
    "recv_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "connect",
];

/// A parsed blocking-sink spec: `name`, `name()`, or `Qual::name`.
struct SinkSpec {
    qual: Option<String>,
    name: String,
    empty_only: bool,
}

fn parse_sink_spec(spec: &str) -> SinkSpec {
    let (body, empty_only) = match spec.strip_suffix("()") {
        Some(b) => (b, true),
        None => (spec, false),
    };
    let (qual, name) = match body.rsplit_once("::") {
        Some((q, n)) => (Some(q.to_string()), n.to_string()),
        None => (None, body.to_string()),
    };
    SinkSpec {
        qual,
        name,
        empty_only,
    }
}

fn is_blocking_sink(call: &CallSite, sinks: &[SinkSpec]) -> bool {
    sinks.iter().any(|s| {
        call.name == s.name
            && (!s.empty_only || call.empty_args)
            && s.qual.as_ref().is_none_or(|q| call.qual.last() == Some(q))
    })
}

/// Does this call consume (and thereby release) the guard it waits on —
/// `cv.wait(guard)` / `cv.wait_timeout(guard, dur)`? The guard is not
/// "held across" its own condvar wait.
fn consumes_guard(call: &CallSite, binding: Option<&str>) -> bool {
    call.method
        && matches!(
            call.name.as_str(),
            "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while"
        )
        && binding.is_some()
        && call.first_arg.as_deref() == binding
}

/// Why a function can block: the sink it reaches, and the callee hop
/// toward it (None for a direct sink call).
#[derive(Clone)]
struct BlockInfo {
    sink: String,
    next: Option<usize>,
}

/// Run all four concurrency rules over the workspace graph.
pub(crate) fn run(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
) -> Result<Vec<Finding>, String> {
    let sinks: Vec<SinkSpec> = DEFAULT_BLOCKING_SINKS
        .iter()
        .map(|s| parse_sink_spec(s))
        .chain(cfg.blocking_sinks.iter().map(|s| parse_sink_spec(s)))
        .collect();
    let n = graph.nodes.len();
    let live: Vec<bool> = graph
        .nodes
        .iter()
        .map(|node| !node.item.is_test && !is_test_path(&node.file))
        .collect();

    // Per-call candidate callees: the graph's edges are deduplicated per
    // node, so re-filter by callee name to attribute them to a call site.
    let callees_of = |id: usize, call: &CallSite| -> Vec<usize> {
        graph.edges[id]
            .iter()
            .copied()
            .filter(|&k| graph.nodes[k].item.name == call.name && live[k])
            .collect()
    };

    // Fixpoint 1: which functions can block, and through what.
    let mut blocked: Vec<Option<BlockInfo>> = vec![None; n];
    for id in 0..n {
        if !live[id] {
            continue;
        }
        if let Some(c) = graph.nodes[id]
            .item
            .calls
            .iter()
            .find(|c| is_blocking_sink(c, &sinks))
        {
            blocked[id] = Some(BlockInfo {
                sink: c.name.clone(),
                next: None,
            });
        }
    }
    loop {
        let mut changed = false;
        for id in 0..n {
            if !live[id] || blocked[id].is_some() {
                continue;
            }
            for &k in &graph.edges[id] {
                if live[k] {
                    if let Some(info) = &blocked[k] {
                        blocked[id] = Some(BlockInfo {
                            sink: info.sink.clone(),
                            next: Some(k),
                        });
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // `id` is known to block: the hop chain down to the sink call.
    let block_chain = |mut id: usize| -> String {
        let mut parts = vec![graph.nodes[id].item.qual_name.clone()];
        while let Some(info) = &blocked[id] {
            match info.next {
                Some(k) => {
                    parts.push(graph.nodes[k].item.qual_name.clone());
                    id = k;
                }
                None => {
                    parts.push(format!("{}()", info.sink));
                    break;
                }
            }
        }
        parts.join(" → ")
    };

    // Fixpoint 2: transitively acquired lock names per function.
    let mut acquires: Vec<BTreeSet<String>> = (0..n)
        .map(|id| {
            if live[id] {
                graph.nodes[id]
                    .item
                    .locks
                    .iter()
                    .map(|l| l.name.clone())
                    .collect()
            } else {
                BTreeSet::new()
            }
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if !live[id] {
                continue;
            }
            for &k in &graph.edges[id] {
                if !live[k] || k == id {
                    continue;
                }
                let extra: Vec<String> = acquires[k]
                    .iter()
                    .filter(|name| !acquires[id].contains(*name))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    acquires[id].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut findings = Vec::new();
    findings.extend(lock_across_blocking(
        graph,
        cfg,
        allows,
        &sinks,
        &live,
        &blocked,
        &callees_of,
        &block_chain,
    ));
    findings.extend(lock_order(
        graph,
        cfg,
        allows,
        &live,
        &acquires,
        &callees_of,
    ));
    findings.extend(blocking_in_reactor(graph, cfg, allows, &sinks, &live)?);
    findings.extend(condvar_wait_loop(graph, cfg, allows, &live));
    Ok(findings)
}

/// Rule: no lock guard live across a call that can block.
#[allow(
    clippy::too_many_arguments,
    reason = "the pass's shared graph, config and per-rule state, threaded by reference"
)]
fn lock_across_blocking(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    sinks: &[SinkSpec],
    live: &[bool],
    blocked: &[Option<BlockInfo>],
    callees_of: &dyn Fn(usize, &CallSite) -> Vec<usize>,
    block_chain: &dyn Fn(usize) -> String,
) -> Vec<Finding> {
    let sev = cfg.severity_of(
        LOCK_ACROSS_BLOCKING.id,
        LOCK_ACROSS_BLOCKING.default_severity,
    );
    if sev == Severity::Allow {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if !live[id] || Config::path_in(&node.file, &cfg.blocking_allowed) {
            continue;
        }
        for lock in &node.item.locks {
            for call in &node.item.calls {
                if call.order <= lock.order || call.order >= lock.held_until {
                    continue;
                }
                if consumes_guard(call, lock.binding.as_deref()) {
                    continue;
                }
                if site_allowed(allows, &node.file, call.line, LOCK_ACROSS_BLOCKING.id) {
                    continue;
                }
                let guard = format!(
                    "{} guard `{}` (taken line {})",
                    lock.kind.as_str(),
                    lock.binding.as_deref().unwrap_or(&lock.name),
                    lock.line + 1
                );
                if is_blocking_sink(call, sinks) {
                    findings.push(Finding {
                        path: node.file.clone(),
                        line: call.line + 1,
                        end_line: call.line + 1,
                        rule: LOCK_ACROSS_BLOCKING.id.to_string(),
                        severity: sev,
                        message: format!(
                            "{guard} held across blocking call `{}` in {}",
                            call.name, node.item.qual_name
                        ),
                    });
                } else if let Some(&k) =
                    callees_of(id, call).iter().find(|&&k| blocked[k].is_some())
                {
                    findings.push(Finding {
                        path: node.file.clone(),
                        line: call.line + 1,
                        end_line: call.line + 1,
                        rule: LOCK_ACROSS_BLOCKING.id.to_string(),
                        severity: sev,
                        message: format!(
                            "{guard} held across `{}` which can block: {}",
                            call.name,
                            block_chain(k)
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Where one lock-order edge was witnessed.
struct EdgeWitness {
    file: String,
    line: usize,
    holder: String,
    via: Option<String>,
}

/// Rule: the acquired-while-holding graph must stay acyclic.
fn lock_order(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    live: &[bool],
    acquires: &[BTreeSet<String>],
    callees_of: &dyn Fn(usize, &CallSite) -> Vec<usize>,
) -> Vec<Finding> {
    let sev = cfg.severity_of(LOCK_ORDER.id, LOCK_ORDER.default_severity);
    if sev == Severity::Allow {
        return Vec::new();
    }
    // Edge (held, taken) → first witness, in deterministic node order.
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    let mut add = |held: &str, taken: &str, wit: EdgeWitness| {
        if held != taken {
            edges
                .entry((held.to_string(), taken.to_string()))
                .or_insert(wit);
        }
    };
    for (id, node) in graph.nodes.iter().enumerate() {
        if !live[id] {
            continue;
        }
        for lock in &node.item.locks {
            for later in &node.item.locks {
                if later.order > lock.order && later.order < lock.held_until {
                    add(
                        &lock.name,
                        &later.name,
                        EdgeWitness {
                            file: node.file.clone(),
                            line: later.line,
                            holder: node.item.qual_name.clone(),
                            via: None,
                        },
                    );
                }
            }
            for call in &node.item.calls {
                if call.order <= lock.order || call.order >= lock.held_until {
                    continue;
                }
                if consumes_guard(call, lock.binding.as_deref()) {
                    continue;
                }
                for k in callees_of(id, call) {
                    for taken in &acquires[k] {
                        add(
                            &lock.name,
                            taken,
                            EdgeWitness {
                                file: node.file.clone(),
                                line: call.line,
                                holder: node.item.qual_name.clone(),
                                via: Some(graph.nodes[k].item.qual_name.clone()),
                            },
                        );
                    }
                }
            }
        }
    }

    // Adjacency over lock names; shortest cycle through each name via BFS,
    // deduplicated by canonical rotation.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (held, taken) in edges.keys() {
        adj.entry(held).or_default().push(taken);
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut findings = Vec::new();
    for &start in adj.keys() {
        let Some(cycle) = shortest_cycle(&adj, start) else {
            continue;
        };
        if !seen.insert(canonical(&cycle)) {
            continue;
        }
        let mut legs = Vec::new();
        for w in cycle.windows(2) {
            let wit = &edges[&(w[0].clone(), w[1].clone())];
            let via = wit
                .via
                .as_ref()
                .map(|v| format!(" via {v}"))
                .unwrap_or_default();
            legs.push(format!(
                "`{}` taken while holding `{}` in {}{} ({}:{})",
                w[1],
                w[0],
                wit.holder,
                via,
                wit.file,
                wit.line + 1
            ));
        }
        let first = &edges[&(cycle[0].clone(), cycle[1].clone())];
        if site_allowed(allows, &first.file, first.line, LOCK_ORDER.id) {
            continue;
        }
        findings.push(Finding {
            path: first.file.clone(),
            line: first.line + 1,
            end_line: first.line + 1,
            rule: LOCK_ORDER.id.to_string(),
            severity: sev,
            message: format!(
                "lock-order cycle {}: {}",
                cycle.join(" → "),
                legs.join("; ")
            ),
        });
    }
    findings
}

/// Shortest cycle `start → … → start` in `adj`, as the node sequence
/// including both endpoints; BFS with deterministic neighbor order.
fn shortest_cycle(adj: &BTreeMap<&str, Vec<&str>>, start: &str) -> Option<Vec<String>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<&str> = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(at) = queue.pop_front() {
        for &next in adj.get(at).into_iter().flatten() {
            if next == start {
                let mut path = vec![start.to_string()];
                let mut cur = at;
                let mut rev = vec![cur.to_string()];
                while cur != start {
                    cur = parent[cur];
                    rev.push(cur.to_string());
                }
                // `rev` runs target-back-to-start; drop the duplicate start.
                rev.pop();
                rev.reverse();
                path.extend(rev);
                path.push(start.to_string());
                return Some(path);
            }
            if next != start && !parent.contains_key(next) {
                parent.insert(next, at);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Canonical form of a cycle `a → b → a`: the member rotation starting at
/// the smallest name, for deduplication across starting points.
fn canonical(cycle: &[String]) -> Vec<String> {
    let members = &cycle[..cycle.len() - 1];
    let min = members
        .iter()
        .enumerate()
        .min_by_key(|(_, name)| name.as_str())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out: Vec<String> = members[min..].to_vec();
    out.extend_from_slice(&members[..min]);
    out
}

/// Rule: no blocking sink reachable from a reactor event-loop entry point
/// outside the declared reactor-allowed files (the poller).
fn blocking_in_reactor(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    sinks: &[SinkSpec],
    live: &[bool],
) -> Result<Vec<Finding>, String> {
    let sev = cfg.severity_of(BLOCKING_IN_REACTOR.id, BLOCKING_IN_REACTOR.default_severity);
    if sev == Severity::Allow || cfg.reactor_entry_points.is_empty() {
        return Ok(Vec::new());
    }
    let mut roots = Vec::new();
    for (file, name) in &cfg.reactor_entry_points {
        let ids = graph.find(file, name);
        if ids.is_empty() {
            return Err(format!(
                "lint.toml declares reactor entry point {file}::{name}, but no such fn exists"
            ));
        }
        roots.extend(ids);
    }
    let parents = graph.bfs(&roots);
    let mut findings = Vec::new();
    for &id in parents.keys() {
        let node = &graph.nodes[id];
        if !live[id] || Config::path_in(&node.file, &cfg.reactor_allowed) {
            continue;
        }
        for call in &node.item.calls {
            if !is_blocking_sink(call, sinks) {
                continue;
            }
            if site_allowed(allows, &node.file, call.line, BLOCKING_IN_REACTOR.id) {
                continue;
            }
            let chain = graph.chain(&parents, id).join(" → ");
            findings.push(Finding {
                path: node.file.clone(),
                line: call.line + 1,
                end_line: call.line + 1,
                rule: BLOCKING_IN_REACTOR.id.to_string(),
                severity: sev,
                message: format!("blocking call `{}` on a reactor path: {chain}", call.name),
            });
        }
    }
    Ok(findings)
}

/// Rule: condvar waits sit inside a loop re-checking their predicate.
/// `wait_while`/`wait_timeout_while` carry the predicate themselves and
/// are exempt. `Condvar::wait` always takes the guard it releases, so a
/// zero-argument `wait()` (`Child::wait`, a barrier) is not a condvar
/// wait.
fn condvar_wait_loop(
    graph: &CallGraph,
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
    live: &[bool],
) -> Vec<Finding> {
    let sev = cfg.severity_of(CONDVAR_WAIT_LOOP.id, CONDVAR_WAIT_LOOP.default_severity);
    if sev == Severity::Allow {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if !live[id] {
            continue;
        }
        for call in &node.item.calls {
            let is_wait = call.method
                && !call.empty_args
                && matches!(call.name.as_str(), "wait" | "wait_timeout");
            if !is_wait || call.in_loop {
                continue;
            }
            if site_allowed(allows, &node.file, call.line, CONDVAR_WAIT_LOOP.id) {
                continue;
            }
            findings.push(Finding {
                path: node.file.clone(),
                line: call.line + 1,
                end_line: call.line + 1,
                rule: CONDVAR_WAIT_LOOP.id.to_string(),
                severity: sev,
                message: format!(
                    "`{}` outside a loop in {}; spurious wakeups require re-checking the predicate in a loop",
                    call.name, node.item.qual_name
                ),
            });
        }
    }
    findings
}

/// Convenience for tests: run over raw files, keeping only this module's
/// findings.
#[cfg(test)]
pub(crate) fn run_on(files: &[SourceFile], cfg: &Config) -> Result<Vec<Finding>, String> {
    let ids = [
        LOCK_ORDER.id,
        LOCK_ACROSS_BLOCKING.id,
        BLOCKING_IN_REACTOR.id,
        CONDVAR_WAIT_LOOP.id,
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

    #[test]
    fn abba_inversion_across_call_boundary_is_a_cycle() {
        let fs = files(&[(
            "src/a.rs",
            "fn forward() {\n    let a = jobs.lock().unwrap();\n    grab_conns();\n    let _ = a;\n}\nfn grab_conns() {\n    let b = conns.lock().unwrap();\n    let _ = b;\n}\nfn backward() {\n    let b = conns.lock().unwrap();\n    let a = jobs.lock().unwrap();\n    let _ = (a, b);\n}\n",
        )]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        let cycles: Vec<&Finding> = found.iter().filter(|f| f.rule == "lock-order").collect();
        assert_eq!(cycles.len(), 1, "{found:#?}");
        assert!(cycles[0].message.contains("conns"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("jobs"), "{}", cycles[0].message);
        assert!(
            cycles[0].message.contains("via grab_conns"),
            "{}",
            cycles[0].message
        );
    }

    #[test]
    fn consistent_order_is_not_a_cycle() {
        let fs = files(&[(
            "src/a.rs",
            "fn one() {\n    let a = jobs.lock().unwrap();\n    let b = conns.lock().unwrap();\n    let _ = (a, b);\n}\nfn two() {\n    let a = jobs.lock().unwrap();\n    let b = conns.lock().unwrap();\n    let _ = (a, b);\n}\n",
        )]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        assert!(found.iter().all(|f| f.rule != "lock-order"), "{found:#?}");
    }

    #[test]
    fn guard_across_blocking_call_direct_and_transitive() {
        let fs = files(&[(
            "src/a.rs",
            "fn direct() {\n    let g = state.lock().unwrap();\n    stream.write_all(&buf).unwrap();\n    let _ = g;\n}\nfn indirect() {\n    let g = state.lock().unwrap();\n    helper();\n    let _ = g;\n}\nfn helper() {\n    stream.write_all(&buf).unwrap();\n}\nfn fine() {\n    {\n        let g = state.lock().unwrap();\n        let _ = g;\n    }\n    stream.write_all(&buf).unwrap();\n}\n",
        )]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        let held: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == "lock-across-blocking")
            .collect();
        assert_eq!(held.len(), 2, "{found:#?}");
        assert!(held[0].message.contains("write_all"), "{}", held[0].message);
        assert!(
            held[1].message.contains("helper → write_all()"),
            "{}",
            held[1].message
        );
    }

    #[test]
    fn condvar_wait_consumes_its_guard_but_not_others() {
        // The waited guard is released by the condvar; a *second* guard
        // held across the same wait is the real hazard.
        let fs = files(&[(
            "src/a.rs",
            "fn ok() {\n    let mut q = queue.lock().unwrap();\n    loop {\n        q = cv.wait(q).unwrap();\n    }\n}\nfn bad() {\n    let other = conns.lock().unwrap();\n    let mut q = queue.lock().unwrap();\n    loop {\n        q = cv.wait(q).unwrap();\n    }\n    let _ = other;\n}\n",
        )]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        let held: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == "lock-across-blocking")
            .collect();
        assert_eq!(held.len(), 1, "{found:#?}");
        assert!(held[0].message.contains("`other`"), "{}", held[0].message);
    }

    #[test]
    fn blocking_allowed_paths_are_exempt() {
        let src = "fn f() {\n    let g = state.lock().unwrap();\n    h.join().unwrap();\n    let _ = g;\n}\n";
        let fs = files(&[("src/sup.rs", src)]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        let found = run_on(
            &files(&[("src/sup.rs", src)]),
            &cfg("[paths]\nblocking-allowed = [\"src/sup.rs\"]\n"),
        )
        .expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn reactor_paths_must_not_block_except_in_allowed_files() {
        let fs = files(&[
            (
                "src/reactor.rs",
                "pub fn run_loop() {\n    poller_tick();\n    dispatch();\n}\nfn dispatch() {\n    ch.recv_timeout(dur).unwrap();\n}\n",
            ),
            (
                "src/poll.rs",
                "pub fn poller_tick() {\n    cv.wait_timeout(g, dur).unwrap();\n}\n",
            ),
        ]);
        let conf = cfg(
            "[concurrency]\nreactor-entry-points = [\"src/reactor.rs::run_loop\"]\nreactor-allowed = [\"src/poll.rs\"]\n",
        );
        let found = run_on(&fs, &conf).expect("runs");
        let reactor: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == "blocking-in-reactor")
            .collect();
        assert_eq!(reactor.len(), 1, "{found:#?}");
        assert_eq!(reactor[0].path, "src/reactor.rs");
        assert!(
            reactor[0].message.contains("run_loop → dispatch"),
            "{}",
            reactor[0].message
        );
        let err = run_on(
            &fs,
            &cfg("[concurrency]\nreactor-entry-points = [\"src/reactor.rs::no_such\"]\n"),
        )
        .expect_err("missing entry point");
        assert!(err.contains("no_such"), "{err}");
    }

    #[test]
    fn unlooped_condvar_wait_is_flagged_looped_is_not() {
        let fs = files(&[(
            "src/a.rs",
            "fn bad(q: G) {\n    let q = cv.wait(q).unwrap();\n    let _ = q;\n}\nfn good(mut q: G) {\n    while empty(&q) {\n        q = cv.wait(q).unwrap();\n    }\n}\nfn reap(c: C) {\n    let _ = c.wait();\n}\n",
        )]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        let waits: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == "condvar-wait-loop")
            .collect();
        assert_eq!(waits.len(), 1, "{found:#?}");
        assert!(waits[0].message.contains("bad"), "{}", waits[0].message);
    }

    #[test]
    fn pragmas_suppress_each_rule_at_the_site() {
        let fs = files(&[(
            "src/a.rs",
            "fn f() {\n    let g = state.lock().unwrap();\n    // lint:allow(lock-across-blocking): shutdown path, contention-free\n    h.join().unwrap();\n    let _ = g;\n}\nfn w(q: G) {\n    // lint:allow(condvar-wait-loop): single-shot latch, never re-armed\n    let q = cv.wait(q).unwrap();\n    let _ = q;\n}\n",
        )]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn custom_sink_specs_extend_the_default_list() {
        let fs = files(&[(
            "src/a.rs",
            "fn f() {\n    let g = state.lock().unwrap();\n    bus.publish(&msg);\n    let _ = g;\n}\n",
        )]);
        assert!(run_on(&fs, &cfg("")).expect("runs").is_empty());
        let found =
            run_on(&fs, &cfg("[concurrency]\nblocking-sinks = [\"publish\"]\n")).expect("runs");
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].message.contains("publish"));
    }

    #[test]
    fn test_code_is_exempt() {
        let fs = files(&[
            (
                "src/a.rs",
                "#[cfg(test)]\nmod tests {\n    fn t(q: G) {\n        let g = m.lock().unwrap();\n        h.join().unwrap();\n        let q = cv.wait(q).unwrap();\n        let _ = (g, q);\n    }\n}\n",
            ),
            (
                "tests/it.rs",
                "fn t(q: G) {\n    let q = cv.wait(q).unwrap();\n    let _ = q;\n}\n",
            ),
        ]);
        let found = run_on(&fs, &cfg("")).expect("runs");
        assert!(found.is_empty(), "{found:#?}");
    }
}
