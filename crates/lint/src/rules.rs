//! The rule set: the invariants the workspace enforces mechanically that
//! clippy cannot check.
//!
//! The per-line guarantees (no wall clock or stray threads outside their
//! layers, panic-freedom, no printing libraries, the exit-code contract,
//! slice indexing in ingest parsers, SAFETY comments) are clippy lints
//! configured in `clippy.toml` and on the crate roots. What stays here:
//!
//! * PR 2 made the parallel engine byte-identical to `--threads 1`
//!   because no artifact path iterates an unordered map → [`HASH_ITER`],
//!   plus the call-graph passes in [`crate::analyses`].
//! * The build is offline and `unsafe`-free by policy → [`OFFLINE_DEPS`],
//!   [`CRATE_ROOT`].
//!
//! Rules operate on the scrubbed code view (comments and literal bodies
//! blanked), so banned tokens inside strings, doc examples, or comments
//! never fire. Findings are suppressed line-by-line with
//! `// lint:allow(<rule>): <justification>` pragmas; a pragma without a
//! justification is itself a finding ([`BARE_ALLOW`]).

use crate::config::{Config, Severity};
use crate::scrub::ScrubbedSource;

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id, used in output and `lint:allow` pragmas.
    pub id: &'static str,
    /// Severity when `lint.toml` does not override it.
    pub default_severity: Severity,
    /// One-line description for `--list-rules` output and docs.
    pub summary: &'static str,
    /// Why the rule exists: the invariant it keeps true, for `--explain`.
    pub rationale: &'static str,
    /// A representative finding message, for `--explain`.
    pub example: &'static str,
}

/// Determinism: render paths must not touch unordered maps at all.
pub const HASH_ITER: Rule = Rule {
    id: "hash-iter",
    default_severity: Severity::Deny,
    summary: "HashMap/HashSet in a render path (iteration order leaks into artifacts)",
    rationale: "Render paths write artifact bytes; HashMap iteration order is randomized per \
                process, so any map walk in a renderer flips artifact diffs.",
    example:
        "crates/core/src/report.rs:107: HashMap in a render path; use BTreeMap/sorted collections",
};

/// Hygiene: every crate root forbids unsafe code and warns on missing docs.
pub const CRATE_ROOT: Rule = Rule {
    id: "crate-root",
    default_severity: Severity::Deny,
    summary: "crate root missing #![deny(unsafe_code)] or #![warn(missing_docs)]",
    rationale: "Unsafe is opt-in per audited module, never ambient; the crate-root attributes \
                are the switch that keeps it that way, so their absence is itself a finding.",
    example: "crates/core/src/lib.rs:1: crate root missing #![deny(unsafe_code)]",
};

/// Hygiene: dependencies resolve offline (workspace or vendor paths only).
pub const OFFLINE_DEPS: Rule = Rule {
    id: "offline-deps",
    default_severity: Severity::Deny,
    summary: "Cargo.toml dependency that is not a workspace/path dependency",
    rationale: "The build runs with no network; a registry or git dependency would pass locally \
                and break the offline CI environment.",
    example: "crates/core/Cargo.toml:14: dependency \"serde\" does not resolve offline (needs workspace/path)",
};

/// Meta: `lint:allow` pragmas must carry a justification.
pub const BARE_ALLOW: Rule = Rule {
    id: "bare-allow",
    default_severity: Severity::Deny,
    summary: "lint:allow pragma without a justification (or naming an unknown rule)",
    rationale: "A suppression is a reviewed exception; without a written reason it is just a \
                disabled rule, and an unknown rule id means the pragma suppresses nothing.",
    example: "crates/core/src/stats.rs:91: lint:allow pragma without a justification",
};

/// Interprocedural: panic sites reachable from a pipeline entry point.
pub const PANIC_REACH: Rule = Rule {
    id: "panic-reach",
    default_severity: Severity::Deny,
    summary: "panic/unwrap/expect site reachable from a pipeline entry point (call-graph)",
    rationale:
        "clippy's panic lints only see the declared panic-free crates; this closes the \
                transitive gap — an unwrap in a helper crate that main can reach is still an abort.",
    example:
        "crates/core/src/geo.rs:140: `unwrap` reachable from pipeline entry: main → run → project",
};

/// Interprocedural: nondeterminism sources reachable from a renderer.
pub const DETERMINISM_TAINT: Rule = Rule {
    id: "determinism-taint",
    default_severity: Severity::Deny,
    summary: "wall-clock/RNG/hash-order source reachable from an artifact renderer (call-graph)",
    rationale: "Byte-identical artifacts require every function upstream of a renderer to be \
                deterministic, not just the renderer file itself.",
    example: "crates/core/src/grid.rs:55: wall-clock source feeds artifact renderer: render_atlas ← … ← cell_stats",
};

/// Interprocedural: `pub` items no other crate ever references.
pub const DEAD_PUB: Rule = Rule {
    id: "dead-pub",
    default_severity: Severity::Deny,
    summary: "pub item never referenced outside its crate (make it pub(crate) or remove it)",
    rationale: "Every pub item is API surface someone must keep stable; surface nobody uses is \
                pure maintenance cost and hides what the crate is actually for.",
    example:
        "crates/core/src/stats.rs:12: pub fn `quantile_raw` never referenced outside its crate",
};

/// Meta: the checked-in baseline may only shrink.
pub const STALE_BASELINE: Rule = Rule {
    id: "stale-baseline",
    default_severity: Severity::Deny,
    summary: "lint-baseline.json entry that no longer fires (shrink the baseline)",
    rationale: "The baseline is a ratchet: debt may be paid down, never silently re-accrued. An \
                entry that no longer fires must be deleted so the ratchet tightens.",
    example: "lint-baseline.json: baselined finding for panic-reach at crates/core/src/geo.rs no longer fires",
};

/// Concurrency: the acquired-while-holding graph must stay acyclic.
pub const LOCK_ORDER: Rule = Rule {
    id: "lock-order",
    default_severity: Severity::Deny,
    summary: "lock-order cycle: two locks acquired while holding each other (call-graph)",
    rationale: "Two threads taking the same locks in opposite orders deadlock under load; an \
                acyclic acquired-while-holding graph rules that out statically, across call \
                boundaries.",
    example:
        "crates/serve/src/server.rs:88: lock-order cycle: `jobs` acquired while holding `conns` \
              (server::dispatch), `conns` acquired while holding `jobs` (server::complete)",
};

/// Concurrency: no lock guard held across a call that can block.
pub const LOCK_ACROSS_BLOCKING: Rule = Rule {
    id: "lock-across-blocking",
    default_severity: Severity::Deny,
    summary: "lock guard held across a blocking call (socket IO, join, condvar, sleep)",
    rationale: "A guard held across a blocking call turns one slow peer into a stall for every \
                thread behind that lock; critical sections must end before control can park.",
    example: "crates/serve/src/lru.rs:64: Mutex::lock guard `inner` held across blocking call `write_all` \
              (reached via flush_entry)",
};

/// Concurrency: reactor event-loop paths never block outside the poller.
pub const BLOCKING_IN_REACTOR: Rule = Rule {
    id: "blocking-in-reactor",
    default_severity: Severity::Deny,
    summary: "blocking call reachable from a reactor entry point (only the poller may wait)",
    rationale: "The reactor thread multiplexes every connection; one blocking call on its path \
                freezes all of them. The poller's own wait is the single sanctioned park point.",
    example: "crates/serve/src/reactor.rs:301: blocking call `recv_timeout` reachable from reactor entry: \
              run_loop → drain_completions",
};

/// Concurrency: condvar waits must sit in a loop re-checking the predicate.
pub const CONDVAR_WAIT_LOOP: Rule = Rule {
    id: "condvar-wait-loop",
    default_severity: Severity::Deny,
    summary: "Condvar wait outside a loop (spurious wakeups break unlooped waits)",
    rationale: "Condition variables wake spuriously and on stolen signals; a wait not wrapped in \
                a predicate-re-checking loop proceeds on state that is not actually true.",
    example: "crates/serve/src/server.rs:210: Condvar `wait` outside a loop; re-check the predicate in a loop",
};

/// Lifecycle: every acquire is released on every path out of a function.
pub const RESOURCE_LEAK: Rule = Rule {
    id: "resource-leak",
    default_severity: Severity::Deny,
    summary: "acquire reaches a function exit on some path without its paired release",
    rationale: "Every epoll registration, timer arm, and lease is an acquire/release pair in a \
                long-running daemon; an early return, `?`, or break that skips the release is a \
                slow leak that only shows up days into a run. RAII guards (a release in a `drop` \
                impl) discharge the obligation structurally.",
    example: "crates/serve/src/reactor.rs:284: `add` acquired (Poller::add -> Poller::remove) but \
              `return` on line 291 exits before the release on line 299",
};

/// Lifecycle: declared gauges have reachable, paired inc/dec movement.
pub const GAUGE_BALANCE: Rule = Rule {
    id: "gauge-balance",
    default_severity: Severity::Deny,
    summary: "declared gauge with unpaired inc/dec movement (or a raw atomic bypass)",
    rationale: "A gauge that only ever moves one way reads as a leak or goes negative on the \
                dashboard; every increment wrapper needs a reachable decrement wrapper, and raw \
                fetch_add/fetch_sub outside the wrappers bypasses that audit. A decrement housed \
                in a Drop impl (an RAII gauge guard) balances structurally.",
    example: "crates/serve/src/metrics.rs:118: gauge `open_conns`: `conn_opened` is called in \
              live code but `conn_closed` is never reached",
};

/// Lifecycle: collections on long-running paths stay bounded.
pub const UNBOUNDED_GROWTH: Rule = Rule {
    id: "unbounded-growth",
    default_severity: Severity::Deny,
    summary: "insert/push on a reactor or long-running path with no cap or eviction in reach",
    rationale: "A collection a reactor loop grows on every event is unbounded memory unless some \
                reachable path also shrinks it (pop/remove/evict/clear) or checks a cap; the \
                DynIP-style daemon lives for months, so 'rarely grows' still means 'eventually \
                OOM'.",
    example: "crates/serve/src/reactor.rs:310: `insert` grows a collection on a reactor path \
              (run_loop → accept_ready) with no shrink operation in reach",
};

/// Lifecycle: release order is sane along every path.
pub const DROP_ORDER: Rule = Rule {
    id: "drop-order",
    default_severity: Severity::Deny,
    summary: "release called twice, or release before any acquire, along a path",
    rationale: "A double release corrupts whatever the handle indexes (epoll fds, slab slots), \
                and a release that precedes its acquire signals swapped or copy-pasted cleanup \
                code; both are cheap to reject statically.",
    example: "crates/serve/src/reactor.rs:755: `remove` (release of Poller::add -> \
              Poller::remove) called again on line 757 with no intervening acquire",
};

/// Every rule, for docs, pragma validation, and `--list-rules` output.
pub const ALL_RULES: [Rule; 16] = [
    HASH_ITER,
    CRATE_ROOT,
    OFFLINE_DEPS,
    BARE_ALLOW,
    PANIC_REACH,
    DETERMINISM_TAINT,
    DEAD_PUB,
    STALE_BASELINE,
    LOCK_ORDER,
    LOCK_ACROSS_BLOCKING,
    BLOCKING_IN_REACTOR,
    CONDVAR_WAIT_LOOP,
    RESOURCE_LEAK,
    GAUGE_BALANCE,
    UNBOUNDED_GROWTH,
    DROP_ORDER,
];

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    ALL_RULES.iter().find(|r| r.id == id)
}

/// Render the `--explain <rule>` text: summary, rationale, a
/// representative finding, and the pragma syntax. `None` for an unknown
/// id — the caller turns that into a usage error.
pub fn explain(id: &str) -> Option<String> {
    let r = rule_by_id(id)?;
    Some(format!(
        "{} (default severity: {})\n  {}\n\nwhy\n  {}\n\nexample finding\n  {}\n\nsuppress one site\n  // lint:allow({}): <why this specific site is safe>\n",
        r.id,
        r.default_severity.as_str(),
        r.summary,
        r.rationale,
        r.example,
        r.id
    ))
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based last line of the finding's region — equal to `line` for
    /// single-line findings; greater when a witnessing path spans lines
    /// (e.g. a leak whose exit sits below its acquire).
    pub end_line: usize,
    /// Rule id.
    pub rule: String,
    /// Effective severity (after `lint.toml` overrides).
    pub severity: Severity,
    /// Human-readable description of this occurrence.
    pub message: String,
}

/// Is the character an identifier constituent?
fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Word-boundary occurrences of the identifier `word` in `line`: the
/// characters on either side must not extend it (`MyHashMap` and
/// `HashMapper` are not `HashMap`).
fn word_hits(line: &str, word: &str) -> usize {
    let bytes = line.as_bytes();
    line.match_indices(word)
        .filter(|&(at, _)| {
            let before = at.checked_sub(1).and_then(|i| bytes.get(i));
            let after = bytes.get(at + word.len());
            !before.is_some_and(|&b| is_ident(b)) && !after.is_some_and(|&b| is_ident(b))
        })
        .count()
}

/// The path-derived scopes a file falls into.
struct FileScope {
    test_path: bool,
    render: bool,
    crate_root: bool,
}

impl FileScope {
    fn classify(path: &str, cfg: &Config) -> FileScope {
        let test_path = path.contains("/tests/")
            || path.contains("/benches/")
            || path.contains("/examples/")
            || path.starts_with("tests/")
            || path.starts_with("examples/");
        FileScope {
            test_path,
            render: Config::path_in(path, &cfg.render_paths),
            crate_root: path.ends_with("src/lib.rs"),
        }
    }
}

/// A `lint:allow` pragma, resolved to the line it suppresses.
pub(crate) struct Allow {
    /// 0-based line whose findings are suppressed.
    pub(crate) target_line: usize,
    pub(crate) rules: Vec<String>,
}

impl Allow {
    /// Does this pragma suppress `rule` on 0-based `line`?
    pub(crate) fn covers(&self, line: usize, rule: &str) -> bool {
        self.target_line == line && self.rules.iter().any(|r| r == rule)
    }
}

/// Extract the justified `lint:allow` pragmas of a file without emitting
/// pragma-hygiene findings (those were already reported by the per-file
/// pass); used by the interprocedural analyses for site suppression.
pub(crate) fn file_allows(path: &str, src: &ScrubbedSource, cfg: &Config) -> Vec<Allow> {
    let mut sink = Vec::new();
    let code_lines = src.code_lines();
    let mut allows = collect_allows(path, src, &code_lines, &mut sink, cfg);
    // Findings emitted into `sink` mark malformed pragmas; those never
    // suppress anything, and collect_allows already excluded them.
    allows.sort_by_key(|a| a.target_line);
    allows
}

/// Extract `lint:allow` pragmas and their own findings (missing
/// justification, unknown rule ids).
fn collect_allows(
    path: &str,
    src: &ScrubbedSource,
    code_lines: &[&str],
    findings: &mut Vec<Finding>,
    cfg: &Config,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    let bare_sev = cfg.severity_of(BARE_ALLOW.id, BARE_ALLOW.default_severity);
    for c in &src.comments {
        // A pragma must *lead* the comment ( `// lint:allow(…): why` );
        // prose that merely mentions lint:allow mid-sentence is not one.
        if !c.text.trim_start().starts_with("lint:allow(") {
            continue;
        }
        let Some(open) = c.text.find("lint:allow(") else {
            continue;
        };
        let after = &c.text[open + "lint:allow(".len()..];
        let Some(close) = after.find(')') else {
            if bare_sev != Severity::Allow {
                findings.push(Finding {
                    path: path.to_string(),
                    line: c.line + 1,
                    end_line: c.line + 1,
                    rule: BARE_ALLOW.id.to_string(),
                    severity: bare_sev,
                    message: "malformed lint:allow pragma (unclosed rule list)".to_string(),
                });
            }
            continue;
        };
        let mut rules = Vec::new();
        for raw in after[..close].split(',') {
            let id = raw.trim();
            if id.is_empty() {
                continue;
            }
            if rule_by_id(id).is_none() {
                if bare_sev != Severity::Allow {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: c.line + 1,
                        end_line: c.line + 1,
                        rule: BARE_ALLOW.id.to_string(),
                        severity: bare_sev,
                        message: format!("lint:allow names unknown rule {id:?}"),
                    });
                }
                continue;
            }
            rules.push(id.to_string());
        }
        // A justification is required: non-empty text after the `)`,
        // introduced by `:`, `-`, or an em dash.
        let tail = after[close + 1..]
            .trim_start()
            .trim_start_matches([':', '-', '—'])
            .trim();
        if tail.is_empty() {
            if bare_sev != Severity::Allow {
                findings.push(Finding {
                    path: path.to_string(),
                    line: c.line + 1,
                    end_line: c.line + 1,
                    rule: BARE_ALLOW.id.to_string(),
                    severity: bare_sev,
                    message: "lint:allow pragma without a justification".to_string(),
                });
            }
            continue;
        }
        // Trailing pragma covers its own line; a standalone pragma covers
        // the next line that carries code.
        let target_line = if c.trailing {
            c.line
        } else {
            let mut t = c.line + 1;
            while t < code_lines.len() && code_lines[t].trim().is_empty() {
                t += 1;
            }
            t
        };
        allows.push(Allow { target_line, rules });
    }
    allows
}

/// Lint one Rust source file (already scrubbed by the caller's engine).
pub fn lint_rust(path: &str, src: &ScrubbedSource, cfg: &Config) -> Vec<Finding> {
    let code_lines = src.code_lines();
    let mut findings: Vec<Finding> = Vec::new();
    let scope = FileScope::classify(path, cfg);
    let allows = collect_allows(path, src, &code_lines, &mut findings, cfg);

    let mut push = |rule: &Rule, line0: usize, message: String| {
        let sev = cfg.severity_of(rule.id, rule.default_severity);
        if sev == Severity::Allow {
            return;
        }
        if allows
            .iter()
            .any(|a| a.target_line == line0 && a.rules.iter().any(|r| r == rule.id))
        {
            return;
        }
        findings.push(Finding {
            path: path.to_string(),
            line: line0 + 1,
            end_line: line0 + 1,
            rule: rule.id.to_string(),
            severity: sev,
            message,
        });
    };

    for (line0, line) in code_lines.iter().enumerate() {
        // Determinism: unordered maps in render paths (non-test code).
        if scope.render && !scope.test_path && !src.is_test_line(line0) {
            for needle in ["HashMap", "HashSet"] {
                for _ in 0..word_hits(line, needle) {
                    push(
                        &HASH_ITER,
                        line0,
                        format!("{needle} in a render path; use BTreeMap/sorted collections"),
                    );
                }
            }
        }
    }

    // Crate-root hygiene: one finding per missing attribute.
    if scope.crate_root {
        let normalized: String = src.code.chars().filter(|c| !c.is_whitespace()).collect();
        // `forbid` is the same lint at a stricter level (it cannot be
        // overridden per item), so it satisfies the contract too.
        if !normalized.contains("#![deny(unsafe_code)]")
            && !normalized.contains("#![forbid(unsafe_code)]")
        {
            push(
                &CRATE_ROOT,
                0,
                "crate root missing #![deny(unsafe_code)]".to_string(),
            );
        }
        if !normalized.contains("#![warn(missing_docs") {
            push(
                &CRATE_ROOT,
                0,
                "crate root missing #![warn(missing_docs)]".to_string(),
            );
        }
    }

    findings
}

/// Lint a `Cargo.toml`: every dependency in any `*dependencies*` section
/// must resolve offline — a workspace reference or an explicit `path`.
pub fn lint_manifest(path: &str, text: &str, cfg: &Config) -> Vec<Finding> {
    let sev = cfg.severity_of(OFFLINE_DEPS.id, OFFLINE_DEPS.default_severity);
    if sev == Severity::Allow {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_dep_section = name.trim().trim_matches('"').contains("dependencies");
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        // `foo.workspace = true` and `foo = { workspace = true }` and
        // `foo = { path = "…" }` are offline; a bare version string or a
        // git/registry table is not.
        let offline = key.ends_with(".workspace")
            || value.contains("workspace = true")
            || value.contains("path =")
            || value.contains("path=");
        let looks_like_dep = value.starts_with('"') || value.starts_with('{');
        if looks_like_dep && !offline {
            findings.push(Finding {
                path: path.to_string(),
                line: idx + 1,
                end_line: idx + 1,
                rule: OFFLINE_DEPS.id.to_string(),
                severity: sev,
                message: format!(
                    "dependency {key:?} does not resolve offline (needs workspace/path)"
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    const RENDER: &str = "crates/x/src/render.rs";

    fn cfg() -> Config {
        Config::parse("[paths]\nrender = [\"crates/x/src/render.rs\"]\n").expect("config")
    }

    fn run(path: &str, src: &str) -> Vec<Finding> {
        lint_rust(path, &scrub(src), &cfg())
    }

    #[test]
    fn hash_maps_banned_only_in_render_paths() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run(RENDER, src).len(), 1);
        assert!(run("crates/x/src/a.rs", src).is_empty());
        // Word boundaries: neither name is the banned token.
        assert!(run(RENDER, "struct MyHashMap;\nstruct HashMapper;\n").is_empty());
    }

    #[test]
    fn banned_tokens_in_strings_and_comments_do_not_fire() {
        let src = "// HashMap is banned here\nfn f() -> &'static str { \"HashSet\" }\n";
        assert!(run(RENDER, src).is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(run(RENDER, src).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_justification_only() {
        let ok = "// lint:allow(hash-iter): keyed lookups only, never iterated\nuse std::collections::HashMap;\n";
        assert!(run(RENDER, ok).is_empty());
        let trailing = "use std::collections::HashMap; // lint:allow(hash-iter): fine here\n";
        assert!(run(RENDER, trailing).is_empty());
        let bare = "// lint:allow(hash-iter)\nuse std::collections::HashMap;\n";
        let hits = run(RENDER, bare);
        assert_eq!(
            hits.len(),
            2,
            "bare pragma + unsuppressed finding: {hits:?}"
        );
        assert!(hits.iter().any(|f| f.rule == "bare-allow"));
        // Unknown ids, including rules retired to clippy, suppress nothing.
        for id in ["no-such-rule", "panic-path"] {
            let unknown = format!("// lint:allow({id}): because\nfn f() {{}}\n");
            let hits = run("crates/x/src/a.rs", &unknown);
            assert_eq!(hits.len(), 1, "{id}: {hits:?}");
            assert_eq!(hits[0].rule, "bare-allow");
        }
    }

    #[test]
    fn crate_root_requires_hygiene_attrs() {
        let hits = run("crates/x/src/lib.rs", "//! docs\n#![warn(missing_docs)]\n");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("unsafe_code"));
        let clean = "//! docs\n#![warn(missing_docs)]\n#![deny(unsafe_code)]\n";
        assert!(run("crates/x/src/lib.rs", clean).is_empty());
    }

    #[test]
    fn manifest_rule_flags_registry_and_git_deps() {
        let cfg = cfg();
        let bad = "[dependencies]\nserde = \"1.0\"\nrayon = { version = \"1.8\" }\nok = { path = \"vendor/ok\" }\nws.workspace = true\n";
        let hits = lint_manifest("Cargo.toml", bad, &cfg);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|f| f.rule == "offline-deps"));
        let good = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n[dependencies]\na = { path = \"../a\" }\nb.workspace = true\n[dev-dependencies]\nc = { workspace = true, features = [\"f\"] }\n";
        assert!(lint_manifest("Cargo.toml", good, &cfg).is_empty());
    }

    #[test]
    fn severity_override_to_warn_and_allow() {
        let mut c = cfg();
        let src = scrub("use std::collections::HashMap;\n");
        c.severity.insert("hash-iter".into(), Severity::Warn);
        let hits = lint_rust(RENDER, &src, &c);
        assert_eq!(hits[0].severity, Severity::Warn);
        c.severity.insert("hash-iter".into(), Severity::Allow);
        assert!(lint_rust(RENDER, &src, &c).is_empty());
    }
}
