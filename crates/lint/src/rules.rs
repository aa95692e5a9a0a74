//! The rule set: the invariants the workspace enforces mechanically that
//! neither cargo nor clippy can check.
//!
//! The per-file guarantees belong to the toolchain: clippy lints set in
//! `clippy.toml` and on the crate roots (no wall clock, stray threads or
//! unordered maps outside a reasoned `#[allow]`, panic-freedom in every
//! crate a binary links, no printing libraries, the exit-code contract,
//! slice indexing in ingest parsers, SAFETY comments), the workspace
//! `[lints]` table (`unsafe_code`, `missing_docs`), rustc privacy (only
//! the RAII guards can add or remove an epoll registration or move a
//! serving gauge), and cargo's offline, locked dependency resolution.
//! What stays here are the whole-program rules of [`crate::analyses`],
//! which need the call graph, plus one meta rule: pragma hygiene
//! ([`BARE_ALLOW`]).
//!
//! Findings are suppressed line-by-line with
//! `// lint:allow(<rule>): <justification>` pragmas; a pragma without a
//! justification, or naming a rule that does not exist (retired ones
//! included), is itself a finding.

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

/// Meta: `lint:allow` pragmas must carry a justification.
pub const BARE_ALLOW: Rule = Rule {
    id: "bare-allow",
    default_severity: Severity::Deny,
    summary: "lint:allow pragma without a justification (or naming an unknown rule)",
    rationale: "A suppression is a reviewed exception; without a written reason it is just a \
                disabled rule, and an unknown rule id means the pragma suppresses nothing.",
    example: "crates/core/src/stats.rs:91: lint:allow pragma without a justification",
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

/// Every rule, for docs, pragma validation, and `--list-rules` output.
pub const ALL_RULES: [Rule; 7] = [
    BARE_ALLOW,
    DEAD_PUB,
    LOCK_ORDER,
    LOCK_ACROSS_BLOCKING,
    BLOCKING_IN_REACTOR,
    CONDVAR_WAIT_LOOP,
    UNBOUNDED_GROWTH,
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
    /// 1-based last line of the finding's region. Every rule reports a
    /// single site, so this equals `line`; the `dynamips-lint-v2` report
    /// and the SARIF region carry it.
    pub end_line: usize,
    /// Rule id.
    pub rule: String,
    /// Effective severity (after `lint.toml` overrides).
    pub severity: Severity,
    /// Human-readable description of this occurrence.
    pub message: String,
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

/// Parse the `lint:allow` pragmas of one file: the justified ones, sorted
/// by the line they cover, plus a [`BARE_ALLOW`] finding for each pragma
/// that is malformed, unjustified or names an unknown rule. Those never
/// suppress anything.
pub(crate) fn pragmas(
    path: &str,
    src: &ScrubbedSource,
    cfg: &Config,
) -> (Vec<Allow>, Vec<Finding>) {
    let code_lines = src.code_lines();
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    let bare_sev = cfg.severity_of(BARE_ALLOW.id, BARE_ALLOW.default_severity);
    let mut bad = |line0: usize, message: String| {
        if bare_sev != Severity::Allow {
            findings.push(Finding {
                path: path.to_string(),
                line: line0 + 1,
                end_line: line0 + 1,
                rule: BARE_ALLOW.id.to_string(),
                severity: bare_sev,
                message,
            });
        }
    };
    for c in &src.comments {
        // A pragma must *lead* the comment ( `// lint:allow(…): why` );
        // prose that merely mentions lint:allow mid-sentence is not one.
        let Some(after) = c.text.trim_start().strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = after.find(')') else {
            bad(
                c.line,
                "malformed lint:allow pragma (unclosed rule list)".to_string(),
            );
            continue;
        };
        let mut rules = Vec::new();
        for id in after[..close]
            .split(',')
            .map(str::trim)
            .filter(|id| !id.is_empty())
        {
            if rule_by_id(id).is_some() {
                rules.push(id.to_string());
            } else {
                bad(c.line, format!("lint:allow names unknown rule {id:?}"));
            }
        }
        // A justification is required: non-empty text after the `)`,
        // introduced by `:`, `-`, or an em dash.
        let tail = after[close + 1..]
            .trim_start()
            .trim_start_matches([':', '-', '—'])
            .trim();
        if tail.is_empty() {
            bad(
                c.line,
                "lint:allow pragma without a justification".to_string(),
            );
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
    allows.sort_by_key(|a| a.target_line);
    (allows, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn run(src: &str, cfg: &Config) -> (Vec<Allow>, Vec<Finding>) {
        pragmas("crates/x/src/a.rs", &scrub(src), cfg)
    }

    #[test]
    fn justified_pragmas_cover_their_target_line() {
        let cfg = Config::default();
        let src = "// lint:allow(lock-order): checked above\n\nlet a = 1;\nlet b = 2; // lint:allow(dead-pub, lock-order): fine here\n";
        let (allows, findings) = run(src, &cfg);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(allows.len(), 2);
        // Standalone: the next line carrying code, past the blank one.
        assert!(allows[0].covers(2, "lock-order"));
        assert!(!allows[0].covers(2, "dead-pub"));
        // Trailing: its own line, every rule it names.
        assert!(allows[1].covers(3, "dead-pub") && allows[1].covers(3, "lock-order"));
    }

    #[test]
    fn bare_and_unknown_pragmas_suppress_nothing() {
        let cfg = Config::default();
        let (allows, findings) = run("// lint:allow(dead-pub)\npub fn f() {}\n", &cfg);
        assert!(allows.is_empty());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(
            findings[0].message,
            "lint:allow pragma without a justification"
        );
        // Unknown ids, including rules retired to rustc, clippy and cargo,
        // are findings; the pragma covers only the known ids it names.
        for id in [
            "no-such-rule",
            "panic-path",
            "panic-reach",
            "stale-baseline",
            "hash-iter",
            "crate-root",
            "offline-deps",
            "determinism-taint",
            "resource-leak",
            "drop-order",
            "gauge-balance",
        ] {
            let (allows, findings) = run(
                &format!("// lint:allow({id}): because\nfn f() {{}}\n"),
                &cfg,
            );
            assert!(allows.iter().all(|a| a.rules.is_empty()), "{id}");
            assert_eq!(findings.len(), 1, "{id}: {findings:?}");
            assert_eq!(findings[0].rule, "bare-allow");
            assert_eq!(findings[0].line, 1);
        }
        // Prose mentioning the syntax mid-comment is not a pragma.
        let (allows, findings) = run("// see lint:allow(x) in the docs\n", &cfg);
        assert!(allows.is_empty() && findings.is_empty());
    }

    #[test]
    fn severity_override_to_warn_and_allow() {
        let mut cfg = Config::default();
        let src = "// lint:allow(no-such-rule): because\n";
        cfg.severity.insert("bare-allow".into(), Severity::Warn);
        assert_eq!(run(src, &cfg).1[0].severity, Severity::Warn);
        cfg.severity.insert("bare-allow".into(), Severity::Allow);
        assert!(run(src, &cfg).1.is_empty());
    }
}
