//! Integration tests over the fixture corpus in `tests/fixtures/` — one
//! miniature workspace whose files each trip (or deliberately dodge) one
//! rule — plus the meta-test that the real workspace is lint-clean under
//! the checked-in `lint.toml`.

use dynamips_lint::{deny_count, lint_workspace, parse_json, to_json, Config, Finding, ALL_RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn lint_fixtures() -> Vec<Finding> {
    let root = fixture_root();
    let cfg_text = std::fs::read_to_string(root.join("lint.toml")).expect("fixture lint.toml");
    let cfg = Config::parse(&cfg_text).expect("fixture config parses");
    lint_workspace(&root, &cfg).expect("fixture corpus lints")
}

/// Every rule fires on the corpus, with exactly the counts the fixture
/// headers promise.
#[test]
fn fixture_corpus_trips_every_rule() {
    let findings = lint_fixtures();
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &findings {
        *by_rule.entry(f.rule.as_str()).or_default() += 1;
    }
    let expected: &[(&str, usize)] = &[
        ("bare-allow", 4),
        ("blocking-in-reactor", 1),
        ("condvar-wait-loop", 1),
        ("dead-pub", 1),
        ("lock-across-blocking", 1),
        ("lock-order", 1),
        ("unbounded-growth", 1),
    ];
    let got: Vec<(&str, usize)> = by_rule.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, expected, "full findings: {findings:#?}");
    for rule in ALL_RULES {
        assert!(
            by_rule.contains_key(rule.id),
            "rule {:?} never fired on the corpus",
            rule.id
        );
    }
    assert_eq!(
        deny_count(&findings),
        findings.len(),
        "all defaults are deny"
    );
}

/// The interprocedural findings report the shortest call chain from the
/// root to the offending site — the acceptance scenario for the
/// call-graph analyses. The reactor chain runs through a fn whose
/// signature takes `impl FnMut`, which the item collector must keep in
/// the graph.
#[test]
fn fixture_chains_are_reported() {
    let findings = lint_fixtures();
    let reactor: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "blocking-in-reactor")
        .collect();
    assert_eq!(reactor.len(), 1, "{reactor:#?}");
    assert_eq!(reactor[0].path, "src/locks.rs");
    assert!(
        reactor[0]
            .message
            .contains("reactor_loop → dispatch → backoff"),
        "{}",
        reactor[0].message
    );
    let dead: Vec<&Finding> = findings.iter().filter(|f| f.rule == "dead-pub").collect();
    assert_eq!(dead.len(), 1, "{dead:#?}");
    assert!(
        dead[0].message.contains("orphan_helper"),
        "{}",
        dead[0].message
    );
}

/// The clean fixtures — justified pragmas, look-alike tokens in
/// strings/comments/tests — produce no findings at all.
#[test]
fn clean_fixtures_stay_clean() {
    let findings = lint_fixtures();
    for clean in ["src/lib.rs", "src/suppressed.rs", "src/tricky.rs"] {
        let hits: Vec<&Finding> = findings.iter().filter(|f| f.path == clean).collect();
        assert!(hits.is_empty(), "{clean} should be clean: {hits:#?}");
    }
}

/// The meta-test: the workspace itself, under the checked-in `lint.toml`,
/// has zero deny-severity findings — exactly what CI enforces. Any
/// regression — a lock-order cycle, a blocking call on a reactor path,
/// an unjustified pragma — fails this test.
#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let cfg_text = std::fs::read_to_string(root.join("lint.toml")).expect("workspace lint.toml");
    let outcome =
        dynamips_lint::run(&root, &cfg_text, dynamips_lint::Format::Text).expect("workspace lints");
    assert_eq!(
        outcome.denies, 0,
        "workspace has deny findings:\n{}",
        outcome.report
    );
}

/// The JSON report of the whole corpus round-trips losslessly.
#[test]
fn fixture_report_round_trips_through_json() {
    let findings = lint_fixtures();
    let json = to_json(&findings);
    assert!(json.contains("\"schema\": \"dynamips-lint-v2\""));
    let back = parse_json(&json).expect("report parses");
    assert_eq!(back, findings);
}
