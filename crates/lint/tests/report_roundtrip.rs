//! JSON reporter round-trip tests and the golden file pinning the
//! `dynamips-lint-v2` document layout.
//!
//! The build is offline (no serde), so the writer and parser in
//! `report.rs` are hand-rolled; these tests pin the escaping rules on
//! the paths CI actually produces — spaces, quotes, backslashes,
//! non-ASCII — and freeze the byte-exact layout external tooling parses.
//! Run with `UPDATE_GOLDENS=1` to regenerate the golden files in place
//! after a deliberate layout change.

use dynamips_lint::{parse_json, to_json, to_sarif, Finding, Severity, LINT_SCHEMA};

fn finding(path: &str, line: usize, rule: &str, severity: Severity, message: &str) -> Finding {
    Finding {
        path: path.into(),
        line,
        end_line: line,
        rule: rule.into(),
        severity,
        message: message.into(),
    }
}

/// With `UPDATE_GOLDENS=1`, rewrite the golden at `name` and return true
/// (skipping the comparison); otherwise leave it alone.
fn maybe_update_golden(name: &str, content: &str) -> bool {
    if std::env::var("UPDATE_GOLDENS").is_err() {
        return false;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::write(path, content).expect("write golden");
    true
}

#[test]
fn roundtrip_survives_awkward_paths_and_messages() {
    let findings = vec![
        finding(
            "crates/a b/src/l ib.rs",
            3,
            "wall-clock",
            Severity::Deny,
            "a path with spaces",
        ),
        finding(
            "crates/x/src/\"quoted\".rs",
            1,
            "panic-path",
            Severity::Warn,
            "she said \"don't\"",
        ),
        finding(
            "crates/ünïcødé/src/lib.rs",
            42,
            "dead-pub",
            Severity::Deny,
            "non-ASCII survives — naïve café",
        ),
        finding(
            "crates\\win\\style.rs",
            7,
            "lock-order",
            Severity::Warn,
            "back\\slash, a\nnewline, and a\ttab",
        ),
        finding(
            "crates/ctrl.rs",
            9,
            "unseeded-rng",
            Severity::Deny,
            "a control\u{1}character",
        ),
    ];
    let json = to_json(&findings);
    let parsed = parse_json(&json).expect("reparse our own document");
    assert_eq!(parsed, findings);
}

#[test]
fn roundtrip_of_the_empty_report() {
    let json = to_json(&[]);
    assert!(json.contains(LINT_SCHEMA));
    assert_eq!(parse_json(&json).expect("reparse"), Vec::new());
}

#[test]
fn roundtrip_is_a_fixed_point() {
    let findings = vec![finding(
        "crates/core/src/report.rs",
        5,
        "wall-clock",
        Severity::Deny,
        "quote \" backslash \\ done",
    )];
    let once = to_json(&findings);
    let twice = to_json(&parse_json(&once).expect("reparse"));
    assert_eq!(once, twice);
}

/// The golden file freezes the `dynamips-lint-v2` layout byte for byte.
/// If this fails, the schema changed: bump [`LINT_SCHEMA`] and regenerate
/// the golden file rather than silently breaking report consumers.
#[test]
fn golden_file_pins_the_v2_document() {
    let mut findings = vec![
        finding(
            "crates/core/src/report.rs",
            12,
            "wall-clock",
            Severity::Deny,
            "Instant::now() in an artifact path",
        ),
        finding(
            "crates/serve/src/reactor.rs",
            8,
            "unbounded-growth",
            Severity::Warn,
            "`push` grows `pending` on a long-running path with no reachable cap or eviction: run_loop → accept_ready",
        ),
    ];
    // The first finding spans a region (v2's end_line), the second is a
    // single line (end_line == line).
    findings[0].end_line = 15;
    let json = to_json(&findings);
    if !maybe_update_golden("lint-report-v2.json", &json) {
        let golden = include_str!("golden/lint-report-v2.json");
        assert_eq!(
            json, golden,
            "dynamips-lint-v2 layout changed; bump LINT_SCHEMA and regenerate tests/golden/lint-report-v2.json"
        );
    }
    assert!(json.contains(&format!("\"schema\": \"{LINT_SCHEMA}\"")));
    assert_eq!(parse_json(&json).expect("reparse"), findings);
}

/// The SARIF golden file freezes the 2.1.0 log layout byte for byte —
/// including the full rule catalogue in the driver block (so adding a
/// rule forces a conscious regeneration) and one concurrency finding,
/// pinning the message shape annotation tooling keys on. Regenerate with
/// `to_sarif` rather than editing by hand.
#[test]
fn sarif_golden_pins_the_layout() {
    let mut findings = vec![finding(
        "crates/serve/src/reactor.rs",
        221,
        "lock-across-blocking",
        Severity::Deny,
        "Mutex::lock guard `conns` (taken line 218) held across blocking call `write_all` in Reactor::flush",
    )];
    // The finding spans a region, pinning the endLine field in the log.
    findings[0].end_line = 224;
    let sarif = to_sarif(&findings);
    if !maybe_update_golden("lint-report.sarif", &sarif) {
        let golden = include_str!("golden/lint-report.sarif");
        assert_eq!(
            sarif, golden,
            "SARIF layout changed; regenerate tests/golden/lint-report.sarif from to_sarif"
        );
    }
    let golden = to_sarif(&findings);
    for rule in dynamips_lint::ALL_RULES {
        assert!(
            golden.contains(&format!("\"id\": \"{}\"", rule.id)),
            "driver catalogue is missing rule {:?}",
            rule.id
        );
    }
}
