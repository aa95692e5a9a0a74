//! Meta-tests: fault injection through `lint_workspace_with_overrides`.
//!
//! Each test replaces one real workspace file *in memory* with a version
//! carrying a defect only the interprocedural analyses can see — a
//! wall-clock read two calls behind a renderer, a lock inversion split
//! across a call boundary — and asserts the lint run under the real
//! checked-in `lint.toml` reports it with the full call chain. This is
//! the regression harness for the analyses themselves: if conservative
//! call resolution ever loses an edge, these chains disappear.

use dynamips_lint::engine::{find_root, lint_workspace_with_overrides};
use dynamips_lint::Config;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn workspace_config(root: &std::path::Path) -> Config {
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("read lint.toml");
    Config::parse(&text).expect("parse lint.toml")
}

#[test]
fn injected_wall_clock_two_calls_from_a_renderer_is_tainted() {
    let root = workspace_root();
    let cfg = workspace_config(&root);

    // crates/core/src/report.rs is a declared determinism sink. Append a
    // renderer whose helper's helper reads the wall clock: the taint must
    // travel both call edges back to the pub entry point.
    let sink = "crates/core/src/report.rs";
    let mut patched = std::fs::read_to_string(root.join(sink)).expect("read sink file");
    patched.push_str(concat!(
        "\npub fn injected_render() -> String {\n",
        "    injected_fmt()\n",
        "}\n",
        "\nfn injected_fmt() -> String {\n",
        "    injected_stamp()\n",
        "}\n",
        "\nfn injected_stamp() -> String {\n",
        "    let t = std::time::Instant::now();\n",
        "    format!(\"{:?}\", t.elapsed())\n",
        "}\n",
    ));

    let findings = lint_workspace_with_overrides(&root, &cfg, &[(sink.to_string(), patched)])
        .expect("lint run");
    assert!(
        findings.iter().any(|f| {
            f.rule == "determinism-taint"
                && f.message
                    .contains("injected_render → injected_fmt → injected_stamp")
        }),
        "determinism taint missed the injected wall-clock read; taint findings: {:#?}",
        findings
            .iter()
            .filter(|f| f.rule == "determinism-taint")
            .collect::<Vec<_>>()
    );
}

#[test]
fn injected_abba_inversion_across_a_call_boundary_is_caught() {
    let root = workspace_root();
    let cfg = workspace_config(&root);

    // Two opposite lock orders, each split across a call boundary: no
    // single function body contains both acquisitions, so only the
    // propagated held-lock sets can close the cycle.
    let target = "crates/serve/src/server.rs";
    let mut patched = std::fs::read_to_string(root.join(target)).expect("read server.rs");
    patched.push_str(concat!(
        "\nfn injected_ab(iva: &std::sync::Mutex<u32>, ivb: &std::sync::Mutex<u32>) {\n",
        "    let _g = iva.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n",
        "    injected_take_b(ivb);\n",
        "}\n",
        "\nfn injected_take_b(ivb: &std::sync::Mutex<u32>) {\n",
        "    let _g = ivb.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n",
        "}\n",
        "\nfn injected_ba(iva: &std::sync::Mutex<u32>, ivb: &std::sync::Mutex<u32>) {\n",
        "    let _g = ivb.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n",
        "    injected_take_a(iva);\n",
        "}\n",
        "\nfn injected_take_a(iva: &std::sync::Mutex<u32>) {\n",
        "    let _g = iva.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n",
        "}\n",
    ));

    let findings = lint_workspace_with_overrides(&root, &cfg, &[(target.to_string(), patched)])
        .expect("lint run");
    assert!(
        findings.iter().any(|f| {
            f.rule == "lock-order"
                && f.message.contains("iva")
                && f.message.contains("ivb")
                && f.message.contains("injected_take_b")
        }),
        "lock-order missed the injected ABBA inversion; lock-order findings: {:#?}",
        findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .collect::<Vec<_>>()
    );
}

#[test]
fn injected_guard_across_socket_write_is_caught() {
    let root = workspace_root();
    let cfg = workspace_config(&root);

    // reactor.rs is NOT in [paths] blocking-allowed, so a guard held
    // across write_all (which can park on a full socket buffer) must
    // surface.
    let target = "crates/serve/src/reactor.rs";
    let mut patched = std::fs::read_to_string(root.join(target)).expect("read reactor.rs");
    patched.push_str(concat!(
        "\nfn injected_flush(ivm: &std::sync::Mutex<u32>, ivs: &mut std::net::TcpStream) {\n",
        "    use std::io::Write;\n",
        "    let _g = ivm.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n",
        "    let _ = ivs.write_all(b\"x\");\n",
        "}\n",
    ));

    let findings = lint_workspace_with_overrides(&root, &cfg, &[(target.to_string(), patched)])
        .expect("lint run");
    assert!(
        findings.iter().any(|f| {
            f.rule == "lock-across-blocking"
                && f.path == target
                && f.message.contains("write_all")
                && f.message.contains("injected_flush")
        }),
        "lock-across-blocking missed the injected guard-across-write; findings: {:#?}",
        findings
            .iter()
            .filter(|f| f.rule == "lock-across-blocking")
            .collect::<Vec<_>>()
    );
}

#[test]
fn injected_unlooped_condvar_wait_is_caught() {
    let root = workspace_root();
    let cfg = workspace_config(&root);

    let target = "crates/chaos/src/net.rs";
    let mut patched = std::fs::read_to_string(root.join(target)).expect("read net.rs");
    patched.push_str(concat!(
        "\nfn injected_naked_wait(ivm: &std::sync::Mutex<bool>, ivc: &std::sync::Condvar) {\n",
        "    let g = ivm.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n",
        "    let _g = ivc.wait(g);\n",
        "}\n",
    ));

    let findings = lint_workspace_with_overrides(&root, &cfg, &[(target.to_string(), patched)])
        .expect("lint run");
    assert!(
        findings.iter().any(|f| {
            f.rule == "condvar-wait-loop"
                && f.path == target
                && f.message.contains("injected_naked_wait")
        }),
        "condvar-wait-loop missed the injected naked wait; findings: {:#?}",
        findings
            .iter()
            .filter(|f| f.rule == "condvar-wait-loop")
            .collect::<Vec<_>>()
    );
}

#[test]
fn injected_leaked_epoll_registration_is_caught() {
    let root = workspace_root();
    let cfg = workspace_config(&root);

    // The workspace declares `Poller::add -> Poller::remove` as a
    // lifecycle pair. Splice a helper into the reactor that bails out
    // between the add and the remove: the path-sensitive leak check must
    // flag the early return. (The component check alone would not — the
    // `Registration` guard's Drop releases this pair workspace-wide.)
    let target = "crates/serve/src/reactor.rs";
    let mut patched = std::fs::read_to_string(root.join(target)).expect("read reactor.rs");
    patched.push_str(concat!(
        "\nfn injected_watch_briefly(poller: &Poller, fd: i32, bail: bool) -> io::Result<()> {\n",
        "    poller.add(fd, Interest::READ, 99)?;\n",
        "    if bail {\n",
        "        return Ok(());\n",
        "    }\n",
        "    poller.remove(fd)\n",
        "}\n",
    ));

    let findings = lint_workspace_with_overrides(&root, &cfg, &[(target.to_string(), patched)])
        .expect("lint run");
    assert!(
        findings.iter().any(|f| {
            f.rule == "resource-leak"
                && f.path == target
                && f.message.contains("injected_watch_briefly")
                && f.message.contains("return")
        }),
        "resource-leak missed the injected leaked registration; findings: {:#?}",
        findings
            .iter()
            .filter(|f| f.rule == "resource-leak")
            .collect::<Vec<_>>()
    );
}

#[test]
fn injected_raw_gauge_bump_outside_wrappers_is_caught() {
    let root = workspace_root();
    let cfg = workspace_config(&root);

    // `queue_depth` is a declared gauge: raw atomic bumps are sanctioned
    // only inside `queue_enter`/`queue_leave`. An unpaired fetch_add
    // anywhere else must surface even though the wrappers themselves
    // stay balanced.
    let target = "crates/serve/src/metrics.rs";
    let mut patched = std::fs::read_to_string(root.join(target)).expect("read metrics.rs");
    patched.push_str(concat!(
        "\nfn injected_orphan_enter(m: &Metrics) {\n",
        "    m.queue_depth.fetch_add(1, Ordering::Relaxed);\n",
        "}\n",
    ));

    let findings = lint_workspace_with_overrides(&root, &cfg, &[(target.to_string(), patched)])
        .expect("lint run");
    assert!(
        findings.iter().any(|f| {
            f.rule == "gauge-balance"
                && f.path == target
                && f.message.contains("injected_orphan_enter")
                && f.message.contains("queue_depth")
        }),
        "gauge-balance missed the injected raw bump; findings: {:#?}",
        findings
            .iter()
            .filter(|f| f.rule == "gauge-balance")
            .collect::<Vec<_>>()
    );
}

#[test]
fn unpatched_workspace_has_no_injected_findings() {
    // Sanity check for the injection tests above: the findings they assert on
    // must come from the injection, not from the tree.
    let root = workspace_root();
    let cfg = workspace_config(&root);
    let findings = lint_workspace_with_overrides(&root, &cfg, &[]).expect("lint run");
    assert!(findings.iter().all(|f| !f.message.contains("injected_")));
}
