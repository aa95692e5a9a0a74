//! Meta-tests: fault injection through `lint_workspace_with_overrides`.
//!
//! Each test replaces one real workspace file *in memory* with a version
//! carrying a defect only the interprocedural analyses can see — a lock
//! inversion split across a call boundary, a guard held across a socket
//! write — and asserts the lint run under the real checked-in `lint.toml`
//! reports it. This is the regression harness for the analyses
//! themselves: if conservative call resolution ever loses an edge, these
//! findings disappear.

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
fn unpatched_workspace_has_no_injected_findings() {
    // Sanity check for the injection tests above: the findings they assert on
    // must come from the injection, not from the tree.
    let root = workspace_root();
    let cfg = workspace_config(&root);
    let findings = lint_workspace_with_overrides(&root, &cfg, &[]).expect("lint run");
    assert!(findings.iter().all(|f| !f.message.contains("injected_")));
}
