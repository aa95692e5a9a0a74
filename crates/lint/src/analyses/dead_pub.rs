//! Dead-pub: `pub` items in the audited crates that no other crate ever
//! references.
//!
//! `pub` is a promise — it widens the API surface other crates may grow
//! to depend on, and it exempts the item from rustc's dead-code lint. An
//! item that nothing outside its own crate names is either internal (make
//! it `pub(crate)` so the compiler resumes watching it) or genuinely dead
//! (remove it). The reference scan is name-based over scrubbed code, so
//! doc prose and string literals never count as uses; a file in the same
//! crate's `tests/`/`benches/`/`examples/` directories counts as an
//! *external* reference, because integration tests consume the crate
//! through its public API exactly like a foreign crate would. Name
//! collisions across crates make the scan conservative: a shared name is
//! treated as referenced, never falsely flagged.

use super::{is_test_path, site_allowed, SourceFile};
use crate::config::{Config, Severity};
use crate::rules::{Allow, Finding, DEAD_PUB};
use std::collections::BTreeMap;

/// The crate-directory prefix a file belongs to (`crates/<name>` or the
/// root crate, `""`).
fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return &path[..("crates/".len() + slash)];
        }
    }
    ""
}

/// Word-boundary occurrence of `name` anywhere in `code`.
fn mentions_word(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(name) {
        let at = from + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after_ok = bytes
            .get(at + name.len())
            .is_none_or(|&b| !(b.is_ascii_alphanumeric() || b == b'_'));
        if before_ok && after_ok {
            return true;
        }
        from = at + name.len();
    }
    false
}

/// Run the analysis over every file under the configured `dead-pub`
/// prefixes.
pub(crate) fn run(
    files: &[SourceFile],
    cfg: &Config,
    allows: &BTreeMap<&str, Vec<Allow>>,
) -> Vec<Finding> {
    let sev = cfg.severity_of(DEAD_PUB.id, DEAD_PUB.default_severity);
    if sev == Severity::Allow || cfg.dead_pub.is_empty() {
        return Vec::new();
    }

    let mut findings = Vec::new();
    for f in files {
        if !Config::path_in(&f.path, &cfg.dead_pub) || is_test_path(&f.path) {
            continue;
        }
        let own_crate = crate_of(&f.path);
        for item in &f.items.pubs {
            if f.src.is_test_line(item.line) {
                continue;
            }
            if site_allowed(allows, &f.path, item.line, DEAD_PUB.id) {
                continue;
            }
            let referenced_externally = files.iter().any(|other| {
                let external = crate_of(&other.path) != own_crate || is_test_path(&other.path);
                external && mentions_word(&other.src.code, &item.name)
            });
            if !referenced_externally {
                let crate_label = if own_crate.is_empty() {
                    "the root crate".to_string()
                } else {
                    format!("`{own_crate}`")
                };
                findings.push(Finding {
                    path: f.path.clone(),
                    line: item.line + 1,
                    end_line: item.line + 1,
                    rule: DEAD_PUB.id.to_string(),
                    severity: sev,
                    message: format!(
                        "pub {} `{}` never referenced outside {crate_label}; make it pub(crate) or remove it",
                        item.kind, item.name
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::collect_items;
    use crate::scrub::scrub;

    fn run_dead(specs: &[(&str, &str)], cfg_text: &str) -> Vec<Finding> {
        let files: Vec<SourceFile> = specs
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
            .collect();
        let cfg = Config::parse(cfg_text).expect("cfg");
        super::super::run(&files, &cfg)
            .expect("runs")
            .into_iter()
            .filter(|f| f.rule == DEAD_PUB.id)
            .collect()
    }

    #[test]
    fn unreferenced_pub_item_is_flagged_referenced_is_not() {
        let found = run_dead(
            &[
                (
                    "crates/core/src/lib.rs",
                    "pub fn used_elsewhere() {}\npub fn orphan() {}\n",
                ),
                (
                    "crates/experiments/src/lib.rs",
                    "pub fn go() { dynamips_core::used_elsewhere(); }\n",
                ),
            ],
            "[interprocedural]\ndead-pub = [\"crates/core/src\"]\n",
        );
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].message.contains("`orphan`"));
    }

    #[test]
    fn integration_tests_count_as_external_references() {
        let found = run_dead(
            &[
                ("crates/core/src/lib.rs", "pub fn tested_only() {}\n"),
                (
                    "crates/core/tests/it.rs",
                    "fn t() { dynamips_core::tested_only(); }\n",
                ),
            ],
            "[interprocedural]\ndead-pub = [\"crates/core/src\"]\n",
        );
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_count() {
        let found = run_dead(
            &[
                ("crates/core/src/lib.rs", "pub fn orphan() {}\n"),
                (
                    "crates/cdn/src/lib.rs",
                    "// orphan is mentioned in prose only\npub fn f() -> &'static str { \"orphan\" }\n",
                ),
            ],
            "[interprocedural]\ndead-pub = [\"crates/core/src\"]\n",
        );
        assert_eq!(found.len(), 1, "{found:#?}");
    }

    #[test]
    fn allow_pragma_suppresses() {
        let found = run_dead(
            &[(
                "crates/core/src/lib.rs",
                "// lint:allow(dead-pub): staged API for the next PR\npub fn future() {}\n",
            )],
            "[interprocedural]\ndead-pub = [\"crates/core/src\"]\n",
        );
        assert!(found.is_empty(), "{found:#?}");
    }
}
