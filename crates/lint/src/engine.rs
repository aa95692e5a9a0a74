//! Workspace walker and rule dispatcher.
//!
//! The engine walks every `.rs` file under the workspace root
//! (deterministically: directory entries are sorted, the configured skip
//! list plus `target/` and dot-directories are pruned), scrubs each file,
//! checks its `lint:allow` pragmas, then feeds the collected items into
//! the interprocedural analyses (dead-pub, concurrency, lifecycle). Findings come back sorted by
//! `(path, line, rule)` so output is stable across platforms and thread
//! counts. [`lint_workspace_with_overrides`] lets tests replace
//! individual file contents in memory — that is how the injected-fault
//! meta-tests prove a lock inversion or a naked condvar wait is caught
//! under the real workspace configuration.

use crate::analyses::{self, SourceFile};
use crate::config::{Config, Severity};
use crate::items;
use crate::rules::{self, Finding};
use crate::scrub;
use std::path::{Path, PathBuf};

/// Walk `root` and lint the whole workspace: pragma hygiene plus the
/// interprocedural analyses. Returns findings sorted by
/// `(path, line, rule)`. I/O problems are reported as strings (path +
/// error) rather than panics.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    lint_workspace_with_overrides(root, cfg, &[])
}

/// [`lint_workspace`], but with some file contents replaced in memory.
/// `overrides` maps workspace-relative paths to replacement text; a path
/// that does not exist on disk is linted as a new file. This is the
/// fault-injection surface for the meta-tests: inject a lock inversion or
/// a blocking call into real modules without touching the tree.
pub fn lint_workspace_with_overrides(
    root: &Path,
    cfg: &Config,
    overrides: &[(String, String)],
) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_files(root, root, cfg, &mut files)?;
    for (rel, _) in overrides {
        if !files.contains(rel) && !Config::path_in(rel, &cfg.skip) {
            files.push(rel.clone());
        }
    }
    files.sort();
    files.dedup();

    let mut findings = Vec::new();
    let mut sources: Vec<SourceFile> = Vec::new();
    for rel in &files {
        let content = match overrides.iter().find(|(p, _)| p == rel) {
            Some((_, text)) => text.clone(),
            None => {
                let full = root.join(rel);
                std::fs::read_to_string(&full).map_err(|e| format!("{}: {e}", full.display()))?
            }
        };
        let src = scrub::scrub(&content);
        findings.extend(rules::pragmas(rel, &src, cfg).1);
        let collected = items::collect_items(&src);
        sources.push(SourceFile {
            path: rel.clone(),
            src,
            items: collected,
        });
    }
    findings.extend(analyses::run(&sources, cfg)?);
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    Ok(findings)
}

/// Count findings at `deny` severity — the run fails iff this is nonzero.
pub fn deny_count(findings: &[Finding]) -> usize {
    findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count()
}

/// Recursively collect `.rs` files as `/`-separated paths relative to
/// `root`, pruning the skip list, `target/`, and dot-directories.
fn collect_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            if name == "target" || Config::path_in(&rel, &cfg.skip) {
                continue;
            }
            collect_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") && !Config::path_in(&rel, &cfg.skip) {
            out.push(rel);
        }
    }
    Ok(())
}

/// Locate the workspace root: the nearest ancestor of `start` holding a
/// `lint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("lint.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_counting_respects_severity() {
        let finding = |severity| Finding {
            path: "crates/a/src/f.rs".into(),
            line: 1,
            end_line: 1,
            rule: "dead-pub".into(),
            severity,
            message: String::new(),
        };
        let fs = [finding(Severity::Warn), finding(Severity::Deny)];
        assert_eq!(deny_count(&fs), 1);
    }
}
