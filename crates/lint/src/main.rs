//! `dynamips-lint` — standalone workspace invariant checker.
//!
//! ```text
//! dynamips-lint [--format text|json|sarif] [--config lint.toml] [--root DIR]
//!               [--no-baseline] [--write-baseline] [--list-rules]
//!               [--explain RULE]
//! ```
//!
//! Exit codes: `0` clean, `1` at least one deny-severity finding, `2`
//! usage or configuration error — the same contract as `dynamips`.

// Panic-freedom, as in the library crate (tests are exempt via
// clippy.toml); a binary may print.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use dynamips_lint::{run, Baseline, Config, Format, ALL_RULES, BASELINE_FILE};
use std::path::PathBuf;

/// The nonzero exit codes; success is returning from `main`.
enum Exit {
    /// A run with deny-severity findings.
    Findings = 1,
    /// A usage or configuration error.
    Usage = 2,
}

/// Terminate with `code`: the binary's only call to `process::exit`.
#[allow(
    clippy::disallowed_methods,
    reason = "the binary's single exit point; its codes are `Exit` variants"
)]
fn exit(code: Exit) -> ! {
    std::process::exit(code as i32)
}

fn usage() -> ! {
    eprintln!(
        "usage: dynamips-lint [--format text|json|sarif] [--config PATH] [--root DIR]\n\
         \x20                    [--no-baseline] [--write-baseline] [--list-rules]\n\
         \x20                    [--explain RULE]\n\
         \x20 --format          output format (default: text)\n\
         \x20 --config          lint config (default: <root>/lint.toml)\n\
         \x20 --root            workspace root (default: nearest ancestor with lint.toml)\n\
         \x20 --no-baseline     ignore lint-baseline.json: report the full finding set\n\
         \x20 --write-baseline  regenerate lint-baseline.json from the current findings\n\
         \x20                   (review the diff: the ratchet should only shrink)\n\
         \x20 --list-rules      list every rule id, severity, and description, then exit\n\
         \x20 --explain         print one rule's rationale, example finding, and pragma\n\
         \x20                   syntax, then exit (unknown rule: exit 2)\n\
         exit code: 0 clean, 1 findings at deny severity, 2 usage/config error"
    );
    exit(Exit::Usage);
}

fn main() {
    let mut format = Format::Text;
    let mut config_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut use_baseline = true;
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                format = args
                    .next()
                    .as_deref()
                    .and_then(Format::parse)
                    .unwrap_or_else(|| usage())
            }
            "--config" => {
                config_path = Some(args.next().map(Into::into).unwrap_or_else(|| usage()))
            }
            "--root" => root = Some(args.next().map(Into::into).unwrap_or_else(|| usage())),
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => write_baseline = true,
            "--list-rules" | "--rules" => {
                for r in ALL_RULES {
                    println!(
                        "{:<20} {:<5} {}",
                        r.id,
                        r.default_severity.as_str(),
                        r.summary
                    );
                }
                return;
            }
            "--explain" => {
                let id = args.next().unwrap_or_else(|| usage());
                match dynamips_lint::explain(&id) {
                    Some(text) => {
                        print!("{text}");
                        return;
                    }
                    None => {
                        eprintln!("dynamips-lint: unknown rule {id:?} (see --list-rules)");
                        exit(Exit::Usage);
                    }
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let root = root
        .or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|cwd| dynamips_lint::find_root(&cwd))
        })
        .unwrap_or_else(|| {
            eprintln!("dynamips-lint: no lint.toml found above the current directory");
            exit(Exit::Usage);
        });
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let config_text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dynamips-lint: cannot read {}: {e}", config_path.display());
            exit(Exit::Usage);
        }
    };

    if write_baseline {
        // Regenerate the ratchet from the *full* finding set (the current
        // baseline is deliberately ignored) and report what changed.
        let cfg = match Config::parse(&config_text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("dynamips-lint: {e}");
                exit(Exit::Usage);
            }
        };
        let findings = match dynamips_lint::lint_workspace(&root, &cfg) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("dynamips-lint: {e}");
                exit(Exit::Usage);
            }
        };
        let base = Baseline::from_findings(&findings);
        let path = root.join(BASELINE_FILE);
        if let Err(e) = std::fs::write(&path, base.to_json()) {
            eprintln!("dynamips-lint: cannot write {}: {e}", path.display());
            exit(Exit::Usage);
        }
        println!(
            "wrote {} ({} finding(s) across {} entries) — diff before committing; the ratchet should only shrink",
            path.display(),
            findings.len(),
            base.entries.len()
        );
        return;
    }

    match run(&root, &config_text, format, use_baseline) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            if outcome.denies > 0 {
                exit(Exit::Findings);
            }
        }
        Err(e) => {
            eprintln!("dynamips-lint: {e}");
            exit(Exit::Usage);
        }
    }
}
