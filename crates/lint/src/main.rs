//! `dynamips-lint` — standalone workspace invariant checker.
//!
//! ```text
//! dynamips-lint [--format text|json|sarif] [--config lint.toml] [--root DIR]
//!               [--list-rules] [--explain RULE]
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

use dynamips_lint::{run, Format, ALL_RULES};
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
         \x20                    [--list-rules] [--explain RULE]\n\
         \x20 --format          output format (default: text)\n\
         \x20 --config          lint config (default: <root>/lint.toml)\n\
         \x20 --root            workspace root (default: nearest ancestor with lint.toml)\n\
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
            "--list-rules" => {
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

    match run(&root, &config_text, format) {
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
