//! `lint.toml` — the checked-in declaration of which paths carry which
//! invariants.
//!
//! The build is offline, so this module parses the needed TOML subset
//! itself: `[section]` headers, `key = "string"`, and
//! `key = ["a", "b", …]` arrays (single- or multi-line). Anything else in
//! the file is a configuration error, reported with a line number — the
//! config is part of the checked invariant surface and must not rot
//! silently.

use std::collections::BTreeMap;

/// How hard a rule's findings hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled: findings are dropped.
    Allow,
    /// Reported, but does not fail the run.
    Warn,
    /// Reported and fails the run (exit 1).
    Deny,
}

impl Severity {
    /// Parse a severity keyword.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }

    /// The keyword form.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes (relative, `/`-separated) excluded from the walk.
    pub skip: Vec<String>,
    /// Path prefixes whose `pub` items the dead-pub analysis audits.
    pub dead_pub: Vec<String>,
    /// Files/dirs allowed to hold a lock across a blocking call (e.g. a
    /// supervisor that deliberately parks on a condvar'd queue).
    pub blocking_allowed: Vec<String>,
    /// Extra blocking-sink specs (`"name"`, `"name()"`, or
    /// `"Type::name"`) appended to the built-in list.
    pub blocking_sinks: Vec<String>,
    /// Reactor event-loop entry points for the blocking-in-reactor rule,
    /// as `(file, fn-name)` pairs parsed from `"path/to/file.rs::fn_name"`
    /// declarations.
    pub reactor_entry_points: Vec<(String, String)>,
    /// Files whose functions the reactor is allowed to block in (the
    /// poller itself).
    pub reactor_allowed: Vec<String>,
    /// Extra shrink-operation names recognized as bounding collection
    /// growth, appended to the built-in eviction list.
    pub growth_caps: Vec<String>,
    /// Path prefixes the unbounded-growth rule audits (scoping keeps
    /// name-based `.insert()` resolution from flagging unrelated crates).
    pub growth_paths: Vec<String>,
    /// Long-running loop functions — additional unbounded-growth roots —
    /// as `(file, fn-name)` pairs like `reactor_entry_points`.
    pub long_running: Vec<(String, String)>,
    /// Per-rule severity overrides.
    pub severity: BTreeMap<String, Severity>,
}

impl Config {
    /// Parse `lint.toml` text. Errors carry a 1-based line number.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming lines until the `]`.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                    if value.ends_with(']') {
                        break;
                    }
                }
                if !value.ends_with(']') {
                    return Err(format!(
                        "lint.toml:{lineno}: unterminated array for {key:?}"
                    ));
                }
            }
            cfg.apply(&section, key, &value, lineno)?;
        }
        Ok(cfg)
    }

    fn apply(
        &mut self,
        section: &str,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), String> {
        if let Some(rule) = section.strip_prefix("rules.") {
            return match key {
                "severity" => {
                    let word = parse_string(value)
                        .ok_or_else(|| format!("lint.toml:{lineno}: severity must be a string"))?;
                    let sev = Severity::parse(&word).ok_or_else(|| {
                        format!("lint.toml:{lineno}: unknown severity {word:?} (allow|warn|deny)")
                    })?;
                    self.severity.insert(rule.to_string(), sev);
                    Ok(())
                }
                other => Err(format!(
                    "lint.toml:{lineno}: unknown key {other:?} in [{section}]"
                )),
            };
        }
        if (section == "concurrency" && key == "reactor-entry-points")
            || (section == "lifecycle" && key == "long-running")
        {
            let entries = parse_string_array(value)
                .ok_or_else(|| format!("lint.toml:{lineno}: {key} must be an array of strings"))?;
            let dest = if section == "concurrency" {
                &mut self.reactor_entry_points
            } else {
                &mut self.long_running
            };
            dest.clear();
            for e in entries {
                let Some((file, name)) = e.rsplit_once("::") else {
                    return Err(format!(
                        "lint.toml:{lineno}: entry point {e:?} must be \"path/to/file.rs::fn_name\""
                    ));
                };
                dest.push((file.to_string(), name.to_string()));
            }
            return Ok(());
        }
        let target = match (section, key) {
            ("paths", "skip") => &mut self.skip,
            ("paths", "blocking-allowed") => &mut self.blocking_allowed,
            ("interprocedural", "dead-pub") => &mut self.dead_pub,
            ("concurrency", "blocking-sinks") => &mut self.blocking_sinks,
            ("concurrency", "reactor-allowed") => &mut self.reactor_allowed,
            ("lifecycle", "caps") => &mut self.growth_caps,
            ("lifecycle", "growth-paths") => &mut self.growth_paths,
            _ => {
                return Err(format!(
                    "lint.toml:{lineno}: unknown key {key:?} in section [{section}]"
                ))
            }
        };
        *target = parse_string_array(value)
            .ok_or_else(|| format!("lint.toml:{lineno}: {key} must be an array of strings"))?;
        Ok(())
    }

    /// Effective severity for `rule`, given its built-in default.
    pub fn severity_of(&self, rule: &str, default: Severity) -> Severity {
        self.severity.get(rule).copied().unwrap_or(default)
    }

    /// Is `path` under one of the configured `prefixes`? Exact file paths
    /// and directory prefixes both match; paths are `/`-normalized.
    pub fn path_in(path: &str, prefixes: &[String]) -> bool {
        prefixes
            .iter()
            .any(|p| path == p || path.starts_with(&format!("{}/", p.trim_end_matches('/'))))
    }
}

/// Drop a `#`-to-end-of-line comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a double-quoted TOML string.
fn parse_string(value: &str) -> Option<String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|s| s.to_string())
}

/// Parse `["a", "b", …]` (trailing comma tolerated).
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let v = value.trim();
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_severities() {
        let cfg = Config::parse(
            "# header\n[paths]\nskip = [\"vendor\", \"target\"] # trailing\nblocking-allowed = [\n  \"crates/serve/src/server.rs\",\n  \"crates/chaos/src\",\n]\n\n[rules.dead-pub]\nseverity = \"warn\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.skip, vec!["vendor", "target"]);
        assert_eq!(cfg.blocking_allowed.len(), 2);
        assert_eq!(cfg.severity_of("dead-pub", Severity::Deny), Severity::Warn);
        assert_eq!(
            cfg.severity_of("lock-order", Severity::Deny),
            Severity::Deny
        );
    }

    #[test]
    fn parses_interprocedural_section() {
        let cfg =
            Config::parse("[interprocedural]\ndead-pub = [\"crates/core/src\"]\n").expect("parses");
        assert_eq!(cfg.dead_pub, vec!["crates/core/src"]);
    }

    #[test]
    fn parses_concurrency_section() {
        let cfg = Config::parse(
            "[paths]\nblocking-allowed = [\"crates/serve/src/server.rs\"]\n\n[concurrency]\nblocking-sinks = [\"enqueue\", \"join()\"]\nreactor-entry-points = [\"crates/serve/src/reactor.rs::run_loop\"]\nreactor-allowed = [\"crates/serve/src/poll.rs\"]\n",
        )
        .expect("parses");
        assert_eq!(cfg.blocking_allowed, vec!["crates/serve/src/server.rs"]);
        assert_eq!(cfg.blocking_sinks, vec!["enqueue", "join()"]);
        assert_eq!(
            cfg.reactor_entry_points,
            vec![(
                "crates/serve/src/reactor.rs".to_string(),
                "run_loop".to_string()
            )]
        );
        assert_eq!(cfg.reactor_allowed, vec!["crates/serve/src/poll.rs"]);
        let err = Config::parse("[concurrency]\nreactor-entry-points = [\"nosep\"]\n")
            .expect_err("entry point without ::");
        assert!(err.contains("nosep"), "{err}");
    }

    #[test]
    fn parses_lifecycle_section() {
        let cfg = Config::parse(
            "[lifecycle]\ncaps = [\"evict_oldest\"]\ngrowth-paths = [\"crates/serve/src\"]\nlong-running = [\"src/growth.rs::pump\"]\n",
        )
        .expect("parses");
        assert_eq!(cfg.growth_caps, vec!["evict_oldest"]);
        assert_eq!(cfg.growth_paths, vec!["crates/serve/src"]);
        assert_eq!(
            cfg.long_running,
            vec![("src/growth.rs".to_string(), "pump".to_string())]
        );
        let err = Config::parse("[lifecycle]\nlong-running = [\"nosep\"]\n")
            .expect_err("long-running without ::");
        assert!(err.contains("nosep"), "{err}");
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        let err = Config::parse("[paths]\nbogus = []\n").expect_err("unknown key");
        assert!(err.contains("lint.toml:2"), "{err}");
        // Retired scopes are gone, not silently ignored: hash-iter's
        // render files, panic-reach's ingest files and entry points,
        // determinism-taint's sinks and timing layer, and the pair and
        // gauge declarations of resource-leak, drop-order and
        // gauge-balance.
        for retired in [
            "[paths]\nrender = []\n",
            "[paths]\ningest = [\"crates/atlas/src/records.rs\"]\n",
            "[interprocedural]\nentry-points = [\"crates/experiments/src/main.rs::main\"]\n",
            "[paths]\nperf-exempt = [\"crates/core/src/perf.rs\"]\n",
            "[interprocedural]\nsinks = [\"crates/core/src/report.rs\"]\n",
            "[lifecycle]\npairs = [\"Poller::add -> Poller::remove\"]\n",
            "[lifecycle]\ngauges = [\"open_conns: conn_opened / conn_closed\"]\n",
        ] {
            let err = Config::parse(retired).expect_err("retired key");
            assert!(err.contains("unknown key"), "{err}");
        }
        let err = Config::parse("[rules.x]\nseverity = \"fatal\"\n").expect_err("bad severity");
        assert!(err.contains("fatal"), "{err}");
    }

    #[test]
    fn path_prefix_matching() {
        let prefixes = vec!["crates/core/src".to_string(), "lone.rs".to_string()];
        assert!(Config::path_in("crates/core/src/stats.rs", &prefixes));
        assert!(Config::path_in("lone.rs", &prefixes));
        assert!(!Config::path_in("crates/core/srcx/f.rs", &prefixes));
        assert!(!Config::path_in("crates/core", &prefixes));
    }
}
