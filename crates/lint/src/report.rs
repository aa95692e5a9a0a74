//! Finding renderers: human-readable text and a machine-readable JSON
//! document for CI.
//!
//! The build is offline (no serde), so — like `core::perf` — the JSON
//! schema carries its own writer and a parser for exactly this layout,
//! letting fixture tests round-trip the document without a dependency.

use crate::config::Severity;
use crate::rules::Finding;

/// Schema tag written into every JSON report, bumped on layout changes.
pub const LINT_SCHEMA: &str = "dynamips-lint-v2";

/// Render findings as `path:line: severity[rule] message` lines plus a
/// one-line summary, ready for a terminal or CI log.
pub fn render_text(findings: &[Finding]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}: {}[{}] {}",
            f.path,
            f.line,
            f.severity.as_str(),
            f.rule,
            f.message
        );
    }
    let denies = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warns = findings
        .iter()
        .filter(|f| f.severity == Severity::Warn)
        .count();
    if findings.is_empty() {
        out.push_str("lint: clean\n");
    } else {
        let _ = writeln!(out, "lint: {denies} deny, {warns} warn");
    }
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Serialize findings as the `dynamips-lint-v2` JSON document.
pub fn to_json(findings: &[Finding]) -> String {
    use std::fmt::Write as _;
    let denies = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warns = findings
        .iter()
        .filter(|f| f.severity == Severity::Warn)
        .count();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{LINT_SCHEMA}\",");
    let _ = writeln!(out, "  \"deny\": {denies},");
    let _ = writeln!(out, "  \"warn\": {warns},");
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 == findings.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"path\": \"{}\", \"line\": {}, \"end_line\": {}, \"rule\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}{comma}",
            escape(&f.path),
            f.line,
            f.end_line.max(f.line),
            escape(&f.rule),
            f.severity.as_str(),
            escape(&f.message)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialize findings as a minimal SARIF 2.1.0 log, so standard tooling
/// (GitHub code scanning, IDE SARIF viewers) renders them as annotations.
/// Deny maps to `error`, warn to `warning`; rule metadata comes from
/// [`ALL_RULES`](crate::rules::ALL_RULES).
pub fn to_sarif(findings: &[Finding]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"dynamips-lint\",\n");
    let _ = writeln!(out, "          \"version\": \"{LINT_SCHEMA}\",");
    out.push_str("          \"rules\": [\n");
    let rules = crate::rules::ALL_RULES;
    for (i, r) in rules.iter().enumerate() {
        let comma = if i + 1 == rules.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{comma}",
            escape(r.id),
            escape(r.summary)
        );
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 == findings.len() { "" } else { "," };
        let level = match f.severity {
            Severity::Deny => "error",
            Severity::Warn => "warning",
            Severity::Allow => "note",
        };
        let _ = writeln!(
            out,
            "        {{\"ruleId\": \"{}\", \"level\": \"{level}\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"endLine\": {}}}}}}}]}}{comma}",
            escape(&f.rule),
            escape(&f.message),
            escape(&f.path),
            f.line.max(1),
            f.end_line.max(f.line).max(1)
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Parse a document produced by [`to_json`]. Returns an error string
/// naming the first field that failed.
pub fn parse_json(json: &str) -> Result<Vec<Finding>, String> {
    let schema = field(json, "schema").ok_or("missing schema")?;
    if schema != LINT_SCHEMA {
        return Err(format!("unknown schema {schema:?}"));
    }
    let start = json.find("\"findings\": [").ok_or("missing findings")? + "\"findings\": [".len();
    let body = &json[start..];
    let end = body.rfind(']').ok_or("unterminated findings")?;
    let mut out = Vec::new();
    for obj in body[..end].split("\n    {").skip(1) {
        let line = field_raw(obj, "line")
            .ok_or("missing line")?
            .parse()
            .map_err(|e| format!("line: {e}"))?;
        let end_line = field_raw(obj, "end_line")
            .ok_or("missing end_line")?
            .parse()
            .map_err(|e| format!("end_line: {e}"))?;
        let sev_word = field(obj, "severity").ok_or("missing severity")?;
        let severity =
            Severity::parse(&sev_word).ok_or_else(|| format!("bad severity {sev_word:?}"))?;
        out.push(Finding {
            path: field(obj, "path").ok_or("missing path")?,
            line,
            end_line,
            rule: field(obj, "rule").ok_or("missing rule")?,
            severity,
            message: field(obj, "message").ok_or("missing message")?,
        });
    }
    Ok(out)
}

/// Extract the raw token after `"key":` up to the next unquoted `,` / `}`.
fn field_raw<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = json.find(&tag)? + tag.len();
    let rest = json[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        // A string: scan to the closing unescaped quote, return with quotes.
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Some(&rest[..i + 2]);
            }
        }
        None
    } else {
        let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// Extract and unescape a string field.
fn field(json: &str, key: &str) -> Option<String> {
    let raw = field_raw(json, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(unescape(inner))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                path: "crates/a/src/f.rs".into(),
                line: 7,
                end_line: 7,
                rule: "dead-pub".into(),
                severity: Severity::Deny,
                message: "pub fn `f` never referenced outside its crate".into(),
            },
            Finding {
                path: "crates/b/src/g.rs".into(),
                line: 2,
                end_line: 5,
                rule: "lock-order".into(),
                severity: Severity::Warn,
                message: "HashMap with \"quotes\" and\nnewline".into(),
            },
        ]
    }

    #[test]
    fn json_round_trips() {
        let fs = sample();
        let json = to_json(&fs);
        assert!(json.contains("dynamips-lint-v2"));
        assert!(json.contains(r#""end_line": 5"#));
        assert!(json.contains("\"deny\": 1"));
        let back = parse_json(&json).expect("parses");
        assert_eq!(back, fs);
    }

    #[test]
    fn empty_report_round_trips() {
        let json = to_json(&[]);
        assert_eq!(parse_json(&json).expect("parses"), Vec::new());
        assert!(render_text(&[]).contains("clean"));
    }

    #[test]
    fn text_report_shape() {
        let text = render_text(&sample());
        assert!(text.contains("crates/a/src/f.rs:7: deny[dead-pub]"));
        assert!(text.contains("1 deny, 1 warn"));
    }

    #[test]
    fn sarif_log_shape() {
        let sarif = to_sarif(&sample());
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"dynamips-lint\""));
        assert!(sarif.contains("\"ruleId\": \"dead-pub\""));
        assert!(sarif.contains("\"level\": \"error\""));
        assert!(sarif.contains("\"level\": \"warning\""));
        assert!(sarif.contains("\"startLine\": 7, \"endLine\": 7"));
        assert!(sarif.contains("\"startLine\": 2, \"endLine\": 5"));
        // Every rule id ships as driver metadata.
        for r in crate::rules::ALL_RULES {
            assert!(sarif.contains(&format!("\"id\": \"{}\"", r.id)), "{}", r.id);
        }
        // Escaped payloads stay valid JSON (quotes and newlines escaped).
        assert!(sarif.contains("\\\"quotes\\\" and\\nnewline"));
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(parse_json("{}").is_err());
        let bad = to_json(&sample()).replace("dynamips-lint-v2", "v0");
        assert!(parse_json(&bad).is_err());
    }
}
