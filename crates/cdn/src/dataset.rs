//! The aggregated association dataset.

// Ingest code must degrade, never abort: besides the crate's panic lints,
// no direct slice indexing on data-derived values (use get() or
// destructuring).
#![warn(clippy::indexing_slicing)]

use dynamips_netaddr::{Ipv4Prefix, Ipv6Prefix};
use dynamips_routing::Asn;

/// One `(IPv4 /24, IPv6 /64, date)` association tuple after pre-processing,
/// carrying the (matching) origin AS and its access-type label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Association {
    /// The IPv4 side, aggregated to a /24.
    pub v24: Ipv4Prefix,
    /// The IPv6 side, aggregated to a /64.
    pub p64: Ipv6Prefix,
    /// Day index since the simulation epoch.
    pub day: u32,
    /// Origin AS (identical for both sides after filtering).
    pub asn: Asn,
    /// Whether the AS is a cellular access network.
    pub mobile: bool,
}

/// The full pre-processed dataset plus pre-processing counters (the paper
/// reports 32.7 B raw associations reduced to 31.6 B after the AS-mismatch
/// filter; we track the same accounting at simulation scale).
#[derive(Debug, Clone, Default)]
pub struct AssociationDataset {
    /// Retained associations, ordered by (ASN, subscriber, day) as emitted.
    pub tuples: Vec<Association>,
    /// Raw association count before filtering.
    pub raw_count: u64,
    /// Associations discarded because the IPv4 and IPv6 origin AS differed.
    pub discarded_as_mismatch: u64,
    /// Associations discarded because one side was not routed at all.
    pub discarded_unrouted: u64,
}

impl AssociationDataset {
    /// Retained tuple count.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of distinct /64 prefixes (the paper reports 2.1 B at full
    /// scale and uses this to quantify the cellular share).
    pub fn unique_p64_count(&self) -> usize {
        let mut p64s: Vec<u128> = self.tuples.iter().map(|t| t.p64.bits()).collect();
        p64s.sort_unstable();
        p64s.dedup();
        p64s.len()
    }

    /// Fraction of distinct /64s that belong to cellular networks (65.7% in
    /// the paper).
    pub fn mobile_p64_fraction(&self) -> f64 {
        #[allow(
            clippy::disallowed_types,
            reason = "only counts leave; iteration order never observed"
        )]
        let mut seen: std::collections::HashMap<u128, bool> = std::collections::HashMap::new();
        for t in &self.tuples {
            seen.entry(t.p64.bits()).or_insert(t.mobile);
        }
        if seen.is_empty() {
            return 0.0;
        }
        let mobile = seen.values().filter(|&&m| m).count();
        mobile as f64 / seen.len() as f64
    }
}

/// Serialize the dataset as TSV, one association per line:
/// `v24_network TAB p64_network TAB day TAB asn TAB mobile(0|1)`.
/// Mirrors the flat-file form the paper's aggregated dataset would take.
pub fn to_tsv(ds: &AssociationDataset) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(ds.tuples.len() * 48);
    for t in &ds.tuples {
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            t.v24.network(),
            t.p64.network(),
            t.day,
            t.asn.0,
            u8::from(t.mobile)
        );
    }
    out
}

/// Machine-readable classification of one quarantined association TSV
/// line, the per-class taxonomy the degradation accounting aggregates
/// over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AssociationErrorKind {
    /// Wrong number of TAB-separated fields.
    FieldCount,
    /// The IPv4 /24 network does not parse (covers garbage and
    /// mixed-family addresses alike).
    BadV24,
    /// The IPv6 /64 network does not parse.
    BadP64,
    /// Day index is not a `u32`.
    BadDay,
    /// Origin AS is not a `u32`.
    BadAsn,
    /// Access-type flag is neither `0` nor `1`.
    BadMobileFlag,
    /// Exact duplicate of an already-ingested tuple (lossy mode only; the
    /// duplicate is dropped).
    DuplicateRecord,
}

impl AssociationErrorKind {
    /// Stable kebab-case label for per-class quarantine accounting.
    pub fn class(&self) -> &'static str {
        match self {
            AssociationErrorKind::FieldCount => "field-count",
            AssociationErrorKind::BadV24 => "bad-v24",
            AssociationErrorKind::BadP64 => "bad-p64",
            AssociationErrorKind::BadDay => "bad-day",
            AssociationErrorKind::BadAsn => "bad-asn",
            AssociationErrorKind::BadMobileFlag => "bad-mobile-flag",
            AssociationErrorKind::DuplicateRecord => "duplicate-record",
        }
    }
}

impl std::fmt::Display for AssociationErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.class())
    }
}

impl std::error::Error for AssociationErrorKind {}

/// Longest prefix of the offending line kept in an error, in chars.
const ERROR_LINE_TEXT_CHARS: usize = 120;

fn truncate_line_text(line: &str) -> String {
    if line.chars().count() <= ERROR_LINE_TEXT_CHARS {
        line.to_string()
    } else {
        line.chars().take(ERROR_LINE_TEXT_CHARS).collect()
    }
}

/// Error from parsing an association TSV dump.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(dead-pub): named in the pub from_tsv/from_tsv_lossy signatures;
// callers consume values without ever spelling the type name.
pub struct AssociationParseError {
    /// 1-based line number.
    pub line: usize,
    /// The offending line's text, truncated to 120 chars.
    pub line_text: String,
    /// Machine-readable classification.
    pub kind: AssociationErrorKind,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for AssociationParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "association TSV line {}: {} (line: {:?})",
            self.line, self.message, self.line_text
        )
    }
}

impl std::error::Error for AssociationParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.kind)
    }
}

/// Parse one non-blank, non-comment line.
fn parse_association_line(lineno: usize, line: &str) -> Result<Association, AssociationParseError> {
    let err = |kind: AssociationErrorKind, message: String| AssociationParseError {
        line: lineno,
        line_text: truncate_line_text(line),
        kind,
        message,
    };
    // Destructure the five TAB-separated fields without slice indexing:
    // the shape of data-derived input is checked once, exhaustively, and
    // the extra `next()` rejects six-field lines.
    let mut fields = line.split('\t');
    let (Some(f_v24), Some(f_p64), Some(f_day), Some(f_asn), Some(f_mobile), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return Err(err(
            AssociationErrorKind::FieldCount,
            format!("expected 5 fields, got {}", line.split('\t').count()),
        ));
    };
    let v24: Ipv4Prefix = format!("{f_v24}/24")
        .parse()
        .map_err(|e| err(AssociationErrorKind::BadV24, format!("bad /24: {e}")))?;
    let p64: Ipv6Prefix = format!("{f_p64}/64")
        .parse()
        .map_err(|e| err(AssociationErrorKind::BadP64, format!("bad /64: {e}")))?;
    let day: u32 = f_day
        .parse()
        .map_err(|_| err(AssociationErrorKind::BadDay, format!("bad day {f_day:?}")))?;
    let asn: u32 = f_asn
        .parse()
        .map_err(|_| err(AssociationErrorKind::BadAsn, format!("bad asn {f_asn:?}")))?;
    let mobile = match f_mobile {
        "0" => false,
        "1" => true,
        other => {
            return Err(err(
                AssociationErrorKind::BadMobileFlag,
                format!("bad mobile flag {other:?}"),
            ))
        }
    };
    Ok(Association {
        v24,
        p64,
        day,
        asn: Asn(asn),
        mobile,
    })
}

/// Parse an association TSV dump. Blank lines and `#` comments are
/// ignored. Pre-processing counters are not serialized; the returned
/// dataset's `raw_count` equals its tuple count. Strict: the first
/// malformed line aborts the parse.
pub fn from_tsv(text: &str) -> Result<AssociationDataset, AssociationParseError> {
    let mut ds = AssociationDataset::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ds.tuples.push(parse_association_line(idx + 1, line)?);
    }
    ds.raw_count = ds.tuples.len() as u64;
    Ok(ds)
}

/// Parse an association TSV dump, tolerating malformed input. Malformed
/// lines are quarantined (dropped, with a typed error describing them)
/// rather than aborting the parse, and exact duplicate tuples are dropped
/// with accounting. Tuple order is immaterial downstream (run detection
/// sorts per /64), so out-of-order input needs no repair here. Returns the
/// recovered dataset plus one [`AssociationParseError`] per quarantined
/// line.
pub fn from_tsv_lossy(text: &str) -> (AssociationDataset, Vec<AssociationParseError>) {
    let mut ds = AssociationDataset::default();
    let mut errors: Vec<AssociationParseError> = Vec::new();
    #[allow(
        clippy::disallowed_types,
        reason = "membership test only; never iterated"
    )]
    let mut seen: std::collections::HashSet<(u32, u128, u32, u32, bool)> =
        std::collections::HashSet::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_association_line(lineno, line) {
            Ok(t) => {
                if seen.insert((t.v24.bits(), t.p64.bits(), t.day, t.asn.0, t.mobile)) {
                    ds.tuples.push(t);
                } else {
                    errors.push(AssociationParseError {
                        line: lineno,
                        line_text: truncate_line_text(line),
                        kind: AssociationErrorKind::DuplicateRecord,
                        message: format!(
                            "duplicate tuple for {} on day {}",
                            t.p64.network(),
                            t.day
                        ),
                    });
                }
            }
            Err(e) => errors.push(e),
        }
    }
    ds.raw_count = ds.tuples.len() as u64;
    (ds, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assoc(v24: &str, p64: &str, day: u32, asn: u32, mobile: bool) -> Association {
        Association {
            v24: v24.parse().unwrap(),
            p64: p64.parse().unwrap(),
            day,
            asn: Asn(asn),
            mobile,
        }
    }

    #[test]
    fn unique_p64_counting() {
        let ds = AssociationDataset {
            tuples: vec![
                assoc("84.128.0.0/24", "2003:40:a0:aa00::/64", 0, 3320, false),
                assoc("84.128.0.0/24", "2003:40:a0:aa00::/64", 1, 3320, false),
                assoc("84.128.1.0/24", "2003:40:a0:bb00::/64", 1, 3320, false),
            ],
            raw_count: 3,
            ..Default::default()
        };
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.unique_p64_count(), 2);
    }

    #[test]
    fn mobile_fraction_by_unique_p64() {
        let ds = AssociationDataset {
            tuples: vec![
                assoc("84.128.0.0/24", "2003:40:a0:aa00::/64", 0, 3320, false),
                // Same mobile /64 seen twice: counted once.
                assoc("92.40.1.0/24", "2a01:4c80:1:2::/64", 0, 12576, true),
                assoc("92.40.2.0/24", "2a01:4c80:1:2::/64", 1, 12576, true),
                assoc("92.40.1.0/24", "2a01:4c80:9:9::/64", 2, 12576, true),
            ],
            raw_count: 4,
            ..Default::default()
        };
        let f = ds.mobile_p64_fraction();
        assert!((f - 2.0 / 3.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn empty_dataset() {
        let ds = AssociationDataset::default();
        assert!(ds.is_empty());
        assert_eq!(ds.mobile_p64_fraction(), 0.0);
        assert_eq!(ds.unique_p64_count(), 0);
    }

    #[test]
    fn tsv_round_trip() {
        let ds = AssociationDataset {
            tuples: vec![
                assoc("84.128.0.0/24", "2003:40:a0:aa00::/64", 2191, 3320, false),
                assoc("92.40.2.0/24", "2a01:4c80:1:2::/64", 2200, 12576, true),
            ],
            raw_count: 2,
            ..Default::default()
        };
        let text = to_tsv(&ds);
        let parsed = from_tsv(&text).unwrap();
        assert_eq!(parsed.tuples, ds.tuples);
        assert_eq!(parsed.raw_count, 2);
    }

    #[test]
    fn tsv_parse_errors() {
        let err = from_tsv("a\tb\tc\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.kind, AssociationErrorKind::FieldCount);
        assert_eq!(err.line_text, "a\tb\tc");
        let bad_flag = "84.128.0.0\t2003::\t1\t3320\t7\n";
        let err = from_tsv(bad_flag).unwrap_err();
        assert!(err.message.contains("mobile flag"));
        assert_eq!(err.kind, AssociationErrorKind::BadMobileFlag);
        let bad_p64 = "84.128.0.0\tnot-v6\t1\t3320\t0\n";
        assert!(from_tsv(bad_p64).unwrap_err().message.contains("bad /64"));
        // Comments and blanks are fine.
        assert!(from_tsv("# header\n\n").unwrap().is_empty());
    }

    #[test]
    fn error_line_text_truncates_and_source_is_the_kind() {
        use std::error::Error as _;
        let long = "y".repeat(400);
        let err = from_tsv(&long).unwrap_err();
        assert_eq!(err.line_text.chars().count(), 120);
        assert_eq!(
            err.source().expect("source").to_string(),
            AssociationErrorKind::FieldCount.to_string()
        );
    }

    #[test]
    fn lossy_parse_of_clean_input_matches_strict() {
        let ds = AssociationDataset {
            tuples: vec![
                assoc("84.128.0.0/24", "2003:40:a0:aa00::/64", 2191, 3320, false),
                assoc("92.40.2.0/24", "2a01:4c80:1:2::/64", 2200, 12576, true),
            ],
            raw_count: 2,
            ..Default::default()
        };
        let text = to_tsv(&ds);
        let (lossy, errors) = from_tsv_lossy(&text);
        assert!(errors.is_empty());
        assert_eq!(lossy.tuples, from_tsv(&text).unwrap().tuples);
    }

    #[test]
    fn lossy_quarantines_bad_lines_and_drops_duplicates() {
        let good = "84.128.0.0\t2003:40:a0:aa00::\t5\t3320\t0";
        let text = format!(
            "garbage\n{good}\n{good}\n84.128.1.0\t2003::\tnot-a-day\t3320\t1\n\
             2003::1\t2003::\t1\t3320\t0\n"
        );
        let (lossy, errors) = from_tsv_lossy(&text);
        assert_eq!(lossy.len(), 1);
        let kinds: Vec<_> = errors.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AssociationErrorKind::FieldCount,
                AssociationErrorKind::DuplicateRecord,
                AssociationErrorKind::BadDay,
                // v6 address in the v24 column: mixed address family.
                AssociationErrorKind::BadV24,
            ]
        );
        assert_eq!(errors[1].line, 3);
    }
}
