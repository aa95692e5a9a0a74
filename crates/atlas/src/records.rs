//! IP-echo record types and their flat-text serialization.
//!
//! The real datasets are distributed as flat text; we mirror that with a
//! TSV layout of one measurement per line:
//!
//! ```text
//! <probe_id> TAB <hour> TAB <af> TAB <client_ip> TAB <src_addr>
//! ```
//!
//! Two parsers are provided. [`from_tsv`] is strict and fail-fast: the
//! first malformed line aborts the parse — the right behavior for
//! round-trip tests and internally produced dumps. [`from_tsv_lossy`]
//! ingests real-world-shaped garbage: malformed lines are quarantined with
//! a typed [`EchoErrorKind`] and the parse continues, duplicate records are
//! dropped, and out-of-order records are re-sorted — each repair accounted
//! for, in the spirit of the paper's Appendix-A.1 bookkeeping.

// Ingest code must degrade, never abort: besides the crate's panic lints,
// no direct slice indexing on data-derived values (use get() or
// destructuring).
#![warn(clippy::indexing_slicing)]

use crate::series::ProbeId;
use dynamips_netsim::SimTime;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The RIPE NCC address used for testing probes before shipping; appears as
/// the first reported address on many probes and must be filtered
/// (Appendix A.1).
pub const TEST_ADDRESS: Ipv4Addr = Ipv4Addr::new(193, 0, 0, 78);

/// One hourly IPv4 IP-echo measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoV4 {
    /// Measurement hour.
    pub time: SimTime,
    /// Publicly visible address (`X-Client-IP`).
    pub client: Ipv4Addr,
    /// The probe's locally configured address; RFC 1918 behind a typical
    /// home NAT.
    pub src: Ipv4Addr,
}

/// One hourly IPv6 IP-echo measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoV6 {
    /// Measurement hour.
    pub time: SimTime,
    /// Publicly visible address (`X-Client-IP`).
    pub client: Ipv6Addr,
    /// The probe's locally configured address; equal to `client` in a
    /// typical (NAT-free) IPv6 deployment.
    pub src: Ipv6Addr,
}

/// Serialize one probe's measurements as TSV lines (v4 then v6, each in
/// time order).
pub fn to_tsv(probe: ProbeId, v4: &[EchoV4], v6: &[EchoV6]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in v4 {
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "{}\t{}\t4\t{}\t{}",
            probe.0,
            r.time.hours(),
            r.client,
            r.src
        );
    }
    for r in v6 {
        let _ = writeln!(
            out,
            "{}\t{}\t6\t{}\t{}",
            probe.0,
            r.time.hours(),
            r.client,
            r.src
        );
    }
    out
}

/// Machine-readable classification of one quarantined echo TSV line, the
/// per-class taxonomy the degradation accounting aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EchoErrorKind {
    /// Wrong number of TAB-separated fields.
    FieldCount,
    /// Probe id is not a `u32`.
    BadProbeId,
    /// Hour is not a `u64`.
    BadHour,
    /// Address-family field is neither `4` nor `6`.
    BadFamily,
    /// Client address does not parse in the line's address family (covers
    /// garbage and mixed-family addresses alike).
    BadClientAddr,
    /// Source address does not parse in the line's address family.
    BadSrcAddr,
    /// Exact duplicate of an already-ingested record (lossy mode only; the
    /// duplicate is dropped).
    DuplicateRecord,
    /// Record time regressed within its probe's stream (lossy mode only;
    /// the record is kept and the stream re-sorted).
    OutOfOrder,
}

impl EchoErrorKind {
    /// Stable kebab-case label for per-class quarantine accounting.
    pub fn class(&self) -> &'static str {
        match self {
            EchoErrorKind::FieldCount => "field-count",
            EchoErrorKind::BadProbeId => "bad-probe-id",
            EchoErrorKind::BadHour => "bad-hour",
            EchoErrorKind::BadFamily => "bad-family",
            EchoErrorKind::BadClientAddr => "bad-client-addr",
            EchoErrorKind::BadSrcAddr => "bad-src-addr",
            EchoErrorKind::DuplicateRecord => "duplicate-record",
            EchoErrorKind::OutOfOrder => "out-of-order",
        }
    }

    /// Whether the offending record was dropped (vs. repaired in place).
    pub fn drops_record(&self) -> bool {
        !matches!(self, EchoErrorKind::OutOfOrder)
    }
}

impl std::fmt::Display for EchoErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.class())
    }
}

impl std::error::Error for EchoErrorKind {}

/// Longest prefix of the offending line kept in an error, in chars.
pub(crate) const ERROR_LINE_TEXT_CHARS: usize = 120;

/// Truncate an offending line for error context, char-boundary safe.
pub(crate) fn truncate_line_text(line: &str) -> String {
    if line.chars().count() <= ERROR_LINE_TEXT_CHARS {
        line.to_string()
    } else {
        line.chars().take(ERROR_LINE_TEXT_CHARS).collect()
    }
}

/// Error from parsing an echo TSV dump.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(dead-pub): named in the pub from_tsv/from_tsv_lossy signatures;
// callers consume values without ever spelling the type name.
pub struct EchoParseError {
    /// 1-based line number.
    pub line: usize,
    /// The offending line's text, truncated to 120 chars.
    pub line_text: String,
    /// Machine-readable classification.
    pub kind: EchoErrorKind,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for EchoParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "echo TSV line {}: {} (line: {:?})",
            self.line, self.message, self.line_text
        )
    }
}

impl std::error::Error for EchoParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.kind)
    }
}

/// One probe's parsed records: `(probe, v4 records, v6 records)`.
pub(crate) type ProbeRecords = (ProbeId, Vec<EchoV4>, Vec<EchoV6>);

/// One successfully parsed line.
enum EchoLine {
    V4(u32, EchoV4),
    V6(u32, EchoV6),
}

/// Parse one non-blank, non-comment line.
fn parse_echo_line(lineno: usize, line: &str) -> Result<EchoLine, EchoParseError> {
    let err = |kind: EchoErrorKind, message: String| EchoParseError {
        line: lineno,
        line_text: truncate_line_text(line),
        kind,
        message,
    };
    // Destructure the five TAB-separated fields without slice indexing:
    // the shape of data-derived input is checked once, exhaustively, and
    // the extra `next()` rejects six-field lines.
    let mut fields = line.split('\t');
    let (Some(f_probe), Some(f_hour), Some(f_af), Some(f_client), Some(f_src), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return Err(err(
            EchoErrorKind::FieldCount,
            format!("expected 5 fields, got {}", line.split('\t').count()),
        ));
    };
    let probe: u32 = f_probe.parse().map_err(|_| {
        err(
            EchoErrorKind::BadProbeId,
            format!("bad probe id {f_probe:?}"),
        )
    })?;
    let hour: u64 = f_hour
        .parse()
        .map_err(|_| err(EchoErrorKind::BadHour, format!("bad hour {f_hour:?}")))?;
    match f_af {
        "4" => {
            let client: Ipv4Addr = f_client.parse().map_err(|_| {
                err(
                    EchoErrorKind::BadClientAddr,
                    format!("bad IPv4 client {f_client:?}"),
                )
            })?;
            let src: Ipv4Addr = f_src
                .parse()
                .map_err(|_| err(EchoErrorKind::BadSrcAddr, format!("bad IPv4 src {f_src:?}")))?;
            Ok(EchoLine::V4(
                probe,
                EchoV4 {
                    time: SimTime(hour),
                    client,
                    src,
                },
            ))
        }
        "6" => {
            let client: Ipv6Addr = f_client.parse().map_err(|_| {
                err(
                    EchoErrorKind::BadClientAddr,
                    format!("bad IPv6 client {f_client:?}"),
                )
            })?;
            let src: Ipv6Addr = f_src
                .parse()
                .map_err(|_| err(EchoErrorKind::BadSrcAddr, format!("bad IPv6 src {f_src:?}")))?;
            Ok(EchoLine::V6(
                probe,
                EchoV6 {
                    time: SimTime(hour),
                    client,
                    src,
                },
            ))
        }
        other => Err(err(
            EchoErrorKind::BadFamily,
            format!("bad address family {other:?}"),
        )),
    }
}

/// Grouping accumulator shared by the strict and lossy parsers.
#[derive(Default)]
struct ProbeAccumulator {
    order: Vec<ProbeId>,
    #[allow(
        clippy::disallowed_types,
        reason = "grouping only; `finish` emits in `order`, the order of first appearance"
    )]
    map: std::collections::HashMap<u32, (Vec<EchoV4>, Vec<EchoV6>)>,
}

impl ProbeAccumulator {
    fn entry(&mut self, probe: u32) -> &mut (Vec<EchoV4>, Vec<EchoV6>) {
        self.map.entry(probe).or_insert_with(|| {
            self.order.push(ProbeId(probe));
            (Vec::new(), Vec::new())
        })
    }

    fn finish(mut self) -> Vec<ProbeRecords> {
        self.order
            .into_iter()
            .filter_map(|p| self.map.remove(&p.0).map(|(v4, v6)| (p, v4, v6)))
            .collect()
    }
}

/// Parse a TSV dump back into per-probe measurement lists, grouped by probe
/// id in order of first appearance. Strict: the first malformed line aborts
/// the parse.
pub fn from_tsv(text: &str) -> Result<Vec<ProbeRecords>, EchoParseError> {
    let mut acc = ProbeAccumulator::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_echo_line(idx + 1, line)? {
            EchoLine::V4(probe, r) => acc.entry(probe).0.push(r),
            EchoLine::V6(probe, r) => acc.entry(probe).1.push(r),
        }
    }
    Ok(acc.finish())
}

/// Parse a TSV dump, tolerating malformed input. Every malformed line is
/// quarantined (dropped, with a typed error describing it) rather than
/// aborting the parse; exact duplicate records are dropped; out-of-order
/// records are kept and the per-probe streams re-sorted by time (a stable
/// sort, so equal-time records keep file order). Returns the recovered
/// per-probe records plus one [`EchoParseError`] per quarantine/repair
/// event, for [`DegradationReport`] accounting downstream.
///
/// [`DegradationReport`]: https://docs.rs/dynamips-core
pub fn from_tsv_lossy(text: &str) -> (Vec<ProbeRecords>, Vec<EchoParseError>) {
    let mut acc = ProbeAccumulator::default();
    let mut errors: Vec<EchoParseError> = Vec::new();
    // Previous record's time per (probe, family), for out-of-order
    // detection. Adjacent comparison on purpose: a running maximum would
    // let a single forward-skewed timestamp flag every later record of the
    // stream, while an adjacent inversion flags only the skew's neighbors.
    #[allow(
        clippy::disallowed_types,
        reason = "keyed lookups only; never iterated"
    )]
    let mut last_time: std::collections::HashMap<(u32, u8), SimTime> =
        std::collections::HashMap::new();
    // Seen record fingerprints, for duplicate detection.
    #[allow(
        clippy::disallowed_types,
        reason = "membership test only; never iterated"
    )]
    let mut seen: std::collections::HashSet<(u32, u8, u64, u128, u128)> =
        std::collections::HashSet::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = match parse_echo_line(lineno, line) {
            Ok(p) => p,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        let soft_err = |kind: EchoErrorKind, message: String| EchoParseError {
            line: lineno,
            line_text: truncate_line_text(line),
            kind,
            message,
        };
        let (probe, family, time, fingerprint) = match &parsed {
            EchoLine::V4(p, r) => (
                *p,
                4u8,
                r.time,
                (
                    *p,
                    4u8,
                    r.time.hours(),
                    u32::from(r.client) as u128,
                    u32::from(r.src) as u128,
                ),
            ),
            EchoLine::V6(p, r) => (
                *p,
                6u8,
                r.time,
                (
                    *p,
                    6u8,
                    r.time.hours(),
                    u128::from(r.client),
                    u128::from(r.src),
                ),
            ),
        };
        if !seen.insert(fingerprint) {
            errors.push(soft_err(
                EchoErrorKind::DuplicateRecord,
                format!(
                    "duplicate record for probe {probe} at hour {}",
                    time.hours()
                ),
            ));
            continue;
        }
        match last_time.entry((probe, family)) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if time < *o.get() {
                    errors.push(soft_err(
                        EchoErrorKind::OutOfOrder,
                        format!(
                            "record at hour {} after hour {} for probe {probe}; re-sorted",
                            time.hours(),
                            o.get().hours()
                        ),
                    ));
                }
                o.insert(time);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(time);
            }
        }
        match parsed {
            EchoLine::V4(p, r) => acc.entry(p).0.push(r),
            EchoLine::V6(p, r) => acc.entry(p).1.push(r),
        }
    }

    let mut probes = acc.finish();
    for (_, v4, v6) in &mut probes {
        v4.sort_by_key(|r| r.time);
        v6.sort_by_key(|r| r.time);
    }
    (probes, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<EchoV4>, Vec<EchoV6>) {
        (
            vec![
                EchoV4 {
                    time: SimTime(0),
                    client: "84.128.0.7".parse().unwrap(),
                    src: "192.168.1.20".parse().unwrap(),
                },
                EchoV4 {
                    time: SimTime(1),
                    client: "84.128.0.7".parse().unwrap(),
                    src: "192.168.1.20".parse().unwrap(),
                },
            ],
            vec![EchoV6 {
                time: SimTime(0),
                client: "2003:40:a0:aa00:225:96ff:fe12:3456".parse().unwrap(),
                src: "2003:40:a0:aa00:225:96ff:fe12:3456".parse().unwrap(),
            }],
        )
    }

    #[test]
    fn tsv_round_trip() {
        let (v4, v6) = sample();
        let text = to_tsv(ProbeId(17), &v4, &v6);
        let parsed = from_tsv(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        let (probe, pv4, pv6) = &parsed[0];
        assert_eq!(*probe, ProbeId(17));
        assert_eq!(pv4, &v4);
        assert_eq!(pv6, &v6);
    }

    #[test]
    fn tsv_groups_multiple_probes_in_first_appearance_order() {
        let (v4, v6) = sample();
        let mut text = to_tsv(ProbeId(9), &v4, &v6);
        text.push_str(&to_tsv(ProbeId(3), &v4, &v6));
        let parsed = from_tsv(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, ProbeId(9));
        assert_eq!(parsed[1].0, ProbeId(3));
    }

    #[test]
    fn parse_errors_carry_line_numbers_text_and_kind() {
        let err = from_tsv("1\t0\t4\t84.128.0.7\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("5 fields"));
        assert_eq!(err.kind, EchoErrorKind::FieldCount);
        assert_eq!(err.line_text, "1\t0\t4\t84.128.0.7");

        let err = from_tsv("1\t0\t5\t::1\t::1\n").unwrap_err();
        assert!(err.message.contains("address family"));
        assert_eq!(err.kind, EchoErrorKind::BadFamily);

        let err = from_tsv("1\t0\t4\tnot-an-ip\t192.168.1.1\n").unwrap_err();
        assert!(err.message.contains("bad IPv4 client"));
        assert_eq!(err.kind, EchoErrorKind::BadClientAddr);
    }

    #[test]
    fn error_line_text_truncates_to_120_chars() {
        let long = "x".repeat(500);
        let err = from_tsv(&long).unwrap_err();
        assert_eq!(err.line_text.chars().count(), 120);
        // Display carries line number, message, and the truncated text.
        let shown = err.to_string();
        assert!(shown.contains("line 1"));
        assert!(!shown.contains(&long));
    }

    #[test]
    fn error_source_is_the_kind() {
        use std::error::Error as _;
        let err = from_tsv("garbage line\n").unwrap_err();
        let source = err.source().expect("source");
        assert_eq!(source.to_string(), EchoErrorKind::FieldCount.to_string());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let parsed = from_tsv("# header\n\n").unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn test_address_constant_matches_appendix() {
        assert_eq!(TEST_ADDRESS.to_string(), "193.0.0.78");
    }

    #[test]
    fn lossy_parse_of_clean_input_matches_strict() {
        let (v4, v6) = sample();
        let mut text = to_tsv(ProbeId(9), &v4, &v6);
        text.push_str(&to_tsv(ProbeId(3), &v4, &v6));
        let strict = from_tsv(&text).unwrap();
        let (lossy, errors) = from_tsv_lossy(&text);
        assert!(errors.is_empty());
        assert_eq!(lossy, strict);
    }

    #[test]
    fn lossy_quarantines_bad_lines_and_keeps_the_rest() {
        let (v4, v6) = sample();
        let good = to_tsv(ProbeId(7), &v4, &v6);
        let text =
            format!("mojibake \u{fffd}\u{fffd}\n{good}9\tnot-a-number\t4\t1.2.3.4\t10.0.0.1\n");
        let (lossy, errors) = from_tsv_lossy(&text);
        assert_eq!(lossy, from_tsv(&good).unwrap());
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].kind, EchoErrorKind::FieldCount);
        assert_eq!(errors[1].kind, EchoErrorKind::BadHour);
        assert_eq!(errors[1].line, 5);
    }

    #[test]
    fn lossy_drops_duplicates_with_accounting() {
        let (v4, v6) = sample();
        let good = to_tsv(ProbeId(7), &v4, &v6);
        let text = format!("{good}{good}");
        let (lossy, errors) = from_tsv_lossy(&text);
        assert_eq!(lossy, from_tsv(&good).unwrap());
        assert_eq!(errors.len(), v4.len() + v6.len());
        assert!(errors
            .iter()
            .all(|e| e.kind == EchoErrorKind::DuplicateRecord));
    }

    #[test]
    fn lossy_resorts_out_of_order_records() {
        let text = "1\t5\t4\t84.1.1.1\t192.168.1.2\n\
                    1\t2\t4\t84.1.1.1\t192.168.1.2\n\
                    1\t9\t4\t84.1.1.1\t192.168.1.2\n";
        let (lossy, errors) = from_tsv_lossy(text);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, EchoErrorKind::OutOfOrder);
        assert!(!errors[0].kind.drops_record());
        let times: Vec<u64> = lossy[0].1.iter().map(|r| r.time.hours()).collect();
        assert_eq!(times, vec![2, 5, 9]);
    }

    #[test]
    fn lossy_mixed_family_address_is_quarantined() {
        // A v6 address on an af=4 line: bad client address.
        let text = "1\t0\t4\t2003::1\t192.168.1.2\n";
        let (lossy, errors) = from_tsv_lossy(text);
        assert!(lossy.is_empty());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, EchoErrorKind::BadClientAddr);
    }
}
