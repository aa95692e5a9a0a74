//! pfx2as text serialization.
//!
//! The Routeviews "prefix-to-AS" datasets the paper uses ship as flat text
//! with one `prefix<TAB>length<TAB>origin` line per routed prefix. We mirror
//! that format (for both families, distinguished by the presence of `:`)
//! so synthetic routing tables can be dumped, diffed and re-loaded.

use crate::asn::Asn;
use crate::table::RoutingTable;
use dynamips_netaddr::{Ipv4Prefix, Ipv6Prefix};
use std::fmt::Write as _;

/// Errors from parsing a pfx2as dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pfx2asError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Pfx2asError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pfx2as line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for Pfx2asError {}

/// Serialize a routing table in pfx2as format (IPv4 entries first, then
/// IPv6, each in address order).
pub fn to_pfx2as(table: &RoutingTable) -> String {
    let mut out = String::new();
    for (pfx, asn) in table.v4_entries() {
        let _ = writeln!(out, "{}\t{}\t{}", pfx.network(), pfx.len(), asn.0);
    }
    for (pfx, asn) in table.v6_entries() {
        let _ = writeln!(out, "{}\t{}\t{}", pfx.network(), pfx.len(), asn.0);
    }
    out
}

/// Parse a pfx2as dump into a routing table. Blank lines and `#` comments
/// are ignored.
pub fn from_pfx2as(text: &str) -> Result<RoutingTable, Pfx2asError> {
    let mut table = RoutingTable::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let (addr, len, origin) = match (fields.next(), fields.next(), fields.next()) {
            (Some(a), Some(l), Some(o)) => (a, l, o),
            _ => {
                return Err(Pfx2asError {
                    line: lineno,
                    message: format!("expected 3 tab-separated fields, got {line:?}"),
                })
            }
        };
        let len: u8 = len.parse().map_err(|_| Pfx2asError {
            line: lineno,
            message: format!("bad prefix length {len:?}"),
        })?;
        let origin: u32 = origin.parse().map_err(|_| Pfx2asError {
            line: lineno,
            message: format!("bad origin ASN {origin:?}"),
        })?;
        if addr.contains(':') {
            let pfx: Ipv6Prefix = format!("{addr}/{len}").parse().map_err(|e| Pfx2asError {
                line: lineno,
                message: format!("bad IPv6 prefix: {e}"),
            })?;
            table.announce_v6(pfx, Asn(origin));
        } else {
            let pfx: Ipv4Prefix = format!("{addr}/{len}").parse().map_err(|e| Pfx2asError {
                line: lineno,
                message: format!("bad IPv4 prefix: {e}"),
            })?;
            table.announce_v4(pfx, Asn(origin));
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn round_trip() {
        let mut t = RoutingTable::new();
        t.announce_v4("84.0.0.0/10".parse().unwrap(), Asn(3320));
        t.announce_v6("2003::/19".parse().unwrap(), Asn(3320));
        t.announce_v6("2a02:8100::/28".parse().unwrap(), Asn(6830));
        let text = to_pfx2as(&t);
        let parsed = from_pfx2as(&text).unwrap();
        assert_eq!(parsed.v4_entries(), t.v4_entries());
        assert_eq!(parsed.v6_entries(), t.v6_entries());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# comment\n\n84.0.0.0\t10\t3320\n";
        let t = from_pfx2as(text).unwrap();
        assert_eq!(t.origin_v4(Ipv4Addr::new(84, 1, 1, 1)), Some(Asn(3320)));
    }

    #[test]
    fn error_reports_line_number() {
        let text = "84.0.0.0\t10\t3320\nnot-a-line\n";
        let err = from_pfx2as(text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn bad_length_rejected() {
        let err = from_pfx2as("84.0.0.0\tXX\t3320\n").unwrap_err();
        assert!(err.message.contains("bad prefix length"));
    }

    #[test]
    fn bad_origin_rejected() {
        let err = from_pfx2as("84.0.0.0\t10\tAS3320\n").unwrap_err();
        assert!(err.message.contains("bad origin"));
    }

    #[test]
    fn non_canonical_prefix_rejected() {
        let err = from_pfx2as("84.0.0.1\t10\t3320\n").unwrap_err();
        assert!(err.message.contains("bad IPv4 prefix"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dynamips_netaddr::{Ipv4Prefix, Ipv6Prefix};
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    proptest! {
        #[test]
        fn round_trips_arbitrary_tables(
            v4 in proptest::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 0..50),
            v6 in proptest::collection::vec((any::<u128>(), 0u8..=64, any::<u32>()), 0..50),
        ) {
            let mut table = RoutingTable::new();
            for (bits, len, asn) in v4 {
                table.announce_v4(
                    Ipv4Prefix::new_truncated(Ipv4Addr::from(bits), len).unwrap(),
                    Asn(asn),
                );
            }
            for (bits, len, asn) in v6 {
                table.announce_v6(
                    Ipv6Prefix::new_truncated(Ipv6Addr::from(bits), len).unwrap(),
                    Asn(asn),
                );
            }
            let parsed = from_pfx2as(&to_pfx2as(&table)).unwrap();
            prop_assert_eq!(parsed.v4_entries(), table.v4_entries());
            prop_assert_eq!(parsed.v6_entries(), table.v6_entries());
        }

        #[test]
        fn parser_never_panics_on_garbage(text in "[ -~\n\t]{0,300}") {
            let _ = from_pfx2as(&text);
        }
    }
}
