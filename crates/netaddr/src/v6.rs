//! IPv6 CIDR prefixes.

use crate::error::PrefixError;
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// A canonical IPv6 CIDR prefix: all bits below `len` are zero.
///
/// Backed by a `u128`. The paper's unit of analysis for IPv6 is the /64
/// prefix — the "network component" of an address — so this type has helpers
/// for extracting and manipulating /64s.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv6Prefix {
    bits: u128,
    len: u8,
}

#[allow(
    clippy::len_without_is_empty,
    reason = "`len` is a prefix length, not a container size"
)]
impl Ipv6Prefix {
    /// Maximum prefix length.
    pub const MAX_LEN: u8 = 128;

    /// Construct a prefix, requiring a canonical (masked) network address.
    pub fn new(addr: Ipv6Addr, len: u8) -> Result<Self, PrefixError> {
        if len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len,
                max: Self::MAX_LEN,
            });
        }
        let bits = u128::from(addr);
        if bits & !mask(len) != 0 {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Self { bits, len })
    }

    /// Construct a prefix, masking away any host bits.
    pub fn new_truncated(addr: Ipv6Addr, len: u8) -> Result<Self, PrefixError> {
        if len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len,
                max: Self::MAX_LEN,
            });
        }
        Ok(Self::masked(u128::from(addr), len))
    }

    /// Construct from raw bits, masking away host bits, where the caller
    /// guarantees `len <= MAX_LEN` (as the prefix trie does for every key
    /// it stores, and code-defined prefixes do by construction). This
    /// path never panics in release builds: a longer `len` is a caller bug
    /// that debug builds assert and release builds saturate.
    pub fn masked(bits: u128, len: u8) -> Self {
        debug_assert!(len <= Self::MAX_LEN, "prefix length {len} out of range");
        let len = len.min(Self::MAX_LEN);
        Self {
            bits: bits & mask(len),
            len,
        }
    }

    /// Construct from raw bits (must already be masked).
    pub fn from_bits(bits: u128, len: u8) -> Result<Self, PrefixError> {
        Self::new(Ipv6Addr::from(bits), len)
    }

    /// The /64 prefix containing `addr` — the paper's aggregation granularity
    /// for IPv6 (both the Atlas analysis and the CDN dataset use /64s).
    pub fn slash64_of(addr: Ipv6Addr) -> Self {
        Self {
            bits: u128::from(addr) & mask(64),
            len: 64,
        }
    }

    /// The network address.
    pub fn network(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits)
    }

    /// The raw network bits.
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the default route `::/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & mask(self.len) == self.bits
    }

    /// Whether `other` is fully covered by this prefix (equal or
    /// more-specific).
    pub fn contains_prefix(&self, other: &Ipv6Prefix) -> bool {
        other.len >= self.len && other.bits & mask(self.len) == self.bits
    }

    /// The enclosing prefix of length `len` (must be ≤ the current length).
    pub fn supernet(&self, len: u8) -> Result<Self, PrefixError> {
        if len > self.len {
            return Err(PrefixError::LengthOutOfRange { len, max: self.len });
        }
        Ok(Self {
            bits: self.bits & mask(len),
            len,
        })
    }

    /// Number of subprefixes of length `sub_len` inside this prefix,
    /// saturating at `u64::MAX` for differences of 64 bits or more.
    pub fn num_subprefixes(&self, sub_len: u8) -> Result<u64, PrefixError> {
        if sub_len < self.len || sub_len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len: sub_len,
                max: Self::MAX_LEN,
            });
        }
        let diff = sub_len - self.len;
        if diff >= 64 {
            Ok(u64::MAX)
        } else {
            Ok(1u64 << diff)
        }
    }

    /// The `index`-th subprefix of length `sub_len`, counting from the
    /// lowest-numbered one.
    pub fn nth_subprefix(&self, sub_len: u8, index: u64) -> Result<Self, PrefixError> {
        let count = self.num_subprefixes(sub_len)?;
        if count != u64::MAX && index >= count {
            return Err(PrefixError::Malformed(format!(
                "subprefix index {index} out of range (count {count})"
            )));
        }
        // For sub_len == 0 the shift would be 128 (undefined for u128);
        // the only valid index there is 0, so the offset is 0.
        let offset = if sub_len == 0 {
            0
        } else {
            (index as u128) << (128 - sub_len as u32)
        };
        Ok(Self {
            bits: self.bits | offset,
            len: sub_len,
        })
    }

    /// Build a full address inside a /64 prefix from a 64-bit interface
    /// identifier. Errors if the prefix is longer than /64.
    pub fn with_iid(&self, iid: u64) -> Result<Ipv6Addr, PrefixError> {
        if self.len > 64 {
            return Err(PrefixError::LengthOutOfRange {
                len: self.len,
                max: 64,
            });
        }
        Ok(Ipv6Addr::from(self.bits | iid as u128))
    }
}

/// Bit mask with the top `len` bits set.
fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Self::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn construction_rejects_host_bits() {
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(
            Ipv6Prefix::new(addr, 64).unwrap_err(),
            PrefixError::HostBitsSet
        );
        assert_eq!(
            Ipv6Prefix::new_truncated(addr, 64).unwrap(),
            p("2001:db8::/64")
        );
    }

    #[test]
    fn display_round_trip() {
        for s in ["::/0", "2003::/19", "2001:db8::/32", "2001:db8:1:2::/64"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn slash64_extraction() {
        let addr: Ipv6Addr = "2001:db8:aa:bb:1:2:3:4".parse().unwrap();
        assert_eq!(Ipv6Prefix::slash64_of(addr), p("2001:db8:aa:bb::/64"));
    }

    #[test]
    fn contains_and_supernet() {
        let dtag = p("2003::/19"); // DTAG's announcement from the paper
        let sub = p("2003:40:a0::/48");
        assert!(dtag.contains_prefix(&sub));
        assert_eq!(sub.supernet(19).unwrap(), dtag);
        assert!(!sub.contains_prefix(&dtag));
    }

    #[test]
    fn subprefix_enumeration() {
        let d = p("2001:db8::/56");
        assert_eq!(d.num_subprefixes(64).unwrap(), 256);
        assert_eq!(d.nth_subprefix(64, 0xf0).unwrap(), p("2001:db8:0:f0::/64"));
        assert!(d.nth_subprefix(64, 256).is_err());
    }

    #[test]
    fn num_subprefixes_saturates() {
        assert_eq!(p("::/0").num_subprefixes(64).unwrap(), u64::MAX);
        assert_eq!(p("::/0").num_subprefixes(128).unwrap(), u64::MAX);
    }

    #[test]
    fn with_iid_builds_addresses() {
        let pfx = p("2001:db8:0:1::/64");
        let addr = pfx.with_iid(0x0000_0000_0000_0001).unwrap();
        assert_eq!(addr, "2001:db8:0:1::1".parse::<Ipv6Addr>().unwrap());
        assert!(p("2001:db8::/96").with_iid(1).is_err());
    }

    #[test]
    fn paper_cpl_example_prefixes_parse() {
        // The example from Section 5.2 of the paper.
        let a = p("2604:3d08:4b80:aa00::/64");
        let b = p("2604:3d08:4b80:aaf0::/64");
        assert_ne!(a, b);
        assert_eq!(a.supernet(56).unwrap(), b.supernet(56).unwrap());
    }
}
