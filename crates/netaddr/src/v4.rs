//! IPv4 CIDR prefixes.

use crate::error::PrefixError;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A canonical IPv4 CIDR prefix: all bits below `len` are zero.
///
/// Backed by a `u32` so that subnetting arithmetic is plain integer math.
/// The ordering is lexicographic on `(bits, len)`, which sorts prefixes in
/// address order with less-specifics before their more-specifics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

#[allow(
    clippy::len_without_is_empty,
    reason = "`len` is a prefix length, not a container size"
)]
impl Ipv4Prefix {
    /// Maximum prefix length.
    pub const MAX_LEN: u8 = 32;

    /// Construct a prefix, requiring a canonical (masked) network address.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len,
                max: Self::MAX_LEN,
            });
        }
        let bits = u32::from(addr);
        if bits & !mask(len) != 0 {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Self { bits, len })
    }

    /// Construct a prefix, masking away any host bits.
    pub fn new_truncated(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len,
                max: Self::MAX_LEN,
            });
        }
        Ok(Self::masked(u32::from(addr), len))
    }

    /// Construct from raw bits, masking away host bits, where the caller
    /// guarantees `len <= MAX_LEN` (as the prefix trie does for every key
    /// it stores, and code-defined prefixes do by construction). This
    /// path never panics in release builds: a longer `len` is a caller bug
    /// that debug builds assert and release builds saturate.
    pub fn masked(bits: u32, len: u8) -> Self {
        debug_assert!(len <= Self::MAX_LEN, "prefix length {len} out of range");
        let len = len.min(Self::MAX_LEN);
        Self {
            bits: bits & mask(len),
            len,
        }
    }

    /// The /32 prefix covering exactly `addr`.
    pub fn host(addr: Ipv4Addr) -> Self {
        Self {
            bits: u32::from(addr),
            len: 32,
        }
    }

    /// Construct from raw bits (must already be masked).
    pub fn from_bits(bits: u32, len: u8) -> Result<Self, PrefixError> {
        Self::new(Ipv4Addr::from(bits), len)
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The raw network bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the default route `0.0.0.0/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// The last address covered by the prefix.
    pub fn last_address(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits | !mask(self.len))
    }

    /// Number of addresses covered, saturating at `u64::MAX` (only /0 would
    /// need more than 32 bits, and 2^32 fits comfortably in a u64).
    pub fn num_addresses(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask(self.len) == self.bits
    }

    /// Whether `other` is fully covered by this prefix (equal or
    /// more-specific).
    pub fn contains_prefix(&self, other: &Ipv4Prefix) -> bool {
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

    /// Number of subprefixes of length `sub_len` inside this prefix.
    pub fn num_subprefixes(&self, sub_len: u8) -> Result<u64, PrefixError> {
        if sub_len < self.len || sub_len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len: sub_len,
                max: Self::MAX_LEN,
            });
        }
        Ok(1u64 << (sub_len - self.len))
    }

    /// The `index`-th subprefix of length `sub_len`, counting from the
    /// lowest-numbered one.
    pub fn nth_subprefix(&self, sub_len: u8, index: u64) -> Result<Self, PrefixError> {
        let count = self.num_subprefixes(sub_len)?;
        if index >= count {
            return Err(PrefixError::Malformed(format!(
                "subprefix index {index} out of range (count {count})"
            )));
        }
        // Shift in 64-bit space: for sub_len == 0 the shift is 32, which
        // would overflow a u32 shift (index is necessarily 0 there).
        let offset = (index << (32 - sub_len as u32)) as u32;
        Ok(Self {
            bits: self.bits | offset,
            len: sub_len,
        })
    }

    /// The `index`-th address inside this prefix.
    pub fn nth_address(&self, index: u64) -> Result<Ipv4Addr, PrefixError> {
        if index >= self.num_addresses() {
            return Err(PrefixError::Malformed(format!(
                "address index {index} out of range"
            )));
        }
        Ok(Ipv4Addr::from(self.bits | index as u32))
    }

    /// The /24 block containing `addr` — the aggregation granularity the
    /// paper's CDN dataset uses for IPv4.
    pub fn slash24_of(addr: Ipv4Addr) -> Self {
        Self {
            bits: u32::from(addr) & mask(24),
            len: 24,
        }
    }
}

/// Bit mask with the top `len` bits set.
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv4Addr = addr
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

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn construction_rejects_host_bits() {
        let err = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 1), 24).unwrap_err();
        assert_eq!(err, PrefixError::HostBitsSet);
    }

    #[test]
    fn construction_truncates_when_asked() {
        let pfx = Ipv4Prefix::new_truncated(Ipv4Addr::new(10, 0, 0, 1), 24).unwrap();
        assert_eq!(pfx, p("10.0.0.0/24"));
    }

    #[test]
    fn length_out_of_range() {
        assert!(matches!(
            Ipv4Prefix::new(Ipv4Addr::UNSPECIFIED, 33),
            Err(PrefixError::LengthOutOfRange { len: 33, max: 32 })
        ));
    }

    #[test]
    fn display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/ab".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.256/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn contains_address() {
        let pfx = p("192.0.2.0/24");
        assert!(pfx.contains(Ipv4Addr::new(192, 0, 2, 200)));
        assert!(!pfx.contains(Ipv4Addr::new(192, 0, 3, 1)));
    }

    #[test]
    fn contains_prefix_relations() {
        assert!(p("10.0.0.0/8").contains_prefix(&p("10.1.0.0/16")));
        assert!(p("10.0.0.0/8").contains_prefix(&p("10.0.0.0/8")));
        assert!(!p("10.1.0.0/16").contains_prefix(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").contains_prefix(&p("11.0.0.0/16")));
    }

    #[test]
    fn default_route_contains_everything() {
        let def = p("0.0.0.0/0");
        assert!(def.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(def.contains(Ipv4Addr::new(0, 0, 0, 0)));
        assert!(def.is_default());
    }

    #[test]
    fn supernet_masks_bits() {
        assert_eq!(p("10.20.30.0/24").supernet(8).unwrap(), p("10.0.0.0/8"));
        assert!(p("10.0.0.0/8").supernet(16).is_err());
    }

    #[test]
    fn subprefix_enumeration() {
        let pfx = p("10.0.0.0/22");
        assert_eq!(pfx.num_subprefixes(24).unwrap(), 4);
        assert_eq!(pfx.nth_subprefix(24, 0).unwrap(), p("10.0.0.0/24"));
        assert_eq!(pfx.nth_subprefix(24, 3).unwrap(), p("10.0.3.0/24"));
        assert!(pfx.nth_subprefix(24, 4).is_err());
    }

    #[test]
    fn nth_address_covers_range() {
        let pfx = p("198.51.100.0/30");
        assert_eq!(pfx.num_addresses(), 4);
        assert_eq!(pfx.nth_address(3).unwrap(), Ipv4Addr::new(198, 51, 100, 3));
        assert!(pfx.nth_address(4).is_err());
    }

    #[test]
    fn last_address() {
        assert_eq!(
            p("192.0.2.0/24").last_address(),
            Ipv4Addr::new(192, 0, 2, 255)
        );
        assert_eq!(p("1.2.3.4/32").last_address(), Ipv4Addr::new(1, 2, 3, 4));
    }

    #[test]
    fn slash24_aggregation() {
        assert_eq!(
            Ipv4Prefix::slash24_of(Ipv4Addr::new(203, 0, 113, 77)),
            p("203.0.113.0/24")
        );
    }

    #[test]
    fn ordering_sorts_address_order() {
        let mut v = vec![p("10.1.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.1.0.0/16")]);
    }
}
