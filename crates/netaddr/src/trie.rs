//! Binary tries with longest-prefix-match lookup.
//!
//! Used for the pfx2as-style routing tables (`dynamips-routing`) that map an
//! address to the BGP prefix and origin AS covering it, mirroring how the
//! paper maps Atlas/CDN addresses through the Routeviews pfx2as dataset.
//!
//! The implementation is a plain (uncompressed) binary trie: one node per
//! key bit. Simplicity and robustness are preferred over path compression;
//! its cost shows inside perfbench's `batch-all` world and observe stages.

use crate::v4::Ipv4Prefix;
use crate::v6::Ipv6Prefix;

/// One trie node; values live on the node terminating a stored prefix.
#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Default for Node<V> {
    fn default() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

/// Generic binary trie over left-aligned `u128` keys of up to `MAX` bits.
#[derive(Debug, Clone)]
struct BitTrie<V, const MAX: u8> {
    root: Node<V>,
    len: usize,
}

impl<V, const MAX: u8> Default for BitTrie<V, MAX> {
    fn default() -> Self {
        BitTrie {
            root: Node::default(),
            len: 0,
        }
    }
}

/// Extract bit `i` (0 = most significant of the key space) of a left-aligned
/// key.
fn bit_at(bits: u128, i: u8) -> usize {
    ((bits >> (127 - i as u32)) & 1) as usize
}

impl<V, const MAX: u8> BitTrie<V, MAX> {
    /// Insert a value for `(bits, plen)`; returns the previous value if the
    /// prefix was already present.
    fn insert(&mut self, bits: u128, plen: u8, value: V) -> Option<V> {
        debug_assert!(plen <= MAX);
        let mut node = &mut self.root;
        for i in 0..plen {
            let b = bit_at(bits, i);
            node = node.children[b].get_or_insert_with(Box::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup.
    fn get(&self, bits: u128, plen: u8) -> Option<&V> {
        let mut node = &self.root;
        for i in 0..plen {
            node = node.children[bit_at(bits, i)].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Longest-prefix match for a full-length key; returns the matched
    /// prefix length and value.
    fn lookup(&self, bits: u128) -> Option<(u8, &V)> {
        self.lookup_at_most(bits, MAX)
    }

    /// Longest-prefix match considering only stored prefixes of length
    /// ≤ `max_len`. Used when the query key is itself a prefix.
    fn lookup_at_most(&self, bits: u128, max_len: u8) -> Option<(u8, &V)> {
        let mut node = &self.root;
        let mut best: Option<(u8, &V)> = node.value.as_ref().map(|v| (0, v));
        for i in 0..max_len {
            match node.children[bit_at(bits, i)].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Remove a prefix; returns the removed value. Empty branches are left
    /// in place (removal is rare in our workloads; memory is reclaimed when
    /// the trie is dropped).
    fn remove(&mut self, bits: u128, plen: u8) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..plen {
            node = node.children[bit_at(bits, i)].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Depth-first traversal yielding `(bits, plen, value)` in address order.
    fn for_each<'a>(&'a self, f: &mut impl FnMut(u128, u8, &'a V)) {
        fn walk<'a, V>(
            node: &'a Node<V>,
            bits: u128,
            depth: u8,
            f: &mut impl FnMut(u128, u8, &'a V),
        ) {
            if let Some(v) = node.value.as_ref() {
                f(bits, depth, v);
            }
            if let Some(child) = node.children[0].as_deref() {
                walk(child, bits, depth + 1, f);
            }
            if let Some(child) = node.children[1].as_deref() {
                walk(child, bits | (1u128 << (127 - depth as u32)), depth + 1, f);
            }
        }
        walk(&self.root, 0, 0, f);
    }
}

/// A longest-prefix-match trie keyed by [`Ipv4Prefix`].
#[derive(Debug, Clone)]
pub struct Ipv4Trie<V> {
    inner: BitTrie<V, 32>,
}

impl<V> Default for Ipv4Trie<V> {
    fn default() -> Self {
        Ipv4Trie {
            inner: BitTrie::default(),
        }
    }
}

impl<V> Ipv4Trie<V> {
    /// Create an empty trie.
    pub fn new() -> Self {
        Ipv4Trie {
            inner: BitTrie::default(),
        }
    }

    /// Insert a value for `prefix`; returns the previous value if present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        self.inner
            .insert((prefix.bits() as u128) << 96, prefix.len(), value)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&V> {
        self.inner.get((prefix.bits() as u128) << 96, prefix.len())
    }

    /// Longest-prefix match for an address; returns the covering prefix and
    /// its value.
    pub fn lookup(&self, addr: std::net::Ipv4Addr) -> Option<(Ipv4Prefix, &V)> {
        let bits = (u32::from(addr) as u128) << 96;
        self.inner
            .lookup(bits)
            .map(|(plen, v)| (Ipv4Prefix::masked(u32::from(addr), plen), v))
    }

    /// Remove a prefix; returns the removed value.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<V> {
        self.inner
            .remove((prefix.bits() as u128) << 96, prefix.len())
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored `(prefix, value)` pairs in address order.
    pub fn entries(&self) -> Vec<(Ipv4Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len());
        self.inner.for_each(&mut |bits, plen, v| {
            out.push((Ipv4Prefix::masked((bits >> 96) as u32, plen), v));
        });
        out
    }
}

/// A longest-prefix-match trie keyed by [`Ipv6Prefix`].
#[derive(Debug, Clone)]
pub struct Ipv6Trie<V> {
    inner: BitTrie<V, 128>,
}

impl<V> Default for Ipv6Trie<V> {
    fn default() -> Self {
        Ipv6Trie {
            inner: BitTrie::default(),
        }
    }
}

impl<V> Ipv6Trie<V> {
    /// Create an empty trie.
    pub fn new() -> Self {
        Ipv6Trie {
            inner: BitTrie::default(),
        }
    }

    /// Insert a value for `prefix`; returns the previous value if present.
    pub fn insert(&mut self, prefix: Ipv6Prefix, value: V) -> Option<V> {
        self.inner.insert(prefix.bits(), prefix.len(), value)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv6Prefix) -> Option<&V> {
        self.inner.get(prefix.bits(), prefix.len())
    }

    /// Longest-prefix match for an address; returns the covering prefix and
    /// its value.
    pub fn lookup(&self, addr: std::net::Ipv6Addr) -> Option<(Ipv6Prefix, &V)> {
        self.inner
            .lookup(u128::from(addr))
            .map(|(plen, v)| (Ipv6Prefix::masked(u128::from(addr), plen), v))
    }

    /// Longest-prefix match for a prefix (matches any covering prefix of
    /// equal or shorter length). Useful for mapping /64s to BGP routes.
    pub fn lookup_prefix(&self, prefix: &Ipv6Prefix) -> Option<(Ipv6Prefix, &V)> {
        self.inner
            .lookup_at_most(prefix.bits(), prefix.len())
            .map(|(plen, v)| (Ipv6Prefix::masked(prefix.bits(), plen), v))
    }

    /// Remove a prefix; returns the removed value.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<V> {
        self.inner.remove(prefix.bits(), prefix.len())
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored `(prefix, value)` pairs in address order.
    pub fn entries(&self) -> Vec<(Ipv6Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len());
        self.inner.for_each(&mut |bits, plen, v| {
            out.push((Ipv6Prefix::masked(bits, plen), v));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn p6(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn v4_longest_prefix_match() {
        let mut t = Ipv4Trie::new();
        t.insert(p4("10.0.0.0/8"), "coarse");
        t.insert(p4("10.1.0.0/16"), "fine");
        let (pfx, v) = t.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!((pfx, *v), (p4("10.1.0.0/16"), "fine"));
        let (pfx, v) = t.lookup(Ipv4Addr::new(10, 2, 2, 3)).unwrap();
        assert_eq!((pfx, *v), (p4("10.0.0.0/8"), "coarse"));
        assert!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn v4_default_route() {
        let mut t = Ipv4Trie::new();
        t.insert(p4("0.0.0.0/0"), 0u32);
        t.insert(p4("192.0.2.0/24"), 1u32);
        assert_eq!(t.lookup(Ipv4Addr::new(8, 8, 8, 8)).unwrap().1, &0);
        assert_eq!(t.lookup(Ipv4Addr::new(192, 0, 2, 9)).unwrap().1, &1);
    }

    #[test]
    fn v4_insert_replaces() {
        let mut t = Ipv4Trie::new();
        assert_eq!(t.insert(p4("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p4("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p4("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn v4_remove() {
        let mut t = Ipv4Trie::new();
        t.insert(p4("10.0.0.0/8"), 1);
        t.insert(p4("10.1.0.0/16"), 2);
        assert_eq!(t.remove(&p4("10.1.0.0/16")), Some(2));
        assert_eq!(t.remove(&p4("10.1.0.0/16")), None);
        assert_eq!(t.len(), 1);
        // The less specific still matches.
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap().0,
            p4("10.0.0.0/8")
        );
    }

    #[test]
    fn v4_entries_in_address_order() {
        let mut t = Ipv4Trie::new();
        t.insert(p4("192.0.2.0/24"), ());
        t.insert(p4("10.0.0.0/8"), ());
        t.insert(p4("10.1.0.0/16"), ());
        let keys: Vec<_> = t.entries().into_iter().map(|(p, _)| p).collect();
        assert_eq!(
            keys,
            vec![p4("10.0.0.0/8"), p4("10.1.0.0/16"), p4("192.0.2.0/24")]
        );
    }

    #[test]
    fn v6_longest_prefix_match() {
        let mut t = Ipv6Trie::new();
        t.insert(p6("2003::/19"), 3320u32); // DTAG
        t.insert(p6("2003:40::/32"), 99u32);
        let addr: Ipv6Addr = "2003:40:a0:1::1".parse().unwrap();
        let (pfx, v) = t.lookup(addr).unwrap();
        assert_eq!((pfx, *v), (p6("2003:40::/32"), 99));
        let addr: Ipv6Addr = "2003:80::1".parse().unwrap();
        assert_eq!(*t.lookup(addr).unwrap().1, 3320);
        let addr: Ipv6Addr = "2a00::1".parse().unwrap();
        assert!(t.lookup(addr).is_none());
    }

    #[test]
    fn v6_lookup_prefix_matches_covering_route() {
        let mut t = Ipv6Trie::new();
        t.insert(p6("2003::/19"), "dtag");
        let (route, v) = t.lookup_prefix(&p6("2003:40:a0:aa00::/64")).unwrap();
        assert_eq!((route, *v), (p6("2003::/19"), "dtag"));
        assert!(t.lookup_prefix(&p6("2a00::/64")).is_none());
    }

    #[test]
    fn v6_lookup_prefix_ignores_more_specific_routes() {
        let mut t = Ipv6Trie::new();
        // A /80 route should never "cover" a /64 query key.
        t.insert(p6("2001:db8:0:1::/80"), "too-specific");
        assert!(t.lookup_prefix(&p6("2001:db8:0:1::/64")).is_none());
        // ...but a genuinely covering shorter route still wins.
        t.insert(p6("2001:db8::/32"), "covering");
        let (route, v) = t.lookup_prefix(&p6("2001:db8:0:1::/64")).unwrap();
        assert_eq!((route, *v), (p6("2001:db8::/32"), "covering"));
    }

    #[test]
    fn v6_full_length_keys() {
        let mut t = Ipv6Trie::new();
        let host = p6("2001:db8::1/128");
        t.insert(host, 7);
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(t.lookup(addr).unwrap(), (host, &7));
        let other: Ipv6Addr = "2001:db8::2".parse().unwrap();
        assert!(t.lookup(other).is_none());
    }

    #[test]
    fn len_tracks_mutations() {
        let mut t = Ipv6Trie::new();
        assert!(t.is_empty());
        t.insert(p6("2001:db8::/32"), ());
        t.insert(p6("2001:db8::/48"), ());
        assert_eq!(t.len(), 2);
        t.insert(p6("2001:db8::/32"), ());
        assert_eq!(t.len(), 2);
        t.remove(&p6("2001:db8::/48"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_and_entries_at_zero_and_full_length() {
        let mut t4 = Ipv4Trie::new();
        t4.insert(p4("0.0.0.0/0"), 0);
        t4.insert(p4("192.0.2.7/32"), 32);
        let (pfx, v) = t4.lookup(Ipv4Addr::new(192, 0, 2, 7)).unwrap();
        assert_eq!((pfx, *v), (p4("192.0.2.7/32"), 32));
        let (pfx, v) = t4.lookup(Ipv4Addr::new(192, 0, 2, 8)).unwrap();
        assert_eq!((pfx, *v), (p4("0.0.0.0/0"), 0));
        let got: Vec<_> = t4.entries().into_iter().map(|(p, v)| (p, *v)).collect();
        assert_eq!(got, vec![(p4("0.0.0.0/0"), 0), (p4("192.0.2.7/32"), 32)]);

        let mut t6 = Ipv6Trie::new();
        t6.insert(p6("::/0"), 0);
        t6.insert(p6("2001:db8::1/128"), 128);
        let host: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let other: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let (pfx, v) = t6.lookup(host).unwrap();
        assert_eq!((pfx, *v), (p6("2001:db8::1/128"), 128));
        let (pfx, v) = t6.lookup(other).unwrap();
        assert_eq!((pfx, *v), (p6("::/0"), 0));
        let got: Vec<_> = t6.entries().into_iter().map(|(p, v)| (p, *v)).collect();
        assert_eq!(got, vec![(p6("::/0"), 0), (p6("2001:db8::1/128"), 128)]);
    }
}
