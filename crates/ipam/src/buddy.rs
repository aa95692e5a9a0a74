//! Buddy-style free-space management over one contiguous index span.
//!
//! The allocator tracks free space as power-of-two blocks: order `o`
//! covers `1 << o` consecutive indices starting at a multiple of
//! `1 << o`. Allocation takes the *lowest* suitable block (splitting a
//! larger block keeps the lower half and frees the upper halves), and
//! release walks the classic XOR-buddy merge: a block at `start` with
//! order `o` merges with the block at `start ^ (1 << o)` whenever that
//! buddy is free, halving fragmentation as leases drain. Both paths are
//! strictly deterministic, so the same call sequence always yields the
//! same addresses.
//!
//! Each order's free list is a sparse bitset with one bit per possible
//! block start (`start >> o`). Leaf words live in 64-word pages that
//! exist only while they hold a free block; above them, zero-allocated
//! summary levels keep one bit per nonempty page and per nonzero
//! summary word, so the lowest free block is a descent of at most four
//! words and membership is one word test. A 64-bit mask of nonempty
//! orders picks the smallest order without probing each list. Memory
//! follows the blocks touched, not the capacity: a zeroed page index of
//! 4 bytes per 4,096 possible starts (about 2 bytes per 1,024 indices
//! summed over all orders, and never faulted in where untouched), plus
//! one 520-byte page per 4,096-start window that holds a free block.
//!
//! This is the shape of ovn's `ipam.c` bitmap allocator crossed with a
//! buddy system: exclusions are carved out at construction with
//! [`BuddyAllocator::claim`], and per-location sub-pools are simply
//! several allocators over adjacent spans (see `pool`).

/// Largest span one allocator manages: a v6 /32 delegating /64s, the
/// widest pool `PoolSpec` accepts.
pub const MAX_CAPACITY: u64 = 1 << 32;

/// Bits in one leaf page: 64 words of 64 bits.
const PAGE_SHIFT: u32 = 12;

/// 64 leaf words plus the mask of which of them are nonzero.
#[derive(Debug, Clone)]
struct Page {
    mask: u64,
    words: [u64; 64],
}

/// A set of bit positions in `[0, len)`, sparse in its leaves.
#[derive(Debug, Clone)]
struct BlockSet {
    /// `slot[p]` is 1 + the arena index of page `p`, or 0 while page
    /// `p` holds no bit.
    slot: Vec<u32>,
    /// Page arena; an emptied page goes to `spare` for reuse.
    pages: Vec<Page>,
    spare: Vec<u32>,
    /// `summary[0]` has one bit per page (set while the page is
    /// nonempty), `summary[k + 1]` one bit per nonzero word of
    /// `summary[k]`. The last level is a single word.
    summary: Vec<Vec<u64>>,
}

impl BlockSet {
    fn new(len: u64) -> BlockSet {
        let pages = len.div_ceil(1 << PAGE_SHIFT).max(1);
        let mut summary = Vec::new();
        let mut bits = pages;
        loop {
            let words = bits.div_ceil(64);
            summary.push(vec![0u64; words as usize]);
            if words <= 1 {
                break;
            }
            bits = words;
        }
        BlockSet {
            slot: vec![0u32; pages as usize],
            pages: Vec::new(),
            spare: Vec::new(),
            summary,
        }
    }

    fn page(&self, p: u64) -> Option<&Page> {
        match self.slot.get(p as usize) {
            Some(&s) if s > 0 => self.pages.get(s as usize - 1),
            _ => None,
        }
    }

    fn is_empty(&self) -> bool {
        self.summary
            .last()
            .and_then(|top| top.first())
            .is_none_or(|w| *w == 0)
    }

    fn contains(&self, bit: u64) -> bool {
        self.page(bit >> PAGE_SHIFT)
            .is_some_and(|page| page.words[((bit >> 6) & 63) as usize] & (1 << (bit & 63)) != 0)
    }

    fn insert(&mut self, bit: u64) {
        let p = bit >> PAGE_SHIFT;
        let s = match self.slot.get(p as usize) {
            Some(&s) if s > 0 => s,
            Some(_) => {
                let s = match self.spare.pop() {
                    Some(s) => s,
                    None => {
                        self.pages.push(Page {
                            mask: 0,
                            words: [0; 64],
                        });
                        self.pages.len() as u32
                    }
                };
                if let Some(entry) = self.slot.get_mut(p as usize) {
                    *entry = s;
                }
                self.mark(p, true);
                s
            }
            None => return,
        };
        if let Some(page) = self.pages.get_mut(s as usize - 1) {
            let w = ((bit >> 6) & 63) as usize;
            page.words[w] |= 1 << (bit & 63);
            page.mask |= 1 << w;
        }
    }

    /// Clear `bit`; returns whether it was set.
    fn remove(&mut self, bit: u64) -> bool {
        let p = bit >> PAGE_SHIFT;
        let s = match self.slot.get(p as usize) {
            Some(&s) if s > 0 => s,
            _ => return false,
        };
        let Some(page) = self.pages.get_mut(s as usize - 1) else {
            return false;
        };
        let w = ((bit >> 6) & 63) as usize;
        let m = 1u64 << (bit & 63);
        if page.words[w] & m == 0 {
            return false;
        }
        page.words[w] &= !m;
        if page.words[w] == 0 {
            page.mask &= !(1 << w);
            if page.mask == 0 {
                if let Some(entry) = self.slot.get_mut(p as usize) {
                    *entry = 0;
                }
                self.spare.push(s);
                self.mark(p, false);
            }
        }
        true
    }

    /// Set or clear page `p`'s summary bit, carrying up the levels
    /// while a word changes between zero and nonzero.
    fn mark(&mut self, p: u64, nonempty: bool) {
        let mut i = p;
        for level in &mut self.summary {
            let Some(word) = level.get_mut((i >> 6) as usize) else {
                return;
            };
            let before = *word;
            if nonempty {
                *word |= 1 << (i & 63);
            } else {
                *word &= !(1 << (i & 63));
            }
            if (before == 0) == (*word == 0) {
                return;
            }
            i >>= 6;
        }
    }

    /// The lowest set bit: one descent through the summary levels.
    fn first(&self) -> Option<u64> {
        let mut i = 0u64;
        for level in self.summary.iter().rev() {
            let word = *level.get(i as usize)?;
            if word == 0 {
                return None;
            }
            i = (i << 6) | u64::from(word.trailing_zeros());
        }
        self.page(i).and_then(|page| lowest_in_page(i, page))
    }

    /// The lowest set bit at or after `from`.
    fn next_from(&self, from: u64) -> Option<u64> {
        let p = from >> PAGE_SHIFT;
        if let Some(page) = self.page(p) {
            let w = (from >> 6) & 63;
            let word = page.words[w as usize] & (!0u64 << (from & 63));
            if word != 0 {
                return Some((p << PAGE_SHIFT) | (w << 6) | u64::from(word.trailing_zeros()));
            }
            let later = page.mask & (!1u64 << w);
            if later != 0 {
                let w = u64::from(later.trailing_zeros());
                let word = page.words[w as usize];
                return Some((p << PAGE_SHIFT) | (w << 6) | u64::from(word.trailing_zeros()));
            }
        }
        let p = self.next_in_level(0, p + 1)?;
        self.page(p).and_then(|page| lowest_in_page(p, page))
    }

    /// The lowest set bit at or after `from` in summary level `level`.
    fn next_in_level(&self, level: usize, from: u64) -> Option<u64> {
        let words = self.summary.get(level)?;
        let wi = from >> 6;
        let word = *words.get(wi as usize)? & (!0u64 << (from & 63));
        if word != 0 {
            return Some((wi << 6) | u64::from(word.trailing_zeros()));
        }
        let wi = self.next_in_level(level + 1, wi + 1)?;
        let word = *words.get(wi as usize)?;
        Some((wi << 6) | u64::from(word.trailing_zeros()))
    }

    /// Every set bit, ascending.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::successors(self.first(), move |&bit| self.next_from(bit + 1))
    }
}

fn lowest_in_page(p: u64, page: &Page) -> Option<u64> {
    if page.mask == 0 {
        return None;
    }
    let w = u64::from(page.mask.trailing_zeros());
    let word = page.words[w as usize];
    Some((p << PAGE_SHIFT) | (w << 6) | u64::from(word.trailing_zeros()))
}

/// A buddy allocator over the half-open index range `[0, capacity)`.
///
/// `capacity` must be a power of two (pools are prefix-sized, so this
/// is free in practice). Indices handed out are offsets into the span;
/// callers map them onto addresses via `netaddr` pools.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Total number of indices managed, always a power of two.
    capacity: u64,
    /// `max_order = capacity.trailing_zeros()`: the order of the single
    /// block that covers the whole span.
    max_order: u32,
    /// `free[o]` holds `start >> o` for every free block of order `o`.
    free: Vec<BlockSet>,
    /// Bit `o` is set while order `o` has a free block.
    nonempty: u64,
    /// Count of free indices, maintained incrementally so stats never
    /// walk the free lists.
    free_addrs: u64,
}

impl BuddyAllocator {
    /// A fully-free allocator over `[0, capacity)`.
    ///
    /// Returns `None` when `capacity` is zero, not a power of two, or
    /// above [`MAX_CAPACITY`].
    pub fn new(capacity: u64) -> Option<BuddyAllocator> {
        if capacity == 0 || !capacity.is_power_of_two() || capacity > MAX_CAPACITY {
            return None;
        }
        let max_order = capacity.trailing_zeros();
        let free = (0..=max_order)
            .map(|o| BlockSet::new(capacity >> o))
            .collect();
        let mut alloc = BuddyAllocator {
            capacity,
            max_order,
            free,
            nonempty: 0,
            free_addrs: capacity,
        };
        alloc.insert_free(max_order, 0);
        Some(alloc)
    }

    /// Number of indices managed (power of two).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of currently free indices.
    pub fn free_addrs(&self) -> u64 {
        self.free_addrs
    }

    /// Size of the largest contiguous free block, in indices.
    pub fn largest_free_block(&self) -> u64 {
        match self.nonempty {
            0 => 0,
            orders => 1u64 << (63 - orders.leading_zeros()),
        }
    }

    /// External fragmentation in permille: `1000 - largest_block * 1000
    /// / free_addrs`, or 0 when nothing is free. 0 means all free space
    /// is one block; values near 1000 mean the free space is shattered.
    pub fn fragmentation_permille(&self) -> u64 {
        if self.free_addrs == 0 {
            return 0;
        }
        1000 - self.largest_free_block().saturating_mul(1000) / self.free_addrs
    }

    /// Allocate one index, splitting larger blocks as needed. Returns
    /// `None` when the span is exhausted.
    ///
    /// Policy: fragmentation-aware best fit — the *smallest* non-empty
    /// order is consumed first (holes are refilled before large blocks
    /// are split), taking the lowest start within that order. Fully
    /// deterministic: the same call sequence always yields the same
    /// indices.
    pub fn take_lowest(&mut self) -> Option<u64> {
        if self.nonempty == 0 {
            return None;
        }
        let order = self.nonempty.trailing_zeros();
        let start = self.free.get(order as usize)?.first()? << order;
        self.remove_free(order, start);
        // Split down to order 0, keeping the lower half each time and
        // freeing the upper half.
        let mut o = order;
        while o > 0 {
            o -= 1;
            self.insert_free(o, start + (1u64 << o));
        }
        self.free_addrs -= 1;
        Some(start)
    }

    /// Claim a specific `index` out of the free space (used for
    /// exclusion lists and sticky re-grants). Returns `false` when the
    /// index is out of range or already taken.
    pub fn claim(&mut self, index: u64) -> bool {
        let Some(order) = self.containing_order(index) else {
            return false;
        };
        let start = index & !((1u64 << order) - 1);
        self.remove_free(order, start);
        // Split the block down, keeping exactly `index` allocated and
        // freeing every sibling half along the way.
        let mut o = order;
        let mut base = start;
        while o > 0 {
            o -= 1;
            let half = 1u64 << o;
            if index < base + half {
                // Index is in the lower half; free the upper half.
                self.insert_free(o, base + half);
            } else {
                // Index is in the upper half; free the lower half.
                self.insert_free(o, base);
                base += half;
            }
        }
        self.free_addrs -= 1;
        true
    }

    /// Whether `index` is currently free.
    pub fn is_free(&self, index: u64) -> bool {
        self.containing_order(index).is_some()
    }

    /// The order of the free block that contains `index`, if any. Free
    /// blocks are disjoint, so at most one order matches.
    fn containing_order(&self, index: u64) -> Option<u32> {
        if index >= self.capacity {
            return None;
        }
        let mut orders = self.nonempty;
        while orders != 0 {
            let order = orders.trailing_zeros();
            orders &= orders - 1;
            if self.is_free_block(order, index >> order) {
                return Some(order);
            }
        }
        None
    }

    fn is_free_block(&self, order: u32, block: u64) -> bool {
        self.free
            .get(order as usize)
            .is_some_and(|set| set.contains(block))
    }

    /// Return `index` to the free space, merging with its buddy at each
    /// order while the buddy is free. Returns `false` (and changes
    /// nothing) when the index is out of range or already free —
    /// double-free is the caller's bug and must not corrupt the lists.
    pub fn give_back(&mut self, index: u64) -> bool {
        if index >= self.capacity || self.is_free(index) {
            return false;
        }
        let mut order = 0u32;
        let mut start = index;
        while order < self.max_order {
            let buddy = start ^ (1u64 << order);
            if !self.is_free_block(order, buddy >> order) {
                break;
            }
            self.remove_free(order, buddy);
            start = start.min(buddy);
            order += 1;
        }
        self.insert_free(order, start);
        self.free_addrs += 1;
        true
    }

    /// Every free block as `(start, len)`, ordered by start — test and
    /// audit surface only. Walks the set bits, never the capacity.
    pub fn free_blocks(&self) -> Vec<(u64, u64)> {
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (order, set) in self.free.iter().enumerate() {
            blocks.extend(set.iter().map(|block| (block << order, 1u64 << order)));
        }
        blocks.sort_unstable();
        blocks
    }

    fn insert_free(&mut self, order: u32, start: u64) {
        if let Some(set) = self.free.get_mut(order as usize) {
            set.insert(start >> order);
            self.nonempty |= 1 << order;
        }
    }

    fn remove_free(&mut self, order: u32, start: u64) {
        if let Some(set) = self.free.get_mut(order as usize) {
            set.remove(start >> order);
            if set.is_empty() {
                self.nonempty &= !(1 << order);
            }
        }
    }
}

#[cfg(test)]
mod oracle {
    //! The ordered-tree buddy the bitset lists replaced, kept as the
    //! reference the lockstep test checks every decision against.

    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    pub struct TreeBuddy {
        capacity: u64,
        max_order: u32,
        free: Vec<BTreeSet<u64>>,
        free_addrs: u64,
    }

    impl TreeBuddy {
        pub fn new(capacity: u64) -> TreeBuddy {
            let max_order = capacity.trailing_zeros();
            let mut free: Vec<BTreeSet<u64>> = (0..=max_order).map(|_| BTreeSet::new()).collect();
            free[max_order as usize].insert(0);
            TreeBuddy {
                capacity,
                max_order,
                free,
                free_addrs: capacity,
            }
        }

        pub fn free_addrs(&self) -> u64 {
            self.free_addrs
        }

        pub fn largest_free_block(&self) -> u64 {
            (0..=self.max_order)
                .rev()
                .find(|o| !self.free[*o as usize].is_empty())
                .map_or(0, |o| 1u64 << o)
        }

        pub fn take_lowest(&mut self) -> Option<u64> {
            let order = (0..=self.max_order).find(|o| !self.free[*o as usize].is_empty())?;
            let start = *self.free[order as usize].first()?;
            self.free[order as usize].remove(&start);
            let mut o = order;
            while o > 0 {
                o -= 1;
                self.free[o as usize].insert(start + (1u64 << o));
            }
            self.free_addrs -= 1;
            Some(start)
        }

        pub fn claim(&mut self, index: u64) -> bool {
            if index >= self.capacity {
                return false;
            }
            let Some((order, start)) = (0..=self.max_order)
                .map(|o| (o, index & !((1u64 << o) - 1)))
                .find(|(o, start)| self.free[*o as usize].contains(start))
            else {
                return false;
            };
            self.free[order as usize].remove(&start);
            let mut o = order;
            let mut base = start;
            while o > 0 {
                o -= 1;
                let half = 1u64 << o;
                if index < base + half {
                    self.free[o as usize].insert(base + half);
                } else {
                    self.free[o as usize].insert(base);
                    base += half;
                }
            }
            self.free_addrs -= 1;
            true
        }

        pub fn is_free(&self, index: u64) -> bool {
            index < self.capacity
                && (0..=self.max_order)
                    .any(|o| self.free[o as usize].contains(&(index & !((1u64 << o) - 1))))
        }

        pub fn give_back(&mut self, index: u64) -> bool {
            if index >= self.capacity || self.is_free(index) {
                return false;
            }
            let mut order = 0u32;
            let mut start = index;
            while order < self.max_order {
                let buddy = start ^ (1u64 << order);
                if !self.free[order as usize].remove(&buddy) {
                    break;
                }
                start = start.min(buddy);
                order += 1;
            }
            self.free[order as usize].insert(start);
            self.free_addrs += 1;
            true
        }

        pub fn free_blocks(&self) -> Vec<(u64, u64)> {
            let mut blocks: Vec<(u64, u64)> = self
                .free
                .iter()
                .enumerate()
                .flat_map(|(o, set)| set.iter().map(move |s| (*s, 1u64 << o)))
                .collect();
            blocks.sort_unstable();
            blocks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::TreeBuddy;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_non_power_of_two() {
        assert!(BuddyAllocator::new(0).is_none());
        assert!(BuddyAllocator::new(3).is_none());
        assert!(BuddyAllocator::new(12).is_none());
        assert!(BuddyAllocator::new(16).is_some());
        assert!(BuddyAllocator::new(MAX_CAPACITY).is_some());
        assert!(BuddyAllocator::new(MAX_CAPACITY << 1).is_none());
    }

    #[test]
    fn allocates_lowest_first_in_order() {
        let mut b = BuddyAllocator::new(8).unwrap();
        let got: Vec<u64> = (0..8).filter_map(|_| b.take_lowest()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(b.take_lowest(), None);
        assert_eq!(b.free_addrs(), 0);
    }

    #[test]
    fn release_merges_back_to_one_block() {
        let mut b = BuddyAllocator::new(16).unwrap();
        let taken: Vec<u64> = (0..16).filter_map(|_| b.take_lowest()).collect();
        for index in taken {
            assert!(b.give_back(index));
        }
        assert_eq!(b.free_addrs(), 16);
        assert_eq!(b.free_blocks(), vec![(0, 16)]);
        assert_eq!(b.fragmentation_permille(), 0);
    }

    #[test]
    fn double_free_is_rejected_without_corruption() {
        let mut b = BuddyAllocator::new(4).unwrap();
        let i = b.take_lowest().unwrap();
        assert!(b.give_back(i));
        assert!(!b.give_back(i));
        assert_eq!(b.free_addrs(), 4);
        assert_eq!(b.free_blocks(), vec![(0, 4)]);
    }

    #[test]
    fn claim_carves_a_specific_index() {
        let mut b = BuddyAllocator::new(16).unwrap();
        assert!(b.claim(5));
        assert!(!b.is_free(5));
        assert!(!b.claim(5));
        assert!(!b.claim(99));
        assert_eq!(b.free_addrs(), 15);
        // Best fit consumes the fragments the carve-out left (the
        // order-0 hole at 4, then the order-1 block {6,7}) before
        // splitting the big low block; the claimed index never appears.
        let got: Vec<u64> = (0..5).filter_map(|_| b.take_lowest()).collect();
        assert_eq!(got, vec![4, 6, 7, 0, 1]);
        assert_eq!(b.take_lowest(), Some(2));
    }

    #[test]
    fn fragmentation_reflects_shattered_free_space() {
        let mut b = BuddyAllocator::new(8).unwrap();
        let all: Vec<u64> = (0..8).filter_map(|_| b.take_lowest()).collect();
        // Free every other index: four free singletons, no merges.
        for index in all.iter().filter(|i| *i % 2 == 0) {
            assert!(b.give_back(*index));
        }
        assert_eq!(b.free_addrs(), 4);
        assert_eq!(b.largest_free_block(), 1);
        assert_eq!(b.fragmentation_permille(), 750);
    }

    #[test]
    fn holes_are_refilled_before_blocks_are_split() {
        let mut b = BuddyAllocator::new(8).unwrap();
        let a0 = b.take_lowest().unwrap();
        let a1 = b.take_lowest().unwrap();
        assert!(b.give_back(a0));
        // a0's buddy a1 is still held, so a0 stays an order-0 hole and
        // must be reused before the big free block is split.
        assert_eq!(b.take_lowest(), Some(a0));
        assert!(b.give_back(a1));
    }

    #[test]
    fn block_set_walks_across_pages_and_summary_levels() {
        // 2^22 bits: 1,024 pages under two summary levels.
        let mut set = BlockSet::new(1 << 22);
        let bits = [0u64, 63, 64, 4_095, 4_096, 262_143, 262_144, (1 << 22) - 1];
        for &bit in bits.iter().rev() {
            set.insert(bit);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), bits);
        assert_eq!(set.next_from(65), Some(4_095));
        assert_eq!(set.next_from(262_145), Some((1 << 22) - 1));
        for &bit in &bits {
            assert!(set.contains(bit));
            assert!(set.remove(bit));
            assert!(!set.remove(bit));
        }
        assert!(set.is_empty());
        assert_eq!(set.first(), None);
        // Every emptied page went back to the spare list.
        assert_eq!(set.spare.len(), set.pages.len());
    }

    #[test]
    fn largest_span_lists_free_blocks_by_walking_set_bits() {
        let mut b = BuddyAllocator::new(MAX_CAPACITY).unwrap();
        let taken: Vec<u64> = (0..5).filter_map(|_| b.take_lowest()).collect();
        assert_eq!(taken, vec![0, 1, 2, 3, 4]);
        assert!(b.claim(MAX_CAPACITY - 1));
        // Free below: {5}, {6,7}, then one block of each order 3..=30;
        // the top half is split into orders 0..=30 around its last index.
        let blocks = b.free_blocks();
        assert_eq!(blocks.len(), 2 + 28 + 31);
        assert_eq!(blocks.first(), Some(&(5, 1)));
        assert_eq!(blocks.last(), Some(&(MAX_CAPACITY - 2, 1)));
        assert_eq!(b.largest_free_block(), 1 << 30);
        assert!(b.give_back(MAX_CAPACITY - 1));
        for index in taken {
            assert!(b.give_back(index));
        }
        assert_eq!(b.free_blocks(), vec![(0, MAX_CAPACITY)]);
    }

    /// One seeded sequence of take / give-back / claim / is-free calls,
    /// checked call by call against the ordered-tree oracle. `take_bias`
    /// is the share (of 100) of calls that take, so low values keep the
    /// span mostly free and high ones drive it to exhaustion.
    fn lockstep(capacity: u64, seed: u64, calls: usize, take_bias: u32) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fast = BuddyAllocator::new(capacity).unwrap();
        let mut tree = TreeBuddy::new(capacity);
        let mut held: Vec<u64> = Vec::new();
        // Indices near a few page and summary boundaries, plus random
        // ones and a few past the end.
        let pick = |rng: &mut SmallRng| -> u64 {
            match rng.gen_range(0u32..4) {
                0 => rng.gen_range(0..capacity.min(64)),
                1 => {
                    let edge = [64u64, 4_096, 262_144][rng.gen_range(0..3usize)];
                    (edge % capacity + rng.gen_range(0..3)).saturating_sub(1) % capacity
                }
                2 => capacity + rng.gen_range(0..3),
                _ => rng.gen_range(0..capacity),
            }
        };
        for call in 0..calls {
            let roll = rng.gen_range(0u32..100);
            let what = if roll < take_bias {
                let got = fast.take_lowest();
                assert_eq!(got, tree.take_lowest(), "take, call {call}");
                held.extend(got);
                "take"
            } else if roll < take_bias + (100 - take_bias) / 2 && !held.is_empty() {
                let index = held.swap_remove(rng.gen_range(0..held.len()));
                assert!(fast.give_back(index), "give_back {index}, call {call}");
                assert!(tree.give_back(index));
                "give_back"
            } else {
                let index = pick(&mut rng);
                match rng.gen_range(0u32..3) {
                    0 => {
                        let got = fast.claim(index);
                        assert_eq!(got, tree.claim(index), "claim {index}, call {call}");
                        if got {
                            held.push(index);
                        }
                    }
                    // A double or foreign free changes nothing; a free
                    // of a held index releases it.
                    1 => {
                        let got = fast.give_back(index);
                        assert_eq!(got, tree.give_back(index), "stray give_back {index}");
                        if got {
                            held.retain(|h| *h != index);
                        }
                    }
                    _ => assert_eq!(fast.is_free(index), tree.is_free(index), "is_free {index}"),
                }
                "probe"
            };
            assert_eq!(fast.free_addrs(), tree.free_addrs(), "{what}, call {call}");
            assert_eq!(fast.largest_free_block(), tree.largest_free_block());
            assert_eq!(
                fast.free_blocks(),
                tree.free_blocks(),
                "{what}, call {call}"
            );
        }
        // Drain: everything held goes back, and both merge to one block.
        for index in held {
            assert!(fast.give_back(index));
            assert!(tree.give_back(index));
        }
        assert_eq!(fast.free_blocks(), vec![(0, capacity)]);
        assert_eq!(tree.free_blocks(), vec![(0, capacity)]);
    }

    #[test]
    fn bitset_lists_match_the_tree_oracle_call_for_call() {
        for pow in 0..=22u32 {
            let capacity = 1u64 << pow;
            let calls = if pow <= 12 { 1_500 } else { 400 };
            lockstep(capacity, 0xB0DD ^ u64::from(pow), calls, 45);
            lockstep(capacity, 0x5EED ^ u64::from(pow), calls, 80);
        }
    }

    #[test]
    fn bitset_lists_match_the_oracle_through_exhaustion() {
        // Enough takes to cross several 4,096-bit pages of order 0.
        lockstep(1 << 14, 99, 12_000, 70);
        lockstep(1 << 13, 7, 20_000, 95);
    }
}
