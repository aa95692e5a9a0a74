//! A small, thread-safe, bounded LRU keyed by `Ord` keys, filled only
//! through [`LruCache::fetch_or_build`].
//!
//! Lookups are two-phase: the map lock is held only long enough to
//! claim a per-key `OnceLock` slot; the (potentially very expensive)
//! value construction runs outside the lock inside
//! `OnceLock::get_or_init`, so concurrent requests for the
//! same key build the value exactly once while requests for other keys
//! proceed unblocked. A builder that panics leaves its slot empty
//! (`get_or_init` stores nothing), so the next lookup of that key builds
//! again. Eviction removes the least-recently-used *map entries*;
//! in-flight builders keep their slot alive via `Arc`, so an
//! evicted-while-building value is still returned to its requesters and
//! simply isn't cached afterwards. A key is meant to carry everything its
//! value is a pure function of, so a cached value is never out of date
//! and eviction only ever costs a rebuild.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

struct Entry<V> {
    slot: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
}

struct Inner<K, V> {
    map: BTreeMap<K, Entry<V>>,
    tick: u64,
}

/// Outcome of one cache lookup.
pub struct CacheLookup<V> {
    /// The cached (or freshly built) value.
    pub value: Arc<V>,
    /// Whether this lookup was answered without running its builder: the
    /// value was resident, or another caller's in-flight build supplied it.
    pub hit: bool,
    /// How many entries this lookup evicted to stay within capacity.
    pub evicted: u64,
}

/// Bounded LRU cache; see the module docs for the locking protocol.
pub struct LruCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    cap: usize,
}

impl<K: Ord + Clone, V> LruCache<K, V> {
    /// A cache holding at most `cap` entries (floored at 1).
    pub fn bounded(cap: usize) -> LruCache<K, V> {
        LruCache {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
            }),
            cap: cap.max(1),
        }
    }

    /// Fetch `key`, building the value with `build` on a miss. `build`
    /// runs without the map lock held.
    pub fn fetch_or_build<F: FnOnce() -> V>(&self, key: K, build: F) -> CacheLookup<V> {
        let (slot, victims) = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.tick += 1;
            let tick = inner.tick;
            let slot = match inner.map.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = tick;
                    Arc::clone(&entry.slot)
                }
                None => {
                    let slot = Arc::new(OnceLock::new());
                    inner.map.insert(
                        key.clone(),
                        Entry {
                            slot: Arc::clone(&slot),
                            last_used: tick,
                        },
                    );
                    slot
                }
            };
            let victims = evict_over_cap(&mut inner, self.cap, &key);
            (slot, victims)
        };
        // Guard released: dropping a victim here may free the last Arc to
        // a user value, and user Drop code must never run under the shard
        // lock (it can take arbitrary time or take other locks).
        let evicted = victims.len() as u64;
        drop(victims);
        let mut built = false;
        let value = Arc::clone(slot.get_or_init(|| {
            built = true;
            Arc::new(build())
        }));
        CacheLookup {
            value,
            hit: !built,
            evicted,
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resident values whose build has finished, in key order.
    pub fn resident_values(&self) -> Vec<Arc<V>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .map
            .values()
            .filter_map(|entry| entry.slot.get().cloned())
            .collect()
    }
}

/// Evict least-recently-used entries (never `keep`) until the map fits
/// in `cap`. The removed entries are *returned*, not dropped: the caller
/// holds the shard lock, and dropping an entry can free the last `Arc`
/// to a user value — user `Drop` code must run after the lock is
/// released.
fn evict_over_cap<K: Ord + Clone, V>(
    inner: &mut Inner<K, V>,
    cap: usize,
    keep: &K,
) -> Vec<Entry<V>> {
    let mut victims = Vec::new();
    while inner.map.len() > cap {
        let victim = inner
            .map
            .iter()
            .filter(|(k, _)| *k != keep)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        match victim {
            Some(v) => {
                if let Some(entry) = inner.map.remove(&v) {
                    victims.push(entry);
                }
            }
            None => break,
        }
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn second_lookup_is_a_hit_and_builds_once() {
        let cache: LruCache<u32, u64> = LruCache::bounded(4);
        let builds = AtomicU64::new(0);
        let a = cache.fetch_or_build(7, || {
            builds.fetch_add(1, Ordering::SeqCst);
            70
        });
        let b = cache.fetch_or_build(7, || {
            builds.fetch_add(1, Ordering::SeqCst);
            71
        });
        assert!(!a.hit);
        assert!(b.hit);
        assert_eq!((*a.value, *b.value), (70, 70));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let cache: LruCache<u32, u32> = LruCache::bounded(2);
        cache.fetch_or_build(1, || 1);
        cache.fetch_or_build(2, || 2);
        cache.fetch_or_build(1, || 10); // touch 1 so 2 is now LRU
        let third = cache.fetch_or_build(3, || 3);
        assert_eq!(third.evicted, 1);
        assert_eq!(cache.len(), 2);
        // Key 2 was evicted; rebuilding it is a miss with the new value,
        // and reinserting it pushes out key 1 (now the LRU entry).
        let back = cache.fetch_or_build(2, || 22);
        assert!(!back.hit);
        assert_eq!(*back.value, 22);
        assert_eq!(back.evicted, 1);
        let one = cache.fetch_or_build(1, || 99);
        assert!(!one.hit);
        assert_eq!(*one.value, 99);
        assert_eq!(one.evicted, 1);
    }

    #[test]
    fn a_panicking_build_is_not_cached_and_the_next_lookup_builds_once() {
        let cache: LruCache<u32, u32> = LruCache::bounded(2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.fetch_or_build(5, || panic!("build failed"))
        }));
        assert!(panicked.is_err());
        let builds = AtomicU64::new(0);
        let retry = cache.fetch_or_build(5, || {
            builds.fetch_add(1, Ordering::SeqCst);
            50
        });
        assert!(!retry.hit, "the panicked build left the key unbuilt");
        let again = cache.fetch_or_build(5, || {
            builds.fetch_add(1, Ordering::SeqCst);
            51
        });
        assert!(again.hit);
        assert_eq!((*retry.value, *again.value), (50, 50));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn eviction_drops_run_outside_the_shard_lock() {
        // A value whose Drop re-enters the cache: if eviction dropped it
        // while holding the shard lock this would deadlock.
        struct Probe {
            cache: std::sync::Weak<LruCache<u32, Probe>>,
            drops: Arc<AtomicU64>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(cache) = self.cache.upgrade() {
                    let _ = cache.len();
                    self.drops.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let cache: Arc<LruCache<u32, Probe>> = Arc::new(LruCache::bounded(1));
        let drops = Arc::new(AtomicU64::new(0));
        let mut evicted = 0;
        for key in 0..3 {
            let probe = Probe {
                cache: Arc::downgrade(&cache),
                drops: Arc::clone(&drops),
            };
            // The lookup's own `Arc` drops at the end of this statement,
            // so the cache holds the last reference to each value and
            // evicting it runs `Probe::drop`.
            evicted += cache.fetch_or_build(key, || probe).evicted;
        }
        assert_eq!(evicted, 2);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_same_key_builds_exactly_once() {
        let cache: Arc<LruCache<u8, String>> = Arc::new(LruCache::bounded(2));
        let builds = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            #[allow(clippy::disallowed_methods, reason = "concurrent builders")]
            handles.push(std::thread::spawn(move || {
                let got = cache.fetch_or_build(1, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    "value".to_string()
                });
                got.value.clone()
            }));
        }
        for h in handles {
            assert_eq!(*h.join().unwrap(), "value");
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }
}
