//! The polyvariant cache store: one sealed cache per invariant fingerprint.
//!
//! The paper keeps a single cache per specialization, so any invariant
//! churn pays a full loader re-run (§5.2's breakeven-at-2 penalty). The
//! data-specialization analogue of *polyvariant* specialization is to keep
//! one sealed [`CacheBuf`] per invariant-input fingerprint and let requests
//! re-attach to whichever context they belong to. [`CacheStore`] is that
//! map: sharded for concurrency, LRU-bounded by a configurable global
//! capacity, and shared between [`Session`](crate::Session)s through an
//! [`Arc`](std::sync::Arc).
//!
//! ## Concurrency model
//!
//! Entries are immutable once inserted: sessions *clone* an entry out on a
//! hit and execute against their private copy, so a reader can never
//! observe a torn cache. The store itself is a plain sharded mutex map —
//! the hot path (repeated requests under one fingerprint) never touches it,
//! because each session keeps its last entry locally and only comes back to
//! the store on a fingerprint switch.
//!
//! ## Eviction
//!
//! The capacity bound is **global**, not per-shard: a shard hashing
//! accident can therefore never evict an entry while the store holds fewer
//! than `capacity` entries (the acceptance criterion "capacity ≥ distinct
//! fingerprints ⇒ no thrash"), and `capacity == 1` degrades exactly to the
//! old single-entry rebuild behavior, with evictions counted. Eviction
//! scans shard by shard for the globally least-recently-used stamp; stamps
//! come from one atomic clock shared by all shards.

use ds_interp::CacheBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One sealed cache: the buffer plus the content hash recorded when its
/// loader finished. Validation against the seal happens in the session,
/// after cloning the entry out.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// The loaded buffer (including its tamper-detection shadow, so
    /// corruption survives the round trip through the store and is still
    /// caught by whichever session consumes it).
    pub cache: CacheBuf,
    /// `cache.content_hash()` at seal time.
    pub seal: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// `(fingerprint, entry, last_used)` — shards hold a handful of
    /// entries, so a linear scan beats hashing twice.
    entries: Vec<(u64, StoreEntry, u64)>,
}

/// A sharded, LRU-bounded map from invariant fingerprint to sealed cache.
#[derive(Debug)]
pub struct CacheStore {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    len: AtomicUsize,
    clock: AtomicU64,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CacheStore>();
};

/// A shard count above the worker count stops buying contention relief;
/// eight covers the machines we target without bloating tiny stores.
const MAX_SHARDS: usize = 8;

impl CacheStore {
    /// Creates a store bounded to `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = capacity.min(MAX_SHARDS);
        CacheStore {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity,
            len: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
        }
    }

    /// The configured global capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held (approximate only while inserts race).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, fp: u64) -> &Mutex<Shard> {
        &self.shards[(fp % self.shards.len() as u64) as usize]
    }

    fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
        // A panic elsewhere can only have happened between complete
        // entries (pushes and removals are atomic w.r.t. the guard), so a
        // poisoned shard still holds well-formed, seal-checked entries.
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Applies `f` to the entry for `fp`, refreshing its LRU stamp.
    /// `None` is a store miss.
    fn with_entry<R>(&self, fp: u64, f: impl FnOnce(&StoreEntry) -> R) -> Option<R> {
        let stamp = self.tick();
        let mut sh = Self::lock(self.shard(fp));
        sh.entries
            .iter_mut()
            .find(|(f, _, _)| *f == fp)
            .map(|(_, e, used)| {
                *used = stamp;
                f(e)
            })
    }

    /// Clones the entry for `fp` out of the store, refreshing its LRU
    /// stamp. `None` is a store miss.
    pub fn get(&self, fp: u64) -> Option<StoreEntry> {
        self.with_entry(fp, StoreEntry::clone)
    }

    /// Whether the store holds `fp`, refreshing its LRU stamp exactly as
    /// [`CacheStore::get`] does but without cloning the entry out.
    pub fn touch(&self, fp: u64) -> bool {
        self.with_entry(fp, |_| ()).is_some()
    }

    /// Inserts (or replaces) the sealed entry for `fp`, then enforces the
    /// global capacity bound. Returns how many entries were evicted.
    pub fn insert(&self, fp: u64, entry: StoreEntry) -> u64 {
        let stamp = self.tick();
        {
            let mut sh = Self::lock(self.shard(fp));
            if let Some(slot) = sh.entries.iter_mut().find(|(f, _, _)| *f == fp) {
                slot.1 = entry;
                slot.2 = stamp;
                return 0;
            }
            sh.entries.push((fp, entry, stamp));
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0;
        while self.len.load(Ordering::Relaxed) > self.capacity {
            match self.evict_lru() {
                Evict::Removed => evicted += 1,
                Evict::Raced => continue,
                Evict::Empty => break,
            }
        }
        evicted
    }

    /// Drops the entry for `fp`, if present — called when a session finds
    /// the entry fails validation, so a damaged cache cannot be re-served.
    pub fn invalidate(&self, fp: u64) -> bool {
        let mut sh = Self::lock(self.shard(fp));
        if let Some(pos) = sh.entries.iter().position(|(f, _, _)| *f == fp) {
            sh.entries.swap_remove(pos);
            drop(sh);
            self.len.fetch_sub(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Removes the entry with the globally smallest LRU stamp, locking one
    /// shard at a time (never two, so eviction cannot deadlock a serving
    /// worker).
    fn evict_lru(&self) -> Evict {
        let mut best: Option<(usize, u64, u64)> = None; // (shard, fp, stamp)
        for (i, m) in self.shards.iter().enumerate() {
            let sh = Self::lock(m);
            for (f, _, used) in &sh.entries {
                if best.is_none_or(|(_, _, b)| *used < b) {
                    best = Some((i, *f, *used));
                }
            }
        }
        let Some((i, fp, stamp)) = best else {
            return Evict::Empty;
        };
        let mut sh = Self::lock(&self.shards[i]);
        // Re-check the stamp: a concurrent `get` may have refreshed the
        // entry between the scan and this lock, in which case it is no
        // longer the LRU victim and the caller rescans.
        if let Some(pos) = sh
            .entries
            .iter()
            .position(|(f, _, used)| *f == fp && *used == stamp)
        {
            sh.entries.swap_remove(pos);
            drop(sh);
            self.len.fetch_sub(1, Ordering::Relaxed);
            Evict::Removed
        } else {
            Evict::Raced
        }
    }

    /// Clones every entry out, sorted by fingerprint — the deterministic
    /// order cache-store files are written in.
    pub fn snapshot(&self) -> Vec<(u64, StoreEntry)> {
        let mut all: Vec<(u64, StoreEntry)> = Vec::with_capacity(self.len());
        for m in &self.shards {
            let sh = Self::lock(m);
            all.extend(sh.entries.iter().map(|(f, e, _)| (*f, e.clone())));
        }
        all.sort_by_key(|(fp, _)| *fp);
        all
    }
}

enum Evict {
    Removed,
    Raced,
    Empty,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_interp::Value;

    fn entry(n: i64) -> StoreEntry {
        let mut cache = CacheBuf::new(1);
        cache.set(0, Value::Int(n));
        let seal = cache.content_hash();
        StoreEntry { cache, seal }
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let store = CacheStore::new(4);
        assert!(store.get(7).is_none());
        assert_eq!(store.insert(7, entry(1)), 0);
        let got = store.get(7).expect("hit");
        assert_eq!(got.cache.get(0), Some(Value::Int(1)));
        assert_eq!(got.seal, got.cache.content_hash());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn replacement_under_one_fingerprint_does_not_evict() {
        let store = CacheStore::new(1);
        assert_eq!(store.insert(7, entry(1)), 0);
        assert_eq!(store.insert(7, entry(2)), 0, "replace, not evict");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(7).unwrap().cache.get(0), Some(Value::Int(2)));
    }

    #[test]
    fn capacity_is_global_and_evicts_the_least_recently_used() {
        let store = CacheStore::new(2);
        store.insert(1, entry(1));
        store.insert(2, entry(2));
        // Touch 1 so 2 becomes the LRU victim.
        store.get(1).expect("hit");
        assert_eq!(store.insert(3, entry(3)), 1, "one eviction");
        assert_eq!(store.len(), 2);
        assert!(store.get(1).is_some(), "recently used survives");
        assert!(store.get(2).is_none(), "LRU entry was evicted");
        assert!(store.get(3).is_some());
    }

    #[test]
    fn touch_refreshes_recency_exactly_like_get() {
        // One probe/insert script, replayed with `get` and with `touch` as
        // the probe: the evicted victims, in order, must be the same.
        fn victims(probe: impl Fn(&CacheStore, u64) -> bool) -> Vec<u64> {
            let store = CacheStore::new(3);
            let held = |s: &CacheStore| -> Vec<u64> {
                s.snapshot().into_iter().map(|(fp, _)| fp).collect()
            };
            let mut victims = Vec::new();
            for fp in [1u64, 2, 3, 1, 4, 1, 3, 5, 3, 1, 2, 4] {
                if !probe(&store, fp) {
                    let before = held(&store);
                    store.insert(fp, entry(fp as i64));
                    let after = held(&store);
                    victims.extend(before.into_iter().filter(|f| !after.contains(f)));
                }
            }
            victims
        }
        let by_get = victims(|s, fp| s.get(fp).is_some());
        assert_eq!(by_get, vec![2, 4, 5, 3], "hits reorder the LRU victims");
        assert_eq!(victims(CacheStore::touch), by_get);
        assert!(!CacheStore::new(2).touch(9), "a miss reports false");
    }

    #[test]
    fn capacity_one_degrades_to_a_single_entry() {
        let store = CacheStore::new(1);
        let mut evictions = 0;
        for fp in [10u64, 20, 10, 20] {
            if store.get(fp).is_none() {
                evictions += store.insert(fp, entry(fp as i64));
            }
        }
        // Every switch misses and evicts the previous occupant.
        assert_eq!(evictions, 3);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn capacity_at_or_above_distinct_fingerprints_never_evicts() {
        let store = CacheStore::new(16);
        let mut evictions = 0;
        for round in 0..4 {
            for fp in 0..16u64 {
                if store.get(fp).is_none() {
                    assert_eq!(round, 0, "misses only on the first round");
                    evictions += store.insert(fp, entry(fp as i64));
                }
            }
        }
        assert_eq!(evictions, 0);
        assert_eq!(store.len(), 16);
    }

    #[test]
    fn invalidate_removes_the_entry() {
        let store = CacheStore::new(4);
        store.insert(7, entry(1));
        assert!(store.invalidate(7));
        assert!(!store.invalidate(7), "already gone");
        assert!(store.get(7).is_none());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn snapshot_is_sorted_by_fingerprint() {
        let store = CacheStore::new(8);
        for fp in [5u64, 1, 9, 3] {
            store.insert(fp, entry(fp as i64));
        }
        let snap = store.snapshot();
        let fps: Vec<u64> = snap.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![1, 3, 5, 9]);
    }

    #[test]
    fn concurrent_mixed_traffic_respects_capacity_and_serves_intact_entries() {
        use std::sync::Arc;
        let store = Arc::new(CacheStore::new(4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let fp = (t * 31 + i * 7) % 12;
                        match store.get(fp) {
                            Some(e) => {
                                // Entries are cloned out whole: the seal
                                // always matches the content.
                                assert_eq!(e.seal, e.cache.content_hash());
                                assert_eq!(e.cache.get(0), Some(Value::Int(fp as i64)));
                            }
                            None => {
                                store.insert(fp, entry(fp as i64));
                            }
                        }
                    }
                });
            }
        });
        assert!(
            store.len() <= 4,
            "capacity bound holds, got {}",
            store.len()
        );
    }
}
