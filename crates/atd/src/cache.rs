//! Content-addressed result cache: FNV-1a over the job spec's canonical
//! bytes, LRU-evicted at a bounded entry count.
//!
//! Because job specs are exact (integers and IEEE-754 bit patterns) and
//! every workload is bit-identical at any thread count, a spec's encoded
//! bytes fully determine its result — so a cache hit can be served
//! byte-for-byte identical to a recomputation. Entries are shared
//! [`Answer`]s, so a hit hands out a reference count, not a copy.
//! Eviction order is a deterministic function of the access sequence (a
//! logical tick counter, no clocks), keeping the whole service
//! replayable.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::stream::Answer;

/// The cache's content address: the store's FNV-1a, so the LRU, the
/// store and the farm ring all key by one digest.
pub use store::fnv1a64;

#[derive(Debug, Clone)]
struct Entry {
    /// The full key bytes: hits require byte equality, not just a hash
    /// match, so an FNV collision degrades to a miss instead of serving
    /// the wrong job's result.
    key: Vec<u8>,
    value: Arc<Answer>,
    last_used: u64,
}

/// A bounded LRU cache from job-spec bytes to shared answers.
#[derive(Debug)]
pub struct ResultCache {
    entries: BTreeMap<u64, Entry>,
    capacity: usize,
    tick: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results. Zero disables caching.
    pub fn new(capacity: usize) -> Self {
        ResultCache { entries: BTreeMap::new(), capacity, tick: 0 }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &[u8]) -> Option<&Arc<Answer>> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(&fnv1a64(key)).filter(|e| e.key == key)?;
        entry.last_used = tick;
        Some(&entry.value)
    }

    /// Inserts `value` under `key`, evicting the least-recently-used entry
    /// if the cache is full. A hash collision with a different key
    /// overwrites the resident entry (the new result is the fresher one;
    /// byte-checked lookups make the overwrite safe).
    pub fn insert(&mut self, key: &[u8], value: Arc<Answer>) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.next_tick();
        let hash = fnv1a64(key);
        if !self.entries.contains_key(&hash) && self.entries.len() >= self.capacity {
            // Evict the stalest entry. Linear scan: capacities are small
            // (tens to hundreds) and the scan order over a BTreeMap is
            // deterministic.
            let stalest =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(hash, _)| *hash);
            if let Some(stalest) = stalest {
                self.entries.remove(&stalest);
            }
        }
        self.entries.insert(hash, Entry { key: key.to_vec(), value, last_used: tick });
    }

    fn next_tick(&mut self) -> u64 {
        self.tick = self.tick.wrapping_add(1);
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::proto::JobResult;

    fn result(tag: u32) -> Arc<Answer> {
        let result =
            JobResult::Bathtub { pairs: vec![(0.0, f64::from(tag))], rendered: format!("r{tag}") };
        Arc::new(Answer::new(&result).unwrap())
    }

    fn bytes(answer: Option<&Arc<Answer>>) -> Option<Vec<u8>> {
        answer.map(|a| a.bytes().to_vec())
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors, through the re-export the LRU index
        // and the farm's route keys use.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hit_returns_the_stored_result() {
        let mut cache = ResultCache::new(4);
        assert!(cache.is_empty());
        assert!(cache.get(b"k1").is_none());
        cache.insert(b"k1", result(1));
        assert_eq!(bytes(cache.get(b"k1")), bytes(Some(&result(1))));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), 4);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut cache = ResultCache::new(2);
        cache.insert(b"a", result(1));
        cache.insert(b"b", result(2));
        // Touch "a" so "b" is now stalest.
        assert!(cache.get(b"a").is_some());
        cache.insert(b"c", result(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(b"a").is_some());
        assert!(cache.get(b"b").is_none());
        assert!(cache.get(b"c").is_some());
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut cache = ResultCache::new(2);
        cache.insert(b"a", result(1));
        cache.insert(b"b", result(2));
        cache.insert(b"a", result(9)); // same key: overwrite in place
        assert_eq!(cache.len(), 2);
        assert_eq!(bytes(cache.get(b"a")), bytes(Some(&result(9))));
        assert!(cache.get(b"b").is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = ResultCache::new(0);
        cache.insert(b"a", result(1));
        assert!(cache.is_empty());
        assert!(cache.get(b"a").is_none());
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut cache = ResultCache::new(3);
            for i in 0..10u32 {
                let key = [u8::try_from(i % 5).unwrap_or(0)];
                if cache.get(&key).is_none() {
                    cache.insert(&key, result(i));
                }
            }
            let mut survivors = Vec::new();
            for k in 0..5u8 {
                if cache.get(&[k]).is_some() {
                    survivors.push(k);
                }
            }
            survivors
        };
        assert_eq!(run(), run());
    }
}
