//! Request de-duplication for at-most-once semantics.
//!
//! Paper §2.1: *"The NTCP protocol supports at-most-once semantics, so that
//! if a client makes a request and does not receive a reply, the client can
//! re-send the request without any danger of the same action being executed
//! twice."* Servers achieve that by remembering the reply keyed by the
//! client's request id; a retransmission replays the remembered reply
//! instead of re-executing. The cache is bounded (LRU by insertion order) so
//! a five-hour experiment cannot grow it without limit.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A bounded map from request id to remembered response.
#[derive(Debug)]
pub struct DedupCache<K: Eq + Hash + Clone, V: Clone> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> DedupCache<K, V> {
    /// A cache remembering at most `capacity` responses.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup cache capacity must be positive");
        DedupCache {
            map: HashMap::with_capacity(capacity.min(1024)),
            order: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Look up a remembered response for `key`.
    pub fn check(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    /// Remember the response for `key`, evicting the oldest entry if full.
    /// Re-remembering an existing key updates the value in place.
    pub fn remember(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Number of remembered responses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All remembered entries in insertion (eviction) order. Checkpoints
    /// persist this so a restarted server still replays responses for
    /// requests the client sent before the crash.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order.iter().filter_map(|k| self.map.get_key_value(k))
    }

    /// Rebuild a cache from entries previously exported with
    /// [`DedupCache::iter`], preserving insertion order (and therefore
    /// future eviction order).
    pub fn from_entries(capacity: usize, entries: Vec<(K, V)>) -> Self {
        let mut cache = DedupCache::new(capacity);
        for (k, v) in entries {
            cache.remember(k, v);
        }
        cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_and_replays() {
        let mut c: DedupCache<u64, String> = DedupCache::new(10);
        assert!(c.check(&1).is_none());
        c.remember(1, "reply".into());
        assert_eq!(c.check(&1).unwrap(), "reply");
    }

    #[test]
    fn eviction_is_fifo() {
        let mut c: DedupCache<u64, u64> = DedupCache::new(3);
        for i in 0..5 {
            c.remember(i, i * 10);
        }
        assert_eq!(c.len(), 3);
        assert!(c.check(&0).is_none());
        assert!(c.check(&1).is_none());
        assert_eq!(c.check(&2).unwrap(), 20);
        assert_eq!(c.check(&4).unwrap(), 40);
    }

    #[test]
    fn re_remember_updates_without_duplicating_order() {
        let mut c: DedupCache<u64, u64> = DedupCache::new(2);
        c.remember(1, 10);
        c.remember(1, 11);
        c.remember(2, 20);
        assert_eq!(c.len(), 2);
        assert_eq!(c.check(&1).unwrap(), 11);
        // Capacity still respected after updates.
        c.remember(3, 30);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _c: DedupCache<u64, u64> = DedupCache::new(0);
    }

    #[test]
    fn entries_roundtrip_preserves_order_and_eviction() {
        let mut c: DedupCache<u64, u64> = DedupCache::new(3);
        for i in 0..3 {
            c.remember(i, i * 10);
        }
        let exported: Vec<(u64, u64)> = c.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(exported, vec![(0, 0), (1, 10), (2, 20)]);
        let mut restored = DedupCache::from_entries(3, exported);
        assert_eq!(restored.check(&1).unwrap(), 10);
        // Eviction order carried over: next insert evicts key 0.
        restored.remember(3, 30);
        assert!(restored.check(&0).is_none());
        assert_eq!(restored.len(), 3);
    }
}
