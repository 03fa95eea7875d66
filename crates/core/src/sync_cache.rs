//! Inter-iteration optimisation: synchronization caching (§III-B2).
//!
//! The paper reduces the data volume crossing between the upper system and
//! the middleware at iteration boundaries with two mechanisms:
//!
//! * **LRU-based caching** — the agent keeps a temporary vertex table so that
//!   vertices repeatedly involved in computation are not re-downloaded from
//!   the upper system when their attributes have not changed;
//! * **Lazy uploading** (Algorithm 3) — updated vertices are uploaded only
//!   when some other distributed node actually asks for them.
//!
//! Both are **cost-modelled, not executed**: in this reproduction the vertex
//! table *is* the upper system's storage, so no data really moves.  The cache
//! below answers one question per needed vertex — "would this have been a
//! download?" — and its counters feed the simulated transfer time; lazy
//! uploading is the remote-target count in the agent's `finish_iteration`.
//! There are no global query/data queues.

use gxplug_graph::types::VertexId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Statistics of one agent's cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Probes that found the vertex resident.
    pub hits: u64,
    /// Probes that did not (the vertex was inserted).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when there were no probes.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A resident vertex: the value last downloaded and the iteration of its
/// last probe.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

/// Heap key of a resident entry.  Ordered by `(last_used, global id)`, the
/// eviction order; the local id only names the slot.
type LruKey = Reverse<(u64, VertexId, u32)>;

/// The agent-local LRU vertex cache, addressed by the node's dense local ids.
///
/// The victim of an eviction is the resident entry with the smallest
/// `(last_used, global id)`.  `lru` holds exactly one key per resident entry;
/// a hit only bumps the slot's `last_used`, so a key may be *older* than its
/// entry and is corrected when it surfaces: [`VertexCache::probe`] pops keys,
/// re-pushing stale ones with their true recency, until one matches its
/// slot.  Every key is a lower bound of its entry's true key, so the first
/// match is the true minimum — provided `now` never decreases between
/// probes.
#[derive(Debug, Clone)]
pub struct VertexCache<V> {
    capacity: usize,
    slots: Vec<Option<Slot<V>>>,
    lru: BinaryHeap<LruKey>,
    stats: CacheStats,
}

impl<V: Clone + PartialEq> VertexCache<V> {
    /// Creates a cache holding at most `capacity` (at least one) of a node's
    /// `locals` vertices.  Everything is allocated here, once; a probe of a
    /// local id beyond `locals` still works, it grows the slot array.
    pub fn new(capacity: usize, locals: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            slots: (0..locals).map(|_| None).collect(),
            lru: BinaryHeap::with_capacity(capacity.min(locals)),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached vertices.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns `true` if the vertex at `local` is resident, without touching
    /// recency or statistics.
    pub fn contains(&self, local: u32) -> bool {
        matches!(self.slots.get(local as usize), Some(Some(_)))
    }

    /// Probes the vertex at dense id `local` (global id `global`) for
    /// computation at iteration `now`, given its `current` value in the upper
    /// system.  Returns `true` if the vertex has to be downloaded: it was not
    /// resident, or the resident copy differs from `current`.  Either way the
    /// cache holds `current` afterwards.
    ///
    /// A resident vertex counts as a hit and has its recency refreshed even
    /// when stale.  A non-resident one is a miss and evicts the least
    /// recently used entry (ties broken by global id) once the cache is full.
    ///
    /// `now` must not decrease from one probe to the next.
    pub fn probe(&mut self, local: u32, global: VertexId, current: &V, now: u64) -> bool {
        let index = local as usize;
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        if let Some(slot) = &mut self.slots[index] {
            self.stats.hits += 1;
            slot.last_used = now;
            let stale = slot.value != *current;
            if stale {
                slot.value.clone_from(current);
            }
            return stale;
        }
        self.stats.misses += 1;
        // A full cache recycles the victim's value, so its allocation (if
        // any) is reused by `clone_from`.
        let value = if self.lru.len() >= self.capacity {
            let mut value = self.evict_lru();
            value.clone_from(current);
            value
        } else {
            current.clone()
        };
        self.slots[index] = Some(Slot {
            value,
            last_used: now,
        });
        self.lru.push(Reverse((now, global, local)));
        true
    }

    /// Removes the entry with the smallest `(last_used, global id)` and
    /// returns its value.  Only called on a full (hence non-empty) cache.
    fn evict_lru(&mut self) -> V {
        loop {
            let Reverse((keyed, global, local)) =
                self.lru.pop().expect("a full cache has a resident entry");
            let entry = &mut self.slots[local as usize];
            if let Some(slot) = entry.take_if(|slot| slot.last_used == keyed) {
                self.stats.evictions += 1;
                return slot.value;
            }
            let slot = entry.as_ref().expect("one key per resident entry");
            self.lru.push(Reverse((slot.last_used, global, local)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_hit_after_fill_and_miss_before() {
        let mut cache = VertexCache::new(8, 4);
        assert!(cache.probe(3, 30, &1.5f64, 0), "first probe downloads");
        assert!(!cache.probe(3, 30, &1.5, 1), "an unchanged value is fresh");
        assert!(
            cache.probe(3, 30, &2.5, 2),
            "a changed value is re-downloaded"
        );
        assert!(!cache.probe(3, 30, &2.5, 3), "and then cached again");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 1, 0));
        assert!((stats.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let mut cache = VertexCache::new(2, 4);
        cache.probe(1, 10, &10, 0);
        cache.probe(2, 20, &20, 1);
        // Touch vertex 1 so vertex 2 becomes the LRU entry.
        cache.probe(1, 10, &10, 2);
        cache.probe(3, 30, &30, 3);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn recency_ties_evict_the_smallest_global_id() {
        // Local id order is the reverse of global id order here.
        let mut cache = VertexCache::new(3, 5);
        cache.probe(0, 9, &0, 0);
        cache.probe(1, 5, &0, 0);
        cache.probe(2, 7, &0, 0);
        cache.probe(3, 1, &0, 1);
        assert!(!cache.contains(1), "global 5 is the smallest of the tie");
        cache.probe(4, 2, &0, 1);
        assert!(!cache.contains(2), "then global 7");
        assert!(cache.contains(0) && cache.contains(3) && cache.contains(4));
    }

    #[test]
    fn cache_capacity_is_at_least_one() {
        let mut cache: VertexCache<u8> = VertexCache::new(0, 2);
        assert_eq!(cache.capacity(), 1);
        assert!(cache.is_empty());
        cache.probe(0, 0, &1, 0);
        cache.probe(1, 1, &1, 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }
}
