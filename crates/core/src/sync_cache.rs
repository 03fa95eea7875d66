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
//!
//! Every probe of one iteration carries the same `now`, so the LRU order is
//! a sequence of **generations**, one per iteration, each ordered by a
//! per-vertex tie key.  That makes every cache operation O(1) amortised
//! without a heap: see [`VertexCache`].

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

/// The agent-local LRU vertex cache, addressed by the node's dense local ids.
///
/// The victim of an eviction is the resident entry with the smallest
/// `(last_used, tie)`, where `tie` is a per-vertex key ordered like the
/// global vertex id (the agent passes the node's
/// [`global_rank`](gxplug_engine::node::NodeState::global_rank)).  Entries
/// sharing a `last_used` form one generation:
///
/// * the **open** generation — the entries probed at the current `now` — is
///   a two-level bitset over tie keys, which yields its minimum for an
///   eviction within the iteration and drains in ascending order when the
///   next iteration starts;
/// * each drained, **closed** generation is a run of local ids ascending by
///   tie key, appended to one queue consumed from the front.  An entry that
///   was hit again (it moved to a newer generation) or evicted stays behind
///   as a stale queue item, skipped when the front reaches it; the queue is
///   compacted once stale items outnumber resident entries.
///
/// Every closed entry is older than every open one, so the first live item
/// of the queue — or, when the queue has none, the open bitset's minimum —
/// is the true victim, provided `now` never decreases between probes.
#[derive(Debug, Clone)]
pub struct VertexCache<V> {
    capacity: usize,
    /// Indexed by local id.
    slots: Vec<Option<Slot<V>>>,
    /// Number of resident entries.
    len: usize,
    /// The `now` of the open generation.
    open_now: u64,
    /// The open generation, by tie key.
    open: KeySet,
    /// The local id behind every tie key inserted so far.
    local_of_tie: Vec<u32>,
    /// Closed generations, oldest first; live items start at `head`.
    closed: Vec<u32>,
    head: usize,
    /// `(last_used, end)` of every closed generation with items at or past
    /// `head`: the generation's items sit in `closed` below `end`.
    generations: VecDeque<(u64, usize)>,
    /// Resident entries with an item in `closed`; the other items are stale.
    live_closed: usize,
    stats: CacheStats,
}

impl<V: Clone + PartialEq> VertexCache<V> {
    /// Creates a cache holding at most `capacity` (at least one) of a node's
    /// `locals` vertices, with tie keys below `locals`.  Everything is
    /// allocated here, once — on the constructing thread: the probes may run
    /// on a per-run worker, and growing these buffers there cost ~2 MB of
    /// peak RSS (allocator arenas) on an rmat-14 PageRank session.  A probe
    /// of a local id or tie key beyond `locals` still works, it grows the
    /// arrays.
    pub fn new(capacity: usize, locals: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            slots: (0..locals).map(|_| None).collect(),
            len: 0,
            open_now: 0,
            open: KeySet::new(locals),
            local_of_tie: vec![0; locals],
            // At most every resident entry plus as many stale items (see
            // `close_generation`).
            closed: Vec::with_capacity(2 * capacity.min(locals)),
            head: 0,
            // A few generations are alive at once while every iteration
            // probes most of the working set; more grow the deque.
            generations: VecDeque::with_capacity(8),
            live_closed: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Probes the vertex at dense id `local` (recency tie key `tie`, distinct
    /// per vertex and ordered like its global id) for computation at
    /// iteration `now`, given its `current` value in the upper system.
    /// Returns `true` if the vertex has to be downloaded: it was not
    /// resident, or the resident copy differs from `current`.  Either way the
    /// cache holds `current` afterwards.
    ///
    /// A resident vertex counts as a hit and has its recency refreshed even
    /// when stale.  A non-resident one is a miss and evicts the least
    /// recently used entry (ties broken by `tie`) once the cache is full.
    ///
    /// `now` must not decrease from one probe to the next.
    pub fn probe(&mut self, local: u32, tie: u32, current: &V, now: u64) -> bool {
        if now != self.open_now {
            debug_assert!(now > self.open_now, "`now` went backwards");
            self.close_generation();
            self.open_now = now;
        }
        let index = local as usize;
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        if let Some(slot) = &mut self.slots[index] {
            self.stats.hits += 1;
            if slot.last_used != now {
                // From a closed generation into the open one: its queue item
                // goes stale.
                slot.last_used = now;
                self.live_closed -= 1;
                self.open.insert(tie);
            }
            let stale = slot.value != *current;
            if stale {
                slot.value.clone_from(current);
            }
            return stale;
        }
        self.stats.misses += 1;
        // A full cache recycles the victim's value, so its allocation (if
        // any) is reused by `clone_from`.
        let value = if self.len >= self.capacity {
            let mut value = self.evict_lru();
            value.clone_from(current);
            value
        } else {
            self.len += 1;
            current.clone()
        };
        self.slots[index] = Some(Slot {
            value,
            last_used: now,
        });
        self.open.insert(tie);
        let tie = tie as usize;
        if tie >= self.local_of_tie.len() {
            self.local_of_tie.resize(tie + 1, 0);
        }
        self.local_of_tie[tie] = local;
        true
    }

    /// Removes the entry with the smallest `(last_used, tie)` and returns its
    /// value.  Only called on a full (hence non-empty) cache.
    fn evict_lru(&mut self) -> V {
        let local = match self.pop_closed() {
            Some(local) => local,
            None => {
                let tie = self
                    .open
                    .pop_min()
                    .expect("a full cache has a resident entry");
                self.local_of_tie[tie as usize]
            }
        };
        self.stats.evictions += 1;
        self.slots[local as usize]
            .take()
            .expect("the victim is resident")
            .value
    }

    /// Pops the oldest live item of the closed generations, skipping stale
    /// ones.
    fn pop_closed(&mut self) -> Option<u32> {
        while let Some(&(last_used, end)) = self.generations.front() {
            if self.head == end {
                self.generations.pop_front();
                continue;
            }
            let local = self.closed[self.head];
            self.head += 1;
            if is_live(&self.slots, local, last_used) {
                self.live_closed -= 1;
                return Some(local);
            }
        }
        None
    }

    /// Closes the open generation: its tie keys drain ascending onto the
    /// back of the queue.
    fn close_generation(&mut self) {
        if self.open.is_empty() {
            return;
        }
        if self.closed.len() - self.live_closed > self.len {
            self.compact();
        }
        let Self {
            open,
            closed,
            local_of_tie,
            ..
        } = self;
        let before = closed.len();
        open.drain_ascending(|tie| closed.push(local_of_tie[tie as usize]));
        self.live_closed += closed.len() - before;
        self.generations.push_back((self.open_now, closed.len()));
    }

    /// Drops every stale item from the queue, keeping the live ones in order.
    fn compact(&mut self) {
        let Self {
            slots,
            closed,
            generations,
            ..
        } = self;
        let mut write = 0;
        let mut read = self.head;
        generations.retain_mut(|(last_used, end)| {
            let start = write;
            for index in read..*end {
                let local = closed[index];
                if is_live(slots, local, *last_used) {
                    closed[write] = local;
                    write += 1;
                }
            }
            read = *end;
            *end = write;
            write > start
        });
        closed.truncate(write);
        self.head = 0;
    }
}

/// Whether the queue item `local` of the closed generation `last_used` is
/// live: the vertex is resident and was not probed since.
fn is_live<V>(slots: &[Option<Slot<V>>], local: u32, last_used: u64) -> bool {
    matches!(&slots[local as usize], Some(slot) if slot.last_used == last_used)
}

/// A set of `u32` keys as a two-level bitset: one bit per key, one summary
/// bit per non-empty word, so the minimum is found in O(keys / 4096 + 1).
#[derive(Debug, Clone)]
struct KeySet {
    words: Vec<u64>,
    summary: Vec<u64>,
    /// Every summary word below this index is zero.
    lowest: usize,
    len: usize,
}

impl KeySet {
    fn new(keys: usize) -> Self {
        let words = keys.div_ceil(64);
        Self {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            lowest: 0,
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key` (not already present).
    fn insert(&mut self, key: u32) {
        let word = key as usize / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
            self.summary.resize((word + 1).div_ceil(64), 0);
        }
        debug_assert_eq!(self.words[word] & (1 << (key % 64)), 0, "key {key} present");
        self.words[word] |= 1 << (key % 64);
        self.summary[word / 64] |= 1 << (word % 64);
        self.lowest = self.lowest.min(word / 64);
        self.len += 1;
    }

    /// Removes and returns the smallest key.
    fn pop_min(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        while self.summary[self.lowest] == 0 {
            self.lowest += 1;
        }
        let word = self.lowest * 64 + self.summary[self.lowest].trailing_zeros() as usize;
        let bit = self.words[word].trailing_zeros();
        self.words[word] &= self.words[word] - 1;
        if self.words[word] == 0 {
            self.summary[word / 64] &= !(1 << (word % 64));
        }
        self.len -= 1;
        Some((word * 64) as u32 + bit)
    }

    /// Empties the set, calling `f` on every key in ascending order.
    fn drain_ascending(&mut self, mut f: impl FnMut(u32)) {
        for top in self.lowest..self.summary.len() {
            let mut summary = std::mem::take(&mut self.summary[top]);
            while summary != 0 {
                let word = top * 64 + summary.trailing_zeros() as usize;
                summary &= summary - 1;
                let mut bits = std::mem::take(&mut self.words[word]);
                while bits != 0 {
                    f((word * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
        self.lowest = self.summary.len();
        self.len = 0;
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
        // Local id order is the reverse of global id order here; the global
        // ids themselves serve as tie keys.
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

    #[test]
    fn repeated_hits_compact_the_queue() {
        // Every generation re-probes the same resident set, so each close
        // leaves the previous generation's items stale; without compaction
        // the queue would grow by `hot` items per iteration.
        let hot = 16u32;
        let mut cache = VertexCache::new(hot as usize, hot as usize);
        for now in 0..200u64 {
            for local in 0..hot {
                cache.probe(local, (local * 7) % hot, &now, now);
            }
            assert!(cache.closed.len() <= 2 * cache.len() + hot as usize);
        }
        assert_eq!(cache.stats().misses, u64::from(hot));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn key_set_pops_and_drains_in_ascending_order() {
        let mut set = KeySet::new(10);
        for key in [9000u32, 3, 4096, 64, 4095, 5] {
            set.insert(key);
        }
        assert_eq!(set.pop_min(), Some(3));
        assert_eq!(set.pop_min(), Some(5));
        set.insert(1);
        assert_eq!(set.pop_min(), Some(1));
        let mut drained = Vec::new();
        set.drain_ascending(|key| drained.push(key));
        assert_eq!(drained, vec![64, 4095, 4096, 9000]);
        assert!(set.is_empty());
        assert_eq!(set.pop_min(), None);
        set.insert(2);
        assert_eq!(set.pop_min(), Some(2));
    }
}
