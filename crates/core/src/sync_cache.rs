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
//! "Has not changed" is answered from **versions, not values**: the vertex
//! table bumps a row's change counter on every attribute write
//! ([`VertexTable::version_at`]), the way an upper system knows which rows
//! it wrote (GraphX ships only the attributes changed since the last
//! triplet view).  The cache keeps one packed `u64` per resident vertex and
//! never clones or compares a value.  Why a `u32` version is enough, and
//! the one edge where this differs from comparing values, is written down at
//! [`VertexCache`].
//!
//! Every probe of one iteration carries the same `now`, so the LRU order is
//! a sequence of **generations**, one per iteration, each ordered by a
//! per-vertex tie key.  That makes every cache operation O(1) amortised
//! without a heap: see [`VertexCache`].
//!
//! [`VertexTable::version_at`]: gxplug_graph::tables::VertexTable::version_at

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

/// A packed slot holds the recency stamp above this many bits and the
/// version below them.
const STAMP_SHIFT: u32 = 32;

/// The recency stamp of generation `now`, shifted into place: `now + 1`, so
/// a resident slot is never zero.
fn stamp_of(now: u64) -> u64 {
    assert!(
        now < u64::from(u32::MAX),
        "the sync cache counts at most u32::MAX - 1 iterations per run"
    );
    (now + 1) << STAMP_SHIFT
}

/// The agent-local LRU vertex cache, addressed by per-vertex tie keys.
///
/// The cache remembers **versions, not values**: a resident slot is one
/// packed `u64`, the recency stamp of its last probe (`last_used + 1`) over
/// the row version ([`VertexTable::version_at`]) that probe saw.  A probe
/// whose version differs from the slot's is a download, exactly as if the
/// cache had kept a copy of the value and compared it, because the upper
/// system bumps a row's version on every attribute write that changes it.
/// Two invariants make the 32-bit version safe:
///
/// * a row changes at most once per superstep (its master applies one
///   merged message, a mirror takes one refresh), so the version cannot
///   wrap between two probes of one run;
/// * the cache lives for one run (each run builds its agents afresh), so
///   versions never need a reset, and a row's version at the start of a run
///   is whatever earlier runs left.
///
/// One edge differs from comparing values: a value that changes and then
/// returns to its old bits between two probes counts as a download — as it
/// would in a system that tracks writes rather than values.  SSSP, CC and
/// k-core are monotone and never do that.
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
/// * each drained, **closed** generation is a run of tie keys in ascending
///   order, appended to one queue consumed from the front.  An entry that
///   was hit again (it moved to a newer generation) or evicted stays behind
///   as a stale queue item, skipped when the front reaches it; the queue is
///   compacted once stale items outnumber resident entries.
///
/// Every closed entry is older than every open one, so the first live item
/// of the queue — or, when the queue has none, the open bitset's minimum —
/// is the true victim, provided `now` never decreases between probes.
///
/// [`VertexTable::version_at`]: gxplug_graph::tables::VertexTable::version_at
#[derive(Debug, Clone)]
pub struct VertexCache {
    capacity: usize,
    /// Indexed by tie key: 0 when not resident, else the recency stamp of
    /// the last probe (see [`stamp_of`]) over the version it saw.
    slots: Vec<u64>,
    /// Number of resident entries.
    len: usize,
    /// The `now` of the open generation, and its stamp.
    open_now: u64,
    open_stamp: u64,
    /// The open generation, by tie key.
    open: KeySet,
    /// Closed generations' tie keys, oldest first; live items start at
    /// `head`.
    closed: Vec<u32>,
    head: usize,
    /// `(stamp, end)` of every closed generation with items at or past
    /// `head`: the generation's items sit in `closed` below `end`.
    generations: VecDeque<(u64, usize)>,
    /// Resident entries with an item in `closed`; the other items are stale.
    live_closed: usize,
    stats: CacheStats,
}

impl VertexCache {
    /// Creates a cache holding at most `capacity` (at least one) of a node's
    /// `locals` vertices, with tie keys below `locals`.  Everything is
    /// allocated here, once — on the constructing thread: the probes may run
    /// on a per-run worker, and growing these buffers there cost ~2 MB of
    /// peak RSS (allocator arenas) on an rmat-14 PageRank session.  A probe
    /// of a tie key beyond `locals` still works, it grows the arrays.
    pub fn new(capacity: usize, locals: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            slots: vec![0; locals],
            len: 0,
            open_now: 0,
            open_stamp: stamp_of(0),
            open: KeySet::new(locals),
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

    /// Returns `true` if the vertex with tie key `tie` is resident, without
    /// touching recency or statistics.
    pub fn contains(&self, tie: u32) -> bool {
        self.slots.get(tie as usize).is_some_and(|&slot| slot != 0)
    }

    /// Probes the vertex with tie key `tie` (distinct per vertex and ordered
    /// like its global id) for computation at iteration `now`, given the
    /// `version` of its row in the upper system.  Returns `true` if the
    /// vertex has to be downloaded: it was not resident, or it was resident
    /// at another version.  Either way the cache holds `version` afterwards.
    ///
    /// A resident vertex counts as a hit and has its recency refreshed even
    /// when stale.  A non-resident one is a miss and evicts the least
    /// recently used entry (ties broken by `tie`) once the cache is full.
    ///
    /// `now` must not decrease from one probe to the next.
    pub fn probe(&mut self, tie: u32, version: u32, now: u64) -> bool {
        if now != self.open_now {
            debug_assert!(now > self.open_now, "`now` went backwards");
            self.close_generation();
            self.open_now = now;
            self.open_stamp = stamp_of(now);
        }
        let index = tie as usize;
        if index >= self.slots.len() {
            self.slots.resize(index + 1, 0);
        }
        let stamped = self.open_stamp | u64::from(version);
        let slot = self.slots[index];
        if slot != 0 {
            self.stats.hits += 1;
            if slot >> STAMP_SHIFT != self.open_stamp >> STAMP_SHIFT {
                // From a closed generation into the open one: its queue item
                // goes stale.
                self.live_closed -= 1;
                self.open.insert(tie);
            }
            self.slots[index] = stamped;
            return slot as u32 != version;
        }
        self.stats.misses += 1;
        if self.len >= self.capacity {
            self.evict_lru();
        } else {
            self.len += 1;
        }
        self.slots[index] = stamped;
        self.open.insert(tie);
        true
    }

    /// Removes the entry with the smallest `(last_used, tie)`.  Only called
    /// on a full (hence non-empty) cache.
    fn evict_lru(&mut self) {
        let tie = match self.pop_closed() {
            Some(tie) => tie,
            None => self
                .open
                .pop_min()
                .expect("a full cache has a resident entry"),
        };
        self.stats.evictions += 1;
        self.slots[tie as usize] = 0;
    }

    /// Pops the oldest live item of the closed generations, skipping stale
    /// ones.
    fn pop_closed(&mut self) -> Option<u32> {
        while let Some(&(stamp, end)) = self.generations.front() {
            if self.head == end {
                self.generations.pop_front();
                continue;
            }
            let tie = self.closed[self.head];
            self.head += 1;
            if is_live(&self.slots, tie, stamp) {
                self.live_closed -= 1;
                return Some(tie);
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
        let before = self.closed.len();
        let closed = &mut self.closed;
        self.open.drain_ascending(|tie| closed.push(tie));
        self.live_closed += closed.len() - before;
        self.generations
            .push_back((self.open_stamp, self.closed.len()));
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
        generations.retain_mut(|(stamp, end)| {
            let start = write;
            for index in read..*end {
                let tie = closed[index];
                if is_live(slots, tie, *stamp) {
                    closed[write] = tie;
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

/// Whether the queue item `tie` of the closed generation stamped `stamp` is
/// live: the vertex is resident and was not probed since.
fn is_live(slots: &[u64], tie: u32, stamp: u64) -> bool {
    slots[tie as usize] >> STAMP_SHIFT == stamp >> STAMP_SHIFT
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
        let mut cache = VertexCache::new(8, 40);
        assert!(cache.probe(30, 0, 0), "first probe downloads");
        assert!(!cache.probe(30, 0, 1), "an unchanged version is fresh");
        assert!(cache.probe(30, 1, 2), "a changed version is re-downloaded");
        assert!(!cache.probe(30, 1, 3), "and then cached again");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 1, 0));
        assert!((stats.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn versions_are_compared_whole_and_a_probe_keeps_only_the_last() {
        let mut cache = VertexCache::new(4, 4);
        assert!(cache.probe(1, u32::MAX, 0));
        assert!(!cache.probe(1, u32::MAX, 0), "the top bit survives packing");
        // A wrapped version is still a change.
        assert!(cache.probe(1, 0, 1));
        // The version of the last probe is kept, not the first: two changes
        // that land back on an earlier version still read as a change once.
        assert!(cache.probe(1, 5, 2));
        assert!(cache.probe(1, 0, 3));
        assert!(!cache.probe(1, 0, 4));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let mut cache = VertexCache::new(2, 4);
        cache.probe(1, 0, 0);
        cache.probe(2, 0, 1);
        // Touch vertex 1 so vertex 2 becomes the LRU entry.
        cache.probe(1, 0, 2);
        cache.probe(3, 0, 3);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn recency_ties_evict_the_smallest_global_id() {
        // Probed out of tie order; the global ids themselves serve as tie
        // keys.
        let mut cache = VertexCache::new(3, 5);
        cache.probe(9, 0, 0);
        cache.probe(5, 0, 0);
        cache.probe(7, 0, 0);
        cache.probe(1, 0, 1);
        assert!(!cache.contains(5), "global 5 is the smallest of the tie");
        cache.probe(2, 0, 1);
        assert!(!cache.contains(7), "then global 7");
        assert!(cache.contains(9) && cache.contains(1) && cache.contains(2));
    }

    #[test]
    fn cache_capacity_is_at_least_one() {
        let mut cache = VertexCache::new(0, 2);
        assert_eq!(cache.capacity(), 1);
        assert!(cache.is_empty());
        cache.probe(0, 1, 0);
        cache.probe(1, 1, 0);
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
                cache.probe((local * 7) % hot, now as u32, now);
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
