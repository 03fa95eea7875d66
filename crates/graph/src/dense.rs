//! Dense-id primitives for the hash-free superstep data path.
//!
//! A distributed node only holds a subset of the global vertex space, so the
//! per-node tables historically resolved every vertex through a `HashMap` and
//! tracked the frontier in a `HashSet`.  Hash probes are the textbook
//! irregular-memory-access cost the accelerator literature identifies as the
//! graph-processing bottleneck; this module provides the three structures
//! that remove them:
//!
//! * [`LocalIdMap`] — a bidirectional global ↔ dense-local vertex id map,
//!   built once at deploy time.  `global → local` is a single array load
//!   (`u32::MAX` sentinel), `local → global` likewise.
//! * [`FrontierSet`] — an epoch-stamped bitset over dense ids.  `clear` is
//!   O(1) (an epoch bump), iteration is **ascending by construction** (a word
//!   scan), so every consumer sees one deterministic order without sorting.
//! * [`DenseSlots`] — an epoch-stamped slot array for message merging: one
//!   slot per dense id, a `touched` list preserving first-seen order, zero
//!   steady-state allocation when pooled across iterations.
//!
//! All three use the same trick to make reuse free: each word / slot carries
//! the epoch stamp of its last write, and a reset just increments the epoch —
//! stale state is skipped on read and lazily overwritten on write.

use crate::types::VertexId;

/// Sentinel in [`LocalIdMap`]'s forward table for "not a local vertex".
const NO_LOCAL: u32 = u32::MAX;

/// Bidirectional map between global vertex ids and dense local ids.
///
/// Local ids are assigned in insertion order, `0..len`.  The forward table is
/// sized by the largest global id inserted (global ids are dense `0..n` in a
/// [`PropertyGraph`](crate::graph::PropertyGraph), so this is at most the
/// global vertex count), making `global → local` a branch-free array load.
#[derive(Debug, Clone, Default)]
pub struct LocalIdMap {
    /// Indexed by global id; `NO_LOCAL` where the vertex is not local.
    to_local: Vec<u32>,
    /// Indexed by local id.
    to_global: Vec<VertexId>,
}

impl LocalIdMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for `locals` local vertices.
    pub fn with_capacity(locals: usize) -> Self {
        Self {
            to_local: Vec::new(),
            to_global: Vec::with_capacity(locals),
        }
    }

    /// Reserves room for at least `additional` more local vertices.
    pub fn reserve(&mut self, additional: usize) {
        self.to_global.reserve(additional);
    }

    /// Number of local vertices mapped.
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Returns `true` if no vertex is mapped.
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }

    /// Inserts `global`, assigning the next dense local id; returns the
    /// existing local id if the vertex is already mapped.
    pub fn insert(&mut self, global: VertexId) -> u32 {
        if let Some(local) = self.local(global) {
            return local;
        }
        let needed = global as usize + 1;
        if self.to_local.len() < needed {
            self.to_local.resize(needed, NO_LOCAL);
        }
        let local = self.to_global.len() as u32;
        self.to_local[global as usize] = local;
        self.to_global.push(global);
        local
    }

    /// The dense local id of `global`, if the vertex is local.
    #[inline]
    pub fn local(&self, global: VertexId) -> Option<u32> {
        match self.to_local.get(global as usize) {
            Some(&local) if local != NO_LOCAL => Some(local),
            _ => None,
        }
    }

    /// The global id behind dense local id `local`.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn global(&self, local: u32) -> VertexId {
        self.to_global[local as usize]
    }
}

/// An epoch-stamped bitset over dense ids `0..capacity`, iterated ascending.
///
/// The frontier of a BSP superstep: `clear` bumps an epoch instead of zeroing
/// words, `insert`/`contains` are a shift and a mask, and iteration scans the
/// touched word range — so a sparse frontier costs time proportional to the
/// frontier's extent, not to the full id space, and the iteration order is
/// deterministic (ascending) by construction rather than by sorting.
#[derive(Debug, Clone)]
pub struct FrontierSet {
    words: Vec<u64>,
    /// Epoch of each word's last write; a word is live iff its stamp matches
    /// the current epoch.
    stamps: Vec<u64>,
    epoch: u64,
    len: usize,
    capacity: usize,
    /// Inclusive word range touched since the last clear (`usize::MAX..0`
    /// when empty), bounding the iteration scan.
    min_word: usize,
    max_word: usize,
}

/// An empty set over no ids, as [`FrontierSet::new`]`(0)` makes it.
impl Default for FrontierSet {
    fn default() -> Self {
        Self::new(0)
    }
}

impl FrontierSet {
    /// Creates a set over ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        Self {
            words: vec![0; words],
            stamps: vec![0; words],
            epoch: 1,
            len: 0,
            capacity,
            min_word: usize::MAX,
            max_word: 0,
        }
    }

    /// Number of ids the set ranges over.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grows the id space to at least `capacity` (never shrinks).
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if capacity > self.capacity {
            let words = capacity.div_ceil(64);
            self.words.resize(words, 0);
            self.stamps.resize(words, 0);
            self.capacity = capacity;
        }
    }

    /// Number of ids currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set in O(1) by bumping the epoch.
    pub fn clear(&mut self) {
        self.epoch += 1;
        self.len = 0;
        self.min_word = usize::MAX;
        self.max_word = 0;
    }

    /// Inserts `id`; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `id` is outside `0..capacity`.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let id = id as usize;
        assert!(id < self.capacity, "id {id} out of range {}", self.capacity);
        let word = id / 64;
        let bit = 1u64 << (id % 64);
        if self.stamps[word] != self.epoch {
            self.stamps[word] = self.epoch;
            self.words[word] = 0;
        }
        let fresh = self.words[word] & bit == 0;
        if fresh {
            self.words[word] |= bit;
            self.len += 1;
            self.min_word = self.min_word.min(word);
            self.max_word = self.max_word.max(word);
        }
        fresh
    }

    /// Returns `true` if `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        if id >= self.capacity {
            return false;
        }
        let word = id / 64;
        self.stamps[word] == self.epoch && self.words[word] & (1 << (id % 64)) != 0
    }

    /// Inserts every id `0..capacity` by filling whole words.
    pub fn activate_all(&mut self) {
        self.clear();
        if self.capacity == 0 {
            return;
        }
        for word in &mut self.words {
            *word = u64::MAX;
        }
        // Mask the bits beyond `capacity` out of the tail word.
        let tail_bits = self.capacity % 64;
        if tail_bits != 0 {
            *self.words.last_mut().unwrap() = (1u64 << tail_bits) - 1;
        }
        for stamp in &mut self.stamps {
            *stamp = self.epoch;
        }
        self.len = self.capacity;
        self.min_word = 0;
        self.max_word = self.words.len() - 1;
    }

    /// Iterates the set ascending, by scanning the touched word range.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let range = if self.len == 0 {
            0..0
        } else {
            self.min_word..self.max_word + 1
        };
        range.flat_map(move |word_index| {
            let mut word = if self.stamps[word_index] == self.epoch {
                self.words[word_index]
            } else {
                0
            };
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros();
                word &= word - 1;
                Some((word_index * 64) as u32 + bit)
            })
        })
    }
}

/// An epoch-stamped dense slot array for per-target message merging.
///
/// One slot per dense id; `merge` combines into the slot and records the
/// first touch in a `touched` list, so draining in first-seen order needs no
/// sort and reusing the scratch across iterations allocates nothing — the
/// dense replacement for the per-iteration `HashMap<VertexId, Msg>` merges.
#[derive(Debug, Clone)]
pub struct DenseSlots<T> {
    slots: Vec<Option<T>>,
    stamps: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
}

/// An empty scratch, as [`DenseSlots::new`] makes it.
impl<T> Default for DenseSlots<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DenseSlots<T> {
    /// Creates an empty scratch (grow with [`DenseSlots::ensure_capacity`]).
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            stamps: Vec::new(),
            epoch: 1,
            touched: Vec::new(),
        }
    }

    /// Creates a scratch over ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut slots = Self::new();
        slots.ensure_capacity(capacity);
        slots
    }

    /// Grows the id space to at least `capacity` (never shrinks).
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if capacity > self.slots.len() {
            self.slots.resize_with(capacity, || None);
            self.stamps.resize(capacity, 0);
        }
    }

    /// Number of ids the scratch ranges over.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Starts a fresh round: O(1), every slot becomes logically empty.
    pub fn begin(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Number of distinct ids written this round.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Returns `true` if nothing was written this round.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The ids written this round, in first-seen order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The id at position `i` of the first-seen order.
    #[inline]
    pub fn touched_at(&self, i: usize) -> u32 {
        self.touched[i]
    }

    /// Merges `value` into slot `id`: stores it on first touch, otherwise
    /// replaces the slot with `combine(existing, value)` — existing first,
    /// matching the arrival-order semantics of the hash-map merge it
    /// replaces.
    ///
    /// # Panics
    /// Panics if `id` is outside the scratch's capacity.
    #[inline]
    pub fn merge(&mut self, id: u32, value: T, combine: impl FnOnce(T, T) -> T) {
        let slot = id as usize;
        if self.stamps[slot] != self.epoch {
            self.stamps[slot] = self.epoch;
            self.slots[slot] = Some(value);
            self.touched.push(id);
        } else {
            let existing = self.slots[slot].take().expect("stamped slot holds a value");
            self.slots[slot] = Some(combine(existing, value));
        }
    }

    /// Stores `value` in slot `id`, replacing any value from this round
    /// (last-write-wins semantics, like `HashMap::insert`).
    ///
    /// # Panics
    /// Panics if `id` is outside the scratch's capacity.
    #[inline]
    pub fn put(&mut self, id: u32, value: T) {
        let slot = id as usize;
        if self.stamps[slot] != self.epoch {
            self.stamps[slot] = self.epoch;
            self.touched.push(id);
        }
        self.slots[slot] = Some(value);
    }

    /// The value in slot `id` this round, if any.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&T> {
        let slot = id as usize;
        if self.stamps.get(slot) == Some(&self.epoch) {
            self.slots[slot].as_ref()
        } else {
            None
        }
    }

    /// Removes and returns the value in slot `id` this round, if any.
    #[inline]
    pub fn take(&mut self, id: u32) -> Option<T> {
        let slot = id as usize;
        if self.stamps.get(slot) == Some(&self.epoch) {
            self.slots[slot].take()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_id_map_round_trips() {
        let mut map = LocalIdMap::with_capacity(3);
        assert_eq!(map.insert(7), 0);
        assert_eq!(map.insert(3), 1);
        assert_eq!(map.insert(7), 0, "re-insert returns the existing id");
        assert_eq!(map.len(), 2);
        assert_eq!(map.local(7), Some(0));
        assert_eq!(map.local(3), Some(1));
        assert_eq!(map.local(4), None);
        assert_eq!(map.local(1_000), None, "beyond the forward table");
        assert_eq!(map.global(0), 7);
        assert_eq!(map.global(1), 3);
    }

    #[test]
    fn frontier_insert_contains_and_len() {
        let mut set = FrontierSet::new(200);
        assert!(set.is_empty());
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.insert(130));
        assert_eq!(set.len(), 2);
        assert!(set.contains(5));
        assert!(set.contains(130));
        assert!(!set.contains(6));
        assert!(!set.contains(10_000));
    }

    #[test]
    fn frontier_iterates_ascending_regardless_of_insert_order() {
        let mut set = FrontierSet::new(300);
        for id in [250u32, 3, 64, 7, 128, 255, 0] {
            set.insert(id);
        }
        let ids: Vec<u32> = set.iter().collect();
        assert_eq!(ids, vec![0, 3, 7, 64, 128, 250, 255]);
    }

    #[test]
    fn frontier_clear_is_an_epoch_bump() {
        let mut set = FrontierSet::new(100);
        set.insert(42);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(42));
        assert_eq!(set.iter().count(), 0);
        // The stale word is lazily refreshed on the next insert.
        set.insert(40);
        assert!(set.contains(40));
        assert!(!set.contains(42));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![40]);
    }

    #[test]
    fn frontier_activate_all_fills_exactly_the_capacity() {
        for capacity in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut set = FrontierSet::new(capacity);
            if capacity > 0 {
                set.insert(0);
            }
            set.activate_all();
            assert_eq!(set.len(), capacity, "capacity {capacity}");
            let ids: Vec<u32> = set.iter().collect();
            assert_eq!(ids, (0..capacity as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn frontier_grows_with_ensure_capacity() {
        let mut set = FrontierSet::new(10);
        set.insert(9);
        set.ensure_capacity(1000);
        set.insert(999);
        assert!(set.contains(9));
        assert!(set.contains(999));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![9, 999]);
    }

    #[test]
    #[should_panic]
    fn frontier_rejects_out_of_range_inserts() {
        FrontierSet::new(10).insert(10);
    }

    #[test]
    fn a_default_frontier_is_a_new_empty_one() {
        // Epoch 1 and an empty scan range, not a zero epoch that a zero
        // stamp would match.
        assert_eq!(
            format!("{:?}", FrontierSet::default()),
            format!("{:?}", FrontierSet::new(0))
        );
    }

    #[test]
    fn a_default_dense_slots_merges_like_a_new_one() {
        let mut slots: DenseSlots<u64> = DenseSlots::default();
        slots.ensure_capacity(4);
        slots.merge(1, 5, u64::min);
        slots.merge(1, 3, u64::min);
        assert_eq!(slots.touched(), &[1]);
        assert_eq!(slots.get(1), Some(&3));
        assert_eq!(slots.get(2), None);
    }

    #[test]
    fn dense_slots_merge_preserves_first_seen_order_and_combines() {
        let mut slots: DenseSlots<u64> = DenseSlots::with_capacity(16);
        slots.begin();
        slots.merge(7, 10, u64::min);
        slots.merge(2, 5, u64::min);
        slots.merge(7, 3, u64::min);
        slots.merge(2, 9, u64::min);
        assert_eq!(slots.touched(), &[7, 2]);
        assert_eq!(slots.get(7), Some(&3));
        assert_eq!(slots.get(2), Some(&5));
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn dense_slots_combine_sees_existing_value_first() {
        let mut slots: DenseSlots<Vec<u32>> = DenseSlots::with_capacity(4);
        slots.begin();
        slots.merge(1, vec![1], |mut a, b| {
            a.extend(b);
            a
        });
        slots.merge(1, vec![2], |mut a, b| {
            a.extend(b);
            a
        });
        slots.merge(1, vec![3], |mut a, b| {
            a.extend(b);
            a
        });
        assert_eq!(slots.get(1), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn dense_slots_begin_resets_without_clearing_memory() {
        let mut slots: DenseSlots<u64> = DenseSlots::with_capacity(8);
        slots.begin();
        slots.merge(3, 1, u64::min);
        slots.begin();
        assert!(slots.is_empty());
        assert_eq!(slots.get(3), None);
        assert_eq!(slots.take(3), None);
        slots.put(3, 9);
        slots.put(3, 4);
        assert_eq!(slots.touched(), &[3]);
        assert_eq!(slots.take(3), Some(4));
        assert_eq!(slots.take(3), None, "take drains the slot");
    }
}
