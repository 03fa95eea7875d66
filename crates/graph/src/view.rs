//! Reusable triplet views over a node's edge tables.
//!
//! The middleware's dominant cost is moving edge triplets between the upper
//! system and the daemons, so the steady-state hot path must not allocate or
//! copy per iteration.  A [`TripletBuffer`] is a reusable arena the agent
//! refills once per pipeline block: the block's triplets are *materialised*
//! into it exactly once (the join of the edge and vertex tables), and the
//! kernel launch reads them through a borrowed `&[Triplet]` view of this
//! buffer instead of owned copies.
//!
//! A refill overwrites the slots the buffer already holds, attribute by
//! attribute through `clone_from`, and constructs new slots only past them.
//! Heap-owning attributes (multi-source SSSP's distance vectors) therefore
//! reuse their allocations superstep after superstep, just as flat ones do;
//! only the live prefix is visible.  A kernel that never reads the
//! destination attribute is filled through
//! [`TripletBuffer::refill_sources_in_place`], which skips that clone on
//! every retained slot.  [`TripletBuffer::release`] drops the
//! retained slots (keeping the outer capacity), so an idle arena pins no
//! attribute heap between runs.  After warm-up refills stop touching the
//! allocator entirely; [`ViewStats`] makes that observable so tests and
//! benches can assert the zero-copy property instead of trusting it.

use crate::types::Triplet;

/// Counters describing how a [`TripletBuffer`] has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Number of refills (one per pipeline block the agent fills).
    pub fills: u64,
    /// Total triplets materialised across all refills.
    pub triplets_built: u64,
    /// Refills that had to grow the buffer.  At steady state (after the
    /// warm-up iterations discover the peak workload) this stops increasing:
    /// every further refill reuses the existing allocation.
    pub reallocations: u64,
}

/// A reusable arena of materialised triplets.
///
/// [`TripletBuffer::refill_in_place`] overwrites the buffer from borrowed
/// triplets, reusing every retained slot; everything downstream borrows
/// slices of the live prefix.  The buffer is the *only* place on the
/// accelerated hot path where vertex and edge attributes are cloned — once
/// per triplet, at materialisation time.
#[derive(Debug, Default)]
pub struct TripletBuffer<V, E> {
    /// Retained slots; only `..live` belong to the current fill.
    slots: Vec<Triplet<V, E>>,
    live: usize,
    stats: ViewStats,
}

impl<V, E> TripletBuffer<V, E> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a buffer with room for `capacity` triplets.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            live: 0,
            stats: ViewStats::default(),
        }
    }

    /// Refills the buffer from borrowed triplets and returns the filled view.
    ///
    /// Slot `i` of the previous fills is overwritten in place — each
    /// attribute through `clone_from`, so an attribute that owns heap data
    /// reuses its allocation — and slots past those retained are pushed.
    pub fn refill_in_place<'a, I>(&mut self, triplets: I) -> &[Triplet<V, E>]
    where
        I: IntoIterator<Item = Triplet<&'a V, &'a E>>,
        V: Clone + 'a,
        E: Clone + 'a,
    {
        self.refill(triplets, true)
    }

    /// [`TripletBuffer::refill_in_place`] for a kernel that never reads the
    /// destination attribute: a retained slot keeps whatever `dst_attr` it
    /// last held, so only the source and edge attributes are copied.  A slot
    /// pushed past the retained ones still clones its `dst_attr`, so every
    /// slot holds *some* value of `V`, just not necessarily the destination's.
    pub fn refill_sources_in_place<'a, I>(&mut self, triplets: I) -> &[Triplet<V, E>]
    where
        I: IntoIterator<Item = Triplet<&'a V, &'a E>>,
        V: Clone + 'a,
        E: Clone + 'a,
    {
        self.refill(triplets, false)
    }

    /// The one refill loop behind both public refills.
    fn refill<'a, I>(&mut self, triplets: I, with_destination: bool) -> &[Triplet<V, E>]
    where
        I: IntoIterator<Item = Triplet<&'a V, &'a E>>,
        V: Clone + 'a,
        E: Clone + 'a,
    {
        let capacity_before = self.slots.capacity();
        let mut live = 0;
        for triplet in triplets {
            match self.slots.get_mut(live) {
                Some(slot) => {
                    slot.src = triplet.src;
                    slot.dst = triplet.dst;
                    slot.src_attr.clone_from(triplet.src_attr);
                    if with_destination {
                        slot.dst_attr.clone_from(triplet.dst_attr);
                    }
                    slot.edge_attr.clone_from(triplet.edge_attr);
                }
                None => self.slots.push(Triplet::new(
                    triplet.src,
                    triplet.dst,
                    triplet.src_attr.clone(),
                    triplet.dst_attr.clone(),
                    triplet.edge_attr.clone(),
                )),
            }
            live += 1;
        }
        self.live = live;
        self.stats.fills += 1;
        self.stats.triplets_built += live as u64;
        if self.slots.capacity() != capacity_before {
            self.stats.reallocations += 1;
        }
        self.as_slice()
    }

    /// Drops every materialised triplet, retained slots included, keeping
    /// the outer allocation: the next refill constructs its slots afresh
    /// but does not regrow the buffer.
    pub fn release(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// The current view over the materialised triplets.
    pub fn as_slice(&self) -> &[Triplet<V, E>] {
        &self.slots[..self.live]
    }

    /// Number of triplets currently held.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if the buffer holds no triplets.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Usage counters (fills, triplets built, reallocations).
    pub fn stats(&self) -> ViewStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned triplets `v -> v + 1` whose attributes are `width`-column
    /// vectors, offset by `base` so fills of equal shape differ in content.
    fn rows(n: u32, width: usize, base: f64) -> Vec<Triplet<Vec<f64>, f64>> {
        (0..n)
            .map(|v| {
                let attr = |x: f64| vec![x; width];
                Triplet::new(v, v + 1, attr(base + v as f64), attr(-(v as f64)), 1.0)
            })
            .collect()
    }

    fn borrowed<V, E>(rows: &[Triplet<V, E>]) -> impl Iterator<Item = Triplet<&V, &E>> {
        rows.iter()
            .map(|t| Triplet::new(t.src, t.dst, &t.src_attr, &t.dst_attr, &t.edge_attr))
    }

    fn flat(n: u32) -> Vec<Triplet<f64, f64>> {
        (0..n)
            .map(|v| Triplet::new(v, v + 1, v as f64, (v + 1) as f64, 1.0))
            .collect()
    }

    #[test]
    fn refill_replaces_contents_and_counts_fills() {
        let mut buffer = TripletBuffer::new();
        assert!(buffer.is_empty());
        let view = buffer.refill_in_place(borrowed(&flat(4)));
        assert_eq!(view.len(), 4);
        assert_eq!(view[2].src, 2);
        let view = buffer.refill_in_place(borrowed(&flat(2)));
        assert_eq!(view.len(), 2);
        let stats = buffer.stats();
        assert_eq!(stats.fills, 2);
        assert_eq!(stats.triplets_built, 6);
    }

    #[test]
    fn shrinking_then_growing_refills_expose_only_the_live_prefix() {
        let mut buffer = TripletBuffer::new();
        buffer.refill_in_place(borrowed(&rows(6, 4, 10.0)));
        // Shrink: slots 2..6 are retained but must not be visible.
        let small = rows(2, 3, 20.0);
        buffer.refill_in_place(borrowed(&small));
        assert_eq!(buffer.len(), 2);
        assert_eq!(buffer.as_slice(), small.as_slice());
        // Grow past the retained slots: overwritten ones and pushed ones
        // both equal a fresh owned materialisation, widths included.
        let large = rows(9, 5, 30.0);
        buffer.refill_in_place(borrowed(&large));
        assert_eq!(buffer.len(), 9);
        assert_eq!(buffer.as_slice(), large.as_slice());
    }

    #[test]
    fn warm_refills_reuse_each_attribute_allocation() {
        let mut buffer = TripletBuffer::new();
        buffer.refill_in_place(borrowed(&rows(8, 4, 0.0)));
        let before: Vec<*const f64> = buffer
            .as_slice()
            .iter()
            .map(|t| t.src_attr.as_ptr())
            .collect();
        let next = rows(8, 4, 100.0);
        buffer.refill_in_place(borrowed(&next));
        assert_eq!(buffer.as_slice(), next.as_slice());
        let after: Vec<*const f64> = buffer
            .as_slice()
            .iter()
            .map(|t| t.src_attr.as_ptr())
            .collect();
        assert_eq!(
            before, after,
            "clone_from must write into the retained vectors"
        );
    }

    #[test]
    fn steady_state_refills_do_not_reallocate() {
        let mut buffer = TripletBuffer::new();
        // Warm-up: the first fill at each new peak size grows the buffer.
        buffer.refill_in_place(borrowed(&flat(100)));
        let warmup = buffer.stats().reallocations;
        assert!(warmup >= 1);
        // Steady state: same-or-smaller workloads reuse the allocation.
        for n in [100, 50, 100, 1, 100] {
            buffer.refill_in_place(borrowed(&flat(n)));
        }
        assert_eq!(buffer.stats().reallocations, warmup);
        assert_eq!(buffer.len(), 100);
    }

    #[test]
    fn release_drops_the_triplets_but_keeps_the_capacity() {
        let mut buffer = TripletBuffer::new();
        let full = rows(64, 4, 0.0);
        buffer.refill_in_place(borrowed(&full));
        let warm = buffer.stats().reallocations;
        // One release per run: the next run rebuilds its slots inside the
        // retained outer allocation, so warm runs never regrow it.
        for _ in 0..3 {
            buffer.release();
            assert!(buffer.is_empty());
            assert!(buffer.as_slice().is_empty());
            buffer.refill_in_place(borrowed(&full[..32]));
            buffer.refill_in_place(borrowed(&full));
            assert_eq!(buffer.as_slice(), full.as_slice());
        }
        assert_eq!(buffer.stats().reallocations, warm);
    }

    #[test]
    fn sources_only_refills_leave_retained_destination_attributes_alone() {
        let mut buffer = TripletBuffer::new();
        let first = rows(3, 2, 0.0);
        buffer.refill_in_place(borrowed(&first));
        let next = rows(5, 2, 50.0);
        let view = buffer.refill_sources_in_place(borrowed(&next));
        assert_eq!(view.len(), 5);
        for (i, (got, want)) in view.iter().zip(&next).enumerate() {
            assert_eq!((got.src, got.dst), (want.src, want.dst));
            assert_eq!(got.src_attr, want.src_attr);
            assert_eq!(got.edge_attr, want.edge_attr);
            // Retained slots keep the previous fill's destination; pushed
            // ones clone the new one.
            let dst = if i < first.len() { &first[i] } else { want };
            assert_eq!(got.dst_attr, dst.dst_attr, "slot {i}");
        }
        assert_eq!(buffer.stats().fills, 2);
        assert_eq!(buffer.stats().triplets_built, 8);
    }

    #[test]
    fn with_capacity_avoids_even_the_warmup_growth() {
        let mut buffer = TripletBuffer::with_capacity(64);
        buffer.refill_in_place(borrowed(&flat(64)));
        assert_eq!(buffer.stats().reallocations, 0);
    }
}
