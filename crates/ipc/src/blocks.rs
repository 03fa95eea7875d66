//! Triplet blocks.
//!
//! The pipeline-shuffle optimisation uses *edge triplets* as the homogeneous
//! intermediate structure of all three pipeline layers (§III-A2a);
//! [`TripletBlockRef`] is that unit, borrowed so that no pipeline stage
//! copies a triplet.  (The paper's paired vertex/edge blocks of §II-B — the
//! unpipelined data flow — are not reproduced.)

use gxplug_graph::types::Triplet;

/// A *borrowed* block of edge triplets: the zero-copy unit of the pipelined
/// hot path.  "Within an iteration, there is no data dependencies between
/// triplets" (§III-A2a), so blocks can flow through the pipeline layers
/// independently.
///
/// A `TripletBlockRef` is just an index plus a slice into the iteration's
/// [`TripletBuffer`](gxplug_graph::view::TripletBuffer): the agent splits the
/// buffer into capacity shares, the shares chunk into block views, and the
/// daemon's kernel reads the triplets in place.  Nothing on that path clones
/// a triplet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripletBlockRef<'a, V, E> {
    /// Index of this block within the iteration (0-based).
    pub index: usize,
    /// Borrowed view of the triplets.
    pub triplets: &'a [Triplet<V, E>],
}

impl<V, E> TripletBlockRef<'_, V, E> {
    /// Number of triplets in the block.
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// Returns `true` if the block holds no triplets.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }
}

/// Splits a capacity share into borrowed triplet blocks of `block_size`,
/// without copying a single triplet.
pub fn triplet_block_views<V, E>(
    share: &[Triplet<V, E>],
    block_size: usize,
) -> impl Iterator<Item = TripletBlockRef<'_, V, E>> {
    share
        .chunks(block_size.max(1))
        .enumerate()
        .map(|(index, triplets)| TripletBlockRef { index, triplets })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_views_chunk_without_copying() {
        let triplets: Vec<Triplet<f64, f64>> = (0..7u32)
            .map(|v| Triplet::new(v, v + 1, v as f64, (v + 1) as f64, 1.0))
            .collect();
        let views: Vec<_> = triplet_block_views(&triplets, 3).collect();
        assert_eq!(views.len(), 3);
        assert_eq!(views[0].len(), 3);
        assert_eq!(views[2].len(), 1);
        assert_eq!(views[1].index, 1);
        // The views alias the original storage — no copies were made.
        assert!(std::ptr::eq(views[0].triplets.as_ptr(), triplets.as_ptr()));
        assert!(std::ptr::eq(
            views[1].triplets.as_ptr(),
            triplets[3..].as_ptr()
        ));
    }
}
