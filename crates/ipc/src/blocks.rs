//! Triplet blocks.
//!
//! The pipeline-shuffle optimisation uses *edge triplets* as the homogeneous
//! intermediate structure of all three pipeline layers (§III-A2a);
//! [`TripletBlock`] is that unit and [`TripletBlockRef`] its borrowed,
//! zero-copy form.  (The paper's paired vertex/edge blocks of §II-B — the
//! unpipelined data flow — are not reproduced.)

use gxplug_graph::types::{Edge, Triplet, VertexId};
use serde::{Deserialize, Serialize};

/// A block of edge triplets: the basic processing unit of a pipelined
/// iteration.  "Within an iteration, there is no data dependencies between
/// triplets" (§III-A2a), so blocks can flow through the pipeline layers
/// independently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripletBlock<V, E> {
    /// Index of this block within the iteration (0-based).
    pub index: usize,
    /// The triplets.
    pub triplets: Vec<Triplet<V, E>>,
}

impl<V, E> TripletBlock<V, E> {
    /// Number of triplets in the block.
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// Returns `true` if the block holds no triplets.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// A borrowed view of this block.
    pub fn as_ref(&self) -> TripletBlockRef<'_, V, E> {
        TripletBlockRef {
            index: self.index,
            triplets: &self.triplets,
        }
    }
}

/// A *borrowed* block of edge triplets: the zero-copy unit of the pipelined
/// hot path.
///
/// Where [`TripletBlock`] owns its triplets (and therefore costs a copy per
/// pipeline stage), a `TripletBlockRef` is just an index plus a slice into
/// the iteration's [`TripletBuffer`](gxplug_graph::view::TripletBuffer): the
/// agent splits the buffer into capacity shares, the shares chunk into block
/// views, and the daemon's kernel reads the triplets in place.  Nothing on
/// that path clones a triplet.
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

    /// Copies the view into an owned [`TripletBlock`] (only needed off the
    /// hot path).
    pub fn to_owned(&self) -> TripletBlock<V, E>
    where
        V: Clone,
        E: Clone,
    {
        TripletBlock {
            index: self.index,
            triplets: self.triplets.to_vec(),
        }
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

/// Groups a node's edges into triplet blocks of size `block_size`, joining the
/// vertex attributes in (the pipelined data flow).
pub fn pack_triplet_blocks<V: Clone, E: Clone>(
    edges: &[Edge<E>],
    mut attr_of: impl FnMut(VertexId) -> V,
    block_size: usize,
) -> Vec<TripletBlock<V, E>> {
    assert!(block_size > 0, "block size must be positive");
    edges
        .chunks(block_size)
        .enumerate()
        .map(|(index, chunk)| TripletBlock {
            index,
            triplets: chunk
                .iter()
                .map(|edge| {
                    Triplet::new(
                        edge.src,
                        edge.dst,
                        attr_of(edge.src),
                        attr_of(edge.dst),
                        edge.attr.clone(),
                    )
                })
                .collect(),
        })
        .collect()
}

/// Computes the number of blocks needed for `num_items` items at `block_size`.
pub fn block_count(num_items: usize, block_size: usize) -> usize {
    assert!(block_size > 0, "block size must be positive");
    num_items.div_ceil(block_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<Edge<f64>> {
        vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 2.0),
            Edge::new(2, 0, 3.0),
            Edge::new(0, 2, 4.0),
            Edge::new(3, 1, 5.0),
        ]
    }

    #[test]
    fn triplet_blocks_join_attributes() {
        let blocks = pack_triplet_blocks(&edges(), |v| v as f64, 3);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].len(), 3);
        assert_eq!(blocks[1].len(), 2);
        assert_eq!(blocks[0].index, 0);
        assert_eq!(blocks[1].index, 1);
        let t = &blocks[0].triplets[1]; // edge 1 -> 2
        assert_eq!(t.src_attr, 1.0);
        assert_eq!(t.dst_attr, 2.0);
        assert_eq!(t.edge_attr, 2.0);
        assert!(!blocks[0].is_empty());
    }

    #[test]
    fn block_count_rounds_up() {
        assert_eq!(block_count(10, 3), 4);
        assert_eq!(block_count(9, 3), 3);
        assert_eq!(block_count(0, 3), 0);
    }

    #[test]
    #[should_panic]
    fn zero_block_size_is_rejected() {
        let _ = pack_triplet_blocks(&edges(), |v| v as f64, 0);
    }

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
        // Round-trip with the owned representation.
        let owned = views[2].to_owned();
        assert_eq!(owned.as_ref(), views[2]);
    }
}
