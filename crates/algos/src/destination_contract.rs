//! The `reads_destination_attribute` contract, checked.
//!
//! A kernel that declares `false` gets sources-only downloads, fills and
//! replica refreshes, so the `dst_attr` of its triplets may hold any value.
//! Each shipped forward kernel therefore generates the same messages over
//! triplets whose destination attribute is real and over the same triplets
//! with it poisoned; connected components, which declares `true`, is the
//! negative control showing the check can catch a reader.

use crate::{
    ConnectedComponents, LabelHistogram, LabelPropagation, MultiSourceSssp, PageRank, RankValue,
};
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::{Triplet, VertexId};

/// Edges `v → (v · 7 + 3) mod n` and `v → (v + 1) mod n`: every vertex is a
/// source and a destination, and the endpoints' values differ.
fn edges(n: u32) -> impl Iterator<Item = (VertexId, VertexId, f64)> {
    (0..n).flat_map(move |v| {
        [
            (v, (v * 7 + 3) % n, 1.0 + f64::from(v % 5)),
            (v, (v + 1) % n, 0.5),
        ]
    })
}

/// Every message `algorithm` generates over the triplets of [`edges`], with
/// vertex values from `value` and each destination attribute passed through
/// `dst`, as `(target, key(payload))` in generation order, over a few
/// iterations.
fn messages<V, A, K>(
    algorithm: &A,
    value: impl Fn(VertexId) -> V,
    dst: impl Fn(V) -> V,
    key: impl Fn(&A::Msg) -> K,
) -> Vec<(VertexId, K)>
where
    A: GraphAlgorithm<V, f64>,
{
    let mut out: Vec<AddressedMessage<A::Msg>> = Vec::new();
    let mut seen = Vec::new();
    for iteration in [0, 1, 5] {
        for (src, target, weight) in edges(64) {
            let triplet = Triplet::new(src, target, value(src), dst(value(target)), weight);
            algorithm.msg_gen_into(&triplet, iteration, &mut out);
            seen.extend(out.drain(..).map(|m| (m.target, key(&m.payload))));
        }
    }
    assert!(!seen.is_empty(), "{} generated nothing", algorithm.name());
    seen
}

/// Requires `algorithm` to declare `false` and to generate bit-identical
/// messages whether destinations hold their real value or `poison` of it.
fn assert_ignores_destination<V, A, K>(
    algorithm: &A,
    value: impl Fn(VertexId) -> V + Copy,
    poison: impl Fn(V) -> V,
    key: impl Fn(&A::Msg) -> K + Copy,
) where
    A: GraphAlgorithm<V, f64>,
    K: PartialEq + std::fmt::Debug,
{
    assert!(
        !algorithm.reads_destination_attribute(),
        "{}",
        algorithm.name()
    );
    let real = messages(algorithm, value, |v| v, key);
    let poisoned = messages(algorithm, value, poison, key);
    assert_eq!(real, poisoned, "{} read a destination", algorithm.name());
}

#[test]
fn pagerank_messages_ignore_the_destination_attribute() {
    let rank = |v: VertexId| RankValue {
        rank: 0.15 + f64::from(v) / 64.0,
        out_degree: 1 + v % 4,
    };
    let nan = |_| RankValue {
        rank: f64::NAN,
        out_degree: u32::MAX,
    };
    for algorithm in [PageRank::new(5), PageRank::new(20).with_damping(0.5)] {
        assert_ignores_destination(&algorithm, rank, nan, |m: &f64| m.to_bits());
    }
}

#[test]
fn label_propagation_messages_ignore_the_destination_attribute() {
    let label = |v: VertexId| v % 9;
    let other = |label: u32| u32::MAX - label;
    let histogram = |m: &LabelHistogram| m.clone();
    assert_ignores_destination(&LabelPropagation::paper_default(), label, other, histogram);
}

#[test]
fn multi_source_sssp_messages_ignore_the_destination_attribute() {
    // Widths 1 and 4 keep `Relaxation` inline, 6 spills it to its `Vec`.
    for width in [1usize, 4, 6] {
        let algorithm = MultiSourceSssp::new((0..width as VertexId).collect());
        let distances = |v: VertexId| -> Vec<f64> {
            (0..width as u32)
                .map(|c| {
                    if (v + c).is_multiple_of(3) {
                        f64::INFINITY
                    } else {
                        f64::from(v * (c + 1)) * 0.5
                    }
                })
                .collect()
        };
        let nan = |d: Vec<f64>| vec![f64::NAN; d.len()];
        let bits = |m: &crate::Relaxation| m.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_ignores_destination(&algorithm, distances, nan, bits);
    }
}

#[test]
fn connected_components_messages_do_change_under_poisoning() {
    // The negative control: a kernel that reads destinations declares it,
    // and poisoning its destinations changes what it sends.
    let algorithm = ConnectedComponents;
    assert!(algorithm.reads_destination_attribute());
    let label = |v: VertexId| v;
    let real = messages(&algorithm, label, |l| l, |m: &u32| *m);
    let poisoned = messages(&algorithm, label, |_| 0, |m: &u32| *m);
    assert_ne!(real, poisoned);
}
