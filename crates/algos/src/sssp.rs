//! Multi-source Bellman-Ford SSSP (the paper's "SSSP-BF").
//!
//! The paper's evaluation "uses 4 vertices as source vertices and calculates
//! their SSSPs simultaneously to make it more compute-intensive" (§V-A,
//! footnote 4).  The vertex attribute is therefore a vector of distances, one
//! per source, and each relaxation processes every source at once.
//!
//! The message is a [`Relaxation`]: the candidate distances of one relaxed
//! edge, held inline for up to [`Relaxation::INLINE`] sources, so the
//! paper's 4-source runs generate and merge every message without touching
//! the heap.  Only runs over more sources than that spill to a `Vec`.

use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::mutate::MutationScope;
use gxplug_graph::types::{Triplet, VertexId};
use std::ops::{Deref, DerefMut};

/// Vertex attribute of SSSP-BF: one tentative distance per source.
pub type Distances = Vec<f64>;

/// The message of SSSP-BF: one candidate distance per source column.
///
/// Widths up to [`Relaxation::INLINE`] live in the value itself, so a
/// message is plain data with no allocation to make or free; wider rows
/// (runs over more sources) spill to a `Vec`.  Which representation
/// holds a row is invisible to the algorithm: both dereference to the same
/// `[f64]` columns.  The inline width is 4, the paper's source count,
/// rather than 8: the per-target merge slots hold one `Option<Relaxation>`
/// per local vertex, and 4 keeps that slot at 40 bytes.
#[derive(Debug, Clone)]
pub struct Relaxation {
    row: Row,
}

#[derive(Debug, Clone)]
enum Row {
    /// At most [`Relaxation::INLINE`] columns; `cols[width..]` is unused.
    Inline {
        width: u8,
        cols: [f64; Relaxation::INLINE],
    },
    Spilled(Vec<f64>),
}

impl Relaxation {
    /// The widest row held without a heap allocation.
    pub const INLINE: usize = 4;

    /// A row holding `columns`, inline when they fit.
    fn from_columns(columns: impl ExactSizeIterator<Item = f64>) -> Self {
        let width = columns.len();
        let row = if width <= Self::INLINE {
            let mut cols = [0.0; Self::INLINE];
            for (col, value) in cols.iter_mut().zip(columns) {
                *col = value;
            }
            Row::Inline {
                width: width as u8,
                cols,
            }
        } else {
            Row::Spilled(columns.collect())
        };
        Self { row }
    }

    /// Drops every column from `width` on (no-op if already narrower).
    fn truncate(&mut self, width: usize) {
        match &mut self.row {
            Row::Inline { width: live, .. } => {
                if width < usize::from(*live) {
                    *live = width as u8;
                }
            }
            Row::Spilled(cols) => cols.truncate(width),
        }
    }
}

impl Deref for Relaxation {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match &self.row {
            Row::Inline { width, cols } => &cols[..usize::from(*width)],
            Row::Spilled(cols) => cols,
        }
    }
}

impl DerefMut for Relaxation {
    fn deref_mut(&mut self) -> &mut [f64] {
        match &mut self.row {
            Row::Inline { width, cols } => &mut cols[..usize::from(*width)],
            Row::Spilled(cols) => cols,
        }
    }
}

/// Multi-source Bellman-Ford on the GX-Plug algorithm template.
#[derive(Debug, Clone)]
pub struct MultiSourceSssp {
    sources: Vec<VertexId>,
}

impl MultiSourceSssp {
    /// Creates the algorithm for the given source vertices.
    ///
    /// # Panics
    /// Panics if no sources are given.
    pub fn new(sources: Vec<VertexId>) -> Self {
        assert!(!sources.is_empty(), "SSSP needs at least one source vertex");
        Self { sources }
    }

    /// The paper's default configuration: the four lowest-id vertices.
    pub fn paper_default() -> Self {
        Self::new(vec![0, 1, 2, 3])
    }

    /// The source vertices.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }
}

impl GraphAlgorithm<Distances, f64> for MultiSourceSssp {
    type Msg = Relaxation;

    fn init_vertex(&self, v: VertexId, _out_degree: usize) -> Distances {
        self.sources
            .iter()
            .map(|&s| if s == v { 0.0 } else { f64::INFINITY })
            .collect()
    }

    fn msg_gen_into(
        &self,
        triplet: &Triplet<Distances, f64>,
        _iteration: usize,
        out: &mut Vec<AddressedMessage<Relaxation>>,
    ) {
        // Relax the edge for every source whose distance at the source vertex
        // is finite; skip the message entirely if nothing can be relaxed.
        if triplet.src_attr.iter().all(|d| d.is_infinite()) {
            return;
        }
        let candidate =
            Relaxation::from_columns(triplet.src_attr.iter().map(|d| d + triplet.edge_attr));
        out.push(AddressedMessage::new(triplet.dst, candidate));
    }

    /// Folds `min` into the owned left operand in place.  The result has the
    /// shorter operand's width, as a column-wise `zip` would.
    fn msg_merge(&self, mut a: Relaxation, b: Relaxation) -> Relaxation {
        a.truncate(b.len());
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x = x.min(*y);
        }
        a
    }

    fn msg_apply(
        &self,
        vertex: VertexId,
        current: &Distances,
        message: &Relaxation,
        iteration: usize,
    ) -> Option<Distances> {
        let mut next = current.clone();
        self.msg_apply_in_place(vertex, &mut next, message, iteration)
            .then_some(next)
    }

    /// Tightens `value` column by column without allocating.  An improved
    /// row keeps `min(value.len(), message.len())` columns, as a
    /// column-wise `zip` would; a row nothing improves is left untouched.
    fn msg_apply_in_place(
        &self,
        _vertex: VertexId,
        value: &mut Distances,
        message: &Relaxation,
        _iteration: usize,
    ) -> bool {
        // Most merged messages improve nothing: answer those before
        // touching the row.
        if !value.iter().zip(message.iter()).any(|(cur, new)| new < cur) {
            return false;
        }
        value.truncate(message.len());
        for (cur, new) in value.iter_mut().zip(message.iter()) {
            if new < cur {
                *cur = *new;
            }
        }
        true
    }

    fn initial_active(&self, num_vertices: usize) -> Option<Vec<VertexId>> {
        Some(
            self.sources
                .iter()
                .copied()
                .filter(|&s| (s as usize) < num_vertices)
                .collect(),
        )
    }

    fn name(&self) -> &'static str {
        "SSSP-BF"
    }

    fn operational_intensity(&self) -> f64 {
        // Each triplet relaxes one edge per source.
        0.4 * self.sources.len() as f64
    }

    fn cache_key(&self) -> Option<String> {
        // The source list is the algorithm's entire parameterisation.
        let mut key = String::from("s");
        for (i, source) in self.sources.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(&source.to_string());
        }
        Some(key)
    }

    /// Seeds every batch from its dirty frontier.  Distances only ever
    /// tighten: relaxation applies a strict `<`, per-path sums are
    /// deterministic, and a converged distance vector is a valid upper bound
    /// to restart from, so warm values plus the dirty frontier converge to
    /// the bit-identical fixed point a from-scratch run reaches.  Edge
    /// removals can *lengthen* shortest paths; the engine's trim
    /// re-initialises what [`derived_via`](GraphAlgorithm::derived_via)
    /// marks as possibly derived through a removed edge, so removals stay
    /// incremental.  Vertex detaches still force a cold re-run.
    fn rescope(&self, scope: &MutationScope) -> Option<Vec<VertexId>> {
        (!scope.has_detaches).then(|| scope.dirty.clone())
    }

    /// `true` when some finite column of `dst` is exactly `src + edge` — the
    /// same `f64` addition [`msg_gen_into`](GraphAlgorithm::msg_gen_into)
    /// performs, so a distance this edge produced always matches, and one it
    /// did not produce can match only by tying with it.
    fn derived_via(&self, src: &Distances, edge: &f64, dst: &Distances) -> bool {
        src.iter()
            .zip(dst)
            .any(|(s, d)| d.is_finite() && *d == s + edge)
    }

    /// Each vertex owns a distance vector (one `f64` per source), so a
    /// byte-budgeted result cache must charge the vector payloads, not just
    /// the `Vec` headers.
    fn value_bytes(value: &Distances) -> usize {
        std::mem::size_of_val(value.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::multi_source_sssp_reference;
    use gxplug_engine::cluster::Cluster;
    use gxplug_engine::network::NetworkModel;
    use gxplug_engine::profile::RuntimeProfile;
    use gxplug_graph::generators::{Generator, GridRoad, Rmat};
    use gxplug_graph::graph::PropertyGraph;
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};

    fn check_against_reference(
        graph: &PropertyGraph<Distances, f64>,
        sources: Vec<VertexId>,
        parts: usize,
    ) {
        let algorithm = MultiSourceSssp::new(sources.clone());
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(graph, parts)
            .unwrap();
        let mut cluster = Cluster::build(
            graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        let report = cluster.run_native(&algorithm, "test", 1_000);
        assert!(report.converged, "did not converge");
        let values = cluster.collect_values();
        let expected = multi_source_sssp_reference(graph, &sources);
        for (v, (got, want)) in values.iter().zip(&expected).enumerate() {
            for (s, (g, w)) in got.iter().zip(want).enumerate() {
                let same = (g.is_infinite() && w.is_infinite()) || (g - w).abs() < 1e-9;
                assert!(same, "vertex {v} source {s}: got {g}, want {w}");
            }
        }
    }

    #[test]
    fn matches_reference_on_power_law_graph() {
        let list = Rmat::new(9, 5.0).generate(21);
        let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
        check_against_reference(&graph, vec![0, 1, 2, 3], 3);
    }

    #[test]
    fn matches_reference_on_road_graph() {
        let list = GridRoad::new(12, 12, 0.05).generate(4);
        let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
        check_against_reference(&graph, vec![0, 77], 2);
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let list = GridRoad::new(4, 4, 0.0).generate(1);
        let mut el = list;
        el.ensure_vertex(63); // add isolated vertices 16..=63
        let graph = PropertyGraph::from_edge_list(el, Vec::new()).unwrap();
        check_against_reference(&graph, vec![0], 2);
    }

    #[test]
    fn in_place_merge_and_early_apply_match_the_collecting_forms() {
        // The `Vec` zip forms the inline message replaced.
        fn zip_gen(src: &[f64], edge: f64) -> Option<Distances> {
            (!src.iter().all(|d| d.is_infinite())).then(|| src.iter().map(|d| d + edge).collect())
        }
        fn zip_merge(a: &[f64], b: &[f64]) -> Distances {
            a.iter().zip(b).map(|(x, y)| x.min(*y)).collect()
        }
        fn zip_apply(current: &[f64], message: &[f64]) -> Option<Distances> {
            let mut improved = false;
            let next: Distances = current
                .iter()
                .zip(message)
                .map(|(cur, new)| {
                    if *new < *cur {
                        improved = true;
                        *new
                    } else {
                        *cur
                    }
                })
                .collect();
            improved.then_some(next)
        }
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let inf = f64::INFINITY;
        // Widths 0 through 6: inline rows and spilled ones.
        let vectors: Vec<Distances> = vec![
            vec![],
            vec![0.0],
            vec![-0.0, 5.0],
            vec![-inf, 0.5, 7.0],
            vec![inf, inf, inf, inf],
            vec![1.0, inf, -inf, 3.5],
            vec![2.0, 4.0, inf, 0.0],
            vec![0.0, 2.5, inf, 1.0, -inf],
            vec![1.0, inf, -inf, 3.5, 9.0, -0.0],
        ];
        let relaxation = |v: &Distances| Relaxation::from_columns(v.iter().copied());
        let algorithm = MultiSourceSssp::paper_default();
        for a in &vectors {
            let triplet = Triplet::new(0, 9, a.clone(), Vec::new(), 1.25);
            let generated = algorithm.msg_gen(&triplet, 0);
            assert_eq!(
                generated.first().map(|m| bits(&m.payload)),
                zip_gen(a, 1.25).as_deref().map(bits),
                "gen {a:?}"
            );
            for b in &vectors {
                let merged = algorithm.msg_merge(relaxation(a), relaxation(b));
                let want = zip_merge(a, b);
                assert_eq!(bits(&merged), bits(&want), "merge {a:?} {b:?}");
                // A merged row may stay spilled below the inline width; the
                // next merge must not care which variant holds it.
                for c in &vectors {
                    let chained = algorithm.msg_merge(merged.clone(), relaxation(c));
                    assert_eq!(bits(&chained), bits(&zip_merge(&want, c)));
                }
                let applied = algorithm.msg_apply(0, a, &relaxation(b), 0);
                assert_eq!(
                    applied.as_deref().map(bits),
                    zip_apply(a, b).as_deref().map(bits),
                    "apply {a:?} {b:?}"
                );
            }
        }
        // An operand wider than a `u8` width still truncates by its true
        // width.
        let wide = vec![0.5; 300];
        let merged = algorithm.msg_merge(relaxation(&vectors[5]), relaxation(&wide));
        assert_eq!(bits(&merged), bits(&zip_merge(&vectors[5], &wide)));
        // The per-target merge slots hold one `Option<Relaxation>` per local
        // vertex; the inline width is chosen to keep that slot at 40 bytes.
        assert!(std::mem::size_of::<Option<Relaxation>>() <= 40);
        assert!(matches!(relaxation(&vectors[5]).row, Row::Inline { .. }));
        assert!(matches!(relaxation(&vectors[7]).row, Row::Spilled(_)));
    }

    #[test]
    fn in_place_apply_matches_msg_apply_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let inf = f64::INFINITY;
        // Widths 1 and 4 keep the message inline, 6 spills it.
        for width in [1usize, 4, 6] {
            let algorithm = MultiSourceSssp::new((0..width as VertexId).collect());
            let row = |seed: usize| -> Distances {
                (0..width)
                    .map(|c| match (seed + c) % 4 {
                        0 => inf,
                        1 => -0.0,
                        k => (seed * 3 + k) as f64 * 0.75,
                    })
                    .collect()
            };
            for a in 0..6 {
                for b in 0..6 {
                    // Full-width messages, and one column narrower.
                    for message_width in [width, width - 1] {
                        let current = row(a);
                        let message =
                            Relaxation::from_columns(row(b).into_iter().take(message_width));
                        let applied = algorithm.msg_apply(7, &current, &message, 3);
                        let mut value = current.clone();
                        let changed = algorithm.msg_apply_in_place(7, &mut value, &message, 3);
                        assert_eq!(changed, applied.is_some(), "{current:?} {message:?}");
                        let want = applied.unwrap_or_else(|| current.clone());
                        assert_eq!(bits(&value), bits(&want), "{current:?} {message:?}");
                        if changed {
                            assert_eq!(value.len(), width.min(message_width));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn warm_runs_update_improved_rows_in_place() {
        use gxplug_graph::mutate::{MutationBatch, MutationLog};
        let list = Rmat::new(9, 5.0).generate(21);
        let graph: PropertyGraph<Distances, f64> =
            PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
        let algorithm = MultiSourceSssp::paper_default();
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 2)
            .unwrap();
        let mut cluster = Cluster::build(
            &graph,
            partitioning.clone(),
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        assert!(cluster.run_native(&algorithm, "rmat", 1_000).converged);
        // The farthest reachable vertex gets a near-free shortcut from
        // source 0, which the warm run must apply to its master row.
        let values = cluster.collect_values();
        let target = (0..graph.num_vertices())
            .filter(|&v| values[v][0].is_finite())
            .max_by(|&a, &b| values[a][0].total_cmp(&values[b][0]))
            .unwrap() as VertexId;
        let mut log = MutationLog::new(
            graph.num_vertices(),
            graph.edges().iter().map(|e| (e.src, e.dst)),
        );
        let delta = log
            .append(&MutationBatch::new().add_edge(0, target, 0.125))
            .unwrap();
        cluster.apply_mutations(&delta);
        let master = cluster.node(partitioning.master_of(target));
        let before = master.vertex_value(target).unwrap().as_ptr();
        cluster.seed_incremental(&algorithm, &delta.dirty_vertices(), &[]);
        assert!(cluster.run_native(&algorithm, "rmat", 1_000).converged);
        let master = cluster.node(partitioning.master_of(target));
        let after = master.vertex_value(target).unwrap();
        assert_eq!(after[0], 0.125);
        assert_eq!(after.as_ptr(), before, "the improved row was reallocated");
    }

    #[test]
    fn operational_intensity_scales_with_sources() {
        let one = MultiSourceSssp::new(vec![0]);
        let four = MultiSourceSssp::paper_default();
        assert!(four.operational_intensity() > one.operational_intensity());
        assert_eq!(four.sources().len(), 4);
        assert_eq!(four.name(), "SSSP-BF");
    }

    #[test]
    #[should_panic]
    fn requires_at_least_one_source() {
        let _ = MultiSourceSssp::new(Vec::new());
    }

    #[test]
    fn cache_key_encodes_the_source_list() {
        let a = MultiSourceSssp::new(vec![0, 1, 2, 3]);
        let b = MultiSourceSssp::new(vec![0, 1, 2, 3]);
        let c = MultiSourceSssp::new(vec![3, 2, 1, 0]);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_eq!(a.cache_key().unwrap(), "s0,1,2,3");
    }

    #[test]
    fn value_bytes_counts_the_per_vertex_distance_payload() {
        // A byte-budgeted result cache charges each vertex's distance
        // vector, not just its `Vec` header.
        let value: Distances = vec![0.0; 7];
        assert_eq!(
            MultiSourceSssp::value_bytes(&value),
            7 * std::mem::size_of::<f64>()
        );
        assert_eq!(MultiSourceSssp::value_bytes(&Distances::new()), 0);
    }
}
