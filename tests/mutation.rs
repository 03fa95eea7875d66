//! Live-mutation determinism: mutating a deployed service in place must be
//! indistinguishable — bit for bit — from tearing everything down and
//! rebuilding from scratch over the mutated graph.
//!
//! Two arms, both driven through [`GraphService`] in both execution modes:
//!
//! * **PageRank** (always-active, not incremental): after a mutation the
//!   worker session's cluster absorbs the delta in place and the next run
//!   does a full re-initialisation.  Values *and* iteration counts must
//!   equal a fresh service built over the mutated graph with the same
//!   extended partitioning.
//! * **SSSP** (opted into incremental recompute): an insert-only batch seeds
//!   the next run from the dirty frontier on top of the previous converged
//!   distances.  The warm start is an upper bound, and the strict-improvement
//!   apply drives it to the same fixed point, so *values* must be
//!   bit-identical to the from-scratch rebuild (iteration counts may
//!   legitimately differ — that difference is the speedup).
//!
//! A third arm covers the lazy-deployment path: a mutation applied before a
//! service's first job must be replayed into the worker's freshly built
//! cluster before it runs.  A fourth pins that the incremental path is
//! *taken*: counted in triplets, not wall time, a refresh after a small
//! insert-only batch does at most half the work of a full rerun, and one
//! after a batch that retires edges (the trimmed refresh) at most a quarter.
//! A fifth pins that retiring edges retires the replicas they orphan, so
//! the replication factor does not drift under churn.

use gx_plug::prelude::*;
use std::sync::Arc;

fn mixed_devices(nodes: usize) -> Vec<Vec<DeviceSpec>> {
    (0..nodes)
        .map(|n| {
            vec![
                gpu_v100(format!("n{n}-gpu")),
                cpu_xeon_20c(format!("n{n}-cpu")),
            ]
        })
        .collect()
}

fn service_over<V>(
    graph: &Arc<PropertyGraph<V, f64>>,
    partitioning: &Partitioning,
    mode: ExecutionMode,
) -> GraphService<V, f64>
where
    V: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static,
{
    GraphService::builder(Arc::clone(graph))
        .partitioned_by(partitioning.clone())
        .devices(mixed_devices(partitioning.num_parts()))
        .config(MiddlewareConfig::default().with_execution(mode))
        .dataset("rmat")
        .max_iterations(100)
        .worker_sessions(1)
        .build()
        .unwrap()
}

/// An edge `(u, v)` whose insertion replicates the lowest-id vertex `v`
/// possible onto a node that does not hold it yet (the master node of `u`,
/// where a new edge lands).  Mutated in place, that node appends `v` as a
/// new local id out of global-id order; rebuilt, it holds `v` in order.
fn low_id_replica_edge(partitioning: &Partitioning) -> (VertexId, VertexId) {
    let n = partitioning.num_vertices() as VertexId;
    (0..n)
        .flat_map(|v| (0..n).map(move |u| (u, v)))
        .find(|&(u, v)| {
            u != v
                && partitioning
                    .part(partitioning.master_of(u))
                    .vertices
                    .binary_search(&v)
                    .is_err()
        })
        .expect("some node lacks a replica of some vertex")
}

/// The synchronization-cache counters of every agent: `[hits, misses,
/// evictions, downloaded_entities]`.  They depend on the probe and victim
/// orders, which must not depend on how a node's local ids were assigned.
fn sync_cache_counters(stats: &[gx_plug::core::AgentStats]) -> Vec<[u64; 4]> {
    stats
        .iter()
        .map(|agent| {
            [
                agent.cache.hits,
                agent.cache.misses,
                agent.cache.evictions,
                agent.downloaded_entities,
            ]
        })
        .collect()
}

/// Applies `delta` to clones of the master graph and partitioning — the
/// "rebuild from scratch" side of every equivalence check.
fn rebuild<V: Clone + PartialEq>(
    graph: &PropertyGraph<V, f64>,
    partitioning: &Partitioning,
    delta: &ResolvedMutation<V, f64>,
) -> (Arc<PropertyGraph<V, f64>>, Partitioning) {
    let mut mutated = graph.clone();
    mutated.apply_mutations(delta);
    let mut extended = partitioning.clone();
    extended.apply_mutations(delta);
    (Arc::new(mutated), extended)
}

#[test]
fn mutated_service_pagerank_is_bit_identical_to_rebuilt_service() {
    let list = Rmat::new(9, 8.0).generate(31);
    let default = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    let graph = Arc::new(PropertyGraph::from_edge_list(list, default).unwrap());
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let new_vertex = graph.num_vertices() as VertexId;
    let (u, v) = low_id_replica_edge(&partitioning);
    let batch = MutationBatch::new()
        .add_vertex(default)
        .add_edge(0, new_vertex, 1.0)
        .add_edge(new_vertex, 5, 1.0)
        .add_edge(u, v, 1.0)
        .remove_edge(3)
        .remove_edge(17);
    let rank_bits = |values: &[RankValue]| -> Vec<(u64, u32)> {
        values
            .iter()
            .map(|v| (v.rank.to_bits(), v.out_degree))
            .collect()
    };

    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        // Warm the deployed service with a run, then mutate it in place.
        let service = service_over(&graph, &partitioning, mode);
        service.submit(PageRank::new(20)).unwrap().wait().unwrap();
        let delta = service.apply_mutations(&batch).unwrap();
        let mutated = service.submit(PageRank::new(20)).unwrap().wait().unwrap();

        // The rebuilt-from-scratch service over the mutated graph.
        let (mutated_graph, extended) = rebuild(&graph, &partitioning, &delta);
        let fresh = service_over(&mutated_graph, &extended, mode);
        let reference = fresh.submit(PageRank::new(20)).unwrap().wait().unwrap();

        assert_eq!(
            mutated.report.num_iterations(),
            reference.report.num_iterations(),
            "iteration counts diverged in {mode:?}"
        );
        assert_eq!(
            rank_bits(&mutated.values),
            rank_bits(&reference.values),
            "in-place mutation diverged from rebuild in {mode:?}"
        );
        assert_eq!(
            sync_cache_counters(&mutated.agent_stats),
            sync_cache_counters(&reference.agent_stats),
            "in-place mutation moved the sync-cache counters in {mode:?}"
        );
        assert_eq!(mutated.values.len(), graph.num_vertices() + 1);
    }
}

#[test]
fn mutated_service_sssp_incremental_recompute_matches_rebuilt_service() {
    let list = Rmat::new(9, 8.0).generate(47);
    let graph = Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    // Insert-only: the warm distances stay valid upper bounds, so the
    // incremental path is sound and taken.
    let new_vertex = graph.num_vertices() as VertexId;
    let (u, v) = low_id_replica_edge(&partitioning);
    let batch = MutationBatch::new()
        .add_vertex(Vec::new())
        .add_edge(0, new_vertex, 0.5)
        .add_edge(new_vertex, 9, 0.25)
        .add_edge(2, 7, 0.125)
        .add_edge(u, v, 4.0);
    let sssp_bits = |values: &[Vec<f64>]| -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|d| d.iter().map(|x| x.to_bits()).collect())
            .collect()
    };

    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        let algorithm = MultiSourceSssp::paper_default();
        let service = service_over(&graph, &partitioning, mode);
        // The fill run converges and leaves warm per-vertex distances in the
        // worker session.
        let warm = service.submit(algorithm.clone()).unwrap().wait().unwrap();
        assert!(warm.report.converged);
        let delta = service.apply_mutations(&batch).unwrap();
        // The duplicate submission is a version miss; the rerun seeds only
        // the dirty frontier on top of the warm distances.
        let incremental = service.submit(algorithm.clone()).unwrap().wait().unwrap();
        assert!(incremental.report.converged);

        let (mutated_graph, extended) = rebuild(&graph, &partitioning, &delta);
        let fresh = service_over(&mutated_graph, &extended, mode);
        let reference = fresh.submit(algorithm.clone()).unwrap().wait().unwrap();

        assert_eq!(
            sssp_bits(&incremental.values),
            sssp_bits(&reference.values),
            "incremental recompute diverged from rebuild in {mode:?}"
        );
        // The incremental rerun legitimately does less work than the
        // rebuild, so the sync-cache counters are compared on a full run of
        // other sources (no warm state to continue from) on each side.
        let full = MultiSourceSssp::new(vec![1, 3]);
        let mutated_full = service.submit(full.clone()).unwrap().wait().unwrap();
        let reference_full = fresh.submit(full).unwrap().wait().unwrap();
        assert_eq!(
            sssp_bits(&mutated_full.values),
            sssp_bits(&reference_full.values)
        );
        assert_eq!(
            sync_cache_counters(&mutated_full.agent_stats),
            sync_cache_counters(&reference_full.agent_stats),
            "in-place mutation moved the sync-cache counters in {mode:?}"
        );
        assert_eq!(incremental.values.len(), graph.num_vertices() + 1);
        // The new vertex hangs off source-side structure: it must have been
        // reached (paper sources include vertex 0 → distance 0.5 via the
        // added edge) rather than left at its initialisation value.
        assert!(incremental.values[new_vertex as usize]
            .iter()
            .any(|d| d.is_finite()));

        // The runs over sources {1, 3} replaced the warm state: one more
        // insert and a run make the paper's sources warm again.
        let rewarm = service
            .apply_mutations(&MutationBatch::new().add_edge(5, 6, 1.5))
            .unwrap();
        let warm = service.submit(algorithm.clone()).unwrap().wait().unwrap();
        let (warm_graph, warm_partitioning) = rebuild(&mutated_graph, &extended, &rewarm);
        // Then a batch retires tight edges — ones some converged distance
        // came through — and adds others: the trimmed refresh re-derives
        // what they carried, through the typed algorithm the service's
        // queued job runs, and still lands on the rebuild's bits.
        // The farthest heads carry the least downstream, so the trim stays
        // smaller than a cold run.
        let farthest = |d: &Vec<f64>| {
            d.iter()
                .copied()
                .filter(|x| x.is_finite())
                .fold(0.0, f64::max)
        };
        let mut tight: Vec<usize> = (warm_graph.edges().iter().enumerate())
            .filter(|(_, e)| {
                let (src, dst) = (&warm.values[e.src as usize], &warm.values[e.dst as usize]);
                src.iter()
                    .zip(dst)
                    .any(|(s, d)| d.is_finite() && *d == s + e.attr)
            })
            .map(|(id, _)| id)
            .collect();
        tight.sort_by(|&a, &b| {
            let head = |id: usize| farthest(&warm.values[warm_graph.edge(id).dst as usize]);
            head(b).total_cmp(&head(a)).then(a.cmp(&b))
        });
        tight.truncate(12);
        assert_eq!(tight.len(), 12);
        let retire = tight
            .iter()
            .fold(MutationBatch::new(), |batch, &edge| batch.remove_edge(edge))
            .add_edge(3, 11, 2.5)
            .add_edge(new_vertex, 1, 0.75);
        let retired = service.apply_mutations(&retire).unwrap();
        let trimmed = service.submit(algorithm.clone()).unwrap().wait().unwrap();
        assert!(trimmed.report.converged);
        let (retired_graph, retiring) = rebuild(&warm_graph, &warm_partitioning, &retired);
        let fresh = service_over(&retired_graph, &retiring, mode);
        let reference = fresh.submit(algorithm.clone()).unwrap().wait().unwrap();
        assert_eq!(
            sssp_bits(&trimmed.values),
            sssp_bits(&reference.values),
            "trimmed refresh diverged from rebuild in {mode:?}"
        );
        assert!(
            trimmed.report.total_triplets() < reference.report.total_triplets(),
            "the removal batch was not refreshed incrementally in {mode:?}"
        );
    }
}

#[test]
fn mutations_before_the_first_job_replay_into_the_lazy_deployment() {
    // Workers build their clusters lazily on the first submission; a batch
    // applied before that must queue and replay into the fresh build.
    let list = Rmat::new(8, 8.0).generate(53);
    let graph = Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let batch = MutationBatch::new()
        .add_vertex(Vec::new())
        .add_edge(1, graph.num_vertices() as VertexId, 2.0)
        .remove_edge(0);

    let service = service_over(&graph, &partitioning, ExecutionMode::Threaded);
    let delta = service.apply_mutations(&batch).unwrap();
    let outcome = service
        .submit(MultiSourceSssp::paper_default())
        .unwrap()
        .wait()
        .unwrap();

    let (mutated_graph, extended) = rebuild(&graph, &partitioning, &delta);
    let fresh = service_over(&mutated_graph, &extended, ExecutionMode::Threaded);
    let reference = fresh
        .submit(MultiSourceSssp::paper_default())
        .unwrap()
        .wait()
        .unwrap();

    assert_eq!(
        outcome.report.num_iterations(),
        reference.report.num_iterations()
    );
    for (a, b) in outcome.values.iter().zip(&reference.values) {
        let bits = |d: &Vec<f64>| d.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(a), bits(b));
    }
}

#[test]
fn insert_only_refresh_does_at_most_half_the_work_of_a_full_rerun() {
    let list = Rmat::new(12, 8.0).generate(42);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    // About 0.1 % of the edges, insert-only, at scrambled but fixed
    // endpoints: the warm distances stay valid upper bounds.
    let n = graph.num_vertices() as u64;
    let batch = (0..graph.num_edges() / 1_000).fold(MutationBatch::new(), |batch, i| {
        let x = gx_plug::ipc::key::splitmix64(i as u64);
        let (src, dst) = ((x % n) as VertexId, ((x >> 32) % n) as VertexId);
        batch.add_edge(src, dst, 0.5 + (i % 7) as f64)
    });
    let delta = MutationLog::new(
        graph.num_vertices(),
        graph.edges().iter().map(|e| (e.src, e.dst)),
    )
    .append(&batch)
    .unwrap();
    let algorithm = MultiSourceSssp::paper_default();
    let bits = |values: &[Vec<f64>]| -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|d| d.iter().map(|x| x.to_bits()).collect())
            .collect()
    };

    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        let deploy = || {
            SessionBuilder::new(&graph)
                .partitioned_by(partitioning.clone())
                .devices(mixed_devices(partitioning.num_parts()))
                .config(MiddlewareConfig::default().with_execution(mode))
                .dataset("rmat")
                .max_iterations(100)
                .build()
                .unwrap()
        };
        let (mut incremental, mut full) = (deploy(), deploy());
        assert!(incremental.run(&algorithm).unwrap().report.converged);
        assert!(full.run(&algorithm).unwrap().report.converged);
        incremental.apply_mutations(&delta);
        full.apply_mutations(&delta);
        full.forget_warm_state();
        let refresh = incremental.run(&algorithm).unwrap();
        let rerun = full.run(&algorithm).unwrap();

        assert_eq!(
            bits(&refresh.values),
            bits(&rerun.values),
            "incremental refresh diverged from the full rerun in {mode:?}"
        );
        let (warm, cold) = (
            refresh.report.total_triplets(),
            rerun.report.total_triplets(),
        );
        assert!(
            2 * warm <= cold,
            "refresh processed {warm} triplets, full rerun {cold}, in {mode:?}: \
             the incremental path was not taken"
        );
    }
}

/// `count` edges at scrambled but fixed endpoints, keyed by `salt`, with the
/// weights the benchmark's churn uses.
fn scrambled_inserts(
    mut batch: MutationBatch<Vec<f64>, f64>,
    num_vertices: usize,
    count: usize,
    salt: u64,
) -> MutationBatch<Vec<f64>, f64> {
    let n = num_vertices as u64;
    for i in 0..count {
        let x = gx_plug::ipc::key::splitmix64(salt.wrapping_mul(1_000_003) + i as u64);
        let (src, dst) = ((x % n) as VertexId, ((x >> 32) % n) as VertexId);
        batch = batch.add_edge(src, dst, 0.5 + (i % 7) as f64);
    }
    batch
}

#[test]
fn removal_refresh_does_at_most_a_quarter_of_the_work_of_a_full_rerun() {
    let list = Rmat::new(12, 8.0).generate(42);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    // Seven insert-only batches of 0.1 % of the edges, then one that retires
    // everything they inserted and inserts a fresh 0.1 %: the shape of the
    // benchmark's churn.
    let per_batch = graph.num_edges() / 1_000;
    let mut log = MutationLog::new(
        graph.num_vertices(),
        graph.edges().iter().map(|e| (e.src, e.dst)),
    );
    let mut deltas = Vec::new();
    for salt in 0..7 {
        let batch = scrambled_inserts(MutationBatch::new(), graph.num_vertices(), per_batch, salt);
        deltas.push(log.append(&batch).unwrap());
    }
    let retire = (graph.num_edges()..log.num_edges())
        .fold(MutationBatch::new(), |batch, edge| batch.remove_edge(edge));
    let retire = scrambled_inserts(retire, graph.num_vertices(), per_batch, 7);
    let last = log.append(&retire).unwrap();
    assert_eq!(last.removed_edges.len(), 7 * per_batch);
    let algorithm = MultiSourceSssp::paper_default();
    let bits = |values: &[Vec<f64>]| -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|d| d.iter().map(|x| x.to_bits()).collect())
            .collect()
    };

    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        let deploy = || {
            SessionBuilder::new(&graph)
                .partitioned_by(partitioning.clone())
                .devices(mixed_devices(partitioning.num_parts()))
                .config(MiddlewareConfig::default().with_execution(mode))
                .dataset("rmat")
                .max_iterations(100)
                .build()
                .unwrap()
        };
        let (mut incremental, mut full) = (deploy(), deploy());
        assert!(incremental.run(&algorithm).unwrap().report.converged);
        for delta in &deltas {
            incremental.apply_mutations(delta);
            assert!(incremental.run(&algorithm).unwrap().report.converged);
            full.apply_mutations(delta);
        }
        incremental.apply_mutations(&last);
        full.apply_mutations(&last);
        full.forget_warm_state();
        let refresh = incremental.run(&algorithm).unwrap();
        let rerun = full.run(&algorithm).unwrap();

        assert_eq!(
            bits(&refresh.values),
            bits(&rerun.values),
            "trimmed refresh diverged from the full rerun in {mode:?}"
        );
        let (warm, cold) = (
            refresh.report.total_triplets(),
            rerun.report.total_triplets(),
        );
        assert!(
            4 * warm <= cold,
            "refresh processed {warm} triplets, full rerun {cold}, in {mode:?}: \
             the removal was not trimmed"
        );
    }
}

#[test]
fn replication_factor_stays_flat_under_churn() {
    // The benchmark's churn on rmat-10 over 4 nodes: every round inserts
    // 0.1 % of the edges, every 8th also retires what the rounds since the
    // last retirement inserted, so the graph keeps its size.  Replicas the
    // retirements orphan must go with them.
    const ROUNDS: u64 = 1_000;
    const RETIRE_EVERY: u64 = 8;
    let list = Rmat::new(10, 8.0).generate(5);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 4)
        .unwrap();
    let start = partitioning.replication_factor();
    let per_batch = graph.num_edges() / 1_000;
    let algorithm = MultiSourceSssp::paper_default();
    let build = |graph: &PropertyGraph<Vec<f64>, f64>, partitioning: &Partitioning| {
        Cluster::build(
            graph,
            partitioning.clone(),
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        )
    };
    let bits = |values: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
        values
            .into_iter()
            .map(|d| d.into_iter().map(f64::to_bits).collect())
            .collect()
    };

    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        let mut log = MutationLog::new(
            graph.num_vertices(),
            graph.edges().iter().map(|e| (e.src, e.dst)),
        );
        let (mut mutated, mut churned) = (graph.clone(), partitioning.clone());
        let mut cluster = build(&graph, &partitioning);
        assert!(
            cluster
                .run_native_mode(&algorithm, "rmat", 1_000, mode)
                .converged
        );
        let mut scope = MutationScope::new();
        let mut inserted = 0;
        for round in 1..=ROUNDS {
            let mut batch = MutationBatch::new();
            let retire = round % RETIRE_EVERY == 0;
            if retire {
                for edge in log.num_edges() - inserted..log.num_edges() {
                    batch = batch.remove_edge(edge);
                }
                inserted = 0;
            }
            let batch = scrambled_inserts(batch, graph.num_vertices(), per_batch, round);
            inserted += per_batch;
            let delta = log.append(&batch).unwrap();
            mutated.apply_mutations(&delta);
            churned.apply_mutations(&delta);
            cluster.apply_mutations(&delta);
            scope.absorb(&delta);
            if retire {
                // Refresh from the warm values after every retirement.
                let seed = GraphAlgorithm::rescope(&algorithm, &scope).expect("no detaches");
                cluster.seed_incremental(&algorithm, &seed, &scope.added_vertices);
                scope.clear();
                assert!(
                    cluster
                        .run_native_mode(&algorithm, "rmat", 1_000, mode)
                        .converged
                );
            }
        }
        assert_eq!(mutated.num_edges(), graph.num_edges() + inserted);
        let factor = churned.replication_factor();
        assert!(
            (factor - start).abs() <= 0.05,
            "replication factor drifted from {start:.3} to {factor:.3} in {mode:?}"
        );
        // The deployment holds exactly the replicas the partitioning lists.
        let rows: usize = cluster.nodes().iter().map(|node| node.num_vertices()).sum();
        assert_eq!(rows as f64 / graph.num_vertices() as f64, factor);
        assert_eq!(cluster.partitioning(), &churned);
        // And the last refresh (round 1 000 retires) is a rebuild's answer,
        // bit for bit.
        let mut rebuilt = build(&mutated, &churned);
        rebuilt.run_native_mode(&algorithm, "rmat", 1_000, mode);
        assert_eq!(
            bits(cluster.collect_values()),
            bits(rebuilt.collect_values())
        );
    }
}
