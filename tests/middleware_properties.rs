//! Property-based tests (proptest) over the core data structures and the
//! analytical results of the paper: Lemma 1 (block sizing), Lemmas 2 and 3
//! (workload balancing), partitioning invariants and the synchronization
//! cache.

use gx_plug::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- Lemma 1: block-size selection ----------------

    /// The closed-form optimum of Lemma 1 is never worse (beyond integer
    /// rounding slack) than any block size in a log-spaced sweep.
    #[test]
    fn lemma1_optimum_beats_sweep(
        k1 in 0.001f64..1.0,
        k2 in 0.001f64..1.0,
        k3 in 0.001f64..1.0,
        a in 0.0f64..50.0,
        d in 100usize..200_000,
    ) {
        let coefficients = PipelineCoefficients::new(k1, k2, k3, a);
        let best = coefficients.optimal_block_size(d);
        prop_assert!(best.block_size >= 1 && best.block_size <= d);
        let mut b = 1usize;
        while b <= d {
            let swept = coefficients.estimate_total(d, b);
            prop_assert!(
                best.estimated_total <= swept * 1.02 + 1e-9,
                "b={} swept {} beats optimum {}", b, swept, best.estimated_total
            );
            b *= 2;
        }
    }

    /// The Equation-2 estimate stays close to the exact discrete schedule.
    #[test]
    fn estimate_tracks_discrete_schedule(
        k1 in 0.001f64..1.0,
        k2 in 0.001f64..1.0,
        k3 in 0.001f64..1.0,
        a in 0.0f64..10.0,
        d in 100usize..50_000,
        b in 1usize..5_000,
    ) {
        let coefficients = PipelineCoefficients::new(k1, k2, k3, a);
        let estimate = coefficients.estimate_total(d, b);
        let executed = coefficients.simulate_schedule(d, b);
        prop_assert!(estimate >= 0.0 && executed >= 0.0);
        // The estimate assumes `s` full blocks; the executed schedule handles
        // the ragged tail, so they may differ by at most one block's worth of
        // work plus modelling slack.
        let block = b.min(d) as f64;
        let slack = k1 * block + (a + k2 * block) + k3 * block + 1e-9;
        prop_assert!((estimate - executed).abs() <= slack + 0.15 * executed,
            "estimate {} vs executed {}", estimate, executed);
    }

    // ---------------- Lemmas 2 and 3: workload balancing ----------------

    /// The Lemma-2 placement achieves the analytical optimum `D / Σ(1/c_j)`
    /// and no random alternative placement does better.
    #[test]
    fn lemma2_placement_is_optimal(
        capacities in prop::collection::vec(0.1f64..100.0, 1..8),
        total in 1_000usize..1_000_000,
        noise in prop::collection::vec(0.01f64..1.0, 8),
    ) {
        let plan = balance_partitioning(&capacities, total).unwrap();
        let optimal = gx_plug::core::estimate_makespan(&plan.data_sizes, &capacities).unwrap();
        prop_assert!((optimal.as_millis() - plan.optimal_makespan.as_millis()).abs() < 1e-6);
        // A random (normalised) alternative placement is never faster.
        let weights: Vec<f64> = capacities.iter().zip(&noise).map(|(_, n)| *n).collect();
        let sum: f64 = weights.iter().sum();
        let alternative: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
        let alt = gx_plug::core::estimate_makespan(&alternative, &capacities).unwrap();
        prop_assert!(alt.as_millis() + 1e-9 >= optimal.as_millis());
    }

    /// Lemma 3's capacity prescription is (a) sufficient to reach the optimal
    /// makespan `d* / f` and (b) minimal: reducing any node's capacity makes
    /// that node slower than the optimum.
    #[test]
    fn lemma3_capacities_are_sufficient_and_minimal(
        data in prop::collection::vec(1usize..100_000, 1..8),
        f in 0.5f64..500.0,
    ) {
        let plan = balance_capacities(&data, f).unwrap();
        let sizes: Vec<f64> = data.iter().map(|&d| d as f64).collect();
        let achieved = gx_plug::core::estimate_makespan(&sizes, &plan.capacity_factors).unwrap();
        prop_assert!((achieved.as_millis() - plan.optimal_makespan.as_millis()).abs() < 1e-6);
        for (j, &d_j) in data.iter().enumerate() {
            if d_j == 0 { continue; }
            let reduced = plan.capacity_factors[j] * 0.9;
            let slower = d_j as f64 / reduced;
            prop_assert!(slower > plan.optimal_makespan.as_millis() - 1e-9);
        }
    }

    // ---------------- Partitioning invariants ----------------

    /// Every partitioner assigns each edge exactly once, gives every vertex
    /// exactly one master, and replicates each edge's endpoints onto the
    /// edge's part.
    #[test]
    fn partitioning_invariants_hold(
        seed in 0u64..1_000,
        parts in 1usize..9,
        scale in 6u32..9,
    ) {
        let list = Rmat::new(scale, 4.0).generate(seed);
        let graph: PropertyGraph<u32, f64> = PropertyGraph::from_edge_list(list, 0).unwrap();
        let partitionings: Vec<(&str, Partitioning)> = vec![
            ("hash", HashEdgePartitioner::new(seed).partition(&graph, parts).unwrap()),
            ("range", RangePartitioner.partition(&graph, parts).unwrap()),
            (
                "greedy",
                GreedyVertexCutPartitioner::default().partition(&graph, parts).unwrap(),
            ),
            (
                "weighted",
                WeightedEdgePartitioner::uniform(parts)
                    .unwrap()
                    .partition(&graph, parts)
                    .unwrap(),
            ),
        ];
        for (name, partitioning) in partitionings {
            let total_edges: usize = partitioning.edge_counts().iter().sum();
            prop_assert_eq!(total_edges, graph.num_edges(), "{}", name);
            let total_masters: usize = partitioning.parts().iter().map(|p| p.masters.len()).sum();
            prop_assert_eq!(total_masters, graph.num_vertices(), "{}", name);
            for (edge_id, edge) in graph.edges().iter().enumerate() {
                let part = partitioning.part_of_edge(edge_id);
                prop_assert!(partitioning.part(part).vertices.contains(&edge.src));
                prop_assert!(partitioning.part(part).vertices.contains(&edge.dst));
            }
            prop_assert!(partitioning.replication_factor() >= 1.0 - 1e-12);
            prop_assert!(partitioning.replication_factor() <= parts as f64 + 1e-12);
        }
    }

    /// The capacity-weighted partitioner hits its target fractions within one
    /// edge per part.
    #[test]
    fn weighted_partitioner_matches_targets(
        weights in prop::collection::vec(0.5f64..8.0, 2..6),
        seed in 0u64..100,
    ) {
        let list = ErdosRenyi::new(400, 4_000).generate(seed);
        let graph: PropertyGraph<u32, f64> = PropertyGraph::from_edge_list(list, 0).unwrap();
        let partitioner = WeightedEdgePartitioner::new(weights.clone()).unwrap();
        let partitioning = partitioner.partition(&graph, weights.len()).unwrap();
        let total: f64 = weights.iter().sum();
        for (count, weight) in partitioning.edge_counts().iter().zip(&weights) {
            let target = weight / total * graph.num_edges() as f64;
            prop_assert!((*count as f64 - target).abs() <= 1.0 + 1e-9,
                "count {} vs target {}", count, target);
        }
    }

    // ---------------- Synchronization cache ----------------

    /// The dense, generation-ordered sync cache, probed with row versions
    /// and packing each into one slot with its recency, is
    /// indistinguishable from the naive algorithm it replaced — a flat list
    /// of copied versions with a linear `min (last_used, global id)` victim
    /// scan: same download answer on every probe, same victim on every
    /// eviction, same counters.  Four
    /// shapes of probe sequence: the first advances `now` by 0 or 1 at
    /// random; the second probes ~32 vertices per `now` into a smaller cache,
    /// so most evictions hit the iteration's own generation; the third lets
    /// `now` jump by up to 4; the fourth re-probes one hot set, which fits the
    /// cache, in 4 or more rounds, so every round leaves the previous round's
    /// queue items stale and compaction must run.
    #[test]
    fn sync_cache_matches_the_naive_lru_oracle(
        capacity in 1usize..64,
        operations in prop::collection::vec((0u32..96, any::<bool>(), any::<bool>()), 1..400),
        small_capacity in 1usize..16,
        bursts in prop::collection::vec((0u32..96, any::<bool>(), 0u32..32), 1..400),
        jumps in prop::collection::vec((0u32..96, any::<bool>(), 0u64..5), 1..400),
        hot in prop::collection::vec((0u32..96, any::<bool>()), 1..48),
        rounds in 4usize..24,
    ) {
        let random = operations
            .iter()
            .map(|&(local, changed, advance)| (local, changed, u64::from(advance)));
        check_sync_cache_against_oracle(capacity, random);
        let bursts = bursts
            .iter()
            .map(|&(local, changed, roll)| (local, changed, u64::from(roll == 0)));
        check_sync_cache_against_oracle(small_capacity, bursts);
        check_sync_cache_against_oracle(capacity, jumps.iter().copied());
        let rounds = (0..rounds).flat_map(|_| {
            hot.iter()
                .enumerate()
                .map(|(i, &(local, changed))| (local, changed, u64::from(i == 0)))
        });
        check_sync_cache_against_oracle(hot.len(), rounds);
    }

    // ---------------- Graph construction ----------------

    /// CSR degrees always sum to the edge count and triplets join the right
    /// attributes.
    #[test]
    fn graph_construction_invariants(seed in 0u64..500, n in 2usize..200, m in 1usize..800) {
        let list = ErdosRenyi::new(n, m).generate(seed);
        let graph: PropertyGraph<u32, f64> =
            PropertyGraph::from_edge_list_with(list, |v| v * 3).unwrap();
        let out_sum: usize = graph.vertex_ids().map(|v| graph.out_degree(v)).sum();
        let in_sum: usize = graph.vertex_ids().map(|v| graph.in_degree(v)).sum();
        prop_assert_eq!(out_sum, graph.num_edges());
        prop_assert_eq!(in_sum, graph.num_edges());
        for (id, edge) in graph.edges().iter().enumerate().take(50) {
            let triplet = graph.triplet(id);
            prop_assert_eq!(triplet.src, edge.src);
            prop_assert_eq!(triplet.dst, edge.dst);
            prop_assert_eq!(triplet.src_attr, edge.src * 3);
            prop_assert_eq!(triplet.dst_attr, edge.dst * 3);
        }
    }
}

/// Replays `(local, changed, advance)` probes on a `VertexCache` sized for 48
/// tie keys (keys up to 100 grow its slots) and on the naive oracle,
/// checking both agree after every probe.  The upper system is one change
/// counter per local — the row versions the cache is probed with — bumped
/// when `changed`; the oracle keeps a copy of it and compares, as a cache of
/// values would.  Local ids map to global ids (the tie keys) out of order,
/// so recency ties are provably broken on *global* ids.
fn check_sync_cache_against_oracle(
    capacity: usize,
    operations: impl IntoIterator<Item = (u32, bool, u64)>,
) {
    let global_of = |local: u32| (local * 37 + 11) % 101;
    let mut cache = gx_plug::core::VertexCache::new(capacity, 48);
    // The oracle: `(global id, cached version, last_used)` per resident entry.
    let mut oracle: Vec<(u32, u32, u64)> = Vec::new();
    let mut expected = gx_plug::core::CacheStats::default();
    let mut upper_system = [0u32; 96];
    let mut now = 0u64;
    for (local, changed, advance) in operations {
        now += advance;
        let version = &mut upper_system[local as usize];
        *version += u32::from(changed);
        let global = global_of(local);
        let download = match oracle.iter_mut().find(|entry| entry.0 == global) {
            Some(entry) => {
                expected.hits += 1;
                let stale = entry.1 != *version;
                *entry = (global, *version, now);
                stale
            }
            None => {
                expected.misses += 1;
                if oracle.len() >= capacity {
                    let victim = (0..oracle.len())
                        .min_by_key(|&i| (oracle[i].2, oracle[i].0))
                        .unwrap();
                    oracle.swap_remove(victim);
                    expected.evictions += 1;
                }
                oracle.push((global, *version, now));
                true
            }
        };
        prop_assert_eq!(cache.probe(global, *version, now), download);
        prop_assert_eq!(cache.stats(), expected);
        prop_assert_eq!(cache.len(), oracle.len());
        for local in 0..96 {
            let global = global_of(local);
            let resident = oracle.iter().any(|entry| entry.0 == global);
            prop_assert_eq!(
                cache.contains(global),
                resident,
                "residency of local {}",
                local
            );
        }
    }
}

// ---------------- Row versions: the sync cache's change signal ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A row's version moves exactly when its value does: between two
    /// compute phases of one run, every row whose value changed (a master
    /// apply or a mirror refresh) has a version one higher, and every other
    /// row the same version.  That is what lets the sync cache compare
    /// versions instead of values.  Checked for PageRank, multi-source SSSP,
    /// CC, LP and k-core, on 1–4 nodes, under both sync policies, over two
    /// runs of one cluster (the second after a reset, so versions do not
    /// start at zero).
    #[test]
    fn row_versions_move_exactly_when_values_change(
        seed in 0u64..1_000,
        nodes in 1usize..5,
        skip in any::<bool>(),
    ) {
        let policy = if skip { SyncPolicy::SkipWhenLocal } else { SyncPolicy::AlwaysSync };
        let list = Rmat::new(7, 4.0).generate(seed);
        let rank = RankValue { rank: 1.0, out_degree: 0 };
        let graph = PropertyGraph::from_edge_list(list.clone(), rank).unwrap();
        check_row_versions(&graph, &PageRank::new(8), nodes, seed, policy);
        let graph = PropertyGraph::from_edge_list(list.clone(), Vec::new()).unwrap();
        check_row_versions(&graph, &MultiSourceSssp::new(vec![0, 1, 2]), nodes, seed, policy);
        let graph = PropertyGraph::from_edge_list(list.clone(), 0u32).unwrap();
        check_row_versions(&graph, &ConnectedComponents, nodes, seed, policy);
        check_row_versions(&graph, &LabelPropagation::new(6), nodes, seed, policy);
        let mut symmetric = list;
        symmetric.symmetrize();
        let alive = gx_plug::algos::CoreState { alive: true };
        let graph = PropertyGraph::from_edge_list(symmetric, alive).unwrap();
        check_row_versions(&graph, &KCore::new(3), nodes, seed, policy);
    }
}

/// Runs `algorithm` twice on one `nodes`-node cluster of `graph` (the
/// second run after a reset) through a [`VersionCheck`] compute phase, and
/// checks the final rows of each run against the last compute phase's too.
fn check_row_versions<V, A>(
    graph: &PropertyGraph<V, f64>,
    algorithm: &A,
    nodes: usize,
    seed: u64,
    policy: SyncPolicy,
) where
    V: Clone + PartialEq + Send + Sync + std::fmt::Debug,
    A: GraphAlgorithm<V, f64>,
{
    use gx_plug::engine::network::NetworkModel;
    let partitioning = HashEdgePartitioner::new(seed)
        .partition(graph, nodes)
        .unwrap();
    let profile = RuntimeProfile::powergraph();
    let mut cluster = Cluster::build(
        graph,
        partitioning,
        algorithm,
        profile,
        NetworkModel::datacenter(),
    );
    for run in 0..2 {
        if run > 0 {
            cluster.reset_for(algorithm);
        }
        let mut phase = VersionCheck {
            algorithm,
            profile,
            previous: Vec::new(),
            moved: 0,
        };
        let Ok(report) = cluster.run_phased(
            algorithm,
            "versions",
            "native",
            200,
            policy,
            SimDuration::ZERO,
            &mut phase,
        );
        phase.check(cluster.nodes());
        prop_assert!(
            phase.moved > 0 || report.iterations.len() < 2,
            "{}: no row changed in {} supersteps",
            algorithm.name(),
            report.iterations.len()
        );
    }
}

/// A native compute phase that snapshots `(value, version)` of every row
/// before each superstep's compute and compares it with the snapshot of the
/// superstep before: what synchronize wrote in between.
struct VersionCheck<'a, V, A> {
    algorithm: &'a A,
    profile: RuntimeProfile,
    /// Per node, per local id: the last snapshot.
    previous: Vec<Vec<(V, u32)>>,
    /// Rows whose value (and version) moved, over the run.
    moved: usize,
}

impl<V, A> VersionCheck<'_, V, A>
where
    V: Clone + PartialEq + std::fmt::Debug,
{
    /// Snapshots `nodes` and checks every row against the last snapshot.
    fn check(&mut self, nodes: &[gx_plug::engine::node::NodeState<V, f64>]) {
        let snapshot: Vec<Vec<(V, u32)>> = nodes
            .iter()
            .map(|node| {
                let table = node.vertex_table();
                (0..table.len() as u32)
                    .map(|local| (table.row_at(local).attr.clone(), table.version_at(local)))
                    .collect()
            })
            .collect();
        for (node, (before, after)) in self.previous.iter().zip(&snapshot).enumerate() {
            for (local, ((old, old_version), (new, new_version))) in
                before.iter().zip(after).enumerate()
            {
                let moved = new_version.wrapping_sub(*old_version);
                prop_assert!(
                    moved <= 1,
                    "node {} local {}: {} writes in one superstep",
                    node,
                    local,
                    moved
                );
                prop_assert_eq!(
                    moved == 1,
                    old != new,
                    "node {} local {}: {:?} -> {:?} at versions {} -> {}",
                    node,
                    local,
                    old,
                    new,
                    old_version,
                    new_version
                );
                self.moved += moved as usize;
            }
        }
        self.previous = snapshot;
    }
}

impl<V, A> gx_plug::engine::cluster::ComputePhase<V, f64, A::Msg> for VersionCheck<'_, V, A>
where
    V: Clone + PartialEq + std::fmt::Debug,
    A: GraphAlgorithm<V, f64>,
{
    type Error = std::convert::Infallible;

    fn compute(
        &mut self,
        nodes: &mut [gx_plug::engine::node::NodeState<V, f64>],
        iteration: usize,
    ) -> Result<Vec<gx_plug::engine::cluster::NodeComputeOutput<V, A::Msg>>, Self::Error> {
        self.check(nodes);
        Ok(nodes
            .iter_mut()
            .map(|node| {
                gx_plug::engine::native_node_compute(node, self.algorithm, &self.profile, iteration)
            })
            .collect())
    }
}

// ---------------- The job service: accounting invariants ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever mix of job counts, priorities, worker-pool sizes, key
    /// collisions and mid-stream cancellations the service sees, its books
    /// balance: every ticket resolves after a draining shutdown, and the
    /// counters add up — `submitted == completed + cancelled` (no job is
    /// lost, duplicated or left queued), one queue wait per completed job,
    /// at most one wall sample per completed job.
    #[test]
    fn service_accounting_balances(
        num_jobs in 1usize..10,
        workers in 1usize..4,
        seed in 0u64..1_000,
        cancel_mask in 0u32..256,
        key_modulus in 1usize..5,
    ) {
        use std::sync::Arc;

        let list = Rmat::new(6, 4.0).generate(seed);
        let graph: Arc<PropertyGraph<Vec<f64>, f64>> =
            Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 2)
            .unwrap();
        // Native-only service: the scheduler machinery is identical, without
        // paying device deployments 12 times over.  No result cache, so a
        // repeated key coalesces in the queue instead of hitting
        // at submit time.
        let service = GraphService::builder(Arc::clone(&graph))
            .partitioned_by(partitioning)
            .max_iterations(50)
            .worker_sessions(workers)
            .cache_capacity(0)
            .build()
            .unwrap();
        let priorities = [JobPriority::High, JobPriority::Normal, JobPriority::Low];
        let tickets: Vec<(bool, JobTicket<Vec<f64>>)> = (0..num_jobs)
            .map(|i| {
                let options = JobOptions::new().with_priority(priorities[i % 3]);
                let sources = vec![(i % key_modulus) as u32];
                let ticket = service
                    .submit_with(MultiSourceSssp::new(sources), options)
                    .unwrap();
                let try_cancel = cancel_mask & (1 << (i % 8)) != 0;
                (try_cancel && ticket.cancel(), ticket)
            })
            .collect();
        service.shutdown();

        let mut completed = 0u64;
        let mut cancelled = 0u64;
        for (cancel_won, ticket) in tickets {
            match ticket.wait() {
                Ok(outcome) => {
                    prop_assert!(!cancel_won);
                    prop_assert!(outcome.report.converged);
                    completed += 1;
                }
                Err(ServiceError::Cancelled) => {
                    prop_assert!(cancel_won);
                    cancelled += 1;
                }
                Err(other) => prop_assert!(false, "unexpected ticket outcome: {}", other),
            }
        }
        let stats = service.stats_snapshot();
        prop_assert_eq!(stats.submitted, (completed + cancelled));
        prop_assert_eq!(stats.completed, completed);
        prop_assert_eq!(stats.cancelled, cancelled);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.panicked, 0);
        prop_assert_eq!(stats.queued, 0);
        prop_assert_eq!(stats.running, 0);
        prop_assert_eq!(stats.executed(), completed);
        let samples = service.stats();
        prop_assert_eq!(samples.recent_wait_samples().len() as u64, completed);
        prop_assert!(samples.recent_wall_samples().len() as u64 <= completed);
        prop_assert!(stats.coalesced_jobs <= completed);
    }

    /// Random interleavings of keyed submissions (with every cache policy),
    /// invalidations, full clears and mutation batches: no matter how the
    /// cache is filled, hit, evicted, invalidated or raced by in-flight
    /// runs, every ticket resolves to the bit-exact answer for its key over
    /// a graph at least as new as the one it was submitted against — a
    /// stale entry left in the cache is never served — and every
    /// submission is accounted as exactly one hit or one queued job.
    #[test]
    fn cache_stays_exact_under_submit_invalidate_interleavings(
        seed in 0u64..1_000,
        workers in 1usize..3,
        operations in prop::collection::vec((0u32..3, 0u8..9), 1..25),
    ) {
        use std::sync::Arc;

        let list = Rmat::new(6, 4.0).generate(seed);
        let graph: Arc<PropertyGraph<Vec<f64>, f64>> =
            Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 2)
            .unwrap();
        let build = || {
            GraphService::builder(Arc::clone(&graph))
                .partitioned_by(partitioning.clone())
                .max_iterations(50)
                .worker_sessions(workers)
                .cache_capacity(2) // small enough that eviction happens too
                .build()
                .unwrap()
        };
        // The bit-exact reference answer for each of the three keys.
        let reference_service = build();
        let reference: Vec<Vec<Vec<u64>>> = (0..3u32)
            .map(|key| {
                let outcome = reference_service
                    .submit(MultiSourceSssp::new(vec![key]))
                    .unwrap()
                    .wait()
                    .unwrap();
                outcome
                    .values
                    .iter()
                    .map(|d| d.iter().map(|x| x.to_bits()).collect())
                    .collect()
            })
            .collect();

        let service = build();
        let mut submissions = 0u64;
        // A mutation batch appends one isolated vertex: every answer keeps
        // its rows and gains one unreachable row per batch, so the answer
        // names the graph version it was computed over.
        let mut batches = 0usize;
        let tickets: Vec<(u32, usize, JobTicket<Vec<f64>>)> = operations
            .iter()
            .filter_map(|&(key, op)| {
                let policy = match op {
                    0..=3 => CachePolicy::UseOrFill,
                    4 => CachePolicy::Bypass,
                    5 => CachePolicy::Refresh,
                    6 => {
                        service.invalidate_cache();
                        return None;
                    }
                    7 => {
                        service.clear_cache();
                        return None;
                    }
                    _ => {
                        service
                            .apply_mutations(&MutationBatch::new().add_vertex(Vec::new()))
                            .unwrap();
                        batches += 1;
                        return None;
                    }
                };
                submissions += 1;
                let ticket = service
                    .submit_with(
                        MultiSourceSssp::new(vec![key]),
                        JobOptions::new().with_cache(policy),
                    )
                    .unwrap();
                Some((key, batches, ticket))
            })
            .collect();
        service.shutdown();

        for (key, batches_at_submit, ticket) in tickets {
            let outcome = ticket.wait().unwrap();
            let want = &reference[key as usize];
            let added = outcome.values.len() - want.len();
            prop_assert!(
                (batches_at_submit..=batches).contains(&added),
                "key {} answered over {} batches, submitted after {} of {}",
                key, added, batches_at_submit, batches
            );
            for (v, (got, want)) in outcome.values.iter().zip(want).enumerate() {
                let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&bits, want, "key {} vertex {} diverged", key, v);
            }
            for row in &outcome.values[want.len()..] {
                prop_assert_eq!(row, &vec![f64::INFINITY]);
            }
        }
        let stats = service.stats_snapshot();
        prop_assert_eq!(stats.cache_hits + stats.submitted, submissions);
        prop_assert_eq!(stats.completed, stats.submitted);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.queued, 0);
        prop_assert!(service.cached_results() <= 2);
    }

    /// The cache's rules, one settled operation at a time against a model:
    /// a `UseOrFill` submit hits only a key filled at the current graph
    /// version, a stale entry stays (counted by `cached_results`, never
    /// served) until its key refills or the LRU bound evicts it, and a hit
    /// is the very allocation the fill landed.
    #[test]
    fn settled_cache_operations_follow_the_lru_model(
        seed in 0u64..1_000,
        operations in prop::collection::vec((0u32..3, 0u8..9), 1..30),
    ) {
        use std::collections::VecDeque;
        use std::sync::Arc;

        const CAPACITY: usize = 2;
        let list = Rmat::new(6, 4.0).generate(seed);
        let graph: Arc<PropertyGraph<Vec<f64>, f64>> =
            Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 2)
            .unwrap();
        let service = GraphService::builder(Arc::clone(&graph))
            .partitioned_by(partitioning)
            .max_iterations(50)
            .cache_capacity(CAPACITY)
            .build()
            .unwrap();
        type Shared = Arc<RunOutcome<Vec<f64>>>;
        // The model: `(key, version filled at, the filled outcome)`,
        // coldest first, and the service's graph version.
        let mut model: VecDeque<(u32, u64, Shared)> = VecDeque::new();
        let mut version = 0u64;
        let mut hits = 0u64;
        for &(key, op) in &operations {
            let policy = match op {
                0..=3 => CachePolicy::UseOrFill,
                4 => CachePolicy::Bypass,
                5 => CachePolicy::Refresh,
                6 => {
                    service.invalidate_cache();
                    version += 1;
                    continue;
                }
                7 => {
                    service.clear_cache();
                    model.clear();
                    continue;
                }
                _ => {
                    service
                        .apply_mutations(&MutationBatch::new().add_vertex(Vec::new()))
                        .unwrap();
                    version += 1;
                    continue;
                }
            };
            let outcome = service
                .submit_with(MultiSourceSssp::new(vec![key]), JobOptions::new().with_cache(policy))
                .unwrap()
                .wait()
                .unwrap();
            let stored = model.iter().position(|entry| entry.0 == key);
            match (policy, stored) {
                (CachePolicy::UseOrFill, Some(at)) if model[at].1 == version => {
                    let entry = model.remove(at).unwrap();
                    prop_assert!(Arc::ptr_eq(&outcome, &entry.2), "a hit copied its fill");
                    model.push_back(entry);
                    hits += 1;
                }
                (CachePolicy::Bypass, _) => {}
                (_, stored) => {
                    if let Some(entry) = stored.and_then(|at| model.remove(at)) {
                        prop_assert!(!Arc::ptr_eq(&outcome, &entry.2), "a stale entry was served");
                    }
                    model.push_back((key, version, Arc::clone(&outcome)));
                    if model.len() > CAPACITY {
                        model.pop_front();
                    }
                }
            }
            prop_assert_eq!(service.stats_snapshot().cache_hits, hits);
            prop_assert_eq!(service.cached_results(), model.len());
        }
    }
}
