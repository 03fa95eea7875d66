//! The agent (§II-A2).
//!
//! "An agent represents a distributed node of an upper system and makes a
//! bridge for upper systems and daemons."  For every iteration the agent
//!
//! 1. determines the node's active workload (edges whose source changed),
//! 2. downloads the vertex data the daemons will need — both endpoints of
//!    every active edge for a kernel that reads destination attributes, only
//!    the sources for a forward one — consulting its LRU cache first when
//!    synchronization caching is enabled,
//! 3. packages edge triplets into blocks (using the block size prescribed by
//!    Lemma 1 when the pipeline runs in optimal mode) and feeds them to its
//!    daemons, splitting work across daemons by their capacity factors,
//! 4. merges the generated messages (`MSGMerge`) and decides how much of the
//!    result actually has to be uploaded to the upper system (lazy uploading),
//! 5. attributes simulated time to the whole exchange using the pipeline
//!    model of §III-A.
//!
//! The triplet path is **block-streamed and zero-copy at steady state**.
//! [`split_by_capacity`] carves the iteration's active edge ids into one
//! *index range* per daemon, and every share runs one pipeline block at a
//! time: the block's triplets are materialised into the agent's one reusable
//! [`TripletBuffer`] (the *block buffer*, pooled by the session across
//! runs), the daemon launches `MSGGen` over it
//! in place, and the block's messages are folded into the per-target
//! `MSGMerge` before the next block is filled.  So the agent holds one block
//! of triplets and one block of messages, whatever the iteration's size: the
//! block decomposition the pipeline model of §III-A prices is the one the
//! agent executes, while the overlap of download, compute and upload stays
//! modelled.  Every buffer is refilled in place — never reallocated — once
//! warm.  A forward kernel's blocks are filled sources-only
//! ([`NodeState::fill_triplet_sources`]): its `dst_attr` is never read, so
//! a retained slot's is not copied.
//!
//! [`Agent`] is the one per-node implementation of all this, and
//! [`Agent::process_iteration`] its one iteration body: every share runs in
//! daemon order on whichever thread computes the node — the caller's, or the
//! node's lane when the threaded runtime's
//! [`ThreadedNodes`](crate::runtime::ThreadedNodes) fans the superstep out —
//! so every target combines its messages in daemon, then block, then triplet
//! order.  The daemons of a node are priced as concurrent by the pipeline
//! model (the node's compute time is the longest share's), not run
//! concurrently on the host.

use crate::config::{MiddlewareConfig, PipelineMode};
use crate::daemon::{launch_block, ChunkStaging, Daemon};
use crate::metrics::AgentStats;
use crate::pipeline::block_size::PipelineCoefficients;
use crate::runtime::RuntimeError;
use crate::sync_cache::VertexCache;
use gxplug_accel::SimDuration;
use gxplug_engine::cluster::{DenseMerge, Merged, NodeComputeOutput};
use gxplug_engine::node::NodeState;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::dense::FrontierSet;
use gxplug_graph::types::PartitionId;
use gxplug_graph::view::TripletBuffer;
use gxplug_ipc::blocks::TripletBlockRef;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// Fallback batch size for the unpipelined ("5-step") workflow, so that even
/// without the pipeline a daemon never receives a batch beyond its device
/// memory.
pub(crate) const UNPIPELINED_MAX_BATCH: usize = 65_536;

/// The download plan of one iteration: what the agent found active and what
/// it had to move across the upper-system boundary.  The active edge ids
/// themselves live in the agent's pooled [`PlanScratch`], so the plan is a
/// cheap copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IterationPlan {
    /// Number of active edge triplets (`d`, the iteration's data volume).
    pub d: usize,
    /// Entities (vertices + first-time edges) downloaded this iteration.
    pub download_entities: usize,
}

/// The pooled planning-path buffers of one agent: the per-iteration active
/// edge list and the download set.  Cleared — never reallocated — between
/// iterations, so the planning phase stops allocating at steady state just
/// like the triplet path.
///
/// Both working sets hold **probe ranks** (positions in
/// [`NodeState::probe_order`]), not local ids, so their ascending scan is
/// already the cache probe order.
#[derive(Debug, Default)]
struct PlanScratch {
    /// Local ids of the iteration's active edges (ascending).
    active_edge_ids: Vec<usize>,
    /// The download working set of a partially active iteration.
    needed: FrontierSet,
    /// The working set of an all-active iteration — the needed endpoints of
    /// every local edge — gathered on the run's first such iteration and
    /// reused: the node's structure does not change within a run.  Tagged
    /// with the `sources_only` it was gathered for.
    all_endpoints: Option<(bool, FrontierSet)>,
}

/// Inserts the probe rank of the source of every edge in `edge_ids`, and of
/// its destination too unless `sources_only`.
fn gather_endpoints<V, E>(
    node: &NodeState<V, E>,
    edge_ids: impl Iterator<Item = usize>,
    sources_only: bool,
    into: &mut FrontierSet,
) {
    let rank = node.probe_rank();
    into.ensure_capacity(node.num_vertices());
    into.clear();
    for edge_id in edge_ids {
        let (src, dst) = node.edge_endpoint_locals(edge_id);
        into.insert(rank[src as usize]);
        if !sources_only {
            into.insert(rank[dst as usize]);
        }
    }
}

/// What executing one daemon's share produced, together with the planning
/// metadata the timing attribution needs.
#[derive(Debug, Clone)]
pub(crate) struct ShareRun {
    /// Coefficients of the daemon that ran the share.
    pub coefficients: PipelineCoefficients,
    /// Number of triplets in the share.
    pub share_len: usize,
    /// Block size the share was chunked into.
    pub block_size: usize,
    /// Number of blocks launched.
    pub blocks: usize,
}

/// The reusable buffers of one agent's block-streamed hot path:
///
/// * `block` — the block buffer: one pipeline block of triplets at a time,
///   refilled in place for every block of every share.  The session
///   re-installs the same buffer run after run.
/// * `block_msgs` — the messages of the block in flight, emptied into
///   `merge` before the next block is filled.
/// * `shares` / `share_runs` — the per-iteration planning vectors, cleared
///   rather than reallocated.
/// * `merge` — the per-target `MSGMerge`.
///
/// None of them is reallocated once warm.
#[derive(Debug)]
pub(crate) struct AgentScratch<V, E, M> {
    pub block: TripletBuffer<V, E>,
    pub block_msgs: Vec<AddressedMessage<M>>,
    pub shares: Vec<Range<usize>>,
    pub share_runs: Vec<ShareRun>,
    pub merge: DenseMerge<M>,
}

impl<V, E, M> AgentScratch<V, E, M> {
    pub(crate) fn new(num_daemons: usize) -> Self {
        Self {
            block: TripletBuffer::new(),
            block_msgs: Vec::new(),
            shares: Vec::with_capacity(num_daemons),
            share_runs: Vec::with_capacity(num_daemons),
            merge: DenseMerge::default(),
        }
    }
}

/// The agent of one distributed node, bridging the upper system and the
/// node's daemons.
///
/// `V` and `E` are the graph's vertex and edge attribute types; `M` is the
/// message type of the algorithm this agent serves for the current run
/// (`A::Msg`).  Carrying `M` in the type is what lets the agent own pooled
/// message buffers instead of allocating fresh ones every iteration.
#[derive(Debug)]
pub struct Agent<V, E, M> {
    config: MiddlewareConfig,
    profile: RuntimeProfile,
    cache: Option<VertexCache>,
    edges_registered: bool,
    stats: AgentStats,
    plan: PlanScratch,
    /// The daemons, in daemon order.
    daemons: Vec<Daemon>,
    /// Capacity factors of the daemons, captured once (they are static).
    capacities: Vec<f64>,
    scratch: AgentScratch<V, E, M>,
}

impl<V, E, M> Agent<V, E, M>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
    M: Clone + Send + Sync,
{
    /// Creates an agent for distributed node `node_id`, bridging the given
    /// daemons to an upper system with runtime profile `profile`.  Nothing
    /// the agent computes depends on `node_id`: the node it serves is the
    /// one each [`process_iteration`](Agent::process_iteration) call hands
    /// it.
    ///
    /// `local_vertices` sizes the synchronization cache (a configured
    /// fraction of the node's vertex count).
    pub fn new(
        node_id: PartitionId,
        daemons: Vec<Daemon>,
        profile: RuntimeProfile,
        config: MiddlewareConfig,
        local_vertices: usize,
    ) -> Self {
        let _ = node_id;
        assert!(!daemons.is_empty(), "an agent needs at least one daemon");
        let capacities: Vec<f64> = daemons.iter().map(Daemon::capacity_factor).collect();
        let cache = config.caching.then(|| {
            let capacity =
                ((local_vertices as f64 * config.cache_capacity_fraction).ceil() as usize).max(1);
            VertexCache::new(capacity, local_vertices)
        });
        Self {
            config,
            profile,
            cache,
            edges_registered: false,
            stats: AgentStats::default(),
            plan: PlanScratch::default(),
            scratch: AgentScratch::new(daemons.len()),
            daemons,
            capacities,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AgentStats {
        let mut stats = self.stats;
        if let Some(cache) = &self.cache {
            stats.cache = cache.stats();
        }
        stats
    }

    /// Installs a pooled block buffer (e.g. the session's, so a reused
    /// session keeps one warm buffer per node across runs).  A buffer still
    /// shared elsewhere cannot be refilled in place; the agent starts from an
    /// empty one instead.
    pub fn install_triplet_buffer(&mut self, buffer: Arc<TripletBuffer<V, E>>) {
        self.scratch.block = Arc::into_inner(buffer).unwrap_or_else(TripletBuffer::new);
    }

    /// Takes the block buffer back (leaving a fresh empty one to the agent),
    /// so the session can pool it for the next run.  Between iterations it
    /// holds the last block the agent computed: never more than one block's
    /// triplets.
    pub fn take_triplet_buffer(&mut self) -> Arc<TripletBuffer<V, E>> {
        Arc::new(std::mem::replace(
            &mut self.scratch.block,
            TripletBuffer::new(),
        ))
    }

    /// `connect()`: starts every daemon (device initialisation happens here,
    /// once per run — runtime isolation).  Returns the summed initialisation
    /// time, which the runner reports as setup cost.
    pub fn connect(&mut self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for daemon in self.daemons.iter_mut() {
            total += daemon.start();
        }
        self.stats.init_time += total;
        total
    }

    /// `disconnect()`: shuts every daemon down.
    pub fn disconnect(&mut self) {
        for daemon in self.daemons.iter_mut() {
            daemon.shutdown();
        }
    }

    /// Releases the daemons without shutting them down, so a session can keep
    /// their device contexts alive for the next run.
    pub fn into_daemons(self) -> Vec<Daemon> {
        self.daemons
    }

    /// Executes one middleware iteration for this agent's node on the
    /// calling thread and returns the merged messages plus the timing
    /// attribution the cluster driver expects.  Every daemon's share runs in
    /// daemon order, one pipeline block at a time: fill the block buffer
    /// (sources-only for a kernel that never reads destination attributes),
    /// launch `MSGGen`, fold the block's messages into the `MSGMerge`.
    ///
    /// # Errors
    /// [`RuntimeError::Kernel`] if a device rejects a block (e.g. a mis-sized
    /// block exceeding device memory): the first in daemon order, which stops
    /// the iteration and aborts the run instead of the process.
    pub fn process_iteration<A>(
        &mut self,
        node: &mut NodeState<V, E>,
        algorithm: &A,
        iteration: usize,
    ) -> Result<NodeComputeOutput<V, M>, RuntimeError>
    where
        A: GraphAlgorithm<V, E, Msg = M>,
    {
        let sources_only = !algorithm.reads_destination_attribute();
        let plan = match self.begin_iteration(node, iteration, sources_only) {
            Some(plan) => plan,
            None => return Ok(NodeComputeOutput::idle()),
        };
        let node = &*node;
        // Every local edge has both endpoints on the node, so each block's
        // fill yields one triplet per id.
        let edge_ids = &self.plan.active_edge_ids;
        let scratch = &mut self.scratch;
        split_by_capacity_into(plan.d, &self.capacities, &mut scratch.shares);
        scratch.share_runs.clear();
        scratch.block_msgs.clear();
        scratch.merge.begin(node.num_vertices());

        for (daemon, range) in self.daemons.iter_mut().zip(&scratch.shares) {
            if range.is_empty() {
                continue;
            }
            let coefficients = daemon.coefficients(&self.profile);
            let block_size = choose_block_size(
                &self.config.pipeline,
                &coefficients,
                range.len(),
                daemon
                    .backend()
                    .cost_model()
                    .memory_capacity_items
                    .unwrap_or(UNPIPELINED_MAX_BATCH),
            );
            let ids = &edge_ids[range.clone()];
            let mut staging = ChunkStaging::for_daemon(daemon);
            for (index, block_ids) in ids.chunks(block_size).enumerate() {
                let triplets = if sources_only {
                    node.fill_triplet_sources(block_ids, &mut scratch.block)
                } else {
                    node.fill_triplets(block_ids, &mut scratch.block)
                };
                let block = TripletBlockRef { index, triplets };
                let out = &mut scratch.block_msgs;
                launch_block(daemon, algorithm, block, iteration, &mut staging, out)?;
                scratch.merge.fold(node, algorithm, out.drain(..));
            }
            scratch.share_runs.push(ShareRun {
                coefficients,
                share_len: range.len(),
                block_size,
                blocks: ids.len().div_ceil(block_size),
            });
        }
        let merged = scratch.merge.drain(node);
        Ok(self.finish_iteration(&plan, merged))
    }

    /// The download phase: determines the active workload and moves the
    /// needed vertex data (and, once, the edge topology) into the shared
    /// memory space, consulting the cache when enabled.  The needed vertices
    /// are the sources of the active edges, plus their destinations unless
    /// `sources_only` (the kernel never reads a destination attribute).
    /// Returns `None` when the node is idle.
    ///
    /// The planning vectors (active edge ids, the download working set) are
    /// pooled in [`PlanScratch`]: steady-state iterations refill them in
    /// place, allocating nothing.  The active edge ids stay readable in
    /// `self.plan` until the next `begin_iteration`.
    fn begin_iteration(
        &mut self,
        node: &mut NodeState<V, E>,
        iteration: usize,
        sources_only: bool,
    ) -> Option<IterationPlan> {
        node.active_edge_ids_into(&mut self.plan.active_edge_ids);
        let d = self.plan.active_edge_ids.len();
        if d == 0 {
            return None;
        }
        self.stats.iterations += 1;

        // The download working set: every needed endpoint of an active
        // edge, deduped through a dense bitset over the node's probe ranks —
        // no hashing on the hot path.  An all-active iteration needs the same
        // set every time, so it is gathered once.
        let plan = &mut self.plan;
        let needed: &FrontierSet = if d == node.num_edges() {
            let all = match &mut plan.all_endpoints {
                Some((gathered_for, all)) if *gathered_for == sources_only => all,
                slot => {
                    let mut all = FrontierSet::default();
                    gather_endpoints(node, 0..d, sources_only, &mut all);
                    &mut slot.insert((sources_only, all)).1
                }
            };
            &*all
        } else {
            let ids = plan.active_edge_ids.iter().copied();
            gather_endpoints(node, ids, sources_only, &mut plan.needed);
            &plan.needed
        };
        let vertex_downloads = match &mut self.cache {
            Some(cache) => {
                // The probe order decides LRU evictions; walking the set by
                // probe rank is `NodeState::probe_order` without a sort.
                let table = node.vertex_table();
                let order = node.probe_order();
                let tie = node.global_rank();
                let mut downloads = 0usize;
                for rank in needed.iter() {
                    let local = order[rank as usize];
                    let version = table.version_at(local);
                    if cache.probe(tie[local as usize], version, iteration as u64) {
                        downloads += 1;
                    }
                }
                self.stats.downloads_avoided += (needed.len() - downloads) as u64;
                downloads
            }
            None => needed.len(),
        };
        // Edge topology is static: it is registered in the shared memory
        // space once, on the first iteration, and never re-downloaded.
        let edge_downloads = if self.edges_registered {
            0
        } else {
            self.edges_registered = true;
            node.num_edges()
        };
        let download_entities = vertex_downloads + edge_downloads;
        self.stats.downloaded_entities += download_entities as u64;
        Some(IterationPlan {
            d,
            download_entities,
        })
    }

    /// The upload and timing-attribution phases.  `merged` is the
    /// iteration's per-target `MSGMerge` output (see [`DenseMerge`]), folded
    /// in daemon, then block, then triplet order.
    fn finish_iteration(
        &mut self,
        plan: &IterationPlan,
        merged: Merged<M>,
    ) -> NodeComputeOutput<V, M> {
        let share_runs = &self.scratch.share_runs;
        let d = plan.d;
        self.stats.triplets_processed += d as u64;
        for run in share_runs {
            self.stats.kernel_launches += run.blocks as u64;
        }
        let Merged { messages, remote } = merged;

        // ---- upload phase -----------------------------------------------------
        let uploads = if self.config.lazy_upload && self.cache.is_some() {
            // Lazy uploading as a count: messages whose target is mastered on
            // this very node never need to leave the middleware, so only
            // remote-destined entities are charged as uploads.
            self.stats.uploads_avoided += (messages.len() - remote) as u64;
            remote
        } else {
            messages.len()
        };
        self.stats.uploaded_entities += uploads as u64;

        // ---- timing attribution (pipeline model of §III-A) --------------------
        let mut compute_time = SimDuration::ZERO;
        let mut overhead_time = SimDuration::ZERO;
        for run in share_runs {
            let base = &run.coefficients;
            let share_len = run.share_len;
            let share_fraction = share_len as f64 / d as f64;
            let k1_eff = (base.k1 * (plan.download_entities as f64 * share_fraction)
                / share_len as f64)
                .max(1e-9);
            let k3_eff = (base.k3 * (uploads as f64 * share_fraction) / share_len as f64).max(1e-9);
            let effective = PipelineCoefficients::new(k1_eff, base.k2, k3_eff, base.a);
            let share_time_ms = if self.config.pipeline.is_enabled() {
                effective.estimate_total(share_len, run.block_size)
            } else {
                effective.estimate_unpipelined(share_len)
            };
            // Two upper-system crossings per iteration and daemon: one for the
            // download stream, one for the upload stream.
            let crossings = self.profile.per_crossing * 2.0;
            let share_time = SimDuration::from_millis(share_time_ms) + crossings;
            let pure_compute =
                SimDuration::from_millis(base.a * run.blocks as f64 + base.k2 * share_len as f64);
            compute_time = compute_time.max(share_time);
            // Everything that is not pure device compute is middleware
            // overhead (transfers, packaging, crossings).
            overhead_time = overhead_time.max(share_time - pure_compute);
            self.stats.block_size_sum += run.block_size as u64;
            self.stats.block_count_sum += run.blocks as u64;
        }
        self.stats.pipeline_time += compute_time;
        self.stats.overhead_time += overhead_time;

        NodeComputeOutput {
            compute_time,
            middleware_time: overhead_time,
            triplets_processed: d,
            messages,
            vertex_type: PhantomData,
        }
    }
}

/// Splits `d` triplets into contiguous index ranges proportional to the
/// daemons' capacity factors (faster daemons receive more triplets).  The
/// ranges partition `0..d` exactly; any rounding remainder goes to the last
/// daemon.  Returning ranges instead of owned share vectors is what keeps the
/// capacity split copy-free: every share is a borrowed view of the
/// iteration's triplet buffer.
///
/// # Panics
/// Panics if `d > 0` and `capacities` is empty.
pub fn split_by_capacity(d: usize, capacities: &[f64]) -> Vec<Range<usize>> {
    let mut shares = Vec::with_capacity(capacities.len());
    split_by_capacity_into(d, capacities, &mut shares);
    shares
}

/// [`split_by_capacity`] into a reusable output vector (cleared first).
///
/// # Panics
/// Panics if `d > 0` and `capacities` is empty — there is no daemon to
/// assign the triplets to, and silently dropping them would corrupt the run.
pub fn split_by_capacity_into(d: usize, capacities: &[f64], shares: &mut Vec<Range<usize>>) {
    assert!(
        d == 0 || !capacities.is_empty(),
        "cannot split {d} triplets over zero capacities"
    );
    shares.clear();
    let total_capacity: f64 = capacities.iter().sum();
    let mut offset = 0usize;
    for (index, capacity) in capacities.iter().enumerate() {
        let remaining_daemons = capacities.len() - index;
        let take = if remaining_daemons == 1 {
            d - offset
        } else {
            ((d as f64) * capacity / total_capacity).round() as usize
        }
        .min(d - offset);
        shares.push(offset..offset + take);
        offset += take;
    }
    // Any rounding remainder goes to the last daemon.
    if offset < d {
        if let Some(last) = shares.last_mut() {
            last.end = d;
        }
    }
}

/// Chooses the block size according to the configured pipeline mode, bounded
/// by the device memory capacity.
fn choose_block_size(
    mode: &PipelineMode,
    coefficients: &PipelineCoefficients,
    share: usize,
    device_capacity: usize,
) -> usize {
    let chosen = match mode {
        PipelineMode::Disabled => share.min(UNPIPELINED_MAX_BATCH),
        PipelineMode::FixedBlockSize(b) => (*b).max(1),
        PipelineMode::FixedBlockCount(s) => share.div_ceil((*s).max(1)),
        PipelineMode::Optimal => coefficients.optimal_block_size(share).block_size,
    };
    chosen.clamp(1, device_capacity.max(1)).min(share.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_accel::presets;
    use gxplug_engine::network::NetworkModel;
    use gxplug_engine::template::AddressedMessage;
    use gxplug_graph::edge_list::EdgeList;
    use gxplug_graph::graph::PropertyGraph;
    use gxplug_graph::partition::{HashEdgePartitioner, Partitioner};
    use gxplug_graph::types::{Triplet, VertexId};
    use gxplug_ipc::key::KeyGenerator;

    struct Relax;

    impl GraphAlgorithm<f64, f64> for Relax {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, _d: usize) -> f64 {
            if v == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            _i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            if t.src_attr.is_finite() {
                out.push(AddressedMessage::new(t.dst, t.src_attr + t.edge_attr));
            }
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.min(b)
        }
        fn msg_apply(&self, _v: VertexId, cur: &f64, msg: &f64, _i: usize) -> Option<f64> {
            (msg < cur).then_some(*msg)
        }
        fn initial_active(&self, _n: usize) -> Option<Vec<VertexId>> {
            Some(vec![0])
        }
        fn name(&self) -> &'static str {
            "relax"
        }
    }

    fn test_node() -> NodeState<f64, f64> {
        let list: EdgeList<f64> = (0u32..64)
            .flat_map(|v| vec![(v, (v + 1) % 64, 1.0), (v, (v + 7) % 64, 2.0)])
            .collect();
        let graph = PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap();
        let partitioning = HashEdgePartitioner::new(0).partition(&graph, 1).unwrap();
        let _ = NetworkModel::datacenter();
        NodeState::build(0, &graph, &partitioning, &Relax)
    }

    fn agent(config: MiddlewareConfig) -> Agent<f64, f64, f64> {
        let keys = KeyGenerator::new(1);
        let daemons = vec![
            Daemon::new("gpu0", presets::gpu_v100("gpu0"), keys.key_for(0, 0)),
            Daemon::new("cpu0", presets::cpu_xeon_20c("cpu0"), keys.key_for(0, 1)),
        ];
        Agent::new(0, daemons, RuntimeProfile::powergraph(), config, 64)
    }

    #[test]
    fn connect_initialises_all_daemons_once() {
        let mut agent = agent(MiddlewareConfig::default());
        let first = agent.connect();
        assert!(first > SimDuration::ZERO);
        let second = agent.connect();
        assert!(second.is_zero());
        // Disconnecting tears every context down: reconnecting pays again.
        agent.disconnect();
        assert_eq!(agent.connect(), first);
    }

    #[test]
    fn idle_nodes_produce_idle_output() {
        let mut agent = agent(MiddlewareConfig::default());
        agent.connect();
        let mut node = test_node();
        node.clear_active();
        let output = agent.process_iteration(&mut node, &Relax, 0).unwrap();
        assert_eq!(output.triplets_processed, 0);
        assert!(output.compute_time.is_zero());
        assert!(output.messages.is_empty());
    }

    #[test]
    fn messages_match_native_msg_gen_semantics() {
        let mut agent = agent(MiddlewareConfig::default());
        agent.connect();
        let mut node = test_node();
        let output = agent.process_iteration(&mut node, &Relax, 0).unwrap();
        // Only vertex 0 is active: it has two out-edges, to vertices 1 and 7.
        assert_eq!(output.triplets_processed, 2);
        let mut targets: Vec<VertexId> = output.messages.iter().map(|m| m.target).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![1, 7]);
        assert!(output.compute_time > SimDuration::ZERO);
        assert!(output.middleware_time > SimDuration::ZERO);
        assert!(output.middleware_time <= output.compute_time);
    }

    #[test]
    fn caching_reduces_downloads_on_repeated_iterations() {
        let mut cached = agent(MiddlewareConfig::default());
        let mut uncached = agent(MiddlewareConfig::default().with_caching(false));
        cached.connect();
        uncached.connect();
        // All vertices active both iterations: the second iteration should be
        // mostly cache hits for the cached agent.
        for run in [&mut cached, &mut uncached] {
            let mut node = test_node();
            node.activate_all();
            run.process_iteration(&mut node, &Relax, 0).unwrap();
            node.activate_all();
            run.process_iteration(&mut node, &Relax, 1).unwrap();
        }
        assert!(cached.stats().downloads_avoided > 0);
        assert_eq!(uncached.stats().downloads_avoided, 0);
        assert!(cached.stats().downloaded_entities < uncached.stats().downloaded_entities);
    }

    /// [`Relax`], declared as reading destination attributes.
    struct RelaxReadingDestinations;

    impl GraphAlgorithm<f64, f64> for RelaxReadingDestinations {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, d: usize) -> f64 {
            Relax.init_vertex(v, d)
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            Relax.msg_gen_into(t, i, out)
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            Relax.msg_merge(a, b)
        }
        fn msg_apply(&self, v: VertexId, cur: &f64, msg: &f64, i: usize) -> Option<f64> {
            Relax.msg_apply(v, cur, msg, i)
        }
        fn reads_destination_attribute(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "relax-reading-destinations"
        }
    }

    #[test]
    fn forward_kernels_download_only_the_sources_of_active_edges() {
        // Only vertex 0 is active: its edges reach 1 and 7.  A forward kernel
        // downloads vertex 0 alone, one reading destinations all three; both
        // register the 128 edges once and send the same messages.
        let downloads = |reads_destination: bool| {
            let mut agent = agent(MiddlewareConfig::default().with_caching(false));
            agent.connect();
            let mut node = test_node();
            let output = if reads_destination {
                agent.process_iteration(&mut node, &RelaxReadingDestinations, 0)
            } else {
                agent.process_iteration(&mut node, &Relax, 0)
            };
            let messages: Vec<(VertexId, f64)> = output
                .unwrap()
                .messages
                .iter()
                .map(|m| (m.target, m.payload))
                .collect();
            (agent.stats().downloaded_entities, messages)
        };
        let (forward, forward_messages) = downloads(false);
        let (reading, reading_messages) = downloads(true);
        assert_eq!(forward, 1 + 128);
        assert_eq!(reading, 3 + 128);
        assert_eq!(forward_messages, reading_messages);
    }

    #[test]
    fn lazy_upload_only_uploads_remote_targets_on_single_node() {
        // On a single-node cluster every target is mastered locally, so lazy
        // uploading avoids every upload.
        let mut agent = agent(MiddlewareConfig::default());
        agent.connect();
        let mut node = test_node();
        let output = agent.process_iteration(&mut node, &Relax, 0).unwrap();
        assert!(!output.messages.is_empty());
        assert_eq!(agent.stats().uploaded_entities, 0);
        assert_eq!(agent.stats().uploads_avoided, output.messages.len() as u64);
    }

    #[test]
    fn pipeline_modes_affect_time_but_not_results() {
        let mut outputs = Vec::new();
        for config in [
            MiddlewareConfig::default().with_pipeline(PipelineMode::Optimal),
            MiddlewareConfig::default().with_pipeline(PipelineMode::FixedBlockSize(8)),
            MiddlewareConfig::default().with_pipeline(PipelineMode::Disabled),
        ] {
            let mut a = agent(config);
            a.connect();
            let mut node = test_node();
            node.activate_all();
            let output = a.process_iteration(&mut node, &Relax, 0).unwrap();
            outputs.push(output);
        }
        // Same messages regardless of pipeline configuration.
        let normalize = |o: &NodeComputeOutput<f64, f64>| {
            let mut m: Vec<(VertexId, f64)> =
                o.messages.iter().map(|m| (m.target, m.payload)).collect();
            m.sort_by(|a, b| a.partial_cmp(b).unwrap());
            m
        };
        assert_eq!(normalize(&outputs[0]), normalize(&outputs[1]));
        assert_eq!(normalize(&outputs[0]), normalize(&outputs[2]));
        // The unpipelined 5-step workflow is slower than the optimally
        // pipelined one.  (A badly chosen fixed block size can be worse than
        // no pipeline at all on tiny workloads, so only the optimal mode is
        // compared here.)
        assert!(outputs[2].compute_time > outputs[0].compute_time);
    }

    #[test]
    fn steady_state_iterations_reuse_the_triplet_arena() {
        // Blocks of 8: the GPU's share of the 128 edges takes many of them.
        let config = MiddlewareConfig::default().with_pipeline(PipelineMode::FixedBlockSize(8));
        let mut agent = agent(config);
        agent.connect();
        let mut node = test_node();
        // Warm-up iteration discovers the largest block.
        node.activate_all();
        agent.process_iteration(&mut node, &Relax, 0).unwrap();
        let warm = agent.scratch.block.stats();
        // Steady state: the same workload refills the block buffer in place.
        for iteration in 1..5 {
            node.activate_all();
            agent
                .process_iteration(&mut node, &Relax, iteration)
                .unwrap();
        }
        let steady = agent.scratch.block.stats();
        let stats = agent.stats();
        assert!(stats.kernel_launches > 5 * 2, "several blocks per share");
        assert_eq!(
            steady.fills, stats.kernel_launches,
            "one fill per block launched"
        );
        assert_eq!(
            steady.reallocations, warm.reallocations,
            "steady-state refills must not grow the block buffer"
        );
        let largest_block = agent.scratch.share_runs.iter().map(|run| run.block_size);
        assert!(agent.scratch.block.len() <= largest_block.max().unwrap());
    }

    #[test]
    fn oversized_fixed_blocks_surface_as_kernel_errors_not_panics() {
        // A fixed block size beyond the device capacity is clamped by the
        // planner; to exercise the propagation we launch a mis-sized block
        // directly.
        let keys = KeyGenerator::new(2);
        let mut daemon = Daemon::new("g", presets::gpu_v100("g"), keys.key_for(0, 0));
        daemon.start();
        let triplets: Vec<Triplet<f64, f64>> = (0..presets::GPU_MEMORY_ITEMS as u32 + 1)
            .map(|i| Triplet::new(i, i + 1, 0.0, 0.0, 1.0))
            .collect();
        let block = TripletBlockRef {
            index: 0,
            triplets: &triplets,
        };
        let mut staging = ChunkStaging::for_daemon(&daemon);
        let mut out = Vec::new();
        let result = launch_block(&mut daemon, &Relax, block, 0, &mut staging, &mut out);
        match result {
            Err(RuntimeError::Kernel { daemon, .. }) => assert_eq!(daemon, "g"),
            other => panic!("expected a kernel error, got {other:?}"),
        }
    }

    #[test]
    fn work_splits_across_daemons_by_capacity() {
        let gpu = presets::gpu_v100("gpu");
        let cpu = presets::cpu_xeon_20c("cpu");
        let capacities = vec![gpu.capacity_factor(), cpu.capacity_factor()];
        let shares = split_by_capacity(100, &capacities);
        assert_eq!(shares.len(), 2);
        assert_eq!(shares[0].len() + shares[1].len(), 100);
        // Contiguous cover of 0..100 in daemon order.
        assert_eq!(shares[0].start, 0);
        assert_eq!(shares[0].end, shares[1].start);
        assert_eq!(shares[1].end, 100);
        // The GPU daemon (higher capacity factor) gets the larger share.
        assert!(shares[0].len() > shares[1].len());
    }

    #[test]
    fn split_ranges_cover_exactly_even_with_rounding() {
        for d in [0usize, 1, 7, 100, 101] {
            for capacities in [vec![1.0], vec![3.0, 1.0, 1.0], vec![0.5; 7]] {
                let shares = split_by_capacity(d, &capacities);
                assert_eq!(shares.len(), capacities.len());
                let mut expected_start = 0usize;
                for share in &shares {
                    assert_eq!(share.start, expected_start);
                    expected_start = share.end;
                }
                assert_eq!(expected_start, d, "{d} items over {capacities:?}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn split_requires_a_capacity_when_there_is_work() {
        let _ = split_by_capacity(5, &[]);
    }

    #[test]
    fn split_of_nothing_needs_no_capacities() {
        assert!(split_by_capacity(0, &[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn agent_requires_at_least_one_daemon() {
        let _: Agent<f64, f64, f64> = Agent::new(
            0,
            Vec::new(),
            RuntimeProfile::powergraph(),
            MiddlewareConfig::default(),
            10,
        );
    }
}
