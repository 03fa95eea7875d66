//! The serving data model: what a wire [`JobSpec`] means in-process.
//!
//! The `ipc` wire format deliberately attaches no meaning to algorithm
//! names — this module does.  An [`AlgorithmRegistry`] maps each name onto a
//! factory that validates the spec's parameters, builds the concrete
//! [`GraphAlgorithm`] and pairs it with a payload extractor turning the
//! service's vertex values into the flat `f64` vector a [`Result
//! frame`](gxplug_ipc::wire::Frame::Result) carries.  [`standard_registry`]
//! wires up the stock deployment — [`ServeVertex`] graphs answering
//! `"pagerank"` and `"sssp"` — which the `gxplug-serve` binary, the examples
//! and the integration tests all share.
//!
//! Everything here preserves the repository's determinism invariant: the
//! extractors copy `f64` values verbatim (no rounding, no reformatting), so
//! a result crossing the socket is bit-identical to the same algorithm
//! submitted in-process.

use gxplug_core::{
    ExecutionMode, GraphService, JobOptions, JobPriority, JobTicket, MiddlewareConfig,
    PipelineMode, ServiceError,
};
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::{Triplet, VertexId};
use gxplug_ipc::wire::{JobSpec, ServerError, WireConfig, WireJobOptions, WirePipeline};
use std::collections::HashMap;
use std::sync::Arc;

/// The vertex attribute of the stock serving deployment: the graph is
/// deployed once, so its vertex state carries a slot for every algorithm
/// family served over it (a GraphX-style union schema).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeVertex {
    /// PageRank state.
    pub rank: f64,
    /// SSSP state (distance from the nearest submitted source).
    pub dist: f64,
    /// Static out-degree, pre-computed for PageRank contributions.
    pub degree: u32,
}

impl Default for ServeVertex {
    fn default() -> Self {
        Self {
            rank: 1.0,
            dist: f64::INFINITY,
            degree: 0,
        }
    }
}

/// PageRank over [`ServeVertex`] (summed `f64` contributions).
#[derive(Debug, Clone)]
pub struct ServeRank {
    /// Damping factor.
    pub damping: f64,
    /// Fixed iteration count.
    pub iterations: usize,
}

impl GraphAlgorithm<ServeVertex, f64> for ServeRank {
    type Msg = f64;

    fn init_vertex(&self, _v: VertexId, out_degree: usize) -> ServeVertex {
        ServeVertex {
            degree: out_degree as u32,
            ..ServeVertex::default()
        }
    }

    fn msg_gen_into(
        &self,
        t: &Triplet<ServeVertex, f64>,
        _i: usize,
        out: &mut Vec<AddressedMessage<f64>>,
    ) {
        let degree = t.src_attr.degree.max(1) as f64;
        out.push(AddressedMessage::new(t.dst, t.src_attr.rank / degree));
    }

    fn msg_merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn msg_apply(
        &self,
        _v: VertexId,
        current: &ServeVertex,
        sum: &f64,
        _i: usize,
    ) -> Option<ServeVertex> {
        Some(ServeVertex {
            rank: (1.0 - self.damping) + self.damping * sum,
            ..*current
        })
    }

    fn max_iterations(&self) -> usize {
        self.iterations
    }

    fn always_active(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "serve-pagerank"
    }

    fn cache_key(&self) -> Option<String> {
        // The damping's exact bit pattern parameterises the job: two
        // submissions share a cache entry iff they would compute the same
        // ranks.
        Some(format!(
            "d{:016x}i{}",
            self.damping.to_bits(),
            self.iterations
        ))
    }
}

/// Multi-source shortest distance over [`ServeVertex`] (min-merged `f64`
/// distances; the `dist` field converges to the distance from the nearest
/// source).
#[derive(Debug, Clone)]
pub struct ServeReach {
    /// The source vertices.
    pub sources: Vec<VertexId>,
}

impl GraphAlgorithm<ServeVertex, f64> for ServeReach {
    type Msg = f64;

    fn init_vertex(&self, v: VertexId, out_degree: usize) -> ServeVertex {
        ServeVertex {
            dist: if self.sources.contains(&v) {
                0.0
            } else {
                f64::INFINITY
            },
            degree: out_degree as u32,
            ..ServeVertex::default()
        }
    }

    fn msg_gen_into(
        &self,
        t: &Triplet<ServeVertex, f64>,
        _i: usize,
        out: &mut Vec<AddressedMessage<f64>>,
    ) {
        if t.src_attr.dist.is_finite() {
            out.push(AddressedMessage::new(t.dst, t.src_attr.dist + t.edge_attr));
        }
    }

    fn msg_merge(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn msg_apply(
        &self,
        _v: VertexId,
        current: &ServeVertex,
        dist: &f64,
        _i: usize,
    ) -> Option<ServeVertex> {
        (*dist + 1e-12 < current.dist).then_some(ServeVertex {
            dist: *dist,
            ..*current
        })
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
        "serve-sssp"
    }

    fn cache_key(&self) -> Option<String> {
        let mut key = String::from("s");
        for (i, source) in self.sources.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(&source.to_string());
        }
        Some(key)
    }
}

/// The payload extractor: flattens the deployment's vertex values into the
/// result frame's `f64` column.
pub type Extractor<V> = Arc<dyn Fn(&[V]) -> Vec<f64> + Send + Sync>;

type SubmitFn<V, E> =
    Box<dyn FnOnce(&GraphService<V, E>, JobOptions) -> Result<JobTicket<V>, ServiceError> + Send>;

/// A validated submission, ready to run: the erased submit call plus the
/// extractor that flattens the deployment's vertex values into the result
/// frame's `f64` payload.
pub struct Prepared<V: 'static, E: 'static> {
    submit: SubmitFn<V, E>,
    extract: Extractor<V>,
}

impl<V, E> Prepared<V, E> {
    /// Wraps a concrete algorithm and its payload extractor.
    pub fn new<A>(algorithm: A, extract: impl Fn(&[V]) -> Vec<f64> + Send + Sync + 'static) -> Self
    where
        A: GraphAlgorithm<V, E> + 'static,
        V: Clone + PartialEq + Send + Sync + 'static,
        E: Clone + Send + Sync + 'static,
    {
        Self {
            submit: Box::new(move |service, options| service.try_submit_with(algorithm, options)),
            extract: Arc::new(extract),
        }
    }

    /// Submits the job (non-blocking: a full queue surfaces as
    /// [`ServiceError::QueueFull`], which the transport maps to a typed
    /// 503 — handler threads never park on the admission gate).
    pub fn submit(
        self,
        service: &GraphService<V, E>,
        options: JobOptions,
    ) -> Result<(JobTicket<V>, Extractor<V>), ServiceError> {
        let extract = Arc::clone(&self.extract);
        (self.submit)(service, options).map(|ticket| (ticket, extract))
    }
}

type Factory<V, E> = Box<dyn Fn(&JobSpec) -> Result<Prepared<V, E>, ServerError> + Send + Sync>;

/// Maps wire algorithm names onto in-process algorithm factories.
pub struct AlgorithmRegistry<V: 'static, E: 'static> {
    factories: HashMap<String, Factory<V, E>>,
}

impl<V, E> Default for AlgorithmRegistry<V, E> {
    fn default() -> Self {
        Self {
            factories: HashMap::new(),
        }
    }
}

impl<V, E> AlgorithmRegistry<V, E> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `factory` under `name` (replacing any previous holder).
    pub fn register(
        mut self,
        name: impl Into<String>,
        factory: impl Fn(&JobSpec) -> Result<Prepared<V, E>, ServerError> + Send + Sync + 'static,
    ) -> Self {
        self.factories.insert(name.into(), Box::new(factory));
        self
    }

    /// Validates a spec and builds its job.
    ///
    /// # Errors
    /// [`ServerError::UnknownAlgorithm`] for an unregistered name, or
    /// whatever the factory's parameter validation reports.
    pub fn prepare(&self, spec: &JobSpec) -> Result<Prepared<V, E>, ServerError> {
        match self.factories.get(&spec.algorithm) {
            Some(factory) => factory(spec),
            None => Err(ServerError::UnknownAlgorithm(spec.algorithm.clone())),
        }
    }
}

/// The stock registry over [`ServeVertex`] graphs: `"pagerank"` (params:
/// `damping` f64 in `(0, 1)`, default 0.85; `iterations` u64, default 20)
/// extracting ranks, and `"sssp"` (param: `sources`, a non-empty vertex-id
/// list) extracting distances.
pub fn standard_registry() -> AlgorithmRegistry<ServeVertex, f64> {
    AlgorithmRegistry::new()
        .register("pagerank", |spec| {
            let damping = spec.f64_param("damping").unwrap_or(0.85);
            if !(damping > 0.0 && damping < 1.0) {
                return Err(ServerError::BadRequest(format!(
                    "damping must be in (0, 1), got {damping}"
                )));
            }
            let iterations = spec.u64_param("iterations").unwrap_or(20);
            if iterations == 0 || iterations > 10_000 {
                return Err(ServerError::BadRequest(format!(
                    "iterations must be in 1..=10000, got {iterations}"
                )));
            }
            Ok(Prepared::new(
                ServeRank {
                    damping,
                    iterations: iterations as usize,
                },
                |values: &[ServeVertex]| values.iter().map(|v| v.rank).collect(),
            ))
        })
        .register("sssp", |spec| {
            let sources = spec
                .ids_param("sources")
                .ok_or_else(|| ServerError::BadRequest("sssp needs a sources id list".into()))?;
            if sources.is_empty() {
                return Err(ServerError::BadRequest(
                    "sssp needs at least one source".into(),
                ));
            }
            Ok(Prepared::new(
                ServeReach {
                    sources: sources.to_vec(),
                },
                |values: &[ServeVertex]| values.iter().map(|v| v.dist).collect(),
            ))
        })
}

/// Builds the stock serving deployment [`standard_registry`] expects: an
/// RMAT power-law graph of `2^scale` vertices, greedily vertex-cut over two
/// nodes with one simulated V100 each, pooled worker sessions and a bounded
/// queue.  The server submits through `try_submit_with`, so a full queue
/// answers `QueueFull` instead of parking a handler thread.
///
/// The same helper backs `gxplug-serve`, the serving example and the e2e
/// tests, so "direct" and "over the socket" runs are guaranteed to target
/// identical deployments.
pub fn standard_service(
    scale: u32,
    seed: u64,
    worker_sessions: usize,
    queue_depth: usize,
) -> GraphService<ServeVertex, f64> {
    use gxplug_accel::presets::gpu_v100;
    use gxplug_engine::RuntimeProfile;
    use gxplug_graph::generators::{Generator, Rmat};
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};
    use gxplug_graph::PropertyGraph;

    let list = Rmat::new(scale, 8.0).generate(seed);
    let graph = Arc::new(
        PropertyGraph::from_edge_list(list, ServeVertex::default()).expect("valid edge list"),
    );
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .expect("partitioning succeeds");
    GraphService::builder(graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .devices(vec![
            vec![gpu_v100("node0-gpu0")],
            vec![gpu_v100("node1-gpu0")],
        ])
        .dataset(format!("rmat{scale}"))
        .max_iterations(200)
        .worker_sessions(worker_sessions)
        .queue_depth(queue_depth)
        .build()
        .expect("a valid deployment")
}

/// Maps wire job options onto the core [`JobOptions`].  The priority here is
/// the *requested* one — the server clamps it to the tenant's ceiling before
/// submitting.
pub fn job_options(wire: &WireJobOptions) -> Result<JobOptions, ServerError> {
    let mut options = JobOptions::new()
        .with_priority(priority_of(wire.priority))
        .with_cache(match wire.cache {
            0 => gxplug_core::CachePolicy::UseOrFill,
            1 => gxplug_core::CachePolicy::Bypass,
            _ => gxplug_core::CachePolicy::Refresh,
        });
    if let Some(cap) = wire.max_iterations {
        if cap == 0 {
            return Err(ServerError::BadRequest("max_iterations must be > 0".into()));
        }
        options = options.with_max_iterations(cap as usize);
    }
    if let Some(config) = &wire.config {
        options = options.with_config(middleware_config(config)?);
    }
    Ok(options)
}

/// The [`JobPriority`] a wire priority code names (codes validated at
/// decode).
pub fn priority_of(code: u8) -> JobPriority {
    match code {
        0 => JobPriority::High,
        1 => JobPriority::Normal,
        _ => JobPriority::Low,
    }
}

/// Validates and maps a wire configuration override onto
/// [`MiddlewareConfig`].
pub fn middleware_config(wire: &WireConfig) -> Result<MiddlewareConfig, ServerError> {
    if !(wire.cache_capacity_fraction > 0.0 && wire.cache_capacity_fraction <= 1.0) {
        return Err(ServerError::BadRequest(format!(
            "cache_capacity_fraction must be in (0, 1], got {}",
            wire.cache_capacity_fraction
        )));
    }
    if wire.lazy_upload && !wire.caching {
        return Err(ServerError::BadRequest(
            "lazy_upload requires caching".into(),
        ));
    }
    Ok(MiddlewareConfig {
        pipeline: match wire.pipeline {
            WirePipeline::Disabled => PipelineMode::Disabled,
            WirePipeline::FixedBlockSize(size) => PipelineMode::FixedBlockSize(size as usize),
            WirePipeline::FixedBlockCount(count) => PipelineMode::FixedBlockCount(count as usize),
            WirePipeline::Optimal => PipelineMode::Optimal,
        },
        caching: wire.caching,
        lazy_upload: wire.lazy_upload,
        skipping: wire.skipping,
        cache_capacity_fraction: wire.cache_capacity_fraction,
        execution: if wire.serial {
            ExecutionMode::Serial
        } else {
            ExecutionMode::Threaded
        },
    })
}

/// Parses the curl-friendly text submission form (`algorithm=sssp&
/// sources=0,7&priority=high&cache=bypass&max_iterations=50&damping=0.9&
/// iterations=30`) into a wire spec + options pair.
pub fn parse_text_submission(body: &str) -> Result<(JobSpec, WireJobOptions), ServerError> {
    let pairs = crate::http::parse_form(body);
    let algorithm = pairs
        .iter()
        .find(|(key, _)| *key == "algorithm")
        .map(|(_, value)| *value)
        .ok_or_else(|| ServerError::BadRequest("form lacks an algorithm field".into()))?;
    let mut spec = JobSpec::new(algorithm);
    let mut options = WireJobOptions::default();
    for (key, value) in pairs {
        match key {
            "algorithm" => {}
            "sources" => {
                let ids = value
                    .split(',')
                    .filter(|id| !id.is_empty())
                    .map(|id| {
                        id.trim()
                            .parse::<u32>()
                            .map_err(|_| ServerError::BadRequest(format!("bad vertex id {id:?}")))
                    })
                    .collect::<Result<Vec<u32>, _>>()?;
                spec = spec.with_ids("sources", ids);
            }
            "priority" => {
                options.priority = match value {
                    "high" => 0,
                    "normal" => 1,
                    "low" => 2,
                    other => {
                        return Err(ServerError::BadRequest(format!("bad priority {other:?}")))
                    }
                };
            }
            "cache" => {
                options.cache = match value {
                    "use" | "use-or-fill" => 0,
                    "bypass" => 1,
                    "refresh" => 2,
                    other => {
                        return Err(ServerError::BadRequest(format!(
                            "bad cache policy {other:?}"
                        )))
                    }
                };
            }
            "max_iterations" => {
                let cap = value.parse::<u32>().map_err(|_| {
                    ServerError::BadRequest(format!("bad max_iterations {value:?}"))
                })?;
                options.max_iterations = Some(cap);
            }
            key => {
                // Any other numeric field becomes an algorithm parameter:
                // integers as u64 params, everything else as f64.
                if let Ok(int) = value.parse::<u64>() {
                    spec = spec.with_u64(key, int);
                } else if let Ok(float) = value.parse::<f64>() {
                    spec = spec.with_f64(key, float);
                } else {
                    return Err(ServerError::BadRequest(format!(
                        "unparseable parameter {key}={value}"
                    )));
                }
            }
        }
    }
    Ok((spec, options))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_registry_validates_parameters() {
        let registry = standard_registry();
        assert!(registry.prepare(&JobSpec::new("pagerank")).is_ok());
        assert!(registry
            .prepare(&JobSpec::new("pagerank").with_f64("damping", 1.5))
            .is_err());
        assert!(registry
            .prepare(&JobSpec::new("pagerank").with_u64("iterations", 0))
            .is_err());

        assert!(registry
            .prepare(&JobSpec::new("sssp").with_ids("sources", vec![0, 7]))
            .is_ok());
        assert!(matches!(
            registry.prepare(&JobSpec::new("sssp")),
            Err(ServerError::BadRequest(_))
        ));
        assert!(matches!(
            registry.prepare(&JobSpec::new("bfs")),
            Err(ServerError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn wire_options_map_onto_core_options() {
        let options = job_options(&WireJobOptions {
            priority: 0,
            cache: 1,
            max_iterations: Some(64),
            config: Some(WireConfig {
                pipeline: WirePipeline::FixedBlockSize(256),
                caching: true,
                lazy_upload: true,
                skipping: false,
                cache_capacity_fraction: 0.25,
                serial: true,
            }),
        })
        .unwrap();
        assert_eq!(options.priority, JobPriority::High);
        assert_eq!(options.cache, gxplug_core::CachePolicy::Bypass);
        assert_eq!(options.max_iterations, Some(64));
        let config = options.config_override.unwrap();
        assert_eq!(config.pipeline, PipelineMode::FixedBlockSize(256));
        assert_eq!(config.execution, ExecutionMode::Serial);

        // Invalid combinations are typed 400s, not panics.
        assert!(job_options(&WireJobOptions {
            max_iterations: Some(0),
            ..WireJobOptions::default()
        })
        .is_err());
        assert!(middleware_config(&WireConfig {
            pipeline: WirePipeline::Optimal,
            caching: false,
            lazy_upload: true,
            skipping: false,
            cache_capacity_fraction: 0.5,
            serial: false,
        })
        .is_err());
        assert!(middleware_config(&WireConfig {
            pipeline: WirePipeline::Optimal,
            caching: true,
            lazy_upload: false,
            skipping: false,
            cache_capacity_fraction: 0.0,
            serial: false,
        })
        .is_err());
    }

    #[test]
    fn text_submissions_parse_into_specs() {
        let (spec, options) = parse_text_submission(
            "algorithm=sssp&sources=0,7,42&priority=high&cache=bypass&max_iterations=50",
        )
        .unwrap();
        assert_eq!(spec.algorithm, "sssp");
        assert_eq!(spec.ids_param("sources"), Some(&[0, 7, 42][..]));
        assert_eq!(options.priority, 0);
        assert_eq!(options.cache, 1);
        assert_eq!(options.max_iterations, Some(50));

        let (spec, _) =
            parse_text_submission("algorithm=pagerank&damping=0.9&iterations=30").unwrap();
        assert_eq!(spec.f64_param("damping"), Some(0.9));
        assert_eq!(spec.u64_param("iterations"), Some(30));

        assert!(parse_text_submission("sources=1").is_err());
        assert!(parse_text_submission("algorithm=sssp&sources=a,b").is_err());
        assert!(parse_text_submission("algorithm=sssp&priority=urgent").is_err());
    }

    #[test]
    fn cache_keys_identify_parameterisations() {
        let a = ServeRank {
            damping: 0.85,
            iterations: 20,
        };
        let b = ServeRank {
            damping: 0.85,
            iterations: 20,
        };
        let c = ServeRank {
            damping: 0.9,
            iterations: 20,
        };
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());

        let x = ServeReach {
            sources: vec![0, 7],
        };
        let y = ServeReach {
            sources: vec![7, 0],
        };
        assert_ne!(x.cache_key(), y.cache_key());
    }
}
