//! In-memory span recording for the traced runs.
//!
//! Spans are taken from the benchmark's own code, around calls into each
//! layer's public functions; they stay in memory and are written out when
//! the workload ends.  A layer's *self time* is its span's duration minus the
//! part its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The four top-level cost buckets of the accelerator survey (Gui et al.):
/// every span falls into exactly one, so breakdowns compare with the
/// literature and with the paper's middleware-ratio figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    Preprocessing,
    Transfer,
    Compute,
    Communication,
}

impl Bucket {
    fn label(self) -> &'static str {
        match self {
            Bucket::Preprocessing => "preprocessing",
            Bucket::Transfer => "transfer",
            Bucket::Compute => "compute",
            Bucket::Communication => "communication",
        }
    }
}

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.agent`.
    pub name: &'static str,
    /// Instance within the parent (`superstep[12]`, `core.agent[3]`).
    pub index: Option<u32>,
    pub parent: Option<SpanId>,
    /// Spans of one job / request / round share this id.
    pub job: u64,
    pub bucket: Bucket,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span list against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A tracer sharing another's origin, so per-thread tracers merge onto
    /// one time axis.
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that began at `start`; [`Tracer::close_at`] ends it.
    pub fn open_at(
        &mut self,
        name: &'static str,
        index: Option<u32>,
        parent: Option<SpanId>,
        job: u64,
        bucket: Bucket,
        start: Instant,
    ) -> SpanId {
        self.record(name, index, parent, job, bucket, start, start)
    }

    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_ns = self.stamp(end);
    }

    /// Records a finished span from two instants the caller took.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        index: Option<u32>,
        parent: Option<SpanId>,
        job: u64,
        bucket: Bucket,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            index,
            parent,
            job,
            bucket,
            start_ns: self.stamp(start),
            end_ns: self.stamp(end),
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        bucket: Bucket,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        self.record(name, None, parent, job, bucket, start, Instant::now());
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Appends another tracer's spans (same origin), re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Self time of every span: duration minus the children's durations
    /// (children of one span never overlap here — they are sequential calls
    /// on the recording thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total self time per span name over the spans of `job`, in seconds.
    pub fn self_seconds_by_name(&self, job: u64) -> BTreeMap<&'static str, f64> {
        let own = self.self_times_ns();
        let mut totals = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(own) {
            if span.job == job {
                *totals.entry(span.name).or_insert(0.0) += own_ns as f64 / 1e9;
            }
        }
        totals
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Writes `{workload, spans: [...]}`; every span carries name, start,
    /// end, parent, job id, bucket and its self time.
    pub fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let own = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (span, own_ns))| {
                let name = match span.index {
                    Some(index) => format!("{}[{index}]", span.name),
                    None => span.name.to_string(),
                };
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(name)),
                    ("job", Json::Num(span.job as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("bucket", Json::str(span.bucket.label())),
                    ("start_us", Json::Num(span.start_ns as f64 / 1e3)),
                    ("end_us", Json::Num(span.end_ns as f64 / 1e3)),
                    ("self_us", Json::Num(own_ns as f64 / 1e3)),
                ])
            })
            .collect();
        let document = Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, document.to_string())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let t0 = Instant::now();
        let mut tracer = Tracer::with_origin(t0);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let job = tracer.record("job", None, None, 7, Bucket::Compute, at(0), at(100));
        let step = tracer.record(
            "superstep",
            Some(0),
            Some(job),
            7,
            Bucket::Communication,
            at(10),
            at(90),
        );
        tracer.record(
            "core.agent",
            Some(0),
            Some(step),
            7,
            Bucket::Compute,
            at(10),
            at(40),
        );
        tracer.record(
            "core.agent",
            Some(1),
            Some(step),
            7,
            Bucket::Compute,
            at(40),
            at(80),
        );
        let own = tracer.self_times_ns();
        assert_eq!(own, vec![20_000_000, 10_000_000, 30_000_000, 40_000_000]);
        assert_eq!(own.iter().sum::<u64>(), tracer.span(job).duration_ns());
        let by_name = tracer.self_seconds_by_name(7);
        assert!((by_name["core.agent"] - 0.07).abs() < 1e-12);
    }

    #[test]
    fn absorb_rebases_parents() {
        let now = Instant::now();
        let mut a = Tracer::with_origin(now);
        a.open_at("request", None, None, 1, Bucket::Transfer, now);
        let mut b = Tracer::with_origin(now);
        let parent = b.open_at("request", None, None, 2, Bucket::Transfer, now);
        b.open_at("http.post", None, Some(parent), 2, Bucket::Transfer, now);
        a.absorb(b);
        assert_eq!(a.span(2).parent, Some(1));
    }
}
