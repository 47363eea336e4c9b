//! The traced run's span recorder: spans around the benchmark's own calls
//! into each layer's public functions, kept in memory and written out
//! when the run ends. Nothing inside the program is instrumented.
//!
//! A span's *self time* is its duration minus the part of it that its
//! child spans cover; a layer metric is the median over operations of the
//! layer's summed self time within one operation's span tree.

use sj_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

struct Record {
    name: &'static str,
    parent: Option<usize>,
    /// Root span of the operation this span belongs to.
    root: usize,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Record>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `parent` `None` starts a new operation tree.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p.0].root);
        let start_ns = self.now_ns();
        self.spans.push(Record {
            name,
            parent: parent.map(|p| p.0),
            root,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(id)
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let s = &mut self.spans[id.0];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
        own
    }

    /// Per span name, the self time summed within each operation tree
    /// whose root is named `root_name` (one value per operation).
    pub fn self_times(&self, root_name: &str) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_ms();
        let mut per_op: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[s.root].name == root_name {
                *per_op.entry((s.root, s.name)).or_default() += own[i];
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((_, name), ms) in per_op {
            out.entry(name).or_default().push(ms);
        }
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// All spans as Chrome trace-event JSON (`chrome://tracing`).
    pub fn chrome_trace(&self) -> Json {
        let mut events = Json::arr();
        for (i, s) in self.spans.iter().enumerate() {
            events = events.push(
                Json::obj()
                    .field("name", s.name)
                    .field("ph", "X")
                    .field("pid", 1u64)
                    .field("tid", s.root as u64)
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .field(
                        "args",
                        Json::obj()
                            .field("id", i as u64)
                            .field("parent", s.parent.map(|p| p as u64)),
                    ),
            );
        }
        Json::obj().field("traceEvents", events)
    }
}
