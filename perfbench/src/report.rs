//! What one run reports: operation tallies, the metrics of the result
//! line, and the detailed record (every number with its unit and clock).

use grid_join::NeighborTable;
use sj_obs::Json;
use sj_serve::{ServeError, ServeOutput};

use crate::check::Reference;

/// Operation outcomes. An operation fails if it returns an error, is
/// refused, or gives a wrong answer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub refused: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.wrong
    }

    /// Counts one operation: `Err` is an error, `Ok` is checked against
    /// `reference`. Returns whether the operation succeeded.
    pub fn check<E: std::fmt::Display>(
        &mut self,
        answer: Result<&NeighborTable, E>,
        reference: &Reference,
    ) -> bool {
        self.attempted += 1;
        match answer {
            Ok(table) if reference.accepts(table) => true,
            Ok(_) => {
                self.wrong += 1;
                false
            }
            Err(e) => {
                eprintln!("operation failed: {e}");
                self.errors += 1;
                false
            }
        }
    }

    /// Counts one served query: `Overloaded` is a refusal, anything else
    /// is checked as in [`Self::check`]. Returns the answer's modeled
    /// response time (ms) when it was correct.
    pub fn check_served(
        &mut self,
        out: Result<ServeOutput, ServeError>,
        reference: &Reference,
    ) -> Option<f64> {
        if let Err(ServeError::Overloaded { .. }) = out {
            self.attempted += 1;
            self.refused += 1;
            return None;
        }
        let ok = self.check(out.as_ref().map(|o| &o.table), reference);
        ok.then(|| out.expect("checked ok").report.modeled_total.as_secs_f64() * 1e3)
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.refused += other.refused;
        self.wrong += other.wrong;
    }

    pub fn to_json(self) -> Json {
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        };
        Json::obj()
            .field("attempted", self.attempted)
            .field("errors", self.errors)
            .field("refused", self.refused)
            .field("wrong", self.wrong)
            .field("error_rate", value(rate, "ratio", "count"))
    }
}

/// One number of the detailed record, with its unit and the clock (or
/// kind of quantity) it was read from: `wall` is host wall time,
/// `modeled` the simulator's modeled device time, `count` a count or a
/// ratio of counts, `memory` resident memory.
pub fn value(v: f64, unit: &str, clock: &str) -> Json {
    Json::obj()
        .field("value", v)
        .field("unit", unit)
        .field("clock", clock)
}

/// A metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Workload-specific detail: sizes, sample counts, workload-specific
    /// metric names (`join_s`, `serve_p50_ms`, …), determinism
    /// observations.
    pub record: Json,
}

impl Report {
    pub fn new(tally: Tally, record: Json) -> Self {
        Self {
            tally,
            metrics: Vec::new(),
            record,
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Every metric with its unit and clock, for the record.
    pub fn metrics_with_clocks(&self) -> Json {
        let mut out = Json::obj();
        for m in &self.metrics {
            let clock = match m.unit {
                "ms" | "s" | "us" | "1/s" if m.name.contains("modeled") => "modeled",
                "ms" | "s" | "us" | "1/s" => "wall",
                "MiB" => "memory",
                _ => "count",
            };
            out = out.field(m.name, value(m.value, m.unit, clock));
        }
        out
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.field(
                m.name,
                Json::obj().field("value", m.value).field("unit", m.unit),
            );
        }
        Json::obj()
            .field("correct", self.tally.wrong == 0)
            .field("attempted", self.tally.attempted)
            .field("failed", self.tally.failed())
            .field("metrics", metrics)
            .render()
    }
}

/// The end-to-end metrics every workload reports (see README.md):
/// the workload's median and tail latency, throughput, the median set-up
/// time, and the median one-second-window peak of live heap over the
/// timed phase.
pub fn end_to_end(
    report: &mut Report,
    p50_ms: f64,
    tail_ms: f64,
    throughput_ops_s: f64,
    setup_s: &[f64],
    heap_window_peak_mb: f64,
) {
    report.metric("op_p50_ms", p50_ms, "ms");
    report.metric("op_tail_ms", tail_ms, "ms");
    report.metric("throughput_ops_s", throughput_ops_s, "1/s");
    report.metric("setup_s", crate::stats::median(setup_s), "s");
    report.metric("peak_heap_mb", heap_window_peak_mb, "MiB");
}
