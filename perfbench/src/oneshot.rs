//! The closed loop shared by the one-shot workloads (`join-sdss2d`,
//! `shard-syn4d`): one caller issuing joins back to back, one in flight.

use grid_join::{NeighborTable, SelfJoinError};
use sj_datasets::Dataset;
use sj_obs::Json;
use std::collections::BTreeSet;
use std::time::Instant;

use crate::check::Reference;
use crate::layers::{self, Counts, LayerInputs, Target};
use crate::report::{end_to_end, value, Report, Tally};
use crate::spans::Tracer;
use crate::stats::{median, quantile, vm_hwm_mb, HeapSampler};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one operation returned, as the benchmark uses it.
pub struct Answer {
    pub table: NeighborTable,
    pub modeled_ms: f64,
    /// How the plan split the work: batches (one-shot join) or shards
    /// (sharded join).
    pub parts: u64,
}

/// One workload's input and how to report it.
pub struct Workload<'a> {
    pub data: &'a Dataset,
    pub eps: f64,
    pub reference: &'a Reference,
    /// Gated tail percentile of the operation latency.
    pub tail_q: f64,
    /// Record key of the median latency in seconds (`join_s`, `shard_join_s`).
    pub latency_key: &'static str,
    /// Record key of the distinct [`Answer::parts`] values seen.
    pub parts_key: &'static str,
    pub inputs: Json,
}

/// Runs the workload: set-up (`make` plus one untimed warm-up `op`,
/// [`SETUPS`] times), then either the timed closed loop (`--trace 0`) or
/// the traced run, which alternates an untraced `op` with its
/// `decomposed` replay and then replays the session, serve and shard
/// layers on the same input.
pub fn run<Op>(
    args: &Args,
    w: Workload<'_>,
    make: impl Fn() -> Op,
    op: impl Fn(&Op) -> Result<Answer, SelfJoinError>,
    mut decomposed: impl FnMut(
        &mut Tracer,
        &Answer,
    ) -> Result<(NeighborTable, Counts, f64), SelfJoinError>,
) -> Report {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let e = make();
        let out = op(&e);
        setup_s.push(t.elapsed().as_secs_f64());
        tally.check(out.as_ref().map(|a| &a.table), w.reference);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    if args.trace {
        let mut tr = Tracer::new();
        let mut counts = Vec::new();
        let mut untraced_op_ms = Vec::new();
        let mut traced_op_ms = Vec::new();
        let mut modeled_ms = Vec::new();
        let start = Instant::now();
        while start.elapsed() < args.seconds || traced_op_ms.len() < 3 {
            let t = Instant::now();
            let out = op(&engine);
            untraced_op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.check(out.as_ref().map(|a| &a.table), w.reference);
            let Ok(answer) = out else { continue };
            modeled_ms.push(answer.modeled_ms);
            match decomposed(&mut tr, &answer) {
                Ok((table, c, ms)) => {
                    tally.check(Ok::<_, String>(&table), w.reference);
                    counts.push(c);
                    traced_op_ms.push(ms);
                }
                Err(e) => {
                    tally.check(Err::<&NeighborTable, _>(e), w.reference);
                }
            }
        }
        let eps_list = [w.eps];
        let targets = [Target {
            data: w.data,
            eps: &eps_list,
            refs: std::slice::from_ref(w.reference),
        }];
        let stream = [(0, 0); 3];
        let li = LayerInputs {
            counts,
            session: layers::session_probe(&mut tr, &targets, &stream, &mut tally),
            service: layers::service_probe(&mut tr, &targets, &stream, &mut tally),
            shard: layers::shard_probe(&mut tr, w.data, w.eps, w.reference, 3, &mut tally),
            modeled_ms,
            untraced_op_ms,
            traced_op_ms,
            traced_root: layers::OP,
        };
        let mut report = Report::new(tally, Json::Null);
        let breakdown = layers::emit(&mut report, &tr, &li);
        crate::write_trace(args, &tr);
        report.record = w.inputs.field("layers", breakdown);
        return report;
    }

    let mut latencies = Vec::new();
    let mut modeled = Vec::new();
    let mut parts = BTreeSet::new();
    let mut ok = 0u64;
    let heap = HeapSampler::start();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let t = Instant::now();
        let out = op(&engine);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if tally.check(out.as_ref().map(|a| &a.table), w.reference) {
            ok += 1;
        }
        if let Ok(a) = &out {
            modeled.push(a.modeled_ms);
            parts.insert(a.parts);
        }
    }
    let (heap_mb, heap_windows) = heap.finish();
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let mut report = Report::new(tally, Json::Null);
    end_to_end(
        &mut report,
        median(&latencies),
        quantile(&latencies, w.tail_q),
        ok as f64 / busy_s,
        &setup_s,
        heap_mb,
    );
    report.record = w
        .inputs
        .field("samples", latencies.len())
        .field("tail_percentile", w.tail_q * 100.0)
        .field(w.latency_key, value(median(&latencies) / 1e3, "s", "wall"))
        .field("modeled_total_ms", value(median(&modeled), "ms", "modeled"))
        .field(w.parts_key, parts.into_iter().collect::<Vec<_>>())
        .field("heap_windows", heap_windows)
        .field("vm_hwm_mb", value(vm_hwm_mb(), "MiB", "memory"));
    report
}
