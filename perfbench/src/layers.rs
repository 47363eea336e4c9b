//! The traced run: the benchmark's own calls into each layer's public
//! functions, each inside a span (see `spans.rs`). Nothing inside the
//! program changes; the untimed reference checks still apply to every
//! answer the replays produce.
//!
//! Every workload reports the same per-layer metrics. The pipeline layers
//! (`index` … `materialize`) decompose the workload's own operation; the
//! session, serve and shard layers are replayed on the workload's own
//! input through their entry points, so each layer's cost is known on
//! every workload, including those whose operation does not cross it.

use grid_join::batching::{estimate_result_size, run_batched_on};
use grid_join::{
    remap_pairs, CellMajorPlan, DeviceGrid, GpuSelfJoin, GridIndex, NeighborTable, Ownership, Pair,
    SelfJoinConfig, SelfJoinError, SelfJoinSession,
};
use sim_gpu::{Device, DevicePool};
use sj_datasets::Dataset;
use sj_serve::{QueryRequest, SelfJoinService, ServiceConfig};
use sj_shard::{calibrate, project_partition, ShardedSelfJoin};
use std::time::Instant;

use crate::check::Reference;
use crate::report::{Report, Tally};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;

/// Root span names.
pub const OP: &str = "op";
pub const SETUP: &str = "setup";
pub const SERVED: &str = "served";

/// Counters of the pipeline layers, summed over one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub cells: u64,
    pub index_bytes: u64,
    pub estimated_pairs: u64,
    pub pairs: u64,
    pub batches: u64,
    pub overflow_retries: u64,
    pub kernels_modeled_ms: f64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.cells += o.cells;
        self.index_bytes += o.index_bytes;
        self.estimated_pairs += o.estimated_pairs;
        self.pairs += o.pairs;
        self.batches += o.batches;
        self.overflow_retries += o.overflow_retries;
        self.kernels_modeled_ms += o.kernels_modeled_ms;
    }
}

/// Device-resident state of one dataset: index, snapshot and hoisted
/// cell-major plan.
pub struct Staged<'a> {
    device: &'a Device,
    grid: GridIndex,
    dg: DeviceGrid,
    hoist: CellMajorPlan,
}

/// Builds the index (`index`), uploads it (`upload`) and hoists the
/// per-cell neighbour table (`hoist`), each a child span of `parent`.
pub fn stage<'a>(
    tr: &mut Tracer,
    parent: SpanId,
    device: &'a Device,
    data: &Dataset,
    eps: f64,
) -> Result<Staged<'a>, SelfJoinError> {
    let cfg = SelfJoinConfig::default();
    let grid = tr.time("index", parent, || GridIndex::build(data, eps))?;
    let dg = tr.time("upload", parent, || DeviceGrid::upload(device, data, &grid))?;
    let (hoist, _) = tr.time("hoist", parent, || {
        CellMajorPlan::build(device, &dg, cfg.unicomp, cfg.launch)
    })?;
    Ok(Staged {
        device,
        grid,
        dg,
        hoist,
    })
}

/// Runs the batched kernels with the hoist prebuilt (`kernels`), sized
/// by `estimate` when given, else by the sampling estimate (`estimate`).
/// `query_eps` shrinks the radius below the index's (resident reuse);
/// `ownership` is the sharded engine's emit-time window.
pub fn execute(
    tr: &mut Tracer,
    parent: SpanId,
    st: &Staged<'_>,
    query_eps: Option<f64>,
    ownership: Option<Ownership>,
    estimate: Option<u64>,
) -> Result<(Vec<Pair>, Counts), SelfJoinError> {
    let cfg = SelfJoinConfig::default();
    let estimate = match estimate {
        Some(e) => e,
        None => sample_estimate(tr, parent, st, query_eps)?,
    };
    let mut opts = cfg.exec_options();
    opts.query_epsilon = query_eps;
    opts.resident = query_eps.is_some();
    opts.ownership = ownership;
    let mut batching = cfg.batching;
    batching.precomputed_estimate = Some(estimate);
    let (pairs, br) = tr.time("kernels", parent, || {
        run_batched_on(
            st.device,
            &st.dg,
            cfg.launch,
            opts,
            &batching,
            Some(&st.hoist),
        )
    })?;
    let counts = Counts {
        cells: st.grid.non_empty_cells() as u64,
        index_bytes: st.grid.size_bytes() as u64,
        estimated_pairs: estimate,
        pairs: br.actual_pairs,
        batches: br.batches as u64,
        overflow_retries: br.overflow_retries as u64,
        kernels_modeled_ms: br.modeled_kernel_time.as_secs_f64() * 1e3,
    };
    Ok((pairs, counts))
}

/// The sampling result-size estimate (`estimate` span).
pub fn sample_estimate(
    tr: &mut Tracer,
    parent: SpanId,
    st: &Staged<'_>,
    query_eps: Option<f64>,
) -> Result<u64, SelfJoinError> {
    let batching = SelfJoinConfig::default().batching;
    let (estimate, ..) = tr.time("estimate", parent, || {
        estimate_result_size(st.device, &st.dg, &batching, query_eps)
    })?;
    Ok(estimate)
}

/// One-shot join decomposed into its six layer calls under an `op` root;
/// returns the table, the counters and the op's traced wall time (ms).
pub fn decomposed_join(
    tr: &mut Tracer,
    device: &Device,
    data: &Dataset,
    eps: f64,
) -> Result<(NeighborTable, Counts, f64), SelfJoinError> {
    let op = tr.begin(OP, None);
    let st = stage(tr, op, device, data, eps)?;
    let (pairs, counts) = execute(tr, op, &st, None, None, None)?;
    let table = tr.time("materialize", op, || {
        NeighborTable::from_pairs(data.len(), &pairs)
    });
    drop(pairs);
    drop(st);
    Ok((table, counts, tr.end(op)))
}

/// Sharded join decomposed under an `op` root: the partition
/// (`shard.plan`, at the engine's fixed shard count), the cost-model
/// calibration whose per-shard pair predictions size the kernels'
/// buffers (`estimate` — the engine's estimate stage), then per shard the
/// pipeline layers with the ownership window, the id remap and append
/// (`shard.merge`), and one table build over the merged pairs
/// (`materialize`). Shards run one after another on their round-robin
/// device.
pub fn decomposed_shard(
    tr: &mut Tracer,
    engine: &ShardedSelfJoin,
    data: &Dataset,
    eps: f64,
) -> Result<(NeighborTable, Counts, f64), SelfJoinError> {
    let op = tr.begin(OP, None);
    let part = tr.time("shard.plan", op, || engine.plan(data, eps))?;
    let spec = engine.pool().device(0).spec();
    let costs = tr.time("estimate", op, || {
        calibrate(data, eps, spec).map(|model| project_partition(&model, &part, spec, true))
    })?;
    let mut merged = Vec::new();
    let mut counts = Counts::default();
    for (i, shard) in part.shards.iter().enumerate() {
        let device = engine.pool().device(i % engine.pool().len());
        let st = stage(tr, op, device, &shard.data, part.epsilon)?;
        let window = Some(Ownership::prefix(shard.owned));
        let (mut pairs, c) = execute(tr, op, &st, None, window, Some(costs[i].predicted_pairs))?;
        counts.add(c);
        tr.time("shard.merge", op, || {
            remap_pairs(&mut pairs, &shard.global_ids);
            merged.append(&mut pairs);
        });
    }
    let table = tr.time("materialize", op, || {
        NeighborTable::from_pairs(data.len(), &merged)
    });
    drop(merged);
    drop(part);
    Ok((table, counts, tr.end(op)))
}

/// One dataset of a replayed query stream: its points, the radii the
/// stream uses (largest first) and a reference answer per radius.
pub struct Target<'a> {
    pub data: &'a Dataset,
    pub eps: &'a [f64],
    pub refs: &'a [Reference],
}

/// Session replay: one resident session per dataset on a 1-device pool,
/// warmed at every radius (untraced set-up), then the stream served by
/// `SelfJoinSession::query`, each call timed.
pub struct SessionProbe {
    pub query_ms: Vec<f64>,
    pub reuse_frac: f64,
    pub estimate_hit_frac: f64,
}

pub fn session_probe(
    tr: &mut Tracer,
    targets: &[Target<'_>],
    stream: &[(usize, usize)],
    tally: &mut Tally,
) -> SessionProbe {
    let sessions: Vec<SelfJoinSession> = targets
        .iter()
        .map(|t| SelfJoinSession::new(t.data.clone(), DevicePool::titan_x(1)))
        .collect();
    for (s, t) in sessions.iter().zip(targets) {
        for &eps in t.eps {
            s.query(eps).expect("session warm-up");
        }
    }
    let before: Vec<_> = sessions.iter().map(|s| s.stats()).collect();
    let mut query_ms = Vec::new();
    for &(d, e) in stream {
        let root = tr.begin("session.query", None);
        let out = sessions[d].query(targets[d].eps[e]);
        query_ms.push(tr.end(root));
        tally.check(out.as_ref().map(|o| &o.table), &targets[d].refs[e]);
    }
    let (mut queries, mut reuses, mut hits) = (0, 0, 0);
    for (s, b) in sessions.iter().zip(&before) {
        let a = s.stats();
        queries += a.queries - b.queries;
        reuses += a.index_reuses - b.index_reuses;
        hits += a.estimate_hits - b.estimate_hits;
    }
    SessionProbe {
        query_ms,
        reuse_frac: reuses as f64 / queries.max(1) as f64,
        estimate_hit_frac: hits as f64 / queries.max(1) as f64,
    }
}

/// Service replay: a `SelfJoinService` on a 1-device pool with the
/// datasets registered and warmed, then the stream sent closed loop (one
/// query in flight), alternating an untraced query with a traced one
/// (`served` root with `serve.submit` and `serve.wait` children).
pub struct ServiceProbe {
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub modeled_ms: Vec<f64>,
    pub rejected: u64,
}

pub fn service_probe(
    tr: &mut Tracer,
    targets: &[Target<'_>],
    stream: &[(usize, usize)],
    tally: &mut Tally,
) -> ServiceProbe {
    let svc = SelfJoinService::new(DevicePool::titan_x(1), ServiceConfig::default());
    let ids: Vec<_> = targets
        .iter()
        .map(|t| {
            let id = svc.register_dataset("replay", t.data.clone());
            svc.warm(id, t.eps).expect("service warm-up");
            id
        })
        .collect();
    svc.reset_metrics();
    let mut p = ServiceProbe {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        submit_us: Vec::new(),
        modeled_ms: Vec::new(),
        rejected: 0,
    };
    for (k, &(d, e)) in stream.iter().chain(stream).enumerate() {
        let traced = k % 2 == 1;
        let req = QueryRequest::new(format!("tenant-{}", k % 3), ids[d], targets[d].eps[e]);
        let t0 = Instant::now();
        let root = traced.then(|| tr.begin(SERVED, None));
        let sub = root.map(|r| tr.begin("serve.submit", Some(r)));
        let ticket = svc.submit(req);
        if let Some(s) = sub {
            p.submit_us.push(tr.end(s) * 1e3);
        }
        let out = match ticket {
            Ok(ticket) => {
                let w = root.map(|r| tr.begin("serve.wait", Some(r)));
                let out = ticket.wait();
                if let Some(w) = w {
                    tr.end(w);
                }
                out
            }
            Err(e) => Err(e),
        };
        let ms = match root {
            Some(r) => tr.end(r),
            None => t0.elapsed().as_secs_f64() * 1e3,
        };
        if traced {
            p.traced_ms.push(ms);
        } else {
            p.untraced_ms.push(ms);
        }
        let refused = tally.refused;
        p.modeled_ms
            .extend(tally.check_served(out, &targets[d].refs[e]));
        p.rejected += tally.refused - refused;
    }
    p
}

/// Shard-layer replay on one dataset: the default engine over 4
/// simulated devices (its chooser picks the shard count), the partition
/// alone at that count, and the single-device join for comparison.
pub struct ShardProbe {
    pub counts: Vec<usize>,
    pub ghost_frac: f64,
    pub sharded_ms: Vec<f64>,
    pub single_ms: Vec<f64>,
}

pub fn shard_probe(
    tr: &mut Tracer,
    data: &Dataset,
    eps: f64,
    reference: &Reference,
    reps: usize,
    tally: &mut Tally,
) -> ShardProbe {
    let engine = ShardedSelfJoin::titan_x(4);
    let single = GpuSelfJoin::default_device();
    let mut p = ShardProbe {
        counts: Vec::new(),
        ghost_frac: 0.0,
        sharded_ms: Vec::new(),
        single_ms: Vec::new(),
    };
    for _ in 0..reps {
        let root = tr.begin("shard.run", None);
        let out = engine.run(data, eps);
        p.sharded_ms.push(tr.end(root));
        if let Ok(o) = &out {
            p.counts.push(o.report.shards.len());
            p.ghost_frac = o.report.ghost_fraction();
        }
        tally.check(out.as_ref().map(|o| &o.table), reference);

        let root = tr.begin("single.run", None);
        let out = single.run(data, eps);
        p.single_ms.push(tr.end(root));
        tally.check(out.as_ref().map(|o| &o.table), reference);

        let k = p.counts.last().copied().unwrap_or(1);
        let root = tr.begin("shard.plan", None);
        let part = ShardedSelfJoin::titan_x(4).with_shards(k).plan(data, eps);
        tr.end(root);
        drop(part);
    }
    p
}

/// p50 wall time (µs) of an empty two-way `rayon::join`: the host
/// runtime's fixed cost per parallel call.
pub fn fanout_us() -> f64 {
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        rayon::join(|| std::hint::black_box(0u8), || std::hint::black_box(0u8));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs {
    pub counts: Vec<Counts>,
    pub session: SessionProbe,
    pub service: ServiceProbe,
    pub shard: ShardProbe,
    /// Modeled response time (ms) of the workload's own operations.
    pub modeled_ms: Vec<f64>,
    /// Untraced and traced wall time (ms) of the workload's operation,
    /// measured in the same process, and the name of the traced root.
    pub untraced_op_ms: Vec<f64>,
    pub traced_op_ms: Vec<f64>,
    pub traced_root: &'static str,
}

fn median_of(counts: &[Counts], f: impl Fn(&Counts) -> f64) -> f64 {
    median(&counts.iter().map(f).collect::<Vec<_>>())
}

/// Adds every per-layer metric to `report` and returns the layer
/// breakdown for the record.
pub fn emit(report: &mut Report, tr: &Tracer, li: &LayerInputs) -> sj_obs::Json {
    let op_self = tr.self_times(OP);
    let setup_self = tr.self_times(SETUP);
    let layer = |name: &str| -> f64 {
        op_self
            .get(name)
            .or_else(|| setup_self.get(name))
            .map_or(f64::NAN, |v| median(v))
    };
    let c = &li.counts;
    let session_ms = median(&li.session.query_ms);
    let served_ms = median(&li.service.untraced_ms);
    let untraced = median(&li.untraced_op_ms);
    let traced = median(&li.traced_op_ms);
    let root_self = tr.self_times(li.traced_root);
    let unaccounted = root_self
        .get(li.traced_root)
        .map_or(f64::NAN, |v| median(v));
    let single_s = median(&li.shard.single_ms) / 1e3;
    let sharded_s = median(&li.shard.sharded_ms) / 1e3;

    report.metric("index.build_ms", layer("index"), "ms");
    report.metric("index.cells", median_of(c, |c| c.cells as f64), "count");
    report.metric(
        "index.bytes",
        median_of(c, |c| c.index_bytes as f64),
        "bytes",
    );
    report.metric("upload.ms", layer("upload"), "ms");
    report.metric("hoist.ms", layer("hoist"), "ms");
    report.metric("estimate.ms", layer("estimate"), "ms");
    report.metric(
        "estimate.ratio",
        median_of(c, |c| c.estimated_pairs as f64 / c.pairs.max(1) as f64),
        "ratio",
    );
    report.metric("batch.count", median_of(c, |c| c.batches as f64), "count");
    report.metric(
        "batch.overflow_retries",
        median_of(c, |c| c.overflow_retries as f64),
        "count",
    );
    report.metric("kernels.ms", layer("kernels"), "ms");
    report.metric("kernels.pairs", median_of(c, |c| c.pairs as f64), "count");
    report.metric(
        "kernels.modeled_ms",
        median_of(c, |c| c.kernels_modeled_ms),
        "ms",
    );
    report.metric("materialize.ms", layer("materialize"), "ms");
    report.metric("session.query_ms", session_ms, "ms");
    report.metric("session.reuse_frac", li.session.reuse_frac, "ratio");
    report.metric(
        "session.estimate_hit_frac",
        li.session.estimate_hit_frac,
        "ratio",
    );
    report.metric("serve.submit_us", median(&li.service.submit_us), "us");
    report.metric("serve.overhead_ms", served_ms - session_ms, "ms");
    report.metric("serve.rejected", li.service.rejected as f64, "count");
    report.metric("shard.plan_ms", median(&tr.durations("shard.plan")), "ms");
    report.metric(
        "shard.count",
        median(
            &li.shard
                .counts
                .iter()
                .map(|&k| k as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    report.metric("shard.ghost_frac", li.shard.ghost_frac, "ratio");
    report.metric("shard.single_device_s", single_s, "s");
    report.metric("shard.vs_single", sharded_s / single_s, "ratio");
    report.metric("runtime.fanout_us", fanout_us(), "us");
    report.metric("modeled.total_ms", median(&li.modeled_ms), "ms");
    report.metric("trace.op_ms", untraced, "ms");
    report.metric("trace.overhead_ms", traced - untraced, "ms");
    report.metric("trace.unaccounted_ms", unaccounted, "ms");

    let mut layers = sj_obs::Json::obj();
    let mut layer_sum = 0.0;
    for (name, v) in op_self.iter().filter(|(n, _)| **n != OP) {
        layer_sum += median(v);
        layers = layers.field(name, crate::report::value(median(v), "ms", "wall"));
    }
    sj_obs::Json::obj()
        .field("op_layers_self_ms", layers)
        .field(
            "op_layer_sum_ms",
            crate::report::value(layer_sum, "ms", "wall"),
        )
        .field(
            "layer_sum_over_untraced_op",
            crate::report::value(layer_sum / untraced, "ratio", "wall"),
        )
        .field(
            "shard_counts_seen",
            li.shard
                .counts
                .iter()
                .map(|&k| k as u64)
                .collect::<Vec<_>>(),
        )
        .field(
            "served_closed_loop_p50_ms",
            crate::report::value(served_ms, "ms", "wall"),
        )
}
