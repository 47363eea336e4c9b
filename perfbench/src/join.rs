//! `join-sdss2d`: one-shot `GpuSelfJoin::run` on the clustered 2-D SDSS
//! surrogate at ~32 neighbours per point — the paper's regime (low
//! dimension, dense clusters, a result set large enough to need batching),
//! where every grid-join layer does real work on every operation.

use grid_join::GpuSelfJoin;
use sim_gpu::{Device, DeviceSpec};
use sj_datasets::sdss::sdss2d;
use sj_obs::Json;

use crate::check::{calibrate_eps, Reference, BRUTE_FORCE_ROWS};
use crate::layers;
use crate::oneshot::{self, Answer, Workload};
use crate::report::Report;
use crate::Args;

pub const NAME: &str = "join-sdss2d";
const POINTS: usize = 200_000;
const NEIGHBORS: f64 = 32.0;
/// Tail percentile: at least 10 of the run's ~65 joins lie beyond it.
const TAIL_Q: f64 = 0.75;

pub fn run(args: &Args) -> Report {
    let data = sdss2d(POINTS, args.seed);
    let eps = calibrate_eps(&data, NEIGHBORS);
    let reference = Reference::compute(&data, eps);
    let inputs = Json::obj()
        .field("dataset", "sdss2d")
        .field("points", POINTS)
        .field("dim", 2u64)
        .field("target_neighbors", NEIGHBORS)
        .field("epsilon", eps)
        .field("reference_pairs", reference.table.total_pairs())
        .field("brute_force_rows", BRUTE_FORCE_ROWS)
        .field("brute_force_bad_rows", reference.brute_force_bad_rows);
    let workload = Workload {
        data: &data,
        eps,
        reference: &reference,
        tail_q: TAIL_Q,
        latency_key: "join_s",
        parts_key: "batches_seen",
        inputs,
    };
    let device = Device::new(DeviceSpec::titan_x_pascal());
    oneshot::run(
        args,
        workload,
        GpuSelfJoin::default_device,
        |join| {
            join.run(&data, eps).map(|o| Answer {
                modeled_ms: o.report.modeled_total.as_secs_f64() * 1e3,
                parts: o.report.batching.batches as u64,
                table: o.table,
            })
        },
        |tr, _| layers::decomposed_join(tr, &device, &data, eps),
    )
}
