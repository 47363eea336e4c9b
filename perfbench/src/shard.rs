//! `shard-syn4d`: `ShardedSelfJoin::titan_x(4).run` with the default
//! shard-count chooser on uniform 4-D data at ~24 neighbours per point.
//! In 4-D each query scans up to 3⁴ = 81 adjacent cells, so index search
//! outweighs the small result set and materialization barely matters.
//! The only workload that crosses the shard prelude, the ghost halos and
//! the merge. (Why 4-D and not 6-D: see README.md, "The shard workload".)

use sj_datasets::synthetic::uniform;
use sj_obs::Json;
use sj_shard::ShardedSelfJoin;

use crate::check::{calibrate_eps, Reference, BRUTE_FORCE_ROWS};
use crate::layers;
use crate::oneshot::{self, Answer, Workload};
use crate::report::Report;
use crate::Args;

pub const NAME: &str = "shard-syn4d";
const POINTS: usize = 80_000;
const DIM: usize = 4;
const NEIGHBORS: f64 = 24.0;
const DEVICES: usize = 4;
/// Tail percentile: at least 10 of the run's ~85 joins lie beyond it.
const TAIL_Q: f64 = 0.8;

pub fn run(args: &Args) -> Report {
    let data = uniform(DIM, POINTS, args.seed);
    let eps = calibrate_eps(&data, NEIGHBORS);
    // The reference is the single-device table (a fresh `GpuSelfJoin`).
    let reference = Reference::compute(&data, eps);
    let inputs = Json::obj()
        .field("dataset", "uniform")
        .field("points", POINTS)
        .field("dim", DIM)
        .field("devices", DEVICES)
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
        latency_key: "shard_join_s",
        parts_key: "shard_counts_seen",
        inputs,
    };
    oneshot::run(
        args,
        workload,
        || ShardedSelfJoin::titan_x(DEVICES),
        |engine| {
            engine.run(&data, eps).map(|o| Answer {
                modeled_ms: o.report.modeled_total.as_secs_f64() * 1e3,
                parts: o.report.shards.len() as u64,
                table: o.table,
            })
        },
        // Replayed at the shard count the chooser just picked.
        |tr, answer| {
            let replay = ShardedSelfJoin::titan_x(DEVICES).with_shards(answer.parts as usize);
            layers::decomposed_shard(tr, &replay, &data, eps)
        },
    )
}
