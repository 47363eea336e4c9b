//! Multi-device scaling: shard a skewed workload across a pool of
//! simulated GPUs and compare against a single device.
//!
//! ```sh
//! cargo run --release --example multi_device
//! ```

use gpu_self_join::prelude::*;

fn main() {
    // A skewed 2-D workload: dense clusters over a sparse background —
    // the regime where scheduling shards by *predicted cost* (not point
    // count) is what keeps the devices balanced.
    let data = clustered(2, 40_000, 6, 2.0, 0.15, 7);
    let epsilon = 0.6;

    let single = GpuSelfJoin::default_device()
        .run(&data, epsilon)
        .expect("single-device join failed");
    println!("single device : modeled {:?}", single.report.modeled_total);

    for devices in [2usize, 4, 8] {
        let engine = ShardedSelfJoin::titan_x(devices);
        let out = engine.run(&data, epsilon).expect("sharded join failed");
        let r = &out.report;

        // The sharded result is pair-for-pair identical to the
        // single-device one — the halo-ownership invariant at work.
        assert_eq!(out.table, single.table);

        println!(
            "{devices} devices     : modeled {:?} ({:.2}x), {} shards, {} ghosts ({:.1}%)",
            r.modeled_total,
            single.report.modeled_total.as_secs_f64() / r.modeled_total.as_secs_f64(),
            r.shards.len(),
            r.ghost_points,
            100.0 * r.ghost_points as f64 / data.len() as f64
        );
        for (d, tally) in r.devices.iter().enumerate() {
            println!(
                "  device {d}: {} shards, {} launches, busy {:?}",
                tally.items, tally.launches, tally.busy
            );
        }
    }

    println!(
        "\npairs: {} (avg {:.2} neighbors/point) — identical on every pool size",
        single.table.total_pairs(),
        single.table.avg_neighbors()
    );
}
