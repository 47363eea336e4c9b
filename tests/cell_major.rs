//! Property tests for the cell-major hot path: the reordered layout ×
//! {full, UNICOMP} × dims 2–6 must produce neighbor tables identical to
//! the pre-existing per-thread kernels and to the host reference join —
//! including when driven through the sharded multi-device engine.

use gpu_self_join::join::host_join::host_self_join;
use gpu_self_join::prelude::*;
use proptest::prelude::*;

/// Random dataset across the kernels' full dimensional range, with ε
/// scaled so higher dimensions keep a non-trivial neighbor count.
fn dataset_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (2usize..=6, 20usize..160, 1u64..10_000, 0.03f64..0.25).prop_map(|(dim, n, seed, eps_frac)| {
        let data = uniform(dim, n, seed);
        let eps = (100.0 * eps_frac * dim as f64 / 2.0).max(2.0);
        (data, eps)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The load-bearing equivalence: cell-major ≡ per-thread ≡ host, for
    /// both traversal modes, on the same prebuilt index.
    #[test]
    fn cell_major_matches_per_thread_and_host((data, eps) in dataset_strategy()) {
        let grid = GridIndex::build(&data, eps).unwrap();
        let host = host_self_join(&data, &grid);
        for unicomp in [false, true] {
            let cm = GpuSelfJoin::default_device()
                .unicomp(unicomp)
                .hot_path(HotPath::CellMajor)
                .run_on_grid(&data, &grid)
                .unwrap();
            let pt = GpuSelfJoin::default_device()
                .unicomp(unicomp)
                .hot_path(HotPath::PerThread)
                .run_on_grid(&data, &grid)
                .unwrap();
            prop_assert_eq!(&cm.table, &host, "cell-major vs host, unicomp={}", unicomp);
            prop_assert_eq!(&pt.table, &host, "per-thread vs host, unicomp={}", unicomp);
        }
    }

    /// The sharded engine running the cell-major path per shard is
    /// pair-for-pair identical to the per-thread path and the host join
    /// (a pair emitted by two shards would break the equality).
    #[test]
    fn cell_major_matches_through_sharded_engine((data, eps) in dataset_strategy()) {
        let grid = GridIndex::build(&data, eps).unwrap();
        let host = host_self_join(&data, &grid);
        let cm = ShardedSelfJoin::titan_x(2)
            .with_shards(3)
            .with_hot_path(HotPath::CellMajor)
            .run(&data, eps)
            .unwrap();
        let pt = ShardedSelfJoin::titan_x(2)
            .with_shards(3)
            .with_hot_path(HotPath::PerThread)
            .run(&data, eps)
            .unwrap();
        prop_assert_eq!(&cm.table, &host);
        prop_assert_eq!(&pt.table, &host);
    }
}
