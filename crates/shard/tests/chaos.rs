//! Chaos property test: random seeded fault storms against the sharded
//! engine must never change the answer.
//!
//! For every generated `(devices, shards, storm seed)` the engine runs
//! under an IPPP fault storm (crashes, transients, stragglers) and the
//! result must be pair-for-pair identical to the fault-free single-device
//! join — crashes fail shards over to survivors, transients re-execute,
//! stragglers only stretch the modeled clock. A run may instead surface a
//! clean `SelfJoinError::Fault` (e.g. the storm exhausts the bounded
//! retry budget on a single-device pool), but it must never return a
//! wrong, partial, or duplicated table.

use grid_join::GpuSelfJoin;
use proptest::prelude::*;
use sim_gpu::{FaultPlan, StormConfig};
use sj_datasets::synthetic::uniform;
use sj_shard::ShardedSelfJoin;

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn prop_storms_never_change_the_answer(
        ndev in 1usize..=4,
        shards in 1usize..=16,
        storm_seed in 0u64..10_000,
    ) {
        let data = uniform(2, 600, 7 + storm_seed % 5);
        let eps = 4.0;
        let reference = GpuSelfJoin::default_device().run(&data, eps).unwrap();

        let plan = FaultPlan::storm(&StormConfig {
            seed: storm_seed,
            devices: ndev,
            horizon_ops: 48,
            // Dense enough that most cases actually inject something.
            peak_rate: 0.25,
            max_crash_devices: ndev.saturating_sub(1),
            ..StormConfig::default()
        });
        let engine = ShardedSelfJoin::titan_x(ndev).with_shards(shards);
        engine.pool().inject_faults(&plan);
        match engine.run(&data, eps) {
            Ok(out) => {
                prop_assert_eq!(&out.table, &reference.table);
                prop_assert_eq!(
                    out.report.shards.iter().map(|s| s.owned).sum::<usize>(),
                    data.len()
                );
            }
            // Acceptable degraded outcome: a clean fault error once the
            // bounded retry budget is spent — never a wrong table.
            Err(e) => prop_assert!(e.is_fault(), "non-fault error under storm: {}", e),
        }
    }
}
