//! Property and integration tests of the sharded multi-device engine:
//! the halo-ownership invariant must make the merged result pair-for-pair
//! identical to the single-device join, for any dataset, ε, shard count
//! and pool size.

use gpu_self_join::prelude::*;
use gpu_self_join::shard::partition;
use proptest::prelude::*;

/// Random dataset: dimension 1..=4, mixed uniform/clustered, with an ε
/// spanning sparse to dense neighbourhoods.
fn workload_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (
        1usize..=4,
        30usize..250,
        1u64..10_000,
        0.02f64..0.25,
        0usize..3,
    )
        .prop_map(|(dim, n, seed, eps_frac, family)| {
            let data = match family {
                0 => uniform(dim, n, seed),
                1 => clustered(dim, n, 3, 5.0, 0.2, seed),
                _ => clustered(dim, n, 2, 1.0, 0.05, seed),
            };
            let eps = (100.0 * eps_frac).max(2.0);
            (data, eps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The satellite property: for random datasets, ε, shard counts 1–4,
    /// both hot paths and UNICOMP on or off, the sharded neighbour table
    /// equals the single-device table pair-for-pair (NeighborTable
    /// construction canonically sorts both sides, so equality is exact
    /// pair equality — a pair emitted by two shards would break it).
    #[test]
    fn sharded_equals_single_device(
        (data, eps) in workload_strategy(),
        shards in 1usize..=4,
        devices in 1usize..=3,
        per_thread in 0u8..2,
        unicomp in 0u8..2,
    ) {
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        let join = SelfJoinConfig {
            hot_path: if per_thread == 1 { HotPath::PerThread } else { HotPath::CellMajor },
            unicomp: unicomp == 1,
            ..SelfJoinConfig::default()
        };
        let sharded = ShardedSelfJoin::titan_x(devices)
            .with_shards(shards)
            .with_join_config(join)
            .run(&data, eps)
            .unwrap();
        prop_assert_eq!(&sharded.table, &single.table);
        prop_assert_eq!(
            sharded.report.shards.iter().map(|s| s.owned).sum::<usize>(),
            data.len()
        );
    }

    /// kd-partition invariants, over random dimensions 2–6 and shard
    /// counts 1–16:
    ///
    /// 1. the shard boxes tile the domain — every point is *owned* by
    ///    exactly one shard's box (pairwise-disjoint ownership regions
    ///    and exhaustive coverage in one check);
    /// 2. each shard's owned prefix is exactly the set of points its box
    ///    owns;
    /// 3. ghost bands are ε-correct — for every pair within ε, the owner
    ///    shard of each endpoint carries the other endpoint (owned or
    ///    ghost), so no cross-box neighbour is ever lost.
    #[test]
    fn kd_partition_invariants(
        dim in 2usize..=6,
        n in 20usize..120,
        seed in 1u64..10_000,
        family in 0usize..3,
        eps in 2.0f64..30.0,
        shards in 1usize..=16,
    ) {
        let data = match family {
            0 => uniform(dim, n, seed),
            1 => clustered(dim, n, 3, 5.0, 0.2, seed),
            _ => clustered(dim, n, 2, 1.0, 0.05, seed),
        };
        let part = partition::partition(&data, eps, shards).unwrap();

        // (1) Exclusive, exhaustive box ownership.
        let mut owner = vec![usize::MAX; data.len()];
        for (g, p) in data.iter().enumerate() {
            let owners: Vec<usize> = part
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.owns(p))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(owners.len(), 1, "point {} owned by {:?}", g, &owners);
            owner[g] = owners[0];
        }

        // (2) Owned prefixes match box membership.
        for (i, s) in part.shards.iter().enumerate() {
            let mut from_box: Vec<u32> = (0..data.len() as u32)
                .filter(|&g| owner[g as usize] == i)
                .collect();
            from_box.sort_unstable();
            let mut prefix: Vec<u32> = s.global_ids[..s.owned].to_vec();
            prefix.sort_unstable();
            prop_assert_eq!(prefix, from_box, "shard {} owned prefix", i);
        }

        // (3) ε-halo completeness: the owner of either endpoint of a
        // close pair carries both endpoints.
        let present: Vec<std::collections::HashSet<u32>> = part
            .shards
            .iter()
            .map(|s| s.global_ids.iter().copied().collect())
            .collect();
        for a in 0..data.len() {
            for b in (a + 1)..data.len() {
                let d2: f64 = data
                    .point(a)
                    .iter()
                    .zip(data.point(b))
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                if d2 <= eps * eps {
                    prop_assert!(
                        present[owner[a]].contains(&(b as u32)),
                        "pair ({a},{b}) within eps but {b} absent from {a}'s shard"
                    );
                    prop_assert!(
                        present[owner[b]].contains(&(a as u32)),
                        "pair ({a},{b}) within eps but {a} absent from {b}'s shard"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The parallel-prelude property: fanning the kd recursion across
    /// host lanes is a *charging* change, never a *structural* one. For
    /// random datasets over dimensions 2–6 and shard counts 1–32, the
    /// lane-parallel partition must equal the serial one exactly — same
    /// cut dimensions, same owned boxes, same owned prefixes, same
    /// ghost sets, same local point order — for any lane count.
    #[test]
    fn parallel_partition_equals_serial(
        dim in 2usize..=6,
        n in 20usize..160,
        seed in 1u64..10_000,
        family in 0usize..3,
        eps in 2.0f64..30.0,
        (shards, lanes) in (1usize..=32, 2usize..=8),
    ) {
        let data = match family {
            0 => uniform(dim, n, seed),
            1 => clustered(dim, n, 3, 5.0, 0.2, seed),
            _ => clustered(dim, n, 2, 1.0, 0.05, seed),
        };
        let serial = partition::partition(&data, eps, shards).unwrap();
        let par = partition::partition_par(&data, eps, shards, lanes).unwrap();
        prop_assert_eq!(&par.cut_dims, &serial.cut_dims);
        prop_assert_eq!(par.shards.len(), serial.shards.len());
        for (a, b) in par.shards.iter().zip(&serial.shards) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.lo, &b.lo, "shard {} lower bounds", a.id);
            prop_assert_eq!(&a.hi, &b.hi, "shard {} upper bounds", a.id);
            prop_assert_eq!(a.owned, b.owned, "shard {} owned count", a.id);
            prop_assert_eq!(
                &a.global_ids, &b.global_ids,
                "shard {} local id order", a.id
            );
        }
    }

    /// The fused-prelude property: building the cost model from the
    /// partitioner's shared sample pass must agree with the standalone
    /// two-pass calibration whenever both see every point (n below the
    /// sampling caps) — same sample, same neighbor/candidate counts,
    /// same grid-cell census — for any lane count. Timing-derived rates
    /// are excluded: they measure different walls by design.
    #[test]
    fn fused_calibration_matches_two_pass_calibration(
        dim in 1usize..=4,
        n in 30usize..250,
        seed in 1u64..10_000,
        eps in 2.0f64..20.0,
        lanes in 1usize..=8,
    ) {
        use gpu_self_join::shard::cost::{calibrate, calibrate_from_sample};
        let data = uniform(dim, n, seed);
        let spec = DeviceSpec::titan_x_pascal();
        let two_pass = calibrate(&data, eps, &spec).unwrap();
        let sp = partition::sample_pass(&data, lanes).unwrap();
        let fused = calibrate_from_sample(&sp, eps, &spec).unwrap();
        prop_assert_eq!(fused.len, two_pass.len);
        prop_assert_eq!(&fused.sample_ids, &two_pass.sample_ids);
        prop_assert_eq!(&fused.sample_neighbors, &two_pass.sample_neighbors);
        prop_assert_eq!(&fused.sample_candidates, &two_pass.sample_candidates);
        prop_assert_eq!(fused.non_empty_cells, two_pass.non_empty_cells);
        prop_assert_eq!(fused.avg_neighbors, two_pass.avg_neighbors);
        prop_assert_eq!(fused.avg_candidates, two_pass.avg_candidates);
    }

    /// The staged API composes to the one-shot entry point: sample pass →
    /// cut build → materialize yields the same partition `partition_par`
    /// returns, and the sample pass itself is lane-invariant.
    #[test]
    fn staged_prelude_composes(
        dim in 2usize..=4,
        n in 20usize..120,
        seed in 1u64..10_000,
        eps in 2.0f64..20.0,
        shards in 1usize..=8,
        lanes in 1usize..=4,
    ) {
        let data = uniform(dim, n, seed);
        let sp = partition::sample_pass(&data, lanes).unwrap();
        let sp1 = partition::sample_pass(&data, 1).unwrap();
        prop_assert_eq!(&sp.ids, &sp1.ids, "sample set depends on lane count");
        let cuts = partition::build_cuts(&sp, eps, shards, lanes).unwrap();
        let staged = partition::materialize(&data, &cuts, lanes).unwrap();
        let oneshot = partition::partition_par(&data, eps, shards, lanes).unwrap();
        prop_assert_eq!(staged.shards.len(), oneshot.shards.len());
        prop_assert_eq!(cuts.num_leaves(), oneshot.shards.len());
        for (a, b) in staged.shards.iter().zip(&oneshot.shards) {
            prop_assert_eq!(&a.global_ids, &b.global_ids, "shard {}", a.id);
            prop_assert_eq!(a.owned, b.owned);
        }
        // The cut tree's point→leaf assignment agrees with box ownership.
        for p in data.iter() {
            let leaf = cuts.leaf_of(p);
            prop_assert!(staged.shards[leaf].owns(p));
        }
    }
}

/// Pin: the merge is one grouping of the concatenated shard results, with
/// no dedup — the kernels' ownership windows must emit every directed
/// pair exactly once even at aggressive shard counts, on uniform and
/// skewed data alike, on both hot paths.
#[test]
fn fused_path_merges_without_duplicates() {
    for (data, eps) in [
        (uniform(2, 4000, 11), 2.0),
        (clustered(3, 3000, 4, 2.0, 0.1, 12), 6.0),
    ] {
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        for hot_path in [HotPath::CellMajor, HotPath::PerThread] {
            let out = ShardedSelfJoin::titan_x(4)
                .with_shards(8)
                .with_hot_path(hot_path)
                .run(&data, eps)
                .unwrap();
            assert!(out.report.shards.len() > 1, "want a multi-shard run");
            assert_eq!(out.table, single.table, "{hot_path:?}");
        }
    }
}

#[test]
fn sharded_matches_on_table_one_surrogates() {
    use gpu_self_join::datasets::{sdss, sw};
    let cases: Vec<(Dataset, f64)> = vec![
        (sdss::sdss2d(3000, 10), 1.2),
        (sw::sw2d(3000, 8), 2.0),
        (sw::sw3d(2000, 9), 6.0),
    ];
    for (i, (data, eps)) in cases.into_iter().enumerate() {
        let single = GpuSelfJoin::default_device().run(&data, eps).unwrap();
        let sharded = ShardedSelfJoin::titan_x(2 + i).run(&data, eps).unwrap();
        assert_eq!(sharded.table, single.table, "case {i}");
    }
}

#[test]
fn cost_scheduler_balances_skewed_clusters() {
    // Two dense clusters and a sparse background: equal-count shards have
    // very unequal pair counts, so a count-based assignment would load one
    // device far above the other. The cost-based LPT keeps the modeled
    // busy times within a reasonable band.
    let data = clustered(2, 20_000, 2, 1.0, 0.1, 77);
    let out = ShardedSelfJoin::titan_x(2).run(&data, 0.5).unwrap();
    let busy: Vec<f64> = out
        .report
        .devices
        .iter()
        .map(|t| t.busy.as_secs_f64())
        .collect();
    let (hi, lo) = (busy[0].max(busy[1]), busy[0].min(busy[1]));
    assert!(lo > 0.0, "one device sat idle: {busy:?}");
    assert!(
        hi / lo < 3.0,
        "cost-based schedule badly imbalanced: {busy:?}"
    );
    // And the predicted loads the scheduler balanced were indeed skewed
    // relative to the owned-point counts.
    assert_eq!(out.report.predicted_load.len(), 2);
}

#[test]
fn facade_exposes_sharded_engine() {
    use gpu_self_join::{DevicePool, ShardedConfig, ShardedSelfJoin};
    let pool = DevicePool::titan_x(2);
    let engine = ShardedSelfJoin::new(pool).with_config(ShardedConfig::default());
    let data = uniform(2, 1000, 5);
    let out = engine.run(&data, 3.0).unwrap();
    assert!(out.table.is_symmetric());
    assert!(out.table.is_irreflexive());
}
