//! Every neighbour-table build is traced: a `table.materialize` span,
//! labelled with the number of pairs it grouped, under the operation
//! that built the table — one-shot join, join on a prebuilt grid,
//! session query and sharded merge.
//!
//! Lives in an integration test (own process) so the global trace
//! buffers see only this test's spans.

use gpu_self_join::prelude::*;
use sj_obs::{LabelValue, SpanRecord};
use std::collections::HashMap;

fn pairs_label(r: &SpanRecord) -> u64 {
    match r.labels.iter().find(|(k, _)| *k == "pairs") {
        Some((_, LabelValue::U64(v))) => *v,
        other => panic!("table.materialize without a pairs count: {other:?}"),
    }
}

#[test]
fn every_table_build_is_a_materialize_span() {
    let data = uniform(2, 3_000, 11);
    let eps = 0.8;
    let join = GpuSelfJoin::default_device();
    let grid = GridIndex::build(&data, eps).unwrap();
    let session = SelfJoinSession::new(data.clone(), DevicePool::titan_x(1));

    sj_obs::set_enabled(true);
    let _ = sj_obs::drain();
    let one_shot = join.run(&data, eps).unwrap();
    let on_grid = join.run_on_grid(&data, &grid).unwrap();
    let served = session.query(eps).unwrap();
    let sharded = ShardedSelfJoin::titan_x(2).run(&data, eps).unwrap();
    sj_obs::set_enabled(false);
    let records = sj_obs::drain();
    sj_obs::validate(&records).expect("well-formed trace");

    let pairs = one_shot.table.total_pairs() as u64;
    assert!(pairs > 0, "the workload must produce pairs");
    assert_eq!(on_grid.table, one_shot.table);
    assert_eq!(served.table, one_shot.table);
    assert_eq!(sharded.table, one_shot.table);

    let names: HashMap<u64, &str> = records.iter().map(|r| (r.id, r.name)).collect();
    let builds: Vec<(&str, u64)> = records
        .iter()
        .filter(|r| r.name == "table.materialize")
        .map(|r| {
            let parent = names.get(&r.parent).copied().unwrap_or("root");
            (parent, pairs_label(r))
        })
        .collect();
    // `run` and `run_on_grid` build their tables outside any span.
    assert!(
        builds.iter().filter(|b| **b == ("root", pairs)).count() >= 2,
        "one-shot builds: {builds:?}"
    );
    assert!(
        builds.contains(&("session.query", pairs)),
        "session build: {builds:?}"
    );
    assert!(
        builds.contains(&("shard.run", pairs)),
        "shard merge: {builds:?}"
    );
}
