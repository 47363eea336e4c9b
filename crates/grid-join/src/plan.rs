//! The join-plan IR and its executor — one description of the paper's
//! pipeline for every join path.
//!
//! Every entry point in this workspace runs the same five conceptual
//! stages: obtain an ε-grid index, materialize a device snapshot, estimate
//! the result size, execute the batched kernels, and remap the pair
//! stream's ids. Before this module existed each entry point hardwired
//! its own copy of that pipeline; now they all *build* a [`JoinPlan`] and
//! hand it to [`execute`]:
//!
//! * [`crate::GpuSelfJoin`] — `Build`/`Prebuilt` index, device backend.
//! * [`crate::host_self_join`] / [`crate::host_self_join_parallel`] —
//!   `Prebuilt` index, host backend (no device stages).
//! * `sj-shard`'s `ShardedSelfJoin` — a plan *rewrite*: the partition pass
//!   turns one logical join into per-shard subplans (`Prebuilt` index,
//!   `Precomputed` estimate, an [`ExecOptions::ownership`] window so the
//!   kernels drop ghost-keyed pairs at emit time, shard-local → global id
//!   remap), executed on the scheduled device and merged by one grouping
//!   of the concatenated pairs. Both hot paths honour the ownership
//!   window, and the windows of different shards are disjoint, so every
//!   directed pair is emitted exactly once.
//! * [`crate::SelfJoinSession`] — `Resident` index: the session pins the
//!   dataset, caches the built [`GridIndex`] plus per-device
//!   [`DeviceGrid`] snapshots (and the hoisted [`CellMajorPlan`]), and
//!   issues plans whose query ε′ may *undershoot* the built cell width.
//!
//! ## Stage semantics
//!
//! **Index** ([`IndexStage`]): build fresh, borrow a prebuilt index, or
//! reuse a resident index + snapshot. A resident index built at ε_built
//! may serve any query radius ε′ ≤ ε_built — the one-cell adjacent shell
//! covers every radius up to the cell width, so only the distance
//! threshold changes ([`ExecOptions::query_epsilon`]). The executor
//! rejects ε′ > ε_built with [`SelfJoinError::EpsilonExceedsIndex`].
//!
//! **Estimate** ([`EstimateStage`]): run the sampling kernel, or inject a
//! prediction computed elsewhere (the shard engine estimates every shard
//! up front for its cost-based scheduler and passes the number through).
//!
//! **Execution** ([`Backend`]): a specific device, the host (sequential or
//! rayon-parallel — no device stages at all), or a [`DevicePool`], which
//! leases the least-loaded device for the duration of the run.
//!
//! **Post** ([`JoinPlan::remap`]): optional id remap (shard-local →
//! global ids) of the pair stream the ownership window already trimmed.

use crate::batching::{run_batched_on, BatchReport, BatchingConfig, ExecOptions};
use crate::cell_major::CellMajorPlan;
use crate::device_grid::DeviceGrid;
use crate::error::SelfJoinError;
use crate::grid::GridIndex;
use crate::host_join;
use crate::kernels::kernel_registers;
use crate::result::{remap_pairs, Ownership, Pair};
use sim_gpu::occupancy::KernelResources;
use sim_gpu::{occupancy, Device, DevicePool, LaunchConfig, OccupancyResult};
use sj_datasets::Dataset;
use std::time::{Duration, Instant};

/// How a plan obtains its ε-grid index.
#[derive(Clone, Copy, Debug)]
pub enum IndexStage<'a> {
    /// Build the index from the dataset at query time; its cost lands in
    /// [`JoinReport::grid_build`].
    Build {
        /// Cell width / search radius ε.
        epsilon: f64,
    },
    /// Borrow an index the caller already built (ε comes from the grid;
    /// `grid_build` is reported as zero — the build happened outside).
    Prebuilt(&'a GridIndex),
    /// Reuse an index *and* its device snapshot that are resident from an
    /// earlier query (session layer). The executor skips the upload and —
    /// when a hoisted plan is supplied — the cell-major hoisting pass;
    /// whoever established residency charged those one-time costs.
    ///
    /// Must execute on the device holding `snapshot` (sessions lease the
    /// device themselves and use [`Backend::Device`]).
    Resident {
        /// The resident host index (`snapshot` mirrors it).
        grid: &'a GridIndex,
        /// The device-resident snapshot of `grid`.
        snapshot: &'a DeviceGrid,
        /// The hoisted per-cell neighbor table cached with the snapshot
        /// (cell-major hot path; `None` forces a rebuild of the hoist).
        hoist: Option<&'a CellMajorPlan>,
    },
}

/// How a plan obtains its result-size estimate.
#[derive(Clone, Copy, Debug, Default)]
pub enum EstimateStage {
    /// Run the sampling count kernel (paper §V-A).
    #[default]
    Sample,
    /// Use a prediction computed elsewhere (directed pairs, safety factor
    /// included); the estimation kernel is skipped.
    Precomputed(u64),
}

/// One self-join described as data: which index, which estimate, which
/// kernels, which id remap. Built by every public entry point and
/// run by [`execute`] — the single owner of the pipeline's control flow.
#[derive(Clone, Copy, Debug)]
pub struct JoinPlan<'a> {
    /// The dataset being joined (the index must describe exactly it).
    pub data: &'a Dataset,
    /// Index acquisition.
    pub index: IndexStage<'a>,
    /// Result-size estimation.
    pub estimate: EstimateStage,
    /// Kernel-level options (hot path, UNICOMP, query ε′). The executor
    /// owns [`ExecOptions::resident`] — it is derived from the index
    /// stage, not from what the builder set.
    pub exec: ExecOptions,
    /// Kernel launch geometry.
    pub launch: LaunchConfig,
    /// Batching-scheme tunables (§V-A).
    pub batching: BatchingConfig,
    /// Post stage: rewrite both pair ids through this map (shard-local →
    /// global).
    pub remap: Option<&'a [u32]>,
}

impl<'a> JoinPlan<'a> {
    /// A default-configured plan that builds its index at `epsilon`.
    pub fn build_index(data: &'a Dataset, epsilon: f64) -> Self {
        Self {
            data,
            index: IndexStage::Build { epsilon },
            estimate: EstimateStage::Sample,
            exec: ExecOptions::default(),
            launch: LaunchConfig::default(),
            batching: BatchingConfig::default(),
            remap: None,
        }
    }

    /// A default-configured plan over a prebuilt index.
    pub fn on_grid(data: &'a Dataset, grid: &'a GridIndex) -> Self {
        Self {
            index: IndexStage::Prebuilt(grid),
            ..Self::build_index(data, grid.epsilon())
        }
    }

    /// Restricts execution to the owned *prefix* `[0, owned)` (shard
    /// scoping): the kernels drop non-owned-keyed pairs at emit time (one
    /// comparison before the `AppendBuffer` reservation), so ghost-keyed
    /// pairs are never materialized, and the host backend scans only the
    /// owned queries.
    ///
    /// # Panics
    ///
    /// Panics if `owned` does not fit a `u32` point id; [`execute`] panics
    /// if it exceeds the dataset size.
    pub fn owned_prefix(mut self, owned: usize) -> Self {
        self.exec.ownership = Some(Ownership::prefix(owned));
        self
    }

    /// Remaps result ids through `map` in the post stage.
    pub fn remapped(mut self, map: &'a [u32]) -> Self {
        self.remap = Some(map);
        self
    }

    /// Injects an externally computed result-size estimate.
    pub fn estimated(mut self, pairs: u64) -> Self {
        self.estimate = EstimateStage::Precomputed(pairs);
        self
    }

    /// Sets the query radius ε′ (resident-index reuse; ε′ ≤ ε_built).
    pub fn query_epsilon(mut self, epsilon: f64) -> Self {
        self.exec.query_epsilon = Some(epsilon);
        self
    }
}

/// Where a plan executes.
#[derive(Clone, Copy, Debug)]
pub enum Backend<'a> {
    /// A specific device.
    Device(&'a Device),
    /// The host CPU — no device stages run at all (no upload, estimate or
    /// batching; the report's device fields are zero).
    Host {
        /// Scan query chunks with rayon instead of sequentially.
        parallel: bool,
    },
    /// A device pool: the executor leases the least-loaded device for the
    /// duration of the run, so concurrent plans interleave across devices.
    Pool(&'a DevicePool),
}

/// Timing/shape report of one executed plan.
#[derive(Clone, Debug)]
pub struct JoinReport {
    /// Host-side grid construction time (zero for prebuilt/resident).
    pub grid_build: Duration,
    /// Wall time of the execution stage: the device pipeline (estimate +
    /// kernels + drains) or the host scan.
    pub device_pipeline: Duration,
    /// End-to-end wall time of the plan (index + execution + post).
    pub total: Duration,
    /// Modeled response time on the simulated device: host grid build +
    /// modeled estimation kernel + the pipelined (3-stream) timeline of
    /// uploads, modeled kernels and result downloads. This is the number
    /// the evaluation harness reports for GPU-SJ (see `DeviceSpec::
    /// throughput_vs_host_core` for the model constant). Host-backend
    /// plans report their real wall time here — the host *is* the device.
    pub modeled_total: Duration,
    /// Non-empty cell count `|B|`.
    pub non_empty_cells: usize,
    /// Host-side index footprint in bytes.
    pub index_bytes: usize,
    /// Theoretical occupancy of the join kernel used (all-zero with
    /// `limiter: "host"` for host-backend plans).
    pub occupancy: OccupancyResult,
    /// Batching execution details (all-zero for host-backend plans).
    pub batching: BatchReport,
}

/// Output of one executed plan: the raw (post-processed) pair stream plus
/// the report. Callers build whatever result shape they need from it —
/// [`crate::NeighborTable`] for the public joins, a merge stream for the
/// shard engine.
#[derive(Clone, Debug)]
pub struct PlanOutput {
    /// Directed result pairs after the post stage.
    pub pairs: Vec<Pair>,
    /// Timings and counters.
    pub report: JoinReport,
}

/// Runs a [`JoinPlan`] on a backend. The single owner of the pipeline's
/// control flow: index acquisition → (device) snapshot → estimate →
/// batched kernels → post stage.
///
/// # Panics
///
/// Panics if the [`ExecOptions::ownership`] window exceeds the dataset
/// size (the shard contract passes an owned *prefix*).
pub fn execute(plan: &JoinPlan<'_>, backend: Backend<'_>) -> Result<PlanOutput, SelfJoinError> {
    let t0 = Instant::now();
    let mut span = sj_obs::Span::enter("plan.execute");
    // Where this plan starts on the modeled clock (the worker seeded the
    // thread's cursor); the span is finalized with the *pipelined*
    // modeled total, snapping the cursor back from the serialized layout
    // the child device stages produce.
    let modeled_start = if span.id() != 0 {
        let c = sj_obs::trace::modeled_cursor();
        if c.is_nan() {
            0.0
        } else {
            c
        }
    } else {
        0.0
    };
    span.label("n", plan.data.len());

    // Index stage.
    let built;
    let (grid, grid_build): (&GridIndex, Duration) = match &plan.index {
        IndexStage::Build { epsilon } => {
            let tb = Instant::now();
            let mut ispan = sj_obs::Span::enter("plan.index");
            built = GridIndex::build(plan.data, *epsilon)?;
            ispan.label("cells", built.non_empty_cells());
            drop(ispan);
            (&built, tb.elapsed())
        }
        IndexStage::Prebuilt(grid) => (*grid, Duration::ZERO),
        IndexStage::Resident { grid, .. } => (*grid, Duration::ZERO),
    };
    debug_assert_eq!(grid.a().len(), plan.data.len(), "grid/data mismatch");

    // Ownership-window validation: the window addresses dataset ids.
    if let Some(o) = plan.exec.ownership {
        assert!(
            o.hi as usize <= plan.data.len(),
            "ownership window [0, {}) exceeds dataset size {}",
            o.hi,
            plan.data.len()
        );
    }

    // ε′ validation: a reused index can only *shrink* the query radius.
    if let Some(eps) = plan.exec.query_epsilon {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(SelfJoinError::Grid(
                crate::error::GridBuildError::InvalidEpsilon(eps),
            ));
        }
        if eps > grid.epsilon() {
            return Err(SelfJoinError::EpsilonExceedsIndex {
                query: eps,
                built: grid.epsilon(),
            });
        }
    }

    // Execution stage.
    let (mut pairs, mut report) = match backend {
        Backend::Host { parallel } => run_host(plan, grid, grid_build, parallel),
        Backend::Device(device) => run_device(plan, device, grid, grid_build)?,
        Backend::Pool(pool) => {
            let lease = pool.lease();
            run_device(plan, lease.device(), grid, grid_build)?
        }
    };

    // Post stage: shard-local → global id remap.
    let mut pspan = sj_obs::Span::enter("plan.post");
    if let Some(map) = plan.remap {
        remap_pairs(&mut pairs, map);
        pspan.label("remapped", 1u64);
    }
    drop(pspan);

    report.total = t0.elapsed();
    span.label("pairs", pairs.len());
    span.set_modeled(modeled_start, report.modeled_total.as_secs_f64());
    Ok(PlanOutput { pairs, report })
}

/// Device pipeline: snapshot (upload or resident) → batched kernels →
/// report assembly.
fn run_device(
    plan: &JoinPlan<'_>,
    device: &Device,
    grid: &GridIndex,
    grid_build: Duration,
) -> Result<(Vec<Pair>, JoinReport), SelfJoinError> {
    let uploaded;
    let (dg, hoist, resident): (&DeviceGrid, Option<&CellMajorPlan>, bool) = match &plan.index {
        IndexStage::Resident {
            snapshot, hoist, ..
        } => (*snapshot, *hoist, true),
        _ => {
            let mut uspan = sj_obs::Span::enter("gpu.upload");
            device.fault_check(sim_gpu::FaultOp::Upload)?;
            uploaded = DeviceGrid::upload(device, plan.data, grid)?;
            if uspan.id() != 0 {
                let bytes = uploaded.h2d_bytes();
                uspan.label("bytes", bytes);
                uspan.set_modeled_dur(device.spec().transfer_model().time(bytes).as_secs_f64());
            }
            (&uploaded, None, false)
        }
    };

    let mut opts = plan.exec;
    opts.resident = resident;
    let mut batching = plan.batching;
    if let EstimateStage::Precomputed(pairs) = plan.estimate {
        batching.precomputed_estimate = Some(pairs);
    }

    let t1 = Instant::now();
    let (pairs, breport) = run_batched_on(device, dg, plan.launch, opts, &batching, hoist)?;
    let device_pipeline = t1.elapsed();

    let occupancy = occupancy(
        device.spec(),
        KernelResources {
            registers_per_thread: kernel_registers(grid.dim().max(1), opts.unicomp),
            shared_mem_per_block: 0,
        },
        plan.launch.block_threads,
    );
    // An open straggler window inflates the modeled device time — the
    // answer is exact, the device is just slow. Host-side grid build is
    // unaffected.
    let slowdown = device.slowdown();
    let device_modeled = breport.modeled_estimate_time + breport.timeline.total;
    let modeled_total = grid_build + device_modeled.mul_f64(slowdown);
    let report = JoinReport {
        grid_build,
        device_pipeline,
        total: Duration::ZERO, // finalized by `execute`
        modeled_total,
        non_empty_cells: grid.non_empty_cells(),
        index_bytes: grid.size_bytes(),
        occupancy,
        batching: breport,
    };
    Ok((pairs, report))
}

/// Host pipeline: the shared adjacent-cell scan, sequential or parallel.
fn run_host(
    plan: &JoinPlan<'_>,
    grid: &GridIndex,
    grid_build: Duration,
    parallel: bool,
) -> (Vec<Pair>, JoinReport) {
    let eps = plan.exec.query_epsilon.unwrap_or(grid.epsilon());
    // The host scan emits query-keyed pairs only, so an ownership window
    // restricts which queries are scanned — same emit-time semantics as
    // the device kernels, with the work skipped rather than filtered.
    let queries = plan
        .exec
        .ownership
        .map_or(plan.data.len(), |o| o.hi as usize);
    let t1 = Instant::now();
    let pairs = if parallel {
        host_join::host_pairs_parallel(plan.data, grid, eps, queries)
    } else {
        host_join::host_pairs_for_range_within(plan.data, grid, eps, 0, queries)
    };
    let scan = t1.elapsed();
    let report = JoinReport {
        grid_build,
        device_pipeline: scan,
        total: Duration::ZERO, // finalized by `execute`
        modeled_total: grid_build + scan,
        non_empty_cells: grid.non_empty_cells(),
        index_bytes: grid.size_bytes(),
        occupancy: OccupancyResult {
            blocks_per_sm: 0,
            warps_per_sm: 0,
            occupancy: 0.0,
            limiter: "host",
        },
        batching: BatchReport::host(pairs.len() as u64),
    };
    (pairs, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::NeighborTable;
    use sim_gpu::DeviceSpec;
    use sj_datasets::synthetic::{clustered, uniform};

    fn table(data: &Dataset, out: &PlanOutput) -> NeighborTable {
        NeighborTable::from_pairs(data.len(), &out.pairs)
    }

    #[test]
    fn device_host_and_pool_backends_agree() {
        let data = uniform(3, 900, 91);
        let eps = 6.0;
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let pool = DevicePool::titan_x(2);
        let plan = JoinPlan::build_index(&data, eps);
        let dev = execute(&plan, Backend::Device(&device)).unwrap();
        let seq = execute(&plan, Backend::Host { parallel: false }).unwrap();
        let par = execute(&plan, Backend::Host { parallel: true }).unwrap();
        let pl = execute(&plan, Backend::Pool(&pool)).unwrap();
        assert_eq!(table(&data, &dev), table(&data, &seq));
        assert_eq!(table(&data, &dev), table(&data, &par));
        assert_eq!(table(&data, &dev), table(&data, &pl));
        assert!(dev.report.batching.batches >= 3);
        assert_eq!(seq.report.batching.batches, 0);
        assert_eq!(seq.report.occupancy.limiter, "host");
        assert!(dev.report.grid_build > Duration::ZERO);
        // The pool released its lease after the run.
        assert_eq!(pool.active_leases(), vec![0, 0]);
    }

    #[test]
    fn prebuilt_index_reports_zero_build() {
        let data = uniform(2, 600, 92);
        let grid = GridIndex::build(&data, 3.0).unwrap();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let out = execute(&JoinPlan::on_grid(&data, &grid), Backend::Device(&device)).unwrap();
        assert_eq!(out.report.grid_build, Duration::ZERO);
        let fresh = execute(&JoinPlan::build_index(&data, 3.0), Backend::Device(&device)).unwrap();
        assert_eq!(table(&data, &out), table(&data, &fresh));
    }

    #[test]
    fn query_epsilon_shrinks_the_radius_on_every_backend() {
        let data = clustered(2, 800, 4, 1.0, 0.1, 93);
        let built = 2.0;
        let eps_q = 1.1;
        let grid = GridIndex::build(&data, built).unwrap();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let reused = JoinPlan::on_grid(&data, &grid).query_epsilon(eps_q);
        let dev = execute(&reused, Backend::Device(&device)).unwrap();
        let host = execute(&reused, Backend::Host { parallel: true }).unwrap();
        let fresh = execute(
            &JoinPlan::build_index(&data, eps_q),
            Backend::Device(&device),
        )
        .unwrap();
        assert_eq!(table(&data, &dev), table(&data, &fresh));
        assert_eq!(table(&data, &host), table(&data, &fresh));
    }

    #[test]
    fn oversized_query_epsilon_is_rejected() {
        let data = uniform(2, 200, 94);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::on_grid(&data, &grid).query_epsilon(1.5);
        let err = execute(&plan, Backend::Device(&device)).unwrap_err();
        assert!(matches!(err, SelfJoinError::EpsilonExceedsIndex { .. }));
        let err = execute(&plan, Backend::Host { parallel: false }).unwrap_err();
        assert!(matches!(err, SelfJoinError::EpsilonExceedsIndex { .. }));
    }

    #[test]
    fn invalid_query_epsilon_is_rejected() {
        let data = uniform(2, 100, 95);
        let grid = GridIndex::build(&data, 1.0).unwrap();
        let plan = JoinPlan::on_grid(&data, &grid).query_epsilon(-0.5);
        let err = execute(&plan, Backend::Host { parallel: false }).unwrap_err();
        assert!(matches!(err, SelfJoinError::Grid(_)));
    }

    /// The post-pass oracle: the unwindowed join's pairs whose key lies in
    /// the owned prefix, optionally remapped, sorted.
    fn owned_oracle(full: &PlanOutput, owned: usize, map: Option<&[u32]>) -> Vec<Pair> {
        let mut expected: Vec<Pair> = full
            .pairs
            .iter()
            .filter(|p| (p.key as usize) < owned)
            .copied()
            .collect();
        if let Some(map) = map {
            remap_pairs(&mut expected, map);
        }
        expected.sort_unstable();
        expected
    }

    #[test]
    fn scope_and_remap_post_stages_apply_in_order() {
        // The window selects owned keys in local ids, then the remap
        // rewrites them: keys land in the remapped owned range and the
        // pairs equal the filter-then-remap oracle.
        let data = uniform(2, 400, 96);
        let eps = 4.0;
        let owned = 250usize;
        // Identity-with-offset remap: local id i → 1000 + i.
        let map: Vec<u32> = (0..data.len() as u32).map(|i| 1000 + i).collect();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::build_index(&data, eps);
        let full = execute(&plan, Backend::Device(&device)).unwrap();
        let windowed = plan.owned_prefix(owned).remapped(&map);
        let mut got = execute(&windowed, Backend::Device(&device)).unwrap().pairs;
        assert!(got
            .iter()
            .all(|p| (1000..1000 + owned as u32).contains(&p.key)));
        got.sort_unstable();
        let expected = owned_oracle(&full, owned, Some(&map));
        assert!(expected.len() < full.pairs.len(), "no ghost-keyed pairs");
        assert_eq!(got, expected);
    }

    #[test]
    fn ownership_fused_equals_scoped_post_pass() {
        // The emit-time window plus the remap must give exactly what a
        // post-pass filter of the unwindowed join keeps, remapped — on
        // both hot paths, with and without UNICOMP (UNICOMP may find an
        // owned key's pair from a ghost query's side).
        use crate::cell_major::HotPath;
        let data = clustered(3, 500, 3, 1.0, 0.15, 98);
        let eps = 1.5;
        let owned = 320usize;
        let map: Vec<u32> = (0..data.len() as u32).map(|i| 1000 + i).collect();
        let device = Device::new(DeviceSpec::titan_x_pascal());
        for hot_path in [HotPath::PerThread, HotPath::CellMajor] {
            for unicomp in [false, true] {
                let mut plan = JoinPlan::build_index(&data, eps);
                plan.exec.hot_path = hot_path;
                plan.exec.unicomp = unicomp;
                let full = execute(&plan, Backend::Device(&device)).unwrap();
                let windowed = plan.owned_prefix(owned).remapped(&map);
                let mut got = execute(&windowed, Backend::Device(&device)).unwrap().pairs;
                got.sort_unstable();
                let expected = owned_oracle(&full, owned, Some(&map));
                assert!(expected.len() < full.pairs.len(), "no ghost-keyed pairs");
                assert_eq!(got, expected, "hot_path={hot_path:?} unicomp={unicomp}");
            }
        }
    }

    #[test]
    fn ownership_fused_host_backend_scans_owned_prefix_only() {
        let data = uniform(2, 450, 99);
        let eps = 4.0;
        let owned = 300usize;
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let dev = execute(
            &JoinPlan::build_index(&data, eps).owned_prefix(owned),
            Backend::Device(&device),
        )
        .unwrap();
        for parallel in [false, true] {
            let host = execute(
                &JoinPlan::build_index(&data, eps).owned_prefix(owned),
                Backend::Host { parallel },
            )
            .unwrap();
            assert_eq!(
                table(&data, &host),
                table(&data, &dev),
                "parallel={parallel}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ownership window")]
    fn oversized_ownership_window_panics() {
        let data = uniform(2, 50, 100);
        let plan = JoinPlan::build_index(&data, 3.0).owned_prefix(51);
        let _ = execute(&plan, Backend::Host { parallel: false });
    }

    #[test]
    fn precomputed_estimate_skips_the_sampling_kernel() {
        let data = uniform(2, 1000, 97);
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::build_index(&data, 3.0).estimated(50_000);
        let out = execute(&plan, Backend::Device(&device)).unwrap();
        assert_eq!(out.report.batching.estimated_pairs, 50_000);
        assert_eq!(out.report.batching.estimate_time, Duration::ZERO);
    }

    #[test]
    fn empty_dataset_runs_on_all_backends() {
        let data = Dataset::new(3);
        let device = Device::new(DeviceSpec::titan_x_pascal());
        let plan = JoinPlan::build_index(&data, 1.0);
        for out in [
            execute(&plan, Backend::Device(&device)).unwrap(),
            execute(&plan, Backend::Host { parallel: false }).unwrap(),
            execute(&plan, Backend::Host { parallel: true }).unwrap(),
        ] {
            assert!(out.pairs.is_empty());
        }
    }
}
