//! High-level GPU self-join API (the paper's GPU-SJ).
//!
//! This is the entry point downstream users call:
//!
//! ```
//! use grid_join::GpuSelfJoin;
//! use sj_datasets::synthetic::uniform;
//!
//! let data = uniform(2, 2_000, 7);
//! let join = GpuSelfJoin::default_device();
//! let out = join.run(&data, 2.0).unwrap();
//! println!(
//!     "{} pairs in {} batches, avg {:.1} neighbors/point",
//!     out.table.total_pairs(),
//!     out.report.batching.batches,
//!     out.table.avg_neighbors()
//! );
//! # assert!(out.table.is_symmetric());
//! ```
//!
//! The pipeline is: build the ε-grid on the host → upload → estimate the
//! result size → batched kernel execution (UNICOMP on by default, as in
//! the paper's best configuration) → group the pairs by key into the
//! neighbour table (a parallel counting sort on the host; see
//! [`crate::result`]).

use crate::batching::{BatchingConfig, ExecOptions};
use crate::cell_major::HotPath;
use crate::error::SelfJoinError;
use crate::grid::GridIndex;
use crate::plan::{execute, Backend, EstimateStage, IndexStage, JoinPlan, PostStage};
use crate::result::{NeighborTable, Pair};
use sim_gpu::{Device, DeviceSpec, LaunchConfig};
use sj_datasets::Dataset;

pub use crate::plan::JoinReport;

/// Configuration of a GPU self-join run.
#[derive(Clone, Copy, Debug)]
pub struct SelfJoinConfig {
    /// Apply the UNICOMP work-avoidance optimization (§V-B). Default on.
    pub unicomp: bool,
    /// Per-thread path only: process queries in grid-cell order (an
    /// extension beyond the paper: consecutive threads handle same-cell
    /// points, improving L1 locality and warp regularity on skewed data;
    /// results are unchanged). The cell-major path is inherently
    /// cell-ordered.
    pub cell_order_queries: bool,
    /// Which join hot path runs (see [`crate::cell_major`]). Default
    /// [`HotPath::CellMajor`]: reordered point layout, per-cell neighbor
    /// hoisting and batched result reservation — pair-for-pair identical
    /// to [`HotPath::PerThread`], measurably faster.
    pub hot_path: HotPath,
    /// Kernel launch geometry (default 256 threads/block as in §VI-B).
    pub launch: LaunchConfig,
    /// Batching-scheme tunables (§V-A).
    pub batching: BatchingConfig,
}

impl SelfJoinConfig {
    /// The kernel-level execution options this configuration describes —
    /// the one place the mapping lives; every plan builder (GPU operator,
    /// shard subplans, sessions) routes through it so the entry points
    /// cannot drift.
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            unicomp: self.unicomp,
            cell_order: self.cell_order_queries,
            hot_path: self.hot_path,
            ..ExecOptions::default()
        }
    }
}

impl Default for SelfJoinConfig {
    fn default() -> Self {
        Self {
            unicomp: true,
            cell_order_queries: false,
            hot_path: HotPath::CellMajor,
            launch: LaunchConfig::default(),
            batching: BatchingConfig::default(),
        }
    }
}

/// Output of a self-join: the neighbour table plus the execution report.
#[derive(Clone, Debug)]
pub struct SelfJoinOutput {
    /// Directed, self-excluded neighbour lists.
    pub table: NeighborTable,
    /// Timings and counters.
    pub report: JoinReport,
}

/// Output of a shard-scoped self-join (see [`GpuSelfJoin::run_scoped`]).
///
/// Pairs carry *shard-local* point ids; every key is an owned point
/// (`key < owned`). The caller remaps local ids to global ones (see
/// [`crate::result::remap_pairs`]) before merging shards.
#[derive(Clone, Debug)]
pub struct ScopedJoinOutput {
    /// Owned-keyed result pairs in shard-local ids.
    pub pairs: Vec<Pair>,
    /// Number of owned points (the scope passed in).
    pub owned: usize,
    /// Ghost-keyed pairs discarded by the ownership filter — the shards
    /// owning those ghosts produce them instead.
    pub dropped_ghost_pairs: u64,
    /// Timings and counters of the underlying device pipeline.
    pub report: JoinReport,
}

/// The GPU self-join operator (paper: GPU-SJ).
#[derive(Clone, Debug)]
pub struct GpuSelfJoin {
    device: Device,
    config: SelfJoinConfig,
}

impl GpuSelfJoin {
    /// Creates the operator on a device with default configuration
    /// (UNICOMP enabled, 256-thread blocks, ≥3 batches).
    pub fn new(device: Device) -> Self {
        Self {
            device,
            config: SelfJoinConfig::default(),
        }
    }

    /// Creates the operator on a simulated TITAN X with defaults.
    pub fn default_device() -> Self {
        Self::new(Device::new(DeviceSpec::titan_x_pascal()))
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: SelfJoinConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables or disables UNICOMP.
    pub fn unicomp(mut self, on: bool) -> Self {
        self.config.unicomp = on;
        self
    }

    /// Selects the join hot path (default [`HotPath::CellMajor`]).
    pub fn hot_path(mut self, path: HotPath) -> Self {
        self.config.hot_path = path;
        self
    }

    /// The device handle.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The active configuration.
    pub fn config(&self) -> &SelfJoinConfig {
        &self.config
    }

    /// The [`JoinPlan`] this operator's configuration describes for
    /// `data` with the given index stage — `run*` entry points are thin
    /// wrappers that refine this plan and hand it to the shared executor.
    pub fn plan<'a>(&self, data: &'a Dataset, index: IndexStage<'a>) -> JoinPlan<'a> {
        JoinPlan {
            data,
            index,
            estimate: EstimateStage::Sample,
            exec: self.config.exec_options(),
            launch: self.config.launch,
            batching: self.config.batching,
            post: PostStage::default(),
        }
    }

    /// Runs the self-join: all ordered pairs `(p, q)`, `p ≠ q`, with
    /// `dist(p, q) ≤ epsilon`.
    pub fn run(&self, data: &Dataset, epsilon: f64) -> Result<SelfJoinOutput, SelfJoinError> {
        let plan = self.plan(data, IndexStage::Build { epsilon });
        let out = execute(&plan, Backend::Device(&self.device))?;
        Ok(SelfJoinOutput {
            table: NeighborTable::from_pairs(data.len(), &out.pairs),
            report: out.report,
        })
    }

    /// Runs the self-join against a prebuilt index (ε comes from the grid).
    ///
    /// The caller guarantees `grid` was built from `data`; the sharded
    /// engine uses this to reuse the index constructed during cost
    /// estimation. `report.grid_build` is zero — the build happened
    /// outside this call.
    pub fn run_on_grid(
        &self,
        data: &Dataset,
        grid: &GridIndex,
    ) -> Result<SelfJoinOutput, SelfJoinError> {
        let plan = self.plan(data, IndexStage::Prebuilt(grid));
        let out = execute(&plan, Backend::Device(&self.device))?;
        Ok(SelfJoinOutput {
            table: NeighborTable::from_pairs(data.len(), &out.pairs),
            report: out.report,
        })
    }

    /// Runs a shard-scoped self-join: `data` holds the shard's `owned`
    /// points first, followed by its ε-halo ghosts. The full point set is
    /// joined (ghost queries must run — UNICOMP may assign a cross-boundary
    /// cell interaction to the ghost side), then ghost-keyed pairs are
    /// dropped so every directed pair is reported by exactly the shard
    /// that owns its key.
    ///
    /// # Panics
    ///
    /// Panics if `owned > data.len()`.
    pub fn run_scoped(
        &self,
        data: &Dataset,
        epsilon: f64,
        owned: usize,
    ) -> Result<ScopedJoinOutput, SelfJoinError> {
        let grid = GridIndex::build(data, epsilon)?;
        self.run_scoped_on_grid(data, &grid, owned)
    }

    /// [`Self::run_scoped`] against a prebuilt index (see
    /// [`Self::run_on_grid`] for the grid precondition).
    ///
    /// # Panics
    ///
    /// Panics if `owned > data.len()`.
    pub fn run_scoped_on_grid(
        &self,
        data: &Dataset,
        grid: &GridIndex,
        owned: usize,
    ) -> Result<ScopedJoinOutput, SelfJoinError> {
        assert!(
            owned <= data.len(),
            "owned prefix {owned} exceeds dataset size {}",
            data.len()
        );
        let plan = self.plan(data, IndexStage::Prebuilt(grid)).scoped(owned);
        let out = execute(&plan, Backend::Device(&self.device))?;
        Ok(ScopedJoinOutput {
            pairs: out.pairs,
            owned,
            dropped_ghost_pairs: out.dropped_ghost_pairs,
            report: out.report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_join::host_self_join;
    use sj_datasets::synthetic::{clustered, uniform};
    use std::time::Duration;

    #[test]
    fn end_to_end_matches_host_join() {
        let data = uniform(3, 2000, 51);
        let eps = 7.0;
        let join = GpuSelfJoin::default_device();
        let out = join.run(&data, eps).unwrap();
        let grid = GridIndex::build(&data, eps).unwrap();
        assert_eq!(out.table, host_self_join(&data, &grid));
        assert!(out.report.batching.batches >= 3);
        assert!(out.report.non_empty_cells > 0);
        assert!(out.report.occupancy.occupancy > 0.0);
    }

    #[test]
    fn hot_paths_agree_end_to_end() {
        let data = clustered(3, 1500, 5, 1.2, 0.1, 60);
        let eps = 1.6;
        for unicomp in [false, true] {
            let cm = GpuSelfJoin::default_device()
                .unicomp(unicomp)
                .hot_path(HotPath::CellMajor)
                .run(&data, eps)
                .unwrap();
            let pt = GpuSelfJoin::default_device()
                .unicomp(unicomp)
                .hot_path(HotPath::PerThread)
                .run(&data, eps)
                .unwrap();
            assert_eq!(cm.table, pt.table, "unicomp={unicomp}");
            assert!(cm.report.batching.modeled_hoist_time > Duration::ZERO);
            assert_eq!(pt.report.batching.modeled_hoist_time, Duration::ZERO);
        }
    }

    #[test]
    fn unicomp_and_full_agree() {
        let data = clustered(2, 1500, 4, 1.0, 0.1, 52);
        let with = GpuSelfJoin::default_device()
            .unicomp(true)
            .run(&data, 1.5)
            .unwrap();
        let without = GpuSelfJoin::default_device()
            .unicomp(false)
            .run(&data, 1.5)
            .unwrap();
        assert_eq!(with.table, without.table);
    }

    #[test]
    fn epsilon_monotonicity() {
        let data = uniform(2, 1000, 53);
        let join = GpuSelfJoin::default_device();
        let small = join.run(&data, 1.0).unwrap().table.total_pairs();
        let large = join.run(&data, 3.0).unwrap().table.total_pairs();
        assert!(large > small);
    }

    #[test]
    fn invalid_epsilon_surfaces_error() {
        let data = uniform(2, 100, 54);
        let err = GpuSelfJoin::default_device().run(&data, -1.0).unwrap_err();
        assert!(matches!(err, SelfJoinError::Grid(_)));
    }

    #[test]
    fn occupancy_reflects_unicomp_register_pressure() {
        let data = uniform(5, 1200, 55);
        let base = GpuSelfJoin::default_device()
            .unicomp(false)
            .run(&data, 25.0)
            .unwrap();
        let uni = GpuSelfJoin::default_device()
            .unicomp(true)
            .run(&data, 25.0)
            .unwrap();
        assert_eq!(base.report.occupancy.occupancy, 0.625);
        assert_eq!(uni.report.occupancy.occupancy, 0.5);
    }

    #[test]
    fn run_on_grid_matches_run() {
        let data = uniform(2, 1200, 56);
        let eps = 2.5;
        let join = GpuSelfJoin::default_device();
        let grid = GridIndex::build(&data, eps).unwrap();
        let prepared = join.run_on_grid(&data, &grid).unwrap();
        let fresh = join.run(&data, eps).unwrap();
        assert_eq!(prepared.table, fresh.table);
        assert_eq!(prepared.report.grid_build, Duration::ZERO);
    }

    #[test]
    fn scoped_run_filters_ghost_keys() {
        // Owned prefix of 600 points plus 600 "ghosts" (the same point
        // population): every surviving key must be owned, and the owned
        // neighbour lists must match an unscoped join over the full set.
        let data = uniform(2, 1200, 57);
        let eps = 3.0;
        let join = GpuSelfJoin::default_device();
        let owned = 600;
        let scoped = join.run_scoped(&data, eps, owned).unwrap();
        assert!(scoped.pairs.iter().all(|p| (p.key as usize) < owned));
        let full = join.run(&data, eps).unwrap();
        let expected_kept: usize = (0..owned).map(|i| full.table.neighbors(i).len()).sum();
        assert_eq!(scoped.pairs.len(), expected_kept);
        assert_eq!(
            scoped.dropped_ghost_pairs as usize,
            full.table.total_pairs() - expected_kept
        );
    }

    #[test]
    fn scoped_run_with_full_ownership_drops_nothing() {
        let data = uniform(3, 800, 58);
        let join = GpuSelfJoin::default_device();
        let scoped = join.run_scoped(&data, 6.0, data.len()).unwrap();
        assert_eq!(scoped.dropped_ghost_pairs, 0);
        let full = join.run(&data, 6.0).unwrap();
        assert_eq!(scoped.pairs.len(), full.table.total_pairs());
    }

    #[test]
    #[should_panic(expected = "owned prefix")]
    fn scoped_run_rejects_bad_owned_count() {
        let data = uniform(2, 100, 59);
        let _ = GpuSelfJoin::default_device().run_scoped(&data, 1.0, 101);
    }

    #[test]
    fn doc_example_runs() {
        let data = uniform(2, 500, 7);
        let out = GpuSelfJoin::default_device().run(&data, 2.0).unwrap();
        assert!(out.table.is_symmetric());
        assert!(out.table.is_irreflexive());
    }
}
