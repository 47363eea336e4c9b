//! The cell-major hot path: reordered point layout, per-cell neighbor
//! hoisting, and batched result reservation.
//!
//! The baseline [`crate::kernels::SelfJoinKernel`] pays three costs per
//! *thread* even though every point of a home cell performs byte-identical
//! traversal work: adjacent-range mask clipping, `3^d` binary searches of
//! `B`, and scattered point loads through the `A` indirection. This module
//! restructures the join around the *cell*:
//!
//! 1. **Cell-major data layout** — threads read coordinates from the
//!    grid's reordered snapshot ([`crate::GridIndex::reordered_coords`]): a
//!    cell's points are one contiguous `dim`-strided scan, and original
//!    ids are recovered through the `A` remap only when a pair is emitted.
//! 2. **Per-cell neighbor hoisting** — [`CellMajorPlan`] runs two small
//!    one-thread-per-*cell* kernels that clip the adjacent ranges and
//!    binary-search `B` **once per non-empty home cell**, materializing a
//!    CSR neighbor-offset table keyed by `G` index. The join kernel then
//!    walks precomputed cell positions, cutting the search work from
//!    `O(|D| · 3^d · log |B|)` to `O(|B| · 3^d · log |B|)`.
//! 3. **Batched result reservation** — threads stage candidate pairs in a
//!    small fixed local buffer (`PairStage`) and flush with **one**
//!    atomic cursor reservation per batch
//!    ([`sim_gpu::append::AppendBuffer::reserve`]) instead of one atomic
//!    per pair.
//!
//! The pair set produced is identical to the per-thread kernels' —
//! asserted pair-for-pair by the equivalence suites and the `validate`
//! release gate. Every global-memory access still flows through the
//! [`ThreadCtx`] tracer, so the profiled mode drives the cache simulator
//! with the *new* true access stream.

use crate::device_grid::DeviceGrid;
use crate::kernels::{kernel_registers, traced_find_cell, traced_mask_range};
use crate::linearize::{delinearize, linearize, MAX_DIM};
use crate::result::{group_by_key, Ownership, Pair};
use crate::unicomp::{adjacent_ranges, for_each_full, for_each_unicomp};
use sim_gpu::append::AppendBuffer;
use sim_gpu::occupancy::KernelResources;
use sim_gpu::{launch, Device, DeviceBuffer, Kernel, LaunchConfig, OutOfMemory, ThreadCtx, Tracer};
use std::time::{Duration, Instant};

/// Slots in the per-thread result staging buffer. Small enough to live in
/// registers/local memory on a real GPU; every flush replaces that many
/// result atomics with one.
pub const PAIR_STAGE: usize = 16;

/// Which join hot path the executor runs. Results are pair-for-pair
/// identical; only the work distribution differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HotPath {
    /// The paper's Algorithm 1 as written: every thread clips, searches
    /// and gathers for itself (kept as the baseline for ablation).
    PerThread,
    /// The cell-major path of this module: reordered layout, per-cell
    /// neighbor hoisting, batched result reservation. Default.
    #[default]
    CellMajor,
}

/// A fixed local staging buffer for result pairs, flushed to the global
/// [`AppendBuffer`] with one atomic reservation per batch.
struct PairStage {
    buf: [Pair; PAIR_STAGE],
    len: usize,
}

impl PairStage {
    #[inline]
    fn new() -> Self {
        Self {
            buf: [Pair::default(); PAIR_STAGE],
            len: 0,
        }
    }

    /// Stages one pair, flushing first when the buffer is full.
    #[inline]
    fn push<T: Tracer>(
        &mut self,
        ctx: &mut ThreadCtx<'_, T>,
        results: &AppendBuffer<Pair>,
        pair: Pair,
    ) {
        if self.len == PAIR_STAGE {
            self.flush(ctx, results);
        }
        self.buf[self.len] = pair;
        self.len += 1;
    }

    /// Reserves `len` slots with a single atomic and stores the staged
    /// pairs (stores past capacity are discarded and surface as overflow,
    /// like per-pair pushes).
    #[inline]
    fn flush<T: Tracer>(&mut self, ctx: &mut ThreadCtx<'_, T>, results: &AppendBuffer<Pair>) {
        if self.len == 0 {
            return;
        }
        ctx.trace_atomic(results.cursor_addr(), 8);
        let r = results.reserve(self.len);
        for (i, &p) in self.buf[..self.len].iter().enumerate() {
            if let Some(addr) = results.write_reserved(&r, i, p) {
                ctx.trace_store(addr, std::mem::size_of::<Pair>());
            }
        }
        self.len = 0;
    }
}

/// Per-cell hoisting pass shared by the count and fill kernels: computes
/// the home cell's clipped adjacent ranges and enumerates the *existing*
/// neighbor cells (positions in `B`/`G`), invoking `found` for each.
///
/// In full mode the home cell itself is included (its position is `h`, no
/// search needed); in UNICOMP mode only the parity-selected neighbor
/// subset is visited — the home cell is handled by the join kernel's
/// id-ordering rule.
#[inline]
fn for_each_existing_neighbor<T: Tracer, F: FnMut(&mut ThreadCtx<'_, T>, u32)>(
    ctx: &mut ThreadCtx<'_, T>,
    grid: &DeviceGrid,
    h: usize,
    unicomp: bool,
    mut found: F,
) {
    let dim = grid.dim;
    let lin = ctx.read(&grid.b, h);
    let mut cell = [0u32; MAX_DIM];
    delinearize(lin, &grid.cells_per_dim[..dim], &mut cell[..dim]);
    let mut adj = [(0u32, 0u32); MAX_DIM];
    adjacent_ranges(&cell[..dim], &grid.cells_per_dim[..dim], &mut adj[..dim]);
    let mut filtered = [(0u32, 0u32); MAX_DIM];
    for j in 0..dim {
        match traced_mask_range(ctx, grid, j, adj[j].0, adj[j].1) {
            Some(r) => filtered[j] = r,
            // The home cell is non-empty, so every dimension's mask
            // contains at least its coordinate.
            None => unreachable!("mask cannot eliminate the home cell's coordinate"),
        }
    }
    if unicomp {
        for_each_unicomp(dim, &cell[..dim], &filtered[..dim], |coords| {
            let l = linearize(coords, &grid.cells_per_dim[..dim]);
            if let Some(nh) = traced_find_cell(ctx, grid, l) {
                found(ctx, nh as u32);
            }
        });
    } else {
        for_each_full(dim, &filtered[..dim], |coords| {
            let l = linearize(coords, &grid.cells_per_dim[..dim]);
            if l == lin {
                // The home cell exists at position h by construction.
                found(ctx, h as u32);
            } else if let Some(nh) = traced_find_cell(ctx, grid, l) {
                found(ctx, nh as u32);
            }
        });
    }
}

/// Pass 1 of the hoisting precompute: one thread per non-empty cell,
/// counting its existing neighbor cells. Appends `(h, count)`.
struct CellNeighborCountKernel<'a> {
    grid: &'a DeviceGrid,
    unicomp: bool,
    counts: &'a AppendBuffer<(u32, u32)>,
}

impl Kernel for CellNeighborCountKernel<'_> {
    fn resources(&self) -> KernelResources {
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, self.unicomp),
            shared_mem_per_block: 0,
        }
    }

    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        let h = ctx.global_id;
        if h >= self.grid.b.len() {
            return;
        }
        let mut count = 0u32;
        for_each_existing_neighbor(ctx, self.grid, h, self.unicomp, |_, _| count += 1);
        ctx.trace_atomic(self.counts.cursor_addr(), 8);
        if let Some(addr) = self.counts.push((h as u32, count)) {
            ctx.trace_store(addr, 8);
        }
    }
}

/// Pass 2: re-runs the traversal and appends one `(h, neighbor_h)` record
/// per existing neighbor cell; the host scatters them into the CSR table.
struct CellNeighborFillKernel<'a> {
    grid: &'a DeviceGrid,
    unicomp: bool,
    entries: &'a AppendBuffer<(u32, u32)>,
}

impl Kernel for CellNeighborFillKernel<'_> {
    fn resources(&self) -> KernelResources {
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, self.unicomp),
            shared_mem_per_block: 0,
        }
    }

    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        let h = ctx.global_id;
        if h >= self.grid.b.len() {
            return;
        }
        for_each_existing_neighbor(ctx, self.grid, h, self.unicomp, |ctx, nh| {
            ctx.trace_atomic(self.entries.cursor_addr(), 8);
            if let Some(addr) = self.entries.push((h as u32, nh)) {
                ctx.trace_store(addr, 8);
            }
        });
    }
}

/// Cost accounting of a [`CellMajorPlan`] build, fed into the batching
/// report/timeline so the hoisting pass is never free in either host wall
/// or modeled device time.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanBuildStats {
    /// Host wall time of the whole build (kernels + CSR assembly).
    pub wall: Duration,
    /// Modeled device time of the two hoisting kernels.
    pub modeled: Duration,
    /// Bytes uploaded for the CSR table and the slot→cell map.
    pub h2d_bytes: usize,
    /// Bytes drained back to the host by the two passes.
    pub d2h_bytes: usize,
}

/// The device-resident per-cell neighbor table plus the slot→cell map —
/// everything the cell-major join kernel shares across a home cell's
/// threads.
#[derive(Debug)]
pub struct CellMajorPlan {
    /// Whether the neighbor lists are the UNICOMP parity subset (home
    /// cell excluded) or the full adjacency (home cell included).
    pub unicomp: bool,
    /// `A`-slot → position of its cell in `B`/`G`.
    pub cell_of_slot: DeviceBuffer<u32>,
    /// CSR offsets into [`Self::nbr_cells`] (`|B| + 1` entries).
    pub nbr_offsets: DeviceBuffer<u32>,
    /// CSR values: existing neighbor-cell positions in `B`/`G`, sorted
    /// ascending per home cell.
    pub nbr_cells: DeviceBuffer<u32>,
}

impl CellMajorPlan {
    /// Device bytes this plan keeps resident (the CSR table plus the
    /// slot→cell map) — what a session's snapshot ledger accounts for.
    pub fn resident_bytes(&self) -> usize {
        self.cell_of_slot.size_bytes() + self.nbr_offsets.size_bytes() + self.nbr_cells.size_bytes()
    }

    /// Upper bound on [`Self::resident_bytes`] for a plan over `grid`,
    /// computable before the hoisting kernels run: every cell has at most
    /// `min(3^dim, |B|)` existing neighbor cells in the CSR table.
    pub fn projected_bytes_upper(grid: &DeviceGrid) -> usize {
        let nb = grid.b.len();
        let shell = 3usize.saturating_pow(grid.dim as u32).min(nb.max(1));
        let u32s = std::mem::size_of::<u32>();
        grid.num_points * u32s + (nb + 1) * u32s + nb.saturating_mul(shell) * u32s
    }

    /// Builds the plan on the device: two one-thread-per-cell kernel
    /// passes (count, then fill) perform the hoisted mask clipping and
    /// `B` searches; the host prefix-sums and scatters the records into
    /// the CSR table and uploads it together with the slot→cell map.
    pub fn build(
        device: &Device,
        grid: &DeviceGrid,
        unicomp: bool,
        launch_cfg: LaunchConfig,
    ) -> Result<(Self, PlanBuildStats), OutOfMemory> {
        let t0 = Instant::now();
        let nb = grid.b.len();
        let mut stats = PlanBuildStats::default();

        // Pass 1: per-cell neighbor counts.
        let mut counts = AppendBuffer::<(u32, u32)>::new(device.pool(), nb)?;
        let s1 = launch(
            device,
            launch_cfg,
            nb,
            &CellNeighborCountKernel {
                grid,
                unicomp,
                counts: &counts,
            },
        );
        let count_records = counts.drain_to_host();
        drop(counts);
        stats.modeled += s1.modeled_wall;
        stats.d2h_bytes += count_records.len() * 8;

        let total: u64 = count_records.iter().map(|&(_, c)| c as u64).sum();
        assert!(
            total <= u32::MAX as u64,
            "neighbor table exceeds u32 offsets ({total} entries)"
        );

        // Pass 2: materialize the (h, neighbor) records.
        let mut entries = AppendBuffer::<(u32, u32)>::new(device.pool(), total as usize)?;
        let s2 = launch(
            device,
            launch_cfg,
            nb,
            &CellNeighborFillKernel {
                grid,
                unicomp,
                entries: &entries,
            },
        );
        debug_assert!(!entries.overflowed(), "fill pass exceeded counted total");
        let fill_records = entries.drain_to_host();
        drop(entries);
        stats.modeled += s2.modeled_wall;
        stats.d2h_bytes += fill_records.len() * 8;

        // Group the records into CSR with sorted lists: append order is
        // nondeterministic across blocks, the sorted lists are not.
        let grouped = group_by_key(nb, &fill_records, |&(h, nh)| (h, nh));
        debug_assert_eq!(
            grouped.values.len() as u64,
            total,
            "fill pass != count pass"
        );
        // Every offset fits: the total was checked against u32::MAX.
        let offsets: Vec<u32> = grouped.offsets.iter().map(|&o| o as u32).collect();

        // Slot→cell map, derived from G (pure host metadata, like A).
        let g_host = grid.g.as_slice();
        let mut cell_of_slot = vec![0u32; grid.num_points];
        for (h, r) in g_host.iter().enumerate() {
            cell_of_slot[r.begin as usize..r.end as usize].fill(h as u32);
        }

        let plan = Self {
            unicomp,
            cell_of_slot: device.alloc_from_host(&cell_of_slot)?,
            nbr_offsets: device.alloc_from_host(&offsets)?,
            nbr_cells: device.alloc_from_host(&grouped.values)?,
        };
        stats.h2d_bytes = plan.cell_of_slot.size_bytes()
            + plan.nbr_offsets.size_bytes()
            + plan.nbr_cells.size_bytes();
        stats.wall = t0.elapsed();
        Ok((plan, stats))
    }
}

/// The cell-major self-join kernel: one logical thread per `A`-slot in
/// `slot_offset .. slot_offset + slot_count` (consecutive threads handle
/// points of the same grid cell by construction). Per thread it performs
/// **zero** mask clips and **zero** `B` searches — the plan hoisted them
/// per cell — and scans each neighbor cell's points as one contiguous
/// read stream from the reordered snapshot, reading the `A` remap only
/// when a pair is emitted. Results flush through the staged reservation
/// path (one atomic per [`PAIR_STAGE`] pairs).
pub struct CellMajorSelfJoinKernel<'a> {
    /// Device-resident grid and data (must carry the reordered snapshot).
    pub grid: &'a DeviceGrid,
    /// Squared distance threshold ε′² (see
    /// [`crate::kernels::SelfJoinKernel::eps_sq`]): usually the grid's own
    /// ε², smaller under resident-index reuse. The hoisted neighbor table
    /// is ε′-independent — it enumerates adjacent *cells*, which cover any
    /// radius up to the cell width — so one plan serves every in-band ε′.
    pub eps_sq: f64,
    /// Hoisted per-cell neighbor table (must match `unicomp`).
    pub plan: &'a CellMajorPlan,
    /// Result pair sink.
    pub results: &'a AppendBuffer<Pair>,
    /// First `A`-slot handled by this launch.
    pub slot_offset: usize,
    /// Number of slots in this launch.
    pub slot_count: usize,
    /// Optional emit-time ownership window: pairs whose key falls outside
    /// `[0, hi)` are dropped *before* staging, so a sharded subplan never
    /// materializes ghost-keyed pairs (see
    /// [`crate::kernels::SelfJoinKernel::ownership`]).
    pub ownership: Option<Ownership>,
}

impl Kernel for CellMajorSelfJoinKernel<'_> {
    fn resources(&self) -> KernelResources {
        // Same register model as the per-thread kernel: hoisting removes
        // the traversal bookkeeping (adjacent ranges, odometer state,
        // search cursors) but the staging buffer and CSR cursors consume
        // the savings, so occupancy — and Table II — are unchanged.
        KernelResources {
            registers_per_thread: kernel_registers(self.grid.dim, self.plan.unicomp),
            shared_mem_per_block: 0,
        }
    }

    fn thread<T: Tracer>(&self, ctx: &mut ThreadCtx<'_, T>) {
        if ctx.global_id >= self.slot_count {
            return;
        }
        let slot = self.slot_offset + ctx.global_id;
        let grid = self.grid;
        let dim = grid.dim;
        let eps_sq = self.eps_sq;

        // Home cell and query point: the slot→cell read replaces the
        // per-thread cell computation + mask clip + own-cell search.
        let h = ctx.read(&self.plan.cell_of_slot, slot) as usize;
        let mut p = [0.0f64; MAX_DIM];
        p[..dim].copy_from_slice(ctx.read_range(&grid.reordered, slot * dim, dim));
        let qid = ctx.read(&grid.a, slot);
        let owns_query = self.ownership.is_none_or(|o| o.keeps(qid));
        if !self.plan.unicomp && !owns_query {
            // Full mode emits only query-keyed pairs; a ghost query's
            // whole traversal would be filtered, so skip it entirely.
            return;
        }
        let owns = |id: u32| self.ownership.is_none_or(|o| o.keeps(id));

        let mut stage = PairStage::new();
        let lo = ctx.read(&self.plan.nbr_offsets, h) as usize;
        let hi = ctx.read(&self.plan.nbr_offsets, h + 1) as usize;

        if self.plan.unicomp {
            // Home cell via the id-ordering rule on slots (slots are a
            // bijection with ids, so "each unordered pair once" holds and
            // no candidate id read is needed below the diagonal). Under
            // UNICOMP a ghost query may be the sole producer of an owned
            // candidate's pair, so filtering is per direction, never a
            // whole-thread skip.
            let own = ctx.read(&grid.g, h);
            for s in (slot as u32 + 1)..own.end {
                let q = ctx.read_range(&grid.reordered, s as usize * dim, dim);
                if dist_sq(&p[..dim], q) <= eps_sq {
                    let cand = ctx.read(&grid.a, s as usize);
                    if owns_query {
                        stage.push(ctx, self.results, Pair::new(qid, cand));
                    }
                    if owns(cand) {
                        stage.push(ctx, self.results, Pair::new(cand, qid));
                    }
                }
            }
            // Parity-selected neighbor cells: both directions per hit.
            for k in lo..hi {
                let nh = ctx.read(&self.plan.nbr_cells, k) as usize;
                let r = ctx.read(&grid.g, nh);
                for s in r.begin..r.end {
                    let q = ctx.read_range(&grid.reordered, s as usize * dim, dim);
                    if dist_sq(&p[..dim], q) <= eps_sq {
                        let cand = ctx.read(&grid.a, s as usize);
                        if owns_query {
                            stage.push(ctx, self.results, Pair::new(qid, cand));
                        }
                        if owns(cand) {
                            stage.push(ctx, self.results, Pair::new(cand, qid));
                        }
                    }
                }
            }
        } else {
            // Full traversal: the list includes the home cell; the slot
            // comparison excludes exactly the query point itself.
            for k in lo..hi {
                let nh = ctx.read(&self.plan.nbr_cells, k) as usize;
                let r = ctx.read(&grid.g, nh);
                for s in r.begin..r.end {
                    if s as usize == slot {
                        continue;
                    }
                    let q = ctx.read_range(&grid.reordered, s as usize * dim, dim);
                    if dist_sq(&p[..dim], q) <= eps_sq {
                        let cand = ctx.read(&grid.a, s as usize);
                        stage.push(ctx, self.results, Pair::new(qid, cand));
                    }
                }
            }
        }
        stage.flush(ctx, self.results);
    }
}

/// Squared Euclidean distance between two register/cache-resident slices.
#[inline]
fn dist_sq(p: &[f64], q: &[f64]) -> f64 {
    let mut acc = 0.0;
    for j in 0..p.len() {
        let d = p[j] - q[j];
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::result::NeighborTable;
    use sim_gpu::{Device, DeviceSpec};
    use sj_datasets::synthetic::{clustered, lattice, uniform};
    use sj_datasets::Dataset;

    fn run_cell_major(data: &Dataset, eps: f64, unicomp: bool) -> Vec<Pair> {
        let grid = GridIndex::build(data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, data, &grid).unwrap();
        let (plan, stats) =
            CellMajorPlan::build(&dev, &dg, unicomp, LaunchConfig::default()).unwrap();
        assert!(stats.h2d_bytes > 0 || data.is_empty());
        let mut results =
            AppendBuffer::<Pair>::new(dev.pool(), data.len() * data.len() + 64).unwrap();
        let kernel = CellMajorSelfJoinKernel {
            grid: &dg,
            eps_sq: eps * eps,
            plan: &plan,
            results: &results,
            slot_offset: 0,
            slot_count: data.len(),
            ownership: None,
        };
        launch(&dev, LaunchConfig::default(), data.len(), &kernel);
        assert!(!results.overflowed());
        results.drain_to_host()
    }

    fn run_per_thread(data: &Dataset, eps: f64, unicomp: bool) -> Vec<Pair> {
        let grid = GridIndex::build(data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, data, &grid).unwrap();
        let mut results =
            AppendBuffer::<Pair>::new(dev.pool(), data.len() * data.len() + 64).unwrap();
        let kernel = crate::kernels::SelfJoinKernel {
            grid: &dg,
            eps_sq: eps * eps,
            results: &results,
            query_offset: 0,
            query_count: data.len(),
            unicomp,
            cell_order: false,
            ownership: None,
        };
        launch(&dev, LaunchConfig::default(), data.len(), &kernel);
        assert!(!results.overflowed());
        results.drain_to_host()
    }

    fn assert_paths_agree(data: &Dataset, eps: f64) {
        for unicomp in [false, true] {
            let cm = NeighborTable::from_pairs(data.len(), &run_cell_major(data, eps, unicomp));
            let pt = NeighborTable::from_pairs(data.len(), &run_per_thread(data, eps, unicomp));
            assert_eq!(cm, pt, "unicomp={unicomp}, eps={eps}");
        }
    }

    #[test]
    fn matches_per_thread_kernel_2d() {
        assert_paths_agree(&uniform(2, 500, 61), 4.0);
    }

    #[test]
    fn matches_per_thread_kernel_3d_clustered() {
        assert_paths_agree(&clustered(3, 450, 5, 1.0, 0.1, 62), 1.8);
    }

    #[test]
    fn matches_per_thread_kernel_6d() {
        assert_paths_agree(&uniform(6, 220, 63), 35.0);
    }

    #[test]
    fn duplicate_points_handled() {
        let mut data = Dataset::new(2);
        for _ in 0..7 {
            data.push(&[3.0, 3.0]);
        }
        for unicomp in [false, true] {
            let t = NeighborTable::from_pairs(7, &run_cell_major(&data, 0.5, unicomp));
            assert!(t.is_irreflexive());
            assert_eq!(t.total_pairs(), 42, "unicomp={unicomp}"); // 7×6 directed
        }
    }

    #[test]
    fn slot_batches_partition_results() {
        let data = uniform(2, 500, 64);
        let eps = 4.0;
        let grid = GridIndex::build(&data, eps).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let (plan, _) = CellMajorPlan::build(&dev, &dg, true, LaunchConfig::default()).unwrap();
        let mut all = Vec::new();
        for (off, cnt) in [(0usize, 180usize), (180, 180), (360, 140)] {
            let mut results = AppendBuffer::<Pair>::new(dev.pool(), 500 * 500).unwrap();
            let kernel = CellMajorSelfJoinKernel {
                grid: &dg,
                eps_sq: eps * eps,
                plan: &plan,
                results: &results,
                slot_offset: off,
                slot_count: cnt,
                ownership: None,
            };
            launch(&dev, LaunchConfig::default(), cnt, &kernel);
            all.extend(results.drain_to_host());
        }
        let expected = NeighborTable::from_pairs(500, &run_per_thread(&data, eps, false));
        assert_eq!(NeighborTable::from_pairs(500, &all), expected);
    }

    #[test]
    fn plan_neighbor_lists_match_host_enumeration() {
        // The CSR table must contain exactly the existing adjacent cells
        // the host-side grid would enumerate for each home cell.
        let data = uniform(3, 400, 65);
        let grid = GridIndex::build(&data, 9.0).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let (plan, _) = CellMajorPlan::build(&dev, &dg, false, LaunchConfig::default()).unwrap();
        let offsets = plan.nbr_offsets.as_slice();
        let values = plan.nbr_cells.as_slice();
        let mut cbuf = [0u32; MAX_DIM];
        for (h, &cell) in grid.b().iter().enumerate() {
            delinearize(cell, grid.cells_per_dim(), &mut cbuf[..3]);
            let mut adj = [(0u32, 0u32); MAX_DIM];
            adjacent_ranges(&cbuf[..3], grid.cells_per_dim(), &mut adj[..3]);
            let mut filtered = [(0u32, 0u32); MAX_DIM];
            for j in 0..3 {
                filtered[j] = grid.mask_range(j, adj[j].0, adj[j].1).unwrap();
            }
            let mut expected = Vec::new();
            for_each_full(3, &filtered[..3], |coords| {
                let lin = linearize(coords, grid.cells_per_dim());
                if let Some(nh) = grid.find_cell(lin) {
                    expected.push(nh as u32);
                }
            });
            expected.sort_unstable();
            assert_eq!(
                &values[offsets[h] as usize..offsets[h + 1] as usize],
                &expected[..],
                "cell {h}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = Dataset::new(2);
        assert!(run_cell_major(&empty, 1.0, false).is_empty());
        assert!(run_cell_major(&empty, 1.0, true).is_empty());
        let one = lattice(2, 1, 1.0);
        assert!(run_cell_major(&one, 1.0, true).is_empty());
    }

    #[test]
    fn overflow_is_detected_not_ub() {
        let data = uniform(2, 300, 66);
        let grid = GridIndex::build(&data, 20.0).unwrap();
        let dev = Device::new(DeviceSpec::titan_x_pascal());
        let dg = DeviceGrid::upload(&dev, &data, &grid).unwrap();
        let (plan, _) = CellMajorPlan::build(&dev, &dg, false, LaunchConfig::default()).unwrap();
        let results = AppendBuffer::<Pair>::new(dev.pool(), 10).unwrap();
        let kernel = CellMajorSelfJoinKernel {
            grid: &dg,
            eps_sq: 20.0 * 20.0,
            plan: &plan,
            results: &results,
            slot_offset: 0,
            slot_count: 300,
            ownership: None,
        };
        launch(&dev, LaunchConfig::default(), 300, &kernel);
        assert!(results.overflowed());
        assert_eq!(results.len(), 10);
    }
}
