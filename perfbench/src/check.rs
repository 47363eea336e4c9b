//! Inputs and answer checking — the benchmark's own work, never timed.
//!
//! Every answer the program gives is compared pair-for-pair with a
//! reference table computed during set-up, and every reference is itself
//! checked row by row against an O(n) brute-force scan under the
//! canonical predicate `euclidean_sq(p, q) <= ε²` on a fixed stride
//! sample of rows. An answer counts as correct only when it equals a
//! reference that passed its brute-force check.

use grid_join::{GpuSelfJoin, GridIndex, NeighborTable};
use sj_datasets::{euclidean_sq, Dataset};

/// Rows of each reference checked against the brute-force scan.
pub const BRUTE_FORCE_ROWS: usize = 256;

/// Mean realized neighbour count at `eps` over a stride sample of
/// `samples` query points (host scan through a fresh grid).
fn sampled_neighbors(data: &Dataset, eps: f64, samples: usize) -> f64 {
    let grid = GridIndex::build(data, eps).expect("calibration grid");
    let n = data.len();
    let stride = n.div_ceil(samples.min(n)).max(1);
    let mut total = 0u64;
    let mut count = 0u64;
    for q in (0..n).step_by(stride) {
        grid_join::host_join::query_neighbors(data, &grid, q, |_| total += 1);
        count += 1;
    }
    total as f64 / count as f64
}

/// ε at which the average point has about `target` neighbours, from a
/// sampled host count. Starts from the uniform-density closed form and
/// takes multiplicative steps `(target / realized)^(1/dim)` until the
/// sampled count lands within 1% — tighter than the repository's bench
/// helpers, because pair counts that wander between seeds would show up
/// as run-to-run spread in every timing.
pub fn calibrate_eps(data: &Dataset, target: f64) -> f64 {
    const SAMPLES: usize = 8192;
    let dim = data.dim();
    let lo = data.min_per_dim().expect("non-empty input");
    let hi = data.max_per_dim().expect("non-empty input");
    let volume: f64 = lo
        .iter()
        .zip(&hi)
        .map(|(l, h)| (h - l).max(1e-12))
        .product();
    let unit_ball = sj_datasets::stats::n_ball_volume(dim, 1.0);
    let mut eps = (target * volume / (data.len() as f64 * unit_ball)).powf(1.0 / dim as f64);
    for _ in 0..16 {
        let realized = sampled_neighbors(data, eps, SAMPLES).max(1e-3);
        let ratio = target / realized;
        if (ratio - 1.0).abs() <= 0.01 {
            break;
        }
        eps *= ratio.powf(1.0 / dim as f64).clamp(0.5, 2.0);
    }
    eps
}

/// Rows of `table` (a stride sample of [`BRUTE_FORCE_ROWS`]) whose
/// neighbour list differs from an O(n) scan under
/// `euclidean_sq(p, q) <= ε²`.
pub fn brute_force_mismatches(data: &Dataset, eps: f64, table: &NeighborTable) -> usize {
    let n = data.len();
    let eps_sq = eps * eps;
    let stride = n.div_ceil(BRUTE_FORCE_ROWS.min(n)).max(1);
    let mut bad = 0;
    let mut expect = Vec::new();
    for q in (0..n).step_by(stride) {
        let p = data.point(q);
        expect.clear();
        expect.extend(
            (0..n)
                .filter(|&j| j != q && euclidean_sq(p, data.point(j)) <= eps_sq)
                .map(|j| j as u32),
        );
        if table.neighbors(q) != expect.as_slice() {
            bad += 1;
        }
    }
    bad
}

/// A reference answer for one (dataset, ε): a fresh single-device join,
/// and whether it passed the brute-force row check.
pub struct Reference {
    pub table: NeighborTable,
    pub brute_force_bad_rows: usize,
}

impl Reference {
    pub fn compute(data: &Dataset, eps: f64) -> Self {
        let table = GpuSelfJoin::default_device()
            .run(data, eps)
            .expect("reference join")
            .table;
        let brute_force_bad_rows = brute_force_mismatches(data, eps, &table);
        if brute_force_bad_rows > 0 {
            eprintln!(
                "reference at eps={eps} disagrees with brute force on {brute_force_bad_rows} \
                 of the sampled rows; every answer checked against it counts as failed"
            );
        }
        Self {
            table,
            brute_force_bad_rows,
        }
    }

    /// Whether `answer` is correct: equal to this reference, which itself
    /// agrees with brute force.
    pub fn accepts(&self, answer: &NeighborTable) -> bool {
        self.brute_force_bad_rows == 0 && *answer == self.table
    }
}
