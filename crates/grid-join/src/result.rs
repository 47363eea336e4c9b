//! Result-set representation.
//!
//! The paper's kernels emit `(key, value)` pairs — key = query point id,
//! value = the point found within ε — into a device buffer, and
//! Algorithm 1 ends by grouping them by key. [`Pair`] is that record;
//! [`NeighborTable`] is the host-side CSR-style adjacency the grouping
//! produces, which is what downstream consumers (e.g. DBSCAN) use. The
//! grouping runs on the host, on all cores, as one parallel counting sort
//! (`group_by_key`); every key → list build in the join goes
//! through it, the cell-major plan's hoisted neighbour-cell table
//! included.
//!
//! Semantics: pairs are *directed* and **exclude self-pairs** — every
//! unordered neighbour pair `{p, q}` with `dist(p, q) ≤ ε`, `p ≠ q`
//! appears as both `(p, q)` and `(q, p)`. All five algorithms in this
//! workspace produce identical tables, which the integration tests assert.

use rayon::prelude::*;

/// One self-join result record (matches the paper's key/value pair).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair {
    /// Query point id.
    pub key: u32,
    /// Neighbor point id.
    pub value: u32,
}

impl Pair {
    /// Convenience constructor.
    #[inline]
    pub fn new(key: u32, value: u32) -> Self {
        Self { key, value }
    }
}

/// CSR-style neighbor lists for every point of the dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborTable {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl NeighborTable {
    /// Builds the table from result pairs for a dataset of `num_points`
    /// points. Pairs need not be sorted; each adjacency list ends up
    /// sorted ascending, so the table does not depend on the order the
    /// producer emitted the pairs in, nor on the host's thread count.
    ///
    /// # Panics
    ///
    /// Panics if any pair references a point id `>= num_points`.
    pub fn from_pairs(num_points: usize, pairs: &[Pair]) -> Self {
        let mut span = sj_obs::Span::enter("table.materialize");
        span.label("pairs", pairs.len());
        let grouped = group_by_key(num_points, pairs, |p| (p.key, p.value));
        Self {
            offsets: grouped.offsets,
            neighbors: grouped.values,
        }
    }

    /// Number of points the table covers.
    pub fn num_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted neighbor list of point `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total number of directed pairs.
    pub fn total_pairs(&self) -> usize {
        self.neighbors.len()
    }

    /// Average neighbors per point (the paper's selectivity measure).
    pub fn avg_neighbors(&self) -> f64 {
        if self.num_points() == 0 {
            0.0
        } else {
            self.total_pairs() as f64 / self.num_points() as f64
        }
    }

    /// Checks the reflexivity invariant: `q ∈ N(p) ⇔ p ∈ N(q)`.
    pub fn is_symmetric(&self) -> bool {
        for p in 0..self.num_points() {
            for &q in self.neighbors(p) {
                if self
                    .neighbors(q as usize)
                    .binary_search(&(p as u32))
                    .is_err()
                {
                    return false;
                }
            }
        }
        true
    }

    /// Checks that no point lists itself.
    pub fn is_irreflexive(&self) -> bool {
        (0..self.num_points()).all(|p| self.neighbors(p).binary_search(&(p as u32)).is_err())
    }
}

/// Records grouped by key in CSR form: key `k`'s values are
/// `values[offsets[k]..offsets[k + 1]]`, sorted ascending.
pub(crate) struct Grouped {
    pub offsets: Vec<usize>,
    pub values: Vec<u32>,
}

/// Fewest records one grouping chunk is given: below this, another
/// chunk's histogram and thread cost more than its share of the work.
const MIN_CHUNK_RECORDS: usize = 1 << 15;

/// Chunks [`group_by_key`] splits `records` records over: one per host
/// thread, but each chunk gets at least [`MIN_CHUNK_RECORDS`] records
/// and at least as many records as its histogram has keys.
fn grouping_chunks(records: usize, num_keys: usize) -> usize {
    let per_chunk = MIN_CHUNK_RECORDS.max(num_keys);
    rayon::current_num_threads().min(records / per_chunk).max(1)
}

/// Groups `(key, value)` records (extracted by `key_value`) by key, for
/// dense keys in `0..num_keys`, sorting every list. This is the host
/// half of Algorithm 1's "sort by key", as one parallel counting sort:
///
/// 1. per-chunk key histograms over contiguous chunks of the records,
///    which also range-check every record;
/// 2. a prefix sum of the summed histograms into the offsets;
/// 3. a scatter of the values into their lists, split into key ranges
///    holding about equal record counts: each worker scans all records
///    but writes only its own keys' lists, a disjoint `split_at_mut`
///    part of the value array;
/// 4. in the same worker, a `sort_unstable` of each list.
///
/// Sorted lists make the output independent of record order and of the
/// chunk count: the result is identical bit for bit on any host. Small
/// inputs run the same steps with one chunk.
///
/// # Panics
///
/// Panics if a key or value is `>= num_keys`.
pub(crate) fn group_by_key<T, F>(num_keys: usize, records: &[T], key_value: F) -> Grouped
where
    T: Sync,
    F: Fn(&T) -> (u32, u32) + Sync,
{
    let chunks = grouping_chunks(records.len(), num_keys);
    group_by_key_in(chunks, num_keys, records, &key_value)
}

/// [`group_by_key`] over an explicit chunk count (at least one).
fn group_by_key_in<T, F>(chunks: usize, num_keys: usize, records: &[T], key_value: &F) -> Grouped
where
    T: Sync,
    F: Fn(&T) -> (u32, u32) + Sync,
{
    // Per-chunk counts are u32: keep every chunk below 2^32 records.
    let chunks = chunks.max(records.len().div_ceil(u32::MAX as usize)).max(1);
    let per_chunk = records.len().div_ceil(chunks);

    // Step 1: per-chunk key histograms.
    let histograms: Vec<Vec<u32>> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let lo = (c * per_chunk).min(records.len());
            let hi = (lo + per_chunk).min(records.len());
            let mut counts = vec![0u32; num_keys];
            for r in &records[lo..hi] {
                let (k, v) = key_value(r);
                assert!(
                    (k as usize) < num_keys && (v as usize) < num_keys,
                    "pair ({k}, {v}) out of range {num_keys}"
                );
                counts[k as usize] += 1;
            }
            counts
        })
        .collect();

    // Step 2: offsets, the prefix sum of the summed histograms.
    let mut offsets = vec![0usize; num_keys + 1];
    for k in 0..num_keys {
        let count: usize = histograms.iter().map(|h| h[k] as usize).sum();
        offsets[k + 1] = offsets[k] + count;
    }
    drop(histograms);

    // Key ranges of about equal record count, one per chunk.
    let total = records.len();
    let bounds: Vec<usize> = (0..=chunks)
        .map(|i| {
            if i == chunks {
                num_keys
            } else {
                offsets.partition_point(|&o| o < total * i / chunks)
            }
        })
        .collect();

    // Steps 3 and 4: each key range's scatter, then its list sorts.
    let mut values = vec![0u32; total];
    let grouper = RangeGrouper { records, key_value };
    grouper.run(&bounds, &offsets, &mut values);
    Grouped { offsets, values }
}

/// Steps 3 and 4 of [`group_by_key`] over one set of records.
struct RangeGrouper<'a, T, F> {
    records: &'a [T],
    key_value: &'a F,
}

impl<T, F> RangeGrouper<'_, T, F>
where
    T: Sync,
    F: Fn(&T) -> (u32, u32) + Sync,
{
    /// Groups the key ranges `bounds` (range `i` is keys `bounds[i]..bounds[i + 1]`),
    /// forking across ranges. `values` holds the slots of keys
    /// `bounds[0]..bounds[last]`, which start at `offsets[bounds[0]]`.
    fn run(&self, bounds: &[usize], offsets: &[usize], values: &mut [u32]) {
        if bounds.len() <= 2 {
            self.range(bounds[0], &offsets[bounds[0]..=bounds[1]], values);
            return;
        }
        let mid = bounds.len() / 2;
        let split = offsets[bounds[mid]] - offsets[bounds[0]];
        let (left, right) = values.split_at_mut(split);
        rayon::join(
            || self.run(&bounds[..=mid], offsets, left),
            || self.run(&bounds[mid..], offsets, right),
        );
    }

    /// Groups the keys `lo..lo + offsets.len() - 1`, whose list offsets
    /// are `offsets`, into `values`.
    fn range(&self, lo: usize, offsets: &[usize], values: &mut [u32]) {
        let span = offsets.len() - 1;
        if span == 0 {
            return;
        }
        // Step 3: scatter this range's values, cursors relative to its
        // first slot.
        let base = offsets[0];
        let mut cursor: Vec<usize> = offsets[..span].iter().map(|o| o - base).collect();
        for r in self.records {
            let (k, v) = (self.key_value)(r);
            let local = (k as usize).wrapping_sub(lo);
            if local < span {
                let c = &mut cursor[local];
                values[*c] = v;
                *c += 1;
            }
        }
        // Step 4: sort each list.
        for list in offsets.windows(2) {
            values[list[0] - base..list[1] - base].sort_unstable();
        }
    }
}

/// Emit-time ownership window of a shard-scoped join: the local-id
/// prefix `[0, hi)` of points this execution *owns*. Shard-local datasets
/// are laid out owned-points-first, so ownership of a pair is one
/// comparison on its key. Kernels carrying an ownership window make that
/// comparison **before** reserving result-buffer space, so ghost-keyed
/// pairs are never materialized: every directed pair is emitted once, by
/// the shard that owns its key. Values may reference ghosts — that is the
/// point of the halo: an owned query must see its neighbours across the
/// shard boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ownership {
    /// One past the last owned local id (exclusive).
    pub hi: u32,
}

impl Ownership {
    /// The owned-points-first prefix window `[0, owned)` of a shard.
    ///
    /// # Panics
    ///
    /// Panics if `owned` does not fit a `u32` point id.
    pub fn prefix(owned: usize) -> Self {
        Self {
            hi: u32::try_from(owned).expect("owned prefix exceeds the u32 point-id range"),
        }
    }

    /// Whether a pair keyed by `key` belongs to this execution.
    #[inline]
    pub fn keeps(&self, key: u32) -> bool {
        key < self.hi
    }
}

/// Sorts pairs by (key, value) — the host-side equivalent of the paper's
/// post-kernel `thrust::sort`, used when a caller wants the raw pair list
/// in canonical order rather than a [`NeighborTable`].
pub fn sort_pairs(pairs: &mut [Pair]) {
    pairs.sort_unstable();
}

/// Rewrites shard-local point ids to global ids through `global_ids`
/// (index = local id, value = global id).
///
/// # Panics
///
/// Panics if any pair references a local id outside `global_ids`.
pub fn remap_pairs(pairs: &mut [Pair], global_ids: &[u32]) {
    for p in pairs {
        p.key = global_ids[p.key as usize];
        p.value = global_ids[p.value as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_pairs() -> Vec<Pair> {
        vec![
            Pair::new(2, 0),
            Pair::new(0, 2),
            Pair::new(0, 1),
            Pair::new(1, 0),
        ]
    }

    #[test]
    fn table_from_unsorted_pairs() {
        let t = NeighborTable::from_pairs(3, &sample_pairs());
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.total_pairs(), 4);
        assert!((t.avg_neighbors() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry_check() {
        let t = NeighborTable::from_pairs(3, &sample_pairs());
        assert!(t.is_symmetric());
        let broken = NeighborTable::from_pairs(3, &[Pair::new(0, 1)]);
        assert!(!broken.is_symmetric());
    }

    #[test]
    fn irreflexivity_check() {
        let t = NeighborTable::from_pairs(3, &sample_pairs());
        assert!(t.is_irreflexive());
        let selfish = NeighborTable::from_pairs(2, &[Pair::new(1, 1)]);
        assert!(!selfish.is_irreflexive());
    }

    #[test]
    fn empty_table() {
        let t = NeighborTable::from_pairs(0, &[]);
        assert_eq!(t.num_points(), 0);
        assert_eq!(t.avg_neighbors(), 0.0);
        assert!(t.is_symmetric());
        let t5 = NeighborTable::from_pairs(5, &[]);
        assert_eq!(t5.neighbors(3), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_rejected() {
        let _ = NeighborTable::from_pairs(2, &[Pair::new(0, 5)]);
    }

    #[test]
    fn ownership_window_semantics() {
        let own = Ownership::prefix(3);
        assert!(own.keeps(0) && own.keeps(2));
        assert!(!own.keeps(3));
        assert!(!Ownership::prefix(0).keeps(0));
        let all = Ownership::prefix(u32::MAX as usize);
        assert!(all.keeps(u32::MAX - 1) && !all.keeps(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "u32 point-id range")]
    fn ownership_prefix_beyond_u32_ids_panics() {
        // `u32::MAX + 5` must not wrap to the window [0, 4).
        let _ = Ownership::prefix(u32::MAX as usize + 5);
    }

    #[test]
    fn remap_translates_both_sides() {
        let ids = [10u32, 20, 30];
        let mut pairs = vec![Pair::new(0, 2), Pair::new(2, 1)];
        remap_pairs(&mut pairs, &ids);
        assert_eq!(pairs, vec![Pair::new(10, 30), Pair::new(30, 20)]);
    }

    #[test]
    #[should_panic]
    fn remap_rejects_out_of_range_local_ids() {
        let mut pairs = vec![Pair::new(0, 9)];
        remap_pairs(&mut pairs, &[1, 2]);
    }

    #[test]
    fn deterministic_under_permutation() {
        let mut p1 = sample_pairs();
        let p2 = {
            let mut v = p1.clone();
            v.reverse();
            v
        };
        let t1 = NeighborTable::from_pairs(3, &p1);
        let t2 = NeighborTable::from_pairs(3, &p2);
        assert_eq!(t1, t2);
        sort_pairs(&mut p1);
        assert!(p1.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Serial oracle: sort, then build the CSR in one pass.
    fn oracle(num_keys: usize, pairs: &[Pair]) -> (Vec<usize>, Vec<u32>) {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        let mut offsets = vec![0usize; num_keys + 1];
        for p in &sorted {
            offsets[p.key as usize + 1] += 1;
        }
        for k in 0..num_keys {
            offsets[k + 1] += offsets[k];
        }
        let values = sorted.iter().map(|p| p.value).collect();
        (offsets, values)
    }

    /// SplitMix64: a seeded stream for building test inputs.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A grouping input of one of six shapes: empty, one point, mostly
    /// empty lists, one key holding ≥ 90% of the pairs, a pair count
    /// within a few records of the one-chunk threshold, and heavy
    /// duplication.
    fn grouping_input(shape: u64, seed: u64) -> (usize, Vec<Pair>) {
        let mut st = seed;
        let mut below = |n: u64| (mix(&mut st) % n.max(1)) as u32;
        let (num_keys, len) = match shape {
            0 => (below(50) as usize, 0),
            1 => (1, below(40) as usize),
            2 => (2_000 + below(3_000) as usize, 1 + below(60) as usize),
            3 => (64 + below(400) as usize, 500 + below(4_000) as usize),
            4 => (
                100 + below(900) as usize,
                MIN_CHUNK_RECORDS - 3 + below(7) as usize,
            ),
            _ => (1 + below(30) as usize, below(2_000) as usize),
        };
        let hot = below(num_keys as u64);
        let pairs = (0..len)
            .map(|_| {
                let key = match shape {
                    3 if below(100) < 92 => hot,
                    _ => below(num_keys as u64),
                };
                Pair::new(key, below(num_keys as u64))
            })
            .collect();
        (num_keys, pairs)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn grouping_matches_serial_oracle_for_any_chunk_count(
            shape in 0u64..6,
            seed in 0u64..u64::MAX,
        ) {
            let (num_keys, mut pairs) = grouping_input(shape, seed);
            let (offsets, values) = oracle(num_keys, &pairs);
            let kv = |p: &Pair| (p.key, p.value);
            for chunks in 1..=8 {
                let g = group_by_key_in(chunks, num_keys, &pairs, &kv);
                prop_assert_eq!(&g.offsets, &offsets, "offsets, {} chunks", chunks);
                prop_assert_eq!(&g.values, &values, "values, {} chunks", chunks);
            }
            // The public builder takes the host's own chunk count.
            let table = NeighborTable::from_pairs(num_keys, &pairs);
            prop_assert_eq!(&table.offsets, &offsets);
            prop_assert_eq!(&table.neighbors, &values);
            // Any permutation of the input gives the same table.
            let mut st = seed ^ 0x5EED;
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, (mix(&mut st) % (i as u64 + 1)) as usize);
            }
            for chunks in [1, 3, 8] {
                let g = group_by_key_in(chunks, num_keys, &pairs, &kv);
                prop_assert_eq!(&g.offsets, &offsets);
                prop_assert_eq!(&g.values, &values);
            }
        }
    }

    #[test]
    fn one_chunk_below_the_threshold() {
        assert_eq!(grouping_chunks(0, 0), 1);
        assert_eq!(grouping_chunks(MIN_CHUNK_RECORDS - 1, 10), 1);
        // Every chunk needs as many records as its histogram has keys.
        assert_eq!(
            grouping_chunks(4 * MIN_CHUNK_RECORDS, 10 * MIN_CHUNK_RECORDS),
            1
        );
        let threads = rayon::current_num_threads();
        assert_eq!(grouping_chunks(2 * MIN_CHUNK_RECORDS, 10), threads.min(2));
        assert_eq!(grouping_chunks(usize::MAX / 2, 10), threads);
    }

    #[test]
    #[should_panic(expected = "pair (1, 9) out of range 4")]
    fn range_check_on_a_worker_keeps_its_message() {
        let mut pairs = vec![Pair::new(0, 1); 4_000];
        pairs[3_999] = Pair::new(1, 9);
        let _ = group_by_key_in(4, 4, &pairs, &|p: &Pair| (p.key, p.value));
    }

    #[test]
    fn empty_ranges_and_skew() {
        // One key holds almost every pair, so most key ranges are empty
        // and the fork splits fall on the same offset.
        let mut pairs: Vec<Pair> = (0..50).map(|i| Pair::new(3, i % 7)).collect();
        pairs.push(Pair::new(9, 1));
        pairs.push(Pair::new(9, 1));
        let kv = |p: &Pair| (p.key, p.value);
        for chunks in 1..=8 {
            let g = group_by_key_in(chunks, 10, &pairs, &kv);
            assert_eq!((g.offsets, g.values), oracle(10, &pairs));
        }
    }
}
