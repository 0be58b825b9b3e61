//! Workload partitioning (§6.1) and blocking convergence analysis (§7.6).
//!
//! For data sets exceeding device memory, cuMF_SGD divides the rating
//! matrix into an `i × j` grid ([`BlockGrid`]); feature matrices split into
//! `i` P-segments and `j` Q-segments. Blocks sharing no grid row and no
//! grid column are *independent* (Eq. 6) and can be dispatched to
//! different GPUs.
//!
//! This module owns the segment rule every grid is cut by
//! ([`segment_of`], [`segment_range`]), the independence predicate, the
//! independent-block wave scheduler, and the feasible-update-order
//! enumeration behind Fig 15.

use std::ops::Range;

use cumf_rng::seq::SliceRandom;
use cumf_rng::Rng;

use crate::sched::BlockGrid;

/// Segment index of coordinate `x` when `total` coordinates split into
/// `parts` segments: `x · parts / total`, clamped to the last segment.
/// Public so downstream layers (the serving shards) reproduce the grid's
/// factor-segment layout without holding rating data.
pub fn segment_of(total: u32, parts: u32, x: u32) -> u32 {
    assert!(parts > 0 && total > 0, "empty segmentation");
    bucket(total, parts, x)
}

/// Coordinate range of segment `idx` under [`segment_of`]: segment `b`
/// starts at `⌈b · total / parts⌉`.
pub fn segment_range(total: u32, parts: u32, idx: u32) -> Range<u32> {
    assert!(parts > 0 && idx < parts, "segment {idx} out of {parts}");
    boundary(total, parts, idx)..boundary(total, parts, idx + 1)
}

/// [`segment_of`] without its check, for per-sample loops that check once.
#[inline]
pub(crate) fn bucket(total: u32, parts: u32, x: u32) -> u32 {
    let parts = u64::from(parts);
    ((u64::from(x) * parts) / u64::from(total)).min(parts - 1) as u32
}

/// First coordinate of segment `b`; `total` for `b = parts`.
pub(crate) fn boundary(total: u32, parts: u32, b: u32) -> u32 {
    (u64::from(b) * u64::from(total)).div_ceil(u64::from(parts)) as u32
}

/// Eq. 6: blocks at grid positions `a` and `b` (`(grid row, grid col)`)
/// can update concurrently iff they share neither a grid row nor a grid
/// column.
pub fn independent(a: (u32, u32), b: (u32, u32)) -> bool {
    a.0 != b.0 && a.1 != b.1
}

/// A schedule of block *waves*: in each wave, `gpus` mutually independent
/// blocks run concurrently (one per GPU); `None` means that GPU idles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveSchedule {
    /// `waves[w][g]` = grid cell assigned to GPU `g` in wave `w`.
    pub waves: Vec<Vec<Option<u32>>>,
}

impl WaveSchedule {
    /// Total idle GPU-wave slots (load imbalance of the schedule).
    pub fn idle_slots(&self) -> usize {
        self.waves
            .iter()
            .flat_map(|w| w.iter())
            .filter(|b| b.is_none())
            .count()
    }

    /// Number of waves.
    pub fn len(&self) -> usize {
        self.waves.len()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }
}

/// Builds one epoch's wave schedule: step 2 of §6.1 — "when a GPU is idle,
/// randomly select one matrix block from those independent blocks". Every
/// cell is scheduled exactly once per epoch.
pub fn schedule_epoch<R: Rng>(grid: &BlockGrid, gpus: u32, rng: &mut R) -> WaveSchedule {
    assert!(gpus > 0);
    let mut remaining: Vec<u32> = (0..grid.cells() as u32).collect();
    remaining.shuffle(rng);
    let mut waves = Vec::new();
    while !remaining.is_empty() {
        let mut wave: Vec<Option<u32>> = Vec::with_capacity(gpus as usize);
        let mut chosen: Vec<(u32, u32)> = Vec::with_capacity(gpus as usize);
        for _ in 0..gpus {
            let pick = remaining.iter().position(|&b| {
                let at = grid.cell_pos(b);
                chosen.iter().all(|&c| independent(at, c))
            });
            match pick {
                Some(pos) => {
                    let b = remaining.swap_remove(pos);
                    chosen.push(grid.cell_pos(b));
                    wave.push(Some(b));
                }
                None => wave.push(None),
            }
        }
        waves.push(wave);
    }
    WaveSchedule { waves }
}

/// Fig 15: counts feasible block start orders on an `a × a` grid with `s`
/// always-busy workers.
///
/// A start order (a permutation of all blocks) is *feasible* if blocks can
/// be started in that order such that (1) a block starts only when it is
/// independent of all currently-running blocks and (2) no worker ever
/// idles while unstarted blocks remain (all `s` workers busy whenever
/// possible). Blocks are unit-duration; when a worker finishes it
/// immediately starts the next block in the order. Returns
/// `(feasible, total)` order counts.
///
/// For the paper's 2×2 grid with 2 workers this yields 8 of 24.
pub fn count_feasible_orders(a: u32, s: u32) -> (u64, u64) {
    assert!(a >= 1 && s >= 1);
    assert!(a <= 3, "enumeration is factorial; a <= 3 only");
    let mut blocks: Vec<(u32, u32)> = (0..a).flat_map(|r| (0..a).map(move |c| (r, c))).collect();
    let mut feasible = 0u64;
    let mut total = 0u64;
    permute(&mut blocks, 0, &mut |perm| {
        total += 1;
        if order_is_feasible(perm, s as usize) {
            feasible += 1;
        }
    });
    (feasible, total)
}

fn permute<F: FnMut(&[(u32, u32)])>(items: &mut [(u32, u32)], at: usize, f: &mut F) {
    if at == items.len() {
        f(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, f);
        items.swap(at, i);
    }
}

/// Simulates unit-duration waves: in each wave the next blocks of the
/// order start as long as (a) a worker is free and (b) the block is
/// independent of the blocks already running in this wave. Because blocks
/// are unit duration, all running blocks finish together at wave end.
/// The order is feasible iff every wave (except possibly the last) keeps
/// all `s` workers busy and blocks start exactly in the given order.
fn order_is_feasible(order: &[(u32, u32)], s: usize) -> bool {
    let mut next = 0;
    while next < order.len() {
        // Start as many blocks of the order prefix as possible this wave.
        let mut running: Vec<(u32, u32)> = Vec::with_capacity(s);
        while running.len() < s && next < order.len() {
            let candidate = order[next];
            if running.iter().all(|&r| independent(candidate, r)) {
                running.push(candidate);
                next += 1;
            } else {
                break;
            }
        }
        if running.is_empty() {
            return false; // Head of order conflicts with nothing running: impossible
        }
        let remaining = order.len() - next;
        if running.len() < s && remaining > 0 {
            // A worker idles while work remains: infeasible under the
            // "all workers busy" requirement.
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::CooMatrix;
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::SeedableRng;

    fn matrix(m: u32, n: u32, nnz: usize) -> CooMatrix {
        let mut coo = CooMatrix::new(m, n);
        for t in 0..nnz {
            coo.push((t as u32 * 31) % m, (t as u32 * 17) % n, 1.0);
        }
        coo
    }

    #[test]
    fn independence_rule() {
        let a = (0, 0);
        assert!(independent(a, (1, 1)));
        assert!(!independent(a, (0, 1))); // same row
        assert!(!independent(a, (1, 0))); // same col
        assert!(!independent(a, a));
    }

    #[test]
    fn schedule_covers_each_block_once() {
        let data = matrix(64, 64, 1000);
        let grid = BlockGrid::build(&data, 4, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let sched = schedule_epoch(&grid, 2, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for wave in &sched.waves {
            let blocks: Vec<u32> = wave.iter().flatten().copied().collect();
            for pair in blocks.windows(2) {
                assert!(independent(grid.cell_pos(pair[0]), grid.cell_pos(pair[1])));
            }
            for b in blocks {
                assert!(seen.insert(b), "block {b} scheduled twice");
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn single_gpu_schedule_has_no_idles() {
        let data = matrix(64, 64, 1000);
        let grid = BlockGrid::build(&data, 4, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sched = schedule_epoch(&grid, 1, &mut rng);
        assert_eq!(sched.len(), 4);
        assert_eq!(sched.idle_slots(), 0);
    }

    /// §7.6 / Fig 15: a 2×2 grid with 2 workers admits only 8 of 24 orders.
    #[test]
    fn fig15_two_by_two_grid() {
        let (feasible, total) = count_feasible_orders(2, 2);
        assert_eq!(total, 24);
        assert_eq!(feasible, 8);
    }

    #[test]
    fn single_worker_makes_every_order_feasible() {
        let (feasible, total) = count_feasible_orders(2, 1);
        assert_eq!(feasible, total);
    }

    #[test]
    fn three_by_three_grid_restricts_orders() {
        let (feasible, total) = count_feasible_orders(3, 3);
        assert_eq!(total, 362_880); // 9!
        assert!(feasible > 0);
        // The fraction of feasible orders shrinks as s approaches a.
        let (feasible2, _) = count_feasible_orders(3, 2);
        assert!(feasible < feasible2);
        assert!(feasible2 < total);
    }
}
