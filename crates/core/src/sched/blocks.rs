//! Block schedules: the epochs of the blocking policies (wavefront §5.2,
//! LIBMF's global table §5) computed block by block.
//!
//! Both policies split the rating matrix into a grid and hand each worker
//! whole blocks: a worker sweeps its block's samples one per round, then
//! releases it and claims the next one its policy allows, stalling while
//! none is free. So an epoch is fully described by its *blocks* —
//! `(grid row, grid col, worker, start round, samples)`, sample `j` of a
//! block running at round `start + j` — plus the round in which each
//! worker finds itself exhausted.
//!
//! * [`BlockGrid`] holds the grid: one exact-sized CSR of `u32` sample
//!   indices per cell, and the P-row and Q-column range of every grid row
//!   and column.
//! * `schedule` computes an [`EpochBlocks`] event by event: only the
//!   calls at which a worker finishes a block, or at which a release may
//!   unblock a stalled worker, are simulated; the rounds a worker spends
//!   sweeping a block or stalling in between are implied. The lockstep
//!   order of the round engines is kept exactly: every round calls the
//!   live workers in ascending order, so a block released by worker `a`
//!   in round `t` is visible to worker `b > a` in round `t` and to
//!   `b < a` only in round `t + 1`.
//! * `Replay` turns an [`EpochBlocks`] back into the per-round
//!   [`StreamItem`]s of [`super::UpdateStream::next`], so every consumer of
//!   the round interface (the round engines, [`super::certify`],
//!   [`super::drain_epoch`]) sees the same schedule.
//!
//! The block form is what lets a certified epoch run block-major on OS
//! threads ([`crate::engine::run_block_dag`]): [`EpochBlocks::overlap_free`]
//! checks that no two blocks that share rounds share a grid row or
//! column, and [`EpochBlocks::waits`] lists, for every block, the earlier
//! blocks it must wait for.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use cumf_data::CooMatrix;

use super::StreamItem;

/// An `rows × cols` block grid over a rating matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockGrid {
    rows: u32,
    cols: u32,
    /// First P row of each grid row, then the row count.
    row_bounds: Vec<u32>,
    /// First Q column of each grid column, then the column count.
    col_bounds: Vec<u32>,
    /// `(grid row, grid col)` of each cell.
    cell_pos: Vec<(u32, u32)>,
    /// CSR offsets into `samples`, one per cell plus the end.
    offsets: Vec<u32>,
    /// Sample indices, cell by cell, ascending within a cell.
    samples: Vec<u32>,
}

/// `parts + 1` boundaries of `0..len` split as `i * parts / len` assigns
/// indices: part `b` starts at `⌈b · len / parts⌉`.
fn bounds(len: usize, parts: usize) -> Vec<u32> {
    (0..=parts)
        .map(|b| (b * len).div_ceil(parts) as u32)
        .collect()
}

impl BlockGrid {
    /// Buckets `data` into `rows × cols` cells: P row `u` falls in grid row
    /// `u · rows / m`, Q column `v` in grid column `v · cols / n`. Cell
    /// `r · cols + c` is grid position `(r, c)`.
    pub fn build(data: &CooMatrix, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        assert!(
            u32::try_from(data.nnz()).is_ok(),
            "block grids index samples with u32"
        );
        let (m, n) = (data.rows() as usize, data.cols() as usize);
        let cell_of = |u: u32, v: u32| {
            let r = (u as usize * rows / m).min(rows - 1);
            let c = (v as usize * cols / n).min(cols - 1);
            r * cols + c
        };
        let mut offsets = vec![0u32; rows * cols + 1];
        for (&u, &v) in data.us().iter().zip(data.vs()) {
            offsets[cell_of(u, v) + 1] += 1;
        }
        for c in 0..rows * cols {
            offsets[c + 1] += offsets[c];
        }
        let mut fill = offsets[..rows * cols].to_vec();
        let mut samples = vec![0u32; data.nnz()];
        for (i, (&u, &v)) in data.us().iter().zip(data.vs()).enumerate() {
            let cell = cell_of(u, v);
            samples[fill[cell] as usize] = i as u32;
            fill[cell] += 1;
        }
        BlockGrid {
            rows: rows as u32,
            cols: cols as u32,
            row_bounds: bounds(m, rows),
            col_bounds: bounds(n, cols),
            cell_pos: (0..rows * cols)
                .map(|c| ((c / cols) as u32, (c % cols) as u32))
                .collect(),
            offsets,
            samples,
        }
    }

    /// A grid with explicit bounds and cells `(grid row, grid col,
    /// samples)`, for schedules no policy builds. Checks that every
    /// sample lies in its cell's row and column range, as
    /// [`BlockGrid::build`] guarantees by construction.
    #[cfg(test)]
    pub(crate) fn from_cells(
        data: &CooMatrix,
        row_bounds: Vec<u32>,
        col_bounds: Vec<u32>,
        cells: &[(u32, u32, &[u32])],
    ) -> Self {
        let mut grid = BlockGrid {
            rows: row_bounds.len() as u32 - 1,
            cols: col_bounds.len() as u32 - 1,
            row_bounds,
            col_bounds,
            cell_pos: Vec::new(),
            offsets: vec![0],
            samples: Vec::new(),
        };
        for &(r, c, samples) in cells {
            for &s in samples {
                let e = data.get(s as usize);
                assert!(grid.row_range(r).contains(&e.u) && grid.col_range(c).contains(&e.v));
            }
            grid.cell_pos.push((r, c));
            grid.samples.extend_from_slice(samples);
            grid.offsets.push(grid.samples.len() as u32);
        }
        grid
    }

    /// Grid rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cell_pos.len()
    }

    /// The sample indices of `cell`, ascending.
    #[inline]
    pub fn cell(&self, cell: u32) -> &[u32] {
        let c = cell as usize;
        &self.samples[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// `(grid row, grid col)` of `cell`.
    #[inline]
    pub fn cell_pos(&self, cell: u32) -> (u32, u32) {
        self.cell_pos[cell as usize]
    }

    /// First P row of each grid row, then the row count.
    pub fn row_bounds(&self) -> &[u32] {
        &self.row_bounds
    }

    /// First Q column of each grid column, then the column count.
    pub fn col_bounds(&self) -> &[u32] {
        &self.col_bounds
    }

    /// The P rows of grid row `r`.
    pub fn row_range(&self, r: u32) -> Range<u32> {
        self.row_bounds[r as usize]..self.row_bounds[r as usize + 1]
    }

    /// The Q columns of grid column `c`.
    pub fn col_range(&self, c: u32) -> Range<u32> {
        self.col_bounds[c as usize]..self.col_bounds[c as usize + 1]
    }
}

/// One non-empty block of an epoch: `worker` sweeps the `len` samples of
/// grid cell `cell`, sample `j` in round `start + j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledBlock {
    /// Round of the block's first sample.
    pub start: u64,
    /// The worker sweeping it.
    pub worker: u32,
    /// Its grid cell.
    pub cell: u32,
    /// Its sample count.
    pub len: u32,
}

impl ScheduledBlock {
    /// The round after the block's last sample.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + u64::from(self.len)
    }
}

/// One epoch of a block policy: its non-empty blocks in `(start round,
/// worker)` order, and the round in which each worker is told it is
/// exhausted (`u64::MAX` for a worker that never is — a deadlock).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochBlocks {
    blocks: Vec<ScheduledBlock>,
    exhausted: Vec<u64>,
}

impl EpochBlocks {
    /// An epoch from its blocks (any order) and per-worker exhaustion
    /// rounds.
    pub(crate) fn new(mut blocks: Vec<ScheduledBlock>, exhausted: Vec<u64>) -> Self {
        blocks.sort_by_key(|b| (b.start, b.worker));
        EpochBlocks { blocks, exhausted }
    }

    /// The non-empty blocks, in `(start round, worker)` order.
    pub fn blocks(&self) -> &[ScheduledBlock] {
        &self.blocks
    }

    /// Workers scheduled.
    pub fn workers(&self) -> usize {
        self.exhausted.len()
    }

    /// Lockstep rounds the epoch takes: up to and including the round in
    /// which the last worker is told it is exhausted (`u64::MAX` when a
    /// worker never is).
    pub fn rounds(&self) -> u64 {
        self.exhausted
            .iter()
            .max()
            .map_or(0, |&last| last.saturating_add(1))
    }

    /// Samples scheduled.
    pub fn samples(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.len)).sum()
    }

    /// Worker-round slots spent stalled: every call before a worker's
    /// exhaustion that served no sample. Meaningful only for an epoch
    /// that ends ([`EpochBlocks::rounds`] `< u64::MAX`).
    pub fn stalls(&self) -> u64 {
        let calls = self
            .exhausted
            .iter()
            .fold(0u64, |a, &e| a.saturating_add(e));
        calls - self.samples()
    }

    /// Whether no two blocks that share a round share a grid row or a
    /// grid column. Blocks on distinct grid rows touch disjoint P rows
    /// and blocks on distinct grid columns disjoint Q columns, so such an
    /// epoch is conflict-free sample by sample too.
    pub fn overlap_free(&self, grid: &BlockGrid) -> bool {
        let mut row_free = vec![0u64; grid.rows() as usize];
        let mut col_free = vec![0u64; grid.cols() as usize];
        for b in &self.blocks {
            let (r, c) = grid.cell_pos(b.cell);
            let (r, c) = (r as usize, c as usize);
            if row_free[r] > b.start || col_free[c] > b.start {
                return false;
            }
            row_free[r] = b.end();
            col_free[c] = b.end();
        }
        true
    }

    /// For every block, the index of the previous block on its grid row
    /// and on its grid column: the blocks it must wait for when blocks
    /// run out of round order. Each edge points to a lower index, so
    /// `(start round, worker)` order is a topological order of the waits.
    pub fn waits(&self, grid: &BlockGrid) -> Vec<[Option<u32>; 2]> {
        let mut last_row = vec![None; grid.rows() as usize];
        let mut last_col = vec![None; grid.cols() as usize];
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let (r, c) = grid.cell_pos(b.cell);
                let row = last_row[r as usize].replace(i as u32);
                let col = last_col[c as usize].replace(i as u32);
                [row, col]
            })
            .collect()
    }

    /// Calls `f(round, worker, sample)` for every scheduled sample in
    /// round-major, worker-minor order — the order the round engines
    /// execute them in.
    pub fn round_major(&self, grid: &BlockGrid, mut f: impl FnMut(u64, usize, u32)) {
        // Blocks live in the current round, by worker.
        let mut live: Vec<&ScheduledBlock> = Vec::with_capacity(self.workers());
        let mut next = 0;
        let mut round = 0;
        loop {
            while let Some(b) = self.blocks.get(next).filter(|b| b.start == round) {
                let at = live.partition_point(|l| l.worker < b.worker);
                live.insert(at, b);
                next += 1;
            }
            if live.is_empty() {
                match self.blocks.get(next) {
                    Some(b) => round = b.start,
                    None => return,
                }
                continue;
            }
            for b in &live {
                let j = (round - b.start) as usize;
                f(round, b.worker as usize, grid.cell(b.cell)[j]);
            }
            round += 1;
            live.retain(|b| b.end() > round);
        }
    }
}

/// What a block policy grants a worker asking for work.
pub(crate) enum Claim {
    /// The worker now holds this grid cell.
    Cell(u32),
    /// Nothing is free for it; it stalls.
    Wait,
    /// It has no more work this epoch.
    Done,
}

/// A blocking policy's epoch state: which cell a worker may claim next,
/// and what releasing one frees.
pub(crate) trait BlockPolicy {
    /// `worker` asks for its next block.
    fn claim(&mut self, worker: usize) -> Claim;
    /// `worker` releases `cell`, which it has swept.
    fn release(&mut self, worker: usize, cell: u32);
}

/// Computes one epoch of `policy` for `workers` workers over `grid`, event
/// by event (see the module docs). A call `(round, worker)` is simulated
/// only when the worker finishes a block, or stalls while a release may
/// have freed something for it.
pub(crate) fn schedule(
    policy: &mut impl BlockPolicy,
    workers: usize,
    grid: &BlockGrid,
) -> EpochBlocks {
    let mut blocks = Vec::new();
    let mut exhausted = vec![u64::MAX; workers];
    let mut holding: Vec<Option<u32>> = vec![None; workers];
    let mut stalled = vec![false; workers];
    let mut queued = vec![true; workers];
    let mut calls: BinaryHeap<Reverse<(u64, usize)>> =
        (0..workers).map(|w| Reverse((0, w))).collect();
    while let Some(Reverse((round, w))) = calls.pop() {
        queued[w] = false;
        let mut released = false;
        if let Some(cell) = holding[w].take() {
            policy.release(w, cell);
            released = true;
        }
        loop {
            match policy.claim(w) {
                Claim::Cell(cell) => {
                    let len = grid.cell(cell).len() as u32;
                    if len == 0 {
                        // An empty block is released in the same call.
                        policy.release(w, cell);
                        released = true;
                        continue;
                    }
                    blocks.push(ScheduledBlock {
                        start: round,
                        worker: w as u32,
                        cell,
                        len,
                    });
                    holding[w] = Some(cell);
                    stalled[w] = false;
                    calls.push(Reverse((round + u64::from(len), w)));
                    queued[w] = true;
                }
                Claim::Wait => stalled[w] = true,
                Claim::Done => {
                    exhausted[w] = round;
                    stalled[w] = false;
                }
            }
            break;
        }
        if released {
            // Every stalled worker retries at its next call: later in this
            // round if it comes after `w`, else in the next round.
            for (s, stalled) in stalled.iter().enumerate() {
                if *stalled && !queued[s] {
                    calls.push(Reverse((round + u64::from(s < w), s)));
                    queued[s] = true;
                }
            }
        }
    }
    EpochBlocks::new(blocks, exhausted)
}

/// Replays an [`EpochBlocks`] as [`super::UpdateStream::next`] calls: once
/// per live worker per round, in ascending worker order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Replay {
    /// Calls each worker has made this epoch (its current round).
    calls: Vec<u64>,
    /// Per worker, the index of the first block that may still be its
    /// current or next one.
    cursor: Vec<usize>,
}

impl Replay {
    /// Rewinds to round 0 for `workers` workers.
    pub(crate) fn reset(&mut self, workers: usize) {
        self.calls.clear();
        self.calls.resize(workers, 0);
        self.cursor.clear();
        self.cursor.resize(workers, 0);
    }

    /// `worker`'s item in its next round.
    pub(crate) fn next(
        &mut self,
        epoch: &EpochBlocks,
        grid: &BlockGrid,
        worker: usize,
    ) -> StreamItem {
        let round = self.calls[worker];
        self.calls[worker] += 1;
        if round >= epoch.exhausted[worker] {
            return StreamItem::Exhausted;
        }
        let blocks = &epoch.blocks;
        let mut at = self.cursor[worker];
        while blocks
            .get(at)
            .is_some_and(|b| b.worker as usize != worker || b.end() <= round)
        {
            at += 1;
        }
        self.cursor[worker] = at;
        match blocks.get(at) {
            Some(b) if b.start <= round => {
                StreamItem::Sample(grid.cell(b.cell)[(round - b.start) as usize] as usize)
            }
            _ => StreamItem::Stall,
        }
    }
}

/// Every item [`super::UpdateStream::next`] hands out in one epoch, as
/// `(round, worker, item)`, driven in lockstep until every worker is
/// exhausted.
#[cfg(test)]
pub(crate) fn transcript(stream: &mut dyn super::UpdateStream) -> Vec<(u64, usize, StreamItem)> {
    let mut out = Vec::new();
    let mut done = vec![false; stream.workers()];
    let mut round = 0;
    while done.contains(&false) {
        for (w, d) in done.iter_mut().enumerate().filter(|(_, d)| !**d) {
            let item = stream.next(w);
            *d = item == StreamItem::Exhausted;
            out.push((round, w, item));
        }
        round += 1;
        assert!(round < 1 << 24, "stream did not exhaust");
    }
    out
}

/// Checks `stream`'s current epoch against the `oracle` driven alongside
/// it: the same items round by round, and block-schedule rounds, stalls
/// and round-major samples that match the oracle's transcript.
#[cfg(test)]
pub(crate) fn assert_matches_oracle(
    stream: &mut dyn super::UpdateStream,
    oracle: &mut dyn super::UpdateStream,
) {
    let want = transcript(oracle);
    let (grid, epoch) = stream.blocks().expect("a block stream");
    let (grid, epoch) = (grid.clone(), epoch.clone());
    let rounds = want.last().map_or(0, |&(t, _, _)| t + 1);
    assert_eq!(epoch.rounds(), rounds);
    let stalls = want.iter().filter(|(_, _, i)| *i == StreamItem::Stall);
    assert_eq!(epoch.stalls() as usize, stalls.count());
    let mut samples = Vec::new();
    epoch.round_major(&grid, |t, w, s| {
        samples.push((t, w, StreamItem::Sample(s as usize)));
    });
    let want_samples: Vec<_> = want
        .iter()
        .filter(|(_, _, i)| matches!(i, StreamItem::Sample(_)))
        .copied()
        .collect();
    assert_eq!(samples, want_samples);
    assert_eq!(transcript(stream), want);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CooMatrix {
        let mut coo = CooMatrix::new(10, 7);
        for i in 0..60u32 {
            coo.push((i * 7) % 10, (i * 3) % 7, i as f32);
        }
        coo
    }

    #[test]
    fn grid_buckets_every_sample_into_its_ranges() {
        let data = matrix();
        let grid = BlockGrid::build(&data, 3, 2);
        assert_eq!(grid.row_bounds(), [0, 4, 7, 10]);
        assert_eq!(grid.col_bounds(), [0, 4, 7]);
        let mut seen = Vec::new();
        for cell in 0..grid.cells() as u32 {
            let (r, c) = grid.cell_pos(cell);
            assert_eq!(cell, r * 2 + c);
            let samples = grid.cell(cell);
            assert!(samples.windows(2).all(|w| w[0] < w[1]));
            for &s in samples {
                let e = data.get(s as usize);
                assert!(grid.row_range(r).contains(&e.u), "{e:?} in row {r}");
                assert!(grid.col_range(c).contains(&e.v), "{e:?} in col {c}");
            }
            seen.extend_from_slice(samples);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..60).collect::<Vec<u32>>());
    }

    /// Blocks `(start, worker, cell, len)`.
    fn epoch(blocks: &[(u64, u32, u32, u32)], exhausted: Vec<u64>) -> EpochBlocks {
        let blocks = blocks
            .iter()
            .map(|&(start, worker, cell, len)| ScheduledBlock {
                start,
                worker,
                cell,
                len,
            })
            .collect();
        EpochBlocks::new(blocks, exhausted)
    }

    #[test]
    fn replay_counts_rounds_stalls_and_waits() {
        // A 2x2 grid; cells hold 2, 1, 3 and 2 samples.
        let data = matrix();
        let grid = BlockGrid::from_cells(
            &data,
            vec![0, 5, 10],
            vec![0, 4, 7],
            &[
                (0, 0, &[0, 10]),
                (0, 1, &[2]),
                (1, 0, &[5, 15, 35]),
                (1, 1, &[4, 11]),
            ],
        );
        // Worker 0 sweeps cell 0, stalls a round for grid column 1, then
        // sweeps cell 1; worker 1 sweeps cell 3, then cell 2.
        let e = epoch(
            &[(0, 0, 0, 2), (0, 1, 3, 2), (2, 1, 2, 3), (3, 0, 1, 1)],
            vec![4, 5],
        );
        assert_eq!((e.rounds(), e.samples(), e.stalls()), (6, 8, 1));
        assert!(e.overlap_free(&grid));
        assert_eq!(
            e.waits(&grid),
            [
                [None, None],
                [None, None],
                [Some(1), Some(0)],
                [Some(0), Some(1)]
            ]
        );
        let mut replay = Replay::default();
        replay.reset(2);
        let items: Vec<[StreamItem; 2]> = (0..6)
            .map(|_| [0, 1].map(|w| replay.next(&e, &grid, w)))
            .collect();
        use StreamItem::{Exhausted as X, Sample as S, Stall as W};
        assert_eq!(
            items,
            [
                [S(0), S(4)],
                [S(10), S(11)],
                [W, S(5)],
                [S(2), S(15)],
                [X, S(35)],
                [X, X],
            ]
        );
        let mut order = Vec::new();
        e.round_major(&grid, |t, w, s| order.push((t, w, s)));
        assert_eq!(
            order,
            [
                (0, 0, 0),
                (0, 1, 4),
                (1, 0, 10),
                (1, 1, 11),
                (2, 1, 5),
                (3, 0, 2),
                (3, 1, 15),
                (4, 1, 35)
            ]
        );
        // Sharing grid column 0 in round 1 breaks block disjointness.
        let clash = epoch(&[(0, 0, 0, 2), (1, 1, 2, 3)], vec![2, 4]);
        assert!(!clash.overlap_free(&grid));
    }
}
