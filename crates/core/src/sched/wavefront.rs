//! Wavefront-update (§5.2) — the paper's blocking-based GPU policy.
//!
//! The rating matrix is split into an `s × c` grid (`s` = workers). Worker
//! `w` owns grid row `w` and walks its blocks in a per-epoch column
//! sequence; before entering a block it must hold that block's *column
//! lock* — a one-dimensional, local check, in contrast with LIBMF's global
//! two-dimensional table. A worker that finishes a block early moves on as
//! soon as its next column frees up, which bounds load imbalance.
//!
//! ## Deadlock freedom
//!
//! Column sequences are rotations of one shared per-epoch permutation
//! (worker `w` starts at offset `w · c / s`). All workers then traverse the
//! same cyclic order; a waits-for edge from worker A to worker B means B
//! holds the column one step ahead of A's position, so any waits-for cycle
//! of length L would need `L ≡ 0 (mod c)` — impossible for `L ≤ s < c`.
//! The constructor therefore requires `c ≥ 2s` (the paper's own example
//! uses c = 2s: 4 workers, 8 columns).
//!
//! ## Block schedule
//!
//! The grid is one CSR of `u32` sample indices ([`super::BlockGrid`]).
//! [`UpdateStream::begin_epoch`] computes the whole epoch at block
//! granularity ([`super::blocks`]): who holds which column from which
//! round, and which round each worker runs dry, without stepping through
//! every sample and stall. [`UpdateStream::next`] replays that schedule,
//! one sample per worker per round, and [`UpdateStream::blocks`] hands it
//! to the block-major executor.

use cumf_rng::seq::SliceRandom;
use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::CooMatrix;

use super::blocks::{schedule, BlockGrid, BlockPolicy, Claim, EpochBlocks, Replay};
use super::{check_workers, StreamItem, UpdateStream};

/// Wavefront-update scheduling over an s×c block grid.
#[derive(Debug, Clone)]
pub struct WavefrontStream {
    workers: usize,
    cols: usize,
    /// Cell `w * cols + c` holds the samples of block (w, c).
    grid: BlockGrid,
    /// Per-worker rotation offset into the epoch's column permutation.
    offsets: Vec<usize>,
    /// The current epoch's blocks.
    epoch: EpochBlocks,
    replay: Replay,
    seed: u64,
}

/// One epoch's column locks: worker `w` walks `perm` from `offsets[w]`,
/// one wave per block.
struct ColumnLocks<'a> {
    perm: &'a [usize],
    offsets: &'a [usize],
    wave: Vec<usize>,
    locked: Vec<bool>,
}

impl BlockPolicy for ColumnLocks<'_> {
    fn claim(&mut self, w: usize) -> Claim {
        let cols = self.perm.len();
        if self.wave[w] >= cols {
            return Claim::Done;
        }
        let col = self.perm[(self.offsets[w] + self.wave[w]) % cols];
        if self.locked[col] {
            return Claim::Wait;
        }
        self.locked[col] = true;
        Claim::Cell((w * cols + col) as u32)
    }

    fn release(&mut self, w: usize, cell: u32) {
        self.locked[cell as usize % self.perm.len()] = false;
        self.wave[w] += 1;
    }
}

impl WavefrontStream {
    /// Builds the grid over `data` with `workers` block-rows and `cols`
    /// block-columns. Panics with [`WavefrontStream::check`]'s message.
    pub fn new(data: &CooMatrix, workers: usize, cols: usize, seed: u64) -> Self {
        Self::check(data, workers, cols).unwrap_or_else(|e| panic!("{e}"));
        let mut stream = WavefrontStream {
            workers,
            cols,
            grid: BlockGrid::build(data, workers, cols),
            offsets: (0..workers).map(|w| w * cols / workers).collect(),
            epoch: EpochBlocks::default(),
            replay: Replay::default(),
            seed,
        };
        stream.begin_epoch(0);
        stream
    }

    /// The policy's rules: at least one worker, `cols ≥ 2 · workers` (see
    /// module docs), and a `workers × cols` grid that
    /// [`BlockGrid::check`] accepts over `data`.
    pub fn check(data: &CooMatrix, workers: usize, cols: usize) -> Result<(), String> {
        check_workers(workers)?;
        if cols < 2 * workers {
            return Err(format!(
                "wavefront needs cols >= 2*workers for deadlock freedom \
                 (got {cols} cols, {workers} workers)"
            ));
        }
        BlockGrid::check(data, workers, cols)
    }
}

impl UpdateStream for WavefrontStream {
    fn workers(&self) -> usize {
        self.workers
    }

    fn next(&mut self, w: usize) -> StreamItem {
        self.replay.next(&self.epoch, &self.grid, w)
    }

    fn begin_epoch(&mut self, epoch: u32) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(epoch) << 32));
        let mut perm: Vec<usize> = (0..self.cols).collect();
        perm.shuffle(&mut rng);
        let mut locks = ColumnLocks {
            perm: &perm,
            offsets: &self.offsets,
            wave: vec![0; self.workers],
            locked: vec![false; self.cols],
        };
        self.epoch = schedule(&mut locks, self.workers, &self.grid);
        self.replay.reset(self.workers);
    }

    fn name(&self) -> &'static str {
        "wavefront"
    }

    fn blocks(&self) -> Option<(&BlockGrid, &EpochBlocks)> {
        Some((&self.grid, &self.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::blocks::assert_matches_oracle;
    use crate::sched::drain_epoch;
    use cumf_rng::Rng;

    /// The per-sample state machine that scheduled wavefront epochs before
    /// block schedules, kept verbatim: the oracle the event-driven
    /// schedule must reproduce.
    #[derive(Debug, Clone)]
    struct Legacy {
        workers: usize,
        cols: usize,
        /// blocks[w * cols + c] = sample indices of block (w, c).
        blocks: Vec<Vec<usize>>,
        /// Shared per-epoch column permutation.
        perm: Vec<usize>,
        /// Per-worker rotation offset into `perm`.
        offsets: Vec<usize>,
        /// locks[col] = worker currently holding the column.
        locks: Vec<Option<usize>>,
        /// Per-worker progress: (wave index, cursor, holding column).
        state: Vec<WorkerState>,
        seed: u64,
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct WorkerState {
        wave: usize,
        cursor: usize,
        holding: Option<usize>,
    }

    impl Legacy {
        fn new(data: &CooMatrix, workers: usize, cols: usize, seed: u64) -> Self {
            let m = data.rows() as usize;
            let n = data.cols() as usize;
            let mut blocks = vec![Vec::new(); workers * cols];
            for (i, e) in data.iter().enumerate() {
                let bw = (e.u as usize * workers / m).min(workers - 1);
                let bc = (e.v as usize * cols / n).min(cols - 1);
                blocks[bw * cols + bc].push(i);
            }
            let mut stream = Legacy {
                workers,
                cols,
                blocks,
                perm: (0..cols).collect(),
                offsets: (0..workers).map(|w| w * cols / workers).collect(),
                locks: vec![None; cols],
                state: vec![WorkerState::default(); workers],
                seed,
            };
            stream.begin_epoch(0);
            stream
        }

        /// The column worker `w` targets at its current wave.
        fn target_col(&self, w: usize) -> usize {
            self.perm[(self.offsets[w] + self.state[w].wave) % self.cols]
        }
    }

    impl UpdateStream for Legacy {
        fn workers(&self) -> usize {
            self.workers
        }

        fn next(&mut self, w: usize) -> StreamItem {
            loop {
                let st = self.state[w];
                match st.holding {
                    Some(col) => {
                        let block = &self.blocks[w * self.cols + col];
                        if st.cursor < block.len() {
                            let i = block[st.cursor];
                            self.state[w].cursor += 1;
                            return StreamItem::Sample(i);
                        }
                        // Block finished: release the column, move to the
                        // next wave.
                        debug_assert_eq!(self.locks[col], Some(w));
                        self.locks[col] = None;
                        self.state[w].holding = None;
                        self.state[w].wave += 1;
                        self.state[w].cursor = 0;
                    }
                    None => {
                        if st.wave >= self.cols {
                            return StreamItem::Exhausted;
                        }
                        let col = self.target_col(w);
                        match self.locks[col] {
                            None => {
                                self.locks[col] = Some(w);
                                self.state[w].holding = Some(col);
                                // Loop: serve the first sample (or release an
                                // empty block immediately).
                            }
                            Some(_) => return StreamItem::Stall,
                        }
                    }
                }
            }
        }

        fn begin_epoch(&mut self, epoch: u32) {
            let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(epoch) << 32));
            self.perm = (0..self.cols).collect();
            self.perm.shuffle(&mut rng);
            self.locks.fill(None);
            self.state.fill(WorkerState::default());
        }

        fn name(&self) -> &'static str {
            "wavefront"
        }
    }

    /// The event-driven block schedule equals the per-sample oracle —
    /// items, rounds and stalls — over random shapes and seeds, including
    /// grids with empty blocks and `cols == 2 · workers`.
    #[test]
    fn block_schedule_matches_the_per_sample_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x3afe);
        let (mut tight, mut with_empty) = (0, 0);
        for case in 0..120 {
            let workers = rng.gen_range(1..7usize);
            let cols = if case % 3 == 0 {
                2 * workers
            } else {
                rng.gen_range(2 * workers..3 * workers + 4)
            };
            let m = rng.gen_range(workers..workers * 8 + 1) as u32;
            let n = rng.gen_range(cols..cols * 5 + 1) as u32;
            let nnz = rng.gen_range(0..400usize);
            // Skewed ids leave some blocks empty.
            let mut data = CooMatrix::new(m, n);
            for _ in 0..nnz {
                let u = rng.gen_range(0..m).min(rng.gen_range(0..m));
                let v = rng.gen_range(0..n).min(rng.gen_range(0..n));
                data.push(u, v, 1.0);
            }
            let seed = rng.gen_range(0..u64::MAX);
            let mut stream = WavefrontStream::new(&data, workers, cols, seed);
            let mut oracle = Legacy::new(&data, workers, cols, seed);
            tight += usize::from(cols == 2 * workers);
            with_empty += usize::from(
                (0..stream.grid.cells() as u32).any(|c| stream.grid.cell(c).is_empty()),
            );
            for epoch in 0..3 {
                stream.begin_epoch(epoch);
                oracle.begin_epoch(epoch);
                assert_matches_oracle(&mut stream, &mut oracle);
            }
        }
        assert!(
            tight >= 40 && with_empty >= 40,
            "{tight} tight, {with_empty} with empty blocks"
        );
    }

    fn matrix(m: u32, n: u32, nnz: usize) -> CooMatrix {
        let mut coo = CooMatrix::new(m, n);
        for i in 0..nnz {
            coo.push(
                (i as u32 * 7919) % m,
                (i as u32 * 104729) % n,
                (i % 5) as f32,
            );
        }
        coo
    }

    #[test]
    fn covers_every_sample_exactly_once() {
        let data = matrix(64, 64, 2000);
        let mut s = WavefrontStream::new(&data, 4, 8, 1);
        let seqs = drain_epoch(&mut s, 100_000);
        let mut all: Vec<usize> = seqs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn workers_stay_in_their_block_rows() {
        let data = matrix(64, 64, 2000);
        let mut s = WavefrontStream::new(&data, 4, 8, 2);
        let seqs = drain_epoch(&mut s, 100_000);
        for (w, seq) in seqs.iter().enumerate() {
            for &i in seq {
                let u = data.get(i).u as usize;
                let bw = (u * 4 / 64).min(3);
                assert_eq!(bw, w, "sample {i} (row {u}) served by worker {w}");
            }
        }
    }

    /// The central §5.2 invariant: at no instant do two workers update
    /// blocks in the same column.
    #[test]
    fn no_two_workers_share_a_column() {
        let data = matrix(128, 128, 5000);
        let mut s = WavefrontStream::new(&data, 8, 16, 3);
        let n = data.cols() as usize;
        let mut done = [false; 8];
        let mut guard = 0;
        while !done.iter().all(|&d| d) {
            let mut cols_this_round = std::collections::HashSet::new();
            for (w, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                match s.next(w) {
                    StreamItem::Sample(i) => {
                        let v = data.get(i).v as usize;
                        let bc = (v * 16 / n).min(15);
                        assert!(
                            cols_this_round.insert(bc),
                            "two workers updated block-column {bc} in one round"
                        );
                    }
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => *d = true,
                }
            }
            guard += 1;
            assert!(guard < 100_000, "deadlock");
        }
    }

    #[test]
    fn epochs_reshuffle_but_still_cover() {
        let data = matrix(32, 32, 500);
        let mut s = WavefrontStream::new(&data, 2, 4, 4);
        let a: Vec<Vec<usize>> = drain_epoch(&mut s, 100_000);
        s.begin_epoch(1);
        let b: Vec<Vec<usize>> = drain_epoch(&mut s, 100_000);
        let flat = |v: &Vec<Vec<usize>>| {
            let mut f: Vec<usize> = v.iter().flatten().copied().collect();
            f.sort_unstable();
            f
        };
        assert_eq!(flat(&a), flat(&b), "same coverage");
        assert_ne!(a, b, "different order across epochs");
    }

    #[test]
    fn rotated_offsets_spread_workers() {
        let data = matrix(64, 64, 100);
        let s = WavefrontStream::new(&data, 4, 8, 0);
        assert_eq!(s.offsets, vec![0, 2, 4, 6]);
        assert_eq!(s.grid.cells(), 32);
    }

    #[test]
    #[should_panic(expected = "deadlock freedom")]
    fn too_few_columns_rejected() {
        let data = matrix(16, 16, 10);
        let _ = WavefrontStream::new(&data, 4, 4, 0);
    }

    #[test]
    fn single_worker_degenerates_to_blocked_serial() {
        let data = matrix(16, 16, 200);
        let mut s = WavefrontStream::new(&data, 1, 2, 5);
        let seqs = drain_epoch(&mut s, 10_000);
        assert_eq!(seqs[0].len(), 200);
    }
}
