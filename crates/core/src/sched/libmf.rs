//! LIBMF's blocked scheduling with a global table (§5, Fig 5a).
//!
//! The rating matrix is divided into an `a × a` grid. A central table
//! tracks which block-rows and block-columns are busy; an idle worker
//! searches the table for an unprocessed block whose row *and* column are
//! both free (Eq. 6 independence), claims it, and sweeps its samples
//! serially. Every claim is a global critical section — the scalability
//! bottleneck Fig 5(b) demonstrates and cuMF_SGD's policies avoid.
//!
//! This stream reproduces LIBMF's *semantics* (what gets updated when);
//! the *cost* of the critical section is modelled separately by
//! `cumf_gpu_sim::SchedulerModel::GlobalTable`.
//!
//! [`UpdateStream::begin_epoch`] computes the epoch at block granularity
//! ([`super::blocks`]): the table is searched only when a worker finishes
//! a block or a release may have freed one for a stalled worker, in the
//! lockstep order the round engines call workers, so the search draws the
//! same randomness in the same order. [`UpdateStream::next`] replays the
//! schedule sample by sample; [`UpdateStream::blocks`] hands it to the
//! block-major executor.

use cumf_rng::seq::SliceRandom;
use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::CooMatrix;

use super::blocks::{schedule, BlockGrid, BlockPolicy, Claim, EpochBlocks, Replay};
use super::{check_workers, StreamItem, UpdateStream};

/// LIBMF-style global-table block scheduling over an a×a grid.
#[derive(Debug, Clone)]
pub struct LibmfTableStream {
    workers: usize,
    a: usize,
    /// Cell `bi * a + bj` holds the samples of block (bi, bj).
    grid: BlockGrid,
    /// The current epoch's blocks.
    epoch: EpochBlocks,
    replay: Replay,
    seed: u64,
}

/// One epoch of the global table: busy block-rows and block-columns,
/// processed blocks, and the randomness of the table search.
struct Table {
    a: usize,
    row_busy: Vec<bool>,
    col_busy: Vec<bool>,
    processed: Vec<bool>,
    remaining: usize,
    rng: ChaCha8Rng,
    candidates: Vec<usize>,
}

impl BlockPolicy for Table {
    fn claim(&mut self, _worker: usize) -> Claim {
        if self.remaining == 0 {
            return Claim::Done;
        }
        // The table search: all unprocessed blocks whose row and column are
        // free. LIBMF scans the whole table under the lock (O(a²)).
        let a = self.a;
        self.candidates.clear();
        self.candidates.extend(
            (0..a * a)
                .filter(|&b| !self.processed[b] && !self.row_busy[b / a] && !self.col_busy[b % a]),
        );
        self.candidates.shuffle(&mut self.rng);
        match self.candidates.first() {
            Some(&b) => {
                self.row_busy[b / a] = true;
                self.col_busy[b % a] = true;
                Claim::Cell(b as u32)
            }
            None => Claim::Wait,
        }
    }

    fn release(&mut self, _worker: usize, cell: u32) {
        let b = cell as usize;
        self.row_busy[b / self.a] = false;
        self.col_busy[b % self.a] = false;
        self.processed[b] = true;
        self.remaining -= 1;
    }
}

impl LibmfTableStream {
    /// Builds the a×a grid over `data` for `workers` workers. Panics with
    /// [`LibmfTableStream::check`]'s message.
    pub fn new(data: &CooMatrix, workers: usize, a: usize, seed: u64) -> Self {
        Self::check(data, workers, a).unwrap_or_else(|e| panic!("{e}"));
        let mut s = LibmfTableStream {
            workers,
            a,
            grid: BlockGrid::build(data, a, a),
            epoch: EpochBlocks::default(),
            replay: Replay::default(),
            seed,
        };
        s.begin_epoch(0);
        s
    }

    /// The policy's rules: at least one worker, and an `a × a` grid that
    /// [`BlockGrid::check`] accepts over `data`.
    pub fn check(data: &CooMatrix, workers: usize, a: usize) -> Result<(), String> {
        check_workers(workers)?;
        BlockGrid::check(data, a, a)
    }
}

impl UpdateStream for LibmfTableStream {
    fn workers(&self) -> usize {
        self.workers
    }

    fn next(&mut self, w: usize) -> StreamItem {
        self.replay.next(&self.epoch, &self.grid, w)
    }

    fn begin_epoch(&mut self, epoch: u32) {
        let a = self.a;
        let mut table = Table {
            a,
            row_busy: vec![false; a],
            col_busy: vec![false; a],
            processed: vec![false; a * a],
            remaining: a * a,
            rng: ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(epoch) << 32)),
            candidates: Vec::with_capacity(a * a),
        };
        self.epoch = schedule(&mut table, self.workers, &self.grid);
        self.replay.reset(self.workers);
    }

    fn name(&self) -> &'static str {
        "libmf-table"
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

    /// The per-sample state machine that scheduled LIBMF epochs before
    /// block schedules, kept verbatim: the oracle the event-driven
    /// schedule must reproduce.
    #[derive(Debug, Clone)]
    struct Legacy {
        workers: usize,
        a: usize,
        /// blocks[bi * a + bj] = sample indices of block (bi, bj).
        blocks: Vec<Vec<usize>>,
        row_busy: Vec<bool>,
        col_busy: Vec<bool>,
        processed: Vec<bool>,
        remaining: usize,
        /// Per-worker: currently held block and cursor.
        state: Vec<Option<(usize, usize)>>,
        rng: ChaCha8Rng,
        seed: u64,
    }

    impl Legacy {
        fn new(data: &CooMatrix, workers: usize, a: usize, seed: u64) -> Self {
            let m = data.rows() as usize;
            let n = data.cols() as usize;
            let mut blocks = vec![Vec::new(); a * a];
            for (i, e) in data.iter().enumerate() {
                let bi = (e.u as usize * a / m).min(a - 1);
                let bj = (e.v as usize * a / n).min(a - 1);
                blocks[bi * a + bj].push(i);
            }
            let mut s = Legacy {
                workers,
                a,
                blocks,
                row_busy: vec![false; a],
                col_busy: vec![false; a],
                processed: vec![false; a * a],
                remaining: a * a,
                state: vec![None; workers],
                rng: ChaCha8Rng::seed_from_u64(seed),
                seed,
            };
            s.begin_epoch(0);
            s
        }

        /// Attempts to claim a random free independent block for a worker.
        fn claim(&mut self) -> Option<usize> {
            // The table search: all unprocessed blocks whose row and column are
            // free. LIBMF scans the whole table under the lock (O(a²)).
            let mut candidates: Vec<usize> = (0..self.blocks.len())
                .filter(|&b| {
                    !self.processed[b] && !self.row_busy[b / self.a] && !self.col_busy[b % self.a]
                })
                .collect();
            candidates.shuffle(&mut self.rng);
            let b = candidates.first().copied()?;
            self.row_busy[b / self.a] = true;
            self.col_busy[b % self.a] = true;
            Some(b)
        }

        fn release(&mut self, b: usize) {
            self.row_busy[b / self.a] = false;
            self.col_busy[b % self.a] = false;
            self.processed[b] = true;
            self.remaining -= 1;
        }
    }

    impl UpdateStream for Legacy {
        fn workers(&self) -> usize {
            self.workers
        }

        fn next(&mut self, w: usize) -> StreamItem {
            loop {
                match self.state[w] {
                    Some((b, cursor)) => {
                        if cursor < self.blocks[b].len() {
                            self.state[w] = Some((b, cursor + 1));
                            return StreamItem::Sample(self.blocks[b][cursor]);
                        }
                        self.release(b);
                        self.state[w] = None;
                    }
                    None => {
                        if self.remaining == 0 {
                            return StreamItem::Exhausted;
                        }
                        match self.claim() {
                            Some(b) => {
                                self.state[w] = Some((b, 0));
                                // Loop to serve the first sample (empty blocks
                                // release immediately and try again).
                            }
                            None => return StreamItem::Stall,
                        }
                    }
                }
            }
        }

        fn begin_epoch(&mut self, epoch: u32) {
            self.rng = ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(epoch) << 32));
            self.row_busy.fill(false);
            self.col_busy.fill(false);
            self.processed.fill(false);
            self.remaining = self.a * self.a;
            self.state.fill(None);
        }

        fn name(&self) -> &'static str {
            "libmf-table"
        }
    }

    /// The event-driven block schedule equals the per-sample oracle —
    /// items, rounds and stalls — over random shapes and seeds, including
    /// grids with empty blocks and more grid rows than workers.
    #[test]
    fn block_schedule_matches_the_per_sample_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x11bf);
        let (mut wide, mut with_empty) = (0, 0);
        for _ in 0..120 {
            let workers = rng.gen_range(1..7usize);
            let a = rng.gen_range(1..10usize);
            let m = rng.gen_range(a..a * 6 + 1) as u32;
            let n = rng.gen_range(a..a * 6 + 1) as u32;
            let nnz = rng.gen_range(0..400usize);
            // Skewed ids leave some blocks empty.
            let mut data = CooMatrix::new(m, n);
            for _ in 0..nnz {
                let u = rng.gen_range(0..m).min(rng.gen_range(0..m));
                let v = rng.gen_range(0..n).min(rng.gen_range(0..n));
                data.push(u, v, 1.0);
            }
            let seed = rng.gen_range(0..u64::MAX);
            let mut stream = LibmfTableStream::new(&data, workers, a, seed);
            let mut oracle = Legacy::new(&data, workers, a, seed);
            wide += usize::from(a > workers);
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
            wide >= 40 && with_empty >= 40,
            "{wide} with a > workers, {with_empty} with empty blocks"
        );
    }

    fn matrix(m: u32, n: u32, nnz: usize) -> CooMatrix {
        let mut coo = CooMatrix::new(m, n);
        for i in 0..nnz {
            coo.push(
                (i as u32).wrapping_mul(2654435761) % m,
                (i as u32).wrapping_mul(40503) % n,
                1.0,
            );
        }
        coo
    }

    #[test]
    fn covers_every_sample_exactly_once() {
        let data = matrix(60, 60, 1500);
        let mut s = LibmfTableStream::new(&data, 4, 6, 1);
        let seqs = drain_epoch(&mut s, 100_000);
        let mut all: Vec<usize> = seqs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1500).collect::<Vec<_>>());
    }

    /// Eq. 6: concurrently-updated blocks never share a row or a column.
    #[test]
    fn in_flight_blocks_are_independent() {
        let data = matrix(100, 100, 3000);
        let a = 10;
        let mut s = LibmfTableStream::new(&data, 5, a, 2);
        let m = data.rows() as usize;
        let n = data.cols() as usize;
        let mut done = [false; 5];
        let mut guard = 0;
        while !done.iter().all(|&d| d) {
            let mut rows = std::collections::HashSet::new();
            let mut cols = std::collections::HashSet::new();
            for (w, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                match s.next(w) {
                    StreamItem::Sample(i) => {
                        let e = data.get(i);
                        let bi = (e.u as usize * a / m).min(a - 1);
                        let bj = (e.v as usize * a / n).min(a - 1);
                        assert!(rows.insert(bi), "row conflict at block-row {bi}");
                        assert!(cols.insert(bj), "col conflict at block-col {bj}");
                    }
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => *d = true,
                }
            }
            guard += 1;
            assert!(guard < 200_000, "livelock");
        }
    }

    /// With a ≤ workers, at most `a` workers can run; the rest starve —
    /// the §7.6 observation behind Fig 14.
    #[test]
    fn small_grid_starves_excess_workers() {
        let data = matrix(40, 40, 2000);
        let workers = 8;
        let a = 2; // only 2 independent blocks can ever be in flight
        let mut s = LibmfTableStream::new(&data, workers, a, 3);
        let mut active_counts = Vec::new();
        let mut done = vec![false; workers];
        let mut guard = 0;
        while !done.iter().all(|&d| d) {
            let mut active = 0;
            for (w, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                match s.next(w) {
                    StreamItem::Sample(_) => active += 1,
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => *d = true,
                }
            }
            if active > 0 {
                active_counts.push(active);
            }
            guard += 1;
            assert!(guard < 100_000);
        }
        // At any instant at most `a` blocks are held; a round containing a
        // block handoff can briefly show one extra active worker.
        assert!(
            active_counts.iter().all(|&c| c <= a + 1),
            "at most a+1={} workers can be active in a round, saw {:?}",
            a + 1,
            active_counts.iter().max()
        );
        let over = active_counts.iter().filter(|&&c| c > a).count();
        assert!(
            over <= a * a,
            "handoff rounds ({over}) cannot exceed the block count"
        );
    }

    #[test]
    fn epochs_differ_in_block_order() {
        let data = matrix(30, 30, 400);
        let mut s = LibmfTableStream::new(&data, 3, 5, 7);
        let a = drain_epoch(&mut s, 100_000);
        s.begin_epoch(1);
        let b = drain_epoch(&mut s, 100_000);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds matrix")]
    fn oversized_grid_rejected() {
        let data = matrix(4, 4, 10);
        let _ = LibmfTableStream::new(&data, 2, 8, 0);
    }
}
