//! Batch-Hogwild! (§5.1) — the paper's default single-GPU policy.
//!
//! Each parallel worker grabs `f` *consecutive* samples from the shuffled
//! rating matrix with one atomic counter bump and updates them serially.
//! Because the matrix was shuffled, consecutive storage order is still
//! random in coordinates (Eq. 8's locality argument): the policy gets
//! Hogwild!'s scheduling freedom *and* streaming reads.

use super::{check_workers, StreamItem, UpdateStream};

/// Batch-Hogwild! scheduling: `f`-sample batches off a shared counter.
#[derive(Debug, Clone)]
pub struct BatchHogwildStream {
    n: usize,
    workers: usize,
    batch: usize,
    /// The shared "atomic" counter: next unclaimed sample index.
    next_batch: usize,
    /// Per-worker [cursor, end) within the claimed batch.
    cursors: Vec<(usize, usize)>,
}

impl BatchHogwildStream {
    /// `workers` workers fetching batches of `f = batch` consecutive
    /// samples from `n` shuffled samples. The paper uses f = 256 (≫
    /// cache-line size / sample size = ⌈128/12⌉, per Eq. 8). Panics with
    /// [`BatchHogwildStream::check`]'s message.
    pub fn new(n: usize, workers: usize, batch: usize) -> Self {
        Self::check(workers, batch).unwrap_or_else(|e| panic!("{e}"));
        BatchHogwildStream {
            n,
            workers,
            batch,
            next_batch: 0,
            cursors: vec![(0, 0); workers],
        }
    }

    /// The policy's rules: at least one worker, and a positive batch.
    pub fn check(workers: usize, batch: usize) -> Result<(), String> {
        check_workers(workers)?;
        if batch == 0 {
            return Err("batch size must be positive".into());
        }
        Ok(())
    }

    /// The paper's default batch size.
    pub const DEFAULT_F: usize = 256;
}

impl UpdateStream for BatchHogwildStream {
    fn workers(&self) -> usize {
        self.workers
    }

    fn next(&mut self, worker: usize) -> StreamItem {
        let (cur, end) = &mut self.cursors[worker];
        if cur == end {
            // Claim the next batch (the atomic fetch-add).
            if self.next_batch >= self.n {
                return StreamItem::Exhausted;
            }
            *cur = self.next_batch;
            *end = (self.next_batch + self.batch).min(self.n);
            self.next_batch = *end;
        }
        let i = *cur;
        *cur += 1;
        StreamItem::Sample(i)
    }

    fn begin_epoch(&mut self, _epoch: u32) {
        self.next_batch = 0;
        self.cursors.fill((0, 0));
    }

    fn name(&self) -> &'static str {
        "batch-hogwild"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::drain_epoch;

    #[test]
    fn covers_every_sample_exactly_once() {
        let mut s = BatchHogwildStream::new(1000, 7, 64);
        let seqs = drain_epoch(&mut s, 10_000);
        let mut all: Vec<usize> = seqs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn workers_get_consecutive_runs() {
        let mut s = BatchHogwildStream::new(512, 2, 128);
        let seqs = drain_epoch(&mut s, 10_000);
        for seq in &seqs {
            for pair in seq.chunks(128) {
                for w in pair.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "within a batch indices are consecutive");
                }
            }
        }
    }

    #[test]
    fn interleaving_alternates_batches() {
        // Two workers, batch 4, 16 samples: worker 0 takes [0..4), worker 1
        // takes [4..8), then 0 takes [8..12) etc. (round-robin lockstep).
        let mut s = BatchHogwildStream::new(16, 2, 4);
        assert_eq!(s.next(0), StreamItem::Sample(0));
        assert_eq!(s.next(1), StreamItem::Sample(4));
        assert_eq!(s.next(0), StreamItem::Sample(1));
        assert_eq!(s.next(1), StreamItem::Sample(5));
    }

    #[test]
    fn tail_batch_is_short() {
        let mut s = BatchHogwildStream::new(10, 1, 4);
        let seqs = drain_epoch(&mut s, 100);
        assert_eq!(seqs[0].len(), 10);
    }

    #[test]
    fn epoch_reset_replays() {
        let mut s = BatchHogwildStream::new(100, 3, 16);
        let a = drain_epoch(&mut s, 1000);
        s.begin_epoch(1);
        let b = drain_epoch(&mut s, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn default_f_satisfies_eq8() {
        // f >> ceil(cache_line / sample) = ceil(128/12) = 11.
        assert!(BatchHogwildStream::DEFAULT_F >= 10 * (128usize).div_ceil(12));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let _ = BatchHogwildStream::new(10, 1, 0);
    }
}
