//! Plain Hogwild! (Recht et al., 2011): every worker independently picks a
//! uniformly random sample each step, with no coordination whatsoever.
//!
//! This is the convergence-theoretic ancestor of batch-Hogwild! (§5.1);
//! the paper notes its weakness is *data locality*, not convergence — each
//! random single-sample fetch drags a whole cache line.

use cumf_rng::ChaCha8Rng;
use cumf_rng::Rng;
use cumf_rng::SeedableRng;

use super::{check_workers, StreamItem, UpdateStream};

/// Uniform lock-free Hogwild! scheduling.
#[derive(Debug, Clone)]
pub struct HogwildStream {
    n: usize,
    workers: usize,
    issued: usize,
    quota: usize,
    rng: ChaCha8Rng,
    seed: u64,
}

impl HogwildStream {
    /// `workers` workers drawing from `n` samples; an epoch issues exactly
    /// `n` updates in total (a full pass in expectation). Panics with
    /// [`HogwildStream::check`]'s message.
    pub fn new(n: usize, workers: usize, seed: u64) -> Self {
        Self::check(workers).unwrap_or_else(|e| panic!("{e}"));
        HogwildStream {
            n,
            workers,
            issued: 0,
            quota: n,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The policy's one rule: at least one worker.
    pub fn check(workers: usize) -> Result<(), String> {
        check_workers(workers)
    }
}

impl UpdateStream for HogwildStream {
    fn workers(&self) -> usize {
        self.workers
    }

    fn next(&mut self, _worker: usize) -> StreamItem {
        if self.n == 0 || self.issued >= self.quota {
            return StreamItem::Exhausted;
        }
        self.issued += 1;
        StreamItem::Sample(self.rng.gen_range(0..self.n))
    }

    fn begin_epoch(&mut self, epoch: u32) {
        self.issued = 0;
        // Fresh, deterministic stream per epoch.
        self.rng = ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(epoch) << 32));
    }

    fn name(&self) -> &'static str {
        "hogwild"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::drain_epoch;

    #[test]
    fn issues_exactly_n_updates() {
        let mut s = HogwildStream::new(1000, 8, 1);
        let seqs = drain_epoch(&mut s, 10_000);
        let total: usize = seqs.iter().map(|v| v.len()).sum();
        assert_eq!(total, 1000);
        assert!(seqs.iter().all(|v| v.iter().all(|&i| i < 1000)));
    }

    #[test]
    fn coverage_is_roughly_uniform() {
        let mut s = HogwildStream::new(100, 4, 2);
        let mut counts = vec![0u32; 100];
        // Draw many epochs with distinct seeds for a frequency check.
        let mut total = 0;
        for e in 0..200 {
            s.begin_epoch(e);
            for seq in drain_epoch(&mut s, 10_000) {
                for i in seq {
                    counts[i] += 1;
                    total += 1;
                }
            }
        }
        let mean = total as f64 / 100.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > mean * 0.7 && (c as f64) < mean * 1.3,
                "sample {i} drawn {c} times vs mean {mean}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_epoch() {
        let mut a = HogwildStream::new(50, 2, 9);
        let mut b = HogwildStream::new(50, 2, 9);
        a.begin_epoch(3);
        b.begin_epoch(3);
        assert_eq!(drain_epoch(&mut a, 1000), drain_epoch(&mut b, 1000));
    }

    #[test]
    fn empty_data_exhausts() {
        let mut s = HogwildStream::new(0, 4, 0);
        assert_eq!(s.next(0), StreamItem::Exhausted);
    }
}
