//! Concurrent-execution engines: how parallel SGD updates actually touch
//! the model.
//!
//! On a GPU, hundreds of thread blocks race on the feature matrices; on
//! this crate's single-core reproduction platform real threads cannot
//! produce representative races. We therefore execute schedules through a
//! deterministic **round-based conflict engine**:
//!
//! * In every round, each non-stalled worker receives one sample from the
//!   [`crate::sched::UpdateStream`].
//! * All workers *read* the factor rows as of the start of the round
//!   (stale reads — what racing Hogwild! workers observe).
//! * Each computes its SGD delta against that snapshot.
//! * All deltas are then *committed additively*.
//!
//! When two workers in a round share a row or column, both corrections are
//! applied even though each was computed assuming it acted alone — the
//! overshoot that makes Hogwild! diverge when `s` is *not* ≪ `min(m, n)`
//! (§7.5). When no collision occurs, a round is exactly equivalent to
//! sequential execution. Conflict-free policies (wavefront, LIBMF blocking)
//! can run in the cheaper [`ExecMode::Sequential`] mode, which the engine
//! verifies is collision-free as it goes.
//!
//! A real-thread executor ([`threaded_hogwild_epoch`]) racing lock-free
//! on atomic f32 cells ([`AtomicFactors`]) backs [`ExecMode::Threaded`]
//! and cross-validates the round engine on multi-core hosts. Every
//! executor here is lock-free, as the paper's kernels are (§5.1
//! batch-Hogwild!, §5.2 wavefront); [`UPDATE_PATHS`] declares their
//! asynchrony shapes for the `cumf-analyze` staleness certifier.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use cumf_data::CooMatrix;

use crate::feature::{Element, FactorMatrix};

/// How parallel updates are applied to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Apply each worker's update immediately, in worker order. Exact for
    /// conflict-free schedules; silently serialises racy ones.
    Sequential,
    /// Round-snapshot reads + additive commits: Hogwild! race semantics
    /// (stale gradients, double-applied corrections on collision).
    StaleAdditive,
    /// Real OS threads racing lock-free on atomic factor cells (ignores
    /// the stream's ordering; unsupported for the biased model).
    Threaded,
}

/// Statistics of one executed epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochStats {
    /// SGD updates applied.
    pub updates: u64,
    /// Lockstep rounds the epoch needed (drives the simulated-time model:
    /// a stalled worker still burns a round slot).
    pub rounds: u64,
    /// Worker-round slots lost to stalls.
    pub stalls: u64,
    /// Rounds in which ≥ 2 workers touched the same P row.
    pub row_collisions: u64,
    /// Rounds in which ≥ 2 workers touched the same Q column.
    pub col_collisions: u64,
}

impl EpochStats {
    /// Fraction of worker-round slots that stalled.
    pub fn stall_fraction(&self) -> f64 {
        let slots = self.updates + self.stalls;
        if slots == 0 {
            0.0
        } else {
            self.stalls as f64 / slots as f64
        }
    }
}

/// Default consecutive-sample claim size for the threaded executor — the
/// paper's `f = 256` ([`crate::sched::BatchHogwildStream::DEFAULT_F`]).
pub const DEFAULT_THREAD_BATCH: usize = crate::sched::BatchHogwildStream::DEFAULT_F;

// ---------------------------------------------------------------------------
// Real-thread Hogwild! (cross-validation executor)
// ---------------------------------------------------------------------------

/// Shared factor storage for lock-free multi-threaded updates: f32 values
/// bit-cast into `AtomicU32` cells, read/written with relaxed ordering —
/// exactly the memory semantics Hogwild! assumes.
#[derive(Debug)]
pub struct AtomicFactors {
    rows: u32,
    k: u32,
    data: Vec<AtomicU32>,
    /// Sanitizer instance id (lockset analysis, feature `sanitize`).
    #[cfg(feature = "sanitize")]
    san_id: u64,
}

impl AtomicFactors {
    /// Builds atomic storage from a plain factor matrix.
    pub fn from_matrix<E: Element>(m: &FactorMatrix<E>) -> Self {
        AtomicFactors {
            rows: m.rows(),
            k: m.k(),
            data: m
                .as_slice()
                .iter()
                .map(|e| AtomicU32::new(e.to_f32().to_bits()))
                .collect(),
            #[cfg(feature = "sanitize")]
            san_id: crate::sanitize::new_instance(),
        }
    }

    /// Copies the atomic state back into a plain matrix.
    pub fn to_matrix<E: Element>(&self) -> FactorMatrix<E> {
        let vals: Vec<f32> = self
            .data
            .iter()
            .map(|a| f32::from_bits(a.load(Ordering::Relaxed)))
            .collect();
        FactorMatrix::from_f32_slice(self.rows, self.k, &vals)
    }

    /// Reads row `r` into `out`.
    pub fn load_row(&self, r: u32, out: &mut [f32]) {
        #[cfg(feature = "sanitize")]
        crate::sanitize::on_access(
            "atomic",
            (self.san_id, r),
            crate::sanitize::AccessKind::Read,
        );
        let k = self.k as usize;
        let base = r as usize * k;
        for (o, cell) in out.iter_mut().zip(&self.data[base..base + k]) {
            *o = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Writes row `r` from `vals` (racy by design).
    pub fn store_row(&self, r: u32, vals: &[f32]) {
        #[cfg(feature = "sanitize")]
        crate::sanitize::on_access(
            "atomic",
            (self.san_id, r),
            crate::sanitize::AccessKind::Write,
        );
        let k = self.k as usize;
        let base = r as usize * k;
        for (cell, &v) in self.data[base..base + k].iter().zip(vals) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Runs one epoch of batch-Hogwild! on real OS threads. Each thread claims
/// `batch`-sample chunks off a shared atomic counter and updates the shared
/// atomic factors lock-free. Returns the number of updates executed.
pub fn threaded_hogwild_epoch(
    data: &CooMatrix,
    p: &Arc<AtomicFactors>,
    q: &Arc<AtomicFactors>,
    threads: usize,
    batch: usize,
    gamma: f32,
    lambda: f32,
) -> u64 {
    assert!(threads > 0 && batch > 0);
    let counter = AtomicUsize::new(0);
    let n = data.nnz();
    let k = p.k as usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let counter = &counter;
            let p = Arc::clone(p);
            let q = Arc::clone(q);
            handles.push(scope.spawn(move || {
                let mut pu = vec![0.0f32; k];
                let mut qv = vec![0.0f32; k];
                let mut done = 0u64;
                loop {
                    let start = counter.fetch_add(batch, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + batch).min(n);
                    for i in start..end {
                        let e = data.get(i);
                        p.load_row(e.u, &mut pu);
                        q.load_row(e.v, &mut qv);
                        let err = e.r - pu.iter().zip(&qv).map(|(a, b)| a * b).sum::<f32>();
                        for j in 0..k {
                            let pj = pu[j];
                            let qj = qv[j];
                            pu[j] = pj + gamma * (err * qj - lambda * pj);
                            qv[j] = qj + gamma * (err * pj - lambda * qj);
                        }
                        p.store_row(e.u, &pu);
                        q.store_row(e.v, &qv);
                        done += 1;
                    }
                }
                done
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    })
}

// ---------------------------------------------------------------------------
// Update-path annotations
// ---------------------------------------------------------------------------

/// Every shipped update path, lifted into the asynchrony IR consumed by
/// the `cumf-analyze` staleness certifier. These annotations live next
/// to the executors they describe; the analyzer
/// instantiates each path, computes its worst-case per-row staleness
/// bound τ, and cross-validates τ by exhaustive interleaving model
/// checking. Keep in sync with the executors: the analyzer panics on
/// drift (a path here with no model, or a model with no path here).
pub const UPDATE_PATHS: &[crate::stale::UpdatePathAnno] = &[
    crate::stale::UpdatePathAnno {
        path: "solver-hogwild",
        footprint: crate::stale::Footprint::SharedRows,
        sync: crate::stale::SyncKind::RoundBarrier,
        anchor: "crates/core/src/engine/exec.rs::stale_additive_epoch",
        note: "lockstep rounds: snapshot reads, additive commits, barrier \
               every round — each of the other W−1 workers publishes at \
               most one write between a read and the write it feeds",
    },
    crate::stale::UpdatePathAnno {
        path: "batch-hogwild-threaded",
        footprint: crate::stale::Footprint::SharedRows,
        sync: crate::stale::SyncKind::EpochJoin,
        anchor: "crates/core/src/concurrent.rs::threaded_hogwild_epoch",
        note: "free-running threads claim batches off a shared counter; \
               the only barrier is the epoch join, so τ is bounded by \
               (W−1) × the per-epoch update quota",
    },
    crate::stale::UpdatePathAnno {
        path: "partitioned-grid",
        footprint: crate::stale::Footprint::DisjointRows,
        sync: crate::stale::SyncKind::GridIndependence,
        anchor: "crates/core/src/multi_gpu.rs::train_partitioned",
        note: "Eq. 6 wave schedule: concurrently-executed blocks share no \
               row or column segment, so cross-writer row sets are \
               disjoint (τ = 0 across blocks)",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::exec::{sequential_epoch, stale_additive_epoch};
    use crate::engine::model::ModelView;
    use crate::sched::{BatchHogwildStream, SerialStream};
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::SeedableRng;

    fn tiny_data() -> CooMatrix {
        let mut coo = CooMatrix::new(20, 20);
        for i in 0..200u32 {
            coo.push(i % 20, (i * 7) % 20, ((i % 5) as f32) - 2.0);
        }
        coo
    }

    fn view<'a>(p: &'a mut FactorMatrix<f32>, q: &'a mut FactorMatrix<f32>) -> ModelView<'a, f32> {
        ModelView { p, q, bias: None }
    }

    fn init(m: u32, n: u32, k: u32) -> (FactorMatrix<f32>, FactorMatrix<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        (
            FactorMatrix::random_init(m, k, &mut rng),
            FactorMatrix::random_init(n, k, &mut rng),
        )
    }

    #[test]
    fn sequential_mode_counts_updates() {
        let data = tiny_data();
        let (mut p, mut q) = init(20, 20, 4);
        let mut stream = SerialStream::new(data.nnz());
        let stats = sequential_epoch(&data, view(&mut p, &mut q), &mut stream, 0.05, 0.01, None);
        assert_eq!(stats.updates, 200);
        assert_eq!(stats.stalls, 0);
        assert_eq!(stats.rounds, 201); // +1 round to observe exhaustion
    }

    #[test]
    fn stale_additive_single_worker_equals_sequential() {
        // With one worker there are no collisions: both modes must produce
        // identical models.
        let data = tiny_data();
        let (mut p1, mut q1) = init(20, 20, 4);
        let (mut p2, mut q2) = (p1.clone(), q1.clone());
        let mut s1 = SerialStream::new(data.nnz());
        let mut s2 = SerialStream::new(data.nnz());
        sequential_epoch(&data, view(&mut p1, &mut q1), &mut s1, 0.05, 0.01, None);
        stale_additive_epoch(&data, view(&mut p2, &mut q2), &mut s2, 0.05, 0.01);
        for r in 0..20 {
            for (a, b) in p1.row(r).iter().zip(p2.row(r)) {
                assert!((a - b).abs() < 1e-6);
            }
            for (a, b) in q1.row(r).iter().zip(q2.row(r)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn collisions_are_detected() {
        // 2 workers on a 1x1 matrix: every round collides on both axes.
        let mut coo = CooMatrix::new(1, 1);
        for _ in 0..10 {
            coo.push(0, 0, 1.0);
        }
        let (mut p, mut q) = init(1, 1, 2);
        let mut stream = BatchHogwildStream::new(coo.nnz(), 2, 1);
        let stats = stale_additive_epoch(&coo, view(&mut p, &mut q), &mut stream, 0.01, 0.0);
        assert_eq!(stats.updates, 10);
        assert!(stats.row_collisions >= 4, "{stats:?}");
        assert!(stats.col_collisions >= 4);
    }

    #[test]
    fn wide_matrix_has_rare_collisions() {
        let mut coo = CooMatrix::new(1000, 1000);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        use cumf_rng::Rng;
        for _ in 0..2000 {
            coo.push(rng.gen_range(0..1000), rng.gen_range(0..1000), 1.0);
        }
        let (mut p, mut q) = init(1000, 1000, 2);
        let mut stream = BatchHogwildStream::new(coo.nnz(), 4, 16);
        let stats = stale_additive_epoch(&coo, view(&mut p, &mut q), &mut stream, 0.01, 0.0);
        // s=4 workers, 1000x1000: collision probability per round ~ 6/1000.
        let frac = (stats.row_collisions + stats.col_collisions) as f64 / stats.rounds as f64;
        assert!(frac < 0.05, "collision fraction {frac}");
    }

    #[test]
    fn stall_fraction() {
        let s = EpochStats {
            updates: 75,
            rounds: 100,
            stalls: 25,
            ..Default::default()
        };
        assert!((s.stall_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(EpochStats::default().stall_fraction(), 0.0);
    }

    #[test]
    fn threaded_hogwild_runs_all_updates() {
        let data = tiny_data();
        let (p0, q0) = init(20, 20, 4);
        let p = Arc::new(AtomicFactors::from_matrix(&p0));
        let q = Arc::new(AtomicFactors::from_matrix(&q0));
        let updates = threaded_hogwild_epoch(&data, &p, &q, 4, 16, 0.05, 0.01);
        assert_eq!(updates, 200);
        // The model must have moved.
        let p_after: FactorMatrix<f32> = p.to_matrix();
        assert_ne!(p_after, p0);
    }

    #[test]
    fn atomic_factors_round_trip() {
        let (p0, _) = init(5, 5, 3);
        let a = AtomicFactors::from_matrix(&p0);
        let back: FactorMatrix<f32> = a.to_matrix();
        assert_eq!(back, p0);
        let mut row = vec![0.0f32; 3];
        a.load_row(2, &mut row);
        assert_eq!(&row[..], p0.row(2));
        a.store_row(2, &[9.0, 8.0, 7.0]);
        a.load_row(2, &mut row);
        assert_eq!(row, vec![9.0, 8.0, 7.0]);
    }
}
