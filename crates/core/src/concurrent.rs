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
//! A `ThreadedHogwild` executor ([`threaded_hogwild_epoch`]) using real OS threads over atomic f32
//! cells is provided as well, for cross-validation on multi-core hosts.

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

/// Default consecutive-sample claim size for the threaded executors — the
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

// ---------------------------------------------------------------------------
// Lock-striped multi-threaded executor (conflict-free by locking)
// ---------------------------------------------------------------------------

/// Shared f32 factor storage protected by striped row locks — the
/// "just take locks" alternative to Hogwild! that shared-memory CPU
/// implementations use when they cannot tolerate races. Each row maps to
/// one of `shards` `std::sync::Mutex` stripes; an update locks its P
/// stripe and Q stripe in canonical order (P side first, then Q side,
/// ties impossible since the matrices are distinct lock arrays), so no
/// deadlock is possible.
///
/// Every acquisition is counted in the observability registry, and
/// acquisitions that found the stripe already held are counted
/// separately — the contention ratio is the measured analogue of the
/// paper's update-conflict probability.
#[derive(Debug)]
pub struct StripedFactors {
    rows: u32,
    k: u32,
    shards: usize,
    locks: Vec<std::sync::Mutex<()>>,
    data: Vec<std::cell::UnsafeCell<f32>>,
    obs_acquired: cumf_obs::Counter,
    obs_contended: cumf_obs::Counter,
    obs_poisoned: cumf_obs::Counter,
    /// Sanitizer instance id (lockset analysis, feature `sanitize`).
    #[cfg(feature = "sanitize")]
    san_id: u64,
}

// SAFETY: all mutable access to `data` rows happens while holding the
// stripe lock covering that row (enforced by the private API below).
unsafe impl Sync for StripedFactors {}
unsafe impl Send for StripedFactors {}

impl StripedFactors {
    /// Builds striped storage from a factor matrix.
    pub fn from_matrix<E: Element>(m: &FactorMatrix<E>, shards: usize) -> Self {
        assert!(shards > 0);
        StripedFactors {
            rows: m.rows(),
            k: m.k(),
            shards,
            locks: (0..shards).map(|_| std::sync::Mutex::new(())).collect(),
            data: m
                .as_slice()
                .iter()
                .map(|e| std::cell::UnsafeCell::new(e.to_f32()))
                .collect(),
            obs_acquired: cumf_obs::counter(
                "cumf_core_stripe_acquisitions_total",
                "Row-stripe lock acquisitions in the lock-striped executor",
            ),
            obs_contended: cumf_obs::counter(
                "cumf_core_stripe_contended_total",
                "Row-stripe acquisitions that found the stripe already held",
            ),
            obs_poisoned: cumf_obs::counter(
                "cumf_core_stripe_poisoned_total",
                "Row-stripe acquisitions that found the stripe poisoned by a panicked writer",
            ),
            #[cfg(feature = "sanitize")]
            san_id: crate::sanitize::new_instance(),
        }
    }

    /// Copies back into a plain matrix (requires exclusive access: `&mut`).
    pub fn into_matrix<E: Element>(self) -> FactorMatrix<E> {
        let vals: Vec<f32> = self.data.into_iter().map(|c| c.into_inner()).collect();
        FactorMatrix::from_f32_slice(self.rows, self.k, &vals)
    }

    #[inline]
    fn stripe(&self, row: u32) -> usize {
        row as usize % self.shards
    }

    /// The stripe pair a two-row update must acquire, in canonical
    /// ascending stripe order regardless of the argument order. This is
    /// the single place the two-row acquisition order is decided, so the
    /// static deadlock pass and the runtime path cannot drift apart.
    #[inline]
    pub fn ordered_stripes(&self, a: u32, b: u32) -> (usize, usize) {
        let (sa, sb) = (self.stripe(a), self.stripe(b));
        (sa.min(sb), sa.max(sb))
    }

    /// Acquires one stripe lock, tallying contention and surfacing
    /// poison. Acquisitions are counted only once the guard is actually
    /// held; a stripe found busy counts as contended, while a stripe
    /// poisoned by a panicked writer is counted separately
    /// (`stripe_poisoned_total`) and propagates a panic — the factors
    /// under it may be torn.
    #[inline]
    fn lock_stripe(&self, stripe: usize) -> std::sync::MutexGuard<'_, ()> {
        let lock = &self.locks[stripe];
        let guard = match lock.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.obs_contended.inc();
                match lock.lock() {
                    Ok(guard) => guard,
                    Err(_) => {
                        self.obs_poisoned.inc();
                        panic!(
                            "factor stripe {stripe} poisoned: a writer panicked while \
                             holding it, the rows it covers may be torn"
                        );
                    }
                }
            }
            Err(std::sync::TryLockError::Poisoned(_)) => {
                self.obs_poisoned.inc();
                panic!(
                    "factor stripe {stripe} poisoned: a writer panicked while \
                     holding it, the rows it covers may be torn"
                );
            }
        };
        self.obs_acquired.inc();
        guard
    }

    /// Runs `f` with a mutable view of row `row` while holding its stripe
    /// lock.
    #[inline]
    fn with_row_locked<R>(&self, row: u32, f: impl FnOnce(&mut [f32]) -> R) -> R {
        let stripe = self.stripe(row);
        let _guard = self.lock_stripe(stripe);
        #[cfg(feature = "sanitize")]
        let _held = crate::sanitize::hold((self.san_id << 16) | stripe as u64);
        #[cfg(feature = "sanitize")]
        crate::sanitize::on_access(
            "striped",
            (self.san_id, row),
            crate::sanitize::AccessKind::Write,
        );
        let k = self.k as usize;
        let base = row as usize * k;
        // SAFETY: the stripe lock serialises all access to rows of this
        // stripe; the returned slice does not escape `f`.
        let slice = unsafe { std::slice::from_raw_parts_mut(self.data[base].get(), k) };
        f(slice)
    }

    /// Runs `f` with mutable views of two *distinct* rows of this matrix
    /// (passed in argument order) while holding both rows' stripe locks.
    ///
    /// The locks are acquired in canonical ascending **stripe** order
    /// ([`Self::ordered_stripes`]), whatever order the rows are given
    /// in, so two concurrent two-row updates can never wait on each
    /// other in a cycle. When both rows share a stripe the lock is taken
    /// once. This is the update shape the online-SGD / fold-in paths
    /// need (two rows of the same factor matrix touched atomically);
    /// the acquisition order is certified by the `cumf-analyze` deadlock
    /// pass (`two-row-update` protocol) and its descending broken twin
    /// is refuted there.
    pub fn with_two_rows_locked<R>(
        &self,
        a: u32,
        b: u32,
        f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
    ) -> R {
        assert_ne!(a, b, "two-row update needs distinct rows (got {a} twice)");
        assert!(
            a < self.rows && b < self.rows,
            "rows ({a}, {b}) out of bounds for {} rows",
            self.rows
        );
        let (lo, hi) = self.ordered_stripes(a, b);
        let _guard_lo = self.lock_stripe(lo);
        let _guard_hi = if hi != lo {
            Some(self.lock_stripe(hi))
        } else {
            None
        };
        #[cfg(feature = "sanitize")]
        let _held_lo = crate::sanitize::hold((self.san_id << 16) | lo as u64);
        #[cfg(feature = "sanitize")]
        let _held_hi = (hi != lo).then(|| crate::sanitize::hold((self.san_id << 16) | hi as u64));
        #[cfg(feature = "sanitize")]
        for row in [a, b] {
            crate::sanitize::on_access(
                "striped",
                (self.san_id, row),
                crate::sanitize::AccessKind::Write,
            );
        }
        let k = self.k as usize;
        // SAFETY: the stripe locks covering both rows are held for the
        // whole call (one lock when the stripes coincide), the rows are
        // distinct so the two k-cell ranges are disjoint, and neither
        // slice escapes `f`.
        let row_a = unsafe { std::slice::from_raw_parts_mut(self.data[a as usize * k].get(), k) };
        let row_b = unsafe { std::slice::from_raw_parts_mut(self.data[b as usize * k].get(), k) };
        f(row_a, row_b)
    }
}

// ---------------------------------------------------------------------------
// Static lock-acquisition site annotations
// ---------------------------------------------------------------------------

/// One statically-declared lock-acquisition site: while holding `held`
/// (`None` at a protocol entry), the anchored code acquires `acquires`.
///
/// These annotations are the instrument-free extraction layer of the
/// `cumf-analyze` deadlock pass: they live next to the code they
/// describe, and the analyzer builds the global lock-order graph from
/// them, proves it acyclic (or refutes it with a cycle witness), and
/// derives the FIFO wait-chain bounds of the liveness certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSiteAnno {
    /// Protocol the site belongs to (one lock-order graph per protocol).
    pub protocol: &'static str,
    /// Lock class held when the acquisition happens (`None` = entry).
    pub held: Option<&'static str>,
    /// Lock class being acquired.
    pub acquires: &'static str,
    /// Source anchor of the acquisition (`file::item`).
    pub anchor: &'static str,
    /// Why the order is what it is.
    pub note: &'static str,
}

/// Every blocking acquisition this module ships, as consumed by the
/// deadlock analyzer. Keep in sync with the executors above: the
/// broken-twin refutations in `cumf-analyze` are what make a drift here
/// visible.
pub const LOCK_SITES: &[LockSiteAnno] = &[
    LockSiteAnno {
        protocol: "striped-epoch",
        held: None,
        acquires: "P.stripe",
        anchor: "crates/core/src/concurrent.rs::striped_locked_epoch",
        note: "per-update entry: the P-side stripe is always taken first",
    },
    LockSiteAnno {
        protocol: "striped-epoch",
        held: Some("P.stripe"),
        acquires: "Q.stripe",
        anchor: "crates/core/src/concurrent.rs::striped_locked_epoch",
        note: "canonical P-then-Q order; the matrices are distinct lock arrays",
    },
    LockSiteAnno {
        protocol: "two-row-update",
        held: None,
        acquires: "stripe.lo",
        anchor: "crates/core/src/concurrent.rs::StripedFactors::with_two_rows_locked",
        note: "entry: the lower-indexed stripe of the pair is taken first",
    },
    LockSiteAnno {
        protocol: "two-row-update",
        held: Some("stripe.lo"),
        acquires: "stripe.hi",
        anchor: "crates/core/src/concurrent.rs::StripedFactors::with_two_rows_locked",
        note: "ascending stripe order via ordered_stripes; equal stripes lock once",
    },
];

/// Every shipped update path, lifted into the asynchrony IR consumed by
/// the `cumf-analyze` staleness certifier. Like [`LOCK_SITES`], these
/// annotations live next to the executors they describe; the analyzer
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
        path: "striped-epoch",
        footprint: crate::stale::Footprint::RowLocked,
        sync: crate::stale::SyncKind::LockRelease,
        anchor: "crates/core/src/concurrent.rs::striped_locked_epoch",
        note: "every read-modify-write holds both row stripes, so the \
               read a write feeds is never stale (τ = 0)",
    },
    crate::stale::UpdatePathAnno {
        path: "two-row-update",
        footprint: crate::stale::Footprint::RowLocked,
        sync: crate::stale::SyncKind::LockRelease,
        anchor: "crates/core/src/concurrent.rs::StripedFactors::with_two_rows_locked",
        note: "both rows locked in ascending stripe order across the \
               whole update — serialised per row pair (τ = 0)",
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

/// One epoch of lock-striped parallel SGD on real OS threads: each thread
/// claims `batch`-sample chunks off a shared counter and performs each
/// update under its rows' stripe locks (P row lock held, then Q row lock —
/// canonical order, deadlock-free). Returns the number of updates.
pub fn striped_locked_epoch(
    data: &CooMatrix,
    p: &StripedFactors,
    q: &StripedFactors,
    threads: usize,
    batch: usize,
    gamma: f32,
    lambda: f32,
) -> u64 {
    assert!(threads > 0 && batch > 0);
    assert_eq!(p.k, q.k, "P and Q must share k");
    let counter = AtomicUsize::new(0);
    let n = data.nnz();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let counter = &counter;
            handles.push(scope.spawn(move || {
                let mut done = 0u64;
                loop {
                    let start = counter.fetch_add(batch, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + batch).min(n) {
                        let e = data.get(i);
                        // Canonical order: P stripe, then Q stripe.
                        p.with_row_locked(e.u, |pu| {
                            q.with_row_locked(e.v, |qv| {
                                crate::kernel::sgd_update(pu, qv, e.r, gamma, lambda);
                            })
                        });
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

#[cfg(test)]
mod striped_tests {
    use super::*;
    use crate::metrics::rmse;
    use cumf_data::synth::{generate, SynthConfig};
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::SeedableRng;

    /// Serialises the tests that take stripes: the acquisition counter is
    /// process-global, so a sibling taking stripes concurrently would move
    /// it between one test's read and its exact assertion.
    static STRIPES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn take_stripes() -> std::sync::MutexGuard<'static, ()> {
        // A should-panic sibling poisons the lock; the guarded state is `()`.
        STRIPES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn striped_epoch_runs_all_updates_and_converges() {
        let _stripes = take_stripes();
        let d = generate(&SynthConfig {
            m: 200,
            n: 150,
            k_true: 3,
            train_samples: 10_000,
            test_samples: 1_000,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 1.0,
            seed: 8,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let p0: FactorMatrix<f32> = FactorMatrix::random_init(200, 5, &mut rng);
        let q0: FactorMatrix<f32> = FactorMatrix::random_init(150, 5, &mut rng);
        let p = StripedFactors::from_matrix(&p0, 64);
        let q = StripedFactors::from_matrix(&q0, 64);
        let mut total = 0;
        for _ in 0..12 {
            total += striped_locked_epoch(&d.train, &p, &q, 4, 64, 0.1, 0.02);
        }
        assert_eq!(total, 12 * 10_000);
        let pm: FactorMatrix<f32> = p.into_matrix();
        let qm: FactorMatrix<f32> = q.into_matrix();
        let r = rmse(&d.test, &pm, &qm);
        assert!(r < 0.25, "striped-lock SGD should converge, got {r}");
    }

    #[test]
    fn striped_storage_round_trips() {
        let _stripes = take_stripes();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(10, 3, &mut rng);
        let s = StripedFactors::from_matrix(&m, 4);
        s.with_row_locked(3, |row| {
            row.copy_from_slice(&[7.0, 8.0, 9.0]);
        });
        let back: FactorMatrix<f32> = s.into_matrix();
        assert_eq!(back.row(3), &[7.0, 8.0, 9.0]);
        assert_eq!(back.row(0), m.row(0));
    }

    #[test]
    fn poisoned_stripe_counts_distinctly_and_acquisition_counts_after_hold() {
        let _stripes = take_stripes();
        cumf_obs::set_enabled(true);
        let acquired = cumf_obs::counter(
            "cumf_core_stripe_acquisitions_total",
            "Row-stripe lock acquisitions in the lock-striped executor",
        );
        let poisoned = cumf_obs::counter(
            "cumf_core_stripe_poisoned_total",
            "Row-stripe acquisitions that found the stripe poisoned by a panicked writer",
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(4, 2, &mut rng);
        let s = StripedFactors::from_matrix(&m, 1);
        let acquired_0 = acquired.get();
        let poisoned_0 = poisoned.get();
        // A writer panicking under the stripe poisons it (one successful
        // acquisition).
        let join = std::thread::scope(|scope| {
            scope
                .spawn(|| s.with_row_locked(0, |_| panic!("writer dies mid-update")))
                .join()
        });
        assert!(join.is_err());
        // The next acquisition must surface the poison distinctly: the
        // poisoned counter ticks, the acquisition counter does NOT (the
        // guard was never held).
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.with_row_locked(1, |row| row[0])
        }));
        let err = *attempt.unwrap_err().downcast::<String>().unwrap();
        assert!(err.contains("poisoned"), "{err}");
        assert_eq!(poisoned.get() - poisoned_0, 1);
        assert_eq!(
            acquired.get() - acquired_0,
            1,
            "only the writer's successful acquisition may be counted"
        );
    }

    #[test]
    fn two_row_update_acquires_ascending_stripes() {
        let _stripes = take_stripes();
        // The canonical order is a pure function of the (unordered) row
        // pair: sorted by stripe index and symmetric in the arguments —
        // the property the deadlock pass certifies statically.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(64, 2, &mut rng);
        let s = StripedFactors::from_matrix(&m, 7);
        use cumf_rng::Rng;
        for _ in 0..200 {
            let a = rng.gen_range(0u32..64);
            let b = rng.gen_range(0u32..64);
            let (lo, hi) = s.ordered_stripes(a, b);
            assert!(lo <= hi, "stripes out of order for rows ({a}, {b})");
            assert_eq!(
                (lo, hi),
                s.ordered_stripes(b, a),
                "order must not depend on argument order"
            );
        }
        // Argument order is preserved for the data even when the stripe
        // order swaps: rows 8 and 3 map to stripes 1 and 3, so the lock
        // order is (1, 3) but the slices arrive as (row 8, row 3).
        s.with_two_rows_locked(8, 3, |ra, rb| {
            ra.copy_from_slice(&[8.0, 8.0]);
            rb.copy_from_slice(&[3.0, 3.0]);
        });
        // Same-stripe pair (rows 2 and 9 are both stripe 2): locked once.
        s.with_two_rows_locked(2, 9, |ra, rb| {
            ra[0] = 2.0;
            rb[0] = 9.0;
        });
        let back: FactorMatrix<f32> = s.into_matrix();
        assert_eq!(back.row(8), &[8.0, 8.0]);
        assert_eq!(back.row(3), &[3.0, 3.0]);
        assert_eq!(back.row(2)[0], 2.0);
        assert_eq!(back.row(9)[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_row_update_rejects_duplicate_row() {
        let _stripes = take_stripes();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(4, 2, &mut rng);
        let s = StripedFactors::from_matrix(&m, 2);
        s.with_two_rows_locked(1, 1, |_, _| {});
    }

    #[test]
    fn two_row_heavy_contention_is_deadlock_free() {
        let _stripes = take_stripes();
        // Half the threads update (0, 1), half (1, 0): under a naive
        // argument-order acquisition this is the ABBA pattern; the
        // canonical ascending-stripe order must let it finish.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(2, 2, &mut rng);
        let s = StripedFactors::from_matrix(&m, 2);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    let (a, b) = if t % 2 == 0 { (0, 1) } else { (1, 0) };
                    for _ in 0..2_000 {
                        s.with_two_rows_locked(a, b, |ra, rb| {
                            ra[0] += 1.0;
                            rb[1] += 1.0;
                        });
                    }
                });
            }
        });
        let back: FactorMatrix<f32> = s.into_matrix();
        // 8 threads x 2000 updates each touched cell (a, 0) exactly once
        // per update: the totals prove no update was lost or torn.
        let total = (back.row(0)[0] - m.row(0)[0]) + (back.row(1)[0] - m.row(1)[0]);
        assert!((total - 16_000.0).abs() < 1e-3, "lost updates: {total}");
    }

    #[test]
    fn lock_sites_name_real_protocols() {
        // The annotation table is consumed by the deadlock analyzer;
        // entries must anchor into this file and every `held` class must
        // appear as an `acquires` of the same protocol (no dangling
        // hold-edges).
        for site in LOCK_SITES {
            assert!(site.anchor.contains("concurrent.rs"), "{site:?}");
            if let Some(held) = site.held {
                assert!(
                    LOCK_SITES
                        .iter()
                        .any(|s| s.protocol == site.protocol && s.acquires == held),
                    "dangling held class {held} in {site:?}"
                );
            }
        }
    }

    #[test]
    fn heavy_contention_is_deadlock_free() {
        let _stripes = take_stripes();
        // All samples share one row and one column: every update contends
        // on the same two stripes. Must finish (canonical lock order).
        let mut coo = CooMatrix::new(2, 2);
        for _ in 0..2_000 {
            coo.push(0, 0, 1.0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p0: FactorMatrix<f32> = FactorMatrix::random_init(2, 3, &mut rng);
        let q0: FactorMatrix<f32> = FactorMatrix::random_init(2, 3, &mut rng);
        let p = StripedFactors::from_matrix(&p0, 2);
        let q = StripedFactors::from_matrix(&q0, 2);
        let done = striped_locked_epoch(&coo, &p, &q, 8, 16, 0.01, 0.0);
        assert_eq!(done, 2_000);
    }
}
