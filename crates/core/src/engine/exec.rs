//! Execution-engine layer: how one epoch's updates touch the model.
//!
//! An [`ExecEngine`] turns a scheduled stream of samples into model
//! mutations under a chosen execution semantics:
//!
//! * [`SequentialEngine`] — apply each update immediately in worker order
//!   (exact for conflict-free schedules);
//! * [`StaleAdditiveEngine`] — the round-based Hogwild! conflict engine
//!   (snapshot reads, additive commits) of [`crate::concurrent`];
//! * [`ThreadedHogwildEngine`] — real OS threads racing on atomic f32
//!   cells (cross-validation on multi-core hosts).
//!
//! All three support the bias-free model; the first two also train the
//! biased model (`μ + b_u + b_v + p·q`), extending the same stale-read /
//! additive-commit semantics to the bias cells.

use std::sync::Arc;

use cumf_data::CooMatrix;

use crate::concurrent::{threaded_hogwild_epoch, AtomicFactors, EpochStats, ExecMode};
use crate::feature::Element;
use crate::kernel::{sgd_delta, sgd_update};
use crate::sched::{Certifier, RoundClaims, StreamItem, UpdateStream};

use super::model::ModelView;

/// An execution semantics for one epoch of scheduled updates.
pub trait ExecEngine<E: Element> {
    /// Runs one epoch of `stream` against the model view.
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats;

    /// Engine name for traces and reports.
    fn name(&self) -> &'static str;
}

/// Immediate in-order application ([`ExecMode::Sequential`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialEngine;

/// Round-snapshot reads + additive commits ([`ExecMode::StaleAdditive`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaleAdditiveEngine;

/// Real-thread lock-free Hogwild! over atomic factors. Ignores the stream's
/// ordering (threads claim `batch`-sample chunks off a shared counter) and
/// does not support the biased model.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedHogwildEngine {
    /// OS threads to spawn.
    pub threads: usize,
    /// Samples claimed per counter grab.
    pub batch: usize,
}

impl<E: Element> ExecEngine<E> for SequentialEngine {
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        sequential_epoch(data, model, stream, gamma, lambda, None)
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

impl<E: Element> ExecEngine<E> for StaleAdditiveEngine {
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        stale_additive_epoch(data, model, stream, gamma, lambda)
    }

    fn name(&self) -> &'static str {
        "stale-additive"
    }
}

impl<E: Element> ExecEngine<E> for ThreadedHogwildEngine {
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        let _ = stream;
        threaded_epoch(data, model, self.threads, self.batch, gamma, lambda)
    }

    fn name(&self) -> &'static str {
        "threaded-hogwild"
    }
}

/// The engine implementing an [`ExecMode`], sized for `workers` parallel
/// workers fetching `batch` samples at a time (both only used by the
/// threaded mode).
pub fn engine_for<E: Element>(
    mode: ExecMode,
    workers: usize,
    batch: usize,
) -> Box<dyn ExecEngine<E>> {
    match mode {
        ExecMode::Sequential => Box::new(SequentialEngine),
        ExecMode::StaleAdditive => Box::new(StaleAdditiveEngine),
        ExecMode::Threaded => Box::new(ThreadedHogwildEngine {
            threads: workers.max(1),
            batch: batch.max(1),
        }),
    }
}

/// One epoch of immediate in-order application. With biases present, each
/// sample updates `b_u`/`b_v` with the prediction error before the factor
/// rows (both against the pre-update values, as in Algorithm 1).
///
/// Sequential execution is only *exact* for conflict-free schedules, so
/// this engine checks the invariant as it goes: every sample claims its
/// P row and Q column in the round's [`RoundClaims`], and rounds in which
/// two workers touch the same row or column are counted in
/// [`EpochStats::row_collisions`]/[`EpochStats::col_collisions`]. Handed a
/// [`Certifier`] (already at [`Certifier::begin_epoch`] for this epoch),
/// the engine runs that certifier's claim scan instead, feeding it every
/// round in execution order: the certifier then proves the executed
/// schedule exactly as [`crate::sched::certify`] would by replaying it,
/// and enforces the prover's per-epoch round bound, so a deadlocking
/// stream panics instead of spinning.
///
/// # Panics
///
/// With a certifier: if the stream schedules a sample out of `data`'s
/// bounds, or an epoch exceeds the certifier's round bound.
pub fn sequential_epoch<E: Element, S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    mut model: ModelView<'_, E>,
    stream: &mut S,
    gamma: f32,
    lambda: f32,
    mut certifier: Option<&mut Certifier>,
) -> EpochStats {
    let s = stream.workers();
    let k = model.p.k() as usize;
    let mut stats = EpochStats::default();
    let mut exhausted = vec![false; s];
    let mut live = s;
    let mut pu = vec![0.0f32; k];
    let mut qv = vec![0.0f32; k];
    let mut claims = RoundClaims::with_capacity(s);
    while live > 0 {
        stats.rounds += 1;
        match certifier.as_deref_mut() {
            Some(c) => c.begin_round(),
            None => claims.clear(),
        }
        let (mut row_collision, mut col_collision) = (false, false);
        for (w, done) in exhausted.iter_mut().enumerate() {
            if *done {
                continue;
            }
            match stream.next(w) {
                StreamItem::Sample(i) => {
                    let (e, clash) = match certifier.as_deref_mut() {
                        Some(c) => c.claim(data, w, i),
                        None => {
                            let e = data.get(i);
                            (e, claims.claim(w, i, e.u, e.v))
                        }
                    };
                    row_collision |= clash.row.is_some();
                    col_collision |= clash.col.is_some();
                    match model.bias.as_deref_mut() {
                        None => {
                            // Split borrows: p and q are distinct matrices.
                            sgd_update(
                                model.p.row_mut(e.u),
                                model.q.row_mut(e.v),
                                e.r,
                                gamma,
                                lambda,
                            );
                        }
                        Some(bias) => {
                            model.p.load_row(e.u, &mut pu);
                            model.q.load_row(e.v, &mut qv);
                            let bu = bias.user[e.u as usize];
                            let bv = bias.item[e.v as usize];
                            let pred = bias.mu
                                + bu
                                + bv
                                + pu.iter().zip(&qv).map(|(a, b)| a * b).sum::<f32>();
                            let err = e.r - pred;
                            bias.user[e.u as usize] = bu + gamma * (err - lambda * bu);
                            bias.item[e.v as usize] = bv + gamma * (err - lambda * bv);
                            for j in 0..k {
                                let pj = pu[j];
                                let qj = qv[j];
                                pu[j] = pj + gamma * (err * qj - lambda * pj);
                                qv[j] = qj + gamma * (err * pj - lambda * qj);
                            }
                            model.p.store_row(e.u, &pu);
                            model.q.store_row(e.v, &qv);
                        }
                    }
                    stats.updates += 1;
                }
                StreamItem::Stall => stats.stalls += 1,
                StreamItem::Exhausted => {
                    *done = true;
                    live -= 1;
                }
            }
        }
        if let Some(c) = certifier.as_deref_mut() {
            c.end_round();
        }
        stats.row_collisions += u64::from(row_collision);
        stats.col_collisions += u64::from(col_collision);
    }
    stats
}

/// Sorts a round's row (or column) ids and reports whether two workers
/// touched the same one.
fn has_duplicate(ids: &mut [u32]) -> bool {
    ids.sort_unstable();
    ids.windows(2).any(|w| w[0] == w[1])
}

/// One epoch of round-snapshot reads + additive commits (the Hogwild!
/// conflict engine — see [`crate::concurrent`] for the semantics). Bias
/// cells, when present, follow the same protocol: read with the round's
/// snapshot, deltas committed additively.
pub fn stale_additive_epoch<E: Element, S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    mut model: ModelView<'_, E>,
    stream: &mut S,
    gamma: f32,
    lambda: f32,
) -> EpochStats {
    let s = stream.workers();
    let k = model.p.k() as usize;
    let mu = model.bias.as_ref().map(|b| b.mu).unwrap_or(0.0);
    let biased = model.bias.is_some();
    let mut stats = EpochStats::default();
    let mut exhausted = vec![false; s];
    let mut live = s;

    // Round buffers, reused across rounds.
    let mut round: Vec<(u32, u32)> = Vec::with_capacity(s); // (u, v) per committed worker
    let mut snap_p = vec![0.0f32; s * k];
    let mut snap_q = vec![0.0f32; s * k];
    let mut dp = vec![0.0f32; s * k];
    let mut dq = vec![0.0f32; s * k];
    let mut ratings: Vec<f32> = Vec::with_capacity(s);
    let mut snap_bu = vec![0.0f32; s];
    let mut snap_bv = vec![0.0f32; s];
    let mut dbu = vec![0.0f32; s];
    let mut dbv = vec![0.0f32; s];
    let mut rows: Vec<u32> = Vec::with_capacity(s);
    let mut cols: Vec<u32> = Vec::with_capacity(s);

    while live > 0 {
        stats.rounds += 1;
        round.clear();
        ratings.clear();
        for (w, done) in exhausted.iter_mut().enumerate() {
            if *done {
                continue;
            }
            match stream.next(w) {
                StreamItem::Sample(i) => {
                    let e = data.get(i);
                    round.push((e.u, e.v));
                    ratings.push(e.r);
                }
                StreamItem::Stall => stats.stalls += 1,
                StreamItem::Exhausted => {
                    *done = true;
                    live -= 1;
                }
            }
        }
        if round.is_empty() {
            continue;
        }
        // Phase 1: snapshot reads (all against pre-round state).
        for (idx, &(u, v)) in round.iter().enumerate() {
            model.p.load_row(u, &mut snap_p[idx * k..(idx + 1) * k]);
            model.q.load_row(v, &mut snap_q[idx * k..(idx + 1) * k]);
            if let Some(bias) = model.bias.as_deref() {
                snap_bu[idx] = bias.user[u as usize];
                snap_bv[idx] = bias.item[v as usize];
            }
        }
        // Collision accounting.
        rows.clear();
        rows.extend(round.iter().map(|&(u, _)| u));
        let row_collision = has_duplicate(&mut rows);
        cols.clear();
        cols.extend(round.iter().map(|&(_, v)| v));
        let col_collision = has_duplicate(&mut cols);
        stats.row_collisions += u64::from(row_collision);
        stats.col_collisions += u64::from(col_collision);
        // Phase 2: compute deltas against the snapshot.
        for idx in 0..round.len() {
            let lo = idx * k;
            let hi = lo + k;
            if biased {
                let sp = &snap_p[lo..hi];
                let sq = &snap_q[lo..hi];
                let pred = mu
                    + snap_bu[idx]
                    + snap_bv[idx]
                    + sp.iter().zip(sq).map(|(a, b)| a * b).sum::<f32>();
                let err = ratings[idx] - pred;
                dbu[idx] = gamma * (err - lambda * snap_bu[idx]);
                dbv[idx] = gamma * (err - lambda * snap_bv[idx]);
                for j in 0..k {
                    dp[lo + j] = gamma * (err * sq[j] - lambda * sp[j]);
                    dq[lo + j] = gamma * (err * sp[j] - lambda * sq[j]);
                }
            } else {
                sgd_delta(
                    &snap_p[lo..hi],
                    &snap_q[lo..hi],
                    ratings[idx],
                    gamma,
                    lambda,
                    &mut dp[lo..hi],
                    &mut dq[lo..hi],
                );
            }
        }
        // Phase 3: additive commit (colliding corrections stack — the
        // Hogwild! overshoot). The snapshot slots are free now and become
        // the accumulators. In a round where no two workers share a P row,
        // each row still holds exactly its snapshot (widening is exact and
        // nobody else wrote it), so the commit skips the reload; otherwise
        // it reloads to stack on the corrections committed before it. The
        // same holds for Q columns.
        for (idx, &(u, v)) in round.iter().enumerate() {
            let (lo, hi) = (idx * k, (idx + 1) * k);
            let acc = &mut snap_p[lo..hi];
            if row_collision {
                model.p.load_row(u, acc);
            }
            for (a, d) in acc.iter_mut().zip(&dp[lo..hi]) {
                *a += d;
            }
            model.p.store_row(u, acc);
            let acc = &mut snap_q[lo..hi];
            if col_collision {
                model.q.load_row(v, acc);
            }
            for (a, d) in acc.iter_mut().zip(&dq[lo..hi]) {
                *a += d;
            }
            model.q.store_row(v, acc);
            if let Some(bias) = model.bias.as_deref_mut() {
                bias.user[u as usize] += dbu[idx];
                bias.item[v as usize] += dbv[idx];
            }
        }
        stats.updates += round.len() as u64;
    }
    stats
}

/// One epoch on real OS threads racing over atomic factor cells (see
/// [`threaded_hogwild_epoch`]). `rounds` is approximated as
/// `ceil(updates / threads)` for the simulated-time models; collision
/// counts are unavailable (the races are real, not replayed).
///
/// # Panics
///
/// Panics when the view carries bias terms: the threaded executor races
/// on factor cells only.
pub fn threaded_epoch<E: Element>(
    data: &CooMatrix,
    model: ModelView<'_, E>,
    threads: usize,
    batch: usize,
    gamma: f32,
    lambda: f32,
) -> EpochStats {
    assert!(
        model.bias.is_none(),
        "threaded Hogwild! does not support the biased model"
    );
    let p = Arc::new(AtomicFactors::from_matrix(model.p));
    let q = Arc::new(AtomicFactors::from_matrix(model.q));
    let updates = threaded_hogwild_epoch(data, &p, &q, threads, batch, gamma, lambda);
    *model.p = p.to_matrix();
    *model.q = q.to_matrix();
    EpochStats {
        updates,
        rounds: updates.div_ceil(threads as u64),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::model::{BiasTerms, EngineModel};
    use crate::half::F16;
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

    fn unbiased_model(seed: u64) -> EngineModel<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        EngineModel::init_unbiased(&tiny_data(), 4, &mut rng)
    }

    fn biased_model(seed: u64) -> EngineModel<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        EngineModel::init_biased(&tiny_data(), 4, &mut rng)
    }

    #[test]
    fn biased_stale_single_worker_matches_sequential() {
        // One worker → no collisions → stale-additive must equal the
        // sequential biased path (modulo the dot-product order, which both
        // paths share: the plain serial sum).
        let data = tiny_data();
        let mut m1 = biased_model(3);
        let mut m2 = m1.clone();
        let mut s1 = SerialStream::new(data.nnz());
        let mut s2 = SerialStream::new(data.nnz());
        sequential_epoch(&data, m1.view(), &mut s1, 0.05, 0.01, None);
        stale_additive_epoch(&data, m2.view(), &mut s2, 0.05, 0.01);
        let b1 = m1.bias.as_ref().unwrap();
        let b2 = m2.bias.as_ref().unwrap();
        for (a, b) in b1.user.iter().zip(&b2.user) {
            assert!((a - b).abs() < 1e-6);
        }
        for (a, b) in b1.item.iter().zip(&b2.item) {
            assert!((a - b).abs() < 1e-6);
        }
        for r in 0..20 {
            for (a, b) in m1.p.row(r).iter().zip(m2.p.row(r)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    /// A small Zipf-skewed data set: 8 batch-Hogwild! workers over 60 rows
    /// and 50 columns collide in many rounds but not in all, so both commit
    /// paths of [`stale_additive_epoch`] run.
    fn collision_heavy() -> cumf_data::synth::SynthDataset {
        cumf_data::synth::generate(&cumf_data::synth::SynthConfig {
            m: 60,
            n: 50,
            k_true: 4,
            train_samples: 3_000,
            test_samples: 300,
            noise_std: 0.1,
            row_skew: 0.8,
            col_skew: 0.8,
            rating_offset: 3.0,
            seed: 23,
        })
    }

    /// Golden `(P digest, Q digest, test-RMSE bits)` of a collision-heavy
    /// unbiased batch-Hogwild! `train()` on the stale-additive engine.
    fn unbiased_golden<E: Element>() -> (u64, u64, u64) {
        use crate::solver::{train, Scheme, SolverConfig};
        let d = collision_heavy();
        let mut config = SolverConfig::new(
            8,
            Scheme::BatchHogwild {
                workers: 8,
                batch: 16,
            },
        );
        config.epochs = 6;
        config.seed = 7;
        config.mode = Some(ExecMode::StaleAdditive);
        let r = train::<E>(&d.train, &d.test, &config, None);
        assert_eq!(r.exec_mode, ExecMode::StaleAdditive);
        let sum = |f: fn(&EpochStats) -> u64| r.epoch_stats.iter().map(f).sum::<u64>();
        let rounds = sum(|s| s.rounds);
        assert!((1..rounds).contains(&sum(|s| s.row_collisions)));
        assert!((1..rounds).contains(&sum(|s| s.col_collisions)));
        let rmse = r.trace.final_rmse().unwrap();
        (r.p.digest(), r.q.digest(), rmse.to_bits())
    }

    /// The same for the biased model, driving the engine epoch by epoch.
    fn biased_golden<E: Element>() -> (u64, u64, u64) {
        let d = collision_heavy();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut m: EngineModel<E> = EngineModel::init_biased(&d.train, 8, &mut rng);
        let mut stream = BatchHogwildStream::new(d.train.nnz(), 8, 16);
        for epoch in 0..6 {
            stream.begin_epoch(epoch);
            stale_additive_epoch(&d.train, m.view(), &mut stream, 0.03, 0.02);
        }
        (m.p.digest(), m.q.digest(), m.rmse(&d.test).to_bits())
    }

    #[test]
    fn stale_additive_golden_digests() {
        // Pinned from the engine before the FP16 conversion rewrite and the
        // snapshot-reusing commit: any flipped bit in either precision, on
        // either model, fails here.
        assert_eq!(
            unbiased_golden::<f32>(),
            (0x4cf7b9ef4bb9a67c, 0x848f0cf5cddfab1c, 0x3fd25a9104b25bf3)
        );
        assert_eq!(
            unbiased_golden::<F16>(),
            (0xc2439dad59a94c60, 0x62a7ba70012adfad, 0x3fd25d19f02b6cd0)
        );
        assert_eq!(
            biased_golden::<f32>(),
            (0xd128f75f0db3a409, 0x19416af6cc3ace76, 0x3fd2f3a1bc78329a)
        );
        assert_eq!(
            biased_golden::<F16>(),
            (0xef092befcaecbfd4, 0x0ea046dea5439eca, 0x3fd2f44cfd8a8e3c)
        );
    }

    #[test]
    fn claim_scan_counts_the_collisions_a_sort_finds() {
        // Both engines consume the same rounds; the sequential engine's
        // claim scan must flag exactly the rounds the stale-additive
        // engine's sort-and-scan does.
        let d = collision_heavy();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let init: EngineModel<f32> = EngineModel::init_unbiased(&d.train, 8, &mut rng);
        let (mut a, mut b) = (init.clone(), init);
        let mut s1 = BatchHogwildStream::new(d.train.nnz(), 8, 16);
        let mut s2 = BatchHogwildStream::new(d.train.nnz(), 8, 16);
        let seq = sequential_epoch(&d.train, a.view(), &mut s1, 0.03, 0.02, None);
        let stale = stale_additive_epoch(&d.train, b.view(), &mut s2, 0.03, 0.02);
        assert_eq!(seq.rounds, stale.rounds);
        assert!((1..seq.rounds).contains(&seq.row_collisions));
        assert_eq!(
            (seq.row_collisions, seq.col_collisions),
            (stale.row_collisions, stale.col_collisions)
        );
    }

    #[test]
    fn threaded_engine_runs_all_updates() {
        let data = tiny_data();
        let mut m = unbiased_model(7);
        let before = m.p.clone();
        let stats = threaded_epoch(&data, m.view(), 4, 16, 0.05, 0.01);
        assert_eq!(stats.updates, 200);
        assert_eq!(stats.rounds, 50);
        assert_ne!(m.p, before);
    }

    #[test]
    #[should_panic(expected = "does not support the biased model")]
    fn threaded_engine_rejects_bias() {
        let data = tiny_data();
        let mut m = unbiased_model(9);
        m.bias = Some(BiasTerms {
            mu: 0.0,
            user: vec![0.0; 20],
            item: vec![0.0; 20],
        });
        let _ = threaded_epoch(&data, m.view(), 2, 8, 0.05, 0.01);
    }

    #[test]
    fn engine_for_covers_every_mode() {
        for (mode, name) in [
            (ExecMode::Sequential, "sequential"),
            (ExecMode::StaleAdditive, "stale-additive"),
            (ExecMode::Threaded, "threaded-hogwild"),
        ] {
            let e = engine_for::<f32>(mode, 4, 64);
            assert_eq!(e.name(), name);
        }
    }

    #[test]
    fn dyn_engine_matches_free_function() {
        let data = tiny_data();
        let mut m1 = unbiased_model(11);
        let mut m2 = m1.clone();
        let mut s1 = SerialStream::new(data.nnz());
        let mut s2 = SerialStream::new(data.nnz());
        let mut engine = engine_for::<f32>(ExecMode::Sequential, 1, 1);
        engine.run_epoch(&data, m1.view(), &mut s1, 0.05, 0.01);
        sequential_epoch(&data, m2.view(), &mut s2, 0.05, 0.01, None);
        assert_eq!(m1.p, m2.p);
        assert_eq!(m1.q, m2.q);
    }
}
