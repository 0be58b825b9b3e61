//! Alternating Least Squares — the cuMF_ALS comparator (§7.4).
//!
//! ALS alternately fixes one factor matrix and solves the other exactly:
//! for each user `u`, `p_u = (Σ_{v∈R_u} q_v q_vᵀ + λ N_u I)⁻¹ Σ r_{u,v} q_v`
//! (and symmetrically for items). Each epoch costs
//! `O(N·k² + (m+n)·k³)` compute versus SGD's `O(N·k)` — the reason the
//! paper finds SGD's epochs ~4X faster in wall clock even though ALS needs
//! fewer of them.

use cumf_data::{CooMatrix, CsrMatrix};
use cumf_gpu_sim::GpuSpec;

use cumf_core::feature::FactorMatrix;
use cumf_core::metrics::{rmse, Trace, TracePoint};
use cumf_core::solver::check_problem;

use crate::linalg::{spd_solve, syrk_accumulate};

/// ALS solver configuration.
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// Feature dimension.
    pub k: u32,
    /// Regularisation λ (weighted by each row/column's sample count, the
    /// "weighted-λ" convention both cuMF_ALS and LIBMF use).
    pub lambda: f32,
    /// Epochs (one epoch = one P sweep + one Q sweep).
    pub epochs: u32,
    /// RNG seed for initialisation.
    pub seed: u64,
}

impl AlsConfig {
    /// Defaults matching the SGD solver's conventions.
    pub fn new(k: u32) -> Self {
        AlsConfig {
            k,
            lambda: 0.05,
            epochs: 10,
            seed: 42,
        }
    }
}

/// Result of an ALS run.
#[derive(Debug, Clone)]
pub struct AlsResult {
    /// Learned row factors.
    pub p: FactorMatrix<f32>,
    /// Learned column factors.
    pub q: FactorMatrix<f32>,
    /// Convergence trace.
    pub trace: Trace,
}

/// Performance model of one ALS epoch on a (simulated) GPU: memory
/// `O(N·k)` like SGD, compute `O(2N·k² + (m+n)·k³/3)` — on modern GPUs
/// ALS is compute-bound, which is exactly why its epochs run slower (§7.4).
#[derive(Debug, Clone)]
pub struct AlsTimeModel {
    /// Achieved FLOP rate of the batched solves, flops/s. cuMF_ALS reports
    /// a few TFLOPS on TITAN X; 2.0e12 reproduces the paper's ~4X
    /// epoch-time gap against cuMF_SGD at k=128.
    pub flops_per_sec: f64,
    /// Effective memory bandwidth, bytes/s.
    pub bandwidth: f64,
}

impl AlsTimeModel {
    /// Model for a GPU spec at full occupancy.
    pub fn for_gpu(gpu: &GpuSpec) -> Self {
        AlsTimeModel {
            flops_per_sec: 2.0e12 * (gpu.peak_bw / 360.0e9),
            bandwidth: gpu.effective_bw(gpu.max_workers()),
        }
    }

    /// Seconds for one epoch on an m×n problem with N samples at rank k.
    pub fn epoch_seconds(&self, m: u64, n: u64, nnz: u64, k: u32) -> f64 {
        let k = k as f64;
        let flops = 2.0 * nnz as f64 * k * k + (m + n) as f64 * k * k * k / 3.0;
        let bytes = nnz as f64 * (12.0 + 2.0 * k * 4.0);
        (flops / self.flops_per_sec).max(bytes / self.bandwidth)
    }
}

/// Trains ALS, evaluating test RMSE each epoch. `time` attaches simulated
/// seconds per epoch (pass `None` for epoch-indexed traces only).
pub fn train_als(
    train: &CooMatrix,
    test: &CooMatrix,
    config: &AlsConfig,
    time: Option<&AlsTimeModel>,
) -> AlsResult {
    check_problem(train, config.k).unwrap_or_else(|e| panic!("{e}"));
    use cumf_rng::SeedableRng;
    let mut rng = cumf_rng::ChaCha8Rng::seed_from_u64(config.seed);
    let mut p: FactorMatrix<f32> = FactorMatrix::random_init(train.rows(), config.k, &mut rng);
    let mut q: FactorMatrix<f32> = FactorMatrix::random_init(train.cols(), config.k, &mut rng);

    let by_row = CsrMatrix::from_coo(train);
    let by_col = CsrMatrix::from_coo_transposed(train);

    let epoch_secs = time
        .map(|t| {
            t.epoch_seconds(
                train.rows() as u64,
                train.cols() as u64,
                train.nnz() as u64,
                config.k,
            )
        })
        .unwrap_or(0.0);

    let mut trace = Trace::default();
    let mut updates = 0u64;
    for epoch in 0..config.epochs {
        solve_side(&by_row, &q, &mut p, config.lambda);
        solve_side(&by_col, &p, &mut q, config.lambda);
        updates += 2 * train.nnz() as u64;
        let test_rmse = rmse(test, &p, &q);
        trace.push(TracePoint {
            epoch: epoch + 1,
            updates,
            rmse: test_rmse,
            seconds: epoch_secs * (epoch + 1) as f64,
        });
    }
    AlsResult { p, q, trace }
}

/// One half-sweep: for every row `u` of `ratings` (CSR over the fixed
/// side), solve the k×k normal equations against `fixed` and write the
/// result into `solved`.
fn solve_side(
    ratings: &CsrMatrix,
    fixed: &FactorMatrix<f32>,
    solved: &mut FactorMatrix<f32>,
    lambda: f32,
) {
    let k = fixed.k() as usize;
    let mut a = vec![0.0f64; k * k];
    let mut b = vec![0.0f64; k];
    let mut x = vec![0.0f64; k];
    for (u, cols, vals) in ratings.iter_rows() {
        a.iter_mut().for_each(|v| *v = 0.0);
        b.iter_mut().for_each(|v| *v = 0.0);
        for (&v, &r) in cols.iter().zip(vals) {
            let qv = fixed.row(v);
            x.iter_mut().zip(qv).for_each(|(xe, qe)| *xe = *qe as f64);
            syrk_accumulate(&mut a, k, &x);
            for (be, &qe) in b.iter_mut().zip(qv) {
                *be += r as f64 * qe as f64;
            }
        }
        // Weighted regularisation: λ · N_u on the diagonal.
        let reg = lambda as f64 * cols.len() as f64;
        for i in 0..k {
            a[i * k + i] += reg;
        }
        spd_solve(&mut a, k, &mut b).expect("ALS normal equations are SPD");
        let row: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        solved.store_row(u, &row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::{generate, SynthConfig};
    use cumf_gpu_sim::{P100_PASCAL, TITAN_X_MAXWELL};

    fn dataset() -> cumf_data::synth::SynthDataset {
        generate(&SynthConfig {
            m: 300,
            n: 200,
            k_true: 4,
            train_samples: 15_000,
            test_samples: 1_500,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 1.0,
            seed: 31,
        })
    }

    #[test]
    fn als_converges_fast_in_epochs() {
        let d = dataset();
        // Weighted-λ regularisation: 0.05·N_u is strong shrinkage on this
        // small planted set; 0.01 matches the noise level.
        let cfg = AlsConfig {
            lambda: 0.01,
            ..AlsConfig::new(6)
        };
        let r = train_als(&d.train, &d.test, &cfg, None);
        // ALS should be near the floor within a handful of epochs
        // ("ALS converges faster [per epoch] than SGD", §1).
        let rmse5 = r.trace.points[4].rmse;
        assert!(rmse5 < 0.15, "ALS epoch-5 RMSE {rmse5}");
        // And monotone non-increasing (exact block minimisation).
        for w in r.trace.points.windows(2) {
            assert!(
                w[1].rmse <= w[0].rmse + 1e-3,
                "ALS got worse: {} -> {}",
                w[0].rmse,
                w[1].rmse
            );
        }
    }

    #[test]
    fn als_beats_one_epoch_of_sgd() {
        use cumf_core::solver::{train, Scheme, SolverConfig};
        let d = dataset();
        let als = train_als(
            &d.train,
            &d.test,
            &AlsConfig {
                epochs: 1,
                ..AlsConfig::new(6)
            },
            None,
        );
        let mut sgd_cfg = SolverConfig::new(6, Scheme::Serial);
        sgd_cfg.epochs = 1;
        let sgd = train::<f32>(&d.train, &d.test, &sgd_cfg, None);
        assert!(
            als.trace.final_rmse().unwrap() < sgd.trace.final_rmse().unwrap(),
            "one ALS epoch must beat one SGD epoch"
        );
    }

    #[test]
    fn time_model_epochs_slower_than_sgd() {
        // §7.4: ALS epochs run slower due to O(N k² + (m+n) k³) compute.
        let tm = AlsTimeModel::for_gpu(&TITAN_X_MAXWELL);
        let als_epoch = tm.epoch_seconds(480_190, 17_771, 99_072_112, 128);
        let sgd_epoch = 99_072_112.0 * 1036.0 / TITAN_X_MAXWELL.effective_bw(768);
        let ratio = als_epoch / sgd_epoch;
        assert!(
            ratio > 3.0 && ratio < 15.0,
            "ALS epoch should be several times slower: ratio {ratio}"
        );
    }

    #[test]
    fn pascal_time_model_is_faster() {
        let m = AlsTimeModel::for_gpu(&TITAN_X_MAXWELL);
        let p = AlsTimeModel::for_gpu(&P100_PASCAL);
        assert!(
            p.epoch_seconds(1000, 1000, 100_000, 64) < m.epoch_seconds(1000, 1000, 100_000, 64)
        );
    }

    #[test]
    fn handles_empty_rows_and_cols() {
        // Users/items with no ratings keep their init values; solver must
        // not crash on them.
        let mut train = CooMatrix::new(10, 10);
        train.push(0, 0, 1.0);
        train.push(5, 5, 2.0);
        let mut test = CooMatrix::new(10, 10);
        test.push(0, 0, 1.0);
        let r = train_als(&train, &test, &AlsConfig::new(3), None);
        assert!(r.trace.final_rmse().unwrap().is_finite());
    }
}
