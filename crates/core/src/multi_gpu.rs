//! Multi-GPU / out-of-core training (§6).
//!
//! For data sets that exceed one device's memory, the solver partitions R
//! into an `i × j` [`BlockGrid`] (the same grid the wavefront and LIBMF
//! streams block by), schedules waves of mutually-independent cells across
//! `g` (simulated) GPUs, executes each cell's SGD updates in place with the
//! single-GPU engine, and accounts time through the transfer/compute
//! pipeline model of `cumf-gpu-sim` (H2D of the block + its P/Q segments,
//! compute, D2H of the segments, with §6.2's copy/compute overlap).
//!
//! Because concurrently-scheduled blocks are independent (Eq. 6), their
//! updates touch disjoint P/Q rows: executing them back-to-back in program
//! order is *numerically identical* to executing them in parallel, so
//! convergence results are exact while timing comes from the machine model.
//!
//! This module is a thin client of the layered [`crate::engine`]: the block
//! scheduling/execution lives in
//! [`PartitionedBackend`], the pipeline
//! clock in [`BackendTime`], and the epoch loop
//! in [`EpochPipeline`]. That seam is what
//! lets the partitioned path train the *biased* model too (set
//! [`MultiGpuConfig::bias`]) — a combination the pre-engine monolith could
//! not express.

use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::CooMatrix;
use cumf_gpu_sim::{GpuSpec, LinkSpec, RatingAccess, SgdUpdateCost};

use crate::engine::{
    BackendTime, BiasTerms, DivergenceGuard, EngineModel, EpochObserver, EpochPipeline,
    PartitionedBackend,
};
use crate::feature::{Element, FactorMatrix};
use crate::kernel::precision_of;
use crate::lrate::Schedule;
use crate::metrics::Trace;
use crate::sched::{BatchHogwildStream, BlockGrid};
use crate::solver::check_problem;

/// Configuration of a partitioned multi-GPU run.
#[derive(Debug, Clone)]
pub struct MultiGpuConfig {
    /// Feature dimension.
    pub k: u32,
    /// Regularisation λ.
    pub lambda: f32,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Epochs to run.
    pub epochs: u32,
    /// Grid rows (P-segments).
    pub grid_i: u32,
    /// Grid columns (Q-segments).
    pub grid_j: u32,
    /// Number of GPUs.
    pub gpus: u32,
    /// Parallel workers (thread blocks) per GPU.
    pub workers_per_gpu: u32,
    /// Batch-Hogwild! fetch size within a block.
    pub batch: u32,
    /// RNG seed.
    pub seed: u64,
    /// Abort when test RMSE exceeds this.
    pub divergence_ceiling: f64,
    /// If false, disable §6.2's transfer/compute overlap (ablation).
    pub overlap: bool,
    /// Enforce the §7.6 rule `grid ≥ gpus×gpus... (i ≥ 2·gpus and
    /// j ≥ 2·gpus)` strictly; set false to reproduce the failure modes.
    pub enforce_grid_rule: bool,
    /// Train the biased model (`μ + b_u + b_v + p·q`) instead of the plain
    /// factorization.
    pub bias: bool,
}

impl MultiGpuConfig {
    /// Defaults mirroring the paper's Hugewiki single-GPU staging setup.
    pub fn new(k: u32, grid_i: u32, grid_j: u32, gpus: u32) -> Self {
        MultiGpuConfig {
            k,
            lambda: 0.05,
            schedule: Schedule::paper_default(0.08, 0.3),
            epochs: 10,
            grid_i,
            grid_j,
            gpus,
            workers_per_gpu: 64,
            batch: 64,
            seed: 42,
            divergence_ceiling: 1e3,
            overlap: true,
            enforce_grid_rule: false,
            bias: false,
        }
    }

    /// Every rule a partitioned run on `train` relies on: `k > 0` and a
    /// non-empty training set, at least one GPU, the §7.6 grid rule when
    /// enforced, then [`BlockGrid::check`] and the per-cell
    /// [`BatchHogwildStream::check`].
    pub fn check(&self, train: &CooMatrix) -> Result<(), String> {
        check_problem(train, self.k)?;
        if self.gpus == 0 {
            return Err("need at least one GPU".into());
        }
        // §7.6: "when cuMF_SGD uses two GPUs, R should at least be divided
        // into 4×4 blocks".
        let need = self.gpus.saturating_mul(2);
        if self.enforce_grid_rule && self.gpus > 1 && (self.grid_i < need || self.grid_j < need) {
            return Err(format!(
                "grid {}x{} too small for {} GPUs (need >= {need}x{need})",
                self.grid_i, self.grid_j, self.gpus
            ));
        }
        BlockGrid::check(train, self.grid_i as usize, self.grid_j as usize)?;
        BatchHogwildStream::check(self.workers_per_gpu as usize, self.batch as usize)
    }
}

/// Timing summary of one multi-GPU epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochTiming {
    /// Simulated seconds for the epoch (max over GPUs, plus sync).
    pub seconds: f64,
    /// Pure compute seconds (max over GPUs).
    pub compute_seconds: f64,
    /// Pure transfer seconds (max over GPUs).
    pub transfer_seconds: f64,
    /// GPU-wave slots that idled for lack of independent blocks.
    pub idle_slots: usize,
}

/// Result of a partitioned run.
#[derive(Debug, Clone)]
pub struct MultiGpuResult<E: Element> {
    /// Learned row factors.
    pub p: FactorMatrix<E>,
    /// Learned column factors.
    pub q: FactorMatrix<E>,
    /// Bias terms, when [`MultiGpuConfig::bias`] was set.
    pub bias: Option<BiasTerms>,
    /// Convergence trace (RMSE vs simulated time).
    pub trace: Trace,
    /// Per-epoch timing breakdown.
    pub timings: Vec<EpochTiming>,
    /// True if training diverged.
    pub diverged: bool,
}

/// What every partitioned run starts from: the grid, the seeded initial
/// model (biased when [`MultiGpuConfig::bias`] is set), the per-update
/// cost at `E`'s precision, and the seed's RNG advanced past the model's
/// draws.
pub(crate) fn partitioned_setup<E: Element>(
    train: &CooMatrix,
    config: &MultiGpuConfig,
) -> (BlockGrid, EngineModel<E>, SgdUpdateCost, ChaCha8Rng) {
    let grid = BlockGrid::build(train, config.grid_i as usize, config.grid_j as usize);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let model = if config.bias {
        EngineModel::init_biased(train, config.k, &mut rng)
    } else {
        EngineModel::init_unbiased(train, config.k, &mut rng)
    };
    let cost = SgdUpdateCost {
        k: config.k,
        precision: precision_of::<E>(),
        rating_access: RatingAccess::Streamed,
    };
    (grid, model, cost, rng)
}

/// Trains with the partitioned multi-GPU pipeline on the given (simulated)
/// GPU and interconnect. Panics with [`MultiGpuConfig::check`]'s message;
/// [`crate::faults::TrainSupervisor::train_partitioned`] returns it.
pub fn train_partitioned<E: Element>(
    train: &CooMatrix,
    test: &CooMatrix,
    config: &MultiGpuConfig,
    gpu: &GpuSpec,
    link: &LinkSpec,
) -> MultiGpuResult<E> {
    config.check(train).unwrap_or_else(|e| panic!("{e}"));
    let (grid, mut model, cost, rng) = partitioned_setup::<E>(train, config);
    let mut backend = PartitionedBackend::new(
        train,
        &grid,
        config.gpus,
        config.workers_per_gpu,
        config.batch,
        config.overlap,
        cost,
        gpu,
        link,
        rng,
    );
    let mut time = BackendTime;
    let mut guard = DivergenceGuard::new(config.divergence_ceiling);
    let mut observers: Vec<&mut dyn EpochObserver<E>> = vec![&mut guard];

    let pipeline = EpochPipeline {
        label: "partitioned",
        epochs: config.epochs,
        lambda: config.lambda,
        schedule: config.schedule.clone(),
    };
    let run = pipeline.run(
        &mut model,
        &mut backend,
        &mut time,
        &mut observers,
        test,
        None,
    );

    MultiGpuResult {
        p: model.p,
        q: model.q,
        bias: model.bias,
        trace: run.trace,
        timings: run.timings,
        diverged: run.diverged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, SupervisorConfig, TrainSupervisor};
    use crate::half::F16;
    use cumf_data::synth::{generate, SynthConfig};
    use cumf_gpu_sim::{PCIE3_X16, TITAN_X_MAXWELL};

    fn dataset(m: u32, n: u32, train: usize) -> cumf_data::synth::SynthDataset {
        generate(&SynthConfig {
            m,
            n,
            k_true: 4,
            train_samples: train,
            test_samples: train / 10,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 1.0,
            seed: 21,
        })
    }

    fn config(i: u32, j: u32, gpus: u32) -> MultiGpuConfig {
        let mut c = MultiGpuConfig::new(6, i, j, gpus);
        c.epochs = 10;
        c.workers_per_gpu = 8;
        c.batch = 32;
        c.schedule = Schedule::paper_default(0.1, 0.1);
        c.lambda = 0.02;
        c
    }

    /// `(P digest, Q digest, final-RMSE bits, summed epoch-seconds bits)`.
    fn pin<E: Element>(
        p: &FactorMatrix<E>,
        q: &FactorMatrix<E>,
        trace: &Trace,
        timings: &[EpochTiming],
    ) -> (u64, u64, u64, u64) {
        let seconds: f64 = timings.iter().map(|t| t.seconds).sum();
        let rmse = trace.final_rmse().expect("an evaluated epoch");
        (p.digest(), q.digest(), rmse.to_bits(), seconds.to_bits())
    }

    fn golden<E: Element>(c: &MultiGpuConfig) -> (u64, u64, u64, u64) {
        let d = dataset(200, 150, 6_000);
        let r = train_partitioned::<E>(&d.train, &d.test, c, &TITAN_X_MAXWELL, &PCIE3_X16);
        pin(&r.p, &r.q, &r.trace, &r.timings)
    }

    /// Pins the partitioned path bit for bit: grid bucketing, wave
    /// schedules (advancing and epoch-seeded), block execution and the
    /// pipeline clock. Any flipped bit in P, Q, the RMSE or the simulated
    /// seconds fails here.
    #[test]
    fn partitioned_golden_digests() {
        let mut c = config(4, 4, 1);
        c.epochs = 3;
        assert_eq!(
            golden::<f32>(&c),
            (
                0x12f72ba4ed9ca949,
                0x20f4d361c2071087,
                0x3fe0857eb1e17402,
                0x3f51f192085d0bce
            )
        );
        assert_eq!(
            golden::<F16>(&c),
            (
                0xe43ee4262aeac61a,
                0x0422258bd07005f1,
                0x3fe08614cb3673e0,
                0x3f4a713db74d43ca
            )
        );
        let mut biased = config(4, 4, 2);
        biased.epochs = 3;
        biased.bias = true;
        assert_eq!(
            golden::<f32>(&biased),
            (
                0xd9680ad389b74d9e,
                0xc0ec45f37e302dab,
                0x3fe09cfed2d4a98d,
                0x3f5309cbee75576a
            )
        );
        let mut ruled = config(8, 8, 2);
        ruled.epochs = 3;
        ruled.enforce_grid_rule = true;
        assert_eq!(
            golden::<f32>(&ruled),
            (
                0x59c7df415d185998,
                0x0092484c380f81a9,
                0x3fe0b34e882636bc,
                0x3f69c2345ca231d0
            )
        );
        let d = dataset(200, 150, 6_000);
        let sup = TrainSupervisor::new(SupervisorConfig::default(), FaultPlan::default());
        let r = sup
            .train_partitioned::<f32>(&d.train, &d.test, &ruled, &TITAN_X_MAXWELL, &PCIE3_X16)
            .expect("a fault-free run");
        assert_eq!(
            pin(&r.p, &r.q, &r.trace, &r.timings),
            (
                0x7be83131d4dc21a8,
                0xc75baa5c36091a11,
                0x3fe050dd5fa269c0,
                0x3f6985f116701532
            )
        );
    }

    #[test]
    fn single_gpu_partitioned_converges() {
        let d = dataset(400, 300, 20_000);
        let r = train_partitioned::<f32>(
            &d.train,
            &d.test,
            &config(4, 1, 1),
            &TITAN_X_MAXWELL,
            &PCIE3_X16,
        );
        assert!(!r.diverged);
        assert!(
            r.trace.final_rmse().unwrap() < 0.25,
            "rmse {}",
            r.trace.final_rmse().unwrap()
        );
        assert!(r.timings.iter().all(|t| t.seconds > 0.0));
        assert!(r.bias.is_none());
    }

    #[test]
    fn partitioned_matches_unpartitioned_quality() {
        let d = dataset(400, 300, 20_000);
        let part = train_partitioned::<f32>(
            &d.train,
            &d.test,
            &config(4, 4, 1),
            &TITAN_X_MAXWELL,
            &PCIE3_X16,
        );
        let whole = train_partitioned::<f32>(
            &d.train,
            &d.test,
            &config(1, 1, 1),
            &TITAN_X_MAXWELL,
            &PCIE3_X16,
        );
        let a = part.trace.final_rmse().unwrap();
        let b = whole.trace.final_rmse().unwrap();
        assert!((a - b).abs() < 0.08, "partitioned {a} vs whole {b}");
    }

    #[test]
    fn two_gpus_same_quality_less_time_per_epoch() {
        let d = dataset(600, 600, 30_000);
        let one = train_partitioned::<f32>(
            &d.train,
            &d.test,
            &config(8, 8, 1),
            &TITAN_X_MAXWELL,
            &PCIE3_X16,
        );
        let two = train_partitioned::<f32>(
            &d.train,
            &d.test,
            &config(8, 8, 2),
            &TITAN_X_MAXWELL,
            &PCIE3_X16,
        );
        assert!(!two.diverged);
        // Same convergence quality...
        let a = one.trace.final_rmse().unwrap();
        let b = two.trace.final_rmse().unwrap();
        assert!((a - b).abs() < 0.08, "1-gpu {a} vs 2-gpu {b}");
        // ...but faster epochs (sub-linear: transfers + sync, §7.7).
        let t1: f64 = one.timings.iter().map(|t| t.seconds).sum();
        let t2: f64 = two.timings.iter().map(|t| t.seconds).sum();
        assert!(t2 < t1, "2 GPUs {t2}s should beat 1 GPU {t1}s");
        assert!(t2 > t1 / 2.0, "scaling must be sub-linear, got {t1}/{t2}");
    }

    #[test]
    fn overlap_beats_no_overlap() {
        let d = dataset(400, 300, 20_000);
        let mut on = config(8, 1, 1);
        on.overlap = true;
        let mut off = config(8, 1, 1);
        off.overlap = false;
        let r_on = train_partitioned::<f32>(&d.train, &d.test, &on, &TITAN_X_MAXWELL, &PCIE3_X16);
        let r_off = train_partitioned::<f32>(&d.train, &d.test, &off, &TITAN_X_MAXWELL, &PCIE3_X16);
        let t_on: f64 = r_on.timings.iter().map(|t| t.seconds).sum();
        let t_off: f64 = r_off.timings.iter().map(|t| t.seconds).sum();
        assert!(t_on < t_off, "overlap {t_on} must beat serial {t_off}");
        // Same numerics either way.
        assert_eq!(
            r_on.trace.final_rmse().unwrap(),
            r_off.trace.final_rmse().unwrap()
        );
    }

    #[test]
    fn grid_rule_enforced_when_requested() {
        let d = dataset(100, 100, 1000);
        let mut c = config(2, 2, 2);
        c.enforce_grid_rule = true;
        let result = std::panic::catch_unwind(|| {
            train_partitioned::<f32>(&d.train, &d.test, &c, &TITAN_X_MAXWELL, &PCIE3_X16)
        });
        assert!(result.is_err(), "2x2 grid with 2 GPUs must be rejected");
    }

    #[test]
    fn biased_partitioned_trains_end_to_end() {
        // The engine seam's new combination: bias terms + grid partitioning.
        let d = generate(&SynthConfig {
            m: 400,
            n: 300,
            k_true: 4,
            train_samples: 20_000,
            test_samples: 2_000,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 3.5,
            seed: 91,
        });
        let mut c = config(4, 4, 2);
        c.bias = true;
        let r = train_partitioned::<f32>(&d.train, &d.test, &c, &TITAN_X_MAXWELL, &PCIE3_X16);
        assert!(!r.diverged);
        let bias = r.bias.expect("biased run must return bias terms");
        assert!(bias.mu > 3.0, "global mean must absorb the offset");
        assert!(
            r.trace.final_rmse().unwrap() < 0.3,
            "rmse {}",
            r.trace.final_rmse().unwrap()
        );
    }

    #[test]
    fn biased_model_converges() {
        // One block on one GPU: the biased model alone, on offset-heavy
        // data (noise floor 0.1).
        let d = generate(&SynthConfig {
            m: 400,
            n: 300,
            k_true: 4,
            train_samples: 25_000,
            test_samples: 2_500,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 3.5,
            seed: 91,
        });
        let mut c = MultiGpuConfig::new(6, 1, 1, 1);
        c.epochs = 20;
        c.workers_per_gpu = 8;
        c.batch = 256;
        c.schedule = Schedule::NomadDecay {
            alpha: 0.1,
            beta: 0.1,
        };
        c.lambda = 0.02;
        c.bias = true;
        let r = train_partitioned::<f32>(&d.train, &d.test, &c, &TITAN_X_MAXWELL, &PCIE3_X16);
        let final_rmse = r.trace.final_rmse().unwrap();
        assert!(final_rmse < 0.2, "biased model rmse {final_rmse}");
    }
}
