//! Cross-validation of the two concurrent executors: the deterministic
//! round-based engine and the lock-free atomic Hogwild! threads must
//! solve the same problem to the same quality.

use std::sync::Arc;

use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;
use cumf_sgd::core::concurrent::{threaded_hogwild_epoch, AtomicFactors};
use cumf_sgd::core::solver::{train, Scheme, SolverConfig};
use cumf_sgd::core::{rmse, FactorMatrix, Schedule};
use cumf_sgd::data::synth::{generate, SynthConfig, SynthDataset};

const K: u32 = 6;
const EPOCHS: u32 = 12;
const GAMMA: f32 = 0.1;
const LAMBDA: f32 = 0.02;
const QUALITY: f64 = 0.22;

fn dataset() -> SynthDataset {
    generate(&SynthConfig {
        m: 400,
        n: 300,
        k_true: 4,
        train_samples: 24_000,
        test_samples: 2_400,
        noise_std: 0.1,
        row_skew: 0.4,
        col_skew: 0.4,
        rating_offset: 1.0,
        seed: 1234,
    })
}

fn init_factors(d: &SynthDataset) -> (FactorMatrix<f32>, FactorMatrix<f32>) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    (
        FactorMatrix::random_init(d.train.rows(), K, &mut rng),
        FactorMatrix::random_init(d.train.cols(), K, &mut rng),
    )
}

#[test]
fn round_engine_reaches_quality() {
    let d = dataset();
    let cfg = SolverConfig {
        k: K,
        lambda: LAMBDA,
        schedule: Schedule::Fixed(GAMMA),
        epochs: EPOCHS,
        scheme: Scheme::BatchHogwild {
            workers: 8,
            batch: 64,
        },
        seed: 9,
        mode: None,
        divergence_ceiling: 1e3,
    };
    let r = train::<f32>(&d.train, &d.test, &cfg, None);
    assert!(r.trace.final_rmse().unwrap() < QUALITY);
}

#[test]
fn atomic_threads_reach_quality() {
    let d = dataset();
    let (p0, q0) = init_factors(&d);
    let p = Arc::new(AtomicFactors::from_matrix(&p0));
    let q = Arc::new(AtomicFactors::from_matrix(&q0));
    for _ in 0..EPOCHS {
        threaded_hogwild_epoch(&d.train, &p, &q, 4, 128, GAMMA, LAMBDA);
    }
    let pm: FactorMatrix<f32> = p.to_matrix();
    let qm: FactorMatrix<f32> = q.to_matrix();
    let r = rmse(&d.test, &pm, &qm);
    assert!(r < QUALITY, "atomic hogwild rmse {r}");
}

/// Both executors land in a tight quality band of each other — the
/// parallelisation strategy must not change what is learned.
#[test]
fn all_executors_agree_on_quality() {
    let d = dataset();

    // Round engine.
    let cfg = SolverConfig {
        k: K,
        lambda: LAMBDA,
        schedule: Schedule::Fixed(GAMMA),
        epochs: EPOCHS,
        scheme: Scheme::BatchHogwild {
            workers: 8,
            batch: 64,
        },
        seed: 9,
        mode: None,
        divergence_ceiling: 1e3,
    };
    let round = train::<f32>(&d.train, &d.test, &cfg, None)
        .trace
        .final_rmse()
        .unwrap();

    // Atomic Hogwild! threads.
    let (p0, q0) = init_factors(&d);
    let p = Arc::new(AtomicFactors::from_matrix(&p0));
    let q = Arc::new(AtomicFactors::from_matrix(&q0));
    for _ in 0..EPOCHS {
        threaded_hogwild_epoch(&d.train, &p, &q, 4, 64, GAMMA, LAMBDA);
    }
    let pm: FactorMatrix<f32> = p.to_matrix();
    let qm: FactorMatrix<f32> = q.to_matrix();
    let atomic = rmse(&d.test, &pm, &qm);

    assert!(
        (atomic - round).abs() < 0.05,
        "atomic rmse {atomic} strays from round-engine {round}"
    );
}
