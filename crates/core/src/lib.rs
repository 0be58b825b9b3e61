//! # cumf-core — cuMF_SGD in Rust
//!
//! The primary contribution of *CuMF_SGD: Parallelized Stochastic Gradient
//! Descent for Matrix Factorization on GPUs* (HPDC'17), reproduced from
//! scratch:
//!
//! * [`half`] — IEEE 754 binary16 storage (§4's half-precision feature
//!   matrices), implemented from scratch;
//! * [`feature`] — factor matrices generic over storage precision;
//! * [`kernel`] — the SGD update (Algorithm 1) in scalar and ILP-unrolled
//!   forms, plus ADAGRAD state;
//! * [`lrate`] — learning-rate schedules, including the paper's Eq. 9;
//! * [`sched`] — the scheduling-policy zoo: serial, Hogwild!,
//!   batch-Hogwild! (§5.1), wavefront-update (§5.2), and LIBMF's global
//!   table, all as deterministic update streams;
//! * [`concurrent`] — execution engines: a deterministic round-based
//!   Hogwild! conflict engine (stale reads, additive commits) and a real
//!   OS-thread lock-free executor;
//! * [`engine`] — the layered epoch pipeline (model / execution / time /
//!   observers) that every training path in the workspace runs through;
//! * [`solver`] — the single-GPU training loop producing convergence
//!   traces;
//! * [`stale`] — the bounded-staleness certifier: every lock-free update
//!   path lifted into an asynchrony IR, its worst-case per-row staleness
//!   τ bounded, and the lr·τ safety condition checked per run;
//! * [`partition`] — §6.1's i×j workload grid, Eq. 6 independence, the
//!   §7.5 convergence constraints, and Fig 15's feasible-order analysis;
//! * [`multi_gpu`] — §6's staged multi-GPU solver with transfer/compute
//!   overlap;
//! * [`faults`] — deterministic fault injection (device loss, transfer
//!   corruption/stalls, NaN storms) and the self-healing training
//!   supervisor with retry, rollback, and graceful-degradation policies;
//! * [`metrics`] — test RMSE, Eq. 2 loss, Eq. 7 throughput, traces;
//! * [`digest`] and [`Verdict`] — the certificate building blocks: the
//!   one FNV-1a digest every fingerprint uses, and the certified-or-refuted
//!   outcome every certifier returns.
//!
//! ## Quick start
//!
//! ```
//! use cumf_core::solver::{train, Scheme, SolverConfig};
//! use cumf_data::synth::{generate, SynthConfig};
//!
//! let data = generate(&SynthConfig {
//!     m: 200, n: 150, k_true: 4, train_samples: 8_000, test_samples: 800,
//!     ..SynthConfig::default()
//! });
//! let config = SolverConfig::new(6, Scheme::BatchHogwild { workers: 8, batch: 64 });
//! let result = train::<f32>(&data.train, &data.test, &config, None);
//! assert!(result.trace.final_rmse().unwrap() < 1.0);
//! ```

#![warn(missing_docs)]

pub mod bias;
pub mod concurrent;
pub mod digest;
pub mod engine;
pub mod faults;
pub mod feature;
pub mod half;
pub mod kernel;
pub mod lrate;
pub mod metrics;
pub mod model_io;
pub mod multi_gpu;
pub mod partition;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod sched;
pub mod solver;
pub mod stale;

pub use bias::{train_biased, BiasedConfig, BiasedModel, BiasedResult};
pub use concurrent::{AtomicFactors, EpochStats, ExecMode, StripedFactors, DEFAULT_THREAD_BATCH};
pub use engine::{
    BiasTerms, EngineModel, EpochBackend, EpochObserver, EpochPipeline, ExecEngine, PipelineRun,
    ResumeState, TimeDomain, TrainReport,
};
pub use faults::{
    run_chaos, ChaosOptions, ChaosReport, FaultKind, FaultPlan, RecoveryKind, RecoveryLog,
    RetryPolicy, SupervisedResult, SupervisorConfig, TrainError, TrainSupervisor,
};
pub use feature::{Element, FactorMatrix};
pub use half::F16;
pub use kernel::{precision_of, CostCert, CostCertStatus, KernelTraffic};
pub use lrate::{LearningRate, LrState, Schedule};
pub use metrics::{rmse, updates_per_sec, Trace, TracePoint};
pub use model_io::{load_model, load_model_file, save_model, save_model_file, Model};
pub use multi_gpu::{train_partitioned, MultiGpuConfig, MultiGpuResult};
pub use partition::{
    count_feasible_orders, schedule_epoch, segment_of, segment_range, BlockId, Grid, WaveSchedule,
};
pub use sched::{certify, resolve_exec_mode, ConflictCert, ConflictVerdict, ConflictWitness};
pub use solver::{train, Scheme, SolverConfig, TimeModel, TrainResult};
pub use stale::{
    certify_staleness, resolve_stale_mode, staleness_bound, Footprint, PathSpec, StaleCert,
    StaleVerdict, StaleWitness, SyncEdge, SyncKind, UpdatePathAnno,
};

/// Outcome of a certifier: a certificate `C` that the property holds, or
/// a witness `W` — a concrete counterexample — that it does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict<C, W> {
    /// The property holds; here is the certificate.
    Certified(C),
    /// The property fails; here is the counterexample.
    Refuted(W),
}

impl<C, W> Verdict<C, W> {
    /// True for [`Verdict::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, Verdict::Certified(_))
    }

    /// The certificate, if the property was certified.
    pub fn certificate(&self) -> Option<&C> {
        match self {
            Verdict::Certified(c) => Some(c),
            Verdict::Refuted(_) => None,
        }
    }

    /// The counterexample, if the property was refuted.
    pub fn witness(&self) -> Option<&W> {
        match self {
            Verdict::Certified(_) => None,
            Verdict::Refuted(w) => Some(w),
        }
    }
}

/// Canonical re-export of the per-update memory cost model: core code and
/// downstream crates import `SgdUpdateCost` from exactly one path per
/// crate root (it is defined in `cumf-gpu-sim`'s kernel module).
pub use cumf_gpu_sim::SgdUpdateCost;
