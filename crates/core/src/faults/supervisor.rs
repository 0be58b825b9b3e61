//! The self-healing training supervisor.
//!
//! [`TrainSupervisor`] wraps the layered epoch pipeline of partitioned
//! training with a recovery state machine (documented in DESIGN.md §8):
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            ▼                                            │
//!  VALIDATE ──▶ RUN EPOCH ──▶ ok ──▶ COMMIT (+snapshot) ──┘
//!   │ bad          │ │
//!   ▼              │ └── fatal flag ──▶ TYPED ERROR
//!  InvalidConfig   └──── diverged ───▶ ROLLBACK ──▶ RUN EPOCH …
//!                                        │ budget spent
//!                                        ▼
//!                                    Unrecoverable
//! ```
//!
//! VALIDATE is [`MultiGpuConfig::check`], whose message
//! [`crate::multi_gpu::train_partitioned`] panics with.
//!
//! Driving the pipeline one epoch per segment keeps the control flow
//! trivial and costs nothing but a resume-state clone: the engine's
//! resume guarantee (PR 2) makes a segmented run bit-identical to an
//! unsegmented one, and the per-epoch wave-schedule seeding
//! ([`PartitionedBackend::with_epoch_seed`]) extends that guarantee
//! across rollbacks and device-loss rebuilds.
//!
//! Recovery policies, by fault class:
//!
//! * **transfer corruption / stalls** — handled inside the epoch by
//!   [`super::FaultyPartitionedBackend`] (bounded retry, exponential
//!   backoff); a permanently-failing link raises the shared fatal flag
//!   and the supervisor surfaces [`TrainError::TransferFailed`] instead
//!   of spinning;
//! * **divergence / NaN storms** — detected by the divergence guard's
//!   model scan; the supervisor restores the last in-memory snapshot
//!   (model *and* [`ResumeState`], so the BoldDriver learning-rate state
//!   rolls back with the factors) and re-enters the pipeline;
//! * **device loss / SM throttling** — applied at the epoch boundary by
//!   rebuilding the partitioned backend on the surviving GPU count (or a
//!   [`GpuSpec::throttled`] device), recording the throughput hit in the
//!   obs registry.

use cumf_data::CooMatrix;
use cumf_gpu_sim::{GpuSpec, LinkSpec};
use cumf_rng::{ChaCha8Rng, SeedableRng};

use crate::engine::{
    BackendTime, DivergenceGuard, EngineModel, EpochCtx, EpochObserver, EpochPipeline,
    PartitionedBackend, PipelineControl, ResumeState,
};
use crate::feature::{Element, FactorMatrix};
use crate::metrics::Trace;
use crate::model_io::ModelIoError;
use crate::multi_gpu::{partitioned_setup, EpochTiming, MultiGpuConfig};
use crate::BiasTerms;

use super::inject::{FatalFlag, FaultyPartitionedBackend};
use super::retry::RetryPolicy;
use super::{FaultPlan, RecoveryKind, RecoveryLog};

/// Typed failure of a training run: [`crate::solver::train_resumable`]
/// returns the first two variants, [`TrainSupervisor::train_partitioned`]
/// all but [`TrainError::Checkpoint`].
#[derive(Debug)]
pub enum TrainError {
    /// A configuration [`SolverConfig::check`] or [`MultiGpuConfig::check`]
    /// rejects; the message is the one the panicking entry points print.
    ///
    /// [`SolverConfig::check`]: crate::solver::SolverConfig::check
    InvalidConfig(String),
    /// A `--resume` checkpoint that cannot be read, is corrupt, or does
    /// not fit the run.
    Checkpoint(ModelIoError),
    /// A transfer could not be completed within the retry budget.
    TransferFailed {
        /// Epoch the transfer permanently failed at.
        epoch: u32,
        /// Attempts spent (including the first try).
        attempts: u32,
    },
    /// Divergence persisted through the rollback budget.
    Unrecoverable {
        /// Epoch of the final failed attempt.
        epoch: u32,
        /// Rollbacks spent before giving up.
        rollbacks: u32,
    },
    /// Device loss left no simulated GPU to run on.
    AllDevicesLost {
        /// Epoch the last device was lost at.
        epoch: u32,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            TrainError::TransferFailed { epoch, attempts } => {
                write!(
                    f,
                    "transfer failed permanently at epoch {epoch} after {attempts} attempts"
                )
            }
            TrainError::Unrecoverable { epoch, rollbacks } => {
                write!(
                    f,
                    "training unrecoverable at epoch {epoch} after {rollbacks} rollbacks"
                )
            }
            TrainError::AllDevicesLost { epoch } => {
                write!(f, "all simulated GPUs lost by epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelIoError> for TrainError {
    fn from(e: ModelIoError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Recovery-policy knobs of the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Retry/backoff policy for transfer faults.
    pub retry: RetryPolicy,
    /// DES watchdog timeout for transfer stalls, simulated seconds.
    pub stall_timeout_s: f64,
    /// Rollback budget: divergences recovered before giving up.
    pub max_rollbacks: u32,
    /// In-memory snapshot cadence, epochs (clamped to ≥ 1).
    pub snapshot_every: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retry: RetryPolicy::default(),
            stall_timeout_s: 1.0,
            max_rollbacks: 4,
            snapshot_every: 1,
        }
    }
}

/// Static liveness annotation of the supervisor's blocking protocol,
/// consumed by the `cumf-analyze` deadlock/liveness pass: the watchdog
/// timeout that must strictly dominate any certified healthy wait
/// chain (so a contended-but-progressing transfer is never declared
/// stalled), and the bounded retry/rollback budgets that make recovery
/// terminate instead of livelocking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogAnno {
    /// Source anchor of the annotated protocol.
    pub anchor: &'static str,
    /// Watchdog timeout raced against transfers, simulated seconds.
    pub timeout_s: f64,
    /// Retry attempts before giving up (clamped ≥ 1: bounded).
    pub max_attempts: u32,
    /// Total backoff if every attempt fails, simulated seconds.
    pub total_backoff_s: f64,
    /// Checkpoint rollbacks recovered before giving up.
    pub max_rollbacks: u32,
}

impl SupervisorConfig {
    /// This configuration's [`WatchdogAnno`], the supervisor-side input
    /// to the deadlock analyzer's liveness certificate.
    pub fn liveness_anno(&self) -> WatchdogAnno {
        WatchdogAnno {
            anchor: "crates/core/src/faults/supervisor.rs::TrainSupervisor",
            timeout_s: self.stall_timeout_s,
            max_attempts: self.retry.max_attempts.max(1),
            total_backoff_s: self.retry.total_backoff_s(),
            max_rollbacks: self.max_rollbacks,
        }
    }
}

/// Output of a supervised partitioned run that completed (possibly after
/// recoveries).
#[derive(Debug, Clone)]
pub struct SupervisedResult<E: Element> {
    /// Learned row factors.
    pub p: FactorMatrix<E>,
    /// Learned column factors.
    pub q: FactorMatrix<E>,
    /// Bias terms, when the biased model was trained.
    pub bias: Option<BiasTerms>,
    /// Convergence trace of the committed epochs.
    pub trace: Trace,
    /// Per-epoch timing breakdowns of the committed epochs.
    pub timings: Vec<EpochTiming>,
    /// The full fault/recovery event log.
    pub log: RecoveryLog,
    /// Simulated GPUs still alive at the end of the run.
    pub gpus_used: u32,
    /// Measured slowdown after the first degradation: mean committed
    /// epoch seconds after ÷ before (1.0 when nothing degraded).
    pub throughput_hit: f64,
    /// Rollbacks performed.
    pub rollbacks: u32,
}

/// Captures the would-be resume state after each epoch, so the supervisor
/// can commit an epoch without re-deriving pipeline internals.
struct TailCapture {
    state: Option<ResumeState>,
}

impl<E: Element> EpochObserver<E> for TailCapture {
    fn on_epoch_end(&mut self, ctx: &EpochCtx<'_>, _model: &EngineModel<E>) -> PipelineControl {
        self.state = Some(ResumeState {
            next_epoch: ctx.epoch + 1,
            updates: ctx.total_updates,
            sim_seconds: ctx.total_sim_seconds,
            trace: ctx.trace.clone(),
            lr: Some(ctx.lr),
        });
        PipelineControl::Continue
    }
}

/// Wraps partitioned training with validation, fault injection, and
/// recovery. Construct with [`FaultPlan::new`] for a plain supervised run
/// (validation and recovery policies, no injected faults).
#[derive(Debug, Clone)]
pub struct TrainSupervisor {
    /// Recovery-policy configuration.
    pub supervision: SupervisorConfig,
    /// Faults to inject, if any.
    pub plan: FaultPlan,
}

impl TrainSupervisor {
    /// A supervisor with the given policies and fault schedule.
    pub fn new(supervision: SupervisorConfig, plan: FaultPlan) -> Self {
        TrainSupervisor { supervision, plan }
    }

    /// Supervised partitioned training: a configuration
    /// [`MultiGpuConfig::check`] rejects is [`TrainError::InvalidConfig`]
    /// with its message; otherwise the fault plan is injected and
    /// recovered from by policy. The fault-free plan reproduces a clean
    /// run exactly.
    pub fn train_partitioned<E: Element>(
        &self,
        train: &CooMatrix,
        test: &CooMatrix,
        config: &MultiGpuConfig,
        gpu: &GpuSpec,
        link: &LinkSpec,
    ) -> Result<SupervisedResult<E>, TrainError> {
        config.check(train).map_err(TrainError::InvalidConfig)?;

        // Each epoch's backend reseeds per epoch, so the RNG left after
        // the model's draws is not used.
        let (grid, mut model, cost, _) = partitioned_setup::<E>(train, config);

        let snapshot_every = self.supervision.snapshot_every.max(1);
        let mut resume = ResumeState {
            next_epoch: 0,
            updates: 0,
            sim_seconds: 0.0,
            trace: Trace::default(),
            lr: None,
        };
        let mut snapshot = (model.clone(), resume.clone(), 0usize);
        let mut consumed = vec![false; self.plan.len()];
        let mut log = RecoveryLog::default();
        let mut timings: Vec<EpochTiming> = Vec::new();
        let mut gpus_alive = config.gpus;
        let mut throttle = 1.0f64;
        let mut rollbacks = 0u32;
        let mut degrade_at: Option<usize> = None;
        let gpus_gauge = cumf_obs::gauge(
            "cumf_faults_gpus_alive",
            "Simulated GPUs alive in the supervised run",
        );
        gpus_gauge.set(gpus_alive as f64);

        while resume.next_epoch < config.epochs {
            let epoch = resume.next_epoch;

            // Topology faults fire at the epoch boundary: they change the
            // machine, so the backend is rebuilt rather than decorated.
            for (event, seen) in self.plan.events.iter().zip(consumed.iter_mut()) {
                if *seen || !event.due(epoch) {
                    continue;
                }
                let kind = event.kind;
                if !kind.is_topology_fault() {
                    continue;
                }
                *seen = true;
                match kind {
                    super::FaultKind::DeviceLoss { gpu: lost } => {
                        log.push(
                            epoch,
                            RecoveryKind::Injected,
                            format!("device-loss: simulated GPU {lost} dropped"),
                        );
                        log.push(
                            epoch,
                            RecoveryKind::Detected,
                            format!("device {lost} missing from ensemble of {gpus_alive}"),
                        );
                        if gpus_alive <= 1 {
                            log.push(epoch, RecoveryKind::Fatal, "no surviving GPU");
                            return Err(TrainError::AllDevicesLost { epoch });
                        }
                        gpus_alive -= 1;
                        gpus_gauge.set(gpus_alive as f64);
                        degrade_at.get_or_insert(timings.len());
                        log.push(
                            epoch,
                            RecoveryKind::Degraded,
                            format!("re-partitioned waves onto {gpus_alive} surviving GPUs"),
                        );
                    }
                    super::FaultKind::SmThrottle { survival } => {
                        let s = survival.clamp(0.05, 1.0);
                        log.push(
                            epoch,
                            RecoveryKind::Injected,
                            format!("sm-throttle: {:.0}% of SMs survive", s * 100.0),
                        );
                        log.push(
                            epoch,
                            RecoveryKind::Detected,
                            "device health probe reports throttled SMs",
                        );
                        throttle *= s;
                        degrade_at.get_or_insert(timings.len());
                        log.push(
                            epoch,
                            RecoveryKind::Degraded,
                            format!(
                                "running on throttled device ({:.0}% capacity)",
                                throttle * 100.0
                            ),
                        );
                    }
                    _ => unreachable!(),
                }
            }

            // One pipeline segment = one epoch, resumed from the committed
            // state, on the (possibly degraded) topology.
            let throttled_gpu;
            let gpu_ref = if throttle < 1.0 {
                throttled_gpu = gpu.throttled(throttle);
                &throttled_gpu
            } else {
                gpu
            };
            let fatal: FatalFlag = FatalFlag::default();
            let inner = PartitionedBackend::new(
                train,
                &grid,
                gpus_alive,
                config.workers_per_gpu,
                config.batch,
                config.overlap,
                cost,
                gpu_ref,
                link,
                ChaCha8Rng::seed_from_u64(config.seed),
            )
            .with_epoch_seed(config.seed);
            let mut backend = FaultyPartitionedBackend::new(
                inner,
                self.plan.clone(),
                consumed.clone(),
                self.supervision.retry,
                self.supervision.stall_timeout_s,
                fatal.clone(),
            );
            let mut time = BackendTime;
            let mut guard = DivergenceGuard::new(config.divergence_ceiling).with_model_scan();
            let mut tail = TailCapture { state: None };
            let mut observers: Vec<&mut dyn EpochObserver<E>> = vec![&mut guard, &mut tail];
            let pipeline = EpochPipeline {
                label: "supervised",
                epochs: epoch + 1,
                lambda: config.lambda,
                schedule: config.schedule.clone(),
            };
            let run = pipeline.run(
                &mut model,
                &mut backend,
                &mut time,
                &mut observers,
                test,
                Some(resume.clone()),
            );
            consumed = backend.consumed().to_vec();
            log.extend(backend.take_log());

            if let Some(f) = fatal.borrow().as_ref() {
                return Err(TrainError::TransferFailed {
                    epoch: f.epoch,
                    attempts: f.attempts,
                });
            }

            if run.diverged {
                log.push(
                    epoch,
                    RecoveryKind::Detected,
                    format!(
                        "divergence stop at epoch {epoch} (rmse {:.3e}, non-finite {})",
                        run.trace.final_rmse().unwrap_or(f64::NAN),
                        model.non_finite_count()
                    ),
                );
                if rollbacks >= self.supervision.max_rollbacks {
                    log.push(
                        epoch,
                        RecoveryKind::Fatal,
                        format!("rollback budget ({rollbacks}) exhausted"),
                    );
                    return Err(TrainError::Unrecoverable { epoch, rollbacks });
                }
                rollbacks += 1;
                let (snap_model, snap_resume, snap_timings) = &snapshot;
                model = snap_model.clone();
                resume = snap_resume.clone();
                timings.truncate(*snap_timings);
                log.push(
                    epoch,
                    RecoveryKind::RolledBack,
                    format!(
                        "restored snapshot at epoch {} (factors + learning-rate state)",
                        resume.next_epoch
                    ),
                );
                continue;
            }

            // Commit the epoch.
            timings.extend(run.timings);
            resume = tail
                .state
                .take()
                .expect("a non-diverged segment ran exactly one epoch");
            if resume.next_epoch.is_multiple_of(snapshot_every) {
                snapshot = (model.clone(), resume.clone(), timings.len());
            }
        }

        let throughput_hit = match degrade_at {
            Some(b) if b > 0 && b < timings.len() => {
                let before: f64 = timings[..b].iter().map(|t| t.seconds).sum::<f64>() / b as f64;
                let after: f64 = timings[b..].iter().map(|t| t.seconds).sum::<f64>()
                    / (timings.len() - b) as f64;
                if before > 0.0 {
                    after / before
                } else {
                    1.0
                }
            }
            _ => 1.0,
        };
        if degrade_at.is_some() {
            cumf_obs::gauge(
                "cumf_faults_throughput_hit",
                "Mean epoch-seconds ratio after/before the first degradation",
            )
            .set(throughput_hit);
        }

        Ok(SupervisedResult {
            p: model.p,
            q: model.q,
            bias: model.bias,
            trace: resume.trace,
            timings,
            log,
            gpus_used: gpus_alive,
            throughput_hit,
            rollbacks,
        })
    }
}
