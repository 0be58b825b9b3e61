//! The layered training engine.
//!
//! The paper's thesis is that SGD-MF performance decomposes into
//! independent, composable choices. This module is that decomposition as
//! an architecture — one epoch loop, four pluggable layers:
//!
//! | Layer | Trait | Chooses | Paper |
//! |-------|-------|---------|-------|
//! | Scheduling | [`crate::sched::UpdateStream`] | which sample next, per worker | §5 |
//! | Execution | [`ExecEngine`] | how updates touch the model | §3, Alg. 1 |
//! | Time | [`TimeDomain`] | what an epoch costs on a clock | §2.3, Eq. 5/7 |
//! | Observation | [`EpochObserver`] | metrics, divergence, checkpoints | §7 |
//!
//! [`EpochPipeline::run`] drives an [`EpochBackend`] (stream-fed
//! single-device, or §6's partitioned multi-GPU) for up to `epochs`
//! epochs: learning rate → backend → time domain → RMSE eval → trace
//! point → observers. `solver::train`, `multi_gpu::train_partitioned`
//! and the `cumf-baselines` solvers are all thin clients of this one
//! loop, so previously-impossible combinations (biased + partitioned,
//! FP16 + threaded Hogwild!) are plain configuration. The biased model
//! trains on the partitioned path, whose blocks run on the stale-additive
//! engine, the only engine that updates bias terms.

pub mod backend;
pub mod checkpoint;
pub mod exec;
pub mod model;
pub mod observer;
pub mod time;

pub use backend::{
    CertifyingBackend, EpochBackend, EpochOutcome, PartitionedBackend, StreamBackend,
};
pub use checkpoint::{load_checkpoint, save_checkpoint, ResumeState};
pub use exec::{
    engine_for, sequential_epoch, stale_additive_epoch, threaded_epoch, ExecEngine,
    SequentialEngine, StaleAdditiveEngine, ThreadedHogwildEngine,
};
pub use model::{BiasTerms, EngineModel, ModelView};
pub use observer::{
    Checkpointer, DivergenceGuard, EpochCtx, EpochObserver, ObsProbes, PipelineControl,
};
pub use time::{BackendTime, FixedPerEpoch, ModelTime, NoSimTime, TimeDomain, TimeModel};

use cumf_data::CooMatrix;

use crate::concurrent::EpochStats;
use crate::feature::Element;
use crate::lrate::{LearningRate, Schedule};
use crate::metrics::{Trace, TracePoint};
use crate::multi_gpu::EpochTiming;

/// Compact end-of-run summary, also mirrored into the observability
/// registry (`cumf_solver_run_*` series) when the pipeline returns.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Scheduling policy / run label.
    pub scheme: &'static str,
    /// Epochs actually executed (early exit on divergence).
    pub epochs_run: u32,
    /// SGD updates applied across the run.
    pub total_updates: u64,
    /// Test RMSE after the last executed epoch (NaN when no epoch ran).
    pub final_rmse: f64,
    /// Host wall-clock seconds spent in the training loop.
    pub wall_seconds: f64,
    /// Simulated seconds, when a machine-time domain was attached (else 0).
    pub sim_seconds: f64,
    /// Updates per wall-clock second (0 when no time elapsed).
    pub updates_per_wall_sec: f64,
    /// True if the run hit the divergence ceiling.
    pub diverged: bool,
}

impl TrainReport {
    /// Mirrors the snapshot into the global observability registry.
    fn publish(&self) {
        cumf_obs::counter("cumf_solver_runs_total", "Training runs completed").inc();
        cumf_obs::gauge(
            "cumf_solver_run_wall_seconds",
            "Wall-clock seconds of the most recent training run",
        )
        .set(self.wall_seconds);
        cumf_obs::gauge(
            "cumf_solver_run_sim_seconds",
            "Simulated seconds of the most recent training run",
        )
        .set(self.sim_seconds);
        cumf_obs::gauge(
            "cumf_solver_run_updates_per_sec",
            "Updates per wall-clock second of the most recent training run",
        )
        .set(self.updates_per_wall_sec);
        cumf_obs::gauge(
            "cumf_solver_run_final_rmse",
            "Final test RMSE of the most recent training run",
        )
        .set(self.final_rmse);
    }
}

/// Everything a finished (or aborted) pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Per-epoch convergence trace (includes resumed-from epochs).
    pub trace: Trace,
    /// Per-epoch execution statistics (this invocation's epochs only).
    pub epoch_stats: Vec<EpochStats>,
    /// Per-epoch timing breakdowns, for backends that produce them.
    pub timings: Vec<EpochTiming>,
    /// End-of-run summary snapshot.
    pub report: TrainReport,
    /// True if an observer stopped the run flagging divergence.
    pub diverged: bool,
}

/// The shared epoch loop every training path runs through.
#[derive(Debug, Clone)]
pub struct EpochPipeline {
    /// Run label (scheduling-policy or solver name) for spans and reports.
    pub label: &'static str,
    /// Epochs (full passes) to run.
    pub epochs: u32,
    /// Regularisation λ handed to the backend.
    pub lambda: f32,
    /// Learning-rate schedule.
    pub schedule: Schedule,
}

impl EpochPipeline {
    /// Drives `backend` for up to `self.epochs` epochs, evaluating test
    /// RMSE after each and consulting `observers` for early exit. Pass a
    /// [`ResumeState`] (from [`load_checkpoint`]) to continue a prior run;
    /// deterministic streams make the result bit-identical to never having
    /// stopped.
    pub fn run<E: Element>(
        &self,
        model: &mut EngineModel<E>,
        backend: &mut dyn EpochBackend<E>,
        time: &mut dyn TimeDomain,
        observers: &mut [&mut dyn EpochObserver<E>],
        test: &CooMatrix,
        resume: Option<ResumeState>,
    ) -> PipelineRun {
        let mut lr = LearningRate::new(self.schedule.clone());
        let mut trace = Trace::default();
        let mut updates = 0u64;
        let mut seconds = 0.0f64;
        let mut start_epoch = 0u32;
        if let Some(state) = resume {
            if let Some(lr_state) = state.lr {
                lr.restore(lr_state);
            }
            trace = state.trace;
            updates = state.updates;
            seconds = state.sim_seconds;
            start_epoch = state.next_epoch;
        }
        let mut epoch_stats = Vec::with_capacity(self.epochs.saturating_sub(start_epoch) as usize);
        let mut timings = Vec::new();
        let mut diverged = false;

        let _run_span = cumf_obs::span("solver", format!("train:{}", self.label));
        let run_t0 = std::time::Instant::now();

        for epoch in start_epoch..self.epochs {
            let mut epoch_span = cumf_obs::span("solver", "epoch");
            let gamma = lr.gamma(epoch);
            let epoch_t0 = std::time::Instant::now();
            let outcome = backend.run_epoch(epoch, gamma, self.lambda, model);
            let epoch_wall = epoch_t0.elapsed().as_secs_f64();
            updates += outcome.stats.updates;
            let sim_epoch = time.epoch_seconds(&outcome, backend.workers(), epoch_wall);
            seconds += sim_epoch;
            let eval_span = cumf_obs::span("solver", "rmse_eval");
            let eval_t0 = std::time::Instant::now();
            let test_rmse = model.rmse(test);
            let eval_wall = eval_t0.elapsed().as_secs_f64();
            drop(eval_span);
            lr.observe(test_rmse);
            trace.push(TracePoint {
                epoch: epoch + 1,
                updates,
                rmse: test_rmse,
                seconds,
            });
            epoch_span.set_arg("epoch", (epoch + 1) as f64);
            epoch_span.set_arg("updates", outcome.stats.updates as f64);
            epoch_span.set_arg("rounds", outcome.stats.rounds as f64);
            epoch_span.set_arg("rmse", test_rmse);
            epoch_span.set_arg("gamma", gamma as f64);
            let ctx = EpochCtx {
                epoch,
                gamma,
                stats: &outcome.stats,
                rmse: test_rmse,
                sim_epoch_seconds: sim_epoch,
                epoch_wall_seconds: epoch_wall,
                eval_wall_seconds: eval_wall,
                total_updates: updates,
                total_sim_seconds: seconds,
                trace: &trace,
                lr: lr.state(),
            };
            let mut stop = false;
            for obs in observers.iter_mut() {
                if let PipelineControl::Stop { diverged: d } = obs.on_epoch_end(&ctx, model) {
                    stop = true;
                    diverged |= d;
                }
            }
            if let Some(t) = outcome.timing {
                timings.push(t);
            }
            epoch_stats.push(outcome.stats);
            if stop {
                break;
            }
        }

        let wall_seconds = run_t0.elapsed().as_secs_f64();
        let report = TrainReport {
            scheme: self.label,
            epochs_run: trace.points.len() as u32,
            total_updates: updates,
            final_rmse: trace.final_rmse().unwrap_or(f64::NAN),
            wall_seconds,
            sim_seconds: seconds,
            updates_per_wall_sec: if wall_seconds > 0.0 {
                updates as f64 / wall_seconds
            } else {
                0.0
            },
            diverged,
        };
        report.publish();

        PipelineRun {
            trace,
            epoch_stats,
            timings,
            report,
            diverged,
        }
    }
}
