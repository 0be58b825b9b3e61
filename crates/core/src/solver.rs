//! The single-GPU cuMF_SGD training loop.
//!
//! A thin client of the layered [`crate::engine`]: it translates a
//! [`SolverConfig`] into a scheduling policy ([`crate::sched`]), an
//! execution engine ([`crate::engine::exec`]), a time domain, and the
//! solver's observer stack (obs probes, divergence guard, optional
//! checkpointing), then hands the epoch loop to
//! [`EpochPipeline`] — producing the
//! per-epoch convergence traces that are the raw material of every
//! RMSE-vs-time figure in the paper.
//!
//! [`train_resumable`] returns a rule [`SolverConfig::check`] finds broken
//! as [`TrainError::InvalidConfig`]; [`train`] panics with its message.

use std::path::PathBuf;

use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::CooMatrix;

use crate::concurrent::{EpochStats, ExecMode};
use crate::engine::{
    engine_for, load_checkpoint, CertifyingBackend, Checkpointer, DivergenceGuard, EngineModel,
    EpochBackend, EpochCtx, EpochObserver, EpochPipeline, ModelTime, NoSimTime, ObsProbes,
    PipelineControl, PipelineRun, ResumeState, StreamBackend, TimeDomain,
};
use crate::faults::TrainError;
use crate::feature::{Element, FactorMatrix};
use crate::kernel::CostCert;
use crate::lrate::Schedule;
use crate::metrics::Trace;
use crate::model_io::ModelIoError;
use crate::stale::StaleVerdict;

use crate::sched::{
    adjudicate, round_bound, BatchHogwildStream, Certifier, ConflictVerdict, HogwildStream,
    LibmfTableStream, SerialStream, UpdateStream, WavefrontStream,
};

pub use crate::engine::time::TimeModel;
pub use crate::engine::TrainReport;

/// Which scheduling policy the solver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// One worker, storage order. The convergence reference.
    Serial,
    /// Plain Hogwild! with uniformly random picks.
    Hogwild {
        /// Parallel workers.
        workers: u32,
    },
    /// §5.1 batch-Hogwild! — the paper's single-GPU default.
    BatchHogwild {
        /// Parallel workers (thread blocks).
        workers: u32,
        /// Consecutive samples per grab (`f`, default 256).
        batch: u32,
    },
    /// §5.2 wavefront-update.
    Wavefront {
        /// Parallel workers (grid rows).
        workers: u32,
        /// Grid columns (≥ 2 × workers).
        cols: u32,
    },
    /// LIBMF's global-table blocking (the baseline policy).
    LibmfTable {
        /// Parallel workers (CPU threads).
        workers: u32,
        /// Grid dimension (a×a blocks).
        a: u32,
    },
}

impl Scheme {
    /// Number of parallel workers the scheme runs.
    pub fn workers(&self) -> u32 {
        match *self {
            Scheme::Serial => 1,
            Scheme::Hogwild { workers }
            | Scheme::BatchHogwild { workers, .. }
            | Scheme::Wavefront { workers, .. }
            | Scheme::LibmfTable { workers, .. } => workers,
        }
    }

    /// The execution semantics the scheme needs: lock-free policies race
    /// (stale-additive); blocking policies are conflict-free (sequential).
    pub fn default_mode(&self) -> ExecMode {
        match self {
            Scheme::Serial | Scheme::Wavefront { .. } | Scheme::LibmfTable { .. } => {
                ExecMode::Sequential
            }
            Scheme::Hogwild { .. } | Scheme::BatchHogwild { .. } => ExecMode::StaleAdditive,
        }
    }

    /// The rating-fetch pattern the scheme's memory traffic follows:
    /// plain Hogwild! picks samples at random (each fetch drags a full
    /// cache line), every other policy streams samples in order.
    pub fn rating_access(&self) -> cumf_gpu_sim::RatingAccess {
        match self {
            Scheme::Hogwild { .. } => cumf_gpu_sim::RatingAccess::RandomLine { line_bytes: 128 },
            _ => cumf_gpu_sim::RatingAccess::Streamed,
        }
    }

    /// Policy name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Serial => "serial",
            Scheme::Hogwild { .. } => "hogwild",
            Scheme::BatchHogwild { .. } => "batch-hogwild",
            Scheme::Wavefront { .. } => "wavefront",
            Scheme::LibmfTable { .. } => "libmf-table",
        }
    }

    /// The rules of the update stream implementing this policy over
    /// `train`: the message [`Scheme::stream`] would panic with.
    pub fn check(&self, train: &CooMatrix) -> Result<(), String> {
        match *self {
            Scheme::Serial => Ok(()),
            Scheme::Hogwild { workers } => HogwildStream::check(workers as usize),
            Scheme::BatchHogwild { workers, batch } => {
                BatchHogwildStream::check(workers as usize, batch as usize)
            }
            Scheme::Wavefront { workers, cols } => {
                WavefrontStream::check(train, workers as usize, cols as usize)
            }
            Scheme::LibmfTable { workers, a } => {
                LibmfTableStream::check(train, workers as usize, a as usize)
            }
        }
    }

    /// The deterministic update stream implementing this policy over `n`
    /// training samples, derived from the run's `seed`.
    pub fn stream(&self, train: &CooMatrix, seed: u64) -> Box<dyn UpdateStream> {
        match *self {
            Scheme::Serial => Box::new(SerialStream::new(train.nnz())),
            Scheme::Hogwild { workers } => Box::new(HogwildStream::new(
                train.nnz(),
                workers as usize,
                seed ^ 0x5eed,
            )),
            Scheme::BatchHogwild { workers, batch } => Box::new(BatchHogwildStream::new(
                train.nnz(),
                workers as usize,
                batch as usize,
            )),
            Scheme::Wavefront { workers, cols } => Box::new(WavefrontStream::new(
                train,
                workers as usize,
                cols as usize,
                seed ^ 0x3afe,
            )),
            Scheme::LibmfTable { workers, a } => Box::new(LibmfTableStream::new(
                train,
                workers as usize,
                a as usize,
                seed ^ 0x71b,
            )),
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Feature dimension of the model.
    pub k: u32,
    /// Regularisation λ (shared by P and Q, as in the paper).
    pub lambda: f32,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Epochs (full passes) to run.
    pub epochs: u32,
    /// Scheduling policy.
    pub scheme: Scheme,
    /// Seed for initialisation and policy randomness.
    pub seed: u64,
    /// Execution-mode override (defaults to [`Scheme::default_mode`]).
    pub mode: Option<ExecMode>,
    /// Abort and flag divergence when test RMSE exceeds this ceiling.
    pub divergence_ceiling: f64,
}

impl SolverConfig {
    /// A sensible default configuration for a given scheme.
    pub fn new(k: u32, scheme: Scheme) -> Self {
        SolverConfig {
            k,
            lambda: 0.05,
            schedule: Schedule::paper_default(0.08, 0.3),
            epochs: 20,
            scheme,
            seed: 42,
            mode: None,
            divergence_ceiling: 1e3,
        }
    }

    /// Every rule a run of this configuration on `train` relies on: `k > 0`
    /// and a non-empty training set, then [`Scheme::check`]'s.
    pub fn check(&self, train: &CooMatrix) -> Result<(), String> {
        check_problem(train, self.k)?;
        self.scheme.check(train)
    }
}

/// The rules of every factorization of `train` at rank `k`, whichever
/// solver runs it: a positive `k` and a non-empty training set.
pub fn check_problem(train: &CooMatrix, k: u32) -> Result<(), String> {
    if k == 0 {
        return Err("k must be positive".into());
    }
    if train.is_empty() {
        return Err("training set is empty".into());
    }
    Ok(())
}

/// Where, how often, and whether to resume from a training checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path.
    pub path: PathBuf,
    /// Save after every `every`-th epoch.
    pub every: u32,
    /// If true and `path` exists, continue the checkpointed run instead of
    /// starting fresh.
    pub resume: bool,
}

/// Output of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult<E: Element> {
    /// Learned row factors.
    pub p: FactorMatrix<E>,
    /// Learned column factors.
    pub q: FactorMatrix<E>,
    /// Per-epoch convergence trace.
    pub trace: Trace,
    /// Per-epoch execution statistics.
    pub epoch_stats: Vec<EpochStats>,
    /// End-of-run summary snapshot.
    pub report: TrainReport,
    /// True if training hit the divergence ceiling and stopped early.
    pub diverged: bool,
    /// Execution mode actually used (after certificate resolution).
    pub exec_mode: ExecMode,
    /// The schedule prover's verdict, when sequential execution was
    /// requested: the consumed [`crate::sched::ConflictCert`], or the
    /// [`crate::sched::ConflictWitness`] that forced a downgrade to the
    /// stale-additive conflict engine. `None` for racy-by-design modes.
    pub schedule_verdict: Option<ConflictVerdict>,
    /// The staleness certifier's verdict, when racy execution was the
    /// resolved default: the [`crate::stale::StaleCert`] bounding the
    /// run's per-row staleness τ and checking the lr·τ condition, or
    /// the [`crate::stale::StaleWitness`] that forced a downgrade to
    /// sequential execution. `None` for explicit mode overrides and
    /// non-racy schedules.
    pub stale_verdict: Option<StaleVerdict>,
    /// The Eq. 5 cost certificate for this run's kernel: kernel-contract
    /// bytes/flops per update certified against [`crate::SgdUpdateCost`]
    /// for the run's `k`, storage precision, and rating-access pattern
    /// (plus the time model's drift, when one priced the trace).
    pub cost_cert: CostCert,
}

impl<E: Element> TrainResult<E> {
    /// Total updates across all executed epochs.
    pub fn total_updates(&self) -> u64 {
        self.epoch_stats.iter().map(|s| s.updates).sum()
    }
}

/// Trains a factorization of `train`, evaluating test RMSE after every
/// epoch. Generic over the storage element: `f32`, or `F16` for the
/// paper's half-precision mode. Panics with [`SolverConfig::check`]'s
/// message on a bad configuration; [`train_resumable`] returns it.
pub fn train<E: Element>(
    train: &CooMatrix,
    test: &CooMatrix,
    config: &SolverConfig,
    time: Option<&TimeModel>,
) -> TrainResult<E> {
    train_resumable(train, test, config, time, None).unwrap_or_else(|e| match e {
        TrainError::InvalidConfig(m) => panic!("{m}"),
        other => panic!("training without checkpointing performs no IO: {other}"),
    })
}

/// [`train`], with optional checkpoint/resume. With `Some(spec)`, a
/// checkpoint is written every `spec.every` epochs; with `spec.resume`
/// set and an existing checkpoint at `spec.path`, the run continues where
/// it stopped — deterministic streams and the checkpointed LR state make
/// the result bit-identical to an uninterrupted run.
///
/// A configuration [`SolverConfig::check`] rejects is
/// [`TrainError::InvalidConfig`]; a checkpoint that cannot be resumed is
/// [`TrainError::Checkpoint`] (a failed save only warns, see
/// [`Checkpointer`]).
///
/// A multi-worker scheme that claims conflict-freedom ([`Scheme::default_mode`]
/// is [`ExecMode::Sequential`]: wavefront, LIBMF's table) must prove it:
/// with no explicit `mode`, a [`Certifier`] checks each epoch's block
/// schedule before it runs, certified epochs run block-major on OS
/// threads, and the verdict is attached to the result. Should an epoch
/// conflict, that run is discarded and the whole budget rerun on the
/// stale-additive conflict engine.
pub fn train_resumable<E: Element>(
    train: &CooMatrix,
    test: &CooMatrix,
    config: &SolverConfig,
    time: Option<&TimeModel>,
    checkpoint: Option<&CheckpointSpec>,
) -> Result<TrainResult<E>, TrainError> {
    config.check(train).map_err(TrainError::InvalidConfig)?;
    train_scheduled(
        &RunInputs {
            train,
            test,
            config,
            time,
            checkpoint,
        },
        &|| config.scheme.stream(train, config.seed),
        config.scheme.default_mode(),
    )
}

/// The fixed inputs of one [`train_resumable`] call.
struct RunInputs<'a> {
    train: &'a CooMatrix,
    test: &'a CooMatrix,
    config: &'a SolverConfig,
    time: Option<&'a TimeModel>,
    checkpoint: Option<&'a CheckpointSpec>,
}

/// [`train_resumable`]'s body over any schedule: `stream` builds a fresh
/// instance of the policy and `claimed` is the execution mode the policy
/// claims. Tests reach schedules no [`Scheme`] builds through it.
fn train_scheduled<E: Element>(
    run: &RunInputs<'_>,
    stream: &dyn Fn() -> Box<dyn UpdateStream>,
    claimed: ExecMode,
) -> Result<TrainResult<E>, TrainError> {
    let (train, config) = (run.train, run.config);

    // The run's cost certificate: the kernel's memory contract for this
    // (k, precision, rating-access) checked against the Eq. 5 model, with
    // the time model's pricing drift recorded when one is supplied.
    let cost_cert = {
        let _span = cumf_obs::span("solver", "cert.cost");
        CostCert::certify::<E>(
            config.k,
            config.scheme.rating_access(),
            run.time.map(|tm| &tm.cost),
        )
    };

    let resumed = match run.checkpoint {
        Some(spec) if spec.resume && spec.path.exists() => Some(run.load_checkpoint(&spec.path)?),
        _ => None,
    };
    let (mut model, resume_state) = match resumed {
        Some((model, state)) => (model, Some(state)),
        None => (run.init_model(), None),
    };

    let workers = config.scheme.workers();
    let (model, pipeline_run, exec_mode, schedule_verdict, stale_verdict) = if config.mode.is_none()
        && claimed == ExecMode::Sequential
        && workers > 1
    {
        // Sequential execution is only exact for conflict-free schedules,
        // so the claim must be *proven*, here while the run executes.
        let (model, pipeline_run, mode, verdict) = run.certified(model, resume_state, stream);
        (model, pipeline_run, mode, Some(verdict), None)
    } else {
        // Racy execution must also be *earned*: lift the solver's
        // Hogwild path into the asynchrony IR and certify bounded
        // staleness plus the lr·τ condition against the configured
        // schedule; a refuted configuration is serialised. Explicit
        // `mode` overrides skip it — the caller asked for those
        // semantics by name.
        let (mode, stale_verdict) = match config.mode {
            Some(m) => (m, None),
            None => {
                let _span = cumf_obs::span("solver", "cert.stale");
                let spec =
                    crate::stale::PathSpec::solver_hogwild(workers, train.rows().min(train.cols()));
                crate::stale::resolve_stale_mode(&spec, &config.schedule, config.epochs, claimed)
            }
        };
        let pipeline_run = run.execute(mode, &mut model, resume_state, stream());
        (model, pipeline_run, mode, None, stale_verdict)
    };

    Ok(TrainResult {
        p: model.p,
        q: model.q,
        trace: pipeline_run.trace,
        epoch_stats: pipeline_run.epoch_stats,
        report: pipeline_run.report,
        diverged: pipeline_run.diverged,
        exec_mode,
        schedule_verdict,
        stale_verdict,
        cost_cert,
    })
}

impl RunInputs<'_> {
    /// The seeded initial model of a fresh run.
    fn init_model<E: Element>(&self) -> EngineModel<E> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        EngineModel::init_unbiased(self.train, self.config.k, &mut rng)
    }

    /// Loads a checkpoint to resume from, checking it fits the run: a
    /// bias-free model of the run's shape.
    fn load_checkpoint<E: Element>(
        &self,
        path: &std::path::Path,
    ) -> Result<(EngineModel<E>, ResumeState), ModelIoError> {
        let (train, k) = (self.train, self.config.k);
        let (model, state) = load_checkpoint::<E>(path)?;
        if model.bias.is_some() {
            return Err(ModelIoError::Format(
                "checkpoint carries bias terms, but this solver trains the bias-free model \
                 (biased runs train through multi_gpu::train_partitioned)"
                    .into(),
            ));
        }
        if model.p.rows() != train.rows() || model.q.rows() != train.cols() || model.p.k() != k {
            return Err(ModelIoError::Format(format!(
                "checkpoint shape {}x{} k={} does not match run {}x{} k={}",
                model.p.rows(),
                model.q.rows(),
                model.p.k(),
                train.rows(),
                train.cols(),
                k
            )));
        }
        Ok((model, state))
    }

    /// Runs `stream` on the engine implementing `mode`.
    fn execute<E: Element>(
        &self,
        mode: ExecMode,
        model: &mut EngineModel<E>,
        resume: Option<ResumeState>,
        stream: Box<dyn UpdateStream>,
    ) -> PipelineRun {
        let config = self.config;
        let thread_batch = match config.scheme {
            Scheme::BatchHogwild { batch, .. } => batch as usize,
            _ => crate::concurrent::DEFAULT_THREAD_BATCH,
        };
        let mut backend = StreamBackend::new(
            self.train,
            stream,
            engine_for::<E>(mode, config.scheme.workers() as usize, thread_batch),
            config.scheme.workers(),
        );
        self.pipeline(model, &mut backend, resume, false)
    }

    /// Drives `backend` through the epoch pipeline with the solver's time
    /// domain and observers (obs probes, divergence guard, optional
    /// checkpointing). A `speculative` run stops at the first epoch with
    /// a collision, before any observer sees it.
    fn pipeline<E: Element>(
        &self,
        model: &mut EngineModel<E>,
        backend: &mut dyn EpochBackend<E>,
        resume: Option<ResumeState>,
        speculative: bool,
    ) -> PipelineRun {
        let config = self.config;
        let mut time_domain: Box<dyn TimeDomain> = match self.time {
            Some(tm) => Box::new(ModelTime(tm.clone())),
            None => Box::new(NoSimTime),
        };
        let mut probes = ObsProbes::new();
        let mut guard = DivergenceGuard::new(config.divergence_ceiling);
        let mut checkpointer = self
            .checkpoint
            .map(|spec| Checkpointer::new(&spec.path, spec.every));
        let mut observers: Vec<&mut dyn EpochObserver<E>> = vec![&mut probes, &mut guard];
        if let Some(ckpt) = checkpointer.as_mut() {
            observers.push(ckpt);
        }
        let pipeline = EpochPipeline {
            label: config.scheme.name(),
            epochs: config.epochs,
            lambda: config.lambda,
            schedule: config.schedule.clone(),
        };
        let time = time_domain.as_mut();
        if speculative {
            let mut gate = CollisionFree(&mut observers);
            pipeline.run(model, backend, time, &mut [&mut gate], self.test, resume)
        } else {
            pipeline.run(model, backend, time, &mut observers, self.test, resume)
        }
    }

    /// Trains a block schedule that claims conflict-freedom on the
    /// [`CertifyingBackend`]: a [`Certifier`] checks each epoch's blocks
    /// before the epoch runs, and certified epochs run block-major. Returns
    /// the trained model, the run, the mode it earned and the verdict.
    ///
    /// The verdict covers every configured epoch, as [`crate::sched::certify`]
    /// over a fresh stream would: epochs the run does not execute — the
    /// prefix a resumed run skips, the tail after a divergence stop — are
    /// replayed into the same certifier, in epoch order. A refuted epoch never runs; the speculative run stops
    /// there and the whole budget reruns on the stale-additive engine, from
    /// the state the run began with.
    fn certified<E: Element>(
        &self,
        mut model: EngineModel<E>,
        resume: Option<ResumeState>,
        stream: &dyn Fn() -> Box<dyn UpdateStream>,
    ) -> (EngineModel<E>, PipelineRun, ExecMode, ConflictVerdict) {
        let (train, epochs) = (self.train, self.config.epochs);
        let live = stream();
        let name = live.name();
        let mut certifier =
            Certifier::new(name, live.workers(), round_bound(train, live.workers()));
        let start = resume.as_ref().map_or(0, |r| r.next_epoch).min(epochs);
        if start > 0 {
            let _span = cumf_obs::span("solver", "cert.conflict.prefix");
            certifier.drive(train, stream().as_mut(), 0..start);
        }
        if !certifier.is_refuted() {
            // A refuted run restarts from the state it began with: a
            // resumed run's checkpoint is kept in memory (the run may
            // overwrite the file), a fresh run re-initialises from the seed.
            let restart = resume.as_ref().map(|_| model.clone());
            let mut backend = CertifyingBackend::new(train, live, certifier);
            let run = self.pipeline(&mut model, &mut backend, resume.clone(), true);
            certifier = backend.into_certifier();
            let end = start + run.epoch_stats.len() as u32;
            if !certifier.is_refuted() && end < epochs {
                let _span = cumf_obs::span("solver", "cert.conflict.suffix");
                certifier.drive(train, stream().as_mut(), end..epochs);
            }
            if !certifier.is_refuted() {
                let verdict = certifier.verdict();
                return (model, run, adjudicate(&verdict, name), verdict);
            }
            model = restart.unwrap_or_else(|| self.init_model());
        }
        let verdict = certifier.verdict();
        let mode = adjudicate(&verdict, name);
        let run = self.execute(mode, &mut model, resume, stream());
        (model, run, mode, verdict)
    }
}

/// Forwards each epoch to the wrapped observers only while the run stays
/// collision-free, and stops it at the first epoch that is not. Under a
/// [`Certifier`] a collision is exactly a witness, so a refuted
/// speculative run ends there without checkpointing the epoch.
struct CollisionFree<'o, 'a, E: Element>(&'o mut [&'a mut dyn EpochObserver<E>]);

impl<E: Element> EpochObserver<E> for CollisionFree<'_, '_, E> {
    fn on_epoch_end(&mut self, ctx: &EpochCtx<'_>, model: &EngineModel<E>) -> PipelineControl {
        if ctx.stats.row_collisions + ctx.stats.col_collisions > 0 {
            return PipelineControl::Stop { diverged: false };
        }
        let (mut stop, mut diverged) = (false, false);
        for obs in self.0.iter_mut() {
            if let PipelineControl::Stop { diverged: d } = obs.on_epoch_end(ctx, model) {
                stop = true;
                diverged |= d;
            }
        }
        if stop {
            PipelineControl::Stop { diverged }
        } else {
            PipelineControl::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::F16;
    use crate::SgdUpdateCost;
    use cumf_data::synth::{generate, SynthConfig};
    use std::cell::Cell;
    use std::rc::Rc;

    /// P/Q `digest()`s, test-RMSE bits and schedule digest of the 6-epoch
    /// Wavefront run in `wavefront_golden_digests`.
    const GOLDEN_P: u64 = 0xff120d7de94b9f72;
    const GOLDEN_Q: u64 = 0x0fb4ade1aeed7484;
    const GOLDEN_RMSE_BITS: [u64; 6] = [
        0x3fe0a67c91204b04,
        0x3fda469dc1b2bf1e,
        0x3fd6601b95497ae2,
        0x3fd2b945d50575ff,
        0x3fceb64cf5a12298,
        0x3fca43f0e7696dea,
    ];
    const GOLDEN_SCHEDULE_DIGEST: u64 = 16_988_759_886_610_882_926;

    fn small_dataset() -> cumf_data::synth::SynthDataset {
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
            seed: 11,
        })
    }

    fn base_config(scheme: Scheme) -> SolverConfig {
        SolverConfig {
            k: 6,
            lambda: 0.02,
            schedule: Schedule::paper_default(0.1, 0.1),
            epochs: 15,
            scheme,
            seed: 1,
            mode: None,
            divergence_ceiling: 1e3,
        }
    }

    #[test]
    fn serial_sgd_converges_towards_noise_floor() {
        let d = small_dataset();
        let r = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        assert!(!r.diverged);
        let final_rmse = r.trace.final_rmse().unwrap();
        assert!(
            final_rmse < 0.2,
            "serial SGD should approach the 0.1 floor, got {final_rmse}"
        );
        // RMSE decreased substantially from epoch 1.
        assert!(r.trace.points[0].rmse > final_rmse);
        assert_eq!(r.total_updates(), 15_000 * 15);
    }

    #[test]
    fn batch_hogwild_matches_serial_convergence() {
        let d = small_dataset();
        let serial = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        let bh = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::BatchHogwild {
                workers: 8,
                batch: 64,
            }),
            None,
        );
        assert!(!bh.diverged);
        let s = serial.trace.final_rmse().unwrap();
        let b = bh.trace.final_rmse().unwrap();
        assert!(
            (b - s).abs() < 0.05,
            "batch-hogwild {b} should track serial {s} when s << min(m,n)"
        );
    }

    #[test]
    fn wavefront_converges() {
        let d = small_dataset();
        let r = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::Wavefront {
                workers: 4,
                cols: 10,
            }),
            None,
        );
        assert!(!r.diverged);
        assert!(r.trace.final_rmse().unwrap() < 0.25);
        // Conflict-free: sequential mode used, so stalls are the only
        // parallel artefact.
        assert!(r.epoch_stats.iter().all(|s| s.updates == 15_000));
    }

    #[test]
    fn libmf_table_converges() {
        let d = small_dataset();
        let r = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::LibmfTable { workers: 4, a: 10 }),
            None,
        );
        assert!(!r.diverged);
        assert!(r.trace.final_rmse().unwrap() < 0.25);
    }

    #[test]
    fn f16_storage_converges_like_f32() {
        // §4: half-precision storage "does not incur accuracy loss".
        let d = small_dataset();
        let cfg = base_config(Scheme::BatchHogwild {
            workers: 4,
            batch: 64,
        });
        let r32 = train::<f32>(&d.train, &d.test, &cfg, None);
        let r16 = train::<F16>(&d.train, &d.test, &cfg, None);
        let a = r32.trace.final_rmse().unwrap();
        let b = r16.trace.final_rmse().unwrap();
        assert!((a - b).abs() < 0.03, "f16 RMSE {b} must track f32 RMSE {a}");
    }

    #[test]
    fn massive_oversubscription_degrades_convergence() {
        // §7.5: convergence needs s << min(m, n). Crank s up to the matrix
        // dimension and conflicts must visibly hurt (slower convergence or
        // divergence) relative to the serial reference.
        let d = generate(&SynthConfig {
            m: 60,
            n: 40,
            k_true: 4,
            train_samples: 20_000,
            test_samples: 2_000,
            noise_std: 0.1,
            row_skew: 1.0,
            col_skew: 1.0,
            rating_offset: 0.0,
            seed: 12,
        });
        let mut cfg = base_config(Scheme::BatchHogwild {
            workers: 40,
            batch: 8,
        });
        cfg.schedule = Schedule::Fixed(0.5);
        // Pin the racy mode explicitly: the staleness certifier would
        // (correctly) refuse this configuration and serialise it, and
        // this test exists to demonstrate the very pathology it guards
        // against.
        cfg.mode = Some(ExecMode::StaleAdditive);
        let racy = train::<f32>(&d.train, &d.test, &cfg, None);
        let mut serial_cfg = base_config(Scheme::Serial);
        serial_cfg.schedule = Schedule::Fixed(0.5);
        let serial = train::<f32>(&d.train, &d.test, &serial_cfg, None);
        // A fully-diverged trace has no finite point (best_rmse = None).
        let serial_final = serial.trace.best_rmse().unwrap();
        let hurt = racy.diverged
            || racy
                .trace
                .best_rmse()
                .is_none_or(|best| best > serial_final * 1.05);
        assert!(
            hurt,
            "s=40 on a 60x40 matrix must hurt: racy {:?} vs serial {serial_final}",
            racy.trace.best_rmse()
        );
    }

    #[test]
    fn cost_certificate_attached_to_result() {
        let d = small_dataset();
        let r32 = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        assert!(r32.cost_cert.is_certified(), "{}", r32.cost_cert);
        assert_eq!(r32.cost_cert.k, 6);
        assert_eq!(r32.cost_cert.precision, "f32");
        assert_eq!(r32.cost_cert.bytes_per_update, 12 + 16 * 6);
        assert_eq!(r32.cost_cert.time_model_drift, None);
        let r16 = train::<F16>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        assert_eq!(r16.cost_cert.precision, "f16");
        assert_eq!(r16.cost_cert.bytes_per_update, 12 + 8 * 6);
        // Plain Hogwild! certifies under the random-line rating pattern.
        let rh = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::Hogwild { workers: 4 }),
            None,
        );
        assert!(rh.cost_cert.is_certified(), "{}", rh.cost_cert);
        assert_eq!(rh.cost_cert.bytes_per_update, 128 + 16 * 6);
    }

    #[test]
    fn time_model_accumulates() {
        let d = small_dataset();
        let tm = TimeModel {
            cost: SgdUpdateCost::cumf(16),
            total_bandwidth: 1e9,
            epoch_overhead: 0.001,
        };
        let r = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), Some(&tm));
        let pts = &r.trace.points;
        assert!(pts[0].seconds > 0.0);
        for w in pts.windows(2) {
            assert!(w[1].seconds > w[0].seconds);
        }
        // Serial: rounds = N+1, bytes = 12 + 4*16*2 = 140.
        let expected_epoch = 0.001 + (15_000.0 + 1.0) * 140.0 / 1e9;
        assert!((pts[0].seconds - expected_epoch).abs() / expected_epoch < 1e-6);
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn empty_training_set_rejected() {
        let d = small_dataset();
        let empty = CooMatrix::new(5, 5);
        let _ = train::<f32>(&empty, &d.test, &base_config(Scheme::Serial), None);
    }

    #[test]
    fn threaded_mode_override_converges() {
        // The engine seam in action: any scheme's samples executed by the
        // real-thread Hogwild! engine — previously a separate entry point.
        let d = small_dataset();
        let mut cfg = base_config(Scheme::BatchHogwild {
            workers: 4,
            batch: 64,
        });
        cfg.mode = Some(ExecMode::Threaded);
        let r = train::<f32>(&d.train, &d.test, &cfg, None);
        assert!(!r.diverged);
        assert!(r.trace.final_rmse().unwrap() < 0.25);
        assert_eq!(r.total_updates(), 15_000 * 15);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        // Interrupt at epoch 5 of 15, resume, and the full trace must be
        // bit-identical to never having stopped.
        let d = small_dataset();
        let cfg = base_config(Scheme::BatchHogwild {
            workers: 8,
            batch: 64,
        });
        let full = train::<f32>(&d.train, &d.test, &cfg, None);

        let dir = std::env::temp_dir().join("cumf_solver_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.cmfk");
        let _ = std::fs::remove_file(&path);

        let mut first = cfg.clone();
        first.epochs = 5;
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 5,
            resume: true,
        };
        let _ = train_resumable::<f32>(&d.train, &d.test, &first, None, Some(&spec)).unwrap();
        let resumed = train_resumable::<f32>(&d.train, &d.test, &cfg, None, Some(&spec)).unwrap();

        assert_eq!(resumed.trace.points.len(), full.trace.points.len());
        for (a, b) in resumed.trace.points.iter().zip(&full.trace.points) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.updates, b.updates);
            assert_eq!(a.rmse.to_bits(), b.rmse.to_bits(), "epoch {}", a.epoch);
        }
        assert_eq!(resumed.p, full.p);
        assert_eq!(resumed.q, full.q);
        // Only the post-resume epochs were executed by the second call.
        assert_eq!(resumed.epoch_stats.len(), 10);
        let _ = std::fs::remove_file(&path);
    }

    /// Runs [`train_resumable`]'s body on the schedule `stream` builds,
    /// which claims `claimed`.
    fn train_on<E: Element>(
        data: &CooMatrix,
        config: &SolverConfig,
        checkpoint: Option<&CheckpointSpec>,
        stream: &dyn Fn() -> Box<dyn UpdateStream>,
        claimed: ExecMode,
    ) -> TrainResult<E> {
        let inputs = RunInputs {
            train: data,
            test: data,
            config,
            time: None,
            checkpoint,
        };
        train_scheduled(&inputs, stream, claimed).unwrap()
    }

    /// The verdict [`crate::sched::certify`] reaches replaying a fresh
    /// `stream` over `epochs` epochs.
    fn replayed(
        data: &CooMatrix,
        mut stream: Box<dyn UpdateStream>,
        epochs: u32,
    ) -> ConflictVerdict {
        let bound = round_bound(data, stream.workers());
        crate::sched::certify(data, stream.as_mut(), epochs, bound)
    }

    fn assert_same_run<E: Element>(a: &TrainResult<E>, b: &TrainResult<E>) {
        assert_eq!(a.p.digest(), b.p.digest());
        assert_eq!(a.q.digest(), b.q.digest());
        assert_eq!(a.trace.points.len(), b.trace.points.len());
        for (x, y) in a.trace.points.iter().zip(&b.trace.points) {
            assert_eq!(x.rmse.to_bits(), y.rmse.to_bits(), "epoch {}", x.epoch);
        }
    }

    fn temp_checkpoint(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cumf_solver_cert_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.cmfk"));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// `train()`'s verdict, certified while the run executes, equals
    /// `certify`'s replay of a fresh stream over the configured epochs —
    /// for a fresh run, a run resumed mid-way (prefix replayed), and a run
    /// stopped by the divergence ceiling after one epoch (tail replayed).
    fn verdicts_match_replay<E: Element>(scheme: Scheme) {
        let d = small_dataset();
        let cfg = SolverConfig {
            epochs: 6,
            ..base_config(scheme)
        };
        let expected = replayed(&d.train, scheme.stream(&d.train, cfg.seed), cfg.epochs);
        assert!(expected.is_certified(), "{expected:?}");

        let fresh = train::<E>(&d.train, &d.test, &cfg, None);
        assert_eq!(fresh.exec_mode, ExecMode::Sequential);
        assert_eq!(fresh.schedule_verdict.as_ref(), Some(&expected));
        assert!(fresh.stale_verdict.is_none());

        let spec = CheckpointSpec {
            path: temp_checkpoint(&format!("{}-{}", scheme.name(), E::NAME)),
            every: 3,
            resume: true,
        };
        let head_cfg = SolverConfig {
            epochs: 3,
            ..cfg.clone()
        };
        let head = train_resumable::<E>(&d.train, &d.test, &head_cfg, None, Some(&spec)).unwrap();
        let head_expected = replayed(&d.train, scheme.stream(&d.train, cfg.seed), 3);
        assert_eq!(head.schedule_verdict, Some(head_expected));
        let resumed = train_resumable::<E>(&d.train, &d.test, &cfg, None, Some(&spec)).unwrap();
        assert_eq!(resumed.epoch_stats.len(), 3);
        assert_eq!(resumed.schedule_verdict.as_ref(), Some(&expected));
        assert_same_run(&resumed, &fresh);
        let _ = std::fs::remove_file(&spec.path);

        let stopped_cfg = SolverConfig {
            divergence_ceiling: 1e-3,
            ..cfg.clone()
        };
        let stopped = train::<E>(&d.train, &d.test, &stopped_cfg, None);
        assert!(stopped.diverged);
        assert_eq!(stopped.epoch_stats.len(), 1);
        assert_eq!(stopped.schedule_verdict.as_ref(), Some(&expected));
    }

    #[test]
    fn wavefront_verdict_matches_replay() {
        let scheme = Scheme::Wavefront {
            workers: 4,
            cols: 10,
        };
        verdicts_match_replay::<f32>(scheme);
        verdicts_match_replay::<F16>(scheme);
    }

    #[test]
    fn libmf_verdict_matches_replay() {
        let scheme = Scheme::LibmfTable { workers: 4, a: 10 };
        verdicts_match_replay::<f32>(scheme);
        verdicts_match_replay::<F16>(scheme);
    }

    #[test]
    fn wavefront_golden_digests() {
        // Pinned from the solver that replayed the schedule before
        // training: certifying during execution must not move a bit.
        let d = small_dataset();
        let cfg = SolverConfig {
            epochs: 6,
            ..base_config(Scheme::Wavefront {
                workers: 4,
                cols: 10,
            })
        };
        let r = train::<f32>(&d.train, &d.test, &cfg, None);
        let rmse_bits: Vec<u64> = r.trace.points.iter().map(|p| p.rmse.to_bits()).collect();
        assert_eq!((r.p.digest(), r.q.digest()), (GOLDEN_P, GOLDEN_Q));
        assert_eq!(rmse_bits, GOLDEN_RMSE_BITS);
        let cert = r
            .schedule_verdict
            .as_ref()
            .and_then(ConflictVerdict::certificate);
        assert_eq!(
            cert.map(|c| (c.rounds, c.samples, c.schedule_digest)),
            Some((37_920, 90_000, GOLDEN_SCHEDULE_DIGEST))
        );
    }

    /// Eight ratings of the one cell of a 1×1 matrix: any two workers in a
    /// round collide.
    fn one_cell() -> CooMatrix {
        let mut coo = CooMatrix::new(1, 1);
        for i in 0..8 {
            coo.push(0, 0, 1.0 + 0.25 * i as f32);
        }
        coo
    }

    /// One epoch of a scripted block schedule: its grid and its blocks.
    type Plan = (crate::sched::BlockGrid, crate::sched::EpochBlocks);

    /// A block schedule given epoch by epoch by `plan`, which [`next`]
    /// replays; `begun` counts the epochs begun across every instance
    /// sharing it.
    ///
    /// [`next`]: UpdateStream::next
    struct Scripted {
        plan: Rc<dyn Fn(u32) -> Plan>,
        now: Plan,
        replay: crate::sched::blocks::Replay,
        begun: Rc<Cell<u32>>,
    }

    impl Scripted {
        fn boxed(plan: &Rc<dyn Fn(u32) -> Plan>, begun: &Rc<Cell<u32>>) -> Box<dyn UpdateStream> {
            Box::new(Scripted {
                plan: plan.clone(),
                now: plan(0),
                replay: Default::default(),
                begun: begun.clone(),
            })
        }
    }

    impl UpdateStream for Scripted {
        fn workers(&self) -> usize {
            self.now.1.workers()
        }
        fn next(&mut self, w: usize) -> crate::sched::StreamItem {
            self.replay.next(&self.now.1, &self.now.0, w)
        }
        fn begin_epoch(&mut self, epoch: u32) {
            self.begun.set(self.begun.get() + 1);
            self.now = (self.plan)(epoch);
            self.replay.reset(self.workers());
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn blocks(&self) -> Option<(&crate::sched::BlockGrid, &crate::sched::EpochBlocks)> {
            Some((&self.now.0, &self.now.1))
        }
    }

    /// Blocks `(start, worker, cell, len)` ending with each worker
    /// exhausted in round `exhausted[w]`.
    fn blocks(list: &[(u64, u32, u32, u32)], exhausted: Vec<u64>) -> crate::sched::EpochBlocks {
        let list = list
            .iter()
            .map(|&(start, worker, cell, len)| crate::sched::ScheduledBlock {
                start,
                worker,
                cell,
                len,
            })
            .collect();
        crate::sched::EpochBlocks::new(list, exhausted)
    }

    #[test]
    fn refuted_schedule_reruns_on_the_stale_additive_engine() {
        // Two workers sweep two blocks of the one grid cell side by side:
        // their blocks overlap, and round 0 already shares P row 0.
        let data = one_cell();
        let cells = data.clone();
        let plan: Rc<dyn Fn(u32) -> Plan> = Rc::new(move |_| {
            let grid = crate::sched::BlockGrid::from_cells(
                &cells,
                vec![0, 1],
                vec![0, 1],
                &[(0, 0, &[0, 2, 4, 6]), (0, 0, &[1, 3, 5, 7])],
            );
            (grid, blocks(&[(0, 0, 0, 4), (0, 1, 1, 4)], vec![4, 4]))
        });
        let cfg = SolverConfig {
            epochs: 3,
            ..base_config(Scheme::LibmfTable { workers: 2, a: 1 })
        };
        let begun = Rc::new(Cell::new(0));
        let racy = || Scripted::boxed(&plan, &begun);
        let r = train_on::<f32>(&data, &cfg, None, &racy, ExecMode::Sequential);
        assert_eq!(r.exec_mode, ExecMode::StaleAdditive);
        assert_eq!(
            begun.get(),
            1 + cfg.epochs,
            "the speculative run stops at its first, conflicting, epoch"
        );
        let expected = replayed(&data, racy(), cfg.epochs);
        let w = expected.witness().expect("overlapping blocks collide");
        assert_eq!(
            (w.epoch, w.round, w.axis),
            (0, 0, crate::sched::Axis::Row(0))
        );
        assert_eq!(r.schedule_verdict, Some(expected));
        assert!(r.stale_verdict.is_none());
        let forced = SolverConfig {
            mode: Some(ExecMode::StaleAdditive),
            ..cfg
        };
        let f = train_on::<f32>(&data, &forced, None, &racy, ExecMode::Sequential);
        assert_same_run(&r, &f);
    }

    /// Two workers over a 2×2 matrix whose blocks always overlap: epochs
    /// before `flip_at` pair disjoint samples (certified sample by sample),
    /// later epochs pair samples sharing a P row.
    fn flip(data: &CooMatrix, flip_at: u32) -> Rc<dyn Fn(u32) -> Plan> {
        let data = data.clone();
        Rc::new(move |epoch| {
            let grid = if epoch < flip_at {
                // Worker 0 sweeps P row 0, worker 1 P row 1, both across
                // the one grid column.
                crate::sched::BlockGrid::from_cells(
                    &data,
                    vec![0, 1, 2],
                    vec![0, 2],
                    &[(0, 0, &[0, 2]), (1, 0, &[1, 3])],
                )
            } else {
                crate::sched::BlockGrid::from_cells(
                    &data,
                    vec![0, 2],
                    vec![0, 2],
                    &[(0, 0, &[0, 1]), (0, 0, &[2, 3])],
                )
            };
            (grid, blocks(&[(0, 0, 0, 2), (0, 1, 1, 2)], vec![2, 2]))
        })
    }

    #[test]
    fn refutation_after_resume_reruns_from_the_checkpoint() {
        let mut data = CooMatrix::new(2, 2);
        for (u, v, r) in [(0, 0, 1.0), (1, 1, 2.0), (0, 1, 3.0), (1, 0, 4.0)] {
            data.push(u, v, r);
        }
        let plan = flip(&data, 3);
        let begun = Rc::new(Cell::new(0));
        let flip = || Scripted::boxed(&plan, &begun);
        let cfg = SolverConfig {
            epochs: 4,
            ..base_config(Scheme::LibmfTable { workers: 2, a: 2 })
        };
        let spec = CheckpointSpec {
            path: temp_checkpoint("flip"),
            every: 1,
            resume: true,
        };
        let head_cfg = SolverConfig {
            epochs: 2,
            ..cfg.clone()
        };
        let head = train_on::<f32>(&data, &head_cfg, Some(&spec), &flip, ExecMode::Sequential);
        assert_eq!(head.exec_mode, ExecMode::Sequential);
        assert!(head.schedule_verdict.unwrap().is_certified());
        let copy = CheckpointSpec {
            path: temp_checkpoint("flip-copy"),
            ..spec.clone()
        };
        std::fs::copy(&spec.path, &copy.path).unwrap();

        // Epoch 2 executes cleanly (and checkpoints), epoch 3 conflicts:
        // the rerun must start from the checkpoint as it was loaded.
        let r = train_on::<f32>(&data, &cfg, Some(&spec), &flip, ExecMode::Sequential);
        assert_eq!(r.exec_mode, ExecMode::StaleAdditive);
        let expected = replayed(&data, flip(), cfg.epochs);
        assert_eq!(expected.witness().map(|w| w.epoch), Some(3));
        assert_eq!(r.schedule_verdict, Some(expected));
        assert_eq!(r.epoch_stats.len(), 2);
        let forced = SolverConfig {
            mode: Some(ExecMode::StaleAdditive),
            ..cfg
        };
        let f = train_on::<f32>(&data, &forced, Some(&copy), &flip, ExecMode::Sequential);
        assert_same_run(&r, &f);
        let _ = std::fs::remove_file(&spec.path);
        let _ = std::fs::remove_file(&copy.path);
    }

    #[test]
    #[should_panic(expected = "did not exhaust")]
    fn stalling_schedule_panics_instead_of_spinning() {
        // Two workers that are never exhausted and never get a block.
        let plan: Rc<dyn Fn(u32) -> Plan> = Rc::new(|_| {
            let grid =
                crate::sched::BlockGrid::from_cells(&one_cell(), vec![0, 1], vec![0, 1], &[]);
            (grid, blocks(&[], vec![u64::MAX; 2]))
        });
        let begun = Rc::new(Cell::new(0));
        let cfg = SolverConfig {
            epochs: 1,
            ..base_config(Scheme::LibmfTable { workers: 2, a: 1 })
        };
        let _ = train_on::<f32>(
            &one_cell(),
            &cfg,
            None,
            &|| Scripted::boxed(&plan, &begun),
            ExecMode::Sequential,
        );
    }
}
