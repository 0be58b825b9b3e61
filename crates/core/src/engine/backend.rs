//! Backend layer: what one epoch of training *is*.
//!
//! An [`EpochBackend`] owns everything below the epoch loop — data,
//! scheduling state, execution engine — and exposes a single operation:
//! run epoch `e` at learning rate `γ` against an [`EngineModel`].
//!
//! * [`StreamBackend`] — the single-device path: one [`UpdateStream`]
//!   feeding one [`ExecEngine`] (the solver);
//! * [`CertifyingBackend`] — the single-device path for a schedule that
//!   claims conflict-freedom: sequential execution that proves the claim
//!   as it runs;
//! * [`PartitionedBackend`] — §6's multi-GPU path: an i×j grid scheduled
//!   in waves of independent blocks, each block executed with the
//!   stale-additive engine, timed by the transfer/compute pipeline model.
//!
//! A custom backend (the `baselines` crate's BIDMach mini-batch sweep)
//! implements the same trait, which is how it shares the solver's epoch
//! loop.

use cumf_data::CooMatrix;
use cumf_gpu_sim::pipeline::{overlapped, serial, BlockJob};
use cumf_gpu_sim::{GpuSpec, LinkSpec};
use cumf_rng::{ChaCha8Rng, SeedableRng};

use crate::concurrent::EpochStats;
use crate::feature::Element;
use crate::multi_gpu::EpochTiming;
use crate::partition::{schedule_epoch, BlockId, Grid};
use crate::sched::{BatchHogwildStream, Certifier, UpdateStream};
use crate::SgdUpdateCost;

use super::exec::{sequential_epoch, stale_additive_epoch, ExecEngine};
use super::model::EngineModel;

/// What one epoch produced: execution statistics plus, for backends with
/// their own machine model, a simulated duration.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Update/round/collision counts of the epoch.
    pub stats: EpochStats,
    /// Simulated seconds computed by the backend itself (the multi-GPU
    /// pipeline model); `None` when the backend has no native clock.
    pub backend_seconds: Option<f64>,
    /// Detailed timing breakdown, when the backend produces one.
    pub timing: Option<EpochTiming>,
}

impl EpochOutcome {
    /// An outcome carrying only execution statistics.
    pub fn from_stats(stats: EpochStats) -> Self {
        EpochOutcome {
            stats,
            backend_seconds: None,
            timing: None,
        }
    }
}

/// One epoch of training, abstracted over *how* updates are produced.
pub trait EpochBackend<E: Element> {
    /// Runs epoch `epoch` (0-based) at learning rate `gamma`.
    fn run_epoch(
        &mut self,
        epoch: u32,
        gamma: f32,
        lambda: f32,
        model: &mut EngineModel<E>,
    ) -> EpochOutcome;

    /// Parallel workers the backend models (feeds the time domain).
    fn workers(&self) -> u32;

    /// Backend name for reports.
    fn name(&self) -> &'static str;
}

/// The single-device backend: one update stream driving one execution
/// engine over one COO matrix.
pub struct StreamBackend<'a, E: Element> {
    data: &'a CooMatrix,
    stream: Box<dyn UpdateStream>,
    engine: Box<dyn ExecEngine<E>>,
    workers: u32,
}

impl<'a, E: Element> StreamBackend<'a, E> {
    /// Builds the backend; `workers` is the scheme's worker count (what
    /// the machine-time model charges bandwidth for).
    pub fn new(
        data: &'a CooMatrix,
        stream: Box<dyn UpdateStream>,
        engine: Box<dyn ExecEngine<E>>,
        workers: u32,
    ) -> Self {
        StreamBackend {
            data,
            stream,
            engine,
            workers,
        }
    }
}

impl<E: Element> EpochBackend<E> for StreamBackend<'_, E> {
    fn run_epoch(
        &mut self,
        epoch: u32,
        gamma: f32,
        lambda: f32,
        model: &mut EngineModel<E>,
    ) -> EpochOutcome {
        self.stream.begin_epoch(epoch);
        let stats =
            self.engine
                .run_epoch(self.data, model.view(), self.stream.as_mut(), gamma, lambda);
        EpochOutcome::from_stats(stats)
    }

    fn workers(&self) -> u32 {
        self.workers
    }

    fn name(&self) -> &'static str {
        "stream"
    }
}

/// The single-device backend for a multi-worker schedule that claims
/// conflict-freedom: [`sequential_epoch`] executes each epoch and feeds
/// every round to a [`Certifier`], so the run proves its own schedule as
/// it goes instead of replaying it first. Collect the certifier with
/// [`CertifyingBackend::into_certifier`] once the run ends.
pub struct CertifyingBackend<'a> {
    data: &'a CooMatrix,
    stream: Box<dyn UpdateStream>,
    certifier: Certifier,
}

impl<'a> CertifyingBackend<'a> {
    /// Builds the backend; `certifier` must already hold every epoch
    /// before the first one this backend will run.
    pub fn new(data: &'a CooMatrix, stream: Box<dyn UpdateStream>, certifier: Certifier) -> Self {
        CertifyingBackend {
            data,
            stream,
            certifier,
        }
    }

    /// The certifier, holding every executed epoch.
    pub fn into_certifier(self) -> Certifier {
        self.certifier
    }
}

impl<E: Element> EpochBackend<E> for CertifyingBackend<'_> {
    fn run_epoch(
        &mut self,
        epoch: u32,
        gamma: f32,
        lambda: f32,
        model: &mut EngineModel<E>,
    ) -> EpochOutcome {
        self.stream.begin_epoch(epoch);
        self.certifier.begin_epoch(epoch);
        let stats = sequential_epoch(
            self.data,
            model.view(),
            self.stream.as_mut(),
            gamma,
            lambda,
            Some(&mut self.certifier),
        );
        EpochOutcome::from_stats(stats)
    }

    fn workers(&self) -> u32 {
        self.stream.workers() as u32
    }

    fn name(&self) -> &'static str {
        "certifying"
    }
}

/// The §6 partitioned backend: schedules waves of independent grid blocks
/// over `g` simulated GPUs, executes each block with the stale-additive
/// engine (batch-Hogwild! inside the block), and prices the epoch with the
/// transfer/compute pipeline model.
pub struct PartitionedBackend<'a, E: Element> {
    data: &'a CooMatrix,
    grid: Grid,
    gpus: u32,
    workers_per_gpu: u32,
    batch: u32,
    overlap: bool,
    cost: SgdUpdateCost,
    gpu: &'a GpuSpec,
    link: &'a LinkSpec,
    rng: ChaCha8Rng,
    epoch_seed: Option<u64>,
    _marker: std::marker::PhantomData<E>,
}

impl<'a, E: Element> PartitionedBackend<'a, E> {
    /// Builds the backend. `rng` must be handed over *after* model
    /// initialisation so wave scheduling consumes the same stream of
    /// randomness as the historical monolithic loop.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        data: &'a CooMatrix,
        grid: Grid,
        gpus: u32,
        workers_per_gpu: u32,
        batch: u32,
        overlap: bool,
        cost: SgdUpdateCost,
        gpu: &'a GpuSpec,
        link: &'a LinkSpec,
        rng: ChaCha8Rng,
    ) -> Self {
        PartitionedBackend {
            data,
            grid,
            gpus,
            workers_per_gpu,
            batch,
            overlap,
            cost,
            gpu,
            link,
            rng,
            epoch_seed: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Switches wave scheduling from the advancing RNG stream to a pure
    /// per-epoch function of `seed`: epoch `e` always draws its schedule
    /// from `ChaCha8(seed ⊕ h(e))`, no matter what ran before. The
    /// historical stream stays the default; the fault supervisor needs
    /// this mode so a rollback (or a rebuilt backend after device loss)
    /// re-executes an epoch with *exactly* the schedule it had the first
    /// time.
    pub fn with_epoch_seed(mut self, seed: u64) -> Self {
        self.epoch_seed = Some(seed);
        self
    }

    /// Runs one block's SGD updates with batch-Hogwild! semantics confined
    /// to the block's coordinate window.
    fn execute_block(
        &mut self,
        id: BlockId,
        epoch: u32,
        gamma: f32,
        lambda: f32,
        model: &mut EngineModel<E>,
    ) -> u64 {
        let samples = self.grid.block(id);
        if samples.is_empty() {
            return 0;
        }
        // Materialise the block as a COO window in *global* coordinates:
        // the engine updates P/Q rows directly, mirroring the device-side
        // segments being written back (§6.1).
        let mut block = CooMatrix::with_capacity(self.data.rows(), self.data.cols(), samples.len());
        for &s in samples {
            let e = self.data.get(s);
            block.push(e.u, e.v, e.r);
        }
        let workers = (self.workers_per_gpu as usize).min(samples.len().max(1));
        let mut stream = BatchHogwildStream::new(block.nnz(), workers, self.batch as usize);
        stream.begin_epoch(epoch);
        let stats = stale_additive_epoch(&block, model.view(), &mut stream, gamma, lambda);
        stats.updates
    }
}

impl<E: Element> EpochBackend<E> for PartitionedBackend<'_, E> {
    fn run_epoch(
        &mut self,
        epoch: u32,
        gamma: f32,
        lambda: f32,
        model: &mut EngineModel<E>,
    ) -> EpochOutcome {
        let schedule = match self.epoch_seed {
            Some(seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    seed ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                schedule_epoch(&self.grid, self.gpus, &mut rng)
            }
            None => schedule_epoch(&self.grid, self.gpus, &mut self.rng),
        };

        // --- Convergence: execute every block's updates (wave by wave;
        // independence makes program order exact).
        let mut stats = EpochStats::default();
        for wave in &schedule.waves {
            for block_id in wave.iter().flatten() {
                stats.updates += self.execute_block(*block_id, epoch, gamma, lambda, model);
            }
        }

        // --- Timing: per-GPU pipeline of its assigned blocks.
        let timing = epoch_timing(
            &schedule.waves,
            &self.grid,
            self.gpus,
            self.workers_per_gpu,
            self.overlap,
            &self.cost,
            self.gpu,
            self.link,
        );
        EpochOutcome {
            stats,
            backend_seconds: Some(timing.seconds),
            timing: Some(timing),
        }
    }

    fn workers(&self) -> u32 {
        self.gpus * self.workers_per_gpu
    }

    fn name(&self) -> &'static str {
        "partitioned"
    }
}

/// Computes a partitioned epoch's simulated time: each GPU pipelines its
/// block sequence (H2D block+segments, compute, D2H segments); the epoch
/// ends when the slowest GPU finishes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn epoch_timing(
    waves: &[Vec<Option<BlockId>>],
    grid: &Grid,
    gpus: u32,
    workers_per_gpu: u32,
    overlap: bool,
    cost: &SgdUpdateCost,
    gpu: &GpuSpec,
    link: &LinkSpec,
) -> EpochTiming {
    let elem_bytes = cost.precision.bytes() as f64;
    let k = cost.k as f64;
    let mut worst = EpochTiming {
        seconds: 0.0,
        compute_seconds: 0.0,
        transfer_seconds: 0.0,
        idle_slots: 0,
    };
    for g in 0..gpus as usize {
        let jobs: Vec<BlockJob> = waves
            .iter()
            .filter_map(|wave| wave[g])
            .map(|id| {
                let samples = grid.block(id).len() as f64;
                let seg_bytes = (grid.row_range(id.bi).len() as f64
                    + grid.col_range(id.bj).len() as f64)
                    * k
                    * elem_bytes;
                BlockJob {
                    h2d_bytes: samples * 12.0 + seg_bytes,
                    compute_bytes: samples * cost.bytes() as f64,
                    d2h_bytes: seg_bytes,
                }
            })
            .collect();
        let result = if overlap {
            overlapped(&jobs, gpu, link, workers_per_gpu)
        } else {
            serial(&jobs, gpu, link, workers_per_gpu)
        };
        if result.makespan > worst.seconds {
            worst.seconds = result.makespan;
            worst.compute_seconds = result.compute_time;
            worst.transfer_seconds = result.transfer_time;
        }
    }
    worst.idle_slots = waves
        .iter()
        .flat_map(|w| w.iter())
        .filter(|b| b.is_none())
        .count();
    // Inter-GPU synchronisation: segments exchanged through host memory at
    // wave boundaries when more than one GPU runs (the sub-linear-scaling
    // cost the paper reports in §7.7).
    if gpus > 1 {
        worst.seconds += waves.len() as f64 * link.latency_s * gpus as f64;
    }
    EpochTiming { ..worst }
}
