//! Backend layer: what one epoch of training *is*.
//!
//! An [`EpochBackend`] owns everything below the epoch loop — data,
//! scheduling state, execution engine — and exposes a single operation:
//! run epoch `e` at learning rate `γ` against an [`EngineModel`].
//!
//! * [`StreamBackend`] — the single-device path: one [`UpdateStream`]
//!   feeding one [`ExecEngine`] (the solver);
//! * [`CertifyingBackend`] — the single-device path for a block schedule
//!   that claims conflict-freedom: each epoch is certified before it
//!   runs, and epochs whose blocks are overlap-free run block-major on OS
//!   threads;
//! * [`PartitionedBackend`] — §6's multi-GPU path: the cells of an i×j
//!   [`BlockGrid`] scheduled in waves of independent blocks, each block
//!   executed in place with the stale-additive engine, timed by the
//!   transfer/compute pipeline model.
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
use crate::partition::{schedule_epoch, WaveSchedule};
use crate::sched::{Axis, BatchHogwildStream, BlockGrid, Certifier, StreamItem, UpdateStream};
use crate::{SgdUpdateCost, Verdict};

use super::exec::{
    block_epoch, sequential_epoch, stale_additive_rounds, ExecEngine, WorkingRows, WorkingView,
};
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

/// The single-device backend for a multi-worker block schedule that
/// claims conflict-freedom (wavefront, LIBMF's table), each epoch
/// checked by a [`Certifier`]. An epoch whose blocks are
/// [overlap-free](crate::sched::EpochBlocks::overlap_free) cannot
/// collide: the certifier folds its blocks into the digest, and it runs
/// block-major on up to `available_parallelism()` OS threads. Any other
/// epoch is replayed through the per-sample claim scan first and, once
/// certified, run by [`sequential_epoch`]. A refuted epoch is never
/// executed: its outcome carries the schedule's rounds and stalls, no
/// updates, and one collision on the witness's axis, which ends a
/// speculative run. Collect the certifier with
/// [`CertifyingBackend::into_certifier`] once the run ends.
pub struct CertifyingBackend<'a> {
    data: &'a CooMatrix,
    stream: Box<dyn UpdateStream>,
    certifier: Certifier,
    threads: usize,
}

impl<'a> CertifyingBackend<'a> {
    /// Builds the backend; `certifier` must already hold every epoch
    /// before the first one this backend will run.
    ///
    /// # Panics
    ///
    /// Panics if `stream` has no block schedule.
    pub fn new(data: &'a CooMatrix, stream: Box<dyn UpdateStream>, certifier: Certifier) -> Self {
        assert!(
            stream.blocks().is_some(),
            "schedule `{}` claims conflict-freedom but has no block schedule",
            stream.name()
        );
        CertifyingBackend {
            data,
            stream,
            certifier,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
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
        let (grid, blocks) = self.stream.blocks().expect("a block schedule");
        if blocks.overlap_free(grid) {
            self.certifier.certify_overlap_free(epoch, grid, blocks);
            let stats = block_epoch(
                self.data,
                model.view(),
                grid,
                blocks,
                gamma,
                lambda,
                self.threads,
            );
            return EpochOutcome::from_stats(stats);
        }
        // Blocks that share rounds may collide: replay the epoch round by
        // round through the claim scan, then run it only if certified.
        let (rounds, stalls) = (blocks.rounds(), blocks.stalls());
        self.certifier
            .drive_epoch(self.data, epoch, self.stream.as_mut());
        let stats = match self.certifier.verdict() {
            Verdict::Certified(_) => {
                self.stream.begin_epoch(epoch);
                sequential_epoch(self.data, model.view(), self.stream.as_mut(), gamma, lambda)
            }
            Verdict::Refuted(w) => EpochStats {
                rounds,
                stalls,
                row_collisions: u64::from(matches!(w.axis, Axis::Row(_))),
                col_collisions: u64::from(matches!(w.axis, Axis::Col(_))),
                ..EpochStats::default()
            },
        };
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
    grid: &'a BlockGrid,
    gpus: u32,
    workers_per_gpu: u32,
    batch: u32,
    overlap: bool,
    cost: SgdUpdateCost,
    gpu: &'a GpuSpec,
    link: &'a LinkSpec,
    rng: ChaCha8Rng,
    epoch_seed: Option<u64>,
    /// The f32 working copy every cell of an epoch updates.
    rows: WorkingRows,
    _marker: std::marker::PhantomData<E>,
}

impl<'a, E: Element> PartitionedBackend<'a, E> {
    /// Builds the backend. `rng` must be handed over *after* model
    /// initialisation so wave scheduling consumes the same stream of
    /// randomness as the historical monolithic loop.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        data: &'a CooMatrix,
        grid: &'a BlockGrid,
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
            rows: WorkingRows::default(),
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

    /// Runs one cell's SGD updates with batch-Hogwild! semantics confined
    /// to the cell's coordinate window, in place on the epoch's working
    /// P/Q rows (the device-side segments being written back, §6.1).
    fn execute_block(
        &self,
        cell: u32,
        epoch: u32,
        gamma: f32,
        lambda: f32,
        rows: &mut WorkingView<'_>,
    ) -> u64 {
        let samples = self.grid.cell(cell);
        if samples.is_empty() {
            return 0;
        }
        let workers = (self.workers_per_gpu as usize).min(samples.len());
        let mut stream = CellStream {
            samples,
            inner: BatchHogwildStream::new(samples.len(), workers, self.batch as usize),
        };
        stream.begin_epoch(epoch);
        let stats = stale_additive_rounds::<E, _>(self.data, rows, &mut stream, gamma, lambda);
        stats.updates
    }
}

/// A batch-Hogwild! stream over one grid cell: the inner stream schedules
/// the cell's block-local indices `i`, handed out as the matrix's sample
/// `samples[i]`.
struct CellStream<'g> {
    samples: &'g [u32],
    inner: BatchHogwildStream,
}

impl UpdateStream for CellStream<'_> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn next(&mut self, worker: usize) -> StreamItem {
        match self.inner.next(worker) {
            StreamItem::Sample(i) => StreamItem::Sample(self.samples[i] as usize),
            other => other,
        }
    }

    fn begin_epoch(&mut self, epoch: u32) {
        self.inner.begin_epoch(epoch);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
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
                schedule_epoch(self.grid, self.gpus, &mut rng)
            }
            None => schedule_epoch(self.grid, self.gpus, &mut self.rng),
        };

        // --- Convergence: execute every block's updates (wave by wave;
        // independence makes program order exact) on one working copy of
        // P and Q, widened and narrowed once for the whole epoch.
        let mut stats = EpochStats::default();
        let mut working = std::mem::take(&mut self.rows);
        working.run(model.view(), |rows| {
            for wave in &schedule.waves {
                for &cell in wave.iter().flatten() {
                    stats.updates += self.execute_block(cell, epoch, gamma, lambda, rows);
                }
            }
        });
        self.rows = working;

        // --- Timing: per-GPU pipeline of its assigned blocks.
        let timing = epoch_timing(
            &schedule,
            self.grid,
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
    schedule: &WaveSchedule,
    grid: &BlockGrid,
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
        let jobs: Vec<BlockJob> = schedule
            .waves
            .iter()
            .filter_map(|wave| wave[g])
            .map(|cell| {
                let samples = grid.cell(cell).len() as f64;
                let (r, c) = grid.cell_pos(cell);
                let seg_bytes = (grid.row_range(r).len() as f64 + grid.col_range(c).len() as f64)
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
    worst.idle_slots = schedule.idle_slots();
    // Inter-GPU synchronisation: segments exchanged through host memory at
    // wave boundaries when more than one GPU runs (the sub-linear-scaling
    // cost the paper reports in §7.7).
    if gpus > 1 {
        worst.seconds += schedule.len() as f64 * link.latency_s * gpus as f64;
    }
    EpochTiming { ..worst }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::F16;
    use crate::sched::{certify, round_bound, LibmfTableStream, WavefrontStream};

    /// Certified wavefront and LIBMF epochs leave P, Q, the epoch stats
    /// and the certificate bit-identical on 1, 2 and 4 threads, and equal
    /// to the per-sample sequential engine's P, Q and stats.
    fn thread_count_is_invisible<E: Element>() {
        let d = cumf_data::synth::generate(&cumf_data::synth::SynthConfig {
            m: 120,
            n: 150,
            k_true: 4,
            train_samples: 8_000,
            test_samples: 10,
            row_skew: 0.6,
            col_skew: 0.6,
            seed: 31,
            ..Default::default()
        });
        let data = &d.train;
        let streams: [&dyn Fn() -> Box<dyn UpdateStream>; 2] =
            [&|| Box::new(WavefrontStream::new(data, 6, 12, 5)), &|| {
                Box::new(LibmfTableStream::new(data, 4, 9, 5))
            }];
        for make in streams {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let init: EngineModel<E> = EngineModel::init_unbiased(data, 8, &mut rng);
            let (name, workers) = (make().name(), make().workers());
            let bound = round_bound(data, workers);
            let mut reference = init.clone();
            let mut stream = make();
            let reference_stats: Vec<EpochStats> = (0..4)
                .map(|epoch| {
                    stream.begin_epoch(epoch);
                    sequential_epoch(data, reference.view(), stream.as_mut(), 0.05, 0.02)
                })
                .collect();
            let replayed = certify(data, make().as_mut(), 4, bound);
            assert!(replayed.is_certified(), "{name}: {replayed:?}");
            for threads in [1, 2, 4] {
                let mut model = init.clone();
                let mut backend = CertifyingBackend {
                    threads,
                    ..CertifyingBackend::new(data, make(), Certifier::new(name, workers, bound))
                };
                let stats: Vec<EpochStats> = (0..4)
                    .map(|epoch| {
                        EpochBackend::<E>::run_epoch(&mut backend, epoch, 0.05, 0.02, &mut model)
                            .stats
                    })
                    .collect();
                let at = format!("{name} on {threads} threads");
                assert_eq!(model.p.digest(), reference.p.digest(), "{at}");
                assert_eq!(model.q.digest(), reference.q.digest(), "{at}");
                assert_eq!(stats, reference_stats, "{at}");
                assert_eq!(backend.into_certifier().verdict(), replayed, "{at}");
            }
        }
    }

    /// The partitioned backend at 1 and 2 GPUs against the oracle run
    /// cell by cell on the same wave schedules: identical updates and bits
    /// after every epoch, unbiased and biased, with P poisoned before the
    /// second epoch.
    fn partitioned_matches_oracle<E: Element>(untouched: E, touched: E) {
        use super::super::exec::tests::{
            collision_heavy, model_bits, poison, stale_additive_oracle, with_untouched_row,
        };
        let d = collision_heavy();
        let data = &d.train;
        let grid = BlockGrid::build(data, 2, 2);
        let cost = SgdUpdateCost::cumf(8);
        let gpu = cumf_gpu_sim::TITAN_X_MAXWELL;
        let link = cumf_gpu_sim::PCIE3_X16;
        for gpus in [1, 2] {
            for biased in [false, true] {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let init: EngineModel<E> = if biased {
                    EngineModel::init_biased(data, 8, &mut rng)
                } else {
                    EngineModel::init_unbiased(data, 8, &mut rng)
                };
                let mut got = with_untouched_row(&init);
                let mut want = got.clone();
                let mut backend = PartitionedBackend::<E>::new(
                    data,
                    &grid,
                    gpus,
                    4,
                    16,
                    true,
                    cost,
                    &gpu,
                    &link,
                    rng.clone(),
                );
                for epoch in 0..3 {
                    if epoch == 1 {
                        poison(&mut got, untouched, touched);
                        poison(&mut want, untouched, touched);
                    }
                    let updates = backend.run_epoch(epoch, 0.03, 0.02, &mut got).stats.updates;
                    let schedule = schedule_epoch(&grid, gpus, &mut rng);
                    let mut oracle_updates = 0;
                    for &cell in schedule.waves.iter().flatten().flatten() {
                        let samples = grid.cell(cell);
                        let mut stream = CellStream {
                            samples,
                            inner: BatchHogwildStream::new(samples.len(), 4.min(samples.len()), 16),
                        };
                        stream.begin_epoch(epoch);
                        oracle_updates +=
                            stale_additive_oracle(data, want.view(), &mut stream, 0.03, 0.02)
                                .updates;
                    }
                    let at = format!("{} on {gpus} GPUs, biased={biased}, epoch {epoch}", E::NAME);
                    assert_eq!(updates, oracle_updates, "{at}");
                    assert_eq!(model_bits(&got), model_bits(&want), "{at}");
                }
            }
        }
    }

    #[test]
    fn partitioned_epochs_match_the_per_sample_oracle() {
        partitioned_matches_oracle::<f32>(f32::from_bits(0x7F80_0001), f32::NEG_INFINITY);
        partitioned_matches_oracle::<F16>(F16::from_bits(0x7C01), F16::NEG_INFINITY);
    }

    #[test]
    fn block_major_epochs_are_bit_identical_at_any_thread_count() {
        thread_count_is_invisible::<f32>();
        thread_count_is_invisible::<F16>();
    }
}
