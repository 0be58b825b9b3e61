//! Schedule conflict prover: machine-checked conflict-freedom certificates.
//!
//! The paper's §5 scheduling argument rests on a no-overlap invariant:
//! wavefront-update and LIBMF's global table never let two concurrent
//! workers touch the same P row or Q column, while batch-Hogwild!
//! deliberately tolerates (rare) overlaps. Until now that claim lived in
//! doc comments; this module *proves* it per run.
//!
//! [`certify`] symbolically drives any [`UpdateStream`] — the same
//! deterministic schedule the engine will execute — against a dataset's
//! row/column access sets, round by round. Two non-stalled workers landing
//! on the same P row or Q column in one round is exactly the collision the
//! stale-additive engine would double-apply, so the prover either
//!
//! * returns a [`ConflictCert`]: a certificate that *no* round of *any*
//!   checked epoch overlaps, carrying a digest of the schedule it
//!   inspected, or
//! * returns a [`ConflictWitness`]: the first concrete counterexample
//!   (epoch, round, worker pair, shared row/column, sample indices).
//!
//! The prover is incremental: a [`Certifier`] holds the per-round claim
//! scan, the first witness and the digest fold, and is fed epoch by
//! epoch. [`certify`] feeds it by replaying a stream round by round
//! ([`Certifier::drive`]). The blocking policies (wavefront, LIBMF's
//! table) also expose each epoch as a block schedule: an epoch in which
//! no two blocks that share rounds share a grid row or column cannot
//! collide, so the certifier takes it straight from the blocks, with no
//! claim scan; any other epoch gets the round replay. Both paths reach
//! [`certify`]'s verdict bit for bit.
//!
//! What the schedule digest covers depends on the stream:
//!
//! * **Block streams** (wavefront, LIBMF's table): the [`BlockGrid`] once
//!   per certifier — its shape and bounds, then each cell's position,
//!   length and sample indices — and, per epoch, the epoch number and
//!   each block's `(worker, cell, start round, length)`. Those fix the
//!   order in which every sample runs ([`EpochBlocks::round_major`]), so
//!   the digest still names the schedule that ran, at O(blocks) per
//!   epoch (512 on the Yahoo wavefront stand-in) instead of O(samples).
//!   The round replay folds the same blocks once the epoch passes its
//!   claim scan.
//! * **Every other stream** (batch-Hogwild!, Hogwild!, serial): each
//!   `(epoch, round, worker, sample)` quadruple the claim scan passes.
//!
//! [`crate::solver::train_resumable`] certifies a multi-worker block
//! schedule that claims conflict-freedom epoch by epoch on the
//! [`crate::engine::CertifyingBackend`]: an overlap-free epoch runs
//! block-major on OS threads while its digest is folded; any other epoch
//! is replayed round by round first and runs sample by sample only if
//! certified, so a refuted epoch never runs. Epochs the run skips — a
//! resume prefix, the tail after a divergence stop — are replayed into
//! the same certifier, so the verdict equals [`certify`]'s. A schedule that claims conflict-freedom
//! but produces a witness is not silently serialised: the solver discards
//! the speculative run and reruns the whole budget on the stale-additive
//! conflict engine. [`resolve_exec_mode`] is the replay-first form of the
//! same decision.

use cumf_data::CooMatrix;

use crate::concurrent::ExecMode;
use crate::digest::Fnv1a;
use crate::Verdict;

use super::{BlockGrid, EpochBlocks, StreamItem, UpdateStream};

/// Which factor-matrix axis two workers collided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Both workers updated this P row (shared user `u`).
    Row(u32),
    /// Both workers updated this Q column (shared item `v`).
    Col(u32),
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::Row(u) => write!(f, "P-row {u}"),
            Axis::Col(v) => write!(f, "Q-col {v}"),
        }
    }
}

/// A concrete schedule conflict: round `round` of epoch `epoch` handed
/// `sample_a` to `worker_a` and `sample_b` to `worker_b`, and both samples
/// touch `axis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictWitness {
    /// Epoch of the conflicting round.
    pub epoch: u32,
    /// Round index within the epoch (0-based).
    pub round: u64,
    /// First worker of the colliding pair.
    pub worker_a: usize,
    /// Second worker of the colliding pair.
    pub worker_b: usize,
    /// Sample index `worker_a` was scheduled.
    pub sample_a: usize,
    /// Sample index `worker_b` was scheduled.
    pub sample_b: usize,
    /// The shared P row or Q column.
    pub axis: Axis,
}

impl std::fmt::Display for ConflictWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {} round {}: workers {} and {} (samples {} and {}) share {}",
            self.epoch,
            self.round,
            self.worker_a,
            self.worker_b,
            self.sample_a,
            self.sample_b,
            self.axis
        )
    }
}

/// A conflict-freedom certificate: every checked round of every checked
/// epoch of the named schedule is overlap-free on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictCert {
    /// Schedule (policy) name the certificate covers.
    pub schedule: &'static str,
    /// Parallel workers the schedule drives.
    pub workers: usize,
    /// Epochs the prover drove.
    pub epochs_checked: u32,
    /// Scheduling rounds inspected across all checked epochs.
    pub rounds: u64,
    /// Samples inspected across all checked epochs.
    pub samples: u64,
    /// FNV-1a digest of the inspected schedule: its block grid and blocks
    /// for a block stream, its `(epoch, round, worker, sample)` quadruples
    /// in order for any other (see the module docs). Re-certifying the
    /// same deterministic stream must reproduce this digest bit-exactly.
    pub schedule_digest: u64,
}

impl ConflictCert {
    /// The trivial certificate for single-worker schedules: one worker per
    /// round can never pair-conflict, no driving needed.
    pub fn trivial(schedule: &'static str) -> Self {
        ConflictCert {
            schedule,
            workers: 1,
            epochs_checked: 0,
            rounds: 0,
            samples: 0,
            schedule_digest: Fnv1a::new().finish(),
        }
    }
}

impl std::fmt::Display for ConflictCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.epochs_checked == 0 {
            write!(f, "{}: trivially conflict-free (1 worker)", self.schedule)
        } else {
            write!(
                f,
                "{}: conflict-free over {} epochs, {} rounds, {} samples, {} workers \
                 (digest {:016x})",
                self.schedule,
                self.epochs_checked,
                self.rounds,
                self.samples,
                self.workers,
                self.schedule_digest
            )
        }
    }
}

/// Outcome of driving a schedule through the prover: a certificate, or
/// the first counterexample.
pub type ConflictVerdict = Verdict<ConflictCert, ConflictWitness>;

/// One round's claims on P rows and Q columns, in the order workers
/// took their samples.
///
/// Every P row and Q column carries a stamp: the last round that claimed
/// it and the position of its first claim in that round. Starting a
/// round bumps the round number, so it forgets every claim at once, and a
/// claim is one stamp check per axis, O(1) whatever the worker count.
/// The stamp tables grow to the largest row and column claimed.
#[derive(Debug, Clone)]
pub struct RoundClaims {
    /// The current round's number; stamps from other rounds are stale.
    round: u32,
    /// Claims made in the current round.
    len: u32,
    rows: Vec<Stamp>,
    cols: Vec<Stamp>,
}

/// The last round that claimed a P row or Q column, and the position of
/// its first claim in that round.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    round: u32,
    first: u32,
}

/// The earlier claims a new sample collided with in its round: the
/// position, in claim order, of the first earlier claim on the sample's
/// P row and on its Q column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clash {
    /// First earlier claim on the sample's P row.
    pub row: Option<usize>,
    /// First earlier claim on the sample's Q column.
    pub col: Option<usize>,
}

impl Default for RoundClaims {
    /// No claims; round 0 is the stamp of never-claimed rows, so the
    /// first round is 1.
    fn default() -> Self {
        RoundClaims {
            round: 1,
            len: 0,
            rows: Vec::new(),
            cols: Vec::new(),
        }
    }
}

impl RoundClaims {
    /// Forgets every claim (start of a new round).
    pub fn clear(&mut self) {
        self.len = 0;
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // After 2³² rounds the numbers wrap: drop the stale stamps.
            *self = RoundClaims::default();
        }
    }

    /// Records a sample touching P row `u` and Q column `v`, and reports
    /// what it collided with.
    #[inline]
    pub fn claim(&mut self, u: u32, v: u32) -> Clash {
        let at = self.len;
        self.len += 1;
        Clash {
            row: stamp(&mut self.rows, u, self.round, at),
            col: stamp(&mut self.cols, v, self.round, at),
        }
    }
}

/// Stamps entry `i` of `stamps` with claim `at` of `round`, unless this
/// round already claimed it; returns the position of that earlier claim.
#[inline]
fn stamp(stamps: &mut Vec<Stamp>, i: u32, round: u32, at: u32) -> Option<usize> {
    let i = i as usize;
    if i >= stamps.len() {
        stamps.resize(i + 1, Stamp::default());
    }
    let s = &mut stamps[i];
    if s.round == round {
        Some(s.first as usize)
    } else {
        *s = Stamp { round, first: at };
        None
    }
}

/// The prover: the per-round claim scan, the first [`ConflictWitness`],
/// and the FNV-1a fold of the schedule digest (see the module docs for
/// what it covers).
///
/// It is fed epoch by epoch, in ascending order (the digest is a fold),
/// either round by round from [`UpdateStream::next`]
/// ([`Certifier::drive`], the replay [`certify`] runs) or, for an epoch
/// whose blocks are [overlap-free](EpochBlocks::overlap_free), from its
/// block schedule (what the solver runs before executing it). Both reach
/// the same verdict bit for bit. One certifier checks one stream over one
/// data set, so a block stream's grid is folded once, with its first
/// epoch.
#[derive(Debug, Clone)]
pub struct Certifier {
    /// Counts so far; the certificate once all epochs are in.
    cert: ConflictCert,
    digest: Fnv1a,
    /// Whether the block grid is in the digest yet.
    grid_folded: bool,
    max_rounds_per_epoch: u64,
    claims: RoundClaims,
    /// `(worker, sample)` of each claim in `claims`.
    owners: Vec<(usize, usize)>,
    witness: Option<ConflictWitness>,
    epoch: u32,
    round: u64,
}

impl Certifier {
    /// A certifier for a `workers`-worker schedule named `schedule`.
    /// Each epoch must exhaust within `max_rounds_per_epoch` rounds.
    pub fn new(schedule: &'static str, workers: usize, max_rounds_per_epoch: u64) -> Self {
        Certifier {
            cert: ConflictCert {
                workers,
                ..ConflictCert::trivial(schedule)
            },
            digest: Fnv1a::new(),
            grid_folded: false,
            max_rounds_per_epoch,
            claims: RoundClaims::default(),
            owners: Vec::with_capacity(workers),
            witness: None,
            epoch: 0,
            round: 0,
        }
    }

    fn begin_epoch(&mut self, epoch: u32) {
        self.cert.epochs_checked += 1;
        self.epoch = epoch;
        self.round = 0;
    }

    /// Panics when an epoch of `rounds` rounds breaks the round bound (a
    /// scheduling deadlock).
    fn check_rounds(&self, rounds: u64) {
        assert!(
            rounds <= self.max_rounds_per_epoch,
            "schedule `{}` did not exhaust within {} rounds (scheduling deadlock?)",
            self.cert.schedule,
            self.max_rounds_per_epoch
        );
    }

    fn begin_round(&mut self) {
        self.check_rounds(self.round + 1);
        self.claims.clear();
        self.owners.clear();
    }

    /// Checks that `worker`'s `sample` of the current round shares no P
    /// row or Q column with an earlier sample of the round. The first
    /// collision becomes the witness; until then every sample is counted.
    fn claim(&mut self, data: &CooMatrix, worker: usize, sample: usize) {
        let nnz = data.nnz();
        assert!(
            sample < nnz,
            "schedule `{}` produced sample {sample} out of bounds ({nnz})",
            self.cert.schedule
        );
        let e = data.get(sample);
        let clash = self.claims.claim(e.u, e.v);
        self.owners.push((worker, sample));
        if self.witness.is_some() {
            return;
        }
        let first = match clash {
            Clash { row: Some(j), .. } => Some((j, Axis::Row(e.u))),
            Clash { col: Some(j), .. } => Some((j, Axis::Col(e.v))),
            _ => None,
        };
        match first {
            Some((j, axis)) => {
                let (worker_a, sample_a) = self.owners[j];
                self.witness = Some(ConflictWitness {
                    epoch: self.epoch,
                    round: self.round,
                    worker_a,
                    worker_b: worker,
                    sample_a,
                    sample_b: sample,
                    axis,
                });
            }
            None => self.cert.samples += 1,
        }
    }

    /// Folds one sample of a stream without a block schedule.
    #[inline]
    fn fold_sample(&mut self, worker: usize, sample: usize) {
        self.digest = self
            .digest
            .u64(u64::from(self.epoch))
            .u64(self.round)
            .u64(worker as u64)
            .u64(sample as u64);
    }

    /// Folds the current epoch of a block stream: `grid` the first time,
    /// then every block of `blocks`.
    fn fold_blocks(&mut self, grid: &BlockGrid, blocks: &EpochBlocks) {
        let mut h = self.digest;
        if !self.grid_folded {
            self.grid_folded = true;
            h = h.u64(grid.rows().into()).u64(grid.cols().into());
            for &b in grid.row_bounds().iter().chain(grid.col_bounds()) {
                h = h.u64(b.into());
            }
            for cell in 0..grid.cells() as u32 {
                let ((r, c), samples) = (grid.cell_pos(cell), grid.cell(cell));
                h = h.u64(r.into()).u64(c.into()).u64(samples.len() as u64);
                for &s in samples {
                    h = h.u64(s.into());
                }
            }
        }
        h = h.u64(self.epoch.into());
        for b in blocks.blocks() {
            h = h
                .u64(b.worker.into())
                .u64(b.cell.into())
                .u64(b.start)
                .u64(b.len.into());
        }
        self.digest = h;
    }

    fn end_round(&mut self) {
        self.round += 1;
        self.cert.rounds += 1;
    }

    /// True once a collision was seen.
    pub fn is_refuted(&self) -> bool {
        self.witness.is_some()
    }

    /// Drives `stream` through `epochs` without executing anything,
    /// exactly as the execution engine would consume it
    /// ([`UpdateStream::begin_epoch`], then one [`UpdateStream::next`]
    /// per live worker per round). Returns at the first collision.
    pub fn drive<S: UpdateStream + ?Sized>(
        &mut self,
        data: &CooMatrix,
        stream: &mut S,
        epochs: std::ops::Range<u32>,
    ) {
        for epoch in epochs {
            stream.begin_epoch(epoch);
            self.drive_epoch(data, epoch, stream);
            if self.is_refuted() {
                return;
            }
        }
    }

    /// Checks epoch `epoch` of `stream`, already begun, round by round
    /// with the per-sample claim scan, stopping at the first collision.
    /// A block stream's epoch is folded from its blocks once it passes.
    pub(crate) fn drive_epoch<S: UpdateStream + ?Sized>(
        &mut self,
        data: &CooMatrix,
        epoch: u32,
        stream: &mut S,
    ) {
        self.begin_epoch(epoch);
        let per_sample = stream.blocks().is_none();
        let mut exhausted = vec![false; stream.workers()];
        let mut live = exhausted.len();
        while live > 0 {
            self.begin_round();
            for (w, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                match stream.next(w) {
                    StreamItem::Sample(i) => {
                        self.claim(data, w, i);
                        if self.is_refuted() {
                            return;
                        }
                        if per_sample {
                            self.fold_sample(w, i);
                        }
                    }
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => {
                        *done = true;
                        live -= 1;
                    }
                }
            }
            self.end_round();
        }
        if let Some((grid, blocks)) = stream.blocks() {
            self.fold_blocks(grid, blocks);
        }
    }

    /// Certifies epoch `epoch` from its block schedule over `grid`, which
    /// must be [overlap-free](EpochBlocks::overlap_free): such an epoch
    /// cannot collide, so its blocks are folded into the digest with no
    /// claim scan, reaching the verdict [`Certifier::drive`] reaches
    /// replaying it round by round.
    ///
    /// # Panics
    ///
    /// Panics if the epoch exceeds the round bound.
    pub(crate) fn certify_overlap_free(
        &mut self,
        epoch: u32,
        grid: &BlockGrid,
        blocks: &EpochBlocks,
    ) {
        debug_assert!(blocks.overlap_free(grid));
        self.begin_epoch(epoch);
        let rounds = blocks.rounds();
        self.check_rounds(rounds);
        self.cert.rounds += rounds;
        self.cert.samples += blocks.samples();
        self.fold_blocks(grid, blocks);
    }

    /// The verdict over every epoch fed so far: the first witness, or the
    /// certificate.
    pub fn verdict(&self) -> ConflictVerdict {
        match self.witness {
            Some(w) => Verdict::Refuted(w),
            None => Verdict::Certified(ConflictCert {
                schedule_digest: self.digest.finish(),
                ..self.cert
            }),
        }
    }
}

/// Drives `stream` for `epochs` epochs against `data`'s row/column access
/// sets and proves conflict-freedom or produces a witness.
///
/// The stream is consumed epoch by epoch exactly as the execution engine
/// would consume it ([`UpdateStream::begin_epoch`] then one
/// [`UpdateStream::next`] per live worker per round), so the certificate
/// covers precisely the schedule a training run over the same seed would
/// execute. The stream is left positioned at the end of epoch
/// `epochs - 1` (or at the witness); call `begin_epoch` to reuse it (all
/// streams are deterministic, so replay is exact).
///
/// `max_rounds_per_epoch` guards against non-terminating schedules; the
/// prover panics if an epoch fails to exhaust within the bound (a
/// scheduling deadlock — itself a bug the bound surfaces).
///
/// # Panics
///
/// Panics if the stream schedules a sample index out of `data`'s bounds,
/// or if an epoch exceeds `max_rounds_per_epoch` rounds.
pub fn certify<S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    stream: &mut S,
    epochs: u32,
    max_rounds_per_epoch: u64,
) -> ConflictVerdict {
    if stream.workers() <= 1 {
        // A single worker cannot pair-conflict.
        return Verdict::Certified(ConflictCert::trivial(stream.name()));
    }
    let mut certifier = Certifier::new(stream.name(), stream.workers(), max_rounds_per_epoch);
    certifier.drive(data, stream, 0..epochs);
    certifier.verdict()
}

/// A generous per-epoch round bound for `workers`-worker schedules of
/// `data`: rounds are bounded by samples plus per-worker bookkeeping, and
/// every stream in the workspace finishes an epoch well within it
/// (stall-heavy wavefront rounds included).
pub fn round_bound(data: &CooMatrix, workers: usize) -> u64 {
    (data.nnz() as u64 + 2) * (workers as u64 + 1) + 64
}

/// The execution mode a schedule named `schedule` that claims
/// [`ExecMode::Sequential`] earns with `verdict`: Sequential when
/// certified; [`ExecMode::StaleAdditive`] (the engine that models its
/// races honestly) when refuted, with a warning. Counts either outcome
/// in the `cumf_core_sched_{certified,refuted}_total` series.
pub(crate) fn adjudicate(verdict: &ConflictVerdict, schedule: &str) -> ExecMode {
    match verdict {
        Verdict::Certified(_) => {
            cumf_obs::counter(
                "cumf_core_sched_certified_total",
                "Schedules proven conflict-free before sequential execution",
            )
            .inc();
            ExecMode::Sequential
        }
        Verdict::Refuted(w) => {
            cumf_obs::counter(
                "cumf_core_sched_refuted_total",
                "Sequential-claiming schedules refuted by a conflict witness",
            )
            .inc();
            eprintln!(
                "warning: schedule `{schedule}` claims conflict-freedom but conflicts ({w}); \
                 downgrading to the stale-additive conflict engine"
            );
            ExecMode::StaleAdditive
        }
    }
}

/// Resolves the execution mode for a schedule that *claims*
/// `default_mode` by replaying it before anything runs:
/// [`ExecMode::Sequential`] is only honoured when [`certify`] proves the
/// schedule conflict-free over the epochs about to run; a refuted
/// schedule is downgraded to [`ExecMode::StaleAdditive`] (the engine that
/// models its races honestly) with a warning, and the witness returned.
/// The solver reaches the same verdict without the replay, by certifying
/// as it executes; tools that rebuild the solver from public calls use
/// this.
///
/// Non-sequential defaults pass through untouched (racy engines need no
/// certificate). The probe stream is consumed; pass a dedicated instance.
pub fn resolve_exec_mode<S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    probe: &mut S,
    default_mode: ExecMode,
    epochs: u32,
) -> (ExecMode, Option<ConflictVerdict>) {
    if default_mode != ExecMode::Sequential {
        return (default_mode, None);
    }
    let verdict = certify(data, probe, epochs, round_bound(data, probe.workers()));
    (adjudicate(&verdict, probe.name()), Some(verdict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{
        BatchHogwildStream, LibmfTableStream, ScheduledBlock, SerialStream, UpdateStream,
        WavefrontStream,
    };

    #[test]
    fn round_claims_report_the_first_earlier_claim() {
        let clash = |row, col| Clash { row, col };
        let mut claims = RoundClaims::default();
        for round in 0..2 {
            if round == 1 {
                // The stamps forget the round at once, also when its
                // number wraps.
                claims.round = u32::MAX;
            }
            claims.clear();
            assert_eq!(claims.claim(4, 7), clash(None, None));
            assert_eq!(claims.claim(9, 2), clash(None, None));
            assert_eq!(claims.claim(4, 3), clash(Some(0), None));
            assert_eq!(claims.claim(5, 2), clash(None, Some(1)));
            // The first claim on an axis, not the latest.
            assert_eq!(claims.claim(4, 2), clash(Some(0), Some(1)));
        }
    }

    fn matrix(m: u32, n: u32, nnz: usize) -> CooMatrix {
        let mut coo = CooMatrix::new(m, n);
        for i in 0..nnz {
            coo.push(
                (i as u32).wrapping_mul(7919) % m,
                (i as u32).wrapping_mul(104_729) % n,
                1.0,
            );
        }
        coo
    }

    #[test]
    fn serial_is_trivially_certified() {
        let data = matrix(8, 8, 50);
        let mut s = SerialStream::new(data.nnz());
        let v = certify(&data, &mut s, 3, 10_000);
        let cert = v.certificate().expect("serial must certify");
        assert_eq!(cert.workers, 1);
        assert_eq!(cert.epochs_checked, 0); // trivial path
    }

    #[test]
    fn wavefront_certifies_and_digest_is_replayable() {
        let data = matrix(64, 64, 1500);
        let mut a = WavefrontStream::new(&data, 4, 8, 9);
        let mut b = WavefrontStream::new(&data, 4, 8, 9);
        let va = certify(&data, &mut a, 4, 1_000_000);
        let vb = certify(&data, &mut b, 4, 1_000_000);
        let ca = va.certificate().expect("wavefront must certify");
        let cb = vb.certificate().expect("wavefront must certify");
        assert_eq!(ca, cb, "deterministic schedule, deterministic cert");
        assert_eq!(ca.samples, 4 * 1500);
        assert!(ca.schedule_digest != 0);
    }

    #[test]
    fn certifier_fed_in_pieces_matches_certify() {
        // The solver replays a resume prefix, executes the middle epochs
        // and replays the tail, all into one certifier.
        let data = matrix(64, 64, 1500);
        let whole = certify(
            &data,
            &mut WavefrontStream::new(&data, 4, 8, 9),
            5,
            1_000_000,
        );
        let mut c = Certifier::new("wavefront", 4, 1_000_000);
        c.drive(&data, &mut WavefrontStream::new(&data, 4, 8, 9), 0..2);
        c.drive(&data, &mut WavefrontStream::new(&data, 4, 8, 9), 2..3);
        c.drive(&data, &mut WavefrontStream::new(&data, 4, 8, 9), 3..5);
        assert_eq!(c.verdict(), whole);
        assert!(whole.is_certified());
    }

    #[test]
    fn libmf_certifies() {
        let data = matrix(60, 60, 900);
        let mut s = LibmfTableStream::new(&data, 5, 6, 3);
        let v = certify(&data, &mut s, 3, 1_000_000);
        assert!(v.is_certified(), "{v:?}");
    }

    #[test]
    fn batch_hogwild_on_1x1_is_refuted_with_witness() {
        let mut coo = CooMatrix::new(1, 1);
        for _ in 0..8 {
            coo.push(0, 0, 1.0);
        }
        let mut s = BatchHogwildStream::new(coo.nnz(), 2, 1);
        let v = certify(&coo, &mut s, 1, 10_000);
        let w = v.witness().expect("1x1 Hogwild! must conflict");
        assert_eq!(w.epoch, 0);
        assert_eq!(w.round, 0);
        assert_eq!((w.worker_a, w.worker_b), (0, 1));
        assert_eq!(w.axis, Axis::Row(0), "row axis is checked first");
        assert_ne!(w.sample_a, w.sample_b);
    }

    #[test]
    fn certificate_consumption_downgrades_refuted_schedules() {
        let mut coo = CooMatrix::new(1, 1);
        for _ in 0..8 {
            coo.push(0, 0, 1.0);
        }
        let mut racy = BatchHogwildStream::new(coo.nnz(), 2, 1);
        let (mode, verdict) = resolve_exec_mode(&coo, &mut racy, ExecMode::Sequential, 1);
        assert_eq!(mode, ExecMode::StaleAdditive);
        assert!(verdict.unwrap().witness().is_some());

        let data = matrix(64, 64, 500);
        let mut clean = WavefrontStream::new(&data, 4, 8, 1);
        let (mode, verdict) = resolve_exec_mode(&data, &mut clean, ExecMode::Sequential, 2);
        assert_eq!(mode, ExecMode::Sequential);
        assert!(verdict.unwrap().is_certified());
    }

    #[test]
    fn non_sequential_defaults_pass_through() {
        let data = matrix(8, 8, 20);
        let mut s = BatchHogwildStream::new(data.nnz(), 4, 2);
        let (mode, verdict) = resolve_exec_mode(&data, &mut s, ExecMode::StaleAdditive, 5);
        assert_eq!(mode, ExecMode::StaleAdditive);
        assert!(verdict.is_none());
    }

    /// A 4×4 matrix whose 2×2 grid holds samples 0–1 in cell 0, 2 in
    /// cell 1, 3 in cell 2 and 4–5 in cell 3; `moved` puts sample 1 in
    /// cell 1 instead.
    fn grid_2x2(moved: bool) -> BlockGrid {
        let mut coo = CooMatrix::new(4, 4);
        let col = if moved { 3 } else { 1 };
        for (u, v) in [(0, 0), (1, col), (0, 2), (2, 0), (2, 2), (3, 3)] {
            coo.push(u, v, 1.0);
        }
        BlockGrid::build(&coo, 2, 2)
    }

    /// The schedule digest of one overlap-free epoch of three workers,
    /// given as blocks `(start, worker, cell, len)`.
    fn block_digest(grid: &BlockGrid, blocks: [(u64, u32, u32, u32); 4]) -> u64 {
        let blocks = blocks
            .iter()
            .map(|&(start, worker, cell, len)| ScheduledBlock {
                start,
                worker,
                cell,
                len,
            })
            .collect();
        let mut c = Certifier::new("blocks", 3, 100);
        c.certify_overlap_free(0, grid, &EpochBlocks::new(blocks, vec![4; 3]));
        c.verdict()
            .certificate()
            .expect("no claim scan")
            .schedule_digest
    }

    #[test]
    fn block_digest_changes_under_every_schedule_mutation() {
        let grid = grid_2x2(false);
        let cells = |g: &BlockGrid| (0..4).map(|c| g.cell(c).to_vec()).collect::<Vec<_>>();
        assert_eq!(cells(&grid), [vec![0, 1], vec![2], vec![3], vec![4, 5]]);
        assert_eq!(
            cells(&grid_2x2(true)),
            [vec![0], vec![1, 2], vec![3], vec![4, 5]]
        );
        // Workers 0 and 1 sweep the diagonal cells, then the other two.
        let base = [(0, 0, 0, 2), (0, 1, 3, 2), (2, 0, 1, 1), (2, 1, 2, 1)];
        let digest = block_digest(&grid, base);
        assert_eq!(block_digest(&grid_2x2(false), base), digest);
        let mutants = [
            (
                "sample moved between cells",
                block_digest(&grid_2x2(true), base),
            ),
            (
                "block start shifted",
                block_digest(&grid, [base[0], base[1], base[2], (3, 1, 2, 1)]),
            ),
            (
                "block worker reassigned",
                block_digest(&grid, [base[0], base[1], base[2], (2, 2, 2, 1)]),
            ),
            (
                "two blocks' cells swapped",
                block_digest(&grid, [(0, 0, 3, 2), (0, 1, 0, 2), base[2], base[3]]),
            ),
        ];
        for (mutation, mutant) in mutants {
            assert_ne!(mutant, digest, "{mutation}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_sample_is_rejected() {
        struct Bogus;
        impl UpdateStream for Bogus {
            fn workers(&self) -> usize {
                2
            }
            fn next(&mut self, _w: usize) -> StreamItem {
                StreamItem::Sample(999)
            }
            fn begin_epoch(&mut self, _e: u32) {}
            fn name(&self) -> &'static str {
                "bogus"
            }
        }
        let data = matrix(4, 4, 10);
        let _ = certify(&data, &mut Bogus, 1, 100);
    }
}
