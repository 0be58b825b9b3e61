//! Deterministic fault injection and self-healing supervision.
//!
//! The paper's multi-GPU pipeline (§6: partitioned Hogwild! over
//! PCIe/NVLink with overlapped transfers) assumes devices, links, and
//! gradients never misbehave. A production-scale system must keep training
//! through device loss, corrupted transfers, and NaN storms — exactly the
//! partition hand-off seams where heterogeneous MF systems report faults
//! surfacing. This module makes those faults *first-class and seeded*:
//!
//! * [`FaultPlan`] — a deterministic schedule of [`FaultEvent`]s, placed by
//!   epoch and optionally drawn from `cumf-rng`, so the same seed always
//!   produces the same faults *and* the same recovery story;
//! * [`FaultyPartitionedBackend`] — an [`crate::engine::EpochBackend`]
//!   decorator that injects transfer corruption/stalls (checksummed
//!   hand-offs, DES timeout detection, bounded retry with exponential
//!   backoff), NaN/Inf gradient storms, and learning-rate spikes into the
//!   partitioned path;
//! * [`TrainSupervisor`] — wraps the epoch pipeline and recovers by
//!   policy: retry/backoff for transfer faults, rollback-to-checkpoint
//!   (reusing the CMFK resume machinery, learning-rate state included) for
//!   divergence and NaN storms, and graceful degradation onto the
//!   surviving simulated GPUs for device loss;
//! * [`chaos`] — the scenario matrix behind `cumf chaos`: fault × policy
//!   runs asserted against the fault-free baseline RMSE.
//!
//! Every injection, detection, retry, rollback, and degradation is
//! recorded in a [`RecoveryLog`] (digestable for determinism checks),
//! counted in the `cumf-obs` registry (`cumf_faults_*` series), and
//! wrapped in `faults`-category trace spans.

pub mod chaos;
mod inject;
mod retry;
mod supervisor;

pub use chaos::{run_chaos, ChaosOptions, ChaosReport, ScenarioOutcome, ScenarioResult};
pub use inject::FaultyPartitionedBackend;
pub use retry::{detect_stall, RetryPolicy, StallVerdict};
pub use supervisor::{
    SupervisedResult, SupervisorConfig, TrainError, TrainSupervisor, WatchdogAnno,
};

use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

/// The recovery-log and fault-plan digest, re-exported where downstream
/// tools already import it.
pub use crate::digest::fnv1a64;

/// What goes wrong. Each variant names one seam of the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A simulated GPU drops out of the ensemble. Recovered by graceful
    /// degradation: the grid is re-scheduled onto the surviving devices.
    DeviceLoss {
        /// Ensemble index of the lost device.
        gpu: u32,
    },
    /// SM throttling: only `survival` of the device's streaming
    /// multiprocessors stay healthy (see
    /// [`GpuSpec::throttled`](cumf_gpu_sim::GpuSpec::throttled)). A timing
    /// fault — numerics are unaffected, throughput drops.
    SmThrottle {
        /// Fraction of SMs surviving, `(0, 1]`.
        survival: f64,
    },
    /// A partition hand-off transfer arrives corrupted (bit flips on the
    /// link). Detected by the hand-off checksum, recovered by bounded
    /// retry with exponential backoff.
    TransferCorruption {
        /// Factor entries flipped per corrupted transfer.
        flips: u32,
        /// The link delivers cleanly from this attempt on (1-based); a
        /// value above the retry policy's `max_attempts` means the link is
        /// effectively down and the run must fail typed, not spin.
        clean_after: u32,
    },
    /// A transfer stalls for `stall_s` simulated seconds. Detection goes
    /// through a DES timeout race (see [`detect_stall`]); `permanent`
    /// stalls exhaust the retry budget and surface a [`TrainError`].
    TransferStall {
        /// Stall length in simulated seconds.
        stall_s: f64,
        /// If true the link never recovers.
        permanent: bool,
    },
    /// A NaN/Inf gradient storm poisons factor rows (kernel-path fault).
    /// Detected by the post-epoch non-finite scan, recovered by rollback
    /// to the last checkpoint.
    NanStorm {
        /// Number of P rows poisoned.
        rows: u32,
    },
    /// The learning rate spikes by `factor` for one epoch (a scheduler
    /// glitch), typically driving divergence. Recovered by rollback.
    LrSpike {
        /// Multiplier applied to that epoch's γ.
        factor: f32,
    },
}

impl FaultKind {
    /// Short stable name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DeviceLoss { .. } => "device-loss",
            FaultKind::SmThrottle { .. } => "sm-throttle",
            FaultKind::TransferCorruption { .. } => "transfer-corruption",
            FaultKind::TransferStall { .. } => "transfer-stall",
            FaultKind::NanStorm { .. } => "nan-storm",
            FaultKind::LrSpike { .. } => "lr-spike",
        }
    }

    /// True for faults the supervisor handles at a segment boundary
    /// (rebuilding the backend) rather than inside an epoch.
    pub fn is_topology_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::DeviceLoss { .. } | FaultKind::SmThrottle { .. }
        )
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The 0-based epoch at whose start the fault fires.
    pub epoch: u32,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the event is due at (or before) the given epoch. Events are
    /// one-shot: the caller tracks consumption, so `due` uses `>=` and a
    /// consumed event never re-fires — which is what keeps a rolled-back
    /// re-execution of the same epochs fault-free.
    pub fn due(&self, epoch: u32) -> bool {
        epoch >= self.epoch
    }
}

/// A deterministic, seedable schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events, in insertion order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` at the start of `epoch` (builder style).
    pub fn at_epoch(mut self, epoch: u32, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { epoch, kind });
        self
    }

    /// Draws `count` faults uniformly from `menu`, scheduled at distinct
    /// epochs in `1..epochs`, all deterministically from `seed` — the same
    /// seed always yields the same plan (and therefore, under supervision,
    /// the same recovery log).
    pub fn seeded(seed: u64, epochs: u32, menu: &[FaultKind], count: usize) -> Self {
        assert!(!menu.is_empty(), "fault menu must not be empty");
        assert!(epochs >= 2, "need at least 2 epochs to schedule faults");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17);
        let mut plan = FaultPlan::new();
        let mut used = Vec::new();
        for _ in 0..count {
            let kind = menu[rng.gen_range(0..menu.len())];
            // Distinct epochs keep recovery stories readable; fall back to
            // collisions once the epoch range is exhausted.
            let mut epoch = rng.gen_range(1..epochs);
            for _ in 0..8 {
                if !used.contains(&epoch) {
                    break;
                }
                epoch = rng.gen_range(1..epochs);
            }
            used.push(epoch);
            plan = plan.at_epoch(epoch, kind);
        }
        plan
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What the supervisor/injector did about a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A fault was injected.
    Injected,
    /// A fault was detected (checksum mismatch, timeout, non-finite scan,
    /// divergence stop).
    Detected,
    /// A transfer was retried after backoff.
    Retried,
    /// A fault was fully recovered from.
    Recovered,
    /// Training state was rolled back to the last checkpoint.
    RolledBack,
    /// The run degraded onto fewer / slower simulated devices.
    Degraded,
    /// Recovery was impossible; the run surfaces a [`TrainError`].
    Fatal,
}

impl RecoveryKind {
    fn counter(&self) -> (&'static str, &'static str) {
        match self {
            RecoveryKind::Injected => ("cumf_faults_injected_total", "Faults injected"),
            RecoveryKind::Detected => ("cumf_faults_detected_total", "Faults detected"),
            RecoveryKind::Retried => (
                "cumf_faults_retries_total",
                "Transfer retries performed by the supervisor",
            ),
            RecoveryKind::Recovered => ("cumf_faults_recovered_total", "Faults recovered from"),
            RecoveryKind::RolledBack => (
                "cumf_faults_rollbacks_total",
                "Checkpoint rollbacks performed by the supervisor",
            ),
            RecoveryKind::Degraded => (
                "cumf_faults_degradations_total",
                "Graceful degradations (device loss / SM throttle) applied",
            ),
            RecoveryKind::Fatal => (
                "cumf_faults_fatal_total",
                "Unrecoverable faults surfaced as typed errors",
            ),
        }
    }

    /// Short stable name for log lines.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryKind::Injected => "inject",
            RecoveryKind::Detected => "detect",
            RecoveryKind::Retried => "retry",
            RecoveryKind::Recovered => "recover",
            RecoveryKind::RolledBack => "rollback",
            RecoveryKind::Degraded => "degrade",
            RecoveryKind::Fatal => "fatal",
        }
    }
}

/// One line of the recovery story.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch (0-based) the event happened at.
    pub epoch: u32,
    /// What happened.
    pub kind: RecoveryKind,
    /// Deterministic human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {:>3} {:>8}: {}",
            self.epoch,
            self.kind.name(),
            self.detail
        )
    }
}

/// The ordered fault/recovery event log of a supervised run. Every push
/// also bumps the matching `cumf_faults_*` counter and emits a
/// `faults`-category trace span, so the story is visible in metrics and
/// traces as well as in this structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    /// Events in the order they happened.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Appends an event (and mirrors it into the obs registry).
    pub fn push(&mut self, epoch: u32, kind: RecoveryKind, detail: impl Into<String>) {
        let detail = detail.into();
        let (name, help) = kind.counter();
        cumf_obs::counter(name, help).inc();
        let mut span = cumf_obs::span("faults", format!("{}:{}", kind.name(), epoch));
        span.set_arg("epoch", epoch as f64);
        drop(span);
        self.events.push(RecoveryEvent {
            epoch,
            kind,
            detail,
        });
    }

    /// Appends every event of `other`.
    pub fn extend(&mut self, other: RecoveryLog) {
        self.events.extend(other.events);
    }

    /// Number of events of the given kind.
    pub fn count(&self, kind: RecoveryKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// FNV-1a digest of the rendered log — two runs with the same seed
    /// must produce the same digest (the determinism contract of the
    /// chaos harness).
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_string().as_bytes())
    }
}

impl std::fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_in_its_seed() {
        let menu = [
            FaultKind::NanStorm { rows: 2 },
            FaultKind::LrSpike { factor: 50.0 },
        ];
        let a = FaultPlan::seeded(7, 20, &menu, 4);
        let b = FaultPlan::seeded(7, 20, &menu, 4);
        let c = FaultPlan::seeded(8, 20, &menu, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 4);
        for e in &a.events {
            assert!((1..20).contains(&e.epoch));
        }
    }

    #[test]
    fn due_is_monotone_and_one_shot_by_consumption() {
        let e = FaultEvent {
            epoch: 3,
            kind: FaultKind::NanStorm { rows: 1 },
        };
        assert!(!e.due(2));
        assert!(e.due(3));
        assert!(e.due(7), "due stays true; consumption gates refiring");
    }

    #[test]
    fn recovery_log_digest_tracks_content() {
        let mut a = RecoveryLog::default();
        a.push(2, RecoveryKind::Injected, "nan-storm rows=2");
        a.push(2, RecoveryKind::Detected, "non-finite scan: 12 entries");
        let mut b = RecoveryLog::default();
        b.push(2, RecoveryKind::Injected, "nan-storm rows=2");
        b.push(2, RecoveryKind::Detected, "non-finite scan: 12 entries");
        assert_eq!(a.digest(), b.digest());
        b.push(3, RecoveryKind::RolledBack, "to epoch 0");
        assert_ne!(a.digest(), b.digest());
        assert_eq!(b.count(RecoveryKind::RolledBack), 1);
    }
}
