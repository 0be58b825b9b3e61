//! Bounded-staleness certification for the lock-free update paths.
//!
//! Hogwild-style execution (§3, Fig 9c of the paper) is only sound when
//! the staleness of each read factor row — the number of writes to that
//! row between a read and the write the read feeds — is *bounded*, and
//! the learning rate is small enough that the bounded overshoot cannot
//! compound into divergence (§7.5's `s ≪ min(m, n)` precondition). Until
//! now that was an assumption; this module makes it a certificate.
//!
//! Every shipped update path is lifted into a small **asynchrony IR**:
//!
//! * a writer set (how many concurrent writers race on the factors),
//! * a row-access [`Footprint`] (disjoint row partitions, or genuinely
//!   shared rows),
//! * the [`SyncEdge`] bounding how far a writer can run ahead of the
//!   others (a barrier every `interval` updates, or nothing at all).
//!
//! [`staleness_bound`] computes the worst-case per-row staleness τ from
//! that description — `(writers − 1) × interval` for barrier-synced
//! shared rows, `0` for disjoint footprints, and
//! *unbounded* (refuted) for shared rows with no synchronisation edge.
//! [`certify_staleness`] then checks the lr·τ safety condition against
//! the run's configured [`Schedule`] and either emits a [`StaleCert`]
//! (FNV-1a digest, τ, the condition value) or a [`StaleWitness`].
//!
//! The shipped paths are declared next to their executors in
//! [`crate::concurrent::UPDATE_PATHS`], and the `cumf-analyze` staleness section
//! cross-validates every τ claimed here by exhaustive interleaving
//! model checking (with broken twins that must be refuted).
//! [`resolve_stale_mode`] is the solver-side consumer: a racy default
//! mode is only honoured when its staleness certifies; a refuted
//! configuration is downgraded to [`ExecMode::Sequential`], mirroring
//! what `resolve_exec_mode` does for conflict refutations.

use crate::concurrent::ExecMode;
use crate::digest::Fnv1a;
use crate::lrate::{LearningRate, Schedule};
use crate::Verdict;

/// Row-access footprint of an update path: which factor rows concurrent
/// writers can touch at the same time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// Writers are assigned pairwise-disjoint row sets (grid blocks).
    DisjointRows,
    /// Any writer may touch any row at any time (Hogwild!).
    SharedRows,
}

impl Footprint {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Footprint::DisjointRows => "disjoint-rows",
            Footprint::SharedRows => "shared-rows",
        }
    }
}

/// The synchronisation edge bounding how many writes another writer can
/// publish between a read and the write that read feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEdge {
    /// A full barrier every `interval` updates per writer (interval 1 =
    /// the round-lockstep stale-additive engine; interval = the
    /// per-epoch quota = the epoch join of the threaded executor).
    Barrier {
        /// Updates each writer performs between consecutive barriers.
        interval: u64,
    },
    /// No synchronisation between a read and the write it feeds.
    Unsynced,
}

/// The annotation-level synchronisation shape of a shipped update path,
/// as declared in [`crate::concurrent::UPDATE_PATHS`]. The analyzer
/// maps these to concrete [`SyncEdge`]s when it instantiates a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// The round-lockstep barrier of the stale-additive engine
    /// (snapshot → delta → additive commit, one sample per worker per
    /// round): a barrier every 1 update.
    RoundBarrier,
    /// The epoch join of the real-thread executor: free-running threads
    /// between epoch boundaries, a barrier every per-epoch quota.
    EpochJoin,
    /// Eq. 6 grid independence: blocks scheduled concurrently share no
    /// row or column segment, so cross-writer row sets are disjoint.
    GridIndependence,
}

impl SyncKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SyncKind::RoundBarrier => "round-barrier",
            SyncKind::EpochJoin => "epoch-join",
            SyncKind::GridIndependence => "grid-independence",
        }
    }
}

/// One statically-declared update path: the asynchrony shape of an
/// executor, living next to the code it describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatePathAnno {
    /// Path name (one staleness certificate per path).
    pub path: &'static str,
    /// Row-access footprint of the concurrent writers.
    pub footprint: Footprint,
    /// The synchronisation edge bounding writer overlap.
    pub sync: SyncKind,
    /// Source anchor of the executor (`file::item`).
    pub anchor: &'static str,
    /// Why the shape is what it is.
    pub note: &'static str,
}

/// A concrete instantiation of an update path: an annotation plus the
/// run parameters the bound depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSpec {
    /// Path name.
    pub name: &'static str,
    /// Concurrent writers.
    pub writers: u32,
    /// Row-access footprint.
    pub footprint: Footprint,
    /// Synchronisation edge, with its concrete interval.
    pub sync: SyncEdge,
    /// `min(m, n)` of the factored matrix — the §7.5 denominator.
    pub min_dim: u32,
    /// Source anchor of the executor.
    pub anchor: &'static str,
}

impl PathSpec {
    /// The solver's racy default: the round-lockstep stale-additive
    /// engine (snapshot reads, additive commits, barrier every round).
    pub fn solver_hogwild(writers: u32, min_dim: u32) -> Self {
        PathSpec {
            name: "solver-hogwild",
            writers,
            footprint: Footprint::SharedRows,
            sync: SyncEdge::Barrier { interval: 1 },
            min_dim,
            anchor: "crates/core/src/engine/exec.rs::stale_additive_epoch",
        }
    }
}

/// Worst-case per-row staleness bound τ for a path: the maximum number
/// of writes another writer can publish to a row between a read of that
/// row and the write the read feeds. `None` means unbounded — shared
/// rows with no synchronisation edge cannot be certified.
pub fn staleness_bound(spec: &PathSpec) -> Option<u64> {
    match (spec.footprint, spec.sync) {
        // Disjoint rows: the read a write feeds is never stale, whatever
        // the writer count.
        (Footprint::DisjointRows, _) => Some(0),
        // Between a read and its write, each of the other writers can
        // publish at most `interval` updates before the barrier stops it.
        (Footprint::SharedRows, SyncEdge::Barrier { interval }) => {
            Some(u64::from(spec.writers.saturating_sub(1)) * interval)
        }
        (Footprint::SharedRows, SyncEdge::Unsynced) => None,
    }
}

/// The largest learning rate `schedule` can reach over `epochs` epochs
/// (decay schedules peak at epoch 0; bold-driver can climb by `up`
/// every epoch in the worst case).
pub fn gamma_max(schedule: &Schedule, epochs: u32) -> f32 {
    match *schedule {
        Schedule::Fixed(g) => g,
        Schedule::NomadDecay { .. } => LearningRate::new(schedule.clone()).gamma(0),
        Schedule::BoldDriver { initial, up, .. } => {
            initial * up.powi(epochs.saturating_sub(1) as i32)
        }
    }
}

/// A bounded-staleness certificate for one update path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleCert {
    /// Path the certificate covers.
    pub path: &'static str,
    /// Concurrent writers.
    pub writers: u32,
    /// Worst-case per-row staleness bound τ.
    pub tau: u64,
    /// The largest learning rate the schedule can reach.
    pub gamma_max: f32,
    /// The lr·τ safety condition value (must be < 1): `γ_max · (W−1) ·
    /// 20 / min_dim` — §7.5's `s ≪ min(m, n)` rule with the paper's
    /// empirical 1/20 margin ([`lr_tau_condition`]), scaled by the
    /// configured learning rate. The writer-overlap term
    /// `W−1` is the per-round component of τ; the batch-length factor
    /// certifies boundedness but does not enter the condition, because
    /// a batch streams (almost surely distinct) rows in storage order.
    pub lr_tau: f64,
    /// FNV-1a digest of `(path, writers, τ, γ_max, min_dim)`.
    pub digest: u64,
}

impl std::fmt::Display for StaleCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: τ={} over {} writers, γ_max {:.4}, lr·τ condition {:.4} < 1 (digest {:016x})",
            self.path, self.tau, self.writers, self.gamma_max, self.lr_tau, self.digest
        )
    }
}

/// A staleness refutation: why the path's configuration cannot be
/// certified (unbounded τ, or a violated lr·τ condition).
#[derive(Debug, Clone, PartialEq)]
pub struct StaleWitness {
    /// Path that was refuted.
    pub path: &'static str,
    /// Concurrent writers.
    pub writers: u32,
    /// The staleness bound, when one exists (`None` = unbounded).
    pub tau: Option<u64>,
    /// The largest learning rate the schedule can reach.
    pub gamma_max: f32,
    /// The violated condition value (`infinity` when τ is unbounded).
    pub lr_tau: f64,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for StaleWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Outcome of certifying one update path's staleness: τ is finite and
/// the lr·τ condition holds, or the path is refuted (τ unbounded, or the
/// configured schedule violates lr·τ).
pub type StaleVerdict = Verdict<StaleCert, StaleWitness>;

/// The lr·τ safety condition value for a bounded path: `γ_max · (W−1) ·
/// 20 / min_dim`. At γ = 1 this is exactly §7.5's `s − 1 < min(m, n) /
/// 20` safe-worker rule (§7.5's `s ≪ min(m, n)` with the paper's
/// empirical factor of 20); smaller learning rates buy proportionally
/// more concurrent writers.
pub fn lr_tau_condition(writers: u32, min_dim: u32, gamma: f32) -> f64 {
    assert!(min_dim > 0, "staleness condition needs a non-empty matrix");
    f64::from(gamma) * f64::from(writers.saturating_sub(1)) * 20.0 / f64::from(min_dim)
}

/// Certifies one update path's staleness against the run's learning-rate
/// schedule: computes τ from the asynchrony IR, evaluates the lr·τ
/// condition with the largest rate the schedule can reach over `epochs`,
/// and emits a certificate or a concrete refutation.
pub fn certify_staleness(spec: &PathSpec, schedule: &Schedule, epochs: u32) -> StaleVerdict {
    let g = gamma_max(schedule, epochs);
    let Some(tau) = staleness_bound(spec) else {
        return Verdict::Refuted(StaleWitness {
            path: spec.name,
            writers: spec.writers,
            tau: None,
            gamma_max: g,
            lr_tau: f64::INFINITY,
            detail: format!(
                "unbounded staleness: {} writers on {} rows with no synchronisation edge ({})",
                spec.writers,
                spec.footprint.name(),
                spec.anchor
            ),
        });
    };
    let lr_tau = if tau == 0 {
        0.0
    } else {
        lr_tau_condition(spec.writers, spec.min_dim, g)
    };
    if lr_tau >= 1.0 {
        return Verdict::Refuted(StaleWitness {
            path: spec.name,
            writers: spec.writers,
            tau: Some(tau),
            gamma_max: g,
            lr_tau,
            detail: format!(
                "lr·τ condition violated: γ_max {:.4} × (W−1)={} × 20 / min_dim={} = {:.4} ≥ 1 \
                 (τ={} is finite but the overshoot compounds — §7.5 needs s ≪ min(m, n))",
                g,
                spec.writers.saturating_sub(1),
                spec.min_dim,
                lr_tau,
                tau
            ),
        });
    }
    let digest = Fnv1a::new()
        .str(spec.name)
        .u64(u64::from(spec.writers))
        .u64(tau)
        .u64(u64::from(g.to_bits()))
        .u64(u64::from(spec.min_dim))
        .finish();
    Verdict::Certified(StaleCert {
        path: spec.name,
        writers: spec.writers,
        tau,
        gamma_max: g,
        lr_tau,
        digest,
    })
}

/// Resolves the execution mode for a configuration that *defaults* to
/// racy execution: [`ExecMode::StaleAdditive`] is only honoured when the
/// path's staleness certifies under the configured schedule; a refuted
/// configuration is downgraded to [`ExecMode::Sequential`] (serialised —
/// slower, but convergent) and the witness returned. Non-racy defaults
/// pass through untouched.
pub fn resolve_stale_mode(
    spec: &PathSpec,
    schedule: &Schedule,
    epochs: u32,
    default_mode: ExecMode,
) -> (ExecMode, Option<StaleVerdict>) {
    if default_mode != ExecMode::StaleAdditive {
        return (default_mode, None);
    }
    let verdict = certify_staleness(spec, schedule, epochs);
    let mode = match &verdict {
        Verdict::Certified(_) => {
            cumf_obs::counter(
                "cumf_core_stale_certified_total",
                "Racy configurations proven bounded-staleness safe before execution",
            )
            .inc();
            ExecMode::StaleAdditive
        }
        Verdict::Refuted(w) => {
            cumf_obs::counter(
                "cumf_core_stale_refuted_total",
                "Racy configurations refuted by the staleness certifier and serialised",
            )
            .inc();
            eprintln!(
                "warning: racy schedule fails the staleness certificate ({w}); \
                 downgrading to sequential execution"
            );
            ExecMode::Sequential
        }
    };
    (mode, Some(verdict))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(writers: u32, interval: u64, min_dim: u32) -> PathSpec {
        PathSpec {
            name: "test-path",
            writers,
            footprint: Footprint::SharedRows,
            sync: SyncEdge::Barrier { interval },
            min_dim,
            anchor: "test",
        }
    }

    #[test]
    fn bounds_match_the_ir() {
        assert_eq!(staleness_bound(&shared(8, 1, 100)), Some(7));
        assert_eq!(staleness_bound(&shared(8, 256, 100)), Some(7 * 256));
        let disjoint = PathSpec {
            footprint: Footprint::DisjointRows,
            sync: SyncEdge::Unsynced,
            ..shared(8, 1, 100)
        };
        assert_eq!(staleness_bound(&disjoint), Some(0));
        let unsynced = PathSpec {
            sync: SyncEdge::Unsynced,
            ..shared(8, 1, 100)
        };
        assert_eq!(staleness_bound(&unsynced), None);
    }

    #[test]
    fn gamma_max_covers_every_schedule() {
        assert_eq!(gamma_max(&Schedule::Fixed(0.5), 10), 0.5);
        assert_eq!(
            gamma_max(&Schedule::paper_default(0.08, 0.3), 10),
            0.08,
            "decay peaks at epoch 0"
        );
        let bd = Schedule::BoldDriver {
            initial: 0.1,
            up: 1.05,
            down: 0.5,
        };
        let g = gamma_max(&bd, 5);
        assert!((g - 0.1 * 1.05f32.powi(4)).abs() < 1e-7);
    }

    #[test]
    fn sane_configurations_certify() {
        // The solver test fleet's shape: 8 workers on a 300×200 matrix.
        let v = certify_staleness(
            &PathSpec::solver_hogwild(8, 200),
            &Schedule::paper_default(0.1, 0.1),
            15,
        );
        let c = v.certificate().expect("sane config must certify");
        assert_eq!(c.tau, 7);
        assert!(c.lr_tau < 1.0, "{c}");
        assert_ne!(c.digest, 0);
    }

    #[test]
    fn oversubscription_is_refuted() {
        // §7.5's pathology: 40 workers on a 60×40 matrix at γ = 0.5.
        let v = certify_staleness(&PathSpec::solver_hogwild(40, 40), &Schedule::Fixed(0.5), 15);
        let w = v.witness().expect("oversubscription must refute");
        assert_eq!(w.tau, Some(39), "τ is finite — the *condition* fails");
        assert!(w.lr_tau >= 1.0);
        assert!(w.detail.contains("lr·τ"), "{w}");
    }

    #[test]
    fn unbounded_paths_are_refuted() {
        let spec = PathSpec {
            sync: SyncEdge::Unsynced,
            ..shared(4, 1, 1000)
        };
        let v = certify_staleness(&spec, &Schedule::Fixed(0.001), 1);
        let w = v.witness().expect("no sync edge, no certificate");
        assert_eq!(w.tau, None);
        assert!(w.detail.contains("unbounded"), "{w}");
    }

    #[test]
    fn digest_is_stable_and_parameter_sensitive() {
        let sched = Schedule::Fixed(0.05);
        let d = |writers, min_dim| {
            certify_staleness(&PathSpec::solver_hogwild(writers, min_dim), &sched, 10)
                .certificate()
                .unwrap()
                .digest
        };
        assert_eq!(d(8, 200), d(8, 200));
        assert_ne!(d(8, 200), d(4, 200));
        assert_ne!(d(8, 200), d(8, 400));
    }

    #[test]
    fn resolver_downgrades_refuted_configurations() {
        let sched = Schedule::Fixed(0.5);
        let (mode, v) = resolve_stale_mode(
            &PathSpec::solver_hogwild(40, 40),
            &sched,
            15,
            ExecMode::StaleAdditive,
        );
        assert_eq!(mode, ExecMode::Sequential);
        assert!(v.unwrap().witness().is_some());

        let (mode, v) = resolve_stale_mode(
            &PathSpec::solver_hogwild(8, 200),
            &Schedule::paper_default(0.1, 0.1),
            15,
            ExecMode::StaleAdditive,
        );
        assert_eq!(mode, ExecMode::StaleAdditive);
        assert!(v.unwrap().is_certified());

        // Non-racy defaults pass through without a verdict.
        let (mode, v) = resolve_stale_mode(
            &PathSpec::solver_hogwild(8, 200),
            &sched,
            15,
            ExecMode::Sequential,
        );
        assert_eq!(mode, ExecMode::Sequential);
        assert!(v.is_none());
    }
}
