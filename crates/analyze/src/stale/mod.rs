//! Static staleness & asynchrony certifier for every lock-free update
//! path the workspace ships.
//!
//! Hogwild-style execution is sound only under *bounded staleness*: the
//! number of writes another worker can publish to a factor row between
//! a read and the write that read feeds must be finite, and small
//! enough that the configured learning rate cannot compound the
//! overshoot (§7.5's `s ≪ min(m, n)` precondition). The asynchrony IR
//! and the bound derivation live in `cumf_core::stale`; this module is
//! the analyzer that *validates* them:
//!
//! * [`shipped_paths`] instantiates every entry of
//!   [`cumf_core::concurrent::UPDATE_PATHS`] — the in-source
//!   annotations next to the executors — as a concrete `PathSpec` plus
//!   a small interleaving
//!   model ([`models::StaleModel`]), panicking on drift (a path with no
//!   model, an unrecognised footprint/sync shape, or a claimed τ the IR
//!   does not reproduce). The partitioned path is additionally
//!   cross-checked against a real [`cumf_core::partition::Grid`] wave
//!   schedule: every concurrently-scheduled block pair must be Eq. 6
//!   independent with disjoint row/column ranges. The block-DAG path is
//!   cross-checked the same way against real wavefront and LIBMF block
//!   schedules.
//! * [`certify_path`] computes τ from the IR, exhaustively
//!   model-checks the claim with [`crate::mc::check`] (the invariant
//!   "observed staleness ≤ τ" over *all* interleavings), and emits the
//!   lr·τ certificate for a reference schedule.
//! * [`broken_twins`] seeds three deliberately-broken variants —
//!   unsynchronised writers on a shared row, the
//!   `thread_batch` path with its epoch barrier removed, and a
//!   partitioned grid whose blocks overlap — and [`check_model`]
//!   must refute each with a [`StalenessWitness`] whose schedule replays
//!   to the excess staleness in the checker, because a certifier that
//!   cannot refute the twins proves nothing about the paths.

pub mod models;

pub use models::{BarrierKind, StaleModel};

use crate::mc::{self, CheckOutcome};
use crate::{Replay, MC_STATE_BUDGET};
use cumf_core::concurrent::UPDATE_PATHS;
use cumf_core::lrate::Schedule;
use cumf_core::partition::{schedule_epoch, Grid};
use cumf_core::stale::{
    certify_staleness, staleness_bound, Footprint, PathSpec, StaleCert, SyncEdge, SyncKind,
};
use cumf_core::Verdict;
use cumf_data::CooMatrix;
use cumf_rng::{ChaCha8Rng, SeedableRng};

/// The reference configuration every shipped path's lr·τ condition is
/// certified against in the section report: the paper's Netflix-scale
/// learning rate schedule over a matrix with `min(m, n)` = 1000.
pub const REF_MIN_DIM: u32 = 1000;
/// Reference epochs for the lr·τ certificate.
pub const REF_EPOCHS: u32 = 20;

fn ref_schedule() -> Schedule {
    Schedule::paper_default(0.08, 0.3)
}

/// One shipped update path, fully instantiated: the in-source
/// annotation, the concrete spec the bound is computed from, and the
/// interleaving model that validates the bound.
pub struct ShippedPath {
    /// The concrete asynchrony-IR instance.
    pub spec: PathSpec,
    /// The interleaving model claiming `spec`'s τ.
    pub model: StaleModel,
}

fn drift(msg: &str) -> ! {
    panic!("{msg} — the static model drifted from the code");
}

/// Every shipped update path, built from the in-source annotations.
/// Panics on any drift between the annotations and the models here.
pub fn shipped_paths() -> Vec<ShippedPath> {
    let mut paths = Vec::new();
    for anno in UPDATE_PATHS {
        let model = match anno.path {
            "solver-hogwild" => StaleModel {
                name: "solver-hogwild",
                writers: 3,
                assignment: models::SHARED_1,
                updates_per_epoch: 2,
                epochs: 1,
                barrier: BarrierKind::Round,
                claimed_tau: 2,
            },
            "batch-hogwild-threaded" => StaleModel {
                name: "batch-hogwild-threaded",
                writers: 3,
                assignment: models::SHARED_1,
                updates_per_epoch: 1,
                epochs: 2,
                barrier: BarrierKind::Epoch,
                claimed_tau: 2,
            },
            "partitioned-grid" => {
                cross_check_grid_independence();
                StaleModel {
                    name: "partitioned-grid",
                    writers: 2,
                    assignment: models::DISJOINT,
                    updates_per_epoch: 2,
                    epochs: 1,
                    barrier: BarrierKind::None,
                    claimed_tau: 0,
                }
            }
            "block-dag" => {
                cross_check_block_schedules();
                StaleModel {
                    name: "block-dag",
                    writers: 2,
                    assignment: models::DISJOINT,
                    updates_per_epoch: 2,
                    epochs: 1,
                    barrier: BarrierKind::None,
                    claimed_tau: 0,
                }
            }
            other => drift(&format!(
                "update path `{other}` is annotated in cumf_core::concurrent::UPDATE_PATHS \
                 but has no staleness model"
            )),
        };
        // The model's shape must encode exactly what the annotation
        // claims, or the exhaustive check validates the wrong thing.
        let shape_ok = match (anno.footprint, anno.sync) {
            (Footprint::SharedRows, SyncKind::RoundBarrier) => model.barrier == BarrierKind::Round,
            (Footprint::SharedRows, SyncKind::EpochJoin) => model.barrier == BarrierKind::Epoch,
            (Footprint::DisjointRows, SyncKind::GridIndependence) => {
                disjoint_assignment(model.assignment)
            }
            _ => false,
        };
        if !shape_ok {
            drift(&format!(
                "update path `{}` claims {}/{} but its model encodes a different shape",
                anno.path,
                anno.footprint.name(),
                anno.sync.name()
            ));
        }
        let interval = match anno.sync {
            SyncKind::RoundBarrier => SyncEdge::Barrier { interval: 1 },
            SyncKind::EpochJoin => SyncEdge::Barrier {
                interval: u64::from(model.updates_per_epoch),
            },
            // Disjoint row sets need no cross-writer edge: the
            // disjointness itself is the guarantee (and it is what the
            // grid cross-check above validates).
            SyncKind::GridIndependence => SyncEdge::Unsynced,
        };
        let spec = PathSpec {
            name: anno.path,
            writers: model.writers as u32,
            footprint: anno.footprint,
            sync: interval,
            min_dim: REF_MIN_DIM,
            anchor: anno.anchor,
        };
        match staleness_bound(&spec) {
            Some(tau) if tau == u64::from(model.claimed_tau) => {}
            other => drift(&format!(
                "update path `{}`: the IR derives τ = {other:?} but the model claims {}",
                anno.path, model.claimed_tau
            )),
        }
        paths.push(ShippedPath { spec, model });
    }
    if paths.len() < 4 {
        drift(&format!(
            "only {} update paths are annotated; the workspace ships 4",
            paths.len()
        ));
    }
    paths
}

fn disjoint_assignment(assignment: &[&[usize]]) -> bool {
    for (i, a) in assignment.iter().enumerate() {
        for b in &assignment[i + 1..] {
            if a.iter().any(|r| b.contains(r)) {
                return false;
            }
        }
    }
    true
}

/// Validates the `partitioned-grid` annotation against the real
/// scheduler: builds a grid over a dense synthetic matrix, draws a wave
/// schedule, and requires every concurrently-scheduled block pair to be
/// Eq. 6 independent with disjoint row *and* column coordinate ranges —
/// the exact property the `DisjointRows` footprint encodes.
fn cross_check_grid_independence() {
    let mut coo = CooMatrix::new(8, 6);
    for u in 0..8u32 {
        for v in 0..6u32 {
            coo.push(u, v, 1.0);
        }
    }
    let grid = Grid::build(&coo, 2, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(0x57A1E);
    let waves = schedule_epoch(&grid, 2, &mut rng);
    for wave in &waves.waves {
        let live: Vec<_> = wave.iter().flatten().collect();
        for (i, &&a) in live.iter().enumerate() {
            for &&b in &live[i + 1..] {
                if !Grid::independent(a, b) {
                    drift(&format!(
                        "wave schedule co-ran dependent blocks {a:?} and {b:?}"
                    ));
                }
                let rows_disjoint = grid.row_range(a.bi).end <= grid.row_range(b.bi).start
                    || grid.row_range(b.bi).end <= grid.row_range(a.bi).start;
                let cols_disjoint = grid.col_range(a.bj).end <= grid.col_range(b.bj).start
                    || grid.col_range(b.bj).end <= grid.col_range(a.bj).start;
                if !rows_disjoint || !cols_disjoint {
                    drift(&format!(
                        "independent blocks {a:?} and {b:?} share coordinate ranges"
                    ));
                }
            }
        }
    }
}

/// Validates the `block-dag` annotation against real block schedules
/// ([`crate::prover::for_each_block_schedule`]): every pair of blocks
/// that share a round must touch disjoint P-row and Q-column ranges —
/// the property the `DisjointRows` footprint encodes.
fn cross_check_block_schedules() {
    crate::prover::for_each_block_schedule(|schedule, epoch, grid, blocks| {
        let blocks = blocks.blocks();
        let disjoint =
            |x: std::ops::Range<u32>, y: std::ops::Range<u32>| x.end <= y.start || y.end <= x.start;
        for (i, a) in blocks.iter().enumerate() {
            for b in blocks[i + 1..].iter().take_while(|b| b.start < a.end()) {
                let ((ra, ca), (rb, cb)) = (grid.cell_pos(a.cell), grid.cell_pos(b.cell));
                if !disjoint(grid.row_range(ra), grid.row_range(rb))
                    || !disjoint(grid.col_range(ca), grid.col_range(cb))
                {
                    drift(&format!(
                        "{schedule} epoch {epoch} co-ran blocks {a:?} and {b:?} over shared rows"
                    ));
                }
            }
        }
    });
}

/// A staleness refutation: the interleaving that drives a path's
/// observed staleness past its claimed τ, replayable in the checker.
#[derive(Debug, Clone)]
pub struct StalenessWitness {
    /// The refuted path or twin.
    pub path: &'static str,
    /// The τ the (broken) annotation claimed.
    pub claimed_tau: u64,
    /// What the interleaving observed.
    pub detail: String,
    /// Thread ids from the initial state to the violating state.
    pub schedule: Vec<usize>,
    /// Whether re-stepping `schedule` through the model reproduces the
    /// violation (a witness that does not replay proves nothing).
    pub replays: bool,
}

impl std::fmt::Display for StalenessWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (claimed τ = {}, schedule of {} steps{})",
            self.path,
            self.detail,
            self.claimed_tau,
            self.schedule.len(),
            if self.replays {
                ", replays"
            } else {
                ", DOES NOT REPLAY"
            }
        )
    }
}

impl Replay for StalenessWitness {
    fn replays(&self) -> bool {
        self.replays
    }
}

/// Exhaustively checks `model`'s claimed τ over every interleaving:
/// the checker's outcome when observed staleness never exceeds it, else
/// a witness (one that replays when the checker found a violation).
pub fn check_model(model: &StaleModel) -> Verdict<CheckOutcome, StalenessWitness> {
    let out = mc::check(model, MC_STATE_BUDGET);
    if let Some(v) = &out.violation {
        return Verdict::Refuted(witness_from_violation(
            model,
            v.detail.clone(),
            v.schedule.clone(),
        ));
    }
    if out.truncated {
        return Verdict::Refuted(StalenessWitness {
            path: model.name,
            claimed_tau: u64::from(model.claimed_tau),
            detail: format!("state budget exhausted after {} states", out.states),
            schedule: Vec::new(),
            replays: false,
        });
    }
    Verdict::Certified(out)
}

/// Certifies one shipped path: exhaustive interleaving validation of
/// the claimed τ, then the lr·τ certificate against the reference
/// schedule.
pub fn certify_path(path: &ShippedPath) -> Verdict<(StaleCert, CheckOutcome), StalenessWitness> {
    let mc = match check_model(&path.model) {
        Verdict::Certified(mc) => mc,
        Verdict::Refuted(w) => return Verdict::Refuted(w),
    };
    match certify_staleness(&path.spec, &ref_schedule(), REF_EPOCHS) {
        Verdict::Certified(cert) => Verdict::Certified((cert, mc)),
        Verdict::Refuted(w) => Verdict::Refuted(StalenessWitness {
            path: path.model.name,
            claimed_tau: u64::from(path.model.claimed_tau),
            detail: w.detail,
            schedule: Vec::new(),
            replays: false,
        }),
    }
}

fn witness_from_violation(
    model: &StaleModel,
    detail: String,
    schedule: Vec<usize>,
) -> StalenessWitness {
    // A witness must replay: re-step its schedule from the initial
    // state and require the invariant to fail at the end.
    let mut s = mc::Model::initial(model);
    for &tid in &schedule {
        s = mc::Model::step(model, &s, tid);
    }
    let replays = mc::Model::invariant(model, &s).is_err();
    StalenessWitness {
        path: model.name,
        claimed_tau: u64::from(model.claimed_tau),
        detail,
        schedule,
        replays,
    }
}

/// The refutation campaign: three broken twins of the shipped paths,
/// each claiming the τ its (sabotaged) synchronisation would earn.
pub fn broken_twins() -> Vec<StaleModel> {
    vec![
        // Two unsynchronised writers race on a shared row, still
        // claiming the τ = 0 only disjoint rows earn.
        StaleModel {
            name: "twin/shared-stripe-columns",
            writers: 2,
            assignment: models::SHARED_1,
            updates_per_epoch: 2,
            epochs: 1,
            barrier: BarrierKind::None,
            claimed_tau: 0,
        },
        // The thread_batch executor with the epoch join removed:
        // free-running writers, still claiming the join's
        // τ = (W−1) × quota = 2.
        StaleModel {
            name: "twin/batch-no-barrier",
            writers: 3,
            assignment: models::SHARED_1,
            updates_per_epoch: 1,
            epochs: 2,
            barrier: BarrierKind::None,
            claimed_tau: 2,
        },
        // A partitioned grid whose block assignment overlaps on a row,
        // still claiming grid independence's τ = 0.
        StaleModel {
            name: "twin/overlapping-grid",
            writers: 2,
            assignment: models::OVERLAPPING,
            updates_per_epoch: 2,
            epochs: 1,
            barrier: BarrierKind::None,
            claimed_tau: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_passes_end_to_end() {
        let s = crate::staleness_section();
        assert!(s.ran);
        assert!(s.pass, "{:#?}", s.lines);
        assert!(s.lines.iter().any(|l| l.contains("certified")));
        assert!(s.lines.iter().any(|l| l.contains("refuted")));
        assert!(s
            .lines
            .iter()
            .any(|l| l.contains("4 update paths certified, 3 broken twins refuted")));
    }

    #[test]
    fn every_shipped_path_is_certified_with_finite_tau() {
        let paths = shipped_paths();
        assert_eq!(paths.len(), 4, "the workspace ships four update paths");
        for p in paths {
            let tau = staleness_bound(&p.spec).expect("shipped τ must be finite");
            assert_eq!(tau, u64::from(p.model.claimed_tau));
            match certify_path(&p) {
                Verdict::Certified((cert, mc)) => {
                    assert!(cert.lr_tau < 1.0, "{cert}");
                    assert!(mc.verified(), "{mc}");
                }
                Verdict::Refuted(w) => panic!("{} refuted: {w}", p.spec.name),
            }
        }
    }

    #[test]
    fn every_broken_twin_is_refuted_with_replayable_witness() {
        let twins = broken_twins();
        assert!(twins.len() >= 3, "refutation campaign needs ≥3 twins");
        for twin in twins {
            let Verdict::Refuted(w) = check_model(&twin) else {
                panic!("broken twin {} must not certify", twin.name)
            };
            assert!(
                w.replays,
                "{}: witness must replay in the checker",
                twin.name
            );
            assert!(!w.schedule.is_empty(), "{}: empty schedule", twin.name);
            assert!(
                w.detail.contains("exceeds certified τ"),
                "{}: {}",
                twin.name,
                w.detail
            );
        }
    }

    #[test]
    fn tau_bounds_are_tight() {
        // Claiming one less than the certified τ must flip each
        // lock-free shipped path to refuted: the bound is exact, not
        // merely safe.
        for mut p in shipped_paths() {
            if p.model.claimed_tau == 0 {
                continue;
            }
            p.model.claimed_tau -= 1;
            let out = mc::check(&p.model, MC_STATE_BUDGET);
            assert!(
                out.violation.is_some(),
                "{}: τ − 1 should be refutable",
                p.spec.name
            );
        }
    }
}
