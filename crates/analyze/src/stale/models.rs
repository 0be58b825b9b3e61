//! Interleaving models validating the claimed staleness bounds.
//!
//! One parametric [`StaleModel`] covers every update-path shape the
//! asynchrony IR describes: `W` writers repeatedly read a snapshot of
//! their assigned rows and commit a write back, with the path's
//! synchronisation edge ([`BarrierKind`]) gating how far writers drift
//! apart. The state tracks, per row, a *version counter*
//! bumped on every commit; the staleness a commit observes is simply
//! `version_at_commit − version_at_snapshot` — the number of other
//! writers' commits that landed between the read and the write it feeds.
//! The model invariant asserts the maximum observed staleness never
//! exceeds the path's certified τ, so [`crate::mc::check`] exhaustively
//! validates (or refutes, with a replayable schedule) every bound the
//! static certifier claims.

use crate::mc::Model;

/// The barrier edge gating a writer's next read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// No barrier: writers free-run (broken twins, disjoint grids).
    None,
    /// Lockstep rounds: a writer may start update `d` only when every
    /// writer has completed `d` updates (the stale-additive engine).
    Round,
    /// Epoch join: a writer may start an update in epoch `e` only when
    /// every writer has completed epoch `e − 1` (the threaded executor).
    Epoch,
}

/// A parametric staleness model: `writers` virtual threads, each
/// performing `updates_per_epoch × epochs` snapshot-read/commit update
/// pairs against up to two shared row-version cells.
#[derive(Debug, Clone)]
pub struct StaleModel {
    /// Model name for reports (`solver-hogwild`, `twin/...`).
    pub name: &'static str,
    /// Virtual writer threads.
    pub writers: usize,
    /// Rows each writer touches per update, indexed by writer id.
    /// Row indices are `0` or `1` (two shared cells suffice to model
    /// shared, disjoint, and overlapping footprints).
    pub assignment: &'static [&'static [usize]],
    /// Updates per writer per epoch (the epoch-join barrier interval).
    pub updates_per_epoch: u16,
    /// Epochs each writer runs.
    pub epochs: u16,
    /// The synchronisation edge gating reads.
    pub barrier: BarrierKind,
    /// The τ the static certifier claims for this path; the invariant
    /// `max observed staleness ≤ claimed_tau` is what the checker
    /// validates over all interleavings.
    pub claimed_tau: u16,
}

/// Per-writer local state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriterState {
    /// Completed updates.
    done: u16,
    /// 0 = before read, 1 = before commit; wraps back to 0 after each
    /// update.
    phase: u8,
    /// Row versions snapshotted by the pending update's read.
    snaps: [u16; 2],
}

/// Global state: shared row versions + every writer's program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StaleState {
    /// Commit counter per shared row.
    version: [u16; 2],
    /// Writer-local states.
    writers: Vec<WriterState>,
    /// Largest staleness any commit has observed so far.
    max_observed: u16,
    /// Row on which `max_observed` was observed.
    worst_row: u8,
}

impl StaleModel {
    fn rows_of(&self, w: usize) -> &'static [usize] {
        self.assignment[w]
    }

    fn quota(&self) -> u16 {
        self.updates_per_epoch * self.epochs
    }

    /// Whether writer `w` may *start* its next update in `s` (barrier
    /// gating).
    fn barrier_open(&self, s: &StaleState, w: usize) -> bool {
        let d = s.writers[w].done;
        match self.barrier {
            BarrierKind::None => true,
            // Lockstep: everyone must have completed d updates.
            BarrierKind::Round => s.writers.iter().all(|v| v.done >= d),
            // Epoch join: everyone must have reached w's epoch boundary.
            BarrierKind::Epoch => {
                let boundary = (d / self.updates_per_epoch) * self.updates_per_epoch;
                s.writers.iter().all(|v| v.done >= boundary)
            }
        }
    }
}

impl Model for StaleModel {
    type State = StaleState;

    fn name(&self) -> &'static str {
        self.name
    }

    fn threads(&self) -> usize {
        self.writers
    }

    fn initial(&self) -> StaleState {
        StaleState {
            version: [0, 0],
            writers: vec![
                WriterState {
                    done: 0,
                    phase: 0,
                    snaps: [0, 0],
                };
                self.writers
            ],
            max_observed: 0,
            worst_row: 0,
        }
    }

    fn enabled(&self, s: &StaleState, w: usize) -> bool {
        let ws = &s.writers[w];
        if ws.done >= self.quota() {
            return false;
        }
        ws.phase != 0 || self.barrier_open(s, w)
    }

    fn step(&self, s: &StaleState, w: usize) -> StaleState {
        let mut n = s.clone();
        let rows = self.rows_of(w);
        if s.writers[w].phase == 0 {
            for &r in rows {
                n.writers[w].snaps[r] = s.version[r];
            }
            n.writers[w].phase = 1;
        } else {
            for &r in rows {
                let observed = s.version[r] - s.writers[w].snaps[r];
                if observed > n.max_observed {
                    n.max_observed = observed;
                    n.worst_row = r as u8;
                }
                n.version[r] = s.version[r] + 1;
            }
            n.writers[w].phase = 0;
            n.writers[w].done += 1;
        }
        n
    }

    fn done(&self, s: &StaleState, w: usize) -> bool {
        s.writers[w].done >= self.quota() && s.writers[w].phase == 0
    }

    fn invariant(&self, s: &StaleState) -> Result<(), String> {
        if s.max_observed > self.claimed_tau {
            return Err(format!(
                "observed staleness {} on row {} exceeds certified τ = {}",
                s.max_observed, s.worst_row, self.claimed_tau
            ));
        }
        Ok(())
    }
}

/// Rows shared by every writer (the Hogwild shapes).
pub const SHARED_1: &[&[usize]] = &[&[0], &[0], &[0]];
/// Two writers on disjoint rows (an independent grid wave).
pub const DISJOINT: &[&[usize]] = &[&[0], &[1]];
/// Two writers whose blocks overlap on row 0 (the broken grid twin).
pub const OVERLAPPING: &[&[usize]] = &[&[0], &[0]];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::check;
    use crate::MC_STATE_BUDGET;

    #[test]
    fn round_barrier_bounds_staleness_at_w_minus_one() {
        let m = StaleModel {
            name: "round-test",
            writers: 3,
            assignment: SHARED_1,
            updates_per_epoch: 2,
            epochs: 1,
            barrier: BarrierKind::Round,
            claimed_tau: 2,
        };
        let out = check(&m, MC_STATE_BUDGET);
        assert!(out.verified(), "{out}");

        // τ − 1 must be refutable, else the bound is not tight.
        let tight = StaleModel {
            claimed_tau: 1,
            ..m
        };
        let out = check(&tight, MC_STATE_BUDGET);
        assert!(out.violation.is_some(), "τ = W−1 must be tight");
    }

    #[test]
    fn epoch_join_bounds_staleness_at_quota_times_w_minus_one() {
        let m = StaleModel {
            name: "epoch-test",
            writers: 2,
            assignment: SHARED_1,
            updates_per_epoch: 2,
            epochs: 2,
            barrier: BarrierKind::Epoch,
            claimed_tau: 2,
        };
        let out = check(&m, MC_STATE_BUDGET);
        assert!(out.verified(), "{out}");
        let tight = StaleModel {
            claimed_tau: 1,
            ..m
        };
        assert!(
            check(&tight, MC_STATE_BUDGET).violation.is_some(),
            "τ = (W−1)×quota must be tight"
        );
    }

    #[test]
    fn disjoint_rows_mean_zero_staleness() {
        let disjoint = StaleModel {
            name: "disjoint-test",
            writers: 2,
            assignment: DISJOINT,
            updates_per_epoch: 2,
            epochs: 1,
            barrier: BarrierKind::None,
            claimed_tau: 0,
        };
        assert!(check(&disjoint, MC_STATE_BUDGET).verified());
    }

    #[test]
    fn unsynchronized_sharing_is_caught() {
        let m = StaleModel {
            name: "unsynced-test",
            writers: 2,
            assignment: OVERLAPPING,
            updates_per_epoch: 2,
            epochs: 1,
            barrier: BarrierKind::None,
            claimed_tau: 0,
        };
        let out = check(&m, MC_STATE_BUDGET);
        let v = out.violation.expect("unsynced sharing must violate τ=0");
        assert!(v.detail.contains("exceeds certified τ"), "{}", v.detail);
    }
}
