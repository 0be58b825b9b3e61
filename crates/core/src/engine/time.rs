//! Time-domain layer: what one epoch *costs* on a clock.
//!
//! Training produces a convergence trace (RMSE per epoch); every figure
//! in the paper plots it against some notion of time. A [`TimeDomain`]
//! converts an epoch's [`EpochOutcome`] into seconds on its clock:
//!
//! * [`NoSimTime`] — no clock; trace seconds stay zero;
//! * [`ModelTime`] — the bandwidth-law [`TimeModel`] (Eq. 5/7: rounds ×
//!   bytes-per-update × workers ÷ bandwidth);
//! * [`BackendTime`] — the backend's own clock (the multi-GPU
//!   transfer/compute pipeline of §6.2);
//! * [`FixedPerEpoch`] — a constant per epoch (the baselines' analytic
//!   epoch costs).

use crate::concurrent::EpochStats;
use crate::SgdUpdateCost;

use super::backend::EpochOutcome;

/// Converts epoch round counts into simulated seconds on a modelled
/// machine: one round = one update per worker at its fair bandwidth share.
#[derive(Debug, Clone)]
pub struct TimeModel {
    /// Per-update memory traffic model.
    pub cost: SgdUpdateCost,
    /// Total effective bandwidth of the worker ensemble, bytes/s.
    pub total_bandwidth: f64,
    /// Fixed per-epoch overhead (kernel launches, scheduling), seconds.
    pub epoch_overhead: f64,
}

impl TimeModel {
    /// Seconds one epoch takes given its observed round structure.
    pub fn epoch_seconds(&self, stats: &EpochStats, workers: u32) -> f64 {
        let per_round = self.cost.bytes() as f64 * workers as f64 / self.total_bandwidth;
        self.epoch_overhead + stats.rounds as f64 * per_round
    }
}

/// A clock pricing epochs for the convergence trace.
pub trait TimeDomain {
    /// Seconds epoch took on this clock. `workers` comes from the backend;
    /// `wall_seconds` is the measured host time of the update phase.
    fn epoch_seconds(&mut self, outcome: &EpochOutcome, workers: u32, wall_seconds: f64) -> f64;

    /// Clock name for reports.
    fn name(&self) -> &'static str;
}

/// No simulated clock: every epoch costs zero seconds (trace plots RMSE
/// against epochs/updates only).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSimTime;

impl TimeDomain for NoSimTime {
    fn epoch_seconds(&mut self, _outcome: &EpochOutcome, _workers: u32, _wall: f64) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// The bandwidth-law machine model ([`TimeModel`]) as a time domain.
#[derive(Debug, Clone)]
pub struct ModelTime(pub TimeModel);

impl TimeDomain for ModelTime {
    fn epoch_seconds(&mut self, outcome: &EpochOutcome, workers: u32, _wall: f64) -> f64 {
        self.0.epoch_seconds(&outcome.stats, workers)
    }

    fn name(&self) -> &'static str {
        "time-model"
    }
}

/// The backend's own clock: trusts [`EpochOutcome::backend_seconds`]
/// (the multi-GPU pipeline model), zero when the backend has none.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendTime;

impl TimeDomain for BackendTime {
    fn epoch_seconds(&mut self, outcome: &EpochOutcome, _workers: u32, _wall: f64) -> f64 {
        outcome.backend_seconds.unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        "backend"
    }
}

/// A fixed cost per epoch (analytic epoch models of the baselines).
#[derive(Debug, Clone, Copy)]
pub struct FixedPerEpoch(pub f64);

impl TimeDomain for FixedPerEpoch {
    fn epoch_seconds(&mut self, _outcome: &EpochOutcome, _workers: u32, _wall: f64) -> f64 {
        self.0
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(updates: u64, rounds: u64, backend: Option<f64>) -> EpochOutcome {
        EpochOutcome {
            stats: EpochStats {
                updates,
                rounds,
                ..Default::default()
            },
            backend_seconds: backend,
            timing: None,
        }
    }

    #[test]
    fn model_time_matches_time_model() {
        let tm = TimeModel {
            cost: SgdUpdateCost::cumf(16),
            total_bandwidth: 1e9,
            epoch_overhead: 0.001,
        };
        let o = outcome(100, 101, None);
        let mut domain = ModelTime(tm.clone());
        assert_eq!(
            domain.epoch_seconds(&o, 1, 0.5),
            tm.epoch_seconds(&o.stats, 1)
        );
    }

    #[test]
    fn trivial_domains() {
        let o = outcome(10, 10, Some(2.5));
        assert_eq!(NoSimTime.epoch_seconds(&o, 4, 1.0), 0.0);
        assert_eq!(BackendTime.epoch_seconds(&o, 4, 1.0), 2.5);
        assert_eq!(
            BackendTime.epoch_seconds(&outcome(10, 10, None), 4, 1.0),
            0.0
        );
        assert_eq!(FixedPerEpoch(0.25).epoch_seconds(&o, 4, 1.0), 0.25);
    }
}
