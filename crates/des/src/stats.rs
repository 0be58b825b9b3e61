//! Simulation statistics: time-weighted averages and counters.

use crate::time::SimTime;

/// A time-weighted statistic, e.g. queue length or number of busy servers.
///
/// Integrates `value * dt` so that `mean()` returns the time-average of the
/// tracked quantity over the observation window.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64,
    max: f64,
}

impl TimeWeighted {
    /// Starts tracking at time zero with an initial value.
    pub fn new(initial: f64) -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            value: initial,
            integral: 0.0,
            max: initial,
        }
    }

    /// Records that the tracked value changed to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.advance(now);
        self.value = value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Adds `delta` to the tracked value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Integrates up to `now` without changing the value.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_time, "time went backwards");
        self.integral += self.value * (now.as_secs() - self.last_time.as_secs());
        self.last_time = now;
    }

    /// Current instantaneous value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-average of the value over `[0, now]`.
    pub fn mean(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        if now.is_zero() {
            self.value
        } else {
            self.integral / now.as_secs()
        }
    }

    /// Raw integral of `value * dt` up to the last advance.
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

/// A plain event counter with an accumulated sum (e.g. total wait time).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: u64,
    sum: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Maximum observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Statistics snapshot for an FCFS server resource.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Resource name.
    pub name: String,
    /// Number of service completions.
    pub completed: u64,
    /// Time-average number of busy servers.
    pub mean_busy: f64,
    /// Utilisation in `[0, 1]`: mean busy servers / capacity.
    pub utilisation: f64,
    /// Mean time a job spent waiting in the queue before service.
    pub mean_wait: f64,
    /// Maximum queue wait observed.
    pub max_wait: f64,
    /// Time-average queue length (excluding in-service jobs).
    pub mean_queue_len: f64,
}

/// Statistics snapshot for a shared-bandwidth link resource.
#[derive(Debug, Clone)]
pub struct LinkStats {
    /// Resource name.
    pub name: String,
    /// Total bytes moved over the link.
    pub bytes_transferred: f64,
    /// Number of completed transfers.
    pub completed: u64,
    /// Fraction of time at least one transfer was active.
    pub busy_fraction: f64,
    /// Achieved bandwidth over the whole run (`bytes / total_time`).
    pub achieved_bandwidth: f64,
    /// Achieved bandwidth while busy (`bytes / busy_time`).
    pub busy_bandwidth: f64,
}

/// Statistics snapshot for a keyed-lock resource.
#[derive(Debug, Clone)]
pub struct LockStats {
    /// Resource name.
    pub name: String,
    /// Number of successful acquisitions (immediate or after waiting).
    pub acquisitions: u64,
    /// Number of acquisitions that had to wait.
    pub contended: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(0.0);
        tw.set(t(1.0), 2.0); // 0 for 1s
        tw.set(t(3.0), 4.0); // 2 for 2s
                             // 4 for 1s -> integral = 0 + 4 + 4 = 8 over 4s
        assert!((tw.mean(t(4.0)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.max(), 4.0);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new(1.0);
        tw.add(t(2.0), 3.0);
        assert_eq!(tw.current(), 4.0);
        // integral: 1*2 = 2; then 4*2 = 8 -> mean over 4s = 10/4
        assert!((tw.mean(t(4.0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_at_zero() {
        let mut tw = TimeWeighted::new(7.0);
        assert_eq!(tw.mean(SimTime::ZERO), 7.0);
    }

    #[test]
    fn tally_basics() {
        let mut ta = Tally::new();
        assert_eq!(ta.mean(), 0.0);
        ta.record(1.0);
        ta.record(3.0);
        assert_eq!(ta.count(), 2);
        assert_eq!(ta.sum(), 4.0);
        assert_eq!(ta.mean(), 2.0);
        assert_eq!(ta.max(), 3.0);
    }
}
