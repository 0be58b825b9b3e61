//! Deterministic latency histogram with bit-stable digests.
//!
//! Log2 buckets (same layout philosophy as `cumf-obs`' registry
//! histograms) plus a first-N reservoir, so small series report exact
//! quantiles and large ones interpolate inside the containing bucket.
//! Everything the histogram stores is integral or bit-patterned, so
//! [`LatencyHistogram::digest`] is a bit-exact fingerprint of the whole
//! latency distribution: two runs agree iff every observation agreed.

use cumf_core::digest::fnv1a64;

/// Exponent of the smallest finite bucket bound (`2^-30` s ≈ 1 ns).
const MIN_EXP: i32 = -30;
/// Number of finite buckets: bounds `2^-30 ..= 2^13` (~8192 s).
const BUCKETS: usize = 44;
/// First-N reservoir size (exact quantiles up to this many samples).
const RESERVOIR: usize = 256;

/// A log2-bucketed histogram of simulated latencies, in seconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `counts[i]` counts observations in `(2^(MIN_EXP+i-1), 2^(MIN_EXP+i)]`
    /// (index 0 also absorbs anything at or below the smallest bound);
    /// the final slot is the +Inf overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
    reservoir: Vec<f64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS + 1],
            total: 0,
            sum: 0.0,
            max: 0.0,
            reservoir: Vec::new(),
        }
    }

    /// Records one latency (seconds). Negative or NaN inputs clamp to
    /// zero — a defensive measure only; sim-time deltas are never
    /// negative.
    pub fn record(&mut self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let idx = if s <= 0.0 {
            0
        } else {
            let e = s.log2().ceil() as i32;
            ((e - MIN_EXP).max(0) as usize).min(BUCKETS)
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += s;
        if s > self.max {
            self.max = s;
        }
        if self.reservoir.len() < RESERVOIR {
            self.reservoir.push(s);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (seconds).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest observation (seconds), `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observation (seconds), `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Quantile estimate (seconds): exact while all observations fit
    /// the reservoir, bucket-interpolated afterwards (within 2× of the
    /// true value, the standard log2-bucket contract).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut cum = 0u64;
        let mut buckets = Vec::with_capacity(BUCKETS + 1);
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            let le = if i < BUCKETS {
                (2.0f64).powi(MIN_EXP + i as i32)
            } else {
                f64::INFINITY
            };
            buckets.push((le, cum));
        }
        cumf_obs::quantile::estimate(&buckets, self.total, &self.reservoir, q)
    }

    /// Bit-exact fingerprint of the distribution: FNV-1a over every
    /// bucket count, the total, and the IEEE bit patterns of sum/max.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * (self.counts.len() + 3));
        for &c in &self.counts {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        bytes.extend_from_slice(&self.total.to_le_bytes());
        bytes.extend_from_slice(&self.sum.to_bits().to_le_bytes());
        bytes.extend_from_slice(&self.max.to_bits().to_le_bytes());
        fnv1a64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_series_quantiles_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0.001, 0.002, 0.003, 0.004] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.quantile(0.5).unwrap() - 0.0025).abs() < 1e-12);
        assert!((h.quantile(1.0).unwrap() - 0.004).abs() < 1e-12);
        assert!((h.mean().unwrap() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn overflowed_series_interpolates_within_a_bucket() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000 {
            // 1ms..2ms: all land in the (2^-10, 2^-9] region.
            h.record(0.001 + 0.000001 * i as f64);
        }
        let p99 = h.quantile(0.99).unwrap();
        let true_p99 = 0.001 + 0.000001 * 990.0;
        assert!(p99 <= 2.0 * true_p99 && p99 >= true_p99 / 2.0, "p99={p99}");
    }

    #[test]
    fn digest_is_sensitive_and_reproducible() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [0.01, 0.02, 0.5] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.digest(), b.digest());
        b.record(0.03);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        h.record(f64::NAN);
        h.record(-1.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 0.0);
        // Huge values land in the overflow bucket without panicking.
        h.record(1.0e9);
        assert_eq!(h.count(), 3);
    }
}
