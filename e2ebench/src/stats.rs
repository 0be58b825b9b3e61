//! Summary statistics and the parent-versus-change comparison rule.

pub use cumf_bench::suite::median;

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones Python's standard library
/// computes from the raw values. Empty input gives NaN; one value gives
/// that value three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    // Extrapolates below the minimum and above the maximum for small
    // samples, exactly as the reference does.
    let (m, n) = (ld as i64 + 1, 4i64);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *q = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile.
pub fn iqr(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    q3 - q1
}

/// Percentiles a latency summary may report, lowest first.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest of [`PERCENTILES`] with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True when `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing one metric on one workload between two commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies `change` against `parent` (one value per run each):
///
/// * when the parent's own quartile spread, as a share of its median,
///   is wider than `bound`, the runs cannot resolve a `bound`-sized
///   move: improved only if every change run beats every parent run,
///   otherwise unresolved;
/// * regressed when the change's median is worse than the parent's by
///   more than `bound` (a share of the parent's median);
/// * improved when the change wins at least nine tenths of the index-
///   paired runs (ties count for neither) and the medians differ by
///   more than the parent's quartile spread;
/// * unchanged otherwise.
pub fn compare(parent: &[f64], change: &[f64], bound: f64, better: Better) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let (pm, cm) = (median(parent), median(change));
    let spread = iqr(parent);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    if spread > bound * pm.abs() {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    if worse_by > bound * pm.abs() {
        return Verdict::Regressed;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(c, p))
        .count();
    if better.beats(cm, pm) && wins * 10 >= pairs * 9 && (cm - pm).abs() > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!(quartiles(&[])[0].is_nan());
        assert_eq!(iqr(&xs), 5.5);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(20_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn compare_applies_bound_spread_and_pair_rules() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let same: Vec<f64> = parent.iter().map(|x| x + 0.01).collect();
        assert_eq!(
            compare(&parent, &same, 0.1, Better::Lower),
            Verdict::Unchanged
        );
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            compare(&parent, &slow, 0.1, Better::Lower),
            Verdict::Regressed
        );
        assert_eq!(
            compare(&parent, &slow, 0.1, Better::Higher),
            Verdict::Improved
        );
        // Within the bound but a consistent, resolvable win.
        let fast: Vec<f64> = parent.iter().map(|x| x * 0.95).collect();
        assert_eq!(
            compare(&parent, &fast, 0.1, Better::Lower),
            Verdict::Improved
        );
        // A parent too noisy for the bound is unresolved unless every
        // change run beats every parent run.
        let noisy = [5.0, 15.0, 5.0, 15.0, 10.0];
        assert_eq!(
            compare(&noisy, &[9.0; 5], 0.1, Better::Lower),
            Verdict::Unresolved
        );
        assert_eq!(
            compare(&noisy, &[4.0; 5], 0.1, Better::Lower),
            Verdict::Improved
        );
        assert_eq!(
            compare(&[], &[1.0], 0.1, Better::Lower),
            Verdict::Unresolved
        );
    }
}
