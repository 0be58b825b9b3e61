//! Drivers for the Eraser-style dynamic lockset sanitizer
//! (`cumf_core::sanitize`, compiled in via the `sanitize` feature).
//!
//! The sanitizer instruments the lock-free `AtomicFactors` row
//! accesses; [`hogwild_scenario`] runs the batch-Hogwild! executor under
//! it. Row accesses are deliberately lock-free (the paper's point is
//! that SGD tolerates the races), so on collision-heavy data the
//! sanitizer must report **at least one** empty lockset. A positive
//! control: if this scenario went quiet, the instrumentation would be
//! dead, not the code correct. The negative control is the serving
//! slot path, which `tests/serve.rs` runs under the sanitizer and
//! requires to report **zero** races.

use std::sync::{Arc, Mutex};

use cumf_core::concurrent::{threaded_hogwild_epoch, AtomicFactors};
use cumf_core::feature::FactorMatrix;
use cumf_core::sanitize;
use cumf_data::coo::CooMatrix;
use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

/// Result of one sanitizer scenario.
#[derive(Debug, Clone)]
pub struct SanitizerCase {
    /// Scenario name.
    pub scenario: String,
    /// Number of racy locations reported.
    pub races: usize,
    /// Rendered reports (empty when none).
    pub reports: Vec<String>,
}

impl SanitizerCase {
    /// The case passes when the sanitizer reported at least one race.
    pub fn pass(&self) -> bool {
        self.races > 0
    }
}

impl std::fmt::Display for SanitizerCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = if self.pass() { "ok" } else { "FAIL" };
        write!(
            f,
            "[{status}] {}: {} racy location(s), expected some",
            self.scenario, self.races,
        )?;
        for r in self.reports.iter().take(3) {
            write!(f, "\n    {r}")?;
        }
        Ok(())
    }
}

/// The sanitizer keeps process-global state; scenarios must not overlap
/// (two concurrent `set_enabled(true)` calls would clear each other's
/// observations). All drivers serialize on this gate.
fn gate() -> &'static Mutex<()> {
    static GATE: Mutex<()> = Mutex::new(());
    &GATE
}

/// Collision-heavy dataset: a tiny `m`×`n` matrix with `nnz` samples, so
/// concurrent workers repeatedly hit the same factor rows.
fn collision_data(m: u32, n: u32, nnz: usize, seed: u64) -> CooMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = CooMatrix::new(m, n);
    for _ in 0..nnz {
        data.push(
            rng.gen_range(0..m),
            rng.gen_range(0..n),
            rng.gen_range(-1.0f32..1.0),
        );
    }
    data
}

/// Runs the lock-free batch-Hogwild! executor under the sanitizer on
/// collision-heavy data. Expected: at least one empty lockset (retries a
/// few epochs in case the scheduler serialized the tiny run).
pub fn hogwild_scenario(seed: u64) -> SanitizerCase {
    let _gate = gate().lock().unwrap();
    let data = collision_data(2, 2, 50_000, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xcd);
    let pm = FactorMatrix::<f32>::random_init(2, 8, &mut rng);
    let qm = FactorMatrix::<f32>::random_init(2, 8, &mut rng);
    let p = Arc::new(AtomicFactors::from_matrix(&pm));
    let q = Arc::new(AtomicFactors::from_matrix(&qm));

    sanitize::set_enabled(true);
    let mut reports = Vec::new();
    // One epoch virtually always suffices; retry in case the OS scheduler
    // let a single thread drain the whole counter.
    for _ in 0..5 {
        threaded_hogwild_epoch(&data, &p, &q, 4, 64, 0.01, 0.05);
        reports = sanitize::take_reports();
        if !reports.is_empty() {
            break;
        }
    }
    sanitize::set_enabled(false);

    SanitizerCase {
        scenario: "batch-hogwild executor (4 threads, lock-free rows)".to_string(),
        races: reports.len(),
        reports: reports.iter().map(|r| r.to_string()).collect(),
    }
}

/// Every scenario, in order.
pub fn run(seed: u64) -> Vec<SanitizerCase> {
    vec![hogwild_scenario(seed)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_gives_the_expected_signal() {
        for case in run(0xE5A5E5) {
            assert!(case.pass(), "{case}");
        }
    }
}
