//! Driver for the schedule conflict prover (`cumf_core::sched::conflict`).
//!
//! The prover itself lives in `cumf-core` so the solver can gate
//! `ExecMode::Sequential` on certificates; this module supplies the
//! *analysis campaign*: randomized datasets, one certification run per
//! schedule family, and the expected verdict for each. The paper's two
//! conflict-free-by-construction schedules (wavefront-update §5.2 and
//! LIBMF's global table) must come back [`Verdict::Certified`]; the
//! batch-Hogwild! schedule (§5.1), which only *tolerates* conflicts, must
//! come back [`Verdict::Refuted`] with a concrete witness when every
//! sample collides on a 1×1 matrix.

use cumf_core::sched::{
    certify, round_bound, BatchHogwildStream, BlockGrid, ConflictVerdict, EpochBlocks,
    LibmfTableStream, UpdateStream, WavefrontStream,
};
use cumf_core::Verdict;
use cumf_data::coo::CooMatrix;
use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

/// One prover run: which schedule, what we expected, what the prover said.
#[derive(Debug, Clone)]
pub struct ProverCase {
    /// Schedule family under test.
    pub schedule: String,
    /// Whether conflict-freedom was expected (the paper's claim).
    pub expect_certified: bool,
    /// The prover's verdict.
    pub verdict: ConflictVerdict,
}

impl ProverCase {
    /// The case passes when the verdict matches the paper's claim.
    pub fn pass(&self) -> bool {
        self.verdict.is_certified() == self.expect_certified
    }
}

impl std::fmt::Display for ProverCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = if self.pass() { "ok" } else { "FAIL" };
        write!(f, "[{status}] {}: ", self.schedule)?;
        match (&self.verdict, self.expect_certified) {
            (Verdict::Certified(cert), true) => write!(f, "certified — {cert}"),
            (Verdict::Refuted(w), false) => write!(f, "refuted as expected — witness {w}"),
            (Verdict::Certified(cert), false) => {
                write!(f, "UNEXPECTEDLY certified ({cert})")
            }
            (Verdict::Refuted(w), true) => write!(f, "UNEXPECTEDLY refuted: witness {w}"),
        }
    }
}

/// Builds an `m`×`n` dataset with `nnz` uniformly random samples.
/// Duplicate coordinates are allowed — they stress the prover harder
/// (a duplicated sample in one round is exactly a conflict).
pub fn random_dataset(m: u32, n: u32, nnz: usize, seed: u64) -> CooMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = CooMatrix::new(m, n);
    for _ in 0..nnz {
        let u = rng.gen_range(0..m);
        let v = rng.gen_range(0..n);
        let r = rng.gen_range(-1.0f32..1.0);
        data.push(u, v, r);
    }
    data
}

/// Certifies the wavefront-update schedule on `data`.
pub fn certify_wavefront(
    data: &CooMatrix,
    workers: usize,
    seed: u64,
    epochs: u32,
) -> ConflictVerdict {
    let cols = (2 * workers).max(2).min(data.cols() as usize);
    let mut stream = WavefrontStream::new(data, workers, cols, seed);
    certify(data, &mut stream, epochs, round_bound(data, workers))
}

/// Certifies the LIBMF global-table schedule on `data`.
pub fn certify_libmf(
    data: &CooMatrix,
    workers: usize,
    a: usize,
    seed: u64,
    epochs: u32,
) -> ConflictVerdict {
    let mut stream = LibmfTableStream::new(data, workers, a, seed);
    certify(data, &mut stream, epochs, round_bound(data, workers))
}

/// Runs batch-Hogwild! against a dataset where *every* update touches
/// the same P row and Q column (a 1×1 matrix), forcing a conflict in the
/// first multi-worker round. The prover must refute with a witness.
pub fn refute_batch_hogwild(workers: usize, batch: usize, samples: usize) -> ConflictVerdict {
    let mut data = CooMatrix::new(1, 1);
    for i in 0..samples {
        data.push(0, 0, (i % 3) as f32 - 1.0);
    }
    let mut stream = BatchHogwildStream::new(data.nnz(), workers, batch);
    certify(&data, &mut stream, 1, round_bound(&data, workers))
}

/// Calls `check(schedule, epoch, grid, blocks)` for three epochs each of
/// the wavefront (3 workers × 8 columns) and LIBMF (3 workers, 4×4 table)
/// block schedules over a dense 12×16 matrix: the real schedules the
/// block-DAG models are checked against.
pub fn for_each_block_schedule(mut check: impl FnMut(&str, u32, &BlockGrid, &EpochBlocks)) {
    let mut coo = CooMatrix::new(12, 16);
    for u in 0..12u32 {
        for v in 0..16u32 {
            coo.push(u, v, 1.0);
        }
    }
    let streams: [Box<dyn UpdateStream>; 2] = [
        Box::new(WavefrontStream::new(&coo, 3, 8, 0xB10C)),
        Box::new(LibmfTableStream::new(&coo, 3, 4, 0xB10C)),
    ];
    for mut stream in streams {
        for epoch in 0..3 {
            stream.begin_epoch(epoch);
            let (grid, blocks) = stream.blocks().expect("a block schedule");
            check(stream.name(), epoch, grid, blocks);
        }
    }
}

/// The full prover campaign over randomized datasets derived from `seed`.
///
/// Two randomized sizes per conflict-free schedule (different worker
/// counts and shapes), plus the forced-collision refutation. All cases
/// must [`ProverCase::pass`].
pub fn run(seed: u64) -> Vec<ProverCase> {
    let mut cases = Vec::new();

    for (i, (m, n, nnz, workers)) in [(24, 32, 400, 3), (60, 48, 1500, 4)]
        .into_iter()
        .enumerate()
    {
        let data = random_dataset(m, n, nnz, seed.wrapping_add(i as u64));
        cases.push(ProverCase {
            schedule: format!("wavefront (m={m} n={n} nnz={nnz} workers={workers})"),
            expect_certified: true,
            verdict: certify_wavefront(&data, workers, seed ^ 0x5eed, 2),
        });
        cases.push(ProverCase {
            schedule: format!("libmf-table (m={m} n={n} nnz={nnz} workers={workers})"),
            expect_certified: true,
            verdict: certify_libmf(&data, workers, 2 * workers, seed ^ 0x11bf, 2),
        });
    }

    cases.push(ProverCase {
        schedule: "batch-hogwild (1x1 forced collision, workers=2, batch=4)".to_string(),
        expect_certified: false,
        verdict: refute_batch_hogwild(2, 4, 32),
    });

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_all_pass() {
        for case in run(0xC0FFEE) {
            assert!(case.pass(), "{case}");
        }
    }

    #[test]
    fn forced_collision_witness_names_the_shared_axis() {
        let verdict = refute_batch_hogwild(2, 4, 32);
        let w = verdict.witness().expect("1x1 matrix must refute");
        assert_eq!(w.worker_a, 0);
        assert_eq!(w.worker_b, 1);
        // Every sample is (0, 0): the witness axis is row 0 or col 0.
        let axis = format!("{}", w.axis);
        assert!(axis.contains('0'), "{axis}");
    }
}
