//! Property-style tests on cross-crate invariants.
//!
//! Formerly written with `proptest`; rewritten as deterministic seeded
//! sweeps so the workspace builds offline. Each test draws its cases
//! from a fixed-seed [`cumf_rng::ChaCha8Rng`], which keeps the failure
//! cases reproducible (the seed plus the iteration index identifies the
//! input exactly).

use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

use cumf_sgd::core::half::{F16, F16_MAX_RELATIVE_ERROR};
use cumf_sgd::core::kernel::{dot, dot_scalar, sgd_delta, sgd_update_reference};
use cumf_sgd::core::partition::{segment_of, segment_range};
use cumf_sgd::core::sched::{
    drain_epoch, BatchHogwildStream, BlockGrid, LibmfTableStream, WavefrontStream,
};
use cumf_sgd::data::synth::{zipf_weights, AliasTable};
use cumf_sgd::data::CooMatrix;
use cumf_sgd::des::SimTime;
use cumf_sgd::gpu_sim::{Precision, RatingAccess, SgdUpdateCost};

/// A small random COO matrix with at least one sample.
fn random_coo(rng: &mut ChaCha8Rng) -> CooMatrix {
    let m = rng.gen_range(2u32..40);
    let n = rng.gen_range(2u32..40);
    let nnz = rng.gen_range(1usize..300);
    let mut coo = CooMatrix::new(m, n);
    for _ in 0..nnz {
        let u = rng.gen_range(0..m);
        let v = rng.gen_range(0..n);
        let r = rng.gen_range(-5.0f32..5.0);
        coo.push(u, v, r);
    }
    coo
}

/// f16 round trips stay within half an ulp for normal-range values.
#[test]
fn f16_round_trip_error_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    for _ in 0..2000 {
        let x = rng.gen_range(-60000.0f32..60000.0);
        let rt = F16::from_f32(x).to_f32();
        if x.abs() >= 6.2e-5 {
            let rel = ((rt - x) / x).abs();
            assert!(rel <= F16_MAX_RELATIVE_ERROR, "x={x} rt={rt} rel={rel}");
        } else {
            // Subnormal range: absolute error bounded by one subnormal ulp.
            assert!((rt - x).abs() <= 2.0f32.powi(-24));
        }
    }
}

/// f16 conversion is monotone: a <= b implies f16(a) <= f16(b).
#[test]
fn f16_conversion_monotone() {
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    for _ in 0..2000 {
        let a = rng.gen_range(-1000.0f32..1000.0);
        let b = rng.gen_range(-1000.0f32..1000.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }
}

/// The unrolled dot product agrees with the scalar reference.
#[test]
fn dot_agrees_with_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(103);
    for _ in 0..200 {
        let k = rng.gen_range(1usize..200);
        let p: Vec<f32> = (0..k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let q: Vec<f32> = (0..k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let a = dot(&p[..], &q[..]);
        let b = dot_scalar(&p[..], &q[..]);
        assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()));
    }
}

/// sgd_delta + add == sgd_update, for arbitrary inputs.
#[test]
fn delta_commutes_with_update() {
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    for _ in 0..200 {
        let k = rng.gen_range(1usize..64);
        let p0: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
        let q0: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
        let r = rng.gen_range(-4.0f32..4.0);
        let gamma = rng.gen_range(0.001f32..0.2);
        let lambda = rng.gen_range(0.0f32..0.2);
        let mut dp = vec![0.0; k];
        let mut dq = vec![0.0; k];
        sgd_delta(&p0, &q0, r, gamma, lambda, &mut dp, &mut dq);
        let (mut p1, mut q1) = (p0.clone(), q0.clone());
        sgd_update_reference(&mut p1[..], &mut q1[..], r, gamma, lambda);
        for i in 0..k {
            assert!((p0[i] + dp[i] - p1[i]).abs() < 1e-5);
            assert!((q0[i] + dq[i] - q1[i]).abs() < 1e-5);
        }
    }
}

/// Every scheduling policy covers each sample exactly once per epoch.
#[test]
fn schedulers_cover_exactly_once() {
    let mut rng = ChaCha8Rng::seed_from_u64(105);
    for _ in 0..64 {
        let coo = random_coo(&mut rng);
        let workers = rng.gen_range(1usize..6);
        let n = coo.nnz();
        let expected: Vec<usize> = (0..n).collect();

        let mut bh = BatchHogwildStream::new(n, workers, 16);
        let mut got: Vec<usize> = drain_epoch(&mut bh, 100_000)
            .into_iter()
            .flatten()
            .collect();
        got.sort_unstable();
        assert_eq!(&got, &expected, "batch-hogwild");

        let cols = (2 * workers).min(coo.cols() as usize).max(1);
        if cols >= 2 * workers && workers <= coo.rows() as usize {
            let mut wf = WavefrontStream::new(&coo, workers, cols, 5);
            let mut got: Vec<usize> = drain_epoch(&mut wf, 1_000_000)
                .into_iter()
                .flatten()
                .collect();
            got.sort_unstable();
            assert_eq!(&got, &expected, "wavefront");
        }

        let a = 3usize
            .min(coo.rows() as usize)
            .min(coo.cols() as usize)
            .max(1);
        let mut lt = LibmfTableStream::new(&coo, workers, a, 9);
        let mut got: Vec<usize> = drain_epoch(&mut lt, 1_000_000)
            .into_iter()
            .flatten()
            .collect();
        got.sort_unstable();
        assert_eq!(&got, &expected, "libmf-table");
    }
}

/// Block grids put every sample in exactly one cell, inside that cell's
/// row and column ranges; the ranges are the segment rule's and tile the
/// matrix, and `segment_of` names the cell's grid row and column.
#[test]
fn grid_partitions_are_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(106);
    for _ in 0..64 {
        let coo = random_coo(&mut rng);
        let (m, n) = (coo.rows(), coo.cols());
        let i = rng.gen_range(1u32..5).min(m);
        let j = rng.gen_range(1u32..5).min(n);
        let grid = BlockGrid::build(&coo, i as usize, j as usize);
        let mut seen = vec![false; coo.nnz()];
        for cell in 0..grid.cells() as u32 {
            let (r, c) = grid.cell_pos(cell);
            let (rr, cr) = (grid.row_range(r), grid.col_range(c));
            for &s in grid.cell(cell) {
                let s = s as usize;
                assert!(!seen[s], "sample {s} in two cells");
                seen[s] = true;
                let e = coo.get(s);
                assert!(
                    rr.contains(&e.u) && cr.contains(&e.v),
                    "{e:?} outside cell {cell}"
                );
                assert_eq!(segment_of(m, i, e.u), r);
                assert_eq!(segment_of(n, j, e.v), c);
            }
        }
        assert!(seen.iter().all(|&x| x), "some sample missing");
        let rows: Vec<_> = (0..i).map(|r| grid.row_range(r)).collect();
        let cols: Vec<_> = (0..j).map(|c| grid.col_range(c)).collect();
        for (ranges, parts, total) in [(rows, i, m), (cols, j, n)] {
            let mut next = 0;
            for (b, range) in (0..parts).zip(ranges) {
                assert_eq!(range, segment_range(total, parts, b));
                assert_eq!(range.start, next, "segments must tile 0..{total}");
                next = range.end;
            }
            assert_eq!(next, total);
        }
    }
}

/// Alias tables sample only valid indices and hit every positive-weight
/// bucket eventually.
#[test]
fn alias_table_in_range() {
    let mut rng = ChaCha8Rng::seed_from_u64(107);
    for _ in 0..50 {
        let n = rng.gen_range(1usize..50);
        let exp = rng.gen_range(0.0f64..2.0);
        let weights = zipf_weights(n, exp);
        let table = AliasTable::new(&weights);
        let mut draw_rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..500 {
            let idx = table.sample(&mut draw_rng);
            assert!((idx as usize) < n);
        }
    }
}

/// Eq. 5 invariants: bytes grow with k, flops/byte below 1 for
/// realistic k (memory-bound), f16 always halves feature bytes.
#[test]
fn cost_model_invariants() {
    for k in 1u32..512 {
        let f32c = SgdUpdateCost {
            k,
            precision: Precision::F32,
            rating_access: RatingAccess::Streamed,
        };
        let f16c = SgdUpdateCost {
            k,
            precision: Precision::F16,
            rating_access: RatingAccess::Streamed,
        };
        assert_eq!(f32c.bytes() - 12, 2 * (f16c.bytes() - 12));
        assert!(f16c.flops_per_byte() > f32c.flops_per_byte());
        if k >= 8 {
            assert!(f32c.flops_per_byte() < 1.0, "memory bound");
        }
    }
}

/// SimTime arithmetic is consistent with f64 arithmetic.
#[test]
fn simtime_add_sub() {
    let mut rng = ChaCha8Rng::seed_from_u64(108);
    for _ in 0..2000 {
        let a = rng.gen_range(0.0f64..1e6);
        let b = rng.gen_range(0.0f64..1e6);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let s = SimTime::from_secs(hi) - SimTime::from_secs(lo);
        assert!((s.as_secs() - (hi - lo)).abs() < 1e-9 * hi.max(1.0));
        let t = SimTime::from_secs(a) + SimTime::from_secs(b);
        assert!((t.as_secs() - (a + b)).abs() < 1e-9 * (a + b).max(1.0));
        assert_eq!(
            SimTime::from_secs(lo).saturating_sub(SimTime::from_secs(hi)),
            SimTime::ZERO
        );
    }
}

/// Serial SGD on planted data never increases test RMSE by much
/// between consecutive epochs once the learning rate decays.
#[test]
fn serial_sgd_is_stable() {
    use cumf_sgd::core::solver::{train, Scheme, SolverConfig};
    use cumf_sgd::core::Schedule;
    use cumf_sgd::data::synth::{generate, SynthConfig};
    let mut seed_rng = ChaCha8Rng::seed_from_u64(109);
    for _ in 0..8 {
        let seed = seed_rng.gen_range(0u64..1000);
        let d = generate(&SynthConfig {
            m: 120,
            n: 90,
            k_true: 3,
            train_samples: 5_000,
            test_samples: 500,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 1.0,
            seed,
        });
        let cfg = SolverConfig {
            k: 5,
            lambda: 0.02,
            schedule: Schedule::NomadDecay {
                alpha: 0.1,
                beta: 0.3,
            },
            epochs: 8,
            scheme: Scheme::Serial,
            seed,
            mode: None,
            divergence_ceiling: 1e3,
        };
        let r = train::<f32>(&d.train, &d.test, &cfg, None);
        assert!(!r.diverged);
        let pts = &r.trace.points;
        for w in pts.windows(2) {
            assert!(
                w[1].rmse < w[0].rmse * 1.2 + 0.05,
                "seed {seed} epoch {} jumped {} -> {}",
                w[1].epoch,
                w[0].rmse,
                w[1].rmse
            );
        }
        assert!(pts.last().unwrap().rmse < pts[0].rmse * 1.01);
    }
}
