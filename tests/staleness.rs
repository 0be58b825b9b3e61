//! Measured-vs-certified staleness: the bounds the static certifier
//! claims (`cumf_core::stale`) checked against what executions actually
//! observe.
//!
//! * the round-lockstep Hogwild schedule is drained round by round and
//!   the per-round per-row writer multiplicity — exactly the staleness
//!   a round-barrier read can observe — never exceeds the certified
//!   τ = W − 1, across seeds × thread counts;
//! * a real-thread epoch-join run instruments every factor-row update
//!   with an atomic version counter (snapshot at read, delta at commit
//!   = writes that landed in between) and the observed maximum never
//!   exceeds the certified τ = (W − 1) × per-epoch quota;
//! * real wavefront and LIBMF block schedules run through the block-DAG
//!   executor's scheduler on 1, 2 and 4 OS threads with every P-row and
//!   Q-column update instrumented the same way: no update ever observes
//!   a foreign write between its read and its write — the certified
//!   τ = 0 of the `block-dag` path — and every row and column sees its
//!   updates in the round engines' order;
//! * the solver consumes the certifier: a sane racy configuration
//!   trains stale-additive with a certificate attached to
//!   `TrainResult`, an oversubscribed schedule is refuted and
//!   downgraded to sequential execution, and explicit mode overrides
//!   skip certification entirely.

use std::sync::atomic::{AtomicU64, Ordering};

use cumf_sgd::core::concurrent::UPDATE_PATHS;
use cumf_sgd::core::engine::run_block_dag;
use cumf_sgd::core::sched::{
    HogwildStream, LibmfTableStream, StreamItem, UpdateStream, WavefrontStream,
};
use cumf_sgd::core::solver::{train, Scheme, SolverConfig};
use cumf_sgd::core::stale::{staleness_bound, PathSpec, SyncEdge};
use cumf_sgd::core::{ExecMode, Schedule};
use cumf_sgd::data::synth::{generate, SynthConfig};

// ------------------------------------------- round-census vs certified τ

/// Drains one Hogwild epoch round by round and returns the maximum
/// per-round per-row writer multiplicity minus one: the number of other
/// writers whose commit lands between a round-barrier read and the
/// write it feeds — the measured counterpart of the solver-hogwild τ.
fn max_round_overlap(data: &cumf_sgd::data::CooMatrix, workers: usize, seed: u64) -> u64 {
    let mut stream = HogwildStream::new(data.nnz(), workers, seed);
    stream.begin_epoch(0);
    let mut exhausted = vec![false; workers];
    let mut max_overlap = 0u64;
    let mut round_rows: Vec<u32> = Vec::with_capacity(2 * workers);
    while !exhausted.iter().all(|&d| d) {
        round_rows.clear();
        for (w, done) in exhausted.iter_mut().enumerate() {
            if *done {
                continue;
            }
            match stream.next(w) {
                StreamItem::Sample(i) => {
                    let e = data.get(i);
                    round_rows.push(e.u);
                    // Column factors race identically; count them in
                    // the same census (distinct coordinate space).
                    round_rows.push(u32::MAX - e.v);
                }
                StreamItem::Stall => {}
                StreamItem::Exhausted => *done = true,
            }
        }
        round_rows.sort_unstable();
        let mut run = 1u64;
        for k in 1..round_rows.len() {
            if round_rows[k] == round_rows[k - 1] {
                run += 1;
                max_overlap = max_overlap.max(run - 1);
            } else {
                run = 1;
            }
        }
    }
    max_overlap
}

#[test]
fn observed_round_overlap_never_exceeds_certified_tau() {
    let d = generate(&SynthConfig {
        m: 120,
        n: 90,
        k_true: 4,
        train_samples: 6_000,
        test_samples: 100,
        ..SynthConfig::default()
    });
    for &workers in &[2usize, 4, 8] {
        let spec = PathSpec::solver_hogwild(workers as u32, 90);
        let tau = staleness_bound(&spec).expect("solver path is bounded");
        assert_eq!(tau, workers as u64 - 1);
        for seed in 0..5u64 {
            let observed = max_round_overlap(&d.train, workers, seed);
            assert!(
                observed <= tau,
                "workers={workers} seed={seed}: observed {observed} > certified τ={tau}"
            );
        }
    }
}

// --------------------------------- instrumented epoch-join vs certified τ

/// Runs `workers` real threads for `epochs` epochs of `quota` updates
/// each against shared per-row version counters, with only the epoch
/// join synchronising them — the exact shape of the
/// `batch-hogwild-threaded` update path. Each update snapshots its
/// row's version, spins briefly, then commits; the returned maximum of
/// `version_at_commit − snapshot` is the measured staleness.
fn measured_epoch_join_staleness(
    workers: usize,
    quota: u64,
    epochs: u32,
    rows: usize,
    seed: u64,
) -> u64 {
    let versions: Vec<AtomicU64> = (0..rows).map(|_| AtomicU64::new(0)).collect();
    let max_observed = AtomicU64::new(0);
    for _epoch in 0..epochs {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let versions = &versions;
                let max_observed = &max_observed;
                scope.spawn(move || {
                    let mut x = seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..quota {
                        // xorshift row pick: any writer may hit any row.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let r = (x % rows as u64) as usize;
                        let snap = versions[r].load(Ordering::SeqCst);
                        std::hint::spin_loop();
                        let commit = versions[r].fetch_add(1, Ordering::SeqCst);
                        max_observed.fetch_max(commit - snap, Ordering::SeqCst);
                    }
                });
            }
        });
        // The scope join IS the epoch barrier.
    }
    max_observed.into_inner()
}

#[test]
fn observed_threaded_staleness_never_exceeds_certified_tau() {
    let quota = 64u64;
    for &workers in &[2usize, 4, 8] {
        let spec = PathSpec {
            sync: cumf_sgd::core::stale::SyncEdge::Barrier { interval: quota },
            ..PathSpec::solver_hogwild(workers as u32, 1000)
        };
        let tau = staleness_bound(&spec).expect("epoch-join path is bounded");
        assert_eq!(tau, (workers as u64 - 1) * quota);
        for seed in 1..=3u64 {
            let observed = measured_epoch_join_staleness(workers, quota, 3, 4, seed);
            assert!(
                observed <= tau,
                "workers={workers} seed={seed}: observed {observed} > certified τ={tau}"
            );
        }
    }
}

// -------------------------------------------- block DAG vs certified τ = 0

/// What [`measured_block_dag`] observed.
struct DagCensus {
    /// Most foreign commits any update saw between its read and write.
    max_staleness: u64,
    /// Updates whose commit did not land at the row's or column's
    /// position in the round engines' (round-major) order.
    out_of_order: u64,
    updates: u64,
}

/// Runs `epochs` epochs of the block schedule `stream` through
/// [`run_block_dag`] on `threads` OS threads. For every sample, the block
/// body snapshots its P row's and Q column's version counters, spins
/// briefly, then commits to both, and checks the versions it committed
/// at against the sample's position in its row's and column's round-major
/// update sequence.
fn measured_block_dag(
    data: &cumf_sgd::data::CooMatrix,
    stream: &mut dyn UpdateStream,
    threads: usize,
    epochs: u32,
) -> DagCensus {
    let counters = |n: u32| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let (max_staleness, out_of_order, updates) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    for epoch in 0..epochs {
        stream.begin_epoch(epoch);
        let (grid, blocks) = stream.blocks().expect("a block schedule");
        // Each sample's place in its P row's and Q column's update order.
        let (mut row_seq, mut col_seq) = (
            vec![0u64; data.rows() as usize],
            vec![0u64; data.cols() as usize],
        );
        let mut want = vec![(0u64, 0u64); data.nnz()];
        blocks.round_major(grid, |_, _, i| {
            let e = data.get(i as usize);
            let (r, c) = (&mut row_seq[e.u as usize], &mut col_seq[e.v as usize]);
            want[i as usize] = (*r, *c);
            (*r, *c) = (*r + 1, *c + 1);
        });
        let (p, q) = (counters(data.rows()), counters(data.cols()));
        let (rows, cols) = (
            vec![(); grid.rows() as usize],
            vec![(); grid.cols() as usize],
        );
        run_block_dag(
            grid,
            blocks,
            rows,
            cols,
            threads,
            || (),
            |_, block, _, _| {
                for &i in grid.cell(block.cell) {
                    let e = data.get(i as usize);
                    let (pu, qv) = (&p[e.u as usize], &q[e.v as usize]);
                    let snap = (pu.load(Ordering::SeqCst), qv.load(Ordering::SeqCst));
                    std::hint::spin_loop();
                    let commit = (
                        pu.fetch_add(1, Ordering::SeqCst),
                        qv.fetch_add(1, Ordering::SeqCst),
                    );
                    let seen = (commit.0 - snap.0).max(commit.1 - snap.1);
                    max_staleness.fetch_max(seen, Ordering::SeqCst);
                    if commit != want[i as usize] {
                        out_of_order.fetch_add(1, Ordering::SeqCst);
                    }
                    updates.fetch_add(1, Ordering::SeqCst);
                }
            },
        );
    }
    DagCensus {
        max_staleness: max_staleness.into_inner(),
        out_of_order: out_of_order.into_inner(),
        updates: updates.into_inner(),
    }
}

#[test]
fn observed_block_dag_staleness_is_the_certified_zero() {
    let anno = UPDATE_PATHS
        .iter()
        .find(|a| a.path == "block-dag")
        .expect("the block DAG is a declared update path");
    let d = generate(&SynthConfig {
        m: 96,
        n: 128,
        k_true: 4,
        train_samples: 6_000,
        test_samples: 100,
        ..SynthConfig::default()
    });
    for threads in [1usize, 2, 4] {
        let spec = PathSpec {
            name: anno.path,
            writers: threads as u32,
            footprint: anno.footprint,
            sync: SyncEdge::Unsynced,
            min_dim: 96,
            anchor: anno.anchor,
        };
        let tau = staleness_bound(&spec).expect("disjoint rows are bounded");
        assert_eq!(tau, 0);
        let streams: [Box<dyn UpdateStream>; 2] = [
            Box::new(WavefrontStream::new(&d.train, 8, 16, threads as u64)),
            Box::new(LibmfTableStream::new(&d.train, 8, 12, threads as u64)),
        ];
        for mut stream in streams {
            let name = stream.name();
            let census = measured_block_dag(&d.train, stream.as_mut(), threads, 3);
            assert_eq!(census.updates, 3 * d.train.nnz() as u64, "{name}");
            assert!(
                census.max_staleness <= tau,
                "{name} on {threads} threads: observed {} > certified τ={tau}",
                census.max_staleness
            );
            assert_eq!(
                census.out_of_order, 0,
                "{name} on {threads} threads: updates left their rows' round-major order"
            );
        }
    }
}

// ----------------------------------------------- solver-side consumption

fn dataset(m: u32, n: u32, samples: usize, seed: u64) -> cumf_sgd::data::synth::SynthDataset {
    generate(&SynthConfig {
        m,
        n,
        k_true: 4,
        train_samples: samples,
        test_samples: samples / 10,
        seed,
        ..SynthConfig::default()
    })
}

#[test]
fn sane_racy_configuration_trains_with_a_certificate() {
    let d = dataset(300, 200, 12_000, 3);
    let cfg = SolverConfig {
        epochs: 3,
        ..SolverConfig::new(6, Scheme::Hogwild { workers: 8 })
    };
    let r = train::<f32>(&d.train, &d.test, &cfg, None);
    assert_eq!(r.exec_mode, ExecMode::StaleAdditive, "certified mode kept");
    let verdict = r.stale_verdict.expect("racy default must be certified");
    let cert = verdict.certificate().expect("sane config certifies");
    assert_eq!(cert.path, "solver-hogwild");
    assert_eq!(cert.tau, 7);
    assert!(cert.lr_tau < 1.0, "{cert}");
}

#[test]
fn oversubscribed_schedule_is_refuted_and_serialised() {
    let d = dataset(60, 40, 4_000, 9);
    let mut cfg = SolverConfig::new(4, Scheme::Hogwild { workers: 40 });
    cfg.epochs = 2;
    cfg.schedule = Schedule::Fixed(0.5);
    let r = train::<f32>(&d.train, &d.test, &cfg, None);
    assert_eq!(
        r.exec_mode,
        ExecMode::Sequential,
        "refuted schedule must be downgraded"
    );
    let verdict = r.stale_verdict.expect("a verdict must be attached");
    let w = verdict.witness().expect("oversubscription refutes");
    assert!(w.lr_tau >= 1.0, "{w}");
    assert!(w.detail.contains("lr·τ"), "{w}");
}

#[test]
fn explicit_mode_override_skips_staleness_certification() {
    let d = dataset(60, 40, 4_000, 9);
    let mut cfg = SolverConfig::new(4, Scheme::Hogwild { workers: 40 });
    cfg.epochs = 2;
    cfg.schedule = Schedule::Fixed(0.05);
    cfg.mode = Some(ExecMode::StaleAdditive);
    let r = train::<f32>(&d.train, &d.test, &cfg, None);
    assert_eq!(r.exec_mode, ExecMode::StaleAdditive);
    assert!(
        r.stale_verdict.is_none(),
        "explicit overrides are the caller's responsibility"
    );
}
