//! Property-style tests for the `cumf-analyze` concurrency analyzers.
//!
//! Deterministic seeded sweeps (same convention as `tests/props.rs`):
//! the schedule conflict prover must certify the paper's two
//! conflict-free-by-construction policies on randomized datasets, refute
//! batch-Hogwild! with a concrete witness under forced collisions, and
//! every update stream must replay identically after `begin_epoch` — the
//! property that makes a certificate transferable from the prover's probe
//! stream to the solver's execution stream.

use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

use cumf_sgd::analyze::prover::{certify_libmf, certify_wavefront, random_dataset};
use cumf_sgd::core::sched::{
    certify, drain_epoch, BatchHogwildStream, HogwildStream, LibmfTableStream, SerialStream,
    UpdateStream, WavefrontStream,
};
use cumf_sgd::core::solver::{train, Scheme, SolverConfig};
use cumf_sgd::core::{ExecMode, Verdict};
use cumf_sgd::data::CooMatrix;

/// Random dataset shapes that satisfy every scheme's preconditions
/// (`workers ≤ m`, `2·workers ≤ cols ≤ n`, `a ≤ min(m, n)`).
fn random_case(rng: &mut ChaCha8Rng) -> (CooMatrix, usize) {
    let workers = rng.gen_range(2usize..5);
    let m = rng.gen_range(workers as u32 * 2..64);
    let n = rng.gen_range(workers as u32 * 2..64);
    let nnz = rng.gen_range(1usize..800);
    (
        random_dataset(m, n, nnz, rng.gen_range(0u64..1 << 40)),
        workers,
    )
}

/// The wavefront-update schedule certifies conflict-free on every
/// randomized dataset (the §5.2 construction: one block-row per worker,
/// dynamic column claiming).
#[test]
fn prover_certifies_wavefront_on_random_datasets() {
    let mut rng = ChaCha8Rng::seed_from_u64(201);
    for i in 0..25 {
        let (data, workers) = random_case(&mut rng);
        let verdict = certify_wavefront(&data, workers, 0xABC ^ i, 2);
        match verdict {
            Verdict::Certified(cert) => {
                assert_eq!(cert.workers, workers, "case {i}");
                assert_eq!(cert.epochs_checked, 2, "case {i}");
                // Two epochs of the full dataset.
                assert_eq!(cert.samples, 2 * data.nnz() as u64, "case {i}");
            }
            Verdict::Refuted(w) => panic!("case {i}: wavefront refuted: {w}"),
        }
    }
}

/// The LIBMF global-table schedule certifies conflict-free on every
/// randomized dataset (block-exclusive rows and columns).
#[test]
fn prover_certifies_libmf_on_random_datasets() {
    let mut rng = ChaCha8Rng::seed_from_u64(202);
    for i in 0..25 {
        let (data, workers) = random_case(&mut rng);
        let a = (2 * workers)
            .min(data.rows() as usize)
            .min(data.cols() as usize);
        let verdict = certify_libmf(&data, workers, a, 0xDEF ^ i, 2);
        assert!(
            verdict.is_certified(),
            "case {i}: libmf refuted: {:?}",
            verdict.witness()
        );
    }
}

/// Batch-Hogwild! with every sample on one coordinate must be refuted,
/// and the witness must name a real collision: two distinct workers in
/// the same round whose samples share the axis.
#[test]
fn prover_refutes_batch_hogwild_under_forced_collisions() {
    let mut rng = ChaCha8Rng::seed_from_u64(203);
    for i in 0..10 {
        let workers = rng.gen_range(2usize..6);
        let batch = rng.gen_range(1usize..8);
        let samples = rng.gen_range(workers * batch..200);
        let mut data = CooMatrix::new(1, 1);
        for _ in 0..samples {
            data.push(0, 0, rng.gen_range(-1.0f32..1.0));
        }
        let mut stream = BatchHogwildStream::new(data.nnz(), workers, batch);
        let verdict = certify(&data, &mut stream, 1, 4 * samples as u64 + 64);
        let w = verdict
            .witness()
            .unwrap_or_else(|| panic!("case {i}: 1x1 dataset certified conflict-free"));
        assert_ne!(w.worker_a, w.worker_b, "case {i}: workers must differ");
        assert_ne!(w.sample_a, w.sample_b, "case {i}: samples must differ");
    }
}

/// Drains one epoch `e` of a boxed stream after `begin_epoch(e)`.
fn replay(stream: &mut dyn UpdateStream, epoch: u32, max_rounds: usize) -> Vec<Vec<usize>> {
    struct Borrowed<'a>(&'a mut dyn UpdateStream);
    impl UpdateStream for Borrowed<'_> {
        fn workers(&self) -> usize {
            self.0.workers()
        }
        fn next(&mut self, worker: usize) -> cumf_sgd::core::sched::StreamItem {
            self.0.next(worker)
        }
        fn begin_epoch(&mut self, epoch: u32) {
            self.0.begin_epoch(epoch)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }
    stream.begin_epoch(epoch);
    drain_epoch(&mut Borrowed(stream), max_rounds)
}

/// `begin_epoch(e)` makes every stream a pure function of `e`: draining
/// the same epoch twice — even after draining *other* epochs in between —
/// yields identical per-worker schedules. This is what lets the solver
/// reuse a certificate produced on a separate probe stream.
#[test]
fn begin_epoch_replays_every_stream_deterministically() {
    let mut rng = ChaCha8Rng::seed_from_u64(204);
    for i in 0..8 {
        let (data, workers) = random_case(&mut rng);
        let nnz = data.nnz();
        let cols = 2 * workers;
        let a = (2 * workers)
            .min(data.rows() as usize)
            .min(data.cols() as usize);
        let seed = 0x7e57 ^ i;
        let mut streams: Vec<Box<dyn UpdateStream>> = vec![
            Box::new(SerialStream::new(nnz)),
            Box::new(HogwildStream::new(nnz, workers, seed)),
            Box::new(BatchHogwildStream::new(nnz, workers, 4)),
            Box::new(WavefrontStream::new(&data, workers, cols, seed)),
            Box::new(LibmfTableStream::new(&data, workers, a, seed)),
        ];
        let max_rounds = 4 * nnz + 64;
        for stream in &mut streams {
            let first = replay(stream.as_mut(), 3, max_rounds);
            // Perturb internal cursors with a different epoch...
            let _ = replay(stream.as_mut(), 7, max_rounds);
            // ...then the original epoch must reproduce exactly.
            let second = replay(stream.as_mut(), 3, max_rounds);
            assert_eq!(
                first,
                second,
                "case {i}: {} epoch 3 not reproducible",
                stream.name()
            );
        }
    }
}

/// Certificates are replayable: certifying the same stream twice yields
/// the same schedule digest (the digest is a function of the schedule,
/// which `begin_epoch` pins).
#[test]
fn certificate_digest_is_stable_across_reruns() {
    let data = random_dataset(30, 40, 500, 99);
    let digest = |seed: u64| match certify_wavefront(&data, 3, seed, 2) {
        Verdict::Certified(cert) => cert.schedule_digest,
        Verdict::Refuted(w) => panic!("refuted: {w}"),
    };
    assert_eq!(digest(5), digest(5));
    // A different shuffle seed schedules differently.
    assert_ne!(digest(5), digest(6), "digest must depend on the schedule");
}

/// End-to-end: the solver's certificate gating. A conflict-free scheme
/// (wavefront) trains in `Sequential` mode with a `Certified` verdict
/// attached to the result — the pipeline consumed a certificate, not an
/// assumption.
#[test]
fn solver_attaches_certificate_and_keeps_sequential_mode() {
    let data = random_dataset(24, 32, 600, 7);
    let test = CooMatrix::new(24, 32);
    let config = SolverConfig {
        epochs: 2,
        ..SolverConfig::new(
            2,
            Scheme::Wavefront {
                workers: 3,
                cols: 8,
            },
        )
    };
    let result = train::<f32>(&data, &test, &config, None);
    assert_eq!(result.exec_mode, ExecMode::Sequential);
    let verdict = result
        .schedule_verdict
        .as_ref()
        .expect("multi-worker sequential scheme must be certified");
    assert!(verdict.is_certified(), "wavefront must certify");
    // An explicit mode override skips the prover (no verdict attached).
    let forced = SolverConfig {
        mode: Some(ExecMode::StaleAdditive),
        ..config
    };
    let result = train::<f32>(&data, &test, &forced, None);
    assert!(result.schedule_verdict.is_none());
}

/// Property: for random `k ∈ 8..=128` in both storage precisions, the
/// kernel-IR-derived bytes-per-update equals the bytes the DES executor
/// actually charges for a real simulated epoch — integer-exactly, with
/// no common code between the two sides except the `SgdUpdateCost`
/// struct under test.
#[test]
fn kir_bytes_match_executor_charges_for_random_k() {
    use cumf_sgd::analyze::kir::{self, traffic::interpret_traffic};
    use cumf_sgd::gpu_sim::{
        simulate_throughput, Precision, RatingAccess, SchedulerModel, SgdUpdateCost,
        ThroughputConfig,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(505);
    for case in 0..20 {
        let k = rng.gen_range(8u32..=128);
        let updates = rng.gen_range(1_000u64..200_000);
        for (elem, precision) in [
            (kir::Dtype::F32, Precision::F32),
            (kir::Dtype::F16, Precision::F16),
        ] {
            let program = kir::lift_sgd_update(k, elem);
            kir::type_check(&program).unwrap();
            let t = interpret_traffic(&program, RatingAccess::Streamed);
            let r = simulate_throughput(&ThroughputConfig {
                workers: rng.gen_range(1u32..32),
                total_bandwidth: 240e9,
                cost: SgdUpdateCost {
                    k,
                    precision,
                    rating_access: RatingAccess::Streamed,
                },
                scheduler: SchedulerModel::BatchHogwild {
                    batch: 256,
                    per_batch_overhead_s: 1e-7,
                },
                total_updates: updates,
            });
            assert_eq!(r.updates, updates, "case {case} k={k}");
            assert_eq!(
                r.bytes_charged,
                updates * t.bytes.eval(k),
                "case {case}: k={k} {} epoch bytes drifted",
                elem.name()
            );
        }
    }
}

/// The cost certificate attached by the solver agrees with the kernel
/// IR's closed form — the same invariant the `cumf analyze --cost`
/// section gates CI on, checked here end-to-end through `train`.
#[test]
fn solver_cost_cert_matches_kir_closed_form() {
    use cumf_sgd::analyze::kir::{self, traffic::interpret_traffic};
    use cumf_sgd::core::F16;
    use cumf_sgd::gpu_sim::RatingAccess;
    let mut rng = ChaCha8Rng::seed_from_u64(506);
    let data = random_dataset(40, 40, 600, 99);
    let test = random_dataset(40, 40, 60, 100);
    for _ in 0..5 {
        let k = rng.gen_range(8u32..=64);
        let config = SolverConfig {
            epochs: 1,
            ..SolverConfig::new(k, Scheme::Serial)
        };
        let r32 = train::<f32>(&data, &test, &config, None);
        let t32 = interpret_traffic(
            &kir::lift_sgd_update(k, kir::Dtype::F32),
            RatingAccess::Streamed,
        );
        assert!(r32.cost_cert.is_certified(), "{}", r32.cost_cert);
        assert_eq!(r32.cost_cert.bytes_per_update, t32.bytes.eval(k));
        assert_eq!(r32.cost_cert.flops_per_update, t32.flops);
        let r16 = train::<F16>(&data, &test, &config, None);
        let t16 = interpret_traffic(
            &kir::lift_sgd_update(k, kir::Dtype::F16),
            RatingAccess::Streamed,
        );
        assert!(r16.cost_cert.is_certified(), "{}", r16.cost_cert);
        assert_eq!(r16.cost_cert.bytes_per_update, t16.bytes.eval(k));
        // Same k, different precision: the certificates must not collide.
        assert_ne!(r32.cost_cert.digest, r16.cost_cert.digest);
    }
}

/// The full analyze campaign — all nine sections, including the
/// cost/coalesce/precision/lint static passes, the deadlock & liveness
/// certifier, and the staleness & asynchrony certifier — passes
/// end-to-end.
#[test]
fn full_campaign_with_static_passes() {
    let report = cumf_sgd::analyze::run_all(7);
    assert!(report.pass(), "{report}");
    let text = report.to_string();
    for needle in [
        "deadlock",
        "staleness",
        "cost",
        "coalesce",
        "precision",
        "lint",
        "certified",
        "witness",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// The deadlock section certifies every shipped protocol and refutes
/// every seeded twin; in particular the pure-model ABBA stripe twin is
/// refuted with a replayable lock-order 2-cycle beside the DES 3-cycle.
#[test]
fn deadlock_certifier_proves_shipped_order_and_refutes_twins() {
    use cumf_sgd::analyze::deadlock::{analyze_protocol, protocols, ProtocolWitness};

    let shipped = protocols::shipped_protocols();
    assert!(shipped.len() >= 5, "expected ≥5 shipped protocols");
    for p in &shipped {
        match analyze_protocol(p) {
            Verdict::Certified((order, live)) => {
                assert_ne!(order.digest, 0, "{}", p.name);
                assert!(live.chain_s > 0.0, "{}", p.name);
                if p.watchdog.is_some() {
                    let margin = live.watchdog_margin_s.expect("watchdog must be bounded");
                    assert!(margin > 0.0, "{}: watchdog margin {margin}", p.name);
                }
            }
            other => panic!("{} must certify, got {other:?}", p.name),
        }
    }

    let twins = protocols::broken_twins();
    assert!(twins.len() >= 3, "refutation campaign needs ≥3 twins");
    let mut cycles = 0;
    let mut starvations = 0;
    for p in &twins {
        match analyze_protocol(p) {
            Verdict::Certified(_) => panic!("twin {} certified", p.name),
            Verdict::Refuted(ProtocolWitness::Deadlock(w)) => {
                cycles += 1;
                assert!(w.replays, "{}: {w}", p.name);
                assert_eq!(
                    w.schedule.len(),
                    w.cycle.len(),
                    "minimal schedule: one step per cycle thread"
                );
            }
            Verdict::Refuted(ProtocolWitness::Starvation(witness)) => {
                starvations += 1;
                assert!(witness.timeout_s < witness.grant_by_s, "{witness}");
            }
        }
    }
    assert!(cycles >= 2, "need cycle twins (ABBA, DES)");
    assert!(starvations >= 1, "need the short-watchdog twin");

    // The ABBA twin specifically cycles P ↔ Q.
    let abba = twins
        .iter()
        .find(|p| p.name == "twin/striped-abba")
        .expect("ABBA stripe twin must be seeded");
    match analyze_protocol(abba) {
        Verdict::Refuted(ProtocolWitness::Deadlock(w)) => {
            assert!(w.cycle.contains(&"P.stripe".to_string()), "{w}");
            assert!(w.cycle.contains(&"Q.stripe".to_string()), "{w}");
        }
        other => panic!("ABBA twin must deadlock, got {other:?}"),
    }
}

/// The determinism lint's file census is honest: an independent walk of
/// the scanned crates' `src/` trees finds exactly as many `.rs` files
/// as the lint reports scanning. A silent drop of a crate (or a whole
/// subtree) from the scan would show up here.
#[test]
fn lint_scans_every_source_file_of_the_scanned_crates() {
    fn count_rs(dir: &std::path::Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let p = e.path();
                if p.is_dir() {
                    count_rs(&p)
                } else {
                    usize::from(p.extension().is_some_and(|x| x == "rs"))
                }
            })
            .sum()
    }
    let crates_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let expected: usize = ["core", "gpu-sim", "des", "bench", "serve"]
        .iter()
        .map(|krate| count_rs(&crates_root.join(krate).join("src")))
        .sum();
    assert!(expected > 20, "independent walk found {expected} files");
    let report = cumf_sgd::analyze::lint::lint_workspace();
    assert_eq!(
        report.files_scanned, expected,
        "lint file census drifted from the source tree"
    );
}

/// Every `digest xxxxxxxxxxxxxxxx` a section prints, in order.
fn printed_digests(section: &cumf_sgd::analyze::SectionResult) -> Vec<String> {
    let mut out = Vec::new();
    for line in &section.lines {
        let mut rest = line.as_str();
        while let Some(at) = rest.find("digest ") {
            rest = &rest[at + "digest ".len()..];
            out.push(rest.chars().take(16).collect());
        }
    }
    out
}

/// `fnv1a64` of the little-endian bytes of each `u64`, captured from the
/// byte-wise reference implementation: small values (high zero bytes),
/// byte and word boundaries, and the extremes.
const U64_VECTORS: [(u64, u64); 10] = [
    (0, 0xa8c7_f832_281a_39c5),
    (1, 0x89cd_3129_1d2a_efa4),
    (255, 0x9016_b196_e349_a31a),
    (256, 0xe375_7ca7_d646_66ea),
    (65_535, 0x8a5d_9580_133f_770b),
    (1 << 24, 0x9c19_1507_aaca_cf62),
    (u32::MAX as u64, 0x4eba_ad86_4bc6_f2e1),
    (1 << 56, 0xa8c7_f732_281a_3812),
    (0x0123_4567_89ab_cdef, 0x37eb_3f33_4776_1c55),
    (u64::MAX, 0x8cf5_1a8b_fca3_883d),
];

/// Every certificate digest `cumf analyze --all` prints (the four prover
/// schedules, the six deadlock and six liveness certificates, the
/// four staleness certificates), the solver's cost certificate and the
/// byte-level digest itself, pinned to constants: a refactor of the
/// digest or verdict plumbing must reproduce each one bit for bit.
#[test]
fn certificate_digests_are_pinned() {
    use cumf_sgd::analyze::{deadlock_section, prover_section, staleness_section};
    use cumf_sgd::core::faults::fnv1a64;
    use cumf_sgd::core::{CostCert, F16};
    use cumf_sgd::gpu_sim::RatingAccess;

    assert_eq!(
        printed_digests(&prover_section(42)),
        [
            "94846536fc9183d3",
            "95fb5d1751926e4e",
            "1d555708266fad81",
            "b5a906c9967bfb56",
        ]
    );
    // Order certificate, then liveness certificate, per shipped protocol.
    assert_eq!(
        printed_digests(&deadlock_section()),
        [
            "f93daeaf1719cad4",
            "4d28d1dfcbf680a3",
            "62235670834b1e52",
            "a61ee0dd8093d983",
            "8878f000c9b2f3da",
            "1b43d7d9baecf71e",
            "1ec7bf3dcefc1eb7",
            "1da9062d1c5b8339",
            "b16497bec916f474",
            "90c8d42ddb04590d",
            "5323a2c55abd1fc3",
            "cba25481ce56f727",
        ]
    );
    assert_eq!(
        printed_digests(&staleness_section()),
        [
            "5fd8c7851e6407ca",
            "dd63d8f1a35b9b0d",
            "67774d523b780d1f",
            "1f7649c01f9733cf",
        ]
    );
    assert_eq!(
        CostCert::certify::<f32>(64, RatingAccess::Streamed, None).digest,
        0x533b_2e0c_b2be_c278
    );
    assert_eq!(
        CostCert::certify::<F16>(64, RatingAccess::Streamed, None).digest,
        0xd3b2_5112_7b93_6c58
    );

    // Standard FNV-1a 64-bit test vectors, then the u64 steps.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    let got: Vec<(u64, u64)> = U64_VECTORS
        .iter()
        .map(|&(v, _)| (v, fnv1a64(&v.to_le_bytes())))
        .collect();
    assert_eq!(got, U64_VECTORS);
}

/// The streaming digest's steps reproduce the byte-level reference: each
/// `u64` step (whose high zero bytes fold into one multiply) matches the
/// pinned vectors, and `str`/`bytes` steps chain like concatenation — the
/// `solver-hogwild` chain is the staleness certificate's own digest.
#[test]
fn streaming_fnv1a_matches_reference_vectors() {
    use cumf_sgd::core::digest::{fnv1a64, Fnv1a};

    for (v, digest) in U64_VECTORS {
        assert_eq!(Fnv1a::new().u64(v).finish(), digest, "{v:#x}");
    }
    assert_eq!(Fnv1a::new().finish(), fnv1a64(b""));
    assert_eq!(
        Fnv1a::new().bytes(b"foo").str("bar").finish(),
        0x8594_4171_f739_67e8
    );
    let stale = Fnv1a::new()
        .str("solver-hogwild")
        .u64(3)
        .u64(2)
        .u64(u64::from(0.08f32.to_bits()))
        .u64(1000)
        .finish();
    assert_eq!(stale, 0x5fd8_c785_1e64_07ca);
}
