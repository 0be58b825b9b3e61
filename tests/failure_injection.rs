//! Failure injection: every documented error path across the workspace
//! fires (and fires with the documented message), so misuse is loud.

use cumf_sgd::core::engine::{save_checkpoint, ResumeState};
use cumf_sgd::core::multi_gpu::{train_partitioned, MultiGpuConfig};
use cumf_sgd::core::solver::{train, train_resumable, CheckpointSpec, Scheme, SolverConfig};
use cumf_sgd::core::{
    EngineModel, FaultPlan, Schedule, SupervisorConfig, Trace, TrainError, TrainSupervisor,
};
use cumf_sgd::data::io::{read_binary, read_text, write_binary_file, DataError};
use cumf_sgd::data::synth::{generate, SynthConfig};
use cumf_sgd::data::CooMatrix;
use cumf_sgd::gpu_sim::{PCIE3_X16, TITAN_X_MAXWELL};
use cumf_sgd::rng::{ChaCha8Rng, SeedableRng};
use std::io::Cursor;

fn catch<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> Option<String> {
    match std::panic::catch_unwind(f) {
        Ok(_) => None,
        Err(e) => Some(
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        ),
    }
}

fn small() -> cumf_sgd::data::synth::SynthDataset {
    generate(&SynthConfig {
        m: 60,
        n: 50,
        k_true: 3,
        train_samples: 1_000,
        test_samples: 100,
        ..SynthConfig::default()
    })
}

#[test]
fn solver_misconfigurations_panic_with_clear_messages() {
    let d = small();
    // k = 0.
    let mut cfg = SolverConfig::new(0, Scheme::Serial);
    cfg.epochs = 1;
    let msg = catch(|| train::<f32>(&d.train, &d.test, &cfg, None)).expect("must panic");
    assert!(msg.contains("k must be positive"), "{msg}");

    // Empty training set.
    let cfg = SolverConfig::new(4, Scheme::Serial);
    let empty = CooMatrix::new(3, 3);
    let msg = catch(|| train::<f32>(&empty, &d.test, &cfg, None)).expect("must panic");
    assert!(msg.contains("training set is empty"), "{msg}");

    // Wavefront with too few columns for deadlock freedom.
    let mut cfg = SolverConfig::new(
        4,
        Scheme::Wavefront {
            workers: 8,
            cols: 8,
        },
    );
    cfg.epochs = 1;
    let msg = catch(|| train::<f32>(&d.train, &d.test, &cfg, None)).expect("must panic");
    assert!(msg.contains("deadlock freedom"), "{msg}");

    // LIBMF grid larger than the matrix.
    let mut cfg = SolverConfig::new(4, Scheme::LibmfTable { workers: 2, a: 500 });
    cfg.epochs = 1;
    let msg = catch(|| train::<f32>(&d.train, &d.test, &cfg, None)).expect("must panic");
    assert!(msg.contains("exceeds matrix"), "{msg}");
}

#[test]
fn partitioned_misconfigurations_panic() {
    let d = small();
    // Grid rule enforcement for multi-GPU.
    let mut cfg = MultiGpuConfig::new(4, 2, 2, 2);
    cfg.enforce_grid_rule = true;
    cfg.epochs = 1;
    let msg =
        catch(|| train_partitioned::<f32>(&d.train, &d.test, &cfg, &TITAN_X_MAXWELL, &PCIE3_X16))
            .expect("must panic");
    assert!(msg.contains("too small for"), "{msg}");

    // Grid larger than the matrix.
    let cfg = MultiGpuConfig::new(4, 100, 100, 1);
    let msg =
        catch(|| train_partitioned::<f32>(&d.train, &d.test, &cfg, &TITAN_X_MAXWELL, &PCIE3_X16))
            .expect("must panic");
    assert!(msg.contains("exceeds matrix"), "{msg}");
}

fn supervisor() -> TrainSupervisor {
    TrainSupervisor::new(SupervisorConfig::default(), FaultPlan::default())
}

/// The misconfigurations above and more, through the typed entry point:
/// each comes back from `train_resumable` as `TrainError::InvalidConfig`
/// carrying exactly the message `train` panics with.
#[test]
fn train_resumable_returns_typed_errors_where_train_panics() {
    let d = small();
    let empty = CooMatrix::new(3, 3);
    let typed = |data: &CooMatrix, cfg: &SolverConfig| -> String {
        let m = match train_resumable::<f32>(data, &d.test, cfg, None, None) {
            Err(TrainError::InvalidConfig(m)) => m,
            Err(other) => panic!("expected InvalidConfig, got {other}"),
            Ok(_) => panic!("misconfiguration must not train"),
        };
        let panicked = catch(|| train::<f32>(data, &d.test, cfg, None)).expect("must panic");
        assert_eq!(m, panicked, "typed and panicking messages differ");
        m
    };
    let config = |k, scheme| SolverConfig {
        epochs: 1,
        ..SolverConfig::new(k, scheme)
    };

    let cases = [
        (&d.train, config(0, Scheme::Serial), "k must be positive"),
        (&empty, config(4, Scheme::Serial), "training set is empty"),
        (
            &d.train,
            config(
                4,
                Scheme::Wavefront {
                    workers: 8,
                    cols: 8,
                },
            ),
            "deadlock freedom",
        ),
        (
            &d.train,
            config(4, Scheme::LibmfTable { workers: 2, a: 500 }),
            "exceeds matrix",
        ),
        (
            &d.train,
            config(
                4,
                Scheme::BatchHogwild {
                    workers: 4,
                    batch: 0,
                },
            ),
            "batch size must be positive",
        ),
        (
            &d.train,
            config(4, Scheme::Hogwild { workers: 0 }),
            "need at least one worker",
        ),
    ];
    for (data, cfg, needle) in &cases {
        let m = typed(data, cfg);
        assert!(m.contains(needle), "{m}");
    }
}

#[test]
fn supervisor_returns_typed_errors_where_partitioned_panics() {
    let d = small();
    let sup = supervisor();

    // The supervisor's InvalidConfig message, asserted equal to the one
    // `train_partitioned` panics with.
    let typed = |cfg: &MultiGpuConfig| -> String {
        let m = match sup.train_partitioned::<f32>(
            &d.train,
            &d.test,
            cfg,
            &TITAN_X_MAXWELL,
            &PCIE3_X16,
        ) {
            Err(TrainError::InvalidConfig(m)) => m,
            Err(other) => panic!("expected InvalidConfig, got {other}"),
            Ok(_) => panic!("misconfiguration must not train"),
        };
        let panicked = catch(|| {
            train_partitioned::<f32>(&d.train, &d.test, cfg, &TITAN_X_MAXWELL, &PCIE3_X16)
        })
        .expect("must panic");
        assert_eq!(m, panicked, "typed and panicking messages differ");
        m
    };

    let mut cfg = MultiGpuConfig::new(4, 2, 2, 2);
    cfg.enforce_grid_rule = true;
    cfg.epochs = 1;
    let m = typed(&cfg);
    assert!(m.contains("too small for"), "{m}");

    let cfg = MultiGpuConfig::new(4, 100, 100, 1);
    assert!(typed(&cfg).contains("exceeds matrix"));

    let mut cfg = MultiGpuConfig::new(4, 4, 4, 1);
    cfg.workers_per_gpu = 0;
    assert!(typed(&cfg).contains("need at least one worker"));

    let mut cfg = MultiGpuConfig::new(4, 4, 4, 1);
    cfg.batch = 0;
    assert!(typed(&cfg).contains("batch size must be positive"));

    let cfg = MultiGpuConfig::new(4, 4, 4, 0);
    assert!(typed(&cfg).contains("need at least one GPU"));
}

/// A corrupt `--resume` file through the typed entry point is a
/// `TrainError::Checkpoint` naming the problem, never a panic and never a
/// silent fresh start. So is a well-formed checkpoint of the biased model,
/// which the bias-free solver cannot resume.
#[test]
fn train_resumable_surfaces_corrupt_resume_checkpoint() {
    let d = small();
    let dir = std::env::temp_dir().join("cumf_failure_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let corrupt = dir.join("corrupt_resume.cmfk");
    std::fs::write(&corrupt, b"CMFKgarbage-that-is-not-a-checkpoint").unwrap();
    let biased = dir.join("biased_resume.cmfk");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let model = EngineModel::<f32>::init_biased(&d.train, 4, &mut rng);
    let state = ResumeState {
        next_epoch: 1,
        updates: 0,
        sim_seconds: 0.0,
        trace: Trace::default(),
        lr: None,
    };
    save_checkpoint(&biased, &model, &state).unwrap();
    let mut cfg = SolverConfig::new(4, Scheme::Serial);
    cfg.epochs = 2;
    for (path, needle) in [(&corrupt, "format error"), (&biased, "bias terms")] {
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 1,
            resume: true,
        };
        let err = train_resumable::<f32>(&d.train, &d.test, &cfg, None, Some(&spec))
            .map(|_| ())
            .unwrap_err();
        match &err {
            TrainError::Checkpoint(_) => {
                use std::error::Error;
                assert!(err.source().is_some(), "checkpoint errors carry a source");
                assert!(err.to_string().contains(needle), "{err}");
            }
            other => panic!("expected Checkpoint error, got {other}"),
        }
        let _ = std::fs::remove_file(path);
    }
}

/// Bad training and data-generation flags make `cumf` print the rule it
/// broke and exit 1, never panic.
#[test]
fn cli_rejects_bad_training_flags_with_typed_errors() {
    let d = small();
    let dir = std::env::temp_dir().join("cumf_failure_injection_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let train_bin = dir.join("train.bin");
    write_binary_file(&train_bin, &d.train).unwrap();
    let data = train_bin.to_str().unwrap();
    let cases: [(&[&str], &str); 10] = [
        (&["train", "--data", data, "--k", "0"], "k must be positive"),
        (
            &[
                "train",
                "--data",
                data,
                "--scheme",
                "batch-hogwild",
                "--batch",
                "0",
            ],
            "batch size must be positive",
        ),
        (
            &["train", "--data", data, "--scheme", "libmf", "--grid", "0"],
            "grid must be at least 1x1",
        ),
        (
            &[
                "train",
                "--data",
                data,
                "--scheme",
                "wavefront",
                "--workers",
                "100000",
            ],
            "exceeds matrix",
        ),
        (&["profile", "--workers", "0"], "need at least one worker"),
        (&["generate", "--scale", "0"], "scale must be in (0, 1]"),
        (&["generate", "--k", "0"], "k must be positive"),
        (&["profile", "--k", "0"], "k must be positive"),
        (
            &["evaluate", "--model", "missing.cmfm", "--data", data],
            "loading model missing.cmfm",
        ),
        (
            &["predict", "--model", "missing.cmfm", "--f16"],
            "loading model missing.cmfm",
        ),
    ];
    for (args, rule) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cumf"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("cumf binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains(rule), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_loading_rejects_corruption_gracefully() {
    // Text: each malformed shape is an Err, never a panic.
    for (input, needle) in [
        ("1 2\n", "missing rating"),
        ("x 2 3\n", "bad row index"),
        ("1 2 3 4\n", "trailing"),
        ("1 2 nan\n", "finite"),
    ] {
        let err = read_text(Cursor::new(input), 0, 0).unwrap_err();
        assert!(err.to_string().contains(needle), "input {input:?}: {err}");
    }
    // Binary: truncation at every prefix of a valid file must produce an
    // error (IO or parse), never a panic or a silent success.
    let mut coo = CooMatrix::new(4, 4);
    coo.push(0, 1, 1.5);
    coo.push(3, 2, -0.5);
    let mut buf = Vec::new();
    cumf_sgd::data::io::write_binary(&mut buf, &coo).unwrap();
    for cut in 0..buf.len() {
        let result = read_binary(Cursor::new(buf[..cut].to_vec()));
        assert!(
            result.is_err(),
            "truncation at {cut}/{} must fail",
            buf.len()
        );
        // And the error formats without panicking.
        let _ = result.unwrap_err().to_string();
    }
}

#[test]
fn data_error_source_chain() {
    let err = read_binary(Cursor::new(Vec::new())).unwrap_err();
    match &err {
        DataError::Io(_) => {
            use std::error::Error;
            assert!(err.source().is_some(), "io errors carry a source");
        }
        other => panic!("empty file should be an io error, got {other}"),
    }
}

#[test]
fn divergence_is_flagged_not_hidden() {
    // A learning rate far past stability must be reported as divergence,
    // with the trace retained up to the blow-up.
    let d = generate(&SynthConfig {
        m: 40,
        n: 30,
        k_true: 3,
        train_samples: 3_000,
        test_samples: 300,
        rating_offset: 0.0,
        ..SynthConfig::default()
    });
    let cfg = SolverConfig {
        k: 4,
        lambda: 0.0,
        schedule: Schedule::Fixed(5.0), // wildly unstable
        epochs: 10,
        scheme: Scheme::Serial,
        seed: 0,
        mode: None,
        divergence_ceiling: 1e3,
    };
    let r = train::<f32>(&d.train, &d.test, &cfg, None);
    assert!(r.diverged, "gamma=5 must diverge");
    assert!(!r.trace.points.is_empty(), "trace retained");
    assert!(r.trace.points.len() < 10, "stopped early");
}

#[test]
fn model_io_errors_are_typed() {
    use cumf_sgd::core::model_io::{load_model, ModelIoError};
    let err = load_model::<f32, _>(Cursor::new(b"JUNKJUNKJUNK".to_vec())).unwrap_err();
    assert!(matches!(err, ModelIoError::Format(_)), "{err}");
}
