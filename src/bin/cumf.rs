//! `cumf` — the command-line front end of the cuMF_SGD reproduction.
//!
//! ```text
//! cumf generate --preset netflix --scale 0.01 --out train.bin --test-out test.bin
//! cumf train    --data train.bin --test test.bin --k 16 --epochs 20 \
//!               --scheme batch-hogwild --workers 16 --save model.cmfm [--f16]
//! cumf evaluate --model model.cmfm --data test.bin
//! cumf predict  --model model.cmfm --user 3 --item 17
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency); every flag has a
//! default so `cumf generate` / `cumf train` work out of the box.

use std::collections::HashMap;
use std::process::ExitCode;

use cumf_sgd::core::model_io::{load_model_file, save_model_file, Model};
use cumf_sgd::core::solver::{train_resumable, CheckpointSpec, Scheme, SolverConfig};
use cumf_sgd::core::{rmse, Schedule, F16};
use cumf_sgd::data::io::{read_binary_file, read_text_file, write_binary_file};
use cumf_sgd::data::{CooMatrix, DatasetSpec, HUGEWIKI, NETFLIX, YAHOO_MUSIC};
use cumf_sgd::gpu_sim::{
    simulate_throughput, CpuCacheModel, SchedulerModel, SgdUpdateCost, ThroughputConfig,
    TITAN_X_MAXWELL, XEON_E5_2670X2,
};
use cumf_sgd::obs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `bench` parses its own arguments: `--check` takes a variable
    // number of paths (shell globs like bench_results/BENCH_*.json).
    if cmd == "bench" {
        return match cmd_bench(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "predict" => cmd_predict(&flags),
        "profile" => cmd_profile(&flags),
        "analyze" => cmd_analyze(&flags),
        "chaos" => cmd_chaos(&flags),
        "serve" => cmd_serve(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cumf — parallelized SGD matrix factorization (cuMF_SGD reproduction)

USAGE:
  cumf generate [--preset netflix|yahoo|hugewiki] [--scale 0.01] [--k 16]
                [--seed 42] [--out train.bin] [--test-out test.bin]
  cumf train    [--data train.bin] [--test test.bin] [--k 16] [--epochs 20]
                [--lambda 0.02] [--alpha 0.1] [--beta 0.1]
                [--scheme serial|hogwild|batch-hogwild|wavefront|libmf]
                [--workers 16] [--batch 256] [--f16] [--save model.cmfm]
                [--trace out.json] [--metrics out.prom]
                [--checkpoint run.cmfk] [--checkpoint-every 1] [--resume]
  cumf evaluate [--model model.cmfm] [--data test.bin] [--f16]
  cumf predict  [--model model.cmfm] [--user U] [--item V] [--f16]
  cumf profile  [--preset netflix|yahoo|hugewiki] [--scale 0.002] [--k 16]
                [--epochs 5] [--scheme batch-hogwild] [--workers 8]
                [--trace profile_trace.json] [--metrics profile_metrics.prom]
                [--folded profile_folded.txt]
  cumf profile  --des [--folded profile_folded.txt]
                [--metrics profile_metrics.prom]
  cumf bench    [--quick] [--trials N] [--suite des|train|serve]...
                [--no-save] [--check BENCH_a.json [BENCH_b.json ...]]
  cumf analyze  [--all] [--prover] [--model-check] [--deadlock]
                [--staleness] [--cost] [--coalesce] [--precision] [--lint]
                [--sanitize] [--seed 42] [--explain CUMF-LINT-001]
  cumf chaos    [--quick] [--seed 42] [--tolerance 0.02] [--metrics out.prom]
                [--serve]
  cumf serve    [--model model.cmfm] [--requests 2000] [--zipf-s 1.1]
                [--deadline-ms 50] [--shards 4x2] [--seed 42]
                [--inject none|shard-loss|shard-stall] [--no-admission]

Data files may be .bin (compact binary) or text (`u v r` per line).
--trace writes Chrome trace_event JSON (open in Perfetto or
chrome://tracing); --metrics writes Prometheus text exposition. Either
flag also runs the calibrated GPU machine model after training so the
trace spans all three layers (solver, gpu-sim, DES).

--checkpoint saves a resumable snapshot every --checkpoint-every epochs;
add --resume to continue an interrupted run from that snapshot (the
deterministic schedulers make the result identical to an uninterrupted
run).

`analyze` runs the offline analyzers (exit code 1 on any failure): the
schedule conflict prover (wavefront / LIBMF certified conflict-free,
batch-Hogwild! refuted with a witness), the interleaving model checker
(torn atomic cells, work claiming), --deadlock, the
static deadlock & liveness certifier (lock-order graphs of every
shipped blocking protocol proven acyclic with replayable cycle
witnesses for the broken twins, waiter grants bounded under the FIFO
contract, watchdog timeouts checked against the certified wait
chains), --staleness, the static staleness & asynchrony certifier
(every lock-free update path lifted into an asynchrony IR, its
worst-case per-row staleness bound τ derived and exhaustively validated
by the interleaving checker, the lr·τ safety condition certified, and
three broken twins — unsynchronised shared rows, removed epoch barrier,
overlapping grid blocks — refuted with replayable witnesses), the kernel-IR
static passes — --cost certifies Eq. 5's bytes/flops-per-update against
both the analytical model and the DES executor's charged bytes (and
refutes a deliberately broken twin), --coalesce derives per-warp cache-
line footprints (cuMF coalesced, BIDMach column-major flagged),
--precision proves or refutes binary16 overflow-safety with interval +
relative-error domains — plus --lint, the source determinism lint (no
wall clocks / hash-ordered containers in deterministic crates), and —
when built with `--features sanitize` — the Eraser-style lockset race
sanitizer over the lock-free threaded Hogwild! executor. No section
flag means --all.
--explain <id> prints the long-form documentation of a lint rule id
(CUMF-LINT-001…) and exits.

`profile` prints a sampling-free self/cumulative attribution table
built from the recorded spans (and --folded writes flamegraph
collapsed stacks). `profile --des` profiles the DES engine itself:
per-event-type dequeue counts, schedule->fire dwell-time quantiles,
queue occupancy, and the span attribution table.

`bench` runs the registered performance suites (des, train, serve) for N
trials (default 5, --quick 3), prints median + MAD per metric, and
writes schema-versioned bench_results/BENCH_<suite>.json (set
CUMF_BENCH_DIR to redirect). --check compares the fresh run against
committed baseline JSONs and exits non-zero on any regression beyond
a MAD-aware threshold; sim-domain metrics are bit-deterministic and
get a tight gate, wall-clock metrics a generous one.

`chaos` runs the deterministic fault-injection matrix (device loss, SM
throttling, transfer corruption/stalls, NaN storms, LR spikes) through
the self-healing training supervisor and checks the recovery contract:
same seed => identical recovery event log, recovered runs within
--tolerance of the fault-free RMSE, unrecoverable faults surfacing as
typed errors. Exit code 1 on any scenario failure. --quick is the CI
profile; --metrics exports the cumf_faults_* counters. The default run
appends the serving scenarios (shard loss/stall, overload shedding,
hedging) after the training matrix; --serve runs only those.

`serve` drives the closed-loop top-N recommendation service (Zipf
users, sharded factors, per-request deadlines, hedged reads, admission
control, circuit breakers) on sim time and prints the p50/p99/p999 +
QPS + shed/degraded summary. Without --model it serves a built-in
synthetic model; --model loads a trained .cmfm. All latencies are
simulated and bit-deterministic for a given seed. --inject adds a
shard fault; --no-admission disables the admission controller and
deadline finalization to demonstrate the unprotected tail.";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{arg}`"));
        };
        // Boolean flags take no value.
        if matches!(
            name,
            "f16"
                | "resume"
                | "all"
                | "prover"
                | "model-check"
                | "deadlock"
                | "staleness"
                | "cost"
                | "coalesce"
                | "precision"
                | "lint"
                | "sanitize"
                | "quick"
                | "des"
                | "serve"
                | "no-admission"
        ) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<'a>(flags: &'a Flags, name: &str, default: &'a str) -> &'a str {
    flags.get(name).map(String::as_str).unwrap_or(default)
}

fn get_parse<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| format!("bad value for --{name}: {e}")),
    }
}

fn load_data(path: &str) -> Result<CooMatrix, String> {
    let loader = if path.ends_with(".bin") {
        read_binary_file(path)
    } else {
        read_text_file(path)
    };
    loader.map_err(|e| format!("loading {path}: {e}"))
}

fn load_model<E: cumf_sgd::core::Element>(path: &str) -> Result<Model<E>, String> {
    load_model_file(path).map_err(|e| format!("loading model {path}: {e}"))
}

fn parse_preset(flags: &Flags) -> Result<&'static DatasetSpec, String> {
    match get(flags, "preset", "netflix") {
        "netflix" => Ok(&NETFLIX),
        "yahoo" => Ok(&YAHOO_MUSIC),
        "hugewiki" => Ok(&HUGEWIKI),
        other => Err(format!("unknown preset `{other}`")),
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let preset = parse_preset(flags)?;
    let scale: f64 = get_parse(flags, "scale", 0.01)?;
    DatasetSpec::check_scale(scale)?;
    let k: u32 = get_parse(flags, "k", 16)?;
    DatasetSpec::check_k(k)?;
    let seed: u64 = get_parse(flags, "seed", 42)?;
    let out = get(flags, "out", "train.bin");
    let test_out = get(flags, "test-out", "test.bin");
    let d = preset.scaled(scale, k, seed);
    write_binary_file(out, &d.train).map_err(|e| e.to_string())?;
    write_binary_file(test_out, &d.test).map_err(|e| e.to_string())?;
    println!(
        "generated {}-shaped data: {}x{}, {} train -> {out}, {} test -> {test_out} \
         (noise floor RMSE {:.3})",
        preset.name,
        d.train.rows(),
        d.train.cols(),
        d.train.nnz(),
        d.test.nnz(),
        d.rmse_floor
    );
    Ok(())
}

fn parse_scheme(flags: &Flags) -> Result<Scheme, String> {
    let workers: u32 = get_parse(flags, "workers", 16)?;
    let batch: u32 = get_parse(flags, "batch", 256)?;
    Ok(match get(flags, "scheme", "batch-hogwild") {
        "serial" => Scheme::Serial,
        "hogwild" => Scheme::Hogwild { workers },
        "batch-hogwild" => Scheme::BatchHogwild { workers, batch },
        "wavefront" => Scheme::Wavefront {
            workers,
            cols: workers.saturating_mul(4),
        },
        "libmf" => Scheme::LibmfTable {
            workers,
            a: get_parse(flags, "grid", 32)?,
        },
        other => return Err(format!("unknown scheme `{other}`")),
    })
}

/// The solver configuration the training flags describe, running
/// `default_epochs` epochs unless `--epochs` says otherwise.
fn parse_solver_config(flags: &Flags, default_epochs: u32) -> Result<SolverConfig, String> {
    Ok(SolverConfig {
        k: get_parse(flags, "k", 16)?,
        lambda: get_parse(flags, "lambda", 0.02)?,
        schedule: Schedule::NomadDecay {
            alpha: get_parse(flags, "alpha", 0.1)?,
            beta: get_parse(flags, "beta", 0.1)?,
        },
        epochs: get_parse(flags, "epochs", default_epochs)?,
        scheme: parse_scheme(flags)?,
        seed: get_parse(flags, "seed", 42)?,
        mode: None,
        divergence_ceiling: 1e3,
    })
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let train_data = load_data(get(flags, "data", "train.bin"))?;
    let test_path = get(flags, "test", "test.bin");
    let test_data = if std::path::Path::new(test_path).exists() {
        load_data(test_path)?
    } else {
        CooMatrix::new(train_data.rows(), train_data.cols())
    };
    let config = parse_solver_config(flags, 20)?;
    let save = get(flags, "save", "model.cmfm");
    let checkpoint = match flags.get("checkpoint") {
        Some(path) => Some(CheckpointSpec {
            path: std::path::PathBuf::from(path),
            every: get_parse(flags, "checkpoint-every", 1)?,
            resume: flags.contains_key("resume"),
        }),
        None if flags.contains_key("resume") => {
            return Err("--resume requires --checkpoint <path>".into());
        }
        None => None,
    };
    let trace_out = flags.get("trace").cloned();
    let metrics_out = flags.get("metrics").cloned();
    let observing = trace_out.is_some() || metrics_out.is_some();
    if observing {
        obs::set_enabled(true);
    }
    println!(
        "training: {}x{}, {} samples, k={}, scheme={}, {} epochs",
        train_data.rows(),
        train_data.cols(),
        train_data.nnz(),
        config.k,
        config.scheme.name(),
        config.epochs
    );
    let outcome = if flags.contains_key("f16") {
        let result =
            train_resumable::<F16>(&train_data, &test_data, &config, None, checkpoint.as_ref())
                .map_err(|e| e.to_string())?;
        report_and_save(result.trace.final_rmse(), result.diverged, save, || {
            save_model_file(save, &Model::new(result.p.clone(), result.q.clone()))
                .map_err(|e| e.to_string())
        })
    } else {
        let result =
            train_resumable::<f32>(&train_data, &test_data, &config, None, checkpoint.as_ref())
                .map_err(|e| e.to_string())?;
        report_and_save(result.trace.final_rmse(), result.diverged, save, || {
            save_model_file(save, &Model::new(result.p.clone(), result.q.clone()))
                .map_err(|e| e.to_string())
        })
    };
    if observing {
        run_machine_model(
            config.scheme,
            config.k,
            train_data.rows() as u64,
            train_data.cols() as u64,
            train_data.nnz() as u64,
        );
        write_observability(trace_out.as_deref(), metrics_out.as_deref())?;
    }
    outcome
}

/// Runs the calibrated GPU machine model (and the CPU cache model) for the
/// scheme that was just trained, so traces and metrics cover the gpu-sim
/// and DES layers as well as the solver.
fn run_machine_model(scheme: Scheme, k: u32, m: u64, n: u64, total_updates: u64) {
    let gpu = &TITAN_X_MAXWELL;
    let (workers, model) = match scheme {
        Scheme::Serial => (
            1,
            SchedulerModel::BatchHogwild {
                batch: 256,
                per_batch_overhead_s: 50e-9,
            },
        ),
        Scheme::Hogwild { workers } => (
            workers,
            SchedulerModel::BatchHogwild {
                batch: 1,
                per_batch_overhead_s: 50e-9,
            },
        ),
        Scheme::BatchHogwild { workers, batch } => (
            workers,
            SchedulerModel::BatchHogwild {
                batch,
                per_batch_overhead_s: 50e-9,
            },
        ),
        Scheme::Wavefront { workers, cols } => (
            workers,
            SchedulerModel::Wavefront {
                grid_cols: cols,
                per_block_overhead_s: 100e-9,
                imbalance: 0.1,
            },
        ),
        Scheme::LibmfTable { workers, a } => (
            workers,
            SchedulerModel::RowColScan {
                a,
                per_entry_s: 0.6e-6,
            },
        ),
    };
    let workers = workers.max(1);
    let _span = obs::span("cli", "machine-model");
    let result = simulate_throughput(&ThroughputConfig {
        workers,
        total_bandwidth: gpu.effective_bw(workers),
        cost: SgdUpdateCost::cumf(k),
        scheduler: model,
        total_updates: total_updates.max(1),
    });
    // The paper's baseline for comparison (Fig 5b): LIBMF's global-table
    // scheduling. Its critical-section server also exercises the DES
    // resource layer, so traces always carry `des` service spans.
    let baseline = simulate_throughput(&ThroughputConfig {
        workers,
        total_bandwidth: gpu.effective_bw(workers),
        cost: SgdUpdateCost::cumf(k),
        scheduler: SchedulerModel::RowColScan {
            a: 100,
            per_entry_s: 0.6e-6,
        },
        total_updates: total_updates.max(1),
    });
    // One CPU cache-model query populates the cache-amplification metrics.
    let cache = CpuCacheModel::calibrated(XEON_E5_2670X2);
    let cpu_bw = cache.libmf_effective_bw(m.max(1), n.max(1), 100, k);
    println!(
        "machine model ({}, {} workers): {:.3e} updates/s, {:.1} GB/s achieved \
         ({:.3e} with LIBMF-GPU scheduling; CPU cache model: {:.1} GB/s effective)",
        gpu.name,
        workers,
        result.updates_per_sec,
        result.achieved_bw / 1e9,
        baseline.updates_per_sec,
        cpu_bw / 1e9,
    );
}

/// Writes the requested trace/metrics exports from the global collectors.
fn write_observability(trace: Option<&str>, metrics: Option<&str>) -> Result<(), String> {
    if let Some(path) = trace {
        std::fs::write(path, obs::chrome_trace()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace written to {path} (open in Perfetto / chrome://tracing)");
    }
    if let Some(path) = metrics {
        std::fs::write(path, obs::prometheus()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// `cumf profile --des`: profiles the DES engine itself. Runs the
/// registered DES benchmark workloads once with full instrumentation
/// and prints the self/cumulative attribution table plus the hot-path
/// probe metrics (per-event-type dequeue counts, dwell-time quantiles,
/// queue occupancy) — the breakdown ROADMAP item 5 optimizes against.
fn cmd_profile_des(flags: &Flags) -> Result<(), String> {
    use cumf_sgd::bench::suite;
    let folded_path = get(flags, "folded", "profile_folded.txt");
    let metrics_path = get(flags, "metrics", "profile_metrics.prom");
    obs::set_enabled(true);
    obs::reset();
    println!("profiling the DES engine (registered `des` bench workloads, 1 trial)");
    let report = suite::run_suite("des", 1, true).expect("des suite is registered");
    for m in &report.metrics {
        println!(
            "  {:<28} {:>14.4e} {} [{}]",
            m.id,
            m.median,
            m.unit,
            m.domain.as_str()
        );
    }
    println!("\n{}", obs::profile_table());
    println!("{}", obs::summary());
    std::fs::write(folded_path, obs::collapsed_stacks())
        .map_err(|e| format!("writing {folded_path}: {e}"))?;
    println!("collapsed stacks written to {folded_path} (flamegraph.pl / speedscope)");
    std::fs::write(metrics_path, obs::prometheus())
        .map_err(|e| format!("writing {metrics_path}: {e}"))?;
    println!("metrics written to {metrics_path}");
    Ok(())
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    if flags.contains_key("des") {
        return cmd_profile_des(flags);
    }
    let preset = parse_preset(flags)?;
    let scale: f64 = get_parse(flags, "scale", 0.002)?;
    DatasetSpec::check_scale(scale)?;
    let trace_path = get(flags, "trace", "profile_trace.json");
    let metrics_path = get(flags, "metrics", "profile_metrics.prom");
    let mut profile_flags = flags.clone();
    profile_flags
        .entry("workers".to_string())
        .or_insert_with(|| "8".to_string());
    let config = parse_solver_config(&profile_flags, 5)?;
    let (k, seed) = (config.k, config.seed);
    DatasetSpec::check_k(k)?;
    obs::set_enabled(true);
    let d = preset.scaled(scale, k, seed);
    println!(
        "profiling {}-shaped run: {}x{}, {} samples, k={}, scheme={}, {} epochs",
        preset.name,
        d.train.rows(),
        d.train.cols(),
        d.train.nnz(),
        k,
        config.scheme.name(),
        config.epochs
    );
    let result = train_resumable::<f32>(&d.train, &d.test, &config, None, None)
        .map_err(|e| e.to_string())?;
    run_machine_model(
        config.scheme,
        k,
        d.train.rows() as u64,
        d.train.cols() as u64,
        d.train.nnz() as u64,
    );
    write_observability(Some(trace_path), Some(metrics_path))?;
    if let Some(folded_path) = flags.get("folded") {
        std::fs::write(folded_path, obs::collapsed_stacks())
            .map_err(|e| format!("writing {folded_path}: {e}"))?;
        println!("collapsed stacks written to {folded_path}");
    }
    println!("\n{}", obs::profile_table());
    println!("{}", obs::summary());
    if result.diverged {
        return Err("profiled run diverged (try a lower --alpha)".into());
    }
    Ok(())
}

/// `cumf bench`: runs the registered suites, writes `BENCH_*.json`,
/// and optionally checks the fresh results against baselines.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    use cumf_sgd::bench::{check_against, json, suite};

    let mut quick = false;
    let mut trials: Option<usize> = None;
    let mut suites: Vec<String> = Vec::new();
    let mut baselines: Vec<String> = Vec::new();
    let mut no_save = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--no-save" => {
                no_save = true;
                i += 1;
            }
            "--trials" => {
                let v = args.get(i + 1).ok_or("--trials needs a value")?;
                trials = Some(v.parse().map_err(|e| format!("bad --trials: {e}"))?);
                i += 2;
            }
            "--suite" => {
                let v = args.get(i + 1).ok_or("--suite needs a value")?;
                suites.push(v.clone());
                i += 2;
            }
            "--check" => {
                i += 1;
                let start = i;
                while i < args.len() && !args[i].starts_with("--") {
                    baselines.push(args[i].clone());
                    i += 1;
                }
                if i == start {
                    return Err("--check needs at least one baseline path".into());
                }
            }
            other => return Err(format!("unknown bench argument `{other}`")),
        }
    }
    let trials = trials.unwrap_or(if quick { 3 } else { 5 });
    if suites.is_empty() {
        suites = suite::suite_names().iter().map(|s| s.to_string()).collect();
    }

    // Load baselines *before* running: saving fresh results may
    // overwrite the very files `--check` points at.
    let mut loaded: Vec<(String, json::Json)> = Vec::new();
    for path in &baselines {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        loaded.push((path.clone(), doc));
    }

    obs::set_enabled(true);
    let mut reports = Vec::new();
    for name in &suites {
        obs::reset();
        println!(
            "bench [{name}]: {trials} trial(s){}",
            if quick { ", quick workloads" } else { "" }
        );
        let report = suite::run_suite(name, trials, quick)
            .ok_or_else(|| format!("unknown suite `{name}` (have: des, train, serve)"))?;
        for m in &report.metrics {
            println!(
                "  {:<32} median {:>12.4e} {} (mad {:.2e}) [{}]",
                m.id,
                m.median,
                m.unit,
                m.mad,
                m.domain.as_str()
            );
        }
        println!("  sim_digest {}", report.sim_digest());
        if !no_save {
            let path = report
                .save()
                .map_err(|e| format!("writing BENCH json: {e}"))?;
            println!("  [saved {}]", path.display());
        }
        reports.push(report);
    }

    let mut failures = 0usize;
    for (path, doc) in &loaded {
        let suite_name = doc
            .get("suite")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("{path}: no suite field"))?;
        let Some(report) = reports.iter().find(|r| r.suite == suite_name) else {
            println!("check [{suite_name}]: skipped ({path} — suite not run)");
            continue;
        };
        let outcome = check_against(report, doc).map_err(|e| format!("{path}: {e}"))?;
        print!("{}", outcome.render());
        if !outcome.passed() {
            failures += outcome.regressions();
        }
    }
    if failures > 0 {
        return Err(format!("bench check failed: {failures} regression(s)"));
    }
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    use cumf_sgd::analyze;
    let seed: u64 = get_parse(flags, "seed", 42)?;
    if let Some(id) = flags.get("explain") {
        return match analyze::lint::explain(id) {
            Some(text) => {
                println!("{id}: {text}");
                Ok(())
            }
            None => Err(format!(
                "unknown rule id `{id}` (known: {})",
                analyze::lint::rule_ids().collect::<Vec<_>>().join(", ")
            )),
        };
    }
    let explicit = [
        "prover",
        "model-check",
        "deadlock",
        "staleness",
        "cost",
        "coalesce",
        "precision",
        "lint",
        "sanitize",
    ]
    .iter()
    .any(|s| flags.contains_key(*s));
    let all = flags.contains_key("all") || !explicit;
    let mut sections = Vec::new();
    if all || flags.contains_key("prover") {
        sections.push(analyze::prover_section(seed));
    }
    if all || flags.contains_key("model-check") {
        sections.push(analyze::model_check_section());
    }
    if all || flags.contains_key("deadlock") {
        sections.push(analyze::deadlock_section());
    }
    if all || flags.contains_key("staleness") {
        sections.push(analyze::staleness_section());
    }
    if all || flags.contains_key("cost") {
        sections.push(analyze::cost_section());
    }
    if all || flags.contains_key("coalesce") {
        sections.push(analyze::coalesce_section());
    }
    if all || flags.contains_key("precision") {
        sections.push(analyze::precision_section());
    }
    if all || flags.contains_key("lint") {
        let section = analyze::lint_section();
        if !section.ran && flags.contains_key("lint") {
            return Err("lint skipped: workspace sources not found on disk".into());
        }
        sections.push(section);
    }
    if all || flags.contains_key("sanitize") {
        let section = analyze::sanitize_section(seed);
        if !section.ran && flags.contains_key("sanitize") {
            return Err("the sanitizer is compiled out; rebuild with `--features sanitize`".into());
        }
        sections.push(section);
    }
    let report = analyze::AnalysisReport { sections };
    println!("{report}");
    if report.pass() {
        Ok(())
    } else {
        Err("analysis failed (see sections above)".into())
    }
}

fn cmd_chaos(flags: &Flags) -> Result<(), String> {
    use cumf_sgd::core::faults::{run_chaos, ChaosOptions};
    use cumf_sgd::serve::{run_serve_chaos, ServeChaosOptions};
    let seed: u64 = get_parse(flags, "seed", 42)?;
    let quick = flags.contains_key("quick");
    let serve_only = flags.contains_key("serve");
    let metrics_out = flags.get("metrics").cloned();
    if metrics_out.is_some() {
        obs::set_enabled(true);
    }
    let mut passed = true;
    if !serve_only {
        let opts = ChaosOptions {
            seed,
            quick,
            tolerance: get_parse(flags, "tolerance", 0.02)?,
        };
        println!(
            "chaos: seed {}, {} profile, tolerance {:.1}%\n",
            opts.seed,
            if opts.quick { "quick" } else { "full" },
            opts.tolerance * 100.0
        );
        let report = run_chaos(&opts);
        println!("{}", report.render());
        passed &= report.passed;
    }
    println!(
        "chaos [serve]: seed {seed}, {} profile\n",
        if quick { "quick" } else { "full" }
    );
    let serve_report = run_serve_chaos(&ServeChaosOptions { seed, quick });
    println!("{}", serve_report.render());
    passed &= serve_report.all_passed();
    if let Some(path) = metrics_out {
        std::fs::write(&path, obs::prometheus()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    if passed {
        Ok(())
    } else {
        Err("chaos matrix failed (see report above)".into())
    }
}

/// Parses a `RxC` shard-grid spec like `4x2`.
fn parse_shard_grid(s: &str) -> Result<(u32, u32), String> {
    let (r, c) = s
        .split_once('x')
        .ok_or_else(|| format!("--shards wants RxC (e.g. 4x2), got `{s}`"))?;
    let rows: u32 = r
        .trim()
        .parse()
        .map_err(|e| format!("bad --shards rows: {e}"))?;
    let cols: u32 = c
        .trim()
        .parse()
        .map_err(|e| format!("bad --shards cols: {e}"))?;
    Ok((rows, cols))
}

/// `cumf serve`: the closed-loop top-N serving benchmark — sharded
/// factors, Zipf users, deadlines, hedging, admission control — run on
/// sim time, so the whole latency table is bit-deterministic per seed.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use cumf_sgd::serve::chaos::{synth_model, SYNTH_SHAPE};
    use cumf_sgd::serve::shard::check_grid;
    use cumf_sgd::serve::{run_closed_loop, OverloadPolicy, ServeConfig, ServeFault, ShardedModel};
    let seed: u64 = get_parse(flags, "seed", 42)?;
    let (p_shards, q_shards) = parse_shard_grid(get(flags, "shards", "4x2"))?;
    let model: ShardedModel<f32> = match flags.get("model") {
        Some(path) => {
            let m: Model<f32> = load_model(path)?;
            check_grid(p_shards, q_shards, m.p.rows(), m.q.rows())?;
            ShardedModel::new(m.p, m.q, p_shards, q_shards, None)
        }
        None => {
            check_grid(p_shards, q_shards, SYNTH_SHAPE.0, SYNTH_SHAPE.1)?;
            synth_model(seed, p_shards, q_shards)
        }
    };
    let mut cfg = ServeConfig {
        requests: get_parse(flags, "requests", 2000)?,
        zipf_s: get_parse(flags, "zipf-s", 1.1)?,
        deadline_s: get_parse(flags, "deadline-ms", 50.0)? * 1e-3,
        seed,
        ..ServeConfig::default()
    };
    if cfg.deadline_s <= 0.0 {
        return Err("--deadline-ms must be positive".into());
    }
    if flags.contains_key("no-admission") {
        cfg.policy = OverloadPolicy::no_admission();
    }
    cfg.fault = match get(flags, "inject", "none") {
        "none" => None,
        // Both replicas of the last Q shard go dark; the window must
        // outlast the deadline so degradation (not waiting) is the only
        // way to answer in time.
        "shard-loss" => Some(ServeFault::ShardLoss {
            shard: model.q_shard_id(q_shards - 1),
            from_s: 0.020,
            until_s: 0.020 + 3.0 * cfg.deadline_s,
        }),
        "shard-stall" => Some(ServeFault::ShardStall {
            shard: model.q_shard_id(0),
            replica: 0,
            from_s: 0.010,
            until_s: 0.010 + 6.0 * cfg.deadline_s,
            factor: 20.0,
        }),
        other => {
            return Err(format!(
                "unknown --inject `{other}` (none | shard-loss | shard-stall)"
            ))
        }
    };
    println!(
        "serve: {} users x {} items (k={}), grid {p_shards}x{q_shards}, \
         {} requests, zipf s={}, deadline {:.1} ms, seed {seed}{}{}",
        model.users(),
        model.items(),
        model.k(),
        cfg.requests,
        cfg.zipf_s,
        cfg.deadline_s * 1e3,
        if flags.contains_key("no-admission") {
            ", admission DISABLED"
        } else {
            ""
        },
        match &cfg.fault {
            Some(f) => format!(", inject: {f:?}"),
            None => String::new(),
        }
    );
    let report = run_closed_loop(&model, &cfg);
    println!("{}", report.render());
    if !report.transcript.is_empty() {
        println!(
            "transcript (first {} notable events):",
            report.transcript.len()
        );
        for line in &report.transcript {
            println!("  {line}");
        }
    }
    Ok(())
}

fn report_and_save(
    final_rmse: Option<f64>,
    diverged: bool,
    save: &str,
    do_save: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    if diverged {
        return Err("training diverged (try a lower --alpha or fewer --workers)".into());
    }
    match final_rmse {
        Some(r) if r > 0.0 => println!("final test RMSE: {r:.4}"),
        _ => println!("trained (no test set provided)"),
    }
    do_save()?;
    println!("model saved to {save}");
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let data = load_data(get(flags, "data", "test.bin"))?;
    let path = get(flags, "model", "model.cmfm");
    let r = if flags.contains_key("f16") {
        let model: Model<F16> = load_model(path)?;
        rmse(&data, &model.p, &model.q)
    } else {
        let model: Model<f32> = load_model(path)?;
        rmse(&data, &model.p, &model.q)
    };
    println!("RMSE over {} samples: {r:.4}", data.nnz());
    Ok(())
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let path = get(flags, "model", "model.cmfm");
    let u: u32 = get_parse(flags, "user", 0)?;
    let v: u32 = get_parse(flags, "item", 0)?;
    let pred = if flags.contains_key("f16") {
        let model: Model<F16> = load_model(path)?;
        check_bounds(&model, u, v)?;
        model.predict(u, v)
    } else {
        let model: Model<f32> = load_model(path)?;
        check_bounds(&model, u, v)?;
        model.predict(u, v)
    };
    println!("predicted rating for (user {u}, item {v}): {pred:.3}");
    Ok(())
}

fn check_bounds<E: cumf_sgd::core::Element>(
    model: &Model<E>,
    u: u32,
    v: u32,
) -> Result<(), String> {
    if u >= model.p.rows() {
        return Err(format!("user {u} out of range (m = {})", model.p.rows()));
    }
    if v >= model.q.rows() {
        return Err(format!("item {v} out of range (n = {})", model.q.rows()));
    }
    Ok(())
}
