//! The training workloads: wall time of `train()` over a fixed epoch
//! budget that must reach the target test RMSE, and the traced
//! decomposition of one such call into layers.

use std::hint::black_box;
use std::time::Instant;

use cumf_core::concurrent::{ExecMode, DEFAULT_THREAD_BATCH};
use cumf_core::engine::{engine_for, EngineModel, EpochBackend, StreamBackend};
use cumf_core::kernel::{sgd_delta, sgd_update};
use cumf_core::lrate::{LearningRate, Schedule};
use cumf_core::metrics::Trace;
use cumf_core::sched::{resolve_exec_mode, StreamItem};
use cumf_core::solver::{train, Scheme, SolverConfig, TimeModel, TrainResult};
use cumf_core::stale::{resolve_stale_mode, PathSpec};
use cumf_core::{precision_of, CostCert, Element, SgdUpdateCost};
use cumf_data::presets::DatasetSpec;
use cumf_data::synth::SynthDataset;
use cumf_data::{NETFLIX, YAHOO_MUSIC};
use cumf_gpu_sim::TITAN_X_MAXWELL;
use cumf_rng::{ChaCha8Rng, SeedableRng};

use crate::catalog::PER_LAYER;
use crate::stats::median;
use crate::tracer::Tracer;
use crate::{peak_rss_mb, Args, Measured, Outcome};

/// A training workload: a scaled stand-in of one paper data set, the
/// scheduling policy that trains it, and its epoch budget. Storage
/// precision is the type parameter of [`run`].
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub preset: DatasetSpec,
    pub scale: f64,
    pub scheme: Scheme,
    /// Epochs every `train()` call runs. The budget, not the epoch that
    /// first reaches the target, fixes the timed work: the latter moves
    /// with the seed (8 to 10 epochs on Netflix, 17 to 29 on Yahoo over
    /// 40 seeds), which would swamp the run-to-run spread. Each budget
    /// ends more than four standard deviations of the seed-to-seed RMSE
    /// spread below the target.
    pub epochs: u32,
}

pub const NETFLIX_BH: TrainSpec = TrainSpec {
    preset: NETFLIX,
    scale: 0.05,
    scheme: Scheme::BatchHogwild {
        workers: 16,
        batch: 256,
    },
    epochs: 12,
};

/// Half the linear scale of the repository's Yahoo stand-in: at 0.01 the
/// randomly visited 12.5 MB rating array lives in the shared last-level
/// cache, and other tenants' traffic there made timings swing by a
/// quarter where this size swings by a tenth.
pub const YAHOO_WAVEFRONT: TrainSpec = TrainSpec {
    preset: YAHOO_MUSIC,
    scale: 0.005,
    scheme: Scheme::Wavefront {
        workers: 16,
        cols: 32,
    },
    epochs: 40,
};

/// Feature dimension, regularisation and schedule of the repository's
/// scaled convergence experiments.
const K: u32 = 16;
const LAMBDA: f32 = 0.02;

fn schedule() -> Schedule {
    Schedule::paper_default(0.1, 0.1)
}

/// The target every run must reach within its budget: this far above
/// the generator's noise floor, the analogue of Table 4's targets on
/// the scaled data.
const TARGET_ABOVE_FLOOR: f64 = 0.08;

/// Input generations of a traced run; `data.gen_s` is their median.
const SETUP_REPS: usize = 3;

/// Timed `train()` calls per run at least, however short `--seconds`.
const MIN_TRIALS: usize = 3;

/// Replays of the epoch-0 sample order per layer in the traced run.
const REPLAY_REPS: usize = 3;

/// Samples staged per timed block when replaying `sgd_delta`.
const DELTA_CHUNK: usize = 1024;

/// Generates the workload's inputs from the seed, appending the time
/// it took to `secs` (and a `data.gen` span when traced).
fn generate(
    spec: &TrainSpec,
    args: &Args,
    tracer: Option<&mut Tracer>,
    secs: &mut Vec<f64>,
) -> SynthDataset {
    let scale = if args.quick {
        spec.scale / 10.0
    } else {
        spec.scale
    };
    let t0 = Instant::now();
    let data = match tracer {
        Some(t) => t.span("data.gen", || spec.preset.scaled(scale, K, args.seed)),
        None => spec.preset.scaled(scale, K, args.seed),
    };
    secs.push(t0.elapsed().as_secs_f64());
    data
}

fn solver_config(spec: &TrainSpec, seed: u64) -> SolverConfig {
    SolverConfig {
        k: K,
        lambda: LAMBDA,
        schedule: schedule(),
        epochs: spec.epochs,
        scheme: spec.scheme,
        seed,
        mode: None,
        divergence_ceiling: 1e3,
    }
}

/// The paper's Maxwell GPU pricing every epoch, for the simulated time
/// to target.
fn maxwell<E: Element>(spec: &TrainSpec) -> TimeModel {
    let workers = spec.scheme.workers();
    TimeModel {
        cost: SgdUpdateCost {
            k: K,
            precision: precision_of::<E>(),
            rating_access: spec.scheme.rating_access(),
        },
        total_bandwidth: TITAN_X_MAXWELL.effective_bw(workers),
        epoch_overhead: TITAN_X_MAXWELL.launch_overhead_s,
    }
}

/// Bit-exact trajectory equality (epoch, updates, RMSE, sim seconds).
fn same_trajectory(a: &Trace, b: &Trace) -> bool {
    a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(x, y)| {
            x.epoch == y.epoch
                && x.updates == y.updates
                && x.rmse.to_bits() == y.rmse.to_bits()
                && x.seconds.to_bits() == y.seconds.to_bits()
        })
}

/// Checks one `train()` result: it must reach the target within the
/// budget, and repeat the first trial's trajectory bit for bit.
fn check<E: Element>(
    out: &mut Outcome,
    r: &TrainResult<E>,
    first: Option<&TrainResult<E>>,
    target: f64,
    trial: usize,
) {
    out.attempted += 1;
    if let Some(first) = first {
        if !same_trajectory(&r.trace, &first.trace) {
            out.fail(format!("trial {trial}: trajectory differs from trial 0"));
            return;
        }
    }
    if r.diverged || r.trace.epochs_to_rmse(target).is_none() {
        out.fail(format!(
            "trial {trial}: ends at RMSE {:?}, target {target:.4} not reached",
            r.trace.final_rmse()
        ));
    }
}

/// Runs one training workload (timed or traced, per `args`).
pub fn run<E: Element>(spec: &TrainSpec, args: &Args) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let mut tracer = args.trace.then(Tracer::default);
    let mut setup = Vec::new();
    let mut data = generate(spec, args, tracer.as_mut(), &mut setup);
    let target = data.rmse_floor + TARGET_ABOVE_FLOOR;
    let cfg = solver_config(spec, args.seed);
    let first = match tracer.as_mut() {
        None => timed::<E>(&mut out, spec, data, &mut setup, &cfg, target, args),
        Some(tr) => {
            for _ in 1..SETUP_REPS {
                drop(data);
                data = generate(spec, args, Some(&mut *tr), &mut setup);
            }
            let first = traced::<E>(&mut out, tr, &data, &cfg, target, spec, args);
            out.set("data.gen_s", Measured::of(&setup));
            first
        }
    };
    let trace = &first.trace;
    let epochs = trace.epochs_to_rmse(target).map_or(f64::NAN, f64::from);
    let rmse_at_budget = trace.final_rmse().unwrap_or(f64::NAN);
    let sim_to_target = trace.time_to_rmse(target).unwrap_or(f64::NAN);
    if args.trace {
        out.set("solver.epochs_to_target", Measured::single(epochs));
        out.set("solver.rmse_at_budget", Measured::single(rmse_at_budget));
        out.set(
            "solver.sim_time_to_target_s",
            Measured::single(sim_to_target),
        );
        out.zero_rest(&PER_LAYER);
    } else {
        out.set("setup_s", Measured::of(&setup));
        out.set("peak_rss_mb", Measured::single(peak_rss_mb()));
        out.extra("epochs_to_target", "count", Measured::single(epochs));
        out.extra("target_rmse", "rating", Measured::single(target));
        out.extra("rmse_at_budget", "rating", Measured::single(rmse_at_budget));
        out.extra("sim_time_to_target_s", "s", Measured::single(sim_to_target));
        let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
        out.extra("error_rate", "ratio", Measured::single(error_rate));
    }
    (out, tracer)
}

/// Times `train()` until `--seconds` is spent (at least [`MIN_TRIALS`]
/// calls) and returns the first trial's result. The inputs are
/// generated again before every trial after the first, so set-up is
/// sampled across the whole window, as the trials are.
fn timed<E: Element>(
    out: &mut Outcome,
    spec: &TrainSpec,
    mut data: SynthDataset,
    setup: &mut Vec<f64>,
    cfg: &SolverConfig,
    target: f64,
    args: &Args,
) -> TrainResult<E> {
    let min_trials = if args.quick { 1 } else { MIN_TRIALS };
    let tm = maxwell::<E>(spec);
    let start = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut first: Option<TrainResult<E>> = None;
    // Stop before a trial would overrun the measuring window.
    while walls.len() < min_trials
        || start.elapsed().as_secs_f64() + median(&walls) + median(setup) <= args.seconds
    {
        if first.is_some() {
            drop(data);
            data = generate(spec, args, None, setup);
        }
        let t0 = Instant::now();
        let r = train::<E>(&data.train, &data.test, cfg, Some(&tm));
        let wall = t0.elapsed().as_secs_f64();
        check(out, &r, first.as_ref(), target, walls.len());
        walls.push(wall);
        rates.push(r.total_updates() as f64 / wall);
        first.get_or_insert(r);
    }
    out.notes = format!("wall seconds per trial: {walls:.4?}\n");
    out.set("time_to_result_s", Measured::min(&walls));
    out.set("ops_per_s", Measured::max(&rates));
    first.expect("at least one trial")
}

/// `solver::train_resumable` rebuilt from the same public calls, in the
/// same order, with a span around each call. Returns the RMSE after the
/// last epoch.
fn traced_train<E: Element>(tr: &mut Tracer, data: &SynthDataset, cfg: &SolverConfig) -> f64 {
    let (train_set, test) = (&data.train, &data.test);
    let workers = cfg.scheme.workers();
    let root = tr.enter("train");
    tr.span("cert.cost", || {
        black_box(CostCert::certify::<E>(
            cfg.k,
            cfg.scheme.rating_access(),
            None,
        ))
    });
    let mut model = tr.span("engine.init", || {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        EngineModel::<E>::init_unbiased(train_set, cfg.k, &mut rng)
    });
    let default = cfg.scheme.default_mode();
    let (mode, schedule_verdict) = if default == ExecMode::Sequential && workers > 1 {
        tr.span("cert.conflict", || {
            let mut probe = cfg.scheme.stream(train_set, cfg.seed);
            resolve_exec_mode(train_set, probe.as_mut(), default, cfg.epochs)
        })
    } else {
        (default, None)
    };
    let mode = if schedule_verdict.is_none() {
        tr.span("cert.stale", || {
            let spec = PathSpec::solver_hogwild(workers, train_set.rows().min(train_set.cols()));
            resolve_stale_mode(&spec, &cfg.schedule, cfg.epochs, mode).0
        })
    } else {
        mode
    };
    let thread_batch = match cfg.scheme {
        Scheme::BatchHogwild { batch, .. } => batch as usize,
        _ => DEFAULT_THREAD_BATCH,
    };
    let mut backend = tr.span("engine.init", || {
        StreamBackend::new(
            train_set,
            cfg.scheme.stream(train_set, cfg.seed),
            engine_for::<E>(mode, workers as usize, thread_batch),
            workers,
        )
    });
    let mut lr = LearningRate::new(cfg.schedule.clone());
    let mut rmse = f64::NAN;
    for epoch in 0..cfg.epochs {
        let gamma = lr.gamma(epoch);
        tr.span("exec.epoch", || {
            backend.run_epoch(epoch, gamma, cfg.lambda, &mut model)
        });
        rmse = tr.span("eval.rmse", || model.rmse(test));
        lr.observe(rmse);
        // The solver's divergence guard.
        if !rmse.is_finite() || rmse > cfg.divergence_ceiling {
            break;
        }
    }
    tr.exit(root);
    rmse
}

/// Per-sample costs of the layers below one epoch, measured by
/// replaying the workload's own epoch-0 sample order.
struct Replay {
    next_ns: f64,
    update_ns: f64,
    delta_ns: f64,
    row_io_ns: f64,
}

fn replay_layers<E: Element>(
    tr: &mut Tracer,
    data: &SynthDataset,
    cfg: &SolverConfig,
    reps: usize,
) -> Replay {
    let train_set = &data.train;
    let k = cfg.k as usize;
    let gamma = LearningRate::new(cfg.schedule.clone()).gamma(0);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let init = EngineModel::<E>::init_unbiased(train_set, cfg.k, &mut rng);
    let (mut next, mut update, mut delta, mut row_io) = (vec![], vec![], vec![], vec![]);
    let mut order = Vec::with_capacity(train_set.nnz());
    for _ in 0..reps {
        // Scheduler: drive the stream round by round as the engines do.
        let mut stream = cfg.scheme.stream(train_set, cfg.seed);
        stream.begin_epoch(0);
        let s = stream.workers();
        let mut done = vec![false; s];
        let (mut live, mut calls) = (s, 0u64);
        order.clear();
        let id = tr.enter("replay.sched");
        let t0 = Instant::now();
        while live > 0 {
            for (w, d) in done.iter_mut().enumerate().filter(|(_, d)| !**d) {
                calls += 1;
                match stream.next(w) {
                    StreamItem::Sample(i) => order.push(i),
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => {
                        *d = true;
                        live -= 1;
                    }
                }
            }
        }
        next.push(t0.elapsed().as_secs_f64() * 1e9 / calls as f64);
        tr.exit(id);

        // Kernel, in-place path (the Sequential engine's `sgd_update`).
        let (mut p, mut q) = (init.p.clone(), init.q.clone());
        let secs = tr.span("replay.kernel", || {
            let t0 = Instant::now();
            for &i in &order {
                let e = train_set.get(i);
                black_box(sgd_update(
                    p.row_mut(e.u),
                    q.row_mut(e.v),
                    e.r,
                    gamma,
                    cfg.lambda,
                ));
            }
            t0.elapsed().as_secs_f64()
        });
        update.push(secs * 1e9 / order.len() as f64);

        // Kernel, snapshot path (the stale-additive engine's
        // `sgd_delta`): rows are staged untimed, deltas timed per block.
        let (mut sp, mut sq) = (vec![0.0f32; DELTA_CHUNK * k], vec![0.0f32; DELTA_CHUNK * k]);
        let (mut dp, mut dq) = (sp.clone(), sq.clone());
        let mut ratings = vec![0.0f32; DELTA_CHUNK];
        let id = tr.enter("replay.kernel");
        let mut secs = 0.0;
        for chunk in order.chunks(DELTA_CHUNK) {
            for (j, &i) in chunk.iter().enumerate() {
                let e = train_set.get(i);
                init.p.load_row(e.u, &mut sp[j * k..(j + 1) * k]);
                init.q.load_row(e.v, &mut sq[j * k..(j + 1) * k]);
                ratings[j] = e.r;
            }
            let t0 = Instant::now();
            for (j, &r) in ratings.iter().enumerate().take(chunk.len()) {
                let lanes = j * k..(j + 1) * k;
                black_box(sgd_delta(
                    &sp[lanes.clone()],
                    &sq[lanes.clone()],
                    r,
                    gamma,
                    cfg.lambda,
                    &mut dp[lanes.clone()],
                    &mut dq[lanes],
                ));
            }
            secs += t0.elapsed().as_secs_f64();
            black_box((&mut dp, &mut dq));
        }
        tr.exit(id);
        delta.push(secs * 1e9 / order.len() as f64);

        // Feature storage: one load_row + store_row per factor row.
        let mut buf = vec![0.0f32; k];
        let secs = tr.span("replay.row_io", || {
            let t0 = Instant::now();
            for &i in &order {
                let e = train_set.get(i);
                p.load_row(e.u, &mut buf);
                p.store_row(e.u, black_box(&buf));
                q.load_row(e.v, &mut buf);
                q.store_row(e.v, black_box(&buf));
            }
            t0.elapsed().as_secs_f64()
        });
        row_io.push(secs * 1e9 / (2 * order.len()) as f64);
        black_box((&p, &q));
    }
    Replay {
        next_ns: median(&next),
        update_ns: median(&update),
        delta_ns: median(&delta),
        row_io_ns: median(&row_io),
    }
}

/// The traced run: alternates plain `train()` calls with the traced
/// rebuild until `--seconds` is spent (at least once), checks that the
/// rebuild lands on the same RMSE bit for bit, then replays the
/// epoch-0 sample order through the scheduler, kernel and storage.
/// Returns the first plain call's result.
fn traced<E: Element>(
    out: &mut Outcome,
    tr: &mut Tracer,
    data: &SynthDataset,
    cfg: &SolverConfig,
    target: f64,
    spec: &TrainSpec,
    args: &Args,
) -> TrainResult<E> {
    let tm = maxwell::<E>(spec);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut first: Option<TrainResult<E>> = None;
    let mut trial = 0u32;
    while trial == 0
        || start.elapsed().as_secs_f64() * f64::from(trial + 1) / f64::from(trial) <= args.seconds
    {
        tr.trial = trial;
        let t0 = Instant::now();
        let r = tr.span("train.plain", || {
            train::<E>(&data.train, &data.test, cfg, Some(&tm))
        });
        plain.push(t0.elapsed().as_secs_f64());
        check(out, &r, first.as_ref(), target, trial as usize);
        let rebuilt = traced_train::<E>(tr, data, cfg);
        out.attempted += 1;
        let got = r.trace.final_rmse().unwrap_or(f64::NAN);
        if rebuilt.to_bits() != got.to_bits() {
            out.fail(format!(
                "trial {trial}: traced rebuild RMSE {rebuilt} != train() RMSE {got}"
            ));
        }
        first.get_or_insert(r);
        trial += 1;
    }
    let first = first.expect("at least one trial");
    tr.trial = trial;
    let reps = if args.quick { 1 } else { REPLAY_REPS };
    let replay = replay_layers::<E>(tr, data, cfg, reps);

    let per_train = |name| median(&tr.per_root_sum("train", name));
    let traced_wall = median(&tr.durations("train"));
    let cert_conflict = per_train("cert.conflict");

    let stats = &first.epoch_stats;
    let sum = |f: fn(&cumf_core::EpochStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let (updates, rounds, stalls) = (sum(|s| s.updates), sum(|s| s.rounds), sum(|s| s.stalls));
    let collisions = sum(|s| s.row_collisions + s.col_collisions);
    let exec_epoch = median(&tr.durations("exec.epoch"));
    let update_ns_in_exec = exec_epoch * 1e9 / (updates / f64::from(cfg.epochs));
    let kernel_ns = if first.exec_mode == ExecMode::Sequential {
        replay.update_ns
    } else {
        replay.delta_ns
    };
    let bytes =
        CostCert::certify::<E>(K, spec.scheme.rating_access(), None).bytes_per_update as f64;

    out.set("cert.cost_s", Measured::single(per_train("cert.cost")));
    out.set("cert.stale_s", Measured::single(per_train("cert.stale")));
    out.set("cert.conflict_s", Measured::single(cert_conflict));
    out.set(
        "cert.conflict_share",
        Measured::single(cert_conflict / traced_wall),
    );
    out.set("engine.init_s", Measured::single(per_train("engine.init")));
    out.set("exec.epoch_s", Measured::of(&tr.durations("exec.epoch")));
    out.set("exec.rounds", Measured::single(stats[0].rounds as f64));
    out.set(
        "exec.collision_rounds_ratio",
        Measured::single(collisions / rounds),
    );
    out.set(
        "exec.beyond_kernel_ns",
        Measured::single(update_ns_in_exec - kernel_ns),
    );
    out.set("sched.next_ns", Measured::single(replay.next_ns));
    out.set(
        "sched.stall_ratio",
        Measured::single(stalls / (updates + stalls)),
    );
    out.set("kernel.update_ns", Measured::single(replay.update_ns));
    out.set("kernel.delta_ns", Measured::single(replay.delta_ns));
    out.set("kernel.bytes_per_update", Measured::single(bytes));
    out.set(
        "kernel.gbytes_per_s_computed",
        Measured::single(bytes / kernel_ns),
    );
    out.set("feature.row_io_ns", Measured::single(replay.row_io_ns));
    out.set("eval.rmse_s", Measured::of(&tr.durations("eval.rmse")));
    out.set("pipeline.other_s", Measured::of(&tr.per_root_self("train")));
    if let Some(epoch) = first.trace.epochs_to_rmse(target) {
        let walls = wall_to_epoch(tr, epoch as usize);
        out.set("solver.wall_to_target_s", Measured::of(&walls));
    }
    out.set("trace.coverage", Measured::single(tr.coverage("train")));
    let (plain_wall, traced_fastest) = (
        Measured::min(&plain).value,
        Measured::min(&tr.durations("train")).value,
    );
    out.set(
        "trace.overhead",
        Measured::single(traced_fastest / plain_wall - 1.0),
    );
    out.notes = format!(
        "train() {plain_wall:.4} s plain vs {traced_fastest:.4} s traced (fastest of {} each); \
         exec mode {:?}; {:.1} ns/update in exec.epoch \
         of which the {} kernel is {kernel_ns:.1} ns\n",
        plain.len(),
        first.exec_mode,
        update_ns_in_exec,
        if first.exec_mode == ExecMode::Sequential {
            "sgd_update"
        } else {
            "sgd_delta"
        },
    );
    first
}

/// Per traced `train` span, the wall time from its start to the end of
/// the evaluation after epoch `epoch` (1-based): the time to target
/// when `epoch` is the first to reach it.
fn wall_to_epoch(tr: &Tracer, epoch: usize) -> Vec<f64> {
    let spans = tr.spans();
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "train")
        .filter_map(|(id, root)| {
            let eval = spans
                .iter()
                .filter(|c| c.parent == Some(id) && c.name == "eval.rmse")
                .nth(epoch.checked_sub(1)?)?;
            Some((eval.end_ns - root.start_ns) as f64 * 1e-9)
        })
        .collect()
}
