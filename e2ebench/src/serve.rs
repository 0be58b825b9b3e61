//! The serving workload: closed-loop top-N requests against a sharded
//! planted model, timed on the wall clock; latencies are the serving
//! simulator's own (simulated time).

use std::hint::black_box;
use std::time::Instant;

use cumf_core::faults::fnv1a64;
use cumf_core::FactorMatrix;
use cumf_data::synth::{generate, zipf_weights, AliasTable, SynthConfig};
use cumf_rng::{ChaCha8Rng, SeedableRng};
use cumf_serve::topn::TopAcc;
use cumf_serve::{
    run_closed_loop, top_n_blocked, ResultCache, Scored, ServeConfig, ServeReport, ShardedModel,
};

use crate::catalog::PER_LAYER;
use crate::stats::median;
use crate::tracer::Tracer;
use crate::{peak_rss_mb, Args, Measured, Outcome};

/// Model and traffic shape. A model far larger than the result cache
/// keeps both the cache and the top-N scan busy.
#[derive(Debug, Clone, Copy)]
struct Shape {
    users: u32,
    items: u32,
    k: u32,
    /// Training samples drawn for the item-popularity prior.
    prior_samples: usize,
    /// Requests per timed closed-loop pass.
    requests: u32,
    /// Requests of the traced run's latency pass.
    sim_requests: u32,
    /// Top-N scans replayed in the traced run.
    scan_replays: usize,
}

const FULL: Shape = Shape {
    users: 50_000,
    items: 4_000,
    k: 32,
    prior_samples: 200_000,
    requests: 20_000,
    sim_requests: 100_000,
    scan_replays: 10_000,
};

const QUICK: Shape = Shape {
    users: 2_000,
    items: 400,
    k: 16,
    prior_samples: 10_000,
    requests: 2_000,
    sim_requests: 2_000,
    scan_replays: 200,
};

const P_SHARDS: u32 = 4;
const Q_SHARDS: u32 = 2;
const CLIENTS: u32 = 16;
const ZIPF_S: f64 = 0.9;

/// Closed-loop client counts of the capacity sweep, and the limits a
/// client count must meet to count towards `serve.qps_at_slo`.
const SWEEP_CLIENTS: [u32; 5] = [8, 16, 32, 48, 64];
const SLO_P99_S: f64 = 0.005;
const SLO_BAD_SHARE: f64 = 0.01;

/// Model builds of a traced run; `data.gen_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed passes per run at least, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Plain/traced pass pairs measuring the tracing overhead.
const OVERHEAD_PAIRS: usize = 2;

/// Builds the sharded planted model from the seed, appending the time
/// it took to `secs` (and a `data.gen` span when traced).
fn build_model(
    shape: &Shape,
    seed: u64,
    tracer: Option<&mut Tracer>,
    secs: &mut Vec<f64>,
) -> ShardedModel<f32> {
    let t0 = Instant::now();
    let model = match tracer {
        Some(t) => t.span("data.gen", || planted_model(shape, seed)),
        None => planted_model(shape, seed),
    };
    secs.push(t0.elapsed().as_secs_f64());
    model
}

fn planted_model(shape: &Shape, seed: u64) -> ShardedModel<f32> {
    let d = generate(&SynthConfig {
        m: shape.users,
        n: shape.items,
        k_true: shape.k,
        train_samples: shape.prior_samples,
        test_samples: 0,
        seed,
        ..SynthConfig::default()
    });
    let p = FactorMatrix::<f32>::from_f32_slice(shape.users, shape.k, &d.p_true);
    let q = FactorMatrix::<f32>::from_f32_slice(shape.items, shape.k, &d.q_true);
    let prior = d.train.col_degrees().iter().map(|&n| n as f32).collect();
    ShardedModel::new(p, q, P_SHARDS, Q_SHARDS, Some(prior))
}

fn config(clients: u32, requests: u32, seed: u64) -> ServeConfig {
    ServeConfig {
        clients,
        requests,
        zipf_s: ZIPF_S,
        seed,
        ..ServeConfig::default()
    }
}

/// Requests that were shed, degraded or answered late.
fn bad(r: &ServeReport) -> u64 {
    r.shed + r.degraded() + r.late_success
}

/// Runs the serving workload (timed or traced, per `args`).
pub fn run(args: &Args) -> (Outcome, Option<Tracer>) {
    let shape = if args.quick { QUICK } else { FULL };
    let mut out = Outcome::default();
    let mut tracer = args.trace.then(Tracer::default);
    let mut setup = Vec::new();
    let mut model = build_model(&shape, args.seed, tracer.as_mut(), &mut setup);
    match tracer.as_mut() {
        None => {
            timed(&mut out, model, &mut setup, &shape, args);
            out.set("setup_s", Measured::of(&setup));
            out.set("peak_rss_mb", Measured::single(peak_rss_mb()));
        }
        Some(tr) => {
            for _ in 1..SETUP_REPS {
                drop(model);
                model = build_model(&shape, args.seed, Some(&mut *tr), &mut setup);
            }
            traced(&mut out, tr, &model, &shape, args);
            out.set("data.gen_s", Measured::of(&setup));
            out.zero_rest(&PER_LAYER);
        }
    }
    (out, tracer)
}

/// Checks one closed-loop report and counts its requests.
fn account(out: &mut Outcome, r: &ServeReport, what: &str) {
    out.attempted += r.issued;
    out.failed += bad(r);
    if bad(r) > 0 || r.availability() != 1.0 {
        out.problems.push(format!(
            "{what}: {} shed, {} degraded, {} late, availability {}",
            r.shed,
            r.degraded(),
            r.late_success,
            r.availability()
        ));
    }
}

/// Repeats the closed-loop pass until `--seconds` is spent (at least
/// [`MIN_PASSES`] times); every pass must reproduce the first's digest.
/// The model is built again before every pass after the first, so
/// set-up is sampled across the whole window, as the passes are.
fn timed(
    out: &mut Outcome,
    mut model: ShardedModel<f32>,
    setup: &mut Vec<f64>,
    shape: &Shape,
    args: &Args,
) {
    let cfg = config(CLIENTS, shape.requests, args.seed);
    let min_passes = if args.quick { 1 } else { MIN_PASSES };
    let start = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut first: Option<ServeReport> = None;
    while walls.len() < min_passes
        || start.elapsed().as_secs_f64() + median(&walls) + median(setup) <= args.seconds
    {
        if !walls.is_empty() {
            drop(model);
            model = build_model(shape, args.seed, None, setup);
        }
        let t0 = Instant::now();
        let r = run_closed_loop(&model, &cfg);
        let wall = t0.elapsed().as_secs_f64();
        account(out, &r, &format!("pass {}", walls.len()));
        walls.push(wall);
        rates.push(r.completed as f64 / wall);
        match &first {
            None => first = Some(r),
            Some(f) if f.digest() != r.digest() => out.problems.push(format!(
                "pass {}: digest {:016x} differs from the first pass's {:016x}",
                walls.len() - 1,
                r.digest(),
                f.digest()
            )),
            Some(_) => {}
        }
    }
    out.notes = format!("wall seconds per trial: {walls:.4?}\n");
    out.set("time_to_result_s", Measured::min(&walls));
    out.set("ops_per_s", Measured::max(&rates));
    let r = first.expect("at least one pass");
    let ms = |q: f64| Measured::single(r.p(q) * 1e3);
    out.extra("p50_ms", "ms", ms(0.5));
    out.extra("p99_ms", "ms", ms(0.99));
    out.extra("p999_ms", "ms", ms(0.999));
    out.extra("qps", "1/s", Measured::single(r.qps()));
    out.extra("cache_hit_ratio", "ratio", Measured::single(hit_ratio(&r)));
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.extra("error_rate", "ratio", Measured::single(error_rate));
}

fn hit_ratio(r: &ServeReport) -> f64 {
    r.cache_hits as f64 / (r.issued - r.shed).max(1) as f64
}

/// The `seq`-th request's user draw, as the closed loop makes it.
fn user_rng(seed: u64, seq: u64) -> ChaCha8Rng {
    let mut bytes = Vec::with_capacity(28);
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(b"user");
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    ChaCha8Rng::seed_from_u64(fnv1a64(&bytes))
}

/// The traced run: one long latency pass, the capacity sweep, and
/// replays of the pass's Zipf user stream through the result cache and
/// the top-N scan.
fn traced(
    out: &mut Outcome,
    tr: &mut Tracer,
    model: &ShardedModel<f32>,
    shape: &Shape,
    args: &Args,
) {
    let cfg = config(CLIENTS, shape.sim_requests, args.seed);
    let t0 = Instant::now();
    let r = tr.span("serve.loop", || run_closed_loop(model, &cfg));
    let loop_wall = t0.elapsed().as_secs_f64();
    account(out, &r, "latency pass");
    let n = r.latency.count() as usize;
    if crate::stats::highest_supported_percentile(n) < Some(0.999) && !args.quick {
        out.problems
            .push(format!("{n} latency samples cannot support p999"));
    }

    // Capacity sweep. It overloads the fleet on purpose, so its shed and
    // degraded requests are findings, not failures.
    let mut qps_at_slo = 0.0f64;
    for (i, &clients) in SWEEP_CLIENTS.iter().enumerate() {
        tr.trial = i as u32 + 1;
        let cfg = config(clients, shape.requests, args.seed);
        let s = tr.span("serve.sweep", || run_closed_loop(model, &cfg));
        let bad_share = (s.shed + s.degraded()) as f64 / s.issued.max(1) as f64;
        if s.p(0.99) <= SLO_P99_S && bad_share <= SLO_BAD_SHARE {
            qps_at_slo = qps_at_slo.max(s.qps());
        }
    }

    // Tracing overhead: the timed pass, alternately plain and inside a
    // span, fastest of each side.
    let pass = config(CLIENTS, shape.requests, args.seed);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..if args.quick { 1 } else { OVERHEAD_PAIRS } {
        let t0 = Instant::now();
        let p = run_closed_loop(model, &pass);
        plain.push(t0.elapsed().as_secs_f64());
        account(out, &p, "overhead pass");
        let t0 = Instant::now();
        let p = tr.span("serve.pass", || run_closed_loop(model, &pass));
        spanned.push(t0.elapsed().as_secs_f64());
        account(out, &p, "overhead pass");
    }
    let overhead = Measured::min(&spanned).value / Measured::min(&plain).value - 1.0;

    // Replay the user stream through a cache of the same capacity.
    let users = AliasTable::new(&zipf_weights(model.users() as usize, ZIPF_S));
    let stream: Vec<u32> = (0..u64::from(shape.sim_requests))
        .map(|seq| users.sample(&mut user_rng(args.seed, seq)))
        .collect();
    let template: Vec<Scored> = (0..cfg.top_n as u32)
        .map(|item| Scored { item, score: 0.0 })
        .collect();
    let mut cache = ResultCache::new(cfg.cache_capacity);
    let mut misses = Vec::new();
    let cache_secs = tr.span("replay.cache", || {
        let t0 = Instant::now();
        for &u in &stream {
            if cache.get(u, model.version()).is_none() {
                misses.push(u);
                cache.put(u, model.version(), template.clone());
            }
        }
        t0.elapsed().as_secs_f64()
    });
    let cache_op_ns = cache_secs * 1e9 / stream.len() as f64;

    // Replay cache misses through the scan over every Q-shard range.
    misses.truncate(shape.scan_replays);
    let scan_secs = tr.span("replay.topn", || {
        let t0 = Instant::now();
        for &u in &misses {
            let mut acc = TopAcc::new(cfg.top_n);
            for bj in 0..model.q_shards() {
                let hits = top_n_blocked(
                    model.user_row(u),
                    model.q_matrix(),
                    model.item_range(bj),
                    cfg.top_n,
                    cumf_serve::topn::SCAN_BLOCK,
                );
                for s in hits {
                    acc.offer(s.item, s.score);
                }
            }
            black_box(acc.into_sorted());
        }
        t0.elapsed().as_secs_f64()
    });
    let scan_us = scan_secs * 1e6 / misses.len().max(1) as f64;

    let hits = hit_ratio(&r);
    let loop_us = loop_wall * 1e6 / r.issued.max(1) as f64;
    let explained_us = cache_op_ns / 1e3 + (1.0 - hits) * scan_us;
    let issued = r.issued.max(1) as f64;
    out.set(
        "admission.shed_ratio",
        Measured::single(r.shed as f64 / issued),
    );
    out.set("cache.hit_ratio", Measured::single(hits));
    out.set("cache.op_ns", Measured::single(cache_op_ns));
    let read_p99 = r.read_latency.quantile(0.99).unwrap_or(0.0);
    out.set("shard.read_p99_ms", Measured::single(read_p99 * 1e3));
    out.set(
        "shard.hedges_per_req",
        Measured::single(r.hedges as f64 / issued),
    );
    out.set("shard.retries", Measured::single(r.retries as f64));
    out.set("shard.timeouts", Measured::single(r.timeouts as f64));
    out.set(
        "degrade.ratio",
        Measured::single(r.degraded() as f64 / r.completed.max(1) as f64),
    );
    out.set("topn.scan_us", Measured::single(scan_us));
    out.set(
        "serve.loop_other_us",
        Measured::single(loop_us - explained_us),
    );
    out.set("serve.p50_ms", Measured::single(r.p(0.5) * 1e3));
    out.set("serve.p99_ms", Measured::single(r.p(0.99) * 1e3));
    out.set("serve.p999_ms", Measured::single(r.p(0.999) * 1e3));
    out.set("serve.qps", Measured::single(r.qps()));
    out.set("serve.qps_at_slo", Measured::single(qps_at_slo));
    out.set("trace.coverage", Measured::single(explained_us / loop_us));
    out.set("trace.overhead", Measured::single(overhead));
    out.notes = format!(
        "latency pass: {} requests in {loop_wall:.3} s wall, {loop_us:.2} us/request; \
         replayed hit ratio {:.4} vs {hits:.4} in the loop; {} scans replayed\n",
        r.issued,
        cache.hits() as f64 / stream.len().max(1) as f64,
        misses.len()
    );
}
