//! The registered `cumf bench` suite: named metrics over fixed
//! workloads, run for N trials and reported as median + MAD in
//! schema-versioned `BENCH_*.json` files.
//!
//! Three suites mirror the repo's performance fronts:
//!
//! * **`des`** — event-calendar throughput (ROADMAP item 5's gate):
//!   events/sec for pure delays, a contended server, and a shared
//!   link, plus two *sim-domain* metrics (modelled link bandwidth and
//!   sim end time) that are bit-deterministic across runs.
//! * **`train`** — the paper's currency (§6): `sgd_update` updates/sec
//!   per precision, epoch wall time on a small synthetic problem, and
//!   the machine-model updates/sec (sim-domain, deterministic).
//! * **`serve`** — the serving layer: closed-loop QPS and p99 latency
//!   on sim time (deterministic), plus host wall-clock throughput of
//!   the blocked top-N scorer.
//!
//! Wall-domain metrics measure this machine and carry MAD-sized noise;
//! sim-domain metrics are pure f64 arithmetic and must reproduce
//! exactly — [`SuiteReport::sim_digest`] hashes them so a test (and
//! the committed baselines) can prove it.

use std::time::Instant;

use cumf_core::half::F16;
use cumf_core::kernel::sgd_update;
use cumf_core::lrate::Schedule;
use cumf_core::solver::{train, Scheme, SolverConfig, TimeModel};
use cumf_core::Element;
use cumf_data::synth::{generate, SynthConfig, SynthDataset};
use cumf_des::{Block, Ctx, EventId, EventQueue, LinkId, Process, ServerId, SimTime, Simulation};
use cumf_gpu_sim::{SgdUpdateCost, TITAN_X_MAXWELL};

use crate::json::{num, quote};

/// Version tag carried by every `BENCH_*.json`; bump on schema change.
pub const SCHEMA: &str = "cumf-bench/1";

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Host wall clock: machine-dependent, noisy.
    Wall,
    /// Simulated/modelled time: bit-deterministic across runs.
    Sim,
}

impl Domain {
    /// The JSON/string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Wall => "wall",
            Domain::Sim => "sim",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-style: larger is better.
    Higher,
    /// Latency-style: smaller is better.
    Lower,
}

impl Better {
    /// The JSON/string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One registered benchmark: a named metric over a fixed workload.
pub struct BenchCase {
    /// Metric id, stable across versions (the `--check` join key).
    pub id: &'static str,
    /// Owning suite: `"des"`, `"train"`, or `"serve"`.
    pub suite: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Clock domain of the measurement.
    pub domain: Domain,
    /// Improvement direction.
    pub better: Better,
    /// Runs one trial (`quick` shrinks the workload) and returns the value.
    pub run: fn(quick: bool) -> f64,
}

/// One metric's aggregated result.
#[derive(Debug, Clone)]
pub struct MetricResult {
    /// Metric id.
    pub id: String,
    /// Unit of `median`.
    pub unit: String,
    /// Clock domain.
    pub domain: Domain,
    /// Improvement direction.
    pub better: Better,
    /// Median over the trials.
    pub median: f64,
    /// Median absolute deviation over the trials.
    pub mad: f64,
    /// The raw per-trial values, in run order.
    pub samples: Vec<f64>,
}

/// The result of running one suite: everything `BENCH_<suite>.json` holds.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Suite name (`des` / `train`).
    pub suite: String,
    /// Whether the quick (shrunken) workloads were used.
    pub quick: bool,
    /// Trials per metric.
    pub trials: usize,
    /// Per-metric results, in registration order.
    pub metrics: Vec<MetricResult>,
    /// FNV-1a digest of the Prometheus snapshot taken after the run.
    pub obs_digest: String,
}

/// Median of a sample set (empty → NaN).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median absolute deviation around the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// 64-bit FNV-1a over bytes, rendered as fixed-width hex.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", cumf_core::digest::fnv1a64(bytes))
}

// ---------------------------------------------------------------- DES suite

struct Sleeper {
    left: u32,
}
impl Process for Sleeper {
    fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Block {
        if self.left == 0 {
            return Block::Done;
        }
        self.left -= 1;
        Block::Delay(SimTime::from_micros(1.0))
    }
}

struct Contender {
    left: u32,
    server: ServerId,
}
impl Process for Contender {
    fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Block {
        if self.left == 0 {
            return Block::Done;
        }
        self.left -= 1;
        Block::Service {
            server: self.server,
            hold: SimTime::from_micros(0.5),
        }
    }
}

struct Mover {
    left: u32,
    link: LinkId,
}
impl Process for Mover {
    fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Block {
        if self.left == 0 {
            return Block::Done;
        }
        self.left -= 1;
        Block::Transfer {
            link: self.link,
            bytes: 4096.0,
        }
    }
}

fn rounds(quick: bool) -> u32 {
    if quick {
        200
    } else {
        500
    }
}

fn des_events_per_sec(quick: bool) -> f64 {
    let mut sim = Simulation::new();
    for _ in 0..64 {
        sim.spawn(Box::new(Sleeper {
            left: rounds(quick),
        }));
    }
    let t0 = Instant::now();
    let report = sim.run(None);
    report.events as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

fn des_server_events_per_sec(quick: bool) -> f64 {
    let mut sim = Simulation::new();
    let server = sim.add_server("cs", 4);
    for _ in 0..64 {
        sim.spawn(Box::new(Contender {
            left: rounds(quick),
            server,
        }));
    }
    let t0 = Instant::now();
    let report = sim.run(None);
    report.events as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

fn link_sim(quick: bool) -> cumf_des::RunReport {
    let mut sim = Simulation::new();
    let link = sim.add_link("pcie", 1e9);
    for _ in 0..64 {
        sim.spawn(Box::new(Mover {
            left: rounds(quick),
            link,
        }));
    }
    sim.run(None)
}

fn des_link_sim_bytes_per_sec(quick: bool) -> f64 {
    link_sim(quick)
        .link("pcie")
        .expect("link exists")
        .achieved_bandwidth
}

fn des_link_sim_end_seconds(quick: bool) -> f64 {
    link_sim(quick).end_time.as_secs()
}

// ------------------------------------------------- raw event-queue cases
//
// These drive `EventQueue` directly (no processes, no resources) so the
// scheduler itself is the entire measurement. Three timestamp shapes
// bracket the real workloads: *clustered* (the GPU sim schedules many
// events at identical instants — warps of a block, simultaneous copy
// completions), *uniform* (pseudo-random spread, the scheduler's
// neutral case), and *cancel-heavy* (the link model re-arms its single
// completion event on every transfer change, cancelling the old one).

/// Splitmix-style step for deterministic workload jitter (bench-local;
/// wall-domain metrics may use any fixed pseudo-random schedule).
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Steady-state schedule/pop cycles where timestamps arrive in 64-wide
/// equal-time clusters (the paper workload's shape).
fn des_clustered_queue_events_per_sec(quick: bool) -> f64 {
    const CLUSTER: u64 = 64;
    let pending: u64 = if quick { 8_192 } else { 32_768 };
    let total: u64 = if quick { 200_000 } else { 1_000_000 };
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..pending {
        q.schedule(SimTime::from_micros((i / CLUSTER) as f64), i as u32);
    }
    let horizon = SimTime::from_micros((pending / CLUSTER) as f64);
    let t0 = Instant::now();
    for _ in 0..total {
        let (t, tag) = q.pop().expect("queue stays primed");
        q.schedule(t + horizon, tag);
    }
    total as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

/// Steady-state schedule/pop cycles with uniformly jittered timestamps
/// (no clustering to exploit).
fn des_uniform_queue_events_per_sec(quick: bool) -> f64 {
    let pending: u64 = if quick { 8_192 } else { 32_768 };
    let total: u64 = if quick { 200_000 } else { 1_000_000 };
    let mut state = crate::SEED;
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..pending {
        let at = lcg_next(&mut state) % (2 * pending);
        q.schedule(SimTime::from_micros(at as f64), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..total {
        let (t, tag) = q.pop().expect("queue stays primed");
        let ahead = 1 + lcg_next(&mut state) % (2 * pending);
        q.schedule(t + SimTime::from_micros(ahead as f64), tag);
    }
    total as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

/// Schedule-two/cancel-one/pop-one cycles: half of all scheduled events
/// are cancelled before they fire, as the shared-link model does when it
/// re-arms its completion event.
fn des_cancel_queue_events_per_sec(quick: bool) -> f64 {
    const STASH: usize = 256;
    let pending: u64 = if quick { 4_096 } else { 16_384 };
    let total: u64 = if quick { 100_000 } else { 500_000 };
    let mut state = crate::SEED ^ 0xc0ffee;
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..pending {
        let at = lcg_next(&mut state) % pending;
        q.schedule(SimTime::from_micros(at as f64), i as u32);
    }
    let mut stash: Vec<EventId> = Vec::with_capacity(STASH);
    let mut slot = 0usize;
    let t0 = Instant::now();
    for _ in 0..total {
        let (t, tag) = q.pop().expect("queue stays primed");
        let a1 = 1 + lcg_next(&mut state) % pending;
        let a2 = 1 + lcg_next(&mut state) % pending;
        q.schedule(t + SimTime::from_micros(a1 as f64), tag);
        let doomed = q.schedule(t + SimTime::from_micros(a2 as f64), tag);
        if stash.len() < STASH {
            stash.push(doomed);
        } else {
            q.cancel(stash[slot]);
            stash[slot] = doomed;
            slot = (slot + 1) % STASH;
        }
    }
    total as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

// -------------------------------------------------------------- train suite

fn sgd_updates_per_sec<E: Element>(quick: bool, seed_scale: f32) -> f64 {
    const K: usize = 64;
    let mut p: Vec<E> = (0..K)
        .map(|i| E::from_f32((i as f32 * 0.37).sin() * 0.3 * seed_scale))
        .collect();
    let mut q: Vec<E> = (0..K)
        .map(|i| E::from_f32((i as f32 * 0.11).cos() * 0.3 * seed_scale))
        .collect();
    let updates: u64 = if quick { 50_000 } else { 200_000 };
    let t0 = Instant::now();
    for i in 0..updates {
        let r = 3.0 + (i % 5) as f32 * 0.25;
        sgd_update(
            std::hint::black_box(&mut p[..]),
            std::hint::black_box(&mut q[..]),
            std::hint::black_box(r),
            0.005,
            0.05,
        );
    }
    updates as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

fn bench_dataset(quick: bool) -> SynthDataset {
    generate(&SynthConfig {
        m: 2_000,
        n: 500,
        k_true: 4,
        train_samples: if quick { 20_000 } else { 60_000 },
        test_samples: 2_000,
        noise_std: 0.1,
        row_skew: 0.4,
        col_skew: 0.3,
        rating_offset: 0.0,
        seed: crate::SEED,
    })
}

fn bench_config(epochs: u32) -> SolverConfig {
    SolverConfig {
        k: 32,
        lambda: 0.05,
        schedule: Schedule::Fixed(0.02),
        epochs,
        scheme: Scheme::BatchHogwild {
            workers: 32,
            batch: 64,
        },
        seed: crate::SEED,
        mode: None,
        divergence_ceiling: 1e3,
    }
}

fn epoch_wall_seconds(quick: bool) -> f64 {
    let d = bench_dataset(quick);
    let cfg = bench_config(2);
    let t0 = Instant::now();
    let res = train::<f32>(&d.train, &d.test, &cfg, None);
    let secs = t0.elapsed().as_secs_f64();
    assert!(!res.diverged, "bench training must not diverge");
    secs / cfg.epochs as f64
}

fn machine_model_updates_per_sec(quick: bool) -> f64 {
    let d = bench_dataset(quick);
    let cfg = bench_config(2);
    let workers = 32;
    let tm = TimeModel {
        cost: SgdUpdateCost::cumf(cfg.k),
        total_bandwidth: TITAN_X_MAXWELL.effective_bw(workers),
        epoch_overhead: TITAN_X_MAXWELL.launch_overhead_s,
    };
    let res = train::<f32>(&d.train, &d.test, &cfg, Some(&tm));
    let last = res.trace.points.last().expect("trained at least one epoch");
    last.updates as f64 / last.seconds.max(1e-12)
}

// -------------------------------------------------------------- serve suite

fn serve_report(quick: bool) -> cumf_serve::ServeReport {
    let model = cumf_serve::chaos::synth_model(crate::SEED, 4, 2);
    let cfg = cumf_serve::ServeConfig {
        requests: if quick { 500 } else { 2000 },
        ..cumf_serve::ServeConfig::default()
    };
    cumf_serve::run_closed_loop(&model, &cfg)
}

fn serve_sim_qps(quick: bool) -> f64 {
    serve_report(quick).qps()
}

fn serve_sim_p99_ms(quick: bool) -> f64 {
    serve_report(quick).p(0.99) * 1e3
}

fn serve_topn_queries_per_sec(quick: bool) -> f64 {
    let model = cumf_serve::chaos::synth_model(crate::SEED, 4, 2);
    let q = model.q_matrix();
    let queries: u64 = if quick { 2_000 } else { 10_000 };
    let users = model.users();
    let t0 = Instant::now();
    for i in 0..queries {
        let user = (i % users as u64) as u32;
        let row = model.user_row(user);
        std::hint::black_box(cumf_serve::top_n_blocked(row, q, 0..q.rows(), 10, 64));
    }
    queries as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

/// The registered benchmark cases, all suites, registration order.
pub fn cases() -> Vec<BenchCase> {
    vec![
        BenchCase {
            id: "des_events_per_sec",
            suite: "des",
            unit: "events/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: des_events_per_sec,
        },
        BenchCase {
            id: "des_server_events_per_sec",
            suite: "des",
            unit: "events/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: des_server_events_per_sec,
        },
        BenchCase {
            id: "des_clustered_queue_events_per_sec",
            suite: "des",
            unit: "events/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: des_clustered_queue_events_per_sec,
        },
        BenchCase {
            id: "des_uniform_queue_events_per_sec",
            suite: "des",
            unit: "events/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: des_uniform_queue_events_per_sec,
        },
        BenchCase {
            id: "des_cancel_queue_events_per_sec",
            suite: "des",
            unit: "events/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: des_cancel_queue_events_per_sec,
        },
        BenchCase {
            id: "des_link_sim_bytes_per_sec",
            suite: "des",
            unit: "bytes/s",
            domain: Domain::Sim,
            better: Better::Higher,
            run: des_link_sim_bytes_per_sec,
        },
        BenchCase {
            id: "des_link_sim_end_seconds",
            suite: "des",
            unit: "s",
            domain: Domain::Sim,
            better: Better::Lower,
            run: des_link_sim_end_seconds,
        },
        BenchCase {
            id: "sgd_updates_per_sec_f32",
            suite: "train",
            unit: "updates/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: |quick| sgd_updates_per_sec::<f32>(quick, 1.0),
        },
        BenchCase {
            id: "sgd_updates_per_sec_f16",
            suite: "train",
            unit: "updates/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: |quick| sgd_updates_per_sec::<F16>(quick, 1.0),
        },
        BenchCase {
            id: "epoch_wall_seconds",
            suite: "train",
            unit: "s",
            domain: Domain::Wall,
            better: Better::Lower,
            run: epoch_wall_seconds,
        },
        BenchCase {
            id: "machine_model_updates_per_sec",
            suite: "train",
            unit: "updates/s",
            domain: Domain::Sim,
            better: Better::Higher,
            run: machine_model_updates_per_sec,
        },
        BenchCase {
            id: "serve_sim_qps",
            suite: "serve",
            unit: "req/s",
            domain: Domain::Sim,
            better: Better::Higher,
            run: serve_sim_qps,
        },
        BenchCase {
            id: "serve_sim_p99_ms",
            suite: "serve",
            unit: "ms",
            domain: Domain::Sim,
            better: Better::Lower,
            run: serve_sim_p99_ms,
        },
        BenchCase {
            id: "serve_topn_queries_per_sec",
            suite: "serve",
            unit: "queries/s",
            domain: Domain::Wall,
            better: Better::Higher,
            run: serve_topn_queries_per_sec,
        },
    ]
}

/// The suite names, in run order.
pub fn suite_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    for case in cases() {
        if !names.contains(&case.suite) {
            names.push(case.suite);
        }
    }
    names
}

/// Runs every case of `suite` for `trials` trials and aggregates.
/// Returns `None` for an unknown suite name.
pub fn run_suite(suite: &str, trials: usize, quick: bool) -> Option<SuiteReport> {
    let selected: Vec<BenchCase> = cases().into_iter().filter(|c| c.suite == suite).collect();
    if selected.is_empty() {
        return None;
    }
    let mut metrics = Vec::with_capacity(selected.len());
    for case in &selected {
        let samples: Vec<f64> = (0..trials.max(1)).map(|_| (case.run)(quick)).collect();
        metrics.push(MetricResult {
            id: case.id.to_string(),
            unit: case.unit.to_string(),
            domain: case.domain,
            better: case.better,
            median: median(&samples),
            mad: mad(&samples),
            samples,
        });
    }
    Some(SuiteReport {
        suite: suite.to_string(),
        quick,
        trials: trials.max(1),
        metrics,
        obs_digest: fnv1a_hex(cumf_obs::prometheus().as_bytes()),
    })
}

impl SuiteReport {
    /// Canonical serialization of the sim-domain metrics only — the
    /// part of the report that must be bit-identical across runs.
    pub fn sim_canonical(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().filter(|m| m.domain == Domain::Sim) {
            out.push_str(&m.id);
            out.push('=');
            out.push_str(&num(m.median));
            out.push(';');
        }
        out
    }

    /// FNV-1a digest of [`sim_canonical`](Self::sim_canonical).
    pub fn sim_digest(&self) -> String {
        fnv1a_hex(self.sim_canonical().as_bytes())
    }

    /// Renders the schema-versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
        out.push_str(&format!("  \"suite\": {},\n", quote(&self.suite)));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"trials\": {},\n", self.trials));
        out.push_str(&format!(
            "  \"machine\": {{\"os\": {}, \"arch\": {}, \"cpus\": {}}},\n",
            quote(std::env::consts::OS),
            quote(std::env::consts::ARCH),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ));
        out.push_str(&format!("  \"obs_digest\": {},\n", quote(&self.obs_digest)));
        out.push_str(&format!(
            "  \"sim_digest\": {},\n",
            quote(&self.sim_digest())
        ));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let samples: Vec<String> = m.samples.iter().map(|&s| num(s)).collect();
            out.push_str(&format!(
                "    {{\"id\": {}, \"unit\": {}, \"domain\": {}, \"better\": {}, \
                 \"median\": {}, \"mad\": {}, \"samples\": [{}]}}{}\n",
                quote(&m.id),
                quote(&m.unit),
                quote(m.domain.as_str()),
                quote(m.better.as_str()),
                num(m.median),
                num(m.mad),
                samples.join(", "),
                if i + 1 < self.metrics.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<suite>.json` under [`crate::Report::out_dir`].
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = crate::Report::out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // One outlier barely moves the MAD.
        assert_eq!(mad(&[1.0, 1.0, 1.0, 100.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), fnv1a_hex(b"a"));
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
    }

    #[test]
    fn registry_covers_all_suites_and_domains() {
        let all = cases();
        assert_eq!(suite_names(), vec!["des", "train", "serve"]);
        for suite in ["des", "train", "serve"] {
            let in_suite: Vec<_> = all.iter().filter(|c| c.suite == suite).collect();
            assert!(in_suite.len() >= 3, "{suite} suite too small");
            assert!(
                in_suite.iter().any(|c| c.domain == Domain::Sim),
                "{suite} needs a deterministic sim metric"
            );
            assert!(in_suite.iter().any(|c| c.domain == Domain::Wall));
        }
        // Metric ids are unique (they are the --check join key).
        let mut ids: Vec<_> = all.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn suite_report_round_trips_through_json() {
        let report = SuiteReport {
            suite: "des".into(),
            quick: true,
            trials: 2,
            metrics: vec![MetricResult {
                id: "x".into(),
                unit: "events/s".into(),
                domain: Domain::Sim,
                better: Better::Higher,
                median: 1.5,
                mad: 0.0,
                samples: vec![1.5, 1.5],
            }],
            obs_digest: "00".into(),
        };
        let parsed = crate::json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            parsed.get("sim_digest").unwrap().as_str(),
            Some(report.sim_digest().as_str())
        );
        let metrics = parsed.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics[0].get("median").unwrap().as_f64(), Some(1.5));
        assert_eq!(metrics[0].get("domain").unwrap().as_str(), Some("sim"));
    }

    #[test]
    fn unknown_suite_is_none() {
        assert!(run_suite("nope", 1, true).is_none());
    }
}
