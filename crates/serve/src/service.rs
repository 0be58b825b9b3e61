//! The deterministic closed-loop serving engine.
//!
//! A fleet of simulated clients drives Zipf-skewed top-N requests
//! through a scatter-gather read path over the sharded model, entirely
//! on `cumf-des` sim-time: every latency, shed decision, retry and
//! breaker transition is a pure function of the [`ServeConfig`] (seed
//! included), so two runs produce bit-identical histograms and
//! recovery logs.
//!
//! ## Request lifecycle
//!
//! ```text
//! admission ──shed──────────────────────────────▶ (client thinks, retries later)
//!    │
//!  cache ──hit──────────────────────────────────▶ Ok (cache_hit_s)
//!    │
//!  scatter: read P(u) + every Q shard, replica 0
//!    │         │ per read: FCFS server, timeout, budgeted retry on
//!    │         │ the other replica, hedge after the observed p95,
//!    │         │ per-shard circuit breaker fast-fail
//!    ▼         ▼
//!  gather ── all Ok ────────────────────────────▶ Ok (cached)
//!    │        p Ok, some Q ─────────────────────▶ Degraded(PartialItems)
//!    │        p Ok, no Q / p lost ── stale? ────▶ Degraded(StaleCache)
//!    │                              └── else ──▶ Degraded(PopularityPrior)
//!    ▼
//!  deadline event (scheduled at issue, FIFO-ordered before any
//!  same-instant completion) finalizes whatever has resolved — an
//!  enforcing run can never return a *successful* answer past its
//!  deadline, structurally.
//! ```

use std::collections::VecDeque;
use std::ops::Range;

use cumf_core::digest::fnv1a64;
use cumf_core::faults::{RecoveryKind, RecoveryLog, RetryPolicy};
use cumf_core::Element;
use cumf_data::synth::{zipf_weights, AliasTable};
use cumf_des::{EventQueue, SimTime};
use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

use crate::cache::ResultCache;
use crate::hist::LatencyHistogram;
use crate::policy::{BreakerState, CircuitBreaker, HedgeTracker, TokenBucket};
use crate::shard::{ShardId, ShardedModel};
use crate::topn::{top_n_blocked, top_n_popular, Scored, TopAcc, SCAN_BLOCK};

/// Which overload-control mechanisms are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Token-bucket admission at the front door.
    pub admission: bool,
    /// Finalize every request at its deadline (degraded if needed).
    pub deadline_enforce: bool,
    /// Per-read timeouts (prerequisite for retries and the breaker).
    pub timeouts: bool,
    /// Budgeted retry on the alternate replica after a timeout.
    pub retry_on_timeout: bool,
    /// Hedged second read after the observed latency quantile.
    pub hedging: bool,
    /// Per-shard circuit breaker fast-fail.
    pub breaker: bool,
}

impl OverloadPolicy {
    /// Everything on — the shipped configuration.
    pub fn full() -> Self {
        OverloadPolicy {
            admission: true,
            deadline_enforce: true,
            timeouts: true,
            retry_on_timeout: true,
            hedging: true,
            breaker: true,
        }
    }

    /// Everything off: best-effort serving that answers as late as the
    /// reads take. The control group for every robustness claim.
    pub fn raw() -> Self {
        OverloadPolicy {
            admission: false,
            deadline_enforce: false,
            timeouts: false,
            retry_on_timeout: false,
            hedging: false,
            breaker: false,
        }
    }

    /// Full read-path machinery but no admission control and no
    /// deadline finalizer — what the fleet looks like when the front
    /// door is propped open. Used to demonstrate that admission is the
    /// mechanism upholding the deadline bound under overload.
    pub fn no_admission() -> Self {
        OverloadPolicy {
            admission: false,
            deadline_enforce: false,
            ..OverloadPolicy::full()
        }
    }
}

/// A deterministic fault injected into the serving fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeFault {
    /// Both replicas of `shard` stop answering during `[from_s, until_s)`;
    /// reads started in the window park until recovery.
    ShardLoss {
        /// Which shard is lost.
        shard: ShardId,
        /// Sim-time the loss begins.
        from_s: f64,
        /// Sim-time the shard recovers.
        until_s: f64,
    },
    /// One replica of `shard` slows down by `factor` during the window.
    ShardStall {
        /// Which shard stalls.
        shard: ShardId,
        /// Which replica of it.
        replica: u32,
        /// Sim-time the stall begins.
        from_s: f64,
        /// Sim-time the stall ends.
        until_s: f64,
        /// Service-time multiplier while stalled.
        factor: f64,
    },
}

impl ServeFault {
    fn describe(&self) -> String {
        match self {
            ServeFault::ShardLoss {
                shard,
                from_s,
                until_s,
            } => format!("shard {shard} lost during [{from_s:.3}s, {until_s:.3}s)"),
            ServeFault::ShardStall {
                shard,
                replica,
                from_s,
                until_s,
                factor,
            } => format!(
                "shard {shard} replica {replica} stalled x{factor} during [{from_s:.3}s, {until_s:.3}s)"
            ),
        }
    }
}

/// How a degraded response was composed, from best to worst quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeKind {
    /// Fresh factors, but only the item ranges whose Q-shards answered.
    PartialItems,
    /// A cached result computed against an older model version.
    StaleCache,
    /// Ranked by the training-set popularity prior alone.
    PopularityPrior,
}

impl std::fmt::Display for DegradeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeKind::PartialItems => write!(f, "partial-items"),
            DegradeKind::StaleCache => write!(f, "stale-cache"),
            DegradeKind::PopularityPrior => write!(f, "popularity-prior"),
        }
    }
}

/// Configuration of a closed-loop serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Closed-loop clients (each waits for its response before thinking).
    pub clients: u32,
    /// Total requests to issue before the loop drains.
    pub requests: u32,
    /// Zipf exponent of the user popularity distribution.
    pub zipf_s: f64,
    /// Results per response.
    pub top_n: usize,
    /// LRU result-cache capacity.
    pub cache_capacity: usize,
    /// Per-request deadline (simulated seconds).
    pub deadline_s: f64,
    /// Per-read timeout (simulated seconds).
    pub read_timeout_s: f64,
    /// Mean client think time between requests (exponential).
    pub think_s: f64,
    /// Latency of a result-cache hit.
    pub cache_hit_s: f64,
    /// Mean shard-read service time.
    pub read_base_s: f64,
    /// Uniform jitter fraction on the read service time.
    pub read_jitter: f64,
    /// Parallel service slots per shard replica.
    pub slots_per_replica: u32,
    /// Replicas per shard (hedges and retries target the alternate one).
    pub replicas: u32,
    /// Backoff envelope for read retries.
    pub retry: RetryPolicy,
    /// Global retry budget: tokens/s.
    pub retry_rate: f64,
    /// Global retry budget: burst.
    pub retry_burst: f64,
    /// Admission controller: tokens/s.
    pub admission_rate: f64,
    /// Admission controller: burst.
    pub admission_burst: f64,
    /// Hedge at this quantile of observed read latency.
    pub hedge_quantile: f64,
    /// Hedge delay before the tracker warms up.
    pub hedge_initial_s: f64,
    /// Hedge delay floor.
    pub hedge_floor_s: f64,
    /// Consecutive read failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// Breaker cooldown before the half-open probe.
    pub breaker_cooldown_s: f64,
    /// Which overload controls are active.
    pub policy: OverloadPolicy,
    /// Optional injected fault.
    pub fault: Option<ServeFault>,
    /// Master seed; every stream is derived from it by tag.
    pub seed: u64,
    /// Maximum transcript lines retained in the report.
    pub transcript_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            clients: 16,
            requests: 2000,
            zipf_s: 1.1,
            top_n: 10,
            cache_capacity: 512,
            deadline_s: 0.050,
            read_timeout_s: 0.010,
            think_s: 0.002,
            cache_hit_s: 5.0e-5,
            read_base_s: 8.0e-4,
            read_jitter: 0.25,
            slots_per_replica: 4,
            replicas: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay_s: 0.002,
                multiplier: 2.0,
                max_delay_s: 0.020,
                jitter: 0.25,
                seed: 0xC0FFEE,
            },
            retry_rate: 500.0,
            retry_burst: 32.0,
            admission_rate: 8000.0,
            admission_burst: 64.0,
            hedge_quantile: 0.95,
            hedge_initial_s: 0.005,
            hedge_floor_s: 2.0e-4,
            breaker_threshold: 5,
            breaker_cooldown_s: 0.050,
            policy: OverloadPolicy::full(),
            fault: None,
            seed: 42,
            transcript_limit: 24,
        }
    }
}

/// The liveness annotation the deadlock certifier consumes: the serve
/// deadline must strictly dominate the worst-case shard wait chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeLivenessAnno {
    /// Total service slots per shard (`slots_per_replica × replicas`).
    pub slots: u32,
    /// Worst-case single-read hold time (`read_base_s × (1 + jitter)`).
    pub hold_s: f64,
    /// Worst-case queue depth ahead of a read (every other client's
    /// primary plus hedge: `clients × 2 − 1`).
    pub max_waiters: u32,
    /// The watchdog: the per-request deadline.
    pub deadline_s: f64,
    /// Retry attempts in the envelope (documentation for the cert).
    pub retry_attempts: u32,
    /// Total retry backoff if every attempt fails.
    pub retry_total_backoff_s: f64,
    /// Source anchor for the certificate.
    pub anchor: &'static str,
}

impl ServeConfig {
    /// The liveness numbers the shipped configuration promises.
    pub fn liveness_anno(&self) -> ServeLivenessAnno {
        ServeLivenessAnno {
            slots: self.slots_per_replica * self.replicas,
            hold_s: self.read_base_s * (1.0 + self.read_jitter),
            max_waiters: self.clients * 2 - 1,
            deadline_s: self.deadline_s,
            retry_attempts: self.retry.max_attempts,
            retry_total_backoff_s: self.retry.total_backoff_s(),
            anchor: "crates/serve/src/service.rs",
        }
    }
}

/// Everything a closed-loop run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests issued (admitted or shed).
    pub issued: u64,
    /// Requests that produced a response (shed excluded).
    pub completed: u64,
    /// Full-quality successes (fresh factors, full item coverage).
    pub ok: u64,
    /// Successes answered from the result cache.
    pub cache_hits: u64,
    /// Requests shed by the admission controller.
    pub shed: u64,
    /// Degraded responses with partial item coverage.
    pub degraded_partial: u64,
    /// Degraded responses from the stale cache.
    pub degraded_stale: u64,
    /// Degraded responses from the popularity prior.
    pub degraded_popularity: u64,
    /// Full-quality responses delivered after the deadline (only
    /// possible when deadline enforcement is off).
    pub late_success: u64,
    /// Requests finalized by their deadline event.
    pub deadline_finalized: u64,
    /// Hedge reads issued / hedge reads that won their race.
    pub hedges: u64,
    /// Hedge reads that resolved their shard first.
    pub hedge_wins: u64,
    /// Read retries issued.
    pub retries: u64,
    /// Read timeouts observed.
    pub timeouts: u64,
    /// Reads fast-failed by an open breaker.
    pub breaker_fastfail: u64,
    /// Breaker open transitions across all shards.
    pub breaker_opens: u64,
    /// End-to-end response latency distribution (seconds).
    pub latency: LatencyHistogram,
    /// Individual shard-read latency distribution (seconds).
    pub read_latency: LatencyHistogram,
    /// Fault/degradation event log (digested for determinism checks).
    pub recovery: RecoveryLog,
    /// Sim-time at which the loop drained.
    pub sim_end_s: f64,
    /// Configured deadline (echoed for rendering).
    pub deadline_s: f64,
    /// First few notable events, human-readable.
    pub transcript: Vec<String>,
}

impl ServeReport {
    /// Fraction of completed requests that got a non-empty answer
    /// (degraded allowed; shed requests are not in the denominator).
    pub fn availability(&self) -> f64 {
        if self.completed == 0 {
            return 1.0;
        }
        let answered = self.ok
            + self.cache_hits
            + self.degraded_partial
            + self.degraded_stale
            + self.degraded_popularity;
        answered as f64 / self.completed as f64
    }

    /// Total degraded responses.
    pub fn degraded(&self) -> u64 {
        self.degraded_partial + self.degraded_stale + self.degraded_popularity
    }

    /// Latency quantile in seconds.
    pub fn p(&self, q: f64) -> f64 {
        self.latency.quantile(q).unwrap_or(0.0)
    }

    /// Completed requests per simulated second.
    pub fn qps(&self) -> f64 {
        if self.sim_end_s > 0.0 {
            self.completed as f64 / self.sim_end_s
        } else {
            0.0
        }
    }

    /// Bit-exact fingerprint of the run: latency + read-latency
    /// histograms, the recovery log, and every counter.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for v in [
            self.latency.digest(),
            self.read_latency.digest(),
            self.recovery.digest(),
            self.issued,
            self.completed,
            self.ok,
            self.cache_hits,
            self.shed,
            self.degraded_partial,
            self.degraded_stale,
            self.degraded_popularity,
            self.late_success,
            self.deadline_finalized,
            self.hedges,
            self.hedge_wins,
            self.retries,
            self.timeouts,
            self.breaker_fastfail,
            self.breaker_opens,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&self.sim_end_s.to_bits().to_le_bytes());
        fnv1a64(&bytes)
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let ms = |s: f64| s * 1e3;
        let mut out = String::new();
        out.push_str("metric                      value\n");
        out.push_str("--------------------------  ----------\n");
        out.push_str(&format!("requests issued             {}\n", self.issued));
        out.push_str(&format!("completed                   {}\n", self.completed));
        out.push_str(&format!(
            "ok (full quality)           {}\n",
            self.ok + self.cache_hits
        ));
        out.push_str(&format!(
            "  of which cache hits       {}\n",
            self.cache_hits
        ));
        out.push_str(&format!("shed (admission)            {}\n", self.shed));
        out.push_str(&format!(
            "degraded                    {} (partial {}, stale {}, popularity {})\n",
            self.degraded(),
            self.degraded_partial,
            self.degraded_stale,
            self.degraded_popularity
        ));
        out.push_str(&format!(
            "availability                {:.4}\n",
            self.availability()
        ));
        out.push_str(&format!(
            "late successes              {} (deadline {:.1} ms)\n",
            self.late_success,
            ms(self.deadline_s)
        ));
        out.push_str(&format!(
            "p50 / p99 / p999            {:.2} / {:.2} / {:.2} ms\n",
            ms(self.p(0.50)),
            ms(self.p(0.99)),
            ms(self.p(0.999))
        ));
        out.push_str(&format!(
            "throughput                  {:.0} req/s (sim)\n",
            self.qps()
        ));
        out.push_str(&format!(
            "hedges / wins               {} / {}\n",
            self.hedges, self.hedge_wins
        ));
        out.push_str(&format!(
            "timeouts / retries          {} / {}\n",
            self.timeouts, self.retries
        ));
        out.push_str(&format!(
            "breaker opens / fastfails   {} / {}\n",
            self.breaker_opens, self.breaker_fastfail
        ));
        out.push_str(&format!(
            "digest                      {:016x}\n",
            self.digest()
        ));
        out
    }
}

// ------------------------------------------------------------------ engine

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A client is ready to issue its next request.
    ClientNext { client: u32 },
    /// A shard read finished service at its replica.
    ReadDone { read: usize },
    /// A shard read's timeout expired.
    ReadTimeout { read: usize },
    /// Issue the hedge read for a request's fetch.
    Hedge { req: usize, fetch: usize },
    /// Issue a retry read for a request's fetch.
    Retry { req: usize, fetch: usize },
    /// Finalize the request with whatever has resolved.
    Deadline { req: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchStatus {
    Pending,
    Ok,
    Failed,
}

#[derive(Debug)]
struct Fetch {
    shard: ShardId,
    status: FetchStatus,
    /// Attempts used so far (0 = primary only).
    attempt: u32,
    hedged: bool,
}

#[derive(Debug)]
struct Request {
    client: u32,
    user: u32,
    issue_s: f64,
    fetches: Vec<Fetch>,
    outstanding: u32,
    finalized: bool,
}

#[derive(Debug)]
struct Read {
    req: usize,
    fetch: usize,
    shard: ShardId,
    replica: u32,
    issue_s: f64,
    is_hedge: bool,
    /// Service completed (slot freed, result delivered or ignored).
    done: bool,
    /// The request gave up on this read (timeout); service may still
    /// be grinding and will free its slot when it completes.
    abandoned: bool,
    started: bool,
}

#[derive(Debug, Default)]
struct Server {
    busy: u32,
    queue: VecDeque<usize>,
}

fn sub_rng(seed: u64, tag: &str, a: u64, b: u64) -> ChaCha8Rng {
    let mut bytes = Vec::with_capacity(24 + tag.len());
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(tag.as_bytes());
    bytes.extend_from_slice(&a.to_le_bytes());
    bytes.extend_from_slice(&b.to_le_bytes());
    ChaCha8Rng::seed_from_u64(fnv1a64(&bytes))
}

struct Sim<'m, E: Element> {
    model: &'m ShardedModel<E>,
    cfg: ServeConfig,
    users: AliasTable,
    queue: EventQueue<Ev>,
    now: f64,
    requests: Vec<Request>,
    reads: Vec<Read>,
    servers: Vec<Server>,
    breakers: Vec<CircuitBreaker>,
    breaker_was_open: Vec<bool>,
    admission: TokenBucket,
    retry_budget: TokenBucket,
    hedge: HedgeTracker,
    cache: ResultCache,
    think_seq: Vec<u64>,
    issued: u64,
    report: ServeReport,
    /// Lockset-sanitizer instance id for the shard/slot state (feature
    /// `sanitize`): every `Server::busy`/`Server::queue` mutation is
    /// reported as a write to `("serve-slot", (san_id, server idx))`.
    /// The DES event loop is single-threaded, so each slot must stay in
    /// the sanitizer's thread-exclusive state — any report is a bug.
    #[cfg(feature = "sanitize")]
    san_id: u64,
}

impl<'m, E: Element> Sim<'m, E> {
    fn new(model: &'m ShardedModel<E>, cfg: ServeConfig) -> Self {
        assert!(cfg.replicas >= 1 && cfg.slots_per_replica >= 1);
        assert!(cfg.clients >= 1);
        let users = AliasTable::new(&zipf_weights(model.users() as usize, cfg.zipf_s));
        let shard_count = model.shard_count();
        let servers = (0..shard_count * cfg.replicas as usize)
            .map(|_| Server::default())
            .collect();
        let breakers = (0..shard_count)
            .map(|_| CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_s))
            .collect();
        let report = ServeReport {
            issued: 0,
            completed: 0,
            ok: 0,
            cache_hits: 0,
            shed: 0,
            degraded_partial: 0,
            degraded_stale: 0,
            degraded_popularity: 0,
            late_success: 0,
            deadline_finalized: 0,
            hedges: 0,
            hedge_wins: 0,
            retries: 0,
            timeouts: 0,
            breaker_fastfail: 0,
            breaker_opens: 0,
            latency: LatencyHistogram::new(),
            read_latency: LatencyHistogram::new(),
            recovery: RecoveryLog::default(),
            sim_end_s: 0.0,
            deadline_s: cfg.deadline_s,
            transcript: Vec::new(),
        };
        Sim {
            model,
            users,
            queue: EventQueue::new(),
            now: 0.0,
            requests: Vec::new(),
            reads: Vec::new(),
            servers,
            breakers,
            breaker_was_open: vec![false; shard_count],
            admission: TokenBucket::new(cfg.admission_rate, cfg.admission_burst),
            retry_budget: TokenBucket::new(cfg.retry_rate, cfg.retry_burst),
            hedge: HedgeTracker::new(cfg.hedge_quantile, cfg.hedge_initial_s, cfg.hedge_floor_s),
            cache: ResultCache::new(cfg.cache_capacity),
            think_seq: vec![0; cfg.clients as usize],
            issued: 0,
            cfg,
            report,
            #[cfg(feature = "sanitize")]
            san_id: cumf_core::sanitize::new_instance(),
        }
    }

    /// Reports a slot-state mutation to the lockset sanitizer (no-op
    /// without the `sanitize` feature).
    #[cfg(feature = "sanitize")]
    fn san_slot_write(&self, idx: usize) {
        cumf_core::sanitize::on_access(
            "serve-slot",
            (self.san_id, idx as u32),
            cumf_core::sanitize::AccessKind::Write,
        );
    }

    #[cfg(not(feature = "sanitize"))]
    fn san_slot_write(&self, _idx: usize) {}

    fn note(&mut self, line: String) {
        if self.report.transcript.len() < self.cfg.transcript_limit {
            self.report
                .transcript
                .push(format!("[{:8.4}s] {line}", self.now));
        }
    }

    fn at(&mut self, delay_s: f64, ev: Ev) {
        self.queue
            .schedule(SimTime::from_secs(self.now + delay_s.max(0.0)), ev);
    }

    fn think_delay(&mut self, client: u32) -> f64 {
        let seq = self.think_seq[client as usize];
        self.think_seq[client as usize] += 1;
        let u: f64 = sub_rng(self.cfg.seed, "think", client as u64, seq).gen();
        (-self.cfg.think_s * (1.0 - u).ln()).max(1.0e-6)
    }

    /// Loss window end, if `shard` is lost at `t`.
    fn loss_until(&self, shard: ShardId, t: f64) -> Option<f64> {
        match self.cfg.fault {
            Some(ServeFault::ShardLoss {
                shard: s,
                from_s,
                until_s,
            }) if s == shard && t >= from_s && t < until_s => Some(until_s),
            _ => None,
        }
    }

    fn stall_factor(&self, shard: ShardId, replica: u32, t: f64) -> f64 {
        match self.cfg.fault {
            Some(ServeFault::ShardStall {
                shard: s,
                replica: r,
                from_s,
                until_s,
                factor,
            }) if s == shard && r == replica && t >= from_s && t < until_s => factor,
            _ => 1.0,
        }
    }

    // -------------------------------------------------------- read path

    fn server_idx(&self, shard: ShardId, replica: u32) -> usize {
        shard * self.cfg.replicas as usize + replica as usize
    }

    fn start_service(&mut self, read_id: usize) {
        let (shard, replica) = (self.reads[read_id].shard, self.reads[read_id].replica);
        self.reads[read_id].started = true;
        let u: f64 = sub_rng(self.cfg.seed, "svc", read_id as u64, 0).gen();
        let mut svc = self.cfg.read_base_s * (1.0 + self.cfg.read_jitter * (2.0 * u - 1.0));
        svc *= self.stall_factor(shard, replica, self.now);
        if let Some(until) = self.loss_until(shard, self.now) {
            // The read parks until the shard recovers, then services.
            svc += until - self.now;
        }
        self.at(svc, Ev::ReadDone { read: read_id });
    }

    fn enqueue_read(&mut self, read_id: usize) {
        let idx = self.server_idx(self.reads[read_id].shard, self.reads[read_id].replica);
        self.san_slot_write(idx);
        if self.servers[idx].busy < self.cfg.slots_per_replica {
            self.servers[idx].busy += 1;
            self.start_service(read_id);
        } else {
            self.servers[idx].queue.push_back(read_id);
        }
    }

    /// Issues one read attempt for `(req, fetch)`. Returns `false` when
    /// the breaker fast-failed it (caller walks the retry path).
    fn issue_read(&mut self, req: usize, fetch: usize, replica: u32, is_hedge: bool) -> bool {
        let shard = self.requests[req].fetches[fetch].shard;
        if self.cfg.policy.breaker && !self.breakers[shard].allow(self.now) {
            self.report.breaker_fastfail += 1;
            return false;
        }
        let read_id = self.reads.len();
        self.reads.push(Read {
            req,
            fetch,
            shard,
            replica,
            issue_s: self.now,
            is_hedge,
            done: false,
            abandoned: false,
            started: false,
        });
        self.enqueue_read(read_id);
        if self.cfg.policy.timeouts {
            self.at(self.cfg.read_timeout_s, Ev::ReadTimeout { read: read_id });
        }
        true
    }

    /// A read attempt for `(req, fetch)` failed (timeout or breaker
    /// fast-fail): retry under the budget, or resolve the fetch Failed.
    fn fail_fetch(&mut self, req: usize, fetch: usize) {
        if self.requests[req].finalized
            || self.requests[req].fetches[fetch].status != FetchStatus::Pending
        {
            return;
        }
        let attempt = self.requests[req].fetches[fetch].attempt;
        let can_retry = self.cfg.policy.retry_on_timeout
            && attempt + 1 < self.cfg.retry.max_attempts
            && self.retry_budget.try_take(self.now);
        if can_retry {
            self.requests[req].fetches[fetch].attempt = attempt + 1;
            self.report.retries += 1;
            let backoff = self.cfg.retry.delay(attempt);
            self.at(backoff, Ev::Retry { req, fetch });
        } else {
            self.requests[req].fetches[fetch].status = FetchStatus::Failed;
            self.requests[req].outstanding -= 1;
            if self.requests[req].outstanding == 0 {
                self.finalize(req, false);
            }
        }
    }

    fn breaker_transitions(&mut self, shard: ShardId, req: usize) {
        let open = self.breakers[shard].state() == BreakerState::Open;
        if open && !self.breaker_was_open[shard] {
            self.report.breaker_opens += 1;
            let name = self.model.shard_name(shard);
            self.report.recovery.push(
                req as u32,
                RecoveryKind::Detected,
                format!("breaker open: shard {name}"),
            );
            self.note(format!("breaker OPEN on shard {name}"));
        }
        if !open && self.breaker_was_open[shard] {
            let name = self.model.shard_name(shard);
            self.report.recovery.push(
                req as u32,
                RecoveryKind::Recovered,
                format!("breaker closed: shard {name}"),
            );
            self.note(format!("breaker closed on shard {name}"));
        }
        self.breaker_was_open[shard] = open;
    }

    // ---------------------------------------------------- request path

    fn issue_request(&mut self, client: u32) {
        let req_seq = self.issued;
        self.issued += 1;
        self.report.issued += 1;
        let user = self
            .users
            .sample(&mut sub_rng(self.cfg.seed, "user", req_seq, 0));

        if self.cfg.policy.admission && !self.admission.try_take(self.now) {
            self.report.shed += 1;
            let think = self.think_delay(client);
            self.at(think, Ev::ClientNext { client });
            return;
        }

        if self.cache.get(user, self.model.version()).is_some() {
            self.report.cache_hits += 1;
            self.report.completed += 1;
            self.report.latency.record(self.cfg.cache_hit_s);
            let think = self.cfg.cache_hit_s + self.think_delay(client);
            self.at(think, Ev::ClientNext { client });
            return;
        }

        let req = self.requests.len();
        let mut fetches = Vec::with_capacity(1 + self.model.q_shards() as usize);
        fetches.push(Fetch {
            shard: self.model.p_shard_of(user),
            status: FetchStatus::Pending,
            attempt: 0,
            hedged: false,
        });
        for bj in 0..self.model.q_shards() {
            fetches.push(Fetch {
                shard: self.model.q_shard_id(bj),
                status: FetchStatus::Pending,
                attempt: 0,
                hedged: false,
            });
        }
        let outstanding = fetches.len() as u32;
        self.requests.push(Request {
            client,
            user,
            issue_s: self.now,
            fetches,
            outstanding,
            finalized: false,
        });

        // Deadline first: at an equal instant the FIFO tie-break pops it
        // before any completion scheduled later, so an enforcing run can
        // never finalize a success at t > issue + deadline.
        if self.cfg.policy.deadline_enforce {
            self.at(self.cfg.deadline_s, Ev::Deadline { req });
        }
        let hedge_delay = self.hedge.delay_s();
        for fetch in 0..self.requests[req].fetches.len() {
            if !self.issue_read(req, fetch, 0, false) {
                self.fail_fetch(req, fetch);
            }
            if self.cfg.policy.hedging && self.cfg.replicas > 1 {
                self.at(hedge_delay, Ev::Hedge { req, fetch });
            }
        }
    }

    /// Top-N over the item ranges whose Q-shards answered.
    fn scan_ranges(&self, user: u32, ranges: &[Range<u32>]) -> Vec<Scored> {
        let mut acc = TopAcc::new(self.cfg.top_n);
        for r in ranges {
            for s in top_n_blocked(
                self.model.user_row(user),
                self.model.q_matrix(),
                r.clone(),
                self.cfg.top_n,
                SCAN_BLOCK,
            ) {
                acc.offer(s.item, s.score);
            }
        }
        acc.into_sorted()
    }

    fn finalize(&mut self, req: usize, by_deadline: bool) {
        if self.requests[req].finalized {
            return;
        }
        self.requests[req].finalized = true;
        let user = self.requests[req].user;
        let client = self.requests[req].client;
        let latency = self.now - self.requests[req].issue_s;
        if by_deadline {
            self.report.deadline_finalized += 1;
        }

        let p_ok = self.requests[req].fetches[0].status == FetchStatus::Ok;
        let ok_ranges: Vec<Range<u32>> = self.requests[req].fetches[1..]
            .iter()
            .enumerate()
            .filter(|(_, f)| f.status == FetchStatus::Ok)
            .map(|(bj, _)| self.model.item_range(bj as u32))
            .collect();
        let full = p_ok && ok_ranges.len() == self.model.q_shards() as usize;

        let degrade: Option<DegradeKind>;
        let result: Vec<Scored>;
        if full {
            degrade = None;
            result = self.scan_ranges(user, &ok_ranges);
            self.cache.put(user, self.model.version(), result.clone());
        } else if p_ok && !ok_ranges.is_empty() {
            degrade = Some(DegradeKind::PartialItems);
            result = self.scan_ranges(user, &ok_ranges);
        } else if let Some((_, stale)) = self.cache.get_stale(user) {
            degrade = Some(DegradeKind::StaleCache);
            result = stale.to_vec();
        } else {
            degrade = Some(DegradeKind::PopularityPrior);
            result = top_n_popular(
                self.model.popularity(),
                0..self.model.items(),
                self.cfg.top_n,
            );
        }

        self.report.completed += 1;
        self.report.latency.record(latency);
        cumf_obs::histogram("cumf_serve_latency_seconds", "End-to-end serve latency")
            .record(latency);
        match degrade {
            None => {
                self.report.ok += 1;
                if latency > self.cfg.deadline_s * (1.0 + 1.0e-9) {
                    self.report.late_success += 1;
                }
            }
            Some(kind) => {
                match kind {
                    DegradeKind::PartialItems => self.report.degraded_partial += 1,
                    DegradeKind::StaleCache => self.report.degraded_stale += 1,
                    DegradeKind::PopularityPrior => self.report.degraded_popularity += 1,
                }
                self.report.recovery.push(
                    req as u32,
                    RecoveryKind::Degraded,
                    format!("user {user}: {kind} ({} items)", result.len()),
                );
                self.note(format!(
                    "degraded response for user {user}: {kind} ({} items, {:.1} ms)",
                    result.len(),
                    latency * 1e3
                ));
            }
        }
        let think = self.think_delay(client);
        self.at(think, Ev::ClientNext { client });
    }

    // ------------------------------------------------------- event loop

    fn on_read_done(&mut self, read_id: usize) {
        // Free the slot and pull the next queued read whose request is
        // still interested; stale queue entries are dropped unserved.
        let sidx = self.server_idx(self.reads[read_id].shard, self.reads[read_id].replica);
        self.reads[read_id].done = true;
        self.san_slot_write(sidx);
        self.servers[sidx].busy -= 1;
        while let Some(next) = self.servers[sidx].queue.pop_front() {
            let r = &self.reads[next];
            let live = !r.abandoned
                && !self.requests[r.req].finalized
                && self.requests[r.req].fetches[r.fetch].status == FetchStatus::Pending;
            if live {
                self.servers[sidx].busy += 1;
                self.start_service(next);
                break;
            }
            self.reads[next].done = true;
        }

        let (req, fetch, shard, is_hedge, issue_s) = {
            let r = &self.reads[read_id];
            (r.req, r.fetch, r.shard, r.is_hedge, r.issue_s)
        };
        if self.reads[read_id].abandoned {
            return;
        }
        let read_latency = self.now - issue_s;
        self.report.read_latency.record(read_latency);
        self.hedge.observe(read_latency);
        if self.cfg.policy.breaker {
            self.breakers[shard].on_success();
            self.breaker_transitions(shard, req);
        }
        if self.requests[req].finalized
            || self.requests[req].fetches[fetch].status != FetchStatus::Pending
        {
            return;
        }
        if is_hedge {
            self.report.hedge_wins += 1;
        }
        self.requests[req].fetches[fetch].status = FetchStatus::Ok;
        self.requests[req].outstanding -= 1;
        if self.requests[req].outstanding == 0 {
            self.finalize(req, false);
        }
    }

    fn on_read_timeout(&mut self, read_id: usize) {
        if self.reads[read_id].done || self.reads[read_id].abandoned {
            return;
        }
        self.reads[read_id].abandoned = true;
        self.report.timeouts += 1;
        let (req, fetch, shard, is_hedge) = {
            let r = &self.reads[read_id];
            (r.req, r.fetch, r.shard, r.is_hedge)
        };
        if self.cfg.policy.breaker {
            self.breakers[shard].on_failure(self.now);
            self.breaker_transitions(shard, req);
        }
        if is_hedge {
            // The primary attempt owns the retry budget.
            return;
        }
        self.fail_fetch(req, fetch);
    }

    fn on_hedge(&mut self, req: usize, fetch: usize) {
        if self.requests[req].finalized
            || self.requests[req].fetches[fetch].status != FetchStatus::Pending
            || self.requests[req].fetches[fetch].hedged
        {
            return;
        }
        self.requests[req].fetches[fetch].hedged = true;
        self.report.hedges += 1;
        // A breaker fast-fail of a hedge is silent: the primary path
        // owns failure handling.
        let _ = self.issue_read(req, fetch, 1 % self.cfg.replicas, true);
    }

    fn on_retry(&mut self, req: usize, fetch: usize) {
        if self.requests[req].finalized
            || self.requests[req].fetches[fetch].status != FetchStatus::Pending
        {
            return;
        }
        let attempt = self.requests[req].fetches[fetch].attempt;
        let replica = attempt % self.cfg.replicas;
        if !self.issue_read(req, fetch, replica, false) {
            self.fail_fetch(req, fetch);
        }
    }

    fn run(mut self) -> ServeReport {
        if let Some(fault) = self.cfg.fault {
            self.report
                .recovery
                .push(0, RecoveryKind::Injected, fault.describe());
            let line = format!("fault injected: {}", fault.describe());
            self.note(line);
        }
        for client in 0..self.cfg.clients {
            let t = client as f64 * 1.0e-4;
            self.queue
                .schedule(SimTime::from_secs(t), Ev::ClientNext { client });
        }
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t.as_secs();
            match ev {
                Ev::ClientNext { client } => {
                    if self.issued < self.cfg.requests as u64 {
                        self.issue_request(client);
                    }
                }
                Ev::ReadDone { read } => self.on_read_done(read),
                Ev::ReadTimeout { read } => self.on_read_timeout(read),
                Ev::Hedge { req, fetch } => self.on_hedge(req, fetch),
                Ev::Retry { req, fetch } => self.on_retry(req, fetch),
                Ev::Deadline { req } => self.finalize(req, true),
            }
        }
        self.report.sim_end_s = self.now;
        let c = |name: &str, help: &str, v: u64| {
            cumf_obs::counter(name, help).add(v);
        };
        c(
            "cumf_serve_requests_total",
            "Serve requests issued",
            self.report.issued,
        );
        c(
            "cumf_serve_shed_total",
            "Requests shed by admission control",
            self.report.shed,
        );
        c(
            "cumf_serve_degraded_total",
            "Degraded serve responses",
            self.report.degraded(),
        );
        c(
            "cumf_serve_hedges_total",
            "Hedge reads issued",
            self.report.hedges,
        );
        self.report
    }
}

/// Runs one closed-loop serving experiment over `model` and returns the
/// full report. Bit-deterministic: equal `(model, cfg)` gives an equal
/// [`ServeReport::digest`].
pub fn run_closed_loop<E: Element>(model: &ShardedModel<E>, cfg: &ServeConfig) -> ServeReport {
    Sim::new(model, cfg.clone()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_core::FactorMatrix;
    use cumf_rng::{ChaCha8Rng, SeedableRng};

    fn model() -> ShardedModel<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let p = FactorMatrix::<f32>::random_init(120, 8, &mut rng);
        let q = FactorMatrix::<f32>::random_init(90, 8, &mut rng);
        ShardedModel::new(p, q, 2, 2, None)
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            requests: 300,
            clients: 8,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthy_run_is_all_successes() {
        let m = model();
        let r = run_closed_loop(&m, &quick_cfg());
        assert_eq!(r.issued, 300);
        assert_eq!(r.completed + r.shed, 300);
        assert_eq!(r.degraded(), 0);
        assert_eq!(r.late_success, 0);
        assert!(r.cache_hits > 0, "Zipf users must repeat");
        assert!((r.availability() - 1.0).abs() < 1e-12);
        assert!(r.p(0.99) <= r.deadline_s);
    }

    #[test]
    fn identical_configs_produce_identical_digests() {
        let m = model();
        let a = run_closed_loop(&m, &quick_cfg());
        let b = run_closed_loop(&m, &quick_cfg());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.recovery.digest(), b.recovery.digest());
        let mut other = quick_cfg();
        other.seed ^= 1;
        let c = run_closed_loop(&m, &other);
        assert_ne!(a.digest(), c.digest(), "seed must matter");
    }

    #[test]
    fn shard_loss_degrades_but_never_errors() {
        let m = model();
        let mut cfg = quick_cfg();
        cfg.fault = Some(ServeFault::ShardLoss {
            shard: m.q_shard_id(1),
            from_s: 0.05,
            until_s: 0.30,
        });
        let r = run_closed_loop(&m, &cfg);
        assert!(r.degraded() > 0, "loss must force degraded answers");
        assert_eq!(r.late_success, 0);
        assert!(r.availability() >= 0.99);
        assert!(r.breaker_opens >= 1, "breaker must trip during the loss");
        assert!(r.recovery.count(RecoveryKind::Injected) == 1);
    }

    #[test]
    fn raw_policy_returns_late_under_loss() {
        let m = model();
        let mut cfg = quick_cfg();
        cfg.policy = OverloadPolicy::raw();
        cfg.fault = Some(ServeFault::ShardLoss {
            shard: m.q_shard_id(0),
            from_s: 0.05,
            until_s: 0.40,
        });
        let r = run_closed_loop(&m, &cfg);
        assert!(r.late_success > 0, "raw mode must violate the deadline");
        assert!(r.latency.max() > cfg.deadline_s);
    }

    #[test]
    fn liveness_anno_matches_the_configuration() {
        let cfg = ServeConfig::default();
        let a = cfg.liveness_anno();
        assert_eq!(a.slots, 8);
        assert_eq!(a.max_waiters, 31);
        assert!((a.hold_s - 1.0e-3).abs() < 1e-12);
        // The deadline strictly dominates the worst-case wait chain:
        // ceil(31/8) * hold + hold = 5 ms << 50 ms.
        let chain = (a.max_waiters as f64 / a.slots as f64).ceil() * a.hold_s + a.hold_s;
        assert!(a.deadline_s > chain);
    }
}
