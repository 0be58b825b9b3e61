//! Chaos scenarios for the serving path.
//!
//! Each scenario builds a model from planted synth factors, runs the
//! closed loop **twice** with an identical config, and passes only if
//! (a) the two digests are bit-equal (determinism) and (b) the
//! scenario's robustness assertions hold — availability under shard
//! loss, zero deadline-violating successes, breaker engagement, hedging
//! beating the stall, admission shedding upholding the deadline bound
//! and its absence demonstrably breaking it.

use cumf_core::FactorMatrix;
use cumf_data::synth::{generate, SynthConfig};

use crate::service::{run_closed_loop, OverloadPolicy, ServeConfig, ServeFault, ServeReport};
use crate::shard::ShardedModel;

/// Options for the serving chaos suite.
#[derive(Debug, Clone, Copy)]
pub struct ServeChaosOptions {
    /// Master seed for every scenario.
    pub seed: u64,
    /// Quick mode: fewer requests per scenario (CI-sized).
    pub quick: bool,
}

impl Default for ServeChaosOptions {
    fn default() -> Self {
        ServeChaosOptions {
            seed: 42,
            quick: false,
        }
    }
}

/// Outcome of one scenario.
#[derive(Debug, Clone)]
pub struct ServeScenarioResult {
    /// Scenario name (`serve/...`).
    pub name: String,
    /// All assertions held.
    pub passed: bool,
    /// Two identical runs produced bit-equal digests.
    pub deterministic: bool,
    /// Digest of the (first) run.
    pub digest: u64,
    /// Human-readable summary of what was checked.
    pub detail: String,
}

/// The whole suite's outcome.
#[derive(Debug, Clone)]
pub struct ServeChaosReport {
    /// Per-scenario results.
    pub scenarios: Vec<ServeScenarioResult>,
}

impl ServeChaosReport {
    /// True when every scenario passed (including determinism).
    pub fn all_passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.passed && s.deterministic)
    }

    /// Human-readable results table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("scenario                  result  deterministic  digest            detail\n");
        out.push_str("------------------------  ------  -------------  ----------------  ------\n");
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<24}  {:<6}  {:<13}  {:016x}  {}\n",
                s.name,
                if s.passed { "PASS" } else { "FAIL" },
                if s.deterministic { "yes" } else { "NO" },
                s.digest,
                s.detail
            ));
        }
        out
    }
}

/// Users × items of [`synth_model`].
pub const SYNTH_SHAPE: (u32, u32) = (240, 180);

/// Builds the serving model used by chaos, the CLI fallback, and the
/// benches: planted synth factors (the "trained" model) sharded on a
/// `p_shards × q_shards` grid, with training-set item degrees as the
/// popularity prior.
pub fn synth_model(seed: u64, p_shards: u32, q_shards: u32) -> ShardedModel<f32> {
    let (m, n) = SYNTH_SHAPE;
    let data = generate(&SynthConfig {
        m,
        n,
        k_true: 8,
        train_samples: 12_000,
        test_samples: 1_000,
        seed,
        ..SynthConfig::default()
    });
    let p = FactorMatrix::<f32>::from_f32_slice(m, 8, &data.p_true);
    let q = FactorMatrix::<f32>::from_f32_slice(n, 8, &data.q_true);
    let pop: Vec<f32> = data.train.col_degrees().iter().map(|&d| d as f32).collect();
    ShardedModel::new(p, q, p_shards, q_shards, Some(pop))
}

fn run_twice(model: &ShardedModel<f32>, cfg: &ServeConfig) -> (ServeReport, bool) {
    let a = run_closed_loop(model, cfg);
    let b = run_closed_loop(model, cfg);
    let deterministic = a.digest() == b.digest()
        && a.recovery.digest() == b.recovery.digest()
        && a.shed == b.shed
        && a.degraded() == b.degraded();
    (a, deterministic)
}

struct Check {
    passed: bool,
    detail: String,
}

fn check(conds: &[(&str, bool)], extra: String) -> Check {
    let failed: Vec<&str> = conds
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    Check {
        passed: failed.is_empty(),
        detail: if failed.is_empty() {
            extra
        } else {
            format!("FAILED: {} | {extra}", failed.join(", "))
        },
    }
}

/// Runs all serving chaos scenarios.
pub fn run_serve_chaos(opts: &ServeChaosOptions) -> ServeChaosReport {
    let model = synth_model(opts.seed, 2, 2);
    let requests: u32 = if opts.quick { 500 } else { 1500 };
    // The loss window must outlast the deadline, or a raw-policy run
    // could wait out the fault and still answer "in time".
    let loss_until = if opts.quick { 0.100 } else { 0.150 };
    let base = ServeConfig {
        requests,
        seed: opts.seed,
        ..ServeConfig::default()
    };
    let mut scenarios = Vec::new();

    // --- serve/baseline: healthy fleet, full policy. -------------------
    {
        let (r, det) = run_twice(&model, &base);
        let c = check(
            &[
                ("availability==1", (r.availability() - 1.0).abs() < 1e-12),
                ("no-shed", r.shed == 0),
                ("no-late", r.late_success == 0),
                ("no-degraded", r.degraded() == 0),
                ("p99<=deadline", r.p(0.99) <= r.deadline_s),
                ("cache-hits", r.cache_hits > 0),
            ],
            format!(
                "p99 {:.1}ms, {} cache hits, {:.0} req/s",
                r.p(0.99) * 1e3,
                r.cache_hits,
                r.qps()
            ),
        );
        scenarios.push(ServeScenarioResult {
            name: "serve/baseline".into(),
            passed: c.passed,
            deterministic: det,
            digest: r.digest(),
            detail: c.detail,
        });
    }

    // --- serve/q-shard-loss: the headline acceptance scenario. ---------
    // Losing one item shard under Zipf s=1.1 closed-loop load must keep
    // availability >= 99% (degraded allowed), produce zero
    // deadline-violating successes, trip the breaker, and stay
    // bit-deterministic.
    {
        let mut cfg = base.clone();
        cfg.fault = Some(ServeFault::ShardLoss {
            shard: model.q_shard_id(1),
            from_s: 0.020,
            until_s: loss_until,
        });
        let (r, det) = run_twice(&model, &cfg);
        let c = check(
            &[
                ("availability>=0.99", r.availability() >= 0.99),
                ("zero-late-successes", r.late_success == 0),
                ("degraded>0", r.degraded() > 0),
                ("breaker-opened", r.breaker_opens >= 1),
            ],
            format!(
                "availability {:.4}, {} degraded, {} breaker opens, p99 {:.1}ms",
                r.availability(),
                r.degraded(),
                r.breaker_opens,
                r.p(0.99) * 1e3
            ),
        );
        scenarios.push(ServeScenarioResult {
            name: "serve/q-shard-loss".into(),
            passed: c.passed,
            deterministic: det,
            digest: r.digest(),
            detail: c.detail,
        });
    }

    // --- serve/q-shard-loss-raw: the control group. --------------------
    // Same fault with every control off: requests wait out the loss and
    // return successfully but *late* — proving the deadline machinery
    // (not luck) produces the zero-late property above.
    {
        let mut cfg = base.clone();
        cfg.policy = OverloadPolicy::raw();
        cfg.fault = Some(ServeFault::ShardLoss {
            shard: model.q_shard_id(1),
            from_s: 0.020,
            until_s: loss_until,
        });
        let (r, det) = run_twice(&model, &cfg);
        let c = check(
            &[
                ("late-successes>0", r.late_success > 0),
                ("max>deadline", r.latency.max() > r.deadline_s),
            ],
            format!(
                "{} late successes, max latency {:.0}ms",
                r.late_success,
                r.latency.max() * 1e3
            ),
        );
        scenarios.push(ServeScenarioResult {
            name: "serve/q-shard-loss-raw".into(),
            passed: c.passed,
            deterministic: det,
            digest: r.digest(),
            detail: c.detail,
        });
    }

    // --- serve/p-shard-loss: user-factor loss. -------------------------
    // Losing a P-shard removes the user embedding itself; answers come
    // from the stale cache (hot users) or the popularity prior.
    {
        let mut cfg = base.clone();
        cfg.fault = Some(ServeFault::ShardLoss {
            shard: 0,
            from_s: 0.020,
            until_s: loss_until,
        });
        let (r, det) = run_twice(&model, &cfg);
        let c = check(
            &[
                ("availability>=0.99", r.availability() >= 0.99),
                ("zero-late-successes", r.late_success == 0),
                (
                    "stale-or-popularity",
                    r.degraded_stale + r.degraded_popularity > 0,
                ),
            ],
            format!(
                "{} stale, {} popularity, availability {:.4}",
                r.degraded_stale,
                r.degraded_popularity,
                r.availability()
            ),
        );
        scenarios.push(ServeScenarioResult {
            name: "serve/p-shard-loss".into(),
            passed: c.passed,
            deterministic: det,
            digest: r.digest(),
            detail: c.detail,
        });
    }

    // --- serve/stall-hedge: hedging beats a slow replica. --------------
    // One replica of a Q-shard slows 20x (service > read timeout). With
    // hedging the duplicate read on the healthy replica wins the race;
    // without it every affected read eats the timeout + retry path.
    {
        let stall = ServeFault::ShardStall {
            shard: model.q_shard_id(0),
            replica: 0,
            from_s: 0.010,
            until_s: 1.0e6,
            factor: 20.0,
        };
        let mut hedged = base.clone();
        hedged.fault = Some(stall);
        let mut unhedged = hedged.clone();
        unhedged.policy.hedging = false;
        let (rh, det) = run_twice(&model, &hedged);
        let ru = run_closed_loop(&model, &unhedged);
        let c = check(
            &[
                ("hedges>0", rh.hedges > 0),
                ("hedge-wins>0", rh.hedge_wins > 0),
                ("hedged-p99<unhedged-p99", rh.p(0.99) < ru.p(0.99)),
                ("zero-late-successes", rh.late_success == 0),
            ],
            format!(
                "p99 hedged {:.1}ms vs unhedged {:.1}ms, {} wins",
                rh.p(0.99) * 1e3,
                ru.p(0.99) * 1e3,
                rh.hedge_wins
            ),
        );
        scenarios.push(ServeScenarioResult {
            name: "serve/stall-hedge".into(),
            passed: c.passed,
            deterministic: det,
            digest: rh.digest(),
            detail: c.detail,
        });
    }

    // --- serve/overload-shed: admission control upholds the deadline. --
    // A client fleet big enough that the raw wait chain alone exceeds
    // the deadline (ceil(2·400/8) slots × ~1 ms ≫ 50 ms): with the
    // admission controller on, the bucket sheds the excess and the tail
    // stays inside the deadline; with the overload controls disabled,
    // the identical load queues up and completes demonstrably past the
    // deadline bound.
    {
        let mut cfg = base.clone();
        cfg.clients = 400;
        cfg.think_s = 1.0e-4;
        cfg.admission_rate = 2500.0;
        cfg.admission_burst = 16.0;
        // Cold cache and halved slots: every admitted request really
        // reads its shards, so the overload lands on the servers.
        cfg.cache_capacity = 0;
        cfg.slots_per_replica = 2;
        let (r, det) = run_twice(&model, &cfg);
        let mut open = cfg.clone();
        open.policy = OverloadPolicy::raw();
        let ro = run_closed_loop(&model, &open);
        let c = check(
            &[
                ("shed>0", r.shed > 0),
                ("p99<=deadline", r.p(0.99) <= r.deadline_s),
                ("zero-late-successes", r.late_success == 0),
                (
                    "unprotected-violates-deadline",
                    ro.latency.max() > cfg.deadline_s && ro.late_success > 0,
                ),
            ],
            format!(
                "{} shed, p99 {:.1}ms; unprotected max {:.1}ms, {} late (deadline {:.0}ms)",
                r.shed,
                r.p(0.99) * 1e3,
                ro.latency.max() * 1e3,
                ro.late_success,
                cfg.deadline_s * 1e3
            ),
        );
        scenarios.push(ServeScenarioResult {
            name: "serve/overload-shed".into(),
            passed: c.passed,
            deterministic: det,
            digest: r.digest(),
            detail: c.detail,
        });
    }

    ServeChaosReport { scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_passes_end_to_end() {
        let report = run_serve_chaos(&ServeChaosOptions {
            seed: 42,
            quick: true,
        });
        assert_eq!(report.scenarios.len(), 6);
        for s in &report.scenarios {
            assert!(s.passed, "{} failed: {}", s.name, s.detail);
            assert!(s.deterministic, "{} was not deterministic", s.name);
        }
        assert!(report.all_passed());
        let table = report.render();
        assert!(table.contains("serve/q-shard-loss"));
        assert!(table.contains("PASS"));
    }
}
