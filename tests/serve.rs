//! Serving-layer integration tests: the `cumf-serve` request path end
//! to end, through the public API. The guarantees exercised here:
//!
//! * the LRU result cache behaves exactly like a linear-scan oracle
//!   across randomized get/put/version-bump workloads and capacity
//!   boundaries (the `SmallDeque`-vs-`VecDeque` oracle pattern);
//! * two identical closed-loop runs — with and without an injected
//!   shard stall — produce bit-equal latency-histogram digests and
//!   identical shed/degraded counts;
//! * under loss of one factor shard at Zipf s=1.1, the service keeps
//!   answering: availability >= 99% (degraded allowed), zero
//!   deadline-violating successes, bit-deterministic across runs;
//! * the same scenario with the overload protections (admission
//!   controller, deadline finalization, timeouts) disabled returns
//!   late, demonstrating the deadline bound is earned, not incidental;
//! * the blocked top-N scorer is bitwise consistent with the naive
//!   scan at n in {8, 64, 128} for both f32 and binary16 factors;
//! * the model's interleaved per-shard scorer, which the service runs,
//!   returns the naive scan's list bit for bit, for the full item space
//!   and for every subset of Q-shards a degraded request can be left
//!   with, on grids whose shard boundaries fall inside lane groups;
//! * `cumf serve` rejects a shard grid larger than the model with a
//!   typed error, not a panic.

use cumf_sgd::core::{Element, FactorMatrix, F16};
use cumf_sgd::rng::{ChaCha8Rng, Rng, SeedableRng};
use cumf_sgd::serve::chaos::synth_model;
use cumf_sgd::serve::topn::TopAcc;
use cumf_sgd::serve::{
    run_closed_loop, top_n_blocked, top_n_naive, OverloadPolicy, ResultCache, Scored, ServeConfig,
    ServeFault, ShardedModel,
};

// ------------------------------------------------------------- LRU oracle

/// Reference model of [`ResultCache`]: a most-recent-first vector with
/// linear scans everywhere. Deliberately obvious, O(capacity) per op.
struct Oracle {
    capacity: usize,
    /// `(user, version, value)`, most recently used first.
    entries: Vec<(u32, u64, Vec<Scored>)>,
}

impl Oracle {
    fn new(capacity: usize) -> Self {
        Oracle {
            capacity,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, user: u32, version: u64) -> Option<Vec<Scored>> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.0 == user && e.1 == version)?;
        let e = self.entries.remove(pos);
        let value = e.2.clone();
        self.entries.insert(0, e);
        Some(value)
    }

    fn get_stale(&self, user: u32) -> Option<(u64, Vec<Scored>)> {
        self.entries
            .iter()
            .filter(|e| e.0 == user)
            .max_by_key(|e| e.1)
            .map(|e| (e.1, e.2.clone()))
    }

    fn put(&mut self, user: u32, version: u64, value: Vec<Scored>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.0 == user && e.1 == version)
        {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (user, version, value));
    }

    fn keys(&self) -> Vec<(u32, u64)> {
        let mut ks: Vec<(u32, u64)> = self.entries.iter().map(|e| (e.0, e.1)).collect();
        ks.sort_unstable();
        ks
    }
}

fn scored(tag: u32) -> Vec<Scored> {
    vec![Scored {
        item: tag,
        score: tag as f32 * 0.5,
    }]
}

#[test]
fn lru_cache_matches_linear_scan_oracle() {
    for &capacity in &[1usize, 2, 3, 7, 16] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED ^ capacity as u64);
        let mut cache = ResultCache::new(capacity);
        let mut oracle = Oracle::new(capacity);
        // `version` only moves forward, like the model version it keys:
        // a bump invalidates every get at the new version until re-put.
        let mut version: u64 = 1;
        let mut tag: u32 = 0;
        for step in 0..4_000u32 {
            let user: u32 = rng.gen_range(0..12u32);
            match rng.gen_range(0..100u32) {
                // Fresh get at the current version.
                0..=44 => {
                    let got = cache.get(user, version).map(<[Scored]>::to_vec);
                    assert_eq!(
                        got,
                        oracle.get(user, version),
                        "get cap={capacity} step={step}"
                    );
                }
                // Get at an older version (post-bump lookups must miss
                // or hit exactly as the oracle says).
                45..=54 => {
                    let v = rng.gen_range(1..=version);
                    let got = cache.get(user, v).map(<[Scored]>::to_vec);
                    assert_eq!(
                        got,
                        oracle.get(user, v),
                        "old get cap={capacity} step={step}"
                    );
                }
                // Stale read (any version, no promotion).
                55..=64 => {
                    let got = cache.get_stale(user).map(|(v, s)| (v, s.to_vec()));
                    assert_eq!(
                        got,
                        oracle.get_stale(user),
                        "stale cap={capacity} step={step}"
                    );
                }
                // Put at the current version.
                65..=94 => {
                    tag += 1;
                    cache.put(user, version, scored(tag));
                    oracle.put(user, version, scored(tag));
                }
                // Version bump: every future fresh get misses until a
                // new put; stale entries age out through the LRU tail.
                _ => version += 1,
            }
            assert_eq!(
                {
                    let mut ks = cache.keys();
                    ks.sort_unstable();
                    ks
                },
                oracle.keys(),
                "key sets diverged cap={capacity} step={step}"
            );
            assert!(cache.len() <= capacity);
        }
        assert!(cache.hits() > 0 || capacity == 0);
        assert!(cache.misses() > 0);
        if capacity <= 3 {
            assert!(cache.evictions() > 0, "small caches must have evicted");
        }
    }
}

// --------------------------------------------------------- determinism

fn stall_fault(model_q0: usize) -> ServeFault {
    ServeFault::ShardStall {
        shard: model_q0,
        replica: 0,
        from_s: 0.010,
        until_s: 0.200,
        factor: 20.0,
    }
}

#[test]
fn identical_runs_are_bit_equal_with_and_without_a_stall() {
    let model = synth_model(42, 2, 2);
    let healthy = ServeConfig {
        requests: 800,
        ..ServeConfig::default()
    };
    let a = run_closed_loop(&model, &healthy);
    let b = run_closed_loop(&model, &healthy);
    assert_eq!(a.digest(), b.digest(), "healthy digests diverged");
    assert_eq!(a.latency.digest(), b.latency.digest());
    assert_eq!(a.recovery.digest(), b.recovery.digest());
    assert_eq!((a.shed, a.degraded()), (b.shed, b.degraded()));

    let stalled = ServeConfig {
        fault: Some(stall_fault(model.q_shard_id(0))),
        ..healthy.clone()
    };
    let c = run_closed_loop(&model, &stalled);
    let d = run_closed_loop(&model, &stalled);
    assert_eq!(c.digest(), d.digest(), "stalled digests diverged");
    assert_eq!(c.latency.digest(), d.latency.digest());
    assert_eq!(c.recovery.digest(), d.recovery.digest());
    assert_eq!((c.shed, c.degraded()), (d.shed, d.degraded()));
    // The stall must actually be in the measurement, not absorbed.
    assert_ne!(a.digest(), c.digest(), "stall left no trace in the digest");
}

// ----------------------------------------------- shard-loss acceptance

fn loss_config(model_q_last: usize) -> ServeConfig {
    ServeConfig {
        requests: 1500,
        zipf_s: 1.1,
        // The loss window outlasts the deadline several times over, so
        // waiting out the fault is never how a request makes it in time.
        fault: Some(ServeFault::ShardLoss {
            shard: model_q_last,
            from_s: 0.020,
            until_s: 0.150,
        }),
        ..ServeConfig::default()
    }
}

#[test]
fn shard_loss_keeps_availability_and_never_returns_late() {
    let model = synth_model(42, 2, 2);
    let cfg = loss_config(model.q_shard_id(1));
    let a = run_closed_loop(&model, &cfg);
    let b = run_closed_loop(&model, &cfg);
    assert_eq!(a.completed, a.issued, "requests went missing");
    assert!(
        a.availability() >= 0.99,
        "availability {} under shard loss",
        a.availability()
    );
    assert_eq!(a.late_success, 0, "deadline-violating successes");
    assert!(a.degraded() > 0, "the loss window must have been felt");
    assert!(a.breaker_opens >= 1, "the breaker never opened");
    // Bit-deterministic across two executions.
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.latency.digest(), b.latency.digest());
    assert_eq!(a.recovery.digest(), b.recovery.digest());
}

#[test]
fn unprotected_same_scenario_violates_the_deadline_bound() {
    let model = synth_model(42, 2, 2);
    let mut cfg = loss_config(model.q_shard_id(1));
    // Disable the admission controller and the rest of the overload
    // lattice (deadline finalization, timeouts, hedging, breakers):
    // requests now wait for the lost shard and return whenever it
    // comes back — demonstrably past the deadline.
    cfg.policy = OverloadPolicy::raw();
    let r = run_closed_loop(&model, &cfg);
    assert!(
        r.late_success > 0,
        "unprotected run should have returned late"
    );
    assert!(
        r.latency.max() > cfg.deadline_s,
        "max latency {:.1}ms never crossed the {:.1}ms deadline",
        r.latency.max() * 1e3,
        cfg.deadline_s * 1e3
    );
}

// -------------------------------------------------- scorer consistency

fn factors<E: Element>(rows: u32, k: u32, seed: u64) -> FactorMatrix<E> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vals: Vec<f32> = (0..rows as usize * k as usize)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    FactorMatrix::from_f32_slice(rows, k, &vals)
}

/// Item ids and score bits, in order (`f32` `==` would treat
/// `-0.0 == 0.0` and fail on equal NaNs).
fn bits(list: &[Scored]) -> Vec<(u32, u32)> {
    list.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

fn assert_blocked_matches_naive<E: Element>(seed: u64) {
    let items: u32 = 300;
    let k: u32 = 16;
    let p: FactorMatrix<E> = factors(8, k, seed);
    let q: FactorMatrix<E> = factors(items, k, seed ^ 0xABCD);
    for user in 0..p.rows() {
        let row = p.row(user);
        for &n in &[8usize, 64, 128] {
            let naive = top_n_naive(row, &q, 0..items, n);
            for &block in &[1usize, 7, 64, 512] {
                let blocked = top_n_blocked(row, &q, 0..items, n, block);
                // Bitwise equality: same items, same score bits, same
                // order — the blocked scan is a pure reassociation-free
                // partition of the naive one.
                assert_eq!(
                    bits(&blocked),
                    bits(&naive),
                    "n={n} block={block} user={user}"
                );
            }
        }
    }
}

// --------------------------------------------- slot-path lockset audit

/// With `--features sanitize`, the shard/slot access path of the
/// closed-loop service reports every `Server` slot mutation to the
/// Eraser-style lockset sanitizer. The DES event loop is
/// single-threaded, so every slot location must stay in the sanitizer's
/// thread-exclusive state: zero reports, across a healthy run and a
/// shard-loss run (which exercises the abandon/requeue paths).
#[cfg(feature = "sanitize")]
#[test]
fn slot_access_path_is_race_free_under_the_lockset_sanitizer() {
    use cumf_sgd::core::sanitize;
    let model = synth_model(42, 2, 2);
    sanitize::set_enabled(true);
    let healthy = ServeConfig {
        requests: 600,
        ..ServeConfig::default()
    };
    run_closed_loop(&model, &healthy);
    let lossy = ServeConfig {
        requests: 600,
        fault: Some(ServeFault::ShardLoss {
            shard: model.q_shard_id(1),
            from_s: 0.020,
            until_s: 0.150,
        }),
        ..ServeConfig::default()
    };
    run_closed_loop(&model, &lossy);
    sanitize::set_enabled(false);
    let reports = sanitize::take_reports();
    assert!(
        reports.is_empty(),
        "serve slot path must be race-free: {reports:#?}"
    );
    assert_eq!(sanitize::race_count(), 0);
}

#[test]
fn blocked_scorer_is_bitwise_consistent_with_naive_f32() {
    assert_blocked_matches_naive::<f32>(7);
}

#[test]
fn blocked_scorer_is_bitwise_consistent_with_naive_f16() {
    assert_blocked_matches_naive::<F16>(11);
}

/// `ShardedModel::top_n` — what a full or `PartialItems` answer is —
/// against the naive scan merged over the same shards: every non-empty
/// subset of Q-shards, in ascending and in reversed order, for sampled
/// users, on grids whose item boundaries fall inside lane groups.
fn assert_sharded_matches_naive<E: Element>(seed: u64) {
    let (users, items) = (12u32, 250u32);
    for (grid, k) in [((4u32, 2u32), 32u32), ((3, 3), 31), ((1, 7), 33)] {
        let p: FactorMatrix<E> = factors(users, k, seed);
        let q: FactorMatrix<E> = factors(items, k, seed ^ 0xABCD);
        let model = ShardedModel::new(p.clone(), q.clone(), grid.0, grid.1, None);
        for user in (0..users).step_by(5) {
            let row = p.row(user);
            for n in [1usize, 10, items as usize + 5] {
                let full: Vec<u32> = (0..grid.1).collect();
                assert_eq!(
                    bits(&model.top_n(user, &full, n)),
                    bits(&top_n_naive(row, &q, 0..items, n)),
                    "full answer: grid {grid:?} user {user} n {n}"
                );
                for mask in 1u32..(1 << grid.1) {
                    let answered: Vec<u32> = (0..grid.1).filter(|bj| mask >> bj & 1 == 1).collect();
                    let mut acc = TopAcc::new(n);
                    for &bj in &answered {
                        for s in top_n_naive(row, &q, model.item_range(bj), n) {
                            acc.offer(s.item, s.score);
                        }
                    }
                    let merged = acc.into_sorted();
                    let mut reversed = answered.clone();
                    reversed.reverse();
                    for order in [&answered, &reversed] {
                        assert_eq!(
                            bits(&model.top_n(user, order, n)),
                            bits(&merged),
                            "shards {order:?}: grid {grid:?} user {user} n {n}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_scorer_matches_naive_merge_f32() {
    assert_sharded_matches_naive::<f32>(23);
}

#[test]
fn sharded_scorer_matches_naive_merge_f16() {
    assert_sharded_matches_naive::<F16>(29);
}

#[test]
fn serve_cli_rejects_a_grid_larger_than_the_model() {
    let dir = std::env::temp_dir().join("cumf_serve_cli_grid");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model_file = dir.join("small.cmfm");
    let small = cumf_sgd::core::Model::new(factors::<f32>(6, 4, 1), factors::<f32>(5, 4, 2));
    cumf_sgd::core::save_model_file(&model_file, &small).unwrap();
    let cases: [(&[&str], &str); 3] = [
        (&["--shards", "500x2"], "grid 500x2 exceeds model 240x180"),
        (&["--shards", "2x181"], "grid 2x181 exceeds model 240x180"),
        (
            &["--shards", "2x6", "--model", model_file.to_str().unwrap()],
            "grid 2x6 exceeds model 6x5",
        ),
    ];
    for (args, message) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cumf"))
            .arg("serve")
            .args(args)
            .args(["--requests", "10"])
            .output()
            .expect("cumf binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
