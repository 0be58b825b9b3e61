//! Static deadlock & liveness certifier for every blocking protocol the
//! workspace ships.
//!
//! The racy training executors in `cumf-core` are lock-free, so the
//! workspace blocks in four places: the block-DAG executor that runs
//! certified wavefront/LIBMF epochs on OS threads, the `TrainSupervisor`
//! watchdog around faulted PCIe transfers, the serving read path's shard
//! slots, and the DES resource configurations (`ServerId`/`LinkId`/`LockId`
//! with their `SmallDeque` waiter lists) that the GPU machine model and
//! the bench pipeline instantiate. Each of those protocols is modelled
//! here *statically* — no instrumentation, no execution of the real
//! code — as a tiny acquisition-order IR ([`ClassSpec`] lock classes +
//! [`SiteSpec`] held→acquires sites).
//!
//! Two passes run over every protocol:
//!
//! * **Order** ([`graph`]) — builds the global lock-order graph and
//!   either proves it acyclic (a topological certificate, digested with
//!   FNV-1a like `ConflictCert`/`CostCert`, and cross-validated by
//!   exhaustively model-checking the acquisition paths with the PR 3
//!   checker) or emits a [`graph::DeadlockWitness`]: the concrete cycle
//!   with source-anchored sites and a minimal schedule that replays to a
//!   dead state through [`crate::mc::check`].
//! * **Liveness** ([`liveness`]) — under the documented FIFO contract of
//!   `cumf_des::SmallDeque` (a waiter's queue position strictly
//!   decreases on every grant), bounds the grant delay of every class
//!   and the longest wait chain from any entry site, then checks that
//!   watchdog timeouts *strictly* dominate that chain. A timeout at or
//!   below the certified chain is a [`liveness::StarvationWitness`]: the
//!   watchdog can fire on a healthy queue.
//!
//! The honest protocols ([`protocols::shipped_protocols`]) must all
//! certify; the refutation campaign ([`protocols::broken_twins`]) seeds
//! a pure-model ABBA stripe acquisition, a cyclic server→link→server DES
//! configuration, and a watchdog and a serve deadline shorter than their
//! certified wait chains — each must be refuted with a concrete witness,
//! because an analyzer that cannot refute the twins proves nothing about
//! the protocols.

pub mod graph;
pub mod liveness;
pub mod protocols;

pub use graph::{DeadlockCert, DeadlockWitness, LockSeqModel};
pub use liveness::{LivenessCert, StarvationWitness};

use crate::Replay;
use cumf_core::Verdict;

/// One lock class: a set of interchangeable resources acquired under a
/// single position in the global order (a stripe family, a DES server,
/// a link, a keyed-lock array).
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Class name, unique within the protocol (e.g. `"P.stripe"`,
    /// `"server:scheduler"`).
    pub name: String,
    /// Source anchor of the resource's definition or registration.
    pub anchor: String,
    /// Concurrent grants the class admits: mutex/stripe = 1, FCFS
    /// server = capacity, keyed locks = key count, `0` for
    /// processor-sharing links (which never block a requester).
    pub slots: usize,
    /// Certified per-grant hold time in seconds (the critical-section
    /// service time the liveness bound is computed from).
    pub hold_s: f64,
    /// Worst-case simultaneous waiters the shipped configuration can
    /// produce (bounded by the thread/process count).
    pub max_waiters: usize,
}

/// One acquisition site: "while holding `held` (or nothing), the
/// protocol acquires `acquires`". Sites are the edges of the lock-order
/// graph; `held == None` marks a protocol entry point.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Class index held at this site, or `None` for an entry site.
    pub held: Option<usize>,
    /// Class index acquired at this site.
    pub acquires: usize,
    /// Source anchor (`path::function`) of the acquisition.
    pub anchor: String,
    /// Why the site exists / what the code is doing there.
    pub note: String,
}

/// A watchdog guarding the protocol: it aborts a wait after
/// `timeout_s`. Liveness requires the timeout to strictly dominate the
/// longest certified wait chain, else the watchdog fires on healthy
/// contention.
#[derive(Debug, Clone)]
pub struct WatchdogSpec {
    /// Abort threshold in seconds.
    pub timeout_s: f64,
    /// Source anchor of the watchdog.
    pub anchor: String,
}

/// Retry/backoff envelope around the protocol (the supervisor's
/// rollback path): recorded in the liveness certificate so the total
/// bounded-retry budget is part of the certified story.
#[derive(Debug, Clone)]
pub struct RetrySpec {
    /// Maximum attempts before giving up.
    pub max_attempts: u32,
    /// Sum of all backoff delays across those attempts, seconds.
    pub total_backoff_s: f64,
}

/// A complete static model of one blocking protocol.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Protocol name (`des/wavefront`, `serve-request`, `twin/...`).
    pub name: &'static str,
    /// Lock classes, indexed by [`SiteSpec::held`]/[`SiteSpec::acquires`].
    pub classes: Vec<ClassSpec>,
    /// Acquisition sites (lock-order graph edges + entry points).
    pub sites: Vec<SiteSpec>,
    /// Watchdog guarding waits, if the protocol has one.
    pub watchdog: Option<WatchdogSpec>,
    /// Retry envelope, if the protocol has one.
    pub retry: Option<RetrySpec>,
}

/// Why a protocol failed to certify.
#[derive(Debug, Clone)]
pub enum ProtocolWitness {
    /// The lock-order graph has a cycle; the witness carries the cycle,
    /// its source-anchored sites, and a replayable minimal schedule.
    Deadlock(DeadlockWitness),
    /// The order is acyclic but a watchdog timeout does not dominate the
    /// certified wait chain.
    Starvation(StarvationWitness),
}

impl std::fmt::Display for ProtocolWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolWitness::Deadlock(w) => w.fmt(f),
            ProtocolWitness::Starvation(w) => w.fmt(f),
        }
    }
}

impl Replay for ProtocolWitness {
    fn replays(&self) -> bool {
        match self {
            ProtocolWitness::Deadlock(w) => w.replays(),
            ProtocolWitness::Starvation(w) => w.replays(),
        }
    }
}

/// Runs the order pass, then (only on an acyclic order) the liveness
/// pass. Certified means the order is proven acyclic *and* every
/// waiter's grant is bounded with the watchdog (if any) strictly
/// dominating the wait chain.
pub fn analyze_protocol(p: &Protocol) -> Verdict<(DeadlockCert, LivenessCert), ProtocolWitness> {
    match graph::analyze_order(p) {
        Verdict::Refuted(w) => Verdict::Refuted(ProtocolWitness::Deadlock(w)),
        Verdict::Certified(order) => match liveness::analyze_liveness(p, &order) {
            Verdict::Certified(live) => Verdict::Certified((order, live)),
            Verdict::Refuted(w) => Verdict::Refuted(ProtocolWitness::Starvation(w)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_passes_end_to_end() {
        let s = crate::deadlock_section();
        assert!(s.ran);
        assert!(s.pass, "{:#?}", s.lines);
        assert!(s.lines.iter().any(|l| l.contains("certified")));
        assert!(s.lines.iter().any(|l| l.contains("refuted")));
    }

    #[test]
    fn every_shipped_protocol_is_certified() {
        for p in protocols::shipped_protocols() {
            let out = analyze_protocol(&p);
            assert!(out.is_certified(), "{} not certified: {out:?}", p.name);
        }
    }

    #[test]
    fn every_broken_twin_is_refuted() {
        let twins = protocols::broken_twins();
        assert!(twins.len() >= 3, "refutation campaign needs ≥3 twins");
        for p in twins {
            let Verdict::Refuted(w) = analyze_protocol(&p) else {
                panic!("broken twin {} must not certify", p.name)
            };
            match w {
                ProtocolWitness::Deadlock(w) => {
                    assert!(w.replays, "{}: witness must replay in the checker", p.name);
                    assert!(w.cycle.len() >= 2, "{}: cycle too short", p.name);
                }
                ProtocolWitness::Starvation(witness) => {
                    assert!(
                        witness.timeout_s <= witness.grant_by_s,
                        "{}: starvation witness must show timeout ≤ grant bound",
                        p.name
                    );
                }
            }
        }
    }
}
