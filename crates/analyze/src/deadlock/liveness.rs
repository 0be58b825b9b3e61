//! Liveness pass: bounded-wait certificates under the FIFO contract.
//!
//! Deadlock-freedom (the order pass) says the system always makes
//! progress *somewhere*; liveness says every individual waiter is
//! eventually granted. The argument leans on the documented FIFO
//! contract of the DES waiter lists (`cumf_des::SmallDeque`, also used
//! by the FCFS servers and keyed locks): a waiter's queue position
//! strictly decreases on every grant and cancellation never perturbs
//! the order of the rest, so a waiter at position `w` on a class with
//! `s` slots is granted within `⌈w / s⌉` effective hold times.
//!
//! Effective holds compose along the (already proven acyclic) order
//! graph in reverse topological order: holding class `c`, the protocol
//! may acquire inner classes, so `eff(c)` is `c`'s own critical-section
//! time plus the full wait-and-hold of everything acquired under it.
//! Processor-sharing links never queue — every transfer progresses at a
//! `1/(1+w)` bandwidth share — so their wait is 0 and the slowdown
//! folds into the effective hold instead.
//!
//! The longest chain from any entry site bounds the time from "process
//! requests its first lock" to "process holds everything": that is the
//! number a watchdog must *strictly* dominate. A timeout at or below
//! the chain is a [`StarvationWitness`] — the watchdog can abort a
//! perfectly healthy wait, turning bounded contention into spurious
//! rollbacks (and, with a bounded retry budget, eventual failure).

use super::{Protocol, WatchdogSpec};
use crate::deadlock::graph::DeadlockCert;
use crate::Replay;
use cumf_core::digest::fnv1a64;
use cumf_core::Verdict;

/// Bounded-wait certificate.
#[derive(Debug, Clone)]
pub struct LivenessCert {
    /// Protocol name.
    pub protocol: &'static str,
    /// Per-class worst-case grant bound in seconds (class name, bound).
    pub grant_bounds: Vec<(String, f64)>,
    /// Longest wait chain from any entry site, seconds.
    pub chain_s: f64,
    /// `timeout − chain`, when the protocol has a watchdog (positive by
    /// construction in a `Live` verdict).
    pub watchdog_margin_s: Option<f64>,
    /// Retry envelope recorded from the protocol, if any.
    pub retry_bound: Option<(u32, f64)>,
    /// FNV-1a digest of the certificate content.
    pub digest: u64,
}

impl std::fmt::Display for LivenessCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: chain {:.3e} s", self.protocol, self.chain_s)?;
        if let Some(m) = self.watchdog_margin_s {
            write!(f, ", watchdog margin {m:.3e} s")?;
        }
        if let Some((attempts, backoff)) = self.retry_bound {
            write!(f, ", retry ≤{attempts}× (+{backoff:.3} s backoff)")?;
        }
        write!(f, ", digest {:016x}", self.digest)
    }
}

/// A starvation counterexample: the watchdog fires before the certified
/// grant bound, so a healthy waiter gets aborted.
#[derive(Debug, Clone)]
pub struct StarvationWitness {
    /// Protocol name.
    pub protocol: &'static str,
    /// The class whose wait chain the timeout fails to cover.
    pub class: String,
    /// FIFO position of the victim waiter (the last of `max_waiters`).
    pub victim_position: usize,
    /// Certified bound by which the victim *would* be granted, seconds.
    pub grant_by_s: f64,
    /// The watchdog timeout that fires first, seconds.
    pub timeout_s: f64,
    /// Source anchor of the offending watchdog.
    pub anchor: String,
}

impl std::fmt::Display for StarvationWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: watchdog at {} fires at {:.3e} s but the position-{} waiter on {} is only \
             guaranteed a grant by {:.3e} s",
            self.protocol,
            self.anchor,
            self.timeout_s,
            self.victim_position,
            self.class,
            self.grant_by_s
        )
    }
}

/// A starvation witness replays when its watchdog really fires at or
/// before the certified grant bound.
impl Replay for StarvationWitness {
    fn replays(&self) -> bool {
        self.timeout_s <= self.grant_by_s
    }
}

/// Per-class effective hold and worst-case grant wait, composed in
/// reverse topological order of the (acyclic) lock-order graph.
fn class_bounds(p: &Protocol, cert: &DeadlockCert) -> (Vec<f64>, Vec<f64>) {
    let n = p.classes.len();
    let mut eff = vec![0.0f64; n];
    let mut wait = vec![0.0f64; n];
    // Reverse topo: innermost classes (no outgoing order edges) first,
    // so `eff` of inner acquisitions is ready when an outer class needs
    // it.
    for &c in cert.topo.iter().rev() {
        let nested: f64 = p
            .sites
            .iter()
            .filter(|s| s.held == Some(c))
            .map(|s| wait[s.acquires] + eff[s.acquires])
            .sum();
        let spec = &p.classes[c];
        if spec.slots == 0 {
            // Processor-sharing link: no queue, bandwidth divides by
            // (1 + waiters), stretching the hold instead of blocking.
            eff[c] = spec.hold_s * (1.0 + spec.max_waiters as f64) + nested;
            wait[c] = 0.0;
        } else {
            eff[c] = spec.hold_s + nested;
            let rounds = spec.max_waiters.div_ceil(spec.slots);
            wait[c] = rounds as f64 * eff[c];
        }
    }
    (eff, wait)
}

fn live_digest(p: &Protocol, bounds: &[(String, f64)], chain_s: f64) -> u64 {
    let mut text = String::new();
    text.push_str(p.name);
    for (name, b) in bounds {
        text.push_str(&format!("|{name}={b:.6e}"));
    }
    text.push_str(&format!("|chain={chain_s:.6e}"));
    fnv1a64(text.as_bytes())
}

/// Runs the liveness pass. Requires the order certificate (the bound
/// composition walks its topological order). Certified when every
/// waiter's grant is bounded and the watchdog (if any) strictly
/// dominates the longest wait chain.
pub fn analyze_liveness(
    p: &Protocol,
    cert: &DeadlockCert,
) -> Verdict<LivenessCert, StarvationWitness> {
    let (eff, wait) = class_bounds(p, cert);

    // Longest chain from any entry site: full wait for the entry class
    // plus the effective hold (which already folds in every nested
    // wait-and-hold).
    let mut chain_s = 0.0f64;
    let mut chain_class = 0usize;
    for site in p.sites.iter().filter(|s| s.held.is_none()) {
        let c = site.acquires;
        let total = wait[c] + eff[c];
        if total > chain_s {
            chain_s = total;
            chain_class = c;
        }
    }

    let grant_bounds: Vec<(String, f64)> = p
        .classes
        .iter()
        .enumerate()
        .map(|(c, spec)| (spec.name.clone(), wait[c] + eff[c]))
        .collect();

    let watchdog_margin_s = match &p.watchdog {
        Some(WatchdogSpec { timeout_s, anchor }) => {
            if *timeout_s <= chain_s {
                let spec = &p.classes[chain_class];
                return Verdict::Refuted(StarvationWitness {
                    protocol: p.name,
                    class: spec.name.clone(),
                    victim_position: spec.max_waiters,
                    grant_by_s: chain_s,
                    timeout_s: *timeout_s,
                    anchor: anchor.clone(),
                });
            }
            Some(timeout_s - chain_s)
        }
        None => None,
    };

    let digest = live_digest(p, &grant_bounds, chain_s);
    Verdict::Certified(LivenessCert {
        protocol: p.name,
        grant_bounds,
        chain_s,
        watchdog_margin_s,
        retry_bound: p
            .retry
            .as_ref()
            .map(|r| (r.max_attempts, r.total_backoff_s)),
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::graph::analyze_order;
    use crate::deadlock::{ClassSpec, Protocol, RetrySpec, SiteSpec};

    fn proto(
        classes: Vec<ClassSpec>,
        sites: Vec<SiteSpec>,
        watchdog: Option<WatchdogSpec>,
    ) -> Protocol {
        Protocol {
            name: "test/liveness",
            classes,
            sites,
            watchdog,
            retry: None,
        }
    }

    fn class(name: &str, slots: usize, hold_s: f64, max_waiters: usize) -> ClassSpec {
        ClassSpec {
            name: name.to_string(),
            anchor: "test".to_string(),
            slots,
            hold_s,
            max_waiters,
        }
    }

    fn site(held: Option<usize>, acquires: usize) -> SiteSpec {
        SiteSpec {
            held,
            acquires,
            anchor: "test::site".to_string(),
            note: String::new(),
        }
    }

    fn order_cert(p: &Protocol) -> DeadlockCert {
        match analyze_order(p) {
            Verdict::Certified(c) => c,
            Verdict::Refuted(w) => panic!("test protocol must be acyclic: {w}"),
        }
    }

    #[test]
    fn single_mutex_chain_is_waiters_plus_one_holds() {
        // 3 waiters on a 1-slot mutex held 1 ms: grant by 3 holds of
        // waiting plus 1 hold of our own.
        let p = proto(vec![class("m", 1, 1e-3, 3)], vec![site(None, 0)], None);
        let cert = order_cert(&p);
        match analyze_liveness(&p, &cert) {
            Verdict::Certified(c) => {
                assert!((c.chain_s - 4e-3).abs() < 1e-12, "chain {}", c.chain_s);
            }
            Verdict::Refuted(w) => panic!("{w}"),
        }
    }

    #[test]
    fn nested_acquisition_inflates_the_outer_hold() {
        // Outer (1 slot, 1 ms, 1 waiter) acquires inner (1 slot, 2 ms,
        // 1 waiter) while held. eff(inner) = 2 ms, wait(inner) = 2 ms,
        // eff(outer) = 1 + 4 = 5 ms, wait(outer) = 5 ms, chain = 10 ms.
        let p = proto(
            vec![class("outer", 1, 1e-3, 1), class("inner", 1, 2e-3, 1)],
            vec![site(None, 0), site(Some(0), 1)],
            None,
        );
        let cert = order_cert(&p);
        match analyze_liveness(&p, &cert) {
            Verdict::Certified(c) => {
                assert!((c.chain_s - 10e-3).abs() < 1e-12, "chain {}", c.chain_s);
            }
            Verdict::Refuted(w) => panic!("{w}"),
        }
    }

    #[test]
    fn ps_link_slows_down_but_never_blocks() {
        // A PS link (slots = 0) with 3 concurrent transfers: each gets a
        // 1/4 share, so the hold stretches 4× and nobody waits.
        let p = proto(vec![class("link", 0, 1e-3, 3)], vec![site(None, 0)], None);
        let cert = order_cert(&p);
        match analyze_liveness(&p, &cert) {
            Verdict::Certified(c) => {
                assert!((c.chain_s - 4e-3).abs() < 1e-12, "chain {}", c.chain_s);
                assert_eq!(c.grant_bounds.len(), 1);
            }
            Verdict::Refuted(w) => panic!("{w}"),
        }
    }

    #[test]
    fn multi_slot_server_divides_the_wait() {
        // 8 waiters on a 4-slot server: ⌈8/4⌉ = 2 rounds of waiting.
        let p = proto(vec![class("srv", 4, 1e-3, 8)], vec![site(None, 0)], None);
        let cert = order_cert(&p);
        match analyze_liveness(&p, &cert) {
            Verdict::Certified(c) => {
                assert!((c.chain_s - 3e-3).abs() < 1e-12, "chain {}", c.chain_s);
            }
            Verdict::Refuted(w) => panic!("{w}"),
        }
    }

    #[test]
    fn dominating_watchdog_certifies_with_margin() {
        let p = proto(
            vec![class("m", 1, 1e-3, 3)],
            vec![site(None, 0)],
            Some(WatchdogSpec {
                timeout_s: 1.0,
                anchor: "test::watchdog".to_string(),
            }),
        );
        let cert = order_cert(&p);
        match analyze_liveness(&p, &cert) {
            Verdict::Certified(c) => {
                let m = c.watchdog_margin_s.expect("watchdog present");
                assert!((m - (1.0 - 4e-3)).abs() < 1e-9);
            }
            Verdict::Refuted(w) => panic!("{w}"),
        }
    }

    #[test]
    fn short_watchdog_is_a_starvation_witness() {
        let p = proto(
            vec![class("m", 1, 1e-3, 3)],
            vec![site(None, 0)],
            Some(WatchdogSpec {
                timeout_s: 2e-3, // < 4 ms chain
                anchor: "test::watchdog".to_string(),
            }),
        );
        let cert = order_cert(&p);
        match analyze_liveness(&p, &cert) {
            Verdict::Refuted(w) => {
                assert_eq!(w.class, "m");
                assert_eq!(w.victim_position, 3);
                assert!(w.timeout_s < w.grant_by_s);
            }
            Verdict::Certified(c) => panic!("must starve: {c}"),
        }
    }

    #[test]
    fn retry_envelope_is_recorded() {
        let mut p = proto(vec![class("m", 1, 1e-3, 1)], vec![site(None, 0)], None);
        p.retry = Some(RetrySpec {
            max_attempts: 4,
            total_backoff_s: 0.07,
        });
        let cert = order_cert(&p);
        match analyze_liveness(&p, &cert) {
            Verdict::Certified(c) => {
                assert_eq!(c.retry_bound, Some((4, 0.07)));
            }
            Verdict::Refuted(w) => panic!("{w}"),
        }
    }
}
