//! Static models of every shipped blocking protocol, plus the broken
//! twins the refutation campaign must reject.
//!
//! The DES protocols are anchored in the real code: they build the
//! actual shipped `Simulation` configurations and read the resource
//! inventory back through `Simulation::resource_topology()`; a model
//! naming a resource the simulation no longer registers panics instead
//! of silently certifying a stale topology. The supervisor and serve
//! protocols take their numbers from the shipped configurations'
//! liveness annotations.

use super::{ClassSpec, Protocol, RetrySpec, SiteSpec, WatchdogSpec};
use cumf_core::faults::SupervisorConfig;
use cumf_des::{ResourceKind, ResourceNode, Simulation};
use cumf_serve::ServeConfig;

fn kind_prefix(kind: ResourceKind) -> &'static str {
    match kind {
        ResourceKind::Server => "server",
        ResourceKind::Link => "link",
        ResourceKind::Lock => "lock",
    }
}

/// A class backed by a resource the shipped simulation actually
/// registers; panics on drift between model and simulation.
fn des_class(
    topo: &[ResourceNode],
    kind: ResourceKind,
    name: &str,
    hold_s: f64,
    max_waiters: usize,
    anchor: &str,
) -> ClassSpec {
    let node = topo
        .iter()
        .find(|n| n.kind == kind && n.name == name)
        .unwrap_or_else(|| {
            panic!("resource {name:?} ({kind:?}) not registered in the shipped simulation — the static model drifted from the code")
        });
    ClassSpec {
        name: format!("{}:{}", kind_prefix(kind), node.name),
        anchor: anchor.to_string(),
        slots: node.slots,
        hold_s,
        max_waiters,
    }
}

fn entry(acquires: usize, anchor: &str, note: &str) -> SiteSpec {
    SiteSpec {
        held: None,
        acquires,
        anchor: anchor.to_string(),
        note: note.to_string(),
    }
}

/// LIBMF global scheduling table: 64 workers funnel through the 1-slot
/// `scheduler` server between batches (the §4.1 contention argument —
/// this is the critical section that saturates at ~30 workers).
fn des_global_table() -> Protocol {
    let mut sim = Simulation::new();
    sim.add_server("scheduler", 1);
    let topo = sim.resource_topology();
    let classes = vec![des_class(
        &topo,
        ResourceKind::Server,
        "scheduler",
        1e-7,
        63,
        "crates/gpu-sim/src/executor.rs::build_global_table",
    )];
    let sites = vec![entry(
        0,
        "crates/gpu-sim/src/executor.rs::Worker::resume",
        "every worker queues on the scheduling-table critical section between batches; \
         nothing else is held while waiting",
    )];
    Protocol {
        name: "des/global-table",
        classes,
        sites,
        watchdog: None,
        retry: None,
    }
}

/// Wavefront column locking: workers take one key of the `columns`
/// keyed-lock array at a time. The executor *releases* its held column
/// before requesting the next (`held_col.take()` + `release_key`
/// precede the next `Block::AcquireKey`), so there is no hold-and-wait
/// edge at all — the order graph is entry-only by construction.
fn des_wavefront() -> Protocol {
    let mut sim = Simulation::new();
    sim.add_lock("columns", 64);
    let topo = sim.resource_topology();
    let classes = vec![des_class(
        &topo,
        ResourceKind::Lock,
        "columns",
        1e-6,
        31,
        "crates/gpu-sim/src/executor.rs::build_wavefront",
    )];
    let sites = vec![entry(
        0,
        "crates/gpu-sim/src/executor.rs::Worker::resume",
        "release-before-acquire: the held column key is released before the next \
         AcquireKey, so no key is held while waiting (the ≥2×-columns grid assert \
         additionally keeps contention per key low)",
    )];
    Protocol {
        name: "des/wavefront",
        classes,
        sites,
        watchdog: None,
        retry: None,
    }
}

/// The bench pipeline: 64 Contenders on a 4-slot server, 64 Movers on a
/// PS link. The two populations are disjoint, so both classes are
/// independent entry sites.
fn des_bench_pipeline() -> Protocol {
    let mut sim = Simulation::new();
    sim.add_server("cs", 4);
    sim.add_link("pcie", 1e9);
    let topo = sim.resource_topology();
    let classes = vec![
        des_class(
            &topo,
            ResourceKind::Server,
            "cs",
            1e-6,
            63,
            "crates/bench/src/suite.rs::des_contention",
        ),
        des_class(
            &topo,
            ResourceKind::Link,
            "pcie",
            4096.0 / 1e9,
            63,
            "crates/bench/src/suite.rs::des_transfer",
        ),
    ];
    let sites = vec![
        entry(
            0,
            "crates/bench/src/suite.rs::Contender::resume",
            "contenders hold nothing while queueing for a service slot",
        ),
        entry(
            1,
            "crates/bench/src/suite.rs::Mover::resume",
            "movers share link bandwidth; PS transfers never block",
        ),
    ];
    Protocol {
        name: "des/bench-pipeline",
        classes,
        sites,
        watchdog: None,
        retry: None,
    }
}

/// The supervised PCIe transfer: a 1 MiB partition on a 1 GB/s PS link
/// with up to 3 concurrent transfers, guarded by the `TrainSupervisor`
/// stall watchdog and its bounded retry/backoff envelope. Liveness must
/// show the default timeout strictly dominates the certified wait chain
/// (~4.2 ms at a 4-way bandwidth share).
fn supervisor_transfer(watchdog_timeout_s: Option<f64>) -> Protocol {
    let anno = SupervisorConfig::default().liveness_anno();
    let mut sim = Simulation::new();
    sim.add_link("pcie", 1e9);
    let topo = sim.resource_topology();
    let classes = vec![des_class(
        &topo,
        ResourceKind::Link,
        "pcie",
        1_048_576.0 / 1e9,
        3,
        "crates/core/src/faults/retry.rs::detect_stall",
    )];
    let sites = vec![entry(
        0,
        "crates/core/src/faults/supervisor.rs::TrainSupervisor::run",
        "the supervisor races each partition transfer against the stall watchdog; \
         nothing is held while the transfer progresses",
    )];
    Protocol {
        name: if watchdog_timeout_s.is_some() {
            "twin/watchdog-short"
        } else {
            "supervisor-transfer"
        },
        classes,
        sites,
        watchdog: Some(WatchdogSpec {
            timeout_s: watchdog_timeout_s.unwrap_or(anno.timeout_s),
            anchor: anno.anchor.to_string(),
        }),
        retry: Some(RetrySpec {
            max_attempts: anno.max_attempts,
            total_backoff_s: anno.total_backoff_s,
        }),
    }
}

/// The serving scatter-gather read path: every request queues on a
/// shard's replica service slots holding nothing (entry-only order
/// graph), raced against the per-request deadline. The numbers come
/// from `cumf_serve::ServeConfig::default().liveness_anno()`, so the
/// model moves in lockstep with the shipped configuration: the deadline
/// must strictly dominate the certified worst-case wait chain
/// (ceil(31 waiters / 8 slots) × 1 ms hold + 1 ms = 5 ms ≪ 50 ms).
fn serve_request(deadline_override: Option<f64>) -> Protocol {
    let anno = ServeConfig::default().liveness_anno();
    let classes = vec![ClassSpec {
        name: "serve:shard-read".to_string(),
        anchor: anno.anchor.to_string(),
        slots: anno.slots as usize,
        hold_s: anno.hold_s,
        max_waiters: anno.max_waiters as usize,
    }];
    let sites = vec![entry(
        0,
        "crates/serve/src/service.rs::Sim::enqueue_read",
        "scatter-gather: a request queues on a shard's replica slots holding nothing; \
         partial results compose into a degraded answer, so no read waits on another",
    )];
    Protocol {
        name: if deadline_override.is_some() {
            "twin/serve-deadline-short"
        } else {
            "serve-request"
        },
        classes,
        sites,
        watchdog: Some(WatchdogSpec {
            timeout_s: deadline_override.unwrap_or(anno.deadline_s),
            anchor: anno.anchor.to_string(),
        }),
        retry: Some(RetrySpec {
            max_attempts: anno.retry_attempts.max(1),
            total_backoff_s: anno.retry_total_backoff_s,
        }),
    }
}

/// Every blocking protocol the workspace ships; all must certify.
pub fn shipped_protocols() -> Vec<Protocol> {
    vec![
        des_global_table(),
        des_wavefront(),
        des_bench_pipeline(),
        supervisor_transfer(None),
        serve_request(None),
    ]
}

/// Deliberately broken variants; none may certify, and each must yield
/// a concrete (replayable) witness.
pub fn broken_twins() -> Vec<Protocol> {
    let mut twins = Vec::new();

    // (1) ABBA stripe acquisition, as a pure model: one family takes
    // P.stripe then Q.stripe, its mirror image takes Q.stripe then
    // P.stripe — the classic 2-cycle.
    let stripe = |name: &str| ClassSpec {
        name: name.to_string(),
        anchor: "twin::striped_abba".to_string(),
        slots: 1,
        hold_s: 1e-6,
        max_waiters: 1,
    };
    let (p, q) = (0, 1);
    twins.push(Protocol {
        name: "twin/striped-abba",
        classes: vec![stripe("P.stripe"), stripe("Q.stripe")],
        sites: vec![
            entry(
                p,
                "twin::canonical_epoch",
                "canonical family enters on P.stripe",
            ),
            SiteSpec {
                held: Some(p),
                acquires: q,
                anchor: "twin::canonical_epoch".to_string(),
                note: "canonical family acquires Q.stripe while holding P.stripe".to_string(),
            },
            entry(
                q,
                "twin::reversed_epoch",
                "seeded: reversed family enters on Q.stripe",
            ),
            SiteSpec {
                held: Some(q),
                acquires: p,
                anchor: "twin::reversed_epoch".to_string(),
                note: "seeded: acquires P.stripe while holding Q.stripe".to_string(),
            },
        ],
        watchdog: None,
        retry: None,
    });

    // (2) Cyclic DES pipeline: a staging config where each process
    // holds its stage (misusing the PS transfer slot as a held
    // resource) while requesting the next — server → link → server →
    // back, a 3-cycle.
    let mut sim = Simulation::new();
    sim.add_server("stage-in", 1);
    sim.add_link("bus", 1e9);
    sim.add_server("stage-out", 1);
    let topo = sim.resource_topology();
    let classes = vec![
        des_class(
            &topo,
            ResourceKind::Server,
            "stage-in",
            1e-6,
            3,
            "twin::cyclic_pipeline",
        ),
        des_class(
            &topo,
            ResourceKind::Link,
            "bus",
            4096.0 / 1e9,
            3,
            "twin::cyclic_pipeline",
        ),
        des_class(
            &topo,
            ResourceKind::Server,
            "stage-out",
            1e-6,
            3,
            "twin::cyclic_pipeline",
        ),
    ];
    let sites = vec![
        entry(0, "twin::cyclic_pipeline", "ingest claims its input stage"),
        SiteSpec {
            held: Some(0),
            acquires: 1,
            anchor: "twin::cyclic_pipeline::ingest".to_string(),
            note: "seeded: holds stage-in while claiming a bus transfer slot".to_string(),
        },
        SiteSpec {
            held: Some(1),
            acquires: 2,
            anchor: "twin::cyclic_pipeline::mover".to_string(),
            note: "seeded: holds the bus while claiming stage-out".to_string(),
        },
        SiteSpec {
            held: Some(2),
            acquires: 0,
            anchor: "twin::cyclic_pipeline::drain".to_string(),
            note: "seeded: holds stage-out while re-claiming stage-in (feedback loop)".to_string(),
        },
    ];
    twins.push(Protocol {
        name: "twin/des-cyclic",
        classes,
        sites,
        watchdog: None,
        retry: None,
    });

    // (3) Watchdog shorter than the certified wait chain: the 1 ms
    // timeout fires before the ~4.2 ms bound of a 4-way shared 1 MiB
    // transfer.
    twins.push(supervisor_transfer(Some(1e-3)));

    // (4) Serve deadline shorter than the certified shard wait chain: a
    // 2 ms deadline fires before the 5 ms worst-case queue+service
    // bound, so healthy contention alone would finalize requests
    // degraded. The certifier must starve this twin.
    twins.push(serve_request(Some(2e-3)));

    twins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{analyze_protocol, ProtocolWitness};
    use cumf_core::Verdict;

    #[test]
    fn ships_five_protocols_and_four_twins() {
        assert_eq!(shipped_protocols().len(), 5);
        assert_eq!(broken_twins().len(), 4);
    }

    #[test]
    fn des_models_cross_check_against_the_real_topology() {
        // des_class panics on drift; building the protocols exercises
        // every lookup against a freshly built Simulation.
        for p in shipped_protocols() {
            assert!(!p.classes.is_empty(), "{} has no classes", p.name);
            assert!(!p.sites.is_empty(), "{} has no sites", p.name);
        }
    }

    #[test]
    #[should_panic(expected = "not registered in the shipped simulation")]
    fn topology_drift_panics_instead_of_certifying() {
        let sim = Simulation::new();
        let topo = sim.resource_topology();
        des_class(&topo, ResourceKind::Server, "ghost", 1e-6, 1, "test");
    }

    #[test]
    fn wavefront_model_is_entry_only() {
        let p = des_wavefront();
        assert!(
            p.sites.iter().all(|s| s.held.is_none()),
            "wavefront executor releases before acquiring; the model must reflect that"
        );
    }

    #[test]
    fn supervisor_watchdog_comes_from_the_shipped_config() {
        let p = supervisor_transfer(None);
        let w = p.watchdog.expect("supervisor has a watchdog");
        let cfg = SupervisorConfig::default();
        assert_eq!(w.timeout_s, cfg.stall_timeout_s);
        let r = p.retry.expect("supervisor has a retry envelope");
        assert_eq!(r.max_attempts, cfg.retry.max_attempts.max(1));
    }

    #[test]
    fn abba_twin_cycles_through_both_stripe_families() {
        let twins = broken_twins();
        let abba = twins
            .iter()
            .find(|p| p.name == "twin/striped-abba")
            .unwrap();
        match analyze_protocol(abba) {
            Verdict::Refuted(ProtocolWitness::Deadlock(w)) => {
                assert!(w.cycle.contains(&"P.stripe".to_string()), "{w}");
                assert!(w.cycle.contains(&"Q.stripe".to_string()), "{w}");
            }
            other => panic!("ABBA twin must deadlock: {other:?}"),
        }
    }

    #[test]
    fn serve_protocol_certifies_with_the_shipped_deadline() {
        let p = serve_request(None);
        let anno = ServeConfig::default().liveness_anno();
        let w = p.watchdog.as_ref().expect("serve has a deadline watchdog");
        assert_eq!(w.timeout_s, anno.deadline_s);
        assert!(p.sites.iter().all(|s| s.held.is_none()), "entry-only");
        match analyze_protocol(&p) {
            Verdict::Certified((_, live)) => {
                // The deadline strictly dominates the certified chain.
                assert!(anno.deadline_s > live.chain_s, "{live:?}");
            }
            other => panic!("serve-request must certify: {other:?}"),
        }
    }

    #[test]
    fn serve_deadline_twin_starves_on_the_shard_wait_chain() {
        let twins = broken_twins();
        let short = twins
            .iter()
            .find(|p| p.name == "twin/serve-deadline-short")
            .unwrap();
        match analyze_protocol(short) {
            Verdict::Refuted(ProtocolWitness::Starvation(witness)) => {
                assert!(witness.timeout_s <= witness.grant_by_s, "{witness}");
                assert!(witness.class.contains("shard-read"), "{witness}");
            }
            other => panic!("short serve deadline must starve: {other:?}"),
        }
    }

    #[test]
    fn watchdog_twin_starves_with_the_shipped_chain() {
        let twins = broken_twins();
        let short = twins
            .iter()
            .find(|p| p.name == "twin/watchdog-short")
            .unwrap();
        match analyze_protocol(short) {
            Verdict::Refuted(ProtocolWitness::Starvation(witness)) => {
                assert!(witness.timeout_s < witness.grant_by_s, "{witness}");
                assert!(witness.class.contains("pcie"), "{witness}");
            }
            other => panic!("short watchdog must starve: {other:?}"),
        }
    }
}
