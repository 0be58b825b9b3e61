//! # cumf-analyze — static & dynamic analyzers for the cuMF_SGD reproduction
//!
//! Offline analyzers over the engine layers in `cumf-core` and the cost
//! models in `cumf-gpu-sim`, all dependency-free:
//!
//! * [`kir`] — a typed kernel IR into which the SGD update and the
//!   LIBMF/BIDMach baseline inner loops are lifted, with three static
//!   passes: a memory-traffic abstract interpreter certifying Eq. 5's
//!   bytes-per-update against the cost model **and** the DES executor's
//!   charged bytes ([`kir::traffic`]), a per-warp cache-line footprint
//!   pass validated against the simulator's line accounting
//!   ([`kir::coalesce`]), and an FP16 range/error pass proving binary16
//!   overflow-freedom or producing a concrete witness
//!   ([`kir::precision`]).
//! * [`lint`] — a source-level determinism lint forbidding wall clocks,
//!   real sleeps/durations, and hash-ordered collections in the
//!   deterministic crates (and `cumf-bench`, minus its reviewed
//!   wall-clock reads), with stale-allowlist detection.
//! * [`deadlock`] — a static deadlock & liveness certifier: every
//!   shipped blocking protocol (the supervisor watchdog, the serving
//!   read path, the DES resource configurations) is modelled
//!   in a small acquisition-order IR; a lock-order graph pass proves
//!   acyclicity (topological certificate, cross-validated by the
//!   interleaving checker) or emits a replayable cycle witness, and a
//!   liveness pass bounds every waiter's grant under the FIFO waiter
//!   contract and checks watchdog timeouts strictly dominate the
//!   longest certified wait chain.
//!
//! * [`stale`] — a static staleness & asynchrony certifier: every
//!   lock-free update path (`solver-hogwild`, the threaded
//!   batch-Hogwild executor, the partitioned multi-GPU grid) is lifted
//!   from the `cumf_core::concurrent::UPDATE_PATHS` in-source
//!   annotations into an asynchrony IR; the worst-case per-row staleness bound τ is
//!   derived, exhaustively validated over all interleavings with the
//!   model checker, and the lr·τ safety condition certified — with
//!   three broken twins (unsynchronised shared rows, removed epoch
//!   barrier, overlapping grid blocks) each refuted by a replayable
//!   witness.
//! * [`prover`] — drives the schedule **conflict prover**
//!   (`cumf_core::sched::conflict`) over randomized datasets: the
//!   paper's conflict-free-by-construction schedules (wavefront-update
//!   §5.2, LIBMF global table) must certify, and batch-Hogwild! (§5.1)
//!   must be refuted with a concrete collision witness on a 1×1 matrix.
//! * [`mc`] + [`models`] — a loom-style **interleaving model checker**:
//!   exhaustive DFS over all thread interleavings of small transition
//!   systems modelling `AtomicFactors`' whole-word cells and the
//!   batch-Hogwild! work-claiming counter — each paired with a
//!   deliberately broken twin the checker must refute.
//! * `sanitizer` (compiled with the `sanitize` feature) — drivers for
//!   the Eraser-style **dynamic lockset
//!   sanitizer** (the feature forwards to
//!   `cumf-core/sanitize`): the lock-free Hogwild! executor must
//!   produce at least one report.
//!
//! [`run_all`] runs every analyzer and aggregates pass/fail per section;
//! the `cumf analyze` CLI subcommand and the CI gate are thin wrappers
//! over it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod kir;
pub mod lint;
pub mod mc;
pub mod models;
pub mod prover;
#[cfg(feature = "sanitize")]
pub mod sanitizer;
pub mod stale;

pub use deadlock::{
    DeadlockCert, DeadlockWitness, LivenessCert, ProtocolWitness, StarvationWitness,
};
pub use mc::{check, CheckOutcome, Model, Violation, ViolationKind};
pub use models::{CellModel, WorkClaimModel};
pub use prover::ProverCase;
pub use stale::{ShippedPath, StaleModel, StalenessWitness};

use cumf_core::Verdict;

/// State budget for each model-checker run; every model in [`models`] is
/// orders of magnitude below this.
pub const MC_STATE_BUDGET: usize = 1_000_000;

/// One analyzer section's aggregated outcome.
#[derive(Debug, Clone)]
pub struct SectionResult {
    /// Section name (`prover`, `model-check`, `sanitize`).
    pub name: &'static str,
    /// Whether every case in the section passed.
    pub pass: bool,
    /// Whether the section actually ran (the sanitizer section is
    /// skipped when the `sanitize` feature is off).
    pub ran: bool,
    /// Per-case detail lines.
    pub lines: Vec<String>,
}

impl std::fmt::Display for SectionResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = if !self.ran {
            "SKIP"
        } else if self.pass {
            "PASS"
        } else {
            "FAIL"
        };
        writeln!(f, "== {} [{status}] ==", self.name)?;
        for line in &self.lines {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// The whole analysis campaign's outcome.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// One entry per analyzer section.
    pub sections: Vec<SectionResult>,
}

impl AnalysisReport {
    /// True when every section that ran passed.
    pub fn pass(&self) -> bool {
        self.sections.iter().all(|s| !s.ran || s.pass)
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.sections {
            write!(f, "{s}")?;
        }
        write!(f, "analysis: {}", if self.pass() { "PASS" } else { "FAIL" })
    }
}

/// Runs the prover campaign as a section.
pub fn prover_section(seed: u64) -> SectionResult {
    let cases = prover::run(seed);
    SectionResult {
        name: "prover",
        pass: cases.iter().all(|c| c.pass()),
        ran: true,
        lines: cases.iter().map(|c| c.to_string()).collect(),
    }
}

/// Runs every interleaving model (real protocol + broken twin) as a
/// section. The real protocols must verify exhaustively; each broken
/// twin must produce its specific counterexample — a checker that cannot
/// refute the twins proves nothing about the protocols.
pub fn model_check_section() -> SectionResult {
    // (outcome, pass condition description, did it match expectations)
    let mut lines = Vec::new();
    let mut pass = true;
    let mut record = |out: CheckOutcome, ok: bool, expectation: &str| {
        let status = if ok { "ok" } else { "FAIL" };
        lines.push(format!("[{status}] {out} — expected {expectation}"));
        pass &= ok;
    };

    let out = check(&CellModel::atomic(), MC_STATE_BUDGET);
    record(
        out.clone(),
        out.verified() && !out.probe_reached,
        "no torn cell reachable",
    );
    let out = check(&CellModel::split(), MC_STATE_BUDGET);
    record(
        out.clone(),
        out.probe_reached,
        "torn cell reachable with split stores",
    );

    for (n, batch, threads) in [(4, 1, 2), (6, 2, 3), (5, 2, 2)] {
        let out = check(&WorkClaimModel::atomic(n, batch, threads), MC_STATE_BUDGET);
        record(out.clone(), out.verified(), "claims disjoint and complete");
    }
    let out = check(&WorkClaimModel::split(4, 1, 2), MC_STATE_BUDGET);
    record(
        out.clone(),
        matches!(&out.violation, Some(v) if v.kind == ViolationKind::Invariant),
        "double-claim counterexample",
    );

    SectionResult {
        name: "model-check",
        pass,
        ran: true,
        lines,
    }
}

/// A refutation that can be checked independently of the pass that
/// produced it: a witness that does not reproduce its violation proves
/// nothing, so a broken twin only counts as refuted when it replays.
pub trait Replay {
    /// True when re-checking the witness reproduces the violation.
    fn replays(&self) -> bool;
}

/// Runs a certify-and-refute campaign as a section named `name`: every
/// shipped verdict must be certified (`report` renders the certificate's
/// lines), and every named broken twin must be refuted with a witness
/// that [`Replay`]s — an analyzer that cannot refute the twins proves
/// nothing about the shipped `items`.
fn certify_and_refute<C, T, W: Replay + std::fmt::Display>(
    name: &'static str,
    items: &str,
    shipped: impl IntoIterator<Item = Verdict<C, W>>,
    report: impl Fn(&C) -> Vec<String>,
    twins: impl IntoIterator<Item = (&'static str, Verdict<T, W>)>,
) -> SectionResult {
    let mut lines = Vec::new();
    let mut pass = true;
    let mut certified = 0usize;
    let mut refuted = 0usize;
    for verdict in shipped {
        match verdict {
            Verdict::Certified(c) => {
                certified += 1;
                lines.extend(report(&c).into_iter().map(|l| format!("[ok] {l}")));
            }
            Verdict::Refuted(w) => {
                pass = false;
                lines.push(format!("[FAIL] not certified: {w}"));
            }
        }
    }
    for (twin, verdict) in twins {
        match verdict {
            Verdict::Certified(_) => {
                pass = false;
                lines.push(format!(
                    "[FAIL] broken twin {twin} was certified — the analyzer refutes nothing"
                ));
            }
            Verdict::Refuted(w) => {
                let ok = w.replays();
                pass &= ok;
                refuted += usize::from(ok);
                lines.push(format!("[{}] refuted: {w}", if ok { "ok" } else { "FAIL" }));
            }
        }
    }
    lines.push(format!(
        "{certified} {items} certified, {refuted} broken twins refuted"
    ));
    SectionResult {
        name,
        pass,
        ran: true,
        lines,
    }
}

/// Runs the static deadlock & liveness certifier as a section: every
/// shipped blocking protocol must come back certified (acyclic order,
/// bounded waits, dominating watchdog), and every seeded broken twin
/// must be refuted with a concrete, replayable witness.
pub fn deadlock_section() -> SectionResult {
    use deadlock::{analyze_protocol, protocols};
    certify_and_refute(
        "deadlock",
        "shipped protocols",
        protocols::shipped_protocols().iter().map(analyze_protocol),
        |(order, live)| vec![format!("certified: {order}"), format!("live: {live}")],
        protocols::broken_twins()
            .iter()
            .map(|p| (p.name, analyze_protocol(p))),
    )
}

/// Runs the static staleness & asynchrony certifier as a section: every
/// shipped update path must certify (finite τ, exhaustively validated
/// by the interleaving checker, lr·τ condition under the reference
/// schedule), and every broken twin must be refuted with a replayable
/// [`StalenessWitness`].
pub fn staleness_section() -> SectionResult {
    certify_and_refute(
        "staleness",
        "update paths",
        stale::shipped_paths().iter().map(stale::certify_path),
        |(cert, mc)| {
            vec![
                format!("certified: {cert}"),
                format!(
                    "validated: {} states, {} transitions — observed staleness ≤ τ in every \
                     interleaving",
                    mc.states, mc.transitions
                ),
            ]
        },
        stale::broken_twins()
            .iter()
            .map(|twin| (twin.name, stale::check_model(twin))),
    )
}

/// Grid the cost cross-check runs over: the acceptance matrix of
/// feature dimensions × both storage precisions.
pub const COST_CHECK_KS: [u32; 4] = [16, 31, 64, 128];

/// Runs the kernel-IR cost certification as a section: the three-way
/// kernel ↔ cost-model ↔ simulator agreement at every `(k, precision)`
/// in [`COST_CHECK_KS`], plus the broken-twin refutation (a checker
/// that cannot refute a wrong constant proves nothing).
pub fn cost_section() -> SectionResult {
    use kir::traffic::{broken_twin_bytes, cross_check, cross_check_with_model};
    use kir::Dtype;
    let mut lines = Vec::new();
    let mut pass = true;
    for k in COST_CHECK_KS {
        for elem in [Dtype::F32, Dtype::F16] {
            let c = cross_check(k, elem, cumf_gpu_sim::RatingAccess::Streamed);
            pass &= c.verdict.is_certified();
            lines.push(c.to_string());
        }
    }
    // The broken twin forgot the q-row write-back; it must be refuted
    // with the concrete −k·sizeof(elem) delta.
    let k = 64;
    let real = cumf_gpu_sim::SgdUpdateCost::cpu_f32(k);
    let twin = cross_check_with_model(
        k,
        Dtype::F32,
        cumf_gpu_sim::RatingAccess::Streamed,
        broken_twin_bytes(k, Dtype::F32),
        real.flops(),
        real,
    );
    let refuted = twin
        .verdict
        .witness()
        .is_some_and(|w| w.delta() == -(i64::from(k) * 4));
    pass &= refuted;
    lines.push(format!(
        "[{}] broken twin: {twin}",
        if refuted { "ok" } else { "FAIL" }
    ));
    SectionResult {
        name: "cost",
        pass,
        ran: true,
        lines,
    }
}

/// Runs the coalescing pass as a section: the SGD update lift must be
/// fully coalesced at every acceptance `k` in both precisions, and the
/// BIDMach column-major lift must be flagged with its line expansion.
pub fn coalesce_section() -> SectionResult {
    use kir::coalesce::analyze_coalescing;
    use kir::{lift_bidmach_inner, lift_sgd_update, Dtype};
    let line = 128; // both paper GPUs: 128 B L1 lines
    let mut lines = Vec::new();
    let mut pass = true;
    for k in COST_CHECK_KS {
        for elem in [Dtype::F32, Dtype::F16] {
            let r = analyze_coalescing(&lift_sgd_update(k, elem), line);
            let ok = r.fully_coalesced();
            pass &= ok;
            lines.push(format!("[{}] {r}", if ok { "ok" } else { "FAIL" }));
        }
    }
    let r = analyze_coalescing(&lift_bidmach_inner(64, 4096), line);
    let flagged = !r.fully_coalesced() && r.expansion() > 30.0;
    pass &= flagged;
    lines.push(format!(
        "[{}] {r} — expected uncoalesced",
        if flagged { "ok" } else { "FAIL" }
    ));
    SectionResult {
        name: "coalesce",
        pass,
        ran: true,
        lines,
    }
}

/// Runs the FP16 range/error pass as a section: the conservative
/// config must be *proven* safe, the adversarial LR spike must be
/// *refuted* with a concrete overflow witness, and the aggressive
/// paper regime must come back honestly `Unknown`.
pub fn precision_section() -> SectionResult {
    use kir::precision::{analyze_precision, PrecisionConfig, PrecisionVerdict};
    let mut lines = Vec::new();
    let mut pass = true;
    let mut record = |label: &str, v: &PrecisionVerdict, ok: bool| {
        lines.push(format!("[{}] {label}: {v}", if ok { "ok" } else { "FAIL" }));
        pass &= ok;
    };
    for k in [16, 64, 128] {
        let v = analyze_precision(&PrecisionConfig::safe_default(k));
        let ok = v.proven();
        record(&format!("safe_default k={k}"), &v, ok);
    }
    let v = analyze_precision(&PrecisionConfig::adversarial_lr_spike(64));
    let ok = matches!(v, PrecisionVerdict::Refuted(_));
    record("adversarial_lr_spike k=64", &v, ok);
    let v = analyze_precision(&PrecisionConfig::paper_aggressive(64));
    let ok = matches!(v, PrecisionVerdict::Unknown { .. });
    record("paper_aggressive k=64", &v, ok);
    SectionResult {
        name: "precision",
        pass,
        ran: true,
        lines,
    }
}

/// Runs the determinism lint as a section. When the workspace sources
/// are not on disk (an installed binary outside the repo) the section
/// reports `SKIP` rather than a vacuous pass.
pub fn lint_section() -> SectionResult {
    let report = lint::lint_workspace();
    if report.files_scanned == 0 {
        return SectionResult {
            name: "lint",
            pass: true,
            ran: false,
            lines: vec!["skipped: workspace sources not found".to_string()],
        };
    }
    let mut lines = vec![format!(
        "scanned {} files across cumf-core, cumf-gpu-sim, cumf-des, cumf-bench, cumf-serve",
        report.files_scanned
    )];
    lines.extend(report.findings.iter().map(|f| f.to_string()));
    SectionResult {
        name: "lint",
        pass: report.clean(),
        ran: true,
        lines,
    }
}

/// Runs the sanitizer drivers as a section (skipped without the
/// `sanitize` feature).
pub fn sanitize_section(seed: u64) -> SectionResult {
    #[cfg(feature = "sanitize")]
    {
        let cases = sanitizer::run(seed);
        SectionResult {
            name: "sanitize",
            pass: cases.iter().all(|c| c.pass()),
            ran: true,
            lines: cases.iter().map(|c| c.to_string()).collect(),
        }
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = seed;
        SectionResult {
            name: "sanitize",
            pass: true,
            ran: false,
            lines: vec![
                "skipped: rebuild with `--features sanitize` to run the lockset sanitizer"
                    .to_string(),
            ],
        }
    }
}

/// Runs every analyzer and aggregates the outcome.
pub fn run_all(seed: u64) -> AnalysisReport {
    AnalysisReport {
        sections: vec![
            prover_section(seed),
            model_check_section(),
            deadlock_section(),
            staleness_section(),
            cost_section(),
            coalesce_section(),
            precision_section(),
            lint_section(),
            sanitize_section(seed),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_campaign_passes() {
        let report = run_all(42);
        assert!(report.pass(), "{report}");
        assert_eq!(report.sections.len(), 9);
        // Rendered report names every section.
        let text = report.to_string();
        for name in [
            "prover",
            "model-check",
            "deadlock",
            "staleness",
            "cost",
            "coalesce",
            "precision",
            "lint",
            "sanitize",
        ] {
            assert!(text.contains(name), "missing section {name}:\n{text}");
        }
    }

    #[test]
    fn a_failing_section_fails_the_report() {
        let mut report = run_all(7);
        report.sections[0].pass = false;
        assert!(!report.pass());
        assert!(report.to_string().contains("FAIL"));
    }
}
