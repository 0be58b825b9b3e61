//! Every workload and metric the benchmark declares. `BENCHMARK.json`
//! at the repository root lists the same names, units, directions and
//! bounds; a test keeps the two in step.

use crate::stats::Better;

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change counts as a
/// regression (per-layer metrics carry none).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the trainer or the server sees; printed by untraced
/// runs. Each workload reports all of them, read per workload kind:
///
/// * `time_to_result_s` — training: wall time of one `train()` call over
///   the workload's epoch budget, which must reach the target test RMSE;
///   serving: wall time to answer one closed-loop pass of requests. The
///   fastest of the run's trials: the machine is shared, and the
///   fastest trial is the one other tenants disturbed least;
/// * `ops_per_s` — training: SGD updates per wall second; serving:
///   requests answered per wall second (of that same fastest trial);
/// * `setup_s` — median wall time to generate the workload's inputs,
///   generated again before every trial;
/// * `peak_rss_mb` — the process's peak resident set (VmHWM).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("time_to_result_s", "s", Lower, 0.2),
    e2e("ops_per_s", "1/s", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Single-layer numbers from the traced run. A layer a workload does
/// not exercise reads 0 there (for example `cert.conflict_s` on the
/// batch-Hogwild! workloads, or every serving layer on a training one).
pub const PER_LAYER: [MetricDef; 40] = [
    layer("data.gen_s", "s", Lower),
    layer("cert.cost_s", "s", Lower),
    layer("cert.stale_s", "s", Lower),
    layer("cert.conflict_s", "s", Lower),
    layer("cert.conflict_share", "ratio", Lower),
    layer("engine.init_s", "s", Lower),
    layer("exec.epoch_s", "s", Lower),
    layer("exec.rounds", "count", Lower),
    layer("exec.collision_rounds_ratio", "ratio", Lower),
    layer("exec.beyond_kernel_ns", "ns", Lower),
    layer("sched.next_ns", "ns", Lower),
    layer("sched.stall_ratio", "ratio", Lower),
    layer("kernel.update_ns", "ns", Lower),
    layer("kernel.delta_ns", "ns", Lower),
    layer("kernel.bytes_per_update", "B", Lower),
    layer("kernel.gbytes_per_s_computed", "GB/s", Higher),
    layer("feature.row_io_ns", "ns", Lower),
    layer("eval.rmse_s", "s", Lower),
    layer("pipeline.other_s", "s", Lower),
    layer("solver.epochs_to_target", "count", Lower),
    layer("solver.rmse_at_budget", "rating", Lower),
    layer("solver.sim_time_to_target_s", "s", Lower),
    layer("solver.wall_to_target_s", "s", Lower),
    layer("admission.shed_ratio", "ratio", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.op_ns", "ns", Lower),
    layer("shard.read_p99_ms", "ms", Lower),
    layer("shard.hedges_per_req", "ratio", Lower),
    layer("shard.retries", "count", Lower),
    layer("shard.timeouts", "count", Lower),
    layer("degrade.ratio", "ratio", Lower),
    layer("topn.scan_us", "us", Lower),
    layer("serve.loop_other_us", "us", Lower),
    layer("serve.p50_ms", "ms", Lower),
    layer("serve.p99_ms", "ms", Lower),
    layer("serve.p999_ms", "ms", Lower),
    layer("serve.qps", "1/s", Higher),
    layer("serve.qps_at_slo", "1/s", Higher),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

/// Looks a declared metric up by name (end-to-end first).
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "netflix-bh-f32",
        "Paper default: batch-Hogwild! (16 workers, batch 256) on a Netflix-shaped 24,010x889 matrix in f32; \
         time goes to the stale-additive engine, the prover is skipped",
    ),
    (
        "netflix-bh-f16",
        "The same inputs with FP16 storage: only precision changes, so FP16 conversion cost shows here and \
         should leave netflix-bh-f32 unchanged",
    ),
    (
        "yahoo-wavefront-f32",
        "Wavefront (16 workers, 32 columns) on a Yahoo-shaped 5,005x3,125 matrix: Sequential engine, \
         conflict-prover replay and scheduler stalls dominate",
    ),
    (
        "serve-zipf",
        "Top-N serving of a 50,000x4,000 k=32 model sharded 4x2 to 16 closed-loop Zipf(0.9) clients: about \
         a third cache hits, the rest scan every Q-shard",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        for n in &names {
            assert!(valid_name(n), "invalid name {n:?}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate names");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "invalid unit {:?}",
                m.unit
            );
        }
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = metric("setup_s").and_then(|m| m.bound).expect("declared");
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            assert!(m.bound.expect("end-to-end bound") < setup, "{}", m.name);
        }
        assert!(setup <= 0.25);
    }
}
