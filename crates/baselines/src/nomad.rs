//! NOMAD — the distributed SGD comparator (Yun et al., VLDB'14; §7.2).
//!
//! NOMAD partitions P's rows across nodes and circulates item columns
//! (`q_v` vectors) between them: the node holding item `v` performs SGD
//! updates on its local samples of column `v`, then hands the item to
//! another node. Ownership is exclusive, so updates are conflict-free and
//! convergence matches serial SGD up to update order.
//!
//! Two components:
//!
//! * [`train_nomad`] — a faithful sequential emulation of the decentralised
//!   update order, for convergence traces;
//! * [`NomadPerfModel`] — a per-epoch cost model: local compute is
//!   memory-bound on each node's (cache-assisted) bandwidth while item
//!   circulation pays a per-message software/network cost. Communication
//!   does not shrink with node count — each node still handles ~n item
//!   hops per epoch — which is precisely why the paper observes only
//!   ~5.6X speedup on 32 nodes and the collapsing memory efficiency of
//!   Fig 2(b).

use cumf_rng::seq::SliceRandom;
use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::{CooMatrix, CsrMatrix};
use cumf_gpu_sim::{CpuCacheModel, LinkSpec, SgdUpdateCost};

use cumf_core::feature::FactorMatrix;
use cumf_core::kernel::sgd_update;
use cumf_core::lrate::{LearningRate, Schedule};
use cumf_core::metrics::{rmse, Trace, TracePoint};
use cumf_core::solver::check_problem;

/// NOMAD solver configuration.
#[derive(Debug, Clone)]
pub struct NomadConfig {
    /// Feature dimension.
    pub k: u32,
    /// Regularisation λ.
    pub lambda: f32,
    /// Learning-rate schedule (the paper's Eq. 9, which NOMAD originated).
    pub schedule: Schedule,
    /// Epochs.
    pub epochs: u32,
    /// Number of cluster nodes.
    pub nodes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl NomadConfig {
    /// Defaults for a `nodes`-node cluster.
    pub fn new(k: u32, nodes: u32) -> Self {
        NomadConfig {
            k,
            lambda: 0.05,
            schedule: Schedule::paper_default(0.08, 0.3),
            epochs: 20,
            nodes,
            seed: 42,
        }
    }
}

/// Result of a NOMAD run.
#[derive(Debug, Clone)]
pub struct NomadResult {
    /// Learned row factors.
    pub p: FactorMatrix<f32>,
    /// Learned column factors.
    pub q: FactorMatrix<f32>,
    /// Convergence trace.
    pub trace: Trace,
}

/// Per-epoch performance model of the NOMAD cluster.
#[derive(Debug, Clone)]
pub struct NomadPerfModel {
    /// Per-node cache model (working set per node shrinks with nodes —
    /// the cache-efficiency benefit the paper credits NOMAD with).
    pub cache: CpuCacheModel,
    /// Inter-node link.
    pub link: LinkSpec,
    /// Per-message software overhead, seconds (serialisation, MPI stack,
    /// queueing). ~108 µs (with the 12.5 GB/s node) reproduces NOMAD's
    /// measured 5.6X speedup on 32 nodes for Netflix; the
    /// physically-motivated components (syscall + copy + NIC doorbell)
    /// are a fraction of it, the rest is queueing and item-availability
    /// imbalance folded into a single knob.
    pub per_message_overhead: f64,
}

impl NomadPerfModel {
    /// The calibrated cluster model used throughout the benches.
    pub fn hpc_cluster() -> Self {
        NomadPerfModel {
            cache: CpuCacheModel::calibrated(cumf_gpu_sim::NOMAD_HPC_NODE),
            link: cumf_gpu_sim::HPC_NETWORK,
            per_message_overhead: 108e-6,
        }
    }

    /// Seconds for one epoch on `nodes` nodes of an m×n, N-sample problem
    /// at rank k.
    pub fn epoch_seconds(&self, m: u64, n: u64, nnz: u64, k: u32, nodes: u32) -> f64 {
        assert!(nodes >= 1);
        let cost = SgdUpdateCost::cpu_f32(k);
        // Each node holds m/nodes rows; its feature working set is the full
        // Q (circulating) plus its P stripe.
        let ws = (m as f64 / nodes as f64 + n as f64) * k as f64 * 4.0;
        let eff_bw = self.cache.effective_bw(&cost, ws);
        let compute = (nnz as f64 / nodes as f64) * cost.bytes() as f64 / eff_bw;
        if nodes == 1 {
            return compute;
        }
        // Circulation: each item visits every node once per epoch; each
        // node therefore sends/receives ~n messages of one q-vector.
        let hop_bytes = k as f64 * 4.0 + 16.0;
        let comm = n as f64 * (self.per_message_overhead + hop_bytes / self.link.achieved_bw);
        // Compute and communication overlap; imbalance keeps the epoch
        // from hiding the longer one completely.
        compute.max(comm) + 0.1 * compute.min(comm)
    }

    /// Speedup of `nodes` nodes over one node.
    pub fn speedup(&self, m: u64, n: u64, nnz: u64, k: u32, nodes: u32) -> f64 {
        self.epoch_seconds(m, n, nnz, k, 1) / self.epoch_seconds(m, n, nnz, k, nodes)
    }

    /// Parallel memory efficiency (Fig 2b): achieved aggregate update
    /// throughput relative to perfect per-node scaling.
    pub fn memory_efficiency(&self, m: u64, n: u64, nnz: u64, k: u32, nodes: u32) -> f64 {
        self.speedup(m, n, nnz, k, nodes) / nodes as f64
    }
}

/// Trains with NOMAD's decentralised ownership order (sequential
/// emulation: exclusive item ownership makes the parallel execution
/// conflict-free, so program order is faithful).
pub fn train_nomad(
    train: &CooMatrix,
    test: &CooMatrix,
    config: &NomadConfig,
    perf: Option<&NomadPerfModel>,
) -> NomadResult {
    check_problem(train, config.k).unwrap_or_else(|e| panic!("{e}"));
    assert!(config.nodes >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut p: FactorMatrix<f32> = FactorMatrix::random_init(train.rows(), config.k, &mut rng);
    let mut q: FactorMatrix<f32> = FactorMatrix::random_init(train.cols(), config.k, &mut rng);

    // Per-node CSC slices: node -> (item -> local sample list). We realise
    // this as a CSC over each node's row stripe.
    let m = train.rows();
    let nodes = config.nodes;
    let stripes: Vec<CooMatrix> = (0..nodes)
        .map(|node| {
            let lo = (node as u64 * m as u64 / nodes as u64) as u32;
            let hi = ((node as u64 + 1) * m as u64 / nodes as u64) as u32;
            // Keep global coordinates: the window is only a filter here.
            let mut stripe = CooMatrix::new(m, train.cols());
            for e in train.iter() {
                if e.u >= lo && e.u < hi {
                    stripe.push(e.u, e.v, e.r);
                }
            }
            stripe
        })
        .collect();
    let by_col: Vec<CsrMatrix> = stripes.iter().map(CsrMatrix::from_coo_transposed).collect();

    let epoch_secs = perf.map(|pm| {
        pm.epoch_seconds(
            train.rows() as u64,
            train.cols() as u64,
            train.nnz() as u64,
            config.k,
            nodes,
        )
    });

    let mut lr = LearningRate::new(config.schedule.clone());
    let mut trace = Trace::default();
    let mut updates = 0u64;
    let n_items = train.cols();

    for epoch in 0..config.epochs {
        let gamma = lr.gamma(epoch);
        // Each item circulates through all nodes in a random node order,
        // items interleaved in random order — NOMAD's asynchronous sweep.
        let mut items: Vec<u32> = (0..n_items).collect();
        items.shuffle(&mut rng);
        for &v in &items {
            let mut order: Vec<usize> = (0..nodes as usize).collect();
            order.shuffle(&mut rng);
            for node in order {
                let (rows, vals) = by_col[node].row(v);
                for (&u, &r) in rows.iter().zip(vals) {
                    sgd_update(p.row_mut(u), q.row_mut(v), r, gamma, config.lambda);
                    updates += 1;
                }
            }
        }
        let test_rmse = rmse(test, &p, &q);
        lr.observe(test_rmse);
        trace.push(TracePoint {
            epoch: epoch + 1,
            updates,
            rmse: test_rmse,
            seconds: epoch_secs.map(|s| s * (epoch + 1) as f64).unwrap_or(0.0),
        });
    }
    NomadResult { p, q, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::{generate, SynthConfig};

    fn dataset() -> cumf_data::synth::SynthDataset {
        generate(&SynthConfig {
            m: 300,
            n: 200,
            k_true: 4,
            train_samples: 15_000,
            test_samples: 1_500,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 1.0,
            seed: 41,
        })
    }

    #[test]
    fn nomad_converges() {
        let d = dataset();
        let mut cfg = NomadConfig::new(6, 4);
        cfg.schedule = Schedule::paper_default(0.1, 0.1);
        cfg.lambda = 0.02;
        cfg.epochs = 15;
        let r = train_nomad(&d.train, &d.test, &cfg, None);
        let final_rmse = r.trace.final_rmse().unwrap();
        assert!(final_rmse < 0.2, "NOMAD should converge, got {final_rmse}");
    }

    #[test]
    fn node_count_does_not_change_coverage() {
        let d = dataset();
        let mut c1 = NomadConfig::new(4, 1);
        c1.epochs = 2;
        let mut c8 = NomadConfig::new(4, 8);
        c8.epochs = 2;
        let r1 = train_nomad(&d.train, &d.test, &c1, None);
        let r8 = train_nomad(&d.train, &d.test, &c8, None);
        // Same number of updates regardless of distribution.
        assert_eq!(
            r1.trace.points.last().unwrap().updates,
            r8.trace.points.last().unwrap().updates
        );
        // Similar convergence (order differs, quality comparable).
        let a = r1.trace.final_rmse().unwrap();
        let b = r8.trace.final_rmse().unwrap();
        assert!((a - b).abs() < 0.15, "1-node {a} vs 8-node {b}");
    }

    #[test]
    fn perf_model_matches_papers_netflix_scaling() {
        // §2.3: "On the Netflix data set, NOMAD only achieves ~5.6X speedup
        // when scaling from 1 node to 32".
        let pm = NomadPerfModel::hpc_cluster();
        let s32 = pm.speedup(480_190, 17_771, 99_072_112, 128, 32);
        assert!(
            (s32 - 5.6).abs() < 1.5,
            "32-node speedup {s32} should be near the paper's 5.6X"
        );
        // And memory efficiency collapses (Fig 2b).
        let e32 = pm.memory_efficiency(480_190, 17_771, 99_072_112, 128, 32);
        assert!(e32 < 0.25, "efficiency must be 'extremely low', got {e32}");
        let e4 = pm.memory_efficiency(480_190, 17_771, 99_072_112, 128, 4);
        assert!(e4 > e32, "efficiency decreases with node count");
    }

    #[test]
    fn perf_model_monotonic_epoch_time() {
        let pm = NomadPerfModel::hpc_cluster();
        // More nodes always shrinks compute but comm forms a floor.
        let t1 = pm.epoch_seconds(480_190, 17_771, 99_072_112, 128, 1);
        let t8 = pm.epoch_seconds(480_190, 17_771, 99_072_112, 128, 8);
        let t32 = pm.epoch_seconds(480_190, 17_771, 99_072_112, 128, 32);
        assert!(t8 < t1);
        assert!(t32 < t8 * 1.5, "t32 {t32} should not explode vs t8 {t8}");
        assert!(t32 > t1 / 32.0, "comm floor keeps scaling sub-linear");
    }

    #[test]
    fn big_yahoo_like_shape_scales_worse_than_netflix() {
        // Yahoo has 35X more items than Netflix -> far more circulation
        // traffic; the paper finds NOMAD on Yahoo *slower than LIBMF on
        // one node* (§7.2).
        let pm = NomadPerfModel::hpc_cluster();
        let s_netflix = pm.speedup(480_190, 17_771, 99_072_112, 128, 32);
        let s_yahoo = pm.speedup(1_000_990, 624_961, 252_800_275, 128, 32);
        assert!(
            s_yahoo < s_netflix / 2.0,
            "yahoo speedup {s_yahoo} must trail netflix {s_netflix}"
        );
    }
}
