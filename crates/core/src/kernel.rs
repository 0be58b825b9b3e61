//! The SGD update kernel (Algorithm 1, lines 8–10).
//!
//! One update on sample `(u, v, r)`:
//!
//! ```text
//! err  = r - p_u · q_v
//! p_u += γ (err · q_v - λ p_u)
//! q_v += γ (err · p_u - λ q_v)        // using the OLD p_u
//! ```
//!
//! Two implementations: a plain scalar reference, and a 4-wide unrolled
//! variant mirroring the CUDA kernel's structure (each of the 32 lanes owns
//! `k/32` strided elements and the compiler is free to vectorise — the ILP
//! technique of §4). Tests pin them to agree bit-for-bit-ish, and pin the
//! unrolled kernel's own bits in both precisions.

use cumf_gpu_sim::{Precision, RatingAccess, SgdUpdateCost};

use crate::digest::Fnv1a;
use crate::feature::Element;

/// The storage precision a factor [`Element`] type corresponds to in the
/// §2.3 cost model.
pub fn precision_of<E: Element>() -> Precision {
    match E::BYTES {
        2 => Precision::F16,
        4 => Precision::F32,
        other => panic!("no cost-model precision for {other}-byte elements"),
    }
}

/// The memory contract of [`sgd_update`]: which element accesses one
/// update performs, split into what reaches DRAM and what the GPU kernel
/// serves from registers.
///
/// The portable kernel converts each of `p_u`, `q_v` **twice** per update
/// — once in the dot product, once in the update loop — so it executes
/// `4k` element loads. On the GPU (and in the register-residency model of
/// the `cumf-analyze` kernel IR) the second read hits the registers that
/// staged the row on first load (Fig 4: "both CUDA and LIBMF stage the
/// old vectors in registers"), so only `2k` loads reach DRAM. The store
/// side writes each row back once: `2k` stores. This struct is *measured*
/// against the real kernel by the instrumented-element test below, and
/// certified against [`SgdUpdateCost`] by [`CostCert::certify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTraffic {
    /// Feature dimension.
    pub k: u32,
    /// Bytes per stored element.
    pub elem_bytes: u32,
    /// Element loads the portable kernel executes (`4k`: dot + update).
    pub element_loads: u64,
    /// Element loads that reach DRAM after register staging (`2k`).
    pub dram_element_loads: u64,
    /// Element stores (`2k`: both rows written back once).
    pub element_stores: u64,
}

impl KernelTraffic {
    /// The contract of [`sgd_update`] for storage element `E` at dimension
    /// `k`, derived from the kernel's structure (and pinned to its real
    /// behaviour by the `instrumented_element_counts_match_contract` test).
    pub fn of_update_kernel<E: Element>(k: u32) -> Self {
        let k64 = k as u64;
        KernelTraffic {
            k,
            elem_bytes: E::BYTES as u32,
            element_loads: 4 * k64,
            dram_element_loads: 2 * k64,
            element_stores: 2 * k64,
        }
    }

    /// Bytes of the rating fetch, derived from the COO record the kernel
    /// consumes (two `u32` coordinates + one `f32` rating = 12 bytes),
    /// independent of the gpu-sim cost model it is checked against.
    pub fn rating_bytes(rating: RatingAccess) -> u64 {
        let coo = (2 * std::mem::size_of::<u32>() + std::mem::size_of::<f32>()) as u64;
        match rating {
            RatingAccess::Streamed => coo,
            RatingAccess::RandomLine { line_bytes } => (line_bytes as u64).max(coo),
        }
    }

    /// Total DRAM bytes per update under a rating access pattern.
    pub fn dram_bytes(&self, rating: RatingAccess) -> u64 {
        Self::rating_bytes(rating)
            + (self.dram_element_loads + self.element_stores) * self.elem_bytes as u64
    }

    /// Floating-point operations per update: the three `2`-flop/element
    /// vector stages (dot FMAs, `p` update, `q` update) plus the
    /// warp-shuffle reduction tree's halving sum — the numerator of Eq. 5.
    pub fn flops(&self) -> u64 {
        let k = self.k as u64;
        let mut reduction = 0;
        let mut i = k;
        while i > 1 {
            i /= 2;
            reduction += i;
        }
        6 * k + reduction
    }
}

/// Outcome of certifying the kernel contract against a cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCertStatus {
    /// Kernel-derived traffic and the cost model agree bit-for-bit.
    Certified,
    /// They disagree; the concrete per-update delta is the evidence.
    Refuted {
        /// Bytes per update the cost model charges.
        model_bytes: u64,
        /// Bytes per update the kernel contract derives.
        kernel_bytes: u64,
        /// Flops per update the cost model counts.
        model_flops: u64,
        /// Flops per update the kernel contract counts.
        kernel_flops: u64,
    },
}

/// A per-run certificate that the Eq. 5 cost model matches the kernel the
/// run actually executed — the static-analysis counterpart of the
/// schedule [`crate::sched::ConflictCert`], attached to
/// [`crate::solver::TrainResult`] the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCert {
    /// Feature dimension certified.
    pub k: u32,
    /// Storage element name (`f32` / `f16`).
    pub precision: &'static str,
    /// Agreed bytes per update (kernel-derived; equals the model's when
    /// certified).
    pub bytes_per_update: u64,
    /// Agreed flops per update.
    pub flops_per_update: u64,
    /// Certification status.
    pub status: CostCertStatus,
    /// When the run priced epochs with a [`crate::solver::TimeModel`],
    /// the signed byte difference `time_model_bytes − kernel_bytes`;
    /// non-zero means the trace's clock charged different traffic than
    /// the kernel generates (informational — callers pass mismatched
    /// models deliberately in sensitivity studies).
    pub time_model_drift: Option<i64>,
    /// FNV-1a digest over the certified quantities, for logs and replay
    /// comparison.
    pub digest: u64,
}

impl CostCert {
    /// Certifies the [`sgd_update`] contract for element `E` at dimension
    /// `k` against the Eq. 5 cost model with the given rating access.
    /// `time_model` is the cost model of the run's time domain, if any.
    pub fn certify<E: Element>(
        k: u32,
        rating: RatingAccess,
        time_model: Option<&SgdUpdateCost>,
    ) -> CostCert {
        let traffic = KernelTraffic::of_update_kernel::<E>(k);
        let model = SgdUpdateCost {
            k,
            precision: precision_of::<E>(),
            rating_access: rating,
        };
        let kernel_bytes = traffic.dram_bytes(rating);
        let kernel_flops = traffic.flops();
        let status = if kernel_bytes == model.bytes() && kernel_flops == model.flops() {
            CostCertStatus::Certified
        } else {
            CostCertStatus::Refuted {
                model_bytes: model.bytes(),
                kernel_bytes,
                model_flops: model.flops(),
                kernel_flops,
            }
        };
        let time_model_drift = time_model.map(|tm| tm.bytes() as i64 - kernel_bytes as i64);
        let digest = Fnv1a::new()
            .u64(u64::from(k))
            .u64(E::BYTES as u64)
            .u64(kernel_bytes)
            .u64(kernel_flops)
            .u64(u64::from(matches!(status, CostCertStatus::Certified)))
            .finish();
        CostCert {
            k,
            precision: E::NAME,
            bytes_per_update: kernel_bytes,
            flops_per_update: kernel_flops,
            status,
            time_model_drift,
            digest,
        }
    }

    /// True when the kernel and the cost model agree.
    pub fn is_certified(&self) -> bool {
        matches!(self.status, CostCertStatus::Certified)
    }
}

impl std::fmt::Display for CostCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.status {
            CostCertStatus::Certified => write!(
                f,
                "cost certified: k={} {} — {} B/update, {} flops/update (digest {:016x})",
                self.k, self.precision, self.bytes_per_update, self.flops_per_update, self.digest
            )?,
            CostCertStatus::Refuted {
                model_bytes,
                kernel_bytes,
                model_flops,
                kernel_flops,
            } => write!(
                f,
                "cost REFUTED: k={} {} — model charges {model_bytes} B/update but the kernel \
                 touches {kernel_bytes} (Δ {:+}); flops {model_flops} vs {kernel_flops} (Δ {:+})",
                self.k,
                self.precision,
                model_bytes as i64 - kernel_bytes as i64,
                model_flops as i64 - kernel_flops as i64,
            )?,
        }
        if let Some(drift) = self.time_model_drift {
            if drift != 0 {
                write!(f, "; time-model drift {drift:+} B/update")?;
            }
        }
        Ok(())
    }
}

/// Dot product of two k-element rows in f32, scalar reference.
#[inline]
pub fn dot_scalar<E: Element>(p: &[E], q: &[E]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    let mut acc = 0.0f32;
    for (a, b) in p.iter().zip(q) {
        acc += a.to_f32() * b.to_f32();
    }
    acc
}

/// Dot product with 4 independent accumulators (ILP), matching the
/// warp-shuffle reduction's pairwise summation order more closely than a
/// single serial chain and letting LLVM vectorise. `q` is resliced to
/// `p`'s length once and both rows are walked by iterators, so no element
/// access carries a bounds check.
#[inline]
pub fn dot<E: Element>(p: &[E], q: &[E]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    let q = &q[..p.len()];
    let (pc, qc) = (p.chunks_exact(4), q.chunks_exact(4));
    let (pt, qt) = (pc.remainder(), qc.remainder());
    let mut acc = [0.0f32; 4];
    for (a, b) in pc.zip(qc) {
        for ((acc, &a), &b) in acc.iter_mut().zip(a).zip(b) {
            *acc += a.to_f32() * b.to_f32();
        }
    }
    let mut tail = 0.0f32;
    for (&a, &b) in pt.iter().zip(qt) {
        tail += a.to_f32() * b.to_f32();
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// One SGD update in place. Returns the prediction error *before* the
/// update (used for training-loss tracking).
///
/// `q` is updated with the *old* `p` exactly as in Algorithm 1 (line 10
/// uses `p_u` from before line 9's assignment — both CUDA and LIBMF stage
/// the old vectors in registers). Like [`dot`], the update loop zips the
/// two rows rather than indexing them, so it runs without bounds checks.
#[inline]
pub fn sgd_update<E: Element>(p: &mut [E], q: &mut [E], r: f32, gamma: f32, lambda: f32) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    let q = &mut q[..p.len()];
    let err = r - dot(p, q);
    for (pe, qe) in p.iter_mut().zip(q.iter_mut()) {
        let pi = pe.to_f32();
        let qi = qe.to_f32();
        *pe = E::from_f32(pi + gamma * (err * qi - lambda * pi));
        *qe = E::from_f32(qi + gamma * (err * pi - lambda * qi));
    }
    err
}

/// Scalar-reference version of [`sgd_update`] for differential testing.
#[inline]
pub fn sgd_update_reference<E: Element>(
    p: &mut [E],
    q: &mut [E],
    r: f32,
    gamma: f32,
    lambda: f32,
) -> f32 {
    let err = r - dot_scalar(p, q);
    for i in 0..p.len() {
        let pi = p[i].to_f32();
        let qi = q[i].to_f32();
        p[i] = E::from_f32(pi + gamma * (err * qi - lambda * pi));
        q[i] = E::from_f32(qi + gamma * (err * pi - lambda * qi));
    }
    err
}

/// Computes the SGD delta (new − old) against a read snapshot without
/// writing: the building block of the round-based Hogwild! conflict engine
/// ([`crate::concurrent`]), where stale reads and additive commits model
/// racing workers. The dot product is one serial chain (unlike [`dot`]'s
/// four accumulators); the delta loop zips the four rows, so no element
/// access carries a bounds check.
#[inline]
pub fn sgd_delta(
    p: &[f32],
    q: &[f32],
    r: f32,
    gamma: f32,
    lambda: f32,
    dp: &mut [f32],
    dq: &mut [f32],
) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    debug_assert_eq!((dp.len(), dq.len()), (p.len(), p.len()));
    let err = r - p.iter().zip(q).fold(0.0f32, |acc, (a, b)| acc + a * b);
    for (((dp, dq), &pi), &qi) in dp.iter_mut().zip(dq.iter_mut()).zip(p).zip(q) {
        *dp = gamma * (err * qi - lambda * pi);
        *dq = gamma * (err * pi - lambda * qi);
    }
    err
}

/// Per-coordinate ADAGRAD state (the BIDMach update rule, and the paper's
/// stated future-work extension for cuMF_SGD).
#[derive(Debug, Clone)]
pub struct AdaGrad {
    /// Accumulated squared gradients, one per parameter.
    g2: Vec<f32>,
    /// Base learning rate.
    pub eta: f32,
    /// Numerical floor inside the square root.
    pub eps: f32,
}

impl AdaGrad {
    /// Creates state for `params` parameters.
    pub fn new(params: usize, eta: f32) -> Self {
        AdaGrad {
            g2: vec![0.0; params],
            eta,
            eps: 1e-8,
        }
    }

    /// The per-coordinate step size for gradient `g` at parameter `idx`,
    /// accumulating the squared gradient.
    #[inline]
    pub fn step(&mut self, idx: usize, g: f32) -> f32 {
        let acc = &mut self.g2[idx];
        *acc += g * g;
        self.eta / (acc.sqrt() + self.eps)
    }

    /// Number of tracked parameters.
    pub fn len(&self) -> usize {
        self.g2.len()
    }

    /// True if tracking zero parameters.
    pub fn is_empty(&self) -> bool {
        self.g2.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::F16;
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::Rng;
    use cumf_rng::SeedableRng;

    fn random_vec(rng: &mut ChaCha8Rng, k: usize) -> Vec<f32> {
        (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn dot_matches_scalar() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for k in [1usize, 3, 4, 7, 16, 31, 32, 33, 64, 128] {
            let p = random_vec(&mut rng, k);
            let q = random_vec(&mut rng, k);
            let a = dot(&p[..], &q[..]);
            let b = dot_scalar(&p[..], &q[..]);
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "k={k}: {a} vs {b}");
        }
    }

    #[test]
    fn update_reduces_error_on_repeat() {
        // Repeated updates on the same sample drive the error to ~0.
        let mut p = [0.1f32; 8];
        let mut q = [0.1f32; 8];
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let err = sgd_update(&mut p[..], &mut q[..], 2.0, 0.1, 0.0).abs();
            assert!(err <= last + 1e-4, "error must not grow: {err} > {last}");
            last = err;
        }
        assert!(last < 1e-3, "final error {last}");
    }

    #[test]
    fn unrolled_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for k in [4usize, 16, 32, 64] {
            let p0 = random_vec(&mut rng, k);
            let q0 = random_vec(&mut rng, k);
            let (mut p1, mut q1) = (p0.clone(), q0.clone());
            let (mut p2, mut q2) = (p0, q0);
            let e1 = sgd_update(&mut p1[..], &mut q1[..], 1.5, 0.05, 0.02);
            let e2 = sgd_update_reference(&mut p2[..], &mut q2[..], 1.5, 0.05, 0.02);
            assert!((e1 - e2).abs() < 1e-5);
            for i in 0..k {
                assert!((p1[i] - p2[i]).abs() < 1e-6);
                assert!((q1[i] - q2[i]).abs() < 1e-6);
            }
        }
    }

    /// FNV-1a over the errors a seeded chain of 32 updates on one `k`-long
    /// row pair returns, then the final P and Q bits.
    fn update_chain_digest<E: Element>(k: usize) -> u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed + k as u64);
        let row = |rng: &mut ChaCha8Rng| -> Vec<E> {
            (0..k)
                .map(|_| E::from_f32(rng.gen_range(-0.5..0.5)))
                .collect()
        };
        let (mut p, mut q) = (row(&mut rng), row(&mut rng));
        let mut h = Fnv1a::new();
        for _ in 0..32 {
            let r = rng.gen_range(1.0..5.0);
            let err = sgd_update(&mut p[..], &mut q[..], r, 0.02, 0.05);
            assert!(err.is_finite(), "k={k}: the chain diverged");
            h = h.u64(u64::from(err.to_bits()));
        }
        for x in p.iter().chain(&q) {
            h = h.u64(u64::from(x.to_f32().to_bits()));
        }
        h.finish()
    }

    #[test]
    fn sgd_update_bits_are_pinned() {
        // `(k, f32 digest, f16 digest)`: lane-count remainders 0–3, both
        // sides of one 4-lane chunk, and the dimensions the solvers run.
        const PINS: [(usize, u64, u64); 14] = [
            (1, 0xf08cc21128f028c5, 0x394d369396f55e9b),
            (2, 0xd663dc8d12d58637, 0xf1f0f769b5bf8c30),
            (3, 0xbff899286d2dc88e, 0x93094142eb272b1a),
            (4, 0x1e964fb0345714a5, 0xfb843eeaeb8b538e),
            (5, 0x544c80a5938ce139, 0xc38a4db81000578a),
            (6, 0x1a8b37bf76080033, 0xa50c4402efd4024e),
            (7, 0x48090826c49186c1, 0xb79ff4a79f6eb606),
            (8, 0x8275942e939ccdf3, 0x6397674d2d9a47dd),
            (9, 0xfbd9ea85c844d3b1, 0x67413cd760e3f19d),
            (16, 0x7f286466a15590d2, 0x4a307feb193d4fe5),
            (17, 0xb4c7d80822ecf188, 0xc5d393be363e7779),
            (33, 0x2805e86f42965d12, 0xd963d22b1e82c457),
            (64, 0xbe52d92160b34062, 0x995e8233c256ceb5),
            (128, 0x5b684f77f8518d96, 0xd2c9a57ab67c463a),
        ];
        let got = PINS.map(|(k, _, _)| {
            (
                k,
                update_chain_digest::<f32>(k),
                update_chain_digest::<F16>(k),
            )
        });
        assert_eq!(got, PINS);
    }

    /// FNV-1a over the errors and `dp`/`dq` bits of a seeded chain of 32
    /// [`sgd_delta`] calls on one `k`-long f32 row pair, each delta added
    /// back onto the rows, then the final P and Q bits.
    fn delta_chain_digest(k: usize) -> u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xde17a + k as u64);
        let (mut p, mut q) = (random_vec(&mut rng, k), random_vec(&mut rng, k));
        let (mut dp, mut dq) = (vec![0.0f32; k], vec![0.0f32; k]);
        let mut h = Fnv1a::new();
        for _ in 0..32 {
            let r = rng.gen_range(1.0..5.0);
            let err = sgd_delta(&p, &q, r, 0.02, 0.05, &mut dp, &mut dq);
            assert!(err.is_finite(), "k={k}: the chain diverged");
            h = h.u64(u64::from(err.to_bits()));
            for x in dp.iter().chain(&dq) {
                h = h.u64(u64::from(x.to_bits()));
            }
            for (a, d) in p.iter_mut().zip(&dp).chain(q.iter_mut().zip(&dq)) {
                *a += d;
            }
        }
        for x in p.iter().chain(&q) {
            h = h.u64(u64::from(x.to_bits()));
        }
        h.finish()
    }

    #[test]
    fn sgd_delta_bits_are_pinned() {
        // `(k, digest)`: lane-count remainders 0–3, both sides of one
        // 4-lane chunk, and the dimensions the solvers run.
        const PINS: [(usize, u64); 14] = [
            (1, 0x50641338e32277c9),
            (2, 0x8be674027d62eb3b),
            (3, 0xff7e9475740fbece),
            (4, 0xe153caf0ea5fd445),
            (5, 0x782cbb061022f03b),
            (6, 0x5371f9f581886e22),
            (7, 0x601ba28a6595d845),
            (8, 0x700d51ec746ecae8),
            (9, 0x0df276801f6b1bd9),
            (16, 0xacbfaf5bb9ec5587),
            (17, 0x6c758b4fbdaf30f3),
            (33, 0xee41156a45c34cb5),
            (64, 0x19a0b9c04e1ac3d1),
            (128, 0xb340c8e5806bc7fa),
        ];
        let got = PINS.map(|(k, _)| (k, delta_chain_digest(k)));
        assert_eq!(got, PINS);
    }

    #[test]
    fn q_update_uses_old_p() {
        // Hand-computed 1-d case: p=2, q=3, r=10, gamma=0.1, lambda=0.
        // err = 10 - 6 = 4; p' = 2 + .1*4*3 = 3.2; q' = 3 + .1*4*2 = 3.8
        // (q' must use old p=2, not p'=3.2).
        let mut p = [2.0f32];
        let mut q = [3.0f32];
        let err = sgd_update(&mut p[..], &mut q[..], 10.0, 0.1, 0.0);
        assert_eq!(err, 4.0);
        assert!((p[0] - 3.2).abs() < 1e-6);
        assert!((q[0] - 3.8).abs() < 1e-6);
    }

    #[test]
    fn regularisation_shrinks_weights() {
        let mut p = [1.0f32];
        let mut q = [1.0f32];
        // r = p*q so err = 0; only the λ term acts.
        sgd_update(&mut p[..], &mut q[..], 1.0, 0.1, 0.5);
        assert!((p[0] - 0.95).abs() < 1e-6);
        assert!((q[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn delta_matches_update() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let k = 16;
        let p0 = random_vec(&mut rng, k);
        let q0 = random_vec(&mut rng, k);
        let mut dp = vec![0.0; k];
        let mut dq = vec![0.0; k];
        let e_delta = sgd_delta(&p0, &q0, 0.7, 0.05, 0.01, &mut dp, &mut dq);
        let (mut p1, mut q1) = (p0.clone(), q0.clone());
        let e_upd = sgd_update_reference(&mut p1[..], &mut q1[..], 0.7, 0.05, 0.01);
        assert!((e_delta - e_upd).abs() < 1e-6);
        for i in 0..k {
            assert!((p0[i] + dp[i] - p1[i]).abs() < 1e-6);
            assert!((q0[i] + dq[i] - q1[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn f16_update_tracks_f32_update() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let k = 32;
        let vals_p = random_vec(&mut rng, k);
        let vals_q = random_vec(&mut rng, k);
        let mut p32 = vals_p.clone();
        let mut q32 = vals_q.clone();
        let mut p16: Vec<F16> = vals_p.iter().map(|&x| F16::from_f32(x)).collect();
        let mut q16: Vec<F16> = vals_q.iter().map(|&x| F16::from_f32(x)).collect();
        for step in 0..50 {
            let r = 1.0 + 0.5 * (step as f32 * 0.3).sin();
            sgd_update(&mut p32[..], &mut q32[..], r, 0.05, 0.01);
            sgd_update(&mut p16[..], &mut q16[..], r, 0.05, 0.01);
        }
        for i in 0..k {
            let diff = (p32[i] - p16[i].to_f32()).abs();
            assert!(diff < 0.02, "lane {i}: f32 {} vs f16 {}", p32[i], p16[i]);
        }
    }

    /// An f32 stand-in whose conversions count themselves, so the
    /// [`KernelTraffic`] contract is *measured* against the real kernel
    /// rather than asserted.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct CountingElem(f32);

    thread_local! {
        static ELEM_LOADS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        static ELEM_STORES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    impl Element for CountingElem {
        const BYTES: usize = 4;
        const NAME: &'static str = "counting-f32";
        fn from_f32(x: f32) -> Self {
            ELEM_STORES.with(|c| c.set(c.get() + 1));
            CountingElem(x)
        }
        fn to_f32(self) -> f32 {
            ELEM_LOADS.with(|c| c.set(c.get() + 1));
            self.0
        }
    }

    #[test]
    fn instrumented_element_counts_match_contract() {
        for k in [1usize, 4, 16, 31, 64, 128] {
            let mut p: Vec<CountingElem> = (0..k).map(|i| CountingElem(0.01 * i as f32)).collect();
            let mut q: Vec<CountingElem> = (0..k).map(|i| CountingElem(0.02 * i as f32)).collect();
            ELEM_LOADS.with(|c| c.set(0));
            ELEM_STORES.with(|c| c.set(0));
            sgd_update(&mut p[..], &mut q[..], 1.0, 0.05, 0.01);
            let loads = ELEM_LOADS.with(|c| c.get());
            let stores = ELEM_STORES.with(|c| c.get());
            let contract = KernelTraffic::of_update_kernel::<CountingElem>(k as u32);
            assert_eq!(loads, contract.element_loads, "k={k} loads");
            assert_eq!(stores, contract.element_stores, "k={k} stores");
            // Register staging halves the loads that reach DRAM.
            assert_eq!(contract.dram_element_loads * 2, contract.element_loads);
        }
    }

    #[test]
    fn cost_cert_agrees_with_eq5_for_both_precisions() {
        use cumf_gpu_sim::RatingAccess;
        for k in [8u32, 16, 31, 64, 128] {
            let c32 = CostCert::certify::<f32>(k, RatingAccess::Streamed, None);
            let c16 = CostCert::certify::<F16>(k, RatingAccess::Streamed, None);
            assert!(c32.is_certified(), "{c32}");
            assert!(c16.is_certified(), "{c16}");
            assert_eq!(c32.bytes_per_update, 12 + 16 * k as u64);
            assert_eq!(c16.bytes_per_update, 12 + 8 * k as u64);
            assert_eq!(c32.flops_per_update, c16.flops_per_update);
            assert_ne!(c32.digest, c16.digest);
        }
        // Random-line rating fetches are certified under the same pattern.
        let rl = CostCert::certify::<f32>(16, RatingAccess::RandomLine { line_bytes: 128 }, None);
        assert!(rl.is_certified(), "{rl}");
        assert_eq!(rl.bytes_per_update, 128 + 16 * 16);
    }

    #[test]
    fn time_model_drift_is_reported() {
        use cumf_gpu_sim::RatingAccess;
        let matched = SgdUpdateCost::cpu_f32(16);
        let cert = CostCert::certify::<f32>(16, RatingAccess::Streamed, Some(&matched));
        assert_eq!(cert.time_model_drift, Some(0));
        // A k=128 time model on a k=16 run is a silent mispricing today;
        // the certificate surfaces it as a concrete byte delta.
        let mismatched = SgdUpdateCost::cpu_f32(128);
        let cert = CostCert::certify::<f32>(16, RatingAccess::Streamed, Some(&mismatched));
        assert_eq!(
            cert.time_model_drift,
            Some((12 + 16 * 128) - (12 + 16 * 16))
        );
        assert!(format!("{cert}").contains("time-model drift"));
    }

    #[test]
    fn adagrad_steps_shrink() {
        let mut ada = AdaGrad::new(4, 0.1);
        assert_eq!(ada.len(), 4);
        assert!(!ada.is_empty());
        let s1 = ada.step(0, 1.0);
        let s2 = ada.step(0, 1.0);
        let s3 = ada.step(0, 1.0);
        assert!(s1 > s2 && s2 > s3, "{s1} {s2} {s3}");
        // Untouched coordinate has full accumulated freshness.
        let other = ada.step(1, 1.0);
        assert!((other - s1).abs() < 1e-9);
    }
}
