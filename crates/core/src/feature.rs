//! Feature (factor) matrices `P` (m×k) and `Q` (n×k).
//!
//! Row-major storage so one SGD update touches two contiguous k-element
//! rows — the access the CUDA kernel coalesces across its 32 threads (§4).
//! Storage is generic over the element type: `f32`, or [`F16`] for the
//! paper's half-precision mode.

use cumf_rng::Rng;

use crate::digest::Fnv1a;
use crate::half::F16;

/// A storage element of a factor matrix: converts to/from f32 compute form.
pub trait Element: Copy + Send + Sync + Default + 'static {
    /// Bytes per stored element (2 for f16, 4 for f32) — what the
    /// bandwidth model charges.
    const BYTES: usize;
    /// Human-readable name for reports.
    const NAME: &'static str;
    /// Narrowing store.
    fn from_f32(x: f32) -> Self;
    /// Widening load.
    fn to_f32(self) -> f32;
}

impl Element for f32 {
    const BYTES: usize = 4;
    const NAME: &'static str = "f32";
    #[inline(always)]
    fn from_f32(x: f32) -> Self {
        x
    }
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }
}

impl Element for F16 {
    const BYTES: usize = 2;
    const NAME: &'static str = "f16";
    #[inline(always)]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
    }
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self.to_f32()
    }
}

/// A dense rows×k factor matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorMatrix<E: Element> {
    rows: u32,
    k: u32,
    data: Vec<E>,
}

impl<E: Element> FactorMatrix<E> {
    /// Creates a zero-initialised matrix.
    pub fn zeros(rows: u32, k: u32) -> Self {
        assert!(k > 0, "feature dimension must be positive");
        FactorMatrix {
            rows,
            k,
            data: vec![E::default(); rows as usize * k as usize],
        }
    }

    /// Algorithm 1, line 3: initialise entries `U(0, sqrt(1/k))`.
    ///
    /// The positive uniform init biases early predictions towards positive
    /// ratings, matching LIBMF/cuMF initialisation.
    pub fn random_init<R: Rng>(rows: u32, k: u32, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, k);
        let scale = (1.0 / k as f32).sqrt();
        for e in &mut m.data {
            *e = E::from_f32(rng.gen_range(0.0..scale));
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Feature dimension k.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: u32) -> &[E] {
        let k = self.k as usize;
        let base = r as usize * k;
        &self.data[base..base + k]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: u32) -> &mut [E] {
        let k = self.k as usize;
        let base = r as usize * k;
        &mut self.data[base..base + k]
    }

    /// Loads row `r` widened to f32 into `out` (length k).
    #[inline]
    pub fn load_row(&self, r: u32, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.k as usize);
        for (o, e) in out.iter_mut().zip(self.row(r)) {
            *o = e.to_f32();
        }
    }

    /// Stores `vals` (length k) narrowed into row `r`.
    #[inline]
    pub fn store_row(&mut self, r: u32, vals: &[f32]) {
        debug_assert_eq!(vals.len(), self.k as usize);
        for (e, &v) in self.row_mut(r).iter_mut().zip(vals) {
            *e = E::from_f32(v);
        }
    }

    /// Raw element slice (row-major).
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Raw mutable element slice (row-major).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Total storage bytes — what a staging transfer of this matrix costs.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * E::BYTES
    }

    /// Builds a matrix from an f32 slice (narrowing into E).
    pub fn from_f32_slice(rows: u32, k: u32, vals: &[f32]) -> Self {
        assert_eq!(vals.len(), rows as usize * k as usize, "shape mismatch");
        FactorMatrix {
            rows,
            k,
            data: vals.iter().map(|&v| E::from_f32(v)).collect(),
        }
    }

    /// Number of non-finite (NaN/Inf) entries in the matrix. Zero on a
    /// healthy model; the fault-injection supervisor's post-epoch scan
    /// treats any positive count as a gradient storm to roll back.
    pub fn non_finite_count(&self) -> usize {
        self.data.iter().filter(|e| !e.to_f32().is_finite()).count()
    }

    /// FNV-1a digest over the element bit patterns, row-major. This is the
    /// hand-off checksum of the fault layer: a P/Q segment is digested
    /// before a (simulated) transfer and verified after, so corruption on
    /// the link is detected rather than silently trained on.
    pub fn digest(&self) -> u64 {
        self.data
            .iter()
            .fold(Fnv1a::new(), |h, e| {
                h.bytes(&e.to_f32().to_bits().to_le_bytes())
            })
            .finish()
    }

    /// Copies rows `range` out as a new matrix (a P/Q *segment* for the
    /// multi-GPU partitioning of §6.1).
    pub fn segment(&self, range: std::ops::Range<u32>) -> FactorMatrix<E> {
        let k = self.k as usize;
        let lo = range.start as usize * k;
        let hi = range.end as usize * k;
        FactorMatrix {
            rows: range.end - range.start,
            k: self.k,
            data: self.data[lo..hi].to_vec(),
        }
    }

    /// Writes a segment back at row offset `at` (the D2H merge of §6.1).
    pub fn write_segment(&mut self, at: u32, seg: &FactorMatrix<E>) {
        assert_eq!(seg.k, self.k, "k mismatch");
        assert!(at + seg.rows <= self.rows, "segment out of range");
        let k = self.k as usize;
        let lo = at as usize * k;
        self.data[lo..lo + seg.data.len()].copy_from_slice(&seg.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::SeedableRng;

    #[test]
    fn zeros_shape() {
        let m: FactorMatrix<f32> = FactorMatrix::zeros(5, 3);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.k(), 3);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.storage_bytes(), 60);
    }

    #[test]
    fn random_init_respects_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(100, 16, &mut rng);
        let scale = (1.0f32 / 16.0).sqrt();
        for &x in m.as_slice() {
            assert!((0.0..scale).contains(&x), "{x} outside [0, {scale})");
        }
        // Mean should approach scale/2.
        let mean: f32 = m.as_slice().iter().sum::<f32>() / 1600.0;
        assert!((mean - scale / 2.0).abs() < 0.01);
    }

    #[test]
    fn row_round_trip() {
        let mut m: FactorMatrix<f32> = FactorMatrix::zeros(4, 3);
        m.store_row(2, &[1.0, 2.0, 3.0]);
        let mut out = [0.0f32; 3];
        m.load_row(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn f16_storage_quantises() {
        let mut m: FactorMatrix<F16> = FactorMatrix::zeros(2, 2);
        m.store_row(0, &[0.3333333, 1.0]);
        let mut out = [0.0f32; 2];
        m.load_row(0, &mut out);
        assert!((out[0] - 0.3333333).abs() < 3e-4); // quantised
        assert_eq!(out[1], 1.0); // exact
        assert_eq!(m.storage_bytes(), 8); // half the f32 bytes
        assert_eq!(F16::NAME, "f16");
    }

    #[test]
    fn segments_round_trip() {
        let vals: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let m: FactorMatrix<f32> = FactorMatrix::from_f32_slice(4, 3, &vals);
        let seg = m.segment(1..3);
        assert_eq!(seg.rows(), 2);
        assert_eq!(seg.row(0), &[3.0, 4.0, 5.0]);
        let mut m2: FactorMatrix<f32> = FactorMatrix::zeros(4, 3);
        m2.write_segment(1, &seg);
        assert_eq!(m2.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m2.row(2), &[6.0, 7.0, 8.0]);
        assert_eq!(m2.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "segment out of range")]
    fn write_segment_bounds_checked() {
        let seg: FactorMatrix<f32> = FactorMatrix::zeros(3, 2);
        let mut m: FactorMatrix<f32> = FactorMatrix::zeros(4, 2);
        m.write_segment(2, &seg);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_slice_checks_shape() {
        let _: FactorMatrix<f32> = FactorMatrix::from_f32_slice(2, 2, &[0.0; 5]);
    }
}
