//! Top-N dot-product scoring: the item-interleaved shard scan the
//! service runs, the naive reference scan, a cache-blocked scan, and the
//! popularity-prior fallback.
//!
//! The service scores over `InterleavedShard`s: each Q shard stored
//! `[ceil(len/LANES)][k][LANES]`, so factor `d` of `LANES` consecutive
//! items sits contiguously and one lane group keeps `LANES` independent
//! add chains in flight, which the compiler vectorizes. It is *exact*:
//! per item the k-loop still runs in the identical order as the naive
//! scan, so every f32 partial sum is bit-identical (this matters for the
//! odd-k FP16 path, where the widen-to-f32 accumulation order is the
//! whole numeric contract). Selection uses a total order (score
//! descending, item id ascending on ties, NaN last), so every scan
//! returns identical lists, not merely equivalent ones.

use cumf_core::{Element, FactorMatrix};

/// One scored item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Item id.
    pub item: u32,
    /// Predicted score (f32 dot product of the factor rows).
    pub score: f32,
}

/// Total order for selection: higher score first, lower item id on
/// ties (and NaN scores sort last, so a poisoned row cannot win).
fn beats(a: &Scored, b: &Scored) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or_else(|| a.score.is_nan().cmp(&b.score.is_nan()))
        .then(a.item.cmp(&b.item))
}

/// A bounded top-N accumulator: keeps the best `n` offers seen so far
/// under the scorer's total order (score descending, item ascending,
/// NaN last).
#[derive(Debug, Clone)]
pub struct TopAcc {
    n: usize,
    best: Vec<Scored>,
}

impl TopAcc {
    /// An empty accumulator holding at most `n` items.
    pub fn new(n: usize) -> Self {
        TopAcc {
            n,
            best: Vec::with_capacity(n + 1),
        }
    }

    /// Offers one scored item.
    pub fn offer(&mut self, item: u32, score: f32) {
        if self.n == 0 {
            return;
        }
        let s = Scored { item, score };
        if self.best.len() == self.n {
            // Full: reject anything that does not beat the current worst.
            if beats(self.best.last().unwrap(), &s) != std::cmp::Ordering::Greater {
                return;
            }
            self.best.pop();
        }
        let at = self
            .best
            .partition_point(|b| beats(b, &s) != std::cmp::Ordering::Greater);
        self.best.insert(at, s);
    }

    /// The worst kept score once the accumulator is full: an offer
    /// scoring strictly below it cannot enter. `None` while not full.
    pub(crate) fn floor(&self) -> Option<f32> {
        if self.best.len() < self.n {
            return None;
        }
        self.best.last().map(|s| s.score)
    }

    /// The accumulated items, best first.
    pub fn into_sorted(self) -> Vec<Scored> {
        self.best
    }
}

/// f32 dot product of two factor rows, accumulated in k-order (each
/// element widened via [`Element::to_f32`] before the multiply-add).
pub fn dot<E: Element>(a: &[E], b: &[E]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x.to_f32() * y.to_f32();
    }
    acc
}

/// Naive reference scan: scores every item of `items` against `user`
/// and returns the top `n`.
pub fn top_n_naive<E: Element>(
    user: &[E],
    q: &FactorMatrix<E>,
    items: std::ops::Range<u32>,
    n: usize,
) -> Vec<Scored> {
    let mut acc = TopAcc::new(n);
    for v in items {
        acc.offer(v, dot(user, q.row(v)));
    }
    acc.into_sorted()
}

/// Items per lane group of `InterleavedShard`: one group is `LANES`
/// independent k-order add chains. On baseline x86-64 (SSE2) at k = 32,
/// 16 and 32 lanes scanned equally fast and 8 about 3% slower; 16 pads
/// the tail group less than 32.
pub(crate) const LANES: usize = 16;

/// One Q shard stored item-interleaved, `[ceil(len/LANES)][k][LANES]`,
/// built once at model load. The tail group is zero-padded; its padded
/// lanes are never offered.
#[derive(Debug, Clone)]
pub(crate) struct InterleavedShard<E: Element> {
    items: std::ops::Range<u32>,
    k: usize,
    lanes: Vec<E>,
}

impl<E: Element> InterleavedShard<E> {
    /// Interleaves the rows `items` of `q`.
    pub(crate) fn new(q: &FactorMatrix<E>, items: std::ops::Range<u32>) -> Self {
        let k = q.k() as usize;
        let mut lanes = vec![E::default(); items.len().div_ceil(LANES) * k * LANES];
        for (i, v) in items.clone().enumerate() {
            let group = &mut lanes[(i / LANES) * k * LANES..][..k * LANES];
            for (d, &x) in q.row(v).iter().enumerate() {
                group[d * LANES + i % LANES] = x;
            }
        }
        InterleavedShard { items, k, lanes }
    }

    /// Offers every item of the shard, scored against the widened user
    /// row `user`, to `acc`. A lane group whose scores all fall strictly
    /// below `acc`'s floor is skipped whole: none of them could enter,
    /// and a NaN (on either side) compares false, so it takes the exact
    /// per-item path.
    pub(crate) fn scan(&self, user: &[f32], acc: &mut TopAcc) {
        assert_eq!(user.len(), self.k, "user row length != k");
        let len = self.items.len();
        for g in 0..len.div_ceil(LANES) {
            let group = &self.lanes[g * self.k * LANES..][..self.k * LANES];
            let mut score = [0.0f32; LANES];
            for (row, &u) in group.chunks_exact(LANES).zip(user) {
                for (s, &x) in score.iter_mut().zip(row) {
                    *s += u * x.to_f32();
                }
            }
            let live = &score[..(len - g * LANES).min(LANES)];
            if let Some(floor) = acc.floor() {
                if live.iter().all(|&s| s < floor) {
                    continue;
                }
            }
            let first = self.items.start + (g * LANES) as u32;
            for (l, &s) in live.iter().enumerate() {
                acc.offer(first + l as u32, s);
            }
        }
    }
}

/// Item ids per block of the blocked scan: sized so a block of k≤128
/// f32 rows fits comfortably in L1 alongside the user row.
pub const SCAN_BLOCK: usize = 64;

/// Exact cache-blocked scan: identical scores and identical selection
/// as [`top_n_naive`], visiting items block by block. The service scans
/// `InterleavedShard`s instead; this scan is kept for callers that
/// hold only a [`FactorMatrix`].
pub fn top_n_blocked<E: Element>(
    user: &[E],
    q: &FactorMatrix<E>,
    items: std::ops::Range<u32>,
    n: usize,
    block: usize,
) -> Vec<Scored> {
    assert!(block > 0, "block size must be positive");
    let mut acc = TopAcc::new(n);
    let mut lo = items.start;
    while lo < items.end {
        let hi = (lo + block as u32).min(items.end);
        for v in lo..hi {
            acc.offer(v, dot(user, q.row(v)));
        }
        lo = hi;
    }
    acc.into_sorted()
}

/// Popularity-prior fallback: top `n` of `items` by the prior weight
/// alone (the answer of last resort when no factor shard is readable).
pub fn top_n_popular(popularity: &[f32], items: std::ops::Range<u32>, n: usize) -> Vec<Scored> {
    let mut acc = TopAcc::new(n);
    for v in items {
        acc.offer(v, popularity[v as usize]);
    }
    acc.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_core::F16;
    use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

    fn matrices<E: Element>(n: u32, k: u32, seed: u64) -> (Vec<E>, FactorMatrix<E>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let user: Vec<E> = (0..k)
            .map(|_| E::from_f32(rng.gen::<f32>() - 0.5))
            .collect();
        let q = FactorMatrix::<E>::random_init(n, k, &mut rng);
        (user, q)
    }

    #[test]
    fn blocked_equals_naive_bitwise_f32() {
        for k in [8u32, 31, 64, 128] {
            let (user, q) = matrices::<f32>(501, k, k as u64);
            let a = top_n_naive(&user, &q, 0..501, 10);
            let b = top_n_blocked(&user, &q, 0..501, 10, SCAN_BLOCK);
            assert_eq!(a, b, "k={k}");
            assert!(a[0].score.to_bits() == b[0].score.to_bits());
        }
    }

    #[test]
    fn blocked_equals_naive_bitwise_f16() {
        for k in [8u32, 31, 64, 128] {
            let (user, q) = matrices::<F16>(333, k, 1000 + k as u64);
            let a = top_n_naive(&user, &q, 0..333, 7);
            let b = top_n_blocked(&user, &q, 0..333, 7, 17);
            assert_eq!(a, b, "k={k}");
        }
    }

    /// Scans `items` of `q` through an [`InterleavedShard`], as the
    /// service does.
    fn interleaved<E: Element>(
        user: &[E],
        q: &FactorMatrix<E>,
        items: std::ops::Range<u32>,
        n: usize,
    ) -> Vec<Scored> {
        let row: Vec<f32> = user.iter().map(|x| x.to_f32()).collect();
        let mut acc = TopAcc::new(n);
        InterleavedShard::new(q, items).scan(&row, &mut acc);
        acc.into_sorted()
    }

    /// Item ids and score bits, in order: `-0.0 == 0.0` and NaN != NaN
    /// would both hide a difference from `f32` `==`.
    fn bits(list: &[Scored]) -> Vec<(u32, u32)> {
        list.iter().map(|s| (s.item, s.score.to_bits())).collect()
    }

    fn interleaved_equals_naive_bitwise<E: Element>(seed: u64) {
        let l = LANES as u32;
        for k in [1u32, 7, 16, 31, 32, 33] {
            let (user, q) = matrices::<E>(400, k, seed + k as u64);
            for len in [1, l - 1, l, l + 1, 333] {
                for start in [0u32, 5, 17] {
                    let items = start..start + len;
                    for n in [0, 1, 10, len as usize + 5] {
                        assert_eq!(
                            bits(&interleaved(&user, &q, items.clone(), n)),
                            bits(&top_n_naive(&user, &q, items.clone(), n)),
                            "k={k} items={items:?} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_equals_naive_bitwise_f32() {
        interleaved_equals_naive_bitwise::<f32>(11);
    }

    #[test]
    fn interleaved_equals_naive_bitwise_f16() {
        interleaved_equals_naive_bitwise::<F16>(2011);
    }

    /// A NaN item row and exact ties, inside lane groups and across
    /// them, at the floor and above it.
    fn interleaved_handles_nan_and_ties<E: Element>() {
        let (items, k) = (70u32, 3u32);
        let mut vals: Vec<f32> = (0..items * k).map(|i| ((i / k) % 4) as f32).collect();
        vals[(9 * k) as usize] = f32::NAN;
        let q = FactorMatrix::<E>::from_f32_slice(items, k, &vals);
        let user: Vec<E> = [1.0, 0.5, -0.25].iter().map(|&x| E::from_f32(x)).collect();
        // At n = 16 over 9..41 the first lane group fills the
        // accumulator with the NaN as its floor.
        for n in [1, 3, 16, 17, 18, 40, 69, 70, 75] {
            for range in [0..items, 9..10, 9..41, 3..41] {
                assert_eq!(
                    bits(&interleaved(&user, &q, range.clone(), n)),
                    bits(&top_n_naive(&user, &q, range.clone(), n)),
                    "n={n} items={range:?}"
                );
            }
        }
        let all = interleaved(&user, &q, 0..items, 75);
        assert_eq!(all.len(), 70, "padded tail lanes are never offered");
        assert_eq!(all.last().unwrap().item, 9, "the NaN row sorts last");
        // Shards scanned high ids first: a lane group tying the floor
        // holds lower ids than the kept items, so it must not be skipped.
        let row: Vec<f32> = user.iter().map(|x| x.to_f32()).collect();
        for n in [1, 3, 10, 40] {
            let mut acc = TopAcc::new(n);
            for range in [35..items, 0..35] {
                InterleavedShard::new(&q, range).scan(&row, &mut acc);
            }
            assert_eq!(
                bits(&acc.into_sorted()),
                bits(&top_n_naive(&user, &q, 0..items, n)),
                "n={n}, shards in reverse"
            );
        }
    }

    #[test]
    fn interleaved_handles_nan_and_ties_f32() {
        interleaved_handles_nan_and_ties::<f32>();
    }

    #[test]
    fn interleaved_handles_nan_and_ties_f16() {
        interleaved_handles_nan_and_ties::<F16>();
    }

    #[test]
    fn selection_is_ordered_and_tie_broken_by_item() {
        let q = FactorMatrix::<f32>::from_f32_slice(4, 1, &[1.0, 2.0, 2.0, 0.5]);
        let user = [1.0f32];
        let top = top_n_naive(&user, &q, 0..4, 3);
        assert_eq!(
            top.iter().map(|s| s.item).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn partial_ranges_score_only_their_shard() {
        let (user, q) = matrices::<f32>(100, 16, 5);
        let top = top_n_blocked(&user, &q, 40..60, 5, 8);
        assert!(top.iter().all(|s| (40..60).contains(&s.item)));
        assert_eq!(top.len(), 5);
    }

    #[test]
    fn popularity_prior_ranks_by_weight() {
        let pop = vec![0.1, 5.0, 3.0, 5.0];
        let top = top_n_popular(&pop, 0..4, 2);
        assert_eq!(
            top.iter().map(|s| s.item).collect::<Vec<_>>(),
            vec![1, 3],
            "equal weights tie-break by item id"
        );
    }

    #[test]
    fn top_zero_is_empty_and_n_larger_than_range_is_all() {
        let (user, q) = matrices::<f32>(5, 4, 9);
        assert!(top_n_naive(&user, &q, 0..5, 0).is_empty());
        assert_eq!(top_n_naive(&user, &q, 0..5, 10).len(), 5);
    }
}
