//! Sharded factor storage mirroring the training partition grid.
//!
//! A trained model (`P: m×k`, `Q: n×k`) is split exactly as
//! `cumf_core::sched::BlockGrid` splits the rating matrix: `i` P-shards
//! over contiguous user ranges and `j` Q-shards over contiguous item
//! ranges (the boundary rule is shared via
//! [`cumf_core::partition::segment_range`], so shard `Q2` of the server
//! holds precisely the rows block column 2 trained). A request for user
//! `u` reads one P-shard (the one owning `u`) and *all* `j` Q-shards —
//! top-N needs the full item space — which makes the failure domains
//! obvious: losing a Q-shard costs item coverage, losing a P-shard
//! costs the user embedding itself.

use cumf_core::partition::{segment_of, segment_range};
use cumf_core::{Element, FactorMatrix};

use crate::topn::{InterleavedShard, Scored, TopAcc};

/// Opaque shard identifier: `0..p_shards` are P-shards (user factors),
/// `p_shards..p_shards + q_shards` are Q-shards (item factors).
pub type ShardId = usize;

/// A trained model laid out in partition-grid shards, with the item
/// popularity prior used for degraded answers and a version counter for
/// cache invalidation.
#[derive(Debug, Clone)]
pub struct ShardedModel<E: Element> {
    p: FactorMatrix<E>,
    q: FactorMatrix<E>,
    /// Q again, one item-interleaved copy per Q-shard (what scoring reads).
    q_lanes: Vec<InterleavedShard<E>>,
    p_shards: u32,
    q_shards: u32,
    version: u64,
    popularity: Vec<f32>,
}

impl<E: Element> ShardedModel<E> {
    /// Shards `p`/`q` into an `p_shards × q_shards` grid layout.
    ///
    /// `popularity` is the per-item prior used for degraded responses
    /// (typically training-set item degrees); `None` falls back to a
    /// uniform prior. Panics when [`check_grid`] rejects the grid or the
    /// prior length disagrees with the item count.
    pub fn new(
        p: FactorMatrix<E>,
        q: FactorMatrix<E>,
        p_shards: u32,
        q_shards: u32,
        popularity: Option<Vec<f32>>,
    ) -> Self {
        if let Err(e) = check_grid(p_shards, q_shards, p.rows(), q.rows()) {
            panic!("{e}");
        }
        assert_eq!(p.k(), q.k(), "P and Q must share k");
        let popularity = match popularity {
            Some(pop) => {
                assert_eq!(pop.len(), q.rows() as usize, "prior length != item count");
                pop
            }
            None => vec![1.0; q.rows() as usize],
        };
        let q_lanes = (0..q_shards)
            .map(|bj| InterleavedShard::new(&q, segment_range(q.rows(), q_shards, bj)))
            .collect();
        ShardedModel {
            p,
            q,
            q_lanes,
            p_shards,
            q_shards,
            version: 1,
            popularity,
        }
    }

    /// Number of users (rows of P).
    pub fn users(&self) -> u32 {
        self.p.rows()
    }

    /// Number of items (rows of Q).
    pub fn items(&self) -> u32 {
        self.q.rows()
    }

    /// Factor rank.
    pub fn k(&self) -> u32 {
        self.p.k()
    }

    /// Number of P-shards (grid rows).
    pub fn p_shards(&self) -> u32 {
        self.p_shards
    }

    /// Number of Q-shards (grid columns).
    pub fn q_shards(&self) -> u32 {
        self.q_shards
    }

    /// Total shard count (`p_shards + q_shards`).
    pub fn shard_count(&self) -> usize {
        (self.p_shards + self.q_shards) as usize
    }

    /// The P-shard owning `user` (same assignment rule as the grid).
    pub fn p_shard_of(&self, user: u32) -> ShardId {
        segment_of(self.p.rows(), self.p_shards, user) as ShardId
    }

    /// The shard id of Q-shard `bj` (`0..q_shards`).
    pub fn q_shard_id(&self, bj: u32) -> ShardId {
        (self.p_shards + bj) as ShardId
    }

    /// True when `shard` is a Q-shard.
    pub fn is_q_shard(&self, shard: ShardId) -> bool {
        shard >= self.p_shards as usize && shard < self.shard_count()
    }

    /// Item range held by Q-shard `bj` (`0..q_shards`).
    pub fn item_range(&self, bj: u32) -> std::ops::Range<u32> {
        segment_range(self.q.rows(), self.q_shards, bj)
    }

    /// User range held by P-shard `bi` (`0..p_shards`).
    pub fn user_range(&self, bi: u32) -> std::ops::Range<u32> {
        segment_range(self.p.rows(), self.p_shards, bi)
    }

    /// Human-readable shard name (`P0`, `Q2`, ...).
    pub fn shard_name(&self, shard: ShardId) -> String {
        if shard < self.p_shards as usize {
            format!("P{shard}")
        } else {
            format!("Q{}", shard - self.p_shards as usize)
        }
    }

    /// The user's factor row.
    pub fn user_row(&self, user: u32) -> &[E] {
        self.p.row(user)
    }

    /// Exact top-`n` items for `user` over the Q-shards `shards`
    /// (indices `0..q_shards()`, in any order): the same list, bit for
    /// bit, as [`crate::top_n_naive`] over those shards' item ranges
    /// merged.
    pub fn top_n(&self, user: u32, shards: &[u32], n: usize) -> Vec<Scored> {
        let row: Vec<f32> = self.user_row(user).iter().map(|x| x.to_f32()).collect();
        let mut acc = TopAcc::new(n);
        for &bj in shards {
            self.q_lanes[bj as usize].scan(&row, &mut acc);
        }
        acc.into_sorted()
    }

    /// The full item factor matrix, row-major.
    pub fn q_matrix(&self) -> &FactorMatrix<E> {
        &self.q
    }

    /// The per-item popularity prior.
    pub fn popularity(&self) -> &[f32] {
        &self.popularity
    }

    /// Current model version (result-cache key component).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bumps the model version, invalidating every cached result keyed
    /// to the old version (a model reload in production).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }
}

/// Checks that a `p_shards × q_shards` grid fits a `users × items`
/// model: at least 1×1, and no more shards than rows on either side.
pub fn check_grid(p_shards: u32, q_shards: u32, users: u32, items: u32) -> Result<(), String> {
    if p_shards == 0 || q_shards == 0 {
        return Err("grid must be at least 1x1".into());
    }
    if p_shards > users || q_shards > items {
        return Err(format!(
            "grid {p_shards}x{q_shards} exceeds model {users}x{items}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_rng::{ChaCha8Rng, SeedableRng};

    fn model(m: u32, n: u32, k: u32, i: u32, j: u32) -> ShardedModel<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let p = FactorMatrix::<f32>::random_init(m, k, &mut rng);
        let q = FactorMatrix::<f32>::random_init(n, k, &mut rng);
        ShardedModel::new(p, q, i, j, None)
    }

    #[test]
    fn shard_ranges_tile_users_and_items() {
        let sm = model(103, 77, 8, 4, 3);
        let users: usize = (0..4).map(|bi| sm.user_range(bi).len()).sum();
        let items: usize = (0..3).map(|bj| sm.item_range(bj).len()).sum();
        assert_eq!(users, 103);
        assert_eq!(items, 77);
        assert_eq!(sm.shard_count(), 7);
    }

    #[test]
    fn every_user_lands_in_its_p_shard_range() {
        let sm = model(103, 77, 8, 4, 3);
        for u in 0..103 {
            let s = sm.p_shard_of(u);
            assert!(s < 4);
            assert!(sm.user_range(s as u32).contains(&u));
        }
    }

    #[test]
    fn shard_names_and_kinds() {
        let sm = model(40, 30, 4, 2, 3);
        assert_eq!(sm.shard_name(0), "P0");
        assert_eq!(sm.shard_name(1), "P1");
        assert_eq!(sm.shard_name(2), "Q0");
        assert_eq!(sm.shard_name(4), "Q2");
        assert!(!sm.is_q_shard(1));
        assert!(sm.is_q_shard(2));
        assert_eq!(sm.q_shard_id(2), 4);
    }

    #[test]
    fn version_bumps_monotonically() {
        let mut sm = model(10, 10, 2, 1, 1);
        let v0 = sm.version();
        sm.bump_version();
        assert_eq!(sm.version(), v0 + 1);
    }

    #[test]
    #[should_panic(expected = "prior length")]
    fn wrong_prior_length_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let p = FactorMatrix::<f32>::random_init(10, 2, &mut rng);
        let q = FactorMatrix::<f32>::random_init(10, 2, &mut rng);
        let _ = ShardedModel::new(p, q, 2, 2, Some(vec![1.0; 3]));
    }
}
