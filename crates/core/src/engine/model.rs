//! Model layer of the engine: the trainable state every backend mutates.
//!
//! [`EngineModel`] bundles the two factor matrices of the paper's model
//! (`r̂ = p_u · q_v`, §2.1) with the optional bias terms of the Koren-style
//! extension (`r̂ = μ + b_u + b_v + p_u · q_v`). Every training path —
//! single-GPU, partitioned multi-GPU, baselines — operates on this one
//! struct, which is what makes previously-impossible combinations (e.g.
//! biased + partitioned) plain configuration.

use cumf_data::CooMatrix;
use cumf_rng::ChaCha8Rng;

use crate::feature::{Element, FactorMatrix};
use crate::kernel::dot;
use crate::metrics::rmse;

/// The bias terms of a biased factorization: global mean `μ`, per-user
/// `b_u`, per-item `b_v`.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasTerms {
    /// Global rating mean μ.
    pub mu: f32,
    /// Per-user biases b_u.
    pub user: Vec<f32>,
    /// Per-item biases b_v.
    pub item: Vec<f32>,
}

/// The trainable state of a run: factor matrices plus optional biases.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineModel<E: Element> {
    /// Row (user) factors, m×k.
    pub p: FactorMatrix<E>,
    /// Column (item) factors, n×k.
    pub q: FactorMatrix<E>,
    /// Bias terms; `None` trains the paper's bias-free model.
    pub bias: Option<BiasTerms>,
}

/// A mutable borrow of an [`EngineModel`] handed to the execution engine
/// for one epoch (split borrows let the engine update P and Q rows
/// independently).
#[derive(Debug)]
pub struct ModelView<'a, E: Element> {
    /// Row factors.
    pub p: &'a mut FactorMatrix<E>,
    /// Column factors.
    pub q: &'a mut FactorMatrix<E>,
    /// Bias terms when training the biased model.
    pub bias: Option<&'a mut BiasTerms>,
}

impl<E: Element> EngineModel<E> {
    /// Bundles existing factors into a bias-free model.
    pub fn unbiased(p: FactorMatrix<E>, q: FactorMatrix<E>) -> Self {
        assert_eq!(p.k(), q.k(), "P and Q must share the feature dimension");
        EngineModel { p, q, bias: None }
    }

    /// Random bias-free initialisation matching the single-GPU solver: P
    /// drawn first, then Q, both `U(0, √(1/k))` from `rng`.
    pub fn init_unbiased(train: &CooMatrix, k: u32, rng: &mut ChaCha8Rng) -> Self {
        let p = FactorMatrix::random_init(train.rows(), k, rng);
        let q = FactorMatrix::random_init(train.cols(), k, rng);
        EngineModel { p, q, bias: None }
    }

    /// Random biased initialisation: `μ` is the training mean, user biases
    /// start at zero, and item biases are pre-set to `-0.25` — the
    /// positive-uniform factor init predicts `μ + ~0.25` on average, so
    /// recentring makes early epochs start near the mean.
    pub fn init_biased(train: &CooMatrix, k: u32, rng: &mut ChaCha8Rng) -> Self {
        let mu = train.mean_rating() as f32;
        let p = FactorMatrix::random_init(train.rows(), k, rng);
        let q = FactorMatrix::random_init(train.cols(), k, rng);
        let init_dot = 0.25f32;
        EngineModel {
            p,
            q,
            bias: Some(BiasTerms {
                mu,
                user: vec![0.0; train.rows() as usize],
                item: vec![-init_dot; train.cols() as usize],
            }),
        }
    }

    /// A split-borrow view for one epoch of execution.
    pub fn view(&mut self) -> ModelView<'_, E> {
        ModelView {
            p: &mut self.p,
            q: &mut self.q,
            bias: self.bias.as_mut(),
        }
    }

    /// Predicted rating for `(u, v)` — `p_u · q_v`, plus `μ + b_u + b_v`
    /// when biases are present.
    pub fn predict(&self, u: u32, v: u32) -> f32 {
        let interaction = dot(self.p.row(u), self.q.row(v));
        match &self.bias {
            None => interaction,
            Some(b) => b.mu + b.user[u as usize] + b.item[v as usize] + interaction,
        }
    }

    /// Number of non-finite (NaN/Inf) values anywhere in the trainable
    /// state — factors and, when present, bias terms. A healthy model is
    /// always 0; the supervisor's post-epoch scan uses a positive count as
    /// the NaN-storm detection signal.
    pub fn non_finite_count(&self) -> usize {
        let mut n = self.p.non_finite_count() + self.q.non_finite_count();
        if let Some(b) = &self.bias {
            if !b.mu.is_finite() {
                n += 1;
            }
            n += b.user.iter().filter(|x| !x.is_finite()).count();
            n += b.item.iter().filter(|x| !x.is_finite()).count();
        }
        n
    }

    /// Test RMSE of the model over `data` (0.0 for an empty set).
    pub fn rmse(&self, data: &CooMatrix) -> f64 {
        match &self.bias {
            None => rmse(data, &self.p, &self.q),
            Some(b) => {
                if data.is_empty() {
                    return 0.0;
                }
                let mut se = 0.0f64;
                for e in data.iter() {
                    let pred = b.mu
                        + b.user[e.u as usize]
                        + b.item[e.v as usize]
                        + dot(self.p.row(e.u), self.q.row(e.v));
                    let err = (e.r - pred) as f64;
                    se += err * err;
                }
                (se / data.nnz() as f64).sqrt()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_rng::SeedableRng;

    fn tiny() -> CooMatrix {
        let mut coo = CooMatrix::new(4, 3);
        coo.push(0, 0, 3.0);
        coo.push(1, 1, 4.0);
        coo.push(2, 2, 5.0);
        coo
    }

    #[test]
    fn init_unbiased_matches_solver_rng_order() {
        let data = tiny();
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let model = EngineModel::<f32>::init_unbiased(&data, 4, &mut a);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let p: FactorMatrix<f32> = FactorMatrix::random_init(4, 4, &mut b);
        let q: FactorMatrix<f32> = FactorMatrix::random_init(3, 4, &mut b);
        assert_eq!(model.p, p);
        assert_eq!(model.q, q);
        assert!(model.bias.is_none());
    }

    #[test]
    fn init_biased_sets_mean_and_item_offset() {
        let data = tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = EngineModel::<f32>::init_biased(&data, 2, &mut rng);
        let bias = model.bias.as_ref().unwrap();
        assert!((bias.mu - 4.0).abs() < 1e-6);
        assert!(bias.user.iter().all(|&b| b == 0.0));
        assert!(bias.item.iter().all(|&b| b == -0.25));
    }

    #[test]
    fn unbiased_rmse_delegates_to_metrics() {
        let data = tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = EngineModel::<f32>::init_unbiased(&data, 3, &mut rng);
        assert_eq!(model.rmse(&data), rmse(&data, &model.p, &model.q));
    }

    #[test]
    fn biased_predict_composes_all_terms() {
        let model = EngineModel {
            p: FactorMatrix::<f32>::from_f32_slice(2, 2, &[1.0, 0.0, 0.0, 1.0]),
            q: FactorMatrix::<f32>::from_f32_slice(1, 2, &[2.0, 4.0]),
            bias: Some(BiasTerms {
                mu: 3.0,
                user: vec![0.5, -0.5],
                item: vec![0.25],
            }),
        };
        assert!((model.predict(0, 0) - 5.75).abs() < 1e-6);
        assert!((model.predict(1, 0) - 6.75).abs() < 1e-6);
    }

    #[test]
    fn biased_rmse_of_empty_test_is_zero() {
        let data = tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = EngineModel::<f32>::init_biased(&data, 2, &mut rng);
        assert_eq!(model.rmse(&CooMatrix::new(4, 3)), 0.0);
    }
}
