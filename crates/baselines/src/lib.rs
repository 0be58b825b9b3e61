//! # cumf-baselines — the comparators of the cuMF_SGD evaluation
//!
//! Re-implementations of every system the paper compares against (§7.2,
//! §7.4), built on the same data substrate, kernels and machine models so
//! that comparisons isolate the *algorithms*:
//!
//! * [`libmf`] — LIBMF: blocked shared-memory CPU SGD with a global
//!   scheduling table and bold-driver learning rate;
//! * [`nomad`] — NOMAD: decentralised distributed SGD with circulating
//!   item ownership and a cluster network cost model;
//! * [`bidmach`] — BIDMach-style mini-batch SGD with ADAGRAD on GPU;
//! * [`als`] — alternating least squares (the cuMF_ALS comparator), with
//!   a from-scratch Cholesky solver in [`linalg`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod als;
pub mod bidmach;
pub mod libmf;
pub mod linalg;
pub mod nomad;

pub use als::{train_als, AlsConfig, AlsResult, AlsTimeModel};
pub use bidmach::{train_bidmach, BidmachConfig, BidmachPerfModel, BidmachResult};
pub use libmf::{libmf_effective_bw, train_libmf, LibmfConfig, LibmfResult};
pub use nomad::{train_nomad, NomadConfig, NomadPerfModel, NomadResult};
