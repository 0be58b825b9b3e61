//! # cumf-data — rating matrices, generators, and IO
//!
//! The data substrate for the cuMF_SGD reproduction:
//!
//! * [`coo`] — COO sparse matrices (the paper's 12-byte-per-sample format),
//! * [`csr`] — CSR/CSC views for per-row and per-column traversal (ALS),
//! * [`synth`] — planted low-rank generators with Zipf-skewed popularity,
//! * [`presets`] — the paper's Netflix / Yahoo!Music / Hugewiki shapes
//!   (Table 2) plus laptop-scale synthetic stand-ins,
//! * [`io`] — LIBMF-compatible text and compact binary formats,
//! * [`split`] — random holdout splitting (the paper's Hugewiki protocol).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod io;
pub mod presets;
pub mod split;
pub mod synth;

pub use coo::{CooMatrix, Entry};
pub use csr::CsrMatrix;
pub use presets::{
    hugewiki_like, netflix_like, yahoo_like, DatasetSpec, ALL, DEFAULT_K, DEFAULT_SCALE, HUGEWIKI,
    NETFLIX, YAHOO_MUSIC,
};
pub use split::holdout_split;
pub use synth::{generate, AliasTable, SynthConfig, SynthDataset};
