//! # fivm-linalg — dense linear algebra substrate
//!
//! The paper’s Figure 6 compares maintenance strategies for matrix chain
//! multiplication under two runtimes: DBToaster hash maps and Octave
//! (dense arrays + BLAS). This crate is the stand-in for the latter:
//! a from-scratch dense [`Matrix`] with cache-aware multiplication,
//! the textbook matrix-chain-order DP ([`chain`]), and the
//! LINVIEW-style incremental maintenance strategies of §6.1
//! ([`linview`]):
//!
//! * [`linview::ReEvalChain`] — recompute the product on every update,
//! * [`linview::FirstOrderChain`] — 1-IVM: `δA = A₁ δA₂ A₃` with full
//!   matrix-matrix multiplications,
//! * [`linview::DenseChainIvm`] — F-IVM: factorized rank-1/rank-r
//!   updates propagated through a balanced product tree in
//!   `O(p² log k)` per rank-1 update.
//!
//! [`decomp`] provides low-rank decompositions of update matrices
//! (paper §5: arbitrary updates decompose into sums of rank-1 tensors).
//!
//! [`engine_chain`] drives the same chain through the **relational
//! F-IVM engine** with factorizable (rank-1 factored) updates — the
//! Figure 6 hash runtime, exercising the engine's compiled factored
//! fast path.

#![forbid(unsafe_code)]

pub mod chain;
pub mod decomp;
pub mod engine_chain;
pub mod linview;
pub mod matrix;

pub use chain::{chain_cost, multiply_chain, optimal_parenthesization};
pub use decomp::{low_rank_decompose, row_update_factors};
pub use engine_chain::EngineChainIvm;
pub use linview::{DenseChainIvm, FirstOrderChain, ReEvalChain};
pub use matrix::Matrix;
