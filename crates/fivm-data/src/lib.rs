//! # fivm-data — synthetic workloads for the F-IVM experiments
//!
//! Generators reproducing the *shape* of the paper’s datasets (§7,
//! Appendix C.1); each module's docs say what it stands in for:
//!
//! * [`retailer`] — the snowflake schema of the proprietary Retailer
//!   dataset: `Inventory ⋈ Item ⋈ Weather ⋈ Location ⋈ Census`,
//!   43 attributes, joins on `locn` / `dateid` / `ksn` / `zip`, plus the
//!   paper’s variable order.
//! * [`housing`] — the 6-relation Housing star schema (27 attributes,
//!   join on `postcode`) with the scale-factor law that makes the
//!   listing join grow cubically while the factorized form grows
//!   linearly (Figure 8 right).
//! * [`twitter`] — random directed edges split into `R(A,B)`, `S(B,C)`,
//!   `T(C,A)` for the triangle workload (Figure 13).
//! * [`matrices`] — dense random matrices and their relational
//!   encodings for the matrix-chain workload (Figure 6).
//! * [`stream`] — round-robin interleaving of inserts into fixed-size
//!   batches.
//! * [`zipf`] — Zipf(s) rank sampling with a tail-exponent estimator,
//!   behind the degree-skewed Twitter streams of the heavy/light
//!   crossover experiments.

#![forbid(unsafe_code)]

pub mod housing;
pub mod matrices;
pub mod retailer;
pub mod stream;
pub mod twitter;
pub mod zipf;

pub use housing::HousingConfig;
pub use retailer::RetailerConfig;
pub use stream::{interleave_round_robin, Batch};
pub use twitter::{TwitterConfig, ZipfTwitterConfig};
pub use zipf::Zipf;
