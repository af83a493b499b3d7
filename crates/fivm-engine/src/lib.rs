//! # fivm-engine — F-IVM execution
//!
//! Executes the plans of `fivm-query` over the rings of `fivm-core`:
//!
//! * [`ViewStore`] — a materialized view: hash map from keys to payloads
//!   plus secondary indexes for the probe patterns of delta propagation.
//! * [`eval`] — static factorized evaluation of a view tree over a
//!   database (used for initial loads, re-evaluation baselines and as the
//!   correctness oracle in tests).
//! * [`IvmEngine`] — the factorized higher-order IVM executor (paper §4):
//!   maintains the views chosen by µ under flat and *factored* updates
//!   (§5), including indicator projections for cyclic queries
//!   (Appendix B) and an optional factorized-payload mode (§6.3).
//! * [`enumerate`] — constant-delay enumeration of query results from
//!   factorized payloads.
//! * [`heavylight`] — the IVM^ε adaptive layer for triangle queries:
//!   degree-partitioned part stores, auxiliary views and the
//!   threshold-migration router (sub-linear single-tuple maintenance).
//! * [`snapshot`] / [`subscribe`] — the serving layer: epoch-pinned
//!   lock-free snapshot reads concurrent with maintenance, and
//!   per-view output-delta subscriptions.
//! * Baselines from the paper’s evaluation (§7): [`FirstOrderIvm`]
//!   (1-IVM), [`RecursiveIvm`] (DBToaster-style fully recursive
//!   higher-order IVM — DBT / DBT-RING), and [`reeval`] (F-RE).
//! * [`memory`] — approximate byte accounting replacing the paper’s
//!   gperftools profiles.

pub mod enumerate;
pub mod eval;
pub mod executor;
pub mod first_order;
pub mod heavylight;
pub mod memory;
pub mod parallel;
pub mod recursive;
pub mod reeval;
pub mod snapshot;
pub mod subscribe;
pub mod view;

pub use enumerate::FactorizedResult;
pub use eval::{eval_node, eval_tree, Database};
pub use executor::{IvmEngine, PayloadTransform};
pub use first_order::FirstOrderIvm;
pub use heavylight::{HlConfig, HlStats, TriangleHlEngine};
pub use parallel::WorkerPool;
pub use recursive::RecursiveIvm;
pub use snapshot::{
    EngineSnapshot, ServingEngine, ServingStats, SnapshotPublisher, SnapshotReader,
};
pub use subscribe::{SubMessage, Subscriber, SubscriptionHub, ViewDelta};
pub use view::ViewStore;
