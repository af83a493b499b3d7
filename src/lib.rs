//! # F-IVM — factorized higher-order incremental view maintenance
//!
//! A from-scratch Rust implementation of *“Incremental View Maintenance
//! with Triple Lock Factorization Benefits”* (Nikolic & Olteanu,
//! SIGMOD 2018).
//!
//! F-IVM maintains queries with joins and group-by aggregates whose
//! aggregate values live in a task-specific **ring**: the same view-tree
//! machinery serves SQL aggregates, gradient computation for linear
//! regression over joins, matrix chain multiplication, and factorized
//! evaluation of conjunctive queries — only the ring and the lifting
//! functions change. Factorization is exploited three ways (“triple
//! lock”): factorized view computation over variable orders, factorizable
//! low-rank updates, and factorized result representations in payloads.
//!
//! ## Crate map
//!
//! * [`core`](fivm_core) — values, tuples, schemas, rings, relations
//!   over rings, lifting functions, deltas.
//! * [`query`](fivm_query) — variable orders, view trees, delta trees,
//!   materialization choice, GYO reduction, indicator projections.
//! * [`engine`](fivm_engine) — the IVM executor and the baselines
//!   (1-IVM, DBToaster-style recursive IVM, re-evaluation), factorized
//!   payloads and enumeration, memory accounting.
//! * [`durability`](fivm_durability) — segmented write-ahead delta log,
//!   incremental checkpoints, and crash recovery for the engine.
//! * [`linalg`](fivm_linalg) — dense matrices and LINVIEW-style matrix
//!   chain maintenance.
//! * [`ml`](fivm_ml) — cofactor-matrix queries and linear-regression
//!   training over maintained statistics.
//! * [`data`](fivm_data) — the Retailer / Housing / Twitter / matrix
//!   workload generators and stream synthesis.
//!
//! ## Quickstart
//!
//! ```rust
//! use fivm::prelude::*;
//!
//! // SELECT SUM(1) FROM R NATURAL JOIN S NATURAL JOIN T  (Example 2.2)
//! let q = QueryDef::example_rst(&[]);
//! let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
//! let tree = ViewTree::build(&q, &vo);
//! let mut engine: IvmEngine<i64> =
//!     IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
//!
//! let d = Relation::from_pairs(q.relations[0].schema.clone(),
//!                              [(fivm::tuple![1, 2], 1i64)]);
//! engine.apply(0, &Delta::Flat(d));
//! assert!(engine.result().is_empty()); // S and T still empty — no join
//! ```

pub use fivm_core as core;
pub use fivm_core::tuple;
pub use fivm_data as data;
pub use fivm_durability as durability;
pub use fivm_engine as engine;
pub use fivm_linalg as linalg;
pub use fivm_ml as ml;
pub use fivm_query as query;

/// Common imports for examples and tests.
pub mod prelude {
    pub use fivm_core::ring::boolean::{Bool, MaxProduct};
    pub use fivm_core::ring::cofactor::Cofactor;
    pub use fivm_core::ring::degree::DegreeRing;
    pub use fivm_core::ring::relational::RelPayload;
    pub use fivm_core::{
        Catalog, Codec, CodecError, Delta, FxHashMap, FxHashSet, Lifting, LiftingMap, Relation,
        Ring, Schema, Semiring, Tuple, Value, VarId,
    };
    pub use fivm_durability::{
        DurabilityConfig, DurableEngine, EngineMode, FaultKind, FaultVfs, HealReport,
        RecoveryReport, StdVfs, SyncPolicy, Vfs,
    };
    pub use fivm_engine::{
        eval_tree, Database, EngineSnapshot, FactorizedResult, FirstOrderIvm, HlConfig, HlStats,
        IvmEngine, RecursiveIvm, ServingEngine, ServingStats, SnapshotReader, SubMessage,
        Subscriber, TriangleHlEngine, ViewDelta, ViewStore,
    };
    pub use fivm_ml::{train, CofactorSpec, TrainConfig, TrainedModel};
    pub use fivm_query::{
        add_indicators, delta_path, materialization, MaterializationPlan, NodeId, NodeKind,
        PartitionError, QueryDef, RelDef, RelIndex, TrianglePlan, VariableOrder, ViewNode,
        ViewTree,
    };
}
