//! # fivm-core — the F-IVM data model
//!
//! This crate implements the data model of *“Incremental View Maintenance
//! with Triple Lock Factorization Benefits”* (Nikolic & Olteanu, SIGMOD
//! 2018), hereafter “the paper”:
//!
//! * [`Value`]s, [`Tuple`]s and [`Schema`]s — the **key space** of
//!   relations. Variable names are interned into dense [`VarId`]s by a
//!   [`Catalog`].
//! * [`Semiring`] / [`Ring`] — the algebra of the **payload space**
//!   (paper §2 and Appendix A). Concrete rings live in [`ring`]:
//!   scalars ([`i64`]/[`f64`]), product rings, the degree-*m* matrix ring
//!   for regression gradients ([`ring::cofactor`]), the relational data
//!   ring for query results as payloads ([`ring::relational`]), and the
//!   degree-indexed aggregate encoding used by the SQL-OPT baseline
//!   ([`ring::degree`]).
//! * [`Relation`] — a finitely-supported function from tuples over a
//!   schema to ring values, with the paper’s three operators: union `⊎`,
//!   natural join `⊗` and aggregation-by-marginalization `⊕X`
//!   ([`Relation::union`], [`Relation::join`], [`Relation::marginalize`]).
//! * [`Lifting`] functions `g_X : Dom(X) → D` mapping key values into the
//!   payload ring (paper §2).
//! * [`Delta`] — updates as relations with positive/negative payloads,
//!   including *factorizable* updates represented as products of factors
//!   with disjoint schemas (paper §5).
//!
//! Everything here is deliberately independent of query planning
//! (`fivm-query`) and execution (`fivm-engine`).

pub mod accum;
pub mod codec;
pub mod hash;
pub mod key;
pub mod lifting;
pub mod relation;
pub mod ring;
pub mod schema;
pub mod sync;
pub mod table;
pub mod tuple;
pub mod update;
pub mod value;

pub use accum::DeltaAccumulator;
pub use codec::{Codec, CodecError};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use key::{hash_then_cmp, ConcatProjKey, ProjKey, TupleKey};
pub use lifting::{Lifting, LiftingMap};
pub use relation::Relation;
pub use ring::{Ring, Semiring};
pub use schema::{Catalog, Schema, SymbolTable, VarId};
pub use table::{ByIds, TupleMap};
pub use tuple::Tuple;
pub use update::Delta;
pub use value::Value;
