//! The repository's benchmark as a library, so the package's own tests
//! can reach its helpers; `main.rs` is the command-line front.
//!
//! Everything that touches the system under test is in [`sut`]; the
//! rest is the harness: the measurement loop ([`run`]), order
//! statistics ([`stats`]), spans ([`trace`]), reference answers
//! ([`oracle`]), the input digest ([`digest`]), the heap counter
//! ([`alloc`]), `BENCHMARK.json` ([`spec`]) and result files
//! ([`json`], [`compare`]).

pub mod alloc;
pub mod compare;
pub mod digest;
pub mod json;
pub mod oracle;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod trace;
