//! # fivm-bench — the F-IVM experiment harness
//!
//! Reproduces every table and figure of the paper’s evaluation (§7 and
//! Appendix C); `src/bin/experiments.rs` lists the experiments, and
//! `benchmark/README.md` has the reproducible end-to-end numbers.
//!
//! [`Maintainer`] abstracts over the competing strategies so one driver
//! ([`run_stream`]) measures them all: F-IVM ([`FIvmMaintainer`]),
//! SQL-OPT (same engine, degree-ring payloads), DBT-RING
//! ([`RecursiveMaintainer`]), DBT / 1-IVM with scalar payloads
//! ([`ScalarFleet`] — one engine per aggregate, no sharing), and the
//! re-evaluation baselines. Streams honour the paper’s one-hour-timeout
//! protocol through a configurable [`Budget`].

#![forbid(unsafe_code)]

pub mod foil;

use fivm_core::{Delta, LiftingMap, Relation, Ring, Tuple};
use fivm_data::Batch;
use fivm_engine::reeval::{FactorizedReeval, NaiveReeval};
use fivm_engine::{FirstOrderIvm, IvmEngine, RecursiveIvm};
use fivm_query::{QueryDef, RelIndex, ViewTree};
use std::time::{Duration, Instant};

/// A maintenance strategy under benchmark.
pub trait Maintainer {
    /// Apply one insert batch.
    fn apply_batch(&mut self, rel: RelIndex, tuples: &[Tuple]);
    /// Approximate resident bytes.
    fn bytes(&self) -> usize;
    /// Number of materialized views.
    fn views(&self) -> usize;
}

/// Build an insert delta with payload `1` for each tuple.
pub fn ones_delta<R: Ring>(schema: fivm_core::Schema, tuples: &[Tuple]) -> Delta<R> {
    Delta::Flat(Relation::from_pairs(
        schema,
        tuples.iter().map(|t| (t.clone(), R::one())),
    ))
}

/// F-IVM (or SQL-OPT, depending on the ring/liftings) over one view
/// tree.
pub struct FIvmMaintainer<R: Ring> {
    /// The wrapped engine.
    pub engine: IvmEngine<R>,
    schemas: Vec<fivm_core::Schema>,
}

impl<R: Ring> FIvmMaintainer<R> {
    /// Build for `query`/`tree` with updates to `updatable`.
    pub fn new(
        query: QueryDef,
        tree: ViewTree,
        updatable: &[RelIndex],
        liftings: LiftingMap<R>,
    ) -> Self {
        let schemas = query.relations.iter().map(|r| r.schema.clone()).collect();
        FIvmMaintainer {
            engine: IvmEngine::new(query, tree, updatable, liftings),
            schemas,
        }
    }

    /// Wrap a preconfigured engine (e.g. one with a payload transform or
    /// preloaded static relations).
    pub fn from_engine(engine: IvmEngine<R>) -> Self {
        let schemas = engine
            .query()
            .relations
            .iter()
            .map(|r| r.schema.clone())
            .collect();
        FIvmMaintainer { engine, schemas }
    }
}

impl<R: Ring> Maintainer for FIvmMaintainer<R> {
    fn apply_batch(&mut self, rel: RelIndex, tuples: &[Tuple]) {
        self.engine
            .apply(rel, &ones_delta::<R>(self.schemas[rel].clone(), tuples));
    }

    fn bytes(&self) -> usize {
        self.engine.approx_bytes()
    }

    fn views(&self) -> usize {
        self.engine.stored_view_count()
    }
}

/// DBT-RING: the recursive scheme with ring payloads.
pub struct RecursiveMaintainer<R: Ring> {
    /// The wrapped hierarchy.
    pub ivm: RecursiveIvm<R>,
    schemas: Vec<fivm_core::Schema>,
}

impl<R: Ring> RecursiveMaintainer<R> {
    /// Build for `query` with updates to `updatable`.
    pub fn new(query: QueryDef, updatable: &[RelIndex], liftings: LiftingMap<R>) -> Self {
        let schemas = query.relations.iter().map(|r| r.schema.clone()).collect();
        RecursiveMaintainer {
            ivm: RecursiveIvm::new(query, updatable, liftings),
            schemas,
        }
    }
}

impl<R: Ring> Maintainer for RecursiveMaintainer<R> {
    fn apply_batch(&mut self, rel: RelIndex, tuples: &[Tuple]) {
        self.ivm
            .apply(rel, &ones_delta::<R>(self.schemas[rel].clone(), tuples));
    }

    fn bytes(&self) -> usize {
        self.ivm.approx_bytes()
    }

    fn views(&self) -> usize {
        self.ivm.stored_view_count()
    }
}

/// Which engine each member of a [`ScalarFleet`] runs.
pub enum ScalarKind {
    /// DBT: one recursive hierarchy per aggregate.
    Recursive,
    /// 1-IVM: one first-order maintainer per aggregate.
    FirstOrder,
}

/// The scalar-payload baselines of §7: one engine per regression
/// aggregate, sharing nothing (the reason DBT needs 3 814 views and
/// 1-IVM 995 on Retailer).
pub struct ScalarFleet {
    recursive: Vec<RecursiveIvm<f64>>,
    first_order: Vec<FirstOrderIvm<f64>>,
    schemas: Vec<fivm_core::Schema>,
}

impl ScalarFleet {
    /// Build one engine per aggregate lifting map.
    pub fn new(
        kind: ScalarKind,
        query: QueryDef,
        tree: &ViewTree,
        updatable: &[RelIndex],
        aggregates: Vec<LiftingMap<f64>>,
    ) -> Self {
        let schemas: Vec<_> = query.relations.iter().map(|r| r.schema.clone()).collect();
        match kind {
            ScalarKind::Recursive => ScalarFleet {
                recursive: aggregates
                    .into_iter()
                    .map(|lifts| RecursiveIvm::new(query.clone(), updatable, lifts))
                    .collect(),
                first_order: Vec::new(),
                schemas,
            },
            ScalarKind::FirstOrder => ScalarFleet {
                recursive: Vec::new(),
                first_order: aggregates
                    .into_iter()
                    .map(|lifts| FirstOrderIvm::new(query.clone(), tree.clone(), lifts))
                    .collect(),
                schemas,
            },
        }
    }
}

impl Maintainer for ScalarFleet {
    fn apply_batch(&mut self, rel: RelIndex, tuples: &[Tuple]) {
        let delta = ones_delta::<f64>(self.schemas[rel].clone(), tuples);
        for e in &mut self.recursive {
            e.apply(rel, &delta);
        }
        for e in &mut self.first_order {
            e.apply(rel, &delta);
        }
    }

    fn bytes(&self) -> usize {
        self.recursive
            .iter()
            .map(RecursiveIvm::approx_bytes)
            .sum::<usize>()
            + self
                .first_order
                .iter()
                .map(FirstOrderIvm::approx_bytes)
                .sum::<usize>()
    }

    fn views(&self) -> usize {
        self.recursive
            .iter()
            .map(RecursiveIvm::stored_view_count)
            .sum::<usize>()
            + self
                .first_order
                .iter()
                .map(FirstOrderIvm::stored_view_count)
                .sum::<usize>()
    }
}

/// F-RE: factorized re-evaluation per batch.
pub struct FReMaintainer {
    re: FactorizedReeval<f64>,
    schemas: Vec<fivm_core::Schema>,
}

impl FReMaintainer {
    /// Build over a view tree.
    pub fn new(query: QueryDef, tree: ViewTree, liftings: LiftingMap<f64>) -> Self {
        let schemas = query.relations.iter().map(|r| r.schema.clone()).collect();
        FReMaintainer {
            re: FactorizedReeval::new(query, tree, liftings),
            schemas,
        }
    }
}

impl Maintainer for FReMaintainer {
    fn apply_batch(&mut self, rel: RelIndex, tuples: &[Tuple]) {
        self.re
            .apply(rel, &ones_delta::<f64>(self.schemas[rel].clone(), tuples));
    }

    fn bytes(&self) -> usize {
        0 // re-evaluation keeps only the inputs + result
    }

    fn views(&self) -> usize {
        1
    }
}

/// DBT-RE: naive join-then-aggregate re-evaluation per batch.
pub struct DbtReMaintainer {
    re: NaiveReeval<f64>,
    schemas: Vec<fivm_core::Schema>,
}

impl DbtReMaintainer {
    /// Build for a query.
    pub fn new(query: QueryDef, liftings: LiftingMap<f64>) -> Self {
        let schemas = query.relations.iter().map(|r| r.schema.clone()).collect();
        DbtReMaintainer {
            re: NaiveReeval::new(query, liftings),
            schemas,
        }
    }
}

impl Maintainer for DbtReMaintainer {
    fn apply_batch(&mut self, rel: RelIndex, tuples: &[Tuple]) {
        self.re
            .apply(rel, &ones_delta::<f64>(self.schemas[rel].clone(), tuples));
    }

    fn bytes(&self) -> usize {
        0
    }

    fn views(&self) -> usize {
        1
    }
}

/// Per-run time budget, standing in for the paper’s one-hour timeout.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Abort the stream once this much wall-clock time has elapsed.
    pub timeout: Duration,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            timeout: Duration::from_secs(30),
        }
    }
}

/// Result of streaming a workload through a strategy.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Tuples applied before completion or timeout.
    pub tuples: usize,
    /// Fraction of the stream processed (1.0 = finished).
    pub fraction: f64,
    /// Wall-clock time spent applying updates.
    pub elapsed: Duration,
    /// Average throughput in tuples/second.
    pub throughput: f64,
    /// Resident bytes at the end.
    pub bytes: usize,
    /// Materialized view count.
    pub views: usize,
    /// Throughput checkpoints at stream fractions (fraction, tuples/s,
    /// bytes) — the x-axis of Figures 7/8/13.
    pub checkpoints: Vec<(f64, f64, usize)>,
    /// Whether the budget expired before the stream ended.
    pub timed_out: bool,
}

impl StreamReport {
    /// Render throughput with a timeout marker (the paper’s `*`).
    pub fn display_throughput(&self) -> String {
        if self.timed_out {
            format!("{:>12.0}*", self.throughput)
        } else {
            format!("{:>12.0} ", self.throughput)
        }
    }
}

/// Drive `batches` through a strategy, checkpointing throughput and
/// memory at stream quarters.
pub fn run_stream(m: &mut dyn Maintainer, batches: &[Batch], budget: Budget) -> StreamReport {
    let total: usize = batches.iter().map(|b| b.tuples.len()).sum();
    let start = Instant::now();
    let mut applied = 0usize;
    let mut checkpoints = Vec::new();
    let mut next_checkpoint = 0.25f64;
    let mut timed_out = false;
    for b in batches {
        m.apply_batch(b.relation, &b.tuples);
        applied += b.tuples.len();
        let frac = applied as f64 / total.max(1) as f64;
        if frac + 1e-12 >= next_checkpoint {
            let el = start.elapsed().as_secs_f64().max(1e-9);
            checkpoints.push((frac, applied as f64 / el, m.bytes()));
            next_checkpoint += 0.25;
        }
        if start.elapsed() > budget.timeout {
            timed_out = applied < total;
            break;
        }
    }
    let elapsed = start.elapsed();
    StreamReport {
        tuples: applied,
        fraction: applied as f64 / total.max(1) as f64,
        throughput: applied as f64 / elapsed.as_secs_f64().max(1e-9),
        elapsed,
        bytes: m.bytes(),
        views: m.views(),
        checkpoints,
        timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::tuple;
    use fivm_query::VariableOrder;

    fn setup() -> (QueryDef, ViewTree) {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        (q, tree)
    }

    #[test]
    fn run_stream_reports_progress() {
        let (q, tree) = setup();
        let mut m = FIvmMaintainer::<i64>::new(q, tree, &[0, 1, 2], LiftingMap::new());
        let batches = vec![
            Batch {
                relation: 0,
                tuples: vec![tuple![1, 1], tuple![2, 2]],
            },
            Batch {
                relation: 1,
                tuples: vec![tuple![1, 1, 1]],
            },
            Batch {
                relation: 2,
                tuples: vec![tuple![1, 5]],
            },
        ];
        let report = run_stream(&mut m, &batches, Budget::default());
        assert_eq!(report.tuples, 4);
        assert!(!report.timed_out);
        assert!((report.fraction - 1.0).abs() < 1e-12);
        assert!(report.throughput > 0.0);
        assert_eq!(report.checkpoints.len(), 3); // quarters crossed at 0.5, 0.75, 1.0
        assert_eq!(m.engine.result().payload(&fivm_core::Tuple::unit()), 1i64);
    }

    #[test]
    fn timeout_interrupts() {
        let (q, tree) = setup();
        let mut m = FIvmMaintainer::<i64>::new(q, tree, &[0, 1, 2], LiftingMap::new());
        let batches: Vec<Batch> = (0..2000)
            .map(|i| Batch {
                relation: 0,
                tuples: vec![tuple![i as i64, i as i64]],
            })
            .collect();
        let report = run_stream(
            &mut m,
            &batches,
            Budget {
                timeout: Duration::from_nanos(1),
            },
        );
        assert!(report.timed_out);
        assert!(report.tuples < 2000);
        assert!(report.display_throughput().contains('*'));
    }

    #[test]
    fn scalar_fleet_maintains_all_aggregates() {
        let (q, tree) = setup();
        let spec = fivm_ml::CofactorSpec::over_all_vars(&q);
        let aggs: Vec<LiftingMap<f64>> = spec
            .scalar_aggregates()
            .into_iter()
            .take(4)
            .map(|(_, l)| l)
            .collect();
        let mut fleet = ScalarFleet::new(ScalarKind::Recursive, q.clone(), &tree, &[0, 1, 2], aggs);
        fleet.apply_batch(0, &[tuple![1, 1]]);
        fleet.apply_batch(1, &[tuple![1, 1, 1]]);
        fleet.apply_batch(2, &[tuple![1, 2]]);
        assert!(fleet.views() > 4, "one hierarchy per aggregate");
    }
}
