//! Differential oracle for the batch fast path: a from-scratch
//! reference evaluator (see `tests/support/oracle.rs`), sharing **no
//! code** with the engine's relational algebra, recomputes every query
//! result from the raw update history and must agree with the
//! incremental engine after every batch.
//!
//! Proptest drives randomized insert/delete batch schedules: batch
//! sizes 1–4096 (log-uniform, straddling every merge-regime threshold
//! of the flat-batch path), skewed join keys (a small hot pool plus a
//! large cold domain), interleaved relations, and deletes drawn from
//! the live multiset so multiplicities stay non-negative.
//!
//! Every schedule runs on **two engines**: the default sequential one
//! and one with 4 workers and a low parallel threshold, so the
//! range-partitioned parallel fan-out is held to the same oracle on
//! the same randomized schedules as the sequential path.

#[path = "support/oracle.rs"]
mod support;

use fivm::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use support::{
    batch_specs, canon_engine_result, oracle_eval, run_schedule, run_schedule_sym, OracleDb,
};

/// The sequential engine plus a parallel twin (4 workers, fan-out
/// forced onto small batches).
fn engine_pair(q: &QueryDef, tree: &ViewTree, lifts: &LiftingMap<i64>) -> Vec<IvmEngine<i64>> {
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let seq = IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
    let mut par = IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
    par.set_workers(4);
    par.set_parallel_threshold(64);
    vec![seq, par]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// COUNT over the running star join (Figure 2): no free variables,
    /// batches up to 4096 tuples across all three relations.
    #[test]
    fn star_count_matches_oracle(specs in batch_specs(12, 6)) {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let mut engines = engine_pair(&q, &tree, &LiftingMap::new());
        run_schedule(&q, &mut engines, &specs, &[])?;
    }

    /// Group-by with non-trivial liftings: free variables A and C,
    /// SUM(B * E) via identity liftings on the bound B and E.
    #[test]
    fn star_group_by_sum_matches_oracle(specs in batch_specs(11, 6)) {
        let q = QueryDef::example_rst(&["A", "C"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let b = q.catalog.lookup("B").unwrap();
        let e = q.catalog.lookup("E").unwrap();
        let mut lifts = LiftingMap::<i64>::new();
        lifts.set(b, fivm::core::lifting::int_identity());
        lifts.set(e, fivm::core::lifting::int_identity());
        let mut engines = engine_pair(&q, &tree, &lifts);
        run_schedule(&q, &mut engines, &specs, &[b, e])?;
    }

    /// Triangle COUNT with indicator projections (Appendix B): the
    /// cyclic query exercises indicator support counting under batch
    /// deletes. A second input replays one hub-skewed shape (see
    /// [`HUB_SHAPES`]) at batch sizes 1, 32, 300 and 1500, so the
    /// executor's two sibling orders both run, on both engines.
    #[test]
    fn triangle_with_indicators_matches_oracle(
        specs in batch_specs(11, 6),
        hub in (0usize..HUB_SHAPES.len(), 0u64..u64::MAX),
    ) {
        let (shape, seed) = hub;
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        add_indicators(&mut tree, &q);
        let mut engines = engine_pair(&q, &tree, &LiftingMap::new());
        run_schedule(&q, &mut engines, &specs, &[])?;
        for batch in [1, 32, 300, 1500] {
            let mut engines = engine_pair(&q, &tree, &LiftingMap::new());
            run_hub_schedule(&q, &mut engines, HUB_SHAPES[shape], batch, seed)?;
        }
    }

    /// COUNT over the star join with **string join keys**: A and C —
    /// the variables every sibling probe routes on — carry interned
    /// symbols from skewed categorical domains, with inserts and
    /// deletes. A broken symbol equality/hash/order would corrupt
    /// probes, merges and canonicalization here.
    #[test]
    fn star_count_with_symbol_join_keys_matches_oracle(specs in batch_specs(11, 6)) {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let a = q.catalog.lookup("A").unwrap();
        let c = q.catalog.lookup("C").unwrap();
        let mut engines = engine_pair(&q, &tree, &LiftingMap::new());
        run_schedule_sym(&q, &mut engines, &specs, &[], &[a, c])?;
    }

    /// Group-by over string keys: free variables A (symbolic) and C,
    /// SUM(B * E) over the numeric bound columns — symbol keys flow
    /// into the *result* relation and through `reorder`/canon.
    #[test]
    fn star_group_by_with_symbol_free_var_matches_oracle(specs in batch_specs(10, 6)) {
        let q = QueryDef::example_rst(&["A", "C"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let a = q.catalog.lookup("A").unwrap();
        let b = q.catalog.lookup("B").unwrap();
        let e = q.catalog.lookup("E").unwrap();
        let mut lifts = LiftingMap::<i64>::new();
        lifts.set(b, fivm::core::lifting::int_identity());
        lifts.set(e, fivm::core::lifting::int_identity());
        let mut engines = engine_pair(&q, &tree, &lifts);
        run_schedule_sym(&q, &mut engines, &specs, &[b, e], &[a])?;
    }

    /// Triangle with indicators over **all-symbol** edges (the Twitter
    /// handle shape): every key column in the cyclic query is an
    /// interned string.
    #[test]
    fn triangle_with_symbol_keys_matches_oracle(specs in batch_specs(10, 6)) {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        add_indicators(&mut tree, &q);
        let vars: Vec<VarId> = ["A", "B", "C"]
            .iter()
            .map(|n| q.catalog.lookup(n).unwrap())
            .collect();
        let mut engines = engine_pair(&q, &tree, &LiftingMap::new());
        run_schedule_sym(&q, &mut engines, &specs, &[], &vars)?;
    }
}

/// Hub-skewed triangle shapes, named by the variables that have a hub
/// node: a step of the triangle plan joins two siblings through index
/// buckets on these variables, and iterates the smaller bucket per
/// tuple (executor docs, "Sibling order"). A hub on C makes the S and T
/// steps start from R; a hub on B alone makes them keep their compiled
/// order; hubs on every variable mix both. The empty shape is the tie
/// case: every relation is a complete graph, so equal-length buckets
/// keep the compiled order.
const HUB_SHAPES: [&[&str]; 4] = [&["C"], &["B"], &["A", "B", "C"], &[]];

/// Insert a hub-skewed edge list into R, S and T, round-robin in
/// batches of `batch`, then delete every edge again in shuffled batches
/// — emptying the hub buckets last or first by chance — checking every
/// engine against the oracle after each batch and for emptiness at the
/// end.
fn run_hub_schedule(
    q: &QueryDef,
    engines: &mut [IvmEngine<i64>],
    hubs: &[&str],
    batch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed ^ batch as u64);
    // Enough edges for two full batches; 1500 reaches the worker pool.
    let edges = (2 * batch).clamp(40, 1500);
    let hub_of: Vec<Option<i64>> = (0..3)
        .map(|v| {
            hubs.iter()
                .position(|h| q.catalog.lookup(h) == Some(v))
                .map(|i| i as i64)
        })
        .collect();
    let mut rows: Vec<Vec<Vec<i64>>> = Vec::new();
    for rel in &q.relations {
        let mut list = Vec::with_capacity(edges);
        if hubs.is_empty() {
            let k = (2..).find(|k| k * (k - 1) >= edges as i64).expect("finite");
            for x in 0..k {
                list.extend((0..k).filter(|&y| y != x).map(|y| vec![x, y]));
            }
        } else {
            for _ in 0..edges {
                let row = rel
                    .schema
                    .iter()
                    .map(|&v| match hub_of[v as usize] {
                        Some(h) if rng.gen_bool(0.25) => h,
                        _ => rng.gen_range(10..400),
                    })
                    .collect();
                list.push(row);
            }
        }
        rows.push(list);
    }
    let mut db: OracleDb = q.relations.iter().map(|_| HashMap::new()).collect();
    for sign in [1i64, -1] {
        if sign < 0 {
            for list in &mut rows {
                for i in (1..list.len()).rev() {
                    list.swap(i, rng.gen_range(0..=i));
                }
            }
        }
        let chunks = rows
            .iter()
            .map(|l| l.len().div_ceil(batch))
            .max()
            .unwrap_or(0);
        for c in 0..chunks {
            for (rel, list) in rows.iter().enumerate() {
                let part = &list[(c * batch).min(list.len())..((c + 1) * batch).min(list.len())];
                if part.is_empty() {
                    continue;
                }
                for row in part {
                    let m = db[rel].entry(row.clone()).or_insert(0);
                    *m += sign;
                    if *m == 0 {
                        db[rel].remove(row);
                    }
                }
                let delta = Relation::from_pairs(
                    q.relations[rel].schema.clone(),
                    part.iter().map(|row| {
                        (
                            Tuple::new(row.iter().map(|&v| Value::Int(v)).collect()),
                            sign,
                        )
                    }),
                );
                for engine in engines.iter_mut() {
                    engine.apply(rel, &Delta::Flat(delta.clone()));
                }
                let expected = oracle_eval(q, &db, &[]);
                for (e, engine) in engines.iter().enumerate() {
                    prop_assert_eq!(
                        &canon_engine_result(q, &engine.result()),
                        &expected,
                        "engine {} ({} workers), hubs {:?}, batch {}, chunk {} of rel {}",
                        e,
                        engine.workers(),
                        hubs,
                        batch,
                        c,
                        rel
                    );
                }
            }
        }
    }
    for engine in engines.iter() {
        prop_assert_eq!(
            engine.total_entries(),
            0,
            "hubs {:?}, batch {}",
            hubs,
            batch
        );
    }
    Ok(())
}

/// Deterministic worst-case shapes the random driver may miss: a
/// batch that is entirely one hot key, a batch that cancels itself,
/// and a batch that deletes everything a previous batch inserted.
/// Runs on the sequential engine and the 4-worker parallel twin.
#[test]
fn adversarial_batches_match_oracle() {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut engines = engine_pair(&q, &tree, &LiftingMap::new());
    let mut db: OracleDb = q.relations.iter().map(|_| HashMap::new()).collect();

    let apply = |engines: &mut Vec<IvmEngine<i64>>,
                 db: &mut OracleDb,
                 rel: usize,
                 pairs: Vec<(Vec<i64>, i64)>| {
        for (row, m) in &pairs {
            let e = db[rel].entry(row.clone()).or_insert(0);
            *e += m;
            if *e == 0 {
                db[rel].remove(row);
            }
        }
        let delta = Relation::from_pairs(
            q.relations[rel].schema.clone(),
            pairs
                .into_iter()
                .map(|(row, m)| (Tuple::new(row.iter().map(|&v| Value::Int(v)).collect()), m)),
        );
        for engine in engines.iter_mut() {
            engine.apply(rel, &Delta::Flat(delta.clone()));
        }
    };
    let check = |engines: &Vec<IvmEngine<i64>>, db: &OracleDb, what: &str| {
        let expected = oracle_eval(&q, db, &[]);
        for (i, e) in engines.iter().enumerate() {
            assert_eq!(
                canon_engine_result(&q, &e.result()),
                expected,
                "engine {i} after {what}"
            );
        }
    };

    // 2000 R-tuples all sharing A=1 (one hot join key).
    apply(
        &mut engines,
        &mut db,
        0,
        (0..2000).map(|b| (vec![1, b], 1)).collect(),
    );
    // S and T matching the hub, enough to cross the hash-merge band.
    apply(
        &mut engines,
        &mut db,
        1,
        (0..1500).map(|c| (vec![1, c % 40, c], 1)).collect(),
    );
    apply(
        &mut engines,
        &mut db,
        2,
        (0..40).map(|c| (vec![c, c], 1)).collect(),
    );
    check(&engines, &db, "hot-key load");

    // A self-cancelling batch (every key nets to zero) is a no-op —
    // including for view stores and index bucket counters downstream.
    let before: Vec<Relation<i64>> = engines.iter().map(|e| e.result()).collect();
    let footprints: Vec<usize> = engines.iter().map(|e| e.index_footprint()).collect();
    apply(
        &mut engines,
        &mut db,
        0,
        (0..500)
            .flat_map(|b| [(vec![7, b], 3), (vec![7, b], -3)])
            .collect(),
    );
    for (i, e) in engines.iter().enumerate() {
        assert_eq!(
            e.result(),
            before[i],
            "engine {i}: cancelled batch changed the result"
        );
        assert_eq!(
            e.index_footprint(),
            footprints[i],
            "engine {i}: cancelled batch touched index buckets"
        );
    }
    check(&engines, &db, "self-cancelling batch");

    // A batch cancelling on *join-output* keys: distinct input rows
    // that project to the same view keys with opposite weights, so the
    // zero only appears after the per-step merge. Nothing downstream
    // of the first projection may observe it.
    let before: Vec<Relation<i64>> = engines.iter().map(|e| e.result()).collect();
    apply(
        &mut engines,
        &mut db,
        0,
        (0..40)
            .flat_map(|b| {
                // A=1 is the hot key: both rows join all 1500 S-tuples,
                // producing opposite-weight products that must cancel
                // in the per-step merge.
                [
                    (vec![1, 10_000 + 2 * b], 1),
                    (vec![1, 10_000 + 2 * b + 1], -1),
                ]
            })
            .collect(),
    );
    for (i, e) in engines.iter().enumerate() {
        // R's leaf store legitimately changed; the *result* must not
        // (the B column is marginalized with COUNT lifting, so +1/−1
        // pairs at the same A cancel at the first projection).
        assert_eq!(
            e.result(),
            before[i],
            "engine {i}: projection-cancelled batch leaked"
        );
    }
    check(&engines, &db, "projection-cancelling batch");

    // Delete everything ever inserted: all views drain to empty.
    for rel in 0..3 {
        let all: Vec<(Vec<i64>, i64)> = db[rel].iter().map(|(row, &m)| (row.clone(), -m)).collect();
        apply(&mut engines, &mut db, rel, all);
    }
    for (i, e) in engines.iter().enumerate() {
        assert!(e.result().is_empty(), "engine {i}");
        assert_eq!(e.total_entries(), 0, "engine {i}");
    }
}
