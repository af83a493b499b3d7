//! Stress tests: long mixed insert/delete streams with heavy key churn
//! (the same keys repeatedly inserted and deleted), batch updates that
//! mix signs within one delta relation, and interleaved factored
//! updates — exercising index maintenance, zero-payload erasure and the
//! return-to-empty invariant at a scale the unit tests do not reach.

use fivm::prelude::*;
use fivm::tuple;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn setup() -> (QueryDef, ViewTree, LiftingMap<i64>) {
    let q = QueryDef::example_rst(&["A"]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    (q, tree, LiftingMap::new())
}

#[test]
fn thousand_update_churn_stays_consistent() {
    let (q, tree, lifts) = setup();
    let mut engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
    let mut db = Database::empty(&q);
    let mut rng = SmallRng::seed_from_u64(2024);
    // small key space → constant churn on the same keys
    for step in 0..1000 {
        let rel = rng.gen_range(0..3usize);
        let arity = q.relations[rel].schema.len();
        let vals: Vec<Value> = (0..arity)
            .map(|_| Value::Int(rng.gen_range(0..3)))
            .collect();
        let t = Tuple::new(vals);
        // deletes only of existing tuples, otherwise insert
        let existing = db.relations[rel].payload(&t);
        let mult = if existing > 0 && rng.gen_bool(0.45) {
            -1
        } else {
            1
        };
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(t, mult)]);
        engine.apply(rel, &Delta::Flat(d.clone()));
        db.relations[rel].union_in_place(&d);
        if step % 100 == 99 {
            assert_eq!(
                engine.result(),
                eval_tree(&tree, &db, &lifts),
                "diverged at step {step}"
            );
        }
    }
    // tear everything down
    for ri in 0..3 {
        let neg = db.relations[ri].neg();
        if !neg.is_empty() {
            engine.apply(ri, &Delta::Flat(neg));
        }
    }
    assert!(engine.result().is_empty());
    assert_eq!(engine.total_entries(), 0, "all views empty after teardown");
}

#[test]
fn mixed_sign_batches() {
    let (q, tree, lifts) = setup();
    let mut engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
    let mut db = Database::empty(&q);
    let mut rng = SmallRng::seed_from_u64(7);
    for round in 0..50 {
        let rel = round % 3;
        let schema = q.relations[rel].schema.clone();
        // one batch mixing inserts, deletes and net-zero keys
        let mut batch = Relation::new(schema.clone());
        for _ in 0..20 {
            let arity = schema.len();
            let vals: Vec<Value> = (0..arity)
                .map(|_| Value::Int(rng.gen_range(0..4)))
                .collect();
            let m: i64 = *[1, 1, 2, -1].get(rng.gen_range(0..4)).unwrap();
            batch.insert(Tuple::new(vals), m);
        }
        // clamp so the base stays non-negative
        let clamped = Relation::from_pairs(
            schema,
            batch.iter().map(|(t, &m)| {
                let cur: i64 = db.relations[rel].payload(t);
                (t.clone(), m.max(-cur))
            }),
        );
        engine.apply(rel, &Delta::Flat(clamped.clone()));
        db.relations[rel].union_in_place(&clamped);
        assert_eq!(
            engine.result(),
            eval_tree(&tree, &db, &lifts),
            "round {round}"
        );
    }
}

#[test]
fn factored_updates_interleaved_with_flat() {
    let (q, tree, lifts) = setup();
    let mut engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
    let mut db = Database::empty(&q);
    let mut rng = SmallRng::seed_from_u64(99);
    let a = q.catalog.lookup("A").unwrap();
    let c = q.catalog.lookup("C").unwrap();
    let e = q.catalog.lookup("E").unwrap();
    for round in 0..40 {
        if round % 4 == 3 {
            // factored rank-1 update to S: fa[A] ⊗ fce[C,E]
            let fa = Relation::from_pairs(
                Schema::new(vec![a]),
                (0..2).map(|_| (Tuple::single(Value::Int(rng.gen_range(0..3))), 1i64)),
            );
            let fce = Relation::from_pairs(
                Schema::new(vec![c, e]),
                (0..2).map(|_| {
                    (
                        Tuple::pair(rng.gen_range(0..3i64), rng.gen_range(0..3i64)),
                        1i64,
                    )
                }),
            );
            if fa.is_empty() || fce.is_empty() {
                continue;
            }
            let factored = Delta::factored(vec![fa, fce]);
            db.relations[1].union_in_place(&factored.flatten().reorder(&q.relations[1].schema));
            engine.apply(1, &factored);
        } else {
            let rel = round % 3;
            let arity = q.relations[rel].schema.len();
            let vals: Vec<Value> = (0..arity)
                .map(|_| Value::Int(rng.gen_range(0..3)))
                .collect();
            let d =
                Relation::from_pairs(q.relations[rel].schema.clone(), [(Tuple::new(vals), 1i64)]);
            engine.apply(rel, &Delta::Flat(d.clone()));
            db.relations[rel].union_in_place(&d);
        }
        assert_eq!(
            engine.result(),
            eval_tree(&tree, &db, &lifts),
            "round {round}"
        );
    }
}

/// Adversarial secondary-index churn: large batches of ever-fresh join
/// keys inserted and deleted, round after round. Each round leaves
/// emptied index buckets behind; without the high-water-mark sweep the
/// retained-bucket footprint grows linearly with the number of rounds
/// (~`rounds × batch` buckets). The sweep must keep it proportional to
/// the per-round live peak — and the engine must stay correct while
/// sweeping.
#[test]
fn adversarial_key_churn_keeps_index_footprint_bounded() {
    let (q, tree, lifts) = setup();
    let mut engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
    let mut db = Database::empty(&q);
    let apply = |engine: &mut IvmEngine<i64>,
                 db: &mut Database<i64>,
                 rel: usize,
                 pairs: Vec<(Tuple, i64)>| {
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), pairs);
        engine.apply(rel, &Delta::Flat(d.clone()));
        db.relations[rel].union_in_place(&d);
    };

    // Resident base so propagation does real join work.
    apply(
        &mut engine,
        &mut db,
        0,
        (0..8).map(|i| (tuple![i, i], 1i64)).collect(),
    );
    apply(
        &mut engine,
        &mut db,
        2,
        (0..8).map(|i| (tuple![i, i], 1i64)).collect(),
    );

    let rounds = 40usize;
    let batch = 256usize;
    for round in 0..rounds {
        // Fresh C values every round: S-tuples whose [A, C] view keys
        // (and [C] index buckets) have never been seen before.
        let fresh: Vec<(Tuple, i64)> = (0..batch)
            .map(|i| {
                let c = (round * batch + i) as i64 + 1_000;
                (tuple![(i % 8) as i64, c, c], 1i64)
            })
            .collect();
        let negated: Vec<(Tuple, i64)> = fresh.iter().map(|(t, m)| (t.clone(), -m)).collect();
        apply(&mut engine, &mut db, 1, fresh);
        apply(&mut engine, &mut db, 1, negated);
        if round % 10 == 9 {
            assert_eq!(
                engine.result(),
                eval_tree(&tree, &db, &lifts),
                "diverged at round {round}"
            );
        }
    }

    // Unswept, the footprint would be ~rounds × batch ≈ 10 240 retained
    // buckets; the high-water budget is 2 × peak-live + a small floor.
    let footprint = engine.index_footprint();
    assert!(
        footprint <= 2 * (batch + 16) + 64,
        "retained index buckets not swept: footprint {footprint} after \
         {rounds} rounds of {batch}-key churn"
    );

    // Sweeping kept the engine correct: fresh updates still probe fine.
    apply(&mut engine, &mut db, 1, vec![(tuple![1, 1, 1], 1i64)]);
    assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
}

/// Probe-chain health across repeated high-water sweeps: each sweep
/// round runs `TupleMap::retain` under the hood, and before the
/// compacting-rehash fix its tombstones accumulated until the next
/// insert-triggered rehash — probe chains degenerated toward
/// O(capacity) between rehashes. Bounded `max_probe_run` across many
/// sweep rounds is the regression guard.
#[test]
fn sweep_rounds_keep_probe_runs_bounded() {
    let (q, tree, lifts) = setup();
    let mut engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
    let mut db = Database::empty(&q);
    let apply = |engine: &mut IvmEngine<i64>,
                 db: &mut Database<i64>,
                 rel: usize,
                 pairs: Vec<(Tuple, i64)>| {
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), pairs);
        engine.apply(rel, &Delta::Flat(d.clone()));
        db.relations[rel].union_in_place(&d);
    };
    apply(
        &mut engine,
        &mut db,
        0,
        (0..8).map(|i| (tuple![i, i], 1i64)).collect(),
    );
    apply(
        &mut engine,
        &mut db,
        2,
        (0..8).map(|i| (tuple![i, i], 1i64)).collect(),
    );

    let batch = 256usize;
    for round in 0..40usize {
        let fresh: Vec<(Tuple, i64)> = (0..batch)
            .map(|i| {
                let c = (round * batch + i) as i64 + 1_000;
                (tuple![(i % 8) as i64, c, c], 1i64)
            })
            .collect();
        let negated: Vec<(Tuple, i64)> = fresh.iter().map(|(t, m)| (t.clone(), -m)).collect();
        apply(&mut engine, &mut db, 1, fresh);
        apply(&mut engine, &mut db, 1, negated);
        // The churned tables hold ≤ ~600 live entries at ≤ 7/8 load;
        // healthy linear-probe runs there are short. Tombstone piles
        // left by un-compacted sweeps produced runs in the hundreds.
        let run = engine.max_probe_run();
        assert!(
            run <= 64,
            "round {round}: max probe run {run} degenerated (sweep left tombstones?)"
        );
    }
    assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
}

/// `load` on a dirty engine resets the index high-water sweep budgets
/// (PR 2's live-bucket counters) along with the indicator support
/// counts: after reloading a small database over an engine whose
/// previous life had a large bucket peak, fresh-key churn must be
/// swept against the *new* budget — and the engine must stay correct.
#[test]
fn load_then_churn_uses_fresh_sweep_budgets() {
    let (q, tree, lifts) = setup();
    let mut engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());

    // Inflate the secondary-index high-water marks: 4096 concurrently
    // live S-tuples with distinct join keys.
    let big: Vec<(Tuple, i64)> = (0..4096i64).map(|c| (tuple![c % 8, c, c], 1)).collect();
    let d = Relation::from_pairs(q.relations[1].schema.clone(), big);
    engine.apply(1, &Delta::Flat(d));
    assert!(engine.index_footprint() > 2048, "peak not reached");

    // Reload a tiny database.
    let mut db = Database::empty(&q);
    for i in 0..8i64 {
        db.relations[0].insert(tuple![i, i], 1);
        db.relations[1].insert(tuple![i, i, i], 1);
        db.relations[2].insert(tuple![i, i], 1);
    }
    engine.load(&db);
    assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));

    // Fresh-key churn after the reload: with stale (pre-load) budgets
    // of 2 × 4096, none of these emptied buckets would ever be swept.
    let batch = 64usize;
    for round in 0..40usize {
        let fresh: Vec<(Tuple, i64)> = (0..batch)
            .map(|i| {
                let c = (round * batch + i) as i64 + 100_000;
                (tuple![(i % 8) as i64, c, c], 1i64)
            })
            .collect();
        let negated: Vec<(Tuple, i64)> = fresh.iter().map(|(t, m)| (t.clone(), -m)).collect();
        let df = Relation::from_pairs(q.relations[1].schema.clone(), fresh);
        let dn = Relation::from_pairs(q.relations[1].schema.clone(), negated);
        engine.apply(1, &Delta::Flat(df.clone()));
        engine.apply(1, &Delta::Flat(dn.clone()));
        db.relations[1].union_in_place(&df);
        db.relations[1].union_in_place(&dn);
    }
    let footprint = engine.index_footprint();
    let budget = 2 * (8 + batch) + 64;
    assert!(
        footprint <= budget,
        "stale sweep budget survived load: footprint {footprint} > {budget}"
    );
    assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
}

/// Memory accounting tracks churn: bytes after full deletion return to
/// (near) the empty baseline — no leaked index entries.
#[test]
fn memory_returns_after_teardown() {
    let (q, tree, lifts) = setup();
    let mut engine: IvmEngine<i64> = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
    let baseline = engine.approx_bytes();
    let mut inserted: Vec<(usize, Tuple)> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..200 {
        let rel = rng.gen_range(0..3usize);
        let arity = q.relations[rel].schema.len();
        let vals: Vec<Value> = (0..arity)
            .map(|_| Value::Int(rng.gen_range(0..10)))
            .collect();
        let t = Tuple::new(vals);
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(t.clone(), 1i64)]);
        engine.apply(rel, &Delta::Flat(d));
        inserted.push((rel, t));
    }
    assert!(engine.approx_bytes() > baseline);
    for (rel, t) in inserted {
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(t, -1i64)]);
        engine.apply(rel, &Delta::Flat(d));
    }
    assert_eq!(engine.total_entries(), 0);
    assert_eq!(engine.approx_bytes(), baseline);
}

/// The cofactor ring over a check-size Retailer instance: insert every
/// tuple, then delete them all in another order. The features are
/// integers, so every float operation is exact and each payload cancels
/// to exactly zero — the `is_zero`-driven erasure must leave no entry,
/// no byte and no result behind.
#[test]
fn cofactor_teardown_returns_to_empty() {
    let r = fivm::data::retailer::generate(&fivm::data::RetailerConfig {
        inventory_rows: 1_500,
        locations: 8,
        dates: 12,
        items: 40,
        zips: 5,
        seed: 11,
    });
    let q = &r.query;
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engine: IvmEngine<Cofactor> = IvmEngine::new(
        q.clone(),
        ViewTree::build(q, &r.order),
        &all,
        CofactorSpec::over_all_vars(q).liftings(),
    );
    let delta = |rel: usize, tuples: &[Tuple], p: &Cofactor| {
        let pairs = tuples.iter().map(|t| (t.clone(), p.clone()));
        Delta::Flat(Relation::from_pairs(q.relations[rel].schema.clone(), pairs))
    };
    for b in r.stream(100) {
        engine.apply(b.relation, &delta(b.relation, &b.tuples, &Cofactor::one()));
    }
    assert!(!engine.result().is_empty());
    // Relations last-first, each one's tuples last-first, other batches.
    for rel in all.into_iter().rev() {
        let reversed: Vec<Tuple> = r.tuples[rel].iter().rev().cloned().collect();
        for chunk in reversed.chunks(37) {
            engine.apply(rel, &delta(rel, chunk, &Cofactor::one().neg()));
        }
    }
    assert!(engine.result().is_empty());
    assert_eq!(engine.total_entries(), 0, "all views empty after teardown");
    assert_eq!(engine.approx_bytes(), 0);
}
