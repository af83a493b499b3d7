//! Factored-delta equivalence: a factored update applied through the
//! **compiled factored path** must equal (a) its multiplied-out flat
//! form through the compiled flat path, (b) the same factored delta
//! through the general factor-propagation path
//! ([`IvmEngine::set_fast_path`]`(false)`), and (c) the flat form
//! through the parallel fan-out — on **every materialized view**, after
//! every update of randomized rank-1/rank-r schedules with mixed signs
//! (deletes), random factor groupings/orders, and symbol-keyed
//! variables. Exact `i64` ring, so agreement is bitwise.

use fivm::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn star_setup() -> (QueryDef, ViewTree, LiftingMap<i64>) {
    let q = QueryDef::example_rst(&["A"]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut lifts = LiftingMap::new();
    lifts.set(
        q.catalog.lookup("B").unwrap(),
        fivm::core::lifting::int_identity(),
    );
    (q, tree, lifts)
}

fn triangle_setup() -> (QueryDef, ViewTree, LiftingMap<i64>) {
    let q = QueryDef::triangle();
    let vo = VariableOrder::parse("A - B - C", &q.catalog);
    let mut tree = ViewTree::build(&q, &vo);
    add_indicators(&mut tree, &q);
    (q, tree, LiftingMap::new())
}

/// A random factored delta for `rel`: the relation's variables are
/// randomly partitioned into factor groups (random group count, random
/// assignment, random variable order inside each group), and each
/// factor gets 1–4 tuples over a small shared domain with mixed-sign
/// payloads. Variables in `sym_vars` draw interned strings.
fn random_factored(q: &QueryDef, rel: usize, rng: &mut SmallRng, sym_vars: &[VarId]) -> Delta<i64> {
    let vars: Vec<VarId> = q.relations[rel].schema.iter().copied().collect();
    // Random ordered partition: assign each variable to one of
    // `groups` buckets, drop empty buckets, shuffle within buckets by
    // insertion order of a random permutation.
    let domain: Vec<Value> = (0..16)
        .map(|c| q.catalog.sym(&format!("f{c:02}")))
        .collect();
    loop {
        let groups = rng.gen_range(1..=vars.len());
        let mut buckets: Vec<Vec<VarId>> = vec![Vec::new(); groups];
        let mut order: Vec<VarId> = vars.clone();
        // Fisher–Yates so factor-internal column order varies too.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &v in &order {
            buckets[rng.gen_range(0..groups)].push(v);
        }
        buckets.retain(|b| !b.is_empty());
        if buckets.is_empty() {
            continue;
        }
        let factors: Vec<Relation<i64>> = buckets
            .iter()
            .map(|b| {
                let schema = Schema::new(b.clone());
                let n = rng.gen_range(1..=4);
                let pairs: Vec<(Tuple, i64)> = (0..n)
                    .map(|_| {
                        let vals: Vec<Value> = b
                            .iter()
                            .map(|v| {
                                let code = rng.gen_range(0..16);
                                if sym_vars.contains(v) {
                                    domain[code as usize].clone()
                                } else {
                                    Value::Int(code)
                                }
                            })
                            .collect();
                        let m = *[1i64, 1, 2, -1].get(rng.gen_range(0..4)).unwrap();
                        (Tuple::new(vals), m)
                    })
                    .collect();
                Relation::from_pairs(schema, pairs)
            })
            .collect();
        return Delta::factored(factors);
    }
}

/// The matrix chain `A1(X1,X2) A2(X2,X3) A3(X3,X4)` under the §6.1
/// order, free variables on top, every matrix updatable.
fn chain_setup() -> (QueryDef, ViewTree, LiftingMap<i64>) {
    let q = QueryDef::new(
        &[
            ("A1", &["X1", "X2"]),
            ("A2", &["X2", "X3"]),
            ("A3", &["X3", "X4"]),
        ],
        &["X1", "X4"],
    );
    let vo = VariableOrder::parse("X1 - X4 - X3 - X2", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    (q, tree, LiftingMap::new())
}

/// A dense rank-1 delta for `rel`: one vector factor per variable,
/// each spanning the whole key domain `0..16` with mixed-sign
/// payloads. Its outer product covers every key a store over the
/// relation's variables can hold, so those store merges scan the view;
/// small payloads make entries cross zero and reappear.
fn dense_factored(q: &QueryDef, rel: usize, rng: &mut SmallRng) -> Delta<i64> {
    let factors = q.relations[rel]
        .schema
        .iter()
        .map(|&v| {
            let pairs = (0..16).map(|x| {
                let m = [1i64, -1, 2, -2][rng.gen_range(0..4)];
                (Tuple::single(Value::Int(x)), m)
            });
            Relation::from_pairs(Schema::new(vec![v]), pairs)
        })
        .collect();
    Delta::factored(factors)
}

/// Resident working set so sibling joins have partners.
fn warm(q: &QueryDef, engines: &mut [IvmEngine<i64>], sym_vars: &[VarId], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let domain: Vec<Value> = (0..16)
        .map(|c| q.catalog.sym(&format!("f{c:02}")))
        .collect();
    for rel in 0..q.relations.len() {
        let schema: Vec<VarId> = q.relations[rel].schema.iter().copied().collect();
        let pairs: Vec<(Tuple, i64)> = (0..48)
            .map(|_| {
                let vals: Vec<Value> = schema
                    .iter()
                    .map(|v| {
                        let code = rng.gen_range(0..16);
                        if sym_vars.contains(v) {
                            domain[code as usize].clone()
                        } else {
                            Value::Int(code)
                        }
                    })
                    .collect();
                (Tuple::new(vals), 1i64 + (rng.gen_range(0..2)))
            })
            .collect();
        let d = Relation::from_pairs(q.relations[rel].schema.clone(), pairs);
        for e in engines.iter_mut() {
            e.apply(rel, &Delta::Flat(d.clone()));
        }
    }
}

fn assert_all_views_agree(engines: &[IvmEngine<i64>], context: &str) -> Result<(), TestCaseError> {
    let reference = &engines[0];
    let nodes = reference.tree().nodes.len();
    for (i, e) in engines.iter().enumerate().skip(1) {
        for node in 0..nodes {
            prop_assert_eq!(
                &reference.view_relation(node),
                &e.view_relation(node),
                "{}: engine {} diverged from engine 0 at node {}",
                context,
                i,
                node
            );
        }
    }
    Ok(())
}

/// Run a randomized rank-1/rank-r schedule through four engines —
/// factored-compiled, flat-compiled, factored-general, flat-parallel —
/// asserting full-state agreement after every update.
fn check_schedule(
    q: &QueryDef,
    tree: &ViewTree,
    lifts: &LiftingMap<i64>,
    sym_vars: &[VarId],
    seed: u64,
    updates: usize,
) -> Result<(), TestCaseError> {
    check_schedule_of(q, tree, lifts, sym_vars, seed, updates, |rel, rng| {
        random_factored(q, rel, rng, sym_vars)
    })
}

/// [`check_schedule`] with deltas drawn by `delta`.
fn check_schedule_of(
    q: &QueryDef,
    tree: &ViewTree,
    lifts: &LiftingMap<i64>,
    sym_vars: &[VarId],
    seed: u64,
    updates: usize,
    mut delta: impl FnMut(usize, &mut SmallRng) -> Delta<i64>,
) -> Result<(), TestCaseError> {
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engines: Vec<IvmEngine<i64>> = (0..4)
        .map(|_| IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone()))
        .collect();
    engines[2].set_fast_path(false);
    engines[3].set_workers(4);
    engines[3].set_parallel_threshold(16);
    warm(q, &mut engines, sym_vars, seed ^ 0xBA5E);
    let mut rng = SmallRng::seed_from_u64(seed);
    for step in 0..updates {
        let rel = rng.gen_range(0..q.relations.len());
        // rank-r: a burst of 1–3 factored deltas to the same relation
        let r = rng.gen_range(1..=3);
        for _ in 0..r {
            let d = delta(rel, &mut rng);
            let flat = Delta::Flat(d.flatten().reorder(&q.relations[rel].schema));
            engines[0].apply(rel, &d);
            engines[1].apply(rel, &flat);
            engines[2].apply(rel, &d);
            engines[3].apply(rel, &flat);
        }
        assert_all_views_agree(&engines, &format!("seed={seed} step={step} rel={rel}"))?;
    }
    Ok(())
}

/// Deterministic schedules over the star query (group-by + SUM lifting
/// on B), integer keys.
#[test]
fn star_factored_schedules_are_equivalent() {
    let (q, tree, lifts) = star_setup();
    for seed in 0..6u64 {
        check_schedule(&q, &tree, &lifts, &[], seed * 7919 + 1, 8)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Triangle with indicator projections: the factored path's leaf-store
/// flatten must feed support transitions identically.
#[test]
fn triangle_factored_schedules_are_equivalent() {
    let (q, tree, lifts) = triangle_setup();
    for seed in 0..6u64 {
        check_schedule(&q, &tree, &lifts, &[], seed * 104729 + 3, 8)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Symbol-keyed variables: join keys are interned strings.
#[test]
fn symbol_keyed_factored_schedules_are_equivalent() {
    let (q, tree, lifts) = star_setup();
    let sym_vars: Vec<VarId> = ["A", "C"]
        .iter()
        .map(|n| q.catalog.lookup(n).unwrap())
        .collect();
    for seed in 0..4u64 {
        check_schedule(&q, &tree, &lifts, &sym_vars, seed * 31 + 11, 8)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Dense rank-1 schedules, whose outer products cover the stores they
/// merge into (the scan direction of the store merge), over the matrix
/// chain and the triangle with indicators.
#[test]
fn dense_rank1_schedules_are_equivalent() {
    for (q, tree, lifts) in [chain_setup(), triangle_setup()] {
        for seed in 0..3u64 {
            check_schedule_of(&q, &tree, &lifts, &[], seed * 65537 + 5, 6, |rel, rng| {
                dense_factored(&q, rel, rng)
            })
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// A same-shape stream must compile exactly one plan per shape seen
/// (no cache growth, no recompilation in the steady state).
#[test]
fn plan_cache_does_not_grow_on_repeated_shapes() {
    let (q, tree, lifts) = star_setup();
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let engine = IvmEngine::new(q.clone(), tree, &all, lifts);
    let mut rng = SmallRng::seed_from_u64(42);
    let mut engines = [engine];
    warm(&q, &mut engines, &[], 7);
    let [mut engine] = engines;
    let before = engine.factored_shapes_cached(1);
    // The precompiled rank-1 shape: one unary factor per variable of
    // S(A, C, E), fixed order — never grows the cache.
    let (a, c, e) = (
        q.catalog.lookup("A").unwrap(),
        q.catalog.lookup("C").unwrap(),
        q.catalog.lookup("E").unwrap(),
    );
    for _ in 0..32 {
        let d = Delta::factored(vec![
            Relation::from_pairs(
                Schema::new(vec![a]),
                [(Tuple::single(Value::Int(rng.gen_range(0..16))), 1i64)],
            ),
            Relation::from_pairs(
                Schema::new(vec![c]),
                [(Tuple::single(Value::Int(rng.gen_range(0..16))), 1i64)],
            ),
            Relation::from_pairs(
                Schema::new(vec![e]),
                [(Tuple::single(Value::Int(rng.gen_range(0..16))), -1i64)],
            ),
        ]);
        engine.apply(1, &d);
    }
    assert_eq!(engine.factored_shapes_cached(1), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random seeds over the star query.
    #[test]
    fn random_star_schedules(seed in 0u64..u64::MAX) {
        let (q, tree, lifts) = star_setup();
        check_schedule(&q, &tree, &lifts, &[], seed, 6)?;
    }

    /// Random seeds over the triangle with indicators.
    #[test]
    fn random_triangle_schedules(seed in 0u64..u64::MAX) {
        let (q, tree, lifts) = triangle_setup();
        check_schedule(&q, &tree, &lifts, &[], seed, 6)?;
    }
}
