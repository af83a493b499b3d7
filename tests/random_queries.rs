//! Schema-level property test: for *randomly generated queries*
//! (random relation schemas over a small variable pool, random free
//! variables) under random update streams, the full F-IVM pipeline —
//! auto-generated variable order → view tree → µ → incremental engine —
//! agrees with a naive oracle computed directly from the relational
//! algebra (join everything, then marginalize), independently of any
//! view-tree machinery. A second property checks static evaluation
//! view by view: every inner view `eval_all` streams out equals the
//! listing fold (join the children, marginalize, reorder) of its
//! children, over `i64` and bit for bit over `f64`. A third checks
//! engines whose relations are only partly updatable, preloaded
//! through `load`, against the naive oracle.

use fivm::prelude::*;
use proptest::prelude::*;

/// A randomly shaped query: 2–4 relations, each over 2–3 of 5
/// variables, connected by construction (relation i shares a variable
/// with relation i−1).
fn query_strategy() -> impl Strategy<Value = QueryDef> {
    let names = ["A", "B", "C", "D", "E"];
    proptest::collection::vec(
        proptest::sample::subsequence(vec![0usize, 1, 2, 3, 4], 2..=3),
        2..=4,
    )
    .prop_filter_map("connected query", move |schemas| {
        // force connectivity: each relation must share a var with
        // the union of the previous ones
        let mut seen: Vec<usize> = schemas[0].clone();
        for s in &schemas[1..] {
            if !s.iter().any(|v| seen.contains(v)) {
                return None;
            }
            seen.extend(s.iter().copied());
        }
        let rels: Vec<(String, Vec<&str>)> = schemas
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    format!("R{i}"),
                    s.iter().map(|&v| names[v]).collect::<Vec<_>>(),
                )
            })
            .collect();
        let rel_refs: Vec<(&str, &[&str])> = rels
            .iter()
            .map(|(n, a)| (n.as_str(), a.as_slice()))
            .collect();
        // free vars: the first variable of the first relation
        let free = vec![rels[0].1[0]];
        Some(QueryDef::new(&rel_refs, &free))
    })
}

/// Naive oracle: join all relations, marginalize every bound variable.
fn naive_oracle(q: &QueryDef, db: &Database<i64>, lifts: &LiftingMap<i64>) -> Relation<i64> {
    let mut acc = db.relations[0].clone();
    for r in &db.relations[1..] {
        acc = acc.join(r);
    }
    let margins: Vec<(u32, Lifting<i64>)> = acc
        .schema()
        .iter()
        .filter(|v| !q.free.contains(**v))
        .map(|&v| (v, lifts.get(v)))
        .collect();
    let out = acc.marginalize_many(&margins);
    if out.schema().len() == q.free.len() && *out.schema() != q.free {
        out.reorder(&q.free)
    } else {
        out
    }
}

/// The listing plan the streaming join-aggregate replaces: join the
/// children left to right, marginalize, reorder to the view's keys.
fn listing_fold<R: Semiring>(
    children: &[&Relation<R>],
    margins: &[(VarId, Lifting<R>)],
    keys: &Schema,
) -> Relation<R> {
    let mut acc = children[0].clone();
    for c in &children[1..] {
        acc = acc.join(c);
    }
    acc.marginalize_many(margins).reorder(keys)
}

/// A variable order for `q`: `auto`, or a chain of its variables with
/// the free one on top and the rest shuffled by `seed`.
fn random_order(q: &QueryDef, seed: u64) -> VariableOrder {
    if seed.is_multiple_of(4) {
        return VariableOrder::auto(q);
    }
    let mut bound: Vec<VarId> = q
        .all_vars()
        .iter()
        .copied()
        .filter(|v| !q.free.contains(*v))
        .collect();
    let mut state = seed;
    for i in (1..bound.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        bound.swap(i, (state >> 33) as usize % (i + 1));
    }
    let mut vars: Vec<VarId> = q.free.iter().copied().collect();
    vars.extend(bound);
    VariableOrder::chain(&vars)
}

/// Evaluate every view of `tree` over `db` and check each inner view
/// against the listing fold of its children's evaluated views.
fn check_views_against_fold<R: Semiring + std::fmt::Debug>(
    tree: &ViewTree,
    db: &Database<R>,
    lifts: &LiftingMap<R>,
) -> Result<(), TestCaseError> {
    let views = fivm::engine::eval::eval_all(tree, db, lifts);
    for (id, n) in tree.nodes.iter().enumerate() {
        if let NodeKind::Inner { margin, .. } = &n.kind {
            let children: Vec<&Relation<R>> = n.children.iter().map(|&c| &views[c]).collect();
            let margins: Vec<(VarId, Lifting<R>)> =
                margin.iter().map(|&v| (v, lifts.get(v))).collect();
            prop_assert_eq!(
                &views[id],
                &listing_fold(&children, &margins, &n.keys),
                "view {}",
                id
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Static evaluation streams every view equal to the listing fold,
    /// over random queries, variable orders, indicator projections,
    /// cancelling `i64` payloads and `f64` payloads (exact `==`).
    #[test]
    fn eval_all_matches_listing_fold(
        q in query_strategy(),
        seed in 0u64..1_000_000,
        indicators in 0u8..2,
        tuples in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0i64..3, 3), -2i64..3),
            1..40,
        ),
    ) {
        let vo = random_order(&q, seed);
        prop_assert!(vo.validate(&q).is_ok());
        let mut tree = ViewTree::build(&q, &vo);
        if indicators == 1 {
            add_indicators(&mut tree, &q);
        }
        let mut ints: Database<i64> = Database::empty(&q);
        let mut floats: Database<f64> = Database::empty(&q);
        for (rel_raw, vals, mult) in &tuples {
            let rel = rel_raw % q.relations.len();
            let arity = q.relations[rel].schema.len();
            let t = Tuple::new(vals.iter().take(arity).map(|&v| Value::Int(v)).collect());
            ints.relations[rel].insert(t.clone(), *mult);
            floats.relations[rel].insert(t, *mult as f64 * 0.1 + 1e15 * (*mult % 2) as f64);
        }
        // A non-trivial lifting on one bound variable, `SUM(x)`-style.
        let lifted = q.all_vars().iter().copied().find(|v| !q.free.contains(*v));
        let mut int_lifts = LiftingMap::<i64>::new();
        let mut float_lifts = LiftingMap::<f64>::new();
        if let Some(v) = lifted {
            int_lifts.set(v, Lifting::from_fn(|x: &Value| x.as_int().unwrap() - 1));
            float_lifts.set(v, Lifting::from_fn(|x: &Value| 0.3 * x.as_f64().unwrap() + 0.1));
        }
        check_views_against_fold(&tree, &ints, &int_lifts)?;
        check_views_against_fold(&tree, &floats, &float_lifts)?;
    }

    #[test]
    fn random_queries_all_strategies_agree(
        q in query_strategy(),
        raw_updates in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0i64..3, 3), prop_oneof![3 => Just(1i64), 1 => Just(-1)]),
            1..20,
        ),
    ) {
        let vo = VariableOrder::auto(&q);
        prop_assert!(vo.validate(&q).is_ok());
        let tree = ViewTree::build(&q, &vo);
        let all: Vec<usize> = (0..q.relations.len()).collect();
        let lifts = LiftingMap::<i64>::new();
        let mut engine: IvmEngine<i64> =
            IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
        let mut recursive = RecursiveIvm::new(q.clone(), &all, lifts.clone());
        let mut first_order = FirstOrderIvm::new(q.clone(), tree, lifts.clone());
        let mut db = Database::empty(&q);

        for (rel_raw, vals, mult) in &raw_updates {
            let rel = rel_raw % q.relations.len();
            let arity = q.relations[rel].schema.len();
            let t = Tuple::new(vals.iter().take(arity).map(|&v| Value::Int(v)).collect());
            let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(t, *mult)]);
            engine.apply(rel, &Delta::Flat(d.clone()));
            recursive.apply(rel, &Delta::Flat(d.clone()));
            first_order.apply(rel, &Delta::Flat(d.clone()));
            db.relations[rel].union_in_place(&d);

            let oracle = naive_oracle(&q, &db, &lifts);
            let canon = |r: &Relation<i64>| {
                let mut v = r.sorted();
                v.sort();
                v
            };
            prop_assert_eq!(canon(&engine.result()), canon(&oracle), "F-IVM vs naive");
            prop_assert_eq!(canon(&recursive.result()), canon(&oracle), "DBT vs naive");
            prop_assert_eq!(canon(first_order.result()), canon(&oracle), "1-IVM vs naive");
        }
    }

    /// The cost-based order search produces valid plans whose engines
    /// stay correct too (planner quality does not affect soundness).
    #[test]
    fn best_order_engines_agree(
        q in query_strategy(),
        raw_updates in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0i64..3, 3)),
            1..10,
        ),
    ) {
        prop_assume!(q.all_vars().len() <= 5);
        let (vo, _cost) = fivm::query::best_order(&q, &fivm::query::CostModel::new());
        prop_assert!(vo.validate(&q).is_ok());
        let tree = ViewTree::build(&q, &vo);
        let all: Vec<usize> = (0..q.relations.len()).collect();
        let lifts = LiftingMap::<i64>::new();
        let mut engine: IvmEngine<i64> = IvmEngine::new(q.clone(), tree, &all, lifts.clone());
        let mut db = Database::empty(&q);
        for (rel_raw, vals) in &raw_updates {
            let rel = rel_raw % q.relations.len();
            let arity = q.relations[rel].schema.len();
            let t = Tuple::new(vals.iter().take(arity).map(|&v| Value::Int(v)).collect());
            let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(t, 1i64)]);
            engine.apply(rel, &Delta::Flat(d.clone()));
            db.relations[rel].union_in_place(&d);
        }
        let oracle = naive_oracle(&q, &db, &lifts);
        let canon = |r: &Relation<i64>| {
            let mut v = r.sorted();
            v.sort();
            v
        };
        prop_assert_eq!(canon(&engine.result()), canon(&oracle));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Static relations (the paper's "ONE" runs): with a random
    /// non-empty subset of the relations updatable, µ stores fewer
    /// views and `load` fills the static part. After a random preload
    /// through `load`, ±1 updates to the updatable relations must match
    /// the naive oracle after every step, over random variable orders,
    /// indicator projections, a `SUM`-style lifting, and the compiled
    /// paths on or off.
    #[test]
    fn static_relations_match_oracle(
        q in query_strategy(),
        seed in 0u64..1_000_000,
        indicators in 0u8..2,
        fast in 0u8..2,
        mask in 1u64..16,
        preload in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0i64..3, 3), 1i64..3),
            0..30,
        ),
        updates in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0i64..3, 3), prop_oneof![3 => Just(1i64), 1 => Just(-1)]),
            1..16,
        ),
    ) {
        let n = q.relations.len();
        let mut updatable: Vec<usize> = (0..n).filter(|r| mask >> r & 1 == 1).collect();
        if updatable.is_empty() {
            updatable.push(mask as usize % n);
        }
        let vo = random_order(&q, seed);
        prop_assert!(vo.validate(&q).is_ok());
        let mut tree = ViewTree::build(&q, &vo);
        if indicators == 1 {
            add_indicators(&mut tree, &q);
        }
        let mut lifts = LiftingMap::<i64>::new();
        if let Some(v) = q.all_vars().iter().copied().find(|v| !q.free.contains(*v)) {
            lifts.set(v, Lifting::from_fn(|x: &Value| x.as_int().unwrap() - 1));
        }
        let mut engine: IvmEngine<i64> =
            IvmEngine::new(q.clone(), tree, &updatable, lifts.clone());
        engine.set_fast_path(fast == 1);
        let tuple_of = |rel: usize, vals: &[i64]| {
            let arity = q.relations[rel].schema.len();
            Tuple::new(vals.iter().take(arity).map(|&v| Value::Int(v)).collect())
        };
        let canon = |r: &Relation<i64>| {
            let mut v = r.sorted();
            v.sort();
            v
        };
        let mut db = Database::empty(&q);
        for (rel_raw, vals, m) in &preload {
            let rel = rel_raw % n;
            db.relations[rel].insert(tuple_of(rel, vals), *m);
        }
        engine.load(&db);
        prop_assert_eq!(canon(&engine.result()), canon(&naive_oracle(&q, &db, &lifts)), "after load");
        for (step, (rel_raw, vals, m)) in updates.iter().enumerate() {
            let rel = updatable[rel_raw % updatable.len()];
            let d = Relation::from_pairs(q.relations[rel].schema.clone(), [(tuple_of(rel, vals), *m)]);
            engine.apply(rel, &Delta::Flat(d.clone()));
            db.relations[rel].union_in_place(&d);
            prop_assert_eq!(
                canon(&engine.result()),
                canon(&naive_oracle(&q, &db, &lifts)),
                "update {} to relation {}",
                step,
                rel
            );
        }
    }
}
