//! End-to-end checks of the paper’s worked examples through the public
//! facade: Example 1.1 (the running query), Example 2.1 (operators),
//! Example 4.1 (delta propagation), Example 4.2 (materialization),
//! Example 6.3 (cofactor payloads), Examples 6.5/6.6 (relational
//! payloads) and Figure 2 (view contents).

use fivm::prelude::*;
use fivm::tuple;

fn fig2_db<R: Ring>(q: &QueryDef, one: R) -> Database<R> {
    let mut db = Database::empty(q);
    for (a, b) in [(1, 1), (1, 2), (2, 3), (3, 4)] {
        db.relations[0].insert(tuple![a, b], one.clone());
    }
    for (a, c, e) in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 4)] {
        db.relations[1].insert(tuple![a, c, e], one.clone());
    }
    for (c, d) in [(1, 1), (2, 2), (2, 3), (3, 4)] {
        db.relations[2].insert(tuple![c, d], one.clone());
    }
    db
}

/// Figure 1 / Example 1.1: SUM(R.B * T.D * S.E) group by (A, C),
/// maintained under updates to S with the views of Figure 1.
#[test]
fn example_1_1_group_by_sum() {
    let q = QueryDef::example_rst(&["A", "C"]);
    let vo = VariableOrder::parse("A - { C - { B, D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut lifts: LiftingMap<i64> = LiftingMap::new();
    for v in ["B", "D", "E"] {
        lifts.set(
            q.catalog.lookup(v).unwrap(),
            Lifting::from_fn(|x: &Value| x.as_int().unwrap()),
        );
    }
    let mut engine: IvmEngine<i64> =
        IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
    let db = fig2_db(&q, 1i64);
    engine.load(&db);
    let expected = eval_tree(&tree, &db, &lifts);
    assert_eq!(engine.result(), expected);

    // δS with an insert and a delete, as in the paper’s trigger example
    let ds = Relation::from_pairs(
        q.relations[1].schema.clone(),
        [(tuple![1, 1, 9], 1i64), (tuple![1, 2, 3], -1)],
    );
    engine.apply(1, &Delta::Flat(ds.clone()));
    let mut db2 = db;
    db2.relations[1].union_in_place(&ds);
    assert_eq!(engine.result(), eval_tree(&tree, &db2, &lifts));
}

/// Example 4.1: the delta δT = {(c1,d1)→−1, (c2,d2)→3} adds 5 to the
/// count of Figure 2d.
#[test]
fn example_4_1_count_delta() {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut engine: IvmEngine<i64> = IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
    engine.load(&fig2_db(&q, 1i64));
    assert_eq!(engine.result().payload(&Tuple::unit()), 10); // Figure 2d
    let dt = Relation::from_pairs(
        q.relations[2].schema.clone(),
        [(tuple![1, 1], -1i64), (tuple![2, 2], 3)],
    );
    engine.apply(2, &Delta::Flat(dt));
    assert_eq!(engine.result().payload(&Tuple::unit()), 15); // +5 (paper)
}

/// Example 4.2: materialization under U = {T} stores exactly the root,
/// V@B_R and V@E_S.
#[test]
fn example_4_2_materialization() {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let ti = q.relation_index("T").unwrap();
    let plan = materialization(&tree, 1u64 << ti);
    assert_eq!(plan.stored_count(), 3);
    assert!(plan.store[tree.root]);
}

/// §7 view counts: the Retailer variable order yields 9 views (five
/// over input relations, three intermediate, one root) against 13 for
/// DBT-RING (the recursive scheme); on the Housing star join both
/// yield 7 (six relation views + root). The scalar-payload strategies
/// maintain one query per aggregate: 990 on Retailer, 406 on Housing.
#[test]
fn section_7_view_counts() {
    let retailer_q = fivm::data::retailer::query();
    let retailer_vo = fivm::data::retailer::variable_order(&retailer_q);
    let rtree = ViewTree::build(&retailer_q, &retailer_vo);
    assert_eq!(rtree.inner_count(), 9, "Retailer F-IVM views (§7)");

    let housing_q = fivm::data::housing::query();
    let housing_vo = fivm::data::housing::variable_order(&housing_q);
    let htree = ViewTree::build(&housing_q, &housing_vo);
    assert_eq!(htree.inner_count(), 7, "Housing F-IVM views (§7)");

    let all: Vec<usize> = (0..retailer_q.relations.len()).collect();
    let dbt_ring: RecursiveIvm<Cofactor> = RecursiveIvm::new(
        retailer_q.clone(),
        &all,
        CofactorSpec::over_all_vars(&retailer_q).liftings(),
    );
    assert_eq!(
        dbt_ring.stored_view_count(),
        13,
        "Retailer DBT-RING views (§7)"
    );
    let hall: Vec<usize> = (0..housing_q.relations.len()).collect();
    let housing_dbt_ring: RecursiveIvm<Cofactor> = RecursiveIvm::new(
        housing_q.clone(),
        &hall,
        CofactorSpec::over_all_vars(&housing_q).liftings(),
    );
    assert_eq!(
        housing_dbt_ring.stored_view_count(),
        7,
        "Housing DBT-RING views (§7)"
    );

    // DBT / 1-IVM with scalar payloads maintain one query per aggregate:
    // 990 aggregates for the 43-variable Retailer schema (§7).
    let spec = CofactorSpec::over_all_vars(&retailer_q);
    assert_eq!(spec.aggregate_count(), 990);
    let hspec = CofactorSpec::over_all_vars(&housing_q);
    assert_eq!(hspec.aggregate_count(), 406, "Housing: 406 aggregates (§7)");
}

/// Example 6.3: the cofactor payload of V@C_ST[a2] from the paper,
/// computed through the engine over the Figure 2 database.
#[test]
fn example_6_3_cofactor_via_engine() {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let spec = CofactorSpec::over_all_vars(&q);
    let mut engine: IvmEngine<Cofactor> =
        IvmEngine::new(q.clone(), tree, &[0, 1, 2], spec.liftings());
    engine.load(&fig2_db(&q, Cofactor::one()));
    let (c, s, qm) = spec.extract(&engine.result());
    // Naive check: enumerate the join (Figure 2e listing with E) and
    // accumulate statistics over (A,B,C,D,E).
    // rows in the spec’s variable index order (first appearance:
    // A, B, C, E, D)
    let order: Vec<usize> = ["A", "B", "C", "E", "D"]
        .iter()
        .map(|n| spec.index_of(q.catalog.lookup(n).unwrap()).unwrap() as usize)
        .collect();
    let rows: Vec<[f64; 5]> = {
        let mut rows = Vec::new();
        let r = [(1, 1), (1, 2), (2, 3), (3, 4)];
        let s_ = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 4)];
        let t = [(1, 1), (2, 2), (2, 3), (3, 4)];
        for &(ra, rb) in &r {
            for &(sa, sc, se) in &s_ {
                for &(tc, td) in &t {
                    if ra == sa && sc == tc {
                        let mut row = [0.0; 5];
                        row[order[0]] = ra as f64;
                        row[order[1]] = rb as f64;
                        row[order[2]] = sc as f64;
                        row[order[3]] = se as f64;
                        row[order[4]] = td as f64;
                        rows.push(row);
                    }
                }
            }
        }
        rows
    };
    assert_eq!(c, rows.len() as i64);
    let m = 5;
    for i in 0..m {
        let expect: f64 = rows.iter().map(|r| r[i]).sum();
        assert!((s[i] - expect).abs() < 1e-9, "s[{i}]");
        for j in 0..m {
            let expect: f64 = rows.iter().map(|r| r[i] * r[j]).sum();
            assert!((qm[i * m + j] - expect).abs() < 1e-9, "Q[{i},{j}]");
        }
    }
}

/// Matrix chain (Example 6.1): the generic engine with a factored
/// rank-1 update maintains the product; the delta stays factored until
/// the root.
#[test]
fn example_6_1_rank1_update() {
    use fivm::data::matrices;
    let n = 16;
    let q = matrices::chain_query(3);
    let vo = VariableOrder::parse("X1 - X4 - X3 - X2", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut engine: IvmEngine<f64> =
        IvmEngine::new(q.clone(), tree.clone(), &[1], LiftingMap::new());
    let chain = matrices::random_chain(3, n, 5);
    let mut db = Database::<f64>::empty(&q);
    for (i, d) in chain.iter().enumerate() {
        db.relations[i] = matrices::matrix_relation(d, n, q.relations[i].schema.clone());
    }
    engine.load(&db);

    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(11);
    let (u, v) = matrices::one_row_update(n, 3, &mut rng);
    let x2 = Schema::new(vec![q.catalog.lookup("X2").unwrap()]);
    let x3 = Schema::new(vec![q.catalog.lookup("X3").unwrap()]);
    let du = matrices::vector_relation(&u, x2);
    let dv = matrices::vector_relation(&v, x3);
    let factored = Delta::factored(vec![du, dv]);
    engine.apply(1, &factored);

    // oracle: dense maintenance
    let dense: Vec<fivm::linalg::Matrix> = chain
        .iter()
        .map(|d| fivm::linalg::Matrix::from_fn(n, n, |i, j| d[i * n + j]))
        .collect();
    let mut oracle = fivm::linalg::DenseChainIvm::new(dense);
    oracle.apply_rank1(1, &u, &v);
    for (t, p) in engine.result().sorted() {
        let (i, j) = (
            t.get(0).as_int().unwrap() as usize,
            t.get(1).as_int().unwrap() as usize,
        );
        assert!(
            (p - oracle.product().get(i, j)).abs() < 1e-9,
            "cell ({i},{j})"
        );
    }
}
