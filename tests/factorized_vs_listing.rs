//! Property test for the third factorization lock (§6.3): under random
//! update sequences, the factorized payload representation enumerates
//! to exactly the listing representation, with matching multiplicities,
//! on both tree-shaped and star-shaped conjunctive queries; and a
//! factorized engine bulk-loaded with a database enumerates exactly
//! like one that received the same tuples one by one.

use fivm::engine::enumerate::{factorized_preprojection, factorized_transform};
use fivm::prelude::*;
use proptest::prelude::*;

fn cq_liftings(_q: &QueryDef, cq_free: &[VarId]) -> LiftingMap<RelPayload> {
    let mut lifts = LiftingMap::new();
    for &v in cq_free {
        lifts.set(
            v,
            Lifting::from_fn(move |val: &Value| RelPayload::lift_free(Schema::new(vec![v]), val)),
        );
    }
    lifts
}

/// Note: the factorized representation sums derivation counts per
/// value, so it is exact for *non-negative* databases (the paper’s
/// insert streams; deletions of existing tuples are fine). A transient
/// negative multiplicity can cancel a marginal sum while individual
/// listing tuples survive — so the generator below only deletes tuples
/// that exist.
fn check(
    q: &QueryDef,
    vo: &VariableOrder,
    cq_free: &[VarId],
    updates: &[(usize, Vec<i64>, i64)],
) -> Result<(), TestCaseError> {
    let tree = ViewTree::build(q, vo);
    let lifts = cq_liftings(q, cq_free);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let transform = factorized_transform(&tree);
    let mut fact: IvmEngine<RelPayload> =
        IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone())
            .with_payload_transform(transform)
            .with_payload_preprojection(factorized_preprojection());
    let mut list: IvmEngine<RelPayload> = IvmEngine::new(q.clone(), tree, &all, lifts);
    let mut sorted_free = cq_free.to_vec();
    sorted_free.sort_unstable();
    let out_schema = Schema::new(sorted_free);
    let mut counts: FxHashMap<(usize, Tuple), i64> = FxHashMap::default();

    for (rel, vals, mult) in updates {
        let t = Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect());
        // keep the database non-negative: skip deletes of absent tuples
        let entry = counts.entry((*rel, t.clone())).or_insert(0);
        if *entry + mult < 0 {
            continue;
        }
        *entry += mult;
        let mut payload = RelPayload::one();
        if *mult < 0 {
            payload = payload.neg();
        }
        let d = Relation::from_pairs(q.relations[*rel].schema.clone(), [(t, payload)]);
        fact.apply(*rel, &Delta::Flat(d.clone()));
        list.apply(*rel, &Delta::Flat(d));

        let mut enumerated = FactorizedResult::new(&fact).enumerate(&out_schema);
        enumerated.sort();
        let mut expected = list
            .result()
            .payload(&Tuple::unit())
            .project_onto(&out_schema)
            .sorted();
        expected.sort();
        prop_assert_eq!(enumerated, expected);
    }
    Ok(())
}

/// Bulk-load `tuples` (inserts only) into an engine with the
/// factorized payload transform and pre-projection, and insert them one
/// by one into another: both must enumerate the same listing from the
/// same views.
fn check_load(
    q: &QueryDef,
    vo: &VariableOrder,
    cq_free: &[VarId],
    tuples: &[(usize, Vec<i64>)],
) -> Result<(), TestCaseError> {
    let tree = ViewTree::build(q, vo);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let hooked = || {
        IvmEngine::new(q.clone(), tree.clone(), &all, cq_liftings(q, cq_free))
            .with_payload_transform(factorized_transform(&tree))
            .with_payload_preprojection(factorized_preprojection())
    };
    let (mut loaded, mut inserted): (IvmEngine<RelPayload>, IvmEngine<RelPayload>) =
        (hooked(), hooked());
    let mut db = Database::empty(q);
    for (rel, vals) in tuples {
        let t = Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect());
        let d = Relation::from_pairs(q.relations[*rel].schema.clone(), [(t, RelPayload::one())]);
        inserted.apply(*rel, &Delta::Flat(d.clone()));
        db.relations[*rel].union_in_place(&d);
    }
    loaded.load(&db);
    let mut sorted_free = cq_free.to_vec();
    sorted_free.sort_unstable();
    let out_schema = Schema::new(sorted_free);
    let listing = |e: &IvmEngine<RelPayload>| {
        let mut v = FactorizedResult::new(e).enumerate(&out_schema);
        v.sort();
        v
    };
    prop_assert_eq!(listing(&loaded), listing(&inserted));
    for node in inserted.materialized_nodes() {
        prop_assert_eq!(loaded.view_relation(node), inserted.view_relation(node));
    }
    Ok(())
}

fn tuple_of(arities: Vec<usize>) -> impl Strategy<Value = (usize, Vec<i64>)> {
    (0..arities.len())
        .prop_flat_map(move |rel| (Just(rel), proptest::collection::vec(0i64..3, arities[rel])))
}

fn upd(n_rels: usize, arities: Vec<usize>) -> impl Strategy<Value = (usize, Vec<i64>, i64)> {
    (0..n_rels).prop_flat_map(move |rel| {
        let arity = arities[rel];
        (
            Just(rel),
            proptest::collection::vec(0i64..3, arity),
            prop_oneof![3 => Just(1i64), 1 => Just(-1)],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The paper’s Q(A,B,C,D) = R(A,B), S(A,C,E), T(C,D) (Example 6.5).
    #[test]
    fn rst_query(updates in proptest::collection::vec(upd(3, vec![2, 3, 2]), 1..15)) {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let free: Vec<VarId> = ["A", "B", "C", "D"]
            .iter()
            .map(|n| q.catalog.lookup(n).unwrap())
            .collect();
        check(&q, &vo, &free, &updates)?;
    }

    /// A star query where factorization pays off the most.
    #[test]
    fn star_query(updates in proptest::collection::vec(upd(3, vec![2, 2, 2]), 1..15)) {
        let q = QueryDef::new(
            &[("R", &["P", "X"]), ("S", &["P", "Y"]), ("T", &["P", "Z"])],
            &[],
        );
        let vo = VariableOrder::parse("P - { X, Y, Z }", &q.catalog);
        let free: Vec<VarId> = ["P", "X", "Y", "Z"]
            .iter()
            .map(|n| q.catalog.lookup(n).unwrap())
            .collect();
        check(&q, &vo, &free, &updates)?;
    }

    /// Projection: only a subset of variables is CQ-free; bound
    /// variables contribute multiplicities.
    #[test]
    fn projected_query(updates in proptest::collection::vec(upd(2, vec![2, 2]), 1..15)) {
        let q = QueryDef::new(&[("R", &["A", "B"]), ("S", &["B", "C"])], &[]);
        // only A and C are CQ-free; B is projected away (its values are
        // counted into multiplicities). Per §6.6 the free variables must
        // sit on top of the bound ones for the factorization to be valid.
        let vo = VariableOrder::parse("A - C - B", &q.catalog);
        let free: Vec<VarId> = ["A", "C"].iter().map(|n| q.catalog.lookup(n).unwrap()).collect();
        check(&q, &vo, &free, &updates)?;
    }

    /// Bulk load into a factorized engine (RST query) equals inserts.
    #[test]
    fn rst_bulk_load(tuples in proptest::collection::vec(tuple_of(vec![2, 3, 2]), 1..30)) {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let free: Vec<VarId> = ["A", "B", "C", "D"]
            .iter()
            .map(|n| q.catalog.lookup(n).unwrap())
            .collect();
        check_load(&q, &vo, &free, &tuples)?;
    }

    /// Bulk load into a factorized engine (star query) equals inserts.
    #[test]
    fn star_bulk_load(tuples in proptest::collection::vec(tuple_of(vec![2, 2, 2]), 1..30)) {
        let q = QueryDef::new(
            &[("R", &["P", "X"]), ("S", &["P", "Y"]), ("T", &["P", "Z"])],
            &[],
        );
        let vo = VariableOrder::parse("P - { X, Y, Z }", &q.catalog);
        let free: Vec<VarId> = ["P", "X", "Y", "Z"]
            .iter()
            .map(|n| q.catalog.lookup(n).unwrap())
            .collect();
        check_load(&q, &vo, &free, &tuples)?;
    }
}
