//! Static factorized evaluation of a view tree (paper §3).
//!
//! Computes the contents of every view bottom-up: leaves are the input
//! relations, indicator nodes project their relation’s support, and
//! inner views join their children and marginalize their bound
//! variables with the lifting functions, in one streaming pass
//! ([`Relation::join_aggregate`]) that never materializes the node’s
//! join. Time is proportional to the join results enumerated at each
//! node; space to the views plus one index per child.
//!
//! This is also the correctness oracle: every IVM strategy in this crate
//! must agree with `eval_tree` after any update sequence.

use fivm_core::{LiftingMap, Relation, Schema, Semiring, Tuple};
use fivm_query::{NodeId, NodeKind, QueryDef, ViewTree};

/// A database: one relation per query relation, aligned with
/// [`QueryDef::relations`] indices.
#[derive(Clone, Debug)]
pub struct Database<R> {
    /// The relations, by [`fivm_query::RelIndex`].
    pub relations: Vec<Relation<R>>,
}

impl<R: Semiring> Database<R> {
    /// Empty relations matching the query’s schemas.
    pub fn empty(query: &QueryDef) -> Self {
        Database {
            relations: query
                .relations
                .iter()
                .map(|r| Relation::new(r.schema.clone()))
                .collect(),
        }
    }

    /// Total number of stored keys (the paper’s `|D|`).
    pub fn size(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }
}

/// Evaluate a single node of the tree given its children’s relations.
pub fn eval_node<R: Semiring>(
    tree: &ViewTree,
    node: NodeId,
    children: &[&Relation<R>],
    db: &Database<R>,
    liftings: &LiftingMap<R>,
) -> Relation<R> {
    let n = &tree.nodes[node];
    match &n.kind {
        NodeKind::Relation(ri) => db.relations[*ri].clone(),
        NodeKind::Indicator { rel, proj } => indicator_relation(&db.relations[*rel], proj),
        NodeKind::Inner { margin, .. } => {
            let margins: Vec<_> = margin.iter().map(|&v| (v, liftings.get(v))).collect();
            Relation::join_aggregate(children, &margins, &n.keys)
        }
    }
}

/// Evaluate every view of the tree bottom-up; returns one relation per
/// node (indexed by [`NodeId`]).
pub fn eval_all<R: Semiring>(
    tree: &ViewTree,
    db: &Database<R>,
    liftings: &LiftingMap<R>,
) -> Vec<Relation<R>> {
    // nodes are bottom-up except indicators (appended last); evaluate
    // leaves/indicators first, then inner nodes in id order.
    let mut out: Vec<Option<Relation<R>>> = vec![None; tree.nodes.len()];
    for (id, n) in tree.nodes.iter().enumerate() {
        if !matches!(n.kind, NodeKind::Inner { .. }) {
            out[id] = Some(eval_node(tree, id, &[], db, liftings));
        }
    }
    for (id, n) in tree.nodes.iter().enumerate() {
        if matches!(n.kind, NodeKind::Inner { .. }) {
            let children: Vec<&Relation<R>> = n
                .children
                .iter()
                .map(|&c| out[c].as_ref().expect("children evaluated before parents"))
                .collect();
            out[id] = Some(eval_node(tree, id, &children, db, liftings));
        }
    }
    out.into_iter()
        .map(|r| r.expect("all nodes evaluated"))
        .collect()
}

/// Evaluate the tree and return the root view (the query result).
pub fn eval_tree<R: Semiring>(
    tree: &ViewTree,
    db: &Database<R>,
    liftings: &LiftingMap<R>,
) -> Relation<R> {
    let mut all = eval_all(tree, db, liftings);
    all.swap_remove(tree.root)
}

/// The indicator projection `∃_proj R`: distinct `proj`-projections of
/// `R`’s support, each with payload 1 (Appendix B).
pub fn indicator_relation<R: Semiring>(rel: &Relation<R>, proj: &Schema) -> Relation<R> {
    let positions = rel
        .schema()
        .positions_of(proj.vars())
        .expect("projection vars must be in the relation schema");
    let mut seen: fivm_core::FxHashSet<Tuple> = fivm_core::FxHashSet::default();
    let mut out = Relation::new(proj.clone());
    for (t, _) in rel.iter() {
        let key = t.project(&positions);
        if seen.insert(key.clone()) {
            out.insert(key, R::one());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::lifting::int_identity;
    use fivm_core::tuple;
    use fivm_core::Lifting;
    use fivm_query::VariableOrder;

    /// Figure 2c database with all payloads 1 (for COUNT).
    fn fig2_db(q: &QueryDef) -> Database<i64> {
        let mut db = Database::empty(q);
        for (a, b) in [(1, 1), (1, 2), (2, 3), (3, 4)] {
            db.relations[0].insert(tuple![a, b], 1);
        }
        for (a, c, e) in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 4)] {
            db.relations[1].insert(tuple![a, c, e], 1);
        }
        for (c, d) in [(1, 1), (2, 2), (2, 3), (3, 4)] {
            db.relations[2].insert(tuple![c, d], 1);
        }
        db
    }

    /// Figure 2d: the COUNT over the natural join is 10.
    #[test]
    fn figure_2d_count() {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let db = fig2_db(&q);
        let result = eval_tree(&tree, &db, &LiftingMap::<i64>::new());
        assert_eq!(result.payload(&Tuple::unit()), 10);
    }

    /// All views of Figure 2d have the contents shown in the paper.
    #[test]
    fn figure_2d_intermediate_views() {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let db = fig2_db(&q);
        let views = eval_all(&tree, &db, &LiftingMap::<i64>::new());
        // V@B_R[A]: a1→2, a2→1, a3→1
        let vb = tree
            .nodes
            .iter()
            .position(|n| n.rels == 0b001 && matches!(n.kind, NodeKind::Inner { .. }))
            .unwrap();
        assert_eq!(views[vb].payload(&tuple![1]), 2);
        assert_eq!(views[vb].payload(&tuple![2]), 1);
        // V@C_ST[A]: a1→4, a2→2
        let vst = tree
            .nodes
            .iter()
            .position(|n| n.rels == 0b110 && matches!(n.kind, NodeKind::Inner { .. }))
            .unwrap();
        assert_eq!(views[vst].payload(&tuple![1]), 4);
        assert_eq!(views[vst].payload(&tuple![2]), 2);
    }

    /// The same tree with identity liftings computes
    /// SUM(B * D * E) — different ring use, same plan (Example 2.3 with
    /// no free variables).
    #[test]
    fn sum_aggregate_same_tree() {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let db = fig2_db(&q);
        let mut lifts = LiftingMap::<i64>::new();
        for v in ["B", "D", "E"] {
            lifts.set(q.catalog.lookup(v).unwrap(), int_identity());
        }
        let result = eval_tree(&tree, &db, &lifts);
        // join tuples (a,b,c,d,e): enumerate manually from Figure 2e:
        // a1: b∈{1,2} × [(c1,d1,e∈{1,2}), (c2,{d2,d3},e3)]
        // a2: b3 × (c2,{d2,d3},e4)
        let mut expected = 0i64;
        for b in [1i64, 2] {
            for (d, e) in [(1, 1), (1, 2), (2, 3), (3, 3)] {
                expected += b * d * e;
            }
        }
        for (d, e) in [(2i64, 4i64), (3, 4)] {
            expected += 3 * d * e;
        }
        assert_eq!(result.payload(&Tuple::unit()), expected);
    }

    /// Group-by variant: free variables A, C (Example 1.1’s shape).
    #[test]
    fn group_by_free_vars() {
        let q = QueryDef::example_rst(&["A", "C"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let db = fig2_db(&q);
        let result = eval_tree(&tree, &db, &LiftingMap::<i64>::new());
        // counts per (A, C) group
        assert_eq!(result.payload(&tuple![1, 1]), 4); // 2 B’s × 1 D × 2 E’s
        assert_eq!(result.payload(&tuple![1, 2]), 4); // 2 B’s × 2 D’s × 1 E
        assert_eq!(result.payload(&tuple![2, 2]), 2); // 1 B × 2 D’s × 1 E
        assert_eq!(result.len(), 3);
    }

    /// Factorized evaluation equals the naive join-then-aggregate plan.
    #[test]
    fn matches_naive_evaluation() {
        let q = QueryDef::example_rst(&["A"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let db = fig2_db(&q);
        let mut lifts = LiftingMap::<i64>::new();
        lifts.set(q.catalog.lookup("D").unwrap(), int_identity());
        let fact = eval_tree(&tree, &db, &lifts);
        // naive: join everything, then marginalize bound vars
        let joined = db.relations[0]
            .join(&db.relations[1])
            .join(&db.relations[2]);
        let naive = joined
            .marginalize_many(&[
                (q.catalog.lookup("B").unwrap(), Lifting::One),
                (q.catalog.lookup("C").unwrap(), Lifting::One),
                (q.catalog.lookup("D").unwrap(), int_identity()),
                (q.catalog.lookup("E").unwrap(), Lifting::One),
            ])
            .reorder(fact.schema());
        assert_eq!(fact, naive);
    }

    #[test]
    fn indicator_projection_contents() {
        let mut r: Relation<i64> = Relation::new(Schema::new(vec![0, 1]));
        r.insert(tuple![1, 1], 5);
        r.insert(tuple![1, 2], -3);
        r.insert(tuple![2, 1], 1);
        let ind = indicator_relation(&r, &Schema::new(vec![0]));
        assert_eq!(ind.payload(&tuple![1]), 1); // support, not multiplicity
        assert_eq!(ind.payload(&tuple![2]), 1);
        assert_eq!(ind.len(), 2);
    }

    /// Triangle query via the indicator-extended tree agrees with naive.
    #[test]
    fn triangle_with_indicator_is_correct() {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        fivm_query::add_indicators(&mut tree, &q);
        let mut db = Database::<i64>::empty(&q);
        // small cyclic instance
        for (a, b) in [(1, 1), (1, 2), (2, 1)] {
            db.relations[0].insert(tuple![a, b], 1);
        }
        for (b, c) in [(1, 1), (2, 1), (1, 2)] {
            db.relations[1].insert(tuple![b, c], 1);
        }
        for (c, a) in [(1, 1), (1, 2), (2, 1)] {
            db.relations[2].insert(tuple![c, a], 1);
        }
        let result = eval_tree(&tree, &db, &LiftingMap::<i64>::new());
        let naive = db.relations[0]
            .join(&db.relations[1])
            .join(&db.relations[2])
            .marginalize_many(&[
                (q.catalog.lookup("A").unwrap(), Lifting::One),
                (q.catalog.lookup("B").unwrap(), Lifting::One),
                (q.catalog.lookup("C").unwrap(), Lifting::One),
            ]);
        assert_eq!(
            result.payload(&Tuple::unit()),
            naive.payload(&Tuple::unit())
        );
    }
}

#[cfg(test)]
mod semiring_tests {
    use super::*;
    use fivm_core::ring::boolean::{Bool, MaxProduct};
    use fivm_core::tuple;
    use fivm_query::VariableOrder;

    /// Static factorized evaluation works over pure semirings (no
    /// additive inverse): Boolean answers “does any join witness
    /// exist?”, max-product computes the best-scoring derivation — the
    /// Appendix A examples exercised end-to-end.
    #[test]
    fn boolean_semiring_existence() {
        let q = QueryDef::example_rst(&["A"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let mut db: Database<Bool> = Database::empty(&q);
        db.relations[0].insert(tuple![1, 1], Bool(true));
        db.relations[0].insert(tuple![2, 9], Bool(true));
        db.relations[1].insert(tuple![1, 3, 5], Bool(true));
        db.relations[2].insert(tuple![3, 7], Bool(true));
        let result = eval_tree(&tree, &db, &LiftingMap::new());
        // only A=1 has a full join witness
        assert_eq!(result.payload(&tuple![1]), Bool(true));
        assert!(!result.contains(&tuple![2]));
    }

    #[test]
    fn max_product_best_derivation() {
        let q = QueryDef::new(&[("R", &["A", "B"]), ("S", &["B", "C"])], &["A"]);
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let mut db: Database<MaxProduct> = Database::empty(&q);
        db.relations[0].insert(tuple![1, 1], MaxProduct(0.5));
        db.relations[0].insert(tuple![1, 2], MaxProduct(0.9));
        db.relations[1].insert(tuple![1, 7], MaxProduct(0.8));
        db.relations[1].insert(tuple![2, 7], MaxProduct(0.1));
        let result = eval_tree(&tree, &db, &LiftingMap::new());
        // best derivation for A=1: max(0.5·0.8, 0.9·0.1) = 0.4
        let p = result.payload(&tuple![1]);
        assert!((p.0 - 0.4).abs() < 1e-12);
    }
}
