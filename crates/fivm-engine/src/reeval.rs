//! Re-evaluation baseline (paper Appendix C, Figure 11):
//! [`FactorizedReeval`] (F-RE) recomputes the result from scratch on
//! every update, but *using the factorized view-tree plan*. It
//! illustrates the first factorization lock (factorized evaluation) in
//! isolation from incremental maintenance. The unit tests check it
//! against DBT-RE, which joins all relations into the listing
//! representation first and aggregates afterwards.

use crate::eval::{eval_tree, Database};
use fivm_core::{Delta, LiftingMap, Relation, Ring};
use fivm_query::{QueryDef, RelIndex, ViewTree};

/// F-RE: factorized re-evaluation on every update.
pub struct FactorizedReeval<R: Ring> {
    query: QueryDef,
    tree: ViewTree,
    liftings: LiftingMap<R>,
    db: Database<R>,
    result: Relation<R>,
}

impl<R: Ring> FactorizedReeval<R> {
    /// Build over a view tree.
    pub fn new(query: QueryDef, tree: ViewTree, liftings: LiftingMap<R>) -> Self {
        let db = Database::empty(&query);
        let result = eval_tree(&tree, &db, &liftings);
        FactorizedReeval {
            query,
            tree,
            liftings,
            db,
            result,
        }
    }

    /// Apply an update: fold into the base relation and recompute.
    pub fn apply(&mut self, rel: RelIndex, delta: &Delta<R>) {
        let flat = delta.flatten().reorder(&self.query.relations[rel].schema);
        self.db.relations[rel].union_in_place(&flat);
        self.result = eval_tree(&self.tree, &self.db, &self.liftings);
    }

    /// The current result.
    pub fn result(&self) -> &Relation<R> {
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::lifting::int_identity;
    use fivm_core::tuple;
    use fivm_core::{Lifting, Schema};
    use fivm_query::VariableOrder;

    /// DBT-RE: naive join-then-aggregate re-evaluation on every update.
    struct NaiveReeval<R: Ring> {
        query: QueryDef,
        liftings: LiftingMap<R>,
        db: Database<R>,
        result: Relation<R>,
    }

    impl<R: Ring> NaiveReeval<R> {
        /// Build for a query.
        fn new(query: QueryDef, liftings: LiftingMap<R>) -> Self {
            let db = Database::empty(&query);
            let mut s = NaiveReeval {
                query,
                liftings,
                db,
                result: Relation::new(Schema::empty()),
            };
            s.recompute();
            s
        }

        fn recompute(&mut self) {
            // join everything (the listing representation)…
            let mut acc = self.db.relations[0].clone();
            for r in &self.db.relations[1..] {
                acc = acc.join(r);
            }
            // …then aggregate the bound variables
            let margins: Vec<(u32, Lifting<R>)> = acc
                .schema()
                .iter()
                .filter(|v| !self.query.free.contains(**v))
                .map(|&v| (v, self.liftings.get(v)))
                .collect();
            let out = acc.marginalize_many(&margins);
            self.result = if out.schema().len() == self.query.free.len() {
                out.reorder(&self.query.free)
            } else {
                out
            };
        }

        /// Apply an update: fold into the base relation and recompute.
        fn apply(&mut self, rel: RelIndex, delta: &Delta<R>) {
            let flat = delta.flatten().reorder(&self.query.relations[rel].schema);
            self.db.relations[rel].union_in_place(&flat);
            self.recompute();
        }

        /// The current result.
        fn result(&self) -> &Relation<R> {
            &self.result
        }
    }

    #[test]
    fn both_reevals_agree_with_each_other() {
        let q = QueryDef::example_rst(&["A"]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let mut lifts = LiftingMap::<i64>::new();
        lifts.set(q.catalog.lookup("E").unwrap(), int_identity());
        let mut fre = FactorizedReeval::new(q.clone(), tree, lifts.clone());
        let mut dre = NaiveReeval::new(q.clone(), lifts);
        for (ri, t) in [
            (0usize, tuple![1, 1]),
            (1, tuple![1, 2, 3]),
            (2, tuple![2, 7]),
            (0, tuple![2, 5]),
            (1, tuple![2, 2, 4]),
        ] {
            let d = Delta::Flat(Relation::from_pairs(
                q.relations[ri].schema.clone(),
                [(t, 1i64)],
            ));
            fre.apply(ri, &d);
            dre.apply(ri, &d);
            assert_eq!(fre.result(), dre.result());
        }
        // SUM(E) for A=1: 3 (single joining tuple chain)
        assert_eq!(fre.result().payload(&tuple![1]), 3);
    }

    #[test]
    fn deletion_supported() {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::auto(&q);
        let tree = ViewTree::build(&q, &vo);
        let mut fre = FactorizedReeval::new(q.clone(), tree, LiftingMap::<i64>::new());
        let ins = Delta::Flat(Relation::from_pairs(
            q.relations[0].schema.clone(),
            [(tuple![1, 1], 1i64)],
        ));
        fre.apply(0, &ins);
        fre.apply(0, &ins.neg());
        assert!(fre.result().is_empty());
    }
}
