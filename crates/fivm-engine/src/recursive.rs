//! Fully-recursive higher-order IVM — the DBToaster-style baseline
//! (paper §7: DBT with scalar payloads, DBT-RING with ring payloads).
//!
//! Where F-IVM maintains **one view tree for all relations**, the fully
//! recursive scheme materializes **one hierarchy per updatable
//! relation**: for each view `V` over relations `M` and each `r ∈ M`,
//! the delta `δ_r V = δ̂R ⊗ C₁ ⊗ … ⊗ C_k` joins the (pre-aggregated)
//! update with materialized *complement* views, one per connected
//! component of `M \ {r}` — DBToaster places an aggregate around each
//! component that becomes disconnected once the update tuple binds the
//! join variables (§7’s description of the Housing delta queries).
//! Complements are materialized recursively and deduplicated
//! syntactically by `(relation set, keys)`.
//!
//! The result is typically **more** views than F-IVM (13 vs 9 on the
//! Retailer schema with ring payloads), each cheap to maintain — which
//! is exactly the space/time profile Figures 7/13 measure.

use crate::view::ViewStore;
use fivm_core::{Delta, FxHashMap, Lifting, LiftingMap, Relation, Ring, Schema};
use fivm_query::{QueryDef, RelIndex};

/// One materialized view of the recursive hierarchy.
struct RecView<R> {
    /// Bitmask of the relations joined in this view.
    mask: u64,
    /// Group-by variables of the view.
    keys: Schema,
    store: ViewStore<R>,
    /// For each updatable relation `r` in `mask` (when `|mask| > 1`):
    /// the component complement views used by `δ_r`.
    complements: FxHashMap<RelIndex, Vec<usize>>,
}

/// DBToaster-style fully recursive higher-order IVM.
pub struct RecursiveIvm<R: Ring> {
    query: QueryDef,
    liftings: LiftingMap<R>,
    updatable: u64,
    views: Vec<RecView<R>>,
    memo: FxHashMap<(u64, Schema), usize>,
    top: usize,
    updates_applied: u64,
}

impl<R: Ring> RecursiveIvm<R> {
    /// Compile the recursive materialization hierarchy for `query` under
    /// updates to `updatable`.
    pub fn new(query: QueryDef, updatable: &[RelIndex], liftings: LiftingMap<R>) -> Self {
        let mask = updatable.iter().fold(0u64, |m, &r| m | (1u64 << r));
        let all = (1u64 << query.relations.len()) - 1;
        let mut s = RecursiveIvm {
            query,
            liftings,
            updatable: mask,
            views: Vec::new(),
            memo: FxHashMap::default(),
            top: 0,
            updates_applied: 0,
        };
        let free = s.query.free.clone();
        s.top = s.compile(all, free);
        s
    }

    fn compile(&mut self, mask: u64, keys: Schema) -> usize {
        if let Some(&id) = self.memo.get(&(mask, keys.clone())) {
            return id;
        }
        let id = self.views.len();
        self.views.push(RecView {
            mask,
            keys: keys.clone(),
            store: ViewStore::new(keys.clone()),
            complements: FxHashMap::default(),
        });
        self.memo.insert((mask, keys.clone()), id);
        if mask.count_ones() > 1 {
            for r in 0..self.query.relations.len() {
                if mask & (1 << r) == 0 || self.updatable & (1 << r) == 0 {
                    continue;
                }
                let bound = self.query.relations[r].schema.union(&keys);
                let rest = mask & !(1 << r);
                let comps = connected_components(&self.query, rest, &bound);
                let mut comp_views = Vec::new();
                for cmask in comps {
                    let cvars = vars_of(&self.query, cmask);
                    let ckeys = cvars.intersect(&bound);
                    comp_views.push(self.compile(cmask, ckeys));
                }
                self.views[id].complements.insert(r, comp_views);
            }
        }
        id
    }

    /// Bulk-load: evaluate every materialized view from scratch.
    pub fn load(&mut self, db: &crate::eval::Database<R>) {
        for i in 0..self.views.len() {
            let mask = self.views[i].mask;
            let keys = self.views[i].keys.clone();
            let children: Vec<&Relation<R>> = (0..self.query.relations.len())
                .filter(|r| mask & (1 << r) != 0)
                .map(|r| &db.relations[r])
                .collect();
            let margins: Vec<(u32, Lifting<R>)> = vars_of(&self.query, mask)
                .iter()
                .filter(|v| !keys.contains(**v))
                .map(|&v| (v, self.liftings.get(v)))
                .collect();
            let rel = Relation::join_aggregate(&children, &margins, &keys);
            self.views[i].store = ViewStore::new(keys);
            self.views[i].store.merge(&rel);
        }
    }

    /// Apply an update to `rel`: every view whose mask contains `rel`
    /// receives `δV = δ̂R ⊗ C₁ ⊗ … ⊗ C_k` (complements are unaffected
    /// by this update, so maintenance order does not matter).
    pub fn apply(&mut self, rel: RelIndex, delta: &Delta<R>) {
        assert!(
            self.updatable & (1 << rel) != 0,
            "relation {rel} not updatable"
        );
        self.updates_applied += 1;
        let flat = delta.flatten().reorder(&self.query.relations[rel].schema);
        for i in 0..self.views.len() {
            if self.views[i].mask & (1 << rel) == 0 {
                continue;
            }
            let keys = self.views[i].keys.clone();
            let delta_v = if self.views[i].mask.count_ones() == 1 {
                // single-relation view: maintained directly from δR
                let margins: Vec<(u32, Lifting<R>)> = flat
                    .schema()
                    .iter()
                    .filter(|v| !keys.contains(**v))
                    .map(|&v| (v, self.liftings.get(v)))
                    .collect();
                flat.marginalize_many(&margins).reorder(&keys)
            } else {
                let comp_ids = self.views[i].complements[&rel].clone();
                // keep vars needed by the output keys or any complement
                let mut keep = keys.clone();
                for &c in &comp_ids {
                    keep = keep.union(&self.views[c].keys);
                }
                let margins: Vec<(u32, Lifting<R>)> = flat
                    .schema()
                    .iter()
                    .filter(|v| !keep.contains(**v))
                    .map(|&v| (v, self.liftings.get(v)))
                    .collect();
                let mut acc = flat.marginalize_many(&margins);
                for &c in &comp_ids {
                    acc = self.join_with_view(&acc, c);
                }
                let margins: Vec<(u32, Lifting<R>)> = acc
                    .schema()
                    .iter()
                    .filter(|v| !keys.contains(**v))
                    .map(|&v| (v, self.liftings.get(v)))
                    .collect();
                acc.marginalize_many(&margins).reorder(&keys)
            };
            self.views[i].store.merge(&delta_v);
        }
    }

    fn join_with_view(&mut self, acc: &Relation<R>, c: usize) -> Relation<R> {
        let sib_schema = self.views[c].keys.clone();
        let common = acc.schema().intersect(&sib_schema);
        let acc_probe = acc.schema().positions_of(common.vars()).expect("subset");
        let rest_vars = sib_schema.minus(&common);
        let out_schema = acc.schema().union(&sib_schema);
        if common.len() == sib_schema.len() {
            let store = &self.views[c].store;
            let reorder = common.positions_of(store.schema().vars()).expect("perm");
            let mut out = Relation::new(out_schema);
            for (t, p) in acc.iter() {
                let probe = t.project(&acc_probe).project(&reorder);
                if let Some(sp) = store.get(&probe) {
                    out.insert(t.clone(), p.mul(sp));
                }
            }
            return out;
        }
        let ix = self.views[c].store.ensure_index(&common);
        let store = &self.views[c].store;
        let rest_pos = store
            .schema()
            .positions_of(rest_vars.vars())
            .expect("subset");
        let mut out = Relation::new(out_schema);
        for (t, p) in acc.iter() {
            for (full, sp) in store.probe(ix, &t.project(&acc_probe)) {
                out.insert(t.concat_projected(full, &rest_pos), p.mul(sp));
            }
        }
        out
    }

    /// The maintained query result.
    pub fn result(&self) -> Relation<R> {
        self.views[self.top].store.to_relation()
    }

    /// Number of materialized views — the §7 view-count metric for
    /// DBT / DBT-RING.
    pub fn stored_view_count(&self) -> usize {
        self.views.len()
    }

    /// Total keys across all views.
    pub fn total_entries(&self) -> usize {
        self.views.iter().map(|v| v.store.len()).sum()
    }

    /// Approximate resident bytes across all views.
    pub fn approx_bytes(&self) -> usize {
        self.views.iter().map(|v| v.store.approx_bytes()).sum()
    }

    /// Updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }
}

/// Variables covered by the relations in `mask`.
fn vars_of(query: &QueryDef, mask: u64) -> Schema {
    let mut out = Schema::empty();
    for r in 0..query.relations.len() {
        if mask & (1 << r) != 0 {
            out = out.union(&query.relations[r].schema);
        }
    }
    out
}

/// Connected components of the relations in `mask`, where two relations
/// are adjacent iff they share a variable **outside** `bound` (variables
/// in `bound` are fixed by the update tuple / output keys and no longer
/// connect the residual join).
fn connected_components(query: &QueryDef, mask: u64, bound: &Schema) -> Vec<u64> {
    let rels: Vec<usize> = (0..query.relations.len())
        .filter(|r| mask & (1 << r) != 0)
        .collect();
    let mut comp: Vec<u64> = Vec::new();
    let mut assigned = vec![false; rels.len()];
    for i in 0..rels.len() {
        if assigned[i] {
            continue;
        }
        let mut cmask = 0u64;
        let mut stack = vec![i];
        assigned[i] = true;
        while let Some(x) = stack.pop() {
            cmask |= 1 << rels[x];
            for y in 0..rels.len() {
                if assigned[y] {
                    continue;
                }
                let shared = query.relations[rels[x]]
                    .schema
                    .intersect(&query.relations[rels[y]].schema);
                if shared.iter().any(|v| !bound.contains(*v)) {
                    assigned[y] = true;
                    stack.push(y);
                }
            }
        }
        comp.push(cmask);
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_tree, Database};
    use fivm_core::lifting::int_identity;
    use fivm_core::{tuple, Tuple};
    use fivm_query::{VariableOrder, ViewTree};

    fn oracle(q: &QueryDef, db: &Database<i64>, lifts: &LiftingMap<i64>) -> Relation<i64> {
        let vo = VariableOrder::auto(q);
        let tree = ViewTree::build(q, &vo);
        eval_tree(&tree, db, lifts)
    }

    #[test]
    fn chain_query_correctness() {
        let q = QueryDef::example_rst(&[]);
        let lifts = LiftingMap::<i64>::new();
        let mut ivm = RecursiveIvm::new(q.clone(), &[0, 1, 2], lifts.clone());
        let mut db = Database::empty(&q);
        let updates: Vec<(usize, Tuple, i64)> = vec![
            (0, tuple![1, 1], 1),
            (1, tuple![1, 1, 1], 1),
            (2, tuple![1, 1], 1),
            (0, tuple![1, 2], 1),
            (2, tuple![1, 9], 2),
            (0, tuple![1, 1], -1),
            (1, tuple![2, 1, 5], 1),
        ];
        for (ri, t, m) in updates {
            let d = Relation::from_pairs(q.relations[ri].schema.clone(), [(t.clone(), m)]);
            ivm.apply(ri, &Delta::Flat(d.clone()));
            db.relations[ri].union_in_place(&d);
            assert_eq!(ivm.result(), oracle(&q, &db, &lifts), "diverged at {t}");
        }
    }

    #[test]
    fn group_by_with_liftings() {
        let q = QueryDef::example_rst(&["A"]);
        let mut lifts = LiftingMap::<i64>::new();
        lifts.set(q.catalog.lookup("D").unwrap(), int_identity());
        let mut ivm = RecursiveIvm::new(q.clone(), &[0, 1, 2], lifts.clone());
        let mut db = Database::empty(&q);
        for (ri, t) in [
            (0usize, tuple![1, 1]),
            (1, tuple![1, 2, 3]),
            (2, tuple![2, 7]),
            (2, tuple![2, 5]),
            (0, tuple![1, 4]),
        ] {
            let d = Relation::from_pairs(q.relations[ri].schema.clone(), [(t, 1i64)]);
            ivm.apply(ri, &Delta::Flat(d.clone()));
            db.relations[ri].union_in_place(&d);
        }
        assert_eq!(ivm.result(), oracle(&q, &db, &lifts));
        // SUM(D) for A=1: two B’s × (7 + 5) = 24
        assert_eq!(ivm.result().payload(&tuple![1]), 24);
    }

    /// Star join: the complements decompose into one single-relation
    /// view per satellite — DBToaster’s Housing shape (§7).
    #[test]
    fn star_join_decomposes_into_singletons() {
        let q = QueryDef::new(
            &[("H", &["P", "X"]), ("S", &["P", "Y"]), ("I", &["P", "Z"])],
            &[],
        );
        let ivm: RecursiveIvm<i64> = RecursiveIvm::new(q, &[0, 1, 2], LiftingMap::new());
        // top + 3 single-relation views keyed on P (deduped)
        assert_eq!(ivm.stored_view_count(), 4);
        let top = &ivm.views[ivm.top];
        for r in 0..3 {
            let comps = &top.complements[&r];
            assert_eq!(comps.len(), 2, "two satellites per update");
            for &c in comps {
                assert_eq!(ivm.views[c].mask.count_ones(), 1);
            }
        }
    }

    /// Snowflake: removing the fact relation leaves the dimension chain
    /// L–C connected through their private join key.
    #[test]
    fn snowflake_keeps_connected_dimensions_together() {
        let q = QueryDef::new(
            &[
                ("Inv", &["locn", "ksn"]),
                ("Item", &["ksn", "cat"]),
                ("Loc", &["locn", "zip"]),
                ("Census", &["zip", "pop"]),
            ],
            &[],
        );
        let ivm: RecursiveIvm<i64> = RecursiveIvm::new(q.clone(), &[0, 1, 2, 3], LiftingMap::new());
        let top = &ivm.views[ivm.top];
        let inv = q.relation_index("Inv").unwrap();
        let comps = &top.complements[&inv];
        // components: {Item}, {Loc, Census} — zip connects L and C
        let masks: Vec<u32> = comps
            .iter()
            .map(|&c| ivm.views[c].mask.count_ones())
            .collect();
        let mut sorted = masks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn load_then_update() {
        let q = QueryDef::example_rst(&[]);
        let lifts = LiftingMap::<i64>::new();
        let mut db = Database::empty(&q);
        db.relations[0].insert(tuple![1, 1], 1);
        db.relations[1].insert(tuple![1, 2, 3], 1);
        db.relations[2].insert(tuple![2, 4], 1);
        let mut ivm = RecursiveIvm::new(q.clone(), &[0, 1, 2], lifts.clone());
        ivm.load(&db);
        assert_eq!(ivm.result(), oracle(&q, &db, &lifts));
        let d = Relation::from_pairs(q.relations[0].schema.clone(), [(tuple![1, 5], 1i64)]);
        ivm.apply(0, &Delta::Flat(d.clone()));
        db.relations[0].union_in_place(&d);
        assert_eq!(ivm.result(), oracle(&q, &db, &lifts));
    }

    /// The recursive hierarchy uses at least as many views as F-IVM’s
    /// single view tree on the same query (the paper’s qualitative
    /// comparison).
    #[test]
    fn more_views_than_fivm() {
        let q = QueryDef::example_rst(&[]);
        let ivm: RecursiveIvm<i64> = RecursiveIvm::new(q.clone(), &[0, 1, 2], LiftingMap::new());
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        assert!(ivm.stored_view_count() >= tree.inner_count());
    }
}
