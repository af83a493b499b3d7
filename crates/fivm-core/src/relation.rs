//! Relations over rings: keys → payloads with `⊎`, `⊗`, `⊕X` (paper §2).
//!
//! A [`Relation`] is a finitely-supported function from tuples over a
//! [`Schema`] to values in a [`Semiring`]. Keys whose payload becomes the
//! ring zero are erased, which is what makes inserts and deletes uniform:
//! a delete is an insert with a negated payload.
//!
//! The operators here are the *reference semantics* used by tests,
//! baselines and payload computation; the incremental engine
//! (`fivm-engine`) evaluates the same algebra with materialized views and
//! secondary indexes.

use crate::hash::FxHashMap;
use crate::key::TupleKey;
use crate::lifting::Lifting;
use crate::ring::{Ring, Semiring};
use crate::schema::{Schema, VarId};
use crate::table::TupleMap;
use crate::tuple::Tuple;

/// A relation over a ring: a map from keys (tuples over `schema`) to
/// non-zero payloads.
#[derive(Clone, Debug)]
pub struct Relation<R> {
    schema: Schema,
    data: TupleMap<R>,
}

impl<R: Semiring> Relation<R> {
    /// Empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            data: TupleMap::new(),
        }
    }

    /// Relation holding `{() → 1}` — the join identity.
    pub fn unit() -> Self {
        let mut r = Relation::new(Schema::empty());
        r.insert(Tuple::unit(), R::one());
        r
    }

    /// Build from `(key, payload)` pairs (payloads for equal keys sum).
    pub fn from_pairs(schema: Schema, pairs: impl IntoIterator<Item = (Tuple, R)>) -> Self {
        let mut r = Relation::new(schema);
        for (t, p) in pairs {
            r.insert(t, p);
        }
        r
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of keys with non-zero payload (the paper’s `|R|`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the relation is the zero map.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The payload of `t`, if non-zero.
    pub fn get(&self, t: &Tuple) -> Option<&R> {
        self.data.get(t)
    }

    /// The payload of `t`, or the ring zero.
    pub fn payload(&self, t: &Tuple) -> R {
        self.data.get(t).cloned().unwrap_or_else(R::zero)
    }

    /// Membership test `t ∈ R` (non-zero payload).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.data.contains_key(t)
    }

    /// Add `payload` to the key `t`, erasing it if the sum is zero.
    pub fn insert(&mut self, t: Tuple, payload: R) {
        debug_assert_eq!(t.len(), self.schema.len(), "tuple arity != schema arity");
        self.insert_by(&t, payload);
    }

    /// [`Relation::insert`] under a borrowed probe key; the key is
    /// materialized only if it is new to the relation.
    pub fn insert_by<K: TupleKey + ?Sized>(&mut self, key: &K, payload: R) {
        if payload.is_zero() {
            return;
        }
        let (inserted, id, slot) = self.data.upsert_id(key, R::zero);
        slot.add_assign(&payload);
        if !inserted && slot.is_zero() {
            self.data.remove_id(id);
        }
    }

    /// Iterate over `(key, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &R)> {
        self.data.iter()
    }

    /// Deterministically ordered contents (tests, display). Symbol keys
    /// order by intern id — for user-facing dictionary order use
    /// [`Relation::sorted_resolved`].
    pub fn sorted(&self) -> Vec<(Tuple, R)> {
        let mut v: Vec<_> = self
            .data
            .iter()
            .map(|(t, p)| (t.clone(), p.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Contents in catalog-resolved order: symbol keys sort by their
    /// interned strings (lexicographically, via
    /// [`Tuple::cmp_resolved`]), not by intern id — the order a user
    /// reading the view expects. Intern ids are assigned in
    /// first-appearance order, so [`Relation::sorted`] over string keys
    /// reflects insertion history, which is meaningless to a reader.
    pub fn sorted_resolved(&self, catalog: &crate::Catalog) -> Vec<(Tuple, R)> {
        let mut v: Vec<_> = self
            .data
            .iter()
            .map(|(t, p)| (t.clone(), p.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp_resolved(&b.0, catalog));
        v
    }

    /// Union `self ⊎ other`: payloads of equal keys sum (paper §2).
    pub fn union(&self, other: &Relation<R>) -> Relation<R> {
        assert_eq!(self.schema, other.schema, "union requires equal schemas");
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// In-place union (the view-update step `V := V ⊎ δV`).
    pub fn union_in_place(&mut self, other: &Relation<R>) {
        assert_eq!(self.schema, other.schema, "union requires equal schemas");
        for (t, p) in other.data.iter() {
            self.insert(t.clone(), p.clone());
        }
    }

    /// Natural join `self ⊗ other`: keys join on common variables,
    /// payloads multiply (paper §2). Output schema is `self.schema`
    /// followed by the remaining variables of `other`.
    pub fn join(&self, other: &Relation<R>) -> Relation<R> {
        let common = self.schema.intersect(&other.schema);
        let left_common = self.schema.positions_of(common.vars()).unwrap();
        let right_common = other.schema.positions_of(common.vars()).unwrap();
        let right_rest_vars = other.schema.minus(&common);
        let right_rest = other.schema.positions_of(right_rest_vars.vars()).unwrap();
        let out_schema = self.schema.union(&other.schema);

        // Probe the smaller side … but payload multiplication is ordered
        // (non-commutative rings), so always produce left*right.
        let mut index: Index<'_, R> = FxHashMap::default();
        for (t, p) in other.data.iter() {
            index
                .entry(t.project(&right_common))
                .or_default()
                .push((t, p));
        }
        let mut out = Relation::new(out_schema);
        for (lt, lp) in self.data.iter() {
            if let Some(matches) = index.get(&lt.project(&left_common)) {
                for (rt, rp) in matches {
                    out.insert(lt.concat_projected(rt, &right_rest), lp.mul(rp));
                }
            }
        }
        out
    }

    /// Aggregation `⊕X`: marginalizes variable `x` out of the schema,
    /// summing `payload * g_X(x-value)` per remaining key (paper §2).
    pub fn marginalize(&self, x: VarId, lifting: &Lifting<R>) -> Relation<R> {
        self.marginalize_many(&[(x, lifting.clone())])
    }

    /// Marginalize several variables at once (the composed-chain views of
    /// §3); liftings are applied in the order given.
    pub fn marginalize_many(&self, vars: &[(VarId, Lifting<R>)]) -> Relation<R> {
        let positions: Vec<usize> = vars
            .iter()
            .map(|(v, _)| self.schema.position(*v).expect("variable not in schema"))
            .collect();
        let mut rest_vars = self.schema.clone();
        for (v, _) in vars {
            rest_vars = rest_vars.without(*v);
        }
        let rest_pos = self.schema.positions_of(rest_vars.vars()).unwrap();
        let mut out = Relation::new(rest_vars);
        for (t, p) in self.data.iter() {
            let mut lifted = p.clone();
            for ((_, l), &pos) in vars.iter().zip(&positions) {
                if !l.is_one() {
                    lifted = lifted.mul(&l.lift(t.get(pos)));
                }
            }
            out.insert(t.project(&rest_pos), lifted);
        }
        out
    }

    /// Streaming join-aggregate `⊕_margins(c₀ ⊗ c₁ ⊗ … ⊗ c_k)` keyed by
    /// `out`: the fold `c₀.join(c₁)….join(c_k).marginalize_many(margins)
    /// .reorder(out)` without materializing the join.
    ///
    /// Each `cᵢ` is indexed on the variables it shares with `c₀ … cᵢ₋₁`.
    /// A depth-first walk then visits the join results in the fold's
    /// order, multiplies payloads as `((p₀·p₁)·…)·p_k`, applies the
    /// margins' liftings in margin order and ⊕-inserts under the output
    /// key. A zero partial product prunes its subtree, as the fold drops
    /// zero join keys. So the result, and per output key the summation
    /// order, equal the fold's in every ring, `f64` and non-commutative
    /// payloads included. Time is proportional to the join results
    /// enumerated; space is the output plus one index per child.
    ///
    /// No children is the empty join `{() → 1}`. `out` and the margin
    /// variables must partition the children's variables.
    pub fn join_aggregate(
        children: &[&Relation<R>],
        margins: &[(VarId, Lifting<R>)],
        out: &Schema,
    ) -> Relation<R> {
        let src = |v: VarId| -> Src {
            children
                .iter()
                .enumerate()
                .find_map(|(i, c)| Some((i, c.schema.position(v)?)))
                .unwrap_or_else(|| panic!("variable {v} is not in the join"))
        };
        let mut joined = Schema::empty();
        let mut steps = Vec::with_capacity(children.len());
        for c in children {
            let shared = joined.intersect(&c.schema);
            let key = c.schema.positions_of(shared.vars()).unwrap();
            let mut index: Index<'_, R> = FxHashMap::default();
            for (t, p) in c.data.iter() {
                index.entry(t.project(&key)).or_default().push((t, p));
            }
            steps.push((shared.iter().map(|&v| src(v)).collect(), index));
            joined = joined.union(&c.schema);
        }
        assert!(
            out.len() + margins.len() == joined.len()
                && margins
                    .iter()
                    .all(|(v, _)| joined.contains(*v) && !out.contains(*v)),
            "output and margin variables must partition the joined schema"
        );
        let walk = JoinWalk {
            steps,
            out_src: out.iter().map(|&v| src(v)).collect(),
            lifts: margins
                .iter()
                .filter(|(_, l)| !l.is_one())
                .map(|(v, l)| (l, src(*v)))
                .collect(),
        };
        let mut result = Relation::new(out.clone());
        walk.descend(&mut Vec::with_capacity(children.len()), None, &mut result);
        result
    }

    /// Reorder columns to `target` (a permutation of this schema).
    pub fn reorder(&self, target: &Schema) -> Relation<R> {
        if *target == self.schema {
            return self.clone();
        }
        let positions = self
            .schema
            .positions_of(target.vars())
            .expect("target schema must be a permutation of the relation schema");
        assert_eq!(target.len(), self.schema.len(), "reorder must not project");
        let mut out = Relation::new(target.clone());
        for (t, p) in self.data.iter() {
            out.insert(t.project(&positions), p.clone());
        }
        out
    }

    /// Map payloads through `f`, dropping zeros.
    pub fn map_payloads<S: Semiring>(&self, f: impl Fn(&Tuple, &R) -> S) -> Relation<S> {
        let mut out = Relation::new(self.schema.clone());
        for (t, p) in self.data.iter() {
            out.insert(t.clone(), f(t, p));
        }
        out
    }

    /// Approximate resident bytes (keys + payloads + per-entry overhead).
    pub fn approx_bytes(&self) -> usize {
        self.data
            .iter()
            .map(|(t, p)| t.approx_bytes() + std::mem::size_of::<R>() + p.heap_bytes() + 16)
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

/// Where a join binding holds a variable's value: (child, position).
type Src = (usize, usize);

/// A relation's entries grouped by a projection of their keys.
type Index<'a, R> = FxHashMap<Tuple, Vec<(&'a Tuple, &'a R)>>;

/// The depth-first walk of [`Relation::join_aggregate`].
struct JoinWalk<'a, R> {
    /// Per child: where the binding holds the variables it shares with
    /// the children before it, and its index on those variables.
    steps: Vec<(Vec<Src>, Index<'a, R>)>,
    out_src: Vec<Src>,
    /// The margins with non-trivial liftings, in margin order.
    lifts: Vec<(&'a Lifting<R>, Src)>,
}

impl<'a, R: Semiring> JoinWalk<'a, R> {
    /// Extend `binding` (one tuple per child so far, whose payloads
    /// multiply to `prod`; `None` before the first child) by each
    /// matching tuple of the next child, and ⊕-insert every complete
    /// binding's lifted product into `out`.
    fn descend(&self, binding: &mut Vec<&'a Tuple>, prod: Option<R>, out: &mut Relation<R>) {
        let Some((probe, index)) = self.steps.get(binding.len()) else {
            let mut lifted = prod.unwrap_or_else(R::one);
            for &(l, (c, p)) in &self.lifts {
                lifted = lifted.mul(&l.lift(binding[c].get(p)));
            }
            return out.insert_by(&gather(binding, &self.out_src), lifted);
        };
        for &(t, p) in index.get(&gather(binding, probe)).into_iter().flatten() {
            let next = prod.as_ref().map_or_else(|| p.clone(), |q| q.mul(p));
            if !next.is_zero() {
                binding.push(t);
                self.descend(binding, Some(next), out);
                binding.pop();
            }
        }
    }
}

/// The tuple of the values at `srcs` in a join binding.
fn gather(binding: &[&Tuple], srcs: &[Src]) -> Tuple {
    let values = srcs.iter().map(|&(c, p)| binding[c].get(p).clone());
    Tuple::build(srcs.len(), values)
}

impl<R: Ring> Relation<R> {
    /// The relation with all payloads negated (encodes deletion of the
    /// whole relation).
    pub fn neg(&self) -> Relation<R> {
        Relation {
            schema: self.schema.clone(),
            data: self
                .data
                .iter()
                .map(|(t, p)| (t.clone(), p.neg()))
                .collect(),
        }
    }
}

impl<R: Semiring> PartialEq for Relation<R> {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.data.len() == other.data.len()
            && self.data.iter().all(|(t, p)| other.data.get(t) == Some(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifting::int_identity;
    use crate::tuple;
    use crate::value::Value;

    fn sch(vars: &[u32]) -> Schema {
        Schema::new(vars.to_vec())
    }

    // Variables from the paper’s Example 2.1: A=0, B=1, C=2.
    fn example_2_1() -> (Relation<i64>, Relation<i64>, Relation<i64>) {
        let r = Relation::from_pairs(
            sch(&[0, 1]),
            [(tuple![1, 1], 10i64), (tuple![2, 1], 20)], // r1=10, r2=20
        );
        let s = Relation::from_pairs(
            sch(&[0, 1]),
            [(tuple![2, 1], 3i64), (tuple![3, 2], 4)], // s1=3, s2=4
        );
        let t = Relation::from_pairs(
            sch(&[1, 2]),
            [(tuple![1, 1], 5i64), (tuple![2, 2], 7)], // t1=5, t2=7
        );
        (r, s, t)
    }

    #[test]
    fn insert_sums_and_erases() {
        let mut r: Relation<i64> = Relation::new(sch(&[0]));
        r.insert(tuple![1], 2);
        r.insert(tuple![1], 3);
        assert_eq!(r.payload(&tuple![1]), 5);
        r.insert(tuple![1], -5);
        assert!(!r.contains(&tuple![1]));
        assert!(r.is_empty());
    }

    /// Paper Example 2.1: `R ⊎ S`.
    #[test]
    fn union_example() {
        let (r, s, _) = example_2_1();
        let u = r.union(&s);
        assert_eq!(u.payload(&tuple![1, 1]), 10);
        assert_eq!(u.payload(&tuple![2, 1]), 23); // r2 + s1
        assert_eq!(u.payload(&tuple![3, 2]), 4);
        assert_eq!(u.len(), 3);
    }

    /// Paper Example 2.1: `(R ⊎ S) ⊗ T`.
    #[test]
    fn join_example() {
        let (r, s, t) = example_2_1();
        let j = r.union(&s).join(&t);
        assert_eq!(*j.schema(), sch(&[0, 1, 2]));
        assert_eq!(j.payload(&tuple![1, 1, 1]), 50); // r1*t1
        assert_eq!(j.payload(&tuple![2, 1, 1]), 115); // (r2+s1)*t1
        assert_eq!(j.payload(&tuple![3, 2, 2]), 28); // s2*t2
        assert_eq!(j.len(), 3);
    }

    /// Paper Example 2.1: `⊕A (R ⊎ S) ⊗ T` with `g_A(a) = a`.
    #[test]
    fn marginalize_example() {
        let (r, s, t) = example_2_1();
        let j = r.union(&s).join(&t);
        let m = j.marginalize(0, &int_identity());
        assert_eq!(*m.schema(), sch(&[1, 2]));
        // b1,c1 → r1*t1*g(1) + (r2+s1)*t1*g(2) = 50*1 + 115*2 = 280
        assert_eq!(m.payload(&tuple![1, 1]), 280);
        // b2,c2 → s2*t2*g(3) = 28*3 = 84
        assert_eq!(m.payload(&tuple![2, 2]), 84);
    }

    #[test]
    fn join_on_disjoint_schemas_is_cartesian() {
        let a = Relation::from_pairs(sch(&[0]), [(tuple![1], 2i64), (tuple![2], 3)]);
        let b = Relation::from_pairs(sch(&[1]), [(tuple![7], 5i64)]);
        let ab = a.join(&b);
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.payload(&tuple![1, 7]), 10);
        assert_eq!(ab.payload(&tuple![2, 7]), 15);
    }

    #[test]
    fn join_with_unit_is_identity() {
        let (r, _, _) = example_2_1();
        assert_eq!(r.join(&Relation::unit()), r);
        // unit ⊗ r has r’s columns appended after unit’s none — same schema
        assert_eq!(Relation::unit().join(&r), r);
    }

    #[test]
    fn marginalize_many_equals_sequential() {
        let (r, s, t) = example_2_1();
        let j = r.union(&s).join(&t);
        let seq = j
            .marginalize(0, &int_identity())
            .marginalize(2, &Lifting::One);
        let many = j.marginalize_many(&[(0, int_identity()), (2, Lifting::One)]);
        assert_eq!(seq, many);
    }

    #[test]
    fn count_query_from_figure_2d() {
        // COUNT over the natural join of Figure 2c with all payloads 1.
        let mut c = crate::schema::Catalog::new();
        let (a, b, cc, d, e) = (c.var("A"), c.var("B"), c.var("C"), c.var("D"), c.var("E"));
        let r = Relation::from_pairs(
            Schema::new(vec![a, b]),
            (1..=4).map(|i| (tuple![if i <= 2 { 1 } else { i - 1 }, i], 1i64)),
        );
        // R = {(a1,b1),(a1,b2),(a2,b3),(a3,b4)}
        assert_eq!(r.len(), 4);
        let s = Relation::from_pairs(
            Schema::new(vec![a, cc, e]),
            [
                (tuple![1, 1, 1], 1i64),
                (tuple![1, 1, 2], 1),
                (tuple![1, 2, 3], 1),
                (tuple![2, 2, 4], 1),
            ],
        );
        let t = Relation::from_pairs(
            Schema::new(vec![cc, d]),
            [
                (tuple![1, 1], 1i64),
                (tuple![2, 2], 1),
                (tuple![2, 3], 1),
                (tuple![3, 4], 1),
            ],
        );
        // V@D_T[C] = ⊕D T
        let vt = t.marginalize(d, &Lifting::One);
        assert_eq!(vt.payload(&tuple![1]), 1);
        assert_eq!(vt.payload(&tuple![2]), 2);
        assert_eq!(vt.payload(&tuple![3]), 1);
        // V@E_S[A,C] = ⊕E S
        let vs = s.marginalize(e, &Lifting::One);
        assert_eq!(vs.payload(&tuple![1, 1]), 2);
        // V@C_ST[A] = ⊕C (V@D_T ⊗ V@E_S)
        let vst = vt.join(&vs).marginalize(cc, &Lifting::One);
        assert_eq!(vst.payload(&tuple![1]), 4);
        assert_eq!(vst.payload(&tuple![2]), 2);
        // V@B_R[A] = ⊕B R
        let vr = r.marginalize(b, &Lifting::One);
        assert_eq!(vr.payload(&tuple![1]), 2);
        // root = ⊕A (V@B_R ⊗ V@C_ST) = 10 (paper Figure 2d)
        let root = vr.join(&vst).marginalize(a, &Lifting::One);
        assert_eq!(root.payload(&Tuple::unit()), 10);
    }

    #[test]
    fn neg_then_union_cancels() {
        let (r, _, _) = example_2_1();
        let mut u = r.clone();
        u.union_in_place(&r.neg());
        assert!(u.is_empty());
    }

    #[test]
    fn map_payloads_drops_zeros() {
        let r = Relation::from_pairs(sch(&[0]), [(tuple![1], 2i64), (tuple![2], 3)]);
        let m = r.map_payloads(|_, p| if *p == 2 { 0i64 } else { *p });
        assert_eq!(m.len(), 1);
        assert_eq!(m.payload(&tuple![2]), 3);
    }

    /// The listing fold `join_aggregate` must equal.
    fn listing_fold<R: Semiring>(
        children: &[&Relation<R>],
        margins: &[(VarId, Lifting<R>)],
        out: &Schema,
    ) -> Relation<R> {
        let mut acc = match children.first() {
            None => Relation::unit(),
            Some(c) => (*c).clone(),
        };
        for c in children.iter().skip(1) {
            acc = acc.join(c);
        }
        acc.marginalize_many(margins).reorder(out)
    }

    /// Child schemas covering 1, 2 and 3+ children: chains, a
    /// Cartesian product, a star and a cycle (whose last child is fully
    /// bound by the earlier ones).
    const SHAPES: &[&[&[u32]]] = &[
        &[&[0, 1]],
        &[&[0, 1], &[1, 2]],
        &[&[0], &[1]],
        &[&[0, 1], &[1, 2], &[2, 3]],
        &[&[0, 1], &[1, 2], &[2, 0]],
        &[&[1, 0], &[0, 2], &[0, 3], &[3, 4]],
    ];

    /// Compare `join_aggregate` with the listing fold by `==` over
    /// random instances of every shape and three margin choices: every
    /// variable marginalized with `Lifting::One`, every other variable
    /// marginalized (the first with `lift(v)`) and the rest output in
    /// reverse order, and the whole join output in reverse order.
    fn differential<R: Semiring + std::fmt::Debug>(
        payload: impl Fn(usize, u64) -> R,
        lift: impl Fn(VarId) -> Lifting<R>,
    ) {
        let none: &[&Relation<R>] = &[];
        assert_eq!(
            Relation::join_aggregate(none, &[], &Schema::empty()),
            listing_fold(none, &[], &Schema::empty())
        );
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        for shape in SHAPES {
            for _ in 0..8 {
                let children: Vec<Relation<R>> = shape
                    .iter()
                    .enumerate()
                    .map(|(i, vars)| {
                        let pairs: Vec<(Tuple, R)> = (0..12)
                            .map(|_| {
                                let key = vars.iter().map(|_| Value::Int((next() % 3) as i64));
                                (Tuple::new(key.collect()), payload(i, next()))
                            })
                            .collect();
                        Relation::from_pairs(sch(vars), pairs)
                    })
                    .collect();
                let refs: Vec<&Relation<R>> = children.iter().collect();
                let joined = refs
                    .iter()
                    .fold(Schema::empty(), |s, c| s.union(c.schema()));
                let all_one: Vec<(VarId, Lifting<R>)> =
                    joined.iter().map(|&v| (v, Lifting::One)).collect();
                let alternate: Vec<(VarId, Lifting<R>)> = joined
                    .iter()
                    .step_by(2)
                    .enumerate()
                    .map(|(k, &v)| (v, if k == 0 { lift(v) } else { Lifting::One }))
                    .collect();
                let kept: Vec<u32> = joined.iter().skip(1).step_by(2).rev().copied().collect();
                let reversed: Vec<u32> = joined.iter().rev().copied().collect();
                for (margins, out) in [
                    (all_one, Schema::empty()),
                    (alternate, sch(&kept)),
                    (Vec::new(), sch(&reversed)),
                ] {
                    assert_eq!(
                        Relation::join_aggregate(&refs, &margins, &out),
                        listing_fold(&refs, &margins, &out),
                        "shape {shape:?}, margins {margins:?}"
                    );
                }
            }
        }
    }

    fn int(v: &Value) -> i64 {
        v.as_int().expect("integer key")
    }

    /// Payloads in −3..=3 cancel: output keys sum to zero, are erased
    /// and reappear; lifts `v − 1` zero a third of the join results.
    #[test]
    fn join_aggregate_matches_fold_i64() {
        differential(
            |_, x| (x % 7) as i64 - 3,
            |_| Lifting::from_fn(|v| int(v) - 1),
        );
    }

    /// Magnitudes 1e16 apart make every summation-order change visible.
    #[test]
    fn join_aggregate_matches_fold_f64_bit_for_bit() {
        const VALUES: [f64; 5] = [0.1, 1e16, -1e16, 0.7, -3.3];
        differential(
            |_, x| VALUES[(x % 5) as usize],
            |_| Lifting::from_fn(|v| 0.3 * int(v) as f64 + 0.1),
        );
    }

    #[test]
    fn join_aggregate_matches_fold_max_product() {
        use crate::ring::boolean::MaxProduct;
        differential(
            |_, x| MaxProduct((x % 10) as f64 / 10.0),
            |_| Lifting::from_fn(|v| MaxProduct(1.0 / (1 + int(v)) as f64)),
        );
    }

    /// Integer features keep every cofactor entry exact.
    #[test]
    fn join_aggregate_matches_fold_cofactor() {
        use crate::ring::cofactor::Cofactor;
        differential(
            |i, x| Cofactor::lift(i as u32, (x % 5) as f64 - 2.0),
            |v| Lifting::from_fn(move |x| Cofactor::lift(10 + v, int(x) as f64)),
        );
    }

    /// Non-commutative in the payload schema order: products must
    /// associate as the fold's.
    #[test]
    fn join_aggregate_matches_fold_relational() {
        use crate::ring::relational::RelPayload;
        differential(
            |i, x| RelPayload::singleton(sch(&[100 + i as u32]), tuple![(x % 2) as i64]),
            |v| Lifting::from_fn(move |x| RelPayload::lift_free(sch(&[200 + v]), x)),
        );
    }

    /// 2×2 integer matrices: a non-commutative ring with zero divisors.
    #[derive(Clone, Debug, PartialEq)]
    struct Mat2([i64; 4]);

    impl Semiring for Mat2 {
        fn zero() -> Self {
            Mat2([0; 4])
        }

        fn one() -> Self {
            Mat2([1, 0, 0, 1])
        }

        fn add_assign(&mut self, other: &Self) {
            for (a, b) in self.0.iter_mut().zip(other.0) {
                *a += b;
            }
        }

        fn mul(&self, other: &Self) -> Self {
            let ([a, b, c, d], [e, f, g, h]) = (self.0, other.0);
            Mat2([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])
        }
    }

    /// Products must associate and order as the fold's; singular
    /// entries in −1..=1 make partial products vanish and prune their
    /// subtrees.
    #[test]
    fn join_aggregate_matches_fold_noncommutative() {
        differential(
            |_, x| Mat2(std::array::from_fn(|k| (x >> (2 * k)) as i64 % 3 - 1)),
            |_| Lifting::from_fn(|v| Mat2([int(v), 1, 0, 1 - int(v)])),
        );
    }

    #[test]
    fn numeric_double_keys() {
        let mut r: Relation<f64> = Relation::new(sch(&[0]));
        r.insert(Tuple::single(Value::Double(1.5)), 2.0);
        r.insert(Tuple::single(Value::Double(1.5)), 0.5);
        assert_eq!(r.payload(&Tuple::single(Value::Double(1.5))), 2.5);
    }
}
