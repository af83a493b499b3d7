//! IVM^ε adaptive heavy/light maintenance for triangle queries
//! (Kara et al., “Counting Triangles under Updates in Worst-Case
//! Optimal Time”, ICDT 2019), plugged into this crate's view storage.
//!
//! The classical engine maintains the triangle count with delta queries
//! that are O(N) per single-tuple update once a vertex is heavy (the
//! delta enumerates the vertex's neighborhood). [`TriangleHlEngine`]
//! instead keeps each relation split into a **heavy** and a **light**
//! part store by the degree of its partition key (cycle-first variable),
//! at threshold θ = Θ(N^ε), plus one materialized auxiliary view per
//! heavy⊗light pairing:
//!
//! ```text
//! Wₖ(vₖ, vₖ₊₂) = Σ_{vₖ₊₁} relₖᴴ(vₖ, vₖ₊₁) ⊗ relₖ₊₁ᴸ(vₖ₊₁, vₖ₊₂)
//! ```
//!
//! A single-tuple update δrelₖ(x, y) routes by the part of its join key
//! `y` in relₖ₊₁: if `y` is light the delta enumerates at most O(θ)
//! light tuples; if heavy, one O(1) probe of Wₖ₊₁ covers the
//! heavy⊗light term and a scan of the ≤ 2N/θ heavy keys of relₖ₊₂
//! covers heavy⊗heavy — O(N^ε + N^{1−ε}) total, O(√N) at ε = ½.
//! Keys migrate between parts only when their degree leaves the
//! hysteresis band `[θ/2, 2θ]`, so a migration's O(degree) cost is
//! amortized O(N^ε) per update; θ itself re-anchors lazily when the
//! database doubles or halves (docs/heavy-light.md has the full
//! invariants and the amortization argument).
//!
//! The engine maintains the **closed** (no group-by) aggregate over any
//! commutative [`Ring`] — the payload of a triangle is the product of
//! its three edge payloads in cycle order; deletions are negative
//! payloads exactly as everywhere else in the crate.

use crate::view::{SupportChange, ViewStore};
use fivm_core::ring::degree::{DegreeTracker, PartitionThreshold};
use fivm_core::{Delta, Relation, Ring, Schema, Tuple, Value};
use fivm_query::{PartitionError, QueryDef, RelIndex, TrianglePlan};

/// Tuning knobs for the adaptive layer.
#[derive(Clone, Copy, Debug)]
pub struct HlConfig {
    /// The ε of θ = Θ(N^ε); ½ minimizes N^ε + N^{1−ε}.
    pub epsilon: f64,
    /// Floor for θ, so tiny databases don't thrash migrations.
    pub min_theta: u32,
}

impl Default for HlConfig {
    fn default() -> Self {
        HlConfig {
            epsilon: 0.5,
            min_theta: 4,
        }
    }
}

/// Observability counters (tests assert migration storms actually
/// migrate; benches report the amortized cost drivers).
#[derive(Clone, Copy, Debug, Default)]
pub struct HlStats {
    /// Single-tuple updates applied.
    pub updates: u64,
    /// Light→heavy key promotions.
    pub promotions: u64,
    /// Heavy→light key demotions.
    pub demotions: u64,
    /// Tuples moved across part stores by migrations.
    pub tuples_migrated: u64,
    /// Times θ was re-anchored (database doubled/halved).
    pub rethresholds: u64,
}

/// The IVM^ε triangle engine: six part stores, three auxiliary views,
/// a per-relation degree tracker, and the update router.
///
/// All `[_; 3]` state is indexed by **cycle position** `k` of the
/// compiled [`TrianglePlan`] (`plan.cycle_of_rel` maps the query's
/// relation indices to cycle positions); part stores hold tuples in the
/// canonical `(partition key, other)` orientation.
#[derive(Clone, Debug)]
pub struct TriangleHlEngine<R> {
    query: QueryDef,
    plan: TrianglePlan,
    cfg: HlConfig,
    light: [ViewStore<R>; 3],
    heavy: [ViewStore<R>; 3],
    aux: [ViewStore<R>; 3],
    deg: [DegreeTracker; 3],
    /// First-column (partition-key) index of each light store.
    light_first: [usize; 3],
    /// First-column index of each heavy store (migrations enumerate it).
    heavy_first: [usize; 3],
    /// Second-column index of each heavy store (aux maintenance probes
    /// σ_{second=x} relₖ₊₂ᴴ on light-part updates).
    heavy_second: [usize; 3],
    threshold: PartitionThreshold,
    /// Distinct tuples across all three relations.
    n_tuples: usize,
    /// Population at the last θ anchor.
    n_anchor: usize,
    total: R,
    stats: HlStats,
}

impl<R: Ring> TriangleHlEngine<R> {
    /// Build the partitioned engine for a triangle query; fails with
    /// the structural reason if `q` is not a binary 3-cycle with no
    /// free variables.
    pub fn new(q: QueryDef, cfg: HlConfig) -> Result<Self, PartitionError> {
        let plan = TrianglePlan::build(&q)?;
        let mut light: [ViewStore<R>; 3] =
            std::array::from_fn(|k| ViewStore::new(plan.part_schema(k)));
        let mut heavy: [ViewStore<R>; 3] =
            std::array::from_fn(|k| ViewStore::new(plan.part_schema(k)));
        let aux: [ViewStore<R>; 3] = std::array::from_fn(|k| ViewStore::new(plan.aux_schema(k)));
        let light_first = std::array::from_fn(|k| light[k].ensure_index_on_positions(vec![0]));
        let heavy_first = std::array::from_fn(|k| heavy[k].ensure_index_on_positions(vec![0]));
        let heavy_second = std::array::from_fn(|k| heavy[k].ensure_index_on_positions(vec![1]));
        Ok(TriangleHlEngine {
            query: q,
            plan,
            cfg,
            light,
            heavy,
            aux,
            deg: std::array::from_fn(|_| DegreeTracker::new()),
            light_first,
            heavy_first,
            heavy_second,
            threshold: PartitionThreshold::for_size(0, cfg.epsilon, cfg.min_theta),
            n_tuples: 0,
            n_anchor: 1,
            total: R::zero(),
            stats: HlStats::default(),
        })
    }

    /// The query this engine maintains.
    pub fn query(&self) -> &QueryDef {
        &self.query
    }

    /// The compiled partition plan.
    pub fn plan(&self) -> &TrianglePlan {
        &self.plan
    }

    /// Current θ.
    pub fn theta(&self) -> u32 {
        self.threshold.theta
    }

    /// Counters.
    pub fn stats(&self) -> HlStats {
        self.stats
    }

    /// Distinct tuples across all three relations.
    pub fn tuple_count(&self) -> usize {
        self.n_tuples
    }

    /// Degree of `key` in the relation `rel` of the query.
    pub fn degree(&self, rel: RelIndex, key: &Value) -> u32 {
        self.deg[self.plan.cycle_of_rel[rel]].degree(key)
    }

    /// Part assignment of `key` in relation `rel`.
    pub fn is_heavy(&self, rel: RelIndex, key: &Value) -> bool {
        self.deg[self.plan.cycle_of_rel[rel]].is_heavy(key)
    }

    /// The maintained closed aggregate.
    pub fn total(&self) -> &R {
        &self.total
    }

    /// The result in the engine-wide convention: a unit-keyed relation,
    /// empty when the aggregate is zero (matches
    /// [`crate::IvmEngine::result`] for the same query).
    pub fn result(&self) -> Relation<R> {
        if self.total.is_zero() {
            Relation::new(Schema::empty())
        } else {
            Relation::from_pairs(Schema::empty(), [(Tuple::unit(), self.total.clone())])
        }
    }

    /// Apply a delta to relation `rel`, routing each tuple through the
    /// partitioned single-tuple path (factored deltas are flattened —
    /// the sub-linear bound is per tuple, there is no batch fan-out).
    pub fn apply(&mut self, rel: RelIndex, delta: &Delta<R>) {
        match delta {
            Delta::Flat(r) => {
                for (t, p) in r.iter() {
                    self.apply_update(rel, t, p.clone());
                }
            }
            Delta::Factored(_) => {
                for (t, p) in delta.flatten().iter() {
                    self.apply_update(rel, t, p.clone());
                }
            }
        }
    }

    /// The router: apply one single-tuple update `δrel(t) = payload`.
    pub fn apply_update(&mut self, rel: RelIndex, t: &Tuple, payload: R) {
        if payload.is_zero() {
            return;
        }
        self.stats.updates += 1;
        let k = self.plan.cycle_of_rel[rel];
        let kp1 = (k + 1) % 3;
        let kp2 = (k + 2) % 3;
        let x = t.get(self.plan.pos_part[k]).clone();
        let y = t.get(self.plan.pos_other[k]).clone();
        let key = Tuple::pair(x.clone(), y.clone());

        // 1. Count delta ΔQ = δ ⊗ Σ_z relₖ₊₁(y, z) ⊗ relₖ₊₂(z, x),
        //    routed by the part of y in relₖ₊₁ (this update has not yet
        //    touched any store, so every probe sees pre-update state —
        //    which is exactly what the delta formula needs).
        let mut dq = R::zero();
        if self.deg[kp1].is_heavy(&y) {
            // heavy ⊗ light: one auxiliary-view probe.
            if let Some(w) = self.aux[kp1].get(&Tuple::pair(y.clone(), x.clone())) {
                dq.add_assign(w);
            }
            // heavy ⊗ heavy: scan the heavy keys of relₖ₊₂ (≤ 2N/θ).
            for z in self.deg[kp2].heavy_keys() {
                if let Some(p1) = self.heavy[kp1].get(&Tuple::pair(y.clone(), z.clone())) {
                    if let Some(p2) = self.heavy[kp2].get(&Tuple::pair(z.clone(), x.clone())) {
                        dq.add_assign(&p1.mul(p2));
                    }
                }
            }
        } else {
            // y light: enumerate its ≤ 2θ tuples, probe both parts of
            // relₖ₊₂ pointwise.
            let yk = Tuple::single(y.clone());
            for (t1, p1) in self.light[kp1].probe(self.light_first[kp1], &yk) {
                let zx = Tuple::pair(t1.get(1).clone(), x.clone());
                if let Some(p2) = self.light[kp2].get(&zx) {
                    dq.add_assign(&p1.mul(p2));
                }
                if let Some(p2) = self.heavy[kp2].get(&zx) {
                    dq.add_assign(&p1.mul(p2));
                }
            }
        }
        self.total.add_assign(&payload.mul(&dq));

        // 2. Apply the delta to x's current part store.
        let x_heavy = self.deg[k].is_heavy(&x);
        let change = if x_heavy {
            self.heavy[k].insert_ref(&key, payload.clone())
        } else {
            self.light[k].insert_ref(&key, payload.clone())
        };

        // 3. Auxiliary-view maintenance: relₖᴴ feeds Wₖ, relₖᴸ feeds
        //    Wₖ₊₂ (as its second factor).
        if x_heavy {
            // Wₖ(x, w) += δ ⊗ relₖ₊₁ᴸ(y, w) — bounded by y's light degree.
            let yk = Tuple::single(y.clone());
            for (t1, pw) in self.light[kp1].probe(self.light_first[kp1], &yk) {
                self.aux[k].insert_ref(&Tuple::pair(x.clone(), t1.get(1).clone()), payload.mul(pw));
            }
        } else {
            // Wₖ₊₂(u, y) += relₖ₊₂ᴴ(u, x) ⊗ δ — bounded by the number
            // of heavy keys u of relₖ₊₂ (one tuple (u, x) each).
            let xk = Tuple::single(x.clone());
            for (t2, pu) in self.heavy[kp2].probe(self.heavy_second[kp2], &xk) {
                self.aux[kp2]
                    .insert_ref(&Tuple::pair(t2.get(0).clone(), y.clone()), pu.mul(&payload));
            }
        }

        // 4. Degree / population bookkeeping, then rebalance lazily.
        match change {
            SupportChange::Appeared => {
                self.deg[k].record(&x, 1);
                self.n_tuples += 1;
            }
            SupportChange::Disappeared => {
                self.deg[k].record(&x, -1);
                self.n_tuples -= 1;
            }
            SupportChange::Unchanged => {}
        }
        self.maybe_rethreshold();
        self.rebalance(k, &x);
    }

    /// Re-anchor θ when the population has doubled or halved since the
    /// last anchor. A θ change does **not** force migrations: keys
    /// rebalance lazily the next time they are touched, which keeps the
    /// re-anchor O(1) (the partition stays correct for *any*
    /// assignment; see module docs).
    fn maybe_rethreshold(&mut self) {
        if self.n_tuples >= self.n_anchor.saturating_mul(2)
            || (self.n_anchor >= 2 && self.n_tuples <= self.n_anchor / 2)
        {
            self.n_anchor = self.n_tuples.max(1);
            self.threshold =
                PartitionThreshold::for_size(self.n_tuples, self.cfg.epsilon, self.cfg.min_theta);
            self.stats.rethresholds += 1;
        }
    }

    /// Migrate `x` between parts of the relation at cycle position `k`
    /// if its degree left the hysteresis band.
    fn rebalance(&mut self, k: usize, x: &Value) {
        let d = self.deg[k].degree(x);
        if self.deg[k].is_heavy(x) {
            if self.threshold.demotes(d) {
                self.migrate(k, x, false);
            }
        } else if self.threshold.promotes(d) {
            self.migrate(k, x, true);
        }
    }

    /// Move all tuples of key `x` in the relation at cycle position `j`
    /// to the other part and fix up the two auxiliary views its parts
    /// feed: `Wⱼ` (over relⱼᴴ ⊗ relⱼ₊₁ᴸ) and `Wⱼ₊₂` (over relⱼ₊₂ᴴ ⊗
    /// relⱼᴸ). The maintained total is partition-invariant, so it does
    /// not change here — which is exactly what the migration-storm
    /// tests pin down.
    fn migrate(&mut self, j: usize, x: &Value, to_heavy: bool) {
        let jp1 = (j + 1) % 3;
        let jp2 = (j + 2) % 3;
        let xk = Tuple::single(x.clone());
        let moved: Vec<(Tuple, R)> = {
            let (src, ix) = if to_heavy {
                (&self.light[j], self.light_first[j])
            } else {
                (&self.heavy[j], self.heavy_first[j])
            };
            src.probe(ix, &xk)
                .map(|(t, p)| (t.clone(), p.clone()))
                .collect()
        };
        for (t, m) in &moved {
            if to_heavy {
                self.light[j].insert_ref(t, m.neg());
                self.heavy[j].insert_ref(t, m.clone());
            } else {
                self.heavy[j].insert_ref(t, m.neg());
                self.light[j].insert_ref(t, m.clone());
            }
        }
        for (t, m) in &moved {
            let v = t.get(1);
            // Wⱼ(x, w) gains (promotion) or loses (demotion) the
            // contribution m ⊗ relⱼ₊₁ᴸ(v, w).
            let vk = Tuple::single(v.clone());
            for (t1, pw) in self.light[jp1].probe(self.light_first[jp1], &vk) {
                let d = m.mul(pw);
                self.aux[j].insert_ref(
                    &Tuple::pair(x.clone(), t1.get(1).clone()),
                    if to_heavy { d } else { d.neg() },
                );
            }
            // Wⱼ₊₂(u, v) loses (promotion) or gains (demotion) the
            // contribution relⱼ₊₂ᴴ(u, x) ⊗ m.
            for (t2, pu) in self.heavy[jp2].probe(self.heavy_second[jp2], &xk) {
                let d = pu.mul(m);
                self.aux[jp2].insert_ref(
                    &Tuple::pair(t2.get(0).clone(), v.clone()),
                    if to_heavy { d.neg() } else { d },
                );
            }
        }
        self.deg[j].set_heavy(x, to_heavy);
        self.stats.tuples_migrated += moved.len() as u64;
        if to_heavy {
            self.stats.promotions += 1;
        } else {
            self.stats.demotions += 1;
        }
    }

    /// Recompute every piece of derived state from the part stores and
    /// compare: part-assignment consistency, degrees, auxiliary views,
    /// population, and the total (via an independent probe join). Test
    /// and debugging aid — O(N · max degree), not for the hot path.
    pub fn verify_consistency(&self) -> Result<(), String> {
        use fivm_core::FxHashMap;
        // Assignments and degrees.
        let mut n = 0usize;
        for k in 0..3 {
            let mut degrees: FxHashMap<Value, u32> = FxHashMap::default();
            for (t, _) in self.heavy[k].iter() {
                if !self.deg[k].is_heavy(t.get(0)) {
                    return Err(format!("rel {k}: {t:?} in heavy store but assigned light"));
                }
                *degrees.entry(t.get(0).clone()).or_insert(0) += 1;
            }
            for (t, _) in self.light[k].iter() {
                if self.deg[k].is_heavy(t.get(0)) {
                    return Err(format!("rel {k}: {t:?} in light store but assigned heavy"));
                }
                *degrees.entry(t.get(0).clone()).or_insert(0) += 1;
            }
            for (key, d) in &degrees {
                if self.deg[k].degree(key) != *d {
                    return Err(format!(
                        "rel {k}: degree of {key:?} is {} but stores hold {d}",
                        self.deg[k].degree(key)
                    ));
                }
            }
            if self.deg[k].tracked_keys()
                != degrees.len() + {
                    // heavy keys at degree 0 are tracked but store-absent
                    self.deg[k]
                        .heavy_keys()
                        .filter(|z| !degrees.contains_key(*z))
                        .count()
                }
            {
                return Err(format!("rel {k}: tracker holds stale keys"));
            }
            n += self.heavy[k].len() + self.light[k].len();
        }
        if n != self.n_tuples {
            return Err(format!("population {} but stores hold {n}", self.n_tuples));
        }
        // Auxiliary views.
        for k in 0..3 {
            let kp1 = (k + 1) % 3;
            let mut expect: FxHashMap<Tuple, R> = FxHashMap::default();
            for (th, ph) in self.heavy[k].iter() {
                let vk = Tuple::single(th.get(1).clone());
                for (tl, pl) in self.light[kp1].probe(self.light_first[kp1], &vk) {
                    expect
                        .entry(Tuple::pair(th.get(0).clone(), tl.get(1).clone()))
                        .or_insert_with(R::zero)
                        .add_assign(&ph.mul(pl));
                }
            }
            expect.retain(|_, p| !p.is_zero());
            if expect.len() != self.aux[k].len() {
                return Err(format!(
                    "W{k}: {} keys maintained, {} expected",
                    self.aux[k].len(),
                    expect.len()
                ));
            }
            for (t, p) in &expect {
                if self.aux[k].get(t) != Some(p) {
                    return Err(format!(
                        "W{k}[{t:?}] = {:?}, expected {p:?}",
                        self.aux[k].get(t)
                    ));
                }
            }
        }
        // Total, by an independent probe join over the part stores.
        let mut q = R::zero();
        for store0 in [&self.light[0], &self.heavy[0]] {
            for (t0, p0) in store0.iter() {
                let bk = Tuple::single(t0.get(1).clone());
                for (store1, ix1) in [
                    (&self.light[1], self.light_first[1]),
                    (&self.heavy[1], self.heavy_first[1]),
                ] {
                    for (t1, p1) in store1.probe(ix1, &bk) {
                        let ca = Tuple::pair(t1.get(1).clone(), t0.get(0).clone());
                        for store2 in [&self.light[2], &self.heavy[2]] {
                            if let Some(p2) = store2.get(&ca) {
                                q.add_assign(&p0.mul(p1).mul(p2));
                            }
                        }
                    }
                }
            }
        }
        if q != self.total {
            return Err(format!("total {:?}, recomputed {q:?}", self.total));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::tuple;

    fn engine(min_theta: u32) -> TriangleHlEngine<i64> {
        TriangleHlEngine::new(
            QueryDef::triangle(),
            HlConfig {
                epsilon: 0.5,
                min_theta,
            },
        )
        .unwrap()
    }

    fn upd(e: &mut TriangleHlEngine<i64>, rel: usize, a: i64, b: i64, m: i64) {
        e.apply_update(rel, &tuple![a, b], m);
    }

    #[test]
    fn counts_one_triangle() {
        let mut e = engine(4);
        upd(&mut e, 0, 1, 2, 1); // R(1,2)
        upd(&mut e, 1, 2, 3, 1); // S(2,3)
        assert_eq!(*e.total(), 0);
        upd(&mut e, 2, 3, 1, 1); // T(3,1)
        assert_eq!(*e.total(), 1);
        e.verify_consistency().unwrap();
        upd(&mut e, 2, 3, 1, -1);
        assert_eq!(*e.total(), 0);
        assert!(e.result().is_empty());
        e.verify_consistency().unwrap();
    }

    #[test]
    fn multiplicities_multiply() {
        let mut e = engine(4);
        upd(&mut e, 0, 1, 2, 2);
        upd(&mut e, 1, 2, 3, 3);
        upd(&mut e, 2, 3, 1, 5);
        assert_eq!(*e.total(), 30);
        // raising R's multiplicity adds (delta × S × T)
        upd(&mut e, 0, 1, 2, 1);
        assert_eq!(*e.total(), 45);
        e.verify_consistency().unwrap();
    }

    #[test]
    fn promotion_and_demotion_preserve_the_total() {
        let mut e = engine(1);
        // Hub a=0 in R: degree ramps past 2θ and must promote.
        for b in 0..32 {
            upd(&mut e, 0, 0, b, 1);
            upd(&mut e, 1, b, b + 100, 1);
            upd(&mut e, 2, b + 100, 0, 1);
            assert_eq!(*e.total(), b + 1, "b={b}");
        }
        e.verify_consistency().unwrap();
        assert!(e.is_heavy(0, &Value::Int(0)), "hub should be heavy");
        assert!(e.stats().promotions > 0);
        // Delete the hub's R-edges: total drains, key demotes, and the
        // emptied heavy key leaves no residue.
        for b in 0..32 {
            upd(&mut e, 0, 0, b, -1);
        }
        assert_eq!(*e.total(), 0);
        assert!(!e.is_heavy(0, &Value::Int(0)));
        assert!(e.stats().demotions > 0);
        e.verify_consistency().unwrap();
    }

    #[test]
    fn rejects_non_triangle_queries() {
        let q = QueryDef::example_rst(&[]);
        assert!(TriangleHlEngine::<i64>::new(q, HlConfig::default()).is_err());
    }

    #[test]
    fn flat_and_factored_deltas_route_through_the_same_path() {
        let q = QueryDef::triangle();
        let sch = q.relations[0].schema.clone();
        let mut e = engine(4);
        upd(&mut e, 1, 2, 3, 1);
        upd(&mut e, 2, 3, 1, 1);
        let d = Relation::from_pairs(sch, [(tuple![1, 2], 1i64)]);
        e.apply(0, &Delta::Flat(d));
        assert_eq!(*e.total(), 1);
        e.verify_consistency().unwrap();
    }
}
