//! Matrix-chain maintenance through the **relational F-IVM engine**
//! (the paper's Figure 6 "hash" runtime): the chain
//! `A = A₁ · A₂ · … · A_k` is the query
//! `A[X1, X_{k+1}] = ⊕X2 … ⊕Xk  A1[X1,X2] ⊗ … ⊗ Ak[Xk,X_{k+1}]`
//! over the `f64` ring, maintained by [`fivm_engine::IvmEngine`].
//!
//! A rank-1 update `δA_i = u·vᵀ` is shipped as a **factored delta**
//! `δA_i = u[X_i] ⊗ v[X_{i+1}]` — two vectors, never the `p²` outer
//! product — and propagates through the engine's compiled factored
//! path: the `Optimize` rewrite (⊕ pushed into the factor binding the
//! marginalized variable) turns each path step into a matrix-vector
//! product at hash-map speed, which is the `O(p²)`-per-update claim of
//! §6.1 carried by the relational runtime instead of dense BLAS
//! ([`crate::linview::DenseChainIvm`] is the dense twin). The flat
//! foil ([`EngineChainIvm::apply_rank1_flat`]) ships the multiplied-out
//! `p²`-entry delta instead, paying the flat path's `O(p³)` join work.

use crate::matrix::Matrix;
use fivm_core::{Delta, LiftingMap, Relation, Schema, Tuple, Value};
use fivm_engine::{Database, IvmEngine};
use fivm_query::{QueryDef, VariableOrder, ViewTree};

/// F-IVM over the matrix chain, driven through the relational engine
/// with factorizable updates (see the module docs).
pub struct EngineChainIvm {
    engine: IvmEngine<f64>,
    /// Unary schema per chain variable `X1 … X_{k+1}`.
    var_schemas: Vec<Schema>,
    /// Relation schemas per chain position (the flat-foil delta shape).
    rel_schemas: Vec<Schema>,
    /// Positions of `[X1, X_{k+1}]` in the root view's key order.
    root_pos: Vec<usize>,
    rows: usize,
    cols: usize,
}

impl EngineChainIvm {
    /// Build the chain query `A1 ⋯ Ak` over the given matrices,
    /// load them, and compile the maintenance plans (every relation
    /// updatable). The variable order is the path
    /// `X1 - X_{k+1} - X_k - … - X2` — free variables on top, one
    /// marginalized variable per inner view, the §6.1 shape.
    pub fn new(mats: Vec<Matrix>) -> Self {
        let k = mats.len();
        assert!(k >= 1, "empty chain");
        for w in mats.windows(2) {
            assert_eq!(w[0].cols(), w[1].rows(), "chain dimensions must agree");
        }
        let names: Vec<String> = (1..=k + 1).map(|i| format!("X{i}")).collect();
        let rels: Vec<(String, [&str; 2])> = (0..k)
            .map(|i| {
                (
                    format!("A{}", i + 1),
                    [names[i].as_str(), names[i + 1].as_str()],
                )
            })
            .collect();
        let rel_slices: Vec<(&str, &[&str])> =
            rels.iter().map(|(n, a)| (n.as_str(), &a[..])).collect();
        let query = QueryDef::new(&rel_slices, &[names[0].as_str(), names[k].as_str()]);

        let mut order = format!("{} - {}", names[0], names[k]);
        for name in names[1..k].iter().rev() {
            order.push_str(" - ");
            order.push_str(name);
        }
        let vo = VariableOrder::parse(&order, &query.catalog);
        let tree = ViewTree::build(&query, &vo);
        let updatable: Vec<usize> = (0..k).collect();
        let mut engine = IvmEngine::new(query.clone(), tree, &updatable, LiftingMap::new());

        let var_schemas: Vec<Schema> = names
            .iter()
            .map(|n| Schema::new(vec![query.catalog.lookup(n).unwrap()]))
            .collect();
        let rel_schemas: Vec<Schema> = query.relations.iter().map(|r| r.schema.clone()).collect();
        let root_keys = &engine.tree().nodes[engine.tree().root].keys;
        let root_pos = root_keys
            .positions_of(&[
                query.catalog.lookup(&names[0]).unwrap(),
                query.catalog.lookup(&names[k]).unwrap(),
            ])
            .expect("root keys are the free variables");

        let mut db = Database::<f64>::empty(&query);
        for (i, m) in mats.iter().enumerate() {
            db.relations[i] = matrix_relation(m, rel_schemas[i].clone());
        }
        engine.load(&db);
        EngineChainIvm {
            engine,
            var_schemas,
            rel_schemas,
            root_pos,
            rows: mats[0].rows(),
            cols: mats[k - 1].cols(),
        }
    }

    /// Apply the rank-1 update `δA_i = u·vᵀ` as the factored delta
    /// `u[X_{i+1's row var}] ⊗ v[col var]` — the compiled factored
    /// fast path (or the general factor path when disabled via
    /// [`EngineChainIvm::set_fast_path`]).
    pub fn apply_rank1(&mut self, i: usize, u: &[f64], v: &[f64]) {
        let du = vector_relation(u, self.var_schemas[i].clone());
        let dv = vector_relation(v, self.var_schemas[i + 1].clone());
        self.engine.apply(i, &Delta::factored(vec![du, dv]));
    }

    /// Apply a rank-r update as a sequence of rank-1 updates (paper:
    /// "F-IVM processes δA₂ as a sequence of r rank-1 updates").
    pub fn apply_rank_r(&mut self, i: usize, factors: &[(Vec<f64>, Vec<f64>)]) {
        for (u, v) in factors {
            self.apply_rank1(i, u, v);
        }
    }

    /// The flat foil: the same rank-1 update multiplied out into its
    /// `p²`-entry listing form and shipped as a flat delta — what a
    /// system without factorizable updates must do.
    pub fn apply_rank1_flat(&mut self, i: usize, u: &[f64], v: &[f64]) {
        let mut delta = Relation::new(self.rel_schemas[i].clone());
        for (r, &uu) in u.iter().enumerate() {
            if uu == 0.0 {
                continue;
            }
            for (c, &vv) in v.iter().enumerate() {
                let p = uu * vv;
                if p != 0.0 {
                    delta.insert(Tuple::pair(Value::Int(r as i64), Value::Int(c as i64)), p);
                }
            }
        }
        self.engine.apply(i, &Delta::Flat(delta));
    }

    /// The maintained product `A₁ ⋯ A_k`, read back densely from the
    /// root view (absent keys are exact zeros).
    pub fn product(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let root = self.engine.tree().root;
        let store = self
            .engine
            .view_store(root)
            .expect("root is always materialized");
        for (t, p) in store.iter() {
            let (i, j) = match (t.get(self.root_pos[0]), t.get(self.root_pos[1])) {
                (Value::Int(i), Value::Int(j)) => (*i as usize, *j as usize),
                _ => unreachable!("chain keys are integer indices"),
            };
            out.set(i, j, *p);
        }
        out
    }

    /// Toggle the engine's compiled fast paths (the general factor
    /// path is the measurement foil).
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.engine.set_fast_path(enabled);
    }

    /// The underlying engine (view counts, memory accounting, …).
    pub fn engine(&self) -> &IvmEngine<f64> {
        &self.engine
    }
}

/// Encode a dense matrix as a relation over `(row, col)` keys.
fn matrix_relation(m: &Matrix, schema: Schema) -> Relation<f64> {
    let mut out = Relation::new(schema);
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            let x = m.get(i, j);
            if x != 0.0 {
                out.insert(Tuple::pair(Value::Int(i as i64), Value::Int(j as i64)), x);
            }
        }
    }
    out
}

/// Encode a vector as a unary relation, skipping exact zeros (a zero
/// coefficient contributes nothing to any product — this is what makes
/// a one-row update's `e_row` factor a single tuple).
fn vector_relation(v: &[f64], schema: Schema) -> Relation<f64> {
    let mut out = Relation::new(schema);
    for (i, &x) in v.iter().enumerate() {
        if x != 0.0 {
            out.insert(Tuple::single(Value::Int(i as i64)), x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linview::{DenseChainIvm, ReEvalChain};

    fn mats(k: usize, n: usize) -> Vec<Matrix> {
        (0..k)
            .map(|m| {
                Matrix::from_fn(n, n, |i, j| {
                    ((i * 31 + j * 17 + m * 7) % 10) as f64 * 0.1 - 0.45
                })
            })
            .collect()
    }

    #[test]
    fn engine_chain_matches_dense_on_load() {
        let base = mats(3, 6);
        let re = ReEvalChain::new(base.clone());
        let ec = EngineChainIvm::new(base);
        assert!(ec.product().approx_eq(re.product(), 1e-9));
    }

    #[test]
    fn rank1_updates_match_dense_fivm() {
        let base = mats(3, 8);
        let mut dense = DenseChainIvm::new(base.clone());
        let mut ec = EngineChainIvm::new(base);
        for pos in 0..3 {
            let u: Vec<f64> = (0..8).map(|i| ((i + pos) % 5) as f64 * 0.3 - 0.2).collect();
            let v: Vec<f64> = (0..8).map(|i| ((i * 2 + pos) % 7) as f64 * 0.1).collect();
            dense.apply_rank1(pos, &u, &v);
            ec.apply_rank1(pos, &u, &v);
            assert!(
                ec.product().approx_eq(dense.product(), 1e-8),
                "diverged after rank-1 update to A{pos}"
            );
        }
    }

    #[test]
    fn factored_flat_and_general_agree() {
        let base = mats(3, 6);
        let mut fact = EngineChainIvm::new(base.clone());
        let mut flat = EngineChainIvm::new(base.clone());
        let mut gen = EngineChainIvm::new(base);
        gen.set_fast_path(false);
        // one-row update (sparse u) and a negative (delete-style) update
        let updates: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (
                (0..6).map(|i| if i == 2 { 1.0 } else { 0.0 }).collect(),
                (0..6).map(|i| i as f64 * 0.2 - 0.5).collect(),
            ),
            (
                (0..6).map(|i| -((i % 3) as f64) * 0.4).collect(),
                (0..6).map(|i| ((i + 1) % 4) as f64 * 0.25).collect(),
            ),
        ];
        for (u, v) in &updates {
            fact.apply_rank1(1, u, v);
            flat.apply_rank1_flat(1, u, v);
            gen.apply_rank1(1, u, v);
            assert!(fact.product().approx_eq(&flat.product(), 1e-9));
            assert!(fact.product().approx_eq(&gen.product(), 1e-9));
        }
    }

    #[test]
    fn rank_r_and_longer_chains() {
        for k in [2usize, 4, 5] {
            let base = mats(k, 5);
            let mut dense = DenseChainIvm::new(base.clone());
            let mut ec = EngineChainIvm::new(base);
            let factors: Vec<(Vec<f64>, Vec<f64>)> = (0..3)
                .map(|r| {
                    (
                        (0..5).map(|i| ((i + r) % 4) as f64 * 0.3).collect(),
                        (0..5)
                            .map(|i| ((i * r + 1) % 5) as f64 * 0.2 - 0.3)
                            .collect(),
                    )
                })
                .collect();
            let pos = k / 2;
            dense.apply_rank_r(pos, &factors);
            ec.apply_rank_r(pos, &factors);
            assert!(
                ec.product().approx_eq(dense.product(), 1e-8),
                "diverged on chain of length {k}"
            );
        }
    }

    #[test]
    fn non_square_chain_through_engine() {
        let a = Matrix::from_fn(4, 6, |i, j| (i + j) as f64 * 0.1);
        let b = Matrix::from_fn(6, 3, |i, j| (i as f64 - j as f64) * 0.2);
        let c = Matrix::from_fn(3, 5, |i, j| ((i * j) % 3) as f64);
        let mut re = ReEvalChain::new(vec![a.clone(), b.clone(), c.clone()]);
        let mut ec = EngineChainIvm::new(vec![a, b, c]);
        let u: Vec<f64> = vec![0.0, 1.0, 0.0, 0.5, 0.0, 0.0];
        let v: Vec<f64> = vec![0.5, -0.5, 1.0];
        let mut delta = Matrix::zeros(6, 3);
        delta.add_outer(&u, &v);
        re.apply(1, &delta);
        ec.apply_rank1(1, &u, &v);
        assert!(ec.product().approx_eq(re.product(), 1e-9));
    }
}
