//! Matrix workloads for the chain-multiplication experiments
//! (paper §6.1, Figure 6): dense random matrices, their relational
//! encodings, and rank-1 / rank-r update generators.

use fivm_core::{Relation, Schema, Tuple, Value};
use fivm_query::QueryDef;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A dense random `n × n` matrix with entries in `(−1, 1)` (the paper’s
/// matrix workload), as a row-major vector.
pub fn random_matrix(n: usize, rng: &mut SmallRng) -> Vec<f64> {
    (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// A chain of `k` random `n × n` matrices.
pub fn random_chain(k: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k).map(|_| random_matrix(n, &mut rng)).collect()
}

/// A random vector in `(−1, 1)ⁿ`.
pub fn random_vector(n: usize, rng: &mut SmallRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// The chain query `A[X1, Xk+1] = ⊕X2 … ⊕Xk  A1[X1,X2] ⊗ … ⊗ Ak[Xk,Xk+1]`
/// (paper §6.1), with `X1` and `X_{k+1}` free.
pub fn chain_query(k: usize) -> QueryDef {
    let names: Vec<String> = (1..=k + 1).map(|i| format!("X{i}")).collect();
    let rels: Vec<(String, Vec<&str>)> = (0..k)
        .map(|i| {
            (
                format!("A{}", i + 1),
                vec![names[i].as_str(), names[i + 1].as_str()],
            )
        })
        .collect();
    let rel_refs: Vec<(&str, &[&str])> = rels
        .iter()
        .map(|(n, a)| (n.as_str(), a.as_slice()))
        .collect();
    QueryDef::new(&rel_refs, &[names[0].as_str(), names[k].as_str()])
}

/// Encode a dense matrix as a relation over `(row_var, col_var)` with
/// `f64` payloads — the hash-map runtime of Figure 6.
pub fn matrix_relation(data: &[f64], n: usize, schema: Schema) -> Relation<f64> {
    assert_eq!(schema.len(), 2);
    let mut out = Relation::new(schema);
    for i in 0..n {
        for j in 0..n {
            out.insert(
                Tuple::new(vec![Value::Int(i as i64), Value::Int(j as i64)]),
                data[i * n + j],
            );
        }
    }
    out
}

/// Encode a vector as a unary relation over `var`.
pub fn vector_relation(v: &[f64], schema: Schema) -> Relation<f64> {
    assert_eq!(schema.len(), 1);
    let mut out = Relation::new(schema);
    for (i, &x) in v.iter().enumerate() {
        out.insert(Tuple::single(Value::Int(i as i64)), x);
    }
    out
}

/// A one-row update to an `n × n` matrix as rank-1 factors
/// `(e_row, diff)` (the Figure 6 left workload).
pub fn one_row_update(n: usize, row: usize, rng: &mut SmallRng) -> (Vec<f64>, Vec<f64>) {
    let mut u = vec![0.0; n];
    u[row] = 1.0;
    (u, random_vector(n, rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_query_shape() {
        let q = chain_query(3);
        assert_eq!(q.relations.len(), 3);
        assert_eq!(q.all_vars().len(), 4);
        assert_eq!(q.free.len(), 2);
        assert!(q.catalog.lookup("X1").is_some());
        assert!(q.catalog.lookup("X4").is_some());
    }

    #[test]
    fn matrix_relation_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 4;
        let data = random_matrix(n, &mut rng);
        let q = chain_query(1);
        let rel = matrix_relation(&data, n, q.relations[0].schema.clone());
        for i in 0..n {
            for j in 0..n {
                let t = Tuple::new(vec![Value::Int(i as i64), Value::Int(j as i64)]);
                let stored = rel.get(&t).copied().unwrap_or(0.0);
                assert_eq!(stored, data[i * n + j]);
            }
        }
    }

    #[test]
    fn one_row_update_is_rank1() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (u, v) = one_row_update(5, 2, &mut rng);
        assert_eq!(u.iter().filter(|&&x| x != 0.0).count(), 1);
        assert_eq!(u[2], 1.0);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn deterministic_chain() {
        assert_eq!(random_chain(2, 3, 7), random_chain(2, 3, 7));
        assert_ne!(random_chain(2, 3, 7), random_chain(2, 3, 8));
    }
}
