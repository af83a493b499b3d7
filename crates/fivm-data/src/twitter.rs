//! The Twitter triangle workload (paper §7, Appendix C.1).
//!
//! The paper splits the first 3 M edges of the Higgs Twitter graph into
//! three equal relations `R(A,B)`, `S(B,C)`, `T(C,A)` and maintains
//! queries over the triangle join — the canonical cyclic query whose
//! intermediate views grow quadratically without indicator projections
//! (Appendix B, Figure 13). We substitute a seeded random directed
//! graph of the same shape: edges split round-robin into the three
//! relations over one node domain.

use crate::stream::Batch;
use fivm_core::{Tuple, Value};
use fivm_query::{QueryDef, VariableOrder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator knobs (paper: 3 M edges over ~456 k nodes; defaults are a
/// 1/100-scale instance with the same density).
#[derive(Clone, Debug)]
pub struct TwitterConfig {
    /// Total directed edges (split round-robin into R, S, T).
    pub edges: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        TwitterConfig {
            edges: 30_000,
            nodes: 4_500,
            seed: 0x7717,
        }
    }
}

/// The triangle query `Q△ = R(A,B) ⋈ S(B,C) ⋈ T(C,A)`.
pub fn query() -> QueryDef {
    QueryDef::triangle()
}

/// The paper’s variable order `A − B − C` (Appendix B / C.1).
pub fn variable_order(q: &QueryDef) -> VariableOrder {
    VariableOrder::parse("A - B - C", &q.catalog)
}

/// A generated triangle workload.
pub struct Twitter {
    /// The triangle query.
    pub query: QueryDef,
    /// The `A − B − C` order.
    pub order: VariableOrder,
    /// Tuples for R, S, T.
    pub tuples: Vec<Vec<Tuple>>,
}

/// Generate edges and split them round-robin into R, S, T (mirroring
/// the paper’s equal three-way split of the edge list).
pub fn generate(cfg: &TwitterConfig) -> Twitter {
    let q = query();
    let order = variable_order(&q);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut tuples: Vec<Vec<Tuple>> = vec![Vec::new(); 3];
    for e in 0..cfg.edges {
        let u = rng.gen_range(0..cfg.nodes) as i64;
        let v = rng.gen_range(0..cfg.nodes) as i64;
        tuples[e % 3].push(Tuple::new(vec![Value::Int(u), Value::Int(v)]));
    }
    Twitter {
        query: q,
        order,
        tuples,
    }
}

/// Knobs for the degree-skewed variant: a directed multigraph whose
/// endpoints are drawn i.i.d. from Zipf(s) over the node domain, so
/// vertex degrees follow a genuine power law with tail exponent `s`
/// (the heavy/light crossover workload; `s = 0` recovers the uniform
/// [`generate`] shape).
#[derive(Clone, Debug)]
pub struct ZipfTwitterConfig {
    /// Total directed edges (split round-robin into R, S, T).
    pub edges: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Zipf exponent of the endpoint distribution.
    pub exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ZipfTwitterConfig {
    fn default() -> Self {
        ZipfTwitterConfig {
            edges: 30_000,
            nodes: 4_500,
            exponent: 1.2,
            seed: 0x7717,
        }
    }
}

/// Generate a Zipf(s)-skewed edge stream: node id = popularity rank
/// (node 0 is the hub), both endpoints sampled independently, edges
/// split round-robin into R, S, T like [`generate`].
pub fn generate_zipf(cfg: &ZipfTwitterConfig) -> Twitter {
    let q = query();
    let order = variable_order(&q);
    let zipf = crate::zipf::Zipf::new(cfg.nodes, cfg.exponent);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut tuples: Vec<Vec<Tuple>> = vec![Vec::new(); 3];
    for e in 0..cfg.edges {
        let u = zipf.sample(&mut rng) as i64;
        let v = zipf.sample(&mut rng) as i64;
        tuples[e % 3].push(Tuple::new(vec![Value::Int(u), Value::Int(v)]));
    }
    Twitter {
        query: q,
        order,
        tuples,
    }
}

impl Twitter {
    /// Round-robin insert stream over R, S, T.
    pub fn stream(&self, batch_size: usize) -> Vec<Batch> {
        crate::stream::interleave_round_robin(&self.tuples, batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_three_way_split() {
        let t = generate(&TwitterConfig {
            edges: 300,
            nodes: 50,
            seed: 1,
        });
        assert_eq!(t.tuples[0].len(), 100);
        assert_eq!(t.tuples[1].len(), 100);
        assert_eq!(t.tuples[2].len(), 100);
    }

    #[test]
    fn order_is_valid_for_triangle() {
        let q = query();
        assert!(variable_order(&q).validate(&q).is_ok());
    }

    #[test]
    fn deterministic_and_in_range() {
        let cfg = TwitterConfig {
            edges: 100,
            nodes: 10,
            seed: 5,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.tuples, b.tuples);
        for rel in &a.tuples {
            for t in rel {
                assert!(t.get(0).as_int().unwrap() < 10);
                assert!(t.get(1).as_int().unwrap() < 10);
            }
        }
    }

    #[test]
    fn zipf_stream_is_deterministic_and_skewed() {
        let cfg = ZipfTwitterConfig {
            edges: 30_000,
            nodes: 2_000,
            exponent: 1.2,
            seed: 42,
        };
        let a = generate_zipf(&cfg);
        let b = generate_zipf(&cfg);
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.tuples[0].len(), 10_000);
        // Realized out-degree distribution of R carries the nominal
        // tail exponent (the property the crossover bench relies on).
        let mut counts = vec![0usize; cfg.nodes];
        for t in &a.tuples[0] {
            counts[t.get(0).as_int().unwrap() as usize] += 1;
        }
        let est = crate::zipf::fit_tail_exponent(&counts, 50);
        assert!(
            (est - cfg.exponent).abs() < 0.25,
            "tail exponent {est:.3} vs nominal {}",
            cfg.exponent
        );
        // ...and the hub is genuinely heavy, unlike the uniform shape.
        let uniform = generate(&TwitterConfig {
            edges: 30_000,
            nodes: 2_000,
            seed: 42,
        });
        let mut ucounts = vec![0usize; cfg.nodes];
        for t in &uniform.tuples[0] {
            ucounts[t.get(0).as_int().unwrap() as usize] += 1;
        }
        assert!(counts[0] > 10 * ucounts.iter().copied().max().unwrap());
    }

    #[test]
    fn dense_small_graph_has_triangles() {
        // with 10 nodes and 300 edges, triangles are near-certain
        let t = generate(&TwitterConfig {
            edges: 300,
            nodes: 10,
            seed: 3,
        });
        let mut r = fivm_core::Relation::<i64>::new(t.query.relations[0].schema.clone());
        let mut s = fivm_core::Relation::<i64>::new(t.query.relations[1].schema.clone());
        let mut tt = fivm_core::Relation::<i64>::new(t.query.relations[2].schema.clone());
        for x in &t.tuples[0] {
            r.insert(x.clone(), 1);
        }
        for x in &t.tuples[1] {
            s.insert(x.clone(), 1);
        }
        for x in &t.tuples[2] {
            tt.insert(x.clone(), 1);
        }
        let tri = r.join(&s).join(&tt);
        assert!(!tri.is_empty(), "expected at least one triangle");
    }
}
