//! Stream synthesis (paper §7, Appendix C.1): “we run the systems over
//! data streams synthesized from these datasets by interleaving updates
//! to the input relations in a round-robin fashion and grouping them
//! into batches of fixed size”.

use fivm_core::Tuple;
use fivm_query::RelIndex;

/// One update batch: inserts into a single relation.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The updated relation.
    pub relation: RelIndex,
    /// The inserted tuples.
    pub tuples: Vec<Tuple>,
}

/// Interleave per-relation tuple lists round-robin into batches of
/// `batch_size`; relations drop out as they are exhausted.
pub fn interleave_round_robin(per_rel: &[Vec<Tuple>], batch_size: usize) -> Vec<Batch> {
    assert!(batch_size > 0);
    let mut cursors = vec![0usize; per_rel.len()];
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for (rel, tuples) in per_rel.iter().enumerate() {
            let cur = cursors[rel];
            if cur >= tuples.len() {
                continue;
            }
            let end = (cur + batch_size).min(tuples.len());
            out.push(Batch {
                relation: rel,
                tuples: tuples[cur..end].to_vec(),
            });
            cursors[rel] = end;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::tuple;

    fn tuples(n: usize, tag: i64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![tag, i as i64]).collect()
    }

    #[test]
    fn round_robin_alternates_relations() {
        let per_rel = vec![tuples(5, 0), tuples(3, 1)];
        let batches = interleave_round_robin(&per_rel, 2);
        let rels: Vec<usize> = batches.iter().map(|b| b.relation).collect();
        assert_eq!(rels, vec![0, 1, 0, 1, 0]);
        let total: usize = batches.iter().map(|b| b.tuples.len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn batch_sizes_respected() {
        let per_rel = vec![tuples(7, 0)];
        let batches = interleave_round_robin(&per_rel, 3);
        let sizes: Vec<usize> = batches.iter().map(|b| b.tuples.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn preserves_order_within_relation() {
        let per_rel = vec![tuples(4, 0), tuples(4, 1)];
        let batches = interleave_round_robin(&per_rel, 2);
        let rel0: Vec<Tuple> = batches
            .iter()
            .filter(|b| b.relation == 0)
            .flat_map(|b| b.tuples.clone())
            .collect();
        assert_eq!(rel0, tuples(4, 0));
    }

    #[test]
    fn empty_relations_skipped() {
        let per_rel = vec![Vec::new(), tuples(2, 1)];
        let batches = interleave_round_robin(&per_rel, 10);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].relation, 1);
    }
}
