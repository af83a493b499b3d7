//! Static verifier for the engine's compiled plan IRs.
//!
//! The engine exports each compiled `FastPlan` / `FactoredPlan` as a
//! neutral IR (plain variable ids and slot indices — no engine types),
//! and the checks here re-simulate the plan **symbolically over
//! schemas**: the delta schema is threaded through every sibling join,
//! margin lift and projection, and each compiled position is checked
//! against what the schema simulation says it must be. A plan that
//! passes cannot read out of bounds, probe an index with a
//! wrong-ordered key, alias a factor slot, or project onto the wrong
//! key order — before the first tuple ever flows through it.

/// Marker for a full-key probe (no secondary index involved).
pub const FULL_KEY: usize = usize::MAX;

/// Neutral description of the view tree the plans compile against.
pub struct PlanCtx {
    /// Key schema (variable ids, in order) of every view-tree node.
    pub node_keys: Vec<Vec<u32>>,
    /// Whether each node has a materialized store (probe-able).
    pub materialized: Vec<bool>,
    /// Secondary indexes per node: each index is its key positions
    /// into the node's key tuple, in index key order.
    pub node_indexes: Vec<Vec<Vec<usize>>>,
}

/// One sibling join of a compiled step. A step the engine compiles in
/// two sibling orders is exported once per order, each as its own
/// [`FastStepIr`].
pub struct SiblingIr {
    /// The node whose store is probed. An indicator that reads its
    /// relation's leaf store is named by that leaf (same keys, same
    /// order), so index ids resolve against the store actually probed.
    pub node: usize,
    pub full_key: bool,
    /// Positions in the current delta tuple forming the probe key.
    pub probe_pos: Vec<usize>,
    /// Positions in the sibling's key tuple appended to the delta.
    pub rest_pos: Vec<usize>,
    /// Secondary-index id ([`FULL_KEY`] for full-key probes).
    pub index_id: usize,
}

pub struct FastStepIr {
    pub node: usize,
    pub store: bool,
    pub siblings: Vec<SiblingIr>,
    /// Positions of non-trivial margin lifts in the joined tuple.
    pub lift_pos: Vec<usize>,
    /// Projection of the joined tuple onto the node's key order.
    pub out_pos: Vec<usize>,
}

pub struct FastPlanIr {
    pub entry: usize,
    pub entry_schema: Vec<u32>,
    pub steps: Vec<FastStepIr>,
}

/// Fused margin-lift + projection on a factor.
pub struct FusedIr {
    pub lift_pos: Vec<usize>,
    pub out_pos: Vec<usize>,
}

pub enum FactorOpIr {
    Cross {
        a: usize,
        b: usize,
        out: usize,
    },
    Adopt {
        node: usize,
        out: usize,
    },
    Join {
        input: usize,
        out: usize,
        sib: SiblingIr,
        fused: Option<FusedIr>,
    },
    Fold {
        input: usize,
        out: usize,
        fused: FusedIr,
    },
}

/// Flatten of (at most two) live slots into a store's key order.
pub struct FlattenIr {
    pub a: usize,
    pub b: Option<usize>,
    pub out_pos: Vec<usize>,
}

pub struct FactoredStepIr {
    pub node: usize,
    pub live_in: Vec<usize>,
    pub ops: Vec<FactorOpIr>,
    pub store: Option<FlattenIr>,
}

pub struct FactoredPlanIr {
    pub entry: usize,
    /// Schemas of the input factor slots `0..shape_len`.
    pub shape: Vec<Vec<u32>>,
    pub n_slots: usize,
    pub entry_store: Option<FactoredStepIr>,
    pub steps: Vec<FactoredStepIr>,
}

/// One verifier finding. `rule` is a stable machine-readable code;
/// `at` locates the defect inside the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub at: String,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.at, self.message)
    }
}

struct Sink {
    findings: Vec<Finding>,
    at: String,
}

impl Sink {
    fn new() -> Self {
        Sink {
            findings: Vec::new(),
            at: String::new(),
        }
    }

    fn emit(&mut self, rule: &'static str, message: String) {
        self.findings.push(Finding {
            rule,
            at: self.at.clone(),
            message,
        });
    }
}

impl PlanCtx {
    fn keys(&self, node: usize) -> Option<&Vec<u32>> {
        self.node_keys.get(node)
    }
}

/// Verify one sibling probe against the current delta schema; returns
/// the schema after the join (the delta with the sibling's rest
/// columns appended) or `None` if the probe is too broken to continue.
fn verify_sibling(
    ctx: &PlanCtx,
    sib: &SiblingIr,
    cur: &[u32],
    sink: &mut Sink,
) -> Option<Vec<u32>> {
    let Some(sib_keys) = ctx.keys(sib.node) else {
        sink.emit(
            "sibling-node-oob",
            format!("sibling node {} not in the view tree", sib.node),
        );
        return None;
    };
    if !ctx.materialized.get(sib.node).copied().unwrap_or(false) {
        sink.emit(
            "sibling-not-materialized",
            format!("sibling node {} probed but not materialized", sib.node),
        );
    }
    for &p in &sib.probe_pos {
        if p >= cur.len() {
            sink.emit(
                "probe-pos-oob",
                format!(
                    "probe position {p} out of bounds for delta arity {}",
                    cur.len()
                ),
            );
            return None;
        }
    }
    if sib.full_key {
        if sib.index_id != FULL_KEY {
            sink.emit(
                "full-key-index-id",
                format!("full-key probe carries index id {}", sib.index_id),
            );
        }
        if !sib.rest_pos.is_empty() {
            sink.emit(
                "full-key-rest",
                format!("full-key probe appends {} rest columns", sib.rest_pos.len()),
            );
        }
        if sib.probe_pos.len() != sib_keys.len() {
            sink.emit(
                "probe-arity",
                format!(
                    "full-key probe arity {} != sibling key arity {}",
                    sib.probe_pos.len(),
                    sib_keys.len()
                ),
            );
            return None;
        }
        // The probe must present the sibling's key variables in the
        // sibling's own column order.
        for (i, &p) in sib.probe_pos.iter().enumerate() {
            if cur[p] != sib_keys[i] {
                sink.emit(
                    "probe-key-order",
                    format!(
                        "probe column {i} carries var {} but the sibling's key column {i} is var {}",
                        cur[p], sib_keys[i]
                    ),
                );
            }
        }
        return Some(cur.to_vec());
    }
    // Partial-key probe through a secondary index.
    let indexes = ctx
        .node_indexes
        .get(sib.node)
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    let Some(ipos) = indexes.get(sib.index_id) else {
        sink.emit(
            "index-id-unresolvable",
            format!(
                "index id {} not registered on node {} ({} indexes exist)",
                sib.index_id,
                sib.node,
                indexes.len()
            ),
        );
        return None;
    };
    if sib.probe_pos.len() != ipos.len() {
        sink.emit(
            "probe-arity",
            format!(
                "probe arity {} != index key arity {}",
                sib.probe_pos.len(),
                ipos.len()
            ),
        );
        return None;
    }
    // The probe must present the index's key variables in index key
    // order: position i of the probe must carry the variable the
    // index's i-th key column is built from.
    for (i, (&p, &ip)) in sib.probe_pos.iter().zip(ipos.iter()).enumerate() {
        if ip >= sib_keys.len() {
            sink.emit(
                "index-pos-oob",
                format!(
                    "index key column {i} reads sibling position {ip}, arity {}",
                    sib_keys.len()
                ),
            );
            return None;
        }
        if cur[p] != sib_keys[ip] {
            sink.emit(
                "probe-key-order",
                format!(
                    "probe column {i} carries var {} but index key column {i} is var {}",
                    cur[p], sib_keys[ip]
                ),
            );
        }
    }
    // The rest columns must be exactly the sibling variables the delta
    // does not already bind, in sibling order, with no duplicates.
    let expected_rest: Vec<usize> = (0..sib_keys.len())
        .filter(|&i| !cur.contains(&sib_keys[i]))
        .collect();
    if sib.rest_pos != expected_rest {
        sink.emit(
            "rest-columns",
            format!(
                "rest positions {:?} != expected complement {:?} of the probed variables",
                sib.rest_pos, expected_rest
            ),
        );
    }
    let mut joined = cur.to_vec();
    for &r in &sib.rest_pos {
        if r >= sib_keys.len() {
            sink.emit(
                "rest-pos-oob",
                format!(
                    "rest position {r} out of bounds for sibling arity {}",
                    sib_keys.len()
                ),
            );
            return None;
        }
        joined.push(sib_keys[r]);
    }
    Some(joined)
}

/// Verify a projection `out_pos` of `cur` onto `target`: in-bounds,
/// duplicate-free, and variable-exact in target order.
fn verify_projection(
    rule_prefix: &'static str,
    cur: &[u32],
    out_pos: &[usize],
    target: &[u32],
    sink: &mut Sink,
) {
    if out_pos.len() != target.len() {
        sink.emit(
            "projection-arity",
            format!(
                "{rule_prefix}: projection arity {} != target key arity {}",
                out_pos.len(),
                target.len()
            ),
        );
        return;
    }
    let mut seen = vec![false; cur.len()];
    for (i, &p) in out_pos.iter().enumerate() {
        if p >= cur.len() {
            sink.emit(
                "projection-oob",
                format!(
                    "{rule_prefix}: projection position {p} out of bounds for arity {}",
                    cur.len()
                ),
            );
            return;
        }
        if seen[p] {
            sink.emit(
                "projection-dup",
                format!("{rule_prefix}: projection reads position {p} twice"),
            );
        }
        seen[p] = true;
        if cur[p] != target[i] {
            sink.emit(
                "projection-order",
                format!(
                    "{rule_prefix}: output column {i} carries var {} but the target key column {i} is var {}",
                    cur[p], target[i]
                ),
            );
        }
    }
}

/// Verify lift positions: in-bounds and only on columns the projection
/// drops (a lifted variable is marginalized out, never retained).
fn verify_lifts(lift_pos: &[usize], cur: &[u32], out_pos: &[usize], sink: &mut Sink) {
    for &p in lift_pos {
        if p >= cur.len() {
            sink.emit(
                "lift-pos-oob",
                format!("lift position {p} out of bounds for arity {}", cur.len()),
            );
        } else if out_pos.contains(&p) {
            sink.emit(
                "lift-retained",
                format!("lift position {p} is also retained by the output projection"),
            );
        }
    }
}

/// Typecheck a compiled flat-delta plan against the view tree.
pub fn verify_fast_plan(ctx: &PlanCtx, plan: &FastPlanIr) -> Vec<Finding> {
    let mut sink = Sink::new();
    sink.at = format!("fast-plan entry {}", plan.entry);
    match ctx.keys(plan.entry) {
        None => {
            sink.emit(
                "entry-node-oob",
                format!("entry node {} not in the view tree", plan.entry),
            );
            return sink.findings;
        }
        Some(keys) => {
            if &plan.entry_schema != keys {
                sink.emit(
                    "entry-schema",
                    format!(
                        "entry delta schema {:?} != entry node keys {:?}",
                        plan.entry_schema, keys
                    ),
                );
            }
        }
    }
    let mut cur = plan.entry_schema.clone();
    for (si, step) in plan.steps.iter().enumerate() {
        let Some(node_keys) = ctx.keys(step.node).cloned() else {
            sink.at = format!("fast-plan step {si}");
            sink.emit(
                "step-node-oob",
                format!("step node {} not in the view tree", step.node),
            );
            return sink.findings;
        };
        for (bi, sib) in step.siblings.iter().enumerate() {
            sink.at = format!("fast-plan step {si} sibling {bi} (node {})", sib.node);
            match verify_sibling(ctx, sib, &cur, &mut sink) {
                Some(joined) => cur = joined,
                None => return sink.findings,
            }
        }
        sink.at = format!("fast-plan step {si} (node {})", step.node);
        verify_projection("step output", &cur, &step.out_pos, &node_keys, &mut sink);
        verify_lifts(&step.lift_pos, &cur, &step.out_pos, &mut sink);
        if step.store && !ctx.materialized.get(step.node).copied().unwrap_or(false) {
            sink.emit(
                "store-not-materialized",
                format!("step stores into node {} which has no store", step.node),
            );
        }
        cur = node_keys;
    }
    sink.findings
}

/// Slot dataflow state during factored-plan verification.
struct Slots {
    /// `Some(schema)` once written; `None` = never assigned yet.
    schema: Vec<Option<Vec<u32>>>,
}

impl Slots {
    fn read(&self, slot: usize, what: &str, sink: &mut Sink) -> Option<Vec<u32>> {
        match self.schema.get(slot) {
            Some(Some(s)) => Some(s.clone()),
            Some(None) => {
                sink.emit(
                    "slot-read-before-write",
                    format!("{what} reads slot {slot} before any op assigns it"),
                );
                None
            }
            None => {
                sink.emit("slot-oob", format!("{what} reads slot {slot} >= n_slots"));
                None
            }
        }
    }

    fn write(&mut self, slot: usize, schema: Vec<u32>, shape_len: usize, sink: &mut Sink) {
        match self.schema.get_mut(slot) {
            None => sink.emit("slot-oob", format!("op writes slot {slot} >= n_slots")),
            Some(existing) => {
                if slot < shape_len {
                    sink.emit(
                        "input-slot-overwritten",
                        format!("op overwrites input factor slot {slot} (inputs must stay live)"),
                    );
                } else if existing.is_some() {
                    sink.emit(
                        "slot-double-assignment",
                        format!("slot {slot} assigned twice (slots are single-assignment)"),
                    );
                }
                *existing = Some(schema);
            }
        }
    }
}

fn apply_fused(fused: &FusedIr, cur: &[u32], sink: &mut Sink) -> Vec<u32> {
    verify_lifts(&fused.lift_pos, cur, &fused.out_pos, sink);
    let mut out = Vec::with_capacity(fused.out_pos.len());
    let mut seen = vec![false; cur.len()];
    for &p in &fused.out_pos {
        if p >= cur.len() {
            sink.emit(
                "projection-oob",
                format!(
                    "fused projection position {p} out of bounds for arity {}",
                    cur.len()
                ),
            );
            return out;
        }
        if seen[p] {
            sink.emit(
                "projection-dup",
                format!("fused projection reads position {p} twice"),
            );
        }
        seen[p] = true;
        out.push(cur[p]);
    }
    // Every column that is dropped but not lifted would silently
    // discard a bound variable without marginalizing it — in the
    // compiled plans only trivially-lifted (lifting = 1) margins may
    // be dropped bare, which the IR cannot distinguish, so only the
    // retained+lifted conflict is checked (in verify_lifts).
    out
}

fn verify_factored_step(
    ctx: &PlanCtx,
    step: &FactoredStepIr,
    slots: &mut Slots,
    shape_len: usize,
    label: &str,
    sink: &mut Sink,
) {
    for (li, &slot) in step.live_in.iter().enumerate() {
        sink.at = format!("{label} live_in[{li}]");
        slots.read(slot, "live_in", sink);
    }
    for (oi, op) in step.ops.iter().enumerate() {
        sink.at = format!("{label} op {oi}");
        match op {
            FactorOpIr::Cross { a, b, out } => {
                let sa = slots.read(*a, "Cross.a", sink);
                let sb = slots.read(*b, "Cross.b", sink);
                let (Some(sa), Some(sb)) = (sa, sb) else {
                    continue;
                };
                if sa.iter().any(|v| sb.contains(v)) {
                    sink.emit(
                        "cross-overlap",
                        format!("cross factors share variables: {sa:?} × {sb:?}"),
                    );
                }
                let mut schema = sa;
                schema.extend_from_slice(&sb);
                slots.write(*out, schema, shape_len, sink);
            }
            FactorOpIr::Adopt { node, out } => {
                let Some(keys) = ctx.keys(*node) else {
                    sink.emit(
                        "adopt-node-oob",
                        format!("adopted node {node} not in the view tree"),
                    );
                    continue;
                };
                if !ctx.materialized.get(*node).copied().unwrap_or(false) {
                    sink.emit(
                        "adopt-not-materialized",
                        format!("adopted node {node} is not materialized"),
                    );
                }
                slots.write(*out, keys.clone(), shape_len, sink);
            }
            FactorOpIr::Join {
                input,
                out,
                sib,
                fused,
            } => {
                let Some(cur) = slots.read(*input, "Join.input", sink) else {
                    continue;
                };
                let Some(mut joined) = verify_sibling(ctx, sib, &cur, sink) else {
                    continue;
                };
                if let Some(f) = fused {
                    joined = apply_fused(f, &joined, sink);
                }
                slots.write(*out, joined, shape_len, sink);
            }
            FactorOpIr::Fold { input, out, fused } => {
                let Some(cur) = slots.read(*input, "Fold.input", sink) else {
                    continue;
                };
                let folded = apply_fused(fused, &cur, sink);
                slots.write(*out, folded, shape_len, sink);
            }
        }
    }
    if let Some(st) = &step.store {
        sink.at = format!("{label} store (node {})", step.node);
        let Some(node_keys) = ctx.keys(step.node) else {
            sink.emit(
                "step-node-oob",
                format!("store node {} not in the view tree", step.node),
            );
            return;
        };
        if !ctx.materialized.get(step.node).copied().unwrap_or(false) {
            sink.emit(
                "store-not-materialized",
                format!("flatten stores into node {} which has no store", step.node),
            );
        }
        let sa = slots.read(st.a, "flatten.a", sink);
        let sb = match st.b {
            Some(b) => slots.read(b, "flatten.b", sink),
            None => Some(Vec::new()),
        };
        let (Some(sa), Some(sb)) = (sa, sb) else {
            return;
        };
        if sa.iter().any(|v| sb.contains(v)) {
            sink.emit(
                "cross-overlap",
                format!("flatten pair shares variables: {sa:?} × {sb:?}"),
            );
        }
        let mut cat = sa;
        cat.extend_from_slice(&sb);
        verify_projection("store flatten", &cat, &st.out_pos, node_keys, sink);
    }
}

/// Typecheck a compiled factored-delta slot program.
pub fn verify_factored_plan(ctx: &PlanCtx, plan: &FactoredPlanIr) -> Vec<Finding> {
    let mut sink = Sink::new();
    sink.at = format!("factored-plan entry {}", plan.entry);
    let Some(leaf_keys) = ctx.keys(plan.entry) else {
        sink.emit(
            "entry-node-oob",
            format!("entry node {} not in the view tree", plan.entry),
        );
        return sink.findings;
    };
    // The shape must partition the leaf schema: disjoint factors whose
    // union is exactly the leaf's variable set.
    let mut all: Vec<u32> = Vec::new();
    for (i, f) in plan.shape.iter().enumerate() {
        for v in f {
            if all.contains(v) {
                sink.emit(
                    "shape-overlap",
                    format!("factor {i} rebinds var {v} already bound by an earlier factor"),
                );
            }
            all.push(*v);
        }
    }
    if all.len() != leaf_keys.len() || !all.iter().all(|v| leaf_keys.contains(v)) {
        sink.emit(
            "shape-partition",
            format!("shape variables {all:?} do not partition the leaf keys {leaf_keys:?}"),
        );
    }
    if plan.n_slots < plan.shape.len() {
        sink.emit(
            "slot-count",
            format!("n_slots {} < shape_len {}", plan.n_slots, plan.shape.len()),
        );
        return sink.findings;
    }
    let mut slots = Slots {
        schema: vec![None; plan.n_slots],
    };
    for (i, f) in plan.shape.iter().enumerate() {
        slots.schema[i] = Some(f.clone());
    }
    if let Some(entry) = &plan.entry_store {
        verify_factored_step(
            ctx,
            entry,
            &mut slots,
            plan.shape.len(),
            "entry-store",
            &mut sink,
        );
    }
    for (si, step) in plan.steps.iter().enumerate() {
        let label = format!("factored-plan step {si} (node {})", step.node);
        verify_factored_step(ctx, step, &mut slots, plan.shape.len(), &label, &mut sink);
    }
    sink.findings
}

/// Verify that `ranges` (half-open, one per worker) partition
/// `[0, total)`: pairwise disjoint and jointly covering. Used for both
/// the chunk split of the route phase and the hash-range ownership of
/// the merge phase.
pub fn verify_partition(ranges: &[(usize, usize)], total: usize) -> Vec<Finding> {
    let mut sink = Sink::new();
    sink.at = "partition".to_string();
    let mut covered = 0usize;
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        if lo > hi {
            sink.emit(
                "range-inverted",
                format!("range {i} is inverted: [{lo}, {hi})"),
            );
            return sink.findings;
        }
        if hi > total {
            sink.emit(
                "range-oob",
                format!("range {i} = [{lo}, {hi}) exceeds total {total}"),
            );
        }
        for (j, &(lo2, hi2)) in ranges.iter().enumerate().skip(i + 1) {
            if lo < hi2 && lo2 < hi {
                sink.emit(
                    "range-overlap",
                    format!("ranges {i} = [{lo}, {hi}) and {j} = [{lo2}, {hi2}) overlap"),
                );
            }
        }
        covered += hi.saturating_sub(lo).min(total);
    }
    if covered != total {
        sink.emit(
            "range-cover",
            format!("ranges cover {covered} of {total} elements (must be exact)"),
        );
    }
    sink.findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PlanCtx {
        // node 0: leaf R(a=0, b=1); node 1: sibling S(b=1, c=2) with an
        // index on [b] (position 0); node 2: parent V(a=0).
        PlanCtx {
            node_keys: vec![vec![0, 1], vec![1, 2], vec![0]],
            materialized: vec![true, true, true],
            node_indexes: vec![vec![], vec![vec![0]], vec![]],
        }
    }

    fn plan() -> FastPlanIr {
        FastPlanIr {
            entry: 0,
            entry_schema: vec![0, 1],
            steps: vec![FastStepIr {
                node: 2,
                store: true,
                siblings: vec![SiblingIr {
                    node: 1,
                    full_key: false,
                    probe_pos: vec![1],
                    rest_pos: vec![1],
                    index_id: 0,
                }],
                // joined = [a, b, c]; margins b (pos 1), c (pos 2)
                lift_pos: vec![1, 2],
                out_pos: vec![0],
            }],
        }
    }

    #[test]
    fn good_plan_is_clean() {
        let findings = verify_fast_plan(&ctx(), &plan());
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn swapped_probe_position_is_caught() {
        let mut p = plan();
        p.steps[0].siblings[0].probe_pos = vec![0]; // probes var a against index on b
        let findings = verify_fast_plan(&ctx(), &p);
        assert!(
            findings.iter().any(|f| f.rule == "probe-key-order"),
            "{findings:?}"
        );
    }

    #[test]
    fn oob_probe_position_is_caught() {
        let mut p = plan();
        p.steps[0].siblings[0].probe_pos = vec![7];
        let findings = verify_fast_plan(&ctx(), &p);
        assert!(
            findings.iter().any(|f| f.rule == "probe-pos-oob"),
            "{findings:?}"
        );
    }

    #[test]
    fn unresolvable_index_is_caught() {
        let mut p = plan();
        p.steps[0].siblings[0].index_id = 3;
        let findings = verify_fast_plan(&ctx(), &p);
        assert!(
            findings.iter().any(|f| f.rule == "index-id-unresolvable"),
            "{findings:?}"
        );
    }

    #[test]
    fn wrong_projection_is_caught() {
        let mut p = plan();
        p.steps[0].out_pos = vec![1]; // projects b where the node key is a
        let findings = verify_fast_plan(&ctx(), &p);
        assert!(
            findings.iter().any(|f| f.rule == "projection-order"),
            "{findings:?}"
        );
    }

    #[test]
    fn retained_lift_is_caught() {
        let mut p = plan();
        p.steps[0].lift_pos = vec![0, 1, 2]; // lifts the retained column too
        let findings = verify_fast_plan(&ctx(), &p);
        assert!(
            findings.iter().any(|f| f.rule == "lift-retained"),
            "{findings:?}"
        );
    }

    #[test]
    fn factored_double_assignment_is_caught() {
        let c = ctx();
        let p = FactoredPlanIr {
            entry: 0,
            shape: vec![vec![0], vec![1]],
            n_slots: 3,
            entry_store: None,
            steps: vec![FactoredStepIr {
                node: 0,
                live_in: vec![0, 1],
                ops: vec![
                    FactorOpIr::Cross { a: 0, b: 1, out: 2 },
                    FactorOpIr::Cross { a: 0, b: 1, out: 2 },
                ],
                store: None,
            }],
        };
        let findings = verify_factored_plan(&c, &p);
        assert!(
            findings.iter().any(|f| f.rule == "slot-double-assignment"),
            "{findings:?}"
        );
    }

    #[test]
    fn factored_read_before_write_is_caught() {
        let c = ctx();
        let p = FactoredPlanIr {
            entry: 0,
            shape: vec![vec![0], vec![1]],
            n_slots: 4,
            entry_store: None,
            steps: vec![FactoredStepIr {
                node: 0,
                live_in: vec![0, 1],
                ops: vec![FactorOpIr::Cross { a: 0, b: 3, out: 2 }],
                store: None,
            }],
        };
        let findings = verify_factored_plan(&c, &p);
        assert!(
            findings.iter().any(|f| f.rule == "slot-read-before-write"),
            "{findings:?}"
        );
    }

    #[test]
    fn overlapping_ranges_are_caught() {
        let findings = verify_partition(&[(0, 5), (4, 10)], 10);
        assert!(
            findings.iter().any(|f| f.rule == "range-overlap"),
            "{findings:?}"
        );
        let findings = verify_partition(&[(0, 5), (5, 9)], 10);
        assert!(
            findings.iter().any(|f| f.rule == "range-cover"),
            "{findings:?}"
        );
        let findings = verify_partition(&[(0, 5), (5, 10)], 10);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
