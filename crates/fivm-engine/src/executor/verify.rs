//! Static plan verification: every compiled [`FastPlan`] /
//! [`FactoredPlan`] is exported as the neutral IR of
//! [`fivm_check::plan_ir`] and typechecked against the view tree — a
//! symbolic re-simulation over schemas that proves the compiled
//! positions (probe keys, index ids, rest columns, margin lifts, store
//! projections, factor slots, worker ranges) are consistent *before*
//! the first tuple flows through them. A step with two compiled sibling
//! orders is checked in each, and a probe of an aliased indicator names
//! the leaf store it actually reads.
//!
//! Wiring:
//!
//! * debug builds verify at compile time — [`IvmEngine::new`] (via
//!   `compile_fast_plans`) and every lazy factored-shape compile panic
//!   on any finding;
//! * [`IvmEngine::verify_plans`] runs the same checks on demand in any
//!   build and returns the findings, for tests and operational
//!   auditing.

use super::{
    FactorOp, FactoredPlan, FactoredStep, FactoredStore, FastPlan, FastSibling, Fused, IvmEngine,
};
use crate::parallel;
use crate::view::ViewStore;
use fivm_check::plan_ir::{
    self, FactorOpIr, FactoredPlanIr, FactoredStepIr, FastPlanIr, FastStepIr, FlattenIr, FusedIr,
    PlanCtx, SiblingIr,
};
use fivm_core::{Ring, Schema};
use fivm_query::delta::FactorShape;

pub use fivm_check::plan_ir::Finding;

fn schema_vars(s: &Schema) -> Vec<u32> {
    s.vars().to_vec()
}

fn sibling_ir(s: &FastSibling) -> SiblingIr {
    SiblingIr {
        node: s.node,
        full_key: s.full_key,
        probe_pos: s.probe_pos.to_vec(),
        rest_pos: s.rest_pos.to_vec(),
        // Full-key probes carry usize::MAX, which is the IR's FULL_KEY
        // sentinel — copied verbatim so a plan that mislabels one is
        // caught, not papered over.
        index_id: s.index_id,
    }
}

fn fused_ir<R>(f: &Fused<R>) -> FusedIr {
    FusedIr {
        lift_pos: f.lifts.iter().map(|&(p, _)| p).collect(),
        out_pos: f.out_pos.to_vec(),
    }
}

fn factor_op_ir<R>(op: &FactorOp<R>) -> FactorOpIr {
    match op {
        FactorOp::Cross { a, b, out } => FactorOpIr::Cross {
            a: *a,
            b: *b,
            out: *out,
        },
        FactorOp::Adopt { node, out } => FactorOpIr::Adopt {
            node: *node,
            out: *out,
        },
        FactorOp::Join {
            input,
            out,
            sib,
            fused,
        } => FactorOpIr::Join {
            input: *input,
            out: *out,
            sib: sibling_ir(sib),
            fused: fused.as_ref().map(fused_ir),
        },
        FactorOp::Fold { input, out, fused } => FactorOpIr::Fold {
            input: *input,
            out: *out,
            fused: fused_ir(fused),
        },
    }
}

fn factored_step_ir<R>(st: &FactoredStep<R>) -> FactoredStepIr {
    FactoredStepIr {
        node: st.node,
        live_in: st.live_in.to_vec(),
        ops: st.ops.iter().map(factor_op_ir).collect(),
        store: st.store.as_ref().map(flatten_ir),
    }
}

fn flatten_ir(s: &FactoredStore) -> FlattenIr {
    FlattenIr {
        a: s.a,
        b: s.b,
        out_pos: s.out_pos.to_vec(),
    }
}

/// Export a compiled flat-delta plan as the neutral IR, with step
/// `swapped` (if any) taking its swapped sibling order — each order a
/// step can run is exported as its own [`FastStepIr`].
fn fast_plan_ir<R>(p: &FastPlan<R>, swapped: Option<usize>) -> FastPlanIr {
    FastPlanIr {
        entry: p.entry,
        entry_schema: schema_vars(&p.entry_schema),
        steps: p
            .steps
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let st = match &st.swapped {
                    Some(sw) if swapped == Some(i) => sw,
                    _ => st,
                };
                FastStepIr {
                    node: st.node,
                    store: st.store,
                    siblings: st.siblings.iter().map(sibling_ir).collect(),
                    lift_pos: st.lifts.iter().map(|&(pos, _)| pos).collect(),
                    out_pos: st.out_pos.to_vec(),
                }
            })
            .collect(),
    }
}

/// Verify a compiled flat-delta plan in its compiled order and, per
/// step with a swapped order, with that step swapped.
fn verify_fast<R>(ctx: &PlanCtx, label: &str, p: &FastPlan<R>, findings: &mut Vec<Finding>) {
    labeled(
        findings,
        label,
        plan_ir::verify_fast_plan(ctx, &fast_plan_ir(p, None)),
    );
    for (i, step) in p.steps.iter().enumerate() {
        if step.swapped.is_some() {
            labeled(
                findings,
                &format!("{label} (step {i} swapped)"),
                plan_ir::verify_fast_plan(ctx, &fast_plan_ir(p, Some(i))),
            );
        }
    }
}

/// Export a compiled factored-delta slot program as the neutral IR.
pub(super) fn factored_plan_ir<R>(shape: &FactorShape, p: &FactoredPlan<R>) -> FactoredPlanIr {
    FactoredPlanIr {
        entry: p.entry,
        shape: shape.schemas().iter().map(schema_vars).collect(),
        n_slots: p.n_slots,
        entry_store: p.entry_store.as_ref().map(|(ops, store)| FactoredStepIr {
            node: p.entry,
            live_in: Vec::new(),
            ops: ops.iter().map(factor_op_ir).collect(),
            store: Some(flatten_ir(store)),
        }),
        steps: p.steps.iter().map(factored_step_ir).collect(),
    }
}

fn labeled(findings: &mut Vec<Finding>, label: &str, batch: Vec<Finding>) {
    for mut f in batch {
        f.at = format!("{label}: {}", f.at);
        findings.push(f);
    }
}

/// Panic (debug-build plan-compile hook) if `findings` is non-empty.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub(super) fn assert_clean(findings: &[Finding], what: &str) {
    assert!(
        findings.is_empty(),
        "{what} failed static plan verification:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

impl<R: Ring> IvmEngine<R> {
    /// The neutral view-tree description compiled plans are verified
    /// against: per-node key schemas, materialization, and the key
    /// positions of every registered secondary index.
    pub(super) fn plan_ctx(&self) -> PlanCtx {
        PlanCtx {
            node_keys: self
                .tree
                .nodes
                .iter()
                .map(|n| schema_vars(&n.keys))
                .collect(),
            materialized: self.views.iter().map(Option::is_some).collect(),
            node_indexes: self
                .views
                .iter()
                .map(|v| {
                    v.as_ref()
                        .map(ViewStore::index_positions)
                        .unwrap_or_default()
                })
                .collect(),
        }
    }

    /// Statically verify every compiled plan in the engine — all
    /// flat-delta fast plans (per relation and per indicator), every
    /// cached factored-shape slot program, and the worker hash-range
    /// partitioning. Returns all findings (empty = verified clean).
    pub fn verify_plans(&self) -> Vec<Finding> {
        let ctx = self.plan_ctx();
        let mut findings = Vec::new();
        for (r, plan) in self.rel_fast.iter().enumerate() {
            if let Some(p) = plan {
                verify_fast(&ctx, &format!("relation {r} fast plan"), p, &mut findings);
            }
        }
        for (&ind, ip) in &self.ind_plans {
            if let Some(p) = &ip.fast {
                verify_fast(
                    &ctx,
                    &format!("indicator {ind} fast plan"),
                    p,
                    &mut findings,
                );
            }
        }
        for (r, cache) in self.rel_factored.iter().enumerate() {
            for (shape, plan) in cache {
                if let Some(p) = plan {
                    let label = format!("relation {r} factored plan (shape {:?})", shape.schemas());
                    labeled(
                        &mut findings,
                        &label,
                        plan_ir::verify_factored_plan(&ctx, &factored_plan_ir(shape, p)),
                    );
                }
            }
        }
        // The parallel fan-out rests on two index partitions: the route
        // phase splits the step input into per-worker chunks, and the
        // merge phase assigns each destination partition to exactly one
        // worker. Verify both families across representative sizes at
        // the configured worker count.
        let parts = self.workers.max(1);
        for total in [0usize, 1, parts, parts + 1, 63, 64, 1000] {
            let chunks: Vec<(usize, usize)> = (0..parts)
                .map(|i| {
                    let r = parallel::chunk(total, parts, i);
                    (r.start, r.end)
                })
                .collect();
            let label = format!("chunk split ({parts} workers, {total} tuples)");
            labeled(
                &mut findings,
                &label,
                plan_ir::verify_partition(&chunks, total),
            );
        }
        // destination() must route every hash into [0, parts).
        for h in [0u64, 1, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            let d = parallel::destination(h, parts);
            if d >= parts {
                findings.push(Finding {
                    rule: "route-oob",
                    at: format!("destination(0x{h:x}, {parts})"),
                    message: format!("routes to partition {d} >= {parts}"),
                });
            }
        }
        findings
    }
}
