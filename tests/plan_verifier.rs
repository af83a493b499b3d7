//! Static plan-IR verification at the facade level: every plan the
//! engine compiles for the paper's query shapes (star COUNT, star
//! group-by with liftings, triangle with indicator views and both
//! sibling orders of its two-sibling steps, sequential and parallel
//! variants, flat and factored paths) must come back from
//! [`IvmEngine::verify_plans`] with zero findings — and hand-broken
//! IRs must not. The unit tests inside `fivm-check` cover each rule in
//! isolation; this suite pins down the end-to-end contract that the
//! *real* compiled plans typecheck, and that the CI `analysis` gate
//! actually fails when a plan is wrong.

use fivm::prelude::*;
use fivm_check::plan_ir::{
    verify_fast_plan, verify_partition, FastPlanIr, FastStepIr, PlanCtx, SiblingIr, FULL_KEY,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn assert_clean(engine: &IvmEngine<i64>, context: &str) {
    let findings = engine.verify_plans();
    assert!(
        findings.is_empty(),
        "{context}: plan verifier found defects:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Drive `updates` small flat deltas into every relation so the lazy
/// paths (secondary indexes, parallel fan-out) all compile.
fn drive(engine: &mut IvmEngine<i64>, q: &QueryDef, updates: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..updates {
        for rel in 0..q.relations.len() {
            let schema = q.relations[rel].schema.clone();
            let vals: Vec<Value> = schema
                .iter()
                .map(|_| Value::Int(rng.gen_range(0..8)))
                .collect();
            let d = Relation::from_pairs(schema, [(Tuple::new(vals), 1i64)]);
            engine.apply(rel, &Delta::Flat(d));
        }
    }
}

#[test]
fn star_count_plans_verify_clean() {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engine = IvmEngine::new(q.clone(), tree, &all, LiftingMap::new());
    assert_clean(&engine, "star COUNT, freshly compiled");
    drive(&mut engine, &q, 16, 1);
    assert_clean(&engine, "star COUNT, after updates");
}

#[test]
fn star_group_by_with_liftings_plans_verify_clean() {
    let q = QueryDef::example_rst(&["A", "C"]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut lifts = LiftingMap::new();
    lifts.set(
        q.catalog.lookup("B").unwrap(),
        fivm::core::lifting::int_identity(),
    );
    lifts.set(
        q.catalog.lookup("E").unwrap(),
        fivm::core::lifting::int_identity(),
    );
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engine = IvmEngine::new(q.clone(), tree, &all, lifts);
    drive(&mut engine, &q, 16, 2);
    assert_clean(&engine, "star group-by SUM(B*E)");
}

#[test]
fn triangle_with_indicators_plans_verify_clean() {
    let q = QueryDef::triangle();
    let vo = VariableOrder::parse("A - B - C", &q.catalog);
    let mut tree = ViewTree::build(&q, &vo);
    add_indicators(&mut tree, &q);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engine = IvmEngine::new(q.clone(), tree, &all, LiftingMap::new());
    drive(&mut engine, &q, 16, 3);
    assert_clean(&engine, "triangle with indicator views");
}

#[test]
fn parallel_engine_partitions_verify_clean() {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engine = IvmEngine::new(q.clone(), tree, &all, LiftingMap::new());
    engine.set_workers(4);
    engine.set_parallel_threshold(8);
    // Batches above the threshold force the range-partitioned fan-out,
    // whose chunk/route partitions verify_plans re-checks.
    let mut rng = SmallRng::seed_from_u64(4);
    for rel in 0..q.relations.len() {
        let schema = q.relations[rel].schema.clone();
        let pairs: Vec<(Tuple, i64)> = (0..64)
            .map(|_| {
                let vals: Vec<Value> = schema
                    .iter()
                    .map(|_| Value::Int(rng.gen_range(0..32)))
                    .collect();
                (Tuple::new(vals), 1i64)
            })
            .collect();
        let d = Relation::from_pairs(schema, pairs);
        engine.apply(rel, &Delta::Flat(d));
    }
    assert_clean(&engine, "parallel star COUNT (4 workers)");
}

#[test]
fn factored_plans_verify_clean() {
    let q = QueryDef::example_rst(&["A"]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut engine = IvmEngine::new(q.clone(), tree, &all, LiftingMap::new());
    // A rank-1 factored delta on S(A, C, E) populates the factored
    // plan cache for one shape; verify_plans re-checks every cached
    // shape's slot program.
    let (a, c, e) = (
        q.catalog.lookup("A").unwrap(),
        q.catalog.lookup("C").unwrap(),
        q.catalog.lookup("E").unwrap(),
    );
    let unary =
        |v, x| Relation::from_pairs(Schema::new(vec![v]), [(Tuple::single(Value::Int(x)), 1i64)]);
    engine.apply(
        1,
        &Delta::factored(vec![unary(a, 1), unary(c, 2), unary(e, 3)]),
    );
    engine.apply(
        1,
        &Delta::factored(vec![unary(e, 4), unary(a, 5), unary(c, 6)]),
    );
    assert_clean(&engine, "star with cached factored shapes");
}

// ---------------------------------------------------------------------
// Mutation checks: the verifier must reject broken IRs. These build the
// same two-node probe shape the engine compiles for the star query
// (delta at R(a, b) probing sibling S(b, c) through its index on b,
// storing the a-margin into parent V(a)) and then break it one field at
// a time.

fn probe_ctx() -> PlanCtx {
    PlanCtx {
        node_keys: vec![vec![0, 1], vec![1, 2], vec![0]],
        materialized: vec![true, true, true],
        node_indexes: vec![vec![], vec![vec![0]], vec![]],
    }
}

fn probe_plan() -> FastPlanIr {
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
            lift_pos: vec![1, 2],
            out_pos: vec![0],
        }],
    }
}

fn rules(findings: &[fivm_check::plan_ir::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn hand_built_probe_plan_is_clean() {
    let findings = verify_fast_plan(&probe_ctx(), &probe_plan());
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn swapped_probe_position_is_rejected() {
    let mut plan = probe_plan();
    // Probe with column a where the index wants column b.
    plan.steps[0].siblings[0].probe_pos = vec![0];
    let findings = verify_fast_plan(&probe_ctx(), &plan);
    assert!(
        rules(&findings).contains(&"probe-key-order"),
        "expected probe-key-order, got {findings:?}"
    );
}

#[test]
fn wrong_rest_columns_are_rejected() {
    let mut plan = probe_plan();
    // Append the sibling's b column (already bound) instead of c.
    plan.steps[0].siblings[0].rest_pos = vec![0];
    let findings = verify_fast_plan(&probe_ctx(), &plan);
    assert!(
        rules(&findings).contains(&"rest-columns"),
        "expected rest-columns, got {findings:?}"
    );
}

#[test]
fn misprojected_store_is_rejected() {
    let mut plan = probe_plan();
    // Store column b into the a-keyed parent.
    plan.steps[0].out_pos = vec![1];
    plan.steps[0].lift_pos = vec![2];
    let findings = verify_fast_plan(&probe_ctx(), &plan);
    assert!(
        rules(&findings).contains(&"projection-order"),
        "expected projection-order, got {findings:?}"
    );
}

#[test]
fn lifted_and_retained_column_is_rejected() {
    let mut plan = probe_plan();
    // Lift the a column the projection also keeps.
    plan.steps[0].lift_pos = vec![0, 1, 2];
    let findings = verify_fast_plan(&probe_ctx(), &plan);
    assert!(
        rules(&findings).contains(&"lift-retained"),
        "expected lift-retained, got {findings:?}"
    );
}

#[test]
fn probe_into_unmaterialized_sibling_is_rejected() {
    let mut ctx = probe_ctx();
    ctx.materialized[1] = false;
    let findings = verify_fast_plan(&ctx, &probe_plan());
    assert!(
        rules(&findings).contains(&"sibling-not-materialized"),
        "expected sibling-not-materialized, got {findings:?}"
    );
}

#[test]
fn full_key_probe_with_rest_columns_is_rejected() {
    let mut plan = probe_plan();
    plan.steps[0].siblings[0].full_key = true;
    plan.steps[0].siblings[0].index_id = FULL_KEY;
    // A full-key probe never appends columns; leaving rest_pos set
    // must be flagged (arity is also wrong: 1 probe column vs 2 keys).
    let findings = verify_fast_plan(&probe_ctx(), &plan);
    let r = rules(&findings);
    assert!(
        r.contains(&"full-key-rest") && r.contains(&"probe-arity"),
        "expected full-key-rest + probe-arity, got {findings:?}"
    );
}

/// The swapped order of the triangle's S step, as the engine exports
/// it: delta S(b, c) probes R(a, b) — the store behind the aliased
/// indicator ∃R(A,B) — through its index on b, appends a, then probes
/// T(c, a) by full key and stores V(a, b).
fn swapped_triangle_step() -> (PlanCtx, FastPlanIr) {
    let (a, b, c) = (0, 1, 2);
    let ctx = PlanCtx {
        // 0: S leaf, 1: T, 2: R leaf (indexed on b), 3: V at C.
        node_keys: vec![vec![b, c], vec![c, a], vec![a, b], vec![a, b]],
        materialized: vec![true, true, true, true],
        node_indexes: vec![vec![], vec![], vec![vec![1]], vec![]],
    };
    let plan = FastPlanIr {
        entry: 0,
        entry_schema: vec![b, c],
        steps: vec![FastStepIr {
            node: 3,
            store: true,
            siblings: vec![
                SiblingIr {
                    node: 2,
                    full_key: false,
                    probe_pos: vec![0],
                    rest_pos: vec![0],
                    index_id: 0,
                },
                // joined = [b, c, a]; T's key is (c, a).
                SiblingIr {
                    node: 1,
                    full_key: true,
                    probe_pos: vec![1, 2],
                    rest_pos: vec![],
                    index_id: FULL_KEY,
                },
            ],
            lift_pos: vec![],
            out_pos: vec![2, 0],
        }],
    };
    (ctx, plan)
}

#[test]
fn swapped_step_with_broken_full_key_probe_is_rejected() {
    let (ctx, mut plan) = swapped_triangle_step();
    let findings = verify_fast_plan(&ctx, &plan);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    // Probe T with (a, c) where its key is (c, a).
    plan.steps[0].siblings[1].probe_pos = vec![2, 1];
    let findings = verify_fast_plan(&ctx, &plan);
    assert!(
        rules(&findings).contains(&"probe-key-order"),
        "expected probe-key-order, got {findings:?}"
    );
}

#[test]
fn partition_defects_are_rejected() {
    assert!(verify_partition(&[(0, 5), (5, 10)], 10).is_empty());
    assert!(verify_partition(&[], 0).is_empty());
    let overlap = verify_partition(&[(0, 6), (5, 10)], 10);
    assert!(rules(&overlap).contains(&"range-overlap"), "{overlap:?}");
    let gap = verify_partition(&[(0, 4), (5, 10)], 10);
    assert!(rules(&gap).contains(&"range-cover"), "{gap:?}");
    let oob = verify_partition(&[(0, 12)], 10);
    assert!(rules(&oob).contains(&"range-oob"), "{oob:?}");
    let inverted = verify_partition(&[(5, 2)], 10);
    assert!(rules(&inverted).contains(&"range-inverted"), "{inverted:?}");
}
