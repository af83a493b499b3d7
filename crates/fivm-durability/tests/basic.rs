//! Basic durability cycle: log → checkpoint → crash (drop) → recover,
//! and the incremental-checkpoint bookkeeping. The adversarial
//! crash-point/fault-injection suite lives in the workspace-level
//! `tests/durability_crashpoints.rs`; this file covers the happy paths
//! close to the implementation.

use fivm_core::ring::cofactor::Cofactor;
use fivm_core::{tuple, Codec, Delta, Lifting, LiftingMap, Relation, Ring, Semiring, Value};
use fivm_durability::{checkpoint, wal, DurabilityConfig, DurableEngine};
use fivm_engine::IvmEngine;
use fivm_query::{add_indicators, QueryDef, VariableOrder, ViewTree};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fivm-durability-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rst_engine() -> (QueryDef, IvmEngine<i64>) {
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let engine = IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
    (q, engine)
}

fn delta(q: &QueryDef, rel: usize, rows: &[(&[i64], i64)]) -> Delta<i64> {
    Delta::Flat(Relation::from_pairs(
        q.relations[rel].schema.clone(),
        rows.iter().map(|(vals, p)| {
            (
                fivm_core::Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect()),
                *p,
            )
        }),
    ))
}

fn all_views(e: &IvmEngine<i64>) -> Vec<(usize, Vec<(fivm_core::Tuple, i64)>)> {
    e.materialized_nodes()
        .into_iter()
        .map(|n| (n, e.view_relation(n).unwrap().sorted()))
        .collect()
}

#[test]
fn create_apply_recover_round_trip() {
    let dir = temp_dir("basic");
    let (q, engine) = rst_engine();
    let cfg = DurabilityConfig {
        checkpoint_every: 0,
        ..DurabilityConfig::default()
    };
    let mut d = DurableEngine::create(&dir, engine, cfg.clone()).unwrap();
    d.apply(0, &delta(&q, 0, &[(&[1, 2], 1), (&[3, 4], 2)]))
        .unwrap();
    d.apply(1, &delta(&q, 1, &[(&[1, 5, 7], 1)])).unwrap();
    d.apply(2, &delta(&q, 2, &[(&[5, 6], 1)])).unwrap();
    d.sync_all().unwrap();
    let expected = all_views(d.engine());
    assert!(!d.engine().result().is_empty());
    drop(d);

    let (_, engine2) = rst_engine();
    let (r, report) = DurableEngine::open(&dir, engine2, cfg).unwrap();
    assert_eq!(report.last_lsn, 3);
    assert_eq!(
        report.replayed_updates, 3,
        "initial checkpoint covers LSN 0"
    );
    assert_eq!(all_views(r.engine()), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_skips_clean_views_and_truncates_log() {
    let dir = temp_dir("incr");
    let (q, engine) = rst_engine();
    let cfg = DurabilityConfig {
        checkpoint_every: 0,
        segment_bytes: 256, // force rotation nearly every update
        retained_checkpoints: 2,
        ..DurabilityConfig::default()
    };
    let mut d = DurableEngine::create(&dir, engine, cfg.clone()).unwrap();
    for i in 0..20i64 {
        d.apply(0, &delta(&q, 0, &[(&[i, i + 1], 1)])).unwrap();
    }
    d.checkpoint().unwrap();
    let files_after_first = checkpoint::list_manifests(&dir).unwrap().len();
    assert_eq!(
        files_after_first, 2,
        "initial + explicit checkpoint retained"
    );

    // Touch only relation 1: the next checkpoint must re-snapshot the
    // views on R1's maintenance path but carry the rest forward.
    let m1 = checkpoint::read_manifest(&checkpoint::list_manifests(&dir).unwrap()[1].path).unwrap();
    d.apply(1, &delta(&q, 1, &[(&[1, 5, 7], 1)])).unwrap();
    d.checkpoint().unwrap();
    let manifests = checkpoint::list_manifests(&dir).unwrap();
    let m2 = checkpoint::read_manifest(&manifests.last().unwrap().path).unwrap();
    let changed: Vec<usize> = m2
        .views
        .iter()
        .filter(|(n, f)| m1.views.iter().any(|(n1, f1)| n1 == n && f1 != f))
        .map(|&(n, _)| n)
        .collect();
    let carried = m2.views.iter().filter(|v| m1.views.contains(v)).count();
    assert!(
        !changed.is_empty(),
        "R1's path views must be re-snapshotted"
    );
    assert!(
        carried > 0,
        "clean views must be carried forward, not rewritten"
    );

    // Old segments fully covered by the oldest retained checkpoint are
    // gone; the log still starts at or before that checkpoint's LSN+1.
    let segments = wal::list_segments(&dir).unwrap();
    let oldest_retained = checkpoint::read_manifest(&manifests.first().unwrap().path).unwrap();
    assert!(segments.len() < 22, "covered segments were truncated");
    assert!(segments[0].first_lsn <= oldest_retained.lsn + 1);

    // Recovery from the truncated log still reproduces the state.
    let expected = all_views(d.engine());
    drop(d);
    let (_, engine2) = rst_engine();
    let (r, report) = DurableEngine::open(&dir, engine2, cfg).unwrap();
    assert_eq!(report.last_lsn, 21);
    assert_eq!(all_views(r.engine()), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn symbols_replay_reproduces_intern_ids() {
    let dir = temp_dir("syms");
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let engine: IvmEngine<i64> = IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
    let cfg = DurabilityConfig {
        checkpoint_every: 0,
        ..DurabilityConfig::default()
    };
    let mut d = DurableEngine::create(&dir, engine, cfg.clone()).unwrap();
    // Intern symbols mid-stream, as realistic string-keyed updates do.
    let a = q.catalog.intern("alpha");
    d.apply(
        0,
        &Delta::Flat(Relation::from_pairs(
            q.relations[0].schema.clone(),
            [(tuple![Value::Int(1), Value::Sym(a)], 1i64)],
        )),
    )
    .unwrap();
    let b = q.catalog.intern("beta");
    d.apply(
        0,
        &Delta::Flat(Relation::from_pairs(
            q.relations[0].schema.clone(),
            [(tuple![Value::Int(2), Value::Sym(b)], 1i64)],
        )),
    )
    .unwrap();
    d.sync_all().unwrap();
    let expected = all_views(d.engine());
    drop(d);

    // Fresh process simulation: a brand-new catalog with an empty
    // symbol table must come back with identical intern ids.
    let q2 = QueryDef::example_rst(&[]);
    let vo2 = VariableOrder::parse("A - { B, C - { D, E } }", &q2.catalog);
    let tree2 = ViewTree::build(&q2, &vo2);
    let engine2: IvmEngine<i64> = IvmEngine::new(q2.clone(), tree2, &[0, 1, 2], LiftingMap::new());
    assert_eq!(q2.catalog.symbols().len(), 0);
    let (r, _) = DurableEngine::open(&dir, engine2, cfg).unwrap();
    assert_eq!(q2.catalog.resolve_sym(a), Some("alpha"));
    assert_eq!(q2.catalog.resolve_sym(b), Some("beta"));
    assert_eq!(all_views(r.engine()), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mismatched_query_is_rejected() {
    let dir = temp_dir("fp");
    let (q, engine) = rst_engine();
    let cfg = DurabilityConfig::default();
    let mut d = DurableEngine::create(&dir, engine, cfg.clone()).unwrap();
    d.apply(0, &delta(&q, 0, &[(&[1, 2], 1)])).unwrap();
    d.checkpoint().unwrap();
    drop(d);

    let q2 = QueryDef::triangle();
    let vo2 = VariableOrder::parse("A - { B - { C } }", &q2.catalog);
    let tree2 = ViewTree::build(&q2, &vo2);
    let engine2: IvmEngine<i64> = IvmEngine::new(q2.clone(), tree2, &[0, 1, 2], LiftingMap::new());
    assert!(DurableEngine::open(&dir, engine2, cfg).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write every materialized view of `e` with the checkpoint writer and
/// require the file's payload to be, byte for byte, the node id
/// followed by `Relation::encode` of the view's relation.
fn assert_view_files_encode_relations<R: Ring + Codec + std::fmt::Debug>(
    tag: &str,
    e: &IvmEngine<R>,
) {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let mut written = 0;
    for node in e.materialized_nodes() {
        let Some(view) = e.view_store(node) else {
            continue;
        };
        checkpoint::write_view_file(&dir, node, 1, view).unwrap();
        let bytes = std::fs::read(checkpoint::view_file_path(&dir, node, 1)).unwrap();
        let rel = e.view_relation(node).unwrap();
        let mut want = (node as u32).to_le_bytes().to_vec();
        rel.encode(&mut want);
        assert_eq!(&bytes[..8], checkpoint::VIEW_MAGIC, "{tag} node {node}");
        assert_eq!(&bytes[16..], &want[..], "{tag} node {node}");
        // The patched header checks out: length and checksum.
        let back: Relation<R> = checkpoint::read_view_file(&dir, node, 1).unwrap();
        assert_eq!(back, rel, "{tag} node {node}");
        written += 1;
    }
    assert!(written >= 3, "{tag}: only {written} views");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn view_files_encode_like_relations() {
    // Star: inserts, then deletes that free arena cells for reuse.
    let (q, mut star) = rst_engine();
    for i in 0..40i64 {
        star.apply(0, &delta(&q, 0, &[(&[i % 7, i], 1)]));
        star.apply(1, &delta(&q, 1, &[(&[i % 7, i % 5, i], 2)]));
        star.apply(2, &delta(&q, 2, &[(&[i % 5, i], 1)]));
    }
    for i in (0..40i64).step_by(3) {
        star.apply(1, &delta(&q, 1, &[(&[i % 7, i % 5, i], -2)]));
    }
    assert_view_files_encode_relations("enc-star", &star);

    // Triangle with indicator projections.
    let q = QueryDef::triangle();
    let vo = VariableOrder::parse("A - B - C", &q.catalog);
    let mut tree = ViewTree::build(&q, &vo);
    add_indicators(&mut tree, &q);
    let mut tri: IvmEngine<i64> = IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
    for i in 0..30i64 {
        for rel in 0..3 {
            tri.apply(
                rel,
                &delta(&q, rel, &[(&[i % 6, (i * 5 + rel as i64) % 6], 1)]),
            );
        }
    }
    assert_view_files_encode_relations("enc-triangle", &tri);

    // Cofactor payloads: every non-join variable of the star lifted.
    let q = QueryDef::example_rst(&[]);
    let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
    let tree = ViewTree::build(&q, &vo);
    let mut lifts = LiftingMap::new();
    for (j, name) in ["B", "D", "E"].into_iter().enumerate() {
        let v = q.catalog.lookup(name).unwrap();
        lifts.set(
            v,
            Lifting::from_fn(move |x| Cofactor::lift_value(j as u32, x)),
        );
    }
    let mut cof: IvmEngine<Cofactor> = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
    let one = |rel: usize, vals: &[i64]| {
        Delta::Flat(Relation::from_pairs(
            q.relations[rel].schema.clone(),
            [(
                fivm_core::Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect()),
                Cofactor::one(),
            )],
        ))
    };
    for i in 0..20i64 {
        cof.apply(0, &one(0, &[i % 4, i]));
        cof.apply(1, &one(1, &[i % 4, i % 3, i]));
        cof.apply(2, &one(2, &[i % 3, i]));
    }
    assert_view_files_encode_relations("enc-cofactor", &cof);
}
