//! Differential test of the entry-id view store: random insert, delete
//! and payload-update schedules on a `ViewStore<i64>` with two secondary
//! indexes, checked after every operation against a naive model — a
//! `HashMap` of live keys plus a filtering scan for each probe.
//!
//! After every step:
//! - every probe returns the same `(key, payload)` multiset as the
//!   scan, and its `len()` matches;
//! - the primary map holds exactly the model's keys and payloads;
//! - a live key's entry id never changes;
//! - the retained index buckets stay within the high-water sweep
//!   budget (twice the peak number of live buckets plus the sweep
//!   floor of 64, per index).

use fivm::core::{ProjKey, TupleKey};
use fivm::engine::view::SupportChange;
use fivm::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// Index probe-key positions: the first column, and the last two in
/// reverse order (so the probe key is a permuted projection).
const INDEXES: [&[usize]; 2] = [&[0], &[2, 1]];

/// Empty-bucket allowance of the index sweep (see `view.rs`).
const SWEEP_FLOOR: usize = 64;

struct Model {
    rows: HashMap<Tuple, i64>,
    ids: HashMap<Tuple, u32>,
    /// Probe keys ever used per index (absent ones must probe empty).
    probe_keys: [BTreeSet<Tuple>; 2],
    /// Peak simultaneously-live buckets per index.
    high_water: [usize; 2],
}

impl Model {
    fn live_buckets(&self, ix: usize) -> usize {
        self.rows
            .keys()
            .map(|t| t.project(INDEXES[ix]))
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// The probe's `(key, payload)` hits, sorted.
fn probed<K: TupleKey + ?Sized>(v: &ViewStore<i64>, ix: usize, key: &K) -> Vec<(Tuple, i64)> {
    let hits = v.probe(ix, key);
    let n = hits.len();
    let mut out: Vec<_> = hits.map(|(t, &p)| (t.clone(), p)).collect();
    assert_eq!(out.len(), n, "probe len() disagrees with its items");
    out.sort();
    out
}

fn check(v: &ViewStore<i64>, m: &Model, step: usize) {
    assert_eq!(v.len(), m.rows.len(), "step {step}: live key count");
    for (t, p) in &m.rows {
        assert_eq!(v.get(t), Some(p), "step {step}: payload of {t:?}");
        assert_eq!(v.id_of(t), Some(m.ids[t]), "step {step}: id of {t:?} moved");
    }
    for (ix, pos) in INDEXES.iter().enumerate() {
        for pk in &m.probe_keys[ix] {
            let mut want: Vec<(Tuple, i64)> = m
                .rows
                .iter()
                .filter(|(t, _)| &t.project(pos) == pk)
                .map(|(t, &p)| (t.clone(), p))
                .collect();
            want.sort();
            assert_eq!(
                probed(v, ix, pk),
                want,
                "step {step}: index {ix} probe {pk:?}"
            );
        }
    }
    let budget: usize = m.high_water.iter().map(|hw| 2 * hw + SWEEP_FLOOR).sum();
    assert!(
        v.index_footprint() <= budget,
        "step {step}: {} retained buckets exceed the budget {budget}",
        v.index_footprint()
    );
}

/// One schedule: keys `(a, b, c)` with `a` drawn from a window that
/// slides every 40 steps (fresh probe keys for index 0, so its sweep
/// runs) and `b, c` from a fixed small domain (a stable probe-key
/// universe for index 1).
fn run(seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schema = Schema::new(vec![0, 1, 2]);
    let mut v: ViewStore<i64> = ViewStore::new(schema);
    for pos in INDEXES {
        v.ensure_index_on_positions(pos.to_vec());
    }
    let mut m = Model {
        rows: HashMap::new(),
        ids: HashMap::new(),
        probe_keys: [BTreeSet::new(), BTreeSet::new()],
        high_water: [0, 0],
    };
    for step in 0..steps {
        let base = (step / 40) as i64 * 6;
        let live: Vec<Tuple> = m.rows.keys().cloned().collect();
        let (t, delta) = match rng.gen_range(0..10u32) {
            // Delete a live key outright.
            0..=2 if !live.is_empty() => {
                let t = live[rng.gen_range(0..live.len())].clone();
                let p = m.rows[&t];
                (t, -p)
            }
            // Payload update of a live key that keeps it live.
            3..=4 if !live.is_empty() => {
                let t = live[rng.gen_range(0..live.len())].clone();
                let p = m.rows[&t];
                (t, if p == -1 { 2 } else { 1 })
            }
            // Insert or bump a random key in the window.
            _ => {
                let t = Tuple::new(vec![
                    Value::Int(base + rng.gen_range(0..8i64)),
                    Value::Int(rng.gen_range(0..3i64)),
                    Value::Int(rng.gen_range(0..3i64)),
                ]);
                let d = if rng.gen_bool(0.5) { 1 } else { -1 };
                (t, d)
            }
        };
        for (ix, pos) in INDEXES.iter().enumerate() {
            m.probe_keys[ix].insert(t.project(pos));
        }
        let before = m.rows.get(&t).copied().unwrap_or(0);
        let after = before + delta;
        let change = v.insert_ref(&t, delta);
        match (before, after) {
            (0, _) => {
                assert_eq!(change, SupportChange::Appeared, "step {step}");
                m.rows.insert(t.clone(), after);
                m.ids
                    .insert(t.clone(), v.id_of(&t).expect("appeared key has an id"));
            }
            (_, 0) => {
                assert_eq!(change, SupportChange::Disappeared, "step {step}");
                m.rows.remove(&t);
                m.ids.remove(&t);
                assert_eq!(v.id_of(&t), None, "step {step}: erased key kept an id");
            }
            _ => {
                assert_eq!(change, SupportChange::Unchanged, "step {step}");
                m.rows.insert(t.clone(), after);
            }
        }
        for ix in 0..INDEXES.len() {
            m.high_water[ix] = m.high_water[ix].max(m.live_buckets(ix));
        }
        check(&v, &m, step);
    }
    // Probes by borrowed projection keys agree with owned keys.
    for t in m.rows.keys() {
        let held = Tuple::new(vec![t.get(2).clone(), t.get(1).clone(), t.get(0).clone()]);
        assert_eq!(
            probed(&v, 0, &ProjKey::new(&held, &[2])),
            probed(&v, 0, &t.project(INDEXES[0]))
        );
        assert_eq!(
            probed(&v, 1, &ProjKey::new(&held, &[0, 1])),
            probed(&v, 1, &t.project(INDEXES[1]))
        );
    }
}

#[test]
fn probes_ids_and_footprint_match_the_model() {
    for seed in 0..5u64 {
        run(0x1d5 + seed, 1_000);
    }
}

/// Deleting every key and re-inserting the same set reuses the freed
/// entry cells (the arena does not grow), so ids come back from the
/// same pool.
#[test]
fn delete_reinsert_reuses_entry_ids() {
    let mut v: ViewStore<i64> = ViewStore::new(Schema::new(vec![0, 1, 2]));
    for pos in INDEXES {
        v.ensure_index_on_positions(pos.to_vec());
    }
    let keys: Vec<Tuple> = (0..50i64)
        .map(|i| Tuple::new(vec![Value::Int(i % 7), Value::Int(i % 3), Value::Int(i)]))
        .collect();
    for t in &keys {
        v.insert_ref(t, 1);
    }
    let first: BTreeSet<u32> = keys.iter().map(|t| v.id_of(t).unwrap()).collect();
    for round in 0..5 {
        for t in &keys {
            assert_eq!(v.insert_ref(t, -1), SupportChange::Disappeared);
        }
        assert!(v.is_empty());
        for t in keys.iter().rev() {
            v.insert_ref(t, 1);
        }
        let ids: BTreeSet<u32> = keys.iter().map(|t| v.id_of(t).unwrap()).collect();
        assert_eq!(ids, first, "round {round}: ids left the freed pool");
        for t in &keys {
            let hits = probed(&v, 0, &t.project(INDEXES[0]));
            assert!(hits.contains(&(t.clone(), 1)), "round {round}: {t:?}");
        }
    }
}
