//! Materialized view storage.
//!
//! A [`ViewStore`] is the runtime form of a view tree node: a hash map
//! from key tuples to ring payloads (the paper materializes views as
//! "multi-indexed maps"), plus secondary indexes keyed by the probe
//! patterns that delta propagation needs. Indexes are created on demand
//! and maintained incrementally with the primary data.
//!
//! The primary map is a [`TupleMap`], which keeps keys and payloads in
//! an entry arena and gives each live key a stable `u32` entry id. A
//! secondary index maps each probe key to the *ids* of the full keys
//! sharing it — 4 bytes per indexed key instead of a key copy — so
//! [`ViewStore::probe`] reads `(key, payload)` pairs straight from the
//! arena without a second hash probe, and a delete drops an id from
//! its buckets by scanning `u32`s. Every lookup accepts a borrowed
//! [`TupleKey`]: the engine probes with projections of tuples it
//! already holds and never materializes probe keys. Deletions leave
//! capacity in place (the primary via tombstones and free-list cells
//! that the next insert reuses, the indexes by keeping emptied
//! buckets), so steady-state single-tuple maintenance does not
//! allocate.

use fivm_core::{ByIds, ProjKey, Relation, Ring, Schema, Tuple, TupleKey, TupleMap};

/// How an insert changed a key's membership (support transitions drive
/// indicator maintenance, Example B.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupportChange {
    /// The key was absent and now has a non-zero payload.
    Appeared,
    /// The key's payload summed to zero and was erased.
    Disappeared,
    /// Payload changed (or no-op) without a membership change.
    Unchanged,
}

/// A secondary index: probe-key positions within the view schema, and a
/// map from probe keys to the entry ids (in the primary map) of the
/// full keys sharing them.
///
/// Buckets whose last key is removed are kept (empty) so that churn on
/// a stable key universe never reallocates — but only up to a
/// high-water mark: once the retained buckets outnumber twice the most
/// probe keys ever simultaneously live (plus a floor), a sweep drops
/// the empty ones, so adversarial churn on ever-fresh keys cannot grow
/// the index unboundedly.
#[derive(Clone, Debug)]
struct SecondaryIndex {
    positions: Vec<usize>,
    map: TupleMap<Vec<u32>>,
    /// Buckets currently holding at least one key.
    live: usize,
    /// High-water mark of `live` — the sweep's retention budget.
    high_water: usize,
}

/// Empty-bucket allowance below which no sweep ever triggers (keeps
/// tiny indexes out of the sweep logic entirely).
const INDEX_SWEEP_FLOOR: usize = 64;

/// Deltas larger than this pre-size the primary map before a merge
/// (mirrors the executor's hash-merge regime boundary: below it a
/// batch is small enough that growth-on-demand is cheaper than a
/// possible rehash).
const BATCH_RESERVE_MIN: usize = 1024;

impl SecondaryIndex {
    /// Re-index every entry of `data`, resetting the sweep counters
    /// from the rebuilt contents.
    fn rebuild<R>(&mut self, data: &TupleMap<R>) {
        self.map.clear();
        for (id, t, _) in data.iter_ids() {
            self.map
                .upsert(&ProjKey::new(t, &self.positions), Vec::new)
                .1
                .push(id);
        }
        self.live = self.map.len();
        self.high_water = self.live;
    }

    /// Record a bucket going from empty (or absent) to occupied.
    #[inline]
    fn bucket_filled(&mut self) {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
    }

    /// Record a bucket emptying; sweep retained empties once they
    /// exceed the high-water budget.
    #[inline]
    fn bucket_emptied(&mut self) {
        self.live -= 1;
        if self.map.len() > self.high_water * 2 + INDEX_SWEEP_FLOOR {
            self.map.retain(|_, bucket| !bucket.is_empty());
            debug_assert_eq!(self.map.len(), self.live);
        }
    }
}

/// A materialized view: primary map plus secondary indexes.
#[derive(Clone, Debug)]
pub struct ViewStore<R> {
    schema: Schema,
    data: TupleMap<R>,
    indexes: Vec<SecondaryIndex>,
    /// Monotonic content-mutation counter. Every data change — an
    /// applied payload in [`ViewStore::insert_ref`] or a wholesale
    /// [`ViewStore::reload`] — bumps it; index (re)builds do not, since
    /// indexes are derived state. Incremental checkpoints compare it
    /// against the last-checkpointed version to skip clean views, and
    /// snapshot publication reuses it to carry clean views forward by
    /// reference instead of cloning.
    version: u64,
    /// Change-capture buffer for the subscription layer: when present,
    /// every applied `(key, payload-delta)` pair of
    /// [`ViewStore::insert_ref`] is recorded (uncoalesced — the
    /// subscription hub coalesces per epoch). `None` costs one
    /// predictable branch per insert, keeping the unsubscribed hot path
    /// allocation-free. [`ViewStore::reload`] does not record: wholesale
    /// replacement is not an output delta (callers publish a fresh
    /// snapshot instead).
    capture: Option<Vec<(Tuple, R)>>,
}

impl<R: Ring> ViewStore<R> {
    /// Empty view over `schema`.
    pub fn new(schema: Schema) -> Self {
        ViewStore {
            schema,
            data: TupleMap::new(),
            indexes: Vec::new(),
            version: 0,
            capture: None,
        }
    }

    /// Enable or disable change capture (see the `capture` field docs).
    /// Disabling drops any pending captured pairs.
    pub fn set_capture(&mut self, on: bool) {
        match (on, &self.capture) {
            (true, None) => self.capture = Some(Vec::new()),
            (false, Some(_)) => self.capture = None,
            _ => {}
        }
    }

    /// Whether change capture is enabled.
    pub fn capture_enabled(&self) -> bool {
        self.capture.is_some()
    }

    /// Move the captured `(key, payload-delta)` pairs into `out`
    /// (appending), leaving the buffer empty but with its capacity.
    pub fn drain_captured(&mut self, out: &mut Vec<(Tuple, R)>) {
        if let Some(buf) = &mut self.capture {
            out.append(buf);
        }
    }

    /// Content-mutation counter (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The view's key schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of keys with non-zero payload.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Payload of `key`, if non-zero. Accepts borrowed probe keys
    /// ([`fivm_core::ProjKey`] etc.) as well as `&Tuple`.
    #[inline]
    pub fn get<K: TupleKey + ?Sized>(&self, key: &K) -> Option<&R> {
        self.data.get(key)
    }

    /// Entry id of `key` in the primary map, if live — the handle its
    /// secondary-index buckets hold. Stable until the key is erased.
    pub fn id_of<K: TupleKey + ?Sized>(&self, key: &K) -> Option<u32> {
        self.data.id_of(key)
    }

    /// Iterate over contents.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &R)> {
        self.data.iter()
    }

    /// Snapshot as a [`Relation`] (tests, re-evaluation).
    pub fn to_relation(&self) -> Relation<R> {
        Relation::from_pairs(
            self.schema.clone(),
            self.data.iter().map(|(t, p)| (t.clone(), p.clone())),
        )
    }

    /// Ensure a secondary index on the given variables exists; returns
    /// its id. `vars` must be a subset of the schema; an index on the
    /// full schema is never needed (probe the primary instead).
    pub fn ensure_index(&mut self, vars: &Schema) -> usize {
        let positions = self
            .schema
            .positions_of(vars.vars())
            .expect("index variables must be part of the view schema");
        self.ensure_index_on_positions(positions)
    }

    /// [`ViewStore::ensure_index`] with precomputed in-schema positions
    /// (the executor compiles these at plan-build time).
    pub fn ensure_index_on_positions(&mut self, positions: Vec<usize>) -> usize {
        if let Some(id) = self.indexes.iter().position(|ix| ix.positions == positions) {
            return id;
        }
        let mut ix = SecondaryIndex {
            positions,
            map: TupleMap::new(),
            live: 0,
            high_water: 0,
        };
        ix.rebuild(&self.data);
        self.indexes.push(ix);
        self.indexes.len() - 1
    }

    /// Probe-key positions of every secondary index, in index-id order
    /// (consumed by the static plan verifier to resolve compiled index
    /// ids back to key layouts).
    pub fn index_positions(&self) -> Vec<Vec<usize>> {
        self.indexes.iter().map(|ix| ix.positions.clone()).collect()
    }

    /// The `(key, payload)` entries matching `key` under index `ix`;
    /// borrowed probe keys accepted. One hash probe of the index, then
    /// one arena read per hit.
    #[inline]
    pub fn probe<K: TupleKey + ?Sized>(&self, ix: usize, key: &K) -> ByIds<'_, R> {
        match self.indexes[ix].map.get(key) {
            Some(ids) => self.data.by_ids(ids),
            None => ByIds::empty(),
        }
    }

    /// Add `payload` to key `t`, maintaining indexes; keys that sum to
    /// zero are erased. Returns the membership transition.
    pub fn insert(&mut self, t: Tuple, payload: R) -> SupportChange {
        self.insert_ref(&t, payload)
    }

    /// [`ViewStore::insert`], borrowing the key; it is cloned only if
    /// actually new (and tuple clones are allocation-free at arity ≤ 3).
    pub fn insert_ref(&mut self, t: &Tuple, payload: R) -> SupportChange {
        if payload.is_zero() {
            return SupportChange::Unchanged;
        }
        if let Some(buf) = &mut self.capture {
            buf.push((t.clone(), payload.clone()));
        }
        self.version += 1;
        let (appeared, id, slot) = self.data.upsert_id(t, R::zero);
        slot.add_assign(&payload);
        let disappeared = !appeared && slot.is_zero();
        if appeared {
            for ix in &mut self.indexes {
                let (new_bucket, bucket) = ix.map.upsert(&ProjKey::new(t, &ix.positions), Vec::new);
                let was_empty = new_bucket || bucket.is_empty();
                bucket.push(id);
                if was_empty {
                    ix.bucket_filled();
                }
            }
            SupportChange::Appeared
        } else if disappeared {
            self.data.remove_id(id);
            for ix in &mut self.indexes {
                if let Some(v) = ix.map.get_mut(&ProjKey::new(t, &ix.positions)) {
                    if let Some(pos) = v.iter().position(|&x| x == id) {
                        v.swap_remove(pos);
                    }
                    // The bucket is kept even when emptied — churn on a
                    // stable key universe must not reallocate — up to
                    // the high-water budget, past which the index is
                    // swept (see `SecondaryIndex`).
                    if v.is_empty() {
                        ix.bucket_emptied();
                    }
                }
            }
            SupportChange::Disappeared
        } else {
            SupportChange::Unchanged
        }
    }

    /// Merge a delta relation; returns per-key support transitions
    /// (`+1` appeared, `-1` disappeared) for indicator maintenance
    /// (Example B.2).
    pub fn merge(&mut self, delta: &Relation<R>) -> Vec<(Tuple, i8)> {
        let mut transitions = Vec::new();
        self.merge_into(delta, &mut transitions);
        transitions
    }

    /// Pre-size the primary map for `additional` inserts; large batch
    /// merges call this once instead of growing through the batch.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// [`ViewStore::merge`] writing transitions into a caller-owned
    /// buffer (the engine reuses one across updates).
    pub fn merge_into(&mut self, delta: &Relation<R>, transitions: &mut Vec<(Tuple, i8)>) {
        debug_assert_eq!(delta.schema(), &self.schema, "delta schema mismatch");
        // Pre-size for batch-scale deltas unless the store already
        // dwarfs the delta (then most keys are payload updates and a
        // blanket reserve would force a pointless rehash).
        if delta.len() > BATCH_RESERVE_MIN && self.data.len() < delta.len() * 8 {
            self.data.reserve(delta.len());
        }
        for (t, p) in delta.iter() {
            match self.insert_ref(t, p.clone()) {
                SupportChange::Appeared => transitions.push((t.clone(), 1)),
                SupportChange::Disappeared => transitions.push((t.clone(), -1)),
                SupportChange::Unchanged => {}
            }
        }
    }

    /// Replace this view's contents with `rel`, retaining the slot
    /// capacity of the primary map and the *structure* of every
    /// secondary index (its probe positions and so its compiled index
    /// id), while rebuilding index contents over the new data.
    ///
    /// Crucially, the per-index high-water live-bucket counters are
    /// **reset from the reloaded contents**: they drive the
    /// empty-bucket sweep budget, and inheriting the previous
    /// lifetime's peak would let a reloaded engine retain stale sweep
    /// budgets (too many empty buckets before a sweep fires) — or,
    /// after loading a larger database, sweep too eagerly.
    pub fn reload(&mut self, rel: &Relation<R>) {
        self.version += 1;
        self.data.clear();
        self.data.reserve(rel.len());
        if rel.schema() == &self.schema {
            for (t, p) in rel.iter() {
                if !p.is_zero() {
                    *self.data.upsert(t, R::zero).1 = p.clone();
                }
            }
        } else {
            // Column permutation (loads hand views relations in their
            // own schema order).
            let pos = rel
                .schema()
                .positions_of(self.schema.vars())
                .expect("reload relation must be a permutation of the view schema");
            for (t, p) in rel.iter() {
                if !p.is_zero() {
                    *self.data.upsert(&ProjKey::new(t, &pos), R::zero).1 = p.clone();
                }
            }
        }
        for ix in &mut self.indexes {
            ix.rebuild(&self.data);
        }
    }

    /// Worst-case probe-chain length across the primary map and all
    /// secondary indexes (see [`TupleMap::max_probe_run`]).
    pub fn max_probe_run(&self) -> usize {
        self.indexes
            .iter()
            .map(|ix| ix.map.max_probe_run())
            .chain([self.data.max_probe_run()])
            .max()
            .unwrap_or(0)
    }

    /// Total retained secondary-index buckets (live + emptied). The
    /// high-water sweep keeps this O(peak live buckets); regression
    /// tests assert on it under adversarial churn.
    pub fn index_footprint(&self) -> usize {
        self.indexes.iter().map(|ix| ix.map.len()).sum()
    }

    /// Approximate resident bytes (primary + indexes).
    pub fn approx_bytes(&self) -> usize {
        let primary: usize = self
            .data
            .iter()
            .map(|(t, p)| t.approx_bytes() + std::mem::size_of::<R>() + p.heap_bytes() + 16)
            .sum();
        let secondary: usize = self
            .indexes
            .iter()
            .map(|ix| {
                ix.map
                    .iter()
                    // Emptied buckets are retained capacity, not content
                    // (mirrors hash-map capacity, which is not counted).
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(k, ids)| k.approx_bytes() + std::mem::size_of_val(&ids[..]) + 16)
                    .sum::<usize>()
            })
            .sum();
        primary + secondary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::{tuple, ProjKey};

    fn sch(vars: &[u32]) -> Schema {
        Schema::new(vars.to_vec())
    }

    /// A probe's `(key, payload)` hits, sorted.
    fn hits<K: TupleKey + ?Sized>(v: &ViewStore<i64>, ix: usize, key: &K) -> Vec<(Tuple, i64)> {
        let mut out: Vec<_> = v.probe(ix, key).map(|(t, &p)| (t.clone(), p)).collect();
        out.sort();
        out
    }

    #[test]
    fn insert_erase_roundtrip() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        assert_eq!(v.insert(tuple![1, 2], 5), SupportChange::Appeared);
        assert_eq!(v.insert(tuple![1, 2], -5), SupportChange::Disappeared);
        assert!(v.is_empty());
    }

    #[test]
    fn index_probe() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        let ix = v.ensure_index(&sch(&[1]));
        v.insert(tuple![1, 9], 1);
        v.insert(tuple![2, 9], 1);
        v.insert(tuple![3, 8], 1);
        assert_eq!(v.probe(ix, &tuple![9]).len(), 2);
        assert_eq!(
            hits(&v, ix, &tuple![9]),
            vec![(tuple![1, 9], 1), (tuple![2, 9], 1)]
        );
        // dedup: asking again returns the same index
        assert_eq!(v.ensure_index(&sch(&[1])), ix);
    }

    #[test]
    fn index_built_over_existing_data() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        v.insert(tuple![1, 9], 1);
        v.insert(tuple![2, 9], 1);
        let ix = v.ensure_index(&sch(&[1]));
        assert_eq!(v.probe(ix, &tuple![9]).len(), 2);
    }

    #[test]
    fn index_maintains_deletions() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        let ix = v.ensure_index(&sch(&[0]));
        v.insert(tuple![1, 9], 2);
        v.insert(tuple![1, 8], 3);
        v.insert(tuple![1, 9], -2); // erases (1,9)
        assert_eq!(hits(&v, ix, &tuple![1]), vec![(tuple![1, 8], 3)]);
        v.insert(tuple![1, 8], -3);
        assert_eq!(v.probe(ix, &tuple![1]).len(), 0);
    }

    /// Churn on a stable probe-key universe retains its buckets (the
    /// allocation-freedom contract), while churn on ever-fresh probe
    /// keys is swept back to the high-water budget.
    #[test]
    fn index_sweep_bounds_fresh_key_churn() {
        // Stable universe: footprint settles at the key count.
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        let ix = v.ensure_index(&sch(&[1]));
        for round in 0..20 {
            for i in 0..10i64 {
                v.insert(tuple![i, i], 1);
            }
            for i in 0..10i64 {
                v.insert(tuple![i, i], -1);
            }
            assert_eq!(v.index_footprint(), 10, "round {round}");
        }
        // Fresh keys every round: unbounded without the sweep.
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        let ix2 = v.ensure_index(&sch(&[1]));
        let per_round = 50i64;
        for round in 0..40i64 {
            let base = round * per_round;
            for i in 0..per_round {
                v.insert(tuple![base + i, base + i], 1);
            }
            for i in 0..per_round {
                v.insert(tuple![base + i, base + i], -1);
            }
        }
        let budget = 2 * 50 + super::INDEX_SWEEP_FLOOR;
        assert!(
            v.index_footprint() <= budget,
            "footprint {} exceeds the high-water budget {budget}",
            v.index_footprint()
        );
        // Probing still works after sweeps.
        v.insert(tuple![1, 9], 7);
        assert_eq!(hits(&v, ix2, &tuple![9]), vec![(tuple![1, 9], 7)]);
        let _ = ix;
    }

    /// Delta propagation probes view stores from worker threads behind
    /// shared references; the whole storage stack must stay `Send +
    /// Sync` (compile-time check).
    #[test]
    fn view_storage_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tuple>();
        assert_send_sync::<fivm_core::Value>();
        assert_send_sync::<TupleMap<i64>>();
        assert_send_sync::<ViewStore<i64>>();
        assert_send_sync::<fivm_core::Lifting<i64>>();
    }

    /// `reload` keeps index ids/positions but resets the high-water
    /// sweep counters from the reloaded contents: after reloading a
    /// small database over a store whose previous life had a large
    /// bucket peak, fresh-key churn must be swept against the *new*
    /// (small) budget.
    #[test]
    fn reload_resets_index_high_water_counters() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        let ix = v.ensure_index(&sch(&[1]));
        // Inflate the high-water mark: 5000 simultaneously-live buckets.
        for i in 0..5000i64 {
            v.insert(tuple![i, i], 1);
        }
        // Reload a 4-row database.
        let small = Relation::from_pairs(sch(&[0, 1]), (0..4i64).map(|i| (tuple![i, i], 1)));
        v.reload(&small);
        assert_eq!(v.len(), 4);
        assert_eq!(hits(&v, ix, &tuple![2]), vec![(tuple![2, 2], 1)]);
        // Fresh-key churn: without the counter reset the stale budget
        // (2 × 5000) would retain every emptied bucket below it.
        for round in 0..40i64 {
            for i in 0..50 {
                v.insert(tuple![10_000 + round * 50 + i, 10_000 + round * 50 + i], 1);
            }
            for i in 0..50 {
                v.insert(tuple![10_000 + round * 50 + i, 10_000 + round * 50 + i], -1);
            }
        }
        let budget = 2 * (4 + 50) + super::INDEX_SWEEP_FLOOR;
        assert!(
            v.index_footprint() <= budget,
            "stale high-water budget survived reload: footprint {} > {budget}",
            v.index_footprint()
        );
    }

    /// `reload` accepts contents in a permuted column order and stores
    /// them under the view's own schema.
    #[test]
    fn reload_reorders_permuted_schemas() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        let rel = Relation::from_pairs(sch(&[1, 0]), [(tuple![9, 1], 7i64)]);
        v.reload(&rel);
        assert_eq!(v.get(&tuple![1, 9]), Some(&7));
    }

    #[test]
    fn borrowed_probes_match_eager_keys() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        let ix = v.ensure_index(&sch(&[1]));
        v.insert(tuple![1, 9], 7);
        let held = tuple![9, 1, 5];
        // primary probe: π[1,0](held) = (1, 9)
        let pk = ProjKey::new(&held, &[1, 0]);
        assert_eq!(v.get(&pk), Some(&7));
        // secondary probe: π[0](held) = (9)
        let sk = ProjKey::new(&held, &[0]);
        assert_eq!(hits(&v, ix, &sk), vec![(tuple![1, 9], 7)]);
    }

    #[test]
    fn merge_reports_transitions() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0]));
        v.insert(tuple![1], 1);
        let delta = Relation::from_pairs(
            sch(&[0]),
            [(tuple![1], -1i64), (tuple![2], 4), (tuple![3], 0)],
        );
        let mut tr = v.merge(&delta);
        tr.sort();
        assert_eq!(tr, vec![(tuple![1], -1), (tuple![2], 1)]);
    }

    #[test]
    fn partial_payload_change_is_not_a_transition() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0]));
        v.insert(tuple![1], 5);
        let delta = Relation::from_pairs(sch(&[0]), [(tuple![1], -2i64)]);
        assert!(v.merge(&delta).is_empty());
        assert_eq!(v.get(&tuple![1]), Some(&3));
    }

    #[test]
    fn to_relation_roundtrip() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0]));
        v.insert(tuple![1], 5);
        v.insert(tuple![2], 7);
        let r = v.to_relation();
        assert_eq!(r.len(), 2);
        assert_eq!(r.payload(&tuple![2]), 7);
    }
}
