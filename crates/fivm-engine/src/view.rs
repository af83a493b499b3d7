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

/// Reusable buffers of [`ViewStore::merge_product`]'s scan direction;
/// one instance serves every store, and its capacity is kept between
/// calls.
#[derive(Debug, Default)]
pub(crate) struct ProductScratch {
    /// Store-key positions of the `a` factor's columns, in `a`'s order.
    a_pos: Vec<usize>,
    /// The same for `b`.
    b_pos: Vec<usize>,
    /// Key → index in the `a` factor.
    a_ids: TupleMap<u32>,
    /// Key → index in the `b` factor.
    b_ids: TupleMap<u32>,
    /// Product pairs the scan met, one bit per product index.
    met: Vec<u64>,
    /// `(product index, entry id)` of the entries the scan summed to
    /// zero.
    zeroed: Vec<(usize, u32)>,
}

/// Map each key of a factor to its index in it.
fn index_factor<R>(ids: &mut TupleMap<u32>, factor: &[(Tuple, R)]) {
    ids.clear();
    for (i, (t, _)) in factor.iter().enumerate() {
        *ids.upsert(t, || 0).1 = i as u32;
    }
    debug_assert_eq!(ids.len(), factor.len(), "factor keys must be distinct");
}

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

    /// Erase the live entry `id`, whose payload summed to zero, from
    /// the primary map and every index; returns its key. The scan
    /// direction of [`ViewStore::merge_product`] uses it.
    /// [`ViewStore::insert_ref`] keeps its own copy of this removal: it
    /// is the flat path's store merge, and single-tuple throughput
    /// moved measurably when it called a shared helper instead.
    fn erase(&mut self, id: u32) -> Tuple {
        let (t, _) = self.data.remove_id(id);
        for ix in &mut self.indexes {
            if let Some(v) = ix.map.get_mut(&ProjKey::new(&t, &ix.positions)) {
                if let Some(pos) = v.iter().position(|&x| x == id) {
                    v.swap_remove(pos);
                }
                if v.is_empty() {
                    ix.bucket_emptied();
                }
            }
        }
        t
    }

    /// Absorb the factored delta `a ⊗ b` — or the single factor `a`
    /// when `b` is `None` — where `out_pos` projects the virtual
    /// concatenation `ta ⧺ tb` onto the view's key order. The keys
    /// within each factor must be distinct. Every product key receives
    /// exactly one `⊕ (pa ⊗ pb)`, as [`ViewStore::insert_ref`] applies
    /// it, and support transitions (`+1` appeared, `-1` disappeared)
    /// are appended to `transitions` when given.
    ///
    /// The join direction follows cardinality. When `out_pos` permutes
    /// all of the product's columns and the product has at least half
    /// as many pairs as the view has keys, the view's entry arena is
    /// scanned once: each entry finds its factor pair through two small
    /// key maps over `a` and `b`, and the product keys the scan did not
    /// meet are inserted afterwards. Otherwise each product pair probes
    /// the view. Both directions apply the same structural changes in
    /// the same order (product order), so they leave identical entry
    /// ids, arena order and index buckets; only the order of captured
    /// pairs differs. The buffers live in `scratch`, so a warmed merge
    /// allocates nothing.
    pub(crate) fn merge_product(
        &mut self,
        a: &[(Tuple, R)],
        b: Option<&[(Tuple, R)]>,
        out_pos: &[usize],
        scratch: &mut ProductScratch,
        transitions: Option<&mut Vec<(Tuple, i8)>>,
    ) {
        let pairs = a.len() * b.map_or(1, <[_]>::len);
        if pairs == 0 {
            return;
        }
        let arity = a[0].0.len() + b.map_or(0, |b| b[0].0.len());
        if self.scans(pairs, arity, out_pos) {
            self.merge_product_scan(a, b, out_pos, scratch, transitions);
        } else {
            self.merge_product_probe(a, b, out_pos, transitions);
        }
    }

    /// The cost rule of [`ViewStore::merge_product`]: scan the view
    /// when its keys are exactly the product's columns and the product
    /// covers at least half of it.
    fn scans(&self, pairs: usize, arity: usize, out_pos: &[usize]) -> bool {
        out_pos.len() == arity && pairs * 2 >= self.data.len()
    }

    /// [`ViewStore::merge_product`] by one view probe per product pair.
    fn merge_product_probe(
        &mut self,
        a: &[(Tuple, R)],
        b: Option<&[(Tuple, R)]>,
        out_pos: &[usize],
        mut transitions: Option<&mut Vec<(Tuple, i8)>>,
    ) {
        let mut merge = |store: &mut Self, key: Tuple, p: R| {
            let sign = match store.insert_ref(&key, p) {
                SupportChange::Appeared => 1,
                SupportChange::Disappeared => -1,
                SupportChange::Unchanged => return,
            };
            if let Some(tr) = transitions.as_deref_mut() {
                tr.push((key, sign));
            }
        };
        match b {
            None => {
                for (t, p) in a {
                    merge(self, t.project(out_pos), p.clone());
                }
            }
            Some(b) => {
                for (ta, pa) in a {
                    for (tb, pb) in b {
                        let p = pa.mul(pb);
                        if !p.is_zero() {
                            merge(self, ta.concat_project(tb, out_pos), p);
                        }
                    }
                }
            }
        }
    }

    /// [`ViewStore::merge_product`] by one scan of the view's arena.
    /// Pair `(i, j)` has product index `i·|b| + j`. The scan adds each
    /// met pair's product in place and records met pairs in a bitmap
    /// and zero crossings in a list. A walk in product order then
    /// erases the crossings and inserts the unmet pairs, interleaved
    /// exactly as the probe direction meets them.
    fn merge_product_scan(
        &mut self,
        a: &[(Tuple, R)],
        b: Option<&[(Tuple, R)]>,
        out_pos: &[usize],
        s: &mut ProductScratch,
        mut transitions: Option<&mut Vec<(Tuple, i8)>>,
    ) {
        let nb = b.map_or(1, <[_]>::len);
        let pairs = a.len() * nb;
        // Store-key position of each product column.
        let a_arity = a[0].0.len();
        s.a_pos.clear();
        s.a_pos.resize(a_arity, 0);
        s.b_pos.clear();
        s.b_pos.resize(out_pos.len() - a_arity, 0);
        for (k, &c) in out_pos.iter().enumerate() {
            match c.checked_sub(a_arity) {
                None => s.a_pos[c] = k,
                Some(c) => s.b_pos[c] = k,
            }
        }
        index_factor(&mut s.a_ids, a);
        if let Some(b) = b {
            index_factor(&mut s.b_ids, b);
        }
        s.met.clear();
        s.met.resize(pairs.div_ceil(64), 0);
        s.zeroed.clear();
        for (id, key, payload) in self.data.iter_ids_mut() {
            let Some(&i) = s.a_ids.get(&ProjKey::new(key, &s.a_pos)) else {
                continue;
            };
            let pa = &a[i as usize].1;
            let (k, p) = match b {
                None => (i as usize, pa.clone()),
                Some(b) => match s.b_ids.get(&ProjKey::new(key, &s.b_pos)) {
                    Some(&j) => (i as usize * nb + j as usize, pa.mul(&b[j as usize].1)),
                    None => continue,
                },
            };
            s.met[k / 64] |= 1 << (k % 64);
            if p.is_zero() {
                continue;
            }
            if let Some(buf) = &mut self.capture {
                buf.push((key.clone(), p.clone()));
            }
            self.version += 1;
            payload.add_assign(&p);
            if payload.is_zero() {
                s.zeroed.push((k, id));
            }
        }
        s.zeroed.sort_unstable_by_key(|&(k, _)| k);
        let mut zeroed = s.zeroed.iter().peekable();
        let mut erase_before = |store: &mut Self, k: usize, tr: &mut Option<&mut Vec<_>>| {
            while let Some(&(_, id)) = zeroed.next_if(|&&(zk, _)| zk < k) {
                let key = store.erase(id);
                if let Some(tr) = tr.as_deref_mut() {
                    tr.push((key, -1));
                }
            }
        };
        for (w, &word) in s.met.iter().enumerate() {
            let mut unmet = !word;
            while unmet != 0 {
                let k = w * 64 + unmet.trailing_zeros() as usize;
                unmet &= unmet - 1;
                if k >= pairs {
                    break;
                }
                erase_before(self, k, &mut transitions);
                let (ta, pa) = &a[k / nb];
                let (key, p) = match b {
                    None => (ta.project(out_pos), pa.clone()),
                    Some(b) => {
                        let (tb, pb) = &b[k % nb];
                        (ta.concat_project(tb, out_pos), pa.mul(pb))
                    }
                };
                if self.insert_ref(&key, p) == SupportChange::Appeared {
                    if let Some(tr) = transitions.as_deref_mut() {
                        tr.push((key, 1));
                    }
                }
            }
        }
        erase_before(self, pairs, &mut transitions);
    }

    /// Copy for a published snapshot: contents, indexes and version,
    /// without the change-capture buffer (readers never drain it).
    pub(crate) fn snapshot_copy(&self) -> Self {
        ViewStore {
            schema: self.schema.clone(),
            data: self.data.clone(),
            indexes: self.indexes.clone(),
            version: self.version,
            capture: None,
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

    /// A xorshift stream for the merge-direction tests.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Everything a reader can observe of a store: entries with their
    /// ids in arena order, each index's buckets as probed, the version.
    type Observed<R> = (Vec<(u32, Tuple, R)>, Vec<Vec<Vec<(Tuple, R)>>>, u64);

    fn observe<R: Ring>(v: &ViewStore<R>) -> Observed<R> {
        let entries = v
            .data
            .iter_ids()
            .map(|(id, t, p)| (id, t.clone(), p.clone()))
            .collect();
        let buckets = (0..v.indexes.len())
            .map(|ix| {
                v.indexes[ix]
                    .map
                    .iter()
                    .map(|(k, _)| {
                        v.probe(ix, k)
                            .map(|(t, p)| (t.clone(), p.clone()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (entries, buckets, v.version)
    }

    /// A factor of 1 to `max` distinct keys of `arity` columns over
    /// `0..dom`.
    fn factor<R: Ring>(
        g: &mut Gen,
        max: usize,
        arity: usize,
        dom: usize,
        payloads: &[R],
    ) -> Vec<(Tuple, R)> {
        let n = 1 + g.below(max);
        let mut seen = TupleMap::new();
        while seen.len() < n {
            let t = Tuple::new(
                (0..arity)
                    .map(|_| fivm_core::Value::Int(g.below(dom) as i64))
                    .collect(),
            );
            seen.upsert(&t, || payloads[g.below(payloads.len())].clone());
        }
        seen.iter().map(|(t, p)| (t.clone(), p.clone())).collect()
    }

    /// Merge `a ⊗ b` into copies of `store` by the scan and the probe
    /// direction, and require the same entries, ids, buckets, version,
    /// transitions (in the same order) and captured pairs (as a
    /// multiset). Returns the merged store and the count of each kind
    /// of transition, `[disappeared, appeared]`.
    fn merge_both<R: Ring + PartialEq + std::fmt::Debug>(
        store: &ViewStore<R>,
        a: &[(Tuple, R)],
        b: Option<&[(Tuple, R)]>,
        out_pos: &[usize],
        scratch: &mut ProductScratch,
    ) -> (ViewStore<R>, [usize; 2]) {
        let (mut scan, mut probe) = (store.clone(), store.clone());
        scan.set_capture(true);
        probe.set_capture(true);
        let (mut ts, mut tp) = (Vec::new(), Vec::new());
        scan.merge_product_scan(a, b, out_pos, scratch, Some(&mut ts));
        probe.merge_product_probe(a, b, out_pos, Some(&mut tp));
        assert_eq!(ts, tp, "transitions");
        assert_eq!(observe(&scan), observe(&probe), "store state");
        assert!(scan.version() > store.version(), "the version moved");
        let (mut cs, mut cp) = (Vec::new(), Vec::new());
        scan.drain_captured(&mut cs);
        probe.drain_captured(&mut cp);
        assert_eq!(
            cs.len() as u64,
            scan.version() - store.version(),
            "one pair per change"
        );
        cs.sort_by(|x, y| x.0.cmp(&y.0));
        cp.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(cs, cp, "captured pairs");
        scan.set_capture(false);
        let appeared = ts.iter().filter(|(_, s)| *s == 1).count();
        (scan, [ts.len() - appeared, appeared])
    }

    /// Drive both merge directions over a store `(X, Y, Z)` with
    /// secondary indexes on `Y` and `(X, Z)`: the product's coverage of
    /// the store above, at and below the cost rule's threshold;
    /// payloads that cancel stored ones exactly; product keys absent
    /// from the store; the two-factor and the single-factor form; and
    /// three merges in a row per store, so later ones reuse the cells
    /// earlier ones freed and the scratch holds stale contents.
    fn merge_directions_agree<R: Ring + PartialEq + std::fmt::Debug>(payloads: &[R]) {
        let mut scratch = ProductScratch::default();
        let mut transitions = [0, 0];
        for seed in 1..=12u64 {
            let mut g = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for (coverage, single) in [(0, false), (2, false), (4, false), (0, true), (4, true)] {
                // `a` over (Z, X) and `b` over (Y) land in key order
                // (X, Y, Z) through `[1, 2, 0]`; a single factor over
                // (Y, Z, X) through `[2, 0, 1]`.
                let out_pos: &[usize] = if single { &[2, 0, 1] } else { &[1, 2, 0] };
                let a = factor(
                    &mut g,
                    if single { 24 } else { 8 },
                    3 - usize::from(!single),
                    4,
                    payloads,
                );
                let b = (!single).then(|| factor(&mut g, 6, 1, 8, payloads));
                let mut store: ViewStore<R> = ViewStore::new(sch(&[0, 1, 2]));
                store.ensure_index(&sch(&[1]));
                store.ensure_index(&sch(&[0, 2]));
                // Each product key: absent, stored, or stored as the
                // exact negation of its product (a zero crossing).
                let pairs: Vec<(Tuple, R)> = match &b {
                    None => a
                        .iter()
                        .map(|(t, p)| (t.project(out_pos), p.clone()))
                        .collect(),
                    Some(b) => a
                        .iter()
                        .flat_map(|(ta, pa)| {
                            b.iter()
                                .map(move |(tb, pb)| (ta.concat_project(tb, out_pos), pa.mul(pb)))
                        })
                        .collect(),
                };
                for (t, p) in &pairs {
                    match g.below(4) {
                        0 => {}
                        1 => {
                            store.insert_ref(t, p.neg());
                        }
                        _ => {
                            store.insert_ref(t, payloads[g.below(payloads.len())].clone());
                        }
                    }
                }
                // Keys outside the product (X ≥ 4) set the coverage.
                let mut x = 4;
                while store.len() < coverage * pairs.len() {
                    store.insert(tuple![x, x % 3, x % 5], payloads[0].clone());
                    x += 1;
                }
                let len = store.len();
                assert_eq!(store.scans(pairs.len(), 3, out_pos), pairs.len() * 2 >= len);
                let (mut merged, seen) =
                    merge_both(&store, &a, b.as_deref(), out_pos, &mut scratch);
                for _ in 0..2 {
                    let a2 = factor(&mut g, 8, 2, 4, payloads);
                    let b2 = factor(&mut g, 6, 1, 8, payloads);
                    let negated: Vec<_> = a2.iter().map(|(t, p)| (t.clone(), p.neg())).collect();
                    (merged, _) = merge_both(&merged, &a2, Some(&b2), &[1, 2, 0], &mut scratch);
                    (merged, _) =
                        merge_both(&merged, &negated, Some(&b2), &[1, 2, 0], &mut scratch);
                }
                transitions[0] += seen[0];
                transitions[1] += seen[1];
            }
        }
        assert!(
            transitions[0] > 0 && transitions[1] > 0,
            "cases cross zero and add keys"
        );
    }

    #[test]
    fn merge_directions_agree_i64() {
        merge_directions_agree::<i64>(&[1, -1, 2, -3, 5]);
    }

    #[test]
    fn merge_directions_agree_f64() {
        merge_directions_agree::<f64>(&[0.5, -1.5, 2.0, 0.1, -0.75]);
    }

    /// The cost rule: the scan runs from half coverage up, and never
    /// when the view's keys are not a permutation of the product's
    /// columns.
    #[test]
    fn merge_product_scan_threshold() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0, 1]));
        for i in 0..10i64 {
            v.insert(tuple![i, i], 1);
        }
        assert!(v.scans(5, 2, &[0, 1]));
        assert!(!v.scans(4, 2, &[0, 1]));
        assert!(!v.scans(50, 3, &[0, 1]));
    }

    /// A published copy carries no change-capture buffer; a clone does.
    #[test]
    fn snapshot_copy_drops_capture() {
        let mut v: ViewStore<i64> = ViewStore::new(sch(&[0]));
        v.set_capture(true);
        v.insert(tuple![1], 5);
        let snap = v.snapshot_copy();
        assert!(!snap.capture_enabled());
        assert_eq!(observe(&snap), observe(&v));
        assert!(v.clone().capture_enabled());
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
