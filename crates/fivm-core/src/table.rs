//! An open-addressing hash table keyed by [`Tuple`]s that supports
//! borrowed-key probing and gives every live key a stable entry id.
//!
//! `std::collections::HashMap` cannot look a key up by anything but
//! `Borrow<Q>` of the owned key type, which forces callers to
//! materialize a fresh [`Tuple`] for every probe that is a projection
//! or concatenation of tuples they already hold. [`TupleMap`] accepts
//! any [`TupleKey`] for lookups and removals, and materializes an owned
//! key only when an insert introduces a genuinely new key — which, for
//! inline tuples (arity ≤ 3), still allocates nothing.
//!
//! Layout: an index map. Keys and payloads live in an **entry arena**
//! (a `Vec` of cells that grows by half when full), and a power-of-two
//! **metadata array** indexes it by linear probing. Each occupied
//! metadata word packs the top 32 bits of the key's hash (a filter
//! marker) with the key's `u32` entry id. A probe reads one metadata
//! word per step and one entry on a marker match. Slots cost 8 bytes
//! instead of a whole key and payload, so the metadata of a 100k-key
//! view stays L2-resident while probe chains walk it. The price: the
//! entry read waits for the word that names it, where a table of fat
//! slots could start both reads at once.
//!
//! Entry ids are stable: a key keeps its id from insertion until its
//! removal, whatever growth or rehashing happens in between (rehashing
//! rewrites only metadata words). Callers may therefore hold ids as
//! compact references to entries — secondary indexes store lists of
//! them and read payloads back through [`TupleMap::by_ids`] without a
//! second hash probe. Removed cells thread a free list through the
//! arena and are reused (last freed, first reused) before the arena
//! grows, so churn on a stable key count never reallocates.
//!
//! Deletion leaves a tombstone in the metadata (rehashed away on
//! growth). Tuples cache their Fx hash, so growth and re-probing never
//! re-hash key values. `clear` keeps both arrays' capacity, and
//! removals leave capacity in place, so a steady-state workload
//! (payload updates, or deletes matched by re-inserts) performs no heap
//! allocation.

use crate::key::TupleKey;
use crate::tuple::Tuple;

/// One arena cell: a live entry, or a free cell holding the next id of
/// the free list.
#[derive(Clone, Debug)]
enum Entry<R> {
    Full(Tuple, R),
    Free(u32),
}

/// End of the free list; also never handed out as an entry id.
const NO_ID: u32 = u32::MAX;

/// Metadata word: the slot is empty (probe chains stop here).
const META_EMPTY: u64 = 0;
/// Metadata word: deleted entry (probe chains continue through it).
const META_TOMBSTONE: u64 = 1;
/// The marker half of an occupied metadata word; the low half is the
/// entry id.
const MARKER_MASK: u64 = !0xFFFF_FFFF;

/// Marker half of an occupied metadata word: the key hash's top 32 bits
/// with the top bit forced, so no occupied word equals a sentinel.
/// Equality of markers is a filter only — the key comparison (which
/// checks the full cached hash first) still decides.
#[inline]
fn marker(hash: u64) -> u64 {
    (hash | (1 << 63)) & MARKER_MASK
}

/// The live entry `id` of `entries`.
#[inline]
fn full<R>(entries: &[Entry<R>], id: u32) -> (&Tuple, &R) {
    match &entries[id as usize] {
        Entry::Full(t, r) => (t, r),
        Entry::Free(_) => panic!("entry id {id} is not live"),
    }
}

/// Hash map from [`Tuple`] keys to `R` payloads with borrowed-key
/// probing and stable entry ids; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct TupleMap<R> {
    /// Probe metadata: sentinels, or marker | entry id.
    meta: Vec<u64>,
    /// Entry arena, indexed by entry id.
    entries: Vec<Entry<R>>,
    /// Head of the free-cell list threaded through `entries`.
    free: u32,
    /// Live entries.
    items: usize,
    /// Live entries plus tombstones (bounds probe-sequence length).
    used: usize,
    /// [`class_mult`] of the metadata capacity, and `64 - log2(capacity)`:
    /// the home-slot function's constants, kept so a probe's first load
    /// does not wait on computing them.
    mult: u64,
    shift: u32,
}

/// Per-capacity-class odd multiplier for the multiply-shift home-slot
/// function (see [`TupleMap::home`]).
///
/// Delta propagation constantly streams one `TupleMap` into another
/// (`Relation::iter` → store merge, hash-scratch drain → view
/// inserts). A *key order correlated with home order* fed into a
/// linear-probed destination of a different capacity degrades into
/// long probe runs (measured ~7× slower at 100k keys with a shared
/// spread function — and fully quadratic in the worst case, when a
/// sorted key range concentrates into a narrow home region of a
/// growing destination). Arena iteration order is insertion order, so
/// it rarely correlates with home order; deriving the mixing multiplier
/// from the capacity class keeps the slot orders of different-sized
/// tables statistically independent even when it does (a table filled
/// from a hash-sorted run, say).
#[inline]
fn class_mult(log2cap: u32) -> u64 {
    // splitmix64-style finalizer over the class index, forced odd so
    // the multiply permutes the hash space.
    let x = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(log2cap).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x | 1
}

impl<R> Default for TupleMap<R> {
    fn default() -> Self {
        TupleMap::new()
    }
}

impl<R> TupleMap<R> {
    /// An empty map (no allocation until first insert).
    pub fn new() -> Self {
        TupleMap {
            meta: Vec::new(),
            entries: Vec::new(),
            free: NO_ID,
            items: 0,
            used: 0,
            mult: 0,
            shift: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.items
    }

    /// True iff no live entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Drop all entries, keeping the metadata and arena capacity for
    /// reuse. Entry ids restart from zero.
    pub fn clear(&mut self) {
        self.meta.fill(META_EMPTY);
        self.entries.clear();
        self.free = NO_ID;
        self.items = 0;
        self.used = 0;
    }

    #[inline]
    fn mask(&self) -> usize {
        self.meta.len() - 1
    }

    /// Home slot of `hash`: multiply-shift with the capacity class's
    /// own multiplier (see [`class_mult`]), taking the top
    /// `log2(capacity)` bits — the best-mixed ones.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash.wrapping_mul(self.mult) >> self.shift) as usize
    }

    /// Replace the metadata with `cap` empty slots (a power of two).
    fn alloc_meta(&mut self, cap: usize) {
        self.meta = vec![META_EMPTY; cap];
        let log2cap = cap.trailing_zeros();
        self.mult = class_mult(log2cap);
        self.shift = 64 - log2cap;
    }

    /// Metadata slot, entry id and payload of `key`, if present.
    // `always`: `TriangleHlEngine::apply_update` probes through here at
    // ten call sites, and thin LTO's heuristics do not reliably inline it
    // there; outlined, `triangle_hl_churn` ran ~10 % slower (2-vCPU Xeon).
    #[inline(always)]
    fn find<K: TupleKey + ?Sized>(&self, key: &K) -> Option<(usize, u32, &R)> {
        if self.meta.is_empty() {
            return None;
        }
        let hash = key.key_hash();
        let mark = marker(hash);
        let mask = self.mask();
        let mut i = self.home(hash);
        loop {
            let m = self.meta[i];
            if m == META_EMPTY {
                return None;
            }
            if m & MARKER_MASK == mark {
                let id = m as u32;
                let (t, r) = full(&self.entries, id);
                if key.matches(t) {
                    return Some((i, id, r));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Metadata slot of the live entry `id`, whose key hashes to `hash`.
    fn slot_of(&self, hash: u64, id: u32) -> usize {
        let want = marker(hash) | u64::from(id);
        let mask = self.mask();
        let mut i = self.home(hash);
        while self.meta[i] != want {
            i = (i + 1) & mask;
        }
        i
    }

    /// Mutable payload of the live entry `id`.
    #[inline]
    fn payload_mut(&mut self, id: u32) -> &mut R {
        match &mut self.entries[id as usize] {
            Entry::Full(_, r) => r,
            Entry::Free(_) => panic!("entry id {id} is not live"),
        }
    }

    /// Payload of `key`, if present. Accepts borrowed probe keys.
    #[inline]
    pub fn get<K: TupleKey + ?Sized>(&self, key: &K) -> Option<&R> {
        self.find(key).map(|(_, _, r)| r)
    }

    /// Mutable payload of `key`, if present.
    #[inline]
    pub fn get_mut<K: TupleKey + ?Sized>(&mut self, key: &K) -> Option<&mut R> {
        let (_, id, _) = self.find(key)?;
        Some(self.payload_mut(id))
    }

    /// True iff `key` has an entry.
    #[inline]
    pub fn contains_key<K: TupleKey + ?Sized>(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Entry id of `key`, if present; stable until the key is removed.
    #[inline]
    pub fn id_of<K: TupleKey + ?Sized>(&self, key: &K) -> Option<u32> {
        self.find(key).map(|(_, id, _)| id)
    }

    /// The live entries named by `ids`, in list order.
    #[inline]
    pub fn by_ids<'a>(&'a self, ids: &'a [u32]) -> ByIds<'a, R> {
        ByIds {
            ids: ids.iter(),
            entries: &self.entries,
        }
    }

    /// Look up `key`, inserting `default()` under the materialized key
    /// if absent. Returns whether the entry was just inserted, and the
    /// payload.
    #[inline]
    pub fn upsert<K: TupleKey + ?Sized>(
        &mut self,
        key: &K,
        default: impl FnOnce() -> R,
    ) -> (bool, &mut R) {
        let (inserted, _, r) = self.upsert_id(key, default);
        (inserted, r)
    }

    /// [`TupleMap::upsert`] that also returns the entry's id.
    pub fn upsert_id<K: TupleKey + ?Sized>(
        &mut self,
        key: &K,
        default: impl FnOnce() -> R,
    ) -> (bool, u32, &mut R) {
        self.reserve_one();
        let hash = key.key_hash();
        let mark = marker(hash);
        let mask = self.mask();
        let mut i = self.home(hash);
        // First tombstone on the probe path is reusable if the key is
        // absent; remember it so re-inserts don't extend probe chains.
        let mut reuse: Option<usize> = None;
        let slot = loop {
            let m = self.meta[i];
            if m == META_EMPTY {
                break reuse.unwrap_or(i);
            }
            if m == META_TOMBSTONE {
                if reuse.is_none() {
                    reuse = Some(i);
                }
            } else if m & MARKER_MASK == mark {
                let id = m as u32;
                if key.matches(full(&self.entries, id).0) {
                    return (false, id, self.payload_mut(id));
                }
            }
            i = (i + 1) & mask;
        };
        if self.meta[slot] == META_EMPTY {
            self.used += 1;
        }
        self.items += 1;
        let id = self.alloc(key.materialize(), default());
        self.meta[slot] = mark | u64::from(id);
        (true, id, self.payload_mut(id))
    }

    /// Place a new entry in a free cell (most recently freed first) or
    /// at the end of the arena; returns its id.
    fn alloc(&mut self, t: Tuple, r: R) -> u32 {
        if self.free == NO_ID {
            let id = u32::try_from(self.entries.len())
                .ok()
                .filter(|&id| id != NO_ID)
                .expect("TupleMap entry ids are exhausted");
            if self.entries.len() == self.entries.capacity() {
                // Grow by half rather than `Vec`'s doubling: arena slack
                // is resident state, and 1.5× steps cap it at a third.
                self.entries.reserve_exact((self.entries.len() / 2).max(4));
            }
            self.entries.push(Entry::Full(t, r));
            return id;
        }
        let id = self.free;
        let cell = &mut self.entries[id as usize];
        match cell {
            Entry::Free(next) => self.free = *next,
            Entry::Full(..) => unreachable!("the free list threads free cells"),
        }
        *cell = Entry::Full(t, r);
        id
    }

    /// Tombstone metadata slot `slot` and free entry `id` (which it
    /// names), returning the entry's key and payload.
    fn release(&mut self, slot: usize, id: u32) -> (Tuple, R) {
        self.meta[slot] = META_TOMBSTONE;
        self.items -= 1;
        let old = std::mem::replace(&mut self.entries[id as usize], Entry::Free(self.free));
        self.free = id;
        match old {
            Entry::Full(t, r) => (t, r),
            Entry::Free(_) => unreachable!("released entries are live"),
        }
    }

    /// Remove `key`'s entry, returning its key and payload. Leaves a
    /// tombstone and frees the entry id for reuse; capacity is
    /// retained.
    pub fn remove<K: TupleKey + ?Sized>(&mut self, key: &K) -> Option<(Tuple, R)> {
        let (slot, id, _) = self.find(key)?;
        Some(self.release(slot, id))
    }

    /// Remove the live entry `id`, returning its key and payload. The
    /// metadata walk compares packed words only, never keys. Panics if
    /// `id` does not name a live entry.
    pub fn remove_id(&mut self, id: u32) -> (Tuple, R) {
        let hash = full(&self.entries, id).0.cached_hash();
        let slot = self.slot_of(hash, id);
        self.release(slot, id)
    }

    /// Move every entry into `out` (arena order), leaving the map
    /// empty but with its capacity retained — the scratch-buffer
    /// pattern hot paths use to merge duplicates without allocating.
    pub fn drain_into(&mut self, out: &mut Vec<(Tuple, R)>) {
        for e in self.entries.drain(..) {
            if let Entry::Full(t, r) = e {
                out.push((t, r));
            }
        }
        self.clear();
    }

    /// Iterate over `(key, payload)` pairs in arena (id) order: a
    /// sequential scan of the arena.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &R)> {
        self.entries.iter().filter_map(|e| match e {
            Entry::Full(t, r) => Some((t, r)),
            Entry::Free(_) => None,
        })
    }

    /// Iterate over `(id, key, payload)` triples in arena (id) order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (u32, &Tuple, &R)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(id, e)| match e {
                Entry::Full(t, r) => Some((id as u32, t, r)),
                Entry::Free(_) => None,
            })
    }

    /// [`TupleMap::iter_ids`] with mutable payloads: one sequential
    /// pass over the arena that may rewrite payloads in place. Keys and
    /// ids cannot change, so the metadata stays valid.
    pub fn iter_ids_mut(&mut self) -> impl Iterator<Item = (u32, &Tuple, &mut R)> {
        self.entries
            .iter_mut()
            .enumerate()
            .filter_map(|(id, e)| match e {
                Entry::Full(t, r) => Some((id as u32, &*t, r)),
                Entry::Free(_) => None,
            })
    }

    /// Keep entries for which `f` returns `true`; the rest become
    /// tombstones and free cells (capacity retained). This is the
    /// high-water-mark sweep primitive: callers retaining emptied
    /// buckets for allocation-freedom use it to shed them once they
    /// outnumber the live ones.
    ///
    /// A sweep that drops many entries would otherwise leave probe
    /// chains walking through its tombstones until the next
    /// insert-triggered rehash — under repeated sweeps with few
    /// intervening inserts, probes degenerate toward O(capacity). So
    /// when the post-retain tombstones exceed half the live count, the
    /// table rehashes in place (same capacity, tombstones dropped),
    /// restoring load-factor-bounded probe chains immediately.
    pub fn retain(&mut self, mut f: impl FnMut(&Tuple, &mut R) -> bool) {
        for id in 0..self.entries.len() as u32 {
            let hash = match &mut self.entries[id as usize] {
                Entry::Full(t, r) => {
                    if f(t, r) {
                        continue;
                    }
                    t.cached_hash()
                }
                Entry::Free(_) => continue,
            };
            let slot = self.slot_of(hash, id);
            self.release(slot, id);
        }
        if self.tombstones() > self.items / 2 && self.tombstones() > 0 {
            self.rehash(self.meta.len());
        }
    }

    /// Tombstoned slots currently degrading probe chains (live entries
    /// probe *through* tombstones; only empty slots stop a chain).
    #[inline]
    pub fn tombstones(&self) -> usize {
        self.used - self.items
    }

    /// Longest contiguous run of non-empty slot metadata (counting
    /// tombstones, wrapping around the table end). Every probe walks at
    /// most one such run plus its terminating empty slot, so this bounds
    /// the worst-case probe length — a diagnostic for the sweep/compact
    /// policies, asserted on by churn stress tests.
    pub fn max_probe_run(&self) -> usize {
        if self.meta.is_empty() {
            return 0;
        }
        let mut best = 0usize;
        let mut cur = 0usize;
        let mut leading: Option<usize> = None;
        for &m in &self.meta {
            if m == META_EMPTY {
                if leading.is_none() {
                    leading = Some(cur);
                }
                best = best.max(cur);
                cur = 0;
            } else {
                cur += 1;
            }
        }
        match leading {
            // No empty slot at all: a miss probe scans the whole table.
            None => self.meta.len(),
            // Probe runs wrap: join the trailing run to the leading one.
            Some(lead) => best.max(cur + lead),
        }
    }

    /// Pre-size so `additional` inserts fit the load bound and the
    /// arena without intermediate growth steps — batch merges size the
    /// scratch once per batch instead of doubling through it.
    pub fn reserve(&mut self, additional: usize) {
        let free_cells = self.entries.len() - self.items;
        self.entries
            .reserve_exact(additional.saturating_sub(free_cells));
        let needed = self.used + additional;
        if self.meta.is_empty() {
            let mut cap = 8usize;
            while needed * 8 > cap * 7 {
                cap *= 2;
            }
            self.alloc_meta(cap);
            return;
        }
        if needed * 8 <= self.meta.len() * 7 {
            return;
        }
        // Rehashing drops tombstones, so size for live items only.
        let mut cap = self.meta.len();
        while (self.items + additional) * 8 > cap * 7 {
            cap *= 2;
        }
        self.rehash(cap);
    }

    /// Grow/rehash so at least one more insert fits the ≤ 7/8 load
    /// bound (counting tombstones).
    fn reserve_one(&mut self) {
        if self.meta.is_empty() {
            self.alloc_meta(8);
            return;
        }
        if (self.used + 1) * 8 <= self.meta.len() * 7 {
            return;
        }
        // Double when genuinely full; rehash in place (same capacity)
        // when tombstones are the bulk of the load.
        let new_cap = if (self.items + 1) * 4 > self.meta.len() * 3 {
            self.meta.len() * 2
        } else {
            self.meta.len()
        };
        self.rehash(new_cap);
    }

    /// Rebuild the metadata at `new_cap` slots from the arena, dropping
    /// tombstones. Entries do not move, so ids survive.
    fn rehash(&mut self, new_cap: usize) {
        if new_cap == self.meta.len() {
            self.meta.fill(META_EMPTY);
        } else {
            self.alloc_meta(new_cap);
        }
        self.used = self.items;
        let mask = self.mask();
        for (id, e) in self.entries.iter().enumerate() {
            if let Entry::Full(t, _) = e {
                // Cached hash: growth never re-hashes key values.
                let hash = t.cached_hash();
                let mut i = self.home(hash);
                while self.meta[i] != META_EMPTY {
                    i = (i + 1) & mask;
                }
                self.meta[i] = marker(hash) | id as u64;
            }
        }
    }
}

impl<R> FromIterator<(Tuple, R)> for TupleMap<R> {
    fn from_iter<I: IntoIterator<Item = (Tuple, R)>>(iter: I) -> Self {
        let mut m = TupleMap::new();
        for (t, r) in iter {
            // Last write wins, like std::collections::HashMap::from_iter.
            let mut pending = Some(r);
            let (_, slot) = m.upsert(&t, || pending.take().expect("unconsumed"));
            if let Some(r) = pending {
                *slot = r;
            }
        }
        m
    }
}

/// The entries of a [`TupleMap`] named by a list of entry ids, as
/// `(key, payload)` pairs — what a secondary-index probe yields. See
/// [`TupleMap::by_ids`].
pub struct ByIds<'a, R> {
    ids: std::slice::Iter<'a, u32>,
    entries: &'a [Entry<R>],
}

impl<R> ByIds<'_, R> {
    /// No entries (a probe that missed).
    pub fn empty() -> Self {
        ByIds {
            ids: [].iter(),
            entries: &[],
        }
    }
}

impl<'a, R> Iterator for ByIds<'a, R> {
    type Item = (&'a Tuple, &'a R);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &id = self.ids.next()?;
        Some(full(self.entries, id))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl<R> ExactSizeIterator for ByIds<'_, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ProjKey;
    use crate::tuple;

    #[test]
    fn upsert_get_remove_roundtrip() {
        let mut m: TupleMap<i64> = TupleMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&tuple![1, 2]), None);
        let (inserted, v) = m.upsert(&tuple![1, 2], || 5);
        assert!(inserted);
        *v += 1;
        assert_eq!(m.get(&tuple![1, 2]), Some(&6));
        let (inserted, v) = m.upsert(&tuple![1, 2], || 0);
        assert!(!inserted);
        assert_eq!(*v, 6);
        assert_eq!(m.len(), 1);
        let (k, r) = m.remove(&tuple![1, 2]).unwrap();
        assert_eq!((k, r), (tuple![1, 2], 6));
        assert!(m.remove(&tuple![1, 2]).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn many_entries_grow_and_survive() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..1000i64 {
            m.upsert(&tuple![i, i * 2], || i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000i64 {
            assert_eq!(m.get(&tuple![i, i * 2]), Some(&i), "key {i}");
        }
        assert_eq!(m.get(&tuple![1000, 2000]), None);
    }

    #[test]
    fn borrowed_probe_finds_entries() {
        let mut m: TupleMap<&'static str> = TupleMap::new();
        m.upsert(&tuple![20, 10], || "hit");
        let base = tuple![10, 20, 30];
        let key = ProjKey::new(&base, &[1, 0]);
        assert_eq!(m.get(&key), Some(&"hit"));
        let miss = ProjKey::new(&base, &[0, 1]);
        assert_eq!(m.get(&miss), None);
    }

    #[test]
    fn borrowed_upsert_materializes_once() {
        let mut m: TupleMap<i64> = TupleMap::new();
        let base = tuple![7, 8];
        let key = ProjKey::new(&base, &[1]);
        let (inserted, v) = m.upsert(&key, || 1);
        assert!(inserted);
        *v += 1;
        let (inserted, _) = m.upsert(&key, || 100);
        assert!(!inserted);
        assert_eq!(m.get(&tuple![8]), Some(&2));
    }

    #[test]
    fn tombstones_are_reused() {
        let mut m: TupleMap<i64> = TupleMap::new();
        // Fill/erase churn on a fixed key set: capacity must stabilize.
        for round in 0..50 {
            for i in 0..16i64 {
                m.upsert(&tuple![i], || round);
            }
            for i in 0..16i64 {
                m.remove(&tuple![i]).unwrap();
            }
        }
        assert!(m.is_empty());
        assert!(
            m.meta.len() <= 64,
            "churn grew the table to {} slots",
            m.meta.len()
        );
    }

    /// Removed cells go on the free list and are reused before the
    /// arena grows: fixed-key churn never grows it, and every id handed
    /// out stays below the peak live count.
    #[test]
    fn free_list_reuse_never_grows_the_arena() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..16i64 {
            m.upsert(&tuple![i], || i);
        }
        let cap = m.entries.capacity();
        for round in 0..50i64 {
            // Interleave removals and re-inserts so the free list holds
            // a varying number of cells.
            for i in (0..16i64).filter(|i| (i + round) % 3 != 0) {
                m.remove(&tuple![i]).unwrap();
            }
            for i in (0..16i64).filter(|i| (i + round) % 3 != 0) {
                let (inserted, id, _) = m.upsert_id(&tuple![i], || round);
                assert!(inserted);
                assert!(id < 16, "round {round}: id {id} past the peak live count");
            }
            assert_eq!(m.entries.len(), 16, "round {round}: arena grew");
        }
        assert_eq!(m.entries.capacity(), cap);
        assert_eq!(m.len(), 16);
    }

    /// A key keeps its id across growth, rehashing and other keys'
    /// removal; `by_ids` reads entries back by id.
    #[test]
    fn ids_are_stable_until_removed() {
        let mut m: TupleMap<i64> = TupleMap::new();
        let (_, id7, _) = m.upsert_id(&tuple![7], || 70);
        for i in 100..1100i64 {
            m.upsert(&tuple![i], || i);
        }
        for i in (100..1100i64).step_by(2) {
            m.remove(&tuple![i]);
        }
        m.retain(|t, _| t.get(0).as_int().unwrap() % 4 != 1);
        assert_eq!(m.upsert_id(&tuple![7], || 0).1, id7);
        assert_eq!(full(&m.entries, id7), (&tuple![7], &70));
        let (_, id9, _) = m.upsert_id(&tuple![9], || 90);
        let ids = [id9, id7, id9];
        let got: Vec<(Tuple, i64)> = m.by_ids(&ids).map(|(t, &v)| (t.clone(), v)).collect();
        assert_eq!(got, vec![(tuple![9], 90), (tuple![7], 70), (tuple![9], 90)]);
        assert_eq!(m.by_ids(&ids).len(), 3);
        assert_eq!(m.remove_id(id7), (tuple![7], 70));
        assert_eq!(m.get(&tuple![7]), None);
        assert_eq!(ByIds::<i64>::empty().len(), 0);
    }

    #[test]
    fn iteration_sees_all_live_entries() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..20i64 {
            m.upsert(&tuple![i], || i);
        }
        for i in 0..10i64 {
            m.remove(&tuple![i]);
        }
        let mut got: Vec<i64> = m.iter().map(|(_, &v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        for (id, t, v) in m.iter_ids() {
            assert_eq!(full(&m.entries, id), (t, v));
        }
    }

    #[test]
    fn retain_drops_entries_and_survives_reuse() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..100i64 {
            m.upsert(&tuple![i], || i);
        }
        m.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&tuple![7]), None);
        assert_eq!(m.get(&tuple![8]), Some(&8));
        // Tombstoned slots are reusable and rehashed away on demand.
        for i in 100..200i64 {
            m.upsert(&tuple![i], || i);
        }
        assert_eq!(m.len(), 150);
        assert_eq!(m.get(&tuple![150]), Some(&150));
    }

    /// `retain` frees the dropped entries' cells: the next inserts
    /// reuse them instead of growing the arena, and survivors keep
    /// their ids.
    #[test]
    fn retain_frees_arena_cells() {
        let mut m: TupleMap<i64> = TupleMap::new();
        let ids: Vec<u32> = (0..64i64)
            .map(|i| m.upsert_id(&tuple![i], || i).1)
            .collect();
        m.retain(|_, v| *v % 4 == 0);
        assert_eq!(m.len(), 16);
        for i in (0..64i64).step_by(4) {
            assert_eq!(m.upsert_id(&tuple![i], || -1).1, ids[i as usize]);
        }
        for i in 1000..1048i64 {
            m.upsert(&tuple![i], || i);
        }
        assert_eq!(m.entries.len(), 64, "freed cells were reused");
    }

    /// A retain that drops the bulk of the table compacts immediately:
    /// probe chains must not walk the dropped entries' tombstones until
    /// some later insert happens to trigger a rehash.
    #[test]
    fn retain_compacts_heavy_sweeps() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..4096i64 {
            m.upsert(&tuple![i], || i);
        }
        let cap = m.meta.len();
        m.retain(|t, _| t.get(0).as_int().unwrap() < 64);
        assert_eq!(m.len(), 64);
        assert_eq!(m.tombstones(), 0, "heavy sweep must compact in place");
        assert_eq!(m.meta.len(), cap, "compaction keeps capacity");
        // At 64 live keys in a large table, probe runs are short; with
        // 4032 retained tombstones they would approach O(capacity).
        assert!(
            m.max_probe_run() <= 16,
            "probe run {} after sweep",
            m.max_probe_run()
        );
        for i in 0..64i64 {
            assert_eq!(m.get(&tuple![i]), Some(&i));
        }
    }

    /// Repeated sweep rounds (insert fresh, retain a stable live set)
    /// keep probe chains bounded — the regression the compacting rehash
    /// fixes: tombstones from round N used to linger into round N+1.
    #[test]
    fn repeated_retain_rounds_keep_probe_runs_bounded() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..64i64 {
            m.upsert(&tuple![i], || i);
        }
        for round in 1..=50i64 {
            for i in 0..512i64 {
                m.upsert(&tuple![round * 10_000 + i], || i);
            }
            m.retain(|t, _| t.get(0).as_int().unwrap() < 64);
            assert_eq!(m.len(), 64, "round {round}");
            assert!(
                m.tombstones() <= m.len() / 2,
                "round {round}: {} tombstones past the compaction bound",
                m.tombstones()
            );
            assert!(
                m.max_probe_run() <= 32,
                "round {round}: probe run {} degenerated",
                m.max_probe_run()
            );
        }
    }

    /// A light retain (dropping few entries) does not pay for a rehash.
    #[test]
    fn light_retain_leaves_tombstones() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..1024i64 {
            m.upsert(&tuple![i], || i);
        }
        m.retain(|t, _| t.get(0).as_int().unwrap() >= 4);
        assert_eq!(m.len(), 1020);
        assert_eq!(m.tombstones(), 4, "light sweeps keep their tombstones");
    }

    #[test]
    fn reserve_presizes_without_growth_during_inserts() {
        let mut m: TupleMap<i64> = TupleMap::new();
        m.reserve(1000);
        let cap = m.meta.len();
        let arena = m.entries.capacity();
        for i in 0..1000i64 {
            m.upsert(&tuple![i], || i);
        }
        assert_eq!(m.meta.len(), cap, "reserve sized for the batch");
        assert_eq!(m.entries.capacity(), arena, "reserve sized the arena");
        assert_eq!(m.len(), 1000);
        // A no-op when capacity already suffices.
        m.reserve(10);
        assert_eq!(m.meta.len(), cap);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..100i64 {
            m.upsert(&tuple![i], || i);
        }
        m.remove(&tuple![3]);
        let cap = m.meta.len();
        let arena = m.entries.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.meta.len(), cap);
        assert_eq!(m.get(&tuple![5]), None);
        // The arena keeps its capacity, the free list is dropped and ids
        // restart from zero.
        assert_eq!(m.entries.capacity(), arena);
        assert_eq!(m.upsert_id(&tuple![5], || 5).1, 0);
        assert_eq!(m.upsert_id(&tuple![6], || 6).1, 1);
    }

    #[test]
    fn drain_into_empties_the_arena() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..40i64 {
            m.upsert(&tuple![i], || i);
        }
        for i in (0..40i64).step_by(5) {
            m.remove(&tuple![i]);
        }
        let arena = m.entries.capacity();
        let mut out = Vec::new();
        m.drain_into(&mut out);
        // Arena order is id order: survivors come out in insertion order.
        let want: Vec<(Tuple, i64)> = (0..40i64)
            .filter(|i| i % 5 != 0)
            .map(|i| (tuple![i], i))
            .collect();
        assert_eq!(out, want);
        assert!(m.is_empty());
        assert_eq!(m.tombstones(), 0);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.entries.capacity(), arena);
        assert_eq!(m.upsert_id(&tuple![1], || 1).1, 0);
        assert_eq!(m.get(&tuple![2]), None);
    }
}
