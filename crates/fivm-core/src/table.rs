//! An open-addressing hash table keyed by [`Tuple`]s that supports
//! borrowed-key probing.
//!
//! `std::collections::HashMap` cannot look a key up by anything but
//! `Borrow<Q>` of the owned key type, which forces callers to
//! materialize a fresh [`Tuple`] for every probe that is a projection
//! or concatenation of tuples they already hold. [`TupleMap`] accepts
//! any [`TupleKey`] for lookups and removals, and materializes an owned
//! key only when an insert introduces a genuinely new key — which, for
//! inline tuples (arity ≤ 3), still allocates nothing.
//!
//! Layout: power-of-two slot array, linear probing, tombstone deletion
//! (rehahsed away on growth). Tuples cache their Fx hash, so growth and
//! re-probing never re-hash key values. `clear` keeps the slot array,
//! and removals leave capacity in place, so a steady-state workload
//! (payload updates, or deletes matched by re-inserts) performs no heap
//! allocation.
//!
//! Probing walks a parallel **metadata array** — one word per slot
//! holding empty/tombstone sentinels or the slot key's hash marker —
//! and touches the fat slot array (a key tuple plus payload per slot)
//! only on a marker match. At batch scale the slot array of a 100k-key
//! view runs to many megabytes while its metadata stays L2-resident,
//! so probe chains cost compact-word reads instead of DRAM misses.

use crate::key::TupleKey;
use crate::tuple::Tuple;

#[derive(Clone, Debug)]
enum Slot<R> {
    Empty,
    Tombstone,
    Full(Tuple, R),
}

/// Metadata word: the slot is empty (probe chains stop here).
const META_EMPTY: u64 = 0;
/// Metadata word: deleted entry (probe chains continue through it).
const META_TOMBSTONE: u64 = 1;

/// Metadata word for an occupied slot: the key's hash with the top bit
/// forced, so it can never collide with the two sentinels. Equality of
/// markers is a filter only — the slot's exact cached hash and key
/// comparison still decide.
#[inline]
fn marker(hash: u64) -> u64 {
    hash | (1 << 63)
}

/// Hash map from [`Tuple`] keys to `R` payloads with borrowed-key
/// probing; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct TupleMap<R> {
    /// Probe metadata, parallel to `slots` (see the module docs).
    meta: Vec<u64>,
    slots: Vec<Slot<R>>,
    /// Live entries.
    items: usize,
    /// Live entries plus tombstones (bounds probe-sequence length).
    used: usize,
}

/// Per-capacity-class odd multiplier for the multiply-shift home-slot
/// function (see [`TupleMap::home`]).
///
/// Delta propagation constantly streams one `TupleMap` into another
/// (`Relation::iter` → store merge, hash-scratch drain → view
/// inserts). Iterating a table yields keys sorted by their home slots,
/// and feeding a *key order correlated with home order* into a
/// linear-probed destination of a different capacity degrades into
/// long probe runs (measured ~7× slower at 100k keys with a shared
/// spread function — and fully quadratic in the worst case, when a
/// sorted key range concentrates into a narrow home region of a
/// growing destination). Deriving the mixing multiplier from the
/// capacity class makes the slot orders of different-sized tables
/// statistically independent, so streamed inserts see ordinary
/// random-order probe costs; same-sized tables share an order, which
/// is the benign left-to-right fill.
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
            slots: Vec::new(),
            items: 0,
            used: 0,
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

    /// Drop all entries, keeping the slot array for reuse.
    pub fn clear(&mut self) {
        self.meta.fill(META_EMPTY);
        for s in &mut self.slots {
            *s = Slot::Empty;
        }
        self.items = 0;
        self.used = 0;
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Home slot of `hash`: multiply-shift with the capacity class's
    /// own multiplier (see [`class_mult`]), taking the top
    /// `log2(capacity)` bits — the best-mixed ones.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        let log2cap = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(class_mult(log2cap)) >> (64 - log2cap)) as usize
    }

    /// Index of the slot holding `key`, if present.
    // `always`: `TriangleHlEngine::apply_update` probes through here at
    // ten call sites, and thin LTO's heuristics do not reliably inline it
    // there; outlined, `triangle_hl_churn` ran ~10 % slower (2-vCPU Xeon).
    #[inline(always)]
    fn find<K: TupleKey + ?Sized>(&self, key: &K) -> Option<usize> {
        if self.slots.is_empty() {
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
            if m == mark {
                if let Slot::Full(t, _) = &self.slots[i] {
                    if t.cached_hash() == hash && key.matches(t) {
                        return Some(i);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Payload of `key`, if present. Accepts borrowed probe keys.
    #[inline]
    pub fn get<K: TupleKey + ?Sized>(&self, key: &K) -> Option<&R> {
        self.find(key).map(|i| match &self.slots[i] {
            Slot::Full(_, r) => r,
            _ => unreachable!("find returns full slots"),
        })
    }

    /// Mutable payload of `key`, if present.
    #[inline]
    pub fn get_mut<K: TupleKey + ?Sized>(&mut self, key: &K) -> Option<&mut R> {
        self.find(key).map(|i| match &mut self.slots[i] {
            Slot::Full(_, r) => r,
            _ => unreachable!("find returns full slots"),
        })
    }

    /// True iff `key` has an entry.
    #[inline]
    pub fn contains_key<K: TupleKey + ?Sized>(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Look up `key`, inserting `default()` under the materialized key
    /// if absent. Returns whether the entry was just inserted, and the
    /// payload.
    pub fn upsert<K: TupleKey + ?Sized>(
        &mut self,
        key: &K,
        default: impl FnOnce() -> R,
    ) -> (bool, &mut R) {
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
            } else if m == mark {
                if let Slot::Full(t, _) = &self.slots[i] {
                    if t.cached_hash() == hash && key.matches(t) {
                        match &mut self.slots[i] {
                            Slot::Full(_, r) => return (false, r),
                            _ => unreachable!("meta marker implies a full slot"),
                        }
                    }
                }
            }
            i = (i + 1) & mask;
        };
        if self.meta[slot] == META_EMPTY {
            self.used += 1;
        }
        self.items += 1;
        self.meta[slot] = mark;
        self.slots[slot] = Slot::Full(key.materialize(), default());
        match &mut self.slots[slot] {
            Slot::Full(_, r) => (true, r),
            _ => unreachable!(),
        }
    }

    /// Remove `key`'s entry, returning its payload. Leaves a tombstone;
    /// capacity is retained.
    pub fn remove<K: TupleKey + ?Sized>(&mut self, key: &K) -> Option<(Tuple, R)> {
        let i = self.find(key)?;
        let old = std::mem::replace(&mut self.slots[i], Slot::Tombstone);
        self.meta[i] = META_TOMBSTONE;
        self.items -= 1;
        match old {
            Slot::Full(t, r) => Some((t, r)),
            _ => unreachable!("find returns full slots"),
        }
    }

    /// Move every entry into `out` (table order), leaving the map
    /// empty but with its capacity retained — the scratch-buffer
    /// pattern hot paths use to merge duplicates without allocating.
    pub fn drain_into(&mut self, out: &mut Vec<(Tuple, R)>) {
        for s in &mut self.slots {
            if matches!(s, Slot::Full(..)) {
                match std::mem::replace(s, Slot::Empty) {
                    Slot::Full(t, r) => out.push((t, r)),
                    _ => unreachable!("just matched"),
                }
            } else {
                *s = Slot::Empty;
            }
        }
        self.meta.fill(META_EMPTY);
        self.items = 0;
        self.used = 0;
    }

    /// Iterate over `(key, payload)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &R)> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Full(t, r) => Some((t, r)),
            _ => None,
        })
    }

    /// Iterate with mutable payloads.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&Tuple, &mut R)> {
        self.slots.iter_mut().filter_map(|s| match s {
            Slot::Full(t, r) => Some((&*t, r)),
            _ => None,
        })
    }

    /// Iterate over keys.
    pub fn keys(&self) -> impl Iterator<Item = &Tuple> {
        self.iter().map(|(t, _)| t)
    }

    /// Keep entries for which `f` returns `true`; the rest become
    /// tombstones (capacity retained). This is the high-water-mark
    /// sweep primitive: callers retaining emptied buckets for
    /// allocation-freedom use it to shed them once they outnumber the
    /// live ones.
    ///
    /// A sweep that drops many entries would otherwise leave probe
    /// chains walking through its tombstones until the next
    /// insert-triggered rehash — under repeated sweeps with few
    /// intervening inserts, probes degenerate toward O(capacity). So
    /// when the post-retain tombstones exceed half the live count, the
    /// table rehashes in place (same capacity, tombstones dropped),
    /// restoring load-factor-bounded probe chains immediately.
    pub fn retain(&mut self, mut f: impl FnMut(&Tuple, &mut R) -> bool) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Slot::Full(t, r) = s {
                if !f(t, r) {
                    *s = Slot::Tombstone;
                    self.meta[i] = META_TOMBSTONE;
                    self.items -= 1;
                }
            }
        }
        if self.tombstones() > self.items / 2 && self.tombstones() > 0 {
            self.rehash(self.slots.len());
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

    /// Pre-size so `additional` inserts fit the load bound without
    /// intermediate growth steps — batch merges size the scratch once
    /// per batch instead of doubling through it.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.used + additional;
        if self.slots.is_empty() {
            let mut cap = 8usize;
            while needed * 8 > cap * 7 {
                cap *= 2;
            }
            self.init(cap);
            return;
        }
        if needed * 8 <= self.slots.len() * 7 {
            return;
        }
        // Rehashing drops tombstones, so size for live items only.
        let mut cap = self.slots.len();
        while (self.items + additional) * 8 > cap * 7 {
            cap *= 2;
        }
        self.rehash(cap);
    }

    /// Grow/rehash so at least one more insert fits the ≤ 7/8 load
    /// bound (counting tombstones).
    fn reserve_one(&mut self) {
        if self.slots.is_empty() {
            self.init(8);
            return;
        }
        if (self.used + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        // Double when genuinely full; rehash in place (same capacity)
        // when tombstones are the bulk of the load.
        let new_cap = if (self.items + 1) * 4 > self.slots.len() * 3 {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        self.rehash(new_cap);
    }

    /// Allocate empty slot and metadata arrays of `cap` slots.
    fn init(&mut self, cap: usize) {
        self.meta = vec![META_EMPTY; cap];
        self.slots = (0..cap).map(|_| Slot::Empty).collect();
    }

    /// Re-insert every live entry into a fresh slot array of `new_cap`
    /// slots, dropping tombstones.
    fn rehash(&mut self, new_cap: usize) {
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| Slot::Empty).collect());
        self.meta.clear();
        self.meta.resize(new_cap, META_EMPTY);
        self.used = self.items;
        let mask = self.mask();
        for s in old {
            if let Slot::Full(t, r) = s {
                // Cached hash: growth never re-hashes key values.
                let hash = t.cached_hash();
                let mut i = self.home(hash);
                while self.meta[i] != META_EMPTY {
                    i = (i + 1) & mask;
                }
                self.meta[i] = marker(hash);
                self.slots[i] = Slot::Full(t, r);
            }
        }
    }

    /// Approximate heap bytes owned by the slot and metadata arrays
    /// (excluding key and payload heap data).
    pub fn approx_slot_bytes(&self) -> usize {
        self.slots.len() * (std::mem::size_of::<Slot<R>>() + std::mem::size_of::<u64>())
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
            m.slots.len() <= 64,
            "churn grew the table to {} slots",
            m.slots.len()
        );
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
        for (_, v) in m.iter_mut() {
            *v += 1;
        }
        assert_eq!(m.get(&tuple![15]), Some(&16));
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

    /// A retain that drops the bulk of the table compacts immediately:
    /// probe chains must not walk the dropped entries' tombstones until
    /// some later insert happens to trigger a rehash.
    #[test]
    fn retain_compacts_heavy_sweeps() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..4096i64 {
            m.upsert(&tuple![i], || i);
        }
        let cap = m.slots.len();
        m.retain(|t, _| t.get(0).as_int().unwrap() < 64);
        assert_eq!(m.len(), 64);
        assert_eq!(m.tombstones(), 0, "heavy sweep must compact in place");
        assert_eq!(m.slots.len(), cap, "compaction keeps capacity");
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
        let cap = m.slots.len();
        for i in 0..1000i64 {
            m.upsert(&tuple![i], || i);
        }
        assert_eq!(m.slots.len(), cap, "reserve sized for the batch");
        assert_eq!(m.len(), 1000);
        // A no-op when capacity already suffices.
        m.reserve(10);
        assert_eq!(m.slots.len(), cap);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m: TupleMap<i64> = TupleMap::new();
        for i in 0..100i64 {
            m.upsert(&tuple![i], || i);
        }
        let cap = m.slots.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots.len(), cap);
        assert_eq!(m.get(&tuple![5]), None);
    }
}
