//! Epoch-pinned snapshot reads over a maintained engine.
//!
//! The executor is single-owner: while a thread is inside
//! [`IvmEngine::apply`], no other thread may probe the views. This
//! module splits the read path from the maintenance path the way a
//! serving system needs (the paper's views are only useful if they can
//! be *queried* while staying fresh):
//!
//! * the maintenance thread owns the mutable [`IvmEngine`] and, at
//!   moments of its choosing, **publishes** an epoch — an immutable
//!   [`EngineSnapshot`] built copy-on-write from the live stores;
//! * readers **pin** the current epoch through a [`SnapshotReader`]
//!   (one brief, uncontended lock to clone an `Arc`) and then probe it
//!   entirely lock-free: point [`EngineSnapshot::get`], index
//!   [`EngineSnapshot::probe`], full enumeration;
//! * an epoch **retires** when the maintenance thread publishes past it
//!   and the last reader unpins (its `Arc` count reaches zero — no
//!   epoch list, no GC thread).
//!
//! Copy-on-write is keyed on [`ViewStore::version`]: publishing clones
//! only stores mutated since the previous epoch and carries clean ones
//! forward as shared `Arc`s, so publish cost is proportional to what
//! actually changed. Between publishes the writer pays nothing — the
//! single-tuple maintenance path is untouched.
//!
//! [`ServingEngine`] packages the common arrangement: engine +
//! publisher + subscription hub (see [`crate::subscribe`]), with an
//! optional publish-every-N-updates cadence.

use crate::executor::IvmEngine;
use crate::subscribe::{Subscriber, SubscriptionHub};
use crate::view::ViewStore;
use fivm_core::sync::atomic::{AtomicU64, Ordering};
use fivm_core::sync::RwLock;
use fivm_core::{ByIds, Catalog, Delta, Relation, Ring, Tuple, TupleKey};
use fivm_query::{NodeId, RelIndex};
use std::sync::Arc;

/// Seeded-fault knobs for the model checker (`--cfg fivm_model_check`
/// builds only). Real builds compile none of this.
#[cfg(fivm_model_check)]
pub mod faults {
    use std::sync::atomic::AtomicBool;

    /// Advertise the new epoch number *before* the slot holds the new
    /// snapshot (and with `Relaxed` instead of `Release`): a reader that
    /// observes the advertised epoch can then pin the *previous*
    /// snapshot — the torn publish the model checker must catch.
    pub static TORN_PUBLISH: AtomicBool = AtomicBool::new(false);
}

/// Single-slot epoch handoff: one writer publishes immutable values,
/// any number of readers pin the current one.
///
/// This is the whole synchronization story of the serving layer,
/// extracted so the model checker can explore it in isolation:
///
/// * [`EpochCell::publish`] swaps the new `Arc` into the slot under the
///   write lock, then advertises its epoch number with a `Release`
///   store;
/// * [`EpochCell::pin`] clones the `Arc` under a brief read lock —
///   everything after is lock-free against the immutable value;
/// * [`EpochCell::epoch`] is the cheap freshness probe (`Acquire`
///   load, no lock): once it returns `e`, a subsequent `pin` is
///   guaranteed to return epoch `>= e`.
pub struct EpochCell<T> {
    slot: RwLock<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// A cell holding `initial` as epoch `epoch`.
    pub fn new(epoch: u64, initial: Arc<T>) -> Self {
        EpochCell {
            slot: RwLock::new(initial),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// Publish `next` as epoch `epoch`. Pinned older values are
    /// unaffected; new pins see `next`. The epoch number must only
    /// increase (single writer).
    pub fn publish(&self, epoch: u64, next: Arc<T>) {
        #[cfg(fivm_model_check)]
        // relaxed-ok: fault knob, set before the checker runs.
        if faults::TORN_PUBLISH.load(std::sync::atomic::Ordering::Relaxed) {
            // Seeded bug: advertise before the slot holds the value
            // (relaxed-ok: the weak order IS the bug under test).
            self.epoch.store(epoch, Ordering::Relaxed);
            *self.slot.write().expect("epoch slot poisoned") = next;
            return;
        }
        *self.slot.write().expect("epoch slot poisoned") = next;
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Pin the current value (brief read lock, then lock-free).
    pub fn pin(&self) -> Arc<T> {
        self.slot.read().expect("epoch slot poisoned").clone()
    }

    /// The advertised epoch: after `epoch()` returns `e`, `pin()`
    /// returns a value published as epoch `>= e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// One published epoch: an immutable, internally consistent image of
/// every materialized view at a single update boundary (LSN).
pub struct EngineSnapshot<R> {
    epoch: u64,
    lsn: u64,
    root: NodeId,
    views: Vec<Option<Arc<ViewStore<R>>>>,
}

impl<R: Ring> EngineSnapshot<R> {
    /// Epoch number (strictly increasing across publishes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Update boundary this snapshot reflects: exactly the first `lsn`
    /// applied updates, never a torn mix.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// A node's view at this epoch, if materialized.
    pub fn view(&self, node: NodeId) -> Option<&ViewStore<R>> {
        self.views.get(node)?.as_deref()
    }

    /// Point lookup in a node's view (lock-free; borrowed probe keys
    /// accepted).
    pub fn get<K: TupleKey + ?Sized>(&self, node: NodeId, key: &K) -> Option<&R> {
        self.view(node)?.get(key)
    }

    /// Secondary-index probe in a node's view (lock-free): the matching
    /// `(key, payload)` entries, none if the node is not materialized.
    /// The index must have been created on the live store before this
    /// epoch was published.
    pub fn probe<K: TupleKey + ?Sized>(&self, node: NodeId, ix: usize, key: &K) -> ByIds<'_, R> {
        self.view(node)
            .map_or_else(ByIds::empty, |v| v.probe(ix, key))
    }

    /// Full enumeration of a node's view (lock-free).
    pub fn iter(&self, node: NodeId) -> impl Iterator<Item = (&Tuple, &R)> {
        self.view(node).into_iter().flat_map(ViewStore::iter)
    }

    /// The root view (query result) at this epoch.
    pub fn result(&self) -> Relation<R> {
        self.view(self.root)
            .expect("root view is always materialized")
            .to_relation()
    }

    /// Ordered enumeration of a node's view for user-facing readback:
    /// symbol keys sort by their resolved strings (dictionary order via
    /// [`fivm_core::Value::cmp_resolved`]), not by intern id.
    pub fn sorted(&self, node: NodeId, catalog: &Catalog) -> Option<Vec<(Tuple, R)>> {
        Some(self.view(node)?.to_relation().sorted_resolved(catalog))
    }
}

/// Live-epoch observability of the serving layer: which published
/// epochs are still reachable and how far behind the oldest pin is.
/// An epoch stays alive as long as any reader holds its `Arc` (the
/// current epoch is always alive — the publish slot itself holds it),
/// so a wedged reader shows up as `oldest_pinned_age` growing without
/// bound while `live_epochs` stays flat.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Epoch of the most recent publish.
    pub current_epoch: u64,
    /// Published epochs still reachable (pinned by a reader or held by
    /// the publish slot). At least 1 once anything was published.
    pub live_epochs: usize,
    /// The oldest still-reachable epoch.
    pub oldest_live_epoch: Option<u64>,
    /// `current_epoch - oldest_live_epoch`: how many epochs behind the
    /// most stale pin is. 0 when only the current epoch is alive.
    pub oldest_pinned_age: u64,
}

/// The write half of the epoch handoff: owned by the maintenance
/// thread, builds and publishes [`EngineSnapshot`]s.
pub struct SnapshotPublisher<R> {
    slot: Arc<EpochCell<EngineSnapshot<R>>>,
    /// Per-node [`ViewStore::version`] at the last publish — the
    /// copy-on-write key.
    versions: Vec<Option<u64>>,
    /// Weak handle per published epoch still alive at the last publish
    /// — pruned there, so its length is bounded by the number of
    /// epochs readers actually keep pinned (plus the current one).
    live: Vec<(u64, std::sync::Weak<EngineSnapshot<R>>)>,
    epoch: u64,
}

impl<R: Ring> SnapshotPublisher<R> {
    /// Start publishing for `engine`, immediately publishing epoch 0
    /// with its current state (so readers always have an epoch to pin).
    pub fn new(engine: &IvmEngine<R>) -> Self {
        let n = engine.node_count();
        let mut this = SnapshotPublisher {
            slot: Arc::new(EpochCell::new(
                0,
                Arc::new(EngineSnapshot {
                    epoch: 0,
                    lsn: engine.updates_applied(),
                    root: engine.tree().root,
                    views: vec![None; n],
                }),
            )),
            versions: vec![None; n],
            live: Vec::new(),
            epoch: 0,
        };
        this.publish_at(engine, 0);
        this
    }

    /// Build the next epoch from the live stores (copy-on-write against
    /// the previous one) and swap it into the readers' slot. Readers
    /// pinned to older epochs are unaffected; new pins see this epoch.
    pub fn publish(&mut self, engine: &IvmEngine<R>) -> Arc<EngineSnapshot<R>> {
        let next = self.epoch + 1;
        self.publish_at(engine, next)
    }

    fn publish_at(&mut self, engine: &IvmEngine<R>, epoch: u64) -> Arc<EngineSnapshot<R>> {
        let prev = self.slot.pin();
        let views = (0..engine.node_count())
            .map(|node| {
                let store = engine.view_store(node)?;
                let ver = store.version();
                if self.versions[node] == Some(ver) {
                    if let Some(shared) = prev.views.get(node).and_then(Option::as_ref) {
                        return Some(shared.clone());
                    }
                }
                self.versions[node] = Some(ver);
                Some(Arc::new(store.snapshot_copy()))
            })
            .collect();
        let snap = Arc::new(EngineSnapshot {
            epoch,
            lsn: engine.updates_applied(),
            root: engine.tree().root,
            views,
        });
        self.slot.publish(epoch, snap.clone());
        self.epoch = epoch;
        self.live.retain(|(_, w)| w.strong_count() > 0);
        self.live.push((epoch, Arc::downgrade(&snap)));
        snap
    }

    /// Epoch of the most recent publish.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Count the epochs still reachable right now. O(live epochs) —
    /// the registry only holds epochs that were alive at the last
    /// publish, so a pin leak is visible without being payable.
    pub fn stats(&self) -> ServingStats {
        let mut live_epochs = 0;
        let mut oldest_live_epoch = None;
        for (epoch, w) in &self.live {
            if w.strong_count() > 0 {
                live_epochs += 1;
                if oldest_live_epoch.is_none() {
                    oldest_live_epoch = Some(*epoch);
                }
            }
        }
        ServingStats {
            current_epoch: self.epoch,
            live_epochs,
            oldest_live_epoch,
            oldest_pinned_age: oldest_live_epoch.map_or(0, |o| self.epoch - o),
        }
    }

    /// A handle readers use to pin epochs; cheap to clone, `Send`.
    pub fn reader(&self) -> SnapshotReader<R> {
        SnapshotReader {
            slot: self.slot.clone(),
        }
    }
}

/// The read half of the epoch handoff: pins the current epoch. One
/// brief read-lock clones the `Arc`; everything after is lock-free
/// against the immutable snapshot. Epochs retire when the last pin
/// (and the publisher's slot) drop their `Arc`.
pub struct SnapshotReader<R> {
    slot: Arc<EpochCell<EngineSnapshot<R>>>,
}

impl<R> Clone for SnapshotReader<R> {
    fn clone(&self) -> Self {
        SnapshotReader {
            slot: self.slot.clone(),
        }
    }
}

impl<R: Ring> SnapshotReader<R> {
    /// Pin the current epoch.
    pub fn pin(&self) -> Arc<EngineSnapshot<R>> {
        self.slot.pin()
    }

    /// Freshness probe without pinning: once this returns `e`, a
    /// subsequent [`SnapshotReader::pin`] returns epoch `>= e`.
    pub fn epoch(&self) -> u64 {
        self.slot.epoch()
    }
}

/// Engine + epoch publisher + subscription hub: the serving arrangement
/// for a non-durable engine (for the write-ahead-logged equivalent see
/// `fivm_durability::DurableEngine`, which embeds the same layers and
/// publishes its recovered state as an epoch).
pub struct ServingEngine<R: Ring> {
    engine: IvmEngine<R>,
    publisher: SnapshotPublisher<R>,
    hub: SubscriptionHub<R>,
    publish_every: u64,
    unpublished: u64,
}

impl<R: Ring> ServingEngine<R> {
    /// Wrap `engine`, publishing its current state as epoch 0.
    pub fn new(engine: IvmEngine<R>) -> Self {
        let publisher = SnapshotPublisher::new(&engine);
        ServingEngine {
            engine,
            publisher,
            hub: SubscriptionHub::new(),
            publish_every: 0,
            unpublished: 0,
        }
    }

    /// Publish automatically after every `n` applied updates (`0`, the
    /// default, publishes only on explicit [`ServingEngine::publish`]).
    pub fn with_publish_every(mut self, n: u64) -> Self {
        self.publish_every = n;
        self
    }

    /// Reader handle for pinning epochs (clone one per reader thread).
    pub fn reader(&self) -> SnapshotReader<R> {
        self.publisher.reader()
    }

    /// Subscribe to a materialized node's output-delta stream (`None`
    /// if the node is not materialized). Deltas are delivered at
    /// publish: per epoch, at most one [`crate::subscribe::ViewDelta`]
    /// per subscription, coalesced and zero-free, in epoch order.
    pub fn subscribe(&mut self, node: NodeId) -> Option<Subscriber<R>> {
        if !self.engine.set_change_capture(node, true) {
            return None;
        }
        Some(self.hub.subscribe(node))
    }

    /// [`ServingEngine::subscribe`] with a per-subscriber queue bound:
    /// once more than `bound` deltas are queued, the oldest are dropped
    /// and folded into a [`crate::subscribe::SubMessage::Lagged`]
    /// marker, so a slow consumer costs bounded memory and never blocks
    /// the maintenance thread.
    pub fn subscribe_bounded(&mut self, node: NodeId, bound: usize) -> Option<Subscriber<R>> {
        if !self.engine.set_change_capture(node, true) {
            return None;
        }
        Some(self.hub.subscribe_bounded(node, bound))
    }

    /// Live-epoch / pin-age observability (see [`ServingStats`]).
    pub fn serving_stats(&self) -> ServingStats {
        self.publisher.stats()
    }

    /// Apply one update (then maybe auto-publish).
    pub fn apply(&mut self, rel: RelIndex, delta: &Delta<R>) {
        self.engine.apply(rel, delta);
        self.unpublished += 1;
        if self.publish_every > 0 && self.unpublished >= self.publish_every {
            self.publish();
        }
    }

    /// Apply a sequence of updates (publishing per the cadence).
    pub fn apply_batch(&mut self, updates: &[(RelIndex, Delta<R>)]) {
        for (rel, d) in updates {
            self.apply(*rel, d);
        }
    }

    /// Publish the next epoch and deliver the epoch's coalesced output
    /// deltas to subscribers.
    pub fn publish(&mut self) -> Arc<EngineSnapshot<R>> {
        let snap = self.publisher.publish(&self.engine);
        self.hub.deliver(snap.epoch(), snap.lsn(), &mut self.engine);
        self.unpublished = 0;
        snap
    }

    /// The wrapped engine (read-only; mutations must go through
    /// [`ServingEngine::apply`] so capture and publish cadence hold).
    pub fn engine(&self) -> &IvmEngine<R> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::{tuple, LiftingMap};
    use fivm_query::{QueryDef, VariableOrder, ViewTree};

    fn serving() -> ServingEngine<i64> {
        let q = QueryDef::example_rst(&[]);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        ServingEngine::new(IvmEngine::new(q, tree, &[0, 1, 2], LiftingMap::new()))
    }

    fn rst_delta(s: &ServingEngine<i64>, rel: usize, t: Tuple) -> Delta<i64> {
        Delta::Flat(Relation::from_pairs(
            s.engine().query().relations[rel].schema.clone(),
            [(t, 1i64)],
        ))
    }

    #[test]
    fn pinned_epoch_survives_later_publishes() {
        let mut s = serving();
        let reader = s.reader();
        let d0 = rst_delta(&s, 0, tuple![1, 2]);
        let d1 = rst_delta(&s, 1, tuple![1, 3, 5]);
        let d2 = rst_delta(&s, 2, tuple![3, 4]);
        s.apply(0, &d0);
        s.apply(1, &d1);
        s.publish();
        let pinned = reader.pin();
        assert_eq!(pinned.lsn(), 2);
        assert!(pinned.result().is_empty()); // T still empty
        s.apply(2, &d2);
        s.publish();
        // The old pin is immutable; a fresh pin sees the join complete.
        assert!(pinned.result().is_empty());
        let fresh = reader.pin();
        assert_eq!(fresh.lsn(), 3);
        assert_eq!(fresh.result().len(), 1);
        assert!(fresh.epoch() > pinned.epoch());
    }

    #[test]
    fn unpublished_updates_are_invisible() {
        let mut s = serving();
        let d0 = rst_delta(&s, 0, tuple![1, 2]);
        s.apply(0, &d0);
        let snap = s.reader().pin();
        assert_eq!(snap.lsn(), 0, "apply without publish must not leak");
        s.publish();
        assert_eq!(s.reader().pin().lsn(), 1);
    }

    #[test]
    fn publish_cadence_auto_publishes() {
        let mut s = serving().with_publish_every(2);
        let reader = s.reader();
        let d = rst_delta(&s, 0, tuple![1, 2]);
        s.apply(0, &d);
        assert_eq!(reader.pin().lsn(), 0);
        s.apply(0, &d);
        assert_eq!(reader.pin().lsn(), 2);
    }

    /// Clean views are carried forward by reference (copy-on-write):
    /// republishing without intervening changes shares every store.
    #[test]
    fn publish_reuses_clean_stores() {
        let mut s = serving();
        let d0 = rst_delta(&s, 0, tuple![1, 2]);
        s.apply(0, &d0);
        let a = s.publish();
        let b = s.publish();
        for node in 0..s.engine().node_count() {
            match (a.views[node].as_ref(), b.views[node].as_ref()) {
                (Some(x), Some(y)) => assert!(Arc::ptr_eq(x, y), "node {node} was re-cloned"),
                (None, None) => {}
                _ => panic!("materialization changed between epochs"),
            }
        }
        assert!(b.epoch() > a.epoch());
    }

    /// Published stores carry no change-capture buffer: a subscribed
    /// view's pending pairs go to delivery, not into every epoch.
    #[test]
    fn published_stores_do_not_capture() {
        let mut s = serving();
        let root = s.engine().tree().root;
        let _sub = s.subscribe(root).expect("the root is materialized");
        for (rel, t) in [(0, tuple![1, 2]), (1, tuple![1, 3, 5]), (2, tuple![3, 4])] {
            let d = rst_delta(&s, rel, t);
            s.apply(rel, &d);
        }
        let snap = s.publish();
        let view = snap.view(root).expect("the root is published");
        assert_eq!(view.len(), 1);
        assert!(!view.capture_enabled());
        assert!(s.engine().view_store(root).unwrap().capture_enabled());
    }

    /// A wedged reader (one that pins an epoch and never unpins) is
    /// visible in [`ServingStats`] — live epochs stay flat at 2 while
    /// the pin's age grows — and releasing the pin retires the epoch
    /// at the next publish.
    #[test]
    fn serving_stats_expose_wedged_reader() {
        let mut s = serving();
        let d = rst_delta(&s, 0, tuple![1, 2]);
        s.apply(0, &d);
        s.publish();
        let wedged = s.reader().pin();
        let pinned_epoch = wedged.epoch();
        for i in 0..5i64 {
            let d = rst_delta(&s, 0, tuple![i + 10, i + 11]);
            s.apply(0, &d);
            s.publish();
            let stats = s.serving_stats();
            assert_eq!(stats.live_epochs, 2, "wedged pin + current epoch");
            assert_eq!(stats.oldest_live_epoch, Some(pinned_epoch));
            assert_eq!(stats.oldest_pinned_age, stats.current_epoch - pinned_epoch);
        }
        drop(wedged);
        s.publish();
        let stats = s.serving_stats();
        assert_eq!(stats.live_epochs, 1, "released epoch must retire");
        assert_eq!(stats.oldest_pinned_age, 0);
        assert_eq!(stats.oldest_live_epoch, Some(stats.current_epoch));
    }

    /// Readers can pin from other threads while the writer publishes.
    #[test]
    fn concurrent_pin_and_publish_smoke() {
        let mut s = serving();
        let reader = s.reader();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let r = &reader;
            let stop = &stop;
            let h = scope.spawn(move || {
                let mut last = 0u64;
                // relaxed-ok: test stop flag; eventual visibility
                // is all the loop needs.
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = r.pin();
                    assert!(snap.epoch() >= last, "epochs must be monotonic");
                    last = snap.epoch();
                }
                last
            });
            for i in 0..200i64 {
                let rel = (i % 3) as usize;
                let t = if rel == 1 {
                    tuple![i, i + 1, i + 2] // S(A,C,E) is ternary
                } else {
                    tuple![i, i + 1]
                };
                let d = rst_delta(&s, rel, t);
                s.apply(rel, &d);
                s.publish();
            }
            // relaxed-ok: test stop flag.
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let seen = h.join().unwrap();
            assert!(seen <= s.publisher.current_epoch());
        });
    }
}
