//! The F-IVM executor: factorized higher-order IVM (paper §4–§5).
//!
//! An [`IvmEngine`] instantiates a view tree over a concrete ring:
//! it materializes the views chosen by µ (Figure 5), registers a trigger
//! per updatable relation, and propagates deltas along leaf-to-root
//! paths (Figure 4). Deltas are carried as a **product of factors** with
//! pairwise-disjoint schemas; flat deltas are the single-factor case, and
//! factorizable updates (§5) keep their factors separate for as long as
//! possible — sibling views join into the factor they share variables
//! with, and marginalization happens inside a single factor — which is
//! the paper's `Optimize` rewrite (pushing `⊕X` past `⊗`). Factors are
//! multiplied out only when a materialized view must absorb the delta.
//!
//! Indicator projections (Appendix B) are maintained with support
//! counts per Example B.2; an update to `R` is followed by updates to
//! its indicator projections, each propagated along its own path. An
//! indicator over all of `R`'s keys keeps neither counts nor a store
//! (see "Sibling order" below).
//!
//! # The compiled fast path
//!
//! F-IVM's promise is that a single-tuple update costs a handful of
//! hash probes and ring operations per path node, so per-update setup
//! work (cloning step vectors, schemas, and relations; recomputing
//! projection positions) dominates if allowed on the hot path. The
//! probe and lift paths below are representation-uniform over
//! [`fivm_core::Value`]: string key columns arrive as interned
//! `Value::Sym(u32)` symbols (interned at load, fivm-core `schema.rs`),
//! so a string-keyed probe hashes, compares and clones exactly like an
//! integer one — string-heavy workloads take this same fast path at
//! integer speed. At
//! construction time the engine therefore *compiles* each maintenance
//! path into a [`FastPlan`]: per step, the sibling probe positions,
//! secondary-index ids, margin lifting positions, and the final
//! projection onto the node's key order are all precomputed. Applying
//! a flat delta then walks the compiled plan with two reusable scratch
//! buffers, probing sibling views through borrowed [`ProjKey`]s — in
//! the steady state (existing keys changing payload, or deletes
//! matched by later re-inserts) it performs **zero heap allocations**.
//! Payload-transform modes take the general factor-propagation path
//! below, which shares the same stores.
//!
//! # The compiled factored path
//!
//! Factorizable updates (§5) — rank-1 deltas expressed as a product of
//! per-variable vectors, and their rank-r sequences — are compiled the
//! same way. The factorization **shape** of a delta (which variables
//! travel together in one factor; [`fivm_query::FactorShape`]) fully
//! determines the sequence of probe/⊕-pushdown operations the
//! `Optimize` rewrite produces, so the engine compiles one
//! [`FactoredPlan`] per (relation, shape) pair and caches it: a slot
//! program of cross/adopt/join/fold operations over reusable factor
//! buffers, with marginalization **fused into the join that binds the
//! variable** (the push-⊕-into-factors rewrite, resolved to tuple
//! positions at compile time) and store flattening emitted directly in
//! each store's key order via [`Tuple::concat_project`]. The canonical
//! rank-1 shape (every leaf variable its own vector factor) is
//! precompiled at construction; other shapes compile once on first
//! sight and are cached thereafter — repeated rank-1/rank-r updates
//! run with zero plan interpretation and, at steady state, zero heap
//! allocations (tests/zero_alloc_propagation.rs, factored phase).
//! Shapes the compiler cannot express (and factored updates under a
//! payload transform) fall back to the general path below, which
//! remains the semantic reference.
//!
//! # The flat-batch path
//!
//! Flat deltas of **any size** — from one tuple to the 100k-tuple
//! batches of the paper's Figure 12 sweep — take the same compiled
//! plan; there is no batch-size gate. What changes with size is only
//! the per-step duplicate merge that projection onto a node's keys
//! requires, handled by a [`DeltaAccumulator`] that switches regime as
//! the working buffer grows:
//!
//! * ≤ [`FAST_PATH_LINEAR_MERGE`] buffered keys: linear scan-and-merge
//!   (cheapest for single-tuple updates, allocation-free for resident
//!   keys);
//! * up to [`FAST_PATH_HASH_MERGE`] buffered pairs: append now,
//!   sort/merge-adjacent on drain (cache-friendly for mid-size
//!   batches, in-place so still allocation-free after warm-up);
//! * above: a hash scratch table, O(1) per pair regardless of how
//!   skewed the join keys are.
//!
//! Each step applies its view and secondary-index mutations in one
//! pass over the merged buffer (`insert_ref` maintains the indexes
//! incrementally), so a batch never clones `Relation`s, step vectors,
//! or schemas the way the general path does. All buffers — the
//! ping-pong pair, the accumulator, and the support-transition list —
//! are grow-only: after warm-up at a given batch size, repeated
//! batches at that size perform zero heap allocations
//! (tests/zero_alloc_propagation.rs proves both the single-tuple and
//! the batch claim).
//!
//! # Sibling order
//!
//! A step that joins two siblings, each of which the delta can probe
//! through a secondary index, and after which the other is a full-key
//! probe, gets two compiled orders. The triangle's
//! `δS(b,c) ⋈ T(c,a) ⋈ ∃R(a,b)` is the case: `T` by `c`, then `∃R` by
//! `(a,b)`; or `∃R` by `b`, then `T` by `(c,a)`. Per delta tuple, the
//! step reads the lengths of both candidate index buckets, skips the
//! tuple when either is empty, iterates the smaller bucket (the
//! compiled order wins ties) and point-probes the other sibling. This
//! is the "intersect from the smaller side" rule of worst-case-optimal
//! joins, applied per tuple: an update costs O(min deg) probes rather
//! than the degree of whichever sibling the plan happens to name first.
//! The rule has no knob, and the worker pool runs the same per-tuple
//! function, so the worker count never changes which order runs.
//!
//! Either order multiplies `p ⊗ first ⊗ second` in the compiled
//! sibling order before the margin lifts, so exact rings stay
//! bit-identical to the general path whichever bucket is iterated; only
//! the order in which output pairs reach the step's merge differs.
//!
//! An indicator whose projection is its relation's whole leaf key, in
//! the leaf's column order (`∃R(A,B)` over `R(A,B)`), keeps no store of
//! its own. Its contents are the leaf's keys with payload `R::one()`, so
//! every reader — compiled probes, the factored slot program, the
//! general path (after the payload pre-projection) — resolves it
//! through one helper, `IvmEngine::store_node`, to the leaf store and
//! reads `one` for each payload; the compiled paths skip that product,
//! since `one` is the identity of `⊗`. The leaf changes before the
//! relation's own delta propagates, so an indicator that the relation's
//! own path or one of its other indicator paths probes keeps its store.
//! Checkpoints cut before the alias existed still carry the indicator's
//! snapshot; [`IvmEngine::restore_views`] skips it.
//!
//! # Store-merge direction
//!
//! Every factored store merge, the leaf's included, absorbs `a ⊗ b`
//! (or one factor) through [`ViewStore::merge_product`], which picks
//! the join direction by cardinality. When `|a|·|b|` is at least half
//! the store, it scans the store once and finds each entry's factor
//! pair in two small key maps over `a` and `b`; a rank-1 update to a
//! dense matrix chain touches every entry, and one sequential pass
//! beats `|a|·|b|` hash probes. Otherwise it probes once per product
//! pair. Each key gets the same single `⊕ (pa ⊗ pb)` either way, and
//! structural changes happen in the same order, so views, entry ids
//! and index buckets are identical across the two directions.
//!
//! # Parallel propagation
//!
//! Within one maintenance step, sibling probes are read-only and tuples
//! interact only at the duplicate merge, so batch-scale steps fan out
//! across a persistent worker pool (see [`crate::parallel`]): workers
//! join+lift disjoint chunks of the step's input and route surviving
//! pairs by output-key hash range; each range's owner merges its
//! (disjoint) share through its own [`DeltaAccumulator`]; only the
//! final per-step store merge is single-writer. The fan-out engages
//! when [`IvmEngine::workers`] > 1 **and** the step's input has at
//! least the parallel threshold's tuples — below that, updates take the
//! unchanged sequential path, so single-tuple latency pays exactly one
//! length comparison. Defaults come from `FIVM_WORKERS` /
//! `FIVM_PAR_THRESHOLD`; see [`IvmEngine::set_workers`] and
//! [`IvmEngine::set_parallel_threshold`]. For exact rings the parallel
//! path is bit-identical to the sequential one at every worker count
//! (per-key payloads fold in chunk order either way); floating-point
//! payloads are deterministic for a fixed worker count but may round
//! differently across counts.

pub mod verify;

use crate::parallel::{self, ParRuntime};
use crate::view::{ProductScratch, ViewStore};
use fivm_core::{
    Delta, DeltaAccumulator, FxHashMap, Lifting, LiftingMap, ProjKey, Relation, Ring, Schema,
    Tuple, TupleKey,
};
use fivm_query::delta::{delta_steps, path_from, DeltaStep, FactorShape};
use fivm_query::{
    delta_path, materialization, MaterializationPlan, NodeId, NodeKind, QueryDef, RelIndex,
    ViewTree,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Hook rewriting a node's delta payloads before they are stored and
/// propagated — used by the factorized-payload mode (§6.3) to project
/// relational payloads onto each node's own variables.
pub type PayloadTransform<R> = Arc<dyn Fn(NodeId, &Tuple, &R) -> R + Send + Sync>;

/// Hook collapsing child payloads before they enter a parent's payload
/// product (see [`IvmEngine::with_payload_preprojection`]).
pub type PayloadPreprojection<R> = Arc<dyn Fn(&R) -> R + Send + Sync>;

/// Up to this many buffered keys the per-step duplicate merge is a
/// linear scan (cheapest for single-tuple updates; quadratic beyond).
const FAST_PATH_LINEAR_MERGE: usize = 32;

/// Between the linear bound and this working-buffer length the merge
/// defers deduplication to an in-place sort/merge on drain; above it
/// the pairs migrate into a hash scratch table, which stays O(1) per
/// pair even when skewed join keys fan a delta out arbitrarily.
const FAST_PATH_HASH_MERGE: usize = 1024;

/// One sibling join in a compiled maintenance step.
#[derive(Debug)]
struct FastSibling {
    /// The store probed: the sibling's own, or its relation's leaf for
    /// an aliased indicator (see [`IvmEngine::store_node`]).
    node: NodeId,
    /// Every payload reads as `R::one()` (an aliased indicator).
    unit: bool,
    /// True: the delta covers the sibling's full key — primary-map
    /// probe, no new columns. False: partial-key probe through a
    /// secondary index, appending `rest_pos` columns.
    full_key: bool,
    /// Positions (in the current delta tuple) forming the probe key,
    /// in the order the sibling's primary map / index expects.
    probe_pos: Box<[usize]>,
    /// Positions (in the sibling's full key) appended to the delta
    /// tuple; empty for full-key probes.
    rest_pos: Box<[usize]>,
    /// Secondary-index id in the sibling store (partial probes only).
    index_id: usize,
}

impl FastSibling {
    /// `p ⊗ hit`, where an aliased indicator's hit reads as `R::one()`,
    /// the identity of `⊗`, so its product is `p` itself.
    #[inline]
    fn times<R: Ring>(&self, p: &R, hit: &R) -> R {
        if self.unit {
            p.clone()
        } else {
            p.mul(hit)
        }
    }
}

/// One compiled maintenance step (one view-tree node on the path).
struct FastStep<R> {
    /// The node whose delta this step computes.
    node: NodeId,
    /// Whether that node is materialized (delta must be merged).
    store: bool,
    /// Sibling joins, in plan order.
    siblings: Box<[FastSibling]>,
    /// Non-trivial margin liftings: position of the marginalized
    /// variable in the joined tuple, applied in margin order.
    lifts: Vec<(usize, Lifting<R>)>,
    /// Projection from the joined tuple onto the node's key order
    /// (drops marginalized variables).
    out_pos: Box<[usize]>,
    /// The same step with its two siblings probed in the other order,
    /// chosen per tuple by bucket length (module docs, "Sibling
    /// order"); its own `swapped` is `None`.
    swapped: Option<Box<FastStep<R>>>,
}

/// A fully compiled maintenance path (see the module docs).
struct FastPlan<R> {
    /// The path's entry node (relation leaf or indicator node).
    entry: NodeId,
    /// Whether the entry node itself is materialized.
    entry_stored: bool,
    /// Expected delta schema (the entry node's keys, exact order).
    entry_schema: Schema,
    steps: Vec<FastStep<R>>,
}

/// Fused marginalization (the compiled push-⊕-into-factors rewrite):
/// lift payloads at the given tuple positions, project the tuple onto
/// `out_pos`, and merge duplicates through the step accumulator.
struct Fused<R> {
    /// Non-trivial margin liftings: position of the marginalized
    /// variable in the factor's (joined) tuple, in margin order.
    lifts: Vec<(usize, Lifting<R>)>,
    /// Projection dropping the marginalized positions.
    out_pos: Box<[usize]>,
}

/// One compiled operation of a [`FactoredPlan`] over factor slots.
/// Slots are single-assignment within a plan: every op reads its
/// inputs by reference and overwrites its output slot, so the backing
/// buffers are reused across updates and never alias.
enum FactorOp<R> {
    /// Cross product of two disjoint-schema factors (`out = a ⊗ b`,
    /// schemas concatenate) — factor merging and store flattening.
    Cross { a: usize, b: usize, out: usize },
    /// Copy a sibling view in as a fresh factor: a sibling disjoint
    /// from every delta factor contributes a Cartesian factor, kept
    /// unexpanded until a store forces multiplication.
    Adopt { node: NodeId, out: usize },
    /// Join a factor with a sibling view (compiled probe), optionally
    /// applying the fused margin lifts + projection on the fly — the
    /// `Optimize` rewrite pushes `⊕X` into the single factor that
    /// binds `X`, so marginalization never leaves the factor.
    Join {
        input: usize,
        out: usize,
        sib: FastSibling,
        fused: Option<Fused<R>>,
    },
    /// Margin lifts + projection on a factor that joined no sibling
    /// this step (e.g. a margin variable private to one vector factor).
    Fold {
        input: usize,
        out: usize,
        fused: Fused<R>,
    },
}

/// Flatten-and-merge of the live factors into a node's store; factors
/// are crossed down to at most two slots at compile time, and the
/// final pair lands in the store's key order via
/// [`Tuple::concat_project`] without materializing the full product
/// tuple first.
///
/// Unlike the general path — which switches to the flat form after a
/// mid-path store merge — the compiled path **keeps propagating the
/// factors**: the store must absorb the multiplied-out product (a
/// rank-1 outer product is a `p²` change to the view, unavoidable),
/// but the delta itself stays a pair of vectors, so the *next* step's
/// sibling join is a matrix-vector product instead of a `p²`-tuple
/// flat join. This is precisely §5's "keep factors separate for as
/// long as possible", and what preserves the `O(p² log k)` rank-1
/// bound when every chain matrix is updatable (all internal product
/// views materialized).
struct FactoredStore {
    a: usize,
    b: Option<usize>,
    /// Projection onto the node's key order over the virtual `a ⧺ b`.
    out_pos: Box<[usize]>,
}

impl FactoredStore {
    /// Absorb the product of this flatten's slots into `store` (module
    /// docs, "Store-merge direction").
    fn merge<R: Ring>(
        &self,
        store: &mut ViewStore<R>,
        slots: &[Vec<(Tuple, R)>],
        product: &mut ProductScratch,
        transitions: Option<&mut Vec<(Tuple, i8)>>,
    ) {
        let b = self.b.map(|b| slots[b].as_slice());
        store.merge_product(&slots[self.a], b, &self.out_pos, product, transitions);
    }
}

/// One compiled maintenance step of a [`FactoredPlan`].
struct FactoredStep<R> {
    /// The node whose delta this step computes.
    node: NodeId,
    /// Slots that must all be non-empty entering the step: an empty
    /// factor means the whole product delta vanished.
    live_in: Box<[usize]>,
    ops: Vec<FactorOp<R>>,
    store: Option<FactoredStore>,
}

/// A maintenance path compiled for one (relation, factorization-shape)
/// pair — see the module docs. Input factors land in slots
/// `0..shape_len`; every other slot is written by an op before any op
/// reads it.
struct FactoredPlan<R> {
    /// The relation's leaf node.
    entry: NodeId,
    /// Number of input factors (the shape's length).
    shape_len: usize,
    /// Total slots the plan addresses (scratch is sized to this).
    n_slots: usize,
    /// Flatten-and-merge of the update into the leaf store, collecting
    /// support transitions for indicator maintenance; present iff the
    /// leaf is materialized. The ops are only `Cross` (reading the
    /// input slots non-destructively — they stay live for propagation).
    entry_store: Option<(Vec<FactorOp<R>>, FactoredStore)>,
    steps: Vec<FactoredStep<R>>,
}

/// One relation's cached factored plans, probed linearly by shape.
type ShapeCache<R> = Vec<(FactorShape, Option<Arc<FactoredPlan<R>>>)>;

/// Reusable per-update buffers; capacity warms up and is never
/// released, which is what makes the steady state allocation-free.
/// The engine holds it boxed, so an update takes it out and puts it
/// back by moving one pointer.
struct Scratch<R> {
    /// Ping-pong delta buffers.
    a: Vec<(Tuple, R)>,
    b: Vec<(Tuple, R)>,
    /// Leaf support transitions of the current update.
    transitions: Vec<(Tuple, i8)>,
    /// Indicator delta under construction.
    ind: Vec<(Tuple, R)>,
    /// Size-adaptive per-step duplicate merge (linear / sort-merge /
    /// hash — see the module docs).
    acc: DeltaAccumulator<R>,
    /// Factor slot buffers for the compiled factored path (grow-only,
    /// shared across every cached [`FactoredPlan`]).
    slots: Vec<Vec<(Tuple, R)>>,
    /// Key maps, bitmap and zero list of the factored store merges.
    product: ProductScratch,
}

impl<R: Ring> Default for Scratch<R> {
    fn default() -> Self {
        Scratch {
            a: Vec::new(),
            b: Vec::new(),
            transitions: Vec::new(),
            ind: Vec::new(),
            acc: DeltaAccumulator::with_thresholds(FAST_PATH_LINEAR_MERGE, FAST_PATH_HASH_MERGE),
            slots: Vec::new(),
            product: ProductScratch::default(),
        }
    }
}

/// Per-indicator compiled metadata.
struct IndicatorPlan<R> {
    /// Projection schema (the indicator node's keys).
    proj: Schema,
    /// Positions of the projection variables in the source relation's
    /// schema.
    positions: Arc<Vec<usize>>,
    /// General-path maintenance steps from the indicator node up.
    steps: Arc<Vec<DeltaStep>>,
    /// Compiled steps, when the path admits them.
    fast: Option<Arc<FastPlan<R>>>,
}

/// The factorized higher-order IVM executor.
pub struct IvmEngine<R: Ring> {
    query: QueryDef,
    tree: ViewTree,
    plan: MaterializationPlan,
    liftings: LiftingMap<R>,
    views: Vec<Option<ViewStore<R>>>,
    /// Precomputed maintenance steps per updatable relation
    /// (`Arc` so propagation borrows them without cloning the steps).
    rel_steps: Vec<Option<Arc<Vec<DeltaStep>>>>,
    /// Compiled fast plans per updatable relation.
    rel_fast: Vec<Option<Arc<FastPlan<R>>>>,
    /// Compiled factored plans per relation, keyed by factorization
    /// shape. A handful of shapes per relation at most, so the probe
    /// is an allocation-free linear scan; `None` caches "this shape
    /// does not compile" so unsupported shapes pay one probe, not a
    /// recompile, per update.
    rel_factored: Vec<ShapeCache<R>>,
    /// Indicator nodes per relation (precomputed: `indicators_of`
    /// allocates, and `apply` is the hot path).
    rel_indicators: Vec<Arc<[NodeId]>>,
    /// Compiled metadata per indicator node.
    ind_plans: FxHashMap<NodeId, IndicatorPlan<R>>,
    /// Support counts per indicator node (Example B.2). Indicators that
    /// project onto every variable of their relation have none: the
    /// projection is injective, so each key's support is 0 or 1 and the
    /// leaf's own support transitions are the indicator's (see
    /// [`support_transition`]).
    ind_counts: FxHashMap<NodeId, FxHashMap<Tuple, i64>>,
    payload_transform: Option<PayloadTransform<R>>,
    /// Applied to child payloads *before* they enter a parent's payload
    /// product. In factorized-payload mode no child payload variable
    /// survives the parent's projection, so children collapse to their
    /// totals first — this is what keeps the parent product linear
    /// instead of forming the cross product that the projection would
    /// immediately discard (§6.3).
    payload_preproject: Option<PayloadPreprojection<R>>,
    /// `None` only while an update has it out, or after one panicked
    /// (the next update then starts from a fresh one).
    scratch: Option<Box<Scratch<R>>>,
    /// Whether flat deltas may take the compiled fast path (disabled by
    /// benchmarks and differential tests to expose the general path).
    fast_path: bool,
    /// Worker/partition count for parallel propagation (1 = sequential).
    workers: usize,
    /// Minimum step-input tuples before a step fans out.
    par_threshold: usize,
    /// Pool + per-worker scratches, created on first parallel step.
    par: Option<ParRuntime<R>>,
    updates_applied: u64,
    /// Delta tuples joined by the compiled and the swapped order of a
    /// two-order step on the sequential path.
    #[cfg(test)]
    order_runs: [u64; 2],
}

impl<R: Ring> IvmEngine<R> {
    /// Build an engine for `query` over `tree`, materializing per µ for
    /// the given updatable relations.
    pub fn new(
        query: QueryDef,
        tree: ViewTree,
        updatable: &[RelIndex],
        liftings: LiftingMap<R>,
    ) -> Self {
        let mask = updatable.iter().fold(0u64, |m, &r| m | (1u64 << r));
        let mut plan = materialization(&tree, mask);
        // Indicator maintenance derives support transitions from the
        // relation store, so force-store leaves of indicated relations.
        for &r in updatable {
            if !tree.indicators_of(r).is_empty() {
                if let Some(leaf) = tree.leaf_of(r) {
                    plan.store[leaf] = true;
                }
            }
        }
        let rel_steps: Vec<Option<Arc<Vec<DeltaStep>>>> = (0..query.relations.len())
            .map(|r| {
                (mask & (1 << r) != 0)
                    .then(|| delta_path(&tree, r).map(|p| Arc::new(delta_steps(&tree, &p))))
                    .flatten()
            })
            .collect();
        let mut ind_steps = FxHashMap::default();
        let mut ind_counts = FxHashMap::default();
        for (id, n) in tree.nodes.iter().enumerate() {
            if let NodeKind::Indicator { rel, proj } = &n.kind {
                ind_steps.insert(id, Arc::new(delta_steps(&tree, &path_from(&tree, id))));
                // Support counts are read only when `rel` updates, and
                // are rebuilt from its (then force-stored) leaf.
                if mask & (1 << rel) != 0 && proj.len() < query.relations[*rel].schema.len() {
                    ind_counts.insert(id, FxHashMap::default());
                }
            }
        }
        // Every sibling along a registered maintenance path must be
        // materialized. µ (Figure 5) already guarantees this for the
        // relation paths; indicator paths (Appendix B) route updates
        // through views whose own relations may be static, so their
        // siblings are forced here.
        let all_steps = rel_steps
            .iter()
            .flatten()
            .chain(ind_steps.values())
            .flat_map(|steps| steps.iter());
        let mut forced: Vec<NodeId> = Vec::new();
        for step in all_steps {
            forced.extend(&step.siblings);
        }
        for s in forced {
            plan.store[s] = true;
        }
        // A full-key indicator reads its relation's leaf store (module
        // docs, "Sibling order"). The leaf changes before the
        // relation's own delta and its other indicators' deltas
        // propagate, an indicator's own store only after them; so only
        // an indicator that none of those paths probes is aliased.
        for (id, n) in tree.nodes.iter().enumerate() {
            let NodeKind::Indicator { rel, proj } = &n.kind else {
                continue;
            };
            let Some(leaf) = tree.leaf_of(*rel) else {
                continue;
            };
            let read_early = rel_steps[*rel]
                .iter()
                .chain(
                    tree.indicators_of(*rel)
                        .iter()
                        .filter(|&&other| other != id)
                        .map(|other| &ind_steps[other]),
                )
                .flat_map(|steps| steps.iter())
                .any(|step| step.siblings.contains(&id));
            if plan.store[leaf] && *proj == tree.nodes[leaf].keys && !read_early {
                plan.store[id] = false;
            }
        }
        let views = tree
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| plan.store[id].then(|| ViewStore::new(n.keys.clone())))
            .collect();
        let rel_indicators: Vec<Arc<[NodeId]>> = (0..query.relations.len())
            .map(|r| tree.indicators_of(r).into())
            .collect();
        let mut engine = IvmEngine {
            query,
            tree,
            plan,
            liftings,
            views,
            rel_steps,
            rel_fast: Vec::new(),
            rel_factored: Vec::new(),
            rel_indicators,
            ind_plans: FxHashMap::default(),
            ind_counts,
            payload_transform: None,
            payload_preproject: None,
            scratch: Some(Box::default()),
            fast_path: true,
            workers: parallel::env_workers(),
            par_threshold: parallel::env_parallel_threshold(),
            par: None,
            updates_applied: 0,
            #[cfg(test)]
            order_runs: [0; 2],
        };
        engine.compile_fast_plans(&ind_steps);
        engine
    }

    /// Compile every maintenance path whose shape admits the
    /// buffer-based fast path; creates the secondary indexes partial
    /// probes will use, so probing never hits the index-build path at
    /// update time.
    fn compile_fast_plans(&mut self, ind_steps: &FxHashMap<NodeId, Arc<Vec<DeltaStep>>>) {
        self.rel_fast = (0..self.query.relations.len())
            .map(|r| {
                let steps = self.rel_steps[r].clone()?;
                let entry = self.tree.leaf_of(r)?;
                self.compile_path(entry, &steps).map(Arc::new)
            })
            .collect();
        for (&ind, steps) in ind_steps {
            let (proj, rel) = match &self.tree.nodes[ind].kind {
                NodeKind::Indicator { proj, rel } => (proj.clone(), *rel),
                _ => unreachable!("registered as indicator"),
            };
            let positions = self.query.relations[rel]
                .schema
                .positions_of(proj.vars())
                .expect("indicator proj in relation schema");
            let fast = self.compile_path(ind, steps).map(Arc::new);
            self.ind_plans.insert(
                ind,
                IndicatorPlan {
                    proj,
                    positions: Arc::new(positions),
                    steps: steps.clone(),
                    fast,
                },
            );
        }
        // Precompile the canonical rank-1 shape — every leaf variable
        // its own vector factor — per updatable relation, so
        // fig6-style factorizable updates never touch the lazy-compile
        // path; other shapes compile once on first sight (see
        // `factored_plan`).
        self.rel_factored = vec![Vec::new(); self.query.relations.len()];
        for r in 0..self.query.relations.len() {
            if self.rel_steps[r].is_none() {
                continue;
            }
            let Some(leaf) = self.tree.leaf_of(r) else {
                continue;
            };
            let shape = FactorShape::new(
                self.tree.nodes[leaf]
                    .keys
                    .iter()
                    .map(|&v| Schema::new(vec![v]))
                    .collect::<Vec<_>>(),
            );
            let plan = self.compile_factored(r, shape.schemas()).map(Arc::new);
            self.rel_factored[r].push((shape, plan));
        }
        // Debug builds typecheck every plan just compiled against the
        // view tree — a defective plan aborts construction instead of
        // corrupting views at the first update (release builds run the
        // same checks on demand via `verify_plans`).
        #[cfg(debug_assertions)]
        verify::assert_clean(&self.verify_plans(), "engine plan compilation");
    }

    /// Compile one maintenance path, or `None` if its shape is not
    /// fast-path-eligible (schema mismatch along the way).
    fn compile_path(&mut self, entry: NodeId, steps: &Arc<Vec<DeltaStep>>) -> Option<FastPlan<R>> {
        let entry_schema = self.tree.nodes[entry].keys.clone();
        let mut cur = entry_schema.clone();
        let mut compiled = Vec::with_capacity(steps.len());
        for step in steps.iter() {
            let swap = match step.siblings[..] {
                [s0, s1] if self.swappable(&cur, s0, s1) => Some((cur.clone(), [s1, s0])),
                _ => None,
            };
            let mut fast = self.compile_order(&mut cur, step, &step.siblings)?;
            if let Some((mut before, order)) = swap {
                fast.swapped = self.compile_order(&mut before, step, &order).map(Box::new);
            }
            compiled.push(fast);
            cur = self.tree.nodes[step.node].keys.clone();
        }
        Some(FastPlan {
            entry,
            entry_stored: self.plan.store[entry],
            entry_schema,
            steps: compiled,
        })
    }

    /// Compile one step's sibling joins in `order` from a delta over
    /// `cur` (left as the joined schema), then its margin lifts and its
    /// projection onto the node's keys; `None` on a shape mismatch.
    fn compile_order(
        &mut self,
        cur: &mut Schema,
        step: &DeltaStep,
        order: &[NodeId],
    ) -> Option<FastStep<R>> {
        let mut siblings = Vec::with_capacity(order.len());
        for &s in order {
            siblings.push(self.compile_sibling(cur, s)?);
        }
        let mut lifts = Vec::new();
        for &mv in &step.margin {
            let pos = cur.position(mv)?;
            let lifting = self.liftings.get(mv);
            if !lifting.is_one() {
                lifts.push((pos, lifting));
            }
        }
        // The step's output is the node's keys: the joined schema minus
        // the margins, reordered. Shape mismatch → give up.
        let node_keys = &self.tree.nodes[step.node].keys;
        if node_keys.len() + step.margin.len() != cur.len() {
            return None;
        }
        let out_pos = cur.positions_of(node_keys.vars())?;
        Some(FastStep {
            node: step.node,
            store: self.plan.store[step.node],
            siblings: siblings.into(),
            lifts,
            out_pos: out_pos.into(),
            swapped: None,
        })
    }

    /// Compile the probe of sibling `s` by a delta over `cur`: a
    /// primary-map probe in the sibling's column order when the delta
    /// binds all its keys, else a probe of a secondary index keyed on
    /// the common variables (in delta order), created here, that
    /// appends the sibling's other columns to `cur`.
    fn compile_sibling(&mut self, cur: &mut Schema, s: NodeId) -> Option<FastSibling> {
        let (node, unit) = self.store_node(s);
        let sib = self.tree.nodes[s].keys.clone();
        let common = cur.intersect(&sib);
        if common.len() == sib.len() {
            return Some(FastSibling {
                node,
                unit,
                full_key: true,
                probe_pos: cur.positions_of(sib.vars())?.into(),
                rest_pos: Box::from([]),
                index_id: usize::MAX,
            });
        }
        let index_positions = sib.positions_of(common.vars())?;
        let probe_pos = cur.positions_of(common.vars())?;
        let rest_vars = sib.minus(&common);
        let rest_pos = sib.positions_of(rest_vars.vars())?;
        let index_id = self.views[node]
            .as_mut()?
            .ensure_index_on_positions(index_positions);
        *cur = cur.union(&sib);
        Some(FastSibling {
            node,
            unit,
            full_key: false,
            probe_pos: probe_pos.into(),
            rest_pos: rest_pos.into(),
            index_id,
        })
    }

    /// Whether a two-sibling step from a delta over `cur` gets a
    /// swapped order (module docs, "Sibling order"): each sibling,
    /// probed first, is a secondary-index probe on some but not all of
    /// its keys, after which the other sibling is a full-key probe.
    fn swappable(&self, cur: &Schema, s0: NodeId, s1: NodeId) -> bool {
        let (k0, k1) = (&self.tree.nodes[s0].keys, &self.tree.nodes[s1].keys);
        let index_then_full = |first: &Schema, second: &Schema| {
            let common = first.iter().filter(|&&v| cur.contains(v)).count();
            common > 0
                && common < first.len()
                && second.iter().all(|&v| cur.contains(v) || first.contains(v))
        };
        index_then_full(k0, k1) && index_then_full(k1, k0)
    }

    /// Where node `n`'s view lives: its own store, or, for an
    /// indicator over its relation's whole leaf key that keeps no store
    /// (`new` decides which), the leaf's store, whose payloads then all
    /// read as `R::one()` (the `bool`). Every sibling read resolves its
    /// node here (module docs, "Sibling order").
    fn store_node(&self, n: NodeId) -> (NodeId, bool) {
        if self.views[n].is_none() {
            if let NodeKind::Indicator { rel, proj } = &self.tree.nodes[n].kind {
                if let Some(leaf) = self.tree.leaf_of(*rel) {
                    if self.views[leaf].is_some() && *proj == self.tree.nodes[leaf].keys {
                        return (leaf, true);
                    }
                }
            }
        }
        (n, false)
    }

    /// Compile the maintenance path of `rel` for one factorization
    /// shape (see the module docs), or `None` if the shape does not
    /// partition the leaf schema or the path's geometry defeats the
    /// compiler. Runs the general path's factor algebra **symbolically
    /// over schemas**: the factor list is simulated step by step and
    /// every probe position, cross order, fused margin and store
    /// flatten is resolved to fixed slot indices and tuple positions.
    fn compile_factored(&mut self, rel: RelIndex, shape: &[Schema]) -> Option<FactoredPlan<R>> {
        let steps = self.rel_steps[rel].clone()?;
        let entry = self.tree.leaf_of(rel)?;
        let leaf_keys = self.tree.nodes[entry].keys.clone();
        if !FactorShape::new(shape.to_vec()).partitions(&leaf_keys) {
            return None;
        }
        let mut next_slot = shape.len();
        let alloc_slot = |next_slot: &mut usize| {
            let s = *next_slot;
            *next_slot += 1;
            s
        };
        // The live factor list: (slot, schema), mirrored exactly at
        // runtime by the slot buffers.
        let mut factors: Vec<(usize, Schema)> = shape.iter().cloned().enumerate().collect();

        // Leaf store maintenance (also feeds indicator support
        // transitions): flatten the input factors into leaf-key order.
        // The crossing reads the input slots non-destructively, so the
        // factors stay live for propagation.
        let entry_store = if self.plan.store[entry] {
            let mut ops = Vec::new();
            let store =
                Self::compile_flatten(factors.clone(), &leaf_keys, &mut next_slot, &mut ops)?;
            Some((ops, store))
        } else {
            None
        };

        let mut compiled = Vec::with_capacity(steps.len());
        for step in steps.iter() {
            let live_in: Box<[usize]> = factors.iter().map(|&(s, _)| s).collect();
            let mut ops: Vec<FactorOp<R>> = Vec::new();
            // Index (into `ops`) of the op that produced each live
            // factor this step — margins fuse into a producing `Join`.
            let mut produced: Vec<Option<usize>> = vec![None; factors.len()];

            for &s in &step.siblings {
                let sib_keys = self.tree.nodes[s].keys.clone();
                let sharing: Vec<usize> = factors
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, sch))| !sch.disjoint(&sib_keys))
                    .map(|(i, _)| i)
                    .collect();
                if sharing.is_empty() {
                    // Cartesian contribution: the sibling becomes its
                    // own factor, unexpanded.
                    // An aliased indicator has no store of its own; such
                    // a shape takes the general path.
                    self.views[s].as_ref()?;
                    let out = alloc_slot(&mut next_slot);
                    ops.push(FactorOp::Adopt { node: s, out });
                    factors.push((out, sib_keys));
                    produced.push(Some(ops.len() - 1));
                    continue;
                }
                // Merge the sharing factors (disjoint schemas ⇒ cross
                // products), left to right.
                let (mut cur_slot, mut cur_schema) = factors[sharing[0]].clone();
                for &i in &sharing[1..] {
                    let (os, osch) = factors[i].clone();
                    let out = alloc_slot(&mut next_slot);
                    ops.push(FactorOp::Cross {
                        a: cur_slot,
                        b: os,
                        out,
                    });
                    cur_schema = cur_schema.union(&osch);
                    cur_slot = out;
                }
                for &i in sharing.iter().rev() {
                    factors.remove(i);
                    produced.remove(i);
                }
                // Compile the probe exactly like the flat path.
                let sib = self.compile_sibling(&mut cur_schema, s)?;
                let out = alloc_slot(&mut next_slot);
                ops.push(FactorOp::Join {
                    input: cur_slot,
                    out,
                    sib,
                    fused: None,
                });
                factors.push((out, cur_schema));
                produced.push(Some(ops.len() - 1));
            }

            // Margins, grouped by the single factor binding each
            // variable; fused into that factor's producing join when
            // there is one (the push-⊕ rewrite), a standalone fold
            // otherwise.
            let mut margin_of: Vec<Vec<fivm_core::VarId>> = vec![Vec::new(); factors.len()];
            for &mv in &step.margin {
                let idx = factors.iter().position(|(_, sch)| sch.contains(mv))?;
                margin_of[idx].push(mv);
            }
            for (idx, mvs) in margin_of.iter().enumerate() {
                if mvs.is_empty() {
                    continue;
                }
                let (slot, schema) = factors[idx].clone();
                let mut lifts = Vec::new();
                for &mv in mvs {
                    let pos = schema.position(mv)?;
                    let lifting = self.liftings.get(mv);
                    if !lifting.is_one() {
                        lifts.push((pos, lifting));
                    }
                }
                let mut out_schema = schema.clone();
                for &mv in mvs {
                    out_schema = out_schema.without(mv);
                }
                let out_pos: Box<[usize]> = schema.positions_of(out_schema.vars())?.into();
                let fused = Fused { lifts, out_pos };
                let mut fused = Some(fused);
                if let Some(op_idx) = produced[idx] {
                    if let FactorOp::Join { fused: f, .. } = &mut ops[op_idx] {
                        if f.is_none() {
                            *f = fused.take();
                            factors[idx].1 = out_schema.clone();
                        }
                    }
                }
                if let Some(fused) = fused {
                    let out = alloc_slot(&mut next_slot);
                    ops.push(FactorOp::Fold {
                        input: slot,
                        out,
                        fused,
                    });
                    factors[idx] = (out, out_schema);
                    produced[idx] = Some(ops.len() - 1);
                }
            }

            // Sanity: the live schemas must partition the node's keys.
            let node_keys = self.tree.nodes[step.node].keys.clone();
            {
                let mut union = Schema::empty();
                for (_, sch) in &factors {
                    if !union.disjoint(sch) {
                        return None;
                    }
                    union = union.union(sch);
                }
                if union.len() != node_keys.len() || !union.subset_of(&node_keys) {
                    return None;
                }
            }

            let store = if self.plan.store[step.node] {
                Some(Self::compile_flatten(
                    factors.clone(),
                    &node_keys,
                    &mut next_slot,
                    &mut ops,
                )?)
            } else {
                None
            };
            compiled.push(FactoredStep {
                node: step.node,
                live_in,
                ops,
                store,
            });
        }
        Some(FactoredPlan {
            entry,
            shape_len: shape.len(),
            n_slots: next_slot,
            entry_store,
            steps: compiled,
        })
    }

    /// Reduce a live factor list to at most two slots by cross
    /// products and compute the projection of their virtual
    /// concatenation onto `keys` — the compile-time form of the
    /// general path's `flatten_to`.
    fn compile_flatten(
        mut live: Vec<(usize, Schema)>,
        keys: &Schema,
        next_slot: &mut usize,
        ops: &mut Vec<FactorOp<R>>,
    ) -> Option<FactoredStore> {
        while live.len() > 2 {
            let (sa, xa) = live.remove(0);
            let (sb, xb) = live.remove(0);
            let out = *next_slot;
            *next_slot += 1;
            ops.push(FactorOp::Cross { a: sa, b: sb, out });
            live.insert(0, (out, xa.union(&xb)));
        }
        let (a, b, cat) = match live.as_slice() {
            [(a, sa)] => (*a, None, sa.clone()),
            [(a, sa), (b, sb)] => (*a, Some(*b), sa.union(sb)),
            _ => return None,
        };
        let out_pos = cat.positions_of(keys.vars())?.into();
        Some(FactoredStore { a, b, out_pos })
    }

    /// Install a payload transform (factorized-payload mode, §6.3).
    /// Must be set before any data is loaded; incompatible with factored
    /// (multi-factor) updates.
    pub fn with_payload_transform(mut self, t: PayloadTransform<R>) -> Self {
        assert_eq!(self.updates_applied, 0, "set the transform before updating");
        self.payload_transform = Some(t);
        self
    }

    /// Install a child-payload pre-projection (see the field docs); only
    /// sound together with a payload transform that discards all child
    /// payload variables, as the factorized mode does.
    pub fn with_payload_preprojection(mut self, f: PayloadPreprojection<R>) -> Self {
        assert_eq!(
            self.updates_applied, 0,
            "set the projection before updating"
        );
        self.payload_preproject = Some(f);
        self
    }

    /// The view tree this engine executes.
    pub fn tree(&self) -> &ViewTree {
        &self.tree
    }

    /// The query.
    pub fn query(&self) -> &QueryDef {
        &self.query
    }

    /// The materialization plan in effect.
    pub fn plan(&self) -> &MaterializationPlan {
        &self.plan
    }

    /// Bulk-load an initial database: evaluates every inner view
    /// bottom-up with the streaming join-aggregate of
    /// [`crate::eval::eval_node`], so no node's join is materialized.
    /// With a pre-projection installed, each child's payloads are mapped
    /// once before its parent reads them; with a payload transform, each
    /// view's output is mapped before it is stored. Fills the
    /// materialized views and recounts indicator supports.
    pub fn load(&mut self, db: &crate::eval::Database<R>) {
        let eval = |id: NodeId, children: &[&Relation<R>]| {
            crate::eval::eval_node(&self.tree, id, children, db, &self.liftings)
        };
        // Leaves borrow `db`; indicators (appended last, but read by
        // inner views) are evaluated first.
        let mut rels: Vec<Option<Cow<'_, Relation<R>>>> = (self.tree.nodes.iter().enumerate())
            .map(|(id, n)| match n.kind {
                NodeKind::Relation(ri) => Some(Cow::Borrowed(&db.relations[ri])),
                NodeKind::Indicator { .. } => Some(Cow::Owned(eval(id, &[]))),
                NodeKind::Inner { .. } => None,
            })
            .collect();
        for (id, n) in self.tree.nodes.iter().enumerate() {
            if !matches!(n.kind, NodeKind::Inner { .. }) {
                continue;
            }
            let children = n
                .children
                .iter()
                .map(|&c| rels[c].as_deref().expect("children before parents"));
            let mut view = match &self.payload_preproject {
                Some(pp) => {
                    let mapped: Vec<Relation<R>> =
                        children.map(|c| c.map_payloads(|_, p| pp(p))).collect();
                    eval(id, &mapped.iter().collect::<Vec<_>>())
                }
                None => eval(id, &children.collect::<Vec<_>>()),
            };
            if let Some(hook) = &self.payload_transform {
                view = view.map_payloads(|t, p| hook(id, t, p));
            }
            rels[id] = Some(Cow::Owned(view));
        }
        for (id, rel) in rels.into_iter().enumerate() {
            if let (Some(store), Some(rel)) = (&mut self.views[id], rel) {
                // In-place reload: keeps the store's capacity and its
                // secondary indexes (so the compiled plans' index ids
                // stay valid — no recompile), rebuilds index contents,
                // and resets the high-water live-bucket sweep counters
                // from the loaded data. A reloaded engine must not
                // inherit the previous lifetime's sweep budgets.
                store.reload(&rel);
            }
        }
        // `load` replaces all state: support counts restart from the
        // loaded leaves, not from prior contents.
        self.rebuild_indicator_counts();
    }

    /// Restore materialized views from checkpointed snapshots — the
    /// recovery counterpart of [`IvmEngine::load`]. Where `load`
    /// derives every view bottom-up from base relations, this trusts
    /// the snapshots: each `(node, relation)` pair is reloaded in place
    /// (keeping secondary-index ids, so compiled flat/factored plans
    /// stay valid without a recompile), indicator support counts are
    /// rebuilt from the restored leaf stores, and the update counter is
    /// set to the checkpoint's logical position so subsequent log
    /// replay continues the original numbering.
    ///
    /// `snapshots` must cover every materialized node of this engine
    /// (checkpoints always snapshot all of them); panics otherwise,
    /// since a partial restore would silently mix checkpoint state with
    /// pre-restore state. A snapshot of a full-key indicator, which
    /// this engine reads from its relation's leaf store (module docs,
    /// "Sibling order"), is skipped: checkpoints cut before that alias
    /// existed carry one, and the leaf's own snapshot holds its keys.
    pub fn restore_views(&mut self, snapshots: &[(NodeId, Relation<R>)], updates_applied: u64) {
        let mut restored = vec![false; self.views.len()];
        for (node, rel) in snapshots {
            if self.store_node(*node).1 {
                continue;
            }
            let store = self.views[*node]
                .as_mut()
                .expect("checkpointed node must be materialized in this engine");
            store.reload(rel);
            restored[*node] = true;
        }
        for (id, v) in self.views.iter().enumerate() {
            assert!(
                v.is_none() || restored[id],
                "restore_views: materialized node {id} missing from the checkpoint"
            );
        }
        self.rebuild_indicator_counts();
        self.updates_applied = updates_applied;
    }

    /// Recompute indicator support counts from the (loaded or
    /// restored) leaf stores of the indicated relations: a leaf store
    /// holds one entry per distinct live tuple, so each contributes `+1`
    /// to its projection's count.
    fn rebuild_indicator_counts(&mut self) {
        let mut rebuilt: Vec<(NodeId, FxHashMap<Tuple, i64>)> = Vec::new();
        for (id, n) in self.tree.nodes.iter().enumerate() {
            if let NodeKind::Indicator { rel, proj } = &n.kind {
                if !self.ind_counts.contains_key(&id) {
                    continue;
                }
                let leaf = self
                    .tree
                    .nodes
                    .iter()
                    .position(|m| matches!(&m.kind, NodeKind::Relation(ri) if ri == rel))
                    .expect("indicated relation has a leaf node");
                let store = self.views[leaf]
                    .as_ref()
                    .expect("indicated relation leaves are force-stored");
                let positions = store
                    .schema()
                    .positions_of(proj.vars())
                    .expect("indicator proj in relation schema");
                let mut counts: FxHashMap<Tuple, i64> = FxHashMap::default();
                for (t, _) in store.iter() {
                    *counts.entry(t.project(&positions)).or_insert(0) += 1;
                }
                rebuilt.push((id, counts));
            }
        }
        for (id, counts) in rebuilt {
            *self.ind_counts.get_mut(&id).expect("registered") = counts;
        }
    }

    /// Node ids of all materialized views, in tree order (checkpoints
    /// iterate these).
    pub fn materialized_nodes(&self) -> Vec<NodeId> {
        self.views
            .iter()
            .enumerate()
            .filter_map(|(id, v)| v.as_ref().map(|_| id))
            .collect()
    }

    /// Content-mutation version of a node's view store, if
    /// materialized. Monotonic; incremental checkpoints skip views
    /// whose version is unchanged since the last checkpoint.
    pub fn view_version(&self, node: NodeId) -> Option<u64> {
        self.views[node].as_ref().map(ViewStore::version)
    }

    /// Borrow a node's view store, if materialized. The serving layer's
    /// snapshot publisher clones stores through this, copy-on-write
    /// keyed on [`ViewStore::version`].
    pub fn view_store(&self, node: NodeId) -> Option<&ViewStore<R>> {
        self.views.get(node)?.as_ref()
    }

    /// Number of view-tree nodes (the index space of
    /// [`IvmEngine::view_store`] / [`IvmEngine::view_version`]).
    pub fn node_count(&self) -> usize {
        self.views.len()
    }

    /// Enable or disable output-delta capture on a node's store (the
    /// subscription layer's feed). Returns `false` if the node is not
    /// materialized. While enabled, every applied `(key, payload)` pair
    /// is recorded until [`IvmEngine::drain_changes`] collects them.
    pub fn set_change_capture(&mut self, node: NodeId, on: bool) -> bool {
        match self.views.get_mut(node).and_then(Option::as_mut) {
            Some(store) => {
                store.set_capture(on);
                true
            }
            None => false,
        }
    }

    /// Move a node's captured change pairs into `out` (appending;
    /// uncoalesced — callers sum payloads per key and drop zeros).
    pub fn drain_changes(&mut self, node: NodeId, out: &mut Vec<(Tuple, R)>) {
        if let Some(store) = self.views.get_mut(node).and_then(Option::as_mut) {
            store.drain_captured(out);
        }
    }

    /// Apply an update to `rel` (paper §4's IVM trigger): maintains the
    /// leaf store, propagates the delta leaf-to-root, then maintains and
    /// propagates any indicator projections of `rel`.
    pub fn apply(&mut self, rel: RelIndex, delta: &Delta<R>) {
        self.updates_applied += 1;
        assert!(
            self.rel_steps[rel].is_some(),
            "relation {rel} is not updatable in this engine"
        );
        if self.fast_path && self.payload_transform.is_none() && self.payload_preproject.is_none() {
            match delta {
                Delta::Flat(r) => {
                    if let Some(fast) = &self.rel_fast[rel] {
                        if *r.schema() == fast.entry_schema {
                            let fast = fast.clone();
                            self.apply_fast(rel, r, &fast);
                            return;
                        }
                    }
                }
                Delta::Factored(fs) => {
                    if let Some(plan) = self.factored_plan(rel, fs) {
                        self.apply_factored(rel, fs, &plan);
                        return;
                    }
                }
            }
        }
        self.apply_general(rel, delta);
    }

    /// The cached compiled plan for this delta's factorization shape,
    /// compiling it on first sight. The cache probe is an
    /// allocation-free linear scan over the handful of shapes a
    /// relation ever sees; a shape that fails to compile is cached as
    /// `None` so it routes to the general path at probe cost.
    fn factored_plan(
        &mut self,
        rel: RelIndex,
        factors: &[Relation<R>],
    ) -> Option<Arc<FactoredPlan<R>>> {
        if let Some((_, plan)) = self.rel_factored[rel]
            .iter()
            .find(|(shape, _)| shape.matches(factors))
        {
            return plan.clone();
        }
        let shape = FactorShape::of(factors);
        let plan = self.compile_factored(rel, shape.schemas()).map(Arc::new);
        #[cfg(debug_assertions)]
        if let Some(p) = &plan {
            let findings = fivm_check::plan_ir::verify_factored_plan(
                &self.plan_ctx(),
                &verify::factored_plan_ir(&shape, p),
            );
            verify::assert_clean(&findings, "lazily compiled factored plan");
        }
        self.rel_factored[rel].push((shape, plan.clone()));
        plan
    }

    /// Enable or disable the compiled fast path. Disabling routes every
    /// update through the general factor-propagation path — the
    /// before/after baseline for benchmarks and the foil for
    /// fast-vs-general differential tests. Both paths maintain the same
    /// stores, so the switch can be flipped mid-stream.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Set the worker/partition count for parallel propagation. `1`
    /// (the default when `FIVM_WORKERS` is unset) keeps every update on
    /// the sequential path; higher counts fan batch-scale steps out
    /// across a persistent pool (threads are spawned lazily, on the
    /// first step that crosses the parallel threshold). Both paths
    /// maintain the same stores, so the count can change mid-stream.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        if workers != self.workers {
            self.workers = workers;
            // Partition count changed: rebuild lazily at the new width.
            self.par = None;
        }
    }

    /// The configured worker/partition count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Set the minimum step-input size (in tuples) for the parallel
    /// fan-out; smaller steps take the sequential path. Exposed so
    /// tests and benchmarks can force parallelism onto small batches.
    pub fn set_parallel_threshold(&mut self, tuples: usize) {
        self.par_threshold = tuples.max(1);
    }

    /// Number of factorization shapes cached for `rel`'s compiled
    /// factored path (compiled or cached-as-uncompilable) — a
    /// diagnostic for tests: a steady stream of same-shape rank-1
    /// updates must not grow this.
    pub fn factored_shapes_cached(&self, rel: RelIndex) -> usize {
        self.rel_factored.get(rel).map_or(0, Vec::len)
    }

    /// Whether the canonical rank-1 shape (every leaf variable its own
    /// vector factor) compiled for `rel` — precompiled at construction.
    pub fn has_rank1_plan(&self, rel: RelIndex) -> bool {
        let Some(leaf) = self.tree.leaf_of(rel) else {
            return false;
        };
        let n = self.tree.nodes[leaf].keys.len();
        self.rel_factored.get(rel).is_some_and(|shapes| {
            shapes
                .iter()
                .any(|(s, plan)| s.len() == n && plan.is_some())
        })
    }

    /// Worst-case probe-chain length across all materialized views'
    /// primary maps and secondary indexes — a table-health diagnostic
    /// (the retain-compaction and sweep policies keep it bounded under
    /// churn; stress tests assert on it).
    pub fn max_probe_run(&self) -> usize {
        self.views
            .iter()
            .flatten()
            .map(ViewStore::max_probe_run)
            .max()
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Compiled fast path
    // ------------------------------------------------------------------

    /// Apply a flat delta of any size through the compiled plan.
    /// Steady-state allocation-free: see the module docs.
    fn apply_fast(&mut self, rel: RelIndex, delta: &Relation<R>, fast: &FastPlan<R>) {
        let mut scratch = self.scratch.take().unwrap_or_default();
        scratch.transitions.clear();

        let indicators = self.rel_indicators[rel].clone();
        if fast.entry_stored {
            let store = self.views[fast.entry].as_mut().expect("entry stored");
            store.merge_into(delta, &mut scratch.transitions);
        }

        scratch.a.clear();
        scratch
            .a
            .extend(delta.iter().map(|(t, p)| (t.clone(), p.clone())));
        self.run_fast_steps(fast, &mut scratch);
        self.run_indicators(&indicators, &mut scratch);
        self.scratch = Some(scratch);
    }

    /// Maintain and propagate the indicator projections of a relation
    /// from the leaf support transitions in `scratch.transitions`
    /// (Appendix B, sequenced after the relation's own delta) — shared
    /// by the compiled flat and factored paths.
    fn run_indicators(&mut self, indicators: &Arc<[NodeId]>, scratch: &mut Scratch<R>) {
        for &ind in indicators.iter() {
            let plan = &self.ind_plans[&ind];
            let positions = plan.positions.clone();
            let fast_ind = plan.fast.clone();
            let general_steps = plan.steps.clone();
            let proj = plan.proj.clone();
            self.indicator_delta_into(ind, &positions, scratch);
            if scratch.ind.is_empty() {
                continue;
            }
            if let Some(store) = &mut self.views[ind] {
                for (t, p) in &scratch.ind {
                    store.insert_ref(t, p.clone());
                }
            }
            match &fast_ind {
                Some(f) => {
                    scratch.a.clear();
                    scratch.a.append(&mut scratch.ind);
                    self.run_fast_steps(f, scratch);
                }
                None => {
                    let delta_ind = Relation::from_pairs(proj, scratch.ind.drain(..));
                    self.propagate(&general_steps, vec![delta_ind]);
                }
            }
        }
    }

    /// Walk compiled steps over the ping-pong buffers, fanning
    /// batch-scale steps across the worker pool (module docs).
    fn run_fast_steps(&mut self, plan: &FastPlan<R>, scratch: &mut Scratch<R>) {
        for step in &plan.steps {
            if scratch.a.is_empty() {
                return; // delta vanished
            }
            if self.workers > 1 && scratch.a.len() >= self.par_threshold {
                self.parallel_step(step, scratch);
            } else {
                self.sequential_step(step, scratch);
            }
            if scratch.a.is_empty() {
                return;
            }
            // The per-step store merge stays single-writer on both
            // paths.
            if step.store {
                if let Some(store) = &mut self.views[step.node] {
                    // Pre-size for batch-scale deltas — but not when the
                    // store already dwarfs the delta (mostly payload
                    // updates then; a blanket reserve would force a
                    // pointless rehash-and-double of a large table).
                    if scratch.a.len() > FAST_PATH_HASH_MERGE && store.len() < scratch.a.len() * 8 {
                        store.reserve(scratch.a.len());
                    }
                    for (t, p) in &scratch.a {
                        store.insert_ref(t, p.clone());
                    }
                }
            }
        }
    }

    /// One compiled step, sequentially: sibling joins over the
    /// ping-pong buffers, then lift/project/merge. Leaves the step's
    /// merged delta in `scratch.a`.
    fn sequential_step(&mut self, step: &FastStep<R>, scratch: &mut Scratch<R>) {
        debug_assert!(scratch.acc.is_empty());
        if let Some(swapped) = &step.swapped {
            self.two_order_step(step, swapped, scratch);
            return;
        }
        // Sibling joins.
        for sib in &step.siblings {
            let store = sibling_view(&self.views, sib.node);
            scratch.b.clear();
            if sib.full_key {
                for (t, p) in scratch.a.drain(..) {
                    let probe = ProjKey::new(&t, &sib.probe_pos);
                    if let Some(sp) = store.get(&probe) {
                        let prod = sib.times(&p, sp);
                        if !prod.is_zero() {
                            scratch.b.push((t, prod));
                        }
                    }
                }
            } else {
                for (t, p) in scratch.a.drain(..) {
                    let probe = ProjKey::new(&t, &sib.probe_pos);
                    for (full, sp) in store.probe(sib.index_id, &probe) {
                        let prod = sib.times(&p, sp);
                        if !prod.is_zero() {
                            scratch
                                .b
                                .push((t.concat_projected(full, &sib.rest_pos), prod));
                        }
                    }
                }
            }
            std::mem::swap(&mut scratch.a, &mut scratch.b);
            if scratch.a.is_empty() {
                return;
            }
        }
        // Margins (lift payloads), then project to the node's keys,
        // merging duplicates through the size-adaptive accumulator
        // (linear scan / sort-merge / hash scratch — module docs).
        for (t, p) in scratch.a.drain(..) {
            let mut p = p;
            for (pos, lifting) in &step.lifts {
                p = p.mul(&lifting.lift(t.get(*pos)));
            }
            if p.is_zero() {
                continue;
            }
            scratch.acc.push(&ProjKey::new(&t, &step.out_pos), p);
        }
        scratch.b.clear();
        scratch.acc.drain_into(&mut scratch.b);
        std::mem::swap(&mut scratch.a, &mut scratch.b);
    }

    /// [`IvmEngine::sequential_step`] for a step with a swapped order:
    /// join, lift and merge per tuple, in the order its buckets favour
    /// (module docs, "Sibling order"). Kept out of line so the common
    /// single-order step compiles as it would without it.
    #[inline(never)]
    fn two_order_step(
        &mut self,
        step: &FastStep<R>,
        swapped: &FastStep<R>,
        scratch: &mut Scratch<R>,
    ) {
        let Scratch { a, b, acc, .. } = scratch;
        for (t, p) in a.drain(..) {
            let emit = &mut |key: &ProjKey<'_>, prod| acc.push(key, prod);
            let _ran = join_two(step, swapped, &self.views, &t, &p, emit);
            #[cfg(test)]
            if let Some(swap) = _ran {
                self.order_runs[usize::from(swap)] += 1;
            }
        }
        b.clear();
        acc.drain_into(b);
        std::mem::swap(a, b);
    }

    /// One compiled step, fanned out across the worker pool (see the
    /// module docs and [`crate::parallel`]): route phase (each worker
    /// joins+lifts a contiguous chunk of `scratch.a` against the
    /// shared read-only stores and routes output pairs by key-hash
    /// range), merge phase (each worker folds its own range's pairs —
    /// disjoint from every other range — through its own accumulator),
    /// then a sequential gather of the runs into `scratch.a`.
    fn parallel_step(&mut self, step: &FastStep<R>, scratch: &mut Scratch<R>) {
        if self.par.is_none() {
            self.par = Some(ParRuntime::new(
                self.workers,
                FAST_PATH_LINEAR_MERGE,
                FAST_PATH_HASH_MERGE,
            ));
        }
        // Split the runtime's fields: the pool dispatches by `&mut`
        // (serialized dispatch is what makes its lifetime erasure
        // sound), while the closures share the scratches/merges and
        // the views immutably.
        let par = self.par.as_mut().expect("just created");
        let ParRuntime {
            pool,
            scratches,
            merges,
        } = par;
        let views = &self.views;
        let input = &scratch.a;
        let parts = pool.workers();

        // Route phase. The worker's first stage reads its chunk
        // *borrowed* — tuples and payloads are cloned only once a pair
        // survives its first probe (or, with no siblings, reaches the
        // route buffer), not upfront.
        pool.scatter(&|w| {
            let range = parallel::chunk(input.len(), parts, w);
            let chunk = &input[range];
            let mut ws = scratches[w].lock().expect("worker scratch poisoned");
            let ws = &mut *ws;
            ws.a.clear();
            if let Some(swapped) = &step.swapped {
                // The sequential path's per-tuple rule, unchanged: the
                // worker count never changes which order runs.
                for (t, p) in chunk {
                    join_two(step, swapped, views, t, p, &mut |key, prod| {
                        let d = parallel::destination(key.key_hash(), parts);
                        ws.route[d].push((key.materialize(), prod));
                    });
                }
                return;
            }
            // `owned` = the current delta lives in ws.a; before the
            // first sibling it is still the borrowed chunk.
            let mut owned = false;
            for sib in &step.siblings {
                let store = sibling_view(views, sib.node);
                ws.b.clear();
                if sib.full_key {
                    if owned {
                        for (t, p) in ws.a.drain(..) {
                            let probe = ProjKey::new(&t, &sib.probe_pos);
                            if let Some(sp) = store.get(&probe) {
                                let prod = sib.times(&p, sp);
                                if !prod.is_zero() {
                                    ws.b.push((t, prod));
                                }
                            }
                        }
                    } else {
                        for (t, p) in chunk {
                            let probe = ProjKey::new(t, &sib.probe_pos);
                            if let Some(sp) = store.get(&probe) {
                                let prod = sib.times(p, sp);
                                if !prod.is_zero() {
                                    ws.b.push((t.clone(), prod));
                                }
                            }
                        }
                    }
                } else {
                    // Partial-key probes build fresh (concatenated)
                    // tuples either way; the borrowed stage differs
                    // only in how the source pair is held.
                    if owned {
                        for (t, p) in ws.a.drain(..) {
                            let probe = ProjKey::new(&t, &sib.probe_pos);
                            for (full, sp) in store.probe(sib.index_id, &probe) {
                                let prod = sib.times(&p, sp);
                                if !prod.is_zero() {
                                    ws.b.push((t.concat_projected(full, &sib.rest_pos), prod));
                                }
                            }
                        }
                    } else {
                        for (t, p) in chunk {
                            let probe = ProjKey::new(t, &sib.probe_pos);
                            for (full, sp) in store.probe(sib.index_id, &probe) {
                                let prod = sib.times(p, sp);
                                if !prod.is_zero() {
                                    ws.b.push((t.concat_projected(full, &sib.rest_pos), prod));
                                }
                            }
                        }
                    }
                }
                std::mem::swap(&mut ws.a, &mut ws.b);
                owned = true;
                if ws.a.is_empty() {
                    break;
                }
            }
            let route = |ws: &mut crate::parallel::WorkerScratch<R>, t: &Tuple, p: R| {
                let mut p = p;
                for (pos, lifting) in &step.lifts {
                    p = p.mul(&lifting.lift(t.get(*pos)));
                }
                if p.is_zero() {
                    return;
                }
                let key = ProjKey::new(t, &step.out_pos);
                let d = parallel::destination(key.key_hash(), parts);
                ws.route[d].push((key.materialize(), p));
            };
            if owned {
                let mut pairs = std::mem::take(&mut ws.a);
                for (t, p) in pairs.drain(..) {
                    route(ws, &t, p);
                }
                ws.a = pairs; // return the warmed buffer
            } else {
                for (t, p) in chunk {
                    route(ws, t, p.clone());
                }
            }
        });

        // Merge phase: destination `d` owns hash range `d`. Collection
        // staggers lock order (start at scratch `d`, wrap) and holds
        // each scratch lock only for a buffer swap; the fold then runs
        // lock-free in worker order (= chunk order, so per-key payload
        // folds replay the sequential order). The runs are key-disjoint
        // because routing is a function of the key hash.
        pool.scatter(&|d| {
            let mut slot = merges[d].lock().expect("merge slot poisoned");
            let slot = &mut *slot;
            debug_assert!(slot.acc.is_empty() && slot.run.is_empty());
            for k in 0..parts {
                let w = (d + k) % parts;
                let mut ws = scratches[w].lock().expect("worker scratch poisoned");
                std::mem::swap(&mut ws.route[d], &mut slot.pending[w]);
            }
            for w in 0..parts {
                for (t, p) in slot.pending[w].drain(..) {
                    slot.acc.push(&t, p);
                }
            }
            slot.acc.drain_into(&mut slot.run);
        });

        // Gather the disjoint runs (buffers retain their capacity).
        scratch.b.clear();
        for slot in merges.iter().take(parts) {
            let mut slot = slot.lock().expect("merge slot poisoned");
            scratch.b.append(&mut slot.run);
        }
        std::mem::swap(&mut scratch.a, &mut scratch.b);
    }

    // ------------------------------------------------------------------
    // Compiled factored path
    // ------------------------------------------------------------------

    /// Apply a factored delta through its compiled plan (module docs):
    /// copy the input factors into their slots, maintain the leaf
    /// store, run the slot program, then the indicator projections.
    /// Steady-state allocation-free for factor/key arities within the
    /// inline-tuple width, like the flat path.
    fn apply_factored(&mut self, rel: RelIndex, factors: &[Relation<R>], plan: &FactoredPlan<R>) {
        debug_assert_eq!(factors.len(), plan.shape_len);
        let mut scratch = self.scratch.take().unwrap_or_default();
        scratch.transitions.clear();
        if scratch.slots.len() < plan.n_slots {
            scratch.slots.resize_with(plan.n_slots, Vec::new);
        }
        for (i, f) in factors.iter().enumerate() {
            let mut buf = std::mem::take(&mut scratch.slots[i]);
            buf.clear();
            buf.extend(f.iter().map(|(t, p)| (t.clone(), p.clone())));
            scratch.slots[i] = buf;
        }

        let indicators = self.rel_indicators[rel].clone();
        if let Some((ops, es)) = &plan.entry_store {
            for op in ops {
                self.run_factor_op(op, &mut scratch);
            }
            let store = self.views[plan.entry].as_mut().expect("entry stored");
            let Scratch {
                slots,
                transitions,
                product,
                ..
            } = &mut *scratch;
            es.merge(store, slots, product, Some(transitions));
        }

        self.run_factored_steps(plan, &mut scratch);
        self.run_indicators(&indicators, &mut scratch);
        self.scratch = Some(scratch);
    }

    /// Walk the compiled factored steps over the slot buffers.
    fn run_factored_steps(&mut self, plan: &FactoredPlan<R>, scratch: &mut Scratch<R>) {
        for step in &plan.steps {
            if step.live_in.iter().any(|&s| scratch.slots[s].is_empty()) {
                return; // an empty factor ⇒ the product delta vanished
            }
            for op in &step.ops {
                self.run_factor_op(op, scratch);
            }
            if let Some(st) = &step.store {
                let store = self.views[step.node].as_mut().expect("stored node");
                st.merge(store, &scratch.slots, &mut scratch.product, None);
            }
        }
    }

    /// Execute one slot op (see [`FactorOp`]). Inputs are read by
    /// reference; the output buffer is taken, cleared, filled and put
    /// back, so warmed capacity survives across updates.
    fn run_factor_op(&mut self, op: &FactorOp<R>, scratch: &mut Scratch<R>) {
        match op {
            FactorOp::Cross { a, b, out } => {
                let mut buf = std::mem::take(&mut scratch.slots[*out]);
                buf.clear();
                for (ta, pa) in &scratch.slots[*a] {
                    for (tb, pb) in &scratch.slots[*b] {
                        let p = pa.mul(pb);
                        if !p.is_zero() {
                            buf.push((ta.concat(tb), p));
                        }
                    }
                }
                scratch.slots[*out] = buf;
            }
            FactorOp::Adopt { node, out } => {
                let store = sibling_view(&self.views, *node);
                let mut buf = std::mem::take(&mut scratch.slots[*out]);
                buf.clear();
                buf.extend(store.iter().map(|(t, p)| (t.clone(), p.clone())));
                scratch.slots[*out] = buf;
            }
            FactorOp::Join {
                input,
                out,
                sib,
                fused,
            } => {
                let store = sibling_view(&self.views, sib.node);
                let mut buf = std::mem::take(&mut scratch.slots[*out]);
                buf.clear();
                let Scratch { slots, acc, .. } = &mut *scratch;
                let input_buf = &slots[*input];
                match fused {
                    None => {
                        if sib.full_key {
                            for (t, p) in input_buf {
                                let probe = ProjKey::new(t, &sib.probe_pos);
                                if let Some(sp) = store.get(&probe) {
                                    let prod = sib.times(p, sp);
                                    if !prod.is_zero() {
                                        buf.push((t.clone(), prod));
                                    }
                                }
                            }
                        } else {
                            for (t, p) in input_buf {
                                let probe = ProjKey::new(t, &sib.probe_pos);
                                for (full, sp) in store.probe(sib.index_id, &probe) {
                                    let prod = sib.times(p, sp);
                                    if !prod.is_zero() {
                                        buf.push((t.concat_projected(full, &sib.rest_pos), prod));
                                    }
                                }
                            }
                        }
                    }
                    Some(f) => {
                        // The fused ⊕: lift, project, merge — the
                        // joined pairs never materialize as a factor.
                        debug_assert!(acc.is_empty());
                        if sib.full_key {
                            for (t, p) in input_buf {
                                let probe = ProjKey::new(t, &sib.probe_pos);
                                if let Some(sp) = store.get(&probe) {
                                    let mut prod = sib.times(p, sp);
                                    for (pos, lifting) in &f.lifts {
                                        prod = prod.mul(&lifting.lift(t.get(*pos)));
                                    }
                                    if !prod.is_zero() {
                                        acc.push(&ProjKey::new(t, &f.out_pos), prod);
                                    }
                                }
                            }
                        } else {
                            for (t, p) in input_buf {
                                let probe = ProjKey::new(t, &sib.probe_pos);
                                for (full, sp) in store.probe(sib.index_id, &probe) {
                                    let mut prod = sib.times(p, sp);
                                    if prod.is_zero() {
                                        continue;
                                    }
                                    let joined = t.concat_projected(full, &sib.rest_pos);
                                    for (pos, lifting) in &f.lifts {
                                        prod = prod.mul(&lifting.lift(joined.get(*pos)));
                                    }
                                    if !prod.is_zero() {
                                        acc.push(&ProjKey::new(&joined, &f.out_pos), prod);
                                    }
                                }
                            }
                        }
                        acc.drain_into(&mut buf);
                    }
                }
                scratch.slots[*out] = buf;
            }
            FactorOp::Fold { input, out, fused } => {
                let mut buf = std::mem::take(&mut scratch.slots[*out]);
                buf.clear();
                let Scratch { slots, acc, .. } = &mut *scratch;
                debug_assert!(acc.is_empty());
                for (t, p) in &slots[*input] {
                    let mut prod = p.clone();
                    for (pos, lifting) in &fused.lifts {
                        prod = prod.mul(&lifting.lift(t.get(*pos)));
                    }
                    if !prod.is_zero() {
                        acc.push(&ProjKey::new(t, &fused.out_pos), prod);
                    }
                }
                acc.drain_into(&mut buf);
                scratch.slots[*out] = buf;
            }
        }
    }

    /// Compute an indicator delta from the leaf support transitions in
    /// `scratch.transitions` into `scratch.ind` (Example B.2).
    fn indicator_delta_into(&mut self, ind: NodeId, positions: &[usize], scratch: &mut Scratch<R>) {
        let mut counts = self.ind_counts.get_mut(&ind);
        debug_assert!(scratch.acc.is_empty());
        for (t, sign) in &scratch.transitions {
            let key = ProjKey::new(t, positions);
            match support_transition(counts.as_deref_mut(), &key, *sign) {
                1 => scratch.acc.push(&key, R::one()),
                -1 => scratch.acc.push(&key, R::one().neg()),
                _ => {}
            }
        }
        scratch.ind.clear();
        scratch.acc.drain_into(&mut scratch.ind);
    }

    // ------------------------------------------------------------------
    // General path (factored deltas, payload transforms, uncompiled
    // plan shapes)
    // ------------------------------------------------------------------

    fn apply_general(&mut self, rel: RelIndex, delta: &Delta<R>) {
        let steps = self.rel_steps[rel].clone().expect("checked by apply");
        let indicators = self.tree.indicators_of(rel);
        let leaf = self.tree.leaf_of(rel).expect("leaf");
        let needs_flat = self.plan.store[leaf] || !indicators.is_empty();

        // merge the relation store (and collect support transitions)
        let mut transitions = Vec::new();
        if needs_flat {
            let flat = delta.flatten().reorder(&self.tree.nodes[leaf].keys);
            if let Some(store) = &mut self.views[leaf] {
                transitions = store.merge(&flat);
            }
        }

        // propagate the relation delta
        let factors: Vec<Relation<R>> = match delta {
            Delta::Flat(r) => vec![r.clone()],
            Delta::Factored(fs) => {
                assert!(
                    self.payload_transform.is_none() || fs.len() == 1,
                    "factored updates are not supported in factorized-payload mode"
                );
                fs.clone()
            }
        };
        self.propagate(&steps, factors);

        // then maintain indicator projections (sequenced after, App. B)
        for ind in indicators {
            let delta_ind = self.indicator_delta(ind, &transitions, rel);
            if delta_ind.is_empty() {
                continue;
            }
            if let Some(store) = &mut self.views[ind] {
                store.merge(&delta_ind);
            }
            let steps = self.ind_plans[&ind].steps.clone();
            self.propagate(&steps, vec![delta_ind]);
        }
    }

    /// Apply a batch of per-relation updates in sequence.
    pub fn apply_batch(&mut self, updates: &[(RelIndex, Delta<R>)]) {
        for (rel, d) in updates {
            self.apply(*rel, d);
        }
    }

    fn propagate(&mut self, steps: &[DeltaStep], mut factors: Vec<Relation<R>>) {
        for step in steps {
            if factors.is_empty() || factors.iter().any(Relation::is_empty) {
                return; // delta vanished
            }
            factors = self.propagate_step(step, factors);
            if self.plan.store[step.node] {
                let keys = self.tree.nodes[step.node].keys.clone();
                let flat = flatten_to(&factors, &keys);
                if let Some(store) = &mut self.views[step.node] {
                    store.merge(&flat);
                }
                // once multiplied out for the store, continue with the
                // flat form (it is never larger than re-multiplying).
                if factors.len() > 1 {
                    factors = vec![flat];
                }
            }
        }
    }

    /// One maintenance step: join the current delta factors with the
    /// sibling views and marginalize this node's bound variables
    /// (Figure 4 with the §5 `Optimize` rewrite).
    fn propagate_step(
        &mut self,
        step: &DeltaStep,
        mut factors: Vec<Relation<R>>,
    ) -> Vec<Relation<R>> {
        if let Some(pp) = &self.payload_preproject {
            factors = factors
                .iter()
                .map(|f| f.map_payloads(|_, p| pp(p)))
                .collect();
        }
        for &s in &step.siblings {
            let sib_schema = &self.tree.nodes[s].keys;
            let sharing: Vec<usize> = factors
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.schema().disjoint(sib_schema))
                .map(|(i, _)| i)
                .collect();
            if sharing.is_empty() {
                // Cartesian contribution: keep the sibling as its own
                // factor (never multiplied out unless a store needs it).
                let (node, unit) = self.store_node(s);
                let rel = sibling_view(&self.views, node).to_relation();
                factors.push(if unit {
                    rel.map_payloads(|_, _| R::one())
                } else {
                    rel
                });
                continue;
            }
            // merge the sharing factors (pairwise disjoint ⇒ products)
            let mut acc = factors.swap_remove(sharing[sharing.len() - 1]);
            for &i in sharing[..sharing.len() - 1].iter().rev() {
                let f = factors.swap_remove(i);
                acc = acc.join(&f);
            }
            let joined = self.join_with_view(&acc, s);
            factors.push(joined);
        }
        // marginalize inside the single factor holding each variable
        for &mv in &step.margin {
            let idx = factors
                .iter()
                .position(|f| f.schema().contains(mv))
                .expect("marginalized variable must appear in the delta");
            let lifting = self.liftings.get(mv);
            factors[idx] = factors[idx].marginalize(mv, &lifting);
        }
        if let Some(hook) = &self.payload_transform {
            let keys = self.tree.nodes[step.node].keys.clone();
            let flat = flatten_to(&factors, &keys);
            let id = step.node;
            return vec![flat.map_payloads(|t, p| hook(id, t, p))];
        }
        factors
    }

    /// Join `acc ⊗ view(s)` by probing the sibling's store with
    /// borrowed keys (no per-probe tuple materialization).
    fn join_with_view(&mut self, acc: &Relation<R>, s: NodeId) -> Relation<R> {
        let (node, unit) = self.store_node(s);
        let sib_schema = self.tree.nodes[s].keys.clone();
        let common = acc.schema().intersect(&sib_schema);
        let acc_probe = acc.schema().positions_of(common.vars()).expect("subset");
        let rest_vars = sib_schema.minus(&common);
        let out_schema = acc.schema().union(&sib_schema);
        // A sibling payload as it enters the product: `one` for an
        // aliased indicator, then the pre-projection.
        let pp = self.payload_preproject.clone();
        let one = R::one();
        let read = move |sp: &R| -> R {
            let sp = if unit { &one } else { sp };
            match &pp {
                Some(pp) => pp(sp),
                None => sp.clone(),
            }
        };

        if common.len() == sib_schema.len() {
            // full-key probe: primary lookup, in the sibling's column
            // order (compose the two projections into one).
            let store = sibling_view(&self.views, node);
            let reorder = common.positions_of(store.schema().vars()).expect("perm");
            let composed: Vec<usize> = reorder.iter().map(|&i| acc_probe[i]).collect();
            let mut out = Relation::new(out_schema);
            for (t, p) in acc.iter() {
                let probe = ProjKey::new(t, &composed);
                if let Some(sp) = store.get(&probe) {
                    out.insert(t.clone(), p.mul(&read(sp)));
                }
            }
            return out;
        }

        // partial-key probe: secondary index (created on demand, then
        // maintained incrementally)
        let ix = self.views[node]
            .as_mut()
            .unwrap_or_else(|| panic!("sibling view {node} not materialized"))
            .ensure_index(&common);
        let store = sibling_view(&self.views, node);
        let rest_pos = store
            .schema()
            .positions_of(rest_vars.vars())
            .expect("subset");
        let mut out = Relation::new(out_schema);
        for (t, p) in acc.iter() {
            let probe = ProjKey::new(t, &acc_probe);
            for (full, sp) in store.probe(ix, &probe) {
                out.insert(t.concat_projected(full, &rest_pos), p.mul(&read(sp)));
            }
        }
        out
    }

    /// Compute the indicator delta for `ind` from leaf support
    /// transitions (Example B.2) — general-path form.
    fn indicator_delta(
        &mut self,
        ind: NodeId,
        transitions: &[(Tuple, i8)],
        _rel: RelIndex,
    ) -> Relation<R> {
        let plan = &self.ind_plans[&ind];
        let proj = plan.proj.clone();
        let positions = plan.positions.clone();
        let mut counts = self.ind_counts.get_mut(&ind);
        let mut delta = Relation::new(proj);
        for (t, sign) in transitions {
            let key = t.project(&positions);
            match support_transition(counts.as_deref_mut(), &key, *sign) {
                1 => delta.insert(key, R::one()),
                -1 => delta.insert(key, R::one().neg()),
                _ => {}
            }
        }
        delta
    }

    /// The maintained query result (the root view).
    pub fn result(&self) -> Relation<R> {
        self.views[self.tree.root]
            .as_ref()
            .expect("root is always materialized")
            .to_relation()
    }

    /// Snapshot of a node's view, if materialized.
    pub fn view_relation(&self, node: NodeId) -> Option<Relation<R>> {
        self.views[node].as_ref().map(ViewStore::to_relation)
    }

    /// Number of materialized views (the §7 view-count metric).
    pub fn stored_view_count(&self) -> usize {
        self.views.iter().filter(|v| v.is_some()).count()
    }

    /// Total keys across materialized views.
    pub fn total_entries(&self) -> usize {
        self.views.iter().flatten().map(ViewStore::len).sum()
    }

    /// Total secondary-index buckets retained across materialized
    /// views, including emptied ones kept for allocation-freedom. The
    /// high-water-mark sweep bounds this against adversarial key churn;
    /// tests assert on it.
    pub fn index_footprint(&self) -> usize {
        self.views
            .iter()
            .flatten()
            .map(ViewStore::index_footprint)
            .sum()
    }

    /// Approximate resident bytes across materialized views and
    /// indicator counters.
    pub fn approx_bytes(&self) -> usize {
        let views: usize = self
            .views
            .iter()
            .flatten()
            .map(ViewStore::approx_bytes)
            .sum();
        let counts: usize = self
            .ind_counts
            .values()
            .map(|m| m.keys().map(|t| t.approx_bytes() + 16).sum::<usize>())
            .sum();
        views + counts
    }

    /// Number of updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }
}

/// Apply a leaf support transition `sign` (±1) to the support count of
/// the indicator key `key`; returns the indicator's own transition
/// (`1` appeared, `-1` disappeared, `0` none). `None` counts mark an
/// injective projection, whose transitions are the leaf's.
fn support_transition<K: TupleKey>(
    counts: Option<&mut FxHashMap<Tuple, i64>>,
    key: &K,
    sign: i8,
) -> i8 {
    let Some(counts) = counts else {
        return sign;
    };
    let c = counts.entry(key.materialize()).or_insert(0);
    let before = *c;
    *c += i64::from(sign);
    let now = *c;
    if now == 0 {
        counts.remove(&key.materialize());
    }
    match (before, now) {
        (0, 1) => 1,
        (1, 0) => -1,
        _ => 0,
    }
}

/// The store of a sibling the plan probes.
#[inline]
fn sibling_view<R>(views: &[Option<ViewStore<R>>], node: NodeId) -> &ViewStore<R> {
    views[node]
        .as_ref()
        .unwrap_or_else(|| panic!("sibling view {node} not materialized"))
}

/// Join delta tuple `(t, p)` through a step with a swapped order (module
/// docs, "Sibling order"): look up both candidate index buckets, skip
/// the tuple if either is empty, iterate the smaller (`step`'s compiled
/// order wins ties) and point-probe the other sibling. Each joined pair
/// is multiplied, lifted and handed to `emit` under its output key.
/// Returns whether the swapped order ran, or `None` for a skipped tuple.
fn join_two<R: Ring>(
    step: &FastStep<R>,
    swapped: &FastStep<R>,
    views: &[Option<ViewStore<R>>],
    t: &Tuple,
    p: &R,
    emit: &mut impl FnMut(&ProjKey<'_>, R),
) -> Option<bool> {
    let (first, second) = (&step.siblings[0], &swapped.siblings[0]);
    debug_assert_eq!(first.node, swapped.siblings[1].node);
    debug_assert_eq!(second.node, step.siblings[1].node);
    let (first_view, second_view) = (
        sibling_view(views, first.node),
        sibling_view(views, second.node),
    );
    let first_bucket = first_view.probe(first.index_id, &ProjKey::new(t, &first.probe_pos));
    if first_bucket.len() == 0 {
        return None;
    }
    let second_bucket = second_view.probe(second.index_id, &ProjKey::new(t, &second.probe_pos));
    if second_bucket.len() == 0 {
        return None;
    }
    let swap = second_bucket.len() < first_bucket.len();
    if swap {
        let probe_pos = &swapped.siblings[1].probe_pos;
        for (key, hit) in second_bucket {
            let joined = t.concat_projected(key, &second.rest_pos);
            if let Some(other) = first_view.get(&ProjKey::new(&joined, probe_pos)) {
                emit_lifted(swapped, &joined, p, (first, other), (second, hit), emit);
            }
        }
    } else {
        let probe_pos = &step.siblings[1].probe_pos;
        for (key, hit) in first_bucket {
            let joined = t.concat_projected(key, &first.rest_pos);
            if let Some(other) = second_view.get(&ProjKey::new(&joined, probe_pos)) {
                emit_lifted(step, &joined, p, (first, hit), (second, other), emit);
            }
        }
    }
    Some(swap)
}

/// `p ⊗ a ⊗ b`, each factor a sibling and its probe hit, then the
/// margin lifts of `order` over its joined tuple — the order the
/// single-order path multiplies in — emitted under the output key
/// unless it vanishes.
#[inline]
fn emit_lifted<R: Ring>(
    order: &FastStep<R>,
    joined: &Tuple,
    p: &R,
    (sa, a): (&FastSibling, &R),
    (sb, b): (&FastSibling, &R),
    emit: &mut impl FnMut(&ProjKey<'_>, R),
) {
    let mut prod = sa.times(p, a);
    if prod.is_zero() {
        return;
    }
    prod = sb.times(&prod, b);
    if prod.is_zero() {
        return;
    }
    for (pos, lifting) in &order.lifts {
        prod = prod.mul(&lifting.lift(joined.get(*pos)));
    }
    if !prod.is_zero() {
        emit(&ProjKey::new(joined, &order.out_pos), prod);
    }
}

/// Multiply factors out and reorder to `keys`.
fn flatten_to<R: Ring>(factors: &[Relation<R>], keys: &Schema) -> Relation<R> {
    match factors {
        [] => Relation::new(keys.clone()),
        [f] => f.reorder(keys),
        _ => Relation::join_aggregate(&factors.iter().collect::<Vec<_>>(), &[], keys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_tree, Database};
    use fivm_core::lifting::int_identity;
    use fivm_core::tuple;
    use fivm_query::VariableOrder;

    fn fig2_setup(free: &[&str]) -> (QueryDef, ViewTree, Database<i64>, LiftingMap<i64>) {
        let q = QueryDef::example_rst(free);
        let vo = VariableOrder::parse("A - { B, C - { D, E } }", &q.catalog);
        let tree = ViewTree::build(&q, &vo);
        let db = Database::empty(&q);
        (q, tree, db, LiftingMap::new())
    }

    fn insert_fig2(engine: &mut IvmEngine<i64>) {
        let rs = [
            (
                0usize,
                vec![tuple![1, 1], tuple![1, 2], tuple![2, 3], tuple![3, 4]],
            ),
            (
                1,
                vec![
                    tuple![1, 1, 1],
                    tuple![1, 1, 2],
                    tuple![1, 2, 3],
                    tuple![2, 2, 4],
                ],
            ),
            (
                2,
                vec![tuple![1, 1], tuple![2, 2], tuple![2, 3], tuple![3, 4]],
            ),
        ];
        for (ri, tuples) in rs {
            for t in tuples {
                let schema = engine.query.relations[ri].schema.clone();
                let d = Relation::from_pairs(schema, [(t, 1i64)]);
                engine.apply(ri, &Delta::Flat(d));
            }
        }
    }

    /// Incremental single-tuple inserts reach the Figure 2d COUNT of 10.
    #[test]
    fn incremental_count_matches_figure_2d() {
        let (q, tree, _, lifts) = fig2_setup(&[]);
        let mut engine = IvmEngine::new(q, tree, &[0, 1, 2], lifts);
        insert_fig2(&mut engine);
        assert_eq!(engine.result().payload(&Tuple::unit()), 10);
    }

    /// Example 4.1: after loading Figure 2c, the update
    /// δT = {(c1,d1)→−1, (c2,d2)→3} changes the count by 5.
    #[test]
    fn example_4_1_delta_propagation() {
        let (q, tree, mut db, lifts) = fig2_setup(&[]);
        for (a, b) in [(1, 1), (1, 2), (2, 3), (3, 4)] {
            db.relations[0].insert(tuple![a, b], 1);
        }
        for (a, c, e) in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 4)] {
            db.relations[1].insert(tuple![a, c, e], 1);
        }
        for (c, d) in [(1, 1), (2, 2), (2, 3), (3, 4)] {
            db.relations[2].insert(tuple![c, d], 1);
        }
        let mut engine = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
        engine.load(&db);
        assert_eq!(engine.result().payload(&Tuple::unit()), 10);
        let dt = Relation::from_pairs(
            q.relations[2].schema.clone(),
            [(tuple![1, 1], -1i64), (tuple![2, 2], 3)],
        );
        engine.apply(2, &Delta::Flat(dt));
        // paper: δV@A_RST[()] = 5, so the count becomes 15
        assert_eq!(engine.result().payload(&Tuple::unit()), 15);
    }

    /// IVM result equals recomputation after mixed inserts and deletes,
    /// with group-by variables and non-trivial liftings.
    #[test]
    fn ivm_equals_recompute_with_deletes() {
        let (q, tree, _, mut lifts) = fig2_setup(&["A", "C"]);
        for v in ["B", "D", "E"] {
            lifts.set(q.catalog.lookup(v).unwrap(), int_identity());
        }
        let mut engine = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        let mut db = Database::empty(&q);
        let updates: Vec<(usize, Tuple, i64)> = vec![
            (0, tuple![1, 5], 1),
            (1, tuple![1, 2, 7], 1),
            (2, tuple![2, 3], 1),
            (0, tuple![1, 6], 1),
            (2, tuple![2, 4], 2),
            (0, tuple![1, 5], -1), // delete
            (1, tuple![1, 2, 9], 1),
            (2, tuple![2, 4], -2), // delete both copies
            (1, tuple![2, 2, 3], 1),
            (0, tuple![2, 8], 1),
        ];
        for (ri, t, m) in updates {
            let d = Relation::from_pairs(q.relations[ri].schema.clone(), [(t.clone(), m)]);
            engine.apply(ri, &Delta::Flat(d.clone()));
            db.relations[ri].union_in_place(&d);
            let expected = eval_tree(&tree, &db, &lifts);
            assert_eq!(engine.result(), expected, "diverged after {ri}:{t}");
        }
    }

    /// Deleting everything returns all views to empty.
    #[test]
    fn full_deletion_returns_to_empty() {
        let (q, tree, _, lifts) = fig2_setup(&[]);
        let mut engine = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
        insert_fig2(&mut engine);
        // delete in a different order
        let rs = [
            (
                2usize,
                vec![tuple![1, 1], tuple![2, 2], tuple![2, 3], tuple![3, 4]],
            ),
            (
                0,
                vec![tuple![1, 1], tuple![1, 2], tuple![2, 3], tuple![3, 4]],
            ),
            (
                1,
                vec![
                    tuple![1, 1, 1],
                    tuple![1, 1, 2],
                    tuple![1, 2, 3],
                    tuple![2, 2, 4],
                ],
            ),
        ];
        for (ri, tuples) in rs {
            for t in tuples {
                let schema = engine.query.relations[ri].schema.clone();
                let d = Relation::from_pairs(schema, [(t, -1i64)]);
                engine.apply(ri, &Delta::Flat(d));
            }
        }
        assert!(engine.result().is_empty());
        assert_eq!(engine.total_entries(), 0);
    }

    /// Factored (rank-1) updates produce the same result as their flat
    /// form — Example 5.2's scenario over the running query.
    #[test]
    fn factored_update_equals_flat() {
        let (q, tree, _, lifts) = fig2_setup(&["A"]);
        let mut flat_engine = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        let mut fact_engine = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
        insert_fig2(&mut flat_engine);
        insert_fig2(&mut fact_engine);
        // δS = δS_A[A] ⊗ δS_CE[C,E]  (a product update)
        let (a, c, e) = (
            q.catalog.lookup("A").unwrap(),
            q.catalog.lookup("C").unwrap(),
            q.catalog.lookup("E").unwrap(),
        );
        let sa = Relation::from_pairs(Schema::new(vec![a]), [(tuple![1], 1i64), (tuple![2], 1)]);
        let sce = Relation::from_pairs(
            Schema::new(vec![c, e]),
            [(tuple![2, 9], 1i64), (tuple![1, 9], 2)],
        );
        let factored = Delta::factored(vec![sa, sce]);
        fact_engine.apply(1, &factored);
        flat_engine.apply(
            1,
            &Delta::Flat(factored.flatten().reorder(&q.relations[1].schema)),
        );
        assert_eq!(fact_engine.result(), flat_engine.result());
    }

    /// Streaming scenario (µ with one updatable relation): updates to R
    /// only; the R leaf is not stored, yet the result stays correct.
    #[test]
    fn one_relation_stream() {
        let (q, tree, mut db, lifts) = fig2_setup(&[]);
        // static S and T
        for (a, c, e) in [(1, 1, 1), (2, 2, 4)] {
            db.relations[1].insert(tuple![a, c, e], 1);
        }
        for (c, d) in [(1, 1), (2, 2)] {
            db.relations[2].insert(tuple![c, d], 1);
        }
        let mut engine = IvmEngine::new(q.clone(), tree.clone(), &[0], lifts.clone());
        engine.load(&db);
        let leaf_r = engine.tree().leaf_of(0).unwrap();
        assert!(engine.view_relation(leaf_r).is_none(), "stream not stored");
        for (a, b) in [(1, 1), (2, 5), (1, 2)] {
            let d = Relation::from_pairs(q.relations[0].schema.clone(), [(tuple![a, b], 1i64)]);
            engine.apply(0, &Delta::Flat(d));
            db.relations[0].insert(tuple![a, b], 1);
        }
        assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
    }

    /// Triangle query with indicator projections stays correct under
    /// updates to all three relations (Example B.3), including deletes
    /// that shrink the indicator.
    #[test]
    fn triangle_indicator_maintenance() {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        let added = fivm_query::add_indicators(&mut tree, &q);
        assert_eq!(added.len(), 1);
        let lifts = LiftingMap::<i64>::new();
        let mut engine = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        let mut db = Database::empty(&q);
        let updates: Vec<(usize, Tuple, i64)> = vec![
            (0, tuple![1, 1], 1),
            (1, tuple![1, 1], 1),
            (2, tuple![1, 1], 1), // closes triangle (1,1,1)
            (0, tuple![1, 2], 1),
            (1, tuple![2, 1], 1),  // closes (1,2,1)
            (0, tuple![1, 1], 1),  // multiplicity 2
            (0, tuple![1, 1], -2), // delete both copies → support shrinks
            (2, tuple![1, 2], 1),
            (1, tuple![1, 1], 1),
            (0, tuple![2, 1], 1),
        ];
        for (ri, t, m) in updates {
            let d = Relation::from_pairs(q.relations[ri].schema.clone(), [(t.clone(), m)]);
            engine.apply(ri, &Delta::Flat(d.clone()));
            db.relations[ri].union_in_place(&d);
            let expected = eval_tree(&tree, &db, &lifts);
            assert_eq!(
                engine.result().payload(&Tuple::unit()),
                expected.payload(&Tuple::unit()),
                "diverged after {ri}:{t}:{m}"
            );
        }
    }

    /// Memory accounting is monotone in content.
    #[test]
    fn memory_accounting() {
        let (q, tree, _, lifts) = fig2_setup(&[]);
        let mut engine = IvmEngine::new(q, tree, &[0, 1, 2], lifts);
        let empty = engine.approx_bytes();
        insert_fig2(&mut engine);
        assert!(engine.approx_bytes() > empty);
        assert!(engine.stored_view_count() >= 5);
    }

    /// The compiled fast path and the general factor path agree on
    /// every update of a mixed insert/delete stream (routing the foil
    /// engine through the general entry point directly).
    #[test]
    fn fast_path_equals_general_path() {
        let (q, tree, _, mut lifts) = fig2_setup(&["C"]);
        lifts.set(q.catalog.lookup("B").unwrap(), int_identity());
        let mut fast = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        let mut general = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
        // Every relation path must have compiled.
        for r in 0..3 {
            assert!(fast.rel_fast[r].is_some(), "relation {r} did not compile");
        }
        let updates: Vec<(usize, Tuple, i64)> = vec![
            (0, tuple![1, 5], 1),
            (1, tuple![1, 2, 7], 1),
            (2, tuple![2, 3], 1),
            (2, tuple![2, 4], 2),
            (0, tuple![1, 5], -1),
            (1, tuple![1, 2, 9], 1),
            (1, tuple![1, 2, 9], -1),
            (2, tuple![2, 4], -2),
            (0, tuple![2, 8], 1),
            (1, tuple![2, 2, 3], 1),
        ];
        for (ri, t, m) in updates {
            let d = Relation::from_pairs(q.relations[ri].schema.clone(), [(t.clone(), m)]);
            fast.apply(ri, &Delta::Flat(d.clone()));
            general.apply_general(ri, &Delta::Flat(d));
            assert_eq!(
                fast.result(),
                general.result(),
                "diverged after {ri}:{t}:{m}"
            );
        }
    }

    /// A single-tuple update hitting a skewed join key fans out past
    /// the hash-merge threshold; the adaptive merge must agree with
    /// recomputation (and not stall).
    #[test]
    fn skewed_fanout_uses_hash_merge_correctly() {
        let (q, tree, mut db, lifts) = fig2_setup(&[]);
        // Hub: 500 S-tuples share A=1, each with a distinct C matched
        // in T, so one δR tuple at A=1 joins 500 ways before ⊕C.
        for i in 0..500 {
            db.relations[1].insert(tuple![1, i, 7], 1);
            db.relations[2].insert(tuple![i, 1], 1);
        }
        let mut engine = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        engine.load(&db);
        let d = Relation::from_pairs(q.relations[0].schema.clone(), [(tuple![1, 42], 1i64)]);
        engine.apply(0, &Delta::Flat(d.clone()));
        db.relations[0].union_in_place(&d);
        assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
        // and the inverse returns to the pre-update state
        let neg = Relation::from_pairs(q.relations[0].schema.clone(), [(tuple![1, 42], -1i64)]);
        engine.apply(0, &Delta::Flat(neg.clone()));
        db.relations[0].union_in_place(&neg);
        assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
    }

    /// `load` on a non-empty engine resets indicator support counts
    /// instead of accumulating onto them.
    #[test]
    fn load_resets_indicator_support_counts() {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        fivm_query::add_indicators(&mut tree, &q);
        let lifts = LiftingMap::<i64>::new();
        let mut engine = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        // Dirty the engine with an applied update...
        let d = Relation::from_pairs(q.relations[0].schema.clone(), [(tuple![1, 1], 1i64)]);
        engine.apply(0, &Delta::Flat(d));
        // ...then load a database that also contains that tuple.
        let mut db = Database::empty(&q);
        db.relations[0].insert(tuple![1, 1], 1);
        db.relations[1].insert(tuple![1, 1], 1);
        db.relations[2].insert(tuple![1, 1], 1);
        engine.load(&db);
        assert_eq!(engine.result().payload(&Tuple::unit()), 1);
        // Deleting the R edge must retract the triangle: with stale
        // (doubled) support counts the indicator would never shrink.
        let neg = Relation::from_pairs(q.relations[0].schema.clone(), [(tuple![1, 1], -1i64)]);
        engine.apply(0, &Delta::Flat(neg.clone()));
        db.relations[0].union_in_place(&neg);
        assert_eq!(
            engine.result().payload(&Tuple::unit()),
            eval_tree(&tree, &db, &lifts).payload(&Tuple::unit())
        );
    }

    /// `load` with a static relation R that has a partial indicator
    /// ∃R(A,B) but no leaf store (its leaf sits alone under V_X, which
    /// µ does not store): the indicator keeps no support counts, and the
    /// loaded and maintained results match recomputation.
    #[test]
    fn load_with_static_partially_indicated_relation() {
        let q = QueryDef::new(
            &[
                ("R", &["A", "B", "X"]),
                ("S", &["B", "C"]),
                ("T", &["C", "A"]),
            ],
            &[],
        );
        let vo = VariableOrder::parse("A - B - { C, X }", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        assert_eq!(fivm_query::add_indicators(&mut tree, &q).len(), 1);
        let lifts = LiftingMap::<i64>::new();
        let mut engine = IvmEngine::new(q.clone(), tree.clone(), &[1], lifts.clone());
        let r_leaf = tree.leaf_of(0).unwrap();
        assert!(
            engine.views[r_leaf].is_none(),
            "R's leaf must stay unstored"
        );
        assert!(engine.ind_counts.is_empty());
        let mut db = Database::empty(&q);
        for (a, b, x) in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 3)] {
            db.relations[0].insert(tuple![a, b, x], 1);
        }
        db.relations[1].insert(tuple![1, 1], 1);
        db.relations[2].insert(tuple![1, 1], 1);
        db.relations[2].insert(tuple![1, 2], 1);
        engine.load(&db);
        assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
        for (t, m) in [(tuple![2, 1], 1i64), (tuple![1, 1], -1), (tuple![2, 1], 2)] {
            let d = Relation::from_pairs(q.relations[1].schema.clone(), [(t, m)]);
            engine.apply(1, &Delta::Flat(d.clone()));
            db.relations[1].union_in_place(&d);
            assert_eq!(engine.result(), eval_tree(&tree, &db, &lifts));
        }
    }

    /// The canonical rank-1 shape precompiles for every updatable
    /// relation of the benchmark shapes, and repeated same-shape
    /// updates never grow the plan cache (zero-interpretation steady
    /// state).
    #[test]
    fn rank1_plans_precompile_and_cache_is_stable() {
        let (q, tree, _, lifts) = fig2_setup(&[]);
        let mut engine = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
        for r in 0..3 {
            assert!(engine.has_rank1_plan(r), "relation {r} missing rank-1 plan");
            assert_eq!(engine.factored_shapes_cached(r), 1);
        }
        insert_fig2(&mut engine);
        // S(A, C, E) as a product of three vector factors — the
        // precompiled shape: the cache must not grow across updates.
        let (a, c, e) = (
            q.catalog.lookup("A").unwrap(),
            q.catalog.lookup("C").unwrap(),
            q.catalog.lookup("E").unwrap(),
        );
        let mk = || {
            Delta::factored(vec![
                Relation::from_pairs(Schema::new(vec![a]), [(tuple![1], 1i64)]),
                Relation::from_pairs(Schema::new(vec![c]), [(tuple![2], 1i64)]),
                Relation::from_pairs(Schema::new(vec![e]), [(tuple![9], 3i64)]),
            ])
        };
        for _ in 0..4 {
            engine.apply(1, &mk());
        }
        assert_eq!(engine.factored_shapes_cached(1), 1);
        // A two-factor grouping is a *different* shape: compiled once
        // on first sight, cached thereafter.
        let grouped = || {
            Delta::factored(vec![
                Relation::from_pairs(Schema::new(vec![a]), [(tuple![1], 1i64)]),
                Relation::from_pairs(Schema::new(vec![c, e]), [(tuple![2, 9], 1i64)]),
            ])
        };
        for _ in 0..4 {
            engine.apply(1, &grouped());
        }
        assert_eq!(engine.factored_shapes_cached(1), 2);
    }

    /// `load` after factored-path activity: the warm shape cache holds
    /// compiled `FactoredPlan`s with secondary-index ids baked in, and
    /// `ViewStore::reload` (which `load` uses) keeps index ids and
    /// positions stable — so cached plans must stay valid, producing
    /// the same views as a cold engine given the same load + updates.
    /// The durability layer's `restore_views` leans on exactly this
    /// invariant when replaying a log tail over restored snapshots.
    #[test]
    fn load_after_warm_factored_cache_keeps_plans_valid() {
        let (q, tree, mut db, lifts) = fig2_setup(&[]);
        let mut warm = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        let (a, c, e) = (
            q.catalog.lookup("A").unwrap(),
            q.catalog.lookup("C").unwrap(),
            q.catalog.lookup("E").unwrap(),
        );
        let rank1 = |av: i64, cv: i64, ev: i64, sign: i64| {
            Delta::factored(vec![
                Relation::from_pairs(Schema::new(vec![a]), [(tuple![av], sign)]),
                Relation::from_pairs(Schema::new(vec![c]), [(tuple![cv], 1i64)]),
                Relation::from_pairs(Schema::new(vec![e]), [(tuple![ev], 1i64)]),
            ])
        };
        // Warm the cache (compiles the plan, creating its secondary
        // indexes) with pre-load activity that `load` will supersede.
        insert_fig2(&mut warm);
        warm.apply(1, &rank1(1, 2, 9, 1));
        let shapes_before = warm.factored_shapes_cached(1);
        assert!(shapes_before >= 1);

        for (t, r) in [(tuple![1, 1], 0), (tuple![2, 3], 0), (tuple![7, 8], 0)] {
            db.relations[r].insert(t, 1);
        }
        for t in [tuple![1, 1, 1], tuple![1, 2, 3], tuple![7, 7, 7]] {
            db.relations[1].insert(t, 1);
        }
        for t in [tuple![1, 1], tuple![2, 2], tuple![7, 9]] {
            db.relations[2].insert(t, 1);
        }
        warm.load(&db);
        // Post-load factored updates run through the *cached* plan —
        // no recompilation, same shape count.
        warm.apply(1, &rank1(1, 2, 4, 1));
        warm.apply(1, &rank1(7, 7, 7, -1));
        assert_eq!(warm.factored_shapes_cached(1), shapes_before);

        // A cold engine over the same load + updates is the oracle.
        let mut cold = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
        cold.load(&db);
        cold.apply(1, &rank1(1, 2, 4, 1));
        cold.apply(1, &rank1(7, 7, 7, -1));
        for node in warm.materialized_nodes() {
            assert_eq!(
                warm.view_relation(node).unwrap().sorted(),
                cold.view_relation(node).unwrap().sorted(),
                "view {node} diverged after load with a warm plan cache"
            );
        }
    }

    /// The compiled factored path agrees with the general factor path
    /// on a mixed insert/delete rank-1 stream, across every
    /// materialized view (exact i64 ring).
    #[test]
    fn factored_fast_path_equals_general_path() {
        let (q, tree, _, mut lifts) = fig2_setup(&["A"]);
        lifts.set(q.catalog.lookup("B").unwrap(), int_identity());
        let mut fast = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        let mut general = IvmEngine::new(q.clone(), tree, &[0, 1, 2], lifts);
        general.set_fast_path(false);
        insert_fig2(&mut fast);
        insert_fig2(&mut general);
        let (a, c, e) = (
            q.catalog.lookup("A").unwrap(),
            q.catalog.lookup("C").unwrap(),
            q.catalog.lookup("E").unwrap(),
        );
        let updates: Vec<Delta<i64>> = vec![
            Delta::factored(vec![
                Relation::from_pairs(Schema::new(vec![a]), [(tuple![1], 1i64), (tuple![2], 1)]),
                Relation::from_pairs(
                    Schema::new(vec![c, e]),
                    [(tuple![2, 9], 1i64), (tuple![1, 9], 2)],
                ),
            ]),
            Delta::factored(vec![
                Relation::from_pairs(Schema::new(vec![a]), [(tuple![1], -1i64)]),
                Relation::from_pairs(Schema::new(vec![c]), [(tuple![2], 1i64)]),
                Relation::from_pairs(Schema::new(vec![e]), [(tuple![9], 1i64)]),
            ]),
            Delta::factored(vec![
                Relation::from_pairs(Schema::new(vec![c, e]), [(tuple![2, 9], -1i64)]),
                Relation::from_pairs(Schema::new(vec![a]), [(tuple![2], 1i64)]),
            ]),
        ];
        for (i, d) in updates.iter().enumerate() {
            fast.apply(1, d);
            general.apply(1, d);
            for node in 0..fast.tree().nodes.len() {
                assert_eq!(
                    fast.view_relation(node),
                    general.view_relation(node),
                    "view {node} diverged after update {i}"
                );
            }
        }
    }

    /// Factored updates maintain indicator projections (the leaf-store
    /// flatten collects support transitions): triangle query, rank-1
    /// edge updates, compared against recomputation.
    #[test]
    fn factored_update_maintains_indicators() {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        fivm_query::add_indicators(&mut tree, &q);
        let lifts = LiftingMap::<i64>::new();
        let mut engine = IvmEngine::new(q.clone(), tree.clone(), &[0, 1, 2], lifts.clone());
        let mut db = Database::empty(&q);
        let (a, b, c) = (
            q.catalog.lookup("A").unwrap(),
            q.catalog.lookup("B").unwrap(),
            q.catalog.lookup("C").unwrap(),
        );
        let vecs = [(0usize, a, b), (1, b, c), (2, c, a)];
        let updates: Vec<(usize, i64, i64, i64)> = vec![
            (0, 1, 1, 1),
            (1, 1, 1, 1),
            (2, 1, 1, 1), // closes (1,1,1)
            (0, 1, 2, 1),
            (1, 2, 1, 1),
            (0, 1, 1, -1), // delete → support shrinks
            (2, 1, 2, 1),
            (0, 2, 1, 1),
        ];
        for (ri, x, y, m) in updates {
            let (_, vx, vy) = vecs[ri];
            let d = Delta::factored(vec![
                Relation::from_pairs(Schema::new(vec![vx]), [(tuple![x], m)]),
                Relation::from_pairs(Schema::new(vec![vy]), [(tuple![y], 1i64)]),
            ]);
            engine.apply(ri, &d);
            db.relations[ri].union_in_place(&d.flatten().reorder(&q.relations[ri].schema));
            let expected = eval_tree(&tree, &db, &lifts);
            assert_eq!(
                engine.result().payload(&Tuple::unit()),
                expected.payload(&Tuple::unit()),
                "diverged after {ri}:({x},{y}):{m}"
            );
        }
    }

    /// The triangle count over `A - B - C` with its indicator ∃R(A,B),
    /// on the sequential path.
    fn triangle_engine() -> IvmEngine<i64> {
        let q = QueryDef::triangle();
        let vo = VariableOrder::parse("A - B - C", &q.catalog);
        let mut tree = ViewTree::build(&q, &vo);
        fivm_query::add_indicators(&mut tree, &q);
        let mut engine = IvmEngine::new(q, tree, &[0, 1, 2], LiftingMap::new());
        engine.set_workers(1);
        engine
    }

    /// Apply the edge update `rel(x, y) → m` to every engine.
    fn apply_edge(engines: &mut [&mut IvmEngine<i64>], rel: usize, x: i64, y: i64, m: i64) {
        for e in engines.iter_mut() {
            let schema = e.query.relations[rel].schema.clone();
            e.apply(
                rel,
                &Delta::Flat(Relation::from_pairs(schema, [(tuple![x, y], m)])),
            );
        }
    }

    /// `(two-sibling steps, of which swappable)` over every compiled
    /// fast plan.
    fn two_sibling_steps(engine: &IvmEngine<i64>) -> (usize, usize) {
        let ind = engine.ind_plans.values().filter_map(|p| p.fast.as_ref());
        engine
            .rel_fast
            .iter()
            .flatten()
            .chain(ind)
            .flat_map(|p| p.steps.iter())
            .filter(|s| s.siblings.len() == 2)
            .fold((0, 0), |(n, swapped), s| {
                (n + 1, swapped + usize::from(s.swapped.is_some()))
            })
    }

    /// Sanity: single-tuple updates on the running query go through the
    /// fast path (the general path is only entered when forced).
    #[test]
    fn fast_plans_compile_for_benchmark_shapes() {
        // Star join (fig11 shape): no step probes two siblings by index.
        let (q, tree, _, lifts) = fig2_setup(&[]);
        let engine = IvmEngine::new(q, tree, &[0, 1, 2], lifts);
        assert!(engine.rel_fast.iter().all(Option::is_some));
        assert_eq!(two_sibling_steps(&engine).1, 0);
        // Triangle with indicators (fig13 shape): the S, T and ∃R steps
        // at C each have a swapped order, and ∃R(A,B) reads R's leaf
        // store, so five views are stored, not six.
        let engine = triangle_engine();
        assert!(engine.rel_fast.iter().all(Option::is_some));
        assert!(engine.ind_plans.values().all(|p| p.fast.is_some()));
        assert_eq!(two_sibling_steps(&engine), (3, 3));
        assert_eq!(engine.stored_view_count(), 5);
    }

    /// Per tuple, a two-order step iterates the smaller candidate
    /// bucket. `S(7,100)` against a hub `c = 100` with 50 T-edges and a
    /// `b = 7` with one R-edge runs the swapped order (R by B, then T by
    /// (C,A)); the mirror (a hub `b` with 50 R-edges, a `c` with one
    /// T-edge) and a one-to-one tie run the compiled order. Every view
    /// matches the general path throughout, deletes included.
    #[test]
    fn smaller_bucket_picks_the_sibling_order() {
        /// Apply `rel(x, y) → m` to the fast engine and the general-path
        /// foil, compare every view, and return the order runs added.
        fn run(e: &mut [IvmEngine<i64>; 2], rel: usize, x: i64, y: i64, m: i64) -> [u64; 2] {
            let before = e[0].order_runs;
            let [fast, general] = e;
            apply_edge(&mut [fast, general], rel, x, y, m);
            for node in 0..e[0].node_count() {
                assert_eq!(
                    e[0].view_relation(node).map(|r| r.sorted()),
                    e[1].view_relation(node).map(|r| r.sorted()),
                    "view {node} after {rel}({x},{y}) → {m}"
                );
            }
            let after = e[0].order_runs;
            [after[0] - before[0], after[1] - before[1]]
        }
        let mut e = [triangle_engine(), triangle_engine()];
        e[1].set_fast_path(false);
        // Hub on the T side: only the closing S-edge finds both buckets
        // non-empty.
        for a in 0..50 {
            assert_eq!(run(&mut e, 2, 100, a, 1), [0, 0]);
        }
        assert_eq!(run(&mut e, 0, 0, 7, 1), [0, 0]);
        assert_eq!(run(&mut e, 1, 7, 100, 1), [0, 1], "1 R-edge < 50 T-edges");
        // Hub on the R side.
        for a in 0..50 {
            assert_eq!(run(&mut e, 0, a, 8, 1), [0, 0]);
        }
        assert_eq!(run(&mut e, 2, 200, 0, 1), [0, 0]);
        assert_eq!(run(&mut e, 1, 8, 200, 1), [1, 0], "1 T-edge < 50 R-edges");
        // A tie keeps the compiled order.
        assert_eq!(run(&mut e, 0, 300, 9, 1), [0, 0]);
        assert_eq!(run(&mut e, 2, 400, 300, 1), [0, 0]);
        assert_eq!(run(&mut e, 1, 9, 400, 1), [1, 0], "1 T-edge = 1 R-edge");
        assert_eq!(e[0].result().payload(&Tuple::unit()), 3);
        // Deletes that empty the small buckets, then the closing edges.
        run(&mut e, 0, 0, 7, -1);
        run(&mut e, 2, 200, 0, -1);
        assert_eq!(run(&mut e, 1, 7, 100, -1), [0, 0], "R(·,7) is empty");
        assert_eq!(run(&mut e, 1, 8, 200, -1), [0, 0], "T(200,·) is empty");
        assert_eq!(e[0].result().payload(&Tuple::unit()), 1);
    }

    /// `restore_views` skips a snapshot of the aliased ∃R(A,B), which
    /// checkpoints cut before the alias carry, and the restored engine
    /// then matches a fresh engine over the same updates.
    #[test]
    fn restore_skips_aliased_indicator_snapshot() {
        let before: [(usize, i64, i64, i64); 6] = [
            (0, 1, 1, 1),
            (0, 1, 1, 1), // multiplicity 2: the indicator still reads 1
            (1, 1, 2, 1),
            (2, 2, 1, 1),
            (0, 3, 1, 1),
            (2, 2, 3, 1),
        ];
        let after: [(usize, i64, i64, i64); 5] = [
            (0, 1, 1, -1),
            (1, 1, 4, 1),
            (2, 4, 3, 1),
            (0, 1, 1, -1), // support disappears
            (0, 5, 1, 1),
        ];
        let mut live = triangle_engine();
        for &(rel, x, y, m) in &before {
            apply_edge(&mut [&mut live], rel, x, y, m);
        }
        let ind = (0..live.node_count())
            .find(|&n| matches!(live.tree().nodes[n].kind, NodeKind::Indicator { .. }))
            .expect("the triangle has an indicator");
        assert!(live.view_relation(ind).is_none(), "∃R(A,B) is aliased");
        let mut snapshots: Vec<(NodeId, Relation<i64>)> = live
            .materialized_nodes()
            .into_iter()
            .map(|n| (n, live.view_relation(n).expect("materialized")))
            .collect();
        let leaf = live.tree().leaf_of(0).expect("R has a leaf");
        let indicator = live.view_relation(leaf).expect("R's leaf is stored");
        snapshots.push((ind, indicator.map_payloads(|_, _| 1)));

        let mut restored = triangle_engine();
        restored.restore_views(&snapshots, live.updates_applied());
        let mut fresh = triangle_engine();
        for &(rel, x, y, m) in &before {
            apply_edge(&mut [&mut fresh], rel, x, y, m);
        }
        for &(rel, x, y, m) in &after {
            apply_edge(&mut [&mut restored, &mut fresh], rel, x, y, m);
        }
        for node in 0..fresh.node_count() {
            assert_eq!(
                restored.view_relation(node).map(|r| r.sorted()),
                fresh.view_relation(node).map(|r| r.sorted()),
                "view {node}"
            );
        }
        assert_eq!(restored.updates_applied(), fresh.updates_applied());
    }
}
