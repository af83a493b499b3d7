//! The adapter: every call into a `fivm_*` crate is made from this file
//! or its child module `sut/probes.rs`, and nothing else in the package
//! names an engine type. `README.md` lists the functions used here as
//! the public surface later changes must keep callable.
//!
//! A workload is set up by [`prepare`] (the timed set-up), armed with
//! its oracle by [`Workload::arm`] (untimed), then driven round by
//! round. Each workload also carries its inputs as a *flat stream* — a
//! plain `IvmEngine` plus a list of flat deltas — which is what the
//! per-layer probes replay into the inner layers.

mod probes;

use crate::alloc::live_bytes;
use crate::digest::Fnv;
use crate::oracle;
use crate::trace::{Recorder, SpanId};
use fivm_core::ring::cofactor::Cofactor;
use fivm_core::{Codec, Delta, Lifting, LiftingMap, Relation, Ring, Semiring, Tuple, Value};
use fivm_data::{housing, matrices, retailer, twitter};
use fivm_data::{Batch, HousingConfig, RetailerConfig, ZipfTwitterConfig};
use fivm_durability::{DurabilityConfig, DurableEngine, SyncPolicy};
use fivm_engine::reeval::FactorizedReeval;
use fivm_engine::{HlConfig, IvmEngine, TriangleHlEngine};
use fivm_linalg::{EngineChainIvm, Matrix};
use fivm_ml::CofactorSpec;
use fivm_query::{add_indicators, NodeId, QueryDef, ViewTree};
use rand::SeedableRng;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub const WORKLOADS: [&str; 6] = [
    "housing_sum_single",
    "retailer_cofactor_batch",
    "triangle_count_churn",
    "triangle_hl_churn",
    "chain_rank1_factored",
    "housing_durable_served",
];

/// Point reads per read group.
pub const READS_PER_GROUP: usize = 64;
/// Read groups timed after each latency pass (single-threaded workloads).
const READ_GROUPS: usize = 2_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The sizes the benchmark reports on.
    Full,
    /// Tiny inputs for the package's own tests: correctness only.
    Check,
}

struct Sizes {
    housing_postcodes: usize,
    retailer: RetailerConfig,
    retailer_batch: usize,
    triangle_edges: usize,
    triangle_nodes: usize,
    chain_n: usize,
    chain_updates: usize,
    /// Dimension of the chain whose entry-by-entry listing is the chain
    /// workload's flat stream (a full replay of the `chain_n` listing
    /// would cost seconds per probe).
    chain_flat_n: usize,
    checkpoint_every: u64,
    publish_every: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            housing_postcodes: 50_000,
            retailer: RetailerConfig {
                inventory_rows: 100_000,
                locations: 50,
                dates: 200,
                items: 1_000,
                zips: 40,
                seed: 0,
            },
            retailer_batch: 1_000,
            triangle_edges: 45_000,
            triangle_nodes: 4_500,
            chain_n: 96,
            chain_updates: 200,
            chain_flat_n: 48,
            checkpoint_every: 65_536,
            publish_every: 16_384,
        },
        Scale::Check => Sizes {
            housing_postcodes: 300,
            retailer: RetailerConfig {
                inventory_rows: 1_500,
                locations: 8,
                dates: 12,
                items: 40,
                zips: 5,
                seed: 0,
            },
            retailer_batch: 100,
            triangle_edges: 1_500,
            triangle_nodes: 150,
            chain_n: 12,
            chain_updates: 24,
            chain_flat_n: 8,
            checkpoint_every: 1_024,
            publish_every: 256,
        },
    }
}

/// Every generator seed is derived from `--seed` (splitmix64 of the
/// seed and a per-use tag), so one number fixes all inputs.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// What the harness sees
// ---------------------------------------------------------------------

/// One pass over a workload's stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    /// Wall time of the timed loop only.
    pub secs: f64,
    /// Heap the engine holds once the stream is applied.
    pub state_bytes: u64,
    /// Apply calls made.
    pub applies: u64,
    /// Point reads made (by the reader thread, or after a latency pass).
    pub reads: u64,
    /// Oracle comparisons made, and how many disagreed.
    pub checks: u64,
    pub failed: u64,
}

/// Layer metrics of a traced run: `contract` holds the ones
/// `BENCHMARK.json` lists (every workload reports every one), `extra`
/// the ones only some workloads have.
#[derive(Default)]
pub struct Layers {
    pub contract: Vec<(String, f64, &'static str)>,
    pub extra: Vec<(String, f64, &'static str)>,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.contract.push((name.to_string(), value, unit));
    }

    fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_string(), value, unit));
    }
}

pub trait Workload {
    /// Tuples one round applies (numerator of `updates_per_s`).
    fn stream_tuples(&self) -> u64;
    /// Tuples live once the stream is applied (denominator of
    /// `state_bytes_per_tuple`); known after [`Workload::arm`].
    fn live_tuples(&self) -> u64;
    /// FNV-1a over the update list; known after [`Workload::arm`].
    fn input_digest(&self) -> u64;
    /// Untimed: digest, oracle expectations, read keys. `corrupt`
    /// perturbs one oracle input — the self-test that a wrong answer
    /// is noticed.
    fn arm(&mut self, corrupt: bool);
    /// One bulk-timed pass on a fresh engine.
    fn bulk_round(&mut self) -> Round;
    /// One per-call-timed pass on a fresh engine, then timed read
    /// groups; appends nanoseconds per apply call and per read group.
    fn latency_round(&mut self, apply_ns: &mut Vec<u32>, read_ns: &mut Vec<u32>) -> Round;
    /// The traced run: spans around the workload's own rounds, then the
    /// layer probes over its flat stream.
    fn traced(&mut self, rec: &mut Recorder, seconds: f64, out: &mut Layers) -> Round;
}

/// Engines and side effects created so far, counted where this file
/// creates them — how the harness asserts from outside that a workload
/// bypasses what it claims to bypass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Built {
    pub ivm_cofactor: u64,
    pub ivm_other: u64,
    pub heavy_light: u64,
    pub chain: u64,
    pub factored_deltas: u64,
    pub serving: u64,
    pub durable: u64,
    pub scratch_dirs: u64,
}

static BUILT: Mutex<Built> = Mutex::new(Built {
    ivm_cofactor: 0,
    ivm_other: 0,
    heavy_light: 0,
    chain: 0,
    factored_deltas: 0,
    serving: 0,
    durable: 0,
    scratch_dirs: 0,
});

fn built(f: impl FnOnce(&mut Built)) {
    f(&mut BUILT
        .lock()
        .expect("no holder of the counter lock can panic"));
}

pub fn built_so_far() -> Built {
    *BUILT
        .lock()
        .expect("no holder of the counter lock can panic")
}

/// Set up one workload from `seed`: generate its inputs, plan, build
/// an engine, pre-build the deltas. Each step is a span of `rec`
/// (`data.generate`, `query.viewtree.build`, `core.relation.build_delta`,
/// `engine.executor.new`); `scratch` is where a workload that persists
/// anything must keep it.
pub fn prepare(
    name: &str,
    seed: u64,
    scale: Scale,
    scratch: &Path,
    rec: &mut Recorder,
) -> Box<dyn Workload> {
    let sz = sizes(scale);
    let scratch = scratch.to_path_buf();
    match name {
        "housing_sum_single" => {
            let flat = housing_flat(seed, &sz, rec);
            Box::new(PlainW::new(flat, Kind::Housing, scale, scratch, rec))
        }
        "retailer_cofactor_batch" => {
            let flat = retailer_flat(seed, &sz, rec);
            Box::new(PlainW::new(flat, Kind::Retailer, scale, scratch, rec))
        }
        "triangle_count_churn" => {
            let flat = triangle_flat(seed, &sz, rec);
            Box::new(PlainW::new(flat, Kind::Triangle, scale, scratch, rec))
        }
        "triangle_hl_churn" => Box::new(HlW::new(seed, sz, scale, scratch, rec)),
        "chain_rank1_factored" => Box::new(ChainW::new(seed, sz, scratch, rec)),
        "housing_durable_served" => Box::new(DurableW::new(seed, sz, scratch, rec)),
        other => panic!("unknown workload {other:?} (known: {WORKLOADS:?})"),
    }
}

// ---------------------------------------------------------------------
// Payloads and flat streams
// ---------------------------------------------------------------------

/// The rings the workloads maintain, seen as plain numbers.
trait Payload: Ring + Codec {
    /// A root payload as the numbers the closed-form oracles check.
    fn scalars(&self, m: usize) -> Vec<f64>;
    /// Everything the payload holds, for whole-payload comparisons.
    fn dense(&self, m: usize) -> Vec<f64> {
        self.scalars(m)
    }
    /// The multiplicity this payload gives its tuple in a delta.
    fn mult(&self) -> f64;
    fn is_cofactor() -> bool {
        false
    }
    /// Layer probes only this ring's workloads have.
    fn extra_probes(
        _flat: &Flat<Self>,
        _root: &Relation<Self>,
        _rec: &mut Recorder,
        _out: &mut Layers,
    ) {
    }
}

impl Payload for f64 {
    fn scalars(&self, _m: usize) -> Vec<f64> {
        vec![*self]
    }
    fn mult(&self) -> f64 {
        *self
    }
}

impl Payload for i64 {
    fn scalars(&self, _m: usize) -> Vec<f64> {
        vec![*self as f64]
    }
    fn mult(&self) -> f64 {
        *self as f64
    }
    fn extra_probes(flat: &Flat<i64>, _root: &Relation<i64>, rec: &mut Recorder, out: &mut Layers) {
        probes::heavy_light(flat, rec, out);
    }
}

impl Payload for Cofactor {
    /// `[count, SUM(x_0), …, SUM(x_{m-1})]`.
    fn scalars(&self, m: usize) -> Vec<f64> {
        let (count, sums, _) = self.to_dense(m);
        std::iter::once(count as f64).chain(sums).collect()
    }
    fn dense(&self, m: usize) -> Vec<f64> {
        let (count, sums, prods) = self.to_dense(m);
        std::iter::once(count as f64)
            .chain(sums)
            .chain(prods)
            .collect()
    }
    fn mult(&self) -> f64 {
        self.count as f64
    }
    fn is_cofactor() -> bool {
        true
    }
    fn extra_probes(
        flat: &Flat<Cofactor>,
        root: &Relation<Cofactor>,
        _rec: &mut Recorder,
        out: &mut Layers,
    ) {
        probes::regression(&CofactorSpec::over_all_vars(&flat.query), root, out);
    }
}

/// A workload's inputs as flat deltas for a plain `IvmEngine`.
struct Flat<R: Payload> {
    query: QueryDef,
    tree: ViewTree,
    lifts: LiftingMap<R>,
    updatable: Vec<usize>,
    updates: Vec<(usize, Delta<R>)>,
    tuples: u64,
}

impl<R: Payload> Flat<R> {
    fn engine(&self) -> IvmEngine<R> {
        built(|b| {
            if R::is_cofactor() {
                b.ivm_cofactor += 1
            } else {
                b.ivm_other += 1
            }
        });
        IvmEngine::new(
            self.query.clone(),
            self.tree.clone(),
            &self.updatable,
            self.lifts.clone(),
        )
    }

    /// Apply the whole stream; seconds.
    fn replay(&self, e: &mut IvmEngine<R>) -> f64 {
        let t = Instant::now();
        for (rel, d) in &self.updates {
            e.apply(*rel, d);
        }
        t.elapsed().as_secs_f64()
    }

    /// The longest prefix of the stream holding at most `max_tuples`
    /// tuples (never empty).
    fn prefix(&self, max_tuples: u64) -> &[(usize, Delta<R>)] {
        let mut tuples = 0;
        let end = self
            .updates
            .iter()
            .position(|(_, d)| {
                tuples += d.stored_len() as u64;
                tuples > max_tuples
            })
            .unwrap_or(self.updates.len());
        &self.updates[..end.max(1)]
    }

    /// Every tuple of the stream as plain numbers (`NaN` for a symbol)
    /// with its multiplicity — what the oracles are fed.
    fn visit(&self, mut f: impl FnMut(usize, &[f64], f64)) {
        let mut row = Vec::new();
        for (rel, d) in &self.updates {
            for (t, p) in pairs(d) {
                row.clear();
                row.extend(t.values().iter().map(|v| v.as_f64().unwrap_or(f64::NAN)));
                f(*rel, &row, p.mult());
            }
        }
    }

    fn digest(&self) -> u64 {
        let updates = self.updates.iter();
        digest_of(updates.flat_map(|(rel, d)| pairs(d).map(move |(t, p)| (*rel, t, p.mult()))))
    }

    fn vars(&self) -> usize {
        self.query.all_vars().len()
    }

    fn root_scalars(&self, e: &IvmEngine<R>) -> Vec<f64> {
        e.result().payload(&Tuple::unit()).scalars(self.vars())
    }
}

/// FNV-1a over relation index, tuple values and multiplicity of every
/// update, in stream order.
fn digest_of<'a>(updates: impl Iterator<Item = (usize, &'a Tuple, f64)>) -> u64 {
    let mut h = Fnv::new();
    for (rel, t, mult) in updates {
        h.u64(rel as u64);
        for v in t.values() {
            match v {
                Value::Int(i) => h.u64(*i as u64),
                Value::Double(x) => h.f64(*x),
                Value::Sym(id) => h.u64(u64::from(*id) | 1 << 63),
            }
        }
        h.f64(mult);
    }
    h.finish()
}

/// The `(tuple, payload)` pairs of a flat delta.
fn pairs<R: Payload>(d: &Delta<R>) -> impl Iterator<Item = (&Tuple, &R)> {
    match d {
        Delta::Flat(r) => r.iter(),
        Delta::Factored(_) => unreachable!("flat streams hold flat deltas only"),
    }
}

fn single<R: Payload>(q: &QueryDef, rel: usize, t: &Tuple, p: R) -> (usize, Delta<R>) {
    let schema = q.relations[rel].schema.clone();
    (
        rel,
        Delta::Flat(Relation::from_pairs(schema, [(t.clone(), p)])),
    )
}

fn singles<R: Payload>(q: &QueryDef, batches: &[Batch]) -> Vec<(usize, Delta<R>)> {
    batches
        .iter()
        .flat_map(|b| b.tuples.iter().map(|t| single(q, b.relation, t, R::one())))
        .collect()
}

fn housing_flat(seed: u64, sz: &Sizes, rec: &mut Recorder) -> Flat<f64> {
    let h = rec.span("data.generate", || {
        housing::generate(&HousingConfig {
            postcodes: sz.housing_postcodes,
            scale: 2,
            seed: sub_seed(seed, 1),
        })
    });
    let query = h.query.clone();
    let tree = rec.span("query.viewtree.build", || ViewTree::build(&query, &h.order));
    let mut lifts = LiftingMap::<f64>::new();
    lifts.set(
        query
            .catalog
            .lookup("postcode")
            .expect("housing has a postcode"),
        Lifting::from_fn(|v: &Value| v.as_f64().expect("integer postcodes")),
    );
    let updates = rec.span("core.relation.build_delta", || {
        singles(&query, &h.stream(1))
    });
    Flat {
        updatable: (0..query.relations.len()).collect(),
        tuples: updates.len() as u64,
        query,
        tree,
        lifts,
        updates,
    }
}

fn retailer_flat(seed: u64, sz: &Sizes, rec: &mut Recorder) -> Flat<Cofactor> {
    let r = rec.span("data.generate", || {
        retailer::generate(&RetailerConfig {
            seed: sub_seed(seed, 2),
            ..sz.retailer.clone()
        })
    });
    let query = r.query.clone();
    let tree = rec.span("query.viewtree.build", || ViewTree::build(&query, &r.order));
    let lifts = CofactorSpec::over_all_vars(&query).liftings();
    let updates: Vec<(usize, Delta<Cofactor>)> = rec.span("core.relation.build_delta", || {
        r.stream(sz.retailer_batch)
            .iter()
            .map(|b| {
                let schema = query.relations[b.relation].schema.clone();
                let pairs = b.tuples.iter().map(|t| (t.clone(), Cofactor::one()));
                (b.relation, Delta::Flat(Relation::from_pairs(schema, pairs)))
            })
            .collect()
    });
    Flat {
        updatable: (0..query.relations.len()).collect(),
        tuples: r.tuples.iter().map(|t| t.len() as u64).sum(),
        query,
        tree,
        lifts,
        updates,
    }
}

/// One triangle-churn update: `(relation, edge, ±1)`.
type Edge = (usize, Tuple, i64);

/// The triangle churn list: every edge inserted round-robin over R, S,
/// T, then every third edge *of each relation* deleted again, plus the
/// query and its indicator-extended view tree.
fn triangle_edges(seed: u64, sz: &Sizes, rec: &mut Recorder) -> (QueryDef, ViewTree, Vec<Edge>) {
    let tw = rec.span("data.generate", || {
        twitter::generate_zipf(&ZipfTwitterConfig {
            edges: sz.triangle_edges,
            nodes: sz.triangle_nodes,
            exponent: 1.0,
            seed: sub_seed(seed, 3),
        })
    });
    let query = tw.query.clone();
    let tree = rec.span("query.viewtree.build", || {
        let mut tree = ViewTree::build(&query, &tw.order);
        add_indicators(&mut tree, &query);
        tree
    });
    let mut edges: Vec<Edge> = tw
        .stream(1)
        .iter()
        .flat_map(|b| b.tuples.iter().map(|t| (b.relation, t.clone(), 1i64)))
        .collect();
    // Positions 9k, 9k+1, 9k+2 of the round-robin list hold the 3k-th
    // edge of R, S and T.
    let deletes: Vec<Edge> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| (i / 3) % 3 == 0)
        .map(|(_, (rel, t, _))| (*rel, t.clone(), -1))
        .collect();
    edges.extend(deletes);
    (query, tree, edges)
}

fn edges_to_flat(query: QueryDef, tree: ViewTree, edges: &[Edge], rec: &mut Recorder) -> Flat<i64> {
    let updates = rec.span("core.relation.build_delta", || {
        edges
            .iter()
            .map(|(rel, t, p)| single(&query, *rel, t, *p))
            .collect()
    });
    Flat {
        updatable: vec![0, 1, 2],
        tuples: edges.len() as u64,
        query,
        tree,
        lifts: LiftingMap::new(),
        updates,
    }
}

fn triangle_flat(seed: u64, sz: &Sizes, rec: &mut Recorder) -> Flat<i64> {
    let (query, tree, edges) = triangle_edges(seed, sz, rec);
    edges_to_flat(query, tree, &edges, rec)
}

/// The relational listing of a random `n × n` 3-chain inserted entry by
/// entry, round-robin over the matrices: the chain workload's flat
/// stream (the query and view tree `EngineChainIvm` builds).
fn chain_flat(seed: u64, n: usize, rec: &mut Recorder) -> Flat<f64> {
    let query = matrices::chain_query(3);
    let tree = rec.span("query.viewtree.build", || {
        let order = fivm_query::VariableOrder::parse("X1 - X4 - X3 - X2", &query.catalog);
        ViewTree::build(&query, &order)
    });
    let mats = matrices::random_chain(3, n, sub_seed(seed, 5));
    let updates: Vec<(usize, Delta<f64>)> = rec.span("core.relation.build_delta", || {
        (0..n * n)
            .flat_map(|cell| {
                let t = Tuple::pair(Value::Int((cell / n) as i64), Value::Int((cell % n) as i64));
                let query = &query;
                mats.iter()
                    .enumerate()
                    .map(move |(rel, m)| single(query, rel, &t, m[cell]))
            })
            .collect()
    });
    Flat {
        updatable: vec![0, 1, 2],
        tuples: updates.len() as u64,
        query,
        tree,
        lifts: LiftingMap::new(),
        updates,
    }
}

// ---------------------------------------------------------------------
// Reads and checks
// ---------------------------------------------------------------------

/// Where a workload's point reads go: the largest non-root view of
/// the fully applied stream, and 4096 of its keys taken at a stride
/// across the whole view — far enough apart that a read group does not
/// live in cache.
struct ReadSet {
    node: NodeId,
    keys: Vec<Tuple>,
}

/// The largest materialized view below the root (the root itself when
/// nothing else is materialized).
fn largest_view<R: Payload>(e: &IvmEngine<R>) -> NodeId {
    let root = e.tree().root;
    e.materialized_nodes()
        .into_iter()
        .filter(|&n| n != root)
        .max_by_key(|&n| e.view_store(n).map_or(0, |v| v.len()))
        .unwrap_or(root)
}

fn pick_reads<R: Payload>(flat: &Flat<R>) -> ReadSet {
    let mut e = flat.engine();
    flat.replay(&mut e);
    let node = largest_view(&e);
    let store = e.view_store(node).expect("picked among materialized nodes");
    let stride = (store.len() / 4096).max(1);
    let keys = store
        .iter()
        .step_by(stride)
        .take(4096)
        .map(|(t, _)| t.clone())
        .collect();
    ReadSet { node, keys }
}

/// Time `READ_GROUPS` groups of `READS_PER_GROUP` point reads plus one
/// read of the query result; returns the reads made.
fn timed_reads<R: Payload>(e: &IvmEngine<R>, reads: &ReadSet, read_ns: &mut Vec<u32>) -> u64 {
    let store = e.view_store(reads.node).expect("read node is materialized");
    let mut k = 0;
    for _ in 0..READ_GROUPS {
        let t = Instant::now();
        for _ in 0..READS_PER_GROUP {
            k = (k + 1) % reads.keys.len();
            black_box(store.get(&reads.keys[k]));
        }
        black_box(e.result());
        read_ns.push(nanos(t));
    }
    (READ_GROUPS * (READS_PER_GROUP + 1)) as u64
}

fn nanos(since: Instant) -> u32 {
    u32::try_from(since.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

fn heap_since(before: i64) -> u64 {
    (live_bytes() - before).max(0) as u64
}

/// `(comparisons, disagreements)` of a result against the oracle's
/// numbers; `None` entries are not checked.
fn mismatches(got: &[f64], want: &[Option<f64>]) -> (u64, u64) {
    if got.len() != want.len() {
        return (1, 1);
    }
    let mut checks = 0;
    let mut failed = 0;
    for (g, w) in got.iter().zip(want) {
        if let Some(w) = w {
            checks += 1;
            failed += u64::from(!oracle::close(*g, *w));
        }
    }
    (checks, failed)
}

fn all_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| oracle::close(*g, *w))
}

/// `[count, SUM(x_i)…]` the Retailer join must have, from the harness's
/// foreign-key closed form.
fn retailer_expected<R: Payload>(flat: &Flat<R>) -> Vec<Option<f64>> {
    let spec = CofactorSpec::over_all_vars(&flat.query);
    let col_var = flat
        .query
        .relations
        .iter()
        .map(|r| {
            r.schema
                .vars()
                .iter()
                .map(|&v| spec.index_of(v).expect("spec covers all variables") as usize)
                .collect()
        })
        .collect();
    let mut o = oracle::RetailerSums::new(col_var, spec.m());
    flat.visit(|rel, row, mult| o.insert(rel, row, mult));
    o.expected()
}

fn triangle_oracle(edges: impl Iterator<Item = (usize, i64, i64, i64)>) -> oracle::Triangles {
    let mut o = oracle::Triangles::default();
    for (rel, first, second, mult) in edges {
        o.update(rel, first, second, mult);
    }
    o
}

// ---------------------------------------------------------------------
// housing_sum_single, retailer_cofactor_batch, triangle_count_churn:
// a plain IvmEngine over the flat stream
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Housing,
    Retailer,
    Triangle,
}

struct PlainW<R: Payload> {
    flat: Flat<R>,
    kind: Kind,
    scale: Scale,
    scratch: PathBuf,
    expected: Vec<Option<f64>>,
    live: u64,
    digest: u64,
    reads: Option<ReadSet>,
}

impl<R: Payload> PlainW<R> {
    fn new(flat: Flat<R>, kind: Kind, scale: Scale, scratch: PathBuf, rec: &mut Recorder) -> Self {
        // Engine construction (plan compilation) belongs to set-up; the
        // rounds each build their own.
        drop(rec.span("engine.executor.new", || flat.engine()));
        PlainW {
            flat,
            kind,
            scale,
            scratch,
            expected: Vec::new(),
            live: 0,
            digest: 0,
            reads: None,
        }
    }

    fn verify(&self, e: &IvmEngine<R>) -> (u64, u64) {
        mismatches(&self.flat.root_scalars(e), &self.expected)
    }

    /// The whole root payload against factorized re-evaluation of the
    /// same stream (`--check` only: re-evaluation is slow).
    fn verify_against_reeval(&self, e: &IvmEngine<R>) -> (u64, u64) {
        let flat = &self.flat;
        let mut re =
            FactorizedReeval::new(flat.query.clone(), flat.tree.clone(), flat.lifts.clone());
        for (rel, d) in &flat.updates {
            re.apply(*rel, d);
        }
        let dense = |r: &Relation<R>| r.payload(&Tuple::unit()).dense(flat.vars());
        (
            1,
            u64::from(!all_close(&dense(&e.result()), &dense(re.result()))),
        )
    }
}

impl<R: Payload> Workload for PlainW<R> {
    fn stream_tuples(&self) -> u64 {
        self.flat.tuples
    }

    fn live_tuples(&self) -> u64 {
        self.live
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn arm(&mut self, corrupt: bool) {
        self.digest = self.flat.digest();
        self.live = self.flat.tuples;
        self.expected = match self.kind {
            Kind::Housing => {
                let mut o = oracle::HousingSum::default();
                self.flat.visit(|rel, row, _| o.insert(rel, row[0] as i64));
                vec![Some(o.sum())]
            }
            Kind::Retailer => retailer_expected(&self.flat),
            Kind::Triangle => {
                let mut rows = Vec::new();
                self.flat.visit(|rel, row, mult| {
                    rows.push((rel, row[0] as i64, row[1] as i64, mult as i64))
                });
                let o = triangle_oracle(rows.into_iter());
                self.live = o.live_edges();
                vec![Some(o.count() as f64)]
            }
        };
        if corrupt {
            *self.expected[0]
                .as_mut()
                .expect("first expectation is numeric") += 1.0;
        }
        self.reads = Some(pick_reads(&self.flat));
    }

    fn bulk_round(&mut self) -> Round {
        let before = live_bytes();
        let mut e = self.flat.engine();
        let secs = self.flat.replay(&mut e);
        let state_bytes = heap_since(before);
        let (checks, failed) = self.verify(&e);
        Round {
            secs,
            state_bytes,
            applies: self.flat.updates.len() as u64,
            checks,
            failed,
            ..Round::default()
        }
    }

    fn latency_round(&mut self, apply_ns: &mut Vec<u32>, read_ns: &mut Vec<u32>) -> Round {
        let mut e = self.flat.engine();
        let start = Instant::now();
        for (rel, d) in &self.flat.updates {
            let t = Instant::now();
            e.apply(*rel, d);
            apply_ns.push(nanos(t));
        }
        let secs = start.elapsed().as_secs_f64();
        let reads = timed_reads(&e, self.reads.as_ref().expect("armed"), read_ns);
        let (mut checks, mut failed) = self.verify(&e);
        if self.scale == Scale::Check && self.kind == Kind::Retailer {
            let (c, f) = self.verify_against_reeval(&e);
            checks += c;
            failed += f;
        }
        Round {
            secs,
            applies: self.flat.updates.len() as u64,
            reads,
            checks,
            failed,
            ..Round::default()
        }
    }

    fn traced(&mut self, rec: &mut Recorder, seconds: f64, out: &mut Layers) -> Round {
        let replay = probes::layers(&self.flat, rec, seconds, &self.scratch, out);
        out.put("trace.overhead_pct", replay.overhead_pct, "%");
        let (checks, failed) = self.verify(&replay.engine);
        Round {
            applies: replay.applies,
            checks,
            failed,
            ..Round::default()
        }
    }
}

// ---------------------------------------------------------------------
// triangle_hl_churn: the same update list through TriangleHlEngine
// ---------------------------------------------------------------------

struct HlW {
    query: QueryDef,
    tree: ViewTree,
    edges: Vec<Edge>,
    scale: Scale,
    scratch: PathBuf,
    expected: i64,
    live: u64,
    digest: u64,
}

impl HlW {
    fn new(seed: u64, sz: Sizes, scale: Scale, scratch: PathBuf, rec: &mut Recorder) -> Self {
        let (query, tree, edges) = triangle_edges(seed, &sz, rec);
        let w = HlW {
            query,
            tree,
            edges,
            scale,
            scratch,
            expected: 0,
            live: 0,
            digest: 0,
        };
        drop(rec.span("engine.heavylight.new", || w.engine()));
        w
    }

    fn engine(&self) -> TriangleHlEngine<i64> {
        built(|b| b.heavy_light += 1);
        TriangleHlEngine::new(self.query.clone(), HlConfig::default())
            .expect("triangle query partitions")
    }

    fn verify(&self, e: &TriangleHlEngine<i64>) -> (u64, u64) {
        (1, u64::from(*e.total() != self.expected))
    }

    fn flat(&self, rec: &mut Recorder) -> Flat<i64> {
        edges_to_flat(self.query.clone(), self.tree.clone(), &self.edges, rec)
    }
}

impl Workload for HlW {
    fn stream_tuples(&self) -> u64 {
        self.edges.len() as u64
    }

    fn live_tuples(&self) -> u64 {
        self.live
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn arm(&mut self, corrupt: bool) {
        let plain = |(rel, t, p): &Edge| {
            let v = |i: usize| t.get(i).as_int().expect("integer node ids");
            (*rel, v(0), v(1), *p)
        };
        // The same digest `triangle_count_churn` reports: the list is shared.
        self.digest = digest_of(self.edges.iter().map(|(rel, t, p)| (*rel, t, *p as f64)));
        let o = triangle_oracle(self.edges.iter().map(plain));
        self.live = o.live_edges();
        self.expected = o.count() + i64::from(corrupt);
    }

    fn bulk_round(&mut self) -> Round {
        let before = live_bytes();
        let mut e = self.engine();
        let t = Instant::now();
        for (rel, tu, p) in &self.edges {
            e.apply_update(*rel, tu, *p);
        }
        let secs = t.elapsed().as_secs_f64();
        let state_bytes = heap_since(before);
        let (checks, failed) = self.verify(&e);
        Round {
            secs,
            state_bytes,
            applies: self.edges.len() as u64,
            checks,
            failed,
            ..Round::default()
        }
    }

    fn latency_round(&mut self, apply_ns: &mut Vec<u32>, read_ns: &mut Vec<u32>) -> Round {
        let mut e = self.engine();
        let start = Instant::now();
        for (rel, tu, p) in &self.edges {
            let t = Instant::now();
            e.apply_update(*rel, tu, *p);
            apply_ns.push(nanos(t));
        }
        let secs = start.elapsed().as_secs_f64();
        // The engine's only read is the maintained aggregate.
        for _ in 0..READ_GROUPS {
            let t = Instant::now();
            for _ in 0..READS_PER_GROUP {
                black_box(e.result());
            }
            read_ns.push(nanos(t));
        }
        let (mut checks, mut failed) = self.verify(&e);
        if self.scale == Scale::Check {
            // Classical and heavy/light agree on the shared list.
            let flat = self.flat(&mut Recorder::new("check"));
            let mut classical = flat.engine();
            flat.replay(&mut classical);
            checks += 1;
            failed += u64::from(flat.root_scalars(&classical) != [*e.total() as f64]);
        }
        Round {
            secs,
            applies: self.edges.len() as u64,
            reads: (READ_GROUPS * READS_PER_GROUP) as u64,
            checks,
            failed,
            ..Round::default()
        }
    }

    fn traced(&mut self, rec: &mut Recorder, seconds: f64, out: &mut Layers) -> Round {
        let round = rec.id("round", false);
        let apply = rec.id("engine.heavylight.apply_update", true);
        let (mut checks, mut failed) = (0, 0);
        let (pairs, overhead_pct) = probes::tracing_overhead(seconds, |traced| {
            if !traced {
                return self.bulk_round().secs;
            }
            rec.round += 1;
            let mut e = self.engine();
            rec.enter(round);
            let t = Instant::now();
            for (rel, tu, p) in &self.edges {
                rec.enter(apply);
                e.apply_update(*rel, tu, *p);
                rec.exit();
            }
            let secs = t.elapsed().as_secs_f64();
            rec.exit();
            let (c, f) = self.verify(&e);
            checks += c;
            failed += f;
            secs
        });
        out.put("trace.overhead_pct", overhead_pct, "%");
        let flat = self.flat(rec);
        let replay = probes::layers(&flat, rec, seconds, &self.scratch, out);
        checks += 1;
        failed += u64::from(flat.root_scalars(&replay.engine) != [self.expected as f64]);
        Round {
            applies: replay.applies + (self.edges.len() * pairs * 2) as u64,
            checks,
            failed,
            ..Round::default()
        }
    }
}

// ---------------------------------------------------------------------
// chain_rank1_factored: rank-1 updates to A₂ as factored deltas
// ---------------------------------------------------------------------

struct ChainW {
    seed: u64,
    sz: Sizes,
    scratch: PathBuf,
    engine: EngineChainIvm,
    state_bytes: u64,
    updates: Vec<(Vec<f64>, Vec<f64>)>,
    /// The harness's own dense copy of the chain, updated alongside.
    dense: Vec<Vec<f64>>,
    corrupt: bool,
    digest: u64,
}

impl ChainW {
    fn new(seed: u64, sz: Sizes, scratch: PathBuf, rec: &mut Recorder) -> Self {
        let n = sz.chain_n;
        let (dense, updates) = rec.span("data.generate", || {
            let dense = matrices::random_chain(3, n, 42 + seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(sub_seed(seed, 4));
            let updates = (0..sz.chain_updates)
                .map(|i| matrices::one_row_update(n, (i * 13) % n, &mut rng))
                .collect();
            (dense, updates)
        });
        let before = live_bytes();
        let engine = rec.span("linalg.engine_chain.new", || {
            built(|b| b.chain += 1);
            let mats = dense
                .iter()
                .map(|d| Matrix::from_fn(n, n, |i, j| d[i * n + j]));
            EngineChainIvm::new(mats.collect())
        });
        ChainW {
            seed,
            sz,
            scratch,
            engine,
            state_bytes: heap_since(before),
            updates,
            dense,
            corrupt: false,
            digest: 0,
        }
    }

    /// Apply every update once; with `per_call`, time each call.
    fn pass(&mut self, mut per_call: Option<&mut Vec<u32>>) -> f64 {
        let start = Instant::now();
        for (u, v) in &self.updates {
            let t = Instant::now();
            self.engine.apply_rank1(1, u, v);
            if let Some(ns) = per_call.as_deref_mut() {
                ns.push(nanos(t));
            }
        }
        let secs = start.elapsed().as_secs_f64();
        self.mirror();
        secs
    }

    /// Account for one pass over the updates: the construction counter,
    /// and the harness's own dense copy of A₂.
    fn mirror(&mut self) {
        built(|b| b.factored_deltas += self.updates.len() as u64);
        for (u, v) in &self.updates {
            oracle::add_outer(&mut self.dense[1], u, v);
        }
    }

    /// `product()` against the dense product of the updated matrices.
    fn verify(&self) -> (u64, u64) {
        let n = self.sz.chain_n;
        let mut want = oracle::matmul(
            &oracle::matmul(&self.dense[0], &self.dense[1], n),
            &self.dense[2],
            n,
        );
        if self.corrupt {
            want[0] += 1.0;
        }
        let got = self.engine.product();
        (1, u64::from(oracle::max_rel_err(got.data(), &want) > 1e-9))
    }

    fn round(&mut self, per_call: Option<&mut Vec<u32>>) -> Round {
        let secs = self.pass(per_call);
        let (checks, failed) = self.verify();
        Round {
            secs,
            state_bytes: self.state_bytes,
            applies: self.updates.len() as u64,
            checks,
            failed,
            ..Round::default()
        }
    }
}

impl Workload for ChainW {
    fn stream_tuples(&self) -> u64 {
        self.updates.len() as u64
    }

    /// The dense matrices never grow: three `n × n` listings.
    fn live_tuples(&self) -> u64 {
        (3 * self.sz.chain_n * self.sz.chain_n) as u64
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn arm(&mut self, corrupt: bool) {
        self.corrupt = corrupt;
        let mut h = Fnv::new();
        self.dense.iter().flatten().for_each(|&x| h.f64(x));
        for (u, v) in &self.updates {
            h.u64(1);
            u.iter().chain(v).for_each(|&x| h.f64(x));
        }
        self.digest = h.finish();
    }

    /// The engine set-up built is reused: rank-1 updates to dense
    /// matrices leave the state's size unchanged, and rebuilding the
    /// chain costs more than a round.
    fn bulk_round(&mut self) -> Round {
        self.round(None)
    }

    fn latency_round(&mut self, apply_ns: &mut Vec<u32>, read_ns: &mut Vec<u32>) -> Round {
        let mut r = self.round(Some(apply_ns));
        // One read is one `product()`: the whole result matrix.
        let groups = 50;
        for _ in 0..groups {
            let t = Instant::now();
            black_box(self.engine.product());
            read_ns.push(nanos(t));
        }
        r.reads = groups;
        r
    }

    fn traced(&mut self, rec: &mut Recorder, seconds: f64, out: &mut Layers) -> Round {
        let round = rec.id("round", false);
        let apply = rec.id("linalg.engine_chain.apply_rank1", true);
        let (pairs, overhead_pct) = probes::tracing_overhead(seconds, |traced| {
            if !traced {
                return self.pass(None);
            }
            rec.round += 1;
            rec.enter(round);
            let t = Instant::now();
            for (u, v) in &self.updates {
                rec.enter(apply);
                self.engine.apply_rank1(1, u, v);
                rec.exit();
            }
            let secs = t.elapsed().as_secs_f64();
            rec.exit();
            self.mirror();
            secs
        });
        out.put("trace.overhead_pct", overhead_pct, "%");
        let (checks, failed) = self.verify();

        out.extra(
            "linalg.engine_chain.new_ms",
            rec.agg("linalg.engine_chain.new").mean_ns() / 1e6,
            "ms",
        );
        out.extra(
            "linalg.engine_chain.apply_rank1_us",
            rec.agg("linalg.engine_chain.apply_rank1").mean_ns() / 1e3,
            "us",
        );
        rec.span("linalg.engine_chain.product", || {
            drop(black_box(self.engine.product()))
        });
        out.extra(
            "linalg.engine_chain.product_ms",
            rec.agg("linalg.engine_chain.product").mean_ns() / 1e6,
            "ms",
        );
        // The same update multiplied out into its listing form, on a
        // 1-in-50 subsample (it is orders of magnitude slower).
        let few = &self.updates[..(self.updates.len() / 50).max(1)];
        let engine = &mut self.engine;
        let ratio = {
            let engine = std::cell::RefCell::new(engine);
            crate::stats::abab(
                3,
                || {
                    let t = Instant::now();
                    for (u, v) in few {
                        engine.borrow_mut().apply_rank1_flat(1, u, v);
                    }
                    t.elapsed().as_secs_f64()
                },
                || {
                    let t = Instant::now();
                    for (u, v) in few {
                        engine.borrow_mut().apply_rank1(1, u, v);
                    }
                    t.elapsed().as_secs_f64()
                },
            )
        };
        out.extra(
            "linalg.engine_chain.flat_over_factored",
            ratio.ratio.median,
            "ratio",
        );

        let flat = chain_flat(self.seed, self.sz.chain_flat_n, rec);
        let replay = probes::layers(&flat, rec, seconds, &self.scratch, out);
        Round {
            applies: replay.applies + (self.updates.len() * pairs * 2) as u64,
            checks,
            failed,
            ..Round::default()
        }
    }
}

// ---------------------------------------------------------------------
// housing_durable_served: the housing stream through DurableEngine,
// publishing epochs to a subscriber and one reader thread
// ---------------------------------------------------------------------

struct DurableW {
    flat: Flat<f64>,
    sz: Sizes,
    scratch: PathBuf,
    /// Root value after `k · publish_every` updates, from the oracle.
    at_epoch: Vec<f64>,
    digest: u64,
    reads: Option<ReadSet>,
}

/// What the reader thread saw.
#[derive(Default)]
struct Seen {
    reads: u64,
    group_ns: Vec<u32>,
    checks: u64,
    failed: u64,
}

impl DurableW {
    fn new(seed: u64, sz: Sizes, scratch: PathBuf, rec: &mut Recorder) -> Self {
        let flat = housing_flat(seed, &sz, rec);
        drop(rec.span("engine.executor.new", || flat.engine()));
        DurableW {
            flat,
            sz,
            scratch,
            at_epoch: Vec::new(),
            digest: 0,
            reads: None,
        }
    }

    /// The stated flush policy: group commit, `fsync` at checkpoints
    /// only, a checkpoint every `checkpoint_every` updates.
    fn config(&self, checkpoint_every: u64) -> DurabilityConfig {
        DurabilityConfig {
            checkpoint_every,
            sync: SyncPolicy::OnCheckpoint,
            ..DurabilityConfig::default()
        }
    }

    /// One served round: a fresh `DurableEngine` in a fresh directory,
    /// a root subscriber, one reader thread, the whole stream applied
    /// with a publish every `publish_every` updates. With `recover`,
    /// the round ends (untimed) with a clean stop, a recovery and a
    /// comparison of every recovered view with the live one.
    fn round(
        &mut self,
        mut timing: Timing,
        read_ns: Option<&mut Vec<u32>>,
        recover: bool,
    ) -> Round {
        let dir = probes::scratch_dir(&self.scratch, "served");
        let every = self.sz.checkpoint_every;
        // Traced rounds cut their checkpoints from here, as spans, at
        // the cadence `apply` would have cut them itself.
        let traced = matches!(timing, Timing::Spans(..));
        let cfg = self.config(if traced { 0 } else { every });
        let before = live_bytes();
        built(|b| b.durable += 1);
        let mut d = DurableEngine::create(&dir, self.flat.engine(), cfg.clone())
            .expect("durable engine in scratch");
        let root = d.engine().tree().root;
        let sub = d.subscribe(root).expect("the root view is materialized");
        let reader = d.reader();
        let reads = self.reads.as_ref().expect("armed");
        let stop = AtomicBool::new(false);
        let publish_every = self.sz.publish_every;
        let at_epoch = &self.at_epoch;
        let (secs, seen) = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                // At most this many group latencies are kept per round;
                // the reader keeps reading beyond that.
                let mut seen = Seen {
                    group_ns: Vec::with_capacity(1 << 19),
                    ..Seen::default()
                };
                let mut last_epoch = 0;
                let mut k = 0;
                // Relaxed: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    let snap = reader.pin();
                    for _ in 0..READS_PER_GROUP {
                        k = (k + 1) % reads.keys.len();
                        black_box(snap.get(reads.node, &reads.keys[k]));
                    }
                    black_box(sub.drain());
                    let ns = nanos(t);
                    seen.reads += READS_PER_GROUP as u64;
                    if seen.group_ns.len() < seen.group_ns.capacity() {
                        seen.group_ns.push(ns);
                    }
                    if snap.epoch() != last_epoch {
                        // A new epoch: it must not be older, and its
                        // root must be the oracle's value at its LSN.
                        let want = at_epoch.get(snap.lsn() as usize / publish_every);
                        let got = snap.get(root, &Tuple::unit()).copied().unwrap_or(0.0);
                        seen.checks += 2;
                        seen.failed += u64::from(snap.epoch() < last_epoch);
                        seen.failed += u64::from(!want.is_some_and(|w| oracle::close(got, *w)));
                        last_epoch = snap.epoch();
                    }
                }
                seen
            });
            let start = Instant::now();
            timing.enter("round");
            for (i, (rel, dl)) in self.flat.updates.iter().enumerate() {
                match &mut timing {
                    Timing::Bulk => d.apply(*rel, dl).expect("logged apply"),
                    Timing::PerCall(ns) => {
                        let t = Instant::now();
                        d.apply(*rel, dl).expect("logged apply");
                        ns.push(nanos(t));
                    }
                    Timing::Spans(r, apply) => {
                        r.enter(*apply);
                        d.apply(*rel, dl).expect("logged apply");
                        r.exit();
                    }
                }
                if (i + 1) % publish_every == 0 {
                    timing.enter("durability.engine.publish");
                    d.publish();
                    timing.exit();
                }
                if traced && (i as u64 + 1).is_multiple_of(every) {
                    timing.enter("durability.engine.checkpoint");
                    d.checkpoint().expect("checkpoint");
                    timing.exit();
                }
            }
            let secs = start.elapsed().as_secs_f64();
            timing.exit();
            // Relaxed: see the reader's load.
            stop.store(true, Ordering::Relaxed);
            (secs, handle.join().expect("reader thread panicked"))
        });
        drop(sub);
        let state_bytes = heap_since(before);
        if let Some(out) = read_ns {
            out.extend_from_slice(&seen.group_ns);
        }

        // Untimed: the final root against the oracle, then recovery.
        let want_root = self.at_epoch.last().copied().unwrap_or(0.0);
        let got_root = self.flat.root_scalars(d.engine())[0];
        let mut checks = seen.checks + 1;
        let mut failed = seen.failed + u64::from(!oracle::close(got_root, want_root));
        if recover {
            let (c, f) = self.recover_and_compare(d, &dir, cfg);
            checks += c;
            failed += f;
        } else {
            drop(d);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Round {
            secs,
            state_bytes,
            applies: self.flat.updates.len() as u64,
            reads: seen.reads,
            checks,
            failed,
        }
    }

    /// A clean stop and a recovery: every recovered view must equal the
    /// live one, and recovery must have replayed exactly the updates
    /// after the last checkpoint.
    fn recover_and_compare(
        &self,
        mut d: DurableEngine<f64>,
        dir: &Path,
        cfg: DurabilityConfig,
    ) -> (u64, u64) {
        let views = |d: &DurableEngine<f64>| -> Vec<Relation<f64>> {
            let e = d.engine();
            let nodes = e.materialized_nodes().into_iter();
            nodes
                .map(|n| e.view_relation(n).expect("materialized"))
                .collect()
        };
        let same = |a: &Relation<f64>, b: &Relation<f64>| {
            a.len() == b.len()
                && a.iter()
                    .all(|(t, p)| b.get(t).is_some_and(|q| oracle::close(*q, *p)))
        };
        let live = views(&d);
        d.sync_all().expect("sync");
        let tail = self.flat.updates.len() as u64 - d.last_checkpoint_lsn();
        drop(d);
        built(|b| b.durable += 1);
        let (recovered, report) =
            DurableEngine::open(dir, self.flat.engine(), cfg).expect("recovery");
        let back = views(&recovered);
        let views_differ =
            back.len() != live.len() || !back.iter().zip(&live).all(|(a, b)| same(a, b));
        (
            2,
            u64::from(views_differ) + u64::from(report.replayed_updates != tail),
        )
    }
}

/// How a served round is timed: as a whole, per apply call, or as spans.
enum Timing<'a> {
    Bulk,
    PerCall(&'a mut Vec<u32>),
    /// The recorder and the id of the per-apply span.
    Spans(&'a mut Recorder, SpanId),
}

impl Timing<'_> {
    /// Open a span when the round records spans; nothing otherwise.
    fn enter(&mut self, name: &'static str) {
        if let Timing::Spans(r, _) = self {
            let id = r.id(name, false);
            r.enter(id);
        }
    }

    fn exit(&mut self) {
        if let Timing::Spans(r, _) = self {
            r.exit();
        }
    }
}

impl Workload for DurableW {
    fn stream_tuples(&self) -> u64 {
        self.flat.tuples
    }

    fn live_tuples(&self) -> u64 {
        self.flat.tuples
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn arm(&mut self, corrupt: bool) {
        self.digest = self.flat.digest();
        // The root value at every publish boundary and at the end.
        let mut o = oracle::HousingSum::default();
        let mut at_epoch = vec![0.0];
        let mut seen = 0;
        let every = self.sz.publish_every;
        self.flat.visit(|rel, row, _| {
            o.insert(rel, row[0] as i64);
            seen += 1;
            if seen % every == 0 {
                at_epoch.push(o.sum());
            }
        });
        // The final value rides at the end for the recovery check; epoch
        // lookups never reach it unless the stream ends on a boundary,
        // where both are the same number.
        at_epoch.push(o.sum() + f64::from(u8::from(corrupt)));
        self.at_epoch = at_epoch;
        self.reads = Some(pick_reads(&self.flat));
    }

    fn bulk_round(&mut self) -> Round {
        self.round(Timing::Bulk, None, true)
    }

    fn latency_round(&mut self, apply_ns: &mut Vec<u32>, read_ns: &mut Vec<u32>) -> Round {
        self.round(Timing::PerCall(apply_ns), Some(read_ns), false)
    }

    fn traced(&mut self, rec: &mut Recorder, seconds: f64, out: &mut Layers) -> Round {
        let mut total = Round::default();
        let (_, overhead_pct) = probes::tracing_overhead(seconds, |traced| {
            let timing = if traced {
                rec.round += 1;
                let apply = rec.id("durability.engine.apply", true);
                Timing::Spans(rec, apply)
            } else {
                Timing::Bulk
            };
            let r = self.round(timing, None, !traced);
            total.applies += r.applies;
            total.reads += r.reads;
            total.checks += r.checks;
            total.failed += r.failed;
            r.secs
        });
        out.put("trace.overhead_pct", overhead_pct, "%");
        for (name, span) in [
            ("durability.served.apply_ns", "durability.engine.apply"),
            ("durability.served.publish_ns", "durability.engine.publish"),
            (
                "durability.served.checkpoint_ns",
                "durability.engine.checkpoint",
            ),
        ] {
            out.extra(name, rec.agg(span).mean_ns(), "ns");
        }
        let replay = probes::layers(&self.flat, rec, seconds, &self.scratch, out);
        total.applies += replay.applies;
        total
    }
}
