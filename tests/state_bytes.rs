//! Memory guard: heap held per live edge by the classical triangle
//! count with indicator projections, measured by a byte-counting global
//! allocator the way the benchmark's `state_bytes_per_tuple` is.
//!
//! The input is `triangle_count_churn`'s at full size: a Zipf(1.0)
//! edge stream of 45 000 edges over 4 500 nodes inserted round-robin
//! into R, S and T, then every third edge of each relation deleted.
//! The bound is on the growth of live heap bytes across "build the
//! engine and apply the stream", divided by the edges still live. This
//! file holds exactly one test so no concurrent test pollutes the
//! counter.

use fivm::data::twitter::{self, ZipfTwitterConfig};
use fivm::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes per live edge may not exceed this. Measured at 255.6 B
/// on x86-64: entry-id secondary indexes, three more of them for the
/// swapped sibling orders (R by A, R by B, T by A), and the full-key
/// indicator ∃R(A,B) read from R's leaf store instead of a store of its
/// own. Keeping that store would read about 296 B and fail here; the
/// layout before entry-id indexes, which copied each indexed key into
/// its bucket and kept support counts for full-key indicators, held
/// 515.0 B.
const MAX_BYTES_PER_EDGE: f64 = 270.0;

#[test]
fn triangle_churn_state_bytes_per_live_edge() {
    let tw = twitter::generate_zipf(&ZipfTwitterConfig {
        edges: 45_000,
        nodes: 4_500,
        exponent: 1.0,
        // The benchmark's derived seed for its default `--seed 11`.
        seed: 0x812e_6299_272e_6df0,
    });
    let q = tw.query.clone();
    let mut tree = ViewTree::build(&q, &tw.order);
    add_indicators(&mut tree, &q);

    let mut edges: Vec<(usize, Tuple, i64)> = tw
        .stream(1)
        .iter()
        .flat_map(|b| b.tuples.iter().map(|t| (b.relation, t.clone(), 1)))
        .collect();
    // Positions 9k, 9k+1, 9k+2 of the round-robin list hold the 3k-th
    // edge of R, S and T.
    let deletes: Vec<(usize, Tuple, i64)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| (i / 3) % 3 == 0)
        .map(|(_, (rel, t, _))| (*rel, t.clone(), -1))
        .collect();
    edges.extend(deletes);

    let mut mult: HashMap<(usize, Tuple), i64> = HashMap::new();
    for (rel, t, p) in &edges {
        *mult.entry((*rel, t.clone())).or_insert(0) += p;
    }
    let live = mult.values().filter(|&&m| m != 0).count();
    let updates: Vec<(usize, Delta<i64>)> = edges
        .iter()
        .map(|(rel, t, p)| {
            let schema = q.relations[*rel].schema.clone();
            (
                *rel,
                Delta::Flat(Relation::from_pairs(schema, [(t.clone(), *p)])),
            )
        })
        .collect();
    drop(mult);
    drop(edges);

    let before = LIVE.load(Ordering::SeqCst);
    let mut engine: IvmEngine<i64> = IvmEngine::new(q.clone(), tree, &[0, 1, 2], LiftingMap::new());
    for (rel, d) in &updates {
        engine.apply(*rel, d);
    }
    let grown = LIVE.load(Ordering::SeqCst) - before;
    let per_edge = grown as f64 / live as f64;
    eprintln!("{grown} heap bytes for {live} live edges: {per_edge:.1} B per edge");
    assert!(
        per_edge <= MAX_BYTES_PER_EDGE,
        "{per_edge:.1} B per live edge exceeds {MAX_BYTES_PER_EDGE} ({grown} B, {live} edges)"
    );
    assert!(!engine.result().is_empty(), "the stream closes triangles");
}
