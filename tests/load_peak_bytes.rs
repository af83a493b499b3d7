//! Memory guard for bulk loads: building the relational matrix-chain
//! engine must not allocate much more than it keeps.
//!
//! `EngineChainIvm::new` loads a random `n × n` 3-chain and evaluates
//! every view bottom-up. A load that materializes each node's join
//! before summing it down holds an `n³`-tuple intermediate per product
//! view against `n²` retained state, so its peak-to-retained ratio grows
//! with `n`. The streaming join-aggregate keeps only the views and one
//! index per child, so the ratio stays flat. A byte-counting global
//! allocator (as in `tests/state_bytes.rs`) tracks live and peak heap
//! bytes; the input matrices are built before the baseline is taken.
//! This file holds exactly one test so no concurrent test pollutes the
//! counters.

use fivm::data::matrices;
use fivm::linalg::{EngineChainIvm, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
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

/// Peak heap growth during `EngineChainIvm::new` divided by the growth
/// it retains, for a random `n × n` 3-chain.
fn peak_to_retained(n: usize) -> f64 {
    let mats: Vec<Matrix> = matrices::random_chain(3, n, 11)
        .iter()
        .map(|m| Matrix::from_fn(n, n, |i, j| m[i * n + j]))
        .collect();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let chain = EngineChainIvm::new(mats);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    let retained = LIVE.load(Ordering::SeqCst) - before;
    assert!(chain.product().rows() == n, "the chain product is n × n");
    let ratio = peak as f64 / retained as f64;
    eprintln!("n = {n}: peak {peak} B, retained {retained} B, ratio {ratio:.2}");
    ratio
}

/// Peak over retained heap may not exceed this at either size. Measured
/// on x86-64 with the streaming join-aggregate: 2.14 at n = 32 and 2.02
/// at n = 64. Materializing each node's join before marginalizing it
/// read 9.73 and 17.24.
const MAX_RATIO: f64 = 3.0;

#[test]
fn chain_load_peak_stays_within_3x_retained() {
    let small = peak_to_retained(32);
    let large = peak_to_retained(64);
    assert!(
        small <= MAX_RATIO && large <= MAX_RATIO,
        "peak/retained {small:.2} (n = 32), {large:.2} (n = 64) exceeds {MAX_RATIO}"
    );
    assert!(
        (small - large).abs() <= 0.5,
        "peak/retained grows with n: {small:.2} (n = 32) vs {large:.2} (n = 64)"
    );
}
