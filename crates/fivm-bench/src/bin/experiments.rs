//! Regenerates every table and figure of the paper’s evaluation (§7 +
//! Appendix C) and prints paper-style rows. Reproducible numbers, with
//! their host and run-to-run spread, come from the `benchmark/` program
//! (see `benchmark/README.md`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fivm-bench --bin experiments            # all, small scale
//! cargo run --release -p fivm-bench --bin experiments -- fig6    # one experiment
//! FIVM_SCALE=medium cargo run --release -p fivm-bench --bin experiments
//! ```
//!
//! Scales: `small` (default, ≈1 min total), `medium` (≈10 min). The
//! paper’s absolute scale (84 M-row Retailer, n = 16384 matrices, 1 h
//! timeouts) is not reproducible on a laptop; only the *shapes* — which
//! strategy wins, and how the gaps grow with scale — are meant to carry
//! over.

use fivm_bench::*;
use fivm_core::ring::cofactor::Cofactor;
use fivm_core::ring::relational::RelPayload;
use fivm_core::{Lifting, LiftingMap, Schema, Semiring, Value};
use fivm_data::{
    housing, matrices, retailer, twitter, HousingConfig, RetailerConfig, TwitterConfig,
};
use fivm_engine::enumerate::{factorized_preprojection, factorized_transform};
use fivm_engine::memory::format_bytes;
use fivm_linalg::{DenseChainIvm, FirstOrderChain, Matrix, ReEvalChain};
use fivm_ml::CofactorSpec;
use fivm_query::{QueryDef, ViewTree};
use std::time::{Duration, Instant};

struct Scale {
    matrix_dims: Vec<usize>,
    rank_n: usize,
    ranks: Vec<usize>,
    retailer: RetailerConfig,
    housing_postcodes: usize,
    housing_scales: Vec<usize>,
    twitter: TwitterConfig,
    batch_sizes: Vec<usize>,
    timeout: Duration,
    scalar_fleet_cap: usize,
}

fn scale() -> Scale {
    let name = std::env::var("FIVM_SCALE").unwrap_or_else(|_| "small".into());
    match name.as_str() {
        "medium" => Scale {
            matrix_dims: vec![64, 128, 256, 512],
            rank_n: 512,
            ranks: vec![1, 2, 4, 8, 16, 32, 64, 128],
            retailer: RetailerConfig {
                inventory_rows: 60_000,
                locations: 50,
                dates: 200,
                items: 1_000,
                zips: 40,
                ..Default::default()
            },
            housing_postcodes: 2_000,
            housing_scales: vec![1, 2, 4, 8, 12, 16, 20],
            twitter: TwitterConfig {
                edges: 60_000,
                nodes: 9_000,
                ..Default::default()
            },
            batch_sizes: vec![100, 1_000, 10_000, 100_000],
            timeout: Duration::from_secs(120),
            scalar_fleet_cap: 990,
        },
        _ => Scale {
            matrix_dims: vec![32, 64, 128, 256],
            rank_n: 256,
            ranks: vec![1, 2, 4, 8, 16, 32, 64],
            retailer: RetailerConfig::default(),
            housing_postcodes: 400,
            housing_scales: vec![1, 2, 4, 8],
            twitter: TwitterConfig::default(),
            batch_sizes: vec![100, 1_000, 10_000],
            timeout: Duration::from_secs(25),
            scalar_fleet_cap: 45, // cap the per-aggregate fleets (see note)
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    let s = scale();
    println!(
        "F-IVM experiment harness (scale: {})\n",
        std::env::var("FIVM_SCALE").unwrap_or_else(|_| "small".into())
    );
    if want("fig6") {
        fig6_left(&s);
        fig6_right(&s);
    }
    if want("fig7") {
        fig7(&s);
    }
    if want("fig8") {
        fig8(&s);
    }
    if want("fig11") {
        fig11(&s);
    }
    if want("fig12") {
        fig12(&s);
    }
    if want("fig13") {
        fig13(&s);
    }
    if want("views") {
        view_counts();
    }
}

/// `--smoke`: the update-propagation hot paths, reported as one
/// machine-readable JSON line so PRs can track a throughput trajectory
/// (`BENCH_*.json`):
///
/// * single-tuple updates of Figure 11 (SUM over the Housing star
///   join) and Figure 13 (count over the Twitter triangle with
///   indicators), one tuple per `IvmEngine::apply`;
/// * the Figure 12 batch-size sweep as **flat batches** (1k–100k
///   tuples per `apply`) over Housing and Retailer SUM maintenance,
///   once through the compiled flat-batch fast path and once with the
///   fast path disabled (`set_fast_path(false)`), so the
///   `…_fast`/`…_general` pairs record the batch path's speedup;
/// * **string-keyed variants** (`fig11_string…`, `fig12_string…`,
///   `fig13_string…`): the same shapes with interned-string join keys
///   (string postcodes / Twitter handles), plus the `foil_…` entries
///   from [`fivm_bench::foil`] — the identical probe/merge sequence
///   run once with `u32` symbols and once with content-hashed
///   `Arc<str>` keys (the pre-interning `Value` representation), so
///   `foil_…_speedup_sym_over_arcstr` isolates what interning buys.
fn smoke() {
    // Deltas are pre-built outside the timed loops so the report tracks
    // `IvmEngine::apply` itself — the propagation hot path — rather
    // than per-tuple delta-construction harness overhead.
    fn single_tuple_deltas<R: fivm_core::Ring>(
        q: &QueryDef,
        batches: &[fivm_data::Batch],
    ) -> Vec<(usize, fivm_core::Delta<R>)> {
        batches
            .iter()
            .flat_map(|b| {
                b.tuples.iter().map(|t| {
                    (
                        b.relation,
                        ones_delta::<R>(
                            q.relations[b.relation].schema.clone(),
                            std::slice::from_ref(t),
                        ),
                    )
                })
            })
            .collect()
    }

    fn best_throughput<R: fivm_core::Ring>(
        mut mk_engine: impl FnMut() -> fivm_engine::IvmEngine<R>,
        updates: &[(usize, fivm_core::Delta<R>)],
    ) -> f64 {
        (0..3)
            .map(|_| {
                let mut engine = mk_engine();
                let start = Instant::now();
                for (rel, d) in updates {
                    engine.apply(*rel, d);
                }
                updates.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
            })
            .fold(0.0f64, f64::max)
    }

    // fig11 path: SUM(postcode) over the Housing star join.
    let h = housing::generate(&HousingConfig {
        postcodes: 20_000,
        scale: 1,
        ..Default::default()
    });
    let hq = h.query.clone();
    let htree = ViewTree::build(&hq, &h.order);
    let hall: Vec<usize> = (0..hq.relations.len()).collect();
    let mut hlifts = LiftingMap::<f64>::new();
    hlifts.set(
        hq.catalog.lookup("postcode").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );
    let hupdates = single_tuple_deltas::<f64>(&hq, &h.stream(1));
    let htput = best_throughput(
        || fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone()),
        &hupdates,
    );

    // fig13 path: COUNT over the Twitter triangle, with indicators.
    let t = twitter::generate(&TwitterConfig {
        edges: 60_000,
        nodes: 6_000,
        ..Default::default()
    });
    let tq = t.query.clone();
    let mut ttree = ViewTree::build(&tq, &t.order);
    fivm_query::add_indicators(&mut ttree, &tq);
    let tupdates = single_tuple_deltas::<i64>(&tq, &t.stream(1));
    let ttput = best_throughput(
        || fivm_engine::IvmEngine::new(tq.clone(), ttree.clone(), &[0, 1, 2], LiftingMap::new()),
        &tupdates,
    );

    // Heavy/light crossover (fig13_hl): COUNT over the triangle on
    // Zipf(s)-skewed Twitter streams, classical indicator-projected
    // engine vs the IVM^ε partitioned engine (`TriangleHlEngine`).
    // The classical path pays O(deg) per single-tuple update on hub
    // keys while the partitioned path bounds every update by O(N^ε)
    // via heavy/light routing — so uniform streams (s = 0) favor
    // classical (partition bookkeeping is pure overhead) and strongly
    // skewed streams favor the partitioned path. The sweep records
    // both sides of that crossover; final triangle counts are asserted
    // equal at every point, and the partitioned engine must be ≥ 2x
    // classical at the heavy end (machine-independent ratio).
    let hl_crossover = {
        use fivm_data::twitter::ZipfTwitterConfig;
        use fivm_engine::{HlConfig, TriangleHlEngine};
        let mut out = String::new();
        let mut heavy_speedup = 0.0f64;
        for (label, s_exp) in [("s00", 0.0), ("s10", 1.0), ("s15", 1.5)] {
            let tz = twitter::generate_zipf(&ZipfTwitterConfig {
                edges: 30_000,
                nodes: 3_000,
                exponent: s_exp,
                seed: 0x7717,
            });
            let zq = tz.query.clone();
            let mut ztree = ViewTree::build(&zq, &tz.order);
            fivm_query::add_indicators(&mut ztree, &zq);
            let zupdates = single_tuple_deltas::<i64>(&zq, &tz.stream(1));
            let classical_tput = best_throughput(
                || {
                    fivm_engine::IvmEngine::new(
                        zq.clone(),
                        ztree.clone(),
                        &[0, 1, 2],
                        LiftingMap::new(),
                    )
                },
                &zupdates,
            );
            let flat: Vec<(usize, fivm_core::Tuple)> = tz
                .stream(1)
                .iter()
                .flat_map(|b| b.tuples.iter().map(|tu| (b.relation, tu.clone())))
                .collect();
            let mut hl_total = 0i64;
            let hl_tput = (0..3)
                .map(|_| {
                    let mut e =
                        TriangleHlEngine::<i64>::new(zq.clone(), HlConfig::default()).unwrap();
                    let start = Instant::now();
                    for (rel, tu) in &flat {
                        e.apply_update(*rel, tu, 1);
                    }
                    let tput = flat.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
                    hl_total = *e.total();
                    tput
                })
                .fold(0.0f64, f64::max);
            // Same stream once more through a classical engine purely
            // for the equality check (outside any timed loop).
            let mut check = fivm_engine::IvmEngine::<i64>::new(
                zq.clone(),
                ztree.clone(),
                &[0, 1, 2],
                LiftingMap::new(),
            );
            for (rel, d) in &zupdates {
                check.apply(*rel, d);
            }
            assert_eq!(
                hl_total,
                check.result().payload(&fivm_core::Tuple::unit()),
                "partitioned and classical triangle counts diverge at s = {s_exp}"
            );
            let speedup = hl_tput / classical_tput.max(1e-9);
            if s_exp >= 1.5 {
                heavy_speedup = speedup;
            }
            out.push_str(&format!(
                ",\"fig13_hl_classical_{label}\":{classical_tput:.0},\
                 \"fig13_hl_partitioned_{label}\":{hl_tput:.0},\
                 \"fig13_hl_speedup_{label}\":{speedup:.2}"
            ));
        }
        assert!(
            heavy_speedup >= 2.0,
            "partitioned engine only {heavy_speedup:.2}x classical at the heavy end \
             (the crossover requires >= 2x)"
        );
        out
    };

    // fig11 string variant: the same star-join shape with the shared
    // join key `postcode` as an interned string ("PC000042"), SUM over
    // the numeric `price` column. Symbols are interned at load (delta
    // construction); the timed loop ships 4-byte ids.
    //
    // `fig11_control_sum_price` is the representation-isolated control:
    // the *integer*-postcode instance of the identical generator config
    // with the identical SUM(price) lifting, so
    // fig11_string_sum_star / fig11_control_sum_price compares string
    // keys vs integer keys with everything else equal (the headline
    // fig11_sum_star lifts `postcode` itself, a different view-tree
    // position for the lift).
    let hc = housing::generate(&HousingConfig {
        postcodes: 20_000,
        scale: 1,
        ..Default::default()
    });
    let hcq = hc.query.clone();
    let hctree = ViewTree::build(&hcq, &hc.order);
    let hcall: Vec<usize> = (0..hcq.relations.len()).collect();
    let mut hclifts = LiftingMap::<f64>::new();
    hclifts.set(
        hcq.catalog.lookup("price").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );
    let hcupdates = single_tuple_deltas::<f64>(&hcq, &hc.stream(1));
    let hctput = best_throughput(
        || fivm_engine::IvmEngine::new(hcq.clone(), hctree.clone(), &hcall, hclifts.clone()),
        &hcupdates,
    );

    let hs = housing::generate_string_postcodes(&HousingConfig {
        postcodes: 20_000,
        scale: 1,
        ..Default::default()
    });
    let hsq = hs.query.clone();
    let hstree = ViewTree::build(&hsq, &hs.order);
    let hsall: Vec<usize> = (0..hsq.relations.len()).collect();
    let mut hslifts = LiftingMap::<f64>::new();
    hslifts.set(
        hsq.catalog.lookup("price").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );
    let hsupdates = single_tuple_deltas::<f64>(&hsq, &hs.stream(1));
    let hstput = best_throughput(
        || fivm_engine::IvmEngine::new(hsq.clone(), hstree.clone(), &hsall, hslifts.clone()),
        &hsupdates,
    );

    // fig13 string variant: the triangle over Twitter *handles*
    // ("@user004217") — every key column an interned string.
    let th = twitter::generate_handles(&TwitterConfig {
        edges: 60_000,
        nodes: 6_000,
        ..Default::default()
    });
    let thq = th.query.clone();
    let mut thtree = ViewTree::build(&thq, &th.order);
    fivm_query::add_indicators(&mut thtree, &thq);
    let thupdates = single_tuple_deltas::<i64>(&thq, &th.stream(1));
    let thtput = best_throughput(
        || fivm_engine::IvmEngine::new(thq.clone(), thtree.clone(), &[0, 1, 2], LiftingMap::new()),
        &thupdates,
    );

    // The Arc<str> foil (fivm_bench::foil): the identical probe/merge
    // sequence over the same key pools, instantiated once with
    // interned u32 symbols and once with content-hashed Arc<str> keys
    // — the representation the engine shipped before interning. Two
    // working-set sizes: 20k keys (the fig11 shape, cache-resident)
    // and 100k (the fig12 batch shape, cache-pressured).
    use fivm_bench::foil::{shadow_throughput, ArcKey, SymKey};
    let mut foil = String::new();
    {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x70_1F);
        for (shape, nkeys, nupd) in [
            ("fig11", 20_000usize, 200_000usize),
            ("fig12", 100_000, 200_000),
        ] {
            let strings: Vec<String> = (0..nkeys).map(|i| format!("PC{i:06}")).collect();
            let sym_keys: Vec<SymKey> = (0..nkeys as u32).map(SymKey).collect();
            let arc_keys: Vec<ArcKey> = strings
                .iter()
                .map(|s| ArcKey(std::sync::Arc::from(s.as_str())))
                .collect();
            let updates: Vec<usize> = (0..nupd).map(|_| rng.gen_range(0..nkeys)).collect();
            let sym_tput = shadow_throughput(&sym_keys, &updates, 3);
            let arc_tput = shadow_throughput(&arc_keys, &updates, 3);
            foil.push_str(&format!(
                ",\"foil_{shape}_shape_sym\":{sym_tput:.0},\
                 \"foil_{shape}_shape_arcstr\":{arc_tput:.0},\
                 \"foil_{shape}_speedup_sym_over_arcstr\":{:.2}",
                sym_tput / arc_tput.max(1e-9)
            ));
        }
    }

    // fig12 path: the batch-size sweep as flat batches, fast path vs
    // general path (tuples/s; see the doc comment). Deltas are
    // pre-built outside the timed loop, like the single-tuple paths.
    fn batch_throughput(
        q: &QueryDef,
        tree: &ViewTree,
        all: &[usize],
        lifts: &LiftingMap<f64>,
        batches: &[fivm_data::Batch],
        fast: bool,
        workers: usize,
    ) -> f64 {
        let deltas: Vec<(usize, fivm_core::Delta<f64>)> = batches
            .iter()
            .map(|b| {
                (
                    b.relation,
                    ones_delta::<f64>(q.relations[b.relation].schema.clone(), &b.tuples),
                )
            })
            .collect();
        let total: usize = batches.iter().map(|b| b.tuples.len()).sum();
        (0..2)
            .map(|_| {
                let mut engine =
                    fivm_engine::IvmEngine::new(q.clone(), tree.clone(), all, lifts.clone());
                engine.set_fast_path(fast);
                engine.set_workers(workers);
                let start = Instant::now();
                for (rel, d) in &deltas {
                    engine.apply(*rel, d);
                }
                total as f64 / start.elapsed().as_secs_f64().max(1e-9)
            })
            .fold(0.0f64, f64::max)
    }
    let mut fig12 = String::new();

    // Housing: SUM(postcode), 375k-tuple stream (House/Shop/Restaurant
    // reach 100k rows each so the largest batch size is exercised).
    let hb = housing::generate(&HousingConfig {
        postcodes: 25_000,
        scale: 4,
        ..Default::default()
    });
    let hbq = hb.query.clone();
    let hbtree = ViewTree::build(&hbq, &hb.order);
    let hball: Vec<usize> = (0..hbq.relations.len()).collect();
    let mut hblifts = LiftingMap::<f64>::new();
    hblifts.set(
        hbq.catalog.lookup("postcode").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );

    // Retailer: SUM(inventoryunits), 120k-row fact table.
    let rb = retailer::generate(&RetailerConfig {
        inventory_rows: 120_000,
        locations: 50,
        dates: 200,
        items: 1_000,
        zips: 40,
        ..Default::default()
    });
    let rbq = rb.query.clone();
    let rbtree = ViewTree::build(&rbq, &rb.order);
    let rball: Vec<usize> = (0..rbq.relations.len()).collect();
    let mut rblifts = LiftingMap::<f64>::new();
    rblifts.set(
        rbq.catalog.lookup("inventoryunits").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );

    // String variant of the fig12 batch sweep: the same Housing shape
    // with string postcodes, SUM(price).
    let sb = housing::generate_string_postcodes(&HousingConfig {
        postcodes: 25_000,
        scale: 4,
        ..Default::default()
    });
    let sbq = sb.query.clone();
    let sbtree = ViewTree::build(&sbq, &sb.order);
    let sball: Vec<usize> = (0..sbq.relations.len()).collect();
    let mut sblifts = LiftingMap::<f64>::new();
    sblifts.set(
        sbq.catalog.lookup("price").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );

    for &bs in &[1_000usize, 10_000, 100_000] {
        for (name, q, tree, all, lifts, batches) in [
            ("housing", &hbq, &hbtree, &hball, &hblifts, hb.stream(bs)),
            ("retailer", &rbq, &rbtree, &rball, &rblifts, rb.stream(bs)),
        ] {
            for fast in [true, false] {
                let tput = batch_throughput(q, tree, all, lifts, &batches, fast, 1);
                fig12.push_str(&format!(
                    ",\"fig12_{name}_bs{bs}_{}\":{tput:.0}",
                    if fast { "fast" } else { "general" },
                ));
            }
        }
        let tput = batch_throughput(&sbq, &sbtree, &sball, &sblifts, &sb.stream(bs), true, 1);
        fig12.push_str(&format!(",\"fig12_string_bs{bs}_fast\":{tput:.0}"));
    }

    // Parallel-propagation sweep (PR 3): the same flat batches through
    // the fast path at 1/2/4/8 workers. The w1 entry is the sequential
    // fallback (the pool never engages at one worker), so
    // `…_fast_w1 / …_fast` is the fallback's overhead and
    // `…_fast_wN / …_fast_w1` the scaling — on a multi-core host;
    // single-core containers time-slice the workers and show dispatch
    // overhead instead.
    for &bs in &[10_000usize, 100_000] {
        for (name, q, tree, all, lifts, batches) in [
            ("housing", &hbq, &hbtree, &hball, &hblifts, hb.stream(bs)),
            ("retailer", &rbq, &rbtree, &rball, &rblifts, rb.stream(bs)),
        ] {
            for workers in [1usize, 2, 4, 8] {
                let tput = batch_throughput(q, tree, all, lifts, &batches, true, workers);
                fig12.push_str(&format!(
                    ",\"fig12_{name}_bs{bs}_fast_w{workers}\":{tput:.0}"
                ));
            }
        }
    }

    // fig6 path (PR 5 headline): rank-1 updates to A₂ of the n×n
    // 3-chain through the relational engine as **factored deltas**
    // (u[X2] ⊗ v[X3]) — compiled factored path vs the general factor
    // path — plus the flat foil (the same update multiplied out into
    // its n²-entry listing form through the flat fast path) and a
    // rank-8 sweep. One-row updates (sparse e_row u), the Figure 6
    // left workload; updates are pre-built, engines rebuilt per
    // repetition, best of 3.
    let fig6 = {
        use fivm_linalg::{EngineChainIvm, Matrix};
        use rand::SeedableRng;
        let n = 96usize;
        let chain: Vec<Matrix> = matrices::random_chain(3, n, 42)
            .iter()
            .map(|d| Matrix::from_fn(n, n, |i, j| d[i * n + j]))
            .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let rank1: Vec<(Vec<f64>, Vec<f64>)> = (0..120)
            .map(|i| matrices::one_row_update(n, (i * 13) % n, &mut rng))
            .collect();
        let run = |updates: &[(Vec<f64>, Vec<f64>)], fast: bool, flat: bool| -> f64 {
            (0..3)
                .map(|_| {
                    let mut m = EngineChainIvm::new(chain.clone());
                    m.set_fast_path(fast);
                    let start = Instant::now();
                    for (u, v) in updates {
                        if flat {
                            m.apply_rank1_flat(1, u, v);
                        } else {
                            m.apply_rank1(1, u, v);
                        }
                    }
                    updates.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
                })
                .fold(0.0f64, f64::max)
        };
        let fact_fast = run(&rank1, true, false);
        // Both foils are subsampled: they run 1–2 orders of magnitude
        // slower than the compiled path (that is the finding), and the
        // per-update rate is what the ratio needs — measuring all 120
        // updates through the general path would add ~2 min to every
        // CI smoke run for the same number.
        let fact_general = run(&rank1[..12], false, false);
        let flat_foil = run(&rank1[..30], true, true);
        let rank8 = matrices::rank_r_update(n, 8, &mut rng);
        let rank8_fast = (0..3)
            .map(|_| {
                let mut m = EngineChainIvm::new(chain.clone());
                let start = Instant::now();
                for _ in 0..4 {
                    m.apply_rank_r(1, &rank8);
                }
                32.0 / start.elapsed().as_secs_f64().max(1e-9)
            })
            .fold(0.0f64, f64::max);
        format!(
            ",\"fig6_n\":{n},\
             \"fig6_rank1_factored_fast\":{fact_fast:.0},\
             \"fig6_rank1_factored_general\":{fact_general:.0},\
             \"fig6_rank1_speedup_fast_over_general\":{:.2},\
             \"fig6_rank1_flat_foil\":{flat_foil:.0},\
             \"fig6_rank8_factored_fast\":{rank8_fast:.0}",
            fact_fast / fact_general.max(1e-9)
        )
    };

    // Durability (PR 6): the same pre-built fig11 updates through a
    // WAL-logged engine (group commit, no fsync per update — the
    // default config) vs the plain engine measured above; recovery
    // wall-time as a function of the log tail replayed; and a
    // checkpoint-interval sweep showing the logging-side and
    // recovery-side cost of checkpoint cadence. The <15% logging
    // overhead budget is asserted, not just recorded.
    let durability = {
        use fivm_durability::{DurabilityConfig, DurableEngine};
        use std::sync::atomic::{AtomicU64, Ordering};
        fn bench_dir(tag: &str) -> std::path::PathBuf {
            static N: AtomicU64 = AtomicU64::new(0);
            let d = std::env::temp_dir().join(format!(
                "fivm-bench-dur-{tag}-{}-{}",
                std::process::id(),
                // relaxed-ok: unique-id counter; no ordering needed.
                N.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&d);
            d
        }
        let manual = DurabilityConfig {
            checkpoint_every: 0,
            ..DurabilityConfig::default()
        };

        // Logging-overhead A/B, best of 3 on both sides (htput above).
        let logged_tput = (0..3)
            .map(|_| {
                let dir = bench_dir("ab");
                let engine =
                    fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
                let mut d = DurableEngine::create(&dir, engine, manual.clone()).unwrap();
                let start = Instant::now();
                for (rel, dl) in &hupdates {
                    d.apply(*rel, dl).unwrap();
                }
                let tput = hupdates.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
                drop(d);
                let _ = std::fs::remove_dir_all(&dir);
                tput
            })
            .fold(0.0f64, f64::max);
        let overhead_pct = (htput / logged_tput.max(1e-9) - 1.0) * 100.0;
        assert!(
            overhead_pct < 15.0,
            "WAL logging overhead {overhead_pct:.1}% exceeds the 15% budget \
             (plain {htput:.0}/s vs logged {logged_tput:.0}/s)"
        );
        let mut out = format!(
            ",\"fig11_logged_sum_star\":{logged_tput:.0},\
             \"fig11_logging_overhead_pct\":{overhead_pct:.1}"
        );

        // Recovery wall-time vs replayed log-tail length: one
        // checkpoint at LSN 0, then an n-update tail. The single-tuple
        // fig11 updates are cycled to reach each length.
        for n in [1_000usize, 10_000, 30_000] {
            let dir = bench_dir("tail");
            let engine =
                fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
            let mut d = DurableEngine::create(&dir, engine, manual.clone()).unwrap();
            for (rel, dl) in hupdates.iter().cycle().take(n) {
                d.apply(*rel, dl).unwrap();
            }
            d.sync_all().unwrap();
            drop(d);
            let engine =
                fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
            let start = Instant::now();
            let (_r, report) = DurableEngine::open(&dir, engine, manual.clone()).unwrap();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(report.replayed_updates, n as u64);
            out.push_str(&format!(",\"recovery_tail{n}_ms\":{ms:.1}"));
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Checkpoint-interval sweep over a fixed 30k-update stream:
        // denser checkpoints tax the logging side (snapshot writes) and
        // pay off at recovery (shorter tail), sparser the reverse.
        for every in [1_000u64, 10_000, 100_000] {
            let dir = bench_dir("ckpt");
            let cfg = DurabilityConfig {
                checkpoint_every: every,
                ..DurabilityConfig::default()
            };
            let engine =
                fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
            let mut d = DurableEngine::create(&dir, engine, cfg.clone()).unwrap();
            let start = Instant::now();
            for (rel, dl) in hupdates.iter().cycle().take(30_000) {
                d.apply(*rel, dl).unwrap();
            }
            let tput = 30_000.0 / start.elapsed().as_secs_f64().max(1e-9);
            d.sync_all().unwrap();
            drop(d);
            let engine =
                fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
            let start = Instant::now();
            let (_r, report) = DurableEngine::open(&dir, engine, cfg).unwrap();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(report.replayed_updates <= every);
            out.push_str(&format!(
                ",\"logged_tput_ckpt_every{every}\":{tput:.0},\
                 \"recovery_ckpt_every{every}_ms\":{ms:.1}"
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }
        out
    };

    // Serving layer (PR 7): epoch-snapshot reads + subscriptions over
    // the fig11 writer.
    //
    // * `serving_writer_tput`: the same pre-built fig11 updates through
    //   `ServingEngine::apply` with no publishes in the timed loop —
    //   the epoch layer's promise is that *between* publishes the
    //   single-tuple maintenance path pays nothing, asserted as a <10%
    //   budget against the plain-engine `fig11_sum_star` above.
    // * `serving_publish_ms`: one full copy-on-write epoch build with
    //   every store dirty (the worst case; clean stores are carried by
    //   reference and cost nothing).
    // * `serving_writer_tput_pub16k`: publish every 16 384 updates —
    //   the amortized cost of a realistic refresh cadence.
    // * `serving_reader_agg_K`: aggregate reader ops/s (pin + 64 point
    //   probes + a 32-entry enumeration slice per pin) at K = 1/2/4/8
    //   reader threads against a live writer publishing at the 16k
    //   cadence. Scaling is asserted only on ≥4-core hosts;
    //   single-core containers time-slice the readers.
    let serving = {
        use fivm_engine::ServingEngine;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        // Writer A/B: no publishes in the loop (one at the end, after
        // the timer, so the epoch machinery is exercised but unbilled).
        let serving_tput = (0..3)
            .map(|_| {
                let engine =
                    fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
                let mut s = ServingEngine::new(engine);
                let start = Instant::now();
                for (rel, d) in &hupdates {
                    s.apply(*rel, d);
                }
                let tput = hupdates.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
                s.publish();
                tput
            })
            .fold(0.0f64, f64::max);
        let writer_overhead_pct = (htput / serving_tput.max(1e-9) - 1.0) * 100.0;
        assert!(
            writer_overhead_pct < 10.0,
            "serving-layer writer overhead {writer_overhead_pct:.1}% exceeds the 10% budget \
             (plain {htput:.0}/s vs serving {serving_tput:.0}/s)"
        );

        // Worst-case publish: every store dirty, full COW clone.
        let (publish_ms, probe_node) = {
            let engine =
                fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
            let mut s = ServingEngine::new(engine);
            for (rel, d) in &hupdates {
                s.apply(*rel, d);
            }
            let start = Instant::now();
            let snap = s.publish();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            // Probe target for the reader sweep: the largest non-root
            // view (a postcode-keyed branch view).
            let root = s.engine().tree().root;
            let node = s
                .engine()
                .materialized_nodes()
                .into_iter()
                .filter(|&n| n != root)
                .max_by_key(|&n| snap.view(n).map_or(0, |v| v.len()))
                .unwrap_or(root);
            (ms, node)
        };

        // Amortized publish cadence.
        let pub16k_tput = (0..3)
            .map(|_| {
                let engine =
                    fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
                let mut s = ServingEngine::new(engine).with_publish_every(16_384);
                let start = Instant::now();
                for (rel, d) in &hupdates {
                    s.apply(*rel, d);
                }
                hupdates.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
            })
            .fold(0.0f64, f64::max);

        // Reader scaling against a live writer.
        let probe_keys: Vec<fivm_core::Tuple> = (0..1024)
            .map(|i| fivm_core::Tuple::new(vec![Value::Int((i * 19) % 20_000)]))
            .collect();
        let mut out = format!(
            ",\"serving_writer_tput\":{serving_tput:.0},\
             \"serving_writer_overhead_pct\":{writer_overhead_pct:.1},\
             \"serving_publish_ms\":{publish_ms:.1},\
             \"serving_writer_tput_pub16k\":{pub16k_tput:.0}"
        );
        let mut agg_by_readers = Vec::new();
        for readers in [1usize, 2, 4, 8] {
            let engine =
                fivm_engine::IvmEngine::new(hq.clone(), htree.clone(), &hall, hlifts.clone());
            let mut s = ServingEngine::new(engine).with_publish_every(16_384);
            let stop = AtomicBool::new(false);
            let ops = AtomicU64::new(0);
            let elapsed = std::thread::scope(|scope| {
                for _ in 0..readers {
                    let reader = s.reader();
                    let stop = &stop;
                    let ops = &ops;
                    let keys = &probe_keys;
                    scope.spawn(move || {
                        let mut i = 0usize;
                        let mut local = 0u64;
                        // relaxed-ok: bench stop flag; eventual
                        // visibility is all the loop needs.
                        while !stop.load(Ordering::Relaxed) {
                            let snap = reader.pin();
                            for _ in 0..64 {
                                i = (i + 1) % keys.len();
                                if snap.get(probe_node, &keys[i]).is_some() {
                                    local += 1;
                                }
                            }
                            local += snap.iter(probe_node).take(32).count() as u64;
                            // relaxed-ok: throughput counter only.
                            ops.fetch_add(65, Ordering::Relaxed);
                        }
                        let _ = local;
                    });
                }
                let start = Instant::now();
                for _ in 0..3 {
                    for (rel, d) in &hupdates {
                        s.apply(*rel, d);
                    }
                }
                let elapsed = start.elapsed().as_secs_f64().max(1e-9);
                stop.store(true, Ordering::Relaxed); // relaxed-ok: bench stop flag.
                elapsed
            });
            // relaxed-ok: counter read after the scope joined all readers.
            let agg = ops.load(Ordering::Relaxed) as f64 / elapsed;
            agg_by_readers.push((readers, agg));
            out.push_str(&format!(",\"serving_reader_agg_{readers}\":{agg:.0}"));
        }
        let one = agg_by_readers[0].1;
        let best = agg_by_readers
            .iter()
            .map(|&(_, a)| a)
            .fold(0.0f64, f64::max);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 4 {
            assert!(
                best > 1.3 * one,
                "readers do not scale: best aggregate {best:.0}/s vs 1-reader {one:.0}/s \
                 on a {cores}-core host"
            );
        }
        out.push_str(&format!(
            ",\"serving_reader_scaling_best_over_1\":{:.2}",
            best / one.max(1e-9)
        ));
        out
    };

    println!(
        "{{\"bench\":\"smoke\",\"unit\":\"single_tuple_updates_per_sec\",\
         \"fig11_sum_star\":{htput:.0},\"fig11_tuples\":{},\
         \"fig13_triangle\":{ttput:.0},\"fig13_tuples\":{},\
         \"fig11_control_sum_price\":{hctput:.0},\
         \"fig11_string_sum_star\":{hstput:.0},\
         \"fig13_string_triangle\":{thtput:.0}\
         {hl_crossover}{foil}{fig6}{fig12}{durability}{serving}}}",
        hupdates.len(),
        tupdates.len(),
    );
}

/// Figure 6 (left): one-row updates to A₂ in A₁A₂A₃ across matrix
/// dimensions; F-IVM (factorized) vs 1-IVM vs RE-EVAL, dense (“Octave”)
/// and hash runtimes.
fn fig6_left(s: &Scale) {
    println!("== Figure 6 (left): matrix chain, one-row updates to A2 ==");
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "n", "F-IVM", "1-IVM", "RE-EVAL", "F-IVM(hash)", "hash-general"
    );
    for &n in &s.matrix_dims {
        let chain = matrices::random_chain(3, n, 42);
        let dense: Vec<Matrix> = chain
            .iter()
            .map(|d| Matrix::from_fn(n, n, |i, j| d[i * n + j]))
            .collect();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
        let n_updates = if n >= 512 { 3 } else { 8 };
        let updates: Vec<(Vec<f64>, Vec<f64>)> = (0..n_updates)
            .map(|i| matrices::one_row_update(n, (i * 13) % n, &mut rng))
            .collect();

        let mut fivm = DenseChainIvm::new(dense.clone());
        let t_f = time(|| {
            for (u, v) in &updates {
                fivm.apply_rank1(1, u, v);
            }
        }) / n_updates as u32;

        let mut fo = FirstOrderChain::new(dense.clone());
        let t_1 = time(|| {
            for (u, v) in &updates {
                let mut d = Matrix::zeros(n, n);
                d.add_outer(u, v);
                fo.apply(1, &d);
            }
        }) / n_updates as u32;

        let mut re = ReEvalChain::new(dense.clone());
        let t_r = time(|| {
            for (u, v) in &updates {
                let mut d = Matrix::zeros(n, n);
                d.add_outer(u, v);
                re.apply(1, &d);
            }
        }) / n_updates as u32;

        // hash runtime: the relational engine with factored deltas —
        // once through the compiled factored fast path, once through
        // the general factor path (the interpretation foil).
        let mut engine = fivm_linalg::EngineChainIvm::new(dense.clone());
        let t_h = time(|| {
            for (u, v) in &updates {
                engine.apply_rank1(1, u, v);
            }
        }) / n_updates as u32;
        let mut engine_gen = fivm_linalg::EngineChainIvm::new(dense);
        engine_gen.set_fast_path(false);
        let t_g = time(|| {
            for (u, v) in &updates {
                engine_gen.apply_rank1(1, u, v);
            }
        }) / n_updates as u32;

        println!(
            "{n:>6} {:>14} {:>14} {:>14} {:>14} {:>14}",
            fmt_dur(t_f),
            fmt_dur(t_1),
            fmt_dur(t_r),
            fmt_dur(t_h),
            fmt_dur(t_g)
        );
    }
    println!();
}

/// Figure 6 (right): rank-r updates at fixed n; F-IVM linear in r vs
/// one re-evaluation.
fn fig6_right(s: &Scale) {
    let n = s.rank_n;
    println!("== Figure 6 (right): rank-r updates to A2, n = {n} ==");
    let chain = matrices::random_chain(3, n, 43);
    let dense: Vec<Matrix> = chain
        .iter()
        .map(|d| Matrix::from_fn(n, n, |i, j| d[i * n + j]))
        .collect();
    let t_re = time(|| {
        let _ = ReEvalChain::new(dense.clone()); // one full evaluation
    });
    println!("RE-EVAL (once): {}", fmt_dur(t_re));
    println!("{:>6} {:>14} {:>10}", "r", "F-IVM", "vs RE-EVAL");
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(9);
    for &r in &s.ranks {
        let factors = matrices::rank_r_update(n, r, &mut rng);
        let mut fivm = DenseChainIvm::new(dense.clone());
        let t = time(|| fivm.apply_rank_r(1, &factors));
        println!(
            "{r:>6} {:>14} {:>9.2}x",
            fmt_dur(t),
            t_re.as_secs_f64() / t.as_secs_f64().max(1e-12)
        );
    }
    println!();
}

/// Figure 7: cofactor-matrix maintenance on Retailer and Housing —
/// throughput and memory per strategy, plus the ONE (largest-relation
/// only) variants on Retailer.
fn fig7(s: &Scale) {
    println!("== Figure 7: cofactor matrix maintenance (batches of 1000) ==");
    let budget = Budget { timeout: s.timeout };

    // ---------- Retailer ----------
    let r = retailer::generate(&s.retailer);
    let q = r.query.clone();
    let tree = ViewTree::build(&q, &r.order);
    let spec = CofactorSpec::over_all_vars(&q);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let batches = r.stream(1000);
    println!(
        "\nRetailer ({} tuples, m = {}, {} aggregates):",
        batches.iter().map(|b| b.tuples.len()).sum::<usize>(),
        spec.m(),
        spec.aggregate_count()
    );
    println!(
        "{:<14} {:>13} {:>12} {:>8} {:>9}",
        "strategy", "tuples/s", "memory", "views", "done"
    );

    let mut fivm = FIvmMaintainer::<Cofactor>::new(q.clone(), tree.clone(), &all, spec.liftings());
    report("F-IVM", run_stream(&mut fivm, &batches, budget));
    let mut sqlopt = FIvmMaintainer::<fivm_core::ring::degree::DegreeRing>::new(
        q.clone(),
        tree.clone(),
        &all,
        spec.degree_liftings(),
    );
    report("SQL-OPT", run_stream(&mut sqlopt, &batches, budget));
    let mut dbt_ring = RecursiveMaintainer::<Cofactor>::new(q.clone(), &all, spec.liftings());
    report("DBT-RING", run_stream(&mut dbt_ring, &batches, budget));

    // scalar fleets (DBT / 1-IVM): one engine per aggregate — capped at
    // small scale to keep the run finite; the paper reports both as
    // timing out on Retailer.
    let aggs: Vec<LiftingMap<f64>> = spec
        .scalar_aggregates()
        .into_iter()
        .take(s.scalar_fleet_cap)
        .map(|(_, l)| l)
        .collect();
    let n_aggs = aggs.len();
    let mut dbt = ScalarFleet::new(ScalarKind::Recursive, q.clone(), &tree, &all, aggs.clone());
    report(
        &format!("DBT({n_aggs}agg)"),
        run_stream(&mut dbt, &batches, budget),
    );
    let mut oivm = ScalarFleet::new(ScalarKind::FirstOrder, q.clone(), &tree, &all, aggs);
    report(
        &format!("1-IVM({n_aggs}agg)"),
        run_stream(&mut oivm, &batches, budget),
    );

    // ONE variants: updates to the largest relation only
    let one_batches = r.stream_largest_only(1000);
    let mut static_db = fivm_engine::Database::<Cofactor>::empty(&q);
    for (ri, tuples) in r.tuples.iter().enumerate() {
        if ri != r.largest {
            for t in tuples {
                static_db.relations[ri].insert(t.clone(), Cofactor::one());
            }
        }
    }
    let mut fivm_one =
        FIvmMaintainer::<Cofactor>::new(q.clone(), tree.clone(), &[r.largest], spec.liftings());
    fivm_one.engine.load(&static_db);
    report("F-IVM ONE", run_stream(&mut fivm_one, &one_batches, budget));
    let mut sql_one = FIvmMaintainer::<fivm_core::ring::degree::DegreeRing>::new(
        q.clone(),
        tree.clone(),
        &[r.largest],
        spec.degree_liftings(),
    );
    let mut static_db_deg = fivm_engine::Database::<fivm_core::ring::degree::DegreeRing>::empty(&q);
    for (ri, tuples) in r.tuples.iter().enumerate() {
        if ri != r.largest {
            for t in tuples {
                static_db_deg.relations[ri]
                    .insert(t.clone(), fivm_core::ring::degree::DegreeRing::one());
            }
        }
    }
    sql_one.engine.load(&static_db_deg);
    report(
        "SQL-OPT ONE",
        run_stream(&mut sql_one, &one_batches, budget),
    );

    // ---------- Housing ----------
    let h = housing::generate(&HousingConfig {
        postcodes: s.housing_postcodes,
        scale: 1,
        ..Default::default()
    });
    let hq = h.query.clone();
    let htree = ViewTree::build(&hq, &h.order);
    let hspec = CofactorSpec::over_all_vars(&hq);
    let hall: Vec<usize> = (0..hq.relations.len()).collect();
    let hbatches = h.stream(1000);
    println!(
        "\nHousing ({} tuples, m = {}, {} aggregates):",
        h.total_tuples(),
        hspec.m(),
        hspec.aggregate_count()
    );
    println!(
        "{:<14} {:>13} {:>12} {:>8} {:>9}",
        "strategy", "tuples/s", "memory", "views", "done"
    );
    let mut hf =
        FIvmMaintainer::<Cofactor>::new(hq.clone(), htree.clone(), &hall, hspec.liftings());
    report("F-IVM", run_stream(&mut hf, &hbatches, budget));
    let mut hs = FIvmMaintainer::<fivm_core::ring::degree::DegreeRing>::new(
        hq.clone(),
        htree.clone(),
        &hall,
        hspec.degree_liftings(),
    );
    report("SQL-OPT", run_stream(&mut hs, &hbatches, budget));
    let mut hd = RecursiveMaintainer::<Cofactor>::new(hq.clone(), &hall, hspec.liftings());
    report("DBT-RING", run_stream(&mut hd, &hbatches, budget));
    let haggs: Vec<LiftingMap<f64>> = hspec
        .scalar_aggregates()
        .into_iter()
        .take(s.scalar_fleet_cap)
        .map(|(_, l)| l)
        .collect();
    let hn = haggs.len();
    let mut hdbt = ScalarFleet::new(
        ScalarKind::Recursive,
        hq.clone(),
        &htree,
        &hall,
        haggs.clone(),
    );
    report(
        &format!("DBT({hn}agg)"),
        run_stream(&mut hdbt, &hbatches, budget),
    );
    let mut hoivm = ScalarFleet::new(ScalarKind::FirstOrder, hq.clone(), &htree, &hall, haggs);
    report(
        &format!("1-IVM({hn}agg)"),
        run_stream(&mut hoivm, &hbatches, budget),
    );
    println!();
}

/// Figure 8: conjunctive-query maintenance with factorized payloads vs
/// listing payloads vs listing keys, on Retailer (largest-relation
/// stream) and Housing (scale sweep).
fn fig8(s: &Scale) {
    println!("== Figure 8: factorized vs listing representations ==");
    let budget = Budget { timeout: s.timeout };

    // ---------- Retailer, updates to Inventory only ----------
    let mut cfg = s.retailer.clone();
    cfg.inventory_rows = (cfg.inventory_rows / 4).max(1000); // join output is large
    let r = retailer::generate(&cfg);
    let q = r.query.clone();
    let tree = ViewTree::build(&q, &r.order);
    let batches = r.stream_largest_only(1000);
    println!("\nRetailer natural join, updates to Inventory only:");
    println!(
        "{:<16} {:>13} {:>12} {:>9}",
        "mode", "tuples/s", "memory", "done"
    );

    let cq_lifts = cq_liftings(&q);
    for (label, transform) in [("List payloads", false), ("Fact payloads", true)] {
        let mut engine = fivm_engine::IvmEngine::<RelPayload>::new(
            q.clone(),
            tree.clone(),
            &[r.largest],
            cq_lifts.clone(),
        );
        if transform {
            engine = engine
                .with_payload_transform(factorized_transform(&tree))
                .with_payload_preprojection(factorized_preprojection());
        }
        let mut static_db = fivm_engine::Database::<RelPayload>::empty(&q);
        for (ri, tuples) in r.tuples.iter().enumerate() {
            if ri != r.largest {
                for t in tuples {
                    static_db.relations[ri].insert(t.clone(), RelPayload::one());
                }
            }
        }
        engine.load(&static_db);
        let mut m = FIvmMaintainer::from_engine(engine);
        let rep = run_stream(&mut m, &batches, budget);
        println!(
            "{label:<16} {} {:>12} {:>8.0}%",
            rep.display_throughput(),
            format_bytes(rep.bytes),
            rep.fraction * 100.0
        );
    }
    // listing keys: all variables free in the key space, Z payloads
    {
        let keys_q = retailer_keys_query();
        let vo = retailer::variable_order(&keys_q);
        let ktree = ViewTree::build(&keys_q, &vo);
        let mut engine = fivm_engine::IvmEngine::<i64>::new(
            keys_q.clone(),
            ktree,
            &[r.largest],
            LiftingMap::new(),
        );
        let mut static_db = fivm_engine::Database::<i64>::empty(&keys_q);
        for (ri, tuples) in r.tuples.iter().enumerate() {
            if ri != r.largest {
                for t in tuples {
                    static_db.relations[ri].insert(t.clone(), 1);
                }
            }
        }
        engine.load(&static_db);
        let mut m = FIvmMaintainer::from_engine(engine);
        let rep = run_stream(&mut m, &batches, budget);
        println!(
            "{:<16} {} {:>12} {:>8.0}%",
            "List keys",
            rep.display_throughput(),
            format_bytes(rep.bytes),
            rep.fraction * 100.0
        );
    }

    // ---------- Housing scale sweep ----------
    println!("\nHousing natural join, updates to all relations, per scale:");
    println!(
        "{:<7} {:>14} {:>12} {:>14} {:>12}",
        "scale", "Fact time", "Fact mem", "List time", "List mem"
    );
    for &sc in &s.housing_scales {
        let h = housing::generate(&HousingConfig {
            postcodes: (s.housing_postcodes / 4).max(50),
            scale: sc,
            ..Default::default()
        });
        let hq = h.query.clone();
        let htree = ViewTree::build(&hq, &h.order);
        let hall: Vec<usize> = (0..hq.relations.len()).collect();
        let hlifts = cq_liftings(&hq);
        let hbatches = h.stream(1000);
        let mut results = Vec::new();
        for transform in [true, false] {
            let mut engine = fivm_engine::IvmEngine::<RelPayload>::new(
                hq.clone(),
                htree.clone(),
                &hall,
                hlifts.clone(),
            );
            if transform {
                engine = engine
                    .with_payload_transform(factorized_transform(&htree))
                    .with_payload_preprojection(factorized_preprojection());
            }
            let mut m = FIvmMaintainer::from_engine(engine);
            let rep = run_stream(&mut m, &hbatches, budget);
            results.push(rep);
        }
        println!(
            "{sc:<7} {:>14} {:>12} {:>14} {:>12}",
            fmt_dur(results[0].elapsed),
            format_bytes(results[0].bytes),
            format!(
                "{}{}",
                fmt_dur(results[1].elapsed),
                if results[1].timed_out { "*" } else { "" }
            ),
            format_bytes(results[1].bytes),
        );
    }
    println!();
}

/// Figure 11 (table): maintenance of a single SUM aggregate.
fn fig11(s: &Scale) {
    println!("== Figure 11: SUM-aggregate maintenance (tuples/s, batches of 1000) ==");
    let budget = Budget { timeout: s.timeout };
    println!(
        "{:<10} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "dataset", "F-IVM", "DBT", "1-IVM", "F-RE", "DBT-RE"
    );

    // Retailer: SUM(inventoryunits)
    let mut cfg = s.retailer.clone();
    cfg.inventory_rows /= 2;
    let r = retailer::generate(&cfg);
    let q = r.query.clone();
    let tree = ViewTree::build(&q, &r.order);
    let mut lifts = LiftingMap::<f64>::new();
    lifts.set(
        q.catalog.lookup("inventoryunits").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );
    let batches = r.stream(1000);
    let row = sum_row(&q, &tree, &lifts, &batches, budget);
    println!("{:<10} {row}", "Retailer");

    // Housing: SUM(postcode)
    let h = housing::generate(&HousingConfig {
        postcodes: s.housing_postcodes,
        scale: 1,
        ..Default::default()
    });
    let hq = h.query.clone();
    let htree = ViewTree::build(&hq, &h.order);
    let mut hlifts = LiftingMap::<f64>::new();
    hlifts.set(
        hq.catalog.lookup("postcode").unwrap(),
        Lifting::from_fn(|v: &Value| v.as_f64().unwrap()),
    );
    let hb = h.stream(1000);
    let hrow = sum_row(&hq, &htree, &hlifts, &hb, budget);
    println!("{:<10} {hrow}", "Housing");
    println!();
}

fn sum_row(
    q: &QueryDef,
    tree: &ViewTree,
    lifts: &LiftingMap<f64>,
    batches: &[fivm_data::Batch],
    budget: Budget,
) -> String {
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let mut fivm = FIvmMaintainer::<f64>::new(q.clone(), tree.clone(), &all, lifts.clone());
    let a = run_stream(&mut fivm, batches, budget);
    let mut dbt = RecursiveMaintainer::<f64>::new(q.clone(), &all, lifts.clone());
    let b = run_stream(&mut dbt, batches, budget);
    let mut fleet = ScalarFleet::new(
        ScalarKind::FirstOrder,
        q.clone(),
        tree,
        &all,
        vec![lifts.clone()],
    );
    let c = run_stream(&mut fleet, batches, budget);
    let mut fre = FReMaintainer::new(q.clone(), tree.clone(), lifts.clone());
    let d = run_stream(&mut fre, batches, budget);
    let mut dre = DbtReMaintainer::new(q.clone(), lifts.clone());
    let e = run_stream(&mut dre, batches, budget);
    format!(
        "{} {} {} {} {}",
        a.display_throughput(),
        b.display_throughput(),
        c.display_throughput(),
        d.display_throughput(),
        e.display_throughput()
    )
}

/// Figure 12: batch-size sweep for cofactor maintenance.
fn fig12(s: &Scale) {
    println!("== Figure 12: effect of batch size on cofactor maintenance (tuples/s) ==");
    let budget = Budget { timeout: s.timeout };
    print!("{:<22}", "dataset/strategy");
    for &bs in &s.batch_sizes {
        print!(" {:>12}", format!("BS={bs}"));
    }
    println!();

    // Retailer: F-IVM and SQL-OPT
    let mut cfg = s.retailer.clone();
    cfg.inventory_rows /= 2;
    let r = retailer::generate(&cfg);
    let q = r.query.clone();
    let tree = ViewTree::build(&q, &r.order);
    let spec = CofactorSpec::over_all_vars(&q);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    for (name, sqlopt) in [("Retailer/F-IVM", false), ("Retailer/SQL-OPT", true)] {
        print!("{name:<22}");
        for &bs in &s.batch_sizes {
            let batches = r.stream(bs);
            let tput = if sqlopt {
                let mut m = FIvmMaintainer::<fivm_core::ring::degree::DegreeRing>::new(
                    q.clone(),
                    tree.clone(),
                    &all,
                    spec.degree_liftings(),
                );
                run_stream(&mut m, &batches, budget)
            } else {
                let mut m =
                    FIvmMaintainer::<Cofactor>::new(q.clone(), tree.clone(), &all, spec.liftings());
                run_stream(&mut m, &batches, budget)
            };
            print!(" {}", tput.display_throughput());
        }
        println!();
    }

    // Housing: F-IVM (== DBT-RING on star joins)
    let h = housing::generate(&HousingConfig {
        postcodes: s.housing_postcodes,
        scale: 1,
        ..Default::default()
    });
    let hq = h.query.clone();
    let htree = ViewTree::build(&hq, &h.order);
    let hspec = CofactorSpec::over_all_vars(&hq);
    let hall: Vec<usize> = (0..hq.relations.len()).collect();
    print!("{:<22}", "Housing/F-IVM");
    for &bs in &s.batch_sizes {
        let batches = h.stream(bs);
        let mut m =
            FIvmMaintainer::<Cofactor>::new(hq.clone(), htree.clone(), &hall, hspec.liftings());
        let rep = run_stream(&mut m, &batches, budget);
        print!(" {}", rep.display_throughput());
    }
    println!();

    // Twitter: F-IVM over the triangle
    let t = twitter::generate(&s.twitter);
    let tq = t.query.clone();
    let mut ttree = ViewTree::build(&tq, &t.order);
    fivm_query::add_indicators(&mut ttree, &tq);
    let tspec = CofactorSpec::over_all_vars(&tq);
    let tall = [0usize, 1, 2];
    print!("{:<22}", "Twitter/F-IVM");
    for &bs in &s.batch_sizes {
        let batches = t.stream(bs);
        let mut m =
            FIvmMaintainer::<Cofactor>::new(tq.clone(), ttree.clone(), &tall, tspec.liftings());
        let rep = run_stream(&mut m, &batches, budget);
        print!(" {}", rep.display_throughput());
    }
    println!("\n");
}

/// Figure 13: cofactor matrix over the triangle query on Twitter.
fn fig13(s: &Scale) {
    println!("== Figure 13: cofactor over the triangle query (Twitter) ==");
    let budget = Budget { timeout: s.timeout };
    let t = twitter::generate(&s.twitter);
    let q = t.query.clone();
    let spec = CofactorSpec::over_all_vars(&q);
    let all = [0usize, 1, 2];
    let batches = t.stream(1000);
    println!(
        "graph: {} edges; updates of 1000 to all relations",
        s.twitter.edges
    );
    println!(
        "{:<14} {:>13} {:>12} {:>8} {:>9}",
        "strategy", "tuples/s", "memory", "views", "done"
    );

    let plain = ViewTree::build(&q, &t.order);
    let mut with_ind = plain.clone();
    fivm_query::add_indicators(&mut with_ind, &q);

    let mut fivm =
        FIvmMaintainer::<Cofactor>::new(q.clone(), with_ind.clone(), &all, spec.liftings());
    report("F-IVM", run_stream(&mut fivm, &batches, budget));
    let mut plain_m =
        FIvmMaintainer::<Cofactor>::new(q.clone(), plain.clone(), &all, spec.liftings());
    report("F-IVM no-ind", run_stream(&mut plain_m, &batches, budget));
    let mut dbt_ring = RecursiveMaintainer::<Cofactor>::new(q.clone(), &all, spec.liftings());
    report("DBT-RING", run_stream(&mut dbt_ring, &batches, budget));
    let aggs: Vec<LiftingMap<f64>> = spec
        .scalar_aggregates()
        .into_iter()
        .map(|(_, l)| l)
        .collect();
    let mut dbt = ScalarFleet::new(ScalarKind::Recursive, q.clone(), &plain, &all, aggs.clone());
    report("DBT(10agg)", run_stream(&mut dbt, &batches, budget));
    let mut oivm = ScalarFleet::new(ScalarKind::FirstOrder, q.clone(), &plain, &all, aggs);
    report("1-IVM(10agg)", run_stream(&mut oivm, &batches, budget));

    // ONE: updates to R only, S and T static
    let one = t.stream_r_only(1000);
    let mut static_db = fivm_engine::Database::<Cofactor>::empty(&q);
    for ri in 1..3 {
        for tu in &t.tuples[ri] {
            static_db.relations[ri].insert(tu.clone(), Cofactor::one());
        }
    }
    let mut fone = FIvmMaintainer::<Cofactor>::new(q.clone(), with_ind, &[0], spec.liftings());
    fone.engine.load(&static_db);
    report("F-IVM ONE", run_stream(&mut fone, &one, budget));
    println!();
}

/// §7 view counts per strategy.
fn view_counts() {
    println!("== View counts (§7) ==");
    let r = retailer::query();
    let rtree = ViewTree::build(&r, &retailer::variable_order(&r));
    let rall: Vec<usize> = (0..r.relations.len()).collect();
    let rspec = CofactorSpec::over_all_vars(&r);
    let rdbt: fivm_engine::RecursiveIvm<Cofactor> =
        fivm_engine::RecursiveIvm::new(r.clone(), &rall, rspec.liftings());
    println!(
        "Retailer: F-IVM {} views (paper: 9), DBT-RING {} (paper: 13), \
         scalar aggregates {} (paper: 990)",
        rtree.inner_count(),
        rdbt.stored_view_count(),
        rspec.aggregate_count()
    );
    let h = housing::query();
    let htree = ViewTree::build(&h, &housing::variable_order(&h));
    let hall: Vec<usize> = (0..h.relations.len()).collect();
    let hspec = CofactorSpec::over_all_vars(&h);
    let hdbt: fivm_engine::RecursiveIvm<Cofactor> =
        fivm_engine::RecursiveIvm::new(h.clone(), &hall, hspec.liftings());
    println!(
        "Housing:  F-IVM {} views (paper: 7), DBT-RING {} (paper: 7), \
         scalar aggregates {} (paper: 406)",
        htree.inner_count(),
        hdbt.stored_view_count(),
        hspec.aggregate_count()
    );
    println!();
}

// ---------- helpers ----------

fn time(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

fn report(label: &str, rep: StreamReport) {
    println!(
        "{label:<14} {} {:>12} {:>8} {:>8.0}%",
        rep.display_throughput(),
        format_bytes(rep.bytes),
        rep.views,
        rep.fraction * 100.0
    );
}

/// CQ liftings: every variable lifts to a singleton relation.
fn cq_liftings(q: &QueryDef) -> LiftingMap<RelPayload> {
    let mut lifts = LiftingMap::new();
    for &v in q.all_vars().iter() {
        lifts.set(
            v,
            Lifting::from_fn(move |val: &Value| RelPayload::lift_free(Schema::new(vec![v]), val)),
        );
    }
    lifts
}

/// Retailer query with every variable free (the “List keys” encoding).
fn retailer_keys_query() -> QueryDef {
    let q = retailer::query();
    let names: Vec<String> = q
        .all_vars()
        .iter()
        .map(|&v| q.catalog.name(v).to_string())
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let rels: Vec<(String, Vec<String>)> = q
        .relations
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.schema
                    .iter()
                    .map(|&v| q.catalog.name(v).to_string())
                    .collect(),
            )
        })
        .collect();
    let rel_refs: Vec<(&str, Vec<&str>)> = rels
        .iter()
        .map(|(n, a)| (n.as_str(), a.iter().map(String::as_str).collect()))
        .collect();
    let rel_slices: Vec<(&str, &[&str])> =
        rel_refs.iter().map(|(n, a)| (*n, a.as_slice())).collect();
    QueryDef::new(&rel_slices, &name_refs)
}
