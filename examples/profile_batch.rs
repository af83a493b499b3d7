//! Diagnostic: per-batch-size throughput of the flat-batch fast path
//! vs the general path on the fig12 workloads, with per-batch timing,
//! so regressions can be localized without a system profiler.
//!
//! ```text
//! cargo run --release --example profile_batch [housing|retailer] [BS]
//! ```

use fivm::data::{housing, retailer, HousingConfig, RetailerConfig};
use fivm::prelude::*;
use std::time::Instant;

fn ones_delta(schema: Schema, tuples: &[Tuple]) -> Delta<f64> {
    Delta::Flat(Relation::from_pairs(
        schema,
        tuples.iter().map(|t| (t.clone(), 1.0f64)),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("retailer");
    let bs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);

    let (q, order, batches) = match which {
        "housing" => {
            let h = housing::generate(&HousingConfig {
                postcodes: 25_000,
                scale: 4,
                ..Default::default()
            });
            (h.query.clone(), h.order.clone(), h.stream(bs))
        }
        _ => {
            let r = retailer::generate(&RetailerConfig {
                inventory_rows: 120_000,
                locations: 50,
                dates: 200,
                items: 1_000,
                zips: 40,
                ..Default::default()
            });
            (r.query.clone(), r.order.clone(), r.stream(bs))
        }
    };
    let tree = ViewTree::build(&q, &order);
    let all: Vec<usize> = (0..q.relations.len()).collect();
    let lifts = LiftingMap::<f64>::new();

    if args.iter().any(|a| a == "cof") {
        // The actual fig12 regime: cofactor-matrix maintenance.
        let spec = CofactorSpec::over_all_vars(&q);
        println!("== {which} (cofactor m={}), batch size {bs} ==", spec.m());
        for fast in [true, false] {
            let mut engine: IvmEngine<Cofactor> =
                IvmEngine::new(q.clone(), tree.clone(), &all, spec.liftings());
            engine.set_fast_path(fast);
            let label = if fast { "fast" } else { "general" };
            let start = Instant::now();
            let mut applied = 0usize;
            for b in &batches {
                let d = Delta::Flat(Relation::from_pairs(
                    q.relations[b.relation].schema.clone(),
                    b.tuples.iter().map(|t| (t.clone(), Cofactor::one())),
                ));
                engine.apply(b.relation, &d);
                applied += b.tuples.len();
                if start.elapsed().as_secs() > 30 {
                    break;
                }
            }
            println!(
                "  [{label}] TOTAL {applied} tuples in {:?} ({:.0} t/s)",
                start.elapsed(),
                applied as f64 / start.elapsed().as_secs_f64()
            );
        }
        return;
    }

    println!("== {which}, batch size {bs}, {} batches ==", batches.len());
    if which == "retailer" {
        decompose(&q, &batches[0].tuples);
    }
    for fast in [true, false] {
        let mut engine: IvmEngine<f64> =
            IvmEngine::new(q.clone(), tree.clone(), &all, lifts.clone());
        engine.set_fast_path(fast);
        let label = if fast { "fast" } else { "general" };
        // Deltas are pre-built so the timings track `IvmEngine::apply`
        // itself.
        let deltas: Vec<(usize, usize, Delta<f64>)> = batches
            .iter()
            .map(|b| {
                (
                    b.relation,
                    b.tuples.len(),
                    ones_delta(q.relations[b.relation].schema.clone(), &b.tuples),
                )
            })
            .collect();
        let start = Instant::now();
        let mut applied = 0usize;
        let mut per_rel = vec![(0usize, std::time::Duration::ZERO); q.relations.len()];
        for (rel, n, d) in &deltas {
            let t0 = Instant::now();
            engine.apply(*rel, d);
            applied += n;
            per_rel[*rel].0 += n;
            per_rel[*rel].1 += t0.elapsed();
            if start.elapsed().as_secs() > 20 {
                println!("  [{label}] ...timeout");
                break;
            }
        }
        for (rel, (n, dt)) in per_rel.iter().enumerate() {
            if *n > 0 {
                println!(
                    "  [{label}] rel {rel} ({}): {n} tuples in {:?} ({:.0} t/s)",
                    q.relations[rel].name,
                    dt,
                    *n as f64 / dt.as_secs_f64().max(1e-9)
                );
            }
        }
        println!(
            "  [{label}] TOTAL {applied} tuples in {:?} ({:.0} t/s)\n",
            start.elapsed(),
            applied as f64 / start.elapsed().as_secs_f64()
        );
    }
}

/// Break the shared per-batch cost into its components: delta
/// construction, a bare primary-map merge, and a merge maintaining a
/// `[ksn]`-style secondary index.
#[allow(dead_code)]
fn decompose(q: &QueryDef, tuples: &[Tuple]) {
    let schema = q.relations[0].schema.clone();
    let t0 = Instant::now();
    let d = match ones_delta(schema.clone(), tuples) {
        Delta::Flat(r) => r,
        _ => unreachable!(),
    };
    println!("  delta construction: {:?}", t0.elapsed());

    let mut store: ViewStore<f64> = ViewStore::new(schema.clone());
    let t0 = Instant::now();
    let mut tr = Vec::new();
    store.merge_into(&d, &mut tr);
    println!("  bare store merge:   {:?}", t0.elapsed());

    // Raw TupleMap fills: source order vs the delta table's iteration
    // order (isolates hash-order-correlated insertion).
    let t0 = Instant::now();
    let mut m = fivm::core::TupleMap::<f64>::new();
    for t in tuples {
        *m.upsert(t, || 0.0).1 += 1.0;
    }
    println!(
        "  raw fill (vec order):   {:?} ({} keys)",
        t0.elapsed(),
        m.len()
    );
    let t0 = Instant::now();
    let mut m = fivm::core::TupleMap::<f64>::new();
    for (t, p) in d.iter() {
        *m.upsert(t, || 0.0).1 += *p;
    }
    println!(
        "  raw fill (table order): {:?} ({} keys)",
        t0.elapsed(),
        m.len()
    );

    let mut store: ViewStore<f64> = ViewStore::new(schema.clone());
    store.ensure_index(&Schema::new(vec![q.catalog.lookup("ksn").unwrap()]));
    let t0 = Instant::now();
    let mut tr = Vec::new();
    store.merge_into(&d, &mut tr);
    println!("  indexed store merge:{:?}", t0.elapsed());
}
