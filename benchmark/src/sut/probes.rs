//! Per-layer probes: the harness times its own calls into each layer's
//! public functions, feeding them keys and deltas taken from the
//! workload's flat stream. Nothing inside the engine is instrumented.
//!
//! Every probe is generic over the workload's ring, so every workload
//! reports every layer metric of `BENCHMARK.json` on its own inputs.
//! Ratios `a_over_b` are throughput of `a` ÷ throughput of `b`,
//! measured A B A B … in this process ([`crate::stats::abab`]).

use super::{built, largest_view, pairs, Flat, Layers, Payload};
use crate::stats::{abab, median};
use crate::trace::Recorder;
use fivm_core::ring::cofactor::Cofactor;
use fivm_core::{
    Codec, Delta, DeltaAccumulator, ProjKey, Relation, Schema, Tuple, TupleMap, Value,
};
use fivm_durability::wal::{encode_update_record, DeltaLog};
use fivm_durability::{crc, DurabilityConfig, DurableEngine, StdVfs, SyncPolicy};
use fivm_engine::{
    FirstOrderIvm, HlConfig, IvmEngine, RecursiveIvm, ServingEngine, SubMessage, TriangleHlEngine,
    ViewStore,
};
use fivm_ml::{regression, CofactorSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rounds of every interleaved A/B ratio.
const AB_ROUNDS: usize = 5;
/// The engine's accumulator thresholds (`executor.rs`): linear scan up
/// to 32 buffered keys, sort/merge up to 1024 pairs, hash above.
const ACC_LINEAR_MAX: usize = 32;
const ACC_HASH_MIN: usize = 1024;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median over five repetitions of `f`, which returns one measurement.
fn med5(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..5).map(|_| f()).collect();
    median(&v)
}

/// Alternate traced and untraced rounds of `round(traced)`, which
/// returns seconds — at least two pairs, up to five while they fit in a
/// fifth of `seconds` — so drift hits both alike. Returns the pairs run
/// and the slow-down tracing caused, in percent.
pub(super) fn tracing_overhead(seconds: f64, mut round: impl FnMut(bool) -> f64) -> (usize, f64) {
    let budget = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    while traced.len() < 2 || (traced.len() < 5 && budget.elapsed().as_secs_f64() < seconds * 0.2) {
        traced.push(round(true));
        untraced.push(round(false));
    }
    (
        traced.len(),
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    )
}

/// The plain replay of a flat stream: what `engine.executor.apply_ns`
/// and, for the plain workloads, the tracing overhead are read from.
pub(super) struct Replay<R: Payload> {
    /// The engine of the last traced round, stream fully applied.
    pub engine: IvmEngine<R>,
    pub overhead_pct: f64,
    pub applies: u64,
}

/// All layer probes over one flat stream.
pub(super) fn layers<R: Payload>(
    flat: &Flat<R>,
    rec: &mut Recorder,
    seconds: f64,
    scratch: &Path,
    out: &mut Layers,
) -> Replay<R> {
    let replay = plain_replay(flat, rec, seconds, out);
    setup_spans(flat, rec, out);
    let (busiest, leaf) = leaf_pairs(flat);
    let schema = &flat.query.relations[busiest].schema;
    table(&leaf, out);
    tuple_project(&leaf, out);
    accumulator(&leaf, out);
    ring(flat, schema, &leaf, out);
    view_store(schema, &leaf, out);
    executor_paths(flat, out);
    baselines(flat, out);
    serving(flat, out);
    codec(flat, out);
    let wal = wal(flat, scratch, out);
    durable(flat, scratch, &wal, out);
    R::extra_probes(flat, &replay.engine.result(), rec, out);
    replay
}

/// Traced rounds of the whole stream through a plain engine (a span
/// around every `IvmEngine::apply`), then untraced rounds of the same.
fn plain_replay<R: Payload>(
    flat: &Flat<R>,
    rec: &mut Recorder,
    seconds: f64,
    out: &mut Layers,
) -> Replay<R> {
    let round = rec.id("replay", false);
    let apply = rec.id("engine.executor.apply", true);
    let mut last = None;
    let (pairs, overhead_pct) = tracing_overhead(seconds, |traced| {
        if !traced {
            return flat.replay(&mut flat.engine());
        }
        rec.round += 1;
        let mut e = rec.span("engine.executor.new", || flat.engine());
        rec.enter(round);
        let t = Instant::now();
        for (rel, d) in &flat.updates {
            rec.enter(apply);
            e.apply(*rel, d);
            rec.exit();
        }
        let secs = t.elapsed().as_secs_f64();
        rec.exit();
        last = Some(e);
        secs
    });
    let engine = last.expect("at least two rounds ran");
    let a = rec.agg("engine.executor.apply");
    out.put("engine.executor.apply_ns", a.mean_ns(), "ns");
    out.put(
        "engine.executor.apply_calls",
        flat.updates.len() as f64,
        "count",
    );
    out.put(
        "engine.memory.state_bytes",
        engine.approx_bytes() as f64,
        "B",
    );
    out.put(
        "engine.memory.index_buckets",
        engine.index_footprint() as f64,
        "count",
    );
    out.put(
        "query.viewtree.nodes",
        flat.tree.nodes.len() as f64,
        "count",
    );
    out.put(
        "query.materialize.stored_views",
        engine.plan().stored_count() as f64,
        "count",
    );
    Replay {
        engine,
        overhead_pct,
        applies: (flat.updates.len() * pairs * 2) as u64,
    }
}

/// The set-up steps, from the spans recorded while the workload and its
/// flat stream were built.
fn setup_spans<R: Payload>(flat: &Flat<R>, rec: &Recorder, out: &mut Layers) {
    out.put(
        "data.generate_s",
        rec.agg("data.generate").mean_ns() / 1e9,
        "s",
    );
    out.put(
        "query.viewtree.build_ms",
        rec.agg("query.viewtree.build").mean_ns() / 1e6,
        "ms",
    );
    out.put(
        "engine.executor.new_ms",
        rec.agg("engine.executor.new").mean_ns() / 1e6,
        "ms",
    );
    let build = rec.agg("core.relation.build_delta");
    let per_delta = build.mean_ns() / flat.updates.len().max(1) as f64;
    out.put("core.relation.build_delta_ns", per_delta, "ns");
}

/// The relation the stream touches most and its `(tuple, payload)`
/// pairs, capped so the probes stay short.
fn leaf_pairs<R: Payload>(flat: &Flat<R>) -> (usize, Vec<(Tuple, R)>) {
    let mut per_rel = vec![0usize; flat.query.relations.len()];
    for (rel, d) in &flat.updates {
        per_rel[*rel] += d.stored_len();
    }
    let busiest = (0..per_rel.len()).max_by_key(|&r| per_rel[r]).unwrap_or(0);
    let leaf = flat
        .updates
        .iter()
        .filter(|(rel, _)| *rel == busiest)
        .flat_map(|(_, d)| pairs(d))
        .map(|(t, p)| (t.clone(), p.clone()))
        .take(1 << 18)
        .collect();
    (busiest, leaf)
}

/// A key guaranteed absent: the same tuple with its first value moved
/// out of every generator's range.
fn absent(t: &Tuple) -> Tuple {
    let mut vals = t.values().to_vec();
    vals[0] = Value::Int(vals[0].as_int().unwrap_or(0) + (1 << 40));
    Tuple::new(vals)
}

/// `core.table.*`: a bare `TupleMap` fed the workload's leaf keys, at
/// the workload's own key count (`_full`) and at 20 000 keys (`_20k`,
/// cache-resident).
fn table<R: Payload>(leaf: &[(Tuple, R)], out: &mut Layers) {
    for (suffix, n) in [("full", leaf.len()), ("20k", leaf.len().min(20_000))] {
        let keys = &leaf[..n];
        let misses: Vec<Tuple> = keys.iter().map(|(t, _)| absent(t)).collect();
        let mut map = TupleMap::<R>::new();
        let upsert = secs(|| {
            for (t, p) in keys {
                map.upsert(t, R::zero).1.add_assign(p);
            }
        });
        // Visit keys in a scattered order so the hardware prefetcher
        // does not turn the probe sequence into a scan.
        let scattered = |j: usize| (j as u64 * 1_000_003 % n.max(1) as u64) as usize;
        let hit = med5(|| {
            secs(|| {
                for j in 0..n {
                    black_box(map.get(&keys[scattered(j)].0));
                }
            })
        });
        let miss = med5(|| {
            secs(|| {
                for j in 0..n {
                    black_box(map.get(&misses[scattered(j)]));
                }
            })
        });
        let per = 1e9 / n.max(1) as f64;
        out.put(
            &format!("core.table.upsert_ns_{suffix}"),
            upsert * per,
            "ns",
        );
        out.put(&format!("core.table.get_hit_ns_{suffix}"), hit * per, "ns");
        out.put(
            &format!("core.table.get_miss_ns_{suffix}"),
            miss * per,
            "ns",
        );
        if suffix == "full" {
            let removed = keys.iter().step_by(3).count();
            let remove = secs(|| {
                for (t, _) in keys.iter().step_by(3) {
                    black_box(map.remove(t));
                }
            });
            out.put(
                "core.table.remove_ns",
                remove * 1e9 / removed.max(1) as f64,
                "ns",
            );
            out.put("core.table.tombstones", map.tombstones() as f64, "count");
            out.put(
                "core.table.max_probe_run",
                map.max_probe_run() as f64,
                "count",
            );
        }
    }
}

fn tuple_project<R: Payload>(leaf: &[(Tuple, R)], out: &mut Layers) {
    let t = med5(|| {
        secs(|| {
            for (t, _) in leaf {
                black_box(t.project(&[0]));
            }
        })
    });
    out.put(
        "core.tuple.project_ns",
        t * 1e9 / leaf.len().max(1) as f64,
        "ns",
    );
}

/// `core.accum.*`: push then drain, per key, with 16 / 1 000 / 10 000
/// keys per drain — the accumulator's linear, sort and hash regimes
/// under the engine's thresholds.
fn accumulator<R: Payload>(leaf: &[(Tuple, R)], out: &mut Layers) {
    for (name, per_drain) in [("linear", 16usize), ("sort", 1_000), ("hash", 10_000)] {
        let per_drain = per_drain.min(leaf.len());
        let mut acc = DeltaAccumulator::<R>::with_thresholds(ACC_LINEAR_MAX, ACC_HASH_MIN);
        let mut drained = Vec::new();
        let t = med5(|| {
            secs(|| {
                for chunk in leaf.chunks(per_drain).take((40_000 / per_drain).max(1)) {
                    for (t, p) in chunk {
                        acc.push(t, p.clone());
                    }
                    drained.clear();
                    acc.drain_into(&mut drained);
                }
            })
        });
        let keys = (leaf.len() / per_drain).clamp(1, (40_000 / per_drain).max(1)) * per_drain;
        out.put(
            &format!("core.accum.{name}_ns"),
            t * 1e9 / keys as f64,
            "ns",
        );
    }
}

/// `core.ring.*`: ⊗ and ⊕ of the workload's ring on payloads lifted
/// from its own tuples (the `Cofactor` ring at m = 43 on
/// `retailer_cofactor_batch`).
fn ring<R: Payload>(flat: &Flat<R>, schema: &Schema, leaf: &[(Tuple, R)], out: &mut Layers) {
    let lifted: Vec<R> = leaf
        .iter()
        .take(4_096)
        .map(|(t, p)| {
            schema
                .vars()
                .iter()
                .zip(t.values())
                .fold(p.clone(), |acc, (&var, val)| {
                    acc.mul(&flat.lifts.get(var).lift(val))
                })
        })
        .collect();
    let n = lifted.len().max(2) - 1;
    let mul = med5(|| {
        secs(|| {
            for w in lifted.windows(2) {
                black_box(w[0].mul(&w[1]));
            }
        })
    });
    let add = med5(|| {
        secs(|| {
            let mut acc = R::zero();
            for x in &lifted {
                acc.add_assign(x);
            }
            black_box(acc);
        })
    });
    out.put("core.ring.mul_ns", mul * 1e9 / n as f64, "ns");
    out.put(
        "core.ring.add_ns",
        add * 1e9 / lifted.len().max(1) as f64,
        "ns",
    );
}

/// `engine.view.*`: a bare `ViewStore` over the leaf schema with one
/// secondary index on the first column.
fn view_store<R: Payload>(schema: &Schema, leaf: &[(Tuple, R)], out: &mut Layers) {
    let leaf = &leaf[..leaf.len().min(100_000)];
    let n = leaf.len().max(1);
    let batches: Vec<Relation<R>> = leaf
        .chunks(1_000)
        .map(|c| Relation::from_pairs(schema.clone(), c.iter().cloned()))
        .collect();
    let mut merged = ViewStore::<R>::new(schema.clone());
    let ix = merged.ensure_index_on_positions(vec![0]);
    let mut transitions = Vec::new();
    let merge = secs(|| {
        for b in &batches {
            transitions.clear();
            merged.merge_into(b, &mut transitions);
        }
    });
    let mut single = ViewStore::<R>::new(schema.clone());
    single.ensure_index_on_positions(vec![0]);
    let insert = secs(|| {
        for (t, p) in leaf {
            black_box(single.insert_ref(t, p.clone()));
        }
    });
    let mut fanout = 0usize;
    let probe = med5(|| {
        fanout = 0;
        secs(|| {
            for (t, _) in leaf {
                fanout += merged.probe(ix, &ProjKey::new(t, &[0])).len();
            }
        })
    });
    let per = 1e9 / n as f64;
    out.put("engine.view.merge_ns_per_tuple", merge * per, "ns");
    out.put("engine.view.insert_ref_ns", insert * per, "ns");
    out.put("engine.view.probe_ns", probe * per, "ns");
    out.put(
        "engine.view.probe_fanout_mean",
        fanout as f64 / n as f64,
        "count",
    );
    out.put(
        "engine.view.bytes_per_entry",
        merged.approx_bytes() as f64 / merged.len().max(1) as f64,
        "B",
    );
}

/// Apply `updates` to a fresh engine configured by `cfg`; seconds.
fn run_plain<R: Payload>(
    flat: &Flat<R>,
    updates: &[(usize, Delta<R>)],
    cfg: impl FnOnce(&mut IvmEngine<R>),
) -> f64 {
    let mut e = flat.engine();
    cfg(&mut e);
    secs(|| {
        for (rel, d) in updates {
            e.apply(*rel, d);
        }
    })
}

/// `engine.executor.fast_over_general`, `engine.parallel.w2_over_w1`.
fn executor_paths<R: Payload>(flat: &Flat<R>, out: &mut Layers) {
    let sample = flat.prefix(flat.tuples / 16);
    let fast = abab(
        AB_ROUNDS,
        || run_plain(flat, sample, |e| e.set_fast_path(true)),
        || run_plain(flat, sample, |e| e.set_fast_path(false)),
    );
    out.put(
        "engine.executor.fast_over_general",
        fast.ratio.median,
        "ratio",
    );
    let sample = flat.prefix(flat.tuples / 4);
    let par = abab(
        AB_ROUNDS,
        || run_plain(flat, sample, |e| e.set_workers(2)),
        || run_plain(flat, sample, |e| e.set_workers(1)),
    );
    out.put("engine.parallel.w2_over_w1", par.ratio.median, "ratio");
}

/// The paper's foils on a prefix of the stream, stopped after 40 ms
/// each: first-order IVM and fully recursive higher-order IVM.
fn baselines<R: Payload>(flat: &Flat<R>, out: &mut Layers) {
    fn per_call<R: Payload>(
        sample: &[(usize, Delta<R>)],
        mut apply: impl FnMut(usize, &Delta<R>),
    ) -> f64 {
        let t = Instant::now();
        let mut calls = 0u32;
        for (rel, d) in sample {
            apply(*rel, d);
            calls += 1;
            if t.elapsed().as_millis() >= 40 {
                break;
            }
        }
        t.elapsed().as_nanos() as f64 / f64::from(calls.max(1))
    }
    let sample = flat.prefix(flat.tuples / 16);
    let mut first = FirstOrderIvm::new(flat.query.clone(), flat.tree.clone(), flat.lifts.clone());
    out.put(
        "engine.first_order.apply_ns",
        per_call(sample, |rel, d| first.apply(rel, d)),
        "ns",
    );
    let mut rec = RecursiveIvm::new(flat.query.clone(), &flat.updatable, flat.lifts.clone());
    out.put(
        "engine.recursive.apply_ns",
        per_call(sample, |rel, d| rec.apply(rel, d)),
        "ns",
    );
}

/// `engine.serving.*`, `engine.snapshot.*`, `engine.subscribe.*`.
fn serving<R: Payload>(flat: &Flat<R>, out: &mut Layers) {
    let sample = flat.prefix(flat.tuples / 4);
    let wrap = || {
        built(|b| b.serving += 1);
        ServingEngine::new(flat.engine())
    };
    let over_plain = abab(
        AB_ROUNDS,
        || {
            let mut s = wrap();
            secs(|| {
                for (rel, d) in sample {
                    s.apply(*rel, d);
                }
            })
        },
        || run_plain(flat, sample, |_| {}),
    );
    out.put(
        "engine.serving.over_plain",
        over_plain.ratio.median,
        "ratio",
    );

    // Publish with every store dirty, then with none; pin and get on
    // the published epoch.
    let mut s = wrap();
    for (rel, d) in sample {
        s.apply(*rel, d);
    }
    out.put(
        "engine.snapshot.publish_dirty_ms",
        secs(|| drop(s.publish())) * 1e3,
        "ms",
    );
    out.put(
        "engine.snapshot.publish_clean_us",
        med5(|| secs(|| drop(s.publish()))) * 1e6,
        "us",
    );
    let reader = s.reader();
    let pins = 100_000;
    let pin = med5(|| {
        secs(|| {
            for _ in 0..pins {
                black_box(reader.pin());
            }
        })
    });
    out.put("engine.snapshot.pin_ns", pin * 1e9 / f64::from(pins), "ns");
    let snap = reader.pin();
    let node = largest_view(s.engine());
    let keys: Vec<Tuple> = snap
        .iter(node)
        .take(4_096)
        .map(|(t, _)| t.clone())
        .collect();
    let get = med5(|| {
        secs(|| {
            for _ in 0..16 {
                for k in &keys {
                    black_box(snap.get(node, k));
                }
            }
        })
    });
    out.put(
        "engine.snapshot.get_ns",
        get * 1e9 / (16 * keys.len().max(1)) as f64,
        "ns",
    );

    // Delivery: the same epochs published by an engine with a root
    // subscriber and by one without; the difference is the subscriber.
    let (mut with, mut without) = (wrap(), wrap());
    let root = with.engine().tree().root;
    let sub = with.subscribe(root).expect("the root view is materialized");
    let epochs = 8;
    let mut extra = Vec::new();
    for chunk in sample.chunks(sample.len().div_ceil(epochs)) {
        for (rel, d) in chunk {
            with.apply(*rel, d);
            without.apply(*rel, d);
        }
        let a = secs(|| drop(with.publish()));
        let b = secs(|| drop(without.publish()));
        extra.push((a - b) * 1e6);
    }
    let msgs = sub.drain();
    let lagged = msgs.iter().filter(|m| m.is_lagged()).count();
    let pairs: usize = msgs
        .into_iter()
        .filter_map(SubMessage::into_delta)
        .map(|d| d.pairs.len())
        .sum();
    out.put(
        "engine.subscribe.deliver_us_per_epoch",
        median(&extra),
        "us",
    );
    out.put(
        "engine.subscribe.deltas_per_epoch",
        pairs as f64 / extra.len() as f64,
        "count",
    );
    out.put("engine.subscribe.lagged_events", lagged as f64, "count");
}

/// `core.codec.*`: the self-describing `Delta` codec.
fn codec<R: Payload>(flat: &Flat<R>, out: &mut Layers) {
    let sample = &flat.updates[..flat.updates.len().min(4_096)];
    let mut buf = Vec::new();
    let encode = med5(|| {
        secs(|| {
            for (_, d) in sample {
                buf.clear();
                d.encode(&mut buf);
                black_box(&buf);
            }
        })
    });
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .map(|(_, d)| {
            let mut b = Vec::new();
            d.encode(&mut b);
            b
        })
        .collect();
    let decode = med5(|| {
        secs(|| {
            for b in &encoded {
                black_box(
                    Delta::<R>::decode(&mut b.as_slice()).expect("decodes what was just encoded"),
                );
            }
        })
    });
    let per = 1e9 / sample.len().max(1) as f64;
    out.put("core.codec.encode_ns", encode * per, "ns");
    out.put("core.codec.decode_ns", decode * per, "ns");
}

/// A fresh directory under the scratch root.
pub(super) fn scratch_dir(root: &Path, tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    // Relaxed: a unique-name counter publishes nothing else.
    let dir = root.join(format!("{tag}-{}", N.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    built(|b| b.scratch_dirs += 1);
    dir
}

pub(super) fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What the WAL probe learned that the durable-engine probe reuses.
struct WalCost {
    encode_ns: f64,
    append_ns: f64,
}

/// `durability.wal.*`, `durability.crc.*`: a standalone `DeltaLog` fed
/// the workload's deltas (group commit, no fsync until the final sync —
/// the same policy the durable workload runs under).
fn wal<R: Payload>(flat: &Flat<R>, scratch: &Path, out: &mut Layers) -> WalCost {
    let sample = &flat.updates[..flat.updates.len().min(1 << 16)];
    let cfg = DurabilityConfig::default();
    let mut buf = Vec::new();
    let encode = med5(|| {
        secs(|| {
            for (i, (rel, d)) in sample.iter().enumerate() {
                encode_update_record(&mut buf, i as u64 + 1, *rel, d);
                black_box(&buf);
            }
        })
    });
    let records: Vec<Vec<u8>> = sample
        .iter()
        .enumerate()
        .map(|(i, (rel, d))| {
            let mut b = Vec::new();
            encode_update_record(&mut b, i as u64 + 1, *rel, d);
            b
        })
        .collect();
    let dir = scratch_dir(scratch, "wal");
    let mut log = DeltaLog::create(
        Arc::new(StdVfs),
        &dir,
        0,
        1,
        cfg.segment_bytes,
        cfg.flush_bytes,
        SyncPolicy::OnCheckpoint,
    )
    .expect("scratch directory accepts a WAL segment");
    let append = secs(|| {
        for (i, r) in records.iter().enumerate() {
            log.append_update(r, i as u64 + 1).expect("WAL append");
        }
    });
    let flush = secs(|| log.flush().expect("WAL flush"));
    let sync = secs(|| log.sync().expect("WAL sync"));
    drop(log);
    let n = sample.len().max(1) as f64;
    let cost = WalCost {
        encode_ns: encode * 1e9 / n,
        append_ns: append * 1e9 / n,
    };
    out.put("durability.wal.encode_ns", cost.encode_ns, "ns");
    out.put("durability.wal.append_ns", cost.append_ns, "ns");
    out.put("durability.wal.flush_us", flush * 1e6, "us");
    out.put("durability.wal.sync_ms", sync * 1e3, "ms");
    out.put(
        "durability.wal.bytes_per_update",
        dir_bytes(&dir) as f64 / n,
        "B",
    );
    out.put("durability.wal.frames", sample.len() as f64, "count");
    let _ = std::fs::remove_dir_all(&dir);

    let mut block = Vec::with_capacity(1 << 16);
    for r in records.iter().cycle() {
        if block.len() + r.len() > 1 << 16 {
            break;
        }
        block.extend_from_slice(r);
    }
    let crc_t = med5(|| {
        secs(|| {
            for _ in 0..64 {
                black_box(crc::crc32(black_box(&block)));
            }
        })
    });
    out.put(
        "durability.crc.ns_per_kib",
        crc_t * 1e9 / (64.0 * block.len().max(1) as f64 / 1024.0),
        "ns",
    );
    cost
}

/// `durability.engine.*`, `durability.checkpoint.*`,
/// `durability.recovery.*` and `trace.unattributed_pct`: the stream's
/// first quarter through a `DurableEngine` with auto-checkpointing off,
/// so checkpoints happen only where the probe times them.
fn durable<R: Payload>(flat: &Flat<R>, scratch: &Path, wal: &WalCost, out: &mut Layers) {
    let sample = flat.prefix(flat.tuples / 4);
    let cfg = DurabilityConfig {
        checkpoint_every: 0,
        sync: SyncPolicy::OnCheckpoint,
        ..DurabilityConfig::default()
    };
    let create = |dir: &Path| {
        built(|b| b.durable += 1);
        DurableEngine::create(dir, flat.engine(), cfg.clone()).expect("durable engine in scratch")
    };
    let ab = abab(
        AB_ROUNDS,
        || {
            let dir = scratch_dir(scratch, "ab");
            let mut d = create(&dir);
            let t = secs(|| {
                for (rel, dl) in sample {
                    d.apply(*rel, dl).expect("logged apply");
                }
            });
            drop(d);
            let _ = std::fs::remove_dir_all(&dir);
            t
        },
        || run_plain(flat, sample, |_| {}),
    );
    let calls = sample.len().max(1) as f64;
    let logged_ns = ab.a_secs * 1e9 / calls;
    let plain_ns = ab.b_secs * 1e9 / calls;
    out.put("durability.engine.apply_ns", logged_ns, "ns");
    out.put("durability.engine.log_over_plain", ab.ratio.median, "ratio");
    // What of a logged apply the separately measured parts do not
    // explain: plain apply + record encode + log append.
    let explained = plain_ns + wal.encode_ns + wal.append_ns;
    out.put(
        "trace.unattributed_pct",
        (logged_ns - explained) / logged_ns * 100.0,
        "%",
    );

    // Checkpoints after each fifth of the sample; the last fifth stays
    // in the log as the tail recovery replays.
    let dir = scratch_dir(scratch, "ckpt");
    let mut d = create(&dir);
    let fifth = sample.len().div_ceil(5).max(1);
    let mut ckpt_ms = Vec::new();
    let mut tail = 0u64;
    for (i, chunk) in sample.chunks(fifth).enumerate() {
        for (rel, dl) in chunk {
            d.apply(*rel, dl).expect("logged apply");
        }
        if i < 4 {
            ckpt_ms.push(secs(|| _ = d.checkpoint().expect("checkpoint")) * 1e3);
        } else {
            tail += chunk.len() as u64;
        }
    }
    let stats = d.stats();
    out.put(
        "durability.checkpoint.ms_mean",
        ckpt_ms.iter().sum::<f64>() / ckpt_ms.len().max(1) as f64,
        "ms",
    );
    out.put(
        "durability.checkpoint.ms_max",
        ckpt_ms.iter().fold(0.0f64, |m, &x| m.max(x)),
        "ms",
    );
    out.put("durability.checkpoint.count", ckpt_ms.len() as f64, "count");
    out.put(
        "durability.checkpoint.bytes_written",
        dir_bytes(&dir) as f64,
        "B",
    );
    out.put(
        "durability.engine.io_retries",
        stats.io_retries as f64,
        "count",
    );
    out.put(
        "durability.engine.deferred_checkpoints",
        stats.deferred_checkpoints as f64,
        "count",
    );
    d.sync_all().expect("sync");
    drop(d);
    built(|b| b.durable += 1);
    let t = Instant::now();
    let (mut d, report) = DurableEngine::open(&dir, flat.engine(), cfg.clone()).expect("recovery");
    let open_tail = t.elapsed().as_secs_f64();
    assert_eq!(
        report.replayed_updates, tail,
        "recovery replays exactly the un-checkpointed tail"
    );
    d.checkpoint().expect("checkpoint");
    drop(d);
    built(|b| b.durable += 1);
    let open_empty =
        secs(|| drop(DurableEngine::open(&dir, flat.engine(), cfg.clone()).expect("recovery")));
    let _ = std::fs::remove_dir_all(&dir);
    out.put("durability.recovery.open_ms", open_tail * 1e3, "ms");
    out.put("durability.recovery.replayed_updates", tail as f64, "count");
    out.put(
        "durability.recovery.replay_ns_per_update",
        (open_tail - open_empty) * 1e9 / tail.max(1) as f64,
        "ns",
    );
}

// ---------------------------------------------------------------------
// Probes only some workloads have (reported as `layer_extra`)
// ---------------------------------------------------------------------

/// `engine.heavylight.*` on the triangle workloads: the shared update
/// list through `TriangleHlEngine`, its counters, and the interleaved
/// ratio against the classical engine on the list's first quarter.
pub(super) fn heavy_light(flat: &Flat<i64>, rec: &mut Recorder, out: &mut Layers) {
    let edges: Vec<(usize, Tuple, i64)> = flat
        .updates
        .iter()
        .flat_map(|(rel, d)| pairs(d).map(move |(t, p)| (*rel, t.clone(), *p)))
        .collect();
    let hl = || {
        built(|b| b.heavy_light += 1);
        TriangleHlEngine::<i64>::new(flat.query.clone(), HlConfig::default())
            .expect("triangle query partitions")
    };
    let round = rec.id("heavy_light", false);
    let apply = rec.id("engine.heavylight.apply", true);
    let mut e = hl();
    rec.enter(round);
    for (rel, t, p) in &edges {
        rec.enter(apply);
        e.apply_update(*rel, t, *p);
        rec.exit();
    }
    rec.exit();
    let s = e.stats();
    out.extra(
        "engine.heavylight.apply_ns",
        rec.agg("engine.heavylight.apply").mean_ns(),
        "ns",
    );
    out.extra("engine.heavylight.promotions", s.promotions as f64, "count");
    out.extra("engine.heavylight.demotions", s.demotions as f64, "count");
    out.extra(
        "engine.heavylight.tuples_migrated",
        s.tuples_migrated as f64,
        "count",
    );
    out.extra(
        "engine.heavylight.rethresholds",
        s.rethresholds as f64,
        "count",
    );
    let quarter = edges.len() / 4;
    let ratio = abab(
        AB_ROUNDS,
        || {
            let mut e = hl();
            secs(|| {
                for (rel, t, p) in &edges[..quarter] {
                    e.apply_update(*rel, t, *p);
                }
            })
        },
        || run_plain(flat, &flat.updates[..quarter], |_| {}),
    );
    out.extra(
        "engine.heavylight.hl_over_classical",
        ratio.ratio.median,
        "ratio",
    );
}

/// `ml.*` on `retailer_cofactor_batch`: the read side of the learning
/// task, on the root payload the full stream produces. Training is cut
/// at 200 gradient steps: the probe times the layer, it does not need
/// the model.
pub(super) fn regression(spec: &CofactorSpec, root: &Relation<Cofactor>, out: &mut Layers) {
    let mut triple = spec.extract(root);
    let extract = med5(|| secs(|| triple = black_box(spec.extract(root))));
    let (c, s, q) = &triple;
    let label = s.len() - 1;
    let features: Vec<usize> = (0..label).collect();
    let config = regression::TrainConfig {
        max_iters: 200,
        ..regression::TrainConfig::default()
    };
    let train = secs(|| {
        drop(black_box(regression::train(
            *c, s, q, label, &features, &config,
        )))
    });
    out.extra("ml.cofactor.extract_us", extract * 1e6, "us");
    out.extra("ml.regression.train_ms", train * 1e3, "ms");
}
