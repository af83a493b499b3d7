//! The measurement loop: set-up (timed), warm-up, measured rounds until
//! `--seconds` is spent, checks, and the report.
//!
//! Load shape: closed loop, one writer client; `housing_durable_served`
//! adds one closed-loop reader thread. Never more threads than that.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{self, Summary};
use crate::sut::{self, Built, Layers, Round, Scale, Workload};
use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median. At least the
/// first count, then more while set-up is cheap (under a second in
/// all), up to the second count.
const SETUP_REPS: (usize, usize) = (3, 9);
/// Fewest and most measured rounds (one round = a bulk-timed pass and a
/// per-call-timed pass, each on a fresh engine).
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 40;

pub struct Options {
    /// Empty means all.
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    pub corrupt_oracle: bool,
    pub out_dir: PathBuf,
}

/// One reported metric.
struct Metric {
    name: String,
    unit: String,
    value: f64,
    /// Spread over rounds and sample count, where the metric has them.
    spread: Option<Summary>,
    note: Option<String>,
}

struct Outcome {
    workload: String,
    metrics: Vec<Metric>,
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    digest: u64,
    stream_tuples: u64,
    live_tuples: u64,
    rounds: usize,
    measured_s: f64,
}

/// Removes the scratch directory when the run ends — normally or by
/// unwinding from a panic. The directory itself is only created by a
/// workload that needs one.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run the selected workloads; the process exit code.
pub fn run(opts: &Options) -> i32 {
    let spec = Spec::load();
    let names: Vec<String> = if opts.workloads.is_empty() {
        spec.workloads.clone()
    } else {
        opts.workloads.clone()
    };
    for n in &names {
        if !sut::WORKLOADS.contains(&n.as_str()) {
            eprintln!("unknown workload {n:?}; known: {:?}", sut::WORKLOADS);
            return 2;
        }
    }
    let scratch = Scratch(
        opts.out_dir
            .join("scratch")
            .join(std::process::id().to_string()),
    );
    let wall = Instant::now();
    let mut outcomes = Vec::new();
    for name in &names {
        let started = Instant::now();
        let mut o = if opts.trace {
            traced(name, opts, &scratch.0)
        } else {
            end_to_end(name, opts, &scratch.0)
        };
        conform(
            &mut o,
            if opts.trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            },
        );
        print_outcome(&o, started.elapsed().as_secs_f64());
        outcomes.push(o);
    }
    let file = opts.out_dir.join(if opts.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    let doc = results_doc(opts, &outcomes, wall.elapsed().as_secs_f64());
    if let Err(e) =
        std::fs::create_dir_all(&opts.out_dir).and_then(|()| std::fs::write(&file, doc.pretty()))
    {
        eprintln!("cannot write {}: {e}", file.display());
        return 2;
    }
    eprintln!("wrote {}", file.display());
    // The contract's result line: last on standard output.
    for o in &outcomes {
        println!("{}", result_line(o).line());
    }
    i32::from(outcomes.iter().any(|o| o.failed > 0))
}

fn tally(o: &mut Outcome, r: &Round) {
    o.attempted += r.applies + r.reads + r.checks;
    o.failed += r.failed;
}

fn blank(name: &str) -> Outcome {
    Outcome {
        workload: name.to_string(),
        metrics: Vec::new(),
        extra: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: 0,
        stream_tuples: 0,
        live_tuples: 0,
        rounds: 0,
        measured_s: 0.0,
    }
}

fn scale(opts: &Options) -> Scale {
    if opts.check {
        Scale::Check
    } else {
        Scale::Full
    }
}

/// The untraced run of one workload: every end-to-end metric.
fn end_to_end(name: &str, opts: &Options, scratch: &Path) -> Outcome {
    let mut o = blank(name);
    let built_before = sut::built_so_far();

    // Set-up, repeated; the last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let (min_reps, max_reps) = if opts.check { (1, 1) } else { SETUP_REPS };
    while setup_s.len() < min_reps
        || (setup_s.len() < max_reps && setup_s.iter().sum::<f64>() < 1.0)
    {
        drop(w.take());
        let t = Instant::now();
        let fresh = sut::prepare(
            name,
            opts.seed,
            scale(opts),
            scratch,
            &mut Recorder::new(name),
        );
        setup_s.push(t.elapsed().as_secs_f64());
        w = Some(fresh);
    }
    let mut w = w.expect("set-up ran at least once");
    w.arm(opts.corrupt_oracle);
    o.digest = w.input_digest();
    o.stream_tuples = w.stream_tuples();
    o.live_tuples = w.live_tuples();

    // One discarded warm-up round, then measured rounds until the time
    // is spent. Outputs of every round, warm-up included, are checked.
    let clock = Instant::now();
    let warm = w.bulk_round();
    tally(&mut o, &warm);
    let mut tput = Vec::new();
    let mut state = Vec::new();
    let mut apply_ns: Vec<u32> = Vec::new();
    let mut read_ns: Vec<u32> = Vec::new();
    // Where each round's samples end, for the per-round spread.
    let mut apply_ends = Vec::new();
    let mut read_ends = Vec::new();
    // `--check` is about correctness: one round is all it needs.
    let (min_rounds, max_rounds) = if opts.check {
        (1, 1)
    } else {
        (MIN_ROUNDS, MAX_ROUNDS)
    };
    loop {
        let b = w.bulk_round();
        tally(&mut o, &b);
        tput.push(o.stream_tuples as f64 / b.secs);
        state.push(b.state_bytes as f64 / o.live_tuples.max(1) as f64);
        let l = w.latency_round(&mut apply_ns, &mut read_ns);
        tally(&mut o, &l);
        apply_ends.push(apply_ns.len());
        read_ends.push(read_ns.len());
        o.rounds += 1;
        let spent = clock.elapsed().as_secs_f64();
        let per_round = spent / (o.rounds as f64 + 0.5);
        if o.rounds >= max_rounds || (o.rounds >= min_rounds && spent + per_round > opts.seconds) {
            break;
        }
    }
    o.measured_s = clock.elapsed().as_secs_f64();

    let built = sut::built_so_far();
    let broken = bypass_violations(name, opts, &built_before, &built, scratch);
    o.attempted += 1;
    o.failed += u64::from(!broken.is_empty());
    for b in &broken {
        eprintln!("{name}: bypass assertion failed: {b}");
    }

    // A percentile is taken within each round and the median over
    // rounds reported: pooled over rounds, a tail percentile belongs to
    // whichever rounds a noisy neighbour disturbed.
    let apply_p50 = per_round(&mut apply_ns, &apply_ends, |s| stats::percentile(s, 0.5));
    let apply_tail = per_round(&mut apply_ns, &apply_ends, |s| {
        stats::tail_percentile(s, 0.99, 10).1
    });
    let read_p50 = per_round(&mut read_ns, &read_ends, |s| stats::percentile(s, 0.5));
    let calls_per_round = apply_ends[0];
    let tail_pct = stats::tail_percentile(&apply_ns[..calls_per_round], 0.99, 10).0;
    let percentile_metric =
        |name: &str, rounds: &[f64], samples: usize, note: Option<String>| Metric {
            name: name.into(),
            unit: "us".into(),
            value: stats::median(rounds),
            spread: Some(Summary {
                n: samples,
                ..stats::summarize(rounds)
            }),
            note,
        };
    let rounds_metric = |name: &str, unit: &str, values: &[f64]| Metric {
        name: name.into(),
        unit: unit.into(),
        value: stats::median(values),
        spread: Some(stats::summarize(values)),
        note: None,
    };
    o.metrics = vec![
        rounds_metric("setup_s", "s", &setup_s),
        rounds_metric("updates_per_s", "tuples/s", &tput),
        percentile_metric("apply_p50_us", &apply_p50, apply_ns.len(), None),
        percentile_metric(
            "apply_p99_us",
            &apply_tail,
            apply_ns.len(),
            (tail_pct != 0.99).then(|| {
                format!(
                    "p{:.2}: the highest percentile with 10 of a round's {calls_per_round} samples beyond it",
                    tail_pct * 100.0
                )
            }),
        ),
        rounds_metric("state_bytes_per_tuple", "B", &state),
        percentile_metric("read_p50_us", &read_p50, read_ns.len(), None),
    ];
    o
}

/// `pick` of each round's samples, in microseconds; round `i` ends at
/// `ends[i]`. Sorts each round's slice in place. A round without
/// samples contributes nothing (and a metric without rounds reads NaN,
/// which fails the run).
fn per_round(samples: &mut [u32], ends: &[usize], pick: impl Fn(&[u32]) -> u32) -> Vec<f64> {
    let mut start = 0;
    ends.iter()
        .filter_map(|&end| {
            let round = &mut samples[start..end];
            start = end;
            round.sort_unstable();
            (!round.is_empty()).then(|| f64::from(pick(round)) / 1e3)
        })
        .collect()
}

/// What each workload must not have touched in its end-to-end rounds,
/// read off the adapter's construction counters and the file system.
fn bypass_violations(
    name: &str,
    opts: &Options,
    before: &Built,
    after: &Built,
    scratch: &Path,
) -> Vec<String> {
    let made = |f: fn(&Built) -> u64| f(after) - f(before);
    let mut broken = Vec::new();
    let mut only = |what: &str, count: u64, owner: &str| {
        if (name == owner) != (count > 0) {
            broken.push(format!(
                "{what}: {count} built by {name} (belongs to {owner} alone)"
            ));
        }
    };
    only(
        "IvmEngine<Cofactor>",
        made(|b| b.ivm_cofactor),
        "retailer_cofactor_batch",
    );
    only(
        "TriangleHlEngine",
        made(|b| b.heavy_light),
        "triangle_hl_churn",
    );
    only("EngineChainIvm", made(|b| b.chain), "chain_rank1_factored");
    only(
        "Delta::Factored",
        made(|b| b.factored_deltas),
        "chain_rank1_factored",
    );
    only(
        "DurableEngine",
        made(|b| b.durable),
        "housing_durable_served",
    );
    only(
        "scratch directory",
        made(|b| b.scratch_dirs),
        "housing_durable_served",
    );
    if made(|b| b.serving) > 0 {
        broken.push("ServingEngine built in an end-to-end run".into());
    }
    if name != "housing_durable_served" && scratch.exists() {
        broken.push(format!("{} exists", scratch.display()));
    }
    // The classical engine appears beside heavy/light and the chain only
    // for the cross-check `--check` adds.
    let foreign_plain = matches!(name, "triangle_hl_churn" | "chain_rank1_factored") && !opts.check;
    if foreign_plain && made(|b| b.ivm_other) > 0 {
        broken.push(format!("plain IvmEngine built by {name}"));
    }
    broken
}

/// The traced run of one workload: every per-layer metric, and the
/// span file.
fn traced(name: &str, opts: &Options, scratch: &Path) -> Outcome {
    let mut o = blank(name);
    let mut rec = Recorder::new(name);
    let clock = Instant::now();
    let mut w = sut::prepare(name, opts.seed, scale(opts), scratch, &mut rec);
    w.arm(opts.corrupt_oracle);
    o.digest = w.input_digest();
    o.stream_tuples = w.stream_tuples();
    o.live_tuples = w.live_tuples();
    let mut layers = Layers::default();
    let r = w.traced(&mut rec, opts.seconds, &mut layers);
    tally(&mut o, &r);
    o.measured_s = clock.elapsed().as_secs_f64();
    let to_metric = |(name, value, unit): (String, f64, &'static str)| Metric {
        name,
        unit: unit.to_string(),
        value,
        spread: None,
        note: None,
    };
    o.metrics = layers.contract.into_iter().map(to_metric).collect();
    o.extra = layers.extra.into_iter().map(to_metric).collect();
    let file = opts.out_dir.join(format!("trace-{name}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir).and_then(|()| rec.write_jsonl(&file)) {
        eprintln!("cannot write {}: {e}", file.display());
        o.failed += 1;
    }
    o
}

/// The reported metrics must be exactly the ones `BENCHMARK.json`
/// declares, with its units and finite values; anything else is a
/// failed check.
fn conform(o: &mut Outcome, declared: &[MetricSpec]) {
    o.attempted += 1;
    let mut problems = Vec::new();
    for d in declared {
        match o
            .metrics
            .iter()
            .filter(|m| m.name == d.name)
            .collect::<Vec<_>>()[..]
        {
            [m] if m.unit != d.unit => {
                problems.push(format!("{}: unit {} ≠ {}", d.name, m.unit, d.unit))
            }
            [m] if !m.value.is_finite() => problems.push(format!("{}: value {}", d.name, m.value)),
            [_] => {}
            [] => problems.push(format!("{}: not reported", d.name)),
            _ => problems.push(format!("{}: reported more than once", d.name)),
        }
    }
    for m in &o.metrics {
        if !declared.iter().any(|d| d.name == m.name) {
            problems.push(format!("{}: not declared in BENCHMARK.json", m.name));
        }
    }
    for p in &problems {
        eprintln!("{}: {p}", o.workload);
    }
    o.failed += u64::from(!problems.is_empty());
}

fn print_outcome(o: &Outcome, wall_s: f64) {
    eprintln!(
        "\n== {} — {} tuples/round, {} rounds, measured {:.1} s, whole run {:.1} s, input_digest {:#018x}",
        o.workload, o.stream_tuples, o.rounds, o.measured_s, wall_s, o.digest
    );
    for m in o.metrics.iter().chain(&o.extra) {
        let spread = m
            .spread
            .map(|s| format!("   iqr {:.4}  n {}", s.iqr, s.n))
            .unwrap_or_default();
        let note = m
            .note
            .as_deref()
            .map(|n| format!("   ({n})"))
            .unwrap_or_default();
        eprintln!(
            "  {:<44} {:>16.4} {:<9}{spread}{note}",
            m.name, m.value, m.unit
        );
    }
    let pct = 100.0 * o.failed as f64 / o.attempted.max(1) as f64;
    eprintln!(
        "  {:<44} {:>16.4} {:<9}   {} of {} operations and checks failed",
        "ops_failed_pct", pct, "%", o.failed, o.attempted
    );
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("value".to_string(), Json::Num(m.value)),
        ("unit".to_string(), Json::str(m.unit.as_str())),
    ];
    if let Some(s) = m.spread {
        pairs.push(("median".into(), Json::Num(s.median)));
        pairs.push(("iqr".into(), Json::Num(s.iqr)));
        pairs.push(("n".into(), Json::Num(s.n as f64)));
    }
    if let Some(n) = &m.note {
        pairs.push(("note".into(), Json::str(n.as_str())));
    }
    Json::Obj(pairs)
}

fn result_line(o: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted.max(1) as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit.as_str())),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn results_doc(opts: &Options, outcomes: &[Outcome], wall_s: f64) -> Json {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let metrics = |ms: &[Metric]| {
                Json::Obj(
                    ms.iter()
                        .map(|m| (m.name.clone(), metric_json(m)))
                        .collect(),
                )
            };
            Json::obj([
                ("name", Json::str(o.workload.as_str())),
                ("input_digest", Json::Str(format!("{:#018x}", o.digest))),
                ("stream_tuples", Json::Num(o.stream_tuples as f64)),
                ("live_tuples", Json::Num(o.live_tuples as f64)),
                ("rounds", Json::Num(o.rounds as f64)),
                ("measured_s", Json::Num(o.measured_s)),
                ("attempted", Json::Num(o.attempted as f64)),
                ("failed", Json::Num(o.failed as f64)),
                (
                    "ops_failed_pct",
                    Json::Num(100.0 * o.failed as f64 / o.attempted.max(1) as f64),
                ),
                ("metrics", metrics(&o.metrics)),
                ("layer_extra", metrics(&o.extra)),
            ])
        })
        .collect();
    Json::obj([
        ("benchmark", Json::str("fivm-benchmark")),
        (
            "mode",
            Json::str(if opts.trace { "trace" } else { "end_to_end" }),
        ),
        (
            "scale",
            Json::str(if opts.check { "check" } else { "full" }),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("wall_s", Json::Num(wall_s)),
        ("host", host()),
        (
            "git_sha",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// First line a command prints, or `unknown` (the benchmark also runs
/// in checkouts that are not git repositories).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .map_or(Json::Null, Json::Str);
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .ok()
        .map_or(Json::Null, |g| Json::Str(g.trim().to_string()));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", cpu_model),
        ("governor", governor),
    ])
}

#[cfg(test)]
mod tests {
    use super::Scratch;

    #[test]
    fn scratch_is_removed_on_success_and_on_panic() {
        let base = std::env::temp_dir().join(format!(
            "fivm-benchmark-scratch-test-{}",
            std::process::id()
        ));
        for panics in [false, true] {
            let dir = base.join("scratch").join("1");
            let inner = dir.clone();
            let outcome = std::thread::spawn(move || {
                let _guard = Scratch(inner.clone());
                std::fs::create_dir_all(inner.join("served-0")).unwrap();
                std::fs::write(inner.join("served-0").join("wal-0.log"), b"x").unwrap();
                assert!(!panics, "a workload panicked");
            })
            .join();
            assert_eq!(outcome.is_err(), panics);
            assert!(
                !dir.exists(),
                "scratch directory survived (panic: {panics})"
            );
            assert!(
                !base.join("scratch").exists(),
                "empty scratch parent survived"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
