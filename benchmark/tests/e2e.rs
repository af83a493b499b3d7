//! End-to-end tests of the benchmark program itself, at `--check`
//! sizes: the reports carry exactly the metrics `BENCHMARK.json`
//! declares, inputs depend on the seed and on nothing else, a wrong
//! oracle is noticed, and nothing is left behind.

use fivm_benchmark::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 6] = [
    "housing_sum_single",
    "retailer_cofactor_batch",
    "triangle_count_churn",
    "triangle_hl_churn",
    "chain_rank1_factored",
    "housing_durable_served",
];

/// A private output directory under `out/`, removed on drop.
struct OutDir(PathBuf);

impl OutDir {
    fn new(tag: &str) -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        OutDir(dir)
    }

    fn json(&self, file: &str) -> Json {
        let text = std::fs::read_to_string(self.0.join(file)).expect("result file written");
        Json::parse(&text).expect("result file is JSON")
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench(out: &OutDir, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fivm-benchmark"))
        .arg("run")
        .arg("--check")
        .arg("--out")
        .arg(&out.0)
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn declared(section: &str) -> Vec<(String, String)> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .expect("section present")
        .as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// Every declared metric appears exactly once per workload, with the
/// declared unit; nothing undeclared appears; nothing failed.
fn assert_report_matches(doc: &Json, declared: &[(String, String)]) {
    let workloads = doc.get("workloads").expect("workloads").as_arr();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        let Some(Json::Obj(metrics)) = w.get("metrics") else {
            panic!("{name}: no metrics object");
        };
        for (metric, unit) in declared {
            let hits: Vec<&Json> = metrics
                .iter()
                .filter(|(k, _)| k == metric)
                .map(|(_, v)| v)
                .collect();
            assert_eq!(
                hits.len(),
                1,
                "{name}: {metric} reported {} times",
                hits.len()
            );
            assert_eq!(
                hits[0].get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}: {metric}"
            );
            let value = hits[0].get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name}: {metric} = {value:?}"
            );
        }
        for (metric, _) in metrics {
            assert!(
                declared.iter().any(|(d, _)| d == metric),
                "{name}: undeclared metric {metric}"
            );
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(metric.chars().all(ok), "{name}: bad metric name {metric:?}");
        }
        assert_eq!(
            w.get("ops_failed_pct").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
    }
}

/// The last line of standard output is the contract's result object.
fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

#[test]
fn end_to_end_report_has_exactly_the_declared_metrics() {
    let out = OutDir::new("e2e");
    let run = bench(&out, &[]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let declared = declared("end_to_end");
    assert_report_matches(&out.json("results.json"), &declared);
    let Json::Obj(line) = last_line(&run) else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = line.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line[0].1, Json::Bool(true));
    // Fingerprint fields `compare` prints.
    let doc = out.json("results.json");
    for field in ["host", "git_sha", "rustc", "seed"] {
        assert!(doc.get(field).is_some(), "results.json lacks {field}");
    }
    assert!(
        !out.0.join("scratch").exists(),
        "scratch directory left behind"
    );
}

#[test]
fn traced_report_has_exactly_the_declared_layer_metrics_and_span_files() {
    let out = OutDir::new("trace");
    let run = bench(&out, &["--trace", "1"]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_report_matches(&out.json("results-trace.json"), &declared("per_layer"));
    for w in WORKLOADS {
        let spans =
            std::fs::read_to_string(out.0.join(format!("trace-{w}.jsonl"))).expect("span file");
        let first =
            Json::parse(spans.lines().next().expect("at least one span")).expect("span is JSON");
        for field in ["name", "start_ns", "end_ns", "parent", "workload", "round"] {
            assert!(first.get(field).is_some(), "{w}: span lacks {field}");
        }
        assert!(
            spans.lines().any(|l| l.starts_with("{\"agg\"")),
            "{w}: no aggregate lines"
        );
    }
    assert!(
        !out.0.join("scratch").exists(),
        "scratch directory left behind"
    );
}

#[test]
fn a_corrupted_oracle_input_fails_the_run() {
    for w in WORKLOADS {
        let out = OutDir::new(&format!("corrupt-{w}"));
        let run = bench(&out, &["--workload", w, "--corrupt-oracle"]);
        assert_eq!(
            run.status.code(),
            Some(1),
            "{w}: a wrong oracle went unnoticed"
        );
        assert_eq!(
            last_line(&run).get("correct"),
            Some(&Json::Bool(false)),
            "{w}"
        );
    }
}

#[test]
fn inputs_depend_on_the_seed_and_on_nothing_else() {
    let digests = |seed: &str, tag: &str| -> Vec<String> {
        let out = OutDir::new(tag);
        let run = bench(&out, &["--seed", seed]);
        assert!(run.status.success());
        let doc = out.json("results.json");
        let workloads = doc.get("workloads").unwrap().as_arr();
        workloads
            .iter()
            .map(|w| {
                w.get("input_digest")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let a = digests("11", "seed-a");
    assert_eq!(a, digests("11", "seed-b"), "same seed, different inputs");
    let c = digests("12", "seed-c");
    for (i, w) in WORKLOADS.iter().enumerate() {
        assert_ne!(a[i], c[i], "{w}: seeds 11 and 12 gave the same inputs");
    }
}

#[test]
fn compare_accepts_a_file_against_itself_and_flags_a_regression() {
    let out = OutDir::new("compare");
    assert!(bench(&out, &[]).status.success());
    let a = out.0.join("results.json");
    let compare = |b: &Path| {
        Command::new(env!("CARGO_BIN_EXE_fivm-benchmark"))
            .arg("compare")
            .arg(&a)
            .arg(b)
            .output()
            .expect("compare runs")
    };
    let same = compare(&a);
    assert_eq!(same.status.code(), Some(0));
    let table = String::from_utf8_lossy(&same.stdout);
    assert_eq!(
        table.matches(" ok").count(),
        WORKLOADS.len() * declared("end_to_end").len()
    );

    // Halve one throughput: far beyond any bound or spread.
    let mut doc = out.json("results.json");
    fn halve(j: &mut Json) {
        if let Json::Obj(pairs) = j {
            for (k, v) in pairs.iter_mut() {
                if k == "updates_per_s" {
                    if let Json::Obj(m) = v {
                        for (mk, mv) in m.iter_mut() {
                            if let (true, Json::Num(x)) = (mk == "value", &mut *mv) {
                                *x /= 2.0;
                            }
                            if let (true, Json::Num(x)) = (mk == "iqr", &mut *mv) {
                                *x = 0.0;
                            }
                        }
                    }
                } else {
                    halve(v);
                }
            }
        } else if let Json::Arr(items) = j {
            items.iter_mut().take(1).for_each(halve);
        }
    }
    halve(&mut doc);
    let b = out.0.join("halved.json");
    std::fs::write(&b, doc.pretty()).unwrap();
    let worse = compare(&b);
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("worse"));
}
