//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! fivm-benchmark run [--workload NAME]… [--seed N] [--seconds S] [--trace [0|1]] [--check] [--out DIR]
//! fivm-benchmark compare A.json B.json
//! ```

use fivm_benchmark::{alloc, compare, run, spec};

// Installed here so every allocation of the process is counted; the
// heap metrics read the counter through `alloc::live_bytes`.
#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  fivm-benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--check] [--out DIR]
  fivm-benchmark compare A.json B.json";

fn main() {
    // Every end-to-end number is the single-writer, one-worker
    // baseline: the engine reads these at construction. No other
    // thread exists yet.
    std::env::remove_var("FIVM_WORKERS");
    std::env::remove_var("FIVM_PAR_THRESHOLD");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run::run(&opts),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn parse_run(args: &[String]) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workloads: Vec::new(),
        seed: 11,
        seconds: spec::Spec::load().run_seconds,
        trace: false,
        check: false,
        corrupt_oracle: false,
        out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => opts.workloads.push(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => opts.check = true,
            "--out" => opts.out_dir = value("a directory")?.into(),
            // For the package's own test: perturb one oracle input and
            // expect the run to fail.
            "--corrupt-oracle" => opts.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}
