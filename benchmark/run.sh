#!/usr/bin/env bash
# Build the benchmark and run it; arguments go to `fivm-benchmark run`.
#   benchmark/run.sh --seed 11              all workloads, end to end
#   benchmark/run.sh --seed 11 --trace      the traced run (per-layer numbers)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "$@"
