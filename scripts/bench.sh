#!/usr/bin/env bash
# Parent-versus-change benchmark series, summarized into BENCH_<pr>.json.
#
#   PR=<n> scripts/bench.sh <parent> <change> [seed...]
#
# Builds the benchmark of both commits from temporary checkouts (git
# archive: committed files only), each at the same build path: cargo
# derives a path dependency's `-C metadata`, and so every symbol name and
# the code layout, from its directory, so two paths would move timings
# that no source change made. Each side's binary is copied into its own
# checkout, which its runs cd into. Then for each seed (default 7) and each
# workload runs PAIRS alternating pairs of
#   va-benchmark run --workload W --seed S --seconds 24 --trace 0
# (the side that runs first alternates from pair to pair), plus one
# --trace 1 run per side. Each run's result line is appended to
# $BENCH_DIR/runs-<seed>.tsv, and BENCH_<pr>.json is rebuilt from every
# runs-*.tsv in $BENCH_DIR by `bench-report` (crates/bench/src/compare.rs):
# every raw line, each side's median and quartiles, pairs won, and a
# verdict per metric against the bounds in BENCHMARK.json. A second call
# with the same BENCH_DIR and another seed adds its series to the file.
#
# Environment:
#   PR            the number the output file is named after (required)
#   PAIRS         pairs per workload and seed (default 10); a series of
#                 fewer than 10 never reads `gain` (bench-report says
#                 `unresolved` instead), so a shorter one only smoke-tests
#   WORKLOADS     default "solver_deep demand_wide wire_fanout durable_tenants"
#   BENCH_DIR     checkouts and raw runs (default: a directory under
#                 ${TMPDIR:-/tmp} named after both commits; kept afterwards)
#   OUT           the summary file (default BENCH_<PR>.json at the repo root)
#
# Run it on an otherwise idle machine: nothing may compile while it
# measures, which is why every build happens before the first run.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 2 || -z "${PR:-}" ]]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
shift 2
seeds=("$@")
[[ ${#seeds[@]} -gt 0 ]] || seeds=(7)
PAIRS=${PAIRS:-10}
# Every run is this long, so every series a BENCH file summarizes is too.
readonly SECONDS_PER_RUN=24
WORKLOADS=${WORKLOADS:-"solver_deep demand_wide wire_fanout durable_tenants"}
BENCH_DIR=${BENCH_DIR:-${TMPDIR:-/tmp}/va-bench-${parent:0:12}-${change:0:12}}
OUT=${OUT:-BENCH_${PR}.json}
mkdir -p "$BENCH_DIR"

build=$BENCH_DIR/build
checkout() { # side rev -> directory holding a built benchmark of that commit
    local dir=$BENCH_DIR/$1-${2:0:12}
    local bin=benchmark/target/release/va-benchmark
    if [[ ! -x $dir/$bin ]]; then
        rm -rf "$dir" "$build"
        mkdir -p "$dir" "$build"
        git archive "$2" | tar -x -C "$dir"
        git archive "$2" | tar -x -C "$build"
        echo "==> building the benchmark of ${2:0:12} ($1) in $build" >&2
        cargo build --release --offline -q --manifest-path "$build/benchmark/Cargo.toml" \
            --target-dir "$build/benchmark/target" >&2
        mkdir -p "$(dirname "$dir/$bin")"
        cp "$build/$bin" "$dir/$bin"
    fi
    echo "$dir"
}
declare -A dirs
dirs[parent]=$(checkout parent "$parent")
dirs[change]=$(checkout change "$change")
rm -rf "$build"
echo "==> building bench-report" >&2
cargo build --release --offline -q -p va-bench --bin bench-report

# run SIDE WORKLOAD SEED PAIR FIRST TRACE: one run, appended to the raw file.
run() {
    local line
    line=$(cd "${dirs[$1]}" &&
        benchmark/target/release/va-benchmark run --workload "$2" --seed "$3" \
            --seconds "$SECONDS_PER_RUN" --trace "$6" 2>/dev/null | tail -n 1) || true
    if [[ $line != \{* ]]; then
        echo "bench.sh: $1 $2 seed $3 pair $4 printed no result line" >&2
        exit 1
    fi
    printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$4" "$5" "$6" "$line" \
        >>"$BENCH_DIR/runs-$3.tsv"
    echo "    $1 $2 seed $3 pair $4 trace $6" >&2
}

for seed in "${seeds[@]}"; do
    : >"$BENCH_DIR/runs-$seed.tsv"
    for workload in $WORKLOADS; do
        echo "==> $workload, seed $seed: $PAIRS pairs" >&2
        for ((pair = 0; pair < PAIRS; pair++)); do
            if ((pair % 2 == 0)); then
                run parent "$workload" "$seed" "$pair" 1 0
                run change "$workload" "$seed" "$pair" 0 0
            else
                run change "$workload" "$seed" "$pair" 1 0
                run parent "$workload" "$seed" "$pair" 0 0
            fi
        done
        run parent "$workload" "$seed" 0 1 1
        run change "$workload" "$seed" 0 0 1
    done
done

target/release/bench-report --pr "$PR" --parent "$parent" --change "$change" \
    --seconds "$SECONDS_PER_RUN" --host "$(nproc) CPUs, $(uname -sr)" \
    --bounds BENCHMARK.json "$BENCH_DIR"/runs-*.tsv >"$OUT"
echo "==> wrote $OUT from $(cat "$BENCH_DIR"/runs-*.tsv | wc -l) runs in $BENCH_DIR" >&2
