#!/bin/sh
# Reproduces the paper's figures in --quick mode and holds the run to the
# committed baseline (BENCH_baseline.json) with `reproduce check`: every row
# kind present, every required field and fixed value on every row, and the
# deterministic rows identical. The rules live in one table,
# om_bench::json::KINDS; wall-clock rows and fields are never compared.
#
# Usage: scripts/bench.sh [--update]
#   --update    rewrite BENCH_baseline.json from the current run, once the
#               run passes the table's checks against itself
set -eu

cd "$(dirname "$0")/.."
baseline=BENCH_baseline.json
json=$(mktemp)
trap 'rm -f "$json"' EXIT

reproduce() {
    cargo run --release -q -p om-bench --bin reproduce -- "$@"
}

reproduce all --quick --json "$json"

if [ "${1:-}" = "--update" ]; then
    reproduce check "$json" "$json"
    cp "$json" "$baseline"
    echo "updated $baseline"
    exit 0
fi

if ! reproduce check "$baseline" "$json"; then
    echo "(run scripts/bench.sh --update if the change is intended)" >&2
    exit 1
fi
