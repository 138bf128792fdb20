#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# Builds the benchmark package from source (offline, release, into
# $CARGO_TARGET_DIR or benchmark/target) and runs each requested workload in
# a process of its own, one after another, so peak memory is per workload and
# no two workloads share the two cores. Every metric is printed by name with
# its unit; the last line of a workload's output is the one-line JSON result.
# Exits non-zero if the build fails or any output check fails. Writes only
# under benchmark/out/ and the cargo target directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workloads=()
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload)
            [ $# -ge 2 ] || { echo "--workload needs a name" >&2; exit 2; }
            workloads+=("$2"); shift 2 ;;
        *) pass+=("$1"); shift ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(cold_community cold_skew_wire stream_churn serve_lookup)
fi

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

status=0
for w in "${workloads[@]}"; do
    "$target/release/spinner-benchmark" --out benchmark/out --workload "$w" "${pass[@]}" || status=$?
done
exit $status
