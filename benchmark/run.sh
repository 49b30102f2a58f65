#!/usr/bin/env bash
# The one command of the repo benchmark (see README.md).
#
#   run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#       One run, as the driver calls it: builds the benchmark (release,
#       offline), runs one workload, and prints the result JSON as the last
#       line of standard output.
#   run.sh [--seed <n>] [--seconds <n>]
#       One full set: every workload untraced, then every workload traced;
#       one line per run lands in out/result-<stamp>.jsonl.
#   run.sh --agree [--seed <n>] [--seconds <n>]
#       Two full sets back to back; exits non-zero if any end-to-end metric
#       differs between them by more than its bound, in either direction, or
#       a deterministic meter differs at all on cold-csv / warm-zone.
#   run.sh --list
#       The workload names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
bin="${CARGO_TARGET_DIR:-$here/target}/release/pai-benchmark"

# The program is built here, from source, in release mode; the binary itself
# refuses to measure a debug build.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
mkdir -p "$out"

mode=set
seed=42
seconds=10
passthrough=()
other=()
while [ $# -gt 0 ]; do
    case "$1" in
        --list) exec "$bin" --list ;;
        --agree) mode=agree; shift ;;
        --workload) mode=one; passthrough+=("$1" "${2-}"); shift 2 || shift ;;
        --seed) seed="${2-}"; passthrough+=("$1" "${2-}"); shift 2 || shift ;;
        --seconds) seconds="${2-}"; passthrough+=("$1" "${2-}"); shift 2 || shift ;;
        *) other+=("$1"); passthrough+=("$1"); shift ;;
    esac
done

if [ "$mode" = one ]; then
    # The binary checks the rest (--trace and its value, unknown flags).
    exec "$bin" "${passthrough[@]}" --out "$out"
fi
# A set runs every workload untraced and traced at the declared size: it
# takes nothing but a seed and a length, and says so.
if [ ${#other[@]} -gt 0 ]; then
    echo "run.sh: '${other[*]}' only goes with --workload <name>" >&2
    exit 2
fi

# Writes one full set to the file named by $1.
run_set() {
    local file="$1" trace workload log
    : > "$file"
    for trace in 0 1; do
        for workload in $("$bin" --list); do
            log="$out/run-$workload-trace$trace.log"
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" --out "$out" | tee "$log" | sed '$d'
            printf '{"workload": "%s", "trace": %s, "seed": %s, "result": %s}\n' \
                "$workload" "$trace" "$seed" "$(tail -n 1 "$log")" >> "$file"
        done
    done
    echo "result file: $file"
}

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "commit=$commit $(rustc -V) nproc=$(nproc) seed=$seed seconds=$seconds"
stamp="$(date +%Y%m%d-%H%M%S)"
if [ "$mode" = agree ]; then
    run_set "$out/result-$stamp-a.jsonl"
    run_set "$out/result-$stamp-b.jsonl"
    exec "$bin" --compare "$out/result-$stamp-a.jsonl" "$out/result-$stamp-b.jsonl" \
        --bounds "$here/../BENCHMARK.json"
fi
run_set "$out/result-$stamp.jsonl"
