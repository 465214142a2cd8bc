#!/usr/bin/env bash
# Interleaved parent/change benchmark pairs (choosing-metrics §8).
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <pairs> [first-seed]
#
# Builds the benchmark package of both checkouts once, then takes <pairs>
# pairs of complete runs (all six workloads, untraced, run length and every
# other setting from BENCHMARK.json), pair i on seed first-seed + i - 1,
# alternating which side runs first. Each run's benchmark/out/result.json is
# copied to <change-checkout>/benchmark/out/pairs/{A,B}<i>.json (A = parent,
# B = change). Finishes with the change's `benchmark compare A1 B1 A2 B2 …`
# and, per pair, the serve-saturate diagnostics its gated number is blind to
# (benchmark/README.md asks for them from any PR that touches a waiting path).
# The exit code is compare's. A full run takes about 100 s, so ten pairs take
# a little over half an hour; leave the host idle meanwhile.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=$3
first_seed=${4:-1}
pairs_dir="$change/benchmark/out/pairs"

bench() { # <checkout> <benchmark args…>
    local dir=$1
    shift
    (cd "$dir" && cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- "$@")
}

run_side() { # <checkout> <A|B> <pair index> <seed>
    echo "## pair $3 side $2 seed $4 ($1)" >&2
    # A failed in-run gate exits 1 but still writes result.json; compare
    # reports it as a violation, so keep going.
    bench "$1" --seed "$4" >/dev/null || echo "## run exited $? (kept)" >&2
    cp "$1/benchmark/out/result.json" "$pairs_dir/$2$3.json"
}

for dir in "$parent" "$change"; do
    (cd "$dir" && cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
done
mkdir -p "$pairs_dir"
rm -f "$pairs_dir"/[AB]*.json

files=()
for i in $(seq 1 "$pairs"); do
    seed=$((first_seed + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run_side "$parent" A "$i" "$seed"
        run_side "$change" B "$i" "$seed"
    else
        run_side "$change" B "$i" "$seed"
        run_side "$parent" A "$i" "$seed"
    fi
    files+=("$pairs_dir/A$i.json" "$pairs_dir/B$i.json")
done

metric() { # <result.json> <name> -> value, or "-" when the run lacks it
    grep -o "\"$2\": {\"value\": [^,}]*" "$1" | head -n 1 | sed 's/.*: //' | grep . || echo -
}
echo "# serve-saturate diagnostics per pair: fast_share window_rps slow_rps"
for i in $(seq 1 "$pairs"); do
    for side in A B; do
        f="$pairs_dir/$side$i.json"
        echo "# pair $i $side  $(metric "$f" serve.saturate.fast_share)" \
            "$(metric "$f" serve.saturate.window_rps)" \
            "$(metric "$f" serve.saturate.slow_rps)"
    done
done

bench "$change" compare "${files[@]}"
