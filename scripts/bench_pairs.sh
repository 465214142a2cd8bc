#!/usr/bin/env bash
# Interleaved parent/change benchmark pairs (choosing-metrics §8).
#
#   scripts/bench_pairs.sh [--claim <workload>/<metric>] [--only <workload>]
#                          <parent-checkout> <change-checkout> <pairs> [first-seed]
#
# Builds the benchmark package of both checkouts once, then takes <pairs>
# pairs of complete runs (all six workloads, untraced, run length and every
# other setting from BENCHMARK.json), pair i on seed first-seed + i - 1,
# alternating which side runs first. Each run's benchmark/out/result.json is
# copied to <change-checkout>/benchmark/out/pairs/{A,B}<i>.json (A = parent,
# B = change). Finishes with the change's `benchmark compare A1 B1 A2 B2 …`
# and, per pair, the serve-saturate diagnostics its gated number is blind to
# (benchmark/README.md asks for them from any PR that touches a waiting path)
# and each side's nest-tc peak_rss_mb, which glibc's mmap threshold puts at
# about 7.7 or about 11.1 MB whatever the code (bench/runs/PR-44.md §2), so
# a flip between the sides shows beside the compare that judges it.
# With --claim, it then judges one claimed gain by the §8 rule: each pair's
# A and B values of <metric> on <workload> and who won (ties count for
# neither), marking a side whose value exceeds twice that side's median (the
# host's slow regime, a mode switch rather than noise; the mark changes no
# verdict), each side's median and quartiles, and the verdict — met only
# when B wins at least nine tenths of the pairs and the medians differ, in
# the metric's better direction (BENCHMARK.json), by more than the distance
# between A's quartiles. The exit code is compare's, or 1 when a claim is not
# met. A full run takes about 100 s, so ten pairs take a little over half an
# hour; leave the host idle meanwhile.
#
# --only <workload> runs that one workload per side instead of all six, so
# a claim can be iterated on quickly (a serve-pingpong run takes about 11 s,
# against about 100 s for all six). It does not replace the six-workload
# run that accepts a change: the other workloads' bounds are judged only
# there.
set -euo pipefail

claim=
only=
while [ "$#" -gt 0 ]; do
    case $1 in
        --claim) claim=${2:?--claim needs <workload>/<metric>} && shift 2 ;;
        --only) only=${2:?--only needs <workload>} && shift 2 ;;
        *) break ;;
    esac
done
if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    sed -n '2,6p' "$0" >&2
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
    bench "$1" --seed "$4" ${only:+--workload "$only"} >/dev/null ||
        echo "## run exited $? (kept)" >&2
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

echo "# per pair: serve-saturate fast_share window_rps slow_rps; nest-tc peak_rss_mb"
python3 - "$pairs_dir" "$pairs" <<'PY'
import json, sys

pairs_dir, pairs = sys.argv[1], int(sys.argv[2])
wanted = [("serve-saturate", "serve.saturate.fast_share"),
          ("serve-saturate", "serve.saturate.window_rps"),
          ("serve-saturate", "serve.saturate.slow_rps"),
          ("nest-tc", "peak_rss_mb")]
for i in range(1, pairs + 1):
    for side in "AB":
        runs = json.load(open(f"{pairs_dir}/{side}{i}.json")).get("runs", [])
        def value(workload, metric):
            for run in runs:
                if run.get("workload") == workload and metric in run.get("metrics", {}):
                    return str(run["metrics"][metric]["value"])
            return "-"
        saturate = " ".join(value(w, m) for w, m in wanted[:3])
        print(f"# pair {i} {side}  {saturate}; {value(*wanted[3])}")
PY

status=0
bench "$change" compare "${files[@]}" || status=$?
if [ -n "$claim" ]; then
    # Quartiles as the driver takes them: Python's statistics.quantiles(n=4).
    python3 - "$change/BENCHMARK.json" "$claim" "$pairs_dir" "$pairs" <<'PY' || status=1
import json, math, statistics, sys

spec_path, claim, pairs_dir, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
workload, metric = claim.split("/", 1)
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
if metric not in better:
    sys.exit(f"claim: {metric} is not a metric BENCHMARK.json declares")
lower = better[metric] == "lower"

def value(side, i):
    doc = json.load(open(f"{pairs_dir}/{side}{i}.json"))
    for run in doc["runs"]:
        if run["workload"] == workload:
            return run["metrics"][metric]["value"]
    sys.exit(f"claim: {side}{i}.json has no {workload} run")

a = [value("A", i) for i in range(1, pairs + 1)]
b = [value("B", i) for i in range(1, pairs + 1)]
print(f"# claim {workload}/{metric} ({'lower' if lower else 'higher'} is better)")
def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
qa, qb = quartiles(a), quartiles(b)
ma, mb = statistics.median(a), statistics.median(b)
# A side whose value exceeds twice its own median ran in the host's slow
# regime (a different mode, not noise around this one): marked, not dropped.
def slow(side, v, m):
    return f"  [{side} slow regime: > 2x its median]" if v > 2 * m else ""
wins = 0
for i, (x, y) in enumerate(zip(a, b), 1):
    won = y < x if lower else y > x
    wins += won
    print(f"# pair {i}: A {x:.4f}  B {y:.4f}  B/A {y / x:.3f}  {'B wins' if won else 'tie' if x == y else 'A wins'}"
          f"{slow('A', x, ma)}{slow('B', y, mb)}")
gap = ma - mb if lower else mb - ma
spread = qa[2] - qa[0]
need = math.ceil(0.9 * pairs)
print(f"# A median {ma:.4f} [quartiles {qa[0]:.4f}-{qa[2]:.4f}]  B median {mb:.4f} [quartiles {qb[0]:.4f}-{qb[2]:.4f}]")
print(f"# B wins {wins}/{pairs} pairs (need {need}); median gap {gap:+.4f} ({gap / ma:+.1%} of A) vs A quartile distance {spread:.4f}")
met = wins >= need and gap > spread
print(f"# claim {'MET' if met else 'NOT MET'}")
sys.exit(0 if met else 1)
PY
fi
exit "$status"
