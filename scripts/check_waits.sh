#!/usr/bin/env bash
# There is one spin → yield → park ladder and one eventcount in this
# repository: crates/runtime/src/wait.rs. There is one JSON writer and one
# string escaper: crates/core/src/json.rs. Library state is passed by
# handle, not reached through process globals or environment knobs. The
# real-thread runtime and the server build without the simulator. This
# check keeps it that way.
#
#   scripts/check_waits.sh
#
# Fails (exit 1, offending lines printed) if, in non-test, non-comment code
# under crates/*/src or src/,
#   * a waiting primitive — `yield_now(`, `thread::park`, `.unpark()`,
#     `Condvar`, `spin_loop(` — occurs outside wait.rs and the allow-list
#     below, or
#   * a JSON key literal (`\"name\":`, a document hand-formatted with
#     format!) occurs outside json.rs, or
#   * outside crates/bench (the CLI owns its process), an environment read
#     (`env::var(`, `env::var_os(`) or a `static` holding a `OnceLock`,
#     `OnceCell`, `LazyLock`, `Atomic*`, `Mutex` or `RwLock` occurs that
#     the allow-list below does not name (`static NAME` entries);
# and, apart from the source walk, if `afs-sim` is listed under
# `[dependencies]` of crates/{metrics,runtime,serve}/Cargo.toml, or a
# crates/trace directory exists (tracing lives in afs-metrics).
# "Non-test" is everything above a file's first `#[cfg(test)]` line (unit
# tests close every file here); tests/, benches/, examples/ and benchmark/
# are not looked at.
set -euo pipefail
cd "$(dirname "$0")/.."

# file | pattern | most occurrences allowed | why it is not a second
# ladder, or why the static is not hidden shared state
allow=(
    "crates/runtime/src/inject.rs|yield_now(|1|the seeded stress injector; yielding at a marked race window is its whole job"
    "crates/runtime/src/watchdog.rs|Condvar|4|the sampler's interval sleep (wait_timeout), which stop() cuts short; nobody waits for an event there"
    "crates/serve/src/server.rs|yield_now(|1|LoopServer::drain, a client-side shutdown/test poll; waking it would put a flag load on every retire"
    "crates/bench/src/serve.rs|yield_now(|2|load generator: a closed-loop client retrying a shed admit, and pacing its window"
    "crates/bench/src/chaos.rs|yield_now(|1|load generator: a client retrying a shed admit"
    "crates/runtime/src/affinity.rs|static TOPOLOGY|1|a cache of /sys: the host's NUMA topology, read once and never written after"
    "crates/metrics/src/recorder.rs|static DUMP_SEQ|1|a file-name disambiguator for two dumps in one millisecond; nothing reads it back"
)
patterns=('yield_now(' 'thread::park' '.unpark()' 'Condvar' 'spin_loop(')
globals='env::var(_os)?\(|static[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:[^=]*(OnceLock|OnceCell|LazyLock|Atomic[A-Za-z0-9]*|Mutex|RwLock)'

allowed() { # file pattern -> the allowed count, 0 when not listed
    local entry f p n
    for entry in "${allow[@]}"; do
        IFS='|' read -r f p n _ <<<"$entry"
        if [[ "$f" == "$1" && "$p" == "$2" ]]; then
            echo "$n"
            return
        fi
    done
    echo 0
}

status=0
for crate in metrics runtime serve; do
    manifest="crates/$crate/Cargo.toml"
    sim=$(awk '/^\[/ { deps = ($0 == "[dependencies]") } deps && /^afs-sim[[:space:]]*[.=]/ { print FNR ": " $0 }' "$manifest")
    if [[ -n "$sim" ]]; then
        echo "check_waits: $manifest depends on the simulator:" >&2
        sed 's/^/    /' <<<"$sim" >&2
        echo "check_waits: the runtime's build is the runtime; shared types live in afs-core (as the Timeline does)" >&2
        status=1
    fi
done
if [[ -d crates/trace ]]; then
    echo "check_waits: crates/trace exists; tracing is afs-metrics' trace module, one crate for all per-worker recording" >&2
    status=1
fi
while IFS= read -r file; do
    # Non-test code with comment lines dropped, line numbers kept.
    code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FNR ": " $0 }' "$file")
    if [[ "$file" != crates/core/src/json.rs ]]; then
        keys=$(grep -E '\\"[A-Za-z_][A-Za-z0-9_]*\\":' <<<"$code" || true)
        if [[ -n "$keys" ]]; then
            echo "check_waits: $file formats JSON by hand:" >&2
            sed 's/^/    /' <<<"$keys" >&2
            echo "check_waits: write JSON through afs_core::json (document / Encode)" >&2
            status=1
        fi
    fi
    if [[ "$file" != crates/bench/* ]]; then
        while IFS= read -r hit; do
            [[ -z "$hit" ]] && continue
            what="env::var"
            if [[ "$hit" =~ static[[:space:]]+(mut[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*) ]]; then
                what="static ${BASH_REMATCH[2]}"
            fi
            if (($(allowed "$file" "$what") == 0)); then
                echo "check_waits: $file adds a process global or env knob ($what):" >&2
                echo "    $hit" >&2
                status=1
            fi
        done < <(grep -E "$globals" <<<"$code" || true)
    fi
    [[ "$file" == crates/runtime/src/wait.rs ]] && continue
    for pat in "${patterns[@]}"; do
        hits=$(grep -F -- "$pat" <<<"$code" || true)
        [[ -z "$hits" ]] && continue
        count=$(wc -l <<<"$hits")
        if ((count > $(allowed "$file" "$pat"))); then
            echo "check_waits: $file uses \`$pat\` $count time(s), $(allowed "$file" "$pat") allowed:" >&2
            sed 's/^/    /' <<<"$hits" >&2
            status=1
        fi
    done
done < <(find crates/*/src src -name '*.rs' | sort)

if ((status == 0)); then
    echo "check_waits: waiting primitives only in crates/runtime/src/wait.rs (+ ${#allow[@]} allow-listed uses and statics)"
    echo "check_waits: JSON written only through crates/core/src/json.rs"
    echo "check_waits: no process globals or env knobs outside crates/bench (+ the allow-listed statics)"
    echo "check_waits: afs-metrics, afs-runtime and afs-serve build without afs-sim; no crates/trace"
else
    echo "check_waits: wait through afs_runtime::wait (EventCount::wait), write JSON through afs_core::json, pass state by handle, keep afs-sim out of the runtime's build, or add an allow-list entry with its reason" >&2
fi
exit $status
