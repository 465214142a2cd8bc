#!/usr/bin/env bash
# There is one spin → yield → park ladder and one eventcount in this
# repository: crates/runtime/src/wait.rs. This check keeps it that way.
#
#   scripts/check_waits.sh
#
# Fails (exit 1, offending lines printed) if a waiting primitive —
# `yield_now(`, `thread::park`, `.unpark()`, `Condvar`, `spin_loop(` —
# occurs in non-test, non-comment code under crates/*/src or src/, outside
# wait.rs and the allow-list below. "Non-test" is everything above a file's
# first `#[cfg(test)]` line (unit tests close every file here); tests/,
# benches/, examples/ and benchmark/ are not looked at.
set -euo pipefail
cd "$(dirname "$0")/.."

# file | pattern | most occurrences allowed | why it is not a second ladder
allow=(
    "crates/runtime/src/inject.rs|yield_now(|1|the seeded stress injector; yielding at a marked race window is its whole job"
    "crates/runtime/src/watchdog.rs|Condvar|4|the sampler's interval sleep (wait_timeout), which stop() cuts short; nobody waits for an event there"
    "crates/serve/src/server.rs|yield_now(|1|LoopServer::drain, a client-side shutdown/test poll; waking it would put a flag load on every retire"
    "crates/bench/src/serve.rs|yield_now(|2|load generator: a closed-loop client retrying a shed admit, and pacing its window"
    "crates/bench/src/chaos.rs|yield_now(|1|load generator: a client retrying a shed admit"
)
patterns=('yield_now(' 'thread::park' '.unpark()' 'Condvar' 'spin_loop(')

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
while IFS= read -r file; do
    [[ "$file" == crates/runtime/src/wait.rs ]] && continue
    # Non-test code with comment lines dropped, line numbers kept.
    code=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FNR ": " $0 }' "$file")
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
    echo "check_waits: waiting primitives only in crates/runtime/src/wait.rs (+ ${#allow[@]} allow-listed uses)"
else
    echo "check_waits: wait through afs_runtime::wait (EventCount::wait), or add an allow-list entry with its reason" >&2
fi
exit $status
