//! Rules the source tree keeps, checked by reading it:
//!
//! - one spin → yield → park ladder and one eventcount
//!   (`crates/runtime/src/wait.rs`);
//! - one JSON writer and string escaper (`crates/core/src/json.rs`);
//! - library state passed by handle, never through a process global or an
//!   environment knob (`crates/bench` owns its process and is exempt);
//! - the real-thread runtime and the server build without the simulator,
//!   and tracing lives in `afs-metrics`;
//! - no `pub fn` in any crate or the facade that only tests call.
//!
//! Each rule has an allow-list, one reason per entry, and an entry the
//! tree no longer needs fails the rule too, so the lists stay an audit.
//!
//! "Code" is a file's lines above its test module — the `#[cfg(test)]`
//! followed by a `mod` line (unit tests close every file here) — with
//! every other `#[cfg(test)]` item and all comment lines dropped. `tests/`
//! is never code; the rules scan `crates/*/src` and `src/`, and the caller
//! search also reads `examples/` and `benchmark/src`.
//!
//! The same cut counts each crate's non-test lines
//! (`non_test_lines_per_crate`), the measure ROADMAP's line targets use.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// A source file's code lines: `(line number, text)`.
struct Source {
    /// Path relative to the repository root, `/`-separated.
    path: String,
    lines: Vec<(usize, String)>,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Whether `line` opens a module at column 0: `mod`, `pub mod` or
/// `pub(crate) mod`.
fn opens_module(line: &str) -> bool {
    let rest = ["pub ", "pub(crate) "]
        .iter()
        .find_map(|p| line.strip_prefix(p))
        .unwrap_or(line);
    rest.starts_with("mod ")
}

/// The index of the last line of the item that starts at `lines[start]`:
/// the first line at which its braces balance and that ends it with `;`,
/// `,` or `}`.
fn item_end(lines: &[&str], start: usize) -> usize {
    let mut depth = 0i64;
    for (i, line) in lines.iter().enumerate().skip(start) {
        let code = line.split("//").next().unwrap_or_default().trim_end();
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if depth <= 0 && code.ends_with([';', ',', '}']) {
            return i;
        }
    }
    lines.len() - 1
}

/// A file's lines above its test module, `(line number, text)`, without
/// any other `#[cfg(test)]` item: each is skipped on its own, so one
/// placed above live code hides nothing below it.
fn non_test(text: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            if lines.get(i + 1).is_some_and(|next| opens_module(next)) {
                break;
            }
            i = item_end(&lines, i + 1) + 1;
        } else {
            out.push((i + 1, lines[i]));
            i += 1;
        }
    }
    out
}

/// Every `.rs` file under the root-relative `dir`, sorted.
fn rust_files(dir: &str) -> Vec<std::path::PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root().join(dir), &mut files);
    files.sort();
    files
}

/// The code of every `.rs` file under the root-relative `dir`, by path.
fn sources(dir: &str) -> Vec<Source> {
    rust_files(dir)
        .into_iter()
        .map(|file| {
            let text = fs::read_to_string(&file).unwrap();
            let lines = non_test(&text)
                .into_iter()
                .filter(|(_, l)| !l.trim_start().starts_with("//"))
                .map(|(n, l)| (n, l.to_string()))
                .collect();
            let path = file.strip_prefix(root()).unwrap();
            let path = path.to_string_lossy().replace('\\', "/");
            Source { path, lines }
        })
        .collect()
}

/// `crates/*/src` and `src/`: the library and binary code the rules govern.
fn library() -> Vec<Source> {
    let mut crates: Vec<_> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    let mut out: Vec<Source> = crates
        .iter()
        .flat_map(|c| sources(&format!("crates/{c}/src")))
        .collect();
    out.extend(sources("src"));
    out
}

/// Fails with every violation and the rule's remedy.
fn verdict(rule: &str, violations: Vec<String>, remedy: &str) {
    assert!(
        violations.is_empty(),
        "{rule}:\n    {}\n{remedy}",
        violations.join("\n    ")
    );
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier at the start of `s`, if one starts there.
fn ident(s: &str) -> Option<&str> {
    let end = s.find(|c| !is_ident(c)).unwrap_or(s.len());
    (end > 0 && !s.starts_with(|c: char| c.is_ascii_digit())).then(|| &s[..end])
}

/// File, waiting primitive, most lines allowed to use it, and why it is
/// not a second ladder.
const WAITS: &[(&str, &str, usize, &str)] = &[
    (
        "crates/runtime/src/inject.rs",
        "yield_now(",
        1,
        "the seeded stress injector; yielding at a marked race window is its whole job",
    ),
    (
        "crates/runtime/src/watchdog.rs",
        "Condvar",
        4,
        "the sampler's interval sleep (wait_timeout), which stop() cuts short; nobody waits for an event there",
    ),
    (
        "crates/serve/src/server.rs",
        "yield_now(",
        1,
        "LoopServer::drain, a client-side shutdown/test poll; waking it would put a flag load on every retire",
    ),
    (
        "crates/bench/src/serve.rs",
        "yield_now(",
        2,
        "load generator: a closed-loop client retrying a shed admit, and pacing its window",
    ),
    (
        "crates/bench/src/chaos.rs",
        "yield_now(",
        1,
        "load generator: a client retrying a shed admit",
    ),
];

#[test]
fn one_wait_ladder() {
    let primitives = [
        "yield_now(",
        "thread::park",
        ".unpark()",
        "Condvar",
        "spin_loop(",
    ];
    let mut violations = Vec::new();
    let mut used = vec![false; WAITS.len()];
    for src in library() {
        if src.path == "crates/runtime/src/wait.rs" {
            continue;
        }
        for pat in primitives {
            let hits: Vec<_> = src.lines.iter().filter(|(_, l)| l.contains(pat)).collect();
            let entry = WAITS
                .iter()
                .position(|&(f, p, ..)| f == src.path && p == pat);
            let allowed = entry.map_or(0, |i| WAITS[i].2);
            if let Some(i) = entry {
                used[i] = !hits.is_empty();
            }
            if hits.len() > allowed {
                for (n, l) in hits {
                    violations.push(format!(
                        "{}:{n}: `{pat}` ({allowed} allowed): {}",
                        src.path,
                        l.trim()
                    ));
                }
            }
        }
    }
    for (&(f, p, ..), used) in WAITS.iter().zip(used) {
        if !used {
            violations.push(format!("{f}: allow-list entry for `{p}` is stale"));
        }
    }
    verdict(
        "a waiting primitive outside crates/runtime/src/wait.rs",
        violations,
        "wait through afs_runtime::wait (EventCount::wait), or allow-list the use with its reason",
    );
}

/// Whether `line` holds a hand-formatted JSON key: `\"name\":`.
fn json_key_literal(line: &str) -> bool {
    line.match_indices("\\\"").any(|(i, _)| {
        let rest = &line[i + 2..];
        ident(rest).is_some_and(|key| rest[key.len()..].starts_with("\\\":"))
    })
}

#[test]
fn one_json_writer() {
    let mut violations = Vec::new();
    for src in library() {
        if src.path == "crates/core/src/json.rs" {
            continue;
        }
        for (n, l) in &src.lines {
            if json_key_literal(l) {
                violations.push(format!("{}:{n}: {}", src.path, l.trim()));
            }
        }
    }
    verdict(
        "JSON formatted by hand outside crates/core/src/json.rs",
        violations,
        "write JSON through afs_core::json (document / Fields / fields!)",
    );
}

/// File, static, and why it is not hidden shared state.
const STATICS: &[(&str, &str, &str)] = &[(
    "crates/metrics/src/recorder.rs",
    "DUMP_SEQ",
    "a file-name disambiguator for two dumps in one millisecond; nothing reads it back",
)];

/// The name of a `static` holding shared state that `line` declares: a
/// `OnceLock`, `OnceCell`, `LazyLock`, `Atomic*`, `Mutex` or `RwLock`.
fn global_static(line: &str) -> Option<&str> {
    line.match_indices("static").find_map(|(i, _)| {
        let before = line[..i].chars().next_back();
        if before.is_some_and(|c| is_ident(c) || c == '\'') {
            return None;
        }
        let rest = line[i + "static".len()..].strip_prefix(char::is_whitespace)?;
        let rest = rest.trim_start();
        let rest = match rest.strip_prefix("mut") {
            Some(r) if r.starts_with(char::is_whitespace) => r.trim_start(),
            _ => rest,
        };
        let name = ident(rest)?;
        let ty = rest[name.len()..].trim_start().strip_prefix(':')?;
        let ty = ty.split('=').next().unwrap_or(ty);
        [
            "OnceLock", "OnceCell", "LazyLock", "Atomic", "Mutex", "RwLock",
        ]
        .iter()
        .any(|t| ty.contains(t))
        .then_some(name)
    })
}

#[test]
fn no_process_globals_or_env_knobs() {
    let mut violations = Vec::new();
    let mut used = vec![false; STATICS.len()];
    for src in library() {
        if src.path.starts_with("crates/bench/") {
            continue;
        }
        for (n, l) in &src.lines {
            let what = if l.contains("env::var(") || l.contains("env::var_os(") {
                "an environment read".to_string()
            } else if let Some(name) = global_static(l) {
                match STATICS
                    .iter()
                    .position(|&(f, s, _)| f == src.path && s == name)
                {
                    Some(i) => {
                        used[i] = true;
                        continue;
                    }
                    None => "a process global".to_string(),
                }
            } else {
                continue;
            };
            violations.push(format!("{}:{n}: {what}: {}", src.path, l.trim()));
        }
    }
    for (&(f, s, _), used) in STATICS.iter().zip(used) {
        if !used {
            violations.push(format!("{f}: allow-list entry for static {s} is stale"));
        }
    }
    verdict(
        "a process global or env knob outside crates/bench",
        violations,
        "pass state by handle, or allow-list the static with its reason",
    );
}

#[test]
fn runtime_builds_without_the_simulator() {
    let mut violations = Vec::new();
    for krate in ["metrics", "runtime", "serve"] {
        let manifest = format!("crates/{krate}/Cargo.toml");
        let text = fs::read_to_string(root().join(&manifest)).unwrap();
        let mut in_deps = false;
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('[') {
                in_deps = line.trim() == "[dependencies]";
            } else if in_deps {
                let rest = line.strip_prefix("afs-sim").map(str::trim_start);
                if rest.is_some_and(|r| r.starts_with(['.', '='])) {
                    violations.push(format!("{manifest}:{}: {line}", i + 1));
                }
            }
        }
    }
    if root().join("crates/trace").exists() {
        violations.push("crates/trace exists; tracing is afs-metrics' trace module".into());
    }
    verdict(
        "the runtime's build reaches the simulator",
        violations,
        "shared types live in afs-core (as the Timeline does); per-worker recording in afs-metrics",
    );
}

/// File, public function with no caller outside tests, and why it stays.
const TEST_ONLY_API: &[(&str, &str, &str)] = &[
    (
        "crates/runtime/src/parallel.rs",
        "afs_last_exec",
        "API: the paper's AFS-LAST-EXEC variant (§4.3) on real threads; the tables run it in the simulator",
    ),
    (
        "crates/runtime/src/adapt.rs",
        "freeze",
        "test hook: pins (k, b) for the differential tests that hold a frozen controller to the static cell, bit for bit",
    ),
    (
        "crates/runtime/src/pool.rs",
        "yield_injection",
        "test hook: seeded yields at the pool's race windows, until a model-checked sync facade replaces the injector",
    ),
    (
        "crates/serve/src/server.rs",
        "queue_yield_injection",
        "test hook: seeded yields inside the admission ring, until a model-checked sync facade replaces the injector",
    ),
    (
        "crates/serve/src/server.rs",
        "telemetry_addr",
        "deployment: the only way to learn the port the OS gave `telemetry(\"host:0\")`",
    ),
    (
        "crates/serve/src/server.rs",
        "metrics_snapshot",
        "API: the `/snapshot.json` document (pool and serve ledger in one) without the endpoint",
    ),
    (
        "crates/core/src/theory.rs",
        "afs_local_accesses_exact",
        "reference: Lemma 3.1's exact local-grab count, the bound a per-phase Thm 3.1 check of real-thread regions will read (ROADMAP direction 15)",
    ),
    (
        "crates/core/src/theory.rs",
        "gss_sync_exact",
        "reference: GSS's exact central-queue count (Tables 3–5), the bound a per-phase check of real-thread regions will read (ROADMAP direction 15)",
    ),
    (
        "crates/core/src/theory.rs",
        "poly_total_work",
        "reference: Thm 3.3's total work of a decreasing polynomial loop, the fair share the Thm 3.3 tests divide by P",
    ),
    (
        "crates/core/src/schedulers/mod.rs",
        "paper_suite",
        "reference: the paper's Iris line-up (§4.1) that the simulator and core property tests sweep, and an exhaustive state explorer will (ROADMAP direction 19)",
    ),
    (
        "crates/core/src/schedulers/gss.rs",
        "with_divisor",
        "API: the paper's GSS(k) variant (§4.3); no table runs it, the core property tests do",
    ),
    (
        "crates/sim/src/cache.rs",
        "used_bytes",
        "test hook: the cache's occupancy, checked step by step against a reference LRU model; the simulator reads only hit and miss counts",
    ),
    (
        "crates/sim/src/cache.rs",
        "contains_fresh",
        "test hook: residency without touching the counters, checked step by step against a reference LRU model",
    ),
    (
        "crates/serve/src/server.rs",
        "dispatcher_asleep",
        "test hook: a state, not a count; the snapshot's park and wake counts cannot tell it from a sleep already left",
    ),
    (
        "crates/serve/src/server.rs",
        "workset_values",
        "test hook: the per-slot exactly-once check of a fused batch; thousands of slots are no snapshot field",
    ),
];

/// The function a `pub fn` line declares (`pub const fn`, `pub unsafe fn`
/// too); `pub(crate)` and narrower are not public.
fn public_fn(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    while let Some(r) = ["const ", "unsafe ", "async "]
        .iter()
        .find_map(|q| rest.strip_prefix(q))
    {
        rest = r;
    }
    ident(rest.strip_prefix("fn ")?)
}

/// Every identifier that occurs in `sources` other than where a `fn` item
/// declares it.
fn uses(sources: &[Source]) -> HashSet<&str> {
    let mut used = HashSet::new();
    for (_, line) in sources.iter().flat_map(|s| &s.lines) {
        let mut after_fn = false;
        let mut rest = line.as_str();
        while let Some(start) = rest.find(is_ident) {
            let gap = &rest[..start];
            rest = &rest[start..];
            let word = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
            rest = &rest[word.len()..];
            let declared = after_fn && gap.chars().all(char::is_whitespace);
            if !declared {
                used.insert(word);
            }
            after_fn = word == "fn";
        }
    }
    used
}

/// A `pub fn` in `crates/*/src` or `src/` needs a caller outside the tests:
/// in the code of any crate, the facade, the examples or the `benchmark`
/// package. Any occurrence of its name counts as a call, so a shared name can
/// hide a dead function, but a live one is never flagged.
#[test]
fn no_public_fn_only_tests_call() {
    let mut callers = library();
    let checked = callers.len();
    callers.extend(sources("examples"));
    callers.extend(sources("benchmark/src"));
    let uses = uses(&callers);
    let mut violations = Vec::new();
    let mut flagged = vec![false; TEST_ONLY_API.len()];
    for src in &callers[..checked] {
        for (n, l) in &src.lines {
            let Some(name) = public_fn(l) else { continue };
            if uses.contains(name) {
                continue;
            }
            match TEST_ONLY_API
                .iter()
                .position(|&(f, fun, _)| f == src.path && fun == name)
            {
                Some(i) => flagged[i] = true,
                None => violations.push(format!("{}:{n}: pub fn {name}", src.path)),
            }
        }
    }
    for (&(f, fun, _), flagged) in TEST_ONLY_API.iter().zip(flagged) {
        if !flagged {
            violations.push(format!(
                "{f}: allow-list entry for {fun} is stale (it has a caller, or is gone)"
            ));
        }
    }
    verdict(
        "a public function only tests call",
        violations,
        "delete the function, move it into the test module that uses it, fold what the test \
         reads into a snapshot an operator reads (ServeSnapshot, CounterSnapshot, the flight \
         dump), or allow-list it with its reason",
    );
}

/// Prints each crate's non-test lines — every line of its `src/` that
/// `non_test` keeps, comments and blank lines included; the facade's
/// `src/` as `facade` — for a change's before/after line report
/// (`--nocapture`). It holds no figure.
#[test]
fn non_test_lines_per_crate() {
    let mut dirs: Vec<(String, String)> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .map(|c| (c.clone(), format!("crates/{c}/src")))
        .collect();
    dirs.sort();
    dirs.push(("facade".into(), "src".into()));
    let mut total = 0;
    for (name, dir) in &dirs {
        let lines: usize = rust_files(dir)
            .iter()
            .map(|f| non_test(&fs::read_to_string(f).unwrap()).len())
            .sum();
        total += lines;
        println!("{name:>8} {lines:>6}");
    }
    println!("{:>8} {total:>6}", "total");
    assert!(
        total > 0,
        "no non-test lines found under crates/*/src and src/"
    );
}
