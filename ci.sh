#!/bin/sh
# The full CI gate, in dependency order: cheap static checks first, the
# invariant linter before the expensive build, tests last.
#
#   ./ci.sh
#
# Exits nonzero on the first failing stage. All stages run offline.
set -eu

say() { printf '\n== %s\n' "$*"; }

say "cargo fmt --check"
cargo fmt --all --check

say "cargo clippy -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

# offline_sources DIR: every package in the resolve of DIR's workspace
# and of DIR/perfbench is a path package (its `source` is null), so the
# build needs no registry and no git.
offline_sources() {
    for m in "$1/Cargo.toml" "$1/perfbench/Cargo.toml"; do
        cargo metadata --offline --locked --format-version 1 --manifest-path "$m" \
            > target/metadata.json || return 1
        n=$(grep -o '"source":"' target/metadata.json | wc -l)
        [ "$n" -eq 0 ] || { echo "$m: $n registry or git source(s)"; return 1; }
    done
}
# lints_inherited DIR: every member of DIR's workspace outside vendor/
# opts into the root [workspace.lints] table; a member without
# `[lints] workspace = true` would get no workspace lints at all.
lints_inherited() {
    cargo metadata --offline --no-deps --format-version 1 --manifest-path "$1/Cargo.toml" \
        > target/metadata.json || return 1
    for m in $(grep -o '"manifest_path":"[^"]*"' target/metadata.json | cut -d'"' -f4 \
        | grep -v '/vendor/[^/]*/Cargo.toml$'); do
        awk '/^\[/ { s = ($0 == "[lints]") } s && /^workspace *= *true/ { f = 1 } END { exit !f }' \
            "$m" || { echo "$m: no [lints] workspace = true"; return 1; }
    done
}

say "offline dependency sources and inherited workspace lints"
offline_sources .
lints_inherited .

say "clippy probes: each per-file invariant fails in scope and passes where exempt"
# The per-file invariants are clippy lints (clippy.toml, the workspace
# [lints] table and the crate roots) and the two manifest checks above.
# Each probe injects one violation into a scratch copy of the tracked
# workspace and runs clippy on one crate (or the check): in scope it must
# fail naming the expected lint, in an exempt scope it must pass.
PROBE=target/clippy-probe
rm -rf "$PROBE"
mkdir -p "$PROBE/ws"
git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$PROBE/ws"
# probe pass|fail CRATE FILE LINT SNIPPET [ANCHOR [FLAGS]]: the snippet is
# appended to FILE, or inserted after every line containing ANCHOR;
# FLAGS (e.g. --all-targets) go to clippy.
probe() {
    p_expect=$1 p_crate=$2 p_file=$3 p_lint=$4 p_snippet=$5 p_anchor=${6:-} p_flags=${7:-}
    if [ -n "$p_anchor" ]; then
        A="$p_anchor" S="$p_snippet" awk '{ print } index($0, ENVIRON["A"]) { print ENVIRON["S"] }' \
            "$p_file" > "$PROBE/ws/$p_file"
    else
        { cat "$p_file"; printf '\n%s\n' "$p_snippet"; } > "$PROBE/ws/$p_file"
    fi
    p_rc=0
    (cd "$PROBE/ws" && CARGO_TARGET_DIR=../target \
        cargo clippy --offline --quiet -p "$p_crate" $p_flags -- -D warnings) > "$PROBE/out.txt" 2>&1 || p_rc=$?
    cp "$p_file" "$PROBE/ws/$p_file"
    if [ "$p_expect" = fail ]; then
        if [ "$p_rc" -eq 0 ] || ! grep -q "$p_lint" "$PROBE/out.txt"; then
            cat "$PROBE/out.txt"; echo "probe: $p_lint in $p_file should fail clippy"; exit 1
        fi
    elif [ "$p_rc" -ne 0 ]; then
        cat "$PROBE/out.txt"; echo "probe: $p_lint in $p_file should pass clippy"; exit 1
    fi
    echo "probe $p_expect: $p_lint in $p_file"
}
PROBE_START_NS=$(date +%s%N)
probe fail dynamips-core crates/core/src/report.rs disallowed_methods '/// Probe.
pub fn probe_clock() -> std::time::Instant {
    std::time::Instant::now()
}'
# Exemptions are per statement: a clock read inside the load generator's
# exempt client-thread statement passes.
probe pass dynamips-serve crates/serve/src/loadtest.rs disallowed_methods \
    'let _probe = std::time::Instant::now();' 'handles.push(std::thread::spawn(move || {'
probe fail dynamips-core crates/core/src/lib.rs disallowed_methods '/// Probe.
pub fn probe_spawn() {
    let _ = std::thread::spawn(|| ()).join();
}'
# chaos_serve.rs may read the clock, but its exemption must not cover spawns.
probe fail dynamips-experiments crates/experiments/src/chaos_serve.rs disallowed_methods \
    'let _probe = std::thread::spawn(|| ());' 'let warm_started = Instant::now();'
probe fail dynamips-atlas crates/atlas/src/lib.rs unwrap_used '/// Probe.
pub fn probe_unwrap(o: Option<u8>) -> u8 {
    o.unwrap()
}'
# Every crate a binary links carries the panic lints, so no call graph is
# needed to keep a panic off the path from main; tests stay exempt.
probe fail dynamips-netsim crates/netsim/src/lib.rs unwrap_used '/// Probe.
pub fn probe_unwrap(o: Option<u8>) -> u8 {
    o.unwrap()
}'
probe fail dynamips-routing crates/routing/src/lib.rs expect_used '/// Probe.
pub fn probe_expect(o: Option<u8>) -> u8 {
    o.expect("probe")
}'
probe fail dynamips-netaddr crates/netaddr/src/lib.rs clippy::panic '/// Probe.
pub fn probe_panic() {
    panic!("probe");
}'
probe pass dynamips-netsim crates/netsim/src/lib.rs unwrap_used '#[cfg(test)]
mod probe_tests {
    fn first(v: &[u8]) -> Option<u8> {
        v.first().copied()
    }
    #[test]
    fn probe_unwrap() {
        assert_eq!(first(&[1]).unwrap(), 1);
    }
}' '' --all-targets
probe fail dynamips-routing crates/routing/src/lib.rs print_stdout '/// Probe.
pub fn probe_print() {
    println!("probe");
}'
probe fail dynamips-atlas crates/atlas/src/records.rs indexing_slicing '/// Probe.
pub fn probe_index(v: &[u8]) -> u8 {
    v[0]
}'
probe fail dynamips-serve crates/serve/src/poll.rs undocumented_unsafe_blocks '/// Probe.
#[allow(unsafe_code, reason = "probe")]
pub fn probe_unsafe(v: &[u8]) -> u8 {
    unsafe { *v.as_ptr() }
}'
probe pass dynamips-serve crates/serve/src/poll.rs undocumented_unsafe_blocks '/// Probe.
#[allow(unsafe_code, reason = "probe")]
pub fn probe_unsafe(v: &[u8]) -> u8 {
    // SAFETY: probe only; never called.
    unsafe { *v.as_ptr() }
}'
probe fail dynamips-core crates/core/src/lib.rs allow_attributes_without_reason '/// Probe.
#[allow(clippy::needless_return)]
pub fn probe_allow() {}'
probe fail dynamips-experiments crates/experiments/src/main.rs disallowed_methods \
    'if std::env::args().count() > 99 { std::process::exit(3); }' 'fn main() {'
# An exit code is an `Exit` variant: a literal code does not type-check.
probe fail dynamips-experiments crates/experiments/src/main.rs 'mismatched types' \
    'if std::env::args().count() > 99 { exit(3); }' 'fn main() {'
# Unordered maps: denied on every path by the workspace table (ci's
# -D warnings turns its warn into a deny). The probes in the
# artifact-rendering modules, the CDN kernels, the dual-stack joins and
# the allocator's lease table fail if one of them gains a module-wide
# allow.
probe fail dynamips-core crates/core/src/report.rs disallowed_types '/// Probe.
pub fn probe_map() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}'
probe fail dynamips-core crates/core/src/association.rs disallowed_types '/// Probe.
pub fn probe_map() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}'
probe fail dynamips-core crates/core/src/dualstack.rs disallowed_types '/// Probe.
pub fn probe_map() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}'
probe fail dynamips-ipam crates/ipam/src/lease.rs disallowed_types '/// Probe.
pub fn probe_map() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}'
probe fail dynamips-core crates/core/src/stats.rs disallowed_types '/// Probe.
pub fn probe_map() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}'
# The ingest and simulation crates hold reasoned keyed-lookup maps; a
# new map beside them still fails.
probe fail dynamips-atlas crates/atlas/src/collect.rs disallowed_types '/// Probe.
pub fn probe_map() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}'
probe fail dynamips-netsim crates/netsim/src/alloc.rs disallowed_types '/// Probe.
pub fn probe_map() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}'
# A map whose order never reaches output passes with a reasoned allow.
probe pass dynamips-core crates/core/src/stats.rs disallowed_types '/// Probe.
pub fn probe_count(keys: &[u8]) -> usize {
    #[allow(clippy::disallowed_types, reason = "probe: only the count leaves")]
    let set: std::collections::HashSet<u8> = keys.iter().copied().collect();
    set.len()
}'
# Epoll registrations and serving gauges move only inside their RAII
# guards: the raw calls are private to serve::poll and serve::metrics, so
# rustc rejects them anywhere else.
probe fail dynamips-serve crates/serve/src/reactor.rs private '/// Probe.
pub fn probe_raw_add(poller: &Poller, fd: i32) -> std::io::Result<()> {
    poller.add(fd, Interest::READ, 99)
}'
probe fail dynamips-serve crates/serve/src/server.rs private '/// Probe.
pub fn probe_raw_gauge(metrics: &Metrics) {
    metrics.conn_opened();
}'
# routing's root sets neither lint: both come from the workspace table.
probe fail dynamips-routing crates/routing/src/lib.rs missing-docs 'pub fn probe_undocumented() {}'
probe fail dynamips-netaddr crates/netaddr/src/lib.rs unsafe-code '/// Probe.
pub fn probe_unsafe(v: &[u8]) -> u8 {
    unsafe { *v.as_ptr() }
}'
# manifest_probe CHECK FILE TEXT SED: edit FILE in the scratch copy with
# SED; CHECK on the copy must then fail, printing TEXT.
manifest_probe() {
    sed "$4" "$2" > "$PROBE/ws/$2"
    m_rc=0
    "$1" "$PROBE/ws" > "$PROBE/out.txt" 2>&1 || m_rc=$?
    cp "$2" "$PROBE/ws/$2"
    if [ "$m_rc" -eq 0 ] || ! grep -qF "$3" "$PROBE/out.txt"; then
        cat "$PROBE/out.txt"; echo "probe: $1 should fail on $2"; exit 1
    fi
    echo "probe fail: $1 on $2"
}
manifest_probe offline_sources crates/routing/Cargo.toml left-pad \
    '/^\[dependencies\]$/a left-pad = "1.3"'
manifest_probe lints_inherited crates/routing/Cargo.toml 'no [lints] workspace = true' \
    '/^\[lints\]$/,/^workspace = true$/d'
PROBE_END_NS=$(date +%s%N)
echo "clippy probes: $(( (PROBE_END_NS - PROBE_START_NS) / 1000000 )) ms"

say "dynamips-lint"
# The text run gates (all the call-graph families: dead pub, the
# concurrency pass, and unbounded growth); the JSON and SARIF reports
# feed annotation tooling. The analysis runs are timed and recorded as a `lint` phase in
# BENCH_all.json further down.
LINT_START_NS=$(date +%s%N)
cargo run --quiet -p dynamips-lint
cargo run --quiet -p dynamips-lint -- --format json > target/lint-report.json
cargo run --quiet -p dynamips-lint -- --format sarif > target/lint-report.sarif
LINT_END_NS=$(date +%s%N)
LINT_MS=$(( (LINT_END_NS - LINT_START_NS) / 1000000 ))
# Unknown and retired rule ids are usage errors (exit 2).
for rule in no-such-rule determinism-taint resource-leak drop-order gauge-balance; do
    rc=0; cargo run --quiet -p dynamips-lint -- --explain "$rule" >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || { echo "expected exit 2 for --explain $rule, got $rc"; exit 1; }
done
# Every advertised rule must explain itself (exit 0): the rule table and
# the explain text cannot drift apart silently.
for rule in $(cargo run --quiet -p dynamips-lint -- --list-rules | awk '{print $1}'); do
    cargo run --quiet -p dynamips-lint -- --explain "$rule" > /dev/null \
        || { echo "--explain $rule failed"; exit 1; }
done

say "cargo build --release"
# --workspace matters: the root package is an umbrella, and without it
# this stage leaves target/release/dynamips stale for the smokes below.
cargo build --release --quiet --offline --locked --workspace

say "cargo test"
cargo test --workspace -q

BIN=target/release/dynamips

say "engine bench at reference scale (2 workers, timings; 1 worker byte-identical)"
rm -rf target/ci-artifacts
"$BIN" --seed 2020 --atlas-scale 0.2 --cdn-scale 0.15 --threads 2 --timings \
    --out target/ci-artifacts all > target/ci-run-stdout.txt
# Record the lint stage's wall time as a phase alongside the engine's
# own timings, so BENCH_all.json accounts for the whole static gate.
sed -i "s/^  \"phases\": \[$/  \"phases\": [\n    {\"name\": \"lint\", \"ms\": ${LINT_MS}.000},/" \
    target/ci-artifacts/BENCH_all.json
"$BIN" bench-check target/ci-artifacts/BENCH_all.json
# The checked-in record is regenerated by hand: hold it to the same schema.
"$BIN" bench-check BENCH_all.json
# One worker renders every job on the calling thread, two fan out: both
# must write the same 22 artifact files byte for byte.
rm -rf target/ci-artifacts-1
"$BIN" --seed 2020 --atlas-scale 0.2 --cdn-scale 0.15 --threads 1 \
    --out target/ci-artifacts-1 all > /dev/null
n=0
for f in target/ci-artifacts/*.txt; do
    cmp "$f" "target/ci-artifacts-1/$(basename "$f")"
    n=$((n + 1))
done
[ "$n" -eq 22 ] || { echo "expected 22 artifact files, found $n"; exit 1; }

say "default config: stdout matches results/full_run.txt"
# EXPERIMENTS.md quotes this file; a change that moves default-config
# bytes must regenerate it (the command is in EXPERIMENTS.md).
rm -rf target/full-run
"$BIN" --out target/full-run all > target/full-run-stdout.txt
cmp target/full-run-stdout.txt results/full_run.txt

say "perfbench: batch-all and ipam-churn on both recorded worlds, traced, and wire-mixed, every artifact and allocation against its digest"
# Exits nonzero if any of the 22 artifacts' bytes differ from the digests
# in perfbench/oracles/, so a kernel rewrite cannot change output unseen.
# The second run checks the held-out world (seed 20201201).
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload batch-all --seed 1 --seconds 1 --trace 0
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload batch-all --seed 1 --seconds 1 --trace 0 --held-out
# ipam-churn exits nonzero unless both passes of the 100k-subscriber churn
# reproduce the allocation digest recorded for the world (every grant's
# lease id and address), so a changed allocation decision cannot pass
# unseen (~5 s each).
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload ipam-churn --seed 1 --seconds 1 --trace 0
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload ipam-churn --seed 1 --seconds 1 --trace 0 --held-out
# Only the traced run checks that every workload's stage tree closes (no
# residual below its slack) and that a 2-worker engine::run writes the
# same digests (~1 min).
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload batch-all --seed 1 --seconds 2 --trace 1
# Served bytes: wire-mixed exits nonzero if any artifact body the live
# server returns differs from its recorded digest.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload wire-mixed --seed 1 --seconds 2 --trace 0

say "usage errors exit 2 before any socket work"
rc=0; "$BIN" loadtest --url http://127.0.0.1:1/x --concurrency 0 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for --concurrency 0, got $rc"; exit 1; }
rc=0; "$BIN" loadtest --url http://127.0.0.1:1/x \
    --bench-out /nonexistent-ci-dir/bench.json >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for unwritable --bench-out, got $rc"; exit 1; }
rc=0; "$BIN" loadtest --url http://127.0.0.1:1/x --open-loop >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for --open-loop without --rate-rps, got $rc"; exit 1; }
rc=0; "$BIN" serve --serve-workers 0 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for --serve-workers 0, got $rc"; exit 1; }
rc=0; "$BIN" chaos-serve --requests 0 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for chaos-serve --requests 0, got $rc"; exit 1; }
rc=0; "$BIN" ipam-sim --subscribers 0 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for ipam-sim --subscribers 0, got $rc"; exit 1; }

say "ipam-sim bench: seeded churn, conservation after every sweep, double-pass digest"
rm -f target/BENCH_ipam.json
"$BIN" ipam-sim --seed 7 --subscribers 20000 --ticks 96 \
    --bench-out target/BENCH_ipam.json > target/ipam-sim-stdout.txt
grep -q '^ipam-sim: OK$' target/ipam-sim-stdout.txt \
    || { echo "ipam-sim did not report OK"; cat target/ipam-sim-stdout.txt; exit 1; }
"$BIN" bench-check target/BENCH_ipam.json

say "serve smoke: ephemeral port, loadtest, clean drain"
rm -f target/serve.log target/serve.err target/BENCH_serve.json
"$BIN" serve --addr 127.0.0.1:0 --seed 11 --atlas-scale 0.02 --cdn-scale 0.02 \
    --max-conns 2048 > target/serve.log 2> target/serve.err &
SERVE_PID=$!
URL=""
for _ in $(seq 1 100); do
    URL=$(awk '/^dynamips-serve listening on /{print $NF}' target/serve.log)
    [ -n "$URL" ] && break
    sleep 0.1
done
[ -n "$URL" ] || { echo "serve never reported its URL"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
"$BIN" loadtest --url "$URL/artifacts/fig1" --concurrency 16 --requests 48 \
    --bench-out target/BENCH_serve.json
"$BIN" bench-check target/BENCH_serve.json

say "open-loop smoke: 1024 keep-alive connections, seeded schedule, baseline gate"
# loadtest exits 1 unless every request came back 2xx with zero
# transport errors, so this line is the >=1k-connections acceptance.
rm -f target/BENCH_openloop.json
"$BIN" loadtest --url "$URL/healthz" --open-loop --rate-rps 600 --seed 42 \
    --concurrency 1024 --requests 2048 --bench-out target/BENCH_openloop.json
"$BIN" bench-check target/BENCH_openloop.json --baseline BENCH_serve_baseline.json

say "ipam smoke: 4k lease/renew/release cycles over the live server, drained gauge"
# Rides the same serve instance: the DualHandler exposes the IPAM
# endpoints beside the artifact routes. The run itself asserts the
# leases_active gauge returns to zero and GET /pools conserves.
"$BIN" ipam-sim --url "$URL" --cycles 4000

"$BIN" loadtest --url "$URL/shutdown" --concurrency 1 --requests 1 \
    --bench-out target/BENCH_shutdown.json > /dev/null
# The drain is cooperative; give it a bounded window, then insist.
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve did not drain within the window"
    kill "$SERVE_PID"
    exit 1
fi
wait "$SERVE_PID" || { echo "serve exited nonzero"; exit 1; }

say "chaos-serve smoke: faults injected, zero visible 5xx, bytes identical"
rm -f target/BENCH_chaos_serve.json
"$BIN" chaos-serve --seed 7 --rate 0.0 --rate 0.2 --requests 12 --timeout-ms 800 \
    --bench-out target/BENCH_chaos_serve.json
"$BIN" bench-check target/BENCH_chaos_serve.json
# Three sessions (ground truth + one per rate), each building the Atlas
# and the CDN world.
grep -q '"worlds_built": 6' target/BENCH_chaos_serve.json \
    || { echo "chaos-serve: expected 6 worlds built"; exit 1; }

say "ci: all stages passed"
