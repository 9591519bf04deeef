#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, build, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# Stage bookkeeping: `stage <name>` closes the previous stage and opens
# the next; the per-stage wall times print in a summary at the end.
stage_names=()
stage_secs=()
stage_cur=""
stage_t0=0
stage() {
    local now; now=$(date +%s)
    if [ -n "$stage_cur" ]; then
        stage_names+=("$stage_cur")
        stage_secs+=($((now - stage_t0)))
    fi
    stage_cur="$1"
    stage_t0=$now
    echo "== $1 =="
}

stage "cargo fmt --check"
cargo fmt --all --check

stage "ipg-analyze (workspace gate)"
cargo run -q -p ipg-analyze -- --format human

stage "ipg-analyze (self-lint)"
# The analyzer must hold itself to its own rules.
cargo run -q -p ipg-analyze -- --member ipg-analyze --format human

stage "cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo build --release"
cargo build --release

stage "cargo test (pool auto-sized)"
# Both test passes include the determinism matrix
# (crates/ipg-cli/tests/determinism.rs: stdout, trace and manifest
# records byte-identical across IPG_THREADS, --workers and --trace) and
# the reference-model oracle (crates/ipg-sim/tests/oracle.rs: both
# engines against a single-shard plain-loop model), so the engines are
# held to the reference on the auto-sized pool here and on a sequential
# pool below.
cargo test -q

stage "cargo test (IPG_THREADS=1, sequential pool)"
IPG_THREADS=1 cargo test -q

stage "property tests, 256 cases"
PROPTEST_CASES=256 cargo test -q --release --test proptests

stage "wire codec properties, 256 cases"
# The dist wire codec's properties (roundtrips, bulk slices against the
# element loop, corrupted frames) are unit tests inside
# `ipg-sim::dist::frame`, which the stage above does not run.
PROPTEST_CASES=256 cargo test -q --release -p ipg-sim --lib dist::frame

stage "benches compile"
cargo bench --workspace --no-run

stage "quickstart example"
# The README's advertised path through the library (define, generate,
# route with SuperRouter, measure); the stages above only compile the
# examples. Non-zero exit on any error it returns.
cargo run -q --release -p ipgraph --example quickstart > /dev/null

stage "codec property pass"
# The proptests whose names contain `codec`: label round trips, the
# tuple network's one-pass undirected build against the hash-interned
# builder renumbered through the codec (dir-CN included, whose rows need
# the inverse-generator arcs), and the codec router's path lengths and
# detour degeneration against BFS.
PROPTEST_CASES=64 cargo test -q --release --test proptests codec

stage "ipg_perf smoke tests (all five workloads, 64 cycles)"
# The benchmark package has its own [workspace], so the workspace test
# runs never build it. Its smoke tests run every workload for 64 cycles
# under all of the benchmark's checks, including that each logged hop
# moves one BFS level closer to its destination.
cargo test -q --release --manifest-path crates/ipg-bench/src/bin/ipg_perf/Cargo.toml

now=$(date +%s)
stage_names+=("$stage_cur")
stage_secs+=($((now - stage_t0)))
echo "all checks passed"
echo "-- stage wall times --"
for i in "${!stage_names[@]}"; do
    printf '%5ss  %s\n' "${stage_secs[$i]}" "${stage_names[$i]}"
done
