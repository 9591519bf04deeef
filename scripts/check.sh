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

stage "ipg-analyze (self-lint, no baseline)"
# The analyzer must hold itself to its own rules with nothing excused.
cargo run -q -p ipg-analyze -- --member ipg-analyze --no-baseline --format human

stage "cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo build --release"
cargo build --release

stage "cargo test (pool auto-sized)"
cargo test -q

stage "cargo test (IPG_THREADS=1, sequential pool)"
IPG_THREADS=1 cargo test -q

stage "property tests, 256 cases"
PROPTEST_CASES=256 cargo test -q --release --test proptests

stage "benches compile"
cargo bench --workspace --no-run

stage "codec property pass"
PROPTEST_CASES=64 cargo test -q --release --test proptests codec

stage "ipg_perf smoke tests (all five workloads, 64 cycles)"
# The benchmark package has its own [workspace], so the workspace test
# runs never build it. Its smoke tests run every workload for 64 cycles
# under all of the benchmark's checks, including that each logged hop
# moves one BFS level closer to its destination.
cargo test -q --release --manifest-path crates/ipg-bench/src/bin/ipg_perf/Cargo.toml

stage "sim determinism (IPG_THREADS=1/2/4 byte-compare)"
# The deterministic record families (stdout; manifest window/metrics
# records) must not depend on the worker count. Spans/rates/meta carry
# wall-clock data, so only the deterministic families are compared.
simdir="$(mktemp -d /tmp/ipg-sim-det.XXXXXX)"
trap 'rm -rf "$simdir"' EXIT
for t in 1 2 4; do
    mkdir -p "$simdir/t$t"
    (cd "$simdir/t$t" && IPG_THREADS=$t "$OLDPWD/target/release/ipg" \
        simulate ring-cn:l=3,nucleus=Q2 0.03 \
        --obs run.manifest.jsonl --obs-interval 500 \
        --trace run.trace.jsonl --trace-interval 128 > stdout.txt)
    grep -E '^\{"record":"(window|metrics)"' "$simdir/t$t/run.manifest.jsonl" \
        | sort > "$simdir/t$t/records.txt"
done
for t in 2 4; do
    cmp "$simdir/t1/stdout.txt" "$simdir/t$t/stdout.txt" \
        || { echo "check.sh: simulate stdout differs for IPG_THREADS=$t" >&2; exit 1; }
    cmp "$simdir/t1/records.txt" "$simdir/t$t/records.txt" \
        || { echo "check.sh: manifest records differ for IPG_THREADS=$t" >&2; exit 1; }
    # The flight recorder records only virtual time and counts, so the
    # whole trace file — not just a filtered family — must byte-compare.
    cmp "$simdir/t1/run.trace.jsonl" "$simdir/t$t/run.trace.jsonl" \
        || { echo "check.sh: trace file differs for IPG_THREADS=$t" >&2; exit 1; }
done
echo "   byte-identical for IPG_THREADS=1/2/4 (stdout, manifest records, trace)"

stage "fault-mode determinism (IPG_THREADS=1/2/4 byte-compare)"
# Same byte-identity with a fault campaign active: scripted kills and
# rate-drawn kills (expanded at compile time from node/edge streams)
# must not make any deterministic output depend on the worker count.
for spec in "script:link@600:0-1+node@1200:5" "rate:links=0.05,nodes=0.01,at=800"; do
    tag="$(echo "$spec" | tr -c 'a-z0-9' '_')"
    for t in 1 2 4; do
        mkdir -p "$simdir/f$tag$t"
        (cd "$simdir/f$tag$t" && IPG_THREADS=$t "$OLDPWD/target/release/ipg" \
            simulate ring-cn:l=3,nucleus=Q2 0.03 --faults "$spec" \
            --obs run.manifest.jsonl --obs-interval 500 \
            --trace run.trace.jsonl --trace-interval 128 > stdout.txt)
        grep -E '^\{"record":"(window|metrics)"' "$simdir/f$tag$t/run.manifest.jsonl" \
            | sort > "$simdir/f$tag$t/records.txt"
    done
    for t in 2 4; do
        cmp "$simdir/f${tag}1/stdout.txt" "$simdir/f$tag$t/stdout.txt" \
            || { echo "check.sh: faulted stdout ($spec) differs for IPG_THREADS=$t" >&2; exit 1; }
        cmp "$simdir/f${tag}1/records.txt" "$simdir/f$tag$t/records.txt" \
            || { echo "check.sh: faulted manifest records ($spec) differ for IPG_THREADS=$t" >&2; exit 1; }
        cmp "$simdir/f${tag}1/run.trace.jsonl" "$simdir/f$tag$t/run.trace.jsonl" \
            || { echo "check.sh: faulted trace file ($spec) differs for IPG_THREADS=$t" >&2; exit 1; }
    done
done
echo "   byte-identical for IPG_THREADS=1/2/4 (scripted and rate-based faults)"

stage "sparse-vs-dense determinism (IPG_DENSE_ENGINE byte-compare)"
# The sparse worklist kernel (default) must be byte-identical to the
# dense oracle (IPG_DENSE_ENGINE=1) — stdout, manifest records, AND the
# full trace file — with a fault campaign active, at every worker count.
# This is the DESIGN.md §13 contract exercised end to end.
for t in 1 2 4; do
    for eng in sparse dense; do
        denv=0
        [ "$eng" = dense ] && denv=1
        mkdir -p "$simdir/e$eng$t"
        (cd "$simdir/e$eng$t" && IPG_THREADS=$t IPG_DENSE_ENGINE=$denv \
            "$OLDPWD/target/release/ipg" \
            simulate ring-cn:l=3,nucleus=Q2 0.03 \
            --faults "script:link@600:0-1+node@1200:5" \
            --obs run.manifest.jsonl --obs-interval 500 \
            --trace run.trace.jsonl --trace-interval 128 > stdout.txt)
        grep -E '^\{"record":"(window|metrics)"' "$simdir/e$eng$t/run.manifest.jsonl" \
            | sort > "$simdir/e$eng$t/records.txt"
    done
    cmp "$simdir/esparse$t/stdout.txt" "$simdir/edense$t/stdout.txt" \
        || { echo "check.sh: sparse stdout differs from dense oracle at IPG_THREADS=$t" >&2; exit 1; }
    cmp "$simdir/esparse$t/records.txt" "$simdir/edense$t/records.txt" \
        || { echo "check.sh: sparse manifest records differ from dense oracle at IPG_THREADS=$t" >&2; exit 1; }
    cmp "$simdir/esparse$t/run.trace.jsonl" "$simdir/edense$t/run.trace.jsonl" \
        || { echo "check.sh: sparse trace differs from dense oracle at IPG_THREADS=$t" >&2; exit 1; }
done
echo "   sparse kernel byte-identical to the dense oracle (faults + tracing, IPG_THREADS=1/2/4)"

stage "dist determinism (--workers 1/2/4 vs in-process byte-compare)"
# The multi-process engine must be byte-identical to the in-process
# engine at every worker count: stdout, the deterministic manifest
# families, and the full trace file. 512 nodes — four engine shards —
# so 2- and 4-worker runs genuinely split the shard range; a faulted
# config exercises the cross-process fault/detour plumbing too.
for spec in "" "script:link@600:0-1+node@1200:5"; do
    ftag=plain
    fflags=""
    if [ -n "$spec" ]; then
        ftag=faulted
        fflags="--faults $spec"
    fi
    for w in inproc 1 2 4; do
        wflags=""
        [ "$w" != inproc ] && wflags="--workers $w"
        mkdir -p "$simdir/d$ftag$w"
        (cd "$simdir/d$ftag$w" && "$OLDPWD/target/release/ipg" \
            simulate ring-cn:l=3,nucleus=Q3 0.02 $fflags \
            --obs run.manifest.jsonl --obs-interval 500 \
            --trace run.trace.jsonl --trace-interval 128 $wflags > stdout.txt)
        grep -E '^\{"record":"(window|metrics)"' "$simdir/d$ftag$w/run.manifest.jsonl" \
            | sort > "$simdir/d$ftag$w/records.txt"
    done
    for w in 1 2 4; do
        cmp "$simdir/d${ftag}inproc/stdout.txt" "$simdir/d$ftag$w/stdout.txt" \
            || { echo "check.sh: dist stdout ($ftag) differs for --workers $w" >&2; exit 1; }
        cmp "$simdir/d${ftag}inproc/records.txt" "$simdir/d$ftag$w/records.txt" \
            || { echo "check.sh: dist manifest records ($ftag) differ for --workers $w" >&2; exit 1; }
        cmp "$simdir/d${ftag}inproc/run.trace.jsonl" "$simdir/d$ftag$w/run.trace.jsonl" \
            || { echo "check.sh: dist trace file ($ftag) differs for --workers $w" >&2; exit 1; }
    done
done
echo "   byte-identical for --workers 1/2/4 vs in-process (plain and faulted)"

stage "trace on/off determinism (manifest byte-compare)"
# Attaching the flight recorder must not perturb the simulation: the
# deterministic manifest families and stdout (minus the trace: line)
# match a traced run against an untraced one.
for mode in off on; do
    mkdir -p "$simdir/$mode"
    tflags=""
    [ "$mode" = on ] && tflags="--trace run.trace.jsonl"
    (cd "$simdir/$mode" && IPG_THREADS=2 "$OLDPWD/target/release/ipg" \
        simulate ring-cn:l=3,nucleus=Q2 0.03 \
        --obs run.manifest.jsonl --obs-interval 500 $tflags \
        | grep -v '^trace:' > stdout.txt)
    grep -E '^\{"record":"(window|metrics)"' "$simdir/$mode/run.manifest.jsonl" \
        | sort > "$simdir/$mode/records.txt"
done
cmp "$simdir/off/stdout.txt" "$simdir/on/stdout.txt" \
    || { echo "check.sh: --trace changed simulate stdout" >&2; exit 1; }
cmp "$simdir/off/records.txt" "$simdir/on/records.txt" \
    || { echo "check.sh: --trace changed manifest records" >&2; exit 1; }
echo "   tracing is invisible to the deterministic families"

now=$(date +%s)
stage_names+=("$stage_cur")
stage_secs+=($((now - stage_t0)))
echo "all checks passed"
echo "-- stage wall times --"
for i in "${!stage_names[@]}"; do
    printf '%5ss  %s\n' "${stage_secs[$i]}" "${stage_names[$i]}"
done
