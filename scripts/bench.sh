#!/usr/bin/env bash
# Regenerate results/BENCH_core.json reproducibly: fixed instance list
# (see benches/addressing.rs and benches/thm41_routing.rs), pinned
# worker count, medians over 20 samples. Then rebuild every committed
# file that depends on the engines' random streams: BENCH_sim.json and
# the docs' blocks generated from it, the bench bins' JSON and
# manifests (BENCH_faults.json among them) and the example Chrome
# trace. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pin the pool so interned-build parallelism doesn't vary run to run.
export IPG_THREADS="${IPG_THREADS:-4}"

# Refuse to benchmark code with open determinism, layering, or cycle-loop
# allocation findings: numbers from a nondeterministic build are not
# comparable run to run, and steady-state allocation skews hot-path medians.
echo "== ipg-analyze (DET/LAYER/ALLOC rules) =="
if ! cargo run -q -p ipg-analyze --     --rules DET001,DET002,DET003,DET004,DET005,DET006,DET007,DET008,DET100,LAYER001,ALLOC001     --format human; then
    echo "bench.sh: refusing to benchmark with open DET/LAYER/ALLOC findings" >&2
    exit 1
fi

jsonl="$(mktemp /tmp/addressing.XXXXXX.jsonl)"
tracedir="$(mktemp -d /tmp/example_trace.XXXXXX)"
trap 'rm -f "$jsonl"; rm -rf "$tracedir"' EXIT

echo "== cargo bench --bench addressing (IPG_THREADS=$IPG_THREADS) =="
CRITERION_JSON="$jsonl" cargo bench -p ipg-bench --bench addressing

# Includes the `shortest_next_hop` group: the codec router's cost per
# hop on a fixed query list, without running a simulation.
echo "== cargo bench --bench thm41_routing =="
CRITERION_JSON="$jsonl" cargo bench -p ipg-bench --bench thm41_routing

echo "== bench_report -> results/BENCH_core.json =="
cargo run --release -p ipg-bench --bin bench_report -- "$jsonl"

# Table vs codec routing and the 2^22-node memory split, every reading
# a fresh child process; then rewrite the generated blocks of README.md,
# EXPERIMENTS.md and DESIGN.md from the new JSON, so the quoted numbers
# cannot drift from it (the ipg-bench doc_blocks test checks they match).
# Pinned to 2 threads whatever the pool above: the committed
# BENCH_sim.json was measured at IPG_THREADS=2, and a 4-thread pool on a
# 2-vCPU host moves its readings by oversubscription alone.
echo "== sim_bench -> results/BENCH_sim.json, then the docs' generated blocks =="
IPG_THREADS=2 cargo run --release -p ipg-bench --bin sim_bench
cargo run --release -p ipg-bench --bin bench_report -- --render-docs

echo "== regenerate results/*.manifest.jsonl =="
for bin in fault_sweep fig2_dd_cost link_utilization sim_latency thm_checks wormhole_vcs; do
    echo "-- $bin"
    cargo run -q --release -p ipg-bench --bin "$bin" > /dev/null
done

# The two commands in the header of crates/ipg-cli/tests/trace_example.rs,
# run under the same relative file names the test uses; that test holds
# the committed file to them byte for byte.
echo "== ipg simulate --trace, ipg trace chrome -> results/example_trace.chrome.json =="
cargo build -q --release -p ipg-cli
ipg="$PWD/target/release/ipg"
(
    cd "$tracedir"
    IPG_THREADS=2 "$ipg" simulate ring-cn:l=2,nucleus=Q2 0.03 \
        --trace example.trace.jsonl --trace-interval 200 > /dev/null
    IPG_THREADS=2 "$ipg" trace chrome example.trace.jsonl example.chrome.json
)
cp "$tracedir/example.chrome.json" results/example_trace.chrome.json
