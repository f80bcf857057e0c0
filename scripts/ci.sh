#!/usr/bin/env bash
# The repository's CI gate. Run from the workspace root:
#
#   ./scripts/ci.sh
#
# Everything is offline — no crates are fetched. TSN_SWEEP_WORKERS and
# TSN_BENCH_MS can be exported beforehand to pin worker counts / bench
# budgets on constrained machines.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --all-targets
run cargo test -q --workspace

# Hermetic checkout: the workspace tests must also pass in a fresh
# checkout of HEAD, which holds no untracked files, so a test that
# depends on one fails here. The checkout builds under this tree's
# target directory, in its own `hermetic/` subdirectory: cargo keys
# workspace artifacts by package-relative paths but bakes absolute ones
# (`CARGO_MANIFEST_DIR`) into them, so sharing the directory itself
# would leave this tree with test binaries that point into the removed
# checkout. The checkout is removed however the step ends.
hermetic_tmp="$(mktemp -d)"
hermetic_target="${CARGO_TARGET_DIR:-$PWD/target}/hermetic"
end_hermetic() {
    git worktree remove --force "$hermetic_tmp/checkout" 2>/dev/null || true
    rm -rf "$hermetic_tmp"
    git worktree prune
}
trap end_hermetic EXIT
run git worktree add --quiet --detach "$hermetic_tmp/checkout" HEAD
(cd "$hermetic_tmp/checkout" \
    && CARGO_TARGET_DIR="$hermetic_target" run cargo test -q --workspace --offline)
end_hermetic
trap - EXIT

run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --check

# Docs must build warning-free (broken intra-doc links, missing docs).
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace

# HDL machine check: parse the committed generated_hdl*/ trees and the
# freshly emitted preset bundles into the structural IR and run the full
# lint rule set (width mismatches, unused ports, undeclared identifiers,
# address-width violations, ...). Any finding is an error — shipped RTL
# lints clean by invariant.
run cargo run -q --release -p tsn-builder-suite --bin hdl_lint

# Fault-sweep smoke: the full intensity grid on a short horizon. The
# binary itself asserts monotone deadline-miss growth and that all three
# fault families fired, so a broken fault model fails CI here.
run cargo run -q --release -p tsn-experiments --bin fault_sweep -- --smoke

# Differential-testing smoke: replay the committed verify/corpus/ (seed
# pins + shrunk regressions), then run every cross-layer oracle and
# property on fresh random cases within the TSN_VERIFY_MS budget. The
# hdl-cost-agreement pin alone replays 128 cases x 8 randomized
# ResourceConfigs = 1024 parse/lint/cost checks against tsn-resource.
# Any failure is shrunk to a minimal case, persisted into verify/corpus/
# and printed with its reproduction command.
TSN_VERIFY_MS="${TSN_VERIFY_MS:-4000}" \
    run cargo run -q --release -p tsn-verify --bin verify -- --smoke

# Bench smoke: a tiny TSN_BENCH_MS budget proves the harness and every
# scenario still run end to end, and gates on the recorded summaries:
#   - the smoke's geomean speedup vs the b8cca7c baselines in
#     BENCH_2.json and the serial-path (shards=1) geomean vs the pinned
#     serial baselines in BENCH_5.json must both stay >= 0.95x;
#   - the sharded engine's shards=2 geomean vs the same-run serial
#     median must stay >= 1.0x on multi-core hosts, or >= 0.5x on a
#     single CPU (there the epoch protocol is pure overhead — the gate
#     bounds that overhead at 2x instead of demanding a speedup);
#   - every epoch message must replace at least 5 per-event exchanges
#     (released + replayed events per coordinator message), pinning the
#     batched protocol against a per-event regression.
# The tracked (full-budget) JSON files are restored afterwards so a
# smoke run never overwrites the recorded numbers.
tracked_bench2="$(mktemp)"
tracked_bench5="$(mktemp)"
cp BENCH_2.json "$tracked_bench2"
cp BENCH_5.json "$tracked_bench5"
TSN_BENCH_MS="${TSN_BENCH_MS:-25}" run cargo bench -q -p tsn-bench --bench simulation
smoke_geomean2="$(sed -n 's/.*"geomean_speedup": \([0-9.]*\).*/\1/p' BENCH_2.json)"
smoke_geomean5="$(sed -n 's/.*"serial_geomean_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_5.json)"
smoke_shards2="$(sed -n 's/.*"shards2_geomean_vs_serial": \([0-9.]*\).*/\1/p' BENCH_5.json)"
smoke_reduction="$(sed -n 's/.*"message_reduction_vs_per_event_min": \([0-9.]*\).*/\1/p' BENCH_5.json)"
cp "$tracked_bench2" BENCH_2.json
cp "$tracked_bench5" BENCH_5.json
rm -f "$tracked_bench2" "$tracked_bench5"
if [ -z "$smoke_geomean2" ] || [ -z "$smoke_geomean5" ] \
    || [ -z "$smoke_shards2" ] || [ -z "$smoke_reduction" ]; then
    echo "bench smoke wrote incomplete summary fields" >&2
    exit 1
fi
echo "==> bench smoke geomean ${smoke_geomean2}x vs b8cca7c baselines (gate: >= 0.95)"
if ! awk -v g="$smoke_geomean2" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "bench smoke geomean ${smoke_geomean2}x regressed below 0.95x baseline" >&2
    exit 1
fi
echo "==> shard-bench serial-path geomean ${smoke_geomean5}x vs pinned serial baselines (gate: >= 0.95)"
if ! awk -v g="$smoke_geomean5" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "shard bench serial path ${smoke_geomean5}x regressed below 0.95x baseline" >&2
    exit 1
fi
cores="$(nproc 2>/dev/null || echo 1)"
if [ "$cores" -ge 2 ]; then
    shards2_floor="1.0"
else
    shards2_floor="0.5"
fi
echo "==> shards=2 geomean ${smoke_shards2}x vs same-run serial on ${cores} CPU(s) (gate: >= ${shards2_floor})"
if ! awk -v g="$smoke_shards2" -v f="$shards2_floor" 'BEGIN { exit !(g >= f) }'; then
    echo "sharded engine at shards=2 is ${smoke_shards2}x serial, below the ${shards2_floor}x floor" >&2
    exit 1
fi
echo "==> epoch batching: ${smoke_reduction} work units per coordinator message (gate: >= 5)"
if ! awk -v g="$smoke_reduction" 'BEGIN { exit !(g >= 5) }'; then
    echo "message reduction ${smoke_reduction}x fell below 5x — the epoch protocol is degrading toward per-event exchange" >&2
    exit 1
fi

# Zero-allocation proof: the counting-allocator test asserts the serial
# event loop's steady state performs no heap allocation after warmup on
# the large-plant workload. Release mode, on its own line so a hot-path
# allocation regression is named here rather than buried in the
# workspace test wall.
run cargo test -q --release -p tsn-sim --test zero_alloc

# Scale smoke: the 10k-flow cases of the scale bench — the plant
# throughput case (the 100k and opt-in 1M cases stay full-budget-only)
# plus the reconfigure-vs-rebuild case the same filter now selects. The
# throughput case asserts byte-identical reports across event-queue
# backends and the sharded engine and a < 1 GiB peak RSS; the reconfig
# case asserts the reconfigure-path report digests identically to a
# from-scratch build. The gates below add an absolute throughput floor,
# a smoke RSS ceiling, the events/sec geomeans vs the pinned baselines
# in BENCH_7.json / BENCH_10.json (same >= 0.95x rule as BENCH_2), and
# an incremental-reconfigure speedup floor: >= 2x over from-scratch
# rebuild at smoke scale (the recorded full-budget 100k case clears
# >= 5x; 10k rebuilds are small enough that fixed per-instantiation
# costs compress the ratio). Both tracked full-budget JSON files are
# restored afterwards.
tracked_bench7="$(mktemp)"
tracked_bench10="$(mktemp)"
cp BENCH_7.json "$tracked_bench7"
cp BENCH_10.json "$tracked_bench10"
run cargo bench -q -p tsn-bench --bench scale -- flows/10k
scale_geomean="$(sed -n 's/.*"events_per_sec_geomean_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_7.json)"
scale_eps="$(sed -n 's/.*"events_per_sec": \([0-9.]*\).*/\1/p' BENCH_7.json | head -n1)"
scale_rss="$(sed -n 's/.*"peak_rss_bytes": \([0-9]*\).*/\1/p' BENCH_7.json | head -n1)"
reconfig_geomean="$(sed -n 's/.*"events_per_sec_geomean_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_10.json)"
reconfig_speedup="$(sed -n 's/.*"reconfigure_speedup": \([0-9.]*\).*/\1/p' BENCH_10.json | head -n1)"
cp "$tracked_bench7" BENCH_7.json
cp "$tracked_bench10" BENCH_10.json
rm -f "$tracked_bench7" "$tracked_bench10"
if [ -z "$scale_geomean" ] || [ -z "$scale_eps" ] \
    || [ -z "$reconfig_geomean" ] || [ -z "$reconfig_speedup" ]; then
    echo "scale smoke wrote incomplete summary fields" >&2
    exit 1
fi
echo "==> scale smoke: ${scale_eps} events/sec at 10k flows (floor: 300000)"
if ! awk -v e="$scale_eps" 'BEGIN { exit !(e >= 300000) }'; then
    echo "scale smoke throughput ${scale_eps} events/sec fell below the 300k floor" >&2
    exit 1
fi
if [ -n "$scale_rss" ]; then
    echo "==> scale smoke: peak RSS $((scale_rss >> 20))MiB at 10k flows (ceiling: 512MiB)"
    if [ "$scale_rss" -gt 536870912 ]; then
        echo "scale smoke peak RSS ${scale_rss} bytes breached the 512 MiB ceiling" >&2
        exit 1
    fi
fi
echo "==> scale smoke geomean ${scale_geomean}x vs pinned events/sec baselines (gate: >= 0.95)"
if ! awk -v g="$scale_geomean" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "scale bench geomean ${scale_geomean}x regressed below 0.95x baseline" >&2
    exit 1
fi
echo "==> reconfig smoke: ${reconfig_speedup}x incremental reconfigure vs rebuild at 10k flows (floor: 2)"
if ! awk -v s="$reconfig_speedup" 'BEGIN { exit !(s >= 2) }'; then
    echo "incremental reconfigure is only ${reconfig_speedup}x a from-scratch rebuild, below the 2x smoke floor" >&2
    exit 1
fi
echo "==> reconfig smoke geomean ${reconfig_geomean}x vs pinned events/sec baselines (gate: >= 0.95)"
if ! awk -v g="$reconfig_geomean" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "reconfigure-path bench geomean ${reconfig_geomean}x regressed below 0.95x baseline" >&2
    exit 1
fi

# DSE smoke: the design-space-search service answers its three
# deterministic 100-query family batches (20 unique queries x 5 labels
# each) within the TSN_DSE_MS budget, then the gates below check the
# queries/sec geomean vs the pinned baselines in BENCH_9.json (same
# >= 0.95x rule as the other benches) and that the intra-batch dedup
# actually happened (answer-cache hit rate exactly 0.8 by construction).
# The dse-optimality corpus pin (64 randomized queries re-checked in
# both optimality directions) already replayed in the verify step above.
# The tracked full-budget BENCH_9.json is restored afterwards.
tracked_bench9="$(mktemp)"
cp BENCH_9.json "$tracked_bench9"
TSN_DSE_MS="${TSN_DSE_MS:-2000}" run cargo run -q --release -p tsn-dse --bin dse -- --smoke
dse_geomean="$(sed -n 's/.*"queries_per_sec_geomean_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_9.json)"
dse_hit_rate="$(sed -n 's/.*"answers_hit_rate": \([0-9.]*\).*/\1/p' BENCH_9.json | head -n1)"
cp "$tracked_bench9" BENCH_9.json
rm -f "$tracked_bench9"
if [ -z "$dse_geomean" ] || [ -z "$dse_hit_rate" ]; then
    echo "dse smoke wrote incomplete summary fields" >&2
    exit 1
fi
echo "==> dse smoke geomean ${dse_geomean}x vs pinned queries/sec baselines (gate: >= 0.95)"
if ! awk -v g="$dse_geomean" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "dse smoke geomean ${dse_geomean}x regressed below 0.95x baseline" >&2
    exit 1
fi
echo "==> dse smoke answer-cache hit rate ${dse_hit_rate} (expected: 0.8)"
if ! awk -v h="$dse_hit_rate" 'BEGIN { exit !(h >= 0.79 && h <= 0.81) }'; then
    echo "dse answer-cache hit rate ${dse_hit_rate} is off the designed 0.8 duplication ratio — fingerprint dedup is broken" >&2
    exit 1
fi

echo "CI gate passed."
