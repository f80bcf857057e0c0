#!/usr/bin/env bash
# The repository's CI gate. Run from the workspace root:
#
#   ./scripts/ci.sh
#
# Everything is offline — no crates are fetched. TSN_SWEEP_WORKERS can
# be exported beforehand to pin worker counts on constrained machines.
# Performance verdicts come from the repository benchmark's records
# (perfbench/, gated by bench_gate) alone.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# `--locked` on the workspace steps: a Cargo.lock that no longer matches
# the manifests fails here instead of being rewritten silently.
run cargo build --locked --release --workspace --all-targets
run cargo test -q --locked --workspace

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
    && CARGO_TARGET_DIR="$hermetic_target" run cargo test -q --locked --workspace --offline)
end_hermetic
trap - EXIT

run cargo clippy --locked --workspace --all-targets -- -D warnings
run cargo fmt --check

# Docs must build warning-free (broken intra-doc links, missing docs).
RUSTDOCFLAGS="-D warnings" run cargo doc --locked --no-deps --workspace

# HDL machine check: parse the committed generated_hdl*/ trees and the
# freshly emitted preset bundles into the structural IR and run the full
# lint rule set (width mismatches, unused ports, undeclared identifiers,
# address-width violations, ...). Any finding is an error — shipped RTL
# lints clean by invariant. On its own line so an HDL regression is
# named here rather than buried in the workspace test wall.
run cargo test -q --release -p tsn-builder-suite --test hdl_machine_check

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

# Zero-allocation proof: the counting-allocator test asserts the serial
# event loop's steady state performs no heap allocation after warmup on
# the large-plant workload. Release mode, on its own line so a hot-path
# allocation regression is named here rather than buried in the
# workspace test wall.
run cargo test -q --release -p tsn-sim --test zero_alloc

# Benchmark gate: the repository benchmark (perfbench/, its own package)
# runs its self-tests, then one traced run of each workload, each of
# which exits non-zero when one of its output checks fails (lossless
# plants, reconfigure digests equal to from-scratch builds, byte-stable
# DSE responses). bench_gate then reads the four records under
# perfbench/out/ and gates them: the records' own checks, peak RSS, the
# in-run ratios (rebuild vs patch, plant set-up vs install, BinaryHeap vs
# calendar event queue), the DSE answer-cache hit ratio, a
# throughput floor, and rates against references pinned for one host
# fingerprint (skipped on any other host). Every gate prints its value
# and threshold.
run cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in plant_100k plant_10k_reconfig fig2_mixed dse_batch; do
    if ! run cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 15 --trace 1; then
        echo "perfbench $workload failed its output checks" >&2
        exit 1
    fi
done
run cargo run -q --release -p tsn-experiments --bin bench_gate

echo "CI gate passed."
