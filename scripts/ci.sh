#!/usr/bin/env bash
# Tier-1 gate: hermetic build + tests + formatting.
#
# --offline is load-bearing, not an optimization: the workspace has a
# zero-external-dependency policy (see the root Cargo.toml and
# DESIGN.md), and running cargo with the network forbidden proves no PR
# can reintroduce a registry dependency — resolution itself would fail
# right here before a single test runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --workspace --offline
cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# The cluster runtime's simulated output is pinned byte for byte: eight
# rack scenarios — fault-free, with the fault plane active, under
# open-loop arrival chains, with the KV service's online advisor
# re-placing the index, with the far-memory tier promoting/demoting
# pages, with the BF-3 DPA plane serving gets, with every closed-loop
# serving arm (one-sided KV chains, remote far memory, DPA and plain
# SENDs), AND with every path-3 retry loop under PCIe corruption — each
# compare their CSV and full metrics registry against a golden under
# tests/golden/. Run the eight by name and refuse a run where the filter
# silently matched anything else (a rename would otherwise turn the gate
# into a no-op).
det_out=$(cargo test --release --offline -p offpath-smartnic --test determinism \
    cluster_golden_ 2>&1) || {
    echo "$det_out"
    echo "ci.sh: cluster golden tests FAILED" >&2
    exit 1
}
if ! grep -q "8 passed" <<<"$det_out"; then
    echo "$det_out"
    echo "ci.sh: expected exactly cluster_golden_mixed_paths +" \
        "cluster_golden_with_faults + cluster_golden_openloop +" \
        "cluster_golden_kv + cluster_golden_farmem +" \
        "cluster_golden_dpa + cluster_golden_closed_services +" \
        "cluster_golden_path3_faults (filtered out or renamed?)" >&2
    exit 1
fi

# The memory-model fast paths (the LLC's ring-ordered sets and repeat
# range, the DRAM walk's hoisted channel loop), the merge's key-only
# heap and the event engine's heap are exact only if they agree with
# their reference models on every input. Rerun those property tests over
# 2000 cases each, and refuse a run where the filters matched fewer
# tests than expected.
prop_gate() {
    local want=$1
    shift
    local out
    out=$(PROP_CASES=2000 cargo test -q --release --offline "$@" 2>&1) || {
        echo "$out"
        echo "ci.sh: oracle property tests FAILED ($*)" >&2
        exit 1
    }
    if ! grep -q "test result: ok. $want passed;" <<<"$out"; then
        echo "$out"
        echo "ci.sh: expected $want oracle property tests ($*)" >&2
        exit 1
    fi
}
prop_gate 6 -p memsys --lib -- llc::tests::paged_tags_match_baseline \
    dram::tests::access_matches_reference
prop_gate 1 -p snic-cluster --lib -- runtime::tests::slab_recycles
prop_gate 1 -p simnet --test props -- engine_matches_sorted_reference

# Smoke the cluster runtime end to end through its example, and the
# fault-injection, open-loop, KV-service, far-memory and BF-3 DPA
# sweeps through the figure runner.
cargo run --release --offline -p offpath-smartnic --example incast -- --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 15 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 16 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 17 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 18 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 19 --quick

# Perf-trajectory smoke: run the macro-bench suite at minimum sample
# count, then re-parse the emitted snapshot and require every expected
# bench key with sane throughput fields — a broken emitter (or a bench
# that stops reporting events) fails tier-1 here, not in the next PR's
# baseline comparison.
bench_snap=$(mktemp -t bench_smoke.XXXXXX.json)
trap 'rm -f "$bench_snap"' EXIT
BENCH_SAMPLES=3 BENCH_WARMUP=0 cargo run --release --offline -p snic-bench \
    --bin perf -- --out "$bench_snap"
cargo run --release --offline -p snic-bench --bin perf -- --check "$bench_snap"

# Micro-layer smoke: one sample of every primitives bench (engine, DRAM,
# LLC, stats, index), so a bench that stops compiling or panics fails
# here rather than rotting unnoticed.
BENCH_SAMPLES=1 BENCH_WARMUP=0 cargo bench --offline -p snic-bench --bench primitives

echo "ci.sh: build + tests + fmt + clippy + cluster goldens + oracle props + bench smokes all green (offline)"
