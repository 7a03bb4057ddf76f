#!/usr/bin/env bash
# Repo verification gate: tier-1 (build + tests) plus lints.
#
# Runs everything CI would:
#   1. tier-1 from ROADMAP.md: cargo build --release && cargo test -q,
#      then the benchmark lockfile check: perfbench/ resolves against
#      its committed Cargo.lock without rewriting it (a dependency edge
#      added to or removed from a crate it reaches fails here)
#   2. cargo clippy --workspace -- -D warnings
#   3. cargo fmt --check
#   4. cargo bench --workspace --no-run (benches must keep compiling)
#   5. proto_check gates: the model checker exhaustively explores the
#      2-core x 1-line config to its pinned fixpoint (19137 states /
#      147700 transitions) serially, then again with --jobs 2 (the
#      parallel engine must report bit-identical counts), then on a
#      65-core wide machine (checker cores 0 and 64, multi-word
#      ProcSets — identical graph again); a 3-core tx-alphabet run to
#      its pinned fixpoint (~2 min); a wide 3-core bounded-depth
#      equality check; and the liveness pass — no fair abort/grant
#      cycle under the shipped tie-break, and the Polka mutual-abort
#      livelock rediscovered when the tie-break is reverted
#   6. trace-enabled determinism pass (release): the attempt-trace
#      JSONL must be byte-identical across seeded runs
#   7. sched_bench --trace smoke: the abort-attribution table and
#      JSONL trace render end to end, and the stdout record names the
#      fiber engine it ran on
#   8. 64- and 128-core smoke: the wide HashTable runs complete with
#      the always-on invariant layer armed (release determinism test)
#   9. hot-state gates (release): the banked-directory property suite
#      against its HashMap oracle, and the steady-state allocation gate
#      (a 16-core HashTable run must add zero host heap allocations per
#      transaction once warm)
#  10. fingerprint gate: the HashTable event/counter digests must match
#      the recorded values — 16 cores on the fiber and OS-thread
#      engines, 64 cores on the fiber engine, 128 cores on both — any
#      drift is a semantic change to the simulated machine, not a
#      refactor
#  11. bench-crate tests (flextm-bench is not a workspace
#      default-member, so tier-1 `cargo test` skips it): env parsing,
#      cell and sched_bench record round trips, entry points
#  12. sweep farm smoke: the 2x2 smoke matrix runs twice against a
#      fresh store; the second run must execute zero cells (pure cache)
#      and emit byte-identical tables/JSON
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== benchmark lockfile: perfbench resolves without rewriting Cargo.lock =="
cargo metadata -q --offline --locked --format-version 1 \
    --manifest-path perfbench/Cargo.toml >/dev/null

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all --check

echo "== benches compile (no run) =="
cargo bench --workspace --no-run

echo "== proto_check smoke (exhaustive 2 cores x 1 line, serial) =="
narrow_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 1 --jobs 1)"
echo "$narrow_json"
case "$narrow_json" in
*'"states": 19137, "transitions": 147700'*) ;;
*)
    echo "2x1 state graph drifted from the pinned 19137 states / 147700 transitions"
    exit 1
    ;;
esac
graph_of() {
    # Graph shape only: states/transitions/depth/violations — the
    # leading strip drops the parameter echo (cores/lines/wide/
    # alphabet/jobs all precede "states"), the second drops wall time.
    echo "$1" | sed 's/.*"states"/"states"/; s/ "wall_s": [0-9.]*,//'
}

echo "== proto_check parallel equality (same config, --jobs 2) =="
par_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 1 --jobs 2)"
echo "$par_json"
if [ "$(graph_of "$narrow_json")" != "$(graph_of "$par_json")" ]; then
    echo "parallel exploration diverged from serial:"
    echo "  jobs 1: $(graph_of "$narrow_json")"
    echo "  jobs 2: $(graph_of "$par_json")"
    exit 1
fi

echo "== proto_check wide smoke (same alphabet, cores 0 and 64 of a 65-core machine) =="
wide_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 1 --wide --jobs 2)"
echo "$wide_json"
narrow_graph="$(graph_of "$narrow_json")"
wide_graph="$(graph_of "$wide_json")"
if [ "$narrow_graph" != "$wide_graph" ]; then
    echo "wide machine changed the explored state graph:"
    echo "  narrow: $narrow_graph"
    echo "  wide:   $wide_graph"
    exit 1
fi

echo "== proto_check 3-core fixpoint (tx alphabet; the deep-coverage gate, ~2 min) =="
deep_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 3 --lines 1 --alphabet tx --jobs 2 2>/dev/null)"
echo "$deep_json"
case "$deep_json" in
*'"states": 396632, "transitions": 3037872'*'"truncated": 0'*) ;;
*)
    echo "3x1 tx exploration drifted from the pinned 396632 states / 3037872 transitions fixpoint"
    exit 1
    ;;
esac

echo "== proto_check wide 3-core bounded equality (66-core machine, depth 7) =="
n3_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 3 --lines 1 --alphabet tx --depth 7 --jobs 2 2>/dev/null)"
w3_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 3 --lines 1 --alphabet tx --depth 7 --wide --jobs 2 2>/dev/null)"
echo "$w3_json"
n3_graph="$(graph_of "$n3_json")"
w3_graph="$(graph_of "$w3_json")"
if [ "$n3_graph" != "$w3_graph" ]; then
    echo "wide 3-core machine changed the explored state graph:"
    echo "  narrow: $n3_graph"
    echo "  wide:   $w3_graph"
    exit 1
fi

echo "== liveness: shipped tie-break must admit no fair abort cycle =="
live_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 2 --liveness)"
echo "$live_json"
case "$live_json" in
*'"livelock": false'*) ;;
*)
    echo "liveness pass reported a fair abort/grant cycle on the shipped policy"
    exit 1
    ;;
esac

echo "== liveness: reverted tie-break must rediscover the Polka mutual-abort livelock =="
if revert_out="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 2 --liveness --revert-tie-break 2>&1)"; then
    echo "reverted tie-break was reported live — the livelock detector is blind"
    exit 1
fi
case "$revert_out" in
*livelock*) echo "$revert_out" | head -4 ;;
*)
    echo "reverted tie-break failed without a livelock witness:"
    echo "$revert_out"
    exit 1
    ;;
esac

echo "== trace determinism (release) =="
cargo test -q --release -p flextm-workloads --test determinism \
    attempt_trace_is_deterministic_and_round_trips

echo "== sched_bench --trace smoke =="
trace_out="$(mktemp)"
sched_json="$(FLEXTM_SCHED_TXNS=8 FLEXTM_TRACE_OUT="$trace_out" \
    cargo run -q --release -p flextm-bench --bin sched_bench -- --protocol --trace)"
echo "$sched_json"
test -s "$trace_out" || { echo "sched_bench --trace wrote no records"; exit 1; }
rm -f "$trace_out"
case "$sched_json" in
*'"engine": "fiber"'*) ;;
*)
    echo "sched_bench did not run on (or did not report) the fiber engine"
    exit 1
    ;;
esac

echo "== 64/128-core smoke (wide machines, invariants + byte-identical replay) =="
cargo test -q --release -p flextm-workloads --test determinism \
    wide_machines_replay_identically_with_invariants

echo "== banked-directory property suite (vs HashMap oracle) =="
cargo test -q --release -p flextm-sim --test bankdir_props

echo "== steady-state allocation gate (zero host allocs per txn) =="
cargo test -q --release -p flextm-workloads --test alloc_gate

echo "== fingerprint gate (16/64/128-core digests, both engines) =="
check_fp() {
    # $1: label, $2/$3: expected event/counter digests, rest: env
    # assignments for the run.
    local label="$1" expect_event="$2" expect_counter="$3"
    shift 3
    local line
    line="$(env "$@" cargo run -q --release -p flextm-bench --bin fingerprint)"
    echo "$line"
    case "$line" in
    *"\"event_digest\": \"$expect_event\""*"\"counter_digest\": \"$expect_counter\""*) ;;
    *)
        echo "fingerprint drift ($label): expected $expect_event/$expect_counter"
        exit 1
        ;;
    esac
}
check_fp "16 cores, fiber" b91bf014cd6135a9 578f521ae8b7bc3c FLEXTM_FP_THREADS=16
check_fp "16 cores, os threads" b91bf014cd6135a9 578f521ae8b7bc3c FLEXTM_FP_OS_THREADS=1
check_fp "64 cores, fiber" d34775d969e420b2 6cc4ea7e1310c55a FLEXTM_FP_THREADS=64
check_fp "128 cores, fiber" 4f9572484c5837ab 9f9373a80c9906db FLEXTM_FP_THREADS=128
check_fp "128 cores, os threads" 4f9572484c5837ab 9f9373a80c9906db \
    FLEXTM_FP_THREADS=128 FLEXTM_FP_OS_THREADS=1

echo "== bench-crate tests (not a default-member; env parsing, cell records) =="
cargo test -q -p flextm-bench

echo "== sweep farm smoke (2x2 matrix; warm re-run must be pure cache) =="
sweep_tmp="$(mktemp -d)"
cargo run -q --release -p flextm-sweep --bin sweep -- \
    --spec smoke2x2 --store "$sweep_tmp/store" --emit "$sweep_tmp/cold" --quiet
warm_json="$(cargo run -q --release -p flextm-sweep --bin sweep -- \
    --spec smoke2x2 --store "$sweep_tmp/store" --emit "$sweep_tmp/warm" --quiet)"
echo "$warm_json"
case "$warm_json" in
*'"executed": 0, "cached": 4'*) ;;
*)
    echo "warm sweep re-executed cells instead of serving from cache"
    rm -rf "$sweep_tmp"
    exit 1
    ;;
esac
if ! diff -r "$sweep_tmp/cold" "$sweep_tmp/warm"; then
    echo "cached sweep emitted different bytes than the cold run"
    rm -rf "$sweep_tmp"
    exit 1
fi
rm -rf "$sweep_tmp"

echo "verify: all checks passed"
