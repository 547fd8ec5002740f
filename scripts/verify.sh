#!/usr/bin/env bash
# Repo verification: tier-1 build/lint/tests, the workspace's rustdoc
# with warnings denied, the e2ebench benchmark package's lint, every
# workspace crate's tests (the three substrate crates' and the core
# detector's a second time in the debug profile), a differential-fuzz
# slice, the e2ebench
# benchmark's own test and 1-second smoke runs of its two
# deferred-sweep workloads, the repo-hygiene guard, and the
# bench gates: `bench_gate` lints the committed BENCH_*.json baselines
# and, in full mode, gates quick hotpath/scaling/server runs against
# them. The gates, their floors and what fails them are documented
# once, in crates/bench/src/gate.rs.
#
# Usage:
#   scripts/verify.sh           # full: everything, plus the three quick
#                               # bench runs gated against the baselines
#   scripts/verify.sh --fast    # no bench runs: the baselines are linted
#   CI_FAST=1 scripts/verify.sh # same as --fast (for CI environment blocks)
#
# Tunables:
#   VERIFY_BENCH_TOL      Relative tolerance (percent) of the current-run
#                         bench gates, default 20. Raise it on noisy shared
#                         runners, e.g. VERIFY_BENCH_TOL=35 scripts/verify.sh.
#   VERIFY_FUZZ_PROGRAMS  Programs in the fuzz slice, default 150; 0 skips.
#
# Fails if any stage fails: the tier-1 suite (build, clippy -D warnings,
# tests), a rustdoc warning in the workspace, the e2ebench package's
# rustfmt check or clippy -D warnings, any
# workspace crate's tests (tier-1 `cargo test` runs only the root
# package's) in release or, for vmem, heap, shadow and core, debug, a fuzz
# divergence, the e2ebench build or test, a
# failed correctness check in an e2ebench smoke run, a
# tracked file matching .gitignore (stale artifacts must stay untracked
# once ignored), or a bench gate.
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
[[ "${1-}" == "--fast" || "${CI_FAST-}" == "1" ]] && fast=1

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo clippy -D warnings =="
cargo clippy -q --all-targets -- -D warnings

echo "== docs: cargo doc --workspace --no-deps, warnings denied =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

# The benchmark package is its own workspace, so neither the clippy
# above nor `cargo fmt --all` ever sees it.
echo "== benchmark lint: e2ebench rustfmt + clippy -D warnings =="
cargo fmt --manifest-path e2ebench/Cargo.toml --check
cargo clippy -q --offline --all-targets --manifest-path e2ebench/Cargo.toml -- -D warnings

echo "== tier-1: cargo test -q =="
cargo test -q

# Tier-1 tests only the root package; the crates' own unit tests (log
# tiers, sweep engine, pools, hooks, ...) run here.
echo "== workspace: cargo test --workspace --release -q =="
cargo test --workspace --release -q

# The lock-free substrate (the page directory and its install races, the
# span registry, the metapagetable) and the core detector (the log tiers,
# the pools, the sweep engine: most of the repo's `unsafe`) once more with
# debug assertions and overflow checks, which the release run above
# compiles out.
echo "== debug: cargo test -q -p dangsan-vmem -p dangsan-heap -p dangsan-shadow -p dangsan =="
cargo test -q -p dangsan-vmem -p dangsan-heap -p dangsan-shadow -p dangsan

# The fixed-seed corpus replay and a bounded fixed-seed campaign already
# ran inside cargo test (tests/fuzz_corpus.rs, instr prop_fuzz_diff); this
# runs the standalone driver on a further slice so verify covers more of
# the seed space than the offline suite alone. Override the count with
# VERIFY_FUZZ_PROGRAMS (0 skips).
fuzz_programs=${VERIFY_FUZZ_PROGRAMS:-150}
fuzz_seed=424242
if [[ "$fuzz_programs" != "0" ]]; then
    echo "== differential fuzz: fuzz_diff --programs $fuzz_programs =="
    if ! cargo run --release -q -p dangsan-bench --bin fuzz_diff -- \
        --programs "$fuzz_programs" --seed "$fuzz_seed" --quiet; then
        # Name the exact campaign so a failure reproduces offline without
        # reading this script: base seed, seed range, and the arm matrix.
        echo "verify: FAIL — differential fuzz diverged" >&2
        echo "verify: base seed $fuzz_seed, seeds $fuzz_seed..$((fuzz_seed + fuzz_programs - 1))" >&2
        echo "verify: arms: $(cargo run --release -q -p dangsan-bench --bin fuzz_diff -- --list-arms)" >&2
        echo "verify: reproduce: cargo run --release -p dangsan-bench --bin fuzz_diff -- --programs $fuzz_programs --seed $fuzz_seed" >&2
        exit 1
    fi
fi

# The repository benchmark is its own package (outside the workspace),
# so the workspace build above never compiles it. Its test builds it
# against the current crates and checks the timing wrapper is
# transparent on the churn workload's inline free path.
echo "== benchmark test: e2ebench =="
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

# The test above runs only `churn`, on the inline free path. These short
# runs of the two deferred-sweep workloads, with the BENCHMARK.json
# command, put their own checks on the backpressure path: every UAF
# canary traps after `drain`, and the hooked call counts reconcile with
# `StatsSnapshot`. The benchmark exits non-zero when a check fails.
for workload in server shared-stores; do
    echo "== benchmark smoke: e2ebench --workload $workload =="
    cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 1 --trace 0
done

echo "== repo hygiene: no tracked-but-ignored files =="
if tracked_ignored=$(git ls-files -ci --exclude-standard) && [[ -n "$tracked_ignored" ]]; then
    echo "verify: FAIL — tracked files matching .gitignore (git rm --cached them):" >&2
    echo "$tracked_ignored" >&2
    exit 1
fi
echo "verify: working tree clean of tracked-but-ignored files"

gate=(cargo run --release -q -p dangsan-bench --bin bench_gate --)
if [[ $fast -eq 1 ]]; then
    echo "== bench gates: committed baselines (fast mode: no bench runs) =="
    "${gate[@]}"
    echo "verify: all checks passed"
    exit 0
fi

runs=$(mktemp -d /tmp/verify-bench.XXXXXX)
trap 'rm -rf "$runs"' EXIT
for bin in hotpath scaling server; do
    echo "== $bin --quick =="
    cargo run --release -p dangsan-bench --bin "$bin" -- --quick --out "$runs/$bin.json"
done

echo "== bench gates: committed baselines + current run =="
"${gate[@]}" "$runs/hotpath.json" "$runs/scaling.json" "$runs/server.json"

echo "verify: all checks passed"
