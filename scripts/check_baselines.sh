#!/usr/bin/env bash
# Lint the committed BENCH_*.json baselines (no cargo, shell + awk only —
# runs in seconds, called from scripts/verify.sh and CI).
#
# Usage: scripts/check_baselines.sh
#
# Fails if:
#   - BENCH_hotpath.json is missing, unparsable, missing its recorded
#     core count or any of the eleven gated benches, or locks in a
#     sub-1.0x speedup on a core bench
#     (registerptr, ptr2obj, malloc_free, invalidate), a deferred-free
#     bench (free_many_objs, free_while_reg — the deferred sweep must
#     keep mutator-visible free cheaper than the inline walk), or the
#     routed bench (malloc_free_thin — adaptive routing must beat
#     forced-Standard on a clean-site churn, or it has no reason to
#     exist),
#   - either BENCH_*.json carries the wrong schema string,
#   - BENCH_scaling.json is missing, unparsable, missing its derived
#     figures / recorded core count, or missing the per-cell queue
#     observability keys (sweep_steals, sweep_shard_peak_0, p50_ns,
#     p99_ns) the scaling schema now carries,
#   - the committed scaling numbers miss their floors. The 4t/1t floor is
#     keyed on the baseline's own recorded "cores" value, because a
#     1-core machine cannot honestly show a 4-thread speedup:
#       cores >= 4  ->  4t/1t >= 1.8   (the paper-shape claim)
#       cores 2..3  ->  4t/1t >= 0.9   (must not collapse under threads)
#       cores == 1  ->  4t/1t >= 0.7   (oversubscription must stay cheap)
#     Override with VERIFY_SCALING_MIN=<float>. The thread-cached
#     allocator must also hold >= 0.95x the locked path at 1 thread
#     (override with VERIFY_SCALING_LOCKED_MIN),
#   - BENCH_scaling.json's cross-defense rows are missing or malformed:
#     every arm in the defense enum (baseline dangsan dangnull xtag
#     implicit-id pa-mac) must carry a parsable ops_per_sec and a
#     parsable overhead_vs_baseline >= 0,
#   - BENCH_server.json's tagging-arm capacity rows (xtag implicit-id
#     pa-mac) miss their overhead_vs_baseline >= 0,
#   - BENCH_server.json is missing, unparsable, carries the wrong schema,
#     or misses the cores-keyed dangsan/baseline capacity-ratio floor
#     (instrumentation costs throughput, but only so much):
#       cores >= 4  ->  ratio >= 0.12
#       cores 2..3  ->  ratio >= 0.10
#       cores == 1  ->  ratio >= 0.08
#     Override with VERIFY_SERVER_MIN=<float>. The open-loop latency
#     percentiles (p50/p99/p999) and session-churn count must be present
#     and parsable; their magnitudes are machine-shaped, so verify.sh
#     holds the regression line on them, not this lint.
set -euo pipefail

cd "$(dirname "$0")/.."

HOTPATH_BENCHES="registerptr ptr2obj malloc_free invalidate \
                 free_many_ptrs free_many_objs free_while_reg \
                 sweep_total malloc_free_thin trace_off metrics_off"
CORE_BENCHES="registerptr ptr2obj malloc_free invalidate"
# Deferred-free benches: committed with deferred_sweep on, the speedup
# column is deferred-over-inline on identical free traffic, so anything
# below 1.0 means the deferred sweep failed to make free cheaper.
DEFERRED_BENCHES="free_many_objs free_while_reg"
# Routed bench: the speedup column is site-policy-on over forced-Standard
# on an identical clean-site churn; below 1.0 means the Thin fast path
# failed to reclaim the work it exists to skip.
ROUTED_BENCHES="malloc_free_thin"
# The cross-defense arm enum: one row per defense class in the scaling
# bench's "defenses" section. Must match scaling.rs defense_arms().
DEFENSE_ARMS="baseline dangsan dangnull xtag implicit-id pa-mac"
# The tagging arms that carry capacity rows in BENCH_server.json.
TAGGING_ARMS="xtag implicit-id pa-mac"

status=0

# Extract the first numeric value following a quoted key from a pretty-
# printed JSON file (our hand-rolled writer emits one key per line).
# Usage: num_of FILE KEY [SECTION] — with SECTION, start matching only
# after the section key has been seen.
num_of() {
    awk -v key="\"$2\"" -v section="\"${3-}\"" '
        section != "\"\"" && index($0, section) { in_section = 1 }
        (section == "\"\"" || in_section) && index($0, key) {
            for (i = 1; i <= NF; i++) if (index($i, key)) {
                v = $(i + 1); gsub(/[",]/, "", v); print v; exit
            }
        }
    ' "$1"
}

# Like num_of, but two anchors deep: match KEY only after both the
# SECTION key and the ARM key inside it have been seen (our writer
# emits rows in declaration order, one key per line).
# Usage: row_num_of FILE SECTION ARM KEY
row_num_of() {
    awk -v section="\"$2\"" -v arm="\"$3\"" -v key="\"$4\"" '
        index($0, section) { in_section = 1 }
        in_section && index($0, arm) { in_arm = 1 }
        in_arm && index($0, key) {
            for (i = 1; i <= NF; i++) if (index($i, key)) {
                v = $(i + 1); gsub(/[",]/, "", v); print v; exit
            }
        }
    ' "$1"
}

require_file() {
    if [[ ! -f "$1" ]]; then
        echo "check_baselines: FAIL — no committed $1; regenerate it:" >&2
        echo "    $2" >&2
        return 1
    fi
}

check_schema() {
    # check_schema FILE EXPECTED — the baseline must declare the schema
    # string its readers (this script, verify.sh awk extraction) parse.
    local got
    got=$(awk -v key='"schema"' '
        index($0, key) {
            for (i = 1; i <= NF; i++) if (index($i, key)) {
                v = $(i + 1); gsub(/[",]/, "", v); print v; exit
            }
        }
    ' "$1")
    if [[ "$got" != "$2" ]]; then
        echo "check_baselines: FAIL — $1 schema is '${got:-missing}', expected '$2'" >&2
        return 1
    fi
    printf "check_baselines: %-32s OK — %s (%s)\n" "schema" "$got" "$1"
}

check_num() {
    # check_num FILE LABEL VALUE FLOOR — VALUE must parse and be >= FLOOR.
    awk -v file="$1" -v label="$2" -v v="$3" -v floor="$4" 'BEGIN {
        if (v == "" || v + 0 != v) {
            printf "check_baselines: FAIL — %s has no parsable %s (got \x27%s\x27)\n", file, label, v
            exit 1
        }
        if (v + 0 < floor + 0) {
            printf "check_baselines: FAIL — %s: %s = %.3f below floor %.3f\n", file, label, v, floor
            exit 1
        }
        printf "check_baselines: %-32s OK — %.3f >= %.3f (%s)\n", label, v, floor, file
    }'
}

# --- BENCH_hotpath.json ---------------------------------------------------
hotpath=BENCH_hotpath.json
require_file "$hotpath" "cargo run --release -p dangsan-bench --bin hotpath" || status=1
if [[ -f "$hotpath" ]]; then
    check_schema "$hotpath" "dangsan-hotpath-v1" || status=1
    v=$(num_of "$hotpath" cores)
    check_num "$hotpath" "cores" "$v" 1 || status=1
    for bench in $HOTPATH_BENCHES; do
        v=$(num_of "$hotpath" speedup "$bench")
        check_num "$hotpath" "$bench.speedup" "$v" 0 || status=1
    done
    for bench in $CORE_BENCHES $DEFERRED_BENCHES $ROUTED_BENCHES; do
        v=$(num_of "$hotpath" speedup "$bench")
        check_num "$hotpath" "$bench.speedup" "$v" 1.0 || status=1
    done
fi

# --- BENCH_scaling.json ---------------------------------------------------
scaling=BENCH_scaling.json
require_file "$scaling" "cargo run --release -p dangsan-bench --bin scaling" || status=1
if [[ -f "$scaling" ]]; then
    check_schema "$scaling" "dangsan-scaling-v1" || status=1
    cores=$(num_of "$scaling" cores)
    check_num "$scaling" "cores" "$cores" 1 || status=1
    if [[ -n "${VERIFY_SCALING_MIN-}" ]]; then
        floor4=$VERIFY_SCALING_MIN
    else
        floor4=$(awk -v c="${cores:-0}" 'BEGIN {
            if (c >= 4) print 1.8; else if (c >= 2) print 0.9; else print 0.7
        }')
    fi
    v=$(num_of "$scaling" dangsan_speedup_4t_over_1t)
    check_num "$scaling" "dangsan_speedup_4t_over_1t" "$v" "$floor4" || status=1
    v=$(num_of "$scaling" cached_over_locked_1t)
    check_num "$scaling" "cached_over_locked_1t" "$v" \
        "${VERIFY_SCALING_LOCKED_MIN:-0.95}" || status=1
    v=$(num_of "$scaling" dangsan_parallel_efficiency_4t)
    check_num "$scaling" "dangsan_parallel_efficiency_4t" "$v" \
        "$(awk -v f="$floor4" 'BEGIN { print f / 4 }')" || status=1
    # Schema lint: the per-cell observability keys added with the routed
    # bench rows must be present in the dangsan arm (floor 0 — presence
    # and parsability, not magnitude: steal counts and queue depths are
    # load-shaped, latencies are machine-shaped).
    for key in sweep_steals sweep_shard_peak_0 p50_ns p99_ns; do
        v=$(num_of "$scaling" "$key" dangsan)
        check_num "$scaling" "dangsan.t1.$key" "$v" 0 || status=1
    done
    # Cross-defense rows: every arm in the enum must be present with a
    # parsable throughput and overhead ratio (floor 0 — presence and
    # parsability; the ratios themselves are machine-shaped).
    for arm in $DEFENSE_ARMS; do
        v=$(row_num_of "$scaling" defenses "$arm" ops_per_sec)
        check_num "$scaling" "defenses.$arm.ops_per_sec" "$v" 0 || status=1
        v=$(row_num_of "$scaling" defenses "$arm" overhead_vs_baseline)
        check_num "$scaling" "defenses.$arm.overhead_vs_baseline" "$v" 0 || status=1
    done
fi

# --- BENCH_server.json ----------------------------------------------------
server=BENCH_server.json
require_file "$server" "cargo run --release -p dangsan-bench --bin server" || status=1
if [[ -f "$server" ]]; then
    check_schema "$server" "dangsan-server-v1" || status=1
    cores=$(num_of "$server" cores)
    check_num "$server" "cores" "$cores" 1 || status=1
    if [[ -n "${VERIFY_SERVER_MIN-}" ]]; then
        floor_rps=$VERIFY_SERVER_MIN
    else
        floor_rps=$(awk -v c="${cores:-0}" 'BEGIN {
            if (c >= 4) print 0.12; else if (c >= 2) print 0.10; else print 0.08
        }')
    fi
    v=$(num_of "$server" dangsan_over_baseline_rps)
    check_num "$server" "dangsan_over_baseline_rps" "$v" "$floor_rps" || status=1
    # Schema lint: the open-loop latency figures and the per-class
    # breakdown keys must be present and parsable (floor: percentiles
    # must be measured, counts merely present).
    for key in dangsan_p50_ns dangsan_p99_ns dangsan_p999_ns; do
        v=$(num_of "$server" "$key")
        check_num "$server" "$key" "$v" 1 || status=1
    done
    for key in offered_rps sessions_churned; do
        v=$(num_of "$server" "$key" dangsan)
        check_num "$server" "dangsan.open_loop.$key" "$v" 0 || status=1
    done
    # Tagging-arm capacity rows: each must be present with a parsable
    # capacity and overhead ratio.
    for arm in $TAGGING_ARMS; do
        v=$(row_num_of "$server" arms "$arm" capacity_rps)
        check_num "$server" "arms.$arm.capacity_rps" "$v" 0 || status=1
        v=$(row_num_of "$server" arms "$arm" overhead_vs_baseline)
        check_num "$server" "arms.$arm.overhead_vs_baseline" "$v" 0 || status=1
    done
fi

[[ $status -eq 0 ]] || exit 1
echo "check_baselines: all baselines OK"
