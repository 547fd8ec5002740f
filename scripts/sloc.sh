#!/usr/bin/env bash
# Non-test Rust lines per package and in total: the one rule behind the
# line counts quoted in CHANGES.md and ROADMAP.md. Next to each count, the
# package's non-test `unsafe` blocks by the same rule: each `unsafe {` on
# a counted line (string literals and trailing comments stripped), so
# `unsafe impl`, `unsafe trait` and `unsafe fn` items are not blocks.
#
# Counted: every `.rs` file under a package's `src/` (binaries included)
# and the root package's `examples/`. Left out: `tests/` and `benches/`
# directories, blank lines, comment lines (`//`, `///`, `//!` and
# `/* ... */` blocks), and every `#[cfg(test)]` item, from the attribute
# to the end of the item it marks (its closing brace, or the `;` of a
# braceless item such as a `use`). Braces inside string and character
# literals are ignored when matching an item's end.
#
# Usage: scripts/sloc.sh [repo root]   (default: this script's repo)
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
cd "$root"

count() {
    # Prints the counted lines and unsafe blocks of the files named on
    # stdin.
    local files
    files=$(cat)
    [[ -z "$files" ]] && { echo 0 0; return; }
    # shellcheck disable=SC2086
    awk '
        FNR == 1 { skip = 0; block = 0 }
        {
            t = $0
            sub(/^[ \t]+/, "", t)
            if (block) { if (t ~ /\*\//) block = 0; next }
            if (t ~ /^\/\*/) { if (t !~ /\*\//) block = 1; next }
            if (skip) {
                code = t
                gsub(/"([^"\\]|\\.)*"/, "", code)
                gsub(/'\''[{}]'\''/, "", code)
                sub(/\/\/.*/, "", code)
                opens = gsub(/\{/, "{", code)
                closes = gsub(/\}/, "}", code)
                if (opens > 0) started = 1
                depth += opens - closes
                if ((started && depth <= 0) || (!started && code ~ /;[ \t]*$/)) skip = 0
                next
            }
            if (t ~ /^#\[cfg\(test\)\]/) { skip = 1; depth = 0; started = 0; next }
            if (t == "" || t ~ /^\/\//) next
            n++
            code = t
            gsub(/"([^"\\]|\\.)*"/, "", code)
            sub(/\/\/.*/, "", code)
            u += gsub(/unsafe[ \t]*\{/, "", code)
        }
        END { print n + 0, u + 0 }
    ' $files
}

total=0
total_unsafe=0
printf '%-20s %6s %6s\n' package lines unsafe
report() {
    local name=$1 n u
    shift
    read -r n u < <(find "$@" -name '*.rs' -type f 2>/dev/null | sort | count)
    printf '%-20s %6d %6d\n' "$name" "$n" "$u"
    total=$((total + n))
    total_unsafe=$((total_unsafe + u))
}

for dir in crates/*/; do
    report "$(basename "$dir")" "$dir/src"
done
report root src examples
[[ -d e2ebench/src ]] && report e2ebench e2ebench/src
printf '%-20s %6d %6d\n' total "$total" "$total_unsafe"
