#!/usr/bin/env bash
# The line-budget measure simplicity PRs quote (ROADMAP needle 2): code
# lines — not blank, not a `//` comment — per crate over crates/*/src
# outside cfg(test), plus scripts/. An item under `#[cfg(test)]` is left
# out whole (by brace depth), and so is the file of a module declared
# under it. Run it on the parent checkout and on the change; only the
# difference means much.
#
#   scripts/loc.sh [REPO_ROOT]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Code lines of the .rs files under $1. Every file is read twice: once to
# learn which modules are declared under cfg(test), once to count.
count() {
    local files
    files=$(find "$1" -name '*.rs' | sort)
    # shellcheck disable=SC2086  # no path under crates/ holds a space
    awk '
        { line = $0; gsub(/^[ \t]+|[ \t]+$/, "", line) }
        !counting {
            if (under_test && line ~ /^(pub[^ ]* )?mod [a-z_0-9]+;/) {
                sub(/^.*mod /, "", line); sub(/;.*/, "", line); test_only[line] = 1
            }
            under_test = (line ~ /^#\[cfg\(test\)\]/)
            next
        }
        FNR == 1 { skipping = 0; stem = FILENAME; sub(/(\/mod)?\.rs$/, "", stem); sub(/.*\//, "", stem) }
        stem in test_only { next }
        line ~ /^#\[cfg\(test\)\]/ { skipping = 1; depth = 0; opened = 0; next }
        skipping {
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            if (line ~ /\{/) opened = 1
            if ((opened && depth <= 0) || (!opened && line ~ /;$/)) skipping = 0
            next
        }
        line != "" && line !~ /^\/\// { n++ }
        END { print n + 0 }
    ' $files counting=1 $files
}

{
    for src in crates/*/src; do
        echo "$(basename "${src%/src}") $(count "$src")"
    done
    echo "scripts/ $(cat scripts/* | grep -vc '^[[:space:]]*\(#\|$\)')"
} | awk '
    { printf "%-14s %6d\n", $1, $2; total += $2 }
    END { printf "%-14s %6d\n", "total", total }'
