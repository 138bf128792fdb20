#!/usr/bin/env bash
# Code lines of the workspace's Rust sources: every line of a `*.rs` file
# that is neither blank nor a `//` comment (`grep -hvE '^\s*(//|$)'`, in-file
# tests included). Prints one row per crate's `src/`, then the workspace
# total over `crates/`, `tests/`, `src/` and `examples/`.
#
#   scripts/code-lines.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() {
    find "$@" -name '*.rs' -print0 | xargs -0 cat | grep -hvcE '^\s*(//|$)'
}

printf '| tree | code lines |\n|---|---|\n'
for src in crates/*/src; do
    printf '| `%s` | %s |\n' "$src" "$(count "$src")"
done
printf '| workspace (`crates/`, `tests/`, `src/`, `examples/`) | %s |\n' \
    "$(count crates tests src examples)"
