#!/usr/bin/env bash
# Prints the non-test Rust line count that ROADMAP item 12 tracks.
#
# The count is every line (blank and comment lines included) of every
# `.rs` file outside directories named `target`, `benchmark`, `tests`,
# `benches` and `examples`, at any depth. Each file is cut at its first
# top-level `#[cfg(test)]` line whose next line opens an inline module
# (`mod … {`, with or without a `pub`/`pub(crate)` visibility): that line
# and everything after it are left out.
#
# Usage: scripts/loc.sh [DIR]   (DIR defaults to the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

mapfile -d '' files < <(
  find . -type d \( -name target -o -name benchmark -o -name tests \
    -o -name benches -o -name examples -o -name .git \) -prune \
    -o -type f -name '*.rs' -print0 | sort -z
)

awk '
  FNR == 1 { cut = 0; cfg = 0 }
  cut { next }
  cfg && /^(pub(\([a-z]+\))? )?mod .*\{/ { lines--; cut = 1; next }
  { lines++; cfg = /^#\[cfg\(test\)\][ \t]*$/ }
  END { print lines + 0 }
' "${files[@]}"
