#!/usr/bin/env bash
# Non-test source lines per crate: the lines of crates/*/src/**/*.rs
# that are neither blank nor comments (`//`, `///`, `//!`), leaving out
# every `#[cfg(test)] mod … { … }` block. This is the "net non-test
# lines" figure a change reports: run it on both trees and subtract.
#
#   bash scripts/loc.sh        # one line per crate, then the total
#
# Braces are counted after string and char literals are blanked, which
# is exact for this code base (no block comments or multi-line raw
# strings inside a test module).
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
  crate=$(basename "$(dirname "$src")")
  n=$(find "$src" -name '*.rs' | LC_ALL=C sort | xargs awk '
    function braces(s, t) {
      gsub(/\\\\/, "", s)
      gsub(/"([^"\\]|\\.)*"/, "", s)
      gsub(/'\''([^'\''\\]|\\.)'\''/, "", s)
      t = s
      return gsub(/\{/, "", s) - gsub(/\}/, "", t)
    }
    FNR == 1 { depth = 0; held = 0 }
    {
      line = $0
      sub(/^[ \t]+/, "", line)
      if (depth > 0) { depth += braces(line); next }
      if (line == "" || line ~ /^\/\//) next
      if (line ~ /^#\[cfg\(test\)\]/) { held++; next }
      if (held && line ~ /^#\[/) { held++; next }
      if (held && line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) {
        depth = braces(line); held = 0; next
      }
      count += held + 1; held = 0
    }
    END { print count + 0 }')
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
