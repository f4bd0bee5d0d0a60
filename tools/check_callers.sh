#!/usr/bin/env bash
# Fails when a function defined in src/ has no caller in any program.
#
# A program is any binary built from tools/, bench/ or examples/, plus the two
# perfbench binaries (perfbench, perfbench_selftest). Tests do not count: a
# function only tests call is dead weight unless it is a test seam listed in
# tools/check_callers.seams with a one-line reason.
#
# How: every program is built at -O0 with -ffunction-sections and linked with
# --gc-sections, so a binary keeps exactly the library functions it can reach
# (virtual functions stay whenever their vtable does). A smtbal:: function that
# a libsmtbal_*.a archive defines (nm type T) and no program binary retains is
# reported. Header-inline functions and templates are emitted as weak symbols
# in every user's object, so this scan cannot see them; review those by hand.
#
# Usage: tools/check_callers.sh [SOURCE_ROOT] [BUILD_DIR]
#   SOURCE_ROOT  tree to scan (default: this script's repository)
#   BUILD_DIR    scratch build tree (default: SOURCE_ROOT/build-callers)
# The seam list is always the one next to this script, so pointing it at an
# older checkout lists what that checkout carries beyond today's seams.
# Takes a few minutes on four cores: two -O0 builds of src/ (the main tree and
# perfbench's standalone one).
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${1:-$here/..}" && pwd)"
out="${2:-$root/build-callers}"
seams="$here/check_callers.seams"
jobs="$(nproc 2>/dev/null || echo 2)"

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Every tools/, bench/ and examples/ source is one program of the same name.
programs=()
binaries=()
for dir in tools bench examples; do
  for f in "$root/$dir"/*.cpp; do
    programs+=("$(basename "$f" .cpp)")
    binaries+=("$out/main/$dir/$(basename "$f" .cpp)")
  done
done
binaries+=("$out/perfbench/perfbench" "$out/perfbench/perfbench_selftest")

mkdir -p "$out"
log="$out/configure.log"
cmake -S "$root" -B "$out/main" "${flags[@]}" > "$log" 2>&1 ||
  { cat "$log"; exit 1; }
cmake --build "$out/main" -j "$jobs" --target "${programs[@]}" > /dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" > "$log" 2>&1 ||
  { cat "$log"; exit 1; }
cmake --build "$out/perfbench" -j "$jobs" --target perfbench perfbench_selftest \
  > /dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Strong smtbal:: functions the libraries define.
find "$out/main/src" -name 'libsmtbal_*.a' -print0 |
  xargs -0 nm --defined-only 2> /dev/null |
  awk '$2 == "T" { print $3 }' | c++filt | grep '^smtbal::' |
  sort -u > "$tmp/defined"

# Everything any program binary retained after --gc-sections.
for b in "${binaries[@]}"; do
  [ -x "$b" ] || { echo "check_callers: missing binary $b" >&2; exit 1; }
  nm --defined-only "$b" | awk '{ print $3 }'
done | c++filt | sort -u > "$tmp/used"

# Seam list: "<demangled signature> # <reason>", one per line.
status=0
: > "$tmp/seams"
while IFS= read -r line; do
  case "$line" in ''|'#'*) continue ;; esac
  sig="${line%% # *}"
  reason="${line#* # }"
  if [ "$sig" = "$line" ] || [ -z "${reason// /}" ]; then
    echo "check_callers: seam entry without a reason: $line" >&2
    status=1
  fi
  printf '%s\n' "$sig" >> "$tmp/seams"
done < "$seams"
sort -u -o "$tmp/seams" "$tmp/seams"

comm -23 "$tmp/defined" "$tmp/used" > "$tmp/callerless"
comm -23 "$tmp/callerless" "$tmp/seams" > "$tmp/unlisted"
comm -13 "$tmp/callerless" "$tmp/seams" > "$tmp/stale"

if [ -s "$tmp/unlisted" ]; then
  echo "check_callers: functions no program calls (delete them, or list a" \
       "test seam in tools/check_callers.seams):"
  sed 's/^/  /' "$tmp/unlisted"
  status=1
fi
if [ -s "$tmp/stale" ]; then
  echo "check_callers: seam entries that are gone or now have a program caller" \
       "(drop them from tools/check_callers.seams):"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "check_callers: $(wc -l < "$tmp/defined") library functions," \
       "$(wc -l < "$tmp/seams") listed seams, none callerless"
fi
exit "$status"
