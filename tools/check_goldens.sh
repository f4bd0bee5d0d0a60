#!/usr/bin/env bash
# Byte-for-byte check of the committed output goldens (tests/golden/ and
# the evald smoke golden) against a build tree.
#
#   tools/check_goldens.sh [--build DIR] [NAME...]
#
# NAME is one of table4 table5 table6 tournament cluster evald; the
# default is all of them. DIR defaults to ./build. Every bench runs at one
# worker; scheduling-dependent lines ("[batch] N runs on N workers" and the
# JSONL batch trailers) are dropped before the diff. Exit status 0 means
# every named output matched its golden.
#
# Run it before claiming that a change leaves the paper tables, the
# tournament league and the cluster tables unchanged. ctest runs each NAME
# as the test golden.NAME (label "golden").
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build"
if [[ "${1:-}" == "--build" ]]; then
  build="$(cd "$2" && pwd)"
  shift 2
fi
names=("$@")
if [[ ${#names[@]} -eq 0 ]]; then
  names=(table4 table5 table6 tournament cluster evald)
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

golden="$root/tests/golden"
failed=0

# compare LABEL ACTUAL EXPECTED: diff after dropping [batch] summary lines.
compare() {
  if grep -v '^\[batch\] ' "$2" | diff -u "$3" - > "$work/diff"; then
    echo "golden $1: ok"
  else
    echo "golden $1: DIFFERS from ${3#"$root"/}"
    head -n 40 "$work/diff"
    failed=1
  fi
}

for name in "${names[@]}"; do
  out="$work/$name.out"
  case "$name" in
    table4 | table5 | table6)
      case "$name" in
        table4) bench=bench_table4_metbench ;;
        table5) bench=bench_table5_btmz ;;
        table6) bench=bench_table6_siesta ;;
      esac
      "$build/bench/$bench" --jobs 1 > "$out" 2> /dev/null
      compare "$name" "$out" "$golden/$bench.txt"
      ;;
    tournament)
      "$build/tools/tournament" --smoke --jobs 1 --json "$work/records.jsonl" \
        > "$out" 2> /dev/null
      compare "$name (league)" "$out" "$golden/tournament_smoke.txt"
      grep -v '"schema":"smtbal.bench.batch/' "$work/records.jsonl" \
        > "$work/records.stripped"
      compare "$name (records)" "$work/records.stripped" \
        "$golden/tournament_smoke.jsonl"
      ;;
    cluster)
      "$build/bench/bench_cluster" --smoke --jobs 1 > "$out" 2> /dev/null
      compare "$name" "$out" "$golden/bench_cluster_smoke.txt"
      ;;
    evald)
      "$build/tools/evald" --requests "$root/tests/requests/smoke.evalreq.jsonl" \
        --workers 2 --responses "$work/responses.jsonl" 2> /dev/null
      grep -v '"schema":"smtbal.evalresp.batch/' "$work/responses.jsonl" > "$out"
      compare "$name" "$out" "$root/tests/requests/smoke.golden.jsonl"
      ;;
    *)
      echo "unknown golden '$name' (table4 table5 table6 tournament cluster evald)" >&2
      exit 2
      ;;
  esac
done
exit "$failed"
