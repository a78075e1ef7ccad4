#!/usr/bin/env bash
# check_golden.sh — the paper-figure benches and the deterministic Nona
# examples still print their golden output.
#
# Runs every bench_fig* plus bench_table8_5_throughput at its default seed,
# and the examples example_compile_loop and example_platform_sharing, and
# compares each one's stdout byte for byte with bench/golden/<binary>.txt.
# At a fixed seed the output is deterministic, so any difference is a
# change in simulated behaviour: regenerate a golden file only for a change
# that means to move the numbers, and say so in CHANGES.md.
#
# Not covered: bench_table8_6_nona (its dualpipe controller run does not
# terminate, see ROADMAP) and bench_overheads (it prints host wall-clock
# rows). Prints each bench's host wall-clock time.
#
# Usage: check_golden.sh <bench-binary-dir> <example-binary-dir> [workdir]

set -euo pipefail

USAGE="usage: check_golden.sh <bench-binary-dir> <example-binary-dir> [workdir]"
BENCHDIR=$(cd "${1:?$USAGE}" && pwd)
EXAMPLEDIR=$(cd "${2:?$USAGE}" && pwd)
WORKDIR=${3:-$(mktemp -d)}
NAME=check_golden.sh
PREFIX=golden
. "$(dirname "$0")/lib.sh"
GOLDEN="$(cd "$(dirname "$0")/../bench/golden" && pwd)"

BENCHES="bench_fig2_4_motivation bench_fig8_1_transcode bench_fig8_2_swaptions
  bench_fig8_3_compress bench_fig8_4_oilify bench_fig8_5_ferret
  bench_fig8_6_tbf_timeline bench_fig8_7_tpc_power bench_fig8_8_controller
  bench_fig8_9_platform bench_table8_5_throughput"
EXAMPLES="example_compile_loop example_platform_sharing"

for B in $BENCHES $EXAMPLES; do
  case $B in
  bench_*) DIR=$BENCHDIR ;;
  *) DIR=$EXAMPLEDIR ;;
  esac
  need_file "$GOLDEN/$B.txt" "golden stdout of $B"
  OUT="$WORKDIR/$PREFIX.$B.out"
  START=$(date +%s%N)
  (cd "$WORKDIR" && "$DIR/$B" >"$OUT" 2>"$WORKDIR/$PREFIX.$B.err") ||
    fail "$B exited non-zero (see $WORKDIR/$PREFIX.$B.err)"
  END=$(date +%s%N)
  if ! cmp -s "$GOLDEN/$B.txt" "$OUT"; then
    diff "$GOLDEN/$B.txt" "$OUT" | head -20 >&2 || true
    fail "$B stdout differs from bench/golden/$B.txt"
  fi
  MS=$(((END - START) / 1000000))
  printf '%-28s %d.%03d s\n' "$B" $((MS / 1000)) $((MS % 1000))
done
echo "check_golden.sh: OK (stdout of every bench and example matches bench/golden)"
