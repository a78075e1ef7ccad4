#!/usr/bin/env bash
# check_golden.sh — the paper-figure benches, the serving benches and the
# deterministic Nona examples still print their golden output.
#
# Runs every bench_fig* plus bench_table8_5_throughput at its default seed,
# bench_serve (default, --batch and --straggler), bench_checkpoint --serve,
# and the examples example_compile_loop and example_platform_sharing, and
# compares each one's stdout byte for byte with bench/golden/<name>.txt.
# An entry is a binary plus its flags; <name> is the binary followed by
# each flag without its leading dashes, joined by dots (bench_serve
# --batch -> bench_serve.batch). At a fixed seed the output is
# deterministic, so any difference is a change in simulated behaviour:
# regenerate a golden file only for a change that means to move the
# numbers, and say so in CHANGES.md.
#
# Not covered: bench_table8_6_nona (its dualpipe controller run does not
# terminate, see ROADMAP) and bench_overheads (it prints host wall-clock
# rows). Prints each entry's host wall-clock time.
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

ENTRIES="bench_fig2_4_motivation
bench_fig8_1_transcode
bench_fig8_2_swaptions
bench_fig8_3_compress
bench_fig8_4_oilify
bench_fig8_5_ferret
bench_fig8_6_tbf_timeline
bench_fig8_7_tpc_power
bench_fig8_8_controller
bench_fig8_9_platform
bench_table8_5_throughput
bench_serve
bench_serve --batch
bench_serve --straggler
bench_checkpoint --serve
example_compile_loop
example_platform_sharing"

while read -r B ARGS; do
  case $B in
  bench_*) DIR=$BENCHDIR ;;
  *) DIR=$EXAMPLEDIR ;;
  esac
  G=$B
  for A in $ARGS; do
    G=$G.${A#--}
  done
  need_file "$GOLDEN/$G.txt" "golden stdout of $B $ARGS"
  OUT="$WORKDIR/$PREFIX.$G.out"
  START=$(date +%s%N)
  # shellcheck disable=SC2086 # ARGS is a list of flags
  (cd "$WORKDIR" && "$DIR/$B" $ARGS >"$OUT" 2>"$WORKDIR/$PREFIX.$G.err") ||
    fail "$B $ARGS exited non-zero (see $WORKDIR/$PREFIX.$G.err)"
  END=$(date +%s%N)
  if ! cmp -s "$GOLDEN/$G.txt" "$OUT"; then
    diff "$GOLDEN/$G.txt" "$OUT" | head -20 >&2 || true
    fail "$B $ARGS stdout differs from bench/golden/$G.txt"
  fi
  MS=$(((END - START) / 1000000))
  printf '%-32s %d.%03d s\n' "$G" $((MS / 1000)) $((MS % 1000))
done <<<"$ENTRIES"
echo "check_golden.sh: OK (stdout of every bench and example matches bench/golden)"
