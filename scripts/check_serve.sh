#!/usr/bin/env bash
# check_serve.sh — end-to-end validation of the open-loop serving layer
# (arrival generation, admission control, and SLO-driven budget
# arbitration) on bench_serve's three-phase scenario.
#
# Sweeps three seeds, running each seed twice, and asserts:
#   * the bench's own verdict passes (SERVE: OK — zero SLO violations in
#     the under-load phase, the overload phase sheds load while goodput
#     stays >= 80% of under-load instead of collapsing, budget flowed
#     toward the violating class, and the run drains);
#   * determinism — the two runs' stdout and Chrome traces are
#     byte-identical (seeded arrivals on virtual time => same world);
#   * the table shows the load story directly: no under-load violations
#     for either class, and non-zero shedding in the api overload row;
#   * the trace shows the arbitration story: repartition instants and
#     slo_transfer instants, with admission + transfer counters in the
#     metrics dump.
#
# In batch mode the same sweep runs `bench_serve --batch` (the A/B:
# unbatched baseline then batched dispatch at the same seed) and
# additionally asserts:
#   * the bench's batch verdict passes (BATCH: OK — per-request latency
#     attributed from inside batches, spin-up amortized, drained);
#   * determinism of the full A/B output (both runs byte-identical);
#   * the goodput landmark: batched overload goodput >= 1.3x the
#     unbatched baseline at the same seed;
#   * the trace carries batch_close instants (the coalescing story).
#
# Usage: check_serve.sh <path-to-bench_serve> [workdir] [legacy|batch]

set -euo pipefail

BENCH=${1:?usage: check_serve.sh <bench_serve> [workdir] [legacy|batch]}
WORKDIR=${2:-$(mktemp -d)}
MODE=${3:-legacy}
NAME=check_serve.sh
PREFIX=serve
. "$(dirname "$0")/lib.sh"

serve_seed() {
  local S=$1 OUT=$2
  if [ "$MODE" = batch ]; then
    need "$OUT" '^BATCH: OK$' "seed $S: batch verdict failed (no BATCH: OK)"
    # The goodput landmark: the bench prints the A/B speedup and its own
    # verdict gates it at 1.3x; assert the landmark line is present (and
    # not 0.xx) so a silent report regression cannot pass.
    need "$OUT" 'batch goodput speedup: [1-9][0-9]*\.[0-9]+x' \
      "seed $S: no batch goodput speedup landmark"
    # Spin-up amortization: more than one request per region on average.
    need "$OUT" 'api   regions: [0-9]+ -> [0-9]+ \([2-9]' \
      "seed $S: api batches did not amortize regions"
  fi

  # Zero SLO violations in the under-load phase, for both classes (the
  # viol column is the last field of each table row).
  for CLS in api batch; do
    need "$OUT" "^ ${CLS}[[:space:]]+\| under[[:space:]]+\|.*\|[[:space:]]+0\$" \
      "seed $S: $CLS under-load row shows SLO violations"
  done
  # The overload phase sheds rather than queueing without bound: a
  # non-zero shed count in the api overload row (field 8: class, |,
  # phase, |, arrived, admit, rej, shed).
  local SHED
  SHED=$(field "$OUT" '^ api[[:space:]]+[|] overload' 8)
  [ "${SHED:-0}" -gt 0 ] || fail "seed $S: api overload row shed nothing"
  # Budget moved toward the violating class under overload.
  need "$OUT" 'slo timeline: [1-9][0-9]* transfer\(s\), [1-9][0-9]* toward api' \
    "seed $S: no SLO transfer toward the api class"
}

EXTRA=()
[ "$MODE" = batch ] && EXTRA=(--batch)
sweep "" 'SERVE: OK' serve_seed "${EXTRA[@]}"

TRACE="$WORKDIR/serve.42.1.trace.json"
need_file "$TRACE" "trace file"

# The arbitration story, in trace landmarks: the daemon repartitions as
# tenants register and rebalance, and the SLO pass records its moves.
need "$TRACE" '"repartition"' "no repartition instant in trace"
need "$TRACE" '"slo_transfer"' "no slo_transfer instant in trace"

# Batch mode: coalescing leaves batch_close instants in the trace.
if [ "$MODE" = batch ]; then
  need "$TRACE" '"batch_close"' "no batch_close instant in trace"
fi

# Admission + arbitration metrics land in the metrics dump.
METRICS="$TRACE.metrics.txt"
need_file "$METRICS" "metrics dump"
need "$METRICS" 'serve\.admitted' "no admitted counter"
need "$METRICS" 'serve\.rejected' "no rejected counter"
need "$METRICS" 'serve\.shed' "no shed counter"
need "$METRICS" 'platform\.slo_transfers' "no transfer counter"

echo "check_serve.sh: OK ($WORKDIR)"
