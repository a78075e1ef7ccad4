#!/usr/bin/env bash
# check_resilience.sh — end-to-end validation of the fault model and
# Morta's failure recovery.
#
# legacy mode: runs bench_resilience twice with a fixed seed and asserts:
#   * the run recovers (RESILIENCE: OK — complete, ordered output after
#     two core failures, a straggler window, and transient task faults);
#   * determinism — the two runs' stdout and Chrome traces are
#     byte-identical (same seed => same event sequence);
#   * the trace shows the recovery story: fault injection, watchdog
#     detection, and the pause/reconfigure/resume of the degraded run.
#
# burst mode: sweeps the correlated-domain + repair scenario (--burst)
# over three seeds, running each seed twice, and asserts:
#   * recovery plus byte-identical reruns per seed;
#   * the thread budget both shrank (on the domain event) and grew back
#     (after repair) — non-zero transitions in both directions;
#   * the trace shows the burst/repair story: the domain fault, the
#     repair, and the watchdog's growth detection + budget grow-back.
#
# wedge mode: runs the wedged-head scenario (--wedge) twice and asserts:
#   * the wedge is repaired surgically (RESILIENCE: OK includes "healthy
#     tasks kept retiring" and zero abortive recoveries);
#   * byte-identical reruns — the blame scan and single-task restart are
#     as deterministic as every other recovery path;
#   * the trace shows the surgical story: the wedge fires, the watchdog
#     convicts the task, and only that task restarts.
#
# straggler mode: sweeps the slow-core A/B scenario (--straggler) over
# three seeds, running each seed twice, and asserts:
#   * the 1.15x makespan-improvement gate holds (RESILIENCE: OK) with the
#     exactly-once tail intact on both sides of the A/B;
#   * byte-identical reruns per seed — slow-core-aware placement and
#     speculative re-issue are deterministic in virtual time;
#   * the trace shows the avoidance story: the straggler windows open,
#     cores get penalized, and the watchdog re-issues stalled chunks.
#
# Usage: check_resilience.sh <path-to-bench_resilience> [workdir] [mode]
#   mode: legacy | burst | wedge | straggler | all (default all)

set -euo pipefail

BENCH=${1:?usage: check_resilience.sh <bench_resilience> [workdir] [mode]}
WORKDIR=${2:-$(mktemp -d)}
MODE=${3:-all}
NAME=check_resilience.sh
PREFIX=resil
. "$(dirname "$0")/lib.sh"
SEED=42

if [ "$MODE" = legacy ] || [ "$MODE" = all ]; then
  run 1 $SEED
  run 2 $SEED

  need "$WORKDIR/resil.1.out" '^RESILIENCE: OK$' \
    "run did not recover (no RESILIENCE: OK)"
  assert_identical 1 2

  TRACE="$WORKDIR/resil.1.trace.json"
  need_file "$TRACE" "trace file"

  # The recovery story, in trace landmarks: a core fails, the watchdog
  # notices and shrinks capacity, and execution resumes reconfigured.
  need "$TRACE" '"fault_offline"' "no core-offline instant in trace"
  need "$TRACE" '"watchdog_detect"' "no watchdog detection in trace"
  need "$TRACE" '"capacity_drop"' "no capacity-drop instant in trace"
  need "$TRACE" '"transition"|"recover"' \
    "no pause/reconfigure/resume span in trace"
  need "$TRACE" '"task_fault"' "no transient task fault in trace"

  # Fault metrics (retries, detections, MTTR) land in the metrics dump.
  METRICS="$TRACE.metrics.txt"
  need_file "$METRICS" "metrics dump"
  need "$METRICS" 'watchdog\.detections' "no detection counter"
  need "$METRICS" 'watchdog\.mttr_us' "no MTTR histogram"
  need "$METRICS" '\.faults' "no fault counter"
fi

# Non-zero budget transitions in both directions (shrink then grow).
burst_seed() {
  need "$2" '^   budget: .* \([1-9][0-9]* shrink\(s\), [1-9][0-9]* grow\(s\)\)$' \
    "burst seed $1: budget did not both shrink and grow back"
}

if [ "$MODE" = burst ] || [ "$MODE" = all ]; then
  # Seed sweep over the correlated burst + repair scenario: each seed must
  # recover, rerun byte-identically, and show the budget shrinking on the
  # domain event and growing back after the repair.
  sweep burst 'RESILIENCE: OK' burst_seed --burst

  BTRACE="$WORKDIR/resil.burst.42.1.trace.json"
  need_file "$BTRACE" "burst trace file"
  # The burst/repair story, in trace landmarks: the domain takes its
  # cores, the watchdog detects the drop, repair returns them, and the
  # watchdog grows the budget back.
  need "$BTRACE" '"fault_domain"' "no domain-burst instant in trace"
  need "$BTRACE" '"fault_offline"' "no core-offline instant in trace"
  need "$BTRACE" '"repair_online"' "no repair instant in trace"
  need "$BTRACE" '"watchdog_grow"' "no watchdog growth detection"
  need "$BTRACE" '"capacity_grow"' "no capacity-grow instant in trace"
  BMETRICS="$BTRACE.metrics.txt"
  need_file "$BMETRICS" "burst metrics dump"
  need "$BMETRICS" 'machine\.repairs' "no repair counter"
  need "$BMETRICS" 'watchdog\.growths' "no growth counter"
fi

if [ "$MODE" = wedge ] || [ "$MODE" = all ]; then
  run wedge.1 $SEED --wedge
  run wedge.2 $SEED --wedge

  WOUT="$WORKDIR/resil.wedge.1.out"
  need "$WOUT" '^RESILIENCE: OK$' "wedge run did not recover (no RESILIENCE: OK)"
  assert_identical wedge.1 wedge.2

  # The surgical verdict in the stdout summary: at least one surgical
  # restart, zero whole-region aborts, and the rest of the region retired
  # work between the wedge and the repair.
  need "$WOUT" '^   surgical: [1-9][0-9]* blame\(s\), [1-9][0-9]* restart\(s\), 0 fallback abort\(s\)' \
    "wedge run shows no surgical blame/restart (or a fallback abort)"
  need "$WOUT" '^   runner: .* 0 abortive recovery\(s\)$' \
    "wedge run took a whole-region abortive recovery"
  need "$WOUT" 'healthy tasks kept retiring' \
    "wedge run did not report progress during the repair"

  WTRACE="$WORKDIR/resil.wedge.1.trace.json"
  need_file "$WTRACE" "wedge trace file"
  # The surgical story, in trace landmarks: the wedge fires, the blame
  # scan convicts the task, and only that task is restarted.
  need "$WTRACE" '"fault_wedge"' "no wedge instant in trace"
  need "$WTRACE" '"watchdog_blame"' "no blame verdict in trace"
  need "$WTRACE" '"surgical_restart"' "no surgical-restart instant in trace"
  need "$WTRACE" '"task_restart"' "no task-restart instant in trace"
  WMETRICS="$WTRACE.metrics.txt"
  need_file "$WMETRICS" "wedge metrics dump"
  need "$WMETRICS" 'machine\.faults\.wedges' "no wedge counter"
  need "$WMETRICS" 'watchdog\.blames' "no blame counter"
  need "$WMETRICS" 'watchdog\.surgical_restarts' "no surgical-restart counter"
  need "$WMETRICS" 'watchdog\.surgical_mttr_us' "no surgical MTTR histogram"
fi

# The A/B verdict itself: a real (>= 1.15x, gated by the bench) makespan
# improvement from avoidance + speculation.
straggler_seed() {
  need "$2" '^   improvement: [0-9]+\.[0-9]+x makespan' \
    "straggler seed $1: no makespan improvement line"
}

if [ "$MODE" = straggler ] || [ "$MODE" = all ]; then
  # Seed sweep over the slow-core A/B: each seed must clear the makespan
  # gate with the ordered tail intact and rerun byte-identically.
  sweep strag 'RESILIENCE: OK' straggler_seed --straggler

  STRACE="$WORKDIR/resil.strag.42.1.trace.json"
  need_file "$STRACE" "straggler trace file"
  # The avoidance story, in trace landmarks: dilation windows open, the
  # rate sensor penalizes the slow cores, and the watchdog clones chunks
  # that stall the commit frontier.
  need "$STRACE" '"fault_straggler"' "no straggler-window instant in trace"
  need "$STRACE" '"core_penalized"' "no core-penalized instant in trace"
  need "$STRACE" '"watchdog_speculate"' \
    "no speculative re-issue instant in trace"
  SMETRICS="$STRACE.metrics.txt"
  need_file "$SMETRICS" "straggler metrics dump"
  need "$SMETRICS" 'machine\.cores_penalized' "no penalized-core counter"
  need "$SMETRICS" 'watchdog\.speculations' "no speculation counter"
fi

echo "check_resilience.sh: OK ($MODE, $WORKDIR)"
