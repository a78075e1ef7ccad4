#!/usr/bin/env bash
# check_checkpoint.sh — end-to-end validation of region checkpoint,
# hot restart, and live migration.
#
# migrate mode: sweeps the cross-machine hot restart (default bench mode)
# over three seeds, running each seed twice, and asserts:
#   * CHECKPOINT: OK — the snapshot round-trips byte-identically, machine
#     B restores without re-measurement (MONITOR only), and the combined
#     A+B retired output matches an uninterrupted reference run element
#     for element;
#   * determinism — the two runs' stdout and Chrome traces are
#     byte-identical (same seed => same event sequence);
#   * the trace shows the migration story: the checkpoint quiesce, the
#     checkpoint instant, and the restore on machine B;
#   * restore-latency metrics (quiesce + restore histograms) land in the
#     metrics dump.
#
# drain mode: runs the warned-domain scenario (--drain) twice and
# asserts:
#   * the drain is proactive: zero abortive recoveries, zero rescued
#     threads, zero capacity-drop detections — the region migrates off
#     the doomed cores before they die, and the budget shrinks then
#     grows back after repair;
#   * byte-identical reruns;
#   * the trace shows the warning story: the domain warning, the
#     watchdog drain, and the resume.
#
# serve mode: runs the live-migration scenario (--serve) twice and
# asserts:
#   * in-flight request regions migrate and traffic keeps flowing
#     (completions both before the warning and after the migration);
#   * per-class goodput and admitted/shed counters are byte-identical
#     across the two same-seed runs (the stdout table is compared);
#   * the trace shows the serve drain and per-request migrate instants.
#
# flags mode: asserts the shared flag parser rejects a typo'd flag
# (--sed=42 must exit non-zero with a usage message, not silently run
# unseeded).
#
# Usage: check_checkpoint.sh <path-to-bench_checkpoint> [workdir] [mode]
#   mode: migrate | drain | serve | flags | all (default all)

set -euo pipefail

BENCH=${1:?usage: check_checkpoint.sh <bench_checkpoint> [workdir] [mode]}
WORKDIR=${2:-$(mktemp -d)}
MODE=${3:-all}
NAME=check_checkpoint.sh
PREFIX=ckpt
. "$(dirname "$0")/lib.sh"
SEED=42

# The bench compares the restored output element-wise against the
# reference and round-trips the snapshot; both must be reported.
migrate_seed() {
  need "$2" 'identical to the uninterrupted reference' \
    "migrate seed $1: output not compared against the reference"
  need "$2" 'round trip byte-identical' \
    "migrate seed $1: snapshot round trip not verified"
}

if [ "$MODE" = migrate ] || [ "$MODE" = all ]; then
  # Seed sweep: checkpoint on machine A, restore on machine B, and the
  # retired output must match the uninterrupted reference byte for byte
  # (the bench itself compares element-wise and prints CHECKPOINT: OK).
  sweep mig 'CHECKPOINT: OK' migrate_seed

  MTRACE="$WORKDIR/ckpt.mig.42.1.trace.json"
  need_file "$MTRACE" "migrate trace file"
  # The migration story, in trace landmarks: the quiesce drains, the
  # checkpoint captures, and machine B restores.
  need "$MTRACE" '"checkpoint_drain"' "no checkpoint quiesce span in trace"
  need "$MTRACE" '"checkpoint"' "no checkpoint instant in trace"
  need "$MTRACE" '"restore"' "no restore instant in trace"

  MMETRICS="$MTRACE.metrics.txt"
  need_file "$MMETRICS" "migrate metrics dump"
  need "$MMETRICS" 'checkpoint\.quiesce_latency_us' \
    "no quiesce-latency histogram"
fi

if [ "$MODE" = drain ] || [ "$MODE" = all ]; then
  run drain.1 $SEED --drain
  run drain.2 $SEED --drain

  DOUT="$WORKDIR/ckpt.drain.1.out"
  need "$DOUT" '^CHECKPOINT: OK$' "drain run failed (no CHECKPOINT: OK)"
  assert_identical drain.1 drain.2

  # The proactive verdict in the stdout summary: nothing aborted, nothing
  # stranded, nothing detected reactively — and the budget round-trips.
  need "$DOUT" '^   aborts avoided: 0 abortive recovery\(s\), 0 thread\(s\) rescued, 0 capacity-drop detection\(s\)$' \
    "drain run aborted, stranded, or reactively detected something"
  need "$DOUT" '\([1-9][0-9]* shrink\(s\), [1-9][0-9]* grow\(s\)\)' \
    "drain run: budget did not both shrink and grow back"

  DTRACE="$WORKDIR/ckpt.drain.1.trace.json"
  need_file "$DTRACE" "drain trace file"
  # The warning story, in trace landmarks: the machine announces the
  # domain, the watchdog drains, the region migrates and resumes.
  need "$DTRACE" '"fault_domain_warning"' "no domain-warning instant in trace"
  need "$DTRACE" '"watchdog_drain"' "no watchdog drain in trace"
  need "$DTRACE" '"watchdog_drain_done"' \
    "no watchdog drain completion in trace"
  need "$DTRACE" '"checkpoint"' "no checkpoint instant in trace"
  need "$DTRACE" '"restore"' "no restore instant in trace"

  DMETRICS="$DTRACE.metrics.txt"
  need_file "$DMETRICS" "drain metrics dump"
  need "$DMETRICS" 'machine\.faults\.domain_warnings' \
    "no domain-warning counter"
  need "$DMETRICS" 'watchdog\.drain_latency_us' "no drain-latency histogram"
  # The in-place resume after the drain records its restore latency
  # (the cross-machine restore in migrate mode starts a fresh simulator,
  # where a quiesce-to-restore delta has no meaning).
  need "$DMETRICS" 'checkpoint\.restore_latency_us' \
    "no restore-latency histogram"
  need "$DMETRICS" 'chunk\.reseed' "no chunk-reseed counter"
fi

if [ "$MODE" = serve ] || [ "$MODE" = all ]; then
  run serve.1 $SEED --serve
  run serve.2 $SEED --serve

  SOUT="$WORKDIR/ckpt.serve.1.out"
  need "$SOUT" '^CHECKPOINT: OK$' "serve run failed (no CHECKPOINT: OK)"
  # Per-class goodput and admitted/shed counters byte-identical across
  # the two same-seed runs: assert_identical compares the whole stdout,
  # including the per-class table.
  assert_identical serve.1 serve.2

  need "$SOUT" 'migration: [1-9][0-9]* request region\(s\) migrated' \
    "serve run migrated no in-flight request"
  need "$SOUT" 'traffic: [1-9][0-9]* completion\(s\) before the warning, [1-9][0-9]* after' \
    "serve traffic did not keep flowing across the drain"

  STRACE="$WORKDIR/ckpt.serve.1.trace.json"
  need_file "$STRACE" "serve trace file"
  need "$STRACE" '"serve_drain"' "no serve drain in trace"
  need "$STRACE" '"migrate"' "no migrate instant in trace"
  need "$STRACE" '"serve_drain_done"' "no serve drain completion in trace"

  SMETRICS="$STRACE.metrics.txt"
  need_file "$SMETRICS" "serve metrics dump"
  need "$SMETRICS" 'serve\.migrated_batches' "no migration counter"
  need "$SMETRICS" 'serve\.drain_latency_us' \
    "no serve drain-latency histogram"
fi

if [ "$MODE" = flags ] || [ "$MODE" = all ]; then
  # A typo'd flag must abort with a usage message, not run unseeded.
  if "$BENCH" --sed=42 >"$WORKDIR/ckpt.flags.out" 2>&1; then
    fail "--sed=42 (typo) was silently accepted"
  fi
  need "$WORKDIR/ckpt.flags.out" "unknown flag '--sed=42'" \
    "typo'd flag did not name itself in the error"
  need "$WORKDIR/ckpt.flags.out" '^usage:' "typo'd flag printed no usage line"
fi

echo "check_checkpoint.sh: OK ($MODE, $WORKDIR)"
