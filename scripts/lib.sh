# lib.sh — scaffolding shared by the check_*.sh bench harnesses.
#
# Source it after setting:
#   NAME     the harness name, prefixed to every failure message;
#   BENCH    the bench binary under test;
#   WORKDIR  where runs leave their stdout, traces and metrics dumps;
#   PREFIX   file-name prefix of every run ("resil", "serve", "ckpt").
#
# Every run is traced: run <tag> leaves $WORKDIR/$PREFIX.<tag>.out, the
# Chrome trace $WORKDIR/$PREFIX.<tag>.trace.json and its .metrics.txt.

mkdir -p "$WORKDIR"

fail() {
  echo "$NAME: FAIL: $1" >&2
  exit 1
}

# run <tag> <seed> [extra flags...]
run() {
  local TAG=$1 RUNSEED=$2
  shift 2
  "$BENCH" --seed "$RUNSEED" "$@" \
    --trace "$WORKDIR/$PREFIX.$TAG.trace.json" \
    >"$WORKDIR/$PREFIX.$TAG.out" 2>&1 ||
    fail "run $TAG exited non-zero (see $WORKDIR/$PREFIX.$TAG.out)"
}

# Same seed, same virtual-time world: everything must be byte-identical.
# (The [telemetry] banner embeds the per-run trace path, so drop it.)
assert_identical() {
  local A="$WORKDIR/$PREFIX.$1" B="$WORKDIR/$PREFIX.$2"
  grep -v '^\[telemetry\]' "$A.out" >"$A.flt"
  grep -v '^\[telemetry\]' "$B.out" >"$B.flt"
  cmp -s "$A.flt" "$B.flt" ||
    fail "stdout differs between identically seeded runs ($1 vs $2)"
  cmp -s "$A.trace.json" "$B.trace.json" ||
    fail "trace differs between identically seeded runs ($1 vs $2)"
}

# sweep <tag> <verdict> <per-seed check> [extra flags...]
# The seed sweep: seeds 7, 21 and 42 each run twice (tags <tag>.<seed>.1
# and .2; an empty tag gives <seed>.1), the first run must print the
# verdict line, and the two runs must be byte-identical. Then the check
# (a function, or :) runs as <check> <seed> <first run's stdout>.
sweep() {
  local TAG=$1 VERDICT=$2 CHECK=$3 S T
  shift 3
  for S in 7 21 42; do
    T=${TAG:+$TAG.}$S
    run "$T.1" "$S" "$@"
    run "$T.2" "$S" "$@"
    need "$WORKDIR/$PREFIX.$T.1.out" "^$VERDICT\$" \
      "${TAG:-run} seed $S failed (no $VERDICT)"
    assert_identical "$T.1" "$T.2"
    "$CHECK" "$S" "$WORKDIR/$PREFIX.$T.1.out"
  done
}

# need <file> <extended regex> <message>: fails unless a line matches.
need() {
  grep -Eq -- "$2" "$1" || fail "$3"
}

# need_file <file> <what>: fails unless the file exists and is non-empty.
need_file() {
  [ -s "$1" ] || fail "$2 missing or empty: $1"
}

# field <file> <extended regex> <n>: prints the n-th whitespace-separated
# field of the first line matching the regex (nothing when none does).
field() {
  awk -v re="$2" -v n="$3" '$0 ~ re { print $n; exit }' "$1"
}
