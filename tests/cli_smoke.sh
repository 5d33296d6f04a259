#!/bin/sh
# End-to-end smoke test of the vn2 CLI: simulate → train → inspect →
# diagnose → incidents → silent → stats, all against real files.
set -e
VN2="$1"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$VN2" simulate --scenario tiny --nodes 12 --days 0.05 --seed 9 \
    --out "$WORK/trace.csv" | grep -q "snapshots"
"$VN2" train --trace "$WORK/trace.csv" --rank 5 --out "$WORK/model.vn2" \
    | grep -q "model ->"
"$VN2" inspect --model "$WORK/model.vn2" | grep -q "psi\[ 0\]"
"$VN2" diagnose --model "$WORK/model.vn2" --trace "$WORK/trace.csv" --top 3 \
    | grep -q "exceptions"
"$VN2" incidents --model "$WORK/model.vn2" --trace "$WORK/trace.csv" \
    | grep -q "incidents from"
"$VN2" silent --trace "$WORK/trace.csv" | grep -q "look silent"
"$VN2" stats --trace "$WORK/trace.csv" | grep -q "nodes reporting"
# Telemetry: any subcommand can snapshot its counters/spans; the profile
# subcommand runs the whole pipeline and writes both formats. Counter
# names only appear when instrumentation is compiled in (VN2_TELEMETRY=ON,
# reported in the snapshot itself), so those checks are conditional.
"$VN2" stats --trace "$WORK/trace.csv" --telemetry "$WORK/telemetry.json" \
    > /dev/null
grep -q '"counters"' "$WORK/telemetry.json"
if grep -q '"telemetry_compiled": true' "$WORK/telemetry.json"; then
  grep -q '"trace.csv.rows"' "$WORK/telemetry.json"
fi
"$VN2" profile --scenario tiny --nodes 12 --days 0.05 --seed 9 --rank 5 \
    --out "$WORK/prof.json" --trace-out "$WORK/prof_trace.json" \
    | grep -q "pipeline:"
grep -q '"traceEvents"' "$WORK/prof_trace.json"
if grep -q '"telemetry_compiled": true' "$WORK/prof.json"; then
  grep -q '"nnls.solves"' "$WORK/prof.json"
fi
# --json swaps the human report for the machine-readable snapshot on
# stdout, including the process resource block.
"$VN2" profile --scenario tiny --nodes 12 --days 0.05 --seed 9 --rank 5 \
    --json > "$WORK/prof_stdout.json"
grep -q '"counters"' "$WORK/prof_stdout.json"
grep -q '"resource"' "$WORK/prof_stdout.json"
if grep -q "pipeline:" "$WORK/prof_stdout.json"; then
  echo "profile --json leaked human output onto stdout" >&2
  exit 1
fi
# The snapshot carries the call tree (always, even with telemetry off —
# the section is just empty then) and a non-negative dropped-span footer
# in the human report.
grep -q '"call_tree"' "$WORK/prof_stdout.json"
"$VN2" profile --scenario tiny --nodes 12 --days 0.05 --seed 9 --rank 5 \
    | grep -q "spans dropped:"
# Self-diff of a snapshot is always clean (exit 0).
"$VN2" profile --diff "$WORK/prof_stdout.json" "$WORK/prof_stdout.json" \
    | grep -q "verdict: ok"
# A snapshot cut short (its closing brace gone) is an input error: exit 2,
# naming the parse error.
sed '$d' "$WORK/prof_stdout.json" > "$WORK/prof_truncated.json"
STATUS=0
"$VN2" profile --diff "$WORK/prof_stdout.json" "$WORK/prof_truncated.json" \
    > /dev/null 2>"$WORK/diff_err.txt" || STATUS=$?
if [ "$STATUS" -ne 2 ]; then
  echo "expected exit 2 for a truncated snapshot, got $STATUS" >&2
  exit 1
fi
grep -q "parse error" "$WORK/diff_err.txt"
# Unknown scenarios name the valid ones in the error.
if "$VN2" profile --scenario bogus 2>"$WORK/scen_err.txt"; then
  echo "expected usage error for unknown scenario" >&2
  exit 1
fi
grep -q "tiny, testbed, or citysee" "$WORK/scen_err.txt"
# The kernel-backend selector is a global flag: forcing the scalar
# reference backend must work on any build, and an unknown backend name
# is a usage error.
"$VN2" stats --trace "$WORK/trace.csv" --linalg-backend reference \
    | grep -q "nodes reporting"
if "$VN2" stats --trace "$WORK/trace.csv" --linalg-backend turbo \
    2>/dev/null; then
  echo "expected usage error for unknown linalg backend" >&2
  exit 1
fi
# A retired backend name is unknown like any other: exit 2, with the valid
# names in the error.
STATUS=0
"$VN2" stats --trace "$WORK/trace.csv" --linalg-backend blocked \
    2>"$WORK/backend_err.txt" || STATUS=$?
if [ "$STATUS" -ne 2 ]; then
  echo "expected exit 2 for a retired linalg backend, got $STATUS" >&2
  exit 1
fi
grep -q "auto, reference, or simd" "$WORK/backend_err.txt"
# Forcing the simd backend on unsupported hardware is a clean usage error,
# not a crash. VN2_CPU_FEATURES=scalar masks cpuid, so this holds on any
# build and any host (including ones where simd would otherwise engage).
if VN2_CPU_FEATURES=scalar "$VN2" stats --trace "$WORK/trace.csv" \
    --linalg-backend simd 2>"$WORK/simd_err.txt"; then
  echo "expected usage error for forced simd on unsupported hardware" >&2
  exit 1
fi
grep -q "linalg-backend simd" "$WORK/simd_err.txt"
# --linalg-backend auto must always engage something runnable.
"$VN2" diagnose --model "$WORK/model.vn2" --trace "$WORK/trace.csv" --top 3 \
    --linalg-backend auto | grep -q "exceptions"
# The streaming diagnose path: bounded batches, same verdict counts as the
# one-shot path.
"$VN2" diagnose --model "$WORK/model.vn2" --trace "$WORK/trace.csv" --top 3 \
    > "$WORK/diag_batch.txt"
"$VN2" diagnose --model "$WORK/model.vn2" --trace "$WORK/trace.csv" --top 3 \
    --batch-size 16 > "$WORK/diag_stream.txt"
grep -q "batches of 16" "$WORK/diag_stream.txt"
BATCH_COUNT=$(sed -n 's/^\([0-9]*\) of .* states are exceptions.*/\1/p' \
    "$WORK/diag_batch.txt")
STREAM_COUNT=$(sed -n 's/^\([0-9]*\) of .* states are exceptions.*/\1/p' \
    "$WORK/diag_stream.txt")
if [ "$BATCH_COUNT" != "$STREAM_COUNT" ]; then
  echo "stream/batch diagnose disagree: $BATCH_COUNT vs $STREAM_COUNT" >&2
  exit 1
fi
# Error paths exit non-zero.
if "$VN2" train --trace /nonexistent.csv --out "$WORK/x" 2>/dev/null; then
  echo "expected failure on missing trace" >&2
  exit 1
fi
if "$VN2" bogus-command 2>/dev/null; then
  echo "expected usage error" >&2
  exit 1
fi
# A trace field must parse whole: `1.5abc` in the first row's fourth column
# is a runtime failure (exit 1) that names the line and column.
sed '2s/^\([^,]*,[^,]*,[^,]*\),[^,]*/\1,1.5abc/' "$WORK/trace.csv" \
    > "$WORK/garbage.csv"
STATUS=0
"$VN2" stats --trace "$WORK/garbage.csv" > /dev/null 2>"$WORK/garbage_err.txt" \
    || STATUS=$?
if [ "$STATUS" -ne 1 ]; then
  echo "expected exit 1 for a malformed trace field, got $STATUS" >&2
  exit 1
fi
grep -q "line 2, column 4: malformed field .1\.5abc." "$WORK/garbage_err.txt"
# A numeric option must parse whole, and a count cannot be negative: each
# bad value is a runtime failure (exit 1) naming the option and its text.
for BAD in "--days 0.05abc" "--nodes 12x" "--nodes -3"; do
  STATUS=0
  # Word splitting of $BAD into option and value is intended.
  # shellcheck disable=SC2086
  "$VN2" simulate --scenario tiny --seed 9 $BAD --out "$WORK/bad.csv" \
      > /dev/null 2>"$WORK/number_err.txt" || STATUS=$?
  if [ "$STATUS" -ne 1 ]; then
    echo "expected exit 1 for simulate $BAD, got $STATUS" >&2
    exit 1
  fi
  grep -q "^vn2 simulate: ${BAD% *}: '${BAD#* }'" "$WORK/number_err.txt"
done
# The thread budget is capped at 1024. inspect runs no parallel region, so
# a missing check could not start any threads here.
STATUS=0
"$VN2" inspect --model "$WORK/model.vn2" --threads 5000 > /dev/null \
    2>"$WORK/threads_err.txt" || STATUS=$?
if [ "$STATUS" -ne 1 ]; then
  echo "expected exit 1 for --threads 5000, got $STATUS" >&2
  exit 1
fi
grep -q "^vn2 inspect: --threads: '5000'" "$WORK/threads_err.txt"
echo "cli smoke OK"
