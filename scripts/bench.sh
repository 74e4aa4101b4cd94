#!/usr/bin/env bash
# bench.sh — run the verifier benchmarks and emit BENCH_verify.json with
# four sections:
#
#   configs        states/s for every BenchmarkVerifyStatesGraph
#                  configuration (clique worker counts, ring store ×
#                  symmetry matrix) — unique-states-interned throughput;
#   ms_per_verdict wall milliseconds per full verdict for the same
#                  configurations (ns/op of one LabelRStabilizing call) —
#                  the end-to-end latency the states/s rate alone hides
#                  (under symmetry quotienting states/s divides by fewer,
#                  canonical, states, so the two metrics move differently);
#   structure      machine-independent exploration-shape metrics per
#                  configuration: mean successor-batch fill and store
#                  occupancy (ppm) at the verdict, from an instrumented
#                  pre-run (internal/obs). Guarded in BOTH directions —
#                  drift means the exploration changed, not the machine;
#   micro          succ/s for the per-stage hot-path micro-benchmarks
#                  (BenchmarkStep/Pack: the per-successor reference
#                  calls; BenchmarkCanonicalize/Intern: single vs batched
#                  variants, plus one Canonicalize row per minimizer ×
#                  width and an Intern/hash/parallel row that guards the
#                  hash store's lock-free hit path; BenchmarkDES: DES
#                  activations/s, which guards the timing-wheel event
#                  queue — see microbench_test.go). Each row is sized by
#                  time, not iterations (MICROBENCHTIME per run), run
#                  three times, and the median run is recorded.
#
# Alongside the JSON it writes ${OUT%.json}.report.jsonl: one obs.Report
# line from a small instrumented cmd/verify run, so the full stage-timer /
# depth-profile telemetry of the benchmark machine rides with the baseline.
#
# The checked-in BENCH_verify.json is the perf-trajectory baseline; CI's
# bench-sanity job re-measures and fails on a large regression in any
# section (scripts/benchguard).
#
# Usage:
#   scripts/bench.sh [output.json]       # default output: BENCH_verify.json
#   BENCHTIME=10x scripts/bench.sh       # more iterations for a stable baseline
#   MICROBENCHTIME=1s scripts/bench.sh   # longer micro runs
#   CPUPROFILE=/tmp/cpu.prof scripts/bench.sh   # also write a CPU profile
#                                               # of the states-graph bench
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
MICROBENCHTIME="${MICROBENCHTIME:-200ms}"
OUT="${1:-BENCH_verify.json}"
REPORT="${OUT%.json}.report.jsonl"

PROFILE_ARGS=()
if [ -n "${CPUPROFILE:-}" ]; then
  PROFILE_ARGS=(-cpuprofile "$CPUPROFILE")
fi

# name <TAB> states/s <TAB> ms/verdict <TAB> fill <TAB> occ_ppm per
# states-graph configuration ("-" when a structural metric is absent).
MACRO=$(go test -run '^$' -bench BenchmarkVerifyStatesGraph \
  -benchtime "$BENCHTIME" -count 1 "${PROFILE_ARGS[@]}" . |
  awk '
    /^BenchmarkVerifyStatesGraph\// {
      name = $1
      sub(/^BenchmarkVerifyStatesGraph\//, "", name)
      sub(/-[0-9]+$/, "", name)
      rate = ""; ns = ""; fill = "-"; occ = "-"
      for (i = 2; i < NF; i++) {
        if ($(i + 1) == "states/s") rate = $i
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "fill") fill = $i
        if ($(i + 1) == "occ_ppm") occ = $i
      }
      if (rate != "" && ns != "")
        printf "%s\t%s\t%.3f\t%s\t%s\n", name, rate, ns / 1e6, fill, occ
    }')

# name <TAB> succ/s per micro-benchmark (per-stage hot-path throughput):
# the median of three time-sized runs, rows in benchmark order.
MICRO=$(go test -run '^$' \
  -bench '^(BenchmarkStep|BenchmarkPack|BenchmarkCanonicalize|BenchmarkIntern|BenchmarkDES)$' \
  -benchtime "$MICROBENCHTIME" -count 3 . |
  awk '
    /^Benchmark(Step|Pack|Canonicalize|Intern|DES)\// {
      name = $1
      sub(/^Benchmark/, "", name)
      sub(/-[0-9]+$/, "", name)
      rate = ""
      for (i = 2; i < NF; i++) if ($(i + 1) == "succ/s") rate = $i
      if (rate == "") next
      if (!(name in order)) order[name] = ++rows
      printf "%d\t%s\t%s\n", order[name], name, rate
    }' |
  sort -t "$(printf '\t')" -k1,1n -k3,3g |
  awk -F '\t' '
    function flush() { if (n > 0) printf "%s\t%s\n", name, v[int((n + 1) / 2)] }
    $1 != row { flush(); row = $1; name = $2; n = 0 }
    { v[++n] = $3 }
    END { flush() }')

{
  printf '{\n  "benchmark": "BenchmarkVerifyStatesGraph",\n  "metric": "states/s",\n'
  printf '  "configs": {\n'
  first=1
  while IFS=$'\t' read -r name rate ms fill occ; do
    [ "$first" -eq 0 ] && printf ',\n'
    printf '    "%s": %s' "$name" "$rate"
    first=0
  done <<<"$MACRO"
  printf '\n  },\n'
  printf '  "ms_per_verdict": {\n'
  first=1
  while IFS=$'\t' read -r name rate ms fill occ; do
    [ "$first" -eq 0 ] && printf ',\n'
    printf '    "%s": %s' "$name" "$ms"
    first=0
  done <<<"$MACRO"
  printf '\n  },\n'
  printf '  "structure": {\n'
  first=1
  while IFS=$'\t' read -r name rate ms fill occ; do
    [ "$fill" = "-" ] || {
      [ "$first" -eq 0 ] && printf ',\n'
      printf '    "%s/fill": %s' "$name" "$fill"
      first=0
    }
    [ "$occ" = "-" ] || {
      [ "$first" -eq 0 ] && printf ',\n'
      printf '    "%s/occ_ppm": %s' "$name" "$occ"
      first=0
    }
  done <<<"$MACRO"
  printf '\n  },\n'
  printf '  "micro": {\n'
  first=1
  while IFS=$'\t' read -r name rate; do
    [ "$first" -eq 0 ] && printf ',\n'
    printf '    "%s": %s' "$name" "$rate"
    first=0
  done <<<"$MICRO"
  printf '\n  }\n}\n'
} >"$OUT"

echo "wrote $OUT" >&2

# Full instrumented telemetry of the benchmark workload: one obs.Report
# JSONL line per bench run (stage timers, depth profile, store stats) from
# the same clique instance the states-graph benchmark times.
rm -f "$REPORT"
go run ./cmd/verify -protocol example1 -n 4 -r 3 -report "$REPORT" >/dev/null
echo "wrote $REPORT" >&2

if [ -n "${CPUPROFILE:-}" ]; then
  echo "wrote CPU profile $CPUPROFILE" >&2
fi
cat "$OUT"
