#!/usr/bin/env bash
# bench.sh — run the verifier benchmarks and emit BENCH_verify.json with
# four sections:
#
#   configs        states/s for every BenchmarkVerifyStatesGraph
#                  configuration (clique worker counts, ring store ×
#                  symmetry matrix) — unique-states-interned throughput.
#                  Like the micro rows, each configuration is sized by time
#                  (BENCHTIME per run, so a 1 ms verdict is timed over
#                  hundreds of calls, not three), run three times, and the
#                  median run (by states/s) is recorded;
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
#                  activations/s, whose poisson row guards the
#                  timing-wheel event queue and whose adversarial row the
#                  large simultaneous batches; BenchmarkGraphNew: nodes/s
#                  of graph.New on a 2^18-node ring, which guards the flat
#                  CSR build;
#                  BenchmarkSimSync: steps/s of sim.Run with cycle
#                  detection, synchronous on an 8- and a 4096-node ring
#                  and round-robin on a 64-node ring, which guard
#                  single-run step throughput, the last through the
#                  schedule-to-daemon generation path — see
#                  microbench_test.go; Intern/hash/batch-l2: the batch hit
#                  path on a store larger than L2, where InternBatch's
#                  two-phase lookup overlaps the cache misses; SCC: edges/s
#                  of the verifier's Tarjan pass over the ranked rows of
#                  SaturatingRing(6,3) at r = 3, in internal/verify's
#                  analysis_test.go). Each row is sized by
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
#   BENCHTIME=2s scripts/bench.sh        # longer states-graph runs
#   MICROBENCHTIME=1s scripts/bench.sh   # longer micro runs
#   CPUPROFILE=/tmp/cpu.prof scripts/bench.sh   # also write a CPU profile
#                                               # of the states-graph bench
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-500ms}"
MICROBENCHTIME="${MICROBENCHTIME:-200ms}"
OUT="${1:-BENCH_verify.json}"
REPORT="${OUT%.json}.report.jsonl"

PROFILE_ARGS=()
if [ -n "${CPUPROFILE:-}" ]; then
  PROFILE_ARGS=(-cpuprofile "$CPUPROFILE")
fi

# median_runs reads "row <TAB> name <TAB> rate [<TAB> more...]" lines, three
# per row, and prints "name <TAB> rate [<TAB> more...]" of each row's median
# run by rate, rows in benchmark order.
median_runs() {
  sort -t "$(printf '\t')" -k1,1n -k3,3g |
    awk -F '\t' '
      function flush() { if (n > 0) print v[int((n + 1) / 2)] }
      $1 != row { flush(); row = $1; n = 0 }
      { line = $2; for (i = 3; i <= NF; i++) line = line "\t" $i; v[++n] = line }
      END { flush() }'
}

# name <TAB> states/s <TAB> ms/verdict <TAB> fill <TAB> occ_ppm per
# states-graph configuration ("-" when a structural metric is absent): the
# median of three time-sized runs.
MACRO=$(go test -run '^$' -bench BenchmarkVerifyStatesGraph \
  -benchtime "$BENCHTIME" -count 3 "${PROFILE_ARGS[@]}" . |
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
      if (rate == "" || ns == "") next
      if (!(name in order)) order[name] = ++rows
      printf "%d\t%s\t%s\t%.3f\t%s\t%s\n", order[name], name, rate, ns / 1e6, fill, occ
    }' | median_runs)

# name <TAB> succ/s per micro-benchmark (per-stage hot-path throughput):
# the median of three time-sized runs, rows in benchmark order.
MICRO=$(go test -run '^$' \
  -bench '^(BenchmarkStep|BenchmarkPack|BenchmarkCanonicalize|BenchmarkIntern|BenchmarkDES|BenchmarkGraphNew|BenchmarkSimSync|BenchmarkSCC)$' \
  -benchtime "$MICROBENCHTIME" -count 3 . ./internal/verify |
  awk '
    /^Benchmark(Step|Pack|Canonicalize|Intern|DES|GraphNew|SimSync|SCC)\// {
      name = $1
      sub(/^Benchmark/, "", name)
      sub(/-[0-9]+$/, "", name)
      rate = ""
      for (i = 2; i < NF; i++) if ($(i + 1) == "succ/s") rate = $i
      if (rate == "") next
      if (!(name in order)) order[name] = ++rows
      printf "%d\t%s\t%s\n", order[name], name, rate
    }' | median_runs)

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
