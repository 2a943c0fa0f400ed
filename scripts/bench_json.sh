#!/usr/bin/env bash
# Run a set of root-package benchmarks and render the result as a small
# JSON artifact with per-benchmark metric means and headline speedups.
# The checked-in BENCH_*.json files at the repo root are reference runs
# of this script; CI re-runs it on every build and uploads the fresh
# files alongside the raw `go test -bench` output, so the speedups are
# tracked as first-class comparison artifacts (like the repair and
# sharding pairs in bench.txt), and TestBenchTrajectory gates the
# checked-in numbers against the acceptance bars.
#
# Per-run numbers are noisy — throughput swings with how many conflict
# retries and template repairs the cross-worker races happen to
# trigger — so the JSON records the mean over $COUNT runs of each
# benchmark and ratios of those means.
#
# Usage: OUT=<file>.json scripts/bench_json.sh BENCHMARK...
#
#   Each BENCHMARK is an exact root-package benchmark name; the FIRST is
#   the baseline. The JSON carries a "baseline" key and a
#   "speedups_admissions_per_sec" object mapping every other benchmark
#   to its admissions/sec mean over the baseline's.
#
#   BENCHTIME=2s COUNT=3 OUT=BENCH_6.json DESC="batched vs unbatched pipeline admission" \
#     scripts/bench_json.sh BenchmarkAdmissionUnbatched BenchmarkAdmissionBatched
#   BENCHTIME=800x COUNT=3 OUT=BENCH_7.json DESC="fleet admission: meshes 1 vs 2 vs 4" \
#     scripts/bench_json.sh BenchmarkFleetAdmission1 BenchmarkFleetAdmission2 BenchmarkFleetAdmission4
set -euo pipefail

benchtime=${BENCHTIME:-2s}
count=${COUNT:-3}

if [ "$#" -lt 2 ]; then
  echo "usage: OUT=<file>.json $0 BASELINE BENCHMARK..." >&2
  exit 2
fi
out=${OUT:?set OUT=<file>.json}
raw=${RAW:-${out%.json}-raw.txt}
desc=${DESC:-"$*"}

pattern="^($(IFS='|'; echo "$*"))\$"

go test -run xxx -bench "$pattern" -benchtime "$benchtime" -count "$count" . | tee "$raw"

awk -v benchtime="$benchtime" -v count="$count" -v goversion="$(go version)" \
    -v desc="$desc" -v names="$*" '
BEGIN {
  n = split(names, order, " ")
}
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
  want = 0
  for (k = 1; k <= n; k++) if (order[k] == name) want = 1
  if (!want) next
  seen[name] = 1
  runs[name]++
  # A benchmark line is: name, iterations, then (value, unit) pairs.
  for (i = 3; i < NF; i += 2) {
    unit = $(i + 1)
    gsub(/\//, "_per_", unit)
    gsub(/%/, "pct_", unit)
    sum[name, unit] += $i
    if (!(unit in units)) { units[unit] = ++nu; uorder[nu] = unit }
  }
}
END {
  for (k = 1; k <= n; k++) if (!(order[k] in seen)) {
    print "bench_json: missing benchmark " order[k] > "/dev/stderr"
    exit 1
  }
  printf "{\n"
  printf "  \"pair\": \"%s\",\n", desc
  printf "  \"go\": \"%s\",\n", goversion
  printf "  \"benchtime\": \"%s\",\n", benchtime
  printf "  \"count\": %d,\n", count
  printf "  \"benchmarks\": {\n"
  for (k = 1; k <= n; k++) {
    name = order[k]
    printf "    \"%s\": {", name
    first = 1
    for (u = 1; u <= nu; u++) {
      unit = uorder[u]
      if (!((name, unit) in sum)) continue
      if (!first) printf ", "
      first = 0
      printf "\"%s\": %.6g", unit, sum[name, unit] / runs[name]
    }
    printf "}%s\n", (k < n) ? "," : ""
  }
  printf "  },\n"
  base = sum[order[1], "admissions_per_sec"] / runs[order[1]]
  printf "  \"baseline\": \"%s\",\n", order[1]
  printf "  \"speedups_admissions_per_sec\": {\n"
  for (k = 2; k <= n; k++) {
    v = sum[order[k], "admissions_per_sec"] / runs[order[k]]
    printf "    \"%s\": %.3f%s\n", order[k], v / base, (k < n) ? "," : ""
  }
  printf "  }\n"
  printf "}\n"
}' "$raw" > "$out"

echo "bench_json: wrote $out"
cat "$out"
