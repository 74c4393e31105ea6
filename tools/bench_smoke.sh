#!/usr/bin/env bash
# Engine smoke benchmark: wall-clock the --quick fig6 grid under both
# execution engines (interp, bytecode), check the printed tables are
# byte-identical, emit one JSONL run record per grid cell, and run the
# engine microbenchmark (tools/bench_engine.ml) for per-engine
# simulated-instruction throughput.
# Emits BENCH_engine.json (plus BENCH_records.jsonl), then runs the
# serving smoke (@serve-smoke section below) which emits BENCH_serve.json
# and gates the cache-hit rate and serve throughput.
#
# Run directly from the repo root after `dune build`, or via the dune
# alias: `dune build @bench-smoke` (kept out of the default test alias —
# the grid takes about a minute).
#
# The seed baseline is the measured wall-clock of this grid on the seed
# commit (sequential tree-walking interpreter, same host); override with
# SEED_WALL_S if re-measured. If a previous $OUT exists, the tracing-off
# bytecode wall-clock must stay within MAX_REGRESS (default 1.10, i.e.
# +10%) of its bytecode_jobs4_wall_s or the script fails — the
# observability hooks must stay free when off.
set -euo pipefail

OUT=${1:-BENCH_engine.json}
RECORDS=${RECORDS:-BENCH_records.jsonl}
MAX_REGRESS=${MAX_REGRESS:-1.10}
MAIN=${MAIN:-_build/default/bench/main.exe}
MICRO=${MICRO:-_build/default/tools/bench_engine.exe}
# Dune expands same-directory deps to bare names; qualify them so execvp
# does not go looking in PATH.
case $MAIN in */*) ;; *) MAIN=./$MAIN ;; esac
case $MICRO in */*) ;; *) MICRO=./$MICRO ;; esac
TIMEOUT_S=${TIMEOUT_S:-900}
SEED_WALL_S=${SEED_WALL_S:-80.6}

now_ms() { date +%s%3N; }

run_grid() { # engine jobs stdout_file stderr_file -> prints wall seconds
  local t0 t1
  t0=$(now_ms)
  timeout "$TIMEOUT_S" "$MAIN" --quick --engine "$1" --jobs "$2" fig6 \
    >"$3" 2>"$4"
  t1=$(now_ms)
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1000 }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Wall-clock regression gate: compare against the previous run's recorded
# bytecode wall-clock before overwriting $OUT.
prev_bytecode_wall=
if [ -f "$OUT" ]; then
  prev_bytecode_wall=$(grep -o '"bytecode_jobs4_wall_s": [0-9.]*' "$OUT" \
    | grep -o '[0-9.]*$' || true)
fi

interp_wall=$(run_grid interp 1 "$tmp/interp.txt" "$tmp/interp.log")
bytecode_wall=$(run_grid bytecode 4 "$tmp/bytecode.txt" "$tmp/bytecode.log")

# Re-run one bytecode cell set with --records to exercise the JSONL sink
# (cheap: records ride along with the grid's own measurement pass).
rm -f "$RECORDS"
timeout "$TIMEOUT_S" "$MAIN" --quick --engine bytecode --jobs 1 \
  --records "$RECORDS" fig6 >/dev/null 2>"$tmp/records.log"
record_count=$(wc -l <"$RECORDS")
if [ "$record_count" -eq 0 ]; then
  echo "bench_smoke: FAIL — no JSONL run records written to $RECORDS" >&2
  exit 1
fi

if cmp -s "$tmp/interp.txt" "$tmp/bytecode.txt"; then
  identical=true
else
  identical=false
fi

# stderr tail: "grid: 14 cells, 123 Minstr simulated (engine bytecode, 4 jobs)"
cells=$(grep -o 'grid: [0-9]* cells' "$tmp/bytecode.log" | grep -o '[0-9]*')
minstr=$(grep -o '[0-9]* Minstr' "$tmp/bytecode.log" | grep -o '[0-9]*')

micro=$(timeout "$TIMEOUT_S" "$MICRO" 60000 8 2)

{
  printf '{\n'
  printf '  "grid": "fig6 --quick (%s cells)",\n' "$cells"
  printf '  "host_cpus": %s,\n' "$(nproc)"
  printf '  "simulated_minstr": %s,\n' "$minstr"
  printf '  "seed_interp_wall_s": %s,\n' "$SEED_WALL_S"
  printf '  "interp_wall_s": %s,\n' "$interp_wall"
  printf '  "bytecode_jobs4_wall_s": %s,\n' "$bytecode_wall"
  awk -v s="$SEED_WALL_S" -v i="$interp_wall" -v y="$bytecode_wall" \
    -v m="$minstr" 'BEGIN {
      printf "  \"interp_minstr_per_s\": %.2f,\n", m / i;
      printf "  \"bytecode_minstr_per_s\": %.2f,\n", m / y;
      printf "  \"bytecode_speedup_vs_seed\": %.2f,\n", s / y;
      printf "  \"bytecode_speedup_vs_interp\": %.2f,\n", i / y }'
  printf '  "tables_identical": %s,\n' "$identical"
  printf '  "run_records": %s,\n' "$record_count"
  printf '  "microbench":\n'
  printf '%s\n' "$micro" | sed 's/^/  /'
  printf '}\n'
} >"$OUT"

echo "wrote $OUT (interp ${interp_wall}s, bytecode+4jobs ${bytecode_wall}s," \
  "tables_identical=$identical, records=$record_count)"

if [ -n "$prev_bytecode_wall" ]; then
  if awk -v now="$bytecode_wall" -v prev="$prev_bytecode_wall" \
       -v lim="$MAX_REGRESS" 'BEGIN { exit !(now > prev * lim) }'; then
    echo "bench_smoke: FAIL — tracing-off bytecode wall ${bytecode_wall}s" \
      "exceeds ${MAX_REGRESS}x previous ${prev_bytecode_wall}s" >&2
    exit 1
  fi
  echo "regression gate: bytecode ${bytecode_wall}s vs previous" \
    "${prev_bytecode_wall}s (limit ${MAX_REGRESS}x) — ok"
fi

# @serve-smoke section: replay the hot/cold Zipf mix through the serving
# scheduler, cache on vs off -> BENCH_serve.json with hit-rate and
# throughput gates (tools/serve_smoke.sh; also its own @serve-smoke
# alias for running without the engine grid).
SERVE_OUT=${SERVE_OUT:-BENCH_serve.json}
bash "$(dirname "$0")/serve_smoke.sh" "$SERVE_OUT"
