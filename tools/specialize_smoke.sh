#!/usr/bin/env bash
# Specialization smoke benchmark: run bench/specialize.exe (ahead-of-time
# specialized bytecode vs the generic engines on the SpMV/SpMM/SDDMM
# suite) and emit BENCH_specialize.json.
#
# Gates (all enforced by specialize.exe itself, exit 1 on any failure):
#   - every gated scenario's specialized run is >= MIN_SPEC_RATIO
#     (default 1.15x) the generic bytecode run in virtual cycles;
#   - specialized outputs are bit-identical to generic outputs and
#     within 1e-9 of the dense reference;
#   - the specialized report is identical across interp / bytecode;
#   - steady-state wall-clock geomean of specialized over generic
#     bytecode is > 1.0;
#   - a warm serve replay serves specialized artefacts from cache
#     (serve.spec.hit > 0) with records byte-identical at any --jobs.
#
# Run directly after `dune build`, or via `dune build @spec-smoke`
# (also part of @bench-smoke).
set -euo pipefail

OUT=${1:-BENCH_specialize.json}
SPEC=${SPEC:-_build/default/bench/specialize.exe}
case $SPEC in */*) ;; *) SPEC=./$SPEC ;; esac
TIMEOUT_S=${TIMEOUT_S:-900}
SPEC_N=${SPEC_N:-120}
SPEC_SEED=${SPEC_SEED:-11}
SPEC_JOBS=${SPEC_JOBS:-4}
MIN_SPEC_RATIO=${MIN_SPEC_RATIO:-1.15}
SPEC_REPS=${SPEC_REPS:-12}

timeout "$TIMEOUT_S" "$SPEC" "$SPEC_N" "$SPEC_SEED" "$SPEC_JOBS" \
  "$MIN_SPEC_RATIO" "$SPEC_REPS" >"$OUT"

wall_geomean=$(grep -o '"wall_speedup_geomean": [0-9.]*' "$OUT" \
  | grep -o '[0-9.]*$')
spec_hits=$(grep -o '"spec_hits": [0-9]*' "$OUT" | grep -o '[0-9]*$')
identical=$(grep -o '"records_jobs_identical": [a-z]*' "$OUT" \
  | grep -o '[a-z]*$')
best=$(grep -o '"cycle_speedup": [0-9.]*' "$OUT" | grep -o '[0-9.]*$' \
  | sort -g | tail -1)

echo "wrote $OUT (best cycle speedup=${best}x," \
  "wall geomean=${wall_geomean}x, serve spec_hits=${spec_hits}," \
  "jobs-identical=${identical})"
