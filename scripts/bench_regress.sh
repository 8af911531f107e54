#!/usr/bin/env bash
# Continuous benchmark regression: build the suite, then either record a
# baseline snapshot or compare the current tree against a committed one.
#
#   scripts/bench_regress.sh record [LABEL]     # writes BENCH_<LABEL>.json
#   scripts/bench_regress.sh compare [BASELINE] # exit 1 on regression
#
# Defaults: LABEL=seed, BASELINE=BENCH_seed.json. Knobs (env):
#   REPEATS=N        samples per metric (default 5; medians are reported)
#   TOLERANCE=FRAC   override every per-metric tolerance (a positive
#                    fraction, e.g. 0.10)
#   PROFILE=1        also print the in-process profiler report for the suite
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-compare}"
ARG="${2:-}"
REPEATS="${REPEATS:-5}"

case "$MODE" in
  record|compare) ;;
  *) echo "usage: $0 [record [LABEL] | compare [BASELINE]]" >&2; exit 2 ;;
esac

echo "== build bench_baseline =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target bench_baseline json_check

FLAGS=("--repeats=$REPEATS")
[[ -n "${TOLERANCE:-}" ]] && FLAGS+=("--tolerance=$TOLERANCE")
[[ "${PROFILE:-0}" == 1 ]] && FLAGS+=("--profile")

if [[ "$MODE" == record ]]; then
  LABEL="${ARG:-seed}"
  SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
  OUT="BENCH_${LABEL}.json"
  echo "== record baseline $OUT (sha $SHA) =="
  ./build/tools/bench_baseline --record="$OUT" --label="$LABEL" \
    --git-sha="$SHA" "${FLAGS[@]}"
  ./build/tools/json_check "$OUT"
else
  BASELINE="${ARG:-BENCH_seed.json}"
  [[ -f "$BASELINE" ]] || {
    echo "no baseline at $BASELINE — run: $0 record" >&2; exit 2; }
  echo "== compare against $BASELINE =="
  ./build/tools/bench_baseline --compare="$BASELINE" "${FLAGS[@]}"
fi
