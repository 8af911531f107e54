#!/usr/bin/env bash
# Tier-1 verify plus sanitizer passes: ThreadSanitizer over the parallel
# experiment engine + parallel rollout collection + profiler, ASan+UBSan over
# the whole suite except alloc_test, a flight-recorder trace round-trip smoke
# test, a profiler-enabled smoke run, a telemetry smoke leg (sampled run ->
# trace_summarize queries -> report_html), fleet smoke legs, the benchmark
# harness's own tests (perfbench/, built in its own tree) and its exact work
# gate (scripts/perfbench_work.json).
# `--bench` adds the opt-in benchmark regression leg (scripts/bench_regress.sh
# against BENCH_seed.json).
# CI (.github/workflows/ci.yml) runs the --no-sanitizers, --asan-only and
# --tsan-only legs as three jobs.
# Usage: scripts/check.sh [--tsan-only | --asan-only | --no-sanitizers | --bench]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
RUN_TIER1=1
RUN_TSAN=1
RUN_ASAN=1
RUN_BENCH=0
case "${1:-}" in
  --tsan-only) RUN_TIER1=0; RUN_ASAN=0 ;;
  --asan-only) RUN_TIER1=0; RUN_TSAN=0 ;;
  --no-tsan) RUN_TSAN=0 ;;
  --no-sanitizers) RUN_TSAN=0; RUN_ASAN=0 ;;
  --bench) RUN_BENCH=1 ;;
  "") ;;
  *) echo "usage: $0 [--tsan-only | --asan-only | --no-tsan | --no-sanitizers | --bench]" >&2; exit 2 ;;
esac

if [[ "$RUN_TIER1" == 1 ]]; then
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "== tier-1 (scalar kernels): full suite with LIBRA_SIMD=off =="
  # Pins kernel dispatch to the scalar fallback so the pre-SIMD code paths
  # (and their bitwise-reproducibility promises) stay exercised everywhere.
  (cd build && LIBRA_SIMD=off ctest --output-on-failure -j "$JOBS")

  echo "== trace round-trip: record a run, summarize it offline =="
  # The recorded per-ACK stream must reproduce the run's own summary: for
  # every flow, record_run's throughput, mean RTT and loss rate over
  # [1 s, 2 s) (read off its 10 ms window rows) must equal trace_summarize's
  # row at the table's precision. The summary window ends at the trace's
  # "run" event, the run's end. A truncated (no "run" event) or empty trace
  # makes trace_summarize exit non-zero.
  TRACE_DIR="$(mktemp -d)"
  trap 'rm -rf "$TRACE_DIR"' EXIT
  ./build/tools/record_run --out="$TRACE_DIR/smoke.jsonl" --duration=2 \
    --flows=2 > "$TRACE_DIR/summary.json"
  ./build/tools/trace_summarize --warmup=1 \
    "$TRACE_DIR/smoke.jsonl" > "$TRACE_DIR/smoke.txt"
  grep -q "total: throughput" "$TRACE_DIR/smoke.txt" || {
    echo "trace round-trip: missing totals line" >&2; exit 1; }
  python3 - "$TRACE_DIR/summary.json" "$TRACE_DIR/smoke.txt" <<'PY' || {
import json, sys
flows = json.load(open(sys.argv[1]))["flows"]
lines = open(sys.argv[2]).read().splitlines()
head = next(i for i, l in enumerate(lines) if l.startswith("flow  sends"))
rows = []
for line in lines[head + 2:]:
    if not line.strip():
        break
    c = line.split()  # flow sends acks losses thr p50 p90 p99 mean loss
    rows.append((c[0], c[4], c[8], c[9]))
want = [(str(i), "%.2f" % (f["throughput_bps"] / 1e6), "%.1f" % f["avg_rtt_ms"],
         "%.2f%%" % (100 * f["loss_rate"])) for i, f in enumerate(flows)]
if len(want) != 2 or rows != want:
    sys.exit("record_run %s != trace_summarize %s" % (want, rows))
PY
    echo "trace round-trip: summary and trace disagree" >&2; exit 1; }
  # Without its "run" line the trace is truncated: exit 1 unless --horizon
  # says where the run ended.
  head -n -1 "$TRACE_DIR/smoke.jsonl" > "$TRACE_DIR/cut.jsonl"
  rc=0
  ./build/tools/trace_summarize "$TRACE_DIR/cut.jsonl" > /dev/null \
    2> "$TRACE_DIR/cut.err" || rc=$?
  [[ "$rc" == 1 ]] && grep -q "truncated" "$TRACE_DIR/cut.err" || {
    echo "trace round-trip: a trace without its run event exited $rc, want 1" >&2
    exit 1; }
  ./build/tools/trace_summarize --horizon=2 "$TRACE_DIR/cut.jsonl" > /dev/null
  # A malformed, non-positive or off-grid value must print usage and exit 2
  # — not abort, run a degenerate scenario or sample every microsecond.
  for bad in --rate=abc --duration=-1 --duration=2.005 --flows=2x \
    "--sample-ms=abc --telemetry=$TRACE_DIR/bad_tel.jsonl"; do
    rc=0
    # shellcheck disable=SC2086  # the last case is two flags
    ./build/tools/record_run --no-trace $bad > "$TRACE_DIR/bad.out" \
      2> "$TRACE_DIR/bad.err" || rc=$?
    [[ "$rc" == 2 && ! -s "$TRACE_DIR/bad.out" ]] \
      && grep -q "usage:" "$TRACE_DIR/bad.err" || {
      echo "trace round-trip: record_run $bad exited $rc, want usage + exit 2" >&2
      exit 1; }
  done
  # The bench binaries parse --duration the same way.
  for bad in abc -1 2.005; do
    rc=0
    ./build/bench/bench_fig08_tracking --duration="$bad" \
      > "$TRACE_DIR/bad.out" 2> "$TRACE_DIR/bad.err" || rc=$?
    [[ "$rc" == 2 && ! -s "$TRACE_DIR/bad.out" ]] \
      && grep -q "usage:" "$TRACE_DIR/bad.err" || {
      echo "trace round-trip: bench_fig08_tracking --duration=$bad exited $rc, want usage + exit 2" >&2
      exit 1; }
  done
  # run_experiment: a malformed or negative seed, and a run no longer than
  # run_single's 2 s warmup (its measured window would be empty).
  for bad in "4 3x" "4 -1" "2 1"; do
    rc=0
    # shellcheck disable=SC2086  # seconds and seed are two arguments
    ./build/examples/run_experiment wired24 $bad cubic \
      > "$TRACE_DIR/bad.out" 2> "$TRACE_DIR/bad.err" || rc=$?
    [[ "$rc" == 2 && ! -s "$TRACE_DIR/bad.out" ]] \
      && grep -q "usage:" "$TRACE_DIR/bad.err" || {
      echo "trace round-trip: run_experiment wired24 $bad cubic exited $rc, want usage + exit 2" >&2
      exit 1; }
  done
  echo "trace round-trip: ok"

  echo "== profiler smoke: profiled run + validated JSON artifacts =="
  # A profiler-enabled run must still produce a valid trace and print a call
  # tree containing the event-dispatch span; every JSON artifact must parse.
  ./build/tools/record_run --out="$TRACE_DIR/prof.jsonl" --duration=2 \
    --profile > "$TRACE_DIR/prof_summary.json" 2> "$TRACE_DIR/prof.err"
  grep -q "sim.event" "$TRACE_DIR/prof.err" || {
    echo "profiler smoke: report missing sim.event span" >&2; exit 1; }
  ./build/tools/trace_summarize --warmup=1 "$TRACE_DIR/prof.jsonl" > /dev/null
  ./build/tools/json_check "$TRACE_DIR/prof_summary.json"
  ./build/tools/json_check --jsonl "$TRACE_DIR/prof.jsonl"
  echo "profiler smoke: ok"

  echo "== telemetry smoke: sampled run -> query engine -> HTML report =="
  # Record a short 2-flow run with the 1 ms sampler, query the trace through
  # trace_summarize's filter flags, and render the columnar dump to HTML.
  ./build/tools/record_run --out="$TRACE_DIR/tel.jsonl" --duration=2 --flows=2 \
    --telemetry="$TRACE_DIR/tel_cols.jsonl" --sample-ms=1 \
    > "$TRACE_DIR/tel_summary.json"
  ./build/tools/json_check --jsonl "$TRACE_DIR/tel_cols.jsonl"
  # Query round-trip: per-flow filtering and the event grep must agree with
  # the trace (flow 1 exists, acks exist in the window).
  ./build/tools/trace_summarize --flow=1 "$TRACE_DIR/tel.jsonl" \
    | grep -q "rtt p99" || {
    echo "telemetry smoke: --flow query lost the percentile table" >&2; exit 1; }
  ./build/tools/trace_summarize --warmup=0.5 "$TRACE_DIR/tel.jsonl" \
    | grep -q "queue p99" || {
    echo "telemetry smoke: queueing-delay breakdown missing" >&2; exit 1; }
  ACKS="$(./build/tools/trace_summarize --event=ack --since=0.5 --until=1.5 \
    "$TRACE_DIR/tel.jsonl" | wc -l)"
  [[ "$ACKS" -gt 0 ]] || {
    echo "telemetry smoke: --event=ack query returned nothing" >&2; exit 1; }
  # Unknown flags must fail fast with usage, not be silently ignored.
  if ./build/tools/trace_summarize --bogus-flag "$TRACE_DIR/tel.jsonl" \
    2>/dev/null; then
    echo "telemetry smoke: unknown flag did not exit non-zero" >&2; exit 1
  fi
  # So must a malformed or negative number, which must not stand in for 0
  # (flow 0, top 0, stored tolerances) or open a negative window. The
  # bench_baseline cases must fail before the suite prints its first line.
  for bad in "trace_summarize --flow=abc $TRACE_DIR/tel.jsonl" \
    "trace_summarize --warmup=abc $TRACE_DIR/tel.jsonl" \
    "trace_summarize --warmup=-5 $TRACE_DIR/tel.jsonl" \
    "report_html --top=abc --out=$TRACE_DIR/bad.html $TRACE_DIR/tel_cols.jsonl" \
    "bench_baseline --compare=BENCH_seed.json --tolerance=abc" \
    "bench_baseline --compare=BENCH_seed.json --repeats=abc"; do
    rc=0
    # shellcheck disable=SC2086  # each case is a tool and its arguments
    ./build/tools/$bad > "$TRACE_DIR/bad.out" 2> "$TRACE_DIR/bad.err" || rc=$?
    [[ "$rc" == 2 && ! -s "$TRACE_DIR/bad.out" ]] \
      && grep -q "usage:" "$TRACE_DIR/bad.err" || {
      echo "telemetry smoke: $bad exited $rc, want usage + exit 2" >&2
      exit 1; }
  done
  ./build/tools/report_html --out="$TRACE_DIR/tel.html" \
    "$TRACE_DIR/tel_cols.jsonl"
  # Trivial tag-balance assertion: every <svg> closes and the document closes.
  OPEN_SVG="$(grep -o "<svg" "$TRACE_DIR/tel.html" | wc -l)"
  CLOSE_SVG="$(grep -o "</svg>" "$TRACE_DIR/tel.html" | wc -l)"
  [[ "$OPEN_SVG" -gt 0 && "$OPEN_SVG" -eq "$CLOSE_SVG" ]] || {
    echo "telemetry smoke: report_html SVG tags unbalanced" >&2; exit 1; }
  grep -q "</html>" "$TRACE_DIR/tel.html" || {
    echo "telemetry smoke: report_html document not closed" >&2; exit 1; }
  echo "telemetry smoke: ok"

  echo "== fleet smoke: sharded engine must match serial bitwise =="
  # The fleet engine's determinism promise: the sharded run emits a JSON
  # summary byte-identical to the serial run at any thread count. Exercise
  # the 100-flow incast with two worker threads — the config the ISSUE names.
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --mode=serial > "$TRACE_DIR/fleet_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --mode=sharded --threads=2 > "$TRACE_DIR/fleet_sharded.json" 2>/dev/null
  diff "$TRACE_DIR/fleet_serial.json" "$TRACE_DIR/fleet_sharded.json" || {
    echo "fleet smoke: sharded summary diverged from serial" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/fleet_serial.json"
  # The incast is one shard, so it never posts across a window boundary. The
  # 4-hop parking lot's long flows post across every shard boundary, where
  # each shard runs its next window as soon as the shards posting to it
  # allow; with health on, serial and sharded must still print one summary.
  ./build/tools/fleet_run --topo=parking_lot --hops=4 --flows=200 \
    --duration=3 --cca=bbr --health --mode=serial \
    > "$TRACE_DIR/lot_serial.json" 2>/dev/null
  for threads in 2 4; do
    ./build/tools/fleet_run --topo=parking_lot --hops=4 --flows=200 \
      --duration=3 --cca=bbr --health --mode=sharded --threads="$threads" \
      > "$TRACE_DIR/lot_sharded.json" 2>/dev/null
    diff "$TRACE_DIR/lot_serial.json" "$TRACE_DIR/lot_sharded.json" || {
      echo "fleet smoke: parking lot diverged from serial at --threads=$threads" >&2
      exit 1; }
  done
  # A malformed number, a non-positive duration or an unknown CCA must print
  # usage and exit 2 — not run a degenerate scenario or abort.
  for bad in --flows=abc --duration=-1 --cca=nosuch; do
    rc=0
    ./build/tools/fleet_run "$bad" > "$TRACE_DIR/bad.out" \
      2> "$TRACE_DIR/bad.err" || rc=$?
    [[ "$rc" == 2 && ! -s "$TRACE_DIR/bad.out" ]] \
      && grep -q "usage:" "$TRACE_DIR/bad.err" || {
      echo "fleet smoke: fleet_run $bad exited $rc, want usage + exit 2" >&2
      exit 1; }
  done
  echo "fleet smoke: ok"

  echo "== fleet health smoke: windowed timeline + incidents, mode-invariant =="
  # --health adds the streaming health object (windowed fleet timeline +
  # severity-ranked anomaly incidents) to the summary; it must parse and be
  # byte-identical serial vs. sharded like everything else on stdout, and
  # report_html must render it as a fleet-health page.
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 --health \
    --mode=serial > "$TRACE_DIR/fleet_health_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 --health \
    --mode=sharded --threads=2 > "$TRACE_DIR/fleet_health_sharded.json" \
    2>/dev/null
  diff "$TRACE_DIR/fleet_health_serial.json" \
    "$TRACE_DIR/fleet_health_sharded.json" || {
    echo "fleet health smoke: sharded health report diverged from serial" >&2
    exit 1; }
  grep -q '"health"' "$TRACE_DIR/fleet_health_serial.json" || {
    echo "fleet health smoke: summary missing the health object" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/fleet_health_serial.json"
  ./build/tools/report_html --out="$TRACE_DIR/fleet_health.html" \
    "$TRACE_DIR/fleet_health_serial.json"
  grep -q "fleet health" "$TRACE_DIR/fleet_health.html" || {
    echo "fleet health smoke: report_html did not render the health page" >&2
    exit 1; }
  echo "fleet health smoke: ok"

  echo "== datacenter smoke: DCTCP/ECN incast, mode-invariant =="
  # The ECN path end to end: switch marks at the threshold, the CE echo rides
  # the ACK back, DCTCP scales cwnd by alpha — and none of it may perturb the
  # serial==sharded byte-identity promise. Same for the token-bucket policer.
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --cca=dctcp --ecn=45000 --mode=serial \
    > "$TRACE_DIR/dc_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --cca=dctcp --ecn=45000 --mode=sharded --threads=2 \
    > "$TRACE_DIR/dc_sharded.json" 2>/dev/null
  diff "$TRACE_DIR/dc_serial.json" "$TRACE_DIR/dc_sharded.json" || {
    echo "datacenter smoke: DCTCP/ECN sharded summary diverged" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/dc_serial.json"
  grep -q '"cca":"dctcp"' "$TRACE_DIR/dc_serial.json" || {
    echo "datacenter smoke: summary is not a dctcp run" >&2; exit 1; }
  ./build/tools/fleet_run --topo=parking_lot --hops=3 --duration=3 \
    --cca=bbr --policer-rate=12 --policer-start=1 --mode=serial \
    > "$TRACE_DIR/policed_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=parking_lot --hops=3 --duration=3 \
    --cca=bbr --policer-rate=12 --policer-start=1 --mode=sharded --threads=2 \
    > "$TRACE_DIR/policed_sharded.json" 2>/dev/null
  diff "$TRACE_DIR/policed_serial.json" "$TRACE_DIR/policed_sharded.json" || {
    echo "datacenter smoke: policed sharded summary diverged" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/policed_serial.json"
  echo "datacenter smoke: ok"

  echo "== perfbench self-tests: the benchmark harness's own tests =="
  # perfbench/ is its own CMake project (see perfbench/CMakeLists.txt), so
  # its C++ tests build in a separate tree; the Python tests check run.py's
  # flag validation and build nothing.
  cmake -S perfbench -B build-perfbench >/dev/null
  cmake --build build-perfbench -j "$JOBS" --target perfbench_test
  (cd build-perfbench && ctest --output-on-failure -j "$JOBS")
  python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
  echo "perfbench self-tests: ok"

  echo "== perfbench work gate: exact work counters at --seed 1 =="
  # Each workload's {"work": ...} line (events, acks, losses, drops, Libra and
  # PPO counts, digest) must equal scripts/perfbench_work.json's entry for the
  # kernel ISA it ran on, key by key: once under the host's dispatch, once
  # under LIBRA_SIMD=off. allocs is left out: perfbench's counter misses
  # over-aligned allocations. A change that moves a counter on purpose
  # updates the file and says why in CHANGES.md.
  cmake --build build-perfbench -j "$JOBS" --target perfbench
  for simd in auto off; do
    for w in paper train fleet; do
      LIBRA_SIMD="$simd" ./build-perfbench/perfbench --workload "$w" --seed 1 \
        --seconds 1 > "$TRACE_DIR/work_${simd}_$w.out"
    done
  done
  python3 - scripts/perfbench_work.json "$TRACE_DIR"/work_*.out <<'PY' || {
import json, sys
want = json.load(open(sys.argv[1]))
bad = 0
for path in sys.argv[2:]:
    lines = [json.loads(l) for l in open(path) if l.startswith("{")]
    prov = next(l["provenance"] for l in lines if "provenance" in l)
    got = next(l["work"] for l in lines if "work" in l)
    ref = want[prov["isa"]][prov["workload"]]
    keys = (set(ref) | set(got)) - {"allocs"}
    for k in sorted(keys):
        if ref.get(k) != got.get(k):
            bad += 1
            print("%s %s %s: %s, want %s" % (prov["workload"], prov["isa"], k,
                                             got.get(k), ref.get(k)), file=sys.stderr)
sys.exit(1 if bad else 0)
PY
    echo "perfbench work gate: work counters differ from scripts/perfbench_work.json" >&2
    exit 1; }
  echo "perfbench work gate: ok"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== TSan: parallel engine + rollout collection must be race-free =="
  cmake -B build-tsan -S . -DLIBRA_SANITIZE=thread >/dev/null
  # The determinism/engine tests are the ones that exercise cross-thread
  # sharing (frozen brains, the pool, run_many, parallel rollout collection,
  # concurrent metrics merges, trace sinks, and the profiler's thread-local
  # trees + report-time merge); building the whole tree under TSan is
  # unnecessary for the guarantee and triples the cycle time.
  cmake --build build-tsan -j "$JOBS" --target parallel_test sim_test util_test obs_test telemetry_test profiler_test rl_test fleet_test
  (cd build-tsan && ./tests/parallel_test && ./tests/sim_test && ./tests/util_test && ./tests/obs_test && ./tests/telemetry_test && ./tests/profiler_test && ./tests/rl_test && ./tests/fleet_test)
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== ASan+UBSan: the whole suite except alloc_test =="
  # alloc_test replaces global operator new, which conflicts with ASan's
  # allocator, so the ASan build leaves it out (tests/CMakeLists.txt). UBSan
  # is built -fno-sanitize-recover, so any report fails its test. simd_test
  # runs once more with scalar dispatch.
  cmake -B build-asan -S . -DLIBRA_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS" --target libra_tests
  (cd build-asan && ctest --output-on-failure -j "$JOBS" \
    && LIBRA_SIMD=off ./tests/simd_test)
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== bench regression: compare against committed baseline =="
  scripts/bench_regress.sh compare
fi

echo "check.sh: all green"
