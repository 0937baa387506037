#!/usr/bin/env bash
# bench_baseline.sh -- the pinned engine-performance baseline.
#
# Runs three things against a Release build and folds every row into one
# machine-readable JSON-lines file (default BENCH_engine.json), the perf
# trajectory future PRs diff against:
#
#   1. the pinned CLI sweep (drr/ave, n = 4096, 64 trials, complete + grid,
#      --threads = hardware cores; grid pinned at --diam-mult 0 so the
#      logical work is identical across PRs regardless of the default
#      Phase III budget), timed as min-of-3 wall clock, with a
#      threads-1-vs-threads-4 output hash proving bit-identical reports,
#      plus the sparse-pipeline sweep point (chord-drr/ave on the engine
#      port) under the same timing + hash discipline;
#   2. the n-sweep scaling family (single runs at n = 65536 ... 16M,
#      dense push-sum + implicit chord-ring DRR) with wall clock, peak
#      RSS (the CLI's own VmHWM, from --peak-rss) and the msgs/(n log n),
#      rounds/log n scaling ratios;
#   3. bench_table1 --table1_json on the pinned config matrix
#      (n in {256, 1024, 4096}, complete + grid) -- the ops counters
#      (rounds/msgs) the CI golden check pins;
#   4. bench_engine micro-benchmarks (rounds/sec, msgs/sec, allocs/run,
#      ms/run), including the per-seed Chord substrate build.
#
# Usage:
#   tools/bench_baseline.sh [BUILD_DIR] [OUT_JSON]
#   PRE_CLI=path/to/old/drrg_cli tools/bench_baseline.sh   # adds speedup rows
#     (PRE_CLI runs each sweep point's exact arguments, so it must accept
#     the current flags, e.g. --diam-mult)
#   SMOKE=1 tools/bench_baseline.sh                        # CI-sized matrix
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_engine.json}"
CLI="$BUILD_DIR/drrg_cli"
TABLE1="$BUILD_DIR/bench_table1"
ENGINE="$BUILD_DIR/bench_engine"
THREADS="$(nproc 2>/dev/null || echo 1)"

if [ ! -x "$CLI" ]; then
  echo "bench_baseline: $CLI not found (build first: cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi

# The table1 matrix is always complete (its ops counters are the CI golden
# contract); SMOKE only shrinks the timed sweep.
T1_FILTER='/(256|1024|4096)/'
if [ "${SMOKE:-0}" = "1" ]; then
  SWEEP_N=1024; SWEEP_TRIALS=8; REPS=1
else
  SWEEP_N=4096; SWEEP_TRIALS=64; REPS=5
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
: > "$TMP/rows.json"

# --- 1. pinned CLI sweeps ---------------------------------------------------
# One timing + hash discipline for every sweep point: min-of-REPS wall
# clock, and a threads-1-vs-threads-4 CSV sha256 proving bit-identical
# reports.  Args: row label, algo, n, trials, extra CLI flags.
run_sweep() {
  local LABEL="$1"; shift
  local ALGO="$1"; shift
  local N="$1"; shift
  local TRIALS="$1"; shift
  local BEST=""
  for _ in $(seq "$REPS"); do
    local S E D
    S=$(date +%s.%N)
    "$CLI" --algo "$ALGO" --agg ave --n "$N" --trials "$TRIALS" \
           --threads "$THREADS" "$@" --csv > "$TMP/sweep.csv"
    E=$(date +%s.%N)
    D=$(python3 -c "print(f'{$E - $S:.4f}')")
    if [ -z "$BEST" ] || python3 -c "exit(0 if $D < $BEST else 1)"; then BEST="$D"; fi
  done
  local H1 H4 DET=false
  H1=$("$CLI" --algo "$ALGO" --agg ave --n "$N" --trials "$TRIALS" \
       --threads 1 "$@" --csv | sha256sum | cut -d' ' -f1)
  H4=$("$CLI" --algo "$ALGO" --agg ave --n "$N" --trials "$TRIALS" \
       --threads 4 "$@" --csv | sha256sum | cut -d' ' -f1)
  [ "$H1" = "$H4" ] && DET=true
  local ROW="{\"bench\":\"engine_sweep\",\"topology\":\"$LABEL\",\"algo\":\"$ALGO\",\"n\":$N,\"trials\":$TRIALS,\"threads\":$THREADS,\"wall_s\":$BEST,\"deterministic\":$DET,\"sha256\":\"$H1\""
  if [ -n "${PRE_CLI:-}" ] && [ -x "${PRE_CLI}" ]; then
    # The older binary runs exactly the fresh run's arguments, so both
    # sides do the same logical work.
    local PBEST=""
    for _ in $(seq "$REPS"); do
      local S E D
      S=$(date +%s.%N)
      "$PRE_CLI" --algo "$ALGO" --agg ave --n "$N" --trials "$TRIALS" \
                 --threads "$THREADS" "$@" --csv > /dev/null
      E=$(date +%s.%N)
      D=$(python3 -c "print(f'{$E - $S:.4f}')")
      if [ -z "$PBEST" ] || python3 -c "exit(0 if $D < $PBEST else 1)"; then PBEST="$D"; fi
    done
    local SPEEDUP
    SPEEDUP=$(python3 -c "print(f'{$PBEST / $BEST:.2f}')")
    ROW="$ROW,\"wall_s_pre\":$PBEST,\"speedup\":$SPEEDUP"
  fi
  echo "$ROW}" >> "$TMP/rows.json"
}

run_sweep complete drr "$SWEEP_N" "$SWEEP_TRIALS"
run_sweep grid drr "$SWEEP_N" "$SWEEP_TRIALS" --topology grid --diam-mult 0
# The sparse-pipeline sweep point: chord-drr/ave on the engine port.
run_sweep chord-overlay chord-drr "$SWEEP_N" "$SWEEP_TRIALS"
# Large-n routed sweep point (flattened hot path trajectory); full
# baseline only -- the CI smoke matrix stays small.
if [ "${SMOKE:-0}" != "1" ]; then
  run_sweep chord-overlay chord-drr 16384 "$SWEEP_TRIALS"
fi

# --- 1b. n-sweep family: single-run scaling rows ----------------------------
# One trial per n, implicit backend forced on the structured substrate, so
# the rows pin the scaling claims themselves: msgs/(n log2 n) and
# rounds/log2 n stay flat as n grows, and peak RSS stays in the implicit
# envelope (a materialised CSR at 16M would add gigabytes).  SMOKE runs
# 65536 only; the full baseline climbs 65536 -> 1M -> 4M -> 16M, skipping
# any n the machine lacks memory for (~350 bytes/node budgeted) or that
# exceeds NSWEEP_MAX.
run_nsweep_point() {
  local ALGO="$1" TOPO_LABEL="$2" N="$3"; shift 3
  python3 - "$CLI" "$ALGO" "$TOPO_LABEL" "$N" "$@" >> "$TMP/rows.json" <<'PY'
import json, math, subprocess, sys, time
cli, algo, topo_label, n = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
args = [cli, "--algo", algo, "--agg", "ave", "--n", str(n), "--seed", "1",
        "--json", "--peak-rss"] + sys.argv[5:]
t0 = time.monotonic()
out = subprocess.run(args, capture_output=True, text=True, check=True).stdout
wall = time.monotonic() - t0
# The CLI's own VmHWM.  Not RUSAGE_CHILDREN: a child started by exec keeps
# the ru_maxrss of the image it replaced, so that would report at least
# this Python interpreter's footprint.
r = json.loads(out)
rss_mib = r["peak_rss_mib"]
logn = math.log2(n)
row = {"bench": "n_sweep", "algo": algo, "topology": topo_label,
       "backend": r.get("backend", "none"), "n": n,
       "wall_s": round(wall, 4), "peak_rss_mib": round(rss_mib, 1),
       "msgs": r["messages"], "rounds": r["rounds"],
       "msgs_per_nlog": round(r["messages"] / (n * logn), 4),
       "rounds_per_log": round(r["rounds"] / logn, 4)}
print(json.dumps(row, separators=(",", ":")))
PY
}

if [ "${SMOKE:-0}" = "1" ]; then
  NSWEEP_SIZES="65536"
else
  NSWEEP_SIZES="65536 1048576 4194304 16777216"
fi
NSWEEP_MAX="${NSWEEP_MAX:-16777216}"
MEM_AVAIL_KIB=$(awk '/MemAvailable/ {print $2}' /proc/meminfo 2>/dev/null || echo 0)
for N in $NSWEEP_SIZES; do
  if [ "$N" -gt "$NSWEEP_MAX" ]; then
    echo "bench_baseline: n_sweep skipping n=$N (NSWEEP_MAX=$NSWEEP_MAX)" >&2
    continue
  fi
  if [ "$MEM_AVAIL_KIB" != 0 ] && [ $((N * 350 / 1024)) -gt "$MEM_AVAIL_KIB" ]; then
    echo "bench_baseline: n_sweep skipping n=$N (MemAvailable too low)" >&2
    continue
  fi
  run_nsweep_point uniform complete "$N"
  run_nsweep_point drr chord-ring "$N" --topology chord-ring --backend implicit
done

# --- 2. bench_table1 pinned matrix (ops counters for the CI goldens) --------
if [ -x "$TABLE1" ]; then
  for TOPO in complete grid; do
    "$TABLE1" --table1_topology="$TOPO" --table1_json="$TMP/t1.json" \
              --benchmark_filter="$T1_FILTER" > /dev/null 2>&1
    sed "s/\"topology\":\"[a-z-]*\"/\"topology\":\"$TOPO\"/" "$TMP/t1.json" >> "$TMP/rows.json"
  done
  # Structured-adversity ops rows: one pinned preset per event family
  # (drr/ave, n = 1024, complete substrate) -- the simulator is
  # deterministic under every preset, so these counters are golden too.
  for SCEN in latency block partition join; do
    "$TABLE1" --table1_scenario="$SCEN" --table1_json="$TMP/t1.json" \
              --benchmark_filter='BM_DrrGossipAve/1024/' > /dev/null 2>&1
    cat "$TMP/t1.json" >> "$TMP/rows.json"
  done
fi

# --- 3. bench_engine micro-benchmarks ---------------------------------------
if [ -x "$ENGINE" ]; then
  "$ENGINE" --benchmark_format=json > "$TMP/engine.json" 2>/dev/null
  python3 - "$TMP/engine.json" >> "$TMP/rows.json" <<'PY'
import json, sys
TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
doc = json.load(open(sys.argv[1]))
for b in doc.get("benchmarks", []):
    name = b.get("name", "")
    row = {
        "bench": "engine_micro",
        "case": name,
        "rounds_per_sec": round(b.get("rounds_per_sec", 0.0), 1),
        "msgs_per_sec": round(b.get("msgs_per_sec", 0.0), 1),
        "allocs_per_run": b.get("allocs_per_run", 0.0),
        # Wall time of one iteration (one run / one build): recorded for
        # the trajectory, never gated.
        "ms_per_run": round(b.get("real_time", 0.0) * TO_MS[b.get("time_unit", "ns")], 4),
    }
    print(json.dumps(row))
PY
fi

# --- 4. join allocs_per_run into the engine_sweep rows ----------------------
# The sweep rows time the CLI (which cannot count its own allocations);
# bench_engine measures allocs_per_run for the same (topology, algo)
# workloads.  Joining the micro counter onto the matching sweep row keys
# the allocation trajectory by the same (topology, algo, n) the wall-clock
# trajectory uses.
python3 - "$TMP/rows.json" > "$TMP/joined.json" <<'PY'
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
CASE_OF = {("complete", "drr"): "BM_EngineDrrComplete",
           ("grid", "drr"): "BM_EngineDrrGrid",
           ("chord-overlay", "chord-drr"): "BM_EngineChordDrr"}
allocs = {r["case"]: r["allocs_per_run"] for r in rows
          if r.get("bench") == "engine_micro"}
for r in rows:
    if r.get("bench") == "engine_sweep":
        case = CASE_OF.get((r.get("topology"), r.get("algo")))
        if case is not None and f"{case}/{r['n']}" in allocs:
            r["allocs_per_run"] = allocs[f"{case}/{r['n']}"]
    print(json.dumps(r, separators=(",", ":")))
PY

mv "$TMP/joined.json" "$OUT"
echo "bench_baseline: wrote $(wc -l < "$OUT") rows to $OUT"
