#!/usr/bin/env python3
"""Engine behavior golden check.

Compares a freshly generated BENCH_engine.json against the committed
goldens (tests/golden/bench_table1_ops.json) on two axes:

  * table1 rows: the simulator is deterministic, so the per-(algo, n,
    topology) ops counters -- rounds and messages -- must match
    *exactly*; any drift means an engine or protocol change altered
    simulated behavior, which a perf PR must not do.
  * engine_sweep rows: the full-report CSV sha256 per (topology, algo,
    n, trials) must match, and the threads-1-vs-threads-4 determinism
    bit must stay true.  This is the byte-identity pin for the whole
    dense + sparse pipeline output, guarding e.g. transport refactors.
  * engine_micro allocs_per_run, for the routed cases (BM_EngineChordDrr,
    BM_EngineDrrSparseGrid) and their twins at the paper's fault setting
    (BM_EngineChordDrrFaulty, BM_EngineDrrSparseGridFaulty), the dense
    pipeline at that setting (BM_EngineDrrFaulty) and the per-seed Chord
    substrate build (BM_ChordSubstrateBuild): the flattened routed hot
    path, the flat lockstep executors and the flat overlay + link-graph
    builders hold heap traffic O(1) in n, so a fresh count more than 10%
    above the golden is a hard failure, as is regained O(n) growth (the
    n=16384 count exceeding twice the n=1024 count).
  * n_sweep rows (single-run scaling family): per (algo, topology, n),
    msgs/(n log2 n) must stay within 20% of the golden ratio -- that
    ratio *is* the paper's O(n log n) message claim, so a drift past
    tolerance means the message complexity moved -- and peak RSS must
    stay under 1.25x the golden footprint, which is what catches an
    accidental O(n log n) adjacency materialisation at scale.  Rows
    for sizes the fresh run skipped (SMOKE, low memory) are ignored.

Wall-clock fields are ignored (they are the point of the file, not a
contract); throughput counters likewise -- only allocation counts are
deterministic enough to gate.

Usage: tools/check_bench_goldens.py BENCH_engine.json tests/golden/bench_table1_ops.json
Exit 0 on match, 1 on drift or missing rows.
"""

import json
import sys


# Micro cases whose allocation count is a gated contract: the routed hot
# path (chord-drr on the overlay, drr through the sparse grid pipeline),
# fault-free and under loss + crashes, the dense pipeline under loss +
# crashes (every phase on the flat executors) and the per-seed Chord
# substrate build (overlay + link graph).  The per-case gate matches by
# prefix; the O(n)-growth check looks each name up exactly.
ALLOC_GATED_CASES = ("BM_EngineChordDrr", "BM_EngineDrrSparseGrid",
                     "BM_EngineChordDrrFaulty", "BM_EngineDrrSparseGridFaulty",
                     "BM_EngineDrrFaulty", "BM_ChordSubstrateBuild")


def golden_rows(path):
    table1, sweeps, micro_allocs, nsweep = {}, {}, {}, {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("bench") == "table1":
                key = (row["algo"], row["n"], row.get("topology", "complete"),
                       row.get("churn", ""), row.get("scenario", ""))
                table1[key] = (row["rounds"], row["msgs"])
            elif row.get("bench") == "engine_sweep":
                key = (row.get("topology", "complete"), row["algo"],
                       row["n"], row["trials"])
                sweeps[key] = (row["sha256"], row.get("deterministic", False))
            elif row.get("bench") == "engine_micro":
                micro_allocs[row["case"]] = row.get("allocs_per_run")
            elif row.get("bench") == "n_sweep":
                key = (row["algo"], row.get("topology", "complete"), row["n"])
                nsweep[key] = (row["msgs_per_nlog"], row.get("peak_rss_mib"))
    return table1, sweeps, micro_allocs, nsweep


def check_nsweep(fresh, golden):
    """Scaling-family gates; returns (failure count, rows checked)."""
    failures = 0
    checked = 0
    for key, (want_ratio, want_rss) in sorted(golden.items()):
        got = fresh.get(key)
        if got is None:
            continue  # skipped size (SMOKE matrix / low-memory machine)
        checked += 1
        got_ratio, got_rss = got
        if want_ratio > 0 and abs(got_ratio - want_ratio) > 0.20 * want_ratio:
            print(f"NSWEEP-MSG-DRIFT {key}: msgs/(n log n) "
                  f"{want_ratio} -> {got_ratio} (>20% drift)")
            failures += 1
        if (want_rss is not None and got_rss is not None and want_rss > 0
                and got_rss > want_rss * 1.25):
            print(f"NSWEEP-RSS-REGRESSION {key}: peak_rss_mib "
                  f"{want_rss} -> {got_rss} (>1.25x golden)")
            failures += 1
    return failures, checked


def check_allocs(fresh, golden):
    """allocs_per_run gate; returns (failure count, cases checked)."""
    failures = 0
    checked = 0
    for case, want in sorted(golden.items()):
        if not case.startswith(ALLOC_GATED_CASES) or want is None:
            continue
        got = fresh.get(case)
        if got is None:
            continue
        checked += 1
        # 10% relative headroom plus a small absolute floor so tiny counts
        # (a few hundred) don't flake on a single incidental allocation.
        if got > want * 1.10 + 8:
            print(f"ALLOC-DRIFT {case}: allocs_per_run {want} -> {got} "
                  "(>10% regression)")
            failures += 1
    for prefix in ALLOC_GATED_CASES:
        small = fresh.get(f"{prefix}/1024")
        big = fresh.get(f"{prefix}/16384")
        if small is not None and big is not None and big > 2 * small + 128:
            print(f"ALLOC-GROWTH {prefix}: allocs_per_run grows with n "
                  f"(1024: {small}, 16384: {big}) -- O(1) contract broken")
            failures += 1
    return failures, checked


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_t1, fresh_sw, fresh_al, fresh_ns = golden_rows(sys.argv[1])
    golden_t1, golden_sw, golden_al, golden_ns = golden_rows(sys.argv[2])
    if not golden_t1:
        print(f"check_bench_goldens: no table1 rows in golden {sys.argv[2]}",
              file=sys.stderr)
        return 1
    failures = 0
    for key, want in sorted(golden_t1.items()):
        got = fresh_t1.get(key)
        if got is None:
            print(f"MISSING  {key}: golden rounds={want[0]} msgs={want[1]}, "
                  "no fresh row")
            failures += 1
        elif got != want:
            print(f"DRIFT    {key}: rounds {want[0]} -> {got[0]}, "
                  f"msgs {want[1]} -> {got[1]}")
            failures += 1
    # Sweep hashes: only keys present in both are comparable (the full
    # baseline and the SMOKE matrix run different n/trials), but every
    # golden sweep key the fresh run *does* cover must hash identically.
    sweeps_checked = 0
    for key, (want_sha, _) in sorted(golden_sw.items()):
        got = fresh_sw.get(key)
        if got is None:
            continue
        sweeps_checked += 1
        got_sha, got_det = got
        if got_sha != want_sha:
            print(f"SWEEP-DRIFT {key}: sha256 {want_sha[:12]}... -> "
                  f"{got_sha[:12]}...")
            failures += 1
        if not got_det:
            print(f"NONDETERMINISTIC {key}: threads-1 vs threads-4 reports "
                  "differ")
            failures += 1
    if golden_sw and not sweeps_checked:
        print("check_bench_goldens: no fresh engine_sweep row matches any "
              "golden sweep key", file=sys.stderr)
        failures += 1
    alloc_failures, allocs_checked = check_allocs(fresh_al, golden_al)
    failures += alloc_failures
    nsweep_failures, nsweep_checked = check_nsweep(fresh_ns, golden_ns)
    failures += nsweep_failures
    if golden_ns and not nsweep_checked:
        print("check_bench_goldens: no fresh n_sweep row matches any golden "
              "n_sweep key", file=sys.stderr)
        failures += 1
    checked = len(golden_t1)
    if failures:
        print(f"check_bench_goldens: {failures} failures "
              f"({checked} ops rows, {sweeps_checked} sweep hashes, "
              f"{allocs_checked} alloc gates, {nsweep_checked} n-sweep rows "
              "checked)")
        return 1
    print(f"check_bench_goldens: all {checked} ops rows, "
          f"{sweeps_checked} sweep hashes, {allocs_checked} alloc gates "
          f"and {nsweep_checked} n-sweep rows match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
