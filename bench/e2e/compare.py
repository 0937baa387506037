#!/usr/bin/env python3
"""Checks and compares drrg_bench result files against BENCHMARK.json.

    python3 bench/e2e/compare.py check RESULTS...
    python3 bench/e2e/compare.py diff A B

A results file holds JSON lines.  Only records with a "workload" key (the
drrg_bench records run.py prints) are read, so run.py's whole stdout can be
appended to a results file as is.

check: every record carries every metric BENCHMARK.json names for its mode
(end_to_end untraced, per_layer traced), in the named unit.  Exits 1 on
the first file with a gap.

diff: one row per workload x end-to-end metric, over the untraced
records.  Each side gets its median over invocations and its spread (the
interquartile range over the median); "change" is B against A, positive
when B is worse.  Verdicts:
  worse       B is worse than A by more than the metric's bound
  unresolved  a side's spread exceeds the bound, so the bound cannot be
              judged -- unless every B run beats every A run (better)
  better      B is better than A by more than the bound
  agree       otherwise
Exits 1 when any row is "worse".
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text())


def records(path):
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            rec = json.loads(line)
            if "workload" in rec:
                out.append(rec)
    return out


def check(paths):
    ok = True
    for path in paths:
        recs = records(path)
        if not recs:
            print(f"{path}: no drrg_bench records")
            ok = False
        for rec in recs:
            wanted = SPEC["per_layer"] if rec["trace"] else SPEC["end_to_end"]
            for m in wanted:
                got = rec["metrics"].get(m["name"])
                if got is None:
                    print(f"{path}: {rec['workload']} seed {rec['seed']}: missing {m['name']}")
                    ok = False
                elif got["unit"] != m["unit"]:
                    print(f"{path}: {rec['workload']} seed {rec['seed']}: {m['name']} "
                          f"in {got['unit']}, BENCHMARK.json says {m['unit']}")
                    ok = False
        seen = {r["workload"] for r in recs}
        absent = [w["name"] for w in SPEC["workloads"] if w["name"] not in seen]
        print(f"{path}: {len(recs)} records" +
              (f"; no records for {', '.join(absent)}" if absent else ""))
    return 0 if ok else 1


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_workload(path):
    out = defaultdict(lambda: defaultdict(list))
    for rec in records(path):
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            out[rec["workload"]][name].append(m["value"])
    return out


def diff(path_a, path_b):
    a, b = by_workload(path_a), by_workload(path_b)
    header = ("workload", "metric", "nA", "median A", "spread A", "nB", "median B",
              "spread B", "change", "bound", "verdict")
    rows = []
    worse = False
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            va, vb = a[w["name"]][m["name"]], b[w["name"]][m["name"]]
            if not va or not vb:
                rows.append((w["name"], m["name"], len(va), "-", "-", len(vb), "-", "-",
                             "-", f"{m['bound']:.0%}", "missing"))
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mb - ma) / ma
            sa, sb = spread(va), spread(vb)
            b_wins = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
            if max(sa, sb) > m["bound"]:
                verdict = "better" if b_wins else "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            elif change < -m["bound"]:
                verdict = "better"
            else:
                verdict = "agree"
            worse |= verdict == "worse"
            rows.append((w["name"], m["name"], len(va), f"{ma:.6g}", f"{sa:.2%}", len(vb),
                         f"{mb:.6g}", f"{sb:.2%}", f"{change:+.2%}", f"{m['bound']:.0%}",
                         verdict))
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    for r in [header, *rows]:
        print("  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)).rstrip())
    return 1 if worse else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "check":
        return check(argv[1:])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
