"""Compare two result sets written by ``run.py --record``.

For every workload and metric, prints each side's median, quartiles and run
count.  An end-to-end metric is judged against its bound in BENCHMARK.json:
it is "unresolved" when either side's run-to-run spread (interquartile range
over median) exceeds the bound, unless every run of one side beats every run
of the other; otherwise it is "worse beyond bound" when the change's median
is worse than the parent's by more than the bound, and "within bound" when
not.
Per-layer metrics have no bound and are listed with their change only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, trace): {metric: [values]}} from a JSON-lines record file."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                key = (record["workload"], record["trace"])
                for name, metric in record["result"]["metrics"].items():
                    runs[key][name].append(metric["value"])
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    beyond = "worse beyond bound" if worse_by > bound else "within bound"
    if all(sign * c < sign * p for c in change for p in parent):
        return "better in every run"
    if all(sign * c > sign * p for c in change for p in parent):
        return f"worse in every run, {beyond}"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    return beyond


def main(parent_path, change_path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':12s} {'metric':44s} {'parent median [q1, q3] n':>34s}  "
          f"{'change median [q1, q3] n':>34s}  {'change':>8s}  verdict")
    for key in sorted(set(parent) | set(change)):
        for name in sorted(set(parent[key]) | set(change[key])):
            p, c = parent[key].get(name, []), change[key].get(name, [])
            cells = []
            for values in (p, c):
                if values:
                    q1, med, q3 = quartiles(values)
                    cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {len(values)}")
                else:
                    cells.append("-")
            delta = (f"{(statistics.median(c) / statistics.median(p) - 1) * 100:+.1f}%"
                     if p and c and statistics.median(p) else "")
            if not (p and c):
                judged = "missing on one side"
            elif name in bounds:
                judged = verdict(p, c, bounds[name]["bound"], bounds[name]["better"])
            else:
                judged = f"per-layer ({better.get(name, '?')} is better)"
            print(f"{key[0]:12s} {name:44s} {cells[0]:>34s}  {cells[1]:>34s}  {delta:>8s}  {judged}")
    for side, runs in (("parent", parent), ("change", change)):
        for workload in sorted({w for w, _ in runs}):
            plain, traced = runs.get((workload, 0), {}), runs.get((workload, 1), {})
            if plain.get("fit_s") and traced.get("trace.fit_s"):
                base = statistics.median(plain["fit_s"])
                over = statistics.median(traced["trace.fit_s"]) - base
                print(f"tracing overhead ({side}, {workload}): traced minus untraced fit_s "
                      f"median {over:+.4f} s ({over / base * 100:+.2f}%)")
    return 0
