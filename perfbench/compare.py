"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.txt CHANGE.txt

Each file holds the stdout of any number of ``run.py --trace 0`` runs (the
``perfbench-report`` lines are read; everything else is skipped).  Runs of a
workload are paired in file order.  One row per workload and end-to-end
metric gives each side's median and quartiles, the share of pairs the
change won (ties count for neither) and a verdict:

- better: the change wins at least nine tenths of the pairs and the medians
  differ by more than the base's own quartile spread;
- worse: the change's median is worse than the base's by more than the
  metric's bound;
- unresolved: either side's quartile spread is wider than the bound, unless
  every change run beats every base run;
- unchanged: otherwise.

Bounds come from ``BENCHMARK.json`` and, for the workload-specific metrics,
from ``perfbench/spec.json``.  Exit code 1 when any row is worse.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PREFIX = "perfbench-report "


def load_runs(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(PREFIX):
            report = json.loads(line[len(PREFIX):])
            if report.get("trace") == 0:
                runs.setdefault(report["workload"], []).append(report)
    return runs


def metric_specs() -> dict[str, dict]:
    specs = {m["name"]: m for m in json.loads((HERE / "spec.json").read_text())["end_to_end"]}
    for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]:
        specs[m["name"]] = m
    return specs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict for one workload and metric, and the share of pairs won."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - bm)  # > 0: the change is better
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if all_better and share >= 0.9:
        return "better", share
    if spread > bound:
        return "unresolved", share
    if share >= 0.9 and gain > (b3 - b1):
        return "better", share
    if bm and -gain / abs(bm) > bound:
        return "worse", share
    return "unchanged", share


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    base, change = load_runs(args.base), load_runs(args.change)
    specs = metric_specs()
    worse = 0
    print(f"{'workload':9s} {'metric':26s} {'unit':5s} {'base median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'won':>5s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) | set(change)):
        a, b = base.get(workload, []), change.get(workload, [])
        names = sorted({n for r in a + b for n in r["metrics"]}, key=lambda n: (n not in specs, n))
        for name in names:
            spec = specs.get(name)
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if spec is None or not va or not vb:
                continue
            if name == "error_rate":
                result, share = ("worse" if max(vb) > max(va) else "unchanged"), 0.0
            else:
                result, share = verdict(va, vb, spec["better"], spec["bound"])
            worse += result == "worse"
            cells = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for q1, m, q3 in (quartiles(va), quartiles(vb))]
            print(f"{workload:9s} {name:26s} {spec['unit']:5s} {cells[0]:>36s} {cells[1]:>36s} "
                  f"{share:5.0%} {spec['bound']:6.2f}  {result} (runs {len(va)}/{len(vb)})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
