"""Summarise result files into a stamped baseline.

    python3 perfbench/baseline.py RESULTS... > perfbench/baseline.json

RESULTS are captured stdout of ``run.py --trace 0`` runs.  For each
workload and end-to-end metric the baseline holds the median, quartiles and
run count of the per-run values, stamped with the git commit, Python
version, CPU count and load average of the machine that made them.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from compare import load_runs, quartiles


def main() -> int:
    runs: dict[str, list[dict]] = {}
    for name in sys.argv[1:]:
        for workload, reports in load_runs(Path(name)).items():
            runs.setdefault(workload, []).extend(reports)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    baseline = {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "workloads": {},
    }
    for workload, reports in sorted(runs.items()):
        metrics = {}
        for name in sorted({n for r in reports for n in r["metrics"]}):
            values = [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]
            q1, median, q3 = quartiles(values)
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(values),
                             "unit": reports[0]["metrics"][name]["unit"]}
        baseline["workloads"][workload] = {"seeds": [r["seed"] for r in reports], "metrics": metrics}
    json.dump(baseline, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
