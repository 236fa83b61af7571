"""Host-speed calibration: a fixed pure-Python workload that uses no fmkit code.

    python3 perfbench/calibrate.py        # median pass time over ten seconds

The shared host this benchmark was built on changes speed by itself, by up
to 1.7x over a few minutes, with CPU time moving with wall time.  ``run.py``
times a few passes of ``work`` before and after every child process; the
child's ``speed`` is ``REFERENCE_S`` over the median of those passes, and
its times are host seconds times that speed: seconds at the reference
speed.  fmkit changes leave the pass time alone, so they move the scaled
figures as much as the raw ones.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

# Median pass time of ``work`` on the reference host (2 vCPUs under KVM,
# Python 3.11.7).  Only the scale of the time metrics depends on it.
REFERENCE_S = 0.034


class _Node:
    __slots__ = ("name", "stage", "attrs")

    def __init__(self, name: str, stage: int, attrs: dict) -> None:
        self.name = name
        self.stage = stage
        self.attrs = attrs


def work() -> int:
    """Object churn, attribute and dict access, string formatting, sorting
    and JSON encoding, about in the mix of fmkit's simulator and front end."""
    nodes = [_Node(f"thing{i}", i % 7, {"n": i, "grade": "a"}) for i in range(2000)]
    by_stage: dict[int, list[_Node]] = {}
    total = 0
    for _ in range(14):
        for node in nodes:
            node.stage = (node.stage * 5 + node.attrs["n"]) % 11
            by_stage.setdefault(node.stage, []).append(node)
            total += len(node.name)
        for stage in sorted(by_stage):
            group = by_stage[stage]
            group.sort(key=lambda node: (node.attrs["n"] % 13, node.name))
            total += len(json.dumps([{"thing": n.name, "at": n.stage} for n in group[:40]]))
        by_stage.clear()
    return total


def sample() -> float:
    """Host seconds of one pass of ``work``."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def speed(passes: list[float]) -> float:
    """Reference over host speed: multiply host seconds by it."""
    return REFERENCE_S / statistics.median(passes)


if __name__ == "__main__":
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    deadline = time.perf_counter() + seconds
    passes = []
    while time.perf_counter() < deadline:
        passes.append(sample())
    q1, q2, q3 = statistics.quantiles(passes, n=4)
    print(f"{len(passes)} passes: median {q2:.5f} s, quartiles {q1:.5f} .. {q3:.5f} s")
