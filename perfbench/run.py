"""fmkit benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload steam --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It generates the workload's inputs
from the seed and fixes the reference answers outside the timed region.
Then, until ``--seconds`` have passed, it alternates whole iterations and
set-up-only runs, each a fresh single-threaded child process, and checks
every output.  Each child is timed between two passes of the calibration
workload of ``calibrate.py``, and its times are scaled by the host speed
those passes give, so they read in seconds at the reference speed.
Figures are medians over the run.

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  Before the
last line it prints a table and one ``perfbench-report`` JSON line that
``compare.py`` reads; the last line is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from reference import reference  # noqa: E402
from workloads import WORKLOADS, generate, tile_trace  # noqa: E402

MIN_ITERATIONS = 3
CALIBRATION_PASSES = 3  # before and after every child
CHILD_TIMEOUT_S = 60
WORK = ".perfbench_work"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# Child processes --------------------------------------------------------------


class Child:
    """One finished child process: wall time, peak RSS and parsed output."""

    def __init__(self, root: Path, workdir: Path, flags: list[str]) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        with open(workdir / "child.err", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(workdir), *flags],
                stdout=subprocess.PIPE, stderr=err, env=env, cwd=root,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.out = None
        lines = out.decode("utf-8", "replace").strip().splitlines()
        if self.code == 0 and lines:
            try:
                self.out = json.loads(lines[-1])
            except json.JSONDecodeError:
                self.out = None

    @property
    def ok(self) -> bool:
        return self.out is not None

    def peak_mb(self) -> float:
        """Peak RSS less the file-backed pages (shared libraries and the
        interpreter), whose resident share follows the host's page cache
        rather than the program.  Falls back to the whole peak RSS."""
        mem = self.out.get("memory_kb", {})
        if "VmHWM" in mem and "RssFile" in mem:
            return (mem["VmHWM"] - mem["RssFile"]) / 1024.0
        return self.rss_mb


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Checking one iteration ----------------------------------------------------------


def ops_per_iteration(plan: dict) -> int:
    return {
        "steam": 1,
        "sessions": 2,
        "ledger": 2 + len(plan.get("queries", ())) + len(plan.get("timelines", ())) + len(plan.get("batch", ())),
        "static": 4,
    }[plan["workload"]]


def verdict_of(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8").strip().splitlines()[-1])
    except (OSError, IndexError, json.JSONDecodeError):
        return None


def conforms_with(path: Path, occurrences: int) -> bool:
    verdict = verdict_of(path)
    return bool(verdict and verdict.get("conforms") is True and len(verdict.get("occurrences", ())) == occurrences)


def check_iteration(child: Child, workdir: Path, plan: dict, ref: dict, sim_only: bool = False) -> int:
    """Number of operations of this iteration whose output, exit code or
    verdict differs from the reference."""
    total = ops_per_iteration(plan)
    if not child.ok:
        return total
    out, exits = child.out, child.out["exits"]
    workload = plan["workload"]
    bad = 0
    if workload in ("steam", "sessions"):
        if exits.get("sim") != 0 or sha256_file(workdir / "trace.jsonl") != ref["sha256"]:
            bad += 1
        elif workload == "sessions" and not conforms_with(workdir / "sim.out", plan["occurrences"]):
            bad += 1
        if workload == "sessions" and not sim_only:
            if exits.get("conform") != 0 or not conforms_with(
                workdir / "conform.out", plan["occurrences"] * plan["tiles"]
            ):
                bad += 1
    elif workload == "ledger":
        result = out["result"]
        bad += sum(1 for q, a in zip(plan["queries"], result["answers"]) if q["expect"] != a)
        bad += sum(1 for slot, tl in plan["timelines"].items() if result["timelines"].get(slot) != tl)
        bad += sum(1 for want, got in zip(plan["verdicts"], result["verdicts"]) if want != got)
        bad += 0 if sha256_file(workdir / "ledger_out.fmh") == plan["final_lines_sha"] else 1
    else:
        report = verdict_of(workdir / "check.out") or {}
        stats = report.get("stats", {})
        if exits.get("check") != 0 or not report.get("ok") or stats.get("n_flows") != plan["flows"] or stats.get(
            "n_triggers"
        ) != plan["triggers"]:
            bad += 1
        problems = out["result"]["dot_problems"]
        for name in ("dot", "dot_authored"):
            bad += 0 if exits.get(name) == 0 and not problems[name] else 1
        states = (workdir / "dot_behavior.out").read_text(encoding="utf-8").count("[shape=")
        if exits.get("dot_behavior") != 0 or problems["dot_behavior"] or states != plan["states"]:
            bad += 1
    return bad


# Metrics ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile (p99.9, else a whole percentile above p50)
    with at least ten samples beyond it, as (percentile, value); None when
    there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, *range(99, 50, -1)):
        k = math.ceil(p / 100 * n)
        if k >= 1 and n - k >= 10:
            return p, ordered[k - 1]
    return None


def summary(values: list[float], unit: str) -> dict:
    entry = {"value": statistics.median(values), "unit": unit, "n": len(values), "tail": None}
    t = tail(values)
    if t is not None:
        entry["tail"] = [t[0], t[1]]
    return entry


def iteration_metrics(child: Child, plan: dict, scale: float) -> dict:
    """Per-iteration end-to-end figures named by the spec, by metric, with
    host seconds multiplied by ``scale``."""
    steps = {name: seconds * scale for name, seconds in child.out["steps"].items()}
    m = {"wall_s": child.wall_s * scale, "peak_rss_mb": child.peak_mb()}
    workload = plan["workload"]
    if workload in ("steam", "sessions"):
        m["sim_events_per_s"] = plan["records"] / steps["sim"]
    if workload == "sessions":
        m["conform_records_per_s"] = plan["tiled_records"] / steps["conform"]
    if workload == "ledger":
        m["ledger_load_records_per_s"] = plan["records"] / steps["load"]
    if workload == "static":
        m["check_lines_per_s"] = plan["lines"] / steps["check"]
        m["dot_s"] = steps["dot"] + steps["dot_authored"] + steps["dot_behavior"]
        m["behavior_compile_s"] = steps["compile"]
    return m


# The run ----------------------------------------------------------------------


def prepare(root: Path, workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Generate inputs and references; warm up once.  Nothing here is timed."""
    plan = generate(workload, seed, root / "corpus", workdir)
    plan["workload"] = workload
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    ref: dict = {}
    if workload in ("steam", "sessions"):
        ref, source = reference(root, workdir, plan, root / WORK / "cache")
        print(f"reference digest from {source}: {ref['records']} records", flush=True)
        plan["records"] = ref["records"]
        warm = Child(root, workdir, ["--sim-only"])
        if check_iteration(warm, workdir, plan, ref, sim_only=True):
            fail(f"{workload} seed {seed}: the simulator's trace differs from the oracle's")
        if workload == "sessions":
            tiled = tile_trace((workdir / "trace.jsonl").read_text(encoding="utf-8"), plan["tiles"])
            (workdir / "tiled.jsonl").write_text(tiled, encoding="utf-8")
            plan["tiled_records"] = tiled.count("\n")
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    if workload != "steam":  # steam's whole iteration ran above
        Child(root, workdir, [])  # warm-up: bytecode caches, page cache
    return plan, ref


class Calibrated:
    """Children timed between brackets of calibration passes.  The host
    changes speed by itself; a child's scale is the reference pass time
    over the median of the passes just before and just after it."""

    def __init__(self) -> None:
        self.brackets = [self.bracket()]

    @staticmethod
    def bracket() -> list[float]:
        return [calibrate.sample() for _ in range(CALIBRATION_PASSES)]

    def run(self, root: Path, workdir: Path, flags: list[str]) -> tuple[Child, float]:
        child = Child(root, workdir, flags)
        self.brackets.append(self.bracket())
        return child, calibrate.speed(self.brackets[-2] + self.brackets[-1])

    def host_speed(self) -> list[float]:
        return [calibrate.REFERENCE_S / p for bracket in self.brackets for p in bracket]


def measure(root: Path, workdir: Path, plan: dict, ref: dict, seconds: float, units: dict) -> dict:
    """Iterations until ``seconds`` have passed, each followed by one
    set-up-only child, so both sample the host over the same interval."""
    attempted = failed = 0
    setup: list[float] = []
    host: dict[str, list[float]] = {"wall_host_s": [], "setup_host_s": []}
    per_metric: dict[str, list[float]] = {}
    queries: list[float] = []
    timer = Calibrated()
    deadline = time.perf_counter() + seconds
    iterations = 0
    while iterations < MIN_ITERATIONS or time.perf_counter() < deadline:
        child, scale = timer.run(root, workdir, [])
        iterations += 1
        attempted += ops_per_iteration(plan)
        failed += check_iteration(child, workdir, plan, ref)
        if child.ok:
            for name, value in iteration_metrics(child, plan, scale).items():
                per_metric.setdefault(name, []).append(value)
            queries.extend(q * scale for q in child.out["result"].get("query_s", ()))
            host["wall_host_s"].append(child.wall_s)
        probe, scale = timer.run(root, workdir, ["--setup"])
        attempted += 1
        failed += probe.code != 0
        setup.append(probe.wall_s * scale)
        host["setup_host_s"].append(probe.wall_s)

    metrics = {"setup_s": summary(setup, "s")}
    for name, values in per_metric.items():
        metrics[name] = summary(values, units[name])
    if queries:
        ms = [q * 1e3 for q in queries]
        metrics["ledger_query_p50_ms"] = summary(ms, "ms")
        p99 = sorted(ms)[min(len(ms) - 1, math.ceil(0.99 * len(ms)) - 1)]
        metrics["ledger_query_p99_ms"] = {"value": p99, "unit": "ms", "n": len(ms), "tail": None}
    metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio", "n": attempted, "tail": None}
    for name, values in host.items():
        if values:
            metrics[name] = summary(values, "s")
    metrics["host_speed"] = summary(timer.host_speed(), "ratio")
    return {"attempted": attempted, "failed": failed, "iterations": iterations, "metrics": metrics}


def measure_traced(root: Path, workdir: Path, plan: dict, ref: dict, seconds: float) -> dict:
    """Alternate untraced and traced children; per-layer figures are the
    medians over the traced ones, overhead the difference of wall medians.
    Times are scaled to the reference speed as in ``measure``.  A traced
    simulation must write the same trace as an untraced one."""
    attempted = failed = 0
    walls: dict[bool, list[float]] = {False: [], True: []}
    digests: dict[bool, set[str]] = {False: set(), True: set()}
    layers: dict[str, list[float]] = {}
    spans = None
    timer = Calibrated()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline or (rounds < MIN_ITERATIONS and min(map(len, walls.values())) < 2):
        rounds += 1
        for traced in (False, True):
            child, scale = timer.run(root, workdir, ["--traced"] if traced else [])
            attempted += ops_per_iteration(plan)
            failed += check_iteration(child, workdir, plan, ref)
            if not child.ok:
                continue
            walls[traced].append(child.wall_s * scale)
            if plan["workload"] in ("steam", "sessions"):
                digests[traced].add(sha256_file(workdir / "trace.jsonl"))
            if traced:
                for name, value in child.out["layers"].items():
                    is_time = name.endswith(("_s", "_us"))
                    layers.setdefault(name, []).append(value * scale if is_time else value)
                spans = child.out["spans"]
    if digests[True] != digests[False]:
        fail("the traced run's trace differs from the untraced run's")
    metrics = {name: statistics.median(values) for name, values in layers.items()}
    wall = {traced: statistics.median(w) for traced, w in walls.items() if w}
    if len(wall) == 2:
        metrics["trace.overhead_s"] = wall[True] - wall[False]
    return {"attempted": attempted, "failed": failed, "iterations": len(walls[True]), "layers": metrics,
            "spans": spans, "wall_untraced_s": wall.get(False), "wall_traced_s": wall.get(True),
            "trace_sha256": sorted(digests[True])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("src/fmkit/cli.py", "corpus/plant.fm", "corpus/tvm.fm", "tests/oracle.py"):
        if not (root / needed).is_file():
            fail(f"run from the root of an fmkit checkout: {needed} is missing")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + catalogue["end_to_end"]}

    workdir = root / WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan, ref = prepare(root, args.workload, args.seed, workdir)
        if args.trace:
            run = measure_traced(root, workdir, plan, ref, args.seconds)
        else:
            run = measure(root, workdir, plan, ref, args.seconds, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": run["attempted"], "failed": run["failed"], "iterations": run["iterations"]}
    if args.trace:
        for key in ("layers", "spans", "wall_untraced_s", "wall_traced_s", "trace_sha256"):
            report[key] = run[key]
        # A layer the workload does not use reports 0.
        metrics = {m["name"]: {"value": run["layers"].get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
        for name, entry in metrics.items():
            print(f"{name:32s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"tracing overhead: median traced wall {run['wall_traced_s']:.4f} s, untraced "
              f"{run['wall_untraced_s']:.4f} s, over {run['iterations']} traced iterations")
        if run["trace_sha256"]:
            print(f"traced and untraced traces both hash to {run['trace_sha256'][0]}")
    else:
        report["metrics"] = run["metrics"]
        for name, entry in run["metrics"].items():
            t = f"p{entry['tail'][0]:g} {entry['tail'][1]:.6g}" if entry["tail"] else "tail n/a"
            print(f"{name:28s} {entry['value']:>14.6g} {entry['unit']:6s} median  {t:22s} n={entry['n']}")
        metrics = {
            m["name"]: {"value": run["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
