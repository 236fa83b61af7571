"""One benchmark iteration in a fresh, single-threaded process.

    python3 perfbench/child.py WORKDIR [--setup | --sim-only] [--traced]

WORKDIR holds the generated inputs and ``plan.json``.  The parent times this
process from spawn to exit; the child times each step inside itself and
prints one JSON object on its last stdout line.  CLI steps run the real
``fmkit.cli.main`` with stdout and stderr sent to files in WORKDIR.

``--setup`` stops after set-up: import, reading inputs, load, validate and
the scenario check.  ``--sim-only`` runs just the simulation of a sessions
plan.  ``--traced`` installs the spans of ``tracing.py`` and drives the
simulator from the benchmark's own step/live loop.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def cli_step(workdir: Path, name: str, argv: list[str], steps: dict, exits: dict) -> None:
    from fmkit.cli import main

    with open(workdir / f"{name}.out", "w", encoding="utf-8") as out, open(
        workdir / f"{name}.err", "w", encoding="utf-8"
    ) as err, redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        exits[name] = main(argv)
        steps[name] = time.perf_counter() - start


def load_inputs(workdir: Path, plan: dict):
    """Read, load and validate the plan's model and parse and check its
    scenario, as ``fmkit sim`` does before its first tick."""
    import fmkit.simulate as simulate
    from fmkit.canon import load_model
    from fmkit.validate import validate

    path = str(workdir / plan["model"])
    model, _ = load_model(Path(path).read_text(encoding="utf-8"), path)
    if model is None or not validate(model).ok:
        raise SystemExit(f"{path}: model does not validate")
    scenario = None
    if "scenario" in plan:
        path = str(workdir / plan["scenario"])
        scenario, diags = simulate.parse_scenario(Path(path).read_text(encoding="utf-8"), path)
        if any(d.is_error for d in diags + simulate.check_scenario(model, scenario)):
            raise SystemExit(f"{path}: scenario does not check")
    return model, scenario


def traced_sim(workdir: Path, plan: dict, steps: dict, exits: dict, tracer) -> None:
    """``fmkit sim`` rebuilt from public calls, so the simulator can run as
    a timed subclass and the gate as a proxy; writes the same files."""
    import fmkit.simulate as simulate
    from fmkit import behavior, export

    from tracing import GateProxy, timed_simulation

    start = time.perf_counter()
    model, scenario = load_inputs(workdir, plan)
    program = model.behavior(plan["behavior"]).program if "behavior" in plan else None
    gate = GateProxy(behavior.enforce(model, program), tracer) if program is not None else None
    config = simulate.SimConfig(max_ticks=plan["ticks"], gate=gate)
    sim = timed_simulation(simulate.Simulation, tracer)(model, scenario, config)
    while sim.tick < config.max_ticks and sim.live():
        sim.step()
    if not sim.live():
        event = simulate.TraceEvent(sim.tick, "quiescent", None, None, None, None)
        sim.trace.append(event)
        if gate is not None:
            gate.observe(event)
    tracer.counts["simulate.records"] += len(sim.trace)
    (workdir / "trace.jsonl").write_text(export.write_trace(sim.trace), encoding="utf-8")
    with open(workdir / "sim.out", "w", encoding="utf-8") as out:
        if program is not None:
            verdict = behavior.check(sim.trace, model.events, program)
            print(json.dumps(verdict.to_json(), sort_keys=True, separators=(",", ":")), file=out)
    exits["sim"] = 0
    steps["sim"] = time.perf_counter() - start


def run_sim(workdir: Path, plan: dict, steps: dict, exits: dict, tracer, sim_only: bool) -> None:
    model, scenario = str(workdir / plan["model"]), str(workdir / plan["scenario"])
    if tracer is not None:
        traced_sim(workdir, plan, steps, exits, tracer)
    else:
        argv = ["sim", model, "--scenario", scenario, "--ticks", str(plan["ticks"])]
        argv += ["--trace", str(workdir / "trace.jsonl")]
        if "behavior" in plan:
            argv += ["--behavior", plan["behavior"], "--mode", "enforce"]
        cli_step(workdir, "sim", argv, steps, exits)
    if plan["workload"] == "sessions" and not sim_only:
        argv = ["conform", model, "--behavior", plan["behavior"], "--trace", str(workdir / "tiled.jsonl")]
        cli_step(workdir, "conform", argv, steps, exits)


def run_ledger(workdir: Path, plan: dict, steps: dict, result: dict) -> None:
    from fmkit import history

    text = (workdir / plan["log"]).read_text(encoding="utf-8")
    start = time.perf_counter()
    log = history.ReplacementLog.from_lines(text)
    steps["load"] = time.perf_counter() - start

    answers, latencies = [], []
    for query in plan["queries"]:
        start = time.perf_counter()
        answers.append(log.installed_at(query["slot"], query["at"]))
        latencies.append(time.perf_counter() - start)
    steps["queries"] = sum(latencies)

    start = time.perf_counter()
    timelines = {
        slot: [[r.action, r.unit, r.at] for r in log.timeline(slot)] for slot in plan["timelines"]
    }
    steps["timelines"] = time.perf_counter() - start

    verdicts = []
    start = time.perf_counter()
    for obj in plan["batch"]:
        try:
            log.append(history.ReplacementRecord.from_json(obj))
            verdicts.append("ok")
        except history.AppendError as exc:
            verdicts.append(exc.code)
    steps["batch"] = time.perf_counter() - start

    start = time.perf_counter()
    lines = log.to_lines()
    steps["to_lines"] = time.perf_counter() - start
    (workdir / "ledger_out.fmh").write_text(lines, encoding="utf-8")
    result.update(answers=answers, query_s=latencies, timelines=timelines, verdicts=verdicts)


def run_static(workdir: Path, plan: dict, steps: dict, exits: dict, result: dict, tracer) -> None:
    from fmkit import behavior, export

    model = str(workdir / plan["model"])
    cli_step(workdir, "check", ["check", model], steps, exits)
    if tracer is None:
        # Untraced runs time compile_program with this one wrapper only.
        compile_program = behavior.compile_program

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return compile_program(*args, **kwargs)
            finally:
                steps["compile"] = steps.get("compile", 0.0) + time.perf_counter() - start

        behavior.compile_program = timed
    cli_step(workdir, "dot", ["dot", model], steps, exits)
    cli_step(workdir, "dot_authored", ["dot", model, "--no-show-implicit"], steps, exits)
    cli_step(workdir, "dot_behavior", ["dot", model, "--behavior", plan["behavior"]], steps, exits)
    start = time.perf_counter()
    result["dot_problems"] = {
        name: export.dot_check((workdir / f"{name}.out").read_text(encoding="utf-8"))
        for name in ("dot", "dot_authored", "dot_behavior")
    }
    steps["dot_check"] = time.perf_counter() - start
    if tracer is not None:
        steps["compile"] = tracer.total["behavior.compile"]


def memory_kb() -> dict:
    """Peak resident set and its file-backed part now, from /proc (Linux);
    empty where that is not available."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            fields = dict(line.split(":", 1) for line in status if ":" in line)
        return {key: int(fields[key].split()[0]) for key in ("VmHWM", "RssFile")}
    except (OSError, KeyError, ValueError):
        return {}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--sim-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    workdir = args.workdir
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    workload = plan["workload"]

    start = time.perf_counter()
    import fmkit.cli  # noqa: F401  (the entry point users start)

    import_s = time.perf_counter() - start
    if args.setup:
        if workload == "ledger":
            (workdir / plan["log"]).read_text(encoding="utf-8")
        else:
            load_inputs(workdir, plan)
        return 0

    tracer = None
    if args.traced:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    steps: dict = {}
    exits: dict = {}
    result: dict = {}
    if workload in ("steam", "sessions"):
        run_sim(workdir, plan, steps, exits, tracer, args.sim_only)
    elif workload == "ledger":
        run_ledger(workdir, plan, steps, result)
    else:
        run_static(workdir, plan, steps, exits, result, tracer)
    out = {"steps": steps, "exits": exits, "result": result, "memory_kb": memory_kb()}
    if tracer is not None:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer, import_s)
        out["spans"] = tracer.spans()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
