"""Command-line interface: check, sim, dot, conform, history.

Exit codes: 0 success/valid/conforms, 1 validation or conformance failure,
2 usage or IO error.  Diagnostics go to stderr; artifacts go to stdout or
to the files named by flags.
"""
from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional

from . import jsonl

if TYPE_CHECKING:
    from .behavior import BehaviorAutomaton
    from .model import Model

OK, FAIL, USAGE = 0, 1, 2


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"fmkit: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None


def _load(path: str) -> tuple[Optional[Model], int]:
    from .canon import load_model
    source = _read(path)
    if source is None:
        return None, USAGE
    model, diags = load_model(source, path)
    for d in diags:
        print(d.render(), file=sys.stderr)
    if model is None:
        return None, FAIL
    return model, OK


def cmd_check(args: argparse.Namespace) -> int:
    from .validate import validate as validate_model
    model, status = _load(args.file)
    if model is None:
        return status
    report = validate_model(model)
    for d in report.diagnostics:
        print(d.render(), file=sys.stderr)
    print(jsonl.dumps(report.to_json()))
    return OK if report.ok else FAIL


def _validated_model(path: str) -> tuple[Optional[Model], int]:
    from .validate import validate as validate_model
    model, status = _load(path)
    if model is None:
        return None, status
    report = validate_model(model)
    if not report.ok:
        for d in report.diagnostics:
            print(d.render(), file=sys.stderr)
        return None, FAIL
    return model, OK


def _behavior_automaton(model: Model, name: str) -> tuple[Optional[BehaviorAutomaton], int]:
    """Compile the named behaviour; past the state limit, one diagnostic."""
    from . import behavior as bhv
    from .diagnostics import error
    decl = model.behavior(name)
    if decl is None:
        print(f"fmkit: model declares no behavior '{name}'", file=sys.stderr)
        return None, USAGE
    try:
        return bhv.compile_program(decl.program, {e.name for e in model.events}), OK
    except bhv.BehaviorError as exc:
        print(error(exc.code, f"behavior '{name}': {exc}", decl.span).render(), file=sys.stderr)
        return None, FAIL


def cmd_sim(args: argparse.Namespace) -> int:
    from . import export, simulate
    for flag, value, least in (("--ticks", args.ticks, 0), ("--dwell", args.dwell, 1)):
        if value < least:
            print(f"fmkit: sim {flag} must be >= {least}, got {value}", file=sys.stderr)
            return USAGE
    model, status = _validated_model(args.file)
    if model is None:
        return status
    source = _read(args.scenario)
    if source is None:
        return USAGE
    scenario, diags = simulate.parse_scenario(source, args.scenario)
    diags.extend(simulate.check_scenario(model, scenario))
    if any(d.is_error for d in diags):
        for d in diags:
            print(d.render(), file=sys.stderr)
        return USAGE
    automaton = None
    if args.behavior is not None:
        from . import behavior as bhv
        automaton, status = _behavior_automaton(model, args.behavior)
        if automaton is None:
            return status
    gate = bhv.enforce(model, automaton) if (automaton is not None and args.mode == "enforce") else None
    config = simulate.SimConfig(max_ticks=args.ticks, stage_dwell=args.dwell, gate=gate)
    trace = simulate.run(model, scenario, config)
    if args.trace is not None:
        try:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.writelines(export.trace_lines(trace))
        except OSError as exc:
            print(f"fmkit: cannot write {args.trace}: {exc.strerror}", file=sys.stderr)
            return USAGE
    else:
        sys.stdout.writelines(export.trace_lines(trace))
    if automaton is not None:
        # An enforcing gate has run the automaton over the trace already.
        verdict = gate.verdict() if gate is not None else bhv.check(trace, model.events, automaton)
        print(jsonl.dumps(verdict.to_json()))
        if args.mode == "observe" and not verdict.conforms:
            return FAIL
    return OK


def cmd_dot(args: argparse.Namespace) -> int:
    from . import export
    model, status = _validated_model(args.file)
    if model is None:
        return status
    if args.behavior is not None:
        automaton, status = _behavior_automaton(model, args.behavior)
        if automaton is None:
            return status
        sys.stdout.write(export.behavior_to_dot(automaton))
    else:
        sys.stdout.write(export.model_to_dot(model, show_implicit=args.show_implicit))
    return OK


def cmd_conform(args: argparse.Namespace) -> int:
    from . import behavior as bhv, export
    model, status = _validated_model(args.file)
    if model is None:
        return status
    automaton, status = _behavior_automaton(model, args.behavior)
    if automaton is None:
        return status
    text = _read(args.trace)
    if text is None:
        return USAGE
    try:
        trace = export.read_trace(text)
    except export.TraceParseError as exc:
        print(f"fmkit: {args.trace}: {exc}", file=sys.stderr)
        return USAGE
    verdict = bhv.check(trace, model.events, automaton)
    print(jsonl.dumps(verdict.to_json()))
    return OK if verdict.conforms else FAIL


def cmd_history(args: argparse.Namespace) -> int:
    from . import history
    text = _read(args.log)
    if text is None:
        return USAGE
    try:
        log = history.ReplacementLog.from_lines(text)
    except history.HistoryError as exc:
        print(f"fmkit: {args.log}: {exc}", file=sys.stderr)
        return USAGE
    if args.append is not None:
        try:
            log.append(history.ReplacementRecord.from_json(jsonl.decode(args.append)))
        except (jsonl.JSONLineError, history.HistoryError) as exc:
            print(f"fmkit: append rejected: {exc}", file=sys.stderr)
            return FAIL
        try:
            with open(args.log, "w", encoding="utf-8") as handle:
                handle.write(log.to_lines())
        except OSError as exc:
            print(f"fmkit: cannot write {args.log}: {exc.strerror}", file=sys.stderr)
            return USAGE
        return OK
    if args.slot is None:
        print("fmkit: history needs --slot (with --at or --timeline) or --append", file=sys.stderr)
        return USAGE
    try:
        if args.timeline:
            for record in log.timeline(args.slot):
                print(jsonl.dumps(record.to_json()))
            return OK
        if args.at is None:
            print("fmkit: history --slot needs --at or --timeline", file=sys.stderr)
            return USAGE
        unit = log.installed_at(args.slot, args.at)
        print(unit if unit is not None else "none")
        return OK
    except history.HistoryError as exc:
        print(f"fmkit: {exc}", file=sys.stderr)
        return USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fmkit", description="Flow-machine model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse, canonicalize, and validate a model")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("sim", help="simulate a scenario and write the trace")
    p_sim.add_argument("file")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--ticks", type=int, default=1000)
    p_sim.add_argument("--dwell", type=int, default=1)
    p_sim.add_argument("--trace", default=None, help="trace output file (default stdout)")
    p_sim.add_argument("--behavior", default=None)
    p_sim.add_argument("--mode", choices=("observe", "enforce"), default="observe")
    p_sim.set_defaults(func=cmd_sim)

    p_dot = sub.add_parser("dot", help="emit a DOT diagram of the model or a behavior")
    p_dot.add_argument("file")
    p_dot.add_argument("--behavior", default=None)
    p_dot.add_argument("--show-implicit", action=argparse.BooleanOptionalAction, default=True)
    p_dot.set_defaults(func=cmd_dot)

    p_conform = sub.add_parser("conform", help="check a trace against a behavior program")
    p_conform.add_argument("file")
    p_conform.add_argument("--behavior", required=True)
    p_conform.add_argument("--trace", required=True)
    p_conform.set_defaults(func=cmd_conform)

    p_hist = sub.add_parser("history", help="query or extend a replacement log")
    p_hist.add_argument("log")
    p_hist.add_argument("--slot", default=None)
    p_hist.add_argument("--at", default=None)
    p_hist.add_argument("--timeline", action="store_true")
    p_hist.add_argument("--append", default=None, help="JSON record to append")
    p_hist.set_defaults(func=cmd_history)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
