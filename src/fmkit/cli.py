"""Command-line interface: check, sim, dot, conform, history.

Exit codes: 0 success/valid/conforms, 1 validation or conformance failure,
2 usage or IO error (a reader closing stdout early among them).  Diagnostics
go to stderr; artifacts go to stdout or to the files named by flags.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Optional

from . import jsonl

if TYPE_CHECKING:
    from .behavior import BehaviorAutomaton, Run, Verdict
    from .diagnostics import Diagnostic
    from .model import Model
    from .simulate import TraceEvent

OK, FAIL, USAGE = 0, 1, 2


def _fail(message: str, code: int = USAGE) -> NoReturn:
    """Print one ``fmkit:`` line and leave with ``code``."""
    print(f"fmkit: {message}", file=sys.stderr)
    raise SystemExit(code)


def _cannot_read(path: str, exc: OSError | UnicodeDecodeError) -> NoReturn:
    reason = "not valid UTF-8" if isinstance(exc, UnicodeDecodeError) else exc.strerror
    _fail(f"cannot read {path}: {reason}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        _cannot_read(path, exc)


def _write(path: str, lines: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror}")


def _replace(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``'s target and move it over
    that, so a failed write leaves the old file whole; if none can be made, in place."""
    import tempfile
    real = os.path.realpath(path)
    try:
        fd, new = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".fmkit-")
    except OSError:
        return _write(path, [text])
    os.close(fd)
    try:
        with open(new, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(new, os.stat(real).st_mode & 0o7777)
        os.replace(new, real)
    except OSError as exc:
        os.unlink(new)
        _fail(f"cannot write {path}: {exc.strerror}")


def _report(diags: Iterable[Diagnostic]) -> None:
    for d in diags:
        print(d.render(), file=sys.stderr)


def _load(path: str) -> Model:
    from .canon import load_model
    model, diags = load_model(_read(path), path)
    _report(diags)
    if model is None:
        raise SystemExit(FAIL)
    return model


def cmd_check(args: argparse.Namespace) -> int:
    from .validate import validate as validate_model
    report = validate_model(_load(args.file))
    _report(report.diagnostics)
    print(jsonl.dumps(report.to_json()))
    return OK if report.ok else FAIL


def _validated_model(path: str) -> Model:
    from .validate import validate as validate_model
    model = _load(path)
    report = validate_model(model, warnings_if_ok=False)  # printed only if not ok
    if not report.ok:
        _report(report.diagnostics)
        raise SystemExit(FAIL)
    return model


def _behavior_automaton(model: Model, name: str) -> BehaviorAutomaton:
    """Compile the named behaviour; past the state limit, one diagnostic."""
    from . import behavior as bhv
    from .diagnostics import error
    decl = model.behavior(name)
    if decl is None:
        _fail(f"model declares no behavior '{name}'")
    try:
        return bhv.compile_program(decl.program, {e.name for e in model.events})
    except bhv.BehaviorError as exc:
        print(error(exc.code, f"behavior '{name}': {exc}", decl.span).render(), file=sys.stderr)
        raise SystemExit(FAIL)


# Occurrences per write of a verdict: few enough that a long verdict's dicts
# and text never exist all at once, many enough that an unbuffered stdout
# (python -u) is not one system call per occurrence.
_VERDICT_CHUNK = 256


def _print_verdict(verdict: Verdict) -> None:
    """Print ``jsonl.dumps(verdict.to_json())`` and a newline, writing the
    occurrences a chunk at a time, each from one template with its keys in
    sorted order and its event name encoded once."""
    head = jsonl.dumps(verdict._replace(occurrences=()).to_json())  # sorted: ends '"occurrences":[]}'
    write = sys.stdout.write
    write(head[:-2])
    quoted = jsonl.Quoted()
    occurrences = verdict.occurrences
    for start in range(0, len(occurrences), _VERDICT_CHUNK):
        text = ",".join(
            f'{{"end":{end},"event":{quoted[event]},"start":{begin},"thing":{thing}}}'
            for event, begin, end, thing in occurrences[start:start + _VERDICT_CHUNK]
        )
        write("," + text if start else text)
    write("]}\n")


def _observed(records: Iterator[TraceEvent], run: Run) -> Iterator[TraceEvent]:
    """Pass each record on after the run has observed it."""
    for record in records:
        run.observe(record)
        yield record


def cmd_sim(args: argparse.Namespace) -> int:
    from . import export, simulate
    for flag, value, least in (("--ticks", args.ticks, 0), ("--dwell", args.dwell, 1)):
        if value < least:
            _fail(f"sim {flag} must be >= {least}, got {value}")
    if args.mode == "enforce" and args.behavior is None:
        _fail("sim --mode enforce needs --behavior")
    model = _validated_model(args.file)
    scenario, diags = simulate.parse_scenario(_read(args.scenario), args.scenario)
    diags.extend(simulate.check_scenario(model, scenario))
    if any(d.is_error for d in diags):
        _report(diags)
        raise SystemExit(USAGE)
    gate = run = None
    if args.behavior is not None:
        from . import behavior as bhv
        run = bhv.enforce(model, _behavior_automaton(model, args.behavior))
        if args.mode == "enforce":
            gate = run
    config = simulate.SimConfig(max_ticks=args.ticks, stage_dwell=args.dwell, gate=gate)
    records = simulate.stream(model, scenario, config)
    if run is not None and gate is None:
        # Observe: the run sees each record on its way out and is never
        # asked to permit; its verdict is `check` of the trace written.
        records = _observed(records, run)
    lines = export.trace_lines(records)
    if args.trace is not None:
        _write(args.trace, lines)
    else:
        sys.stdout.writelines(lines)
    if run is not None:
        verdict = run.verdict()
        _print_verdict(verdict)
        if args.mode == "observe" and not verdict.conforms:
            return FAIL
    return OK


def cmd_dot(args: argparse.Namespace) -> int:
    from . import export
    model = _validated_model(args.file)
    if args.behavior is not None:
        text = export.behavior_to_dot(_behavior_automaton(model, args.behavior))
    else:
        text = export.model_to_dot(model, show_implicit=args.show_implicit)
    # In pieces: unbuffered (python -u), a write that a closing pipe cuts
    # short returns as if whole and only the next one raises BrokenPipeError,
    # so a short write of the last piece still goes unseen.
    for start in range(0, len(text), 1 << 16):
        sys.stdout.write(text[start:start + (1 << 16)])
    return OK


def cmd_conform(args: argparse.Namespace) -> int:
    from . import behavior as bhv, export
    model = _validated_model(args.file)
    automaton = _behavior_automaton(model, args.behavior)
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            # Each line is scanned as it is read, and none is kept; only the
            # records some event watches are built.
            watched = bhv.OccurrenceScanner(model.events).owners
            verdict = bhv.check(export.trace_records(handle, watched), model.events, automaton)
    except (OSError, UnicodeDecodeError) as exc:
        _cannot_read(args.trace, exc)
    except export.TraceParseError as exc:
        _fail(f"{args.trace}: {exc}")
    _print_verdict(verdict)
    return OK if verdict.conforms else FAIL


def cmd_history(args: argparse.Namespace) -> int:
    from . import history
    try:
        log = history.ReplacementLog.from_lines(_read(args.log))
    except history.HistoryError as exc:
        _fail(f"{args.log}: {exc}")
    if args.append is not None:
        try:
            log.append(history.ReplacementRecord.from_json(jsonl.decode(args.append)))
        except (jsonl.JSONLineError, history.HistoryError) as exc:
            _fail(f"append rejected: {exc}", FAIL)
        _replace(args.log, log.to_lines())
        return OK
    if args.slot is None:
        _fail("history needs --slot (with --at or --timeline) or --append")
    if not args.timeline and args.at is None:
        _fail("history --slot needs --at or --timeline")
    try:
        if args.timeline:
            for record in log.timeline(args.slot):
                print(record.to_line(), end="")
        else:
            unit = log.installed_at(args.slot, args.at)
            print(unit if unit is not None else "none")
    except history.HistoryError as exc:
        _fail(str(exc))
    return OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command's argument parser, built on the first call only: it is
    the same for every ``main`` call, and building it makes reference cycles."""
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


def _detach_closed_streams() -> None:
    """Point each standard stream whose reader has gone at os.devnull, so
    that the interpreter's last flush of what it still holds cannot fail."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv: Optional[list[str]] = None) -> int:
    # No collector passes: only sim leaves reference cycles, where its site table loops (tests/test_gc.py).
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:  # argparse's, or a command's that printed its reason
            code = exc.code or OK
        sys.stdout.flush()
    except BrokenPipeError as exc:  # a reader of stdout or stderr (say `| head`) left early
        _detach_closed_streams()
        print(f"fmkit: cannot write output: {exc.strerror}", file=sys.stderr)
        code = USAGE
    finally:
        if collecting:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
