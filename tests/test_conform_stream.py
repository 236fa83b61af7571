"""`fmkit conform` scans its trace as it reads it and writes its verdict a
chunk of occurrences at a time: what it prints, and what it holds."""
from __future__ import annotations

import gc
import pathlib
import tracemalloc

import pytest
from conftest import golden_text

from fmkit import behavior, cli, jsonl
from fmkit.cli import main
from fmkit.export import read_trace, write_trace
from fmkit.simulate import TraceEvent

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
TVM = str(CORPUS / "tvm.fm")
GOLDEN_TVM = ("tvm_cancel", "tvm_exact", "tvm_insufficient", "tvm_topup")


def tiled_tvm_trace(least_bytes: int) -> str:
    """The golden tvm traces one after another, over and over, until the
    text holds at least ``least_bytes``.  Each copy's ticks and thing ids
    are shifted past the copy before it, as ``perfbench/workloads.py``'s
    ``tile_trace`` shifts them, and only the last copy keeps its closing
    quiescent record."""
    goldens = [read_trace(golden_text(name)) for name in GOLDEN_TVM]
    per_round = sum(len(write_trace(trace)) for trace in goldens)
    out: list[TraceEvent] = []
    ticks = things = 0
    for _ in range(-(-least_bytes // per_round)):
        for trace in goldens:
            *body, tail = trace
            out.extend(
                e._replace(tick=e.tick + ticks, thing=None if e.thing is None else e.thing + things) for e in body
            )
            last = tail._replace(tick=tail.tick + ticks)
            ticks = last.tick + 1
            things += max(e.thing for e in body if e.thing is not None)
    out.append(last)
    return write_trace(out)


@pytest.fixture(scope="module")
def tiled(tmp_path_factory):
    path = tmp_path_factory.mktemp("conform") / "tiled.jsonl"
    path.write_text(tiled_tvm_trace(5_000_000), encoding="utf-8")
    return path


def conform(capsys, path) -> tuple[int, str, str]:
    code = main(["conform", TVM, "--behavior", "cash_purchase", "--trace", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_conform_prints_check_of_the_whole_trace(capsys, tvm, tiled):
    text = tiled.read_text(encoding="utf-8")
    verdict = behavior.check(read_trace(text), tvm.events, tvm.behavior("cash_purchase").program)
    assert len(verdict.occurrences) > 3_000 and verdict.first_violation is not None
    assert conform(capsys, tiled) == (1, jsonl.dumps(verdict.to_json()) + "\n", "")


def test_conform_holds_neither_the_trace_nor_its_records(capsys, tiled):
    conform(capsys, tiled)  # imports and first-use caches, outside the count
    gc.collect()
    tracemalloc.start()
    try:
        code, out, err = conform(capsys, tiled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (1, "")
    size = tiled.stat().st_size
    assert size >= 5_000_000
    # Whole, the text alone is the file's size, and its records several times it.
    assert peak < size / 2, f"conform peaked at {peak:,} bytes over a {size:,}-byte trace"


@pytest.fixture(scope="module")
def verdicts(tvm) -> dict[str, behavior.Verdict]:
    program = tvm.behavior("cash_purchase").program
    long_trace = read_trace(tiled_tvm_trace(1_200_000))
    verdicts = {
        "no-occurrences": behavior.check([], tvm.events, program),
        "first-violation": behavior.check(
            read_trace(golden_text("tvm_exact") + golden_text("tvm_exact")), tvm.events, program
        ),
        "long": behavior.check(long_trace, tvm.events, program),
    }
    assert not verdicts["no-occurrences"].occurrences
    assert verdicts["first-violation"].first_violation is not None
    assert len(verdicts["long"].occurrences) > 3 * cli._VERDICT_CHUNK
    return verdicts


@pytest.mark.parametrize("name", ["no-occurrences", "first-violation", "long"])
def test_verdict_is_written_as_one_dumps_writes_it(capsys, verdicts, name):
    verdict = verdicts[name]
    cli._print_verdict(verdict)
    assert capsys.readouterr().out == jsonl.dumps(verdict.to_json()) + "\n"


@pytest.mark.parametrize("count", [0, 1, cli._VERDICT_CHUNK - 1, cli._VERDICT_CHUNK, cli._VERDICT_CHUNK + 1])
def test_verdict_chunks_join_at_every_boundary(capsys, count):
    occurrences = tuple(behavior.Occurrence(f"e{i}", i, i + 1, i) for i in range(count))
    verdict = behavior.Verdict(True, None, occurrences, False)
    cli._print_verdict(verdict)
    assert capsys.readouterr().out == jsonl.dumps(verdict.to_json()) + "\n"
