"""Seeded input generators for the four benchmark workloads.

Each generator takes a seed and writes only input files; fmkit sees nothing
else.  Alongside the inputs every generator returns the answers it expects,
taken from its own bookkeeping rather than from fmkit, so the benchmark can
count wrong outputs.  The simulation workloads (steam, sessions) are the
exception: their reference trace comes from the independent brute-force
interpreter in ``tests/oracle.py`` (see ``reference.py``).

Sizes are fixed per workload and the seed only shuffles order, names and
constants, so two seeds give nearly the same amount of work.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

# steam: plant.fm with seeded draws from the plant_water.fms mix.
STEAM_INJECTIONS = 200
STEAM_PER_TICK = 2
STEAM_TICKS = 200

# sessions: tvm.fm with one purchase session after another.
SESSIONS = 24
SESSION_PERIOD = 60  # ticks; the longest session is quiescent by tick 56
CONFORM_TILES = 30
# Events each session kind produces under the cash_purchase body.
SESSION_EVENTS = {"exact": 4, "topup": 7, "cancel": 6}
SESSION_INJECTIONS = {
    "exact": [(35, "cash at passenger/cash.create", "{ amount = 5, fare = 5 }")],
    "topup": [
        (35, "cash at passenger/cash.create", "{ amount = 3, fare = 5 }"),
        (46, "cash at passenger/cash.create", "{ amount = 5, fare = 5 }"),
    ],
    "cancel": [
        (35, "cash at passenger/cash.create", "{ amount = 3, fare = 5 }"),
        (46, "cancel_signal at passenger/cancel.create", ""),
    ],
}

# ledger: receive/install/remove cycles over many slots.
LEDGER_SLOTS = 16
LEDGER_CYCLES = 28  # per slot; each cycle is receive, remove, install
LEDGER_QUERIES = 1000
LEDGER_BATCH_CYCLES = 3  # valid cycles appended per slot after loading
LEDGER_REJECT_SHARE = 0.3

# static: a large model with one 1,024-state par behaviour.
STATIC_GROUPS = 10
STATIC_SPHERES = 80
PAR_BRANCHES = 5
SEQ_LENGTH = 3


def generate(workload: str, seed: int, corpus: Path, out: Path) -> dict:
    """Write the workload's inputs under ``out``; return its plan: the file
    names, sizes and expected answers the benchmark checks against."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, corpus, out)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.name


# steam ---------------------------------------------------------------------


def gen_steam(rng: random.Random, corpus: Path, out: Path) -> dict:
    """Each block of five injections is a seeded permutation of the five
    plant_water.fms injections, so every seed feeds the same mix."""
    mix = [
        re.sub(r" tick \d+", " tick {}", line)
        for line in (corpus / "plant_water.fms").read_text().splitlines()
        if line.startswith("inject")
    ]
    lines = []
    for block in range(0, STEAM_INJECTIONS, len(mix)):
        order = list(range(len(mix)))
        rng.shuffle(order)
        for offset, which in enumerate(order):
            tick = (block + offset) // STEAM_PER_TICK
            lines.append(mix[which].replace("{}", str(tick), 1))
    return {
        "model": _write(out / "plant.fm", (corpus / "plant.fm").read_text()),
        "scenario": _write(out / "steam.fms", "\n".join(lines) + "\n"),
        "ticks": STEAM_TICKS,
        "injections": len(lines),
    }


# sessions ------------------------------------------------------------------


def gen_sessions(rng: random.Random, corpus: Path, out: Path) -> dict:
    """Equal numbers of exact-fare, top-up and cancel sessions in seeded
    order, one every SESSION_PERIOD ticks, checked against a `sessions`
    behaviour that repeats the cash_purchase body."""
    source = (corpus / "tvm.fm").read_text()
    body = re.search(r"behavior cash_purchase \{(.*?)\n\}", source, re.S)
    if body is None:
        raise ValueError("tvm.fm has no cash_purchase behaviour")
    source += "\nbehavior sessions {\n  repeat(" + body.group(1).strip() + ") possible\n}\n"
    kinds = [list(SESSION_EVENTS)[i % len(SESSION_EVENTS)] for i in range(SESSIONS)]
    rng.shuffle(kinds)
    lines = []
    for i, kind in enumerate(kinds):
        start = i * SESSION_PERIOD
        lines.append(f"inject start_request at passenger/start.create tick {start}")
        for dt, what, attrs in SESSION_INJECTIONS[kind]:
            lines.append(f"inject {what} tick {start + dt} {attrs}".rstrip())
    return {
        "model": _write(out / "tvm.fm", source),
        "scenario": _write(out / "sessions.fms", "\n".join(lines) + "\n"),
        "ticks": (SESSIONS + 1) * SESSION_PERIOD,
        "behavior": "sessions",
        "tiles": CONFORM_TILES,
        "occurrences": sum(SESSION_EVENTS[k] for k in kinds),
    }


def tile_trace(text: str, tiles: int) -> str:
    """Repeat a quiescent run's trace ``tiles`` times back to back, shifting
    ticks and thing ids so each copy reads as later, fresh sessions.  Only
    the last copy keeps the closing quiescent record."""
    records = [json.loads(line) for line in text.splitlines()]
    if not records or records[-1]["action"] != "quiescent":
        raise ValueError("tiling needs a trace that ends quiescent")
    body, tail = records[:-1], records[-1]
    span = tail["tick"] + 1
    ids = max(r["thing"] for r in body if r["thing"] is not None)
    out = []
    for k in range(tiles):
        for r in body:
            shifted = dict(r, tick=r["tick"] + k * span)
            if r["thing"] is not None:
                shifted["thing"] = r["thing"] + k * ids
            out.append(shifted)
    out.append(dict(tail, tick=tail["tick"] + (tiles - 1) * span))
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in out)


# ledger --------------------------------------------------------------------

_EPOCH = datetime(2015, 1, 1, tzinfo=timezone.utc)


def _stamp(minutes: int) -> str:
    return (_EPOCH + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _record(slot: str, unit: str, action: str, minutes: int, rng: random.Random) -> dict:
    return {
        "action": action,
        "at": _stamp(minutes),
        "contractor": rng.choice(("gulf-maint", "delta-svc", "north-eng")),
        "performer": rng.choice(("j.kim", "a.ruiz", "m.chen", "s.okafor")),
        "slot": slot,
        "unit": unit,
    }


class _Slot:
    """The generator's own lifecycle bookkeeping for one slot."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.units = 0
        self.occupant: str | None = None
        self.now = 0
        self.events: list[tuple[int, str, str]] = []  # (minutes, action, unit)

    def cycle(self, rng: random.Random) -> list[tuple[int, str, str]]:
        """Receive a new unit, remove the occupant, install the new unit."""
        self.units += 1
        unit = f"{self.name}-u{self.units:03d}"
        steps = []
        self.now += rng.randint(60, 60 * 24 * 20)
        steps.append((self.now, "receive", unit))
        if self.occupant is not None:
            self.now += rng.randint(1, 60 * 24 * 5)
            steps.append((self.now, "remove", self.occupant))
        self.now += rng.randint(1, 60 * 12)
        steps.append((self.now, "install", unit))
        self.occupant = unit
        self.events.extend(steps)
        return steps

    def installed_at(self, minutes: int) -> str | None:
        occupant = None
        for when, action, unit in self.events:
            if when > minutes:
                break
            if action == "install":
                occupant = unit
            elif action == "remove":
                occupant = None
        return occupant


def gen_ledger(rng: random.Random, corpus: Path, out: Path) -> dict:
    """In-order load of every slot's cycles, then point queries and timeline
    reads, then a batch of appends of which a seeded share is invalid."""
    slots = [_Slot(f"P{100 + i}") for i in range(LEDGER_SLOTS)]
    rows = []
    for slot in slots:
        for _ in range(LEDGER_CYCLES):
            for minutes, action, unit in slot.cycle(rng):
                rows.append((minutes, slot.name, _record(slot.name, unit, action, minutes, rng)))
    rows.sort(key=lambda row: (row[0], row[1]))
    loaded = [record for _, _, record in rows]

    queries = []
    for _ in range(LEDGER_QUERIES):
        slot = rng.choice(slots)
        if rng.random() < 0.25:  # exactly at an event: removal-at-instant edge
            minutes = rng.choice(slot.events)[0]
        else:
            minutes = rng.randint(0, slot.now + 60 * 24)
        queries.append({"slot": slot.name, "at": _stamp(minutes), "expect": slot.installed_at(minutes)})

    timelines = {
        slot.name: [[action, unit, _stamp(minutes)] for minutes, action, unit in slot.events] for slot in slots
    }

    batch = []
    for slot in slots:
        for _ in range(LEDGER_BATCH_CYCLES):
            receive, remove, install = slot.cycle(rng)
            good = [_record(slot.name, u, a, m, rng) for m, a, u in (receive, remove, install)]
            batch.append((good[0], "ok"))
            if rng.random() < LEDGER_REJECT_SHARE:
                # The new unit goes in while the old one is still installed.
                batch.append((_record(slot.name, install[2], "install", receive[0], rng), "E_OCCUPIED"))
            if rng.random() < LEDGER_REJECT_SHARE:
                batch.append((dict(rng.choice(loaded)), "E_DUP"))
            if rng.random() < LEDGER_REJECT_SHARE:
                ghost = f"{slot.name}-ghost{rng.randint(0, 999):03d}"
                batch.append((_record(slot.name, ghost, rng.choice(("install", "remove")), remove[0], rng), "E_ORDER"))
            batch.extend((record, "ok") for record in good[1:])
    accepted = loaded + [record for record, verdict in batch if verdict == "ok"]

    return {
        "log": _write(out / "ledger.fmh", "".join(_line(r) for r in loaded)),
        "records": len(loaded),
        "queries": queries,
        "timelines": timelines,
        "batch": [record for record, _ in batch],
        "verdicts": [verdict for _, verdict in batch],
        "final_lines_sha": _sha("".join(_line(r) for r in accepted)),
    }


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# static --------------------------------------------------------------------

# Canonical arcs per unit sphere: each authored flow below becomes the legal
# stage chain between its ends, one arc within a machine (#a), five from a
# process stage to another machine's process stage (#b, #c, #x: release,
# transfer, transfer, receive, process), four to another machine's receive
# stage (#d, #s).
FLOWS_PER_UNIT = 1 + 5 + 5 + 4 + 5 + 4


def gen_static(rng: random.Random, corpus: Path, out: Path) -> dict:
    """STATIC_SPHERES unit spheres spread over STATIC_GROUPS groups.  Every
    unit has guarded shorthand flows, an assign, a guarded spawning trigger
    and a flow into another unit; the first units carry the events of one
    par-of-seqs behaviour."""
    lines = [
        "// Generated benchmark model.",
        "thing item { n: int = 0, grade: str = \"a\" }",
        "thing signal { level: int = 1 }",
        "",
    ]
    units = [f"g{i % STATIC_GROUPS}/u{i}" for i in range(STATIC_SPHERES)]
    successor = list(range(1, STATIC_SPHERES)) + [0]
    rng.shuffle(successor)
    event_arcs: list[str] = []
    for group in range(STATIC_GROUPS):
        lines.append(f"sphere g{group} {{")
        for i in range(group, STATIC_SPHERES, STATIC_GROUPS):
            u = units[i]
            limit = rng.randint(3, 90)
            lines += [
                f"  sphere u{i} {{",
                "    machine src: item { create process }",
                f"    machine mid: item {{ process assign {{ n = n + {rng.randint(1, 9)} }} }}",
                "    machine out: item { process }",
                "    machine sink: item { receive }",
                "    machine sig: signal { create }",
                "    machine sigsink: signal { receive }",
                f"    flow {u}/src.create -> {u}/src.process #a{i}",
                f"    flow {u}/src.process -> {u}/mid.process when n >= 0 #b{i}",
                f"    flow {u}/mid.process -> {u}/out.process when grade == \"a\" or n > {limit} #c{i}",
                f"    flow {u}/out.process -> {u}/sink.receive when n < {limit * 3} #d{i}",
                f"    flow {u}/out.process -> {units[successor[i]]}/mid.process when n >= {limit * 3} #x{i}",
                f"    trigger {u}/mid.process => {u}/sig.create spawn {{ level = n * 2 + 1 }} when n > {limit // 2} #t{i}",
                f"    flow {u}/sig.create -> {u}/sigsink.receive #s{i}",
                "  }",
            ]
            event_arcs += [f"b{i}", f"c{i}", f"d{i}"]
        lines += ["}", ""]
    names = []
    for k in range(PAR_BRANCHES * SEQ_LENGTH):
        name = f"ev{k}"
        names.append(name)
        lines.append(f"event {name} {{ region {{ #{event_arcs[k]} }} }}")
    seqs = [
        "seq(" + ", ".join(names[b * SEQ_LENGTH:(b + 1) * SEQ_LENGTH]) + ")" for b in range(PAR_BRANCHES)
    ]
    lines += ["", "behavior big {", "  par(" + ", ".join(seqs) + ")", "}", ""]
    text = "\n".join(lines)
    return {
        "model": _write(out / "big.fm", text),
        "lines": text.count("\n"),
        "behavior": "big",
        "flows": FLOWS_PER_UNIT * STATIC_SPHERES,
        "triggers": STATIC_SPHERES,
        "states": (SEQ_LENGTH + 1) ** PAR_BRANCHES,
    }


GENERATORS = {"steam": gen_steam, "sessions": gen_sessions, "ledger": gen_ledger, "static": gen_static}
WORKLOADS = tuple(GENERATORS)
