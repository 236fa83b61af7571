"""The ledger's stamp grammar, checked alike on every interpreter.

Run from the repository root under each supported Python, and compare:

    PYTHONPATH=src python tests/stamp_check.py > stamps-3.10.txt

It prints one line per stamp (the stamp, then the UTC instant it parses
to or its ``bad-timestamp`` reason) and a last summary line.  It exits 1
when a stamp outside the grammar parses, or when a stamp that the corpus,
the tests or the benchmark's ledger generator use as a valid one does
not; the printed lines must not differ between interpreters.
``tests/test_history.py`` runs the same checks in tier-1.
"""
from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

from fmkit.history import HistoryError, parse_timestamp

ROOT = Path(__file__).resolve().parent.parent

# Stamps outside the grammar, which the ledger rejects on every version.
REJECTED = (
    # datetime.fromisoformat reads these under Python 3.11 but not 3.10.
    "2024-W01-1",  # ISO week date
    "20240101T000000Z",  # basic format
    "2024-01-01T00:00:00,5Z",  # comma before the fraction
    "2024-01-01T0000",  # basic time
    "2024-01-01T00:00:00.1234",  # four fraction digits
    "2024-01-01T00:00+0100",  # basic offset
    "2024-01-01T00:00+01",  # hour-only offset
    # ... and these under both, with "Z" replaced by "+00:00".
    "2024-01-01é01:00:00",  # any other date/time separator
    "2024-01-01\x0001:00:00",
    "2024-01-01Z",  # Z with no time
    # ... and this under neither.
    "2024-01-01T00:00:00+01:00Z",  # an offset and a Z
)

# Stamps the tests use as bad ones, with the reason each fails.
MEANT_BAD = {
    "2024-13-01T00:00:00Z": "unparseable",  # month 13
    "9999-12-31T23:59:59-01:00": "out of range in UTC",
    "0001-01-01T00:00:00+01:00": "out of range in UTC",
}

_LITERAL = re.compile(r"""["']([0-9]{4}-[0-9]{2}-[^"'\n]*)["']""")


def stamps_in_corpus() -> list[str]:
    """Every ``at`` of the corpus ledgers."""
    return [json.loads(line)["at"] for path in sorted((ROOT / "corpus").glob("*.fmh"))
            for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def stamps_in_tests() -> list[str]:
    """Every quoted stamp in the tests and the CI workflow; a ``{...}``
    field of a template the test formats itself reads as ``00``."""
    paths = sorted((ROOT / "tests").glob("test_*.py")) + [ROOT / ".github" / "workflows" / "tests.yml"]
    found = (m.group(1) for path in paths for m in _LITERAL.finditer(path.read_text(encoding="utf-8")))
    return sorted({re.sub(r"\{[^}]*\}", "00", text) for text in found})


def stamps_of_the_generator(seeds=(1, 2, 3)) -> list[str]:
    """Every stamp of the benchmark's ledger workload: the log, the queries,
    the timelines and the appends."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import generate
    finally:
        sys.path.pop(0)
    stamps: set[str] = set()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            out = Path(tmp) / str(seed)
            plan = generate("ledger", seed, ROOT / "corpus", out)
            text = (out / plan["log"]).read_text(encoding="utf-8") + json.dumps(plan)
            stamps.update(re.findall(r'"([0-9]{4}-[0-9]{2}-[0-9]{2}T[^"]*)"', text))
    return sorted(stamps)


def outcome(text: str) -> str:
    """The UTC instant ``text`` parses to, or its error."""
    try:
        return parse_timestamp(text).isoformat()
    except HistoryError as exc:
        return str(exc)


def in_use() -> list[str]:
    """The stamps used as valid ones: the corpus's, the tests' and the generator's."""
    return [*stamps_in_corpus(), *(s for s in stamps_in_tests() if s not in MEANT_BAD), *stamps_of_the_generator()]


def problems(valid: list[str]) -> list[str]:
    """What breaks the grammar's contract, over REJECTED, MEANT_BAD and ``valid``."""
    found = []
    for text in REJECTED:
        result = outcome(text)
        if result != f"bad-timestamp: unparseable timestamp '{text}'":
            found.append(f"{text!r} is outside the grammar but gives {result}")
    for text, reason in MEANT_BAD.items():
        result = outcome(text)
        if reason not in result:
            found.append(f"{text!r} should be {reason} but gives {result}")
    for text in valid:
        result = outcome(text)
        if result.startswith("bad-timestamp"):
            found.append(f"{text!r} is in use but gives {result}")
    return found


def main() -> int:
    valid = in_use()
    texts = (*REJECTED, *MEANT_BAD, *valid)
    for text in texts:
        print(f"{text!r} {outcome(text)!r}")
    found = problems(valid)
    print("\n".join(found + [f"{len(texts)} stamps, {len(found)} problems"]))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
