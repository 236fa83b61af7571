"""Seeded CLI fuzz: random and mutated model, scenario, trace and ledger
files through every command.  Whatever the input, ``main`` returns 0, 1 or
2 and raises nothing; the diagnostics it prints are not checked here."""
from __future__ import annotations

import pathlib
import random
import re

from fmkit.cli import main
from fmkit.lexer import KEYWORDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# fmkit tokens, JSON pieces of traces and ledgers, and the characters that
# trip a lexer: quotes, escapes, comment and label starts, blanks other than
# ' ', and letters, fractions, superscripts and digits outside ASCII.
FRAGMENTS = (
    sorted(KEYWORDS)
    + ["->", "=>", "==", "!=", "<=", ">=", "{", "}", "(", ")", ",", ":", "=", "<", ">", "+", "-", "*", "/", "."]
    + ["x", "n", "cash", "tvm/cash", "#7", "#a.1", "0", "12", "1.5", "-3", '"s"', '"', "//", "\\"]
    + ['"tick":', '"action":', '"thing":', '"at":', '"arc":', '"slot":', '"unit":', '"move"', '"install"',
       "null", "true", "[", "]", '"2021-03-01T08:00:00Z"', "1e999"]
    + list('"\\#/.\r\t\n\x0c') + ["é", "½", "²", "٣", "Ⅻ"]
)
# Put right after a number: digits that are not decimal, and one that is.
ODD_DIGITS = ["²", "½", "Ⅻ", "٣", ".²", ".٣"]
NUMBER = re.compile(r"(?<![\w#.])\d+")

MODELS = {
    "tvm": (CORPUS / "tvm.fm", sorted(CORPUS.glob("tvm_*.fms"))),
    "plant": (CORPUS / "plant.fm", [CORPUS / "plant_water.fms"]),
    "turbine": (CORPUS / "turbine.fm", sorted(CORPUS.glob("*.fms"))),
}
TRACES = sorted(GOLDEN.glob("tvm_*.jsonl"))
LEDGER = (CORPUS / "pump_history.fmh").read_text(encoding="utf-8")
RECORD = LEDGER.splitlines()[-1]
CASES = 60


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 40)))


def mutate(rng: random.Random, text: str) -> str:
    """A few random edits: insert a fragment, delete a short run, replace a
    run with a fragment, or put an odd digit right after a number."""
    for _ in range(rng.randint(1, 4)):
        pos = rng.randint(0, len(text))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:pos] + rng.choice(FRAGMENTS) + text[pos:]
        elif edit == 1:
            text = text[:pos] + text[pos + rng.randint(1, 8):]
        elif edit == 2:
            text = text[:pos] + rng.choice(FRAGMENTS) + text[pos + rng.randint(1, 8):]
        else:
            ends = [m.end() for m in NUMBER.finditer(text)]
            if ends:
                at = rng.choice(ends)
                text = text[:at] + rng.choice(ODD_DIGITS) + text[at:]
    return text


def input_text(rng: random.Random, original: str) -> str:
    """Mostly a mutant; often the original, so that the commands reading
    several files get past a good model to the scenario or trace."""
    draw = rng.random()
    if draw < 0.1:
        return random_text(rng)
    return mutate(rng, original) if draw < 0.5 else original


def test_cli_survives_random_and_mutated_inputs(tmp_path, capsys):
    rng = random.Random(20261018)
    calls = 0
    for case in range(CASES):
        model_path, scenarios = MODELS[rng.choice(sorted(MODELS))]
        files = {
            "m.fm": input_text(rng, model_path.read_text(encoding="utf-8")),
            "s.fms": input_text(rng, rng.choice(scenarios).read_text(encoding="utf-8")),
            # The first records of a golden trace keep each conform short.
            "t.jsonl": input_text(rng, "".join(rng.choice(TRACES).read_text(encoding="utf-8").splitlines(True)[:60])),
            "h.fmh": input_text(rng, LEDGER),
        }
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{case}-{name}"
            paths[name].write_text(text, encoding="utf-8")
        model, scenario, trace, ledger = (str(paths[n]) for n in ("m.fm", "s.fms", "t.jsonl", "h.fmh"))
        behavior = rng.choice(["cash_purchase", "cash_purchase", "nope"])
        commands = [
            ["check", model],
            ["dot", model, rng.choice(["--show-implicit", "--no-show-implicit"])],
            ["dot", model, "--behavior", behavior],
            ["sim", model, "--scenario", scenario, "--ticks", "30"]
            + rng.choice([[], ["--behavior", behavior, "--mode", rng.choice(["observe", "enforce"])]]),
            ["conform", model, "--behavior", behavior, "--trace", trace],
            ["history", ledger, "--slot", rng.choice(["P101", "P102", "Q"]), "--timeline"],
            ["history", ledger, "--slot", "P101", "--at", input_text(rng, "2023-06-11T00:00:00Z")],
            ["history", ledger, "--append", input_text(rng, RECORD)],
        ]
        for argv in commands:
            try:
                code = main(argv)
            except Exception as exc:  # report the inputs, not just the traceback
                raise AssertionError(f"case {case}: fmkit {argv!r} raised {exc!r}; inputs {files!r}") from exc
            capsys.readouterr()
            assert code in (0, 1, 2), (case, argv, code, files)
            calls += 1
    assert calls == CASES * 8
