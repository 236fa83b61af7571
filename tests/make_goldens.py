"""Regenerate the golden traces from the brute-force reference interpreter.

Run from the repository root:  python3 tests/make_goldens.py
The simulator must reproduce these byte-for-byte; tests compare all three
(simulator, oracle, file).
"""
from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from oracle import run_oracle  # noqa: E402

from fmkit.canon import load_model  # noqa: E402
from fmkit.parser import parse_scenario  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

RUNS = [
    ("tvm", "tvm_exact", 200),
    ("tvm", "tvm_insufficient", 200),
    ("tvm", "tvm_topup", 200),
    ("tvm", "tvm_cancel", 200),
    ("plant", "plant_water", 60),
]


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for model_name, scenario_name, ticks in RUNS:
        model, diags = load_model(
            (ROOT / "corpus" / f"{model_name}.fm").read_text(), f"{model_name}.fm"
        )
        assert model is not None, [d.render() for d in diags]
        scenario, sdiags = parse_scenario(
            (ROOT / "corpus" / f"{scenario_name}.fms").read_text(), f"{scenario_name}.fms"
        )
        assert not any(d.is_error for d in sdiags), [d.render() for d in sdiags]
        text = run_oracle(model, scenario, max_ticks=ticks, strict_unique=True)
        out = GOLDEN / f"{scenario_name}.jsonl"
        out.write_text(text)
        print(f"wrote {out.relative_to(ROOT)} ({len(text.splitlines())} records)")


if __name__ == "__main__":
    main()
