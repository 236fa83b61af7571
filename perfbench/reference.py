"""Reference trace digests for the simulation workloads.

The reference is the trace the brute-force interpreter in ``tests/oracle.py``
produces for the same model, scenario and tick limit; it shares no
simulation code with fmkit.  The oracle is slow, so its digests are minted
once into ``digests.json`` (keyed by a hash of the inputs) and otherwise
computed outside the timed region and cached in the checkout.

    python3 perfbench/reference.py --mint 1 2 3   # add seeds to digests.json
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MINTED = HERE / "digests.json"


def input_key(model_text: str, scenario_text: str, ticks: int) -> str:
    return hashlib.sha256(f"{model_text}\0{scenario_text}\0{ticks}".encode("utf-8")).hexdigest()


def oracle_trace(root: Path, model_text: str, scenario_text: str, ticks: int) -> str:
    for sub in ("src", "tests"):
        if str(root / sub) not in sys.path:
            sys.path.insert(0, str(root / sub))
    from oracle import run_oracle

    from fmkit.canon import load_model
    from fmkit.simulate import parse_scenario

    model, diags = load_model(model_text, "model.fm")
    if model is None:
        raise ValueError("reference model does not load: " + "; ".join(d.render() for d in diags))
    scenario, diags = parse_scenario(scenario_text, "scenario.fms")
    if any(d.is_error for d in diags):
        raise ValueError("reference scenario does not parse")
    return run_oracle(model, scenario, max_ticks=ticks)


def digest(text: str) -> dict:
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "records": text.count("\n")}


def reference(root: Path, workdir: Path, plan: dict, cache: Path) -> tuple[dict, str]:
    """The oracle digest for this plan's simulation and where it came from
    (minted, cache or oracle)."""
    model_text = (workdir / plan["model"]).read_text(encoding="utf-8")
    scenario_text = (workdir / plan["scenario"]).read_text(encoding="utf-8")
    key = input_key(model_text, scenario_text, plan["ticks"])
    minted = json.loads(MINTED.read_text()) if MINTED.exists() else {}
    if key in minted:
        return minted[key], "minted"
    cached = cache / f"{key}.json"
    if cached.exists():
        return json.loads(cached.read_text()), "cache"
    ref = digest(oracle_trace(root, model_text, scenario_text, plan["ticks"]))
    cache.mkdir(parents=True, exist_ok=True)
    cached.write_text(json.dumps(ref))
    return ref, "oracle"


def main() -> int:
    from workloads import generate

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mint", type=int, nargs="+", required=True, help="seeds to mint")
    args = parser.parse_args()
    root = HERE.parent
    minted = json.loads(MINTED.read_text()) if MINTED.exists() else {}
    for workload in ("steam", "sessions"):
        for seed in args.mint:
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                plan = generate(workload, seed, root / "corpus", Path(tmp))
                model_text = (Path(tmp) / plan["model"]).read_text(encoding="utf-8")
                scenario_text = (Path(tmp) / plan["scenario"]).read_text(encoding="utf-8")
            key = input_key(model_text, scenario_text, plan["ticks"])
            if key not in minted:
                minted[key] = digest(oracle_trace(root, model_text, scenario_text, plan["ticks"]))
                print(f"{workload} seed {seed}: {minted[key]['records']} records", flush=True)
    MINTED.write_text(json.dumps(minted, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
