"""Differential gate: the simulator against the brute-force oracle.

Both sides run the same model and scenario and must write byte-identical
traces (McKeeman, "Differential Testing for Software", DTJ 10(1), 1998).
The oracle shares nothing with the simulator's incremental bookkeeping
(completion calendar, parked things), so a pruning rule that drops a move
shows up as a differing trace.

Work is bounded by the tick limit, not by dropping seeds: a few random
models spawn without end (seed 174 at dwell 1 writes about 87k records by
tick 40 and 10.7M by tick 60), and at FUZZ_TICKS every seed stays cheap.
Seeds 19 and 135 at dwell 2 hold things at enable-gated stages while they
still dwell; they differ from the oracle if such a thing is parked early.
"""
from __future__ import annotations

import pytest

from fuzz import random_scenario, random_tvm_scenario, random_valid_model
from oracle import run_oracle

from fmkit.export import write_trace
from fmkit.simulate import SimConfig, run

FUZZ_SEEDS = range(300)
FUZZ_TICKS = 40
TVM_SEEDS = range(300)
TVM_TICKS = 200


def _mismatches(cases, ticks: int, dwell: int) -> list:
    bad = []
    for key, model, scenario in cases:
        got = write_trace(run(model, scenario, SimConfig(max_ticks=ticks, stage_dwell=dwell)))
        if got != run_oracle(model, scenario, max_ticks=ticks, dwell=dwell):
            bad.append(key)
    return bad


def _fuzz_cases():
    for seed in FUZZ_SEEDS:
        model, _ = random_valid_model(seed)
        yield seed, model, random_scenario(model, seed)


@pytest.mark.parametrize("dwell", [1, 2])
def test_fuzz_models_match_oracle(dwell):
    assert _mismatches(_fuzz_cases(), FUZZ_TICKS, dwell) == []


def test_tvm_scenarios_match_oracle(tvm):
    cases = ((seed, tvm, random_tvm_scenario(tvm, seed)) for seed in TVM_SEEDS)
    assert _mismatches(cases, TVM_TICKS, dwell=1) == []
