"""Smoke test of the benchmark in bench/: every workload's set-up and the
first two operations of its first round, checked by the benchmark's own
oracle, and the planted-mass-fault negative control.

The workloads run in-process against the rifclark modules already loaded
here; nothing under bench/ is written.
"""

import sys
from pathlib import Path

import pytest

import rifclark.cli  # noqa: F401  (the workloads reach verify through cli)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 5
# the relative error bench/run.py --plant-fault puts into every expected mass
PLANTED_MASS_ERROR = 1e-6


def _ready(name: str, mass_fault: float = 0.0):
    workload = workloads.WORKLOADS[name]()
    ctx = workloads.Context(spans.program_modules(), SEED, mass_fault)
    workload.setup(ctx, workload.prepare(SEED))
    return workload, ctx


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_first_operations_pass_the_oracle(name):
    workload, ctx = _ready(name)
    workloads.check_catalog(ctx)
    ops = workload.round(ctx, 0)[:2]
    assert len(ops) == 2
    for op in ops:
        op.check(op.run())


def test_degree_ladder_seed_313_round_23_passes_the_oracle():
    # the n = 40 operation of this round once failed the oracle's total
    # mass check by 1.5e-8 relative
    workload = workloads.DegreeLadder()
    ctx = workloads.Context(spans.program_modules(), 313, 0.0)
    [op] = [op for op in workload.round(ctx, 23) if op.label == "n=40"]
    op.check(op.run())


@pytest.mark.parametrize("name", ["degree-ladder", "alpha-sweep"])
def test_planted_mass_fault_is_caught(name):
    workload, ctx = _ready(name, PLANTED_MASS_ERROR)
    op = workload.round(ctx, 0)[0]
    out = op.run()
    with pytest.raises(workloads.CheckFailed, match="mass"):
        op.check(out)


def test_every_spanned_function_resolves():
    # the traced run wraps these by name; a rename or deletion in the
    # program would break bench/run.py --trace 1
    modules = spans.program_modules()
    for mod_name, qual in spans.SPANNED:
        obj = modules[mod_name]
        for part in qual.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, qual)
