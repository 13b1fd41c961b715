"""Suite engine: sweep construction, registry, determinism."""

from collections import Counter

import numpy as np
import pytest

from rifclark import agler, clark, verification
from rifclark.catalog import get, names
from rifclark.errors import DomainError
from rifclark.polynomials import roots
from rifclark.verification import (
    SWEEP_MIN_DISTANCE,
    alpha_sweep,
    run_suites,
    suite_names,
)


def test_alpha_sweep_contains_all_exceptional():
    for name in ("fave", "amy", "deg31"):
        rif = get(name).build()
        sweep = alpha_sweep(rif, seed=3)
        assert len(sweep) == 16
        for s in rif.singularities:
            assert any(abs(a - s.alpha) < 1e-9 for a in sweep)
        assert all(abs(abs(a) - 1.0) < 1e-12 for a in sweep)


def test_alpha_sweep_generic_entries_keep_conditioning_floor():
    rif = get("deg31").build()
    exc = [s.alpha for s in rif.singularities]
    for a in alpha_sweep(rif, seed=5):
        if any(abs(a - b) < 1e-9 for b in exc):
            continue
        u = rif.pt1 - a * rif.p2
        d = 1.0 - max(abs(r) for r, _m in roots(u))
        assert d >= SWEEP_MIN_DISTANCE * 0.999


def test_alpha_sweep_deterministic():
    rif = get("amy").build()
    one = alpha_sweep(rif, seed=11)
    two = alpha_sweep(rif, seed=11)
    assert one == two
    other = alpha_sweep(rif, seed=12)
    assert one != other


def test_run_suites_selection_and_order():
    res = run_suites(get("fave"), ["reflect", "lambda_match"], seed=0)
    assert [r.name for r in res] == ["reflect", "lambda_match"]
    assert all(r.passed for r in res)


def test_run_suites_rejects_unknown():
    with pytest.raises(DomainError):
        run_suites(get("fave"), ["nope"])


def test_suite_result_json_fields():
    (res,) = run_suites(get("fave"), ["fejer_certificate"], seed=0)
    obj = res.to_json()
    assert set(obj) == {"name", "passed", "max_deviation", "tol",
                        "elapsed_s", "details"}
    assert obj["passed"] is True


def test_registry_covers_documented_identities():
    names = suite_names()
    for required in ("reflect", "lambda_match", "fejer_certificate",
                     "poisson", "gram", "mass_identity", "support",
                     "weight_positive", "unitary", "extreme", "sos_fixture",
                     "ortho_identity", "atoms_probe", "box_mass",
                     "weakstar", "levelset", "blaschke_modulus"):
        assert required in names


def test_poisson_suite_deterministic_given_seed():
    a = run_suites(get("fave"), ["poisson"], seed=9)[0]
    b = run_suites(get("fave"), ["poisson"], seed=9)[0]
    assert a.max_deviation == b.max_deviation


def test_box_mass_details_shape():
    (res,) = run_suites(get("fave"), ["box_mass"], seed=0)
    assert res.passed
    for row in res.details["boxes"]:
        assert len(row["masses"]) == 3
        m = row["masses"]
        assert m[0] > m[1] > m[2] > 0.0


def test_weakstar_runs_trend_for_degree_one():
    (res,) = run_suites(get("fave"), ["weakstar"], seed=0)
    assert res.passed
    trend = res.details.get("trend")
    assert trend is not None and trend[0] > trend[-1]


@pytest.mark.parametrize("name", names())
def test_run_suites_builds_one_measure_per_alpha(name, monkeypatch):
    # every measure-side check reads the measure the suites share
    built = clark.clark_measure
    calls = Counter()

    def counted(rif, alpha):
        calls[complex(alpha)] += 1
        return built(rif, alpha)

    for module in (clark, agler, verification):
        monkeypatch.setattr(module, "clark_measure", counted, raising=False)
    results = run_suites(get(name), seed=5)
    assert all(r.passed for r in results)
    assert len(calls) >= verification.SWEEP_SIZE
    assert set(calls.values()) == {1}, calls.most_common(3)
