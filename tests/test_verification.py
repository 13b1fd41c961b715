"""Suite engine: sweep construction, registry, determinism."""

from collections import Counter

import numpy as np
import pytest

from rifclark import agler, clark, polynomials, verification
from rifclark import rif as rif_module
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
        sweep = [cm.alpha for cm in alpha_sweep(rif, seed=3)]
        assert len(sweep) == 16
        for s in rif.singularities:
            assert any(abs(a - s.alpha) < 1e-9 for a in sweep)
        assert all(abs(abs(a) - 1.0) < 1e-12 for a in sweep)


def test_alpha_sweep_generic_entries_keep_conditioning_floor():
    rif = get("deg31").build()
    exc = [s.alpha for s in rif.singularities]
    for a in (cm.alpha for cm in alpha_sweep(rif, seed=5)):
        if any(abs(a - b) < 1e-9 for b in exc):
            continue
        u = rif.pt1 - a * rif.p2
        d = 1.0 - max(abs(r) for r, _m in roots(u))
        assert d >= SWEEP_MIN_DISTANCE * 0.999


def test_alpha_sweep_deterministic():
    rif = get("amy").build()
    one = [cm.alpha for cm in alpha_sweep(rif, seed=11)]
    two = [cm.alpha for cm in alpha_sweep(rif, seed=11)]
    assert one == two
    other = [cm.alpha for cm in alpha_sweep(rif, seed=12)]
    assert one != other


def test_alpha_sweep_grid_fallback_keeps_the_best_measures(monkeypatch):
    # no draw can clear an unreachable floor, so the half-offset grid fills
    # the sweep with its measures of largest Blaschke-zero gap, best first
    monkeypatch.setattr(verification, "SWEEP_MIN_DISTANCE", 1.5)
    monkeypatch.setattr(verification, "SWEEP_SIZE", 5)
    rif = get("fave").build()
    sweep = alpha_sweep(rif, seed=5)
    assert len(sweep) == 5
    assert sweep[0].alpha_class.matched and abs(sweep[0].alpha + 1.0) < 1e-12
    slots = [np.angle(cm.alpha) / (2 * np.pi) * 192 - 0.5 for cm in sweep[1:]]
    assert np.allclose(slots, np.round(slots), atol=1e-9)
    gaps = [verification._zero_gap(cm) for cm in sweep[1:]]
    assert gaps == sorted(gaps, reverse=True)


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
    # the wall time stays on the result but not in its JSON
    assert set(obj) == {"name", "passed", "max_deviation", "tol", "details"}
    assert obj["passed"] is True
    assert res.elapsed_s > 0.0


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


@pytest.mark.parametrize("name", names())
def test_run_suites_root_finds_each_alpha_once(name, monkeypatch):
    # a sweep draw is accepted or rejected on its own measure's Blaschke
    # zeros, so beyond one root-find per measure built only p1 and t in
    # validate and t in compute_Q remain
    found = polynomials.roots
    calls = Counter()

    def counted_roots(*args, **kwargs):
        calls["roots"] += 1
        return found(*args, **kwargs)

    built = clark.clark_measure

    def counted_measure(rif, alpha):
        calls["measures"] += 1
        return built(rif, alpha)

    # every binding of polynomials.roots in the package is counted
    for module in (polynomials, rif_module, clark, agler, verification):
        if getattr(module, "roots", None) is found:
            monkeypatch.setattr(module, "roots", counted_roots)
    for module in (clark, agler, verification):
        monkeypatch.setattr(module, "clark_measure", counted_measure, raising=False)
    assert all(r.passed for r in run_suites(get(name), seed=5))
    assert calls["measures"] >= verification.SWEEP_SIZE
    assert calls["roots"] <= calls["measures"] + 3, calls


def test_fave_suites_stay_below_16384_nodes(monkeypatch):
    # the weakstar trend's measures have Blaschke zeros down to 1.1e-4 from
    # the circle, where uniform nodes ran to 2^19
    counts = []
    node_data = clark.ClarkMeasure.node_data

    def counted(cm, count):
        counts.append(count)
        return node_data(cm, count)

    monkeypatch.setattr(clark.ClarkMeasure, "node_data", counted)
    assert all(r.passed for r in run_suites(get("fave"), seed=5))
    assert counts and max(counts) <= 16384


def test_poisson_integrals_take_one_pass_per_measure(monkeypatch):
    # poisson integrates all its points in one call per sweep alpha, and
    # weakstar all its points in one call per exceptional alpha plus the
    # three scalar trend calls of the order-one contact
    calls = Counter()
    integrate = verification.integrate

    def counted(cm, f, count=4096):
        calls[suite] += 1
        return integrate(cm, f, count)

    monkeypatch.setattr(verification, "integrate", counted)
    entry = get("fave")
    rif = entry.build()
    for suite in ("poisson", "weakstar"):
        assert run_suites(entry, names=[suite], seed=5)[0].passed
    assert calls["poisson"] == len(alpha_sweep(rif, seed=5)) == verification.SWEEP_SIZE
    assert calls["weakstar"] == len(verification._distinct_exceptional(rif)) + 3
