"""Every documented catalog fact holds for the objects the package computes."""

import numpy as np
import pytest

from rifclark.catalog import entries
from rifclark.clark import clark_measure, classify_extreme
from rifclark.rif import is_saturated

_TOL = 1e-9


def _c(pair) -> complex:
    return complex(*pair)


def _close(got, want) -> bool:
    return abs(got - want) <= _TOL


def _singularity(rif, fact):
    (s,) = [s for s in rif.singularities if _close(s.tau, _c(fact["tau"]))]
    return s


def _measure(rif, fact):
    return clark_measure(rif, _c(fact["alpha"]))


def _check_singularity(rif, fact) -> bool:
    s = _singularity(rif, fact)
    return (_close(s.lam, _c(fact["lambda"])) and _close(s.alpha, _c(fact["alpha"]))
            and s.mult == fact["mult"])


def _check_line_mass(rif, fact) -> bool:
    masses = [m for t, m in _measure(rif, fact).lines if _close(t, _c(fact["tau"]))]
    return len(masses) == 1 and _close(masses[0], fact["mass"])


def _check_weight_constant(rif, fact) -> bool:
    w = _measure(rif, fact).weight_eval(np.exp(1j * np.linspace(0.0, 6.0, 64)))
    return bool(np.max(np.abs(w - fact["value"])) <= _TOL)


def _check_blaschke(rif, fact) -> bool:
    b = _measure(rif, fact).balpha
    got = np.array(b.zeros)
    return (_close(b.constant, _c(fact["constant"])) and got.size == len(fact["zeros"])
            and all(np.min(np.abs(got - _c(a))) <= _TOL for a in fact["zeros"]))


# one check per documented quantity; each returns whether the fact holds
_CHECKS = {
    "phi_at_origin": lambda rif, f: _close(rif.phi_at_origin, _c(f["value"])),
    "singularity": _check_singularity,
    "line_derivative": lambda rif, f: _close(_singularity(rif, f).deriv, _c(f["value"])),
    "line_mass": _check_line_mass,
    "weight_constant": _check_weight_constant,
    "weight_at": lambda rif, f: _close(
        _measure(rif, f).weight_eval(_c(f["zeta"])), f["value"]),
    "blaschke": _check_blaschke,
    "total_mass": lambda rif, f: _close(_measure(rif, f).total_mass(None), f["value"]),
    "saturated": lambda rif, f: is_saturated(rif) is f["value"],
    "extreme": lambda rif, f: classify_extreme(rif, _c(f["alpha"])).status.value == f["status"],
}

_FACTS = [(name, fact) for name, entry in entries().items() for fact in entry.facts]


def test_catalog_documents_facts():
    assert len(_FACTS) >= 45


@pytest.mark.parametrize("name,fact", _FACTS,
                         ids=[f"{n}-{k}-{f['quantity']}" for k, (n, f) in enumerate(_FACTS)])
def test_documented_fact_holds(name, fact):
    assert _CHECKS[fact["quantity"]](entries()[name].build(), fact), fact["note"]
