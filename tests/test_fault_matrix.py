"""Planted-fault matrix: the verification suites against known errors.

Each fault puts a relative error of 1e-6 into one piece of a Clark measure
or of the sums-of-squares data, planted where rifclark.verification obtains
that piece, so every suite sees it.  run_suites(entry, seed=5) on the four
catalog entries must then fail at least the suites recorded for the fault
(verify exits 4), or stop with the recorded NumericError (exit 3); it must
never pass (without a fault every suite passes there, as
test_verification checks).  A suite that catches more than its row is
welcome; one that stops catching, or a fault that stops raising, fails
here.  support checks every block of the measure's rule, the lines'
included, so a moved line abscissa leaves {phi = alpha} and fails it.

Suites that catch none of these faults: reflect, blaschke_modulus,
weight_positive, unitary, extreme, sos_fixture, atoms_probe, box_mass and
weakstar.
"""

from dataclasses import replace

import numpy as np
import pytest

from rifclark import verification
from rifclark.agler import SosPiece
from rifclark.catalog import get
from rifclark.errors import NumericError, RifClarkError
from rifclark.polynomials import BlaschkeProduct

EPS = 1e-6
ENTRIES = ("fave", "amy", "amy-variant", "deg31")
# orthonormality_check refuses a piece whose trace on a line is not square
# integrable
POLE = "R does not vanish at the line pole"


def _line_mass(cm):
    return replace(cm, lines=tuple((tau, c * (1.0 + EPS)) for tau, c in cm.lines))


def _line_tau(cm):
    return replace(cm, lines=tuple((tau * np.exp(1j * EPS), c) for tau, c in cm.lines))


def _weight_num(cm):
    return replace(cm, weight_num=(1.0 + EPS) * cm.weight_num)


def _balpha_constant(cm):
    return replace(cm, balpha=BlaschkeProduct(cm.balpha.constant * np.exp(1j * EPS),
                                              cm.balpha.zeros))


def _balpha_zero(cm):
    zeros = cm.balpha.zeros
    if not zeros:
        return cm
    return replace(cm, balpha=BlaschkeProduct(cm.balpha.constant,
                                              (zeros[0] * (1.0 + EPS),) + zeros[1:]))


def _on_measure(edit):
    """A fault in every measure the suites build: the edited copy of it,
    planted in the family builder through which verification obtains
    every measure."""

    def wrap(build):
        def faulty(rif, alphas):
            out = []
            for cm in build(rif, alphas):
                try:
                    out.append(cm if isinstance(cm, RifClarkError) else edit(cm))
                except RifClarkError as err:
                    out.append(err)
            return out

        return faulty

    return "_clark_measures", wrap


def _first_r(pieces):
    """The r part of the first closed-form piece, scaled."""

    def faulty(cm):
        out = pieces(cm)
        return [SosPiece((1.0 + EPS) * out[0].r, out[0].q)] + out[1:]

    return faulty


FAULTS = {
    "line_mass": _on_measure(_line_mass),
    "line_tau": _on_measure(_line_tau),
    "weight_num": _on_measure(_weight_num),
    "balpha_constant": _on_measure(_balpha_constant),
    "balpha_zero": _on_measure(_balpha_zero),
    "Q_scale": ("compute_Q", lambda compute: lambda rif: (1.0 + EPS) * compute(rif)),
    "first_R_piece": ("exceptional_R", _first_r),
}

_CURVE = {"lambda_match", "support", "poisson", "levelset"}
CAUGHT = {
    "line_mass": dict.fromkeys(ENTRIES, {"mass_identity", "ortho_identity", "poisson", "gram"}),
    "line_tau": {"fave": {"poisson", "gram", "support"},
                 "amy": POLE, "amy-variant": POLE, "deg31": POLE},
    "weight_num": dict.fromkeys(ENTRIES, {"mass_identity", "poisson", "gram"}),
    "balpha_constant": {
        "fave": _CURVE | {"gram"},
        "amy": _CURVE | {"gram", "ortho_identity"},
        "amy-variant": _CURVE,
        "deg31": _CURVE | {"ortho_identity"},
    },
    "balpha_zero": {
        "fave": _CURVE | {"gram", "mass_identity"},
        "amy": _CURVE | {"gram", "mass_identity"},
        "amy-variant": _CURVE | {"gram", "mass_identity"},
        "deg31": _CURVE | {"gram", "mass_identity", "ortho_identity"},
    },
    "Q_scale": dict.fromkeys(ENTRIES, {"fejer_certificate"}),
    "first_R_piece": dict.fromkeys(ENTRIES, POLE),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_fault_is_caught(fault, monkeypatch):
    attr, wrap = FAULTS[fault]
    monkeypatch.setattr(verification, attr, wrap(getattr(verification, attr)))
    for name, want in CAUGHT[fault].items():
        if isinstance(want, str):
            with pytest.raises(NumericError, match=want):
                verification.run_suites(get(name), seed=5)
        else:
            results = verification.run_suites(get(name), seed=5)
            failed = {r.name for r in results if not r.passed}
            assert want <= failed, (fault, name, sorted(failed))

