"""Composition RIFs phi(z1^k, z2): exact inputs of degree nk with known data.

For a catalog entry p = p1 + z2 p2 of bidegree (n,1), p(z1^k, z2) is stable
of bidegree (nk,1) and keeps the catalog's exact coefficients.  Its data
follows from the base: the contacts are the k-th roots of each base contact,
with the base's singular values, so one alpha matches k lines; each line
mass is the base's c / |d(z^k)/dz| = c / k; and phi(0) is the base's, so
the closed-form mass is too.

Every case, up to k = 64, certifies its exceptional measures to 1e-12:
the weight numerator is |Q_red|^2, Q_red the spectral factor of the
boundary polynomial with one factor (z - tau) left out per line, built
from the roots validate found.
"""

import numpy as np
import pytest

from rifclark.catalog import get
from rifclark.clark import classify_alpha, clark_measure
from rifclark.polynomials import UniPoly, blaschke_from_rational
from rifclark.quadrature import circle_nodes
from rifclark.rif import BiPolyN1, validate

CATALOG = ("fave", "amy", "amy-variant", "deg31")
POWERS = (2, 4, 8, 16, 64)


def _compose(poly: BiPolyN1, k: int) -> BiPolyN1:
    def up(p: UniPoly) -> UniPoly:
        c = np.zeros(poly.n * k + 1, dtype=complex)
        c[: k * p.coeffs.size: k] = p.coeffs
        return UniPoly(c)

    return BiPolyN1(up(poly.p1), up(poly.p2), poly.n * k)


@pytest.mark.parametrize("name, k", [(name, k) for name in CATALOG for k in POWERS])
def test_composition_measures(name, k):
    entry = get(name)
    base = entry.build()
    rif = validate(_compose(entry.poly, k))
    assert len(rif.singularities) == k * len(base.singularities)
    for s in base.singularities:
        matched = classify_alpha(rif, s.alpha).matched
        assert len(matched) == k
        # an independent check of the identity clark_measure relies on:
        # blaschke_from_rational certifies v = c u* on the coefficients, and
        # every matched contact is a circle root of u that folds into the
        # Blaschke constant
        u, v = rif.pt1 - s.alpha * rif.p2, s.alpha * rif.p1 - rif.pt2
        assert blaschke_from_rational(u, v).degree == rif.n - k
        cm = clark_measure(rif, s.alpha)
        assert len(cm.lines) == k
        for tau, mass in cm.lines:
            assert abs(tau ** k - s.tau) <= 1e-12
            assert abs(mass - 1.0 / (k * abs(s.deriv))) <= 1e-15
        closed = cm.closed_form_mass()
        assert abs(cm.total_mass(None) - closed) <= 1e-12 * closed


@pytest.mark.parametrize("name, k", [(name, 1) for name in CATALOG] + [("amy", 16)])
def test_weight_numerator_times_the_line_factors_is_t(name, k):
    # weight_num * prod |zeta - tau_k|^2 over the lines gives back the
    # boundary polynomial t at the roots of unity
    entry = get(name)
    rif = validate(_compose(entry.poly, k))
    z = circle_nodes(1024)
    t = rif.t.eval(z).real
    for s in entry.build().singularities:
        cm = clark_measure(rif, s.alpha)
        back = cm.weight_num.eval(z).real
        for tau, _mass in cm.lines:
            back *= np.abs(z - tau) ** 2
        assert np.max(np.abs(back - t)) <= 1e-12 * np.max(np.abs(t))
