"""Composition RIFs phi(z1^k, z2): exact inputs of degree nk with known data.

For a catalog entry p = p1 + z2 p2 of bidegree (n,1), p(z1^k, z2) is stable
of bidegree (nk,1) and keeps the catalog's exact coefficients.  Its data
follows from the base: the contacts are the k-th roots of each base contact,
with the base's singular values, so one alpha matches k lines; each line
mass is the base's c / |d(z^k)/dz| = c / k; and phi(0) is the base's, so
the closed-form mass is too.

Every case of k up to 16 certifies its exceptional measures, and fave and
amy-variant do at k = 64 as well.  amy and deg31 at k = 64 are refused as
"circle factor does not divide": the weight numerator is divided by
|zeta - tau|^2 once per line, 64 times, and the remainders grow past the
bound.
"""

import numpy as np
import pytest

from rifclark.catalog import get
from rifclark.clark import classify_alpha, clark_measure
from rifclark.errors import NumericError
from rifclark.polynomials import UniPoly, blaschke_from_rational
from rifclark.rif import BiPolyN1, validate

CATALOG = ("fave", "amy", "amy-variant", "deg31")
POWERS = (2, 4, 8, 16, 64)
# the exact-input cases every construction must certify
CERTIFIED = (2, 4)


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
        # the pencil as built: every matched contact is a circle root of u
        # that folds into the Blaschke constant
        u, v = rif.pt1 - s.alpha * rif.p2, s.alpha * rif.p1 - rif.pt2
        assert blaschke_from_rational(u, v).degree == rif.n - k
        try:
            cm = clark_measure(rif, s.alpha)
        except NumericError as exc:
            # the weight numerator's division by |zeta - tau|^2, k times
            assert k not in CERTIFIED and "circle factor does not divide" in str(exc)
            continue
        assert len(cm.lines) == k
        for tau, mass in cm.lines:
            assert abs(tau ** k - s.tau) <= 1e-12
            assert abs(mass - 1.0 / (k * abs(s.deriv))) <= 1e-15
        closed = cm.closed_form_mass()
        assert abs(cm.total_mass(None) - closed) <= (1e-12 if k in CERTIFIED else 1e-9) * closed
