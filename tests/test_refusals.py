"""Refusals of hand-built input: each raise is reachable from outside the
package, and each names its cause."""

import re

import pytest

from rifclark.catalog import get
from rifclark.errors import DomainError
from rifclark.polynomials import (
    BlaschkeProduct,
    TrigPoly,
    UniPoly,
    blaschke_from_rational,
    fejer_riesz,
)
from rifclark.quadrature import circle_nodes, pointmass_probe
from rifclark.rif import BiPolyN1, validate

# t is not Hermitian: its coefficients of zeta and 1/zeta are not conjugate
NOT_REAL = TrigPoly([1.0, 2.0, 0.0], 1)

REFUSALS = [
    ("bipoly-degree-0", lambda: BiPolyN1(UniPoly([1.0]), UniPoly([0.5]), 0),
     "the z1-degree bound must be at least 1"),
    ("validate-p1-zero", lambda: validate(BiPolyN1(UniPoly([]), UniPoly([1.0]), 1)),
     "not stable: vanishing at z2 = 0"),
    ("validate-p1-z1", lambda: validate(BiPolyN1(UniPoly([0.0, 1.0]), UniPoly([0.5]), 1)),
     "not stable: vanishing at the origin"),
    ("circle-nodes-0", lambda: circle_nodes(0), "node count must be positive"),
    ("trig-node-values-0", lambda: TrigPoly([1.0], 0).node_values(0),
     "node count must be positive"),
    ("circle-zeros-not-real", NOT_REAL.circle_zeros, "not real on the circle"),
    ("trig-coefficient-count", lambda: TrigPoly([1.0, 2.0], 1),
     "coefficient count does not match the band"),
    ("conj-reflect-order", lambda: UniPoly([1.0, 2.0, 3.0]).conj_reflect(1),
     "reflection order smaller than the degree"),
    ("padded-length", lambda: UniPoly([1.0, 2.0, 3.0]).padded(2),
     "padding length smaller than the coefficient count"),
    ("blaschke-constant", lambda: BlaschkeProduct(2.0, ()),
     "Blaschke constant must be unimodular"),
    ("blaschke-zero-numerator", lambda: blaschke_from_rational(UniPoly([]), UniPoly([1.0])),
     "zero numerator or denominator"),
    # (z - 2) / (1 - 2z): den is the reflection of num, whose zero is outside
    ("blaschke-numerator-root-at-2",
     lambda: blaschke_from_rational(UniPoly([-2.0, 1.0]), UniPoly([1.0, -2.0])),
     "numerator zero outside the closed disk"),
    ("fejer-riesz-zero", lambda: fejer_riesz(TrigPoly([0.0, 0.0, 0.0], 1)),
     "cannot factor the zero polynomial"),
    ("fejer-riesz-not-real", lambda: fejer_riesz(NOT_REAL), "not real on the circle"),
    ("probe-alpha", lambda: pointmass_probe(get("fave").build(), 2.0, (1.0, 1.0)),
     "alpha must be unimodular"),
    ("probe-direction", lambda: pointmass_probe(get("fave").build(), 1.0, (1.0, 2.0)),
     "direction must lie on the torus"),
    ("catalog-unknown", lambda: get("nope"), "unknown catalog entry 'nope'"),
]


@pytest.mark.parametrize("build, message", [pytest.param(b, m, id=i) for i, b, m in REFUSALS])
def test_refusal_names_its_cause(build, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        build()
