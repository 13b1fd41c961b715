"""Refusals of hand-built input: each raise is reachable from outside the
package, and each names its cause."""

import re

import numpy as np
import pytest

from rifclark.agler import compute_Q, gram_isometry_check, sos_residual
from rifclark.catalog import get
from rifclark.clark import (
    classify_alpha,
    classify_extreme,
    clark_measure,
    integrate,
    level_set_sample,
)
from rifclark.errors import DomainError
from rifclark.polynomials import (
    BlaschkeProduct,
    TrigPoly,
    UniPoly,
    blaschke_from_rational,
    fejer_riesz,
)
from rifclark.quadrature import circle_nodes, pointmass_probe, poisson2
from rifclark.rif import BiPolyN1, phi_eval, validate
from rifclark.verification import alpha_sweep, run_suites

NAN = float("nan")
# two points, the second missing its z2: numpy cannot make an array of it
RAGGED = [(0.1, 0.2), (0.3,)]

# t is not Hermitian: its coefficients of zeta and 1/zeta are not conjugate
NOT_REAL = TrigPoly([1.0, 2.0, 0.0], 1)

REFUSALS = [
    ("bipoly-degree-0", lambda: BiPolyN1(UniPoly([1.0]), UniPoly([0.5]), 0),
     "the z1-degree bound must be at least 1"),
    ("bipoly-degree-float", lambda: BiPolyN1(UniPoly([2.0, -1.0]), UniPoly([-1.0]), 1.7),
     "the z1-degree bound must be an integer"),
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
    # a stack of rows is never read as one polynomial
    ("unipoly-stack", lambda: UniPoly([[1.0, 2.0], [3.0, 4.0]]),
     "coefficients must form a one-dimensional array"),
    ("trig-stack", lambda: TrigPoly([[1.0, 2.0, 1.0]], 1),
     "coefficients must form a one-dimensional array"),
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
    # a NaN fails every comparison, so each bound is read as not x <= bound
    ("probe-alpha-nan", lambda: pointmass_probe(get("fave").build(), NAN, (1.0, 1.0)),
     "alpha must be unimodular"),
    ("probe-direction-nan", lambda: pointmass_probe(get("fave").build(), 1.0, (NAN, 1.0)),
     "direction must lie on the torus"),
    ("blaschke-constant-nan", lambda: BlaschkeProduct(NAN, ()),
     "Blaschke constant must be unimodular"),
    ("blaschke-zero-nan", lambda: BlaschkeProduct(1.0, (NAN,)),
     "Blaschke zero outside the open unit disk"),
    ("phi-eval-nan", lambda: phi_eval(get("fave").build(), (NAN, 0.1)),
     "point outside the closed bidisk"),
    # deg31 has phi(0) != 0, a branch that returns before it read alpha
    ("classify-extreme-nan", lambda: classify_extreme(get("deg31").build(), NAN),
     "alpha must be unimodular"),
    ("gram-no-points", lambda: gram_isometry_check(clark_measure(get("fave").build(), 1.0), []),
     "Gram points must be a nonempty list of pairs (w1, w2)"),
    ("gram-flat-points",
     lambda: gram_isometry_check(clark_measure(get("fave").build(), 1.0), [0.1, 0.2]),
     "Gram points must be a nonempty list of pairs (w1, w2)"),
    ("gram-nan-point",
     lambda: gram_isometry_check(clark_measure(get("fave").build(), 1.0), [(NAN, 0.1)]),
     "Gram points must lie in the open bidisk"),
    ("run-suites-seed", lambda: run_suites(get("fave"), seed=-1), "seed must be nonnegative"),
    ("run-suites-empty", lambda: run_suites(get("fave"), []), "empty suite list"),
    ("run-suites-repeated",
     lambda: run_suites(get("fave"), ["support", "support", "reflect"]),
     "suite listed twice: support"),
    ("alpha-sweep-seed", lambda: alpha_sweep(get("fave").build(), seed=-1),
     "seed must be nonnegative"),
    ("sos-residual-seed",
     lambda: sos_residual(get("fave").build(), compute_Q(get("fave").build()), [], seed=-1),
     "seed must be nonnegative"),
    # malformed points, directions and alphas: numpy's and complex()'s own
    # errors never reach the caller
    ("gram-ragged-points",
     lambda: gram_isometry_check(clark_measure(get("fave").build(), 1.0), RAGGED),
     "Gram points must be a nonempty list of pairs (w1, w2)"),
    ("phi-eval-ragged-points", lambda: phi_eval(get("fave").build(), RAGGED),
     "phi_eval takes a pair (z1, z2) or a (P, 2) array of them"),
    ("poisson2-ragged-points", lambda: poisson2(RAGGED, (1.0, 1.0)),
     "Poisson kernel points must be pairs, one per row"),
    ("poisson2-scalar-nodes", lambda: poisson2((0.1, 0.2), 1.0),
     "Poisson kernel nodes must be a pair (zeta1, zeta2)"),
    ("poisson2-unequal-nodes",
     lambda: poisson2((0.1, 0.2), (circle_nodes(3), circle_nodes(4))),
     "Poisson kernel nodes must be a pair (zeta1, zeta2)"),
    ("probe-direction-scalar", lambda: pointmass_probe(get("fave").build(), 1.0, 1.0),
     "direction must be a pair (t1, t2)"),
    ("probe-direction-short", lambda: pointmass_probe(get("fave").build(), 1.0, (1.0,)),
     "direction must be a pair (t1, t2)"),
    ("probe-alpha-string", lambda: pointmass_probe(get("fave").build(), "x", (1.0, 1.0)),
     "alpha must be a complex number"),
    ("clark-measure-alpha-string", lambda: clark_measure(get("fave").build(), "x"),
     "alpha must be a complex number"),
    # seeds and node counts that are not integers are refused, not truncated
    ("run-suites-seed-float", lambda: run_suites(get("fave"), ["support"], seed=1.5),
     "seed must be an integer"),
    ("run-suites-seed-string", lambda: run_suites(get("fave"), ["support"], seed="3"),
     "seed must be an integer"),
    ("alpha-sweep-seed-float", lambda: alpha_sweep(get("fave").build(), seed=1.5),
     "seed must be an integer"),
    ("sos-residual-seed-float",
     lambda: sos_residual(get("fave").build(), compute_Q(get("fave").build()), [], seed=1.5),
     "seed must be an integer"),
    ("circle-nodes-float", lambda: circle_nodes(2.5), "node count must be a positive integer"),
    ("integrate-count-float",
     lambda: integrate(clark_measure(get("fave").build(), 1.0), lambda u, v: u, 2.5),
     "node count must be a positive integer"),
    ("level-set-sample-float",
     lambda: level_set_sample(clark_measure(get("fave").build(), 1.0), 2.5),
     "node count must be a positive integer"),
    # a bool, JSON's true included, is not an integer, though it is an int
    ("bipoly-degree-bool",
     lambda: BiPolyN1.from_json({"n": True, "p1": UniPoly([2.0, -1.0]).to_json(),
                                 "p2": UniPoly([-1.0]).to_json()}),
     "the z1-degree bound must be an integer, not True"),
    ("run-suites-seed-bool", lambda: run_suites(get("fave"), ["support"], seed=True),
     "seed must be an integer, not True"),
    ("circle-nodes-bool", lambda: circle_nodes(True),
     "node count must be a positive integer, not True"),
    ("level-set-sample-bool",
     lambda: level_set_sample(clark_measure(get("fave").build(), 1.0), True),
     "node count must be a positive integer, not True"),
    # the band of a TrigPoly is read as the other integers are
    ("trig-band-float", lambda: TrigPoly([1.0, 2.0, 3.0, 4.0], 1.5),
     "the band must be a nonnegative integer, not 1.5"),
    ("trig-band-string", lambda: TrigPoly([1.0, 2.0, 1.0], "1"),
     "the band must be a nonnegative integer, not '1'"),
    ("trig-band-negative", lambda: TrigPoly([1.0], -1),
     "the band must be a nonnegative integer, not -1"),
    ("blaschke-constant-string", lambda: BlaschkeProduct("x", ()),
     "Blaschke constant must be a complex number, not 'x'"),
    # the three proportionality certificates, each with its full reason:
    # p1 = -p2 puts the z2-root at 1 for every z1
    ("validate-constant-z2-root",
     lambda: validate(BiPolyN1(UniPoly([2.0, -1.0]), UniPoly([-2.0, 1.0]), 1)),
     "not stable: z2-root is constant on the closed disk"),
    # p = 1 - z1 z2 is its own reflection up to sign
    ("validate-self-reflection",
     lambda: validate(BiPolyN1(UniPoly([1.0]), UniPoly([0.0, -1.0]), 1)),
     "not coprime: the reflection is a scalar multiple of p"),
    # the reflection of 0.5 + z is 1 + 0.5 z, of which 1 + 0.3 z is no multiple
    ("blaschke-not-proportional",
     lambda: blaschke_from_rational(UniPoly([0.5, 1.0]), UniPoly([1.0, 0.3])),
     "denominator is not a multiple of the reflected numerator"),
    ("blaschke-quotient-not-unimodular",
     lambda: blaschke_from_rational(UniPoly([0.5, 1.0]), UniPoly([2.0, 1.0])),
     "quotient constant is not unimodular"),
    # complex() and numpy parse text and read True as 1: every complex
    # input refuses both, as the integer inputs refuse bools
    ("classify-alpha-string", lambda: classify_alpha(get("fave").build(), "-1"),
     "alpha must be a complex number, not '-1'"),
    ("classify-alpha-bool", lambda: classify_alpha(get("fave").build(), True),
     "alpha must be a complex number, not True"),
    ("classify-alpha-numpy-bool", lambda: classify_alpha(get("fave").build(), np.True_),
     "alpha must be a complex number, not np.True_"),
    ("blaschke-constant-numeric-string", lambda: BlaschkeProduct("1j"),
     "Blaschke constant must be a complex number, not '1j'"),
    ("blaschke-zero-string", lambda: BlaschkeProduct(1.0, ("0.5",)),
     "Blaschke zeros must be complex numbers, not ('0.5',)"),
    ("unipoly-strings", lambda: UniPoly(["2", "-1"]),
     "coefficients must be complex numbers, not ['2', '-1']"),
    ("unipoly-bools", lambda: UniPoly([True, False, True]),
     "coefficients must be complex numbers, not [True, False, True]"),
    ("trig-strings", lambda: TrigPoly(["1", "2", "1"], 1),
     "coefficients must be complex numbers, not ['1', '2', '1']"),
    ("phi-eval-strings", lambda: phi_eval(get("fave").build(), ("0.1", "0.2")),
     "coordinates must be complex numbers, not ('0.1', '0.2')"),
    ("poisson2-strings", lambda: poisson2(("0.1", "0.2"), (1.0, 1.0)),
     "coordinates must be complex numbers, not ('0.1', '0.2')"),
    ("poisson2-node-strings", lambda: poisson2((0.1, 0.2), ("1", "1")),
     "Poisson kernel nodes must be complex numbers, not ('1', '1')"),
    ("probe-direction-strings", lambda: pointmass_probe(get("fave").build(), -1, ("1", "1")),
     "coordinates must be complex numbers, not ('1', '1')"),
]


@pytest.mark.parametrize("build, message", [pytest.param(b, m, id=i) for i, b, m in REFUSALS])
def test_refusal_names_its_cause(build, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


def test_numpy_integers_pass_as_seeds_and_node_counts():
    rif = get("fave").build()
    got = alpha_sweep(rif, seed=np.int64(5))
    assert [cm.alpha for cm in got] == [cm.alpha for cm in alpha_sweep(rif, seed=5)]
    assert circle_nodes(np.int32(8)) is circle_nodes(8)
    cm = clark_measure(rif, 1.0)
    assert level_set_sample(cm, np.int64(4)).curve.shape == (4, 2)
    assert integrate(cm, lambda u, v: u, np.int64(64)) == integrate(cm, lambda u, v: u, 64)
