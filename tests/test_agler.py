"""Sums-of-squares pieces, orthonormal families, and the Gram isometry."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rifclark import agler, clark, polynomials
from rifclark.agler import (
    SosPiece,
    compute_Q,
    exceptional_R,
    gram_isometry_check,
    orthonormality_check,
    sos_residual,
)
from rifclark.catalog import get
from rifclark.clark import clark_measure
from rifclark.errors import DomainError, NumericError
from rifclark.polynomials import TrigPoly, UniPoly
from rifclark.quadrature import circle_nodes
from rifclark.rif import BiPolyN1, phi_eval, validate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

RNG = np.random.default_rng(404)
SQ2 = math.sqrt(2.0)


def _q_certificate(rif, q):
    z = circle_nodes(2048)
    t = TrigPoly.modulus_squared(rif.p1) - TrigPoly.modulus_squared(rif.p2)
    resid = np.max(np.abs(np.abs(q(z)) ** 2 - t.eval(z).real))
    return resid / max(1.0, np.max(np.abs(t.eval(z).real)))


def test_compute_q_certificates_all_entries():
    for name in ("fave", "amy", "amy-variant", "deg31"):
        rif = get(name).build()
        q = compute_Q(rif)
        assert _q_certificate(rif, q) < 1e-8


@pytest.mark.parametrize("n", [48, 64, 128])
@pytest.mark.parametrize("seed", range(4))
def test_compute_q_certifies_the_ladder(n, seed):
    # the product of t's inside roots, taken as values at the roots of
    # unity, certifies; convolving the roots one at a time failed the
    # certificate in half of these draws at n = 48 and in all at n >= 64
    f = gen.generate(np.random.default_rng([9, n, seed]), n)
    rif = validate(BiPolyN1(UniPoly(f.p1), UniPoly(f.p2), n))
    assert _q_certificate(rif, compute_Q(rif)) <= 1e-8


def test_compute_q_makes_no_root_find(monkeypatch):
    # Q comes from the split of t that validate keeps on the Rif
    rifs = [get(name).build() for name in ("fave", "amy", "amy-variant", "deg31")]
    f = gen.generate(np.random.default_rng([9, 32, 0]), 32)
    rifs.append(validate(BiPolyN1(UniPoly(f.p1), UniPoly(f.p2), 32)))

    def refuse(*args, **kwargs):
        raise AssertionError("compute_Q called roots")

    monkeypatch.setattr(polynomials, "roots", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    for rif in rifs:
        assert _q_certificate(rif, compute_Q(rif)) < 1e-8


def test_compute_q_vanishes_at_singular_abscissae():
    for name in ("fave", "amy", "deg31"):
        rif = get(name).build()
        q = compute_Q(rif)
        for s in rif.singularities:
            assert abs(q(s.tau)) < 1e-7


def test_sos_fixture_residuals():
    for name in ("fave", "amy"):
        e = get(name)
        rif = e.build()
        resid = sos_residual(rif, e.sos_fixture.Q, list(e.sos_fixture.R))
        assert resid < 1e-10


def test_sos_residual_detects_wrong_pieces():
    e = get("fave")
    rif = e.build()
    bad = [SosPiece(UniPoly([SQ2]), UniPoly([-0.9 * SQ2]))]
    assert sos_residual(rif, e.sos_fixture.Q, bad) > 1e-3


def test_exceptional_r_requires_exceptional_alpha():
    rif = get("amy").build()
    with pytest.raises(DomainError):
        exceptional_R(clark_measure(rif, complex(np.exp(0.3j))))


def test_exceptional_r_fave_closed_form():
    rif = get("fave").build()
    (piece,) = exceptional_R(clark_measure(rif, -1.0))
    # sqrt(2) * (1 - z2) up to unimodular scaling
    z1 = 0.3 + 0.1j
    ratio = piece.eval(z1, 0.25j) / (SQ2 * (1 - 0.25j))
    assert abs(abs(ratio) - 1.0) < 1e-12
    for z2 in (0.1, -0.5j):
        want = ratio * SQ2 * (1 - z2)
        assert abs(piece.eval(z1, z2) - want) < 1e-12


def test_exceptional_r_amy_closed_form():
    rif = get("amy").build()
    (piece,) = exceptional_R(clark_measure(rif, -1.0))
    # 2 sqrt(2) (1 - z1 z2) up to unimodular scaling
    ref = lambda z1, z2: 2 * SQ2 * (1 - z1 * z2)
    ratio = piece.eval(0.2, 0.3) / ref(0.2, 0.3)
    assert abs(abs(ratio) - 1.0) < 1e-12
    for z1, z2 in ((0.5j, -0.2), (0.9, 0.9)):
        assert abs(piece.eval(z1, z2) - ratio * ref(z1, z2)) < 1e-12


def test_exceptional_r_vanishes_at_singular_points():
    for name, alphas in (("fave", (-1.0,)), ("amy", (-1.0,)),
                         ("deg31", (-1.0, 1.0))):
        rif = get(name).build()
        for a in alphas:
            for piece in exceptional_R(clark_measure(rif, a)):
                for s in rif.singularities:
                    assert abs(piece.eval(s.tau, s.lam)) < 1e-10


def test_exceptional_r_refuses_a_tau_off_the_pencil_zero():
    cm = clark_measure(get("deg31").build(), -1.0)
    turned = [dataclasses.replace(s, tau=s.tau * np.exp(1e-3j))
              for s in cm.rif.singularities]
    cm = dataclasses.replace(
        cm, rif=dataclasses.replace(cm.rif, singularities=tuple(turned)))
    with pytest.raises(NumericError, match="not a common zero"):
        exceptional_R(cm)


def test_orthonormality_single_piece():
    for name, alphas in (("fave", (-1.0,)), ("amy", (-1.0,)),
                         ("amy-variant", (-1.0,)), ("deg31", (-1.0, 1.0))):
        rif = get(name).build()
        for a in alphas:
            cm = clark_measure(rif, a)
            pieces = exceptional_R(cm)
            gram = orthonormality_check(cm, pieces)
            dev = np.max(np.abs(gram - np.eye(len(pieces))))
            assert dev < 1e-7, (name, a, dev)


def test_orthonormality_two_lines_same_alpha():
    # p = 2 - z1^2 - z2 has singularities at (1, 1) and (-1, 1) sharing the
    # exceptional value -1; the R family has size 2.
    rif = validate(BiPolyN1(UniPoly([2.0, 0.0, -1.0]), UniPoly([-1.0]), 2))
    assert len(rif.singularities) == 2
    alphas = {complex(round(s.alpha.real, 9)) for s in rif.singularities}
    assert len(alphas) == 1
    a = rif.singularities[0].alpha
    cm = clark_measure(rif, a)
    pieces = exceptional_R(cm)
    assert len(pieces) == 2
    gram = orthonormality_check(cm, pieces)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-7


def test_gram_isometry_generic_and_exceptional():
    rif = get("amy").build()
    pts = [(0.2 + 0.1j, -0.3j), (0.0j, 0.4), (-0.25, 0.1 + 0.2j)]
    for alpha in (complex(np.exp(0.6j)), -1.0 + 0.0j):
        rep = gram_isometry_check(clark_measure(rif, alpha), pts)
        assert rep.max_abs_deviation < 1e-8
        g = np.array(rep.measured)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


def test_weighted_products_match_loop_reference(monkeypatch):
    # the weighted products sum in another order than the per-pair node
    # means they replaced; both stay within N eps of each other at N nodes.
    # The node data of the family pass comes at clark's RULE_NODES
    count = 1024
    monkeypatch.setattr(agler, "RULE_NODES", count)
    monkeypatch.setattr(clark, "RULE_NODES", count)
    bound = count * np.finfo(float).eps
    rif = get("deg31").build()
    pts = [(0.2 + 0.1j, -0.3j), (0.0j, 0.4), (-0.25, 0.1 + 0.2j)]
    for alpha in (complex(np.exp(0.6j)), -1.0 + 0.0j):
        cm = clark_measure(rif, alpha)
        rep = gram_isometry_check(cm, pts)
        z, z2, w = cm.node_data(count)

        def image(p, u, v):
            pref = 1.0 - cm.alpha * np.conj(phi_eval(rif, p))
            return pref / ((1.0 - np.conj(p[0]) * u) * (1.0 - np.conj(p[1]) * v))

        for i, p_i in enumerate(pts):
            for j, p_j in enumerate(pts):
                want = np.mean(image(p_i, z, z2) * np.conj(image(p_j, z, z2)) * w)
                for tau, mass in cm.lines:
                    want += mass * np.mean(image(p_i, tau, z) * np.conj(image(p_j, tau, z)))
                assert abs(rep.measured[i, j] - want) <= bound * max(1.0, abs(want))
    # two lines at one exceptional value, two pieces
    rif = validate(BiPolyN1(UniPoly([2.0, 0.0, -1.0]), UniPoly([-1.0]), 2))
    cm = clark_measure(rif, rif.singularities[0].alpha)
    pieces = exceptional_R(cm)
    gram = orthonormality_check(cm, pieces)
    z = np.exp(2j * np.pi * (np.arange(count) + 0.5) / count)
    z2 = cm.curve_z2(z)
    w = cm.weight_eval(z)
    ratios = [piece.eval(z, z2) / rif.p.eval(z, z2) for piece in pieces]
    for i, ri in enumerate(pieces):
        for j, rj in enumerate(pieces):
            want = np.mean(ratios[i] * np.conj(ratios[j]) * w)
            for tau, mass in cm.lines:
                p2t = rif.p2(tau)
                want += mass * ri.q(tau) / p2t * np.conj(rj.q(tau) / p2t)
            assert abs(gram[i, j] - want) <= bound * max(1.0, abs(want))


def test_gram_isometry_rejects_boundary_point():
    rif = get("fave").build()
    with pytest.raises(DomainError):
        gram_isometry_check(clark_measure(rif, 1.0), [(1.0 + 0.0j, 0.0j)])


def test_sos_residual_normalized_and_seeded():
    e = get("amy")
    rif = e.build()
    r1 = sos_residual(rif, e.sos_fixture.Q, list(e.sos_fixture.R), seed=7)
    r2 = sos_residual(rif, e.sos_fixture.Q, list(e.sos_fixture.R), seed=7)
    assert r1 == r2
