"""Univariate and trigonometric polynomial layer."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from rifclark import clark as clark_module
from rifclark import polynomials, verification
from rifclark import rif as rif_module
from rifclark.catalog import get
from rifclark.clark import clark_measure
from rifclark.errors import DomainError, NumericError
from rifclark.polynomials import (
    CLUSTER_RADIUS,
    BlaschkeProduct,
    TrigPoly,
    UniPoly,
    blaschke_from_rational,
    fejer_riesz,
    roots,
)
from rifclark.rif import BiPolyN1, validate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

RNG = np.random.default_rng(101)
EPS = float(np.finfo(float).eps)


def test_unipoly_basic_arithmetic():
    p = UniPoly([1.0, 2.0, 3.0])
    q = UniPoly([-1.0, 1.0])
    s = p + q
    d = p - q
    m = p * q
    z = 0.3 + 0.4j
    assert abs(s(z) - (p(z) + q(z))) < 1e-14
    assert abs(d(z) - (p(z) - q(z))) < 1e-14
    assert abs(m(z) - p(z) * q(z)) < 1e-14
    assert (2.0 * p).degree == 2
    assert (p * 0.0).degree < 0


def test_unipoly_trailing_zero_trim_and_degree():
    p = UniPoly([1.0, 0.0, 0.0])
    assert p.degree == 0
    assert UniPoly([0.0, 0.0]).degree < 0
    assert len(UniPoly([]).coeffs) == 0


def test_unipoly_eval_matches_numpy_horner():
    for _ in range(25):
        c = RNG.normal(size=6) + 1j * RNG.normal(size=6)
        p = UniPoly(c)
        z = RNG.normal() + 1j * RNG.normal()
        want = np.polyval(c[::-1], z)
        assert abs(p(z) - want) < 1e-12 * (1 + abs(want))


def test_unipoly_derivative():
    p = UniPoly([1.0, -2.0, 0.0, 4.0])
    dp = p.derivative()
    z = 0.7 - 0.1j
    h = 1e-6
    fd = (p(z + h) - p(z - h)) / (2 * h)
    assert abs(dp(z) - fd) < 1e-8


def test_from_roots_reproduces_a_product_of_128_roots():
    # 128 roots of modulus 0.97 on the grid 2**-20: the coefficients of
    # prod (2**20 z - 2**20 r) = 2**2560 prod (z - r) are Gaussian
    # integers, so Python integers give the product exactly
    rng = np.random.default_rng(128)
    r = np.round(0.97 * np.exp(2j * np.pi * rng.uniform(size=128)) * 2 ** 20) / 2 ** 20
    coef = [(1, 0)]
    for x in r:
        a, b = int(x.real * 2 ** 20), int(x.imag * 2 ** 20)
        up = [(0, 0)] + [(c << 20, d << 20) for c, d in coef]
        coef = [(u - (a * c - b * d), v - (a * d + b * c))
                for (u, v), (c, d) in zip(up, coef + [(0, 0)])]
    exact = np.array([complex(c / 2 ** 2560, d / 2 ** 2560) for c, d in coef])
    got = UniPoly.from_roots(r).coeffs
    assert got.size == 129
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_unipoly_deflate_reconstructs():
    p = UniPoly.from_roots([0.5, -0.25 + 0.1j, 2.0], leading=1.5)
    q, rem = p.deflate(0.5)
    assert abs(rem) < 1e-12
    back = q * UniPoly([-0.5, 1.0])
    assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-12


def test_conj_reflect_involution_and_modulus():
    c = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    p = UniPoly(c)
    n = 3
    refl = p.conj_reflect(n)
    assert np.max(np.abs(refl.conj_reflect(n).coeffs - p.coeffs)) == 0.0
    z = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=16))
    assert np.max(np.abs(np.abs(refl(z)) - np.abs(p(z)))) < 1e-13


def test_roots_simple_and_clustered():
    p = UniPoly.from_roots([0.3, 0.3, -0.7j], leading=2.0)
    got = roots(p)
    mults = sorted(m for _r, m in got)
    assert mults == [1, 2]
    double = [r for r, m in got if m == 2][0]
    assert abs(double - 0.3) < 1e-6


def test_roots_high_multiplicity_certified():
    # (z - 0.9)^4: float rounding splits the quadruple root by about
    # eps^(1/4) ~ 5e-4, beyond the default merge radius; an explicit
    # cluster radius certifies the full multiplicity.
    p = UniPoly.from_roots([0.9] * 4, leading=1.0)
    split = roots(p)
    assert sum(m for _r, m in split) == 4
    assert all(abs(r - 0.9) < 1e-3 for r, _m in split)
    merged = roots(p, cluster_radius=1e-3)
    assert len(merged) == 1
    r, m = merged[0]
    assert m == 4
    assert abs(r - 0.9) < 1e-3


def test_roots_zero_poly_raises():
    with pytest.raises(DomainError):
        roots(UniPoly([0.0]))


def test_roots_rejects_non_finite_coefficients():
    for bad in ([1.0, np.nan], [np.inf, 1.0, 2.0], [1.0, 2.0, complex(0.0, np.nan)]):
        with pytest.raises(DomainError):
            roots(UniPoly(bad))


def test_trigpoly_modulus_squared_real_on_circle():
    c = RNG.normal(size=5) + 1j * RNG.normal(size=5)
    p = UniPoly(c)
    t = TrigPoly.modulus_squared(p)
    z = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=32))
    vals = t.eval(z)
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert np.max(np.abs(vals.real - np.abs(p(z)) ** 2)) < 1e-11
    assert t.hermitian_defect() < 1e-15


def test_trigpoly_theta_eval_derivative():
    t = TrigPoly.modulus_squared(UniPoly([1.0, -0.4, 0.3j]))
    th = 0.9
    h = 1e-5
    fd = (t.theta_eval(th + h) - t.theta_eval(th - h)) / (2 * h)
    assert abs(t.theta_eval(th, order=1) - fd) < 1e-8


def test_fejer_riesz_random_factorizations():
    for k in range(12):
        rng = np.random.default_rng(500 + k)
        g = UniPoly(rng.normal(size=4) + 1j * rng.normal(size=4))
        t = TrigPoly.modulus_squared(g)
        q = fejer_riesz(t)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))
        resid = np.max(np.abs(np.abs(q(z)) ** 2 - t.eval(z).real))
        assert resid < 1e-8 * max(1.0, np.max(np.abs(t.eval(z).real)))
        # outer normalization: no zeros outside the closed disk
        assert all(abs(r) <= 1 + 1e-8 for r, _m in roots(q)) or q.degree == 0


def _autocorrelation_loop(a):
    """The lag-by-lag autocorrelation that modulus_squared replaced."""
    d = a.size - 1
    c = np.zeros(2 * d + 1, dtype=complex)
    for k in range(d + 1):
        v = np.sum(a[k:] * np.conj(a[: a.size - k]))
        c[d + k] = v
        c[d - k] = np.conj(v)
    return c


def test_trigpoly_modulus_squared_matches_lag_loop():
    for n in (0, 1, 2, 5, 17, 64):
        a = RNG.normal(size=n + 1) + 1j * RNG.normal(size=n + 1)
        t = TrigPoly.modulus_squared(UniPoly(a))
        want = _autocorrelation_loop(a)
        assert t.d == n
        assert np.max(np.abs(t.coeffs - want)) <= 8 * (n + 1) * EPS * np.sum(np.abs(a) ** 2)
        assert t.hermitian_defect() == 0.0


def test_fft_values_match_horner():
    # degrees 0 to 256; counts below the degree fold powers modulo count
    rng = np.random.default_rng(7)
    for deg in list(range(17)) + [31, 32, 33, 64, 100, 127, 128, 255, 256]:
        t = TrigPoly(rng.normal(size=2 * deg + 1) + 1j * rng.normal(size=2 * deg + 1), deg)
        scale_t = np.sum(np.abs(t.coeffs))
        for count in {1, max(1, deg // 3), max(1, deg), deg + 1, 512}:
            z = np.exp(2j * np.pi * np.arange(count) / count)
            assert np.max(np.abs(t.node_values(count) - t.eval(z))) <= 1e-13 * scale_t


def test_roots_keep_small_leading_coefficients():
    # coefficient span 1.8e15: the top three coefficients sit below 1e-13
    # of the largest and belong to the polynomial all the same
    rng = np.random.default_rng(3)
    true_roots = rng.uniform(1.05, 1.6, 96) * np.exp(2j * np.pi * rng.uniform(size=96))
    c = P.polyfromroots(true_roots)
    assert abs(c[-1]) / np.max(np.abs(c)) < 1e-15
    found = roots(UniPoly(c))
    assert sum(m for _r, m in found) == 96
    for r, _m in found:
        assert abs(P.polyval(r, c)) <= 1e-12 * P.polyval(abs(r), np.abs(c))


def test_fejer_riesz_with_circle_zero():
    g = UniPoly([-1.0, 1.0]) * UniPoly([3.0, 1.0])
    t = TrigPoly.modulus_squared(g)
    q = fejer_riesz(t)
    z = np.exp(1j * np.linspace(0, 6.28, 41))
    assert np.max(np.abs(np.abs(q(z)) ** 2 - t.eval(z).real)) < 1e-8


@pytest.mark.parametrize("extra", [[], [0.5, -0.3j]], ids=["alone", "with-two-roots"])
@pytest.mark.parametrize("gap", [5e-4, 2e-4, 5e-5])
def test_fejer_riesz_root_next_to_the_circle(gap, extra):
    # t = |q|^2 with a root of q just outside the circle: t's mirror pair
    # straddles the circle inside the candidate band, fails certification
    # as a circle zero and must go back to the roots with its own moduli
    q = UniPoly.from_roots([(1 + gap) * np.exp(0.7j)] + extra)
    t = TrigPoly.modulus_squared(q)
    f = fejer_riesz(t)
    z = np.exp(2j * np.pi * np.arange(512) / 512)
    assert np.max(np.abs(np.abs(f(z)) ** 2 - t(z).real)) <= 1e-12
    assert all(abs(r) < 1.0 for r, _m in roots(f))


def test_circle_zeros_of_a_catalog_boundary_polynomial():
    # amy's t = |p1|^2 - |p2|^2 has one circle zero, of order four, at 1
    ((tau, mult),) = get("amy").build().t.circle_zeros()
    assert mult == 4
    assert abs(tau - 1.0) <= 1e-12


def test_fejer_riesz_rejects_sign_changing():
    # cos(theta) takes both signs on the circle
    t = TrigPoly([0.5, 0.0, 0.5], 1)
    with pytest.raises((DomainError, NumericError)):
        fejer_riesz(t)


def test_fejer_riesz_band_zero():
    f = fejer_riesz(TrigPoly([4.0], 0))
    assert f == UniPoly([2.0])
    # -1e-10 passes the sign check's tolerance, and the band-0 branch refuses it
    for c0 in (-1.0, -1e-10):
        with pytest.raises(DomainError, match="negative"):
            fejer_riesz(TrigPoly([c0], 0))


def test_blaschke_product_modulus():
    b = BlaschkeProduct(np.exp(0.3j), (0.2 + 0.1j, -0.5j))
    z = np.exp(1j * np.linspace(0, 6.28, 33))
    assert np.max(np.abs(np.abs(b(z)) - 1.0)) < 1e-12


def test_blaschke_factors_match_eval():
    b = BlaschkeProduct(np.exp(0.3j), (0.2 + 0.1j, -0.5j, 0.0, 0.9 * np.exp(2.0j)))
    z = np.exp(1j * np.linspace(0, 6.28, 33))
    # reference: one Blaschke factor at a time
    want = np.full(z.shape, b.constant)
    for a in b.zeros:
        want = want * (z - a) / (1.0 - np.conj(a) * z)
    assert np.max(np.abs(b(z) - want)) < 1e-14
    one = b(complex(z[5]))
    assert isinstance(one, complex) and abs(one - want[5]) < 1e-14


def test_blaschke_from_rational_recovers():
    zeros = [0.3 + 0.2j, -0.4j]
    b = BlaschkeProduct(np.exp(1.1j), tuple(zeros))
    num = UniPoly.from_roots(zeros, leading=b.constant)
    den = UniPoly.from_roots([np.conj(1 / z) for z in zeros],
                             leading=np.prod([-np.conj(z) for z in zeros]))
    got = blaschke_from_rational(num, den)
    z = np.exp(1j * np.linspace(0.05, 6.2, 29))
    assert np.max(np.abs(got(z) - b(z))) < 1e-10


def test_blaschke_from_rational_rejects_outer_zero():
    num = UniPoly.from_roots([1.5])
    den = UniPoly.from_roots([1 / 1.5])
    with pytest.raises((DomainError, NumericError)):
        blaschke_from_rational(num, den)


def test_blaschke_from_rational_rejects_non_reflected_denominator():
    num = UniPoly.from_roots([0.3 + 0.2j, -0.4j], leading=1.5)
    den = num.conj_reflect(2) + UniPoly([0.0, 1e-3])
    with pytest.raises(DomainError, match="reflected numerator"):
        blaschke_from_rational(num, den)


def test_blaschke_from_rational_folds_common_circle_zero():
    tau = np.exp(0.9j)
    num = UniPoly.from_roots([tau, 0.3 + 0.2j, -0.4j], leading=1.5 - 0.5j)
    den = np.exp(0.4j) * num.conj_reflect(3)
    got = blaschke_from_rational(num, den)
    num2, den2, cancelled = polynomials.cancel_common_unimodular(num, den)
    assert len(cancelled) == 1 and abs(cancelled[0] - tau) < 1e-9
    want = blaschke_from_rational(num2, den2)
    assert got.degree == want.degree == 2
    assert np.max(np.abs(np.array(got.zeros) - np.array(want.zeros))) < 1e-12
    assert abs(got.constant - want.constant) < 1e-12
    z = np.exp(1j * np.linspace(0.05, 6.2, 29))
    assert np.max(np.abs(got(z) - num(z) / den(z))) < 1e-10


def test_blaschke_from_rational_rejects_lower_numerator_degree():
    # den = num reflected in degree 2 is divisible by z: a pole at the origin
    num = UniPoly([1.0, 0.5])
    den = num.conj_reflect(2)
    with pytest.raises(DomainError, match="denominator zero inside the closed disk"):
        blaschke_from_rational(num, den)


def test_unipoly_json_roundtrip():
    p = UniPoly([1.0 + 2.0j, -0.5, 0.25j])
    back = UniPoly.from_json(p.to_json())
    assert np.array_equal(back.coeffs, p.coeffs)


def _ring(rng, n, lo, hi):
    """n roots at jittered, equally spaced angles with moduli in [lo, hi]."""
    angle = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n + 2 * np.pi * rng.uniform()
    return rng.uniform(lo, hi, n) * np.exp(1j * angle)


def _root_cases():
    """Root sets, one pytest.param each.  Every family keeps the coefficient
    span below 1e12; test_roots_keep_small_leading_coefficients takes a
    wider span."""
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128):
        yield pytest.param(_ring(rng, n, 0.5, 1.5), id=f"ring-{n}")
        yield pytest.param(_ring(rng, n, 1 - 1e-3, 1 + 1e-3), id=f"near-circle-{n}")
        if n <= 64:
            angle = 2 * np.pi * rng.uniform(size=n)
            yield pytest.param(np.sqrt(rng.uniform(0.25, 2.25, n)) * np.exp(1j * angle),
                               id=f"random-{n}")
        if n <= 48:
            angle = 2 * np.pi * rng.uniform(size=n)
            yield pytest.param(rng.uniform(1.05, 1.6, n) * np.exp(1j * angle),
                               id=f"outside-{n}")
    for n in (6, 9, 12):
        # three tight groups: distinct roots 1e-3 apart, far above the merge radius
        centres = np.repeat(_ring(rng, 3, 0.4, 1.2), n // 3)
        yield pytest.param(centres + 1e-3 * np.exp(2j * np.pi * rng.uniform(size=n)),
                           id=f"clustered-{n}")


def _assert_agree_with_numpy(c):
    n = len(c) - 1
    ac = np.abs(c)
    found = roots(UniPoly(c))
    assert sum(m for _r, m in found) == n
    assert all(m == 1 for _r, m in found)
    for r, _m in found:
        # the residual certificate, evaluated independently of roots()
        assert abs(P.polyval(r, c)) <= 1e-8 * P.polyval(abs(r), ac)
    got = np.array([r for r, _m in found])
    ref = np.roots(c[::-1])
    dc = P.polyder(c)
    for a, b in ((ref, got), (got, ref)):
        for rho in a:
            # first-order error bound for a backward error of (n + 1) eps in
            # max |c_k|, the normwise sense in which numpy.roots is stable
            kappa = np.max(ac) * P.polyval(abs(rho), np.ones(n + 1)) / abs(P.polyval(rho, dc))
            assert np.min(np.abs(b - rho)) <= 100 * EPS * (n + 1) * kappa


@pytest.mark.parametrize("true_roots", list(_root_cases()))
def test_roots_agree_with_numpy(true_roots):
    c = P.polyfromroots(true_roots)
    assert np.max(np.abs(c)) / abs(c[-1]) < 1e12
    _assert_agree_with_numpy(c)


def _start_cases():
    """Coefficient arrays whose Newton polygons exercise the Aberth start."""
    yield pytest.param(np.array([1.0, 0, 0, -3, 0, 0, 1]), id="interior-zeros")
    # (z**4 - 16)(z**3 - 1e-3): rings of radii 0.1 and 2, four zero coefficients
    yield pytest.param(P.polymul([-16, 0, 0, 0, 1], [-1e-3, 0, 0, 1]), id="two-rings-interior-zeros")
    yield pytest.param(np.array([-(0.3 + 0.4j)] + [0] * 11 + [1]), id="single-edge-12")
    yield pytest.param(np.array([-5.0] + [0] * 6 + [1]), id="single-edge-7")
    rng = np.random.default_rng(11)
    yield pytest.param(P.polyfromroots(np.concatenate(
        [_ring(rng, 6, 0.01, 0.012), _ring(rng, 6, 2.0, 2.4)])), id="span-1e11")
    yield pytest.param(np.array([2 - 1j, 0.5]), id="degree-1")
    yield pytest.param(np.array([0.3, -1.0, 2.0]), id="degree-2")
    yield pytest.param(np.array([4.0, 0, 1]), id="degree-2-interior-zero")


@pytest.mark.parametrize("c", list(_start_cases()))
def test_roots_from_newton_polygon_start_edge_cases(c):
    _assert_agree_with_numpy(c)


def test_newton_polygon_start_follows_the_hull_edges():
    # (z**4 - 16)(z**3 - 1e-3): edges 0 -> 3 and 3 -> 7 of radii 0.1 (clipped
    # to 0.2) and 2; the coefficient of z**4 lies below the hull
    c = P.polymul([-16, 0, 0, 0, 1], [-1e-3, 0, 0, 1])
    z = polynomials._newton_polygon_start(c)
    assert np.allclose(np.abs(z), [0.2] * 3 + [2.0] * 4)
    # a single edge: one circle of radius |c_0 / c_n|**(1 / n), as before
    z = polynomials._newton_polygon_start(np.array([-5.0] + [0] * 6 + [1]))
    assert np.allclose(z, 5 ** (1 / 7) * np.exp(2j * np.pi * (np.arange(7) + 0.37) / 7 + 0.41j))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_aberth_sweeps_on_the_boundary_polynomial(monkeypatch, n):
    # t = |p1|^2 - |p2|^2 has its roots on two rings, one inside the circle
    # and its mirror image outside; starting them on one circle of radius
    # |c_0 / c_2n|**(1 / 2n) took 30 to 50 sweeps, growing with n
    sweeps = []
    real = polynomials._eval_scaled

    def counted(*args):
        sweeps[-1] += 1
        return real(*args)

    monkeypatch.setattr(polynomials, "_eval_scaled", counted)
    for seed in range(3):
        poly, _taus = _generated_rif(n, seed)
        t = TrigPoly.modulus_squared(poly.p1) - TrigPoly.modulus_squared(poly.p2)
        sweeps.append(0)
        c = t.as_poly()[0].coeffs[None]
        polynomials._aberth(c, polynomials._eval_tables(c))
    assert max(sweeps) <= 24, sweeps


@pytest.mark.parametrize("start", [
    # one iterate on the critical point 0: a zero slope
    pytest.param([0j, 0.5 + 0.5j], id="zero-slope"),
    # at 2 the Newton correction is 0.75 and the Aberth sum 1 / 0.75, so
    # the denominator 1 - 0.75 * (1 / 0.75) is exactly zero
    pytest.param([2 + 0j, 1.25 + 0j], id="zero-denominator"),
])
def test_aberth_guards_a_non_finite_step(monkeypatch, start):
    # the guards run only once a sweep's step comes out non-finite
    c = np.array([-1.0, 0.0, 1.0], dtype=complex)
    monkeypatch.setattr(polynomials, "_newton_polygon_start", lambda _c: np.array([start]))
    z = np.sort_complex(polynomials._aberth(c[None], polynomials._eval_tables(c[None]))[0])
    assert np.allclose(z, [-1.0, 1.0], rtol=0, atol=1e-14)
    found = roots(UniPoly(c))
    assert [m for _r, m in found] == [1, 1]
    assert np.allclose([r for r, _m in found], [-1.0, 1.0], rtol=0, atol=1e-14)


def test_roots_fall_back_to_the_companion_matrix(monkeypatch):
    # Aberth stopped at its starting points certifies nothing, so roots()
    # takes the companion-matrix eigenvalues and certifies those
    true_roots = np.array([0.5, -0.3 + 0.8j, 1.7j, -2.0, 0.9 - 0.1j])
    c = P.polyfromroots(true_roots)
    calls = []
    eig = np.roots
    monkeypatch.setattr(polynomials, "_aberth",
                        lambda c, _tables: polynomials._newton_polygon_start(c))
    monkeypatch.setattr(polynomials.np, "roots", lambda a: calls.append(a) or eig(a))
    found = roots(UniPoly(c))
    assert len(calls) == 1
    assert [m for _r, m in found] == [1] * 5
    z = np.array([r for r, _m in found])
    scale = np.abs(c) @ np.abs(z[None, :]) ** np.arange(c.size)[:, None]
    assert np.all(np.abs(P.polyval(z, c)) <= polynomials.TOL * scale)
    for r in true_roots:
        assert np.min(np.abs(z - r)) < 1e-12


def _stack_rows():
    """Rows of one seven-column stack, each a case that a stack must keep
    apart from its neighbours: the row alone gives the same answer."""
    rng = np.random.default_rng(28)
    return {
        "plain": P.polyfromroots(_ring(rng, 6, 0.5, 1.5)),
        # the pencils of amy-variant have the root 0 at every alpha
        "zero-constant": P.polyfromroots(np.r_[0.0, _ring(rng, 5, 0.4, 1.6)]),
        "clustered": P.polyfromroots(np.r_[0.3, 0.3, _ring(rng, 4, 0.6, 1.4)]),
        # degree 5 in a stack of degree 6: root-found at its own degree
        "top-zero": np.r_[P.polyfromroots(_ring(rng, 5, 0.5, 1.5)), 0.0],
        "fallback": P.polyfromroots(_ring(rng, 6, 0.7, 1.3)),
        "refused": P.polyfromroots(_ring(rng, 6, 0.6, 1.2)),
        "also-plain": P.polyfromroots(_ring(rng, 6, 0.2, 3.0)),
    }


def test_roots_of_a_stack_match_each_row_alone(monkeypatch):
    rows = _stack_rows()
    # Aberth leaves two rows at their starting points, so their certificate
    # fails; the companion matrix then certifies one and not the other
    aberth, eig = polynomials._aberth, np.roots

    def stalled(c, tables):
        z = aberth(c, tables)
        for k, row in enumerate(c):
            if any(np.array_equal(row, rows[name]) for name in ("fallback", "refused")):
                z[k] = polynomials._newton_polygon_start(row[None])[0]
        return z

    def companion(a):
        calls.append(a[::-1])
        if np.array_equal(a[::-1], rows["refused"]):
            return np.full(a.size - 1, 0.5 + 0.5j)
        return eig(a)

    monkeypatch.setattr(polynomials, "_aberth", stalled)
    monkeypatch.setattr(polynomials.np, "roots", companion)
    calls = []
    stacked = roots(np.array(list(rows.values())))
    assert len(calls) == 2
    for name, got in zip(rows, stacked):
        try:
            alone = roots(UniPoly(rows[name]))
        except NumericError as err:
            assert name == "refused"
            assert isinstance(got, NumericError) and str(got) == str(err)
            continue
        assert [m for _r, m in got] == [m for _r, m in alone], name
        assert np.allclose([r for r, _m in got], [r for r, _m in alone], rtol=0, atol=1e-15), name
    found = dict(zip(rows, stacked))
    assert found["zero-constant"][[r for r, _m in found["zero-constant"]].index(0j)] == (0j, 1)
    assert sorted(m for _r, m in found["clustered"]) == [1, 1, 1, 1, 2]
    assert sum(m for _r, m in found["top-zero"]) == 5
    assert sum(m for _r, m in found["fallback"]) == 6


def test_one_row_root_find_builds_its_tables_once(monkeypatch):
    # _stack_roots hands the coefficient tables it builds to _aberth
    shapes = []
    real = polynomials._eval_tables

    def counted(c):
        shapes.append(c.shape)
        return real(c)

    monkeypatch.setattr(polynomials, "_eval_tables", counted)
    found = roots(UniPoly(P.polyfromroots([0.5, -0.3 + 0.8j, 1.7j, -2.0])))
    assert [m for _r, m in found] == [1] * 4
    assert shapes == [(1, 5)]


def test_points_all_outside_evaluate_as_next_to_an_inside_point():
    # when every point lies outside the disk the power table is made at 1/z
    # and reversed whole; each point must get the bits it gets when an
    # inside point makes the table pick the outside rows one by one.  The
    # two sets have the same size, since BLAS may round a product of
    # another shape differently
    rng = np.random.default_rng(29)
    c = P.polyfromroots(_ring(rng, 9, 0.5, 1.5))
    tables = tuple(t[0] for t in polynomials._eval_tables(c[None]))
    wide = tables + (c.astype(np.clongdouble),)
    for count in (1, 6, 9, 11, 17, 31):
        z = rng.uniform(1.01, 3.0, count + 1) * np.exp(2j * np.pi * rng.uniform(size=count + 1))
        mixed = np.r_[z[:-1], 0.3 - 0.4j]
        for evaluate, tabs in ((polynomials._eval_scaled, tables),
                               (polynomials._eval_extended, wide)):
            for got, want in zip(evaluate(tabs, z), evaluate(tabs, mixed)):
                assert got[:-1].tobytes() == want[:-1].tobytes(), (evaluate.__name__, count)


def _theta_eval_certificate(t):
    """_certify_circle_zero as it was before its derivatives shared one
    exp(ik theta) per angle: a Newton polish on the (m-1)-th angular
    derivative and a certificate on the first m, each derivative from
    TrigPoly.theta_eval and each bound from TrigPoly.derivative_scale."""

    def polish(theta0, m):
        th = float(theta0)
        for _ in range(60):
            h = t.theta_eval(th, m - 1).real
            hp = t.theta_eval(th, m).real
            if hp == 0.0:
                break
            step = h / hp
            th -= step
            if abs(step) <= 1e-15:
                break
            if abs(th - theta0) > 2 * polynomials.CIRCLE_BAND + 0.01:
                return None
        return th

    def certify(_terms, members):
        m = len(members)
        center = sum(r / abs(r) for r in members) / m
        theta = polish(math.atan2(center.imag, center.real), m)
        if theta is None:
            return None
        for j in range(m):
            if abs(t.theta_eval(theta, j)) > polynomials._CERT_REL * max(t.derivative_scale(j), 1.0):
                return None
        return complex(math.cos(theta), math.sin(theta))

    return certify


def _boundary_polynomials():
    """(t, number of failed certificate attempts)."""
    for n in (8, 24, 48):
        for s in range(2):
            f = gen.generate(np.random.default_rng([9, n, s]), n)
            p1, p2 = UniPoly(f.p1), UniPoly(f.p2)
            yield pytest.param(TrigPoly.modulus_squared(p1) - TrigPoly.modulus_squared(p2), 0,
                               id=f"ladder-{n}-{s}")
    # amy's boundary polynomial has a zero of order 4 at tau = 1
    yield pytest.param(get("amy").build().t, 0, id="amy")
    # a double zero at 1 and the mirror pair 1.001 e^{2i}, e^{2i} / 1.001:
    # that cluster fails at orders 2 and 1 and is demoted
    yield pytest.param(TrigPoly.modulus_squared(UniPoly(P.polyfromroots(
        [1.0, 1.001 * np.exp(2j), 0.5j]))), 2, id="mirror-pair")


@pytest.mark.parametrize("t,failed", list(_boundary_polynomials()))
def test_circle_zeros_keep_their_bits_and_decisions(monkeypatch, t, failed):
    # every certificate attempt, (order, zero or None), and the split itself
    # must come out as they did from TrigPoly.theta_eval
    def run(certify):
        decisions = []

        def recorded(terms, members):
            tau = certify(terms, members)
            decisions.append((len(members), tau))
            return tau

        monkeypatch.setattr(polynomials, "_certify_circle_zero", recorded)
        circle, inside = polynomials._split_circle_roots(t)
        return repr((circle, inside)), decisions

    got = run(polynomials._certify_circle_zero)
    want = run(_theta_eval_certificate(t))
    assert got == want
    assert sum(tau is None for _m, tau in got[1]) == failed
    assert any(tau is not None for _m, tau in got[1])


def test_roots_of_a_stack_refuse_rows_one_by_one():
    stack = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, np.nan, 1.0], [0.0, 2.0, 0.0]])
    got = roots(stack)
    assert [m for _r, m in got[0]] == [1, 1]
    assert isinstance(got[1], DomainError) and "zero polynomial" in str(got[1])
    assert isinstance(got[2], DomainError) and "finite" in str(got[2])
    assert got[3] == [(0j, 1)]
    assert roots(np.zeros((0, 3))) == []


@pytest.mark.parametrize("n,mult,radius", [
    (4, 2, CLUSTER_RADIUS), (8, 2, CLUSTER_RADIUS), (12, 2, CLUSTER_RADIUS),
    (16, 2, CLUSTER_RADIUS), (4, 4, 1e-3), (6, 4, 1e-3),
])
def test_roots_near_circle_multiplicities(n, mult, radius):
    # double roots on and just inside the circle, or one quadruple root,
    # among simple roots well inside the disk
    rng = np.random.default_rng([n, mult])
    taus = (np.exp(1j * np.array([0.4, 2.5])) * np.array([1.0, 1 - 1e-3]))[: 4 // mult]
    c = P.polyfromroots(np.concatenate(
        [np.repeat(taus, mult), _ring(rng, n - mult * taus.size, 0.2, 0.5)]))
    found = roots(UniPoly(c), cluster_radius=radius)
    assert sum(m for _r, m in found) == n
    multiple = sorted((r for r, m in found if m > 1), key=lambda r: r.real)
    assert [m for _r, m in found if m > 1] == [mult] * taus.size
    for r, tau in zip(multiple, sorted(taus, key=lambda t: t.real)):
        assert abs(r - tau) < radius
    ac = np.abs(c)
    for r, _m in found:
        assert abs(P.polyval(r, c)) <= 1e-8 * P.polyval(abs(r), ac)


def _wide_ring(rng, count):
    """Roots at uniformly random angles, half with moduli in [0.45, 0.75] and
    half in [1.35, 2.2]: the coefficient span grows geometrically with
    count, and some pencil zeros come close to the circle."""
    inner = count // 2
    mod = np.concatenate([rng.uniform(0.45, 0.75, inner), rng.uniform(1.35, 2.2, count - inner)])
    return mod * np.exp(2j * np.pi * rng.uniform(size=count))


def _generated_rif(n, seed, ring=lambda rng, count: _ring(rng, count, 0.6, 0.8)):
    """Stable (n,1) polynomial with order-one contacts at e^{0.7i} and e^{3.9i}.

    p2 and Q have the roots ring(rng, count) gives, by default at jittered,
    equally spaced angles with moduli in [0.6, 0.8]; Q also vanishes at the
    contacts.  p1 is the outer factor of |p2|^2 + |Q|^2, so
    |p1|^2 - |p2|^2 = |Q|^2 on the circle.
    """
    rng = np.random.default_rng([seed, n])
    taus = np.exp(1j * np.array([0.7, 3.9]))
    q = P.polyfromroots(np.concatenate([taus, ring(rng, n - 2)]))
    q /= np.max(np.abs(q))
    p2 = P.polyfromroots(ring(rng, n))
    p2 *= 0.8 / np.max(np.abs(p2))
    t = np.convolve(p2, np.conj(p2[::-1])) + np.convolve(q, np.conj(q[::-1]))
    r = np.roots(t[::-1])
    f = P.polyfromroots(r[np.abs(r) > 1.0])
    z = np.exp(2j * np.pi * (np.arange(4 * n + 8) + 0.5) / (4 * n + 8))
    tv = np.real(P.polyval(z, t) * z ** (-n))
    p1 = np.sqrt(np.median(tv / np.abs(P.polyval(z, f)) ** 2)) * f
    return BiPolyN1(UniPoly(p1), UniPoly(p2), n), taus


@pytest.mark.filterwarnings("error")
def test_validate_and_clark_measure_at_degree_128():
    # seed 7 has a pencil coefficient span at which a fixed threshold on
    # the quotient u / v / B rejected correct Blaschke data
    for seed in (0, 7):
        poly, taus = _generated_rif(128, seed)
        rif = validate(poly)
        assert [s.mult for s in rif.singularities] == [2, 2]
        for s in rif.singularities:
            assert min(abs(s.tau - taus)) < 1e-6
        for alpha in (1j,) + tuple(s.alpha for s in rif.singularities):
            cm = clark_measure(rif, alpha)
            assert cm.balpha.degree == 128 - len(cm.lines)
            assert abs(cm.total_mass() - cm.closed_form_mass()) < 1e-8


def test_wide_span_generic_measures_lie_on_the_level_set():
    # every generic alpha on a 32-point grid that clark_measure accepts
    # must put its curve (zeta, conj B_alpha(zeta)) on ptilde - alpha p = 0;
    # the residual is computed with numpy from the input coefficients
    zeta = np.exp(2j * np.pi * (np.arange(256) + 0.5) / 256)
    accepted = 0
    for seed in (1, 2, 3):
        poly, _taus = _generated_rif(64, seed, _wide_ring)
        rif = validate(poly)
        p1, p2 = poly.p1.padded(65), poly.p2.padded(65)
        pt1, pt2 = np.conj(p1[::-1]), np.conj(p2[::-1])
        for alpha in np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32):
            try:
                cm = clark_measure(rif, alpha)
            except (DomainError, NumericError):
                continue
            accepted += 1
            z2 = cm.curve_z2(zeta)
            pt = P.polyval(zeta, pt2) + z2 * P.polyval(zeta, pt1)
            pv = P.polyval(zeta, p1) + z2 * P.polyval(zeta, p2)
            resid = np.max(np.abs(pt - alpha * pv)) / np.max(np.abs(pt) + np.abs(pv))
            assert resid <= 1e-11, (seed, alpha, resid)
            # the roots of u reproduce its coefficients
            u = pt1 - alpha * p2
            lead = u[np.flatnonzero(u)[-1]]
            rebuilt = lead * P.polyfromroots(
                [r for r, m in polynomials.roots(UniPoly(u)) for _ in range(m)])
            err = np.max(np.abs(rebuilt - np.trim_zeros(u, "b"))) / np.max(np.abs(u))
            assert err <= 1e-9, (seed, alpha, err)
    assert accepted >= 48


def test_one_root_find_per_polynomial(monkeypatch):
    found = []
    real_roots = polynomials.roots

    def counted(p, *args, **kwargs):
        found.append(p)
        return real_roots(p, *args, **kwargs)

    for module in (polynomials, rif_module, clark_module):
        monkeypatch.setattr(module, "roots", counted)
    poly, _taus = _generated_rif(8, 0)
    rif = validate(poly)
    # p1 and |p1|^2 - |p2|^2 only: stability reads |p2 / p1| off the circle
    # once p1 is zero free on the closed disk, and a factor p1 shares with
    # p2 shows at p1's roots, so p2 is never root-found
    assert len(found) == 2
    assert sum(p == poly.p1 for p in found) == 1
    for alpha in (1j, rif.singularities[0].alpha):
        found.clear()
        clark_measure(rif, alpha)
        # the pencil numerator u only, as a stack of one row: the
        # denominator is alpha times its reflection and is never formed
        assert len(found) == 1 and np.shape(found[0]) == (1, 9)
    # a 16-measure sweep root-finds its candidate alphas by blocks, about
    # 20 pencils in one to three calls, and its exceptional pencils ride
    # in the first block
    rif = get("deg31").build()
    exc = verification._distinct_exceptional(rif)
    size = rif.n + 1
    for seed in range(8):
        found.clear()
        assert len(verification.alpha_sweep(rif, seed)) == verification.SWEEP_SIZE
        assert 1 <= len(found) <= 3, (seed, len(found))
        want = [rif.pt1.padded(size) - a * rif.p2.padded(size) for a in exc]
        assert np.array_equal(found[0][: len(exc)], want)
