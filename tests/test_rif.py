"""Construction and validation of rational inner functions."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from rifclark import cli, polynomials
from rifclark.agler import compute_Q
from rifclark.catalog import entries, get
from rifclark.clark import clark_measure
from rifclark.errors import DomainError, NumericError, RifClarkError
from rifclark.polynomials import TrigPoly, UniPoly
from rifclark.rif import (
    BiPolyN1,
    _line_derivative,
    is_saturated,
    phi_eval,
    reflect,
    validate,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

RNG = np.random.default_rng(202)


def _poly(p1, p2, n):
    return BiPolyN1(UniPoly(p1), UniPoly(p2), n)


def test_bipoly_rejects_degree_overflow():
    with pytest.raises(DomainError):
        _poly([1.0, 2.0, 3.0], [1.0], 1)


def test_bipoly_rejects_non_finite_and_malformed_json():
    with pytest.raises(DomainError):
        _poly([2.0, np.nan], [-1.0], 1)
    with pytest.raises(DomainError):
        _poly([2.0, -1.0], [np.inf], 1)
    good = get("fave").poly.to_json()
    for bad in (
        {"n": 1, "p1": good["p1"]},
        {"n": "one", "p1": good["p1"], "p2": good["p2"]},
        {"n": 1, "p1": {"coeffs": [2.0, -1.0]}, "p2": good["p2"]},
        {"n": 1, "p1": {"coeffs": [[2.0, 0.0], [float("nan"), 0.0]]}, "p2": good["p2"]},
        [good],
    ):
        with pytest.raises(DomainError):
            BiPolyN1.from_json(bad)


def test_reflect_swaps_parts_and_is_involution():
    for e in entries().values():
        p = e.poly
        q = reflect(p)
        assert np.array_equal(q.p1.coeffs, p.p2.conj_reflect(p.n).coeffs)
        assert np.array_equal(q.p2.coeffs, p.p1.conj_reflect(p.n).coeffs)
        back = reflect(q)
        assert np.array_equal(back.p1.coeffs, p.p1.coeffs)
        assert np.array_equal(back.p2.coeffs, p.p2.coeffs)


def test_modulus_equality_on_torus():
    for e in entries().values():
        rif = e.build()
        z1 = np.exp(1j * RNG.uniform(0, 2 * np.pi, 64))
        z2 = np.exp(1j * RNG.uniform(0, 2 * np.pi, 64))
        dev = np.abs(np.abs(rif.p.eval(z1, z2)) - np.abs(rif.ptilde.eval(z1, z2)))
        assert np.max(dev) < 1e-12


def test_phi_bounded_by_one_inside():
    for e in entries().values():
        rif = e.build()
        for _ in range(50):
            z = (0.95 * np.sqrt(RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform()),
                 0.95 * np.sqrt(RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform()))
            assert abs(phi_eval(rif, z)) <= 1.0 + 1e-12


def test_phi_unimodular_on_distinguished_boundary():
    rif = get("deg31").build()
    z1 = np.exp(1j * RNG.uniform(0, 2 * np.pi, 32))
    for a in z1:
        for b in np.exp(1j * RNG.uniform(0, 2 * np.pi, 4)):
            # skip the two singular abscissae
            if min(abs(a - 1), abs(a + 1)) < 1e-6:
                continue
            assert abs(abs(phi_eval(rif, (a, b))) - 1.0) < 1e-10


def test_phi_eval_rejects_outside_closed_bidisk():
    rif = get("fave").build()
    with pytest.raises(DomainError):
        phi_eval(rif, (1.5, 0.0))


def test_phi_eval_on_a_point_array_matches_the_pointwise_loop():
    rng = np.random.default_rng(23)
    for e in entries().values():
        rif = e.build()
        pts = (0.95 * np.sqrt(rng.uniform(size=(40, 2)))
               * np.exp(2j * np.pi * rng.uniform(size=(40, 2))))
        got = phi_eval(rif, pts)
        assert got.shape == (40,)
        want = np.array([phi_eval(rif, z) for z in pts])
        assert np.max(np.abs(got - want)) <= 1e-14
        # one bad point refuses the whole array: outside the closed bidisk,
        # and at a boundary zero (tau, lam) of p
        s = rif.singularities[0]
        for bad in ((0.2, 1.5), (s.tau, s.lam)):
            with pytest.raises(DomainError):
                phi_eval(rif, np.vstack([pts, [bad]]))
        # coordinates as rows are not pairs
        with pytest.raises(DomainError):
            phi_eval(rif, pts[:3].T)


@pytest.mark.parametrize("name", ["fave", "amy", "amy-variant", "deg31"])
def test_line_derivative_matches_finite_difference(name):
    # d(phi)/dz1 on {tau} x D, read at the ends of the z2-pencil, against a
    # central difference of ptilde / p in z1 at interior points of the line
    rif = get(name).build()
    h = 1e-6
    for s in rif.singularities:
        for z2 in (0.0, 0.5, -0.5j, 0.4j, -0.35 + 0.25j):
            fd = (rif.ptilde.eval(s.tau + h, z2) / rif.p.eval(s.tau + h, z2)
                  - rif.ptilde.eval(s.tau - h, z2) / rif.p.eval(s.tau - h, z2)) / (2 * h)
            assert abs(s.deriv - fd) < 1e-6 * abs(s.deriv)


def test_line_derivative_refuses_a_point_that_is_no_contact():
    # on {i} x D phi is not constant, so the two pencil ends disagree
    rif = get("deg31").build()
    tau = 1j
    alpha = rif.pt1(tau) / rif.p2(tau)
    with pytest.raises(NumericError, match="not constant"):
        _line_derivative(rif.p, rif.ptilde, tau, alpha / abs(alpha),
                         rif.p1(tau), rif.p2(tau))


def test_validate_detects_interior_zero():
    with pytest.raises(DomainError, match="not stable"):
        validate(_poly([1.0, -2.0], [0.0], 1))


def test_validate_detects_face_zero_vs_coprime():
    # p1 and p2 share the circle zero: the pair is not coprime
    with pytest.raises(DomainError, match="not coprime"):
        validate(_poly([1.0, -1.0], [0.0], 1))
    # p1 alone vanishes on the circle while p2 does not: unstable face
    with pytest.raises(DomainError, match="not stable"):
        validate(_poly([1.0, -1.0], [0.5], 1))


def test_validate_detects_constant_root_in_z2():
    # w(z1) = -p1/p2 constant of modulus <= 1 puts a zero curve in the bidisk
    with pytest.raises(DomainError, match="not stable"):
        validate(_poly([2.0, -1.0], [-2.0, 1.0], 1))


def test_validate_detects_selfreflection():
    # p = 1 - z1 z2 gives ptilde = -p up to scalar: phi is constant
    with pytest.raises(DomainError, match="not coprime"):
        validate(_poly([1.0], [0.0, -1.0], 1))


def test_z1_only_factor_without_mirror_is_valid():
    # p = (2 - z1)(3 - z1 - z2): the z1 factor does not cancel against the
    # reflection (its mirror 1/2 is not a root), it just contributes a
    # one-variable Blaschke factor, so this is a legitimate input.
    p1 = UniPoly([2.0, -1.0]) * UniPoly([3.0, -1.0])
    p2 = UniPoly([2.0, -1.0]) * UniPoly([-1.0])
    rif = validate(BiPolyN1(p1, p2, 2))
    z1 = np.exp(1j * RNG.uniform(0, 2 * np.pi, 16))
    z2 = np.exp(1j * RNG.uniform(0, 2 * np.pi, 16))
    vals = rif.ptilde.eval(z1, z2) / rif.p.eval(z1, z2)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_validate_detects_circle_z1_factor():
    # p = (z1 - r)(2 - z1 - z2) vanishes identically on z1 = r; for r just
    # outside the circle the mirror 1 / r is within roundoff of a zero of
    # the reflection, so p and ptilde share a factor to working accuracy
    for r in (-1.0, 1.0 + 4e-7, 1.0 + 1e-7):
        p1 = UniPoly([-r, 1.0]) * UniPoly([2.0, -1.0])
        p2 = UniPoly([-r, 1.0]) * UniPoly([-1.0])
        with pytest.raises(DomainError, match="not coprime"):
            validate(BiPolyN1(p1, p2, 2))


def _stability_draw(rng):
    """Random (n, p1, p2) with n <= 4: p1 from zeros at modulus 0.6 to 3,
    p2 scaled so that max |p2| on the circle is 0.2 to 1.5 times min |p1|;
    about half the draws are stable."""
    n = int(rng.integers(1, 5))
    d1, d2 = (int(d) for d in rng.integers(0, n + 1, 2))
    zeros = rng.uniform(0.6, 3.0, d1) * np.exp(2j * np.pi * rng.uniform(size=d1))
    p1 = P.polyfromroots(zeros) * (rng.normal() + 1j * rng.normal())
    p2 = rng.normal(size=d2 + 1) + 1j * rng.normal(size=d2 + 1)
    z = np.exp(2j * np.pi * np.arange(256) / 256)
    p2 *= (rng.uniform(0.2, 1.5) * np.min(np.abs(P.polyval(z, p1)))
           / np.max(np.abs(P.polyval(z, p2))))
    return n, p1, p2


# powers z**k, k <= 4, on a 201 x 720 polar grid of the closed disk
_DISK_POWERS = (np.linspace(0.0, 1.0, 201)[:, None]
                * np.exp(2j * np.pi * np.arange(720) / 720)).ravel() ** np.arange(5)[:, None]


def _dense_ratio(p1, p2, p1_zeros) -> float:
    """numpy only: max |p2 / p1| on the disk grid and on circle windows
    around the angle of each zero r of p1, 401 points spanning 40 (|r| - 1)
    radians, since a zero just outside the circle makes |p2 / p1| peak there
    over that width."""
    grid = np.abs(p2 @ _DISK_POWERS[:p2.size]) / np.abs(p1 @ _DISK_POWERS[:p1.size])
    windows = [np.exp(1j * (np.angle(r) + (abs(r) - 1.0) * np.linspace(-20.0, 20.0, 401)))
               for r in p1_zeros if abs(r) > 1.0]
    peaks = [np.max(np.abs(P.polyval(z, p2) / P.polyval(z, p1))) for z in windows]
    return float(max([grid.max(), *peaks]))


def test_stability_verdict_matches_dense_grid():
    # p is stable when p1 has no zero in the closed disk and |p2| < |p1| on
    # the closed disk; draws within 1e-4 of either boundary are left out
    verdicts = []
    for i in range(320):
        n, p1, p2 = _stability_draw(np.random.default_rng([11, i]))
        zeros = np.roots(p1[::-1])
        ratio = _dense_ratio(p1, p2, zeros)
        if np.any(np.abs(np.abs(zeros) - 1.0) < 1e-4) or abs(ratio - 1.0) < 1e-4:
            continue
        want = bool(np.all(np.abs(zeros) > 1.0) and ratio < 1.0)
        try:
            validate(_poly(p1, p2, n))
            got = True
        except DomainError as exc:
            if not str(exc).startswith("not stable"):
                raise
            got = False
        assert got is want, i
        verdicts.append(got)
    assert len(verdicts) >= 300 and 0.25 < np.mean(verdicts) < 0.75


def test_singularity_data_all_entries():
    want = {
        "fave": [(1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, 2)],
        "amy": [(1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, 4)],
        "amy-variant": [(1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, 2)],
        "deg31": [(-1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j, 4),
                  (1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, 2)],
    }
    for name, sings in want.items():
        rif = get(name).build()
        assert len(rif.singularities) == len(sings)
        key = lambda t: round(float(np.mod(np.angle(t), 2 * np.pi)), 6)
        got = sorted(rif.singularities, key=lambda s: key(s.tau))
        exp = sorted(sings, key=lambda s: key(s[0]))
        for s, (tau, lam, alpha, mult) in zip(got, exp):
            assert abs(s.tau - tau) < 1e-10
            assert abs(s.lam - lam) < 1e-10
            assert abs(s.alpha - alpha) < 1e-10
            assert s.mult == mult


def test_line_derivative_values():
    rif = get("deg31").build()
    by_tau = {round(s.tau.real): s for s in rif.singularities}
    assert abs(by_tau[1].deriv - (-1.0)) < 1e-10
    assert abs(by_tau[-1].deriv - (-2.0)) < 1e-10


@pytest.mark.parametrize("r", [1 + 4e-7, 1 + 4e-6, 1 + 4e-5, 1.0004, 1.004, 1.04])
def test_contact_next_to_a_zero_of_p1_is_found_or_refused(r):
    # p = (z1 - r)(2 - z1 - z2) has one order-one contact, at tau = 1, for
    # every r > 1; t = 2 |zeta - r|^2 |zeta - 1|^2 puts the roots r and 1 / r
    # next to the double circle zero
    try:
        rif = validate(_poly(P.polymul([-r, 1.0], [2.0, -1.0]), [r, -1.0], 2))
    except RifClarkError:
        # |p| on the line {1} x D is |r - 1| |1 - z2|, below the probe
        # threshold of the line derivative only when r is this close to 1
        assert r < 1.001
        return
    [s] = rif.singularities
    assert abs(s.tau - 1.0) < 1e-9 and s.mult == 2
    assert abs(s.deriv + 2 / (r - 1) + 3) <= 1e-6 * abs(s.deriv)


def test_is_saturated_matches_documented():
    for name, flag in (("fave", True), ("amy", True),
                       ("amy-variant", False), ("deg31", True)):
        assert is_saturated(get(name).build()) is flag


def _saturated_reference(p: BiPolyN1) -> bool:
    """numpy only: the z2-resultant p2 * pt2 - p1 * pt1 has degree 2n and
    every root of it lies within 1e-3 of the circle.

    The band is wider than the scatter of a quadruple contact under
    numpy.roots (2.2e-4 for amy) and far narrower than the 0.2 that keeps
    the other roots of the draws below off the circle.
    """
    n = p.n
    p1, p2 = (np.pad(q.coeffs, (0, n + 1 - q.coeffs.size)) for q in (p.p1, p.p2))
    res = np.convolve(p2, np.conj(p2[::-1])) - np.convolve(p1, np.conj(p1[::-1]))
    if not abs(res[-1]) > 1e-12 * np.max(np.abs(res)):
        return False
    return bool(np.all(np.abs(np.abs(np.roots(res[::-1])) - 1.0) < 1e-3))


def _contact_draw(rng, n: int, contacts: int) -> BiPolyN1:
    """Stable p with |p1|^2 - |p2|^2 = |Q|^2, Q with `contacts` simple zeros
    on the circle and the rest, like the zeros of p2, inside at modulus
    0.6 to 0.8; p1 is the outer spectral factor of |p2|^2 + |Q|^2."""
    def ring(count):
        k = np.arange(count)
        angle = 2 * np.pi * (k + rng.uniform(-0.3, 0.3, count)) / max(count, 1)
        return rng.uniform(0.6, 0.8, count) * np.exp(1j * (angle + 2 * np.pi * rng.uniform()))

    k = np.arange(contacts)
    taus = np.exp(2j * np.pi * (k + rng.uniform(0.25, 0.75, contacts)) / max(contacts, 1))
    q = P.polyfromroots(np.concatenate([taus, ring(n - contacts)]))
    p2 = P.polyfromroots(ring(n))
    q, p2 = q / np.max(np.abs(q)), 0.8 * p2 / np.max(np.abs(p2))
    c = np.convolve(p2, np.conj(p2[::-1])) + np.convolve(q, np.conj(q[::-1]))
    r = np.roots(c[::-1])
    p1 = P.polyfromroots(r[np.abs(r) > 1.0])
    z = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    t = np.real(P.polyval(z, c) * z ** (-n))
    p1 *= np.sqrt(np.median(t / np.abs(P.polyval(z, p1)) ** 2))
    return _poly(p1, p2, n)


def test_is_saturated_matches_numpy_resultant():
    rng = np.random.default_rng(17)
    polys = [e.poly for e in entries().values()]
    for n in range(2, 9):
        for contacts in sorted({0, 1, n // 2, n}):
            polys.append(_contact_draw(rng, n, contacts))
    flags = []
    for p in polys:
        want = _saturated_reference(p)
        assert is_saturated(validate(p)) is want, p
        flags.append(want)
    assert 5 <= sum(flags) < len(flags)


def test_bipoly_json_roundtrip():
    for e in entries().values():
        back = BiPolyN1.from_json(e.poly.to_json())
        assert np.array_equal(back.p1.coeffs, e.poly.p1.coeffs)
        assert np.array_equal(back.p2.coeffs, e.poly.p2.coeffs)
        assert back.n == e.poly.n


def test_phi_at_origin_values():
    vals = {"fave": 0.0, "amy": 0.0, "amy-variant": -0.5, "deg31": -0.25}
    for name, v in vals.items():
        assert abs(get(name).build().phi_at_origin - v) < 1e-14


def _wide_ring(rng, count):
    """Roots at random angles, half of modulus 0.45 to 0.75 and half 1.35
    to 2.2: a coefficient span that grows geometrically with n."""
    inner = count // 2
    mod = np.concatenate([rng.uniform(0.45, 0.75, inner), rng.uniform(1.35, 2.2, count - inner)])
    return mod * np.exp(2j * np.pi * rng.uniform(size=count))


def test_wide_span_contacts_survive_without_a_band_trim():
    # the two outer end pairs of this draw's t lie below 1e-13 of its
    # largest coefficient but are not zero; they must stay, or both
    # contacts come out odd-order and validate refuses the draw
    f = gen.draw(np.random.default_rng([7, 48, 9]), 48, _wide_ring)
    rif = validate(_poly(f.p1, f.p2, 48))
    assert len(rif.singularities) == 2
    for s in rif.singularities:
        k = int(np.argmin(np.abs(np.array(f.taus) - s.tau)))
        assert abs(s.tau - f.taus[k]) <= 1e-6
        assert abs(1.0 / abs(s.deriv) - f.masses[k]) <= 1e-6 * f.masses[k]


def test_wide_span_refusals():
    # an odd-order circle zero of t; and a split of t whose inside roots do
    # not reproduce it, which Q and the exceptional weights both rest on
    f = gen.draw(np.random.default_rng([7, 48, 1]), 48, _wide_ring)
    with pytest.raises(NumericError):
        validate(_poly(f.p1, f.p2, 48))
    f = gen.draw(np.random.default_rng([7, 48, 9]), 48, _wide_ring)
    rif = validate(_poly(f.p1, f.p2, 48))
    with pytest.raises(NumericError):
        compute_Q(rif)
    with pytest.raises(NumericError):
        clark_measure(rif, rif.singularities[0].alpha)


@pytest.mark.parametrize("n", [16, 32, 48])
def test_validate_clusters_only_roots_that_meet(monkeypatch, n):
    # roots decides clustering once, from the exact distances between its
    # polished roots, so every clustering that validate asks for on these
    # draws groups at least two points (t's double zeros at the contacts)
    real = polynomials._cluster_members
    calls = []

    def spy(points, radius):
        out = real(points, radius)
        calls.append(out)
        return out

    monkeypatch.setattr(polynomials, "_cluster_members", spy)
    for s in range(3):
        f = gen.generate(np.random.default_rng([9, n, s]), n)
        validate(_poly(f.p1, f.p2, n))
    assert calls
    assert all(any(len(c) > 1 for c in out) for out in calls)


def test_validate_refuses_a_split_of_t_that_does_not_pair():
    # at this span the split of t counts 68 of its 128 roots inside, where
    # at most 63 can be, and finds one of the draw's two contacts: the other
    # alpha_k would be called generic and unitary without a word
    f = gen.draw(np.random.default_rng([7, 64, 6]), 64, _wide_ring)
    assert len(f.taus) == 2
    poly = _poly(f.p1, f.p2, 64)
    with pytest.raises(NumericError, match="root pairing across the circle failed"):
        validate(poly)
    # fejer_riesz splits t the same way and refuses it the same way
    t = TrigPoly.modulus_squared(poly.p1) - TrigPoly.modulus_squared(poly.p2)
    with pytest.raises(NumericError, match="root pairing across the circle failed"):
        polynomials.fejer_riesz(t)


def test_analyze_never_prints_a_wide_span_mass_off_its_closed_form(tmp_path, capsys):
    # the exceptional masses of this draw settle up to 2e-8 off the closed
    # form; analyze must report a mass_residual of at most 1e-8 or exit 3
    f = gen.draw(np.random.default_rng([7, 48, 5]), 48, _wide_ring)
    poly = _poly(f.p1, f.p2, 48)
    rif = validate(poly)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(poly.to_json()), encoding="utf-8")
    phi0 = rif.phi_at_origin
    for s in rif.singularities:
        code = cli.main(["analyze", str(path), f"--alpha={s.alpha.real!r}{s.alpha.imag:+.17g}i"])
        out = capsys.readouterr().out
        assert code in (0, 3)
        if code == 0:
            report = json.loads(out)
            closed = (1.0 - abs(phi0) ** 2) / abs(s.alpha - phi0) ** 2
            assert report["mass_residual"] <= 1e-8
            assert abs(report["total_mass"] - closed) <= 1e-8 * closed
