"""Clark measures: classification, closed forms, quadrature, level sets."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from rifclark.catalog import get
from rifclark import clark
from rifclark.agler import exceptional_R, gram_isometry_check, orthonormality_check
from rifclark.clark import (
    AlphaKind,
    ClarkMeasure,
    ExtremeStatus,
    Unitarity,
    clark_measure,
    classify_alpha,
    classify_extreme,
    classify_unitary,
    integrate,
    level_set_sample,
)
from rifclark.errors import DomainError, NumericError
from rifclark.polynomials import (
    TOL, BlaschkeProduct, TrigPoly, UniPoly, _zero_product, cplx_from_json)
from rifclark.quadrature import circle_nodes, poisson2
from rifclark.rif import BiPolyN1, phi_eval, validate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

RNG = np.random.default_rng(303)
CATALOG = ("fave", "amy", "amy-variant", "deg31")
EPS = np.finfo(float).eps


def predicted_start(cm):
    """The adaptive rule's first node count: the least power of two N with
    r^N <= 1e-15, r the largest Blaschke zero modulus, within [64, 4096];
    4096 for a mapped measure."""
    if cm.center:
        return 4096
    r = max((abs(a) for a in cm.balpha.zeros), default=0.0)
    need = np.log(1e-15) / np.log(r) if r > 0 else 0.0
    return int(min(4096, max(64, 2 ** np.ceil(np.log2(max(need, 1.0))))))


def _ladder(n, s):
    """Draw s of the benchmark's degree-ladder family at degree n."""
    f = gen.generate(np.random.default_rng([9, n, s]), n)
    return validate(BiPolyN1(UniPoly(f.p1), UniPoly(f.p2), n))


def test_classify_alpha_dichotomy():
    rif = get("deg31").build()
    exc = classify_alpha(rif, -1.0)
    assert exc.kind is AlphaKind.EXCEPTIONAL
    assert len(exc.matched) == 1
    gen = classify_alpha(rif, np.exp(0.9j))
    assert gen.kind is AlphaKind.GENERIC
    assert gen.matched == ()
    assert gen.distance_to_exceptional > 0.1


def test_classify_alpha_rejects_interior_value():
    rif = get("fave").build()
    with pytest.raises(DomainError):
        classify_alpha(rif, 0.5 + 0.0j)


def test_fave_exceptional_measure_structure():
    # the measure splits half and half into one line and a flat curve
    cm = clark_measure(get("fave").build(), -1.0)
    assert cm.alpha_class.kind is AlphaKind.EXCEPTIONAL
    assert len(cm.balpha.zeros) == 0
    z = circle_nodes(512)
    assert np.max(np.abs(cm.weight_eval(z) - 0.5)) < 1e-12
    (tau, mass), = cm.lines
    assert abs(tau - 1.0) < 1e-12 and abs(mass - 0.5) < 1e-12
    assert abs(cm.total_mass() - 1.0) < 1e-12


def test_amy_exceptional_weight_formula():
    cm = clark_measure(get("amy").build(), -1.0)
    z = circle_nodes(1024)
    want = 0.25 * np.abs(1.0 - z) ** 2
    assert np.max(np.abs(cm.weight_eval(z) - want)) < 1e-12
    assert len(cm.balpha.zeros) == 1
    assert abs(cm.balpha.zeros[0]) < 1e-12


def test_generic_measure_has_no_lines():
    for name in ("fave", "amy", "amy-variant", "deg31"):
        cm = clark_measure(get(name).build(), np.exp(0.83j))
        assert cm.alpha_class.kind is AlphaKind.GENERIC
        assert cm.lines == ()


def test_mass_identity_generic_and_exceptional():
    for name in ("fave", "amy", "amy-variant", "deg31"):
        rif = get(name).build()
        for alpha in (-1.0 + 0.0j, complex(np.exp(2.1j))):
            cm = clark_measure(rif, alpha)
            assert abs(cm.total_mass(None) - cm.closed_form_mass()) < 1e-9


def test_ladder_exceptional_masses_of_a_wide_weight_numerator():
    # degree-ladder seed 313, round 23, n = 40: the weight numerator's
    # division by |zeta - tau|^2 once kept the inaccurate lower half of its
    # quotient, and one exceptional mass came out 1.5e-8 off
    f = gen.generate(np.random.default_rng([313, 1, 23, 40]), 40)
    rif = validate(BiPolyN1(UniPoly(f.p1), UniPoly(f.p2), 40))
    assert len(rif.singularities) == 2
    for s in rif.singularities:
        cm = clark_measure(rif, s.alpha)
        closed = cm.closed_form_mass()
        assert abs(cm.total_mass(None) - closed) <= 1e-9 * closed, s.tau


def test_integrate_adaptive_agrees_with_fixed():
    cm = clark_measure(get("amy").build(), np.exp(0.4j))
    f = lambda z1, z2: z1 * np.conj(z2) + 2.0
    a = integrate(cm, f, count=4096)
    b = integrate(cm, f, count=None)
    assert abs(a - b) < 1e-9


def test_integrate_splits_curve_and_lines():
    # indicator 1 integrates to curve + line masses; dropping the line
    # via a z1 factor vanishing at tau = 1 removes exactly the line part
    cm = clark_measure(get("fave").build(), -1.0)
    total = integrate(cm, lambda z1, z2: np.ones_like(z1 * z2), 4096).real
    notau = integrate(cm, lambda z1, z2: np.abs(z1 - 1.0) ** 2, 4096).real
    # |z - 1|^2 has mean 2 against the flat curve weight 1/2
    assert abs(total - 1.0) < 1e-12
    assert abs(notau - 1.0) < 1e-12


def _counting_node_data(monkeypatch):
    counts = []
    node_data = ClarkMeasure.node_data

    def counted(cm, count):
        counts.append(count)
        return node_data(cm, count)

    monkeypatch.setattr(ClarkMeasure, "node_data", counted)
    return counts


def test_family_integrate_equals_scalar_calls(monkeypatch):
    # rows near the boundary of either coordinate need more nodes than the
    # rest, so the adaptive family runs on to the count of its slowest row
    pts = np.array([(0.2 - 0.1j, 0.3j), (0.0, 0.0), (0.99, -0.2j),
                    (0.3j, 0.995), (-0.4 + 0.1j, 0.45)])
    counts = _counting_node_data(monkeypatch)
    for name, alpha in (("amy", complex(np.exp(0.4j))), ("deg31", -1.0 + 0.0j),
                        ("amy-variant", 1.0 + 0.0j)):
        rif = get(name).build()
        for count in (4096, None):
            counts.clear()
            got = integrate(clark_measure(rif, alpha),
                            lambda u, v: poisson2(pts, (u, v)), count)
            family_count = max(counts)
            want, alone = [], []
            for z in pts:
                counts.clear()
                want.append(integrate(clark_measure(rif, alpha),
                                      lambda u, v: poisson2(z, (u, v)), count))
                alone.append(max(counts))
            assert isinstance(want[0], complex)
            assert got.shape == (len(pts),) and got.dtype == complex
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, (name, count)
            assert family_count >= max(alone), (name, count)


def test_adaptive_family_raises_when_one_component_does_not_settle(monkeypatch):
    # a jump in z1 keeps the rule's error of order 1/N, far above 1e-9
    monkeypatch.setattr(clark, "_MAX_ADAPTIVE_NODES", 2 ** 15)
    cm = clark_measure(get("amy").build(), np.exp(0.4j))
    smooth = lambda u, v: np.ones_like(u)
    jump = lambda u, v: (np.angle(u) > 0.5).astype(float)
    assert abs(integrate(cm, smooth, None) - cm.closed_form_mass()) < 1e-9
    with pytest.raises(NumericError):
        integrate(cm, jump, None)
    with pytest.raises(NumericError, match="did not settle"):
        integrate(cm, lambda u, v: np.stack([smooth(u, v), jump(u, v)]), None)


@pytest.mark.parametrize("name, alpha", [("amy", complex(np.exp(0.4j))), ("deg31", -1.0 + 0.0j)],
                         ids=["amy", "deg31"])
@pytest.mark.parametrize("z", [(0.99, -0.2j), (0.3j, 0.995), (0.2 - 0.1j, 0.3j)],
                         ids=["z1-near", "z2-near", "inner"])
def test_adaptive_poisson_integral_is_converged_from_a_low_start(name, alpha, z):
    # a Poisson point near the torus converges more slowly than the curve's
    # Blaschke zeros predict, and from a low start two nested rules agree
    # to 1e-9 while both are still off by more than 1e-12: agreement alone
    # would stop there, the geometric model waits
    cm = clark_measure(get(name).build(), alpha)
    assert predicted_start(cm) < 4096
    f = lambda u, v: poisson2(z, (u, v))
    got = integrate(cm, f, None)
    want = integrate(cm, f, 2 ** 16)
    assert abs(got - want) <= 1e-12 * abs(want), (name, z)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_adaptive_mass_stops_near_the_predicted_start(n, monkeypatch):
    # generic ladder measures: the mass settles at most two doublings above
    # the count the Blaschke zeros predict, far below the fixed rule's 4096
    counts = _counting_node_data(monkeypatch)
    for s in range(2):
        rng = np.random.default_rng([9, n, s])
        facts = gen.generate(rng, n)
        rif = validate(BiPolyN1(UniPoly(facts.p1), UniPoly(facts.p2), n))
        # the degree-ladder's floor on the distance of the curve zeros
        for alpha in gen.generic_alphas(rng, facts, 2, 0.02):
            cm = clark_measure(rif, alpha)
            counts.clear()
            mass = cm.total_mass(None)
            start = predicted_start(cm)
            assert counts[0] == start and start < 4096, (n, s, alpha)
            assert max(counts) <= 4 * start, (n, s, alpha, counts)
            assert abs(mass - cm.closed_form_mass()) <= 1e-12, (n, s, alpha)


def test_poisson_identity_spot_checks():
    for name in ("fave", "deg31"):
        rif = get(name).build()
        for alpha in (complex(np.exp(1.7j)), -1.0 + 0.0j):
            cm = clark_measure(rif, alpha)
            for _ in range(5):
                z = (0.4 * np.sqrt(RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform()),
                     0.4 * np.sqrt(RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform()))
                got = integrate(cm, lambda u, v: poisson2(z, (u, v)), 4096).real
                phi = phi_eval(rif, z)
                want = (1 - abs(phi) ** 2) / abs(alpha - phi) ** 2
                assert abs(got - want) < 1e-9


def test_weight_positive_on_nodes():
    for name in ("fave", "amy", "amy-variant", "deg31"):
        rif = get(name).build()
        for alpha in (-1.0 + 0.0j, complex(np.exp(0.37j))):
            cm = clark_measure(rif, alpha)
            _z, _z2, w = cm.node_data(4096)
            assert np.min(w) > -1e-12
            assert np.all(np.isfinite(w))


# (entry, contact point tau_k, d): alpha = alpha_k e^{id} puts a Blaschke
# zero within about 1e-4 of the circle; the node map concentrates the nodes
# there, so the adaptive rule settles at 8192 nodes (2^19 uniform ones),
# and the weight's numerator and denominator are both small there
NEAR_EXCEPTIONAL = (("fave", 1.0, 0.03), ("amy-variant", 1.0, 0.01), ("deg31", 1.0, 0.01))


def _near_exceptional_alpha(rif, tau, d):
    s = next(s for s in rif.singularities if abs(s.tau - tau) < 1e-9)
    return complex(s.alpha * np.exp(1j * d))


def _measure_cases(near_exceptional: bool):
    for name in ("fave", "amy", "amy-variant", "deg31"):
        rif = get(name).build()
        for alpha in (-1.0 + 0.0j, 1.0 + 0.0j, complex(np.exp(0.37j)), complex(np.exp(2.1j))):
            yield name, clark_measure(rif, alpha)
    if near_exceptional:
        for name, tau, d in NEAR_EXCEPTIONAL:
            rif = get(name).build()
            yield name, clark_measure(rif, _near_exceptional_alpha(rif, tau, d))


def _extended_reference(cm, count):
    """conj(B_alpha) and W_alpha J_b at the exact nodes M_b(omega), omega
    the count-th roots of unity, evaluated pointwise in numpy.clongdouble
    from the measure's Blaschke product, weight numerator and lead(u)."""
    ld = np.clongdouble
    pi = 4 * np.arctan(np.longdouble(1))
    omega = np.exp(ld(1j) * (2 * pi * np.arange(count) / count))
    b = ld(cm.center)
    zeta = (omega + b) / (1 + np.conj(b) * omega)
    blaschke = np.full(count, ld(cm.balpha.constant))
    zero_prod = np.ones(count, dtype=ld)
    for a in map(ld, cm.balpha.zeros):
        blaschke *= (zeta - a) / (1 - np.conj(a) * zeta)
        zero_prod *= zeta - a
    num = np.zeros(count, dtype=ld)
    for c in cm.weight_num.coeffs[::-1]:
        num = num * zeta + ld(c)
    num = (num * zeta ** -cm.weight_num.d).real
    w = num / (abs(ld(cm.u.coeffs[-1])) ** 2 * abs(zero_prod) ** 2)
    return np.conj(blaschke), w * (1 - abs(b) ** 2) / abs(1 + np.conj(b) * omega) ** 2


def test_node_data_matches_pointwise_evaluation():
    # against an extended-precision evaluation at the exact nodes, so the
    # reference does not inherit the rounding of the double nodes: next to
    # a Blaschke zeta - a_k loses eps / |zeta - a_k| relative, 1e-12 at
    # deg31's zero 7e-5 from the circle at e^{0.37i}, the mapped case.
    # 4096 and 8192 are nested counts, each computed from its own roots of
    # unity, and 1000 is odd.  Near-exceptional alpha is left out: there
    # the weight numerator nearly vanishes next to the contact and is fixed
    # by its coefficients only to about 1e-12 relative, by FFT and by
    # Horner alike.
    mapped = set()
    for name, cm in _measure_cases(near_exceptional=False):
        b = cm.center
        if b:
            mapped.add(name)
        for count in (4096, 8192, 1000):
            z, z2, w = cm.node_data(count)
            omega = circle_nodes(count)
            if b:
                assert np.max(np.abs(z - (omega + b) / (1 + np.conj(b) * omega))) <= 1e-15
            else:
                assert np.array_equal(z, omega)
            want_z2, want_w = _extended_reference(cm, count)
            assert np.max(np.abs(z2 - want_z2)) <= 1e-12, name
            assert np.max(np.abs(w - want_w)) <= 1e-12 * max(1.0, np.max(w)), name
    assert mapped == {"deg31"}


@pytest.mark.parametrize("name, alpha", [("amy", complex(np.exp(2.1j))), ("fave", 1j)],
                         ids=["amy", "fave"])
def test_node_data_does_not_depend_on_the_cache(name, alpha):
    # each count comes from its own roots of unity: the rule of a measure
    # that cached the half count first is bit for bit the fresh rule
    rif = get(name).build()
    fresh = clark_measure(rif, alpha).node_data(4096)
    cm = clark_measure(rif, alpha)
    cm.node_data(2048)
    assert all(np.array_equal(a, b) for a, b in zip(cm.node_data(4096), fresh))


def test_node_data_makes_no_two_product_pass(monkeypatch):
    # one product over the (pulled-back) zeros gives the curve data;
    # BlaschkeProduct.eval, with its second product over the zeros, serves
    # pointwise evaluation only
    cases = [clark_measure(get("amy").build(), complex(np.exp(2.1j))),
             clark_measure(get("fave").build(), -1.0),
             clark_measure(get("deg31").build(), complex(np.exp(0.37j)))]
    assert [cm.alpha_class.kind for cm in cases] == [
        AlphaKind.GENERIC, AlphaKind.EXCEPTIONAL, AlphaKind.GENERIC]
    assert [bool(cm.center) for cm in cases] == [False, False, True]

    def refuse(*args, **kwargs):
        raise AssertionError("node_data evaluated the Blaschke product")

    monkeypatch.setattr(BlaschkeProduct, "eval", refuse)
    monkeypatch.setattr(BlaschkeProduct, "__call__", refuse)
    for cm in cases:
        for count in (4096, 8192, 1000):
            cm.node_data(count)


def test_replaced_measure_does_not_reuse_cached_node_data():
    # an edited copy forms its own node map and cache; the measure itself
    # cannot be edited, so no cached curve data outlives its fields
    cm = clark_measure(get("deg31").build(), complex(np.exp(0.37j)))
    assert cm.center
    z, z2, _w = cm.node_data(4096)
    turned = BlaschkeProduct(cm.balpha.constant * np.exp(1e-3j), cm.balpha.zeros)
    moved = dataclasses.replace(cm, balpha=turned)
    mz, mz2, _mw = moved.node_data(4096)
    assert np.max(np.abs(mz2 - moved.curve_z2(mz))) <= 1e-10
    assert np.max(np.abs(mz2 - z2)) > 1e-4
    with pytest.raises(dataclasses.FrozenInstanceError):
        cm.balpha = turned


def test_cached_node_data_is_read_only():
    # integrate hands the cached node data to the integrand; one that scales
    # its argument in place must not corrupt the later integrals
    rif = get("deg31").build()
    alpha = complex(np.exp(0.37j))
    cm = clark_measure(rif, alpha)

    def halve(u, v):
        v *= 0.5
        return v

    with pytest.raises(ValueError, match="read-only"):
        integrate(cm, halve, None)
    pts = np.array([(0.3 + 0.1j, -0.2j)])

    def poisson(u, v):
        return poisson2(pts, (u, v))

    fresh = clark_measure(rif, alpha)
    assert np.array_equal(integrate(cm, poisson, None), integrate(fresh, poisson, None))


# Blaschke zeros from 1e-4 down to 1.2e-7 from the circle: of these the
# uniform rule settles by 2^20 nodes only at d = 1e-2 on amy-variant and
# deg31; the mapped rule settles on all of them
@pytest.mark.parametrize("name, tau, d", [
    ("fave", 1.0, 1e-2), ("fave", 1.0, 1e-3),
    ("amy-variant", 1.0, 1e-2), ("amy-variant", 1.0, 1e-3),
    ("deg31", 1.0, 1e-2), ("deg31", 1.0, 1e-3),
    ("amy", 1.0, 0.1),
])
def test_near_exceptional_mass_settles(name, tau, d):
    rif = get(name).build()
    cm = clark_measure(rif, _near_exceptional_alpha(rif, tau, d))
    assert cm.alpha_class.kind is AlphaKind.GENERIC and cm.center != 0
    want = cm.closed_form_mass()
    assert abs(cm.total_mass(None) - want) <= 1e-9 * want


def test_nonzero_center_matches_identity_map(monkeypatch):
    # exceptional measures with lines: the mapped rule, lines included,
    # integrates what the uniform rule does, in agler's checks too
    pts = np.array([(0.2 - 0.1j, 0.3j), (0.0, 0.0), (-0.4 + 0.1j, 0.45)])
    f = lambda u, v: poisson2(pts, (u, v))
    for name in ("fave", "deg31"):
        rif = get(name).build()
        plain = clark_measure(rif, -1.0)
        assert plain.center == 0 and plain.lines
        monkeypatch.setattr(clark, "_map_center", lambda zeros: 0.6 * np.exp(0.4j))
        moved = clark_measure(rif, -1.0)
        monkeypatch.undo()
        assert moved.center == 0.6 * np.exp(0.4j)
        for count in (16384, None):
            want = integrate(plain, f, count)
            got = integrate(moved, f, count)
            assert np.max(np.abs(got - want)) <= 1e-12, (name, count)
        assert abs(moved.total_mass(None) - plain.total_mass(None)) <= 1e-12, name
        gram = gram_isometry_check(moved, pts)
        want = gram_isometry_check(plain, pts)
        assert np.max(np.abs(gram.measured - want.measured)) <= 1e-12, name
        ortho = orthonormality_check(moved, exceptional_R(moved))
        want = orthonormality_check(plain, exceptional_R(plain))
        assert np.max(np.abs(ortho - want)) <= 1e-12, name


def test_line_sums_do_not_depend_on_the_node_map(monkeypatch):
    # the node map serves the curve's Blaschke zeros; each line {tau} x T
    # keeps the roots of unity with the constant weight c_k, so its block of
    # the rule, and the sums over it, are the same bits under any centre
    pts = np.array([(0.2 - 0.1j, 0.3j), (-0.4 + 0.1j, 0.45)])
    f = lambda u, v: poisson2(pts, (u, v))
    rif = get("deg31").build()
    plain = clark_measure(rif, -1.0)
    monkeypatch.setattr(clark, "_map_center", lambda zeros: 0.6 * np.exp(0.4j))
    moved = clark_measure(rif, -1.0)
    assert plain.center == 0 and moved.center != 0 and plain.lines
    for count in (clark.RULE_NODES, 2 * clark.RULE_NODES, 1000):
        rules = [cm.rule(count) for cm in (plain, moved)]
        assert [len(r) for r in rules] == [1 + len(plain.lines)] * 2
        for (curve, *lines), cm in zip(rules, (plain, moved)):
            assert all(a is b for a, b in zip(curve, cm.node_data(count)))
            for (tau, mass), (z1, z2, w) in zip(cm.lines, lines):
                assert np.all(z1 == tau) and np.all(w == mass), count
                assert np.array_equal(z2, circle_nodes(count)), count
        for odd in (slice(None), slice(1, None, 2)):
            sums = [[f(z1[odd], z2[odd]) @ w[odd] for z1, z2, w in r] for r in rules]
            assert all(np.array_equal(a, b) for a, b in zip(sums[0][1:], sums[1][1:])), count
            assert not np.array_equal(sums[0][0], sums[1][0]), count


def test_factored_weight_denominator_matches_trigpoly():
    # the pencil numerator u factors as lead(u) N prod (z - tau_k), N the
    # Blaschke zeros' product and tau_k the matched contacts
    z = np.exp(2j * np.pi * (np.arange(777) + 0.3) / 777)
    for name, cm in _measure_cases(near_exceptional=True):
        zero_prod = _zero_product(z, cm.balpha.zeros)
        factored = abs(cm.u.coeffs[-1]) ** 2 * np.abs(zero_prod) ** 2
        for tau, _mass in cm.lines:
            factored *= np.abs(z - tau) ** 2
        den = TrigPoly.modulus_squared(cm.u)
        want = den.eval(z).real
        assert np.max(np.abs(factored - want)) <= 1e-12 * den.scale(), name


def test_adaptive_integrate_reuses_old_nodes(monkeypatch):
    z0 = (0.2 - 0.1j, 0.3j)
    f_sizes = []

    def f(u, v):
        f_sizes.append(u.size)
        return poisson2(z0, (u, v))

    counts = []
    node_data = ClarkMeasure.node_data

    def counted(cm, count):
        counts.append(count)
        return node_data(cm, count)

    for name, alpha in (("amy", complex(np.exp(0.4j))), ("deg31", -1.0 + 0.0j),
                        ("fave", _near_exceptional_alpha(get("fave").build(), 1.0, 0.03))):
        rif = get(name).build()
        # the rule of a fresh fixed-count integral at each doubling, from
        # the start the Blaschke zeros predict, with the settle test
        ref = clark_measure(rif, alpha)
        start = count = predicted_start(ref)
        prev, prev_diff = integrate(ref, f, count), 0.0
        while True:
            count *= 2
            want = integrate(ref, f, count)
            diff, scale = abs(want - prev), max(1.0, abs(want))
            if diff <= 1e-9 * scale and (
                    count >= 8192 or diff <= 1e-13 * scale
                    or prev_diff > 0 and diff * (diff / prev_diff) ** 2 <= 16 * EPS * scale):
                break
            prev, prev_diff = want, diff
        cm = clark_measure(rif, alpha)
        counts.clear()
        f_sizes.clear()
        monkeypatch.setattr(ClarkMeasure, "node_data", counted)
        got = integrate(cm, f, None)
        monkeypatch.setattr(ClarkMeasure, "node_data", node_data)
        # node_data once per level, up to the count the fresh rules reach
        assert counts == [start * 2 ** k for k in range(len(counts))], name
        assert counts[-1] == count, name
        # f sees each node once: the start first, then only the new half
        per_part = 1 + len(cm.lines)
        assert sum(f_sizes) == count * per_part, name
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name


@pytest.mark.parametrize("name, tau, d", NEAR_EXCEPTIONAL)
def test_mass_identity_near_exceptional(name, tau, d):
    rif = get(name).build()
    cm = clark_measure(rif, _near_exceptional_alpha(rif, tau, d))
    assert cm.alpha_class.kind is AlphaKind.GENERIC
    assert abs(cm.total_mass(None) - cm.closed_form_mass()) < 1e-10


def test_classify_unitary_matches_exceptional_set():
    cases = {
        "fave": {-1.0 + 0.0j},
        "amy": {-1.0 + 0.0j},
        "deg31": {-1.0 + 0.0j, 1.0 + 0.0j},
    }
    for name, bad in cases.items():
        rif = get(name).build()
        for a in np.exp(2j * np.pi * np.arange(64) / 64):
            a = complex(a)
            got = classify_unitary(rif, a)
            want = (Unitarity.NOT_UNITARY
                    if any(abs(a - b) < 1e-9 for b in bad)
                    else Unitarity.UNITARY)
            assert got is want, (name, a)


def test_classify_extreme_branches():
    fave = get("fave").build()
    assert classify_extreme(fave, 1.0).status is ExtremeStatus.EXTREME
    assert classify_extreme(fave, -1.0).status is ExtremeStatus.NOT_EXTREME
    assert classify_extreme(fave, 1j).status is ExtremeStatus.EXTREME
    deg31 = get("deg31").build()
    dec = classify_extreme(deg31, 1j)
    assert dec.status is ExtremeStatus.UNDETERMINED
    assert "phi(0)" in dec.reason
    av = get("amy-variant").build()
    assert classify_extreme(av, 1.0).status is ExtremeStatus.UNDETERMINED


def test_classify_extreme_is_not_stale_across_objects():
    # the saturation answer belongs to each Rif: fresh objects that take
    # over the memory (and ids) of freed ones must not inherit their answer
    fave = BiPolyN1(UniPoly([2.0, -1.0]), UniPoly([-1.0]), 1)
    other = BiPolyN1(UniPoly([3.0, -1.0]), UniPoly([-1.0]), 1)
    for _ in range(3):
        firsts = [validate(fave) for _ in range(50)]
        for rif in firsts:
            assert classify_extreme(rif, 1j).status is ExtremeStatus.EXTREME
        del firsts, rif
        for rif in [validate(other) for _ in range(50)]:
            assert classify_extreme(rif, 1j).status is ExtremeStatus.UNDETERMINED


def test_level_set_sample_satisfies_equation():
    rif = get("deg31").build()
    for alpha in (1.0 + 0.0j, complex(np.exp(0.5j))):
        s = level_set_sample(clark_measure(rif, alpha), n_points=128)
        z1 = np.exp(1j * s.curve[:, 0])
        z2 = np.exp(1j * s.curve[:, 1])
        num = np.abs(rif.ptilde.eval(z1, z2) - alpha * rif.p.eval(z1, z2))
        assert np.max(num) < 1e-8 * max(1.0, np.max(np.abs(rif.p.eval(z1, z2))))


def test_level_set_lines_match_exceptional():
    rif = get("deg31").build()
    s_exc = level_set_sample(clark_measure(rif, 1.0))
    assert len(s_exc.line_abscissae) == 1
    assert abs(s_exc.line_abscissae[0] - np.pi) < 1e-10
    s_gen = level_set_sample(clark_measure(rif, complex(np.exp(0.5j))))
    assert s_gen.line_abscissae == ()


def test_clark_measure_json_schema():
    cm = clark_measure(get("deg31").build(), -1.0)
    rep = cm.to_json()
    assert rep["kind"] == "exceptional"
    assert set(rep["blaschke"]) == {"constant", "zeros"}
    assert set(rep["weight"]) == {"num", "den"}
    assert len(rep["lines"]) == 1
    assert abs(rep["lines"][0]["mass"] - 1.0) < 1e-10
    assert abs(rep["total_mass"] - 5.0 / 3.0) < 1e-8


def _trigpoly(obj):
    return TrigPoly([cplx_from_json(c) for c in obj["coeffs"]], obj["d"])


def test_clark_measure_json_weight_matches_weight_eval():
    # num / den of the JSON against the factored W_alpha, at generic and
    # exceptional alphas.  Both are expanded coefficients, so the bound is
    # 1e-13 relative times the evaluation condition number
    # sum |c_k| / |value| of each: num vanishes at the contact of a generic
    # alpha, and den = |u|^2 is small next to a Blaschke zero near the
    # circle (deg31 at e^{0.7i}: 1e-3 away, 6e-11 relative there).  Where
    # both are well conditioned this is 1e-12 relative.
    z = np.exp(2j * np.pi * (np.arange(1000) + 0.5) / 1000)
    cases = [get(name).build() for name in CATALOG] + [_ladder(16, 0)]
    for rif in cases:
        alphas = (1j, complex(np.exp(0.7j))) + tuple(s.alpha for s in rif.singularities)
        for alpha in alphas:
            cm = clark_measure(rif, alpha)
            weight = cm.to_json()["weight"]
            num, den = _trigpoly(weight["num"]), _trigpoly(weight["den"])
            nv, dv = num.eval(z).real, den.eval(z).real
            want = cm.weight_eval(z)
            kappa = (np.sum(np.abs(num.coeffs)) / np.abs(nv)
                     + np.sum(np.abs(den.coeffs)) / np.abs(dv))
            rel = np.abs(nv / dv - want) / want
            assert np.all(rel <= 1e-13 * kappa), (rif.n, alpha, np.max(rel / kappa))


@pytest.mark.parametrize("name, n, s", [(name, None, None) for name in CATALOG]
                         + [("ladder", n, s) for n in (16, 48) for s in range(3)])
def test_near_matched_alpha_is_exceptional(name, n, s):
    # alpha_k e^{+-5e-9 i} lies within TOL of alpha_k, so it is served as
    # exceptional: the root of u next to tau_k folds into the Blaschke
    # constant like tau_k itself.  The worst mass error measured here is
    # 2.4e-9 (ladder n = 16); deflating u at tau_k instead gave 2.7e-8
    rif = get(name).build() if n is None else _ladder(n, s)
    for sing in rif.singularities:
        for sign in (1, -1):
            cm = clark_measure(rif, complex(sing.alpha * np.exp(sign * 5e-9j)))
            assert cm.alpha_class.kind is AlphaKind.EXCEPTIONAL
            lines = len(cm.alpha_class.matched)
            assert cm.balpha.degree == rif.n - lines and len(cm.lines) == lines
            closed = cm.closed_form_mass()
            assert abs(cm.total_mass(None) - closed) <= 1e-8 * closed, (sing.tau, sign)


def test_near_exceptional_is_still_generic():
    rif = get("fave").build()
    a = complex(-np.exp(1e-5j))
    ac = classify_alpha(rif, a)
    assert ac.kind is AlphaKind.GENERIC
    assert ac.distance_to_exceptional < 2e-5


@pytest.mark.parametrize("name, d, hint", [("amy", 1e-2, False), ("fave", 1e-4, True)])
def test_refused_generic_alpha_names_the_cause(name, d, hint):
    # a zero of the pencil numerator within TOL of the circle folds into
    # the Blaschke constant and costs one degree; amy at d = 0.01 lies
    # outside the near-exceptional hint's 1e-3 band
    with pytest.raises(NumericError) as info:
        clark_measure(get(name).build(), complex(-np.exp(1j * d)))
    msg = str(info.value)
    assert f"has 1 zero(s) within {TOL:g} of the unit circle" in msg
    assert ("of an exceptional value" in msg) is hint
