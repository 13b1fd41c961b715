"""Clark measures: classification, closed forms, quadrature, level sets."""

import numpy as np
import pytest

from rifclark.catalog import get
from rifclark import clark
from rifclark.agler import gram_isometry_check
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
from rifclark.polynomials import TOL, TrigPoly, UniPoly
from rifclark.quadrature import circle_nodes, poisson2
from rifclark.rif import BiPolyN1, phi_eval, validate

RNG = np.random.default_rng(303)


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
        assert cm.removable_points == ()


def test_mass_identity_generic_and_exceptional():
    for name in ("fave", "amy", "amy-variant", "deg31"):
        rif = get(name).build()
        for alpha in (-1.0 + 0.0j, complex(np.exp(2.1j))):
            cm = clark_measure(rif, alpha)
            assert abs(cm.total_mass(None) - cm.closed_form_mass()) < 1e-9


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


def test_node_data_matches_pointwise_evaluation():
    # 4096 is computed directly, 8192 reuses it at the even nodes, 1000 is
    # odd.  Near-exceptional alpha is left out: there the weight numerator
    # nearly vanishes next to the contact and is fixed by its coefficients
    # only to about 1e-12 relative, by FFT and by Horner alike.  deg31 at
    # e^{0.37i} has a Blaschke zero 7e-5 from the circle and a mapped rule.
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
            jac = (1 - abs(b) ** 2) / np.abs(1 + np.conj(b) * omega) ** 2
            assert np.max(np.abs(z2 - cm.curve_z2(z))) <= 1e-12, name
            want = cm.weight_eval(z) * jac
            assert np.max(np.abs(w - want)) <= 1e-12 * max(1.0, np.max(w)), name
    assert mapped == {"deg31"}


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
    # integrates what the uniform rule does
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


def test_line_sums_do_not_depend_on_the_node_map(monkeypatch):
    # the node map serves the curve's Blaschke zeros; each line {tau} x T
    # keeps the roots of unity, so its sums are the same bits under any centre
    pts = np.array([(0.2 - 0.1j, 0.3j), (-0.4 + 0.1j, 0.45)])
    f = lambda u, v: poisson2(pts, (u, v))
    rif = get("deg31").build()
    plain = clark_measure(rif, -1.0)
    monkeypatch.setattr(clark, "_map_center", lambda zeros: 0.6 * np.exp(0.4j))
    moved = clark_measure(rif, -1.0)
    assert plain.center == 0 and moved.center != 0 and plain.lines
    for count, odd in ((clark.RULE_NODES, slice(None)), (2 * clark.RULE_NODES, slice(1, None, 2))):
        omega = circle_nodes(count)[odd]
        rows = [clark._node_sums(cm, f, omega, *(a[odd] for a in cm.node_data(count)))
                for cm in (plain, moved)]
        assert np.array_equal(rows[0][1:], rows[1][1:]), count
        assert not np.array_equal(rows[0][0], rows[1][0]), count


def test_factored_weight_denominator_matches_trigpoly():
    z = np.exp(2j * np.pi * (np.arange(777) + 0.3) / 777)
    for name, cm in _measure_cases(near_exceptional=True):
        zero_prod, _ = cm.balpha.factors(z)
        factored = abs(cm.u_red.coeffs[-1]) ** 2 * np.abs(zero_prod) ** 2
        den = TrigPoly.modulus_squared(cm.u_red)
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
        # the rule of a fresh fixed-count integral at each doubling
        ref = clark_measure(rif, alpha)
        count = 4096
        prev = integrate(ref, f, count)
        while True:
            count *= 2
            want = integrate(ref, f, count)
            if abs(want - prev) <= 1e-9 * max(1.0, abs(want)):
                break
            prev = want
        cm = clark_measure(rif, alpha)
        counts.clear()
        f_sizes.clear()
        monkeypatch.setattr(ClarkMeasure, "node_data", counted)
        got = integrate(cm, f, None)
        monkeypatch.setattr(ClarkMeasure, "node_data", node_data)
        # node_data once per level, up to the count the fresh rules reach
        assert counts == [4096 * 2 ** k for k in range(len(counts))], name
        assert counts[-1] == count, name
        # f sees each node once: 4096 first, then only the new half
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


def test_near_exceptional_is_still_generic():
    rif = get("fave").build()
    a = complex(-np.exp(1e-5j))
    ac = classify_alpha(rif, a)
    assert ac.kind is AlphaKind.GENERIC
    assert ac.distance_to_exceptional < 2e-5


@pytest.mark.parametrize("name, d, hint", [("amy", 1e-2, False), ("fave", 1e-4, True)])
def test_refused_generic_alpha_names_the_cause(name, d, hint):
    # a zero of the reduced pencil numerator within TOL of the circle folds
    # into the Blaschke constant and costs one degree; amy at d = 0.01 lies
    # outside the near-exceptional hint's 1e-3 band
    with pytest.raises(NumericError) as info:
        clark_measure(get(name).build(), complex(-np.exp(1j * d)))
    msg = str(info.value)
    assert f"has 1 zero(s) within {TOL:g} of the unit circle" in msg
    assert ("of an exceptional value" in msg) is hint
