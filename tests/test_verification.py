"""Suite engine: sweep construction, registry, determinism."""

import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rifclark import agler, cli, clark, polynomials, verification
from rifclark import rif as rif_module
from rifclark.catalog import get, names
from rifclark.errors import DomainError, NumericError, RifClarkError
from rifclark.polynomials import roots
from rifclark.verification import (
    SWEEP_MIN_DISTANCE,
    alpha_sweep,
    run_suites,
    suite_names,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402


def test_alpha_sweep_contains_all_exceptional():
    for name in ("fave", "amy", "deg31"):
        rif = get(name).build()
        sweep = [cm.alpha for cm in alpha_sweep(rif, seed=3)]
        assert len(sweep) == 16
        for s in rif.singularities:
            assert any(abs(a - s.alpha) < 1e-9 for a in sweep)
        assert all(abs(abs(a) - 1.0) < 1e-12 for a in sweep)


def test_alpha_sweep_generic_entries_keep_conditioning_floor():
    rif = get("deg31").build()
    exc = [s.alpha for s in rif.singularities]
    for a in (cm.alpha for cm in alpha_sweep(rif, seed=5)):
        if any(abs(a - b) < 1e-9 for b in exc):
            continue
        u = rif.pt1 - a * rif.p2
        d = 1.0 - max(abs(r) for r, _m in roots(u))
        assert d >= SWEEP_MIN_DISTANCE * 0.999


def test_alpha_sweep_deterministic():
    rif = get("amy").build()
    one = [cm.alpha for cm in alpha_sweep(rif, seed=11)]
    two = [cm.alpha for cm in alpha_sweep(rif, seed=11)]
    assert one == two
    other = [cm.alpha for cm in alpha_sweep(rif, seed=12)]
    assert one != other


def test_alpha_sweep_grid_fallback_keeps_the_best_measures(monkeypatch):
    # no draw can clear an unreachable floor, so the half-offset grid fills
    # the sweep with its measures of largest Blaschke-zero gap, best first
    monkeypatch.setattr(verification, "SWEEP_MIN_DISTANCE", 1.5)
    monkeypatch.setattr(verification, "SWEEP_SIZE", 5)
    rif = get("fave").build()
    sweep = alpha_sweep(rif, seed=5)
    assert len(sweep) == 5
    assert sweep[0].alpha_class.matched and abs(sweep[0].alpha + 1.0) < 1e-12
    slots = [np.angle(cm.alpha) / (2 * np.pi) * 192 - 0.5 for cm in sweep[1:]]
    assert np.allclose(slots, np.round(slots), atol=1e-9)
    gaps = [verification._zero_gap(cm) for cm in sweep[1:]]
    assert gaps == sorted(gaps, reverse=True)


def _reference_sweep(rif, seed):
    """alpha_sweep built one clark_measure per draw, in draw order: the
    loop whose alphas the blocks of candidates must reproduce."""
    exc = [clark.clark_measure(rif, a) for a in verification._distinct_exceptional(rif)]
    need = verification.SWEEP_SIZE - len(exc)
    rng = np.random.default_rng([seed, 0x5eed])
    picked, attempts = [], 0
    while len(picked) < need and attempts < 200 * need:
        attempts += 1
        a = complex(np.exp(2j * np.pi * rng.uniform()))
        if any(abs(a - cm.alpha) <= 1e-6 for cm in exc + picked):
            continue
        try:
            cm = clark.clark_measure(rif, a)
        except RifClarkError:
            continue
        if verification._zero_gap(cm) >= verification.SWEEP_MIN_DISTANCE:
            picked.append(cm)
    if len(picked) < need:
        built = []
        for a in np.exp(2j * np.pi * (np.arange(192) + 0.5) / 192):
            if any(abs(a - cm.alpha) <= 1e-6 for cm in exc):
                continue
            try:
                built.append(clark.clark_measure(rif, complex(a)))
            except RifClarkError:
                pass
        for cm in sorted(built, key=lambda cm: -verification._zero_gap(cm)):
            if len(picked) >= need:
                break
            if not any(abs(cm.alpha - b.alpha) <= 1e-9 for b in picked):
                picked.append(cm)
    return exc + picked


def _assert_same_sweep(got, want):
    assert [cm.alpha for cm in got] == [cm.alpha for cm in want]
    for a, b in zip(got, want):
        assert len(a.balpha.zeros) == len(b.balpha.zeros)
        assert np.allclose(a.balpha.zeros, b.balpha.zeros, rtol=0, atol=1e-15)
        assert abs(a.balpha.constant - b.balpha.constant) <= 1e-15


@pytest.mark.parametrize("name", names())
def test_alpha_sweep_blocks_pick_the_alphas_of_single_draws(name):
    rif = get(name).build()
    for seed in range(6):
        _assert_same_sweep(alpha_sweep(rif, seed=seed), _reference_sweep(rif, seed))


def test_alpha_sweep_grid_fallback_matches_single_draws(monkeypatch):
    monkeypatch.setattr(verification, "SWEEP_MIN_DISTANCE", 1.5)
    monkeypatch.setattr(verification, "SWEEP_SIZE", 5)
    rif = get("fave").build()
    _assert_same_sweep(alpha_sweep(rif, seed=5), _reference_sweep(rif, 5))


def test_run_suites_selection_and_order():
    res = run_suites(get("fave"), ["reflect", "lambda_match"], seed=0)
    assert [r.name for r in res] == ["reflect", "lambda_match"]
    assert all(r.passed for r in res)


def test_run_suites_rejects_unknown():
    with pytest.raises(DomainError):
        run_suites(get("fave"), ["nope"])


def test_suite_result_json_fields():
    (res,) = run_suites(get("fave"), ["fejer_certificate"], seed=0)
    obj = res.to_json()
    # the wall time stays on the result but not in its JSON
    assert set(obj) == {"name", "passed", "max_deviation", "tol", "details"}
    assert obj["passed"] is True
    assert res.elapsed_s > 0.0


def test_registry_covers_documented_identities():
    names = suite_names()
    for required in ("reflect", "lambda_match", "fejer_certificate",
                     "poisson", "gram", "mass_identity", "support",
                     "weight_positive", "unitary", "extreme", "sos_fixture",
                     "ortho_identity", "atoms_probe", "box_mass",
                     "weakstar", "levelset", "blaschke_modulus"):
        assert required in names


def test_poisson_suite_deterministic_given_seed():
    a = run_suites(get("fave"), ["poisson"], seed=9)[0]
    b = run_suites(get("fave"), ["poisson"], seed=9)[0]
    assert a.max_deviation == b.max_deviation


def test_box_mass_details_shape():
    (res,) = run_suites(get("fave"), ["box_mass"], seed=0)
    assert res.passed
    for row in res.details["boxes"]:
        assert len(row["masses"]) == 3
        m = row["masses"]
        assert m[0] > m[1] > m[2] > 0.0


def test_weakstar_runs_trend_for_degree_one():
    (res,) = run_suites(get("fave"), ["weakstar"], seed=0)
    assert res.passed
    trend = res.details.get("trend")
    assert trend is not None and trend[0] > trend[-1]


def _count_families(monkeypatch, calls):
    """Count every alpha that clark._clark_measures builds, and its calls;
    clark_measure builds through it, and so does every sweep block."""
    built = clark._clark_measures

    def counted(rif, alphas):
        calls["families"] += 1
        for alpha in alphas:
            calls[complex(alpha)] += 1
        return built(rif, alphas)

    for module in (clark, verification):
        monkeypatch.setattr(module, "_clark_measures", counted)


@pytest.mark.parametrize("name", names())
def test_run_suites_builds_one_measure_per_alpha(name, monkeypatch):
    # every measure-side check reads the measure the suites share
    calls = Counter()
    _count_families(monkeypatch, calls)
    results = run_suites(get(name), seed=5)
    assert all(r.passed for r in results)
    alphas = {k: v for k, v in calls.items() if k != "families"}
    assert len(alphas) >= verification.SWEEP_SIZE
    assert set(alphas.values()) == {1}, Counter(alphas).most_common(3)


@pytest.mark.parametrize("name", names())
def test_run_suites_root_finds_each_alpha_once(name, monkeypatch):
    # a sweep draw is accepted or rejected on its own measure's Blaschke
    # zeros, and compute_Q factors t from validate's roots, so beyond one
    # root-find per family of measures built only p1 and t in validate
    # remain, and no pencil is root-found twice
    found = polynomials.roots
    calls = Counter()

    def counted_roots(p, *args, **kwargs):
        calls["roots"] += 1
        calls["rows"] += len(p) if np.ndim(p) == 2 else 1
        return found(p, *args, **kwargs)

    # every binding of polynomials.roots in the package is counted
    for module in (polynomials, rif_module, clark, agler, verification):
        if getattr(module, "roots", None) is found:
            monkeypatch.setattr(module, "roots", counted_roots)
    _count_families(monkeypatch, calls)
    assert all(r.passed for r in run_suites(get(name), seed=5))
    measures = sum(v for k, v in calls.items() if isinstance(k, complex))
    assert measures >= verification.SWEEP_SIZE
    assert calls["roots"] <= calls["families"] + 2, calls
    assert calls["rows"] <= measures + 2, calls


def test_fave_suites_stay_below_16384_nodes(monkeypatch):
    # the weakstar trend's measures have Blaschke zeros down to 1.1e-4 from
    # the circle, where uniform nodes ran to 2^19
    counts = []
    node_data = clark.ClarkMeasure.node_data

    def counted(cm, count):
        counts.append(count)
        return node_data(cm, count)

    monkeypatch.setattr(clark.ClarkMeasure, "node_data", counted)
    assert all(r.passed for r in run_suites(get("fave"), seed=5))
    assert counts and max(counts) <= 16384


def test_poisson_integrals_take_one_pass_per_measure(monkeypatch):
    # poisson reads each sweep measure's node data once and builds one
    # first-coordinate kernel table per run, and weakstar integrates all its
    # points in one call per exceptional alpha plus the three scalar trend
    # calls of the order-one contact
    calls = Counter()
    integrate = verification.integrate

    def counted(cm, f, count=4096):
        calls[suite] += 1
        return integrate(cm, f, count)

    reads = Counter()
    node_data = clark.ClarkMeasure.node_data

    def read(cm, count):
        if suite == "poisson":
            reads[id(cm), count] += 1
        return node_data(cm, count)

    tables = []
    kernel_table = verification._kernel_table

    def table(zi, nodes):
        tables.append((np.array(zi), len(nodes)))
        return kernel_table(zi, nodes)

    monkeypatch.setattr(verification, "integrate", counted)
    monkeypatch.setattr(clark.ClarkMeasure, "node_data", read)
    monkeypatch.setattr(verification, "_kernel_table", table)
    entry = get("fave")
    rif = entry.build()
    for suite in ("poisson", "weakstar"):
        assert run_suites(entry, names=[suite], seed=5)[0].passed
    sweep = alpha_sweep(rif, seed=5)
    assert len(sweep) == verification.SWEEP_SIZE
    assert not any(cm.center for cm in sweep)
    assert calls["poisson"] == 0
    assert len(reads) == verification.SWEEP_SIZE
    assert set(reads.values()) == {1}
    assert {count for _id, count in reads} == {clark.RULE_NODES}
    z1 = verification._interior_points(np.random.default_rng([5, 1]), 50)[:, 0]
    # the line's P(z1, tau) is a one-node table
    assert sum(np.array_equal(zi, z1) and size > 1 for zi, size in tables) == 1
    assert calls["weakstar"] == len(verification._distinct_exceptional(rif)) + 3


def _mapped_with_lines(monkeypatch):
    # fave's exceptional measure with its curve nodes moved by a node map
    rif = get("fave").build()
    monkeypatch.setattr(clark, "_map_center", lambda zeros: 0.6 * np.exp(0.4j))
    cm = clark.clark_measure(rif, -1.0)
    monkeypatch.undo()
    return cm


def test_split_poisson_kernel_matches_integrate(monkeypatch):
    # the poisson suite's integrals, the kernel split by coordinate, against
    # integrate with the whole kernel poisson2 on the same rule
    measures = []
    for name in names():
        for seed in (0, 5):
            pts = verification._interior_points(np.random.default_rng([seed, 1]), 50)
            measures += [(pts, cm) for cm in alpha_sweep(get(name).build(), seed=seed)]
    mapped = [clark.clark_measure(get("deg31").build(), complex(np.exp(0.37j))),
              _mapped_with_lines(monkeypatch)]
    assert all(cm.center for cm in mapped) and mapped[1].lines
    pts = verification._interior_points(np.random.default_rng([0, 1]), 50)
    measures += [(pts, cm) for cm in mapped]
    assert any(cm.lines for _pts, cm in measures)
    for pts, cm in measures:
        got, = verification._poisson_integrals(pts, [cm])
        want = verification.integrate(
            cm, lambda u, v: verification.poisson2(pts, (u, v)), clark.RULE_NODES)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), cm.alpha


def test_split_poisson_kernel_keeps_the_domain_checks():
    # points in the open bidisk, and every node within 1e-6 of the torus:
    # the curve's first and second coordinates and each line's tau.  Nodes
    # off the roots of unity belong to a mapped measure, of nonzero centre
    omega = clark.circle_nodes(clark.RULE_NODES)
    off = omega.copy()
    off[17] *= 1.001
    w = np.ones(omega.size)
    pts = np.array([(0.1, 0.2j), (0.3, -0.1)])
    good = SimpleNamespace(node_data=lambda count: (omega, omega, w), lines=(), center=0j)
    assert len(list(verification._poisson_integrals(pts, [good]))) == 1
    bad = [
        SimpleNamespace(node_data=lambda count: (omega, off, w), lines=(), center=0j),
        SimpleNamespace(node_data=lambda count: (off, omega, w), lines=(), center=0.5),
        SimpleNamespace(node_data=lambda count: (omega, omega, w), lines=((1.001, 0.5),),
                        center=0j),
    ]
    for cm in bad:
        with pytest.raises(DomainError, match="torus"):
            list(verification._poisson_integrals(pts, [cm]))
    for row, col in ((0, 0), (1, 1)):
        out = pts.copy()
        out[row, col] = 1.0
        with pytest.raises(DomainError, match="bidisk"):
            list(verification._poisson_integrals(out, [good]))


def _scalar_interior_points(rng, count):
    # one candidate at a time, four draws each
    r = clark.PROBE_RADIUS
    pts = []
    while len(pts) < count:
        z1 = rng.uniform(-r, r) + 1j * rng.uniform(-r, r)
        z2 = rng.uniform(-r, r) + 1j * rng.uniform(-r, r)
        if abs(z1) < r and abs(z2) < r:
            pts.append((complex(z1), complex(z2)))
    return pts


def test_interior_points_are_those_of_the_scalar_loop():
    for seed in range(200):
        for salt, count in ((1, 50), (2, 5)):
            got = verification._interior_points(np.random.default_rng([seed, salt]), count)
            want = _scalar_interior_points(np.random.default_rng([seed, salt]), count)
            assert got.shape == (count, 2) and got.dtype == complex
            assert got.tobytes() == np.array(want).tobytes(), (seed, count)
    assert verification._interior_points(np.random.default_rng(0), 0).shape == (0, 2)


def _dense_bump(t):
    # the step evaluated everywhere, exp included
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        return a / (a + b)


def _dense_box_indicators(center1, center2, epss):
    def f(z1, z2):
        t1 = np.abs(np.angle(np.asarray(z1) * np.exp(-1j * center1)))
        t2 = np.abs(np.angle(np.asarray(z2) * np.exp(-1j * center2)))
        return np.array([
            _dense_bump((eps - t1) / (eps / 10.0)) * _dense_bump((eps - t2) / (eps / 10.0))
            for eps in epss
        ])

    return f


def _same_bits(got, want):
    # the same bits at every number, and NaN at the same places (the sign
    # and payload of a NaN are not compared)
    nan = np.isnan(got)
    return (np.array_equal(nan, np.isnan(want))
            and got[~nan].tobytes() == want[~nan].tobytes())


def test_bump_matches_the_dense_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    t = np.concatenate([
        [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e-310,
         0.5, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, -1e-300, 2.0, -3.0],
        rng.uniform(size=1000), rng.uniform(-2.0, 3.0, size=1000),
    ])
    # exp underflows to 0 near the ends of the band, as numpy allows by
    # default; nothing else may warn
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = verification._bump(t)
    assert _same_bits(got, _dense_bump(t))
    assert got[0] == 0.0 and got[2] == 1.0 and np.isnan(got[5])


def test_box_indicators_match_the_dense_formula_bit_for_bit():
    epss = verification._BOX_EPSS
    for name in names():
        ctx = verification._Ctx(get(name), 0)
        targets = verification._box_targets(ctx)
        assert targets
        for cm, c1, c2 in targets:
            f = verification._box_indicators(c1, c2, epss)
            ref = _dense_box_indicators(c1, c2, epss)
            for z1, z2, _w in cm.rule(verification._BOX_NODES):
                got = f(z1, z2)
                assert got.shape == (len(epss), z1.size)
                assert _same_bits(got, ref(z1, z2)), (name, c1, c2)


def test_box_indicators_keep_nan_nodes():
    # a non-finite node in either coordinate gives NaN in every row, inside
    # the box and far from it
    f = verification._box_indicators(0.0, 0.0, verification._BOX_EPSS)
    z = clark.circle_nodes(64)
    for col in (0, 32):  # angle 0, inside every box, and angle pi, outside
        for bad in (np.nan, complex(np.nan, 0.0), complex(np.inf, np.nan)):
            for which in (0, 1):
                pair = [z.copy(), z.copy()]
                pair[which][col] = bad
                got = f(*pair)
                assert np.all(np.isnan(got[:, col])), (col, bad, which)
                with np.errstate(invalid="ignore"):
                    ref = _dense_box_indicators(0.0, 0.0, verification._BOX_EPSS)(*pair)
                assert _same_bits(got, ref)


def test_worst_keeps_a_nan():
    # Python's max(dev, nan) is dev: a NaN deviation would pass its suite
    nan = float("nan")
    assert max(0.0, nan) == 0.0
    for values in ((nan, 1.0), (1.0, nan), (0.0, 2.0, nan, 3.0), (np.float64(nan),)):
        assert math.isnan(verification._worst(*values)), values
    assert verification._worst(0.0, 2.0, np.float64(3.0), 1.0) == 3.0
    assert verification._worst(0.0, -0.0, -1.0) == 0.0


def _with_nan(value):
    if isinstance(value, agler.GramReport):
        return dataclasses.replace(value, max_abs_deviation=math.nan)
    value = np.array(value, dtype=float)
    value.flat[0] = math.nan
    return value


@pytest.mark.parametrize("suite, family", [
    ("gram", "_gram_reports"), ("poisson", "_poisson_integrals"),
    ("support", "_support_residuals"),
])
@pytest.mark.parametrize("at", [0, 7, -1])
def test_a_nan_in_one_measure_fails_its_suite(suite, family, at, monkeypatch, capsys):
    # a NaN in one sweep measure's result, first, in the middle or last,
    # fails the suite, and verify ends with exit 3, never 0
    made = getattr(verification, family)

    def planted(first, measures):
        out = list(made(first, measures))
        out[at] = _with_nan(out[at])
        return iter(out)

    monkeypatch.setattr(verification, family, planted)
    result, = run_suites(get("fave"), [suite], seed=0)
    assert not result.passed and math.isnan(result.max_deviation)
    assert cli.main(["verify", "fave", "--suite", suite, "--seed", "0"]) == 3
    assert "non-finite" in capsys.readouterr().err


def _family_measures(monkeypatch):
    # (rif, seed, measures) per sweep of the four entries at seeds 0 and 5,
    # then the two mapped measures, one of them with a line
    out = [(get(name).build(), seed) for name in names() for seed in (0, 5)]
    out = [(rif, seed, alpha_sweep(rif, seed=seed)) for rif, seed in out]
    mapped = [clark.clark_measure(get("deg31").build(), complex(np.exp(0.37j))),
              _mapped_with_lines(monkeypatch)]
    assert all(cm.center for cm in mapped) and mapped[1].lines
    out += [(cm.rif, 0, [cm]) for cm in mapped]
    assert any(cm.lines for _rif, _seed, sweep in out for cm in sweep)
    return out


def _gram_reference(cm, pts):
    # the one-measure check as it was: C_w formed whole on each block of the
    # rule and (c w) @ c^H summed over the blocks
    w = np.asarray(pts, dtype=complex)
    phis = verification.phi_eval(cm.rif, w)
    cw1, cw2 = np.conj(w[:, :1]), np.conj(w[:, 1:])
    measured = 0j
    for z1, z2, wt in cm.rule(clark.RULE_NODES):
        c = 1.0 / ((1.0 - cw1 * z1) * (1.0 - cw2 * z2))
        measured = measured + (c * wt) @ c.conj().T
    pref = 1.0 - cm.alpha * np.conj(phis)
    return measured * np.outer(pref, np.conj(pref)) / clark.RULE_NODES


def test_gram_family_matches_the_per_block_reference(monkeypatch):
    # one family per sweep, as the gram suite runs it: the shared
    # first-coordinate factor, a mapped measure's own, and the shared
    # second-coordinate Gram matrix of the lines
    for _rif, seed, measures in _family_measures(monkeypatch):
        pts = verification._interior_points(np.random.default_rng([seed, 2]), 5)
        reps = list(verification._gram_reports(pts, measures))
        assert len(reps) == len(measures)
        for cm, rep in zip(measures, reps):
            want = _gram_reference(cm, pts)
            assert np.all(np.abs(rep.measured - want) <= 1e-15 * np.maximum(1.0, np.abs(want))), cm.alpha
            assert rep.max_abs_deviation == float(np.max(np.abs(rep.measured - rep.target)))


def _support_reference(rif, alpha, z1, z2):
    # the support residual as it was on one block of the rule: p and
    # ptilde evaluated whole, a line's tau repeated at every node
    pz = rif.p.eval(z1, z2)
    num = rif.ptilde.eval(z1, z2) - alpha * pz
    return float(np.max(np.abs(num))) / max(1.0, float(np.max(np.abs(pz))))


def _line_support(rif, alpha, tau):
    # sup over the circle of |A + z2 B| / max(1, sup |p1 + z2 p2|)
    p1, p2 = rif.p.p1(tau), rif.p.p2(tau)
    a, b = rif.ptilde.p1(tau) - alpha * p1, rif.ptilde.p2(tau) - alpha * p2
    return (abs(a) + abs(b)) / max(1.0, abs(p1) + abs(p2))


def test_support_residuals_match_the_block_formula_bit_for_bit(monkeypatch):
    # the curve block bit for bit, each line in closed form exactly, and the
    # closed form within 4e-15 of the line block it replaced
    cases = _family_measures(monkeypatch)
    for n in (16, 48):
        for s in (0, 1):
            f = gen.generate(np.random.default_rng([9, n, s]), n)
            rif = rif_module.validate(rif_module.BiPolyN1(
                polynomials.UniPoly(f.p1), polynomials.UniPoly(f.p2), n))
            cases.append((rif, 0, alpha_sweep(rif, seed=0)))
            assert any(cm.lines for cm in cases[-1][2])
    for rif, _seed, measures in cases:
        got = list(verification._support_residuals(rif, measures))
        want = []
        for cm in measures:
            curve, *lines = cm.rule(clark.RULE_NODES)
            exact = [_line_support(rif, cm.alpha, tau) for tau, _mass in cm.lines]
            for (z1, z2, _w), value in zip(lines, exact):
                assert abs(value - _support_reference(rif, cm.alpha, z1, z2)) <= 4e-15
            want.append(max([_support_reference(rif, cm.alpha, *curve[:2])] + exact))
        assert got == want


def test_family_node_data_shares_the_first_coordinate_by_centre(monkeypatch):
    # first is called once per catalog sweep, whose measures all have
    # centre 0, at the roots of unity, and once more per mapped measure, at
    # its own nodes; a mixed family shares one table among its centred ones
    cases = _family_measures(monkeypatch)
    omega = clark.circle_nodes(clark.RULE_NODES)
    mapped = [cm for _rif, _seed, sweep in cases for cm in sweep if cm.center]
    assert len(mapped) == 2
    families = [sweep for _rif, _seed, sweep in cases]
    families.append([mapped[0]] + families[0][:3] + [mapped[1]])
    for family in families:
        calls = []

        def first(nodes):
            calls.append(nodes)
            return object()

        rows = list(clark._family_node_data(family, first))
        assert len(rows) == len(family)
        assert all(row[0] is cm for row, cm in zip(rows, family))
        own = [cm.node_data(clark.RULE_NODES)[0] for cm in family if cm.center]
        centred = any(not cm.center for cm in family)
        assert len(calls) == centred + len(own)
        assert sum(c is omega for c in calls) == centred
        assert all(any(c is nodes for c in calls) for nodes in own)
        assert len({id(row[3]) for row in rows if not row[0].center}) == centred
        for cm, z2, w, _table in rows:
            _nodes, want_z2, want_w = cm.node_data(clark.RULE_NODES)
            assert z2 is want_z2 and w is want_w


def test_generic_measures_share_t_node_values(monkeypatch):
    # every generic measure of a Rif has rif.t as its weight numerator, so a
    # sweep's node data takes one FFT of t per node count, and one per
    # exceptional measure, whose numerator is its own
    ffts = []
    ifft = np.fft.ifft

    def counted(a, *args, **kwargs):
        ffts.append(len(a))
        return ifft(a, *args, **kwargs)

    rif = get("fave").build()
    sweep = alpha_sweep(rif, seed=5)
    generic = [cm for cm in sweep if not cm.lines]
    assert len(generic) > 1 and all(cm.weight_num is rif.t for cm in generic)
    monkeypatch.setattr(np.fft, "ifft", counted)
    for cm in sweep:
        cm.node_data(clark.RULE_NODES)
    assert ffts.count(clark.RULE_NODES) == 1 + len(sweep) - len(generic)
    monkeypatch.undo()
    t, count = rif.t, clark.RULE_NODES
    values = t.node_values(count)
    assert values is t.node_values(count) and not values.flags.writeable
    spectrum = np.zeros(count, dtype=complex)
    np.add.at(spectrum, np.arange(-t.d, t.d + 1) % count, t.coeffs)
    assert np.array_equal(values, np.fft.ifft(spectrum, norm="forward"))
    with pytest.raises(ValueError):
        t.coeffs[t.d] = 0.0
    with pytest.raises(ValueError):
        values[0] = 0.0


def _plant_root_failure(monkeypatch, rif, alpha):
    """clark.roots with the entry of the pencil row u = pt1 - alpha p2
    replaced by a NumericError, as a row that fails its certificate is."""
    size = rif.n + 1
    bad = rif.pt1.padded(size) - alpha * rif.p2.padded(size)
    real = clark.roots

    def planted(stack):
        found = real(stack)
        for j, row in enumerate(stack):
            if np.allclose(row, bad, rtol=0, atol=1e-12):
                found[j] = NumericError("planted root failure")
        return found

    monkeypatch.setattr(clark, "roots", planted)


def test_a_failed_pencil_row_holds_its_error_and_leaves_the_others(monkeypatch):
    rif = get("amy-variant").build()
    generic = [complex(np.exp(1j * t)) for t in (0.4, 1.3, 2.9)]
    alphas = verification._distinct_exceptional(rif) + generic
    want = [cm.to_json() for cm in clark._clark_measures(rif, alphas)]
    bad = len(alphas) - 2
    _plant_root_failure(monkeypatch, rif, alphas[bad])
    got = clark._clark_measures(rif, alphas)
    assert isinstance(got[bad], NumericError)
    assert [cm.to_json() for k, cm in enumerate(got) if k != bad] == want[:bad] + want[bad + 1:]
    with pytest.raises(NumericError, match="planted root failure"):
        clark.clark_measure(rif, alphas[bad])


def test_alpha_sweep_raises_a_failed_exceptional_measure(monkeypatch):
    rif = get("amy-variant").build()
    _plant_root_failure(monkeypatch, rif, verification._distinct_exceptional(rif)[-1])
    with pytest.raises(NumericError, match="planted root failure"):
        alpha_sweep(rif, seed=0)


def test_alpha_sweep_skips_a_failed_generic_draw(monkeypatch):
    # the sweep keeps its draws in order, so without the first draw it
    # keeps the others and one more after them
    rif = get("amy-variant").build()
    need = verification.SWEEP_SIZE - len(verification._distinct_exceptional(rif))
    first = verification._unit_draws(np.random.default_rng([0, 0x5eed]), need)[0]
    want = [cm.alpha for cm in alpha_sweep(rif, seed=0)]
    assert first in want
    _plant_root_failure(monkeypatch, rif, first)
    got = [cm.alpha for cm in alpha_sweep(rif, seed=0)]
    assert got[:-1] == [a for a in want if a != first]


def test_alpha_sweep_skips_a_draw_it_already_holds(monkeypatch):
    # the first draw repeats the exceptional value -1 and every later draw
    # the first generic one, so the grid fallback fills the rest
    monkeypatch.setattr(verification, "SWEEP_SIZE", 4)
    a = complex(np.exp(0.7j))
    monkeypatch.setattr(verification, "_unit_draws",
                        lambda rng, count: [-1 + 0j] + [a] * (count - 1))
    sweep = [cm.alpha for cm in alpha_sweep(get("fave").build(), seed=0)]
    assert len(sweep) == 4 and abs(sweep[0] + 1.0) < 1e-12 and sweep[1] == a
    assert min(abs(x - y) for i, x in enumerate(sweep) for y in sweep[:i]) > 1e-6
    slots = [np.angle(x) / (2 * np.pi) * 192 - 0.5 for x in sweep[2:]]
    assert np.allclose(slots, np.round(slots), atol=1e-9)


def _plant_extra_line(monkeypatch):
    # every level-set sample reports one line more than its measure has
    made = verification.level_set_sample

    def planted(cm, n_points):
        sample = made(cm, n_points)
        return dataclasses.replace(sample, line_abscissae=sample.line_abscissae + (0.0,))

    monkeypatch.setattr(verification, "level_set_sample", planted)


def _plant_flat_probe(monkeypatch):
    # every probe repeats its last, smallest value: not decreasing
    made = verification.pointmass_probe

    def planted(*args):
        probe = made(*args)
        return [probe[-1]] * len(probe)

    monkeypatch.setattr(verification, "pointmass_probe", planted)


def _plant_repeated_box(monkeypatch):
    # the last two boxes are one box, so their masses are equal
    monkeypatch.setattr(verification, "_BOX_EPSS", (0.1, 0.05, 0.05))


@pytest.mark.parametrize("suite, plant, flag", [
    ("levelset", _plant_extra_line, "lines_consistent"),
    ("atoms_probe", _plant_flat_probe, "monotone"),
    ("box_mass", _plant_repeated_box, "monotone"),
])
def test_a_false_flag_alone_fails_its_suite(suite, plant, flag, monkeypatch):
    # each fault sets only the suite's flag: the deviation stays within its
    # tolerance, and the suite fails all the same
    honest, = run_suites(get("fave"), [suite], seed=0)
    assert honest.passed and honest.details[flag] is True
    plant(monkeypatch)
    result, = run_suites(get("fave"), [suite], seed=0)
    assert result.details[flag] is False
    assert result.max_deviation <= result.tol
    assert not result.passed


def test_an_extreme_mismatch_count_fails_its_suite(monkeypatch):
    # every exceptional value of fave is classified extreme: one mismatch each
    honest, = run_suites(get("fave"), ["extreme"], seed=0)
    assert honest.passed and honest.max_deviation == 0.0
    decision = clark.ExtremeDecision(clark.ExtremeStatus.EXTREME, "planted")
    monkeypatch.setattr(verification, "classify_extreme", lambda rif, alpha: decision)
    result, = run_suites(get("fave"), ["extreme"], seed=0)
    assert result.max_deviation >= len(verification._distinct_exceptional(get("fave").build()))
    assert not result.passed


def test_a_non_finite_weight_fails_its_suite(monkeypatch):
    honest, = run_suites(get("fave"), ["weight_positive"], seed=0)
    assert honest.passed and "max_weight" in honest.details
    made = clark.ClarkMeasure.node_data

    def planted(self, count):
        z, z2, w = made(self, count)
        w = w.copy()
        w[0] = math.inf
        return z, z2, w

    monkeypatch.setattr(clark.ClarkMeasure, "node_data", planted)
    result, = run_suites(get("fave"), ["weight_positive"], seed=0)
    # the non-finite branch returns before it records the largest weight
    assert result.details == {} and result.max_deviation == math.inf
    assert not result.passed
