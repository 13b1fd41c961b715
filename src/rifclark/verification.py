"""Invariant suites: machine checks of every documented identity.

Each suite takes the state shared for one catalog entry (or an ad hoc
entry wrapped around a raw polynomial), runs one family of checks, and
returns (deviation, ok, details): its worst deviation, whether its checks
that are not measured against the tolerance held (True when it has none),
and a JSON-ready dict.  _SUITES states each suite's name and tolerance
once, and run_suites, the engine behind the command-line verify
subcommand, times a selection of them; a suite passes when ok holds and
deviation <= tol.  A suite collects its worst deviation with _worst, so a
NaN anywhere makes the suite fail, where Python's max would drop it.

Four suites cost only their arithmetic.  poisson, gram and support split
their kernels by coordinate, and what depends on the first coordinate
alone is built once for every sweep measure with centre 0, whose nodes
are the roots of unity, and once per mapped measure: clark._family_node_data
decides that from the centre.  Each line {tau_k} x T is exact: poisson
(_poisson_integrals) adds c_k P(z1, tau_k), gram (agler._gram_reports)
the Szego kernel of the second coordinates, and support
(_support_residuals), which forms each curve's residual with
_level_residual as levelset does, the supremum over the circle.
box_mass integrates box indicators that are exactly 0 wherever the first
angle lies outside the widest box, so _box_indicators takes the second
angle and the steps only on the nodes near the box, with the bits of the
dense formula.

Sweep construction (a list of Clark measures, one per alpha, shared by the
suites): quadrature error for the curve part decays like
exp(-N s) where the analyticity strip s is proportional to the distance d
from the unit circle to the nearest zero of B_alpha.  Near-exceptional
generic alpha push that distance toward zero (quartic in the gap for
order-two boundary contact), so random sweeps draw unimodular alpha and
keep the measure when the distance of its own Blaschke zeros stays above a
floor; with the floor 0.02 and test points of modulus at most 0.5 the
observed deviations sit around 1e-12, far inside the 1e-7 budget, and on
the catalog every sweep measure has centre 0.  When too few draws clear
the floor, the best measures of a fixed grid fill the sweep, and those
may be mapped (clark.ClarkMeasure.center): all ten wide-span generated
RIFs of degree 32 and 48 (s < 10) that validate hold such measures at
seed 0, with |b| from 0.09 to 0.77.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .agler import (
    _gram_reports,
    compute_Q,
    exceptional_R,
    orthonormality_check,
    sos_residual,
)
from .catalog import CatalogEntry
from .clark import (
    PROBE_RADIUS,
    RULE_NODES,
    ClarkMeasure,
    ExtremeStatus,
    Unitarity,
    _clark_measures,
    _family_node_data,
    _raising,
    classify_extreme,
    classify_unitary,
    integrate,
    level_set_sample,
)
from .errors import DomainError, _check_seed
from .polynomials import TOL
from .quadrature import _kernel_factor, circle_nodes, pointmass_probe, poisson2
from .rif import Rif, phi_eval, reflect

SWEEP_SIZE = 16
SWEEP_MIN_DISTANCE = 0.02
# box_mass weighs boxes of these half-widths, with transitions a tenth as
# wide, resolved on _BOX_NODES nodes
_BOX_EPSS = (0.1, 0.05, 0.025)
_BOX_NODES = 16384


@dataclass
class SuiteResult:
    """One suite's outcome.  elapsed_s, the suite's wall time, is kept on
    the object but left out of to_json, so verify's output stays
    byte-deterministic."""

    name: str
    passed: bool
    max_deviation: float
    tol: float
    elapsed_s: float = 0.0
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_deviation": float(self.max_deviation),
            "tol": float(self.tol),
            "details": self.details,
        }


def _worst(*values) -> float:
    """The largest of values, NaN when one of them is NaN.  Python's max
    keeps its first argument when a later one is NaN, so a suite that
    collected its deviation with it would pass a NaN."""
    out = -math.inf
    for v in map(float, values):
        # a NaN replaces out and is never replaced
        if v > out or v != v:
            out = v
    return out


def _distinct_exceptional(rif: Rif) -> list[complex]:
    out: list[complex] = []
    for s in rif.singularities:
        if not any(abs(s.alpha - a) <= 1e-9 for a in out):
            out.append(s.alpha)
    return out


def _zero_gap(cm: ClarkMeasure) -> float:
    """1 minus the largest modulus of the measure's Blaschke zeros."""
    return 1.0 - max((abs(a) for a in cm.balpha.zeros), default=0.0)


def _unit_draws(rng, count: int) -> list[complex]:
    """count unimodular alphas at uniform angles, one draw of the generator
    each, in order."""
    return np.exp(2j * np.pi * rng.uniform(size=max(count, 0))).tolist()


def alpha_sweep(rif: Rif, seed: int = 0) -> list[ClarkMeasure]:
    """The sweep's Clark measures: one per exceptional value, then random
    well-conditioned generic ones up to SWEEP_SIZE in all.

    A generic draw is kept when its Blaschke zeros lie at least
    SWEEP_MIN_DISTANCE inside the circle; when qualifying angles are too
    rare the fallback scans a fixed half-offset grid and keeps the best.
    The candidates are drawn and built in blocks of as many as the sweep
    needs, each block as one family (_clark_measures), the exceptional
    values riding in the first; they are then taken in draw order, and the
    draws past the last one needed are dropped, so the sweep keeps the
    alphas that building one draw at a time would keep.
    """
    _check_seed(seed)
    exc_alphas = _distinct_exceptional(rif)
    need = SWEEP_SIZE - len(exc_alphas)
    rng = np.random.default_rng([seed, 0x5eed])
    alphas = exc_alphas + _unit_draws(rng, need)
    built = _clark_measures(rif, alphas)
    exc = _raising(built[: len(exc_alphas)])
    queue = list(zip(alphas, built))[len(exc):]
    picked: list[ClarkMeasure] = []
    attempts = 0
    while len(picked) < need and attempts < 200 * need:
        if not queue:
            alphas = _unit_draws(rng, need)
            queue = list(zip(alphas, _clark_measures(rif, alphas)))
        a, cm = queue.pop(0)
        attempts += 1
        if any(abs(a - b.alpha) <= 1e-6 for b in exc + picked):
            continue
        if isinstance(cm, ClarkMeasure) and _zero_gap(cm) >= SWEEP_MIN_DISTANCE:
            picked.append(cm)
    if len(picked) < need:
        grid = [a for a in circle_nodes(384)[1::2].tolist()
                if not any(abs(a - cm.alpha) <= 1e-6 for cm in exc)]
        built = [cm for cm in _clark_measures(rif, grid) if isinstance(cm, ClarkMeasure)]
        for cm in sorted(built, key=lambda cm: -_zero_gap(cm)):
            if len(picked) >= need:
                break
            if not any(abs(cm.alpha - b.alpha) <= 1e-9 for b in picked):
                picked.append(cm)
    return exc + picked


def _interior_points(rng, count: int) -> np.ndarray:
    """count points of the bidisk of radius PROBE_RADIUS, a (count, 2)
    complex array.  Each candidate is a row of four uniform draws in
    (-r, r), the real and imaginary parts of z1 and z2, kept when |z1| and
    |z2| are both below r; the rows come in blocks of 2 count and are
    taken in order, so the points are those that drawing one row at a time
    would keep, and the draws past the last point kept go unused."""
    r = PROBE_RADIUS
    kept = [np.empty((0, 2), dtype=complex)]
    found = 0
    while found < count:
        z = rng.uniform(-r, r, size=(2 * count, 4)).view(complex)
        kept.append(z[np.all(np.abs(z) < r, axis=1)])
        found += len(kept[-1])
    return np.concatenate(kept)[:count]


class _Ctx:
    """Shared state handed to every suite."""

    def __init__(self, entry: CatalogEntry, seed: int):
        self.entry = entry
        self.rif = entry.build()
        self.seed = seed
        self._sweep = None

    def sweep(self) -> list[ClarkMeasure]:
        if self._sweep is None:
            self._sweep = alpha_sweep(self.rif, seed=self.seed)
        return self._sweep

    def exceptional(self) -> list[ClarkMeasure]:
        """The sweep's measures at the distinct exceptional values."""
        return [cm for cm in self.sweep() if cm.alpha_class.matched]

    def rng(self, salt: int):
        return np.random.default_rng([self.seed, salt])


def _parts(rif: Rif, z1) -> tuple:
    """p1, p2, pt2 and pt1, as Rif names them, at the points z1, in that
    order: p = p1 + z2 p2 and ptilde = pt2 + z2 pt1 at any z2 over them."""
    return rif.p1(z1), rif.p2(z1), rif.pt2(z1), rif.pt1(z1)


def _level_residual(alpha: complex, parts: tuple, z2) -> float:
    """max |p~ - alpha p| / max(1, max |p|) at the points (z1, z2), from the
    parts of p and ptilde at z1 (_parts), formed as BiPolyN1.eval forms
    them."""
    p1, p2, pt2, pt1 = parts
    z2 = np.asarray(z2, dtype=complex)
    pz = p1 + z2 * p2
    num = (pt2 + z2 * pt1) - alpha * pz
    return float(np.max(np.abs(num))) / max(1.0, float(np.max(np.abs(pz))))


def _support_residuals(rif: Rif, measures):
    """Each measure's support residual on its RULE_NODES rule, one float
    per measure, in order: the largest of its curve's _level_residual, the
    parts at the nodes shared as clark._family_node_data decides, and of
    its lines'.  On {tau_k} x T, ptilde - alpha p = A + z2 B, A and B from
    the parts at tau_k, has largest modulus |A| + |B| on the circle, and p
    has |p1(tau_k)| + |p2(tau_k)|: a line's residual is exact."""
    for cm, z2, _w, parts in _family_node_data(measures, lambda nodes: _parts(rif, nodes)):
        a = cm.alpha
        yield _worst(_level_residual(a, parts, z2), *(
            (abs(pt2 - a * p1) + abs(pt1 - a * p2)) / max(1.0, abs(p1) + abs(p2))
            for p1, p2, pt2, pt1 in (_parts(rif, tau) for tau, _mass in cm.lines)))


def _factor_residual(rif: Rif, q, count: int) -> float:
    """max ||q|^2 - t| / max(1, max |t|) at the count-th roots of unity: how
    far q is from a spectral factor of the boundary polynomial t."""
    z = circle_nodes(count)
    tz = rif.t.eval(z)
    resid = np.abs(np.abs(q(z)) ** 2 - np.real(tz))
    return float(np.max(resid)) / max(1.0, float(np.max(np.abs(tz))))


def _suite_reflect(ctx: _Ctx):
    rif = ctx.rif
    twice = reflect(reflect(rif.p))
    involution_exact = (
        np.array_equal(twice.p1.coeffs, rif.p.p1.coeffs)
        and np.array_equal(twice.p2.coeffs, rif.p.p2.coeffs)
    )
    # the second coordinate a quarter step off the roots of unity
    g1, g2 = np.meshgrid(circle_nodes(96), circle_nodes(64)[1::4], indexing="ij")
    dev = float(np.max(np.abs(
        np.abs(rif.p.eval(g1, g2)) - np.abs(rif.ptilde.eval(g1, g2))
    )))
    return dev, involution_exact, {"involution_exact": involution_exact}


def _suite_fejer(ctx: _Ctx):
    q = compute_Q(ctx.rif)
    return _factor_residual(ctx.rif, q, 2048), True, {"q_degree": int(q.degree)}


def _suite_blaschke(ctx: _Ctx):
    z = circle_nodes(512)
    dev = 0.0
    zeros_inside = True
    for cm in ctx.sweep():
        b = cm.balpha
        dev = _worst(dev, np.max(np.abs(np.abs(b(z)) - 1.0)), abs(abs(b.constant) - 1.0))
        if any(abs(w) >= 1.0 for w in b.zeros):
            zeros_inside = False
    return dev, zeros_inside, {"zeros_inside": zeros_inside}


def _suite_lambda_match(ctx: _Ctx):
    dev = 0.0
    for cm in ctx.sweep():
        b = cm.balpha
        for s in ctx.rif.singularities:
            dev = _worst(dev, abs(np.conj(b(s.tau)) - s.lam))
    return dev, True, {"singularities": len(ctx.rif.singularities)}


def _suite_support(ctx: _Ctx):
    return _worst(0.0, *_support_residuals(ctx.rif, ctx.sweep())), True, {}


def _suite_weight_positive(ctx: _Ctx):
    dev = 0.0
    wmax = 0.0
    for cm in ctx.sweep():
        _z, _z2, w = cm.node_data(RULE_NODES)
        dev = _worst(dev, -np.min(w))
        wmax = _worst(wmax, np.max(w))
        if not np.all(np.isfinite(w)):
            return math.inf, False, {}
    return dev, True, {"max_weight": wmax}


def _suite_mass_identity(ctx: _Ctx):
    dev = 0.0
    for cm in ctx.sweep():
        dev = _worst(dev, abs(cm.total_mass(count=None) - cm.closed_form_mass()))
    return dev, True, {}


def _poisson_closed_form(phis: np.ndarray, alpha: complex) -> np.ndarray:
    """(1 - |phi(z)|^2) / |alpha - phi(z)|^2, the Poisson integral of
    sigma_alpha at the points where phi takes the values phis."""
    return (1.0 - np.abs(phis) ** 2) / np.abs(alpha - phis) ** 2


def _kernel_table(zi, nodes) -> np.ndarray:
    """The one-variable Poisson kernels (1 - |zi|^2) / |w - zi|^2 of the
    points zi at the nodes w, a (P, N) array."""
    num, den = _kernel_factor(zi, nodes)
    return np.divide(num[:, None], den, out=den)


def _poisson_integrals(pts: np.ndarray, measures):
    """The Poisson integrals of each measure at the (P, 2) points pts on
    its RULE_NODES rule, one real (P,) array per measure, in order: what
    integrate(cm, lambda u, v: poisson2(pts, (u, v)), RULE_NODES).real
    gives, up to rounding.

    The bidisk kernel is the product of the kernels of the two coordinates
    (Rudin, Function Theory in Polydiscs, 1969, ch. 2).  On the curve it is
    the first coordinate's (P, N) table at the nodes zeta_j, shared as
    clark._family_node_data decides, divided by |conj(B_alpha(zeta_j)) -
    z2|^2 in one kept (P, N) workspace, and 1 - |z2|^2 multiplies each row
    after the product with the weights.  The second coordinate's kernel
    has mean 1 on the circle, so a line (tau_k, c_k) adds c_k P(z1, tau_k).
    """
    z1, z2 = np.asarray(pts, dtype=complex).T
    work = np.empty((z1.size, RULE_NODES))
    for cm, curve_z2, w, table in _family_node_data(
            measures, lambda nodes: _kernel_table(z1, nodes)):
        num, den = _kernel_factor(z2, curve_z2, work)
        got = (np.divide(table, den, out=den) @ w) * (num / RULE_NODES)
        for tau, mass in cm.lines:
            got += mass * _kernel_table(z1, [tau])[:, 0]
        yield got


def _suite_poisson(ctx: _Ctx):
    rif = ctx.rif
    pts = _interior_points(ctx.rng(1), 50)
    phis = phi_eval(rif, pts)
    sweep = ctx.sweep()
    dev = 0.0
    for cm, got in zip(sweep, _poisson_integrals(pts, sweep)):
        want = _poisson_closed_form(phis, cm.alpha)
        dev = _worst(dev, np.max(np.abs(got - want)))
    return dev, True, {"points": len(pts), "alphas": len(sweep)}


def _suite_gram(ctx: _Ctx):
    pts = _interior_points(ctx.rng(2), 5)
    dev = _worst(0.0, *(rep.max_abs_deviation for rep in _gram_reports(pts, ctx.sweep())))
    return dev, True, {"points": len(pts)}


def _suite_unitary(ctx: _Ctx):
    rif = ctx.rif
    exc = _distinct_exceptional(rif)
    bad = 0
    for a in circle_nodes(64).tolist():
        want = (Unitarity.NOT_UNITARY
                if any(abs(a - b) <= 1e-8 for b in exc) else Unitarity.UNITARY)
        bad += classify_unitary(rif, a) is not want
    return float(bad), True, {"grid": 64, "not_unitary_count": len(exc)}


def _suite_extreme(ctx: _Ctx):
    rif = ctx.rif
    bad = 0
    checked = 0
    for f in ctx.entry.facts:
        if f.get("quantity") != "extreme":
            continue
        checked += 1
        got = classify_extreme(rif, complex(*f["alpha"]))
        if got.status.value != f["status"]:
            bad += 1
    for a in _distinct_exceptional(rif):
        checked += 1
        got = classify_extreme(rif, a)
        if got.status is ExtremeStatus.EXTREME:
            bad += 1
    return float(bad), True, {"checked": checked}


def _sospiece_vanishing(rif: Rif, pieces) -> float:
    dev = 0.0
    for piece in pieces:
        scale = max(
            1.0,
            float(np.max(np.abs(piece.r.coeffs), initial=0.0)),
            float(np.max(np.abs(piece.q.coeffs), initial=0.0)),
        )
        for s in rif.singularities:
            dev = _worst(dev, abs(piece.eval(s.tau, s.lam)) / scale)
    return dev


def _suite_sos_fixture(ctx: _Ctx):
    fx = ctx.entry.sos_fixture
    if fx is None:
        return 0.0, True, {"skipped": "no documented decomposition"}
    rif = ctx.rif
    resid = sos_residual(rif, fx.Q, list(fx.R), seed=ctx.seed)
    vanish = _sospiece_vanishing(rif, fx.R)
    qzero = _worst(0.0, *(abs(fx.Q(s.tau)) for s in rif.singularities))
    dev = _worst(resid, _factor_residual(rif, fx.Q, 1024), vanish, qzero)
    return dev, True, {"identity_residual": resid}


def _suite_ortho(ctx: _Ctx):
    rif = ctx.rif
    if not rif.singularities:
        return 0.0, True, {"skipped": "no exceptional values"}
    dev = 0.0
    vanish = 0.0
    for cm in ctx.exceptional():
        pieces = exceptional_R(cm)
        gram = orthonormality_check(cm, pieces)
        dev = _worst(dev, np.max(np.abs(gram - np.eye(len(pieces)))))
        vanish = _worst(vanish, _sospiece_vanishing(rif, pieces))
    return _worst(dev, vanish), True, {"vanishing_deviation": vanish}


def _suite_atoms(ctx: _Ctx):
    rif = ctx.rif
    worst = 0.0
    monotone = True
    for s in rif.singularities:
        probe = pointmass_probe(rif, s.alpha, (s.tau, s.lam))
        if any(b >= a for a, b in zip(probe, probe[1:])):
            monotone = False
        worst = _worst(worst, probe[-1])
    return worst, monotone, {"monotone": monotone}


def _bump(t):
    """C-infinity step: exactly 0 for t <= 0 and 1 for t >= 1, NaN at NaN,
    and exp(-1/t) / (exp(-1/t) + exp(-1/(1 - t))) in between, the only
    place where it takes an exp."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    out[np.isnan(t)] = np.nan
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    a = np.exp(-1.0 / np.maximum(tb, 1e-300))
    b = np.exp(-1.0 / np.maximum(1.0 - tb, 1e-300))
    out[band] = a / (a + b)
    return out


def _box_indicators(center1: float, center2: float, epss):
    """Smoothed indicators of the eps-boxes of angles around (center1,
    center2), one row per eps, transition eps/10; the angles are taken
    once for the whole family.

    The first coordinate's step is exactly 0 where its angle t1 is at
    least eps, and there the indicator is 0 times a step in [0, 1].  So
    the second angle and the steps are taken only where t1 is below the
    widest eps or z2 is not finite (0 times NaN is NaN); every other entry
    is an exact 0."""
    widest = max(epss)

    def f(z1, z2):
        t1 = np.abs(np.angle(np.asarray(z1) * np.exp(-1j * center1)))
        z2 = np.asarray(z2)
        near = ~(t1 >= widest) | ~np.isfinite(z2)
        t1 = t1[near]
        t2 = np.abs(np.angle(z2[near] * np.exp(-1j * center2)))
        out = np.zeros((len(epss),) + near.shape)
        for row, eps in zip(out, epss):
            row[near] = _bump((eps - t1) / (eps / 10.0)) * _bump((eps - t2) / (eps / 10.0))
        return out

    return f


def _box_targets(ctx: _Ctx) -> list:
    """(measure, theta1, theta2) of every box that box_mass weighs: each
    contact (tau_k, lambda_k) on the sweep's measure at its alpha, and the
    curve point at theta1 = 0.7 of the first generic measure."""
    rif = ctx.rif
    exc = ctx.exceptional()
    targets = []
    for s in rif.singularities:
        cm = min(exc, key=lambda cm: abs(cm.alpha - s.alpha))
        targets.append((cm, math.atan2(s.tau.imag, s.tau.real),
                        math.atan2(s.lam.imag, s.lam.real)))
    generic = [cm for cm in ctx.sweep() if not cm.alpha_class.matched]
    if generic:
        cm = generic[0]
        th1 = 0.7
        z2 = complex(cm.curve_z2(np.exp(1j * th1)))
        targets.append((cm, th1, math.atan2(z2.imag, z2.real)))
    return targets


def _suite_box_mass(ctx: _Ctx):
    epss = _BOX_EPSS
    ratio = 0.0
    monotone = True
    rows = []
    for cm, c1, c2 in _box_targets(ctx):
        masses = [float(m) for m in integrate(
            cm, _box_indicators(c1, c2, epss), _BOX_NODES).real]
        if any(b >= m for m, b in zip(masses, masses[1:])):
            monotone = False
        kconst = 1.25 * masses[0] / epss[0]
        for e, m in zip(epss, masses):
            ratio = _worst(ratio, m / (kconst * e))
        rows.append({"alpha": [cm.alpha.real, cm.alpha.imag], "masses": masses})
    return ratio, monotone, {"monotone": monotone, "boxes": rows}


def _suite_levelset(ctx: _Ctx):
    rif = ctx.rif
    sweep = ctx.sweep()
    chosen = sweep[: max(1, len(ctx.exceptional()))] + sweep[-2:]
    dev = 0.0
    lines_ok = True
    for cm in chosen:
        sample = level_set_sample(cm, n_points=256)
        z1 = np.exp(1j * sample.curve[:, 0])
        z2 = np.exp(1j * sample.curve[:, 1])
        dev = _worst(dev, _level_residual(cm.alpha, _parts(rif, z1), z2))
        matched = [s for s in rif.singularities if abs(s.alpha - cm.alpha) <= 1e-8]
        if len(sample.line_abscissae) != len(matched):
            lines_ok = False
    return dev, lines_ok, {"lines_consistent": lines_ok}


_WEAKSTAR_Z = (
    (0.3 + 0.0j, 0.1 + 0.2j),
    (0.0 + 0.0j, 0.4j),
    (-0.25 + 0.1j, 0.3 - 0.2j),
    (0.2 - 0.3j, -0.1 - 0.1j),
    (0.45 + 0.0j, 0.0 + 0.0j),
)


def _suite_weakstar(ctx: _Ctx):
    """Continuity of alpha -> integrals of Poisson test functions.

    At delta = 1e-5 the perturbed measure's curve quadrature is out of
    reach (its Blaschke zeros sit about delta^2 or delta^4/64 from the
    circle), so the perturbed side uses the Poisson integral identity in
    closed form; the quadrature route is exercised on the exceptional
    limit side.  For the order-one contact of the first catalog entry a
    genuine two-sided quadrature trend over delta in {0.3, 0.1, 0.03} is
    also run.
    """
    rif = ctx.rif
    if not rif.singularities:
        return 0.0, True, {"skipped": "no exceptional values"}
    delta = 1e-5
    pts = np.array(_WEAKSTAR_Z)
    phis = phi_eval(rif, pts)
    dev = 0.0
    limits = []
    exc = ctx.exceptional()
    for cm in exc:
        lim = integrate(cm, lambda u, v: poisson2(pts, (u, v)), None).real
        pert = _poisson_closed_form(phis, cm.alpha * complex(np.exp(1j * delta)))
        dev = _worst(dev, np.max(np.abs(lim - pert)))
        limits.append(lim)
    details: dict = {"delta": delta}
    monotone = True
    if all(s.mult == 2 for s in rif.singularities) and rif.n == 1:
        a = exc[0].alpha
        z = _WEAKSTAR_Z[0]
        lim = float(limits[0][0])
        trend = []
        for cmp_ in _raising(_clark_measures(
                rif, [a * complex(np.exp(1j * d)) for d in (0.3, 0.1, 0.03)])):
            val = integrate(cmp_, lambda u, v: poisson2(z, (u, v)), None).real
            trend.append(abs(val - lim))
        details["trend"] = trend
        monotone = not any(b >= t for t, b in zip(trend, trend[1:]))
    return dev, monotone, details


# name -> (suite, tol), in the order verify runs and reports them; a count
# of mismatches has tolerance 0
_SUITES = {
    "reflect": (_suite_reflect, 1e-10),
    "fejer_certificate": (_suite_fejer, 1e-8),
    "blaschke_modulus": (_suite_blaschke, TOL),
    "lambda_match": (_suite_lambda_match, 1e-8),
    "support": (_suite_support, 1e-8),
    "weight_positive": (_suite_weight_positive, 1e-10),
    "mass_identity": (_suite_mass_identity, 1e-9),
    "unitary": (_suite_unitary, 0.0),
    "extreme": (_suite_extreme, 0.0),
    "sos_fixture": (_suite_sos_fixture, 1e-10),
    "ortho_identity": (_suite_ortho, 1e-7),
    "atoms_probe": (_suite_atoms, 1e-3),
    "poisson": (_suite_poisson, 1e-7),
    "gram": (_suite_gram, 1e-7),
    "box_mass": (_suite_box_mass, 1.0),
    "levelset": (_suite_levelset, 1e-8),
    "weakstar": (_suite_weakstar, 1e-4),
}


def suite_names() -> list[str]:
    return list(_SUITES.keys())


def run_suites(entry: CatalogEntry, names=None, seed: int = 0) -> list[SuiteResult]:
    _check_seed(seed)
    if names is None:
        names = suite_names()
    if not names:
        raise DomainError("empty suite list")
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise DomainError(
            f"unknown suite(s) {', '.join(unknown)}; "
            f"available: {', '.join(suite_names())}"
        )
    twice = [n for n, count in Counter(names).items() if count > 1]
    if twice:
        raise DomainError(f"suite listed twice: {', '.join(twice)}")
    ctx = _Ctx(entry, seed)
    out = []
    for name in names:
        suite, tol = _SUITES[name]
        t0 = time.perf_counter()
        dev, ok, details = suite(ctx)
        elapsed = time.perf_counter() - t0
        out.append(SuiteResult(name, ok and dev <= tol, dev, tol, elapsed, details))
    return out
