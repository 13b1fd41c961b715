"""Clark measures of degree-(n,1) rational inner functions, in closed form.

For unimodular alpha the positive measure sigma_alpha with Poisson integral
Re((alpha + phi) / (alpha - phi)) lives on the level set {phi = alpha} of the
torus.  In the degree-(n,1) case that level set splits into a graph over the
first coordinate plus finitely many vertical lines, and the measure is

    integral f dsigma_alpha
        = integral f(zeta, conj(B_alpha(zeta))) W_alpha(zeta) dm(zeta)
        + sum over matched k of c_k * integral f(tau_k, zeta) dm(zeta),

where B_alpha = (pt1 - alpha p2) / (alpha p1 - pt2) is a finite Blaschke
product after the common circle zeros at the matched singularities are
cancelled.  The denominator is alpha times the degree-n reflection of the
numerator u = pt1 - alpha p2 by construction, so B_alpha = u / (alpha u*)
comes from u alone: the roots of u, found once, are its zeros and the
matched tau_k, which fold into the constant.
W_alpha is a ratio of trigonometric polynomials obtained from
(|p1|^2 - |p2|^2) / |pt1 - alpha p2|^2 by removing one factor
|zeta - tau_k|^2 from numerator and denominator per matched singularity,
and the line masses are c_k = 1 / |d(phi)/dz1| on the line, the
derivative that rif reads off the z2-pencil of p at tau_k.  alpha is
generic when it matches no singular value alpha_k (no lines, B_alpha of
full degree n) and exceptional otherwise (one line per matched
singularity, B_alpha of degree n - l).

Everything here is exact modulo root finding: no quadrature enters the
construction, only the verification-side integrals.  The measure keeps the
pencil numerator u it was built from, and the measure-side checks
(agler.exceptional_R, gram_isometry_check, orthonormality_check and
level_set_sample) take the measure instead of rebuilding it from
(rif, alpha); the quadratures among them run on the measure's own rule.

That rule is one list of weighted blocks (z1, z2, w), and an integral is
the sum over the blocks of the mean of f(z1, z2) w: the curve's node data,
nodes zeta, conj(B_alpha(zeta)) and weights, then (tau_k, omega, c_k) per
line, omega the N-th roots of unity.  One product over the Blaschke
zeros a_k, N(zeta) = prod (zeta - a_k), gives both: on the circle
1 - conj(a_k) zeta = zeta conj(zeta - a_k), so conj(B_alpha) =
conj(gamma) zeta^m conj(N) / N, m the degree of B_alpha, and the weight
denominator |u|^2 / prod |zeta - tau_k|^2 is |lead(u)|^2 |N|^2 (the
roots of u are the zeros of B_alpha and the matched tau_k).  On the
circle the trapezoid rule's error on that data falls like r^N, r the
largest modulus of the a_k, so adaptive integration starts at the power of
two N where r^N reaches 1e-15 and doubles N with nested rules: the old
sums are kept and the integrand is evaluated only at the N new nodes,
while the node data at 2N comes afresh from the 2N-th roots of unity.
It stops once successive values agree to 1e-9 and the geometric model
e_N ~ C r^N, fitted to the last two differences, puts the next one at
roundoff; the integrand's own singularities, such as a Poisson point
near the torus, need not follow r, and the model waits for them.

The curve's nodes are the images zeta_j = M_b(omega_j) = (omega_j + b) /
(1 + conj(b) omega_j) of the N-th roots of unity under one Moebius map of
the disk, chosen once per measure (Hale & Trefethen, "New quadrature
formulas from conformal maps", SIAM J. Numer. Anal. 46, 2008).  The rule
integrates g against arclength as the uniform rule integrates
g(M_b(omega)) J_b(omega), with J_b = (1 - |b|^2) / |1 + conj(b) omega|^2
the map's Jacobian on the circle, so it converges as fast as the
singularities of the integrand, pulled back by M_b, lie far from the
circle.  Those of the curve data are the Blaschke zeros a_k and their
reflections.  A zero at distance delta from the circle costs the uniform
rule about 36 / delta nodes; when the start count the r^N model predicts
would pass 4096, the cap of the adaptive start (r^4096 > 1e-15, delta
below about 8.4e-3), the centre b moves towards it until its pull-back
balances the other zeros and the interior points of modulus 1/2 where
the test functions of the verification suites have their poles.
Otherwise b = 0: the nodes are the roots of unity and the weight
numerator comes from one FFT of its coefficients.  B_alpha o M_b is
again a Blaschke product, gamma' times the one with the pulled-back
zeros a'_k = M_b^{-1}(a_k), so one product N' = prod (omega - a'_k) at
the roots of unity serves every measure: the centre changes only the
zeros, the constant and one scale s, and the weight times J_b is
num(zeta) s |1 + conj(b) omega|^(2m - 2) / |N'|^2, num the weight
numerator.  The map belongs to the curve alone: a line {tau_k} x T
carries c_k times normalized arclength, and f(tau_k, .) does not see the
Blaschke zeros, so the lines keep the roots of unity, weighted c_k, and
the Jacobian J_b is known only to the curve's node data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericError, RifClarkError, _node_count, _unimodular
from .polynomials import (
    TOL,
    BlaschkeProduct,
    TrigPoly,
    UniPoly,
    _blaschke,
    _spectral_factor,
    _zero_product,
    circle_nodes,
    cplx_to_json,
    roots,
)
from .rif import Rif, is_saturated

# node count of the fixed rule, and the cap on the adaptive rule's start
RULE_NODES = 4096
_SETTLE = 1e-9
_MAX_ADAPTIVE_NODES = 2 ** 20
# the adaptive rule starts where r^N, r the largest Blaschke zero modulus,
# falls to _START_ERROR, and at no fewer than _MIN_START nodes
_START_ERROR = 1e-15
_MIN_START = 64
# a settled difference this small (relative) is at the roundoff floor; a
# larger one settles when the geometric model puts the next difference
# below _MODEL_FLOOR, or from _AGREE_NODES on, where agreement alone does
_DIFF_FLOOR = 1e-13
_MODEL_FLOOR = 16 * np.finfo(float).eps
_AGREE_NODES = 2 * RULE_NODES
# the Poisson and Gram test points of the verification suites lie within
# this radius; the node map must not push them onto the circle either
PROBE_RADIUS = 0.5


class AlphaKind(enum.Enum):
    GENERIC = "generic"
    EXCEPTIONAL = "exceptional"


class Unitarity(enum.Enum):
    UNITARY = "unitary"
    NOT_UNITARY = "not_unitary"


class ExtremeStatus(enum.Enum):
    EXTREME = "extreme"
    NOT_EXTREME = "not_extreme"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AlphaClass:
    """Classification of a unimodular parameter against the singular values."""

    alpha: complex
    kind: AlphaKind
    matched: tuple[int, ...]
    distance_to_exceptional: float | None


@dataclass(frozen=True)
class ExtremeDecision:
    status: ExtremeStatus
    reason: str


def classify_alpha(rif: Rif, alpha) -> AlphaClass:
    """Match alpha against the singular values alpha_k within TOL.

    alpha within 1e-6 of the circle is projected onto it; anything farther
    out is rejected.
    """
    a = _unimodular(alpha)
    matched = tuple(
        k for k, s in enumerate(rif.singularities) if abs(a - s.alpha) <= TOL
    )
    dist = None
    if rif.singularities:
        dist = min(abs(a - s.alpha) for s in rif.singularities)
    kind = AlphaKind.EXCEPTIONAL if matched else AlphaKind.GENERIC
    return AlphaClass(a, kind, matched, dist)


@dataclass(frozen=True)
class ClarkMeasure:
    """Closed-form Clark measure: curve part plus line part.

    The measure keeps the pencil numerator it was built from, u = pt1 -
    alpha p2; the denominator v = alpha p1 - pt2, never formed, is alpha u*
    by construction, u* the degree-n reflection, so B_alpha = u / (alpha u*)
    once the common circle roots at the matched tau_k are cancelled, and the
    closed-form Agler pieces of agler.exceptional_R come from u alone.  lines
    holds (tau_k, c_k) pairs, one per matched singularity.  W_alpha is
    weight_num / (|u|^2 / prod |zeta - tau_k|^2), finite on the circle; that
    denominator is |lead(u)|^2 prod |zeta - a_k|^2 there, a_k the zeros of
    balpha, and curve values and weights are computed in that form.  center
    is the centre b of the node map M_b, chosen from the Blaschke zeros on
    construction (0 unless a zero lies near the circle; see the module
    docstring).  The measure is frozen: an edited copy comes from
    dataclasses.replace, which forms center, the pulled-back zeros and the
    node cache afresh.  Node data for quadrature is cached per node count.
    """

    rif: Rif
    alpha_class: AlphaClass
    balpha: BlaschkeProduct
    weight_num: TrigPoly
    u: UniPoly
    lines: tuple
    center: complex = field(init=False)
    _pulled: tuple = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        center = _map_center(self.balpha.zeros)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_pulled", _pull_back(self.balpha, center, self.u.coeffs[-1]))

    @property
    def alpha(self) -> complex:
        return self.alpha_class.alpha

    def weight_eval(self, zeta) -> np.ndarray:
        """W_alpha at unimodular points; real, finite, nonnegative."""
        zero_prod = _zero_product(zeta, self.balpha.zeros)
        den = abs(self.u.coeffs[-1]) ** 2 * (zero_prod.real ** 2 + zero_prod.imag ** 2)
        w = self.weight_num.eval(zeta).real / _positive(den)
        return float(w) if np.ndim(zeta) == 0 else w

    def curve_z2(self, zeta):
        """Second coordinate of the level-set graph: conj(B_alpha(zeta))."""
        return np.conj(self.balpha(zeta))

    def node_data(self, count: int):
        """(nodes, curve z2 values, quadrature weights) of the count-node
        rule, cached per node count; the arrays are read only.

        The nodes are zeta_j = M_b(omega_j), the images of the count-th
        roots of unity omega_j under the measure's node map (the roots
        themselves when center is 0), the z2 values conj(B_alpha(zeta_j)),
        and the weights W_alpha(zeta_j) J_b(omega_j), so the mean of
        g(zeta_j) w_j approximates the integral of g against the curve
        part.  Each count is computed from its own roots of unity, so the
        data does not depend on which counts were cached before.

        B_alpha o M_b = gamma' B', B' the Blaschke product of the pulled-back
        zeros a'_k, and on the circle its denominator is omega^m conj(N'),
        N' = prod (omega - a'_k), so one product over the zeros gives
        conj(B_alpha) = conj(gamma') omega^m conj(N')^2 / |N'|^2 and the
        weight W_alpha J_b = num(zeta) s |1 + conj(b) omega|^(2m - 2) / |N'|^2,
        s from _pull_back, which formed a'_k, gamma' and s once, on
        construction.  With b = 0, zeta is omega and the weight numerator
        num one FFT; otherwise it is evaluated at zeta.
        """
        data = self._cache.get(count)
        if data is not None:
            return data
        zeros, gamma, scale = self._pulled
        m = zeros.size
        omega = circle_nodes(count)
        prod = _zero_product(omega, zeros)
        den = _positive(prod.real ** 2 + prod.imag ** 2)
        inv = np.divide(1.0, den, out=den)
        z2 = np.multiply(prod, prod, out=prod)
        np.conj(z2, out=z2)
        # omega^m, exactly, from the roots of unity
        z2 *= np.take(omega, np.arange(count) * m, mode="wrap")
        z2 *= inv
        z2 *= np.conj(gamma)
        inv *= scale
        b = self.center
        if b:
            d = 1.0 + np.conj(b) * omega
            z = (omega + b) / d
            inv *= (d.real ** 2 + d.imag ** 2) ** (m - 1)
            data = (z, z2, self.weight_num.eval(z).real * inv)
        else:
            data = (omega, z2, self.weight_num.node_values(count).real * inv)
        # integrate hands these arrays to the integrand: no write may
        # reach the cache
        for a in data:
            a.setflags(write=False)
        self._cache[count] = data
        return data

    def rule(self, count: int) -> list:
        """The count-node rule as weighted blocks (z1, z2, w): node_data
        for the curve, then (tau_k, roots of unity, c_k) per line."""
        omega = circle_nodes(count)
        return [self.node_data(count)] + [
            (np.full(count, tau, dtype=complex), omega, np.full(count, mass))
            for tau, mass in self.lines]

    def total_mass(self, count: int | None = None) -> float:
        return float(integrate(self, _ones, count).real)

    def closed_form_mass(self) -> float:
        """(1 - |phi(0)|^2) / |alpha - phi(0)|^2, from the Poisson identity
        at the origin."""
        phi0 = self.rif.phi_at_origin
        return float((1.0 - abs(phi0) ** 2) / abs(self.alpha - phi0) ** 2)

    def to_json(self) -> dict:
        """The measure's data, its settled adaptive total mass and the node
        count that mass settled at; the weight is num / den, num the
        weight numerator and den |lead(u) prod (z - a_k)|^2, expanded from
        the Blaschke zeros a_k."""
        mass, nodes = _integrate(self, _ones, None)
        return {
            "alpha": cplx_to_json(self.alpha),
            "kind": self.alpha_class.kind.value,
            "blaschke": self.balpha.to_json(),
            "weight": {
                "num": self.weight_num.to_json(),
                "den": TrigPoly.modulus_squared(UniPoly.from_roots(
                    self.balpha.zeros, self.u.coeffs[-1])).to_json(),
            },
            "lines": [
                {"tau": cplx_to_json(t), "mass": float(c)} for t, c in self.lines
            ],
            "total_mass": float(mass.real),
            "mass_nodes": nodes,
        }


def _family_node_data(measures, first):
    """(cm, z2, w, first(nodes)) per measure from its RULE_NODES node data:
    the measures with centre 0, all on the roots of unity, share one call."""
    shared = None
    for cm in measures:
        nodes, z2, w = cm.node_data(RULE_NODES)
        if not cm.center and shared is None:
            shared = first(nodes)
        yield cm, z2, w, first(nodes) if cm.center else shared


def _positive(den: np.ndarray) -> np.ndarray:
    """den, once every value is checked positive and finite."""
    if not (np.min(den) > 0.0 and np.max(den) < math.inf):
        raise NumericError("weight denominator is not positive on the circle")
    return den


def _ones(z1, z2):
    """The integrand 1, whose integral is the total mass."""
    return np.ones_like(z1, dtype=complex)


def _pullback_gap(b, x):
    """1 - |M_b^{-1}(x)|^2 = (1 - |b|^2)(1 - |x|^2) / |1 - conj(b) x|^2,
    about twice the distance of the pulled-back point to the circle."""
    d = 1.0 - np.conj(b) * x
    return ((1.0 - np.abs(b) ** 2) * (1.0 - np.abs(x) ** 2)
            / (d.real ** 2 + d.imag ** 2))


def _pull_back(balpha: BlaschkeProduct, b: complex, lead: complex):
    """(a', gamma', s) for the node map M_b: the zeros a'_k = (a_k - b) /
    (1 - conj(b) a_k) and constant gamma' = gamma prod C_k / conj(C_k),
    C_k = 1 - conj(b) a_k, of B_alpha o M_b, and the weight scale
    s = (1 - |b|^2) / (|lead(u)|^2 prod |C_k|^2).  C_k is formed as
    (1 - |b|^2) + conj(b) (b - a_k), which does not cancel when a_k is near
    b, and 1 - |b|^2 is rounded once from its exact value."""
    a = np.array(balpha.zeros, dtype=complex)
    gamma, scale = balpha.constant, 1.0 / abs(lead) ** 2
    if b:
        gap = float(1 - Fraction(b.real) ** 2 - Fraction(b.imag) ** 2)
        c = gap + np.conj(b) * (b - a)
        cprod = complex(np.prod(c))
        a = (a - b) / c
        gamma *= cprod / np.conj(cprod)
        scale *= gap / abs(cprod) ** 2
    return a, gamma, scale


def _map_center(zeros) -> complex:
    """Centre b of the node map for a measure with these Blaschke zeros.

    b = 0 unless the start count the r^N model predicts for the uniform
    rule would pass its cap, r^RULE_NODES > _START_ERROR with r = |a| for
    the zero a of largest modulus (1 - r below about 8.4e-3).  Then b runs
    along the ray through a, b = (1 - eps) a / |a| with eps log-spaced from 1 - |a| to 1, and takes the place where the
    smallest pull-back gap of the zeros and of the interior point
    -PROBE_RADIUS a / |a| (the one the map pushes nearest the circle) is
    largest.  b stays 0 when that does not increase the smallest pull-back
    gap of the zeros.
    """
    if not zeros:
        return 0j
    a = np.array(zeros)
    near = a[np.argmax(np.abs(a))]
    if not abs(near) ** RULE_NODES > _START_ERROR:
        return 0j
    unit = near / abs(near)
    eps = np.geomspace(1.0 - abs(near), 1.0, 64)
    b = (1.0 - eps)[:, None] * unit
    gaps = _pullback_gap(b, a).min(axis=1)
    worst = np.minimum(gaps, _pullback_gap(b[:, 0], -PROBE_RADIUS * unit))
    best = int(np.argmax(worst))
    if not gaps[best] > _pullback_gap(0.0, a).min():
        return 0j
    return complex(b[best, 0])


def clark_measure(rif: Rif, alpha) -> ClarkMeasure:
    """Construct sigma_alpha exactly from the singularity data.

    The pencil denominator v = alpha p1 - pt2 is alpha u*, u* the degree-n
    reflection of u = pt1 - alpha p2, by construction (only
    blaschke_from_rational certifies it, for an arbitrary pair), so the
    roots of u, found once, give B_alpha: each matched tau_k, a common
    circle zero of u and u*, folds into the constant, so B_alpha keeps
    degree n - l; deg u < n, a zero of v at 0, raises DomainError.  The
    factor |zeta - tau_k|^2 of a matched singularity cancels once from the
    weight numerator, the boundary polynomial rif.t = |p1|^2 - |p2|^2, and
    once from the weight denominator |u|^2: the numerator is |Q_red|^2,
    Q_red the spectral factor of rif.t less one (z - tau_k) per line.  Line
    masses come from the stored derivative constants, c_k = 1 / |deriv_k|.
    This is the one-alpha case of _clark_measures, raised by _raising.
    """
    return _raising(_clark_measures(rif, [alpha]))[0]


def _clark_measures(rif: Rif, alphas) -> list:
    """clark_measure at every alpha of a list, in order, with the error
    clark_measure would raise at an alpha in place of its measure.

    The K pencil numerators u are formed as one array product and
    root-found as one stack (polynomials.roots); each measure is assembled
    from its row alone, with one error path per alpha.
    """
    out: list = []
    for alpha in alphas:
        try:
            out.append(classify_alpha(rif, alpha))
        except DomainError as err:
            # an error is kept without its traceback, whose frames hold out
            out.append(err.with_traceback(None))
    ks = [k for k, ac in enumerate(out) if isinstance(ac, AlphaClass)]
    size = rif.n + 1
    a = np.array([out[k].alpha for k in ks], dtype=complex)[:, None]
    us = rif.pt1.padded(size) - a * rif.p2.padded(size)
    for k, u_row, found in zip(ks, us, roots(us)):
        ac, u = out[k], UniPoly(u_row)
        try:
            if isinstance(found, RifClarkError):
                raise found
            # alpha u* has a zero at the origin once deg u < n
            if u.degree != rif.n:
                raise DomainError("denominator zero inside the closed disk")
            out[k] = _assemble(rif, ac, u, _blaschke(u, ac.alpha, found))
        except RifClarkError as err:
            out[k] = err.with_traceback(None)
    return out


def _raising(built: list) -> list[ClarkMeasure]:
    """built, a list from _clark_measures, once it holds no error; else
    its first error is raised."""
    for cm in built:
        if isinstance(cm, RifClarkError):
            raise cm
    return built


def _assemble(rif: Rif, ac: AlphaClass, u: UniPoly, balpha: BlaschkeProduct) -> ClarkMeasure:
    """The measure at ac.alpha from its pencil numerator u and B_alpha:
    B_alpha's degree checked against n - l, the weight numerator reduced
    at the matched contacts, and the line masses."""
    matched = [rif.singularities[k] for k in ac.matched]
    expected = rif.n - len(matched)
    if balpha.degree != expected:
        # the roots of u within TOL of the circle fold into the constant,
        # one degree per root; the matched tau_k account for len(matched)
        # of them
        reason = (
            f"; the pencil numerator has {u.degree - len(matched) - balpha.degree} "
            f"zero(s) within {TOL:g} of the unit circle at no matched contact"
        )
        dist = ac.distance_to_exceptional
        if not ac.matched and dist is not None and dist < 1e-3:
            reason += (
                f"; alpha is within {dist:.3g} of an exceptional value "
                "and the curve data is numerically inseparable from it"
            )
        raise NumericError(
            f"Blaschke degree {balpha.degree} instead of {expected}{reason}"
        )
    weight_num = rif.t
    if matched:
        weight_num = TrigPoly.modulus_squared(_spectral_factor(
            rif.t, rif.inside, [(s.tau, s.mult) for s in rif.singularities],
            [s.tau for s in matched]))
    return ClarkMeasure(
        rif=rif,
        alpha_class=ac,
        balpha=balpha,
        weight_num=weight_num,
        u=u,
        lines=tuple((s.tau, 1.0 / abs(s.deriv)) for s in matched),
    )


def integrate(cm: ClarkMeasure, f, count: int | None = RULE_NODES) -> complex | np.ndarray:
    """Integral of f against the Clark measure.

    f must be vectorized: called as f(z1_array, z2_array) with N nodes it
    returns N values, and the integral is a complex number; or it returns a
    family of integrands as a (..., N) array, and the integrals come back
    as a complex (...) array from the same pass over the nodes.  The
    integral is the sum of f(z1, z2) @ w over the blocks of cm.rule(count),
    divided by count.  With count=None the rule starts at the node count
    where r^N falls to 1e-15, r the largest modulus of the Blaschke zeros
    (64 at least, 4096 at most, and 4096 for a mapped measure), and
    doubles.  After each doubling every component must agree with the
    previous value to 1e-9 (relative) and, below 8192 nodes, also be
    settled: the difference d is at the 1e-13 roundoff floor, or the
    geometric model e_N ~ C r^N, which predicts the next difference
    d (d / d_prev)^2, puts it within 16 eps.  The cap is 2**20 nodes.
    The rules are nested: a doubling keeps the sums over the old nodes and
    evaluates f only at the new, odd ones; the node data at each count is
    cm.node_data(count).

    Poisson integrals at P points, one row of poisson2 each:

    >>> from rifclark import get, phi_eval, poisson2
    >>> cm = clark_measure(get("deg31").build(), -1.0)
    >>> pts = np.array([(0.2 + 0.1j, -0.3j), (0.0, 0.4)])
    >>> vals = integrate(cm, lambda u, v: poisson2(pts, (u, v)), None).real
    >>> phis = phi_eval(cm.rif, pts)
    >>> bool(np.allclose(vals, (1 - abs(phis) ** 2) / abs(-1.0 - phis) ** 2))
    True
    """
    value = _integrate(cm, f, count)[0]
    return complex(value) if np.ndim(value) == 0 else value


def _start_count(cm: ClarkMeasure) -> int:
    """First node count of the adaptive rule: the power of two N at which
    r^N, the trapezoid rule's error rate on the curve data with r the
    largest Blaschke zero modulus, reaches _START_ERROR (Trefethen &
    Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
    56, 2014), within [_MIN_START, RULE_NODES].  A mapped measure starts
    at RULE_NODES, since _map_center maps exactly when r^RULE_NODES >
    _START_ERROR."""
    r = max((abs(a) for a in cm.balpha.zeros), default=0.0)
    count = _MIN_START
    while count < RULE_NODES and r ** count > _START_ERROR:
        count *= 2
    return count


def _integrate(cm: ClarkMeasure, f, count: int | None):
    """integrate's value and the node count it was taken at."""
    fixed = count is not None
    count = _node_count(count) if fixed else _start_count(cm)
    # no previous difference before the first doubling: the model waits
    total, nodes, prev, prev_diff = 0j, slice(None), None, 0.0
    while True:
        for z1, z2, w in cm.rule(count):
            total = total + np.asarray(f(z1[nodes], z2[nodes])) @ w[nodes]
        cur = total / count
        if fixed:
            return cur, count
        if prev is not None:
            scale = np.maximum(1.0, np.abs(cur))
            diff = np.abs(cur - prev)
            # d (d / d_prev)^2 <= floor, multiplied out so that d_prev = 0 fails
            settled = ((diff <= _DIFF_FLOOR * scale)
                       | (diff ** 3 <= _MODEL_FLOOR * scale * prev_diff ** 2))
            if np.all(diff <= _SETTLE * scale) and (count >= _AGREE_NODES or np.all(settled)):
                return cur, count
            prev_diff = diff
        if count >= _MAX_ADAPTIVE_NODES:
            raise NumericError("adaptive quadrature did not settle",
                               residual=float(np.max(np.abs(cur))))
        # a doubling evaluates f only at each block's new, odd nodes
        prev, count, nodes = cur, 2 * count, slice(1, None, 2)


def classify_unitary(rif: Rif, alpha) -> Unitarity:
    """The Clark embedding J_alpha is unitary exactly for generic alpha."""
    ac = classify_alpha(rif, alpha)
    if ac.kind is AlphaKind.GENERIC:
        return Unitarity.UNITARY
    return Unitarity.NOT_UNITARY


def classify_extreme(rif: Rif, alpha) -> ExtremeDecision:
    """Extreme-point status of the normalized sigma_alpha among positive
    pluriharmonic probability measures.

    The classification assumes phi(0) = 0, which makes sigma_alpha itself a
    probability measure; other inputs return Undetermined.  Exceptional
    alpha gives a non-extreme measure (the line part splits off).  Generic
    alpha gives an extreme measure when the resultant is saturated and the
    reflection keeps full degree; remaining generic cases are outside the
    certified criteria and return Undetermined.
    """
    # alpha is checked before the phi(0) branch returns
    ac = classify_alpha(rif, alpha)
    if abs(rif.phi_at_origin) > TOL:
        return ExtremeDecision(
            ExtremeStatus.UNDETERMINED,
            "criteria require phi(0) = 0, which fails here",
        )
    if ac.kind is AlphaKind.EXCEPTIONAL:
        return ExtremeDecision(
            ExtremeStatus.NOT_EXTREME,
            "exceptional alpha: the line part splits off sigma_alpha",
        )
    saturated = is_saturated(rif)
    deg_p = max(rif.p1.degree, rif.p2.degree)
    deg_pt = max(rif.pt1.degree, rif.pt2.degree)
    if saturated and deg_p == deg_pt:
        return ExtremeDecision(
            ExtremeStatus.EXTREME,
            "generic alpha with a saturated resultant and degree-preserving reflection",
        )
    return ExtremeDecision(
        ExtremeStatus.UNDETERMINED,
        "generic alpha but the saturation criterion does not apply",
    )


@dataclass(frozen=True)
class LevelSetSample:
    """Discrete sample of the unimodular level set {phi = alpha} on T^2.

    curve is an (N, 2) float array of angle pairs (theta1, theta2) along the
    graph branch; line_abscissae lists theta1 for each vertical line.  All
    angles are wrapped to [0, 2 pi).
    """

    alpha: complex
    curve: np.ndarray
    line_abscissae: tuple


def level_set_sample(cm: ClarkMeasure, n_points: int = 512) -> LevelSetSample:
    """Sample the level set of cm: the curve at n_points equally spaced
    theta1, and the abscissa of each line."""
    n_points = _node_count(n_points)
    theta1 = 2.0 * np.pi * np.arange(n_points) / n_points
    z = np.exp(1j * theta1)
    theta2 = np.mod(np.angle(cm.curve_z2(z)), 2.0 * np.pi)
    curve = np.column_stack([theta1, theta2])
    lines = tuple(
        float(np.mod(math.atan2(t.imag, t.real), 2.0 * math.pi))
        for t, _mass in cm.lines
    )
    return LevelSetSample(cm.alpha, curve, lines)
