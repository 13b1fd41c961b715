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
numerator u = pt1 - alpha p2, so B_alpha = u_red / (c u_red*) with u_red the
deflated numerator: its zeros are the roots of u_red, found once, and its
constant follows from the coefficients.  W_alpha is a ratio of
trigonometric polynomials obtained from
(|p1|^2 - |p2|^2) / |pt1 - alpha p2|^2 by removing one factor |zeta - tau_k|^2
from numerator and denominator per matched singularity, and the line masses
are c_k = 1 / |d(phi)/dz1| on the line.  alpha is generic when it matches no
singular value alpha_k (no lines, B_alpha of full degree n) and exceptional
otherwise (one line per matched singularity, B_alpha of degree n - l).

Everything here is exact modulo root finding: no quadrature enters the
construction, only the verification-side integrals.  The measure keeps its
reduced pencil (u_red, v_red), and the measure-side checks
(agler.exceptional_R, gram_isometry_check, orthonormality_check and
level_set_sample) take the measure instead of rebuilding it from
(rif, alpha).

Those integrals are rules over the curve's node data: nodes zeta,
conj(B_alpha(zeta)) and quadrature weights.  One in-place pass over the
Blaschke zeros a_k gives N(zeta) = prod (zeta - a_k) and
D(zeta) = prod (1 - conj(a_k) zeta), hence conj(B_alpha) = conj(gamma N / D)
and the weight denominator |u_red|^2 = |lead(u_red)|^2 |N|^2 (the zeros of
B_alpha are exactly the roots of u_red).  Adaptive integration doubles N
with nested rules: the old sums are kept, and node data and integrand are
evaluated only at the N new nodes.

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
rule about 36 / delta nodes; when it is closer than ln(1e9) / 4096 (the
uniform rule cannot settle to 1e-9 within one doubling of its 4096 start),
the centre b moves towards it until its pull-back balances the other zeros
and the interior points of modulus 1/2 where the test functions of the
verification suites have their poles.  Otherwise b = 0: the nodes are the
roots of unity and the weight numerator comes from one FFT of its
coefficients.  The map belongs to the curve alone: a line {tau_k} x T
carries c_k times normalized arclength, and f(tau_k, .) does not see the
Blaschke zeros, so the lines keep the roots of unity, unweighted, and the
Jacobian J_b is known only to the curve's node data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .polynomials import (
    TOL,
    BlaschkeProduct,
    TrigPoly,
    UniPoly,
    blaschke_from_rational,
    cplx_to_json,
)
from .quadrature import circle_nodes
from .rif import Rif, is_saturated

# node count of the fixed rule, and the first rung of the adaptive one
RULE_NODES = 4096
_SETTLE = 1e-9
_MAX_ADAPTIVE_NODES = 2 ** 20
# a Blaschke zero closer than this to the circle keeps the uniform rule's
# error exp(-N delta) above _SETTLE after one doubling of RULE_NODES
_MAP_DISTANCE = math.log(1.0 / _SETTLE) / RULE_NODES
# the Poisson and Gram test points of the verification suites lie within
# this radius; the node map must not push them onto the circle either
_PROBE_RADIUS = 0.5


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
    a = complex(alpha)
    if not abs(abs(a) - 1.0) <= 1e-6:
        raise DomainError("alpha must be unimodular")
    a /= abs(a)
    matched = tuple(
        k for k, s in enumerate(rif.singularities) if abs(a - s.alpha) <= TOL
    )
    dist = None
    if rif.singularities:
        dist = min(abs(a - s.alpha) for s in rif.singularities)
    kind = AlphaKind.EXCEPTIONAL if matched else AlphaKind.GENERIC
    return AlphaClass(a, kind, matched, dist)


@dataclass
class ClarkMeasure:
    """Closed-form Clark measure: curve part plus line part.

    The measure keeps the reduced pencil it was built from: u_red and v_red
    are u = pt1 - alpha p2 and v = alpha p1 - pt2 with every matched tau_k
    deflated out, so B_alpha = u_red / v_red, and the closed-form Agler
    pieces of agler.exceptional_R come from the same pair.  lines holds
    (tau_k, c_k) pairs, one per matched singularity.  W_alpha is
    weight_num / |u_red|^2 on the circle with the matched singular factors
    cancelled, so both are finite there.  The roots of u_red are exactly
    the zeros a_k of balpha, so on the circle |u_red|^2 equals
    |lead(u_red)|^2 prod |zeta - a_k|^2; curve values and weights are
    computed in that factored form.  center is the centre b of the node
    map M_b, chosen from the Blaschke zeros on construction (0 unless a
    zero lies near the circle; see the module docstring).  Node data for
    quadrature is cached per node count.
    """

    rif: Rif
    alpha_class: AlphaClass
    balpha: BlaschkeProduct
    weight_num: TrigPoly
    u_red: UniPoly
    v_red: UniPoly
    lines: tuple
    center: complex = field(init=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.center = _map_center(self.balpha.zeros)

    @property
    def alpha(self) -> complex:
        return self.alpha_class.alpha

    @property
    def removable_points(self) -> tuple:
        """The matched tau_k, whose factors were cancelled from the weight."""
        return tuple(tau for tau, _mass in self.lines)

    def _weight(self, num, zero_prod) -> np.ndarray:
        """W_alpha from the weight numerator's values and prod (zeta - a_k)."""
        den = abs(self.u_red.coeffs[-1]) ** 2 * (zero_prod.real ** 2 + zero_prod.imag ** 2)
        if not (np.min(den) > 0.0 and np.max(den) < math.inf):
            raise NumericError("weight denominator is not positive on the circle")
        return num.real / den

    def weight_eval(self, zeta) -> np.ndarray:
        """W_alpha at unimodular points; real, finite, nonnegative."""
        zero_prod, _ = self.balpha.factors(zeta)
        w = self._weight(self.weight_num.eval(zeta), zero_prod)
        return float(w) if np.ndim(zeta) == 0 else w

    def curve_z2(self, zeta):
        """Second coordinate of the level-set graph: conj(B_alpha(zeta))."""
        return np.conj(self.balpha(zeta))

    def _curve_data(self, zeta: np.ndarray, num: np.ndarray):
        """(conj(B_alpha), W_alpha) at unimodular zeta, given the weight
        numerator's values there, from one pass over the Blaschke zeros."""
        zero_prod, pole_prod = self.balpha.factors(zeta)
        w = self._weight(num, zero_prod)
        z2 = np.divide(zero_prod, pole_prod, out=zero_prod)
        z2 *= self.balpha.constant
        return np.conj(z2, out=z2), w

    def _mapped_data(self, omega: np.ndarray, count: int, half: bool):
        """(zeta, conj(B_alpha), W_alpha J_b) at zeta = M_b(omega), omega
        the count-th roots of unity, turned by half a spacing with half.
        With b = 0, zeta is omega and the weight numerator one FFT;
        otherwise it is evaluated at zeta directly, and the Jacobian
        J_b = (1 - |b|^2) / |1 + conj(b) omega|^2 is read off zeta as
        |1 - conj(b) zeta|^2 / (1 - |b|^2)."""
        b = self.center
        if not b:
            return (omega,) + self._curve_data(
                omega, self.weight_num.node_values(count, half))
        z = (omega + b) / (1.0 + np.conj(b) * omega)
        z2, w = self._curve_data(z, self.weight_num.eval(z))
        d = 1.0 - np.conj(b) * z
        w *= (d.real ** 2 + d.imag ** 2) / (1.0 - abs(b) ** 2)
        return z, z2, w

    def node_data(self, count: int):
        """(nodes, curve z2 values, quadrature weights) of the count-node
        rule, cached per node count.

        The nodes are zeta_j = M_b(omega_j), the images of the count-th
        roots of unity omega_j under the measure's node map (the roots
        themselves when center is 0), the z2 values conj(B_alpha(zeta_j)),
        and the weights W_alpha(zeta_j) J_b(omega_j), so the mean of
        g(zeta_j) w_j approximates the integral of g against the curve
        part.  When the data for count/2 is cached it fills the even
        nodes, and only the odd nodes (the count/2 roots turned by half a
        spacing, and their images) are computed.
        """
        data = self._cache.get(count)
        if data is None:
            omega = circle_nodes(count)
            coarse = self._cache.get(count // 2) if count % 2 == 0 else None
            if coarse is None:
                data = self._mapped_data(omega, count, False)
            else:
                z, z2, w = omega, np.empty(count, dtype=complex), np.empty(count)
                z_odd, z2[1::2], w[1::2] = self._mapped_data(
                    omega[1::2], count // 2, True)
                z2[::2], w[::2] = coarse[1], coarse[2]
                if self.center:
                    z = np.empty(count, dtype=complex)
                    z[::2], z[1::2] = coarse[0], z_odd
                data = (z, z2, w)
            self._cache[count] = data
        return data

    def total_mass(self, count: int | None = None) -> float:
        val = integrate(self, lambda z1, z2: np.ones_like(z1, dtype=complex), count)
        return float(val.real)

    def closed_form_mass(self) -> float:
        """(1 - |phi(0)|^2) / |alpha - phi(0)|^2, from the Poisson identity
        at the origin."""
        phi0 = self.rif.phi_at_origin
        return float((1.0 - abs(phi0) ** 2) / abs(self.alpha - phi0) ** 2)

    def to_json(self) -> dict:
        """The measure's data and its settled adaptive total mass."""
        return {
            "alpha": cplx_to_json(self.alpha),
            "kind": self.alpha_class.kind.value,
            "blaschke": self.balpha.to_json(),
            "weight": {
                "num": self.weight_num.to_json(),
                "den": TrigPoly.modulus_squared(self.u_red).to_json(),
            },
            "removable_points": [cplx_to_json(t) for t in self.removable_points],
            "lines": [
                {"tau": cplx_to_json(t), "mass": float(c)} for t, c in self.lines
            ],
            "total_mass": self.total_mass(None),
        }


def _pullback_gap(b, x):
    """1 - |M_b^{-1}(x)|^2 = (1 - |b|^2)(1 - |x|^2) / |1 - conj(b) x|^2,
    about twice the distance of the pulled-back point to the circle."""
    d = 1.0 - np.conj(b) * x
    return ((1.0 - np.abs(b) ** 2) * (1.0 - np.abs(x) ** 2)
            / (d.real ** 2 + d.imag ** 2))


def _map_center(zeros) -> complex:
    """Centre b of the node map for a measure with these Blaschke zeros.

    b = 0 unless the nearest zero a lies within _MAP_DISTANCE of the
    circle.  Then b runs along the ray through a, b = (1 - eps) a / |a|
    with eps log-spaced from 1 - |a| to 1, and takes the place where the
    smallest pull-back gap of the zeros and of the interior point
    -_PROBE_RADIUS a / |a| (the one the map pushes nearest the circle) is
    largest.  b stays 0 when that does not increase the smallest pull-back
    gap of the zeros.
    """
    if not zeros:
        return 0j
    a = np.array(zeros)
    near = a[np.argmax(np.abs(a))]
    delta = 1.0 - abs(near)
    if not delta < _MAP_DISTANCE:
        return 0j
    unit = near / abs(near)
    eps = np.geomspace(delta, 1.0, 64)
    b = (1.0 - eps)[:, None] * unit
    gaps = _pullback_gap(b, a).min(axis=1)
    worst = np.minimum(gaps, _pullback_gap(b[:, 0], -_PROBE_RADIUS * unit))
    best = int(np.argmax(worst))
    if not gaps[best] > _pullback_gap(0.0, a).min():
        return 0j
    return complex(b[best, 0])


def clark_measure(rif: Rif, alpha) -> ClarkMeasure:
    """Construct sigma_alpha exactly from the singularity data.

    The pencil u = pt1 - alpha p2, v = alpha p1 - pt2 vanishes at each
    matched tau_k (simple zeros), which is deflated out of both; a
    deflation remainder above 1e-6 of the coefficient scale raises
    NumericError.  B_alpha = u_red / v_red; blaschke_from_rational
    certifies v_red = c u_red* on the coefficients, since the pencil is
    deflated on each side on its own.  The factor |zeta - tau_k|^2 of a
    matched singularity cancels once from the weight numerator, the
    boundary polynomial rif.t = |p1|^2 - |p2|^2, and once from the weight
    denominator |u|^2.  Line masses come from the stored derivative
    constants, c_k = 1 / |deriv_k|.
    """
    ac = classify_alpha(rif, alpha)
    u_red = rif.pt1 - ac.alpha * rif.p2
    v_red = ac.alpha * rif.p1 - rif.pt2
    if u_red.is_zero or v_red.is_zero:
        raise DomainError("degenerate pencil at this alpha")
    sc = max(u_red.scale(), v_red.scale(), 1e-300)
    matched = [rif.singularities[k] for k in ac.matched]
    for s in matched:
        u_red, ru = u_red.deflate(s.tau)
        v_red, rv = v_red.deflate(s.tau)
        if max(abs(ru), abs(rv)) > 1e-6 * sc:
            raise NumericError(
                "matched singular point is not a common zero of the pencil",
                residual=max(abs(ru), abs(rv)) / sc,
            )
    balpha = blaschke_from_rational(u_red, v_red)
    expected = rif.n - len(matched)
    if balpha.degree != expected:
        # blaschke_from_rational folds a root of u_red within TOL of the
        # circle into the constant, one degree per root
        reason = (
            f"; the reduced pencil numerator has {u_red.degree - balpha.degree} "
            f"zero(s) within {TOL:g} of the unit circle"
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
    wnum = rif.t
    for s in matched:
        wnum = wnum.divide_circle_factor(s.tau)
    return ClarkMeasure(
        rif=rif,
        alpha_class=ac,
        balpha=balpha,
        weight_num=wnum,
        u_red=u_red,
        v_red=v_red,
        lines=tuple((s.tau, 1.0 / abs(s.deriv)) for s in matched),
    )


def integrate(cm: ClarkMeasure, f, count: int | None = RULE_NODES) -> complex | np.ndarray:
    """Integral of f against the Clark measure.

    f must be vectorized: called as f(z1_array, z2_array) with N nodes it
    returns N values, and the integral is a complex number; or it returns a
    family of integrands as a (..., N) array, and the integrals come back
    as a complex (...) array from the same pass over the nodes.  The curve
    part is the rule of cm.node_data against the weight; each line adds c_k
    times the uniform rule on the roots of unity in the second coordinate.
    With count=None the node count doubles from 4096 until two successive
    values agree to 1e-9 (relative) in every component, up to 2**20 nodes.
    The rules are nested: a doubling keeps the sums over the old nodes and
    evaluates f only at the new, odd ones.

    Poisson integrals at P points, one row of poisson2 each:

    >>> from rifclark import get, phi_eval, poisson2
    >>> cm = clark_measure(get("deg31").build(), -1.0)
    >>> pts = np.array([(0.2 + 0.1j, -0.3j), (0.0, 0.4)])
    >>> vals = integrate(cm, lambda u, v: poisson2(pts, (u, v)), None).real
    >>> phis = np.array([phi_eval(cm.rif, z) for z in pts])
    >>> bool(np.allclose(vals, (1 - abs(phis) ** 2) / abs(-1.0 - phis) ** 2))
    True
    """
    fixed = count is not None
    count = int(count) if fixed else RULE_NODES
    sums = _node_sums(cm, f, circle_nodes(count), *cm.node_data(count))
    prev = _rule_value(cm, sums, count)
    if fixed:
        return prev
    while count < _MAX_ADAPTIVE_NODES:
        count *= 2
        z, z2, w = cm.node_data(count)
        sums += _node_sums(cm, f, circle_nodes(count)[1::2], z[1::2], z2[1::2], w[1::2])
        cur = _rule_value(cm, sums, count)
        if np.all(np.abs(cur - prev) <= _SETTLE * np.maximum(1.0, np.abs(cur))):
            return cur
        prev = cur
    raise NumericError("adaptive quadrature did not settle",
                       residual=float(np.max(np.abs(prev))))


def _node_sums(cm: ClarkMeasure, f, omega, z, z2, w) -> np.ndarray:
    """Sums of f shaped (1 + lines, ...): along the curve over its node
    data (z, z2, w), weighted, then along each line {tau} x T, unweighted,
    with the second coordinate on the roots of unity omega.  Only the
    curve takes the node map; with b = 0, z is omega."""
    sums = [np.asarray(f(z, z2)) @ w]
    for tau, _mass in cm.lines:
        sums.append(np.asarray(f(np.full_like(omega, tau), omega)).sum(axis=-1))
    return np.array(sums, dtype=complex)


def _rule_value(cm: ClarkMeasure, sums: np.ndarray, count: int) -> complex | np.ndarray:
    total = sums[0] / count
    for (_tau, mass), s in zip(cm.lines, sums[1:]):
        total = total + mass * (s / count)
    return complex(total) if np.ndim(total) == 0 else total


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
    phi0 = rif.phi_at_origin
    if abs(phi0) > TOL:
        return ExtremeDecision(
            ExtremeStatus.UNDETERMINED,
            "criteria require phi(0) = 0, which fails here",
        )
    ac = classify_alpha(rif, alpha)
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
    if int(n_points) < 1:
        raise DomainError("node count must be positive")
    theta1 = 2.0 * np.pi * np.arange(int(n_points)) / int(n_points)
    z = np.exp(1j * theta1)
    theta2 = np.mod(np.angle(cm.curve_z2(z)), 2.0 * np.pi)
    curve = np.column_stack([theta1, theta2])
    lines = tuple(
        float(np.mod(math.atan2(t.imag, t.real), 2.0 * math.pi))
        for t in cm.removable_points
    )
    return LevelSetSample(cm.alpha, curve, lines)
