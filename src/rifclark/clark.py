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

Those integrals are uniform rules over the curve's node data: the N-th
roots of unity zeta, conj(B_alpha(zeta)) and W_alpha(zeta).  One in-place
pass over the Blaschke zeros a_k gives N(zeta) = prod (zeta - a_k) and
D(zeta) = prod (1 - conj(a_k) zeta), hence conj(B_alpha) = conj(gamma N / D)
and the weight denominator |u_red|^2 = |lead(u_red)|^2 |N|^2 (the zeros of
B_alpha are exactly the roots of u_red); the weight numerator is one FFT of
its coefficients.  Adaptive integration doubles N with nested rules: the
old sums are kept, and node data and integrand are evaluated only at the N
new nodes.
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

_MAX_ADAPTIVE_NODES = 2 ** 20


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
    computed in that factored form.  Node data for quadrature is cached per
    node count.
    """

    rif: Rif
    alpha_class: AlphaClass
    balpha: BlaschkeProduct
    weight_num: TrigPoly
    u_red: UniPoly
    v_red: UniPoly
    lines: tuple
    _cache: dict = field(default_factory=dict, repr=False)

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

    def node_data(self, count: int):
        """(nodes, curve z2 values, weight values) at the count-th roots of
        unity, cached per node count.

        The weight numerator comes from one FFT.  When the data for count/2
        is cached it fills the even nodes, and only the odd nodes (the
        count/2 roots turned by half a spacing) are computed.
        """
        data = self._cache.get(count)
        if data is None:
            z = circle_nodes(count)
            coarse = self._cache.get(count // 2) if count % 2 == 0 else None
            if coarse is None:
                z2, w = self._curve_data(z, self.weight_num.node_values(count))
            else:
                z2 = np.empty(count, dtype=complex)
                w = np.empty(count)
                z2[::2], w[::2] = coarse[1], coarse[2]
                z2[1::2], w[1::2] = self._curve_data(
                    z[1::2], self.weight_num.node_values(count // 2, half=True))
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

    def to_json(self, count: int = 4096) -> dict:
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
            "total_mass": self.total_mass(count),
        }


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


def integrate(cm: ClarkMeasure, f, count: int | None = 4096) -> complex:
    """Integral of f against the Clark measure.

    f must be vectorized: called as f(z1_array, z2_array) it returns an
    array of values.  The curve part is a uniform rule against the weight;
    each line adds c_k times a uniform rule in the second coordinate.  With
    count=None the node count doubles from 4096 until two successive values
    agree to 1e-9 (relative), up to 2**20 nodes.  The rules are nested: a
    doubling keeps the sums over the old nodes and evaluates f only at the
    new, odd ones.
    """
    if count is not None:
        count = int(count)
        return _rule_value(cm, _node_sums(cm, f, *cm.node_data(count)), count)
    count = 4096
    sums = _node_sums(cm, f, *cm.node_data(count))
    prev = _rule_value(cm, sums, count)
    while count < _MAX_ADAPTIVE_NODES:
        count *= 2
        z, z2, w = cm.node_data(count)
        sums += _node_sums(cm, f, z[1::2], z2[1::2], w[1::2])
        cur = _rule_value(cm, sums, count)
        if abs(cur - prev) <= 1e-9 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise NumericError("adaptive quadrature did not settle", residual=abs(prev))


def _node_sums(cm: ClarkMeasure, f, z, z2, w) -> np.ndarray:
    """Sums of f over the given nodes: weighted along the curve, then
    along each line."""
    sums = [np.sum(np.asarray(f(z, z2), dtype=complex) * w)]
    for tau, _mass in cm.lines:
        sums.append(np.sum(np.asarray(f(np.full_like(z, tau), z), dtype=complex)))
    return np.array(sums, dtype=complex)


def _rule_value(cm: ClarkMeasure, sums: np.ndarray, count: int) -> complex:
    total = complex(sums[0] / count)
    for (_tau, mass), s in zip(cm.lines, sums[1:]):
        total += mass * complex(s / count)
    return total


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
    theta1 = 2.0 * np.pi * np.arange(int(n_points)) / int(n_points)
    z = np.exp(1j * theta1)
    theta2 = np.mod(np.angle(cm.curve_z2(z)), 2.0 * np.pi)
    curve = np.column_stack([theta1, theta2])
    lines = tuple(
        float(np.mod(math.atan2(t.imag, t.real), 2.0 * math.pi))
        for t in cm.removable_points
    )
    return LevelSetSample(cm.alpha, curve, lines)
