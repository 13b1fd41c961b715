"""Sums-of-squares data attached to a degree-(n,1) rational inner function.

The defining identity, over z, w in C^2, is

    p(z) conj(p(w)) - ptilde(z) conj(ptilde(w))
        = (1 - z1 conj(w1)) sum_j R_j(z) conj(R_j(w))
        + (1 - z2 conj(w2)) Q(z1) conj(Q(w1)),

with deg Q <= (n, 0) and deg R_j <= (n-1, 1).  Q is determined up to phase
by |Q|^2 = |p1|^2 - |p2|^2 on the circle, a nonnegative trigonometric
polynomial, so it comes from spectral factorization.  For an exceptional
alpha matching singularities tau_1..tau_l, the first l members of an
orthonormal R-family can be written down in closed form from the pencil
numerator u that the Clark measure sigma_alpha keeps: the j-th piece takes
u deflated once at tau_j, and the reflection of that quotient for the
pencil denominator alpha u* divided by z1 - tau_j.  They vanish on the
graph part of the level set and are supported on the lines, which is
what the orthonormality check verifies against that measure.  The
measure-side functions here (exceptional_R, gram_isometry_check,
orthonormality_check) take the ClarkMeasure and never build one, and
integrate against it with its own rule: its curve's node data and its
lines.  The Gram check splits the Cauchy kernel by coordinate and runs
over a family of measures (_gram_reports), and takes each line exactly,
with the Szego kernel as its second coordinate's Gram matrix.  On the
lines R / p is 0/0 at (tau_k, lambda_k), so the orthonormality check
takes their exact constant traces instead.  The closed-form list
is a partial family (l of n pieces), so it is checked by orthonormality,
not by the full two-squares identity; complete documented decompositions
are checked by sos_residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, _check_seed
from .polynomials import UniPoly, _spectral_factor
from .clark import RULE_NODES, AlphaKind, ClarkMeasure, _family_node_data
from .rif import Rif, _pairs, phi_eval

_SOS_SAMPLES = 200


@dataclass(frozen=True)
class SosPiece:
    """One bidegree-(*, 1) summand R(z) = r(z1) + z2 * q(z1)."""

    r: UniPoly
    q: UniPoly

    def eval(self, z1, z2):
        return self.r(z1) + np.asarray(z2, dtype=complex) * self.q(z1)

    def to_json(self) -> dict:
        return {"r": self.r.to_json(), "q": self.q.to_json()}


@dataclass(frozen=True)
class AglerPieces:
    """A bundle of squares: Q plus a (possibly partial) R list."""

    Q: UniPoly
    R: tuple
    provenance: str

    def to_json(self) -> dict:
        return {
            "Q": self.Q.to_json(),
            "R": [piece.to_json() for piece in self.R],
            "provenance": self.provenance,
        }


def compute_Q(rif: Rif) -> UniPoly:
    """The one-variable square: |Q|^2 = rif.t = |p1|^2 - |p2|^2 on the
    circle.

    _spectral_factor builds it from the split of t that validate keeps,
    with no root-find.  Normalized with a positive real leading
    coefficient; any unimodular multiple satisfies the same identity.
    """
    return _spectral_factor(rif.t, rif.inside, [(s.tau, s.mult) for s in rif.singularities])


def exceptional_R(cm: ClarkMeasure) -> list[SosPiece]:
    """Closed-form orthonormal R pieces for the exceptional measure cm.

    With u = cm.u the pencil numerator, v = alpha p1 - pt2 = alpha u* its
    denominator (B_alpha = u / v before the matched circle roots cancel)
    and tau_1..tau_l the matched points,

        R_j = d_j * (v(z1) - z2 * u(z1)) / (z1 - tau_j).

    u is deflated once at its zero tau_j, u = (z1 - tau_j) b1, and a
    remainder above 1e-6 of the coefficient scale raises NumericError.
    Since 1 - conj(tau_j) z1 = -conj(tau_j) (z1 - tau_j), the reflection
    gives v / (z1 - tau_j) = -alpha conj(tau_j) b1*, b1* the degree-(n - 1)
    reflection of b1.  d_j > 0 makes c_j * ||(R_j / p)(tau_j, .)||^2 = 1.
    The trace of R_j / p on its own line is constant because numerator and
    denominator share the z2-root lambda_j, so the Hardy norm is that
    constant's modulus and d_j is computed exactly.  Constancy is checked
    by comparing the trace's values at z2 = 0 and z2 = infinity, which fix
    a ratio of two polynomials of degree one in z2.
    """
    rif, ac, u = cm.rif, cm.alpha_class, cm.u
    if ac.kind is not AlphaKind.EXCEPTIONAL:
        raise DomainError("alpha is generic; the closed-form R list is empty there")
    out: list[SosPiece] = []
    sc = max(u.scale(), 1e-300)
    for s in [rif.singularities[k] for k in ac.matched]:
        b1, ru = u.deflate(s.tau)
        if abs(ru) > 1e-6 * sc:
            raise NumericError("matched singular point is not a common zero "
                               "of the pencil", residual=abs(ru) / sc)
        b2 = (-ac.alpha * np.conj(s.tau)) * b1.conj_reflect(rif.n - 1)
        b1t = b1(s.tau)
        p2t = rif.p2(s.tau)
        if abs(b1t) <= 1e-10 * sc or abs(p2t) <= 1e-10 * max(rif.p.scale(), 1e-300):
            raise NumericError("degenerate pencil value on a matched line")
        # values at z2 = infinity and z2 = 0; |p1(tau_j)| = |p2(tau_j)|, so
        # the guard on p2 covers both ends
        trace = -b1t / p2t
        if abs(b2(s.tau) / rif.p1(s.tau) - trace) > 1e-8 * max(1.0, abs(trace)):
            raise NumericError("line trace of R/p is not constant")
        c_j = 1.0 / abs(s.deriv)
        d_j = 1.0 / (np.sqrt(c_j) * abs(trace))
        out.append(SosPiece(d_j * b2, (-d_j) * b1))
    return out


def sos_residual(rif: Rif, Q: UniPoly, R_list, seed: int = 0) -> float:
    """Largest defect of the two-squares identity on random bidisk pairs.

    Draws 200 pairs (z, w) from the closed bidisk (one quarter of
    the coordinates pushed to the boundary circle), evaluates both sides,
    and returns the maximum absolute defect normalized by the largest
    |p(z) conj(p(w))| seen.  A complete decomposition drives this to
    roundoff; a partial R list does not.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)

    def draw(count):
        radius = np.sqrt(rng.uniform(0.0, 1.0, (count, 2)))
        radius[rng.uniform(size=(count, 2)) < 0.25] = 1.0
        angle = rng.uniform(0.0, 2.0 * np.pi, (count, 2))
        pts = radius * np.exp(1j * angle)
        return pts[:, 0], pts[:, 1]

    z1, z2 = draw(_SOS_SAMPLES)
    w1, w2 = draw(_SOS_SAMPLES)
    pz = rif.p.eval(z1, z2)
    pw = rif.p.eval(w1, w2)
    ptz = rif.ptilde.eval(z1, z2)
    ptw = rif.ptilde.eval(w1, w2)
    lhs = pz * np.conj(pw) - ptz * np.conj(ptw)
    rsum = np.zeros_like(lhs)
    for piece in R_list:
        rsum += piece.eval(z1, z2) * np.conj(piece.eval(w1, w2))
    qsum = Q(z1) * np.conj(Q(w1))
    rhs = (1.0 - z1 * np.conj(w1)) * rsum + (1.0 - z2 * np.conj(w2)) * qsum
    scale = max(float(np.max(np.abs(pz * np.conj(pw)))), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


@dataclass(frozen=True)
class GramReport:
    """Measured versus reproducing-kernel Gram matrix for J_alpha."""

    alpha: complex
    points: tuple
    target: np.ndarray
    measured: np.ndarray
    max_abs_deviation: float


def gram_isometry_check(cm: ClarkMeasure, points) -> GramReport:
    """Compare Gram matrices of kernel functions under the Clark embedding.

    For interior points w_i, the embedding sends the kernel k_{w_i} to
    (1 - alpha conj(phi(w_i))) C_{w_i} on the level set of cm, with C_w the
    two-variable Cauchy kernel.  The measured matrix integrates those
    images pairwise against sigma_alpha on cm's RULE_NODES rule; the
    target is the kernel matrix k(w_j, w_i).  Agreement at quadrature
    accuracy for every alpha is the isometry property; for exceptional
    alpha the embedding is still an isometry (the defect shows up in
    surjectivity, not in these Grams).  This is the one-measure case of
    _gram_reports, which the verification suite runs over a whole sweep.
    """
    return next(_gram_reports(points, [cm]))


def _cauchy(cw, nodes, out=None, num=1.0) -> np.ndarray:
    """num times the one-variable Cauchy kernels 1 / (1 - cw nodes) of the
    (P, 1) conjugated coordinates cw at the N nodes, a (P, N) array,
    written into out when it is given."""
    out = np.multiply(cw, nodes, out=out)
    np.subtract(1.0, out, out=out)
    return np.divide(num, out, out=out)


def _gram_reports(points, measures):
    """gram_isometry_check of each measure at the same points, one
    GramReport per measure, in order, from one pass.

    C_w is the product of one Cauchy kernel per coordinate, so the measured
    matrix of the curve is (c w) c^H with c the first coordinate's (P, N)
    factor 1 / (1 - conj(w1) zeta_j), shared as clark._family_node_data
    decides, divided by 1 - conj(w2) z2_j into two kept (P, N) workspaces,
    which also hold its conjugate and the weighted c.  On a line
    {tau_k} x T the second factors integrate to the Szego kernel
    S = 1 / (1 - conj(w2_i) w2_j), so the line adds c_k a a^H times S
    entry by entry, a = 1 / (1 - conj(w1) tau_k).  The measures, a nonempty
    list, share one Rif: S, phi and the target are formed once per call.
    """
    w = _pairs(points, "Gram points must be a nonempty list of pairs (w1, w2)")
    if w.ndim != 2 or not len(w):
        raise DomainError("Gram points must be a nonempty list of pairs (w1, w2)")
    if not (np.abs(w) < 1.0).all():
        raise DomainError("Gram points must lie in the open bidisk")
    pts = tuple(map(tuple, w.tolist()))
    # conjugated coordinates as columns, so row i belongs to w_i
    cw1, cw2 = np.conj(w[:, :1]), np.conj(w[:, 1:])
    # the node sums of the curve are RULE_NODES times their means
    szego = RULE_NODES / (1.0 - cw2 * w[:, 1])
    phis = phi_eval(measures[0].rif, w)
    target = (1.0 - np.conj(phis)[:, None] * phis) / (
        (1.0 - cw1 * w[:, 0]) * (1.0 - cw2 * w[:, 1]))
    c = np.empty((len(w), RULE_NODES), dtype=complex)
    cc = np.empty_like(c)
    for cm, z2, wt, table in _family_node_data(measures, lambda nodes: _cauchy(cw1, nodes)):
        _cauchy(cw2, z2, c, table)
        np.conj(c, out=cc)
        measured = np.multiply(c, wt, out=c) @ cc.T
        for tau, mass in cm.lines:
            a = _cauchy(cw1, tau)[:, 0]
            measured += mass * np.outer(a, np.conj(a)) * szego
        pref = 1.0 - cm.alpha * np.conj(phis)
        measured *= np.outer(pref, np.conj(pref)) / RULE_NODES
        dev = float(np.max(np.abs(measured - target)))
        yield GramReport(cm.alpha, pts, target.copy(), measured, dev)


def orthonormality_check(cm: ClarkMeasure, R_list) -> np.ndarray:
    """Gram matrix of {R_j / p} in L^2(cm); identity when the list is
    orthonormal.

    The line contributions are exact: (R_i / p)(tau_k, .) is the constant
    q_i(tau_k) / p2(tau_k) whenever R_i(tau_k, lambda_k) = 0, which is
    required (otherwise the trace is not square integrable and this raises
    NumericError); a line block of cm.rule can put a node on lambda_k,
    where R / p is 0/0.  The curve contribution takes the odd nodes of
    cm.node_data(2 * RULE_NODES), the measure's rule offset by half a
    spacing, so that curve-line crossing points, which sit at circle zeros
    of p, do not coincide with quadrature nodes.
    """
    rif = cm.rif
    pieces = list(R_list)
    sc = max(rif.p.scale(), 1e-300)
    m = len(pieces)
    gram = np.zeros((m, m), dtype=complex)
    # cm.lines follows the order of the matched singularities
    for (tau, mass), k in zip(cm.lines, cm.alpha_class.matched):
        lam = rif.singularities[k].lam
        p2t = rif.p2(tau)
        vals = []
        for piece in pieces:
            at_pole = piece.eval(tau, lam)
            if abs(at_pole) > 1e-8 * max(sc, piece.r.scale() + piece.q.scale()):
                raise NumericError(
                    "R does not vanish at the line pole; trace not square integrable"
                )
            vals.append(piece.q(tau) / p2t)
        v = np.array(vals)
        gram += mass * np.outer(v, np.conj(v))
    z, z2, w = (a[1::2] for a in cm.node_data(2 * RULE_NODES))
    pv = rif.p.eval(z, z2)
    live = np.abs(pv) > 1e-12 * sc
    ratios = np.array([
        np.where(live, piece.eval(z, z2) / np.where(live, pv, 1.0), 0.0)
        for piece in pieces
    ], dtype=complex).reshape(m, RULE_NODES)
    return gram + (ratios * w) @ ratios.conj().T / RULE_NODES
