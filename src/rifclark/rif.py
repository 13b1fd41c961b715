"""Degree-(n,1) rational inner functions on the bidisk.

The denominators are polynomials p(z1, z2) = p1(z1) + z2 p2(z1) with deg
p_i <= n that are stable: zero free on the open bidisk and on both
distinguished open faces D x T and T x D.  The inner function is
phi = ptilde / p with ptilde(z) = z1**n z2 conj(p(1/conj(z1), 1/conj(z2)))
the bidegree-(n,1) reflection.

Writing w(z1) = -p1(z1) / p2(z1) for the z2-root of p, stability is
equivalent to p1 nonvanishing on the closed disk minus the circle, together
with |w| > 1 on the open disk and |w| >= 1 on the circle.  Boundary
singularities of phi are the finitely many circle points tau where
|w(tau)| = 1, equivalently where the nonnegative trigonometric polynomial
t = |p1|^2 - |p2|^2 vanishes; each carries a unimodular second coordinate
lambda = w(tau), the value alpha = phi(tau, z2) that phi takes on the whole
line {tau} x C (off the pole), and the constant z1-derivative of phi along
that line.  All three are read off the z2-pencil p1(tau) + z2 p2(tau) of p
at tau, the derivative at its two ends z2 = 0 and z2 = infinity.
Everything downstream (Clark measures, unitarity, decompositions) is
organized around this singularity list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, _as, _integer, _numbers
from .polynomials import (
    TrigPoly, UniPoly, _proportion, _spectral_factor, _split_circle_roots, circle_nodes, roots)

@dataclass(frozen=True)
class BiPolyN1:
    """Bivariate polynomial p(z1, z2) = p1(z1) + z2 * p2(z1), deg p_i <= n."""

    p1: UniPoly
    p2: UniPoly
    n: int

    def __post_init__(self):
        n = _integer(self.n, "the z1-degree bound must be an integer, not {!r}")
        if n < 1:
            raise DomainError("the z1-degree bound must be at least 1")
        object.__setattr__(self, "n", n)
        for part in (self.p1, self.p2):
            if not np.isfinite(part.coeffs).all():
                raise DomainError("coefficients must be finite")
            if not part.is_zero and part.degree > self.n:
                raise DomainError("coefficient degree exceeds the declared bound")

    def eval(self, z1, z2):
        return self.p1(z1) + np.asarray(z2, dtype=complex) * self.p2(z1)

    def scale(self) -> float:
        return max(self.p1.scale(), self.p2.scale())

    def to_json(self) -> dict:
        return {"n": self.n, "p1": self.p1.to_json(), "p2": self.p2.to_json()}

    @staticmethod
    def from_json(obj) -> "BiPolyN1":
        """Inverse of to_json; malformed input raises DomainError."""
        try:
            p1, p2, n = UniPoly.from_json(obj["p1"]), UniPoly.from_json(obj["p2"]), obj["n"]
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(
                f"malformed polynomial JSON ({type(exc).__name__}: {exc})"
            ) from None
        return BiPolyN1(p1, p2, n)


def reflect(p: BiPolyN1) -> BiPolyN1:
    """The bidegree-(n,1) reflection ptilde.

    ptilde(z) = z2 * reflect(p1)(z1) + reflect(p2)(z1), so the z2-free part
    of the reflection comes from p2 and vice versa.  Applying reflect twice
    returns the original polynomial exactly.
    """
    return BiPolyN1(p.p2.conj_reflect(p.n), p.p1.conj_reflect(p.n), p.n)


@dataclass(frozen=True)
class Singularity:
    """One boundary zero of p: the point (tau, lam) on the torus.

    alpha is the constant value of phi on the line {tau} x C; deriv is the
    constant value of d(phi)/dz1 on that line; mult is the (even) order of
    tau as a circle zero of |p1|^2 - |p2|^2.
    """

    tau: complex
    lam: complex
    alpha: complex
    deriv: complex
    mult: int


@dataclass(frozen=True)
class Rif:
    """A validated rational inner function phi = ptilde / p.

    Construct through validate(); the constructor does not re-run the
    stability analysis.  pt1 and pt2 name the reflection parts so that
    ptilde = pt2 + z2 * pt1 mirrors p = p1 + z2 * p2.  t is the boundary
    polynomial |p1|^2 - |p2|^2 whose circle zeros validate certified as the
    singularities, and inside holds its roots inside the disk; everything
    downstream reads them from here.  The Rif owns the weight numerators of
    its Clark measures (_weight_numerator): t for every generic measure and
    one |Q_red|^2 per matched set for the exceptional ones, so the measures
    at one matched set share one numerator and its node values, which live
    as long as the Rif.  dataclasses.replace starts an empty cache.
    """

    p: BiPolyN1
    ptilde: BiPolyN1
    singularities: tuple
    phi_at_origin: complex
    t: TrigPoly = field(repr=False, compare=False)
    inside: tuple = field(repr=False, compare=False)
    _numerators: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.p.n

    @property
    def p1(self) -> UniPoly:
        return self.p.p1

    @property
    def p2(self) -> UniPoly:
        return self.p.p2

    @property
    def pt1(self) -> UniPoly:
        """z2-coefficient of the reflection."""
        return self.ptilde.p2

    @property
    def pt2(self) -> UniPoly:
        """z2-free part of the reflection."""
        return self.ptilde.p1

    def _weight_numerator(self, matched: tuple) -> TrigPoly:
        """Weight numerator of the Clark measures whose alpha matches the
        singularities at the indices matched: t when none, else |Q_red|^2,
        Q_red the spectral factor of t less one (z - tau_k) per matched k,
        formed on first request and kept (a failed factorization raises and
        keeps nothing)."""
        if not matched:
            return self.t
        num = self._numerators.get(matched)
        if num is None:
            sings = self.singularities
            num = TrigPoly.modulus_squared(_spectral_factor(
                self.t, self.inside, [(s.tau, s.mult) for s in sings],
                [sings[k].tau for k in matched]))
            self._numerators[matched] = num
        return num


def _stability_violation(p: BiPolyN1, p1_roots: list) -> str | None:
    """None if stable, else a short reason string; p1_roots are the roots
    of p1 (empty when p1 is constant).

    Checks, in order: p1 zero free on the closed disk (zeros of p1 inside
    the disk are zeros of p at z2 = 0, and a zero on the circle is a zero on
    a distinguished face, or a factor p shares with its reflection when p2
    vanishes there too), no unimodular proportionality p1 = c p2 (which
    would put a whole zero line on a face or inside), and |p2 / p1| <= 1 on
    a circle sample.  Once p1 has no zero on the closed disk, p2 / p1 is
    analytic there and by the maximum modulus principle takes its largest
    modulus on the circle, so the circle sample bounds it on the whole disk:
    the z2-root w = -p1 / p2 stays outside the open disk.
    """
    p1, p2 = p.p1, p.p2
    sc = max(p.scale(), 1e-300)
    if p1.is_zero:
        return "not stable: vanishing at z2 = 0"
    if abs(p1(0.0)) <= 1e-12 * sc:
        return "not stable: vanishing at the origin"
    for r, _ in p1_roots:
        if abs(r) < 1.0 - 1e-9:
            return "not stable: zero inside the disk at z2 = 0"
        # 5e-7 also catches a factor shared just outside the circle
        if abs(abs(r) - 1.0) <= 5e-7 and abs(p2(r)) <= 1e-8 * sc:
            return "not coprime: simultaneous circle zero of p1 and p2"
        if abs(abs(r) - 1.0) <= 1e-9:
            return "not stable: zero on a distinguished face"
    if p2.is_zero:
        return None
    if p1.degree == p2.degree:
        c, resid = _proportion(p1.coeffs, p2.coeffs)
        if resid <= 1e-12 * max(p1.scale(), p2.scale()) and abs(c) <= 1.0 + 1e-9:
            return "not stable: z2-root is constant on the closed disk"
    # a zero of p1 just outside the circle makes |p2 / p1| peak narrower
    # than the node spacing, at the circle point nearest that zero
    samples = np.concatenate([
        circle_nodes(1024)[1::2],
        [r / abs(r) for r, _ in p1_roots],
    ])
    p1v = p1(samples)
    p2v = p2(samples)
    tiny = 1e-13 * sc
    both = (np.abs(p1v) <= tiny) & (np.abs(p2v) <= tiny)
    if bool(both.any()):
        return "not coprime: simultaneous zero of p1 and p2"
    live = np.abs(p2v) > tiny
    w = np.abs(p1v[live]) / np.abs(p2v[live])
    if float(w.min()) < 1.0 - 1e-9:
        return "not stable: zero in the open bidisk"
    return None


def _coprime_violation(p: BiPolyN1, pt: BiPolyN1) -> str | None:
    """None if p and ptilde share no factor, else a reason string.

    With p stable, the only common factor possible is all of p, which makes
    ptilde a unimodular multiple of p.  A factor in z1 alone would divide p1
    and p2, and through the reflection their reflections too, so its zeros
    would be closed under z -> 1 / conj(z); with p1 zero free on the open
    disk they would lie on the circle, where _stability_violation already
    refuses every zero that p1 shares with p2.
    """
    width = p.n + 1
    a = np.concatenate([p.p1.padded(width), p.p2.padded(width)])
    b = np.concatenate([pt.p1.padded(width), pt.p2.padded(width)])
    sc = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    if _proportion(b, a)[1] <= 1e-10 * sc:
        return "not coprime: the reflection is a scalar multiple of p"
    return None


def _line_derivative(p: BiPolyN1, pt: BiPolyN1, tau: complex, alpha: complex,
                     p1t: complex, p2t: complex) -> complex:
    """Constant value of d(phi)/dz1 on the line {tau} x D.

    On that line ptilde - alpha p vanishes identically, so the quotient rule
    collapses to (d(ptilde)/dz1 - alpha d(p)/dz1) / p, a ratio of two
    polynomials of degree one in z2.  It is read at the two ends of the
    z2-pencil, z2 = 0 and z2 = infinity, where p is p1t = p1(tau) and p2t =
    p2(tau), and the two values must agree.  At a contact |p1t| = |p2t|;
    when that is at most 1e-3 of p's coefficient scale the line runs next
    to a zero of p1 and p2, and the ratio is refused.
    """
    if abs(p2t) <= 1e-3 * max(p.scale(), 1e-300):
        raise NumericError("p is too small on the line to fix its derivative")
    at_zero = (pt.p1.derivative()(tau) - alpha * p.p1.derivative()(tau)) / p1t
    at_inf = (pt.p2.derivative()(tau) - alpha * p.p2.derivative()(tau)) / p2t
    if abs(at_zero - at_inf) > 1e-6 * max(1.0, abs(at_zero)):
        raise NumericError(
            "line derivative is not constant",
            residual=abs(at_zero - at_inf),
        )
    return complex((at_zero + at_inf) / 2.0)


def _detect_singularities(p: BiPolyN1, pt: BiPolyN1, circle) -> tuple:
    sc = max(p.scale(), 1e-300)
    sings = []
    for tau, mult in circle:  # in angle order, as _split_circle_roots sorts them
        if mult % 2:
            raise NumericError("odd-order boundary contact; t must be nonnegative")
        p1t, p2t = p.p1(tau), p.p2(tau)
        if abs(p2t) <= 1e-8 * sc:
            raise DomainError("degenerate: p1 and p2 vanish together on the circle")
        lam = -p1t / p2t
        if abs(abs(lam) - 1.0) > 1e-6:
            raise NumericError("boundary zero with a non-unimodular second coordinate")
        lam /= abs(lam)
        alpha = pt.p2(tau) / p2t
        if abs(abs(alpha) - 1.0) > 1e-6:
            raise NumericError("boundary value of phi is not unimodular")
        alpha /= abs(alpha)
        deriv = _line_derivative(p, pt, tau, alpha, p1t, p2t)
        sings.append(Singularity(complex(tau), lam, alpha, deriv, int(mult)))
    if len(sings) > p.n:
        raise NumericError("more boundary zeros than the degree allows")
    return tuple(sings)


def validate(p: BiPolyN1) -> Rif:
    """Check stability and coprimality and assemble the inner function.

    Raises DomainError with a reason ("not stable: ..." or "not coprime:
    ...") when p does not define a rational inner function of the supported
    shape.  On success returns a Rif carrying the reflection, the sorted
    singularity list, phi(0, 0), the boundary polynomial t and its split.
    A split of t whose roots off the circle do not pair across it, one
    inside for each outside, raises NumericError: the circle zeros it
    missed would leave singularities out.
    """
    p1_roots = roots(p.p1) if p.p1.degree >= 1 else []
    reason = _stability_violation(p, p1_roots)
    if reason is not None:
        raise DomainError(reason)
    pt = reflect(p)
    reason = _coprime_violation(p, pt)
    if reason is not None:
        raise DomainError(reason)
    t = TrigPoly.modulus_squared(p.p1) - TrigPoly.modulus_squared(p.p2)
    if t.is_zero:
        raise DomainError("degenerate: |p1| = |p2| on the whole circle")
    circle, inside = _split_circle_roots(t)
    sings = _detect_singularities(p, pt, circle)
    # t's roots off the circle come in mirror pairs, one inside for each
    if 2 * len(inside) + sum(s.mult for s in sings) != 2 * t.as_poly()[1]:
        raise NumericError("root pairing across the circle failed")
    phi0 = pt.p1(0.0) / p.p1(0.0)
    return Rif(p, pt, sings, complex(phi0), t, tuple(inside))


def _pairs(z, message: str, ndims=(1, 2)) -> np.ndarray:
    """z as a complex array of one pair (z1, z2) or P of them, of ndim 1 or
    2 as ndims allows; text or a bool among the coordinates raises
    DomainError saying so, and anything else, a ragged list too,
    DomainError(message)."""
    pts = _as(lambda v: np.asarray(v, dtype=complex),
              _numbers(z, "coordinates must be complex numbers, not {!r}"), message)
    if pts.ndim not in ndims or pts.shape[-1] != 2:
        raise DomainError(message)
    return pts


def phi_eval(rif: Rif, z) -> complex | np.ndarray:
    """phi at a point of the closed bidisk, a pair (z1, z2); or at P points
    given as a (P, 2) array, whose P values come back as a (P,) array from
    one pass.

    Raises DomainError when any point lies outside the closed bidisk or at
    a zero of p (the boundary singularities and the poles on singular
    lines).
    """
    pts = _pairs(z, "phi_eval takes a pair (z1, z2) or a (P, 2) array of them")
    z1, z2 = pts[..., 0], pts[..., 1]
    if not (np.abs(pts) <= 1.0 + 1e-12).all():
        raise DomainError("point outside the closed bidisk")
    den = rif.p.eval(z1, z2)
    sc = max(rif.p.scale(), 1e-300)
    if np.any(np.abs(den) <= 1e-12 * sc):
        raise DomainError("phi is evaluated at a zero of p")
    out = rif.ptilde.eval(z1, z2) / den
    return complex(out) if pts.ndim == 1 else out


def is_saturated(rif: Rif) -> bool:
    """Whether the z2-resultant of p and ptilde has degree exactly 2n with
    every root on the unit circle.

    The resultant p2 * pt2 - p1 * pt1 has the coefficients of -z1**n t, t the
    boundary polynomial, so it has degree 2n exactly when t has band n with
    a nonnegligible top coefficient, and its circle roots are the boundary
    zeros tau_k with their multiplicities; the rest come in mirror pairs
    across the circle.  So the answer is read off rif.t and the singularity
    list, with no new root-find.
    """
    t = rif.t
    if t.d != rif.n or not abs(t.coeffs[-1]) > 1e-12 * t.scale():
        return False
    return sum(s.mult for s in rif.singularities) == 2 * rif.n
