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
line {tau} x C (off the pole), and the modulus of the constant z1-derivative
of phi along that line.  Everything downstream (Clark measures, unitarity,
decompositions) is organized around this singularity list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .polynomials import TrigPoly, UniPoly, roots

# Test points for fixing the constant value of a derivative along a line;
# chosen well inside the disk and mutually separated.
_LINE_POINTS = (0.0 + 0.0j, 0.5 + 0.0j, -0.5j, 0.4j, -0.35 + 0.25j)


@dataclass(frozen=True)
class BiPolyN1:
    """Bivariate polynomial p(z1, z2) = p1(z1) + z2 * p2(z1), deg p_i <= n."""

    p1: UniPoly
    p2: UniPoly
    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise DomainError("the z1-degree bound must be at least 1")
        object.__setattr__(self, "n", int(self.n))
        for part in (self.p1, self.p2):
            if not np.isfinite(part.coeffs).all():
                raise DomainError("coefficients must be finite")
            if not part.is_zero and part.degree > self.n:
                raise DomainError("coefficient degree exceeds the declared bound")

    def eval(self, z1, z2):
        return self.p1(z1) + np.asarray(z2, dtype=complex) * self.p2(z1)

    def eval_dz1(self, z1, z2):
        return self.p1.derivative()(z1) + np.asarray(z2, dtype=complex) * self.p2.derivative()(z1)

    def scale(self) -> float:
        return max(self.p1.scale(), self.p2.scale())

    def to_json(self) -> dict:
        return {"n": self.n, "p1": self.p1.to_json(), "p2": self.p2.to_json()}

    @staticmethod
    def from_json(obj) -> "BiPolyN1":
        """Inverse of to_json; malformed input raises DomainError."""
        try:
            p1, p2 = UniPoly.from_json(obj["p1"]), UniPoly.from_json(obj["p2"])
            n = int(obj["n"])
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
    singularities; everything downstream reads it from here.
    """

    p: BiPolyN1
    ptilde: BiPolyN1
    singularities: tuple
    phi_at_origin: complex
    t: TrigPoly = field(repr=False, compare=False)

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
    if not p2.is_zero and p1.degree == p2.degree:
        j = int(np.argmax(np.abs(p2.coeffs)))
        c = p1.coeffs[j] / p2.coeffs[j]
        m1 = max(p1.scale(), p2.scale())
        if float(np.max(np.abs((p1 - c * p2).padded(p1.coeffs.size)))) <= 1e-12 * m1:
            if abs(c) <= 1.0 + 1e-9:
                return "not stable: z2-root is constant on the closed disk"
    if p2.is_zero:
        return None
    # a zero of p1 just outside the circle makes |p2 / p1| peak narrower
    # than the node spacing, at the circle point nearest that zero
    samples = np.concatenate([
        np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512),
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
    j = int(np.argmax(np.abs(a)))
    sc = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    if abs(a[j]) > 0:
        c = b[j] / a[j]
        if float(np.max(np.abs(b - c * a))) <= 1e-10 * sc:
            return "not coprime: the reflection is a scalar multiple of p"
    return None


def _line_derivative(p: BiPolyN1, pt: BiPolyN1, tau: complex, alpha: complex) -> complex:
    """Constant value of d(phi)/dz1 on the line {tau} x D.

    On that line ptilde - alpha p vanishes identically, so the quotient rule
    collapses to (d(ptilde)/dz1 - alpha d(p)/dz1) / p; the result must not
    depend on z2, which is checked at two separated test points.
    """
    sc = max(p.scale(), 1e-300)
    vals = []
    for z2 in _LINE_POINTS:
        den = p.eval(tau, z2)
        if abs(den) <= 1e-3 * sc:
            continue
        num = pt.eval_dz1(tau, z2) - alpha * p.eval_dz1(tau, z2)
        vals.append(num / den)
        if len(vals) == 2:
            break
    if len(vals) < 2:
        raise NumericError("could not find safe test points on the line")
    if abs(vals[0] - vals[1]) > 1e-6 * max(1.0, abs(vals[0])):
        raise NumericError(
            "line derivative is not constant",
            residual=abs(vals[0] - vals[1]),
        )
    return complex((vals[0] + vals[1]) / 2.0)


def _detect_singularities(p: BiPolyN1, pt: BiPolyN1, t: TrigPoly) -> tuple:
    if t.is_zero:
        raise DomainError("degenerate: |p1| = |p2| on the whole circle")
    sc = max(p.scale(), 1e-300)
    sings = []
    for tau, mult in t.circle_zeros():
        if mult % 2:
            raise NumericError("odd-order boundary contact; t must be nonnegative")
        p2v = p.p2(tau)
        if abs(p2v) <= 1e-8 * sc:
            raise DomainError("degenerate: p1 and p2 vanish together on the circle")
        lam = -p.p1(tau) / p2v
        if abs(abs(lam) - 1.0) > 1e-6:
            raise NumericError("boundary zero with a non-unimodular second coordinate")
        lam /= abs(lam)
        alpha = pt.p2(tau) / p2v
        if abs(abs(alpha) - 1.0) > 1e-6:
            raise NumericError("boundary value of phi is not unimodular")
        alpha /= abs(alpha)
        deriv = _line_derivative(p, pt, tau, alpha)
        sings.append(Singularity(complex(tau), lam, alpha, deriv, int(mult)))
    if len(sings) > p.n:
        raise NumericError("more boundary zeros than the degree allows")
    sings.sort(key=lambda s: math.atan2(s.tau.imag, s.tau.real) % (2.0 * math.pi))
    return tuple(sings)


def validate(p: BiPolyN1) -> Rif:
    """Check stability and coprimality and assemble the inner function.

    Raises DomainError with a reason ("not stable: ..." or "not coprime:
    ...") when p does not define a rational inner function of the supported
    shape.  On success returns a Rif carrying the reflection, the sorted
    singularity list, phi(0, 0) and the boundary polynomial t.
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
    sings = _detect_singularities(p, pt, t)
    phi0 = pt.p1(0.0) / p.p1(0.0)
    return Rif(p, pt, sings, complex(phi0), t)


def phi_eval(rif: Rif, z) -> complex:
    """phi at a point of the closed bidisk.

    Raises DomainError at zeros of p (the boundary singularities and the
    poles on singular lines) and outside the closed bidisk.
    """
    z1, z2 = complex(z[0]), complex(z[1])
    if abs(z1) > 1.0 + 1e-12 or abs(z2) > 1.0 + 1e-12:
        raise DomainError("point outside the closed bidisk")
    den = rif.p.eval(z1, z2)
    sc = max(rif.p.scale(), 1e-300)
    if abs(den) <= 1e-12 * sc:
        raise DomainError("phi is evaluated at a zero of p")
    return complex(rif.ptilde.eval(z1, z2) / den)


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
