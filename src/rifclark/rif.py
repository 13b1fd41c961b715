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
from .polynomials import (
    DEFAULT_TOL,
    TrigPoly,
    UniPoly,
    cplx_from_json,
    cplx_to_json,
    roots,
)

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

    def to_json(self) -> dict:
        return {
            "tau": cplx_to_json(self.tau),
            "lambda": cplx_to_json(self.lam),
            "alpha": cplx_to_json(self.alpha),
            "deriv": cplx_to_json(self.deriv),
            "mult": self.mult,
        }

    @staticmethod
    def from_json(obj) -> "Singularity":
        return Singularity(
            cplx_from_json(obj["tau"]),
            cplx_from_json(obj["lambda"]),
            cplx_from_json(obj["alpha"]),
            cplx_from_json(obj["deriv"]),
            int(obj["mult"]),
        )


@dataclass(frozen=True)
class Rif:
    """A validated rational inner function phi = ptilde / p.

    Construct through validate(); the constructor does not re-run the
    stability analysis.  pt1 and pt2 name the reflection parts so that
    ptilde = pt2 + z2 * pt1 mirrors p = p1 + z2 * p2.
    """

    p: BiPolyN1
    ptilde: BiPolyN1
    singularities: tuple
    phi_at_origin: complex
    _saturation: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

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

    def to_json(self) -> dict:
        return self.p.to_json()

    def saturated(self, tol: float = DEFAULT_TOL) -> bool:
        """is_saturated(self, tol), computed once per tolerance."""
        if tol not in self._saturation:
            self._saturation[tol] = is_saturated(self, tol)
        return self._saturation[tol]


def _disk_mesh(count: int = 257) -> np.ndarray:
    """Deterministic low-discrepancy mesh of the open unit disk."""
    i = np.arange(count)
    r = np.sqrt((i + 0.5) / count)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    theta = 2.0 * np.pi * i / golden
    return r * np.exp(1j * theta)


def _stability_violation(p: BiPolyN1, p1_roots: list) -> str | None:
    """None if stable, else a short reason string; p1_roots are the roots
    of p1 (empty when p1 is constant).

    Checks, in order: p1 zero free off the circle (zeros of p1 inside the
    disk are zeros of p at z2 = 0), no unimodular proportionality p1 = c p2
    (which would put a whole zero line on a face or inside), and the z2-root
    w = -p1/p2 staying outside the open disk on an interior mesh and a
    circle sample.
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
        if abs(abs(r) - 1.0) <= 1e-9:
            if abs(p2(r)) <= 1e-8 * sc:
                return "not coprime: simultaneous circle zero of p1 and p2"
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
    samples = np.concatenate(
        [_disk_mesh(), np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512)]
    )
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


def _coprime_violation(p: BiPolyN1, pt: BiPolyN1, p1_roots: list,
                       tol: float) -> str | None:
    """None if p and ptilde share no factor, else a reason string.

    A common factor is either all of p (ptilde a unimodular multiple of p)
    or a z1-only factor, which requires a common zero set of p1 and p2 that
    is closed under reflection through the circle.
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
    if p.p1.degree >= 1 and p.p2.degree >= 1 and not p.p2.is_zero:
        r1 = [r for r, _ in p1_roots]
        r2 = [r for r, _ in roots(p.p2, tol)]
        common = []
        for u in r1:
            for v in r2:
                if abs(u - v) <= 1e-6:
                    common.append((u + v) / 2.0)
        for u in common:
            for v in common:
                if abs(u) > 1e-9 and abs(v - 1.0 / np.conj(u)) <= 1e-6:
                    return "not coprime: common z1-only factor"
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


def _detect_singularities(p: BiPolyN1, pt: BiPolyN1, tol: float) -> tuple:
    t = TrigPoly.modulus_squared(p.p1) - TrigPoly.modulus_squared(p.p2)
    if t.is_zero:
        raise DomainError("degenerate: |p1| = |p2| on the whole circle")
    sc = max(p.scale(), 1e-300)
    sings = []
    for tau, mult in t.circle_zeros(tol):
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


def validate(p: BiPolyN1, tol: float = DEFAULT_TOL) -> Rif:
    """Check stability and coprimality and assemble the inner function.

    Raises DomainError with a reason ("not stable: ..." or "not coprime:
    ...") when p does not define a rational inner function of the supported
    shape.  On success returns a Rif carrying the reflection, the sorted
    singularity list, and phi(0, 0).
    """
    p1_roots = roots(p.p1, tol) if p.p1.degree >= 1 else []
    reason = _stability_violation(p, p1_roots)
    if reason is not None:
        raise DomainError(reason)
    pt = reflect(p)
    reason = _coprime_violation(p, pt, p1_roots, tol)
    if reason is not None:
        raise DomainError(reason)
    sings = _detect_singularities(p, pt, tol)
    phi0 = pt.p1(0.0) / p.p1(0.0)
    return Rif(p, pt, sings, complex(phi0))


def validation_report(p: BiPolyN1, tol: float = DEFAULT_TOL) -> dict:
    """JSON-ready summary of validate(): stability, coprimality, and the
    singularity list, or the failure reason."""
    try:
        rif = validate(p, tol)
    except (DomainError, NumericError) as exc:
        msg = str(exc)
        return {
            "stable": not msg.startswith("not stable"),
            "coprime": not msg.startswith("not coprime"),
            "singularities": [],
            "error": msg,
        }
    return {
        "stable": True,
        "coprime": True,
        "singularities": [s.to_json() for s in rif.singularities],
        "error": None,
    }


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


def is_saturated(rif: Rif, tol: float = DEFAULT_TOL) -> bool:
    """Whether the z2-resultant of p and ptilde has degree exactly 2n with
    every root on the unit circle.

    The resultant of the pencil is p2 * pt2 - p1 * pt1, and on the circle it
    equals -z1**n (|p1|^2 - |p2|^2), so its roots split into the boundary
    zeros tau_k (with their even multiplicities) and mirror pairs across the
    circle.  Requires p to have full bidegree (n, 1).
    """
    n = rif.n
    if rif.p2.is_zero:
        raise DomainError("saturation needs z2-degree exactly 1")
    if max(rif.p1.degree, rif.p2.degree) != n:
        raise DomainError("saturation needs z1-degree exactly n")
    res = rif.p2 * rif.pt2 - rif.p1 * rif.pt1
    if res.is_zero:
        raise NumericError("resultant vanished identically")
    sc = res.scale()
    if res.degree != 2 * n or abs(res.coeffs[-1]) <= 1e-12 * sc:
        return False
    t = TrigPoly(-res.padded(2 * n + 1), n)
    if t.hermitian_defect() > 1e-9 * sc:
        raise NumericError("resultant is not circle-symmetric")
    total = sum(m for _, m in t.circle_zeros(tol))
    return total == 2 * n
