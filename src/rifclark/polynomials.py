"""Univariate polynomial engine: root finding with multiplicities, Laurent
trigonometric polynomials on the unit circle, spectral (Fejer-Riesz)
factorization, and finite Blaschke products.

Conventions used across the package:

* ``UniPoly`` coefficients are ascending, ``coeffs[k]`` multiplies ``z**k``.
* Complex scalars serialize to JSON as two-element arrays ``[re, im]``.
* One tolerance, ``TOL = 1e-8``, bounds root residuals and coefficient
  identities; callers pass none.  A root is on the circle when
  ``abs(abs(z) - 1) <= TOL``.

The root finder is a simultaneous Aberth-Ehrlich iteration with a companion
matrix fallback, certified by backward-stable residuals.  Its iterates start
on the circles of the Newton polygon of the coefficients, one circle per
hull edge, so the two rings of roots of a boundary polynomial
|p1|^2 - |p2|^2 take about 17 sweeps at every degree, where one starting
circle took 26 to 48, rising with the degree.  Each sweep evaluates p, p'
and the residual scale at all live iterates at once from a power table;
iterates outside the unit disk go through the reversed polynomial at 1/z,
so no power exceeds 1, and roots that pass the residual test are frozen;
Newton steps in extended precision then polish each root that is not part
of a cluster.  blaschke_from_rational finds the roots of the numerator
only: the denominator must be a unimodular multiple of the numerator's
reflection, which it certifies on the coefficients.  Structurally
multiple roots on the unit circle are a core case here: boundary zeros of
nonnegative trigonometric polynomials always have even order, and a 2m-fold
root scatters under coefficient roundoff into a cluster of radius roughly
eps**(1/(2m)), about 1.5e-4 for a quadruple root.  That is far wider than the
accuracy of simple roots, so circle-zero extraction classifies roots inside a
generous band around the circle, clusters them by angle, polishes each
cluster with a Newton step on an angular derivative, and only then certifies
the zero and its multiplicity, retrying a cluster that fails on its members
nearest the circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError

# Relative bound of root residuals and coefficient identities, and the
# distance from the circle within which a root counts as on it.
TOL = 1e-8
# Two roots closer than this are reported as one root with multiplicity.
CLUSTER_RADIUS = 1e-6
# Circle-zero candidates within this angle of one another form one cluster.
CIRCLE_BAND = 1e-3
# Roots within this distance of the unit circle in modulus are circle-zero
# candidates: a multiple circle zero can scatter further off the circle in
# modulus than in angle.
_CANDIDATE_BAND = 1e-2
# A candidate circle zero must drive its first m angular derivatives below
# this relative threshold to be certified; genuine zeros land near machine
# precision while near-circle mirror pairs stall around 1e-8.
_CERT_REL = 1e-10
# A trig polynomial's band shrinks while both extreme coefficients are below
# this relative size (TrigPoly.as_poly).
_LEAD_TRIM = 1e-13
_CERT_NODES = 512
_EPS = float(np.finfo(float).eps)


def cplx_to_json(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def cplx_from_json(v) -> complex:
    return complex(float(v[0]), float(v[1]))


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z, dtype=complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _fft_values(coeffs: np.ndarray, low: int, count: int, half: bool = False) -> np.ndarray:
    """sum_i coeffs[i] * zeta**(low + i) at the count nodes
    zeta_j = exp(2 pi i (j + s) / count), s = 1/2 if half else 0, by one FFT.

    Powers are folded modulo count first, so any count >= 1 works; half
    rotates the coefficients instead of the nodes.
    """
    count = int(count)
    if count < 1:
        raise DomainError("node count must be positive")
    c = np.asarray(coeffs, dtype=complex)
    if half:
        c = c * np.exp(1j * np.pi * np.arange(low, low + c.size) / count)
    folded = np.zeros(-(-c.size // count) * count, dtype=complex)
    folded[: c.size] = c
    folded = folded.reshape(-1, count).sum(axis=0)
    return np.fft.ifft(np.roll(folded, low), norm="forward")


class UniPoly:
    """Dense univariate polynomial with complex coefficients.

    Coefficients are ascending.  Trailing exactly-zero coefficients are
    trimmed on construction so the degree can be read off the array length;
    the zero polynomial keeps an empty array and reports degree ``-inf``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        nz = np.flatnonzero(c)
        if nz.size:
            self.coeffs = c[: nz[-1] + 1].copy()
        else:
            self.coeffs = np.zeros(0, dtype=complex)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs.size else -math.inf

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = _horner(self.coeffs, zz)
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def node_values(self, count: int) -> np.ndarray:
        """Values at the count-th roots of unity, by one FFT."""
        return _fft_values(self.coeffs, 0, count)

    def derivative(self) -> "UniPoly":
        if self.coeffs.size <= 1:
            return UniPoly([])
        k = np.arange(1, self.coeffs.size)
        return UniPoly(self.coeffs[1:] * k)

    def conj_reflect(self, n: int) -> "UniPoly":
        """z**n * conj(self(1 / conj(z))), the degree-n reflection.

        Requires deg <= n; lower-degree input pads with zeros, so the
        reflection can raise the degree (a zero constant term reflects to a
        zero leading term and is trimmed back on reconstruction).
        """
        if self.degree > n:
            raise DomainError("reflection order smaller than the degree")
        padded = np.zeros(n + 1, dtype=complex)
        padded[: self.coeffs.size] = self.coeffs
        return UniPoly(np.conj(padded[::-1]))

    def deflate(self, root) -> tuple["UniPoly", complex]:
        """Synthetic division by (z - root); returns (quotient, remainder)."""
        if self.is_zero:
            return UniPoly([]), 0j
        r = complex(root)
        n = self.coeffs.size - 1
        q = np.empty(n, dtype=complex)
        acc = 0j
        for k in range(n, 0, -1):
            acc = self.coeffs[k] + acc * r
            q[k - 1] = acc
        rem = self.coeffs[0] + acc * r
        return UniPoly(q), complex(rem)

    @staticmethod
    def from_roots(roots_list, leading=1.0) -> "UniPoly":
        c = np.array([complex(leading)], dtype=complex)
        for r in roots_list:
            c = np.convolve(c, np.array([-complex(r), 1.0], dtype=complex))
        return UniPoly(c)

    def padded(self, length: int) -> np.ndarray:
        """Coefficient array extended with zeros to the requested length."""
        if self.coeffs.size > length:
            raise DomainError("padding length smaller than the coefficient count")
        out = np.zeros(length, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return out

    def __add__(self, other):
        other = other if isinstance(other, UniPoly) else UniPoly([complex(other)])
        n = max(self.coeffs.size, other.coeffs.size, 1)
        return UniPoly(self.padded(n) + other.padded(n))

    def __sub__(self, other):
        other = other if isinstance(other, UniPoly) else UniPoly([complex(other)])
        n = max(self.coeffs.size, other.coeffs.size, 1)
        return UniPoly(self.padded(n) - other.padded(n))

    def __neg__(self):
        return UniPoly(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly([])
            return UniPoly(np.convolve(self.coeffs, other.coeffs))
        return UniPoly(self.coeffs * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"UniPoly({np.round(self.coeffs, 12).tolist()})"

    def to_json(self) -> dict:
        return {"coeffs": [cplx_to_json(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "UniPoly":
        return UniPoly([cplx_from_json(v) for v in obj["coeffs"]])


def _cluster_members(points, radius: float) -> list[list[int]]:
    """Greedy clustering by centroid distance, as lists of indices into
    points; deterministic via sorting."""
    pts = [complex(p) for p in points]
    order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
    if len(pts) > 1:
        # the usual case, every point farther than radius from every other,
        # gives singletons; skip the quadratic Python loop for it
        arr = np.array(pts)
        gaps = np.abs(arr[:, None] - arr[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > radius:
            return [[i] for i in order]
    clusters: list[list[int]] = []
    centroids: list[complex] = []
    for i in order:
        p = pts[i]
        best, best_d = -1, radius
        for j, c in enumerate(centroids):
            d = abs(p - c)
            if d <= best_d:
                best, best_d = j, d
        if best >= 0:
            clusters[best].append(i)
            centroids[best] = sum(pts[k] for k in clusters[best]) / len(clusters[best])
        else:
            clusters.append([i])
            centroids.append(p)
    return clusters


def _eval_tables(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient columns for _eval_scaled.

    The complex table holds c, k*c and their reversals, so one matrix
    product against a power table gives p(z) and z*p'(z), or, at y = 1/z,
    the reversed R(y) = y**n p(1/y) and n*R(y) - y*R'(y).  The real table
    holds |c| and its reversal for the backward-error scale.
    """
    kc = np.arange(len(c)) * c
    ac = np.abs(c)
    return np.stack([c, kc, c[::-1], kc[::-1]], axis=1), np.stack([ac, ac[::-1]], axis=1)


def _eval_scaled(tables: tuple[np.ndarray, np.ndarray], z: np.ndarray):
    """(value, slope, scale) of p at every point of z at once.

    Points inside the closed disk are evaluated directly: value p(z), slope
    z*p'(z), scale sum |c_k| |z|**k.  Points outside are evaluated through
    the reversed polynomial at y = 1/z, which divides all three by z**n (in
    modulus, for the scale), so no power exceeds 1 and nothing overflows.
    Either way value / scale is the backward-error residual of p at z, and
    z * value / slope is the Newton correction p(z) / p'(z).
    """
    coef, acoef = tables
    az = np.abs(z)
    outside = az > 1.0
    y, ay = z, az
    if outside.any():
        y = np.where(outside, 1.0 / np.where(outside, z, 1.0), z)
        ay = np.abs(y)
    pw = np.empty((z.size, coef.shape[0]), dtype=coef.dtype)
    pw[:, 0] = 1.0
    pw[:, 1:] = y[:, None]
    np.multiply.accumulate(pw, axis=1, out=pw)
    apw = np.empty(pw.shape, dtype=acoef.dtype)
    apw[:, 0] = 1.0
    apw[:, 1:] = ay[:, None]
    np.multiply.accumulate(apw, axis=1, out=apw)
    v = pw @ coef
    b = apw @ acoef
    return (np.where(outside, v[:, 2], v[:, 0]),
            np.where(outside, v[:, 3], v[:, 1]),
            np.where(outside, b[:, 1], b[:, 0]))


def _newton_polygon_start(c: np.ndarray) -> np.ndarray:
    """Bini's starting points for Aberth, from the Newton polygon of c.

    The upper convex hull of the points (k, log|c_k|), zero coefficients
    skipped, splits the degree into edges; an edge from k1 to k2 gets
    k2 - k1 evenly spaced points on the circle of radius
    (|c_k1| / |c_k2|)**(1 / (k2 - k1)), clipped to [0.2, 4], turned by
    k1 / n of a full turn.  A polynomial with a single edge starts on one
    circle of radius |c_0 / c_n|**(1 / n).  (Bini, "Numerical computation
    of polynomial zeros by means of Aberth's method", Numer. Algorithms 13,
    1996.)  Assumes c[0] != 0 and c[-1] != 0.
    """
    n = len(c) - 1
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c)).tolist()
    # hull vertices (k, log|c_k|, slope of the edge that ends at k)
    hull = [(0, logs[0], math.inf)]
    for k in range(1, n + 1):
        y = logs[k]
        if y == -math.inf:
            continue
        k0, y0, s0 = hull[-1]
        s = (y - y0) / (k - k0)
        # the last vertex lies on or below the chord to k: drop it
        while s >= s0:
            hull.pop()
            k0, y0, s0 = hull[-1]
            s = (y - y0) / (k - k0)
        hull.append((k, y, s))
    z: list[complex] = []
    for (k1, _, _), (k2, _, s) in zip(hull, hull[1:]):
        m = k2 - k1
        r = min(max(math.exp(-s), 0.2), 4.0)
        turn = 0.41 + 2 * math.pi * k1 / n
        z += [cmath.rect(r, turn + 2 * math.pi * (j + 0.37) / m) for j in range(m)]
    return np.array(z)


def _aberth(c: np.ndarray) -> np.ndarray:
    """Simultaneous Aberth-Ehrlich iteration on ascending coefficients.

    Assumes c[0] != 0 and c[-1] != 0.  The iterates start from the Newton
    polygon of c (_newton_polygon_start), so roots on rings of different
    radii, such as the mirror pairs of a boundary polynomial, start near
    their own ring: on generated boundary polynomials of degree 32 to 256
    that takes 16 to 18 sweeps, where one starting circle took 26 to 48.
    Multiple roots converge linearly to a cluster whose residuals hit the
    backward-stable floor, which is all the caller needs; no deflation is
    performed.  The residual test depends only on a root's own iterate, so
    a root that passes it is frozen: later sweeps evaluate and update the
    remaining roots only, though their Aberth sums still run over every
    iterate.
    """
    n = len(c) - 1
    z = _newton_polygon_start(c)
    floor = 8.0 * _EPS * (n + 1)
    tables = _eval_tables(c)
    active = np.arange(n)
    for _ in range(600):
        za = z[active]
        val, slope, scale = _eval_scaled(tables, za)
        live = ~(np.abs(val) <= floor * scale)
        if not live.all():
            active, za, val, slope = active[live], za[live], val[live], slope[live]
            if not active.size:
                break
        w = np.where(slope == 0, 0.1 + 0.1j, za * val / np.where(slope == 0, 1.0, slope))
        diff = za[:, None] - z[None, :]
        diff[np.arange(active.size), active] = np.inf
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        step = np.where(np.abs(denom) < 1e-12, w, w / np.where(denom == 0, 1.0, denom))
        z[active] = za - step
        if float(np.abs(step).max()) <= 1e-16 * (1.0 + float(np.abs(z).max())):
            break
    return z


def _polish_lone(c: np.ndarray, z: np.ndarray, radius: float) -> np.ndarray:
    """Up to three Newton steps at every root farther than radius from all
    others, each kept only where it lowers that root's backward error.

    Aberth freezes a root once its residual reaches the floor, which can
    leave an ill-conditioned simple root's forward error far above what its
    condition allows.  The steps evaluate p in extended precision
    (numpy.clongdouble, which is plain double on platforms without it),
    through _eval_scaled so that roots outside the disk go through 1/z; then
    the roots of a polynomial with a wide coefficient span come out accurate
    enough that their product reproduces p.  A root never moves by half the
    distance to its nearest neighbour, so two roots cannot meet, and
    clusters are left alone: a Newton step would split a multiple root.
    """
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    nearest = gaps.min(axis=1)
    lone = np.flatnonzero(nearest > radius)
    if not lone.size:
        return z
    tables = _eval_tables(c.astype(np.clongdouble))
    zl = z[lone].astype(np.clongdouble)
    val, slope, scale = _eval_scaled(tables, zl)
    resid = np.abs(val) / scale
    reach = 0.5 * nearest[lone]
    live = np.arange(lone.size)
    # a step that overflows gives a NaN residual and is not kept
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(3):
            step = zl[live] * val[live] / slope[live]
            # steps below the double resolution of the root change nothing
            moving = np.abs(step) > _EPS * np.abs(zl[live])
            live, step = live[moving], step[moving]
            if not live.size:
                break
            new = zl[live] - step
            val2, slope2, scale2 = _eval_scaled(tables, new)
            resid2 = np.abs(val2) / scale2
            keep = (resid2 < resid[live]) & (np.abs(new - z[lone[live]]) < reach[live])
            live = live[keep]
            zl[live], val[live], slope[live], resid[live] = (
                new[keep], val2[keep], slope2[keep], resid2[keep])
    out = z.copy()
    out[lone] = zl.astype(complex)
    return out


def roots(p, cluster_radius: float = CLUSTER_RADIUS) -> list[tuple[complex, int]]:
    """All roots of p as (root, multiplicity) pairs, sorted by (re, im).

    Roots closer than cluster_radius merge into one entry whose location is
    the cluster centroid.  Every reported root r is certified against the
    backward-stable residual bound |p(r)| <= TOL * sum |c_k||r|^k;
    if the primary iteration cannot certify, a companion-matrix fallback is
    tried, and failure of both raises NumericError.  Non-finite coefficients
    raise DomainError.
    """
    q = p if isinstance(p, UniPoly) else UniPoly(p)
    if q.is_zero:
        raise DomainError("the zero polynomial has no well-defined root set")
    c = q.coeffs
    if not np.isfinite(c).all():
        raise DomainError("polynomial coefficients must be finite")
    if len(c) == 1:
        return []
    out: list[tuple[complex, int]] = []
    k0 = 0
    while k0 < len(c) - 1 and c[k0] == 0:
        k0 += 1
    if k0:
        out.append((0j, k0))
        c = c[k0:]
    if len(c) > 1:
        tables = _eval_tables(c)

        def _certify(cands):
            cands = _polish_lone(c, np.asarray(cands, dtype=complex), cluster_radius).tolist()
            clusters = _cluster_members(cands, cluster_radius)
            centres = np.array([sum(cands[i] for i in idx) / len(idx) for idx in clusters])
            val, _, scale = _eval_scaled(tables, centres)
            worst = float(np.max(np.abs(val) / np.maximum(scale, 1e-300)))
            return [(complex(r), len(idx)) for r, idx in zip(centres, clusters)], worst

        found, worst = _certify(_aberth(c))
        if not worst <= TOL:
            found, worst = _certify(np.roots(c[::-1]))
            if not worst <= TOL:
                raise NumericError("root finding did not converge", residual=worst)
        out.extend(found)
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _roots_if_any(p: UniPoly) -> list[tuple[complex, int]]:
    return roots(p) if p.degree >= 1 else []


def _circle_matches(ra, rb) -> list[complex]:
    """Points on the unit circle (within TOL) that appear in both root lists."""
    ra = [r for r, _ in ra if abs(abs(r) - 1.0) <= TOL]
    rb = [r for r, _ in rb if abs(abs(r) - 1.0) <= TOL]
    hits = []
    for u in ra:
        for v in rb:
            if abs(u - v) <= 1e-6:
                g = (u + v) / 2.0
                hits.append(g / abs(g))
    out: list[complex] = []
    for idx in _cluster_members(hits, 1e-9):
        g = sum(hits[i] for i in idx) / len(idx)
        out.append(g / abs(g))
    out.sort(key=lambda w: (w.real, w.imag))
    return out


def cancel_common_unimodular(num, den):
    """Deflate every common circle zero out of the pair.

    Returns (num_reduced, den_reduced, cancelled_points); repeated common
    zeros are removed one layer per pass until none remain.  A deflation
    remainder above 1e-6 of the coefficient scale raises NumericError since
    it means the claimed common zero was not actually a zero.
    """
    num = num if isinstance(num, UniPoly) else UniPoly(num)
    den = den if isinstance(den, UniPoly) else UniPoly(den)
    cancelled: list[complex] = []
    # terminates: every pass that finds a common zero lowers both degrees
    while True:
        common = _circle_matches(_roots_if_any(num), _roots_if_any(den))
        if not common:
            break
        for g in common:
            sc = max(num.scale(), den.scale(), 1e-300)
            num2, rn = num.deflate(g)
            den2, rd = den.deflate(g)
            if max(abs(rn), abs(rd)) > 1e-6 * sc:
                raise NumericError(
                    "cancellation left a large remainder",
                    residual=max(abs(rn), abs(rd)) / sc,
                )
            num, den = num2, den2
            cancelled.append(g)
    cancelled.sort(key=lambda w: (w.real, w.imag))
    return num, den, cancelled


class TrigPoly:
    """Laurent trigonometric polynomial t(zeta) = sum_{|k| <= d} c_k zeta^k.

    Stored densely with ``coeffs[k + d]`` multiplying ``zeta**k``.  Negative
    powers evaluate through 1/zeta, so evaluation is defined off the circle
    as the Laurent extension.  Hermitian symmetry (c_{-k} = conj(c_k)) makes
    t real on the circle; ``modulus_squared`` guarantees it and consumers
    that need it check ``hermitian_defect``.
    """

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs, d: int | None = None):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        if d is None:
            if c.size % 2 == 0:
                raise DomainError("even coefficient count needs an explicit band")
            d = (c.size - 1) // 2
        if c.size != 2 * d + 1:
            raise DomainError("coefficient count does not match the band")
        self.coeffs = c.copy()
        self.d = int(d)

    @staticmethod
    def modulus_squared(p: UniPoly) -> "TrigPoly":
        """|p(zeta)|^2 on the circle, via coefficient autocorrelation."""
        a = p.coeffs
        if a.size == 0:
            return TrigPoly([0.0], 0)
        d = a.size - 1
        c = np.convolve(a, np.conj(a[::-1]))
        # exact Hermitian symmetry: mirror the nonnegative lags
        c[:d] = np.conj(c[:d:-1])
        c[d] = c[d].real
        return TrigPoly(c, d)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1]))))

    def eval(self, zeta):
        zz = np.asarray(zeta, dtype=complex)
        pos = _horner(self.coeffs[self.d:], zz)
        if self.d:
            w = 1.0 / zz
            neg_coeffs = np.concatenate(([0.0], self.coeffs[: self.d][::-1]))
            neg = _horner(neg_coeffs, w)
        else:
            neg = 0.0
        out = pos + neg
        if np.ndim(zeta) == 0:
            return complex(out)
        return out

    __call__ = eval

    def node_values(self, count: int, half: bool = False) -> np.ndarray:
        """Values at the count-th roots of unity, or, with half, at those
        roots turned by half a spacing, by one FFT."""
        return _fft_values(self.coeffs, -self.d, count, half)

    def theta_eval(self, theta: float, order: int = 0) -> complex:
        """order-th derivative of theta |-> t(e^{i theta}) at a single angle."""
        k = np.arange(-self.d, self.d + 1)
        fac = (1j * k) ** order if order else np.ones_like(k, dtype=complex)
        return complex(np.sum(self.coeffs * fac * np.exp(1j * k * theta)))

    def derivative_scale(self, order: int) -> float:
        """sup bound sum |c_k| |k|^order for the order-th angular derivative."""
        k = np.abs(np.arange(-self.d, self.d + 1)).astype(float)
        fac = k ** order if order else np.ones_like(k)
        return float(np.sum(np.abs(self.coeffs) * fac))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = max(self.d, other.d)
        a = np.zeros(2 * d + 1, dtype=complex)
        b = np.zeros(2 * d + 1, dtype=complex)
        a[d - self.d: d + self.d + 1] = self.coeffs
        b[d - other.d: d + other.d + 1] = other.coeffs
        return TrigPoly(a + b, d)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "TrigPoly":
        return TrigPoly(self.coeffs * complex(scalar), self.d)

    __rmul__ = __mul__

    def as_poly(self) -> tuple[UniPoly, int]:
        """(P, d_eff) with P(z) = z**d_eff * t(z) after symmetric band trim.

        Both extreme coefficients must be negligible to shrink the band, so
        P keeps degree exactly 2 * d_eff with nonzero ends (unless t = 0).
        """
        m = self.scale()
        if m == 0.0:
            return UniPoly([]), 0
        d_eff = self.d
        while d_eff > 0:
            hi = abs(self.coeffs[self.d + d_eff])
            lo = abs(self.coeffs[self.d - d_eff])
            if hi <= _LEAD_TRIM * m and lo <= _LEAD_TRIM * m:
                d_eff -= 1
            else:
                break
        return UniPoly(self.coeffs[self.d - d_eff: self.d + d_eff + 1]), d_eff

    def divide_circle_factor(self, tau) -> "TrigPoly":
        """Exact division by |zeta - tau|^2 for unimodular tau.

        For |z| = 1, z * |z - tau|^2 = -conj(tau) * (z - tau)^2, so dividing
        shifts the band down by one and amounts to deflating z**d * t(z)
        twice at tau and rescaling by -tau.  Nonnegligible deflation
        remainders mean the factor does not divide and raise NumericError.
        """
        t = complex(tau)
        if abs(abs(t) - 1.0) > 1e-6:
            raise DomainError("division point must lie on the unit circle")
        if self.d < 1:
            raise DomainError("band too small to divide by a circle factor")
        full = UniPoly(self.coeffs)
        sc = max(self.scale(), 1e-300)
        q1, r1 = full.deflate(t)
        q2, r2 = q1.deflate(t)
        worst = max(abs(r1), abs(r2))
        if worst > 1e-7 * sc * (self.d + 1):
            raise NumericError("circle factor does not divide", residual=worst / sc)
        s = (-t) * q2
        arr = np.zeros(2 * (self.d - 1) + 1, dtype=complex)
        arr[: s.coeffs.size] = s.coeffs
        arr = 0.5 * (arr + np.conj(arr[::-1]))
        return TrigPoly(arr, self.d - 1)

    def circle_zeros(self) -> list[tuple[complex, int]]:
        """Certified zeros of t on the unit circle with multiplicities."""
        circle, _ = _split_circle_roots(self)
        return circle

    def to_json(self) -> dict:
        return {"d": self.d, "coeffs": [cplx_to_json(c) for c in self.coeffs]}


def _polish_circle_zero(t: TrigPoly, theta0: float, m: int) -> float | None:
    """Newton refinement of a candidate order-m circle zero of t.

    Iterates on the (m-1)-th angular derivative, whose zero at the cluster
    center is simple.  Returns the refined angle, or None if the iteration
    runs away from the cluster (the candidate was not a circle zero).
    """
    th = float(theta0)
    for _ in range(60):
        h = t.theta_eval(th, m - 1).real
        hp = t.theta_eval(th, m).real
        if hp == 0.0:
            break
        step = h / hp
        th -= step
        if abs(step) <= 1e-15:
            break
        if abs(th - theta0) > 2 * CIRCLE_BAND + 0.01:
            return None
    return th


def _certify_circle_zero(t: TrigPoly, members: list[complex]) -> complex | None:
    """The circle zero of order m = len(members) that the roots in members
    scatter around, or None if t's first m angular derivatives do not all
    reach the machine floor there."""
    m = len(members)
    center = sum(r / abs(r) for r in members) / m
    theta = _polish_circle_zero(t, math.atan2(center.imag, center.real), m)
    if theta is None:
        return None
    for j in range(m):
        if abs(t.theta_eval(theta, j)) > _CERT_REL * max(t.derivative_scale(j), 1.0):
            return None
    return complex(math.cos(theta), math.sin(theta))


def _split_circle_roots(t: TrigPoly):
    """(certified circle zeros, remaining roots) of z**d_eff * t(z).

    Roots within _CANDIDATE_BAND of the circle in modulus are clustered by
    the angle of their unit projections, within CIRCLE_BAND; each cluster
    is polished and certified by driving the first m angular derivatives to
    the machine floor.  A cluster that fails at size m is retried on its
    m - 1, ..., 1 members nearest the circle, the rest going back to the
    plain roots; one that fails at every size (for example a mirror pair of
    off-circle roots straddling the circle) is demoted whole.  Demoted roots
    keep their computed values, so the caller can classify them by modulus.
    """
    if t.hermitian_defect() > 1e-9 * max(1.0, t.scale()):
        raise DomainError("not real on the circle")
    P, d_eff = t.as_poly()
    if d_eff == 0 or P.degree < 1:
        return [], []
    flat: list[complex] = []
    for r, mult in roots(P, cluster_radius=1e-12):
        flat.extend([r] * mult)
    near = [r for r in flat if abs(abs(r) - 1.0) <= _CANDIDATE_BAND]
    far = [r for r in flat if abs(abs(r) - 1.0) > _CANDIDATE_BAND]
    circle: list[tuple[complex, int]] = []
    # members are keyed by index: a mirror pair has one projection for both
    for idx in _cluster_members([r / abs(r) for r in near], CIRCLE_BAND):
        members = sorted((near[i] for i in idx), key=lambda r: abs(abs(r) - 1.0))
        for m in range(len(members), 0, -1):
            tau = _certify_circle_zero(t, members[:m])
            if tau is not None:
                circle.append((tau, m))
                far.extend(members[m:])
                break
        else:
            far.extend(members)
    circle.sort(key=lambda zm: math.atan2(zm[0].imag, zm[0].real) % (2 * math.pi))
    return circle, far


def fejer_riesz(t: TrigPoly) -> UniPoly:
    """Spectral factor Q with |Q(zeta)|^2 = t(zeta) on the unit circle.

    Requires t real and nonnegative on the circle.  Q collects the strictly
    inside roots of z**d * t(z) plus half of each (necessarily even-order)
    circle zero; the leading coefficient is normalized positive real, its
    square fixed by Parseval's identity (the mean of |Q|^2 on the circle is
    t's constant coefficient).  The factorization is certified against t
    on a node grid before returning.
    """
    if t.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    sc = t.scale()
    if t.hermitian_defect() > TOL * sc:
        raise DomainError("not real on the circle")
    tv = t.node_values(_CERT_NODES).real
    tmax = max(float(np.abs(tv).max()), 1e-300)
    if float(tv.min()) < -TOL * max(1.0, tmax):
        raise DomainError("negative on the circle")
    P, d_eff = t.as_poly()
    if d_eff == 0:
        c0 = float(t.coeffs[t.d].real)
        if c0 <= 0.0:
            raise DomainError("negative on the circle")
        return UniPoly([math.sqrt(c0)])
    circle, far = _split_circle_roots(t)
    for _, m in circle:
        if m % 2:
            raise NumericError("odd-order circle zero in a nonnegative trig polynomial")
    inside = sorted((r for r in far if abs(r) < 1.0), key=lambda w: (w.real, w.imag))
    half = sum(m // 2 for _, m in circle)
    if 2 * len(inside) != len(far) or len(inside) + half != d_eff:
        raise NumericError("root pairing across the circle failed")
    q_roots = list(inside)
    for tau, m in circle:
        q_roots.extend([tau] * (m // 2))
    q0 = UniPoly.from_roots(q_roots, 1.0)
    # Parseval: the mean of |Q|^2 on the circle is both t's constant
    # coefficient and amp2 times the sum of |q0_k|^2
    amp2 = float(t.coeffs[t.d].real) / float(np.sum(np.abs(q0.coeffs) ** 2))
    if not amp2 > 0.0:
        raise NumericError("spectral factor amplitude is not positive")
    q = math.sqrt(amp2) * q0
    resid = float(np.max(np.abs(np.abs(q.node_values(_CERT_NODES)) ** 2 - tv)))
    if resid > TOL * max(1.0, tmax):
        raise NumericError("factorization certificate failed", residual=resid)
    return q


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product gamma * prod (z - a) / (1 - conj(a) z).

    The constant is unimodular (projected on construction, rejected if off
    by more than 1e-6) and every zero lies strictly inside the open disk.
    """

    constant: complex
    zeros: tuple = field(default=())

    def __post_init__(self):
        g = complex(self.constant)
        if abs(abs(g) - 1.0) > 1e-6:
            raise DomainError("Blaschke constant must be unimodular")
        object.__setattr__(self, "constant", g / abs(g))
        zs = tuple(complex(a) for a in self.zeros)
        for a in zs:
            if abs(a) >= 1.0:
                raise DomainError("Blaschke zero outside the open unit disk")
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def factors(self, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, D) = (prod (zeta - a), prod (1 - conj(a) zeta)) over the
        zeros, in one in-place pass; B = constant * N / D.

        Meant for unimodular zeta, where |N| = |D| and neither product can
        overflow at the degrees handled here.
        """
        zz = np.asarray(zeta, dtype=complex)
        num = np.ones(zz.shape, dtype=complex)
        den = np.ones(zz.shape, dtype=complex)
        tmp = np.empty(zz.shape, dtype=complex)
        for a in self.zeros:
            np.subtract(zz, a, out=tmp)
            num *= tmp
            np.multiply(zz, -np.conj(a), out=tmp)
            tmp += 1.0
            den *= tmp
        return num, den

    def eval(self, z):
        num, den = self.factors(z)
        out = self.constant * num / den
        return complex(out) if np.ndim(z) == 0 else out

    __call__ = eval

    def to_json(self) -> dict:
        return {
            "constant": cplx_to_json(self.constant),
            "zeros": [cplx_to_json(a) for a in self.zeros],
        }


def blaschke_from_rational(num, den) -> BlaschkeProduct:
    """Blaschke product representing num/den after circle cancellation.

    num/den is a constant multiple of a Blaschke product exactly when den is
    a unimodular multiple c of the degree-m reflection num* of num, m the
    larger degree, with every zero of num in the closed disk.  That identity
    is certified on the coefficients, max |den - c num*| <= 4 TOL max |den|,
    and then num is root-found once: its zeros inside the disk are the
    zeros of the product, and a zero on the circle (within TOL) is a
    common zero of num and num*, which cancels and leaves the
    factor -tau in the constant.  A zero outside the disk, or deg num < m
    (which puts a zero of den at the origin), raises DomainError.
    """
    num = num if isinstance(num, UniPoly) else UniPoly(num)
    den = den if isinstance(den, UniPoly) else UniPoly(den)
    if num.is_zero or den.is_zero:
        raise DomainError("zero numerator or denominator")
    m = max(num.degree, den.degree)
    star = num.conj_reflect(m).padded(m + 1)
    dc = den.padded(m + 1)
    j = int(np.argmax(np.abs(dc)))
    c = dc[j] / star[j] if star[j] != 0 else 0j
    if not float(np.max(np.abs(dc - c * star))) <= 4 * TOL * abs(dc[j]):
        raise DomainError("denominator is not a multiple of the reflected numerator")
    if abs(abs(c) - 1.0) > 4 * TOL:
        raise DomainError("quotient constant is not unimodular")
    if num.degree < m:
        raise DomainError("denominator zero inside the closed disk")
    lead = num.coeffs[-1]
    gamma = lead / (c * np.conj(lead))
    zeros: list[complex] = []
    for r, mult in roots(num):
        if abs(abs(r) - 1.0) <= TOL:
            gamma *= (-r / abs(r)) ** mult
        elif abs(r) > 1.0:
            raise DomainError("numerator zero outside the closed disk")
        else:
            zeros.extend([r] * mult)
    # roots() sorts by (re, im), so the zeros come out sorted
    return BlaschkeProduct(gamma, tuple(zeros))
