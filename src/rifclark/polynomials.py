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
and the residual scale at all live iterates at once from one power table;
iterates outside the unit disk go through the reversed polynomial at 1/z,
so no power exceeds 1, and roots that pass the residual test are frozen;
Newton steps whose value of p is taken in extended precision then polish
each root that is not part of a cluster.  blaschke_from_rational finds the
roots of the numerator only: the denominator must be a unimodular multiple
of the numerator's reflection, which it certifies on the coefficients.
Structurally multiple roots on the unit circle are a core case here:
boundary zeros of nonnegative trigonometric polynomials always have even
order, and a 2m-fold root scatters under coefficient roundoff into a
cluster of radius roughly eps**(1/(2m)), about 1.5e-4 for a quadruple root.
That is far wider than the accuracy of simple roots, so circle-zero
extraction classifies roots inside a generous band around the circle,
clusters them by angle, polishes each cluster with a Newton step on an
angular derivative, and only then certifies the zero and its multiplicity,
retrying a cluster that fails on its members nearest the circle.

Every product over a list of zeros, lead * prod (x - r), is taken pointwise
by _zero_product, and every table of roots of unity comes from circle_nodes.
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
_CERT_NODES = 512
_EPS = float(np.finfo(float).eps)


def cplx_to_json(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def cplx_from_json(v) -> complex:
    return complex(float(v[0]), float(v[1]))


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * z**k at every point of z.

    A 0-d point is evaluated from one power table and one dot product, so
    the cost does not grow with one numpy call per coefficient; an array of
    points runs Horner's rule, since a power table for 2**19 nodes would
    take hundreds of MB.
    """
    if z.ndim == 0:
        return _power_table(z[None], coeffs.size)[0] @ coeffs
    out = np.zeros_like(z, dtype=complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _power_table(y: np.ndarray, size: int) -> np.ndarray:
    """Rows 1, y, y**2, ..., y**(size - 1), one row per point of y."""
    pw = np.empty((y.size, size), dtype=y.dtype)
    pw[:, :1] = 1.0
    pw[:, 1:] = y[:, None]
    np.multiply.accumulate(pw, axis=1, out=pw)
    return pw


_NODE_CACHE: dict[int, np.ndarray] = {}


def circle_nodes(count: int) -> np.ndarray:
    """The count-th roots of unity, cached; treat the array as read only."""
    count = int(count)
    if count < 1:
        raise DomainError("node count must be positive")
    nodes = _NODE_CACHE.get(count)
    if nodes is None:
        nodes = np.exp(2j * np.pi * np.arange(count) / count)
        nodes.setflags(write=False)
        _NODE_CACHE[count] = nodes
    return nodes


def _zero_product(points, zeros, lead=1.0) -> np.ndarray:
    """lead * prod (points - r) over the zeros r, in one in-place pass."""
    points = np.asarray(points, dtype=complex)
    out = np.full(points.shape, complex(lead))
    tmp = np.empty_like(out)
    for r in zeros:
        out *= np.subtract(points, r, out=tmp)
    return out


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
        """leading * prod (z - r): values at the N-th roots of unity, N the
        first power of two above the degree, and one FFT, so roundoff does
        not grow factor by factor as in a chain of convolutions."""
        r = np.asarray(roots_list, dtype=complex).ravel()
        vals = _zero_product(circle_nodes(1 << r.size.bit_length()), r, leading)
        return UniPoly(np.fft.fft(vals, norm="forward")[: r.size + 1])

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


def _nearest(z: np.ndarray) -> np.ndarray:
    """Each point's exact distance to its nearest other point (inf for a
    single point)."""
    gaps = np.abs(z[:, None] - z)
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=1)


def _cluster_members(points, radius: float) -> list[list[int]]:
    """Greedy clustering by centroid distance, as lists of indices into
    points; deterministic via sorting.  roots calls it only when two of its
    roots lie within radius (see _nearest)."""
    pts = [complex(p) for p in points]
    order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
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
    """Coefficient columns for _eval_scaled: c and k*c, and |c| for the
    backward-error scale."""
    return np.stack([c, np.arange(len(c)) * c], axis=1), np.abs(c)


def _flipped_powers(z: np.ndarray, size: int, dtype=complex) -> np.ndarray:
    """One row of powers per point of z, in dtype, n = size - 1: at a
    point inside the closed disk z**k in column k, and at a point outside
    it (1/z)**(n - k), so that no power exceeds 1."""
    outside = np.abs(z) > 1.0
    y = z.astype(dtype, copy=False)
    if not outside.any():
        return _power_table(y, size)
    y = y.copy()
    y[outside] = 1.0 / y[outside]
    pw = _power_table(y, size)
    pw[outside] = pw[outside, ::-1]
    return pw


def _scaled_values(tables: tuple[np.ndarray, np.ndarray], pw: np.ndarray):
    """(value, slope, scale) from a table of _flipped_powers: two matrix
    products, the scale as |power table| @ |c|."""
    coef, acoef = tables
    v = pw @ coef
    return v[:, 0], v[:, 1], np.abs(pw) @ acoef


def _eval_scaled(tables: tuple[np.ndarray, np.ndarray], z: np.ndarray):
    """(value, slope, scale) of p at every point of z at once.

    Points inside the closed disk are evaluated directly: value p(z), slope
    z*p'(z), scale sum |c_k| |z|**k.  Points outside are evaluated at
    y = 1/z through their reversed row of powers, which gives the reversed
    polynomial R(y) = y**n p(1/y) and n*R(y) - y*R'(y) from the same
    columns and divides all three by z**n (in modulus, for the scale), so
    no power exceeds 1 and nothing overflows.  Either way value / scale is
    the backward-error residual of p at z, and z * value / slope is the
    Newton correction p(z) / p'(z).  One power table and two matrix
    products give all three, with no select between two sets of columns.
    """
    return _scaled_values(tables, _flipped_powers(z, tables[1].size))


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
    iterate.  Each sweep makes one _eval_scaled call and about 35 numpy
    calls in all.  A zero slope (the iterate sits on a critical point) or a
    zero Aberth denominator makes the step non-finite; only then is the
    sweep's step formed again with the guards: a fixed nudge in place of
    the Newton correction at a zero slope, and the plain Newton step where
    the denominator is below 1e-12.
    """
    n = len(c) - 1
    z = _newton_polygon_start(c)
    floor = 8.0 * _EPS * (n + 1)
    tables = _eval_tables(c)
    active = rows = np.arange(n)
    # the live iterates, z[active], carried from sweep to sweep
    za = z.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(600):
            val, slope, scale = _eval_scaled(tables, za)
            live = ~(np.abs(val) <= floor * scale)
            if not live.all():
                active, za, val, slope = active[live], za[live], val[live], slope[live]
                if not active.size:
                    break
            w = za * val / slope
            inv = za[:, None] - z
            inv[rows[: active.size], active] = np.inf
            s = np.reciprocal(inv, out=inv).sum(axis=1)
            step = w / (1.0 - w * s)
            big = float(np.abs(step).max())
            if not math.isfinite(big):
                w = np.where(slope == 0, 0.1 + 0.1j, w)
                denom = 1.0 - w * s
                step = np.where(np.abs(denom) < 1e-12, w, w / denom)
                big = float(np.abs(step).max())
            za = za - step
            z[active] = za
            if big <= 1e-16 * (1.0 + float(np.abs(z).max())):
                break
    return z


def _eval_extended(cl: np.ndarray, tables, z: np.ndarray):
    """(value, slope, scale) of p at every point of z as in _eval_scaled,
    with the value in extended precision: cl is c as numpy.clongdouble,
    and the value is one product of cl with a power table in that type.
    The slope and the scale come from the double tables, on the same
    powers rounded to double.
    """
    pw = _flipped_powers(z, cl.size, cl.dtype)
    _, slope, scale = _scaled_values(tables, pw.astype(complex))
    return np.einsum("ij,j->i", pw, cl), slope, scale


def _polish_lone(c: np.ndarray, tables, z: np.ndarray, radius: float):
    """Up to three Newton steps at every root farther than radius from all
    others, each kept only where it lowers that root's backward error.

    Aberth freezes a root once its residual reaches the floor, which can
    leave an ill-conditioned simple root's forward error far above what its
    condition allows.  Only p's value needs more than double precision for
    the steps: it is evaluated in extended precision (numpy.clongdouble,
    which is plain double on platforms without it, see _eval_extended),
    while the slope and the residual scale come from the double tables of
    _eval_scaled; then the roots of a polynomial with a wide coefficient
    span come out accurate enough that their product reproduces p.  A step
    is kept only where it lowers the backward error, moves the root less
    than half the distance to its nearest neighbour, so two roots cannot
    meet, and is larger than the root's double resolution.  Clusters are
    left alone: a Newton step would split a multiple root.

    Returns the polished roots.
    """
    nearest = _nearest(z)
    lone = np.flatnonzero(nearest > radius)
    if not lone.size:
        return z
    cl = c.astype(np.clongdouble)
    z0 = z[lone]
    zl = z0.copy()
    val, slope, scale = _eval_extended(cl, tables, zl)
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
            new = (zl[live] - step).astype(complex)
            val2, slope2, scale2 = _eval_extended(cl, tables, new)
            resid2 = np.abs(val2) / scale2
            keep = (resid2 < resid[live]) & (np.abs(new - z0[live]) < reach[live])
            live = live[keep]
            zl[live], val[live], slope[live], resid[live] = (
                new[keep], val2[keep], slope2[keep], resid2[keep])
    out = z.copy()
    out[lone] = zl
    return out


def roots(p, cluster_radius: float = CLUSTER_RADIUS) -> list[tuple[complex, int]]:
    """All roots of p as (root, multiplicity) pairs, sorted by (re, im).

    Roots closer than cluster_radius merge into one entry whose location is
    the cluster centroid.  Every reported root r is certified against the
    backward-stable residual bound |p(r)| <= TOL * sum |c_k||r|^k;
    if the primary iteration cannot certify, a companion-matrix fallback is
    tried, and failure of both raises NumericError.  Non-finite coefficients
    raise DomainError.  Clusters are decided once, on the polished roots:
    when their exact nearest-neighbour distances (_nearest, the same test
    that picks the roots to polish) put no two of them within
    cluster_radius, every root is certified as a simple one, and only
    otherwise does _cluster_members group them.
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
            z = _polish_lone(c, tables, np.asarray(cands, dtype=complex), cluster_radius)
            if _nearest(z).min() > cluster_radius:
                centres = z
                found = [(r, 1) for r in z.tolist()]
            else:
                pts = z.tolist()
                clusters = _cluster_members(pts, cluster_radius)
                centres = np.array([sum(pts[i] for i in idx) / len(idx) for idx in clusters])
                found = [(complex(r), len(idx)) for r, idx in zip(centres, clusters)]
            val, _, scale = _eval_scaled(tables, centres)
            worst = float(np.max(np.abs(val) / np.maximum(scale, 1e-300)))
            return found, worst

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

    def __init__(self, coeffs, d: int):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
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

    def node_values(self, count: int) -> np.ndarray:
        """Values at the count-th roots of unity by one inverse FFT, each
        coefficient added at its power modulo count (any count >= 1)."""
        count = int(count)
        if count < 1:
            raise DomainError("node count must be positive")
        spectrum = np.zeros(count, dtype=complex)
        np.add.at(spectrum, np.arange(-self.d, self.d + 1) % count, self.coeffs)
        return np.fft.ifft(spectrum, norm="forward")

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

        An end pair is dropped only when both coefficients are exactly
        zero; for Hermitian t the ends are conjugate, so P keeps degree
        exactly 2 * d_eff with nonzero ends (unless t = 0).
        """
        if self.is_zero:
            return UniPoly([]), 0
        d_eff = self.d
        while d_eff > 0 and not (self.coeffs[self.d + d_eff] or self.coeffs[self.d - d_eff]):
            d_eff -= 1
        return UniPoly(self.coeffs[self.d - d_eff: self.d + d_eff + 1]), d_eff

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
    """(certified circle zeros, roots strictly inside) of z**d_eff * t(z).

    Roots within _CANDIDATE_BAND of the circle in modulus are clustered by
    the angle of their unit projections, within CIRCLE_BAND; each cluster
    is polished and certified by driving the first m angular derivatives to
    the machine floor.  A cluster that fails at size m is retried on its
    m - 1, ..., 1 members nearest the circle, the rest going back to the
    plain roots; one that fails at every size (for example a mirror pair of
    off-circle roots straddling the circle) is demoted whole.  Demoted roots
    keep their computed values, so a mirror pair still gives one inside.
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
    inside = sorted((r for r in far if abs(r) < 1.0), key=lambda w: (w.real, w.imag))
    return circle, inside


def _spectral_factor(t: TrigPoly, zeros, cancelled=()) -> UniPoly:
    """amp * prod (z - r) over zeros: t's spectral factor Q, with one
    factor (z - c) left out per point c of cancelled.

    zeros are t's roots inside the disk and half of each circle zero but
    those in cancelled.  The product is taken as values at the N-th roots
    of unity, N the first power of two above 2 deg t, and its
    coefficients come from one FFT.  amp > 0 is fixed by Parseval's
    identity, the mean of |Q|^2 being t's constant coefficient, and the
    same values, times prod |zeta - c|^2, are certified against t:
    N > 2 deg t samples bound every coefficient of the difference.
    """
    _, d_eff = t.as_poly()
    degree = len(zeros)
    if degree + len(cancelled) != d_eff:
        raise NumericError("root pairing across the circle failed")
    omega = circle_nodes(1 << (2 * t.d).bit_length())
    vals = _zero_product(omega, zeros)
    full = np.abs(vals) ** 2 * np.abs(_zero_product(omega, cancelled)) ** 2
    amp2 = float(t.coeffs[t.d].real) / float(np.mean(full))
    if not amp2 > 0.0:
        raise NumericError("spectral factor amplitude is not positive")
    tv = t.node_values(omega.size).real
    resid = float(np.max(np.abs(amp2 * full - tv)))
    if resid > TOL * max(1.0, float(np.max(np.abs(tv)))):
        raise NumericError("factorization certificate failed", residual=resid)
    return UniPoly(np.fft.fft(math.sqrt(amp2) * vals, norm="forward")[: degree + 1])


def fejer_riesz(t: TrigPoly) -> UniPoly:
    """Spectral factor Q with |Q(zeta)|^2 = t(zeta) on the unit circle.

    Requires t real and nonnegative on the circle.  Q collects the strictly
    inside roots of z**d * t(z) plus half of each (necessarily even-order)
    circle zero, with a positive real leading coefficient, and is built and
    certified by _spectral_factor, which compute_Q calls with the split
    that validate keeps.
    """
    if t.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    if t.hermitian_defect() > TOL * t.scale():
        raise DomainError("not real on the circle")
    tv = t.node_values(_CERT_NODES).real
    if not (tv.min() >= -TOL * max(1.0, np.abs(tv).max()) and t.coeffs[t.d].real > 0.0):
        raise DomainError("negative on the circle")
    # an odd-order circle zero fails the degree count in _spectral_factor
    circle, inside = _split_circle_roots(t)
    halves = [tau for tau, m in circle for _ in range(m // 2)]
    return _spectral_factor(t, inside + halves)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product B = constant * N / D, N = prod (z - a) and
    D = prod (1 - conj(a) z) over the zeros a.

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

    def eval(self, z):
        """B = constant * N / D, N from _zero_product and D from its own loop."""
        zz = np.asarray(z, dtype=complex)
        den = np.ones(zz.shape, dtype=complex)
        tmp = np.empty(zz.shape, dtype=complex)
        for a in self.zeros:
            np.multiply(zz, -np.conj(a), out=tmp)
            tmp += 1.0
            den *= tmp
        out = self.constant * _zero_product(zz, self.zeros) / den
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
