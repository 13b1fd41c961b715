"""Uniform quadrature on the unit circle and measure-side probes.

The N-node uniform rule integrates zeta**k exactly for 0 < |k| < N and the
constant exactly, so it is spectrally accurate for integrands analytic in an
annulus around the circle: the error decays geometrically in N.  All
integrals in this package reduce to such rules.

The rules nest: the 2N roots of unity are the N roots plus the N roots
turned by half a spacing, so a doubling keeps the N-node sum and adds the
new nodes only (clark.integrate does this).  A Laurent polynomial takes its
values at the N roots of unity from one inverse FFT of its coefficients,
each added at its power modulo N (TrigPoly.node_values).  circle_nodes,
the table of roots of unity, is defined in polynomials and re-exported.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, _unimodular
from .polynomials import circle_nodes
from .rif import _pairs, phi_eval

# ||w| - 1| <= 1e-6 read on |w|^2
_TORUS_BAND = ((1.0 - 1e-6) ** 2, (1.0 + 1e-6) ** 2)
# radii at which pointmass_probe samples the scaled kernel
_PROBE_RADII = (0.9, 0.99, 0.999, 0.9999)


def poisson2(z, zeta) -> np.ndarray:
    """Two-variable Poisson kernel P(z, zeta) for points z in the open bidisk.

    z is one point (a pair of complex numbers) or P points as a (P, 2)
    array; zeta is a pair of scalars or a pair of equal-length arrays of N
    unimodular points.  The kernel is the product of the one-variable
    kernels (1 - |z_i|^2) / |zeta_i - z_i|^2, shaped like zeta for one
    point and (P, N) for P points, so one call gives the integrands of P
    Poisson integrals at once.

    Each denominator is the expanded square |zeta_i|^2 + |z_i|^2
    - 2 Re(conj(z_i) zeta_i), an identity for any zeta_i, formed as one
    real (P, 4) @ (4, N) product: no complex temporary and no modulus.
    Against the direct |zeta_i - z_i|^2 the expansion loses about
    eps (1 + |z_i|)^2 / (1 - |z_i|)^2 relative: 2e-15 at |z_i| = 0.5,
    9e-12 at |z_i| = 0.99.

    >>> pts = np.array([(0.3 + 0.2j, -0.4j), (0.0, 0.5)])
    >>> zeta = (circle_nodes(64), circle_nodes(64) ** 3)
    >>> poisson2(pts, zeta).shape
    (2, 64)
    >>> bool(np.allclose(poisson2(pts, zeta)[1], poisson2((0.0, 0.5), zeta)))
    True
    """
    pts = _pairs(z, "Poisson kernel points must be pairs, one per row")
    try:
        zeta1, zeta2 = (np.asarray(w, dtype=complex) for w in zeta)
        shape = np.broadcast_shapes(zeta1.shape, zeta2.shape)
    except (TypeError, ValueError):
        raise DomainError("Poisson kernel nodes must be a pair (zeta1, zeta2)") from None
    rows = pts.reshape(-1, 2)
    ws = np.broadcast_arrays(np.atleast_1d(zeta1), np.atleast_1d(zeta2))
    (num, den), (num2, den2) = (_kernel_factor(zi, w) for zi, w in zip(rows.T, ws))
    den *= den2
    kernel = np.divide((num * num2)[:, None], den, out=den)
    return kernel.reshape(pts.shape[:-1] + shape)


def _kernel_factor(zi, w, out: np.ndarray | None = None):
    """One coordinate of poisson2: (1 - |zi|^2, |w - zi|^2) for P points zi
    and N nodes w, shaped (P,) and (P, N), the second written into out
    when it is given, a float (P, N) array.  The one-variable Poisson
    kernel is their ratio, (1 - |zi|^2) / |w - zi|^2.

    The denominator is the expanded square |w|^2 + |zi|^2
    - 2 Re(conj(zi) w), one real (P, 4) @ (4, N) product (see poisson2).
    Raises DomainError unless every |zi| < 1 and every w lies within 1e-6
    of the unit circle.
    """
    zi = np.asarray(zi, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if not np.all(np.abs(zi) < 1.0):
        raise DomainError("Poisson kernel point must lie in the open bidisk")
    ww = w.real ** 2 + w.imag ** 2
    if not np.all((ww >= _TORUS_BAND[0]) & (ww <= _TORUS_BAND[1])):
        raise DomainError("Poisson kernel is sampled on the torus only")
    zz = zi.real ** 2 + zi.imag ** 2
    den = np.matmul(
        np.stack([-2.0 * zi.real, -2.0 * zi.imag, np.ones_like(zz), zz], axis=1),
        np.stack([w.real, w.imag, ww, np.ones_like(ww)]),
        out=out,
    )
    return 1.0 - zz, den


def pointmass_probe(rif, alpha, direction) -> list[float]:
    """Radial point-mass detector along a torus direction.

    Evaluates (1 - r)^2 |k^phi_alpha(r tau_1, r tau_2)| for r = 0.9, 0.99,
    0.999 and 0.9999, where k^phi_alpha(z) = (1 - phi(z) conj(phi(0))) /
    ((1 - conj(alpha) phi(z)) (1 - alpha conj(phi(0)))).  The sequence
    stays bounded away from zero exactly when the weak-star limit of the
    normalized Clark family assigns a point mass at (tau_1, tau_2); for the
    measures built here it instead decays like 1 - r, since Clark measures
    of nonconstant inner functions carry no atoms.
    """
    a = _unimodular(alpha)
    t = _pairs(direction, "direction must be a pair (t1, t2)", (1,))
    if not np.all(np.abs(np.abs(t) - 1.0) <= 1e-6):
        raise DomainError("direction must lie on the torus")
    phi0 = rif.phi_at_origin
    r = np.array(_PROBE_RADII)
    ph = phi_eval(rif, np.outer(r, t))
    val = (1.0 - ph * np.conj(phi0)) / (
        (1.0 - np.conj(a) * ph) * (1.0 - a * np.conj(phi0))
    )
    return [float(v) for v in (1.0 - r) ** 2 * np.abs(val)]
