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

from .errors import DomainError
from .polynomials import circle_nodes
from .rif import phi_eval

# ||w| - 1| <= 1e-6 read on |w|^2
_TORUS_BAND = ((1.0 - 1e-6) ** 2, (1.0 + 1e-6) ** 2)
# radii at which pointmass_probe samples the scaled kernel
_PROBE_RADII = (0.9, 0.99, 0.999, 0.9999)


def poisson2(z, zeta, out: np.ndarray | None = None) -> np.ndarray:
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

    out, in numpy's idiom, is an optional float (2, P, N) workspace (P = 1
    for one point): the two denominators are written into it and the
    kernel comes back in out[0], so a caller that integrates many
    families of one shape reuses one pair of buffers instead of faulting
    in fresh pages per call.  Each call then overwrites the last result.

    >>> pts = np.array([(0.3 + 0.2j, -0.4j), (0.0, 0.5)])
    >>> zeta = (circle_nodes(64), circle_nodes(64) ** 3)
    >>> poisson2(pts, zeta).shape
    (2, 64)
    >>> bool(np.allclose(poisson2(pts, zeta)[1], poisson2((0.0, 0.5), zeta)))
    True
    """
    pts = np.asarray(z, dtype=complex)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
        raise DomainError("Poisson kernel points must be pairs, one per row")
    if not np.all(np.abs(pts) < 1.0):
        raise DomainError("Poisson kernel point must lie in the open bidisk")
    rows = pts.reshape(-1, 2)
    ws = np.broadcast_arrays(*(np.atleast_1d(np.asarray(w, dtype=complex)) for w in zeta))
    num = 1.0
    dens = []
    for zi, w, work in zip(rows.T, ws, (None, None) if out is None else out):
        ww = w.real ** 2 + w.imag ** 2
        if not np.all((ww >= _TORUS_BAND[0]) & (ww <= _TORUS_BAND[1])):
            raise DomainError("Poisson kernel is sampled on the torus only")
        zz = zi.real ** 2 + zi.imag ** 2
        num = num * (1.0 - zz)
        dens.append(np.matmul(
            np.stack([-2.0 * zi.real, -2.0 * zi.imag, np.ones_like(zz), zz], axis=1),
            np.stack([w.real, w.imag, ww, np.ones_like(ww)]),
            out=work,
        ))
    den, den2 = dens
    den *= den2
    kernel = np.divide(num[:, None], den, out=den)
    shape = np.broadcast_shapes(np.shape(zeta[0]), np.shape(zeta[1]))
    return kernel.reshape(pts.shape[:-1] + shape)


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
    a = complex(alpha)
    if abs(abs(a) - 1.0) > 1e-6:
        raise DomainError("alpha must be unimodular")
    a /= abs(a)
    t1, t2 = complex(direction[0]), complex(direction[1])
    for t in (t1, t2):
        if abs(abs(t) - 1.0) > 1e-6:
            raise DomainError("direction must lie on the torus")
    phi0 = rif.phi_at_origin
    r = np.array(_PROBE_RADII)
    ph = phi_eval(rif, np.outer(r, (t1, t2)))
    val = (1.0 - ph * np.conj(phi0)) / (
        (1.0 - np.conj(a) * ph) * (1.0 - a * np.conj(phi0))
    )
    return [float(v) for v in (1.0 - r) ** 2 * np.abs(val)]
