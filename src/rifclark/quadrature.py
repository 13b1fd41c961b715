"""Uniform quadrature on the unit circle and measure-side probes.

The N-node uniform rule integrates zeta**k exactly for 0 < |k| < N and the
constant exactly, so it is spectrally accurate for integrands analytic in an
annulus around the circle: the error decays geometrically in N.  All
integrals in this package reduce to such rules.

The rules nest: the 2N roots of unity are the N roots plus the N roots
turned by half a spacing, so a doubling keeps the N-node sum and adds the
new nodes only (clark.integrate does this).  A Laurent polynomial takes its
values at the N roots of unity from one FFT of its coefficients, folded
modulo N (TrigPoly.node_values).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .rif import phi_eval

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


def circle_integral(f, count: int = 4096) -> complex:
    """Mean of f over the roots of unity: integral against normalized
    arclength, exact through Laurent degree count - 1.

    >>> round(abs(circle_integral(lambda z: z * np.conj(z), 16)), 12)
    1.0
    >>> abs(circle_integral(lambda z: z ** 3, 16)) < 1e-15
    True
    """
    vals = np.asarray(f(circle_nodes(count)))
    return complex(vals.mean())


def poisson2(z, zeta) -> np.ndarray:
    """Two-variable Poisson kernel P(z, zeta) for z in the open bidisk.

    zeta may be a pair of scalars or a pair of equal-length arrays of
    unimodular points; the kernel is the product of the one-variable
    kernels (1 - |z_i|^2) / |zeta_i - z_i|^2.
    """
    z1, z2 = complex(z[0]), complex(z[1])
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise DomainError("Poisson kernel point must lie in the open bidisk")
    w1 = np.asarray(zeta[0], dtype=complex)
    w2 = np.asarray(zeta[1], dtype=complex)
    for w in (w1, w2):
        if np.max(np.abs(np.abs(w) - 1.0)) > 1e-6:
            raise DomainError("Poisson kernel is sampled on the torus only")
    k1 = (1.0 - abs(z1) ** 2) / np.abs(w1 - z1) ** 2
    k2 = (1.0 - abs(z2) ** 2) / np.abs(w2 - z2) ** 2
    return k1 * k2


def pointmass_probe(rif, alpha, direction, radii=(0.9, 0.99, 0.999, 0.9999)) -> list[float]:
    """Radial point-mass detector along a torus direction.

    Evaluates (1 - r)^2 |k^phi_alpha(r tau_1, r tau_2)| for increasing r,
    where k^phi_alpha(z) = (1 - phi(z) conj(phi(0))) / ((1 - conj(alpha)
    phi(z)) (1 - alpha conj(phi(0)))).  The sequence stays bounded away from
    zero exactly when the weak-star limit of the normalized Clark family
    assigns a point mass at (tau_1, tau_2); for the measures built here it
    instead decays like 1 - r, since Clark measures of nonconstant inner
    functions carry no atoms.
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
    out = []
    for r in radii:
        r = float(r)
        if not 0.0 < r < 1.0:
            raise DomainError("probe radii must lie in (0, 1)")
        ph = phi_eval(rif, (r * t1, r * t2))
        val = (1.0 - ph * np.conj(phi0)) / (
            (1.0 - np.conj(a) * ph) * (1.0 - a * np.conj(phi0))
        )
        out.append(float((1.0 - r) ** 2 * abs(val)))
    return out
