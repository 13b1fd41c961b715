"""Reference values computed apart from the program, with numpy only.

Every function here works on plain ascending coefficient arrays and
numpy.polynomial; nothing imports rifclark.  The workloads compare the
program's output against these values and against the paper's closed
forms for the catalog.

Conventions: p = p1(z1) + z2 p2(z1) with deg p_i <= n, and the reflection
ptilde = pt2(z1) + z2 pt1(z1) with pt1 = z^n conj(p1(1/conj z)) and
pt2 = z^n conj(p2(1/conj z)).  phi = ptilde / p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P


@dataclass(frozen=True)
class Facts:
    """A polynomial p = p1 + z2 p2 of bidegree (n,1) and its boundary data:
    contact points, their singular values and their line masses."""

    n: int
    p1: np.ndarray
    p2: np.ndarray
    taus: tuple
    alphas: tuple
    masses: tuple


def _pad(a, n: int) -> np.ndarray:
    out = np.zeros(n + 1, dtype=complex)
    a = np.asarray(a, dtype=complex)
    out[: a.size] = a
    return out


def _reflected(a, n: int) -> np.ndarray:
    return np.conj(_pad(a, n)[::-1])


def phi_at_origin(n: int, p1, p2) -> complex:
    """phi(0) = pt2(0) / p1(0) = conj(p2[n]) / p1[0]."""
    return complex(np.conj(_pad(p2, n)[n]) / p1[0])


def phi(n: int, p1, p2, z1, z2):
    pt1, pt2 = _reflected(p1, n), _reflected(p2, n)
    num = P.polyval(z1, pt2) + z2 * P.polyval(z1, pt1)
    return num / (P.polyval(z1, p1) + z2 * P.polyval(z1, p2))


def exceptional_alpha(n: int, p1, p2, tau: complex) -> complex:
    """Value of phi on the singular line {tau} x C: pt1(tau) / p2(tau),
    with pt1(tau) = tau^n conj(p1(tau)) on the circle."""
    return complex(P.polyval(tau, _reflected(p1, n)) / P.polyval(tau, p2))


def second_coordinate(facts: Facts, tau: complex) -> complex:
    """lambda = -p1(tau) / p2(tau), the z2-root of p on the line."""
    return complex(-P.polyval(tau, facts.p1) / P.polyval(tau, facts.p2))


def line_mass(n: int, p1, p2, tau: complex, alpha: complex) -> float:
    """1 / |d phi / d z1| on {tau} x C, evaluated at z2 = 0, where phi is
    pt2 / p1 and pt2(tau) = alpha p1(tau)."""
    pt2 = _reflected(p2, n)
    deriv = (P.polyval(tau, P.polyder(pt2)) - alpha * P.polyval(tau, P.polyder(p1))) / P.polyval(tau, p1)
    return float(1.0 / abs(deriv))


def pencil_zero_distance(n: int, p1, p2, alpha: complex,
                         drop: complex | None = None) -> float:
    """Smallest | 1 - |r| | over the roots r of pt1 - alpha p2, the curve
    zeros at alpha; with `drop`, the root nearest that contact is left out."""
    u = _reflected(p1, n) - alpha * _pad(p2, n)
    top = np.flatnonzero(np.abs(u) > 1e-14 * np.max(np.abs(u)))[-1]
    r = np.roots(u[: top + 1][::-1])
    if drop is not None and r.size:
        r = np.delete(r, np.argmin(np.abs(r - drop)))
    if not r.size:
        return 1.0
    return float(np.min(np.abs(1.0 - np.abs(r))))


def spectral_degree(facts: Facts) -> int:
    """Degree of Q with |Q|^2 = |p1|^2 - |p2|^2: the band of that
    trigonometric polynomial."""
    t = np.convolve(_pad(facts.p1, facts.n), np.conj(_pad(facts.p1, facts.n)[::-1]))
    t -= np.convolve(_pad(facts.p2, facts.n), np.conj(_pad(facts.p2, facts.n)[::-1]))
    live = np.flatnonzero(np.abs(t) > 1e-13 * np.max(np.abs(t)))
    return int(facts.n - live[0])


def closed_form_mass(phi0: complex, alpha: complex) -> float:
    """Total mass of the Clark measure: (1 - |phi(0)|^2) / |alpha - phi(0)|^2."""
    return float((1.0 - abs(phi0) ** 2) / abs(alpha - phi0) ** 2)


def poisson_value(n: int, p1, p2, alpha: complex, z) -> float:
    """Poisson integral of sigma_alpha at z: (1 - |phi|^2) / |alpha - phi|^2."""
    f = complex(phi(n, p1, p2, z[0], z[1]))
    return float((1.0 - abs(f) ** 2) / abs(alpha - f) ** 2)


def poisson_kernel(z):
    """Two-variable Poisson kernel at z, as a function of torus points."""
    z1, z2 = z
    c1, c2 = 1.0 - abs(z1) ** 2, 1.0 - abs(z2) ** 2

    def kernel(u, v):
        return c1 / np.abs(u - z1) ** 2 * c2 / np.abs(v - z2) ** 2

    return kernel


def support_residual(n: int, p1, p2, alpha: complex, zeta, z2) -> float:
    """max |ptilde - alpha p| / max(|ptilde| + |p|) over the curve points
    (zeta, z2): zero when the curve lies in the level set {phi = alpha}."""
    pt1, pt2 = _reflected(p1, n), _reflected(p2, n)
    pt = P.polyval(zeta, pt2) + z2 * P.polyval(zeta, pt1)
    pv = P.polyval(zeta, p1) + z2 * P.polyval(zeta, p2)
    return float(np.max(np.abs(pt - alpha * pv)) / np.max(np.abs(pt) + np.abs(pv)))


# The catalog as the paper states it, with its closed forms at each
# exceptional value: lines (tau, mass), curve zeros, curve weight W(zeta)
# (None where the paper states none) and total mass.
_S3 = 1.0 / np.sqrt(3.0)
CATALOG = {
    "fave": {
        "facts": Facts(1, np.array([2.0, -1.0]), np.array([-1.0]),
                       (1 + 0j,), (-1 + 0j,), (0.5,)),
        "exceptional": {
            -1 + 0j: {"lines": [(1 + 0j, 0.5)], "zeros": [],
                      "weight": lambda z: np.full(np.shape(z), 0.5), "mass": 1.0},
        },
    },
    "amy": {
        "facts": Facts(2, np.array([4.0, -3.0, 1.0]), np.array([-1.0, -1.0]),
                       (1 + 0j,), (-1 + 0j,), (0.5,)),
        "exceptional": {
            -1 + 0j: {"lines": [(1 + 0j, 0.5)], "zeros": [0j],
                      "weight": lambda z: 0.25 * np.abs(1.0 - z) ** 2, "mass": 1.0},
        },
    },
    "amy-variant": {
        "facts": Facts(2, np.array([2.0]), np.array([0.0, -1.0, -1.0]),
                       (1 + 0j,), (-1 + 0j,), (2.0,)),
        "exceptional": {
            -1 + 0j: {"lines": [(1 + 0j, 2.0)], "zeros": [0j],
                      "weight": lambda z: np.full(np.shape(z), 1.0), "mass": 3.0},
        },
    },
    "deg31": {
        "facts": Facts(3, np.array([4.0]), np.array([-1.0, 1.0, -3.0, -1.0]),
                       (1 + 0j, -1 + 0j), (-1 + 0j, 1 + 0j), (1.0, 0.5)),
        "exceptional": {
            -1 + 0j: {"lines": [(1 + 0j, 1.0)], "zeros": [1j * _S3, -1j * _S3],
                      "weight": None, "mass": 5.0 / 3.0},
            1 + 0j: {"lines": [(-1 + 0j, 0.5)], "zeros": [0.2 + 0.4j, 0.2 - 0.4j],
                     "weight": None, "mass": 3.0 / 5.0},
        },
    },
}
