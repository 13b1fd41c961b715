"""Seeded generator of stable degree-(n,1) polynomials with known contacts.

Numpy only: nothing here imports rifclark, so the facts the generator
knows (contact points, singular values, line masses, phi(0)) are a
reference computed apart from the program.

Family: p2 and the spectral square Q are products of roots at jittered,
equally spaced angles with moduli in [0.6, 0.8]; equal spacing keeps the
coefficient span moderate (about 1e5 at n = 32) and keeps the curve zeros
of generic alpha about 0.15 from the circle at every n.  Q also has a
simple zero at each contact point tau_k, one per sector of width 2 pi / m.
p1 is the outer spectral factor of |p2|^2 + |Q|^2 (roots from
numpy.roots), so |p1|^2 - |p2|^2 = |Q|^2 on the circle.  Then p1 has no
zeros in the closed disk, |p2 / p1| <= 1 on it, and the boundary zeros of
p = p1 + z2 p2 are exactly the tau_k, each an order-one contact.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from oracle import Facts, exceptional_alpha, line_mass, pencil_zero_distance

CONTACTS = 2
# Curve zeros of every exceptional alpha keep this distance from the
# circle; draws that do not are redrawn (about one in five).  At this
# distance adaptive quadrature settles at 8192 nodes.
EXCEPTIONAL_FLOOR = 0.01


def _ring_roots(rng, count: int) -> np.ndarray:
    k = np.arange(count)
    angle = 2 * np.pi * (k + rng.uniform(-0.3, 0.3, count)) / count + 2 * np.pi * rng.uniform()
    return rng.uniform(0.6, 0.8, count) * np.exp(1j * angle)


def _autocorr(a: np.ndarray) -> np.ndarray:
    """Laurent coefficients c[k + d] of |a(zeta)|^2, d = deg a."""
    return np.convolve(a, np.conj(a[::-1]))


def _outer_factor(c: np.ndarray) -> np.ndarray:
    """f with |f|^2 = t on the circle and no zeros in the closed disk, for
    t > 0 given by its Laurent coefficients c[k + d]."""
    d = (c.size - 1) // 2
    r = np.roots(c[::-1])
    outside = r[np.abs(r) > 1.0]
    if outside.size != d:
        raise ValueError("spectral roots do not split across the circle")
    f = P.polyfromroots(outside)
    count = 4 * d + 8
    z = np.exp(2j * np.pi * (np.arange(count) + 0.5) / count)
    t = np.real(P.polyval(z, c) * z ** (-d))
    return np.sqrt(np.median(t / np.abs(P.polyval(z, f)) ** 2)) * f


def draw(rng, n: int, ring=_ring_roots) -> Facts:
    """One polynomial of the family; `ring(rng, count)` gives the roots of
    p2 and the free roots of Q."""
    k = np.arange(CONTACTS)
    taus = np.exp(2j * np.pi * (k + rng.uniform(0.25, 0.75, CONTACTS)) / CONTACTS)
    q = P.polyfromroots(np.concatenate([taus, ring(rng, n - CONTACTS)]))
    p2 = P.polyfromroots(ring(rng, n))
    q = q / np.max(np.abs(q))
    p2 = 0.8 * p2 / np.max(np.abs(p2))
    p1 = _outer_factor(_autocorr(p2) + _autocorr(q))
    alphas = tuple(exceptional_alpha(n, p1, p2, t) for t in taus)
    masses = tuple(line_mass(n, p1, p2, t, a) for t, a in zip(taus, alphas))
    return Facts(n, p1, p2, tuple(complex(t) for t in taus), alphas, masses)


def generate(rng, n: int) -> Facts:
    """One polynomial of the family whose exceptional-alpha curve zeros all
    keep EXCEPTIONAL_FLOOR from the circle."""
    while True:
        facts = draw(rng, n)
        if all(pencil_zero_distance(n, facts.p1, facts.p2, a, drop=t) >= EXCEPTIONAL_FLOOR
               for t, a in zip(facts.taus, facts.alphas)):
            return facts


def generic_alphas(rng, facts: Facts, count: int, floor: float) -> list[complex]:
    """count unimodular alphas whose curve zeros all keep `floor` from the
    circle; near an exceptional value a zero nears its contact point, so
    these are generic."""
    out: list[complex] = []
    while len(out) < count:
        a = complex(np.exp(2j * np.pi * rng.uniform()))
        if pencil_zero_distance(facts.n, facts.p1, facts.p2, a) >= floor:
            out.append(a)
    return out
