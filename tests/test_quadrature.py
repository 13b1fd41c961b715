"""Circle quadrature, Poisson kernels, and the point-mass probe."""

import numpy as np
import pytest

from rifclark.catalog import get
from rifclark.errors import DomainError
from rifclark.quadrature import (
    circle_integral,
    circle_nodes,
    pointmass_probe,
    poisson2,
)


def test_circle_nodes_unit_modulus_and_count():
    z = circle_nodes(128)
    assert z.shape == (128,)
    assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-14
    assert abs(z[0] - 1.0) < 1e-15


def test_circle_integral_kills_nonzero_frequencies():
    # mean of z^k over the circle is 0 for k != 0 below the aliasing order
    for k in (1, -3, 7):
        val = circle_integral(lambda z: z ** k, count=64)
        assert abs(val) < 1e-14
    assert abs(circle_integral(lambda z: np.ones_like(z), count=64) - 1.0) < 1e-15


def test_circle_integral_geometric_series():
    # mean of 1/(1 - a z) over T is 1 for |a| < 1
    a = 0.7 - 0.1j
    val = circle_integral(lambda z: 1.0 / (1.0 - a * z), count=256)
    assert abs(val - 1.0) < 1e-13


def test_poisson2_normalization_and_positivity():
    z = (0.3 + 0.2j, -0.4j)
    nodes = circle_nodes(1024)
    # average over zeta2 for fixed zeta1, then over zeta1: total mean is 1
    acc = np.zeros(1024)
    for w in circle_nodes(512):
        acc += poisson2(z, (nodes, w)) / 512.0
    assert np.min(acc) > 0.0
    assert abs(np.mean(acc) - 1.0) < 1e-12


def test_poisson2_rejects_boundary_point():
    with pytest.raises(DomainError):
        poisson2((1.0 + 0.0j, 0.0j), (1.0 + 0.0j, 1.0 + 0.0j))


def test_pointmass_probe_decays_like_one_minus_r():
    rif = get("fave").build()
    s = rif.singularities[0]
    vals = pointmass_probe(rif, s.alpha, (s.tau, s.lam))
    assert len(vals) == 4
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # (1-r)^2-scaled kernel against a simple pole decays linearly in 1-r
    ratio = vals[-2] / vals[-1]
    assert 5.0 < ratio < 20.0


def test_pointmass_probe_custom_radii():
    rif = get("amy").build()
    s = rif.singularities[0]
    vals = pointmass_probe(rif, s.alpha, (s.tau, s.lam), radii=(0.5, 0.9))
    assert len(vals) == 2 and vals[1] < vals[0]
