"""Circle quadrature, Poisson kernels, and the point-mass probe."""

import numpy as np
import pytest

from rifclark.catalog import get
from rifclark.errors import DomainError
from rifclark.quadrature import (
    _kernel_factor,
    circle_nodes,
    pointmass_probe,
    poisson2,
)


def test_circle_nodes_unit_modulus_and_count():
    z = circle_nodes(128)
    assert z.shape == (128,)
    assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-14
    assert abs(z[0] - 1.0) < 1e-15


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
    # a batch is refused when any one row or any one sample is bad
    nodes = circle_nodes(64)
    pts = np.array([(0.1, 0.2j), (0.3, -0.1), (0.2j, 0.0)])
    for row, col, value in ((1, 1, 1.0), (2, 0, 1.5j), (0, 1, np.nan)):
        bad = pts.copy()
        bad[row, col] = value
        with pytest.raises(DomainError):
            poisson2(bad, (nodes, nodes))
    off = nodes.copy()
    off[17] *= 1.001
    with pytest.raises(DomainError):
        poisson2(pts, (nodes, off))
    with pytest.raises(DomainError):
        poisson2(pts[:, :1], (nodes, nodes))


def _direct_poisson2(pts, w1, w2):
    # the complex formula (1 - |z_i|^2) / |w_i - z_i|^2, one point at a time
    return np.array([
        (1 - abs(a) ** 2) / np.abs(w1 - a) ** 2 * (1 - abs(b) ** 2) / np.abs(w2 - b) ** 2
        for a, b in pts
    ])


def _torus_samples(pts, rng):
    # 1000 spread nodes plus each point's nearest circle point, where the
    # denominator is smallest
    w1 = np.concatenate([circle_nodes(1000), pts[:, 0] / np.abs(pts[:, 0])])
    w2 = np.concatenate([np.exp(2j * np.pi * rng.uniform(size=1000)),
                         pts[:, 1] / np.abs(pts[:, 1])])
    return w1, w2


def test_poisson2_batched_matches_direct_formula():
    rng = np.random.default_rng(11)
    pts = 0.5 * np.sqrt(rng.uniform(size=(40, 2))) * np.exp(2j * np.pi * rng.uniform(size=(40, 2)))
    w1, w2 = _torus_samples(pts, rng)
    got = poisson2(pts, (w1, w2))
    want = _direct_poisson2(pts, w1, w2)
    assert got.shape == (40, 1040)
    assert np.max(np.abs(got - want) / want) <= 1e-14
    # one point gives the row of the batch
    assert np.allclose(poisson2(pts[3], (w1, w2)), got[3], rtol=1e-15, atol=0.0)


def test_kernel_factor_workspace_gives_the_same_denominators():
    # the one-coordinate factor that poisson2 and the poisson suite share
    # writes its (P, N) denominators into a kept workspace when given one
    rng = np.random.default_rng(13)
    pts = 0.5 * np.sqrt(rng.uniform(size=(7, 2))) * np.exp(2j * np.pi * rng.uniform(size=(7, 2)))
    w1, _w2 = _torus_samples(pts, rng)
    work = np.empty((7, w1.size))
    for zi in (pts[:, 0], pts[::-1, 1]):
        num, den = _kernel_factor(zi, w1, work)
        assert den is work
        fresh = _kernel_factor(zi, w1)
        assert np.array_equal(num, fresh[0]) and np.array_equal(den, fresh[1])
        assert np.array_equal(poisson2(np.column_stack([zi, zi]), (w1, w1)),
                              (num * num)[:, None] / (den * den))
    one = _kernel_factor(pts[2, :1], w1, work[:1])[1]
    assert np.array_equal(one, _kernel_factor(pts[2, :1], w1)[1])


def test_poisson2_expanded_square_bound_near_the_boundary():
    # the expanded square |w|^2 + |z|^2 - 2 Re(conj(z) w) carries rounding
    # of order eps (1 + |z|)^2 against its value, at least (1 - |z|)^2
    rng = np.random.default_rng(12)
    pts = 0.99 * np.exp(2j * np.pi * rng.uniform(size=(40, 2)))
    w1, w2 = _torus_samples(pts, rng)
    want = _direct_poisson2(pts, w1, w2)
    rel = np.abs(poisson2(pts, (w1, w2)) - want) / want
    m = np.abs(pts)
    bound = 4 * np.finfo(float).eps * np.sum((1 + m) ** 2 / (1 - m) ** 2, axis=1)
    assert np.all(rel <= bound[:, None])
    assert np.max(rel) > 1e-13  # the loss is real at |z| = 0.99


def test_pointmass_probe_decays_like_one_minus_r():
    rif = get("fave").build()
    s = rif.singularities[0]
    vals = pointmass_probe(rif, s.alpha, (s.tau, s.lam))
    assert len(vals) == 4
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # (1-r)^2-scaled kernel against a simple pole decays linearly in 1-r
    ratio = vals[-2] / vals[-1]
    assert 5.0 < ratio < 20.0
