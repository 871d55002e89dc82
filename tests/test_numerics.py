"""Shared numeric helpers."""

import numpy as np
import pytest
from scipy.linalg import expm

from nilconj import j_map
from nilconj.numerics import (
    bracket_root,
    cluster_scalars,
    golden_min,
    grid_transport,
    nonzero_integer_near,
    null_space_basis,
)


def test_golden_min():
    x, f = golden_min(lambda t: (t - 1.3) ** 2 + 0.25, 0.0, 3.0, xtol=1e-10)
    assert x == pytest.approx(1.3, abs=1e-8)
    assert f == pytest.approx(0.25, abs=1e-12)
    # elementwise over brackets, each taking the steps of its scalar call
    a, b = [2.0, 1.0, -2.0, 1.2999, 0.5], [4.5, 1.5, 2.0, 1.3001, 0.5]
    xs, fs = golden_min(np.cos, a, b, xtol=1e-10)
    scalar = [golden_min(np.cos, lo, hi, xtol=1e-10) for lo, hi in zip(a, b)]
    assert xs.tolist() == [x for x, _ in scalar]
    assert fs.tolist() == [fx for _, fx in scalar]
    assert xs[0] == pytest.approx(np.pi, abs=1e-7)   # a flat minimum: about sqrt(eps)


def test_bracket_root():
    r = bracket_root(np.cos, 1.0, 2.0, xtol=1e-13)
    assert r == pytest.approx(np.pi / 2.0, abs=1e-12)
    # elementwise over brackets, each taking the steps of its scalar call
    roots = bracket_root(np.cos, [1.0, 4.0], [2.0, 5.0], xtol=1e-13)
    assert roots.tolist() == [r, bracket_root(np.cos, 4.0, 5.0, xtol=1e-13)]
    assert roots[1] == pytest.approx(1.5 * np.pi, abs=1e-12)
    with pytest.raises(ValueError):
        bracket_root(np.cos, 0.1, 0.2)
    # superlinear: bisection takes about 40 calls for this
    calls = []

    def counted(x):
        calls.append(x)
        return np.cos(x)

    assert bracket_root(counted, 1.0, 2.0, xtol=1e-13) == pytest.approx(np.pi / 2.0, abs=1e-13)
    assert len(calls) <= 12


def test_nonzero_integer_near():
    assert nonzero_integer_near(2.0 + 1e-12, 1e-9) == 2
    assert nonzero_integer_near(-3.0 - 1e-12, 1e-9) == -3
    assert nonzero_integer_near(2.5, 1e-9) is None
    assert nonzero_integer_near(1e-12, 1e-9) is None  # zero is excluded
    assert nonzero_integer_near(2.0 + 1e-6, 1e-9) is None


def test_null_space_basis():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    basis = null_space_basis(a, 1e-10)
    assert basis.shape == (3, 1)
    assert np.linalg.norm(a @ basis) < 1e-14
    full = null_space_basis(np.zeros((3, 3)), 1e-10)
    assert full.shape == (3, 3)
    none = null_space_basis(np.eye(3), 1e-10)
    assert none.shape == (3, 0)


def test_cluster_scalars():
    vals = np.array([1.0, 1.0 + 1e-12, 2.0, 5.0, 5.0 - 1e-12])
    clusters = cluster_scalars(vals, 1e-9)
    reps = [rep for rep, _ in clusters]
    assert reps == pytest.approx([1.0, 2.0, 5.0])
    assert [len(idx) for _, idx in clusters] == [2, 1, 2]
    assert cluster_scalars(np.array([]), 1e-9) == []


def test_grid_transport(algebras):
    rng = np.random.default_rng(5)
    for alg in algebras.values():
        j = j_map(alg, np.linspace(1.0, 0.6, alg.dim_center))
        for n, h in [(n, h) for n in (1, 2, 997) for h in (0.013, -0.013)]:
            for shape in ((n, alg.dim_v), (n, alg.dim_v, 3)):
                rows = rng.standard_normal(shape)
                out = grid_transport(j, h, rows)
                assert out.shape == shape
                assert np.array_equal(out[0], rows[0])
                for i in range(n):
                    e = expm(i * h * j)
                    scale = np.linalg.norm(e, 2) * np.linalg.norm(rows[i])
                    assert np.linalg.norm(out[i] - e @ rows[i]) <= 1e-11 * scale
