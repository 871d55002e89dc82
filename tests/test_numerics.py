"""Shared numeric helpers."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm

from nilconj import (
    GeodesicSpec,
    JacobiField,
    conjugate_times,
    field_values,
    fixture,
    j_map,
    jacobi_frame_residual,
)
from nilconj.algebra import FIXTURE_NAMES
from nilconj.cli import main
from nilconj.geometry import _FieldForm
from nilconj.numerics import (
    _KEYS,
    _THETA,
    _expm_stack,
    bracket_root,
    cluster_scalars,
    golden_min,
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


def test_golden_min_v_steps():
    # near a simple zero of |t - t*| type the V steps close a 2/256 bracket
    # to 1e-9 in at most 10 calls of f, its two ends included (golden
    # section alone takes 35 here, its ends not counted)
    a, b = 1.0, 1.0 + 2.0 / 256.0
    for frac in (0.3, 0.45, 0.5, 0.62, 0.7):
        t_star, calls = a + frac * (b - a), []

        def f(t):
            calls.append(t)
            return 0.7 * np.abs(t - t_star) + 0.3 * (t - t_star) ** 2

        x, fx = golden_min(f, a, b, xtol=1e-9)
        assert len(calls) <= 10
        assert abs(x - t_star) <= 1e-9 and fx == f(x)


def test_golden_min_safeguards():
    # a smooth parabola still converges within xtol
    x, fx = golden_min(lambda t: (t - 1.3) ** 2, 0.0, 3.0, xtol=1e-10)
    assert abs(x - 1.3) <= 1e-10 and fx == (x - 1.3) ** 2
    # a monotone f gives the end where it is lowest
    x, fx = golden_min(lambda t: t, 0.0, 3.0, xtol=1e-10)
    assert 0.0 <= x <= 1e-10 and fx == x
    x, _ = golden_min(lambda t: -t, 0.0, 3.0, xtol=1e-10)
    assert 3.0 - 1e-10 <= x <= 3.0
    # array calls with the ends' values given equal the scalar calls
    a, b = np.array([1.0, 4.0, 2.9, 7.8, 0.5]), np.array([2.0, 5.2, 3.3, 7.9, 0.5])
    f = lambda t: np.abs(np.cos(t)) + 0.1 * (t - 3.0) ** 2   # noqa: E731
    xs, fs = golden_min(f, a, b, xtol=1e-10, fa=f(a), fb=f(b))
    scalar = [golden_min(f, lo, hi, 1e-10, f(lo), f(hi)) for lo, hi in zip(a, b)]
    assert xs.tolist() == [x for x, _ in scalar]
    assert fs.tolist() == [fx for _, fx in scalar]
    assert xs[0] == pytest.approx(np.pi / 2.0, abs=1e-10)


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


def test_null_space_basis():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    basis = null_space_basis(a, 1e-10)
    assert basis.shape == (3, 1)
    assert np.linalg.norm(a @ basis) < 1e-14
    full = null_space_basis(np.zeros((3, 3)), 1e-10)
    assert full.shape == (3, 3)
    none = null_space_basis(np.eye(3), 1e-10)
    assert none.shape == (3, 0)
    # complex: the rotation generator's eigenvector for i, from conjugate rows of Vh
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    vec = null_space_basis(rot - 1j * np.eye(2), 1e-10)
    assert vec.shape == (2, 1)
    assert np.linalg.norm(rot @ vec - 1j * vec) < 1e-14


def test_cluster_scalars():
    vals = np.array([1.0, 1.0 + 1e-12, 2.0, 5.0, 5.0 - 1e-12])
    clusters = cluster_scalars(vals, 1e-9)
    reps = [rep for rep, _ in clusters]
    assert reps == pytest.approx([1.0, 2.0, 5.0])
    assert [len(idx) for _, idx in clusters] == [2, 1, 2]
    assert cluster_scalars(np.array([]), 1e-9) == []
    # a callable atol gives the bound at each value from the second on
    clusters = cluster_scalars(np.array([30.0, 1.0, 14.0, 1.5, 10.0]), lambda v: 0.5 * v)
    assert [(rep, sorted(idx)) for rep, idx in clusters] == [(1.25, [1, 3]), (12.0, [2, 4]),
                                                            (30.0, [0])]
    # complex: by real parts, then by imaginary parts; a conjugate pair splits
    vals = np.array([2.0j, -2.0j, 1e-12 + 2.0j, 1.0, 1.0 + 1e-12])
    clusters = cluster_scalars(vals, 1e-9)
    assert [rep for rep, _ in clusters] == pytest.approx([-2.0j, 2.0j, 1.0])
    assert [sorted(idx) for _, idx in clusters] == [[1], [0, 2], [3, 4]]


def view_grid(k, h, n):
    """exp(i h K), i < n, as a witness view forms it: the frame values exp(tK) P of
    _FieldForm.jet on the grid times = i h, with c = 0, B = I and P = e_j per column j."""
    r = k.shape[0]
    times = h * np.arange(n)
    columns = [_FieldForm(np.eye(r)[j][None], np.zeros((1, 1)), np.zeros((1, r)), np.zeros(r),
                          np.eye(r), k).jet(times, h)[3] for j in range(r)]
    return np.stack(columns, axis=-1)


def test_grid_transport(algebras):
    rng = np.random.default_rng(5)
    for alg in algebras.values():
        j = j_map(alg, np.linspace(1.0, 0.6, alg.dim_center))
        for n, h in [(n, h) for n in (0, 1, 2, 997) for h in (0.013, -0.013)]:
            grid = view_grid(j, h, n)
            assert grid.shape == (n, alg.dim_v, alg.dim_v)
            assert n == 0 or np.array_equal(grid[0], np.eye(alg.dim_v))
            for shape in ((n, alg.dim_v), (n, alg.dim_v, 3)):
                rows = rng.standard_normal(shape)
                for i in range(n):
                    e = expm(i * h * j)
                    scale = np.linalg.norm(e, 2) * np.linalg.norm(rows[i])
                    assert np.linalg.norm(grid[i] @ rows[i] - e @ rows[i]) <= 1e-11 * scale


def test_expm_stack(algebras):
    zero = _expm_stack(np.zeros((3, 4, 4)))
    assert np.array_equal(zero, np.broadcast_to(np.eye(4), zero.shape))
    # |c| |J|_1 up to 200, one multiple per squaring count s = 0..6
    c = np.array([0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0])
    c = np.concatenate([-c[:0:-1], c])
    stacks = []
    for alg in algebras.values():
        j = j_map(alg, np.linspace(1.0, 0.6, alg.dim_center))
        stacks.append((c / np.abs(j).sum(axis=0).max())[:, None, None] * j)
    stacks.append(np.random.default_rng(6).standard_normal((40, 6, 6)))
    for a in stacks:
        for ai, ei in zip(a, _expm_stack(a)):
            e = expm(ai)
            assert np.linalg.norm(ei - e) <= 1e-11 * np.linalg.norm(e)
    # each matrix as if alone: one stack over all five degrees and s = 0..6, with a
    # zero matrix and a dyadic nilpotent one, equals the stacks of one bit for bit
    rng = np.random.default_rng(7)
    norms = np.concatenate([[0.01, 0.2, 0.9, 2.0], 0.75 * _THETA[13] * 2.0 ** np.arange(7)])
    a = rng.standard_normal((norms.size, 6, 6))
    a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
    nil = np.zeros((1, 6, 6))
    nil[0, 0, 3:] = [8.0, -2.0, 0.5]
    a = np.concatenate([a, np.zeros((1, 6, 6)), nil])[rng.permutation(norms.size + 2)]
    keys = np.searchsorted(_KEYS, np.abs(a).sum(axis=-2).max(axis=-1))
    assert sorted(set(keys.tolist())) == list(range(11))
    e = _expm_stack(a)
    for ai, ei in zip(a, e):
        assert np.array_equal(ei, _expm_stack(ai[None])[0])
        assert np.linalg.norm(ei - expm(ai)) <= 1e-11 * np.linalg.norm(ei)
    assert np.array_equal(e[~a.any(axis=(1, 2))][0], np.eye(6))
    assert np.array_equal(e[(a == 8.0).any(axis=(1, 2))][0], np.eye(6) + nil[0])
    # densely in c against the closed forms: scipy's own expm errs by up to
    # 2.7e-11 relative on this pheis3 grid
    c = np.linspace(-200.0, 200.0, 401)[:, None, None]
    for name, even, odd in (("heis3", np.cos, np.sin), ("pheis3", np.cosh, np.sinh)):
        j = j_map(algebras[name], [1.0])
        exact = even(c) * np.eye(2) + odd(c) * j
        err = np.linalg.norm(_expm_stack(c * j) - exact, axis=(1, 2))
        assert np.all(err <= 1e-11 * np.linalg.norm(exact, axis=(1, 2)))


@pytest.mark.parametrize("m", sorted(_THETA))
@pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9])
def test_expm_stack_pade_degrees(m, side):
    # a stack whose largest 1-norm lies just below (degree m) or just above
    # (the next degree) theta_m; above theta_13 the degree-13 path squares once
    top = _THETA[m] * side
    rng = np.random.default_rng(m)
    fractions = np.array([1.0, 0.5, 0.1, 1e-3])[:, None, None]
    for d in (6, 10):
        a = rng.standard_normal((4, d, d))
        a *= top * fractions / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
        for ai, ei in zip(a, _expm_stack(a)):
            e = expm(ai)
            assert np.linalg.norm(ei - e) <= 1e-14 * np.linalg.norm(e)
    # 2 x 2 against the exact rotation (scipy's own expm errs by up to 4e-13
    # relative on 2 x 2 stacks at theta_13)
    j = j_map(fixture("heis3"), [1.0])
    c = top * np.array([-1.0, -0.5, 0.25, 1e-3, 1.0])[:, None, None]
    rotation = np.cos(c) * np.eye(2) + np.sin(c) * j
    assert np.abs(_expm_stack(c * j) - rotation).max() <= 1e-15
    # next to a matrix of 1-norm top, the zero matrix gives I and a dyadic A
    # with A^2 = 0 gives I + A, exactly
    unit = 2.0 ** np.floor(np.log2(top))
    nil = np.zeros((3, 6, 6))
    nil[0, 0, 5] = unit
    nil[1, 2, 1] = -0.25 * unit
    nil[2, 0, 3:] = unit * np.array([0.5, -0.25, 1.0])
    e = _expm_stack(np.concatenate([nil, np.zeros((1, 6, 6)), top * np.eye(6)[None]]))
    assert np.array_equal(e[:3], np.eye(6) + nil)
    assert np.array_equal(e[3], np.eye(6))


def test_grid_transport_exact_reference():
    # e^{tJ} = cos(3t) I + sin(3t) K on heis3 (K^2 = -I) and cosh(3t) I + sinh(3t) K
    # on pheis3 (K^2 = I), at z0 = 3 over 30,000 rows
    n, h = 30_000, 1e-4
    t = h * np.arange(n)[:, None, None]
    for name, even, odd in (("heis3", np.cos, np.sin), ("pheis3", np.cosh, np.sinh)):
        j = j_map(fixture(name), [3.0])
        exact = even(3.0 * t) * np.eye(2) + odd(3.0 * t) * (j / 3.0)
        err = np.linalg.norm(view_grid(j, h, n) - exact, axis=(1, 2))
        assert np.all(err <= 1e-13 * np.linalg.norm(exact, axis=(1, 2)))


def test_no_stacked_scipy_expm(monkeypatch):
    # stacks go through _expm_stack; scipy's expm loops in Python over a stack.
    # image_membership imports scipy's expm at its call, so the guard wraps it there
    calls = []

    def guarded(a):
        assert np.ndim(a) <= 2, "stacked scipy expm"
        calls.append(a)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", guarded)
    geo = GeodesicSpec(fixture("heis5w"), [3.0], [1.0, 0.2, 0.3, 0.4])
    cts = conjugate_times(geo, 2.8, witnesses=True)
    assert cts and calls    # the transcendental witnesses' preimages reached the guard
    for ct in cts:
        field = ct.certificate
        field_values(geo, field)
        jacobi_frame_residual(geo, field, field.times[field.times.size // 2])
    times = np.linspace(0.0, np.sqrt(2.0), 65) ** 2
    rng = np.random.default_rng(9)
    field_values(geo, JacobiField([0.3], times, rng.standard_normal((65, 1)),
                                  rng.standard_normal((65, 4))))
    for name in FIXTURE_NAMES:
        assert main(["compare", "--algebra", name, "--random", "2", "--json"]) == 0
