"""Numerical oracle: propagator accuracy, rank-drop detection, matching."""

import ast
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nilconj import (
    DEFAULT_TOL,
    ConjugateTime,
    GeodesicSpec,
    JacobiField,
    MatchReport,
    MetricLieAlgebra,
    ParseError,
    bracket_v,
    compare,
    conjugate_times,
    detect_conjugate,
    fixture,
    integrate_propagator,
    j_map,
    jacobi_frame_residual,
    matrix_at,
    sigma_min_series,
)
from nilconj import oracle
from nilconj.cli import _random_geodesic
from nilconj.numerics import _expm_stack, bracket_root, golden_min
from nilconj.oracle import (
    _cosines,
    _cover,
    _log_cosine_product,
    default_steps,
    detect_stack,
)

T_COT = 8.549564543061


def geo(alg, z0, x0):
    return GeodesicSpec(alg, np.asarray(z0, float), np.asarray(x0, float))


def test_default_steps():
    assert default_steps(0.1) == 100
    assert default_steps(16.0) == 4096
    assert default_steps(50.0) == 12800


def test_integrate_validation(heis3):
    g = geo(heis3, [1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        integrate_propagator(g, -1.0)
    with pytest.raises(ValueError):
        integrate_propagator(g, 1.0, steps=10)


@pytest.mark.parametrize("steps", [150.5, 200.0, "200", True, np.float64(200.0)],
                         ids=["fraction", "float", "str", "bool", "float64"])
def test_non_integer_steps_are_refused(heis3, steps):
    # once numpy's bare TypeError ("'float' object cannot be interpreted as an integer")
    # or one from comparing a str with 100
    g = geo(heis3, [1.0], [1.0, 0.0])
    with pytest.raises(ParseError, match="integer"):
        integrate_propagator(g, 1.0, steps=steps)
    with pytest.raises(ParseError, match="integer"):
        detect_conjugate(g, 2.0, steps=steps)


def test_numpy_integer_steps_are_accepted(heis3):
    g = geo(heis3, [1.0], [1.0, 0.0])
    assert integrate_propagator(g, 1.0, steps=np.int64(128)).times.size == 129


def test_integrate_memory_bound(bicenter):
    # 2^25 state entries: at d = 10 the bound is 335,544 steps.  Both runs
    # below are refused before any array is allocated (a 1e7 horizon once
    # asked for a 164 GB half grid).
    g = geo(bicenter, [1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="memory bound"):
        integrate_propagator(g, 1e7)
    with pytest.raises(ValueError, match="memory bound"):
        integrate_propagator(g, 1.0, steps=335_545)


def test_boundary_map_vanishes_at_zero(heis3):
    g = geo(heis3, [1.0], [1.0, 0.0])
    prop = integrate_propagator(g, 1.0, steps=100)
    assert np.linalg.norm(matrix_at(prop, 0.0)) == 0.0
    assert prop.states.shape == (101, 5, 3)


def test_flat_case_is_linear_in_t(heis3z2):
    # J = 0 and x0 = 0: the exact boundary map is t times the identity.
    # with t_max = 50 the default step is the dyadic 2^-8, so RK4 rounds
    # to the exact answer bit for bit.
    g = geo(heis3z2, [0.0, 1.0], [0.0, 0.0])
    prop = integrate_propagator(g, 50.0)
    eye = np.eye(4)
    worst = max(np.abs(matrix_at(prop, prop.times[n]) - prop.times[n] * eye).max()
                for n in range(0, prop.times.size, 640))
    assert worst == 0.0
    sig = sigma_min_series(prop)
    assert sig[-1] == pytest.approx(50.0)
    # non-dyadic step: still machine-accurate
    prop = integrate_propagator(g, 50.0, steps=101)
    assert np.abs(matrix_at(prop, 50.0) - 50.0 * eye).max() < 1e-10
    assert detect_conjugate(g, 50.0) == []


def test_central_block_structure(heis3):
    # central geodesic: z-block is t I, v-block solves vdot = exp(-tJ) vdot(0),
    # i.e. v(t) = J^{-1} (I - exp(-tJ)) vdot(0); cross blocks vanish.
    g = geo(heis3, [1.0], [0.0, 0.0])
    prop = integrate_propagator(g, 7.0)
    j = g.J
    for n in (500, 1200, prop.times.size - 1):
        t = prop.times[n]
        m = matrix_at(prop, t)
        assert abs(m[0, 0] - t) < 1e-8
        assert np.abs(m[0, 1:]).max() < 1e-12
        assert np.abs(m[1:, 0]).max() < 1e-12
        vblock = np.linalg.solve(j, np.eye(2) - expm(-t * j))
        assert np.abs(m[1:, 1:] - vblock).max() < 1e-8


def test_detect_central_heis3(heis3):
    g = geo(heis3, [1.0], [0.0, 0.0])
    found = detect_conjugate(g, 13.0)
    assert len(found) == 2
    assert found[0][0] == pytest.approx(2.0 * np.pi, abs=1e-6)
    assert found[1][0] == pytest.approx(4.0 * np.pi, abs=1e-6)
    assert [m for _, m in found] == [2, 2]


def test_detect_central_pheis3_empty(pheis3):
    # boosting block: sigma_max grows like e^t/2; the rank test reads the
    # principal angles of the solution space, which do not grow with it.
    assert detect_conjugate(geo(pheis3, [1.0], [0.0, 0.0]), 10.0) == []


def test_detect_mixed_heis3(heis3):
    g = geo(heis3, [1.0], [1.0, 0.0])
    found = detect_conjugate(g, 13.0)
    assert len(found) == 3
    assert found[0][0] == pytest.approx(2.0 * np.pi, abs=1e-5)
    assert found[1][0] == pytest.approx(T_COT, abs=1e-5)
    assert found[2][0] == pytest.approx(4.0 * np.pi, abs=1e-5)
    assert [m for _, m in found] == [1, 1, 1]


def test_detect_step_invariance(heis3):
    # doubling the step count must not change the detected set materially.
    g = geo(heis3, [1.0], [1.0, 0.0])
    a = detect_conjugate(g, 13.0, steps=3328)
    b = detect_conjugate(g, 13.0, steps=6656)
    assert len(a) == len(b)
    for (ta, ma), (tb, mb) in zip(a, b):
        assert ta == pytest.approx(tb, abs=1e-7)
        assert ma == mb


def test_convergence_order(bicenter):
    # A varies with t only for p >= 2 with z0 and x0 both nonzero; there the
    # Magnus step is fourth order: require a measured order >= 3.5, and the
    # default steps within 1e-9 (relative, every node) of a 16x-step run.
    g = geo(bicenter, [0.6, -0.8], [1.0, 0.5, -0.3])
    ref = matrix_at(integrate_propagator(g, 2.0, steps=8192), 2.0)
    e1 = np.linalg.norm(matrix_at(integrate_propagator(g, 2.0, steps=128), 2.0) - ref)
    e2 = np.linalg.norm(matrix_at(integrate_propagator(g, 2.0, steps=256), 2.0) - ref)
    assert np.log2(e1 / e2) >= 3.5
    coarse = integrate_propagator(g, 6.0)
    fine = integrate_propagator(g, 6.0, steps=16 * default_steps(6.0))
    err = np.linalg.norm(coarse.states - fine.states[::16], axis=(1, 2))
    assert np.all(err <= 1e-9 * np.linalg.norm(fine.states[::16], axis=(1, 2)))
    # off grid, the Magnus step over [t_n, t] from the node below
    ts = np.array([0.0123, 1.2345, 2.71828, 4.4444, 5.999])
    ref = matrix_at(fine, ts)
    err = np.linalg.norm(matrix_at(coarse, ts) - ref, axis=(1, 2))
    assert np.all(err <= 1e-9 * np.linalg.norm(ref, axis=(1, 2)))


def test_columns_are_frame_jacobi_fields(heis3):
    # each basis column of the propagator, read as a sampled frame field with
    # its own zeta, satisfies the field equation up to stencil error.
    g = geo(heis3, [1.0], [1.0, 0.0])
    prop = integrate_propagator(g, 3.0, steps=768)
    p, q = 1, 2
    for col, zeta in ((0, [1.0]), (1, [0.0]), (2, [0.0])):
        field = JacobiField(zeta, prop.times,
                            prop.states[:, :p, col],
                            prop.states[:, p:p + q, col])
        for t in (0.9, 1.8, 2.7):
            res_z, res_v = jacobi_frame_residual(g, field, t)
            assert np.linalg.norm(res_z) < 1e-5
            assert np.linalg.norm(res_v) < 1e-5


def test_matrix_at_off_grid(heis3):
    g = geo(heis3, [1.0], [1.0, 0.0])
    prop = integrate_propagator(g, 5.0)
    t = 2.3456
    direct = matrix_at(integrate_propagator(g, t, steps=600), t)
    assert np.abs(matrix_at(prop, t) - direct).max() < 1e-12 * np.abs(direct).max()
    # on-grid request returns the stored node: the raw state's (z, v) rows
    n = 640
    assert np.array_equal(matrix_at(prop, prop.times[n]), prop.states[n, :3])


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_matrix_at_refuses_a_time_that_is_not_finite(heis3, t):
    prop = integrate_propagator(geo(heis3, [1.0], [1.0, 0.0]), 3.0)
    with pytest.raises(ParseError, match="finite"):
        matrix_at(prop, t)
    with pytest.raises(ParseError, match="finite"):
        matrix_at(prop, np.array([0.5, t, 1.0]), full=True)
    # finite times past t_max stay allowed: the parity recheck samples t* + 1e-7 max(1, t*)
    assert np.isfinite(matrix_at(prop, [3.0 + 3e-7, -0.1, 7.0])).all()


def _system_reference(g, t):
    # the frame system's matrix on the full state (zeta, z, v, w), one column
    # per unit state, from bracket_v, j_map and expm
    alg = g.alg
    p, q = alg.dim_center, alg.dim_v
    ep, em = expm(t * g.J), expm(-t * g.J)
    xp = ep @ g.x0
    a = np.zeros((2 * (p + q),) * 2)
    for col, s in enumerate(np.eye(2 * (p + q))):
        zeta, v, w = s[:p], s[2 * p:2 * p + q], s[2 * p + q:]
        a[p:2 * p, col] = zeta + bracket_v(alg, ep @ v, xp)
        a[2 * p:2 * p + q, col] = w
        a[2 * p + q:, col] = em @ j_map(alg, zeta) @ xp - g.J @ w
    return a


@pytest.mark.parametrize("name, z0, x0", [
    ("heis3", [1.0], [1.0, 0.4]),
    ("pheis3", [1.2], [0.3, 1.0]),
    ("heis5w", [0.9], [1.0, 0.2, 0.3, 0.4]),
    ("bicenter", [0.6, -0.8], [0.0, 0.0, 0.0]),
])
def test_constant_system_states_match_expm(name, z0, x0):
    # p = 1 or x0 = 0: A is constant, and node and off-grid states are
    # exp(t A) applied to the initial state, to rounding.
    g = geo(fixture(name), z0, x0)
    p, q = g.alg.dim_center, g.alg.dim_v
    a = _system_reference(g, 0.0)
    assert np.abs(_system_reference(g, 1.7) - a).max() < 1e-12 * np.abs(a).max()
    s0 = np.zeros((2 * (p + q), p + q))
    s0[:p, :p] = np.eye(p)
    s0[2 * p + q:, p:] = np.eye(q)
    prop = integrate_propagator(g, 3.0, steps=397)    # blocks of 20, the last one short
    exact = np.stack([expm(t * a) @ s0 for t in prop.times])[:, p:]
    err = np.linalg.norm(prop.states - exact, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(exact, axis=(1, 2)))
    ts = np.array([0.0123, 0.4567, 1.5, 2.2222, 2.99])
    exact = np.stack([(expm(t * a) @ s0)[p:2 * p + q] for t in ts])
    err = np.linalg.norm(matrix_at(prop, ts) - exact, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(exact, axis=(1, 2)))


def test_matrix_at_array_equals_scalar_calls(heis5w, pheis3, bicenter):
    # transfers of different Pade degrees share an array, and none may see
    # the others: constant A below, and a varying A (Magnus) on bicenter's
    # mixed geodesic
    rng = np.random.default_rng(0)
    for g, t_max in ((geo(heis5w, [1.0], [1.0, 0.2, 0.3, 0.4]), 4.0),
                     (geo(pheis3, [1.0], [0.3, 1.0]), 9.0),
                     (geo(bicenter, [0.6, -0.8], [1.0, 0.5, -0.3]), 6.0)):
        prop = integrate_propagator(g, t_max)
        ts = np.concatenate([[0.0, 0.123, 1.0, 2.71828, prop.times[700], 3.999, t_max],
                             rng.uniform(0.0, t_max, 25)])
        batch = matrix_at(prop, ts)
        assert batch.shape == (ts.size,) + matrix_at(prop, 0.0).shape
        for t, m in zip(ts, batch):
            assert np.array_equal(m, matrix_at(prop, t))
        full = matrix_at(prop, ts, full=True)
        for t, m in zip(ts, full):
            assert np.array_equal(m, matrix_at(prop, t, full=True))
        # the raw map is the carried state's (z, v) rows times its block's factors
        p = g.alg.dim_center
        blocks = (np.searchsorted(prop.times, ts, side="right") - 1) // prop.block
        raw = full[:, p:2 * p + g.alg.dim_v] @ prop.scales[0][blocks]
        assert np.allclose(raw, batch, rtol=0.0, atol=1e-14 * np.abs(batch).max())
    # heis5w at z0 = 3 has h |A|_1 = 0.027, past theta_3: the transfers of a
    # constant A in one array need Pade degrees of their own
    prop = integrate_propagator(geo(heis5w, [3.0], [1.0, 0.2, 0.3, 0.4]), 4.0)
    ts = np.random.default_rng(0).uniform(0.0, 4.0, 200)
    for t, m in zip(ts, matrix_at(prop, ts, full=True)):
        assert np.array_equal(m, matrix_at(prop, t, full=True))


def _carry_spacing(prop):
    """The g of integrate_propagator: blocks between two factored block starts."""
    growth = np.linalg.norm(prop.systems[0], 2) * prop.block * prop.times[1]
    return max(1, int(oracle._CARRY_GROWTH / growth))


def test_block_start_is_invisible(pheis3):
    # boosting case at tmax 30: the carried state is factored at every g-th
    # block start and carried plainly across the others, and neither det M
    # nor the raw map sees either kind of start.  det M is read from the
    # carried (z, v) rows, as detect_conjugate reads it (the factors in scale
    # have det 1); the raw map's own det has lost its digits to the growth
    # by t = 20 here.
    g = geo(pheis3, [2.0], [1.0, 0.5])
    prop = integrate_propagator(g, 30.0)
    starts = prop.times[prop.block::prop.block]
    factored = np.arange(1, starts.size + 1) % _carry_spacing(prop) == 0
    assert 0 < factored.sum() < starts.size     # both kinds of start are checked
    below, above = (np.linalg.det(matrix_at(prop, starts + off, full=True)[:, 1:4])
                    for off in (-1e-9, 1e-9))
    assert np.all(np.abs(np.diagonal(prop.scales[0], axis1=1, axis2=2)) == 1.0)
    assert np.all(np.sign(below) == np.sign(above))
    assert np.all(np.abs(above / below - 1.0) < 1e-6)
    below, above = matrix_at(prop, starts - 1e-9), matrix_at(prop, starts + 1e-9)
    jump = np.linalg.norm(above - below, axis=(1, 2))
    assert np.all(jump <= 1e-6 * np.linalg.norm(below, axis=(1, 2)))
    ts = np.concatenate([starts - 1e-9, starts, starts + 1e-9, (starts[:-1] + starts[1:]) / 2])
    batch = matrix_at(prop, ts)
    for t, m in zip(ts, batch):
        assert np.array_equal(m, matrix_at(prop, t))


def test_doubled_powers_match_direct_stack(algebras):
    # block 0's nodes are the (zeta, w) columns of e^{j h A}, which the
    # doubling forms from e^{h A}; against a direct stack of the e^{j h A}
    # they err by at most 7.5e-15 relative (b = 72 on the boosting cases),
    # the direct stack by 2e-16 against scipy
    rng = np.random.default_rng(1)
    cases = [(_random_geodesic(alg, rng), 6.0) for alg in algebras.values() for _ in range(8)]
    cases += [(geo(algebras["pheis3"], z0, x0), t_max) for z0, x0, t_max in BOOSTING]
    checked = 0
    for g, t_max in cases:
        prop = integrate_propagator(g, t_max)
        if prop.systems is None:    # the cover's Lipschitz bound: none for a varying A
            assert prop.norms[0] == np.inf
            continue
        assert prop.norms[0] == np.linalg.norm(prop.systems[0], 2)
        p, q, b = g.alg.dim_center, g.alg.dim_v, prop.block
        columns = np.r_[:p, 2 * p + q:2 * (p + q)]
        direct = _expm_stack(prop.times[:b, None, None] * prop.systems[0])[..., columns]
        err = np.linalg.norm(prop.basis[:b] - direct, axis=(1, 2))
        assert np.all(err <= 1e-14 * np.linalg.norm(direct, axis=(1, 2)))
        checked += 1
    assert checked >= 30


def test_carry_is_factored_every_g_blocks_within_the_growth_bound(pheis3):
    # boosting case at tmax 30, |A|_2 = 2.51 and b h = 0.34: g = 4, so scale
    # changes exactly at block starts 4, 8, ..., 84.  Between factorizations
    # the states are e^{tA} C, C with orthogonal columns and |A|_2 t < G, so
    # the unit-column Gram matrix N^T N has condition at most r e^{4G}
    # (van der Sluis, Numer. Math. 14, 1969); here it reaches e^7.4.
    prop = integrate_propagator(geo(pheis3, [2.0], [1.0, 0.5]), 30.0)
    g, m = _carry_spacing(prop), prop.scales[0].shape[0]
    changed = np.nonzero(np.any(prop.scales[0][1:] != prop.scales[0][:-1], axis=(1, 2)))[0] + 1
    assert g == 4 and np.array_equal(changed, np.arange(g, m, g))
    unit = prop.basis / np.linalg.norm(prop.basis, axis=-2)[..., None, :]
    cond = np.linalg.cond(np.swapaxes(unit, -1, -2) @ unit)
    assert cond.max() <= prop.basis.shape[-1] * np.exp(4.0 * oracle._CARRY_GROWTH)


@pytest.mark.parametrize("name, z0, x0, t_max", [
    ("heis5w", None, None, 6.0),
    ("pheis3", [2.0], [1.0, 0.5], 30.0),             # boosting, past the column collapse
    ("bicenter", [0.6, -0.8], [1.0, 0.5, -0.3], 6.0),  # Magnus path
])
def test_scan_value_is_log_cosine_product(name, z0, x0, t_max):
    # the scan's log |det M| - sum log |s_j| - log det(N^T N) / 2 equals the
    # log of the product of the principal-angle cosines at every node
    alg = fixture(name)
    g = _random_geodesic(alg, np.random.default_rng(7)) if z0 is None else geo(alg, z0, x0)
    prop = integrate_propagator(g, t_max)
    p = alg.dim_center
    sign, scan = _log_cosine_product(prop.basis, p)
    product = np.prod(_cosines(prop.basis, p), axis=-1)
    value = np.exp(scan)
    assert np.all(np.abs(value - product) <= 1e-12)
    big = product > 1e-6
    assert big.sum() > 0.9 * big.size
    assert np.all(np.abs(value[big] / product[big] - 1.0) <= 1e-10)
    assert np.array_equal(sign, np.sign(np.linalg.det(prop.basis[:, p:2 * p + alg.dim_v])))


def test_odd_multiplicities_refined_by_illinois(heis5w, monkeypatch):
    # (2.558, 1), (3.148, 1) and (5.116, 3): det M changes sign across all
    # three, and each time comes from the Illinois iteration on the signed
    # smallest cosine, which crosses zero linearly also at multiplicity 3.
    g = geo(heis5w, [1.2282433281832617], [0.2102452110525806, 0.002738672169268366,
                                           -0.19372316431950426, -0.6587791533662792])
    illinois = []

    def spy(*args, **kwargs):
        roots = bracket_root(*args, **kwargs)
        illinois.extend(np.atleast_1d(roots).tolist())
        return roots

    monkeypatch.setattr(oracle, "bracket_root", spy)
    found = detect_conjugate(g, 6.0)
    closed = conjugate_times(g, 6.0)
    assert [m for _, m in found] == [c.multiplicity for c in closed] == [1, 1, 3]
    for (t, _), c in zip(found, closed):
        assert abs(t - c.t) <= DEFAULT_TOL.refine_tol
        assert t in illinois


def test_each_detection_propagates_through_integrate_propagator(algebras, monkeypatch):
    # one call through the module's integrate_propagator per detect_conjugate call:
    # perfbench/layers.py patches that name to time the oracle's propagation
    calls = []

    def spy(*args):
        calls.append(args)
        return integrate_propagator(*args)

    monkeypatch.setattr(oracle, "integrate_propagator", spy)
    rng = np.random.default_rng(3)
    cases = [(_random_geodesic(alg, rng), 6.0, None) for alg in algebras.values()]
    cases += [(geo(algebras["bicenter"], *F35), 6.0, None), (cases[0][0], 5.0, 1000)]
    for n, (g, t_max, steps) in enumerate(cases, 1):
        detect_conjugate(g, t_max, steps)
        assert len(calls) == n and calls[-1] == (g, t_max, steps)


def _golden_spy(monkeypatch):
    """Patch oracle.golden_min; return the lower ends of its brackets and
    the number of calls of f that each of its calls makes."""
    brackets, evals = [], []

    def spy(f, a, *args, **kwargs):
        brackets.extend(np.atleast_1d(a).tolist())
        evals.append(0)

        def counted(t, *i):
            evals[-1] += 1
            return f(t, *i)

        return golden_min(counted, a, *args, **kwargs)

    monkeypatch.setattr(oracle, "golden_min", spy)
    return brackets, evals


def test_central_even_times_take_few_evaluations(heis3, heis5w, monkeypatch):
    # tangent to the center every time has even multiplicity, so det M keeps
    # its sign and golden_min refines it.  The smallest cosine is a V there:
    # V steps reach refine_tol in at most 8 calls of f (golden section alone
    # takes 35), and the times agree with the closed forms to refine_tol.
    _, evals = _golden_spy(monkeypatch)
    rng = np.random.default_rng(11)
    even = 0
    for alg in (heis3, heis5w):
        for _ in range(60):
            z0 = rng.standard_normal(alg.dim_center)
            z0 *= (0.5 + rng.random()) / np.linalg.norm(z0)
            g = geo(alg, z0, np.zeros(alg.dim_v))
            found, closed = detect_conjugate(g, 6.0), conjugate_times(g, 6.0)
            assert [m for _, m in found] == [c.multiplicity for c in closed]
            for (t, m), c in zip(found, closed):
                if m % 2 == 0:
                    even += 1
                    assert abs(t - c.t) <= DEFAULT_TOL.refine_tol
    assert even > 100 and len(evals) > 50
    assert max(evals) <= 8


def test_decreasing_horizon_without_time_is_not_refined(heis3, monkeypatch):
    # the scan falls toward 2 pi at the horizon, but the smallest cosine
    # there is 0.77 and |A|_2 h is 5.5e-3: no time fits in the last cell
    g = geo(heis3, [1.0], [0.0, 0.0])
    prop = integrate_propagator(g, 5.0)
    scan = _log_cosine_product(prop.basis, 1)[1]
    assert scan[-1] < scan[-2]
    brackets, _ = _golden_spy(monkeypatch)
    assert detect_conjugate(g, 5.0) == []
    assert brackets == []


def test_time_in_last_cell_is_refined(heis3, monkeypatch):
    # 2 pi (multiplicity 2, no sign change) lies between the last two nodes
    g = geo(heis3, [1.0], [0.0, 0.0])
    t_max = 2.0 * np.pi + 1e-3
    prop = integrate_propagator(g, t_max)
    assert prop.times[-2] < 2.0 * np.pi
    brackets, _ = _golden_spy(monkeypatch)
    found = detect_conjugate(g, t_max)
    assert brackets == [prop.times[-2]]
    assert len(found) == 1 and found[0][1] == 2
    assert found[0][0] == pytest.approx(2.0 * np.pi, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["heis3", "pheis3", "heis5w"]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_smallest_cosine_is_lipschitz(name, seed, u, w):
    # |sigma_min(t) - sigma_min(s)| <= |A|_2 |t - s|, the bound detect_conjugate
    # uses to skip brackets
    g = _random_geodesic(fixture(name), np.random.default_rng(seed))
    prop = integrate_propagator(g, 6.0)
    t, s = 6.0 * u, np.clip(6.0 * u + 0.3 * (w - 0.5), 0.0, 6.0)
    c_t, c_s = _cosines(matrix_at(prop, np.array([t, s]), full=True), 1)[:, -1]
    assert abs(c_t - c_s) <= np.linalg.norm(prop.systems[0], 2) * abs(t - s) + 1e-14


BOOSTING = [([1.0], [1.0, 0.0], 20.0), ([1.0], [0.3, 1.0], 20.0), ([2.0], [1.0, 0.5], 10.0)]


@pytest.mark.parametrize("name, z0, x0, t_max", [("pheis3", *case) for case in BOOSTING] + [
    # kept cells whose outer neighbours only the cover's last read supplies
    ("heis3", [1.2880395945039917], [-0.4857076904852617, -0.888260090320954], 16.0),
    ("heis3", None, None, 6.0), ("pheis3", None, None, 6.0), ("heis5w", None, None, 6.0)])
def test_cover_clears_no_cell_that_can_hold_a_time(name, z0, x0, t_max):
    # the certificate: on every cell the cover clears, the smallest cosine is
    # at least rank_tol at 8 interior points (z0 None: 10 draws of
    # default_rng(11) per one-dimensional-center fixture).  The nodes it reads,
    # among them both neighbours of every kept cell, carry the full scan's
    # values, so the candidate rules see what they saw on every node.
    alg = fixture(name)
    rng = np.random.default_rng(11)
    draws = [geo(alg, z0, x0)] if z0 else [_random_geodesic(alg, rng) for _ in range(10)]
    for g in draws:
        prop = integrate_propagator(g, t_max)
        sign, scan, live = _cover(prop, DEFAULT_TOL.rank_tol)
        read = ~np.isnan(scan)
        full_sign, full_scan = _log_cosine_product(prop.basis, 1)
        assert np.array_equal(scan[read], full_scan[read])
        assert np.array_equal(sign[read], full_sign[read])
        kept = np.nonzero(live)[0]
        assert read[np.clip(np.concatenate([kept - 1, kept + 2]), 0, live.size)].all()
        cleared = np.nonzero(~live)[0]
        assert cleared.size > live.size / 2
        t = prop.times[cleared, None] + prop.times[1] * np.arange(1, 9) / 9.0
        assert _cosines(matrix_at(prop, t, full=True), 1)[..., -1].min() >= DEFAULT_TOL.rank_tol


def _rows_read(monkeypatch):
    rows = []

    def spy(states, p):
        rows.append(states.shape[0])
        return _log_cosine_product(states, p)

    monkeypatch.setattr(oracle, "_log_cosine_product", spy)
    return rows


@pytest.mark.parametrize("case, share", [(0, 0.10), (1, 0.10), (2, 0.25)])
def test_cover_reads_few_nodes_on_boosting_cases(pheis3, monkeypatch, case, share):
    # 5,121, 5,121 and 2,561 nodes, of which the full scan read every one
    z0, x0, t_max = BOOSTING[case]
    rows = _rows_read(monkeypatch)
    g = geo(pheis3, z0, x0)
    assert compare(conjugate_times(g, t_max), detect_conjugate(g, t_max)).ok
    assert sum(rows) <= share * (default_steps(t_max) + 1)


def test_cover_reads_no_node_twice(bicenter, monkeypatch):
    # draw 490 of the random-algebra probe (default_rng(1), z0 x 4, tmax 13)
    # clears no interval; a varying A (bicenter, mixed) has no bound at all
    structure = np.zeros((1, 4, 4))
    structure[0, 0, 2], structure[0, 0, 3] = -1.9327734792407785, -1.2943125559549216
    structure[0, 1, 2] = 2.123911190262613
    alg = MetricLieAlgebra(1, 4, np.diag([1.0, 1.0, 1.0, -1.0, -1.0]),
                           structure - structure.transpose(0, 2, 1))
    g490 = geo(alg, [4 * 0.5710181839783786], [0.7998391525908957, -0.5169822635467994,
                                                -0.22031945102385522, -1.1085874631122914])
    for g, t_max in ((g490, 13.0), (geo(bicenter, [0.6, -0.8], [1.0, 0.5, -0.3]), 6.0)):
        rows = _rows_read(monkeypatch)
        detect_conjugate(g, t_max)
        assert sum(rows) <= default_steps(t_max) + 1


# FOUND 35's varying-A geodesic (bicenter, no closed form)
F35 = ([0.26281347468087773, -1.3239979007293081],
       [0.5328487091984951, -0.39833805286595714, -0.25271296649491715])


def _chunk_spy(monkeypatch):
    """Patch oracle._integrate; return (geodesics, stored entries, one node basis) per pass."""
    chunks, integrate = [], oracle._integrate

    def spy(geos, t_max, steps):
        prop = integrate(geos, t_max, steps)
        d, r = prop.start.shape[-2:]
        stored = prop.local.size + prop.start.size + prop.scales.size
        chunks.append((len(geos), stored, prop.times.size * d * r))
        return prop

    monkeypatch.setattr(oracle, "_integrate", spy)
    return chunks


@pytest.mark.parametrize("name", ["heis3", "pheis3", "heis5w", "bicenter"])
def test_list_does_not_depend_on_the_stack(name, monkeypatch):
    # 12 draws at tmax 6 go in chunks of 10: the stack is cut after draw 10,
    # its reverse after draw 2, and each list is the one its geodesic gets alone
    alg = fixture(name)
    rng = np.random.default_rng(17)
    draws = [_random_geodesic(alg, rng) for _ in range(12)]
    alone = [detect_conjugate(g, 6.0) for g in draws]
    assert sum(map(len, alone)) > 0
    chunks = _chunk_spy(monkeypatch)
    assert detect_stack(draws, 6.0) == alone
    assert detect_stack(draws[::-1], 6.0) == alone[::-1]
    assert [k for k, _, _ in chunks] == [10, 2, 10, 2]


def test_chunks_store_at_most_one_geodesics_node_states(algebras, monkeypatch):
    # k = max(1, floor(2 (steps + 1) / (4 (b + 1) + 3 m))) is 10 on every
    # fixture at tmax 6; a varying-A geodesic goes alone, wherever it stands
    bicenter = algebras["bicenter"]
    rng = np.random.default_rng(3)
    mixed = [geo(bicenter, *F35)] + [_random_geodesic(bicenter, rng) for _ in range(3)]
    alone = detect_conjugate(mixed[0], 6.0)
    chunks = _chunk_spy(monkeypatch)
    for alg in algebras.values():
        detect_stack([_random_geodesic(alg, rng) for _ in range(25)], 6.0)
    assert [k for k, _, _ in chunks] == [10, 10, 5] * 4
    assert all(stored <= basis for _, stored, basis in chunks)
    del chunks[:]
    assert detect_stack(mixed, 6.0)[0] == alone
    assert [k for k, _, _ in chunks] == [3, 1]
    assert chunks[0][1] <= chunks[0][2]


@pytest.mark.parametrize("share", [1, 10, 100])
def test_chunks_keep_the_cover_within_the_memory_bound(algebras, monkeypatch, share):
    # the cover's flat arrays hold k (steps + 1) entries each: at steps * d^2 =
    # _MAX_STATE_ENTRIES / share a chunk takes at most share geodesics, one at the
    # bound, where blocks alone would allow 275 on heis3; the passes are stubbed
    sizes = []
    monkeypatch.setattr(oracle, "_integrate", lambda geos, t_max, steps: geos)
    monkeypatch.setattr(oracle, "_detect", lambda geos, tol: sizes.append(len(geos)) or
                        [[] for _ in geos])
    rng = np.random.default_rng(4)
    for alg in algebras.values():
        sizes.clear()
        d2 = (2 * alg.dim) ** 2
        steps = oracle._MAX_STATE_ENTRIES // (share * d2)
        draws = [_random_geodesic(alg, rng) for _ in range(300)]
        assert detect_stack(draws, 6.0, steps) == [[]] * 300 and sum(sizes) == 300
        k = max(sizes)
        assert k * (steps + 1) * d2 <= oracle._MAX_STATE_ENTRIES or k == 1
        assert k <= share and (share == 1 or k > 1)


def test_basis_is_the_node_states_formed_on_demand(heis5w, bicenter):
    # every node of Propagator.basis, of a stack's node reads one at a time,
    # and of the full blocked product the propagator used to store are one array
    rng = np.random.default_rng(2)
    draws = [_random_geodesic(heis5w, rng) for _ in range(20)]
    stack = oracle._integrate(draws, 6.0, None)
    props = [integrate_propagator(g, 6.0) for g in draws] + [
        integrate_propagator(geo(bicenter, *F35), 6.0)]
    for i, prop in enumerate(props):
        n1, b, (m, d, r) = prop.times.size, prop.block, prop.start.shape
        local = prop.local.reshape(m, b + 1, d, d) if prop.systems is None else prop.local
        blocked = (local[..., :b, :, :] @ prop.start[:, None]).reshape(m * b, d, r)[:n1]
        assert np.array_equal(prop.basis, blocked)
        assert all(np.array_equal(prop.nodes(0, np.array([n]))[0], blocked[n]) for n in range(n1))
        if i < len(draws):
            assert np.array_equal(stack.nodes(i, np.arange(n1)), blocked)
    assert props[-1].systems is None and props[0].systems is not None


# ---------------------------------------------------------------------------
# cases a relative sigma_min rank test gets wrong, each against the closed forms


def _agrees(g, t_max):
    report = compare(conjugate_times(g, t_max), detect_conjugate(g, t_max),
                     match_tol=DEFAULT_TOL.match_tol)
    return report.ok


@pytest.mark.parametrize("seed, draw", [
    (1621709874, 38),   # z0 ~ 1.3783
    (1610287435, 28),   # z0 ~ 1.2386
    (1215149685, 18),   # z0 ~ 1.2279
    (661972120, 13),    # z0 ~ -1.3932
    (1215614406, 35),   # z0 ~ -1.3834
    (1679063339, 20),   # z0 ~ -1.3924: 2.25630 and 2.25679 share one grid cell
])
def test_heis5w_close_pair(heis5w, seed, draw):
    # draws of `compare --algebra heis5w --random 50 --tmax 6`: two conjugate
    # times so close that sigma_min has one minimum between them.
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        _random_geodesic(heis5w, rng)
    g = _random_geodesic(heis5w, rng)
    assert _agrees(g, 6.0)


def test_close_pair_in_one_cell_found_by_parity(heis5w):
    rng = np.random.default_rng(1679063339)
    for _ in range(20):
        _random_geodesic(heis5w, rng)
    g = _random_geodesic(heis5w, rng)
    prop = integrate_propagator(g, 6.0)
    found = [t for t, _ in detect_conjugate(g, 6.0)]
    pair = [t for t in found if 2.25 < t < 2.26]
    assert len(pair) == 2
    # both roots lie between the same two grid nodes
    assert np.searchsorted(prop.times, pair[0]) == np.searchsorted(prop.times, pair[1])


def test_heis5w_close_pair_lattice_and_transcendental(heis5w):
    # 2.1274 (lattice) and 2.1305 (transcendental), 3.1e-3 apart on a grid of 3.9e-3
    g = geo(heis5w, [1.4767218085145808], [0.14068369244111795, 1.4862185428771206,
                                           0.07120020621413889, 0.03668892498323855])
    assert _agrees(g, 6.0)


def _probe_algebra(p, signs, brackets):
    # an algebra of the random-algebra probe: a diagonal gram of signs and
    # the drawn bracket outputs [e_a, e_b], a < b
    q = len(signs) - p
    structure = np.zeros((p, q, q))
    for (a, b), out in brackets.items():
        structure[:, a, b] = out
    return MetricLieAlgebra(p, q, np.diag(signs), structure - structure.transpose(0, 2, 1))


# draws of the random-algebra probe (default_rng(1), z0 x 4, tmax 13) whose
# close times the node grid does not resolve at the default steps
DRAW372 = geo(_probe_algebra(1, [-1.0, 1.0, -1.0, -1.0, 1.0], {
    (0, 2): [-0.5823769145327601], (0, 3): [-0.5363744007728517],
    (1, 2): [0.9341254477049766], (1, 3): [0.6655525025862856]}),
    [4.522136403560193],
    [0.14009134362724399, -0.2115980654293256, -0.27369573572655836, 0.4343360251194224])
DRAW475 = geo(_probe_algebra(2, [-1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0], {
    (0, 1): [3.074577008618543, 0.64242265951459],
    (0, 3): [0.4321027192365457, -1.0127348640193927],
    (0, 4): [-1.1566048292159474, 0.6267508710582932],
    (1, 2): [1.04678272324619, 0.030018540762018205],
    (1, 3): [0.45594016963848527, -1.3656616681922724],
    (1, 4): [1.1047322952888357, 0.4661943271181439],
    (2, 4): [0.7620342289445372, 1.6859997656450614],
    (3, 4): [-0.5796209656742963, 0.2615108640443973]}),
    [2.137223106827074, 4.838178196012227], [0.0, 0.0, 0.0, 0.0, 0.0])


CLOSE_TIMES = pytest.mark.parametrize("g, close", [
    (DRAW372, [7.143770756, 7.144805703, 7.145663006]),   # transcendental, then two lattice
    (DRAW475, [12.615509936, 12.619009572]),              # central, two mult-2 lattice times
], ids=["draw372", "draw475"])


@CLOSE_TIMES
def test_close_times_of_the_closed_forms(g, close):
    times = [ct.t for ct in conjugate_times(g, 13.0)]
    assert [t for t in times if close[0] - 1e-6 < t < close[-1] + 1e-6] == \
        pytest.approx(close, abs=1e-8)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: sub-node halving is still open")
@CLOSE_TIMES
def test_close_times_resolved_at_default_steps(g, close):
    # the oracle reports only the first close time here: at 1x and 2x the
    # steps on draw 372 (8x resolves it), at 1x on draw 475 (2x resolves it)
    assert _agrees(g, 13.0)


@pytest.mark.parametrize("z0, x0", [
    ([0.6371015629958534], [-0.8204881725645088, 0.7657690891565998]),
    ([0.66406797], [0.5745103752787031, -0.48600757624783547]),
])
def test_pheis3_horizon_control(pheis3, z0, x0):
    # sigma_min / sigma_max of M falls to 6.8e-7 and 7.1e-7 at t = 16, below
    # rank_tol, and the horizon was reported as a conjugate time; the
    # smallest principal-angle cosine there is 0.42.
    g = geo(pheis3, z0, x0)
    assert conjugate_times(g, 16.0) == []
    assert detect_conjugate(g, 16.0) == []


@pytest.mark.parametrize("z0, x0, t_max", [
    ([1.0], [1.0, 0.0], 20.0),
    ([1.0], [0.3, 1.0], 20.0),
    ([2.0], [1.0, 0.5], 10.0),
])
def test_boosting_cases_have_no_false_drops(pheis3, z0, x0, t_max):
    # solutions grow like e^(|z0| t); the relative test reported dozens of
    # multiplicity-2 drops near these horizons.
    assert _agrees(geo(pheis3, z0, x0), t_max)


@pytest.mark.parametrize("z0, x0", [([1.0], [1.0, 0.0]), ([1.0], [0.3, 1.0]), ([2.0], [1.0, 0.5])])
def test_boosting_cases_long_horizon(pheis3, z0, x0):
    # past the column collapse: e^(2 rate t) reaches 1e26 and 1e52 by t = 30,
    # where an uncarried state reported 2, 2 and 167 spurious times.
    assert _agrees(geo(pheis3, z0, x0), 30.0)


@pytest.mark.parametrize("name, draws", [
    ("phyp", [0, 1, 2, 3, 4, 5, 12, 15, 16, 21, 25, 27, 28, 45, 51, 52, 54]),
    ("cplx", [1, 5, 15, 16, 27, 28, 45, 52, 54]),
])
def test_random_draws_past_collapse(request, name, draws):
    # the draws of `_random_geodesic` on default_rng(5), tmax 13, whose
    # boosting rates collapsed an uncarried state (spurious or shifted times).
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    drawn = [_random_geodesic(alg, rng) for _ in range(draws[-1] + 1)]
    assert [k for k in draws if not _agrees(drawn[k], 13.0)] == []


def test_oracle_matches_closed_forms_wide(heis5w):
    g = geo(heis5w, [1.0], [0.0, 0.0, 0.0, 0.0])
    closed = conjugate_times(g, 13.0)
    report = compare(closed, detect_conjugate(g, 13.0), match_tol=1e-5)
    assert report.ok
    assert len(report.matched) == 4


# ---------------------------------------------------------------------------
# match report plumbing


def test_compare_matching():
    closed = [(1.0, 2), (2.0, 1)]
    detected = [(1.0 + 5e-6, 2), (2.0 - 3e-6, 1)]
    rep = compare(closed, detected, match_tol=1e-5)
    assert rep.ok and len(rep.matched) == 2


def test_compare_missing_and_spurious():
    rep = compare([(1.0, 1)], [(5.0, 1)], match_tol=1e-5)
    assert not rep.ok
    assert rep.missing == [(1.0, 1)]
    assert rep.spurious == [(5.0, 1)]


def test_compare_spurious_between_matches():
    rep = compare([(1.0, 1), (3.0, 1)], [(1.0, 1), (2.0, 1), (3.0, 1)], match_tol=1e-5)
    assert not rep.ok
    assert rep.spurious == [(2.0, 1)]
    assert not rep.missing and len(rep.matched) == 2


def test_compare_mult_mismatch():
    rep = compare([(1.0, 2)], [(1.0, 1)], match_tol=1e-5)
    assert not rep.ok
    assert rep.mult_mismatches == [(1.0, 2, 1)]
    assert rep.matched  # still paired by time


def test_compare_accepts_conjugate_time_objects():
    closed = [ConjugateTime(3.0, 2, "lattice")]
    rep = compare(closed, [(3.0, 2)], match_tol=1e-5)
    assert rep.ok
    assert isinstance(rep, MatchReport)


def test_compare_reads_json_pairs_and_refuses_other_entries():
    # json.loads gives [t, mult] lists, once read as ConjugateTime objects
    # (AttributeError: 'list' object has no attribute 't')
    closed = json.loads("[[1.0, 2], [2.0, 1]]")
    rep = compare(closed, json.loads("[[1.000001, 2], [2.0, 1]]"), match_tol=1e-5)
    assert rep.ok and rep.matched == [(1.0, 1.000001, 2, 2), (2.0, 2.0, 1, 1)]
    assert compare([np.array([3.0, 2.0])], [ConjugateTime(3.0, 2, "lattice")]).ok
    assert compare(json.loads("[[1.0, 2.0]]"), [(1.0, 2)]).ok     # an integral float counts
    for bad in ("12", b"12", 3.0, None, [1.0], [1.0, 2, 3], ["t", 1], {"t": 1.0}):
        with pytest.raises(ParseError):
            compare([bad], [(1.0, 1)], match_tol=1e-5)
        with pytest.raises(ParseError):
            compare([(1.0, 1)], [bad], match_tol=1e-5)


@pytest.mark.parametrize("bad", [(1.0, 2.7), (1.0, True), (1.0, 0), (1.0, -1), (1.0, "2"),
                                 (np.nan, 2), (np.inf, 2), (1.0, np.inf), (1.0, np.nan),
                                 ("1.0", 2), (True, 2), (1.0, np.True_)])
def test_compare_refuses_a_time_not_finite_or_a_multiplicity_not_whole(bad):
    # int(2.7) truncated, so (1.0, 2.7) matched (1.0, 2); a nan time broke the sort
    # the greedy match relies on; float("1.0"), float(True) and int(np.True_) let a
    # string, a bool and a numpy bool through
    with pytest.raises(ParseError):
        compare([bad], [(1.0, 2)], match_tol=1e-5)
    with pytest.raises(ParseError):
        compare([(1.0, 2)], [bad], match_tol=1e-5)


@pytest.mark.parametrize("match_tol", [np.nan, np.inf, -1e-5])
def test_compare_refuses_a_bad_match_tol(match_tol):
    # a nan tolerance once matched nothing and reported one missing, one spurious
    with pytest.raises(ParseError, match="match_tol"):
        compare([(1.0, 1)], [(1.0, 1)], match_tol=match_tol)


def test_oracle_imports_nothing_from_the_closed_forms():
    # the oracle stays independent of the closed forms: every import, from or plain,
    # relative or absolute, resolves to a dotted name, and those in nilconj name only
    # the shared layers (a bare "import nilconj" would name the package itself)
    names = []
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("nilconj" + "." * bool(node.module) if node.level else "") + (node.module or "")
            names += [f"{module}.{alias.name}" for alias in node.names]
    parts = [name.split(".") for name in names]
    imported = {p[1] if len(p) > 1 else p[0] for p in parts if p[0] == "nilconj"}
    assert imported == {"config", "errors", "geometry", "numerics"}
