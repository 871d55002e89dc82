"""Geometry layer: connection, curvature, geodesics, frame fields, residuals."""

import numpy as np
import pytest
from scipy.linalg import expm

import nilconj.geometry as geometry_module
from nilconj import (
    AlgebraElement,
    GeodesicSpec,
    InsufficientSamplesError,
    JacobiField,
    ParseError,
    bracket,
    conjugate_times,
    connection,
    curvature,
    field_values,
    fixture,
    geodesic_point,
    geodesic_velocity,
    inner,
    jacobi_frame_residual,
    jacobi_operator,
    serialize_field,
)
from nilconj.algebra import FIXTURE_NAMES


def rand_elem(rng, alg, unit=False):
    u = AlgebraElement(rng.standard_normal(alg.dim_center), rng.standard_normal(alg.dim_v))
    if unit:
        n = np.linalg.norm(u.coords())
        u = (1.0 / n) * u
    return u


def elem(alg, z, v):
    return AlgebraElement(np.asarray(z, float), np.asarray(v, float))


# ---------------------------------------------------------------------------
# connection


def test_connection_frozen_heis3(heis3):
    e1 = elem(heis3, [0.0], [1.0, 0.0])
    e2 = elem(heis3, [0.0], [0.0, 1.0])
    z1 = elem(heis3, [1.0], [0.0, 0.0])
    assert connection(heis3, e1, e2).coords() == pytest.approx([0.5, 0.0, 0.0])
    assert connection(heis3, e2, e1).coords() == pytest.approx([-0.5, 0.0, 0.0])
    # center slot: -J e1 / 2 = -e2 / 2, symmetric in the two arguments.
    assert connection(heis3, z1, e1).coords() == pytest.approx([0.0, 0.0, -0.5])
    assert connection(heis3, e1, z1).coords() == pytest.approx([0.0, 0.0, -0.5])
    assert connection(heis3, z1, z1).coords() == pytest.approx([0.0, 0.0, 0.0])


def test_connection_frozen_heis5w(heis5w):
    e3 = elem(heis5w, [0.0], [0, 0, 1, 0])
    e4 = elem(heis5w, [0.0], [0, 0, 0, 1])
    assert connection(heis5w, e3, e4).z == pytest.approx([1.0])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_connection_torsion_free(name):
    alg = fixture(name)
    rng = np.random.default_rng(41)
    for _ in range(50):
        u, w = rand_elem(rng, alg), rand_elem(rng, alg)
        lhs = connection(alg, u, w) - connection(alg, w, u)
        rhs = bracket(alg, u, w)
        assert np.linalg.norm((lhs - rhs).coords()) < 1e-12 * (
            1.0 + np.linalg.norm(u.coords()) * np.linalg.norm(w.coords()))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_connection_metric_compatible(name):
    # left-invariant fields have constant pairings, so the compatibility
    # identity reduces to <conn_u w, y> + <w, conn_u y> = 0.
    alg = fixture(name)
    rng = np.random.default_rng(42)
    for _ in range(50):
        u, w, y = (rand_elem(rng, alg) for _ in range(3))
        s = inner(alg, connection(alg, u, w), y) + inner(alg, w, connection(alg, u, y))
        assert abs(s) < 1e-12 * (1.0 + abs(inner(alg, w, y)))


# ---------------------------------------------------------------------------
# curvature


def test_curvature_frozen_heis3(heis3):
    e1 = elem(heis3, [0.0], [1.0, 0.0])
    e2 = elem(heis3, [0.0], [0.0, 1.0])
    z1 = elem(heis3, [1.0], [0.0, 0.0])
    assert curvature(heis3, z1, e1, z1).coords() == pytest.approx([0.0, -0.25, 0.0])
    assert curvature(heis3, e1, e2, e2).coords() == pytest.approx([0.0, -0.75, 0.0])
    # plane section spanned by e1, e2 has positive numerator 3/4 <z,z>... sign
    # pinned through the pairing instead of the full sectional formula:
    assert inner(heis3, curvature(heis3, e1, e2, e2), e1) == pytest.approx(-0.75)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_curvature_matches_commutator(name):
    alg = fixture(name)
    rng = np.random.default_rng(43)
    for _ in range(50):
        x, y, w = (rand_elem(rng, alg) for _ in range(3))
        direct = curvature(alg, x, y, w)
        comm = (connection(alg, x, connection(alg, y, w))
                - connection(alg, y, connection(alg, x, w))
                - connection(alg, bracket(alg, x, y), w))
        scale = 1.0 + max(np.linalg.norm(e.coords()) for e in (x, y, w)) ** 3
        assert np.linalg.norm((direct - comm).coords()) < 1e-12 * scale


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_curvature_symmetries(name):
    alg = fixture(name)
    rng = np.random.default_rng(44)
    for _ in range(25):
        x, y, w, u = (rand_elem(rng, alg, unit=True) for _ in range(4))
        r_xyw = curvature(alg, x, y, w)
        # antisymmetry in the first pair
        assert np.linalg.norm((r_xyw + curvature(alg, y, x, w)).coords()) < 1e-12
        # pair symmetry <R(x,y)w, u> = <R(w,u)x, y>
        assert inner(alg, r_xyw, u) == pytest.approx(
            inner(alg, curvature(alg, w, u, x), y), abs=1e-12)
        # first Bianchi identity
        cyc = r_xyw + curvature(alg, y, w, x) + curvature(alg, w, x, y)
        assert np.linalg.norm(cyc.coords()) < 1e-12


# ---------------------------------------------------------------------------
# Jacobi operator along a geodesic


def test_jacobi_operator_frozen_central(heis3):
    geo = GeodesicSpec(heis3, [1.0], [0.0, 0.0])
    out = jacobi_operator(geo, 0.7, elem(heis3, [0.0], [1.0, 0.0]))
    assert out.coords() == pytest.approx([0.0, 0.25, 0.0])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_jacobi_operator_matches_curvature(name):
    alg = fixture(name)
    rng = np.random.default_rng(45)
    for _ in range(20):
        z0 = rng.standard_normal(alg.dim_center)
        x0 = rng.standard_normal(alg.dim_v)
        z0 /= np.linalg.norm(z0)
        x0 /= np.linalg.norm(x0)
        geo = GeodesicSpec(alg, z0, x0)
        t = float(rng.uniform(0.0, 5.0))
        y = rand_elem(rng, alg, unit=True)
        gdot = geodesic_velocity(geo, t)
        direct = jacobi_operator(geo, t, y)
        ref = curvature(alg, y, gdot, gdot)
        assert np.linalg.norm((direct - ref).coords()) < 1e-10


def test_jacobi_operator_kills_velocity(heis5w):
    rng = np.random.default_rng(46)
    geo = GeodesicSpec(heis5w, rng.standard_normal(1), rng.standard_normal(4))
    for t in (0.0, 1.1, 4.4):
        out = jacobi_operator(geo, t, geodesic_velocity(geo, t))
        assert np.linalg.norm(out.coords()) < 1e-10


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_jacobi_operator_self_adjoint(name):
    alg = fixture(name)
    rng = np.random.default_rng(47)
    geo = GeodesicSpec(alg, rng.standard_normal(alg.dim_center),
                       rng.standard_normal(alg.dim_v))
    for _ in range(10):
        t = float(rng.uniform(0.0, 4.0))
        y, w = rand_elem(rng, alg, unit=True), rand_elem(rng, alg, unit=True)
        a = inner(alg, jacobi_operator(geo, t, y), w)
        b = inner(alg, y, jacobi_operator(geo, t, w))
        assert a == pytest.approx(b, abs=1e-10)


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_spec_validation(heis3):
    with pytest.raises(ParseError):
        GeodesicSpec(heis3, [1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ParseError):
        GeodesicSpec(heis3, [1.0], [0.0])


def test_geodesic_spec_speed(heis3, pheis3):
    assert GeodesicSpec(heis3, [1.0], [1.0, 0.0]).speed == pytest.approx(2.0)
    # null velocity in the indefinite metric
    assert GeodesicSpec(pheis3, [1.0], [0.0, 1.0]).speed == pytest.approx(0.0)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_velocity_isometry(name):
    alg = fixture(name)
    rng = np.random.default_rng(48)
    geo = GeodesicSpec(alg, rng.standard_normal(alg.dim_center),
                       rng.standard_normal(alg.dim_v))
    for t in rng.uniform(0.0, 10.0, size=8):
        gdot = geodesic_velocity(geo, float(t))
        # boosting directions grow like e^{t rate}; the invariant inner
        # product then cancels catastrophically, so scale the tolerance.
        cond = 1.0 + float(np.sum(gdot.coords() ** 2))
        assert inner(alg, gdot, gdot) == pytest.approx(geo.speed, abs=1e-12 * cond)


def test_geodesic_point_frozen_heis3(heis3):
    geo = GeodesicSpec(heis3, [1.0], [1.0, 0.0])
    t = 1.2345
    pt = geodesic_point(geo, t)
    assert pt.v == pytest.approx([np.sin(t), 1.0 - np.cos(t)], abs=1e-12)
    assert pt.z == pytest.approx([t + 0.5 * (t - np.sin(t))], abs=1e-9)
    # after a full period the complement part returns to the origin.
    pt = geodesic_point(geo, 2.0 * np.pi)
    assert np.linalg.norm(pt.v) < 1e-10
    assert pt.z == pytest.approx([3.0 * np.pi], abs=1e-9)


def test_geodesic_point_boosting_pheis3(pheis3):
    # exact lift: a long boosting geodesic costs one small exponential.
    geo = GeodesicSpec(pheis3, [1.0], [1.0, 0.0])
    t = 10.0
    pt = geodesic_point(geo, t)
    assert pt.v == pytest.approx([np.sinh(t), 1.0 - np.cosh(t)], rel=1e-12)
    assert pt.z == pytest.approx([1.5 * t - 0.5 * np.sinh(t)], rel=1e-12)


def test_geodesic_point_straight_and_central(heis5w):
    x0 = np.array([0.3, -0.2, 1.0, 0.4])
    geo = GeodesicSpec(heis5w, [0.0], x0)
    pt = geodesic_point(geo, 2.5)
    assert pt.v == pytest.approx(2.5 * x0, abs=1e-12)
    assert np.linalg.norm(pt.z) < 1e-12
    geo = GeodesicSpec(heis5w, [0.7], np.zeros(4))
    pt = geodesic_point(geo, 3.0)
    assert pt.z == pytest.approx([2.1], abs=1e-14)
    assert np.linalg.norm(pt.v) < 1e-14
    assert geodesic_point(geo, 0.0).coords() == pytest.approx(np.zeros(5))


@pytest.mark.parametrize("t", [20.0, 30.0])
def test_geodesic_point_long_boosting_pheis3(pheis3, t):
    geo = GeodesicSpec(pheis3, [1.0], [1.0, 0.0])
    pt = geodesic_point(geo, t)
    exact = np.array([1.5 * t - 0.5 * np.sinh(t), np.sinh(t), 1.0 - np.cosh(t)])
    assert np.abs(pt.coords() - exact).max() <= 1e-12 * np.abs(exact).max()


def random_stack(alg, rng, k):
    """k rows of initial data, every third one straight (z0 = 0), and k times in [0, 8)."""
    z0 = rng.standard_normal((k, alg.dim_center))
    z0[::3] = 0.0
    return z0, rng.standard_normal((k, alg.dim_v)), rng.uniform(0.0, 8.0, k)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_geodesic_point_stack_matches_one_by_one(name):
    alg = fixture(name)
    z0, x0, ts = random_stack(alg, np.random.default_rng(61), 40)
    stacked = geodesic_point((alg, z0, x0), ts)
    assert stacked.shape == (40, alg.dim)
    for row, z, x, t in zip(stacked, z0, x0, ts):
        one = geodesic_point(GeodesicSpec(alg, z, x), t).coords()
        assert np.abs(row - one).max() <= 1e-13 * np.abs(one).max()


def test_geodesic_point_stack_keeps_straight_rows_exact(pheis3, heis3z2):
    # J = 0 rows come back as (t z0, t x0) bit for bit: z0 = 0, and on
    # heis3z2 a center direction that brackets with nothing
    for alg, z0 in ((pheis3, [[0.0], [0.5], [0.0]]),
                    (heis3z2, [[0.0, 0.7], [0.5, 0.0], [0.0, -2.0]])):
        z0, x0 = np.array(z0), np.array([[0.3, -1.1], [1.0, 0.2], [2.0, 5.0]])
        ts = np.array([0.7, 3.0, 41.0])
        pts = geodesic_point((alg, z0, x0), ts)
        for k in (0, 2):
            assert np.array_equal(pts[k], np.concatenate([ts[k] * z0[k], ts[k] * x0[k]]))
        assert not np.array_equal(pts[1, 1:], ts[1] * x0[1])


def test_geodesic_point_block_size_does_not_change_points(heis5w, monkeypatch):
    z0, x0, ts = random_stack(heis5w, np.random.default_rng(62), 30)
    ts[:10] *= 0.01   # small norms: these lifts take lower Pade degrees
    full = geodesic_point((heis5w, z0, x0), ts)
    monkeypatch.setattr(geometry_module, "_POINT_BLOCK", 1)   # one row per block
    assert np.array_equal(geodesic_point((heis5w, z0, x0), ts), full)
    monkeypatch.setattr(geometry_module, "_POINT_BLOCK", 7 * 121)   # 7 rows per block
    assert np.array_equal(geodesic_point((heis5w, z0, x0), ts), full)


def test_geodesic_point_stack_refuses_mismatched_rows(pheis3):
    with pytest.raises(ParseError):
        geodesic_point((pheis3, np.zeros((2, 1)), np.ones((3, 2))), np.ones(3))


@pytest.mark.parametrize("name, x0", [("pheis3", [0.6, -1.3]),
                                      ("heis5w", [0.3, -0.2, 1.0, 0.4])])
def test_geodesic_point_straight_is_exact(name, x0, request):
    # J = 0: X(t) = t x0 and Z(t) = t z0, since [s x0, x0] = 0
    geo = GeodesicSpec(request.getfixturevalue(name), [0.0], x0)
    for t in (0.7, 3.0, 41.0):
        pt = geodesic_point(geo, t)
        assert np.array_equal(pt.v, t * np.asarray(x0)) and np.array_equal(pt.z, [0.0])


# ---------------------------------------------------------------------------
# sampled frame fields


def uniform_field(zeta, times, zfun, vfun):
    times = np.asarray(times)
    z = np.stack([np.atleast_1d(zfun(t)) for t in times])
    v = np.stack([np.atleast_1d(vfun(t)) for t in times])
    return JacobiField(zeta, times, z, v)


def test_field_validation():
    with pytest.raises(ParseError):
        JacobiField([0.0], [0.0, 0.0], np.zeros((2, 1)), np.zeros((2, 2)))
    with pytest.raises(ParseError):
        JacobiField([0.0], [0.0, 1.0], np.zeros((3, 1)), np.zeros((3, 2)))


def test_residual_zero_field(heis3):
    geo = GeodesicSpec(heis3, [1.0], [1.0, 0.0])
    times = np.linspace(0.0, 2.0, 1001)
    field = uniform_field([0.0], times, lambda t: [0.0], lambda t: [0.0, 0.0])
    res_z, res_v = jacobi_frame_residual(geo, field, 1.0)
    assert np.linalg.norm(res_z) < 1e-14
    assert np.linalg.norm(res_v) < 1e-14


def test_residual_analytic_solution(heis3):
    # central geodesic: v(t) = (exp(-tJ) - I) v0 solves the frame equation
    # with zeta = 0, so the finite-difference residual is pure stencil error.
    geo = GeodesicSpec(heis3, [1.0], [0.0, 0.0])
    j = geo.J
    v0 = np.array([1.0, 0.5])
    times = np.linspace(0.0, 3.0, 3001)
    field = uniform_field([0.0], times,
                          lambda t: [0.0],
                          lambda t: (expm(-t * j) - np.eye(2)) @ v0)
    for t in (0.5, 1.5, 2.5):
        res_z, res_v = jacobi_frame_residual(geo, field, t)
        assert np.linalg.norm(res_z) < 1e-8
        assert np.linalg.norm(res_v) < 1e-6


def test_residual_detects_non_solution(heis3):
    # v(t) = t^2 e1 with zeta = 0 on the central geodesic: the residual has
    # norm exactly 2 sqrt(1 + t^2) up to stencil error.
    geo = GeodesicSpec(heis3, [1.0], [0.0, 0.0])
    times = np.linspace(0.0, 2.0, 2001)
    field = uniform_field([0.0], times, lambda t: [0.0], lambda t: [t * t, 0.0])
    for t in (0.5, 1.0, 1.5):
        _, res_v = jacobi_frame_residual(geo, field, t)
        assert np.linalg.norm(res_v) == pytest.approx(2.0 * np.hypot(1.0, t), abs=1e-5)


def test_residual_stencil_errors(heis3):
    geo = GeodesicSpec(heis3, [1.0], [1.0, 0.0])
    times = np.linspace(0.0, 2.0, 101)
    field = uniform_field([0.0], times, lambda t: [0.0], lambda t: [0.0, 0.0])
    with pytest.raises(InsufficientSamplesError):
        jacobi_frame_residual(geo, field, 0.0)   # endpoint has no stencil
    with pytest.raises(InsufficientSamplesError):
        jacobi_frame_residual(geo, field, 5.0)   # outside the grid
    tiny = uniform_field([0.0], [0.0, 1.0], lambda t: [0.0], lambda t: [0.0, 0.0])
    with pytest.raises(InsufficientSamplesError):
        jacobi_frame_residual(geo, tiny, 0.5)


def test_witness_residual_rounds_to_the_stack_kernel(heis5w):
    # a witness's exact residual takes exp(tJ) x0 from _expm_stack, the kernel of
    # its own view: over 41 interior points of each of the 48 W2 witnesses at
    # z0 = 6 it stays below 1e-13 (2.3e-12 with scipy's exponential)
    geo = GeodesicSpec(heis5w, [6.0], [1.0, 0.2, 0.3, 0.4])
    cts = conjugate_times(geo, 13.0, witnesses=True)
    assert len(cts) == 48
    worst = 0.0
    for ct in cts:
        field = ct.certificate
        for t in np.linspace(field.times[0], field.times[-1], 43)[1:-1]:
            worst = max(worst, *(np.abs(r).max() for r in jacobi_frame_residual(geo, field, t)))
    assert worst < 1e-13


def test_field_values_frame(heis3):
    geo = GeodesicSpec(heis3, [1.0], [0.5, 0.0])
    rng = np.random.default_rng(9)
    # a uniform grid, then a non-uniform one
    for times in (np.linspace(0.0, 2.0, 65), np.linspace(0.0, np.sqrt(2.0), 65) ** 2):
        field = JacobiField([0.3], times, rng.standard_normal((65, 1)),
                            rng.standard_normal((65, 2)))
        vals = field_values(geo, field)
        for i in (0, 13, 64):
            expect = np.concatenate([field.z[i], expm(times[i] * geo.J) @ field.v[i]])
            assert vals[i] == pytest.approx(expect, abs=1e-12)


def test_serialize_field_round_trip(heis3):
    times = np.linspace(0.0, 1.0, 11)
    field = uniform_field([0.25], times, lambda t: [t], lambda t: [t * t, -t])
    text = serialize_field(field, stride=3)
    lines = text.strip().split("\n")
    assert lines[0] == "t,z_1,v_1,v_2"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    # stride 3 over 11 samples plus the forced final row
    assert rows.shape == (5, 4)
    assert rows[0] == pytest.approx([0.0, 0.0, 0.0, 0.0])
    assert rows[-1] == pytest.approx([1.0, 1.0, 1.0, -1.0])
    assert rows[1] == pytest.approx([0.3, 0.3, 0.09, -0.3])
