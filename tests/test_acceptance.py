"""End-to-end acceptance battery.

Each test covers one numbered acceptance item and reports a single
PASS/FAIL line through the terminal-summary hook in conftest; the asserts
pin the stated tolerances, which are not to be loosened.
"""

import functools

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.linalg import expm

from nilconj import (
    AlgebraElement,
    GeodesicSpec,
    bracket,
    bracket_v,
    connection,
    conjugate_times,
    curvature,
    detect_conjugate,
    field_values,
    fixture,
    geodesic_velocity,
    image_membership,
    inner,
    integrate_propagator,
    j_map,
    jacobi_frame_residual,
    lattice_kernel,
    sigma_min_series,
    spectrum,
)
from nilconj.cli import main as cli_main
from nilconj.numerics import null_space_basis

RESULTS: list[str] = []

BUILTINS = ("heis3", "pheis3", "heis5w", "bicenter")
SQ3 = np.sqrt(3.0)


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"FAIL criterion {n:2d}: {desc}")
                raise
            RESULTS.append(f"PASS criterion {n:2d}: {desc}")
        return wrapper
    return deco


def unit_elem(rng, alg):
    u = AlgebraElement(rng.standard_normal(alg.dim_center),
                       rng.standard_normal(alg.dim_v))
    return (1.0 / np.linalg.norm(u.coords())) * u


@criterion(1, "connection and curvature identities on 4000 random triples at 1e-12")
def test_criterion_01_connection_curvature():
    rng = np.random.default_rng(1001)
    for name in BUILTINS:
        alg = fixture(name)
        for _ in range(1000):
            u, w, y = (unit_elem(rng, alg) for _ in range(3))
            torsion = connection(alg, u, w) - connection(alg, w, u) - bracket(alg, u, w)
            assert np.linalg.norm(torsion.coords()) <= 1e-12
            compat = (inner(alg, connection(alg, u, w), y)
                      + inner(alg, w, connection(alg, u, y)))
            assert abs(compat) <= 1e-12
            direct = curvature(alg, u, w, y)
            comm = (connection(alg, u, connection(alg, w, y))
                    - connection(alg, w, connection(alg, u, y))
                    - connection(alg, bracket(alg, u, w), y))
            assert np.linalg.norm((direct - comm).coords()) <= 1e-12


def _frame_field(alg, geo, zc, vc):
    """Callables Y(t) and Y'(t) for polynomial frame data (z(t), v(t))."""
    zd = P.polyder(zc)
    vd = P.polyder(vc)

    def field(t):
        e = expm(t * geo.J)
        return AlgebraElement(P.polyval(t, zc), e @ P.polyval(t, vc))

    def deriv(t):
        e = expm(t * geo.J)
        v = P.polyval(t, vc)
        return AlgebraElement(P.polyval(t, zd), e @ (geo.J @ v + P.polyval(t, vd)))

    return field, deriv


def _d5(fn, t, h):
    """Fourth-order central first derivative of a vector- or element-valued map."""
    return (1.0 / (12.0 * h)) * (fn(t - 2*h) - 8.0 * fn(t - h)
                                 + 8.0 * fn(t + h) - fn(t + 2*h))


@criterion(2, "frame residual transform equals the covariant Jacobi expression"
              " at 1e-6 on 400 random polynomial fields")
def test_criterion_02_residual_transform():
    rng = np.random.default_rng(1002)
    h = 5e-4
    for name in BUILTINS:
        alg = fixture(name)
        p, q = alg.dim_center, alg.dim_v
        for _ in range(100):
            z0 = rng.standard_normal(p)
            x0 = rng.standard_normal(q)
            z0 /= np.linalg.norm(z0)
            x0 /= np.linalg.norm(x0)
            geo = GeodesicSpec(alg, z0, x0)
            zc = 0.5 * rng.standard_normal((4, p))    # cubic coefficient rows
            vc = 0.5 * rng.standard_normal((4, q))
            zeta = rng.standard_normal(p)
            zd = P.polyder(zc)
            vd = P.polyder(vc)
            vdd = P.polyder(vc, 2)
            field, deriv = _frame_field(alg, geo, zc, vc)

            def cov(t):
                return deriv(t) + connection(alg, geodesic_velocity(geo, t), field(t))

            def residual(t):
                e = expm(t * geo.J)
                xp = e @ geo.x0
                res_z = (P.polyval(t, zd)
                         - bracket_v(alg, e @ P.polyval(t, vc), xp) - zeta)
                res_v = (e @ P.polyval(t, vdd) + e @ (geo.J @ P.polyval(t, vd))
                         - j_map(alg, zeta) @ xp)
                return res_z, res_v, xp

            t = float(rng.uniform(0.3, 2.5))
            gdot = geodesic_velocity(geo, t)
            acc = _d5(cov, t, h) + connection(alg, gdot, cov(t))
            lhs = acc + curvature(alg, field(t), gdot, gdot)
            res_z, res_v, xp = residual(t)
            rhs = AlgebraElement(_d5(lambda s: residual(s)[0], t, h),
                                 res_v - j_map(alg, res_z) @ xp)
            assert np.linalg.norm((lhs - rhs).coords()) <= 1e-6


def _oracle_matches(geo, closed, t_max, time_tol):
    detected = detect_conjugate(geo, t_max)
    assert len(detected) == len(closed)
    for ct, (td, md) in zip(closed, detected):
        assert abs(ct.t - td) <= time_tol
        assert ct.multiplicity == md


@criterion(3, "central-geodesic conjugate ladders with exact multiplicities,"
              " oracle agreement within 1e-6")
def test_criterion_03_central_ladders():
    g3 = GeodesicSpec(fixture("heis3"), [1.0], [0.0, 0.0])
    cts = conjugate_times(g3, 13.0)
    assert [(round(ct.t, 9), ct.multiplicity) for ct in cts] == [
        (round(2.0 * np.pi, 9), 2), (round(4.0 * np.pi, 9), 2)]
    _oracle_matches(g3, cts, 13.0, 1e-6)
    g5 = GeodesicSpec(fixture("heis5w"), [1.0], [0.0, 0.0, 0.0, 0.0])
    cts = conjugate_times(g5, 13.0)
    expected = [(np.pi, 2), (2.0 * np.pi, 4), (3.0 * np.pi, 2), (4.0 * np.pi, 4)]
    assert len(cts) == 4
    for ct, (t, m) in zip(cts, expected):
        assert abs(ct.t - t) <= 1e-9 and ct.multiplicity == m
    _oracle_matches(g5, cts, 13.0, 1e-6)


@criterion(4, "straight geodesics: conjugate time 2*sqrt(3) with mult 1 where"
              " predicted, none in the definite case up to t = 50")
def test_criterion_04_straight_lines():
    for name, x0 in (("pheis3", [1.0, 0.0]), ("bicenter", [1.0, 0.0, 0.0])):
        alg = fixture(name)
        geo = GeodesicSpec(alg, np.zeros(alg.dim_center), x0)
        cts = conjugate_times(geo, 10.0)
        assert len(cts) == 1
        assert abs(cts[0].t - 2.0 * SQ3) <= 1e-9
        assert cts[0].multiplicity == 1
        _oracle_matches(geo, cts, 5.0, 1e-6)
    g3 = GeodesicSpec(fixture("heis3"), [0.0], [1.0, 0.0])
    assert conjugate_times(g3, 50.0) == []
    assert detect_conjugate(g3, 50.0) == []


@criterion(5, "mixed geodesics: lattice corrections plus transcendental roots,"
              " oracle agreement within 1e-5")
def test_criterion_05_mixed_case():
    gp = GeodesicSpec(fixture("pheis3"), [1.0], [1.0, 0.0])
    cts = conjugate_times(gp, 10.0)
    assert len(cts) == 1
    u = 0.5 * cts[0].t
    assert abs(u / np.tanh(u) - 2.0) <= 1e-9
    assert cts[0].multiplicity == 1
    _oracle_matches(gp, cts, 10.0, 1e-5)

    gh = GeodesicSpec(fixture("heis3"), [1.0], [1.0, 0.0])
    cts = conjugate_times(gh, 13.0)
    assert len(cts) == 3
    assert abs(cts[0].t - 2.0 * np.pi) <= 1e-9 and cts[0].multiplicity == 1
    root = cts[1]
    assert 2.0 * np.pi < root.t < 4.0 * np.pi
    u = 0.5 * root.t
    assert abs(u / np.tan(u) - 2.0) <= 1e-9
    assert root.multiplicity == 1
    assert abs(cts[2].t - 4.0 * np.pi) <= 1e-9 and cts[2].multiplicity == 1
    _oracle_matches(gh, cts, 13.0, 1e-5)


WITNESS_BATTERY = [
    ("heis3", [1.0], [0.0, 0.0], 13.0),
    ("heis3", [1.0], [1.0, 0.0], 13.0),
    ("pheis3", None, [1.0, 0.0], 10.0),
    ("pheis3", [1.0], [1.0, 0.0], 10.0),
    ("heis5w", [1.0], [0.0, 0.0, 0.0, 0.0], 13.0),
    ("heis5w", [1.0], [1.0, 0.0, 0.0, 0.0], 7.0),
    ("bicenter", None, [1.0, 0.0, 0.0], 10.0),
    # a W2 draw whose witness at t = 2.3751 once missed the residual bound
    # (1.09e-6), with rows that rounded at the 1e-6 level on too fine a grid
    ("heis5w", [3.0], [1.0226224662636343, 0.198568060292097, 0.30456226770762046,
                       0.4222948545646339], 2.8),
]


@criterion(6, "every reported conjugate time carries a vanishing Jacobi witness"
              " (endpoint below 1e-8, residual below 1e-6)")
def test_criterion_06_witnesses(heis4deg, wcross):
    cases = [(fixture(name), z0, x0, tmax) for name, z0, x0, tmax in WITNESS_BATTERY]
    cases.append((heis4deg, [1.0], [1.0, 0.0, 1.0], 13.0))
    cases.append((heis4deg, [1.0], [0.0, 0.0, 1.0], 7.0))
    c = np.sqrt(9.0 / (9.0 - np.pi * SQ3))
    cases.append((wcross, [1.0], [0.0, 0.0, c, 0.0], 4.0))
    total = 0
    for alg, z0, x0, tmax in cases:
        geo = GeodesicSpec(alg, z0 if z0 is not None else np.zeros(alg.dim_center), x0)
        for ct in conjugate_times(geo, tmax, witnesses=True):
            total += 1
            field = ct.certificate
            assert field is not None
            vals = field_values(geo, field)
            assert np.linalg.norm(vals[0]) == 0.0
            assert np.linalg.norm(vals[-1]) <= 1e-8
            n = field.times.size
            worst = 0.0
            for idx in (n // 4, n // 2, (3 * n) // 4):
                res_z, res_v = jacobi_frame_residual(geo, field, float(field.times[idx]))
                worst = max(worst, np.linalg.norm(res_z), np.linalg.norm(res_v))
            assert worst <= 1e-6
    assert total >= 14   # the battery is supposed to be non-trivial


@criterion(7, "rotation-lattice kernels and image membership match direct"
              " linear algebra on 500 random draws")
def test_criterion_07_kernels_membership():
    rng = np.random.default_rng(1007)
    algs = [fixture(name) for name in BUILTINS]
    for k in range(500):
        alg = algs[k % 4]
        z = rng.standard_normal(alg.dim_center)
        z /= np.linalg.norm(z)
        j = j_map(alg, z)
        spec = spectrum(j)
        sane = [line for line in spec.neg if line.rate > 0.3]
        t = None
        if k % 2 == 0 and sane:
            line = sane[rng.integers(len(sane))]
            options = [2.0 * np.pi * n / line.rate for n in range(1, 5)
                       if 2.0 * np.pi * n / line.rate <= 25.0]
            t = float(options[rng.integers(len(options))])
        if t is None:
            while True:
                t = float(rng.uniform(0.1, 6.0))
                if all(abs(t * l.rate / (2.0 * np.pi)
                           - round(t * l.rate / (2.0 * np.pi))) > 5e-3
                       for l in sane):
                    break
        op = expm(t * j) - np.eye(alg.dim_v)
        kern = lattice_kernel(j, t)
        if kern.shape[1]:
            assert np.linalg.norm(op @ kern) <= 1e-8
        sv = np.linalg.svd(op, compute_uv=False)
        nullity = int(np.sum(sv <= 1e-8 * max(1.0, sv[0])))
        ker_j = null_space_basis(j, 1e-10).shape[1]
        assert kern.shape[1] == nullity - ker_j

        op2 = expm(-t * j) - np.eye(alg.dim_v)
        kern2 = null_space_basis(op2, 1e-10)
        if k % 2 == 1 and kern2.shape[1]:
            x = kern2 @ rng.standard_normal(kern2.shape[1])
            x /= np.linalg.norm(x)
        else:
            x = rng.standard_normal(alg.dim_v)
            x /= np.linalg.norm(x)
        member, pre = image_membership(j, t, x, alg.gram_v)
        # direct least-squares solvability with an absolute-floored rank
        # cutoff (a plain relative rcond keeps pure-noise directions when
        # op2 itself is numerically zero at exact lattice times)
        u, s, vt = np.linalg.svd(op2)
        keep = s > 1e-10 * max(1.0, s[0])
        sol = vt[keep].T @ ((u[:, keep].T @ (t * x)) / s[keep])
        solvable = bool(np.linalg.norm(op2 @ sol - t * x) <= 1e-8 * (1.0 + abs(t)))
        assert member == solvable
        if member:
            assert np.linalg.norm(op2 @ pre - t * x) <= 1e-8 * (1.0 + abs(t))


@criterion(8, "tilt continuation stays within 0.5 a^2 of 2*sqrt(3) for |a| <= 0.2"
              " and every sample is oracle-confirmed within 1e-5")
def test_criterion_08_continuation(pheis3):
    from nilconj import continuation
    grid = list(np.linspace(-0.2, 0.2, 9))
    samples = continuation(pheis3, [1.0, 0.0], grid)
    assert len(samples) == 9
    for s in samples:
        assert abs(s.t - 2.0 * SQ3) <= 0.5 * s.a * s.a + 1e-12
        geo = GeodesicSpec(pheis3, [s.a], [1.0, 0.0])
        found = detect_conjugate(geo, s.t + 0.8)
        assert any(abs(td - s.t) <= 1e-5 for td, _ in found)


@criterion(9, "flat geodesics produce no rank drop up to t = 50 and"
              " sigma_min stays above a positive multiple of t")
def test_criterion_09_flat_floor(heis3z2):
    for z0 in ([0.0, 1.0], [0.0, -0.7]):
        geo = GeodesicSpec(heis3z2, z0, [0.0, 0.0])
        assert np.abs(geo.J).max() == 0.0
        prop = integrate_propagator(geo, 50.0)
        assert detect_conjugate(geo, 50.0) == []
        sig = sigma_min_series(prop)
        ratios = sig[1:] / prop.times[1:]
        c = float(ratios.min())
        assert c > 0.9   # measured floor constant; exact value is 1


@criterion(10, "200 seeded random geodesics across the fixtures: compare exits 0")
def test_criterion_10_randomized_cross_validation(capsys):
    seeds = {"heis3": 101, "pheis3": 202, "heis5w": 303, "bicenter": 404}
    for name, seed in seeds.items():
        code = cli_main(["compare", "--algebra", name, "--random", "50",
                         "--seed", str(seed), "--tmax", "6", "--json"])
        captured = capsys.readouterr()
        assert code == 0, f"{name} seed {seed}: {captured.out[-2000:]}"
