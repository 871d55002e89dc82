"""Closed-form conjugate times: all branches, frozen values, witnesses."""

import ast
import bisect
import collections
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re

import numpy as np
import pytest

import nilconj
import nilconj.conjugate as conjugate_module
import nilconj.geometry as geometry_module
import nilconj.spectral as spectral_module
from conftest import CPLX, PHYP, random_algebra
from nilconj import (
    DEFAULT_TOL,
    ConjugateTime,
    GeodesicSpec,
    InsufficientSamplesError,
    MetricLieAlgebra,
    NotInImageError,
    ParseError,
    PoleError,
    UnsupportedCaseError,
    center_coupling,
    compare,
    conjugacy_function,
    conjugate_times,
    detect_conjugate,
    eigen_components,
    export_samples,
    field_values,
    fixture,
    image_membership,
    inner_v,
    integrate_propagator,
    jacobi_frame_residual,
    load_algebra,
    sample_horizontal_locus,
    spectrum,
)
from nilconj.cli import _random_geodesic
from nilconj.conjugate import build_jacobi_field, polynomial_times
from nilconj.numerics import _expm_stack, golden_min

# root of (t/2) cot(t/2) = 2 in (2 pi, 4 pi)
T_COT = 8.549564543061
# root of (t/2) coth(t/2) = 2
T_COTH = 3.8300160963275


def times_mults(cts):
    return [(ct.t, ct.multiplicity) for ct in cts]


def geo(alg, z0, x0):
    return GeodesicSpec(alg, np.asarray(z0, float), np.asarray(x0, float))


# ---------------------------------------------------------------------------
# dispatch and degenerate data


def test_zero_velocity_geodesic(heis3):
    assert conjugate_times(geo(heis3, [0.0], [0.0, 0.0]), 50.0) == []


def test_inert_center_direction(heis3z2):
    # z0 along the direction that brackets with nothing: J = 0 and x0 = 0,
    # so the geodesic is a flat line with no conjugate points.
    assert conjugate_times(geo(heis3z2, [0.0, 1.0], [0.0, 0.0]), 50.0) == []


def test_t_max_must_be_positive(heis3):
    with pytest.raises(ValueError):
        conjugate_times(geo(heis3, [1.0], [0.0, 0.0]), 0.0)


@pytest.mark.parametrize("t_max", [np.inf, np.nan])
def test_t_max_must_be_finite(heis3, t_max):
    g = geo(heis3, [1.0], [0.5, 0.0])
    for fn in (conjugate_times, detect_conjugate):
        with pytest.raises(ValueError, match="positive and finite"):
            fn(g, t_max)


@pytest.mark.parametrize("t_max", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("fn, z0, x0", [
    (conjugate_times, [1.0], [0.5, 0.0]),
    (polynomial_times, [0.0], [0.5, 0.0]),
])
def test_closed_forms_share_the_horizon_check(pheis3, fn, z0, x0, t_max):
    # the branch functions once overflowed on inf, failed to convert nan to an
    # integer, or returned [] for a negative horizon
    with pytest.raises(ValueError, match="positive and finite"):
        fn(geo(pheis3, z0, x0), t_max)


_BAD_INPUT = [
    *((f"{fn.__name__}-{t_max:g}",
       lambda alg, fn=fn, t_max=t_max: fn(geo(alg, [1.0], [0.3, 1.0]), t_max))
      for fn in (conjugate_times, polynomial_times, integrate_propagator, detect_conjugate)
      for t_max in (0.0, -1.0, np.inf, np.nan)),
    ("steps", lambda alg: integrate_propagator(geo(alg, [1.0], [0.3, 1.0]), 1.0, steps=10)),
    ("state-bound", lambda alg: detect_conjugate(geo(alg, [1.0], [0.3, 1.0]), 1e7)),
    ("lattice-bound", lambda alg: conjugate_times(geo(alg, [1.0], [0.0, 0.0]), 1e12)),
    ("mixed-lattice-bound", lambda alg: conjugate_times(geo(alg, [1.0], [0.3, 1.0]), 1e12)),
    ("method", lambda alg: sample_horizontal_locus(alg, [np.array([1.0, 0.0])], method="nosuch")),
    ("fmt", lambda alg: export_samples([], "unused.csv", fmt="nosuch")),
    ("branch", lambda alg: build_jacobi_field(geo(alg, [1.0], [0.0, 0.0]),
                                              ConjugateTime(2.0 * np.pi, 2, "nosuch"))),
]


@pytest.mark.parametrize("call", [c for _, c in _BAD_INPUT], ids=[i for i, _ in _BAD_INPUT])
def test_bad_input_raises_parse_error(heis3, call):
    # the library is the input boundary: a typed error the CLI maps to exit 2,
    # still a ValueError for callers that catch that
    with pytest.raises(ParseError) as exc:
        call(heis3)
    assert isinstance(exc.value, ValueError)


def test_unsupported_mixed_center(bicenter):
    with pytest.raises(UnsupportedCaseError):
        conjugate_times(geo(bicenter, [1.0, 0.0], [1.0, 0.0, 0.0]), 10.0)


# ---------------------------------------------------------------------------
# straight geodesics (polynomial branch)


def test_straight_heis3_has_none(heis3):
    # definite metric: the coupling operator is positive, no conjugate points.
    assert conjugate_times(geo(heis3, [0.0], [1.0, 0.0]), 50.0) == []


def test_straight_pheis3_frozen(pheis3):
    cts = conjugate_times(geo(pheis3, [0.0], [1.0, 0.0]), 10.0)
    assert len(cts) == 1
    assert cts[0].t == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)
    assert cts[0].multiplicity == 1
    assert cts[0].branch == "polynomial"


def test_straight_bicenter_frozen(bicenter):
    cts = conjugate_times(geo(bicenter, [0.0, 0.0], [1.0, 0.0, 0.0]), 10.0)
    assert times_mults(cts) == [(pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12), 1)]


def test_straight_consistency_with_coupling(pheis3, bicenter):
    # -12 / t^2 recovers the negative eigenvalue that produced t.
    for alg, x0 in ((pheis3, [1.0, 0.0]), (bicenter, [1.0, 0.0, 0.0])):
        g = geo(alg, np.zeros(alg.dim_center), x0)
        w = np.linalg.eigvals(center_coupling(alg, np.asarray(x0, float)))
        for ct in conjugate_times(g, 20.0):
            mu = -12.0 / ct.t ** 2
            assert np.min(np.abs(w - mu)) < 1e-9


def test_straight_bicenter_tiny_x0(bicenter):
    # the eigenspace rank is decided at unit size, so it does not depend on |x0|
    x0 = np.array([1.0, 0.3, 0.8])
    base = conjugate_times(geo(bicenter, [0.0, 0.0], x0), 50.0)
    assert [ct.multiplicity for ct in base] == [1]
    for s in (1e-3, 1e-6, 1e-8):
        cts = conjugate_times(geo(bicenter, [0.0, 0.0], s * x0), 50.0 / s)
        assert [ct.multiplicity for ct in cts] == [1]
        assert cts[0].t == pytest.approx(base[0].t / s, rel=1e-12)


def test_straight_multiplicity_bound(bicenter):
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = geo(bicenter, [0.0, 0.0], rng.standard_normal(3))
        for ct in conjugate_times(g, 30.0):
            assert 1 <= ct.multiplicity <= bicenter.dim_center


# ---------------------------------------------------------------------------
# central geodesics (lattice branch)


def test_central_heis3_frozen(heis3):
    cts = conjugate_times(geo(heis3, [1.0], [0.0, 0.0]), 13.0)
    assert times_mults(cts) == [
        (pytest.approx(2.0 * np.pi, rel=1e-12), 2),
        (pytest.approx(4.0 * np.pi, rel=1e-12), 2),
    ]
    assert all(ct.branch == "lattice" for ct in cts)


def test_central_pheis3_empty(pheis3):
    # boosting operator: exp(tJ) - I never drops rank for t > 0.
    assert conjugate_times(geo(pheis3, [1.0], [0.0, 0.0]), 50.0) == []


def test_central_heis5w_frozen(heis5w):
    cts = conjugate_times(geo(heis5w, [1.0], [0.0, 0.0, 0.0, 0.0]), 13.0)
    expected = [(np.pi, 2), (2.0 * np.pi, 4), (3.0 * np.pi, 2), (4.0 * np.pi, 4)]
    assert len(cts) == len(expected)
    for ct, (t, m) in zip(cts, expected):
        assert ct.t == pytest.approx(t, rel=1e-12)
        assert ct.multiplicity == m
        assert 1 <= ct.multiplicity <= heis5w.dim_v


def test_central_scaling_covariance(heis5w):
    # z0 -> s z0 scales every conjugate time by 1/s, multiplicities fixed.
    s = 2.5
    base = conjugate_times(geo(heis5w, [1.0], [0.0, 0.0, 0.0, 0.0]), 13.0)
    scaled = conjugate_times(geo(heis5w, [s], [0.0, 0.0, 0.0, 0.0]), 13.0 / s)
    assert len(base) == len(scaled)
    for b, c in zip(base, scaled):
        assert c.t == pytest.approx(b.t / s, rel=1e-12)
        assert c.multiplicity == b.multiplicity


# ---------------------------------------------------------------------------
# conjugacy function (mixed branch scalar)


def test_conjugacy_function_frozen_values(heis3, pheis3):
    g3 = geo(heis3, [1.0], [1.0, 0.0])
    # g(2) = cot(1) for the rotating plane at rate 1
    assert conjugacy_function(g3, 2.0) == pytest.approx(1.0 / np.tan(1.0), abs=1e-12)
    gp = geo(pheis3, [1.0], [1.0, 0.0])
    assert conjugacy_function(gp, 2.0) == pytest.approx(1.0 / np.tanh(1.0), abs=1e-12)
    assert conjugacy_function(gp, 2.0) == pytest.approx(1.3130352854993315, abs=1e-12)


def test_conjugacy_function_short_time_limit(heis3):
    g3 = geo(heis3, [1.0], [1.0, 0.0])
    # g(0+) = <x0, x0>
    assert conjugacy_function(g3, 1e-7) == pytest.approx(1.0, abs=1e-9)


def test_conjugacy_function_poles(heis3):
    g3 = geo(heis3, [1.0], [1.0, 0.0])
    with pytest.raises(PoleError):
        conjugacy_function(g3, 0.0)
    with pytest.raises(PoleError):
        conjugacy_function(g3, 2.0 * np.pi)


def test_conjugacy_function_kernel_is_flat(heis4deg):
    # x0 in ker J is never in the image of exp(-tJ) - I, yet g is defined:
    # the ker J part K of x0 is a flat factor and adds its constant <K, K>,
    # as in the series and the flat split; 2 pi is no pole, since x0 does not
    # pair with its lattice kernel.
    g4 = geo(heis4deg, [1.0], [0.0, 0.0, 1.0])
    ts = np.array([1.0, 2.0 * np.pi, 9.0])
    assert conjugacy_function(g4, ts).tolist() == [1.0, 1.0, 1.0]
    assert conjugacy_function(g4, 1.0) == 1.0
    g = geo(heis4deg, [1.0], [1.0, 0.0, 1.0])
    assert conjugacy_function(g, 2.0) == pytest.approx(1.0 + 1.0 / np.tan(1.0), abs=1e-12)


def test_conjugacy_function_finite_at_partial_pole(heis5w):
    # t = pi is a lattice time of the rate-2 plane, but x0 in the rate-1
    # plane stays in the image and g(pi) = (pi/2) cot(pi/2) = 0.
    g5 = geo(heis5w, [1.0], [1.0, 0.0, 0.0, 0.0])
    assert conjugacy_function(g5, np.pi) == pytest.approx(0.0, abs=1e-12)


def test_conjugacy_function_pole_check_is_the_lattice_match_rule(heis5w, wcross):
    # every element is a pole exactly where lattice_match's kernel at it pairs
    # with x0; an array stops at its first pole, and one without poles gives
    # the values of scalar calls
    rng = np.random.default_rng(83)
    for alg in (heis5w, wcross):
        for _ in range(10):
            g = geo(alg, rng.standard_normal(1), rng.standard_normal(4) * rng.integers(0, 2, 4))
            spec = spectrum(g.J)
            lattice = np.array([2.0 * np.pi * n / line.rate
                                for line in spec.neg for n in (1, 2, 5)])
            ts = rng.permutation(np.concatenate([rng.uniform(0.1, 20.0, 12), lattice,
                                                 lattice * (1.0 + 1e-10), lattice * (1.0 + 1e-6)]))
            gx = alg.gram_v @ g.x0
            pole = np.array([spectral_module.pairs_nonzero(
                spectral_module.lattice_match(spec, float(t))[1], gx) for t in ts])
            for t in ts[pole]:
                with pytest.raises(PoleError):
                    conjugacy_function(g, float(t))
            if pole.any():
                with pytest.raises(PoleError, match=re.escape(f"t = {ts[pole][0]} is")):
                    conjugacy_function(g, ts)
            assert conjugacy_function(g, ts[~pole]).tolist() == \
                [conjugacy_function(g, float(t)) for t in ts[~pole]]


def test_series_excess_and_derivative_share_one_pass(pheis3, heis5w, cplx):
    # the Newton step's pair: its excess is excess's bit for bit, over an array
    # as in scalar calls, and its derivative is the excess's slope
    rng = np.random.default_rng(84)
    ts = np.concatenate([rng.uniform(0.001, 9.0, 20), [1e-3, 0.5]])
    for alg in (pheis3, heis5w, cplx):
        g = geo(alg, rng.standard_normal(1), rng.standard_normal(alg.dim_v))
        series = conjugate_module.ConjugacySeries.of(alg, spectrum(g.J), g.x0)
        excess, slope = series.excess_and_derivative(ts)
        assert excess.tolist() == series.excess(ts).tolist()
        assert [series.excess_and_derivative(float(t)) for t in ts] == list(zip(excess, slope))
        h = 1e-6 * np.maximum(1.0, ts)
        fd = (series.excess(ts + h) - series.excess(ts - h)) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-6, abs=1e-8)


def numerical_g(g, t):
    """Reference g(t) = <J x0, v> from one membership solve of (exp(-tJ) - I) v = t x0.

    None where x0 is not in the image (near a pole).
    """
    member, v = image_membership(g.J, t, g.x0, g.alg.gram_v)
    return inner_v(g.alg, g.J @ g.x0, v) if member else None


@pytest.mark.parametrize("name", ["heis3", "pheis3", "heis5w"])
def test_conjugacy_closed_matches_numerical(name):
    alg = fixture(name)
    rng = np.random.default_rng(77)
    for _ in range(12):
        z0 = rng.standard_normal(1)
        x0 = rng.standard_normal(alg.dim_v)
        g = geo(alg, z0, x0)
        t = float(rng.uniform(0.1, 9.0))
        num = numerical_g(g, t)
        if num is None:
            continue
        assert conjugacy_function(g, t) == pytest.approx(num, abs=1e-9)
        # the closed form is elementwise over an array of times
        ts = np.array([0.5 * t, t, 1.5 * t])
        nums = [numerical_g(g, float(s)) for s in ts]
        if None in nums:
            continue
        closed = conjugacy_function(g, ts)
        assert closed.tolist() == [conjugacy_function(g, float(s)) for s in ts]
        assert closed == pytest.approx(nums, abs=1e-9)


def test_conjugacy_closed_matches_numerical_mixed_signature(phyp):
    # one rotating and one boosting block active at once
    g = geo(phyp, [1.0], [1.0, 0.0, 1.0, 0.0])
    for t in (0.5, 1.7, 4.0):
        assert conjugacy_function(g, t) == pytest.approx(numerical_g(g, t), abs=1e-9)


def matrix_excess(g, t):
    """The matrix form, which the closed forms use where J has no real-split certificate."""
    return conjugate_module._matrix_excess(g, t)


@pytest.mark.parametrize("t", [1e-3, 0.5, 2.0, 5.0, 9.0])
def test_matrix_excess_matches_high_precision_on_cplx(cplx, t):
    # reference: g - <x0, x0> from the membership solve in 50 digits, with the
    # exponential summed as its Taylor series.  The phi1 solve is conditioned
    # like exp(|Re lambda| t), lambda the eigenvalues of J, and a double
    # precision membership solve errs as much: 3.2e-10 on the first draw at t = 9.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(3)
    for _ in range(3):
        x0 = rng.standard_normal(4)
        g = geo(cplx, [1.0], x0 / np.linalg.norm(x0))
        j, x, gram = (mpmath.matrix(a.tolist()) for a in (g.J, g.x0, cplx.gram_v))
        op = mpmath.expm(-t * j, method="taylor") - mpmath.eye(4)
        v = mpmath.lu_solve(op, t * x)
        ref = ((j * x).T * gram * v)[0] - (x.T * gram * x)[0]
        growth = np.exp(np.abs(np.linalg.eigvals(g.J).real).max() * t)
        assert matrix_excess(g, t) == pytest.approx(float(ref), rel=1e-14 * growth)


@pytest.mark.parametrize("name", ["heis3", "heis5w", "wcross"])
def test_matrix_excess_matches_series(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = geo(alg, rng.uniform(0.5, 1.5, 1), rng.standard_normal(alg.dim_v))
        series = conjugate_module.ConjugacySeries.of(alg, spectrum(g.J), g.x0).excess
        ts = rng.uniform(0.05, 8.0, 5)
        assert matrix_excess(g, ts) == pytest.approx(series(ts), rel=1e-11)


def test_matrix_excess_short_time(heis3):
    # excess(t) = -t^2 <J x0, J x0> / 12 + O(t^4): no cancellation against <x0, x0>
    g = geo(heis3, [1.0], [1.0, 0.0])
    assert matrix_excess(g, 1e-9) == pytest.approx(-1e-18 / 12.0, rel=1e-11)
    series = conjugate_module.ConjugacySeries.of(heis3, spectrum(g.J), g.x0)
    assert matrix_excess(g, 1e-9) == pytest.approx(series.excess(1e-9), rel=1e-11)


def test_matrix_excess_singular_phi1_raises_typed_error(heis3, monkeypatch):
    # safety branch: a phi1 that the solve finds singular raises
    # UnsupportedCaseError, not numpy's LinAlgError
    real = conjugate_module._expm_stack

    def zero_phi1(blocks):
        out = real(blocks)
        out[:, :2, 2:4] = 0.0
        return out

    monkeypatch.setattr(conjugate_module, "_expm_stack", zero_phi1)
    with pytest.raises(UnsupportedCaseError):
        matrix_excess(geo(heis3, [1.0], [1.0, 0.0]), np.array([0.5, 1.0]))


@pytest.mark.parametrize("t", [9.0, 13.0, 20.0, 30.0])
def test_series_excess_matches_high_precision_on_cplx(cplx, t):
    # reference: the membership solve of the test above in 80 digits.  The
    # matrix form erred by up to 3.6e-3 relative at t = 20 and raised at t = 30.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    rng = np.random.default_rng(3)
    for _ in range(3):
        x0 = rng.standard_normal(4)
        g = geo(cplx, [1.0], x0 / np.linalg.norm(x0))
        j, x, gram = (mpmath.matrix(a.tolist()) for a in (g.J, g.x0, cplx.gram_v))
        op = mpmath.expm(-t * j, method="taylor") - mpmath.eye(4)
        v = mpmath.lu_solve(op, t * x)
        ref = ((j * x).T * gram * v)[0] - (x.T * gram * x)[0]
        series = conjugate_module.ConjugacySeries.of(cplx, spectrum(g.J), g.x0)
        assert series.excess(t) == pytest.approx(float(ref), rel=1e-13)


def test_only_a_refused_eigenbasis_takes_the_matrix_form(request, monkeypatch):
    # every fixture with a line center keeps its eigenbasis but nilpj, whose
    # nilpotent J has none; only nilpj's excess comes from the matrix form
    reached = []
    real = conjugate_module._matrix_excess
    monkeypatch.setattr(conjugate_module, "_matrix_excess",
                        lambda g, t: reached.append(g.alg.name) or real(g, t))
    names = ["heis3", "pheis3", "heis5w", "heis4deg", "nilpj", "wcross", "phyp", "cplx"]
    rng = np.random.default_rng(9)
    for name in names:
        alg = request.getfixturevalue(name)
        for _ in range(5):
            g = geo(alg, [rng.uniform(0.5, 1.5)], rng.standard_normal(alg.dim_v))
            assert (spectrum(g.J).eigenbasis is None) == (name == "nilpj")
            conjugacy_function(g, np.array([0.3, 1.1, 2.7]))
    assert set(reached) == {"nilpj"}


def test_conjugacy_function_array_equals_scalar_calls_on_cplx(cplx):
    g = geo(cplx, [0.7], [0.5, 0.5, 0.5, 0.5])
    assert not spectrum(g.J).diagonalizable
    ts = np.array([1e-3, 0.4, 1.3, 2.9, 6.0])
    # equal to rounding: a stack and a single matrix may take different BLAS paths
    assert conjugacy_function(g, ts) == pytest.approx(
        [conjugacy_function(g, float(t)) for t in ts], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# mixed geodesics (lattice corrections + transcendental roots)


def test_mixed_heis3_frozen(heis3):
    cts = conjugate_times(geo(heis3, [1.0], [1.0, 0.0]), 13.0)
    assert len(cts) == 3
    t0, t1, t2 = cts
    assert t0.t == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert (t0.multiplicity, t0.branch) == (1, "lattice")
    assert t1.t == pytest.approx(T_COT, abs=1e-8)
    assert (t1.multiplicity, t1.branch) == (1, "transcendental")
    assert t2.t == pytest.approx(4.0 * np.pi, rel=1e-12)
    assert t2.multiplicity == 1
    # the transcendental root satisfies its defining equation
    u = 0.5 * t1.t
    assert u / np.tan(u) == pytest.approx(2.0, abs=1e-9)


def test_mixed_pheis3_frozen(pheis3):
    cts = conjugate_times(geo(pheis3, [1.0], [1.0, 0.0]), 10.0)
    assert len(cts) == 1
    assert cts[0].t == pytest.approx(T_COTH, abs=1e-8)
    assert cts[0].multiplicity == 1
    assert cts[0].branch == "transcendental"
    u = 0.5 * cts[0].t
    assert u / np.tanh(u) == pytest.approx(2.0, abs=1e-9)


def test_mixed_scaling_covariance(heis3):
    s = 2.5
    base = conjugate_times(geo(heis3, [1.0], [1.0, 0.0]), 13.0)
    scaled = conjugate_times(geo(heis3, [s], [s, 0.0]), 13.0 / s)
    assert len(base) == len(scaled)
    for b, c in zip(base, scaled):
        assert c.t == pytest.approx(b.t / s, rel=1e-7)
        assert c.multiplicity == b.multiplicity


def test_mixed_times_without_closed_series(heis5w, monkeypatch):
    # Without an eigenbasis the root scan samples the matrix form of the
    # excess; it must find the series' roots.  The patched spectrum runs on a
    # freshly loaded heis5w, whose J(u) spectrum no earlier call has cached.
    closed = conjugate_times(geo(heis5w, [3.0], [1.0, 0.2, 0.3, 0.4]), 7.0)
    real_spectrum, calls = conjugate_module.spectrum, []
    monkeypatch.setattr(conjugate_module, "spectrum", lambda j, tol: calls.append(j) or
                        dataclasses.replace(real_spectrum(j, tol), eigenbasis=None))
    numeric = conjugate_times(geo(fixture("heis5w"), [3.0], [1.0, 0.2, 0.3, 0.4]), 7.0)
    assert len(calls) == 1
    assert sum(ct.branch == "transcendental" for ct in closed) >= 3
    assert ([(ct.multiplicity, ct.branch, ct.tangent) for ct in numeric]
            == [(ct.multiplicity, ct.branch, ct.tangent) for ct in closed])
    assert [ct.t for ct in numeric] == pytest.approx([ct.t for ct in closed], abs=1e-9)


def test_complex_eigenvalues_set_the_scan_step():
    # J(1) has eigenvalues +-0.00925 +- 0.68304i.  With a step from the rotating
    # lines alone (there are none) the scan took 65 samples per gap however fast
    # J turns, and found 7, 3 and 5 of these times; each count is the number of
    # sign changes of the series on 2 million samples
    structure = np.zeros((1, 4, 4))
    for (a, b), out in {(0, 1): 0.9353944440264407, (0, 2): 0.020718705043620028,
                        (0, 3): -0.915205136615955, (1, 2): -0.7401400386031575,
                        (1, 3): -0.2567907580152909, (2, 3): -1.228712452811208}.items():
        structure[0, a, b], structure[0, b, a] = out, -out
    alg = MetricLieAlgebra(1, 4, np.diag([1.0, 1.0, 1.0, -1.0, -1.0]), structure)
    z1, z2 = 21.960617435583362, 43.921234871166725
    cases = [(z1, [0.00712747649838744, 0.04455791868588285, -0.3613130338614392,
                   0.9313520722707336], 20.0, 25),
             (z2, [0.49929039364591843, 0.436626275417838, 0.7308592873349733,
                   -0.16096987464698165], 12.0, 27),
             (z2, [-0.29390467289285566, -0.21176447731826056, -0.19504705212346288,
                   0.9114452791340875], 12.0, 43)]
    for z0, x0, t_max, count in cases:
        g = geo(alg, [z0], x0)
        assert spectrum(g.J).turn_rate == pytest.approx(0.6830409 * z0, rel=1e-7)
        cts = conjugate_times(g, t_max)
        assert len(cts) == count, (z0, x0)
        report = compare(cts, detect_conjugate(g, t_max))
        assert report.ok, (z0, x0, report)


def test_cplx_has_no_real_split(cplx):
    spec = spectrum(geo(cplx, [1.0], [1.0, 0.0, 0.0, 0.0]).J)
    assert spec.complex_dim == 4 and not spec.diagonalizable
    assert not spec.neg and not spec.pos


@pytest.mark.parametrize("z", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("x0", [(0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.5, 0.5, 0.5, 0.5)])
def test_mixed_complex_spectrum_near_straight(cplx, x0, z):
    # the matrix form of the excess has no term that cancels against <x0, x0>;
    # at z = 1e-7 a membership solve of g gave 1.889423 and 1.990272 for the
    # first two x0 and 37 spurious times for the third
    g = geo(cplx, [z], x0)
    assert compare(conjugate_times(g, 6.0), detect_conjugate(g, 6.0)).ok


@pytest.mark.parametrize("z", [1e-3, 1e-5, 1e-7, 1e-9])
def test_mixed_near_straight(heis3, heis5w, pheis3, z):
    # g(t) - <x0, x0> is O(z^2) here; subtracting <x0, x0> from g(t) once
    # gave spurious roots on definite metrics, which have none
    assert conjugate_times(geo(heis3, [z], [1.0, 0.0]), 6.0) == []
    assert conjugate_times(geo(heis5w, [z], [1.0, 0.2, 0.3, 0.4]), 6.0) == []
    cts = conjugate_times(geo(pheis3, [z], [1.0, 0.0]), 6.0)
    assert [(ct.multiplicity, ct.branch) for ct in cts] == [(1, "transcendental")]
    assert abs(cts[0].t - 2.0 * np.sqrt(3.0)) <= 0.5 * z * z + 1e-12


def test_mixed_heis5w_partial_lattice(heis5w):
    # x0 in the rate-1 plane: t = pi keeps the full rate-2 eigenspace
    # multiplicity because <J x0, v> = 0 there (no bonus, no deduction),
    # while t = 2 pi loses one dimension to the nonvanishing functional.
    cts = conjugate_times(geo(heis5w, [1.0], [1.0, 0.0, 0.0, 0.0]), 7.0)
    by_time = {round(ct.t, 6): ct for ct in cts}
    assert by_time[round(np.pi, 6)].multiplicity == 2
    assert by_time[round(2.0 * np.pi, 6)].multiplicity == 3
    detected = detect_conjugate(geo(heis5w, [1.0], [1.0, 0.0, 0.0, 0.0]), 7.0)
    assert compare(cts, detected, match_tol=1e-5).ok


def test_mixed_kernel_component_is_a_flat_factor(heis4deg):
    # ker J is central, so the ker J part of x0 = (1, 0, 1) is a flat factor:
    # the times are those of x0 = (1, 0, 0), the root of (t/2) cot(t/2) = 2
    # between the corrected lattice times included; the oracle confirms.
    g4 = geo(heis4deg, [1.0], [1.0, 0.0, 1.0])
    cts = conjugate_times(g4, 13.0)
    assert [ct.branch for ct in cts] == ["lattice", "transcendental", "lattice"]
    assert times_mults(cts) == [
        (pytest.approx(2.0 * np.pi, rel=1e-12), 1),
        (pytest.approx(T_COT, rel=1e-10), 1),
        (pytest.approx(4.0 * np.pi, rel=1e-12), 1),
    ]
    detected = detect_conjugate(g4, 13.0)
    assert compare(cts, detected, match_tol=1e-5).ok


def test_mixed_flat_factor_invariance(heis4deg):
    # (z0, x0) and (z0, x0 - K), K the part of x0 in ker J, share their times
    rng = np.random.default_rng(11)
    for _ in range(12):
        g = geo(heis4deg, rng.uniform(0.5, 1.5, 1), rng.standard_normal(3))
        k = eigen_components(spectrum(g.J), g.x0).kernel
        assert np.abs(k).max() > 0.0
        full, reg = conjugate_times(g, 13.0), conjugate_times(geo(heis4deg, g.z0, g.x0 - k), 13.0)
        assert ([(ct.multiplicity, ct.branch) for ct in full]
                == [(ct.multiplicity, ct.branch) for ct in reg])
        assert [ct.t for ct in full] == pytest.approx([ct.t for ct in reg], rel=1e-10)


def test_heis4deg_random_draws_match_oracle(heis4deg):
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = _random_geodesic(heis4deg, rng)
        report = compare(conjugate_times(g, 13.0), detect_conjugate(g, 13.0))
        assert report.ok, (g.z0, g.x0, report)


def test_cplxk_mixed_draws_match_oracle(cplxk):
    # a complex spectrum with a kernel: the metric is nondegenerate on ker J,
    # so the flat factor splits off although J is not real-diagonalizable;
    # every draw was refused while the split asked for a real eigenbasis.
    # The endpoint bound of criterion 6 is not asserted: one witness (draw 10,
    # t = 9.94) ends at 1.6e-8, through the exp(|Re lambda| t) amplification
    # that the witnesses of cplx itself show on long horizons (ROADMAP)
    rng = np.random.default_rng(7)
    n_times = 0
    for _ in range(40):
        x0 = rng.standard_normal(5)
        g = geo(cplxk, [rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)],
                rng.uniform(0.5, 1.5) * x0 / np.linalg.norm(x0))
        spec = spectrum(g.J)
        assert (spec.complex_dim, spec.zero_basis.shape[1]) == (4, 1)
        cts = conjugate_times(g, 13.0, witnesses=True)
        report = compare(cts, detect_conjugate(g, 13.0))
        assert report.ok, (g.z0, g.x0, report)
        for ct in cts:
            assert np.linalg.norm(field_values(g, ct.certificate)[0]) == 0.0
            assert worst_witness_residual(g, ct.certificate) <= 1e-6
        n_times += len(cts)
    assert n_times >= 5


def test_repeated_kernel_eigenvalue_keeps_the_eigenbasis():
    # J has a boosting pair and a three-dimensional kernel, on which LAPACK's
    # eigenvectors came out dependent; without the eigenbasis the matrix form
    # of the excess found phi1(-tJ) singular here
    alg = load_algebra(json.dumps({
        "name": "kernel3", "dim_center": 1, "dim_v": 5,
        "gram": np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0]).tolist(),
        "brackets": [{"a": 0, "b": 3, "out": [-0.21533011273226269]},
                     {"a": 1, "b": 3, "out": [-3.0875563415117093]},
                     {"a": 2, "b": 3, "out": [-1.8737551784022775]}]}))
    g = geo(alg, [1.3112184749020273],
            [0.7199249651767423, 0.6812666958210453, -0.10638430120481517,
             -0.009798540027279198, -0.07855000159668064])
    spec = spectrum(g.J)
    assert spec.zero_mult == 3 and spec.diagonalizable and spec.eigenbasis is not None
    cts = conjugate_times(g, 13.0, witnesses=True)
    assert cts and compare(cts, detect_conjugate(g, 13.0)).ok
    for ct in cts:
        witness_checks(g, ct)


def test_mixed_nilpotent_kernel_pairing_refused(nilpj):
    # J^3 = 0 with a null ker J: x0 pairs with ker J, and the metric is
    # degenerate on ker J, so the flat factor does not split off.  The oracle
    # finds t = sqrt(12 <z0, z0> / <x0, J^2 x0>) here.
    g = geo(nilpj, [1.012], [0.822, 0.33, -1.303])
    with pytest.raises(UnsupportedCaseError):
        conjugate_times(g, 6.0)
    szz = g.speed - g.x0 @ nilpj.gram_v @ g.x0
    t = np.sqrt(12.0 * szz / (g.x0 @ nilpj.gram_v @ g.J @ g.J @ g.x0))
    assert [ct[0] for ct in detect_conjugate(g, 6.0)] == [pytest.approx(t, abs=1e-5)]


def test_mixed_null_kernel_without_pairing_keeps_the_geodesic(nilpj):
    # the metric is degenerate on ker J, but x0 = (a, b, -b) does not pair with
    # it: the flat factor has nothing to split off, and _flat_split returns the
    # geodesic itself.  The matrix form and the oracle both find no time.
    for z0, x0 in (([1.0], [1.0, 0.5, -0.5]), ([-0.7], [0.3, -1.2, 1.2]),
                   ([2.5], [-0.8, 1.7, -1.7])):
        g = geo(nilpj, z0, x0)
        spec = spectrum(g.J)
        assert spec.eigenbasis is None
        assert conjugate_module._flat_split(g, spec, DEFAULT_TOL) is g
        assert conjugate_times(g, 13.0) == []
        assert detect_conjugate(g, 13.0) == []


def test_mixed_pure_kernel_keeps_full_multiplicity(heis4deg):
    # x0 entirely inside ker J: the pairing functional <J x0, .> vanishes,
    # so the lattice multiplicity is NOT reduced; the oracle confirms.
    g4 = geo(heis4deg, [1.0], [0.0, 0.0, 1.0])
    cts = conjugate_times(g4, 7.0)
    assert times_mults(cts) == [(pytest.approx(2.0 * np.pi, rel=1e-12), 2)]
    detected = detect_conjugate(g4, 7.0)
    assert compare(cts, detected, match_tol=1e-5).ok


def test_mixed_bonus_multiplicity(wcross):
    # tuned x0: at t = pi the preimage pairing equals the speed, which adds
    # one to the summed eigenspace multiplicity (2 -> 3); oracle confirms.
    c = np.sqrt(9.0 / (9.0 - np.pi * np.sqrt(3.0)))
    gw = geo(wcross, [1.0], [0.0, 0.0, c, 0.0])
    cts = conjugate_times(gw, 4.0)
    at_pi = [ct for ct in cts if abs(ct.t - np.pi) < 1e-9]
    assert len(at_pi) == 1
    assert at_pi[0].multiplicity == 3
    detected = detect_conjugate(gw, 4.0)
    assert compare(cts, detected, match_tol=1e-5).ok


def test_mixed_near_miss_has_no_bonus(wcross):
    # detuned x0: pairing != speed, multiplicity stays at 2.
    c = 1.1 * np.sqrt(9.0 / (9.0 - np.pi * np.sqrt(3.0)))
    gw = geo(wcross, [1.0], [0.0, 0.0, c, 0.0])
    cts = conjugate_times(gw, 3.5)
    at_pi = [ct for ct in cts if abs(ct.t - np.pi) < 1e-9]
    assert len(at_pi) == 1
    assert at_pi[0].multiplicity == 2


def _wcross_tangent(wcross, lo, hi, sign):
    # The excess depends on z0 t only: with z0 = 1 it has an extremum of
    # value m at s in (lo, hi), so z0 = sqrt(m) makes t* = s / z0 a double root.
    x0 = np.array([0.3, 0.0, 1.0, 0.0])
    spec = spectrum(geo(wcross, [1.0], x0).J)
    series = conjugate_module.ConjugacySeries.of(wcross, spec, x0)
    s, _ = golden_min(lambda t: sign * series.excess(t), lo, hi, xtol=1e-12)
    z0 = np.sqrt(series.excess(s))
    return geo(wcross, [z0], x0), s / z0


def test_mixed_tangent_root_at_excess_minimum(wcross):
    # the nearest scan sample read |f| = 2.4e-5 <<z0,z0>>, above the old 1e-6 gate
    g, t_star = _wcross_tangent(wcross, 3.9, 4.6, 1.0)
    cts = conjugate_times(g, t_star + 1.0)
    assert [ct.t for ct in cts][-1] == pytest.approx(t_star, abs=1e-6)
    assert compare(cts, detect_conjugate(g, t_star + 1.0)).ok


def test_mixed_tangent_root_at_excess_maximum(wcross):
    # a slow geodesic whose only conjugate time in range is a double root.
    # Its position is resolved to about 1e-6 on either side, and the oracle
    # may split it into a pair that close, so only positions are compared.
    g, t_star = _wcross_tangent(wcross, 0.9, 1.6, -1.0)
    closed = [ct.t for ct in conjugate_times(g, t_star + 1.0)]
    detected = [t for t, _ in detect_conjugate(g, t_star + 1.0)]
    assert closed and detected
    assert closed + detected == pytest.approx([t_star] * len(closed + detected),
                                              abs=DEFAULT_TOL.match_tol)


def test_mixed_multiplicity_bounds(heis3, heis5w):
    for alg, x0 in ((heis3, [1.0, 0.0]), (heis5w, [0.4, -0.3, 0.2, 0.1])):
        g = geo(alg, [1.0], x0)
        for ct in conjugate_times(g, 13.0):
            assert 1 <= ct.multiplicity <= alg.dim_v


def test_mixed_long_horizon_lattice_multiplicity(heis3):
    # x0 = (0.3, 1) is generic, so it pairs with the lattice kernel at every
    # pole and each keeps 2 - 1 = 1.  A rank test on scipy's exp(-tJ) - I read
    # 2 from t = 2 pi 1305 on, where that matrix errs by the rank_rel cut.
    cts = conjugate_times(geo(heis3, [1.0], [0.3, 1.0]), 1e4)
    lattice = [ct.multiplicity for ct in cts if ct.branch == "lattice"]
    assert len(lattice) == 1591
    assert set(lattice) == {1}


def test_mixed_poles_without_preimage_take_no_exponential(heis3, monkeypatch):
    # the pairing with the pole's lines decides a pole where x0 has no
    # preimage: no membership solve and no exponential per pole
    calls = []
    for name in ("image_membership", "_expm_stack"):
        def spy(*args, _real=getattr(conjugate_module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(conjugate_module, name, spy)
    cts = conjugate_times(geo(heis3, [1.0], [0.3, 1.0]), 2000.0)
    assert sum(ct.branch == "lattice" for ct in cts) == 318
    assert calls == []


@pytest.mark.parametrize("t_max, scale, draws", [(20.0, 1.0, 40), (30.0, 1.0, 40), (13.0, 2.0, 60)],
                         ids=["20.0", "30.0", "z0x2-13.0"])
def test_cplx_draws_match_oracle(cplx, t_max, scale, draws):
    # the matrix form's phi1 solve went singular on 3, 13 and 12 of these
    # draws, and it reported times that do not exist: 19.2388 and 19.3012 at
    # z0 = -1.358 (t_max 20); 9.3857, 11.5781 and 12.4260 at z0 = -1.986,
    # where it missed 9.3848 (z0 doubled); the series matches the oracle
    rng = np.random.default_rng(5)
    for _ in range(draws):
        g = _random_geodesic(cplx, rng)
        g = geo(cplx, scale * g.z0, g.x0)
        report = compare(conjugate_times(g, t_max), detect_conjugate(g, t_max))
        assert report.ok, (g.z0, g.x0, report)


def test_merge_matches_all_pairs_rule(heis3, monkeypatch):
    # the scan's merge tests a root against the last kept root and the nearest
    # pole either side only; on a long mixed horizon, and with extra roots just
    # inside and outside the merge distance of roots and poles, it keeps what
    # testing every kept root and every pole keeps
    def all_pairs(roots, poles, tol):
        out = []
        for root, tangent in roots:
            if not (any(abs(root - s) <= band(root, tol) for s, _ in out)
                    or any(abs(root - p) <= band(p, tol) for p in poles)):
                out.append((root, tangent))
        return out

    band = spectral_module._lattice_band
    merge = conjugate_module._merge_roots
    seen = []
    monkeypatch.setattr(conjugate_module, "_merge_roots",
                        lambda roots, poles, tol: seen.append((roots, poles)) or merge(roots, poles, tol))
    conjugate_times(geo(heis3, [1.0], [0.3, 1.0]), 2000.0)
    [(roots, poles)] = seen
    assert len(poles) == 318 and len(roots) > 300
    gap = DEFAULT_TOL.merge_rel
    extra = [(t * (1.0 + k * gap), k > 0) for t, _ in roots[::7] for k in (0.5, 3.0)]
    extra += [(p * (1.0 + k * gap), False) for p in poles[::5] for k in (-3.0, -0.5, 0.5, 3.0)]
    for case in (roots, sorted(roots + extra)):
        kept = merge(case, poles, DEFAULT_TOL)
        assert kept == all_pairs(case, poles, DEFAULT_TOL)
    assert len(roots) < len(kept) < len(roots) + len(extra)


def test_root_scan_does_not_depend_on_its_block_size(heis3, monkeypatch):
    # every gap is sampled whole inside one block, so blocks of 1,024 points
    # (16 gaps of 65) give the times of the default 65,536
    g = geo(heis3, [1.0], [0.3, 1.0])
    want = conjugate_times(g, 2000.0)
    monkeypatch.setattr(conjugate_module, "_SCAN_BLOCK", 2 ** 10)
    got = conjugate_times(g, 2000.0)
    assert [(ct.t, ct.multiplicity, ct.branch) for ct in got] == \
        [(ct.t, ct.multiplicity, ct.branch) for ct in want]


def test_near_resonant_lattice_times_do_not_depend_on_the_horizon(nearres):
    # the first lattice times of rates 1 and 1 + 1e-7 lie 6.3e-7 apart, outside
    # the lattice band.  Merged by a distance that grew with t_max, they became
    # one pole that neither line met: at t_max 1e3 the central list lost both,
    # and the mixed one read 6.283185307 as a transcendental time of mult 1
    central, mixed = geo(nearres, [1.0], [0.0] * 4), geo(nearres, [1.0], [0.3, 1.0, 0.2, 0.5])
    want_central = [(6.283184679, 2, "lattice"), (6.283185307, 2, "lattice")]
    want_mixed = [(6.283184679, 1, "lattice"), (6.283184811, 1, "transcendental"),
                  (6.283185307, 1, "lattice"), (8.667275509, 1, "transcendental")]
    for t_max in (10.0, 1e3, 1e4):
        for g, want in ((central, want_central), (mixed, want_mixed)):
            got = [(round(ct.t, 9), ct.multiplicity, ct.branch)
                   for ct in conjugate_times(g, t_max) if ct.t <= 10.0]
            assert got == want, t_max


def test_conjugate_times_do_not_depend_on_the_horizon(request):
    # conjugate_times(g, T) restricted to (0, t] is conjugate_times(g, t) for
    # every t away from the reported times: the lattice band has no horizon
    # term, so the poles and their lines are the same at every horizon
    rng = np.random.default_rng(11)
    cases = [(name, 30.0, 25) for name in ("heis3", "pheis3", "heis5w", "wcross", "phyp", "cplx")]
    for name, t_big, draws in cases + [("nearres", 1e3, 10)]:
        alg = request.getfixturevalue(name)
        for _ in range(draws):
            g = _random_geodesic(alg, rng)
            full = conjugate_times(g, t_big)
            edges = [0.0] + [ct.t for ct in full] + [t_big]
            i = bisect.bisect_left(edges, rng.uniform(1.0, min(t_big, 20.0)))
            t = 0.5 * (edges[i - 1] + edges[i])   # midway between reported times
            part = conjugate_times(g, t)
            head = [ct for ct in full if ct.t <= t]
            assert [(ct.multiplicity, ct.branch, ct.tangent) for ct in head] == \
                [(ct.multiplicity, ct.branch, ct.tangent) for ct in part], (name, g.z0, g.x0, t)
            for a, b in zip(head, part):
                assert abs(a.t - b.t) <= DEFAULT_TOL.merge_rel * max(1.0, a.t), (name, a.t, b.t)


def test_lattice_and_mixed_times_make_no_lattice_match_call(heis5w, wcross, monkeypatch):
    # each pole carries the lines that meet there, so no pole is re-decided
    def refuse(*args, **kwargs):
        raise AssertionError("lattice_match called")

    monkeypatch.setattr(conjugate_module, "lattice_match", refuse)
    assert times_mults(conjugate_times(geo(heis5w, [1.0], [0.0] * 4), 13.0))[:2] == \
        [(pytest.approx(np.pi), 2), (pytest.approx(2.0 * np.pi), 4)]
    c = np.sqrt(9.0 / (9.0 - np.pi * np.sqrt(3.0)))   # the bonus x0 of test_mixed_bonus_multiplicity
    cts = conjugate_times(geo(wcross, [1.0], [0.0, 0.0, c, 0.0]), 4.0)
    assert (pytest.approx(np.pi), 3) in times_mults(cts)


# ---------------------------------------------------------------------------
# witness fields


def witness_checks(g, ct, endpoint_tol=1e-8, residual_tol=1e-6):
    field = ct.certificate
    assert field is not None
    vals = field_values(g, field)
    assert np.linalg.norm(vals[0]) == 0.0
    assert np.linalg.norm(vals[-1]) <= endpoint_tol
    mid = field.times[field.times.size // 2]
    res_z, res_v = jacobi_frame_residual(g, field, mid)
    assert np.linalg.norm(res_z) <= residual_tol
    assert np.linalg.norm(res_v) <= residual_tol
    # normalization: the largest frame coordinate over the grid is 1
    amp = float(np.abs(vals).max())
    assert amp == pytest.approx(1.0, abs=1e-12)


def test_witness_polynomial(pheis3):
    g = geo(pheis3, [0.0], [1.0, 0.0])
    cts = conjugate_times(g, 10.0, witnesses=True)
    witness_checks(g, cts[0])


def test_witness_lattice_central(heis3):
    g = geo(heis3, [1.0], [0.0, 0.0])
    cts = conjugate_times(g, 13.0, witnesses=True)
    for ct in cts:
        witness_checks(g, ct)


def test_witness_lattice_null_center():
    # central geodesic along a null z0 of an indefinite two-dimensional
    # center: alpha's denominator <z0, z0> is 0, and z(t) must stay 0
    alg = load_algebra(json.dumps({
        "name": "nullcenter", "dim_center": 2, "dim_v": 2,
        "gram": np.diag([1.0, -1.0, 1.0, 1.0]).tolist(),
        "brackets": [{"a": 0, "b": 1, "out": [1.0, 2.0]}]}))
    g = geo(alg, [1.0, 1.0], [0.0, 0.0])
    cts = conjugate_times(g, 13.0, witnesses=True)
    assert [ct.multiplicity for ct in cts] == [2, 2]
    for ct in cts:
        assert not ct.certificate.z.any()
        witness_checks(g, ct)


def test_witness_mixed_all_branches(heis3):
    g = geo(heis3, [1.0], [1.0, 0.0])
    cts = conjugate_times(g, 13.0, witnesses=True)
    assert {ct.branch for ct in cts} == {"lattice", "transcendental"}
    for ct in cts:
        witness_checks(g, ct)


def test_witness_bonus_lattice(wcross):
    c = np.sqrt(9.0 / (9.0 - np.pi * np.sqrt(3.0)))
    g = geo(wcross, [1.0], [0.0, 0.0, c, 0.0])
    cts = conjugate_times(g, 4.0, witnesses=True)
    for ct in cts:
        witness_checks(g, ct)


@pytest.mark.parametrize("z0, x0, t_max", [
    ([3.0], [1.0, 0.2, 0.3, 0.4], 2.8),     # lattice and transcendental witnesses
    ([1.0], [0.0, 0.0, 0.0, 0.0], 13.0),    # lattice witnesses only
])
def test_witnesses_share_one_spectrum(monkeypatch, z0, x0, t_max):
    # the times and witnesses of two geodesics, the second at z0 scaled by -2,
    # take one spectrum in total: J(u)'s, for the unit center vector u = 1
    real_spectrum = conjugate_module.spectrum
    calls = []

    def spy(j, tol):
        calls.append(j)
        return real_spectrum(j, tol)

    monkeypatch.setattr(conjugate_module, "spectrum", spy)
    alg = fixture("heis5w")
    for scale in (1.0, -2.0):
        cts = conjugate_times(geo(alg, scale * np.array(z0), x0), t_max, witnesses=True)
        assert len(cts) >= 4 and all(ct.certificate is not None for ct in cts)
    assert len(calls) == 1 and np.array_equal(calls[0], nilconj.j_map(alg, [1.0]))


SCALES = [-3.0, -1e-3, 1e-6, 2.5, 1e3]
LINE_CENTERS = ["heis3", "pheis3", "heis5w", "wcross", "phyp", "cplx", "nilpj"]


def same_span(a, b):
    """Whether the columns of a and b span one subspace."""
    rank = np.linalg.matrix_rank
    return a.shape == b.shape and rank(np.hstack([a, b]), 1e-8) == rank(a, 1e-8) == a.shape[1]


@pytest.mark.parametrize("name", LINE_CENTERS)
def test_line_spectrum_scales_to_the_spectrum_of_its_multiple(algebras, name, request):
    # a line center's J(z0) = s J(u) takes J(u)'s spectrum, scaled: it classifies
    # as spectrum(s J(u)) does, with the same subspaces and rates to rounding
    alg = algebras[name] if name in algebras else request.getfixturevalue(name)
    zu = conjugate_module._line_spectrum(alg, DEFAULT_TOL)[0]
    for s in SCALES:
        g = geo(alg, [s * zu], np.zeros(alg.dim_v))
        scaled, direct = conjugate_module._spectrum_of(g, DEFAULT_TOL), spectrum(g.J)
        for field in ("zero_mult", "complex_dim", "diagonalizable", "dim_v"):
            assert getattr(scaled, field) == getattr(direct, field), (name, s, field)
        assert same_span(scaled.zero_basis, direct.zero_basis)
        if name == "nilpj":   # J^3 = 0: both sides' lines are eigvals' rounding, on either side
            noise = [line.rate for line in scaled.neg + scaled.pos + direct.neg + direct.pos]
            assert max(noise + [scaled.turn_rate, direct.turn_rate]) <= 1e-7 * np.abs(g.J).max()
            continue
        assert scaled.turn_rate == pytest.approx(direct.turn_rate, rel=1e-14, abs=0.0)
        for mine, theirs in ((scaled.neg, direct.neg), (scaled.pos, direct.pos)):
            assert len(mine) == len(theirs), (name, s)
            for a, b in zip(*(sorted(lines, key=lambda line: line.rate)
                              for lines in (mine, theirs))):
                assert a.mult == b.mult and same_span(a.basis, b.basis), (name, s)
                assert a.rate == pytest.approx(b.rate, rel=1e-14, abs=0.0)
        assert (scaled.eigenbasis is None) == (direct.eigenbasis is None)
        if scaled.eigenbasis is not None:   # a valid eigendecomposition of s J(u)
            lam, vecs = scaled.eigenbasis
            assert np.abs(g.J @ vecs - vecs * lam).max() <= 1e-12 * np.abs(g.J).max()


def test_line_spectrum_is_cached_per_tolerances(nearres):
    # rates 1 and 1 + 1e-7 are two lines at the default cluster_rel and one at
    # 1e-6: each Tolerances takes its own J(u) spectrum on one algebra
    g = geo(nearres, [2.0], np.zeros(4))
    for tol, count in ((DEFAULT_TOL, 2), (DEFAULT_TOL.replace(cluster_rel=1e-6), 1),
                       (DEFAULT_TOL, 2)):
        assert len(conjugate_module._spectrum_of(g, tol).neg) == len(spectrum(g.J, tol).neg)
        assert len(spectrum(g.J, tol).neg) == count


@pytest.mark.parametrize("doc", ["heis5w", PHYP, CPLX], ids=["heis5w", "phyp", "cplx"])
def test_lists_do_not_depend_on_the_cached_spectrum(doc):
    # a geodesic's list on a freshly loaded algebra, whose J(u) spectrum is not
    # cached yet, is bit for bit its list after 50 other draws on one algebra
    def load():
        return fixture(doc) if doc == "heis5w" else load_algebra(doc)

    def listing(alg, g):
        return [(ct.t, ct.multiplicity, ct.branch, ct.tangent)
                for ct in conjugate_times(geo(alg, g.z0, g.x0), 13.0)]

    rng, warm = np.random.default_rng(11), load()
    draws = [_random_geodesic(warm, rng) for _ in range(51)]
    first = next(g for g in draws if g.z0.any())   # a central or mixed draw
    for g in draws:
        if g is not first:
            listing(warm, g)
    assert listing(load(), first) == listing(warm, first)


def test_build_jacobi_field_single(pheis3):
    g = geo(pheis3, [1.0], [1.0, 0.0])
    ct = conjugate_times(g, 10.0)[0]
    field = build_jacobi_field(g, ct)
    assert field.times[0] == 0.0
    assert field.times[-1] == pytest.approx(ct.t)
    witness_checks(g, type(ct)(ct.t, ct.multiplicity, ct.branch, ct.tangent, field))


def worst_witness_residual(g, field):
    """Largest residual norm at 41 interior points of the field's interval."""
    worst = 0.0
    for t in np.linspace(field.times[0], field.times[-1], 43)[1:-1]:
        res_z, res_v = jacobi_frame_residual(g, field, float(t))
        worst = max(worst, np.linalg.norm(res_z), np.linalg.norm(res_v))
    return worst


def test_witnesses_at_large_rate(heis5w):
    # ROADMAP W2 at z0 = 6 (|J|_2 = 12): a finite-difference residual on a
    # grid of step (48 eps)^(1/4) / |J| reached 1.04e-5 on 30 of these fields
    g = geo(heis5w, [6.0], [1.0, 0.2, 0.3, 0.4])
    cts = conjugate_times(g, 13.0, witnesses=True)
    assert len(cts) == 48
    for ct in cts:
        vals = field_values(g, ct.certificate)
        assert np.linalg.norm(vals[0]) == 0.0
        assert np.linalg.norm(vals[-1]) <= 1e-8
        assert worst_witness_residual(g, ct.certificate) <= 1e-6


def test_random_algebra_probe_witnesses():
    # the first 600 draws of the random-algebra probe at tmax 13, checked as the
    # benchmark checks a witness.  Every lattice and polynomial witness passes; a
    # lattice witness whose exponential was formed on the whole complement ended
    # near 1.4 of its maximum on draws 37, 73, 173, 253 and 509 (39 misses).  The
    # transcendental misses and refusals left open are pinned, so that a mend or a
    # regression shows: boosting rate x t0 is 15.8 to 18.3 at the misses and 19.0
    # to 22.4 at the first refused time.
    rng = np.random.default_rng(3)
    counts, misses, refused = collections.Counter(), set(), set()
    for draw in range(600):
        alg, g = random_algebra(rng)
        try:
            cts = conjugate_times(g, 13.0, witnesses=True)
        except NotInImageError:
            refused.add(draw)
            continue
        for ct in cts:
            field = ct.certificate
            vals = field_values(g, field)
            n = field.times.size
            residual = max(np.linalg.norm(r) for i in (n // 4, n // 2, 3 * n // 4)
                           for r in jacobi_frame_residual(g, field, field.times[i]))
            counts[ct.branch] += 1
            if not (np.linalg.norm(vals[0]) == 0.0 and np.linalg.norm(vals[-1]) <= 1e-8
                    and residual <= 1e-6):
                assert ct.branch == "transcendental", (draw, ct)
                misses.add(draw)
    assert counts == {"polynomial": 158, "lattice": 362, "transcendental": 119}
    assert misses == {196, 206, 539}
    assert refused == {93, 313, 354, 367}


def _calls(tree, names):
    """The call nodes in tree of a function whose name is in names."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names]


def test_exponential_call_sites():
    # scipy's expm is called by the one function README's numerical policy names
    # and no other; a witness's exponentials act on K, never on the whole J
    callers = set()
    for info in pkgutil.iter_modules(nilconj.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"nilconj.{info.name}")))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and _calls(fn, {"expm"}):
                callers.add(f"{info.name}.{fn.name}")
    assert callers == {"spectral.image_membership"}
    kernels = {"expm", "_expm_stack", "_expm_powers"}
    tree = ast.parse(inspect.getsource(conjugate_module))
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and _calls(fn, kernels):
            assert fn.name in {"_matrix_excess", "_mixed_times"}, fn.name   # times, not fields
    form = ast.parse(inspect.getsource(geometry_module._FieldForm).strip())
    assert len(_calls(form, kernels)) == 2
    for node in ast.walk(form):   # the generator is diag(K, -K), built from self.k alone
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert node.attr != "J", ast.unparse(node)


def form_jet(g, form, ts):
    """The closed form's (z, zdot, v, vdot, vddot) at ts: its frame derivatives
    exp(tJ) v' and exp(tJ) v'' taken back by exp(-tJ) (J has no boosting rate here)."""
    ts = np.asarray(ts, dtype=float)
    z, zdot, v, _, evdot, evddot = form.jet(ts)
    back = _expm_stack(-ts[:, None, None] * g.J)
    return z, zdot, v, *((back @ e[:, :, None])[:, :, 0] for e in (evdot, evddot))


def one_field_per_branch(pheis3, heis3, heis5w):
    cases = [(geo(pheis3, [0.0], [1.0, 0.0]), 10.0, "polynomial"),
             (geo(heis3, [1.0], [1.0, 0.0]), 13.0, "lattice"),
             (geo(heis3, [1.0], [1.0, 0.0]), 13.0, "transcendental"),
             (geo(heis5w, [3.0], [1.0, 0.2, 0.3, 0.4]), 2.8, "transcendental")]
    for g, tmax, branch in cases:
        ct = next(ct for ct in conjugate_times(g, tmax) if ct.branch == branch)
        yield g, build_jacobi_field(g, ct)


def test_witness_form_derivatives(pheis3, heis3, heis5w):
    for g, field in one_field_per_branch(pheis3, heis3, heis5w):
        t0 = field.times[-1]
        h = 1e-3 / max(1.0, np.linalg.norm(g.J, 2))
        ts = t0 * np.array([0.2, 0.45, 0.7, 0.95])
        z, zdot, v, vdot, vddot = form_jet(g, field.form, ts)
        zp, _, vp, _, _ = form_jet(g, field.form, ts + h)
        zm, _, vm, _, _ = form_jet(g, field.form, ts - h)
        for exact, fd in ((zdot, (zp - zm) / (2.0 * h)), (vdot, (vp - vm) / (2.0 * h)),
                          (vddot, (vp - 2.0 * v + vm) / (h * h))):
            assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact).max()
        # the samples and their frame values are a view of the form
        z, _, v, ev, _, _ = field.form.jet(field.times)
        assert np.abs(z - field.z).max() <= 1e-13
        assert np.abs(v - field.v).max() <= 1e-13
        assert np.abs(ev - field.frame).max() <= 1e-13


def test_perturbed_witness_form_fails(pheis3, heis3, heis5w):
    for g, field in one_field_per_branch(pheis3, heis3, heis5w):
        form = field.form
        delta = 1e-3 * np.ones(form.c.size)   # in the coordinates of the form's basis
        p = form.p.copy()
        p[1] += delta
        perturbed = [dataclasses.replace(form, p=p)]
        if form.c.any():
            perturbed.append(dataclasses.replace(form, c=form.c + delta))
        for bad in perturbed:
            view = conjugate_module._witness_view(g, field.times[-1], bad, field.zeta)
            endpoint = np.linalg.norm(field_values(g, view)[-1])
            assert endpoint > 1e-8 or worst_witness_residual(g, view) > 1e-6


def test_witness_residual_domain(heis3):
    g = geo(heis3, [1.0], [1.0, 0.0])
    field = conjugate_times(g, 13.0, witnesses=True)[0].certificate
    t0 = field.times[-1]
    for t in (0.0, t0):      # the closed form needs no stencil at the ends
        res_z, res_v = jacobi_frame_residual(g, field, t)
        assert max(np.linalg.norm(res_z), np.linalg.norm(res_v)) <= 1e-6
    for t in (-1e-9, t0 * (1.0 + 1e-12), 20.0, np.nan):
        with pytest.raises(InsufficientSamplesError):
            jacobi_frame_residual(g, field, t)
