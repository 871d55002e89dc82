"""Conjugate locus of straight geodesics and its continuation in tilt."""

import numpy as np
import pytest
import scipy.linalg

import nilconj.locus as locus_module
from nilconj import (
    GeodesicSpec,
    NoConjugateError,
    ParseError,
    RootLostError,
    UnsupportedCaseError,
    conjugate_rate,
    conjugate_times,
    continuation,
    detect_conjugate,
    export_samples,
    geodesic_point,
    load_samples,
    sample_horizontal_locus,
)

SQ3 = np.sqrt(3.0)


def test_conjugate_rate_frozen(pheis3, heis3):
    assert conjugate_rate(pheis3, [1.0, 0.0]) == pytest.approx(1.0, rel=1e-12)
    # definite metric: rotating rates only, the signed sum is negative.
    with pytest.raises(NoConjugateError):
        conjugate_rate(heis3, [1.0, 0.0])
    with pytest.raises(NoConjugateError):
        conjugate_rate(heis3, [0.0, 0.0])


def test_conjugate_rate_scaling(pheis3):
    # delta is 1-homogeneous in x0
    assert conjugate_rate(pheis3, [3.0, 0.0]) == pytest.approx(3.0, rel=1e-12)


def test_sample_locus_pheis3(pheis3):
    samples = sample_horizontal_locus(pheis3, [np.array([1.0, 0.0])])
    assert len(samples) == 1
    s = samples[0]
    assert s.a == 0.0
    assert s.t == pytest.approx(2.0 * SQ3, rel=1e-12)
    assert s.delta == pytest.approx(1.0, rel=1e-12)
    # straight geodesic: the point is t x0 with no central part
    assert s.point == pytest.approx([0.0, 2.0 * SQ3, 0.0], abs=1e-12)


def test_sample_locus_skips_directions_without_conjugates(heis3, pheis3):
    assert sample_horizontal_locus(heis3, [np.array([1.0, 0.0])]) == []
    # mixed list: only the spacelike-coupled direction survives
    samples = sample_horizontal_locus(pheis3, [np.array([1.0, 0.0]),
                                               np.array([0.0, 1.0])])
    assert len(samples) == 1


def test_sample_locus_general_method_bicenter(bicenter):
    # two-dimensional center forces the eigenvalue route
    samples = sample_horizontal_locus(bicenter, [np.array([1.0, 0.0, 0.0])])
    assert len(samples) == 1
    s = samples[0]
    assert s.t == pytest.approx(2.0 * SQ3, rel=1e-10)
    assert s.point == pytest.approx([0.0, 0.0, 2.0 * SQ3, 0.0, 0.0], abs=1e-10)


def test_sample_locus_methods_agree(pheis3):
    rng = np.random.default_rng(31)
    dirs = [rng.standard_normal(2) for _ in range(12)]
    a = sample_horizontal_locus(pheis3, dirs, method="delta")
    b = sample_horizontal_locus(pheis3, dirs, method="general")
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.t == pytest.approx(sb.t, abs=1e-10)
        assert sa.point == pytest.approx(sb.point, abs=1e-9)


@pytest.mark.parametrize("name", ["cplx", "nilpj"])
def test_sample_locus_methods_agree_without_real_split(request, name):
    # Delta^2 = eps <x0, J^2 x0> needs no eigenspaces: the delta method once
    # raised NotDiagonalizableError on a complex (cplx) or defective (nilpj) J
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    dirs = [rng.standard_normal(alg.dim_v) for _ in range(12)]
    a = sample_horizontal_locus(alg, dirs, method="delta")
    b = sample_horizontal_locus(alg, dirs, method="general")
    assert len(a) == len(b) > 0
    for sa, sb in zip(a, b):
        assert sa.t == pytest.approx(sb.t, rel=1e-10)
        assert sa.point == pytest.approx(sb.point, rel=1e-10, abs=1e-12)


def test_sample_locus_refuses_malformed_directions(pheis3):
    with pytest.raises(ParseError):
        sample_horizontal_locus(pheis3, [np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
    with pytest.raises(ParseError):
        sample_horizontal_locus(pheis3, [np.array([np.nan, 1.0])], method="delta")


def test_each_locus_call_makes_one_geodesic_point_call_and_no_scipy_expm(pheis3, monkeypatch):
    # one stacked geodesic_point call per locus call, and no scipy exponential
    calls = []

    def counted(*args):
        calls.append(args)
        return geodesic_point(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(locus_module, "geodesic_point", counted)
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    dirs = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(-0.6, 0.6, 9)]
    for method in ("delta", "general"):
        assert len(sample_horizontal_locus(pheis3, dirs, method=method)) == 9
    tube = continuation(pheis3, [1.0, 0.2], list(0.2 * np.arange(-5, 6) / 5))
    assert len(tube) == 11 and len(calls) == 3
    # the delta method reads every rate off one product, with no GeodesicSpec
    monkeypatch.setattr(locus_module, "GeodesicSpec", refuse)
    assert len(sample_horizontal_locus(pheis3, dirs, method="delta")) == 9


def test_sample_locus_unknown_method(pheis3):
    with pytest.raises(ValueError):
        sample_horizontal_locus(pheis3, [np.array([1.0, 0.0])], method="bogus")


# ---------------------------------------------------------------------------
# continuation in the tilt parameter


def test_continuation_limits_and_evenness(pheis3):
    # grid built by exact negation so +a and -a have bitwise-equal |a|
    # (np.linspace is not sign-symmetric in the last ulp)
    grid = [0.05 * k for k in range(-4, 5)]
    samples = continuation(pheis3, [1.0, 0.0], grid)
    assert len(samples) == 9
    by_a = {round(s.a, 10): s for s in samples}
    assert by_a[0.0].t == pytest.approx(2.0 * SQ3, rel=1e-12)
    for a in (0.05, 0.1, 0.15, 0.2):
        s_pos, s_neg = by_a[round(a, 10)], by_a[round(-a, 10)]
        # even family: one track for both signs
        assert s_pos.t == s_neg.t
        assert abs(s_pos.t - 2.0 * SQ3) <= 0.5 * a * a


def test_continuation_quadratic_in_a(pheis3):
    # t(a) is smooth and even: second divided differences stay bounded.
    grid = list(np.linspace(-0.2, 0.2, 9))
    t = np.array([s.t for s in continuation(pheis3, [1.0, 0.0], grid)])
    second = t[:-2] - 2.0 * t[1:-1] + t[2:]
    assert np.abs(second).max() < 5e-3


@pytest.mark.parametrize("a", [1e-3, 1e-5, 1e-7, 1e-9, 1e-12])
def test_continuation_small_tilt(pheis3, a):
    # the tilt moves t by O(a^2), far below <x0, x0>: the equation is
    # solved in the excess form, which does not cancel
    s0, s1 = continuation(pheis3, [1.0, 0.0], [0.0, a])
    assert abs(s1.t - s0.t) <= 0.5 * a * a + 1e-12


@pytest.mark.parametrize("a", [0.2, 1e-2, 1e-4, 1e-6])
def test_continuation_matches_conjugate_times(pheis3, a):
    # the track and the scan solve one equation
    t0 = 2.0 * SQ3
    (s,) = continuation(pheis3, [1.0, 0.0], [a])
    first = conjugate_times(GeodesicSpec(pheis3, [a], [1.0, 0.0]), 1.5 * t0)[0]
    assert s.t == pytest.approx(first.t, rel=1e-11)


def test_continuation_speed_invariant(pheis3):
    # the family tilts the center slope: speed_a = <x0,x0> + a^2 eps.
    for s in continuation(pheis3, [1.0, 0.0], [0.0, 0.1, -0.15, 0.2]):
        g = GeodesicSpec(pheis3, [s.a], [1.0, 0.0])
        assert g.speed == pytest.approx(1.0 + s.a * s.a, rel=1e-12)


def test_continuation_points_match_geodesic(pheis3):
    for s in continuation(pheis3, [1.0, 0.0], [0.0, 0.1, 0.2]):
        expect = geodesic_point(GeodesicSpec(pheis3, [s.a], [1.0, 0.0]), s.t).coords()
        assert s.point == pytest.approx(expect, abs=1e-10)


def test_continuation_oracle_confirms_sample(pheis3):
    s = [x for x in continuation(pheis3, [1.0, 0.0], [0.2])][0]
    g = GeodesicSpec(pheis3, [0.2], [1.0, 0.0])
    found = detect_conjugate(g, s.t + 1.0)
    assert any(abs(t - s.t) <= 1e-5 for t, _ in found)


def test_continuation_rejects_no_conjugate_direction(heis3):
    with pytest.raises(NoConjugateError):
        continuation(heis3, [1.0, 0.0], [0.0, 0.1])


def test_continuation_root_lost_on_wild_jump(pheis3):
    # jumping straight to a huge tilt leaves the trust window of the track.
    with pytest.raises(RootLostError):
        continuation(pheis3, [1.0, 0.0], [0.0, 50.0])


def test_continuation_window_skips_lattice_pole(phyp):
    # the window fallback once bracketed the sign change across the lattice
    # pole 2.1763717725 of the tilted geodesic; the root is the
    # transcendental time next to it
    x0 = [0.008, -0.276, 1.294, 1.007]
    s = continuation(phyp, x0, [0.0, 2.887])[1]
    assert s.t == pytest.approx(2.211057377, abs=1e-8)
    times = [ct.t for ct in conjugate_times(GeodesicSpec(phyp, [2.887], x0), 3.0)]
    assert min(abs(t - s.t) for t in times) <= 1e-8


def test_continuation_window_with_only_a_pole_loses_root(phyp):
    # the only sign change in the window is the pole 3.1912160634, f = -1.6e12 there
    with pytest.raises(RootLostError):
        continuation(phyp, [0.094, -0.7435, -0.9217, -0.4577], [0.0, 1.9689])


@pytest.mark.parametrize("call", [
    lambda alg: conjugate_rate(alg, [np.nan, 1.0]),
    lambda alg: conjugate_rate(alg, [np.inf, 0.0]),
    lambda alg: conjugate_rate(alg, [1.0]),
    lambda alg: continuation(alg, [np.nan, 1.0], [0.0, 0.1]),
    lambda alg: continuation(alg, [1.0, 0.0], [0.0, np.nan]),
    lambda alg: continuation(alg, [1.0, 0.0], [0.0, np.inf]),
], ids=["rate-nan", "rate-inf", "rate-short", "tube-nan-x0", "tube-nan-tilt", "tube-inf-tilt"])
def test_locus_entry_points_refuse_malformed_input(pheis3, call):
    # these once returned nan, or raised RootLostError or a bare numpy ValueError
    with pytest.raises(ParseError):
        call(pheis3)


def test_continuation_newton_stops_at_the_rounding_floor(pheis3, monkeypatch):
    # Newton's steps plateau near 4e-12 here, above bisect_tol * t: the excess
    # rounds coarsely just above its Taylor cut.  It once ran all its steps and
    # fell back to the closed forms.
    def refuse(*args, **kwargs):
        raise AssertionError("continuation fell back to conjugate_times")

    monkeypatch.setattr(locus_module, "conjugate_times", refuse)
    x0 = [1.1401193191827474, 0.02289874146197146]
    s = continuation(pheis3, x0, [0.0, 0.007910706605620738])[1]
    assert s.t == pytest.approx(3.038995255567254, abs=1e-11)


@pytest.mark.parametrize("x0, grid", [
    ([1.0, 0.2], list(0.2 * np.arange(-5, 6) / 5)),
    ([1.0, 0.0], list(np.linspace(-0.2, 0.2, 9))),
    ([1.1401193191827474, 0.02289874146197146], [0.0, 0.007910706605620738, 0.05, 0.1, 0.15]),
])
def test_continuation_fallback_gives_the_newton_answer(pheis3, monkeypatch, x0, grid):
    # with no Newton step every tilt falls back to conjugate_times of its geodesic
    newton = continuation(pheis3, x0, grid)
    monkeypatch.setattr(locus_module, "_NEWTON_MAX_ITER", 0)
    for n, f in zip(newton, continuation(pheis3, x0, grid)):
        assert abs(f.t - n.t) <= 1e-11
        if f.a != 0.0:
            times = [ct.t for ct in conjugate_times(GeodesicSpec(pheis3, [abs(f.a)], x0), 1.5 * f.t)
                     if ct.branch == "transcendental"]
            assert min(abs(t - f.t) for t in times) <= 1e-12


def test_continuation_null_direction_rejected(pheis3):
    # null x0 has vanishing component squares, so the rate sum is zero.
    with pytest.raises(NoConjugateError):
        continuation(pheis3, [1.0, 1.0], [0.0, 0.1])


# ---------------------------------------------------------------------------
# export / import


def test_export_csv_round_trip(tmp_path, pheis3):
    samples = continuation(pheis3, [1.0, 0.0], [0.0, 0.1, -0.1])
    path = tmp_path / "locus.csv"
    export_samples(samples, str(path))
    text = path.read_text().strip().split("\n")
    assert text[0] == "a,t,delta,point_1,point_2,point_3"
    back = load_samples(str(path))
    assert len(back) == 3
    for s, (a, t, delta, point) in zip(samples, back):
        assert a == s.a and t == s.t and delta == s.delta
        assert np.array_equal(point, s.point)


def test_export_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    export_samples([], str(path))
    assert path.read_text().strip() == "a,t,delta"
    assert load_samples(str(path)) == []


@pytest.mark.parametrize("text", ["", "a,t,delta,point_1\n0.1,2.0,0.5,x\n",
                                  "a,t,delta,point_1\n0.1,2.0,0.5\n"])
def test_load_samples_malformed_file(tmp_path, text):
    # an empty file leaked StopIteration and a non-numeric row ValueError
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_samples(str(path))


def test_export_obj(tmp_path, pheis3):
    samples = sample_horizontal_locus(pheis3, [np.array([1.0, 0.0]),
                                               np.array([2.0, 0.5])])
    path = tmp_path / "locus.obj"
    export_samples(samples, str(path), fmt="obj")
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    verts = [ln for ln in lines if ln.startswith("v ")]
    assert len(verts) == len(samples)
    first = np.array([float(x) for x in verts[0].split()[1:]])
    assert first == pytest.approx(samples[0].point)


def test_export_obj_rejects_high_dimension(tmp_path, bicenter):
    samples = sample_horizontal_locus(bicenter, [np.array([1.0, 0.0, 0.0])])
    with pytest.raises(UnsupportedCaseError):
        export_samples(samples, str(tmp_path / "x.obj"), fmt="obj")


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_samples([], str(tmp_path / "x.bin"), fmt="bin")
