"""Sampling the conjugate locus inside exp(v) and its tubular neighborhood.

For a one-dimensional nondegenerate center with unit vector z (sign
eps = <z,z>), a straight horizontal geodesic with velocity x0 has its first
conjugate point at t = 2 sqrt(3) / Delta, where

    Delta^2 = eps <x0, J_z^2 x0> = -eps <J_z x0, J_z x0>.

No conjugate point exists unless Delta^2 > 0.  The tubular neighborhood is
traced by the ray family gdot_a = a z + x0, following the root t(a) of the
scalar conjugacy equation away from a = 0 by a predictor-corrector
continuation; t(a) -> 2 sqrt(3)/Delta as a -> 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .algebra import MetricLieAlgebra
from .config import DEFAULT_TOL, Tolerances
from .conjugate import ConjugacySeries, _unit_center, conjugate_times, polynomial_times
from .errors import NoConjugateError, ParseError, RootLostError, UnsupportedCaseError
from .geometry import GeodesicSpec, geodesic_point
from .spectral import spectrum
from .spectral import eigen_components  # unused; perfbench/layers.py wraps it here

__all__ = [
    "LocusSample",
    "conjugate_rate",
    "sample_horizontal_locus",
    "continuation",
    "export_samples",
    "load_samples",
]

_2SQRT3 = 2.0 * np.sqrt(3.0)

# Fixed constants of the continuation corrector, not tolerances.
_TRUST_WINDOW = (0.5, 1.5)  # Newton stays inside this x predictor
_NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class LocusSample:
    """One conjugate-locus point: direction, family parameter, time, position."""

    x0: np.ndarray
    a: float
    t: float
    point: np.ndarray    # exponential coordinates, center block first
    delta: float


def _squared_rates(alg: MetricLieAlgebra, ju: np.ndarray, eps: float,
                   x0: np.ndarray) -> np.ndarray:
    """Delta^2 = eps <x0, J_u^2 x0> for each row of x0, in one batched product."""
    return eps * ((x0 @ alg.gram_v)[:, None] @ ((x0 @ ju.T) @ ju.T)[:, :, None])[:, 0, 0]


def _directions(alg: MetricLieAlgebra, directions: list[np.ndarray]) -> np.ndarray:
    """The directions as rows; ParseError unless each has dim_v finite components."""
    x0 = [np.asarray(d, dtype=float).reshape(-1) for d in directions]
    if any(row.shape != (alg.dim_v,) for row in x0):
        raise ParseError("each direction needs dim_v components")
    x0 = np.array(x0).reshape(-1, alg.dim_v)
    if not np.all(np.isfinite(x0)):
        raise ParseError("directions must be finite")
    return x0


def conjugate_rate(alg: MetricLieAlgebra, x0: np.ndarray,
                   tol: Tolerances = DEFAULT_TOL) -> float:
    """Delta > 0 such that the first conjugate time along x0 is 2 sqrt(3)/Delta.

    Delta^2 = eps <x0, J_u^2 x0>.  Raises NoConjugateError when it is not
    positive (then the straight geodesic has no conjugate points at all).
    """
    x0 = _directions(alg, [x0])[0]
    _, ju, eps = _unit_center(alg)
    d2 = _squared_rates(alg, ju, eps, x0[None])[0]
    if d2 <= tol.zero_rel:
        raise NoConjugateError("signed squared-rate sum is not positive; "
                               "no conjugate point on this straight geodesic")
    return float(np.sqrt(d2))


def sample_horizontal_locus(alg: MetricLieAlgebra, directions: list[np.ndarray],
                            tol: Tolerances = DEFAULT_TOL,
                            method: str = "auto") -> list[LocusSample]:
    """First conjugate points of straight geodesics, one sample per direction.

    method "delta" uses the rate formula (one-dimensional center only);
    "general" uses the eigenvalue route valid for any center dimension; both
    agree where both apply.  Directions without conjugate points are skipped.
    """
    if method == "auto":
        method = "delta" if alg.dim_center == 1 else "general"
    if method not in ("delta", "general"):
        raise ParseError(f"unknown method {method!r}")
    x0 = _directions(alg, directions)
    if method == "delta":
        _, ju, eps = _unit_center(alg)   # one J for every direction
        d2 = _squared_rates(alg, ju, eps, x0)
        x0, delta = x0[d2 > tol.zero_rel], np.sqrt(d2[d2 > tol.zero_rel])
        t = _2SQRT3 / delta
    else:   # 0 stands for no conjugate time
        first = np.array([min((ct.t for ct in polynomial_times(
            GeodesicSpec(alg, np.zeros(alg.dim_center), row), t_max=1e12, tol=tol)), default=0.0)
            for row in x0])
        x0, t = x0[first > 0.0], first[first > 0.0]
        delta = _2SQRT3 / t
    points = geodesic_point((alg, np.zeros((t.size, alg.dim_center)), x0), t)
    return [LocusSample(x, 0.0, ts, point, d)
            for x, ts, point, d in zip(x0, t.tolist(), points, delta.tolist())]


def _track_root(series: ConjugacySeries, alg: MetricLieAlgebra, zu: np.ndarray, x0: np.ndarray,
                eps: float, s: float, predictor: float, tol: Tolerances) -> float:
    """Root of excess(s t) = s^2 eps nearest the predictor; Newton, closed-form fallback.

    This is conjugate_times' equation excess(t) = <z0, z0> for z0 = s z, <z, z> = eps.
    Newton stops at a step below bisect_tol * max(1, t), or below refine_tol * max(1, t)
    and no smaller than the last (the excess's rounding floor).  Where it leaves the
    trust window or stalls, it takes the nearest transcendental time in the window of
    conjugate_times on the tilted geodesic (s z, x0).
    """
    t, step = predictor, np.inf
    lo, hi = _TRUST_WINDOW[0] * predictor, _TRUST_WINDOW[1] * predictor
    for _ in range(_NEWTON_MAX_ITER):
        excess, slope = series.excess_and_derivative(s * t)
        df = s * slope
        if df == 0.0 or not np.isfinite(df):
            break
        t_new = t - (excess - s * s * eps) / df
        if not (lo < t_new < hi):
            break
        last, step = step, abs(t_new - t)
        if step <= tol.bisect_tol * max(1.0, t) or last <= step <= tol.refine_tol * max(1.0, t):
            return t_new
        t = t_new
    roots = [ct.t for ct in conjugate_times(GeodesicSpec(alg, s * zu, x0), hi, tol)
             if ct.branch == "transcendental" and lo < ct.t < hi]
    if not roots:
        raise RootLostError(f"continuation lost the conjugate-time root at a = {s}")
    return min(roots, key=lambda root: abs(root - predictor))


def continuation(alg: MetricLieAlgebra, x0: np.ndarray, a_grid: list[float],
                 tol: Tolerances = DEFAULT_TOL) -> list[LocusSample]:
    """Track t(a) for the ray family gdot_a = a z + x0 from the a = 0 limit.

    Processes the grid by increasing |a|, each root predicted by the one before; the
    family is even in a, so both signs share one track.  Every sample's geodesic has
    speed <x0,x0> + a^2 eps.  A malformed or non-finite x0 or tilt raises ParseError.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    delta = conjugate_rate(alg, x0, tol)    # refuses a bad x0 and Delta <= 0 up front
    a = np.array(a_grid, dtype=float).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ParseError("tilts must be finite")
    zu, ju, eps = _unit_center(alg)
    series = ConjugacySeries.of(alg, spectrum(ju, tol), x0)
    t = _2SQRT3 / delta
    track = {0.0: t}
    for s in sorted(set(np.abs(a).tolist()) - {0.0}):
        t = track[s] = _track_root(series, alg, zu, x0, eps, s, t, tol)
    t = np.array([track[abs(s)] for s in a.tolist()])
    points = geodesic_point((alg, a[:, None] * zu, np.broadcast_to(x0, (a.size, x0.size))), t)
    return [LocusSample(x0, s, ts, point, delta)
            for s, ts, point in zip(a.tolist(), t.tolist(), points)]


def export_samples(samples: list[LocusSample], path: str, fmt: str = "csv") -> None:
    """Write samples as CSV (a, t, delta, point coords) or an OBJ vertex cloud."""
    if fmt == "csv":
        n = samples[0].point.size if samples else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "t", "delta"] + [f"point_{i + 1}" for i in range(n)])
            for s in samples:
                writer.writerow([f"{s.a:.17g}", f"{s.t:.17g}", f"{s.delta:.17g}"]
                                + [f"{c:.17g}" for c in s.point])
    elif fmt == "obj":
        if samples and samples[0].point.size != 3:
            raise UnsupportedCaseError("OBJ export needs three-dimensional points")
        with open(path, "w") as fh:
            fh.write("# conjugate locus vertex cloud\n")
            for s in samples:
                fh.write("v " + " ".join(f"{c:.17g}" for c in s.point) + "\n")
    else:
        raise ParseError(f"unknown export format {fmt!r}")


def load_samples(path: str) -> list[tuple[float, float, float, np.ndarray]]:
    """Read back a CSV written by export_samples as (a, t, delta, point) rows."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        vals = [[float(c) for c in row] for row in rows[1:]]
    except ValueError:
        vals = [[]]
    if not rows or len(rows[0]) < 3 or any(len(v) != len(rows[0]) for v in vals):
        raise ParseError(f"{path}: expected the header a,t,delta,... and rows of reals")
    return [(v[0], v[1], v[2], np.asarray(v[3:])) for v in vals]
