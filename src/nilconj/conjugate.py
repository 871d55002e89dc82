"""Closed-form conjugate times, multiplicities, and Jacobi-field witnesses.

Case split on the initial data (z0, x0) of the geodesic, with J the
skew-adjoint operator of z0:

* J = 0 and x0 = 0: no conjugate points.
* J = 0, x0 != 0 ("polynomial"): times sqrt(-12/mu) for the real negative
  eigenvalues mu of the center coupling operator at x0.
* J != 0, x0 = 0 ("lattice"): times 2 pi n / lambda_k for the rates of the
  negative part of the spectrum, with summed eigenspace multiplicities.
* J != 0, x0 != 0 and one-dimensional center ("mixed"): lattice times with
  corrected multiplicities plus the simple roots of the scalar conjugacy
  function g(t) = <gdot, gdot>.

Higher-dimensional centers with J != 0 != x0 have no closed form here and
raise UnsupportedCaseError; the oracle module covers them numerically.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import MetricLieAlgebra, bracket_v, inner_v, inner_z, j_map
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    CenterNotLineError,
    NoConjugateError,
    NotDiagonalizableError,
    NotInImageError,
    ParseError,
    PoleError,
    UnsupportedCaseError,
)
from .geometry import GeodesicSpec, JacobiField, _ExactField, _FieldForm
from .numerics import (
    _check_t_max,
    _expm_stack,
    bracket_root,
    cluster_scalars,
    golden_min,
    null_space_basis,
)
from .spectral import (
    EigenLine,
    Spectrum,
    _lattice_band,
    _meets,
    center_coupling,
    image_membership,
    lattice_match,
    pairs_nonzero,
    spectrum,
)
from .spectral import eigen_components  # unused; perfbench/layers.py wraps it here

__all__ = [
    "ConjugateTime",
    "conjugate_times",
    "conjugacy_function",
    "ConjugacySeries",
]


# Fixed constants of the scans, not tolerances.
_HORIZON_SLACK = 1e-12  # relative: keeps a time computed at the horizon itself inside (0, t_max]
_POLE_MARGIN = 1e-9     # the root scan keeps this * max(1, b) off each pole b
_TANGENT_CUT = 1e-8     # an extremum of the excess within this * |<z0, z0>| of it is a double root
_MAX_LATTICE_TIMES = 2 ** 20   # horizon bound: the lattice times one call may build
_SCAN_BLOCK = 2 ** 16   # the root scan samples at most about this many points per call of f


@dataclass(frozen=True, eq=False)
class ConjugateTime:
    """A conjugate time with its multiplicity and originating branch."""

    t: float
    multiplicity: int
    branch: str                 # "polynomial" | "lattice" | "transcendental"
    tangent: bool = False       # transcendental double root detected by tangency
    certificate: Optional[JacobiField] = None


def conjugate_times(geo: GeodesicSpec, t_max: float, tol: Tolerances = DEFAULT_TOL,
                    witnesses: bool = False) -> list[ConjugateTime]:
    """All conjugate times in (0, t_max], sorted, with multiplicities."""
    _check_t_max(t_max)
    j_zero = np.abs(geo.J).max() <= tol.zero_rel * max(1.0, np.abs(geo.z0).max())
    x_zero = np.abs(geo.x0).max() <= tol.zero_rel
    spec = None
    if j_zero and x_zero:
        out: list[ConjugateTime] = []
    elif j_zero:
        out = polynomial_times(geo, t_max, tol)
    elif x_zero or geo.alg.dim_center == 1:
        spec = _spectrum_of(geo, tol)
        out = ([ConjugateTime(t, sum(line.mult for line in lines), "lattice")
                for t, lines in _lattice_poles(spec, t_max, tol)] if x_zero
               else _mixed_times(geo, t_max, tol, spec))
    else:
        raise UnsupportedCaseError(
            "no closed form for a higher-dimensional center with z0 != 0 != x0; "
            "use the numerical oracle")
    out = sorted(out, key=lambda ct: ct.t)
    if witnesses:
        out = [dataclasses.replace(ct, certificate=build_jacobi_field(geo, ct, tol, spec))
               for ct in out]
    return out


def _unit_center(alg: MetricLieAlgebra) -> tuple[np.ndarray, np.ndarray, float]:
    """The unit center vector z, its J and the sign eps = <z, z>."""
    if alg.dim_center != 1:
        raise CenterNotLineError("this construction requires a one-dimensional center")
    g = float(alg.gram_center[0, 0])
    zu = np.array([1.0 / np.sqrt(abs(g))])
    return zu, j_map(alg, zu), float(np.sign(g))


@functools.lru_cache(maxsize=16)
def _line_spectrum(alg: MetricLieAlgebra, tol: Tolerances) -> tuple[float, Spectrum]:
    """(z, spectrum of J_z) for the unit center vector z of a line center, per (alg, tol)."""
    zu, ju, _ = _unit_center(alg)
    return float(zu[0]), spectrum(ju, tol)


def _spectrum_of(geo: GeodesicSpec, tol: Tolerances) -> Spectrum:
    """J's spectrum; on a line center, J = s J_z (s = z0 / z) takes J_z's (_line_spectrum),
    its rates times |s| and its eigenvalues times s."""
    if geo.alg.dim_center != 1 or geo.z0[0] == 0.0:
        return spectrum(geo.J, tol)
    zu, spec = _line_spectrum(geo.alg, tol)
    s = float(geo.z0[0]) / zu
    neg, pos = (tuple(dataclasses.replace(line, rate=abs(s) * line.rate) for line in group)
                for group in (spec.neg, spec.pos))
    eig = spec.eigenbasis and (s * spec.eigenbasis[0], spec.eigenbasis[1])
    return dataclasses.replace(spec, neg=neg, pos=pos, turn_rate=abs(s) * spec.turn_rate,
                               eigenbasis=eig)


# Not exported: conjugate_times and locus call it, and perfbench/layers.py wraps it.
def polynomial_times(geo: GeodesicSpec, t_max: float,
                     tol: Tolerances = DEFAULT_TOL) -> list[ConjugateTime]:
    """Conjugate times of a straight geodesic (J = 0, x0 != 0)."""
    _check_t_max(t_max)
    coupling = center_coupling(geo.alg, geo.x0)
    w = np.linalg.eigvals(coupling)
    scale = float(np.abs(w).max()) if w.size else 0.0
    thr = tol.cluster_rel * max(scale, 1e-300)
    real_neg = [val.real for val in w if abs(val.imag) <= thr and val.real < -thr]
    out = []
    for mu, _ in cluster_scalars(np.asarray(real_neg), thr):
        t = float(np.sqrt(-12.0 / mu))
        if t <= t_max * (1.0 + _HORIZON_SLACK):
            out.append(ConjugateTime(t, _eigenspace(coupling, mu, tol).shape[1], "polynomial"))
    return out


def _eigenspace(coupling: np.ndarray, mu: float, tol: Tolerances) -> np.ndarray:
    """ker(coupling - mu I), its rank decided at unit size by an exact power-of-two scale."""
    unit = 2.0 ** math.frexp(float(np.abs(coupling).max()))[1]
    return null_space_basis((coupling - mu * np.eye(coupling.shape[0])) / unit, tol.rank_rel)


def _lattice_poles(spec: Spectrum, t_max: float,
                   tol: Tolerances) -> list[tuple[float, tuple[EigenLine, ...]]]:
    """Each lattice time in (0, t_max] with the rotating lines that meet there.

    The times 2 pi n / rate of every line chain into one pole while each is
    within the lattice band (_lattice_band) of the one before (cluster_scalars).
    A pole is the mean of its times and carries the lines they come from.
    """
    counts = [int(np.floor(t_max * line.rate / (2.0 * np.pi) * (1.0 + _HORIZON_SLACK)))
              for line in spec.neg]
    if sum(counts) > _MAX_LATTICE_TIMES:
        raise ParseError(f"t_max {t_max:g} has {sum(counts):g} lattice times, over the "
                         f"bound of {_MAX_LATTICE_TIMES}")
    raw = np.concatenate([np.zeros(0)] + [2.0 * np.pi * np.arange(1, n + 1) / line.rate
                                          for line, n in zip(spec.neg, counts)])
    owner = np.repeat(np.arange(len(counts)), counts)
    return [(t, tuple(spec.neg[k] for k in sorted(set(owner[idx].tolist()))))
            for t, idx in cluster_scalars(raw, lambda ts: _lattice_band(ts, tol))]


# ---------------------------------------------------------------------------
# scalar conjugacy function for the one-dimensional-center mixed case


_TAYLOR_CUT = 1e-2   # |u| below which the excess terms use their Taylor polynomial


def _excess(u: np.ndarray, th: np.ndarray) -> np.ndarray:
    """u coth u - 1, elementwise over complex u, from th = tanh u.

    It is w/3 - w^2/45 + 2 w^3/945 - ... in w = u^2, which below the cut is
    exact to rounding where the closed form would cancel against 1.
    """
    w = u * u
    return np.where(np.abs(u) < _TAYLOR_CUT, w * (1.0 / 3.0 - w * (1.0 / 45.0 - w * (2.0 / 945.0))),
                    u / th - 1.0)


def _dexcess(u: np.ndarray, th: np.ndarray) -> np.ndarray:
    """d/du of _excess: coth u - u (coth^2 u - 1), from th = tanh u."""
    w = u * u
    c = 1.0 / th
    return np.where(np.abs(u) < _TAYLOR_CUT,
                    u * (2.0 / 3.0 - w * (4.0 / 45.0 - w * (4.0 / 315.0))),
                    c - u * (c * c - 1.0))


@dataclass(frozen=True, eq=False)
class ConjugacySeries:
    """excess(t) = g(t) - <x0, x0> for a J with an eigenbasis, with u = lambda t / 2:

    excess(t) = Re sum w (u coth u - 1),  w = (x0^T G V) o (V^-1 x0)

    over the eigenvalues lambda of J = V diag(lambda) V^-1.  A rotating line
    of rate r is lambda = +-i r, where u coth u = (rt/2) cot(rt/2); a boosting
    line is lambda = +-r; ker J adds exactly 0.  Term by term, the excess
    keeps its relative accuracy near a straight geodesic, where it is much
    smaller than <x0, x0>.  The methods act elementwise on arrays of t (an
    array gives bit for bit the values of scalar calls) and return a float
    for a scalar t; they silence the 0/0 of the branch np.where discards.
    """

    h: np.ndarray        # lambda / 2 per eigenvalue
    weight: np.ndarray   # w per eigenvalue

    @classmethod
    def of(cls, alg: MetricLieAlgebra, spec: Spectrum, x0: np.ndarray) -> "ConjugacySeries":
        if spec.eigenbasis is None:
            raise NotDiagonalizableError("the conjugacy series needs an eigenbasis of J")
        lam, vecs = spec.eigenbasis
        return cls(0.5 * lam, (x0 @ alg.gram_v @ vecs) * np.linalg.solve(vecs, x0))

    def _sums(self, t: float | np.ndarray, *parts) -> tuple:
        """Re sum of coef * fn(u, tanh u), u = h t, over the eigenvalues, per (fn, coef)
        part; the parts share one tanh."""
        t = np.asarray(t, dtype=float)
        u = t[..., None] * self.h
        with np.errstate(divide="ignore", invalid="ignore"):
            th = np.tanh(u)
            vals = [(coef * fn(u, th)).real.sum(-1) for fn, coef in parts]
        return tuple(val if val.ndim else float(val) for val in vals)

    def excess(self, t: float | np.ndarray) -> float | np.ndarray:
        return self._sums(t, (_excess, self.weight))[0]

    def excess_and_derivative(self, t: float | np.ndarray) -> tuple:
        """(excess(t), d excess / dt) from one tanh per term, for a Newton step."""
        return self._sums(t, (_excess, self.weight), (_dexcess, self.weight * self.h))


def _matrix_excess(geo: GeodesicSpec, t: float | np.ndarray) -> float | np.ndarray:
    """excess(t) = <x0, phi1(M)^-1 M^2 (phi2(M) / 2 - phi3(M)) x0>, M = -tJ, for a defective J.

    phi_k(M) = sum_j M^j / (j + k)!; g = <J x0, v> = <x0, phi1(M)^-1 x0> as
    (exp(M) - I) v = M phi1(M) v = t x0, and <x0, M x0> = 0, so no term
    cancels against <x0, x0>.  The phi_k are the first block row of
    exp([[M, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0]) (Van Loan, IEEE TAC 23,
    1978).  One stacked exponential and one batched solve serve every t; a
    phi1 the solve finds singular raises UnsupportedCaseError.
    """
    ts = np.asarray(t, dtype=float)
    q = geo.J.shape[0]
    m = -ts.reshape(-1, 1, 1) * geo.J
    blocks = np.zeros((m.shape[0], 4 * q, 4 * q))
    blocks[:, :q, :q] = m
    blocks[:, :3 * q, q:] += np.eye(3 * q)
    _, phi1, phi2, phi3 = np.split(_expm_stack(blocks)[:, :q], 4, axis=-1)
    y = m @ (m @ ((0.5 * phi2 - phi3) @ geo.x0)[..., None])
    try:
        val = np.linalg.solve(phi1, y)[..., 0] @ (geo.alg.gram_v @ geo.x0)
    except np.linalg.LinAlgError:
        raise UnsupportedCaseError("phi1(-tJ) is singular to working precision, so the "
                                   "excess has no matrix form here; use the oracle") from None
    return val.reshape(ts.shape) if ts.ndim else float(val[0])


def _excess_of(geo: GeodesicSpec, spec: Spectrum):
    """t -> excess(t): the series where J has an eigenbasis (on a boosting line or
    a complex spectrum at large t the only accurate form), else the matrix form."""
    if spec.eigenbasis is not None:
        return ConjugacySeries.of(geo.alg, spec, geo.x0).excess
    return lambda t: _matrix_excess(geo, t)


def conjugacy_function(geo: GeodesicSpec, t: float | np.ndarray,
                       tol: Tolerances = DEFAULT_TOL) -> float | np.ndarray:
    """g(t) = <x0, (tJ/2) coth(tJ/2) x0> = <x0, x0> + excess(t), elementwise over t.

    Equals <J x0, v> where (exp(-tJ) - I) v = t x0; a ker J part K of x0 adds
    <K, K>.  Transcendental conjugate times solve g(t) = <gdot, gdot>.  Raises
    PoleError at t = 0 and at each lattice time whose kernel x0 pairs with.
    """
    if np.any(np.asarray(t) == 0.0):
        raise PoleError("conjugacy function is a limit at t = 0, not a value")
    spec = _spectrum_of(geo, tol)
    gx = geo.alg.gram_v @ geo.x0
    ts = np.ravel(np.asarray(t, dtype=float))
    pole = np.zeros(ts.shape, dtype=bool)
    for line in spec.neg:
        if pairs_nonzero(line.basis, gx, tol):
            pole |= _meets(line, ts, tol)
    if pole.any():
        raise PoleError(f"t = {ts[pole][0]} is a lattice pole of the conjugacy function")
    return inner_v(geo.alg, geo.x0, geo.x0) + _excess_of(geo, spec)(t)


def _flat_split(geo: GeodesicSpec, spec: Spectrum, tol: Tolerances) -> GeodesicSpec:
    """The geodesic (z0, x0 - K), K the metric projection of x0 onto ker J.

    ker J is central for a one-dimensional center, and im J is its metric
    complement.  Where the metric is nondegenerate on ker J (Z^T G Z has no
    null space at rank_rel, Z spanning ker J), n is the orthogonal sum of the
    ideals z + im J and ker J: the group is a product with a flat factor, so
    (z0, x0) and (z0, x0 - K) share their conjugate times and Jacobi fields,
    with K = Z (Z^T G Z)^-1 Z^T G x0.  Otherwise ker J holds a null vector,
    and an x0 that pairs with ker J is refused.
    """
    zb, gx = spec.zero_basis, geo.alg.gram_v @ geo.x0
    gram_k = zb.T @ geo.alg.gram_v @ zb
    if null_space_basis(gram_k, tol.rank_rel).shape[1] == 0:
        return GeodesicSpec(geo.alg, geo.z0, geo.x0 - zb @ np.linalg.solve(gram_k, zb.T @ gx))
    if pairs_nonzero(zb, gx, tol):
        raise UnsupportedCaseError(
            "x0 pairs with ker J and the metric is degenerate on ker J, so the flat "
            "factor does not split off; use the numerical oracle")
    return geo


def _scan_roots(f, poles: list[float], t_max: float, rate: float, fscale: float,
                tol: Tolerances) -> list[tuple[float, bool]]:
    """Sorted (root, tangent) of _mixed_times' f = excess - <z0, z0> in (0, t_max], split at poles.

    Each gap is sampled at steps of at most pi / (4 rate) and a 64th of the gap
    (9 to 4097 points), its np.linspace bit for bit, all gaps in one array with
    one call of f per _SCAN_BLOCK points.  rate is the largest |Im lambda| over
    the eigenvalues of f's J (Spectrum.turn_rate), complex ones included: a
    term of alpha +- i beta turns at beta however small alpha is.  Sign changes
    and extrema of f towards 0 count only inside a gap, and an extremum within
    _TANGENT_CUT * fscale of 0 is a double root (tangent).
    """
    edges = np.array([0.0] + [p for p in poles if 0.0 < p < t_max] + [t_max])
    margin = _POLE_MARGIN * np.maximum(1.0, edges[1:])
    a, b = edges[:-1] + margin, edges[1:] - margin
    a, b = a[b > a], b[b > a]
    delta = np.minimum((b - a) / 64.0, np.pi / (4.0 * rate) if rate > 0.0 else np.inf)
    npts = np.clip(np.ceil((b - a) / delta) + 1, 9, 4097).astype(int)
    cut = [0, *np.searchsorted(np.cumsum(npts), range(_SCAN_BLOCK, npts.sum(), _SCAN_BLOCK)), a.size]
    roots, brackets, dips = [], [], []   # brackets: (lo, hi, f(lo), f(hi)); dips add sign(f)
    for g in map(slice, cut[:-1], cut[1:]):   # blocks of whole gaps
        n = npts[g]
        first = np.cumsum(n) - n
        k = np.arange(n.sum()) - np.repeat(first, n)   # each point's index in its gap
        ts = k * np.repeat((b[g] - a[g]) / (n - 1), n) + np.repeat(a[g], n)
        ts[first + n - 1] = b[g]
        fv = f(ts)
        inner = k[1:] > 0   # points i and i + 1 lie in one gap
        roots += [(float(t), False) for t in ts[fv == 0.0]]
        i = np.nonzero(inner & (fv[:-1] * fv[1:] < 0.0))[0]
        brackets.append(np.array([ts[i], ts[i + 1], fv[i], fv[i + 1]]))
        # strict extrema of f towards 0, no sign change: a double root or close pair may hide
        af = np.abs(fv)
        i = np.nonzero(inner[:-1] & inner[1:] & (fv[:-2] * fv[1:-1] > 0.0)
                       & (fv[1:-1] * fv[2:] > 0.0) & (af[1:-1] < af[:-2])
                       & (af[1:-1] < af[2:]))[0] + 1
        dips.append(np.array([ts[i - 1], ts[i + 1], fv[i - 1], fv[i + 1], np.sign(fv[i])]))
    dips = np.hstack(dips)
    for sign in (1.0, -1.0):
        t_lo, t_hi, f_lo, f_hi, _ = dips[:, dips[4] == sign]
        if not t_lo.size:
            continue
        x_min, f_min = golden_min(lambda t: sign * f(t), t_lo, t_hi, xtol=tol.refine_tol,
                                  fa=sign * f_lo, fb=sign * f_hi)
        f_x, cross = sign * f_min, f_min < 0.0   # crossing: each half brackets one root
        brackets.append(np.array([t_lo, x_min, f_lo, f_x])[:, cross])
        brackets.append(np.array([x_min, t_hi, f_x, f_hi])[:, cross])
        roots += [(float(t), True) for t in x_min[~cross & (f_min <= _TANGENT_CUT * fscale)]]
    t_lo, t_hi, f_lo, f_hi = np.hstack(brackets)
    if t_lo.size:
        found = bracket_root(f, t_lo, t_hi, fa=f_lo, fb=f_hi, xtol=tol.bisect_tol)
        roots += [(float(root), False) for root in found]
    return _merge_roots(sorted(roots), poles, tol)


def _merge_roots(roots: list[tuple[float, bool]], poles: list[float],
                 tol: Tolerances) -> list[tuple[float, bool]]:
    """The sorted (root, tangent) pairs without those that meet a kept root or a pole.

    Both lists are sorted, and the merge distance grows more slowly than the
    gap, so the last kept root and the nearest pole on either side are the
    only ones that can meet a root.
    """
    out: list[tuple[float, bool]] = []
    for root, tangent in roots:
        i = bisect.bisect_left(poles, root)
        near = poles[max(i - 1, 0):i + 1]
        if not ((out and root - out[-1][0] <= _lattice_band(root, tol))
                or any(abs(root - p) <= _lattice_band(p, tol) for p in near)):
            out.append((root, tangent))
    return out


def _mixed_times(geo: GeodesicSpec, t_max: float, tol: Tolerances,
                 spec: Spectrum) -> list[ConjugateTime]:
    """Conjugate times for a one-dimensional center with z0 != 0 != x0.

    x0 stands for x0 - K, without its flat factor (_flat_split).  Each lattice
    pole (_lattice_poles) takes the summed multiplicity of its lines, minus one
    where x0 pairs with one of their bases (then x0 is not in
    im(exp(-tJ) - I), and t is a pole of g), else plus one where a
    least-squares preimage v of t x0 has <J x0, v> = <gdot, gdot>; a pole left
    at zero is dropped.  Every root of g(t) = <gdot, gdot> between consecutive
    poles adds a simple conjugate time.
    """
    geo = _flat_split(geo, spec, tol)
    poles = _lattice_poles(spec, t_max, tol)
    gx = geo.alg.gram_v @ geo.x0
    pairs = {line: pairs_nonzero(line.basis, gx, tol) for line in spec.neg}
    out = []
    for t, lines in poles:
        total = sum(line.mult for line in lines)
        if any(pairs[line] for line in lines):   # x0 is not in the image: a pole of g
            mult = total - 1
        else:   # a preimage v of t x0 adds one where <J x0, v> = <gdot, gdot>
            op = _expm_stack(-t * geo.J[None])[0] - np.eye(geo.alg.dim_v)
            v = np.linalg.lstsq(op, t * geo.x0, rcond=None)[0]
            pairing = inner_v(geo.alg, geo.J @ geo.x0, v)
            scale = 1.0 + abs(geo.speed) + abs(pairing)
            mult = total + 1 if abs(pairing - geo.speed) <= tol.speed_eq_rel * scale else total
        if mult > 0:
            out.append(ConjugateTime(t, mult, "lattice"))
    # g(t) = <gdot, gdot> is excess(t) = <z0, z0>, since g(0) = <x0, x0>
    szz = inner_z(geo.alg, geo.z0, geo.z0)
    excess = _excess_of(geo, spec)
    out += [ConjugateTime(t, 1, "transcendental", tangent=tangent) for t, tangent
            in _scan_roots(lambda t: excess(t) - szz, [t for t, _ in poles], t_max,
                           spec.turn_rate, abs(szz), tol)]
    return sorted(out, key=lambda ct: ct.t)


# ---------------------------------------------------------------------------
# explicit witness fields


def _witness_view(geo: GeodesicSpec, t0: float, form: _FieldForm,
                  zeta: np.ndarray) -> JacobiField:
    """The witness of a closed form, sampled on [0, t0] at 32 rows per turn of |J|_2
    (129 at least) and scaled so that its largest frame coordinate there is 1."""
    n = max(129, int(np.ceil(16.0 * t0 * max(1.0, np.linalg.norm(geo.J, 2)) / np.pi)) + 1)
    times = np.linspace(0.0, t0, n)
    z, _, v, ev, _, _ = form.jet(times, times[1])
    amp = max(float(np.abs(z).max(initial=0.0)), float(np.abs(ev).max()))
    if amp <= 0.0:
        raise NoConjugateError("witness construction produced the zero field")
    form = dataclasses.replace(form, p=form.p / amp, q=form.q / amp, c=form.c / amp)
    return _ExactField(zeta / amp, times, z / amp, v / amp, form, ev / amp)


def _polynomial_witness(geo: GeodesicSpec, t0: float, tol: Tolerances) -> JacobiField:
    """v(t) = t (t - t0) w / 2, z(t) = (t^3 / 6 - t0 t^2 / 4) [w, x0] + t zeta, w = J_zeta x0."""
    coupling = center_coupling(geo.alg, geo.x0)
    mu = -12.0 / (t0 * t0)
    basis = _eigenspace(coupling, mu, tol)
    if basis.shape[1] == 0:
        raise NoConjugateError(f"no eigenvector for the requested time {t0}")
    zeta = basis[:, 0]
    w = j_map(geo.alg, zeta) @ geo.x0
    brk = bracket_v(geo.alg, w, geo.x0)
    form = _FieldForm(np.array([0.0 * w, -0.5 * t0 * w, 0.5 * w, 0.0 * w]),
                      np.array([0.0 * zeta, zeta, -0.25 * t0 * brk, brk / 6.0]),
                      np.zeros((zeta.size, w.size)), 0.0 * w, np.eye(w.size), geo.J)
    return _witness_view(geo, t0, form, zeta)


def _exp_witness(geo: GeodesicSpec, t0: float, basis: np.ndarray, k: np.ndarray,
                 a: np.ndarray, c: np.ndarray, slope: float) -> JacobiField:
    """Field v(t) = B (t a + g(t)), z(t) = alpha(t) z0, zeta = slope z0, with g(t) =
    (exp(-tK) - I) c on a J-invariant span of B, J B = B K.

    The center coefficient is alpha(t) = slope t + <J x0, J^-1 B g(t) + t B c> /
    <z0, z0>.  B g lies in im J and J is skew-adjoint, so <J x0, J^-1 B g> =
    -<x0, B g> whatever the preimage, and no linear solve is needed.
    """
    gx, zeta = geo.alg.gram_v @ geo.x0, slope * geo.z0
    zg = np.zeros((geo.z0.size, c.size))
    if gx.any():   # x0 = 0 leaves alpha = slope t, also on a null z0 of a higher-dimensional center
        szz = inner_z(geo.alg, geo.z0, geo.z0)
        slope += inner_v(geo.alg, geo.J @ geo.x0, basis @ c) / szz
        zg = -np.outer(geo.z0, gx @ basis) / szz
    form = _FieldForm(np.array([0.0 * a, a]), np.array([0.0 * geo.z0, slope * geo.z0]), zg, c,
                      basis, k)
    return _witness_view(geo, t0, form, zeta)


def _lattice_witness(geo: GeodesicSpec, t0: float, tol: Tolerances,
                     spec: Spectrum) -> JacobiField:
    """(a, c, slope) = (0, c0, 0) on the lattice kernel B, the rotating lines that meet
    t0, with <J x0, B c0> = 0; K has only their rates."""
    _, kernel = lattice_match(spec, t0, tol)
    gjx = geo.alg.gram_v @ (geo.J @ geo.x0)
    pairs = pairs_nonzero(kernel, gjx, tol)
    if kernel.shape[1] < 1 + pairs:   # no kernel, or one column that J x0 pairs with
        raise NoConjugateError(f"no admissible lattice witness at t = {t0}")
    # the first column, else a combination annihilating the pairing functional
    c0 = np.linalg.svd((kernel.T @ gjx)[None, :])[2][1] if pairs else np.eye(kernel.shape[1])[0]
    k = np.linalg.lstsq(kernel, geo.J @ kernel, rcond=None)[0]
    return _exp_witness(geo, t0, kernel, k, 0.0 * c0, c0, 0.0)


def _transcendental_witness(geo: GeodesicSpec, t0: float, tol: Tolerances,
                            spec: Spectrum) -> JacobiField:
    """(a, c, slope) = (x, -u, 1) on B = I, with (exp(-t0 J) - I) u = t0 x, x = x0 less
    its ker J part (_flat_split)."""
    reg = _flat_split(geo, spec, tol)
    member, u = image_membership(reg.J, t0, reg.x0, reg.alg.gram_v, tol)
    if not member:
        raise NotInImageError(f"no preimage for the transcendental witness at t = {t0}")
    return _exp_witness(reg, t0, np.eye(reg.alg.dim_v), reg.J, reg.x0, -u, 1.0)


# Not exported: conjugate_times(..., witnesses=True) calls it, and perfbench/layers.py wraps it.
def build_jacobi_field(geo: GeodesicSpec, ct: ConjugateTime, tol: Tolerances = DEFAULT_TOL,
                       spec: Spectrum | None = None) -> JacobiField:
    """Explicit nontrivial Jacobi field vanishing at 0 and at ct.t.

    It carries its closed form, which jacobi_frame_residual evaluates with
    exact derivatives at any t in [0, ct.t]; its samples are a view of that
    form on a uniform grid of at least 129 rows, scaled to a largest frame
    coordinate of 1, for field_values and serialize_field.  spec is J's
    spectrum where the caller holds it already; it is computed otherwise.
    """
    if ct.branch == "polynomial":
        return _polynomial_witness(geo, ct.t, tol)
    if ct.branch not in ("lattice", "transcendental"):
        raise ParseError(f"unknown branch {ct.branch!r}")
    spec = _spectrum_of(geo, tol) if spec is None else spec
    if ct.branch == "lattice":
        return _lattice_witness(geo, ct.t, tol, spec)
    return _transcendental_witness(geo, ct.t, tol, spec)

