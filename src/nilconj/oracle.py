"""Numerical cross-check: propagate the frame Jacobi system and detect
conjugate points by rank drop of the boundary map.

The moving-frame system for a field Y = z + e^{tJ} v vanishing at t = 0 is

    zdot = zeta + [e^{tJ} v, e^{tJ} x0]
    vdot = w
    wdot = -J w + e^{-tJ} J_zeta e^{tJ} x0

with constant zeta and z(0) = 0, v(0) = 0.  With zeta carried as rows of its
own, the system is linear and homogeneous in the state (zeta, z, v, w) of
d = 2p + 2q rows, so one classical RK4 step multiplies the state by one
transfer matrix.  The boundary map M(t) sends the free initial data
(zeta, vdot(0)) to (z(t), v(t)); t is conjugate exactly when M(t) is
singular, with multiplicity the kernel dimension.  This module never
consults the closed forms, so it serves as an independent oracle, including
for geodesics the closed forms do not cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .geometry import GeodesicSpec
from .numerics import bracket_root, golden_min, grid_transport

__all__ = [
    "Propagator",
    "integrate_propagator",
    "matrix_at",
    "sigma_min_series",
    "detect_conjugate",
    "MatchReport",
    "compare",
]

# Fixed numerical constants of the candidate scan, not tolerances.
_START_SKIP = 4          # steps: M(0) = 0, so refined times this close to t = 0 are dropped
_DEDUPE_REL = 1e-8       # refined times within this * max(1, t) are one root
_PARITY_OFFSET = 1e-7    # det M is sampled this * max(1, t*) either side of a refined t*
# Memory bound: steps * d^2 state entries at most, about 0.75 GB of working arrays at d = 10.
_MAX_STATE_ENTRIES = 2 ** 25


def default_steps(t_max: float) -> int:
    return max(100, int(np.ceil(256.0 * t_max)))


@dataclass(frozen=True)
class Propagator:
    """RK4 node states of all basis solutions of the frame Jacobi system.

    states[n] has shape (p + 2q, p + q): rows are (z, v, w) stacked, columns
    are the basis solutions (zeta = center basis first, then vdot(0) = e_a).
    The boundary map at node n is the top (p + q) block of states[n].
    """

    times: np.ndarray
    states: np.ndarray
    dim_center: int
    dim_v: int

    def matrix(self, n: int) -> np.ndarray:
        return self.states[n, : self.dim_center + self.dim_v, :]


def _with_zeta(states: np.ndarray, p: int) -> np.ndarray:
    """Full states (zeta, z, v, w) from (z, v, w) rows; zeta = e_a on the center columns."""
    zeta = np.broadcast_to(np.eye(p, states.shape[-1]), states.shape[:-2] + (p, states.shape[-1]))
    return np.concatenate([zeta, states], axis=-2)


def _coefficients(geo: GeodesicSpec, ep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bracket and forcing blocks of the frame system at times whose e^{tJ} is ep.

    bracket[..., a, :] is [., e^{tJ}x0]_a and forcing[..., :, a] is
    e^{-tJ} J_a e^{tJ}x0.  J is G-skew-adjoint for the complement gram G, so
    e^{-tJ} = G^{-1} (e^{tJ})^T G needs no second exponential.
    """
    alg = geo.alg
    xp = ep @ geo.x0
    bracket = np.einsum("aij,...j->...ai", alg.structure, xp) @ ep
    em = np.linalg.inv(alg.gram_v) @ np.swapaxes(ep, -1, -2) @ alg.gram_v
    forcing = em @ np.einsum("aij,...j->...ia", alg._j_basis, xp)
    return bracket, forcing


def _transfer(geo: GeodesicSpec, bracket: np.ndarray, forcing: np.ndarray,
              h: float) -> np.ndarray:
    """RK4 transfer matrices T = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of the state.

    Axis -3 of the coefficient blocks holds their rows at t, t + h/2 and
    t + h.  With A(t) the system matrix, K1 = A(t), K2 = A(t + h/2)(I + h/2 K1),
    K3 = A(t + h/2)(I + h/2 K2) and K4 = A(t + h)(I + h K3).
    """
    p, q = geo.alg.dim_center, geo.alg.dim_v
    d = 2 * (p + q)
    z, v, w = slice(p, 2 * p), slice(2 * p, 2 * p + q), slice(2 * p + q, d)
    a = np.zeros(bracket.shape[:-2] + (d, d))
    a[..., z, :p] = np.eye(p)
    a[..., z, v] = bracket
    a[..., v, w] = np.eye(q)
    a[..., w, :p] = forcing
    a[..., w, w] = -geo.J
    a0, a1, a2 = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    eye = np.eye(d)
    k2 = a1 @ (eye + 0.5 * h * a0)
    k3 = a1 @ (eye + 0.5 * h * k2)
    k4 = a2 @ (eye + h * k3)
    return eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_propagator(geo: GeodesicSpec, t_max: float,
                         steps: int | None = None) -> Propagator:
    """Fixed-step RK4 solve of all p + q basis columns simultaneously.

    Node n is the product T_{n-1} ... T_0 of the step transfer matrices
    applied to the initial state.  The steps form blocks of b = ceil(sqrt(steps)):
    pass j of a first loop builds the transfer matrix of step j of every block
    and multiplies it onto that block's running product, a second loop carries
    each block's start state to the next block, and one batched product gives
    every node.  Only one step per block of transfer matrices exists at a time.
    """
    if not 0.0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    if steps is None:
        steps = default_steps(t_max)
    if steps < 100:
        raise ValueError("steps must be at least 100")
    p, q = geo.alg.dim_center, geo.alg.dim_v
    d = 2 * (p + q)
    if steps * d * d > _MAX_STATE_ENTRIES:
        raise ValueError(f"steps * d^2 = {steps * d * d} exceeds the memory bound "
                         f"{_MAX_STATE_ENTRIES}")
    h = t_max / steps
    eye = np.broadcast_to(np.eye(q), (2 * steps + 1, q, q))   # half grid
    bracket, forcing = _coefficients(geo, grid_transport(geo.J, 0.5 * h, eye))
    b = int(np.ceil(np.sqrt(steps)))
    m = -(-steps // b)
    first = b * np.arange(m)
    prod = np.empty((m, b, d, d))
    run = np.eye(d)
    for j in range(b):
        n = np.minimum(first + j, steps - 1)
        rows = 2 * n[:, None] + np.arange(3)
        step = _transfer(geo, bracket[rows], forcing[rows], h)
        step[first + j >= steps] = np.eye(d)    # the last block runs past the end
        run = step @ run
        prod[:, j] = run
    start = np.zeros((m, d, p + q))
    start[0, :p, :p] = np.eye(p)                # zeta = e_a
    start[0, 2 * p + q:, p:] = np.eye(q)        # vdot(0) = e_a
    for k in range(1, m):
        start[k] = prod[k - 1, -1] @ start[k - 1]
    nodes = (prod @ start[:, None]).reshape(m * b, d, p + q)[:steps]
    states = np.concatenate([start[:1, p:], nodes[:, p:]])
    times = np.linspace(0.0, t_max, steps + 1)
    return Propagator(times, states, p, q)


def matrix_at(prop: Propagator, t: float | np.ndarray, full: bool = False) -> np.ndarray:
    """Boundary map at off-grid times: the cubic through the four nodes around each.

    The Lagrange weights are taken in s = (t - t_n)/h on nodes n - 1 ... n + 2
    for t in [t_n, t_n+1), the stencil shifted inward at both ends; at a node
    they are exactly (0, 1, 0, 0), so the stored node comes back bit for bit.
    t is a scalar or an array of times; the result has t's shape in front of
    the (p + q, p + q) map.  With full=True it is the whole state
    (zeta, z, v, w) instead, 2p + 2q rows.
    """
    t = np.asarray(t, dtype=float)
    times, h, p = prop.times, prop.times[1], prop.dim_center
    n = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
    k = np.clip(n - 1, 0, times.size - 4)       # first node of the stencil
    u0, u1, u2, u3 = ((t - times[n]) / h + (n - k - j) for j in range(4))
    w = np.stack([u1 * u2 * u3, u0 * u2 * u3, u0 * u1 * u3, u0 * u1 * u2], axis=-1)
    w = w / np.array([-6.0, 2.0, -2.0, 6.0])
    state = np.sum(w[..., None, None] * prop.states[k[..., None] + np.arange(4)], axis=-3)
    return _with_zeta(state, p) if full else state[..., : p + prop.dim_v, :]


def sigma_min_series(prop: Propagator) -> np.ndarray:
    """sigma_min(M(t)) at every node, for scans and CSV export."""
    mats = prop.states[:, : prop.dim_center + prop.dim_v, :]
    return np.linalg.svd(mats, compute_uv=False)[:, -1]


def _cosines(states: np.ndarray, p: int) -> np.ndarray:
    """Cosines of the principal angles between the solution space and the (z, v) axes.

    states are full states (..., 2p + 2q, p + q).  The (z, v) rows of an
    orthonormal basis of their column space have these cosines as singular
    values (descending), so they lie in [0, 1] whatever the scale or growth
    of the solutions.  A cosine vanishes exactly where M is singular.
    """
    basis = np.linalg.qr(states)[0]
    return np.linalg.svd(basis[..., p:p + states.shape[-1], :], compute_uv=False)


def detect_conjugate(geo: GeodesicSpec, t_max: float, steps: int | None = None,
                     tol: Tolerances = DEFAULT_TOL,
                     prop: Propagator | None = None) -> list[tuple[float, int]]:
    """Conjugate times in (0, t_max] by rank drop of the boundary map.

    The multiplicity at a time is the number of principal-angle cosines
    between the solution space and the (z, v) axes below tol.rank_tol.  The
    candidates are the grid cells where sign det M changes (odd
    multiplicities, also the two roots of a close pair in neighbouring
    cells), the interior local minima of the smallest cosine whose bracket
    holds no such cell (even multiplicities), and a decreasing right
    endpoint.  All are refined together by golden section on the smallest
    cosine, to refine_tol in t.  Where the parity of the multiplicity found
    differs from that of det M's sign change across the bracket, a second
    root shares it; it is solved by an Illinois iteration on det M on the
    side of the first root where det M changes sign.
    """
    if prop is None:
        prop = integrate_propagator(geo, t_max, steps)
    p = prop.dim_center
    times = prop.times
    sign = np.linalg.slogdet(prop.states[:, :p + prop.dim_v])[0]
    small = _cosines(_with_zeta(prop.states, p), p)[:, -1]
    change = sign[:-1] * sign[1:] < 0
    cells = np.nonzero(change)[0]
    minima = np.nonzero((small[1:-1] <= small[:-2]) & (small[1:-1] <= small[2:]))[0] + 1
    minima = minima[~(change[minima - 1] | change[minima])]
    lo = np.concatenate([cells, minima - 1])
    hi = np.concatenate([cells + 1, minima + 1])
    if small[-1] < small[-2]:
        lo, hi = np.append(lo, times.size - 2), np.append(hi, times.size - 1)
    if lo.size == 0:
        return []

    def cosines(t: np.ndarray) -> np.ndarray:
        return _cosines(matrix_at(prop, t, full=True), p)

    def multiplicity(t: np.ndarray) -> np.ndarray:
        return np.sum(cosines(t) < tol.rank_tol, axis=-1)

    found = golden_min(lambda t: cosines(t)[:, -1], times[lo], times[hi],
                       xtol=tol.refine_tol)[0]
    mult = multiplicity(found)
    odd_change = sign[lo] * sign[hi] < 0
    recheck = (sign[lo] * sign[hi] != 0) & (odd_change != (mult % 2 == 1))
    if recheck.any():
        t_star = found[recheck]
        off = _PARITY_OFFSET * np.maximum(1.0, t_star)
        near = np.sign(np.linalg.det(matrix_at(prop, np.stack([t_star - off, t_star + off]))))
        a, b = times[lo[recheck]], times[hi[recheck]]
        left = (near[0] != sign[lo[recheck]]) & (t_star - off > a)
        right = (near[1] != sign[hi[recheck]]) & (t_star + off < b)
        a = np.concatenate([a[left], (t_star + off)[right]])
        b = np.concatenate([(t_star - off)[left], b[right]])
        if a.size:
            second = bracket_root(lambda t: np.linalg.det(matrix_at(prop, t)),
                                  a, b, xtol=tol.refine_tol)
            found = np.concatenate([found, second])
            mult = np.concatenate([mult, multiplicity(second)])
    keep = (mult > 0) & (found >= _START_SKIP * times[1])
    roots: list[tuple[float, int]] = []
    for t, m in sorted(zip(found[keep].tolist(), mult[keep].tolist())):
        if not roots or t - roots[-1][0] > _DEDUPE_REL * max(1.0, roots[-1][0]):
            roots.append((t, int(m)))
    return roots


@dataclass(frozen=True)
class MatchReport:
    """Greedy pairing of closed-form and detected conjugate times."""

    matched: list[tuple[float, float, int, int]]   # (t_closed, t_detected, m_closed, m_det)
    missing: list[tuple[float, int]]               # closed-form only
    spurious: list[tuple[float, int]]              # detected only
    mult_mismatches: list[tuple[float, int, int]]  # (t_closed, m_closed, m_det)

    @property
    def ok(self) -> bool:
        return not (self.missing or self.spurious or self.mult_mismatches)


def compare(closed: list, detected: list[tuple[float, int]],
            match_tol: float = DEFAULT_TOL.match_tol) -> MatchReport:
    """Match sorted time lists greedily within match_tol.

    `closed` entries may be ConjugateTime objects or (t, mult) pairs.
    """
    def as_pair(entry):
        if isinstance(entry, tuple):
            return float(entry[0]), int(entry[1])
        return float(entry.t), int(entry.multiplicity)

    cl = sorted(as_pair(e) for e in closed)
    de = sorted((float(t), int(m)) for t, m in detected)
    matched, missing, spurious, mismatches = [], [], [], []
    i = j = 0
    while i < len(cl) and j < len(de):
        tc, mc = cl[i]
        td, md = de[j]
        if abs(tc - td) <= match_tol:
            matched.append((tc, td, mc, md))
            if mc != md:
                mismatches.append((tc, mc, md))
            i += 1
            j += 1
        elif tc < td:
            missing.append(cl[i])
            i += 1
        else:
            spurious.append(de[j])
            j += 1
    missing.extend(cl[i:])
    spurious.extend(de[j:])
    return MatchReport(matched, missing, spurious, mismatches)
