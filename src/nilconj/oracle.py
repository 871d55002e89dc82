"""Numerical cross-check: propagate the frame Jacobi system and detect
conjugate points by rank drop of the boundary map.

The moving-frame system for a field Y = z + e^{tJ} v vanishing at t = 0 is

    zdot = zeta + [e^{tJ} v, e^{tJ} x0]
    vdot = w
    wdot = -J w + e^{-tJ} J_zeta e^{tJ} x0

with constant zeta and z(0) = 0, v(0) = 0.  The boundary map M(t) sends the
free initial data (zeta, vdot(0)) to (z(t), v(t)); t is conjugate exactly
when M(t) is singular, with multiplicity the kernel dimension.  This module
never consults the closed forms, so it serves as an independent oracle,
including for geodesics the closed forms do not cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .config import DEFAULT_TOL, Tolerances
from .geometry import GeodesicSpec
from .numerics import golden_min, grid_transport

__all__ = [
    "Propagator",
    "integrate_propagator",
    "matrix_at",
    "sigma_min_series",
    "detect_conjugate",
    "MatchReport",
    "compare",
]

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


def _coefficients(geo: GeodesicSpec, ep: np.ndarray,
                  em: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bracket and forcing blocks of the frame system from stacked e^{tJ}, e^{-tJ}.

    bracket[i] row a is [., e^{tJ}x0]_a.  forcing[i] acts on the basis
    columns: column a < p is e^{-tJ} J_a e^{tJ}x0, the vdot(0) columns are 0.
    """
    p = geo.alg.dim_center
    xp = ep @ geo.x0
    bracket = np.einsum("aij,nj->nai", geo.alg.structure, xp) @ ep
    forcing = np.zeros(em.shape[:2] + (p + geo.alg.dim_v,))
    forcing[:, :, :p] = em @ np.einsum("aij,nj->nia", geo.alg._j_basis, xp)
    return bracket, forcing


def _rhs(geo: GeodesicSpec, bracket: np.ndarray, forcing: np.ndarray,
         state: np.ndarray) -> np.ndarray:
    p, q = geo.alg.dim_center, geo.alg.dim_v
    v = state[p:p + q]
    w = state[p + q:]
    dz = np.eye(p, p + q) + bracket @ v     # zeta = e_a on the center columns
    return np.concatenate([dz, w, forcing - geo.J @ w], axis=0)


def _rk4_step(geo: GeodesicSpec, bracket: np.ndarray, forcing: np.ndarray,
              state: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step; coefficient rows 0, 1, 2 sit at t, t + dt/2, t + dt."""
    k1 = _rhs(geo, bracket[0], forcing[0], state)
    k2 = _rhs(geo, bracket[1], forcing[1], state + 0.5 * dt * k1)
    k3 = _rhs(geo, bracket[1], forcing[1], state + 0.5 * dt * k2)
    k4 = _rhs(geo, bracket[2], forcing[2], state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_propagator(geo: GeodesicSpec, t_max: float,
                         steps: int | None = None) -> Propagator:
    """Fixed-step RK4 solve of all p + q basis columns simultaneously."""
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if steps is None:
        steps = default_steps(t_max)
    if steps < 100:
        raise ValueError("steps must be at least 100")
    p, q = geo.alg.dim_center, geo.alg.dim_v
    h = t_max / steps
    eye = np.broadcast_to(np.eye(q), (2 * steps + 1, q, q))   # half grid
    bracket, forcing = _coefficients(geo, grid_transport(geo.J, 0.5 * h, eye),
                                     grid_transport(-geo.J, 0.5 * h, eye))
    states = np.zeros((steps + 1, p + 2 * q, p + q))
    states[0, p + q:, p:] = np.eye(q)      # vdot(0) basis columns
    for n in range(steps):
        rows = slice(2 * n, 2 * n + 3)
        states[n + 1] = _rk4_step(geo, bracket[rows], forcing[rows], states[n], h)
    times = np.linspace(0.0, t_max, steps + 1)
    return Propagator(times, states, p, q)


def matrix_at(prop: Propagator, geo: GeodesicSpec, t: float) -> np.ndarray:
    """Boundary map at an off-grid time: one RK4 substep from the node below."""
    h = prop.times[1] - prop.times[0]
    n = int(np.clip(np.floor(t / h), 0, prop.times.size - 1))
    t0 = prop.times[n]
    dt = t - t0
    state = prop.states[n]
    if dt != 0.0:
        ts = (t0 + np.array([0.0, 0.5 * dt, dt]))[:, None, None]
        bracket, forcing = _coefficients(geo, expm(ts * geo.J), expm(-ts * geo.J))
        state = _rk4_step(geo, bracket, forcing, state, dt)
    return state[: prop.dim_center + prop.dim_v, :]


def sigma_min_series(prop: Propagator) -> np.ndarray:
    """sigma_min(M(t)) at every node, for scans and CSV export."""
    mats = prop.states[:, : prop.dim_center + prop.dim_v, :]
    return np.linalg.svd(mats, compute_uv=False)[:, -1]


def detect_conjugate(geo: GeodesicSpec, t_max: float, steps: int | None = None,
                     rank_tol: float | None = None, tol: Tolerances = DEFAULT_TOL,
                     prop: Propagator | None = None) -> list[tuple[float, int]]:
    """Conjugate times in (0, t_max] by rank drop of the boundary map.

    Every interior local minimum of sigma_min (plus a decreasing right
    endpoint) is refined by golden section to 1e-9 in t; the refined point
    counts as conjugate when singular values fall below rank_tol times the
    local sigma_max, and their number is the multiplicity.
    """
    if rank_tol is None:
        rank_tol = tol.rank_tol
    if prop is None:
        prop = integrate_propagator(geo, t_max, steps)
    sig = sigma_min_series(prop)
    times = prop.times
    h = times[1] - times[0]
    n_nodes = times.size
    minima = np.nonzero((sig[1:-1] <= sig[:-2]) & (sig[1:-1] <= sig[2:]))[0] + 1
    candidates = [(times[i - 1], times[i + 1]) for i in minima]
    if n_nodes >= 2 and sig[-1] < sig[-2]:
        candidates.append((times[-2], times[-1]))

    def sigma_at(t: float) -> float:
        sv = np.linalg.svd(matrix_at(prop, geo, t), compute_uv=False)
        return float(sv[-1])

    found: list[tuple[float, int]] = []
    for a, b in candidates:
        t_star, _ = golden_min(sigma_at, float(a), float(b), xtol=tol.refine_tol)
        if t_star < 4.0 * h:   # M(0) = 0 makes t = 0 trivially singular
            continue
        sv = np.linalg.svd(matrix_at(prop, geo, t_star), compute_uv=False)
        mult = int(np.sum(sv < rank_tol * sv[0]))
        if mult == 0:
            continue
        if any(abs(t_star - t_prev) <= 1e-8 * max(1.0, t_prev)
               for t_prev, _ in found):
            continue
        found.append((float(t_star), mult))
    return sorted(found)


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
            match_tol: float = 1e-5) -> MatchReport:
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
