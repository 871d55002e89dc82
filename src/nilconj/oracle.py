"""Numerical cross-check: propagate the frame Jacobi system and detect
conjugate points by rank drop of the boundary map.

The moving-frame system for a field Y = z + e^{tJ} v vanishing at t = 0 is

    zdot = zeta + [e^{tJ} v, e^{tJ} x0]
    vdot = w
    wdot = -J w + e^{-tJ} J_zeta e^{tJ} x0

with constant zeta and z(0) = 0, v(0) = 0.  With zeta carried as rows of its
own, the state (zeta, z, v, w) of d = 2p + 2q rows obeys s' = A(t) s.  The
boundary map M(t) sends the free initial data (zeta, vdot(0)) to
(z(t), v(t)); t is conjugate exactly when M(t) is singular, with
multiplicity the kernel dimension.  This module never consults the closed
forms, so it serves as an independent oracle, including for geodesics the
closed forms do not cover.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ParseError
from .geometry import GeodesicSpec
from .numerics import _check_t_max, _expm_powers, _expm_stack, bracket_root, golden_min

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
_PARITY_OFFSET = 1e-7    # sign det M is sampled this * max(1, t*) either side of a refined t*
# Memory bound: steps * d^2 state entries at most, about 0.75 GB of working arrays at d = 10.
_MAX_STATE_ENTRIES = 2 ** 25
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0    # Gauss-Legendre nodes on [0, 1]
_CARRY_GROWTH = 4.0      # a constant A's carry is factored once |A|_2 t grows by this much


def default_steps(t_max: float) -> int:
    return max(100, int(np.ceil(256.0 * t_max)))


@dataclass(frozen=True)
class Propagator:
    """Node states of the frame Jacobi system's basis solutions, formed on demand, for
    geodesics of one algebra on one grid; integrate_propagator's is the stack of one.

    With L = local[i (b + 1):], S = start[i m:] and b = block, geodesic i's carried state
    at node n = k b + j is L[j] @ S[k], L[j] = e^{j h A}, for a constant system matrix A,
    else L[k (b + 1) + j] @ S[k] (a varying A stacks alone).  Its rows are (zeta, z, v, w);
    its columns span the solution space and, times scales[i, k] (unit upper triangular), are
    the basis solutions (zeta = center basis, then vdot(0) = e_a).  M is the raw (z, v)
    block, det M the carried one's.  systems are the A (None where A varies), norms their
    |A|_2 (inf where A varies).
    """

    geos: tuple
    times: np.ndarray
    block: int
    local: np.ndarray
    start: np.ndarray
    scales: np.ndarray              # (k, m, r, r)
    systems: np.ndarray | None      # (k, d, d)
    norms: np.ndarray               # (k,)

    dim_center = property(lambda self: self.geos[0].alg.dim_center)
    dim_v = property(lambda self: self.geos[0].alg.dim_v)
    basis = property(lambda self: self.nodes(0, np.arange(self.times.size)))

    @property
    def states(self) -> np.ndarray:
        """Raw (z, v, w) rows at every node, shape (steps + 1, p + 2q, p + q)."""
        blocks = np.arange(self.times.size) // self.block
        return self.basis[:, self.dim_center:] @ self.scales[0][blocks]

    def nodes(self, i: np.ndarray | int, n: np.ndarray) -> np.ndarray:
        """Carried states at nodes n of geodesics i."""
        k, j = np.divmod(n, self.block)
        row = (k if self.systems is None else i) * (self.block + 1) + j
        return self.local[row] @ self.start[i * self.scales.shape[1] + k]

    def at(self, t: np.ndarray, i: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """Carried states at times t of geodesics i from the nodes below, and those nodes."""
        n = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 1)
        a = None if self.systems is None else self.systems[i]
        return _transfer(self.geos[0], a, self.times[n], t - self.times[n]) @ self.nodes(i, n), n


def _system(geo: GeodesicSpec, ep: np.ndarray) -> np.ndarray:
    """System matrices A of the state (zeta, z, v, w) at times whose e^{tJ} is ep;
    the forcing's e^{-tJ} is G^{-1} (e^{tJ})^T G, J being G-skew-adjoint."""
    alg = geo.alg
    p, q = alg.dim_center, alg.dim_v
    z, v, w = slice(p, 2 * p), slice(2 * p, 2 * p + q), slice(2 * p + q, None)
    xp = ep @ geo.x0
    em = np.linalg.inv(alg.gram_v) @ np.swapaxes(ep, -1, -2) @ alg.gram_v
    a = np.zeros(ep.shape[:-2] + (2 * (p + q),) * 2)
    a[..., z, :p] = np.eye(p)
    a[..., z, v] = np.einsum("aij,...j->...ai", alg.structure, xp) @ ep
    a[..., v, w] = np.eye(q)
    a[..., w, :p] = em @ np.einsum("aij,...j->...ia", alg._j_basis, xp)
    a[..., w, w] = -geo.J
    return a


def _transfer(geo: GeodesicSpec, a: np.ndarray | None, t0: np.ndarray,
              dt: np.ndarray) -> np.ndarray:
    """Transfer matrices of the state from t0 to t0 + dt, elementwise over arrays:
    e^{dt a} for constant system matrices a, exactly; with a = None the
    exponential of the fourth-order Magnus exponent dt/2 (A1 + A2) +
    (sqrt(3)/12) dt^2 [A2, A1], A1 and A2 taken at the step's two Gauss points
    (Iserles and Norsett, Phil. Trans. R. Soc. A 357, 1999).  _expm_stack
    takes each exponential as if alone, so no transfer depends on the others
    in its array.
    """
    dt = np.asarray(dt)[..., None, None]
    if a is not None:
        return _expm_stack(dt * a)
    gauss = (t0[..., None] + dt[..., 0] * _GAUSS)[..., None, None]
    a1, a2 = np.moveaxis(_system(geo, _expm_stack(gauss * geo.J)), -3, 0)
    return _expm_stack(0.5 * dt * (a1 + a2) + np.sqrt(3.0) / 12.0 * dt * dt * (a2 @ a1 - a1 @ a2))


def _constant(geo: GeodesicSpec) -> bool:
    """A(t) = A(0) where x0 = 0, J = 0 or the center is a line (then every J_a is a
    multiple of J, so e^{tJ} is an automorphism)."""
    return geo.alg.dim_center == 1 or not geo.x0.any() or not geo.J.any()


def _grid(geo: GeodesicSpec, t_max: float, steps: int | None) -> tuple[int, int, int]:
    """steps, b = ceil(sqrt(steps)) and the block count m, or the oracle's ParseError."""
    _check_t_max(t_max)
    steps = default_steps(t_max) if steps is None else steps
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 100:
        raise ParseError(f"steps must be an integer of at least 100, got {steps!r}")
    if steps * (2 * (geo.alg.dim_center + geo.alg.dim_v)) ** 2 > _MAX_STATE_ENTRIES:
        raise ParseError(f"t_max {t_max:g} with {steps} steps exceeds the oracle's memory "
                         f"bound of {_MAX_STATE_ENTRIES} state entries")
    b = int(np.ceil(np.sqrt(steps)))
    return steps, b, -(-(steps + 1) // b)


def _integrate(geos: list[GeodesicSpec], t_max: float, steps: int | None) -> Propagator:
    """integrate_propagator of constant-A geodesics, or of one varying-A, in one pass."""
    steps, b, m = _grid(geos[0], t_max, steps)
    p, q, count = geos[0].alg.dim_center, geos[0].alg.dim_v, len(geos)
    d, r, h = 2 * (p + q), p + q, t_max / steps
    if _constant(geos[0]):
        a = np.stack([_system(geo, np.eye(q)) for geo in geos])
        norm = np.linalg.norm(a, 2, axis=(-2, -1))
        g = np.maximum(1, (_CARRY_GROWTH / (norm * b * h)).astype(int)).tolist()
        local = _expm_powers(h * a, b + 1)
        carry = np.broadcast_to(local[:, b], (m, count, d, d))
    else:
        a, norm, g = None, np.array([np.inf]), [1]
        local = np.empty((m, b + 1, d, d))
        local[:, 0] = np.eye(d)
        local[:, 1:] = _transfer(geos[0], None, h * np.arange(m * b), h).reshape(m, b, d, d)
        for j in range(1, b):
            local[:, j + 1] = local[:, j + 1] @ local[:, j]
        carry = local[:, None, b]
    due = [[i for i, gi in enumerate(g) if k % gi == 0] for k in range(m)]   # factored at k
    start, scale = np.zeros((count, m, d, r)), np.tile(np.eye(r), (count, m, 1, 1))
    start[:, 0, :p, :p] = np.eye(p)             # zeta = e_a
    start[:, 0, 2 * p + q:, p:] = np.eye(q)     # vdot(0) = e_a: orthogonal columns
    for k in range(1, m):
        start[:, k], scale[:, k] = carry[k - 1] @ start[:, k - 1], scale[:, k - 1]
        if due[k]:
            i = slice(None) if len(due[k]) == count else due[k]
            rk = np.linalg.qr(start[i, k], mode="r")
            u = rk / np.diagonal(rk, axis1=-2, axis2=-1)[..., None]   # unit upper triangular
            start[i, k] = np.linalg.solve(u.swapaxes(-1, -2),
                                          start[i, k].swapaxes(-1, -2)).swapaxes(-1, -2)
            scale[i, k] = u @ scale[i, k]
    return Propagator(tuple(geos), np.linspace(0.0, t_max, steps + 1), b,
                      local.reshape(-1, d, d), start.reshape(-1, d, r), scale, a, norm)


def integrate_propagator(geo: GeodesicSpec, t_max: float,
                         steps: int | None = None) -> Propagator:
    """Node states at t_n = n h, h = t_max / steps, of all p + q basis solutions.

    In blocks of b = ceil(sqrt(steps)) nodes, local maps a block start to the block's
    nodes: for a constant A the powers e^{j h A} (_expm_powers), else the running products
    of the block's step transfers (_transfer).  A second loop carries each block start y
    to the next and, every g blocks, factors it as y = c u: u is the Householder R with its
    rows divided by their diagonal, and c = y u^{-1} = Q diag(R) has orthogonal columns, so
    they never collapse onto the fastest-growing solution; scale is the running product of
    the u.  A constant A takes g = max(1, floor(G / (|A|_2 b h))), G = _CARRY_GROWTH, so
    between factorizations no state grows or shrinks by more than e^G; a varying A takes
    g = 1.  On a flat geodesic the columns stay orthogonal with disjoint supports, u = I,
    and the states come back unrounded.
    """
    return _integrate([geo], t_max, steps)


def matrix_at(prop: Propagator, t: float | np.ndarray, full: bool = False) -> np.ndarray:
    """Raw boundary map at any finite times, by the transfer from the node below each.

    t is a scalar or an array of times, a ParseError if not finite; the result
    has t's shape in front of the (p + q, p + q) map.  At a node the transfer
    is exactly the identity.  With full=True it is the carried state (zeta, z,
    v, w) instead, 2p + 2q rows: the raw state without the block's factors scale.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ParseError(f"matrix_at needs finite times, got {t[~np.isfinite(t)][0]:g}")
    state, n = prop.at(t, 0)
    p = prop.dim_center
    return state if full else state[..., p:2 * p + prop.dim_v, :] @ prop.scales[0][n // prop.block]


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


def _log_cosine_product(states: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """sign det M and the log of the product of _cosines(states, p), without a QR.

    With states = Q R, the cosines are the singular values of Q's (z, v)
    rows, so their product is |det M| / |det R| (Bjorck and Golub, Math.
    Comp. 27, 1973); |det R|^2 = det(S^T S) = prod_j |s_j|^2 det(N^T N), the
    s_j being the columns of S = states and N = S with unit columns.
    """
    sign, log_det = np.linalg.slogdet(states[..., p:p + states.shape[-1], :])
    norms = np.linalg.norm(states, axis=-2)
    unit = states / norms[..., None, :]
    log_gram = np.linalg.slogdet(np.swapaxes(unit, -1, -2) @ unit)[1]
    return sign, log_det - np.log(norms).sum(axis=-1) - 0.5 * log_gram


def _cover(stack: Propagator, rank_tol: float) -> tuple[np.ndarray, ...]:
    """sign det M and the scan value (NaN where unread) per node, and the mask of cells kept,
    on a stack's flat axis: node n of geodesic i, of |A|_2 norms[i], is i (steps + 1) + n."""
    n1, count, p = stack.times.size, len(stack.geos), stack.dim_center
    times, lip = np.tile(stack.times, count), np.repeat(stack.norms, n1)
    last = np.repeat(np.arange(n1 - 1, count * n1, n1), n1)   # the last node of its geodesic
    sign, scan, live = np.zeros(count * n1), np.full(count * n1, np.nan), np.zeros(count * n1, bool)

    def read(idx: np.ndarray) -> None:
        if idx.size:
            sign[idx], scan[idx] = _log_cosine_product(stack.nodes(*np.divmod(idx, n1)), p)

    width = np.full(count, 1 << (int(stack.block).bit_length() - 1))
    while (cut := (width > 1) & (lip[::n1] * width * stack.times[1] >= 2.0)).any():
        width[cut] //= 2                        # products are at most 1: these cannot clear
    first = [np.arange(i * n1, (i + 1) * n1 - 1, w) for i, w in enumerate(width.tolist())]
    read(np.concatenate(first + [last[::n1]]))
    w, lo = width.max(), np.zeros(0, dtype=int)
    while True:
        lo = np.concatenate([lo] + [f for f, wi in zip(first, width) if wi == w])
        hi = np.minimum(lo + w, last[lo])
        lo = lo[np.exp(scan[lo]) + np.exp(scan[hi]) - lip[lo] * (times[hi] - times[lo])
                < 2.0 * rank_tol]
        if w == 1:
            break
        w //= 2
        read(mid := lo[lo + w < last[lo]] + w)
        lo = np.concatenate([lo, mid])
    live[lo] = True
    near = np.convolve(live, [1, 0, 0, 1])[1:count * n1 + 1] > 0   # nodes k - 1, k + 2 of cells k
    read(np.nonzero(near & np.isnan(scan))[0])
    return sign, scan, live[:-1]


def _detect(stack: Propagator, tol: Tolerances) -> list[list[tuple[float, int]]]:
    """detect_conjugate of each geodesic of a stack, over its flat node axis."""
    n1, count, roots = stack.times.size, len(stack.geos), [[] for _ in stack.geos]
    p, q = stack.dim_center, stack.dim_v
    times, lip = np.tile(stack.times, count), np.repeat(stack.norms, n1)
    sign, scan, live = _cover(stack, tol.rank_tol)
    change = sign[:-1] * sign[1:] < 0           # sign det M(0) = 0 parts the geodesics
    cells = np.nonzero(change)[0]
    minima = np.nonzero((scan[1:-1] <= scan[:-2]) & (scan[1:-1] <= scan[2:]))[0] + 1
    minima = minima[(minima % n1 > 0) & (minima % n1 < n1 - 1)]
    minima = minima[(live[minima - 1] | live[minima]) & ~(change[minima - 1] | change[minima])]
    last = np.arange(n1 - 1, count * n1, n1)
    last = last[live[last - 1] & (scan[last] < scan[last - 1])]   # a decreasing right end
    lo, hi = np.concatenate([minima - 1, last - 1]), np.concatenate([minima + 1, last])
    if cells.size + lo.size == 0:
        return roots
    ends = np.concatenate([cells, lo, cells + 1, hi])
    c_ends = _cosines(stack.nodes(*np.divmod(ends, n1)), p)[:, -1].reshape(2, -1)
    f_ends = (sign[ends].reshape(2, -1) * c_ends)[:, :cells.size]
    c_lo, c_hi = c_ends[:, cells.size:]
    hold = c_lo + c_hi - lip[lo] * (times[hi] - times[lo]) < 2.0 * tol.rank_tol
    lo, hi = lo[hold], hi[hold]
    if cells.size + lo.size == 0:
        return roots

    def cosines(t: np.ndarray, i: np.ndarray) -> np.ndarray:
        return _cosines(stack.at(t, i)[0], p)

    def signed_cosine(t: np.ndarray, i: np.ndarray) -> np.ndarray:
        state = stack.at(t, i)[0]
        return np.linalg.slogdet(state[..., p:2 * p + q, :])[0] * _cosines(state, p)[..., -1]

    found = bracket_root(signed_cosine, times[cells], times[cells + 1], *f_ends,
                         xtol=tol.refine_tol, args=(cells // n1,))
    if lo.size:
        found = np.concatenate([found, golden_min(lambda t, i: cosines(t, i)[:, -1], times[lo],
                                                  times[hi], fa=c_lo[hold], fb=c_hi[hold],
                                                  xtol=tol.refine_tol, args=(lo // n1,))[0]])
    lo, hi = np.concatenate([cells, lo]), np.concatenate([cells + 1, hi])
    which = lo // n1
    mult = np.sum(cosines(found, which) < tol.rank_tol, axis=-1)
    odd_change = sign[lo] * sign[hi] < 0
    recheck = (sign[lo] * sign[hi] != 0) & (odd_change != (mult % 2 == 1))
    if recheck.any():
        t_star, g = found[recheck], which[recheck]
        off = _PARITY_OFFSET * np.maximum(1.0, t_star)
        near = np.sign(signed_cosine(np.stack([t_star - off, t_star + off]), np.stack([g, g])))
        a, b = times[lo[recheck]], times[hi[recheck]]
        left = (near[0] != sign[lo[recheck]]) & (t_star - off > a)
        right = (near[1] != sign[hi[recheck]]) & (t_star + off < b)
        a = np.concatenate([a[left], (t_star + off)[right]])
        b = np.concatenate([(t_star - off)[left], b[right]])
        if a.size:
            g = np.concatenate([g[left], g[right]])
            second = bracket_root(signed_cosine, a, b, xtol=tol.refine_tol, args=(g,))
            found, which = np.concatenate([found, second]), np.concatenate([which, g])
            mult = np.concatenate([mult, np.sum(cosines(second, g) < tol.rank_tol, axis=-1)])
    keep = (mult > 0) & (found >= _START_SKIP * stack.times[1])
    for i, t, m in sorted(zip(which[keep].tolist(), found[keep].tolist(), mult[keep].tolist())):
        if not roots[i] or t - roots[i][-1][0] > _DEDUPE_REL * max(1.0, roots[i][-1][0]):
            roots[i].append((t, int(m)))
    return roots


def detect_conjugate(geo: GeodesicSpec, t_max: float, steps: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> list[tuple[float, int]]:
    """Conjugate times in (0, t_max] by rank drop of the boundary map.

    The multiplicity at a time is the number of principal-angle cosines
    between the solution space and the (z, v) axes below tol.rank_tol.
    They are |A|_2-Lipschitz in t: the projector P onto the solution space has
    P' = (I - P) A P + P A^T (I - P), so |P'|_2 <= |A|_2, and they are the
    nonzero singular values of P's (z, v) rows (Weyl).  So between nodes a < b
    the smallest is at least (c_a + c_b - |A|_2 (b - a)) / 2, with c the
    smallest cosine or e^scan, the product of the cosines.  Where A is constant
    (Propagator.systems), _cover halves the propagator's blocks, cut to a power
    of 2 nodes, to the grid cells where this bound on e^scan is below rank_tol;
    a varying A keeps every cell.  The candidates are the kept cells where sign
    det M changes (odd multiplicities), refined by an Illinois iteration on
    sign(det M) cos_min, which crosses zero linearly there; and the scan's
    interior minima beside a kept cell whose bracket holds no such cell, and a
    decreasing right end, refined by golden_min's V steps on cos_min, which
    is a V there, where the bound on their ends' smallest cosines is below
    rank_tol; all to refine_tol in t.
    Where the multiplicity's parity differs from det M's sign change across the
    bracket, the same iteration solves a second root on the side of the first
    where det M changes sign.  det M comes from the carried state's (z, v)
    rows, since the factors in Propagator.scales have determinant 1.
    """
    return _detect(integrate_propagator(geo, t_max, steps), tol)[0]


def detect_stack(geos: list[GeodesicSpec], t_max: float, steps: int | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> list[list[tuple[float, int]]]:
    """detect_conjugate of each of geos, all of one algebra, each list bit for bit the one
    it gets alone; the input is checked first.  A pass takes k constant-A geodesics (a
    varying-A one alone): their (b + 1) d^2 + m d r + m r^2 entries each, d = 2r, stay within
    one geodesic's node states, and their cover's k (steps + 1) d^2 within _MAX_STATE_ENTRIES."""
    steps, b, m = _grid(geos[0], t_max, steps)
    k = max(1, min(2 * (steps + 1) // (4 * (b + 1) + 3 * m),
                   _MAX_STATE_ENTRIES // (4 * (steps + 1) * geos[0].alg.dim ** 2)))
    constant = [i for i, geo in enumerate(geos) if _constant(geo)]
    roots: dict = {}
    for chunk in ([constant[c:c + k] for c in range(0, len(constant), k)]
                  + [[i] for i, geo in enumerate(geos) if not _constant(geo)]):
        roots.update(zip(chunk, _detect(_integrate([geos[i] for i in chunk], t_max, steps), tol)))
    return [roots[i] for i in range(len(geos))]


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

    Entries may be ConjugateTime objects or (t, mult) pairs of any sequence type,
    such as the lists json.loads returns, of reals with t finite and mult an integer
    of at least 1 (2.0 counts; 2.7, "2", True and np.True_ do not); anything else is
    a ParseError, as is a match_tol that the Tolerances field of that name refuses.
    """
    def as_pair(entry) -> tuple[float, int]:
        pair = (entry.t, entry.multiplicity) if hasattr(entry, "multiplicity") else entry
        try:
            t, mult = () if isinstance(pair, (str, bytes)) else pair
            if (all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in (t, mult))
                    and math.isfinite(t := float(t)) and int(mult) == mult >= 1):
                return t, int(mult)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ParseError(f"expected (t, mult), t finite and mult an integer >= 1, got {entry!r}")

    DEFAULT_TOL.replace(match_tol=match_tol)
    cl = sorted(as_pair(e) for e in closed)
    de = sorted(as_pair(e) for e in detected)
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
