"""Connection, curvature, geodesics, and the moving-frame Jacobi residual.

Geodesics through the identity are encoded by their initial data (z0, x0);
the left-trivialized velocity is z0 + exp(tJ) x0 with J the skew-adjoint
operator of z0.  Vector fields along a geodesic are written in the moving
frame Y(t) = z(t) + exp(tJ) v(t).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    MetricLieAlgebra,
    bracket_v,
    inner_v,
    inner_z,
    j_map,
)
from .errors import InsufficientSamplesError, ParseError
from .numerics import _expm_powers, _expm_stack

__all__ = [
    "GeodesicSpec",
    "JacobiField",
    "connection",
    "curvature",
    "jacobi_operator",
    "geodesic_velocity",
    "geodesic_point",
    "jacobi_frame_residual",
    "field_values",
    "serialize_field",
]

_UNIFORM_REL = 1e-9     # fixed: grid steps equal to this relative accuracy count as uniform
_COVER_SLACK = 1e-12    # fixed, relative: a time this far past half a step keeps its sample
_POINT_BLOCK = 2 ** 16  # geodesic_point's lifts hold at most this many entries per block


@dataclass(frozen=True, eq=False)
class GeodesicSpec:
    """Initial data of a geodesic through the identity; caches J and the speed."""

    alg: MetricLieAlgebra
    z0: np.ndarray
    x0: np.ndarray

    def __post_init__(self) -> None:
        z0 = np.asarray(self.z0, dtype=float).reshape(-1)
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if z0.shape != (self.alg.dim_center,) or x0.shape != (self.alg.dim_v,):
            raise ParseError("initial data dimensions do not match the algebra")
        if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(x0))):
            raise ParseError("initial data must be finite")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "J", j_map(self.alg, z0))
        object.__setattr__(self, "speed",
                           inner_z(self.alg, z0, z0) + inner_v(self.alg, x0, x0))


@dataclass(frozen=True, eq=False)
class JacobiField:
    """Sampled field in the moving frame Y(t) = z(t) + exp(tJ) v(t).

    zeta is the constant center slope of the field equation; samples hold
    z(t) row-wise in `z` and v(t) row-wise in `v` on the strictly increasing
    grid `times`.
    """

    zeta: np.ndarray
    times: np.ndarray
    z: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        zeta = np.asarray(self.zeta, dtype=float).reshape(-1)
        times = np.asarray(self.times, dtype=float).reshape(-1)
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        v = np.atleast_2d(np.asarray(self.v, dtype=float))
        n = times.size
        if z.shape[0] != n or v.shape[0] != n:
            raise ParseError("sample arrays must have one row per time")
        if n >= 2 and not np.all(np.diff(times) > 0.0):
            raise ParseError("sample times must be strictly increasing")
        for name, arr in (("zeta", zeta), ("times", times), ("z", z), ("v", v)):
            if not np.all(np.isfinite(arr)):
                raise ParseError("field samples must be finite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class _FieldForm:
    """Closed form of a witness on a J-invariant span of B, J B = B K: with P(t) = sum_k
    t^k p[k], v(t) = B (P(t) + g(t)) and z(t) = sum_k t^k q[k] + zg g(t), g(t) = (exp(-tK)
    - I) c, so exp(tJ) v(t) = B (exp(tK) (P(t) - c) + c), and no exponential of J is formed."""

    p: np.ndarray      # (k + 1, r) power coefficients of v in B coordinates
    q: np.ndarray      # (k + 1, dim_center) power coefficients of z, as many as of v
    zg: np.ndarray     # (dim_center, r)
    c: np.ndarray      # (r,)
    basis: np.ndarray  # (dim_v, r) B
    k: np.ndarray      # (r, r) K

    def jet(self, times: np.ndarray, step: float | None = None) -> tuple[np.ndarray, ...]:
        """(z, zdot, v, exp(tJ) v, exp(tJ) vdot, exp(tJ) vddot), one row per time, exact:
        exp(tJ) v' = B (exp(tK) P' - K c), exp(tJ) v'' = B (exp(tK) P'' + K^2 c).  exp(+-tK)
        are the blocks of E(t) = exp(t diag(K, -K)), one stack; if times = i step, row
        i = j b + k is E(j b step) E(k step), b = ceil(sqrt(n)), from _expm_powers' b fine
        and ceil(n / b) coarse powers (Moler and Van Loan, SIAM Review 45, 2003)."""
        d, t, r = np.arange(len(self.p)), times[:, None], self.c.size
        pw = np.array([t ** d, d * t ** np.maximum(d - 1, 0), d * (d - 1) * t ** np.maximum(d - 2, 0)])
        poly = pw @ self.p
        poly[0] -= self.c   # P - c, P', P''
        rows, gen = np.zeros((times.size, 2 * r, 3)), np.zeros((2 * r, 2 * r))
        rows[:, :r], rows[:, r:, 0] = poly.transpose(1, 2, 0), self.c
        gen[:r, :r], gen[r:, r:] = self.k, -self.k
        if step is None:
            e = _expm_stack(times[:, None, None] * gen)
        else:
            n = times.size
            b = max(1, int(np.ceil(np.sqrt(n))))
            fine, coarse = (_expm_powers(k * step * gen, m) for k, m in ((1, b), (b, -(-n // b))))
            e = (coarse[:, None] @ fine).reshape(-1, 2 * r, 2 * r)[:n]
        out = e @ rows
        back, kc = out[:, r:, 0], self.k @ self.c
        frame = (out[:, :r] + np.array([self.c, -kc, self.k @ kc]).T).transpose(2, 0, 1)
        return (pw[0] @ self.q + (back - self.c) @ self.zg.T,
                pw[1] @ self.q - back @ (self.zg @ self.k).T,
                (poly[0] + back) @ self.basis.T, *(frame @ self.basis.T))


@dataclass(frozen=True, eq=False)
class _ExactField(JacobiField):
    """A witness from build_jacobi_field: its samples and frame values are a view of its form."""

    form: _FieldForm
    frame: np.ndarray


def connection(alg: MetricLieAlgebra, u: AlgebraElement, w: AlgebraElement) -> AlgebraElement:
    """Levi-Civita connection on left-invariant fields.

    Bilinear extension of: center/center -> 0, mixed -> -J_z e / 2 on the
    complement, complement/complement -> [e, e'] / 2 in the center.
    """
    v_part = -0.5 * (j_map(alg, u.z) @ w.v + j_map(alg, w.z) @ u.v)
    z_part = 0.5 * bracket_v(alg, u.v, w.v)
    return AlgebraElement(z_part, v_part)


def curvature(alg: MetricLieAlgebra, x: AlgebraElement, y: AlgebraElement,
              w: AlgebraElement) -> AlgebraElement:
    """Curvature R(x, y)w as the trilinear extension of the case table.

    Matches the commutator construction
    R(x, y)w = conn_x conn_y w - conn_y conn_x w - conn_[x,y] w
    on left-invariant arguments.
    """
    z1, v1 = x.z, x.v
    z2, v2 = y.z, y.v
    z3, v3 = w.z, w.v
    jz1 = j_map(alg, z1)
    jz2 = j_map(alg, z2)
    jz3 = j_map(alg, z3)
    j12 = j_map(alg, bracket_v(alg, v1, v2))
    j13 = j_map(alg, bracket_v(alg, v1, v3))
    j23 = j_map(alg, bracket_v(alg, v2, v3))
    v_out = (0.25 * (jz1 @ (jz2 @ v3) - jz2 @ (jz1 @ v3))
             + 0.25 * jz1 @ (jz3 @ v2) - 0.25 * jz2 @ (jz3 @ v1)
             + 0.25 * (j13 @ v2 - j23 @ v1) + 0.5 * j12 @ v3)
    z_out = (0.25 * bracket_v(alg, v2, jz1 @ v3) - 0.25 * bracket_v(alg, v1, jz2 @ v3)
             - 0.25 * (bracket_v(alg, v1, jz3 @ v2) + bracket_v(alg, jz3 @ v1, v2)))
    return AlgebraElement(z_out, v_out)


def jacobi_operator(geo: GeodesicSpec, t: float, y: AlgebraElement) -> AlgebraElement:
    """Closed form of R(Y, gdot(t)) gdot(t) for Y = z + x in frame coordinates."""
    alg, j, xp = geo.alg, geo.J, geodesic_velocity(geo, t).v
    z, x = y.z, y.v
    jz = j_map(alg, z)
    jxp = j @ xp
    j_xxp = j_map(alg, bracket_v(alg, x, xp))
    v_out = 0.75 * j_xxp @ xp + 0.5 * jz @ jxp - 0.25 * j @ (jz @ xp) - 0.25 * j @ (j @ x)
    z_out = (-0.5 * bracket_v(alg, x, jxp) + 0.25 * bracket_v(alg, xp, j @ x)
             + 0.25 * bracket_v(alg, xp, jz @ xp))
    return AlgebraElement(z_out, v_out)


def geodesic_velocity(geo: GeodesicSpec, t: float) -> AlgebraElement:
    """Left-trivialized velocity z0 + exp(tJ) x0."""
    return AlgebraElement(geo.z0, _expm_stack(t * geo.J[None])[0] @ geo.x0)


def geodesic_point(geo: GeodesicSpec | tuple,
                   t: float | np.ndarray) -> AlgebraElement | np.ndarray:
    """Exponential coordinates (Z(t), X(t)) of geodesic points, exactly.

    geo is one GeodesicSpec with a scalar t, giving an AlgebraElement, or a
    stack (alg, z0, x0) of k rows of initial data with k times t, giving the
    (k, dim) coordinates, center block first; a GeodesicSpec is the stack of
    one.  u = (X, 1) and w = (exp(sJ) x0, 0) both solve y' = A y,
    A = [[J, x0], [0, 0]], so Q = u w^T - w u^T solves Q' = A Q + Q A^T.  One
    block-triangular exponential of that flow (Van Loan, IEEE TAC 23, 1978)
    integrates Q over [0, t]: row q of the integral is (X(t), 0), and the
    bracket contracts its leading block to 2 int [X(s), exp(sJ) x0] ds =
    4 (Z(t) - t z0).  Only the antisymmetric part of u w^T reaches the
    bracket, so the lift grows like exp(rate t), not like its square.  A
    straight line (J = 0) is (t z0, t x0) exactly, with no exponential.  The
    other rows' lifts go in blocks of at most _POINT_BLOCK entries (one row at
    least), each block one _expm_stack call, which takes each lift as if
    alone, so a row's point does not depend on the stack or the block it is in.
    """
    if isinstance(geo, GeodesicSpec):
        p = geo.alg.dim_center
        point = geodesic_point((geo.alg, geo.z0[None], geo.x0[None]), np.array([t]))[0]
        return AlgebraElement(point[:p], point[p:])
    alg, z0, x0 = geo
    p, q = alg.dim_center, alg.dim_v
    z0, x0 = np.asarray(z0, dtype=float), np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    if z0.shape != (t.size, p) or x0.shape != (t.size, q):
        raise ParseError("geodesic_point needs one row of z0 and of x0 per time")
    out = np.hstack([t[:, None] * z0, t[:, None] * x0])
    i, j, x_at, inner, lift_map = _lift_layout(q)
    d = i.size
    bracket = 0.5 * alg.structure[:, i[inner], j[inner]].T   # 1/4 of the antisymmetric sum
    rows_per_block = max(1, _POINT_BLOCK // (d + 1) ** 2)
    for start in range(0, t.size, rows_per_block):
        jz = np.einsum("ka,aij->kij", z0[start:start + rows_per_block], alg._j_basis)
        bent = np.flatnonzero(jz.any(axis=(1, 2)))
        if not bent.size:
            continue
        rows, k = bent + start, bent.size
        a_rows = np.concatenate([jz[bent], x0[rows, :, None]], axis=2)   # [J, x0]
        lift = (a_rows.reshape(k, -1) @ lift_map).reshape(k, d + 1, d + 1)
        c = _expm_stack(t[rows, None, None] * lift)[:, :d, d]   # int_0^t Q
        out[rows, :p] += (c[:, None, inner] @ bracket)[:, 0]
        out[rows, p:] = -c[:, x_at]
    return out


@functools.lru_cache(maxsize=None)
def _lift_layout(q: int) -> tuple[np.ndarray, ...]:
    """geodesic_point's fixed layout for dim_v = q: (i, j, x_at, inner, lift_map).

    The d coordinates of an antisymmetric (q + 1) x (q + 1) matrix Q are
    Q[i, j], i < j; Q[x_at[c]] is Q[c, q], and inner marks the pairs with
    j < q.  lift_map takes the first q rows [J, x0] of A = [[J, x0], [0, 0]],
    flattened, to the lift [[F, Q(0)], [0, 0]], flattened: F is the flow
    Q -> A Q + Q A^T in coordinates, and Q(0) = e_q (x0, 0) - (x0, 0) e_q^T.
    Its entries are 0 and +-1, and each lift entry takes at most two entries
    of A, so the product is exact.
    """
    n = q + 1
    i, j = np.triu_indices(n, 1)
    d = i.size
    basis = np.zeros((n, n, d))
    basis[i, j, np.arange(d)] = 1.0
    basis[j, i, np.arange(d)] = -1.0
    a = np.zeros((q * n, n, n))             # A with one unit entry in its first q rows
    a[:, :q] = np.eye(q * n).reshape(q * n, q, n)
    flow = np.einsum("eil,ljd->eijd", a, basis) + np.einsum("ild,ejl->eijd", basis, a)
    x_at = np.flatnonzero(j == q)
    lift = np.zeros((q * n, d + 1, d + 1))
    lift[:, :d, :d] = flow[:, i, j]
    lift[np.arange(q) * n + q, x_at, d] = -1.0   # x0_c gives Q(0)[c, q] = -x0_c
    return i, j, x_at, np.flatnonzero(j < q), lift.reshape(q * n, -1)


def _stencil_index(times: np.ndarray, t: float) -> int:
    n = times.size
    if n < 3:
        raise InsufficientSamplesError("need at least three samples for finite differences")
    i = int(np.argmin(np.abs(times - t)))
    if i == 0 or i == n - 1:
        raise InsufficientSamplesError(f"t={t} has no interior stencil in the sample grid")
    h1 = times[i] - times[i - 1]
    h2 = times[i + 1] - times[i]
    if abs(h1 - h2) > _UNIFORM_REL * max(h1, h2):
        raise InsufficientSamplesError("sample grid is not locally uniform")
    if abs(times[i] - t) > 0.5 * h1 + _COVER_SLACK * max(1.0, abs(t)):
        raise InsufficientSamplesError(f"t={t} is not covered by the sample grid")
    return i


def jacobi_frame_residual(geo: GeodesicSpec, field: JacobiField,
                          t: float) -> tuple[np.ndarray, np.ndarray]:
    """Residual pair of the moving-frame field equation at t.

    Returns (zdot - [exp(tJ) v, xp] - zeta,
             exp(tJ) vddot + J exp(tJ) vdot - J_zeta xp);
    both vanish exactly for a Jacobi field with constant zeta.  A witness of
    build_jacobi_field takes the exact frame values of its closed form at t in
    [times[0], times[-1]]; a sampled field takes centered finite differences
    on its own grid at the sample nearest t.
    """
    alg = geo.alg
    if isinstance(field, _ExactField):
        if not field.times[0] <= t <= field.times[-1]:
            raise InsufficientSamplesError(f"t={t} lies outside the field's interval")
        xp = _expm_stack(t * geo.J[None])[0] @ geo.x0
        _, zdot, _, ev, evdot, evddot = (r[0] for r in field.form.jet(np.array([t])))
    else:
        i = _stencil_index(field.times, t)
        h, v = field.times[i + 1] - field.times[i], field.v
        e = _expm_stack(field.times[i] * geo.J[None])[0]
        xp = e @ geo.x0
        zdot = (field.z[i + 1] - field.z[i - 1]) / (2.0 * h)
        ev, evdot = e @ v[i], e @ (v[i + 1] - v[i - 1]) / (2.0 * h)
        evddot = e @ (v[i + 1] - 2.0 * v[i] + v[i - 1]) / (h * h)
    res_z = zdot - bracket_v(alg, ev, xp) - field.zeta
    res_v = evddot + geo.J @ evdot - j_map(alg, field.zeta) @ xp
    return res_z, res_v


def serialize_field(field: JacobiField, stride: int = 1) -> str:
    """CSV text of the sampled field: columns t, z_1..z_p, v_1..v_q."""
    p = field.z.shape[1]
    q = field.v.shape[1]
    header = (["t"] + [f"z_{i + 1}" for i in range(p)]
              + [f"v_{i + 1}" for i in range(q)])
    idx = list(range(0, field.times.size, max(1, stride)))
    if idx[-1] != field.times.size - 1:
        idx.append(field.times.size - 1)
    lines = [",".join(header)]
    for i in idx:
        row = [field.times[i], *field.z[i], *field.v[i]]
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def field_values(geo: GeodesicSpec, field: JacobiField) -> np.ndarray:
    """Frame values Y(t_i) = (z_i, exp(t_i J) v_i), one row per sample, from one stacked
    exponential; a witness of build_jacobi_field holds them from its closed form."""
    if isinstance(field, _ExactField):
        return np.hstack([field.z, field.frame])
    e = _expm_stack(field.times[:, None, None] * geo.J)
    return np.hstack([field.z, (e @ field.v[:, :, None])[:, :, 0]])
