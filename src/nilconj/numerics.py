"""Small numerical helpers: the horizon check, an Illinois root search, a
minimum search by V steps under golden section, rank decisions, matrix
exponentials of a stack (each matrix as if alone), and the powers e^{ka} of
one exponential."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from numpy.typing import ArrayLike

from .errors import ParseError

_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0
_ROOT_MAX_ITER = 200    # bracket_root's step cap; Illinois steps shrink the bracket superlinearly
# Diagonal Pade approximants of exp by degree m and the largest 1-norm
# theta_m that each takes to double precision without scaling (Higham, SIAM
# J. Matrix Anal. Appl. 26, 2005, Table 2.3).  The coefficients are divided
# by b0 so that the solve divides by a unit diagonal (I + A comes back
# exactly for a dyadic A with A^2 = 0).
_PADE = {m: tuple(np.array(b) / b[0]) for m, b in {
    3: [120.0, 60.0, 12.0, 1.0],
    5: [30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0],
    7: [17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0],
    9: [17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0],
    13: [64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0],
}.items()}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}
# _expm_stack's key of a 1-norm: k < 4 is degree (3, 5, 7, 9)[k], 4 + s degree 13 with s
# squarings; past the table's end theta_13 2^s exceeds every double.
_KEYS = np.concatenate([[_THETA[m] for m in (3, 5, 7, 9)], np.ldexp(_THETA[13], np.arange(1022))])


def _check_t_max(t_max: float) -> None:
    """Refuse a horizon that is not positive and finite (ParseError)."""
    if not 0.0 < t_max < np.inf:
        raise ParseError(f"t_max must be positive and finite, got {t_max:g}")


def golden_min(f: Callable[..., np.ndarray], a: ArrayLike, b: ArrayLike, xtol: float,
               fa: Optional[ArrayLike] = None, fb: Optional[ArrayLike] = None,
               args: tuple = ()) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Minimum of f on [a, b] by V steps under a golden-section safeguard, elementwise.

    Brent's minimizer (Algorithms for Minimization without Derivatives, 1973,
    ch. 5) with a V in place of the parabola.  Near a zero of multiplicity m
    the smallest principal-angle cosine is s |t - t*| to first order, so two
    points on opposite sides of t* locate it almost exactly.  The state is a
    bracket a < x < b with f(x) <= f(a), f(b), x first the midpoint.  A V step
    takes the steeper of the secant slopes L = (f(a) - f(x)) / (x - a) and
    R = (f(b) - f(x)) / (b - x) as the V's slope, with the vertex on the side
    of the shallower one.  A golden step into the larger side of x replaces
    it when the vertex leaves (a, b), when an end lies below x, or when the
    bracket has not halved in two steps.  No step lands within 0.45 xtol of x;
    one that would goes that far into the larger side, so a vertex at x
    closes the bracket in two more steps.  Stops when the bracket is at most
    xtol wide and returns x and f(x).  fa and fb, if given, are f(a) and f(b).
    f maps an array of points and then args, arrays shaped like a and subset
    like the points, to their values; each bracket takes the steps of a scalar
    call, and all brackets share one call of f per step.  Returns floats for
    scalar endpoints.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa = np.array(f(a, *args) if fa is None else fa, dtype=float)
    fb = np.array(f(b, *args) if fb is None else fb, dtype=float)
    x = 0.5 * (a + b)
    fx = np.array(f(x, *args), dtype=float)
    near = 0.45 * xtol
    h = b - a
    h1 = h2 = np.full(h.shape, np.inf)      # the widths one and two steps back
    live = h > xtol
    while live.any():
        with np.errstate(divide="ignore", invalid="ignore"):   # a flat V: golden step
            left, right = (fa - fx) / (x - a), (fb - fx) / (b - x)
            t = np.where(right >= left, 0.5 * (a + x) + (fa - fx) / (2.0 * right),
                         0.5 * (x + b) + (fx - fb) / (2.0 * left))
        up = np.where(b - x == x - a, fb < fa, b - x > x - a)   # the larger side is above x
        v_step = (a < t) & (t < b) & (fx <= fa) & (fx <= fb) & (h <= 0.5 * h2)
        t = np.where(v_step, t, np.where(up, x + _INVPHI2 * (b - x), x - _INVPHI2 * (x - a)))
        t = np.where(np.abs(t - x) < near, np.where(up, x + near, x - near), t)
        ft = np.zeros_like(t)
        ft[live] = f(t[live], *(arg[live] for arg in args))
        best = ft <= fx             # t becomes x and x an end, else t becomes an end
        end, f_end = np.where(best, x, t), np.where(best, fx, ft)
        lower = best == (t > x)     # the new end is a
        a, fa = np.where(live & lower, end, a), np.where(live & lower, f_end, fa)
        b, fb = np.where(live & ~lower, end, b), np.where(live & ~lower, f_end, fb)
        x, fx = np.where(live & best, t, x), np.where(live & best, ft, fx)
        h2, h1 = np.where(live, h1, h2), np.where(live, h, h1)
        h = b - a
        live &= h > xtol
    return (x, fx) if x.ndim else (float(x), float(fx))


def bracket_root(f: Callable[..., np.ndarray], a: ArrayLike, b: ArrayLike,
                 fa: Optional[ArrayLike] = None, fb: Optional[ArrayLike] = None,
                 xtol: float = 1e-12, args: tuple = ()) -> float | np.ndarray:
    """Illinois root of a sign change, elementwise over arrays of brackets.

    Regula falsi that halves the value kept at the far end whenever that end
    survives a step, so both ends close in superlinearly (Dowell and Jarratt,
    BIT 11, 1971).  Stops when the bracket is at most xtol wide, or when the
    secant point rounds onto an end (the root is there to rounding), and
    returns the latest secant point.  f and args are as in golden_min: each
    bracket takes the steps of a scalar call, and all brackets share one
    call of f per step.  Returns a float for scalar endpoints.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa = np.array(f(a, *args) if fa is None else fa, dtype=float)
    fb = np.array(f(b, *args) if fb is None else fb, dtype=float)
    if np.any(fa * fb > 0.0):
        raise ValueError("bracket_root: endpoints do not bracket a sign change")
    root = np.where(fa == 0.0, a, b)
    live = (fa != 0.0) & (fb != 0.0)
    for _ in range(_ROOT_MAX_ITER):
        live &= np.abs(b - a) > xtol
        if not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):   # finished brackets
            c = b - fb * (b - a) / (fb - fa)
        root = np.where(live, c, root)
        live &= (c - a) * (c - b) < 0.0
        fc = np.zeros_like(c)
        fc[live] = f(c[live], *(arg[live] for arg in args))
        live &= fc != 0.0
        flip = live & (fc * fb < 0.0)   # sign change between b and c: b is the far end
        a, fa = np.where(flip, b, a), np.where(flip, fb, np.where(live, 0.5 * fa, fa))
        b, fb = np.where(live, c, b), np.where(live, fc, fb)
    return root if root.ndim else float(root)


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in a (..., d, d) stack, each bit for bit as in a stack of its own.

    A matrix takes the lowest Pade degree m in (3, 5, 7, 9) whose theta_m
    covers its 1-norm, unscaled; past theta_9 it takes degree 13 scaled by
    2^-s, s the least with |A|_1 <= theta_13 2^s, and is squared s times
    (Higham 2005, Algorithm 2.3).  The stack splits by that key, each group
    one Pade pass, one batched solve and one matrix_power(e, 2^s).  A zero
    matrix gives I exactly.
    """
    a = np.asarray(a, dtype=float)
    key = np.searchsorted(_KEYS, np.abs(a).sum(axis=-2).max(axis=-1))
    if key.size > 1 and key.min() < key.max():
        e = np.empty_like(a)
        for level in np.unique(key):
            e[key == level] = _expm_stack(a[key == level])
        return e
    key, eye = int(key.max(initial=0)), np.eye(a.shape[-1])
    m, s = (3, 5, 7, 9, 13)[min(key, 4)], max(key - 4, 0)
    b = _PADE[m]
    if m < 13:
        a2 = power = a @ a
        u, v = b[3] * a2 + b[1] * eye, b[2] * a2 + b[0] * eye
        for k in range(5, m + 1, 2):
            power = power @ a2
            u, v = u + b[k] * power, v + b[k - 1] * power
        u = a @ u
    else:
        a = a * 2.0 ** -s if s else a
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    e = np.linalg.solve(v - u, v + u)
    return np.linalg.matrix_power(e, 2 ** s) if s else e


def _expm_powers(a: np.ndarray, n: int) -> np.ndarray:
    """e^{k a} for k = 0..n-1, shape (..., n, d, d) for a (..., d, d), from
    _expm_stack's e^a by ceil(log2(n - 1)) batched products that each double the
    powers known: e^{(j + k) a} = e^{k a} e^{j a}, j a power of 2 and 0 < k <= j.
    Power k is a product tree of depth ceil(log2 k) over e^a; power 0 is I exactly."""
    powers = np.empty((n,) + a.shape)
    powers[:1], powers[1:2] = np.eye(a.shape[-1]), _expm_stack(a)[None]
    for j in 2 ** np.arange(max(n - 2, 0).bit_length()):     # fills powers j + 1, ..., 2 j
        powers[j + 1:2 * j + 1] = powers[1:min(j, n - 1 - j) + 1] @ powers[j]
    return np.moveaxis(powers, 0, -3)


def null_space_basis(a: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of a real or complex a.

    The cutoff is rtol * max(sigma_max, 1) so that a uniformly tiny matrix is
    reported as identically zero rather than full rank.
    """
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return np.zeros((a.shape[1], 0))
    _, s, vh = np.linalg.svd(a)
    cutoff = rtol * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T.conj().copy()


def cluster_scalars(values: np.ndarray, atol) -> list[tuple[float, np.ndarray]]:
    """Group nearly equal scalars; returns (mean, index array) per cluster.

    Sorted values chain into one cluster while each is within atol of the one
    before; for real values atol may be a function of the later value (over an
    array).  Complex ones chain by real parts, then each group by imaginary parts.
    """
    if np.iscomplexobj(values):
        return [(complex(np.mean(values[idx[sub]])), idx[sub])
                for _, idx in cluster_scalars(values.real, atol)
                for _, sub in cluster_scalars(values.imag[idx], atol)]
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)
    ordered = values[order]
    bound = atol(ordered[1:]) if callable(atol) else atol
    cut = (np.flatnonzero(np.diff(ordered) > bound) + 1).tolist()
    return [(float(ordered[i]) if j == i + 1 else float(np.mean(ordered[i:j])), order[i:j])
            for i, j in zip([0] + cut, cut + [values.size]) if j > i]
