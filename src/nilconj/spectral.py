"""Spectral analysis of the skew-adjoint operators on the complement.

Covers the splitting of the squared operator into negative / positive / zero
eigenvalue parts, the complex eigenbasis of J where it has one, kernels of
exp(tJ) - I restricted to the invertible part, image membership with
preimages, and the coupling operator on the center induced by a fixed
complement vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .algebra import MetricLieAlgebra, bracket_v
from .config import DEFAULT_TOL, Tolerances
from .errors import NotDiagonalizableError
from .numerics import cluster_scalars, null_space_basis

__all__ = [
    "EigenLine",
    "Spectrum",
    "spectrum",
    "lattice_kernel",
    "lattice_match",
    "image_membership",
    "center_coupling",
    "EigenComponents",
    "eigen_components",
]


@dataclass(frozen=True, eq=False)
class EigenLine:
    """One real spectral line of the squared operator."""

    rate: float          # lambda > 0; the eigenvalue of J^2 is -lambda^2 (neg) or +lambda^2 (pos)
    mult: int            # plain eigenspace dimension
    basis: np.ndarray    # (dim_v, mult) orthonormal columns


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Spectral data of J on the complement: the real lines of J^2 and J's eigenbasis."""

    neg: tuple[EigenLine, ...]
    pos: tuple[EigenLine, ...]
    zero_mult: int            # algebraic multiplicity of 0 (generalized null space dim)
    zero_basis: np.ndarray    # plain kernel of J
    complex_dim: int          # eigenvalues of J off both axes
    turn_rate: float          # largest |Im lambda| over J's eigenvalues: sets the root scan's step
    diagonalizable: bool      # J has an eigenbasis and no eigenvalue off both axes
    dim_v: int
    eigenbasis: Optional[tuple[np.ndarray, np.ndarray]]   # (lambda, V): J V = V diag(lambda)


def spectrum(j: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Classify the spectrum of J from one clustering of its eigenvalues.

    Eigenvalue parts within cluster_rel * max |lambda| of 0 are snapped to 0
    before clustering (cluster_scalars).  Each cluster mu gives its plain
    eigenspace ker(J - mu I); their stack is J's eigenbasis where it has
    dim_v columns and a smallest singular value above rank_rel, and J is
    real-diagonalizable where it has that eigenbasis and no eigenvalue off
    both axes.  A cluster at i rho (rotating) or rho (boosting), rho > 0,
    gives a line with basis ker(J^2 -+ rho^2 I).  Every decision is taken on
    J scaled by a power of two to unit size, an exact scaling, so it does not
    depend on the size of J; the eigenvalues are scaled back.
    """
    j = np.asarray(j, dtype=float)
    q = j.shape[0]
    unit = 2.0 ** math.frexp(float(np.abs(j).max(initial=0.0)))[1]
    j = j / unit
    w = np.linalg.eigvals(j)
    thr = tol.cluster_rel * float(np.abs(w).max(initial=0.0))
    w = (np.where(np.abs(w.real) <= thr, 0.0, w.real)
         + 1j * np.where(np.abs(w.imag) <= thr, 0.0, w.imag))
    j2, eye = j @ j, np.eye(q)
    zero_basis = null_space_basis(j, tol.rank_rel)
    neg, pos, spaces, lams = [], [], [], []
    zero_mult = complex_dim = 0
    for mu, idx in cluster_scalars(w, thr):
        shift = mu if mu.imag else mu.real
        space = null_space_basis(j - shift * eye, tol.rank_rel) if shift else zero_basis
        spaces.append(space)
        lams += [shift * unit] * space.shape[1]
        if not shift:
            zero_mult = idx.size
        elif mu.real and mu.imag:
            complex_dim += idx.size
        elif mu.real > 0.0 or mu.imag > 0.0:   # one of the pair +-mu
            basis = null_space_basis(j2 - (mu * mu).real * eye, tol.rank_rel)
            (neg if mu.imag else pos).append(EigenLine(abs(mu) * unit, basis.shape[1], basis))
    stacked = np.hstack(spaces)
    kept = (stacked.shape[1] == q
            and np.linalg.svd(stacked, compute_uv=False).min() > tol.rank_rel)
    return Spectrum(neg=tuple(neg), pos=tuple(pos), zero_mult=zero_mult, zero_basis=zero_basis,
                    complex_dim=complex_dim, turn_rate=float(np.abs(w.imag).max()) * unit,
                    diagonalizable=bool(kept) and complex_dim == 0, dim_v=q,
                    eigenbasis=(np.array(lams), stacked) if kept else None)


def _lattice_band(t: float | np.ndarray, tol: Tolerances) -> float | np.ndarray:
    """merge_rel * max(1, t) + 2e-9, with no horizon term: the one rule by which a
    line meets a lattice time, lattice times chain into a pole, and roots merge."""
    return tol.merge_rel * np.maximum(1.0, t) + 2e-9


def _meets(line: EigenLine, t: float | np.ndarray, tol: Tolerances) -> bool | np.ndarray:
    """Whether 2 pi n / rate, for the n >= 1 nearest, lies within the lattice band
    (_lattice_band) of t, elementwise over t."""
    n = np.maximum(1.0, np.round(t * line.rate / (2.0 * np.pi)))
    return np.abs(t - 2.0 * np.pi * n / line.rate) <= _lattice_band(t, tol)


def lattice_match(spec: Spectrum, t: float,
                  tol: Tolerances = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Summed multiplicity and basis of ker(exp(tJ) - I) on the invertible part.

    Selects the rotating lines that meet t, with some n >= 1 such that |t - 2 pi n
    / rate| is within the lattice band (_lattice_band); ker J is left out.
    """
    lines = [line for line in spec.neg if _meets(line, t, tol)]
    return (sum(line.mult for line in lines),
            np.hstack([np.zeros((spec.dim_v, 0))] + [line.basis for line in lines]))


def lattice_kernel(j: np.ndarray, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Basis of ker(exp(tJ) - I) inside the part where J is invertible.

    Equals the direct sum of the eigenspaces ker(J^2 + lambda^2 I) over the
    rotating rates lambda that meet t (lattice_match).
    """
    return lattice_match(spectrum(np.asarray(j, dtype=float), tol), t, tol)[1]


def pairs_nonzero(basis: np.ndarray, covector: np.ndarray,
                   tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the covector is nonzero on some column of basis, relative to its own size."""
    cut = tol.ortho_rel * (1.0 + float(np.linalg.norm(covector)))
    return bool(np.any(np.abs(basis.T @ covector) > cut))


def image_membership(j: np.ndarray, t: float, x: np.ndarray, gram_v: np.ndarray,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[bool, Optional[np.ndarray]]:
    """Decide x in im(exp(-tJ) - I) and return v with (exp(-tJ) - I) v = t x.

    Membership is metric orthogonality of x to ker(exp(-tJ) - I); any
    least-squares preimage is acceptable because the downstream pairing
    <Jx, v> does not depend on the choice.  exp(-tJ) is scipy's, imported at
    the first call: nilconj's one scipy call (README, "Numerical policy").
    """
    from scipy.linalg import expm

    j = np.asarray(j, dtype=float)
    x = np.asarray(x, dtype=float)
    op = expm(-t * j) - np.eye(j.shape[0])
    kern = null_space_basis(op, tol.rank_rel)
    if pairs_nonzero(kern, gram_v @ x, tol):
        return False, None
    v, *_ = np.linalg.lstsq(op, t * x, rcond=None)
    resid = float(np.linalg.norm(op @ v - t * x))
    if resid > tol.ortho_rel * (1.0 + abs(t)) * (1.0 + np.linalg.norm(x)):
        # Defensive: orthogonality said member but the solve disagrees.
        return False, None
    return True, v


def center_coupling(alg: MetricLieAlgebra, x0: np.ndarray) -> np.ndarray:
    """Matrix on the center of z -> [x0, J_z x0].

    Self-adjoint for the center metric; its real negative eigenvalues encode
    the conjugate times of straight-line geodesics through x0.
    """
    x0 = np.asarray(x0, dtype=float)
    cols = [bracket_v(alg, x0, alg._j_basis[a] @ x0) for a in range(alg.dim_center)]
    return np.stack(cols, axis=1)


class EigenComponents(NamedTuple):
    """Decomposition of a complement vector along the real eigenspaces of J^2."""

    neg: list[tuple[float, np.ndarray]]   # (rate, component) per negative line
    pos: list[tuple[float, np.ndarray]]   # (rate, component) per positive line
    kernel: np.ndarray                    # component in the plain kernel of J


def eigen_components(spec: Spectrum, x0: np.ndarray) -> EigenComponents:
    """Split x0 along the eigenspace bases of a real-diagonalizable spectrum."""
    if not spec.diagonalizable:
        raise NotDiagonalizableError(
            "eigenspace decomposition requires a real-diagonalizable J")
    basis = np.hstack([line.basis for line in spec.neg + spec.pos] + [spec.zero_basis])
    coeff = np.linalg.solve(basis, np.asarray(x0, dtype=float))
    parts, offset = [], 0
    for line in spec.neg + spec.pos:
        parts.append((line.rate, line.basis @ coeff[offset:offset + line.mult]))
        offset += line.mult
    n = len(spec.neg)
    return EigenComponents(parts[:n], parts[n:], spec.zero_basis @ coeff[offset:])
