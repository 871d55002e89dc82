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
from scipy.linalg import expm

from .algebra import MetricLieAlgebra, bracket_v
from .config import DEFAULT_TOL, Tolerances
from .errors import NotDiagonalizableError
from .numerics import cluster_scalars, nonzero_integer_near, null_space_basis

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
    complex_dim: int          # eigenvalues of J off both axes (diagnostic only)
    diagonalizable: bool      # plain eigenspaces are independent and span (real split certificate)
    dim_v: int
    eigenbasis: Optional[tuple[np.ndarray, np.ndarray]]   # (lambda, V): J V = V diag(lambda)


def spectrum(j: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Classify the spectrum of J via the eigenvalues of J itself.

    Eigenvalues are taken from J, not J^2, for better conditioning when J is
    defective; purely imaginary ones feed the negative list of J^2, purely
    real nonzero ones the positive list.  Eigenspace bases and multiplicities
    come from rank-revealing factorizations of J^2 -+ lambda^2 I.  J's complex
    eigenbasis is kept where its unit columns have a smallest singular value
    above rank_rel (None for a defective J).  Every decision is taken on J
    scaled by a power of two to unit size, an exact scaling, so it does not
    depend on the size of J; the eigenvalues are scaled back.
    """
    j = np.asarray(j, dtype=float)
    q = j.shape[0]
    unit = 2.0 ** math.frexp(float(np.abs(j).max(initial=0.0)))[1]
    j = j / unit
    w, vecs = np.linalg.eig(j)
    basis_kept = np.linalg.svd(vecs, compute_uv=False).min(initial=1.0) > tol.rank_rel
    scale = float(np.abs(w).max()) if w.size else 0.0
    thr = tol.cluster_rel * scale
    neg_rates: list[float] = []
    pos_rates: list[float] = []
    zero_mult = 0
    complex_dim = 0
    for val in w:
        re, im = abs(val.real), abs(val.imag)
        if re <= thr and im <= thr:
            zero_mult += 1
        elif re <= thr:
            neg_rates.append(im)
        elif im <= thr:
            pos_rates.append(re)
        else:
            complex_dim += 1
    j2 = j @ j
    eye = np.eye(q)
    neg_lines = []
    for lam, _ in cluster_scalars(np.asarray(neg_rates), thr):
        basis = null_space_basis(j2 + lam * lam * eye, tol.rank_rel)
        neg_lines.append(EigenLine(lam * unit, basis.shape[1], basis))
    pos_lines = []
    for lam, _ in cluster_scalars(np.asarray(pos_rates), thr):
        basis = null_space_basis(j2 - lam * lam * eye, tol.rank_rel)
        pos_lines.append(EigenLine(lam * unit, basis.shape[1], basis))
    zero_basis = null_space_basis(j, tol.rank_rel)
    # The eigenspaces must also be independent: on a nilpotent J, eigenvalue
    # noise can pose as a line whose basis overlaps ker J and fills the count.
    stacked = np.hstack([line.basis for line in neg_lines + pos_lines] + [zero_basis])
    split = (stacked.shape[1] == q
             and np.linalg.svd(stacked, compute_uv=False).min(initial=1.0) > tol.rank_rel)
    return Spectrum(
        neg=tuple(neg_lines),
        pos=tuple(pos_lines),
        zero_mult=zero_mult,
        zero_basis=zero_basis,
        complex_dim=complex_dim,
        diagonalizable=bool(split),
        dim_v=q,
        eigenbasis=(w * unit, vecs) if basis_kept else None,
    )


def lattice_match(spec: Spectrum, t: float,
                  tol: Tolerances = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Summed multiplicity and basis of ker(exp(tJ) - I) on the invertible part.

    Selects the rotating lines with t * lambda in 2 pi Z \\ {0}; the plain
    kernel of J is excluded by construction.
    """
    lines = [line for line in spec.neg
             if nonzero_integer_near(t * line.rate / (2.0 * np.pi), tol.integer_rel) is not None]
    if not lines:
        return 0, np.zeros((spec.dim_v, 0))
    return sum(line.mult for line in lines), np.hstack([line.basis for line in lines])


def lattice_kernel(j: np.ndarray, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Basis of ker(exp(tJ) - I) inside the part where J is invertible.

    Equals the direct sum of the eigenspaces ker(J^2 + lambda^2 I) over the
    rates with t * lambda in 2 pi Z \\ {0}.
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
    <Jx, v> does not depend on the choice.
    """
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
    """Split x0 along the eigenspace bases of a diagonalizable spectrum."""
    if not spec.diagonalizable:
        raise NotDiagonalizableError(
            "eigenspace decomposition requires the real-split certificate")
    basis = np.hstack([line.basis for line in spec.neg + spec.pos] + [spec.zero_basis])
    coeff = np.linalg.solve(basis, np.asarray(x0, dtype=float))
    neg: list[tuple[float, np.ndarray]] = []
    pos: list[tuple[float, np.ndarray]] = []
    offset = 0
    for line in spec.neg:
        neg.append((line.rate, line.basis @ coeff[offset:offset + line.mult]))
        offset += line.mult
    for line in spec.pos:
        pos.append((line.rate, line.basis @ coeff[offset:offset + line.mult]))
        offset += line.mult
    return EigenComponents(neg, pos, spec.zero_basis @ coeff[offset:])
