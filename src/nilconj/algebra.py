"""Two-step nilpotent metric Lie algebras with nondegenerate center.

The algebra splits as center + complement with a block-diagonal (possibly
indefinite) Gram matrix over the split.  Every bracket lands in the center,
so two-step nilpotency is structural in this encoding.  Causal convention:
a vector u is timelike when <u,u> > 0, null when = 0, spacelike when < 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AsymmetricBracketError,
    DegenerateCenterError,
    DegenerateComplementError,
    NonOrthogonalSplitError,
    ParseError,
)

__all__ = [
    "MetricLieAlgebra",
    "AlgebraElement",
    "load_algebra",
    "fixture",
    "serialize",
    "bracket",
    "bracket_v",
    "inner",
    "inner_v",
    "inner_z",
    "j_map",
    "causal_character",
    "FIXTURE_NAMES",
]

_NULL_REL = 1e-12   # fixed: causal_character's null band, relative to |u|^2 max |gram|
_GRAM_SYM_REL = 1e-12   # fixed: gram asymmetry allowed, relative to 1 + max |gram|


def _as_array(x: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape:
        raise ParseError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what}: non-finite entries")
    return arr


def _degenerate(block: np.ndarray, rel: float) -> bool:
    sv = np.linalg.svd(block, compute_uv=False)
    return bool(sv[-1] <= rel * sv[0])


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """Structure constants plus metric; immutable and validated on construction.

    structure[a, i, j] is the z_a coefficient of [e_i, e_j] for the complement
    basis e_i; antisymmetry in (i, j) is required exactly.
    """

    dim_center: int
    dim_v: int
    gram: np.ndarray
    structure: np.ndarray
    name: str = ""
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self) -> None:
        p, q = self.dim_center, self.dim_v
        if not (isinstance(p, int) and isinstance(q, int) and p >= 1 and q >= 1):
            raise ParseError("dim_center and dim_v must be positive integers")
        n = p + q
        gram = _as_array(self.gram, (n, n), "gram")
        structure = _as_array(self.structure, (p, q, q), "structure")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "structure", structure)
        if not np.allclose(gram, gram.T, rtol=0.0, atol=_GRAM_SYM_REL * (1.0 + np.abs(gram).max())):
            raise ParseError("gram must be symmetric")
        if np.any(gram[:p, p:] != 0.0) or np.any(gram[p:, :p] != 0.0):
            raise NonOrthogonalSplitError(
                "gram couples center and complement; the split must be exactly orthogonal")
        gz, gv = gram[:p, :p].copy(), gram[p:, p:].copy()
        if _degenerate(gz, self.tol.rank_rel):
            raise DegenerateCenterError("center block of gram is singular")
        if _degenerate(gv, self.tol.rank_rel):
            raise DegenerateComplementError("complement block of gram is singular")
        if not np.array_equal(structure, -np.swapaxes(structure, 1, 2)):
            raise AsymmetricBracketError("structure constants must be antisymmetric in (i, j)")
        object.__setattr__(self, "gram_center", gz)
        object.__setattr__(self, "gram_v", gv)
        # Per center basis vector z_a the operator on the complement solves
        # gram_v @ Jx = W_a^T x with W_a = sum_b gram_center[b, a] structure[b].
        w = np.einsum("ba,bij->aij", gz, structure)
        jb = np.stack([np.linalg.solve(gv, w[a].T) for a in range(p)])
        object.__setattr__(self, "_j_basis", jb)

    @property
    def dim(self) -> int:
        return self.dim_center + self.dim_v


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of the algebra as (center coordinates, complement coordinates)."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float).reshape(-1)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
            raise ParseError("element coordinates must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.z + other.z, self.v + other.v)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.z - other.z, self.v - other.v)

    def __mul__(self, c: float) -> "AlgebraElement":
        return AlgebraElement(self.z * c, self.v * c)

    __rmul__ = __mul__

    def coords(self) -> np.ndarray:
        return np.concatenate([self.z, self.v])


def bracket_v(alg: MetricLieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Center coordinates of [x, y] for complement coordinate vectors x, y."""
    return np.einsum("aij,i,j->a", alg.structure, x, y)


def bracket(alg: MetricLieAlgebra, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket; center parts of the inputs are ignored, output is central."""
    return AlgebraElement(bracket_v(alg, x.v, y.v), np.zeros(alg.dim_v))


def inner_z(alg: MetricLieAlgebra, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.asarray(a) @ alg.gram_center @ np.asarray(b))


def inner_v(alg: MetricLieAlgebra, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.asarray(x) @ alg.gram_v @ np.asarray(y))


def inner(alg: MetricLieAlgebra, u: AlgebraElement, w: AlgebraElement) -> float:
    """Metric pairing <u, w>; block diagonal over the split."""
    return inner_z(alg, u.z, w.z) + inner_v(alg, u.v, w.v)


def causal_character(alg: MetricLieAlgebra, u: AlgebraElement) -> str:
    """Classify u as timelike (<u,u> > 0), null (= 0) or spacelike (< 0)."""
    s = inner(alg, u, u)
    scale = float(u.z @ u.z + u.v @ u.v) * float(np.abs(alg.gram).max())
    if s > _NULL_REL * scale:
        return "timelike"
    if s < -_NULL_REL * scale:
        return "spacelike"
    return "null"


def j_map(alg: MetricLieAlgebra, z: np.ndarray) -> np.ndarray:
    """Matrix on the complement of the metric-skew-adjoint operator of z.

    Defining relation: <Jx, y> = <z, [x, y]> for all complement vectors x, y.
    Linear in z; computed against the actual Gram blocks, so arbitrary
    indefinite metrics are supported.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (alg.dim_center,):
        raise ParseError(f"center vector must have length {alg.dim_center}")
    return np.einsum("a,aij->ij", z, alg._j_basis)


# ---------------------------------------------------------------------------
# document handling


def _structure_from_brackets(p: int, q: int, brackets: Any) -> np.ndarray:
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list of {a, b, out} records")
    c = np.zeros((p, q, q))
    seen: set[tuple[int, int]] = set()
    for rec in brackets:
        if not isinstance(rec, dict) or set(rec) != {"a", "b", "out"}:
            raise ParseError(f"bad bracket record {rec!r}; expected keys a, b, out")
        a, b = rec["a"], rec["b"]
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ParseError("bracket indices must be integers")
        if not (0 <= a < q and 0 <= b < q):
            raise ParseError(f"bracket indices ({a}, {b}) out of range for dim_v={q}")
        if a >= b:
            raise AsymmetricBracketError(f"bracket pair ({a}, {b}) must satisfy a < b")
        if (a, b) in seen:
            raise AsymmetricBracketError(f"duplicate bracket pair ({a}, {b})")
        seen.add((a, b))
        out = np.asarray(rec["out"], dtype=float).reshape(-1)
        if out.shape != (p,):
            raise ParseError(f"bracket output must have length {p}")
        c[:, a, b] = out
        c[:, b, a] = -out
    return c


def load_algebra(document: str, tol: Tolerances = DEFAULT_TOL) -> MetricLieAlgebra:
    """Parse and validate a JSON algebra document (see README for the schema)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    for key in ("dim_center", "dim_v", "gram", "brackets"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    p, q = doc["dim_center"], doc["dim_v"]
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ParseError("dim_center and dim_v must be integers")
    if p < 1 or q < 1:
        raise ParseError("dim_center and dim_v must be positive")
    n = p + q
    gram = _as_array(doc["gram"], (n, n), "gram")
    structure = _structure_from_brackets(p, q, doc["brackets"])
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    return MetricLieAlgebra(p, q, gram, structure, name=name, tol=tol)


def serialize(alg: MetricLieAlgebra) -> str:
    """Inverse of load_algebra on the documented schema."""
    brackets = []
    for i in range(alg.dim_v):
        for j in range(i + 1, alg.dim_v):
            out = alg.structure[:, i, j]
            if np.any(out != 0.0):
                brackets.append({"a": i, "b": j, "out": [float(x) for x in out]})
    doc = {
        "name": alg.name,
        "dim_center": alg.dim_center,
        "dim_v": alg.dim_v,
        "gram": [[float(x) for x in row] for row in alg.gram],
        "brackets": brackets,
    }
    return json.dumps(doc, indent=2)


def _diag_gram(entries: list[float]) -> np.ndarray:
    return np.diag(np.asarray(entries, dtype=float))


def _builtin_docs() -> dict[str, dict[str, Any]]:
    return {
        # Heisenberg algebra, definite metric.
        "heis3": {
            "name": "heis3", "dim_center": 1, "dim_v": 2,
            "gram": _diag_gram([1, 1, 1]).tolist(),
            "brackets": [{"a": 0, "b": 1, "out": [1.0]}],
        },
        # Heisenberg algebra with a spacelike complement direction.
        "pheis3": {
            "name": "pheis3", "dim_center": 1, "dim_v": 2,
            "gram": _diag_gram([1, 1, -1]).tolist(),
            "brackets": [{"a": 0, "b": 1, "out": [1.0]}],
        },
        # Two invariant planes with distinct rates 1 and 2, definite metric.
        "heis5w": {
            "name": "heis5w", "dim_center": 1, "dim_v": 4,
            "gram": _diag_gram([1, 1, 1, 1, 1]).tolist(),
            "brackets": [
                {"a": 0, "b": 1, "out": [1.0]},
                {"a": 2, "b": 3, "out": [2.0]},
            ],
        },
        # Two-dimensional center, one spacelike complement direction.
        "bicenter": {
            "name": "bicenter", "dim_center": 2, "dim_v": 3,
            "gram": _diag_gram([1, 1, 1, 1, -1]).tolist(),
            "brackets": [
                {"a": 0, "b": 1, "out": [1.0, 0.0]},
                {"a": 0, "b": 2, "out": [0.0, 1.0]},
            ],
        },
    }


FIXTURE_NAMES: tuple[str, ...] = ("heis3", "pheis3", "heis5w", "bicenter")


def fixture(name: str, tol: Tolerances = DEFAULT_TOL) -> MetricLieAlgebra:
    """Built-in example algebras resolvable by name."""
    docs = _builtin_docs()
    if name not in docs:
        raise ParseError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return load_algebra(json.dumps(docs[name]), tol=tol)
