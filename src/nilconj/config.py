"""Numerical tolerance knobs, grouped so the CLI can override them."""

from __future__ import annotations

import dataclasses

from .errors import ParseError


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Default tolerances used across the modules.

    Every knob is documented where it is consumed; ratios are relative to a
    problem scale unless the name says otherwise.  Each must be finite and
    nonnegative (ParseError).
    """

    cluster_rel: float = 1e-8     # eigenvalue classification and clustering
    rank_rel: float = 1e-10       # singular-value cutoff: rank, null spaces, Gram blocks
    merge_rel: float = 1e-9       # lattice band rel * max(1, t) + 2e-9: times meet, no t_max term
    zero_rel: float = 1e-13       # "is this vector/operator zero" dispatch decisions
    bisect_tol: float = 1e-12     # root tolerance in t: bracket width, Newton step
    refine_tol: float = 1e-9      # oracle and extremum refinement tolerance in t
    rank_tol: float = 1e-6        # oracle multiplicity: principal-angle cosines below this (absolute)
    match_tol: float = 1e-5       # closed form vs oracle time matching (absolute)
    ortho_rel: float = 1e-8       # image-membership orthogonality and residual scale
    speed_eq_rel: float = 1e-9    # equality test <J x0, v> == <gdot, gdot>

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not 0.0 <= value < float("inf"):
                raise ParseError(f"tolerance {name} must be finite and nonnegative, got {value:g}")

    def replace(self, **kwargs: float) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict[str, float]:
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}


DEFAULT_TOL = Tolerances()
