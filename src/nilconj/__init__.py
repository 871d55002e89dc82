"""Conjugate-point structure of geodesics on two-step nilpotent metric Lie groups.

Closed-form conjugate times, multiplicities, and Jacobi-field witnesses for
2-step nilpotent Lie algebras with a nondegenerate (possibly indefinite)
metric, cross-validated by an independent numerical propagator.
"""

from .algebra import (
    AlgebraElement,
    FIXTURE_NAMES,
    MetricLieAlgebra,
    bracket,
    bracket_v,
    causal_character,
    fixture,
    inner,
    inner_v,
    inner_z,
    j_map,
    load_algebra,
    serialize,
)
from .config import DEFAULT_TOL, Tolerances
from .conjugate import (
    ConjugateTime,
    conjugacy_function,
    conjugate_times,
)
from .errors import (
    AsymmetricBracketError,
    CenterNotLineError,
    DegenerateCenterError,
    DegenerateComplementError,
    InsufficientSamplesError,
    NilconjError,
    NoConjugateError,
    NonOrthogonalSplitError,
    NotDiagonalizableError,
    NotInImageError,
    ParseError,
    PoleError,
    RootLostError,
    UnsupportedCaseError,
)
from .geometry import (
    GeodesicSpec,
    JacobiField,
    connection,
    curvature,
    field_values,
    geodesic_point,
    geodesic_velocity,
    jacobi_frame_residual,
    jacobi_operator,
    serialize_field,
)
from .locus import (
    LocusSample,
    conjugate_rate,
    continuation,
    export_samples,
    load_samples,
    sample_horizontal_locus,
)
from .oracle import (
    MatchReport,
    Propagator,
    compare,
    detect_conjugate,
    integrate_propagator,
    matrix_at,
    sigma_min_series,
)
from .spectral import (
    EigenComponents,
    EigenLine,
    Spectrum,
    center_coupling,
    eigen_components,
    image_membership,
    lattice_kernel,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "FIXTURE_NAMES", "MetricLieAlgebra", "bracket",
    "bracket_v", "causal_character", "fixture", "inner", "inner_v", "inner_z",
    "j_map", "load_algebra", "serialize",
    "DEFAULT_TOL", "Tolerances",
    "ConjugateTime", "conjugacy_function", "conjugate_times",
    "AsymmetricBracketError", "CenterNotLineError", "DegenerateCenterError",
    "DegenerateComplementError", "InsufficientSamplesError", "NilconjError",
    "NoConjugateError", "NonOrthogonalSplitError", "NotDiagonalizableError",
    "NotInImageError", "ParseError", "PoleError", "RootLostError",
    "UnsupportedCaseError",
    "GeodesicSpec", "JacobiField", "connection", "curvature", "field_values",
    "geodesic_point", "geodesic_velocity", "jacobi_frame_residual",
    "jacobi_operator",
    "serialize_field",
    "LocusSample", "conjugate_rate", "continuation", "export_samples",
    "load_samples", "sample_horizontal_locus",
    "MatchReport", "Propagator", "compare", "detect_conjugate",
    "integrate_propagator", "matrix_at", "sigma_min_series",
    "EigenComponents", "EigenLine", "Spectrum", "center_coupling",
    "eigen_components", "image_membership", "lattice_kernel", "spectrum",
]
