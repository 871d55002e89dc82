"""The public surface: any change to it is an edit of the lists below."""

import dataclasses

import nilconj
from nilconj import Tolerances

PUBLIC = [
    "AlgebraElement", "AsymmetricBracketError", "CenterNotLineError", "ConjugateTime",
    "DEFAULT_TOL", "DegenerateCenterError", "DegenerateComplementError", "EigenComponents",
    "EigenLine", "FIXTURE_NAMES", "GeodesicSpec", "InsufficientSamplesError", "JacobiField",
    "LocusSample", "MatchReport", "MetricLieAlgebra", "NilconjError", "NoConjugateError",
    "NonOrthogonalSplitError", "NotDiagonalizableError", "NotInImageError", "ParseError",
    "PoleError", "Propagator", "RootLostError", "Spectrum", "Tolerances",
    "UnsupportedCaseError", "bracket", "bracket_v", "causal_character", "center_coupling",
    "compare", "conjugacy_function", "conjugate_rate", "conjugate_times", "connection",
    "continuation", "curvature", "detect_conjugate", "eigen_components", "export_samples",
    "field_values", "fixture", "geodesic_point", "geodesic_velocity", "image_membership",
    "inner", "inner_v", "inner_z", "integrate_propagator", "j_map", "jacobi_frame_residual",
    "jacobi_operator", "lattice_kernel", "load_algebra", "load_samples", "matrix_at",
    "sample_horizontal_locus", "serialize", "serialize_field", "sigma_min_series", "spectrum",
]

TOLERANCES = [
    "cluster_rel", "rank_rel", "merge_rel", "zero_rel", "bisect_tol", "refine_tol",
    "rank_tol", "match_tol", "ortho_rel", "speed_eq_rel",
]


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 63
    assert len(set(nilconj.__all__)) == len(nilconj.__all__)
    assert sorted(nilconj.__all__) == PUBLIC
    assert all(hasattr(nilconj, name) for name in PUBLIC)


def test_tolerances_are_the_pinned_fields():
    assert [f.name for f in dataclasses.fields(Tolerances)] == TOLERANCES
