"""The public surface: any change to it is an edit of the lists below."""

import dataclasses
import inspect

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

PARAMETERS = {
    "bracket": ["alg", "x", "y"],
    "bracket_v": ["alg", "x", "y"],
    "causal_character": ["alg", "u"],
    "center_coupling": ["alg", "x0"],
    "compare": ["closed", "detected", "match_tol"],
    "conjugacy_function": ["geo", "t", "tol"],
    "conjugate_rate": ["alg", "x0", "tol"],
    "conjugate_times": ["geo", "t_max", "tol", "witnesses"],
    "connection": ["alg", "u", "w"],
    "continuation": ["alg", "x0", "a_grid", "tol"],
    "curvature": ["alg", "x", "y", "w"],
    "detect_conjugate": ["geo", "t_max", "steps", "tol"],
    "eigen_components": ["spec", "x0"],
    "export_samples": ["samples", "path", "fmt"],
    "field_values": ["geo", "field"],
    "fixture": ["name", "tol"],
    "geodesic_point": ["geo", "t"],
    "geodesic_velocity": ["geo", "t"],
    "image_membership": ["j", "t", "x", "gram_v", "tol"],
    "inner": ["alg", "u", "w"],
    "inner_v": ["alg", "x", "y"],
    "inner_z": ["alg", "a", "b"],
    "integrate_propagator": ["geo", "t_max", "steps"],
    "j_map": ["alg", "z"],
    "jacobi_frame_residual": ["geo", "field", "t"],
    "jacobi_operator": ["geo", "t", "y"],
    "lattice_kernel": ["j", "t", "tol"],
    "load_algebra": ["document", "tol"],
    "load_samples": ["path"],
    "matrix_at": ["prop", "t", "full"],
    "sample_horizontal_locus": ["alg", "directions", "tol", "method"],
    "serialize": ["alg"],
    "serialize_field": ["field", "stride"],
    "sigma_min_series": ["prop"],
    "spectrum": ["j", "tol"],
}

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


def test_tolerance_dict_is_the_dataclass_dict():
    # as_dict reads the fields instead of deep-copying through dataclasses.asdict
    for tol in (Tolerances(), Tolerances().replace(rank_tol=1e-7, match_tol=0.0)):
        assert tol.as_dict() == dataclasses.asdict(tol)
        assert list(tol.as_dict()) == TOLERANCES


def test_public_functions_take_the_pinned_parameters():
    # a new option of a public function is an edit of PARAMETERS
    functions = [name for name in nilconj.__all__ if inspect.isfunction(getattr(nilconj, name))]
    signatures = {name: list(inspect.signature(getattr(nilconj, name)).parameters)
                  for name in functions}
    assert len(PARAMETERS) == 35 and sum(map(len, PARAMETERS.values())) == 95
    assert signatures == PARAMETERS
