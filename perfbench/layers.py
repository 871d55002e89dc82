"""Which library functions the traced run wraps, and the per-layer metrics.

Each entry names the module whose attribute is replaced (the module that
looks the function up at call time; "" is the package, through which the
harness itself calls), the attribute, and the span name.  The span name's
prefix is the layer: the module that implements the function, except that
``golden_min`` counts as the oracle's candidate refinement.
"""

from __future__ import annotations

from spans import Tracer


def _count_steps(tr: Tracer, args, kwargs, prop) -> None:
    tr.counts["oracle.rk4_steps"] += prop.times.size - 1


def _count_detections(tr: Tracer, args, kwargs, found) -> None:
    tr.counts["oracle.detections"] += len(found)


def _count_report(tr: Tracer, args, kwargs, report) -> None:
    tr.counts["oracle.spurious"] += len(report.spurious)
    tr.counts["oracle.missing"] += len(report.missing)
    tr.counts["oracle.mult_mismatch"] += len(report.mult_mismatches)


def _count_witness(tr: Tracer, args, kwargs, field) -> None:
    tr.counts["conjugate.witness_samples"] += field.times.size
    tr.counts["conjugate.witness_bytes_computed"] += (
        field.times.nbytes + field.z.nbytes + field.v.nbytes + field.zeta.nbytes)


def _count_samples(tr: Tracer, args, kwargs, samples) -> None:
    tr.counts["locus.samples"] += len(samples)


PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "fixture", "algebra.fixture", None),
    ("cli", "conjugate_times", "conjugate.conjugate_times", None),
    ("cli", "detect_conjugate", "oracle.detect_conjugate", _count_detections),
    ("cli", "compare", "oracle.compare", _count_report),
    ("", "conjugate_times", "conjugate.conjugate_times", None),
    ("", "detect_conjugate", "oracle.detect_conjugate", _count_detections),
    ("", "compare", "oracle.compare", _count_report),
    ("", "field_values", "geometry.field_values", None),
    ("", "jacobi_frame_residual", "geometry.jacobi_frame_residual", None),
    ("", "sample_horizontal_locus", "locus.sample_horizontal_locus", _count_samples),
    ("", "continuation", "locus.continuation", _count_samples),
    ("conjugate", "spectrum", "spectral.spectrum", None),
    ("conjugate", "eigen_components", "spectral.eigen_components", None),
    ("conjugate", "image_membership", "spectral.image_membership", None),
    ("conjugate", "center_coupling", "spectral.center_coupling", None),
    ("conjugate", "build_jacobi_field", "conjugate.build_jacobi_field", _count_witness),
    ("locus", "spectrum", "spectral.spectrum", None),
    ("locus", "eigen_components", "spectral.eigen_components", None),
    ("locus", "polynomial_times", "conjugate.polynomial_times", None),
    ("locus", "geodesic_point", "geometry.geodesic_point", None),
    ("oracle", "integrate_propagator", "oracle.integrate_propagator", _count_steps),
    ("oracle", "matrix_at", "oracle.matrix_at", None),
    ("oracle", "golden_min", "oracle.golden_min", None),
)

LAYERS = ("algebra", "spectral", "conjugate", "geometry", "oracle", "locus", "cli", "bench")


def install(tracer: Tracer, nc) -> None:
    for module, attr, name, hook in PATCHES:
        tracer.patch(getattr(nc, module) if module else nc, attr, name, hook)


def layer_metrics(tr: Tracer, load_s: float, span_cost_s: float) -> dict:
    """Per-layer metrics of a finished traced run: name -> (value, unit, note)."""
    spans = tr.closed_spans()
    wall = tr.total("bench.run")
    own = tr.self_by_layer()
    candidates = tr.calls("oracle.golden_min")
    detections = tr.counts["oracle.detections"]
    true_detections = detections - tr.counts["oracle.spurious"]
    detect_s = tr.total("oracle.detect_conjugate")
    propagate_in_detect = tr.child_total("oracle.detect_conjugate", "oracle.integrate_propagator")
    times_names = ("conjugate.conjugate_times", "conjugate.polynomial_times")
    m = {
        "algebra.load_s": (load_s, "s", "fixture loads during set-up"),
        "spectral.spectrum_calls": (tr.calls("spectral.spectrum"), "count", ""),
        "spectral.spectrum_s": (tr.total("spectral.spectrum"), "s", ""),
        "conjugate.times_calls": (tr.calls(*times_names), "count",
                                  "conjugate_times and polynomial_times"),
        "conjugate.times_s": (tr.total(*times_names), "s", "inclusive"),
        "conjugate.witness_count": (tr.calls("conjugate.build_jacobi_field"), "count", ""),
        "conjugate.witness_s": (tr.total("conjugate.build_jacobi_field"), "s", ""),
        "conjugate.witness_samples": (tr.counts["conjugate.witness_samples"], "count",
                                      "grid rows over all witnesses"),
        "conjugate.witness_bytes_computed": (tr.counts["conjugate.witness_bytes_computed"],
                                             "B", "bytes of the returned witness arrays"),
        "geometry.check_s": (tr.total("geometry.field_values",
                                      "geometry.jacobi_frame_residual"), "s",
                             "field_values + jacobi_frame_residual"),
        "geometry.geodesic_point_calls": (tr.calls("geometry.geodesic_point"), "count", ""),
        "geometry.geodesic_point_s": (tr.total("geometry.geodesic_point"), "s", ""),
        "oracle.propagate_s": (tr.total("oracle.integrate_propagator"), "s", ""),
        "oracle.rk4_steps": (tr.counts["oracle.rk4_steps"], "count", ""),
        "oracle.scan_refine_s": (detect_s - propagate_in_detect, "s",
                                 "detect_conjugate minus its propagation"),
        "oracle.candidates": (candidates, "count", "golden-section refinements"),
        "oracle.refine_calls": (tr.calls("oracle.matrix_at"), "count", "matrix_at calls"),
        "oracle.detect_yield": (true_detections / candidates if candidates else 0.0, "ratio",
                                f"({detections} detections - {tr.counts['oracle.spurious']} "
                                f"spurious) / {candidates} candidates"),
        "oracle.spurious": (tr.counts["oracle.spurious"], "count", ""),
        "oracle.missing": (tr.counts["oracle.missing"], "count", ""),
        "oracle.mult_mismatch": (tr.counts["oracle.mult_mismatch"], "count", ""),
        "locus.sample_s": (tr.total("locus.sample_horizontal_locus"), "s", ""),
        "locus.continuation_s": (tr.total("locus.continuation"), "s", ""),
        "locus.samples": (tr.counts["locus.samples"], "count", ""),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s", "span time minus child spans")
    self_sum = sum(own.values())
    m["trace.wall_s"] = (wall, "s", "traced wall time of all rounds")
    m["trace.self_sum_s"] = (self_sum, "s",
                             f"sum of self times; differs from wall by {self_sum - wall:.3g} s")
    m["trace.spans"] = (len(spans), "count", "")
    m["trace.overhead_frac"] = (len(spans) * span_cost_s / wall if wall > 0 else 0.0, "ratio",
                                f"{len(spans)} spans x {span_cost_s * 1e6:.2f} us / traced wall")
    return m
