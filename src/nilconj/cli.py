"""Command-line front end.

Subcommands: validate, spectrum, conjugate, oracle, compare, locus.  Exit
status 0 on success, 1 when `compare` finds a discrepancy, 2 on any
NilconjError or on a file that cannot be read or written (every write comes
before the JSON is printed): the library checks its own input, so the CLI
checks only the flags and files the library never sees.  The effective
tolerance set is echoed on every run (header line in human mode, stderr
line in JSON mode, so the JSON document on stdout stays a single
machine-readable value).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .algebra import FIXTURE_NAMES, MetricLieAlgebra, fixture, j_map, load_algebra
from .config import DEFAULT_TOL, Tolerances
from .conjugate import conjugate_times
from .errors import NilconjError, ParseError
from .geometry import GeodesicSpec, field_values, jacobi_frame_residual, serialize_field
from .locus import continuation, export_samples, sample_horizontal_locus
from .oracle import (compare, detect_conjugate, detect_stack, integrate_propagator,
                     sigma_min_series)
from .spectral import spectrum

__all__ = ["main"]


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    try:
        vec = np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"{what}: expected comma-separated reals, got {text!r}") from exc
    if vec.size != n:
        raise ParseError(f"{what}: expected {n} components, got {vec.size}")
    return vec


def _parse_tol_overrides(pairs: list[str]) -> Tolerances:
    overrides = {}
    valid = set(DEFAULT_TOL.as_dict())
    for pair in pairs or []:
        key, _, value = pair.partition("=")
        if key not in valid:
            raise ParseError(f"unknown tolerance {key!r}; valid: {', '.join(sorted(valid))}")
        try:
            overrides[key] = float(value)
        except ValueError as exc:
            raise ParseError(f"tolerance {key} needs a real value, got {value!r}") from exc
    return DEFAULT_TOL.replace(**overrides)


def _load_algebra(spec: str, tol: Tolerances) -> MetricLieAlgebra:
    if spec in FIXTURE_NAMES:
        return fixture(spec, tol)
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                return load_algebra(fh.read(), tol)
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {spec!r}: {exc}") from exc
    raise ParseError(f"{spec!r} is neither a built-in fixture "
                     f"({', '.join(FIXTURE_NAMES)}) nor a readable file")


def _echo_tolerances(tol: Tolerances, as_json: bool) -> None:
    text = " ".join(f"{k}={v:g}" for k, v in tol.as_dict().items())
    if as_json:
        print(f"tolerances: {text}", file=sys.stderr)
    else:
        print(f"# tolerances: {text}")


def _geodesic(args, alg: MetricLieAlgebra) -> GeodesicSpec:
    z0 = (_parse_vector(args.z0, alg.dim_center, "--z0")
          if args.z0 else np.zeros(alg.dim_center))
    x0 = (_parse_vector(args.x0, alg.dim_v, "--x0")
          if args.x0 else np.zeros(alg.dim_v))
    return GeodesicSpec(alg, z0, x0)


def _signature(gram: np.ndarray) -> list[int]:
    ev = np.linalg.eigvalsh(gram)
    return [int(np.sum(ev > 0)), int(np.sum(ev < 0))]


def cmd_validate(args, alg: MetricLieAlgebra, tol: Tolerances) -> int:
    doc = {
        "name": alg.name,
        "dim_center": alg.dim_center,
        "dim_v": alg.dim_v,
        "center_signature": _signature(alg.gram_center),
        "v_signature": _signature(alg.gram_v),
        "nonzero_brackets": int(np.sum(np.abs(alg.structure) > 0) // 2),
        "ok": True,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        for key, val in doc.items():
            print(f"{key:18} {val}")
    return 0


def cmd_spectrum(args, alg: MetricLieAlgebra, tol: Tolerances) -> int:
    z0 = _parse_vector(args.z0, alg.dim_center, "--z0")
    spec = spectrum(j_map(alg, z0), tol)
    doc = {
        "neg": [{"rate": l.rate, "mult": l.mult} for l in spec.neg],
        "pos": [{"rate": l.rate, "mult": l.mult} for l in spec.pos],
        "zero_mult": spec.zero_mult,
        "complex_dim": spec.complex_dim,
        "diagonalizable": spec.diagonalizable,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"{'kind':10} {'rate':>12} {'mult':>4}")
        for line in spec.neg:
            print(f"{'rotating':10} {line.rate:12.8f} {line.mult:4d}")
        for line in spec.pos:
            print(f"{'boosting':10} {line.rate:12.8f} {line.mult:4d}")
        print(f"{'zero':10} {'':>12} {spec.zero_mult:4d}")
        print(f"complex_dim {spec.complex_dim}")
        print(f"diagonalizable {spec.diagonalizable}")
    return 0


def _witness_diagnostics(geo: GeodesicSpec, field) -> dict:
    vals = field_values(geo, field)
    endpoint = float(np.abs(vals[-1]).max())
    residual = 0.0
    for t in np.linspace(field.times[0], field.times[-1], 43)[1:-1]:   # 41 interior points
        res_z, res_v = jacobi_frame_residual(geo, field, float(t))
        residual = max(residual, float(np.abs(res_z).max()), float(np.abs(res_v).max()))
    return {"witness_endpoint": endpoint, "witness_residual": residual}


def cmd_conjugate(args, alg: MetricLieAlgebra, tol: Tolerances) -> int:
    geo = _geodesic(args, alg)
    cts = conjugate_times(geo, args.tmax, tol, witnesses=args.witness is not None)
    rows = []
    witness_blocks = []
    for k, ct in enumerate(cts):
        row = {"t": ct.t, "mult": ct.multiplicity, "branch": ct.branch,
               "tangent": ct.tangent}
        if args.witness is not None:
            field = ct.certificate
            row.update(_witness_diagnostics(geo, field))
            if args.witness:          # path prefix: full field per file
                path = f"{args.witness}-{k}.csv"
                with open(path, "w") as fh:
                    fh.write(serialize_field(field))
                row["witness_file"] = path
            elif not args.json:       # bare flag: downsampled CSV on stdout
                stride = max(1, field.times.size // 128)
                witness_blocks.append((ct.t, serialize_field(field, stride)))
        rows.append(row)
    if args.json:
        print(json.dumps(rows))
    else:
        print(f"{'t':>16} {'mult':>4} {'branch':>15} {'tangent':>7}")
        for row in rows:
            print(f"{row['t']:16.9f} {row['mult']:4d} {row['branch']:>15}"
                  f" {str(row['tangent']):>7}")
        if args.witness is not None and rows:
            worst_e = max(r["witness_endpoint"] for r in rows)
            worst_r = max(r["witness_residual"] for r in rows)
            print(f"# witnesses: max endpoint {worst_e:.3e}, max residual {worst_r:.3e}")
        for t0, block in witness_blocks:
            print(f"# witness field for t = {t0:.9f}")
            print(block, end="")
    return 0


def cmd_oracle(args, alg: MetricLieAlgebra, tol: Tolerances) -> int:
    geo = _geodesic(args, alg)
    prop = integrate_propagator(geo, args.tmax, args.steps)
    detected = detect_conjugate(geo, args.tmax, tol=tol, prop=prop)
    if args.out:
        sig = sigma_min_series(prop)
        with open(args.out, "w") as fh:
            fh.write("t,sigma_min\n")
            for t, s in zip(prop.times, sig):
                fh.write(f"{t:.17g},{s:.17g}\n")
    rows = [{"t": t, "mult": m} for t, m in detected]
    if args.json:
        print(json.dumps(rows))
    else:
        print(f"{'t':>16} {'mult':>4}")
        for t, m in detected:
            print(f"{t:16.9f} {m:4d}")
    return 0


def _random_geodesic(alg: MetricLieAlgebra, rng: np.random.Generator) -> GeodesicSpec:
    """Random draw the closed forms support: central, straight, or line-center mixed."""
    cases = ["central", "straight"]
    if alg.dim_center == 1:
        cases.append("mixed")
    case = cases[rng.integers(len(cases))]
    z0 = np.zeros(alg.dim_center)
    x0 = np.zeros(alg.dim_v)
    if case in ("central", "mixed"):
        z0 = rng.standard_normal(alg.dim_center)
        z0 *= (0.5 + rng.random()) / np.linalg.norm(z0)
    if case in ("straight", "mixed"):
        x0 = rng.standard_normal(alg.dim_v)
        x0 *= (0.5 + rng.random()) / np.linalg.norm(x0)
    return GeodesicSpec(alg, z0, x0)


def _compare_one(geo: GeodesicSpec, t_max: float, detected: list, tol: Tolerances) -> dict:
    report = compare(conjugate_times(geo, t_max, tol), detected, match_tol=tol.match_tol)
    return {"z0": geo.z0.tolist(), "x0": geo.x0.tolist(),
            "matched": [list(m) for m in report.matched],
            "missing": [list(m) for m in report.missing],
            "spurious": [list(m) for m in report.spurious],
            "mult_mismatches": [list(m) for m in report.mult_mismatches], "ok": report.ok}


def cmd_compare(args, alg: MetricLieAlgebra, tol: Tolerances) -> int:
    if args.random is None:
        geos = [_geodesic(args, alg)]
    elif args.random < 1:
        raise ParseError(f"--random must be positive, got {args.random}")
    elif args.z0 is not None or args.x0 is not None:
        raise ParseError("--random draws its geodesics: it takes no --z0 or --x0")
    else:
        rng = np.random.default_rng(args.seed)
        geos = [_random_geodesic(alg, rng) for _ in range(args.random)]
    # the oracle first: it refuses a horizon past its memory bound before any closed form
    detected = detect_stack(geos, args.tmax, args.steps, tol)
    results = [_compare_one(geo, args.tmax, found, tol) for geo, found in zip(geos, detected)]
    all_ok = all(r["ok"] for r in results)
    worst_gap = max((abs(tc - td) for r in results for tc, td, _, _ in r["matched"]),
                    default=0.0)
    if args.json:
        print(json.dumps({"runs": results, "ok": all_ok, "worst_gap": worst_gap}))
    else:
        for i, r in enumerate(results):
            status = "ok" if r["ok"] else "DISCREPANCY"
            print(f"run {i:3d}: {len(r['matched'])} matched,"
                  f" {len(r['missing'])} missing, {len(r['spurious'])} spurious,"
                  f" {len(r['mult_mismatches'])} mult mismatches -> {status}")
        print(f"overall: {'ok' if all_ok else 'DISCREPANCY'}, worst matched gap {worst_gap:.3e}")
    return 0 if all_ok else 1


def _grid_directions(alg: MetricLieAlgebra, n: int, seed: int) -> list[np.ndarray]:
    q = alg.dim_v
    if q == 1:
        return [np.array([1.0])]
    if q == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return [np.array([np.cos(a), np.sin(a)]) for a in angles]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, q))
    return [d / np.linalg.norm(d) for d in dirs]


def _emit_samples(samples, args) -> None:
    if args.out:
        export_samples(samples, args.out, args.format)
    rows = [{"a": s.a, "t": s.t, "delta": s.delta, "point": s.point.tolist()}
            for s in samples]
    if args.json:
        print(json.dumps(rows))
    elif not args.out:
        print(f"{'a':>10} {'t':>16} {'delta':>12}  point")
        for s in samples:
            coords = " ".join(f"{c:11.6f}" for c in s.point)
            print(f"{s.a:10.5f} {s.t:16.9f} {s.delta:12.8f}  {coords}")
    else:
        print(f"# wrote {len(samples)} samples to {args.out}")


def cmd_locus(args, alg: MetricLieAlgebra, tol: Tolerances) -> int:
    if args.mode == "Z":
        if args.grid < 1:
            raise ParseError("--grid must be positive")
        dirs = ([_parse_vector(args.x0, alg.dim_v, "--x0")] if args.x0
                else _grid_directions(alg, args.grid, args.seed))
        samples = sample_horizontal_locus(alg, dirs, tol)
    else:
        if not args.x0:
            raise ParseError("--mode tube requires --x0")
        if args.num < 1:
            raise ParseError("--num must be positive")
        if not np.isfinite(args.amax):
            raise ParseError(f"--amax must be finite, got {args.amax:g}")
        x0 = _parse_vector(args.x0, alg.dim_v, "--x0")
        # exact negation: -a and a share one |a|, and the middle tilt is 0
        a_grid = args.amax * np.arange(-args.num, args.num + 1) / args.num
        samples = continuation(alg, x0, list(a_grid), tol)
    _emit_samples(samples, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilconj",
        description="Conjugate-point structure of geodesics on two-step "
                    "nilpotent metric Lie groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, geodesic=False, tmax=None):
        p.add_argument("--algebra", required=True,
                       help="built-in fixture name or algebra JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override, repeatable")
        if geodesic:
            p.add_argument("--z0", help="center components, comma-separated")
            p.add_argument("--x0", help="complement components, comma-separated")
        if tmax is not None:
            p.add_argument("--tmax", type=float, default=tmax)

    p = sub.add_parser("validate", help="load an algebra and check its invariants")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="rate decomposition of the center operator")
    common(p)
    p.add_argument("--z0", required=True, help="center components, comma-separated")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("conjugate", help="closed-form conjugate times")
    common(p, geodesic=True, tmax=13.0)
    p.add_argument("--witness", nargs="?", const="", default=None, metavar="PREFIX",
                   help="emit witness fields as CSV (to stdout, or PREFIX-k.csv)")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("oracle", help="numerical rank-drop detection")
    common(p, geodesic=True, tmax=13.0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", help="write (t, sigma_min) CSV here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="closed form vs oracle; exit 1 on discrepancy")
    common(p, geodesic=True, tmax=10.0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--random", type=int, metavar="N",
                   help="compare N seeded random geodesics instead of --z0/--x0")
    p.add_argument("--seed", type=int, default=0, help="seed of the --random draws")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("locus", help="sample the conjugate locus")
    common(p)
    p.add_argument("--mode", choices=["Z", "tube"], default="Z")
    p.add_argument("--x0", help="single direction (Z) or tube axis direction")
    p.add_argument("--grid", type=int, default=16, help="number of directions")
    p.add_argument("--seed", type=int, default=0, help="seed of the random grid (dim_v > 2)")
    p.add_argument("--amax", type=float, default=0.2)
    p.add_argument("--num", type=int, default=8, help="a-samples per sign")
    p.add_argument("--out", help="output path")
    p.add_argument("--format", choices=["csv", "obj"], default="csv")
    p.set_defaults(func=cmd_locus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _parse_tol_overrides(args.tol)
        alg = _load_algebra(args.algebra, tol)
        _echo_tolerances(tol, args.json)
        return args.func(args, alg, tol)
    except (NilconjError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
