"""The four benchmark workloads: seeded inputs, library calls and answer checks.

A workload runs in rounds of a fixed composition; only the random draws
change from round to round.  A round is a list of batches.  A batch is the
library call (or calls) whose results arrive together, plus the checks of
those results; it returns or yields one outcome per item.  A batch whose
checks take long yields each outcome as soon as it is checked, so that the
harness can time its speed kernel between them:

* ``None`` when the item passed its check;
* ``(reason, explain)`` when it failed.  ``explain`` is "" or a function that
  the harness calls after the timed loop.  The function names the known
  limit of the checker that accounts for the failure, or returns "".  A run
  stays correct when every failure is accounted for.  Such a failure still
  counts in ``failed``.

The harness calls the library through attribute lookups on the imported
package at call time (``nc.conjugate_times(...)``), so the traced run can
wrap those functions without touching the library.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Union

import numpy as np

Outcome = Optional[tuple[str, Union[str, Callable[[], str]]]]

FIXTURES = ("heis3", "pheis3", "heis5w", "bicenter")

# The ROADMAP item-2 boosting cases, as they are: (z0, x0, tmax) on pheis3.
BOOSTING_CASES = (
    ([1.0], [1.0, 0.0], 20.0),
    ([1.0], [0.3, 1.0], 20.0),
    ([2.0], [1.0, 0.5], 10.0),
)

# ROADMAP W2: heis5w, z0 = 3, x0 = (1, .2, .3, .4).
W2_Z0 = 3.0
W2_X0 = np.array([1.0, 0.2, 0.3, 0.4])

# Criterion-6 witness bounds.
WITNESS_ENDPOINT_MAX = 1e-8
WITNESS_RESIDUAL_MAX = 1e-6
# The two horizontal-locus methods agree to this relative accuracy.
LOCUS_AGREE_REL = 1e-9
# The oracle re-run that adjudicates a cross-check failure: this many times
# the default steps, over a horizon this much longer.
FINE_STEPS = 8
FINE_HORIZON = 1.05


@dataclass(frozen=True)
class Size:
    """How much work one round does."""

    cross_random: int           # geodesics per `compare --random` call
    cross_tmax: float
    witness_tmax: float
    # Conjugate times in (0, witness_tmax] on every drawn W2 geodesic: pi/3, a
    # transcendental root near 1.07, 2 pi/3 and one near 2.36 (2.32-2.41 over
    # the draws), then pi.  The horizon sits between two of them, so the
    # count is fixed; any other count fails the whole batch.
    witness_count: int
    locus_directions: int
    locus_tilts: int            # tilts per sign; the tilt grid has 2 * tilts + 1 points
    long_boosting: tuple[int, ...]   # indices into BOOSTING_CASES
    long_controls: int          # in-envelope controls per control fixture
    long_control_tmax: float
    trace_rounds: Optional[int] = None   # None: the workload's own count


# cross_random and cross_tmax are criterion 10's (ROADMAP W1); the 64
# directions and the 41-point tube are ROADMAP W4's.  With four controls per
# fixture, 8 of oracle_long's 11 items per round are controls, so its median
# and p70 fall well inside the controls' latencies; with two, both sat next
# to the gap below the two slow boosting cases and spread by 0.10-0.11.
FULL = Size(cross_random=50, cross_tmax=6.0, witness_tmax=2.8, witness_count=4,
            locus_directions=64, locus_tilts=20, long_boosting=(0, 1, 2), long_controls=4,
            long_control_tmax=16.0)
TINY = Size(cross_random=2, cross_tmax=2.0, witness_tmax=1.2, witness_count=2,
            locus_directions=2, locus_tilts=2, long_boosting=(2,), long_controls=1,
            long_control_tmax=4.0, trace_rounds=1)


@dataclass(frozen=True)
class Batch:
    """Library calls whose results arrive together, with their checks."""

    label: str                  # the generated inputs, readable
    n_items: int
    run: Callable[[], Iterable[Outcome]]


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: tuple[str, ...]
    tail_pct: int               # fixed so that baseline runs keep >= 10 items beyond it
    trace_rounds: int           # rounds of the traced run, which does fixed work
    make_round: Callable[[Any, dict, int, int, Size], list[Batch]]
    warmup: Callable[[Any, dict], None]
    # (module, function) that the library calls once per item of a batch, as
    # `compare --random N` calls nilconj.cli.compare once per geodesic.
    # Untraced runs time each item between its calls; see run.ItemClock.
    item_clock: Optional[tuple[str, str]] = None


def _rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


def envelope_time(nc, alg, z0) -> float:
    """Where the oracle's README caveat starts to apply: e^(rate t) = 1/rank_tol."""
    spec = nc.spectral.spectrum(nc.j_map(alg, np.asarray(z0, dtype=float)))
    rate = max((line.rate for line in spec.pos), default=0.0)
    return math.log(1.0 / nc.DEFAULT_TOL.rank_tol) / rate if rate > 0.0 else math.inf


def explain_discrepancy(nc, alg, z0, x0, t_max: float, closed: list, missing: list,
                        spurious: list, mismatches: list) -> str:
    """Why the oracle disagreed with the closed-form list `closed`, if the checker is at fault.

    `missing`, `spurious` and `mismatches` are the cross-check's report.  The
    oracle's rank test is documented as unreliable once e^(rate t) reaches
    1/rank_tol, where it reports spurious drops.  So a discrepancy is put down
    to that only when no closed-form time is missing and every spurious or
    mismatched time lies at or past that point.  Otherwise the oracle is run
    again on FINE_STEPS times the default steps over a FINE_HORIZON longer
    horizon, and its detections in (0, t_max] are compared with `closed`.
    Agreement shows a checker limit: the default grid merged two nearby times,
    or the scan's right-endpoint candidate reported the horizon itself.  Runs
    after the timed loop, outside any trace.
    """
    t_env = envelope_time(nc, alg, z0)
    if not missing and all(entry[0] >= t_env for entry in list(spurious) + list(mismatches)):
        return "every discrepancy lies past the oracle's growth envelope"
    geo = nc.GeodesicSpec(alg, z0, x0)
    horizon = FINE_HORIZON * t_max
    tol = nc.DEFAULT_TOL.match_tol
    detected = [(t, m) for t, m in nc.oracle.detect_conjugate(
        geo, horizon, steps=FINE_STEPS * nc.oracle.default_steps(horizon)) if t <= t_max + tol]
    if nc.oracle.compare(closed, detected, match_tol=tol).ok:
        return f"the oracle on {FINE_STEPS}x the steps and a longer horizon agrees"
    return ""


def _report_reason(missing, spurious, mismatches) -> str:
    first = (list(missing) + list(spurious))[:1]
    where = f" first at t={first[0][0]:.6g}" if first else ""
    return (f"compare: {len(missing)} missing, {len(spurious)} spurious, "
            f"{len(mismatches)} mult mismatches{where}")


# ---------------------------------------------------------------------------
# crosscheck: seeded `nilconj compare --random N --tmax 6 --json` per fixture


def _compare_cli(nc, alg, argv: list[str], n: int, t_max: float) -> list[Outcome]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nc.cli.main(argv)
    if code == 2:
        return [(f"cli exit 2: {err.getvalue().strip()[-200:]}", "")] * n
    runs = json.loads(out.getvalue())["runs"]
    if len(runs) != n:
        return [(f"cli reported {len(runs)} runs, expected {n}", "")] * n
    outcomes: list[Outcome] = []
    for run in runs:
        if run["ok"] and not (run["missing"] or run["spurious"] or run["mult_mismatches"]):
            outcomes.append(None)
        else:
            reason = _report_reason(run["missing"], run["spurious"], run["mult_mismatches"])
            closed = ([(tc, mc) for tc, _, mc, _ in run["matched"]]
                      + [tuple(m) for m in run["missing"]])
            outcomes.append((reason, functools.partial(
                explain_discrepancy, nc, alg, run["z0"], run["x0"], t_max, closed,
                run["missing"], run["spurious"], run["mult_mismatches"])))
    expected = 0 if all(o is None for o in outcomes) else 1
    if code != expected:
        return [(f"cli exit {code}, expected {expected}", "")] * n
    return outcomes


def crosscheck_round(nc, algs: dict, seed: int, r: int, size: Size) -> list[Batch]:
    """One criterion-10 battery: a `compare --random N` call per fixture."""
    rng = _rng(seed, r)
    batches = []
    for name in FIXTURES:
        cli_seed = int(rng.integers(2**31 - 1))
        argv = ["compare", "--algebra", name, "--random", str(size.cross_random),
                "--seed", str(cli_seed), "--tmax", f"{size.cross_tmax:g}", "--json"]
        batches.append(Batch(" ".join(argv), size.cross_random,
                             functools.partial(_compare_cli, nc, algs[name], argv,
                                               size.cross_random, size.cross_tmax)))
    return batches


def crosscheck_warmup(nc, algs: dict) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        nc.cli.main(["compare", "--algebra", "heis3", "--random", "1", "--seed", "0",
                     "--tmax", "1", "--json"])


# ---------------------------------------------------------------------------
# witness: conjugate_times(..., witnesses=True) on heis5w, checked as criterion 6


def check_witness(nc, geo, ct) -> Outcome:
    field = ct.certificate
    if field is None:
        return (f"t={ct.t:.9g}: no witness attached", "")
    vals = nc.field_values(geo, field)
    start = float(np.linalg.norm(vals[0]))
    end = float(np.linalg.norm(vals[-1]))
    n = field.times.size
    residual = 0.0
    for idx in (n // 4, n // 2, (3 * n) // 4):
        res_z, res_v = nc.jacobi_frame_residual(geo, field, float(field.times[idx]))
        residual = max(residual, float(np.linalg.norm(res_z)), float(np.linalg.norm(res_v)))
    if start != 0.0 or end > WITNESS_ENDPOINT_MAX or residual > WITNESS_RESIDUAL_MAX:
        return (f"t={ct.t:.9g}: |Y(0)|={start:.3g} |Y(t0)|={end:.3g} "
                f"residual={residual:.3g}", "")
    return None


def _witness_set(nc, geo, t_max: float, expected: int) -> Iterator[Outcome]:
    cts = nc.conjugate_times(geo, t_max, witnesses=True)
    if len(cts) != expected:
        yield from [(f"{len(cts)} witnessed times, expected {expected}", "")] * expected
        return
    for ct in cts:   # a check takes about a quarter second
        yield check_witness(nc, geo, ct)


def witness_round(nc, algs: dict, seed: int, r: int, size: Size) -> list[Batch]:
    rng = _rng(seed, r)
    x0 = W2_X0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, W2_X0.size))
    geo = nc.GeodesicSpec(algs["heis5w"], [W2_Z0], x0)
    label = f"heis5w z0={W2_Z0:g} x0={np.round(x0, 6).tolist()} tmax {size.witness_tmax:g}"
    return [Batch(label, size.witness_count,
                  functools.partial(_witness_set, nc, geo, size.witness_tmax,
                                    size.witness_count))]


def witness_warmup(nc, algs: dict) -> None:
    geo = nc.GeodesicSpec(algs["heis3"], [1.0], [1.0, 0.0])
    for ct in nc.conjugate_times(geo, 7.0, witnesses=True):
        check_witness(nc, geo, ct)


# ---------------------------------------------------------------------------
# locus: horizontal locus on pheis3 by both methods, plus continuation tubes


def _locus_pair(nc, alg, directions: list[np.ndarray]) -> list[Outcome]:
    n = len(directions)
    by_delta = nc.sample_horizontal_locus(alg, directions, method="delta")
    by_general = nc.sample_horizontal_locus(alg, directions, method="general")
    if len(by_delta) != n or len(by_general) != n:
        return [(f"{len(by_delta)} delta and {len(by_general)} general samples "
                 f"for {n} directions", "")] * (2 * n)
    outcomes: list[Outcome] = []
    for d, g in zip(by_delta, by_general):
        dt = abs(d.t - g.t)
        dp = float(np.abs(d.point - g.point).max())
        scale_p = max(1.0, float(np.abs(d.point).max()))
        if dt <= LOCUS_AGREE_REL * max(1.0, d.t) and dp <= LOCUS_AGREE_REL * scale_p:
            outcomes += [None, None]
        else:
            outcomes += [(f"methods disagree: |dt|={dt:.3g} |dpoint|={dp:.3g}", "")] * 2
    return outcomes


def _tube(nc, alg, x0: np.ndarray, a_grid: list[float]) -> list[Outcome]:
    samples = nc.continuation(alg, x0, a_grid)
    if len(samples) != len(a_grid):
        return [(f"{len(samples)} tube samples for {len(a_grid)} tilts", "")] * len(a_grid)
    t0 = next(s.t for s in samples if s.a == 0.0)
    outcomes: list[Outcome] = []
    for s in samples:
        gap = abs(s.t - t0)
        if gap <= 0.5 * s.a * s.a + 1e-12:
            outcomes.append(None)
        else:
            outcomes.append((f"a={s.a:.4g}: |t(a)-t(0)|={gap:.3g} > a^2/2", ""))
    return outcomes


def locus_round(nc, algs: dict, seed: int, r: int, size: Size) -> list[Batch]:
    rng = _rng(seed, r)
    alg = algs["pheis3"]
    # pheis3 has a conjugate point along x0 iff x0_1^2 > x0_2^2; directions
    # stay within 0.6 rad of the e1 axis (either sign) so each yields a sample.
    angles = rng.uniform(-0.6, 0.6, size.locus_directions)
    angles += np.pi * (np.arange(size.locus_directions) % 2)
    directions = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    # Tube axis with Delta in [1, 1.25]; a^2/2 bounds |t(a) - t(0)| there.
    theta = rng.uniform(-0.4, 0.4)
    delta = rng.uniform(1.0, 1.25)
    x0 = delta / np.sqrt(np.cos(2.0 * theta)) * np.array([np.cos(theta), np.sin(theta)])
    a_max = rng.uniform(0.15, 0.2)
    a_grid = [float(a) for a in np.linspace(-a_max, a_max, 2 * size.locus_tilts + 1)]
    a_grid[size.locus_tilts] = 0.0
    return [
        Batch(f"pheis3 directions angles={np.round(angles, 6).tolist()}",
              2 * len(directions), functools.partial(_locus_pair, nc, alg, directions)),
        Batch(f"pheis3 tube x0={np.round(x0, 6).tolist()} amax={a_max:.6f} "
              f"tilts={len(a_grid)}", len(a_grid),
              functools.partial(_tube, nc, alg, x0, a_grid)),
    ]


def locus_warmup(nc, algs: dict) -> None:
    alg = algs["pheis3"]
    _locus_pair(nc, alg, [np.array([1.0, 0.0])])
    _tube(nc, alg, np.array([1.0, 0.0]), [0.0, 0.1])


# ---------------------------------------------------------------------------
# oracle_long: detect_conjugate + conjugate_times + compare on long horizons


def _cross_check(nc, geo, t_max: float) -> list[Outcome]:
    closed = nc.conjugate_times(geo, t_max)
    detected = nc.detect_conjugate(geo, t_max)
    report = nc.compare(closed, detected, match_tol=nc.DEFAULT_TOL.match_tol)
    if report.ok:
        return [None]
    return [(_report_reason(report.missing, report.spurious, report.mult_mismatches),
             functools.partial(explain_discrepancy, nc, geo.alg, geo.z0, geo.x0, t_max,
                               closed, report.missing, report.spurious,
                               report.mult_mismatches))]


def _random_mixed(rng: np.random.Generator, z_lo: float, z_hi: float) -> tuple[list, list]:
    z0 = [float(rng.choice([-1.0, 1.0]) * rng.uniform(z_lo, z_hi))]
    angle = rng.uniform(0.0, 2.0 * np.pi)
    radius = rng.uniform(0.5, 1.5)
    return z0, [radius * np.cos(angle), radius * np.sin(angle)]


def oracle_long_round(nc, algs: dict, seed: int, r: int, size: Size) -> list[Batch]:
    rng = _rng(seed, r)
    cases = [("pheis3", *BOOSTING_CASES[k]) for k in size.long_boosting]
    # In-envelope controls: pheis3 boosting rate |z0| * tmax stays below
    # ln(1/rank_tol) ~ 13.8; heis3 only rotates.
    for _ in range(size.long_controls):
        cases.append(("pheis3", *_random_mixed(rng, 0.3, 0.7), size.long_control_tmax))
    for _ in range(size.long_controls):
        cases.append(("heis3", *_random_mixed(rng, 0.5, 1.5), size.long_control_tmax))
    batches = []
    for name, z0, x0, t_max in cases:
        alg = algs[name]
        geo = nc.GeodesicSpec(alg, z0, x0)
        label = (f"{name} z0={np.round(z0, 6).tolist()} x0={np.round(x0, 6).tolist()} "
                 f"tmax {t_max:g}")
        batches.append(Batch(label, 1, functools.partial(_cross_check, nc, geo, t_max)))
    return batches


def oracle_long_warmup(nc, algs: dict) -> None:
    geo = nc.GeodesicSpec(algs["heis3"], [1.0], [1.0, 0.0])
    _cross_check(nc, geo, 1.0)


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("crosscheck", FIXTURES, 95, 1, crosscheck_round, crosscheck_warmup,
                 item_clock=("cli", "compare")),
        Workload("witness", ("heis3", "heis5w"), 70, 12, witness_round, witness_warmup),
        Workload("locus", ("pheis3",), 90, 75, locus_round, locus_warmup),
        Workload("oracle_long", ("heis3", "pheis3"), 70, 4, oracle_long_round,
                 oracle_long_warmup),
    )
}
