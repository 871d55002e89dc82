"""nilconj benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``) runs measure the end-to-end metrics: rounds of the
workload run until ``--seconds`` have passed, and times are scaled to the
nominal machine speed of ``speed.py``.  Traced (``--trace 1``) runs do a fixed
number of rounds with the library's public functions wrapped, so their
per-layer counts repeat exactly for one seed.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Answer failures
are counted, not raised: the exit code is nonzero only on a harness error.
"""

import probe

probe.pin_threads()   # before numpy is imported anywhere in this process

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from probe import BENCH_DIR, ROOT, SRC, THREAD_VARS, HarnessError  # noqa: E402
from spans import Tracer, span_cost_s  # noqa: E402
from speed import NOMINAL_S, Speed  # noqa: E402
from workloads import FULL, WORKLOADS, Size, Workload  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3          # set-ups in fresh processes; setup_s is their median


def probe_setups(name: str, n: int) -> list[tuple[float, float]]:
    """(setup_s, mean kernel time) of n fresh processes, run one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), name],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              env=dict(os.environ))
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        out.append((float(doc["setup_s"]), float(doc["ref_s"])))
    return out


class ItemClock:
    """Times the items inside a batch, for a workload that names an item clock.

    It wraps the function the library calls once per item (for `crosscheck`,
    ``nilconj.cli.compare``, once per geodesic of ``compare --random N``)
    and notes when each call returns.  After each call it takes a speed
    sample if one is due, so that a batch lasting several seconds is scaled
    by the machine speed during it; ``Speed.busy`` takes the samples' time
    out again.  It does no tracing and is installed in untraced runs only.
    """

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.marks: list[float] = []
        self._patch = None

    def install(self, nc, where: tuple[str, str]) -> None:
        module, attr = getattr(nc, where[0]), where[1]
        original = getattr(module, attr)

        @functools.wraps(original)
        def clocked(*args, **kwargs):
            out = original(*args, **kwargs)
            self.marks.append(time.perf_counter())
            self.speed.maybe_sample()
            return out

        setattr(module, attr, clocked)
        self._patch = (module, attr, original)

    def restore(self) -> None:
        if self._patch is not None:
            module, attr, original = self._patch
            setattr(module, attr, original)
            self._patch = None

    def pieces(self, since: int, n: int, t0: float, t1: float) -> list[tuple[float, float, int]]:
        """(start, end, items) pieces of a batch that ran in [t0, t1].

        With one mark per item, item i ends at its mark, except that the
        last item ends with the batch and so also carries its output and
        check.  Otherwise (for example a library that handles the batch in
        one call) the batch is one piece of n items.
        """
        marks = self.marks[since:]
        if len(marks) != n:
            return [(t0, t1, n)]
        bounds = [t0, *marks[:-1], t1]
        return [(a, b, 1) for a, b in zip(bounds, bounds[1:])]


@dataclass
class Tally:
    """Item outcomes and timings of one run."""

    # (round, label, items, start, end): a batch, or one item of it when an
    # item clock splits the batch.  The items share the piece's time equally.
    pieces: list = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)    # (label, reason, explain)
    errors: list = field(default_factory=list)

    def reasons(self) -> tuple[Counter, int]:
        """Failure lines with their explanations, and how many have none.

        Calls the deferred explanations, so it runs after the timed loop.
        """
        lines: Counter = Counter()
        unexplained = 0
        for label, reason, explain in self.failures:
            why = explain() if callable(explain) else explain
            unexplained += not why
            lines[f"{label}: {reason} [{why or 'unexplained'}]"] += 1
        return lines, unexplained


def run_round(batches, tally: Tally, tracer, speed=None, clock=None) -> None:
    """Run and check every batch; kernel samples fall between batches or items, never in a call."""
    for batch in batches:
        if speed is not None:
            speed.maybe_sample()
        if tracer is not None:
            tracer.item += 1
        since = len(clock.marks) if clock is not None else 0
        with tracer.span("bench.batch") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                outcomes = []
                for outcome in batch.run():
                    outcomes.append(outcome)
                    if speed is not None:   # a batch that yields its checks one by one
                        speed.maybe_sample()
            except Exception as exc:   # a library raise fails the batch's items
                tally.errors.append(f"{batch.label}\n{traceback.format_exc()}")
                outcomes = [(f"{type(exc).__name__}: {exc}", "")] * batch.n_items
            t1 = time.perf_counter()
        if len(outcomes) != batch.n_items:
            raise HarnessError(f"{batch.label}: {len(outcomes)} outcomes "
                               f"for {batch.n_items} items")
        pieces = (clock.pieces(since, batch.n_items, t0, t1) if clock is not None
                  else [(t0, t1, batch.n_items)])
        tally.pieces += [(tally.rounds, batch.label, n, a, b) for a, b, n in pieces]
        tally.attempted += batch.n_items
        tally.failures += [(batch.label, *outcome) for outcome in outcomes if outcome is not None]
    tally.rounds += 1


def measure(nc, wl: Workload, algs: dict, seed: int, seconds: float, size: Size,
            tracer, speed: Speed) -> Tally:
    tally = Tally()
    if tracer is None:
        clock = ItemClock(speed) if wl.item_clock else None
        if clock is not None:
            clock.install(nc, wl.item_clock)
        try:
            speed.sample()
            start = time.perf_counter()
            while tally.rounds == 0 or time.perf_counter() - start < seconds:
                run_round(wl.make_round(nc, algs, seed, tally.rounds, size), tally, None,
                          speed, clock)
            speed.sample()
        finally:
            if clock is not None:
                clock.restore()
        return tally
    n_rounds = size.trace_rounds or wl.trace_rounds
    rounds = [wl.make_round(nc, algs, seed, r, size) for r in range(n_rounds)]
    layers.install(tracer, nc)
    try:
        with tracer.span("bench.run"):
            for batches in rounds:
                with tracer.span("bench.round"):
                    run_round(batches, tally, tracer)
    finally:
        tracer.restore()
    return tally


def percentile(values: list, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def timing_stats(tally: Tally, tail_pct: int, speed: Speed, scaled: bool) -> dict:
    """Latency percentiles and per-round figures.

    Each piece's time excludes the speed samples taken inside it and, if
    `scaled`, is scaled to nominal speed.
    """
    lat_ms: list[float] = []
    walls = [0.0] * tally.rounds
    items = [0] * tally.rounds
    for r, _, n, start, end in tally.pieces:
        dt = (end - start - speed.busy(start, end)) * (speed.scale(start, end) if scaled else 1.0)
        lat_ms += [1e3 * dt / n] * n
        walls[r] += dt
        items[r] += n
    tail = percentile(lat_ms, tail_pct)
    return {
        "p50": percentile(lat_ms, 50),
        "tail": tail,
        "beyond": sum(1 for x in lat_ms if x > tail),
        "n": len(lat_ms),
        "rate": statistics.median(n / w for n, w in zip(items, walls)),
        "wall": statistics.median(walls),
        "busy": sum(walls),
    }


def end_to_end_metrics(wl: Workload, tally: Tally, setups: list[tuple[float, float]],
                       speed: Speed) -> dict:
    """Times at nominal machine speed (see speed.py); each note gives the raw value."""
    raw = timing_stats(tally, wl.tail_pct, speed, scaled=False)
    st = timing_stats(tally, wl.tail_pct, speed, scaled=True)
    setup = statistics.median(s * NOMINAL_S / ref for s, ref in setups)
    return {
        "setup_s": (setup, "s", f"median of {len(setups)} fresh-process set-ups "
                                f"(import, fixtures, warm-up); raw median "
                                f"{statistics.median(s for s, _ in setups):.6g}"),
        "items_per_s": (st["rate"], "1/s", f"raw {raw['rate']:.6g}; median of {tally.rounds} "
                                           f"rounds; {tally.attempted} items in "
                                           f"{raw['busy']:.3f} s"),
        "item_p50_ms": (st["p50"], "ms", f"raw {raw['p50']:.6g}; n={st['n']}"),
        "item_tail_ms": (st["tail"], "ms", f"raw {raw['tail']:.6g}; p{wl.tail_pct}, "
                                           f"{st['beyond']} items beyond, n={st['n']}"),
        "wall_s": (st["wall"], "s", f"raw {raw['wall']:.6g}; median of {tally.rounds} rounds"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "this process"),
        "pass_frac": (1.0 - len(tally.failures) / tally.attempted, "ratio",
                      f"fail_frac {len(tally.failures) / tally.attempted:.6g} = "
                      f"{len(tally.failures)}/{tally.attempted}"),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nilconj").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(nc, seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "tolerances": nc.DEFAULT_TOL.as_dict(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
                 probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result document (nothing printed)."""
    wl = WORKLOADS[name]
    nc, algs, _, load_s = probe.timed_setup(name)
    speed = Speed()
    tracer = Tracer() if trace else None
    if trace:
        tally = measure(nc, wl, algs, seed, seconds, size, tracer, speed)
        metrics = layers.layer_metrics(tracer, load_s, span_cost_s())
    else:
        setups = probe_setups(name, probes)
        tally = measure(nc, wl, algs, seed, seconds, size, tracer, speed)
        metrics = end_to_end_metrics(wl, tally, setups, speed)
    reasons, unexplained = tally.reasons()
    return {
        "workload": name,
        "trace": trace,
        "env": environment(nc, seed),
        "correct": unexplained == 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
        "failures": [f"{n} x {line}" for line, n in reasons.most_common()],
        "errors": tally.errors,
        "pieces": tally.pieces,
        "kernel": speed.samples,
        "spans": tracer.closed_spans() if tracer is not None else [],
    }


def emit(doc: dict) -> None:
    """Print the human-readable report, then the one-line JSON result last."""
    print(f"# env {json.dumps(doc['env'])}")
    for line in doc["failures"][:20]:
        print(f"# failed: {line}")
    for name, (value, unit, note) in doc["metrics"].items():
        print(f"{name:34s} {value:>16.6g} {unit:6s} {note}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in doc["metrics"].items()},
    }))


def write_out(doc: dict, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{doc['workload']}-seed{seed}-trace{int(doc['trace'])}.json"
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        path = write_out(doc, args.seed)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    emit(doc)
    print(f"# wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
