"""Set-up of one workload: import nilconj, load fixtures, make one warm-up call.

Run as a script, it times one set-up in a fresh process and prints one JSON
line. The process starts with only the standard library loaded, so the
import it times includes numpy's and scipy's:

    python3 perfbench/probe.py crosscheck
"""

import importlib
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_SAMPLES = 5


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failed answer)."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import nilconj from this checkout's src/, never from elsewhere."""
    if not (SRC / "nilconj" / "__init__.py").is_file():
        raise HarnessError(f"no nilconj sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nc = importlib.import_module("nilconj")
    importlib.import_module("nilconj.cli")
    if not Path(nc.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"nilconj imported from {nc.__file__}, not {SRC}")
    return nc


def timed_setup(name: str) -> tuple[object, dict, float, float]:
    """(nc, algebras, setup_s, load_s) for workload `name`."""
    t0 = time.perf_counter()
    nc = import_library()
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    t1 = time.perf_counter()
    algs = {fixture: nc.fixture(fixture) for fixture in wl.fixtures}
    t2 = time.perf_counter()
    wl.warmup(nc, algs)
    t3 = time.perf_counter()
    return nc, algs, t3 - t0, t2 - t1


def main(name: str) -> int:
    pin_threads()
    try:
        _, _, setup_s, _ = timed_setup(name)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from speed import Speed
    ref = Speed()
    ref.sample(REFERENCE_SAMPLES)
    print(json.dumps({"setup_s": setup_s, "ref_s": ref.mean()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
