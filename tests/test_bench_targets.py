"""The benchmark patches library attributes and drives the CLI; both must exist."""

import importlib.util
import sys
from pathlib import Path

import nilconj
import nilconj.cli  # a patch target's module; the package does not import it

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench(name):
    # layers.py imports its sibling spans.py; load modules without writing bytecode.
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module   # dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(f"_bench_{name}", None)
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return module


def test_every_patch_target_exists():
    layers = _load_bench("layers")
    assert layers.PATCHES
    for module, attr, name, _ in layers.PATCHES:
        owner = getattr(nilconj, module) if module else nilconj
        assert callable(getattr(owner, attr, None)), f"{module or 'nilconj'}.{attr} ({name})"


def test_benchmark_cli_calls_parse():
    # parse, without running, the argv of each crosscheck batch (its label)
    workloads = _load_bench("workloads")
    algs = {name: nilconj.fixture(name) for name in workloads.FIXTURES}
    batches = workloads.crosscheck_round(nilconj, algs, 0, 0, workloads.TINY)
    assert batches
    parser = nilconj.cli._build_parser()
    for batch in batches:
        args = parser.parse_args(batch.label.split())
        assert args.func is nilconj.cli.cmd_compare


def test_benchmark_round_zero_passes():
    # round 0 of every workload at the smallest size: each library call the
    # benchmark makes runs, and each answer check it applies passes
    workloads = _load_bench("workloads")
    for name, wl in workloads.WORKLOADS.items():
        algs = {fix: nilconj.fixture(fix) for fix in wl.fixtures}
        for batch in wl.make_round(nilconj, algs, 0, 0, workloads.TINY):
            outcomes = list(batch.run())
            assert len(outcomes) == batch.n_items, (name, batch.label)
            assert all(o is None for o in outcomes), (name, batch.label, outcomes)
