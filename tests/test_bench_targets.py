"""The traced benchmark run patches library attributes; each must exist."""

import importlib.util
import sys
from pathlib import Path

import nilconj
import nilconj.cli  # noqa: F401  (a patch target's module; the package does not import it)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers():
    # layers.py imports its sibling spans.py; load both without writing bytecode.
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("_bench_layers", BENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return layers


def test_every_patch_target_exists():
    layers = _load_layers()
    assert layers.PATCHES
    for module, attr, name, _ in layers.PATCHES:
        owner = getattr(nilconj, module) if module else nilconj
        assert callable(getattr(owner, attr, None)), f"{module or 'nilconj'}.{attr} ({name})"
