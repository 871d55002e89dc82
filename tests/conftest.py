"""Shared fixtures: the four built-in algebras plus engineered extras."""

import json
import sys

import numpy as np
import pytest

from nilconj import MetricLieAlgebra, fixture, load_algebra
from nilconj.cli import _random_geodesic


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

# Extra algebras used by specific scenarios, defined as documents so the
# loader path is exercised too.

# two-dimensional center whose second direction brackets with nothing:
# z0 = (0, c) gives J = 0, the flat sanity case.
HEIS3Z2 = json.dumps({
    "name": "heis3z2",
    "dim_center": 2,
    "dim_v": 2,
    "gram": np.eye(4).tolist(),
    "brackets": [{"a": 0, "b": 1, "out": [1, 0]}],
})

# J with a one-dimensional kernel (e3 brackets with nothing).
HEIS4DEG = json.dumps({
    "name": "heis4deg",
    "dim_center": 1,
    "dim_v": 3,
    "gram": np.eye(4).tolist(),
    "brackets": [{"a": 0, "b": 1, "out": [1]}],
})

# nilpotent J (J^3 = 0, J != 0) whose kernel is a null line: J has no
# eigenbasis, and the metric is degenerate on ker J, so the flat factor does
# not split off.
NILPJ = json.dumps({
    "name": "nilpj",
    "dim_center": 1,
    "dim_v": 3,
    "gram": np.diag([-1.0, 1.0, 1.0, -1.0]).tolist(),
    "brackets": [{"a": 0, "b": 1, "out": [1]},
                 {"a": 0, "b": 2, "out": [1]}],
})

# rotation rates 2 and 2/3 with a negative-definite second block; tuned so
# that x0 = c e3 with c^2 = 9/(9 - pi sqrt(3)) realizes the preimage-pairing
# bonus multiplicity at t = pi.
WCROSS = json.dumps({
    "name": "wcross",
    "dim_center": 1,
    "dim_v": 4,
    "gram": [[1, 0, 0, 0, 0],
             [0, 1, 0, 0, 0],
             [0, 0, 1, 0, 0],
             [0, 0, 0, -1, 0],
             [0, 0, 0, 0, -1]],
    "brackets": [{"a": 0, "b": 1, "out": [2]},
                 {"a": 2, "b": 3, "out": [2 / 3]}],
})

# definite, with rotation rates 1 and 1 + 1e-7: the lattice times 2 pi n and
# 2 pi n / (1 + 1e-7) lie 6.3e-7 n apart, outside the lattice band.
NEARRES = json.dumps({
    "name": "nearres",
    "dim_center": 1,
    "dim_v": 4,
    "gram": np.eye(5).tolist(),
    "brackets": [{"a": 0, "b": 1, "out": [1.0]},
                 {"a": 2, "b": 3, "out": [1.0 + 1e-7]}],
})

# one rotating block (rate 1) and one boosting block (rate 2).
PHYP = json.dumps({
    "name": "phyp",
    "dim_center": 1,
    "dim_v": 4,
    "gram": [[1, 0, 0, 0, 0],
             [0, 1, 0, 0, 0],
             [0, 0, 1, 0, 0],
             [0, 0, 0, 1, 0],
             [0, 0, 0, 0, -1]],
    "brackets": [{"a": 0, "b": 1, "out": [1]},
                 {"a": 2, "b": 3, "out": [2]}],
})

# J(1) has the complex spectrum +-1.38678 +- 2.81175i: J is not
# real-diagonalizable but has an eigenbasis, so mixed geodesics take the
# complex series.
CPLX_BRACKETS = [{"a": 0, "b": 1, "out": [3.409]},
                 {"a": 0, "b": 2, "out": [-0.185]},
                 {"a": 0, "b": 3, "out": [0.644]},
                 {"a": 1, "b": 2, "out": [-1.66]},
                 {"a": 1, "b": 3, "out": [-1.616]},
                 {"a": 2, "b": 3, "out": [-2.482]}]
CPLX = json.dumps({
    "name": "cplx",
    "dim_center": 1,
    "dim_v": 4,
    "gram": np.diag([1.0, 1.0, 1.0, -1.0, -1.0]).tolist(),
    "brackets": CPLX_BRACKETS,
})


# CPLX plus e5, which brackets with nothing: a complex spectrum with a
# kernel, of either sign of e5's gram.  The metric is nondegenerate on
# ker J, so the flat factor splits off.
def cplxk_doc(sign):
    return json.dumps({
        "name": "cplxk",
        "dim_center": 1,
        "dim_v": 5,
        "gram": np.diag([1.0, 1.0, 1.0, -1.0, -1.0, sign]).tolist(),
        "brackets": CPLX_BRACKETS,
    })



def random_algebra(rng):
    """(algebra, geodesic) of the random-algebra probe, drawn from rng in this order:
    center dimension p in [1, 2] and complement dimension q in [2, 5]; a diagonal
    gram of random signs; for each pair a < b of complement indices, with
    probability 0.6, a bracket with N(0, 1) outputs (else the single bracket
    (0, 1) -> (1, ..., 1)); then cli._random_geodesic."""
    p, q = int(rng.integers(1, 3)), int(rng.integers(2, 6))
    gram = np.diag(rng.choice([-1.0, 1.0], p + q))
    structure = np.zeros((p, q, q))
    for a in range(q):
        for b in range(a + 1, q):
            if rng.random() < 0.6:
                structure[:, a, b] = rng.standard_normal(p)
    if not structure.any():
        structure[:, 0, 1] = 1.0
    alg = MetricLieAlgebra(p, q, gram, structure - structure.transpose(0, 2, 1))
    return alg, _random_geodesic(alg, rng)


BUILTIN_NAMES = ["heis3", "pheis3", "heis5w", "bicenter"]


@pytest.fixture(scope="session")
def algebras():
    return {name: fixture(name) for name in BUILTIN_NAMES}


@pytest.fixture(scope="session")
def heis3():
    return fixture("heis3")


@pytest.fixture(scope="session")
def pheis3():
    return fixture("pheis3")


@pytest.fixture(scope="session")
def heis5w():
    return fixture("heis5w")


@pytest.fixture(scope="session")
def bicenter():
    return fixture("bicenter")


@pytest.fixture(scope="session")
def heis3z2():
    return load_algebra(HEIS3Z2)


@pytest.fixture(scope="session")
def heis4deg():
    return load_algebra(HEIS4DEG)


@pytest.fixture(scope="session")
def nilpj():
    return load_algebra(NILPJ)


@pytest.fixture(scope="session")
def wcross():
    return load_algebra(WCROSS)


@pytest.fixture(scope="session")
def nearres():
    return load_algebra(NEARRES)


@pytest.fixture(scope="session")
def phyp():
    return load_algebra(PHYP)


@pytest.fixture(scope="session")
def cplx():
    return load_algebra(CPLX)


@pytest.fixture(scope="session", params=[1.0, -1.0], ids=["e5_timelike", "e5_spacelike"])
def cplxk(request):
    return load_algebra(cplxk_doc(request.param))
