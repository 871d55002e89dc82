"""Algebra layer: parsing, validation, brackets, metric, skew operator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilconj import (
    DEFAULT_TOL,
    AlgebraElement,
    AsymmetricBracketError,
    DegenerateCenterError,
    DegenerateComplementError,
    NonOrthogonalSplitError,
    ParseError,
    bracket,
    bracket_v,
    causal_character,
    fixture,
    inner,
    inner_v,
    inner_z,
    j_map,
    load_algebra,
    serialize,
)
from nilconj.algebra import FIXTURE_NAMES


def test_fixture_names_resolve():
    for name in FIXTURE_NAMES:
        alg = fixture(name)
        assert alg.name == name


def test_unknown_fixture():
    with pytest.raises(ParseError):
        fixture("nosuch")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_serialize_round_trip(name):
    alg = fixture(name)
    back = load_algebra(serialize(alg))
    assert back.dim_center == alg.dim_center
    assert back.dim_v == alg.dim_v
    assert np.array_equal(back.gram, alg.gram)
    assert np.array_equal(back.structure, alg.structure)


def test_load_rejects_bad_json():
    with pytest.raises(ParseError):
        load_algebra("{not json")


def test_load_rejects_missing_field():
    with pytest.raises(ParseError):
        load_algebra(json.dumps({"dim_center": 1, "dim_v": 2, "gram": np.eye(3).tolist()}))


def test_load_rejects_bad_bracket_index():
    doc = {"dim_center": 1, "dim_v": 2, "gram": np.eye(3).tolist(),
           "brackets": [{"a": 0, "b": 5, "out": [1.0]}]}
    with pytest.raises(ParseError):
        load_algebra(json.dumps(doc))


def test_load_rejects_unordered_pair():
    doc = {"dim_center": 1, "dim_v": 2, "gram": np.eye(3).tolist(),
           "brackets": [{"a": 1, "b": 0, "out": [1.0]}]}
    with pytest.raises(AsymmetricBracketError):
        load_algebra(json.dumps(doc))


def test_load_rejects_duplicate_pair():
    doc = {"dim_center": 1, "dim_v": 2, "gram": np.eye(3).tolist(),
           "brackets": [{"a": 0, "b": 1, "out": [1.0]},
                        {"a": 0, "b": 1, "out": [2.0]}]}
    with pytest.raises(AsymmetricBracketError):
        load_algebra(json.dumps(doc))


def test_degenerate_center_rejected():
    doc = {"dim_center": 1, "dim_v": 2,
           "gram": [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
           "brackets": [{"a": 0, "b": 1, "out": [1.0]}]}
    with pytest.raises(DegenerateCenterError):
        load_algebra(json.dumps(doc))


def test_degenerate_complement_rejected():
    doc = {"dim_center": 1, "dim_v": 2,
           "gram": [[1, 0, 0], [0, 1, 1], [0, 1, 1]],
           "brackets": [{"a": 0, "b": 1, "out": [1.0]}]}
    with pytest.raises(DegenerateComplementError):
        load_algebra(json.dumps(doc))


def test_gram_block_singularity_is_decided_by_rank_rel():
    # sigma_min / sigma_max = 1e-11 on the complement block: singular at the
    # default rank_rel = 1e-10, and an algebra once rank_rel is 1e-12
    doc = json.dumps({"dim_center": 1, "dim_v": 2,
                      "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1e-11]],
                      "brackets": [{"a": 0, "b": 1, "out": [1.0]}]})
    with pytest.raises(DegenerateComplementError):
        load_algebra(doc)
    alg = load_algebra(doc, DEFAULT_TOL.replace(rank_rel=1e-12))
    assert alg.gram_v[1, 1] == 1e-11


def test_split_coupling_rejected():
    doc = {"dim_center": 1, "dim_v": 2,
           "gram": [[1, 0.5, 0], [0.5, 1, 0], [0, 0, 1]],
           "brackets": [{"a": 0, "b": 1, "out": [1.0]}]}
    with pytest.raises(NonOrthogonalSplitError):
        load_algebra(json.dumps(doc))


def test_bracket_frozen_values(heis3, heis5w, bicenter):
    assert bracket_v(heis3, [1, 0], [0, 1]) == pytest.approx([1.0])
    assert bracket_v(heis5w, [0, 0, 1, 0], [0, 0, 0, 1]) == pytest.approx([2.0])
    # bicenter: [e1, e2] = z1, [e1, e3] = z2
    assert bracket_v(bicenter, [1, 0, 0], [0, 1, 0]) == pytest.approx([1.0, 0.0])
    assert bracket_v(bicenter, [1, 0, 0], [0, 0, 1]) == pytest.approx([0.0, 1.0])


def test_bracket_is_central_and_skew(heis3):
    x = AlgebraElement([3.0], [1.0, 2.0])
    y = AlgebraElement([-1.0], [0.5, -0.25])
    b = bracket(heis3, x, y)
    assert np.array_equal(b.v, np.zeros(2))
    c = bracket(heis3, y, x)
    assert b.z == pytest.approx(-c.z)


def test_inner_blocks(pheis3):
    assert inner_z(pheis3, [2.0], [3.0]) == pytest.approx(6.0)
    assert inner_v(pheis3, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(0.0)
    u = AlgebraElement([1.0], [0.0, 2.0])
    assert inner(pheis3, u, u) == pytest.approx(1.0 - 4.0)


def test_causal_character(pheis3):
    assert causal_character(pheis3, AlgebraElement([1.0], [0.0, 0.0])) == "timelike"
    assert causal_character(pheis3, AlgebraElement([0.0], [0.0, 1.0])) == "spacelike"
    assert causal_character(pheis3, AlgebraElement([0.0], [1.0, 1.0])) == "null"


def test_j_map_frozen(heis3, pheis3, bicenter):
    assert np.allclose(j_map(heis3, [1.0]), [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(j_map(pheis3, [1.0]), [[0.0, -1.0], [-1.0, 0.0]])
    # second center direction of bicenter sends e1 to -e3 (spacelike e3).
    jz2 = j_map(bicenter, [0.0, 1.0])
    assert np.allclose(jz2 @ np.array([1.0, 0.0, 0.0]), [0.0, 0.0, -1.0])


def test_j_map_rejects_bad_length(heis3):
    with pytest.raises(ParseError):
        j_map(heis3, [1.0, 2.0])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_j_map_defining_relation(name):
    # <Jx, y> = <z, [x, y]> for random draws; this is the only property the
    # operator is required to have, so check it directly.
    alg = fixture(name)
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = rng.standard_normal(alg.dim_center)
        x = rng.standard_normal(alg.dim_v)
        y = rng.standard_normal(alg.dim_v)
        lhs = inner_v(alg, j_map(alg, z) @ x, y)
        rhs = inner_z(alg, z, bracket_v(alg, x, y))
        assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_j_map_linear_in_z(seed):
    alg = fixture("bicenter")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(2)
    z2 = rng.standard_normal(2)
    a, b = rng.standard_normal(2)
    lhs = j_map(alg, a * z1 + b * z2)
    rhs = a * j_map(alg, z1) + b * j_map(alg, z2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_element_arithmetic():
    u = AlgebraElement([1.0], [2.0, 3.0])
    w = AlgebraElement([0.5], [1.0, -1.0])
    s = u + 2.0 * w
    assert s.z == pytest.approx([2.0])
    assert s.v == pytest.approx([4.0, 1.0])
    d = u - w
    assert d.coords() == pytest.approx([0.5, 1.0, 4.0])


def test_element_rejects_nonfinite():
    with pytest.raises(ParseError):
        AlgebraElement([float("nan")], [0.0])
