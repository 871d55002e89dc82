"""Spectral layer: eigensplitting, lattice kernels, membership, coupling."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from nilconj import (
    DEFAULT_TOL,
    NotDiagonalizableError,
    center_coupling,
    eigen_components,
    fixture,
    image_membership,
    inner_v,
    inner_z,
    j_map,
    lattice_kernel,
    spectrum,
)
from nilconj.algebra import FIXTURE_NAMES, MetricLieAlgebra, bracket_v
from nilconj.spectral import lattice_match


def test_spectrum_heis3(heis3):
    spec = spectrum(j_map(heis3, [1.0]))
    assert len(spec.neg) == 1 and not spec.pos
    assert spec.neg[0].rate == pytest.approx(1.0, rel=1e-12)
    assert spec.neg[0].mult == 2
    assert spec.zero_mult == 0 and spec.zero_basis.shape[1] == 0
    assert spec.diagonalizable and spec.complex_dim == 0


def test_spectrum_pheis3(pheis3):
    spec = spectrum(j_map(pheis3, [1.0]))
    assert len(spec.pos) == 1 and not spec.neg
    assert spec.pos[0].rate == pytest.approx(1.0, rel=1e-12)
    assert spec.pos[0].mult == 2


def test_spectrum_heis5w(heis5w):
    spec = spectrum(j_map(heis5w, [1.0]))
    rates = sorted(line.rate for line in spec.neg)
    assert rates == pytest.approx([1.0, 2.0], rel=1e-12)
    assert all(line.mult == 2 for line in spec.neg)


def test_spectrum_degenerate_kernel(heis4deg):
    spec = spectrum(j_map(heis4deg, [1.0]))
    assert len(spec.neg) == 1 and spec.neg[0].mult == 2
    assert spec.zero_mult == 1
    assert spec.zero_basis.shape == (3, 1)
    assert abs(spec.zero_basis[2, 0]) == pytest.approx(1.0)


def test_spectrum_nilpotent_has_no_certificate(nilpj):
    # the eigenvalue noise of a nilpotent J can pose as a boosting line
    # spanning ker J^2, which would complete the dimension count
    for z in (1.012, 1.0, 0.3):
        spec = spectrum(j_map(nilpj, [z]))
        assert not spec.diagonalizable
        with pytest.raises(NotDiagonalizableError):
            eigen_components(spec, np.ones(3))


def test_spectrum_mixed_signature(phyp):
    spec = spectrum(j_map(phyp, [1.0]))
    assert len(spec.neg) == 1 and spec.neg[0].rate == pytest.approx(1.0, rel=1e-12)
    assert len(spec.pos) == 1 and spec.pos[0].rate == pytest.approx(2.0, rel=1e-12)


def test_spectrum_scaling(heis5w):
    # J is linear in z, so rates scale linearly too.
    spec = spectrum(j_map(heis5w, [2.5]))
    rates = sorted(line.rate for line in spec.neg)
    assert rates == pytest.approx([2.5, 5.0], rel=1e-12)


@pytest.mark.parametrize("name", ["heis5w", "pheis3", "phyp"])
def test_spectrum_scale_covariant(name, request):
    # every decision is taken at unit size: 1e-6 J once read as two
    # four-dimensional lines without the real-split certificate
    j = j_map(request.getfixturevalue(name), [1.0])
    base = spectrum(j)

    def shape(spec):
        return ([line.mult for line in spec.neg], [line.mult for line in spec.pos],
                spec.zero_mult, spec.zero_basis.shape[1], spec.complex_dim, spec.diagonalizable)

    for s in (1e-9, 1e-6, 1.0, 1e3):
        spec = spectrum(s * j)
        assert shape(spec) == shape(base)
        for lines, ref in ((spec.neg, base.neg), (spec.pos, base.pos)):
            assert [line.rate for line in lines] == pytest.approx(
                [s * line.rate for line in ref], rel=1e-12)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_spectrum_completeness_generic(name):
    # Plain eigenspace dims plus complex pairs account for the full space on
    # generic center draws.
    alg = fixture(name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.standard_normal(alg.dim_center)
        spec = spectrum(j_map(alg, z))
        total = (sum(l.mult for l in spec.neg) + sum(l.mult for l in spec.pos)
                 + spec.zero_basis.shape[1] + spec.complex_dim)
        assert total == alg.dim_v


def test_lattice_kernel_heis3(heis3):
    j = j_map(heis3, [1.0])
    full = lattice_kernel(j, 2.0 * np.pi)
    assert full.shape == (2, 2)
    # t = pi gives exp(-tJ) = -I, no nonzero fixed vectors.
    assert lattice_kernel(j, np.pi).shape == (2, 0)


def test_lattice_match_band_heis3(heis3):
    # a line meets t within merge_rel * max(1, t) + 2e-9 of one of its lattice
    # times, the band of every lattice decision, at any t
    spec = spectrum(j_map(heis3, [1.0]))
    total, kern = lattice_match(spec, 2.0 * np.pi * (1.0 + 3e-10))
    assert total == 2 and kern.shape == (2, 2)
    assert lattice_match(spec, 2.0 * np.pi * (1.0 + 1e-6))[0] == 0
    assert lattice_match(spec, 2.0 * np.pi * 1e4 * (1.0 + 3e-10))[0] == 2
    # inside the band's absolute floor, where rounding t / 2 pi to 1 within
    # 1e-9 once missed
    assert lattice_match(spec, 2.0 * np.pi + 7e-9)[0] == 2
    assert lattice_match(spec, 2.0 * np.pi + 9e-9)[0] == 0


def test_lattice_kernel_heis5w(heis5w):
    j = j_map(heis5w, [1.0])
    # at t = pi only the rate-2 plane closes up.
    kern = lattice_kernel(j, np.pi)
    assert kern.shape == (4, 2)
    op = expm(np.pi * j) - np.eye(4)
    assert np.linalg.norm(op @ kern) < 1e-12
    assert lattice_kernel(j, 2.0 * np.pi).shape == (4, 4)


def test_lattice_kernel_excludes_plain_kernel(heis4deg):
    j = j_map(heis4deg, [1.0])
    kern = lattice_kernel(j, 2.0 * np.pi)
    assert kern.shape == (3, 2)
    # e3 spans ker J and must not appear.
    assert np.linalg.norm(kern.T @ np.array([0.0, 0.0, 1.0])) < 1e-12


def test_image_membership_invertible_case(heis3):
    # away from the lattice, exp(-tJ) - I is invertible: everything is a member.
    j = j_map(heis3, [1.0])
    t = 1.0
    ok, v = image_membership(j, t, np.array([1.0, 0.0]), heis3.gram_v)
    assert ok
    op = expm(-t * j) - np.eye(2)
    assert np.linalg.norm(op @ v - t * np.array([1.0, 0.0])) < 1e-12


def test_image_membership_lattice_obstruction(heis3):
    # at t = 2 pi the operator vanishes, so only x = 0 is in the image.
    j = j_map(heis3, [1.0])
    ok, v = image_membership(j, 2.0 * np.pi, np.array([1.0, 0.0]), heis3.gram_v)
    assert not ok and v is None
    ok, v = image_membership(j, 2.0 * np.pi, np.zeros(2), heis3.gram_v)
    assert ok
    assert np.linalg.norm(expm(-2.0 * np.pi * j) @ v - v) < 1e-10


def test_image_membership_partial_lattice(heis5w):
    # at t = pi the rate-2 plane is killed; vectors there are obstructed,
    # vectors in the rate-1 plane are not.
    j = j_map(heis5w, [1.0])
    ok, _ = image_membership(j, np.pi, np.array([0.0, 0.0, 1.0, 0.0]), heis5w.gram_v)
    assert not ok
    ok, v = image_membership(j, np.pi, np.array([1.0, 0.0, 0.0, 0.0]), heis5w.gram_v)
    assert ok
    op = expm(-np.pi * j) - np.eye(4)
    assert np.linalg.norm(op @ v - np.pi * np.array([1.0, 0.0, 0.0, 0.0])) < 1e-10


def test_membership_pairing_choice_independent(heis5w):
    # the pairing <J x0, v> over preimages v is what downstream consumers use;
    # shifting v by any kernel vector of exp(-tJ) - I must not change it.
    j = j_map(heis5w, [1.0])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    ok, v = image_membership(j, np.pi, x, heis5w.gram_v)
    assert ok
    kern = lattice_kernel(j, np.pi)
    base = inner_v(heis5w, j @ x, v)
    for k in range(kern.shape[1]):
        shifted = inner_v(heis5w, j @ x, v + 3.7 * kern[:, k])
        assert shifted == pytest.approx(base, abs=1e-10)


def test_center_coupling_frozen(heis3, pheis3, bicenter):
    assert center_coupling(heis3, [1.0, 0.0]) == pytest.approx(np.array([[1.0]]))
    assert center_coupling(pheis3, [1.0, 0.0]) == pytest.approx(np.array([[-1.0]]))
    a = center_coupling(bicenter, [1.0, 0.0, 0.0])
    assert a == pytest.approx(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_center_coupling_quadratic_form(name):
    # <A(z), z> = <J_z x0, J_z x0> and A is metric self-adjoint.
    alg = fixture(name)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x0 = rng.standard_normal(alg.dim_v)
        a = center_coupling(alg, x0)
        z = rng.standard_normal(alg.dim_center)
        w = rng.standard_normal(alg.dim_center)
        jx = j_map(alg, z) @ x0
        assert inner_z(alg, a @ z, z) == pytest.approx(inner_v(alg, jx, jx), abs=1e-10)
        assert inner_z(alg, a @ z, w) == pytest.approx(inner_z(alg, z, a @ w), abs=1e-10)


def test_center_coupling_matches_bracket_definition(bicenter):
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(3)
    a = center_coupling(bicenter, x0)
    for k, zb in enumerate(np.eye(2)):
        col = bracket_v(bicenter, x0, j_map(bicenter, zb) @ x0)
        assert a[:, k] == pytest.approx(col, abs=1e-12)


def test_eigen_components_reconstruct(heis5w):
    spec = spectrum(j_map(heis5w, [1.0]))
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(4)
    comp = eigen_components(spec, x0)
    total = comp.kernel.copy()
    for _, part in comp.neg + comp.pos:
        total = total + part
    assert total == pytest.approx(x0, abs=1e-12)
    # each piece really lies in its eigenspace of J^2.
    j2 = j_map(heis5w, [1.0]) @ j_map(heis5w, [1.0])
    for rate, part in comp.neg:
        assert np.linalg.norm(j2 @ part + rate * rate * part) < 1e-10


def test_eigen_components_requires_certificate(heis3):
    spec = spectrum(j_map(heis3, [1.0]))
    fake = dataclasses.replace(spec, diagonalizable=False)
    with pytest.raises(NotDiagonalizableError):
        eigen_components(fake, np.array([1.0, 0.0]))


def test_lattice_kernel_dimension_matches_full_solver(heis5w):
    # dim ker(exp(tJ) - I) restricted away from ker J equals the direct
    # nullity of exp(tJ) - I minus dim ker J; checked on a rate mixture.
    j = j_map(heis5w, [1.0])
    for t in (np.pi, 2.0 * np.pi, 1.3):
        kern = lattice_kernel(j, t)
        op = expm(t * j) - np.eye(4)
        sv = np.linalg.svd(op, compute_uv=False)
        nullity = int(np.sum(sv < 1e-9 * max(1.0, sv[0])))
        assert kern.shape[1] == nullity


def test_spectrum_empty_operator(heis3z2):
    # the inert center direction has J = 0: pure kernel spectrum.
    spec = spectrum(j_map(heis3z2, [0.0, 1.0]))
    assert not spec.neg and not spec.pos
    assert spec.zero_basis.shape[1] == 2
    assert spec.diagonalizable
    assert lattice_kernel(j_map(heis3z2, [0.0, 1.0]), 5.0, DEFAULT_TOL).shape == (2, 0)


def retired_certificate(spec, tol=DEFAULT_TOL):
    """The real-split certificate spectrum once computed: the bases of the real
    lines of J^2 and of ker J are independent and span the complement."""
    stacked = np.hstack([line.basis for line in spec.neg + spec.pos] + [spec.zero_basis])
    return bool(stacked.shape[1] == spec.dim_v
                and np.linalg.svd(stacked, compute_uv=False).min() > tol.rank_rel)


def test_diagonalizable_is_the_real_split_certificate():
    # random algebras: center of dimension 1-2, complement 2-6, diagonal gram
    # of random signs, each bracket with probability 0.6; a third of them
    # leave the last vector out of every bracket, so that J has a kernel
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p, q = int(rng.integers(1, 3)), int(rng.integers(2, 7))
        structure = np.zeros((p, q, q))
        top = q - int(rng.random() < 1.0 / 3.0)
        for a in range(top):
            for b in range(a + 1, top):
                if rng.random() < 0.6:
                    structure[:, a, b] = rng.standard_normal(p)
        alg = MetricLieAlgebra(p, q, np.diag(rng.choice([-1.0, 1.0], p + q)),
                               structure - structure.transpose(0, 2, 1))
        spec = spectrum(j_map(alg, rng.standard_normal(p)))
        assert spec.diagonalizable == retired_certificate(spec)
        if spec.diagonalizable:
            assert spec.eigenbasis is not None
