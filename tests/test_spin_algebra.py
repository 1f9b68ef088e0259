"""Spin matrices, the flip matrix tau, and the Schur property."""

import time
from fractions import Fraction

import numpy as np
import pytest
from oracle_helpers import check_spin_invariants

from poincarelab.exactnum import (
    I,
    ONE,
    ZERO,
    commutant_rows,
    hermitian_matrix,
    identity_matrix,
    mat_conj,
    mat_dagger,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    nullspace,
    rat,
)
from poincarelab.spin_algebra import (
    SpinWeight,
    spin_commutant_dimension,
    spin_matrices,
    spin_squared,
    tau_matrix,
)


def _to_numpy(mat):
    return np.array([[x.to_complex() for x in row] for row in mat])


def test_weight_basics():
    w = SpinWeight(3)
    assert w.dim == 4
    assert w.casimir == Fraction(15, 4)
    assert w.m_values() == [Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2)]
    with pytest.raises(ValueError):
        SpinWeight(-1)


def test_half_spin_is_pauli_over_two():
    t = spin_matrices(1)
    np.testing.assert_allclose(_to_numpy(t.s1), [[0, 0.5], [0.5, 0]])
    np.testing.assert_allclose(_to_numpy(t.s2), [[0, -0.5j], [0.5j, 0]])
    np.testing.assert_allclose(_to_numpy(t.s3), [[0.5, 0], [0, -0.5]])


def test_spin_one_matrices():
    t = spin_matrices(2)
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(_to_numpy(t.s1), [[0, r, 0], [r, 0, r], [0, r, 0]])
    np.testing.assert_allclose(_to_numpy(t.s3), np.diag([1, 0, -1]))


@pytest.mark.parametrize("two_s", range(5))
def test_commutation_and_casimir(two_s):
    check_spin_invariants(two_s)
    dim = two_s + 1
    expected = mat_scale(rat(two_s * (two_s + 2), 4), identity_matrix(dim))
    assert mat_eq(spin_squared(two_s), expected)


@pytest.mark.parametrize("two_s", range(5))
def test_spin_matrices_hermitian(two_s):
    t = spin_matrices(two_s)
    for s in t.as_tuple():
        assert mat_eq(mat_dagger(s), s)


@pytest.mark.parametrize("two_s", range(5))
def test_tau_flips_conjugated_spin(two_s):
    tau = tau_matrix(two_s).mat
    dim = two_s + 1
    # tau is real and unitary
    assert mat_eq(mat_conj(tau), tau)
    assert mat_eq(mat_mul(tau, mat_dagger(tau)), identity_matrix(dim))
    for s in spin_matrices(two_s).as_tuple():
        lhs = mat_mul(mat_mul(tau, mat_conj(s)), mat_dagger(tau))
        assert mat_eq(lhs, mat_scale(rat(-1), s))
    # tau * conj(tau) = (-1)^(2s)
    sign = identity_matrix(dim) if two_s % 2 == 0 else mat_scale(rat(-1), identity_matrix(dim))
    assert mat_eq(mat_mul(tau, mat_conj(tau)), sign)


@pytest.mark.parametrize("two_s", [0, 1, 2, 3, 4, 12, 16])
def test_spin_commutant_is_trivial(two_s):
    assert spin_commutant_dimension(two_s) == 1


def test_spin_commutant_solve_is_fast_at_high_spin():
    # the 962 x 169 sparse system at two_s = 12 takes about 0.02 s
    spin_commutant_dimension.cache_clear()
    start = time.perf_counter()
    assert spin_commutant_dimension(12) == 1
    assert time.perf_counter() - start < 0.5


def _commutant_dimension(mats, dim):
    rows = commutant_rows(tuple((m, False) for m in mats), dim)
    return len(nullspace(rows, dim * dim))


@pytest.mark.parametrize("two_s", range(7))
def test_shared_commutant_builder_on_spin_matrices(two_s):
    # the block solver's rows, run on the spin matrices: the triple and
    # S1 with S3 leave the multiples of the identity, while S3 alone
    # leaves every diagonal matrix
    s1, s2, s3 = spin_matrices(two_s).as_tuple()
    dim = two_s + 1
    assert _commutant_dimension((s1, s2, s3), dim) == 1
    assert _commutant_dimension((s3,), dim) == dim
    assert _commutant_dimension((s1, s3), dim) == 1
    diagonal = nullspace(commutant_rows(((s3, False),), dim), dim * dim)
    assert [hermitian_matrix(v, dim) for v in diagonal] == [
        tuple(tuple(ONE if r == c == k else ZERO for c in range(dim))
              for r in range(dim))
        for k in range(dim)
    ]


def test_ladder_entries_match_formula():
    # S+ entry (k, k+1) is sqrt((s-m)(s+m+1)) for the source state m
    t = spin_matrices(3)
    splus = _to_numpy(t.s1) + 1j * _to_numpy(t.s2)
    s = 1.5
    ms = [float(m) for m in t.weight.m_values()]
    for k in range(3):
        m = ms[k + 1]
        assert splus[k, k + 1] == pytest.approx(np.sqrt((s - m) * (s + m + 1)))
