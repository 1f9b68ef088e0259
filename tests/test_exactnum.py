"""Exact scalar field and matrix helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poincarelab.exactnum import (
    I,
    ONE,
    ZERO,
    Scalar,
    identity_matrix,
    mat_dagger,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_sub,
    nullspace,
    rat,
    squarefree_split,
    zero_matrix,
)

RNG = random.Random(20518)


def _rand_scalar(allow_zero=False):
    terms = {}
    for n in (1, 2, 3):
        if RNG.random() < 0.6:
            terms[n] = (
                Fraction(RNG.randint(-6, 6), RNG.randint(1, 5)),
                Fraction(RNG.randint(-6, 6), RNG.randint(1, 5)),
            )
    s = Scalar(terms)
    if not allow_zero and s.is_zero():
        return ONE
    return s


@pytest.mark.parametrize(
    "n,expected",
    [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (18, (3, 2)), (49, (7, 1)), (360, (6, 10))],
)
def test_squarefree_split(n, expected):
    assert squarefree_split(n) == expected


def test_sqrt_int_normal_form():
    assert Scalar.sqrt_int(12).terms == {3: (Fraction(2), Fraction(0))}
    assert Scalar.sqrt_int(49) == rat(7)
    assert Scalar.sqrt_int(0) == ZERO


def test_arithmetic_matches_complex():
    for _ in range(200):
        a, b = _rand_scalar(allow_zero=True), _rand_scalar(allow_zero=True)
        za, zb = a.to_complex(), b.to_complex()
        assert abs((a + b).to_complex() - (za + zb)) < 1e-12
        assert abs((a - b).to_complex() - (za - zb)) < 1e-12
        assert abs((a * b).to_complex() - (za * zb)) < 1e-10


def test_exact_inverse():
    samples = [
        ONE + Scalar.sqrt_int(2),
        Scalar.sqrt_int(2) + Scalar.sqrt_int(3) + I,
        rat(3, 7) * Scalar.sqrt_int(5) - rat(2) * I * Scalar.sqrt_int(3),
        rat(-5, 3),
        I,
    ]
    for _ in range(30):
        samples.append(_rand_scalar())
    for s in samples:
        assert s * s.inverse() == ONE
        assert (ONE / s) * s == ONE


# squarefree radicands over the primes 2, 3, 5 and 7, with complex
# rational coefficients: inverse() peels one prime per recursion level
_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)
field_scalars = st.dictionaries(
    st.sampled_from((1, 2, 3, 5, 6, 7, 10, 15, 21, 30, 35, 210)),
    st.tuples(_coefficients, _coefficients),
    max_size=4,
).map(Scalar)
FIELD_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                          max_examples=60)


@FIELD_SETTINGS
@given(field_scalars)
def test_inverse_is_two_sided(x):
    assume(not x.is_zero())
    assert x * x.inverse() == ONE
    assert x.inverse() * x == ONE


@FIELD_SETTINGS
@given(field_scalars, field_scalars)
def test_inverse_of_product(a, b):
    assume(not (a.is_zero() or b.is_zero()))
    assert (a * b).inverse() == a.inverse() * b.inverse()


@FIELD_SETTINGS
@given(field_scalars, field_scalars, field_scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_field_identities():
    for _ in range(50):
        a, b, c = _rand_scalar(True), _rand_scalar(True), _rand_scalar(True)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_real_imag_split():
    for _ in range(20):
        s = _rand_scalar(True)
        re, im = s.real_imag()
        assert re.is_real() and im.is_real()
        assert re + I * im == s


def test_rationality_predicates():
    assert rat(2, 3).is_real()
    assert not (rat(1) + I).is_real()
    assert Scalar.sqrt_int(2).is_real()


def _rand_matrix(n):
    return tuple(tuple(_rand_scalar(True) for _ in range(n)) for _ in range(n))


def test_matrix_algebra():
    for _ in range(10):
        a, b, c = _rand_matrix(3), _rand_matrix(3), _rand_matrix(3)
        assert mat_eq(mat_mul(mat_mul(a, b), c), mat_mul(a, mat_mul(b, c)))
        assert mat_eq(mat_mul(a, identity_matrix(3)), a)
        assert mat_eq(mat_dagger(mat_dagger(a)), a)
        assert mat_eq(
            mat_dagger(mat_mul(a, b)), mat_mul(mat_dagger(b), mat_dagger(a))
        )
    assert mat_is_zero(zero_matrix(2))


def _apply_rows(rows, vec):
    out = []
    for row in rows:
        acc = ZERO
        for r, v in zip(row, vec):
            acc = acc + r * v
        out.append(acc)
    return out


def test_nullspace_known_system():
    # x1 + x2 = 0, x3 - x4 = 0 in 4 unknowns: nullity 2
    rows = [
        [ONE, ONE, ZERO, ZERO],
        [ZERO, ZERO, ONE, -ONE],
    ]
    basis = nullspace(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        assert all(x.is_zero() for x in _apply_rows(rows, vec))


def test_nullspace_full_rank_and_degenerate():
    rows = [[ONE, ZERO], [ZERO, ONE]]
    assert nullspace(rows, 2) == []
    assert len(nullspace([], 3)) == 3


def test_nullspace_with_radicals():
    rows = [[ONE, Scalar.sqrt_int(2)]]
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    vec = basis[0]
    assert (vec[0] + Scalar.sqrt_int(2) * vec[1]).is_zero()
    assert any(not x.is_zero() for x in vec)


def test_random_nullspace_consistency():
    for _ in range(10):
        nrows, ncols = RNG.randint(1, 4), RNG.randint(2, 5)
        rows = [[_rand_scalar(True) for _ in range(ncols)] for _ in range(nrows)]
        for vec in nullspace(rows, ncols):
            assert all(x.is_zero() for x in _apply_rows(rows, vec))
