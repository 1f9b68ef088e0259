"""Property tests of the one small-matrix helper and the one row reduction.

The matrix helpers in ``exactnum`` serve Scalar entries (spin matrices,
block patterns) and Coefficient entries (normal-form operator terms)
alike; each ring axiom below is checked over both.  ``derandomize`` makes
every run draw the same examples, so the suite keeps to seeded
randomness.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from poincarelab.commutant import _independent_subset
from poincarelab.exactnum import (
    I,
    ONE,
    ZERO,
    Scalar,
    identity_matrix,
    mat_dagger,
    mat_is_zero,
    mat_mul,
    mat_sub,
    nullspace,
)
from poincarelab.symop import Coefficient, Poly

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)

scalars = st.dictionaries(
    st.sampled_from((1, 2, 3)), st.tuples(_fractions, _fractions), max_size=2
).map(Scalar)

# monomial exponents (mu, p1, p2, p3, p0), of degree at most one per variable
_monos = st.tuples(*[st.integers(0, 1)] * 5)
coefficients = st.builds(
    lambda terms, a, b: Coefficient(Poly(terms), a, b),
    st.dictionaries(_monos, scalars, max_size=2),
    st.integers(0, 1),
    st.integers(0, 1),
)

_C_ZERO = Coefficient.zero()
_C_ONE = Coefficient.const(1)

# (entry strategy, the ring's zero, the ring's one)
RINGS = {
    "scalar": (scalars, ZERO, ONE),
    "coefficient": (coefficients, _C_ZERO, _C_ONE),
}


@st.composite
def matrices(draw, count):
    """`count` square matrices of one size over one ring, plus its 0 and 1."""
    entries, zero, one = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(1, 3))
    mats = [
        tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
        for _ in range(count)
    ]
    return mats, zero, one


def _same(a, b) -> bool:
    return mat_is_zero(mat_sub(a, b))


@SETTINGS
@given(matrices(3))
def test_product_is_associative(case):
    (a, b, c), zero, _one = case
    assert _same(mat_mul(mat_mul(a, b, zero), c, zero),
                 mat_mul(a, mat_mul(b, c, zero), zero))


@SETTINGS
@given(matrices(2))
def test_dagger_reverses_products(case):
    (a, b), zero, _one = case
    assert _same(mat_dagger(mat_mul(a, b, zero)),
                 mat_mul(mat_dagger(b), mat_dagger(a), zero))


@SETTINGS
@given(matrices(1))
def test_identity_is_neutral(case):
    (a,), zero, one = case
    ident = identity_matrix(len(a), one, zero)
    assert mat_mul(ident, a, zero) == a
    assert mat_mul(a, ident, zero) == a


@SETTINGS
@given(matrices(1))
def test_difference_with_itself_is_zero(case):
    (a,), _zero, _one = case
    assert mat_is_zero(mat_sub(a, a))


# few distinct entries, zero among them, so that dependent columns are common
_sparse_scalars = st.sampled_from(
    (ZERO, ZERO, ZERO, ONE, -ONE, Scalar.from_rational(Fraction(1, 2)),
     Scalar.sqrt_int(2), I)
)


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_rank_plus_nullity_is_the_column_count(nrows, ncols, data):
    vectors = [
        [data.draw(_sparse_scalars) for _ in range(nrows)] for _ in range(ncols)
    ]
    if data.draw(st.booleans()):  # a repeated column is always dependent
        vectors.append(list(vectors[0]))
    rows = [[v[r] for v in vectors] for r in range(nrows)]
    kept = _independent_subset(vectors)
    assert len(kept) + len(nullspace(rows, len(vectors))) == len(vectors)
    assert _independent_subset(kept) == kept
