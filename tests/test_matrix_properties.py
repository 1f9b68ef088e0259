"""Property tests of the exact rings, the one small-matrix helper and the
one row reduction.

The matrix helpers in ``exactnum`` serve Scalar entries (spin matrices,
block patterns) and Coefficient entries (normal-form operator terms)
alike; each ring axiom below is checked over both.  The sparse
``mat_mul`` is checked against the dense triple loop it replaced, kept
here as the oracle.  The Coefficient normal form and the ScalarOp
product and adjoint are checked on their own ring laws, compared
structurally, and the term-by-term difference of every ring against the
sum with a negated copy it replaced.  ``derandomize`` makes every run
draw the same examples, so the suite keeps to seeded randomness.
"""

import copy
from fractions import Fraction

from hypothesis import Phase, assume, given, settings, strategies as st

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
from poincarelab.symop import BlockOp, Coefficient, Poly, ScalarOp

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

_C_ZERO = Coefficient(Poly())
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


def dense_mat_mul(a, b, zero):
    """The triple loop mat_mul used before it went row-sparse: every entry
    summed over k in ascending order from zero, zero factors skipped."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = zero
            for k in range(inner):
                x, y = a[r][k], b[k][c]
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@st.composite
def zero_heavy_pairs(draw):
    """Two conformable matrices over one ring, any shapes up to 4, most
    entries zero and some whole rows and columns zero."""
    entries, zero, _one = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    cell = st.one_of(st.just(zero), st.just(zero), entries)
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        dead_rows = draw(st.sets(st.integers(0, rows - 1)))
        dead_cols = draw(st.sets(st.integers(0, cols - 1)))
        return tuple(
            tuple(zero if r in dead_rows or c in dead_cols else draw(cell)
                  for c in range(cols))
            for r in range(rows)
        )

    return matrix(n, k), matrix(k, m), zero


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(zero_heavy_pairs())
def test_sparse_product_matches_dense(case):
    a, b, zero = case
    assert mat_mul(a, b, zero) == dense_mat_mul(a, b, zero)


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
    rows = [{j: v[r] for j, v in enumerate(vectors) if v[r]}
            for r in range(nrows)]
    sparse = [{r: x for r, x in enumerate(v) if x} for v in vectors]
    kept = _independent_subset(sparse)
    assert len(kept) + len(nullspace(rows, len(vectors))) == len(vectors)
    assert _independent_subset(kept) == kept


# -- Coefficient normal form ------------------------------------------------
# The normal form is unique, so equal rational functions must compare
# equal structurally whatever order of operations built them.


@SETTINGS
@given(coefficients, coefficients, coefficients)
def test_coefficient_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@SETTINGS
@given(coefficients, coefficients)
def test_coefficient_difference_undoes_sum(a, b):
    assert (a + b) - b == a


@SETTINGS
@given(coefficients, coefficients, st.integers(1, 3))
def test_coefficient_leibniz_rule(a, b, j):
    assert (a * b).deriv(j) == a.deriv(j) * b + a * b.deriv(j)


# -- ScalarOp products and adjoints ------------------------------------------


@st.composite
def linear_ops(draw, dim, max_terms=2):
    """A linear ScalarOp of up to max_terms terms, each with at most one
    derivative."""
    op = ScalarOp.zero(dim)
    for _ in range(draw(st.integers(1, max_terms))):
        alpha = [0, 0, 0]
        axis = draw(st.integers(-1, 2))
        if axis >= 0:
            alpha[axis] = 1
        mat = tuple(tuple(draw(coefficients) for _ in range(dim))
                    for _ in range(dim))
        op = op + ScalarOp(dim, {(tuple(alpha), 0, 0): mat})
    return op


def _bracket(x, y):
    return x * y - y * x


# Each example costs several exact operator products, so a failing one
# is reported as drawn: shrinking it would take many minutes.
UNSHRUNK = settings(derandomize=True, database=None, deadline=None,
                    phases=(Phase.explicit, Phase.generate))


@settings(UNSHRUNK, max_examples=15)
@given(st.integers(1, 2).flatmap(
    lambda dim: st.tuples(*[linear_ops(dim, max_terms=1)] * 3)))
def test_operator_jacobi_identity(ops):
    a, b, c = ops
    jacobi = (_bracket(a, _bracket(b, c)) + _bracket(b, _bracket(c, a))
              + _bracket(c, _bracket(a, b)))
    assert jacobi.is_zero()


@settings(UNSHRUNK, max_examples=25)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(*[linear_ops(dim)] * 2)))
def test_operator_adjoint_reverses_products(ops):
    a, b = ops
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


# -- differences ----------------------------------------------------------------
# Each ring subtracts term by term, negating only the terms of the right
# operand that the left lacks.  The result must be structurally the sum
# with a negated copy, the form it replaced, and leave both operands as
# they were.

polys = st.dictionaries(_monos, scalars, max_size=3).map(Poly)

# denominators up to p0^2 (mu+p0)^2, so that operands with different
# denominators are scaled to a common one
coefficients_2 = st.builds(
    lambda terms, a, b: Coefficient(Poly(terms), a, b),
    st.dictionaries(_monos, scalars, max_size=2),
    st.integers(0, 2),
    st.integers(0, 2),
)

# term keys (alpha, u, k) over a few derivatives, Y and C
_op_keys = st.tuples(
    st.sampled_from(((0, 0, 0), (1, 0, 0), (0, 0, 1))),
    st.integers(0, 1),
    st.integers(0, 1),
)


def scalar_ops(dim):
    return st.dictionaries(
        _op_keys,
        st.tuples(*[st.tuples(*[coefficients] * dim)] * dim),
        max_size=3,
    ).map(lambda terms: ScalarOp(dim, terms))


def block_ops(blocks, dim):
    return st.tuples(*[st.tuples(*[scalar_ops(dim)] * blocks)] * blocks).map(BlockOp)


def _check_difference(a, b):
    a_before, b_before = copy.deepcopy(a), copy.deepcopy(b)
    assert a - b == a + (-b)
    assert b - a == b + (-a)
    assert (a - a).is_zero() and (b - b).is_zero()
    assert a == a_before and b == b_before


@SETTINGS
@given(scalars, scalars)
def test_scalar_difference_is_sum_with_negation(a, b):
    _check_difference(a, b)


@SETTINGS
@given(polys, polys)
def test_poly_difference_is_sum_with_negation(a, b):
    _check_difference(a, b)


# a point on the mass shell, (mu, p1, p2, p3, p0), where the value of a
# difference is checked against the difference of values
_MU, _P = 1.3, (0.4, -0.7, 1.1)
_SHELL_POINT = (_MU, *_P, (_MU**2 + sum(x * x for x in _P)) ** 0.5)


@SETTINGS
@given(coefficients_2, coefficients_2)
def test_coefficient_difference_is_sum_with_negation(a, b):
    assume((a.a, a.b) != (b.a, b.b))
    _check_difference(a, b)
    value = (a - b).eval(*_SHELL_POINT)
    assert abs(value - (a.eval(*_SHELL_POINT) - b.eval(*_SHELL_POINT))) < 1e-9


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(*[scalar_ops(dim)] * 2)))
def test_operator_difference_is_sum_with_negation(ops):
    a, b = ops
    assume(set(b.terms) - set(a.terms))
    _check_difference(a, b)


@settings(SETTINGS, max_examples=15)
@given(st.tuples(*[block_ops(2, 1)] * 2))
def test_block_difference_is_sum_with_negation(ops):
    _check_difference(*ops)
