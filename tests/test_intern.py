"""Hash-consed coefficients: every Coefficient constructor returns the
one live object of its value, so equality is identity.

Equal values built by different routes must be the same object; identity
must agree with the structural equality it replaced (kept in
oracle_helpers as the oracle); copies and pickles must stay interned; no
arithmetic may write into its operands, which now share their
coefficients with every holder of the same value; and the table must be
weak, so values nothing holds any more leave it.
"""

import copy
import gc
import pickle

from hypothesis import given, settings, strategies as st

from oracle_helpers import coefficients_equal, structure
from poincarelab import catalog, symop
from poincarelab.exactnum import I, Scalar, rat
from poincarelab.symop import BlockOp, Coefficient, Poly, ScalarOp, cache_info

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_scalars = st.dictionaries(
    st.sampled_from((1, 2)), st.tuples(_fractions, _fractions), max_size=2
).map(Scalar)
_monos = st.tuples(*[st.integers(0, 1)] * 5)
coefficients = st.builds(
    lambda terms, a, b: Coefficient(Poly(terms), a, b),
    st.dictionaries(_monos, _scalars, max_size=3),
    st.integers(0, 2),
    st.integers(0, 2),
)

X = Coefficient(Poly.sym("p1") * Poly.sym("p0") + Poly.const(rat(2, 3)), 1, 1)


def test_equal_values_by_different_routes_are_one_object():
    assert -(-X) is X
    assert X.scale(1) is X
    assert X.scale(rat(3)).scale(rat(1, 3)) is X
    assert X.conjugate().conjugate() is X
    assert X.scale(I).conjugate() is X.scale(-I)
    assert X.reflect().reflect() is X
    assert Coefficient(X.num, X.a, X.b) is X
    # before and after cancelling p0 and (mu+p0) by exact division
    assert Coefficient(X.lifted(X.a + 2, X.b + 1), X.a + 2, X.b + 1) is X
    assert (X - X) is Coefficient.zero() is Coefficient(Poly(), 3, 2)


def test_products_in_either_order_share_their_entries():
    # A*B and B*A are different memo keys, computed apart, but commuting
    # factors give entries that are the same objects
    a = ScalarOp.from_coefficient(X, 2)
    b = catalog.momentum_op(2, 2) + catalog.energy_op(2)
    ab, ba = a * b, b * a
    assert ab is not ba and ab.terms.keys() == ba.terms.keys()
    for key in ab.terms:
        for row_ab, row_ba in zip(ab.terms[key], ba.terms[key]):
            assert all(x is y for x, y in zip(row_ab, row_ba))


def test_copies_and_pickles_stay_interned():
    assert copy.copy(X) is X
    assert copy.deepcopy(X) is X
    assert copy.deepcopy((X, [X]))[1][0] is X
    assert pickle.loads(pickle.dumps(X)) is X


@SETTINGS
@given(coefficients, coefficients)
def test_arithmetic_leaves_its_operands_unchanged(x, y):
    a = ScalarOp.from_coefficient(x, 2) + ScalarOp.deriv_op(1, 2).scale(y)
    b = ScalarOp.deriv_op(2, 2).scale(x * y) + ScalarOp.reflection(2)
    blocks = (BlockOp([[a, b], [b.adjoint(), a]]),
              BlockOp([[b, ScalarOp.zero(2)], [a, a.scale(I)]]))
    antilinear = b * ScalarOp.conjugation(2)
    operands = (x, y, a, b, antilinear) + blocks
    before = [structure(v) for v in operands]
    for c, d in ((x, y), (y, x), (x, x)):
        [c + d, c - d, c * d, -c, c.scale(rat(3, 2)), c.scale(I),
         c.conjugate(), c.reflect(), c.deriv(1), c.deriv(3)]
    for f, g in ((a, b), (b, a), (a, a)) + (blocks, blocks[::-1]):
        [f + g, f - g, f * g, -f, f.scale(rat(-2)), f.scale(x), f.adjoint()]
    [antilinear * a, a * antilinear, antilinear * antilinear, -antilinear]
    assert [structure(v) for v in operands] == before


@SETTINGS
@given(coefficients, coefficients)
def test_identity_agrees_with_structural_equality(x, y):
    assert (x is y) == (x == y) == coefficients_equal(x, y)
    routes = [(x + y) - y, (x - y) + y, -(-x), x.scale(rat(2)).scale(rat(1, 2)),
              x.conjugate().conjugate(), x.reflect().reflect()]
    for z in routes:
        assert coefficients_equal(z, x)
        assert z is x
    assert x * y is y * x
    assert (x + y).deriv(2) is x.deriv(2) + y.deriv(2)
    assert hash(x * y) == hash(y * x)


def test_the_table_is_weak():
    symop.clear_multiplication_cache()
    gc.collect()
    before = cache_info()["interned_coefficients"]
    assert before == len(symop._INTERNED) > 0
    made = [Coefficient(Poly.sym("p2").scale(rat(k, 997)), k % 3, k % 2)
            for k in range(1, 201)]
    products = [c * d for c, d in zip(made, made[1:])]
    assert cache_info()["interned_coefficients"] >= before + 200
    del made, products
    # the product memo still holds its operands and results
    assert cache_info()["interned_coefficients"] >= before + 200
    symop.clear_multiplication_cache()
    gc.collect()
    assert cache_info()["interned_coefficients"] == before


_polys = st.dictionaries(_monos, _scalars, max_size=3).map(Poly)


@SETTINGS
@given(_scalars, _polys, coefficients)
def test_negation_is_scaling_by_minus_one(s, p, x):
    # Scalar and Poly negations skip the zero-term test, which no negated
    # term can fail
    for v, negated, scaled in ((s, -s, s * -1), (p, -p, p.scale(-1)),
                               (x, -x, x.scale(-1))):
        assert negated == scaled and -negated == v
    assert all(re or im for re, im in (-s).terms.values())
    assert all((-p).terms.values())
    assert all((-x).num.terms.values())
    assert -x is x.scale(-1) and -(-x) is x


def test_every_route_to_zero_is_the_one_zero():
    # Coefficient.is_zero reads identity with symop._C_ZERO, so each zero
    # must be that object, whatever built it
    zero = symop._C_ZERO
    y = X.reflect().scale(I)
    routes = [Coefficient(Poly()), Coefficient(Poly(), 2, 1), Coefficient.zero(),
              Coefficient.const(0), X - X, X + -X, y - y, -X + X, X * zero,
              zero * X, X.scale(0), X.scale(rat(0)), -zero, zero.scale(rat(5)),
              zero.conjugate(), zero.reflect(), Coefficient.const(rat(7, 3)).deriv(2),
              Coefficient.sym("mu").deriv(1), Coefficient.sym("p2").deriv(1),
              zero.deriv(3)]
    for z in routes:
        assert z is zero and z.is_zero()
    nonzero = [X, -X, X.scale(I), X.conjugate(), X.reflect(), X.deriv(1), X * X]
    assert not any(c.is_zero() for c in nonzero)
