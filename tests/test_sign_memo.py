"""The sign rule of the operator product memo: ScalarOp.__mul__ writes
each operand as sigma * rep, rep the one of {A, -A} read from the value
alone, multiplies the reps through the memo and negates the product when
the signs differ.  (sigma A)(tau B) = sigma tau AB holds exactly, as +-1
commutes with d_j, Y and C, so every sign combination must give the
product formed without the memo, and a negative-energy block must reuse
the products of the positive-energy one.
"""

import gc
import random

import pytest

from oracle_helpers import structure
from poincarelab import catalog, symop
from poincarelab.exactnum import I
from poincarelab.symop import (
    BlockOp, Coefficient, Poly, ScalarOp, cache_info, clear_multiplication_cache,
)
from test_symop import _rand_scalar_op

RNG = random.Random(90731)

# the product itself, with neither the sign rule nor the memo
_raw_product = ScalarOp._product.__wrapped__


def _misses() -> int:
    return cache_info()["operator_product"].misses


def _nonzero_op(dim):
    while True:
        op = _rand_scalar_op(dim, flips=True, rng=RNG)
        if op.terms:
            return op


def _pairs(count):
    for dim in (1, 2):
        for _ in range(count):
            yield _nonzero_op(dim), _nonzero_op(dim)


@pytest.mark.parametrize("negate", [ScalarOp.__neg__, lambda op: op.scale(-1)],
                         ids=["partner", "scaled"])
def test_every_sign_combination_is_the_plain_product(negate):
    # -A by negation (the cached partner) and by scaling (a new object)
    for a, b in _pairs(8):
        signed = [(x, y) for x in (a, negate(a)) for y in (b, negate(b))]
        want = [_raw_product(x, y) for x, y in signed]
        clear_multiplication_cache()
        cold = []
        for x, y in signed:
            clear_multiplication_cache()
            cold.append(x * y)
        assert [structure(p) for p in cold] == [structure(p) for p in want]
        clear_multiplication_cache()
        warm = [signed[0][0] * signed[0][1]]
        misses = _misses()
        warm += [x * y for x, y in signed[1:]]
        assert _misses() == misses  # one product serves all four
        assert [structure(p) for p in warm] == [structure(p) for p in want]


def test_block_products_agree_with_the_entrywise_oracle():
    for a, b in _pairs(4):
        dim = a.dim
        zero = ScalarOp.zero(dim)
        left = BlockOp([[a, -a], [zero, a.scale(-1)]])
        right = BlockOp([[-b, b], [b.scale(I), -b]])
        want = []
        for row in left.entries:
            out = []
            for c in range(2):
                acc = zero
                for k, x in enumerate(row):
                    y = right.entries[k][c]
                    if x.terms and y.terms:
                        acc = acc + _raw_product(x, y)
                out.append(acc)
            want.append(out)
        clear_multiplication_cache()
        got = left * right
        assert structure(got) == structure(BlockOp(want))
        # two products: rep(A) rep(B), and rep(A) rep(iB) since iB is
        # not +-B
        assert _misses() == 2


@pytest.mark.parametrize("two_s", [1, 2])
def test_down_reuses_every_product_of_up(two_s):
    # P0 and K of down are minus those of up, P and J equal: every
    # product its Lie and Casimir rows form is up's or minus it
    clear_multiplication_cache()
    catalog.full_verification(catalog.build("up", two_s))
    misses = _misses()
    down = catalog.build("down", two_s)
    assert catalog.verify_lie_relations(down).all_passed()
    assert catalog.verify_casimirs(down).all_passed()
    assert _misses() == misses


def test_a_zero_operand_never_reaches_the_memo():
    a = _nonzero_op(2)
    zero = ScalarOp.zero(2)
    clear_multiplication_cache()
    before = cache_info()["operator_product"]
    for x, y in ((a, zero), (zero, a), (-zero, -a), (zero, zero)):
        assert (x * y).is_zero()
    assert cache_info()["operator_product"] == before


def test_the_sign_is_read_from_the_value():
    for a, _b in _pairs(6):
        s, rep = a._signed()
        t, neg_rep = (-a)._signed()
        assert s == -t and rep == neg_rep
        assert (rep is a) == (s == 1)
        fresh = a.scale(1)  # equal, in another object
        assert fresh is not a and fresh._signed() == (s, rep)
    # the leading rational: the real part, else the imaginary part
    for value, sign in ((-1, -1), (2, 1), (I, 1), (-I, -1), (I - 1, -1)):
        op = ScalarOp.from_coefficient(Coefficient.const(value), 1)
        assert op._signed()[0] == sign


def test_negation_pairs_are_built_once_and_stay_weak():
    a = _nonzero_op(2)
    assert -(-a) is a and (-a)._neg is a
    c = Coefficient(Poly.sym("p3").scale(I) + Poly.const(7919), 1, 2)
    assert -(-c) is c and -c is -c
    key = (c.num, c.a, c.b)
    neg_key = ((-c).num, c.a, c.b)
    assert key in symop._INTERNED and neg_key in symop._INTERNED
    del c
    gc.collect()
    # the pair holds only each other, so both leave the table
    assert key not in symop._INTERNED and neg_key not in symop._INTERNED


def test_products_of_negated_operands_are_entries_of_one_value():
    # the negated product shares its coefficients with every other route
    # to the same value
    a, b = next(_pairs(1))
    p = (-a) * b
    q = a * (-b)
    r = _raw_product(a, b)
    assert p.terms.keys() == q.terms.keys() == r.terms.keys()
    for key, mat in r.terms.items():
        negated = tuple(tuple(-x for x in row) for row in mat)
        assert p.terms[key] == q.terms[key] == negated
