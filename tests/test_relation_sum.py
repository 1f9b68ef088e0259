"""symop.RelationSum, the exact sum of a relation component, against the
pairwise BlockOp sum kept in oracle_helpers.

catalog._violation evaluates every exact relation through RelationSum:
each word enters as its block paths and each block entry is summed once
over its common denominator.  The pairwise sum forms a normal-form
BlockOp after every term.  Normal form is unique, so the two must agree
on every verdict and, for a nonzero sum, on the operator and its text.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings, strategies as st

from oracle_helpers import pairwise_sum, pairwise_violation
from poincarelab import catalog
from poincarelab.catalog import GENERATORS, Relation, _violation
from poincarelab.exactnum import ONE, Scalar
from poincarelab.symop import BlockOp, Coefficient, Poly, RelationSum, ScalarOp

# Each example costs several exact operator products, so a failing one
# is reported as drawn: shrinking it would take many minutes.
UNSHRUNK = settings(derandomize=True, database=None, deadline=None,
                    phases=(Phase.explicit, Phase.generate))

NAMES = GENERATORS + ("Theta", "Pi", "mu^2")


@lru_cache(maxsize=None)
def _catalog_ops(label, two_s):
    rep = catalog.build(label, two_s)
    rels = catalog.relations(rep)
    ops = catalog.operators(rep, catalog.word_names(rels) | {"mu^2"})
    return ops, tuple(c for rel in rels for c in rel.components)


gaussian = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda t: Scalar.from_rational(*t))
nonzero_gaussian = gaussian.filter(bool)
words = st.lists(st.sampled_from(NAMES), max_size=2).map(tuple)
terms = st.lists(st.tuples(gaussian, words), max_size=4)


@st.composite
def components(draw, relations):
    """(component, known): a true relation of the entry, a random sum of
    terms and their negatives in shuffled order (both known to vanish),
    or random terms (known None); a vanishing one may be corrupted by
    one extra term with a nonzero coefficient (known not to vanish)."""
    kind = draw(st.sampled_from(("relation", "cancelling", "random")))
    if kind == "relation":
        comp, known = list(draw(st.sampled_from(relations))), True
    elif kind == "cancelling":
        half = draw(terms)
        comp = half + [(-c, w) for c, w in half]
        random.Random(draw(st.integers(0, 2**16))).shuffle(comp)
        known = True
    else:
        return tuple(draw(terms)), None
    if draw(st.booleans()):
        extra = (draw(nonzero_gaussian), draw(words))
        comp.insert(draw(st.integers(0, len(comp))), extra)
        known = False
    return tuple(comp), known


@st.composite
def cases(draw):
    two_s = draw(st.sampled_from((1, 0)))
    label = draw(st.sampled_from(catalog.catalog_labels(two_s)))
    ops, relations = _catalog_ops(label, two_s)
    drawn = draw(st.lists(components(relations), min_size=1, max_size=3))
    return ops, drawn


def _accumulate(component, ops) -> RelationSum:
    g = ops["P0"]
    acc = RelationSum(g.blocks, g.dim)
    for coeff, word in component:
        acc.add(coeff, [ops[name] for name in word])
    return acc


@settings(UNSHRUNK, max_examples=100)
@given(cases())
def test_relation_sum_matches_pairwise_oracle(case):
    ops, drawn = case
    for component, known in drawn:
        total = _accumulate(component, ops).block_op()
        oracle = pairwise_sum(component, ops)
        assert total.is_zero() == oracle.is_zero()
        if known is not None:
            assert total.is_zero() == known
        assert total == oracle
        assert repr(total) == repr(oracle)
    rel = Relation("drawn", "test", tuple(c for c, _known in drawn))
    assert _violation(rel, ops) == pairwise_violation(rel, ops)


def _single(c: Coefficient, dim: int = 1) -> BlockOp:
    return BlockOp([[ScalarOp.from_coefficient(c, dim)]])


MU, P0 = Poly.sym("mu"), Poly.sym("p0")


def _lifted_ops(**changes):
    """1/p0, 1/(mu+p0) and (mu+2p0)/(p0(mu+p0)), their sum with signs
    (1, 1, -1) zero on the shell; changes replaces named operators."""
    ops = {
        "P0": _single(Coefficient(P0)),
        "A": _single(Coefficient(Poly.const(1), 1, 0)),
        "B": _single(Coefficient(Poly.const(1), 0, 1)),
        "C": _single(Coefficient(MU + P0 + P0, 1, 1)),
    }
    ops.update(changes)
    return ops


LIFTED = ((ONE, ("A",)), (ONE, ("B",)), (-ONE, ("C",)))


def test_lifted_denominators_cancel():
    # each numerator is lifted onto p0*(mu+p0) before the sum reads zero
    ops = _lifted_ops()
    assert _accumulate(LIFTED, ops).block_op().is_zero()
    assert _violation(Relation("lifted", "test", (LIFTED,)), ops) == ""
    # in another order, and twice over with the words in other words
    swapped = _lifted_ops(A=ops["B"], B=ops["A"])
    assert _accumulate(LIFTED[::-1] + LIFTED, swapped).block_op().is_zero()


@pytest.mark.parametrize("perturb", [
    lambda ops, comp: (ops, ((ONE + ONE, ("A",)),) + comp[1:]),
    lambda ops, comp: (ops, comp[:1] + ((-ONE, ("B",)),) + comp[2:]),
    lambda ops, comp: (ops, comp[:2] + ((Scalar.from_rational(-1, 1), ("C",)),)),
    lambda ops, comp: (ops, comp + ((ONE, ()),)),
    lambda ops, comp: (_lifted_ops(A=_single(Coefficient(Poly.const(1), 2, 0))),
                       comp),
    lambda ops, comp: (_lifted_ops(B=_single(Coefficient(Poly.const(1), 0, 2))),
                       comp),
    lambda ops, comp: (_lifted_ops(C=_single(Coefficient(MU + P0, 1, 1))), comp),
], ids=["A-doubled", "B-negated", "C-complex", "identity-added",
        "A-over-p0^2", "B-over-(mu+p0)^2", "C-numerator"])
def test_lifted_denominators_perturbed(perturb):
    ops, comp = perturb(_lifted_ops(), LIFTED)
    rel = Relation("lifted", "test", (comp,))
    total = _accumulate(comp, ops).block_op()
    assert not total.is_zero()
    assert total == pairwise_sum(comp, ops)
    text = _violation(rel, ops)
    assert text.startswith("component 1: residual ")
    assert text == pairwise_violation(rel, ops)


def test_distinct_radicands_do_not_cancel():
    # sqrt(2)*X and X sit at one monomial; only the radicand keeps them
    # apart, and sqrt(2)*sqrt(2) is the rational 2
    root2 = Scalar.sqrt_int(2)
    ops = {"P0": _single(Coefficient(P0), 2),
           "S": _single(Coefficient(Poly.const(root2), 0, 1), 2),
           "X": _single(Coefficient(Poly.const(1), 0, 1), 2)}
    assert not _accumulate(((ONE, ("S",)), (-ONE, ("X",))),
                           ops).block_op().is_zero()
    two = Scalar.from_rational(2)
    comp = ((ONE, ("S", "S")), (-two, ("X", "X")))
    assert _accumulate(comp, ops).block_op().is_zero()
    for bad in (((ONE, ("S",)), (-ONE, ("X",))),
                ((ONE, ("S", "X")), (-ONE, ("X", "X")))):
        rel = Relation("surd", "test", (bad,))
        assert _violation(rel, ops) == pairwise_violation(rel, ops) != ""


def test_empty_component_holds():
    ops = _lifted_ops()
    assert RelationSum(1, 1).block_op().is_zero()
    assert RelationSum(2, 3).block_op() == BlockOp.zero(2, 3)
    assert _violation(Relation("empty", "test", ((),)), ops) == ""
    assert _violation(Relation("empty", "test", ((), LIFTED[:1])), ops) \
        == pairwise_violation(Relation("e", "t", ((), LIFTED[:1])), ops) != ""


def test_weights_and_shapes_are_checked():
    acc = RelationSum(1, 1)
    with pytest.raises(ValueError, match="Gaussian rational"):
        acc.add(Scalar.sqrt_int(2), [_single(Coefficient(P0))])
    with pytest.raises(ValueError, match="shape"):
        acc.add(ONE, [_single(Coefficient(P0), 2)])
