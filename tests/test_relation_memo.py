"""The relation verdict memo (symop.relation_residual) is keyed by value:
a warm memo gives every verdict a cold one gives, entries with equal
operators share their rows, and equal operators held in distinct
objects get the identical result.  The Pauli-Lubanski vector is formed by the same memo:
W must equal the chained BlockOp sums of oracle_helpers, W0 must be the
zero operator at spin 0, an altered spec must get a W of its own, and an
entry with equal generators must form no new sum.
"""

import dataclasses

import pytest

from oracle_helpers import chained_pauli_lubanski
from poincarelab import catalog, localization
from poincarelab.catalog import boost_op, build, momentum_op, pauli_lubanski
from poincarelab.exactnum import I, ONE, Scalar, ZERO
from poincarelab.symop import (
    BlockOp, Coefficient, Poly, ScalarOp, cache_info, clear_multiplication_cache,
    relation_residual,
)


def _times_coeff(c, op, dim):
    return ScalarOp.from_coefficient(c, dim) * op


def _criterion_8_controls():
    """The negative controls of criterion 8 (tests/test_acceptance.py),
    each a suite run on a corrupted spec or position triple."""
    rep = build("up", 1)
    dim = rep.dim
    i_p0 = Coefficient(Poly.sym("p0").scale(I))
    bad_k1 = BlockOp([[_times_coeff(i_p0, ScalarOp.deriv_op(1, dim), dim)]])
    orbital_j3 = BlockOp([[
        _times_coeff(Coefficient(Poly.sym("p1").scale(-I)),
                     ScalarOp.deriv_op(2, dim), dim)
        + _times_coeff(Coefficient(Poly.sym("p2").scale(I)),
                       ScalarOp.deriv_op(1, dim), dim)]])
    no_spin_j = dataclasses.replace(rep, j=(rep.j[0], rep.j[1], orbital_j3))
    # bare i*d_j, without the measure counterterm, is not self-adjoint
    bare = tuple(BlockOp([[ScalarOp.deriv_op(a, 1).scale(I)]])
                 for a in (1, 2, 3))
    return [
        catalog.verify_lie_relations(
            dataclasses.replace(rep, k=(bad_k1, rep.k[1], rep.k[2]))),
        catalog.verify_casimirs(no_spin_j),
        catalog.verify_lie_relations(no_spin_j),
        localization.verify_position_axioms(build("up", 0), bare),
    ]


def _broken_specs():
    """The broken specs of tests/test_catalog.py, each through its suite."""
    up, sym1 = build("up", 1), build("sym1", 0)
    theta = BlockOp.diag([momentum_op(1, 1), ScalarOp.identity(1)])
    return [
        catalog.verify_discrete_relations(dataclasses.replace(
            up, k=(up.k[0], up.k[1] + up.p[0], up.k[2]))),
        *(catalog.verify_discrete_relations(
            dataclasses.replace(sym1, theta=sym1.theta.scale(factor)))
          for factor in (I, Scalar.sqrt_int(2))),
        catalog.verify_discrete_relations(dataclasses.replace(sym1, theta=theta)),
        catalog.full_verification(dataclasses.replace(
            build("newup:symplectic", 0), theta=build("newup:identity", 0).theta)),
    ]


def _rows(reports):
    return [[(c.name, c.status, c.detail) for c in r.checks] for r in reports]


def test_warm_memo_gives_the_cold_verdicts():
    clear_multiplication_cache()
    cold = _rows(_criterion_8_controls() + _broken_specs())
    clear_multiplication_cache()
    for label, two_s in (("up", 1), ("up", 0), ("sym1", 0), ("quad:+1", 0)):
        assert catalog.full_verification(build(label, two_s)).all_passed()
    before = cache_info()["relation_verdict"]
    warm = _rows(_criterion_8_controls() + _broken_specs())
    assert cache_info()["relation_verdict"].hits > before.hits
    assert warm == cold
    # every corruption fails some row; the spec with newup:identity's
    # Theta is a valid one and passes
    failing = [any(status == "fail" for _n, status, _d in rows) for rows in warm]
    assert failing == [True] * (len(warm) - 1) + [False]


def test_entries_with_equal_operators_share_verdicts():
    # sym1 and sym2 have the same generators: every Lie row is one
    # evaluation
    clear_multiplication_cache()
    catalog.full_verification(build("sym1", 1))
    before = cache_info()["relation_verdict"]
    report = catalog.verify_lie_relations(build("sym2", 1))
    after = cache_info()["relation_verdict"]
    assert len(report.checks) == 45 and report.all_passed()
    assert (after.hits - before.hits, after.misses) == (45, before.misses)


def test_equal_values_share_one_result():
    g = boost_op(1, 1)

    def make():
        return BlockOp.diag([g, ScalarOp(g.dim, dict(g.terms)).scale(-1)])

    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.factor() == b.factor()
    pattern, lead = a.factor()
    assert lead == g and pattern == ((ONE, ZERO), (ZERO, -ONE))
    # and one residual: a + a is not zero, and a - b is
    residual = relation_residual(2, 2, ((ONE, (a,)), (ONE, (a,))))
    assert residual is relation_residual(2, 2, ((ONE, (b,)), (ONE, (b,))))
    assert residual == a.scale(2)
    assert relation_residual(2, 2, ((ONE, (a,)), (-ONE, (b,)))) is None


@pytest.mark.parametrize("two_s", [0, 1, 2])
def test_pauli_lubanski_matches_the_chained_sums(two_s):
    clear_multiplication_cache()
    for rep in (build(label, two_s) for label in catalog.catalog_labels(two_s)):
        w = pauli_lubanski(rep)
        assert w == chained_pauli_lubanski(rep), rep.label
        if two_s == 0:
            # P.J = P.(-i p x grad) vanishes without spin
            assert w[0] == BlockOp.zero(rep.blocks, rep.dim)
        else:
            assert not any(wa.is_zero() for wa in w)


def test_pauli_lubanski_of_an_altered_spec_is_its_own():
    rep = build("sym1", 1)
    bad = dataclasses.replace(rep, k=(rep.k[0], rep.k[1] + rep.p[0], rep.k[2]))
    w, w_bad = pauli_lubanski(rep), pauli_lubanski(bad)
    assert w_bad == chained_pauli_lubanski(bad)
    # W0 = P.J reads no K and W2 reads K1 and K3; W1 and W3 read K2
    assert [a == b for a, b in zip(w, w_bad)] == [True, False, True, False]
    assert not catalog.verify_casimirs(bad).all_passed()
    assert pauli_lubanski(rep) == w


def test_equal_generators_share_their_pauli_lubanski_sums():
    # sym1 and sym2 have equal P0, P, J and K
    clear_multiplication_cache()
    w = pauli_lubanski(build("sym1", 2))
    before = cache_info()["relation_verdict"]
    assert before.misses == 4
    w_other = pauli_lubanski(build("sym2", 2))
    after = cache_info()["relation_verdict"]
    assert (after.hits - before.hits, after.misses) == (4, before.misses)
    assert all(a is b for a, b in zip(w, w_other))
