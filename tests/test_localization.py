"""Position operator triple and the localization axiom suite."""

import pytest
import sympy as sp

from oracle_helpers import Q0, QVARS, generic_functions, op_action
from poincarelab import catalog
from poincarelab.localization import (
    RESOLVED_LABELS,
    localization_report,
    newton_wigner,
    position_component,
    verify_position_axioms,
)
from poincarelab.spin_algebra import SpinWeight


def test_position_component_matches_sympy():
    # F_j f = i d_j f - (i/2) (q_j/q0^2) f, straight from the definition
    for dim in (1, 2):
        funcs = generic_functions(dim)
        for axis in (1, 2, 3):
            got = op_action(position_component(axis, dim), funcs)
            qa = QVARS[axis - 1]
            want = [
                sp.I * sp.diff(f, qa) - sp.I * qa / (2 * Q0**2) * f for f in funcs
            ]
            assert all(sp.simplify(x - y) == 0 for x, y in zip(got, want))


def test_position_is_self_adjoint_and_bare_derivative_is_not():
    f1 = position_component(1, 1)
    assert (f1.adjoint() - f1).is_zero()
    from poincarelab.symop import ScalarOp
    from poincarelab.exactnum import I

    bare = ScalarOp.deriv_op(1, 1).scale(I)
    assert not (bare.adjoint() - bare).is_zero()


def test_newton_wigner_blocks():
    # diag(F_j, ...) for any block count, quad's four included
    for blocks in (1, 2, 4):
        q = newton_wigner(SpinWeight(1), blocks)
        assert len(q) == 3
        assert all(op.blocks == blocks for op in q)


@pytest.mark.parametrize("label,two_s", [("sym3", 0), ("sym3", 1), ("sym5", 1),
                                         ("newup:identity", 0),
                                         ("newup:symplectic", 0),
                                         ("up", 1), ("down", 0)])
def test_axiom_suite_resolved(label, two_s):
    rep = catalog.build(label, two_s)
    report = localization_report(rep)
    assert report.all_passed()
    assert len(report.checks) == 26
    statuses = {c.status for c in report.checks}
    assert statuses == {"pass"}
    names = {c.name for c in report.checks}
    assert "[Q1,P1] == i" in names
    assert "[J1,Q2] == i*Q3" in names
    assert "Theta*Q == Q*Theta" in names
    assert "Pi*Q == -Q*Pi" in names


@pytest.mark.parametrize("label", ["sym1", "sym2", "sym4", "sym6"])
def test_axiom_suite_unresolved_records(label):
    rep = catalog.build(label, 1)
    report = localization_report(rep)
    assert report.all_passed()
    recorded = [c for c in report.checks if c.status == "recorded"]
    assert len(recorded) == 2
    assert all(c.detail in ("holds", "does not hold") for c in recorded)
    assert label not in RESOLVED_LABELS


def test_mismatched_blocks_rejected():
    rep = catalog.build("sym1", 0)
    q = newton_wigner(SpinWeight(0), 1)
    with pytest.raises(ValueError, match=r"^Q1 is \(1, 1\), not a BlockOp "
                                         r"of the spec's \(blocks, dim\) "
                                         r"\(2, 1\)$"):
        verify_position_axioms(rep, q)


def test_position_triple_is_exactly_three_operators_of_the_specs_shape():
    # the triple is refused as RepSpec refuses its own operators: too few
    # (which failed as KeyError 'Q3'), too many (which passed silently),
    # a non-operator, or a third operator of another block count or spin
    # dimension (which failed deep in the relation sums)
    rep = catalog.build("up", 1)
    q1, q2, q3 = newton_wigner(SpinWeight(1), 1)
    other = newton_wigner(SpinWeight(1), 2)[2]
    spin0 = newton_wigner(SpinWeight(0), 1)[1]
    cases = [
        ((q1, q2), r"^position triple has 2 operators, not 3$"),
        ([q1, q2, q3, rep.p0], r"^position triple has 4 operators, not 3$"),
        ((q1, q2, "Q3"), r"^Q3 is <class 'str'>, not a BlockOp of the "
                         r"spec's \(blocks, dim\) \(1, 2\)$"),
        ((q1, q2, other), r"^Q3 is \(2, 2\), not a BlockOp of the spec's "
                          r"\(blocks, dim\) \(1, 2\)$"),
        ((q1, spin0, q3), r"^Q2 is \(1, 1\), not a BlockOp of the spec's "
                          r"\(blocks, dim\) \(1, 2\)$"),
    ]
    for q, message in cases:
        with pytest.raises(ValueError, match=message):
            verify_position_axioms(rep, q)
    # a list of the right three is a sequence like any other
    assert verify_position_axioms(rep, [q1, q2, q3]).all_passed()


@pytest.mark.parametrize("label", ["quad:+1", "quad:-1"])
def test_quad_localizes_with_the_block_diagonal_triple(label):
    # diag(F_j, F_j, F_j, F_j) over the four blocks passes every
    # non-discrete row; quad is not resolved, so its Theta and Pi rows are
    # recorded, and both hold
    rep = catalog.build(label, 0)
    assert rep.blocks == 4 and label not in RESOLVED_LABELS
    rows = {c.name: (c.status, c.detail)
            for c in localization_report(rep).checks}
    assert len(rows) == 26
    assert {name: row for name, row in rows.items() if row[0] != "pass"} == {
        "Theta*Q == Q*Theta": ("recorded", "holds"),
        "Pi*Q == -Q*Pi": ("recorded", "holds"),
    }
