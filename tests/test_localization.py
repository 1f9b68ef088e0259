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
    q = newton_wigner(SpinWeight(1), 2)
    assert len(q) == 3
    assert all(op.blocks == 2 for op in q)
    with pytest.raises(ValueError):
        newton_wigner(SpinWeight(0), 4)


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
    with pytest.raises(ValueError):
        verify_position_axioms(rep, q)


def test_quad_has_no_canonical_triple():
    rep = catalog.build("quad:+1", 0)
    with pytest.raises(ValueError, match="unsupported block count"):
        newton_wigner(SpinWeight(0), rep.blocks)
