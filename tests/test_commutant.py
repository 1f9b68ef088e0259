"""Commutant solver: frozen verdicts, a dense numeric oracle, and
engine-level rechecks of every solved basis matrix.

The dense oracle parametrizes a full complex block matrix (no
self-adjoint reduction), realifies all constraints, and counts the
nullspace with scipy's SVD, so it shares no code path with the exact
solver.
"""

from dataclasses import replace

import pytest
from oracle_helpers import (
    as_block_operator,
    conjugate_problem,
    dense_commutant_dimension,
)

from poincarelab import catalog, cli
from poincarelab.commutant import (
    check_solution,
    commutant_basis,
    contains,
    irreducibility_verdict,
    reduce_to_constant_blocks,
)
from poincarelab.exactnum import I, ONE, ZERO, rat
from poincarelab.symop import BlockOp, ScalarOp

VERDICTS_S0 = {
    "up": 1,
    "down": 1,
    "sym1": 1,
    "sym2": 1,
    "sym3": 1,
    "sym4": 1,
    "sym5": 1,
    "sym6": 1,
    "newup:identity": 2,
    "newup:symplectic": 1,
    "newdown:identity": 2,
    "newdown:symplectic": 1,
    "quad:+1": 3,
    "quad:-1": 1,
}


@pytest.mark.parametrize("label,dim", sorted(VERDICTS_S0.items()))
def test_verdicts_spin0(label, dim):
    v = irreducibility_verdict(catalog.build(label, 0))
    assert v.dimension == dim
    assert v.irreducible == (dim == 1)
    assert str(v) == f"{'irreducible' if dim == 1 else 'reducible'}, dim {dim}"


@pytest.mark.parametrize("label,dim", [("up", 1), ("newup:identity", 2),
                                       ("newup:symplectic", 1), ("sym4", 1)])
def test_verdicts_spin1(label, dim):
    assert irreducibility_verdict(catalog.build(label, 1)).dimension == dim


@pytest.mark.parametrize("label", sorted(VERDICTS_S0))
def test_dense_oracle_agrees_spin0(label):
    rep = catalog.build(label, 0)
    assert dense_commutant_dimension(rep) == VERDICTS_S0[label]


@pytest.mark.parametrize("label,two_s", [("newup:identity", 1), ("sym3", 1)])
def test_dense_oracle_agrees_spin1(label, two_s):
    rep = catalog.build(label, two_s)
    assert dense_commutant_dimension(rep) == irreducibility_verdict(rep).dimension


@pytest.mark.parametrize("label", ["up", "newup:identity", "quad:+1", "quad:-1"])
def test_basis_commutes_with_everything_in_engine(label):
    # lift each solved matrix to an operator and recheck against the
    # actual generators and discrete operators, not the reduced system
    rep = catalog.build(label, 0)
    res = commutant_basis(reduce_to_constant_blocks(rep))
    for mat in res.basis:
        z = as_block_operator(mat, rep.two_s)
        for gen in rep.generators().values():
            assert (z * gen - gen * z).is_zero()
        assert (z * rep.theta - rep.theta * z).is_zero()
        assert (z * rep.pi - rep.pi * z).is_zero()


def test_identity_is_first_and_dimension_consistent():
    for label in ("sym2", "newdown:identity", "quad:+1"):
        rep = catalog.build(label, 0)
        res = commutant_basis(reduce_to_constant_blocks(rep))
        assert res.dimension == len(res.basis)
        ident = tuple(
            tuple(ONE if r == c else ZERO for c in range(rep.blocks))
            for r in range(rep.blocks)
        )
        assert res.basis[0] == ident


def _sym_x(blocks, r, c):
    # E_rc + E_cr as an exact matrix
    return tuple(
        tuple(
            ONE if (i, j) in ((r, c), (c, r)) else ZERO for j in range(blocks)
        )
        for i in range(blocks)
    )


def test_quad_plus_family_containment():
    rep = catalog.build("quad:+1", 0)
    res = commutant_basis(reduce_to_constant_blocks(rep))
    assert res.dimension > 1
    # a*Id + b*(E13+E31+E24+E42) with a, b rational
    for a, b in ((rat(1), rat(1)), (rat(2), rat(-3)), (rat(0), rat(5, 7))):
        fam = tuple(
            tuple(
                a if r == c else (b if (r, c) in ((0, 2), (2, 0), (1, 3), (3, 1)) else ZERO)
                for c in range(4)
            )
            for r in range(4)
        )
        assert contains(res, fam)
        assert check_solution(res.problem, fam)


def test_quad_minus_rejects_the_same_family():
    rep = catalog.build("quad:-1", 0)
    res = commutant_basis(reduce_to_constant_blocks(rep))
    swap = tuple(
        tuple(
            ONE if (r, c) in ((0, 2), (2, 0), (1, 3), (3, 1)) else ZERO
            for c in range(4)
        )
        for r in range(4)
    )
    assert not contains(res, swap)
    assert not check_solution(res.problem, swap)


def test_check_solution_negative():
    rep = catalog.build("newup:symplectic", 0)
    prob = reduce_to_constant_blocks(rep)
    assert not check_solution(prob, _sym_x(2, 0, 1))


def test_conjugation_invariance_rotation():
    # real rotation mixing the two same-sign blocks of newup
    rep = catalog.build("newup:identity", 0)
    prob = reduce_to_constant_blocks(rep)
    u = (
        (rat(3, 5), rat(4, 5)),
        (rat(-4, 5), rat(3, 5)),
    )
    rotated = conjugate_problem(prob, u)
    assert commutant_basis(rotated).dimension == commutant_basis(prob).dimension


def test_conjugation_invariance_phase():
    # diagonal phase (3+4i)/5 is unitary and respects any sign split
    phase = rat(3, 5) + rat(4, 5) * I
    for label in ("sym1", "quad:-1", "newup:symplectic"):
        rep = catalog.build(label, 0)
        prob = reduce_to_constant_blocks(rep)
        u = tuple(
            tuple(
                (phase if r == 0 else ONE) if r == c else ZERO
                for c in range(rep.blocks)
            )
            for r in range(rep.blocks)
        )
        rotated = conjugate_problem(prob, u)
        assert commutant_basis(rotated).dimension == commutant_basis(prob).dimension


def test_conjugation_rejects_sign_mixing_and_nonunitary():
    # A rotation mixing blocks of opposite energy sign is a valid change
    # of basis: P0 and K rotate with Theta and Pi, so the verdict holds.
    rep = catalog.build("sym1", 0)  # blocks carry opposite energy signs
    prob = reduce_to_constant_blocks(rep)
    u = (
        (rat(3, 5), rat(4, 5)),
        (rat(-4, 5), rat(3, 5)),
    )
    assert commutant_basis(conjugate_problem(prob, u)).dimension == 1
    not_unitary = ((rat(2), ZERO), (ZERO, ONE))
    with pytest.raises(ValueError):
        conjugate_problem(prob, not_unitary)


# -- negative controls: the solver reads the operators, not the table ------


def test_swapped_theta_moves_the_verdict():
    # newup:symplectic with newup:identity's Theta is the reducible
    # identity variant, whatever the catalog row says
    rep = replace(catalog.build("newup:symplectic", 0),
                  theta=catalog.build("newup:identity", 0).theta)
    assert irreducibility_verdict(rep).dimension == 2


def test_swapped_energy_fails_spectrum_consistency():
    # sym1 with two positive-energy blocks is an "up" spectrum, which
    # its unitary Theta and Pi do not allow
    rep = replace(catalog.build("sym1", 0),
                  p0=catalog.build("newup:identity", 0).p0)
    row = catalog.verify_spectrum(rep).as_dict()["checks"][0]
    assert (row["name"], row["status"]) == ("spectrum-consistency", "fail")
    assert "give up" in row["detail"]


def test_unfactorable_theta_is_an_internal_error():
    # diag(Y, 1): the two blocks are not multiples of one operator
    rep = catalog.build("sym1", 0)
    theta = BlockOp.diag([ScalarOp.reflection(1), ScalarOp.identity(1)])
    with pytest.raises(AssertionError, match="Theta"):
        reduce_to_constant_blocks(replace(rep, theta=theta))


def test_boosts_replaced_by_momenta_fail_the_stage_i_premise():
    # K = P keeps every pattern a scalar block matrix, but the factor g
    # of K1 is no boost, so the constant-block reduction does not apply:
    # the verdict is undetermined, not "irreducible, dim 1"
    rep = catalog.build("up", 1)
    rep = replace(rep, k=rep.p)
    assert not catalog.verify_lie_relations(rep).all_passed()
    prob = reduce_to_constant_blocks(rep)
    assert prob.constraints == () and "K1" in prob.premise
    v = irreducibility_verdict(rep)
    assert (v.irreducible, v.dimension) == (False, 0)
    assert str(v) == "undetermined: stage (i) premise fails"
    with pytest.raises(ValueError, match="stage \\(i\\) premise fails"):
        commutant_basis(prob)


@pytest.mark.parametrize("change,premise", [
    # P0 with a momentum's factor, and with a sign pattern K does not share
    (lambda rep: {"p0": rep.p[0]},
     "P0 is not a scalar block matrix times the standard P0"),
    (lambda rep: {"p0": BlockOp.diag([catalog.energy_op(1)] * 2)},
     "K1's block pattern is not P0's"),
    # J1 carrying a sign between the blocks
    (lambda rep: {"j": (BlockOp.diag([catalog.rotation_op(1, 0),
                                      catalog.rotation_op(1, 0).scale(-1)]),
                        *rep.j[1:])},
     "J1's block pattern is not the identity"),
])
def test_nonstandard_generators_fail_the_stage_i_premise(change, premise):
    rep = catalog.build("sym1", 0)  # energy signs (+, -)
    v = irreducibility_verdict(replace(rep, **change(rep)))
    assert str(v) == "undetermined: stage (i) premise fails"
    assert v.premise == premise
    assert irreducibility_verdict(rep).premise == ""


def test_failed_premise_is_a_failed_check_not_an_internal_error(
        monkeypatch, capsys):
    rep = catalog.build("up", 1)
    monkeypatch.setattr(cli.catalog, "build",
                        lambda label, two_s: replace(rep, k=rep.p))
    assert cli.main(["commutant", "--rep", "up", "--two-s", "1", "--json"]) == 1
    out = capsys.readouterr().out
    assert '"status": "fail"' in out
    assert "undetermined: stage (i) premise fails: K1 is not" in out
