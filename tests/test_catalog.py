"""Catalog builders, relation suites, and discrete invariants.

Two oracle layers: the engine generators are compared against textbook
formulas written directly in sympy, and a few bracket relations are
verified entirely inside sympy (no engine arithmetic at all) to pin the
sign conventions the whole suite relies on.
"""

import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest
import sympy as sp

from oracle_helpers import (
    MU,
    Q0,
    Q1,
    Q2,
    Q3,
    generic_functions,
    op_action,
    scalar_to_sympy,
)
from poincarelab import catalog
from poincarelab.catalog import (
    DISCRETE_SIGNS,
    LIE_RELATIONS,
    allowed_spectra,
    build,
    catalog_labels,
    discrete_relations,
    full_verification,
    momentum_op,
    verify_casimirs,
    verify_discrete_relations,
    verify_lie_relations,
    verify_self_adjointness,
    verify_spectrum,
)
from poincarelab.exactnum import I, ONE, Scalar
from poincarelab.spin_algebra import spin_matrices
from poincarelab.symop import BlockOp, ScalarOp

_CYC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
_Q = {1: Q1, 2: Q2, 3: Q3}


def test_relation_census():
    assert len(LIE_RELATIONS) == 45
    fams = Counter(r.family for r in LIE_RELATIONS)
    assert fams == {
        "PP": 3, "JP": 9, "JJ": 3, "JK": 9, "KK": 3, "KP": 9,
        "P.P0": 3, "J.P0": 3, "K.P0": 3,
    }
    names = [r.name for r in LIE_RELATIONS]
    assert len(set(names)) == 45
    assert "[K1,P1] == i*P0" in names
    assert "[K1,K2] == -i*J3" in names


def _spin_sympy(two_s):
    return [
        [[scalar_to_sympy(x) for x in row] for row in m]
        for m in spin_matrices(two_s)
    ]


def _expect_rotation(axis, two_s, funcs, S):
    b, c = _CYC[axis]
    dim = two_s + 1
    out = [
        -sp.I * (_Q[b] * sp.diff(f, _Q[c]) - _Q[c] * sp.diff(f, _Q[b]))
        for f in funcs
    ]
    Sa = S[axis - 1]
    return [out[m] + sum(Sa[m][n] * funcs[n] for n in range(dim)) for m in range(dim)]


def _expect_boost(axis, two_s, funcs, S):
    b, c = _CYC[axis]
    dim = two_s + 1
    Sb, Sc = S[b - 1], S[c - 1]
    out = [sp.I * Q0 * sp.diff(f, _Q[axis]) for f in funcs]
    return [
        out[m]
        - sum((Sb[m][n] * _Q[c] - Sc[m][n] * _Q[b]) * funcs[n] for n in range(dim))
        / (MU + Q0)
        for m in range(dim)
    ]


@pytest.mark.parametrize("two_s", [0, 1])
@pytest.mark.parametrize("axis", [1, 2, 3])
def test_generators_match_textbook_formulas(two_s, axis):
    funcs = generic_functions(two_s + 1)
    S = _spin_sympy(two_s)
    got = op_action(catalog.rotation_op(axis, two_s), funcs)
    want = _expect_rotation(axis, two_s, funcs, S)
    assert all(sp.simplify(a - b) == 0 for a, b in zip(got, want))
    got = op_action(catalog.boost_op(axis, two_s), funcs)
    want = _expect_boost(axis, two_s, funcs, S)
    assert all(sp.simplify(a - b) == 0 for a, b in zip(got, want))


def test_conventions_hold_in_pure_sympy():
    # engine-free: the textbook formulas themselves close the algebra
    two_s, dim = 1, 2
    funcs = generic_functions(dim)
    S = _spin_sympy(two_s)
    j = lambda a, v: _expect_rotation(a, two_s, v, S)
    k = lambda a, v: _expect_boost(a, two_s, v, S)

    lhs = [x - y for x, y in zip(k(1, k(2, funcs)), k(2, k(1, funcs)))]
    rhs = [-sp.I * x for x in j(3, funcs)]
    assert all(sp.simplify(x - y) == 0 for x, y in zip(lhs, rhs))

    lhs = [x - y for x, y in zip(j(1, j(2, funcs)), j(2, j(1, funcs)))]
    rhs = [sp.I * x for x in j(3, funcs)]
    assert all(sp.simplify(x - y) == 0 for x, y in zip(lhs, rhs))

    comm = [k(1, [Q1 * f for f in funcs])[m] - Q1 * k(1, funcs)[m] for m in range(dim)]
    assert all(sp.simplify(x - sp.I * Q0 * f) == 0 for x, f in zip(comm, funcs))


@pytest.mark.parametrize("label,two_s", [("up", 0), ("sym3", 1), ("quad:+1", 0)])
def test_lie_relations_pass(label, two_s):
    report = verify_lie_relations(build(label, two_s))
    assert len(report.checks) == 45
    assert report.all_passed()


# label, theta kind, pi kind, theta^2, pi^2, omega, spectrum
INVARIANTS_S0 = [
    ("up", "antiunitary", "unitary", 1, 1, 1, "up"),
    ("down", "antiunitary", "unitary", 1, 1, 1, "down"),
    ("sym1", "unitary", "unitary", 1, 1, 1, "symmetric"),
    ("sym2", "unitary", "unitary", 1, 1, -1, "symmetric"),
    ("sym3", "unitary", "antiunitary", 1, 1, 1, "symmetric"),
    ("sym4", "unitary", "antiunitary", 1, -1, -1, "symmetric"),
    ("sym5", "antiunitary", "antiunitary", 1, 1, 1, "symmetric"),
    ("sym6", "antiunitary", "antiunitary", 1, -1, 1, "symmetric"),
    ("newup:identity", "antiunitary", "unitary", 1, 1, 1, "up"),
    ("newup:symplectic", "antiunitary", "unitary", -1, 1, -1, "up"),
    ("newdown:identity", "antiunitary", "unitary", 1, 1, 1, "down"),
    ("newdown:symplectic", "antiunitary", "unitary", -1, 1, -1, "down"),
    ("quad:+1", "unitary", "antiunitary", 1, 1, 1, "symmetric"),
    ("quad:-1", "unitary", "antiunitary", 1, -1, 1, "symmetric"),
]

INVARIANTS_S1 = [
    ("up", "antiunitary", "unitary", -1, 1, 1, "up"),
    ("down", "antiunitary", "unitary", -1, 1, 1, "down"),
    ("sym1", "unitary", "unitary", 1, 1, 1, "symmetric"),
    ("sym2", "unitary", "unitary", 1, 1, -1, "symmetric"),
    ("sym3", "unitary", "antiunitary", 1, -1, 1, "symmetric"),
    ("sym4", "unitary", "antiunitary", 1, 1, -1, "symmetric"),
    ("sym5", "antiunitary", "antiunitary", -1, -1, 1, "symmetric"),
    ("sym6", "antiunitary", "antiunitary", -1, 1, 1, "symmetric"),
    ("newup:identity", "antiunitary", "unitary", -1, 1, 1, "up"),
    ("newup:symplectic", "antiunitary", "unitary", 1, 1, -1, "up"),
    ("newdown:identity", "antiunitary", "unitary", -1, 1, 1, "down"),
    ("newdown:symplectic", "antiunitary", "unitary", 1, 1, -1, "down"),
]


@pytest.mark.parametrize("row", INVARIANTS_S0, ids=[r[0] for r in INVARIANTS_S0])
def test_discrete_invariants_spin0(row):
    label, tk, pk, tsq, psq, omega, spectrum = row
    rep = build(label, 0)
    assert rep.theta_kind == tk and rep.pi_kind == pk
    assert rep.theta_square == tsq
    assert rep.pi_square == psq
    assert rep.omega == omega
    assert rep.spectrum == spectrum


@pytest.mark.parametrize("row", INVARIANTS_S1, ids=[r[0] for r in INVARIANTS_S1])
def test_discrete_invariants_spin1(row):
    label, tk, pk, tsq, psq, omega, spectrum = row
    rep = build(label, 1)
    assert rep.theta_kind == tk and rep.pi_kind == pk
    assert rep.theta_square == tsq
    assert rep.pi_square == psq
    assert rep.omega == omega
    assert rep.spectrum == spectrum


def test_antiunitary_theta_square_follows_spin_parity():
    for label in ("up", "down", "sym5", "sym6"):
        for two_s in (0, 1, 2):
            rep = build(label, two_s)
            assert rep.theta_square == (1 if two_s % 2 == 0 else -1)


def test_discrete_sign_table_drives_relations():
    rep = build("up", 0)
    rels = discrete_relations(rep)
    names = [d.name for d in rels]
    assert names == [
        "Theta*P0 == P0*Theta",
        "Theta*P == -P*Theta",
        "Theta*J == -J*Theta",
        "Theta*K == K*Theta",
        "Theta^2 == 1",
        "Pi*P0 == P0*Pi",
        "Pi*P == -P*Pi",
        "Pi*J == J*Pi",
        "Pi*K == -K*Pi",
        "Pi^2 == 1",
        "Pi*Theta == Theta*Pi",
    ]
    # an exchange row op*g == sign*g*op is written op*g - sign*g*op
    exchange = [d for d in rels if d.family.split(".")[-1] in ("P0", "P", "J", "K")]
    assert len(exchange) == 8
    signs = {d.family: -d.components[0][1][0] for d in exchange}
    assert signs["Theta.P0"] == DISCRETE_SIGNS[("theta", "antiunitary")]["P0"]
    assert signs["Pi.K"] == DISCRETE_SIGNS[("pi", "unitary")]["K"]


def test_relation_table_covers_every_suite():
    rep = build("sym3", 1)
    rels = catalog.relations(rep)
    assert [r.name for r in rels[:45]] == [r.name for r in LIE_RELATIONS]
    assert [r.name for r in rels[-2:]] == ["P0^2 - P.P == mu^2",
                                          "W.W == -3/4*mu^2"]
    assert len(rels) == 45 + 11 + 2
    assert len(catalog.POSITION_RELATIONS) == 26
    # an exchange row has one component per generator of its family
    theta_j = next(r for r in rels if r.family == "Theta.J")
    assert [c[0][1] for c in theta_j.components] == [
        ("Theta", "J1"), ("Theta", "J2"), ("Theta", "J3")]
    kk = next(r for r in rels if r.name == "[K1,K2] == -i*J3")
    assert [w for _c, w in kk.components[0]] == [("K1", "K2"), ("K2", "K1"),
                                                 ("J3",)]


def test_failing_exchange_row_names_its_component():
    # Theta is antiunitary and anticommutes with P1, so K2 + P1 breaks
    # only the second component of the Theta-K exchange relation
    rep = build("up", 1)
    broken = dataclasses.replace(rep, k=(rep.k[0], rep.k[1] + rep.p[0],
                                         rep.k[2]))
    rows = {c.name: c for c in verify_discrete_relations(broken).checks}
    row = rows["Theta*K == K*Theta"]
    assert row.status == "fail"
    assert row.detail.startswith("component 2: residual ")
    assert rows["Theta*P == -P*Theta"].status == "pass"


def test_square_side_conditions_fail_unevaluated():
    # a unitary square must be +1, and any square +1 or -1: sym1's unitary
    # Theta squares to 1, so i*Theta squares to -1 and sqrt(2)*Theta to 2
    rep = build("sym1", 0)
    for factor, detail in ((I, "got -1"), (Scalar.sqrt_int(2), "got 2")):
        broken = dataclasses.replace(rep, theta=rep.theta.scale(factor))
        rows = {c.name: c for c in verify_discrete_relations(broken).checks}
        bad = [c for c in rows.values() if c.name.startswith("Theta^2")]
        assert len(bad) == 1 and bad[0].status == "fail"
        assert bad[0].detail == detail


def test_squares_and_omega_are_read_from_the_operators():
    # newup:symplectic with newup:identity's Theta: Theta^2 and omega are
    # +1 there, not the -1 of the symplectic catalog row
    rep = dataclasses.replace(build("newup:symplectic", 0),
                              theta=build("newup:identity", 0).theta)
    assert (rep.theta_square, rep.pi_square, rep.omega) == (ONE, ONE, ONE)
    report = verify_discrete_relations(rep)
    assert report.all_passed()
    names = [c.name for c in report.checks]
    assert "Theta^2 == 1" in names and "Pi*Theta == Theta*Pi" in names


def test_non_constant_square_fails_unevaluated():
    # diag(p1, 1) squares to diag(p1^2, 1): no constant, so the square and
    # omega rows fail unevaluated instead of raising
    rep = build("sym1", 0)
    theta = BlockOp.diag([momentum_op(1, 1), ScalarOp.identity(1)])
    broken = dataclasses.replace(rep, theta=theta)
    assert broken.theta_square is None and broken.omega is None
    rows = {c.name: c for c in verify_discrete_relations(broken).checks}
    square = rows["Theta^2 == c"]
    assert square.status == "fail"
    assert square.detail == "no constant c has Theta^2 == c"
    assert rows["Pi*Theta == c*Theta*Pi"].status == "fail"
    assert rows["Pi^2 == 1"].status == "pass"


def test_spec_fields_are_its_operators():
    rep = build("sym3", 1)
    assert [f.name for f in dataclasses.fields(rep)] == [
        "label", "p0", "p", "j", "k", "theta", "pi"]
    assert (rep.two_s, rep.blocks, rep.dim) == (1, 2, 2)
    for field, value in (("two_s", 2), ("blocks", 1), ("theta_square", ONE),
                         ("omega", ONE)):
        with pytest.raises(TypeError):
            dataclasses.replace(rep, **{field: value})


@pytest.mark.parametrize("label", [r[0] for r in INVARIANTS_S0])
def test_discrete_relations_pass_spin0(label):
    report = verify_discrete_relations(build(label, 0))
    assert report.all_passed()


def test_recorded_variant_rows_for_offdiagonal_flip():
    # sym5/sym6 carry an extra recorded row documenting that the swapped
    # antiunitary form fails the energy exchange relation
    report = verify_discrete_relations(build("sym5", 1))
    recorded = [c for c in report.checks if c.status == "recorded"]
    assert len(recorded) == 1
    assert "theta-offdiagonal-variant" in recorded[0].name
    assert report.all_passed()


@pytest.mark.parametrize(
    "two_s,value_text",
    [(0, "0"), (1, "-3/4"), (2, "-2")],
)
def test_casimirs_up(two_s, value_text):
    report = verify_casimirs(build("up", two_s))
    assert report.all_passed()
    names = [c.name for c in report.checks]
    assert "P0^2 - P.P == mu^2" in names
    wname = [n for n in names if n.startswith("W.W ==")]
    assert len(wname) == 1
    assert value_text in wname[0] or (two_s == 0 and wname[0].endswith("== 0"))


def test_casimirs_more_reps():
    for label in ("down", "sym1"):
        for two_s in (0, 1):
            assert verify_casimirs(build(label, two_s)).all_passed()


def test_self_adjointness():
    report = verify_self_adjointness(build("up", 1))
    assert len(report.checks) == 10
    assert report.all_passed()


def test_allowed_spectra_table():
    assert allowed_spectra("antiunitary", "unitary") == {"up", "down"}
    assert allowed_spectra("unitary", "unitary") == {"symmetric"}
    assert allowed_spectra("unitary", "antiunitary") == {"symmetric"}
    assert allowed_spectra("antiunitary", "antiunitary") == {"symmetric"}


def test_spectrum_consistency_whole_catalog():
    for rep in map(build, catalog_labels(0)):
        report = verify_spectrum(rep)
        assert report.all_passed()
        assert rep.spectrum in allowed_spectra(rep.theta_kind, rep.pi_kind)


def test_catalog_sizes():
    assert len(catalog_labels(0)) == 14
    assert len(catalog_labels(1)) == 12
    assert "quad:+1" in catalog_labels(0)
    assert "quad:+1" not in catalog_labels(1)
    assert all(build(label, 0).label == label for label in catalog_labels(0))


def test_build_errors():
    with pytest.raises(ValueError):
        build("nonsense", 0)
    with pytest.raises(ValueError):
        build("quad:+1", 1)
    with pytest.raises(ValueError):
        build("up", -1)


def test_full_verification_smoke():
    report = full_verification(build("down", 1))
    assert report.all_passed()
    methods = {c.method for c in report.checks}
    assert methods == {"symbolic"}
    # lie + discrete + casimir + adjoint + spectrum
    assert len(report.checks) >= 45 + 11 + 2 + 10 + 1


def test_readme_catalog_table_matches_the_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## The catalog\n", 1)[1].split("\n## ", 1)[0]
    labels = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        names, blocks, theta, pi, _spectrum = (
            cell.strip() for cell in line.strip("|").split("|")
        )
        for label in re.findall(r"`([^`]+)`", names):
            rep = build(label, 0)
            assert (rep.blocks, rep.theta_kind, rep.pi_kind) == (
                int(blocks), theta, pi), label
            labels.append(label)
    assert labels == catalog_labels(0)
