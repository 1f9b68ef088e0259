"""Acceptance gates for the whole laboratory.

One test per criterion.  Each prints exactly one summary line, pass or
fail, with the measured wall time against its budget, and then asserts
the underlying facts with the stated tolerances.  Symbolic criteria are
exact (the only tolerance is "the normal form is zero"); the numeric
criterion states its bands explicitly.
"""

import dataclasses
import time
from itertools import product

import pytest
from oracle_helpers import dense_commutant_dimension

from poincarelab import catalog, commutant, gridlab, localization
from poincarelab.exactnum import I, rat
from poincarelab.symop import BlockOp, Coefficient, Poly, ScalarOp

OCTET = ("up", "down", "sym1", "sym2", "sym3", "sym4", "sym5", "sym6")
ANTI_THETA_OCTET = ("up", "down", "sym5", "sym6")
SPINS = (0, 1, 2)


def _emit(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_exact_lie_closure(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    failures = []
    suites = 0
    for two_s in SPINS:
        for label in catalog.catalog_labels(two_s):
            rep = catalog.build(label, two_s)
            rpt = catalog.verify_lie_relations(rep)
            assert len(rpt.checks) == 45
            failures += [(label, two_s, c.name) for c in rpt.failures]
            suites += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 1, ok,
          f"45-relation exact closure for {suites} catalog entries "
          f"across two_s 0..2 in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert not failures, failures[:10]
    assert elapsed < budget


def test_criterion_2_discrete_relations_and_squares(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    failures = []
    for two_s in SPINS:
        for label in catalog.catalog_labels(two_s):
            rep = catalog.build(label, two_s)
            rpt = catalog.verify_discrete_relations(rep)
            failures += [(label, two_s, c.name) for c in rpt.failures]
            if label in ANTI_THETA_OCTET:
                assert rep.theta_kind == "antiunitary"
                want = 1 if two_s % 2 == 0 else -1
                if rep.theta_square.to_complex() != want:
                    failures.append((label, two_s, "theta square sign"))
    for label, want in (("quad:+1", 1), ("quad:-1", -1)):
        if catalog.build(label, 0).pi_square.to_complex() != want:
            failures.append((label, 0, "pi square sign"))
    rep = catalog.build("newup:symplectic", 0)
    if rep.omega.to_complex() != -1:
        failures.append(("newup:symplectic", 0, "exchange phase"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 2, ok,
          "discrete relations exact; antiunitary squares follow spin "
          "parity; pi squares match the quad labels; the symplectic "
          f"variant anticommutes, in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert not failures, failures[:10]
    assert elapsed < budget


def test_criterion_3_invariant_operator_values(capsys):
    budget = 120.0
    t0 = time.perf_counter()
    failures = []
    spin_rows = {0: "W.W == 0", 1: "W.W == -3/4*mu^2", 2: "W.W == -2*mu^2"}
    for two_s, label in product(SPINS, ("up", "down", "sym1")):
        rep = catalog.build(label, two_s)
        rpt = catalog.verify_casimirs(rep)
        failures += [(label, two_s, c.name) for c in rpt.failures]
        names = {c.name for c in rpt.checks}
        if "P0^2 - P.P == mu^2" not in names or spin_rows[two_s] not in names:
            failures.append((label, two_s, "wrong closed-form target"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 3, ok,
          "mass and spin invariants equal mu^2 and 0, -3/4 mu^2, -2 mu^2 "
          f"exactly at two_s 0,1,2 in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert not failures, failures
    assert elapsed < budget


def test_criterion_4_irreducibility_verdicts(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    failures = []
    for label in OCTET + ("quad:-1", "newup:symplectic", "newdown:symplectic"):
        v = commutant.irreducibility_verdict(catalog.build(label, 0))
        if not (v.irreducible and v.dimension == 1):
            failures.append((label, str(v)))

    rep = catalog.build("quad:+1", 0)
    prob = commutant.reduce_to_constant_blocks(rep)
    res = commutant.commutant_basis(prob)
    if res.dimension <= 1:
        failures.append(("quad:+1", "not reducible"))
    # the two-parameter family a*Id + b*(block swap) must solve the system
    from poincarelab.exactnum import ONE, ZERO
    for a, b in ((rat(1), rat(2)), (rat(-3, 2), rat(5, 7))):
        fam = tuple(
            tuple(
                a if r == c
                else (b if (r, c) in ((0, 2), (2, 0), (1, 3), (3, 1)) else ZERO)
                for c in range(4)
            )
            for r in range(4)
        )
        if not commutant.contains(res, fam):
            failures.append(("quad:+1", f"family member a={a} b={b} missing"))

    rep = catalog.build("newup:identity", 0)
    exact_dim = commutant.irreducibility_verdict(rep).dimension
    dense_dim = dense_commutant_dimension(rep)
    if exact_dim != 2 or dense_dim != 2:
        failures.append(("newup:identity", f"exact {exact_dim}, dense {dense_dim}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 4, ok,
          "octet and quad:-1 and symplectic variants irreducible; "
          "quad:+1 reducible containing the two-parameter family; "
          "newup:identity dim 2 confirmed by the dense-solve oracle, "
          f"in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert not failures, failures
    assert elapsed < budget


def test_criterion_5_spectrum_classification(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    combos = {
        ("antiunitary", "unitary"): {"up", "down"},
        ("unitary", "unitary"): {"symmetric"},
        ("unitary", "antiunitary"): {"symmetric"},
        ("antiunitary", "antiunitary"): {"symmetric"},
    }
    failures = []
    for (tk, pk), want in combos.items():
        got = catalog.allowed_spectra(tk, pk)
        if got != want:
            failures.append((tk, pk, got))
    for two_s in SPINS:
        for label in catalog.catalog_labels(two_s):
            rep = catalog.build(label, two_s)
            if rep.spectrum not in catalog.allowed_spectra(rep.theta_kind,
                                                           rep.pi_kind):
                failures.append((label, two_s, rep.spectrum))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 5, ok,
          "all four kind combinations classified and every catalog entry "
          f"sits in its allowed spectrum set, in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")
    assert not failures, failures
    assert elapsed < budget


def test_criterion_6_position_operator_suite(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    failures = []
    for label, two_s in product(
        ("sym3", "sym5", "newup:identity", "newup:symplectic"), (0, 1)
    ):
        rep = catalog.build(label, two_s)
        rpt = localization.localization_report(rep)
        assert len(rpt.checks) == 26
        failures += [(label, two_s, c.name) for c in rpt.failures]
        names = {c.name for c in rpt.checks}
        for required in ("[Q1,Q2] == 0", "[Q1,P1] == i", "adjoint(Q1) == Q1"):
            if required not in names:
                failures.append((label, two_s, f"missing {required}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 6, ok,
          "position components commute, are canonically conjugate to "
          "momentum, self-adjoint, rotate as a vector, and match the "
          f"discrete symmetries, in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert not failures, failures[:10]
    assert elapsed < budget


def test_criterion_7_numerical_convergence(capsys):
    budget = 120.0
    slope_lo, slope_hi = 1.7, 2.3
    exact_tol = 1e-12
    t0 = time.perf_counter()
    failures = []
    grids = [gridlab.Grid(4.0, n, 1.0) for n in (32, 64, 128)]
    for rep_label, two_s in (("up", 1), ("quad:+1", 0)):
        rep = catalog.build(rep_label, two_s)
        rids = gridlab.representative_relations(rep)
        defects = {}
        studies = gridlab.study(rep, rids, grids, defects=defects)
        for rid, study in zip(rids, studies):
            if study.exact:
                if max(study.residuals) >= exact_tol:
                    failures.append((rep_label, rid, "exact residual too big"))
            elif not (slope_lo < study.slope < slope_hi):
                failures.append((rep_label, rid, f"slope {study.slope:.2f}"))
            if not study.ok:
                failures.append((rep_label, rid, "study flagged not ok"))
        # the norms of Theta psi and Pi psi on the finest grid, from the
        # plan's own states
        if set(defects) != {"Theta", "Pi"}:
            failures.append((rep_label, "isometry", f"defects {defects}"))
        for op_name, defect in defects.items():
            if defect >= exact_tol:
                failures.append((rep_label, op_name, f"defect {defect:.2e}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 7, ok,
          "derivative-bearing residuals converge at slope 2.0 +/- 0.3, "
          "derivative-free and discrete relations below 1e-12, norms "
          f"preserved below 1e-12, N up to 128 in {elapsed:.1f}s "
          f"(budget {budget:.0f}s)")
    assert not failures, failures[:10]
    assert elapsed < budget


def _times_coeff(c: Coefficient, op: ScalarOp, dim: int) -> ScalarOp:
    return ScalarOp.from_coefficient(c, dim) * op


def test_criterion_8_negative_controls(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    failures = []
    rep = catalog.build("up", 1)
    dim = rep.dim

    # control 1: drop the spin coupling of the first boost, keeping only
    # the i*p0*d1 transport term; the boost-boost closure must break
    i_p0 = Coefficient(Poly.sym("p0").scale(I))
    bad_k1 = BlockOp([[_times_coeff(i_p0, ScalarOp.deriv_op(1, dim), dim)]])
    broken = dataclasses.replace(rep, k=(bad_k1, rep.k[1], rep.k[2]))
    names = {c.name for c in catalog.verify_lie_relations(broken).failures}
    if "[K1,K2] == -i*J3" not in names:
        failures.append("boost corruption was not caught by the closure")

    # control 2: strip the spin matrix from the third rotation; the spin
    # invariant must leave its closed-form value
    orbital_j3 = BlockOp([[
        _times_coeff(Coefficient(Poly.sym("p1").scale(-I)),
                     ScalarOp.deriv_op(2, dim), dim)
        + _times_coeff(Coefficient(Poly.sym("p2").scale(I)),
                       ScalarOp.deriv_op(1, dim), dim)
    ]])
    broken = dataclasses.replace(rep, j=(rep.j[0], rep.j[1], orbital_j3))
    cas = catalog.verify_casimirs(broken)
    if not any(c.name.startswith("W.W") for c in cas.failures):
        failures.append("rotation corruption left the spin invariant intact")
    lie_names = {c.name for c in catalog.verify_lie_relations(broken).failures}
    if "[J1,J2] == i*J3" not in lie_names:
        failures.append("rotation corruption was not caught by the closure")

    # control 3: drop the measure counterterm from a position component;
    # bare i*d1 is not self-adjoint under d^3p / p0
    bare = _times_coeff(Coefficient(Poly.const(I)), ScalarOp.deriv_op(1, 1), 1)
    if (bare.adjoint() - bare).is_zero():
        failures.append("bare derivative passed the self-adjointness check")
    good = localization.position_component(1, 1)
    if not (good.adjoint() - good).is_zero():
        failures.append("corrected position component failed its own check")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _emit(capsys, 8, ok,
          "each single-term corruption trips a closure, invariant, or "
          f"self-adjointness check, in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert not failures, failures
    assert elapsed < budget
