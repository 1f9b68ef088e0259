"""Exact commutant solver for catalogued representations.

The solver works on the finite problem left after two reductions:

(i)  An operator commuting with the momentum multiplications is a
     multiplication by a matrix function; commuting further with the
     rotations and boosts forces each block entry to a constant scalar
     multiple of the identity (the spin-level Schur step is checked by
     spin_commutant_dimension, the same exact solve as (ii) run on the
     spin triple; an entry between blocks with opposite signs of p0
     vanishes, which (ii) recovers).  This is a theorem about the
     standard generators, so its premise is checked on the operators:
     P1..P3 and J1..J3 must be the identity (x) their standard
     scalar-block generator, and P0 and K1..K3 one shared diag(+-1)
     (x) theirs.  Where that fails, the problem carries the reason and
     the verdict is undetermined.
(ii) Every operator is P (x) g: a B x B matrix P of exact scalars
     times one scalar-block operator g, found and checked exactly by
     BlockOp.factor.  For Z = A (x) 1, Z*M = (A*P) (x) g and
     M*Z = (P*conj^k(A)) (x) g with k = 1 when g is antilinear, because
     g passes a constant scalar conjugated (C) or unchanged (Y, tau,
     derivatives and multiplications).  An operator that does not
     factor is an internal error.

What remains is a B x B complex matrix A, self-adjoint, with
A*P == P*conj^k(A) for each of the twelve operators (the ten
generators, Theta and Pi).  P0 and K give P = diag(+-1), so an entry
between blocks of opposite energy signs vanishes; P and J give the
identity and no condition; Theta and Pi couple the blocks.  The
constraints are real-linear, so exactnum.commutant_rows writes them as
sparse rows in the B*B real unknowns of A, solved exactly over the
scalar field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import RepSpec, operators, standard_generators
from .exactnum import (
    ONE, Matrix, Scalar, commutant_rows, diagonal, hermitian_matrix,
    hermitian_vector, identity_matrix, mat_conj, mat_eq, mat_mul, nullspace,
    row_reduce,
)
from .spin_algebra import spin_commutant_dimension

UNDETERMINED = "undetermined: stage (i) premise fails"


@dataclass(frozen=True)
class CommutantProblem:
    """A*P == P*conj(A) if antilinear else P*A, for each (P, antilinear).

    premise is empty when stage (i)'s premise holds, else why it fails,
    and then there are no constraints: nothing is solved.
    """

    blocks: int
    constraints: tuple[tuple[Matrix, bool], ...]
    premise: str = ""


@dataclass(frozen=True)
class CommutantBasis:
    dimension: int
    basis: tuple[Matrix, ...]
    problem: CommutantProblem


@dataclass(frozen=True)
class Verdict:
    """dimension is 0 and premise the reason when stage (i)'s premise
    fails, and the verdict is then undetermined."""

    label: str
    two_s: int
    irreducible: bool
    dimension: int
    premise: str = ""

    def __str__(self) -> str:
        if self.premise:
            return UNDETERMINED
        kind = "irreducible" if self.irreducible else "reducible"
        return f"{kind}, dim {self.dimension}"


def _premise(patterns: dict, blocks: int) -> str:
    """Why the generators' patterns break stage (i)'s premise, or ""."""
    for name, pat in patterns.items():
        if pat is None:
            return f"{name} is not a scalar block matrix times the standard {name}"
    signs = patterns["P0"]
    diag = [signs[r][r] for r in range(blocks)]
    if any(x not in (ONE, -ONE) for x in diag) or signs != diagonal(diag):
        return "P0 is not diag(+-1) times the standard P0"
    ident = identity_matrix(blocks)
    for name, pat in patterns.items():
        want, what = (signs, "P0's") if name[0] == "K" else (ident, "the identity")
        if name != "P0" and pat != want:
            return f"{name}'s block pattern is not {what}"
    return ""


def reduce_to_constant_blocks(rep: RepSpec) -> CommutantProblem:
    """Stage (i)+(ii): validate the Schur step and stage (i)'s premise,
    factor every operator."""
    if spin_commutant_dimension(rep.two_s) != 1:
        raise AssertionError(
            "spin-level commutant is not trivial; constant-block reduction invalid"
        )
    ops = operators(rep, ())
    patterns = {}
    # the scalar-block generator each of P0..K3 must carry for stage (i)
    for name, g in standard_generators(rep.two_s).items():
        factored = ops[name].factor(g)
        patterns[name] = None if factored is None else factored[0]
    premise = _premise(patterns, rep.blocks)
    if premise:
        return CommutantProblem(rep.blocks, (), premise)
    # an ordered set: equal constraints give equal rows, so each is
    # solved once; the generators, linear, give the identity and P0's signs
    constraints = dict.fromkeys((pat, False) for pat in patterns.values())
    for name in ("Theta", "Pi"):
        factored = ops[name].factor()
        if factored is None:
            raise AssertionError(
                f"{name} is not a scalar block matrix times one operator"
            )
        constraints[(factored[0], ops[name].kappa_parity() == 1)] = None
    return CommutantProblem(rep.blocks, tuple(constraints))


def _independent_subset(vectors):
    """Members of `vectors`, in order, that increase the span; exact.

    They are the pivot columns of the matrix whose columns are `vectors`.
    """
    rows: dict[int, dict[int, Scalar]] = {}
    for j, vec in enumerate(vectors):
        for v, x in vec.items():
            rows.setdefault(v, {})[j] = x
    _, pivots = row_reduce(list(rows.values()), len(vectors))
    return [vectors[c] for c in pivots]


def check_solution(prob: CommutantProblem, mat: Matrix) -> bool:
    """Substitution recheck of one candidate against every constraint."""
    return all(
        mat_eq(mat_mul(mat, pat), mat_mul(pat, mat_conj(mat) if anti else mat))
        for pat, anti in prob.constraints
    )


def commutant_basis(prob: CommutantProblem) -> CommutantBasis:
    """Exact basis of the self-adjoint commutant; identity always first.
    ValueError for a problem whose stage (i) premise fails."""
    if prob.premise:
        raise ValueError(f"{UNDETERMINED}: {prob.premise}")
    n = prob.blocks
    solutions = nullspace(commutant_rows(prob.constraints, n), n * n)
    ordered = _independent_subset(
        [hermitian_vector(identity_matrix(n))] + solutions)
    if len(ordered) != len(solutions):
        raise AssertionError("identity is not in the solved commutant")
    mats = tuple(hermitian_matrix(v, n) for v in ordered)
    if not all(check_solution(prob, m) for m in mats):
        raise AssertionError("solver output fails a constraint")
    return CommutantBasis(dimension=len(mats), basis=mats, problem=prob)


def contains(result: CommutantBasis, mat: Matrix) -> bool:
    """Whether a self-adjoint matrix lies in the solved commutant."""
    basis = [hermitian_vector(m) for m in result.basis]
    return len(_independent_subset(basis + [hermitian_vector(mat)])) == len(basis)


def irreducibility_verdict(rep: RepSpec) -> Verdict:
    prob = reduce_to_constant_blocks(rep)
    if prob.premise:
        return Verdict(rep.label, rep.two_s, False, 0, prob.premise)
    res = commutant_basis(prob)
    return Verdict(rep.label, rep.two_s, res.dimension == 1, res.dimension)

