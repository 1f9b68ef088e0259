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
     P0 must be diag(+-1) times the standard P0, and every generator
     must equal the one catalog.signed_generators builds for those
     signs.  The operators' spin part is then the textbook triple, so
     the Schur check on that triple is a check of the operators' own.
     Where the premise fails, the problem carries the reason and the
     verdict is undetermined.
(ii) Theta and Pi are each P (x) g: a B x B matrix P of exact scalars
     times one scalar-block operator g, found and checked exactly by
     BlockOp.factor.  For Z = A (x) 1, Z*M = (A*P) (x) g and
     M*Z = (P*conj^k(A)) (x) g with k = 1 when g is antilinear, because
     g passes a constant scalar conjugated (C) or unchanged (Y, tau,
     derivatives and multiplications).  An operator that does not
     factor is an internal error.

What remains is a B x B complex matrix A, self-adjoint, with
A*P == P*conj^k(A) for each constraint.  The generators give two,
written directly: P0 and K give diag(+-1), so an entry between blocks
of opposite energy signs vanishes; P and J give the identity and no
condition.  Theta and Pi couple the blocks.  The constraints are
real-linear, so exactnum.commutant_rows writes them as sparse rows in
the B*B real unknowns of A, solved exactly over the scalar field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import ANTIUNITARY, RepSpec, signed_generators
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
class Verdict:
    """A problem and its solved basis, () when stage (i)'s premise fails
    and the verdict is undetermined."""

    problem: CommutantProblem
    basis: tuple[Matrix, ...]

    @property
    def premise(self) -> str:
        return self.problem.premise

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def irreducible(self) -> bool:
        return self.dimension == 1

    def __str__(self) -> str:
        if self.premise:
            return UNDETERMINED
        kind = "irreducible" if self.irreducible else "reducible"
        return f"{kind}, dim {self.dimension}"


def _premise(rep: RepSpec, signs: tuple[int, ...]) -> str:
    """Why the generators break stage (i)'s premise, or "": signs are
    rep's energy signs."""
    if not signs:
        return "P0 is not diag(+-1) times the standard P0"
    standard = signed_generators(rep.two_s, signs)
    for name, gen in rep.generators().items():
        if gen != standard[name]:
            return f"{name} is not the standard {name} with P0's signs"
    return ""


def reduce_to_constant_blocks(rep: RepSpec) -> CommutantProblem:
    """Stage (i)+(ii): validate the Schur step and stage (i)'s premise,
    factor Theta and Pi."""
    if spin_commutant_dimension(rep.two_s) != 1:
        raise AssertionError(
            "spin-level commutant is not trivial; constant-block reduction invalid"
        )
    signs = rep.energy_signs
    premise = _premise(rep, signs)
    if premise:
        return CommutantProblem(rep.blocks, (), premise)
    # an ordered set: equal constraints give equal rows, so each is
    # solved once; the generators, linear, give P0's signs and the identity
    constraints = dict.fromkeys((
        (diagonal([ONE if s > 0 else -ONE for s in signs]), False),
        (identity_matrix(rep.blocks), False)))
    for name, op, kind in (("Theta", rep.theta, rep.theta_kind),
                           ("Pi", rep.pi, rep.pi_kind)):
        factored = op.factor()
        if factored is None:
            raise AssertionError(
                f"{name} is not a scalar block matrix times one operator"
            )
        constraints[(factored[0], kind == ANTIUNITARY)] = None
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


def commutant_basis(prob: CommutantProblem) -> tuple[Matrix, ...]:
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
    basis = tuple(hermitian_matrix(v, n) for v in ordered)
    if not all(check_solution(prob, m) for m in basis):
        raise AssertionError("solver output fails a constraint")
    return basis


def contains(basis: tuple[Matrix, ...], mat: Matrix) -> bool:
    """Whether a self-adjoint matrix lies in the span of a solved basis."""
    vectors = [hermitian_vector(m) for m in basis]
    return len(_independent_subset(vectors + [hermitian_vector(mat)])) == len(vectors)


def irreducibility_verdict(rep: RepSpec) -> Verdict:
    """The one driver of the solver: reduce, then solve unless the
    premise fails."""
    prob = reduce_to_constant_blocks(rep)
    return Verdict(prob, () if prob.premise else commutant_basis(prob))
