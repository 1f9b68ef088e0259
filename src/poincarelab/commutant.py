"""Exact commutant solver for catalogued representations.

The solver works on the finite problem left after two reductions:

(i)  An operator commuting with the momentum multiplications is a
     multiplication by a matrix function; commuting further with the
     rotations and boosts forces each block entry to a constant scalar
     multiple of the identity (the spin-level Schur step is checked by
     spin_commutant_dimension, the same exact solve as (ii) run on the
     spin triple; an entry between blocks with opposite signs of p0
     vanishes, which (ii) recovers).
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

from .catalog import RepSpec, operators
from .exactnum import (
    Matrix, Scalar, commutant_rows, hermitian_matrix, hermitian_vector,
    identity_matrix, mat_conj, mat_eq, mat_mul, nullspace, row_reduce,
)
from .spin_algebra import spin_commutant_dimension


@dataclass(frozen=True)
class CommutantProblem:
    """A*P == P*conj(A) if antilinear else P*A, for each (P, antilinear)."""

    blocks: int
    constraints: tuple[tuple[Matrix, bool], ...]


@dataclass(frozen=True)
class CommutantBasis:
    dimension: int
    basis: tuple[Matrix, ...]
    problem: CommutantProblem


@dataclass(frozen=True)
class Verdict:
    label: str
    two_s: int
    irreducible: bool
    dimension: int

    def __str__(self) -> str:
        kind = "irreducible" if self.irreducible else "reducible"
        return f"{kind}, dim {self.dimension}"


def reduce_to_constant_blocks(rep: RepSpec) -> CommutantProblem:
    """Stage (i)+(ii): validate the Schur step, factor every operator."""
    if spin_commutant_dimension(rep.two_s) != 1:
        raise AssertionError(
            "spin-level commutant is not trivial; constant-block reduction invalid"
        )
    # an ordered set: equal constraints (P and J always, often P0 and K)
    # give equal rows, so each is solved once
    constraints = {}
    for name, op in operators(rep, ()).items():
        factored = op.factor()
        if factored is None:
            raise AssertionError(
                f"{name} is not a scalar block matrix times one operator"
            )
        constraints[(factored[0], op.kappa_parity() == 1)] = None
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
    """Exact basis of the self-adjoint commutant; identity always first."""
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
    res = commutant_basis(reduce_to_constant_blocks(rep))
    return Verdict(rep.label, rep.two_s, res.dimension == 1, res.dimension)

