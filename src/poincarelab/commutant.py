"""Exact commutant solver for catalogued representations.

The solver works on the finite problem left after two reductions:

(i)  An operator commuting with the momentum multiplications is a
     multiplication by a matrix function; commuting further with the
     rotations and boosts forces each block entry to a constant scalar
     multiple of the identity (the spin-level Schur step is validated
     mechanically via spin_commutant_dimension; an entry between blocks
     with opposite signs of p0 vanishes, which (ii) recovers).
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
constraints are real-linear, so the system is realified and solved
exactly over the scalar field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import RepSpec, operators
from .exactnum import (
    I, Matrix, ONE, Scalar, ZERO,
    identity_matrix, mat_conj, mat_eq, mat_mul, mat_transpose, nullspace,
    row_reduce,
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


# -- realified unknown layout --------------------------------------------------
# A self-adjoint B x B matrix: diagonal entries real, each upper pair
# (r < c) contributes a real and an imaginary unknown.


def _var_layout(blocks: int):
    diag = {r: r for r in range(blocks)}
    off = {}
    idx = blocks
    for r in range(blocks):
        for c in range(r + 1, blocks):
            off[(r, c)] = idx
            idx += 2
    return diag, off, idx


def _entry_expr(r: int, c: int, diag, off) -> dict[int, Scalar]:
    """A[r][c] as {variable index: complex Scalar coefficient}."""
    if r == c:
        return {diag[r]: ONE}
    if r < c:
        i_re = off[(r, c)]
        return {i_re: ONE, i_re + 1: I}
    i_re = off[(c, r)]
    return {i_re: ONE, i_re + 1: -I}


def _conj_expr(expr: dict[int, Scalar]) -> dict[int, Scalar]:
    return {v: s.conjugate() for v, s in expr.items()}


def _constraint_rows(prob: CommutantProblem) -> list[list[Scalar]]:
    blocks = prob.blocks
    diag, off, nvars = _var_layout(blocks)
    rows: list[list[Scalar]] = []

    def add_complex_row(expr: dict[int, Scalar]) -> None:
        re_row = [ZERO] * nvars
        im_row = [ZERO] * nvars
        nonzero_re = nonzero_im = False
        for v, s in expr.items():
            re, im = s.real_imag()
            if re:
                re_row[v] = re_row[v] + re
                nonzero_re = True
            if im:
                im_row[v] = im_row[v] + im
                nonzero_im = True
        if nonzero_re:
            rows.append(re_row)
        if nonzero_im:
            rows.append(im_row)

    for pat, antilinear in prob.constraints:
        for r in range(blocks):
            for c in range(blocks):
                expr: dict[int, Scalar] = {}
                for k in range(blocks):
                    b = pat[k][c]
                    if b:
                        for v, s in _entry_expr(r, k, diag, off).items():
                            expr[v] = expr.get(v, ZERO) + s * b
                for k in range(blocks):
                    b = pat[r][k]
                    if b:
                        rhs = _entry_expr(k, c, diag, off)
                        if antilinear:
                            rhs = _conj_expr(rhs)
                        for v, s in rhs.items():
                            expr[v] = expr.get(v, ZERO) - s * b
                expr = {v: s for v, s in expr.items() if s}
                if expr:
                    add_complex_row(expr)
    return rows


def _vector_to_matrix(vec, blocks: int, diag, off) -> Matrix:
    rows = []
    for r in range(blocks):
        row = []
        for c in range(blocks):
            if r == c:
                row.append(vec[diag[r]])
            elif r < c:
                i_re = off[(r, c)]
                row.append(vec[i_re] + I * vec[i_re + 1])
            else:
                i_re = off[(c, r)]
                row.append(vec[i_re] - I * vec[i_re + 1])
        rows.append(tuple(row))
    return tuple(rows)


def _matrix_to_vector(mat: Matrix, blocks: int, diag, off, nvars) -> list[Scalar]:
    vec = [ZERO] * nvars
    for r in range(blocks):
        re, im = mat[r][r].real_imag()
        if im:
            raise ValueError("matrix is not self-adjoint")
        vec[diag[r]] = re
    for (r, c), i_re in off.items():
        if mat[c][r] != mat[r][c].conjugate():
            raise ValueError("matrix is not self-adjoint")
        re, im = mat[r][c].real_imag()
        vec[i_re] = re
        vec[i_re + 1] = im
    return vec


def _independent_subset(vectors):
    """Members of `vectors`, in order, that increase the span; exact.

    They are the pivot columns of the matrix whose columns are `vectors`.
    """
    if not vectors:
        return []
    _, pivots = row_reduce(mat_transpose(vectors), len(vectors))
    return [vectors[c] for c in pivots]


def check_solution(prob: CommutantProblem, mat: Matrix) -> bool:
    """Substitution recheck of one candidate against every constraint."""
    return all(
        mat_eq(mat_mul(mat, pat), mat_mul(pat, mat_conj(mat) if anti else mat))
        for pat, anti in prob.constraints
    )


def commutant_basis(prob: CommutantProblem) -> CommutantBasis:
    """Exact basis of the self-adjoint commutant; identity always first."""
    blocks = prob.blocks
    diag, off, nvars = _var_layout(blocks)
    rows = _constraint_rows(prob)
    solutions = nullspace(rows, nvars)
    id_vec = _matrix_to_vector(identity_matrix(blocks), blocks, diag, off, nvars)
    ordered = _independent_subset([id_vec] + solutions)
    if len(ordered) != len(solutions):
        raise AssertionError("identity is not in the solved commutant")
    mats = tuple(_vector_to_matrix(v, blocks, diag, off) for v in ordered)
    if not all(check_solution(prob, m) for m in mats):
        raise AssertionError("solver output fails a constraint")
    return CommutantBasis(dimension=len(mats), basis=mats, problem=prob)


def contains(result: CommutantBasis, mat: Matrix) -> bool:
    """Whether a self-adjoint matrix lies in the solved commutant."""
    blocks = result.problem.blocks
    diag, off, nvars = _var_layout(blocks)
    vec = _matrix_to_vector(mat, blocks, diag, off, nvars)
    basis_vecs = [
        _matrix_to_vector(m, blocks, diag, off, nvars) for m in result.basis
    ]
    return len(_independent_subset(basis_vecs + [vec])) == len(basis_vecs)


def irreducibility_verdict(rep: RepSpec) -> Verdict:
    res = commutant_basis(reduce_to_constant_blocks(rep))
    return Verdict(rep.label, rep.two_s, res.dimension == 1, res.dimension)

