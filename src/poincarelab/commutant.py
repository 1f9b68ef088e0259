"""Exact commutant solver for catalogued representations.

The solver works on the finite problem left after two reductions:

(i)  An operator commuting with the momentum multiplications is a
     multiplication by a matrix function; commuting further with the
     rotations and boosts forces each diagonal block entry to a constant
     scalar multiple of the identity (the spin-level Schur step is
     validated mechanically via spin_commutant_dimension).
(ii) A cross-block entry intertwines two copies of the scalar block
     that differ only in the signs of p0 and k; a scalar entry between
     blocks with different signs must vanish (s*p0*z = -s*p0*z forces
     z = 0), and same-sign blocks admit arbitrary scalars.

What remains is a B x B complex matrix A, self-adjoint, constrained by
the discrete operators: A*M = M*A for unitary M, A*M = M*conj(A) for
antiunitary M*C.  Both the tau factor and the reflection Y commute with
constant scalar matrices, so only the block pattern of each discrete
operator enters.  The constraints are real-linear, so the system is
realified and solved exactly over the scalar field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import RepSpec
from .exactnum import (
    I, Matrix, ONE, Scalar, ZERO,
    identity_matrix, mat_conj, mat_dagger, mat_eq, mat_map, mat_mul,
    mat_transpose, nullspace, row_reduce,
)
from .spin_algebra import spin_commutant_dimension
from .symop import BlockOp, ScalarOp


@dataclass(frozen=True)
class DiscreteDescriptor:
    """Block pattern and flags of a discrete operator."""

    pattern: tuple[tuple[Scalar, ...], ...]
    antilinear: bool
    upsilon: bool


@dataclass(frozen=True)
class CommutantProblem:
    blocks: int
    two_s: int
    p0_signs: tuple[int, ...]
    k_signs: tuple[int, ...]
    theta: DiscreteDescriptor
    pi: DiscreteDescriptor


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


def _block_flags(op: BlockOp) -> tuple[bool, bool]:
    """(upsilon, antilinear) flags of a constant discrete operator."""
    keys = set()
    for row in op.entries:
        for entry in row:
            keys.update(entry.terms)
    if not keys:
        raise ValueError("zero operator has no flags")
    ups = {u for (_alpha, u, _k) in keys}
    kap = {k for (_alpha, _u, k) in keys}
    if len(ups) != 1 or len(kap) != 1:
        raise ValueError("discrete operator mixes reflection/conjugation kinds")
    return bool(ups.pop()), bool(kap.pop())


def reduce_to_constant_blocks(rep: RepSpec) -> CommutantProblem:
    """Stage (i)+(ii): validate the Schur step, extract the block data."""
    if spin_commutant_dimension(rep.two_s) != 1:
        raise AssertionError(
            "spin-level commutant is not trivial; constant-block reduction invalid"
        )
    t_ups, t_anti = _block_flags(rep.theta)
    p_ups, p_anti = _block_flags(rep.pi)
    if (t_anti != (rep.theta_kind == "antiunitary")
            or p_anti != (rep.pi_kind == "antiunitary")):
        raise AssertionError("declared kinds disagree with operator structure")
    return CommutantProblem(
        blocks=rep.blocks,
        two_s=rep.two_s,
        p0_signs=rep.p0_signs,
        k_signs=rep.k_signs,
        theta=DiscreteDescriptor(rep.theta_pattern, t_anti, t_ups),
        pi=DiscreteDescriptor(rep.pi_pattern, p_anti, p_ups),
    )


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

    # (ii) sign compatibility
    for (r, c), i_re in off.items():
        if prob.p0_signs[r] != prob.p0_signs[c] or prob.k_signs[r] != prob.k_signs[c]:
            for v in (i_re, i_re + 1):
                row = [ZERO] * nvars
                row[v] = ONE
                rows.append(row)

    # discrete operators: A*M = M*A (linear) or A*M = M*conj(A) (antilinear)
    for desc in (prob.theta, prob.pi):
        pat = desc.pattern
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
                        if desc.antilinear:
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
    for r in range(prob.blocks):
        for c in range(prob.blocks):
            if mat[r][c] != ZERO and (prob.p0_signs[r] != prob.p0_signs[c]
                                      or prob.k_signs[r] != prob.k_signs[c]):
                return False
    return all(
        mat_eq(mat_mul(mat, d.pattern),
               mat_mul(d.pattern, mat_conj(mat) if d.antilinear else mat))
        for d in (prob.theta, prob.pi)
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


def as_block_operator(mat: Matrix, two_s: int) -> BlockOp:
    """Lift a constant block matrix to an engine operator for recheck."""
    return BlockOp(mat_map(ScalarOp.identity(two_s + 1).scale, mat))


def conjugate_problem(prob: CommutantProblem, u: Matrix) -> CommutantProblem:
    """Change of basis by a constant block unitary respecting the signs.

    Linear patterns map to U M U*, antilinear ones to U M U^T (the
    conjugation flips the right factor).  Used to check that verdicts
    are basis-independent.
    """
    blocks = prob.blocks
    if not mat_eq(mat_mul(u, mat_dagger(u)), identity_matrix(blocks)):
        raise ValueError("conjugating matrix is not unitary")
    for r in range(blocks):
        for c in range(blocks):
            if u[r][c] and (prob.p0_signs[r] != prob.p0_signs[c]
                            or prob.k_signs[r] != prob.k_signs[c]):
                raise ValueError("conjugation mixes blocks with different signs")

    def transform(desc: DiscreteDescriptor) -> DiscreteDescriptor:
        right = mat_transpose(u) if desc.antilinear else mat_dagger(u)
        return DiscreteDescriptor(
            mat_mul(mat_mul(u, desc.pattern), right), desc.antilinear, desc.upsilon
        )

    return CommutantProblem(
        blocks=blocks,
        two_s=prob.two_s,
        p0_signs=prob.p0_signs,
        k_signs=prob.k_signs,
        theta=transform(prob.theta),
        pi=transform(prob.pi),
    )
