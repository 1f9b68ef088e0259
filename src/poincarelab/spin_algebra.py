"""Exact spin matrices and the spin-flip conjugation matrix.

Conventions: basis vectors are ordered by descending magnetic number
m = s, s-1, ..., -s, so S3 = diag(s, ..., -s).  S1 and S2 come from the
ladder operators S+- with matrix elements sqrt((s-m)(s+m+1)), which are
square roots of integers for every integer or half-integer s.  The
triple is right-handed: [S1, S2] = i*S3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import (
    Matrix,
    ONE,
    Scalar,
    ZERO,
    commutant_rows,
    diagonal,
    mat_add,
    mat_scale,
    mat_sub,
    mat_transpose,
    nullspace,
    rat,
)


@dataclass(frozen=True)
class SpinWeight:
    """Spin s encoded as the integer 2s >= 0."""

    two_s: int

    def __post_init__(self):
        if not isinstance(self.two_s, int) or self.two_s < 0:
            raise ValueError("two_s must be a nonnegative integer")

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def casimir(self) -> Fraction:
        """s(s+1), exactly."""
        return Fraction(self.two_s * (self.two_s + 2), 4)

    def m_values(self) -> list[Fraction]:
        """Magnetic numbers in basis order, descending from s to -s."""
        return [Fraction(self.two_s - 2 * k, 2) for k in range(self.dim)]


@lru_cache(maxsize=None)
def spin_matrices(two_s: int) -> tuple[Matrix, Matrix, Matrix]:
    """The exact spin triple (S1, S2, S3) for 2s = two_s."""
    w = SpinWeight(two_s)
    dim = w.dim
    ms = w.m_values()
    # S+ has entries sqrt((s-m)(s+m+1)) one step above the diagonal,
    # with the integer (s-m)(s+m+1) = (k+1)(two_s-k) at column k+1.
    splus = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim - 1):
        n = (k + 1) * (two_s - k)
        splus[k][k + 1] = Scalar.sqrt_int(n)
    splus = tuple(tuple(r) for r in splus)
    sminus = mat_transpose(splus)
    half_i = Scalar.from_rational(0, Fraction(-1, 2))  # 1/(2i) = -i/2
    s1 = mat_scale(rat(1, 2), mat_add(splus, sminus))
    s2 = mat_scale(half_i, mat_sub(splus, sminus))
    s3 = diagonal([Scalar.from_rational(m) for m in ms])
    return s1, s2, s3


@lru_cache(maxsize=None)
def tau_matrix(two_s: int) -> Matrix:
    """Antidiagonal conjugation matrix with entries (-1)^(s-m).

    tau is real unitary, tau * conj(Sj) * tau^-1 = -Sj, and
    tau * conj(tau) = +Id for integer s and -Id for half-integer s.
    """
    w = SpinWeight(two_s)
    dim = w.dim
    rows = [[ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        # row index r carries m = s - r, so (-1)^(s-m) = (-1)^r
        rows[r][dim - 1 - r] = ONE if r % 2 == 0 else -ONE
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def spin_commutant_dimension(two_s: int) -> int:
    """Dimension of {B : [B, Sj] = 0 for j = 1, 2, 3}.

    Solved exactly as the commutant system of exactnum on the constraints
    ((S1, linear), (S2, linear), (S3, linear)), which counts the
    self-adjoint solutions over the reals.  That count is the complex
    dimension: the Sj are Hermitian, so B commutes with them iff B^dagger
    does, and every solution is H1 + i*H2 with H1 = (B + B^dagger)/2 and
    H2 = (B - B^dagger)/2i self-adjoint solutions.  The result is 1 for
    every spin, which is what the block reduction of the commutant
    solver relies on.
    """
    dim = two_s + 1
    constraints = tuple((s, False) for s in spin_matrices(two_s))
    return len(nullspace(commutant_rows(constraints, dim), dim * dim))

