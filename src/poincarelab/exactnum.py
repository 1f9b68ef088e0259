"""Exact scalar arithmetic over Q(i) extended by integer square roots.

Spin ladder matrices have entries of the form q*sqrt(n) with q rational
and n a small positive integer, and the operator algebra needs i and
exact rational coefficients.  Everything downstream therefore computes
over the field Q(i, sqrt(2), sqrt(3), ...).  An element is stored as a
finite sum over squarefree n of (a_n + b_n*i)*sqrt(n) with exact rational
coefficients, which makes zero tests, equality and inversion exact.

Each rational coefficient is held in one canonical form: a Python int
when it is integral, else a Fraction whose denominator is greater than
1.  Most coefficients of the spin and operator algebra are integers, and
int arithmetic and hashing run in C where Fraction's run in Python.
_canon applies the rule to every rational the arithmetic produces.
Structural equality and hashing stay sound whatever the form: an int
and the Fraction of the same value compare equal, hash alike and print
alike, so a Scalar built directly from Fraction components equals, and
hashes like, the canonical one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, sub


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as g*g*m with m squarefree.  Returns (g, m)."""
    if n < 1:
        raise ValueError("squarefree_split needs a positive integer")
    g, m, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        g *= d ** (e // 2)
        if e % 2:
            m *= d
        d += 1 if d == 2 else 2
    return g, m * n


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def _canon(q):
    """The canonical form of the rational q (an int or a Fraction): q as an
    int when it is integral, else q, a Fraction with denominator > 1."""
    return q.numerator if q.denominator == 1 else q


class Scalar:
    """A finite sum  sum_n (a_n + b_n*i) * sqrt(n)  over squarefree n >= 1.

    terms maps n to (a_n, b_n), each an int when integral and otherwise a
    Fraction (see the module docstring); zero terms are dropped.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, tuple] | None = None):
        t = {}
        if terms:
            for n, (re, im) in terms.items():
                if re or im:
                    t[n] = (re, im)
        self.terms = t
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, re, im=0) -> "Scalar":
        return cls({1: (_canon(Fraction(re)), _canon(Fraction(im)))})

    @classmethod
    def sqrt_int(cls, n: int) -> "Scalar":
        """Exact square root of a nonnegative integer."""
        if n < 0:
            raise ValueError("sqrt_int takes a nonnegative integer")
        if n == 0:
            return cls()
        g, m = squarefree_split(n)
        return cls({m: (g, 0)})

    @staticmethod
    def _coerce(x) -> "Scalar":
        # concrete type tests first: isinstance against Fraction goes
        # through the numbers ABCs' __instancecheck__
        if type(x) is Scalar:
            return x
        if type(x) is int:
            return Scalar({1: (x, 0)})
        if isinstance(x, (int, Fraction)):
            return Scalar({1: (_canon(x), 0)})
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- ring operations ---------------------------------------------------

    def _combine(self, other, op):
        """self + other or self - other, as op is operator.add or sub, term
        by term; a term of other alone enters as it is or negated."""
        other = self._coerce(other)
        out = dict(self.terms)
        for n, (re, im) in other.terms.items():
            if n in out:
                a, b = out[n]
                out[n] = (_canon(op(a, re)), _canon(op(b, im)))
            else:
                out[n] = (re, im) if op is add else (-re, -im)
        return Scalar(out)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        # a negation drops no term, so the terms go in untested
        s = object.__new__(Scalar)
        s.terms = {n: (-re, -im) for n, (re, im) in self.terms.items()}
        s._hash = None
        return s

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[int, tuple] = {}
        for n1, (a1, b1) in self.terms.items():
            for n2, (a2, b2) in other.terms.items():
                if n1 == n2:
                    g, m = n1, 1
                else:
                    g, m = squarefree_split(n1 * n2)
                re = (a1 * a2 - b1 * b2) * g
                im = (a1 * b2 + b1 * a2) * g
                if m in out:
                    c, d = out[m]
                    out[m] = (c + re, d + im)
                else:
                    out[m] = (re, im)
        return Scalar({m: (_canon(re), _canon(im)) for m, (re, im) in out.items()})

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse, by peeling radicals one prime at a time."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        primes: set[int] = set()
        for n in self.terms:
            primes.update(_prime_factors(n))
        if not primes:
            re, im = self.terms[1]
            d = re * re + im * im
            # Fraction(re) / d, not re / d: int / int is a float
            return Scalar({1: (_canon(Fraction(re) / d),
                               _canon(Fraction(-im) / d))})
        p = max(primes)
        # write self = A + B*sqrt(p) with A, B free of sqrt(p)
        a_terms, b_terms = {}, {}
        for n, c in self.terms.items():
            if n % p == 0:
                b_terms[n // p] = c
            else:
                a_terms[n] = c
        a, b = Scalar(a_terms), Scalar(b_terms)
        denom = a * a - b * b * p  # nonzero: Galois conjugate of a unit
        inv = denom.inverse()
        b_sqrtp = Scalar({n * p: c for n, c in b.terms.items()})
        return (a - b_sqrtp) * inv

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "Scalar":
        return Scalar({n: (re, -im) for n, (re, im) in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def real_imag(self) -> tuple["Scalar", "Scalar"]:
        """Split as re + i*im with re, im having real coefficients only."""
        re = Scalar({n: (r, 0) for n, (r, _) in self.terms.items()})
        im = Scalar({n: (i, 0) for n, (_, i) in self.terms.items()})
        return re, im

    def to_complex(self) -> complex:
        out = 0j
        for n, (re, im) in self.terms.items():
            out += complex(re, im) * n ** 0.5
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for n in sorted(self.terms):
            re, im = self.terms[n]
            if im == 0:
                body = str(re)
            elif re == 0:
                body = f"{im}*i"
            else:
                sign = "+" if im > 0 else "-"
                body = f"({re}{sign}{abs(im)}*i)"
            if n != 1:
                body = f"{body}*sqrt({n})" if body != "1" else f"sqrt({n})"
            parts.append(body)
        return " + ".join(parts)


ZERO = Scalar()
ONE = Scalar.from_rational(1)
I = Scalar.from_rational(0, 1)


def rat(num, den=1) -> Scalar:
    """Shorthand for an exact rational scalar num/den."""
    return Scalar.from_rational(Fraction(num, den))


# -- small dense matrices ------------------------------------------------
#
# Every matrix in the laboratory is a small tuple of tuples over one of
# three rings: exact Scalars (spin matrices, tau, Theta/Pi block
# patterns, commutant candidates), symop Coefficients (the matrix of one
# normal-form operator term) and symop ScalarOps (the entries of a block
# operator).  The helpers below are written once for any entry with
# + - *, is_zero() and conjugate(), the ring's involution: complex
# conjugation of a Scalar or Coefficient, the formal adjoint of a
# ScalarOp, so mat_dagger is also the adjoint of a block operator.  The
# ring's zero and one default to the Scalar ones; callers over the other
# rings pass theirs.

Matrix = tuple[tuple[Scalar, ...], ...]


def diagonal(entries, zero=ZERO) -> Matrix:
    n = len(entries)
    return tuple(
        tuple(entries[r] if r == c else zero for c in range(n)) for r in range(n)
    )


def identity_matrix(dim: int, one=ONE, zero=ZERO) -> Matrix:
    return diagonal((one,) * dim, zero)


def zero_matrix(rows: int, cols: int | None = None, zero=ZERO) -> Matrix:
    cols = rows if cols is None else cols
    return tuple(tuple(zero for _ in range(cols)) for _ in range(rows))


def mat_map(f, a: Matrix) -> Matrix:
    """f applied to every entry."""
    return tuple(tuple(f(x) for x in row) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix, zero=ZERO) -> Matrix:
    """The product.  Each row of b lists its nonzero entries once, and
    only pairs of nonzero factors are multiplied, which spares most entry
    products of the sparse spin and block matrices; each entry is still
    summed over k in ascending order, starting from zero."""
    cols = len(b[0])
    b_rows = [[(c, y) for c, y in enumerate(row) if not y.is_zero()]
              for row in b]
    out = []
    for row_a in a:
        acc = [zero] * cols
        for x, row_b in zip(row_a, b_rows):
            if row_b and not x.is_zero():
                for c, y in row_b:
                    acc[c] = acc[c] + x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_conj(a: Matrix) -> Matrix:
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[r][c] for r in range(len(a))) for c in range(len(a[0])))


def mat_dagger(a: Matrix) -> Matrix:
    return tuple(
        tuple(a[r][c].conjugate() for r in range(len(a))) for c in range(len(a[0]))
    )


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return mat_is_zero(mat_sub(a, b))


# -- exact linear systems ------------------------------------------------
#
# A row of a linear system is a dict {col: Scalar} of its nonzero
# entries, and so is a solution vector.


def row_reduce(rows, ncols: int):
    """Exact reduced row echelon form (RREF) of the first ncols columns.

    Each row is a dict {col: Scalar} of its nonzero entries; entries in
    columns >= ncols are ignored, and the rows given are not changed.
    Columns are visited in ascending order.  The pivot for
    column c is the remaining row with the fewest nonzeros among those
    with a nonzero in c, the lowest index on a tie (Markowitz's
    sparsest-row choice), which keeps the fill-in of the sparse spin
    systems small.  The pivot row is normalized and c is eliminated from
    every other row, pending and already pivoted, so the result is the
    full RREF; rows that become empty are dropped.  A column index
    (column -> keys of the rows holding it, a pending row keyed by its
    index i and the j-th reduced row by -1 - j) gives the rows holding c
    directly, so the work follows the nonzeros and their fill-in rather
    than columns times rows.

    Returns the reduced rows, one per pivot, and the pivot columns in
    ascending order: the columns that are not combinations of the
    columns before them.  The RREF of a matrix is unique and Scalar
    arithmetic is canonical, so both are the same for every pivot order.
    """
    pending: dict[int, dict[int, Scalar]] = {}
    where: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        sparse = {c: x for c, x in row.items() if c < ncols}
        if sparse:
            pending[i] = sparse
            for c in sparse:
                where.setdefault(c, set()).add(i)
    reduced: list[dict[int, Scalar]] = []
    pivots: list[int] = []
    for c in range(ncols):
        holders = where.get(c, ())
        candidates = [i for i in holders if i >= 0]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(pending[i]), i))
        del where[c]
        prow = pending.pop(p)
        inv = prow[c].inverse()
        prow = {k: inv * x for k, x in prow.items()}
        others = [(k, y) for k, y in prow.items() if k != c]
        for k, _y in others:
            where[k].discard(p)
        for i in holders:
            if i == p:
                continue
            row = pending[i] if i >= 0 else reduced[-1 - i]
            f = row.pop(c)
            for k, y in others:
                x = row.get(k, ZERO) - f * y
                if x.is_zero():
                    row.pop(k, None)
                    where[k].discard(i)
                else:
                    if k not in row:
                        where.setdefault(k, set()).add(i)
                    row[k] = x
            if not row:
                del pending[i]
        key = -1 - len(reduced)
        for k, _y in others:
            where.setdefault(k, set()).add(key)
        reduced.append(prow)
        pivots.append(c)
    return reduced, pivots


def nullspace(rows, ncols: int) -> list[dict[int, Scalar]]:
    """Basis of the solution space of rows * x = 0 over the scalar field.

    One vector per non-pivot column of the RREF from row_reduce: that
    free coordinate is 1, the other free ones 0, and each pivot
    coordinate is minus the reduced row's entry in the free column.  The
    RREF is unique, so the basis does not depend on the pivot order.
    """
    reduced, pivots = row_reduce(rows, ncols)
    pivot_cols = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = {free: ONE}
        for row, pc in zip(reduced, pivots):
            if free in row:
                v[pc] = -row[free]
        basis.append(v)
    return basis


# -- the commutant system --------------------------------------------------
#
# A commutant solve asks for the self-adjoint n x n matrices A with
# A*P == P*conj^k(A) for each constraint (P, antilinear), k = 1 when
# antilinear.  A is held as n*n real unknowns: x[r*n + r] = A[r][r] and,
# for r < c, x[r*n + c] = Re A[r][c] and x[c*n + r] = Im A[r][c].  So each
# entry of A is a sum of unknowns times units i**q, and as A is
# self-adjoint, conj(A) is its transpose.  The constraints are
# real-linear in x: each entry of A*P - P*conj^k(A) gives a row for its
# real part and one for its imaginary part.

_UNITS = (ONE, I, -ONE, -I)  # i**q for q = 0..3


def hermitian_entry(n: int, r: int, c: int) -> dict[int, int]:
    """A[r][c] as {unknown: q}, the unknown's coefficient being i**q."""
    if r == c:
        return {r * n + r: 0}
    if r < c:
        return {r * n + c: 0, c * n + r: 1}
    return {c * n + r: 0, r * n + c: 3}


def hermitian_matrix(vec: dict[int, Scalar], n: int) -> Matrix:
    """The self-adjoint matrix whose unknowns are vec."""
    return tuple(
        tuple(sum((_UNITS[q] * vec[v]
                   for v, q in hermitian_entry(n, r, c).items() if v in vec),
                  ZERO)
              for c in range(n))
        for r in range(n)
    )


def hermitian_vector(mat: Matrix) -> dict[int, Scalar]:
    """The unknowns of a self-adjoint matrix; ValueError for any other."""
    if not mat_eq(mat_dagger(mat), mat):
        raise ValueError("matrix is not self-adjoint")
    n = len(mat)
    vec = {}
    for r in range(n):
        for c in range(r, n):
            re, im = mat[r][c].real_imag()
            vec[r * n + c] = re
            if r != c:
                vec[c * n + r] = im
    return {v: x for v, x in vec.items() if x}


def commutant_rows(constraints, n: int) -> list[dict[int, Scalar]]:
    """The rows of A*P - P*conj^k(A) == 0 for every constraint (P,
    antilinear), in the n*n real unknowns of a self-adjoint A.

    i**q times an entry a + i*b of P is a quarter turn of (a, b), and
    minus it is q + 2 quarter turns, so the rows take no products.
    """
    entry = [[hermitian_entry(n, r, c) for c in range(n)] for r in range(n)]
    rows = []
    for pat, antilinear in constraints:
        turns = {}
        for k, row in enumerate(pat):
            for c, x in enumerate(row):
                if x:
                    a, b = x.real_imag()
                    turns[k, c] = ((a, b), (-b, a), (-a, -b), (b, -a))
        in_col = [[(k, turns[k, c]) for k in range(n) if (k, c) in turns]
                  for c in range(n)]
        in_row = [[(k, turns[r, k]) for k in range(n) if (r, k) in turns]
                  for r in range(n)]
        for r in range(n):
            for c in range(n):
                terms = [(entry[r][k], t, 0) for k, t in in_col[c]] + [
                    (entry[c][k] if antilinear else entry[k][c], t, 2)
                    for k, t in in_row[r]]
                re_row: dict[int, Scalar] = {}
                im_row: dict[int, Scalar] = {}
                for form, t, shift in terms:
                    for v, q in form.items():
                        re, im = t[(q + shift) % 4]
                        re_row[v] = re_row[v] + re if v in re_row else re
                        im_row[v] = im_row[v] + im if v in im_row else im
                for row in (re_row, im_row):
                    row = {v: x for v, x in row.items() if x}
                    if row:
                        rows.append(row)
    return rows
