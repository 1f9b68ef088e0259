"""Noncommutative operator algebra on the positive-mass shell.

Operators act on vector valued functions of the momentum p in R^3.  The
building blocks are multiplication by rational functions of
(mu, p1, p2, p3, p0), partial derivatives d_j, the momentum reflection
Y (psi(p) -> psi(-p)) and pointwise complex conjugation C.  On the mass
shell p0 = sqrt(mu^2 + |p|^2), so p0^2 always reduces to mu^2 + |p|^2
and d_j acts on p0 by the chain rule d_j p0 = p_j / p0.

Normal form of a single operator: a finite sum of terms

    M(p) * d^alpha * Y^u * C^k

with u, k in {0, 1}, alpha a derivative multi-index and M a matrix of
Coefficient entries (rational functions with denominators p0^a and
(mu+p0)^b).  Sums are stored keyed by (alpha, u, k) with like terms
merged, which makes equality a structural check.

Coefficient normal form is unique: the numerator is reduced so its
p0-degree is at most 1, and common factors of p0 or (mu+p0) are
cancelled by exact polynomial division.  Both are prime in the shell
ring (the quotients by them are domains because rank >= 3 quadratic
forms are irreducible), so the minimal representation is unique and
dictionary equality is sound.

Coefficients are hash-consed.  Every constructor (Coefficient(...),
negation, conjugate, reflect) ends in _interned, which looks the
normal form (num, a, b) up in a weak-value table and hands back the one
live object of that value, so equal coefficients are one object however
they were built (A*B and B*A give the same entries).  Normal form being
unique, that makes equality identity and the hash the object's own:
Coefficient defines neither, and every dict, tuple and memo lookup on
coefficients resolves in C.  The zero is one object too, _C_ZERO, so
Coefficient.is_zero is an identity test.  Copies and pickles rebuild through the
constructor, so they come back as the same object.  The table is weak, so a value nothing holds any more
leaves it; cache_info reports its size.  Poly and Scalar stay compared
structurally: they are built far more often than they are compared.

Six memos reuse work, each a functools.lru_cache bounded at
_MEMO_SIZE entries:

- Coefficient._product, keyed by the two coefficients;
- Coefficient._deriv, by the coefficient and the axis;
- _lift (a coefficient's numerator moved onto a larger denominator), by
  the coefficient and the two exponent steps;
- ScalarOp._product, by the operands' sign representatives (below), and
  ScalarOp._adjoint, by the operand;
- relation_residual (the relation verdict memo), by the block shape and
  one relation component, or one operator defined as a sum of words
  (the Pauli-Lubanski vector), as (weight, word) pairs, each word the
  tuple of BlockOps it names.

The first five are reached only for nonzero operands.  The coefficient
memos are keyed by identity, which is value for hash-consed
coefficients; the operator memos by value, through the __eq__ and
__hash__ of ScalarOp and BlockOp over their coefficient matrices (a
BlockOp computes its hash once), so equal operands held in different
objects share one result: the generators of two catalog entries with
equal signs are distinct objects of equal value, and their relation
rows are computed once.  That is sound because each operation, a
relation component's sum too, is a deterministic function of its
operands' values, and no Poly, Coefficient, ScalarOp or BlockOp is
changed after it is built, so a memoized result can be handed out
again.  A spec altered with
dataclasses.replace has operators of other values, so its rows are
keys of their own.  clear_multiplication_cache empties all six and
cache_info reports their hits, misses and sizes.

The operator product memo is sign-canonical.  ScalarOp.__mul__ writes
each nonzero operand A as sigma * rep, sigma = +-1 and rep the one of
{A, -A} whose leading rational is positive: the real part, or the
imaginary part if that is 0, at the smallest radicand of the smallest
monomial of the first nonzero entry (row-major) of the matrix at the
smallest term key.  That is read from the value alone, so A and -A, in
whatever objects, have one rep.  It multiplies the two reps through the
memo and negates the product when the signs differ.  This is exact: +-1
is real, so it commutes with d_j, Y and C, and (sigma A)(tau B) =
sigma tau AB for antilinear and reflected terms too.  The negative-energy
blocks of the catalog (P0 and K are minus those of a positive-energy
block) thus reuse every product of the positive-energy ones.  Negation
is cheap: a Coefficient and its negation, and a ScalarOp and its
negation, each remember the other once either is negated, so a memoized
product is negated, and an operator's rep built, once.  A pair that
nothing else holds is a cycle the garbage collector frees, and leaves
the hash-consing table with it.

RelationSum sums weighted words of block operators, one relation
component, without building a normal form for any partial sum.  Each
word is fed in as its block paths: the nonzero entries of a single
operator, or every nonzero product A[r][k]*B[k][c] of the last two
factors at block (r, c).  Each entry (block r, c; term key; spin entry
i, j) collects its coefficients, the weights of equal ones (one object,
matched by identity) summed, and
when the sum is read the numerator of every coefficient of nonzero
weight is lifted onto the entry's common denominator p0^a (mu+p0)^b, a
and b the largest over those coefficients, and added, one entry at a
time, into a flat map keyed by (monomial, radicand) with Gaussian
rational values.  The sum is exact: a reduced numerator A + B*p0 (A, B
free of p0) vanishes on the shell iff A = B = 0, since p0 is not a
rational function of mu and p, and the square roots of distinct
squarefree integers are linearly independent over Q(i); so an entry is
zero iff every value of its map is.  A nonzero sum is turned back into a
BlockOp, one Coefficient(numerator, a, b) per nonzero entry; normal form
is unique, so that is the operator any other order of summing gives.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import chain
from math import comb
from operator import add, methodcaller, neg, sub

from .exactnum import (
    Matrix, ONE, Scalar, ZERO, _canon, diagonal, identity_matrix, mat_add,
    mat_conj, mat_dagger, mat_is_zero, mat_map, mat_mul, mat_scale, mat_sub,
    zero_matrix,
)

# Monomial exponents, in the order (mu, p1, p2, p3, p0); p0 exponent <= 1.
Mono = tuple[int, int, int, int, int]

_SYMS = {"mu": 0, "p1": 1, "p2": 2, "p3": 3, "p0": 4}

# Entry bound of each memo (see the module docstring).  Running every
# symbolic workload in one process peaks near 6k entries in the largest,
# so none evicts in practice; the bound keeps a long session's memory flat.
_MEMO_SIZE = 2**14


class Poly:
    """Polynomial over the exact scalars, reduced modulo p0^2 = mu^2 + |p|^2."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Mono, Scalar] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = c
        self.terms = t
        self._hash = None

    @classmethod
    def const(cls, c) -> "Poly":
        c = Scalar._coerce(c)
        return cls({(0, 0, 0, 0, 0): c}) if c else cls()

    @classmethod
    def sym(cls, name: str) -> "Poly":
        e = [0, 0, 0, 0, 0]
        e[_SYMS[name]] = 1
        return cls({tuple(e): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "Poly", op) -> "Poly":
        """self + other or self - other, as op is operator.add or sub, term
        by term; a term of other alone enters as it is or negated."""
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = op(out[m], c)
            else:
                out[m] = c if op is add else -c
        return Poly(out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, add)

    def __neg__(self) -> "Poly":
        # a negation drops no term, so the terms go in untested
        p = object.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        p._hash = None
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, sub)

    def scale(self, c) -> "Poly":
        c = Scalar._coerce(c)
        if not c:
            return Poly()
        return Poly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Mono, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                mono = (
                    m1[0] + m2[0],
                    m1[1] + m2[1],
                    m1[2] + m2[2],
                    m1[3] + m2[3],
                    m1[4] + m2[4],
                )
                _accumulate_reduced(out, mono, c)
        return Poly(out)

    def conjugate(self) -> "Poly":
        """Complex conjugation of coefficients (the variables are real)."""
        return Poly({m: c.conjugate() for m, c in self.terms.items()})

    def reflect(self) -> "Poly":
        """Substitute p -> -p.  p0 is even, so only p1, p2, p3 flip."""
        out = {}
        for m, c in self.terms.items():
            if (m[1] + m[2] + m[3]) % 2:
                out[m] = -c
            else:
                out[m] = c
        return Poly(out)

    def eval(self, mu, p1, p2, p3, p0):
        """Numeric value; arguments may be floats or numpy-style arrays."""
        total = 0
        for m, c in self.terms.items():
            val = complex(c.to_complex())
            for base, e in zip((mu, p1, p2, p3, p0), m):
                if e:
                    val = val * base**e
            total = total + val
        return total

    def split_p0(self) -> tuple["Poly", "Poly"]:
        """Write self = A + B*p0 with A, B free of p0."""
        a, b = {}, {}
        for m, c in self.terms.items():
            if m[4]:
                b[(m[0], m[1], m[2], m[3], 0)] = c
            else:
                a[m] = c
        return Poly(a), Poly(b)

    def mul_p0(self) -> "Poly":
        out: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            _accumulate_reduced(
                out, (m[0], m[1], m[2], m[3], m[4] + 1), c
            )
        return Poly(out)

    def __eq__(self, other):
        return type(other) is Poly and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ("mu", "p1", "p2", "p3", "p0")
        parts = []
        for m in sorted(self.terms, reverse=True):
            factors = []
            c = self.terms[m]
            cs = repr(c)
            if any(m):
                if cs != "1":
                    factors.append(f"({cs})" if (" " in cs or "+" in cs[1:]) else cs)
                for name, e in zip(names, m):
                    if e == 1:
                        factors.append(name)
                    elif e > 1:
                        factors.append(f"{name}^{e}")
                parts.append("*".join(factors))
            else:
                parts.append(f"({cs})" if " " in cs else cs)
        return " + ".join(parts)


def _accumulate_reduced(out: dict[Mono, Scalar], mono: Mono, c: Scalar) -> None:
    """Add c*mono into out, rewriting p0^2 -> mu^2 + p1^2 + p2^2 + p3^2."""
    stack = [(mono, c)]
    while stack:
        m, v = stack.pop()
        if m[4] < 2:
            prev = out.get(m)
            out[m] = v if prev is None else prev + v
            continue
        base = (m[0], m[1], m[2], m[3], m[4] - 2)
        for axis in range(4):
            bumped = list(base)
            bumped[axis] += 2
            stack.append((tuple(bumped), v))


def _div_exact_quad(poly: Poly, axis: int, tail: tuple[Mono, ...]) -> Poly | None:
    """Exact quotient of poly by (x_axis^2 + sum(tail)), or None.

    The divisor is monic of degree 2 in the chosen axis and the tail
    monomials do not involve that axis, so ordinary long division in
    that variable terminates and divisibility is exactly remainder 0.
    """
    q: dict[Mono, Scalar] = {}
    r = dict(poly.terms)
    while r:
        k = max(m[axis] for m in r)
        if k < 2:
            return None
        block = {m: c for m, c in r.items() if m[axis] == k}
        for m, c in block.items():
            shifted = list(m)
            shifted[axis] -= 2
            shifted = tuple(shifted)
            q[shifted] = q.get(shifted, ZERO) + c
            del r[m]
            for t in tail:
                prod = tuple(a + b for a, b in zip(shifted, t))
                prev = r.get(prod, ZERO)
                nv = prev - c
                if nv:
                    r[prod] = nv
                elif prod in r:
                    del r[prod]
        r = {m: c for m, c in r.items() if c}
    return Poly(q)


_TAIL_SPATIAL = ((0, 2, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 2, 0))  # p1^2+p2^2+p3^2
_TAIL_P23 = ((0, 0, 2, 0, 0), (0, 0, 0, 2, 0))  # p2^2 + p3^2


def _div_mass_shell(poly: Poly) -> Poly | None:
    """Quotient by mu^2 + p1^2 + p2^2 + p3^2 (= p0^2), or None."""
    return _div_exact_quad(poly, 0, _TAIL_SPATIAL)


def _div_spatial_sq(poly: Poly) -> Poly | None:
    """Quotient by p1^2 + p2^2 + p3^2, or None."""
    return _div_exact_quad(poly, 1, _TAIL_P23)


_P_MONO = [None, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)]
_MU_P0 = Poly.sym("mu") + Poly.sym("p0")


class Coefficient:
    """num / (p0^a * (mu+p0)^b) with num reduced and the fraction minimal.

    Hash-consed: every constructor returns the one live object of its
    value (see _interned), so equality is identity and the hash is the
    object's own.  _neg is the negation, once it has been asked for.
    """

    __slots__ = ("num", "a", "b", "_neg", "__weakref__")

    def __new__(cls, num: Poly, a: int = 0, b: int = 0):
        if a < 0 or b < 0:
            raise ValueError("denominator exponents must be nonnegative")
        if num.is_zero():
            num, a, b = Poly(), 0, 0
        else:
            # cancel p0:  A + B*p0 is divisible by p0 iff p0^2 | A
            while a > 0:
                pa, pb = num.split_p0()
                q = _div_mass_shell(pa)
                if q is None:
                    break
                num = pb + q.mul_p0()
                a -= 1
            # cancel (mu+p0): divisible iff |p|^2 divides A - mu*B
            while b > 0:
                pa, pb = num.split_p0()
                d = _div_spatial_sq(pa - pb * Poly.sym("mu"))
                if d is None:
                    break
                c = pb - d * Poly.sym("mu")
                num = c + d.mul_p0()
                b -= 1
        return _interned(num, a, b)

    def __reduce__(self):
        # copy, deepcopy and pickle all rebuild through the constructor,
        # which hands back the interned object
        return Coefficient, (self.num, self.a, self.b)

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, c) -> "Coefficient":
        return cls(Poly.const(c))

    @classmethod
    def sym(cls, name: str) -> "Coefficient":
        return cls(Poly.sym(name))

    # -- arithmetic ----------------------------------------------------

    def is_zero(self) -> bool:
        # hash-consed: every zero coefficient is the one _C_ZERO
        return self is _C_ZERO

    def _combine(self, other: "Coefficient", op) -> "Coefficient":
        """self + other or self - other, as op is operator.add or sub, over
        the common denominator."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other if op is add else -other
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        return Coefficient(op(self.lifted(a, b), other.lifted(a, b)), a, b)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        return self._combine(other, add)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self._combine(other, sub)

    def __neg__(self) -> "Coefficient":
        # the pair remember each other, so -(-c) is a slot read too
        n = self._neg
        if n is None:
            n = _interned(-self.num, self.a, self.b)
            self._neg, n._neg = n, self
        return n

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if self.is_zero() or other.is_zero():
            return _C_ZERO
        return self._product(other)

    @lru_cache(maxsize=_MEMO_SIZE)
    def _product(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.num * other.num, self.a + other.a,
                           self.b + other.b)

    def conjugate(self) -> "Coefficient":
        return _interned(self.num.conjugate(), self.a, self.b)

    def reflect(self) -> "Coefficient":
        """p -> -p; both denominator factors are reflection invariant."""
        return _interned(self.num.reflect(), self.a, self.b)

    def deriv(self, j: int) -> "Coefficient":
        """Mass-shell derivative d/dp_j with d_j p0 = p_j / p0."""
        if self.is_zero():
            return _C_ZERO
        return self._deriv(j)

    @lru_cache(maxsize=_MEMO_SIZE)
    def _deriv(self, j: int) -> "Coefficient":
        # d(num) = A + B/p0: A is the formal p_j derivative, B collects
        # the chain-rule terms from monomials carrying one power of p0.
        a_terms: dict[Mono, Scalar] = {}
        b_terms: dict[Mono, Scalar] = {}
        for m, c in self.num.terms.items():
            e = m[j]
            if e:
                lowered = list(m)
                lowered[j] -= 1
                key = tuple(lowered)
                a_terms[key] = a_terms.get(key, ZERO) + c * e
            if m[4]:
                raised = list(m)
                raised[4] = 0
                raised[j] += 1
                key = tuple(raised)
                b_terms[key] = b_terms.get(key, ZERO) + c
        a_poly, b_poly = Poly(a_terms), Poly(b_terms)
        pj = Poly({_P_MONO[j]: ONE})
        t1 = (a_poly.mul_p0() + b_poly).mul_p0() * _MU_P0
        t2 = (self.num * pj * _MU_P0).scale(Scalar.from_rational(-self.a))
        t3 = (self.num * pj).mul_p0().scale(Scalar.from_rational(-self.b))
        return Coefficient(t1 + t2 + t3, self.a + 2, self.b + 1)

    def eval(self, mu, p1, p2, p3, p0):
        """Numeric value; arguments may be floats or numpy-style arrays."""
        val = self.num.eval(mu, p1, p2, p3, p0)
        if self.a:
            val = val / p0**self.a
        if self.b:
            val = val / (mu + p0) ** self.b
        return val

    # -- structure -------------------------------------------------------

    def lifted(self, a: int, b: int) -> Poly:
        """The numerator over the larger denominator p0^a (mu+p0)^b."""
        if a == self.a and b == self.b:
            return self.num
        return _lift(self, a - self.a, b - self.b)

    def __repr__(self):
        if self.is_zero():
            return "0"
        num = repr(self.num)
        if self.a == 0 and self.b == 0:
            return num
        dens = []
        if self.a == 1:
            dens.append("p0")
        elif self.a > 1:
            dens.append(f"p0^{self.a}")
        if self.b == 1:
            dens.append("(mu+p0)")
        elif self.b > 1:
            dens.append(f"(mu+p0)^{self.b}")
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/" + ("*".join(dens) if len(dens) == 1
                            else "(" + "*".join(dens) + ")")


# The hash-consing table: structure (num, a, b) -> the one live
# Coefficient of that value.  Weak, so a value no memo, operator or sum
# still holds is dropped with its entry.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _interned(num: Poly, a: int, b: int) -> Coefficient:
    """The Coefficient num / (p0^a (mu+p0)^b), num already in normal form:
    the live one of that value if there is one, else a new one, entered."""
    key = (num, a, b)
    c = _INTERNED.get(key)
    if c is None:
        c = object.__new__(Coefficient)
        c.num, c.a, c.b, c._neg = num, a, b, None
        _INTERNED[key] = c
    return c


@lru_cache(maxsize=_MEMO_SIZE)
def _lift(c: Coefficient, da: int, db: int) -> Poly:
    """c's numerator times p0^da * (mu+p0)^db, reduced."""
    num = c.num
    for _ in range(da):
        num = num.mul_p0()
    for _ in range(db):
        num = num * _MU_P0
    return num


_C_ZERO = Coefficient(Poly())
_C_ONE = Coefficient.const(1)


# -- matrices of coefficients -------------------------------------------

CoeffMatrix = tuple[tuple[Coefficient, ...], ...]


def _negated(mat: CoeffMatrix) -> CoeffMatrix:
    """-mat, reading each entry's negation from its partner once known."""
    return tuple([tuple([x._neg or -x for x in row]) for row in mat])


# -- scalar operators -----------------------------------------------------

# term key: (alpha, upsilon, kappa) with alpha the derivative multi-index
OpKey = tuple[tuple[int, int, int], int, int]


class ScalarOp:
    """Operator on L2(R^3, C^dim, dnu) in normal form.

    terms maps (alpha, u, k) to a dim x dim matrix of Coefficient
    entries; the represented operator is the sum over keys of
    M(p) d^alpha Y^u C^k in that factor order.
    """

    __slots__ = ("dim", "terms", "_frozen", "_sign", "_neg")

    def __init__(self, dim: int, terms: dict[OpKey, CoeffMatrix] | None = None):
        self.dim = dim
        t = {}
        if terms:
            for key, mat in terms.items():
                if not mat_is_zero(mat):
                    t[key] = mat
        self.terms = t
        self._frozen = None
        self._sign = 0  # 0 until _signed reads it
        self._neg = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ScalarOp":
        return cls(dim)

    @classmethod
    def term(cls, c: Coefficient, key: OpKey, dim: int) -> "ScalarOp":
        """The single term c * d^alpha Y^u C^k, c times the identity matrix."""
        return cls(dim, {key: identity_matrix(dim, c, _C_ZERO)})

    @classmethod
    def identity(cls, dim: int) -> "ScalarOp":
        return cls.from_coefficient(_C_ONE, dim)

    @classmethod
    def from_coefficient(cls, c: Coefficient, dim: int) -> "ScalarOp":
        return cls.term(c, ((0, 0, 0), 0, 0), dim)

    @classmethod
    def from_matrix(cls, mat: CoeffMatrix) -> "ScalarOp":
        return cls(len(mat), {((0, 0, 0), 0, 0): mat})

    @classmethod
    def deriv_op(cls, j: int, dim: int) -> "ScalarOp":
        alpha = tuple(1 if k == j - 1 else 0 for k in range(3))
        return cls.term(_C_ONE, (alpha, 0, 0), dim)

    @classmethod
    def reflection(cls, dim: int) -> "ScalarOp":
        return cls.term(_C_ONE, ((0, 0, 0), 1, 0), dim)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def kappa_parity(self) -> int | None:
        """0 for linear, 1 for antilinear, None for the zero operator."""
        parities = {k[2] for k in self.terms}
        if not parities:
            return None
        if len(parities) > 1:
            raise ValueError("operator mixes linear and antilinear terms")
        return parities.pop()

    def ratio(self, other: "ScalarOp") -> Scalar | None:
        """The scalar s with self == other.scale(s), or None.

        Divides at the first nonzero scalar of other's normal form, then
        compares the whole operator exactly.
        """
        if not other.terms:
            return None
        if not self.terms:
            return ZERO
        key = min(other.terms)
        r, c, lead = next((r, c, x) for r, row in enumerate(other.terms[key])
                          for c, x in enumerate(row) if not x.is_zero())
        mono, unit = next(iter(lead.num.terms.items()))
        mine = self.terms.get(key)
        num = mine[r][c].num.terms.get(mono, ZERO) if mine else ZERO
        s = num / unit
        return s if self == other.scale(s) else None

    def frozen(self):
        if self._frozen is None:
            self._frozen = (
                self.dim,
                tuple(sorted(self.terms.items(), key=lambda kv: kv[0])),
            )
        return self._frozen

    def __eq__(self, other):
        return (
            type(other) is ScalarOp
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.frozen())

    # -- linear structure -------------------------------------------------

    def _combine(self, other: "ScalarOp", op) -> "ScalarOp":
        """self + other or self - other, as op is operator.add or sub, entry
        by entry; a term of other alone enters as it is or negated."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not other.terms:
            return self
        if not self.terms:
            return other if op is add else -other
        mat_op = mat_add if op is add else mat_sub
        out = dict(self.terms)
        for key, mat in other.terms.items():
            if key in out:
                out[key] = mat_op(out[key], mat)
            else:
                out[key] = mat if op is add else _negated(mat)
        return ScalarOp(self.dim, out)

    def __add__(self, other: "ScalarOp") -> "ScalarOp":
        return self._combine(other, add)

    def __neg__(self) -> "ScalarOp":
        # built once: the pair remember each other, as coefficients do;
        # the negation of a normal form is one, with no entry to drop
        n = self._neg
        if n is None:
            n = ScalarOp(self.dim)
            n.terms = {k: _negated(m) for k, m in self.terms.items()}
            n._sign = -self._sign
            self._neg, n._neg = n, self
        return n

    def __sub__(self, other: "ScalarOp") -> "ScalarOp":
        return self._combine(other, sub)

    def scale(self, c) -> "ScalarOp":
        if isinstance(c, Coefficient):
            coeff = c
        else:
            coeff = Coefficient.const(Scalar._coerce(c))
        return ScalarOp(
            self.dim, {key: mat_scale(coeff, mat) for key, mat in self.terms.items()}
        )

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other: "ScalarOp") -> "ScalarOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not self.terms or not other.terms:
            return ScalarOp.zero(self.dim)
        sa, a = self._signed()
        sb, b = other._signed()
        product = a._product(b)
        return product if sa == sb else -product

    def _signed(self) -> tuple[int, "ScalarOp"]:
        """(sigma, rep) with self == sigma * rep and rep the one of
        {self, -self} whose leading rational is positive (see the module
        docstring).  Nonzero operators only; sigma is cached."""
        if not self._sign:
            mat = self.terms[min(self.terms)]
            lead = next(x for row in mat for x in row if x is not _C_ZERO).num.terms
            radicands = lead[min(lead)].terms
            re, im = radicands[min(radicands)]
            self._sign = 1 if (re or im) > 0 else -1
        return (1, self) if self._sign > 0 else (-1, -self)

    @lru_cache(maxsize=_MEMO_SIZE)
    def _product(self, other: "ScalarOp") -> "ScalarOp":
        acc: dict[OpKey, CoeffMatrix] = {}
        for (alpha, u, k), m1 in self.terms.items():
            for (beta, v, l), m2 in other.terms.items():
                m2p = mat_conj(m2) if k else m2
                if u:
                    m2p = mat_map(Coefficient.reflect, m2p)
                sign = -1 if (u and sum(beta) % 2) else 1
                for gamma, binom, dmat in _leibniz_terms(alpha, m2p):
                    mat = mat_mul(m1, dmat, _C_ZERO)
                    if binom != 1 or sign != 1:
                        mat = mat_scale(
                            Coefficient.const(binom * sign), mat
                        )
                    key = (
                        (
                            alpha[0] - gamma[0] + beta[0],
                            alpha[1] - gamma[1] + beta[1],
                            alpha[2] - gamma[2] + beta[2],
                        ),
                        u ^ v,
                        k ^ l,
                    )
                    if key in acc:
                        acc[key] = mat_add(acc[key], mat)
                    else:
                        acc[key] = mat
        return ScalarOp(self.dim, acc)

    def adjoint(self) -> "ScalarOp":
        """Formal adjoint for the inner product with weight 1/p0.

        Valid for linear operators only.  Uses Y* = Y and
        (d_j)* = -d_j + p_j/p0^2, with matrix factors conjugate
        transposed and the factor order reversed.  Memoized by value, as
        products are.
        """
        if not self.terms:
            return self
        return self._adjoint()

    @lru_cache(maxsize=_MEMO_SIZE)
    def _adjoint(self) -> "ScalarOp":
        if self.kappa_parity() != 0:
            raise ValueError("formal adjoint is defined for linear operators")
        dim = self.dim
        total = ScalarOp.zero(dim)
        for (alpha, u, _k), mat in self.terms.items():
            acc = ScalarOp.from_matrix(mat_dagger(mat))
            for j in (1, 2, 3):
                dadj = _deriv_adjoint(j, dim)
                for _ in range(alpha[j - 1]):
                    acc = dadj * acc
            if u:
                acc = ScalarOp.reflection(dim) * acc
            total = total + acc
        return total

    def conjugate(self) -> "ScalarOp":
        """The involution of the operator ring, i.e. the formal adjoint, so
        that the exactnum matrix helpers serve block operators too."""
        return self.adjoint()

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (alpha, u, k) in sorted(self.terms):
            mat = self.terms[(alpha, u, k)]
            if self.dim == 1:
                body = repr(mat[0][0])
                if " + " in body:
                    body = f"({body})"
            else:
                body = "[" + "; ".join(
                    ", ".join(repr(x) for x in row) for row in mat
                ) + "]"
            for j, e in enumerate(alpha, start=1):
                if e == 1:
                    body += f"*d{j}"
                elif e > 1:
                    body += f"*d{j}^{e}"
            if u:
                body += "*Y"
            if k:
                body += "*C"
            parts.append(body)
        return " + ".join(parts)


@lru_cache(maxsize=_MEMO_SIZE)
def _deriv_adjoint(j: int, dim: int) -> ScalarOp:
    # (d_j)* = -d_j + p_j / p0^2
    alpha = tuple(1 if k == j - 1 else 0 for k in range(3))
    neg_d = ScalarOp.term(-_C_ONE, (alpha, 0, 0), dim)
    corr = ScalarOp.from_coefficient(
        Coefficient(Poly.sym(f"p{j}"), 2, 0), dim
    )
    return neg_d + corr


def _leibniz_terms(alpha: tuple[int, int, int], mat: CoeffMatrix):
    """Yield (gamma, binomial, d^gamma mat) for gamma <= alpha."""
    derivs: dict[tuple[int, int, int], CoeffMatrix] = {(0, 0, 0): mat}

    def get(gamma):
        if gamma in derivs:
            return derivs[gamma]
        for j in (1, 2, 3):
            if gamma[j - 1]:
                lower = list(gamma)
                lower[j - 1] -= 1
                base = get(tuple(lower))
                out = mat_map(methodcaller("deriv", j), base)
                derivs[gamma] = out
                return out
        raise AssertionError

    for g1 in range(alpha[0] + 1):
        for g2 in range(alpha[1] + 1):
            for g3 in range(alpha[2] + 1):
                gamma = (g1, g2, g3)
                binom = (
                    comb(alpha[0], g1) * comb(alpha[1], g2) * comb(alpha[2], g3)
                )
                yield gamma, binom, get(gamma)


# -- block operators -------------------------------------------------------


class BlockOp:
    """A blocks x blocks matrix of ScalarOp entries sharing one spin dim."""

    __slots__ = ("blocks", "dim", "entries", "_hash")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        blocks = len(entries)
        if any(len(row) != blocks for row in entries):
            raise ValueError("block matrix must be square")
        dims = {op.dim for row in entries for op in row}
        if len(dims) != 1:
            raise ValueError("blocks must share the spin dimension")
        self.blocks = blocks
        self.dim = dims.pop()
        self.entries = entries
        self._hash = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, blocks: int, dim: int) -> "BlockOp":
        return cls(zero_matrix(blocks, zero=ScalarOp.zero(dim)))

    @classmethod
    def identity(cls, blocks: int, dim: int) -> "BlockOp":
        return cls(identity_matrix(blocks, ScalarOp.identity(dim), ScalarOp.zero(dim)))

    @classmethod
    def diag(cls, ops) -> "BlockOp":
        ops = tuple(ops)
        return cls(diagonal(ops, ScalarOp.zero(ops[0].dim)))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "BlockOp") -> "BlockOp":
        self._check_shape(other)
        return BlockOp(mat_add(self.entries, other.entries))

    def __neg__(self) -> "BlockOp":
        return BlockOp(mat_map(neg, self.entries))

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        self._check_shape(other)
        return BlockOp(mat_sub(self.entries, other.entries))

    def scale(self, c) -> "BlockOp":
        return BlockOp([[op.scale(c) for op in row] for row in self.entries])

    def __mul__(self, other: "BlockOp") -> "BlockOp":
        self._check_shape(other)
        return BlockOp(mat_mul(self.entries, other.entries, ScalarOp.zero(self.dim)))

    def adjoint(self) -> "BlockOp":
        if self.kappa_parity() not in (None, 0):
            raise ValueError("formal adjoint is defined for linear operators")
        return BlockOp(mat_dagger(self.entries))

    # -- structure ---------------------------------------------------------

    def _check_shape(self, other: "BlockOp") -> None:
        if self.blocks != other.blocks or self.dim != other.dim:
            raise ValueError("block shape mismatch")

    def is_zero(self) -> bool:
        return mat_is_zero(self.entries)

    def kappa_parity(self) -> int | None:
        parities = set()
        for row in self.entries:
            for op in row:
                p = op.kappa_parity()
                if p is not None:
                    parities.add(p)
        if not parities:
            return None
        if len(parities) > 1:
            raise ValueError("block operator mixes linear and antilinear entries")
        return parities.pop()

    def ratio(self, other: "BlockOp") -> Scalar | None:
        """The scalar s with self == other.scale(s), or None: ScalarOp.ratio
        at other's first nonzero entry, checked on the whole operator."""
        self._check_shape(other)
        for mine, op in zip(chain(*self.entries), chain(*other.entries)):
            if op.terms:
                s = mine.ratio(op)
                return s if s is not None and self == other.scale(s) else None
        return None

    def factor(self) -> tuple[Matrix, ScalarOp] | None:
        """(P, g) with self == P (x) g, or None if no such pair exists.

        g is the first nonzero entry and P the matrix of exact scalars
        with entry (r, c) == P[r][c] * g, each found by ScalarOp.ratio.
        """
        g = next((op for row in self.entries for op in row if op.terms), None)
        if g is None:
            return None
        pattern = mat_map(lambda op: op.ratio(g), self.entries)
        if any(s is None for row in pattern for s in row):
            return None
        return pattern, g

    def __eq__(self, other):
        return (
            isinstance(other, BlockOp)
            and self.blocks == other.blocks
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self):
        if self.blocks == 1:
            return repr(self.entries[0][0])
        rows = []
        for row in self.entries:
            rows.append("[" + " | ".join(repr(op) for op in row) + "]")
        return "[" + "  ".join(rows) + "]"


# -- exact relation sums ----------------------------------------------------


class RelationSum:
    """An exact sum of weighted words of BlockOps (see the module docstring).

    Each block entry (r, c, term key, spin entry i, j) maps every
    coefficient fed into it, by identity (which is value, coefficients
    being hash-consed), to its total weight (re, im), the
    Gaussian rational re + i*im; each entry's flat map is built when the
    sum is read.
    """

    __slots__ = ("blocks", "dim", "_entries")

    def __init__(self, blocks: int, dim: int):
        self.blocks = blocks
        self.dim = dim
        self._entries: dict[tuple, dict[Coefficient, tuple]] = {}

    def add(self, weight: Scalar, factors) -> None:
        """Add weight times the product of the BlockOps in factors, left to
        right; no factors is the identity.  weight is a Gaussian rational."""
        if set(weight.terms) - {1}:
            raise ValueError(f"weight must be a Gaussian rational, got {weight!r}")
        re, im = weight.terms.get(1, (0, 0))
        if any(f.blocks != self.blocks or f.dim != self.dim for f in factors):
            raise ValueError("block shape mismatch")
        entries = self._entries
        for r, c, op in self._paths(factors):
            for key, mat in op.terms.items():
                for i, row in enumerate(mat):
                    for j, x in enumerate(row):
                        if x is not _C_ZERO:
                            pos = (r, c, key, i, j)
                            fed = entries.get(pos)
                            if fed is None:
                                entries[pos] = {x: (re, im)}
                            else:
                                w = fed.get(x)
                                fed[x] = (re, im) if w is None else \
                                    (w[0] + re, w[1] + im)

    def _paths(self, factors):
        """(r, c, op) over the block paths of the product: op the entry
        of a single factor, else each nonzero A[r][k]*B[k][c] of the last
        two factors, A the product of all but the last."""
        if not factors:
            one = ScalarOp.identity(self.dim)
            for r in range(self.blocks):
                yield r, r, one
            return
        left = factors[0]
        if len(factors) == 1:
            for r, row in enumerate(left.entries):
                for c, op in enumerate(row):
                    yield r, c, op
            return
        for f in factors[1:-1]:
            left = left * f
        right = factors[-1].entries
        for r, row in enumerate(left.entries):
            for k, x in enumerate(row):
                if x.terms:
                    for c, y in enumerate(right[k]):
                        if y.terms:
                            yield r, c, x * y

    def _numerators(self):
        """(entry, (a, b), numerator) for each entry whose sum is nonzero,
        the numerator {monomial: {radicand: (re, im)}} over the entry's
        common denominator p0^a (mu+p0)^b, built from the entry's own flat
        map (monomial, radicand) -> (re, im)."""
        for pos, fed in self._entries.items():
            live = [(x, re, im) for x, (re, im) in fed.items() if re or im]
            if not live:
                continue
            a = max(x.a for x, _re, _im in live)
            b = max(x.b for x, _re, _im in live)
            values = {}
            for x, re, im in live:
                for mono, s in x.lifted(a, b).terms.items():
                    for n, (sr, si) in s.terms.items():
                        key = (mono, n)
                        # most weights are real or imaginary units; the
                        # products they skip are in Python for Fractions
                        if not im:
                            vr, vi = (sr, si) if re == 1 else (re * sr, re * si)
                        elif not re:
                            vr, vi = -im * si, im * sr
                        else:
                            vr, vi = re * sr - im * si, re * si + im * sr
                        prev = values.get(key)
                        values[key] = (vr, vi) if prev is None else \
                            (prev[0] + vr, prev[1] + vi)
            num: dict[Mono, dict] = {}
            for (mono, n), (re, im) in values.items():
                if re or im:
                    num.setdefault(mono, {})[n] = (_canon(re), _canon(im))
            if num:
                yield pos, (a, b), num

    def block_op(self) -> BlockOp:
        """The sum in normal form."""
        dim = self.dim
        terms = [[{} for _c in range(self.blocks)] for _r in range(self.blocks)]
        for (r, c, key, i, j), den, num in self._numerators():
            mat = terms[r][c].setdefault(key, [[_C_ZERO] * dim for _ in range(dim)])
            mat[i][j] = Coefficient(
                Poly({m: Scalar(t) for m, t in num.items()}), *den)
        if not any(t for row in terms for t in row):
            return BlockOp.zero(self.blocks, dim)
        return BlockOp([
            [ScalarOp(dim, {key: tuple(map(tuple, mat)) for key, mat in t.items()})
             for t in row]
            for row in terms])


@lru_cache(maxsize=_MEMO_SIZE)
def relation_residual(blocks: int, dim: int, terms) -> BlockOp | None:
    """None if the sum of weight * word over terms vanishes, else the sum
    in normal form: terms are (Gaussian rational, tuple of BlockOps)
    pairs, summed once in a RelationSum.  Memoized by value.

    The sum is an operator in its own right, so besides a relation's
    residual this forms operators defined as sums of words, each lifted
    to one common denominator per entry and normalized once: the
    catalog's Pauli-Lubanski vector W0..W3 (catalog.pauli_lubanski),
    whose vanishing W0 at spin 0 comes back as None."""
    acc = RelationSum(blocks, dim)
    for weight, word in terms:
        acc.add(weight, word)
    total = acc.block_op()  # each entry's flat map is built once
    return None if total.is_zero() else total


# -- memos -----------------------------------------------------------------


_MEMOS = {
    "coefficient_product": Coefficient._product,
    "coefficient_deriv": Coefficient._deriv,
    "operator_product": ScalarOp._product,
    "operator_adjoint": ScalarOp._adjoint,
    "denominator_lift": _lift,
    "relation_verdict": relation_residual,
}


def clear_multiplication_cache() -> None:
    """Empty every memo: the coefficient product and derivative, operator
    product and adjoint, denominator lift and relation verdict memos."""
    for memo in _MEMOS.values():
        memo.cache_clear()


def cache_info() -> dict:
    """Hits, misses, maxsize and currsize of each memo, by name (a memo's
    hit rate is hits / (hits + misses)), and under interned_coefficients
    the number of live Coefficients in the hash-consing table."""
    info = {name: memo.cache_info() for name, memo in _MEMOS.items()}
    info["interned_coefficients"] = len(_INTERNED)
    return info
