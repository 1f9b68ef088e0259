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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactnum import ONE, Scalar, ZERO

# Monomial exponents, in the order (mu, p1, p2, p3, p0); p0 exponent <= 1.
Mono = tuple[int, int, int, int, int]

_SYMS = {"mu": 0, "p1": 1, "p2": 2, "p3": 3, "p0": 4}


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

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

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

    def max_exp(self, axis: int) -> int:
        return max((m[axis] for m in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

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


class Coefficient:
    """num / (p0^a * (mu+p0)^b) with num reduced and the fraction minimal."""

    __slots__ = ("num", "a", "b", "_hash")

    def __init__(self, num: Poly, a: int = 0, b: int = 0):
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
        self.num = num
        self.a = a
        self.b = b
        self._hash = None

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, c) -> "Coefficient":
        return cls(Poly.const(c))

    @classmethod
    def sym(cls, name: str) -> "Coefficient":
        return cls(Poly.sym(name))

    @classmethod
    def zero(cls) -> "Coefficient":
        return cls(Poly())

    # -- arithmetic ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        n1 = _scale_denominators(self.num, a - self.a, b - self.b)
        n2 = _scale_denominators(other.num, a - other.a, b - other.b)
        return Coefficient(n1 + n2, a, b)

    def __neg__(self) -> "Coefficient":
        out = Coefficient.__new__(Coefficient)
        out.num = -self.num
        out.a = self.a
        out.b = self.b
        out._hash = None
        return out

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if self.is_zero() or other.is_zero():
            return _C_ZERO
        return Coefficient(self.num * other.num, self.a + other.a,
                           self.b + other.b)

    def scale(self, c) -> "Coefficient":
        c = Scalar._coerce(c)
        if not c:
            return _C_ZERO
        out = Coefficient.__new__(Coefficient)
        out.num = self.num.scale(c)
        out.a = self.a
        out.b = self.b
        out._hash = None
        return out

    def conjugate(self) -> "Coefficient":
        out = Coefficient.__new__(Coefficient)
        out.num = self.num.conjugate()
        out.a = self.a
        out.b = self.b
        out._hash = None
        return out

    def reflect(self) -> "Coefficient":
        """p -> -p; both denominator factors are reflection invariant."""
        out = Coefficient.__new__(Coefficient)
        out.num = self.num.reflect()
        out.a = self.a
        out.b = self.b
        out._hash = None
        return out

    def deriv(self, j: int) -> "Coefficient":
        """Mass-shell derivative d/dp_j with d_j p0 = p_j / p0."""
        if self.is_zero():
            return _C_ZERO
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
        mu_p0 = Poly.sym("mu") + Poly.sym("p0")
        t1 = (a_poly.mul_p0() + b_poly).mul_p0() * mu_p0
        t2 = (self.num * pj * mu_p0).scale(Scalar.from_rational(-self.a))
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

    def as_constant(self) -> Scalar | None:
        """The scalar value if this coefficient is constant, else None."""
        if self.is_zero():
            return ZERO
        if self.a or self.b:
            return None
        if set(self.num.terms) == {(0, 0, 0, 0, 0)}:
            return self.num.terms[(0, 0, 0, 0, 0)]
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Coefficient)
            and self.a == other.a
            and self.b == other.b
            and self.num == other.num
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((hash(self.num), self.a, self.b))
        return self._hash

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


def _scale_denominators(num: Poly, da: int, db: int) -> Poly:
    for _ in range(da):
        num = num.mul_p0()
    if db:
        mu_p0 = Poly.sym("mu") + Poly.sym("p0")
        for _ in range(db):
            num = num * mu_p0
    return num


_C_ZERO = Coefficient(Poly())
_C_ONE = Coefficient.const(1)


# -- matrices of coefficients -------------------------------------------

CoeffMatrix = tuple[tuple[Coefficient, ...], ...]


def _cmat_identity(dim: int) -> CoeffMatrix:
    return tuple(
        tuple(_C_ONE if r == c else _C_ZERO for c in range(dim))
        for r in range(dim)
    )


def _cmat_zero(dim: int) -> CoeffMatrix:
    return tuple(tuple(_C_ZERO for _ in range(dim)) for _ in range(dim))


def _cmat_add(a: CoeffMatrix, b: CoeffMatrix) -> CoeffMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _cmat_neg(a: CoeffMatrix) -> CoeffMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def _cmat_mul(a: CoeffMatrix, b: CoeffMatrix) -> CoeffMatrix:
    dim = len(a)
    out = []
    for r in range(dim):
        row = []
        for c in range(dim):
            acc = _C_ZERO
            for k in range(dim):
                x, y = a[r][k], b[k][c]
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)

def _cmat_scale(c: Coefficient, a: CoeffMatrix) -> CoeffMatrix:
    return tuple(tuple(c * x for x in row) for row in a)


def _cmat_conj(a: CoeffMatrix) -> CoeffMatrix:
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def _cmat_reflect(a: CoeffMatrix) -> CoeffMatrix:
    return tuple(tuple(x.reflect() for x in row) for row in a)


def _cmat_deriv(a: CoeffMatrix, j: int) -> CoeffMatrix:
    return tuple(tuple(x.deriv(j) for x in row) for row in a)


def _cmat_dagger(a: CoeffMatrix) -> CoeffMatrix:
    dim = len(a)
    return tuple(
        tuple(a[c][r].conjugate() for c in range(dim)) for r in range(dim)
    )


def _cmat_is_zero(a: CoeffMatrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


# -- scalar operators -----------------------------------------------------

# term key: (alpha, upsilon, kappa) with alpha the derivative multi-index
OpKey = tuple[tuple[int, int, int], int, int]

_MUL_MEMO: dict[tuple, "ScalarOp"] = {}


class ScalarOp:
    """Operator on L2(R^3, C^dim, dnu) in normal form.

    terms maps (alpha, u, k) to a dim x dim matrix of Coefficient
    entries; the represented operator is the sum over keys of
    M(p) d^alpha Y^u C^k in that factor order.
    """

    __slots__ = ("dim", "terms", "_frozen")

    def __init__(self, dim: int, terms: dict[OpKey, CoeffMatrix] | None = None):
        self.dim = dim
        t = {}
        if terms:
            for key, mat in terms.items():
                if not _cmat_is_zero(mat):
                    t[key] = mat
        self.terms = t
        self._frozen = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ScalarOp":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "ScalarOp":
        return cls(dim, {((0, 0, 0), 0, 0): _cmat_identity(dim)})

    @classmethod
    def from_coefficient(cls, c: Coefficient, dim: int) -> "ScalarOp":
        return cls(dim, {((0, 0, 0), 0, 0): _cmat_scale(c, _cmat_identity(dim))})

    @classmethod
    def from_matrix(cls, mat: CoeffMatrix) -> "ScalarOp":
        return cls(len(mat), {((0, 0, 0), 0, 0): mat})

    @classmethod
    def deriv_op(cls, j: int, dim: int) -> "ScalarOp":
        alpha = tuple(1 if k == j - 1 else 0 for k in range(3))
        return cls(dim, {(alpha, 0, 0): _cmat_identity(dim)})

    @classmethod
    def reflection(cls, dim: int) -> "ScalarOp":
        return cls(dim, {((0, 0, 0), 1, 0): _cmat_identity(dim)})

    @classmethod
    def conjugation(cls, dim: int) -> "ScalarOp":
        return cls(dim, {((0, 0, 0), 0, 1): _cmat_identity(dim)})

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

    def frozen(self):
        if self._frozen is None:
            self._frozen = (
                self.dim,
                tuple(sorted(self.terms.items(), key=lambda kv: kv[0])),
            )
        return self._frozen

    def __eq__(self, other):
        return (
            isinstance(other, ScalarOp)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.frozen())

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "ScalarOp") -> "ScalarOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, mat in other.terms.items():
            if key in out:
                out[key] = _cmat_add(out[key], mat)
            else:
                out[key] = mat
        return ScalarOp(self.dim, out)

    def __neg__(self) -> "ScalarOp":
        return ScalarOp(self.dim, {k: _cmat_neg(m) for k, m in self.terms.items()})

    def __sub__(self, other: "ScalarOp") -> "ScalarOp":
        return self + (-other)

    def scale(self, c) -> "ScalarOp":
        if isinstance(c, Coefficient):
            coeff = c
        else:
            coeff = Coefficient.const(Scalar._coerce(c))
        out = {}
        for key, mat in self.terms.items():
            out[key] = _cmat_scale(coeff, mat)
        return ScalarOp(self.dim, out)

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other: "ScalarOp") -> "ScalarOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not self.terms or not other.terms:
            return ScalarOp.zero(self.dim)
        memo_key = (self.frozen(), other.frozen())
        hit = _MUL_MEMO.get(memo_key)
        if hit is not None:
            return hit
        acc: dict[OpKey, CoeffMatrix] = {}
        for (alpha, u, k), m1 in self.terms.items():
            for (beta, v, l), m2 in other.terms.items():
                m2p = _cmat_conj(m2) if k else m2
                if u:
                    m2p = _cmat_reflect(m2p)
                sign = -1 if (u and sum(beta) % 2) else 1
                for gamma, binom, dmat in _leibniz_terms(alpha, m2p):
                    mat = _cmat_mul(m1, dmat)
                    if binom != 1 or sign != 1:
                        mat = _cmat_scale(
                            Coefficient.const(Fraction(binom * sign)), mat
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
                        acc[key] = _cmat_add(acc[key], mat)
                    else:
                        acc[key] = mat
        out = ScalarOp(self.dim, acc)
        _MUL_MEMO[memo_key] = out
        return out

    def adjoint(self) -> "ScalarOp":
        """Formal adjoint for the inner product with weight 1/p0.

        Valid for linear operators only.  Uses Y* = Y and
        (d_j)* = -d_j + p_j/p0^2, with matrix factors conjugate
        transposed and the factor order reversed.
        """
        if self.kappa_parity() not in (None, 0):
            raise ValueError("formal adjoint is defined for linear operators")
        dim = self.dim
        total = ScalarOp.zero(dim)
        for (alpha, u, _k), mat in self.terms.items():
            acc = ScalarOp.from_matrix(_cmat_dagger(mat))
            for j in (1, 2, 3):
                dadj = _deriv_adjoint(j, dim)
                for _ in range(alpha[j - 1]):
                    acc = dadj * acc
            if u:
                acc = ScalarOp.reflection(dim) * acc
            total = total + acc
        return total

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


@lru_cache(maxsize=None)
def _deriv_adjoint(j: int, dim: int) -> ScalarOp:
    # (d_j)* = -d_j + p_j / p0^2
    alpha = tuple(1 if k == j - 1 else 0 for k in range(3))
    neg_d = ScalarOp(dim, {(alpha, 0, 0): _cmat_neg(_cmat_identity(dim))})
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
                out = _cmat_deriv(base, j)
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


def clear_multiplication_cache() -> None:
    _MUL_MEMO.clear()


# -- block operators -------------------------------------------------------


class BlockOp:
    """A blocks x blocks matrix of ScalarOp entries sharing one spin dim."""

    __slots__ = ("blocks", "dim", "entries")

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

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, blocks: int, dim: int) -> "BlockOp":
        z = ScalarOp.zero(dim)
        return cls([[z] * blocks for _ in range(blocks)])

    @classmethod
    def identity(cls, blocks: int, dim: int) -> "BlockOp":
        z = ScalarOp.zero(dim)
        e = ScalarOp.identity(dim)
        return cls(
            [[e if r == c else z for c in range(blocks)] for r in range(blocks)]
        )

    @classmethod
    def diag(cls, ops) -> "BlockOp":
        ops = list(ops)
        z = ScalarOp.zero(ops[0].dim)
        n = len(ops)
        return cls(
            [[ops[r] if r == c else z for c in range(n)] for r in range(n)]
        )

    @classmethod
    def single(cls, op: ScalarOp) -> "BlockOp":
        return cls([[op]])

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "BlockOp") -> "BlockOp":
        self._check_shape(other)
        return BlockOp(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "BlockOp":
        return BlockOp([[-op for op in row] for row in self.entries])

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        return self + (-other)

    def scale(self, c) -> "BlockOp":
        return BlockOp([[op.scale(c) for op in row] for row in self.entries])

    def __mul__(self, other: "BlockOp") -> "BlockOp":
        self._check_shape(other)
        n = self.blocks
        z = ScalarOp.zero(self.dim)
        out = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = z
                for k in range(n):
                    a, b = self.entries[r][k], other.entries[k][c]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return BlockOp(out)

    def adjoint(self) -> "BlockOp":
        if self.kappa_parity() not in (None, 0):
            raise ValueError("formal adjoint is defined for linear operators")
        n = self.blocks
        return BlockOp(
            [
                [self.entries[c][r].adjoint() for c in range(n)]
                for r in range(n)
            ]
        )

    def commutator(self, other: "BlockOp") -> "BlockOp":
        if self.kappa_parity() not in (None, 0) or other.kappa_parity() not in (None, 0):
            raise ValueError("commutator requires linear operators")
        return self * other - other * self

    # -- structure ---------------------------------------------------------

    def _check_shape(self, other: "BlockOp") -> None:
        if self.blocks != other.blocks or self.dim != other.dim:
            raise ValueError("block shape mismatch")

    def is_zero(self) -> bool:
        return all(op.is_zero() for row in self.entries for op in row)

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

    def is_antilinear(self) -> bool:
        return self.kappa_parity() == 1

    def as_constant(self) -> Scalar | None:
        """The scalar c if the operator equals c times the identity."""
        value: Scalar | None = None
        for r in range(self.blocks):
            for c in range(self.blocks):
                op = self.entries[r][c]
                if r != c:
                    if not op.is_zero():
                        return None
                    continue
                if op.is_zero():
                    entry = ZERO
                else:
                    if set(op.terms) != {((0, 0, 0), 0, 0)}:
                        return None
                    mat = op.terms[((0, 0, 0), 0, 0)]
                    entry = None
                    for i in range(op.dim):
                        for jj in range(op.dim):
                            cval = mat[i][jj].as_constant()
                            if cval is None:
                                return None
                            if i == jj:
                                if entry is None:
                                    entry = cval
                                elif entry != cval:
                                    return None
                            elif not cval.is_zero():
                                return None
                    if entry is None:
                        return None
                if value is None:
                    value = entry
                elif value != entry:
                    return None
        return value

    def leading_constant(self) -> Scalar | None:
        """First nonzero constant coefficient in block then key order."""
        for row in self.entries:
            for op in row:
                for key in sorted(op.terms):
                    mat = op.terms[key]
                    for r in mat:
                        for x in r:
                            if not x.is_zero():
                                return x.as_constant()
        return None

    def __eq__(self, other):
        return (
            isinstance(other, BlockOp)
            and self.blocks == other.blocks
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(tuple(tuple(op.frozen() for op in row) for row in self.entries))

    def __repr__(self):
        if self.blocks == 1:
            return repr(self.entries[0][0])
        rows = []
        for row in self.entries:
            rows.append("[" + " | ".join(repr(op) for op in row) + "]")
        return "[" + "  ".join(rows) + "]"


# -- public functional API --------------------------------------------------


def commutator(a: BlockOp, b: BlockOp) -> BlockOp:
    return a.commutator(b)
