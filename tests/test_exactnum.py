"""Exact scalar field and matrix helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poincarelab.exactnum import (
    I,
    ONE,
    ZERO,
    Scalar,
    _prime_factors,
    identity_matrix,
    mat_dagger,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_sub,
    nullspace,
    rat,
    squarefree_split,
    zero_matrix,
)

RNG = random.Random(20518)


def _rand_scalar(allow_zero=False):
    terms = {}
    for n in (1, 2, 3):
        if RNG.random() < 0.6:
            terms[n] = (
                Fraction(RNG.randint(-6, 6), RNG.randint(1, 5)),
                Fraction(RNG.randint(-6, 6), RNG.randint(1, 5)),
            )
    s = Scalar(terms)
    if not allow_zero and s.is_zero():
        return ONE
    return s


@pytest.mark.parametrize(
    "n,expected",
    [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (18, (3, 2)), (49, (7, 1)), (360, (6, 10))],
)
def test_squarefree_split(n, expected):
    assert squarefree_split(n) == expected


def test_sqrt_int_normal_form():
    assert Scalar.sqrt_int(12).terms == {3: (Fraction(2), Fraction(0))}
    assert Scalar.sqrt_int(49) == rat(7)
    assert Scalar.sqrt_int(0) == ZERO


def test_arithmetic_matches_complex():
    for _ in range(200):
        a, b = _rand_scalar(allow_zero=True), _rand_scalar(allow_zero=True)
        za, zb = a.to_complex(), b.to_complex()
        assert abs((a + b).to_complex() - (za + zb)) < 1e-12
        assert abs((a - b).to_complex() - (za - zb)) < 1e-12
        assert abs((a * b).to_complex() - (za * zb)) < 1e-10


def test_exact_inverse():
    samples = [
        ONE + Scalar.sqrt_int(2),
        Scalar.sqrt_int(2) + Scalar.sqrt_int(3) + I,
        rat(3, 7) * Scalar.sqrt_int(5) - rat(2) * I * Scalar.sqrt_int(3),
        rat(-5, 3),
        I,
    ]
    for _ in range(30):
        samples.append(_rand_scalar())
    for s in samples:
        assert s * s.inverse() == ONE
        assert (ONE / s) * s == ONE


# squarefree radicands over the primes 2, 3, 5 and 7, with complex
# rational coefficients: inverse() peels one prime per recursion level
_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)
field_scalars = st.dictionaries(
    st.sampled_from((1, 2, 3, 5, 6, 7, 10, 15, 21, 30, 35, 210)),
    st.tuples(_coefficients, _coefficients),
    max_size=4,
).map(Scalar)
FIELD_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                          max_examples=60)


@FIELD_SETTINGS
@given(field_scalars)
def test_inverse_is_two_sided(x):
    assume(not x.is_zero())
    assert x * x.inverse() == ONE
    assert x.inverse() * x == ONE


@FIELD_SETTINGS
@given(field_scalars, field_scalars)
def test_inverse_of_product(a, b):
    assume(not (a.is_zero() or b.is_zero()))
    assert (a * b).inverse() == a.inverse() * b.inverse()


@FIELD_SETTINGS
@given(field_scalars, field_scalars, field_scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_field_identities():
    for _ in range(50):
        a, b, c = _rand_scalar(True), _rand_scalar(True), _rand_scalar(True)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_real_imag_split():
    for _ in range(20):
        s = _rand_scalar(True)
        re, im = s.real_imag()
        assert re.conjugate() == re and im.conjugate() == im
        assert re + I * im == s


def test_rationality_predicates():
    # real: a zero imaginary part
    assert rat(2, 3).real_imag()[1] == ZERO
    assert (rat(1) + I).real_imag()[1] == ONE
    assert Scalar.sqrt_int(2).real_imag()[1] == ZERO


def _rand_matrix(n):
    return tuple(tuple(_rand_scalar(True) for _ in range(n)) for _ in range(n))


def test_matrix_algebra():
    for _ in range(10):
        a, b, c = _rand_matrix(3), _rand_matrix(3), _rand_matrix(3)
        assert mat_eq(mat_mul(mat_mul(a, b), c), mat_mul(a, mat_mul(b, c)))
        assert mat_eq(mat_mul(a, identity_matrix(3)), a)
        assert mat_eq(mat_dagger(mat_dagger(a)), a)
        assert mat_eq(
            mat_dagger(mat_mul(a, b)), mat_mul(mat_dagger(b), mat_dagger(a))
        )
    assert mat_is_zero(zero_matrix(2))


def _apply_rows(rows, vec):
    """Each sparse row times the sparse vector."""
    out = []
    for row in rows:
        acc = ZERO
        for c, x in row.items():
            if c in vec:
                acc = acc + x * vec[c]
        out.append(acc)
    return out


def _sparse(dense_rows):
    return [{c: x for c, x in enumerate(row) if x} for row in dense_rows]


def test_nullspace_known_system():
    # x1 + x2 = 0, x3 - x4 = 0 in 4 unknowns: nullity 2
    rows = [{0: ONE, 1: ONE}, {2: ONE, 3: -ONE}]
    basis = nullspace(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        assert all(x.is_zero() for x in _apply_rows(rows, vec))


def test_nullspace_full_rank_and_degenerate():
    rows = [{0: ONE}, {1: ONE}]
    assert nullspace(rows, 2) == []
    assert nullspace([], 3) == [{0: ONE}, {1: ONE}, {2: ONE}]
    # entries beyond ncols are ignored, and the rows are left as given
    wide = [{0: ONE, 2: ONE}]
    assert nullspace(wide, 2) == [{1: ONE}]
    assert wide == [{0: ONE, 2: ONE}]


def test_nullspace_with_radicals():
    rows = [{0: ONE, 1: Scalar.sqrt_int(2)}]
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    vec = basis[0]
    assert (vec.get(0, ZERO) + Scalar.sqrt_int(2) * vec.get(1, ZERO)).is_zero()
    assert any(not x.is_zero() for x in vec.values())


def test_random_nullspace_consistency():
    for _ in range(10):
        nrows, ncols = RNG.randint(1, 4), RNG.randint(2, 5)
        rows = _sparse(
            [_rand_scalar(True) for _ in range(ncols)] for _ in range(nrows))
        for vec in nullspace(rows, ncols):
            assert all(x.is_zero() for x in _apply_rows(rows, vec))


# -- canonical rationals ------------------------------------------------------
# Each rational component of a Scalar is an int when it is integral and
# otherwise a Fraction with denominator > 1.  FractionScalar is the Scalar
# arithmetic from before that rule, every component a Fraction and a
# difference the sum with a negated copy, kept here as the oracle of the
# values.


class FractionScalar:
    """sum_n (a_n + b_n*i) * sqrt(n) with Fraction a_n, b_n."""

    def __init__(self, terms):
        self.terms = {n: (Fraction(re), Fraction(im))
                      for n, (re, im) in terms.items() if re or im}

    def __add__(self, other):
        out = dict(self.terms)
        for n, (re, im) in other.terms.items():
            if n in out:
                a, b = out[n]
                out[n] = (a + re, b + im)
            else:
                out[n] = (re, im)
        return FractionScalar(out)

    def __neg__(self):
        return FractionScalar({n: (-re, -im) for n, (re, im) in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for n1, (a1, b1) in self.terms.items():
            for n2, (a2, b2) in other.terms.items():
                g, m = (n1, 1) if n1 == n2 else squarefree_split(n1 * n2)
                re = (a1 * a2 - b1 * b2) * g
                im = (a1 * b2 + b1 * a2) * g
                c, d = out.get(m, (Fraction(0), Fraction(0)))
                out[m] = (c + re, d + im)
        return FractionScalar(out)

    def inverse(self):
        primes = {p for n in self.terms for p in _prime_factors(n)}
        if not primes:
            re, im = self.terms[1]
            d = re * re + im * im
            return FractionScalar({1: (re / d, -im / d)})
        p = max(primes)
        a = FractionScalar({n: c for n, c in self.terms.items() if n % p})
        b = FractionScalar({n // p: c for n, c in self.terms.items()
                            if n % p == 0})
        denom = a * a - b * b * FractionScalar({1: (p, 0)})
        b_sqrtp = FractionScalar({n * p: c for n, c in b.terms.items()})
        return (a - b_sqrtp) * denom.inverse()

    def conjugate(self):
        return FractionScalar({n: (re, -im) for n, (re, im) in self.terms.items()})

    def real_imag(self):
        return (FractionScalar({n: (r, 0) for n, (r, _) in self.terms.items()}),
                FractionScalar({n: (i, 0) for n, (_, i) in self.terms.items()}))


def _is_canonical(x: Scalar) -> bool:
    return all(
        type(q) is int or (type(q) is Fraction and q.denominator > 1)
        for re_im in x.terms.values() for q in re_im
    )


# integral components, drawn as ints and as Fractions with denominator 1,
# and fractional ones, on radicands over the primes 2, 3 and 5
_parts = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
surd_terms = st.dictionaries(
    st.sampled_from((1, 2, 3, 5, 6, 10, 15, 30)),
    st.tuples(_parts, _parts),
    max_size=3,
)


def _surd(terms) -> tuple[Scalar, FractionScalar]:
    """The scalar with these terms, built by the public constructors and
    arithmetic, and its oracle."""
    x = ZERO
    for n, (re, im) in terms.items():
        x = x + Scalar.from_rational(re, im) * Scalar.sqrt_int(n)
    return x, FractionScalar(terms)


@FIELD_SETTINGS
@given(surd_terms, surd_terms)
def test_arithmetic_is_canonical_and_matches_fraction_oracle(ta, tb):
    (a, fa), (b, fb) = _surd(ta), _surd(tb)
    results = [(a, fa), (b, fb), (a + b, fa + fb), (a - b, fa - fb),
               (a * b, fa * fb), (-a, -fa), (a.conjugate(), fa.conjugate())]
    results += zip(a.real_imag(), fa.real_imag())
    if not b.is_zero():
        results += [(a / b, fa * fb.inverse()), (b.inverse(), fb.inverse())]
    for x, oracle in results:
        assert _is_canonical(x), x.terms
        assert x.terms == oracle.terms


def test_inverse_of_an_integer_is_an_exact_fraction():
    half = Scalar.from_rational(2).inverse()
    assert half.terms == {1: (Fraction(1, 2), 0)}
    re, im = half.terms[1]
    assert type(re) is Fraction and type(im) is int


def test_integral_rationals_are_ints_with_equal_hashes():
    two = Scalar.from_rational(2)
    assert rat(4, 2) == two and hash(rat(4, 2)) == hash(two)
    assert type(rat(4, 2).terms[1][0]) is int
    # a Scalar built directly from Fraction components is structurally the
    # same value, hash and text
    direct = Scalar({1: (Fraction(2), Fraction(0))})
    assert direct == two and hash(direct) == hash(two)
    assert repr(direct) == repr(two) == "2"
