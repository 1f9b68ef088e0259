"""Operator engine: normal forms, derivatives, products, adjoints.

The mass-shell derivative and the fraction normal form are cross-checked
against sympy with p0 written out as sqrt(mu^2 + |p|^2), so none of the
expected values below depend on the engine's own arithmetic.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp

from poincarelab import catalog, symop
from poincarelab.cli import main
from poincarelab.exactnum import I, ONE, Scalar, rat
from poincarelab.symop import (
    _MEMO_SIZE,
    BlockOp,
    Coefficient,
    Poly,
    ScalarOp,
    cache_info,
    clear_multiplication_cache,
)

from oracle_helpers import MU, Q1, Q2, Q3, coeff_to_sympy, structure

RNG = random.Random(41117)


def _rand_poly():
    out = Poly.const(rat(RNG.randint(-3, 3), RNG.randint(1, 3)))
    for _ in range(RNG.randint(1, 4)):
        name = RNG.choice(["mu", "p1", "p2", "p3", "p0"])
        factor = Poly.sym(name).scale(rat(RNG.randint(-2, 2) or 1))
        if RNG.random() < 0.5:
            factor = factor + Poly.const(Scalar.from_rational(RNG.randint(-2, 2), RNG.randint(-1, 1)))
        out = out * factor
    return out


def _rand_coeff():
    c = Coefficient(_rand_poly(), RNG.randint(0, 2), RNG.randint(0, 1))
    return c if not c.is_zero() else Coefficient.const(1)


def test_mass_shell_reduction():
    p0sq = Poly.sym("p0") * Poly.sym("p0")
    shell = (
        Poly.sym("mu") * Poly.sym("mu")
        + Poly.sym("p1") * Poly.sym("p1")
        + Poly.sym("p2") * Poly.sym("p2")
        + Poly.sym("p3") * Poly.sym("p3")
    )
    assert p0sq == shell


def test_coefficient_cancellation():
    q = _rand_poly()
    mu_p0 = Poly.sym("mu") + Poly.sym("p0")
    assert Coefficient(q * mu_p0, 0, 1) == Coefficient(q)
    assert Coefficient(q * Poly.sym("p0"), 1, 0) == Coefficient(q)
    shell = Poly.sym("p0") * Poly.sym("p0")
    assert Coefficient(q * shell, 2, 0) == Coefficient(q)
    # and a fraction that genuinely does not cancel
    c = Coefficient(Poly.sym("p1"), 1, 0)
    assert c.a == 1 and c.num == Poly.sym("p1")


def test_normal_form_uniqueness_random():
    # same rational function entered with inflated numerator/denominator
    for _ in range(20):
        c = _rand_coeff()
        mu_p0 = Poly.sym("mu") + Poly.sym("p0")
        inflated = Coefficient(c.num * mu_p0 * Poly.sym("p0"), c.a + 1, c.b + 1)
        assert inflated == c


def test_deriv_known_values():
    # d/dp1 p0 = p1/p0
    dp0 = Coefficient(Poly.sym("p0")).deriv(1)
    assert dp0 == Coefficient(Poly.sym("p1"), 1, 0)
    # d/dp1 (1/(mu+p0)) = -p1 / (p0 (mu+p0)^2)
    dinv = Coefficient(Poly.const(1), 0, 1).deriv(1)
    assert dinv == Coefficient(-Poly.sym("p1"), 1, 2)
    # d/dp2 (p1/p0^2) = -2 p1 p2 / p0^4
    dfrac = Coefficient(Poly.sym("p1"), 2, 0).deriv(2)
    assert dfrac == Coefficient((Poly.sym("p1") * Poly.sym("p2")).scale(-2), 4, 0)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_deriv_matches_sympy(axis):
    qvar = (None, Q1, Q2, Q3)[axis]
    for _ in range(6):
        c = _rand_coeff()
        engine = coeff_to_sympy(c.deriv(axis))
        oracle = sp.diff(coeff_to_sympy(c), qvar)
        assert sp.simplify(engine - oracle) == 0


def test_eval_matches_sympy():
    lam_vars = (MU, Q1, Q2, Q3)
    for _ in range(8):
        c = _rand_coeff()
        f = sp.lambdify(lam_vars, coeff_to_sympy(c), "numpy")
        for _ in range(4):
            mu = RNG.uniform(0.5, 2.0)
            p = [RNG.uniform(-2, 2) for _ in range(3)]
            p0 = (mu**2 + sum(x * x for x in p)) ** 0.5
            got = c.eval(mu, *p, p0)
            want = complex(f(mu, *p))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_reflect_and_conjugate():
    q = _rand_poly()
    assert q.reflect().reflect() == q
    assert q.conjugate().conjugate() == q
    # reflection flips only odd total spatial degree
    odd = Poly.sym("p1") * Poly.sym("p2") * Poly.sym("p3")
    assert odd.reflect() == -odd
    even = Poly.sym("p1") * Poly.sym("p2")
    assert even.reflect() == even
    assert Poly.sym("p0").reflect() == Poly.sym("p0")


def _simple_coeff(rng=RNG):
    # shapes that occur in the generators: low degree, small denominators
    name = rng.choice(["mu", "p1", "p2", "p3", "p0"])
    num = Poly.sym(name).scale(Scalar.from_rational(rng.randint(-2, 2) or 1,
                                                    rng.randint(-1, 1)))
    if rng.random() < 0.4:
        num = num + Poly.const(rat(rng.randint(-2, 2)))
    c = Coefficient(num, rng.randint(0, 1), rng.randint(0, 1))
    return c if not c.is_zero() else Coefficient.const(1)


def _rand_scalar_op(dim, derivs=True, flips=False, rng=RNG):
    op = ScalarOp.zero(dim)
    for _ in range(rng.randint(1, 2)):
        alpha = [0, 0, 0]
        if derivs and rng.random() < 0.7:
            alpha[rng.randint(0, 2)] = 1
        u = rng.randint(0, 1) if flips else 0
        k = rng.randint(0, 1) if flips else 0
        mat = tuple(
            tuple(
                _simple_coeff(rng) if rng.random() < 0.7 else Coefficient(Poly())
                for _ in range(dim)
            )
            for _ in range(dim)
        )
        term = ScalarOp(dim, {(tuple(alpha), u, k): mat})
        op = op + term
    return op


def test_product_associative():
    for dim in (1, 2):
        for _ in range(6):
            a = _rand_scalar_op(dim, flips=True)
            b = _rand_scalar_op(dim, flips=True)
            c = _rand_scalar_op(dim, flips=True)
            assert ((a * b) * c - a * (b * c)).is_zero()


def test_adjoint_involution_and_products():
    for dim in (1, 2):
        for _ in range(6):
            a = _rand_scalar_op(dim)
            b = _rand_scalar_op(dim)
            assert (a.adjoint().adjoint() - a).is_zero()
            assert ((a * b).adjoint() - b.adjoint() * a.adjoint()).is_zero()
            assert ((a + b).adjoint() - (a.adjoint() + b.adjoint())).is_zero()


def test_adjoint_of_derivative_rule():
    # adjoint(d_j) = -d_j + p_j/p0^2 under the 1/p0 weight
    for dim in (1, 2):
        for j in (1, 2, 3):
            d = ScalarOp.deriv_op(j, dim)
            counter = ScalarOp.from_coefficient(
                Coefficient(Poly.sym(f"p{j}"), 2, 0), dim
            )
            assert (d.adjoint() - (d.scale(rat(-1)) + counter)).is_zero()


def _conjugation(dim):
    """Pointwise complex conjugation C on C^dim valued functions."""
    return ScalarOp.term(Coefficient.const(1), ((0, 0, 0), 0, 1), dim)


def test_reflection_conjugation_relations():
    for dim in (1, 2):
        refl = ScalarOp.reflection(dim)
        conj = _conjugation(dim)
        ident = ScalarOp.identity(dim)
        assert (refl * refl - ident).is_zero()
        assert (conj * conj - ident).is_zero()
        assert (refl * conj - conj * refl).is_zero()
        # Y p1 Y = -p1,  Y d1 Y = -d1,  K i K = -i
        p1 = ScalarOp.from_coefficient(Coefficient.sym("p1"), dim)
        assert (refl * p1 * refl + p1).is_zero()
        d1 = ScalarOp.deriv_op(1, dim)
        assert (refl * d1 * refl + d1).is_zero()
        i_op = ident.scale(I)
        assert (conj * i_op * conj + i_op).is_zero()


def test_block_structure():
    dim = 2
    a = _rand_scalar_op(dim)
    op = BlockOp([[a, ScalarOp.zero(dim)], [ScalarOp.zero(dim), a]])
    ident = BlockOp.identity(2, dim)
    assert (op * ident - op).is_zero()
    assert (ident * op - op).is_zero()
    assert (op.adjoint().adjoint() - op).is_zero()


def test_multiplication_cache_is_transparent(capsys):
    a = _rand_scalar_op(2, flips=True)
    b = _rand_scalar_op(2, flips=True)
    x, y = _rand_coeff(), _rand_coeff()
    first = a * b
    warm = [x * y, y * x, x.deriv(1), y.deriv(3), (x * y).deriv(2)]
    before = [structure(c) for c in warm]
    clear_multiplication_cache()
    second = a * b
    assert (first - second).is_zero()
    assert [x * y, y * x, x.deriv(1), y.deriv(3), (x * y).deriv(2)] == warm

    # hash-consed: an equal coefficient built again is the same object,
    # so it hits the memo by identity
    x_copy = Coefficient(x.num + Poly(), x.a, x.b)
    assert x_copy is x
    assert x_copy * y is x * y
    assert x_copy.deriv(1) is x.deriv(1)

    # arithmetic on memoized results leaves them, and the memo, unchanged
    p, dp = x * y, x.deriv(1)
    derived = []
    for c in (p, dp):
        derived += [c + c, c - x, c * c, -c, c.conjugate(), c.reflect(),
                    c.deriv(2).deriv(2) * c]
    op = ScalarOp.from_coefficient(p, 2) + ScalarOp.deriv_op(1, 2).scale(dp)
    derived += [op * a * op, op.adjoint() * op]
    assert [structure(c) for c in warm] == before
    assert structure(x * y) == before[0]
    assert structure(x.deriv(1)) == before[2]

    # every memo is bounded, and stays within its bound on a real run
    clear_multiplication_cache()
    assert main(["verify", "--rep", "up", "--two-s", "8", "--json"]) == 0
    assert main(["commutant", "--rep", "up", "--two-s", "2", "--json"]) == 0
    capsys.readouterr()
    info = cache_info()
    interned = info.pop("interned_coefficients")
    assert set(info) == {"coefficient_product", "coefficient_deriv",
                         "operator_product", "operator_adjoint",
                         "denominator_lift", "relation_verdict"}
    for name, memo in info.items():
        assert memo.maxsize == _MEMO_SIZE, name
        assert 0 < memo.currsize <= memo.maxsize, name
    # the live hash-consed coefficients, counted (tests/test_intern.py)
    assert interned == len(symop._INTERNED) > 0


def test_adjoint_is_memoized_by_value():
    clear_multiplication_cache()
    op = ScalarOp.deriv_op(1, 2).scale(Coefficient.sym("p2")) \
        + ScalarOp.from_coefficient(Coefficient(Poly.sym("p1"), 1, 0), 2)
    copy = ScalarOp(op.dim, dict(op.terms))
    assert copy is not op
    assert copy.adjoint() is op.adjoint()
    assert cache_info()["operator_adjoint"].hits == 1
    # a zero operator is its own adjoint and never reaches the memo
    zero = ScalarOp.zero(2)
    assert zero.adjoint() is zero
    assert cache_info()["operator_adjoint"].currsize == 1
    # an antilinear operator is refused on every call, never memoized
    for _ in range(2):
        with pytest.raises(ValueError, match="linear operators"):
            _conjugation(2).adjoint()


def test_block_ratio():
    dim = 2
    ident = BlockOp.identity(2, dim)
    c = Scalar.sqrt_int(2) + I
    assert ident.scale(c).ratio(ident) == c
    assert BlockOp.zero(2, dim).ratio(ident) == Scalar()
    one, zero = ScalarOp.identity(dim), ScalarOp.zero(dim)
    assert BlockOp.diag([one, one.scale(rat(-1))]).ratio(ident) is None
    assert BlockOp([[zero, one], [one, zero]]).ratio(ident) is None
    assert BlockOp([[zero, zero], [zero, one]]).ratio(ident) is None
    p1 = ScalarOp.from_coefficient(Coefficient.sym("p1"), dim)
    assert BlockOp.diag([p1, p1]).ratio(ident) is None
    assert BlockOp.diag([ScalarOp.reflection(dim)] * 2).ratio(ident) is None
    # a non-identity pair: newup:symplectic's Pi*Theta == -Theta*Pi
    rep = catalog.build("newup:symplectic", 0)
    assert (rep.pi * rep.theta).ratio(rep.theta * rep.pi) == rat(-1)
    # nothing is a multiple of zero; agreeing on the first nonzero entry
    # of other alone is not proportional
    assert ident.ratio(BlockOp.zero(2, dim)) is None
    y = ScalarOp.reflection(dim)
    assert BlockOp.diag([p1, p1]).ratio(BlockOp.diag([p1, y])) is None


def test_block_factor():
    # exactly P (x) g for a surd pattern; None otherwise
    dim = 2
    g = ScalarOp.deriv_op(1, dim) + ScalarOp.reflection(dim).scale(
        Coefficient(Poly.sym("p2"), 0, 1))
    zero = ScalarOp.zero(dim)
    c = Scalar.sqrt_int(3) - I
    op = BlockOp([[zero, g], [g.scale(c), g.scale(rat(-2))]])
    pattern, lead = op.factor()
    assert lead == g
    assert pattern == ((Scalar(), ONE), (c, rat(-2)))
    p1 = ScalarOp.from_coefficient(Coefficient.sym("p1"), dim)
    assert BlockOp.diag([g, p1 * g]).factor() is None
    assert BlockOp.zero(2, dim).factor() is None
