"""Catalog of positive-mass representations and their mechanical checks.

Each representation acts on vector valued functions on the mass shell.
The ten continuous generators are the energy P0, the momentum components
P1..P3, the rotations J1..J3 and the boosts K1..K3; every entry of the
catalog also carries a time-reversing operator Theta and a space
inversion Pi, each either unitary or antiunitary.

The single scalar block is built from multiplication by p and p0, the
rotation generators -i(p x grad) + S and the boosts
i p0 d_j - (S x p)_j / (mu + p0).  Multi-block entries glue sign-flipped
copies of that block and choose Theta and Pi block patterns; the catalog
is one table (``CATALOG``) of labels, signs, Theta and Pi specs, spin
restriction and CLI group.  The block patterns are kept on the spec
object so the commutant solver can reuse them without reparsing
operators.

Every relation the laboratory checks is written once here, as data: a
``Relation`` is a name, a family and components, each an operator
polynomial that must vanish, i.e. a sum of (exact coefficient, word over
named operators).  ``[K1,K2] == -i*J3`` is K1*K2 - K2*K1 + i*J3; an
exchange relation has one component per generator of its family; the
empty word is the identity.  The table holds the 45 Lie relations, the
Theta/Pi exchange, square and omega rows, the two Casimirs (words over
W0..W3 and the operator mu^2) and the position axioms (words over
Q1..Q3).  ``operators`` maps names to operators, read from the spec's
fields on every call; ``verify_relations`` is the one exact evaluator,
``gridlab.residual`` the numeric one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exactnum import I, ONE, Scalar, ZERO
from .report import RelationReport
from .spin_algebra import SpinWeight, spin_matrices, tau_matrix
from .symop import BlockOp, Coefficient, CoeffMatrix, Poly, ScalarOp

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"

_CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def epsilon(i: int, j: int, k: int) -> int:
    """Totally antisymmetric symbol with epsilon(1,2,3) = +1."""
    if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        return 1
    if (i, j, k) in ((3, 2, 1), (1, 3, 2), (2, 1, 3)):
        return -1
    return 0


# -- scalar-block generators -------------------------------------------------


def _const_cmat(mat) -> CoeffMatrix:
    return tuple(tuple(Coefficient.const(x) for x in row) for row in mat)


@lru_cache(maxsize=None)
def energy_op(dim: int) -> ScalarOp:
    return ScalarOp.from_coefficient(Coefficient.sym("p0"), dim)


@lru_cache(maxsize=None)
def momentum_op(axis: int, dim: int) -> ScalarOp:
    return ScalarOp.from_coefficient(Coefficient.sym(f"p{axis}"), dim)


@lru_cache(maxsize=None)
def rotation_op(axis: int, two_s: int) -> ScalarOp:
    """-i (p x grad)_axis + S_axis on one scalar block."""
    dim = two_s + 1
    a, b = _CYCLIC[axis]
    spins = spin_matrices(two_s).as_tuple()
    terms = {}
    alpha_b = tuple(1 if i == b - 1 else 0 for i in range(3))
    alpha_a = tuple(1 if i == a - 1 else 0 for i in range(3))
    minus_i_pa = Coefficient(Poly.sym(f"p{a}").scale(-I))
    plus_i_pb = Coefficient(Poly.sym(f"p{b}").scale(I))
    ident = _const_cmat(
        tuple(tuple(ONE if r == c else ZERO for c in range(dim)) for r in range(dim))
    )
    terms[(alpha_b, 0, 0)] = tuple(
        tuple(minus_i_pa if r == c else Coefficient.zero() for c in range(dim))
        for r in range(dim)
    )
    terms[(alpha_a, 0, 0)] = tuple(
        tuple(plus_i_pb if r == c else Coefficient.zero() for c in range(dim))
        for r in range(dim)
    )
    op = ScalarOp(dim, terms)
    spin_mat = spins[axis - 1]
    return op + ScalarOp.from_matrix(_const_cmat(spin_mat))


@lru_cache(maxsize=None)
def boost_op(axis: int, two_s: int) -> ScalarOp:
    """i p0 d_axis - (S x p)_axis / (mu + p0) on one scalar block."""
    dim = two_s + 1
    a, b = _CYCLIC[axis]
    spins = spin_matrices(two_s).as_tuple()
    s_a, s_b = spins[a - 1], spins[b - 1]
    alpha = tuple(1 if i == axis - 1 else 0 for i in range(3))
    i_p0 = Coefficient(Poly.sym("p0").scale(I))
    deriv_part = ScalarOp(
        dim,
        {
            (alpha, 0, 0): tuple(
                tuple(i_p0 if r == c else Coefficient.zero() for c in range(dim))
                for r in range(dim)
            )
        },
    )
    # -(S x p)_axis = S_b p_a - S_a p_b  (cyclic axis -> (a, b))
    pa, pb = Poly.sym(f"p{a}"), Poly.sym(f"p{b}")
    rows = []
    for r in range(dim):
        row = []
        for c in range(dim):
            num = pa.scale(s_b[r][c]) - pb.scale(s_a[r][c])
            row.append(Coefficient(num, 0, 1))
        rows.append(tuple(row))
    return deriv_part + ScalarOp.from_matrix(tuple(rows))


# -- the relation table -----------------------------------------------------------

# A term is (exact coefficient, word); a word is a tuple of operator names
# multiplied left to right, the empty word being the identity.
Term = tuple[Scalar, tuple[str, ...]]


@dataclass(frozen=True)
class Relation:
    """Every component, a sum of terms, must vanish.

    ``inadmissible`` names a demanded value that fails a side condition
    (a square or phase outside {+1, -1}); such a row fails unevaluated.
    """

    name: str
    family: str
    components: tuple[tuple[Term, ...], ...]
    inadmissible: str = ""


GENERATORS = ("P0", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3")
_FAMILIES = {"P0": ("P0",), "P": GENERATORS[1:4], "J": GENERATORS[4:7],
             "K": GENERATORS[7:]}
_PAIRS = ((1, 2), (1, 3), (2, 3))
_ALL_PAIRS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))


def _bracket(family: str, a: str, b: str, coeff: Scalar = ZERO,
             c: str = "") -> Relation:
    """[a,b] == coeff*c, with coeff +-i and c "" for the identity."""
    terms = ((ONE, (a, b)), (-ONE, (b, a)))
    if not coeff:
        return Relation(f"[{a},{b}] == 0", family, (terms,))
    rhs = ("i" if coeff == I else "-i") + (f"*{c}" if c else "")
    word = (c,) if c else ()
    return Relation(f"[{a},{b}] == {rhs}", family, (terms + ((-coeff, word),),))


def _vector_brackets(family: str, x: str, y: str, z: str, pairs,
                     unit: Scalar = I) -> tuple[Relation, ...]:
    """[x_a, y_b] == unit * epsilon(a,b,l) * z_l over the index pairs."""
    out = []
    for a, b in pairs:
        l = 6 - a - b
        coeff = ZERO if a == b else (unit if epsilon(a, b, l) > 0 else -unit)
        out.append(_bracket(family, f"{x}{a}", f"{y}{b}", coeff, f"{z}{l}"))
    return tuple(out)


def _exchange(op: str, fam: str, sign: int, names) -> Relation:
    """op*g == sign*g*op for every g named, one component each."""
    rhs = f"{fam}*{op}" if sign > 0 else f"-{fam}*{op}"
    other = -ONE if sign > 0 else ONE
    return Relation(
        f"{op}*{fam} == {rhs}", f"{op}.{fam}",
        tuple(((ONE, (op, g)), (other, (g, op))) for g in names),
    )


def _squares(names) -> tuple[Term, ...]:
    """Minkowski square: the first name squared minus the others squared."""
    return tuple((ONE if i == 0 else -ONE, (n, n)) for i, n in enumerate(names))


LIE_RELATIONS: tuple[Relation, ...] = (
    tuple(_bracket("PP", f"P{a}", f"P{b}") for a, b in _PAIRS)
    + _vector_brackets("JP", "J", "P", "P", _ALL_PAIRS)
    + _vector_brackets("JJ", "J", "J", "J", _PAIRS)
    + _vector_brackets("JK", "J", "K", "K", _ALL_PAIRS)
    + _vector_brackets("KK", "K", "K", "J", _PAIRS, unit=-I)
    + tuple(_bracket("KP", f"K{a}", f"P{b}", I if a == b else ZERO, "P0")
            for a, b in _ALL_PAIRS)
    + tuple(_bracket("P.P0", f"P{a}", "P0") for a in (1, 2, 3))
    + tuple(_bracket("J.P0", f"J{a}", "P0") for a in (1, 2, 3))
    + tuple(_bracket("K.P0", f"K{a}", "P0", I, f"P{a}") for a in (1, 2, 3))
)

_Q = ("Q1", "Q2", "Q3")

# Localization axioms of a position triple Q1..Q3 (see localization.py).
POSITION_RELATIONS: tuple[Relation, ...] = (
    tuple(_bracket("QQ", f"Q{a}", f"Q{b}") for a, b in _PAIRS)
    + tuple(_bracket("QP", f"Q{a}", f"P{b}", I if a == b else ZERO)
            for a, b in _ALL_PAIRS)
    + _vector_brackets("JQ", "J", "Q", "Q", _ALL_PAIRS)
    + tuple(Relation(f"adjoint({q}) == {q}", "Q*",
                     (((ONE, (f"adjoint({q})",)), (-ONE, (q,))),))
            for q in _Q)
    + (_exchange("Theta", "Q", 1, _Q), _exchange("Pi", "Q", -1, _Q))
)

# Sign of A*G == sign * G*A demanded of a discrete operator A, by kind.
DISCRETE_SIGNS = {
    ("theta", UNITARY): {"P0": -1, "P": 1, "J": 1, "K": -1},
    ("theta", ANTIUNITARY): {"P0": 1, "P": -1, "J": -1, "K": 1},
    ("pi", UNITARY): {"P0": 1, "P": -1, "J": 1, "K": -1},
    ("pi", ANTIUNITARY): {"P0": -1, "P": 1, "J": -1, "K": 1},
}


def _fmt_unit(s: Scalar) -> str:
    if s == ONE:
        return "1"
    if s == -ONE:
        return "-1"
    return repr(s)


def discrete_relations(rep: RepSpec) -> tuple[Relation, ...]:
    """Exchange, square and omega rows demanded by the rep's Theta/Pi kinds.

    A square must be +1 or -1, and +1 for a unitary operator; omega must
    be +1 or -1.
    """
    rels: list[Relation] = []
    for op, kind, square in (("Theta", rep.theta_kind, rep.theta_square),
                             ("Pi", rep.pi_kind, rep.pi_square)):
        signs = DISCRETE_SIGNS[(op.lower(), kind)]
        rels += [_exchange(op, fam, signs[fam], names)
                 for fam, names in _FAMILIES.items()]
        ok = square in (ONE, -ONE) and (kind == ANTIUNITARY or square == ONE)
        rels.append(Relation(
            f"{op}^2 == {_fmt_unit(square)}", f"{op}^2",
            (((ONE, (op, op)), (-square, ())),),
            "" if ok else f"got {square!r}",
        ))
    omega = rep.omega
    name = "Pi*Theta == Theta*Pi" if omega == ONE else \
        f"Pi*Theta == {_fmt_unit(omega)}*Theta*Pi"
    rels.append(Relation(
        name, "omega", (((ONE, ("Pi", "Theta")), (-omega, ("Theta", "Pi"))),),
        "" if omega in (ONE, -ONE) else f"got {omega!r}",
    ))
    return tuple(rels)


def casimir_relations(rep: RepSpec) -> tuple[Relation, Relation]:
    """P0^2 - P.P == mu^2 and W.W == -s(s+1) mu^2, W from pauli_lubanski."""
    mass = Relation(
        "P0^2 - P.P == mu^2", "casimir",
        (_squares(("P0", "P1", "P2", "P3")) + ((-ONE, ("mu^2",)),),),
    )
    value = -SpinWeight(rep.two_s).casimir
    terms = _squares(("W0", "W1", "W2", "W3"))
    if value:
        terms += ((Scalar.from_rational(-value), ("mu^2",)),)
    target = "0" if value == 0 else f"{value}*mu^2"
    return mass, Relation(f"W.W == {target}", "casimir", (terms,))


def relations(rep: RepSpec) -> tuple[Relation, ...]:
    """Every relation demanded of the rep itself: Lie, discrete, Casimirs."""
    return LIE_RELATIONS + discrete_relations(rep) + casimir_relations(rep)


# -- the representation object -------------------------------------------------


@dataclass(frozen=True)
class RepSpec:
    label: str
    two_s: int
    blocks: int
    p0: BlockOp
    p: tuple[BlockOp, BlockOp, BlockOp]
    j: tuple[BlockOp, BlockOp, BlockOp]
    k: tuple[BlockOp, BlockOp, BlockOp]
    theta: BlockOp
    pi: BlockOp
    theta_kind: str
    pi_kind: str
    spectrum: str
    p0_signs: tuple[int, ...]
    k_signs: tuple[int, ...]
    theta_pattern: tuple[tuple[Scalar, ...], ...]
    pi_pattern: tuple[tuple[Scalar, ...], ...]
    theta_square: Scalar
    pi_square: Scalar
    omega: Scalar

    @property
    def dim(self) -> int:
        return self.two_s + 1

    def generators(self) -> dict[str, BlockOp]:
        return dict(zip(GENERATORS, (self.p0, *self.p, *self.j, *self.k)))


# -- the catalog table ------------------------------------------------------------


def _pattern(rows) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(
        tuple(Scalar.from_rational(Fraction(x)) for x in row) for row in rows
    )


def _pattern_block(pattern, inner: ScalarOp) -> BlockOp:
    n = len(pattern)
    entries = []
    for r in range(n):
        row = []
        for c in range(n):
            s = pattern[r][c]
            if s == ZERO or not s:
                row.append(ScalarOp.zero(inner.dim))
            elif s == ONE:
                row.append(inner)
            else:
                row.append(inner.scale(s))
        entries.append(row)
    return BlockOp(entries)


def _signed_diag(op: ScalarOp, signs) -> BlockOp:
    return BlockOp.diag([op if s > 0 else op.scale(-1) for s in signs])


def _spectrum_from_signs(p0_signs) -> str:
    if all(s > 0 for s in p0_signs):
        return "up"
    if all(s < 0 for s in p0_signs):
        return "down"
    return "symmetric"


def _discrete_op(pattern, spin: str, upsilon: int, kappa: int, two_s: int) -> BlockOp:
    dim = two_s + 1
    if spin == "tau":
        mat = tau_matrix(two_s).mat
    else:
        mat = tuple(
            tuple(ONE if r == c else ZERO for c in range(dim)) for r in range(dim)
        )
    inner = ScalarOp(dim, {((0, 0, 0), upsilon, kappa): _const_cmat(mat)})
    return _pattern_block(pattern, inner)


def _solve_omega(theta: BlockOp, pi: BlockOp) -> Scalar:
    """The constant omega with Pi*Theta == omega * Theta*Pi."""
    x = pi * theta
    y = theta * pi
    lead_x = x.leading_constant()
    lead_y = y.leading_constant()
    if lead_x is None or lead_y is None:
        raise AssertionError("Pi*Theta has a nonconstant leading coefficient")
    omega = lead_x / lead_y
    if not (x - y.scale(omega)).is_zero():
        raise AssertionError("Pi*Theta is not proportional to Theta*Pi")
    return omega


class Entry(NamedTuple):
    """One catalog row; a Theta or Pi spec is (block pattern, spin factor
    "tau" or "id", upsilon, kappa), the operator Y^upsilon C^kappa."""

    label: str
    signs: tuple[int, ...]  # energy and boost sign of each block
    theta: tuple
    pi: tuple
    spin0_only: bool
    group: str  # row of the `catalog` subcommand


_ONE_BLOCK = ((1,),)
_ID2 = ((1, 0), (0, 1))
_SWAP2 = ((0, 1), (1, 0))
_DIAG_PM = ((1, 0), (0, -1))
_SYMPL2 = ((0, 1), (-1, 0))
# four blocks, ordered as the two energy-sign pairs
_I2_X = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
_X_X = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
_SYMPL_X = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))

_TAU_YC = (_ONE_BLOCK, "tau", 1, 1)
_Y = (_ONE_BLOCK, "id", 1, 0)
_SWAP = (_SWAP2, "id", 0, 0)
_PAIR_TAU_YC = (_ID2, "tau", 1, 1)
_QUAD = (1, -1, 1, -1)

CATALOG: tuple[Entry, ...] = (
    Entry("up", (1,), _TAU_YC, _Y, False, "up"),
    Entry("down", (-1,), _TAU_YC, _Y, False, "down"),
    Entry("sym1", (1, -1), _SWAP, (_ID2, "id", 1, 0), False, "sym1"),
    Entry("sym2", (1, -1), _SWAP, (_DIAG_PM, "id", 1, 0), False, "sym2"),
    Entry("sym3", (1, -1), _SWAP, (_SWAP2, "tau", 0, 1), False, "sym3"),
    Entry("sym4", (1, -1), _SWAP, (_SYMPL2, "tau", 0, 1), False, "sym4"),
    Entry("sym5", (1, -1), _PAIR_TAU_YC, (_SWAP2, "tau", 0, 1), False, "sym5"),
    Entry("sym6", (1, -1), _PAIR_TAU_YC, (_SYMPL2, "tau", 0, 1), False, "sym6"),
    Entry("newup:identity", (1, 1), _PAIR_TAU_YC, (_SWAP2, "id", 1, 0),
          False, "newup"),
    Entry("newup:symplectic", (1, 1), (_SYMPL2, "tau", 1, 1),
          (_SWAP2, "id", 1, 0), False, "newup"),
    Entry("newdown:identity", (-1, -1), _PAIR_TAU_YC, (_SWAP2, "id", 1, 0),
          False, "newdown"),
    Entry("newdown:symplectic", (-1, -1), (_SYMPL2, "tau", 1, 1),
          (_SWAP2, "id", 1, 0), False, "newdown"),
    Entry("quad:+1", _QUAD, (_I2_X, "id", 0, 0), (_X_X, "id", 0, 1),
          True, "quad:+1"),
    Entry("quad:-1", _QUAD, (_I2_X, "id", 0, 0), (_SYMPL_X, "id", 0, 1),
          True, "quad:-1"),
)
_ENTRIES = {e.label: e for e in CATALOG}


def _assemble(entry: Entry, two_s: int) -> RepSpec:
    """Diagonal generators from the entry's signs, patterned discretes."""
    dim = two_s + 1
    signs = entry.signs
    p0 = _signed_diag(energy_op(dim), signs)
    p = tuple(
        BlockOp.diag([momentum_op(a, dim)] * len(signs)) for a in (1, 2, 3)
    )
    j = tuple(
        BlockOp.diag([rotation_op(a, two_s)] * len(signs)) for a in (1, 2, 3)
    )
    k = tuple(_signed_diag(boost_op(a, two_s), signs) for a in (1, 2, 3))
    t_pat = _pattern(entry.theta[0])
    p_pat = _pattern(entry.pi[0])
    theta = _discrete_op(t_pat, *entry.theta[1:], two_s)
    pi = _discrete_op(p_pat, *entry.pi[1:], two_s)
    theta_square = (theta * theta).as_constant()
    pi_square = (pi * pi).as_constant()
    if theta_square is None or pi_square is None:
        raise AssertionError(f"{entry.label}: discrete squares are not constant")
    return RepSpec(
        label=entry.label,
        two_s=two_s,
        blocks=len(signs),
        p0=p0,
        p=p,
        j=j,
        k=k,
        theta=theta,
        pi=pi,
        theta_kind=ANTIUNITARY if entry.theta[3] else UNITARY,
        pi_kind=ANTIUNITARY if entry.pi[3] else UNITARY,
        spectrum=_spectrum_from_signs(signs),
        p0_signs=signs,
        k_signs=signs,
        theta_pattern=t_pat,
        pi_pattern=p_pat,
        theta_square=theta_square,
        pi_square=pi_square,
        omega=_solve_omega(theta, pi),
    )


def build(label: str, two_s: int = 0) -> RepSpec:
    """Construct a catalog representation by label."""
    key = label.strip().lower()
    if key not in _ENTRIES:
        raise ValueError(
            f"unknown representation {label!r}; choose from {sorted(_ENTRIES)}"
        )
    if two_s < 0:
        raise ValueError("two_s must be a nonnegative integer")
    SpinWeight(two_s)
    entry = _ENTRIES[key]
    if entry.spin0_only and two_s != 0:
        raise ValueError("the four-block representations exist only for spin 0")
    return _assemble(entry, two_s)


def catalog_labels(two_s: int = 0) -> list[str]:
    return [e.label for e in CATALOG if two_s == 0 or not e.spin0_only]


def enumerate_catalog(two_s: int = 0) -> list[RepSpec]:
    return [build(label, two_s) for label in catalog_labels(two_s)]


# -- the exact evaluator ------------------------------------------------------------


def pauli_lubanski(rep: RepSpec) -> tuple[BlockOp, BlockOp, BlockOp, BlockOp]:
    """(W0, W1, W2, W3) with W0 = P.J and W_a = P0*J_a + (P x K)_a."""
    w0 = BlockOp.zero(rep.blocks, rep.dim)
    for pg, jg in zip(rep.p, rep.j):
        w0 = w0 + pg * jg
    ws = []
    for a in (1, 2, 3):
        b, c = _CYCLIC[a]
        w = rep.p0 * rep.j[a - 1] + rep.p[b - 1] * rep.k[c - 1] \
            - rep.p[c - 1] * rep.k[b - 1]
        ws.append(w)
    return (w0, ws[0], ws[1], ws[2])


_MU_SQUARED = Coefficient(Poly({(2, 0, 0, 0, 0): ONE}))


def operators(rep: RepSpec, names, q=None) -> dict[str, BlockOp]:
    """The operator of each name: the generators, Theta and Pi, plus mu^2
    and W0..W3 when ``names`` asks for them, plus Q1..Q3 and their
    adjoints from a position triple ``q``.

    Built from the fields on every call and never stored, so a spec
    altered with dataclasses.replace is evaluated as altered.
    """
    ops = rep.generators()
    ops.update(Theta=rep.theta, Pi=rep.pi)
    if "mu^2" in names:
        ops["mu^2"] = BlockOp.identity(rep.blocks, rep.dim).scale(_MU_SQUARED)
    if "W0" in names:
        ops.update(zip(("W0", "W1", "W2", "W3"), pauli_lubanski(rep)))
    if q is not None:
        for name, qa in zip(_Q, q.as_tuple()):
            ops[name] = qa
            ops[f"adjoint({name})"] = qa.adjoint()
    return ops


def word_names(rels) -> set[str]:
    """Every operator name the words of ``rels`` use."""
    return {n for rel in rels for comp in rel.components
            for _c, word in comp for n in word}


def _truncate(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _word_product(word, ops) -> BlockOp:
    """The word multiplied left to right; the empty word is the identity."""
    if not word:
        g = ops["P0"]
        return BlockOp.identity(g.blocks, g.dim)
    out = ops[word[0]]
    for name in word[1:]:
        out = out * ops[name]
    return out


def _violation(rel: Relation, ops) -> str:
    """Empty if rel holds exactly, else why not: its first nonzero component."""
    if rel.inadmissible:
        return rel.inadmissible
    for idx, component in enumerate(rel.components, 1):
        acc = None
        for coeff, word in component:
            term = _word_product(word, ops)
            if coeff == -ONE:
                acc = -term if acc is None else acc - term
                continue
            if coeff != ONE:
                term = term.scale(coeff)
            acc = term if acc is None else acc + term
        if not acc.is_zero():
            return f"component {idx}: residual {_truncate(repr(acc))}"
    return ""


def verify_relations(rep: RepSpec, rels, q=None,
                     recorded=frozenset()) -> RelationReport:
    """Evaluate rels exactly on the rep (and position triple q).

    A relation whose name is in ``recorded`` is recorded as holding or
    not instead of being asserted.
    """
    ops = operators(rep, word_names(rels), q)
    rpt = RelationReport(rep.label, rep.two_s)
    for rel in rels:
        bad = _violation(rel, ops)
        if rel.name in recorded:
            rpt.record(rel.name, "symbolic", "does not hold" if bad else "holds")
        else:
            rpt.add(rel.name, "symbolic", not bad, bad)
    return rpt


# -- verification ---------------------------------------------------------------


def verify_lie_relations(rep: RepSpec) -> RelationReport:
    """Check all 45 bracket relations exactly."""
    return verify_relations(rep, LIE_RELATIONS)


def verify_discrete_relations(rep: RepSpec) -> RelationReport:
    """Exchange relations, squares, and the Pi-Theta commutation constant."""
    rpt = verify_relations(rep, discrete_relations(rep))
    if rep.label in ("sym5", "sym6"):
        variant = _discrete_op(_pattern(_SWAP2), "tau", 1, 1, rep.two_s)
        holds = (variant * rep.p0 - rep.p0 * variant).is_zero()
        rpt.record(
            "theta-offdiagonal-variant", "symbolic",
            "the block-offdiagonal tau*C*Y form "
            + ("unexpectedly satisfies" if holds else "fails")
            + " Theta*P0 == P0*Theta, so the block-diagonal form is used",
        )
    return rpt


def verify_self_adjointness(rep: RepSpec) -> RelationReport:
    """All ten generators equal their formal adjoints for the 1/p0 weight."""
    rpt = RelationReport(rep.label, rep.two_s)
    for name, g in rep.generators().items():
        diff = g.adjoint() - g
        ok = diff.is_zero()
        rpt.add(f"adjoint({name}) == {name}", "symbolic", ok,
                "" if ok else _truncate(f"residual {diff!r}"))
    return rpt


def verify_casimirs(rep: RepSpec) -> RelationReport:
    """Both invariant operators against their closed forms."""
    return verify_relations(rep, casimir_relations(rep))


def allowed_spectra(theta_kind: str, pi_kind: str) -> set[str]:
    """Energy-sign patterns an irreducible entry can have, by operator kind.

    A unitary Theta or an antiunitary Pi anticommutes with P0 and so maps
    the positive-energy subspace onto the negative one; either forces a
    sign-symmetric spectrum.  When instead Theta is antiunitary and Pi is
    unitary, both commute with P0, every generator preserves the energy
    sign, and a sign-symmetric space would split; irreducibility then
    forces a one-sided spectrum.
    """
    if theta_kind == UNITARY or pi_kind == ANTIUNITARY:
        return {"symmetric"}
    return {"up", "down"}


def verify_spectrum(rep: RepSpec) -> RelationReport:
    rpt = RelationReport(rep.label, rep.two_s)
    derived = _spectrum_from_signs(rep.p0_signs)
    allowed = allowed_spectra(rep.theta_kind, rep.pi_kind)
    ok = rep.spectrum == derived and rep.spectrum in allowed
    rpt.add(
        "spectrum-consistency", "symbolic", ok,
        f"theta {rep.theta_kind}, pi {rep.pi_kind} permit {sorted(allowed)}; "
        f"energy signs {rep.p0_signs} give {derived}",
    )
    return rpt


def full_verification(rep: RepSpec) -> RelationReport:
    rpt = RelationReport(rep.label, rep.two_s)
    rpt.extend(verify_lie_relations(rep))
    rpt.extend(verify_discrete_relations(rep))
    rpt.extend(verify_casimirs(rep))
    rpt.extend(verify_self_adjointness(rep))
    rpt.extend(verify_spectrum(rep))
    return rpt
