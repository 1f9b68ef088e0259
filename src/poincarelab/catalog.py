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
restriction and CLI group.  ``signed_generators`` builds the ten
generators of a sign vector, for the table and for the commutant
solver's premise.  A spec is its operators; kinds, signs, squares,
omega, spin and block count are read from them, and every operator
shares P0's block count and spin dimension.

Every relation the laboratory checks is written once here, as data: a
``Relation`` is a name, a family and components, each an operator
polynomial that must vanish, i.e. a sum of (exact coefficient, word over
named operators).  ``[K1,K2] == -i*J3`` is K1*K2 - K2*K1 + i*J3; an
exchange relation has one component per generator of its family; the
empty word is the identity.  The table holds the 45 Lie relations, the
Theta/Pi exchange, square and omega rows, the two Casimirs (words over
W0..W3 and the operator mu^2), the ten self-adjointness rows (words
over "adjoint(G)", the formal adjoint of G) and the position axioms
(words over Q1..Q3).  ``operators`` maps names to operators, read from
the spec's fields on every call; ``verify_relations`` is the one exact
evaluator, summing each component once in a ``symop.RelationSum``, and
``gridlab.study``'s streamed plan the numeric one.  A component's
verdict is memoized by value (``symop.relation_residual``), keyed by the
block shape and the operators its words name, so entries with equal
generators share their rows, while a spec altered with
dataclasses.replace, its operators of other values, gets rows of its
own.  The Pauli-Lubanski vector W0..W3 is formed the same way: each W is
one flat sum of weighted words over the generators (``pauli_lubanski``),
put in normal form once and memoized by the same memo, so entries with
equal generators share their W too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .exactnum import I, ONE, Scalar, ZERO, identity_matrix, mat_map
from .report import RelationReport
from .spin_algebra import SpinWeight, spin_matrices, tau_matrix
from .symop import BlockOp, Coefficient, Poly, ScalarOp, relation_residual

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
    alpha_b = tuple(1 if i == b - 1 else 0 for i in range(3))
    alpha_a = tuple(1 if i == a - 1 else 0 for i in range(3))
    minus_i_pa = Coefficient(Poly.sym(f"p{a}").scale(-I))
    plus_i_pb = Coefficient(Poly.sym(f"p{b}").scale(I))
    spin_mat = spin_matrices(two_s)[axis - 1]
    return (ScalarOp.term(minus_i_pa, (alpha_b, 0, 0), dim)
            + ScalarOp.term(plus_i_pb, (alpha_a, 0, 0), dim)
            + ScalarOp.from_matrix(mat_map(Coefficient.const, spin_mat)))


@lru_cache(maxsize=None)
def boost_op(axis: int, two_s: int) -> ScalarOp:
    """i p0 d_axis - (S x p)_axis / (mu + p0) on one scalar block."""
    dim = two_s + 1
    a, b = _CYCLIC[axis]
    spins = spin_matrices(two_s)
    s_a, s_b = spins[a - 1], spins[b - 1]
    alpha = tuple(1 if i == axis - 1 else 0 for i in range(3))
    i_p0 = Coefficient(Poly.sym("p0").scale(I))
    deriv_part = ScalarOp.term(i_p0, (alpha, 0, 0), dim)
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


def signed_generators(two_s: int, signs) -> dict[str, BlockOp]:
    """The ten generators P0..K3 by name on len(signs) blocks of spin
    two_s/2: P0 and K carry the sign signs[r] on block r, P and J are the
    same on every block."""
    dim = two_s + 1

    def signed(op: ScalarOp) -> BlockOp:
        return BlockOp.diag([op if s > 0 else -op for s in signs])

    def same(op: ScalarOp) -> BlockOp:
        return BlockOp.diag([op] * len(signs))

    return dict(zip(GENERATORS, (
        signed(energy_op(dim)),
        *(same(momentum_op(a, dim)) for a in (1, 2, 3)),
        *(same(rotation_op(a, two_s)) for a in (1, 2, 3)),
        *(signed(boost_op(a, two_s)) for a in (1, 2, 3)),
    )))


# -- the relation table -----------------------------------------------------------

# A term is (exact coefficient, word); a word is a tuple of operator names
# multiplied left to right, the empty word being the identity.
Term = tuple[Scalar, tuple[str, ...]]


@dataclass(frozen=True)
class Relation:
    """Every component, a sum of terms, must vanish.

    ``inadmissible`` says why a demanded value fails a side condition (a
    square or phase outside {+1, -1}, or no constant at all, when the row
    has no components); such a row fails unevaluated.
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


def _self_adjoint(family: str, names) -> tuple[Relation, ...]:
    """adjoint(g) == g for every g named; "adjoint(g)" is an operator name."""
    return tuple(Relation(f"adjoint({g}) == {g}", family,
                          (((ONE, (f"adjoint({g})",)), (-ONE, (g,))),))
                 for g in names)


# Each generator equals its formal adjoint for the 1/p0 weight.
SELF_ADJOINT_RELATIONS = _self_adjoint("G*", GENERATORS)

_Q = ("Q1", "Q2", "Q3")

# Localization axioms of a position triple Q1..Q3 (see localization.py).
POSITION_RELATIONS: tuple[Relation, ...] = (
    tuple(_bracket("QQ", f"Q{a}", f"Q{b}") for a, b in _PAIRS)
    + tuple(_bracket("QP", f"Q{a}", f"P{b}", I if a == b else ZERO)
            for a, b in _ALL_PAIRS)
    + _vector_brackets("JQ", "J", "Q", "Q", _ALL_PAIRS)
    + _self_adjoint("Q*", _Q)
    + (_exchange("Theta", "Q", 1, _Q), _exchange("Pi", "Q", -1, _Q))
)

# Sign of A*G == sign * G*A demanded of a discrete operator A, by kind.
DISCRETE_SIGNS = {
    ("theta", UNITARY): {"P0": -1, "P": 1, "J": 1, "K": -1},
    ("theta", ANTIUNITARY): {"P0": 1, "P": -1, "J": -1, "K": 1},
    ("pi", UNITARY): {"P0": 1, "P": -1, "J": 1, "K": -1},
    ("pi", ANTIUNITARY): {"P0": -1, "P": 1, "J": -1, "K": 1},
}


def _phase(lhs: str, family: str, word, rhs_word, value: Scalar | None,
           ok: bool) -> Relation:
    """word == value*rhs_word, the row named lhs == ...; a value that is
    None (no constant fits) or not ok fails the row unevaluated."""
    unit = "c" if value is None else repr(value)
    rhs = "*".join(rhs_word)
    if not rhs:
        rhs = unit
    elif unit != "1":
        rhs = f"{unit}*{rhs}"
    name = f"{lhs} == {rhs}"
    if value is None:
        return Relation(name, family, (), f"no constant c has {name}")
    return Relation(name, family, (((ONE, word), (-value, rhs_word)),),
                    "" if ok else f"got {value!r}")


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
        rels.append(_phase(
            f"{op}^2", f"{op}^2", (op, op), (), square,
            square in (ONE, -ONE) and (kind == ANTIUNITARY or square == ONE)))
    omega = rep.omega
    rels.append(_phase("Pi*Theta", "omega", ("Pi", "Theta"), ("Theta", "Pi"),
                       omega, omega in (ONE, -ONE)))
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
    """A representation is its operators; all else is read from them.  The
    squares and omega are the c with Theta*Theta == c, Pi*Pi == c and
    Pi*Theta == c*Theta*Pi (None if no constant fits), cached on first
    use on the instance, which dataclasses.replace does not copy."""

    label: str
    p0: BlockOp
    p: tuple[BlockOp, BlockOp, BlockOp]
    j: tuple[BlockOp, BlockOp, BlockOp]
    k: tuple[BlockOp, BlockOp, BlockOp]
    theta: BlockOp
    pi: BlockOp

    def __post_init__(self):
        """ValueError naming the first operator field that is not a BlockOp
        (p, j and k: a tuple of three) or whose block count or spin
        dimension is not P0's; dataclasses.replace runs it too."""
        shape = (self.p0.blocks, self.p0.dim)
        for name in ("p", "j", "k", "theta", "pi"):
            ops = getattr(self, name)
            if name in ("theta", "pi"):
                ops = (ops,)
            elif not (isinstance(ops, tuple) and len(ops) == 3):
                raise ValueError(f"{name} is not a tuple of three operators")
            for op in ops:
                if not isinstance(op, BlockOp):
                    raise ValueError(f"{name} holds {type(op).__name__}, not BlockOp")
                if (op.blocks, op.dim) != shape:
                    raise ValueError(f"{name}'s (blocks, dim) {(op.blocks, op.dim)}"
                                     f" is not P0's {shape}")

    @property
    def blocks(self) -> int:
        return self.p0.blocks

    @property
    def dim(self) -> int:
        return self.p0.dim

    @property
    def two_s(self) -> int:
        return self.p0.dim - 1

    @cached_property
    def theta_square(self) -> Scalar | None:
        return _square(self.theta)

    @cached_property
    def pi_square(self) -> Scalar | None:
        return _square(self.pi)

    @cached_property
    def omega(self) -> Scalar | None:
        return (self.pi * self.theta).ratio(self.theta * self.pi)

    @property
    def theta_kind(self) -> str:
        return ANTIUNITARY if self.theta.kappa_parity() else UNITARY

    @property
    def pi_kind(self) -> str:
        return ANTIUNITARY if self.pi.kappa_parity() else UNITARY

    @property
    def energy_signs(self) -> tuple[int, ...]:
        """The signs s_r with P0 == diag(s_r * p0); empty if P0 has
        another form."""
        p0 = energy_op(self.dim)
        signs = tuple(1 if self.p0.entries[r][r] == p0 else -1
                      for r in range(self.blocks))
        standard = BlockOp.diag([p0 if s > 0 else -p0 for s in signs])
        return signs if self.p0 == standard else ()

    @property
    def spectrum(self) -> str:
        return _SPECTRA.get(frozenset(self.energy_signs), "undetermined")

    def generators(self) -> dict[str, BlockOp]:
        return dict(zip(GENERATORS, (self.p0, *self.p, *self.j, *self.k)))


# -- the catalog table ------------------------------------------------------------


def _pattern(rows) -> tuple[tuple[Scalar, ...], ...]:
    return mat_map(Scalar.from_rational, rows)


def _square(op: BlockOp) -> Scalar | None:
    return (op * op).ratio(BlockOp.identity(op.blocks, op.dim))


_SPECTRA = {frozenset({1}): "up", frozenset({-1}): "down",
            frozenset({1, -1}): "symmetric"}


def _discrete_op(pattern, spin: str, upsilon: int, kappa: int, two_s: int) -> BlockOp:
    mat = tau_matrix(two_s) if spin == "tau" else identity_matrix(two_s + 1)
    inner = ScalarOp(two_s + 1,
                     {((0, 0, 0), upsilon, kappa): mat_map(Coefficient.const, mat)})
    return BlockOp(mat_map(inner.scale, pattern))


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


@lru_cache(maxsize=None)
def _assemble(entry: Entry, two_s: int) -> RepSpec:
    """Diagonal generators from the entry's signs, patterned discretes.

    One spec per (entry, two_s) in a process, so its squares and omega
    are computed once; its operators are never changed after it is built
    (dataclasses.replace makes a new spec)."""
    gen = signed_generators(two_s, entry.signs)
    return RepSpec(
        label=entry.label,
        p0=gen["P0"],
        p=tuple(gen[f"P{a}"] for a in (1, 2, 3)),
        j=tuple(gen[f"J{a}"] for a in (1, 2, 3)),
        k=tuple(gen[f"K{a}"] for a in (1, 2, 3)),
        theta=_discrete_op(_pattern(entry.theta[0]), *entry.theta[1:], two_s),
        pi=_discrete_op(_pattern(entry.pi[0]), *entry.pi[1:], two_s),
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


# -- the exact evaluator ------------------------------------------------------------


def pauli_lubanski(rep: RepSpec) -> tuple[BlockOp, BlockOp, BlockOp, BlockOp]:
    """(W0, W1, W2, W3) with W0 = P.J and W_a = P0*J_a + (P x K)_a.

    Each W is one flat sum of weighted words, formed by
    symop.relation_residual and so memoized by the operators' values:
    entries with equal generators share their W.  A vanishing sum (W0 at
    spin 0) is the zero BlockOp."""
    words = [tuple((ONE, (p, j)) for p, j in zip(rep.p, rep.j))]
    for a in (1, 2, 3):
        b, c = _CYCLIC[a]
        words.append(((ONE, (rep.p0, rep.j[a - 1])),
                      (ONE, (rep.p[b - 1], rep.k[c - 1])),
                      (-ONE, (rep.p[c - 1], rep.k[b - 1]))))
    ws = [relation_residual(rep.blocks, rep.dim, terms) for terms in words]
    zero = BlockOp.zero(rep.blocks, rep.dim)
    return tuple(zero if w is None else w for w in ws)


_MU_SQUARED = Coefficient(Poly({(2, 0, 0, 0, 0): ONE}))


def operators(rep: RepSpec, names, q=None) -> dict[str, BlockOp]:
    """The operator of each name: the generators, Theta and Pi, plus
    Q1..Q3 from a position triple ``q`` (any three BlockOps), plus mu^2,
    W0..W3 and the formal adjoint "adjoint(X)" of any other operator X
    when ``names`` asks for them.

    Built from the fields on every call and never stored, so a spec
    altered with dataclasses.replace is evaluated as altered: the verdict
    memo keys on these operators' values, never on the spec.
    W0..W3 are sums over the generators formed by the verdict memo
    (``pauli_lubanski``), so they too are looked up by the values of the
    fields, and an entry with equal generators gets the same objects.
    """
    ops = rep.generators()
    ops.update(Theta=rep.theta, Pi=rep.pi)
    if q is not None:
        ops.update(zip(_Q, q))
    if "mu^2" in names:
        ops["mu^2"] = BlockOp.identity(rep.blocks, rep.dim).scale(_MU_SQUARED)
    if "W0" in names:
        ops.update(zip(("W0", "W1", "W2", "W3"), pauli_lubanski(rep)))
    for name in names:
        if name.startswith("adjoint("):
            ops[name] = ops[name[len("adjoint("):-1]].adjoint()
    return ops


def word_names(rels) -> set[str]:
    """Every operator name the words of ``rels`` use."""
    return {n for rel in rels for comp in rel.components
            for _c, word in comp for n in word}


def _truncate(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _violation(rel: Relation, ops) -> str:
    """Empty if rel holds exactly, else why not: its first nonzero component.

    Each component is summed once, by symop.relation_residual in a
    RelationSum: every word enters as its block paths, over the common
    denominator of each entry, and only a nonzero sum is put in normal
    form, for the residual's text.  That sum is memoized by value, keyed
    by the shape and the weighted words with the operators they name, so
    a component over the same operators in another entry (P and J are
    equal in every entry of a block count, P0 and K in every entry of a
    sign vector) is evaluated once per process.
    """
    if rel.inadmissible:
        return rel.inadmissible
    shape = ops["P0"]
    for idx, component in enumerate(rel.components, 1):
        residual = relation_residual(
            shape.blocks, shape.dim,
            tuple((coeff, tuple(ops[name] for name in word))
                  for coeff, word in component))
        if residual is not None:
            return f"component {idx}: residual {_truncate(repr(residual))}"
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
        holds = not _violation(_exchange("Theta'", "P0", 1, ("P0",)),
                               {"Theta'": variant, "P0": rep.p0})
        rpt.record(
            "theta-offdiagonal-variant", "symbolic",
            "the block-offdiagonal tau*C*Y form "
            + ("unexpectedly satisfies" if holds else "fails")
            + " Theta*P0 == P0*Theta, so the block-diagonal form is used",
        )
    return rpt


def verify_self_adjointness(rep: RepSpec) -> RelationReport:
    """All ten generators equal their formal adjoints for the 1/p0 weight."""
    return verify_relations(rep, SELF_ADJOINT_RELATIONS)


def verify_casimirs(rep: RepSpec) -> RelationReport:
    """Both invariant operators against their closed forms."""
    return verify_relations(rep, casimir_relations(rep))


def allowed_spectra(theta_kind: str, pi_kind: str) -> set[str]:
    """Energy-sign patterns an irreducible entry can have, by operator kind,
    read from the P0 column of ``DISCRETE_SIGNS``.

    An operator of a kind that anticommutes with P0 maps the
    positive-energy subspace onto the negative one and so forces a
    sign-symmetric spectrum.  When both Theta and Pi commute with P0,
    every generator preserves the energy sign, and a sign-symmetric space
    would split; irreducibility then forces a one-sided spectrum.
    """
    if -1 in (DISCRETE_SIGNS[("theta", theta_kind)]["P0"],
              DISCRETE_SIGNS[("pi", pi_kind)]["P0"]):
        return {"symmetric"}
    return {"up", "down"}


def verify_spectrum(rep: RepSpec) -> RelationReport:
    """The spectrum read from P0 against the one the Theta/Pi kinds allow."""
    rpt = RelationReport(rep.label, rep.two_s)
    spectrum = rep.spectrum
    allowed = allowed_spectra(rep.theta_kind, rep.pi_kind)
    rpt.add(
        "spectrum-consistency", "symbolic", spectrum in allowed,
        f"theta {rep.theta_kind}, pi {rep.pi_kind} permit {sorted(allowed)}; "
        f"energy signs {rep.energy_signs} give {spectrum}",
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
