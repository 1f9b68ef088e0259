"""Newton-Wigner position operators and the particle localization axioms.

The position components on one scalar block are

    F_j = i d_j - (i/2) p_j / p0^2

The counterterm makes F_j formally self-adjoint for the 1/p0-weighted
inner product; without it i*d_j alone is not symmetric.  Multi-block
representations localize with the block-diagonal triple diag(F_j, ...).
The axioms are the rows of ``catalog.POSITION_RELATIONS``, words over
Q1..Q3 and the rep's operators, evaluated by ``catalog.verify_relations``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .catalog import POSITION_RELATIONS, RepSpec, verify_relations
from .exactnum import I, Scalar
from .report import RelationReport
from .spin_algebra import SpinWeight
from .symop import BlockOp, Coefficient, Poly, ScalarOp

# Labels whose Theta/Pi compatibility is asserted; for the rest the
# outcome is recorded without a pass/fail claim because the axioms are
# not known to single out this triple there.
RESOLVED_LABELS = frozenset(
    ("up", "down", "sym3", "sym5", "newup:identity", "newup:symplectic")
)
_DISCRETE_ROWS = frozenset(
    r.name for r in POSITION_RELATIONS if r.family in ("Theta.Q", "Pi.Q")
)


@lru_cache(maxsize=None)
def position_component(axis: int, dim: int) -> ScalarOp:
    """F_axis = i d_axis - (i/2) p_axis / p0^2 on one scalar block."""
    half_i = Scalar.from_rational(0, Fraction(-1, 2))
    counter = ScalarOp.from_coefficient(
        Coefficient(Poly.sym(f"p{axis}").scale(half_i), 2, 0), dim
    )
    return ScalarOp.deriv_op(axis, dim).scale(I) + counter


def newton_wigner(spin: SpinWeight,
                  blocks: int) -> tuple[BlockOp, BlockOp, BlockOp]:
    """(Q1, Q2, Q3), each diag(F_j, ...) over the blocks."""
    if blocks not in (1, 2):
        raise ValueError("unsupported block count")
    dim = spin.dim
    return tuple(BlockOp.diag([position_component(axis, dim)] * blocks)
                 for axis in (1, 2, 3))


def verify_position_axioms(rep: RepSpec, q) -> RelationReport:
    """Localization axioms: commutativity, Euclidean covariance,
    self-adjointness, and Theta/Pi compatibility, of the triple ``q``
    (Q1, Q2, Q3), any sequence of three BlockOps.

    The rows are ``catalog.POSITION_RELATIONS``.  The Theta/Pi checks are
    asserted only for RESOLVED_LABELS; for any other representation the
    computed outcome is recorded.
    """
    if q[0].blocks != rep.blocks:
        raise ValueError("position triple does not match the block count")
    recorded = () if rep.label in RESOLVED_LABELS else _DISCRETE_ROWS
    return verify_relations(rep, POSITION_RELATIONS, q, recorded)


def localization_report(rep: RepSpec) -> RelationReport:
    """Convenience: build the canonical triple for the rep and verify."""
    q = newton_wigner(SpinWeight(rep.two_s), rep.blocks)
    return verify_position_axioms(rep, q)
