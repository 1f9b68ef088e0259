"""Shared sympy bridge and exact self-checks for oracle tests.

Exact conversion of engine scalars, polynomials, and coefficients into
sympy expressions with the energy written out as sqrt(mu^2 + |q|^2), so
expected values are produced by sympy rather than by the engine itself.
The spin identities, the lift of a commutant matrix to an operator and
the change of basis of a commutant problem are checks of the engine
that only the tests call, so they live here too, and so does the
pairwise BlockOp sum of a relation component, the oracle of
symop.RelationSum, the chained-sum Pauli-Lubanski vector, the oracle of
catalog.pauli_lubanski, the whole-state evaluation of grid residuals
with the whole-state norm and coefficient field expansion it uses, the
oracle of gridlab's streamed study, and the structural equality of
coefficients, the oracle of their hash-consing, with the structural
snapshot that shows an operand written into.
"""

from functools import partial

import numpy as np
import sympy as sp

from poincarelab.catalog import _truncate
from poincarelab.commutant import CommutantProblem
from poincarelab.exactnum import (
    I, ONE, Matrix, Scalar, identity_matrix, mat_add, mat_dagger, mat_eq,
    mat_map, mat_mul, mat_scale, mat_sub, mat_transpose,
)
from poincarelab.spin_algebra import SpinWeight, spin_matrices
from poincarelab.symop import BlockOp, Coefficient, Poly, ScalarOp

MU = sp.Symbol("mu", positive=True)
Q1, Q2, Q3 = sp.symbols("q1 q2 q3", real=True)
Q0 = sp.sqrt(MU**2 + Q1**2 + Q2**2 + Q3**2)
QVARS = (Q1, Q2, Q3)
_BASES = (MU, Q1, Q2, Q3, Q0)


def scalar_to_sympy(s: Scalar):
    out = sp.Integer(0)
    for n, (re, im) in s.terms.items():
        out += (sp.Rational(re) + sp.I * sp.Rational(im)) * sp.sqrt(n)
    return out


def poly_to_sympy(poly: Poly):
    out = sp.Integer(0)
    for mono, c in poly.terms.items():
        term = scalar_to_sympy(c)
        for base, e in zip(_BASES, mono):
            if e:
                term *= base**e
        out += term
    return out


def coeff_to_sympy(c: Coefficient):
    return poly_to_sympy(c.num) / (Q0**c.a * (MU + Q0) ** c.b)


def coefficients_equal(x: Coefficient, y: Coefficient) -> bool:
    """Structural equality, the Coefficient.__eq__ of before hash-consing:
    the same denominator exponents and equal numerators, compared term by
    term down to the rationals."""
    return x.a == y.a and x.b == y.b and x.num == y.num


def structure(x):
    """Every field of a coefficient, operator or block operator as nested
    tuples, rebuilt from scratch, so a write into any part shows."""
    if isinstance(x, Coefficient):
        return (x.a, x.b, tuple(sorted(
            (m, tuple(sorted(s.terms.items()))) for m, s in x.num.terms.items()
        )))
    if isinstance(x, ScalarOp):
        return (x.dim, tuple(sorted(
            (key, tuple(tuple(structure(c) for c in row) for row in mat))
            for key, mat in x.terms.items()
        )))
    return tuple(tuple(structure(op) for op in row) for row in x.entries)


def generic_functions(dim: int, tag: str = "f"):
    return [sp.Function(f"{tag}{m}")(Q1, Q2, Q3) for m in range(dim)]


def op_action(sop: ScalarOp, funcs):
    """Apply a linear (no reflection/conjugation) operator symbolically."""
    out = [sp.Integer(0)] * sop.dim
    for (alpha, u, k), mat in sop.terms.items():
        if u or k:
            raise ValueError("op_action handles linear terms only")
        dfuncs = []
        for f in funcs:
            g = f
            for var, n in zip(QVARS, alpha):
                for _ in range(n):
                    g = sp.diff(g, var)
            dfuncs.append(g)
        for m in range(sop.dim):
            for n_ in range(sop.dim):
                c = mat[m][n_]
                if not c.is_zero():
                    out[m] += coeff_to_sympy(c) * dfuncs[n_]
    return out


def all_zero(exprs) -> bool:
    return all(sp.simplify(e) == 0 for e in exprs)


def dense_commutant_dimension(rep) -> int:
    """Numeric oracle: real dimension of the self-adjoint commutant.

    Reads the block patterns, kinds and energy signs from the rep's
    ``catalog.CATALOG`` row, not from its operators, so it checks the
    operators against the table.  Parametrizes a full complex block
    matrix (no self-adjoint reduction), realifies every constraint, and
    counts the nullspace with an SVD, so it shares nothing with the
    exact solver.
    """
    import numpy as np
    from scipy.linalg import null_space

    from poincarelab import catalog

    entry = next(e for e in catalog.CATALOG if e.label == rep.label)
    B = len(entry.signs)

    def np_pattern(spec):
        return np.array(spec[0], dtype=complex), bool(spec[3])

    (tp, t_anti), (pp, p_anti) = np_pattern(entry.theta), np_pattern(entry.pi)

    def constraint_block(Z):
        out = [Z - Z.conj().T]
        zero = np.zeros_like(Z)
        for r in range(B):
            for c in range(B):
                if entry.signs[r] != entry.signs[c]:
                    e = zero.copy()
                    e[r, c] = Z[r, c]
                    out.append(e)
        out.append(Z @ tp - tp @ (Z.conj() if t_anti else Z))
        out.append(Z @ pp - pp @ (Z.conj() if p_anti else Z))
        flat = np.concatenate([m.ravel() for m in out])
        return np.concatenate([flat.real, flat.imag])

    cols = []
    for r in range(B):
        for c in range(B):
            for val in (1.0, 1.0j):
                Z = np.zeros((B, B), dtype=complex)
                Z[r, c] = val
                cols.append(constraint_block(Z))
    mat = np.array(cols).T
    return null_space(mat, rcond=1e-10).shape[1]


def check_spin_invariants(two_s: int) -> None:
    """Raise if the exact spin identities fail (used as a self test)."""
    s1, s2, s3 = spin_matrices(two_s)
    for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
        if not mat_eq(mat_sub(mat_mul(a, b), mat_mul(b, a)), mat_scale(I, c)):
            raise AssertionError("spin commutation relation failed")
    w = SpinWeight(two_s)
    expected = identity_matrix(w.dim, Scalar.from_rational(w.casimir))
    squared = mat_add(mat_add(mat_mul(s1, s1), mat_mul(s2, s2)), mat_mul(s3, s3))
    if not mat_eq(squared, expected):
        raise AssertionError("spin Casimir failed")


def as_block_operator(mat: Matrix, two_s: int) -> BlockOp:
    """Lift a constant block matrix to an engine operator for recheck."""
    return BlockOp(mat_map(ScalarOp.identity(two_s + 1).scale, mat))


def conjugate_problem(prob: CommutantProblem, u: Matrix) -> CommutantProblem:
    """Change of basis by a constant block unitary U.

    Every pattern moves with it: a linear one to U P U*, an antilinear
    one to U P U^T (the conjugation flips the right factor).  Used to
    check that verdicts are basis-independent.
    """
    if not mat_eq(mat_mul(u, mat_dagger(u)), identity_matrix(prob.blocks)):
        raise ValueError("conjugating matrix is not unitary")
    return CommutantProblem(prob.blocks, tuple(
        (mat_mul(mat_mul(u, pat), mat_transpose(u) if anti else mat_dagger(u)),
         anti)
        for pat, anti in prob.constraints
    ))


def word_product(word, ops) -> BlockOp:
    """The word multiplied left to right as BlockOps; the empty word is
    the identity."""
    if not word:
        g = ops["P0"]
        return BlockOp.identity(g.blocks, g.dim)
    out = ops[word[0]]
    for name in word[1:]:
        out = out * ops[name]
    return out


def pairwise_sum(component, ops) -> BlockOp:
    """The component summed term by term, every partial sum a normal-form
    BlockOp; the sum of no terms is the zero operator."""
    g = ops["P0"]
    acc = BlockOp.zero(g.blocks, g.dim)
    for coeff, word in component:
        term = word_product(word, ops)
        if coeff == -ONE:
            acc = acc - term
            continue
        if coeff != ONE:
            term = term.scale(coeff)
        acc = acc + term
    return acc


def pairwise_violation(rel, ops) -> str:
    """catalog._violation's text, from pairwise sums."""
    if rel.inadmissible:
        return rel.inadmissible
    for idx, component in enumerate(rel.components, 1):
        acc = pairwise_sum(component, ops)
        if not acc.is_zero():
            return f"component {idx}: residual {_truncate(repr(acc))}"
    return ""


def chained_pauli_lubanski(rep):
    """(W0, W1, W2, W3) as chained BlockOp sums, every partial sum in
    normal form: the oracle of catalog.pauli_lubanski."""
    w0 = BlockOp.zero(rep.blocks, rep.dim)
    for pg, jg in zip(rep.p, rep.j):
        w0 = w0 + pg * jg
    ws = [w0]
    for a, (b, c) in ((1, (2, 3)), (2, (3, 1)), (3, (1, 2))):
        ws.append(rep.p0 * rep.j[a - 1] + rep.p[b - 1] * rep.k[c - 1]
                  - rep.p[c - 1] * rep.k[b - 1])
    return tuple(ws)


def norm(state):
    """gridlab's weighted norm of a whole state: one ``gridlab._Norm`` fed
    every row, range by range over the levels of a streamed plan
    (``gridlab._level_ranges``), the sum the plan's norms must equal bit
    for bit.  Where the slabs tile the levels this is the slab-by-slab
    sum of the whole state."""
    from poincarelab import gridlab

    g = state.grid
    n = g.points
    total = gridlab._Norm(
        n, partial(gridlab._Mesh(g).field, gridlab._INV_P0))
    values = np.moveaxis(state.values, -1, 1)
    for ranges in gridlab._level_ranges(n, gridlab._slab_rows(n)):
        for lo, hi in ranges:
            total.add(lo, hi, values[:, :, lo:hi])
    return total.value(g.spacing)


def expand(mesh, c):
    """Coefficient c on a grid's mesh as a list of (basis field on every
    row, or None for 1; scalar): the whole-array form of
    ``gridlab._Mesh.terms``."""
    return [(None if key is None else mesh.field(key), s)
            for key, s in mesh.terms(c)]


def whole_state_norms(ops, state, components, normed=None):
    """The norm of each component (a sum of terms) on a grid state, with
    every word applied to whole states by gridlab.apply: each distinct
    word of a component once, right to left, the terms summed as whole
    arrays in the order written (+-1 coefficients as + and -) and the sum
    normed by ``norm``.  ``normed`` maps words to None; those applied
    get the norm of their state."""
    from poincarelab import gridlab

    out = []
    for comp in components:
        applied = {(): state}

        def value(word):
            if word not in applied:
                applied[word] = gridlab.apply(ops[word[0]], value(word[1:]))
            return applied[word]

        acc = None
        for coeff, word in comp:
            values = value(word).values
            if acc is None:
                acc = values.copy(order="K")
                if coeff != ONE:
                    acc *= coeff.to_complex()
            elif coeff == ONE:
                acc += values
            elif coeff == -ONE:
                acc -= values
            else:
                acc += values * coeff.to_complex()
        out.append(norm(gridlab.GridState(
            acc, state.grid, state.spin, state.blocks)))
        for word in normed or ():
            if word in applied:
                normed[word] = norm(applied[word])
    return out


def whole_state_isometry(rep, state):
    """gridlab.isometry_defect from whole states: |norm(Theta psi) -
    norm(psi)| / norm(psi), and the same for Pi, each applied state made
    by gridlab.apply and normed by ``norm``."""
    from poincarelab import gridlab

    base = norm(state)
    return {name: abs(norm(gridlab.apply(op, state)) - base) / base
            for name, op in (("Theta", rep.theta), ("Pi", rep.pi))}


def whole_state_residuals(rep, relation_ids, state, normed=None):
    """gridlab residuals from ``whole_state_norms``: the worst component
    norm of each relation over the norm of the state."""
    from poincarelab.catalog import operators, relations, word_names

    table = {r.name: r for r in relations(rep)}
    rels = [table[rid] for rid in relation_ids]
    ops = operators(rep, word_names(rels))
    norms = iter(whole_state_norms(
        ops, state, [c for rel in rels for c in rel.components], normed))
    base = norm(state)
    out = []
    for rel in rels:
        worst = 0.0
        for _comp in rel.components:
            worst = max(worst, next(norms) / base)
        out.append(worst)
    return out
