"""The row kernel of gridlab (apply and the streamed study) against a
whole-array kernel kept here as the oracle.  The oracle runs each term
as one pass over whole components with the kernel's formula,
conj^k(x) * (F * s), so every element must come out bit-equal: the two
run the same floating-point operations in the same order.  That holds
with the scaled fields filled per slab, for rows computed in mirrored
pairs from a source held in chunks, when the output goes into a
recycled array, and when the result is added onto a sum.  The formula
the kernel used before, conj^k(x * F) * s, is kept as a second
reference; it rounds differently, so it must agree only to a measured
tolerance.
"""

from collections import Counter
from functools import reduce
from operator import mul

import numpy as np
import pytest
from oracle_helpers import expand

from poincarelab import catalog, gridlab
from poincarelab.exactnum import I, ONE
from poincarelab.gridlab import (
    Grid, GridState, _Mesh, apply, sample_gaussian, standard_state,
)
from poincarelab.symop import BlockOp, ScalarOp

L = 4.0
# Bound on max |scaled - unscaled| / max |unscaled| between the two term
# formulas.  Measured over the operators of _operators for up 2s=1,
# sym3 2s=1 and quad:+1 at N = 16, 17, 64, 128: at most 7.2e-16 (K1 J3
# on up at N = 128), 5.2e-16 on this file's grids.
FORMULA_TOL = 2e-15


def _central_diff(arr, axis, out):
    arr = np.ascontiguousarray(arr)
    stride = arr.strides[axis] // arr.itemsize
    flat, dst = arr.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * stride:], flat[:-2 * stride], out=dst[stride:-stride])
    edge = [slice(None)] * arr.ndim
    for plane in (0, -1):
        edge[axis] = plane
        out[tuple(edge)] = 0
    return out


def _scaled_term(buf, x, field, s, conj):
    """buf = conj^k(x) * (field * s), or conj^k(x) * s without a field."""
    if conj:
        x = np.conjugate(x)
    if field is None and s == 1:
        np.copyto(buf, x)
    else:
        np.multiply(x, s if field is None else np.multiply(field, s), out=buf)


def _unscaled_term(buf, x, field, s, conj):
    """buf = conj^k(x * field) * s: the formula before scaled fields."""
    if field is not None:
        np.multiply(x, field, out=buf)
        if conj:
            np.conjugate(buf, out=buf)
    elif conj:
        np.conjugate(x, out=buf)
    else:
        np.copyto(buf, x)
    if s != 1:
        buf *= s


def _bits(values):
    """The raw bits of a complex array: signed zeros and NaN payloads count."""
    return np.ascontiguousarray(values).view(np.uint64)


def whole_array_apply(op, state, term_into=_scaled_term):
    """apply() as one pass over whole components per term: difference
    chain into two full-size buffers, reflect, the term's product by
    ``term_into`` and add through a full-size scratch buffer."""
    g = state.grid
    mesh = _Mesh(g)
    raw = np.zeros((op.blocks, op.dim) + (g.points,) * 3, dtype=complex)
    out = np.moveaxis(raw, 1, -1)
    shape = (g.points,) * 3
    scratch, *deriv = (np.empty(shape, dtype=complex) for _ in range(3))
    written = set()
    for br, row in enumerate(op.entries):
        for bc, sop in enumerate(row):
            for (alpha, u, k), mat in sop.terms.items():
                axes = [a for a in range(3) for _ in range(alpha[a])]
                step = ((-1 if u else 1) / (2 * g.spacing)) ** len(axes)
                for n in range(op.dim):
                    column = [(m, mat[m][n]) for m in range(op.dim)
                              if not mat[m][n].is_zero()]
                    if not column:
                        continue
                    x = state.values[bc, ..., n]
                    for i, axis in enumerate(axes):
                        x = _central_diff(x, axis, deriv[i % 2])
                    if u:
                        x = x[::-1, ::-1, ::-1]
                    for m, c in column:
                        dst = out[br, ..., m]
                        for field, s in expand(mesh, c):
                            if (br, m) in written:
                                term_into(scratch, x, field, s * step, k)
                                dst += scratch
                            else:
                                term_into(dst, x, field, s * step, k)
                                written.add((br, m))
    return out


def _ranges(n):
    """The row ranges of a streamed study's levels, slab and mirror,
    outside in."""
    return [r for level in gridlab._level_ranges(n, gridlab._slab_rows(n))
            for r in level]


def _chunked(values):
    """Every row of a state as chunks along ``_ranges``, copied out: the
    chunks a streamed plan keeps of a word."""
    comps = np.moveaxis(values, -1, 1)
    return gridlab._Rows((), [(lo, hi, comps[:, :, lo:hi].copy())
                              for lo, hi in _ranges(comps.shape[2])])


def _layout(mesh, ops, *words):
    """The layout of a plan whose components are ``words``, one term
    each: its plans, the pairs they share and the sizes of its buffers."""
    return gridlab._Layout(ops, [((ONE, word),) for word in words],
                           mesh.grid, mesh)


def _one_word(op, mesh):
    """The layout apply makes of op, and its one plan."""
    lay = _layout(mesh, {"op": op}, ("op",))
    (plan,) = lay.plans.values()
    return lay, plan


def row_kernel(op, state, src=None, c=None, out=None):
    """op applied to state by gridlab's row kernel, range by range over
    the levels of a streamed study (slab and mirror, outside in), read
    from ``src`` (default: the whole state).  Written into a NaN-filled
    array, or with c given, c times the rows added onto ``out``."""
    g = state.grid
    n, mesh = g.points, _Mesh(g)
    lay, plan = _one_word(op, mesh)
    ranges = _ranges(n)
    rows = max(hi - lo for lo, hi in ranges)
    assert rows <= lay.span
    bufs = gridlab._Buffers(mesh, lay)
    if src is None:
        src = gridlab._Rows.whole(state.values)
    if out is None:  # stored spin-major, as apply's outputs are
        out = np.moveaxis(np.full((op.blocks, op.dim, n, n, n), np.nan,
                                  dtype=complex), 1, -1)
    comps = np.moveaxis(out, -1, 1)
    # added as a streamed study adds a term: applied into one slab, then
    # c times it added onto the rows
    slab = np.empty((op.blocks, op.dim, rows, n, n), dtype=complex)
    for lo, hi in ranges:
        if c is None:
            gridlab._apply_rows(plan, bufs, src, lo, hi, comps[:, :, lo:hi])
            continue
        add = slab[:, :, :hi - lo]
        gridlab._apply_rows(plan, bufs, src, lo, hi, add)
        gridlab._add_rows(comps[:, :, lo:hi], add, c, add)
    return out


def _operators(rep):
    ops = dict(rep.generators(), Theta=rep.theta, Pi=rep.pi,
               K1Theta=rep.k[0] * rep.theta, J2Pi=rep.j[1] * rep.pi)
    # |alpha| = 2: d1 d2 and d1^2 terms, the latter on axis 0 twice
    ops["K1J3"] = rep.k[0] * rep.j[2]
    ops["K1K1"] = rep.k[0] * rep.k[0]
    return ops


@pytest.mark.parametrize("label,two_s", [("up", 1), ("quad:+1", 0)])
@pytest.mark.parametrize("points", [16, 17, 64])
@pytest.mark.parametrize("slab_bytes", [gridlab.SLAB_BYTES, 3 * 17 * 17 * 16])
def test_slab_kernel_is_bit_equal_to_whole_array(label, two_s, points,
                                                  slab_bytes, monkeypatch):
    # the second slab size gives 3-row slabs at N = 17 (17 = 5*3 + 2)
    # and 1-row slabs at N = 64, so slab ends and the axis-0 halo fall
    # inside the grid; N = 64 at the default size has 4 rows per slab
    monkeypatch.setattr(gridlab, "SLAB_BYTES", slab_bytes)
    rep = catalog.build(label, two_s)
    st = standard_state(rep, Grid(L, points))
    spin_last = GridState(np.ascontiguousarray(st.values), st.grid)
    ops = _operators(rep)
    assert any(sum(alpha) == 2 for op in ops.values() for row in op.entries
               for sop in row for (alpha, _u, _k) in sop.terms)
    # both kinds of scaled field occur and feed several terms: full-size
    # ones filled per slab (the K's) and broadcast ones scaled once per
    # apply (the J's)
    shared = set()
    for op in ops.values():
        lay, plan = _one_word(op, _Mesh(st.grid))
        full = dict(lay.pairs.values())  # table index -> full size
        uses = Counter(t[2] for *_src, terms in plan.sources for t in terms
                       if t[2] is not None)
        shared |= {full[plan.used[p]] for p, n in uses.items() if n > 1}
    assert shared == {True, False}
    for name, op in ops.items():
        want = whole_array_apply(op, st)
        assert np.abs(want).max() > 0, name
        for state in (st, spin_last):
            got = apply(op, state)
            assert np.array_equal(_bits(got.values), _bits(want)), name
            assert got.values.strides == want.strides
            # rows in mirrored pairs into a recycled (NaN-filled) array:
            # every element written or zeroed
            got = row_kernel(op, state)
            assert np.array_equal(_bits(got), _bits(want)), name
        # the source held in chunks of the level ranges: an axis-0
        # stencil reads across them
        got = row_kernel(op, st, _chunked(st.values))
        assert np.array_equal(_bits(got), _bits(want)), name
        old = whole_array_apply(op, st, _unscaled_term)
        assert np.abs(want - old).max() <= FORMULA_TOL * np.abs(old).max()


@pytest.mark.parametrize("label,two_s", [("up", 1), ("quad:-1", 0),
                                         ("sym3", 1)])
def test_folded_read_equals_reading_the_applied_state(label, two_s):
    # a generator's kernel reading the state through Theta, Pi or a
    # product of both (mirrored, conjugated, spin components permuted,
    # signs folded into its own) gives the values of its kernel reading
    # the applied state: equal to the last bit but for the sign of a
    # zero, which no norm sees, with no pair the plain kernel does not
    # read.  The layout's kernel is the one whose fold is _monomial of
    # the exact product of the operators read through.  quad:-1's Pi has
    # -1 phases, and odd N puts a stencil's zero rows mid-grid.  A phase
    # of i does not fold: such an operator is stored as a word
    rep = catalog.build(label, two_s)
    g = Grid(L, 17)
    mesh = _Mesh(g)
    st = standard_state(rep, g)
    src = gridlab._Rows.whole(st.values)
    ops = dict(rep.generators(), Theta=rep.theta, Pi=rep.pi)
    assert gridlab._monomial(rep.theta.scale(I)) is None
    for chain in (("Theta",), ("Pi",), ("Theta", "Pi"), ("Pi", "Theta")):
        fold = gridlab._monomial(reduce(mul, (ops[c] for c in chain)))
        assert fold is not None
        applied = st
        for c in reversed(chain):
            applied = apply(ops[c], applied)
        for name, op in rep.generators().items():
            plain = _layout(mesh, ops, (name,))
            lay = _layout(mesh, ops, (name,), (name, *chain))
            assert lay.pairs == plain.pairs, name
            pairs = dict(lay.pairs)
            folded = lay.plans[(name, *chain)]
            assert gridlab._plan(op, mesh, g.spacing, pairs, fold) == folded
            assert pairs == lay.pairs, name
            bufs = gridlab._Buffers(mesh, lay)
            want = np.full((rep.blocks, rep.dim, 17, 17, 17), np.nan,
                           dtype=complex)
            got = want.copy()
            gridlab._apply_rows(lay.plans[(name,)], bufs, gridlab._Rows.whole(
                applied.values), 0, 17, want)
            gridlab._apply_rows(folded, bufs, src, 0, 17, got)
            assert np.array_equal(got, want), name


def test_slab_kernel_keeps_each_outputs_term_order():
    # both block rows difference source block 0 along all three axes, in
    # opposite orders, so the rows agree only up to rounding; sharing one
    # differenced slab between the rows must not reorder either sum
    d1, d2, d3 = (ScalarOp.deriv_op(j, 1) for j in (1, 2, 3))
    zero = ScalarOp.zero(1)
    op = BlockOp([[d1 + d2 + d3, zero], [d3 + d2 + d1, zero]])
    g = Grid(L, 17)
    st = sample_gaussian(g, (0.2, -0.3, 0.1), L / 9, [[1.0 + 0.5j], [0.5]])
    want = whole_array_apply(op, st)
    assert not np.array_equal(want[0], want[1])
    assert np.array_equal(apply(op, st).values, want)


def _partial_op():
    """d1 on block 0, nothing reaching block row 1."""
    zero = ScalarOp.zero(1)
    return BlockOp([[ScalarOp.deriv_op(1, 1), zero], [zero, zero]])


def test_recycled_output_zeroes_components_no_term_reaches():
    # block row 1 gets no contribution at all, so the row kernel must
    # zero it in a recycled array rather than leave what was there
    op = _partial_op()
    g = Grid(L, 17)
    st = sample_gaussian(g, (0.2, -0.3, 0.1), L / 9, [[1.0 + 0.5j], [0.5]])
    want = whole_array_apply(op, st)
    assert not want[1].any() and want[0].any()
    assert np.array_equal(_bits(row_kernel(op, st)), _bits(want))


@pytest.mark.parametrize("slab_bytes", [gridlab.SLAB_BYTES, 3 * 17 * 17 * 16])
@pytest.mark.parametrize("c", [1, -1, 1j, 1.5 - 2j])
def test_add_into_equals_adding_the_applied_state(c, slab_bytes,
                                                   monkeypatch):
    # the sum gets exactly the elementwise operation of adding a whole
    # applied state: += for 1, -= for -1, else multiply, then +=
    monkeypatch.setattr(gridlab, "SLAB_BYTES", slab_bytes)
    g = Grid(L, 17)
    rep = catalog.build("up", 1)
    st = standard_state(rep, g)
    two = sample_gaussian(g, (0.2, -0.3, 0.1), L / 9, [[1.0 + 0.5j], [0.5]])
    for op, state in ((rep.k[0], st), (rep.theta, st), (rep.j[1], st),
                      (_partial_op(), two)):
        acc = np.conj(state.values) * (0.5 + 0.25j)
        acc[..., 0, 0, :] = -0.0  # signed zeros must come out as added
        values = apply(op, state).values
        if c == 1:
            want = acc + values
        elif c == -1:
            want = acc - values
        else:
            want = acc + values * c
        got = row_kernel(op, state, c=c, out=acc)
        assert got is acc
        assert np.array_equal(_bits(acc), _bits(want))


def test_apply_rejects_a_mismatched_operator():
    rep = catalog.build("up", 1)
    st = standard_state(rep, Grid(L, 16))
    for op in (catalog.build("up", 0).k[0], catalog.build("quad:+1", 0).k[0]):
        with pytest.raises(ValueError, match="does not match the state"):
            apply(op, st)


def test_rows_spanning_two_chunks_are_refused(monkeypatch):
    # a streamed plan asks for a level range or its mirror, each held in
    # one chunk, so take hands out a view; rows across two chunks are a
    # broken invariant, not a copy to make
    monkeypatch.setattr(gridlab, "SLAB_BYTES", 3 * 17 * 17 * 16)
    st = standard_state(catalog.build("up", 0), Grid(L, 17))
    src = _chunked(st.values)
    lo, hi, values = src.find(0)
    assert (lo, hi) == (0, 3)
    assert np.shares_memory(src.take(0, 3), values)
    with pytest.raises(AssertionError, match="span two chunks"):
        src.take(0, 4)


def test_slab_rows_follow_the_byte_target():
    assert gridlab._slab_rows(128) == 1
    assert gridlab._slab_rows(64) == 4
    assert gridlab._slab_rows(32) == 16
    assert gridlab._slab_rows(4096) == 1


def test_apply_rejects_a_non_finite_field(monkeypatch):
    # an inf in one row of K1's spin coupling p2 / (mu + p0), handed out
    # by the row evaluator of the fields, is caught in the rows it reaches
    g = Grid(L, 16)
    rep = catalog.build("up", 1)
    st = standard_state(rep, g)
    apply(rep.k[0], st)
    key = ((0, 1, 0, 0), 0, 1)
    real = gridlab._Mesh.field

    def poisoned(mesh, k, lo=0, hi=None):
        f = real(mesh, k, lo, hi)
        if k == key and lo <= 9 < (mesh.n if hi is None else hi):
            f = f.copy()
            f[9 - lo, 4, 7] = np.inf
        return f

    monkeypatch.setattr(gridlab._Mesh, "field", poisoned)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        apply(rep.k[0], st)
    # also when the rows are added onto a sum: the row kernel leaves the
    # scan to its caller, and a study checks a word it adds onto a
    # component (K1 psi after P1 psi) through that component's norm
    with np.errstate(invalid="ignore"):
        acc = row_kernel(rep.k[0], st, c=1, out=np.zeros_like(st.values))
    assert not np.isfinite(acc).all()
    comps = [((ONE, ("P1",)), (ONE, ("K1",)))]
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        gridlab._stream(catalog.operators(rep, {"K1", "P1"}), st, comps)
