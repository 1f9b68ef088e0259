"""The sparse exact elimination of exactnum.row_reduce against the dense
Gauss-Jordan elimination it replaced, kept here as the oracle.  The
systems are drawn dense, wider than ncols, and fed to row_reduce and
nullspace as sparse rows {col: Scalar} of their nonzero entries.

The reduced row echelon form of a matrix is unique and Scalar arithmetic
is canonical, so the two must agree exactly on the reduced rows, the
pivot columns and the nullspace basis, although they choose their pivots
in different orders.  ``derandomize`` makes every run draw the same
examples.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from poincarelab.exactnum import I, ONE, ZERO, Scalar, nullspace, row_reduce

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


def dense_row_reduce(rows, ncols):
    """Gauss-Jordan elimination of the first ncols columns over dense rows;
    the pivot is the first remaining row with a nonzero in the column.
    Returns all rows and the pivots as (row, col) pairs in column order."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for rr in range(r, len(m)):
            if not m[rr][c].is_zero():
                pr = rr
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for rr in range(len(m)):
            if rr != r and not m[rr][c].is_zero():
                f = m[rr][c]
                m[rr] = [x - f * y for x, y in zip(m[rr], m[r])]
        pivots.append((r, c))
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_nullspace(rows, ncols):
    m, pivots = dense_row_reduce(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for pr, pc in pivots:
            v[pc] = -m[pr][free]
        basis.append(v)
    return basis


# mostly zeros, so that systems are sparse; surd and complex entries
_entries = st.sampled_from(
    (ZERO,) * 6 + (
        ONE, -ONE, Scalar.from_rational(Fraction(-2, 3)), I, ONE + I,
        Scalar.sqrt_int(2), Scalar.sqrt_int(3) - I, Scalar.sqrt_int(6) * I,
    )
)


@st.composite
def systems(draw):
    """Rows of equal length >= ncols, with zero and duplicate rows mixed in."""
    ncols = draw(st.integers(1, 6))
    length = ncols + draw(st.integers(0, 2))
    nrows = draw(st.integers(0, 9))
    rows = [[draw(_entries) for _ in range(length)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            src = rows[draw(st.integers(0, len(rows) - 1))]
            scale = draw(st.sampled_from((ONE, -ONE, I, Scalar.sqrt_int(2))))
            copy = [scale * x for x in src]
        else:
            copy = [ZERO] * length
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return rows, ncols


def _sparse(row):
    return {c: x for c, x in enumerate(row) if not x.is_zero()}


@SETTINGS
@given(systems())
def test_sparse_matches_dense(case):
    rows, ncols = case
    sparse = [_sparse(row) for row in rows]
    given_rows = [dict(row) for row in sparse]
    reduced, pivots = row_reduce(sparse, ncols)
    assert sparse == given_rows  # the rows given are left as they were
    m, dense_pivots = dense_row_reduce(rows, ncols)
    assert pivots == [c for _, c in dense_pivots]
    dense_rows = [_sparse(row[:ncols]) for row in m]
    assert reduced == dense_rows[:len(pivots)]
    assert not any(dense_rows[len(pivots):])
    assert nullspace(sparse, ncols) == [
        _sparse(v) for v in dense_nullspace(rows, ncols)]
