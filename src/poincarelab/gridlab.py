"""Momentum-grid numerical cross-checks of the symbolic algebra.

Wavefunctions are sampled on a uniform cube [-L, L]^3 that is symmetric
about the origin, so the reflection Y is an index reversal and
conjugation is exact.  The reversal reads psi at -p only to an ulp of
the coordinates: np.linspace(-L, L, N) is antisymmetric to rounding, not
exactly (at L = 4, 286 of the N in 8..299 differ from their reversed
negation somewhere, and the middle point of an odd N is -4.4e-16, not 0,
at N = 99, 197, 207 and 215).  Derivatives use second-order central
differences with the boundary planes zeroed (test states must vanish at
the boundary to 1e-12 of peak, so those rows never matter).
Multiplication operators evaluate their exact coefficients at a numeric
mu carried by the grid.

A coefficient num / (p0^a (mu+p0)^b) is expanded into its terms, each an
exact scalar (times the powers of mu) times a real basis field
p^m / (p0^a (mu+p0)^b).  A grid's mesh holds only the axes p1, p2, p3,
N points each, and lives as long as the call that makes it (a streamed
plan, ``apply`` or ``inner``): a field of the grid's size, p0 and the
1/p0 weight among them, is evaluated on a range of axis-0 rows when a
kernel or a norm reads it, bit-equal to those rows of the whole field.
States store each spin component as one contiguous block (the array
keeps its (blocks, N, N, N, 2s+1) shape), so stencils, field products
and norms run over contiguous memory.  The row kernel (``_apply_rows``)
computes a few axis-0 rows of an applied operator at a time, running
every term of the operator on those rows while they are in cache.  Each
term is one product conj^k(x) * (F * s), its source x conjugated once,
right after its differences: the term's exact scalar s, which carries
the stencil step and the reflection sign, is folded into its real field
F, once per grid for a field that broadcasts along an axis (kept in its
own shape: a plane of N points along one axis) and once per range of
rows for a full-size one, for each distinct (field, s), shared by every
kernel that reads it.  A term that adds -s times a field onto its output
is subtracted with the pair of s instead, and a pair whose s is real is
stored float64, so a range's slabs are made once, together, from one
evaluation of each field, at about half the bytes.  Each element sees
the same operations in the same order as in one whole-array pass per
term with that formula, so results are bit-identical to it (rounding is
symmetric in sign, x - y is x + (-y), and a complex product casts a
real operand to r + 0j); the formula it replaced, conj^k(x * F) * s,
rounds differently, by at most 7.2e-16 of the largest modulus on the
operators tested.

Every grid computation with rows is a streamed plan (``_stream``): the
rows are walked a level at a time from both faces in, a slab together
with its mirror (``_Levels``), and each distinct word of the plan's
components is computed once per grid, on rows only, from the rows of its
suffix.  A constant monomial operator with signs +-1 (``_monomial``:
Theta and Pi on every catalog entry) is a way of reading rows, not a
stored word: the kernel of K1 Theta psi reads the state's rows mirrored
and conjugated, its spin components permuted and its signs folded into
the kernel's own (``_plan``), K1 Pi Theta psi through the exact product
Pi Theta.  A word that no word reads and one term uses is written or
added straight into its component's rows.  Every other word, the state
(the plan's word ()) included, keeps its rows by level, in buffers of
one pool, and the field slabs and 1/p0 weights are kept by range, under
one rule: made just before their first reader, dropped right after
their last.  A stored word's level is made ``lead`` levels ahead of the
step that sums the components, as deep as its readers' axis-0 stencils
reach, and the components run in one greedy order (``_Layout``), each
next one the component needing the fewest levels not yet made; a
range's slabs and weight go when the step that sums their level ends.
The state is the standard state's Gaussian factors, evaluated as the
plan goes and not normalized (every residual is relative to the state's
own norm), or a caller's ``GridState``, its rows copied out.  So a study
makes no array of the grid's size, and ``apply`` is a plan of one
component written into its result instead of normed.  The working-set
estimate (``working_set_bytes``, the ``grid`` command's memory guard)
turns the plan's own layout into bytes.

Each component, the state's own norm included, is summed by one loop,
and each range of its rows takes its norm partials as soon as it is made
(``_Norm``), so residuals are bit-identical to evaluating each relation
alone with whole applied states normed over the same ranges.  The norms
of the state and, for the isometry rows, of Theta psi and Pi psi are
those of components of one term; a state whose own norm is not finite
(entries above about 1e154) or 0 (the spacing cubed or the squares
underflow) is refused.  Rows are scanned for non-finite entries once: a
stored word's as the plan makes them, a direct word's through its
component's norm.  ``grid --rep up --two-s 1`` at N = 32, 64, 128
computes 218 words (72 on each grid, 74 on the finest with Theta psi and
Pi psi for its isometry rows); a cold study traces a peak of 24.0 MiB.

The numeric layer complements the symbolic one: relations whose finite
difference errors cancel identically come out at rounding level, and
derivative-bearing relations converge at the stencil order (slope 2 in
log-residual vs log-spacing).  Relations are the rows of the catalog's
relation table, found by name: the plan applies each word of a row to
a state, right to left, and the grid ids are the same names the exact
reports use (Lie, discrete and both Casimirs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import mul
from typing import NamedTuple

import numpy as np

from .catalog import (
    LIE_RELATIONS, RepSpec, discrete_relations, operators, relations,
    word_names,
)
from .exactnum import ONE
from .spin_algebra import SpinWeight
from .symop import BlockOp, Coefficient

EXACT_TOL = 1e-12
# Bytes of one component slab of a streamed plan: a few such slabs
# (source rows with their halo, difference buffers, field, scratch and
# output) stay within a core's L2 cache together.
SLAB_BYTES = 256 * 1024
SLOPE_BAND = (1.7, 2.3)
_RATIO_BAND = (0.35, 0.65)


@dataclass(frozen=True)
class Grid:
    """Uniform cube [-extent, extent]^3 with points**3 vertices."""

    extent: float
    points: int
    mu: float = 1.0

    def __post_init__(self):
        if self.points < 8:
            raise ValueError("grid needs at least 8 points per axis")
        # a field squares mu and the extent, a norm cubes the spacing
        cube = self.extent * self.extent * self.extent
        if not (self.extent > 0 and math.isfinite(cube)):
            raise ValueError("grid extent must be positive, its cube finite")
        if not (self.mu > 0 and math.isfinite(self.mu * self.mu)):
            raise ValueError("mu must be positive, its square finite")
        # conservative: the middle point of an odd N can be an ulp off 0
        # (see the module docstring), where p0 is tiny rather than 0, but
        # every odd N is refused
        if self.mu * self.mu == 0 and self.points % 2:
            raise ValueError("mu squared underflows to 0, so p0 is 0 at "
                             "p = 0, which an odd number of points puts "
                             "on the grid")

    @property
    def spacing(self) -> float:
        return 2 * self.extent / (self.points - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.points)


# The key of the 1/p0 weight of the inner product among the basis fields.
_INV_P0 = ((0, 0, 0, 0), 1, 0)


class _Mesh:
    """Coordinates of one grid.

    p1, p2, p3 are broadcastable axes of shapes (N,1,1), (1,N,1),
    (1,1,N), made on first use, so a mesh that only lays out a plan (the
    working-set estimate's) holds no array.  ``field`` evaluates the real
    basis field p^m / (p0^a (mu+p0)^b) of a key (m, a, b), with m the
    exponents of (p1, p2, p3, p0), on a range of axis-0 rows when asked,
    p0 and the 1/p0 weight included, and keeps none of them.
    """

    def __init__(self, grid: Grid):
        self.grid, self.mu, self.n = grid, grid.mu, grid.points

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        ax = self.grid.axis()
        return tuple(np.meshgrid(ax, ax, ax, indexing="ij", sparse=True))

    def shape(self, key: tuple) -> tuple[int, ...]:
        """The shape of the field of key on every row: full size when it
        has p0 in it or all of p1, p2, p3, else broadcast along an axis."""
        mono, a, b = key
        n = self.n
        if a or b or mono[3] or all(mono[:3]):
            return (n, n, n)
        return tuple(n if e else 1 for e in mono[:3])

    def field(self, key: tuple, lo: int = 0, hi: int | None = None):
        """The field of key on axis-0 rows lo:hi, every row by default.

        Each element sees the same operations whatever the rows, so a
        slab is bit-equal to those rows of the whole field; a field
        constant along axis 0 comes back with one row.  After the first
        array of the slab's size every step runs in place.
        """
        mono, a, b = key
        p1, p2, p3 = self.axes
        p1 = p1[lo:hi]
        p0 = None
        if a or b or mono[3]:
            p0 = self.mu**2 + p1**2 + p2**2 + p3**2
            np.sqrt(p0, out=p0)
        f = None
        for base, e in zip((p1, p2, p3, p0), mono):
            if e:
                term = base if e == 1 else base**e
                f = term if f is None else f * term
        if a:
            den = p0 if a == 1 else p0**a
            f = np.divide(1 if f is None else f, den,
                          out=None if den is p0 and b else den)
        if b:
            mu_p0 = np.add(self.mu, p0, out=None if f is p0 else p0)
            if b > 1:
                mu_p0 = mu_p0**b
            f = np.divide(1 if f is None else f, mu_p0, out=mu_p0)
        return f

    def terms(self, c: Coefficient) -> list[tuple]:
        """c as a list of (basis field key, or None for 1; scalar), m[0]
        of a monomial m being its power of mu."""
        return [((m[1:], c.a, c.b) if any(m[1:]) or c.a or c.b else None,
                 complex(s.to_complex()) * self.mu ** m[0])
                for m, s in c.num.terms.items()]


def _empty_values(blocks: int, points: int, dim: int) -> np.ndarray:
    """Uninitialized (blocks, N, N, N, dim) complex array stored spin-major."""
    raw = np.empty((blocks, dim, points, points, points), dtype=complex)
    return np.moveaxis(raw, 1, -1)


@dataclass(frozen=True)
class GridState:
    values: np.ndarray  # (blocks, N, N, N, 2s+1) complex, read by blocks, spin
    grid: Grid

    def __post_init__(self):
        n = self.grid.points
        shape = self.values.shape
        if len(shape) != 5 or shape[1:4] != (n, n, n) or 0 in shape:
            raise ValueError(f"state shape {shape} does not match "
                             f"(blocks, {n}, {n}, {n}, 2s+1)")
        rows = _slab_rows(n)  # a slab at a time: no mask of the state's size
        for lo in range(0, n, rows):
            if not np.isfinite(self.values[:, lo:lo + rows]).all():
                raise ValueError("state contains non-finite entries")

    @property
    def blocks(self) -> int:
        return self.values.shape[0]

    @property
    def spin(self) -> SpinWeight:
        return SpinWeight(self.values.shape[-1] - 1)

    def rows(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Rows lo:hi into ``out``, as ``_Gaussian.rows`` gives them."""
        np.copyto(out, np.moveaxis(self.values, -1, 1)[:, :, lo:hi])


def _components(values: np.ndarray):
    """The (N, N, N) spin components of every block."""
    for block in values:
        for m in range(values.shape[-1]):
            yield block[..., m]


def _weighted(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    return float(np.einsum("xyz,xyz,xyz->", x, y, w))


def inner(a: GridState, b: GridState) -> complex:
    """Inner product with the 1/p0 weight."""
    if a.grid != b.grid or a.values.shape != b.values.shape:
        raise ValueError("mismatched states")
    w = _Mesh(a.grid).field(_INV_P0)
    total = sum(
        np.einsum("xyz,xyz,xyz->", np.conj(x), y, w)
        for x, y in zip(_components(a.values), _components(b.values))
    )
    return complex(total) * a.grid.spacing**3


@dataclass(frozen=True, eq=False)
class _Gaussian:
    """A Gaussian bump times a constant per-block spinor, as its factors:
    the value at (i, j, k) in spin column m of block b is
    (g1[i] g2[j]) g3[k] spinor[b, m], ``factors`` being (g1, g2, g3)."""

    grid: Grid
    factors: tuple
    spinor: np.ndarray  # (blocks, 2s+1) complex, read by blocks and spin

    @property
    def blocks(self) -> int:
        return self.spinor.shape[0]

    @property
    def spin(self) -> SpinWeight:
        return SpinWeight(self.spinor.shape[1] - 1)

    def rows(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Rows lo:hi into ``out`` of shape (blocks, 2s+1, hi - lo, N, N):
        bit-equal to those rows of ``sample``."""
        g1, g2, g3 = self.factors
        bump = g1[lo:hi, None, None] * g2[None, :, None] * g3[None, None, :]
        for b, row in enumerate(self.spinor):
            for m, c in enumerate(row):
                np.multiply(bump, c, out=out[b, m])

    def sample(self) -> GridState:
        """The state on every row."""
        values = _empty_values(self.blocks, self.grid.points, self.spin.dim)
        self.rows(0, self.grid.points, np.moveaxis(values, -1, 1))
        return GridState(values, self.grid)


def _gaussian(grid: Grid, center, width: float, spinor) -> _Gaussian:
    """A Gaussian bump times ``spinor``, as its factors, not normalized:
    three exponentials of N points and the spinor as given."""
    if not (width > 0 and width * width > 0):
        raise ValueError("width must be positive, its square nonzero")
    center = np.asarray(center, dtype=float)
    if center.shape != (3,):
        raise ValueError("center must be a 3-vector")
    spinor = np.asarray(spinor, dtype=complex)
    if spinor.ndim != 2:
        raise ValueError("spinor must have shape (blocks, 2s+1)")
    if not spinor.any():
        raise ValueError("spinor is identically zero: null state")
    margin = float(min(grid.extent - abs(c) for c in center))
    tail = math.exp(-(margin**2) / (2 * width**2)) if margin > 0 else 1.0
    if tail >= EXACT_TOL:
        raise ValueError(
            f"boundary tail {tail:.2e} exceeds 1e-12 of peak; "
            "shrink width or recenter"
        )
    ax = grid.axis()
    factors = tuple(np.exp(-((ax - c) ** 2) / (2 * width**2)) for c in center)
    return _Gaussian(grid, factors, spinor)


def sample_gaussian(grid: Grid, center, width: float, spinor) -> GridState:
    """Normalized Gaussian bump times a constant per-block spinor.

    The tail at the nearest boundary face must be below 1e-12 of the
    peak so central differences never touch meaningful boundary data.
    The sampled state is divided, in place, by the norm a plan of the
    state as its one component takes (``_stream``, ``_state_norm``),
    then scanned again.
    """
    state = _gaussian(grid, center, width, spinor).sample()
    (base,) = _stream({}, state, _ISOMETRY[:1])
    np.divide(state.values, _state_norm(base), out=state.values)
    return GridState(state.values, grid)


def _subtract(a: np.ndarray, b: np.ndarray, out: np.ndarray,
              flip: bool) -> None:
    """out = a - b, or b - a with ``flip``: negating the difference
    exactly, but for the sign of a zero."""
    if flip:
        a, b = b, a
    np.subtract(a, b, out=out)


def _central_diff(arr: np.ndarray, axis: int, out: np.ndarray,
                  flip: bool = False) -> np.ndarray:
    """Undivided central difference f[i+1] - f[i-1] along ``axis``, into out,
    negated with ``flip`` (``_subtract``).

    Runs as one flat subtraction at the axis stride: the entries where
    that wraps across a row are exactly the two boundary planes, which
    have no two-sided stencil and are zeroed.  The caller folds the
    1/(2h) into its scalar.
    """
    arr = np.ascontiguousarray(arr)
    stride = arr.strides[axis] // arr.itemsize
    flat, dst = arr.reshape(-1), out.reshape(-1)
    _subtract(flat[2 * stride:], flat[:-2 * stride], dst[stride:-stride],
              flip)
    edge = [slice(None)] * arr.ndim
    for plane in (0, -1):
        edge[axis] = plane
        out[tuple(edge)] = 0
    return out


def _slab_rows(points: int) -> int:
    """Axis-0 rows per slab: one component slab is about SLAB_BYTES."""
    return max(1, SLAB_BYTES // (points * points * 16))


class _Plan(NamedTuple):
    """The row kernel of one operator on one grid (``_plan``), with the
    depth of its difference chains, from which its layout (``_Layout``)
    sizes the buffers."""

    sources: list  # ((src block, spin column), axes, u, k, flip, terms)
    unreached: list  # (block, spin column) of each output no term writes
    used: list  # the table index of each pair the terms read
    halo: int  # the most axis-0 derivatives of any term
    chain: int  # the most derivative axes of any term, see ``_plan``


def _canonical(s: complex) -> bool:
    """Whether s, not -s, is the scale a pair of a folded sign is stored
    with: a positive real part, or a zero real part and a positive
    imaginary part."""
    return s.real > 0 or s.real == 0 and s.imag > 0


# The coefficients a foldable operator's entries may have, +1 and -1,
# each one interned object, with their signs.
_PHASES = {Coefficient.const(ONE): 1, Coefficient.const(-ONE): -1}


def _monomial(op: BlockOp) -> dict | None:
    """A constant monomial operator as a way of reading rows, or None for
    any other operator.

    Such an operator has no derivative and no field, and one constant
    +-1 (not +-i) in each row and column: output component (block, spin
    column) c is sign * C^k Y^u of one source component.  The fold maps
    each c to (source component, u, k, sign).
    """
    fold = {}
    for br, row in enumerate(op.entries):
        for bc, sop in enumerate(row):
            for (alpha, u, k), mat in sop.terms.items():
                for m, line in enumerate(mat):
                    for n, c in enumerate(line):
                        if c.is_zero():
                            continue
                        sign = _PHASES.get(c)
                        if any(alpha) or sign is None or (br, m) in fold:
                            return None
                        fold[br, m] = ((bc, n), u, k, sign)
    if (len(fold) != op.blocks * op.dim
            or len({src for src, *_rest in fold.values()}) != len(fold)):
        return None
    return fold


def _plan(op: BlockOp, mesh: _Mesh, spacing: float, pairs: dict,
          fold: dict | None = None) -> _Plan:
    """The operator's row kernel, its (field key, s) pairs entered into
    ``pairs``, the table every plan of a layout shares: (key, s) ->
    (index, whether the field is full size), in order of first use.

    A term M d^alpha Y^u C^k acts column by column of M: source component
    n is differenced along ``axes`` on the unreflected grid (the stencil
    commutes with C, and with Y up to the sign (-1)^|alpha|), viewed
    reflected if u, conjugated if k, and each coefficient term s * F of
    M[m][n] adds x * (F * s) to output component m, where s carries the
    step 1/(2h)^|alpha| and the reflection sign.  Each source is
    (component, axes, u, k, terms), its terms (dst block, dst component,
    p, scalar, acc): p indexes ``used`` (None for a term with no field),
    and acc is None for the contribution that writes its output (or
    ``np.negative``, which writes its negation), else how the term is
    summed onto it, ``np.add`` or ``np.subtract``.  A later contribution
    whose s is not canonical (``_canonical``) reads the pair (F, -s) and
    is subtracted, the same bits as adding F * s (rounding is symmetric
    in sign, and x - y is x + (-y)), so the table holds one pair for both
    signs; the first keeps its own s, as negating it after the write
    would cost a pass.  Contributions sharing a source join one entry
    unless that would move them ahead of an earlier contribution to the
    same output, so every output sums its contributions in the order of
    the operator's terms.

    ``fold`` (``_monomial`` of the exact product of the operators read
    through, which ``_Layout`` forms) makes the kernel read its source
    through a constant monomial operator, whose applied state is then
    never made: component c is read as the fold's source component,
    reflected and conjugated as the fold says on top of the term's own u
    and k.  The fold's sign, times (-1)^|alpha| where the fold reflects
    (differences commute with the reversal up to that sign), goes into
    the kernel: a source with derivatives takes its first difference the
    other way round (``flip``), and for one without, the sign swaps
    ``np.add`` and ``np.subtract`` or makes a first contribution
    ``np.negative``.  So the table gets no pair a kernel reading the
    applied state would not read, and a sign keeps its bits: numpy's
    complex product gives (-x) * G and -(x * G) alike, not always
    x * (-G), and differences, conjugation and reversal are exact.
    ``chain`` is at least 1 where a source without derivatives is
    conjugated: into a difference buffer.
    """
    sources, by_source, last, written = [], {}, {}, set()
    used, local, halo, chain = [], {}, 0, 0
    full = (mesh.n,) * 3
    negated = {None: np.negative, np.add: np.subtract, np.subtract: np.add}
    for br, row in enumerate(op.entries):
        for bc, sop in enumerate(row):
            for (alpha, u, k), mat in sop.terms.items():
                axes = tuple(a for a in range(3) for _ in range(alpha[a]))
                step = ((-1 if u else 1) / (2 * spacing)) ** len(axes)
                halo, chain = max(halo, alpha[0]), max(chain, len(axes))
                for n in range(op.dim):
                    comp, reads, sign = (bc, n), (u, k), 1
                    if fold is not None:
                        comp, uf, kf, sign = fold[bc, n]
                        reads = (u ^ uf, k ^ kf)
                        if uf and len(axes) % 2:
                            sign = -sign
                    flip = sign < 0 and bool(axes)
                    if flip:  # the first difference is taken reversed
                        sign = 1
                    source = (comp, axes, *reads, flip)
                    for m in range(op.dim):
                        if mat[m][n].is_zero():
                            continue
                        dst = (br, m)
                        i = by_source.get(source)
                        if i is None or last.get(dst, -1) > i:
                            i = by_source[source] = len(sources)
                            sources.append((*source, []))
                        for key, s in mesh.terms(mat[m][n]):
                            s *= step
                            acc = np.add if dst in written else None
                            p = None
                            if key is not None:
                                if acc and not _canonical(s):
                                    s, acc = -s, np.subtract
                                j, _full = pairs.setdefault(
                                    (key, s),
                                    (len(pairs), mesh.shape(key) == full))
                                p = local.setdefault(j, len(used))
                                if p == len(used):
                                    used.append(j)
                            if sign < 0:
                                acc = negated[acc]
                            sources[i][-1].append((br, m, p, s, acc))
                            written.add(dst)
                        last[dst] = i
    if any(k and not axes for _c, axes, _u, k, _f, _t in sources):
        chain = max(chain, 1)
    unreached = [(br, m) for br in range(op.blocks) for m in range(op.dim)
                 if (br, m) not in written]
    return _Plan(sources, unreached, used, halo, chain)


class _Levels:
    """The levels of a streamed plan's N axis-0 rows, ``rows`` a slab,
    outside in, by arithmetic alone (no list of them is made).  Level c
    is the slab of rows from a = c*rows with its mirror, or, where the
    two meet, the one range a:N-a, so the middle row of an odd N is its
    own mirror; its buffer holds the slab, then the mirror.  A level is
    closed under the reflection, and a stencil of h rows reads only
    levels at most ceil(h / rows) away."""

    __slots__ = ("n", "rows", "half", "count")

    def __init__(self, n: int, rows: int):
        self.n, self.rows, self.half = n, rows, (n + 1) // 2
        self.count = -(-self.half // rows)

    def ranges(self, c: int) -> tuple:
        """The row ranges of level c, in the order its buffer holds them."""
        n, rows, a = self.n, self.rows, c * self.rows
        if a + rows >= self.half:
            return ((a, n - a),)
        return ((a, a + rows), (n - a - rows, n - a))

    def locate(self, i: int) -> tuple[int, int, int]:
        """(level, offset in its level's buffer, end of its range) of i."""
        n, rows = self.n, self.rows
        c = min(i, n - 1 - i) // rows
        a = c * rows
        if a + rows >= self.half:
            return c, i - a, n - a
        if i < a + rows:
            return c, i - a, a + rows
        return c, i - n + a + 2 * rows, n - a

    def take(self, store: dict, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of every component of a level store ({level:
        buffer}), a view into their level's buffer.  A plan asks for a
        level's range or its mirror, so rows that span two ranges are a
        broken invariant."""
        c, a, end = self.locate(lo)
        if hi > end:
            raise AssertionError(f"rows {lo}:{hi} span two ranges")
        return store[c][:, :, a:a + hi - lo]


def _diff_rows(src: dict, comp: tuple, axes: tuple, lo: int, hi: int,
               bufs: _Buffers, flip: bool) -> np.ndarray:
    """Rows lo:hi of the central-difference chain of component ``comp``
    (block, spin column) of the level store src, negated with ``flip`` in
    its first difference (``_subtract``).

    ``axes`` is sorted, so the axis-0 differences come first.  Each reads
    one row beyond its output on either side and zeroes the boundary
    rows 0 and N-1, so the chain starts h rows out (h the number of
    axis-0 differences) and narrows to lo:hi; the first reads src range
    by range (``_diff_levels``).  Axis-1 and axis-2 differences stay
    within rows.  Differences alternate between the two difference
    buffers of ``bufs``.
    """
    levels = bufs.levels
    n, h = levels.n, axes.count(0)
    if not h:
        cur, r0 = levels.take(src, lo, hi)[comp], lo
    for i, axis in enumerate(axes):
        out = bufs.deriv[i % 2]
        if axis:
            cur = _central_diff(cur, axis, out[:len(cur)], flip and i == 0)
            continue
        h -= 1
        w0, w1 = max(lo - h, 0), min(hi + h, n)
        out = out[:w1 - w0]
        i0, i1 = max(w0, 1), min(w1, n - 1)
        if i == 0:
            _diff_levels(src, levels, comp, i0, i1, out[i0 - w0:i1 - w0],
                         flip)
        else:
            np.subtract(cur[i0 + 1 - r0:i1 + 1 - r0],
                        cur[i0 - 1 - r0:i1 - 1 - r0],
                        out=out[i0 - w0:i1 - w0])
        out[:i0 - w0] = 0
        out[i1 - w0:] = 0
        cur, r0 = out, w0
    return cur[lo - r0:hi - r0]


def _diff_levels(src: dict, levels: _Levels, comp: tuple, i0: int, i1: int,
                 out: np.ndarray, flip: bool) -> None:
    """out[i - i0] = x[i+1] - x[i-1] for rows i0:i1 of component x =
    ``comp`` of the level store src, negated with ``flip``
    (``_subtract``), one subtraction per stretch of rows whose two
    operands each lie in one range of a level."""
    while i0 < i1:
        ca, a, a1 = levels.locate(i0 + 1)
        cb, b, b1 = levels.locate(i0 - 1)
        j = min(i1, a1 - 1, b1 + 1)
        _subtract(src[ca][comp][a:a + j - i0], src[cb][comp][b:b + j - i0],
                  out[:j - i0], flip)
        out, i0 = out[j - i0:], j


def _stored(s: complex) -> complex | float:
    """The scale a pair's slab is made with: s.real when s is real, so
    the slab is float64 and half the size.  A complex product casts a
    real operand to r + 0j, so the terms it feeds keep their bits."""
    return s.real if s.imag == 0 else s


class _Buffers:
    """Slab buffers that the row kernels of one layout (``_Layout``) share
    on ``mesh``, its grid's, for ranges of the layout's ``levels`` (at
    most ``span`` rows); every size is the layout's.

    Each (field key, s) pair of the layout's table (``_plan``) is scaled
    once, float64 where s is real (``_stored``): a pair whose field
    broadcasts along an axis first, for every kernel, in the field's own
    shape (a plane of N points along one axis); a full-size pair per
    range of rows, in ``slabs``, beside the range's 1/p0 weight in
    ``weights`` (made for a norm only: ``apply`` makes none), each made
    the first time its range asks for it and dropped by ``drop`` when
    the step that sums its level ends.  Then come scratch and the
    layout's ``chain`` difference buffers with its ``halo`` of rows on
    either side.  The rows of the plan's words are in its ``_Pool``.
    """

    def __init__(self, mesh: _Mesh, lay: _Layout):
        n, span = mesh.n, lay.span
        self.mesh, self.levels = mesh, lay.levels
        self.planes, self.keys = {}, {}
        for (key, s), (j, full) in lay.pairs.items():
            if full:
                self.keys.setdefault(key, []).append((j, _stored(s)))
            else:
                self.planes[j] = np.multiply(mesh.field(key), _stored(s))
        self.scratch = np.empty((span, n, n), dtype=complex)
        self.deriv = [np.empty((span + 2 * lay.halo, n, n), dtype=complex)
                      for _ in range(lay.chain)]
        self.slabs: dict[tuple, dict] = {}  # (lo, hi) -> {index: F * s}
        self.weights: dict[tuple, np.ndarray] = {}  # (lo, hi) -> 1/p0

    def weight(self, lo: int, hi: int) -> np.ndarray:
        """The 1/p0 weight on rows lo:hi."""
        w = self.weights.get((lo, hi))
        if w is None:
            w = self.weights[lo, hi] = self.mesh.field(_INV_P0, lo, hi)
        return w

    def fields(self, used: list, lo: int, hi: int) -> list[np.ndarray]:
        """F * s on rows lo:hi of each pair of ``used`` (table indices): a
        broadcast pair's plane, or a full-size pair's slab, the range's
        slabs made together when first asked for, each field evaluated
        once and scaled into every pair of its key."""
        slabs = self.slabs.get((lo, hi))
        if slabs is None:
            slabs = self.slabs[lo, hi] = {}
            for key, scales in self.keys.items():
                f = self.mesh.field(key, lo, hi)
                for j, s in scales:
                    slabs[j] = np.multiply(f, s)
        out = []
        for j in used:
            f = self.planes.get(j)
            if f is None:
                f = slabs[j]
            elif len(f) > 1:
                f = f[lo:hi]
            out.append(f)
        return out

    def drop(self, level: int) -> None:
        """Drop the slabs and weights of a level, read by no later step."""
        for r in self.levels.ranges(level):
            self.slabs.pop(r, None)
            self.weights.pop(r, None)


def _check_finite(values: np.ndarray) -> None:
    """Refuse rows with a non-finite entry."""
    if not np.isfinite(values.view(float)).all():
        raise ValueError("state contains non-finite entries")


def _add_rows(acc: np.ndarray, rows: np.ndarray, c: complex,
              scratch: np.ndarray) -> None:
    """acc += c * rows, in place: ``+=`` for c == 1, ``-=`` for c == -1,
    else c * rows made in ``scratch`` (which may be rows itself) and
    added; the same elementwise operations as adding a whole state."""
    if c == 1:
        acc += rows
    elif c == -1:
        acc -= rows
    else:
        acc += np.multiply(rows, c, out=scratch)


def _apply_rows(plan: _Plan, bufs: _Buffers, src: dict, lo: int,
                hi: int, out: np.ndarray) -> None:
    """Rows lo:hi of plan's operator applied to the level store src
    ({level: buffer}, ``_Levels``), into ``out`` of shape (blocks, 2s+1,
    hi - lo, N, N).

    Every term of the plan runs on these rows while they are in cache:
    each source component differenced (``_diff_rows``, negated where
    ``_plan`` folded a sign into it), conjugated once if antilinear,
    right after its differences (in place, or for a source without
    derivatives into the first difference buffer; a difference commutes
    with conjugation exactly, but for the sign of a zero), viewed
    reflected by reading the mirrored rows, and for each term multiplied
    by the term's scaled field F * s (``_Buffers.fields``: a float64 slab
    where s is real, which a complex product reads as F * s + 0j).  A
    term without a field is multiplied by its scalar, or copied when that
    is 1.  The first contribution to an output component is written
    straight into it (negated where ``_plan`` folded a sign into it),
    later ones go through one scratch slab and are added onto it or, for
    a pair whose sign ``_plan`` folded, subtracted; components no term
    reaches are zeroed.  The rows are not checked finite here: a caller
    that keeps them scans them (``_check_finite``, or ``GridState`` for
    ``apply``), and rows written or added into a component are checked
    through its norm (``_Norm``).
    """
    n, rows = bufs.mesh.n, hi - lo
    for br, m in plan.unreached:
        out[br, m] = 0
    gs = bufs.fields(plan.used, lo, hi)
    for comp, axes, u, k, flip, terms in plan.sources:
        a, b = (n - hi, n - lo) if u else (lo, hi)
        x = (_diff_rows(src, comp, axes, a, b, bufs, flip)
             if axes else bufs.levels.take(src, a, b)[comp])
        if k:
            x = np.conjugate(x, out=x if axes else bufs.deriv[0][:rows])
        if u:
            x = x[::-1, ::-1, ::-1]
        for br, m, p, s, acc in terms:
            dst = out[br, m]
            adds = acc is np.add or acc is np.subtract
            into = bufs.scratch[:rows] if adds else dst
            term = x
            if p is not None or s != 1:
                term = np.multiply(x, s if p is None else gs[p], out=into)
            if adds:
                acc(dst, term, out=dst)
            elif acc:  # np.negative: a first contribution with a folded sign
                acc(term, out=dst)
            elif term is not dst:
                np.copyto(dst, term)


def apply(op: BlockOp, state: GridState) -> GridState:
    """Apply an exact operator numerically, a level of rows at a time.

    A streamed plan (``_stream``) of the one component op psi, whose rows
    are written into the result instead of normed: the operator's kernel
    (``_apply_rows``) runs on each range of the grid's levels (a slab of
    axis-0 rows and its mirror, ``_Levels``) while those rows are in
    cache, reading the state's rows as the plan copies them out; F * s
    of a field that broadcasts along an axis is made once per apply, of
    a full-size one once per range, and no 1/p0 weight is made.  The
    result is scanned for non-finite entries once, as every
    ``GridState`` is, a slab at a time.
    """
    g = state.grid
    out = _empty_values(op.blocks, g.points, op.dim)
    _stream({"op": op}, state, [((ONE, ("op",)),)], np.moveaxis(out, -1, 1))
    return GridState(out, g)


# -- working-set estimate -------------------------------------------------------


def working_set_bytes(rep: RepSpec, grids) -> int:
    """Estimated bytes of arrays a grid study of ``rep`` over ``grids`` holds.

    No mesh outlives the plan that makes it, so only the grid being
    studied counts, and of it only its streamed plan (``_stream``): the
    standard state is its Gaussian factors, N points each.  The plan's
    arrays are read from its own layout (``_Layout``) on each grid, of
    the representative relations the table finds admissible (a study
    fails the others unevaluated) and the isometry rows, laid out on a
    mesh that makes no axis, so the estimate itself allocates nothing of
    the grid's size; none of the plan's arrays is state-sized:
    - the most level buffers its schedule holds at once (``live``),
      each a slab and its mirror of every component, the state's rows
      among them;
    - the rows of one component sum, its one accumulator;
    - the kernels' shared slabs (scratch, a difference buffer with the
      stencil's halo, two where a term differences twice, the slab a
      term is added from and one gathered slab), and the temporaries of
      evaluating the state on a slab or one basis field with its p0;
    - the field slabs and 1/p0 weights of the lead + 1 levels a step
      holds, counted twice (2 (lead + 1) ranges of a level's rows): each
      full-size pair of the table scaled, real where its s is;
    - each broadcast pair of the table scaled once, in its field's own
      shape (N points along one axis, N^2 along two), real where its s
      is.
    On the default grids N = 32, 64, 128 it reads 30.0, 50.0 and 43.0
    MiB for up 2s=1, sym3 2s=1 and quad:+1, 25%, 20% and 13% above
    their cold studies' traced peaks (24.0, 41.7 and 38.1 MiB).
    """
    bad = _inadmissible(rep)
    _rels, comps, ops = _relations(
        rep, [rid for rid in representative_relations(rep) if rid not in bad])
    spins = rep.blocks * (rep.two_s + 1)
    peak = 0
    for g in grids:
        n = g.points
        mesh = _Mesh(g)
        lay = _Layout(ops, comps + list(_ISOMETRY), g, mesh)
        span, chain = lay.span, lay.chain
        full = flat = 0  # halves: planes of N^2 points, broadcast points
        for (key, s), (_j, is_full) in lay.pairs.items():
            halves = 2 - (s.imag == 0)  # 1 real, 2 complex
            if is_full:
                full += halves
            else:
                flat += halves * math.prod(mesh.shape(key))
        halves = (2 * spins * (lay.live + 3) * span
                  + 2 * (2 + chain) * span + 4 * chain * lay.halo
                  + 2 * (lay.lead + 1) * span * (full + 1))
        peak = max(peak, (halves * n * n + flat) * 8)
    return peak


# -- relation residuals ---------------------------------------------------------


class _Norm:
    """A weighted norm taken range by range as the rows are made;
    ``weight(a, b)`` gives the 1/p0 weight on rows a:b.

    ``add`` cuts a range at the multiples of ``_slab_rows`` and takes each
    piece's per-component partials at once; ``value`` sums them in
    piece-then-component order, so where the slabs tile the levels every
    piece is a slab and the norm is the whole state's slab-by-slab sum,
    bit for bit.  No rows are kept.

    A piece whose partials are not finite is scanned (``_check_finite``).
    This is the only check of a word written or added straight into a
    component: it feeds that one sum, and +, -, conjugation, a nonzero
    scale and a field product never make inf or nan finite, so a
    non-finite entry leaves the piece's partial inf or nan (its weight
    1/p0 is positive).  A finite piece whose squares overflow passes, its
    partial inf; so does a piece copied from a stored word, already
    scanned.  A component whose finite terms overflow as they are summed
    is refused in the same way.
    """

    def __init__(self, n: int, weight):
        self.slab, self.weight = _slab_rows(n), weight
        self.parts: dict[int, list[float]] = {}  # piece start -> partials

    def add(self, lo: int, hi: int, values: np.ndarray) -> None:
        """The partials of rows lo:hi, ``values`` of shape (blocks, 2s+1,
        hi - lo, N, N)."""
        w = self.weight(lo, hi)
        a = lo
        while a < hi:
            b = min((a // self.slab + 1) * self.slab, hi)
            piece, wa = values[:, :, a - lo:b - lo], w[a - lo:b - lo]
            parts = self.parts[a] = [_weighted(x.real, x.real, wa)
                                     + _weighted(x.imag, x.imag, wa)
                                     for block in piece for x in block]
            if not all(map(math.isfinite, parts)):
                _check_finite(piece)
            a = b

    def value(self, spacing: float) -> float:
        total = 0.0
        for a in sorted(self.parts):
            for part in self.parts[a]:
                total += part
        return math.sqrt(total * spacing**3)


class _Word:
    """One distinct word of a streamed plan and what reads it: its
    kernel runs ``head``, the outermost operator and the foldable ones
    after it, which it reads through (``_monomial``), on the rows of the
    word ``src`` that follows them.  A stored word keeps its rows in
    ``levels``, {level: buffer} (``_Levels``): level c is made at step c
    - ``lead``, by the step's event ``make``, just before the first
    event that reads it, and popped at step c + ``keep``, right after
    event ``drop``, its last reader (keep < 0 where every reader runs
    ahead of the step's level)."""

    def __init__(self, word: tuple, head: tuple = ()):
        self.word, self.head, self.src = word, head, word[len(head):]
        self.users: list[_Word] = []  # the words whose src it is
        self.terms = 0  # uses as a term of a component
        self.lead = self.keep = self.make = self.drop = 0
        self.levels: dict[int, np.ndarray] = {}


class _Event(NamedTuple):
    """One event of each step of a streamed plan (``_Layout.events``):
    make a level of ``word``, or, where word is None, sum component
    ``comp`` on the step's level; then give back the levels of the
    words of ``drops``, whose last reader it is."""

    word: _Word | None
    comp: int | None
    drops: list


class _Layout:
    """What a streamed plan (``_stream``) of ``components`` runs on one
    grid, decided before any row is made; ``working_set_bytes`` turns the
    same layout into bytes.

    ``ops`` are the operators the words name.  A word's kernel runs its
    outermost operator through every foldable one after it, as the fold
    (``_monomial``) of their exact product, so a word whose outermost
    operator is foldable is never read by another word: K1 Pi Theta psi
    reads the state's rows through Pi Theta.  ``plans`` holds the row
    kernels (``_plan``) on the grid by head (the operators a kernel
    runs, see ``_Word``), ``pairs`` the table of distinct (field key, s)
    pairs those plans share and ``levels`` the grid's (``_Levels``).
    The word graph: ``words`` maps each word to its ``_Word``, the terms
    and the words their kernels read; ``order`` holds the nonempty ones
    shortest first, with their readers and their ``lead`` in levels;
    ``direct`` the words that go straight into their component: those
    that no word reads and one term uses; ``stored`` the others after
    ``root``, the state's word (), whose readers and lead come the same
    way; and ``lead`` the most levels a stored word runs ahead.

    ``events`` is the schedule every step of the plan runs (``_Event``),
    the same at each level t: the components in a greedy order, each
    next one the component whose terms need the fewest stored levels not
    yet made in the step (ties to the lower index), every such level,
    level t + lead of its word, made just before the component that
    first needs it, after the levels its own kernel needs.  A level goes
    back right after the last event that reads it: a component reads its
    stored terms at level t and a direct term's src as deep as that
    kernel's axis-0 stencil reaches (``_reach``), a made level its src
    likewise around its own.  ``live`` is the most level buffers held at
    once over that schedule, each word counting its levels from the one
    it makes to the one it gives back, at most the grid's count of
    levels: exact where the grid has room for every window, an upper
    bound on coarser grids.  The sizes of the buffers (``_Buffers``,
    ``_Pool``, and so ``working_set_bytes``) are read from here alone:
    ``live`` level buffers of ``span`` rows, ``halo`` and ``chain`` (at
    most 2) difference buffers, and field slabs of the ``lead`` + 1
    levels a step reads fields on.
    """

    def __init__(self, ops: dict, components, grid: Grid, mesh: _Mesh):
        terms = [word for comp in components for _c, word in comp]
        self.ops = {name: ops[name]
                    for name in dict.fromkeys(chain.from_iterable(terms))}
        folds = {name: _monomial(op) for name, op in self.ops.items()}
        self.pairs: dict[tuple, tuple[int, bool]] = {}
        self.plans: dict[tuple, _Plan] = {}
        self.levels = _Levels(grid.points, _slab_rows(grid.points))
        self.root = _Word(())
        self.words = words = {(): self.root}
        for word in terms:
            while word not in words:
                j = 1
                while j < len(word) and folds[word[j]] is not None:
                    j += 1
                head = word[:j]
                words[word] = _Word(word, head)
                if head not in self.plans:
                    outer, *through = (self.ops[name] for name in head)
                    self.plans[head] = _plan(
                        outer, mesh, grid.spacing, self.pairs,
                        _monomial(reduce(mul, through)) if through else None)
                word = word[j:]
        for word in terms:
            words[word].terms += 1
        order = sorted(words.values(), key=lambda w: len(w.word))
        for w in reversed(order):  # readers before what they read
            if w.word:
                words[w.src].users.append(w)
            w.lead = max([0] + [u.lead + self._reach(u) for u in w.users])
        self.order = order[1:]
        self.direct = {w.word for w in self.order
                       if not w.users and w.terms == 1}
        stored = [w for w in self.order if w.word not in self.direct]
        self.lead = max((w.lead for w in stored), default=0)
        self.stored = [self.root, *stored]
        plans = self.plans.values()
        self.span = min(2 * self.levels.rows, grid.points)
        self.halo = max((p.halo for p in plans), default=0)
        self.chain = min(max((p.chain for p in plans), default=0), 2)
        self.events = self._schedule(components)
        self.live = max(sum(
            min(self.levels.count,
                max(0, w.lead + w.keep + 1 - (k < w.make) - (k > w.drop)))
            for w in self.stored) for k in range(len(self.events)))

    def _reach(self, w: _Word) -> int:
        """The levels w's kernel reads on either side of its own: its
        axis-0 stencil's depth in slabs, rounded up."""
        return -(-self.plans[w.head].halo // self.levels.rows)

    def _reads(self, w: _Word) -> list[tuple[_Word, int]]:
        """The levels the kernel of w reads to make w's level at ``lead``
        from the step's, each as (stored word, level offset); none for
        the state."""
        if not w.word:
            return []
        d = self._reach(w)
        return [(self.words[w.src], w.lead + o) for o in range(-d, d + 1)]

    def _fresh(self, reads, out: list) -> list[_Word]:
        """``out`` extended by the words whose level at their ``lead`` the
        reads need, each after those its own kernel needs."""
        for w, o in reads:
            if o == w.lead and w not in out:
                self._fresh(self._reads(w), out)
                out.append(w)
        return out

    def _schedule(self, components) -> list[_Event]:
        """The events of every step (see the class docstring), with each
        stored word's ``keep``, ``make`` and ``drop``."""
        words = self.words
        reads = []
        for comp in components:
            got = []
            for _c, word in comp:
                w = words[word]
                if word in self.direct:
                    got += self._reads(w)
                else:
                    got.append((w, 0))
            reads.append(got)
        # a direct word has lead 0, so its reads sit around the step's level
        needs = [self._fresh(r, []) for r in reads]
        made, events, left = set(), [], list(range(len(components)))
        while left:
            i = min(left, key=lambda i: sum(w not in made for w in needs[i]))
            left.remove(i)
            for w in needs[i]:
                if w not in made:
                    made.add(w)
                    w.make = len(events)
                    events.append(_Event(w, None, []))
            events.append(_Event(None, i, []))
        low = {}  # word -> (lowest level offset read, last event reading it)
        for k, (w, i, _drops) in enumerate(events):
            for src, o in (self._reads(w) if w else reads[i]):
                if o <= low.get(src, (o, k))[0]:
                    low[src] = (o, k)
        for w, (o, k) in low.items():
            w.keep, w.drop = -o, k
            events[k].drops.append(w)
        return events


class _Pool:
    """The level buffers of one streamed plan, each (blocks, 2s+1, span,
    N, N): a stored word's level, its slab and its mirror, in one
    buffer.  ``take`` hands out a buffer given back before, or a new one
    when none is free, so ``made`` is the most held at once."""

    __slots__ = ("shape", "free", "made")

    def __init__(self, shape: tuple):
        self.shape, self.free, self.made = shape, [], 0

    def take(self) -> np.ndarray:
        if self.free:
            return self.free.pop()
        self.made += 1
        return np.empty(self.shape, dtype=complex)

    def give(self, buf: np.ndarray) -> None:
        self.free.append(buf)


def _stream(ops: dict, state, components,
            out: np.ndarray | None = None) -> list[float]:
    """The norm of each component (a sum of terms) on one state, every
    word computed once, row by row; or, with ``out`` (blocks, 2s+1, N, N,
    N), each component's rows written into it instead, no norm taken
    (``apply``: one component of one term).

    ``state`` is a row source: ``grid``, ``blocks``, ``spin`` and
    ``rows(lo, hi, out)``, which writes its rows lo:hi into ``out`` (a
    ``_Gaussian`` or a ``GridState``).  It is the word (), held a level
    at a time like any stored word; the norm of a state, the plan's own
    included, is the norm of a component of one term.  The plan's
    operators, field pairs, words, levels and schedule are its
    ``_Layout``.  Step t runs the layout's ``events``: it sums each
    component on level t, in the layout's order, and makes level t +
    lead of each stored word just before the first event that reads it,
    from the level store of its ``src`` (read through the foldable
    operators of its head), into a buffer of the plan's one ``_Pool``
    kept in the word's ``levels``, which pops it back to the pool right
    after its last reader, ``keep`` levels on; when the step ends, it
    drops level t's field slabs and weights, which no later step reads
    (``_Buffers.drop``).  The steps start ``lead`` levels before the
    first, where they only make levels; a level off the grid is neither
    made nor read.  A direct word (read by no word, used by one term) is
    written straight into its component's rows, or, after the first
    term, into one add slab then added onto them; each component is
    summed by one loop into one accumulator, in its terms' order with
    the same elementwise operations as summing whole applied states.  A
    stored word's rows, the state's included, are scanned for non-finite
    entries as they are made; a direct word is checked through its
    component's norm, or ``apply``'s result as a ``GridState``.  Each
    range of a component gives its norm partials as soon as it is made
    (``_Norm``), so each norm, in the components' own order, is
    bit-identical to that of the whole applied state over the same
    ranges.  Where norms are taken, a grid whose spacing cubed is 0 is
    refused before any row is made: every norm on it would be 0.
    """
    g = state.grid
    if out is None and g.spacing**3 == 0:  # every norm would be 0
        raise ValueError(_ZERO_NORM)
    n, mesh = g.points, _Mesh(g)
    shape = (state.blocks, state.spin.dim)
    lay = _Layout(ops, components, g, mesh)
    if any((op.blocks, op.dim) != shape for op in lay.ops.values()):
        raise ValueError("operator shape does not match the state")
    levels, words, plans = lay.levels, lay.words, lay.plans
    bufs = _Buffers(mesh, lay)
    pool = _Pool((*shape, lay.span, n, n))
    total = np.empty(pool.shape, dtype=complex)  # a component's rows
    slab = np.empty(pool.shape, dtype=complex)  # a term to add
    norms = [_Norm(n, bufs.weight) for _ in components if out is None]
    sums = [[(i, coeff, coeff.to_complex(), words[word])
             for i, (coeff, word) in enumerate(comp)] for comp in components]
    for t in range(-lay.root.lead, levels.count):
        for word, comp, drops in lay.events:
            if word is not None:
                at = t + word.lead
                if 0 <= at < levels.count:
                    buf = word.levels[at] = pool.take()
                    a = 0
                    for lo, hi in levels.ranges(at):
                        rows = buf[:, :, a:a + hi - lo]
                        a += hi - lo
                        if word is lay.root:
                            state.rows(lo, hi, rows)
                        else:
                            _apply_rows(plans[word.head], bufs,
                                        words[word.src].levels, lo, hi, rows)
                        _check_finite(rows)
            elif t >= 0:
                for lo, hi in levels.ranges(t):
                    acc = (total[:, :, :hi - lo] if out is None
                           else out[:, :, lo:hi])
                    add = slab[:, :, :hi - lo]
                    for i, coeff, c, w in sums[comp]:
                        if w.word in lay.direct:
                            _apply_rows(plans[w.head], bufs,
                                        words[w.src].levels, lo, hi,
                                        add if i else acc)
                            if i:
                                _add_rows(acc, add, c, add)
                        elif i == 0:
                            np.copyto(acc, levels.take(w.levels, lo, hi))
                        else:
                            _add_rows(acc, levels.take(w.levels, lo, hi), c,
                                      add)
                        if i == 0 and coeff != ONE:
                            acc *= c
                    if out is None:
                        norms[comp].add(lo, hi, acc)
            for w in drops:
                if 0 <= t - w.keep < levels.count:
                    pool.give(w.levels.pop(t - w.keep))
        if t >= 0:  # no later step reads level t's fields
            bufs.drop(t)
    return [norm_.value(g.spacing) for norm_ in norms]


# The components whose norms give the isometry rows, one term each: the
# state, Theta psi and Pi psi.
_ISOMETRY = tuple(((ONE, word),) for word in ((), ("Theta",), ("Pi",)))


def _relations(rep: RepSpec, relation_ids) -> tuple[list, list, dict]:
    """The relations of ``relation_ids`` in that order, each refused
    when unknown or inadmissible (the exact side fails such a row
    unevaluated, whether or not it has components); their components,
    in order; and the operators their words name."""
    table = {r.name: r for r in relations(rep)}
    rels = []
    for rid in relation_ids:
        rel = table.get(rid)
        if rel is None:
            raise ValueError(f"unknown relation id: {rid}")
        if rel.inadmissible:
            raise ValueError(f"relation {rid} is inadmissible, nothing to "
                             f"evaluate: {rel.inadmissible}")
        rels.append(rel)
    comps = [comp for rel in rels for comp in rel.components]
    return rels, comps, operators(rep, word_names(rels))


def _inadmissible(rep: RepSpec) -> dict[str, str]:
    """The table's text of each relation it finds inadmissible, by id:
    rows a study fails unevaluated and no plan lays out."""
    return {rel.name: rel.inadmissible for rel in relations(rep)
            if rel.inadmissible}


_ZERO_NORM = ("state norm is 0: the spacing cubed or the state's squares "
              "underflow")


def _state_norm(base: float) -> float:
    """The state's own norm a plan took, refused when it is not finite
    or 0: a finite state whose squares overflow would otherwise give
    every finite component norm a residual of 0, and a norm of 0 every
    component a residual of inf or nan."""
    if not math.isfinite(base):
        raise ValueError(f"state norm is {base}: its entries are too large "
                         "to square")
    if base == 0:
        raise ValueError(_ZERO_NORM)
    return base


def _residuals(rep: RepSpec, relation_ids, state,
               defects: dict | None = None) -> list[float]:
    """Residual of each relation on one state, from one streamed plan
    (``_stream``): a word shared by several relations is computed once.
    ``state`` is a row source (see ``_stream``), read row by row.  The
    plan also takes the state's own norm (``_state_norm``) and, if
    ``defects`` is a dict, the norms of Theta psi and Pi psi, from which
    it receives the isometry defects (``_isometry``).  After the state's
    norm, a component norm that is not finite, its finite values'
    squares overflowing, is refused too."""
    rels, comps, ops = _relations(rep, relation_ids)
    own = _ISOMETRY if defects is not None else _ISOMETRY[:1]
    norms = _stream(ops, state, comps + list(own))
    base = _state_norm(norms[len(comps)])
    if defects is not None:
        defects.update(_isometry(norms[len(comps):]))
    norms = iter(norms)
    out = []
    for rel in rels:
        worst = max(next(norms) for _comp in rel.components)
        if not math.isfinite(worst):
            raise ValueError(
                f"relation {rel.name} at N = {state.grid.points}: a "
                f"component norm is {worst}: its values are too large to "
                "square")
        out.append(worst / base)
    return out


def residual(rep: RepSpec, relation_id: str, state: GridState) -> float:
    """Relative dnu-norm residual of one relation applied to a state.

    The streamed plan (``_residuals``) reads the state's rows; each word
    acts right to left.  A suffix shared by several words of the
    relation (Theta psi across the components of an exchange relation)
    is computed once, row by row, and each row is dropped after its last
    use.  Terms add up in the order written, +-1 coefficients as + and
    -; the worst component counts.
    """
    return _residuals(rep, [relation_id], state)[0]


def _standard(rep: RepSpec, grid: Grid) -> _Gaussian:
    """The factors of the grid's standard state, a deterministic
    admissible Gaussian, not normalized: three exponentials of N points
    and the spinor, built on each call."""
    ext = grid.extent
    center = (ext / 12, -ext / 15, ext / 18)
    width = ext / 9
    dim = rep.two_s + 1
    spinor = np.array(
        [
            [
                (1 + 0.3 * b + 0.1 * m) + (0.2 + 0.15 * m - 0.05 * b) * 1j
                for m in range(dim)
            ]
            for b in range(rep.blocks)
        ]
    )
    return _gaussian(grid, center, width, spinor)


def standard_state(rep: RepSpec, grid: Grid) -> GridState:
    """The grid's standard state (``_standard``) on every row, not
    normalized: residuals and isometry defects are relative to its norm.

    Sampled on each call into a new state the caller owns.  ``study``
    never samples it whole: its plan evaluates the same rows, bit for
    bit, as it goes.
    """
    return _standard(rep, grid).sample()


@dataclass(frozen=True)
class NumericReport:
    relation: str
    sizes: tuple[int, ...]
    spacings: tuple[float, ...]
    residuals: tuple[float, ...]
    slope: float | None
    exact: bool
    ok: bool
    inadmissible: str = ""  # the table's text for a row failed unevaluated

    def detail(self) -> str:
        if self.inadmissible:
            return self.inadmissible
        res = ", ".join(f"{r:.3e}" for r in self.residuals)
        if self.exact:
            return f"exact (residuals {res})"
        if self.slope is None:
            zeros = ", ".join(str(n) for n, r in zip(self.sizes, self.residuals)
                              if r < EXACT_TOL)
            return (f"no slope: zero residual at N = {zeros}, "
                    f"nonzero elsewhere (residuals {res})")
        return f"slope {self.slope:.3f} (residuals {res})"


def refining(grids) -> list[Grid]:
    """grids coarse to fine, checked to be a nested refinement: one cube
    and one mass, the spacing roughly halving."""
    grids = sorted(grids, key=lambda g: -g.spacing)
    if len(grids) < 3:
        raise ValueError("non-nested grid sequence: need at least three grids")
    if len({(g.extent, g.mu) for g in grids}) > 1:
        raise ValueError("non-nested grid sequence: the grids differ in "
                         "extent or mu")
    for a, b in zip(grids, grids[1:]):
        ratio = b.spacing / a.spacing
        if not (_RATIO_BAND[0] <= ratio <= _RATIO_BAND[1]):
            raise ValueError(
                f"non-nested grid sequence: spacing ratio {ratio:.3f} "
                f"outside {_RATIO_BAND}"
            )
    return grids


def _fit(relation_id: str, grids, residuals,
         inadmissible: str = "") -> NumericReport:
    exact = not inadmissible and all(r < EXACT_TOL for r in residuals)
    if exact:
        slope = None
        ok = True
    elif inadmissible or any(r < EXACT_TOL for r in residuals):
        slope = None
        ok = False
    else:
        logs_h = np.log([g.spacing for g in grids])
        logs_r = np.log(residuals)
        slope = float(np.polyfit(logs_h, logs_r, 1)[0])
        ok = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
    return NumericReport(
        relation=relation_id,
        sizes=tuple(g.points for g in grids),
        spacings=tuple(g.spacing for g in grids),
        residuals=tuple(residuals),
        slope=slope,
        exact=exact,
        ok=ok,
        inadmissible=inadmissible,
    )


def study(rep: RepSpec, relation_ids, grids, *,
          defects: dict | None = None) -> list[NumericReport]:
    """A convergence study of each relation, grid by grid from one plan.

    Each grid evaluates every relation on its standard state through one
    streamed plan (``_stream``), every word computed once on each grid
    and the state's rows evaluated as the plan goes, so no array of the
    grid's size is made; then each relation's residuals get a slope fit.
    Requires at least three grids with spacing roughly halving between
    consecutive entries.  All-tiny residuals are flagged exact instead of
    fitted; tiny residuals on some grids but not all have no slope (the
    log of a zero residual) and fail the study.  A row the relation
    table finds inadmissible fails unevaluated, as on the exact side: no
    word of it is computed, and its detail is the table's text.

    ``defects``, if a dict, receives ``isometry_defect`` of the finest
    grid's standard state, from the norms that grid's plan takes of
    Theta psi and Pi psi, components of one term.
    """
    grids = refining(grids)
    inadmissible = _inadmissible(rep)
    evaluated = [rid for rid in relation_ids if rid not in inadmissible]
    per_grid = [_residuals(rep, evaluated, _standard(rep, g),
                           defects if g is grids[-1] else None)
                for g in grids]
    got = dict(zip(evaluated, zip(*per_grid)))
    return [_fit(rid, grids, got.get(rid, ()), inadmissible.get(rid, ""))
            for rid in relation_ids]


def convergence_study(rep: RepSpec, relation_id: str, grids) -> NumericReport:
    """``study`` of one relation: residuals across a refining grid
    sequence plus a slope fit."""
    return study(rep, [relation_id], grids)[0]


def representative_relations(rep: RepSpec) -> list[str]:
    """One bracket relation per family, the first with the most terms,
    plus every discrete relation."""
    families: dict[str, list] = {}
    for rel in LIE_RELATIONS:
        families.setdefault(rel.family, []).append(rel)
    heads = [max(rels, key=lambda r: sum(map(len, r.components))).name
             for rels in families.values()]
    return heads + [d.name for d in discrete_relations(rep)]


def isometry_defect(rep: RepSpec, state: GridState) -> dict[str, float]:
    """Relative norm change under Theta and Pi (0 for exact isometries),
    from the norms one streamed plan (``_stream``) takes of the state,
    Theta psi and Pi psi."""
    return _isometry(_stream({"Theta": rep.theta, "Pi": rep.pi}, state,
                             _ISOMETRY))


def _isometry(norms) -> dict[str, float]:
    """The isometry defects from the norms of the ``_ISOMETRY``
    components: of the state (``_state_norm``), of Theta psi and of
    Pi psi."""
    base, theta, pi = norms
    base = _state_norm(base)
    return {"Theta": abs(theta - base) / base, "Pi": abs(pi - base) / base}
