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
stored float64, so a range's bank of slabs is made once, whole, from one
evaluation of each field, at about half the bytes.  Each element sees
the same operations in the same order as in one whole-array pass per
term with that formula, so results are bit-identical to it (rounding is
symmetric in sign, x - y is x + (-y), and a complex product casts a
real operand to r + 0j); the formula it replaced, conj^k(x * F) * s,
rounds differently, by at most 7.2e-16 of the largest modulus on the
operators tested.  ``apply`` lays out its operator as the one word of a
plan (``_Layout``) and walks the grid's levels with that layout's kernel
and buffers; its result is scanned for non-finite entries once, as
every ``GridState`` is, a slab of rows at a time.

``study`` runs every relation of a study on each grid from one streamed
plan (``_stream``): the grid's rows are walked from both faces in, a
slab together with its mirror, and each distinct word of the studied
relations is computed once per grid, on rows only, from the rows of its
suffix.  A constant monomial operator with signs +-1 (``_monomial``:
Theta and Pi on every catalog entry) is a way of reading rows, not a
stored word: the kernel of K1 Theta psi reads the state's rows mirrored
and conjugated, its spin components permuted and its signs folded into
the kernel's own (``_plan``), K1 Pi Theta psi through the exact product
Pi Theta, so no such word is made for a reader.  A word that no word
reads and one term uses is written or added straight into its
component's rows; any other keeps a window of its rows as deep as its
readers' axis-0 stencils reach, summed along each chain of readers.
The state is the plan's word (), a row source whose rows are kept in a
window like any other word's: the standard state's Gaussian factors,
evaluated as the plan goes, or a caller's ``GridState``, its rows
copied out.  The standard state is not normalized: every residual is
relative to the state's own norm, which the plan takes.  So a study
makes no array of the grid's size.  The working-set estimate
(``working_set_bytes``, which the ``grid`` command holds against its
memory budget) reads the plan's own layout (``_Layout``) on each grid,
on a mesh that makes no axis, and only turns it into bytes.
Every component, the state's own norm included, is summed by one loop,
and each range of its rows takes its norm partials as soon as it is
made, cut at slab boundaries and summed at the end in
piece-then-component order, so residuals are bit-identical to
evaluating each relation alone with whole applied states normed over
the same ranges.  The plan's only outputs are component norms: the
state's own norm, and for the isometry rows (``isometry_defect``, and a
study's finest grid) the norms of Theta psi and Pi psi, are those of
components of one term; a state whose own norm is not finite (entries
above about 1e154, whose squares overflow) or 0 (the spacing cubed or
the squares underflow) is refused.  Rows are scanned for non-finite
entries once: a word that keeps its rows, the state included, as the
plan computes them; a word that goes straight into its component, only
through that component's norm, which scans a piece whose partials are
not finite (``_Norm``).
``grid --rep up --two-s 1`` at N = 32, 64, 128 computes 72 words on
each grid (74 on the finest, with Theta psi and Pi psi for its isometry
rows), 218 words, in a median 3.1 s of ``perfbench`` ``run_s`` on a
2-core Xeon VM, with a peak RSS of 64 MiB.

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
# Bytes of one component slab in apply: a few such slabs (source rows
# with their halo, difference buffers, field, scratch and output) stay
# within a core's L2 cache together.
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


class _Rows:
    """Axis-0 rows of one state: ``chunks`` of (lo, hi, values), values of
    shape (blocks, 2s+1, hi - lo, N, N) holding rows lo:hi.  ``word`` is
    the word whose state they are, () for the state itself."""

    __slots__ = ("word", "chunks")

    def __init__(self, word, chunks=()):
        self.word, self.chunks = word, list(chunks)

    @classmethod
    def whole(cls, values: np.ndarray) -> _Rows:
        """Every row of a (blocks, N, N, N, 2s+1) array, as one chunk."""
        return cls((), [(0, len(values[0]), np.moveaxis(values, -1, 1))])

    def find(self, i: int) -> tuple:
        for chunk in self.chunks:
            if chunk[0] <= i < chunk[1]:
                return chunk
        raise AssertionError(f"row {i} of {self.word} is not computed")

    def take(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of every component, a view inside the one chunk
        that holds them.  A streamed plan's chunks are its level ranges
        and it asks for a range or its mirror, so rows that span two
        chunks are a broken invariant."""
        c0, c1, values = self.find(lo)
        if hi > c1:
            raise AssertionError(
                f"rows {lo}:{hi} of {self.word} span two chunks")
        return values[:, :, lo - c0:hi - c0]


def _diff_rows(src: _Rows, comp: tuple, axes: tuple, lo: int, hi: int,
               bufs, n: int, flip: bool) -> np.ndarray:
    """Rows lo:hi of the central-difference chain of component ``comp``
    (block, spin column) of src, negated with ``flip`` in its first
    difference (``_subtract``).

    ``axes`` is sorted, so the axis-0 differences come first.  Each reads
    one row beyond its output on either side and zeroes the boundary
    rows 0 and N-1, so the chain starts h rows out (h the number of
    axis-0 differences) and narrows to lo:hi; the first reads src chunk
    by chunk (``_diff_chunks``).  Axis-1 and axis-2 differences stay
    within rows.  Differences alternate between the two buffers of
    ``bufs``.
    """
    h = axes.count(0)
    if not h:
        cur, r0 = src.take(lo, hi)[comp], lo
    for i, axis in enumerate(axes):
        out = bufs[i % 2]
        if axis:
            cur = _central_diff(cur, axis, out[:len(cur)], flip and i == 0)
            continue
        h -= 1
        w0, w1 = max(lo - h, 0), min(hi + h, n)
        out = out[:w1 - w0]
        i0, i1 = max(w0, 1), min(w1, n - 1)
        if i == 0:
            _diff_chunks(src, comp, i0, i1, out[i0 - w0:i1 - w0], flip)
        else:
            np.subtract(cur[i0 + 1 - r0:i1 + 1 - r0],
                        cur[i0 - 1 - r0:i1 - 1 - r0],
                        out=out[i0 - w0:i1 - w0])
        out[:i0 - w0] = 0
        out[i1 - w0:] = 0
        cur, r0 = out, w0
    return cur[lo - r0:hi - r0]


def _diff_chunks(src: _Rows, comp: tuple, i0: int, i1: int,
                 out: np.ndarray, flip: bool) -> None:
    """out[i - i0] = x[i+1] - x[i-1] for rows i0:i1 of component x =
    ``comp`` of src, negated with ``flip`` (``_subtract``), one
    subtraction per stretch of rows whose two operands each lie in one
    chunk."""
    while i0 < i1:
        a0, a1, above = src.find(i0 + 1)
        b0, b1, below = src.find(i0 - 1)
        j = min(i1, a1 - 1, b1 + 1)
        _subtract(above[comp][i0 + 1 - a0:j + 1 - a0],
                  below[comp][i0 - 1 - b0:j - 1 - b0], out[:j - i0], flip)
        out, i0 = out[j - i0:], j


def _stored(s: complex) -> complex | float:
    """The scale a pair's slab is made with: s.real when s is real, so
    the slab is float64 and half the size.  A complex product casts a
    real operand to r + 0j, so the terms it feeds keep their bits."""
    return s.real if s.imag == 0 else s


class _Bank:
    """The field slabs of one range of rows, made whole the first time
    the range is asked for: F * s of each full-size pair by table index.
    ``keys`` maps each basis field key to its pairs, (index, scale); each
    field is evaluated once, scaled into every pair of its key and
    dropped.  ``weight`` is the range's 1/p0 weight once a norm has asked
    for it (``_Buffers.weight``), else None."""

    __slots__ = ("span", "slabs", "weight")

    def __init__(self, mesh: _Mesh, span: tuple[int, int], keys: dict):
        self.span, self.slabs, self.weight = span, {}, None
        for key, scales in keys.items():
            f = mesh.field(key, *span)
            for j, s in scales:
                self.slabs[j] = np.multiply(f, s)


class _Buffers:
    """Slab buffers that the row kernels of one layout (``_Layout``) share
    on ``mesh``, its grid's, for ranges of at most the layout's ``span``
    rows; every size is the layout's.

    The layout's ``pairs`` are the table of (field key, s) pairs its
    plans share (``_plan``), each scaled once and stored float64 where s
    is real (``_stored``).  Each pair whose field broadcasts along an
    axis is scaled first, for every kernel, in the field's own shape: a
    plane of shape (N, 1, 1), (1, N, 1) or (1, 1, N) has N points; then
    come scratch, the layout's ``chain`` difference buffers with its
    ``halo`` of rows on either side, and the field slabs of the last
    ``banks`` ranges run (``_Bank``), each with its 1/p0 weight once a
    norm has read it: a streamed plan takes norms, ``apply`` none.
    """

    def __init__(self, mesh: _Mesh, lay: _Layout):
        n, span = mesh.n, lay.span
        self.mesh, self.ranges = mesh, lay.banks
        self.planes, self.keys = {}, {}
        for (key, s), (j, full) in lay.pairs.items():
            if full:
                self.keys.setdefault(key, []).append((j, _stored(s)))
            else:
                self.planes[j] = np.multiply(mesh.field(key), _stored(s))
        self.scratch = np.empty((span, n, n), dtype=complex)
        self.deriv = [np.empty((span + 2 * lay.halo, n, n), dtype=complex)
                      for _ in range(lay.chain)]
        self.banks: list[_Bank] = []

    def _bank(self, lo: int, hi: int) -> _Bank:
        """The slabs of rows lo:hi, in place of the oldest range's."""
        for bank in self.banks:
            if bank.span == (lo, hi):
                return bank
        if len(self.banks) == self.ranges:
            self.banks.pop(0)
        self.banks.append(_Bank(self.mesh, (lo, hi), self.keys))
        return self.banks[-1]

    def weight(self, lo: int, hi: int) -> np.ndarray:
        """The 1/p0 weight on rows lo:hi, made on the range's bank the
        first time it is asked for."""
        bank = self._bank(lo, hi)
        if bank.weight is None:
            bank.weight = self.mesh.field(_INV_P0, lo, hi)
        return bank.weight

    def fields(self, used: list, lo: int, hi: int) -> list[np.ndarray]:
        """F * s on rows lo:hi of each pair of ``used`` (table indices): a
        broadcast pair's plane, or a full-size pair's slab from the
        range's bank."""
        bank = self._bank(lo, hi)
        out = []
        for j in used:
            f = self.planes.get(j)
            if f is None:
                f = bank.slabs[j]
            elif len(f) > 1:
                f = f[lo:hi]
            out.append(f)
        return out


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


def _apply_rows(plan: _Plan, bufs: _Buffers, src: _Rows, lo: int,
                hi: int, out: np.ndarray) -> None:
    """Rows lo:hi of plan's operator applied to src, into ``out`` of
    shape (blocks, 2s+1, hi - lo, N, N).

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
        x = (_diff_rows(src, comp, axes, a, b, bufs.deriv, n, flip)
             if axes else src.take(a, b)[comp])
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

    The operator is the one word of a layout (``_Layout``), whose kernel
    (``_apply_rows``) runs on each range of the grid's levels (a slab of
    axis-0 rows and its mirror, ``_level_ranges``) while those rows are
    in cache, in the buffers the layout sizes (``_Buffers``): F * s of a
    field that broadcasts along an axis is made once per apply, of a
    full-size one once per range (``_Bank``).  The result is scanned for
    non-finite entries once, as every ``GridState`` is, a slab at a time.
    """
    if op.dim != state.spin.dim or op.blocks != state.blocks:
        raise ValueError("operator shape does not match the state")
    g = state.grid
    n, mesh = g.points, _Mesh(g)
    lay = _Layout({"op": op}, [((ONE, ("op",)),)], g, mesh)
    (plan,) = lay.plans.values()
    bufs = _Buffers(mesh, lay)
    out = _empty_values(op.blocks, n, op.dim)
    comps = np.moveaxis(out, -1, 1)  # (blocks, 2s+1, N, N, N), contiguous rows
    src = _Rows.whole(state.values)
    for level in _level_ranges(n, lay.rows):
        for lo, hi in level:
            _apply_rows(plan, bufs, src, lo, hi, comps[:, :, lo:hi])
    return GridState(out, g)


# -- working-set estimate -------------------------------------------------------


def working_set_bytes(rep: RepSpec, grids) -> int:
    """Estimated bytes of arrays a grid study of ``rep`` over ``grids`` holds.

    No mesh outlives the plan that makes it, so only the grid being
    studied counts, and of it only its streamed plan (``_stream``): the
    standard state is its Gaussian factors, N points each.  The plan's
    arrays are read from its own layout (``_Layout``) on each grid, of
    the representative relations and the isometry rows, laid out on a
    mesh that makes no axis, so the estimate itself allocates nothing of
    the grid's size; none of the plan's arrays is state-sized:
    - each stored word's window, the state's own included, lead + keep
      + 1 levels of its rows, a level being a slab and its mirror (at
      most N rows in all);
    - the rows of one component sum;
    - the kernels' shared slabs (scratch, a difference buffer with the
      stencil's halo, two where a term differences twice, the slab a
      term is added from and one gathered slab), and the temporaries of
      evaluating the state on a slab or one basis field with its p0;
    - the field slabs of 2 (lead + 1) ranges: each full-size pair of the
      table scaled, real where its s is, and the 1/p0 weight;
    - each broadcast pair of the table scaled once, in its field's own
      shape (N points along one axis, N^2 along two), real where its s
      is.
    Against the peak RSS of ``grid`` at N = 32, 64, 128 less that of a
    process that only imports numpy and poincarelab (28.3 MiB), 35.4,
    60.6 and 57.2 MiB for up 2s=1, sym3 2s=1 and quad:+1 on a 2-core
    Xeon VM, it reads 5% and 6% high and even, and 16%, 12% and 8%
    above their cold studies' traced peaks (32.0, 57.1 and 52.7 MiB).
    """
    _rels, comps, ops = _relations(rep, representative_relations(rep))
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
        window = sum(min((w.lead + max(w.keep, 0) + 1) * span, n)
                     for w in lay.stored)
        halves = (2 * spins * (window + 3 * span)
                  + 2 * (2 + chain) * span + 4 * chain * lay.halo
                  + lay.banks * span * (full + 1))
        peak = max(peak, (halves * n * n + flat) * 8)
    return peak


# -- relation residuals ---------------------------------------------------------


def _level_ranges(n: int, rows: int) -> list[list[tuple[int, int]]]:
    """The axis-0 row ranges of each level of a streamed study, outside in.

    Level c holds the rows c*rows to (c+1)*rows - 1 away from the nearer
    face: slab [a, b) with its mirror [n-b, n-a), or, where the two meet,
    the one range [a, n-a), so the middle row of an odd N is its own
    mirror.  A level is closed under the reflection, and a stencil of h
    rows reads only levels at most ceil(h / rows) away.
    """
    half = (n + 1) // 2
    return [[(a, n - a)] if a + rows >= half
            else [(a, a + rows), (n - a - rows, n - a)]
            for a in range(0, half, rows)]


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
    """One distinct word of a streamed study and what reads it.  Its
    kernel runs ``head``, the outermost operator and the foldable ones
    after it, which it reads through (``_monomial``), on the rows of the
    word ``src`` that follows them."""

    def __init__(self, word: tuple, head: tuple = ()):
        self.word, self.head, self.src = word, head, word[len(head):]
        self.users: list[_Word] = []  # the words whose src it is
        self.terms = 0  # uses as a term of a component
        self.lead = self.keep = 0
        self.rows = _Rows(word)


class _Layout:
    """What a streamed plan (``_stream``) of ``components``, or ``apply``
    of one word, runs on one grid, decided before any row is made;
    ``working_set_bytes`` turns the same layout into bytes.

    ``ops`` are the operators the words name.  A word's kernel runs its
    outermost operator through every foldable one after it, as the fold
    (``_monomial``) of their exact product, so a word whose outermost
    operator is foldable is never read by another word: K1 Pi Theta psi
    reads the state's rows through Pi Theta.  ``plans`` holds the row kernels
    (``_plan``) on the grid by head (the operators a kernel runs, see
    ``_Word``), ``pairs`` the table of distinct (field key, s) pairs
    those plans share and ``rows`` the rows of a slab.  The word graph:
    ``words`` maps each word to its ``_Word``, the terms and the words
    their kernels read; ``order`` holds the nonempty ones shortest
    first, with their readers and their ``lead`` and ``keep`` in levels
    (see ``_stream``); ``direct`` the words that go straight into their
    component: those that no word reads and one term uses; ``stored``
    the others after ``root``, the state's word (), whose readers, lead
    and keep come the same way; and ``lead`` the most levels a stored word
    runs ahead.  The sizes of the buffers (``_Buffers``, and so
    ``working_set_bytes``) are read from here alone: ``span`` rows of a
    level, ``halo`` and ``chain`` (at most 2) difference buffers, and
    ``banks`` = 2 (lead + 1) ranges of field slabs.
    """

    def __init__(self, ops: dict, components, grid: Grid, mesh: _Mesh):
        terms = [word for comp in components for _c, word in comp]
        self.ops = {name: ops[name]
                    for name in dict.fromkeys(chain.from_iterable(terms))}
        folds = {name: _monomial(op) for name, op in self.ops.items()}
        self.pairs: dict[tuple, tuple[int, bool]] = {}
        self.plans: dict[tuple, _Plan] = {}
        self.rows = rows = _slab_rows(grid.points)
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
            need = [-(-self.plans[u.head].halo // rows) for u in w.users]
            w.lead = max([0] + [u.lead + d for u, d in zip(w.users, need)])
            w.keep = max([0] * bool(w.terms)
                         + [d - u.lead for u, d in zip(w.users, need)],
                         default=0)
        self.order = order[1:]
        self.direct = {w.word for w in self.order
                       if not w.users and w.terms == 1}
        stored = [w for w in self.order if w.word not in self.direct]
        self.lead = max((w.lead for w in stored), default=0)
        self.stored = [self.root, *stored]
        plans = self.plans.values()
        self.span = min(2 * rows, grid.points)
        self.halo = max((p.halo for p in plans), default=0)
        self.chain = min(max((p.chain for p in plans), default=0), 2)
        self.banks = 2 * (self.lead + 1)


def _stream(ops: dict, state, components) -> list[float]:
    """The norm of each component (a sum of terms) on one state, every
    word computed once, row by row.

    ``state`` is a row source: ``grid``, ``blocks``, ``spin`` and
    ``rows(lo, hi, out)``, which writes its rows lo:hi into ``out`` (a
    ``_Gaussian`` or a ``GridState``).  It is the word (), whose rows
    are taken as the plan goes and kept in a window like any stored
    word's; the norm of a state, the plan's own included, is the norm of
    a component of one term.  The plan's operators, field pairs and
    words are its ``_Layout``.  The grid's levels (``_level_ranges``)
    are walked from the faces in: a slab of rows together with its
    mirror, so a reflected read lands on rows that the same step
    computes.  A direct word (read by no word, used by one term) has
    its rows written straight into its component's rows, or, after the
    first term, into one add slab that is then added onto them; every
    other word keeps a window of its rows.  A word read by an operator
    whose stencil reaches d levels is computed d levels ahead of its
    reader (its ``lead``, summed along each chain of readers) and kept
    for d levels after (``keep``), so a level of a word is dropped once
    its last reader has run over it.  Each step computes the words
    shortest first, each from the rows of its ``src`` (read through the
    foldable operators of its head), then every component's rows, by one
    loop, in their terms' order with the same elementwise operations as
    summing whole applied states.  The kernels share one ``_Buffers`` on
    the plan's own mesh, the one its ``_Layout`` reads, whose field slabs
    span the levels of a step, so each range's bank is made once, whole,
    for every kernel that reads it, and the norms make and read its 1/p0
    weight.  A stored word's rows, the state's included, are scanned for
    non-finite entries as they are made; a direct word is checked through
    its component's norm.  Each range of a component gives its norm
    partials as soon as it is made (``_Norm``), so no norm keeps rows,
    and each norm is bit-identical to that of the whole applied state
    taken over the same ranges.  A grid whose spacing cubed is 0 is
    refused before any row is made, since every norm on it would be 0.
    """
    g = state.grid
    if g.spacing**3 == 0:  # every norm would be 0
        raise ValueError(_ZERO_NORM)
    n, mesh = g.points, _Mesh(g)
    shape = (state.blocks, state.spin.dim)
    lay = _Layout(ops, components, g, mesh)
    if any((op.blocks, op.dim) != shape for op in lay.ops.values()):
        raise ValueError("operator shape does not match the state")
    rows, direct, stored, plans = lay.rows, lay.direct, lay.stored, lay.plans
    levels = _level_ranges(n, rows)
    bufs = _Buffers(mesh, lay)
    slab = np.empty((*shape, lay.span, n, n), dtype=complex)  # a term to add
    source = {w.word: w.rows for w in stored}
    norms = [_Norm(n, bufs.weight) for _ in components]
    sums = [[(i, coeff, coeff.to_complex(), lay.words[word])
             for i, (coeff, word) in enumerate(comp)] for comp in components]
    last = len(levels) - 1
    for t, ranges in enumerate(levels):
        for word in stored:
            todo = (range(min(word.lead, last) + 1) if t == 0
                    else [t + word.lead] if t + word.lead <= last else [])
            for c in todo:
                for lo, hi in levels[c]:
                    out = np.empty((*shape, hi - lo, n, n), dtype=complex)
                    if word is lay.root:
                        state.rows(lo, hi, out)
                    else:
                        _apply_rows(plans[word.head], bufs, source[word.src],
                                    lo, hi, out)
                    _check_finite(out)
                    word.rows.chunks.append((lo, hi, out))
        for terms, norm_ in zip(sums, norms):
            for lo, hi in ranges:
                acc = np.empty((*shape, hi - lo, n, n), dtype=complex)
                add = slab[:, :, :hi - lo]
                for i, coeff, c, word in terms:
                    if word.word in direct:
                        _apply_rows(plans[word.head], bufs, source[word.src],
                                    lo, hi, add if i else acc)
                        if i:
                            _add_rows(acc, add, c, add)
                    elif i == 0:
                        np.copyto(acc, word.rows.take(lo, hi))
                    else:
                        _add_rows(acc, word.rows.take(lo, hi), c, add)
                    if i == 0 and coeff != ONE:
                        acc *= c
                norm_.add(lo, hi, acc)
        for word in stored:
            word.rows.chunks = [
                chunk for chunk in word.rows.chunks
                if min(chunk[0], n - chunk[1]) // rows + word.keep > t]
    return [norm_.value(g.spacing) for norm_ in norms]


# The components whose norms give the isometry rows, one term each: the
# state, Theta psi and Pi psi.
_ISOMETRY = tuple(((ONE, word),) for word in ((), ("Theta",), ("Pi",)))


def _relations(rep: RepSpec, relation_ids) -> tuple[list, list, dict]:
    """The relations of ``relation_ids`` in that order, each refused
    when unknown or with nothing to evaluate; their components, in
    order; and the operators their words name."""
    table = {r.name: r for r in relations(rep)}
    rels = []
    for rid in relation_ids:
        rel = table.get(rid)
        if rel is None:
            raise ValueError(f"unknown relation id: {rid}")
        if not rel.components:
            raise ValueError(f"relation {rid} has nothing to evaluate: "
                             f"{rel.inadmissible}")
        rels.append(rel)
    comps = [comp for rel in rels for comp in rel.components]
    return rels, comps, operators(rep, word_names(rels))


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
    """grids coarse to fine, checked to be a nested refinement."""
    grids = sorted(grids, key=lambda g: -g.spacing)
    if len(grids) < 3:
        raise ValueError("non-nested grid sequence: need at least three grids")
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
    inadmissible = {rel.name: rel.inadmissible for rel in relations(rep)
                    if rel.inadmissible}
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
