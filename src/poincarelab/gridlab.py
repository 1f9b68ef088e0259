"""Momentum-grid numerical cross-checks of the symbolic algebra.

Wavefunctions are sampled on a uniform cube [-L, L]^3 that is symmetric
about the origin, so the reflection Y is an exact index reversal and
conjugation is exact; derivatives use second-order central differences
with the boundary planes zeroed (test states must vanish at the boundary
to 1e-12 of peak, so those rows never matter).  Multiplication operators
evaluate their exact coefficients at a numeric mu carried by the grid.

A coefficient num / (p0^a (mu+p0)^b) is expanded into its terms, each an
exact scalar (times the powers of mu) times a real basis field
p^m / (p0^a (mu+p0)^b).  A grid's cached mesh (the last 8 grids are
kept) holds only the axes p1, p2, p3 and the factors of its standard
state, N points each: a field of the grid's size, p0 and the 1/p0
weight among them, is evaluated on a range of axis-0 rows when a kernel
or a norm reads it, bit-equal to those rows of the whole field.  States
store each spin component as one contiguous block (the array keeps its
(blocks, N, N, N, 2s+1) shape), so stencils, field products and norms
run over contiguous memory.  The row kernel (``_apply_rows``) computes a
few axis-0 rows of an applied operator at a time, running every term of
the operator on those rows while they are in cache.  Each term is one
product conj^k(x) * (F * s): the term's exact scalar s, which carries
the stencil step and the reflection sign, is folded into its real field
F, once per grid for a field that broadcasts along an axis (a
contiguous (1, N, N) plane when it is constant along axis 0) and once
per range of rows for a full-size one, for each distinct (field, s),
shared by every kernel that reads it.  Each element sees the same
operations in the same order as in one whole-array pass per term with
that formula, so results are bit-identical to it; the formula it
replaced, conj^k(x * F) * s, rounds differently, by at most 7.2e-16 of
the largest modulus on the operators tested.  ``apply`` runs the row
kernel over all rows, slab by slab.

``study`` runs every relation of a study on each grid from one streamed
plan (``_stream``): the grid's rows are walked from both faces in, a
slab together with its mirror, and each distinct word of the studied
relations is computed once per grid, on rows only, from the rows of its
suffix.  A word read again keeps a window of its rows as deep as its
readers' axis-0 stencils reach, summed along each chain of readers; a
word used once, as a term, is written or added straight into its
component's rows.  The state is the plan's word (), a row source whose
rows are kept in a window like any other word's: the standard state's
Gaussian factors, evaluated as the plan goes, or a caller's
``GridState``, its rows copied out.  So a study makes no array of the
grid's size but the bump and 1/p0 weight that normalize the state once
per grid, freed before the plan starts.  Each finished slab of a
component takes its norm partials, summed at the end in the
slab-then-component order of a whole-state norm, so residuals are
bit-identical to evaluating each relation alone with whole applied
states.  The plan takes the state's own norm too, and for the isometry
rows (``isometry_defect``, and a study's finest grid) the norms of Theta
psi and Pi psi.  ``grid --rep up --two-s 1`` at N = 32, 64, 128 computes
its 74 distinct words once on each grid (222 words, against 251 applies
when at most three states could stay and 356 when every relation ran
alone) in about 3.4 s of wall time on a 2-core Xeon VM, with a peak RSS
of 81 MiB.

The numeric layer complements the symbolic one: relations whose finite
difference errors cancel identically come out at rounding level, and
derivative-bearing relations converge at the stencil order (slope 2 in
log-residual vs log-spacing).  Relations are the rows of the catalog's
relation table, found by name: the plan applies each word of a row to
a state, right to left, and the grid ids are the same names the exact
reports use (Lie, discrete and both Casimirs).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
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
        if not (self.extent > 0 and math.isfinite(self.extent)):
            raise ValueError("grid extent must be positive and finite")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")

    @property
    def spacing(self) -> float:
        return 2 * self.extent / (self.points - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.points)


# The key of the 1/p0 weight of the inner product among the basis fields.
_INV_P0 = ((0, 0, 0, 0), 1, 0)


class _Field(NamedTuple):
    """A basis field of a plan: its key and the shape it broadcasts to."""

    key: tuple
    shape: tuple[int, ...]


class _Mesh:
    """Coordinates of one grid, and the factors of its standard states.

    p1, p2, p3 are broadcastable axes of shapes (N,1,1), (1,N,1),
    (1,1,N); no array of the grid's size is kept.  ``field`` evaluates
    the real basis field p^m / (p0^a (mu+p0)^b) of a key (m, a, b), with
    m the exponents of (p1, p2, p3, p0), on a range of axis-0 rows when
    asked, p0 and the 1/p0 weight included.  ``gaussians`` maps
    (two_s, blocks) to the factors of the grid's standard state
    (``_standard``); ``states`` holds the state itself once
    ``standard_state`` has sampled it for a caller.
    """

    def __init__(self, grid: Grid):
        ax = grid.axis()
        self.mu, self.n = grid.mu, grid.points
        self.axes = tuple(np.meshgrid(ax, ax, ax, indexing="ij", sparse=True))
        self.gaussians: dict[tuple[int, int], _Gaussian] = {}
        self.states: dict[tuple[int, int], GridState] = {}

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
        """c as a list of (basis field key, or None for 1; scalar)."""
        return [(key, complex(s.to_complex()) * self.mu ** e)
                for key, e, s in _field_terms(c)]


def _field_terms(c: Coefficient):
    """c's terms as (basis field key or None for 1, power of mu, scalar)."""
    for m, s in c.num.terms.items():
        key = (m[1:], c.a, c.b) if any(m[1:]) or c.a or c.b else None
        yield key, m[0], s


@lru_cache(maxsize=8)
def _meshes(grid: Grid) -> _Mesh:
    return _Mesh(grid)


def _empty_values(blocks: int, points: int, dim: int) -> np.ndarray:
    """Uninitialized (blocks, N, N, N, dim) complex array stored spin-major."""
    raw = np.empty((blocks, dim, points, points, points), dtype=complex)
    return np.moveaxis(raw, 1, -1)


@dataclass(frozen=True)
class GridState:
    values: np.ndarray  # (blocks, N, N, N, 2s+1) complex
    grid: Grid
    spin: SpinWeight
    blocks: int

    def __post_init__(self):
        n = self.grid.points
        expected = (self.blocks, n, n, n, self.spin.dim)
        if self.values.shape != expected:
            raise ValueError(
                f"state shape {self.values.shape} does not match {expected}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("state contains non-finite entries")

    @classmethod
    def _prechecked(cls, values, grid, spin, blocks) -> GridState:
        """A state of the right shape whose values the caller has already
        scanned for non-finite entries; skips the second scan."""
        state = object.__new__(cls)
        for name, value in zip(("values", "grid", "spin", "blocks"),
                               (values, grid, spin, blocks)):
            object.__setattr__(state, name, value)
        return state

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
    w = _meshes(a.grid).field(_INV_P0)
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
    spin: SpinWeight
    blocks: int
    factors: tuple
    spinor: np.ndarray  # (blocks, 2s+1) complex

    def bump(self, lo: int, hi: int) -> np.ndarray:
        g1, g2, g3 = self.factors
        return g1[lo:hi, None, None] * g2[None, :, None] * g3[None, None, :]

    def rows(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Rows lo:hi into ``out`` of shape (blocks, 2s+1, hi - lo, N, N):
        bit-equal to those rows of ``sample``."""
        bump = self.bump(lo, hi)
        for b in range(self.blocks):
            for m in range(self.spin.dim):
                np.multiply(bump, self.spinor[b, m], out=out[b, m])

    def sample(self) -> GridState:
        """The state on every row."""
        values = _empty_values(self.blocks, self.grid.points, self.spin.dim)
        self.rows(0, self.grid.points, np.moveaxis(values, -1, 1))
        return GridState(values, self.grid, self.spin, self.blocks)


def _gaussian(grid: Grid, center, width: float, spinor) -> _Gaussian:
    """``sample_gaussian``'s state as its factors, the spinor normalized.

    The norm of the bump is one whole-array weighted sum, of the bump
    and the 1/p0 weight on every row; both are freed on return.
    """
    if width <= 0:
        raise ValueError("width must be positive")
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
    blocks, dim = spinor.shape
    ax = grid.axis()
    factors = tuple(np.exp(-((ax - c) ** 2) / (2 * width**2)) for c in center)
    gauss = _Gaussian(grid, SpinWeight(dim - 1), blocks, factors, spinor)
    bump = gauss.bump(0, grid.points)
    # |bump x spinor|^2 = |bump|^2 |spinor|^2, so normalize the spinor
    n2 = _weighted(bump, bump, _meshes(grid).field(_INV_P0)) * grid.spacing**3
    del bump
    spinor = spinor / math.sqrt(n2 * float(np.vdot(spinor, spinor).real))
    if not np.isfinite(spinor).all():
        raise ValueError("state contains non-finite entries")
    return dataclasses.replace(gauss, spinor=spinor)


def sample_gaussian(grid: Grid, center, width: float, spinor) -> GridState:
    """Normalized Gaussian bump times a constant per-block spinor.

    The tail at the nearest boundary face must be below 1e-12 of the
    peak so central differences never touch meaningful boundary data.
    """
    return _gaussian(grid, center, width, spinor).sample()


def _central_diff(arr: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Undivided central difference f[i+1] - f[i-1] along ``axis``, into out.

    Runs as one flat subtraction at the axis stride: the entries where
    that wraps across a row are exactly the two boundary planes, which
    have no two-sided stencil and are zeroed.  The caller folds the
    1/(2h) into its scalar.
    """
    arr = np.ascontiguousarray(arr)
    stride = arr.strides[axis] // arr.itemsize
    flat, dst = arr.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * stride:], flat[:-2 * stride], out=dst[stride:-stride])
    edge = [slice(None)] * arr.ndim
    for plane in (0, -1):
        edge[axis] = plane
        out[tuple(edge)] = 0
    return out


def _slab_rows(points: int) -> int:
    """Axis-0 rows per slab: one component slab is about SLAB_BYTES."""
    return max(1, SLAB_BYTES // (points * points * 16))


def _plan(op: BlockOp, mesh: _Mesh,
          spacing: float) -> tuple[list[tuple], list[tuple]]:
    """The operator as a list of (src block, spin column, axes, u, terms),
    and the distinct (``_Field``, scalar) pairs its terms use.

    A term M d^alpha Y^u C^k acts column by column of M: source component
    n is differenced along ``axes`` on the unreflected grid (the stencil
    commutes with C, and with Y up to the sign (-1)^|alpha|), viewed
    reflected if u, and each coefficient term s * F of M[m][n] adds
    conj^k(x) * (F * s) to output component m, where s carries the step
    1/(2h)^|alpha| and the reflection sign.  Each entry's terms are
    (dst block, dst component, pair index or None for a term with no
    field, scalar, k, first), first marking the contribution that writes
    its output instead of adding to it.  Contributions sharing a source
    join one entry unless that would move them ahead of an earlier
    contribution to the same output, so every output sums its
    contributions in the order of the operator's terms.
    """
    entries, by_source, last, written = [], {}, {}, set()
    pairs, index = [], {}
    for br, row in enumerate(op.entries):
        for bc, sop in enumerate(row):
            for (alpha, u, k), mat in sop.terms.items():
                axes = tuple(a for a in range(3) for _ in range(alpha[a]))
                step = ((-1 if u else 1) / (2 * spacing)) ** len(axes)
                for n in range(op.dim):
                    source = (bc, n, axes, u)
                    for m in range(op.dim):
                        if mat[m][n].is_zero():
                            continue
                        dst = (br, m)
                        i = by_source.get(source)
                        if i is None or last.get(dst, -1) > i:
                            i = by_source[source] = len(entries)
                            entries.append((*source, []))
                        for key, s in mesh.terms(mat[m][n]):
                            s *= step
                            p = None
                            if key is not None:
                                p = index.setdefault((key, s), len(pairs))
                                if p == len(pairs):
                                    pairs.append(
                                        (_Field(key, mesh.shape(key)), s))
                            entries[i][-1].append(
                                (br, m, p, s, k, dst not in written))
                            written.add(dst)
                        last[dst] = i
    return entries, pairs


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
        """Rows lo:hi of every component: a view inside one chunk, else a
        copy."""
        c0, c1, values = self.find(lo)
        if hi <= c1:
            return values[:, :, lo - c0:hi - c0]
        parts = []
        while lo < hi:
            c0, c1, values = self.find(lo)
            parts.append(values[:, :, lo - c0:min(hi, c1) - c0])
            lo = min(hi, c1)
        return np.concatenate(parts, axis=2)


def _diff_rows(src: _Rows, comp: tuple, axes: tuple, lo: int, hi: int,
               bufs, n: int) -> np.ndarray:
    """Rows lo:hi of the central-difference chain of component ``comp``
    (block, spin column) of src.

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
            cur = _central_diff(cur, axis, out[:len(cur)])
            continue
        h -= 1
        w0, w1 = max(lo - h, 0), min(hi + h, n)
        out = out[:w1 - w0]
        i0, i1 = max(w0, 1), min(w1, n - 1)
        if i == 0:
            _diff_chunks(src, comp, i0, i1, out[i0 - w0:i1 - w0])
        else:
            np.subtract(cur[i0 + 1 - r0:i1 + 1 - r0],
                        cur[i0 - 1 - r0:i1 - 1 - r0],
                        out=out[i0 - w0:i1 - w0])
        out[:i0 - w0] = 0
        out[i1 - w0:] = 0
        cur, r0 = out, w0
    return cur[lo - r0:hi - r0]


def _diff_chunks(src: _Rows, comp: tuple, i0: int, i1: int,
                 out: np.ndarray) -> None:
    """out[i - i0] = x[i+1] - x[i-1] for rows i0:i1 of component x =
    ``comp`` of src, one subtraction per stretch of rows whose two
    operands each lie in one chunk."""
    while i0 < i1:
        a0, a1, above = src.find(i0 + 1)
        b0, b1, below = src.find(i0 - 1)
        j = min(i1, a1 - 1, b1 + 1)
        np.subtract(above[comp][i0 + 1 - a0:j + 1 - a0],
                    below[comp][i0 - 1 - b0:j - 1 - b0], out=out[:j - i0])
        out, i0 = out[j - i0:], j


def _halo(op: BlockOp) -> int:
    """The most axis-0 derivatives of any term of op."""
    return max((alpha[0] for row in op.entries for sop in row
                for (alpha, _u, _k) in sop.terms), default=0)


class _Scaled:
    """The scaled fields F * s of the kernels of one grid, each distinct
    (field, s) once: a field that broadcasts along an axis as F * s made
    once, a contiguous (1, N, N) plane when it is constant along axis 0;
    a full-size one as the index of its slab in ``_Buffers.slab``, ``full``
    being the number of indices given out."""

    def __init__(self, mesh: _Mesh):
        self.mesh, self.pairs, self.full = mesh, {}, 0

    def get(self, field: _Field, s: complex):
        got = self.pairs.get((field.key, s))
        if got is None:
            n = self.mesh.n
            if field.shape == (n, n, n):
                got, self.full = self.full, self.full + 1
            else:
                got = np.multiply(self.mesh.field(field.key), s)
                if len(got) == 1:
                    got = np.ascontiguousarray(
                        np.broadcast_to(got, (1, n, n)))
            self.pairs[field.key, s] = got
        return got


class _Kernel:
    """The row kernel of one operator on one grid.

    ``sources`` is ``_plan``'s list with each source as its (block, spin
    column) pair; ``fields`` gives each distinct (field, scalar) pair of
    the plan as (F * s, None, None) for a field that broadcasts along an
    axis, scaled once per grid, and as (key, s, j) for a full-size one,
    evaluated and scaled per range into slab j (``_Buffers.slab``);
    ``scaled`` (``_Scaled``) shares both among the kernels of a plan, and
    ``full`` is one more than the highest j.  ``halo`` is the most axis-0
    differences of any term, ``unreached`` the output components no term
    writes.
    """

    def __init__(self, op: BlockOp, mesh: _Mesh, spacing: float, n: int,
                 name: str | None = None, scaled: _Scaled | None = None):
        plan, pairs = _plan(op, mesh, spacing)
        self.name, self.n, self.mesh = name, n, mesh
        self.sources = [((bc, col), axes, u, terms)
                        for bc, col, axes, u, terms in plan]
        self.halo = _halo(op)
        written = {(t[0], t[1]) for *_src, terms in plan for t in terms}
        self.unreached = [(br, m) for br in range(op.blocks)
                          for m in range(op.dim) if (br, m) not in written]
        scaled = _Scaled(mesh) if scaled is None else scaled
        self.fields, self.full = [], 0
        for field, s in pairs:
            got = scaled.get(field, s)
            if isinstance(got, int):
                self.fields.append((field.key, s, got))
                self.full = max(self.full, got + 1)
            else:
                self.fields.append((got, None, None))


class _Bank:
    """The full-size field slabs of one range of rows: the basis fields
    by key and the scaled ones by index, each made on first use."""

    __slots__ = ("span", "bases", "scaled")

    def __init__(self, span: tuple[int, int] | None, fields: int):
        self.span, self.bases, self.scaled = span, {}, [None] * fields


class _Buffers:
    """Slab buffers that row kernels run one after another share, for
    ranges of at most ``rows`` rows: scratch, two difference buffers with
    a ``halo`` of rows on either side, the field slabs of the last
    ``ranges`` ranges run (each up to ``fields`` scaled slabs, ``_Bank``)
    and, given the (blocks, 2s+1) ``shape`` of a state, the slab a term
    is built in before it is added onto a sum."""

    def __init__(self, n: int, rows: int, halo: int, fields: int,
                 shape: tuple[int, int] | None = None, ranges: int = 2):
        self.scratch = np.empty((rows, n, n), dtype=complex)
        self.deriv = [np.empty((rows + 2 * halo, n, n), dtype=complex)
                      for _ in range(2)]
        self.fields = fields
        self.banks = [_Bank(None, fields) for _ in range(ranges)]
        self.target = None if shape is None else np.empty(
            (*shape, rows, n, n), dtype=complex)

    def _bank(self, lo: int, hi: int) -> _Bank:
        """The slabs of rows lo:hi, in place of the oldest range's."""
        for bank in self.banks:
            if bank.span == (lo, hi):
                return bank
        self.banks.pop(0)
        self.banks.append(_Bank((lo, hi), self.fields))
        return self.banks[-1]

    def base(self, mesh: _Mesh, key: tuple, lo: int, hi: int) -> np.ndarray:
        """The basis field of key on rows lo:hi."""
        bases = self._bank(lo, hi).bases
        if key not in bases:
            bases[key] = mesh.field(key, lo, hi)
        return bases[key]

    def slab(self, mesh: _Mesh, key: tuple, s: complex, j: int, lo: int,
             hi: int) -> np.ndarray:
        """Slab j, the field of key times s, on rows lo:hi."""
        scaled = self._bank(lo, hi).scaled
        if scaled[j] is None:
            scaled[j] = np.multiply(self.base(mesh, key, lo, hi), s)
        return scaled[j]


def _apply_rows(kernel: _Kernel, bufs: _Buffers, src: _Rows, lo: int,
                hi: int, out: np.ndarray, c: complex | None = None) -> None:
    """Rows lo:hi of kernel's operator applied to src, into ``out`` of
    shape (blocks, 2s+1, hi - lo, N, N); with ``c``, c times them added
    onto out instead.

    Every term of the plan runs on these rows while they are in cache:
    each source component differenced (``_diff_rows``), viewed reflected
    by reading the mirrored rows, and for each term conjugated if
    antilinear and multiplied by the term's scaled field F * s.  A term
    without a field is multiplied by its scalar, or copied when that is
    1.  The first contribution to an output component is written straight
    into it, later ones go through one scratch slab; components no term
    reaches are zeroed.  The finished rows are checked finite while they
    are still in cache.  An added term is built in ``bufs.target`` and
    added with ``+=`` for c == 1, ``-=`` for c == -1, else multiplied by
    c and then added: the same elementwise operations as adding a whole
    applied state.
    """
    n, rows = kernel.n, hi - lo
    slab = out if c is None else bufs.target[:, :, :rows]
    for br, m in kernel.unreached:
        slab[br, m] = 0
    gs = [f if s is None and len(f) == 1 else f[lo:hi] if s is None
          else bufs.slab(kernel.mesh, f, s, j, lo, hi)
          for f, s, j in kernel.fields]
    for comp, axes, u, terms in kernel.sources:
        a, b = (n - hi, n - lo) if u else (lo, hi)
        x = (_diff_rows(src, comp, axes, a, b, bufs.deriv, n) if axes
             else src.take(a, b)[comp])
        if u:
            x = x[::-1, ::-1, ::-1]
        for br, m, p, s, k, first in terms:
            dst = slab[br, m]
            into = dst if first else bufs.scratch[:rows]
            term = np.conjugate(x, out=into) if k else x
            if p is not None or s != 1:
                term = np.multiply(term, s if p is None else gs[p], out=into)
            if not first:
                dst += term
            elif term is not dst:
                np.copyto(dst, term)
    if not np.isfinite(slab.view(float)).all():
        raise ValueError("state contains non-finite entries")
    if c is None:
        return
    if c == 1:
        out += slab
    elif c == -1:
        out -= slab
    else:
        slab *= c
        out += slab


def apply(op: BlockOp, state: GridState) -> GridState:
    """Apply an exact operator numerically, slab by slab.

    The output is built a few axis-0 rows at a time (``_slab_rows``) by
    the row kernel (``_apply_rows``), which runs the operator's whole
    plan (``_plan``) on those rows while they are in cache.  F * s is
    computed once per apply for a field that broadcasts along an axis
    and once per slab for a full-size one, for each distinct (field, s),
    the full-size field itself evaluated on the slab's rows.
    A finished slab is checked finite while it is still in cache, so the
    result needs no second scan.
    """
    if op.dim != state.spin.dim or op.blocks != state.blocks:
        raise ValueError("operator shape does not match the state")
    g = state.grid
    n = g.points
    kernel = _Kernel(op, _meshes(g), g.spacing, n)
    rows = min(_slab_rows(n), n)
    bufs = _Buffers(n, rows, kernel.halo, kernel.full)
    out = _empty_values(op.blocks, n, op.dim)
    comps = np.moveaxis(out, -1, 1)  # (blocks, 2s+1, N, N, N), contiguous rows
    src = _Rows.whole(state.values)
    for a in range(0, n, rows):
        _apply_rows(kernel, bufs, src, a, min(a + rows, n),
                    comps[:, :, a:a + rows])
    return GridState._prechecked(out, g, state.spin, state.blocks)


# -- working-set guard ----------------------------------------------------------

# Share of MemAvailable a grid study may plan to fill.
MEMORY_SHARE = 0.5


def _scaled_pairs(op: BlockOp) -> set[tuple]:
    """The (field, s) pairs of ``_plan`` of op, counted from the exact
    terms as (full size, field key, power of mu, scalar, |alpha|,
    reflection sign): an upper bound on the distinct numeric pairs."""
    pairs = set()
    for row in op.entries:
        for sop in row:
            for (alpha, u, _k), mat in sop.terms.items():
                order = sum(alpha)
                for mrow in mat:
                    for c in mrow:
                        for key, e, s in _field_terms(c):
                            if key is not None:
                                mono, a, b = key
                                full = bool(a or b or mono[3] or all(mono[:3]))
                                pairs.add((full, key, e, s, order,
                                           u and order % 2))
    return pairs


def working_set_bytes(rep: RepSpec, grids) -> int:
    """Estimated bytes of arrays a grid study of ``rep`` over ``grids`` holds.

    A cached mesh keeps only coordinates and the standard state's
    factors, N points each, so only the grid being studied counts.  It
    first normalizes its standard state (``_gaussian``): the bump and the
    1/p0 weight on every row, 8 bytes a point, freed before its streamed
    plan (``_stream``) starts.  The plan's arrays are none of them
    state-sized:
    - each stored word's window, the state's own included, lead + keep
      + 1 levels of its rows, a level being a slab and its mirror (at
      most N rows in all);
    - the rows of one component sum, and when the norm slabs do not
      tile the levels, one more level of every component's rows;
    - the kernels' shared slabs (scratch, two difference buffers with
      the stencil's halo, the slab a term is added from and one gathered
      slab), and the temporaries of evaluating a field or the state on
      a slab;
    - the field slabs of 2 (lead + 1) ranges: each distinct full-size
      (field, s) pair scaled, and each full-size basis field and the
      1/p0 weight, real;
    - each distinct broadcast (field, s) pair scaled once, at most N^2
      points.
    Against the peak RSS of ``grid`` at N = 32, 64, 128 less that of a
    process that only imports numpy and poincarelab (32 MiB), 48, 82
    and 67 MiB for up 2s=1, sym3 2s=1 and quad:+1 on a 2-core Xeon VM,
    it reads 31%, 20% and 14% high.  From N = 626 the normalization
    sets it: ``--n 32,64,N`` needs more than half of 7.3 GiB there.
    """
    studied = set(representative_relations(rep))
    rels = [r for r in relations(rep) if r.name in studied]
    comps = [comp for rel in rels for comp in rel.components]
    ops = operators(rep, word_names(rels))
    used = {name: ops[name] for comp in comps for _c, word in comp
            for name in word}
    halos = {name: _halo(op) for name, op in used.items()}
    pairs = set().union(*(_scaled_pairs(op) for op in used.values()))
    full = sum(p[0] for p in pairs)
    bases = 1 + len({p[1] for p in pairs if p[0]})  # and the 1/p0 weight
    broadcast = len(pairs) - full
    halo = max(halos.values())
    spins = rep.blocks * (rep.two_s + 1)
    peak = 0
    for g in grids:
        n = g.points
        rows = _slab_rows(n)
        span = min(2 * rows, n)
        root = _Word(())
        order, direct = _word_graph(comps, halos, rows,
                                    {(), ("Theta",), ("Pi",)}, root)
        stored = [w for w in order if w.word not in direct]
        lead = max((w.lead for w in stored), default=0)
        window = sum(min((w.lead + max(w.keep, 0) + 1) * 2 * rows, n)
                     for w in (root, *stored))
        sums = span * (1 + len(comps) * bool(n % rows))
        banks = 2 * (lead + 1) * span * (2 * full + bases)
        planes = (spins * (window + sums + 2 * span) + 5 * span + 4 * halo
                  + banks // 2 + broadcast)
        peak = max(peak, planes * n * n * 16, 2 * n**3 * 8)
    return peak


def memory_budget() -> int | None:
    """MEMORY_SHARE of MemAvailable in bytes; None without /proc/meminfo."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(int(line.split()[1]) * 1024 * MEMORY_SHARE)
    except OSError:
        pass
    return None


def check_working_set(rep: RepSpec, grids, budget: int | None) -> None:
    """Refuse, before allocating anything, a study that would not fit."""
    need = working_set_bytes(rep, grids)
    if budget is not None and need > budget:
        sizes = ", ".join(str(g.points) for g in grids)
        raise ValueError(
            f"grid study at N = {sizes} needs about {need / 2**20:,.0f} MiB "
            f"of arrays, over the {budget / 2**20:,.0f} MiB budget "
            f"({MEMORY_SHARE:.0%} of MemAvailable)"
        )


# -- relation residuals ---------------------------------------------------------


def relation_ids(rep: RepSpec) -> list[str]:
    """Every relation of the rep: Lie, discrete and both Casimirs."""
    return [r.name for r in relations(rep)]


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
    """A weighted norm taken slab by slab (``_slab_rows``), from chunks of
    rows that arrive in level order; ``weight(a, b)`` gives the 1/p0
    weight on rows a:b.

    The slabs not yet summed are a run, slabs ``first`` to ``last`` - 1,
    shrinking from both ends as the levels close in.  Each slab's
    per-component partials are computed once all its rows are in, and
    summed at the end in slab-then-component order, so the norm is
    bit-identical to one ``_Norm`` of the whole state flushed at once.
    Chunks are let go once every slab they touch is summed.
    """

    def __init__(self, n: int, weight):
        self.n, self.weight = n, weight
        self.slab = _slab_rows(n)
        self.rows = _Rows(())
        self.first, self.last = 0, -(-n // self.slab)
        self.parts: list[list[float]] = [[] for _ in range(self.last)]

    def flush(self, depth: int) -> None:
        """Sum the slabs whose rows all lie within ``depth`` of a face."""
        n, r = self.n, self.slab

        def done(a: int, b: int) -> bool:
            return b <= depth or a >= n - depth or 2 * depth >= n

        while self.first < self.last and done(self.first * r,
                                              (self.first + 1) * r):
            self._sum(self.first)
            self.first += 1
        while self.first < self.last and done((self.last - 1) * r, n):
            self.last -= 1
            self._sum(self.last)
        self.rows.chunks = [
            chunk for chunk in self.rows.chunks
            if not done(chunk[0] // r * r, min(-(-chunk[1] // r) * r, n))]

    def _sum(self, j: int) -> None:
        a, b = j * self.slab, min((j + 1) * self.slab, self.n)
        slab, wa = self.rows.take(a, b), self.weight(a, b)
        self.parts[j] = [_weighted(x.real, x.real, wa)
                         + _weighted(x.imag, x.imag, wa)
                         for block in slab for x in block]

    def value(self, spacing: float) -> float:
        total = 0.0
        for parts in self.parts:
            for part in parts:
                total += part
        return math.sqrt(total * spacing**3)


class _Word:
    """One distinct word of a streamed study and what reads it."""

    def __init__(self, word: tuple):
        self.word = word
        self.users: list[_Word] = []  # words one operator longer
        self.terms = 0  # uses as a term of a component
        self.lead = self.keep = 0
        self.rows = _Rows(word)
        self.norm: _Norm | None = None


def _word_graph(components, halos: dict, rows: int, normed,
                root: _Word | None = None) -> tuple[list[_Word], set]:
    """The distinct nonempty words of ``components`` shortest first, with
    their readers, ``lead`` and ``keep`` in levels of ``rows`` rows (see
    ``_stream``), and the words read once, as a term, which go straight
    into their component.  ``halos`` maps each operator name to its
    axis-0 stencil reach in rows; ``normed`` holds the words whose norm
    is wanted, and computed even if no component uses it.  ``root``, if
    given, is the node of the empty word, the state itself: it gets its
    readers, lead and keep in the same way."""
    words: dict[tuple, _Word] = {} if root is None else {(): root}
    for word in chain((word for comp in components for _c, word in comp),
                      normed):
        for i in range(len(word)):
            if word[i:] not in words:
                words[word[i:]] = _Word(word[i:])
    for comp in components:
        for _c, word in comp:
            if word in words:
                words[word].terms += 1
    order = sorted(words.values(), key=lambda w: len(w.word))
    for w in reversed(order):  # readers before what they read
        if w.word and w.word[1:] in words:
            words[w.word[1:]].users.append(w)
        need = [-(-halos[u.word[0]] // rows) for u in w.users]
        w.lead = max([0] * (bool(w.terms) or w.word in normed)
                     + [u.lead + d for u, d in zip(w.users, need)])
        w.keep = max([0] * bool(w.terms) + [1] * (w.word in normed)
                     + [d - u.lead for u, d in zip(w.users, need)])
    direct = {w.word for w in order if w.word and w.terms == 1
              and not w.users and w.word not in normed}
    return [w for w in order if w.word], direct


def _stream(ops: dict, state, components, normed: dict) -> list[float]:
    """The norm of each component (a sum of terms) on one state, every
    word computed once, row by row.

    ``state`` is a row source: ``grid``, ``blocks``, ``spin`` and
    ``rows(lo, hi, out)``, which writes its rows lo:hi into ``out`` (a
    ``_Gaussian`` or a ``GridState``).  It is the word (), whose rows
    are taken as the plan goes and kept in a window like any stored
    word's.  The grid's levels (``_level_ranges``) are walked from the
    faces in: a slab of rows together with its mirror, so a reflected
    read lands on rows that the same step computes.  A word with one
    use, as a term, has its rows written or added straight into its
    component's rows; every other word keeps a window of its rows.  A
    word read by an operator whose stencil reaches d levels is computed
    d levels ahead of its reader (its ``lead``, summed along each chain
    of readers) and kept for d levels after (``keep``), so a level of a
    word is dropped once its last reader has run over it.  Each step
    computes the words shortest first, each from the rows of its suffix,
    then the components' rows in their terms' order with the same
    elementwise operations as summing whole applied states.  The kernels
    share one ``_Buffers``, whose field slabs span the levels of a step,
    so each range's fields and scaled fields are made once for every
    kernel that reads them.  The norms are summed slab by slab
    (``_Norm``), so they are bit-identical to whole-state norms.
    ``normed`` maps words to None; each is computed, whether or not a
    component uses it, and gets the norm of its applied state, () that
    of the state itself.
    """
    g = state.grid
    n, mesh = g.points, _meshes(g)
    rows = _slab_rows(n)
    levels = _level_ranges(n, rows)
    used = {name: ops[name] for comp in components for _c, word in comp
            for name in word}
    used.update((name, ops[name]) for word in normed for name in word)
    if any((op.blocks, op.dim) != (state.blocks, state.spin.dim)
           for op in used.values()):
        raise ValueError("operator shape does not match the state")
    scaled = _Scaled(mesh)
    kernels = {name: _Kernel(op, mesh, g.spacing, n, name, scaled)
               for name, op in used.items()}
    root = _Word(())
    order, direct = _word_graph(
        components, {name: k.halo for name, k in kernels.items()}, rows,
        normed, root)
    stored = [w for w in order if w.word not in direct]
    lead = max((w.lead for w in stored), default=0)
    stored.insert(0, root)
    source = {w.word: w.rows for w in stored}
    shape = (state.blocks, state.spin.dim)
    bufs = _Buffers(n, min(2 * rows, n),
                    max((k.halo for k in kernels.values()), default=0),
                    scaled.full, shape, 2 * (lead + 1))
    weight = partial(bufs.base, mesh, _INV_P0)
    measured = [w for w in stored if w.word in normed]
    for word in measured:
        word.norm = _Norm(n, weight)
    norms = [_Norm(n, weight) for _ in components]
    sums = [[(i, coeff, coeff.to_complex(), word)
             for i, (coeff, word) in enumerate(comp)] for comp in components]
    last = len(levels) - 1
    for t, ranges in enumerate(levels):
        for word in stored:
            todo = (range(min(word.lead, last) + 1) if t == 0
                    else [t + word.lead] if t + word.lead <= last else [])
            for c in todo:
                for lo, hi in levels[c]:
                    out = np.empty((*shape, hi - lo, n, n), dtype=complex)
                    if word is root:
                        state.rows(lo, hi, out)
                    else:
                        _apply_rows(kernels[word.word[0]], bufs,
                                    source[word.word[1:]], lo, hi, out)
                    word.rows.chunks.append((lo, hi, out))
                    if word.norm is not None:
                        word.norm.rows.chunks.append((lo, hi, out))
        depth = min(ranges[0][0] + rows, (n + 1) // 2)
        for terms, norm_ in zip(sums, norms):
            for lo, hi in ranges:
                acc = np.empty((*shape, hi - lo, n, n), dtype=complex)
                for i, coeff, c, word in terms:
                    if word in direct:
                        _apply_rows(kernels[word[0]], bufs, source[word[1:]],
                                    lo, hi, acc, None if i == 0 else c)
                        if i == 0 and coeff != ONE:
                            acc *= c
                        continue
                    values = source[word].take(lo, hi)
                    if i == 0:
                        np.copyto(acc, values)
                        if coeff != ONE:
                            acc *= c
                    elif coeff == ONE:
                        acc += values
                    elif coeff == -ONE:
                        acc -= values
                    else:
                        scaled_values = bufs.target[:, :, :hi - lo]
                        np.multiply(values, c, out=scaled_values)
                        acc += scaled_values
                norm_.rows.chunks.append((lo, hi, acc))
            norm_.flush(depth)
        for word in measured:
            word.norm.flush(depth)
        for word in stored:
            word.rows.chunks = [
                chunk for chunk in word.rows.chunks
                if min(chunk[0], n - chunk[1]) // rows + word.keep > t]
    for word in measured:
        normed[word.word] = word.norm.value(g.spacing)
    return [norm_.value(g.spacing) for norm_ in norms]


def _residuals(rep: RepSpec, relation_ids, state,
               normed: dict | None = None) -> list[float]:
    """Residual of each relation on one state, from one streamed plan
    (``_stream``): a word shared by several relations is computed once.
    ``state`` is a row source (see ``_stream``), read row by row.  The
    plan also takes the state's own norm.  ``normed`` (see ``_stream``)
    gets the norms of the wanted words the plan computes, and of ()."""
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
    normed = {} if normed is None else normed
    normed[()] = None
    norms = iter(_stream(operators(rep, word_names(rels)), state, comps,
                         normed))
    base = normed[()]
    return [max(next(norms) / base for _comp in rel.components)
            for rel in rels]


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
    admissible Gaussian: sampled once per (grid, two_s, blocks) and kept
    on the grid's cached mesh, so they are freed with it."""
    gaussians = _meshes(grid).gaussians
    key = (rep.two_s, rep.blocks)
    if key not in gaussians:
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
        gaussians[key] = _gaussian(grid, center, width, spinor)
    return gaussians[key]


def standard_state(rep: RepSpec, grid: Grid) -> GridState:
    """The grid's standard state (``_standard``) on every row.

    Sampled once per (grid, two_s, blocks) and kept read-only on the
    grid's cached mesh, so it is freed with the mesh.  ``study`` never
    samples it whole: its plan evaluates the same rows, bit for bit, as
    it goes.
    """
    states = _meshes(grid).states
    key = (rep.two_s, rep.blocks)
    if key not in states:
        state = _standard(rep, grid).sample()
        state.values.flags.writeable = False
        states[key] = state
    return states[key]


@dataclass(frozen=True)
class NumericReport:
    relation: str
    sizes: tuple[int, ...]
    spacings: tuple[float, ...]
    residuals: tuple[float, ...]
    slope: float | None
    exact: bool
    ok: bool

    def detail(self) -> str:
        res = ", ".join(f"{r:.3e}" for r in self.residuals)
        if self.exact:
            return f"exact (residuals {res})"
        if self.slope is None:
            zeros = ", ".join(str(n) for n, r in zip(self.sizes, self.residuals)
                              if r < EXACT_TOL)
            return (f"no slope: zero residual at N = {zeros}, "
                    f"nonzero elsewhere (residuals {res})")
        return f"slope {self.slope:.3f} (residuals {res})"

    def as_dict(self) -> dict:
        return {
            "relation": self.relation,
            "sizes": list(self.sizes),
            "spacings": list(self.spacings),
            "residuals": list(self.residuals),
            "slope": self.slope,
            "exact": self.exact,
            "ok": self.ok,
        }


def _refining(grids) -> list[Grid]:
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


def _fit(relation_id: str, grids, residuals) -> NumericReport:
    exact = all(r < EXACT_TOL for r in residuals)
    if exact:
        slope = None
        ok = True
    elif any(r < EXACT_TOL for r in residuals):
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
    log of a zero residual) and fail the study.

    ``defects``, if a dict, receives ``isometry_defect`` of the finest
    grid's standard state, from the norms that grid's plan takes: it
    computes Theta psi and Pi psi whether or not a relation applies them.
    """
    grids = _refining(grids)
    normed = {} if defects is None else dict.fromkeys([("Theta",), ("Pi",)])
    per_grid = [_residuals(rep, relation_ids, _standard(rep, g),
                           normed if g is grids[-1] else None)
                for g in grids]
    if defects is not None:
        defects.update(_isometry(normed))
    return [_fit(rid, grids, [res[i] for res in per_grid])
            for i, rid in enumerate(relation_ids)]


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
    from the norms one streamed plan (``_stream``) of no components takes."""
    normed = dict.fromkeys([(), ("Theta",), ("Pi",)])
    _stream({"Theta": rep.theta, "Pi": rep.pi}, state, [], normed)
    return _isometry(normed)


def _isometry(normed: dict) -> dict[str, float]:
    """The isometry defects from the norms a plan measured: of the state
    (key ()), of Theta psi and of Pi psi."""
    base = normed[()]
    return {name: abs(normed[(name,)] - base) / base
            for name in ("Theta", "Pi")}

