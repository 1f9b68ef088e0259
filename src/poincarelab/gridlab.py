"""Momentum-grid numerical cross-checks of the symbolic algebra.

Wavefunctions are sampled on a uniform cube [-L, L]^3 that is symmetric
about the origin, so the reflection Y is an exact index reversal and
conjugation is exact; derivatives use second-order central differences
with the boundary planes zeroed (test states must vanish at the boundary
to 1e-12 of peak, so those rows never matter).  Multiplication operators
evaluate their exact coefficients at a numeric mu carried by the grid.

Coefficient fields are evaluated once per grid.  A coefficient
num / (p0^a (mu+p0)^b) is expanded into its terms, each an exact scalar
(times the powers of mu) times a real basis field p^m / (p0^a (mu+p0)^b);
the basis fields live in a dict on the grid's cached mesh, so they are
bounded with the meshes (the last 8 grids) and freed with them.  A bare
p1, p2, p3 or p0 is the mesh array itself.  Each grid's standard state
is built once and kept read-only on the mesh in the same way.  States
store each spin component as one contiguous block (the array keeps its
(blocks, N, N, N, 2s+1) shape), so stencils, field products and norms
run over contiguous memory.  ``apply`` builds its output slab by slab,
a few axis-0 rows at a time, running every term of the operator on
those rows while they are in cache.  Each term is one product
conj^k(x) * (F * s): the term's exact scalar s, which carries the
stencil step and the reflection sign, is folded into its real field F,
once per apply for a field that broadcasts along an axis and once per
slab for a full-size one, for each distinct (field, s).  Each element
sees the same operations in the same order as in one whole-array pass
per term with that formula, so results are bit-identical to it; the
formula it replaced, conj^k(x * F) * s, rounds differently, by at most
7.2e-16 of the largest modulus on the operators tested.  ``apply`` can
write into a given array, zeroing the components no term reaches, or
add c times its result onto a sum slab by slab (``add_to``), with the
same elementwise operations as adding the whole applied state.

``study`` runs every relation of a study on each grid from one plan
(``_residuals``): the relations run in an order that keeps those
sharing a suffix together, each word is applied once while its state
can stay, and each applied state is dropped after the last term whose
word ends with it.  The arrays held at once (kept states, those in use,
component sums and dropped arrays kept to receive later outputs) stay
within _LIVE_STATES states of the study's largest grid, the working-set
guard's own figure: three states on the largest grid, 24 on one with
half its points per axis, room for every state a representative study
shares.  A term after the first of a component whose word is not
kept and has no later use adds its last apply straight onto the
component's sum, so it needs no array of its own.  Residuals are
bit-identical to evaluating each relation alone, since the same applies
act on the same operands and sum with the same elementwise operations
in the same order.  On the finest grid the plan also takes the norms
of its own Theta psi and Pi psi for the isometry rows.  At N = 128 a
spin-1/2 state takes 64 MiB; on a 2-core Xeon VM one apply takes about
15-20 ms for a multiplication generator or Theta/Pi, 45 ms for a
rotation and 60-75 ms for a boost, and ``grid --rep up --two-s 1`` at
N = 32, 64, 128 makes 251 applies (74, 74 and 103 per grid, 30 of them
added onto a sum, against 118 each when every relation ran alone) in
about 6.2 s of wall time with a peak RSS of 424 MiB.

The numeric layer complements the symbolic one: relations whose finite
difference errors cancel identically come out at rounding level, and
derivative-bearing relations converge at the stencil order (slope 2 in
log-residual vs log-spacing).  Relations are the rows of the catalog's
relation table, found by name: ``residual`` applies each word of a row
to a state, right to left, and the grid ids are the same names the
exact reports use (Lie, discrete and both Casimirs).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

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


class _Mesh:
    """Coordinates of one grid and its cache of coefficient basis fields.

    p1, p2, p3 are broadcastable axes of shapes (N,1,1), (1,N,1), (1,1,N);
    p0 is a full (N,N,N) array.  ``fields`` maps a key (m, a, b), with m
    the exponents of (p1, p2, p3, p0), to the real field
    p^m / (p0^a (mu+p0)^b), built on first use; ``states`` maps
    (two_s, blocks) to the grid's read-only standard state and ``norms``
    to its norm.
    """

    def __init__(self, grid: Grid):
        ax = grid.axis()
        p1, p2, p3 = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        p0 = np.sqrt(grid.mu**2 + p1**2 + p2**2 + p3**2)
        self.mu = grid.mu
        self.coords = (p1, p2, p3, p0)
        self.fields: dict[tuple, np.ndarray] = {}
        self.states: dict[tuple[int, int], GridState] = {}
        self.norms: dict[tuple[int, int], float] = {}

    @property
    def inv_p0(self) -> np.ndarray:
        """The 1/p0 weight of the inner product."""
        return self.field((0, 0, 0, 0), 1, 0)

    def field(self, mono: tuple[int, ...], a: int, b: int) -> np.ndarray:
        key = (mono, a, b)
        f = self.fields.get(key)
        if f is None:
            for base, e in zip(self.coords, mono):
                if e:
                    term = base if e == 1 else base**e
                    f = term if f is None else f * term
            p0 = self.coords[3]
            if a:
                f = 1 / p0**a if f is None else f / p0**a
            if b:
                mu_p0 = self.mu + p0
                f = 1 / mu_p0**b if f is None else f / mu_p0**b
            self.fields[key] = f
        return f

    def expand(self, c: Coefficient) -> list[tuple]:
        """c as a list of (basis field, or None for 1; exact scalar)."""
        return [(None if key is None else self.field(*key),
                 complex(s.to_complex()) * self.mu ** e)
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
    w = _meshes(a.grid).inv_p0
    total = sum(
        np.einsum("xyz,xyz,xyz->", np.conj(x), y, w)
        for x, y in zip(_components(a.values), _components(b.values))
    )
    return complex(total) * a.grid.spacing**3


def norm(state: GridState) -> float:
    return _values_norm(state.values, state.grid)


def _values_norm(values: np.ndarray, grid: Grid) -> float:
    """The weighted norm, summed slab by slab (``_slab_rows``) so each
    component is read from memory once for its real and imaginary parts."""
    w = _meshes(grid).inv_p0
    comps = list(_components(values))
    rows = _slab_rows(grid.points)
    total = 0.0
    for a in range(0, grid.points, rows):
        wa = w[a:a + rows]
        for x in comps:
            xa = x[a:a + rows]
            total += (_weighted(xa.real, xa.real, wa)
                      + _weighted(xa.imag, xa.imag, wa))
    return math.sqrt(total * grid.spacing**3)


def sample_gaussian(grid: Grid, center, width: float, spinor) -> GridState:
    """Normalized Gaussian bump times a constant per-block spinor.

    The tail at the nearest boundary face must be below 1e-12 of the
    peak so central differences never touch meaningful boundary data.
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
    g1, g2, g3 = (np.exp(-((ax - c) ** 2) / (2 * width**2)) for c in center)
    bump = g1[:, None, None] * g2[None, :, None] * g3[None, None, :]
    # |bump x spinor|^2 = |bump|^2 |spinor|^2, so normalize the spinor
    n2 = _weighted(bump, bump, _meshes(grid).inv_p0) * grid.spacing**3
    spinor = spinor / math.sqrt(n2 * float(np.vdot(spinor, spinor).real))
    values = _empty_values(blocks, grid.points, dim)
    for b in range(blocks):
        for m in range(dim):
            np.multiply(bump, spinor[b, m], out=values[b, ..., m])
    return GridState(values, grid, SpinWeight(dim - 1), blocks)


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
    and the distinct (field, scalar) pairs its terms use.

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
                        for field, s in mesh.expand(mat[m][n]):
                            s *= step
                            p = None
                            if field is not None:
                                p = index.setdefault((id(field), s),
                                                     len(pairs))
                                if p == len(pairs):
                                    pairs.append((field, s))
                            entries[i][-1].append(
                                (br, m, p, s, k, dst not in written))
                            written.add(dst)
                        last[dst] = i
    return entries, pairs


def _diff_rows(x: np.ndarray, axes: tuple, lo: int, hi: int,
               bufs) -> np.ndarray:
    """Rows lo:hi of the central-difference chain of component x.

    ``axes`` is sorted, so the axis-0 differences come first.  Each reads
    one row beyond its output on either side and zeroes the boundary
    rows 0 and N-1, so the chain starts h rows out (h the number of
    axis-0 differences) and narrows to lo:hi; axis-1 and axis-2
    differences stay within rows.  Differences alternate between the
    two buffers of ``bufs``.
    """
    n = len(x)
    h = axes.count(0)
    cur, r0 = (x, 0) if h else (x[lo:hi], lo)
    for i, axis in enumerate(axes):
        out = bufs[i % 2]
        if axis:
            cur = _central_diff(cur, axis, out[:len(cur)])
            continue
        h -= 1
        w0, w1 = max(lo - h, 0), min(hi + h, n)
        out = out[:w1 - w0]
        i0, i1 = max(w0, 1), min(w1, n - 1)
        np.subtract(cur[i0 + 1 - r0:i1 + 1 - r0], cur[i0 - 1 - r0:i1 - 1 - r0],
                    out=out[i0 - w0:i1 - w0])
        out[:i0 - w0] = 0
        out[i1 - w0:] = 0
        cur, r0 = out, w0
    return cur[lo - r0:hi - r0]


def apply(op: BlockOp, state: GridState, out: np.ndarray | None = None, *,
          add_to: tuple[np.ndarray, complex] | None = None) -> GridState:
    """Apply an exact operator numerically, slab by slab.

    The output is built a few axis-0 rows at a time (``_slab_rows``): for
    each slab the whole plan runs while its rows are in cache, each
    source slab differenced (``_diff_rows``), viewed reflected by
    reading the mirrored rows, and for each term conjugated if antilinear
    and multiplied by the term's scaled field F * s (``_plan``).  F * s is
    computed once per apply for a field that broadcasts along an axis and
    once per slab for a full-size one, for each distinct (field, s).  A
    term without a field is multiplied by its scalar, or copied when that
    is 1.  The first contribution to an output component is written
    straight into it, later ones go through one scratch slab.  A finished
    slab is checked finite while it is still in cache, so the result
    needs no second scan.

    ``out``, if given, is a complex array of the state's shape that does
    not overlap it; the result is written there (components the operator
    does not reach are zeroed), so a caller can reuse the array of a
    state it no longer needs instead of mapping fresh memory.

    ``add_to=(acc, c)`` instead adds c * op(state) onto ``acc``, an array
    of the same kind, and returns the state over ``acc``: each finished
    slab goes into one slab-sized buffer and is added with ``+=`` for
    c == 1, ``-=`` for c == -1, else multiplied by c and then added, the
    same elementwise operations as adding a whole applied state.
    """
    if op.dim != state.spin.dim or op.blocks != state.blocks:
        raise ValueError("operator shape does not match the state")
    g = state.grid
    n = g.points
    if add_to is not None:
        if out is not None:
            raise ValueError("give out or add_to, not both")
        out, c = add_to
    if out is None:
        out = _empty_values(op.blocks, n, op.dim)
    elif (out.shape != state.values.shape or out.dtype != complex
          or np.may_share_memory(out, state.values)):
        raise ValueError("output must be a complex array of the state's "
                         "shape, separate from the state")
    plan, pairs = _plan(op, _meshes(g), g.spacing)
    rows = _slab_rows(n)
    halo = max((entry[2].count(0) for entry in plan), default=0)
    scratch = np.empty((rows, n, n), dtype=complex)
    deriv = [np.empty((rows + 2 * halo, n, n), dtype=complex) for _ in range(2)]
    # F * s: whole if F broadcasts, else a slab buffer filled per slab
    whole = [None if f.shape == (n, n, n) else np.multiply(f, s)
             for f, s in pairs]
    bufs = [np.empty((rows, n, n), dtype=complex) if w is None else None
            for w in whole]
    comps = np.moveaxis(out, -1, 1)  # (blocks, 2s+1, N, N, N), contiguous rows
    # where finished slabs go: the output, or one buffer added onto acc
    target = comps if add_to is None else np.empty(
        (op.blocks, op.dim, rows, n, n), dtype=complex)
    written = {(t[0], t[1]) for *_src, terms in plan for t in terms}
    for br in range(op.blocks):
        for m in range(op.dim):
            if (br, m) not in written:
                target[br, m] = 0
    # the plan with its source components as views, taken once
    sources = [(state.values[bc, ..., col], axes, u, terms)
               for bc, col, axes, u, terms in plan]
    for a in range(0, n, rows):
        b = min(a + rows, n)
        r0 = a if target is comps else 0
        slab = target[:, :, r0:r0 + b - a]
        gs = [np.multiply(f[a:b], s, out=buf[:b - a]) if w is None
              else w if len(w) == 1 else w[a:b]
              for (f, s), w, buf in zip(pairs, whole, bufs)]
        for src, axes, u, terms in sources:
            lo, hi = (n - b, n - a) if u else (a, b)
            x = _diff_rows(src, axes, lo, hi, deriv) if axes else src[lo:hi]
            if u:
                x = x[::-1, ::-1, ::-1]
            for br, m, p, s, k, first in terms:
                dst = slab[br, m]
                into = dst if first else scratch[:b - a]
                term = np.conjugate(x, out=into) if k else x
                if p is not None or s != 1:
                    term = np.multiply(term, s if p is None else gs[p],
                                       out=into)
                if not first:
                    dst += term
                elif term is not dst:
                    np.copyto(dst, term)
        if not np.isfinite(slab.view(float)).all():
            raise ValueError("state contains non-finite entries")
        if target is not comps:
            acc = comps[:, :, a:b]
            if c == 1:
                acc += slab
            elif c == -1:
                acc -= slab
            else:
                slab *= c
                acc += slab
    return GridState._prechecked(out, g, state.spin, state.blocks)


# -- working-set guard ----------------------------------------------------------

# Share of MemAvailable a grid study may plan to fill.
MEMORY_SHARE = 0.5
# State-sized arrays a study may hold at once besides the standard state,
# in states of its largest grid, on every grid: applied states kept, in
# use or free for reuse, and component sums.  Three fit K_a Theta psi in
# Theta*K == K*Theta: the shared Theta psi, the accumulated component and
# the output being built (likewise a commutator's second word).
_LIVE_STATES = 3


def _state_bytes(rep: RepSpec, grid: Grid) -> int:
    return rep.blocks * (rep.two_s + 1) * grid.points**3 * 16


def _scaled_pairs(op: BlockOp) -> set[tuple]:
    """The (field, s) pairs of ``apply``'s plan of op, counted from the
    exact terms as (full size, field key, power of mu, scalar, |alpha|,
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

    Every grid keeps its cached mesh (p0 and the full-size basis fields
    the studied relations' operators use, 8 bytes a point; a field of at
    most two of p1, p2, p3 broadcasts and is not counted) and its
    standard state; the grid being studied adds the arrays of its plan
    (at most _LIVE_STATES states of the largest grid, free arrays kept
    for reuse included), apply's buffers and the temporaries of building
    one field.  apply's buffers are its slabs (scratch, two difference
    buffers with a 1-row halo each side, one scaled-field slab per
    distinct full-size (field, s) pair and the slab that add_to adds from)
    and one scaled copy of each broadcast field, at most N^2 points.
    Against the peak RSS of ``grid`` at N = 32, 64, 128 less that of a
    process that only imports numpy and poincarelab (29 MiB), it reads
    0.2-0.5% low for up, sym3 and quad:+1.
    """
    studied = set(representative_relations(rep))
    names = word_names(r for r in relations(rep) if r.name in studied)
    per_op = [_scaled_pairs(op) for op in operators(rep, names).values()]
    keys = {((0, 0, 0, 1), 0, 0), ((0, 0, 0, 0), 1, 0)}  # p0 and 1/p0
    keys.update(p[1] for pairs in per_op for p in pairs if p[0])
    full = max(sum(p[0] for p in pairs) for pairs in per_op)
    broadcast = max(sum(not p[0] for p in pairs) for pairs in per_op)
    comps = rep.blocks * (rep.two_s + 1)
    live = _LIVE_STATES * max(_state_bytes(rep, g) for g in grids)
    resident, transient = 0, 0
    for g in grids:
        n = g.points
        rows = _slab_rows(n)
        slabs = ((3 + full + comps) * rows + 4 + broadcast) * n * n * 16
        resident += len(keys) * n**3 * 8 + _state_bytes(rep, g)
        transient = max(transient, live + slabs + 2 * n**3 * 8)
    return resident + transient


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


def _shared_words(rel) -> set[str]:
    """The operators every component of rel applies straight to the state."""
    return set.intersection(*({word[-1] for _c, word in comp if word}
                              for comp in rel.components))


def _ordered(rels) -> list[int]:
    """Indices of rels in run order.

    From the first, each next relation is the one whose shared words
    (``_shared_words``) overlap most with those of the relation before,
    the lowest index on a tie: a state that serves every component of a
    relation is the one that can stay across it when the cap is tight.
    So the exchange relations of Theta, then Pi*Theta, then those of Pi
    run together, and each commutator follows one it shares a generator
    with where it can.
    """
    left = list(range(1, len(rels)))
    order = [0] if rels else []
    while left:
        prev = _shared_words(rels[order[-1]])
        i = max(left, key=lambda j: len(_shared_words(rels[j]) & prev))
        left.remove(i)
        order.append(i)
    return order


class _Applied:
    """The words of one plan applied to one state, within a cap of arrays.

    ``words`` lists the word of every term in the order the plan adds
    them.  An applied state is kept from its application until the last
    term whose word ends with it, then dropped.  Arrays are counted in
    ``held`` from allocation on: kept states, states and sums in use, and
    the dropped arrays kept in ``free`` for reuse as outputs.  A new
    array while ``limit`` are held takes the one of the kept state needed
    furthest ahead (Belady's rule), which is applied again when needed.
    ``normed`` maps words whose applied state's norm is wanted to that
    norm, None until the word is first applied.
    """

    def __init__(self, ops, state: GridState, words, limit: int,
                 normed: dict):
        self.ops, self.state, self.limit = ops, state, limit
        self.normed = normed
        self.free: list[np.ndarray] = []
        self.kept: dict[tuple, GridState] = {}
        self.held = 0
        self.pos = 0  # index of the term being added
        self.needs: dict[tuple, deque] = {}
        for pos, word in enumerate(words):
            for i in range(len(word)):
                self.needs.setdefault(word[i:], deque()).append(pos)

    def _next_use(self, word) -> float:
        """Index of the next term after this one whose word ends with word."""
        needs = self.needs[word]
        while needs and needs[0] <= self.pos:
            needs.popleft()
        return needs[0] if needs else math.inf

    def _buffer(self, pinned: GridState) -> np.ndarray | None:
        """A free array for a new state or sum, or None to allocate one."""
        if self.free:
            return self.free.pop()
        if self.held >= self.limit:
            victims = [w for w, st in self.kept.items() if st is not pinned]
            if victims:
                return self.kept.pop(max(victims, key=self._next_use)).values
        self.held += 1
        return None

    def _array_like(self, st: GridState) -> np.ndarray:
        buf = self._buffer(st)
        return np.empty_like(st.values) if buf is None else buf

    def release(self, values: np.ndarray) -> None:
        """Drop an array this plan allocated."""
        self.free.append(values)

    def take(self, word) -> tuple[GridState, bool]:
        """word applied to the state, and whether this was its last use
        (the caller then owns its array)."""
        if not word:
            return self.state, False
        st = self.kept.pop(word, None)
        if st is None:
            arg, owned = self.take(word[1:])
            st = apply(self.ops[word[0]], arg, out=self._buffer(arg))
            if owned:
                self.release(arg.values)
            if word in self.normed and self.normed[word] is None:
                self.normed[word] = _values_norm(st.values, st.grid)
        if self._next_use(word) < math.inf:
            self.kept[word] = st
            return st, False
        return st, True

    def add(self, acc, coeff, word) -> np.ndarray:
        """acc + coeff * (word applied), in place where the arrays allow.

        A term after the first whose word is not kept and has no later
        use has its last operator's output added straight onto acc
        (``apply``'s add_to), so it needs no array of its own.
        """
        if (acc is not None and word and word not in self.kept
                and self._next_use(word) == math.inf):
            arg, owned = self.take(word[1:])
            self.pos += 1
            apply(self.ops[word[0]], arg, add_to=(acc, coeff.to_complex()))
            if owned:
                self.release(arg.values)
            return acc
        st, owned = self.take(word)
        self.pos += 1
        values = st.values
        if acc is None:
            if owned:
                acc = values
            else:
                acc = self._array_like(st)
                np.copyto(acc, values)
            if coeff != ONE:
                acc *= coeff.to_complex()
            return acc
        if coeff == ONE:
            acc += values
        elif coeff == -ONE:
            acc -= values
        elif owned:
            values *= coeff.to_complex()
            acc += values
        else:
            scaled = self._array_like(st)
            np.multiply(values, coeff.to_complex(), out=scaled)
            acc += scaled
            self.release(scaled)
        if owned:
            self.release(values)
        return acc


def _residuals(rep: RepSpec, relation_ids, state: GridState, largest: Grid,
               normed: dict | None = None) -> list[float]:
    """Residual of each relation on one state, from one plan.

    The relations run in ``_ordered`` order over one ``_Applied``, so a
    word shared by several relations is applied once while it can stay:
    the arrays held at once stay within _LIVE_STATES states on the
    ``largest`` grid of the study.  ``normed`` (see ``_Applied``) gets
    the norms of the wanted words the plan applies.
    """
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
    order = _ordered(rels)
    words = [w for i in order for comp in rels[i].components for _c, w in comp]
    limit = _LIVE_STATES * _state_bytes(rep, largest) // state.values.nbytes
    run = _Applied(operators(rep, word_names(rels)), state, words, limit,
                   {} if normed is None else normed)
    base = _state_norm(rep, state)
    out = [0.0] * len(rels)
    for i in order:
        for comp in rels[i].components:
            acc = None
            for coeff, word in comp:
                acc = run.add(acc, coeff, word)
            out[i] = max(out[i], _values_norm(acc, state.grid) / base)
            run.release(acc)
    return out


def residual(rep: RepSpec, relation_id: str, state: GridState) -> float:
    """Relative dnu-norm residual of one relation applied to a state.

    Each word acts right to left.  A suffix shared by several words of
    the relation (Theta psi across the components of an exchange
    relation) is applied once and freed after its last use.  Terms add
    up in the order written, +-1 coefficients as + and -; the worst
    component counts.  Its plan recycles dropped arrays as later
    outputs, as each grid's plan in ``study`` does.
    """
    return _residuals(rep, [relation_id], state, state.grid)[0]


def standard_state(rep: RepSpec, grid: Grid) -> GridState:
    """Deterministic admissible Gaussian used by studies and the cli.

    Built once per (grid, two_s, blocks) and kept read-only on the grid's
    cached mesh with its norm, so every relation of a study shares both
    and they are freed with the mesh.
    """
    states = _meshes(grid).states
    key = (rep.two_s, rep.blocks)
    if key not in states:
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
        state = sample_gaussian(grid, center, width, spinor)
        state.values.flags.writeable = False
        states[key] = state
        _meshes(grid).norms[key] = norm(state)
    return states[key]


def _state_norm(rep: RepSpec, state: GridState) -> float:
    """norm(state), read from the mesh for the grid's standard state."""
    mesh = _meshes(state.grid)
    key = (rep.two_s, rep.blocks)
    if mesh.states.get(key) is state:
        return mesh.norms[key]
    return norm(state)


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
    ``_Applied`` plan (see ``_residuals``), which recycles the arrays of
    dropped states as outputs; then each relation's residuals get a
    slope fit.  Requires at least three grids with spacing roughly
    halving between consecutive entries.  All-tiny residuals are flagged
    exact instead of fitted; tiny residuals on some grids but not all
    have no slope (the log of a zero residual) and fail the study.

    ``defects``, if a dict, receives ``isometry_defect`` of the finest
    grid's standard state, with the norms of Theta psi and Pi psi taken
    from the plan's own states where it applies them.
    """
    grids = _refining(grids)
    largest = max(grids, key=lambda g: g.points)
    normed = {} if defects is None else dict.fromkeys([("Theta",), ("Pi",)])
    per_grid = [_residuals(rep, relation_ids, standard_state(rep, g), largest,
                           normed if g is grids[-1] else None)
                for g in grids]
    if defects is not None:
        defects.update(_isometry(rep, standard_state(rep, grids[-1]), normed))
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
    """Relative norm change under Theta and Pi (0 for exact isometries)."""
    return _isometry(rep, state, {})


def _isometry(rep: RepSpec, state: GridState,
              normed: dict) -> dict[str, float]:
    """``isometry_defect``, reading the norm of Theta psi and Pi psi from
    ``normed`` (keyed by word) where a plan measured it on this state."""
    base = _state_norm(rep, state)
    out = {}
    for name, op in (("Theta", rep.theta), ("Pi", rep.pi)):
        applied = normed.get((name,))
        if applied is None:
            applied = norm(apply(op, state))
        out[name] = abs(applied - base) / base
    return out
