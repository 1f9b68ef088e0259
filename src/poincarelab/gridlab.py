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
p1, p2, p3 or p0 is the mesh array itself.  States store each spin
component as one contiguous block (the array keeps its
(blocks, N, N, N, 2s+1) shape), so stencils, field products and norms
run over contiguous memory.  At N = 128 a spin-1/2 state takes 64 MiB;
on a 2-core Xeon VM a field times a component or a central difference
takes 5-15 ms, and one apply about 40 ms for a multiplication generator
or Theta/Pi and 150 ms for a rotation or boost.

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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .catalog import (
    RepSpec, discrete_relations, operators, relations, word_names,
)
from .exactnum import ONE
from .spin_algebra import SpinWeight
from .symop import BlockOp, Coefficient

EXACT_TOL = 1e-12
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
    p^m / (p0^a (mu+p0)^b), built on first use.
    """

    def __init__(self, grid: Grid):
        ax = grid.axis()
        p1, p2, p3 = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        p0 = np.sqrt(grid.mu**2 + p1**2 + p2**2 + p3**2)
        self.mu = grid.mu
        self.coords = (p1, p2, p3, p0)
        self.fields: dict[tuple, np.ndarray] = {}

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
        out = []
        for m, s in c.num.terms.items():
            scalar = complex(s.to_complex()) * self.mu ** m[0]
            if any(m[1:]) or c.a or c.b:
                out.append((self.field(m[1:], c.a, c.b), scalar))
            else:
                out.append((None, scalar))
        return out


@lru_cache(maxsize=8)
def _meshes(grid: Grid) -> _Mesh:
    return _Mesh(grid)


def _zero_values(blocks: int, points: int, dim: int) -> np.ndarray:
    """Zeroed (blocks, N, N, N, dim) complex array stored spin-major."""
    raw = np.zeros((blocks, dim, points, points, points), dtype=complex)
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
    w = _meshes(grid).inv_p0
    total = sum(
        _weighted(x.real, x.real, w) + _weighted(x.imag, x.imag, w)
        for x in _components(values)
    )
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
    values = _zero_values(blocks, grid.points, dim)
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


def _term_into(buf: np.ndarray, x: np.ndarray, field, s: complex, conj: bool):
    """buf = s * field * conj^k(x), where a field of None stands for 1."""
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


def apply(op: BlockOp, state: GridState) -> GridState:
    """Apply an exact operator numerically.

    A term M d^alpha Y^u C^k acts column by column of M: the source spin
    component n is differenced on the unreflected grid (the stencil
    commutes with C, and with Y up to the sign (-1)^|alpha|), viewed
    reflected, and each coefficient term s * F of M[m][n] adds
    s * F * conj^k(x) to output component m.  The first contribution is
    written straight into the output, later ones go through one scratch
    buffer; differences alternate between two buffers.
    """
    if op.dim != state.spin.dim or op.blocks != state.blocks:
        raise ValueError("operator shape does not match the state")
    g = state.grid
    mesh = _meshes(g)
    out = _zero_values(op.blocks, g.points, op.dim)
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
                        for field, s in mesh.expand(c):
                            if (br, m) in written:
                                _term_into(scratch, x, field, s * step, k)
                                dst += scratch
                            else:
                                _term_into(dst, x, field, s * step, k)
                                written.add((br, m))
    return GridState(out, g, state.spin, state.blocks)


# -- relation residuals ---------------------------------------------------------


def relation_ids(rep: RepSpec) -> list[str]:
    """Every relation of the rep: Lie, discrete and both Casimirs."""
    return [r.name for r in relations(rep)]


def _take(word, live: dict, uses: Counter, ops) -> tuple[GridState, bool]:
    """word applied to live[()], each suffix applied once and kept in live
    until its last use; and whether this was that last use."""
    if word not in live:
        live[word] = apply(ops[word[0]], _take(word[1:], live, uses, ops)[0])
    out = live[word]
    uses[word] -= 1
    if word and not uses[word]:
        del live[word]
        return out, True
    return out, False


def _add_term(acc, coeff, applied: GridState, owned: bool) -> np.ndarray:
    """acc + coeff * applied.values, in place where the arrays allow.

    Kept out of the caller's loop so no term outlives its addition.
    """
    values = applied.values
    if acc is None:
        acc = values if owned else values.copy()
        if coeff != ONE:
            acc *= coeff.to_complex()
    elif coeff == ONE:
        acc += values
    elif coeff == -ONE:
        acc -= values
    elif owned:
        values *= coeff.to_complex()
        acc += values
    else:
        acc += values * coeff.to_complex()
    return acc


def residual(rep: RepSpec, relation_id: str, state: GridState) -> float:
    """Relative dnu-norm residual of one relation applied to a state.

    Each word acts right to left.  A suffix shared by several words of
    the relation (Theta psi across the components of an exchange
    relation) is applied once and freed after its last use.  Terms add
    up in the order written, +-1 coefficients as + and -; the worst
    component counts.
    """
    rel = next((r for r in relations(rep) if r.name == relation_id), None)
    if rel is None:
        raise ValueError(f"unknown relation id: {relation_id}")
    ops = operators(rep, word_names((rel,)))
    words = [word for comp in rel.components for _c, word in comp]
    suffixes = {w[i:] for w in words for i in range(len(w))}
    uses = Counter(words) + Counter(s[1:] for s in suffixes)
    live = {(): state}
    base = norm(state)
    worst = 0.0
    for comp in rel.components:
        acc = None
        for coeff, word in comp:
            acc = _add_term(acc, coeff, *_take(word, live, uses, ops))
        worst = max(worst, _values_norm(acc, state.grid) / base)
    return worst


def standard_state(rep: RepSpec, grid: Grid) -> GridState:
    """Deterministic admissible Gaussian used by studies and the cli."""
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
    return sample_gaussian(grid, center, width, spinor)


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


def convergence_study(rep: RepSpec, relation_id: str, grids) -> NumericReport:
    """Residuals across a refining grid sequence plus a slope fit.

    Requires at least three grids with spacing roughly halving between
    consecutive entries.  All-tiny residuals are flagged exact instead
    of fitted; tiny residuals on some grids but not all have no slope
    (the log of a zero residual) and fail the study.
    """
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
    residuals = []
    for g in grids:
        state = standard_state(rep, g)
        residuals.append(residual(rep, relation_id, state))
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


def representative_relations(rep: RepSpec) -> list[str]:
    """One bracket relation per family plus every discrete relation."""
    heads = [
        "[P1,P2] == 0",
        "[J1,P2] == i*P3",
        "[J1,J2] == i*J3",
        "[J1,K2] == i*K3",
        "[K1,K2] == -i*J3",
        "[K1,P1] == i*P0",
        "[P1,P0] == 0",
        "[J1,P0] == 0",
        "[K1,P0] == i*P1",
    ]
    return heads + [d.name for d in discrete_relations(rep)]


def isometry_defect(rep: RepSpec, state: GridState) -> dict[str, float]:
    """Relative norm change under Theta and Pi (0 for exact isometries)."""
    base = norm(state)
    return {
        "Theta": abs(norm(apply(rep.theta, state)) - base) / base,
        "Pi": abs(norm(apply(rep.pi, state)) - base) / base,
    }
