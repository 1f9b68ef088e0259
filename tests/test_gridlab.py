"""Numeric layer: grid admissibility, the discrete inner product against
an independent Gauss-Legendre quadrature, apply() against hand-rolled
numpy, and convergence studies with frozen slope expectations.
"""

import dataclasses
import gc
import json
import math
import tracemalloc
import warnings
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from oracle_helpers import (
    norm, whole_state_isometry, whole_state_norms, whole_state_residuals,
)

from poincarelab import catalog, gridlab
from poincarelab.cli import main
from poincarelab.exactnum import ONE
from poincarelab.gridlab import (
    EXACT_TOL,
    Grid,
    GridState,
    _meshes,
    apply,
    check_working_set,
    convergence_study,
    inner,
    isometry_defect,
    relation_ids,
    representative_relations,
    residual,
    sample_gaussian,
    standard_state,
    study,
    working_set_bytes,
)
from poincarelab.spin_algebra import SpinWeight
from poincarelab.symop import BlockOp, ScalarOp

L = 4.0
WIDTH = L / 9


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(L, 4)
    with pytest.raises(ValueError):
        Grid(-1.0, 32)
    with pytest.raises(ValueError):
        Grid(math.inf, 32)
    with pytest.raises(ValueError):
        Grid(L, 32, mu=0.0)
    g = Grid(L, 33)
    assert g.spacing == pytest.approx(2 * L / 32)
    assert g.axis()[0] == -L and g.axis()[-1] == L


def test_sample_gaussian_rejects_bad_states():
    g = Grid(L, 32)
    with pytest.raises(ValueError, match="null state"):
        sample_gaussian(g, (0, 0, 0), WIDTH, [[0.0]])
    with pytest.raises(ValueError, match="boundary tail"):
        sample_gaussian(g, (0, 0, 0), 2.5, [[1.0]])
    with pytest.raises(ValueError, match="boundary tail"):
        # peak sitting on a face
        sample_gaussian(g, (L, 0, 0), WIDTH, [[1.0]])
    with pytest.raises(ValueError):
        sample_gaussian(g, (0, 0), WIDTH, [[1.0]])
    with pytest.raises(ValueError):
        sample_gaussian(g, (0, 0, 0), -WIDTH, [[1.0]])


def test_states_are_normalized():
    g = Grid(L, 32)
    st = sample_gaussian(g, (0.2, -0.3, 0.1), WIDTH, [[1.0, 2.0j], [0.5, -1.0]])
    assert norm(st) == pytest.approx(1.0, abs=1e-14)


def _gauss_legendre_norm_sq(grid, center, width, spinor):
    # independent quadrature of int |bump|^2 / p0 over the cube
    x, wt = np.polynomial.legendre.leggauss(80)
    x, wt = x * grid.extent, wt * grid.extent
    X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
    p0 = np.sqrt(grid.mu**2 + X1**2 + X2**2 + X3**2)
    bump2 = np.exp(
        -((X1 - center[0]) ** 2 + (X2 - center[1]) ** 2 + (X3 - center[2]) ** 2)
        / width**2
    )
    weight = float(np.sum(np.abs(np.asarray(spinor)) ** 2))
    return weight * np.einsum("i,j,k,ijk->", wt, wt, wt, bump2 / p0)


@pytest.mark.parametrize("n,tol", [(32, 1e-7), (64, 1e-12)])
def test_inner_product_matches_quadrature(n, tol):
    # the rectangle sum is spectrally accurate for these analytic,
    # boundary-flat integrands, so it should hit quadrature precision
    grid = Grid(L, n)
    center = (L / 12, -L / 15, L / 18)
    spinor = [[1.0, -0.5j], [0.25, 0.75]]
    st = sample_gaussian(grid, center, WIDTH, spinor)
    # recover the normalization constant from the raw bump
    p1 = grid.axis()[:, None, None]
    p2 = grid.axis()[None, :, None]
    p3 = grid.axis()[None, None, :]
    bump = np.exp(
        -((p1 - center[0]) ** 2 + (p2 - center[1]) ** 2 + (p3 - center[2]) ** 2)
        / (2 * WIDTH**2)
    )
    raw = np.einsum("xyz,bm->bxyzm", bump, np.asarray(spinor, dtype=complex))
    scale = raw[0, 16, 16, 16, 0] / st.values[0, 16, 16, 16, 0]
    exact = _gauss_legendre_norm_sq(grid, center, WIDTH, spinor)
    assert abs(scale.real**2 - exact) / exact < tol


def test_inner_conjugate_symmetry_and_positivity():
    g = Grid(L, 24)
    a = sample_gaussian(g, (0.3, -0.2, 0.1), WIDTH, [[1.0, 0.5j]])
    b = sample_gaussian(g, (-0.1, 0.25, -0.3), WIDTH, [[0.5, -1.0]])
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))
    assert inner(a, a).real > 0
    assert abs(inner(a, a).imag) < 1e-15


def test_apply_multiplication_matches_mesh():
    from poincarelab.symop import Coefficient, Poly

    g = Grid(L, 24)
    st = sample_gaussian(g, (0.2, 0.1, -0.3), WIDTH, [[1.0, 2.0]])
    op = BlockOp.single(
        ScalarOp.from_coefficient(Coefficient(Poly.sym("p1")), 2)
    )
    got = apply(op, st)
    ax = g.axis()
    expected = st.values * ax[None, :, None, None, None]
    assert np.allclose(got.values, expected, atol=1e-15)


def test_apply_reflection_and_conjugation_match_numpy():
    g = Grid(L, 24)
    st = sample_gaussian(g, (0.2, 0.1, -0.3), WIDTH, [[1.0 + 0.5j, -2.0]])
    refl = apply(BlockOp.single(ScalarOp.reflection(2)), st)
    assert np.array_equal(refl.values, st.values[:, ::-1, ::-1, ::-1, :])
    conj = apply(BlockOp.single(ScalarOp.conjugation(2)), st)
    assert np.array_equal(conj.values, np.conj(st.values))
    twice = apply(BlockOp.single(ScalarOp.reflection(2)), refl)
    assert np.array_equal(twice.values, st.values)


def _reference_apply(op, state):
    """apply() straight from Coefficient.eval, entry by entry, with
    numpy's own gradient for the derivatives and spin-last arrays."""
    g = state.grid
    ax = g.axis()
    p1, p2, p3 = np.meshgrid(ax, ax, ax, indexing="ij")
    p0 = np.sqrt(g.mu**2 + p1**2 + p2**2 + p3**2)
    out = np.zeros(state.values.shape, dtype=complex)
    for br, row in enumerate(op.entries):
        for bc, sop in enumerate(row):
            for (alpha, u, k), mat in sop.terms.items():
                cur = state.values[bc]
                if k:
                    cur = np.conj(cur)
                if u:
                    cur = cur[::-1, ::-1, ::-1, :]
                for axis in range(3):
                    for _ in range(alpha[axis]):
                        cur = np.gradient(cur, g.spacing, axis=axis)
                        edge = [slice(None)] * 4
                        for plane in (0, -1):
                            edge[axis] = plane
                            cur[tuple(edge)] = 0
                for m in range(sop.dim):
                    for n in range(sop.dim):
                        c = mat[m][n]
                        if not c.is_zero():
                            out[br, ..., m] += c.eval(g.mu, p1, p2, p3, p0) \
                                * cur[..., n]
    return out


@pytest.mark.parametrize("label,two_s", [("up", 1), ("quad:+1", 0)])
def test_apply_matches_coefficient_reference(label, two_s):
    # every generator plus Theta and Pi; up's K entries carry the
    # two-term coefficients (p1 +- i p2)/(mu+p0).  The products put a
    # derivative in front of Y and C in one term.  The state is also
    # given with the spin axis innermost in memory, as a caller might
    rep = catalog.build(label, two_s)
    st = standard_state(rep, Grid(L, 16))
    spin_last = GridState(np.ascontiguousarray(st.values), st.grid, st.spin,
                          st.blocks)
    ops = dict(rep.generators(), Theta=rep.theta, Pi=rep.pi,
               K1Theta=rep.k[0] * rep.theta, J2Pi=rep.j[1] * rep.pi)
    for name, op in ops.items():
        want = _reference_apply(op, st)
        scale = np.abs(want).max()
        assert scale > 0, name
        for state in (st, spin_last):
            got = apply(op, state).values
            assert np.abs(got - want).max() <= 1e-14 * scale, name


_SCALARS = hst.complex_numbers(max_magnitude=4, allow_nan=False,
                               allow_infinity=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(hst.sampled_from([("up", 1), ("sym3", 1), ("quad:+1", 0)]),
       hst.sampled_from(["P0", "P2", "J1", "K3", "Theta", "Pi", "K1Theta",
                         "J2Pi"]),
       hst.integers(0, 2**32 - 1), _SCALARS, _SCALARS)
def test_apply_is_linear_or_antilinear(entry, name, seed, a, b):
    # apply(op, a x + b y) == a' op x + b' op y on random states, with
    # a' = a, b' = b for an operator free of conjugation and a' = conj(a),
    # b' = conj(b) for one whose every term conjugates (Theta or Pi when
    # antiunitary, and products with them)
    rep = catalog.build(*entry)
    ops = dict(rep.generators(), Theta=rep.theta, Pi=rep.pi,
               K1Theta=rep.k[0] * rep.theta, J2Pi=rep.j[1] * rep.pi)
    op = ops[name]
    conj = {k for row in op.entries for sop in row
            for (_al, _u, k) in sop.terms}
    assert conj in ({0}, {1})
    g, spin = Grid(L, 9), SpinWeight(rep.two_s)
    rng = np.random.default_rng(seed)
    shape = (rep.blocks, 9, 9, 9, rep.dim)
    x, y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    ax, ay = (apply(op, GridState(v, g, spin, rep.blocks)).values
              for v in (x, y))
    got = apply(op, GridState(a * x + b * y, g, spin, rep.blocks)).values
    if conj == {1}:
        a, b = np.conj(a), np.conj(b)
    want = a * ax + b * ay
    scale = max(np.abs(a * ax).max(), np.abs(b * ay).max(), 1.0)
    assert np.abs(got - want).max() <= 1e-12 * scale


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def test_field_cache_lives_and_dies_with_the_mesh():
    # the mesh caches no field: each is evaluated on the rows asked for,
    # bit-equal to those rows of the whole field, which is bit-equal to
    # the formula on broadcast coordinates.  What the mesh does cache, a
    # standard state's factors and a state sampled for a caller, is freed
    # with it
    g = Grid(L, 17)
    rep = catalog.build("up", 1)
    mesh = _meshes(g)
    p1, p2, p3 = np.meshgrid(g.axis(), g.axis(), g.axis(), indexing="ij",
                             sparse=True)
    p0 = np.sqrt(g.mu**2 + p1**2 + p2**2 + p3**2)
    formulas = {
        ((0, 0, 0, 1), 0, 0): p0,
        gridlab._INV_P0: 1 / p0**1,
        ((0, 1, 0, 0), 0, 1): p2 / (g.mu + p0)**1,  # K1's spin coupling
        ((1, 0, 0, 0), 0, 1): p1 / (g.mu + p0)**1,
        ((1, 1, 0, 0), 2, 0): p1 * p2 / p0**2,
        ((0, 0, 0, 1), 0, 2): p0 / (g.mu + p0)**2,
        ((1, 0, 0, 0), 0, 0): p1,
        ((0, 0, 1, 0), 0, 0): p3,
    }
    for key, want in formulas.items():
        whole = mesh.field(key)
        assert whole.shape == want.shape == mesh.shape(key), key
        assert np.array_equal(_bits(whole), _bits(want)), key
        for lo, hi in [(0, 1), (5, 9), (8, 9), (16, 17)]:
            rows = want[lo:hi] if len(want) > 1 else want
            assert np.array_equal(_bits(mesh.field(key, lo, hi)),
                                  _bits(rows)), (key, lo, hi)
    residual(rep, "[K1,P1] == i*P0", standard_state(rep, g))
    gridlab._residuals(rep, ["[K1,P1] == i*P0"], gridlab._standard(rep, g))
    cached = weakref.ref(mesh)
    factors = weakref.ref(mesh.gaussians[rep.two_s, rep.blocks])
    state = weakref.ref(mesh.states[rep.two_s, rep.blocks])
    assert set(vars(mesh)) == {"mu", "n", "axes", "gaussians", "states"}
    assert _meshes.cache_info().maxsize == 8
    del mesh
    _meshes.cache_clear()
    gc.collect()
    assert cached() is None and factors() is None and state() is None
    assert _meshes(g).gaussians == {} and _meshes(g).states == {}


def test_standard_state_is_built_once_and_read_only():
    g = Grid(L, 16)
    rep = catalog.build("up", 1)
    st = standard_state(rep, g)
    assert standard_state(catalog.build("up", 1), g) is st
    assert standard_state(catalog.build("up", 0), g) is not st
    assert not st.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        st.values[0, 3, 4, 5, 1] = 0
    before = st.values.tobytes()
    for rid in relation_ids(rep):
        residual(rep, rid, st)
    assert st.values.tobytes() == before


def test_convergence_studies_sample_each_grid_once(monkeypatch):
    # each grid's Gaussian factors are sampled once and shared by every
    # later study on that grid; no study samples a whole state
    _meshes.cache_clear()
    sampled = []
    real = gridlab._gaussian

    def counted(grid, *args):
        sampled.append(grid.points)
        return real(grid, *args)

    def whole(*args):
        raise AssertionError("a study sampled a whole state")

    monkeypatch.setattr(gridlab, "_gaussian", counted)
    monkeypatch.setattr(gridlab._Gaussian, "sample", whole)
    rep = catalog.build("up", 1)
    grids = [Grid(L, n) for n in (16, 32, 64)]
    convergence_study(rep, "[K1,P1] == i*P0", grids)
    assert sampled == [16, 32, 64]
    convergence_study(rep, "Theta*K == K*Theta", grids)
    study(rep, representative_relations(rep), grids, defects={})
    assert sampled == [16, 32, 64]


def _arrays(obj, seen):
    """Every ndarray reachable from obj through attributes and
    containers."""
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float, complex)):
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    else:
        items = list(getattr(obj, "__dict__", {}).values())
    for item in items:
        yield from _arrays(item, seen)


def _live_meshes() -> list[int]:
    """The sizes of the live meshes, each checked to hold the standard
    state's factors and no array of N^3 elements or more."""
    gc.collect()
    sizes = []
    for mesh in [o for o in gc.get_objects() if isinstance(o, gridlab._Mesh)]:
        assert mesh.gaussians and not mesh.states
        assert max(a.size for a in _arrays(mesh, set())) < mesh.n**3
        sizes.append(mesh.n)
    return sorted(sizes)


@pytest.mark.parametrize("label,two_s", [("up", 1), ("sym3", 1)])
def test_cached_meshes_hold_no_grid_sized_array(label, two_s, capsys):
    # a study and the grid subcommand evaluate fields, the 1/p0 weight
    # and the standard state row by row: no mesh they leave cached holds
    # an array of N^3 elements or more
    rep = catalog.build(label, two_s)
    _meshes.cache_clear()
    assert _live_meshes() == []
    study(rep, representative_relations(rep),
          [Grid(L, n) for n in (17, 33, 65)], defects={})
    assert _live_meshes() == [17, 33, 65]
    _meshes.cache_clear()
    # exit 1 is a failed row: N = 16 is too coarse for some slope bands
    assert main(["grid", "--rep", label, "--two-s", str(two_s),
                 "--n", "16,32,64", "--json"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["checks"]
    assert _live_meshes() == [16, 32, 64]


def test_working_set_guard_refuses_oversized_grids():
    rep = catalog.build("up", 1)
    default = [Grid(L, n) for n in (32, 64, 128)]
    big = [Grid(L, n) for n in (32, 64, 1024)]
    need = working_set_bytes(rep, default)
    # no grid keeps a state or a field; the streamed study's arrays peak
    # at about 48 MiB at N = 128, its windows most of them.  At N = 1024
    # the bump and 1/p0 weight of the normalization, 8 GiB each, set it
    assert 50 * 2**20 < need < 75 * 2**20
    assert working_set_bytes(rep, big) == 16 * 2**30
    assert gridlab.memory_budget() is None or gridlab.memory_budget() > 0
    budget = 4 * 2**30
    check_working_set(rep, default, budget)
    check_working_set(rep, big, None)
    with pytest.raises(ValueError, match=r"N = 32, 64, 1024 needs about "
                       r"[\d,]+ MiB of arrays, over the 4,096 MiB budget"):
        check_working_set(rep, big, budget)


def test_grid_state_validates_every_construction():
    g = Grid(L, 16)
    st = standard_state(catalog.build("up", 1), g)
    with pytest.raises(ValueError, match="does not match"):
        GridState(st.values[..., :1], g, st.spin, st.blocks)
    bad = st.values.copy()
    bad[0, 3, 4, 5, 1] = complex(0.0, math.nan)
    with pytest.raises(ValueError, match="non-finite"):
        GridState(bad, g, st.spin, st.blocks)


@pytest.mark.parametrize("pair", [(24, 48), (48, 96)])
def test_derivative_adjoint_defect_is_second_order(pair):
    # adjoint(d1) = -d1 + p1/p0^2 holds exactly in the algebra; on the
    # grid the defect comes from the nonconstant measure and is O(h^2)
    d1 = BlockOp.single(ScalarOp.deriv_op(1, 1))
    adj = d1.adjoint()
    defects = []
    for n in pair:
        g = Grid(L, n)
        a = sample_gaussian(g, (0.3, -0.2, 0.1), WIDTH, [[1.0]])
        b = sample_gaussian(g, (-0.1, 0.25, -0.3), WIDTH, [[0.5 + 0.5j]])
        defects.append(abs(inner(apply(d1, a), b) - inner(a, apply(adj, b))))
    ratio = defects[0] / defects[1]
    assert 3.2 < ratio < 5.0


def test_boost_expectation_is_real_at_rounding_level():
    # the p0 in k cancels the 1/p0 measure, so discrete self-adjointness
    # of the boosts is exact, not merely O(h^2)
    rep = catalog.build("up", 1)
    st = standard_state(rep, Grid(L, 32))
    for name in ("K1", "K2", "K3", "P3", "P0"):
        op = rep.generators()[name]
        assert abs(inner(st, apply(op, st)).imag) < 1e-13


def test_rotation_expectation_defect_is_second_order():
    # the orbital weight p_b/p0 varies along the differentiated axis, so
    # rotations pick up an O(h^2) discrete self-adjointness defect
    rep = catalog.build("up", 1)
    defects = []
    for n in (32, 64):
        st = standard_state(rep, Grid(L, n))
        op = rep.generators()["J2"]
        defects.append(abs(inner(st, apply(op, st)).imag))
    ratio = defects[0] / defects[1]
    assert 3.2 < ratio < 5.0


@pytest.mark.parametrize("rep_of,state_of", [
    (("up", 1), ("up", 0)),  # 2s+1 = 2 against 1
    (("up", 0), ("quad:+1", 0)),  # 1 block against 4
])
def test_plan_rejects_a_state_of_another_shape(rep_of, state_of):
    # a state whose blocks or spin columns differ from the operators'
    # is refused, not read short (an IndexError) or in part (a residual
    # that leaves out the extra blocks)
    rep = catalog.build(*rep_of)
    st = standard_state(catalog.build(*state_of), Grid(L, 16))
    with pytest.raises(ValueError, match="does not match the state"):
        residual(rep, "[K1,P1] == i*P0", st)
    with pytest.raises(ValueError, match="does not match the state"):
        isometry_defect(rep, st)


def test_residual_rejects_unknown_relation(monkeypatch):
    rep = catalog.build("up", 0)
    st = standard_state(rep, Grid(L, 16))
    with pytest.raises(ValueError, match="unknown relation id"):
        residual(rep, "[A,B] == nonsense", st)

    # refused before any row is computed, also after a known id
    def refused(*args, **kwargs):
        raise AssertionError("rows computed before the ids were checked")
    monkeypatch.setattr(gridlab, "apply", refused)
    monkeypatch.setattr(gridlab, "_apply_rows", refused)
    with pytest.raises(ValueError, match="unknown relation id: nonsense"):
        gridlab._residuals(rep, ["[P1,P2] == 0", "nonsense"], st)
    # a square that is no constant has no components to apply
    sym1 = catalog.build("sym1", 0)
    theta = BlockOp.diag([catalog.momentum_op(1, 1), ScalarOp.identity(1)])
    broken = dataclasses.replace(sym1, theta=theta)
    with pytest.raises(ValueError, match="nothing to evaluate"):
        residual(broken, "Theta^2 == c", standard_state(broken, Grid(L, 16)))


def test_relation_ids_cover_lie_and_discrete():
    rep = catalog.build("sym3", 1)
    ids = relation_ids(rep)
    assert "[K1,K2] == -i*J3" in ids
    assert "Theta^2 == 1" in ids
    assert len([i for i in ids if i.startswith("[")]) == 45


def test_relation_ids_list_the_whole_table():
    rep = catalog.build("up", 1)
    ids = relation_ids(rep)
    assert ids == [r.name for r in catalog.relations(rep)]
    assert ids[-2:] == ["P0^2 - P.P == mu^2", "W.W == -3/4*mu^2"]


@pytest.mark.parametrize("label,two_s", [("up", 1), ("quad:+1", 0)])
def test_mass_casimir_is_exact_on_the_grid(label, two_s):
    rep = catalog.build(label, two_s)
    st = standard_state(rep, Grid(L, 16))
    assert residual(rep, "P0^2 - P.P == mu^2", st) < EXACT_TOL


def _record_words(monkeypatch):
    """Record the rows of each word the row kernel computes, by grid
    size and word; an apply outside a plan records its word as (None,)."""
    seen = defaultdict(list)
    real = gridlab._apply_rows

    def counted(kernel, bufs, src, lo, hi, out, c=None):
        seen[kernel.n, (kernel.name,) + src.word].append((lo, hi))
        return real(kernel, bufs, src, lo, hi, out, c)

    monkeypatch.setattr(gridlab, "_apply_rows", counted)
    return seen


def _every_row_once(ranges, n) -> bool:
    return sorted(i for lo, hi in ranges for i in range(lo, hi)) == list(
        range(n))


def _words(rep, rids):
    """Every distinct nonempty suffix of the words of the relations."""
    return {w[i:] for rel in catalog.relations(rep) if rel.name in rids
            for comp in rel.components for _c, w in comp
            for i in range(len(w))}


def test_residual_applies_shared_suffixes_once(monkeypatch):
    # Theta*K == K*Theta: Theta psi once, then K_a psi, Theta K_a psi and
    # K_a Theta psi for each of the three components, each on every row
    # once; bit for bit the whole-state evaluation
    rep = catalog.build("up", 1)
    st = standard_state(rep, Grid(L, 16))
    rid = "Theta*K == K*Theta"
    want = whole_state_residuals(rep, [rid], st)[0]
    seen = _record_words(monkeypatch)
    got = residual(rep, rid, st)
    assert set(w for _n, w in seen) == _words(rep, [rid])
    assert len(seen) == 10
    assert sum(w[0] == "Theta" for _n, w in seen) == 4
    assert all(_every_row_once(r, 16) for r in seen.values())
    assert got.hex() == want.hex()


@pytest.mark.parametrize("label,two_s", [("up", 1), ("sym3", 1),
                                         ("quad:+1", 0)])
def test_streamed_plan_computes_each_word_once(label, two_s, monkeypatch):
    # odd N: each middle row is its own mirror; at N = 65 a slab is 3
    # rows, so the norm slabs of the far half straddle two levels
    _meshes.cache_clear()
    rep = catalog.build(label, two_s)
    rids = representative_relations(rep)
    grids = [Grid(L, n) for n in (17, 33, 65)]
    assert [gridlab._slab_rows(g.points) for g in grids] == [56, 15, 3]
    seen = _record_words(monkeypatch)
    tracemalloc.start()
    try:
        got = study(rep, rids, grids, defects={})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the guard's estimate bounds every array the study allocates, from
    # cold caches
    assert peak <= working_set_bytes(rep, grids)
    # every distinct word computed once per grid, on every row once; the
    # isometry rows read Theta psi and Pi psi from the plan
    words = _words(rep, rids)
    for g in grids:
        assert {w for n, w in seen if n == g.points} == words
        assert all(_every_row_once(seen[g.points, w], g.points)
                   for w in words)
    assert len(seen) == 3 * len(words)
    # bit for bit: each relation alone and the whole-state oracle
    for i, g in enumerate(grids[:2]):
        st = standard_state(rep, g)
        want = [r.residuals[i] for r in got]
        assert [residual(rep, rid, st) for rid in rids] == want
        assert whole_state_residuals(rep, rids, st) == want


@pytest.mark.parametrize("points", [17, 33])
def test_streamed_plan_on_a_non_standard_state(points):
    # any state through residual and isometry_defect, also with the spin
    # axis innermost in memory, gives the whole-state evaluation bit for
    # bit, and the plan reads the caller's values without writing them
    rep = catalog.build("up", 1)
    g = Grid(L, points)
    st = sample_gaussian(g, (0.3, -0.2, 0.25), L / 10,
                         [[0.5 - 1.0j, 0.25 + 0.1j]])
    spin_last = GridState(np.ascontiguousarray(st.values), g, st.spin,
                          st.blocks)
    assert spin_last.values.strides[-1] == 16
    rids = representative_relations(rep) + ["W.W == -3/4*mu^2"]
    want = whole_state_residuals(rep, rids, st)
    defects = {k: v.hex() for k, v in whole_state_isometry(rep, st).items()}
    for state in (st, spin_last):
        before = state.values.tobytes()
        assert [residual(rep, rid, state) for rid in rids] == want
        assert {k: v.hex() for k, v in
                isometry_defect(rep, state).items()} == defects
        assert state.values.tobytes() == before


def test_streamed_plan_reads_ahead_along_chained_halos(monkeypatch):
    # K1 J2 P1 psi chains two stencils one row deep along axis 0, so
    # J2 P1 psi runs one level ahead of its reader and P1 psi two; Theta
    # reads a word mirrored, K1 reads Theta P1 psi through its stencil.
    # The W_a are multiplications on the grid (their orbital parts
    # cancel), so W.W reads no halo.  At N = 65 (3-row slabs, 11 levels)
    # the plan matches the whole-state evaluation bit for bit
    rep = catalog.build("up", 1)
    st = standard_state(rep, Grid(L, 65))
    rid = "W.W == -3/4*mu^2"
    assert residual(rep, rid, st) == whole_state_residuals(rep, [rid], st)[0]
    comps = [((ONE, ("K1", "J2", "P1")), (-ONE, ("J2", "K1", "P1"))),
             ((ONE, ("Theta", "K1", "J2", "P1")), (ONE, ("K1", "Theta", "P1")),
              (-ONE, ("W2", "W2")))]
    ops = catalog.operators(rep, {"W0"})
    halos = {name: gridlab._halo(op) for name, op in ops.items()}
    order, direct = gridlab._word_graph(comps, halos, gridlab._slab_rows(65),
                                        {})
    lead = {w.word: w.lead for w in order}
    assert lead[("P1",)] == 2 and lead[("W2",)] == 0
    assert lead[("J2", "P1")] == lead[("K1", "P1")] == 1
    assert lead[("Theta", "P1")] == 1
    assert direct == {("J2", "K1", "P1"), ("Theta", "K1", "J2", "P1"),
                      ("K1", "Theta", "P1"), ("W2", "W2")}
    seen = _record_words(monkeypatch)
    got = gridlab._stream(ops, st, comps, {})
    assert len(seen) == len(order) == 10
    assert all(_every_row_once(r, 65) for r in seen.values())
    assert got == whole_state_norms(ops, st, comps)


def test_convergence_study_input_validation():
    rep = catalog.build("up", 0)
    with pytest.raises(ValueError, match="at least three"):
        convergence_study(rep, "[P1,P2] == 0", [Grid(L, 16), Grid(L, 32)])
    with pytest.raises(ValueError, match="spacing ratio"):
        convergence_study(
            rep, "[P1,P2] == 0", [Grid(L, 32), Grid(L, 64), Grid(L, 96)]
        )


def test_exact_relations_hit_rounding_level():
    # at two_s = 1 the antiunitary square flips sign, so take the name
    # from the catalog instead of hardcoding it
    rep = catalog.build("up", 1)
    theta_sq = next(i for i in relation_ids(rep) if i.startswith("Theta^2"))
    assert theta_sq == "Theta^2 == -1"
    grids = [Grid(L, n) for n in (16, 32, 64)]
    for rid in ("[P1,P2] == 0", "[P1,P0] == 0", theta_sq,
                "Pi*P == -P*Pi"):
        rep_fresh = catalog.build("up", 1)
        r = convergence_study(rep_fresh, rid, grids)
        assert r.exact and r.ok and r.slope is None
        assert max(r.residuals) < EXACT_TOL


@pytest.mark.parametrize("rid", ["[K1,P1] == i*P0", "[J1,P2] == i*P3"])
def test_derivative_relations_converge_at_stencil_order(rid):
    rep = catalog.build("up", 1)
    grids = [Grid(L, n) for n in (16, 32, 64)]
    r = convergence_study(rep, rid, grids)
    assert not r.exact
    assert r.ok
    assert 1.7 < r.slope < 2.3


@pytest.mark.parametrize("table,zero_sizes", [
    ({16: 0.0, 32: 3e-3, 64: 8e-4}, "16"),
    ({16: 2e-2, 32: 4e-15, 64: 0.0}, "32, 64"),
])
def test_mixed_zero_residuals_fail_without_a_slope(monkeypatch, table,
                                                   zero_sizes):
    # a zero residual among nonzero ones has no log: no slope, not ok
    monkeypatch.setattr(gridlab, "_standard", lambda rep, g: g)
    monkeypatch.setattr(gridlab, "_residuals",
                        lambda rep, rids, g, *plan: [table[g.points]])
    grids = [Grid(L, n) for n in (16, 32, 64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = convergence_study(None, "[K1,P1] == i*P0", grids)
    assert not r.exact and not r.ok and r.slope is None
    assert r.detail().startswith(
        f"no slope: zero residual at N = {zero_sizes},")
    assert r.as_dict()["slope"] is None


def test_report_as_dict_shape():
    rep = catalog.build("down", 0)
    grids = [Grid(L, n) for n in (16, 32, 64)]
    r = convergence_study(rep, "[P1,P2] == 0", grids)
    d = r.as_dict()
    assert set(d) == {"relation", "sizes", "spacings", "residuals",
                      "slope", "exact", "ok"}
    assert d["sizes"] == [16, 32, 64]
    assert d["exact"] is True


def test_representative_relations_cover_every_family():
    rep = catalog.build("sym1", 1)
    reps = representative_relations(rep)
    heads = [r for r in reps if r.startswith("[")]
    assert len(heads) == 9
    assert "Pi*Theta == Theta*Pi" in reps


def test_representative_relations_are_frozen():
    # the grid subcommand's rows; Casimirs are not among them
    assert representative_relations(catalog.build("up", 1)) == [
        "[P1,P2] == 0", "[J1,P2] == i*P3", "[J1,J2] == i*J3",
        "[J1,K2] == i*K3", "[K1,K2] == -i*J3", "[K1,P1] == i*P0",
        "[P1,P0] == 0", "[J1,P0] == 0", "[K1,P0] == i*P1",
        "Theta*P0 == P0*Theta", "Theta*P == -P*Theta", "Theta*J == -J*Theta",
        "Theta*K == K*Theta", "Theta^2 == -1", "Pi*P0 == P0*Pi",
        "Pi*P == -P*Pi", "Pi*J == J*Pi", "Pi*K == -K*Pi", "Pi^2 == 1",
        "Pi*Theta == Theta*Pi",
    ]


def test_isometry_defect_is_tiny():
    rep = catalog.build("newup:symplectic", 0)
    st = standard_state(rep, Grid(L, 32))
    d = isometry_defect(rep, st)
    assert set(d) == {"Theta", "Pi"}
    assert all(v < 1e-14 for v in d.values())


def test_isometry_rows_come_from_the_plan(monkeypatch):
    # study's defects take the norms of the plan's own Theta psi and
    # Pi psi on the finest grid: bit for bit isometry_defect on the same
    # state, without an apply of their own, also when the study's
    # relations never apply Theta or Pi: the plan computes them then
    rep = catalog.build("up", 1)
    grids = [Grid(L, n) for n in (16, 32, 64)]
    st = standard_state(rep, grids[-1])
    before = st.values.tobytes()
    want = isometry_defect(rep, st)
    assert st.values.tobytes() == before
    # the plan against the whole-state oracle, which shares no code path
    # with it but the row kernel and the slab norm
    assert {k: v.hex() for k, v in want.items()} == {
        k: v.hex() for k, v in whole_state_isometry(rep, st).items()}
    calls = Counter()
    real_apply = gridlab.apply

    def counted(op, state, **kwargs):
        calls[op is rep.theta or op is rep.pi, state.grid.points] += 1
        return real_apply(op, state, **kwargs)

    monkeypatch.setattr(gridlab, "apply", counted)
    rids = representative_relations(rep)
    plain = study(rep, rids, grids)
    plain_calls = dict(calls)
    calls.clear()
    defects = {}
    assert study(rep, rids, grids, defects=defects) == plain
    assert calls == plain_calls
    assert {k: v.hex() for k, v in defects.items()} == {
        k: v.hex() for k, v in want.items()}
    calls.clear()
    defects = {}
    study(rep, ["[P1,P2] == 0"], grids, defects=defects)
    assert {k: v.hex() for k, v in defects.items()} == {
        k: v.hex() for k, v in want.items()}
    assert calls[True, 64] == 0 and calls[True, 32] == 0
