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
    apply,
    convergence_study,
    inner,
    isometry_defect,
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
    # mu squared underflows: p0 = 0 at the p = 0 of an odd N, not of an
    # even one, and a subnormal mu squared keeps p0 positive
    with pytest.raises(ValueError, match="p0 is 0 at p = 0"):
        Grid(L, 33, mu=1e-200)
    Grid(L, 32, mu=1e-200)
    Grid(L, 33, mu=1e-160)
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
    op = BlockOp([[ScalarOp.from_coefficient(Coefficient(Poly.sym("p1")), 2)]])
    got = apply(op, st)
    ax = g.axis()
    expected = st.values * ax[None, :, None, None, None]
    assert np.allclose(got.values, expected, atol=1e-15)


def test_apply_reflection_and_conjugation_match_numpy():
    from poincarelab.symop import Coefficient

    g = Grid(L, 24)
    st = sample_gaussian(g, (0.2, 0.1, -0.3), WIDTH, [[1.0 + 0.5j, -2.0]])
    refl = apply(BlockOp([[ScalarOp.reflection(2)]]), st)
    assert np.array_equal(refl.values, st.values[:, ::-1, ::-1, ::-1, :])
    conjugation = ScalarOp.term(Coefficient.const(1), ((0, 0, 0), 0, 1), 2)
    conj = apply(BlockOp([[conjugation]]), st)
    assert np.array_equal(conj.values, np.conj(st.values))
    twice = apply(BlockOp([[ScalarOp.reflection(2)]]), refl)
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


def test_mesh_fields_are_bit_equal_on_any_rows():
    # each field is evaluated on the rows asked for, bit-equal to those
    # rows of the whole field, which is bit-equal to the formula on
    # broadcast coordinates; the mesh keeps none of them, only its axes
    g = Grid(L, 17)
    mesh = gridlab._Mesh(g)
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
    assert set(vars(mesh)) == {"grid", "mu", "n", "axes"}


def test_residual_leaves_a_writable_state_unchanged():
    # standard_state samples a new state the caller owns, writable; the
    # plan reads its rows and writes none of them
    g = Grid(L, 16)
    rep = catalog.build("up", 1)
    st = standard_state(rep, g)
    again = standard_state(rep, g)
    assert again is not st and again.values is not st.values
    assert again.values.tobytes() == st.values.tobytes()
    assert st.values.flags.writeable
    before = st.values.tobytes()
    for rel in catalog.relations(rep):
        residual(rep, rel.name, st)
    isometry_defect(rep, st)
    assert st.values.tobytes() == before


def test_convergence_studies_sample_each_grid_once(monkeypatch):
    # no study samples a whole state: each grid's standard state is
    # evaluated row by row as its plan goes, every row once per study
    sampled = defaultdict(list)
    real = gridlab._Gaussian.rows

    def counted(self, lo, hi, out):
        sampled[self.grid.points].append((lo, hi))
        return real(self, lo, hi, out)

    def whole(*args):
        raise AssertionError("a study sampled a whole state")

    monkeypatch.setattr(gridlab._Gaussian, "rows", counted)
    monkeypatch.setattr(gridlab._Gaussian, "sample", whole)
    rep = catalog.build("up", 1)
    grids = [Grid(L, n) for n in (16, 32, 64)]
    for run in (lambda: convergence_study(rep, "[K1,P1] == i*P0", grids),
                lambda: convergence_study(rep, "Theta*K == K*Theta", grids),
                lambda: study(rep, representative_relations(rep), grids,
                              defects={})):
        sampled.clear()
        run()
        assert sorted(sampled) == [16, 32, 64]
        assert all(_every_row_once(r, n) for n, r in sampled.items())


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
    """The sizes of the live meshes, each checked to hold no array of
    N^3 elements or more."""
    gc.collect()
    sizes = []
    for mesh in [o for o in gc.get_objects() if isinstance(o, gridlab._Mesh)]:
        assert max((a.size for a in _arrays(mesh, set())),
                   default=0) < mesh.n**3
        sizes.append(mesh.n)
    return sorted(sizes)


@pytest.mark.parametrize("label,two_s", [("up", 1), ("sym3", 1)])
def test_study_and_grid_leave_no_mesh_alive(label, two_s, capsys):
    # each plan makes its own mesh and drops it, with the fields, weights
    # and slabs made on it, when it returns: no mesh outlives a study or
    # the grid subcommand
    rep = catalog.build(label, two_s)
    assert _live_meshes() == []
    study(rep, representative_relations(rep),
          [Grid(L, n) for n in (17, 33, 65)], defects={})
    assert _live_meshes() == []
    # exit 1 is a failed row: N = 16 is too coarse for some slope bands
    assert main(["grid", "--rep", label, "--two-s", str(two_s),
                 "--n", "16,32,64", "--json"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["checks"]
    assert _live_meshes() == []


def test_standard_state_factors_make_no_grid_sized_array():
    # a study's state is its Gaussian factors, three exponentials of N
    # points and the spinor: a cold _standard at N = 128 traces well
    # under 1 MiB (32.3 MiB when it normalized the state on every row)
    rep = catalog.build("up", 1)
    tracemalloc.start()
    try:
        gauss = gridlab._standard(rep, Grid(L, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(f) for f in gauss.factors] == [128] * 3
    assert peak < 2**20


def test_working_set_bytes_of_default_and_oversized_grids():
    rep = catalog.build("up", 1)
    default = [Grid(L, n) for n in (32, 64, 128)]
    big = [Grid(L, n) for n in (32, 64, 1024)]
    need = working_set_bytes(rep, default)
    # no grid keeps a state or a field, and no study makes an array of
    # the grid's size; the streamed study's arrays peak at about 32.0 MiB
    # at N = 128, its windows most of them, and at about 2.3 GiB at
    # N = 1024 (2.8 GiB when Theta psi and Pi psi were stored words and
    # a broadcast plane was a contiguous (1, N, N) copy, 3.9 GiB when
    # each range's bank held both signs of a pair, complex slabs for real
    # pairs and its basis fields), which the grid command refuses under a
    # 2 GiB budget (test_cli.py)
    assert 33 * 2**20 < need < 60 * 2**20
    assert working_set_bytes(rep, big) == 2_483_150_848


def test_working_set_guard_allocates_nothing_of_the_grids_size():
    # the estimate lays the plan out on a mesh that makes no axis, so at
    # N = 10^6 (an axis of 8 MB, an N^3 grid of 10^18 points) it traces
    # about 0.1 MiB of allocations; four arrays of N points (30.6 MiB)
    # when the mesh made its axes up front
    rep = catalog.build("up", 1)
    grids = [Grid(L, n) for n in (32, 64, 10**6)]
    tracemalloc.start()
    try:
        need = working_set_bytes(rep, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need > 4 * 2**30
    assert peak < 2**20


def test_grid_state_validates_every_construction():
    g = Grid(L, 16)
    st = standard_state(catalog.build("up", 1), g)
    with pytest.raises(ValueError, match="does not match"):
        GridState(st.values[..., :1], g, st.spin, st.blocks)
    bad = st.values.copy()
    bad[0, 3, 4, 5, 1] = complex(0.0, math.nan)
    with pytest.raises(ValueError, match="non-finite"):
        GridState(bad, g, st.spin, st.blocks)


def test_finite_scan_of_a_grid_state_makes_no_state_sized_mask():
    # GridState scans a slab of rows at a time: at N = 128 a state of
    # two components (64 MiB) is checked having traced well under 1 MiB,
    # where a mask of the whole state took 4 MiB; a non-finite entry in
    # the last slab is still found
    n = 128
    values = np.moveaxis(np.zeros((1, 2, n, n, n), dtype=complex), 1, -1)
    tracemalloc.start()
    try:
        GridState(values, Grid(L, n), SpinWeight(1), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    values[0, n - 1, 5, 6, 1] = complex(math.inf, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        GridState(values, Grid(L, n), SpinWeight(1), 1)


@pytest.mark.parametrize("pair", [(24, 48), (48, 96)])
def test_derivative_adjoint_defect_is_second_order(pair):
    # adjoint(d1) = -d1 + p1/p0^2 holds exactly in the algebra; on the
    # grid the defect comes from the nonconstant measure and is O(h^2)
    d1 = BlockOp([[ScalarOp.deriv_op(1, 1)]])
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
    ids = [r.name for r in catalog.relations(rep)]
    assert "[K1,K2] == -i*J3" in ids
    assert "Theta^2 == 1" in ids
    assert len([i for i in ids if i.startswith("[")]) == 45


def test_relation_ids_list_the_whole_table():
    rep = catalog.build("up", 1)
    ids = [r.name for r in catalog.relations(rep)]
    assert ids[:45] == [r.name for r in catalog.LIE_RELATIONS]
    assert ids[-2:] == ["P0^2 - P.P == mu^2", "W.W == -3/4*mu^2"]


@pytest.mark.parametrize("label,two_s", [("up", 1), ("quad:+1", 0)])
def test_mass_casimir_is_exact_on_the_grid(label, two_s):
    rep = catalog.build(label, two_s)
    st = standard_state(rep, Grid(L, 16))
    assert residual(rep, "P0^2 - P.P == mu^2", st) < EXACT_TOL


def _plan_names(monkeypatch) -> dict:
    """Map the id of each plan a layout makes to the head the layout
    gives it (``_Layout.plans``): the operators its kernel runs, the
    outermost and those it reads through.  The plans are kept alive, so
    no id is reused."""
    names, kept = {}, []

    class Named(gridlab._Layout):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self.plans)
            names.update((id(plan), head) for head, plan in self.plans.items())

    monkeypatch.setattr(gridlab, "_Layout", Named)
    return names


def _record_words(monkeypatch):
    """Record the rows of each word the row kernel computes, by grid
    size and word (the kernel's head and the word it reads); an apply
    outside a plan records its word as (None,)."""
    seen = defaultdict(list)
    real, names = gridlab._apply_rows, _plan_names(monkeypatch)

    def counted(plan, bufs, src, lo, hi, out):
        seen[bufs.mesh.n, names.get(id(plan), (None,)) + src.word].append(
            (lo, hi))
        return real(plan, bufs, src, lo, hi, out)

    monkeypatch.setattr(gridlab, "_apply_rows", counted)
    return seen


def _every_row_once(ranges, n) -> bool:
    return sorted(i for lo, hi in ranges for i in range(lo, hi)) == list(
        range(n))


# The operators a kernel reads through on every catalog entry
# (test_streamed_plan_stores_no_folded_word): no word they begin is
# computed for a reader, only as a term.
_FOLDED = {"Theta", "Pi"}


def _words(rep, rids):
    """The words a plan of the relations computes: every nonempty term,
    and every suffix of one that a kernel reads, those not begun by Theta
    or Pi."""
    terms = {w for rel in catalog.relations(rep) if rel.name in rids
             for comp in rel.components for _c, w in comp if w}
    return terms | {w[i:] for w in terms for i in range(1, len(w))
                    if w[i] not in _FOLDED}


def test_residual_applies_shared_suffixes_once(monkeypatch):
    # Theta*K == K*Theta: K_a psi, Theta K_a psi and K_a Theta psi for
    # each of the three components, each on every row once, K_a Theta psi
    # read from the state's rows through Theta, so Theta psi is never
    # made; bit for bit the whole-state evaluation
    rep = catalog.build("up", 1)
    st = standard_state(rep, Grid(L, 16))
    rid = "Theta*K == K*Theta"
    want = whole_state_residuals(rep, [rid], st)[0]
    seen = _record_words(monkeypatch)
    got = residual(rep, rid, st)
    assert set(w for _n, w in seen) == _words(rep, [rid])
    assert len(seen) == 9
    assert sum(w[0] == "Theta" for _n, w in seen) == 3
    assert (16, ("Theta",)) not in seen
    assert all(_every_row_once(r, 16) for r in seen.values())
    assert got.hex() == want.hex()


@pytest.mark.parametrize("label,two_s", [("up", 1), ("sym3", 1),
                                         ("quad:+1", 0)])
def test_streamed_plan_computes_each_word_once(label, two_s, monkeypatch):
    # odd N: each middle row is its own mirror; at N = 65 a slab is 3
    # rows, so each far-half range of a level is cut in two at a slab
    # boundary before its norm partials are taken
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
    # finest grid's isometry rows make Theta psi and Pi psi, each a
    # component of one term
    words = _words(rep, rids)
    for g in grids:
        want = words | {("Theta",), ("Pi",)} if g is grids[-1] else words
        assert {w for n, w in seen if n == g.points} == want
        assert all(_every_row_once(seen[g.points, w], g.points)
                   for w in want)
    assert len(seen) == 3 * len(words) + len({("Theta",), ("Pi",)} - words)
    # bit for bit: each relation alone and the whole-state oracle
    for i, g in enumerate(grids[:2]):
        st = standard_state(rep, g)
        want = [r.residuals[i] for r in got]
        assert [residual(rep, rid, st) for rid in rids] == want
        assert whole_state_residuals(rep, rids, st) == want


def test_streamed_plan_stores_no_folded_word(monkeypatch):
    # on every catalog entry at two_s <= 1, Theta and Pi are the operators
    # a kernel reads through (constant monomials: a reflection, a
    # conjugation, a spin permutation and signs) and no generator is, so
    # no word a study's plan stores begins with Theta or Pi; the isometry
    # rows, whose Theta psi and Pi psi go straight into their norms,
    # equal isometry_defect's bit for bit
    grids = [Grid(L, n) for n in (17, 33, 65)]
    made = []

    class Recorded(gridlab._Layout):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(gridlab, "_Layout", Recorded)
    for two_s in (0, 1):
        for label in catalog.catalog_labels(two_s):
            rep = catalog.build(label, two_s)
            ops = catalog.operators(rep, ())
            assert {name for name, op in ops.items()
                    if gridlab._monomial(op) is not None} == _FOLDED, label
            made.clear()
            defects = {}
            study(rep, representative_relations(rep), grids, defects=defects)
            assert len(made) == len(grids)
            assert not {w.word[0] for lay in made
                        for w in lay.stored[1:]} & _FOLDED, label
            want = isometry_defect(rep, standard_state(rep, grids[-1]))
            assert {k: v.hex() for k, v in defects.items()} == {
                k: v.hex() for k, v in want.items()}, label


def test_streamed_plan_norms_keep_no_rows():
    # a norm takes its partials as each range of rows is made and keeps
    # none of them: at N = 48 the 7-row slabs do not tile the levels, and
    # a cold study peaked at 55.0 MiB (tracemalloc) when every
    # component's norm held a level of its rows until its slabs were whole
    rep = catalog.build("up", 1)
    rids = representative_relations(rep)
    grids = [Grid(L, n) for n in (24, 48, 96)]
    assert 48 % gridlab._slab_rows(48)
    tracemalloc.start()
    try:
        study(rep, rids, grids, defects={})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 35.3 MiB; 40.4 MiB with the banks of two signs and complex slabs
    # for real pairs
    assert peak < 36 * 2**20


def test_streamed_plan_cold_peak_at_the_default_grids():
    # a cold study of up 2s=1 on the default grids traces 32.0 MiB: Theta
    # and Pi are read through, so no window holds Theta psi or Pi psi,
    # and a broadcast plane keeps its own shape (39.5 MiB before); each
    # range's bank holds one slab per field and canonical scale, float64
    # where the scale is real, and no basis field (47.2 MiB before that)
    rep = catalog.build("up", 1)
    grids = [Grid(L, n) for n in (32, 64, 128)]
    tracemalloc.start()
    try:
        study(rep, representative_relations(rep), grids, defects={})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 33 * 2**20
    assert peak <= working_set_bytes(rep, grids)


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
    # reads a word mirrored, K1 reads P1 psi through Theta and its own
    # stencil, so Theta P1 psi is never made.
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
    layout = gridlab._Layout(ops, comps, st.grid, gridlab._Mesh(st.grid))
    order, direct = layout.order, layout.direct
    lead = {w.word: w.lead for w in order}
    assert lead[("P1",)] == 2 and lead[("W2",)] == 0
    assert lead[("J2", "P1")] == lead[("K1", "P1")] == 1
    assert ("Theta", "P1") not in layout.words
    folded = layout.words["K1", "Theta", "P1"]
    assert (folded.head, folded.src) == (("K1", "Theta"), ("P1",))
    assert direct == {("J2", "K1", "P1"), ("Theta", "K1", "J2", "P1"),
                      ("K1", "Theta", "P1"), ("W2", "W2")}
    seen = _record_words(monkeypatch)
    got = gridlab._stream(ops, st, comps)
    assert len(seen) == len(order) == 9
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
    theta_sq = next(r.name for r in catalog.relations(rep)
                    if r.name.startswith("Theta^2"))
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


def test_report_fields():
    rep = catalog.build("down", 0)
    grids = [Grid(L, n) for n in (16, 32, 64)]
    r = convergence_study(rep, "[P1,P2] == 0", grids)
    assert r.relation == "[P1,P2] == 0"
    assert r.sizes == (16, 32, 64)
    assert r.spacings == tuple(g.spacing for g in grids)
    assert len(r.residuals) == 3
    assert r.exact is True and r.ok is True and r.slope is None


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


def test_isometry_rows_tell_theta_from_pi(monkeypatch, capsys):
    # on the catalog's specs Theta and Pi are index reversals or
    # conjugations on the grid, so their two defects are bit-equal; with
    # Theta doubled only the Theta row moves, to |2 Theta psi| / |psi| - 1
    # = 1, through isometry_defect, a study's defects and grid --json
    rep = catalog.build("up", 1)
    doubled = dataclasses.replace(rep, theta=rep.theta.scale(2))
    grids = [Grid(L, n) for n in (16, 32, 64)]
    got = isometry_defect(doubled, standard_state(rep, grids[-1]))
    assert got["Theta"] == pytest.approx(1, abs=1e-14)
    assert got["Pi"] < 1e-14
    defects = {}
    study(doubled, ["[P1,P2] == 0"], grids, defects=defects)
    assert defects == got
    monkeypatch.setattr(catalog, "build", lambda label, two_s: doubled)
    assert main(["grid", "--rep", "up", "--two-s", "1", "--n", "16,32,64",
                 "--json"]) == 1
    rows = {c["name"]: c for c in
            json.loads(capsys.readouterr().out)["checks"]}
    assert rows["Theta norm preservation"]["status"] == "fail"
    assert rows["Theta norm preservation"]["detail"] == (
        f"relative defect {got['Theta']:.3e}")
    assert rows["Pi norm preservation"]["status"] == "pass"
    assert rows["Pi norm preservation"]["detail"] == (
        f"relative defect {got['Pi']:.3e}")


def _scaled(state, peak):
    """state times the real factor that makes its largest modulus peak."""
    factor = peak / np.abs(state.values).max()
    return GridState(state.values * factor, state.grid, state.spin,
                     state.blocks)


def test_finite_scan_of_words_near_overflow(monkeypatch):
    # words whose rows overflow raise the state's non-finite error, from
    # residual and from study, whether a word is kept (scanned as it is
    # computed) or read once, as a term (checked through its component's
    # norm); a finite state whose own norm overflows is refused
    # (test_state_norm_overflow_is_refused)
    rep = catalog.build("up", 1)
    g = Grid(L, 24)
    st = standard_state(rep, g)
    rids = ["[K1,P1] == i*P0", "Theta*K == K*Theta"]
    with np.errstate(over="ignore", invalid="ignore"):
        big = _scaled(st, 1.5e308)
        for rid in rids:
            with pytest.raises(ValueError, match="non-finite entries"):
                residual(rep, rid, big)
        # K1 psi read once, as a term, is a direct word, and the state
        # (peak 1.5e308) is finite: only the component's norm sees it
        comps = [((ONE, ("K1",)),)]
        assert gridlab._Layout({"K1": rep.k[0]}, comps, g,
                               gridlab._Mesh(g)).direct == {("K1",)}
        with pytest.raises(ValueError, match="non-finite entries"):
            gridlab._stream({"K1": rep.k[0]}, big, comps)
        with pytest.raises(ValueError, match="non-finite entries"):
            apply(rep.k[0], big)
        huge = _scaled(st, 1e300)
        for rid in rids:
            with pytest.raises(ValueError, match="state norm is inf"):
                residual(rep, rid, huge)
        real = gridlab._standard

        def scaled(rep, grid):
            gauss = real(rep, grid)
            peak = np.abs(gauss.sample().values).max()
            return dataclasses.replace(gauss,
                                       spinor=gauss.spinor * (1.5e308 / peak))

        monkeypatch.setattr(gridlab, "_standard", scaled)
        # at N = 12 no word of these relations overflows, and the state's
        # own norm (inf) refuses the study before its words can
        for rid in rids:
            with pytest.raises(ValueError, match="non-finite entries"):
                study(rep, [rid], [Grid(L, n) for n in (24, 48, 96)])
            with pytest.raises(ValueError, match="state norm is inf"):
                study(rep, [rid], [Grid(L, n) for n in (12, 24, 48)])


def test_state_norm_overflow_is_refused():
    # at a peak of 1e155 the state is finite but its squares overflow, so
    # its norm is inf: a finite component norm over it would read 0 (a
    # false exact pass, [P1,P2] == 0 and the Theta exchange) and the
    # others nan.  residual, a study's _residuals and isometry_defect
    # refuse it; at 1e153 they agree with the unscaled state to rounding
    rep = catalog.build("up", 1)
    g = Grid(L, 24)
    st = standard_state(rep, g)
    rids = ["[P1,P2] == 0", "Theta*P0 == P0*Theta", "[J1,J2] == i*J3"]
    with np.errstate(over="ignore", invalid="ignore"):
        big = _scaled(st, 1e155)
        for rid in rids:
            with pytest.raises(ValueError, match="state norm is inf"):
                residual(rep, rid, big)
        with pytest.raises(ValueError, match="state norm is inf"):
            gridlab._residuals(rep, representative_relations(rep), big)
        with pytest.raises(ValueError, match="state norm is inf"):
            isometry_defect(rep, big)
    fine = _scaled(st, 1e153)
    want = gridlab._residuals(rep, rids, st)
    got = gridlab._residuals(rep, rids, fine)
    assert [residual(rep, rid, fine) for rid in rids] == got
    assert want[0] < 1e-15 and want[2] > 1e-3
    for w, x in zip(want, got):
        assert x == pytest.approx(w, rel=1e-12, abs=1e-15)
    defects = isometry_defect(rep, fine)
    assert all(v < 1e-14 for v in defects.values())
    assert defects.keys() == isometry_defect(rep, st).keys()


@pytest.mark.parametrize("grids", [(17, 33, 65), (32, 64, 128)])
def test_working_set_reads_the_plans_layout(grids, monkeypatch):
    # the guard's layout of each grid (the representative relations and
    # the isometry words) is the one the study's plan runs on that grid
    # with the isometry rows: equal stored words, lead and pair counts,
    # for every catalog entry at two_s <= 1
    grids = [Grid(L, n) for n in grids]
    made = []

    class Recorded(gridlab._Layout):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    class Planned(Exception):
        pass

    def summary(layout):
        full = sum(is_full for _j, is_full in layout.pairs.values())
        return ([w.word for w in layout.stored], layout.lead, full,
                len(layout.pairs) - full)

    def stop(*args):  # the plan is laid out: make no rows
        raise Planned

    monkeypatch.setattr(gridlab, "_Layout", Recorded)
    monkeypatch.setattr(gridlab, "_Buffers", stop)  # the guard makes none
    for two_s in (0, 1):
        for label in catalog.catalog_labels(two_s):
            rep = catalog.build(label, two_s)
            made.clear()
            working_set_bytes(rep, grids)
            guard = [summary(layout) for layout in made]
            made.clear()
            for g in grids:
                with pytest.raises(Planned):
                    gridlab._residuals(rep, representative_relations(rep),
                                       gridlab._standard(rep, g), {})
            assert [summary(layout) for layout in made] == guard, label
    # up at two_s = 1 has 7 full-size and 9 broadcast pairs on each grid
    # (11 full-size when a pair's two signs were two pairs), of which 4
    # and 3 are real
    made.clear()
    working_set_bytes(catalog.build("up", 1), grids)
    assert {summary(layout)[2:] for layout in made} == {(7, 9)}
    assert {tuple(sum(s.imag == 0 for (_key, s), (_j, f) in
                      layout.pairs.items() if f == is_full)
                  for is_full in (True, False)) for layout in made} == {
        (4, 3)}


def test_bank_holds_each_slab_once_at_its_dtype():
    # one range of the layout of up 2s=1's study: its bank, made whole
    # when the range is first asked for, holds one slab per full-size
    # (field key, canonical s), a later contribution of -s being
    # subtracted, float64 exactly where s is real, each slab bit-equal
    # to F * s; of the basis fields it keeps only the 1/p0 weight
    rep = catalog.build("up", 1)
    g = Grid(L, 32)
    mesh = gridlab._Mesh(g)
    _rels, comps, ops = gridlab._relations(rep, representative_relations(rep))
    lay = gridlab._Layout(ops, comps + list(gridlab._ISOMETRY), g, mesh)
    bufs = gridlab._Buffers(mesh, lay.rows, lay.plans.values(), lay.pairs,
                            2 * (lay.lead + 1))
    lo, hi = 0, lay.rows
    bank = bufs._bank(lo, hi)
    assert bufs._bank(lo, hi) is bank and bufs.banks == [bank]
    full = {j: (key, s) for (key, s), (j, f) in lay.pairs.items() if f}
    assert len(full) == 7 and sorted(bank.slabs) == sorted(full)
    assert all(gridlab._canonical(s) and (key, -s) not in lay.pairs
               for key, s in full.values())
    assert any(t[-1] is np.subtract for plan in lay.plans.values()
               for *_src, terms in plan.sources for t in terms)

    def bits(values):
        return np.ascontiguousarray(values).view(np.uint64)

    for j, (key, s) in full.items():
        want = np.multiply(mesh.field(key, lo, hi), s)
        slab = bank.slabs[j]
        if s.imag == 0:
            assert slab.dtype == np.float64
            want = want.real
        else:
            assert slab.dtype == np.complex128
        assert np.array_equal(bits(slab), bits(want))
    for (_key, s), (j, f) in lay.pairs.items():
        if not f:
            assert bufs.planes[j].dtype == (
                np.float64 if s.imag == 0 else np.complex128)
    assert gridlab._Bank.__slots__ == ("span", "slabs", "weight")
    assert np.array_equal(bits(bufs.weight(lo, hi)),
                          bits(mesh.field(gridlab._INV_P0, lo, hi)))
    # one difference buffer where no term differences twice, two for a
    # product of two generators' stencils; apply's buffers take no norm,
    # so their banks make no weight
    assert {plan.chain for plan in lay.plans.values()} == {0, 1}
    assert len(bufs.deriv) == 1
    for op in (rep.k[0] * rep.j[2], rep.k[0] * rep.k[0]):
        pairs = {}
        plan = gridlab._plan(op, mesh, g.spacing, pairs)
        assert plan.chain == 2
        applied = gridlab._Buffers(mesh, lay.rows, [plan], pairs, 2)
        assert len(applied.deriv) == 2
        assert applied._bank(lo, hi).weight is None


def test_weight_is_made_once_per_normed_range(monkeypatch):
    # the 1/p0 weight is evaluated only for a norm: apply makes none, a
    # bank the kernels made holds none until a norm asks for the range's
    # weight, and a streamed plan makes it once on each range it norms
    rep = catalog.build("up", 1)
    g = Grid(L, 33)
    st = standard_state(rep, g)
    made = Counter()
    real = gridlab._Mesh.field

    def counted(mesh, key, lo=0, hi=None):
        if key == gridlab._INV_P0:
            made[lo, hi] += 1
        return real(mesh, key, lo, hi)

    monkeypatch.setattr(gridlab._Mesh, "field", counted)
    for op in (rep.k[0], rep.theta, rep.k[0] * rep.j[2]):
        apply(op, st)
    assert not made
    mesh, pairs = gridlab._Mesh(g), {}
    plan = gridlab._plan(rep.k[0], mesh, g.spacing, pairs)
    bufs = gridlab._Buffers(mesh, 15, [plan], pairs, 2)
    bufs.fields(plan.used, 0, 15)
    assert bufs.banks[0].weight is None and not made
    weight = bufs.weight(0, 15)
    assert bufs.weight(0, 15) is weight is bufs.banks[0].weight
    assert made == {(0, 15): 1}
    ranges = [r for level in gridlab._level_ranges(33, gridlab._slab_rows(33))
              for r in level]
    assert len(ranges) == 3
    for run in (lambda: residual(rep, "Theta*K == K*Theta", st),
                lambda: isometry_defect(rep, st)):
        made.clear()
        run()
        assert made == Counter(ranges)


def test_plan_refuses_a_zero_norm_before_any_row(monkeypatch):
    # the spacing cubed underflows to 0 at this extent, so every norm is
    # 0: a caller's state is refused before the plan makes a row, in
    # residual and isometry_defect alike
    rep = catalog.build("up", 1)
    g = Grid(1e-150, 16)
    assert g.spacing**3 == 0
    st = GridState(np.ones((1, 16, 16, 16, 2), dtype=complex), g,
                   SpinWeight(1), 1)

    def forbidden(*args):
        raise AssertionError("made a row")

    monkeypatch.setattr(gridlab, "_apply_rows", forbidden)
    monkeypatch.setattr(GridState, "rows", forbidden)
    for run in (lambda: residual(rep, "Theta*K == K*Theta", st),
                lambda: isometry_defect(rep, st)):
        with pytest.raises(ValueError,
                           match="state norm is 0: the spacing cubed"):
            run()


def test_finite_scan_once_per_stored_row(monkeypatch):
    # the row kernel scans nothing: each stored word's rows, the state's
    # included, are scanned once as they are computed, and a direct word
    # (read once, as a term) only through its component's norm, which
    # scans no slab whose partials are finite
    rep = catalog.build("up", 1)
    rids = representative_relations(rep)
    grids = [Grid(L, n) for n in (17, 33, 65)]
    scanned, calls = [], []
    real_check, real_rows = gridlab._check_finite, gridlab._apply_rows
    names = _plan_names(monkeypatch)

    def check(values):
        scanned.append(values)
        real_check(values)

    def counted(plan, bufs, src, lo, hi, out):
        calls.append((bufs.mesh.n, names[id(plan)] + src.word, lo, hi, out))
        before = len(scanned)
        real_rows(plan, bufs, src, lo, hi, out)
        assert len(scanned) == before

    monkeypatch.setattr(gridlab, "_check_finite", check)
    monkeypatch.setattr(gridlab, "_apply_rows", counted)
    study(rep, rids, grids, defects={})
    ids = Counter(map(id, scanned))
    assert set(ids.values()) == {1}
    stored, direct = defaultdict(list), set()
    for n, word, lo, hi, out in calls:
        if id(out) in ids:
            stored[n, word].append((lo, hi))
        else:
            direct.add((n, word))
    assert not direct & set(stored)
    assert all(_every_row_once(r, n) for (n, _w), r in stored.items())
    # what no kernel wrote is the state's rows: N of them per grid
    outs = {id(call[-1]) for call in calls}
    root = defaultdict(list)
    for values in scanned:
        if id(values) not in outs:
            root[values.shape[-1]].append(values.shape[2])
    assert {n: sum(r) for n, r in root.items()} == {
        g.points: g.points for g in grids}
    _rels, comps, ops = gridlab._relations(rep, rids)
    for g in grids:
        own = gridlab._ISOMETRY if g is grids[-1] else gridlab._ISOMETRY[:1]
        want = gridlab._Layout(ops, comps + list(own), g,
                               gridlab._Mesh(g)).direct
        assert want and {w for n, w in direct if n == g.points} == want
