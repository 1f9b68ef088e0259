"""Numeric layer: grid admissibility, the discrete inner product against
an independent Gauss-Legendre quadrature, apply() against hand-rolled
numpy, and convergence studies with frozen slope expectations.
"""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from poincarelab import catalog, gridlab
from poincarelab.gridlab import (
    EXACT_TOL,
    Grid,
    GridState,
    _meshes,
    apply,
    convergence_study,
    inner,
    isometry_defect,
    norm,
    relation_ids,
    representative_relations,
    residual,
    sample_gaussian,
    standard_state,
)
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


def test_field_cache_lives_and_dies_with_the_mesh():
    g = Grid(L, 16)
    rep = catalog.build("up", 1)
    apply(rep.k[0], standard_state(rep, g))
    mesh = weakref.ref(_meshes(g))
    fields = mesh().fields
    # K1's spin coupling p2/(mu+p0); its transport term's bare p0 is the
    # mesh array itself, not a copy
    assert ((0, 1, 0, 0), 0, 1) in fields
    assert fields[((0, 0, 0, 1), 0, 0)] is mesh().coords[3]
    assert _meshes.cache_info().maxsize == 8
    _meshes.cache_clear()
    gc.collect()
    assert mesh() is None
    assert _meshes(g).fields == {}


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


def test_residual_rejects_unknown_relation():
    rep = catalog.build("up", 0)
    st = standard_state(rep, Grid(L, 16))
    with pytest.raises(ValueError, match="unknown relation id"):
        residual(rep, "[A,B] == nonsense", st)


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


def test_residual_applies_shared_suffixes_once(monkeypatch):
    # Theta*K == K*Theta: Theta psi once, then K_a psi, Theta K_a psi and
    # K_a Theta psi for each of the three components
    rep = catalog.build("up", 1)
    st = standard_state(rep, Grid(L, 16))
    calls = []

    def counted(op, state):
        calls.append(op)
        return apply(op, state)

    monkeypatch.setattr(gridlab, "apply", counted)
    got = residual(rep, "Theta*K == K*Theta", st)
    assert len(calls) == 10
    assert sum(op is rep.theta for op in calls) == 4
    want = max(
        norm(GridState(apply(rep.theta, apply(k, st)).values
                       - apply(k, apply(rep.theta, st)).values,
                       st.grid, st.spin, st.blocks))
        for k in rep.k
    ) / norm(st)
    assert got == pytest.approx(want, rel=1e-12)


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
    monkeypatch.setattr(gridlab, "standard_state", lambda rep, g: g)
    monkeypatch.setattr(gridlab, "residual",
                        lambda rep, rid, g: table[g.points])
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
