"""Grid construction, the grid's node maps, potential certification,
and weighted norms."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from specthresh.model import (Model, Potential, QuadratureGrid,
                              bracket_weight, build_grid, sample_potential,
                              weight_diag, weighted_operator_norm,
                              weighted_vec)


def test_uniform_grid_covers_ball_volume():
    grid = build_grid(3.0, 8)
    vol = 4.0 / 3.0 * np.pi * 3.0 ** 3
    assert abs(grid.weights.sum() - vol) / vol < 5e-3


def test_gauss_radial_grid_volume_exact():
    grid = build_grid(2.0, 6, scheme="gauss_radial")
    vol = 4.0 / 3.0 * np.pi * 2.0 ** 3
    # polynomial radial weight r^2 is integrated exactly by Gauss-Legendre
    assert abs(grid.weights.sum() - vol) / vol < 1e-12


def test_grid_quadrature_integrates_gaussian():
    grid = build_grid(4.0, 12)
    val = np.sum(grid.weights * np.exp(-grid.radii() ** 2))
    assert abs(val - np.pi ** 1.5) / np.pi ** 1.5 < 2e-3


def test_build_grid_rejects_degenerate_input():
    with pytest.raises(ValueError):
        build_grid(-1.0, 8)
    with pytest.raises(ValueError):
        build_grid(3.0, 1)
    with pytest.raises(ValueError):
        build_grid(3.0, 8, scheme="nope")


def test_cell_radii_reproduce_weights():
    grid = build_grid(3.0, 6)
    rc = grid.cell_radii()
    assert np.allclose(4.0 / 3.0 * np.pi * rc ** 3, grid.weights)


# the 16 signed permutations that fix the x_1 axis (the node maps the
# reflection group and the third-kind tuning ask for)
SIGNED_PERMS = [(perm, signs) for perm in ([0, 1, 2], [0, 2, 1])
                for signs in itertools.product([1.0, -1.0], repeat=3)]


@pytest.mark.parametrize("extent, resolution, scheme", [
    (3.0, 5, "uniform"), (2.93, 5, "uniform"),
    (2.0, 5, "gauss_radial"), (2.0, 6, "gauss_radial")])
def test_node_map_matches_brute_force_oracle(extent, resolution, scheme):
    grid = build_grid(extent, resolution, scheme=scheme)
    found = 0
    for perm, signs in SIGNED_PERMS:
        got = grid.node_map(perm, signs)
        want = oracles.brute_force_node_map(grid, perm, signs)
        if want is None:
            assert got is None, (perm, signs)
        else:
            found += 1
            assert got is not None and np.array_equal(got, want), (perm,
                                                                   signs)
    # the identity is always a map; the uniform grid has all 16
    assert found == 16 if scheme == "uniform" else 1 <= found < 16


def test_node_map_rejects_a_map_that_moves_a_perturbed_weight():
    grid = build_grid(3.0, 5)
    # a node on the plane x_3 = 0, off the other two: the maps that flip
    # x_3 alone keep it, the others move it
    i = int(np.flatnonzero((np.abs(grid.nodes[:, 2]) < 1e-12)
                           & (np.abs(grid.nodes[:, 0]) > 0.5)
                           & (np.abs(grid.nodes[:, 1]) > 0.5)
                           & (np.abs(grid.nodes[:, 0])
                              != np.abs(grid.nodes[:, 1])))[0])
    w = grid.weights.copy()
    w[i] *= 1.0 + 1e-10
    bent = QuadratureGrid(nodes=grid.nodes, weights=w, extent=grid.extent,
                          scheme=grid.scheme, spacing=grid.spacing)
    moved = 0
    for perm, signs in SIGNED_PERMS:
        m = grid.node_map(perm, signs)
        got = bent.node_map(perm, signs)
        if m[i] != i:
            moved += 1
            assert got is None, (perm, signs)
        else:
            assert np.array_equal(got, m), (perm, signs)
    assert moved == 14


def test_third_kind_build_searches_sixteen_node_maps():
    # the grid is searched once for its 8 reflections and 5 axis
    # permutations, and the factory and the model's sector group share
    # them: 13 searches in all
    from specthresh.birman_schwinger import Discretization
    from specthresh.models import third_kind_model
    model = third_kind_model(build_grid(3.0, 5))
    assert Discretization(model).sectors.order == 8
    assert len(model.grid._node_maps) == 8 + 5
    # the memoized maps are shared, so they are read-only
    assert not any(m.flags.writeable for m in model.grid._node_maps.values())


def test_potential_requires_supercritical_decay():
    grid = build_grid(2.0, 4)
    with pytest.raises(ValueError):
        Potential(values=np.zeros(grid.n, dtype=complex), rho=2.0, C_v=1.0,
                  support_radius=2.0, grid_id=grid.grid_id)


def test_sample_potential_truncates_support():
    grid = build_grid(3.0, 6)
    pot = sample_potential(grid, 1.0 + 0j, support_radius=1.5)
    r = grid.radii()
    assert np.all(pot.values[r > 1.5 + 1e-12] == 0)
    assert np.all(pot.values[r <= 1.5] == 1.0)


def test_sample_potential_rejects_bad_bound():
    grid = build_grid(3.0, 6)
    with pytest.raises(ValueError):
        sample_potential(grid, 5.0 + 0j, rho=8.0, C_v=1e-6)


def test_model_rejects_grid_mismatch():
    g1 = build_grid(3.0, 6)
    g2 = build_grid(3.0, 8)
    pot = sample_potential(g1, 0.5 + 0j)
    with pytest.raises(ValueError):
        Model(grid=g2, potential=pot)


@pytest.mark.parametrize("field", ["nodes", "weights"])
def test_grid_rejects_non_finite_data(field):
    # a NaN weight slips past the weights.min() <= 0 guard, so finiteness is
    # checked on its own where the grid data enters
    g = build_grid(2.0, 4)
    data = {"nodes": g.nodes.copy(), "weights": g.weights.copy()}
    data[field][3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        QuadratureGrid(nodes=data["nodes"], weights=data["weights"],
                       extent=g.extent, scheme=g.scheme, spacing=g.spacing)


def test_weighted_norm_of_diagonal_operator():
    grid = build_grid(3.0, 6)
    d = np.linspace(0.5, 2.0, grid.n)
    # for diagonal A the (s, -s) norm is the max of |d_i| <x_i>^{-2s}
    got = weighted_operator_norm(np.diag(d), grid, s_in=3.0, s_out=-3.0)
    want = np.max(d * bracket_weight(grid, -6.0))
    assert abs(got - want) / want < 1e-12


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.0, 5.0), scale=st.floats(0.1, 10.0))
def test_weighted_vec_is_homogeneous(s, scale):
    grid = build_grid(2.0, 4)
    u = np.sin(grid.radii())
    assert np.isclose(weighted_vec(grid, scale * u, s),
                      scale * weighted_vec(grid, u, s))


def test_weighted_norm_submultiplicative_through_l2():
    grid = build_grid(2.0, 4)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((grid.n, grid.n))
    # (s,-s) norm is bounded by the flat L^2 norm since <x> >= 1
    assert (weighted_operator_norm(A, grid, 2.0, -2.0)
            <= weighted_operator_norm(A, grid, 0.0, 0.0) + 1e-12)


def test_weight_diag_isometry():
    grid = build_grid(2.0, 4)
    u = np.exp(-grid.radii())
    assert np.isclose(weighted_vec(grid, u, 1.5),
                      np.linalg.norm(weight_diag(grid, 1.5) * u))
