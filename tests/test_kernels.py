"""Branch bookkeeping, kernel closed forms, diagonal cell rules and the
half-power expansion of the free resolvent."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import specthresh
from specthresh import kernels
from specthresh.birman_schwinger import Discretization
from specthresh.kernels import (BranchPoint, L_MAX,
                                _diag_gj, _diag_gj_plus, _diag_r0,
                                assemble_gj, assemble_gj_plus,
                                assemble_r0,
                                gj_kernel, gj_plus_kernel, r0_kernel,
                                verify_threshold_expansion)
from specthresh.model import QuadratureGrid, build_grid


# --------------------------------------------------------------------------
# branch points

def test_branch_side_required_on_positive_axis():
    with pytest.raises(ValueError, match="branch side"):
        BranchPoint.from_z(4.0)
    assert BranchPoint.from_z(4.0, side="+").sqrt_z == 2.0
    assert BranchPoint.from_z(4.0, side="-").sqrt_z == -2.0


def test_boundary_points_need_positive_energy():
    with pytest.raises(ValueError):
        BranchPoint.boundary(-1.0)


def test_branch_point_consistency_guard():
    with pytest.raises(ValueError):
        BranchPoint(z=4.0, sqrt_z=1.0)


@settings(max_examples=50, deadline=None)
@given(re=st.floats(-10.0, 10.0), im=st.floats(-10.0, 10.0))
def test_branch_sqrt_on_physical_sheet(re, im):
    z = complex(re, im)
    if z.imag == 0.0 and z.real >= 0.0:
        return
    bp = BranchPoint.from_z(z)
    assert abs(bp.sqrt_z ** 2 - z) <= 1e-10 * max(1.0, abs(z))
    assert bp.sqrt_z.imag >= 0.0


def test_order_and_anchor_validation():
    grid = build_grid(2.0, 4)
    r = np.array([0.5, 1.0])
    for j in (-1, L_MAX + 1):
        with pytest.raises(ValueError, match="order"):
            gj_plus_kernel(j, 1.0, r)
        with pytest.raises(ValueError, match="order"):
            assemble_gj(grid, j)
        with pytest.raises(ValueError, match="order"):
            assemble_gj_plus(grid, j, 1.0)
    for lam0 in (-1.0, 0.0):
        for j in (0, 1):
            with pytest.raises(ValueError, match="anchor"):
                gj_plus_kernel(j, lam0, r)
            with pytest.raises(ValueError, match="anchor"):
                assemble_gj_plus(grid, j, lam0)


# --------------------------------------------------------------------------
# pointwise kernels

def test_r0_kernel_at_negative_energy_is_yukawa():
    bp = BranchPoint.from_z(-4.0)           # sqrt = 2i
    r = np.array([0.5, 1.0, 2.0])
    want = np.exp(-2.0 * r) / (4.0 * np.pi * r)
    assert np.allclose(r0_kernel(bp, r), want)


def test_gj_kernel_closed_form():
    r = np.array([0.3, 1.7])
    assert np.allclose(gj_kernel(0, r), 1.0 / (4.0 * np.pi * r))
    assert np.allclose(gj_kernel(1, r), 1.0 / (4.0 * np.pi))
    assert np.allclose(gj_kernel(3, r), r ** 2 / (24.0 * np.pi))


def test_gj_plus_matches_finite_difference_in_z():
    lam0 = 1.7
    r = np.array([0.4, 1.1, 2.5])
    for j in (1, 2, 3):
        def f(lam, j=j):
            return gj_plus_kernel(j - 1, lam, r)
        want = oracles.central_derivative(f, lam0, h=1e-4)
        got = gj_plus_kernel(j, lam0, r)
        assert np.linalg.norm(got - want) < 1e-6 * np.linalg.norm(got)


def test_gj_plus_matches_cauchy_integral():
    # relative error in the 2-norm over the radii; the oracle's own floor
    # grows with j (j!/rho^j amplifies its roundoff)
    r = np.array([0.1, 0.5, 1.0, 2.5, 6.0])
    for lam0 in (0.3, 1.0, 1.7, 40.0):
        for j in range(L_MAX + 1):
            want = oracles.cauchy_r0_kernel_derivative(j, lam0, r)
            got = gj_plus_kernel(j, lam0, r)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= (1e-12 if j <= 4 else 1e-10), (lam0, j, err)


def test_import_and_assembly_do_not_load_sympy():
    src = str(Path(specthresh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, specthresh\n"
            "from specthresh.kernels import assemble_gj_plus\n"
            "from specthresh.model import build_grid\n"
            "assemble_gj_plus(build_grid(2.0, 4), 3, 1.0)\n"
            "assert 'sympy' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_expansion_kernels_resum_to_r0():
    # sum_j (i sqrt z)^j G_j(r) is the Taylor series of the R0 kernel in r
    bp = BranchPoint.from_z(-0.09)
    r = np.array([0.2, 0.6])
    acc = sum((1j * bp.sqrt_z) ** j * gj_kernel(j, r) for j in range(40))
    assert np.allclose(acc, r0_kernel(bp, r), rtol=1e-12)


# --------------------------------------------------------------------------
# diagonal rules against adaptive quadrature

def test_diag_r0_against_quadrature():
    bp = BranchPoint.from_z(-2.0 + 0.7j)
    rc = 0.37
    want = oracles.cell_ball_integral(
        lambda rho: np.exp(1j * bp.sqrt_z * rho) / (4.0 * np.pi * rho), rc)
    got = _diag_r0(bp.sqrt_z, np.array([rc]))[0]
    assert abs(got - want) < 1e-10


def test_diag_r0_matches_series_at_small_k():
    # |a rc| from 1e-12 to 2 in every direction of a, on both sheets (the
    # closed form alone loses ~eps / |a rc|^2 here); no NaN or warning even
    # where (i a)^2 underflows
    rc = np.array([0.3, 0.62, 1.0])
    worst = 0.0
    for mag in np.logspace(-12, np.log10(2.0), 60):
        for th in np.linspace(-np.pi, np.pi, 16, endpoint=False):
            a = mag * np.exp(1j * th) / rc
            for ai, r in zip(a, rc):
                got = _diag_r0(ai, np.array([r]))[0]
                want = oracles.cell_r0_series(ai, r)
                worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-13
    # one call over cells on both sides of the switch to the Taylor branch
    rcs = np.geomspace(1e-3, 1.0, 7)
    assert np.array_equal(_diag_r0(0.5 - 0.2j, rcs),
                          [_diag_r0(0.5 - 0.2j, np.array([r]))[0]
                           for r in rcs])
    tiny = _diag_r0(2.1e-163j, rc)
    assert np.all(np.isfinite(tiny))
    assert np.array_equal(tiny, rc ** 2 / 2.0)
    K = assemble_r0(build_grid(3.0, 4), BranchPoint(z=0.0, sqrt_z=2.1e-163j))
    assert np.all(np.isfinite(K))


def test_diag_gj_against_quadrature():
    rc = 0.41
    for j in range(0, 5):
        want = oracles.cell_ball_integral(lambda rho: gj_kernel(j, rho), rc)
        got = _diag_gj(j, np.array([rc]))[0]
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_diag_gj_plus_against_quadrature():
    # several distinct radii in one call check the per-cell indexing
    lam0, rcs = 1.3, np.array([0.29, 0.07, 0.41, 0.18])
    for j in range(1, L_MAX + 1):
        got = _diag_gj_plus(j, lam0, rcs)
        for rc, g in zip(rcs, got):
            want = oracles.cell_ball_integral(
                lambda rho: gj_plus_kernel(j, lam0, np.array([rho]))[0], rc)
            assert abs(g - want) <= 1e-10 * abs(want), (j, rc)


# --------------------------------------------------------------------------
# assembly

def test_assembled_r0_solves_helmholtz_against_gaussian():
    # R0(z) applied to a gaussian f satisfies (-Delta - z) u = f; check the
    # convolution against the radial closed form of the solution instead:
    # u(0) = int exp(i sqrt z r)/(4 pi r) f(r) d^3x
    grid = build_grid(4.0, 14)
    bp = BranchPoint.from_z(-1.0)
    f = np.exp(-grid.radii() ** 2)
    R = assemble_r0(grid, bp)
    u = R @ f
    # radial quadrature oracle for the value at the node closest to 0
    i0 = int(np.argmin(grid.radii()))
    import scipy.integrate
    r0 = grid.radii()[i0]

    def integrand(rp):
        # spherical average of the kernel around a point at radius r0
        if r0 < 1e-9:
            ker = np.exp(1j * bp.sqrt_z * rp) / (4.0 * np.pi * rp)
            return float((4.0 * np.pi * rp ** 2 * ker * np.exp(-rp ** 2)).real)
        hi = np.exp(1j * bp.sqrt_z * (r0 + rp))
        lo = np.exp(1j * bp.sqrt_z * abs(r0 - rp))
        ker_avg = (hi - lo) / (2j * bp.sqrt_z * 4.0 * np.pi * r0 * rp)
        return float((4.0 * np.pi * rp ** 2 * ker_avg * np.exp(-rp ** 2)).real)

    want, _ = scipy.integrate.quad(integrand, 0.0, 10.0, limit=200)
    assert abs(u[i0].real - want) / abs(want) < 5e-2
    assert abs(u[i0].imag) < 1e-10


@pytest.mark.parametrize("scheme", ["uniform", "gauss_radial"])
def test_assembly_equals_masked_nystrom_bitwise(scheme):
    # the kernel runs on the distance classes (unit diagonal, then
    # overwritten) and is gathered; every entry must equal the off-diagonal
    # gather/scatter of the kernel over the distance matrix.  At extents
    # 2.93 and 3.07 rounding splits the lattice distances into more classes
    for extent in (3.0, 2.93, 3.07):
        grid = build_grid(extent, 6, scheme=scheme)
        dist = grid.distance_matrix()
        rc = grid.cell_radii()
        for k in (0.7, 0.5 - 0.2j, -0.7 + 0.4j, 2.3 - 0.9j, 0.1j):
            bp = BranchPoint(z=k * k, sqrt_z=k)
            want = oracles.masked_nystrom(grid, lambda r: r0_kernel(bp, r),
                                          _diag_r0(k, rc), dist)
            assert np.array_equal(assemble_r0(grid, bp), want)
        for j in range(3):
            want = oracles.masked_nystrom(grid, lambda r: gj_kernel(j, r),
                                          _diag_gj(j, rc), dist)
            assert np.array_equal(assemble_gj(grid, j), want)
            want = oracles.masked_nystrom(
                grid, lambda r: gj_plus_kernel(j, 1.3, r),
                _diag_r0(np.sqrt(1.3), rc) if j == 0
                else _diag_gj_plus(j, 1.3, rc), dist)
            assert np.array_equal(assemble_gj_plus(grid, j, 1.3), want)


def test_r0_kernel_runs_once_per_distance_class(first6, monkeypatch):
    grid = first6.grid
    values, index = grid.distance_classes
    assert len(values) <= 100 and index.shape == (grid.n, grid.n)
    sizes = []

    def counted(bp, r):
        sizes.append(np.size(r))
        return r0_kernel(bp, r)

    monkeypatch.setattr(kernels, "r0_kernel", counted)
    Discretization(first6).r0(BranchPoint.from_z(0.3 - 0.1j))
    assert sizes == [len(values)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), re=st.floats(-3.0, 3.0),
       im=st.floats(-1.0, 2.0), shrink=st.integers(0, 200),
       lam0=st.floats(0.1, 4.0), j=st.integers(0, 3))
def test_node_order_permutes_assemblies_bitwise(seed, re, im, shrink, lam0,
                                                j):
    # relabelling the nodes relabels the rows and columns, entry for entry;
    # shrink scales k down to |k| ~ 1e-200, deep into the Taylor branch of
    # the self-cell rule
    g = build_grid(2.93, 5)
    p = np.random.default_rng(seed).permutation(g.n)
    gp = QuadratureGrid(nodes=g.nodes[p], weights=g.weights[p],
                        extent=g.extent, scheme=g.scheme, spacing=g.spacing)
    k = complex(re, im) * 10.0 ** -shrink
    bp = BranchPoint(z=k * k, sqrt_z=k)
    pp = np.ix_(p, p)
    assert np.array_equal(assemble_r0(gp, bp), assemble_r0(g, bp)[pp])
    assert np.array_equal(assemble_gj_plus(gp, j, lam0),
                          assemble_gj_plus(g, j, lam0)[pp])


def test_gj_plus_zero_order_is_boundary_r0():
    grid = build_grid(2.0, 4)
    A = assemble_gj_plus(grid, 0, 1.5)
    B = assemble_r0(grid, BranchPoint.boundary(1.5, "+"))
    assert np.array_equal(A, B)


# --------------------------------------------------------------------------
# half-power remainder contraction

def test_threshold_expansion_remainder_contracts():
    grid = build_grid(3.0, 6)
    z = -4e-2
    for ell in (0, 1):
        e1 = verify_threshold_expansion(grid, z, ell)
        e2 = verify_threshold_expansion(grid, z / 4.0, ell)
        ratio = e1 / e2
        target = 2.0 ** (ell + 1)
        assert target / 2.0 < ratio < target * 2.0
