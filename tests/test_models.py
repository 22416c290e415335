"""Reference model factories: tuned spectral structure and guard rails."""
import numpy as np
import pytest

from specthresh.birman_schwinger import Discretization
from specthresh.model import build_grid
from specthresh.models import (dissipative_model, free_model,
                               gaussian_template, regular_model)
from specthresh.model import assemble_H


def test_free_model_has_zero_potential():
    m = free_model(build_grid(2.0, 4))
    assert np.all(m.V == 0)


def test_gaussian_template_vanishes_outside_ball():
    grid = build_grid(3.0, 7)
    W = gaussian_template(grid)
    r = grid.radii()
    assert np.all(W[r > grid.extent + 1e-12] == 0)
    assert np.iscomplexobj(W)


def test_regular_model_is_regular():
    m = regular_model(build_grid(3.0, 6))
    disc = Discretization(m)
    ev = np.linalg.eigvals(disc.K0)
    assert np.min(np.abs(ev + 1.0)) > 1e-2


def test_first_kind_eigenvalue_placement(first8, disc_first):
    ev = np.linalg.eigvals(disc_first.K0)
    assert np.min(np.abs(ev + 1.0)) < 1e-9


def test_second_kind_exact_eigenstate(second8, disc_second):
    # the source construction makes G0 V psi = -psi exact on the grid
    ev, vec = np.linalg.eig(disc_second.K0)
    i = int(np.argmin(np.abs(ev + 1.0)))
    assert abs(ev[i] + 1.0) < 1e-10
    psi = vec[:, i]
    mk = disc_second.marker(psi)
    assert abs(mk) < 1e-8 * np.abs(psi).max()


def test_third_kind_double_eigenvalue(third8, disc_third):
    ev = np.linalg.eigvals(disc_third.K0)
    close = np.sort(np.abs(ev + 1.0))
    # at least a two-dimensional cluster at -1
    assert close[1] < 1e-8


def test_resonance_model_minus_one_at_lam0(resonance8, disc_resonance):
    from specthresh.kernels import BranchPoint
    Kp = disc_resonance.K(BranchPoint.boundary(1.0, "+"))
    ev = np.linalg.eigvals(Kp)
    assert np.min(np.abs(ev + 1.0)) < 1e-9


def test_dissipative_model_uniform_absorption():
    m = dissipative_model()
    H = assemble_H(m.grid, m.potential)
    ev = np.linalg.eigvals(H)
    assert np.allclose(ev.imag, -0.05, atol=1e-10)
