"""
Shared fixtures.  Heavy objects (tuned models, expansions, propagators, the
oracle branch-cut walk) are session-scoped: they are built once and reused
across the unit and acceptance tests.
"""
import numpy as np
import pytest

import oracles
from specthresh import (Discretization, classify_zero,
                        threshold_resolvent_expansion,
                        resonance_resolvent_expansion)
from specthresh.model import build_grid
from specthresh.models import (default_grid, first_kind_model, free_model,
                               regular_model, resonance_model,
                               second_kind_model, third_kind_model)
from specthresh.propagator import CutPropagator


# --------------------------------------------------------------------------
# grids

@pytest.fixture(scope="session")
def grid8():
    return default_grid()                    # extent 3, resolution 8, n=408


@pytest.fixture(scope="session")
def grid6():
    return build_grid(3.0, 6)                # coarse grid for propagator runs


# --------------------------------------------------------------------------
# models at resolution 8 (expansion accuracy)

@pytest.fixture(scope="session")
def free8(grid8):
    return free_model(grid8)


@pytest.fixture(scope="session")
def regular8(grid8):
    return regular_model(grid8)


@pytest.fixture(scope="session")
def first8(grid8):
    return first_kind_model(grid8)


@pytest.fixture(scope="session")
def second8(grid8):
    return second_kind_model(grid8)


@pytest.fixture(scope="session")
def third8(grid8):
    return third_kind_model(grid8)


@pytest.fixture(scope="session")
def resonance8(grid8):
    return resonance_model(grid8, lam0=1.0)


def _disc_fixture(name):
    @pytest.fixture(scope="session", name=f"disc_{name}")
    def fx(request):
        return Discretization(request.getfixturevalue(f"{name}8"))
    return fx


disc_regular = _disc_fixture("regular")
disc_first = _disc_fixture("first")
disc_second = _disc_fixture("second")
disc_third = _disc_fixture("third")
disc_resonance = _disc_fixture("resonance")


@pytest.fixture(scope="session")
def cls_first(disc_first):
    return classify_zero(disc_first)


@pytest.fixture(scope="session")
def cls_second(disc_second):
    return classify_zero(disc_second)


@pytest.fixture(scope="session")
def cls_third(disc_third):
    return classify_zero(disc_third)


@pytest.fixture(scope="session")
def coeffs_first(cls_first, disc_first):
    return threshold_resolvent_expansion(disc_first, cls_first)


@pytest.fixture(scope="session")
def coeffs_second(cls_second, disc_second):
    return threshold_resolvent_expansion(disc_second, cls_second)


@pytest.fixture(scope="session")
def coeffs_third(cls_third, disc_third):
    return threshold_resolvent_expansion(disc_third, cls_third)


@pytest.fixture(scope="session")
def res_coeffs(disc_resonance):
    return resonance_resolvent_expansion(disc_resonance, 1.0)


# --------------------------------------------------------------------------
# coarse-grid models and propagators: each propagator takes one dense solve
# per line node (32 per time) and per census node, so large-time runs stay
# on the coarse grid to keep the suite fast

@pytest.fixture(scope="session")
def first6(grid6):
    return first_kind_model(grid6)


@pytest.fixture(scope="session")
def second6(grid6):
    return second_kind_model(grid6)


@pytest.fixture(scope="session")
def coeffs_first6(first6):
    disc = Discretization(first6)
    return threshold_resolvent_expansion(disc), disc


@pytest.fixture(scope="session")
def coeffs_second6(second6):
    disc = Discretization(second6)
    return threshold_resolvent_expansion(disc), disc


@pytest.fixture(scope="session")
def cut_first6(coeffs_first6):
    coeffs, disc = coeffs_first6
    return CutPropagator(disc, coeffs)


@pytest.fixture(scope="session")
def cut_second6(coeffs_second6):
    coeffs, disc = coeffs_second6
    return CutPropagator(disc, coeffs)


@pytest.fixture(scope="session")
def walk_second6(cut_second6, coeffs_second6):
    """{t: U(t)} of second6 on the ladder geomspace(10, 1000, 7) by the
    oracle branch-cut walk (`oracles.branch_cut_walk`, about 8 s), with the
    eigenvalues of the propagator's pole scan as its residue rings."""
    coeffs, disc = coeffs_second6
    eigenvalues = [k * k for k, _, _ in cut_second6.poles]
    return oracles.branch_cut_walk(disc, coeffs, eigenvalues,
                                   np.geomspace(10.0, 1000.0, 7))
