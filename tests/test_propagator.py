"""Generalized oscillatory integrals, the propagator on the steepest-descent
k-line and decay / high-energy fits."""
import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from specthresh import propagator
from specthresh.birman_schwinger import Discretization
from specthresh.kernels import BranchPoint
from specthresh.model import build_grid, weighted_operator_norm
from specthresh.grushin import threshold_resolvent_expansion
from specthresh.symmetry import ReflectionGroup
from specthresh.models import (first_kind_model, free_model, regular_model,
                               resonance_model, third_kind_model)
from specthresh.propagator import (_WEIGHT_CUT, CutPropagator, _residue,
                                   check_high_energy, free_propagator,
                                   free_propagator_rule,
                                   generalized_integral, resolvent_taylor,
                                   verify_large_time)


# --------------------------------------------------------------------------
# generalized integrals

@pytest.mark.parametrize("j", [-1, 0, 1, 2])
@pytest.mark.parametrize("t", [0.5, 1.0, 10.0])
def test_generalized_integral_against_rotated_ray(j, t):
    got = generalized_integral(j, t)
    want = oracles.halfline_power_integral(j, t)
    assert abs(got - want) < 1e-10 * abs(want)


def test_generalized_integral_closed_forms():
    # j = 0: int e^{-itlam} dlam = 1/(it); j = -1: sqrt(pi/t) e^{-i pi/4}
    t = 2.0
    assert abs(generalized_integral(0, t) - 1.0 / (1j * t)) < 1e-14
    want = np.sqrt(np.pi / t) * np.exp(-1j * np.pi / 4.0)
    assert abs(generalized_integral(-1, t) - want) < 1e-14


def test_principal_value_integral():
    got = generalized_integral(pv=True, t=3.0)
    assert abs(got + 2j * np.pi) < 1e-14
    want = oracles.pv_plus_i0_integral(3.0)
    assert abs(got - want) < 1e-8


def test_generalized_integral_validation():
    with pytest.raises(ValueError):
        generalized_integral(0, -1.0)
    with pytest.raises(ValueError):
        generalized_integral(-2, 1.0)


# --------------------------------------------------------------------------
# free propagator and boundary resolvent derivatives

def test_free_propagator_is_unitary_group_kernel():
    grid = build_grid(3.0, 6)
    # group property sampled on a vector: U(t1+t2) f ~ U(t1) U(t2) f fails on
    # a truncated grid, but the exact kernel obeys |det factor| scaling
    t = 50.0
    U = free_propagator(grid, t)
    amp = np.abs(U[0, 1] / grid.weights[1])
    assert np.isclose(amp, (4.0 * np.pi * t) ** -1.5, rtol=1e-12)


def test_free_propagator_blocks_match_the_kernel():
    # resolution 5 has nodes on the mirror planes, so orbits of every size
    grid = build_grid(3.0, 5)
    disc = Discretization(free_model(grid))
    for t in (10.0, 1000.0):
        U = free_propagator(grid, t)
        got = disc.sectors.expand(disc.gather(free_propagator_rule(t)))
        assert np.linalg.norm(got - U) <= 1e-14 * np.linalg.norm(U)


def test_free_decay_slope():
    grid = build_grid(3.0, 6)
    rep = verify_large_time(Discretization(free_model(grid)))
    assert abs(rep.slope_fit + 1.5) < 0.05
    assert rep.r_squared > 0.999


# --------------------------------------------------------------------------
# propagator on the steepest-descent k-line

# ||U(t)|| (s = 3) of the resolution-4 first-kind model over the default
# ladder: the line, -R_{-2} and the residue of the one crossed zero
LADDER = np.geomspace(10.0, 1000.0, 7)
FROZEN_NORMS_FIRST4 = [
    0.009342714552577038, 0.006364715902652505, 0.004336303704390443,
    0.002954341795460961, 0.0020127905234502592, 0.0013713054559337013,
    0.000934261911974254]
# the same norms from the 761-node branch-cut walk this propagator replaced,
# which is first order in its mesh (about 2.5e-4 relative)
WALK_NORMS_FIRST4 = [
    0.009343516886384856, 0.0063652787287237994, 0.004336561515902878,
    0.0029545225734302553, 0.0020129144986420363, 0.0013713901926939275,
    0.0009343188491757032]


@pytest.fixture(scope="module")
def cut_first4():
    model = first_kind_model(build_grid(3.0, 4))
    disc = Discretization(model)
    cp = CutPropagator(disc, threshold_resolvent_expansion(disc))
    return model, cp, cp.propagate_many(LADDER)


def test_cut_propagator_frozen_norms(cut_first4):
    model, cp, Us = cut_first4
    assert cp.jump == {}
    norms = [weighted_operator_norm(Us[t], model.grid, 3.0, -3.0)
             for t in LADDER]
    np.testing.assert_allclose(norms, FROZEN_NORMS_FIRST4, rtol=1e-10)
    np.testing.assert_allclose(WALK_NORMS_FIRST4, FROZEN_NORMS_FIRST4,
                               rtol=5e-4)


def test_propagate_matches_ladder(cut_first4):
    _, cp, Us = cut_first4
    t = LADDER[3]
    U = cp.propagate(t)
    assert np.linalg.norm(U - Us[t]) < 1e-12 * np.linalg.norm(U)


def test_rotation_angle_invariance_first4(cut_first4):
    # U(t) does not depend on the angle of the line once the residues of the
    # zeros between the angles are added: the package's Gauss-Hermite line
    # at pi/4 against half-ray Gauss-Laguerre (alpha = -1/2) lines at pi/4
    # and pi/6.  first4 has one crossed zero, between the two angles.
    model, cp, Us = cut_first4
    disc, group = cp.disc, cp.disc.sectors
    R_m2 = group.expand(cp.coeffs.R_m2)
    assert cp.poles == []
    (zero,) = cp._crossed
    assert -np.pi / 4 < np.angle(zero[0]) < -np.pi / 6
    for t in LADDER:
        U = Us[t]
        shallow = oracles.rotated_line(disc, t, np.pi / 6) - R_m2
        steep = oracles.rotated_line(disc, t, np.pi / 4) - R_m2
        assert np.linalg.norm(shallow - U) <= 1e-6 * np.linalg.norm(U), t
        # the ring moments are flat sector blocks
        residue = group.expand(_residue(*zero, t))
        err = np.linalg.norm(steep - residue - U)
        assert err <= 1e-6 * np.linalg.norm(U), t
    # at t = 10 the crossed residue (the same Frobenius norm on the blocks)
    # is well above that tolerance
    assert np.linalg.norm(_residue(*zero, LADDER[0])) \
        > 1e-5 * np.linalg.norm(Us[LADDER[0]])


def test_line_plus_residues_match_branch_cut_walk_second6(cut_second6,
                                                         walk_second6):
    # the census of second6 crosses resonances (k = 0.5206 - 0.2056i, double,
    # weight e^-2.1 at t = 10, and three more); line plus residues must match
    # the oracle branch-cut walk, which never leaves the real axis
    cp = cut_second6
    Us = cp.propagate_many(LADDER)
    census = cp.census
    assert census["winding"] == census["structural_order"] == 2
    ks = [c["k"] for c in census["crossed"]]
    assert min(abs(k - (0.5206 - 0.2056j)) for k in ks) < 1e-4
    assert all(c["weight"] >= _WEIGHT_CUT for c in census["crossed"])
    assert all(c["weight"] < _WEIGHT_CUT or -c["k"].imag >= c["k"].real
               for c in census["left_out"])
    walk = walk_second6
    assert sorted(walk) == list(LADDER)
    grid = cp.disc.grid
    for t in LADDER:
        err = (weighted_operator_norm(Us[t] - walk[t], grid, 3.0, -3.0)
               / weighted_operator_norm(walk[t], grid, 3.0, -3.0))
        assert err <= 5e-4, t
    t = LADDER[0]
    group = cp.disc.sectors
    bare = Us[t] + group.expand(sum(_residue(*c, t) for c in cp._crossed))
    assert weighted_operator_norm(bare - walk[t], grid, 3.0, -3.0) \
        > 1e-2 * weighted_operator_norm(walk[t], grid, 3.0, -3.0)


def test_census_winding_must_match_structural_order(cut_first4):
    # first4 has a simple zero at k = 0; with a regular threshold's Lidskii
    # order the winding count on |k| = r0 (1) contradicts it (0)
    _, cp, _ = cut_first4
    assert cp.census["winding"] == cp.census["structural_order"] == 1
    coeffs = dataclasses.replace(cp.coeffs, scaling=dataclasses.replace(
        cp.coeffs.scaling, order_structural=0.0))
    with pytest.raises(ValueError, match="winding count 1 .* order 0"):
        CutPropagator(cp.disc, coeffs).propagate(10.0)


def test_real_zero_on_path_raises():
    # an embedded resonance at lambda0 = 1 is a real zero of M(k): the cut
    # integral has a pole there, so no U(t) is returned
    disc = Discretization(resonance_model(build_grid(3.0, 4), lam0=1.0))
    coeffs = threshold_resolvent_expansion(disc)
    assert coeffs.kind == "regular"
    with pytest.raises(ValueError, match="resonance at lambda0 = 1"):
        CutPropagator(disc, coeffs).propagate_many(LADDER)


# a 2 x 2 operator without symmetry: one sector block, held column-major
_ONE_BLOCK = ReflectionGroup({0: np.arange(2)})


def _ring_stub(R):
    cp = CutPropagator.__new__(CutPropagator)
    cp.disc = SimpleNamespace(
        R_sums=lambda ks, weights: weights @ np.array(
            [_ONE_BLOCK.blocks(R(k)) for k in ks], dtype=complex),
        sectors=_ONE_BLOCK, grid=SimpleNamespace(n=2))
    return cp


def test_ring_moments_and_residue_of_a_double_pole():
    # R = C2/(k - k0)^2 + C1/(k - k0) + analytic: the ring moments are C1
    # and C2, and the residue of 2k e^{-itk^2} R matches a fine contour sum;
    # at t = 1e4 it stays finite (|e^{-itk0^2}| < 1 in the swept sector)
    rng = np.random.default_rng(5)
    C2, C1, C0 = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal(
        (3, 2, 2))
    k0 = 0.6 - 0.2j
    cp = _ring_stub(lambda k: C2 / (k - k0) ** 2 + C1 / (k - k0)
                    + C0 * np.exp(k))
    A1, A2 = (_ONE_BLOCK.expand(A)
              for A in cp._ring_moments(k0, [k0 + 0.15]))
    assert np.linalg.norm(A1 - C1) <= 1e-12 * np.linalg.norm(C1)
    assert np.linalg.norm(A2 - C2) <= 1e-12 * np.linalg.norm(C2)
    th = 2.0 * np.pi * np.arange(512) / 512
    k = k0 + 0.1 * np.exp(1j * th)
    for t in (1.0, 10.0):
        f = [2.0 * kq * np.exp(-1j * t * kq * kq)
             * (C2 / (kq - k0) ** 2 + C1 / (kq - k0) + C0 * np.exp(kq))
             * (kq - k0) / 512 for kq in k]
        want = sum(f)
        assert np.linalg.norm(_residue(k0, A1, A2, t) - want) \
            <= 1e-10 * np.linalg.norm(want)
    assert np.all(np.isfinite(_residue(k0, A1, A2, 1e4)))


def test_eigenvalue_crossed_by_the_other_half_line_cancels():
    # an eigenvalue with 3 pi/4 < arg k < pi (Re z > 0 > Im z) is swept by
    # the rotation of the negative half-line: its pole term and its crossing
    # term cancel, so only the eigenvalue at k = -0.02 + 0.98i contributes
    cp = _ring_stub(lambda k: np.zeros((2, 2)))
    cp.coeffs = SimpleNamespace(R_m2=np.zeros(4))     # flat blocks
    cp.census = {"t_min": 1.0}
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 2, 2)) + 0j
    swept, kept = -0.9 + 0.3j, -0.02 + 0.98j
    A = [_ONE_BLOCK.blocks(a) for a in A]      # moments as flat blocks
    cp.poles, cp._crossed = [(swept, A[0], A[1]), (kept, A[2], A[3])], []
    U = cp.propagate(2.0)
    assert np.array_equal(U.ravel(order="F"),
                          -_residue(kept, A[2], A[3], 2.0))


def test_ring_moments_reject_a_triple_pole():
    cp = _ring_stub(lambda k: np.eye(2) / (k - 0.6 + 0.2j) ** 3)
    with pytest.raises(ValueError, match="order 3"):
        cp._ring_moments(0.6 - 0.2j, [])


def test_pole_scan_finds_second6_eigenvalue(cut_second6):
    # the one eigenvalue of H off the cut, left of the positive axis, below
    # the zero-free height
    assert len(cut_second6.poles) == 1
    k, A1, A2 = cut_second6.poles[0]
    assert abs(k * k - (-0.960231 - 0.048039j)) < 1e-5
    zero_free = cut_second6.zero_free
    assert zero_free["pole_nodes"] == 512 and zero_free["rho_bound"] >= 1.0
    assert 0.15 < k.imag < zero_free["y_star"]
    # a simple pole of R: no A_{-2}
    assert np.linalg.norm(A2) <= 1e-8 * np.linalg.norm(A1)


def test_pole_scan_rejects_a_growing_mode(cut_first4, monkeypatch):
    # third6's eigenvalue k = 1.36 + 0.18i has Im z = 2 Re k Im k > 0:
    # e^{-itz} grows, so no residue of it may enter U(t); a bound of at
    # least 1 makes the ellipse run
    _, cp, _ = cut_first4
    k = 1.36 + 0.18j
    monkeypatch.setattr(Discretization, "perron_bound",
                        lambda self, y: 1.0)
    monkeypatch.setattr(propagator, "_contour_zeros",
                        lambda *a, **kw: ([(k, np.array([1.0, 0.0]))], 1))
    with pytest.raises(ValueError, match=r"eigenvalue with Im z > 0 \(a "
                                         r"growing mode\)"):
        CutPropagator(cp.disc, cp.coeffs)


def _record_contours(monkeypatch):
    """The (centre, semi-axes) of every ellipse handed to _contour_zeros or
    (a census tile's half rules) to _contour_moments from now on, in a list
    that fills as they come."""
    searched = []

    def recording(contour):
        def wrapped(disc, center, ax, ay, *args, **kwargs):
            searched.append((complex(center), ax, ay))
            return contour(disc, center, ax, ay, *args, **kwargs)
        return wrapped

    for name in ("_contour_zeros", "_contour_moments"):
        monkeypatch.setattr(propagator, name,
                            recording(getattr(propagator, name)))
    return searched


def test_certified_pole_scan_skips_the_ellipse(cut_first4, monkeypatch):
    # the Perron bound at Im k = 0.15 is below 1 on first4: the ellipse
    # holds no zero and no contour is run on it
    _, cp, _ = cut_first4
    searched = _record_contours(monkeypatch)
    fresh = CutPropagator(cp.disc, cp.coeffs)
    fresh.propagate(LADDER[0])
    assert searched and propagator._POLE_ELLIPSE not in searched
    assert fresh.poles == []
    zero_free = fresh.census["zero_free"]
    assert zero_free == fresh.zero_free
    assert zero_free["pole_nodes"] == 0 and zero_free["y_floor"] == 0.15
    assert zero_free["rho_bound"] < 1.0
    assert zero_free["margin"] == 1.0 - zero_free["rho_bound"]
    assert 0.0 < zero_free["y_star"] < 0.15


def test_forced_pole_scan_leaves_first6_unchanged(cut_first6, monkeypatch):
    # U(t) on the ladder, bit for bit, whether the certificate skips the
    # ellipse or an infinite bound forces its 512 nodes
    certified = copy.copy(cut_first6)
    want = certified.propagate_blocks(LADDER)
    monkeypatch.setattr(Discretization, "perron_bound",
                        lambda self, y: np.inf)
    forced = CutPropagator(cut_first6.disc, cut_first6.coeffs)
    got = forced.propagate_blocks(LADDER)
    assert certified.zero_free["pole_nodes"] == 0
    assert forced.zero_free["pole_nodes"] == 512
    assert forced.zero_free["y_star"] is None and forced.poles == []
    for t in LADDER:
        assert np.array_equal(got[t], want[t])


def test_band_search_finds_third6_growing_mode():
    # third6's zero k = 0.3104 + 0.1346i (Im z > 0) lies above the seam
    # Im k = 0.05 and below the pole ellipse: the census tile of its column
    # covers it
    disc = Discretization(third_kind_model(build_grid(3.0, 6)))
    (rect,) = [r for r in propagator._census_rects(10.0)
               if r[0] <= 0.3104 < r[1]]
    assert rect[2] < propagator._SEAM < 0.1346 < rect[3]
    zeros, stats = propagator._tile_zeros(disc, [rect])
    assert stats["tiles"] >= 1
    assert min(abs(k - (0.3104 + 0.1346j)) for k in zeros) < 1e-4


def test_census_raises_on_a_growing_mode_in_the_band(cut_first4,
                                                    monkeypatch):
    _, cp, _ = cut_first4
    assert cp.census["tiles"] >= propagator._TILES
    tile_zeros = propagator._tile_zeros

    def with_band_zero(disc, rects):
        zeros, stats = tile_zeros(disc, rects)
        return zeros + [0.3104 + 0.1346j], stats

    monkeypatch.setattr(propagator, "_tile_zeros", with_band_zero)
    with pytest.raises(ValueError, match=r"eigenvalue with Im z > 0 \(a "
                                         r"growing mode\)"):
        CutPropagator(cp.disc, cp.coeffs).propagate(10.0)


def _assert_same_zeros(census, crossed, left_out):
    """The census's crossed zeros are `crossed` ((k, residue norm) pairs),
    each within 1e-8 |k| and its residue norm within 1e-6, and its left-out
    zeros are `left_out`, each within 1e-8 |k|."""
    assert len(census["crossed"]) == len(crossed)
    assert len(census["left_out"]) == len(left_out)
    for k, norm in crossed:
        (got,) = [c for c in census["crossed"]
                  if abs(c["k"] - k) <= 1e-8 * abs(k)]
        assert abs(got["residue_norm"] - norm) <= 1e-6 * norm
    for k in left_out:
        assert min(abs(c["k"] - k) for c in census["left_out"]) \
            <= 1e-8 * abs(k)


@pytest.mark.parametrize("name", ["first6", "second6"])
def test_merged_census_matches_two_row_tiling(name, request):
    # one tile per column from the weight cut up to the pole ellipse finds
    # the zeros and residues of the census and band rows verified apart
    cp = copy.copy(request.getfixturevalue(f"cut_{name}"))
    cp._take_census(10.0)
    census = cp.census
    want, left_out, nodes = oracles.two_row_census(cp, 10.0)
    _assert_same_zeros(census, want, left_out)
    assert census["nodes"] <= nodes
    if name == "first6":
        assert census["nodes"] == 288 and census["failed_tiles"] == 0
        assert census["tiles"] == propagator._TILES and nodes == 1024


def test_census_splits_a_failing_tile_at_the_seam(cut_first6, monkeypatch):
    # a tile across Im k = 0.05 that fails is split there before any retry
    # with more nodes: on first6, two verified 64-node tiles per column (the
    # two-row tiling, which needs no retry there) find the merged census's
    # zeros.  Each merged tile fails on its even 32 nodes and then on all
    # 64; each seam half stands on its even 32 nodes, but the one below the
    # seam in column [1.10, 1.70], which is decided on all 64
    cp = cut_first6
    rects = propagator._census_rects(10.0)
    want, _ = propagator._tile_zeros(cp.disc, rects)
    contour_verdict = propagator._contour_verdict
    calls = []

    def failing_across_the_seam(disc, center, ax, ay, moments):
        half = ay / np.sqrt(2.0)
        y0, y1 = center.imag - half, center.imag + half
        spans = y0 < propagator._SEAM - 1e-12 and y1 > propagator._SEAM + 1e-12
        calls.append((center.real, y0, y1, len(moments.arg_det), spans))
        if spans:
            raise ValueError("moment rank 2 but per-class winding total 1")
        return contour_verdict(disc, center, ax, ay, moments)

    monkeypatch.setattr(propagator, "_contour_verdict",
                        failing_across_the_seam)
    zeros, stats = propagator._tile_zeros(cp.disc, rects)
    assert stats == {"tiles": 2 * len(rects), "failed_tiles": len(rects),
                     "half_verified": 2 * len(rects) - 1,
                     "escalated": len(rects) + 1,
                     "nodes": 64 * len(rects) + 32 * (2 * len(rects) - 1)
                     + 64}
    for x0, x1, y0, y1 in rects:
        mine = [c for c in calls if abs(c[0] - (x0 + x1) / 2.0) <= 1e-12]
        # the merged tile on its even half and on all its nodes, then its
        # two halves, above and below the seam
        below = [(64, False)] if (x0, x1) == rects[4][:2] else []
        assert [c[3:] for c in mine] == [(32, True), (64, True), (32, False),
                                          (32, False)] + below
        assert sorted({(round(a, 12), round(b, 12)) for _, a, b, _, _
                       in mine[2:]}) == [(round(y0, 12), propagator._SEAM),
                                         (propagator._SEAM, round(y1, 12))]
    assert len(zeros) == len(want)
    for k in want:
        assert min(abs(k - k2) for k2 in zeros) <= 1e-8 * abs(k)


@pytest.mark.parametrize("name, column, winding", [("first6", 3, 1),
                                                   ("second6", 5, 2)])
def test_half_rules_merge_into_the_tile_rule(name, column, winding,
                                             request):
    # the even nodes (phase 1/4) and the odd nodes (phase 3/4) of a census
    # tile's 64-node rule, merged, are that rule: first6's column
    # [0.71, 1.10] holds the left-out zero, second6's [1.70, 2.64] two
    disc = request.getfixturevalue(f"cut_{name}").disc
    ellipse = propagator._tile_ellipse(*propagator._census_rects(10.0)[column])
    full = propagator._contour_moments(disc, *ellipse, 64)
    even, odd = (propagator._contour_moments(disc, *ellipse, 32, phase=p)
                 for p in (0.25, 0.75))
    merged = even.merge(odd)
    assert merged.winding.tolist() == full.winding.tolist()
    assert full.winding.sum() == winding
    assert np.linalg.norm(merged.A - full.A) \
        <= 1e-13 * np.linalg.norm(full.A)
    assert abs(merged.scale - full.scale) <= 1e-13 * full.scale


def test_close_half_verdict_is_decided_on_all_nodes(cut_first6):
    # first6's column [1.10, 1.70]: on its even 32 nodes sigma_1 of the
    # moments reads 0.6 of the rank gate, a pass but not by the factor
    # _CLEAR, so the tile is decided on all 64; the other seven stand on 32
    disc, rects = cut_first6.disc, propagator._census_rects(10.0)
    even = propagator._contour_moments(
        disc, *propagator._tile_ellipse(*rects[4]), 32, phase=0.25)
    found, _, margins = propagator._contour_verdict(
        disc, *propagator._tile_ellipse(*rects[4]), even)
    assert found == [] and 1.0 / propagator._CLEAR < margins["rank"] < 1.0
    for j, rect in enumerate(rects):
        _, stats = propagator._tile_zeros(disc, [rect])
        want = (0, 1, 64) if j == 4 else (1, 0, 32)
        assert (stats["half_verified"], stats["escalated"],
                stats["nodes"]) == want, j
        assert stats["tiles"] == 1 and stats["failed_tiles"] == 0


@pytest.fixture(scope="module")
def cut_regular6(grid6):
    disc = Discretization(regular_model(grid6))
    return CutPropagator(disc, threshold_resolvent_expansion(disc))


@pytest.fixture(scope="module")
def cut_first8(coeffs_first, disc_first):
    return CutPropagator(disc_first, coeffs_first)


@pytest.mark.parametrize("name", ["first6", "first8", "regular6", "second6"])
def test_half_rule_census_matches_the_full_rule(name, request):
    # the census with its half rules against every tile decided on all its
    # nodes (`oracles.full_rule_census`): the same tiles, failed tiles and
    # zeros, and no more nodes
    cp = copy.copy(request.getfixturevalue(f"cut_{name}"))
    cp._take_census(10.0)
    census = cp.census
    crossed, left_out, stats = oracles.full_rule_census(cp, 10.0)
    for key in ("tiles", "failed_tiles"):
        assert census[key] == stats[key], key
    assert census["nodes"] <= stats["nodes"]
    _assert_same_zeros(census, crossed, left_out)


def test_census_geometry_draws_the_searched_ellipses(cut_first4,
                                                    monkeypatch):
    # every closed curve of the contour plot is an ellipse (centre,
    # semi-axes) that the pole scan or the census handed to _contour_zeros;
    # first4's certificate skips the pole ellipse: it is not drawn, but the
    # open line Im k = y* is
    _, cp, _ = cut_first4
    searched = _record_contours(monkeypatch)
    scanned = CutPropagator(cp.disc, cp.coeffs)
    scanned.propagate(LADDER[0])
    census = scanned.census
    curves = propagator.census_geometry(census)
    closed = [(label, ks) for label, ks in curves
              if label not in ("line_nodes", "zero_free_height")]
    labels = [label for label, _ in closed]
    assert census["zero_free"]["pole_nodes"] == 0
    assert labels == ["winding_circle"] + [
        f"census_tile_{j}" for j in range(propagator._TILES)]
    (line,) = [ks for label, ks in curves if label == "zero_free_height"]
    assert np.all(line.imag == census["zero_free"]["y_star"])
    assert line[0].real < 0.0 < line[-1].real
    for label, ks in closed:
        # nodes 0, 16, 32, 48 of the 64 lie on the axes of the ellipse
        center = (ks[0] + ks[32]) / 2.0
        ax, ay = (ks[0] - ks[32]).real / 2.0, (ks[16] - ks[48]).imag / 2.0
        assert any(abs(center - c) <= 1e-12 and abs(ax - a) <= 1e-12 * a
                   and abs(ay - b) <= 1e-12 * b for c, a, b in searched), label
    # each drawn census tile reaches from the weight cut to the ellipse
    for (x0, x1, y0, y1), (label, ks) in zip(
            propagator._census_rects(census["t_min"]), closed[1:]):
        assert y0 < propagator._SEAM < y1
        assert abs((ks[16] + ks[48]).imag / 2.0 - (y0 + y1) / 2.0) <= 1e-12
    # a searched ellipse is drawn, and no y* draws no line
    record = dict(census, zero_free=dict(census["zero_free"],
                                         pole_nodes=512, y_star=None))
    labels = [label for label, _ in propagator.census_geometry(record)]
    assert labels == ["winding_circle", "pole_ellipse"] + [
        f"census_tile_{j}" for j in range(propagator._TILES)] + [
        "line_nodes"]


def test_verify_large_time_rejects_a_propagator_of_another_run(cut_first4):
    model, cp, _ = cut_first4
    with pytest.raises(ValueError, match="another discretization"):
        verify_large_time(Discretization(model), cp.coeffs, propagator=cp)
    with pytest.raises(ValueError, match="other coefficients"):
        verify_large_time(cp.disc, dataclasses.replace(cp.coeffs),
                          propagator=cp)


def test_pole_scan_first6_is_empty(cut_first6):
    assert cut_first6.poles == []


def test_propagate_many_rejects_nonpositive_times(cut_first4):
    _, cp, _ = cut_first4
    for ts in ([10.0, 0.0], [-1.0], [np.nan]):
        with pytest.raises(ValueError, match="positive"):
            cp.propagate_many(ts)
    with pytest.raises(ValueError, match="positive"):
        cp.propagate(0.0)


@pytest.mark.parametrize("th", [0.0, 1e-6, 9.9e-5, 1.01e-4, 1e-3, 1e-2, 0.5,
                                1.0, 30.0])
def test_filon_moments_against_series_and_quadrature(th):
    # the Filon moments of the branch-cut oracle (series for |th| <= 1,
    # closed forms above) against QAWO quadrature
    got = oracles.filon_moments(th)
    for p in range(3):
        assert abs(got[p] - oracles.filon_moment_quad(th, p)) <= 1e-14, p


def test_resolvent_taylor_matches_finite_difference():
    grid = build_grid(2.5, 5)
    model = regular_model(grid, strength=0.4 + 0.2j)
    disc = Discretization(model)
    lam = 2.0
    T1 = resolvent_taylor(disc, lam, 1, side="+")[1]
    T1 = disc.sectors.expand(T1)
    want = oracles.central_derivative(
        lambda l: disc.R(BranchPoint.boundary(l, "+")), lam, h=1e-4)
    assert np.linalg.norm(T1 - want) < 1e-6 * np.linalg.norm(want)


def test_resolvent_taylor_raises_at_a_singular_m0():
    # M_0 = Id + G_0^+ V is singular at the tuned resonance lam0 = 1 (rcond
    # about 1e-16 at n = 64): the checked block LU raises, as R does there,
    # instead of returning T_0 entries of order 1e14
    disc = Discretization(resonance_model(build_grid(3.0, 4), lam0=1.0))
    with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
        resolvent_taylor(disc, 1.0, 0)
    with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
        disc.R(BranchPoint.boundary(1.0, "+"))


def test_resolvent_taylor_minus_side_is_conjugate_for_real_V():
    grid = build_grid(2.0, 4)
    import specthresh.models as m
    from specthresh.model import Model, sample_potential
    V = 0.5 * np.exp(-grid.radii() ** 2)
    model = Model(grid=grid, potential=sample_potential(grid, V.astype(complex)))
    disc = Discretization(model)
    Tp, Tm = (disc.sectors.expand(resolvent_taylor(disc, 1.5, 0,
                                                   side=side)[0])
              for side in "+-")
    assert np.allclose(Tm, np.conj(Tp))


def test_high_energy_exponents_free():
    disc = Discretization(free_model(build_grid(3.0, 8)))
    fits = check_high_energy(disc, orders=(0, 1))
    assert [he["r"] for he in fits] == [0, 1]
    assert all(he["pass"] for he in fits)
    for orders in ((3,), (0, 3), ()):
        with pytest.raises(ValueError):
            check_high_energy(disc, orders=orders)
