"""Grushin reduction, Laurent inversion, determinant scaling and the
threshold / resonance resolvent expansions."""
import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

import oracles
import specthresh.grushin as grushin
from specthresh.birman_schwinger import Discretization, classify_zero
from specthresh.grushin import (GrushinReduction, invert_E_minus_plus,
                                lidskii_determinant,
                                threshold_resolvent_expansion,
                                verify_grushin_identity)
from specthresh.kernels import BranchPoint
from specthresh.model import build_grid
from specthresh.models import (first_kind_model, resonance_model,
                               third_kind_model)
from specthresh.series import ExpansionSeries
from specthresh.symmetry import ReflectionGroup


def _reduction(disc, coeffs, point="threshold", cap=6):
    return GrushinReduction(disc, coeffs.basis, point=point, cap=cap)


# --------------------------------------------------------------------------
# Grushin identity

def test_grushin_identity_first_kind(disc_first, coeffs_first):
    red = _reduction(disc_first, coeffs_first)
    for z in (-1e-2, -1e-3, 1e-3 + 2e-3j, -1e-2 + 1e-2j):
        assert verify_grushin_identity(red, z) < 1e-10


def test_grushin_identity_on_boundary_sides(disc_first, coeffs_first):
    red = _reduction(disc_first, coeffs_first)
    for side in ("+", "-"):
        assert verify_grushin_identity(red, 1e-3, side=side) < 1e-10


# --------------------------------------------------------------------------
# bordered operator P = [[M, S], [T, 0]]: point values and series blocks

# criterion 01's points: z for the threshold models, offsets from lam0 = 1
_Z_THRESHOLD = ([-10.0 ** (-p) for p in (1, 1.5, 2, 2.5, 3)]
                + [10.0 ** (-p) * (1 + 1j) for p in (2, 3)]
                + [-1e-2 + 1e-2j, 1e-3 - 1e-3j, -3e-3, 2e-3])
_XI_RESONANCE = [-1e-3, -1e-4, 1e-4 + 1e-4j, -2e-4 + 3e-4j, 5e-4j,
                 -5e-4 - 2e-4j, 1e-3j, 3e-4, -7e-4, 2e-4 - 2e-4j]


@pytest.fixture(scope="module", params=["first", "third", "resonance"])
def bordered(request):
    """(reduction at the cap of its expansion, criterion 01's points)."""
    if request.param == "resonance":
        red = _reduction(request.getfixturevalue("disc_resonance"),
                         request.getfixturevalue("res_coeffs"), point=1.0,
                         cap=6)
        return red, _XI_RESONANCE
    red = _reduction(request.getfixturevalue(f"disc_{request.param}"),
                     request.getfixturevalue(f"coeffs_{request.param}"),
                     cap=8)
    return red, _Z_THRESHOLD


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_bordered_point_values_match_schur_complement(bordered):
    # E_-+ = -(T M^{-1} S)^{-1} and E = M^{-1} - M^{-1} S (T M^{-1} S)^{-1}
    # T M^{-1}: the Schur-complement forms of the bordered inverse
    red, zs = bordered
    S, T = red.S, red.T
    for z in zs:
        bp = red.bp_of(z)
        Minv = np.linalg.inv(red.disc.M(bp))
        C = np.linalg.inv(T @ Minv @ S)
        assert _rel(red.Emp_at(bp), -C) <= 1e-9
        assert _rel(red.group.expand(red.E_at(bp)),
                    Minv - Minv @ S @ C @ T @ Minv) <= 1e-9


def _lifted_grushin_series(red):
    """{order: matrix} of E_+ (n x m), E_-+ (m x m), E R0 (n x n) and
    E_- R0 (m x n), lifted to the nodes from the reduction's sector
    blocks: the two series solves against the bordered P_s(u)."""
    group, m = red.group, red.S.shape[1]
    out = {"E_plus": {}, "E_minus_plus": red.Emp_series.coeffs,
           "E_R0": {}, "E_minus_R0": {}}
    for j, (corner, r0) in enumerate(zip(red.corner_blocks,
                                         red.r0_blocks(red.cap))):
        Ep, ER, EmR = [], [], []
        for C, X, c in zip(corner, r0, red.columns):
            k = len(C) - len(c)
            Ep.append(np.zeros((k, m), dtype=complex))
            Ep[-1][:, c] = C[:k]
            ER.append(X[:k])
            EmR.append(np.zeros((k, m), dtype=complex))
            EmR[-1][:, c] = X[k:].T
        out["E_plus"][j] = group.from_sectors(Ep)
        out["E_R0"][j] = group.expand(group.join(ER))
        out["E_minus_R0"][j] = group.from_sectors(EmR).T
    return out


def test_bordered_series_blocks_match_projected_oracle(bordered):
    red, _ = bordered
    V = red.disc.V[None, :]
    r0 = {j: red.group.expand(red._r0[j]) for j in range(red.cap + 1)}
    m_coeffs = {j: R * V for j, R in r0.items()}
    m_coeffs[0] = m_coeffs[0] + np.eye(red.disc.grid.n)
    ref = oracles.projected_grushin_series(m_coeffs, red.S, red.T,
                                           red.cap)
    want = {"E_plus": ref["E_plus"], "E_minus_plus": ref["E_minus_plus"],
            "E_R0": oracles.polynomial_matmul(ref["E"], r0, red.cap),
            "E_minus_R0": oracles.polynomial_matmul(ref["E_minus"], r0,
                                                    red.cap)}
    got = _lifted_grushin_series(red)
    for name, ref in want.items():
        scale = max(np.linalg.norm(c) for c in ref.values())
        for j in range(red.cap + 1):
            # E_-+ at order 0 is a roundoff zero
            if np.linalg.norm(ref[j]) >= 1e-12 * scale:
                assert _rel(got[name][j], ref[j]) <= 1e-9, (name, j)


# --------------------------------------------------------------------------
# Laurent inversion of E_-+

def test_laurent_pole_orders_by_kind(disc_first, coeffs_first,
                                     disc_second, coeffs_second):
    redf = _reduction(disc_first, coeffs_first)
    _, qf = invert_E_minus_plus(redf)
    assert qf == 1                      # simple resonance: det ~ sqrt(z)
    reds = _reduction(disc_second, coeffs_second)
    _, qs = invert_E_minus_plus(reds)
    assert qs == 2                      # eigenvalue: det ~ z


def test_laurent_order_is_checked_off_the_negative_axis(
        monkeypatch, disc_first, coeffs_first):
    # E_-+ exact on the negative axis, 1% off elsewhere: no order may pass
    red = _reduction(disc_first, coeffs_first)
    exact = GrushinReduction.Emp_at

    def skewed(self, bp):
        Emp = exact(self, bp)
        return Emp if bp.z.imag == 0.0 else 1.01 * Emp

    monkeypatch.setattr(GrushinReduction, "Emp_at", skewed)
    with pytest.raises(ValueError, match="no Laurent order"):
        invert_E_minus_plus(red)


def test_laurent_order_forms_each_direct_inverse_once(
        monkeypatch, disc_third, coeffs_third):
    # third8 tries the orders q = 0, 1, 2 against the same three points
    red = GrushinReduction(disc_third, coeffs_third.basis)
    calls = []
    exact = GrushinReduction.Emp_at

    def counting(self, bp):
        calls.append(bp.z)
        return exact(self, bp)

    monkeypatch.setattr(GrushinReduction, "Emp_at", counting)
    _, q = invert_E_minus_plus(red)
    assert q == coeffs_third.constants["q"] == 2
    assert len(calls) == len(set(calls)) == 3


@pytest.mark.parametrize("method", ["E_at", "Emp_at"])
def test_direct_evaluations_raise_on_ill_conditioned_bordered_block(
        monkeypatch, disc_first, coeffs_first, method):
    # the bordered block of sector 0, which holds the chain, replaced by
    # the identity with 2^-53 at (0, 0): rcond 2^-53 < eps, which
    # scipy.linalg.solve only warns about
    red = _reduction(disc_first, coeffs_first)
    assert coeffs_first.basis.sectors == [0]
    exact = GrushinReduction._bordered_at

    def skewed(self, bp):
        P = exact(self, bp)
        P[0] = np.eye(len(P[0]), dtype=complex)
        P[0][0, 0] = 2.0 ** -53
        return P

    monkeypatch.setattr(GrushinReduction, "_bordered_at", skewed)
    bp = red.bp_of(-1e-3)
    P0 = red._bordered_at(bp)[0]
    with pytest.warns(sla.LinAlgWarning):
        sla.solve(P0, np.eye(len(P0)))
    with pytest.raises(np.linalg.LinAlgError, match="P\\(z\\) is "
                       "ill-conditioned"):
        getattr(red, method)(bp)


def test_laurent_inverse_agrees_pointwise(disc_first, coeffs_first):
    red = _reduction(disc_first, coeffs_first)
    F, q = invert_E_minus_plus(red)
    for z in (-1e-3, -4e-4):
        bp = red.bp_of(z)
        direct = np.linalg.inv(red.Emp_at(bp))
        err = (np.linalg.norm(F.eval(red.var_of(bp)) - direct)
               / np.linalg.norm(direct))
        assert err < 1e-6


# --------------------------------------------------------------------------
# Lidskii determinant scaling

def test_lidskii_first_kind(disc_first, coeffs_first):
    sc = coeffs_first.scaling
    assert abs(sc.order_fit - 0.5) < 1e-3
    assert abs(sc.constant_machinery - sc.constant_formula) \
        < 1e-10 * abs(sc.constant_formula)
    assert abs(sc.constant_fit - sc.constant_formula) \
        < 1e-4 * abs(sc.constant_formula)


def test_lidskii_second_kind(disc_second, coeffs_second):
    sc = coeffs_second.scaling
    assert abs(sc.order_fit - 1.0) < 1e-3
    assert abs(sc.constant_machinery - sc.constant_formula) \
        < 1e-10 * abs(sc.constant_formula)


def test_lidskii_third_kind(coeffs_third):
    sc = coeffs_third.scaling
    # k = 2 mixed: det E_-+ ~ z^{k - 1/2}
    assert abs(sc.order_structural - 1.5) < 1e-12
    assert abs(sc.order_fit - 1.5) < 1e-3
    assert abs(sc.constant_machinery - sc.constant_formula) \
        < 1e-8 * abs(sc.constant_formula)


def test_lidskii_resonance(res_coeffs):
    sc = res_coeffs.scaling
    assert sc.order_structural == 1.0
    assert abs(sc.order_fit - 1.0) < 1e-3
    assert abs(sc.constant_machinery - sc.constant_formula) \
        < 1e-10 * abs(sc.constant_formula)


def test_lidskii_raises_below_the_structural_order(monkeypatch, disc_first,
                                                   coeffs_first):
    # a first-kind det E_-+ starts at order 1 in sqrt(z); a live order-0
    # coefficient means the structural prediction is wrong, which must raise
    # rather than be reported as the leading constant
    red = _reduction(disc_first, coeffs_first)
    real = ExpansionSeries.det_series

    def with_order_zero(self):
        c = real(self)
        c[0] = 1e-3 * c[1]
        return c

    monkeypatch.setattr(ExpansionSeries, "det_series", with_order_zero)
    with pytest.raises(ValueError, match=r"at order 0, below the structural "
                                         r"order 1"):
        lidskii_determinant(red, "first")


def test_richardson_ladder_beats_raw_slope(disc_first, coeffs_first):
    red = _reduction(disc_first, coeffs_first)
    sc = lidskii_determinant(red, "first")
    # raw two-point slopes of |det| vs |u| carry O(u) error; the reported fit
    # must be closer to the structural value than the coarsest raw slope
    us, ds = [], []
    for z, d in sc.samples[:2]:
        bp = red.bp_of(z)
        us.append(abs(red.var_of(bp)))
        ds.append(abs(d))
    raw = (np.log(ds[0]) - np.log(ds[1])) / (np.log(us[0]) - np.log(us[1])) / 2.0
    assert abs(sc.order_fit - 0.5) <= abs(raw - 0.5) + 1e-12


# --------------------------------------------------------------------------
# threshold expansions

def test_regular_expansion_has_no_singular_part(disc_regular):
    coeffs = threshold_resolvent_expansion(disc_regular)
    assert coeffs.kind == "regular"
    assert np.all(coeffs.R_m2 == 0) and np.all(coeffs.R_m1 == 0)
    errs = dict(coeffs.remainder_samples)
    assert all(e < 0.05 for e in errs.values())
    # the truncation error shrinks with |z|
    assert errs[complex(-1e-3)] < errs[complex(-1e-2)]


def test_first_kind_normalization(disc_first, coeffs_first):
    phi = coeffs_first.phi
    assert abs(disc_first.marker(phi) - 2.0 * np.sqrt(np.pi)) < 1e-10


def test_first_kind_residue_is_rank_one(disc_first, coeffs_first):
    phi = coeffs_first.phi
    target = 1j * np.outer(phi, disc_first.w * phi)
    R1 = disc_first.sectors.expand(coeffs_first.R_m1)
    assert np.linalg.norm(R1 - target) < 1e-10 * np.linalg.norm(target)


def test_second_kind_projector_is_minus_Rm2(coeffs_second):
    P0 = coeffs_second.P0
    assert np.linalg.norm(P0 + coeffs_second.R_m2) \
        < 1e-10 * np.linalg.norm(P0)


def test_second_kind_states_are_source_orthonormal(coeffs_second):
    G = coeffs_second.constants["Z_gram"]
    assert np.linalg.norm(G - np.eye(G.shape[0])) < 1e-10


def test_third_kind_combines_both_parts(coeffs_third):
    assert coeffs_third.kind == "third"
    # the resonance chain in the trivial character, the eigen chain x_1-odd
    assert coeffs_third.basis.sectors == [0, 1]
    assert coeffs_third.phi is not None
    assert len(coeffs_third.Z) == 1
    assert np.linalg.norm(coeffs_third.P0 + coeffs_third.R_m2) \
        < 1e-8 * np.linalg.norm(coeffs_third.P0)


def test_threshold_series_approximates_resolvent(disc_first, coeffs_first):
    errs = dict(coeffs_first.remainder_samples)
    assert all(e < 0.05 for e in errs.values())
    assert errs[complex(-1e-3)] < errs[complex(-1e-2)]


# --------------------------------------------------------------------------
# resonance expansion

def test_resonance_residue_is_rank_one(disc_resonance, res_coeffs):
    psi = res_coeffs.psi[0]
    target = np.outer(psi, disc_resonance.w * psi)
    R1 = disc_resonance.sectors.expand(res_coeffs.R_m1)
    assert np.linalg.norm(R1 - target) \
        < 1e-6 * np.linalg.norm(target)


def test_resonance_laurent_limit(disc_resonance, res_coeffs):
    lam0 = res_coeffs.lam0
    vals = []
    for xi in (4e-4j, 2e-4j, 1e-4j):
        bp = BranchPoint.from_z(lam0 + xi)
        vals.append(xi * disc_resonance.R(bp))
    ex = oracles.richardson(vals, 2.0)[-1]
    R1 = disc_resonance.sectors.expand(res_coeffs.R_m1)
    rel = np.linalg.norm(ex - R1) / np.linalg.norm(R1)
    assert rel < 1e-4


def test_resonance_states_b_orthonormal(disc_resonance, res_coeffs):
    B = res_coeffs.constants["B"]
    # the normalization divides B by i 8 pi sqrt(lam0); re-check through the
    # stored matrix and the chain-to-psi transformation implicitly: the Gram
    # of psi under B/(i 8 pi sqrt(lam0)) must be the identity
    fac = 1j * 8.0 * np.pi * np.sqrt(res_coeffs.lam0)
    k = res_coeffs.N0
    G = np.array([[oracles.b_form(disc_resonance, res_coeffs.lam0,
                          res_coeffs.psi[i], res_coeffs.psi[j]) / fac
                   for j in range(k)] for i in range(k)])
    # the double-sum pairing and the assembled derivative kernel differ in
    # the diagonal self-cell rule, which bounds the agreement here
    assert np.linalg.norm(G - np.eye(k)) < 5e-2


# --------------------------------------------------------------------------
# second check on the multiplicity

def test_expansions_reject_projector_rank_mismatch(monkeypatch):
    real = grushin.riesz_projection

    def off_by_one(*args, **kwargs):
        P = real(*args, **kwargs)
        return dataclasses.replace(P, rank=P.rank + 1)

    monkeypatch.setattr(grushin, "riesz_projection", off_by_one)
    grid = build_grid(3.0, 4)
    with pytest.raises(ValueError, match="algebraic multiplicity"):
        threshold_resolvent_expansion(Discretization(first_kind_model(grid)))
    res = Discretization(resonance_model(grid, lam0=1.0))
    with pytest.raises(ValueError, match="algebraic multiplicity"):
        grushin.resonance_resolvent_expansion(res, 1.0)


def test_threshold_expansion_reuses_the_classification_cluster(
        monkeypatch, first6):
    # the kind and the multiplicity come from one -1 cluster, whatever
    # tolerance the classification ran with
    disc = Discretization(first6)
    cls = classify_zero(disc, tol=1e-5)
    calls = []
    real = grushin.detect_minus_one

    def counted(*args, **kwargs):
        calls.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(grushin, "detect_minus_one", counted)
    coeffs = threshold_resolvent_expansion(disc, cls)
    assert calls == []
    assert coeffs.basis.k == cls.detection.geometric_multiplicity


def test_threshold_expansion_does_not_depend_on_the_subspace_basis(
        monkeypatch):
    # without symmetry the resonance and the eigenstate of the third kind
    # share one invariant subspace; the chains must not depend on its basis
    # (a basis that mixes the resonance into the eigen chain would make the
    # latter's source pairing wrong).  In the parity sectors each state has
    # a sector of its own.
    third = third_kind_model(build_grid(3.0, 5))
    sym_disc = Discretization(third)
    sym = threshold_resolvent_expansion(sym_disc)
    assert sym.basis.sectors == [0, 1]
    real = grushin.riesz_projection
    rng = np.random.default_rng(3)

    def rotated(*args, **kwargs):
        P = real(*args, **kwargs)
        bases = []
        for Q, A in P.bases:
            m = Q.shape[1]
            U, _ = np.linalg.qr(rng.standard_normal((m, m))
                                + 1j * rng.standard_normal((m, m)))
            bases.append((Q @ U, U.conj().T @ A @ U))
        return dataclasses.replace(P, bases=bases)

    monkeypatch.setattr(grushin, "riesz_projection", rotated)
    disc = Discretization(third)
    disc.sectors = ReflectionGroup({0: np.arange(third.grid.n)})
    for _ in range(3):
        one = threshold_resolvent_expansion(disc)
        assert one.constants["q"] == sym.constants["q"]
        for j in (-2, -1, 0):
            want = sym_disc.sectors.expand(sym.series.coeff(j))
            got = disc.sectors.expand(one.series.coeff(j))
            assert np.linalg.norm(got - want) \
                <= 1e-10 * np.linalg.norm(want), j
        want = sym.scaling.constant_machinery
        assert abs(one.scaling.constant_machinery - want) \
            <= 1e-12 * abs(want)
