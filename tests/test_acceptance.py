"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line with
the measured figure of merit, and asserts the stated tolerance.
"""
import time

import numpy as np
import pytest

import oracles
from test_jordan import _chains, _theta_symmetric_case
from specthresh.birman_schwinger import Discretization, \
    scan_positive_resonances
from specthresh.grushin import GrushinReduction, verify_grushin_identity
from specthresh.jordan import projector_from_chains, verify_jordan_form
from specthresh.kernels import BranchPoint, verify_threshold_expansion
from specthresh.model import build_grid, weighted_operator_norm
from specthresh.models import free_model
from specthresh.propagator import _residue, check_high_energy, \
    generalized_integral, verify_large_time


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _against(value, gate, floor=1e-12):
    """A roundoff-level figure printed against its gate, so that the line
    does not move with the BLAS thread count."""
    shown = f"<= {floor:.0e}" if value <= floor else f"{value:.2e}"
    return f"{shown} (gate {gate:.0e})"


def _reduction(disc, basis, point="threshold", cap=6):
    return GrushinReduction(disc, basis, point=point, cap=cap)


# --------------------------------------------------------------------------
# 1. Grushin identity on tuned models

def test_criterion_01_grushin_identity(capsys, disc_first, coeffs_first,
                                       disc_third, coeffs_third,
                                       disc_resonance, res_coeffs):
    t0 = time.perf_counter()
    worst = 0.0
    zs_thr = [-10.0 ** (-p) for p in (1, 1.5, 2, 2.5, 3)] \
        + [10.0 ** (-p) * (1 + 1j) for p in (2, 3)] \
        + [-1e-2 + 1e-2j, 1e-3 - 1e-3j, -3e-3]
    zs_thr.append(2e-3)                       # boundary point, explicit side
    for disc, coeffs in ((disc_first, coeffs_first),
                         (disc_third, coeffs_third)):
        red = _reduction(disc, coeffs.basis)
        for z in zs_thr:
            worst = max(worst, verify_grushin_identity(red, z))
    red = _reduction(disc_resonance, res_coeffs.basis, point=1.0)
    for xi in (-1e-3, -1e-4, 1e-4 + 1e-4j, -2e-4 + 3e-4j, 5e-4j,
               -5e-4 - 2e-4j, 1e-3j, 3e-4, -7e-4, 2e-4 - 2e-4j):
        worst = max(worst, verify_grushin_identity(red, xi))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 60.0
    _report(capsys, 1, ok, f"3 tuned models, 10 points each, max rel residual "
                   f"{_against(worst, 1e-9)}, {dt:.1f}s")


# --------------------------------------------------------------------------
# 2. Jordan chains: duality, projector, exact block pattern

def test_criterion_02_jordan_structure(capsys):
    K0, tau, P1 = _theta_symmetric_case([2, 1])
    jb = _chains(P1, K0, tau)
    U, W = jb.flat_chain(), jb.flat_dual()
    dual = np.linalg.norm((U * tau[:, None]).T @ W - np.eye(3))
    proj = (np.linalg.norm(projector_from_chains(jb, tau) - P1)
            / np.linalg.norm(P1))
    N = verify_jordan_form(jb, K0, tau)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    pattern = np.linalg.norm(N - expected)
    ok = (jb.sizes == [2, 1] and dual < 1e-8 and proj < 1e-8
          and pattern < 1e-8)
    _report(capsys, 2, ok, f"sizes {jb.sizes}, duality {dual:.2e}, projector "
                   f"{proj:.2e}, block pattern {pattern:.2e}")


# --------------------------------------------------------------------------
# 3. Lidskii determinant scaling

def test_criterion_03_lidskii_scaling(capsys, coeffs_first, coeffs_second,
                                      coeffs_third, res_coeffs):
    worst_order, worst_const = 0.0, 0.0
    for coeffs in (coeffs_first, coeffs_second, coeffs_third, res_coeffs):
        sc = coeffs.scaling
        worst_order = max(worst_order,
                          abs(sc.order_fit - sc.order_structural))
        worst_const = max(worst_const,
                          abs(sc.constant_fit - sc.constant_formula)
                          / abs(sc.constant_formula))
    ok = worst_order < 0.1 and worst_const < 1e-3
    _report(capsys, 3, ok, f"4 singular models, max |order error| {worst_order:.2e}, "
                   f"max constant rel err {worst_const:.2e}")


# --------------------------------------------------------------------------
# 4. Threshold Laurent limits, projector identities, normalization

def test_criterion_04_threshold_limits(capsys, disc_first, coeffs_first,
                                       disc_second, coeffs_second):
    # first kind: sqrt(z) R(z) -> i <., J phi> phi
    phi = coeffs_first.phi
    target1 = 1j * np.outer(phi, disc_first.w * phi)
    vals = []
    for z in (-4e-4, -1e-4, -2.5e-5):
        bp = BranchPoint.from_z(z)
        vals.append(bp.sqrt_z * disc_first.R(bp))
    ex = oracles.richardson(oracles.richardson(vals, 2.0), 2.0)[-1]
    rel1 = np.linalg.norm(ex - target1) / np.linalg.norm(target1)

    # second kind: z R(z) -> -P0; the error mixes O(sqrt z) and O(z) terms,
    # so one Richardson stage per ratio
    # the coefficients are flat sector blocks: expand them
    P0 = disc_second.sectors.expand(coeffs_second.P0)
    vals = []
    for z in (-4e-4, -1e-4, -2.5e-5, -6.25e-6):
        bp = BranchPoint.from_z(z)
        vals.append(bp.z * disc_second.R(bp))
    ex = oracles.richardson(oracles.richardson(vals, 2.0), 4.0)[-1]
    rel2 = np.linalg.norm(ex + P0) / np.linalg.norm(P0)

    G = coeffs_second.constants["Z_gram"]
    idem = np.linalg.norm(G - np.eye(G.shape[0]))
    recon = (np.linalg.norm(P0 + disc_second.sectors.expand(coeffs_second.R_m2))
             / np.linalg.norm(P0))
    norm_res = abs(disc_first.marker(phi) - 2.0 * np.sqrt(np.pi))
    ok = (rel1 < 1e-2 and rel2 < 1e-2 and idem < 1e-8 and recon < 1e-8
          and norm_res < 1e-8)
    _report(capsys, 4, ok, f"sqrt(z)R limit {rel1:.2e}, zR limit {rel2:.2e}, "
                   f"projector idempotency {_against(idem, 1e-8)} "
                   f"(reconstruction {_against(recon, 1e-8)}), normalization "
                   f"{_against(norm_res, 1e-8)}")


# --------------------------------------------------------------------------
# 5. Resonance residue, B-orthonormality, energy recovery

def test_criterion_05_resonance_expansion(capsys, disc_resonance, res_coeffs):
    lam0 = res_coeffs.lam0
    vals = []
    for xi in (4e-4j, 2e-4j, 1e-4j):
        bp = BranchPoint.from_z(lam0 + xi)
        vals.append(xi * disc_resonance.R(bp))
    ex = oracles.richardson(oracles.richardson(vals, 2.0), 2.0)[-1]
    R_m1 = disc_resonance.sectors.expand(res_coeffs.R_m1)
    rel = np.linalg.norm(ex - R_m1) / np.linalg.norm(R_m1)

    # Gram of the normalized states under the boundary bilinear form,
    # evaluated directly through the derivative kernel on the states
    fac = 1j * 8.0 * np.pi * np.sqrt(lam0)
    M1 = disc_resonance.gj_plus(1, lam0) * disc_resonance.V[None, :]
    k = res_coeffs.N0
    G = np.array([[(8.0 * np.pi * np.sqrt(lam0) / 1j)
                   * disc_resonance.theta(M1 @ res_coeffs.psi[j],
                                          res_coeffs.psi[i]) / fac
                   for j in range(k)] for i in range(k)])
    gram = np.linalg.norm(G - np.eye(k))

    found = scan_positive_resonances(disc_resonance, (0.3, 2.0))
    lam_err = min(abs(l - 1.0) for l, _ in found) if found else np.inf
    ok = rel < 1e-2 and gram < 1e-8 and lam_err < 1e-6
    _report(capsys, 5, ok, f"residue limit {rel:.2e}, B-orthonormality "
                   f"{_against(gram, 1e-8)}, scan recovery "
                   f"{_against(lam_err, 1e-6)}")


# --------------------------------------------------------------------------
# 6. Generalized oscillatory integrals

def test_criterion_06_generalized_integrals(capsys):
    worst = 0.0
    for j in (-1, 0, 1, 2):
        for t in (0.5, 1.0, 10.0):
            got = generalized_integral(j, t)
            want = oracles.halfline_power_integral(j, t)
            worst = max(worst, abs(got - want) / abs(want))
    pv_err = abs(generalized_integral(pv=True) + 2j * np.pi)
    ok = worst < 1e-6 and pv_err < 1e-12
    _report(capsys, 6, ok, f"j in {{-1,0,1,2}} x t in {{0.5,1,10}} max rel err "
                   f"{worst:.2e}, principal value err {pv_err:.2e}")


# --------------------------------------------------------------------------
# 7. Line + residue representation of the pipeline's propagator

def test_criterion_07_contour_representation(capsys, cut_first6, cut_second6,
                                             walk_second6):
    # U(t) = (steepest line at pi/4) - R_{-2} - (residues of the crossed
    # zeros).  (a) against the oracle's half-ray line at pi/4; (b) against
    # its line at pi/6 plus the residue of every zero between the two lines,
    # the one the weight cut leaves out included; (c) second6 against the
    # branch-cut walk, which never leaves the real axis
    ts = sorted(walk_second6)[::3]                    # 10, 100, 1000
    cp = cut_first6
    disc, group = cp.disc, cp.disc.sectors
    R_m2 = group.expand(cp.coeffs.R_m2)
    assert cp.poles == []
    Us = cp.propagate_many(ts)
    census = cp.census
    zeros = [z["k"] for z in census["crossed"] + census["left_out"]]
    crossed = [z["k"] for z in census["crossed"]]
    between = [k for k in zeros if -np.pi / 4 < np.angle(k) < -np.pi / 6]
    left_out = [k for k in between if k not in crossed]
    rings = {k: (k,) + cp._ring_moments(k, zeros) for k in zeros}

    def residues(ks, t):
        # the ring moments are flat sector blocks: expand the sum
        return group.expand(sum((_residue(*rings[k], t) for k in ks),
                                np.zeros_like(cp.coeffs.R_m2)))

    steep = shallow = truncation = 0.0
    for t in ts:
        U = Us[t]
        norm = np.linalg.norm(U)
        line = oracles.rotated_line(disc, t, np.pi / 4, n=64)
        steep = max(steep, np.linalg.norm(
            line - R_m2 - residues(crossed, t) - U) / norm)
        line = oracles.rotated_line(disc, t, np.pi / 6, n=64)
        shallow = max(shallow, np.linalg.norm(
            line - R_m2 + residues(between, t) - residues(crossed, t) - U)
            / norm)
        truncation = max(truncation,
                         np.linalg.norm(residues(left_out, t)) / norm)
    Us = cut_second6.propagate_many(ts)
    grid = cut_second6.disc.grid
    walk = max(weighted_operator_norm(Us[t] - walk_second6[t], grid, 3.0, -3.0)
               / weighted_operator_norm(walk_second6[t], grid, 3.0, -3.0)
               for t in ts)
    ok = steep <= 1e-6 and shallow <= 1e-6 and walk <= 5e-4
    _report(capsys, 7, ok, f"CutPropagator over t in {{10,100,1000}}: first6 "
                   f"vs pi/4 line {_against(steep, 1e-6)}, vs pi/6 line plus "
                   f"residues between {_against(shallow, 1e-6)} (left-out "
                   f"residue {truncation:.2e}), second6 vs branch-cut walk (s=3) "
                   f"{_against(walk, 5e-4)}")


# --------------------------------------------------------------------------
# 8. Large-time decay laws

def test_criterion_08_large_time_decay(capsys, coeffs_first6, cut_first6,
                                       coeffs_second6, cut_second6):
    free_rep = verify_large_time(
        Discretization(free_model(build_grid(3.0, 6))))
    cf, disc_f = coeffs_first6
    rep1 = verify_large_time(disc_f, cf, propagator=cut_first6)
    cs, disc_s = coeffs_second6
    rep2 = verify_large_time(disc_s, cs, propagator=cut_second6)
    ok = (abs(free_rep.slope_fit + 1.5) < 0.15
          and abs(rep1.slope_fit + 0.5) < 0.1
          and rep1.coeff_rel_err < 0.1
          and rep2.limit_rel_err < 0.05)
    _report(capsys, 8, ok, f"free slope {free_rep.slope_fit:.4f}, resonant slope "
                   f"{rep1.slope_fit:.4f} (coefficient {rep1.coeff_rel_err:.2e}), "
                   f"eigenvalue-limit rel err {rep2.limit_rel_err:.2e}")


# --------------------------------------------------------------------------
# 9. High-energy boundary estimates

def test_criterion_09_high_energy(capsys, disc_regular):
    worst = -np.inf
    details = []
    for disc in (Discretization(free_model(build_grid(3.0, 8))), disc_regular):
        for he in check_high_energy(disc, orders=(0, 1)):
            excess = he["exponent"] - he["bound"]
            worst = max(worst, excess)
            details.append(f"r={he['r']}:{he['exponent']:.2f}")
    ok = worst <= 0.2
    _report(capsys, 9, ok, f"exponent excess over -(r+1)/2 at most {worst:.3f} "
                   f"({', '.join(details)})")


# --------------------------------------------------------------------------
# 10. Half-power remainder contraction of the free resolvent

def test_criterion_10_threshold_expansion_remainders(capsys):
    grid = build_grid(3.0, 6)
    z = -4e-2
    ratios = []
    ok = True
    for ell in (0, 1, 2):
        r = (verify_threshold_expansion(grid, z, ell)
             / verify_threshold_expansion(grid, z / 4.0, ell))
        ratios.append(r)
        target = 2.0 ** (ell + 1)
        ok = ok and (target / 2.0 < r < target * 2.0)
    _report(capsys, 10, ok, "remainder contraction ratios "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + " vs 2, 4, 8 (within factor 2)")
