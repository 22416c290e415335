"""Truncated matrix Laurent series: arithmetic, evaluation, Laurent
inversion, the series solve and determinant coefficients."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from specthresh.series import ExpansionSeries, series_solve


def _random_series(rng, n=3, cap=4, lowest=0):
    coeffs = {j: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
              for j in range(lowest, cap + 1)}
    return ExpansionSeries("u", coeffs, cap)


def test_add_sub_scalar():
    rng = np.random.default_rng(0)
    a = _random_series(rng)
    b = _random_series(rng)
    s = (a + b) - b
    for j in range(0, a.cap + 1):
        assert np.allclose(s.coeff(j), a.coeff(j))
    assert np.allclose(((a * 2.0) - a).coeff(2), a.coeff(2))


def test_matmul_matches_polynomial_oracle():
    rng = np.random.default_rng(1)
    a = _random_series(rng, cap=3)
    b = _random_series(rng, cap=3)
    prod = a @ b
    want = oracles.polynomial_matmul(a.coeffs, b.coeffs, 3)
    for j, W in want.items():
        assert np.allclose(prod.coeff(j), W)


def test_eval_is_polynomial_evaluation():
    rng = np.random.default_rng(2)
    a = _random_series(rng, cap=3)
    u = 0.37 - 0.21j
    want = sum(a.coeff(j) * u ** j for j in range(0, 4))
    assert np.allclose(a.eval(u), want)


def test_variable_mismatch_rejected():
    rng = np.random.default_rng(3)
    a = _random_series(rng)
    b = ExpansionSeries("v", {0: np.eye(3, dtype=complex)}, a.cap)
    with pytest.raises(ValueError):
        a + b


def test_truncated_drops_high_orders():
    rng = np.random.default_rng(4)
    a = _random_series(rng, cap=4)
    t = a.truncated(2)
    assert t.cap == 2
    assert max(t.coeffs) <= 2


def test_laurent_inverse_regular():
    rng = np.random.default_rng(5)
    a = _random_series(rng, cap=4)
    a.coeffs[0] += 4.0 * np.eye(3)     # ensure invertible leading term
    inv = a.laurent_inverse(0)
    prod = a @ inv
    assert np.allclose(prod.coeff(0), np.eye(3), atol=1e-9)
    for j in range(1, 3):
        assert np.allclose(prod.coeff(j), 0.0, atol=1e-8)


def test_laurent_inverse_with_pole():
    # series u A1 + u^2 A2: the inverse starts at order -1
    rng = np.random.default_rng(6)
    n = 3
    A1 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    A2 = rng.standard_normal((n, n)).astype(complex)
    s = ExpansionSeries("u", {1: A1.astype(complex), 2: A2}, 4)
    inv = s.laurent_inverse(1)
    u = 1e-3
    direct = np.linalg.inv(s.eval(u))
    assert np.linalg.norm(inv.eval(u) - direct) < 1e-6 * np.linalg.norm(direct)


def test_det_series_matches_pointwise_determinant():
    rng = np.random.default_rng(7)
    a = _random_series(rng, n=3, cap=4)
    dc = a.det_series()
    for u in (0.01, 0.02j, -0.015):
        want = np.linalg.det(a.eval(u))
        got = sum(c * u ** j for j, c in dc.items())
        assert abs(got - want) < 1e-6 * abs(want)


@pytest.mark.parametrize("m,lowest", [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1)])
def test_det_series_fft_matches_leibniz_oracle(m, lowest):
    # lowest = 1: the determinant starts at order m, like det E_-+, and the
    # FFT must return roundoff below it
    rng = np.random.default_rng(10 + m)
    a = _random_series(rng, n=m, cap=4, lowest=lowest)
    got = a.det_series()
    want = oracles.leibniz_det_series(a.coeffs, a.cap)
    scale = max(abs(v) for v in want.values())
    assert set(got) == set(range(a.cap + 1))
    for j in got:
        assert abs(got[j] - want.get(j, 0.0)) <= 1e-12 * scale


def test_det_series_rejects_negative_orders():
    s = ExpansionSeries("u", {-1: np.eye(2), 0: np.eye(2)}, 2)
    with pytest.raises(ValueError):
        s.det_series()


def _lu_solve(P0s):
    """solve(B) = P_0^{-1} B, block by block."""
    return lambda rhs: [np.linalg.solve(P0, B) for P0, B in zip(P0s, rhs)]


def test_series_solve_solves_through_cap():
    # two blocks of different sizes; b(u) lacks orders 1 and 3 (zero there)
    rng = np.random.default_rng(12)
    P = [_random_series(rng, n=n, cap=5) for n in (4, 2)]
    for a in P:
        a.coeffs[0] += 4.0 * np.eye(len(a.coeffs[0]))   # invertible P_0
    b = [{j: rng.standard_normal((len(a.coeffs[0]), 3)) for j in (0, 2, 4, 5)}
         for a in P]
    X = series_solve(_lu_solve([a.coeff(0) for a in P]),
                     {r: [a.coeff(r) for a in P] for r in range(1, 6)},
                     {j: [bs[j] for bs in b] for j in (0, 2, 4, 5)}, 5)
    assert len(X) == 6
    for s, (a, bs) in enumerate(zip(P, b)):
        prod = a @ ExpansionSeries("u", {j: Xj[s] for j, Xj in enumerate(X)},
                                   5)
        for j in range(6):
            assert np.allclose(prod.coeff(j), bs.get(j, 0.0), atol=1e-10), j


def test_series_solve_takes_leading_blocks():
    # orders >= 1 given as their leading 3 x 3 block of the bordered 5 x 5
    # series solve like the same series with those blocks zero-padded
    rng = np.random.default_rng(13)
    a = _random_series(rng, n=3, cap=4)
    S = rng.standard_normal((3, 2))
    T = rng.standard_normal((2, 3))
    P0 = np.block([[a.coeff(0) + 4.0 * np.eye(3), S], [T, np.zeros((2, 2))]])
    rhs = {j: [rng.standard_normal((5, 4))] for j in range(a.cap + 1)}
    solve = _lu_solve([P0])
    got = series_solve(solve, {r: [a.coeff(r)] for r in range(1, a.cap + 1)},
                       rhs, a.cap)
    padded = series_solve(solve, {r: [np.pad(a.coeff(r), ((0, 2), (0, 2)))]
                                  for r in range(1, a.cap + 1)}, rhs, a.cap)
    for j in range(a.cap + 1):
        assert got[j][0].shape == (5, 4)
        assert np.allclose(got[j][0], padded[j][0], rtol=1e-13, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), u_re=st.floats(-0.1, 0.1))
def test_eval_distributes_over_matmul(seed, u_re):
    rng = np.random.default_rng(seed)
    a = _random_series(rng, n=2, cap=6)
    b = _random_series(rng, n=2, cap=6)
    u = complex(u_re, 0.05)
    # the truncated product agrees with the product of evaluations up to the
    # dropped orders O(u^{cap+1})
    lhs = (a @ b).eval(u)
    rhs = a.eval(u) @ b.eval(u)
    assert np.linalg.norm(lhs - rhs) < 500.0 * abs(u) ** 7 + 1e-9
