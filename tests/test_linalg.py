import mpmath
import numpy as np
import pytest

from stokin import (
    MatrixOverflowError,
    NotPositiveSemidefiniteError,
    ParameterError,
    SingularMatrixError,
    diffusion_matrix,
    drift_matrix,
    expm,
    load_scenario,
    propagator_with_source,
    psd_sqrt,
    solve_linear,
)
from stokin.linalg import _THETA, _THETA_13, psd_sqrt_batch
from stokin.scenarios import PRESETS

from conftest import one_group_params


def series_expm(M, dps=60):
    """Independent oracle: Taylor series of e^M in 60-digit arithmetic."""
    with mpmath.workdps(dps):
        A = mpmath.matrix(M.tolist())
        d = A.rows
        term = mpmath.eye(d)
        acc = mpmath.eye(d)
        k = 0
        while True:
            k += 1
            term = term * A / k
            acc = acc + term
            if max(abs(x) for x in term) < mpmath.mpf(10) ** (-dps + 5):
                break
        return np.array([[float(acc[i, j]) for j in range(d)] for i in range(d)])


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    E = expm(np.diag([1.0, -1.0]))
    assert E[0, 0] == pytest.approx(np.e, rel=1e-14)
    assert E[1, 1] == pytest.approx(1.0 / np.e, rel=1e-14)
    assert E[0, 1] == 0.0 and E[1, 0] == 0.0


def test_expm_nilpotent_exact():
    E = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(E, np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("d,scale", [(2, 1.0), (4, 2.0), (8, 5.0), (3, 50.0)])
def test_expm_matches_series_oracle(d, scale, rng):
    M = rng.standard_normal((d, d))
    M *= scale / np.linalg.norm(M, 2)
    ours = expm(M)
    oracle = series_expm(M)
    denom = np.maximum(np.abs(oracle), 1e-300)
    assert (np.abs(ours - oracle) / denom).max() <= 1e-12


def test_expm_inverse_property(rng):
    for _ in range(10):
        d = int(rng.integers(2, 9))
        M = rng.standard_normal((d, d))
        M *= 5.0 / max(np.linalg.norm(M, 2), 1e-12)
        prod = expm(M) @ expm(-M)
        assert np.abs(prod - np.eye(d)).max() <= 1e-9


def test_expm_semigroup_property(rng):
    for _ in range(10):
        d = int(rng.integers(2, 9))
        M = rng.standard_normal((d, d))
        M *= 2.0 / max(np.linalg.norm(M, 2), 1e-12)
        s, t = rng.uniform(0.0, 2.0, 2)
        lhs = expm((s + t) * M)
        rhs = expm(s * M) @ expm(t * M)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


def test_expm_overflow_is_detected():
    with pytest.raises(MatrixOverflowError) as err:
        expm(np.diag([2000.0, 2000.0]))
    assert "norm" in str(err.value)
    # finite entries whose 1-norm overflows
    with pytest.raises(MatrixOverflowError, match="inf"):
        expm(np.full((2, 2), 1e308))


def test_expm_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ParameterError):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ParameterError):
        expm(np.zeros((2, 3)))


def _assert_matches_oracle(E, M):
    # entrywise relative error where the oracle is nonzero, exact zeros where
    # it is zero
    oracle = series_expm(M)
    nz = oracle != 0.0
    assert (np.abs(E[nz] - oracle[nz]) / np.abs(oracle[nz])).max() <= 1e-12
    assert np.array_equal(E[~nz], oracle[~nz])


def _expm_traffic():
    """Every preset's drift matrix times the det and pca steps, at the first
    and last interval midpoint, bare and as the augmented source matrix
    [[A dt, q dt e0], [0, 0]] that propagator_with_source exponentiates."""
    cases = []
    for name in PRESETS:
        scn = load_scenario(name)
        p = scn.build_parameters()
        for method in ("det", "pca"):
            grid = scn.grid(method)
            for k in (0, grid.n_steps - 1):
                tm = grid.midpoint(k)
                A_dt = np.array(drift_matrix(p, tm)) * grid.dt
                d = p.dim
                aug = np.zeros((d + 1, d + 1))
                aug[:d, :d] = A_dt
                aug[0, d] = float(p.source(tm)) * grid.dt
                cases.append(pytest.param(A_dt, id=f"{name}-{method}-{k}"))
                cases.append(pytest.param(aug, id=f"{name}-{method}-{k}-augmented"))
    return cases


@pytest.mark.parametrize("M", _expm_traffic())
def test_expm_on_solver_traffic(M):
    E = expm(M)
    _assert_matches_oracle(E, M)
    if not M[-1].any():
        # the augmented matrix's zero bottom row gives the exact unit row
        assert np.array_equal(E[-1], np.eye(len(M))[-1])


_BRANCH_NORMS = [theta for _, theta in _THETA] + [_THETA_13, 20.0 * _THETA_13]


@pytest.mark.parametrize(
    "norm", _BRANCH_NORMS, ids=["m3", "m5", "m7", "m9", "m13", "m13-squared"]
)
def test_expm_every_pade_degree(norm):
    # the table3 drift matrix (d = 7) scaled to just below each theta_m, so
    # each degree runs at its largest 1-norm, and once to 20 theta_13, which
    # takes five squarings
    p = load_scenario("table3").build_parameters()
    A = np.array(drift_matrix(p, 0.0))
    M = A * (0.999 * norm / np.linalg.norm(A, 1))
    bounds = [0.0] + _BRANCH_NORMS
    i = bounds.index(norm)
    assert bounds[i - 1] < np.linalg.norm(M, 1) <= norm
    _assert_matches_oracle(expm(M), M)


# ---------------------------------------------------------------------------
# affine propagator
# ---------------------------------------------------------------------------

def test_propagator_invertible_matches_closed_form():
    p = one_group_params(beta1=0.05)
    A = np.array(drift_matrix(p, 0.0))
    F = np.array([200.0, 0.0])
    dt = 0.37
    E, g = propagator_with_source(A, F, dt)
    E_ref = expm(A * dt)
    g_ref = np.linalg.solve(A, (E_ref - np.eye(2)) @ F)
    assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()
    assert g == pytest.approx(g_ref, rel=1e-10)


def test_propagator_singular_matrix_series_fallback():
    # A = 0: x(t+dt) = x + F dt exactly
    E, g = propagator_with_source(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]), 0.25)
    assert np.array_equal(E, np.eye(3))
    assert g == pytest.approx([0.25, 0.5, 0.75], rel=1e-14)
    # nilpotent A: series sum_k A^k dt^{k+1}/(k+1)! F truncates after two terms
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([0.0, 2.0])
    dt = 0.5
    _, g = propagator_with_source(A, F, dt)
    expected = dt * F + (dt**2 / 2.0) * (A @ F)
    assert g == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# psd sqrt
# ---------------------------------------------------------------------------

def test_psd_sqrt_rejects_asymmetric():
    with pytest.raises(ParameterError):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # asymmetry below 1e-10 relative is roundoff and accepted
    B = np.array([[4.0, 1.0], [1.0 + 1e-12, 9.0]])
    assert psd_sqrt(B).clipped == 0


def test_psd_sqrt_identity_and_diagonal():
    assert np.abs(psd_sqrt(np.eye(3)).matrix - np.eye(3)).max() <= 1e-14
    S = psd_sqrt(np.diag([4.0, 9.0])).matrix
    assert S == pytest.approx(np.diag([2.0, 3.0]), rel=1e-14)


def test_psd_sqrt_reconstructs_table1_diffusion():
    p = one_group_params(beta1=0.05)
    B = np.array(diffusion_matrix(p, [400.0, 300.0], 0.0))
    res = psd_sqrt(B)
    assert res.clipped == 0
    assert np.abs(res.matrix @ res.matrix - B).max() <= 1e-9 * np.abs(B).max()
    assert np.array_equal(res.matrix, res.matrix.T)


def test_psd_sqrt_output_is_psd(rng):
    for _ in range(20):
        d = int(rng.integers(2, 9))
        R = rng.standard_normal((d, d))
        B = R @ R.T
        S = psd_sqrt(B).matrix
        w = np.linalg.eigvalsh(S)
        assert w.min() >= -1e-12 * max(1.0, np.abs(B).max())


def test_psd_sqrt_clips_roundoff_negatives():
    # eigenvalues (1, -1e-10): inside the clip band for |B| ~ 1
    V = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    B = (V * [1.0, -1e-10]) @ V.T
    res = psd_sqrt(B)
    assert res.clipped == 1
    assert np.abs(res.matrix @ res.matrix - (V * [1.0, 0.0]) @ V.T).max() <= 1e-9


def test_psd_sqrt_hard_negative_raises_with_eigenvalue():
    B = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        psd_sqrt(B)
    assert err.value.worst_eigenvalue == pytest.approx(-0.5, rel=1e-12)
    # clamp policy clips instead
    res = psd_sqrt(B, policy="clamp")
    assert res.clipped == 1
    assert res.matrix == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)


def test_psd_sqrt_batch_matches_single(rng):
    mats = []
    for _ in range(6):
        R = rng.standard_normal((2, 2))
        mats.append(R @ R.T)
    B = np.stack(mats)
    S, small, hard = psd_sqrt_batch(B)
    assert not hard.any()
    for k in range(6):
        single = psd_sqrt(B[k]).matrix
        assert np.abs(S[k] - single).max() <= 1e-11 * max(1.0, np.abs(B[k]).max())
        assert np.abs(S[k] @ S[k] - B[k]).max() <= 1e-9 * max(1.0, np.abs(B[k]).max())


def test_psd_sqrt_batch_flags_hard_paths(rng):
    good = np.eye(3)
    bad = np.diag([1.0, 1.0, -0.7])
    S, small, hard = psd_sqrt_batch(np.stack([good, bad]), policy="strict")
    assert hard.tolist() == [False, True]
    # clamp clips the hard eigenvalue too; the flag stays up as a diagnostic
    S2, small2, hard2 = psd_sqrt_batch(np.stack([good, bad]), policy="clamp")
    assert hard2.tolist() == [False, True]
    assert small2.tolist() == [0, 0]
    assert np.abs(S2[1] @ S2[1] - np.diag([1.0, 1.0, 0.0])).max() <= 1e-12


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

def test_solve_identity():
    b = np.array([3.0, -4.0])
    assert np.array_equal(solve_linear(np.eye(2), b), b)


def test_solve_recovers_table1_equilibrium():
    p = one_group_params(beta1=0.05)
    A = np.array(drift_matrix(p, 0.0))
    x = solve_linear(A, np.array([-200.0, 0.0]))
    assert x == pytest.approx([400.0, 300.0], rel=1e-12)


def test_solve_diagonal():
    assert solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0])) == pytest.approx([1.0, 1.0])


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_solve_residual_bound(rng):
    for _ in range(20):
        d = int(rng.integers(2, 9))
        M = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        b = rng.standard_normal(d)
        x = solve_linear(M, b)
        res = np.linalg.norm(M @ x - b)
        bound = 1e-10 * (np.linalg.norm(M) * np.linalg.norm(x) + np.linalg.norm(b))
        assert res <= bound
