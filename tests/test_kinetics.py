from dataclasses import replace

import numpy as np
import pytest

from stokin import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    LinearReactivity,
    ParameterError,
    PiecewiseConstantReactivity,
    ReactivityDomainError,
    SingularMatrixError,
    State,
    diffusion_event_rates,
    diffusion_matrices,
    diffusion_matrix,
    drift_matrix,
    equilibrium_state,
    event_rates,
    event_vectors,
)
from stokin.kinetics import as_state_vector

from conftest import (
    SIX_GROUP_BETA,
    SIX_GROUP_LAMBDA,
    one_group_params,
    random_params,
    random_state,
    six_group_params,
)


# ---------------------------------------------------------------------------
# coefficient functions
# ---------------------------------------------------------------------------

def test_constant_reactivity_exact():
    rho = ConstantReactivity(-1.0 / 3.0)
    for t in (0.0, 1e-9, 57.3):
        assert rho(t) == -1.0 / 3.0


def test_linear_reactivity():
    rho = LinearReactivity(0.25)
    assert rho(0.0) == 0.0
    assert rho(0.1) == 0.25 * 0.1


def test_piecewise_reactivity_holds_last_value():
    rho = PiecewiseConstantReactivity([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    assert rho(0.5) == 0.1
    assert rho(1.0) == 0.2
    assert rho(2.0) == 0.3
    assert rho(100.0) == 0.3


def test_piecewise_reactivity_undefined_before_first_breakpoint():
    rho = PiecewiseConstantReactivity([1.0, 2.0], [0.1, 0.2])
    assert not rho.defined_at(0.5)
    with pytest.raises(ReactivityDomainError):
        rho(0.5)


def test_piecewise_breakpoints_must_increase():
    with pytest.raises(ParameterError):
        PiecewiseConstantReactivity([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(ParameterError):
        PiecewiseConstantReactivity([1.0, 0.5], [0.1, 0.2])


def test_source_nonnegative():
    with pytest.raises(ParameterError):
        ConstantSource(-1.0)


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ParameterError):
        one_group_params(lam=-0.1)
    with pytest.raises(ParameterError):
        one_group_params(beta1=-0.01)
    with pytest.raises(ParameterError):
        one_group_params(nu=0.0)
    with pytest.raises(ParameterError):
        one_group_params(l=0.0)
    with pytest.raises(ParameterError):
        KineticsParameters(
            decay_constants=(0.1, 0.2),
            group_fractions=(0.005,),
            nu=2.5,
            gen_time=1.0,
            reactivity=ConstantReactivity(0.0),
            source=ConstantSource(0.0),
        )


def test_beta_total_is_exact_sum():
    p = six_group_params(rho=0.003)
    assert abs(p.beta_total - sum(SIX_GROUP_BETA)) <= 1e-12 * p.beta_total


def test_alpha_defaults_to_inverse_nu():
    p = one_group_params()
    assert p.alpha == 1.0 / 2.5
    assert not p.alpha_overridden
    p2 = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.05,),
        nu=2.5,
        gen_time=1.0,
        reactivity=ConstantReactivity(0.0),
        source=ConstantSource(0.0),
        alpha=0.41,
    )
    assert p2.alpha == 0.41
    assert p2.alpha_overridden


def test_state_immutable_and_sized():
    s = State(400.0, [300.0])
    assert s.n == 400.0
    assert len(s) == 2
    with pytest.raises((ValueError, AttributeError)):
        s.vector[0] = 1.0
    with pytest.raises(AttributeError):
        s.n = 1.0
    assert State.from_vector([1.0, 2.0, 3.0]).precursors.tolist() == [2.0, 3.0]


def test_state_dimension_check():
    p = one_group_params()
    with pytest.raises(ParameterError):
        as_state_vector([1.0, 2.0, 3.0], p)


# ---------------------------------------------------------------------------
# drift matrix
# ---------------------------------------------------------------------------

def test_drift_matrix_one_group_hand_value():
    # hand arithmetic: ((-1/3 - 0.05)/(2/3), 0.1 ; 0.05/(2/3), -0.1)
    p = one_group_params(beta1=0.05)
    A = drift_matrix(p, 0.0)
    expected = np.array([[-0.575, 0.1], [0.075, -0.1]])
    assert np.abs(A.matrix - expected).max() <= 1e-15
    assert A.rho == pytest.approx(-1.0 / 3.0, abs=0)
    assert A.t == 0.0


def test_drift_matrix_vanishing_prompt_term_at_rho_equal_beta():
    p = one_group_params(beta1=0.05, rho=0.05)
    assert drift_matrix(p, 0.0).matrix[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_drift_matrix_six_group_entries():
    p = six_group_params(rho=0.003)
    A = drift_matrix(p, 0.0).matrix
    assert A[0, 0] == pytest.approx((0.003 - 0.007) / 0.00002, rel=1e-12)  # -200
    assert A[1, 0] == pytest.approx(0.000266 / 0.00002, rel=1e-12)  # 13.3
    assert A[0, 1] == pytest.approx(0.0127, rel=1e-12)
    # off-pattern entries are zero
    assert A[2, 1] == 0.0 and A[1, 2] == 0.0


def test_drift_matrix_column_sums(rng):
    for _ in range(50):
        p = random_params(rng)
        A = drift_matrix(p, 0.0).matrix
        sums = A.sum(axis=0)
        rho_l = p.reactivity(0.0) / p.gen_time
        assert sums[0] == pytest.approx(rho_l, rel=1e-12, abs=1e-12)
        assert np.abs(sums[1:]).max() <= 1e-12 * max(1.0, abs(rho_l))


def test_drift_matrix_undefined_reactivity_errors():
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.005,),
        nu=2.5,
        gen_time=1.0,
        reactivity=PiecewiseConstantReactivity([1.0], [0.1]),
        source=ConstantSource(0.0),
    )
    with pytest.raises(ReactivityDomainError):
        drift_matrix(p, 0.5)


# ---------------------------------------------------------------------------
# diffusion matrix
# ---------------------------------------------------------------------------

def test_diffusion_matrix_table1_hand_values():
    # gamma = (-1 + 1/3 + 0.1 + 0.95^2*2.5)/(2/3); lambda1*c1 = 30
    p = one_group_params(beta1=0.05)
    B = diffusion_matrix(p, [400.0, 300.0], 0.0)
    assert B.gamma == pytest.approx(2.534375, rel=1e-12)
    assert B.zeta == pytest.approx(1243.75, rel=1e-12)
    assert B.matrix[0, 1] == pytest.approx(11.25, rel=1e-12)  # a_1
    assert B.matrix[1, 1] == pytest.approx(33.75, rel=1e-12)  # r_1
    assert B.matrix[1, 0] == B.matrix[0, 1]


def test_diffusion_matrix_zero_state_zero_source():
    p = one_group_params(q=0.0)
    B = diffusion_matrix(p, [0.0, 0.0], 0.0)
    assert np.all(B.matrix == 0.0)


def test_diffusion_matrix_two_group_cross_term_symmetric():
    p = KineticsParameters(
        decay_constants=(0.1, 0.5),
        group_fractions=(0.003, 0.004),
        nu=2.5,
        gen_time=0.01,
        reactivity=ConstantReactivity(-0.1),
        source=ConstantSource(5.0),
    )
    n = 123.0
    B = diffusion_matrix(p, [n, 7.0, 9.0], 0.0).matrix
    expected = 0.003 * 0.004 * 2.5 * n / 0.01
    assert B[1, 2] == pytest.approx(expected, rel=1e-12)
    assert B[2, 1] == B[1, 2]


def test_diffusion_matrix_exactly_symmetric(rng):
    for _ in range(25):
        p = random_params(rng)
        x = random_state(rng, p.m)
        x[0] -= 500.0  # negative neutron densities are allowed here
        B = diffusion_matrix(p, x, 0.0).matrix
        assert np.array_equal(B, B.T)


def test_diffusion_matrix_dimension_mismatch():
    p = one_group_params()
    with pytest.raises(ParameterError):
        diffusion_matrix(p, [1.0, 2.0, 3.0], 0.0)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

def test_event_vectors_one_group_fission_delta():
    p = one_group_params(beta1=0.05)
    evs = event_vectors(p)
    fission = evs[1]
    assert fission.kind == "fission"
    # (-1 + 0.95*2.5, 0.05*2.5)
    assert fission.delta[0] == pytest.approx(1.375, rel=1e-12)
    assert fission.delta[1] == pytest.approx(0.125, rel=1e-12)


def test_event_vectors_capture_delta(rng):
    for _ in range(5):
        p = random_params(rng)
        cap = event_vectors(p)[0]
        assert cap.kind == "capture"
        assert cap.delta[0] == -1.0
        assert np.all(cap.delta[1:] == 0.0)


def test_event_vectors_count_and_kinds():
    p = six_group_params(rho=0.003)
    evs = event_vectors(p)
    assert len(evs) == 9  # capture, fission, 6 transformations, source
    for i in range(6):
        tr = evs[2 + i]
        assert tr.kind == "transformation" and tr.group == i
        assert tr.delta[0] == 1.0 and tr.delta[1 + i] == -1.0
        assert np.count_nonzero(tr.delta) == 2
    assert evs[-1].kind == "source"
    assert evs[-1].delta[0] == 1.0


def test_event_rates_table1_hand_values():
    p = one_group_params(beta1=0.05)
    rates = event_rates(p, [400.0, 300.0], 0.0)
    assert rates[0] == pytest.approx(560.0, rel=1e-12)
    assert rates[1] == pytest.approx(240.0, rel=1e-12)
    assert rates[2] == pytest.approx(30.0, rel=1e-12)
    assert rates[3] == pytest.approx(200.0, rel=1e-12)
    assert rates.sum() == pytest.approx(1030.0, rel=1e-12)


def test_event_rates_absorbing_state():
    p = one_group_params(q=0.0)
    assert np.all(event_rates(p, [0.0, 0.0], 0.0) == 0.0)


def test_event_rates_source_rate_is_q(rng):
    p = one_group_params(q=200.0)
    for _ in range(5):
        x = random_state(rng, 1)
        assert event_rates(p, x, 0.0)[-1] == 200.0


def test_event_rates_reject_negative_population():
    p = one_group_params()
    with pytest.raises(ParameterError):
        event_rates(p, [-1.0, 300.0], 0.0)


# ---------------------------------------------------------------------------
# mean-change / covariance consistency (the defining identities)
# ---------------------------------------------------------------------------

def test_mean_change_matches_drift_plus_source(rng):
    for _ in range(100):
        p = random_params(rng)
        x = random_state(rng, p.m)
        rates = event_rates(p, x, 0.0)
        deltas = np.array([ev.delta for ev in event_vectors(p)])
        mean_change = rates @ deltas
        expected = drift_matrix(p, 0.0).matrix @ x
        expected[0] += p.source(0.0)
        scale = np.abs(expected).max() + 1e-30
        assert np.abs(mean_change - expected).max() <= 1e-10 * scale


def test_covariance_matches_diffusion(rng):
    for _ in range(100):
        p = random_params(rng)
        x = random_state(rng, p.m)
        rates = event_rates(p, x, 0.0)
        deltas = np.array([ev.delta for ev in event_vectors(p)])
        second_moment = np.einsum("k,ki,kj->ij", rates, deltas, deltas)
        B = diffusion_matrix(p, x, 0.0).matrix
        scale = np.abs(B).max() + 1e-30
        assert np.abs(second_moment - B).max() <= 1e-10 * scale


def test_event_factor_reproduces_diffusion(rng):
    # C = [sqrt(r_k) delta_k] factors the diffusion matrix, C C^T = B, also
    # with alpha overridden: the factor's capture rate comes from B, not alpha
    for trial in range(100):
        p = random_params(rng)
        if trial % 2:
            p = replace(p, alpha=float(rng.uniform(0.05, 0.6)))
            assert p.alpha_overridden
        X = random_state(rng, p.m)[None, :]
        deltas = np.array([ev.delta for ev in event_vectors(p)])
        rates = diffusion_event_rates(p, X, 0.0)
        assert np.all(rates >= 0.0)
        C = np.sqrt(rates)[:, :, None] * deltas[None, :, :]
        CCt = np.einsum("nki,nkj->nij", C, C)
        B = diffusion_matrices(p, X, 0.0)
        scale = np.abs(B).max() + 1e-30
        assert np.abs(CCt - B).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_sourced_equilibrium_table1():
    p = one_group_params(beta1=0.05)
    eq = equilibrium_state(p)
    assert eq.vector == pytest.approx([400.0, 300.0], rel=1e-12)


def test_sourced_equilibrium_residual(rng):
    for _ in range(20):
        p = random_params(rng)
        if abs(p.reactivity(0.0)) < 1e-3:
            continue
        eq = equilibrium_state(p)
        A = drift_matrix(p, 0.0).matrix
        res = A @ eq.vector
        res[0] += p.source(0.0)
        assert np.linalg.norm(res) <= 1e-9 * max(p.source(0.0), 1e-30)


def test_source_free_equilibrium_six_groups():
    p = six_group_params(rho=0.003)
    eq = equilibrium_state(p, n0=100.0)
    lam = np.array(SIX_GROUP_LAMBDA)
    beta = np.array(SIX_GROUP_BETA)
    assert eq.n == 100.0
    assert eq.precursors == pytest.approx(100.0 * beta / (lam * 2e-5), rel=1e-14)


def test_source_free_equilibrium_ramp_scenario():
    # beta1/(lambda1 * l) = 0.005/(0.1 * 1e-5) = 5000; times n0=100 -> 5e5
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.005,),
        nu=2.5,
        gen_time=1e-5,
        reactivity=LinearReactivity(0.25),
        source=ConstantSource(0.0),
    )
    eq = equilibrium_state(p, n0=100.0)
    assert eq.precursors[0] == pytest.approx(5e5, rel=1e-14)


def test_sourced_equilibrium_singular_at_critical():
    p = one_group_params(rho=0.0, q=200.0)
    with pytest.raises(SingularMatrixError):
        equilibrium_state(p)
