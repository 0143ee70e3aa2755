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
    delta_table,
    diffusion_matrices,
    diffusion_matrix,
    drift_matrix,
    equilibrium_state,
    event_rates,
)
from stokin.event_mc import _coefficients_per_row
from stokin.kinetics import _event_rates_into, _rate_coefficients, as_state_vector

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


@pytest.mark.parametrize(
    "field, value",
    [
        ("reactivity", lambda t: 0.1),
        ("source", lambda t: 1.0),
        # a reactivity type as the source could go negative, which the event
        # Monte Carlo would turn into negative probabilities
        ("source", LinearReactivity(-1.0)),
    ],
)
def test_parameters_accept_only_package_coefficients(field, value):
    coefficients = {"reactivity": ConstantReactivity(0.0), "source": ConstantSource(0.0)}
    coefficients[field] = value
    with pytest.raises(ParameterError, match=f"^{field} must be one of"):
        KineticsParameters(
            decay_constants=(0.1,),
            group_fractions=(0.005,),
            nu=2.5,
            gen_time=1.0,
            **coefficients,
        )


def test_beta_total_is_exact_sum():
    p = six_group_params(rho=0.003)
    assert abs(p.beta_total - sum(SIX_GROUP_BETA)) <= 1e-12 * p.beta_total


def test_returned_arrays_read_only_and_sized():
    p = one_group_params(beta1=0.05)
    arrays = {
        "equilibrium_state": (equilibrium_state(p), (2,)),
        "equilibrium_state n0": (equilibrium_state(p, n0=100.0), (2,)),
        "drift_matrix": (drift_matrix(p, 0.0), (2, 2)),
        "diffusion_matrix": (diffusion_matrix(p, [400.0, 300.0], 0.0), (2, 2)),
        "delta_table": (delta_table(p), (4, 2)),
    }
    for name, (arr, shape) in arrays.items():
        assert isinstance(arr, np.ndarray) and arr.shape == shape, name
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_state_dimension_check():
    p = one_group_params()
    with pytest.raises(ParameterError):
        as_state_vector([1.0, 2.0, 3.0], p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_vector_refuses_non_finite_entries(bad):
    p = one_group_params()
    with pytest.raises(ParameterError, match="finite"):
        as_state_vector([400.0, bad], p)


# ---------------------------------------------------------------------------
# drift matrix
# ---------------------------------------------------------------------------

def test_drift_matrix_one_group_hand_value():
    # hand arithmetic: ((-1/3 - 0.05)/(2/3), 0.1 ; 0.05/(2/3), -0.1)
    p = one_group_params(beta1=0.05)
    A = drift_matrix(p, 0.0)
    expected = np.array([[-0.575, 0.1], [0.075, -0.1]])
    assert np.abs(A - expected).max() <= 1e-15


def test_drift_matrix_vanishing_prompt_term_at_rho_equal_beta():
    p = one_group_params(beta1=0.05, rho=0.05)
    assert drift_matrix(p, 0.0)[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_drift_matrix_six_group_entries():
    p = six_group_params(rho=0.003)
    A = drift_matrix(p, 0.0)
    assert A[0, 0] == pytest.approx((0.003 - 0.007) / 0.00002, rel=1e-12)  # -200
    assert A[1, 0] == pytest.approx(0.000266 / 0.00002, rel=1e-12)  # 13.3
    assert A[0, 1] == pytest.approx(0.0127, rel=1e-12)
    # off-pattern entries are zero
    assert A[2, 1] == 0.0 and A[1, 2] == 0.0


def test_drift_matrix_column_sums(rng):
    for _ in range(50):
        p = random_params(rng)
        A = drift_matrix(p, 0.0)
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
        reactivity=PiecewiseConstantReactivity([0.0], [0.1]),
        source=ConstantSource(0.0),
    )
    with pytest.raises(ReactivityDomainError):
        drift_matrix(p, -0.5)


# ---------------------------------------------------------------------------
# diffusion matrix
# ---------------------------------------------------------------------------

def test_diffusion_matrix_table1_hand_values():
    # gamma = (-1 + 1/3 + 0.1 + 0.95^2*2.5)/(2/3); lambda1*c1 = 30
    p = one_group_params(beta1=0.05)
    B = diffusion_matrix(p, [400.0, 300.0], 0.0)
    assert B[0, 0] == pytest.approx(1243.75, rel=1e-12)  # zeta = gamma*400 + 30 + 200
    assert B[0, 1] == pytest.approx(11.25, rel=1e-12)  # a_1
    assert B[1, 1] == pytest.approx(33.75, rel=1e-12)  # r_1
    assert B[1, 0] == B[0, 1]


def test_diffusion_matrix_zero_state_zero_source():
    p = one_group_params(q=0.0)
    B = diffusion_matrix(p, [0.0, 0.0], 0.0)
    assert np.all(B == 0.0)


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
    B = diffusion_matrix(p, [n, 7.0, 9.0], 0.0)
    expected = 0.003 * 0.004 * 2.5 * n / 0.01
    assert B[1, 2] == pytest.approx(expected, rel=1e-12)
    assert B[2, 1] == B[1, 2]


def test_diffusion_matrix_exactly_symmetric(rng):
    for _ in range(25):
        p = random_params(rng)
        x = random_state(rng, p.m)
        x[0] -= 500.0  # negative neutron densities are allowed here
        B = diffusion_matrix(p, x, 0.0)
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
    fission = delta_table(p)[1]
    # (-1 + 0.95*2.5, 0.05*2.5)
    assert fission[0] == pytest.approx(1.375, rel=1e-12)
    assert fission[1] == pytest.approx(0.125, rel=1e-12)


def test_event_vectors_capture_delta(rng):
    for _ in range(5):
        p = random_params(rng)
        cap = delta_table(p)[0]
        assert cap[0] == -1.0
        assert np.all(cap[1:] == 0.0)


def test_event_vectors_count_and_kinds():
    # rows: capture, fission, one transformation per group, source
    p = six_group_params(rho=0.003)
    D = delta_table(p)
    assert D.shape == (9, 7)
    for i in range(6):
        tr = D[2 + i]
        assert tr[0] == 1.0 and tr[1 + i] == -1.0
        assert np.count_nonzero(tr) == 2
    assert D[-1, 0] == 1.0
    assert np.count_nonzero(D[-1]) == 1
    assert not np.any(np.signbit(D) & (D == 0.0))  # no -0.0 entries


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


def test_event_rates_batch_is_event_major(rng):
    # a batch (N, d) gives (m+3, N), column i equal to the rates of state i;
    # negative populations pass through as negative rates
    p = six_group_params(rho=0.003, q=5.0)
    X = np.array([random_state(rng, p.m) for _ in range(5)])
    X[1, 0] = -3.0
    X[2, 4] = -1.0
    rates = event_rates(p, X, 0.0)
    assert rates.shape == (p.m + 3, 5)
    for i, x in enumerate(X):
        assert np.array_equal(rates[:, i], event_rates(p, x, 0.0))
    assert rates[0, 1] < 0 and rates[1, 1] < 0 and rates[5, 2] < 0


def test_event_rates_per_row_times_match_scalar_calls():
    # linear-rho: the event MC's coefficients for one time per state (one
    # lookup per distinct time) give the same rates as one event_rates call
    # per state at its own time, repeated times included
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.005,),
        nu=2.5,
        gen_time=1e-5,
        reactivity=LinearReactivity(0.25),
        source=ConstantSource(3.0),
    )
    X = np.array([[100.0, 5e5], [80.0, 4e5], [120.0, 6e5], [0.0, 1e5]])
    t = np.array([0.02, 0.0, 0.02, 0.07])
    rates = _event_rates_into(np.empty((p.m + 3, len(X))), X.T, *_coefficients_per_row(p, t))
    for i in range(len(X)):
        assert np.array_equal(rates[:, i], event_rates(p, X[i], float(t[i])))
    assert rates[0, 0] != rates[0, 1]  # capture follows the ramp
    with pytest.raises(ParameterError, match="one time"):
        event_rates(p, X, t)


def test_event_rates_is_the_component_major_kernel(rng):
    # the event MC binds the coefficients once per time and fills its own
    # buffer through the kernel; event_rates goes through the same kernel, so
    # both give the same bits on every layout, and the kernel writes the
    # documented expressions
    p = six_group_params(rho=0.003, q=5.0)
    X = np.array([random_state(rng, p.m) for _ in range(5)])
    X[1, 0] = -3.0
    coefs = _rate_coefficients(p, 0.0)

    def kernel(states, cap, nu_l, lam, q):
        out = np.empty((lam.size + 3, states.shape[1]))
        return _event_rates_into(out, states, cap, nu_l, lam, q)

    expected = np.empty((p.m + 3, len(X)))
    expected[0] = ((-0.003 + 1.0 - 1.0 / p.nu) / p.gen_time) * X[:, 0]
    expected[1] = X[:, 0] / (p.nu * p.gen_time)
    expected[2:-1] = (X[:, 1:] * p.lam).T
    expected[-1] = 5.0
    assert np.array_equal(kernel(X.T, *coefs), expected)
    assert np.array_equal(kernel(np.ascontiguousarray(X.T), *coefs), expected)
    assert np.array_equal(event_rates(p, X, 0.0), expected)
    assert np.array_equal(event_rates(p, np.asfortranarray(X), 0.0), expected)
    assert np.array_equal(event_rates(p, X[2], 0.0), kernel(X[2][:, None], *coefs)[:, 0])

    # per-row times on the linear ramp, as the event MC binds them: one
    # coefficient set per time
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.005,),
        nu=2.5,
        gen_time=1e-5,
        reactivity=LinearReactivity(0.25),
        source=ConstantSource(3.0),
    )
    X = np.array([[100.0, 5e5], [80.0, 4e5], [120.0, 6e5], [0.0, 1e5]])
    t = np.array([0.02, 0.0, 0.02, 0.07])
    coefs = [_rate_coefficients(p, float(s)) for s in t]
    _, nu_l, lam, q = coefs[0]
    rates = kernel(X.T, *_coefficients_per_row(p, t))
    assert np.array_equal(rates, kernel(X.T, np.array([c[0] for c in coefs]), nu_l, lam, q))
    for i in range(len(X)):
        assert np.array_equal(rates[:, [i]], kernel(X[i][:, None], *coefs[i]))


# ---------------------------------------------------------------------------
# mean-change / covariance consistency (the defining identities)
# ---------------------------------------------------------------------------

def test_mean_change_matches_drift_plus_source(rng):
    for _ in range(100):
        p = random_params(rng)
        x = random_state(rng, p.m)
        rates = event_rates(p, x, 0.0)
        mean_change = rates @ delta_table(p)
        expected = drift_matrix(p, 0.0) @ x
        expected[0] += p.source(0.0)
        scale = np.abs(expected).max() + 1e-30
        assert np.abs(mean_change - expected).max() <= 1e-10 * scale


def test_covariance_matches_diffusion(rng):
    for _ in range(100):
        p = random_params(rng)
        x = random_state(rng, p.m)
        rates = event_rates(p, x, 0.0)
        deltas = delta_table(p)
        second_moment = np.einsum("k,ki,kj->ij", rates, deltas, deltas)
        B = diffusion_matrix(p, x, 0.0)
        scale = np.abs(B).max() + 1e-30
        assert np.abs(second_moment - B).max() <= 1e-10 * scale


def test_event_factor_reproduces_diffusion(rng):
    # C = [sqrt(r_k) delta_k] factors the diffusion matrix, C C^T = B, for a
    # batch of states through the event-major kernel
    for _ in range(100):
        p = random_params(rng)
        X = np.array([random_state(rng, p.m) for _ in range(3)])
        rates = event_rates(p, X, 0.0)
        assert np.all(rates >= 0.0)
        C = np.sqrt(rates.T)[:, :, None] * delta_table(p)[None, :, :]
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
    assert eq == pytest.approx([400.0, 300.0], rel=1e-12)


def test_sourced_equilibrium_residual(rng):
    for _ in range(20):
        p = random_params(rng)
        if abs(p.reactivity(0.0)) < 1e-3:
            continue
        eq = equilibrium_state(p)
        res = drift_matrix(p, 0.0) @ eq
        res[0] += p.source(0.0)
        assert np.linalg.norm(res) <= 1e-9 * max(p.source(0.0), 1e-30)


def test_source_free_equilibrium_six_groups():
    p = six_group_params(rho=0.003)
    eq = equilibrium_state(p, n0=100.0)
    lam = np.array(SIX_GROUP_LAMBDA)
    beta = np.array(SIX_GROUP_BETA)
    assert eq[0] == 100.0
    assert eq[1:] == pytest.approx(100.0 * beta / (lam * 2e-5), rel=1e-14)


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
    assert eq[1] == pytest.approx(5e5, rel=1e-14)


def test_sourced_equilibrium_singular_at_critical():
    p = one_group_params(rho=0.0, q=200.0)
    with pytest.raises(SingularMatrixError):
        equilibrium_state(p)
