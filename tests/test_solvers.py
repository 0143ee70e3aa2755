import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stokin import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    LinearReactivity,
    McConfig,
    NoiseSource,
    ParameterError,
    PiecewiseConstantReactivity,
    PiecewiseConstantSource,
    ReactivityDomainError,
    SolverError,
    TimeGrid,
    Trajectory,
    deterministic_solve,
    drift_matrix,
    equilibrium_state,
    euler_maruyama_solve,
    event_rates,
    run_mc_paths,
    run_sde_paths,
    stochastic_pca_solve,
)
from stokin.ensemble import path_seed

from conftest import one_group_params, six_group_params

# Frozen deterministic endpoints, computed independently with a stiff Radau
# integration at rtol=1e-12 (cross-checked below at looser tolerance).
TABLE2_N = 179.952821
TABLE2_CSUM = 4.488771e5
TABLE3_N = 135.000888
TABLE3_CSUM = 4.463604e5


def ivp_solve(p, x0, t_end):
    A = np.array(drift_matrix(p, 0.0))
    q = p.source(0.0)

    def rhs(t, y):
        out = A @ y
        out[0] += q
        return out

    sol = solve_ivp(rhs, (0.0, t_end), x0, method="Radau", rtol=1e-10, atol=1e-6)
    return sol.y[:, -1]


# ---------------------------------------------------------------------------
# grid / noise / trajectory plumbing
# ---------------------------------------------------------------------------

def test_time_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(1.0, -0.1)
    with pytest.raises(ParameterError):
        TimeGrid(1.0, 0.3)  # does not divide the horizon
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 0.1)  # zero span
    g = TimeGrid(2.0, 0.1)
    assert g.n_steps == 20
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(2.0, rel=1e-15)
    assert np.all(np.diff(g.nodes) > 0)


def test_time_grid_node_indices():
    g = TimeGrid(2.0, 0.1)
    assert g.node_indices([0.0, 0.1, 0.3, 2.0]).tolist() == [0, 1, 3, 20]
    assert g.node_indices(g.nodes).tolist() == list(range(21))
    with pytest.raises(ParameterError, match="0.05 is not a grid node"):
        g.node_indices([0.0, 0.05])
    with pytest.raises(ParameterError, match="2.1 is not a grid node"):
        g.node_indices([0.0, 2.1])  # past t_end
    with pytest.raises(ParameterError, match="sorted"):
        g.node_indices([0.2, 0.1])
    with pytest.raises(ParameterError, match="finite"):
        g.node_indices([0.0, np.nan])
    for bad in ((np.inf, 0.1), (np.nan, 0.1), (2.0, np.inf)):
        with pytest.raises(ParameterError, match="finite"):
            TimeGrid(*bad)


def test_noise_source_reproducible():
    a = NoiseSource(123).generator.standard_normal(10)
    b = NoiseSource(123).generator.standard_normal(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, NoiseSource(124).generator.standard_normal(10))


def test_generator_block_draws_match_single_draws():
    # the batched engines rely on block generation walking the same stream
    # as repeated small draws; guard that numpy behavior here
    g1 = np.random.default_rng(5)
    g2 = np.random.default_rng(5)
    block = g1.standard_normal((7, 3))
    singles = np.array([g2.standard_normal(3) for _ in range(7)])
    assert np.array_equal(block, singles)
    g1 = np.random.default_rng(6)
    g2 = np.random.default_rng(6)
    assert np.array_equal(g1.random(11), np.array([g2.random() for _ in range(11)]))


def test_trajectory_length_mismatch():
    with pytest.raises(ParameterError):
        Trajectory(times=np.zeros(3), states=np.zeros((2, 2)), method="x")


# ---------------------------------------------------------------------------
# deterministic solver
# ---------------------------------------------------------------------------

def test_deterministic_constant_at_sourced_equilibrium():
    p = one_group_params(beta1=0.05)
    x0 = equilibrium_state(p)
    traj = deterministic_solve(p, x0, TimeGrid(2.0, 0.1))
    assert np.abs(traj.states - x0).max() <= 1e-8 * np.abs(x0).max()


def test_deterministic_table1_paper_beta_against_ivp():
    # the 0.005 reading: x(2) = (430.250, 251.315); independent Radau check
    p = one_group_params(beta1=0.005)
    x0 = np.array([400.0, 300.0])
    traj = deterministic_solve(p, x0, TimeGrid(2.0, 0.1))
    ref = ivp_solve(p, x0, 2.0)
    assert traj.final_state == pytest.approx(ref, rel=1e-8)
    assert traj.final_state[0] == pytest.approx(430.25020597, rel=1e-7)
    assert traj.final_state[1] == pytest.approx(251.31459481, rel=1e-7)


def test_deterministic_table2_stiff_endpoint():
    p = six_group_params(rho=0.003)
    x0 = equilibrium_state(p, n0=100.0)
    traj = deterministic_solve(p, x0, TimeGrid(0.1, 0.005))
    assert traj.final_state[0] == pytest.approx(TABLE2_N, rel=1e-6)
    assert traj.final_state[1:].sum() == pytest.approx(TABLE2_CSUM, rel=1e-6)
    ref = ivp_solve(p, x0, 0.1)
    assert traj.final_state == pytest.approx(ref, rel=1e-6)


def test_deterministic_table3_stiff_endpoint():
    p = six_group_params(rho=0.007)
    x0 = equilibrium_state(p, n0=100.0)
    traj = deterministic_solve(p, x0, TimeGrid(0.001, 5e-5))
    assert traj.final_state[0] == pytest.approx(TABLE3_N, rel=1e-6)
    assert traj.final_state[1:].sum() == pytest.approx(TABLE3_CSUM, rel=1e-6)


def test_deterministic_step_halving_invariance():
    # exact for constant coefficients: halving dt changes nothing but roundoff
    p = one_group_params(beta1=0.005)
    x0 = np.array([400.0, 300.0])
    coarse = deterministic_solve(p, x0, TimeGrid(2.0, 0.2)).final_state
    fine = deterministic_solve(p, x0, TimeGrid(2.0, 0.1)).final_state
    assert np.abs(coarse - fine).max() <= 1e-6 * np.abs(fine).max()


def test_deterministic_linear_ramp_matches_ivp():
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.005,),
        nu=2.5,
        gen_time=1e-5,
        reactivity=LinearReactivity(0.25),
        source=ConstantSource(0.0),
    )
    x0 = equilibrium_state(p, n0=100.0)
    t_end = 0.04  # before the explosive phase so relative comparison is clean
    traj = deterministic_solve(p, x0, TimeGrid(t_end, 2e-5))

    def rhs(t, y):
        A = np.array(drift_matrix(p, t))
        return A @ y

    ref = solve_ivp(rhs, (0.0, t_end), x0, method="Radau", rtol=1e-10, atol=1e-8).y[:, -1]
    assert traj.final_state == pytest.approx(ref, rel=1e-5)


def test_conservation_under_drift_at_critical_no_source():
    # rho=0, q=0: column sums vanish, so n + sum(c) is conserved
    p = one_group_params(rho=0.0, q=0.0, beta1=0.005)
    x0 = np.array([100.0, 40.0])
    traj = deterministic_solve(p, x0, TimeGrid(1.0, 0.05))
    totals = traj.states.sum(axis=1)
    assert np.abs(totals - totals[0]).max() <= 1e-10 * totals[0]


# ---------------------------------------------------------------------------
# stochastic solvers: reductions, determinism, batch equivalence
# ---------------------------------------------------------------------------

def test_em_zero_noise_is_explicit_euler():
    p = one_group_params(beta1=0.005)
    x0 = np.array([400.0, 300.0])
    grid = TimeGrid(1.0, 0.01)
    traj = euler_maruyama_solve(p, x0, grid, NoiseSource(0), zero_noise=True)
    A = np.array(drift_matrix(p, 0.0))
    x = x0.copy()
    for k in range(grid.n_steps):
        step = A @ x
        step[0] += 200.0
        x = x + grid.dt * step
        assert np.abs(traj.states[k + 1] - x).max() <= 1e-12 * np.abs(x).max()


def test_pca_zero_noise_matches_deterministic_sourcefree():
    p = six_group_params(rho=0.007)  # constant rho, q=0
    x0 = equilibrium_state(p, n0=100.0)
    grid = TimeGrid(0.001, 1e-5)
    pca = stochastic_pca_solve(p, x0, grid, NoiseSource(0), zero_noise=True)
    det = deterministic_solve(p, x0, grid)
    assert np.abs(pca.states - det.states).max() <= 1e-9 * np.abs(det.states).max()


def test_seed_determinism_bitwise():
    p = one_group_params(beta1=0.05)
    x0 = np.array([400.0, 300.0])
    grid = TimeGrid(0.5, 0.005)
    for solver in (euler_maruyama_solve, stochastic_pca_solve):
        t1 = solver(p, x0, grid, NoiseSource(99))
        t2 = solver(p, x0, grid, NoiseSource(99))
        assert np.array_equal(t1.states, t2.states)
        assert t1.seed == 99


def test_batch_paths_bit_equal_single_paths():
    p = one_group_params(beta1=0.05)
    x0 = np.array([400.0, 300.0])
    grid = TimeGrid(0.2, 0.002)
    seeds = [path_seed(31, i) for i in range(5)]
    for method, solver in (
        ("em", euler_maruyama_solve),
        ("pca", stochastic_pca_solve),
    ):
        gens = [np.random.default_rng(s) for s in seeds]
        batch = run_sde_paths(p, x0, grid, method, gens)
        for i, s in enumerate(seeds):
            traj = solver(p, x0, grid, NoiseSource(s))
            assert np.array_equal(batch.states[i], traj.states)


def test_batch_paths_bit_equal_single_paths_six_group_clamp():
    # tiny six-group population: paths undershoot zero, so the clip branch of
    # the event factor runs inside the batch and in the single paths alike
    p = six_group_params(rho=0.007)
    x0 = np.concatenate([[1.0], np.full(6, 0.01)])
    grid = TimeGrid(2e-4, 1e-5)
    seeds = [path_seed(37, i) for i in range(6)]
    for method, solver in (
        ("em", euler_maruyama_solve),
        ("pca", stochastic_pca_solve),
    ):
        gens = [np.random.default_rng(s) for s in seeds]
        batch = run_sde_paths(p, x0, grid, method, gens, psd_policy="clamp")
        assert batch.clipped_hard.sum() > 0
        for i, s in enumerate(seeds):
            traj = solver(p, x0, grid, NoiseSource(s), psd_policy="clamp")
            assert np.array_equal(batch.states[i], traj.states)
            assert traj.diagnostics["clipped_hard"] == batch.clipped_hard[i]
            assert traj.diagnostics["negative_steps"] == batch.negative_steps[i]


def test_negative_population_rates_follow_event_mc_rule():
    # a negative population contributes zero rate, in the SDE noise factor
    # as in the event Monte Carlo, whose rates are the kernel's on the
    # states clipped at zero
    from stokin.solvers import _clipped_event_rates

    for p, x in (
        (one_group_params(beta1=0.05), np.array([-3.0, 300.0])),
        (one_group_params(beta1=0.05), np.array([400.0, -2.0])),
        (six_group_params(rho=0.007), np.concatenate([[-0.5], np.full(6, 40.0)])),
    ):
        raw = event_rates(p, x[None, :], 0.0)
        rates, small, hard = _clipped_event_rates(raw)
        assert np.array_equal(rates, np.maximum(raw, 0.0))
        assert np.array_equal(rates[:, 0], event_rates(p, np.maximum(x, 0.0), 0.0))
        assert hard[0] and small[0] == 0
    # roundoff-scale undershoot is clipped and counted, not flagged
    p = one_group_params(beta1=0.05)
    raw = event_rates(p, np.array([[-1e-12, 300.0]]), 0.0)
    rates, small, hard = _clipped_event_rates(raw)
    assert np.array_equal(rates[:, 0], event_rates(p, np.array([0.0, 300.0]), 0.0))
    assert small[0] == 2 and not hard[0]


def test_unknown_psd_policy_rejected():
    p = one_group_params(beta1=0.05)
    grid = TimeGrid(0.01, 0.001)
    with pytest.raises(ParameterError):
        run_sde_paths(p, [400.0, 300.0], grid, "em", [np.random.default_rng(0)],
                      psd_policy="eigen")


def test_strict_policy_failure_carries_step_index():
    # tiny population at prompt-critical six-group parameters: paths undershoot
    # zero almost immediately and their event rates turn negative
    p = six_group_params(rho=0.007)
    x0 = np.concatenate([[1.0], np.full(6, 0.01)])
    grid = TimeGrid(0.001, 1e-5)
    with pytest.raises(SolverError) as err:
        euler_maruyama_solve(p, x0, grid, NoiseSource(3), psd_policy="strict")
    assert err.value.step_index is not None
    # the clamp policy finishes and counts the hard clips
    traj = euler_maruyama_solve(p, x0, grid, NoiseSource(3), psd_policy="clamp")
    assert traj.diagnostics["clipped_hard"] > 0


def test_pca_records_exact_midpoint_reactivity():
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.005,),
        nu=2.5,
        gen_time=1e-5,
        reactivity=LinearReactivity(0.25),
        source=ConstantSource(0.0),
    )
    x0 = equilibrium_state(p, n0=100.0)
    grid = TimeGrid(0.01, 1e-3)
    traj = stochastic_pca_solve(p, x0, grid, NoiseSource(5), psd_policy="clamp")
    nodes = grid.nodes
    expected = 0.25 * (nodes[:-1] + nodes[1:]) / 2.0
    assert np.array_equal(traj.diagnostics["rho_steps"], expected)


def test_em_negative_step_diagnostic_counts():
    # about 1% of table-3 paths undershoot zero; scan a batch for one
    p = six_group_params(rho=0.007)
    x0 = equilibrium_state(p, n0=100.0)
    grid = TimeGrid(0.001, 1e-5)
    gens = [np.random.default_rng(path_seed(8, i)) for i in range(400)]
    res = run_sde_paths(p, x0, grid, "em", gens, psd_policy="clamp")
    assert not res.failed.any()
    assert res.negative_steps.sum() > 0
    assert res.clipped_hard.sum() > 0


def test_strict_failures_mid_batch_match_single_paths():
    from stokin.solvers import _clipped_event_rates

    # a handful of table-3 paths turn an event rate negative below the
    # roundoff band partway through; the batch drops them from its surviving
    # set while the rest keep stepping
    p = six_group_params(rho=0.007)
    x0 = equilibrium_state(p, n0=100.0)
    grid = TimeGrid(0.001, 1e-5)
    seeds = [path_seed(8, i) for i in range(400)]
    for method, solver in (
        ("em", euler_maruyama_solve),
        ("pca", stochastic_pca_solve),
    ):
        gens = [np.random.default_rng(s) for s in seeds]
        batch = run_sde_paths(p, x0, grid, method, gens, psd_policy="strict")
        failed = np.flatnonzero(batch.failed)
        assert 1 < failed.size < 20
        assert len(set(batch.fail_step[failed].tolist())) > 1
        assert np.all(batch.fail_step[~batch.failed] == -1)
        for i, s in enumerate(seeds):
            if not batch.failed[i]:
                traj = solver(p, x0, grid, NoiseSource(s), psd_policy="strict")
                assert np.array_equal(batch.states[i], traj.states)
                continue
            with pytest.raises(SolverError) as err:
                solver(p, x0, grid, NoiseSource(s), psd_policy="strict")
            step = int(batch.fail_step[i])
            assert err.value.step_index == step
            # the step failed on its start state: a rate below the roundoff
            # band there, none at the step before
            hard = [
                _clipped_event_rates(event_rates(p, batch.states[i, k][None, :], grid.nodes[k]))[2]
                for k in (step - 1, step)
            ]
            assert hard[0] is None or not hard[0][0]
            assert hard[1][0]
            # rows after the failure hold the last state before it
            assert (batch.states[i, step + 1:] == batch.states[i, step]).all()


def test_noise_block_length_does_not_change_paths(monkeypatch):
    # each path walks its own stream in order however the draws are split
    # into blocks; 3-step blocks do not divide the 100 steps
    from stokin import solvers

    p = six_group_params(rho=0.007)
    x0 = equilibrium_state(p, n0=100.0)
    grid = TimeGrid(0.001, 1e-5)
    n_paths = 40
    budgets = (solvers._BLOCK_BUDGET, 3 * n_paths * (p.m + 3))
    fields = ("states", "negative_steps", "clipped_small", "clipped_hard")
    for method in ("em", "pca"):
        runs = []
        for budget in budgets:
            monkeypatch.setattr(solvers, "_BLOCK_BUDGET", budget)
            gens = [np.random.default_rng(path_seed(8, i)) for i in range(n_paths)]
            runs.append(run_sde_paths(p, x0, grid, method, gens, psd_policy="clamp"))
        default, small = runs
        assert default.clipped_hard.sum() > 0
        for name in fields:
            assert np.array_equal(getattr(default, name), getattr(small, name)), name


@pytest.mark.parametrize("m", [1, 6])
def test_delta_matvec_is_the_dense_event_product_bit_for_bit(m, rng):
    # the engines' event-table product skips the table's zero products; a
    # skipped +-0 can only flip the sign of an exactly-zero sum
    from stokin.kinetics import delta_table
    from stokin.solvers import _col_matvec, _delta_matvec

    p = one_group_params(beta1=0.05) if m == 1 else six_group_params(rho=0.007)
    deltas = delta_table(p).T
    k = p.m + 3

    def check(W):
        dense = _col_matvec(deltas, W)
        assert _delta_matvec(deltas, W).tobytes() == dense.tobytes()
        return dense

    # negatives everywhere, signed zeros in the capture and source weights,
    # which no precursor row reads: every precursor sum is nonzero
    W = rng.standard_normal((k, 300))
    for row in (0, k - 1):
        W[row, :100] = 0.0
        W[row, 100:200] = -0.0
    assert check(W)[1:].all()
    # whole zero columns of either sign, and zero columns of mixed signs; in
    # column 1 the precursor sums are -0 - (+0) = -0, but the skipped
    # 0 * W[0] = +0 makes the dense sums +0
    W = rng.standard_normal((k, 300))
    W[:, 0] = 0.0
    W[:, 1] = -0.0
    W[0, 1] = 1.0
    W[2:-1, 1] = 0.0
    W[:, 2:100] = np.where(rng.random((k, 98)) < 0.5, 0.0, -0.0)
    assert np.signbit(check(W)[1:, 1]).sum() == 0

    # an inf or NaN weight makes row 0 non-finite, so the overflow check sees
    # the same paths; the finite columns stay bit-equal
    W = rng.standard_normal((k, 300))
    W[0, 3] = np.inf
    W[1, 7] = -np.inf
    W[2, 11] = np.nan
    W[k - 1, 13] = np.inf
    bad = ~np.isfinite(W).all(axis=0)
    with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf
        dense = _col_matvec(deltas, W)
        sparse = _delta_matvec(deltas, W)
    assert np.array_equal(~np.isfinite(sparse[0]), bad)
    assert np.array_equal(~np.isfinite(sparse).all(axis=0), ~np.isfinite(dense).all(axis=0))
    assert sparse[:, ~bad].tobytes() == dense[:, ~bad].tobytes()


@pytest.mark.parametrize("preset", ["table1", "table2", "table3", "linear-rho"])
def test_zero_noise_reductions_every_preset(preset):
    from stokin import expm, load_scenario

    scn = load_scenario(preset)
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    policy = scn.solver.get("psd_policy", "strict")

    # EM with the diffusion forced to zero is explicit Euler, step for step
    em_dt = scn.solver["em_dt"]
    grid = TimeGrid(50 * em_dt, em_dt)
    em = euler_maruyama_solve(p, x0, grid, NoiseSource(0), zero_noise=True, psd_policy=policy)
    x = x0.copy()
    q = p.source(0.0)
    for k in range(grid.n_steps):
        A = np.array(drift_matrix(p, grid.nodes[k]))
        step = A @ x
        step[0] += q
        x = x + grid.dt * step
        assert np.abs(em.states[k + 1] - x).max() <= 1e-12 * max(1.0, np.abs(x).max())

    # PCA with the diffusion forced to zero is the exponential map on
    # (state + source increment), reactivity frozen at interval midpoints
    pca_dt = scn.solver["pca_dt"]
    grid = TimeGrid(50 * pca_dt, pca_dt)
    pca = stochastic_pca_solve(p, x0, grid, NoiseSource(0), zero_noise=True, psd_policy=policy)
    x = x0.copy()
    for k in range(grid.n_steps):
        tm = grid.midpoint(k)
        E = expm(drift_matrix(p, tm) * grid.dt)
        f = np.zeros(p.dim)
        f[0] = p.source(tm) * grid.dt
        x = E @ (x + f)
        assert np.abs(pca.states[k + 1] - x).max() <= 1e-12 * max(1.0, np.abs(x).max())
    if p.source(0.0) == 0.0:
        det = deterministic_solve(p, x0, grid)
        assert np.abs(pca.states - det.states).max() <= 1e-9 * np.abs(det.states).max()


# ---------------------------------------------------------------------------
# weak consistency over one step (ensemble mean/covariance of the increment)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["em", "pca"])
@pytest.mark.parametrize("preset", ["table1", "table2", "table3", "linear-rho"])
def test_one_step_weak_consistency(preset, method):
    # one step of the scheme from the preset's initial state at its solver dt:
    # the increment's mean and covariance match the scheme's one-step law
    # (EM: x0 + (A x0 + q) dt and B dt; PCA: E (x0 + q dt) and E B E^T dt)
    from stokin import diffusion_matrix, expm, load_scenario

    scn = load_scenario(preset)
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    dt = scn.solver[f"{method}_dt"]
    grid = TimeGrid(dt, dt)
    n_samples = 100_000
    gens = [np.random.default_rng(path_seed(404, i)) for i in range(n_samples)]
    res = run_sde_paths(p, x0, grid, method, gens, psd_policy=scn.solver["psd_policy"])
    assert not res.failed.any()
    increments = res.states[:, -1, :] - x0

    B = diffusion_matrix(p, x0, 0.0) * dt
    if method == "em":
        drift = drift_matrix(p, 0.0) @ x0
        drift[0] += p.source(0.0)
        expected_mean = drift * dt
        expected_cov = B
    else:
        tm = grid.midpoint(0)
        E = expm(drift_matrix(p, tm) * dt)
        f = np.zeros(p.dim)
        f[0] = p.source(tm) * dt
        expected_mean = E @ (x0 + f) - x0
        expected_cov = E @ B @ E.T

    mean = increments.mean(axis=0)
    se_mean = increments.std(axis=0, ddof=1) / np.sqrt(n_samples)
    assert np.all(np.abs(mean - expected_mean) <= 4.0 * se_mean)

    centered = increments - mean
    prods = np.einsum("ni,nj->nij", centered, centered)
    cov = prods.sum(axis=0) / (n_samples - 1)
    se_cov = prods.std(axis=0, ddof=1) / np.sqrt(n_samples)
    assert np.all(np.abs(cov - expected_cov) <= 4.0 * se_cov)


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

SCHEMES = {
    "det": lambda p, x0, grid: deterministic_solve(p, x0, grid),
    "em": lambda p, x0, grid: euler_maruyama_solve(p, x0, grid, NoiseSource(1)),
    "pca": lambda p, x0, grid: stochastic_pca_solve(p, x0, grid, NoiseSource(1)),
    **{
        f"mc-{mode}": lambda p, x0, grid, mode=mode: run_mc_paths(
            p, x0, grid.t_end, McConfig(mode), [np.random.default_rng(1)], (grid.t_end,)
        )
        for mode in ("fixed", "exact")
    },
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("coefficient", ["reactivity", "source"])
@pytest.mark.parametrize("breakpoint_", [0.004, 0.05])
def test_every_scheme_refuses_a_schedule_starting_after_t0(scheme, coefficient, breakpoint_):
    # every run starts at t=0, so a schedule starting later is refused when
    # the parameters are built, before any scheme sees it; 0.004 lies inside
    # the first half step, where the first midpoint (0.005) is in the domain
    def params(times, values):
        coefficients = {
            "reactivity": ConstantReactivity(-1.0 / 3.0), "source": ConstantSource(200.0)
        }
        if coefficient == "reactivity":
            coefficients["reactivity"] = PiecewiseConstantReactivity(times, values)
        else:
            coefficients["source"] = PiecewiseConstantSource(times, values)
        return KineticsParameters(
            decay_constants=(0.1,), group_fractions=(0.05,), nu=2.5, gen_time=2.0 / 3.0,
            **coefficients,
        )

    value = -1.0 / 3.0 if coefficient == "reactivity" else 200.0
    message = f"{coefficient} undefined at t=0.0: first breakpoint is {breakpoint_}"
    with pytest.raises(ReactivityDomainError) as info:
        params((breakpoint_,), (value,))
    assert str(info.value) == message
    # the same schedule held from t=0 on runs through the breakpoint
    p = params((0.0, breakpoint_), (value, value))
    SCHEMES[scheme](p, np.array([400.0, 300.0]), TimeGrid(0.1, 0.01))
