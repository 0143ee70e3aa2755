import math
from dataclasses import replace

import numpy as np
import pytest

from stokin import (
    LinearReactivity,
    McConfig,
    NoiseSource,
    ParameterError,
    PiecewiseConstantReactivity,
    PiecewiseConstantSource,
    StepSizeError,
    Trajectory,
    delta_table,
    diffusion_matrix,
    drift_matrix,
    equilibrium_state,
    load_scenario,
    mc_trajectory,
    run_mc_paths,
    sample_increments,
)
from stokin import event_mc
from stokin.ensemble import path_seed

from conftest import one_group_params, random_state, six_group_params


class StubGenerator:
    """Generator stand-in: scripted uniforms first, then ``fill``."""

    def __init__(self, values, fill=0.5):
        self.values = list(values)
        self.fill = fill

    def random(self, size):
        head, self.values = self.values[:size], self.values[size:]
        return np.array(head + [self.fill] * (size - len(head)))


class StubNoise:
    """NoiseSource stand-in whose generator returns scripted uniforms."""

    def __init__(self, values):
        self.generator = StubGenerator(values)
        self.seed = None


def run_stubbed(p, x0, horizon, cfg, scripts):
    """One path per script of uniforms; returns the engine result."""
    gens = [StubGenerator(u) for u in scripts]
    return run_mc_paths(p, x0, horizon, cfg, gens, [horizon])


# ---------------------------------------------------------------------------
# single fixed steps
# ---------------------------------------------------------------------------

def test_fixed_step_probabilities_and_bucket_selection():
    # rates (560, 240, 30, 200) * dt=1e-4 -> P=(0.056, 0.024, 0.003, 0.02),
    # no-event probability 0.897; one step per path
    p = one_group_params(beta1=0.05)
    scripts = [
        [0.05],  # capture bucket
        [0.056 + 1e-9],  # fission
        [0.0805],  # transformation bucket
        [0.0995],  # source bucket
        [0.5],  # no event (p=0.897)
    ]
    res = run_stubbed(p, [400.0, 300.0], 1e-4, McConfig(dt=1e-4), scripts)
    s = res.states[:, -1]
    assert s[0].tolist() == [399.0, 300.0]
    assert s[1] == pytest.approx([401.375, 300.125], rel=1e-12)
    assert s[2].tolist() == [401.0, 299.0]
    assert s[3].tolist() == [401.0, 300.0]
    assert s[4].tolist() == [400.0, 300.0]
    assert res.event_counts.tolist() == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]
    ]


def test_fixed_step_absorbing_state():
    p = one_group_params(q=0.0)
    res = run_stubbed(p, [0.0, 0.0], 1e-3, McConfig(dt=1e-3), [[0.0], [0.3], [0.999]])
    assert np.all(res.states == 0.0)
    assert np.all(res.event_counts == 0)


def test_fixed_step_rejects_oversized_dt():
    p = one_group_params(beta1=0.05)
    with pytest.raises(StepSizeError) as err:
        sample_increments(p, [400.0, 300.0], 0.0, 1e-2, 10, np.random.default_rng(0))
    assert err.value.max_allowed_dt == pytest.approx(1.0 / 1030.0, rel=1e-12)


def test_sample_increments_refuses_bad_dt_and_count():
    # a NaN dt used to return every increment as a capture, a negative one
    # all zeros
    p = one_group_params(beta1=0.05)
    for dt in (0.0, -1e-4, np.nan, np.inf):
        with pytest.raises(ParameterError, match="dt must be positive and finite"):
            sample_increments(p, [400.0, 300.0], 0.0, dt, 10, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="n_samples must be nonnegative"):
        sample_increments(p, [400.0, 300.0], 0.0, 1e-4, -1, np.random.default_rng(0))
    empty = sample_increments(p, [400.0, 300.0], 0.0, 1e-4, 0, np.random.default_rng(0))
    assert empty.shape == (0, p.dim)


def test_fixed_step_rejects_negative_state():
    p = one_group_params()
    with pytest.raises(ParameterError):
        run_stubbed(p, [-1.0, 0.0], 1e-4, McConfig(dt=1e-4), [[0.5]])


# ---------------------------------------------------------------------------
# geometric skip-ahead (fixed mode, autonomous rates)
# ---------------------------------------------------------------------------

# dt = 2^-14 keeps every multiple of dt exact; from (400, 300) the step
# probabilities are (560, 240, 30, 200) * dt with total P = 1030 * dt
SKIP_DT = 2.0**-14
SKIP_P = 1030.0 * SKIP_DT
LAST_UNIFORM = np.nextafter(1.0, 0.0)  # log1p(-u) = -36.7: no event for many steps


def uniform_for(k, cell):
    """The uniform whose geometric count is k and whose cell position is ``cell``."""
    return 1.0 - (1.0 - SKIP_P) ** k * (1.0 - cell)


def test_skip_inverts_geometric_count_and_cell():
    p = one_group_params(beta1=0.05)
    x0 = [400.0, 300.0]
    D = delta_table(p)
    # K = 3 at cell position 0.04, inside the fission bucket [560, 800) * dt;
    # then u = 0 fires a capture on every step, one per iteration
    horizon = 64 * SKIP_DT
    res = run_stubbed(p, x0, horizon, McConfig(dt=SKIP_DT), [[uniform_for(3.0, 0.04)] + [0.0] * 60])
    # the 60 captures fill steps 5..64, so the fission took step 4: t = 4 dt
    expected = np.array(x0) + D[1]
    for _ in range(60):
        expected = expected + D[0]
    assert np.array_equal(res.states[0, -1], expected)
    assert res.event_counts.tolist() == [[60, 1, 0, 0]]

    # K = 9 >= n_full = 7: the path crosses 7 empty steps, then the plain
    # Bernoulli step onto the target draws 0.06, inside the source bucket
    horizon = 8 * SKIP_DT
    res = run_stubbed(p, x0, horizon, McConfig(dt=SKIP_DT), [[uniform_for(9.5, 0.0), 0.06]])
    assert res.states[0, -1].tolist() == [401.0, 300.0]
    assert res.event_counts.tolist() == [[0, 0, 0, 1]]


def test_skip_crosses_empty_stretches():
    # absorbing: zero rate goes straight to each record time (1e9 steps of 1e-9)
    p = one_group_params(q=0.0)
    record = np.linspace(0.0, 1.0, 11)
    res = run_mc_paths(p, [0.0, 0.0], 1.0, McConfig(dt=1e-9), [np.random.default_rng(5)], record)
    assert np.all(res.states == 0.0)
    assert np.all(res.event_counts == 0)

    # with a source: each stretch of about 1e8 steps is crossed without an
    # event, then u = 0 fires on the last step onto the record time (source
    # from the empty state, capture from n = 1), so every row sees its event
    p = one_group_params(beta1=0.05)
    record = np.array([0.0, 0.05, 0.12, 0.15])
    gen = StubGenerator([LAST_UNIFORM, 0.0] * 3, fill=LAST_UNIFORM)
    res = run_mc_paths(p, [0.0, 0.0], 0.15, McConfig(dt=1e-9), [gen], record)
    assert res.states[0].tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    assert res.event_counts.tolist() == [[1, 0, 0, 2]]


def test_skip_and_per_step_branches_agree():
    # a one-piece schedule is the constant-reactivity process, but only
    # constant types count as autonomous, so it takes the per-step loop
    p_skip = one_group_params(beta1=0.05)
    rho = p_skip.reactivity.value
    p_step = replace(p_skip, reactivity=PiecewiseConstantReactivity((0.0,), (rho,)))
    x0 = [400.0, 300.0]
    horizon = 0.5
    n = 1500

    def finals(p, seed_base):
        gens = [np.random.default_rng(path_seed(seed_base, i)) for i in range(n)]
        res = run_mc_paths(p, x0, horizon, McConfig(), gens, [horizon])
        return np.column_stack([res.states[:, -1], res.event_counts])

    a = finals(p_skip, 303)
    b = finals(p_step, 404)
    se = np.hypot(a.std(axis=0, ddof=1), b.std(axis=0, ddof=1)) / math.sqrt(n)
    # final n, c1 and each of the four event counts
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4.0 * se)


# ---------------------------------------------------------------------------
# exact jumps
# ---------------------------------------------------------------------------

def test_exact_step_source_only():
    # only the source clock runs from the empty state: the first event is a
    # source birth after an exponential wait, P(no event by T) = exp(-200 T)
    p = one_group_params(q=200.0)
    horizon = 1.0 / 200.0
    n = 4000
    gens = [np.random.default_rng(path_seed(17, i)) for i in range(n)]
    res = run_mc_paths(p, [0.0, 0.0], horizon, McConfig(mode="exact"), gens, [horizon])
    one = res.event_counts.sum(axis=1) == 1
    assert np.all(res.event_counts[one, -1] == 1)
    assert np.all(res.states[one, -1] == [1.0, 0.0])
    waiting = res.event_counts.sum(axis=1) == 0
    assert np.all(res.states[waiting, -1] == 0.0)
    expected = math.exp(-1.0)
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(waiting.mean() - expected) <= 4.0 * se


def test_exact_step_absorbing():
    p = one_group_params(q=0.0)
    res = run_stubbed(p, [0.0, 0.0], 1.0, McConfig(mode="exact"), [[]])
    assert res.states[0, -1].tolist() == [0.0, 0.0]
    assert np.all(res.event_counts == 0)


def test_exact_step_capture_probability():
    # P(capture) = 560/1030; scripted selection uniform hits the bucket edge.
    # The waiting uniform 0.5 puts the first jump at ln2/1030 = 6.7e-4 s and
    # the second past the 1e-3 s horizon, so each path makes exactly one jump.
    p = one_group_params(beta1=0.05)
    x0 = [400.0, 300.0]
    cfg = McConfig(mode="exact")
    edge = 560.0 / 1030.0
    res = run_stubbed(p, x0, 1e-3, cfg, [[0.5, edge - 1e-9], [0.5, edge + 1e-9]])
    assert res.states[0, -1].tolist() == [399.0, 300.0]
    assert res.states[1, -1, 0] == pytest.approx(401.375, rel=1e-12)  # fission bucket

    sel = np.random.default_rng(3).random(20_000)
    hits = 0
    for chunk in np.split(sel, 20):
        res = run_stubbed(p, x0, 1e-3, cfg, [[0.5, u] for u in chunk])
        assert np.all(res.event_counts.sum(axis=1) == 1)
        hits += int((res.states[:, -1, 0] == 399.0).sum())
    freq = hits / sel.size
    se = math.sqrt(edge * (1 - edge) / sel.size)
    assert abs(freq - edge) <= 4.0 * se


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_trajectory_zero_horizon_keeps_initial_state():
    p = one_group_params(beta1=0.05)
    traj = mc_trajectory(p, [400.0, 300.0], 0.0, McConfig(), NoiseSource(1))
    assert isinstance(traj, Trajectory) and traj.method == "mc" and traj.seed == 1
    assert traj.times.tolist() == [0.0]
    assert traj.states[0].tolist() == [400.0, 300.0]
    assert sum(traj.diagnostics["event_counts"].values()) == 0


def test_trajectory_rejects_negative_initial_state():
    p = one_group_params()
    with pytest.raises(ParameterError):
        mc_trajectory(p, [-1.0, 0.0], 1.0, McConfig(), NoiseSource(1))


def test_trajectory_halving_is_logged():
    p = one_group_params(beta1=0.05)
    # dt=5e-3 gives total probability 5.15; three halvings reach 0.64
    cfg = McConfig(dt=5e-3)
    traj = mc_trajectory(p, [400.0, 300.0], 0.01, cfg, NoiseSource(2), (0.0, 0.01))
    halvings = traj.diagnostics["halvings"]
    assert len(halvings) == 3
    assert halvings[-1][1] == pytest.approx(5e-3 / 8.0, rel=1e-12)


def test_trajectory_integer_yields_keep_integer_nonnegative_states():
    p = one_group_params(beta1=0.05, q=5.0)
    cfg = McConfig(yield_model="integer")
    traj = mc_trajectory(p, [5.0, 3.0], 0.5, cfg, NoiseSource(11), np.linspace(0.0, 0.5, 11))
    assert np.all(traj.states >= 0.0)
    assert np.array_equal(traj.states, np.rint(traj.states))


def test_trajectory_fractional_negative_capture_diagnostic():
    # fractional populations: a capture from n<1 drives n negative; it is
    # counted, and the path keeps evolving with the undershoot contributing
    # zero rate
    p = one_group_params(beta1=0.05, q=0.0)
    cfg = McConfig(dt=1e-3)
    # first step: u below P_capture = 1.26e-3 -> capture; second step: no event
    traj = mc_trajectory(p, [0.9, 0.0], 2e-3, cfg, StubNoise([1e-4, 0.99]), (0.0, 2e-3))
    assert traj.diagnostics["negative_captures"] == 1
    assert traj.states[-1].tolist() == [0.9 - 1.0, 0.0]


def test_trajectory_event_counts_scale_with_rates():
    p = one_group_params(beta1=0.05)
    traj = mc_trajectory(p, [400.0, 300.0], 2.0, McConfig(), NoiseSource(5), (0.0, 2.0))
    counts = traj.diagnostics["event_counts"]
    # expectations over 2 s: capture 1120, fission 480, transformation 60, source 400
    assert abs(counts["capture"] - 1120) < 5 * math.sqrt(1120)
    assert abs(counts["fission"] - 480) < 5 * math.sqrt(480)
    assert abs(counts["transformation_1"] - 60) < 5 * math.sqrt(60)
    assert abs(counts["source"] - 400) < 5 * math.sqrt(400)


# ---------------------------------------------------------------------------
# one-step moment identities (vectorized sampler)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("yield_model", ["fractional", "integer"])
def test_one_step_mean_matches_drift(yield_model):
    p = one_group_params(beta1=0.05)
    x = np.array([400.0, 300.0])
    dt = 1e-4
    inc = sample_increments(p, x, 0.0, dt, 1_000_000, np.random.default_rng(99), yield_model)
    A = np.array(drift_matrix(p, 0.0))
    expected = (A @ x + np.array([200.0, 0.0])) * dt
    se = inc.std(axis=0, ddof=1) / math.sqrt(inc.shape[0])
    assert np.all(np.abs(inc.mean(axis=0) - expected) <= 4.0 * se)


def test_one_step_second_moment_matches_diffusion():
    p = one_group_params(beta1=0.05)
    x = np.array([400.0, 300.0])
    dt = 1e-4
    inc = sample_increments(p, x, 0.0, dt, 1_000_000, np.random.default_rng(7), "fractional")
    B = np.array(diffusion_matrix(p, x, 0.0))
    prods = np.einsum("ni,nj->nij", inc, inc)
    mean_prod = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(inc.shape[0])
    assert np.all(np.abs(mean_prod - B * dt) <= 4.0 * se)


def test_one_step_six_group_mean(rng):
    p = six_group_params(rho=0.007)
    x = equilibrium_state(p, n0=100.0)
    dt = 1e-8
    inc = sample_increments(p, x, 0.0, dt, 1_000_000, rng, "fractional")
    A = np.array(drift_matrix(p, 0.0))
    expected = (A @ x) * dt
    se = inc.std(axis=0, ddof=1) / math.sqrt(inc.shape[0])
    assert np.all(np.abs(inc.mean(axis=0) - expected) <= 4.0 * se + 1e-30)


# ---------------------------------------------------------------------------
# batched engine vs single paths; mode agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["fixed", "exact"])
def test_batched_paths_bit_equal_single_paths(mode):
    p = one_group_params(beta1=0.05)
    x0 = [400.0, 300.0]
    record = (0.0, 0.5, 1.0)
    cfg = McConfig(mode=mode)
    seeds = [path_seed(44, i) for i in range(6)]
    gens = [np.random.default_rng(s) for s in seeds]
    batch = run_mc_paths(p, x0, 1.0, cfg, gens, np.array(record))
    for i, s in enumerate(seeds):
        traj = mc_trajectory(p, x0, 1.0, cfg, NoiseSource(s), record)
        assert np.array_equal(batch.states[i], traj.states), f"path {i} diverged"
        counts = np.array(list(traj.diagnostics["event_counts"].values()))
        assert np.array_equal(batch.event_counts[i], counts)


class CountingGenerator:
    """Generator wrapper that counts the uniform blocks the engine draws."""

    def __init__(self, seed):
        self.generator = np.random.default_rng(seed)
        self.blocks = 0

    def random(self, size=None):
        self.blocks += size is not None
        return self.generator.random(size)

    def __getattr__(self, name):
        return getattr(self.generator, name)


@pytest.mark.parametrize("yield_model", ["fractional", "integer"])
def test_paths_past_one_uniform_block_bit_equal_single_paths(yield_model):
    # table3 fixed-mode paths take thousands of iterations, so they refill
    # their uniform block (event_mc._BUFFER floats) mid-run; a refill must
    # write the path's own row of the buffer, wherever it sits in the batch
    scn = load_scenario("table3")
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    horizon = scn.grid("mc").t_end
    cfg = scn.mc_config(yield_model=yield_model)
    seeds = [path_seed(2014, i) for i in range(3)]
    gens = [CountingGenerator(s) for s in seeds]
    batch = run_mc_paths(p, x0, horizon, cfg, gens, (0.5 * horizon, horizon))
    assert max(g.blocks for g in gens) > 1
    for i, s in enumerate(seeds):
        single = run_mc_paths(p, x0, horizon, cfg, [np.random.default_rng(s)], batch.record_times)
        assert np.array_equal(batch.states[i], single.states[0]), f"path {i} diverged"
        assert np.array_equal(batch.event_counts[i], single.event_counts[0])


def test_lone_slot_total_rate_matches_its_batch_total(rng):
    # numpy sums a lone (m+3, 1) column pairwise but a batch row by row; a
    # path must get the same total alone (mc_trajectory, a batch's last path)
    # as inside a batch
    p = six_group_params(rho=0.007, q=5.0)
    X = np.array([random_state(rng, p.m) for _ in range(200)]).T
    rates = np.empty((p.m + 3, X.shape[1]))
    event_mc._event_rates_into(rates, X, *event_mc._rate_constants(p, 0.0))
    totals = event_mc._total_rates(rates)
    for j in range(X.shape[1]):
        assert event_mc._total_rates(rates[:, j : j + 1])[0] == totals[j]


@pytest.mark.parametrize("yield_model", ["fractional", "integer"])
@pytest.mark.parametrize("schedule", ["constant", "one-piece"])
def test_finished_paths_leave_results_in_path_order(schedule, yield_model, monkeypatch):
    # table3 from n0 = 2 at safety 0.9: paths halve their steps and finish
    # out of index order, so the engine's slots stop matching the paths.
    # Per-path results must still come back in path order, and the halving
    # log in iteration order, then path order.  A one-piece schedule takes
    # the per-step branch, where each iteration of a single path checks the
    # rate constants at that path's own time: that names the iteration of
    # each halving.
    p = load_scenario("table3").build_parameters()
    if schedule == "one-piece":
        p = replace(p, reactivity=PiecewiseConstantReactivity((0.0,), (p.reactivity.value,)))
    x0 = equilibrium_state(p, n0=2.0)
    cfg = McConfig(yield_model=yield_model, safety=0.9)
    horizon = 2e-4
    record = (0.0, 1e-4, horizon)
    seeds = [path_seed(2014, i) for i in range(12)]
    batch = run_mc_paths(p, x0, horizon, cfg, [np.random.default_rng(s) for s in seeds], record)

    times = []
    checked = event_mc._rate_constants
    monkeypatch.setattr(
        event_mc,
        "_rate_constants",
        lambda p, t: times.append(float(np.ravel(t)[0])) or checked(p, t),
    )
    expected, iterations = [], []
    for i, seed in enumerate(seeds):
        times.clear()
        single = run_mc_paths(p, x0, horizon, cfg, [np.random.default_rng(seed)], record)
        assert np.array_equal(batch.states[i], single.states[0]), f"path {i} diverged"
        assert np.array_equal(batch.event_counts[i], single.event_counts[0])
        assert batch.negative_captures[i] == single.negative_captures[0]
        steps = times[1:]  # after the check before the first step: one per iteration
        iterations.append(len(steps))
        for k, (_, t, dt) in enumerate(single.halvings):
            iteration = steps.index(t) if schedule == "one-piece" else 0
            expected.append((iteration, i, k, (i, t, dt)))
    assert iterations != sorted(iterations)  # paths finish out of index order
    assert len(expected) > 0
    if yield_model == "fractional":
        assert batch.negative_captures.sum() > 0
    if schedule == "one-piece":
        assert batch.halvings == [entry for *_, entry in sorted(expected)]
    else:
        by_path = sorted(batch.halvings, key=lambda h: h[0])  # stable: keeps each path's order
        assert by_path == [entry for *_, entry in sorted(expected, key=lambda e: e[1:3])]


def test_halvings_after_a_path_finishes_keep_path_order():
    # scripted one-group paths on the per-step branch (one-piece schedule),
    # dt = 1/8 from n = 3.8: P = 7.9 dt = 0.9875 and a fission lifts P past
    # one.  Path 1 never fires and finishes first, after 8 iterations; paths
    # 2 and 3 halve together again two iterations later, so their entries
    # must still be logged in path order
    p = one_group_params(beta1=0.05, q=0.0)
    p = replace(p, reactivity=PiecewiseConstantReactivity((0.0,), (p.reactivity.value,)))
    none = 0.9999
    late = [0.7] + [none] * 7 + [0.55, 0.7]  # fission, halve; two fissions, halve
    gens = [
        StubGenerator([0.7], fill=none),
        StubGenerator([], fill=none),
        StubGenerator(late, fill=none),
        StubGenerator(late, fill=none),
    ]
    res = run_mc_paths(p, [3.8, 3.0], 1.0, McConfig(dt=0.125), gens, [1.0])
    assert res.halvings == [
        (0, 0.125, 0.0625), (2, 0.125, 0.0625), (3, 0.125, 0.0625),
        (2, 0.6875, 0.03125), (3, 0.6875, 0.03125),
    ]
    assert res.event_counts.tolist() == [[0, 1, 0, 0], [0, 0, 0, 0], [0, 3, 0, 0], [0, 3, 0, 0]]
    assert res.states[1, -1].tolist() == [3.8, 3.0]


def test_rate_constants_refuse_a_negative_capture_coefficient():
    # rho > 1 - 1/nu = 0.6 would make capture a birth
    p = one_group_params(rho=0.7)
    with pytest.raises(ParameterError, match="negative capture rate coefficient at rho=0.7"):
        event_mc._rate_constants(p, 0.0)
    for mode in ("fixed", "exact"):
        with pytest.raises(ParameterError, match="negative capture"):
            run_mc_paths(
                p, [400.0, 300.0], 1e-3, McConfig(mode=mode), [np.random.default_rng(1)], [1e-3]
            )
    # a ramp crosses 0.6 at t = 0.6 s, after the run has started
    ramp = replace(p, reactivity=LinearReactivity(1.0))
    with pytest.raises(ParameterError, match="negative capture"):
        run_mc_paths(ramp, [1.0, 0.0], 1.0, McConfig(dt=0.05), [np.random.default_rng(1)], [1.0])
    assert event_mc._rate_constants(ramp, 0.5)[0] > 0.0


def test_rate_constants_for_array_times_name_the_highest_rho():
    ramp = replace(one_group_params(rho=0.0), reactivity=LinearReactivity(1.0))
    cap = event_mc._rate_constants(ramp, np.array([0.1, 0.5, 0.2]))[0]
    assert cap.shape == (3,) and np.all(cap > 0.0)
    with pytest.raises(ParameterError, match="negative capture rate coefficient at rho=0.9$"):
        event_mc._rate_constants(ramp, np.array([0.1, 0.9, 0.7, 0.2]))


@pytest.mark.parametrize("yield_model", ["fractional", "integer"])
@pytest.mark.parametrize("schedule", ["linear-rho", "piecewise"])
def test_time_dependent_exact_batch_binds_rates_once_per_iteration(
    schedule, yield_model, monkeypatch
):
    # every iteration binds all stepping slots' clocks in one call, and a
    # path's last iteration is the jump past the horizon, so the calls count
    # max(events per path) + 1; benchmarks/spans.py counts iterations so
    if schedule == "linear-rho":
        scn = load_scenario("linear-rho")
        p, horizon = scn.build_parameters(), 2e-5
        x0 = scn.build_initial(p)
    else:
        p = replace(
            one_group_params(),
            reactivity=PiecewiseConstantReactivity((0.0, 0.2), (-1.0 / 3.0, -0.2)),
            source=PiecewiseConstantSource((0.0, 0.3), (200.0, 150.0)),
        )
        x0, horizon = [400.0, 300.0], 0.5
    calls = []
    checked = event_mc._rate_constants
    monkeypatch.setattr(
        event_mc, "_rate_constants", lambda p, t: calls.append(np.shape(t)) or checked(p, t)
    )
    gens = [np.random.default_rng(path_seed(2014, i)) for i in range(16)]
    res = run_mc_paths(p, x0, horizon, McConfig("exact", yield_model), gens, [horizon])
    events = res.event_counts.sum(axis=1)
    assert events.min() < events.max()  # paths finish at different iterations
    assert len(calls) == events.max() + 1
    widths = [shape[0] for shape in calls]  # one time per stepping slot
    assert widths[0] == 16 and widths == sorted(widths, reverse=True)
    assert widths.count(16) == events.min() + 1


def test_exact_and_fixed_means_agree():
    # same generator process, two stepping schemes: means within 3 combined SE
    p = one_group_params(beta1=0.05)
    x0 = [400.0, 300.0]
    record = np.array([0.0, 2.0])
    n = 1500

    def mean_se(mode, seed_base):
        gens = [np.random.default_rng(path_seed(seed_base, i)) for i in range(n)]
        res = run_mc_paths(p, x0, 2.0, McConfig(mode=mode), gens, record)
        final = res.states[:, -1, 0]
        return final.mean(), final.std(ddof=1) / math.sqrt(n)

    m_fix, se_fix = mean_se("fixed", 101)
    m_ex, se_ex = mean_se("exact", 202)
    assert abs(m_fix - m_ex) <= 3.0 * math.hypot(se_fix, se_ex)


# ---------------------------------------------------------------------------
# per-iteration kernels: row-wise cumulative, landed-slot recording, blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row_wise_width", [1, 10**9])  # every width by rows, by numpy
@pytest.mark.parametrize("height", [4, 9])
@pytest.mark.parametrize("width", [1, 2, 200, 1024])
def test_cumulative_is_bit_equal_to_numpy_cumsum(width, height, row_wise_width, rng, monkeypatch):
    monkeypatch.setattr(event_mc, "_ROW_WISE_WIDTH", row_wise_width)
    a = rng.uniform(0.0, 1e3, (height, width)) * rng.choice([1e-9, 1.0, 1e9], (height, width))
    a[:, rng.integers(width, size=max(1, width // 8))] *= -1.0
    a[1, ::3] = -0.0  # signed zeros
    a[:, 0] = 0.0  # an all-zero column
    if width > 1:
        a[:, -1] = -0.0  # a column of negative zeros, whose sums stay -0.0
    out = np.empty((height, width + 5))[:, :width]  # a slice, as the engine passes
    cum = event_mc._cumulative(a, out)
    assert cum is out
    expected = np.cumsum(a, axis=0)
    assert np.array_equal(cum, expected)
    assert np.array_equal(np.signbit(cum), np.signbit(expected))


@pytest.mark.parametrize("row_wise_width", [1, 10**9])
def test_cumulative_last_row_is_the_total_rate(row_wise_width, rng, monkeypatch):
    # exact mode reads each slot's total rate from the last cumulative row:
    # it must equal _total_rates alone and in a batch, at every width
    monkeypatch.setattr(event_mc, "_ROW_WISE_WIDTH", row_wise_width)
    p = six_group_params(rho=0.007, q=5.0)
    X = np.array([random_state(rng, p.m) for _ in range(1024)]).T
    X[:, :7] = 0.0
    rates = np.empty((p.m + 3, X.shape[1]))
    event_mc._event_rates_into(rates, X, *event_mc._rate_constants(p, 0.0))
    for width in (1, 2, 200, 1024):
        block = rates[:, :width]
        cum = event_mc._cumulative(block, np.empty_like(block))
        assert np.array_equal(cum[-1], event_mc._total_rates(block))
    for j in range(0, 1024, 37):
        lone = rates[:, j : j + 1]
        assert event_mc._cumulative(lone, np.empty_like(lone))[-1, 0] == event_mc._total_rates(lone)[0]


def test_several_record_rows_in_one_exact_jump():
    # source free from (1, 0): capture 1.4/s, fission 0.6/s, total 2.  The
    # waiting uniform 0.5 puts the jump at ln2/2 = 0.35 s, past the record
    # times 0.1, 0.2 and 0.3; the selection 0.1 (0.2 of 2) is a capture to
    # the empty state, whose dead clock jumps straight to the horizon past
    # the seven record times from 0.4 on
    p = one_group_params(beta1=0.05, q=0.0)
    record = np.linspace(0.0, 1.0, 11)
    res = run_mc_paths(p, [1.0, 0.0], 1.0, McConfig(mode="exact"), [StubGenerator([0.5, 0.1])], record)
    assert res.states[0].tolist() == [[1.0, 0.0]] * 4 + [[0.0, 0.0]] * 7
    assert res.event_counts.tolist() == [[1, 0, 0, 0]]


def test_several_record_rows_in_one_fixed_step():
    # a fixed step lands on one record time, so repeated times share its
    # iteration.  From (1, 0), dt = 0.05: u = 0.999 takes no event on the
    # step onto 0.05, u = 0 a capture on the first step after it; the empty
    # state then moves straight to each later record time
    p = one_group_params(beta1=0.05, q=0.0)
    record = np.array([0.0, 0.05, 0.05, 0.3, 0.3, 1.0])
    gen = StubGenerator([0.999, 0.0])
    res = run_mc_paths(p, [1.0, 0.0], 1.0, McConfig(dt=0.05), [gen], record)
    assert res.states[0].tolist() == [[1.0, 0.0]] * 3 + [[0.0, 0.0]] * 3
    assert res.event_counts.tolist() == [[1, 0, 0, 0]]


@pytest.mark.parametrize("mode", ["fixed", "exact"])
def test_dense_record_rows_bit_equal_single_paths(mode):
    # a record grid far denser than the jumps, with repeated and nearly equal
    # times: many slots land on several rows in one iteration, and the
    # source-free paths die and jump past the remaining rows
    p = one_group_params(beta1=0.05, q=0.0)
    x0 = [3.0, 1.0]
    horizon = 20.0
    grid = np.linspace(0.0, horizon, 801)
    record = np.sort(np.concatenate((grid, grid[::50], grid[1::40] * (1 + 1e-13))))
    record = np.minimum(record, horizon)
    cfg = McConfig(mode=mode)
    seeds = [path_seed(61, i) for i in range(24)]
    batch = run_mc_paths(p, x0, horizon, cfg, [np.random.default_rng(s) for s in seeds], record)
    finals = batch.states[:, -1]
    assert np.any(np.all(finals == 0.0, axis=1)) and not np.all(finals == 0.0)
    for i, s in enumerate(seeds):
        single = run_mc_paths(p, x0, horizon, cfg, [np.random.default_rng(s)], record)
        assert np.array_equal(batch.states[i], single.states[0]), f"path {i} diverged"
        assert np.array_equal(batch.event_counts[i], single.event_counts[0])


class SizeLoggingGenerator(CountingGenerator):
    """Generator wrapper that logs the size of every sized ``random`` call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.sizes = []

    def random(self, size=None):
        if size is not None:
            self.sizes.append(size)
        return super().random(size)


@pytest.mark.parametrize("mode", ["fixed", "exact"])
def test_fractional_results_do_not_depend_on_the_block_length(mode, monkeypatch):
    # fractional yields draw nothing but the uniform blocks, so a path's
    # stream is the same at any even block length
    p = one_group_params(beta1=0.05)
    x0 = [400.0, 300.0]
    record = np.linspace(0.0, 0.5, 6)
    cfg = McConfig(mode=mode)
    seeds = [path_seed(73, i) for i in range(5)]

    def run(block):
        monkeypatch.setattr(event_mc, "_FRACTIONAL_BUFFER", block)
        gens = [SizeLoggingGenerator(s) for s in seeds]
        res = run_mc_paths(p, x0, 0.5, cfg, gens, record)
        assert all(set(g.sizes) == {block} for g in gens)
        return res, max(g.blocks for g in gens)

    default, _ = run(event_mc._FRACTIONAL_BUFFER)
    for block in (2, 38):
        res, blocks = run(block)
        assert blocks > 3
        assert np.array_equal(res.states, default.states)
        assert np.array_equal(res.event_counts, default.event_counts)
        assert res.halvings == default.halvings


@pytest.mark.parametrize("mode", ["fixed", "exact"])
def test_integer_yield_blocks_keep_the_full_length(mode):
    # integer yields draw between blocks, so the block length fixes where
    # each yield draw falls: every sized draw is one _BUFFER block
    p = one_group_params(beta1=0.05)
    cfg = McConfig(mode=mode, yield_model="integer")
    gens = [SizeLoggingGenerator(path_seed(79, i)) for i in range(3)]
    res = run_mc_paths(p, [400.0, 300.0], 4.0, cfg, gens, [4.0])
    assert res.event_counts[:, 1].min() > 0
    assert max(g.blocks for g in gens) > 1
    assert all(set(g.sizes) == {event_mc._BUFFER} for g in gens)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
def test_engine_refuses_a_horizon_it_cannot_reach(horizon):
    p = one_group_params(q=0.0)
    for mode in ("fixed", "exact"):
        with pytest.raises(ParameterError, match="horizon"):
            run_mc_paths(p, [0.0, 0.0], horizon, McConfig(mode=mode), [np.random.default_rng(1)], [])
