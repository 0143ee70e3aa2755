import numpy as np
import pytest

from stokin import (
    EnsembleConfig,
    EnsembleFailureError,
    McConfig,
    NoiseSource,
    ParameterError,
    TimeGrid,
    deterministic_solve,
    mc_trajectory,
    run_ensemble,
    stochastic_pca_solve,
    summarize_component,
)
from stokin.ensemble import _Welford, _augment, path_seed

from conftest import one_group_params, six_group_params


def table1_setup():
    p = one_group_params(beta1=0.05)
    return p, np.array([400.0, 300.0])


# ---------------------------------------------------------------------------
# accumulator
# ---------------------------------------------------------------------------

def test_welford_two_sample_hand_example():
    acc = _Welford(1)
    acc.add(np.array([100.0]))
    acc.add(np.array([102.0]))
    assert acc.mean[0] == 101.0
    assert acc.std()[0] == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_welford_single_sample_reports_zero_spread():
    acc = _Welford(3)
    acc.add(np.array([1.0, 2.0, 3.0]))
    assert acc.count == 1
    assert np.all(acc.std() == 0.0)


def test_welford_matches_two_pass(rng):
    data = rng.normal(50.0, 9.0, size=(5000, 4)) * np.array([1.0, 1e6, 1e-6, 1.0])
    acc = _Welford(4)
    for row in data:
        acc.add(row)
    mean2 = data.mean(axis=0)
    std2 = data.std(axis=0, ddof=1)
    assert np.abs(acc.mean - mean2).max() <= 1e-10 * np.abs(mean2).max()
    assert np.abs(acc.std() - std2).max() <= 1e-10 * std2.max()


def test_augment_appends_precursor_sum():
    states = np.array([[10.0, 1.0, 2.0], [20.0, 3.0, 4.0]])
    aug = _augment(states)
    assert aug.shape == (2, 4)
    assert aug[:, -1].tolist() == [3.0, 7.0]
    # anticorrelated components: the per-path sum has zero spread even though
    # each component varies
    paths = np.array([[[5.0, 1.0, 0.0]], [[5.0, 0.0, 1.0]]])
    sums = _augment(paths)[:, 0, -1]
    assert sums.std(ddof=1) == 0.0


# ---------------------------------------------------------------------------
# configuration and run mechanics
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        EnsembleConfig(method="nope")
    with pytest.raises(ParameterError):
        EnsembleConfig(method="em", min_samples=10, max_samples=5)
    with pytest.raises(ParameterError):
        EnsembleConfig(method="em", target_rel_halfwidth=0.0)
    # one method vocabulary: the short name is kept, a long name is refused
    assert EnsembleConfig(method="em").method == "em"
    for long_name in ("euler-maruyama", "event-mc"):
        with pytest.raises(ParameterError, match="em|pca|mc"):
            EnsembleConfig(method=long_name)
    # an empty record grid used to end in an IndexError, a negative seed in
    # a bare ValueError from the seed sequence, an infinite MC step in a
    # halving loop that never ends
    with pytest.raises(ParameterError, match="record_times"):
        EnsembleConfig(method="em", record_times=())
    for seed in (-1, 1.5):
        with pytest.raises(ParameterError, match="master_seed"):
            EnsembleConfig(method="em", master_seed=seed)
    for dt in (np.inf, np.nan):
        with pytest.raises(ParameterError, match="finite"):
            McConfig(dt=dt)
    # the exact mode has no step; a dt used to be accepted and ignored
    with pytest.raises(ParameterError, match="exact mode"):
        McConfig(mode="exact", dt=1e-3)
    # sample counts are integers; JSON's integral floats are taken as such
    cfg = EnsembleConfig(method="em", min_samples=20.0, max_samples=np.int64(30))
    assert (cfg.min_samples, cfg.max_samples) == (20, 30)
    assert type(cfg.min_samples) is int and type(cfg.max_samples) is int
    for bad in (2.7, "many", None):
        with pytest.raises(ParameterError, match="min_samples must be an integer"):
            EnsembleConfig(method="em", min_samples=bad)
    # the event MC has no diffusion term; the flag used to be ignored and the
    # run came back noisy
    with pytest.raises(ParameterError, match="zero_noise"):
        EnsembleConfig(method="mc", zero_noise=True)


def test_zero_noise_ensemble_collapses_to_single_path():
    p, x0 = table1_setup()
    grid = TimeGrid(0.5, 0.01)
    cfg = EnsembleConfig(
        method="pca", master_seed=1, min_samples=50, max_samples=500, zero_noise=True
    )
    summary = run_ensemble(p, x0, grid, cfg)
    assert np.all(summary.std == 0.0)
    assert summary.n_samples == 50  # converged at min_samples
    assert summary.converged and summary.stop_reason == "target"
    path = stochastic_pca_solve(p, x0, grid, NoiseSource(0), zero_noise=True)
    det = deterministic_solve(p, x0, grid)
    idx = [int(round(t / grid.dt)) for t in summary.times]
    assert np.array_equal(summary.mean[:, :2], path.states[idx])
    assert np.abs(summary.mean[:, :2] - det.states[idx]).max() <= 1e-3 * 400.0


def test_summary_reproducible_and_batch_invariant():
    p, x0 = table1_setup()
    grid = TimeGrid(0.2, 0.002)
    base = dict(method="em", master_seed=9, min_samples=40, max_samples=40,
                record_times=(0.0, 0.1, 0.2))
    s1 = run_ensemble(p, x0, grid, EnsembleConfig(batch_size=7, **base))
    s2 = run_ensemble(p, x0, grid, EnsembleConfig(batch_size=40, **base))
    s3 = run_ensemble(p, x0, grid, EnsembleConfig(batch_size=1, **base))
    for s in (s2, s3):
        assert np.array_equal(s1.mean, s.mean)
        assert np.array_equal(s1.std, s.std)
        assert np.array_equal(s1.ci_halfwidth, s.ci_halfwidth)
    # the SDE engine's own counters only
    assert sorted(s1.diagnostics) == ["clipped_hard", "clipped_small", "negative_steps"]


def test_halfwidth_identity_and_stopping_soundness():
    p, x0 = table1_setup()
    grid = TimeGrid(0.2, 0.002)
    cfg = EnsembleConfig(
        method="em",
        master_seed=3,
        min_samples=100,
        max_samples=4000,
        target_rel_halfwidth=0.05,  # loose: stops before the cap
        record_times=(0.0, 0.2),
        batch_size=100,
    )
    summary = run_ensemble(p, x0, grid, cfg)
    n = summary.n_samples
    assert np.allclose(
        summary.ci_halfwidth, 1.96 * summary.std / np.sqrt(n), rtol=1e-12, atol=0.0
    )
    assert summary.converged
    final_rel = summary.ci_halfwidth[-1] / np.abs(summary.mean[-1])
    assert np.all(final_rel <= 0.05)


def test_stop_reason_max_samples():
    p, x0 = table1_setup()
    grid = TimeGrid(0.2, 0.002)
    cfg = EnsembleConfig(
        method="em", master_seed=3, min_samples=50, max_samples=50,
        target_rel_halfwidth=1e-9, record_times=(0.0, 0.2),
    )
    summary = run_ensemble(p, x0, grid, cfg)
    assert not summary.converged
    assert summary.stop_reason == "max_samples"
    assert summary.n_samples == 50


def test_failed_paths_abort_when_above_one_percent():
    # tiny populations at six-group prompt-critical parameters: under the
    # strict policy most paths hit a negative event rate
    p = six_group_params(rho=0.007)
    x0 = np.concatenate([[1.0], np.full(6, 0.01)])
    grid = TimeGrid(0.001, 1e-5)
    cfg = EnsembleConfig(
        method="em", master_seed=0, min_samples=50, max_samples=50,
        psd_policy="strict", record_times=(0.0, 0.001),
    )
    with pytest.raises(EnsembleFailureError):
        run_ensemble(p, x0, grid, cfg)
    # clamp policy completes every path
    cfg2 = EnsembleConfig(
        method="em", master_seed=0, min_samples=50, max_samples=50,
        psd_policy="clamp", record_times=(0.0, 0.001),
    )
    summary = run_ensemble(p, x0, grid, cfg2)
    assert summary.failures == 0
    assert summary.n_samples == 50


def test_mc_ensemble_means_track_equilibrium():
    p, x0 = table1_setup()
    grid = TimeGrid(2.0, 0.1)
    cfg = EnsembleConfig(
        method="mc", master_seed=12, min_samples=400, max_samples=400,
        record_times=(0.0, 2.0), mc=McConfig(),
    )
    summary = run_ensemble(p, x0, grid, cfg)
    se = summary.ci_halfwidth[-1, 0] / 1.96
    assert abs(summary.mean[-1, 0] - 400.0) <= 4.0 * se
    assert summary.component_names == ["n", "c1", "c_sum"]


def test_integer_yield_ensemble_runs_per_path():
    p, x0 = table1_setup()
    grid = TimeGrid(0.5, 0.1)
    cfg = EnsembleConfig(
        method="mc", master_seed=4, min_samples=20, max_samples=20,
        record_times=(0.0, 0.5), mc=McConfig(yield_model="integer"),
    )
    summary = run_ensemble(p, x0, grid, cfg)
    assert summary.n_samples == 20
    assert np.array_equal(summary.mean[0, :2], x0)


def test_mc_ensemble_records_at_given_times():
    # MC record times need not be nodes of the grid, which supplies the horizon
    p, x0 = table1_setup()
    record = (0.0, 0.05, 0.13, 0.5)
    cfg = EnsembleConfig(
        method="mc", master_seed=5, min_samples=4, max_samples=4, record_times=record,
    )
    summary = run_ensemble(p, x0, TimeGrid(0.5, 0.1), cfg)
    assert summary.times.tolist() == list(record)
    assert summary.mean.shape == (len(record), 3)


def halving_case():
    # supercritical one-group burst from 20 neutrons: with safety 1 the
    # fixed-step paths outgrow their step and halve it
    p = one_group_params(rho=0.01, l=1e-3, beta1=0.002, q=0.0)
    return p, np.array([20.0, 0.0]), TimeGrid(0.02, 0.01)


MC_VARIANTS = {
    "fixed-fractional": McConfig(mode="fixed", safety=1.0),
    "fixed-integer": McConfig(mode="fixed", safety=1.0, yield_model="integer"),
    "exact": McConfig(mode="exact"),
}


@pytest.mark.parametrize("variant", sorted(MC_VARIANTS))
def test_mc_ensemble_batch_invariant_with_halvings(variant):
    p, x0, grid = halving_case()
    mc = MC_VARIANTS[variant]
    base = dict(method="mc", master_seed=3, min_samples=8, max_samples=8, mc=mc,
                keep_sample_paths=8)
    runs = [run_ensemble(p, x0, grid, EnsembleConfig(batch_size=b, **base)) for b in (1, 3, 8)]
    if mc.mode == "fixed":
        assert runs[0].diagnostics["halvings"] > 0
    for s in runs[1:]:
        assert np.array_equal(runs[0].mean, s.mean)
        assert np.array_equal(runs[0].std, s.std)
        assert np.array_equal(runs[0].ci_halfwidth, s.ci_halfwidth)
        assert s.diagnostics == runs[0].diagnostics
    # each sample path is the single path at its seed
    for i in range(8):
        traj = mc_trajectory(p, x0, grid.t_end, mc, NoiseSource(path_seed(3, i)), runs[0].times)
        assert np.array_equal(traj.states, runs[-1].sample_paths[i]), f"path {i} diverged"


def test_integer_yield_ensemble_reports_diagnostics():
    p, x0, grid = halving_case()
    mc = MC_VARIANTS["fixed-integer"]
    cfg = EnsembleConfig(method="mc", master_seed=3, min_samples=8, max_samples=8, mc=mc)
    summary = run_ensemble(p, x0, grid, cfg)
    halvings = sum(
        len(mc_trajectory(p, x0, grid.t_end, mc, NoiseSource(path_seed(3, i)), summary.times)
            .diagnostics["halvings"])
        for i in range(8)
    )
    assert halvings > 0
    # the MC's own counters only, under their own names; integer populations
    # never undershoot zero
    assert summary.diagnostics == {"negative_captures": 0, "halvings": halvings}


@pytest.mark.parametrize("record_times", [(0.0, 5.0), (0.1, 0.05)])
def test_mc_ensemble_rejects_bad_record_times(record_times):
    # a time beyond the horizon, or unsorted times, would label rows with
    # states from other times (and point the stopping rule at the wrong row);
    # the MC and both SDE engines share one check
    p, x0 = table1_setup()
    grid = TimeGrid(0.1, 0.01)
    for method in ("mc", "em", "pca"):
        cfg = EnsembleConfig(method=method, min_samples=2, max_samples=2, record_times=record_times)
        with pytest.raises(ParameterError):
            run_ensemble(p, x0, grid, cfg)


def test_keep_sample_paths():
    p, x0 = table1_setup()
    grid = TimeGrid(0.2, 0.002)
    cfg = EnsembleConfig(
        method="pca", master_seed=6, min_samples=10, max_samples=10,
        record_times=(0.0, 0.1, 0.2), keep_sample_paths=2,
    )
    summary = run_ensemble(p, x0, grid, cfg)
    assert summary.sample_paths.shape == (2, 3, 2)
    # first kept path is the path-index-0 trajectory
    traj = stochastic_pca_solve(p, x0, grid, NoiseSource(path_seed(6, 0)))
    assert np.array_equal(summary.sample_paths[0], traj.states[[0, 50, 100]])


# ---------------------------------------------------------------------------
# summarize_component
# ---------------------------------------------------------------------------

def test_summarize_component_selectors():
    p, x0 = table1_setup()
    grid = TimeGrid(0.2, 0.002)
    cfg = EnsembleConfig(
        method="em", master_seed=2, min_samples=30, max_samples=30,
        record_times=(0.0, 0.2),
    )
    summary = run_ensemble(p, x0, grid, cfg)
    rows = summarize_component(summary, "c_sum")
    assert len(rows) == 2
    assert rows[-1]["n"] == 30
    assert rows[-1]["std"] >= 0.0
    # one group: c_sum stats equal c1 stats
    rows_c1 = summarize_component(summary, "c1")
    assert rows_c1[-1]["mean"] == rows[-1]["mean"]
    with pytest.raises(ParameterError):
        summarize_component(summary, "c9")


def test_summarize_component_single_path_flagged():
    p, x0 = table1_setup()
    grid = TimeGrid(0.1, 0.002)
    cfg = EnsembleConfig(
        method="em", master_seed=8, min_samples=1, max_samples=1,
        record_times=(0.0, 0.1),
    )
    summary = run_ensemble(p, x0, grid, cfg)
    rows = summarize_component(summary, "n")
    assert rows[-1]["n"] == 1
    assert rows[-1]["std"] == 0.0
