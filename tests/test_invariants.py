"""Batch invariants of every engine, method and mode.

A path's result does not depend on the batch it runs in: a single path
equals the same seed inside a batch, diagnostics included, and an ensemble
is bit-equal at any batch size.  Every engine honours its record times: one
row per requested time, labelled with it.  The matrix runs {em, pca, mc fixed, mc
exact}, the MC with both yield models, over five scenarios: table1, table3
started at a population that undershoots zero, the linear reactivity ramp
on a truncated horizon, a piecewise-constant reactivity schedule and a
piecewise-constant source.
Sizes are kept small; the fixed MC steps at safety 0.9, so growing rates
halve a path's step early.
"""

import re

import numpy as np
import pytest

from stokin import (
    ConstantReactivity,
    ConstantSource,
    EnsembleConfig,
    KineticsParameters,
    McConfig,
    ParameterError,
    PiecewiseConstantReactivity,
    PiecewiseConstantSource,
    TimeGrid,
    equilibrium_state,
    euler_maruyama_solve,
    load_scenario,
    mc_trajectory,
    run_ensemble,
    run_mc_paths,
    run_sde_paths,
    stochastic_pca_solve,
)
from stokin.ensemble import path_seed

N_PATHS = 4
MASTER_SEED = 2014


def _preset(name, horizon, dt, n0=None):
    scn = load_scenario(name)
    p = scn.build_parameters()
    x0 = scn.build_initial(p) if n0 is None else equilibrium_state(p, n0=n0)
    return p, x0, TimeGrid(horizon, dt)


def _piecewise():
    # table1 with a step up to rho = 0 and back: the first and last pieces
    # share one (rho, q) entry of the midpoint table
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.05,),
        nu=2.5,
        gen_time=2.0 / 3.0,
        reactivity=PiecewiseConstantReactivity((0.0, 0.04, 0.08), (-1.0 / 3.0, 0.0, -1.0 / 3.0)),
        source=ConstantSource(200.0),
    )
    return p, np.array([400.0, 300.0]), TimeGrid(0.12, 0.002)


def _piecewise_source():
    # table1 whose source doubles at t = 0.04 and drops to zero at 0.08: the
    # event MC binds one q per slot
    p = KineticsParameters(
        decay_constants=(0.1,),
        group_fractions=(0.05,),
        nu=2.5,
        gen_time=2.0 / 3.0,
        reactivity=ConstantReactivity(-1.0 / 3.0),
        source=PiecewiseConstantSource((0.0, 0.04, 0.08), (200.0, 400.0, 0.0)),
    )
    return p, np.array([400.0, 300.0]), TimeGrid(0.12, 0.002)


SCENARIOS = {
    "table1": lambda: _preset("table1", 0.12, 0.002),
    # started at n0 = 2, so paths undershoot zero: the clip counters and the
    # MC's negative captures run
    "table3": lambda: _preset("table3", 2e-4, 1e-5, n0=2.0),
    "linear-rho": lambda: _preset("linear-rho", 2e-5, 1e-6),
    "piecewise": _piecewise,
    "piecewise-source": _piecewise_source,
}

METHODS = {
    "em": ("em", None),
    "pca": ("pca", None),
    **{
        f"mc-{mode}-{yields}": ("mc", McConfig(mode, yields, safety=0.9))
        for mode in ("fixed", "exact")
        for yields in ("fractional", "integer")
    },
}

matrix = pytest.mark.parametrize(
    "method_id, scenario", [(m, s) for m in METHODS for s in SCENARIOS]
)


def _record(grid):
    return tuple(grid.nodes[[0, grid.n_steps // 2, grid.n_steps]])


@matrix
def test_single_path_equals_path_in_batch(method_id, scenario):
    method, mc = METHODS[method_id]
    p, x0, grid = SCENARIOS[scenario]()
    seeds = [path_seed(MASTER_SEED, i) for i in range(N_PATHS)]
    gens = [np.random.default_rng(s) for s in seeds]
    if method != "mc":
        batch = run_sde_paths(p, x0, grid, method, gens)
        assert not batch.failed.any()
        solver = euler_maruyama_solve if method == "em" else stochastic_pca_solve
        for i, seed in enumerate(seeds):
            path = solver(p, x0, grid, np.random.default_rng(seed))
            assert np.array_equal(path.states, batch.states[i])
            for key in ("negative_steps", "clipped_small", "clipped_hard"):
                assert path.diagnostics[key] == getattr(batch, key)[i], key
        return
    record = _record(grid)
    batch = run_mc_paths(p, x0, grid.t_end, mc, gens, record)
    for i, seed in enumerate(seeds):
        path = mc_trajectory(p, x0, grid.t_end, mc, np.random.default_rng(seed), record)
        assert np.array_equal(path.states, batch.states[i])
        assert path.method == "mc"
        assert list(path.diagnostics["event_counts"].values()) == batch.event_counts[i].tolist()
        assert path.diagnostics["negative_captures"] == batch.negative_captures[i]
        halvings = [(t, dt) for j, t, dt in batch.halvings if j == i]
        assert path.diagnostics["halvings"] == halvings


@matrix
def test_ensemble_independent_of_batch_size(method_id, scenario):
    method, mc = METHODS[method_id]
    p, x0, grid = SCENARIOS[scenario]()
    record = _record(grid)
    runs = [
        run_ensemble(
            p,
            x0,
            grid,
            EnsembleConfig(
                method=method,
                master_seed=MASTER_SEED,
                min_samples=N_PATHS,
                max_samples=N_PATHS,
                record_times=record,
                mc=mc or McConfig(),
                batch_size=batch_size,
                keep_sample_paths=N_PATHS,
            ),
        )
        for batch_size in (1, 3, N_PATHS)
    ]
    full = runs[-1]
    assert full.n_samples == N_PATHS and full.method == method
    assert np.array_equal(full.times, record)
    for run in runs[:-1]:
        for key in ("times", "mean", "std", "ci_halfwidth", "sample_paths"):
            assert np.array_equal(getattr(run, key), getattr(full, key)), key
        assert (run.n_samples, run.failures) == (full.n_samples, full.failures)
        assert run.diagnostics == full.diagnostics


@matrix
def test_rows_land_at_the_record_times(method_id, scenario):
    method, mc = METHODS[method_id]
    p, x0, grid = SCENARIOS[scenario]()
    record = _record(grid)

    def run(times):
        gens = [np.random.default_rng(path_seed(MASTER_SEED, i)) for i in range(N_PATHS)]
        if method == "mc":
            return run_mc_paths(p, x0, grid.t_end, mc, gens, times)
        return run_sde_paths(p, x0, grid, method, gens, record_times=times)

    res = run(record)
    assert res.record_times.tolist() == list(record)
    assert res.states.shape == (N_PATHS, len(record), p.dim)
    # integer yields start from the rounded state
    start = np.rint(x0) if mc is not None and mc.yield_model == "integer" else x0
    assert np.array_equal(res.states[:, 0], np.broadcast_to(start, (N_PATHS, p.dim)))
    if method != "mc":
        every_node = run(None)
        nodes = [0, grid.n_steps // 2, grid.n_steps]
        assert np.array_equal(res.states, every_node.states[:, nodes])
        off_node = 0.5 * grid.dt
        with pytest.raises(ParameterError, match=re.escape(f"record time {off_node!r}")):
            run((0.0, off_node, grid.t_end))
    elif mc.mode == "exact":
        # jumps do not depend on the record times: more rows leave these alone
        denser = run(sorted(record + (0.3 * grid.t_end, 0.7 * grid.t_end)))
        assert np.array_equal(res.states, denser.states[:, [0, 2, 4]])
