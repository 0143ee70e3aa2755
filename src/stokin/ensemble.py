"""Ensembles of sample paths with streaming statistics and a stopping rule.

``run_ensemble`` drives many seeded paths of one stochastic method (em or
pca, the SDE solvers, or mc, the event Monte Carlo), accumulating
per-record-time means and standard deviations in a single numerically stable
pass (Welford updates, applied strictly in path-index order so the result is
independent of how path generation was batched).  Alongside the state
components it tracks the per-path precursor sum, so summed-precursor spreads
come from per-path sums rather than sums of per-component statistics.
Every path starts from x0 at t = 0: the SDE engines step the time grid from
its first node, and the event Monte Carlo takes the grid's end as its
horizon.

Per-path seeds derive deterministically from the master seed and the path
index, making summaries reproducible run to run.  The ensemble stops once
the relative 95% confidence half-width of every tracked component at the
final record time falls below the target, or at the sample-count cap; the
summary records which.  Failed paths (strict-policy negative rates, overflow)
are discarded and counted; more than 1% of attempts failing aborts the run.
Methods go by their short names det|em|pca|mc; ``METHOD_LABELS`` holds
the name written outputs print for each.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EnsembleFailureError, ParameterError
from .event_mc import McConfig, run_mc_paths
from .kinetics import KineticsParameters, as_state_vector
from .solvers import TimeGrid, run_sde_paths

__all__ = ["EnsembleConfig", "EnsembleSummary", "run_ensemble", "summarize_component"]

METHOD_LABELS = {
    "det": "deterministic",
    "em": "euler-maruyama",
    "pca": "stochastic-pca",
    "mc": "monte-carlo",
}

_CONFIDENCE_FACTOR = 1.96  # 95% two-sided normal


@dataclass(frozen=True)
class EnsembleConfig:
    """Configuration for an ensemble run.

    ``method`` is em, pca or mc.  ``target_rel_halfwidth`` is the relative
    95% confidence half-width of the mean demanded at the final record time
    (default 5e-4, i.e. 0.05%).
    """

    method: str
    master_seed: int = 0
    min_samples: int = 100
    max_samples: int = 10_000
    target_rel_halfwidth: float = 5e-4
    record_times: tuple = None
    zero_noise: bool = False
    psd_policy: str = "strict"
    mc: McConfig = field(default_factory=McConfig)
    batch_size: int = 1024
    keep_sample_paths: int = 0

    def __post_init__(self):
        if self.method not in ("em", "pca", "mc"):
            raise ParameterError(f"unknown ensemble method {self.method!r}; expected em|pca|mc")
        if not (isinstance(self.master_seed, numbers.Integral) and self.master_seed >= 0):
            raise ParameterError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        if self.record_times is not None and len(self.record_times) == 0:
            raise ParameterError("record_times must hold at least one time")
        for key in ("min_samples", "max_samples"):
            n = getattr(self, key)  # JSON's integral floats (2000.0) count as integers
            if not (isinstance(n, numbers.Integral) or isinstance(n, float) and n.is_integer()):
                raise ParameterError(f"{key} must be an integer, got {n!r}")
            object.__setattr__(self, key, int(n))
        if not (1 <= self.min_samples <= self.max_samples):
            raise ParameterError("need 1 <= min_samples <= max_samples")
        if not self.target_rel_halfwidth > 0:
            raise ParameterError("target_rel_halfwidth must be positive")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be positive")
        if self.zero_noise and self.method == "mc":
            raise ParameterError("zero_noise applies to the SDE methods, not to the event MC")


@dataclass
class EnsembleSummary:
    """Per-record-time, per-component sample statistics.

    Components are the state entries plus the precursor sum; ``std`` is the
    unbiased (N-1) sample standard deviation of the population across paths,
    ``ci_halfwidth`` is 1.96 * std / sqrt(N), and ``method`` is em|pca|mc.
    ``diagnostics`` sums the engine's own per-path counters: negative_steps,
    clipped_small and clipped_hard for em and pca; negative_captures and
    halvings for mc.
    """

    times: np.ndarray
    component_names: list
    mean: np.ndarray
    std: np.ndarray
    ci_halfwidth: np.ndarray
    n_samples: int
    converged: bool
    stop_reason: str
    failures: int
    method: str
    master_seed: int
    sample_paths: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    def component_index(self, name: str) -> int:
        try:
            return self.component_names.index(name)
        except ValueError:
            raise ParameterError(
                f"unknown component {name!r}; expected one of {self.component_names}"
            ) from None


def path_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-path seed: SeedSequence(master) spawn key (index,)."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


class _Welford:
    """Vector Welford accumulator, updated one sample at a time."""

    def __init__(self, shape):
        self.count = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def std(self):
        if self.count < 2:
            return np.zeros_like(self.mean)
        return np.sqrt(self.m2 / (self.count - 1))


def _augment(states: np.ndarray) -> np.ndarray:
    """Append the precursor sum as an extra component: (..., d) -> (..., d+1)."""
    csum = states[..., 1:].sum(axis=-1, keepdims=True)
    return np.concatenate([states, csum], axis=-1)


def _default_record_times(grid: TimeGrid, max_points: int = 21) -> np.ndarray:
    n = grid.n_steps
    stride = max(1, int(np.ceil(n / (max_points - 1))))
    idx = np.arange(0, n + 1, stride)
    if idx[-1] != n:
        idx = np.append(idx, n)
    return grid.nodes[idx]


def run_ensemble(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    cfg: EnsembleConfig,
) -> EnsembleSummary:
    """Run seeded sample paths of the configured method and summarize them.

    Statistics are recorded at ``cfg.record_times``, or by default at a
    ~21-node thinning of ``grid``; either engine checks them.  For the SDE
    methods ``grid`` is the solver grid and the record times must be its
    nodes.  For the event Monte Carlo the grid supplies the horizon and the
    default record times; stepping is governed by ``cfg.mc``.  Every method
    starts its paths from x0 at t = 0, where the grid starts.
    """
    x0 = as_state_vector(x0, p)
    d = p.dim
    method = cfg.method
    record_times = cfg.record_times
    if record_times is None:
        record_times = _default_record_times(grid)

    acc = _Welford((len(record_times), d + 1))
    kept = []
    attempted = 0
    failures = 0
    if method == "mc":
        diagnostics = {"negative_captures": 0, "halvings": 0}
    else:
        diagnostics = {"negative_steps": 0, "clipped_small": 0, "clipped_hard": 0}
    stop_reason = None

    while attempted < cfg.max_samples:
        # land exactly on min_samples so the first convergence check (and the
        # zero-noise shortcut) happens there
        if attempted < cfg.min_samples:
            n_new = min(cfg.batch_size, cfg.min_samples - attempted)
        else:
            n_new = min(cfg.batch_size, cfg.max_samples - attempted)
        gens = [
            np.random.default_rng(path_seed(cfg.master_seed, attempted + i))
            for i in range(n_new)
        ]
        if method == "mc":
            res = run_mc_paths(p, x0, grid.t_end, cfg.mc, gens, record_times)
            batch_states = res.states
            batch_failed = np.zeros(n_new, dtype=bool)  # MC paths always finish
            diagnostics["negative_captures"] += int(res.negative_captures.sum())
            diagnostics["halvings"] += len(res.halvings)
        else:
            res = run_sde_paths(
                p,
                x0,
                grid,
                method,
                gens,
                record_times=record_times,
                zero_noise=cfg.zero_noise,
                psd_policy=cfg.psd_policy,
            )
            batch_states = res.states
            batch_failed = res.failed
            diagnostics["negative_steps"] += int(res.negative_steps.sum())
            diagnostics["clipped_small"] += int(res.clipped_small.sum())
            diagnostics["clipped_hard"] += int(res.clipped_hard.sum())

        batch_aug = _augment(batch_states)
        for i in range(n_new):
            if batch_failed[i]:
                failures += 1
                continue
            acc.add(batch_aug[i])
            if len(kept) < cfg.keep_sample_paths:
                kept.append(batch_states[i].copy())
        attempted += n_new

        if failures > 0.01 * attempted:
            raise EnsembleFailureError(
                f"{failures} of {attempted} paths failed (> 1%); "
                "the scenario is not solvable by this method/policy"
            )

        if acc.count >= cfg.min_samples:
            std = acc.std()
            hw = _CONFIDENCE_FACTOR * std[-1] / np.sqrt(acc.count)
            mean_final = acc.mean[-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(hw == 0.0, 0.0, hw / np.abs(mean_final))
            if np.all(rel <= cfg.target_rel_halfwidth):
                stop_reason = "target"
                break

    if stop_reason is None:
        stop_reason = "max_samples"

    n = acc.count
    if n == 0:
        raise EnsembleFailureError("no path completed")
    std = acc.std()
    return EnsembleSummary(
        times=res.record_times,
        component_names=["n"] + [f"c{i + 1}" for i in range(d - 1)] + ["c_sum"],
        mean=acc.mean.copy(),
        std=std,
        ci_halfwidth=_CONFIDENCE_FACTOR * std / np.sqrt(n),
        n_samples=n,
        converged=stop_reason == "target",
        stop_reason=stop_reason,
        failures=failures,
        method=method,
        master_seed=cfg.master_seed,
        sample_paths=np.stack(kept) if kept else None,
        diagnostics=diagnostics,
    )


def summarize_component(summary: EnsembleSummary, selector: str):
    """Rows of (time, mean, std, ci_halfwidth, n) for one tracked component.

    Selectors: ``"n"``, ``"c1"``..``"cm"``, or ``"c_sum"`` for the
    per-path precursor sum.  With a single path the spread is reported as
    zero and the row carries n=1 so the caller can flag it.
    """
    j = summary.component_index(selector)
    return [
        {
            "time": float(summary.times[k]),
            "mean": float(summary.mean[k, j]),
            "std": float(summary.std[k, j]),
            "ci_halfwidth": float(summary.ci_halfwidth[k, j]),
            "n": summary.n_samples,
        }
        for k in range(summary.times.size)
    ]
