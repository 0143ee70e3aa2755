"""Continuous-state solvers for the stochastic point kinetics system.

Three methods map (parameters, initial state, time grid, noise) to a
trajectory:

``deterministic_solve``
    Exact exponential stepping of the noise-free system, with reactivity and
    source frozen at each interval midpoint.  Exact for constant coefficients
    up to matrix-exponential accuracy, and unconditionally stable on the
    stiff six-group scenarios.

``euler_maruyama_solve``
    The first-order explicit scheme: drift at the left endpoint plus the
    event factor of the diffusion matrix times sqrt(dt) white noise.

``stochastic_pca_solve``
    The piecewise-constant-approximation scheme: reactivity is frozen at the
    interval midpoint, the state (plus source and noise increments) is pushed
    through the exact matrix exponential of the frozen system, i.e. an Euler
    step on the exponentially transformed variable.

Both stochastic solvers draw their noise from the event factor of the
diffusion matrix, B(x) = C C^T with C = [sqrt(r_k) delta_k] over the m+3
elementary events (Allen, Allen, Arciniega & Greenwood 2008; Gillespie
2000): each step takes m+3 independent standard normals eta and adds
sqrt(dt) * sum_k sqrt(r_k) eta_k delta_k, with rates and deltas from
:func:`~stokin.kinetics.diffusion_event_rates` and
:func:`~stokin.kinetics.event_vectors`.  No eigendecomposition is needed.
Rates are evaluated at the step's start state, which is never clamped, and a
negative rate contributes zero (the event Monte Carlo's rule for negative
populations).  Rates in the roundoff band [-CLIP_TOL * max_k |r_k|, 0) are
clipped silently and counted in ``clipped_small``; a rate below the band
fails the path under ``psd_policy="strict"`` and is clipped and counted in
``clipped_hard`` under ``psd_policy="clamp"``.  Scenarios with small
populations relative to their fluctuations (the stiff six-group cases) need
the clamp policy; see the scenario presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ReactivityDomainError, SolverError
from .kinetics import (
    KineticsParameters,
    as_state_vector,
    diffusion_event_rates,
    drift_apply,
    drift_matrix,
    event_vectors,
)
from .kinetics import diffusion_matrices  # noqa: F401  unused; benchmarks/spans.py rebinds it by name
from .linalg import CLIP_TOL, expm, propagator_with_source
from .linalg import psd_sqrt_batch  # noqa: F401  unused; benchmarks/spans.py rebinds it by name

__all__ = [
    "TimeGrid",
    "NoiseSource",
    "Trajectory",
    "deterministic_solve",
    "euler_maruyama_solve",
    "stochastic_pca_solve",
    "run_sde_paths",
    "SdePathsResult",
]

METHOD_DETERMINISTIC = "deterministic"
METHOD_EULER_MARUYAMA = "euler-maruyama"
METHOD_STOCHASTIC_PCA = "stochastic-pca"

# noise pregeneration block target (floats per chunk block)
_BLOCK_BUDGET = 4_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid covering [t0, t_end] exactly."""

    t0: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("grid step must be positive")
        span = self.t_end - self.t0
        if not span > 0:
            raise ParameterError("grid must have t_end > t0")
        ratio = span / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ParameterError(
                f"grid step {self.dt!r} does not divide the horizon {span!r} "
                "into an integer number of steps"
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t0) / self.dt))

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def midpoint(self, k: int) -> float:
        # literal node average so recorded midpoint coefficients are exact
        return 0.5 * ((self.t0 + k * self.dt) + (self.t0 + (k + 1) * self.dt))


class NoiseSource:
    """Seedable pseudo-random stream (PCG64) for one trajectory.

    The same seed reproduces the same variate sequence bit for bit within
    one build of numpy.
    """

    def __init__(self, seed):
        self.seed = seed
        self.generator = np.random.default_rng(seed)

    def normals(self, shape=None) -> np.ndarray:
        return self.generator.standard_normal(shape)

    def uniforms(self, size=None) -> np.ndarray:
        return self.generator.random(size)


@dataclass
class Trajectory:
    """One sample path: node times, states, the method tag, and the seed
    (None for the deterministic solver)."""

    times: np.ndarray
    states: np.ndarray
    method: str
    seed: object = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ParameterError("times and states must have equal length")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def component(self, index: int) -> np.ndarray:
        return self.states[:, index]


def _check_domain(p: KineticsParameters, grid: TimeGrid):
    for t in (grid.t0, grid.t_end, grid.midpoint(0)):
        if not p.reactivity.defined_at(t):
            raise ReactivityDomainError(f"reactivity undefined at t={t!r}")
        if not p.source.defined_at(t):
            raise ReactivityDomainError(f"source undefined at t={t!r}")


# ---------------------------------------------------------------------------
# deterministic exponential integrator
# ---------------------------------------------------------------------------

def deterministic_solve(p: KineticsParameters, x0, grid: TimeGrid) -> Trajectory:
    """Integrate the noise-free system with exact affine propagators.

    Each step uses the drift matrix at the interval-midpoint reactivity and
    the midpoint source value; the affine update is computed from an
    augmented matrix exponential, which covers singular drift matrices
    without a separate series branch.
    """
    _check_domain(p, grid)
    x = as_state_vector(x0, p)
    d = p.dim
    n_steps = grid.n_steps
    states = np.empty((n_steps + 1, d))
    states[0] = x
    cache = {}
    rho_steps = np.empty(n_steps)
    for k in range(n_steps):
        tm = grid.midpoint(k)
        rho = float(p.reactivity(tm))
        q = float(p.source(tm))
        rho_steps[k] = rho
        key = (rho, q)
        if key not in cache:
            A = drift_matrix(p, tm).matrix
            forcing = np.zeros(d)
            forcing[0] = q
            cache[key] = propagator_with_source(A, forcing, grid.dt)
        E, g = cache[key]
        x = E @ x + g
        states[k + 1] = x
    return Trajectory(
        times=grid.nodes,
        states=states,
        method=METHOD_DETERMINISTIC,
        seed=None,
        diagnostics={"rho_steps": rho_steps},
    )


# ---------------------------------------------------------------------------
# stochastic steppers (shared by single-path solvers and the ensemble engine)
# ---------------------------------------------------------------------------

class _PcaPropagators:
    """Per-step matrix exponentials and source increments for the PCA scheme,
    cached on the midpoint reactivity/source values."""

    def __init__(self, p: KineticsParameters, grid: TimeGrid):
        d = p.dim
        dt = grid.dt
        cache = {}
        self.E = []
        self.F_dt = np.zeros((grid.n_steps, d))
        self.rho_mid = np.empty(grid.n_steps)
        for k in range(grid.n_steps):
            tm = grid.midpoint(k)
            rho = float(p.reactivity(tm))
            self.rho_mid[k] = rho
            if rho not in cache:
                cache[rho] = expm(drift_matrix(p, tm).matrix * dt)
            self.E.append(cache[rho])
            self.F_dt[k, 0] = float(p.source(tm)) * dt


@dataclass
class SdePathsResult:
    """Recorded states for a batch of sample paths.

    ``states`` has shape (n_paths, n_record, dim); rows of failed paths hold
    the last state before failure and must be ignored by callers.
    """

    states: np.ndarray
    record_times: np.ndarray
    failed: np.ndarray
    fail_step: np.ndarray
    negative_steps: np.ndarray
    clipped_small: np.ndarray
    clipped_hard: np.ndarray
    rho_steps: np.ndarray = None


def _row_matvec(E: np.ndarray, X: np.ndarray) -> np.ndarray:
    # (d,k) applied to each row of (N,k) as a column-by-column sum in a fixed
    # order, so results per row do not depend on the batch size (keeps
    # single-path and ensemble runs bit-equal, which BLAS and einsum do not)
    out = X[:, 0, None] * E[:, 0]
    for j in range(1, E.shape[1]):
        out += X[:, j, None] * E[:, j]
    return out


def _clipped_event_rates(p: KineticsParameters, states: np.ndarray, t: float):
    """Event-factor rates with negatives clipped to zero.

    Returns the clipped (N, m+3) rates, the per-path count of rates clipped
    from the roundoff band [-CLIP_TOL * max_k |r_k|, 0), and a per-path flag
    for a rate below that band.
    """
    rates = diffusion_event_rates(p, states, t)
    small = np.zeros(len(rates), dtype=np.int64)
    hard = np.zeros(len(rates), dtype=bool)
    neg = rates < 0
    if neg.any():
        rows = np.flatnonzero(neg.any(axis=1))
        r = rates[rows]
        band = -CLIP_TOL * np.abs(r).max(axis=1, keepdims=True)
        hard[rows] = np.any(r < band, axis=1)
        small[rows] = np.count_nonzero(neg[rows] & (r >= band), axis=1)
        np.maximum(rates, 0.0, out=rates)
    return rates, small, hard


def run_sde_paths(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    method: str,
    generators,
    *,
    record_indices=None,
    zero_noise: bool = False,
    psd_policy: str = "strict",
    propagators: _PcaPropagators = None,
) -> SdePathsResult:
    """Advance a batch of sample paths, one numpy Generator per path.

    Every path consumes its generator exactly as the single-path solvers do
    (one (m+3,) standard-normal block per step, one normal per elementary
    event, in time order), so a path run here is bit-identical to the same
    seed run through :func:`euler_maruyama_solve` /
    :func:`stochastic_pca_solve`.

    The noise increment is the event factor times the step's normals (see
    the module docstring).  Under the strict policy, a path with an event
    rate below the roundoff band is frozen and flagged in ``failed`` rather
    than raising, so the remaining paths finish.
    """
    if method not in (METHOD_EULER_MARUYAMA, METHOD_STOCHASTIC_PCA):
        raise ParameterError(f"unknown SDE method {method!r}")
    if psd_policy not in ("strict", "clamp"):
        raise ParameterError(f"unknown psd policy {psd_policy!r}")
    _check_domain(p, grid)
    x0 = as_state_vector(x0, p)
    d = p.dim
    n_events = p.m + 3
    n_paths = len(generators)
    n_steps = grid.n_steps
    dt = grid.dt
    sqrt_dt = math.sqrt(dt)
    nodes = grid.nodes
    deltas_t = np.array([ev.delta for ev in event_vectors(p)]).T  # (d, m+3)

    if record_indices is None:
        record_indices = np.arange(n_steps + 1)
    record_indices = np.asarray(record_indices, dtype=int)
    n_rec = len(record_indices)

    if method == METHOD_STOCHASTIC_PCA and propagators is None:
        propagators = _PcaPropagators(p, grid)

    X = np.tile(x0, (n_paths, 1))
    alive = np.ones(n_paths, dtype=bool)
    fail_step = np.full(n_paths, -1, dtype=np.int64)
    negative_steps = np.zeros(n_paths, dtype=np.int64)
    clipped_small = np.zeros(n_paths, dtype=np.int64)
    clipped_hard = np.zeros(n_paths, dtype=np.int64)
    out = np.empty((n_paths, n_rec, d))

    rec_pos = 0
    if rec_pos < n_rec and record_indices[rec_pos] == 0:
        out[:, rec_pos] = X
        rec_pos += 1

    block = max(1, min(n_steps, _BLOCK_BUDGET // max(1, n_paths * n_events)))
    # filled in place, path by path: each path walks its own stream exactly
    # as one (kk, m+3) draw would, without a stacking copy
    noise = None if zero_noise else np.empty((n_paths, block, n_events))
    k = 0
    while k < n_steps:
        kk = min(block, n_steps - k)
        if not zero_noise:
            for i, g in enumerate(generators):
                g.standard_normal(out=noise[i, :kk])
        for j in range(kk):
            step = k + j
            t = nodes[step]
            ia = np.flatnonzero(alive)
            if ia.size:
                # a slice while every path is alive avoids the gather/scatter
                rows = slice(None) if ia.size == n_paths else ia
                Xa = X[rows]
                if zero_noise:
                    G = np.zeros_like(Xa)
                    hard = np.zeros(ia.size, dtype=bool)
                else:
                    rates, small, hard = _clipped_event_rates(p, Xa, t)
                    clipped_small[rows] += small
                    weights = np.sqrt(rates) * noise[rows, j]
                    G = _row_matvec(deltas_t, weights) * sqrt_dt
                if method == METHOD_EULER_MARUYAMA:
                    drift = drift_apply(p, Xa, t)
                    drift[:, 0] += float(p.source(t))
                    Xn = Xa + drift * dt + G
                else:
                    inner = Xa + propagators.F_dt[step][None, :] + G
                    Xn = _row_matvec(propagators.E[step], inner)
                if psd_policy == "clamp":
                    clipped_hard[rows] += hard
                    hard[:] = False  # clipped and counted, not fatal
                finite = np.isfinite(Xn)
                bad = hard if finite.all() else hard | ~finite.all(axis=1)
                if bad.any():
                    dead = ia[bad]
                    alive[dead] = False
                    fail_step[dead] = step
                    rows, Xn = ia[~bad], Xn[~bad]
                X[rows] = Xn
                negative_steps[rows] += Xn[:, 0] < 0
            if rec_pos < n_rec and record_indices[rec_pos] == step + 1:
                out[:, rec_pos] = X
                rec_pos += 1
        k += kk

    return SdePathsResult(
        states=out,
        record_times=nodes[record_indices],
        failed=~alive,
        fail_step=fail_step,
        negative_steps=negative_steps,
        clipped_small=clipped_small,
        clipped_hard=clipped_hard,
        rho_steps=propagators.rho_mid if method == METHOD_STOCHASTIC_PCA else None,
    )


def _single_path(p, x0, grid, noise, method, zero_noise, psd_policy):
    result = run_sde_paths(
        p,
        x0,
        grid,
        method,
        [noise.generator],
        zero_noise=zero_noise,
        psd_policy=psd_policy,
    )
    if result.failed[0]:
        step = int(result.fail_step[0])
        raise SolverError(
            f"{method} path failed at step {step} (t={grid.nodes[step]:g}): "
            "event rate below the roundoff band or state overflowed",
            step_index=step,
        )
    diagnostics = {
        "negative_steps": int(result.negative_steps[0]),
        "clipped_small": int(result.clipped_small[0]),
        "clipped_hard": int(result.clipped_hard[0]),
        "psd_policy": psd_policy,
    }
    if result.rho_steps is not None:
        diagnostics["rho_steps"] = result.rho_steps
    return Trajectory(
        times=grid.nodes,
        states=result.states[0],
        method=method,
        seed=noise.seed,
        diagnostics=diagnostics,
    )


def euler_maruyama_solve(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    noise: NoiseSource,
    *,
    zero_noise: bool = False,
    psd_policy: str = "strict",
) -> Trajectory:
    """Euler-Maruyama path: drift and diffusion at the left endpoint, Wiener
    increments as sqrt(dt) times independent standard normals."""
    return _single_path(p, x0, grid, noise, METHOD_EULER_MARUYAMA, zero_noise, psd_policy)


def stochastic_pca_solve(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    noise: NoiseSource,
    *,
    zero_noise: bool = False,
    psd_policy: str = "strict",
) -> Trajectory:
    """Piecewise-constant-approximation path: the step's state, source
    increment, and noise increment are pushed through the matrix exponential
    of the drift frozen at the interval midpoint.  The midpoint reactivity
    used at each step is recorded in ``diagnostics["rho_steps"]``."""
    return _single_path(p, x0, grid, noise, METHOD_STOCHASTIC_PCA, zero_noise, psd_policy)
