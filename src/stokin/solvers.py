"""Continuous-state solvers for the stochastic point kinetics system.

Three methods, det, em and pca, map (parameters, initial state, time grid,
noise) to a trajectory (``Trajectory.method`` holds the short name):

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

Both stochastic solvers work from the event table (Hayes & Allen 2005): with
rates r_k from :func:`~stokin.kinetics.event_rates` and state changes delta_k
from :func:`~stokin.kinetics.delta_table`, the drift is sum_k r_k delta_k and
the diffusion matrix factors as B(x) = C C^T with C = [sqrt(r_k) delta_k]
(Allen, Allen, Arciniega & Greenwood 2008; Gillespie 2000).  Each step takes
m+3 independent standard normals eta, one per elementary event, so no
eigendecomposition is needed.  An Euler-Maruyama step is one fixed-order sum
over the events,

    x + sum_k (r_k dt + sqrt(r_k+ dt) eta_k) delta_k,

with the drift part taken from the raw rates (it equals A x + q e0 exactly)
and r_k+ the rates with the negativity rule below applied.  A PCA step adds
sqrt(dt) sum_k sqrt(r_k+) eta_k delta_k before the propagator.

Rates are evaluated at the step's start state, which is never clamped, and a
negative rate contributes no noise (the event Monte Carlo's rule for negative
populations).  Rates in the roundoff band [-CLIP_TOL * max_k |r_k|, 0) are
clipped silently and counted in ``clipped_small``; a rate below the band
fails the path under ``psd_policy="strict"`` and is clipped and counted in
``clipped_hard`` under ``psd_policy="clamp"``.  Scenarios with small
populations relative to their fluctuations (the stiff six-group cases) need
the clamp policy; see the scenario presets.

Every grid starts at t = 0 (:class:`TimeGrid`), where
:class:`~stokin.kinetics.KineticsParameters` has already evaluated the
reactivity and source once, so a schedule undefined at the start never
reaches a solver and no solver checks a coefficient's domain itself.

The batch engine :func:`run_sde_paths` holds N paths as a (d, N) array, so
each per-step numpy operation loops over the paths.  Its matrix-vector
products are column sums in a fixed order, not BLAS, so a path's result does
not depend on its batch; its noise buffer holds at most ``_BLOCK_BUDGET``
floats (or one step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SolverError
from .kinetics import (
    KineticsParameters,
    as_state_vector,
    delta_table,
    drift_matrix,
    event_rates,
)
from .kinetics import diffusion_matrices, drift_apply  # noqa: F401  unused; benchmarks/spans.py rebinds them by name
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

# size bound of the pregenerated noise block, in floats (4 MiB)
_BLOCK_BUDGET = 1 << 19


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid covering [0, t_end] exactly: every run starts at
    t = 0, where the reactivity is inserted."""

    t_end: float
    dt: float

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ParameterError(f"grid step must be positive and finite, got {self.dt!r}")
        if not 0 < self.t_end < math.inf:
            raise ParameterError(f"grid end must be positive and finite, got {self.t_end!r}")
        ratio = self.t_end / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ParameterError(
                f"grid step {self.dt!r} does not divide the horizon {self.t_end!r} "
                "into an integer number of steps"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def midpoint(self, k: int) -> float:
        # literal node average so recorded midpoint coefficients are exact
        return 0.5 * (k * self.dt + (k + 1) * self.dt)

    def node_indices(self, times) -> np.ndarray:
        """Indices of the nodes at ``times``; raises ParameterError unless the
        times are sorted, nonnegative and each a node (to 1e-9 relative)."""
        nodes = self.nodes
        idx = []
        for t in check_record_times(times).tolist():
            k = int(round(t / self.dt))
            if k < 0 or k > self.n_steps or abs(nodes[k] - t) > 1e-9 * max(1.0, abs(t)):
                raise ParameterError(f"record time {t!r} is not a grid node")
            idx.append(k)
        return np.asarray(idx, dtype=int)


def check_record_times(times, horizon: float = None) -> np.ndarray:
    """Record times as a float array; raises ParameterError unless they are
    finite, sorted, nonnegative and not past the ``horizon`` (when given).

    Every engine writes its record rows in order, so unsorted times would
    label rows with states from other times.
    """
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all() or np.any(np.diff(times) < 0) or np.any(times < 0):
        raise ParameterError("record times must be finite, sorted and nonnegative")
    if horizon is not None and times.size and times[-1] > horizon * (1 + 1e-12):
        raise ParameterError(f"record time {times[-1]:g} lies past the horizon {horizon:g}")
    return times


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


@dataclass
class Trajectory:
    """One sample path: node times, states, the method (det|em|pca), and the
    seed (None for the deterministic solver)."""

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


# ---------------------------------------------------------------------------
# deterministic exponential integrator
# ---------------------------------------------------------------------------

def _midpoint_table(p: KineticsParameters, grid: TimeGrid, propagator):
    """Reactivity and source frozen at each interval midpoint, as (n_steps,)
    arrays, and each step's ``propagator(A_mid, q_mid)``, built once per
    distinct (rho, q).  Each scheme brings its own propagator: the augmented
    exponential's top-left block differs from ``expm(A dt)`` in the last bits."""
    rho = np.empty(grid.n_steps)
    q = np.empty(grid.n_steps)
    cache = {}
    steps = []
    for k in range(grid.n_steps):
        tm = grid.midpoint(k)
        key = (float(p.reactivity(tm)), float(p.source(tm)))
        rho[k], q[k] = key
        if key not in cache:
            cache[key] = propagator(drift_matrix(p, tm), key[1])
        steps.append(cache[key])
    return rho, q, steps


def deterministic_solve(p: KineticsParameters, x0, grid: TimeGrid) -> Trajectory:
    """Integrate the noise-free system with exact affine propagators.

    Each step uses the drift matrix at the interval-midpoint reactivity and
    the midpoint source value; the affine update is computed from an
    augmented matrix exponential, which covers singular drift matrices
    without a separate series branch.
    """
    x = as_state_vector(x0, p)
    d = p.dim
    rho_steps, _, steps = _midpoint_table(
        p, grid, lambda A, q: propagator_with_source(A, np.array([q] + [0.0] * (d - 1)), grid.dt)
    )
    states = np.empty((grid.n_steps + 1, d))
    states[0] = x
    for k, (E, g) in enumerate(steps):
        x = E @ x + g
        states[k + 1] = x
    return Trajectory(
        times=grid.nodes,
        states=states,
        method="det",
        seed=None,
        diagnostics={"rho_steps": rho_steps},
    )


# ---------------------------------------------------------------------------
# stochastic steppers (shared by single-path solvers and the ensemble engine)
# ---------------------------------------------------------------------------

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


def _col_matvec(E: np.ndarray, W: np.ndarray) -> np.ndarray:
    # (d,k) applied to each column of (k,N) as a column-by-column sum in a
    # fixed order, so results per path do not depend on the batch size (keeps
    # single-path and ensemble runs bit-equal, which BLAS and einsum do not)
    out = E[:, 0, None] * W[0]
    for j in range(1, E.shape[1]):
        out += E[:, j, None] * W[j]
    return out


def _clipped_event_rates(rates: np.ndarray):
    """The negativity rule on event-major rates (m+3, N).

    Returns the rates with negatives clipped to zero, the per-path count of
    rates clipped from the roundoff band [-CLIP_TOL * max_k |r_k|, 0), and a
    per-path flag for a rate below that band.  With no negative rate the
    rates come back as given and both per-path results are None.
    """
    neg = rates < 0
    if not neg.any():
        return rates, None, None
    cols = np.flatnonzero(neg.any(axis=0))
    r = rates[:, cols]
    band = -CLIP_TOL * np.abs(r).max(axis=0)
    small = np.zeros(rates.shape[1], dtype=np.int64)
    hard = np.zeros(rates.shape[1], dtype=bool)
    hard[cols] = np.any(r < band, axis=0)
    small[cols] = np.count_nonzero(neg[:, cols] & (r >= band), axis=0)
    return np.maximum(rates, 0.0), small, hard


def run_sde_paths(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    method: str,
    generators,
    *,
    record_times=None,
    zero_noise: bool = False,
    psd_policy: str = "strict",
) -> SdePathsResult:
    """Advance a batch of em or pca sample paths, one Generator per path.

    Every path consumes its generator exactly as the single-path solvers do
    (one (m+3,) standard-normal block per step, one normal per elementary
    event, in time order), so a path run here is bit-identical to the same
    seed run through :func:`euler_maruyama_solve` /
    :func:`stochastic_pca_solve`.

    States are recorded at ``record_times``, which must be grid nodes
    (:meth:`TimeGrid.node_indices`); the default records every node.

    The working state is (d, N), paths on the inner axis; products with the
    event table and the PCA propagator are fixed-order column sums
    (:func:`_col_matvec`).  Normals fill an (N, block, m+3) buffer of at most
    ``_BLOCK_BUDGET`` floats (or one step), each path's stream in order, so
    the block length never changes a draw.

    Each step is built from the event table (see the module docstring).
    Under the strict policy, a path with an event
    rate below the roundoff band is frozen and flagged in ``failed`` rather
    than raising, so the remaining paths finish.
    """
    if method not in ("em", "pca"):
        raise ParameterError(f"unknown SDE method {method!r}; expected em|pca")
    if psd_policy not in ("strict", "clamp"):
        raise ParameterError(f"unknown psd policy {psd_policy!r}")
    x0 = as_state_vector(x0, p)
    d = p.dim
    n_events = p.m + 3
    n_paths = len(generators)
    n_steps = grid.n_steps
    dt = grid.dt
    sqrt_dt = math.sqrt(dt)
    nodes = grid.nodes
    deltas = delta_table(p).T  # (d, m+3)

    if record_times is None:
        record_indices = np.arange(n_steps + 1)
    else:
        record_indices = grid.node_indices(record_times)
    n_rec = len(record_indices)

    rho_steps = None
    if method == "pca":  # source increment as a full row: +0.0 turns a -0.0 into +0.0
        rho_steps, _, pca_steps = _midpoint_table(
            p, grid, lambda A, q: (expm(A * dt), np.array([q * dt] + [0.0] * (d - 1)))
        )

    X = np.tile(x0[:, None], (1, n_paths))  # (d, N): paths on the inner axis
    ia = np.arange(n_paths)  # surviving paths
    rows = slice(None)  # columns of X stepped: all, or ia once a path has died
    fail_step = np.full(n_paths, -1, dtype=np.int64)
    negative_steps = np.zeros(n_paths, dtype=np.int64)
    clipped_small = np.zeros(n_paths, dtype=np.int64)
    clipped_hard = np.zeros(n_paths, dtype=np.int64)
    out = np.empty((n_paths, n_rec, d))

    rec_pos = 0
    if rec_pos < n_rec and record_indices[rec_pos] == 0:
        out[:, rec_pos] = X.T
        rec_pos += 1

    block = max(1, min(n_steps, _BLOCK_BUDGET // max(1, n_paths * n_events)))
    block = (block - 1) | 1  # odd: a 4 KiB-multiple path stride thrashes the cache
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
            if ia.size:
                Xa = X[:, rows]
                rates = event_rates(p, Xa.T, nodes[step])  # (m+3, paths), raw
                hard = None
                if not zero_noise:
                    clipped, small, hard = _clipped_event_rates(rates)
                    eta = noise[rows, j].T
                    if small is not None:
                        clipped_small[rows] += small
                        if psd_policy == "clamp":
                            clipped_hard[rows] += hard
                            hard = None  # clipped and counted, not fatal
                if method == "em":
                    weights = rates * dt
                    if not zero_noise:
                        weights += np.sqrt(clipped * dt) * eta
                    Xn = Xa + _col_matvec(deltas, weights)
                else:
                    E, f_dt = pca_steps[step]
                    inner = Xa + f_dt[:, None]
                    if not zero_noise:
                        inner += _col_matvec(deltas, np.sqrt(clipped) * eta) * sqrt_dt
                    Xn = _col_matvec(E, inner)
                bad = hard
                if not np.isfinite(Xn).all():
                    overflow = ~np.isfinite(Xn).all(axis=0)
                    bad = overflow if hard is None else hard | overflow
                if bad is not None and bad.any():
                    fail_step[ia[bad]] = step
                    ia, Xn = ia[~bad], Xn[:, ~bad]
                    rows = ia
                if isinstance(rows, slice):
                    X = Xn  # every path alive: X is the new state, no copy
                else:
                    X[:, rows] = Xn
                negative_steps[rows] += Xn[0] < 0
            if rec_pos < n_rec and record_indices[rec_pos] == step + 1:
                out[:, rec_pos] = X.T
                rec_pos += 1
        k += kk

    return SdePathsResult(
        states=out,
        record_times=nodes[record_indices],
        failed=fail_step >= 0,
        fail_step=fail_step,
        negative_steps=negative_steps,
        clipped_small=clipped_small,
        clipped_hard=clipped_hard,
        rho_steps=rho_steps,
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
    return _single_path(p, x0, grid, noise, "em", zero_noise, psd_policy)


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
    return _single_path(p, x0, grid, noise, "pca", zero_noise, psd_policy)
