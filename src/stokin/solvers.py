"""Continuous-state solvers for the stochastic point kinetics system.

Three methods, det, em and pca, map (parameters, initial state, time grid
and, for em and pca, a ``numpy.random.Generator``) to a trajectory
(``Trajectory.method`` holds the short name):

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
populations).  Every negative rate is clipped and counted: one in the
roundoff band [-CLIP_TOL * max_k |r_k|, 0) in ``clipped_small``, a step with
one below the band in ``clipped_hard``.  A path fails only when its state
overflows to a non-finite value.

Every grid starts at t = 0 (:class:`TimeGrid`), where
:class:`~stokin.kinetics.KineticsParameters` has already evaluated the
reactivity and source once, so a schedule undefined at the start never
reaches a solver and no solver checks a coefficient's domain itself.

The batch engine :func:`run_sde_paths` holds N paths as a (d, N) array, so
each per-step numpy operation loops over the paths.  Its matrix-vector
products are sums in a fixed order, not BLAS, so a path's result does not
depend on its batch: the event-table products skip the table's zero entries
(:func:`_delta_matvec`, bit-equal to the dense sum), and the PCA propagator's
dense product sums every column (:func:`_col_matvec`).  The rate law is bound
once per step into one preallocated buffer.  The noise buffer holds at most
``_BLOCK_BUDGET`` floats (or one step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SolverError
from .kinetics import (
    KineticsParameters,
    _event_rates_into,
    _rate_coefficients,
    as_state_vector,
    delta_table,
    drift_matrix,
)
from .kinetics import diffusion_matrices, drift_apply  # noqa: F401  unused; benchmarks/spans.py rebinds them by name
from .linalg import CLIP_TOL, expm, propagator_with_source
from .linalg import psd_sqrt_batch  # noqa: F401  unused; benchmarks/spans.py rebinds it by name

__all__ = [
    "TimeGrid",
    "Trajectory",
    "deterministic_solve",
    "euler_maruyama_solve",
    "stochastic_pca_solve",
    "run_sde_paths",
    "PathsResult",
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


@dataclass
class Trajectory:
    """One sample path: its times and states, the method (det|em|pca|mc)
    and the method's own diagnostics.  The solvers here record every grid node;
    :func:`~stokin.event_mc.mc_trajectory` records its record times."""

    times: np.ndarray
    states: np.ndarray
    method: str
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
    """Each step's ``propagator(A_mid, q_mid)`` with the drift matrix and
    source frozen at the interval midpoint, built once per distinct (rho, q).
    Each scheme brings its own propagator: the augmented exponential's
    top-left block differs from ``expm(A dt)`` in the last bits wherever the
    source column raises the 1-norm, and with it the Pade degree and the
    scaling."""
    cache = {}
    steps = []
    for k in range(grid.n_steps):
        tm = grid.midpoint(k)
        key = (float(p.reactivity(tm)), float(p.source(tm)))
        if key not in cache:
            cache[key] = propagator(drift_matrix(p, tm), key[1])
        steps.append(cache[key])
    return steps


def deterministic_solve(p: KineticsParameters, x0, grid: TimeGrid) -> Trajectory:
    """Integrate the noise-free system with exact affine propagators.

    Each step uses the drift matrix at the interval-midpoint reactivity and
    the midpoint source value; the affine update is computed from an
    augmented matrix exponential, which covers singular drift matrices
    without a separate series branch.
    """
    x = as_state_vector(x0, p)
    d = p.dim
    steps = _midpoint_table(
        p, grid, lambda A, q: propagator_with_source(A, np.array([q] + [0.0] * (d - 1)), grid.dt)
    )
    states = np.empty((grid.n_steps + 1, d))
    states[0] = x
    for k, (E, g) in enumerate(steps):
        x = E @ x + g
        states[k + 1] = x
    return Trajectory(times=grid.nodes, states=states, method="det")


# ---------------------------------------------------------------------------
# stochastic steppers (shared by single-path solvers and the ensemble engine)
# ---------------------------------------------------------------------------

@dataclass
class PathsResult:
    """Recorded states for a batch of sample paths, from either engine.

    ``states`` has shape (n_paths, n_record, dim).  A path flagged in
    ``failed`` (an SDE state that overflowed at step ``fail_step``, else -1)
    holds the last state before failure in its later rows, which callers
    must ignore; event MC paths never fail.  ``counters`` maps each of the
    engine's counter names to a per-path integer array: negative_steps,
    clipped_small and clipped_hard from :func:`run_sde_paths`;
    negative_captures and halvings from
    :func:`~stokin.event_mc.run_mc_paths`.  A counter also reads as an
    attribute, except ``halvings``: that attribute is the event MC's
    halving log, one (path index, t, new dt) per halving, next to its
    ``event_counts`` (n_paths, m+3).
    """

    states: np.ndarray
    record_times: np.ndarray
    failed: np.ndarray
    fail_step: np.ndarray
    counters: dict
    event_counts: np.ndarray = None
    halvings: list = None

    def __getattr__(self, name):
        # reached only when no field matches; through __dict__, so a copy
        # that has no counters yet raises instead of recursing
        try:
            return self.__dict__["counters"][name]
        except KeyError:
            raise AttributeError(name) from None


def _col_matvec(E: np.ndarray, W: np.ndarray) -> np.ndarray:
    # (d,k) applied to each column of (k,N) as a column-by-column sum in a
    # fixed order, so results per path do not depend on the batch size (keeps
    # single-path and ensemble runs bit-equal, which BLAS and einsum do not)
    out = E[:, 0, None] * W[0]
    for j in range(1, E.shape[1]):
        out += E[:, j, None] * W[j]
    return out


def _delta_matvec(deltas: np.ndarray, W: np.ndarray) -> np.ndarray:
    # _col_matvec(deltas, W) for the event table deltas = delta_table(p).T,
    # (d, m+3), without its zero products.  Row 0 is the dense fixed-order
    # sum; its capture, decay and source entries are -1 or +1, whose products
    # are exact, so they enter as plain adds.  Precursor row i holds only
    # fission's beta_i nu and decay i's -1: deltas[i, 1] W[1] - W[1+i].  A
    # skipped zero product adds +-0 to a partial sum, which leaves a nonzero
    # sum as it is, so only an exactly-zero sum can come out with the other
    # sign of zero: a zero in the precursor rows falls back to the dense sum.
    # An inf or NaN weight still makes row 0 non-finite, as the dense sum
    # does, so the overflow check fails the same paths.
    out = np.empty((deltas.shape[0], W.shape[1]))
    row0 = np.multiply(W[1], deltas[0, 1], out=out[0])
    row0 -= W[0]
    for w in W[2:]:
        row0 += w
    pre = np.multiply(deltas[1:, 1, None], W[1], out=out[1:])
    pre -= W[2:-1]
    if not pre.all():
        return _col_matvec(deltas, W)
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # overflow fails the path
def run_sde_paths(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    method: str,
    generators,
    *,
    record_times=None,
    zero_noise: bool = False,
) -> PathsResult:
    """Advance a batch of em or pca sample paths, one Generator per path.

    Every path draws from its own generator only (one (m+3,) standard-normal
    block per step, one normal per elementary event, in time order), so a
    path run here is bit-identical to :func:`euler_maruyama_solve` /
    :func:`stochastic_pca_solve`, this engine with a batch of one, given a
    generator on the same seed.

    States are recorded at ``record_times``, which must be grid nodes
    (:meth:`TimeGrid.node_indices`); the default records every node.

    The working state is (d, N), paths on the inner axis; products with the
    event table (:func:`_delta_matvec`, EM's weights and PCA's noise) and
    with the PCA propagator (:func:`_col_matvec`) are fixed-order sums.
    Normals fill an (N, block, m+3) buffer of at most
    ``_BLOCK_BUDGET`` floats (or one step), each path's stream in order, so
    the block length never changes a draw.

    Each step is built from the event table, its negative rates clipped and
    counted (see the module docstring).  A path whose state overflows is
    frozen and flagged in ``failed`` rather than raising, so the remaining
    paths finish; numpy's overflow warnings on the way are silenced.
    """
    if method not in ("em", "pca"):
        raise ParameterError(f"unknown SDE method {method!r}; expected em|pca")
    x0 = as_state_vector(x0, p)
    d = p.dim
    n_events = p.m + 3
    n_paths = len(generators)
    n_steps = grid.n_steps
    dt = grid.dt
    sqrt_dt = math.sqrt(dt)
    nodes = grid.nodes
    deltas = delta_table(p).T  # (d, m+3)
    rates_buf = np.empty((n_events, n_paths))  # sliced to the surviving paths

    if record_times is None:
        record_indices = np.arange(n_steps + 1)
    else:
        record_indices = grid.node_indices(record_times)
    n_rec = len(record_indices)

    if method == "pca":  # source increment as a full row: +0.0 turns a -0.0 into +0.0
        pca_steps = _midpoint_table(
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
                rates = _event_rates_into(  # (m+3, paths), raw
                    rates_buf[:, : ia.size], Xa, *_rate_coefficients(p, float(nodes[step]))
                )
                if not zero_noise:
                    clipped, small, hard = _clipped_event_rates(rates)
                    eta = noise[rows, j].T
                    if small is not None:
                        clipped_small[rows] += small
                        clipped_hard[rows] += hard
                if method == "em":
                    weights = rates * dt
                    if not zero_noise:
                        weights += np.sqrt(clipped * dt) * eta
                    Xn = Xa + _delta_matvec(deltas, weights)
                else:
                    E, f_dt = pca_steps[step]
                    inner = Xa + f_dt[:, None]
                    if not zero_noise:
                        inner += _delta_matvec(deltas, np.sqrt(clipped) * eta) * sqrt_dt
                    Xn = _col_matvec(E, inner)
                if not np.isfinite(Xn).all():
                    bad = ~np.isfinite(Xn).all(axis=0)
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

    return PathsResult(
        states=out,
        record_times=nodes[record_indices],
        failed=fail_step >= 0,
        fail_step=fail_step,
        counters={
            "negative_steps": negative_steps,
            "clipped_small": clipped_small,
            "clipped_hard": clipped_hard,
        },
    )


def _single_path(p, x0, grid, generator, method, zero_noise):
    result = run_sde_paths(p, x0, grid, method, [generator], zero_noise=zero_noise)
    if result.failed[0]:
        step = int(result.fail_step[0])
        raise SolverError(
            f"{method} path failed at step {step} (t={grid.nodes[step]:g}): the state overflowed",
            step_index=step,
        )
    diagnostics = {name: int(c[0]) for name, c in result.counters.items()}
    return Trajectory(
        times=grid.nodes,
        states=result.states[0],
        method=method,
        diagnostics=diagnostics,
    )


def euler_maruyama_solve(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    generator: np.random.Generator,
    *,
    zero_noise: bool = False,
) -> Trajectory:
    """Euler-Maruyama path: drift and diffusion at the left endpoint, Wiener
    increments as sqrt(dt) times independent standard normals drawn from
    ``generator``, which :func:`run_sde_paths` steps as a batch of one."""
    return _single_path(p, x0, grid, generator, "em", zero_noise)


def stochastic_pca_solve(
    p: KineticsParameters,
    x0,
    grid: TimeGrid,
    generator: np.random.Generator,
    *,
    zero_noise: bool = False,
) -> Trajectory:
    """Piecewise-constant-approximation path: the step's state, source
    increment, and noise increment are pushed through the matrix exponential
    of the drift frozen at the interval midpoint, with normals drawn from
    ``generator`` as in :func:`euler_maruyama_solve`."""
    return _single_path(p, x0, grid, generator, "pca", zero_noise)
