"""Discrete-event Monte Carlo of the birth/death/transformation process.

One engine, :func:`run_mc_paths`, advances a batch of paths; each path has
its own Generator and its own clock, so a path's result does not depend on
the batch it runs in, and :func:`mc_trajectory` is a batch of one.  Event
rates are :func:`~stokin.kinetics.event_rates` of the states clipped at zero,
so a population below zero contributes zero rate; a negative capture
coefficient (rho > 1 - 1/nu) is a ParameterError.  Events are applied with
one gather-add from :func:`~stokin.kinetics.delta_table` plus a zero row for
"no event".

Two stepping modes:

``fixed``
    The Bernoulli scheme: over a step dt, each elementary event fires with
    probability rate*dt, at most one event per step, chosen by a single
    uniform draw against the cumulative probabilities.  The step must keep
    the total probability at or below one; sizes are chosen from the initial
    total rate with a safety factor, and a path whose rates grow past the
    bound halves its own step permanently (each halving is logged).  When
    reactivity and source are constant, rates change only at events, so one
    uniform draws the geometric count of empty steps before a path's next
    event and the event itself (:func:`_geometric_skip`): an iteration moves
    a path to its next event or record time.  Otherwise every step is one
    iteration.

``exact``
    Competing exponential clocks: the waiting time is exponential in the
    total rate and the event is chosen proportionally to its rate.  For
    time-dependent reactivity the rates are frozen at the jump's start time,
    which is first order in rho_dot * tau.

Yield handling:

``fractional``
    Event vectors are applied verbatim, so a fission adds the real-valued
    expected yields (-1 + (1-beta) nu neutrons, beta_i nu to group i).  This
    is the process whose mean and covariance match the drift/diffusion pair
    term by term, and the mode used for table reproduction.

``integer``
    A fission draws an integer total yield in {floor(nu), ceil(nu)} with mean
    nu; each yielded neutron is delayed with probability beta, and delayed
    neutrons pick group i with probability beta_i/beta.  Populations stay
    integral and never go negative; the mean matches the drift exactly but
    the fission block of the covariance differs from the diffusion matrix
    (Bernoulli-thinned yields), so it is not used for the covariance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StepSizeError
from .kinetics import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    _capture_coefficient,
    as_state_vector,
    delta_table,
    event_rates,
)
from .solvers import NoiseSource, check_record_times

__all__ = [
    "McConfig",
    "McTrajectory",
    "mc_trajectory",
    "sample_increments",
    "run_mc_paths",
    "McPathsResult",
]

MODE_FIXED = "fixed"
MODE_EXACT = "exact"
YIELD_FRACTIONAL = "fractional"
YIELD_INTEGER = "integer"

_BUFFER = 4096  # per-path pregenerated uniforms (even: exact mode consumes pairs)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo stepping configuration.

    ``dt=None`` picks safety / (total rate at the initial state) for the
    fixed mode.  Record times are not part of the configuration: the caller
    passes them to :func:`run_mc_paths` or :func:`mc_trajectory`.
    """

    mode: str = MODE_FIXED
    yield_model: str = YIELD_FRACTIONAL
    dt: float = None
    safety: float = 0.1

    def __post_init__(self):
        if self.mode not in (MODE_FIXED, MODE_EXACT):
            raise ParameterError(f"unknown MC mode {self.mode!r}")
        if self.yield_model not in (YIELD_FRACTIONAL, YIELD_INTEGER):
            raise ParameterError(f"unknown yield model {self.yield_model!r}")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ParameterError(f"fixed-step dt must be positive and finite, got {self.dt!r}")
        if not 0 < self.safety <= 1:
            raise ParameterError("safety factor must be in (0, 1]")


@dataclass
class McTrajectory:
    """States sampled at the record times plus event counts by kind."""

    times: np.ndarray
    states: np.ndarray
    event_counts: dict
    seed: object = None
    diagnostics: dict = field(default_factory=dict)


def _event_count_dict(p: KineticsParameters, counts: np.ndarray) -> dict:
    out = {"capture": int(counts[0]), "fission": int(counts[1])}
    for i in range(p.m):
        out[f"transformation_{i + 1}"] = int(counts[2 + i])
    out["source"] = int(counts[-1])
    return out


# ---------------------------------------------------------------------------
# building blocks shared by the engine and the one-step sampler
# ---------------------------------------------------------------------------

def _rate_constants(p: KineticsParameters, t: float):
    """Check the capture coefficient at time t: a negative one would make
    capture a birth, which no event process has."""
    rho = float(p.reactivity(t))
    if _capture_coefficient(p, rho) < 0:
        raise ParameterError(f"negative capture rate coefficient at rho={rho:g}")


def _bernoulli_events(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Event index selected by each uniform u against the event-major step
    probabilities, (m+3,) shared or (m+3, len(u)): the count of cumulative
    probabilities at or below u, so m+3 means no event."""
    cum = np.cumsum(probs, axis=0)
    return (u >= cum.reshape(cum.shape[0], -1)).sum(axis=0)


def _geometric_skip(u, totals, step, gap):
    """Fixed-mode skip-ahead for rates that change only at events.

    A path takes full steps while its gap to the record target exceeds dt,
    then one last step onto the target (``step`` is dt, or that last step).
    Over the n_full full steps, the count K of empty steps before an event
    is Geometric(P), P = total * dt, drawn by inversion from u: the event
    fires at step K+1 when K < n_full, else the path moves n_full steps with
    none.  The position of u inside its geometric cell, 1 - (1-u)/(1-P)^K,
    is uniform on [0, P) and selects the event against the step
    probabilities; at K = 0 it is u itself.  The last step onto a target is
    the plain Bernoulli step with u, and a path with zero total rate moves
    straight to the target.  Returns the selection value (inf: no event)
    and the time to advance.
    """
    n_full = np.ceil(gap / step) - 1.0
    n = np.maximum(n_full, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # P = 0 or P = 1, masked below
        lq = np.log1p(-totals * step)
        a = np.log1p(-u)
        K = np.where(n_full >= 1.0, np.floor(a / lq), 0.0)
        cell = -np.expm1(a - K * lq)
    v = np.where(K >= n, np.inf, np.where(K > 0.0, cell, u))
    advance = np.where(totals > 0.0, np.minimum(K + 1.0, n) * step, gap)
    return v, advance


def _integer_fission(p: KineticsParameters, generator) -> np.ndarray:
    """State change of one integer-yield fission drawn from ``generator``."""
    base = math.floor(p.nu)
    total_yield = base + (generator.random() < p.nu - base)
    delayed = generator.binomial(total_yield, p.beta_total)
    delta = np.empty(p.dim)
    delta[0] = total_yield - 1 - delayed
    delta[1:] = generator.multinomial(delayed, p.beta / p.beta_total)
    return delta


# ---------------------------------------------------------------------------
# vectorized one-step sampler (moment checks)
# ---------------------------------------------------------------------------

def sample_increments(
    p: KineticsParameters,
    x,
    t: float,
    dt: float,
    n_samples: int,
    rng: np.random.Generator,
    yield_model: str = YIELD_FRACTIONAL,
) -> np.ndarray:
    """Draw n_samples independent fixed-step increments from one state.

    Returns an (n_samples, m+1) array of state changes, suitable for checking
    the one-step mean against drift*dt and (in fractional mode) the one-step
    second moment against diffusion*dt.  Raises StepSizeError (carrying the
    admissible bound) when the event probabilities sum past one.
    """
    if yield_model not in (YIELD_FRACTIONAL, YIELD_INTEGER):
        raise ParameterError(f"unknown yield model {yield_model!r}")
    vec = as_state_vector(x, p)
    if np.any(vec < 0):
        raise ParameterError("Monte Carlo requires a nonnegative state")
    _rate_constants(p, t)
    rates = event_rates(p, vec, t)
    probs = rates * dt
    if probs.sum() > 1.0:
        raise StepSizeError(
            f"sum of event probabilities {probs.sum():.4g} exceeds 1",
            max_allowed_dt=1.0 / rates.sum(),
        )
    idx = _bernoulli_events(probs, rng.random(n_samples))
    out = np.vstack([delta_table(p), np.zeros(p.dim)])[idx]  # m+3: no event
    if yield_model == YIELD_INTEGER:
        for j in np.flatnonzero(idx == 1):
            out[j] = _integer_fission(p, rng)
    return out


# ---------------------------------------------------------------------------
# the path engine
# ---------------------------------------------------------------------------

@dataclass
class McPathsResult:
    states: np.ndarray        # (n_paths, n_record, dim)
    record_times: np.ndarray
    event_counts: np.ndarray  # (n_paths, m+3)
    halvings: list            # (path index, t, new dt), one per halving
    negative_captures: np.ndarray


def _record(out, X, rows, rec_ptr, new_ptr):
    """Write each path's current state into its record slots up to new_ptr."""
    for j in np.flatnonzero(new_ptr > rec_ptr[rows]):
        i = rows[j]
        out[i, rec_ptr[i] : new_ptr[j]] = X[i]
        rec_ptr[i] = new_ptr[j]


def run_mc_paths(
    p: KineticsParameters,
    x0,
    horizon: float,
    cfg: McConfig,
    generators,
    record_times,
) -> McPathsResult:
    """Advance a batch of MC paths from x0 to the horizon, one Generator each.

    Every path has its own clock.  In fixed mode all paths start from the
    same step size; a path whose total probability would pass one halves
    its own step, so a halving changes only that path.  Each path draws its
    uniforms from its own generator in blocks, one per iteration (fixed: a
    step, or a geometric skip) or two per jump (exact), and integer-yield
    fissions draw their yields from the same generator, so a path is
    bit-identical alone and in any batch.
    ``record_times`` must be sorted, nonnegative and within the horizon;
    times at zero see the initial state.
    """
    if horizon < 0:
        raise ParameterError("horizon must be nonnegative")
    record = check_record_times(record_times, horizon)
    vec0 = as_state_vector(x0, p)
    if np.any(vec0 < 0):
        raise ParameterError("Monte Carlo requires a nonnegative initial state")
    integer = cfg.yield_model == YIELD_INTEGER
    if integer:
        vec0 = np.rint(vec0)
    fixed = cfg.mode == MODE_FIXED
    autonomous = isinstance(p.reactivity, ConstantReactivity) and isinstance(
        p.source, ConstantSource
    )
    n_paths = len(generators)
    none = p.m + 3  # event index of "no event"
    deltas = np.vstack([delta_table(p), np.zeros(p.dim)])  # row `none`: no event

    X = np.tile(vec0, (n_paths, 1))
    t = np.zeros(n_paths)
    counts = np.zeros((n_paths, none), dtype=np.int64)
    neg_cap = np.zeros(n_paths, dtype=np.int64)
    halvings = []
    out = np.empty((n_paths, record.size, p.dim))
    start = int(np.searchsorted(record, 0.0, side="right"))
    out[:, :start] = vec0
    rec_ptr = np.full(n_paths, start)

    if fixed:
        t_end = horizon - 1e-15 * max(1.0, horizon)
        _rate_constants(p, 0.0)
        total0 = event_rates(p, vec0, 0.0).sum()
        if cfg.dt is not None:
            dt0 = cfg.dt
        elif total0 > 0:
            dt0 = cfg.safety / total0
        else:
            dt0 = horizon if horizon > 0 else 1.0
        dt = np.full(n_paths, dt0)
        targets = np.append(record, horizon)  # each path steps onto its next record time
        draws = 1
    else:
        t_end = horizon
        draws = 2
    active = t < t_end

    buf = np.empty((n_paths, _BUFFER))
    cursor = np.zeros(n_paths, dtype=np.int64)
    for i, g in enumerate(generators):
        buf[i] = g.random(_BUFFER)
    all_paths = np.arange(n_paths)

    while active.any():
        # rows: the stepping paths; ia indexes them, as a view when all step
        if active.all():
            rows, ia = all_paths, slice(None)
        else:
            rows = ia = np.flatnonzero(active)
        for i in rows[cursor[ia] + draws > _BUFFER]:
            buf[i] = generators[i].random(_BUFFER)
            cursor[i] = 0
        u = buf[rows, cursor[ia]]
        if not fixed:
            u_sel = buf[rows, cursor[ia] + 1]
        cursor[ia] += draws
        Xa = X[ia]
        ta = t[ia]
        times = [0.0] if autonomous else np.unique(ta)
        for s in times:
            _rate_constants(p, s)
        rates = event_rates(p, np.clip(Xa, 0.0, None), times[0] if len(times) == 1 else ta)
        totals = rates.sum(axis=0)

        if fixed:
            gap = targets[rec_ptr[ia]] - ta
            step = np.minimum(dt[ia], gap)
            for j in np.flatnonzero(totals * step > 1.0):
                i = rows[j]
                while totals[j] * step[j] > 1.0:
                    dt[i] *= 0.5
                    step[j] = min(dt[i], gap[j])
                    halvings.append((int(i), float(ta[j]), float(dt[i])))
            advance = step
            if autonomous:
                u, advance = _geometric_skip(u, totals, step, gap)
            idx = _bernoulli_events(rates * step, u)
            t_new = ta + advance
        else:
            dead = totals <= 0.0
            with np.errstate(divide="ignore"):
                tau = np.where(dead, np.inf, -np.log1p(-u) / np.where(dead, 1.0, totals))
            t_new = ta + tau
            done = (t_new > horizon) | dead
            # record times strictly before this jump land on the pre-jump state
            landing = np.where(done, horizon * (1 + 1e-12), t_new)
            _record(out, X, rows, rec_ptr, np.searchsorted(record, landing, side="left"))
            idx = np.minimum(_bernoulli_events(rates, u_sel * totals), none - 1)
            idx[done] = none

        fired = np.flatnonzero(idx < none)
        counts[rows[fired], idx[fired]] += 1
        neg_cap[ia] += (idx == 0) & (Xa[:, 0] < 1.0)
        step_deltas = deltas[idx]
        if integer:
            for j in np.flatnonzero(idx == 1):
                step_deltas[j] = _integer_fission(p, generators[rows[j]])
        X[ia] = Xa + step_deltas

        if fixed:
            t[ia] = t_new
            reached = np.searchsorted(record, t_new * (1 + 1e-12), side="right")
            _record(out, X, rows, rec_ptr, reached)
            active[ia] = t_new < t_end
        else:
            t[rows[~done]] = t_new[~done]
            active[rows[done]] = False

    # finished and absorbed paths: fill any remaining record slots
    _record(out, X, all_paths, rec_ptr, np.full(n_paths, record.size))
    return McPathsResult(
        states=out,
        record_times=record,
        event_counts=counts,
        halvings=halvings,
        negative_captures=neg_cap,
    )


def mc_trajectory(
    p: KineticsParameters,
    x0,
    horizon: float,
    cfg: McConfig,
    noise: NoiseSource,
    record_times=None,
) -> McTrajectory:
    """Simulate one sample path on [0, horizon]: :func:`run_mc_paths` with a
    batch of one, sampled at ``record_times`` (default: the horizon).

    The diagnostics hold each fixed-mode step halving as (t, new dt) and the
    count of captures that drove a fractional population below zero.
    """
    record = (horizon,) if record_times is None else record_times
    res = run_mc_paths(p, x0, horizon, cfg, [noise.generator], record)
    return McTrajectory(
        times=res.record_times,
        states=res.states[0],
        event_counts=_event_count_dict(p, res.event_counts[0]),
        seed=noise.seed,
        diagnostics={
            "halvings": [(t, dt) for _, t, dt in res.halvings],
            "negative_captures": int(res.negative_captures[0]),
            "mode": cfg.mode,
            "yield_model": cfg.yield_model,
        },
    )
