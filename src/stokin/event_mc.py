"""Discrete-event Monte Carlo of the birth/death/transformation process.

One engine, :func:`run_mc_paths`, advances a batch of paths; each path has
its own Generator and its own clock, so a path's result does not depend on
the batch it runs in.  :func:`mc_trajectory` is a batch of one, returned as
the :class:`~stokin.solvers.Trajectory` the SDE solvers return, with method
``"mc"`` and the per-kind event counts in its diagnostics.  Event
rates are the rate law of :func:`~stokin.kinetics.event_rates` applied to the
states clipped at zero, so a population below zero contributes zero rate; a
negative capture coefficient (rho > 1 - 1/nu) is a ParameterError.  Events
are applied with one gather-add from :func:`~stokin.kinetics.delta_table`
plus a zero column for "no event".

The engine steps the batch in lock step, one iteration per path per loop
pass, and keeps the paths still stepping in a contiguous prefix of slots, in
path order, so each iteration works on slices whatever the number of paths
left.  The rate coefficients are bound in one call per iteration, at every
stepping path's own clock, and fill a preallocated rate buffer; a wide batch
sums their cumulative rates one event row at a time, and exact mode reads
each total rate from the last row.  Bookkeeping that most iterations do not
need (recording, halving, refilling uniforms) runs only when some path
needs it.

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
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StepSizeError
from .kinetics import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    _event_rates_into,
    _rate_coefficients,
    as_state_vector,
    delta_table,
    event_rates,
)
from .solvers import NoiseSource, Trajectory, check_record_times

__all__ = [
    "McConfig",
    "mc_trajectory",
    "sample_increments",
    "run_mc_paths",
    "McPathsResult",
]

MODE_FIXED = "fixed"
MODE_EXACT = "exact"
YIELD_FRACTIONAL = "fractional"
YIELD_INTEGER = "integer"

# uniforms per path block (even: exact mode draws pairs).  Integer yields draw
# between blocks, so _BUFFER's refill points fix where each yield draw falls;
# fractional yields draw nothing else, so their block length changes no draw.
_BUFFER = 4096
_FRACTIONAL_BUFFER = 1024
_ROW_WISE_WIDTH = 256  # batch width from which _cumulative adds row by row


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo stepping configuration.

    ``dt=None`` picks safety / (total rate at the initial state) for the
    fixed mode; the exact mode has no step and refuses a ``dt``.  Record
    times are not part of the configuration: the caller passes them to
    :func:`run_mc_paths` or :func:`mc_trajectory`.
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
        if self.dt is not None and self.mode == MODE_EXACT:
            raise ParameterError("dt sets the fixed mode's step; the exact mode takes none")
        if not 0 < self.safety <= 1:
            raise ParameterError("safety factor must be in (0, 1]")


def _event_count_dict(p: KineticsParameters, counts: np.ndarray) -> dict:
    out = {"capture": int(counts[0]), "fission": int(counts[1])}
    for i in range(p.m):
        out[f"transformation_{i + 1}"] = int(counts[2 + i])
    out["source"] = int(counts[-1])
    return out


# ---------------------------------------------------------------------------
# building blocks shared by the engine and the one-step sampler
# ---------------------------------------------------------------------------

def _rate_constants(p: KineticsParameters, t):
    """The rate coefficients at time t, or at one time per slot, after
    checking the capture coefficient: a negative one would make capture a
    birth, which no event process has."""
    coefs = _rate_coefficients(p, t)
    cap = coefs[0]
    if isinstance(cap, np.ndarray):  # one per slot: check the lowest
        lowest = cap.argmin()
        t, cap = t[lowest], cap[lowest]
    if cap < 0:
        rho = float(p.reactivity(t))
        raise ParameterError(f"negative capture rate coefficient at rho={rho:g}")
    return coefs


def _total_rates(rates: np.ndarray) -> np.ndarray:
    """Column sums of event-major rates (m+3, k), added row by row.  numpy
    sums a lone column pairwise once it has 8 or more rows, so without the
    cumulative sum a path alone would round its total differently from the
    same path in a batch."""
    if rates.shape[1] == 1:
        return np.cumsum(rates, axis=0)[-1]
    return rates.sum(axis=0)


def _padded_deltas(p: KineticsParameters) -> np.ndarray:
    """:func:`~stokin.kinetics.delta_table` plus a zero row m+3: no event."""
    return np.vstack([delta_table(p), np.zeros(p.dim)])


def _cumulative(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cumulative sums down the event rows of a, (m+3, k), into ``out``,
    bit-equal to ``np.cumsum(a, axis=0)``.  numpy accumulates one column at
    a time, which costs more than one add per row once the batch is wide."""
    if a.shape[1] < _ROW_WISE_WIDTH:
        return np.add.accumulate(a, axis=0, out=out)
    out[0] = a[0]
    for i in range(1, a.shape[0]):
        np.add(out[i - 1], a[i], out=out[i])
    return out


def _bernoulli_events(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Event index selected by each uniform u against the cumulative
    event-major step probabilities, (m+3,) shared or (m+3, len(u)): the count
    of them at or below u, so m+3 means no event."""
    return (u >= cum.reshape(cum.shape[0], -1)).sum(axis=0)


def _geometric_skip(u, totals, prob, step, gap):
    """Fixed-mode skip-ahead for rates that change only at events.

    A path takes full steps while its gap to the record target exceeds dt,
    then one last step onto the target (``step`` is dt, or that last step).
    Over the n_full full steps, the count K of empty steps before an event
    is Geometric(P), P = ``prob`` = ``totals`` * dt, drawn by inversion from u
    and capped at n_full: the event fires at step K+1 when K < n_full, else
    the path moves n_full steps with none.  The position of u inside its
    geometric cell, 1 - (1-u)/(1-P)^K, is uniform on [0, P) and selects the
    event against the step probabilities; at K = 0 it is u itself.  The last
    step onto a target is the plain Bernoulli step with u, and a path with
    zero total rate moves straight to the target.  Returns the selection
    value (inf: no event) and the time to advance.
    """
    n_full = np.ceil(gap / step) - 1.0
    n = np.maximum(n_full, 1.0)
    # P = 0 divides a by log1p(-0) = -0, and P = 1 multiplies K = 0 by
    # log1p(-1) = -inf: both results are masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        lq = np.log1p(-prob)
        a = np.log1p(-u)
        K = np.minimum(np.floor(a / lq), n_full)
        cell = -np.expm1(a - K * lq)
    v = np.where(K > 0.0, cell, u)
    v[K >= n] = np.inf
    advance = np.minimum(K + 1.0, n) * step
    zero = totals <= 0.0
    if np.count_nonzero(zero):
        advance[zero] = gap[zero]
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
    admissible bound) when the event probabilities sum past one, and
    ParameterError for a ``dt`` that is not positive and finite or a
    negative ``n_samples``.
    """
    if yield_model not in (YIELD_FRACTIONAL, YIELD_INTEGER):
        raise ParameterError(f"unknown yield model {yield_model!r}")
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt!r}")
    if n_samples < 0:
        raise ParameterError(f"n_samples must be nonnegative, got {n_samples!r}")
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
    idx = _bernoulli_events(np.cumsum(probs), rng.random(n_samples))
    out = _padded_deltas(p)[idx]
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


def _record(out, X, path, rec_ptr, slots, reached):
    """Write the state of each listed slot into its path's record rows from
    its record pointer up to ``reached``, in one scatter."""
    first = rec_ptr[slots]
    rec_ptr[slots] = reached
    rows = reached - first
    if np.any(rows != 1):  # some slot reached several rows, or none
        first = np.arange(rows.sum()) + np.repeat(first + rows - np.cumsum(rows), rows)
        slots = np.repeat(slots, rows)
    out[path[slots], first] = X[:, slots].T


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

    The loop works on slots, not paths: the per-path arrays (state, held
    component-major as (m+1, slots), clock, step, record pointer, event
    counts, negative captures) are indexed by slot, and ``path`` maps a slot
    to its path.  The paths still stepping occupy the prefix [0, k), in path
    order, so every iteration works on slices; when paths finish, a stable
    partition moves them behind the prefix.  Results are mapped back to path
    order once, at the end, and halvings are logged with the path index.
    Rates are bound once per iteration: one :func:`_rate_constants` call
    at the stepping slots' clocks, whose coefficients fill a preallocated
    rate buffer through the rate law's kernel.

    Every stepping slot draws the same count of uniforms per iteration, so
    one offset indexes all their blocks, and they refill together.  Only the
    slots whose landing passed their next record time look up the record
    rows they reached, written in one scatter.
    """
    if not 0.0 <= horizon < math.inf:
        raise ParameterError("horizon must be nonnegative and finite")
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
    deltas = np.ascontiguousarray(_padded_deltas(p).T)  # (d, m+4)

    # per-slot arrays; slot j holds path path[j]
    path = np.arange(n_paths)
    X = np.tile(vec0[:, None], (1, n_paths))
    t = np.zeros(n_paths)
    counts = np.zeros((none + 1, n_paths), dtype=np.int64)  # row `none`: no event
    neg_cap = np.zeros(n_paths, dtype=np.int64)
    halvings = []
    out = np.empty((n_paths, record.size, p.dim))
    start = int(np.searchsorted(record, 0.0, side="right"))
    out[:, :start] = vec0
    rec_ptr = np.full(n_paths, start)

    if fixed:
        t_end = horizon - 1e-15 * max(1.0, horizon)
        coefs = _rate_constants(p, 0.0)
        total0 = _event_rates_into(np.empty((none, 1)), vec0[:, None], *coefs).sum()
        if cfg.dt is not None:
            dt0 = cfg.dt
        elif total0 > 0:
            dt0 = cfg.safety / total0
        else:
            dt0 = horizon if horizon > 0 else 1.0
        dt = np.full(n_paths, dt0)
        draws = 1
    else:
        t_end = horizon
        draws = 2
    # a slot's next record time, then the horizon: a fixed step never passes
    # it, and no slot records before its landing time reaches it
    targets = np.append(record, horizon)

    # uniforms: path i's block is buf[i, :block], and column `offset` holds
    # every stepping slot's next draw.  The row stride is odd, because at a
    # 4 KiB-multiple stride every slot's read lands in the same cache sets.
    block = _BUFFER if integer else _FRACTIONAL_BUFFER
    buf = np.empty((n_paths, block + 1))
    for i, g in enumerate(generators):
        buf[i, :block] = g.random(block)
    offset = 0
    per_slot = [path, t, rec_ptr, neg_cap] + ([dt] if fixed else [])

    slots = np.arange(n_paths)
    clipped = np.empty((p.dim, n_paths))
    rate_buf = np.empty((none, n_paths))
    cum_buf = np.empty((none, n_paths))
    k = n_paths if 0.0 < t_end else 0  # every path starts at t = 0
    while k:
        if offset == block:
            for i in path[:k]:
                buf[i, :block] = generators[i].random(block)
            offset = 0
        # the prefix holds paths 0..k-1 until a path before the last finishes
        ordered = path[k - 1] == k - 1
        u = [buf[:k, c] if ordered else buf[:, c].take(path[:k])
             for c in range(offset, offset + draws)]
        offset += draws
        Xa = X[:, :k]
        ta = t[:k]
        rp = rec_ptr[:k]
        coefs = _rate_constants(p, ta)
        rates = rate_buf[:, :k]
        _event_rates_into(rates, np.maximum(Xa, 0.0, out=clipped[:, :k]), *coefs)

        if fixed:
            totals = _total_rates(rates)
            dta = dt[:k]
            target = targets[rp]
            gap = target - ta
            step = np.minimum(dta, gap)
            prob = totals * step
            over = prob > 1.0
            if np.count_nonzero(over):
                for j in np.flatnonzero(over):
                    while totals[j] * step[j] > 1.0:
                        dta[j] *= 0.5
                        step[j] = min(dta[j], gap[j])
                        halvings.append((int(path[j]), float(ta[j]), float(dta[j])))
                    prob[j] = totals[j] * step[j]
            advance = step
            u = u[0]
            if autonomous:
                u, advance = _geometric_skip(u, totals, prob, step, gap)
            cum = _cumulative(np.multiply(rates, step, out=rates), cum_buf[:, :k])
            idx = _bernoulli_events(cum, u)
        else:
            cum = _cumulative(rates, cum_buf[:, :k])
            totals = cum[-1]  # the sum of _total_rates, added in the same order
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = -np.log1p(-u[0]) / totals
            dead = totals <= 0.0
            if np.count_nonzero(dead):
                tau[dead] = np.inf
            ta += tau
            done = ta > horizon
            # record times strictly before this jump land on the pre-jump
            # state; a finished slot lands past every record time
            landed = (ta > targets[rp]).nonzero()[0]
            if landed.size:
                reached = record.searchsorted(ta[landed], side="left")
                _record(out, Xa, path, rp, landed, reached)
            idx = np.minimum(_bernoulli_events(cum, u[1] * totals), none - 1)
            idx[done] = none

        counts[idx, slots[:k]] += 1
        low = Xa[0] < 1.0
        if np.count_nonzero(low):
            neg_cap[:k] += (idx == 0) & low
        step_deltas = deltas.take(idx, axis=1)
        if integer:
            for j in np.flatnonzero(idx == 1):
                step_deltas[:, j] = _integer_fission(p, generators[path[j]])
        Xa += step_deltas

        if fixed:
            ta += advance
            landing = ta * (1 + 1e-12)
            landed = (landing >= target).nonzero()[0]
            if landed.size:
                reached = record.searchsorted(landing[landed], side="right")
                _record(out, Xa, path, rp, landed, reached)
            live = ta < t_end
        else:
            live = ~done
        stepping = np.count_nonzero(live)
        if stepping < k:
            # stable partition: stepping slots first, both parts in path order
            order = np.concatenate((np.flatnonzero(live), np.flatnonzero(~live)))
            for a in per_slot:
                a[:k] = a[order]
            X[:, :k] = Xa[:, order]
            counts[:, :k] = counts[:, order]
            k = stepping

    # finished and absorbed paths: fill any remaining record slots
    unfilled = np.flatnonzero(rec_ptr < record.size)
    _record(out, X, path, rec_ptr, unfilled, record.size)
    by_path = np.empty_like(path)
    by_path[path] = slots
    return McPathsResult(
        states=out,
        record_times=record,
        event_counts=counts[:none, by_path].T,
        halvings=halvings,
        negative_captures=neg_cap[by_path],
    )


def mc_trajectory(
    p: KineticsParameters,
    x0,
    horizon: float,
    cfg: McConfig,
    noise: NoiseSource,
    record_times=None,
) -> Trajectory:
    """Simulate one sample path on [0, horizon]: :func:`run_mc_paths` with a
    batch of one, sampled at ``record_times`` (default: the horizon).

    The diagnostics hold the event counts by kind, each fixed-mode step
    halving as (t, new dt) and the count of captures that drove a fractional
    population below zero.
    """
    record = (horizon,) if record_times is None else record_times
    res = run_mc_paths(p, x0, horizon, cfg, [noise.generator], record)
    return Trajectory(
        times=res.record_times,
        states=res.states[0],
        method="mc",
        seed=noise.seed,
        diagnostics={
            "event_counts": _event_count_dict(p, res.event_counts[0]),
            "halvings": [(t, dt) for _, t, dt in res.halvings],
            "negative_captures": int(res.negative_captures[0]),
            "mode": cfg.mode,
            "yield_model": cfg.yield_model,
        },
    )
