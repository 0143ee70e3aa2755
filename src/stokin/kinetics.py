"""Problem definition for stochastic point kinetics.

This module holds the reduced reactor parameters (decay constants, delayed
fractions, generation time, fission yield), time-dependent reactivity and
source functions, the state vector (neutron density plus one precursor
concentration per delayed group), and the constructors for the pieces of the
Ito system:

* the drift matrix of the linear mean dynamics,
* the state-dependent diffusion (increment-covariance) matrix,
* the elementary event table of the underlying birth/death/transformation
  process (capture, fission, precursor decay, source emission) with its
  state-change vectors (:func:`delta_table`) and rates (:func:`event_rates`).

:func:`event_rates` is the package's one rate law: the SDE solvers build
their drift and noise from it and the event Monte Carlo draws its events
from it.  The drift/diffusion pair and the event table describe the same
process: the rate-weighted sum of event vectors reproduces the drift applied
to the state, and the rate-weighted sum of their outer products reproduces
the diffusion matrix.  The closed forms :func:`drift_matrix` and
:func:`diffusion_matrices` are kept as the oracles of those identities,
which the test suite exercises.

All types are immutable after construction; the functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ReactivityDomainError
from .linalg import solve_linear

__all__ = [
    "ConstantReactivity",
    "LinearReactivity",
    "PiecewiseConstantReactivity",
    "ConstantSource",
    "PiecewiseConstantSource",
    "KineticsParameters",
    "State",
    "DriftMatrix",
    "DiffusionMatrix",
    "EventVector",
    "drift_matrix",
    "drift_apply",
    "diffusion_matrix",
    "diffusion_matrices",
    "event_vectors",
    "delta_table",
    "event_rates",
    "equilibrium_state",
]


# ---------------------------------------------------------------------------
# time-dependent coefficient functions
# ---------------------------------------------------------------------------

def _check_breakpoints(times, values, what):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError(f"{what}: breakpoints must be a non-empty 1-d sequence")
    if values.shape != times.shape:
        raise ParameterError(f"{what}: breakpoints and values must have equal length")
    if not np.all(np.diff(times) > 0):
        raise ParameterError(f"{what}: breakpoints must be strictly increasing")
    return times, values


@dataclass(frozen=True)
class ConstantReactivity:
    """Reactivity held at a fixed value for all times."""

    value: float

    def __call__(self, t):
        return self.value

    def defined_at(self, t) -> bool:
        return True


@dataclass(frozen=True)
class LinearReactivity:
    """Reactivity ramp: value(t) = slope * t."""

    slope: float

    def __call__(self, t):
        return self.slope * t

    def defined_at(self, t) -> bool:
        return True


@dataclass(frozen=True)
class PiecewiseConstantReactivity:
    """Step function: value i holds on [times[i], times[i+1]); the last value
    holds from times[-1] onward.  Evaluation before the first breakpoint is
    undefined and raises.
    """

    times: tuple
    values: tuple

    def __init__(self, times, values):
        times, values = _check_breakpoints(times, values, "reactivity")
        object.__setattr__(self, "times", tuple(times))
        object.__setattr__(self, "values", tuple(values))

    def __call__(self, t):
        if not self.defined_at(t):
            raise ReactivityDomainError(
                f"reactivity undefined at t={t!r}: first breakpoint is {self.times[0]}"
            )
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[idx]

    def defined_at(self, t) -> bool:
        return t >= self.times[0]


@dataclass(frozen=True)
class ConstantSource:
    """External neutron source with fixed emission rate (neutrons/s)."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ParameterError("source rate must be nonnegative")

    def __call__(self, t):
        return self.value

    def defined_at(self, t) -> bool:
        return True


@dataclass(frozen=True)
class PiecewiseConstantSource:
    """Step-function source; same breakpoint discipline as the reactivity."""

    times: tuple
    values: tuple

    def __init__(self, times, values):
        times, values = _check_breakpoints(times, values, "source")
        if np.any(np.asarray(values) < 0):
            raise ParameterError("source values must be nonnegative")
        object.__setattr__(self, "times", tuple(times))
        object.__setattr__(self, "values", tuple(values))

    def __call__(self, t):
        if not self.defined_at(t):
            raise ReactivityDomainError(
                f"source undefined at t={t!r}: first breakpoint is {self.times[0]}"
            )
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[idx]

    def defined_at(self, t) -> bool:
        return t >= self.times[0]


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KineticsParameters:
    """Reduced point-kinetics parameters for m delayed precursor groups.

    Parameters
    ----------
    decay_constants : sequence of float
        Per-group decay constants (1/s), all positive.
    group_fractions : sequence of float
        Per-group delayed-neutron fractions, all nonnegative.
    nu : float
        Mean number of neutrons released per fission.
    gen_time : float
        Neutron generation time (s).
    reactivity : callable
        Reactivity as a function of time.
    source : callable
        External source intensity as a function of time (neutrons/s).

    Attributes
    ----------
    beta_total : float
        Sum of the group fractions.
    """

    decay_constants: tuple
    group_fractions: tuple
    nu: float
    gen_time: float
    reactivity: object
    source: object
    beta_total: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.decay_constants, dtype=float)
        beta = np.asarray(self.group_fractions, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ParameterError("decay_constants must contain at least one group")
        if beta.shape != lam.shape:
            raise ParameterError(
                "group_fractions must match decay_constants in length "
                f"({beta.size} vs {lam.size})"
            )
        if np.any(lam <= 0):
            raise ParameterError("decay_constants must all be positive")
        if np.any(beta < 0):
            raise ParameterError("group_fractions must all be nonnegative")
        if not self.nu > 0:
            raise ParameterError("nu must be positive")
        if not self.gen_time > 0:
            raise ParameterError("gen_time must be positive")
        object.__setattr__(self, "decay_constants", tuple(lam))
        object.__setattr__(self, "group_fractions", tuple(beta))
        object.__setattr__(self, "beta_total", float(beta.sum()))

    @property
    def m(self) -> int:
        """Number of delayed precursor groups."""
        return len(self.decay_constants)

    @property
    def dim(self) -> int:
        """State dimension: neutron density plus one entry per group."""
        return self.m + 1

    @property
    def lam(self) -> np.ndarray:
        return np.asarray(self.decay_constants)

    @property
    def beta(self) -> np.ndarray:
        return np.asarray(self.group_fractions)


class State:
    """Immutable state vector (n, c_1, ..., c_m).

    The neutron density may transiently go negative along SDE sample paths;
    only the event simulator requires nonnegative populations.
    """

    __slots__ = ("_vec",)

    def __init__(self, n, precursors):
        vec = np.concatenate(([float(n)], np.asarray(precursors, dtype=float).ravel()))
        vec.setflags(write=False)
        object.__setattr__(self, "_vec", vec)

    @classmethod
    def from_vector(cls, vec) -> "State":
        vec = np.asarray(vec, dtype=float).ravel()
        if vec.size < 2:
            raise ParameterError("state vector needs at least (n, c_1)")
        return cls(vec[0], vec[1:])

    @property
    def n(self) -> float:
        return float(self._vec[0])

    @property
    def precursors(self) -> np.ndarray:
        return self._vec[1:]

    @property
    def vector(self) -> np.ndarray:
        return self._vec

    def __len__(self):
        return self._vec.size

    def __iter__(self):
        return iter(self._vec)

    def __repr__(self):
        return f"State(n={self.n!r}, precursors={list(self.precursors)!r})"

    def __eq__(self, other):
        if isinstance(other, State):
            return np.array_equal(self._vec, other._vec)
        return NotImplemented

    def __setattr__(self, *args):
        raise AttributeError("State is immutable")


def as_state_vector(x, p: KineticsParameters) -> np.ndarray:
    """Coerce a State or array-like into a validated (m+1,) float array."""
    vec = x.vector if isinstance(x, State) else np.asarray(x, dtype=float).ravel()
    if vec.size != p.dim:
        raise ParameterError(f"state dimension {vec.size} does not match m+1={p.dim}")
    return np.array(vec, dtype=float)


# ---------------------------------------------------------------------------
# drift, diffusion, events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftMatrix:
    """Dense (m+1)x(m+1) drift matrix with the time and reactivity it used."""

    matrix: np.ndarray
    t: float
    rho: float


@dataclass(frozen=True)
class DiffusionMatrix:
    """Dense symmetric (m+1)x(m+1) increment-covariance matrix.

    ``zeta`` is the (0, 0) entry and ``gamma`` the coefficient multiplying the
    neutron density inside it.
    """

    matrix: np.ndarray
    zeta: float
    gamma: float
    t: float


@dataclass(frozen=True)
class EventVector:
    """One elementary event: its kind, group index (transformations only),
    and the (m+1,) state-change vector."""

    kind: str
    group: int
    delta: np.ndarray


EVENT_CAPTURE = "capture"
EVENT_FISSION = "fission"
EVENT_TRANSFORMATION = "transformation"
EVENT_SOURCE = "source"


def drift_matrix(p: KineticsParameters, t: float = 0.0) -> DriftMatrix:
    """Build the drift matrix at time t.

    Row 0: (rho - beta)/l on the diagonal and the decay constants across;
    rows 1..m: beta_i/l in column 0 and -lambda_i on the diagonal.  Column
    sums are (rho/l, 0, ..., 0).
    """
    if not p.reactivity.defined_at(t):
        raise ReactivityDomainError(f"reactivity undefined at t={t!r}")
    rho = float(p.reactivity(t))
    m = p.m
    A = np.zeros((m + 1, m + 1))
    A[0, 0] = (rho - p.beta_total) / p.gen_time
    A[0, 1:] = p.lam
    A[1:, 0] = p.beta / p.gen_time
    idx = np.arange(1, m + 1)
    A[idx, idx] = -p.lam
    A.setflags(write=False)
    return DriftMatrix(matrix=A, t=float(t), rho=rho)


def drift_apply(p: KineticsParameters, states: np.ndarray, t: float) -> np.ndarray:
    """Apply the drift (without source) to a batch of states.

    ``states`` has shape (N, m+1); returns the same shape.  Equivalent to
    multiplying each state by the drift matrix, but O(N m) instead of a
    matrix product.
    """
    if not p.reactivity.defined_at(t):
        raise ReactivityDomainError(f"reactivity undefined at t={t!r}")
    rho = float(p.reactivity(t))
    l = p.gen_time
    n = states[:, 0]
    c = states[:, 1:]
    out = np.empty_like(states)
    out[:, 0] = (rho - p.beta_total) / l * n + c @ p.lam
    out[:, 1:] = np.outer(n, p.beta / l) - c * p.lam
    return out


def diffusion_matrices(p: KineticsParameters, states: np.ndarray, t: float) -> np.ndarray:
    """Diffusion matrices for a batch of states, shape (N, m+1, m+1).

    Entries follow the event-table covariance: the (0, 0) entry is
    gamma*n + sum_i lambda_i c_i + q, the first row/column carry the
    neutron-precursor cross terms, precursor diagonals carry the fission plus
    decay contributions, and off-diagonal precursor pairs carry the shared
    fission yield term.  Exactly symmetric by construction.
    """
    if not p.reactivity.defined_at(t):
        raise ReactivityDomainError(f"reactivity undefined at t={t!r}")
    rho = float(p.reactivity(t))
    q = float(p.source(t))
    l = p.gen_time
    bt = p.beta_total
    beta = p.beta
    lam = p.lam
    nu = p.nu
    gamma = (-1.0 - rho + 2.0 * bt + (1.0 - bt) ** 2 * nu) / l

    states = np.asarray(states, dtype=float)
    N, d = states.shape
    n = states[:, 0]
    lc = states[:, 1:] * lam
    B = np.empty((N, d, d))
    B[:, 0, 0] = gamma * n + lc.sum(axis=1) + q
    a = np.outer(n, (beta / l) * (-1.0 + (1.0 - bt) * nu)) - lc
    B[:, 0, 1:] = a
    B[:, 1:, 0] = a
    cross = (nu / l) * np.outer(beta, beta)
    B[:, 1:, 1:] = cross[None, :, :] * n[:, None, None]
    idx = np.arange(1, d)
    B[:, idx, idx] = np.outer(n, beta**2 * nu / l) + lc
    return B


def diffusion_matrix(p: KineticsParameters, x, t: float = 0.0) -> DiffusionMatrix:
    """Diffusion matrix at a single state; see :func:`diffusion_matrices`."""
    vec = as_state_vector(x, p)
    B = diffusion_matrices(p, vec[None, :], t)[0]
    rho = float(p.reactivity(t))
    gamma = (-1.0 - rho + 2.0 * p.beta_total + (1.0 - p.beta_total) ** 2 * p.nu) / p.gen_time
    B.setflags(write=False)
    return DiffusionMatrix(matrix=B, zeta=float(B[0, 0]), gamma=gamma, t=float(t))


def event_vectors(p: KineticsParameters) -> list:
    """The m+3 elementary events in rate order: capture, fission, one
    transformation per group, source emission."""
    m = p.m
    bt = p.beta_total
    events = []

    delta = np.zeros(m + 1)
    delta[0] = -1.0
    events.append(EventVector(EVENT_CAPTURE, group=-1, delta=delta))

    delta = np.empty(m + 1)
    delta[0] = -1.0 + (1.0 - bt) * p.nu
    delta[1:] = p.beta * p.nu
    events.append(EventVector(EVENT_FISSION, group=-1, delta=delta))

    for i in range(m):
        delta = np.zeros(m + 1)
        delta[0] = 1.0
        delta[1 + i] = -1.0
        events.append(EventVector(EVENT_TRANSFORMATION, group=i, delta=delta))

    delta = np.zeros(m + 1)
    delta[0] = 1.0
    events.append(EventVector(EVENT_SOURCE, group=-1, delta=delta))

    for ev in events:
        ev.delta.setflags(write=False)
    return events


def delta_table(p: KineticsParameters) -> np.ndarray:
    """(m+3, m+1) state change per event, rows in :func:`event_rates` order."""
    return np.array([ev.delta for ev in event_vectors(p)])


def _capture_coefficient(p: KineticsParameters, rho):
    """Capture rate per neutron, (1 - rho - 1/nu)/l."""
    return (-rho + 1.0 - 1.0 / p.nu) / p.gen_time


def _rho_and_source(p: KineticsParameters, t: float):
    if not p.reactivity.defined_at(t):
        raise ReactivityDomainError(f"reactivity undefined at t={t!r}")
    return float(p.reactivity(t)), float(p.source(t))


def event_rates(p: KineticsParameters, X, t=0.0) -> np.ndarray:
    """Event rates (1/s) of one state (m+1,) or a batch (N, m+1), event-major:
    row k of the (m+3,) or (m+3, N) result is event k's rate, in
    event-vector order.

    capture:        ((1 - rho - 1/nu)/l) * n
    fission:        n / (nu l)
    transformation: lambda_i * c_i
    source:         q(t)

    ``t`` is one time or one per state; reactivity and source are evaluated
    once per distinct time.  The rates are raw: a negative population gives
    a negative rate, and so does rho > 1 - 1/nu for capture.  Each caller
    applies its own rule to them (the SDE solvers' roundoff band, the event
    Monte Carlo's clip at zero).
    """
    X = X.vector if isinstance(X, State) else np.asarray(X, dtype=float)
    if X.shape[-1] != p.dim:
        raise ParameterError(f"state dimension {X.shape[-1]} does not match m+1={p.dim}")
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        rho, q = _rho_and_source(p, float(t))
    else:
        times, inverse = np.unique(t, return_inverse=True)
        rho, q = np.array([_rho_and_source(p, s) for s in times])[inverse].T
    n = X[..., 0]
    rates = np.empty((p.m + 3,) + n.shape)
    rates[0] = _capture_coefficient(p, rho) * n
    rates[1] = n / (p.nu * p.gen_time)
    rates[2:-1] = (X[..., 1:] * p.lam).T
    rates[-1] = q
    return rates


def equilibrium_state(p: KineticsParameters, t: float = 0.0, n0: float = None) -> State:
    """Stationary state of the drift flow.

    With ``n0`` given, returns the source-free (critical) equilibrium
    (n0, beta_i n0 / (lambda_i l)), which balances precursor production and
    decay regardless of the current reactivity.  Without ``n0``, solves
    A x = -q e0 for the sourced equilibrium; that system is singular exactly
    when rho = 0, where no finite sourced equilibrium exists.
    """
    if n0 is not None:
        c = p.beta * float(n0) / (p.lam * p.gen_time)
        return State(float(n0), c)
    A = drift_matrix(p, t)
    q = float(p.source(t))
    rhs = np.zeros(p.dim)
    rhs[0] = -q
    x = solve_linear(np.array(A.matrix), rhs)
    return State(x[0], x[1:])
