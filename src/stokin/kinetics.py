"""Problem definition for stochastic point kinetics.

This module holds the reduced reactor parameters (decay constants, delayed
fractions, generation time, fission yield), time-dependent reactivity and
source functions, and the constructors for the pieces of the Ito system.
Every quantity is a plain float ndarray:

* the state, (m+1,): neutron density plus one precursor concentration per
  delayed group (:func:`equilibrium_state`),
* the drift matrix of the linear mean dynamics, (m+1, m+1),
* the state-dependent diffusion (increment-covariance) matrix, (m+1, m+1),
* the elementary event table of the underlying birth/death/transformation
  process (capture, fission, precursor decay, source emission): its
  state-change vectors, (m+3, m+1) (:func:`delta_table`), and its rates
  (:func:`event_rates`).

:func:`event_rates` is the package's one rate law: the SDE solvers build
their drift and noise from it, and the event Monte Carlo draws its events
from its kernel, ``_event_rates_into``, with the coefficients bound in one
call for one time or for one time per path.  The drift/diffusion pair and
the event table describe the same process: the rate-weighted sum of the
event vectors reproduces the drift applied to the state, and the
rate-weighted sum of their outer products reproduces the diffusion matrix.  The closed forms :func:`drift_matrix` and
:func:`diffusion_matrices` are kept as the oracles of those identities,
which the test suite exercises.

Reactivity and source are the package's coefficient types, three
reactivities and two sources; :class:`KineticsParameters` refuses any other.
Each takes one time or an array of times: a constant returns its value
either way, the others one value per time.  Each owns its domain: a
piecewise one raises ReactivityDomainError, naming the first time before its
first breakpoint; the others hold for all times.  Every parameter and
coefficient must be finite; NaN or inf is a ParameterError naming the field.
Every run starts at t = 0, so :class:`KineticsParameters` evaluates both
coefficients there once and refuses a schedule that starts later.

The parameter and coefficient types are immutable after construction; the
arrays returned for a single state, matrix or table are read-only; the
functions are pure.
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
    "drift_matrix",
    "drift_apply",
    "diffusion_matrix",
    "diffusion_matrices",
    "delta_table",
    "event_rates",
    "equilibrium_state",
]


# ---------------------------------------------------------------------------
# time-dependent coefficient functions
# ---------------------------------------------------------------------------

def _require_finite(what, values):
    """Refuse NaN or +-inf in ``values`` with a ParameterError naming ``what``."""
    if not np.isfinite(values).all():
        raise ParameterError(f"{what} must be finite, got {np.asarray(values).tolist()!r}")


@dataclass(frozen=True)
class ConstantReactivity:
    """Reactivity held at a fixed value for all times; returns that value
    for one time or an array of times."""

    value: float

    def __post_init__(self):
        _require_finite("reactivity value", self.value)

    def __call__(self, t):
        return self.value


@dataclass(frozen=True)
class LinearReactivity:
    """Reactivity ramp: value(t) = slope * t, elementwise for an array t."""

    slope: float

    def __post_init__(self):
        _require_finite("reactivity slope", self.slope)

    def __call__(self, t):
        return self.slope * t


@dataclass(frozen=True)
class _StepFunction:
    """The step function behind both piecewise coefficients, one value per
    time of an array t; ``_label`` names the coefficient in error messages."""

    times: tuple
    values: tuple

    def __init__(self, times, values):
        what = self._label
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ParameterError(f"{what}: breakpoints must be a non-empty 1-d sequence")
        if values.shape != times.shape:
            raise ParameterError(f"{what}: breakpoints and values must have equal length")
        _require_finite(f"{what}: breakpoints", times)
        _require_finite(f"{what}: values", values)
        if not np.all(np.diff(times) > 0):
            raise ParameterError(f"{what}: breakpoints must be strictly increasing")
        object.__setattr__(self, "times", tuple(times))
        object.__setattr__(self, "values", tuple(values))
        # the arrays every call searches and gathers from
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_values", values)

    def __call__(self, t):
        if not (t >= self._times[0]).all():  # NaN included
            first = np.ravel(t)[np.flatnonzero(~np.greater_equal(t, self._times[0]))[0]]
            raise ReactivityDomainError(
                f"{self._label} undefined at t={float(first)!r}: "
                f"first breakpoint is {self.times[0]}"
            )
        return self._values[self._times.searchsorted(t, side="right") - 1]


class PiecewiseConstantReactivity(_StepFunction):
    """Step function: value i holds on [times[i], times[i+1]); the last value
    holds from times[-1] onward.  Evaluation before the first breakpoint is
    undefined and raises ReactivityDomainError.
    """

    _label = "reactivity"


@dataclass(frozen=True)
class ConstantSource:
    """External neutron source with fixed emission rate (neutrons/s); returns
    that rate for one time or an array of times."""

    value: float

    def __post_init__(self):
        _require_finite("source value", self.value)
        if self.value < 0:
            raise ParameterError("source rate must be nonnegative")

    def __call__(self, t):
        return self.value


class PiecewiseConstantSource(_StepFunction):
    """Step-function source (neutrons/s), all values nonnegative; same
    breakpoint discipline as the reactivity."""

    _label = "source"

    def __init__(self, times, values):
        super().__init__(times, values)
        if np.any(np.asarray(self.values) < 0):
            raise ParameterError("source values must be nonnegative")


_REACTIVITY_TYPES = (ConstantReactivity, LinearReactivity, PiecewiseConstantReactivity)
_SOURCE_TYPES = (ConstantSource, PiecewiseConstantSource)


# ---------------------------------------------------------------------------
# parameters
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
    reactivity : ConstantReactivity, LinearReactivity or PiecewiseConstantReactivity
        Reactivity as a function of time.
    source : ConstantSource or PiecewiseConstantSource
        External source intensity as a function of time (neutrons/s).

    Any other reactivity or source, a plain callable included, is refused
    with a ParameterError naming the field, and so is a NaN or infinite
    entry in any field.  Each coefficient raises
    ReactivityDomainError when evaluated outside its domain; both are
    evaluated once at t = 0, where every run starts, so a schedule whose
    first breakpoint lies later is refused here.

    Attributes
    ----------
    beta_total : float
        Sum of the group fractions.
    lam, beta : ndarray
        The decay constants and group fractions as read-only (m,) arrays.
    """

    decay_constants: tuple
    group_fractions: tuple
    nu: float
    gen_time: float
    reactivity: object
    source: object
    beta_total: float = field(init=False)
    lam: np.ndarray = field(init=False, compare=False, repr=False)
    beta: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lam = np.array(self.decay_constants, dtype=float)
        beta = np.array(self.group_fractions, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ParameterError("decay_constants must contain at least one group")
        if beta.shape != lam.shape:
            raise ParameterError(
                "group_fractions must match decay_constants in length "
                f"({beta.size} vs {lam.size})"
            )
        for name, value in (("decay_constants", lam), ("group_fractions", beta),
                            ("nu", self.nu), ("gen_time", self.gen_time)):
            _require_finite(name, value)
        if np.any(lam <= 0):
            raise ParameterError("decay_constants must all be positive")
        if np.any(beta < 0):
            raise ParameterError("group_fractions must all be nonnegative")
        if not self.nu > 0:
            raise ParameterError("nu must be positive")
        if not self.gen_time > 0:
            raise ParameterError("gen_time must be positive")
        for name, kinds in (("reactivity", _REACTIVITY_TYPES), ("source", _SOURCE_TYPES)):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                expected = ", ".join(k.__name__ for k in kinds)
                raise ParameterError(
                    f"{name} must be one of {expected}; got {type(value).__name__}"
                )
            value(0.0)  # raises ReactivityDomainError for a schedule starting later
        object.__setattr__(self, "decay_constants", tuple(lam))
        object.__setattr__(self, "group_fractions", tuple(beta))
        object.__setattr__(self, "beta_total", float(beta.sum()))
        for name, arr in (("lam", lam), ("beta", beta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        """Number of delayed precursor groups."""
        return len(self.decay_constants)

    @property
    def dim(self) -> int:
        """State dimension: neutron density plus one entry per group."""
        return self.m + 1


def as_state_vector(x, p: KineticsParameters) -> np.ndarray:
    """Coerce an array-like into a validated (m+1,) float array (a copy) of
    finite entries."""
    vec = np.asarray(x, dtype=float).ravel()
    if vec.size != p.dim:
        raise ParameterError(f"state dimension {vec.size} does not match m+1={p.dim}")
    if not np.isfinite(vec).all():
        raise ParameterError(f"state entries must be finite, got {vec.tolist()}")
    return np.array(vec, dtype=float)


# ---------------------------------------------------------------------------
# drift, diffusion, events
# ---------------------------------------------------------------------------

def drift_matrix(p: KineticsParameters, t: float = 0.0) -> np.ndarray:
    """Read-only (m+1, m+1) drift matrix at time t.

    Row 0: (rho - beta)/l on the diagonal and the decay constants across;
    rows 1..m: beta_i/l in column 0 and -lambda_i on the diagonal.  Column
    sums are (rho/l, 0, ..., 0).
    """
    rho = float(p.reactivity(t))
    m = p.m
    A = np.zeros((m + 1, m + 1))
    A[0, 0] = (rho - p.beta_total) / p.gen_time
    A[0, 1:] = p.lam
    A[1:, 0] = p.beta / p.gen_time
    idx = np.arange(1, m + 1)
    A[idx, idx] = -p.lam
    A.setflags(write=False)
    return A


def drift_apply(p: KineticsParameters, states: np.ndarray, t: float) -> np.ndarray:
    """Apply the drift (without source) to a batch of states.

    ``states`` has shape (N, m+1); returns the same shape.  Equivalent to
    multiplying each state by the drift matrix, but O(N m) instead of a
    matrix product.
    """
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


def diffusion_matrix(p: KineticsParameters, x, t: float = 0.0) -> np.ndarray:
    """Read-only diffusion matrix at a single state; see
    :func:`diffusion_matrices`.  Its (0, 0) entry is the neutron-density
    variance rate zeta = gamma*n + sum_i lambda_i c_i + q, with
    gamma = (-1 - rho + 2 beta + (1 - beta)^2 nu)/l."""
    vec = as_state_vector(x, p)
    B = diffusion_matrices(p, vec[None, :], t)[0]
    B.setflags(write=False)
    return B


def delta_table(p: KineticsParameters) -> np.ndarray:
    """Read-only (m+3, m+1) state change per elementary event, rows in
    :func:`event_rates` order: capture, fission, one transformation
    (precursor decay) per group, source emission."""
    m = p.m
    D = np.zeros((m + 3, m + 1))
    D[0, 0] = -1.0
    D[1, 0] = -1.0 + (1.0 - p.beta_total) * p.nu
    D[1, 1:] = p.beta * p.nu
    D[2:, 0] = 1.0
    idx = np.arange(m)
    D[2 + idx, 1 + idx] = -1.0
    D.setflags(write=False)
    return D


def _rate_coefficients(p: KineticsParameters, t):
    """The rate law's coefficients at one time t, or one per time of an
    array t (a constant coefficient stays one value): the capture rate per
    neutron (1 - rho - 1/nu)/l, nu*l, the decay constants as an (m, 1)
    column and the source q."""
    rho = p.reactivity(t)
    return (-rho + 1.0 - 1.0 / p.nu) / p.gen_time, p.nu * p.gen_time, p.lam[:, None], p.source(t)


def _event_rates_into(out: np.ndarray, X: np.ndarray, cap, nu_l, lam, q) -> np.ndarray:
    """Write the event rates of component-major states X, (m+1, N), into
    ``out``, (m+3, N), from the coefficients of :func:`_rate_coefficients`;
    ``cap`` and ``q`` are one value or one per state.  This is the rate law
    itself: :func:`event_rates` and the event Monte Carlo both call it."""
    n = X[0]
    np.multiply(cap, n, out=out[0])
    np.divide(n, nu_l, out=out[1])
    np.multiply(X[1:], lam, out=out[2:-1])
    out[-1] = q
    return out


def event_rates(p: KineticsParameters, X, t: float = 0.0) -> np.ndarray:
    """Event rates (1/s) of one state (m+1,) or a batch (N, m+1), event-major:
    row k of the (m+3,) or (m+3, N) result is event k's rate, in
    :func:`delta_table` row order.

    capture:        ((1 - rho - 1/nu)/l) * n
    fission:        n / (nu l)
    transformation: lambda_i * c_i
    source:         q(t)

    Reactivity and source are evaluated once, at time ``t``.  The rates are
    raw: a negative population gives a negative rate, and so does
    rho > 1 - 1/nu for capture.  Each caller applies its own rule to them
    (the SDE solvers' roundoff band, the event Monte Carlo's clip at zero).
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != p.dim:
        raise ParameterError(f"state dimension {X.shape[-1]} does not match m+1={p.dim}")
    if np.ndim(t):
        raise ParameterError("event_rates takes one time t, not one per state")
    states = X.reshape(-1, p.dim).T
    coefs = _rate_coefficients(p, float(t))
    rates = _event_rates_into(np.empty((p.m + 3, states.shape[1])), states, *coefs)
    return rates.reshape((p.m + 3,) + X.shape[:-1])


def equilibrium_state(p: KineticsParameters, t: float = 0.0, n0: float = None) -> np.ndarray:
    """Stationary state of the drift flow, a read-only (m+1,) array.

    With ``n0`` given, returns the source-free (critical) equilibrium
    (n0, beta_i n0 / (lambda_i l)), which balances precursor production and
    decay regardless of the current reactivity.  Without ``n0``, solves
    A x = -q e0 for the sourced equilibrium; that system is singular exactly
    when rho = 0, where no finite sourced equilibrium exists.
    """
    if n0 is not None:
        x = np.concatenate(([float(n0)], p.beta * float(n0) / (p.lam * p.gen_time)))
    else:
        A = drift_matrix(p, t)
        rhs = np.zeros(p.dim)
        rhs[0] = -float(p.source(t))
        x = solve_linear(A, rhs)
    x.setflags(write=False)
    return x
