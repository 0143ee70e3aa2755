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
index (``path_seed``), making summaries reproducible run to run; each batch's
generators are seeded in one vectorized pass over its path indices, which
gives the same streams as ``path_seed``.  The ensemble stops once
the relative 95% confidence half-width of every tracked component at the
final record time falls below the target, or at the sample-count cap; the
summary's ``stop_reason`` records which, and ``converged`` is read from it.
The summary holds its statistics as (record time, component) arrays, with
columns found by ``component_index``; the command line writes them as
rows.  Failed paths (an SDE state that overflowed) are discarded and
counted; more than 1% of attempts failing aborts the run, and so do
statistics that overflow.
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

__all__ = ["EnsembleConfig", "EnsembleSummary", "run_ensemble"]

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
        for key in ("min_samples", "max_samples", "batch_size", "keep_sample_paths"):
            n = getattr(self, key)  # JSON's integral floats (2000.0) count as integers
            if not (isinstance(n, numbers.Integral) or isinstance(n, float) and n.is_integer()):
                raise ParameterError(f"{key} must be an integer, got {n!r}")
            object.__setattr__(self, key, int(n))
        if not (1 <= self.min_samples <= self.max_samples):
            raise ParameterError("need 1 <= min_samples <= max_samples")
        if self.max_samples >= 2**32:  # each path index is one uint32 spawn-key word
            raise ParameterError(f"max_samples must be below 2**32, got {self.max_samples}")
        if not 0 < self.target_rel_halfwidth < np.inf:
            raise ParameterError("target_rel_halfwidth must be positive and finite")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be positive")
        if self.keep_sample_paths < 0:
            raise ParameterError("keep_sample_paths must be nonnegative")
        if self.zero_noise and self.method == "mc":
            raise ParameterError("zero_noise applies to the SDE methods, not to the event MC")


@dataclass
class EnsembleSummary:
    """Per-record-time, per-component sample statistics.

    Components are the state entries plus the precursor sum; ``std`` is the
    unbiased (N-1) sample standard deviation of the population across paths,
    ``ci_halfwidth`` is 1.96 * std / sqrt(N), and ``method`` is em|pca|mc.
    ``diagnostics`` holds each of the engine's own per-path counters
    (:class:`~stokin.solvers.PathsResult` ``counters``), summed over every
    attempted path.
    """

    times: np.ndarray
    component_names: list
    mean: np.ndarray
    std: np.ndarray
    ci_halfwidth: np.ndarray
    n_samples: int
    stop_reason: str
    failures: int
    method: str
    master_seed: int
    sample_paths: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """Whether the stopping rule met its target before the sample cap."""
        return self.stop_reason == "target"

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _seed_states(master_seed: int, first: int, n: int) -> np.ndarray:
    """``path_seed(master_seed, i).generate_state(4, np.uint64)`` for the
    paths i = first .. first+n-1, as an (n, 4) array.

    The same mixing as numpy's SeedSequence, with the path index as the one
    spawn-key word (``EnsembleConfig`` keeps indices below 2**32).  The
    master seed's words are mixed into the pool once, as Python ints; the
    index word is then mixed in across all paths at once, in uint32 arrays,
    whose products wrap as the mask does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        r = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return r ^ r >> _XSHIFT

    entropy = []  # the master seed as little-endian uint32 words, at least one
    rest = int(master_seed)
    while True:
        entropy.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    # a spawn key pads the seed's words to the pool size
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    index = np.arange(first, first + n, dtype=np.uint32)
    pool = [mix(w, hashmix(index)) for w in pool]

    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for j in range(2 * _POOL_SIZE):
        value = pool[j % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        state[:, j] = value ^ value >> _XSHIFT
    # word pairs read as little-endian uint64, as numpy does
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _path_generators(master_seed: int, first: int, n: int) -> list:
    """``[default_rng(path_seed(master_seed, first + i)) for i in range(n)]``,
    seeded from one :func:`_seed_states` pass instead of n SeedSequences."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _State(ISeedSequence):
        # answers PCG64's one request, generate_state(4, np.uint64), with a
        # precomputed row
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return [Generator(PCG64(_State(row))) for row in _seed_states(master_seed, first, n)]


class _Welford:
    """Vector Welford accumulator, updated one sample at a time."""

    def __init__(self, shape):
        self.count = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, value):
        self.count += 1  # an overflow leaves inf or nan, checked after each batch
        with np.errstate(over="ignore", invalid="ignore"):
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

    names = ["n"] + [f"c{i + 1}" for i in range(d - 1)] + ["c_sum"]
    acc = _Welford((len(record_times), d + 1))
    kept = []
    attempted = 0
    failures = 0
    diagnostics = {}
    stop_reason = None

    while attempted < cfg.max_samples:
        # land exactly on min_samples so the first convergence check (and the
        # zero-noise shortcut) happens there
        if attempted < cfg.min_samples:
            n_new = min(cfg.batch_size, cfg.min_samples - attempted)
        else:
            n_new = min(cfg.batch_size, cfg.max_samples - attempted)
        gens = _path_generators(cfg.master_seed, attempted, n_new)
        if method == "mc":
            res = run_mc_paths(p, x0, grid.t_end, cfg.mc, gens, record_times)
        else:
            res = run_sde_paths(
                p,
                x0,
                grid,
                method,
                gens,
                record_times=record_times,
                zero_noise=cfg.zero_noise,
            )
        for name, counts in res.counters.items():
            diagnostics[name] = diagnostics.get(name, 0) + int(counts.sum())

        survivors = res.states[~res.failed]
        batch_aug = _augment(survivors)
        for i in range(len(survivors)):  # no loop variable keeps batch_aug alive
            acc.add(batch_aug[i])
        kept += [s.copy() for s in survivors[: cfg.keep_sample_paths - len(kept)]]
        failures += n_new - len(survivors)
        attempted += n_new
        times = res.record_times
        del res, survivors, batch_aug, gens  # the next batch is the only one alive

        if failures > 0.01 * attempted:
            raise EnsembleFailureError(
                f"{failures} of {attempted} paths failed (> 1%); "
                "the scenario is not solvable by this method"
            )
        bad = np.argwhere(~(np.isfinite(acc.mean) & np.isfinite(acc.m2)))
        if bad.size:
            r, c = bad[0]
            raise EnsembleFailureError(
                f"the sample statistics overflowed at t={times[r]:g} in component "
                f"{names[c]}: the surviving paths' states are too large to average"
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
        times=times,
        component_names=names,
        mean=acc.mean.copy(),
        std=std,
        ci_halfwidth=_CONFIDENCE_FACTOR * std / np.sqrt(n),
        n_samples=n,
        stop_reason=stop_reason,
        failures=failures,
        method=method,
        master_seed=cfg.master_seed,
        sample_paths=np.stack(kept) if kept else None,
        diagnostics=diagnostics,
    )
