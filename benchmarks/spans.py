"""Layer spans and counters for the traced benchmark run.

The traced run rebinds, for its duration only, the module-level names
through which one stokin layer calls the next (``HOOKS``) to wrappers that
record a span and call through unchanged.  The package itself is not edited,
so spans sit at layer boundaries: a span's self time is its duration minus
the time covered by spans it caused, and includes any code in between that
has no hook of its own (for ``cli.main``: argument parsing,
``build_parameters``/``build_initial`` and writing the output files).

Counters are read from the return values at the same boundaries, after the
span has ended.
"""

from __future__ import annotations

import collections
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  The span name's prefix is the layer that
# does the work: the callee's module.
HOOKS = (
    ("stokin.cli", "load_scenario", "scenarios.load_scenario"),
    ("stokin.cli", "run_ensemble", "ensemble.run_ensemble"),
    ("stokin.ensemble", "run_sde_paths", "solvers.run_sde_paths"),
    ("stokin.ensemble", "run_mc_paths", "event_mc.run_mc_paths"),
    ("stokin.solvers", "diffusion_matrices", "kinetics.diffusion_matrices"),
    ("stokin.solvers", "drift_apply", "kinetics.drift_apply"),
    ("stokin.solvers", "psd_sqrt_batch", "linalg.psd_sqrt_batch"),
)

# Fixed-step event MC evaluates its rate constants once per shared step plus
# once before the first; counting these calls (no span) gives the step count
# behind ``event_mc.fire_ratio``.
RATE_HOOK = ("stokin.event_mc", "_rate_constants")


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> list:
        return [end - start for _, start, end, _ in self.spans]

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        own = self.durations()
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def wall(self) -> float:
        """Summed duration of the root spans."""
        return sum(d for d, s in zip(self.durations(), self.spans) if s[3] < 0)

    def by_name(self, values) -> dict:
        out = collections.defaultdict(float)
        for v, span in zip(values, self.spans):
            out[span[0]] += v
        return out

    def calls(self) -> collections.Counter:
        return collections.Counter(span[0] for span in self.spans)


def _count_mc(counts, result):
    counts["event_mc.events"] += int(result.event_counts.sum())
    counts["event_mc.halvings"] += len(result.halvings)
    counts["event_mc.negative_captures"] += int(result.negative_captures.sum())


def _count_sde(counts, result):
    counts["solvers.negative_steps"] += int(result.negative_steps.sum())


def _count_psd(counts, result):
    S, _small, hard = result
    counts["linalg.psd_sqrt_matrices"] += len(S)
    counts["linalg.clipped_hard"] += int(hard.sum())


def _count_ensemble(counts, result):
    counts["ensemble.paths"] += result.n_samples + result.failures
    counts["ensemble.failed_paths"] += result.failures


_COUNTERS = {
    "event_mc.run_mc_paths": _count_mc,
    "solvers.run_sde_paths": _count_sde,
    "linalg.psd_sqrt_batch": _count_psd,
    "ensemble.run_ensemble": _count_ensemble,
}


@contextmanager
def _rebound(replacements):
    """Rebind ``(module, attribute) -> wrapper(original)``; restore on exit."""
    saved = []
    try:
        for (mod_name, attr), make in replacements.items():
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


@contextmanager
def traced(tracer: Tracer):
    """Record spans at every hook and the counters above."""
    counts = tracer.counts

    def spanning(name):
        count = _COUNTERS.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                if count is not None:
                    count(counts, result)
                return result

            return wrapper

        return make

    def mc_steps(make_span):
        # shared fixed-mode steps of this call = rate evaluations - 1
        def make(fn):
            inner = make_span(fn)

            def wrapper(p, x0, horizon, cfg, generators, *args, **kwargs):
                before = counts["event_mc.rate_evaluations"]
                result = inner(p, x0, horizon, cfg, generators, *args, **kwargs)
                if cfg.mode == "fixed":
                    steps = counts["event_mc.rate_evaluations"] - before - 1
                    counts["event_mc.fixed_path_steps"] += steps * len(generators)
                return result

            return wrapper

        return make

    def rate_counter(fn):
        def wrapper(*args, **kwargs):
            counts["event_mc.rate_evaluations"] += 1
            return fn(*args, **kwargs)

        return wrapper

    replacements = {(mod, attr): spanning(name) for mod, attr, name in HOOKS}
    key = ("stokin.ensemble", "run_mc_paths")
    replacements[key] = mc_steps(replacements[key])
    replacements[RATE_HOOK] = rate_counter
    with _rebound(replacements):
        yield tracer
