"""Scenario presets and JSON scenario files.

A scenario bundles the kinetics parameters, the initial condition, the
horizon and record grid, per-method solver steps, and Monte Carlo/ensemble
settings.  Everything is stored JSON-native so a scenario round-trips
losslessly through serialization (floats keep their shortest round-trip
representation).

A scenario also builds each run's configuration: :meth:`ScenarioConfig.grid`
gives a method's time grid, :meth:`~ScenarioConfig.mc_config` the event-MC
settings and :meth:`~ScenarioConfig.ensemble_config` a whole ensemble run, so
the command line, the tests and the demos share one mapping.  Construction
checks every section against one table, ``_SHAPE``, of keys and JSON types
(a key set per ``kind``), naming the dotted field at fault; loading then
builds each configuration once, and a builder's refusal names the section.

Presets
-------
``table1``
    One precursor group, constant reactivity -1/3, external source 200/s,
    started at the sourced equilibrium (400, 300).  The originating report
    prints the group fraction as 0.005 but calls (400, 300) equilibrium
    values; only 0.05 makes that hold (0.005 gives (400, 30)), so the preset
    carries 0.05 and this note.  The parameter remains user-settable.
``table2`` / ``table3``
    Six groups, constant reactivity 0.003 / 0.007, source free, started at
    the critical equilibrium scaled to n0=100.  Stiff (generation time 2e-5);
    population fluctuations at this scale routinely undershoot zero, and the
    SDE solvers clip and count the negative event rates.
``linear-rho``
    One group, reactivity ramp 0.25*t, source free, n0=100, generation time
    1e-5.  Crosses prompt criticality near t=0.02 and grows by many decades
    by t=0.1.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .ensemble import EnsembleConfig
from .errors import ParameterError, ScenarioError
from .event_mc import McConfig
from .kinetics import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    LinearReactivity,
    PiecewiseConstantReactivity,
    PiecewiseConstantSource,
    as_state_vector,
    equilibrium_state,
)
from .solvers import TimeGrid

__all__ = ["ScenarioConfig", "PRESETS", "load_scenario", "save_scenario"]

# JSON leaf types as (Python types, label); a JSON boolean is none of them
_NUMBER = ((int, float), "a number")
_STRING = (str, "a string")
_NUMBERS = [_NUMBER]  # a list of numbers
_CONTAINERS = {dict: (dict, "an object"), list: (list, "a list")}  # of a section, a list
_STEPS = {"times": _NUMBERS, "values": _NUMBERS}  # a piecewise-constant schedule

# Each kind of a kinded section as (builder, shape of the section's other
# keys); the builder takes those keys, after the parameters for a state.
_REACTIVITY = {
    "constant": (ConstantReactivity, {"value": _NUMBER}),
    "linear": (LinearReactivity, {"slope": _NUMBER}),
    "piecewise": (PiecewiseConstantReactivity, _STEPS),
}
_SOURCE = {
    "constant": (ConstantSource, {"value": _NUMBER}),
    "piecewise": (PiecewiseConstantSource, _STEPS),
}
_INITIAL = {
    "vector": (lambda p, state: state, {"state": _NUMBERS}),
    "source-free-equilibrium": (lambda p, n0: equilibrium_state(p, n0=n0), {"n0": _NUMBER}),
    "sourced-equilibrium": (lambda p: equilibrium_state(p, t=0.0), {}),
}

# Each section's keys and each leaf's JSON type; a section whose "kind" entry
# is a kind table takes its kind's keys.  Every key is required but those in
# _OPTIONAL, which the builders default.
_SHAPE = {
    "name": _STRING,
    "description": _STRING,
    "parameters": {
        "decay_constants": _NUMBERS, "group_fractions": _NUMBERS,
        "nu": _NUMBER, "gen_time": _NUMBER,
        "reactivity": {"kind": _REACTIVITY},
        "source": {"kind": _SOURCE},
        # older files hold "alpha": null; the capture rate is (1 - rho - 1/nu)/l
        "alpha": (type(None), "null"),
    },
    "initial": {"kind": _INITIAL},
    "horizon": _NUMBER,
    "record_dt": _NUMBER,
    # older files hold "psd_policy": "clamp", the one rule every SDE run follows
    "solver": {"det_dt": _NUMBER, "em_dt": _NUMBER, "pca_dt": _NUMBER, "psd_policy": _STRING},
    "monte_carlo": {"mode": _STRING, "yield_model": _STRING,
                    "dt": ((int, float, type(None)), "a number or null"), "safety": _NUMBER},
    "ensemble": {"min_samples": _NUMBER, "max_samples": _NUMBER, "target_rel_halfwidth": _NUMBER},
    "notes": _STRING,
}
_OPTIONAL = {
    "parameters.alpha", "solver.psd_policy", "ensemble.target_rel_halfwidth",
    "monte_carlo.mode", "monte_carlo.yield_model", "monte_carlo.dt", "monte_carlo.safety",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative scenario: parameters, initial condition, grids, methods."""

    name: str
    description: str
    parameters: dict
    initial: dict
    horizon: float
    record_dt: float
    solver: dict
    monte_carlo: dict
    ensemble: dict
    notes: str = ""

    def __post_init__(self):
        _check_shape(vars(self), _SHAPE)  # dataclasses.replace copies pass it too
        policy = self.solver.get("psd_policy", "clamp")
        if policy != "clamp":
            raise ScenarioError(
                f"scenario field 'solver.psd_policy' is {policy!r}, which no run follows: "
                'every SDE run clips and counts negative event rates; drop the key or set "clamp"'
            )
        for name in ("horizon", "record_dt"):  # an integer file runs and saves as its float twin
            object.__setattr__(self, name, float(getattr(self, name)))

    # -- builders ----------------------------------------------------------

    def build_parameters(self) -> KineticsParameters:
        par = self.parameters
        with self._section("parameters"):
            return KineticsParameters(
                decay_constants=tuple(par["decay_constants"]),
                group_fractions=tuple(par["group_fractions"]),
                nu=par["nu"],
                gen_time=par["gen_time"],
                reactivity=_build(par["reactivity"], _REACTIVITY),
                source=_build(par["source"], _SOURCE),
            )

    def build_initial(self, p: KineticsParameters = None) -> np.ndarray:
        """Initial state as a read-only (m+1,) array."""
        p = p or self.build_parameters()
        with self._section("initial"):
            vec = as_state_vector(_build(self.initial, _INITIAL, p), p)
        vec.setflags(write=False)
        return vec

    def grid(self, method: str, dt: float = None) -> TimeGrid:
        """Time grid of det|em|pca, stepping ``dt`` in place of the solver step
        when given.  For mc it is the record grid, and ``dt`` is instead the
        MC step (see :meth:`mc_config`)."""
        if method not in ("det", "em", "pca", "mc"):
            raise ParameterError(f"unknown grid method {method!r}; expected det|em|pca|mc")
        if method == "mc":
            return TimeGrid(self.horizon, self.record_dt)
        return TimeGrid(self.horizon, self.solver[f"{method}_dt"] if dt is None else dt)

    def record_times(self) -> np.ndarray:
        return self.grid("mc").nodes

    def mc_config(self, mode: str = None, yield_model: str = None, dt: float = None) -> McConfig:
        """The ``monte_carlo`` section as an McConfig, with any given overrides."""
        overrides = {"mode": mode, "yield_model": yield_model, "dt": dt}
        return McConfig(
            **{**self.monte_carlo, **{k: v for k, v in overrides.items() if v is not None}}
        )

    def ensemble_config(
        self,
        method: str,
        seed: int,
        samples: int = None,
        mc: McConfig = None,
        zero_noise: bool = False,
        keep_paths: int = 0,
    ) -> EnsembleConfig:
        """An ensemble run of ``method`` recorded on the record grid.

        ``samples`` fixes the sample count (min = max) in place of the
        ``ensemble`` section's; ``mc`` defaults to :meth:`mc_config`.
        """
        counts = {} if samples is None else {"min_samples": samples, "max_samples": samples}
        return EnsembleConfig(
            method=method,
            master_seed=seed,
            **{**self.ensemble, **counts},
            record_times=tuple(self.record_times()),
            zero_noise=zero_noise,
            mc=self.mc_config() if mc is None else mc,
            keep_sample_paths=keep_paths,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ScenarioError("a scenario file must hold a JSON object")
        spec = {f.name: f for f in fields(cls)}
        missing = {name for name, f in spec.items() if f.default is MISSING} - set(data)
        if missing:
            raise ScenarioError(f"scenario is missing fields: {sorted(missing)}")
        unknown = set(data) - set(spec)
        if unknown:
            raise ScenarioError(f"scenario has unknown fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self):
        """Build every configuration the scenario feeds, so a bad file fails
        at load with a ScenarioError naming its section."""
        p = self.build_parameters()  # raises ScenarioError naming the invariant
        self.build_initial(p)
        with self._section("horizon and record_dt"):
            record = self.record_times()
        for method in ("det", "em", "pca"):
            with self._section(f"solver.{method}_dt"):
                self.grid(method).node_indices(record)
        with self._section("monte_carlo"):
            mc = self.mc_config()
        with self._section("ensemble"):
            self.ensemble_config("mc", 0, mc=mc)

    @contextmanager
    def _section(self, label: str):
        """Re-raise a builder's refusal of a checked section, a value out of
        range, as a ScenarioError naming ``label``."""
        try:
            yield
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"scenario {self.name!r}: {label}: {exc}") from None


def _check_shape(value, shape, where: str = ""):
    """Refuse ``value`` unless it has ``shape`` (a ``_SHAPE`` entry), with a
    ScenarioError naming the dotted field ``where``."""
    types, label = _CONTAINERS.get(type(shape), shape)
    if isinstance(value, bool) or not isinstance(value, types):
        got = json.dumps(value, default=repr)
        raise ScenarioError(f"scenario field {where!r} must be {label}, got {got}")
    if isinstance(shape, list):
        for item in value:
            _check_shape(item, shape[0], where)
    elif isinstance(shape, dict):
        kinds = shape.get("kind")
        if isinstance(kinds, dict):  # one key set per kind
            _check_shape(value.get("kind"), _STRING, f"{where}.kind")
            if value["kind"] not in kinds:
                raise ScenarioError(f"scenario field {where!r} has unknown kind "
                                    f"{value['kind']!r}; expected one of {sorted(kinds)}")
            shape = {"kind": _STRING, **kinds[value["kind"]][1]}
        unknown = set(value) - set(shape)
        if unknown:
            raise ScenarioError(f"scenario field {where!r} has unknown keys {sorted(unknown)}")
        for key in shape:
            field = f"{where}.{key}" if where else key
            if key in value:
                _check_shape(value[key], shape[key], field)
            elif field not in _OPTIONAL:
                raise ScenarioError(f"scenario field {field} missing")


def _build(section: dict, kinds: dict, *args):
    """A checked kinded section's object: its kind's builder called with
    ``args`` and the section's other keys, an integer read as a float."""
    keys = {k: float(v) if type(v) is int else v for k, v in section.items() if k != "kind"}
    return kinds[section["kind"]][0](*args, **keys)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_SIX_GROUP_LAMBDA = [0.0127, 0.0317, 0.115, 0.311, 1.4, 3.87]
_SIX_GROUP_BETA = [0.000266, 0.001491, 0.001316, 0.002849, 0.000896, 0.000182]


def _table1() -> ScenarioConfig:
    return ScenarioConfig(
        name="table1",
        description="one precursor group, step reactivity -1/3, sourced equilibrium start",
        parameters={
            "decay_constants": [0.1],
            "group_fractions": [0.05],
            "nu": 2.5,
            "gen_time": 2.0 / 3.0,
            "reactivity": {"kind": "constant", "value": -1.0 / 3.0},
            "source": {"kind": "constant", "value": 200.0},
        },
        initial={"kind": "vector", "state": [400.0, 300.0]},
        horizon=2.0,
        record_dt=0.1,
        solver={"det_dt": 0.1, "em_dt": 0.001, "pca_dt": 0.001},
        monte_carlo={"mode": "fixed", "yield_model": "fractional", "dt": None, "safety": 0.1},
        ensemble={"min_samples": 10_000, "max_samples": 10_000, "target_rel_halfwidth": 5e-4},
        notes=(
            "The source document lists beta_1=0.005 yet calls x(0)=(400,300) equilibrium "
            "values; the drift equilibrium with 0.005 is (400,30), while 0.05 reproduces "
            "(400,300) exactly, so this preset uses 0.05. Override group_fractions to "
            "study the other reading."
        ),
    )


def _six_group(name, rho, horizon, record_dt, solver, samples, description) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        description=description,
        parameters={
            "decay_constants": list(_SIX_GROUP_LAMBDA),
            "group_fractions": list(_SIX_GROUP_BETA),
            "nu": 2.5,
            "gen_time": 2e-5,
            "reactivity": {"kind": "constant", "value": rho},
            "source": {"kind": "constant", "value": 0.0},
        },
        initial={"kind": "source-free-equilibrium", "n0": 100.0},
        horizon=horizon,
        record_dt=record_dt,
        solver=solver,
        monte_carlo={"mode": "fixed", "yield_model": "fractional", "dt": None, "safety": 0.1},
        ensemble={"min_samples": samples, "max_samples": samples, "target_rel_halfwidth": 5e-4},
        notes=(
            "Population fluctuations are comparable to the mean at n0=100, so SDE paths "
            "undershoot zero routinely; the SDE solvers clip and count their negative event rates."
        ),
    )


def _table2() -> ScenarioConfig:
    return _six_group(
        "table2",
        rho=0.003,
        horizon=0.1,
        record_dt=0.005,
        solver={"det_dt": 0.005, "em_dt": 1e-5, "pca_dt": 1e-3},
        samples=2000,
        description="six groups, prompt subcritical step insertion 0.003, source free",
    )


def _table3() -> ScenarioConfig:
    return _six_group(
        "table3",
        rho=0.007,
        horizon=0.001,
        record_dt=5e-5,
        solver={"det_dt": 5e-5, "em_dt": 1e-5, "pca_dt": 1e-5},
        samples=2000,
        description="six groups, prompt critical step insertion 0.007, source free",
    )


def _linear_rho() -> ScenarioConfig:
    return ScenarioConfig(
        name="linear-rho",
        description="one group, reactivity ramp 0.25*t through prompt critical",
        parameters={
            "decay_constants": [0.1],
            "group_fractions": [0.005],
            "nu": 2.5,
            "gen_time": 1e-5,
            "reactivity": {"kind": "linear", "slope": 0.25},
            "source": {"kind": "constant", "value": 0.0},
        },
        initial={"kind": "source-free-equilibrium", "n0": 100.0},
        horizon=0.1,
        record_dt=0.005,
        solver={"det_dt": 1e-4, "em_dt": 1e-6, "pca_dt": 1e-4},
        monte_carlo={"mode": "exact", "yield_model": "fractional", "dt": None, "safety": 0.1},
        ensemble={"min_samples": 1000, "max_samples": 1000, "target_rel_halfwidth": 5e-4},
        notes=(
            "Grows by tens of decades over the horizon; event Monte Carlo is only "
            "practical on truncated horizons for this ramp."
        ),
    )


PRESETS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "linear-rho": _linear_rho,
}


def load_scenario(name_or_path: str) -> ScenarioConfig:
    """Load a preset by name or a scenario JSON file by path."""
    if name_or_path in PRESETS:
        cfg = PRESETS[name_or_path]()
        cfg.validate()
        return cfg
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(
            f"{name_or_path!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            f"nor a readable UTF-8 file: {exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error in {name_or_path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    return ScenarioConfig.from_dict(data)


def save_scenario(cfg: ScenarioConfig, path: str):
    """Write a scenario as JSON (lossless float round trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")
