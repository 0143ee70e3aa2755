"""Scenario presets and JSON scenario files.

A scenario bundles the kinetics parameters, the initial condition, the
horizon and record grid, per-method solver steps, and Monte Carlo/ensemble
settings.  Everything is stored JSON-native so a scenario round-trips
losslessly through serialization (floats keep their shortest round-trip
representation).

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
    the SDE solvers run with the clamping PSD policy because population
    fluctuations at this scale routinely undershoot zero.
``linear-rho``
    One group, reactivity ramp 0.25*t, source free, n0=100, generation time
    1e-5.  Crosses prompt criticality near t=0.02 and grows by many decades
    by t=0.1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScenarioError
from .event_mc import McConfig
from .kinetics import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    LinearReactivity,
    PiecewiseConstantReactivity,
    PiecewiseConstantSource,
    State,
    equilibrium_state,
)
from .solvers import TimeGrid

__all__ = ["ScenarioConfig", "PRESETS", "load_scenario", "save_scenario"]


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

    # -- builders ----------------------------------------------------------

    def build_parameters(self) -> KineticsParameters:
        par = self.parameters
        try:
            reactivity = _function_from_dict(par["reactivity"], kind="reactivity")
            source = _function_from_dict(par["source"], kind="source")
            return KineticsParameters(
                decay_constants=tuple(par["decay_constants"]),
                group_fractions=tuple(par["group_fractions"]),
                nu=par["nu"],
                gen_time=par["gen_time"],
                reactivity=reactivity,
                source=source,
                alpha=par.get("alpha"),
            )
        except KeyError as exc:
            raise ScenarioError(f"scenario {self.name!r}: missing parameter field {exc}")
        except ParameterError as exc:
            raise ScenarioError(f"scenario {self.name!r}: {exc}")

    def build_initial(self, p: KineticsParameters = None) -> State:
        p = p or self.build_parameters()
        init = self.initial
        kind = init.get("kind")
        if kind == "vector":
            vec = np.asarray(init["state"], dtype=float)
            if vec.size != p.dim:
                raise ScenarioError(
                    f"scenario {self.name!r}: initial state has {vec.size} entries, "
                    f"expected {p.dim}"
                )
            return State.from_vector(vec)
        if kind == "source-free-equilibrium":
            return equilibrium_state(p, n0=init["n0"])
        if kind == "sourced-equilibrium":
            return equilibrium_state(p, t=0.0)
        raise ScenarioError(f"scenario {self.name!r}: unknown initial kind {kind!r}")

    def grid(self, method: str) -> TimeGrid:
        """Solver grid for one of det|em|pca (mc uses the record grid)."""
        key = {"det": "det_dt", "em": "em_dt", "pca": "pca_dt", "mc": None}.get(method, method)
        dt = self.record_dt if key is None else self.solver[key]
        return TimeGrid(0.0, self.horizon, dt)

    def record_times(self) -> np.ndarray:
        n = int(round(self.horizon / self.record_dt))
        return self.record_dt * np.arange(n + 1)

    def mc_config(self, record=True) -> McConfig:
        mc = self.monte_carlo
        return McConfig(
            mode=mc.get("mode", "fixed"),
            yield_model=mc.get("yield_model", "fractional"),
            dt=mc.get("dt"),
            safety=mc.get("safety", 0.1),
            record_times=tuple(self.record_times()) if record else None,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "parameters": self.parameters,
            "initial": self.initial,
            "horizon": self.horizon,
            "record_dt": self.record_dt,
            "solver": self.solver,
            "monte_carlo": self.monte_carlo,
            "ensemble": self.ensemble,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        required = {
            "name",
            "description",
            "parameters",
            "initial",
            "horizon",
            "record_dt",
            "solver",
            "monte_carlo",
            "ensemble",
        }
        missing = required - set(data)
        if missing:
            raise ScenarioError(f"scenario is missing fields: {sorted(missing)}")
        cfg = cls(
            name=data["name"],
            description=data["description"],
            parameters=data["parameters"],
            initial=data["initial"],
            horizon=float(data["horizon"]),
            record_dt=float(data["record_dt"]),
            solver=data["solver"],
            monte_carlo=data["monte_carlo"],
            ensemble=data["ensemble"],
            notes=data.get("notes", ""),
        )
        cfg.validate()
        return cfg

    def validate(self):
        p = self.build_parameters()  # raises ScenarioError naming the invariant
        self.build_initial(p)
        if not self.horizon > 0:
            raise ScenarioError(f"scenario {self.name!r}: horizon must be positive")
        ratio = self.horizon / self.record_dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ScenarioError(
                f"scenario {self.name!r}: record_dt must divide the horizon"
            )
        for key in ("det_dt", "em_dt", "pca_dt"):
            if key not in self.solver:
                raise ScenarioError(f"scenario {self.name!r}: solver.{key} missing")
            if not self.solver[key] > 0:
                raise ScenarioError(f"scenario {self.name!r}: solver.{key} must be positive")
        if self.solver.get("psd_policy", "strict") not in ("strict", "clamp"):
            raise ScenarioError(f"scenario {self.name!r}: unknown solver.psd_policy")
        self.mc_config()
        ens = self.ensemble
        if not 1 <= int(ens.get("min_samples", 1)) <= int(ens.get("max_samples", 1)):
            raise ScenarioError(
                f"scenario {self.name!r}: ensemble min_samples must not exceed max_samples"
            )
        if not float(ens.get("target_rel_halfwidth", 5e-4)) > 0:
            raise ScenarioError(
                f"scenario {self.name!r}: ensemble.target_rel_halfwidth must be positive"
            )


def _function_from_dict(spec: dict, kind: str):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{kind} spec must be a dict with a 'kind' field")
    k = spec["kind"]
    try:
        if kind == "reactivity":
            if k == "constant":
                return ConstantReactivity(float(spec["value"]))
            if k == "linear":
                return LinearReactivity(float(spec["slope"]))
            if k == "piecewise":
                return PiecewiseConstantReactivity(spec["times"], spec["values"])
        else:
            if k == "constant":
                return ConstantSource(float(spec["value"]))
            if k == "piecewise":
                return PiecewiseConstantSource(spec["times"], spec["values"])
    except KeyError as exc:
        raise ScenarioError(f"{kind} spec missing field {exc}")
    raise ScenarioError(f"unknown {kind} kind {k!r}")


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
            "alpha": None,
            "reactivity": {"kind": "constant", "value": -1.0 / 3.0},
            "source": {"kind": "constant", "value": 200.0},
        },
        initial={"kind": "vector", "state": [400.0, 300.0]},
        horizon=2.0,
        record_dt=0.1,
        solver={"det_dt": 0.1, "em_dt": 0.001, "pca_dt": 0.001, "psd_policy": "strict"},
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
            "alpha": None,
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
            "undershoot zero routinely; the clamp policy clips their negative event rates."
        ),
    )


def _table2() -> ScenarioConfig:
    return _six_group(
        "table2",
        rho=0.003,
        horizon=0.1,
        record_dt=0.005,
        solver={"det_dt": 0.005, "em_dt": 1e-5, "pca_dt": 1e-3, "psd_policy": "clamp"},
        samples=2000,
        description="six groups, prompt subcritical step insertion 0.003, source free",
    )


def _table3() -> ScenarioConfig:
    return _six_group(
        "table3",
        rho=0.007,
        horizon=0.001,
        record_dt=5e-5,
        solver={"det_dt": 5e-5, "em_dt": 1e-5, "pca_dt": 1e-5, "psd_policy": "clamp"},
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
            "alpha": None,
            "reactivity": {"kind": "linear", "slope": 0.25},
            "source": {"kind": "constant", "value": 0.0},
        },
        initial={"kind": "source-free-equilibrium", "n0": 100.0},
        horizon=0.1,
        record_dt=0.005,
        solver={"det_dt": 1e-4, "em_dt": 1e-6, "pca_dt": 1e-4, "psd_policy": "clamp"},
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
    except FileNotFoundError:
        raise ScenarioError(
            f"{name_or_path!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor a readable file"
        )
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
