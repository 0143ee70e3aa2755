import json
import re

import pytest

from stokin import (
    PRESETS,
    ParameterError,
    ScenarioError,
    equilibrium_state,
    load_scenario,
    save_scenario,
)

from conftest import SIX_GROUP_BETA, SIX_GROUP_LAMBDA


def test_preset_names():
    assert set(PRESETS) == {"table1", "table2", "table3", "linear-rho"}


def test_table1_preset_values_and_discrepancy_note():
    scn = load_scenario("table1")
    p = scn.build_parameters()
    assert p.group_fractions == (0.05,)
    assert p.decay_constants == (0.1,)
    assert p.nu == 2.5
    assert p.gen_time == pytest.approx(2.0 / 3.0, rel=0)
    assert p.reactivity(5.0) == pytest.approx(-1.0 / 3.0, rel=0)
    assert p.source(0.0) == 200.0
    assert "0.005" in scn.notes  # documents the source value it corrects
    x0 = scn.build_initial(p)
    assert x0.tolist() == [400.0, 300.0]
    with pytest.raises(ValueError):
        x0[0] = 1.0  # read-only, as the equilibrium starts are
    # the preset start is the sourced equilibrium
    assert equilibrium_state(p) == pytest.approx(x0, rel=1e-12)


def test_table2_preset_values():
    scn = load_scenario("table2")
    p = scn.build_parameters()
    assert p.decay_constants == SIX_GROUP_LAMBDA
    assert p.group_fractions == SIX_GROUP_BETA
    assert p.beta_total == pytest.approx(0.007, rel=1e-12)
    assert p.gen_time == 2e-5
    assert p.source(0.0) == 0.0
    assert p.reactivity(0.0) == 0.003
    assert scn.horizon == 0.1
    x0 = scn.build_initial(p)
    assert x0[0] == 100.0


def test_table3_preset_values():
    scn = load_scenario("table3")
    p = scn.build_parameters()
    assert p.reactivity(0.0) == 0.007
    assert scn.horizon == 0.001
    assert scn.solver["psd_policy"] == "clamp"


def test_linear_rho_preset():
    scn = load_scenario("linear-rho")
    p = scn.build_parameters()
    assert p.reactivity(0.1) == pytest.approx(0.025, rel=1e-15)  # slope 0.25
    assert scn.horizon == 0.1
    assert p.gen_time == 1e-5
    x0 = scn.build_initial(p)
    assert x0 == pytest.approx([100.0, 5e5], rel=1e-14)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_round_trip_identity(name, tmp_path):
    scn = load_scenario(name)
    path = tmp_path / f"{name}.json"
    save_scenario(scn, str(path))
    loaded = load_scenario(str(path))
    assert loaded == scn
    # and a second trip produces identical bytes
    path2 = tmp_path / f"{name}_2.json"
    save_scenario(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_validation_names_offending_field(tmp_path):
    scn = load_scenario("table1")
    data = scn.to_dict()
    data["parameters"] = dict(data["parameters"], decay_constants=[-0.1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="decay_constants"):
        load_scenario(str(path))


def test_alpha_null_loads_and_alpha_value_is_rejected(tmp_path):
    # files saved while the capture ratio alpha was a parameter hold
    # "alpha": null, which still loads; a value is refused, not ignored
    data = load_scenario("table1").to_dict()
    assert "alpha" not in data["parameters"]
    path = tmp_path / "old.json"
    data["parameters"] = dict(data["parameters"], alpha=None)
    path.write_text(json.dumps(data))
    assert load_scenario(str(path)).build_parameters().nu == 2.5
    data["parameters"]["alpha"] = 0.41
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="parameters.alpha"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "dropped, named",
    [(("min_samples",), "min_samples"), (("max_samples",), "max_samples"),
     (("min_samples", "max_samples", "target_rel_halfwidth"), "min_samples")],
)
def test_ensemble_sample_counts_required(dropped, named, tmp_path):
    data = load_scenario("table1").to_dict()
    data["ensemble"] = {k: v for k, v in data["ensemble"].items() if k not in dropped}
    path = tmp_path / "nosamples.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=f"ensemble.{named} missing"):
        load_scenario(str(path))


@pytest.mark.parametrize("em_dt", [0.04, 0.003])
def test_solver_step_must_hit_every_record_time(em_dt, tmp_path):
    # 0.04 divides the horizon 2 but misses the record time 0.1; 0.003 does
    # not divide the horizon at all
    data = load_scenario("table1").to_dict()
    data["solver"] = dict(data["solver"], em_dt=em_dt)
    path = tmp_path / "offgrid.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="solver.em_dt"):
        load_scenario(str(path))


@pytest.mark.parametrize("coefficient", ["reactivity", "source"])
def test_schedule_starting_after_zero_is_refused_at_load(coefficient, tmp_path):
    # every run starts at t=0; such a file used to load and fail only when run
    data = load_scenario("table1").to_dict()
    value = data["parameters"][coefficient]["value"]
    data["parameters"][coefficient] = {"kind": "piecewise", "times": [0.5], "values": [value]}
    path = tmp_path / "late.json"
    path.write_text(json.dumps(data))
    message = f"parameters: {coefficient} undefined at t=0.0: first breakpoint is 0.5"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(str(path))


@pytest.mark.parametrize("record_dt", [0.0, -0.1])
def test_record_dt_must_be_positive(record_dt, tmp_path):
    # zero used to divide by zero in validation, and a negative step loaded
    # and gave an empty record grid
    data = load_scenario("table1").to_dict()
    data["record_dt"] = record_dt
    path = tmp_path / "badrecord.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="record_dt"):
        load_scenario(str(path))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "oops\n}')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(str(path))


def test_missing_field_reported(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"name": "x", "description": ""}))
    with pytest.raises(ScenarioError, match="missing fields"):
        load_scenario(str(path))


def test_unknown_preset_or_path():
    with pytest.raises(ScenarioError, match="preset"):
        load_scenario("table9")


def test_record_times_and_grids():
    scn = load_scenario("table2")
    rec = scn.record_times()
    assert rec[0] == 0.0
    assert rec[-1] == pytest.approx(0.1, rel=1e-15)
    assert len(rec) == 21
    g = scn.grid("em")
    assert g.dt == 1e-5
    assert g.t_end == 0.1
    assert scn.grid("em", 2e-5).dt == 2e-5
    # for mc the grid is the record grid; a step override is the MC step
    assert scn.grid("mc", 2e-5).dt == scn.record_dt
    assert scn.grid("mc").nodes.tolist() == rec.tolist()
    mc = scn.mc_config()
    assert mc.mode == "fixed" and mc.yield_model == "fractional"
    assert mc.dt is None and mc.safety == 0.1
    mc = scn.mc_config("exact", "integer")
    assert (mc.mode, mc.yield_model, mc.dt, mc.safety) == ("exact", "integer", None, 0.1)
    assert scn.mc_config(dt=1e-6).dt == 1e-6


@pytest.mark.parametrize("name", ["table1", "table3"])
def test_ensemble_config_carries_the_scenario(name, tmp_path):
    data = load_scenario(name).to_dict()
    # an integral float (7.0) loads as the integer count
    data["ensemble"] = {"min_samples": 3, "max_samples": 7.0, "target_rel_halfwidth": 0.25}
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(data))
    scn = load_scenario(str(path))
    cfg = scn.ensemble_config("pca", 11)
    assert (cfg.min_samples, cfg.max_samples, cfg.target_rel_halfwidth) == (3, 7, 0.25)
    assert (cfg.method, cfg.master_seed) == ("pca", 11)
    assert cfg.record_times == tuple(scn.record_times())
    assert cfg.psd_policy == data["solver"]["psd_policy"]
    assert cfg.mc == scn.mc_config()
    assert not cfg.zero_noise and cfg.keep_sample_paths == 0
    cfg = scn.ensemble_config("em", 11, 5, scn.mc_config("exact"), True, 2)
    assert (cfg.min_samples, cfg.max_samples) == (5, 5)
    assert cfg.mc.mode == "exact" and cfg.zero_noise and cfg.keep_sample_paths == 2
    # without a psd_policy the solvers' strict default applies
    del data["solver"]["psd_policy"]
    path.write_text(json.dumps(data))
    assert load_scenario(str(path)).ensemble_config("em", 0).psd_policy == "strict"


def _set(data, dotted, value):
    *parents, key = dotted.split(".")
    for part in parents:
        data = data[part]
    data[key] = value


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("horizon", "two", "horizon"),
        ("ensemble.min_samples", "many", "ensemble"),
        ("ensemble.min_samples", 2.7, "ensemble"),
        ("ensemble.batch_size", 8, "ensemble"),
        ("solver.em_dt", "0.001", "solver.em_dt"),
        ("monte_carlo.safty", 0.1, "monte_carlo"),
        ("monte_carlo.safety", "0.1", "monte_carlo"),
        ("solver", [], "solver"),
        ("parameters", None, "parameters"),
        ("parameters.nu", "2.5", "parameters"),
        ("initial.state", "ab", "initial"),
        ("horizon_s", 2.0, "horizon_s"),
        ("horizon", float("inf"), "horizon"),
        ("solver.em_dt", float("inf"), "solver.em_dt"),
        ("monte_carlo.dt", float("inf"), "monte_carlo"),
    ],
)
def test_wrong_typed_or_unknown_values_are_scenario_errors(field, value, named, tmp_path):
    # each of these used to crash with a bare ValueError or TypeError, or to
    # load with the value truncated or ignored
    data = load_scenario("table1").to_dict()
    _set(data, field, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=named):
        load_scenario(str(path))


@pytest.mark.parametrize("method", ["euler-maruyama", "psd_policy"])
def test_grid_rejects_unknown_method(method):
    with pytest.raises(ParameterError, match=method):
        load_scenario("table1").grid(method)
