import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stokin import (
    euler_maruyama_solve,
    load_scenario,
    mc_trajectory,
    run_ensemble,
    save_scenario,
    stochastic_pca_solve,
)
from stokin.cli import main


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_deterministic_trajectory_schema_and_rerun(tmp_path):
    code, out = run_cli(["solve", "--scenario", "table2", "--method", "det"], tmp_path, "a")
    assert code == 0
    path = out / "table2_det_trajectory.csv"
    rows = read_csv(path)
    assert rows[0] == ["t", "n"] + [f"c{i}" for i in range(1, 7)]
    assert len(rows) == 22  # header + 21 record times
    first = rows[1]
    assert float(first[0]) == 0.0 and float(first[1]) == 100.0
    blob = path.read_bytes()
    code, out2 = run_cli(["solve", "--scenario", "table2", "--method", "det"], tmp_path, "b")
    assert (out2 / "table2_det_trajectory.csv").read_bytes() == blob


def test_solve_stochastic_rerun_identical(tmp_path):
    args = ["solve", "--scenario", "table1", "--method", "em", "--seed", "5"]
    _, out1 = run_cli(args, tmp_path, "a")
    _, out2 = run_cli(args, tmp_path, "b")
    p = "table1_em_trajectory.csv"
    assert (out1 / p).read_bytes() == (out2 / p).read_bytes()
    # a different seed changes the file
    _, out3 = run_cli(args[:-1] + ["6"], tmp_path, "c")
    assert (out3 / p).read_bytes() != (out1 / p).read_bytes()


@pytest.mark.parametrize("method", ["em", "pca", "mc"])
def test_solve_rows_are_the_library_path(method, tmp_path):
    code, out = run_cli(
        ["solve", "--scenario", "table3", "--method", method, "--seed", "1"], tmp_path, "a"
    )
    assert code == 0
    rows = read_csv(out / f"table3_{method}_trajectory.csv")
    assert len(rows) == 22
    assert rows[0][0] == "t"
    # the rows are the single path at --seed's Generator, taken at the record
    # times, bit for bit
    scn = load_scenario("table3")
    p = scn.build_parameters()
    x0, record, rng = scn.build_initial(p), scn.record_times(), np.random.default_rng(1)
    if method == "mc":
        traj = mc_trajectory(p, x0, scn.horizon, scn.mc_config(), rng, record)
        idx = slice(None)
    else:
        solver = euler_maruyama_solve if method == "em" else stochastic_pca_solve
        grid = scn.grid(method)
        traj = solver(p, x0, grid, rng)
        idx = grid.node_indices(record)
    written = np.array(rows[1:], dtype=float)
    assert np.array_equal(written, np.column_stack([traj.times[idx], traj.states[idx]]))


def test_ensemble_outputs_and_reproducibility(tmp_path):
    args = [
        "ensemble", "--scenario", "table3", "--method", "pca",
        "--samples", "150", "--seed", "42",
    ]
    code, out1 = run_cli(args, tmp_path, "a")
    assert code == 0
    csv_path = out1 / "table3_pca_summary.csv"
    rows = read_csv(csv_path)
    assert rows[0] == ["t", "component", "mean", "std", "ci_halfwidth", "n_samples"]
    comps = {r[1] for r in rows[1:]}
    assert comps == {"n", "c1", "c2", "c3", "c4", "c5", "c6", "c_sum"}
    data = json.loads((out1 / "table3_pca_summary.json").read_text())
    assert data["n_samples"] == 150
    assert data["method"] == "stochastic-pca"
    assert data["master_seed"] == 42

    _, out2 = run_cli(args, tmp_path, "b")
    for name in ("table3_pca_summary.csv", "table3_pca_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_ensemble_zero_noise_flag(tmp_path):
    code, out = run_cli(
        [
            "ensemble", "--scenario", "table1", "--method", "em",
            "--samples", "20", "--seed", "0", "--zero-noise",
        ],
        tmp_path,
        "a",
    )
    assert code == 0
    rows = read_csv(out / "table1_em_summary.csv")
    stds = [float(r[3]) for r in rows[1:]]
    assert all(s == 0.0 for s in stds)


def test_reproduce_table1_layout(tmp_path):
    code, out = run_cli(
        ["reproduce", "--table", "1", "--samples", "120", "--seed", "3"], tmp_path, "a"
    )
    assert code == 0
    rows = read_csv(out / "table1_results.csv")
    assert rows[0] == ["quantity", "method", "mean", "std"]
    pairs = [(r[0], r[1]) for r in rows[1:]]
    methods = {"monte-carlo", "stochastic-pca", "euler-maruyama", "deterministic"}
    expected = {(q, m) for q in ("n(2)", "c1(2)") for m in methods}
    assert set(pairs) == expected
    assert len(pairs) == len(set(pairs))  # each pair exactly once
    det = {r[0]: r for r in rows[1:] if r[1] == "deterministic"}
    # the stated system is started at its equilibrium: exact values 400 / 300
    assert float(det["n(2)"][2]) == pytest.approx(400.0, rel=1e-9)
    assert float(det["c1(2)"][2]) == pytest.approx(300.0, rel=1e-9)
    assert det["n(2)"][3] == ""  # no spread column for the deterministic row


def test_plotdata_layout(tmp_path):
    code, out = run_cli(
        [
            "plotdata", "--scenario", "table3", "--method", "pca",
            "--samples", "80", "--seed", "9",
        ],
        tmp_path,
        "a",
    )
    assert code == 0
    rows = read_csv(out / "table3_pca_plotdata.csv")
    assert rows[0] == ["t", "mean", "std", "sample_1", "sample_2", "reference"]
    assert len(rows) == 22
    for r in rows[1:]:
        assert r[5] == ""  # reference slot stays empty for user-supplied data
        float(r[1]), float(r[3]), float(r[4])
    # the two sample paths are distinct realizations
    assert any(r[3] != r[4] for r in rows[1:])


@pytest.mark.parametrize("cap_from", ["flag", "file"])
def test_plotdata_below_two_samples_refused_before_the_run(cap_from, tmp_path, capsys):
    # the cap is known before the run: it used to run the ensemble, make
    # --out and then fail with a bare StokinError
    if cap_from == "flag":
        args = ["plotdata", "--scenario", "table1", "--method", "em", "--samples", "1"]
    else:
        scn = load_scenario("table1")
        path = tmp_path / "cap1.json"
        save_scenario(replace(scn, ensemble={**scn.ensemble, "min_samples": 1, "max_samples": 1}), path)
        args = ["plotdata", "--scenario", str(path), "--method", "em"]
    code, out = run_cli(args, tmp_path, "a")
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert "--samples" in payload["message"]
    assert not out.exists()


def test_error_is_machine_readable(tmp_path, capsys):
    code = main(["solve", "--scenario", "missing.json", "--method", "det",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ScenarioError"
    assert "missing.json" in payload["message"]


@pytest.mark.parametrize(
    "scenario, out, error",
    [
        # a directory, and a file that is not UTF-8 text
        ("{tmp}", "{tmp}/out", "ScenarioError"),
        ("{tmp}/latin1.json", "{tmp}/out", "ScenarioError"),
        # --out naming an existing file, and a path below a file
        ("table1", "{tmp}/latin1.json", "FileExistsError"),
        ("table1", "{tmp}/latin1.json/out", "NotADirectoryError"),
    ],
    ids=["scenario-directory", "scenario-not-utf8", "out-is-a-file", "out-below-a-file"],
)
def test_path_errors_are_machine_readable(scenario, out, error, tmp_path, capsys):
    # each of these printed a traceback
    (tmp_path / "latin1.json").write_bytes('{"name": "r\u00e9acteur"}'.encode("latin-1"))
    code = main(["solve", "--scenario", scenario.format(tmp=tmp_path), "--method", "det",
                 "--out", out.format(tmp=tmp_path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == error
    assert str(tmp_path) in payload["message"]


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--scenario", "table1", "--method", "det"],
        ["solve", "--scenario", "table1", "--method", "em"],
        ["solve", "--scenario", "table1", "--method", "pca"],
        ["solve", "--scenario", "table1", "--method", "mc"],
        ["ensemble", "--scenario", "table1", "--method", "pca", "--samples", "4000"],
        ["reproduce", "--table", "1"],
        ["plotdata", "--scenario", "table3", "--method", "mc"],
    ],
    ids=["solve-det", "solve-em", "solve-pca", "solve-mc", "ensemble", "reproduce", "plotdata"],
)
def test_bad_out_fails_before_the_run(args, tmp_path, capsys, monkeypatch):
    # the output directory is made first: an --out naming a file fails
    # without running the engine, not after the whole computation
    def engine(*a, **k):
        raise AssertionError("the engine ran before --out was checked")

    for name in ("run_ensemble", "deterministic_solve", "euler_maruyama_solve",
                 "stochastic_pca_solve", "mc_trajectory"):
        monkeypatch.setattr(f"stokin.cli.{name}", engine)
    target = tmp_path / "a-file"
    target.write_text("")
    assert main(args + ["--out", str(target)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "FileExistsError"
    assert str(target) in payload["message"]


@pytest.mark.parametrize("field", ["horizon", "dt"])
def test_integer_numbers_in_a_file_run_as_floats(field, tmp_path):
    # an empty start whose source switches on at 0.2 s: the fixed-mode MC step
    # starts at the horizon, or at monte_carlo.dt, and halves; an integer step
    # array truncated 1 * 0.5 to 0 and froze every path at switch-on
    data = load_scenario("table1").to_dict()
    data["initial"] = {"kind": "vector", "state": [0.0, 0.0]}
    switched = {"kind": "piecewise", "times": [0.0, 0.2], "values": [0.0, 200.0]}
    data["parameters"]["source"] = switched
    data["horizon"] = 1.0
    outputs = []
    for value in (1, 1.0):
        section = data if field == "horizon" else data["monte_carlo"]
        section[field] = value
        path = tmp_path / f"{field}_{value!r}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / f"out_{value!r}"
        assert main(["solve", "--scenario", str(path), "--method", "mc", "--seed", "7",
                     "--out", str(out)]) == 0
        assert main(["ensemble", "--scenario", str(path), "--method", "mc", "--samples", "20",
                     "--seed", "3", "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


def test_solve_rejects_record_times_off_the_grid(tmp_path, capsys):
    # table1 records every 0.1 s; with --dt 0.04 the record time 0.1 is no
    # grid node, which solve refuses as ensemble does
    code, out = run_cli(
        ["solve", "--scenario", "table1", "--method", "em", "--dt", "0.04"], tmp_path, "a"
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert "not a grid node" in payload["message"]
    assert not (out / "table1_em_trajectory.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["ensemble", "--scenario", "table3", "--method", "pca", "--samples", "0"],
        ["solve", "--scenario", "table1", "--method", "em", "--dt", "0"],
        ["ensemble", "--scenario", "table1", "--method", "mc", "--dt", "0"],
        ["reproduce", "--table", "1", "--samples", "5", "--mc-samples", "0"],
    ],
    ids=["samples", "dt", "mc-dt", "mc-samples"],
)
def test_zero_is_a_value_not_a_default(args, tmp_path, capsys):
    # 0 reaches the validators instead of falling back to the preset's value
    code, _ = run_cli(args, tmp_path, "a")
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"


@pytest.mark.parametrize("command", ["solve", "ensemble"])
def test_negative_seed_refused(command, tmp_path, capsys):
    # a negative seed used to end in a ValueError traceback
    args = [command, "--scenario", "table1", "--method", "em", "--seed", "-1"]
    code, out = run_cli(args, tmp_path, "a")
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert "seed" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["ensemble", "--scenario", "table1", "--method", "em", "--samples", "0"], "--samples"),
        (["plotdata", "--scenario", "table1", "--method", "em", "--samples", "0"], "--samples"),
        (["reproduce", "--table", "1", "--mc-samples", "0"], "--mc-samples"),
    ],
    ids=["ensemble", "plotdata", "reproduce"],
)
def test_sample_count_below_one_refused(args, flag, tmp_path, capsys):
    # the refusal used to name the config fields min_samples and max_samples,
    # not the flag or the value given
    code, out = run_cli(args, tmp_path, "a")
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert payload["message"] == f"{flag} must be at least 1, got 0"
    assert not out.exists()


def test_out_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("STOKIN_OUT_DIR", str(target))
    code = main(["solve", "--scenario", "table1", "--method", "det"])
    assert code == 0
    assert (target / "table1_det_trajectory.csv").exists()


@pytest.mark.parametrize("command", ["ensemble", "solve", "plotdata"])
def test_zero_noise_refused_for_mc(command, tmp_path, capsys):
    # the event MC has no diffusion term: the flag used to be ignored and a
    # noisy result was written
    args = [command, "--scenario", "table1", "--method", "mc", "--seed", "1", "--zero-noise"]
    if command != "solve":
        args += ["--samples", "20"]
    code, out = run_cli(args, tmp_path, "a")
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert "zero" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["ensemble", "--method", "em", "--mode", "exact", "--samples", "5"], "--mode"),
        (["ensemble", "--method", "em", "--yield", "integer", "--samples", "5"], "--yield"),
        (["plotdata", "--method", "pca", "--mode", "fixed", "--samples", "5"], "--mode"),
        (["solve", "--method", "det", "--mode", "exact"], "--mode"),
        (["solve", "--method", "pca", "--yield", "fractional"], "--yield"),
        (["solve", "--method", "det", "--zero-noise"], "--zero-noise"),
        (["solve", "--method", "mc", "--mode", "exact", "--dt", "0.5"], "exact mode"),
        (["ensemble", "--method", "mc", "--mode", "exact", "--dt", "0.5", "--samples", "5"],
         "exact mode"),
    ],
    ids=["ensemble-em-mode", "ensemble-em-yield", "plotdata-pca-mode", "solve-det-mode",
         "solve-pca-yield", "solve-det-zero-noise", "solve-mc-exact-dt", "ensemble-mc-exact-dt"],
)
def test_flags_the_method_would_ignore_are_refused(args, flag, tmp_path, capsys):
    # these flags used to be dropped silently: the run wrote the same files
    # as one without them
    code, out = run_cli(args[:1] + ["--scenario", "table1"] + args[1:], tmp_path, "a")
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert flag in payload["message"]
    assert not out.exists()


def test_sde_ensemble_step_override_ignores_the_mc_preset(tmp_path):
    # linear-rho's MC preset is exact, which takes no step: --dt is the pca
    # step here and must not reach the MC configuration
    code, out = run_cli(
        ["ensemble", "--scenario", "linear-rho", "--method", "pca", "--dt", "1e-3",
         "--samples", "5", "--seed", "3"],
        tmp_path,
        "a",
    )
    assert code == 0
    assert json.loads((out / "linear-rho_pca_summary.json").read_text())["n_samples"] == 5


@pytest.mark.parametrize("command", ["ensemble", "plotdata"])
@pytest.mark.parametrize(
    "method, flags",
    [("em", ["--dt", "0.002"]), ("mc", ["--mode", "exact"])],
    ids=["em-dt", "mc-exact"],
)
def test_cli_runs_the_library_config(command, method, flags, tmp_path):
    # the command line builds its run from the scenario's own builders and
    # adds nothing: its output is the library run of the same configs
    seed, samples = 4, 30
    code, out = run_cli(
        [command, "--scenario", "table1", "--method", method, "--seed", str(seed),
         "--samples", str(samples)] + flags,
        tmp_path,
        "a",
    )
    assert code == 0
    scn = load_scenario("table1")
    p = scn.build_parameters()
    opts = dict(zip(flags[::2], flags[1::2]))
    dt = float(opts["--dt"]) if "--dt" in opts else None
    mc = scn.mc_config(opts.get("--mode"), None, dt)
    keep = 2 if command == "plotdata" else 0
    cfg = scn.ensemble_config(method, seed, samples, mc, keep_paths=keep)
    summary = run_ensemble(p, scn.build_initial(p), scn.grid(method, dt), cfg)
    if command == "ensemble":
        data = json.loads((out / f"table1_{method}_summary.json").read_text())
        assert data["n_samples"] == samples
        assert data["times"] == summary.times.tolist()
        assert data["mean"] == summary.mean.tolist()
        assert data["std"] == summary.std.tolist()
    else:
        rows = read_csv(out / f"table1_{method}_plotdata.csv")[1:]
        expect = [summary.times, summary.mean[:, 0], summary.std[:, 0],
                  summary.sample_paths[0][:, 0], summary.sample_paths[1][:, 0]]
        assert [[float(v) for v in r[:5]] for r in rows] == np.array(expect).T.tolist()


@pytest.mark.parametrize("method", ["em", "pca"])
def test_overflowing_solve_prints_one_json_error(method, tmp_path):
    # conftest.overflow_params as a scenario file: the path overflows, and
    # numpy's overflow warnings on the way must not reach stderr, which
    # holds the JSON error alone; a fresh interpreter shows warnings as the
    # command line would
    data = load_scenario("table1").to_dict()
    data["parameters"].update(
        group_fractions=[0.005],
        gen_time=1e-3,
        reactivity={"kind": "constant", "value": 0.5},
        source={"kind": "constant", "value": 0.0},
    )
    data["initial"] = {"kind": "vector", "state": [1.0, 0.0]}
    data["solver"]["em_dt"] = 0.01
    data["horizon"] = 4.0
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parents[1] / "src")
    search = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "stokin", "solve", "--scenario", str(path),
         "--method", method, "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=search),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1, result.stderr
    payload = json.loads(result.stderr)
    assert payload["error"] == "SolverError"
    assert "the state overflowed" in payload["message"]
