import csv
import json

import numpy as np
import pytest

from stokin import NoiseSource, load_scenario, mc_trajectory, run_ensemble
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


def test_solve_mc_writes_record_grid(tmp_path):
    code, out = run_cli(
        ["solve", "--scenario", "table3", "--method", "mc", "--seed", "1"], tmp_path, "a"
    )
    assert code == 0
    rows = read_csv(out / "table3_mc_trajectory.csv")
    assert len(rows) == 22
    assert rows[0][0] == "t"
    # the rows are the single path's record-time states, bit for bit
    scn = load_scenario("table3")
    p = scn.build_parameters()
    traj = mc_trajectory(
        p, scn.build_initial(p), scn.horizon, scn.mc_config(), NoiseSource(1), scn.record_times()
    )
    written = np.array(rows[1:], dtype=float)
    assert np.array_equal(written, np.column_stack([traj.times, traj.states]))


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


def test_error_is_machine_readable(tmp_path, capsys):
    code = main(["solve", "--scenario", "missing.json", "--method", "det",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ScenarioError"
    assert "missing.json" in payload["message"]


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
        (["solve", "--method", "mc", "--mode", "exact", "--dt", "0.5"], "exact mode"),
        (["ensemble", "--method", "mc", "--mode", "exact", "--dt", "0.5", "--samples", "5"],
         "exact mode"),
    ],
    ids=["ensemble-em-mode", "ensemble-em-yield", "plotdata-pca-mode", "solve-det-mode",
         "solve-pca-yield", "solve-mc-exact-dt", "ensemble-mc-exact-dt"],
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
