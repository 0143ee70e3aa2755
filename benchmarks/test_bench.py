"""Self-test of the benchmark: ``python3 -m pytest benchmarks -q``.

Runs the real measurement code on reduced path counts, so it finishes in
well under a minute; it is not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import spans  # noqa: E402

TINY = {
    "table3-sde": bench.Workload("table3", ("em", "pca"), 64),
    "table1-mc-exact": bench.Workload("table1", ("mc",), 64, ("--mode", "exact")),
    "table3-mc": bench.Workload("table3", ("mc",), 8),
}


@pytest.fixture(scope="module")
def traced_runs():
    return {
        name: bench.run_workload(name, bench.DEFAULT_SEED, 0, trace=True, w=w)
        for name, w in TINY.items()
    }


def test_self_times_nest_and_sum_to_wall():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        tracer.call("b", leaf)
        tracer.call("b", leaf)

    tracer.call("root", lambda: tracer.call("a", middle))
    tracer.call("root", leaf)
    own = tracer.self_times()
    assert min(own) >= 0
    assert sum(own) == pytest.approx(tracer.wall(), rel=1e-12)
    assert tracer.calls() == {"root": 2, "a": 1, "b": 2}
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, -1]


def test_traced_run_checks_pass(traced_runs):
    for name, record in traced_runs.items():
        assert record["correct"], (name, record["checks"])
        checks = record["checks"]
        # one untraced and one traced repeat wrote byte-identical files
        assert checks["digests_identical_across_repeats"]
        assert [p["traced"] for p in record["passes"]] == [False, True]
        assert checks["self_times_non_negative"] and checks["self_times_sum_to_wall"]
        assert set(record["metrics"]) == set(bench.PER_LAYER)


def test_layer_attribution(traced_runs):
    def value(name, metric):
        return traced_runs[name]["metrics"][metric]["value"]

    assert value("table3-sde", "event_mc.calls") == 0
    assert value("table3-sde", "linalg.psd_sqrt_matrices") == 64 * 100 * 2
    assert value("table3-sde", "kinetics.calls") == 100 * 2 + 100  # EM: diffusion + drift
    for name in ("table1-mc-exact", "table3-mc"):
        for metric in ("kinetics.calls", "linalg.calls", "solvers.calls"):
            assert value(name, metric) == 0
        assert value(name, "event_mc.events") > 0
    assert value("table1-mc-exact", "event_mc.fire_ratio") == 0.0
    assert 0.05 < value("table3-mc", "event_mc.fire_ratio") < 0.2


def test_untraced_run_reports_end_to_end_metrics():
    record = bench.run_workload(
        "table1-mc-exact", bench.DEFAULT_SEED, 0, trace=False, w=TINY["table1-mc-exact"]
    )
    assert record["correct"], record["checks"]
    assert set(record["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert len(record["setup_samples_s"]) == bench.SETUP_PROBES
    prov = record["provenance"]
    assert prov["machine"]["nproc"] >= 1
    assert set(prov["versions"]) == {"python", "numpy", "scipy", "stokin"}
    assert record["spec"]["master_seed"] == bench.DEFAULT_SEED


def test_benchmark_json_matches_the_script():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(bench.METRIC_NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "table3-sde", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
