"""Ensemble throughput benchmark for stokin.

Each workload runs seeded ensembles through the command-line entry point
users call, ``stokin.cli.main(["ensemble", ...])``, in this one process
(single-process, BLAS threads pinned to 1 unless set in the environment).

    python3 benchmarks/run.py --workload table3-sde --seed 2014 --seconds 30 --trace 0
    python3 benchmarks/run.py --all            # every workload, untraced and traced

A run repeats the workload's ensembles, all at the one master seed, for
about ``--seconds`` (at least once).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced repeats and
reports per-layer self times and counters (see ``spans.py``).  Every run
checks its outputs (final-time means of ``n`` and ``c_sum`` within 4
standard errors of an exact reference; identical file digests across
repeats, traced or not) and writes a result file with provenance to
``benchmarks/results/``.  The last line of standard output is one JSON
object; the exit code is 1 when a check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

# The kernels are small batched LAPACK/matmul calls that gain nothing from
# BLAS threads; one thread keeps repeat runs steady on a shared machine.
# Set here, before stokin (and with it numpy) is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
sys.path.insert(0, str(SRC))

# Claims are made on DEFAULT_SEED; recheck them on HELD_OUT_SEED, which is
# not to be used while a change is being written or tuned.
DEFAULT_SEED = 2014
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 30

Z_LIMIT = 4.0  # final-time mean vs exact reference, in standard errors
GATED_COMPONENTS = ("n", "c_sum")
SETUP_PROBES = 7
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Workload:
    scenario: str
    methods: tuple  # one ensemble per CLI --method, run in this order
    samples: int  # paths per ensemble (--samples)
    flags: tuple = ()  # extra CLI flags for every ensemble


# Sizes are fixed here; the seed changes only the random draws.  Why each
# workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    "table3-sde": Workload("table3", ("em", "pca"), 2000),
    "table1-sde": Workload("table1", ("em", "pca"), 2000),
    "table3-mc": Workload("table3", ("mc",), 200),  # the preset's fixed-step mode
    "table1-mc-exact": Workload("table1", ("mc",), 2000, ("--mode", "exact")),
}

END_TO_END = {
    "paths_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_path_frac": "fraction",
}

PER_LAYER = {
    "cli.self_s": "s",
    "scenarios.load_s": "s",
    "ensemble.self_s": "s",
    "ensemble.paths": "count",
    "ensemble.failed_paths": "count",
    "solvers.run_sde_paths_s": "s",
    "solvers.self_s": "s",
    "solvers.calls": "count",
    "solvers.negative_steps": "count",
    "kinetics.diffusion_matrices_s": "s",
    "kinetics.drift_apply_s": "s",
    "kinetics.calls": "count",
    "linalg.psd_sqrt_batch_s": "s",
    "linalg.psd_sqrt_matrices": "count",
    "linalg.clipped_hard": "count",
    "linalg.calls": "count",
    "event_mc.run_mc_paths_s": "s",
    "event_mc.calls": "count",
    "event_mc.events": "count",
    "event_mc.halvings": "count",
    "event_mc.negative_captures": "count",
    "event_mc.fire_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# per-layer self-time metrics: together they cover every span exactly once
SELF_TIME_METRICS = (
    "cli.self_s",
    "scenarios.load_s",
    "ensemble.self_s",
    "solvers.self_s",
    "kinetics.diffusion_matrices_s",
    "kinetics.drift_apply_s",
    "linalg.psd_sqrt_batch_s",
    "event_mc.run_mc_paths_s",
)


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

def run_cli(argv, tracer=None):
    """Call ``stokin.cli.main``; return (exit code, wall seconds, printed paths)."""
    from stokin import cli

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        if tracer is None:
            start = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - start
        else:
            root = len(tracer.spans)
            rc = tracer.call("cli.main", cli.main, argv)
            _, start, end, _ = tracer.spans[root]
            wall = end - start
    return rc, wall, printed.getvalue().split()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ensemble_argv(w: Workload, method, seed, out_dir, samples=None):
    return [
        "ensemble", "--scenario", w.scenario, "--method", method,
        "--samples", str(samples or w.samples), "--seed", str(seed), "--out", str(out_dir),
        *w.flags,
    ]


def references(w: Workload, seed, out_dir) -> dict:
    """Exact final-time means of ``n`` and ``c_sum`` per method.

    EM/PCA: the same scheme with ``--zero-noise``; the scheme is affine in
    the state and the noise has mean zero, so that path is the exact mean.
    MC: the deterministic solve (``solve --method det``).
    """
    refs = {}
    for method in w.methods:
        if method == "mc":
            argv = ["solve", "--scenario", w.scenario, "--method", "det", "--out", str(out_dir)]
        else:
            argv = ensemble_argv(w, method, seed, out_dir, samples=1) + ["--zero-noise"]
        rc, _, files = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"reference run failed: {argv}")
        if method == "mc":
            with open(files[0], newline="", encoding="utf-8") as fh:
                last = [float(v) for v in list(csv.reader(fh))[-1]]
            refs[method] = {"t": last[0], "n": last[1], "c_sum": math.fsum(last[2:])}
        else:
            summary = json.loads(Path(files[1]).read_text(encoding="utf-8"))
            final = summary["mean"][-1]
            names = summary["component_names"]
            refs[method] = {"t": summary["times"][-1]}
            refs[method].update({c: final[names.index(c)] for c in GATED_COMPONENTS})
    return refs


def z_scores(summary: dict, ref: dict) -> dict:
    """(final-time sample mean - reference) / standard error, per gated component."""
    names = summary["component_names"]
    out = {}
    for comp in GATED_COMPONENTS:
        j = names.index(comp)
        diff = summary["mean"][-1][j] - ref[comp]
        se = summary["std"][-1][j] / math.sqrt(summary["n_samples"])
        out[comp] = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
    return out


def run_pass(w: Workload, seed, out_dir, refs: dict, tracer=None) -> dict:
    """Run each of the workload's ensembles once."""
    ensembles = []
    for method in w.methods:
        rc, wall, files = run_cli(ensemble_argv(w, method, seed, out_dir), tracer)
        ens = {"method": method, "rc": rc, "wall_s": wall, "paths": w.samples}
        if rc == 0:
            ens["digests"] = {Path(f).name: sha256(f) for f in files}
            summary = json.loads(Path(files[-1]).read_text(encoding="utf-8"))
            ens["failed_paths"] = summary["failures"]
            ens["z"] = z_scores(summary, refs[method])
            ens["final_time_matches_reference"] = math.isclose(
                summary["times"][-1], refs[method]["t"], rel_tol=1e-12
            )
        else:
            ens["digests"] = {}
            ens["failed_paths"] = w.samples  # a failed call counts all its paths failed
        ensembles.append(ens)
    return {
        "wall_s": sum(e["wall_s"] for e in ensembles),
        "paths": sum(e["paths"] for e in ensembles),
        "ensembles": ensembles,
        "digests": {k: v for e in ensembles for k, v in e["digests"].items()},
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def setup_probe(scenario: str) -> float:
    """Set-up time of one fresh process (see ``setup_probe.py``)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), scenario]
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout)


def layer_metrics(tracer: spans.Tracer) -> dict:
    own = tracer.by_name(tracer.self_times())
    total = tracer.by_name(tracer.durations())
    calls = tracer.calls()
    c = tracer.counts
    fixed_steps = c["event_mc.fixed_path_steps"]
    return {
        "cli.self_s": own["cli.main"],
        "scenarios.load_s": own["scenarios.load_scenario"],
        "ensemble.self_s": own["ensemble.run_ensemble"],
        "ensemble.paths": c["ensemble.paths"],
        "ensemble.failed_paths": c["ensemble.failed_paths"],
        "solvers.run_sde_paths_s": total["solvers.run_sde_paths"],
        "solvers.self_s": own["solvers.run_sde_paths"],
        "solvers.calls": calls["solvers.run_sde_paths"],
        "solvers.negative_steps": c["solvers.negative_steps"],
        "kinetics.diffusion_matrices_s": own["kinetics.diffusion_matrices"],
        "kinetics.drift_apply_s": own["kinetics.drift_apply"],
        "kinetics.calls": calls["kinetics.diffusion_matrices"] + calls["kinetics.drift_apply"],
        "linalg.psd_sqrt_batch_s": own["linalg.psd_sqrt_batch"],
        "linalg.psd_sqrt_matrices": c["linalg.psd_sqrt_matrices"],
        "linalg.clipped_hard": c["linalg.clipped_hard"],
        "linalg.calls": calls["linalg.psd_sqrt_batch"],
        "event_mc.run_mc_paths_s": own["event_mc.run_mc_paths"],
        "event_mc.calls": calls["event_mc.run_mc_paths"],
        "event_mc.events": c["event_mc.events"],
        "event_mc.halvings": c["event_mc.halvings"],
        "event_mc.negative_captures": c["event_mc.negative_captures"],
        # useful work of fixed-step MC; 0 when no fixed-step MC ran
        "event_mc.fire_ratio": c["event_mc.events"] / fixed_steps if fixed_steps else 0.0,
        "trace.wall_s": tracer.wall(),
        # not a metric: the shared fixed-mode step count, for provenance
        "_fixed_path_steps": fixed_steps,
    }


def trace_checks(tracer: spans.Tracer, layers: dict) -> dict:
    """Self times are non-negative and sum to the traced wall time."""
    own = tracer.self_times()
    wall = layers["trace.wall_s"]
    summed = math.fsum(layers[k] for k in SELF_TIME_METRICS)
    return {
        "self_times_non_negative": min(own, default=0.0) >= -1e-9,
        "self_times_sum_to_wall": abs(summed - wall) <= 1e-9 * max(1.0, wall),
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported tree; source_sha256 identifies the code
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    import numpy
    import scipy
    import stokin

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas = {}
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "stokin").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "stokin": stokin.__version__,
        },
        "blas": {
            "library": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "git_commit": git_commit(),
        "source_sha256": src_digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, w: Workload = None) -> dict:
    """Measure one workload; returns the full result record."""
    from stokin.scenarios import load_scenario

    w = w or WORKLOADS[name]
    scn = load_scenario(w.scenario)
    steps = {m: scn.grid(m).n_steps for m in w.methods if m != "mc"}
    RESULTS.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        setup = []
        if not trace:
            setup_probe(w.scenario)  # untimed: byte-compiles the package
        (work_dir / "ref").mkdir()
        refs = references(w, seed, work_dir / "ref")
        untraced, traced_passes, layer_runs, checks_runs = [], [], [], []
        begin = time.perf_counter()
        deadline = begin + seconds
        while True:  # repeat for about --seconds, at least once
            repeat_start = time.perf_counter()
            untraced.append(run_pass(w, seed, work_dir, refs))
            if len(untraced) == 1:
                # the memory one fresh process needs for the workload; later
                # repeats let the allocator's high-water mark creep up with
                # the repeat count, which depends on machine speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace:
                tracer = spans.Tracer()
                with spans.traced(tracer):
                    traced_passes.append(run_pass(w, seed, work_dir, refs, tracer))
                layer_runs.append(layer_metrics(tracer))
                checks_runs.append(trace_checks(tracer, layer_runs[-1]))
            else:
                # spread the set-up probes over the run, in step with the passes
                share = (time.perf_counter() - begin) / seconds if seconds > 0 else 1.0
                while len(setup) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)):
                    setup.append(setup_probe(w.scenario))
            # stop when the next repeat would end further past the deadline
            # than it starts before it: a run measures about --seconds
            now = time.perf_counter()
            if now + (now - repeat_start) / 2 >= deadline:
                break
        while len(setup) < (0 if trace else SETUP_PROBES):
            setup.append(setup_probe(w.scenario))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = untraced + traced_passes
    ensembles = [e for p in passes for e in p["ensembles"]]
    checks = {
        "cli_exit_codes_zero": all(e["rc"] == 0 for e in ensembles),
        "means_within_z_limit": all(
            abs(z) <= Z_LIMIT for e in ensembles for z in e.get("z", {}).values()
        ),
        "final_time_matches_reference": all(
            e.get("final_time_matches_reference", False) for e in ensembles
        ),
        "digests_identical_across_repeats": all(p["digests"] == passes[0]["digests"] for p in passes),
    }
    if trace:
        for key in checks_runs[0]:
            checks[key] = all(c[key] for c in checks_runs)
        counters = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in layer_runs]
        checks["layer_counts_identical_across_repeats"] = all(c == counters[0] for c in counters)
        metrics = {k: statistics.median(r[k] for r in layer_runs) for k in PER_LAYER if k in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced_passes
        ) - statistics.median(p["wall_s"] for p in untraced)
        units = PER_LAYER
    else:
        attempted = sum(e["paths"] for e in ensembles)
        metrics = {
            # total over total, not the median repeat: a run holds only a
            # few repeats, and the machine's speed changes between them
            "paths_per_s": sum(p["paths"] for p in untraced) / sum(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "completed_path_frac": 1.0 - sum(e["failed_paths"] for e in ensembles) / attempted,
        }
        units = END_TO_END
    checks["metric_names_valid"] = all(METRIC_NAME.fullmatch(k) for k in metrics)

    # MC has no solver grid: its shared fixed-mode step count comes from a
    # traced run (None untraced or in exact mode)
    mc_steps = (layer_runs[0]["_fixed_path_steps"] // w.samples or None) if layer_runs else None
    spec = {
        "workload": name,
        "scenario": w.scenario,
        "master_seed": seed,
        "ensembles": [
            {
                "method": m,
                "paths": w.samples,
                "flags": list(w.flags),
                "steps": mc_steps if m == "mc" else steps[m],
            }
            for m in w.methods
        ],
    }
    return {
        "correct": all(checks.values()),
        "attempted": len(ensembles),
        "failed": sum(e["rc"] != 0 for e in ensembles),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": checks,
        "spec": spec,
        "provenance": provenance(),
        "trace": int(trace),
        "seconds": seconds,
        "setup_samples_s": setup,
        "references": refs,
        "digests": passes[0]["digests"],
        "passes": [
            {
                "traced": i >= len(untraced),
                "wall_s": p["wall_s"],
                "paths": p["paths"],
                "ensembles": [
                    {k: e[k] for k in ("method", "rc", "wall_s", "failed_paths", "z") if k in e}
                    for e in p["ensembles"]
                ],
            }
            for i, p in enumerate(passes)
        ],
        "layer_runs": layer_runs,
    }


def result_path(name: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{name}-seed{seed}-trace{trace}.json"


def write_result(record: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, one fresh process each.

    Fails when a run fails or reports incorrect output, or when the traced
    and untraced runs of a workload wrote different files.
    """
    ok = True
    summary = {}
    for name in WORKLOADS:
        records = []
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            path = result_path(name, seed, trace)
            if proc.returncode != 0 or not path.exists():
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})")
                ok = False
                continue
            record = json.loads(path.read_text(encoding="utf-8"))
            records.append(record)
            ok &= record["correct"]
            for metric, m in record["metrics"].items():
                print(f"{name:16s} {metric:30s} {m['value']:.6g} {m['unit']}")
        if len(records) == 2:
            same = records[0]["digests"] == records[1]["digests"]
            print(f"{name:16s} digests traced == untraced: {same}")
            ok &= same
        summary[name] = {
            f"trace{r['trace']}": {"correct": r["correct"], "metrics": r["metrics"], "digests": r["digests"]}
            for r in records
        }
    write_result(
        {"seed": seed, "seconds": seconds, "correct": ok, "provenance": provenance(), "workloads": summary},
        RESULTS / f"all-seed{seed}.json",
    )
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"master seed (default {DEFAULT_SEED}; recheck claims on {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stokin" / "__init__.py").is_file():
        print(f"stokin sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = result_path(args.workload, args.seed, args.trace)
    write_result(record, path)
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, passed in record["checks"].items():
        if not passed:
            print(f"CHECK FAILED: {name}")
    print(f"result file: {path}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
