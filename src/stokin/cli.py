"""Command-line front end.

Subcommands::

    stokin solve     --scenario table1 --method det            # one path -> CSV
    stokin ensemble  --scenario table3 --method mc --samples 2000 --seed 42
    stokin reproduce --table 1 --out results/                  # result-table CSV
    stokin plotdata  --scenario table3 --method mc --seed 7    # mean/sigma band + 2 paths

Scenario names are presets (table1, table2, table3, linear-rho) or paths to
scenario JSON files.  Outputs land in --out (default: $STOKIN_OUT_DIR or the
working directory), which is made once the flags and the scenario have been
checked and before the run, so an --out that cannot be made fails before any
computation.  Numbers are written in shortest round-trip form, so a rerun
with identical flags and seed produces byte-identical files.  Errors,
file-system ones included, print a JSON error to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .ensemble import METHOD_LABELS, EnsembleSummary, run_ensemble
from .errors import ParameterError, StokinError
from .event_mc import mc_trajectory
from .scenarios import load_scenario
from .solvers import deterministic_solve, euler_maruyama_solve, stochastic_pca_solve

ENV_OUT_DIR = "STOKIN_OUT_DIR"


def _fmt(x) -> str:
    return repr(float(x))


def _out_dir(args) -> str:
    out = args.out or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _component_header(dim) -> list:
    return ["t", "n"] + [f"c{i + 1}" for i in range(dim - 1)]


def _check_method_flags(args):
    """Refuse a flag the chosen method would ignore: ``--mode`` and
    ``--yield`` steer only mc, ``--zero-noise`` only the SDE methods em and
    pca."""
    if args.zero_noise and args.method not in ("em", "pca"):
        raise ParameterError(f"--zero-noise applies to em and pca, not to {args.method}")
    for flag, value in (("--mode", args.mode), ("--yield", args.yield_model)):
        if value is not None and args.method != "mc":
            raise ParameterError(f"{flag} applies to mc, not to {args.method}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    _check_method_flags(args)
    scn = load_scenario(args.scenario)
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    record = scn.record_times()
    rng = np.random.default_rng(args.seed)

    if args.method == "mc":
        mc = scn.mc_config(args.mode, args.yield_model, args.dt)
        idx = slice(None)  # mc_trajectory records the record times only
        run = lambda: mc_trajectory(p, x0, scn.horizon, mc, rng, record)
    else:
        grid = scn.grid(args.method, args.dt)
        idx = grid.node_indices(record)
        if args.method == "det":
            run = lambda: deterministic_solve(p, x0, grid)
        else:
            solver = euler_maruyama_solve if args.method == "em" else stochastic_pca_solve
            run = lambda: solver(p, x0, grid, rng, zero_noise=args.zero_noise)

    out = os.path.join(_out_dir(args), f"{scn.name}_{args.method}_trajectory.csv")
    traj = run()
    times, states = traj.times[idx], traj.states[idx]
    rows = [[_fmt(t)] + [_fmt(v) for v in row] for t, row in zip(times, states)]
    _write_csv(out, _component_header(p.dim), rows)
    print(out)
    return 0


def _summary_rows(summary: EnsembleSummary):
    rows = []
    for k, t in enumerate(summary.times):
        for j, name in enumerate(summary.component_names):
            rows.append(
                [
                    _fmt(t),
                    name,
                    _fmt(summary.mean[k, j]),
                    _fmt(summary.std[k, j]),
                    _fmt(summary.ci_halfwidth[k, j]),
                    summary.n_samples,
                ]
            )
    return rows


def _summary_json(summary: EnsembleSummary, scenario_name: str) -> dict:
    return {
        "scenario": scenario_name,
        "method": METHOD_LABELS[summary.method],
        "master_seed": summary.master_seed,
        "n_samples": summary.n_samples,
        "converged": summary.converged,
        "stop_reason": summary.stop_reason,
        "failures": summary.failures,
        "component_names": summary.component_names,
        "times": [float(t) for t in summary.times],
        "mean": summary.mean.tolist(),
        "std": summary.std.tolist(),
        "ci_halfwidth": summary.ci_halfwidth.tolist(),
        "diagnostics": summary.diagnostics,
    }


def _scenario_ensemble(args, keep_paths=0):
    """Load the scenario, build the ensemble the flags ask for, make the
    output directory and run.  A sample cap below the ``keep_paths`` paths
    the command writes is refused before anything runs."""
    _check_method_flags(args)
    scn = load_scenario(args.scenario)
    p = scn.build_parameters()
    grid = scn.grid(args.method, args.dt)
    mc = scn.mc_config(args.mode, args.yield_model, args.dt) if args.method == "mc" else None
    cfg = scn.ensemble_config(args.method, args.seed, args.samples, mc, args.zero_noise, keep_paths)
    if cfg.max_samples < keep_paths:
        raise ParameterError(
            f"sample cap {cfg.max_samples} is below the {keep_paths} sample paths written; raise --samples"
        )
    out_dir = _out_dir(args)
    return out_dir, scn, run_ensemble(p, scn.build_initial(p), grid, cfg)


def _cmd_ensemble(args) -> int:
    out_dir, scn, summary = _scenario_ensemble(args)

    base = f"{scn.name}_{args.method}_summary"
    csv_path = os.path.join(out_dir, base + ".csv")
    _write_csv(
        csv_path,
        ["t", "component", "mean", "std", "ci_halfwidth", "n_samples"],
        _summary_rows(summary),
    )
    json_path = os.path.join(out_dir, base + ".json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(_summary_json(summary, scn.name), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(csv_path)
    print(json_path)
    return 0


_TABLE_QUANTITIES = {
    "1": [("n", "n(2)"), ("c1", "c1(2)")],
    "2": [("n", "n(0.1)"), ("c_sum", "c_sum(0.1)")],
    "3": [("n", "n(0.001)"), ("c_sum", "c_sum(0.001)")],
}


def _cmd_reproduce(args) -> int:
    scn = load_scenario(f"table{args.table}")
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    quantities = _TABLE_QUANTITIES[args.table]

    rows = []

    def add_rows(method_name, means, stds):
        for (comp, label), mean, std in zip(quantities, means, stds):
            rows.append([label, method_name, _fmt(mean), "" if std is None else _fmt(std)])

    configs = []
    for method in ("mc", "pca", "em"):
        samples, mode = args.samples, None
        if method == "mc":
            samples = args.samples if args.mc_samples is None else args.mc_samples
            if args.table == "2" and args.mc_samples is None:
                # full-horizon event MC at ~5e6 events/s per path: trim the
                # default sample count to keep this a desk-scale run
                samples, mode = 64, "exact"
        configs.append((method, scn.ensemble_config(method, args.seed, samples, scn.mc_config(mode))))

    out_dir = _out_dir(args)
    for method, cfg in configs:
        summary = run_ensemble(p, x0, scn.grid(method), cfg)
        means = []
        stds = []
        for comp, _ in quantities:
            j = summary.component_index(comp)
            means.append(summary.mean[-1, j])
            stds.append(summary.std[-1, j])
        add_rows(METHOD_LABELS[summary.method], means, stds)

    det = deterministic_solve(p, x0, scn.grid("det"))
    final = det.final_state
    det_vals = {"n": final[0], "c1": final[1], "c_sum": final[1:].sum()}
    add_rows(METHOD_LABELS["det"], [det_vals[comp] for comp, _ in quantities], [None, None])

    out = os.path.join(out_dir, f"table{args.table}_results.csv")
    _write_csv(out, ["quantity", "method", "mean", "std"], rows)
    print(out)
    return 0


def _cmd_plotdata(args) -> int:
    out_dir, scn, summary = _scenario_ensemble(args, keep_paths=2)

    j = summary.component_index("n")
    samples = summary.sample_paths
    if samples is None or len(samples) < 2:
        raise StokinError("plotdata needs at least two completed sample paths")
    rows = []
    for k, t in enumerate(summary.times):
        # trailing empty column: slot for user-supplied reference data
        rows.append(
            [
                _fmt(t),
                _fmt(summary.mean[k, j]),
                _fmt(summary.std[k, j]),
                _fmt(samples[0][k, 0]),
                _fmt(samples[1][k, 0]),
                "",
            ]
        )
    out = os.path.join(out_dir, f"{scn.name}_{args.method}_plotdata.csv")
    _write_csv(out, ["t", "mean", "std", "sample_1", "sample_2", "reference"], rows)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, methods, default_method=None):
    sub.add_argument("--scenario", required=True, help="preset name or scenario JSON path")
    sub.add_argument("--method", choices=methods, default=default_method, required=default_method is None)
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--dt", type=float, default=None, help="override the solver step")
    sub.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT_DIR} or .)")
    sub.add_argument("--mode", choices=["fixed", "exact"], default=None, help="MC stepping mode")
    sub.add_argument(
        "--yield",
        dest="yield_model",
        choices=["fractional", "integer"],
        default=None,
        help="MC fission yield model",
    )
    sub.add_argument("--zero-noise", action="store_true", help="diagnostic: force the diffusion to zero")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokin", description="stochastic point kinetics simulations"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="one deterministic or single-seed stochastic path")
    _add_common(s, ["det", "em", "pca", "mc"])
    s.set_defaults(func=_cmd_solve)

    s = subs.add_parser("ensemble", help="many seeded paths with summary statistics")
    _add_common(s, ["em", "pca", "mc"])
    s.add_argument("--samples", type=int, default=None, help="fixed sample count (min=max)")
    s.set_defaults(func=_cmd_ensemble)

    s = subs.add_parser("reproduce", help="result table with all four method columns")
    s.add_argument("--table", choices=["1", "2", "3"], required=True)
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--mc-samples", type=int, default=None, help="override MC sample count")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_reproduce)

    s = subs.add_parser("plotdata", help="mean/sigma band plus two sample paths")
    _add_common(s, ["em", "pca", "mc"])
    s.add_argument("--samples", type=int, default=None)
    s.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ParameterError(f"--seed must be nonnegative, got {args.seed}")
        for flag in ("samples", "mc_samples"):
            n = getattr(args, flag, None)
            if n is not None and n < 1:
                raise ParameterError(f"--{flag.replace('_', '-')} must be at least 1, got {n}")
        return args.func(args)
    except (StokinError, OSError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
